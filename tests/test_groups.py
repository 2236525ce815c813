"""Group layer: tables, extensions, derived series, characters, irreps."""

import itertools
import math

import numpy as np
import pytest

from gaugekit import groups as G
from reference import central_quotient, conjugacy_classes, is_isomorphic, loop_permutation_table

TOL = 1e-12


def normal_subgroups(g):
    """All normal subgroups, as unions of conjugacy classes closed under mult."""
    classes = conjugacy_classes(g)
    out = []
    for r in range(1, len(classes) + 1):
        for combo in itertools.combinations(range(len(classes)), r):
            members = sorted(c for idx in combo for c in classes[idx])
            if 0 not in members or g.order % len(members) != 0:
                continue
            mset = set(members)
            if all(g.mul(a, b) in mset for a in members for b in members):
                out.append(G.subgroup_from_members(g, members))
    return out


# --- cyclic and product builders -------------------------------------------


def test_cyclic_trivial_and_z2():
    z1 = G.build_cyclic(1)
    assert z1.order == 1 and z1.identity == 0
    z2 = G.build_cyclic(2)
    assert z2.mul(1, 1) == 0
    assert z2.inverse(1) == 1


def test_cyclic_rejects_order_zero():
    with pytest.raises(ValueError):
        G.build_cyclic(0)


def test_z4_unique_order_two_element():
    z4 = G.build_cyclic(4)
    orders = [z4.element_order(a) for a in z4.elements()]
    assert orders == [1, 4, 2, 4]
    assert orders.count(2) == 1 and orders.index(2) == 2


def test_klein_four_has_three_involutions():
    v4 = G.direct_product(G.build_cyclic(2), G.build_cyclic(2))
    assert v4.order == 4
    assert sum(1 for a in v4.elements() if v4.element_order(a) == 2) == 3


def test_trivial_factor_is_identity_on_tables():
    g = G.catalog()["S3"]
    prod = G.direct_product(G.build_cyclic(1), g)
    assert np.array_equal(prod.mult, g.mult)


def test_z2_times_z3_is_z6():
    prod = G.direct_product(G.build_cyclic(2), G.build_cyclic(3))
    assert max(prod.element_order(a) for a in prod.elements()) == 6
    assert is_isomorphic(prod, G.build_cyclic(6))


def test_identity_is_index_zero_everywhere():
    for g in G.catalog().values():
        assert g.identity == 0
        assert np.array_equal(g.mult[0], np.arange(g.order))
        assert np.array_equal(g.mult[:, 0], np.arange(g.order))


def test_group_axioms_enforced():
    bad = [[0, 1], [1, 1]]  # row 1 not a permutation
    with pytest.raises(ValueError):
        G.FiniteGroup(bad)
    shifted = [[1, 0], [0, 1]]  # index 0 not the identity
    with pytest.raises(ValueError):
        G.FiniteGroup(shifted)
    # binary xor on 3 bits with one corrupted entry breaks associativity
    t = np.bitwise_xor.outer(np.arange(4), np.arange(4))
    t[3, 3] = 1
    t[3, 1] = 0
    with pytest.raises(ValueError):
        G.FiniteGroup(t)


def test_inverse_and_commutator_identities():
    for name in ("Z6", "S3", "D4", "Q8", "S4"):
        g = G.catalog()[name]
        for a in g.elements():
            assert g.mul(a, g.inverse(a)) == 0
            assert g.mul(g.inverse(a), a) == 0
        for a, b in itertools.product(g.elements(), repeat=2):
            expected = g.mul(g.mul(a, b), g.mul(g.inverse(a), g.inverse(b)))
            assert g.commutator(a, b) == expected


# --- extensions -------------------------------------------------------------


def test_d4_extension_structure():
    d4 = G.catalog()["D4"]
    assert d4.order == 8 and not d4.is_abelian
    assert G.center(d4).order == 2
    assert sum(1 for a in d4.elements() if d4.element_order(a) == 4) == 2


def test_q8_extension_structure():
    q8 = G.catalog()["Q8"]
    assert q8.order == 8 and not q8.is_abelian
    assert sum(1 for a in q8.elements() if q8.element_order(a) == 2) == 1
    assert G.center(q8).order == 2


def test_d4_q8_not_isomorphic():
    assert not is_isomorphic(G.catalog()["D4"], G.catalog()["Q8"])
    assert not is_isomorphic(G.build_cyclic(4), G.direct_product(G.build_cyclic(2), G.build_cyclic(2)))


def test_permutation_group_tables_match_the_tuple_loop():
    """The vectorized composition table equals, bitwise, the table composed
    one tuple pair at a time, identity first; a set that is not closed or
    lacks the identity is still rejected."""
    for n, even in [(3, False), (4, False), (4, True), (5, True)]:
        perms = [p for p in itertools.permutations(range(n)) if not even or G._is_even(p)]
        g = G.alternating_group(n) if even else G.symmetric_group(n)
        assert g.mult.dtype == np.int64 and np.array_equal(g.mult, loop_permutation_table(perms)), g.name
        assert np.array_equal(g.mult[0], np.arange(g.order))
    with pytest.raises(ValueError, match="not closed under composition"):
        G.permutation_group([(0, 1, 2), (1, 2, 0)], name="C3 without its square")
    with pytest.raises(ValueError, match="must contain the identity"):
        G.permutation_group([(1, 0, 2), (1, 2, 0)], name="no identity")
    with pytest.raises(ValueError, match="at most 15 points"):
        G.permutation_group([tuple(range(16))], name="too many points")
    assert G.permutation_group([tuple(range(15))], name="trivial on 15 points").order == 1


def test_group_hash_is_taken_once_from_the_read_only_table(monkeypatch):
    built = G.symmetric_group(4)
    again = G.permutation_group(list(itertools.permutations(range(4))), name="other")
    assert built == again and hash(built) == hash(again) == hash((24, built.mult.tobytes()))
    monkeypatch.setattr(built, "mult", None)
    assert hash(built) == hash(again), "hashing a group reads its table again"


def test_s3_extension_matches_permutation_group():
    assert is_isomorphic(G.catalog()["S3"], G.symmetric_group(3))


def test_split_extension_is_direct_product():
    z3, z2 = G.build_cyclic(3), G.build_cyclic(2)
    fs = G.FactorSystem(
        n_group=z3,
        q_group=z2,
        sigma=np.tile(np.arange(3), (2, 1)),
        omega=np.zeros((2, 2), dtype=np.int64),
    )
    built = G.extension_from_factor_system(fs)
    assert np.array_equal(built.mult, G.direct_product(z3, z2).mult)


def test_cocycle_violation_rejected_with_triple():
    omega = np.zeros((4, 4), dtype=np.int64)
    omega[1, 1] = 1  # counital but not a cocycle over Q = Z4
    with pytest.raises(ValueError, match=r"cocycle.*\(1,\s*1,\s*2\)|cocycle"):
        G.FactorSystem(
            n_group=G.build_cyclic(2),
            q_group=G.build_cyclic(4),
            sigma=np.tile(np.arange(2), (4, 1)),
            omega=omega,
        )


def test_sigma_must_be_automorphism():
    sigma = np.stack([np.arange(3), np.array([0, 1, 1])])
    with pytest.raises(ValueError):
        G.FactorSystem(
            n_group=G.build_cyclic(3),
            q_group=G.build_cyclic(2),
            sigma=sigma,
            omega=np.zeros((2, 2), dtype=np.int64),
        )


def test_factor_system_of_s3_over_a3():
    s3 = G.symmetric_group(3)
    a3 = G.commutator_subgroup(s3)
    assert a3.order == 3
    fs = G.factor_system_of(s3, a3)
    assert fs.sigma[1].tolist() == [0, 2, 1]  # inversion on Z3
    assert np.all(fs.omega == 0)
    assert not G.is_nil2_extension(fs)


def test_factor_system_of_split_product():
    g = G.direct_product(G.build_cyclic(3), G.build_cyclic(2))
    n = G.subgroup_from_members(g, [0, 2, 4])  # the Z3 factor
    fs = G.factor_system_of(g, n)
    assert np.all(fs.omega == 0)
    assert all(fs.sigma[q].tolist() == [0, 1, 2] for q in range(2))


def test_factor_system_rejects_non_normal():
    s3 = G.symmetric_group(3)
    transposition = next(a for a in s3.elements() if s3.element_order(a) == 2)
    sub = G.generated_subgroup(s3, [transposition])
    with pytest.raises(ValueError):
        G.factor_system_of(s3, sub)


def test_lift_is_lowest_coset_representative():
    g = G.catalog()["D4"]
    n = G.center(g)
    fs = G.factor_system_of(g, n)
    assert fs.lift[0] == 0
    _, proj, reps = G.quotient_group(g, n)
    for q in range(fs.q_group.order):
        coset = [a for a in g.elements() if proj[a] == q]
        assert fs.lift[q] == min(coset)


def test_split_reconstruction_identity():
    g = G.catalog()["S4"]
    n = G.subgroup_from_members(g, G.derived_series(g)[0][2].members)
    fs = G.factor_system_of(g, n)
    for a in g.elements():
        rebuilt = g.mul(int(fs.embed[fs.tpart[a]]), int(fs.lift[fs.proj[a]]))
        assert rebuilt == a


def test_round_trip_extension_isomorphism_catalog():
    for name, g in G.catalog().items():
        if g.order > 24:
            continue
        for n in normal_subgroups(g):
            if n.order == 1:
                continue
            fs = G.factor_system_of(g, n)
            rebuilt = G.extension_from_factor_system(fs, name=f"{name}-rt")
            assert is_isomorphic(rebuilt, g), f"{name} over N of order {n.order}"


def test_sigma_twist_identity_on_extracted_systems():
    for name in ("D4", "Q8", "S3", "S4", "A4"):
        g = G.catalog()[name]
        for n in normal_subgroups(g):
            if n.order in (1, g.order):
                continue
            fs = G.factor_system_of(g, n)
            ng, qg = fs.n_group, fs.q_group
            for q1, q2 in itertools.product(qg.elements(), repeat=2):
                w = int(fs.omega[q1, q2])
                composed = fs.sigma[q1][fs.sigma[q2]]
                twisted = [ng.mul(ng.mul(w, int(m)), ng.inverse(w)) for m in fs.sigma[qg.mul(q1, q2)]]
                assert composed.tolist() == twisted


# --- derived structure ------------------------------------------------------


def test_commutator_subgroup_examples():
    assert G.commutator_subgroup(G.build_cyclic(6)).order == 1
    s3 = G.symmetric_group(3)
    comm = G.commutator_subgroup(s3)
    assert comm.members == (0, 3, 4)  # the lexicographic 3-cycles
    s4 = G.symmetric_group(4)
    comm4 = G.commutator_subgroup(s4)
    assert comm4.order == 12
    assert is_isomorphic(comm4.as_group(), G.alternating_group(4))


def test_derived_lengths_catalog():
    expected = {
        "Z1": 0,
        "Z2": 1,
        "Z3": 1,
        "Z4": 1,
        "Z6": 1,
        "Z2xZ2": 1,
        "S3": 2,
        "D4": 2,
        "Q8": 2,
        "A4": 2,
        "S4": 3,
        "A5": None,
    }
    for name, length in expected.items():
        chain, got = G.derived_series(G.catalog()[name])
        assert got == length, name


def test_s4_derived_chain_orders():
    chain, length = G.derived_series(G.catalog()["S4"])
    assert [s.order for s in chain] == [24, 12, 4, 1]
    assert length == 3


def test_a5_reports_perfect_core():
    a5 = G.catalog()["A5"]
    chain, length = G.derived_series(a5)
    assert length is None
    assert chain[-1].order == 60
    assert G.perfect_core(a5).order == 60


def test_derived_series_members_normal_and_quotients_abelian():
    for name in ("S3", "D4", "Q8", "A4", "S4"):
        g = G.catalog()[name]
        chain, length = G.derived_series(g)
        assert length is not None
        assert len(chain) - 1 <= math.log2(g.order) + TOL
        for prev, cur in zip(chain, chain[1:]):
            assert cur.is_normal()  # normal in G implies normal in prev
            assert set(cur.members) <= set(prev.members)
            prev_group = prev.as_group()
            relabel = {m: i for i, m in enumerate(prev.members)}
            cur_local = G.subgroup_from_members(prev_group, [relabel[m] for m in cur.members])
            q, _, _ = G.quotient_group(prev_group, cur_local)
            assert q.is_abelian


def test_center_examples():
    assert G.center(G.catalog()["D4"]).order == 2
    assert G.center(G.catalog()["S3"]).order == 1
    z6 = G.build_cyclic(6)
    assert G.center(z6).order == 6


def test_perfect_core_and_central_quotient():
    for name in ("Z4", "S3", "D4", "S4"):
        assert G.perfect_core(G.catalog()[name]).order == 1
    assert central_quotient(G.catalog()["D4"]).order == 4
    a5 = G.catalog()["A5"]
    assert central_quotient(a5).order == 60


def test_is_nil2_extension():
    assert G.is_nil2_extension(G.catalog_factor_system("D4"))
    assert G.is_nil2_extension(G.catalog_factor_system("Q8"))
    assert not G.is_nil2_extension(G.catalog_factor_system("S3"))
    trivial = G.FactorSystem(
        n_group=G.build_cyclic(1),
        q_group=G.build_cyclic(1),
        sigma=np.zeros((1, 1), dtype=np.int64),
        omega=np.zeros((1, 1), dtype=np.int64),
    )
    assert G.is_nil2_extension(trivial)


# --- characters and irreps --------------------------------------------------


def test_character_pairing_properties():
    for spec in ("Z2", "Z3", "Z4", "Z6", "Z2xZ2", "Z2xZ4", "Z3xZ3"):
        g = G.group_from_spec(spec)
        chi = G.character_table(g)
        n = g.order
        assert np.abs(chi - chi.T).max() < TOL  # symmetric pairing
        assert np.abs(np.abs(chi) - 1).max() < TOL
        assert np.abs(chi[0] - 1).max() < TOL
        for a, b, c in itertools.product(range(n), repeat=3):
            assert abs(chi[a, g.mul(b, c)] - chi[a, b] * chi[a, c]) < TOL
        # perfect pairing: rows orthogonal
        gram = chi @ chi.conj().T / n
        assert np.abs(gram - np.eye(n)).max() < 1e-10


def test_z2_nontrivial_character():
    chi = G.character_table(G.build_cyclic(2))
    assert abs(chi[1, 1] + 1) < TOL


def test_character_inverse_is_conjugate():
    for spec in ("Z4", "Z6", "Z2xZ2"):
        g = G.group_from_spec(spec)
        chi = G.character_table(g)
        for a, b in itertools.product(g.elements(), repeat=2):
            assert abs(chi[a, g.inverse(b)] - np.conj(chi[a, b])) < TOL


def test_irrep_dimensions():
    assert sorted(ir.dim for ir in G.irrep_table(G.catalog()["S3"]).irreps) == [1, 1, 2]
    assert sorted(ir.dim for ir in G.irrep_table(G.catalog()["D4"]).irreps) == [1, 1, 1, 1, 2]
    assert sorted(ir.dim for ir in G.irrep_table(G.catalog()["Q8"]).irreps) == [1, 1, 1, 1, 2]
    for name in ("S3", "D4", "Q8"):
        table = G.irrep_table(G.catalog()[name])
        assert sum(ir.dim**2 for ir in table.irreps) == table.group.order


def test_irrep_homomorphism_and_unitarity():
    for name in ("S3", "D4", "Q8", "Z6"):
        g = G.catalog()[name] if name in G.catalog() else G.build_cyclic(6)
        table = G.irrep_table(g)
        for ir in table.irreps:
            assert np.abs(ir.matrices[0] - np.eye(ir.dim)).max() < TOL
            for a, b in itertools.product(g.elements(), repeat=2):
                prod = ir.matrices[a] @ ir.matrices[b]
                assert np.abs(prod - ir.matrices[g.mul(a, b)]).max() < TOL
            for a in g.elements():
                u = ir.matrices[a]
                assert np.abs(u @ u.conj().T - np.eye(ir.dim)).max() < TOL


def test_irrep_character_orthogonality():
    for name in ("S3", "D4", "Q8"):
        table = G.irrep_table(G.catalog()[name])
        chars = table.characters
        gram = chars @ chars.conj().T / table.group.order
        assert np.abs(gram - np.eye(len(table.irreps))).max() < TOL


def test_irrep_unsupported_outside_catalog():
    with pytest.raises(ValueError):
        G.irrep_table(G.catalog()["A4"])


def test_abelian_irreps_match_character_table():
    g = G.build_cyclic(4)
    table = G.irrep_table(g)
    chi = G.character_table(g)
    for a, ir in enumerate(table.irreps):
        assert np.abs(ir.matrices[:, 0, 0] - chi[a]).max() < TOL


# --- catalog and serialization ----------------------------------------------


def test_group_from_spec():
    assert G.group_from_spec("Z2xZ3").order == 6
    assert G.group_from_spec("D4").order == 8
    with pytest.raises(ValueError):
        G.group_from_spec("E8")


def test_json_catalog_round_trip():
    doc = {
        "groups": [
            {"name": "z2", "order": 2, "mult_table": [[0, 1], [1, 0]]},
            {
                "name": "d4j",
                "extension": {
                    "n": "Z2",
                    "q": "Z2xZ2",
                    "sigma": [[0, 1]] * 4,
                    "omega": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 0, 1]],
                },
            },
        ]
    }
    loaded = G.load_catalog(doc)
    assert loaded["z2"].order == 2
    assert loaded["d4j"].order == 8
    assert is_isomorphic(loaded["d4j"], G.catalog()["D4"])


def test_subgroup_requires_closure():
    g = G.symmetric_group(3)
    with pytest.raises(ValueError):
        G.subgroup_from_members(g, [0, 2, 3])  # transposition plus 3-cycle, not closed
