"""Certification layer: oracle state, stabilizers, degeneracy, identity suite."""

import json
import tracemalloc
from types import ModuleType

import numpy as np
import pytest

from gaugekit import groups, verify
from gaugekit.cellulation import (
    Cellulation,
    hexagon_torus,
    square_torus,
    tetrahedron_sphere,
    theta_sphere,
    triangle_graph,
    two_vertex_graph,
)
from gaugekit.groups import (
    catalog,
    catalog_factor_system,
    character_table,
    commutator_subgroup,
    factor_system_of,
    generated_subgroup,
    group_from_spec,
    irrep_table,
)
from gaugekit.gates import controlled_left, controlled_right, cz_abelian, left_mult, right_mult
from gaugekit.kwmaps import kw_exact_g
from gaugekit.register import DiagonalOperator, LocalOperator, QuditRegister, SiteSpec, init_plus
from gaugekit.verify import (
    GSD_DIM_BUDGET,
    StabilizerReport,
    check_identity,
    commuting_pair_classes,
    ground_state_degeneracy,
    identity_names,
    identity_suite,
    plaquette_stabilizer,
    stabilizer_report,
)
import reference
from reference import dense_projector_rank, dense_vertex_projector, oracle_double_state, theta_sphere_reversed

CAT = catalog()

# both degeneracy oracles reproduced these on the one-plaquette torus
TORUS_GSD = {"Z2": 4, "Z3": 9, "S3": 8, "D4": 22}
EXTRA_PAIR_CLASSES = {"Z4": 16, "Z6": 36, "Z2xZ2": 16, "Q8": 22, "A4": 14, "S4": 21, "A5": 22}


def exact_double(g_group, cell):
    reg = init_plus([SiteSpec(("v", v), "vertex", g_group) for v in range(cell.n_vertices)])
    return kw_exact_g(reg, cell, g_group)


def random_edge_register(rng, g_group, cell):
    dims = (g_group.order,) * cell.n_edges
    x = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    specs = [SiteSpec(("e", e), "edge", g_group) for e in range(cell.n_edges)]
    return QuditRegister(specs, x / np.linalg.norm(x))


# --- oracle state -----------------------------------------------------------


def test_oracle_single_edge_is_uniform():
    reg = oracle_double_state(CAT["Z2"], two_vertex_graph())
    assert np.allclose(reg.amps, np.full(2, 2**-0.5))


def test_oracle_hexagon_s3_support_is_diagonal():
    g = CAT["S3"]
    reg = oracle_double_state(g, hexagon_torus())
    # all three edges share the one wall value, uniformly over the group
    want = np.zeros((6, 6, 6))
    for h in range(6):
        want[h, h, h] = 6**-0.5
    assert np.allclose(reg.amps, want)


@pytest.mark.parametrize("name", ["Z2", "Z4", "S3", "D4"])
def test_oracle_matches_definitional_map(name):
    g = CAT[name]
    cell = hexagon_torus()
    assert oracle_double_state(g, cell).fidelity(exact_double(g, cell)) > 1 - 1e-12


def test_oracle_square_torus_z2():
    g = CAT["Z2"]
    cell = square_torus(2, 2)
    assert oracle_double_state(g, cell).fidelity(exact_double(g, cell)) > 1 - 1e-12


def test_oracle_budget_rejection():
    with pytest.raises(ValueError, match="budget"):
        oracle_double_state(CAT["A5"], square_torus(2, 2))


def test_oracle_reads_no_gate_or_gauging_code():
    """Its globals and defaults come from numpy, itertools and the register;
    groups and cellulation enter as annotations only."""
    names = vars(reference)
    used = [names[n] for n in oracle_double_state.__code__.co_names if n in names]
    used += list(oracle_double_state.__defaults__)
    homes = {obj.__name__ if isinstance(obj, ModuleType) else obj.__module__ for obj in used if not isinstance(obj, int)}
    assert homes == {"itertools", "numpy", "gaugekit.register"}


# --- stabilizers --------------------------------------------------------------


@pytest.mark.parametrize("name", ["Z2", "Z3", "S3", "D4", "A4"])
def test_oracle_satisfies_all_stabilizers(name):
    g = CAT[name]
    cell = hexagon_torus()
    reg = oracle_double_state(g, cell)
    psi = reg.amps.ravel()
    for v in range(cell.n_vertices):
        val = np.vdot(psi, dense_vertex_projector(g, cell, v) @ psi)
        assert abs(val - 1) < 1e-9
    for p in range(cell.n_plaquettes):
        val = reg.expectation(plaquette_stabilizer(g, cell, p))
        assert abs(val - 1) < 1e-9


@pytest.mark.parametrize("name", ["Z2", "S3"])
def test_stabilizers_are_commuting_projectors(name):
    g = CAT[name]
    cell = hexagon_torus()
    rng = np.random.default_rng(7)
    psi = random_edge_register(rng, g, cell).amps.ravel()
    grids = np.indices((g.order,) * cell.n_edges).reshape(cell.n_edges, -1)
    ops = [dense_vertex_projector(g, cell, v) for v in range(cell.n_vertices)]
    for p in range(cell.n_plaquettes):
        bp = plaquette_stabilizer(g, cell, p)
        edges = [e for _, e in bp.targets]
        ops.append(np.diag(bp.diag[np.ravel_multi_index(tuple(grids[edges]), (g.order,) * len(edges))]))
    for op in ops:
        once = op @ psi
        twice = op @ once
        assert np.abs(once - twice).max() < 1e-12
    for a in ops:
        for b in ops:
            assert np.abs(b @ (a @ psi) - a @ (b @ psi)).max() < 1e-12


@pytest.mark.parametrize("name", ["Z2", "Z3", "S3", "D4"])
def test_vertex_tables_are_the_gate_constructor_images(name):
    """Every reader of A_v^g reads one table; pin it to the constructors the
    pair identities certify: L^g on an edge leaving v, R^g on one entering it."""
    g_group = CAT[name]
    cells = [square_torus(2, 2), hexagon_torus(), theta_sphere(), tetrahedron_sphere(), two_vertex_graph(2), triangle_graph()]
    for cell in cells:
        for v in range(cell.n_vertices):
            incident = cell.edges_at_vertex(v)
            tables = verify._vertex_tables(g_group, cell, v)
            assert [e for e, _ in tables] == [e for e, _ in incident]
            for (e, sign), (_, table) in zip(incident, tables):
                for g in g_group.elements():
                    gate = left_mult(g_group, g, "x") if sign == 1 else right_mult(g_group, g, "x")
                    assert np.array_equal(table[g], gate.image), (cell.name, v, e, g)


def test_vertex_stabilizer_expectation_is_symmetric_weight():
    # on a random state the vertex projector expectation stays in [0, 1]
    g = CAT["Z3"]
    cell = hexagon_torus()
    rng = np.random.default_rng(3)
    psi = random_edge_register(rng, g, cell).amps.ravel()
    val = np.vdot(psi, dense_vertex_projector(g, cell, 0) @ psi)
    assert abs(val.imag) < 1e-12
    assert -1e-12 < val.real < 1 + 1e-12


def test_open_graph_vertex_terms():
    g = CAT["Z2"]
    cell = two_vertex_graph(3)
    reg = oracle_double_state(g, cell)
    rep = stabilizer_report(reg, g, cell)
    assert rep.plaquette_expectations == {}
    assert rep.min_expectation() > 1 - 1e-9


# --- degeneracy ---------------------------------------------------------------


@pytest.mark.parametrize("name,want", sorted(TORUS_GSD.items()))
def test_torus_degeneracy_frozen_values(name, want):
    g = CAT[name]
    assert ground_state_degeneracy(g, hexagon_torus()) == want
    assert commuting_pair_classes(g) == want


@pytest.mark.parametrize("name,want", sorted(EXTRA_PAIR_CLASSES.items()))
def test_pair_class_counts(name, want):
    assert commuting_pair_classes(CAT[name]) == want


def test_projector_rank_matches_pair_classes_beyond_frozen():
    for name in ["Z4", "Z2xZ2", "Q8", "A4"]:
        g = CAT[name]
        assert ground_state_degeneracy(g, hexagon_torus()) == commuting_pair_classes(g)


def test_degeneracy_square_torus_is_genus_invariant():
    assert ground_state_degeneracy(CAT["Z2"], square_torus(2, 2)) == 4


def test_degeneracy_sphere_is_one():
    assert ground_state_degeneracy(CAT["S3"], theta_sphere()) == 1
    assert ground_state_degeneracy(CAT["Z4"], theta_sphere()) == 1


def test_degeneracy_rejections():
    with pytest.raises(ValueError, match=r"^edge space 24\^8 exceeds the degeneracy label budget 262144$"):
        ground_state_degeneracy(CAT["S4"], square_torus(2, 2))
    with pytest.raises(ValueError, match="closed"):
        ground_state_degeneracy(CAT["Z2"], two_vertex_graph())


def path_sphere(n_edges):
    """A path of n_edges edges on the sphere: one face whose walk runs out
    along the path and back, so V = E + 1."""
    out = tuple((e, 1) for e in range(n_edges))
    back = tuple((e, -1) for e in reversed(range(n_edges)))
    return Cellulation(
        n_vertices=n_edges + 1,
        edges=tuple((e, e + 1) for e in range(n_edges)),
        plaquettes=(out + back,),
        dual_edges=((0, 0),) * n_edges,
        genus=0,
        name=f"path_sphere_{n_edges}",
    )


def dense_product_rank(g_group, cell):
    """The slow reference: complex vertex averages chained by matrix
    products, the plaquette rows zeroed, the rank read off the full
    spectrum."""
    d, n_e = g_group.order, cell.n_edges
    dim = d**n_e
    grids = np.indices((d,) * n_e).reshape(n_e, -1)
    cols = np.arange(dim)
    proj = np.eye(dim, dtype=np.complex128)
    for v in range(cell.n_vertices):
        acc = np.zeros((dim, dim), dtype=np.complex128)
        for g in g_group.elements():
            acc[reference._vertex_perm_columns(g_group, cell, v, g, grids), cols] += 1.0 / d
        proj = acc @ proj
    for p in range(cell.n_plaquettes):
        bp = plaquette_stabilizer(g_group, cell, p)
        spots = [sid[1] for sid in bp.targets]
        joint = np.ravel_multi_index(tuple(grids[e] for e in spots), (d,) * len(spots))
        proj *= bp.diag[joint].real[:, None]
    assert np.abs(proj - proj.conj().T).max() <= 1e-10
    eigs = np.linalg.eigvalsh((proj + proj.conj().T) / 2)
    assert not np.any((eigs > 1e-8) & (eigs < 1 - 1e-8))
    return int(np.count_nonzero(eigs >= 1 - 1e-8))


GSD_CROSS_CHECK = [(name, hexagon_torus, 1) for name in ["Z2", "Z3", "Z4", "Z6", "Z2xZ2", "S3", "D4", "Q8"]] + [
    ("D4", theta_sphere, 0),
    ("Z2", lambda: square_torus(2, 2), 1),
    ("Z3", tetrahedron_sphere, 0),
    ("S3", lambda: path_sphere(2), 0),
    ("Z2", lambda: path_sphere(6), 0),
    ("Q8", lambda: path_sphere(3), 0),
]


def test_degeneracy_matches_dense_product_reference():
    for name, make_cell, genus in GSD_CROSS_CHECK:
        g, cell = CAT[name], make_cell()
        rank = dense_projector_rank(g, cell)
        assert rank == dense_product_rank(g, cell), (name, cell.name)
        assert rank == ground_state_degeneracy(g, cell), (name, cell.name)
        assert rank == (commuting_pair_classes(g) if genus else 1), (name, cell.name)


FIXTURE_CELLS = [
    hexagon_torus,
    theta_sphere,
    theta_sphere_reversed,
    tetrahedron_sphere,
    lambda: square_torus(2, 2),
]


def test_orbit_count_matches_dense_rank_wherever_the_projector_fits():
    checked = 0
    for make_cell in FIXTURE_CELLS:
        cell = make_cell()
        for name, g in CAT.items():
            if g.order**cell.n_edges > GSD_DIM_BUDGET:
                continue
            assert ground_state_degeneracy(g, cell) == dense_projector_rank(g, cell), (name, cell.name)
            checked += 1
    assert checked == 35


@pytest.mark.parametrize(
    "name,make_cell,want",
    [
        ("S4", hexagon_torus, 21),
        ("Z3", lambda: square_torus(2, 2), 9),
        ("S3", tetrahedron_sphere, 1),
        ("Z6", tetrahedron_sphere, 1),
        ("A5", hexagon_torus, 22),
    ],
    ids=["S4-hexagon_torus", "Z3-square_torus", "S3-tetrahedron", "Z6-tetrahedron", "A5-hexagon_torus"],
)
def test_orbit_count_past_the_dense_budget(name, make_cell, want):
    g, cell = CAT[name], make_cell()
    assert g.order**cell.n_edges > GSD_DIM_BUDGET
    assert ground_state_degeneracy(g, cell) == want
    if cell.genus:
        assert want == commuting_pair_classes(g)
    with pytest.raises(ValueError, match=f"dense projector budget {GSD_DIM_BUDGET}"):
        dense_projector_rank(g, cell)


def test_orbit_count_calls_no_linear_algebra(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the orbit count called np.linalg")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refused)
    assert ground_state_degeneracy(CAT["A4"], hexagon_torus()) == 14
    assert ground_state_degeneracy(CAT["S4"], hexagon_torus()) == 21
    with pytest.raises(AssertionError, match="called np.linalg"):
        dense_projector_rank(CAT["Z2"], hexagon_torus())


def test_report_rejects_edges_of_another_group():
    """The support read indexes the vertex tables by register labels, so an
    edge of the wrong dimension is rejected by name rather than read."""
    cell = theta_sphere()
    sites = [SiteSpec(("e", e), "edge", CAT["Z3"] if e == 1 else CAT["S3"]) for e in range(cell.n_edges)]
    reg = init_plus(sites)
    with pytest.raises(ValueError, match=r"edge sites \[\('e', 1\)\] do not carry S3"):
        stabilizer_report(reg, CAT["S3"], cell)


def test_orbit_count_moves_labels_along_a_generating_set_only(monkeypatch):
    """Every catalog group is generated by at most two elements of the
    greedy set, and the orbit count builds one move array per generator and
    vertex, not one per group element."""
    for name, g in CAT.items():
        gens = groups._generating_set(g)
        assert len(generated_subgroup(g, gens).members) == g.order, name
        assert len(gens) <= 2, name
    rows = []
    searched = np.searchsorted

    def spy(flat, moved):
        rows.append(moved.shape[0])
        return searched(flat, moved)

    monkeypatch.setattr(verify.np, "searchsorted", spy)
    cell = hexagon_torus()
    assert ground_state_degeneracy(CAT["A5"], cell) == 22
    assert rows == [2] * cell.n_vertices


def test_orbit_count_holds_no_edge_space_square():
    # the dense projector of A4 on the torus is 1728 x 1728 floats (24 MB);
    # the orbit count peaks near 0.3 MB
    g, cell = CAT["A4"], hexagon_torus()
    ground_state_degeneracy(g, cell)
    tracemalloc.start()
    try:
        ground_state_degeneracy(g, cell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (g.order**cell.n_edges) ** 2 * 8 // 16


def test_degeneracy_checks_still_fire(monkeypatch):
    def first_edge_is_identity(g_group, walk):
        return [0], np.arange(g_group.order)

    monkeypatch.setattr(reference, "_walk_product", first_edge_is_identity)
    for name, dev in [("Z2", "5.00e-01"), ("S3", "1.67e-01"), ("D4", "1.25e-01")]:
        with pytest.raises(ValueError, match=f"fails hermiticity by {dev}"):
            dense_projector_rank(CAT[name], hexagon_torus())
    monkeypatch.undo()

    true_columns = reference._vertex_perm_columns

    def one_involution_acts(g_group, cell, v, g, grids):
        # every other element acts as the identity: each vertex average is
        # symmetric, but with |G| > 2 it is no projector
        t = next(h for h in g_group.elements() if h and g_group.mul(h, h) == 0)
        return true_columns(g_group, cell, v, g if g in (0, t) else 0, grids)

    monkeypatch.setattr(reference, "_vertex_perm_columns", one_involution_acts)
    for name, make_cell, count in [("Z4", hexagon_torus, 32), ("S3", hexagon_torus, 79), ("D4", theta_sphere, 5)]:
        with pytest.raises(ValueError, match=f"spectrum has {count} values away from 0 and 1"):
            dense_projector_rank(CAT[name], make_cell())


# --- report -------------------------------------------------------------------


def test_report_on_oracle_s3():
    g = CAT["S3"]
    cell = hexagon_torus()
    reg = oracle_double_state(g, cell)
    rep = stabilizer_report(reg, g, cell)
    assert rep.min_expectation() > 1 - 1e-9
    assert abs(rep.loop_values["triv"][0] - 1) < 1e-9
    assert abs(rep.loop_values["sgn"][0] - 1) < 1e-9
    assert abs(rep.loop_values["std"][0] - 2) < 1e-9
    payload = json.loads(rep.to_json())
    assert payload["vertex_expectations"]["0"] == pytest.approx(1.0)
    assert payload["loop_values"]["std"]["0"] == pytest.approx(2.0)


def test_report_loop_values_equal_irrep_dimensions():
    cell = hexagon_torus()
    for name in ["Z4", "D4", "Q8"]:
        g = CAT[name]
        rep = stabilizer_report(oracle_double_state(g, cell), g, cell)
        for irrep in irrep_table(g).irreps:
            assert abs(rep.loop_values[irrep.label][0] - irrep.dim) < 1e-9


def test_report_skips_loops_without_stored_irreps():
    g = CAT["A4"]
    cell = hexagon_torus()
    rep = stabilizer_report(oracle_double_state(g, cell), g, cell)
    assert rep.loop_values == {}


def test_report_rejects_complex_expectation():
    # one nonzero edge on a plaquette walk makes the loop value a phase
    g = CAT["Z3"]
    cell = square_torus(2, 2)
    walk_edge = cell.plaquettes[0][0][0]
    amps = np.zeros((3,) * cell.n_edges)
    amps[tuple(1 if e == walk_edge else 0 for e in range(cell.n_edges))] = 1.0
    reg = QuditRegister([SiteSpec(("e", e), "edge", g) for e in range(cell.n_edges)], amps)
    with pytest.raises(ValueError, match="real axis"):
        stabilizer_report(reg, g, cell)


def test_report_dataclass_defaults():
    rep = StabilizerReport(vertex_expectations={0: 1.0}, plaquette_expectations={})
    assert rep.min_expectation() == 1.0
    assert rep.loop_values == {}


# --- character sum rules --------------------------------------------------------


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "Z6", "Z2xZ2", "S3", "D4", "Q8"])
def test_irrep_dimension_sum_rule(name):
    g = CAT[name]
    table = irrep_table(g)
    assert sum(irrep.dim**2 for irrep in table.irreps) == g.order
    # dimension-weighted characters resolve the identity
    for h in g.elements():
        total = sum(irrep.dim * irrep.characters[h] for irrep in table.irreps)
        want = g.order if h == 0 else 0.0
        assert abs(total - want) < 1e-12


def test_abelian_character_pairing_is_symmetric():
    for name in ["Z4", "Z6", "Z2xZ2"]:
        chi = character_table(CAT[name])
        assert np.abs(chi - chi.T).max() < 1e-12


# --- identity suite --------------------------------------------------------------


GROUP_IDENTITY_NAMES = [
    "left_action_gauged_away",
    "right_action_becomes_vertex_term",
    "plaquette_loops_carry_irrep_dimension",
    "plaquette_projector_from_irrep_sum",
    "cl_absorbs_left_multiplication",
    "cr_absorbs_left_multiplication",
    "cl_spreads_right_multiplication",
    "cr_spreads_right_multiplication",
    "charge_diagonals_push_to_edge",
]

SYSTEM_IDENTITY_NAMES = [
    "two_step_composition",
    "quotient_symmetry_survives",
    "dressed_loops_carry_irrep_dimension",
    "central_extension_circuit_matches_composition",
    "decorated_wall_pushthrough",
]


def catalog_systems():
    systems = {name: catalog_factor_system(name) for name in ["S3", "D4", "Q8"]}
    systems["A4/V4"] = factor_system_of(CAT["A4"], commutator_subgroup(CAT["A4"]))
    systems["S4/A4"] = factor_system_of(CAT["S4"], commutator_subgroup(CAT["S4"]))
    return systems


def test_identity_registry_is_complete():
    assert list(identity_names()) == GROUP_IDENTITY_NAMES + SYSTEM_IDENTITY_NAMES


@pytest.mark.parametrize("name", sorted(CAT))
def test_group_identities_on_both_reference_graphs(name):
    g = CAT[name]
    for cell in [two_vertex_graph(), hexagon_torus()]:
        for ident in GROUP_IDENTITY_NAMES:
            try:
                dev = check_identity(ident, g, cell)
            except ValueError as err:
                assert "irreps unsupported" in str(err) or "plaquettes" in str(err)
                continue
            assert dev < 1e-10, (ident, name, cell.name, dev)


@pytest.mark.parametrize("label", ["S3", "D4", "Q8", "A4/V4", "S4/A4"])
def test_system_identities_on_both_reference_graphs(label):
    fs = catalog_systems()[label]
    for cell in [two_vertex_graph(), hexagon_torus()]:
        for ident in SYSTEM_IDENTITY_NAMES:
            try:
                dev = check_identity(ident, fs, cell)
            except ValueError as err:
                text = str(err)
                assert (
                    "irreps unsupported" in text
                    or "plaquettes" in text
                    or "central extension" in text
                    or "abelian subgroup" in text
                    or "closed" in text
                ), text
                continue
            assert dev < 1e-10, (ident, label, cell.name, dev)


def test_pair_identities_fail_with_the_other_entangler():
    # every pair identity names its entangler; the swapped one breaks it on S3
    swapped = {controlled_left: controlled_right, controlled_right: controlled_left}
    spellings = [(controlled_left, "LL", "L1"), (controlled_right, "LR", "L1"),
                 (controlled_left, "R1", "RL"), (controlled_right, "R1", "RR")]
    for entangler, inner, outer in spellings:
        assert verify._pair_identity(entangler, inner, outer)(CAT["S3"], hexagon_torus()) == 0.0
        assert verify._pair_identity(swapped[entangler], inner, outer)(CAT["S3"], hexagon_torus()) == 1.0


# the g-indexed identities run on a generating set; the all-element loops of
# tests/reference.py are the slow path they must match bit for bit
CROSS_CHECK_GROUPS = {**CAT, "Z2xZ4": group_from_spec("Z2xZ4")}
CROSS_CHECK_CELLS = [hexagon_torus, theta_sphere, theta_sphere_reversed, two_vertex_graph]


def both_paths(check, all_element_check, subject, cell):
    """The deviation bits of a generating-set check and of its all-element
    loop; every group here fits COLUMN_BUDGET on every cross-check cell."""
    return float(check(subject, cell)).hex(), float(all_element_check(subject, cell)).hex()


def test_every_g_indexed_identity_has_an_all_element_loop():
    assert set(reference.ALL_ELEMENT_GROUP_IDENTITIES) <= set(GROUP_IDENTITY_NAMES)
    assert set(reference.ALL_ELEMENT_SYSTEM_IDENTITIES) <= set(SYSTEM_IDENTITY_NAMES)
    assert len(reference.ALL_ELEMENT_GROUP_IDENTITIES) + len(reference.ALL_ELEMENT_SYSTEM_IDENTITIES) == 7


@pytest.mark.parametrize("name", sorted(CROSS_CHECK_GROUPS))
def test_group_identities_match_the_all_element_loops(name):
    g = CROSS_CHECK_GROUPS[name]
    for make_cell in CROSS_CHECK_CELLS:
        cell = make_cell()
        for ident, all_element in reference.ALL_ELEMENT_GROUP_IDENTITIES.items():
            fast, slow = both_paths(verify._GROUP_IDENTITIES[ident], all_element, g, cell)
            assert fast == slow == (0.0).hex(), (ident, cell.name)


@pytest.mark.parametrize("label", ["S3", "D4", "Q8", "A4/V4", "S4/A4"])
def test_quotient_identity_matches_the_all_element_loop(label):
    fs = catalog_systems()[label]
    for make_cell in CROSS_CHECK_CELLS:
        cell = make_cell()
        for ident, all_element in reference.ALL_ELEMENT_SYSTEM_IDENTITIES.items():
            fast, slow = both_paths(verify._SYSTEM_IDENTITIES[ident], all_element, fs, cell)
            assert fast == slow == (0.0).hex(), (ident, cell.name)


def swapped_controlled_left(group, c_sid, t_sid):
    """CL with the images of |0, 0> and |0, 1> exchanged: still a permutation."""
    op = controlled_left(group, c_sid, t_sid)
    image = op.image.copy()
    image[[0, 1]] = image[[1, 0]]
    return LocalOperator(op.targets, "perm", image, name="CL swapped")


def test_a_broken_entangler_reads_the_same_on_both_paths():
    for name, g in CROSS_CHECK_GROUPS.items():
        if g.order == 1:
            continue
        for inner, outer in [("LL", "L1"), ("R1", "RL")]:
            fast = verify._pair_identity(swapped_controlled_left, inner, outer)(g, hexagon_torus())
            slow = reference.all_element_pair_identity(swapped_controlled_left, inner, outer)(g, hexagon_torus())
            assert fast.hex() == slow.hex() == (1.0).hex(), (name, inner, outer)


def test_an_entangler_broken_off_the_first_generator_reads_the_same_on_both_paths():
    """E = (1 (x) L^k) CL takes E+ (L^g (x) L^g) E to L^g (x) L^(k^-1 g k), so
    cl_absorbs_left_multiplication holds exactly for g in the centralizer of
    k. With k the first generator of a non-abelian group the first generator
    passes and the second fails: the generating-set loop must reach it."""
    for name, g in CROSS_CHECK_GROUPS.items():
        if g.is_abelian:
            continue
        k = groups._generating_set(g)[0]

        def shifted_cl(group, c_sid, t_sid):
            a, b = np.divmod(np.arange(group.order**2), group.order)
            return LocalOperator([c_sid, t_sid], "perm", a * group.order + group.mult[k, group.mult[a, b]])

        fast = verify._pair_identity(shifted_cl, "LL", "L1")(g, hexagon_torus())
        slow = reference.all_element_pair_identity(shifted_cl, "LL", "L1")(g, hexagon_torus())
        assert fast.hex() == slow.hex() == (1.0).hex(), name


def without_first_wall_gate(circuit):
    """The mutant entangler: the per-edge gate list a wall circuit stands
    for, without its first gate (edge 0's CL+), spelled as a one-row
    circuit."""
    return reference.circuit_of_gates(reference.expanded_wall_gates(circuit)[1:])


def test_a_dropped_wall_gate_reads_the_same_on_both_paths(monkeypatch):
    true_gates = verify._wall_gates
    monkeypatch.setattr(verify, "_wall_gates", lambda *args: without_first_wall_gate(true_gates(*args)))
    cell = hexagon_torus()
    for name, g in CROSS_CHECK_GROUPS.items():
        if g.order == 1:
            continue
        seen = []
        for ident, all_element in reference.ALL_ELEMENT_GROUP_IDENTITIES.items():
            fast, slow = both_paths(verify._GROUP_IDENTITIES[ident], all_element, g, cell)
            assert fast == slow, (name, ident)
            seen.append(float.fromhex(fast))
        # a failing pure-column check reads the columns' common amplitude
        assert max(seen) == verify._pure_kw_g(g, cell)[2], name
    for label, fs in catalog_systems().items():
        fast, slow = both_paths(
            verify._check_quotient_symmetry_survives, reference.all_element_quotient_symmetry_survives, fs, cell
        )
        assert fast == slow == verify._pure_kw_n(fs, cell)[2].hex(), label


def test_pair_identities_build_the_gates_of_a_generating_set_only(monkeypatch):
    """On A5 each pair identity builds L^g and R^g for the two generators,
    not for the 59 elements g != e."""
    g = CAT["A5"]
    gens = groups._generating_set(g)
    assert len(gens) == 2
    built = []
    for letter, gate in [("L", left_mult), ("R", right_mult)]:

        def spy(group, h, sid, letter=letter, gate=gate):
            built.append((letter, h))
            return gate(group, h, sid)

        monkeypatch.setattr(verify, gate.__name__, spy)
    for ident, letters in [
        ("cl_absorbs_left_multiplication", "L"),
        ("cr_absorbs_left_multiplication", "LR"),
        ("cl_spreads_right_multiplication", "LR"),
        ("cr_spreads_right_multiplication", "R"),
    ]:
        built.clear()
        assert check_identity(ident, g, hexagon_torus()) == 0.0
        assert sorted(built) == sorted((letter, h) for letter in letters for h in gens), ident


def test_catalog_identity_suite_finds_one_generating_set_per_group():
    groups._generating_set.cache_clear()
    cell = hexagon_torus()
    for name, g in CAT.items():
        systems = {name: catalog_factor_system(name)} if name in ("S3", "D4", "Q8") else {}
        identity_suite(cell, groups={name: g}, systems=systems)
    info = groups._generating_set.cache_info()
    assert info.misses == len(CAT)
    assert info.hits > 0


# an identity suite builds each pure gauging map once and shares it with
# every check; the decorated walls run as blocks of columns and the plaquette
# loops off the stabilizer report's tables, each checked bit for bit against
# the slow path of tests/reference.py
WALL_CELLS = [hexagon_torus, theta_sphere, theta_sphere_reversed, lambda: square_torus(2, 2)]


@pytest.mark.parametrize("label", ["D4", "Q8", "S3"])
def test_one_suite_builds_each_pure_map_once(label, monkeypatch):
    """Before the suite shared its maps it built the group's map four times
    and the subgroup map three times; now each subject's walls, and the
    two-step check's quotient walls, are built once."""
    fs = catalog_factor_system(label)
    true_gates, built = verify._wall_gates, []

    def spy(subject, *args):
        built.append(subject)
        return true_gates(subject, *args)

    monkeypatch.setattr(verify, "_wall_gates", spy)
    identity_suite(hexagon_torus(), groups={label: CAT[label]}, systems={label: fs})
    # the system's parent is the catalog group, so the two share one map
    assert built == [CAT[label], fs, fs.q_group]


def test_no_pure_map_outlives_its_suite(monkeypatch):
    cell = hexagon_torus()
    for label in ["D4", "Q8", "S3"]:
        fs = catalog_factor_system(label)
        identity_suite(cell, groups={label: CAT[label]}, systems={label: fs})
    true_gates = verify._wall_gates
    monkeypatch.setattr(verify, "_wall_gates", lambda *args: without_first_wall_gate(true_gates(*args)))
    for label in ["D4", "Q8", "S3"]:
        g, fs = CAT[label], catalog_factor_system(label)
        # a dropped wall gate reads the columns' common amplitude, which a
        # map kept from the suite above would hide
        assert check_identity("left_action_gauged_away", g, cell) == verify._pure_kw_g(g, cell)[2]
        assert check_identity("quotient_symmetry_survives", fs, cell) == verify._pure_kw_n(fs, cell)[2]


def test_shared_pure_maps_are_read_only():
    maps = verify._PureMaps(hexagon_torus())
    labels, dims, _ = maps.kw_g(CAT["D4"])
    labels[("x", 0)] = np.zeros(1, dtype=np.int64)
    assert ("x", 0) not in maps.kw_g(CAT["D4"])[0]
    with pytest.raises(ValueError, match="read-only"):
        labels[("e", 0)][0] = 1


@pytest.mark.parametrize("label", ["D4", "Q8", "S3"])
def test_wall_sweep_matches_the_column_loop(label):
    fs = catalog_factor_system(label)
    for make_cell in WALL_CELLS:
        cell = make_cell()
        slow = reference.column_wall_sweep(fs, cell).hex()
        n_cols = fs.q_group.order**cell.n_vertices * fs.n_group.order**cell.n_plaquettes
        for width in (1, 7, n_cols):
            assert verify._decorated_wall_sweep(fs, cell, width).hex() == slow, (cell.name, width)
        assert check_identity("decorated_wall_pushthrough", fs, cell).hex() == slow, cell.name


def squared_cz(group, c_sid, t_sid):
    """CZ^2: the identity on Z2, so the walls drop out of both sides of the
    push-through and stay only in its cocycle phase."""
    op = cz_abelian(group, c_sid, t_sid)
    return DiagonalOperator(op.targets, op.diag**2, name="CZ^2")


def test_a_squared_cz_reads_the_same_on_both_wall_paths(monkeypatch):
    monkeypatch.setattr(verify, "cz_abelian", squared_cz)
    monkeypatch.setattr(reference, "cz_abelian", squared_cz)
    fs, cell = catalog_factor_system("D4"), square_torus(2, 2)
    slow = reference.column_wall_sweep(fs, cell)
    assert slow > 0.1
    for width in (7, 4096):
        assert verify._decorated_wall_sweep(fs, cell, width).hex() == slow.hex()
    assert check_identity("decorated_wall_pushthrough", fs, cell).hex() == slow.hex()


@pytest.mark.parametrize("label", ["S3", "D4"])
def test_wall_sweep_memory_stays_within_a_few_blocks(label):
    """The sweep holds a few arrays of one block, SUPPORT_CHUNK entries, at a
    time (about 3.6 blocks of complex entries at peak); all columns at once
    would take 17 MB for D4 and 136 MB for S3 on this torus."""
    fs, cell = catalog_factor_system(label), square_torus(2, 2)
    check_identity("decorated_wall_pushthrough", fs, cell)
    tracemalloc.start()
    try:
        check_identity("decorated_wall_pushthrough", fs, cell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 16 * verify.SUPPORT_CHUNK


def has_irreps(g_group):
    try:
        irrep_table(g_group)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", [name for name, g in sorted(CAT.items()) if has_irreps(g)])
def test_plaquette_loops_match_the_per_op_loops(name):
    """Every catalog group with stored irreps fits COLUMN_BUDGET on every
    cross-check cell."""
    g = CAT[name]
    for make_cell in CROSS_CHECK_CELLS:
        cell = make_cell()
        if not cell.plaquettes:
            for check in (verify._check_plaquette_loops_carry_irrep_dimension,
                          reference.per_op_plaquette_loops_carry_irrep_dimension):
                with pytest.raises(ValueError, match="plaquettes"):
                    check(g, cell)
            continue
        fast, slow = both_paths(
            verify._check_plaquette_loops_carry_irrep_dimension,
            reference.per_op_plaquette_loops_carry_irrep_dimension,
            g,
            cell,
        )
        assert fast == slow, cell.name


def test_a_corrupted_loop_table_is_caught(monkeypatch):
    """The check reads the report's cached tables, so a wrong loop_z must reach
    them: rebuilt from a loop_z whose entry at the all-identity label is one
    too large, they read one common amplitude off on the column of equal
    vertex labels."""
    true_loop = verify.loop_z

    def off_by_one(irrep, walk, cell, edge_of=verify._edge_site):
        op = true_loop(irrep, walk, cell, edge_of)
        diag = op.diag.copy()
        diag[0] += 1.0
        return DiagonalOperator(op.targets, diag, name=op.name)

    g, cell = CAT["D4"], hexagon_torus()
    monkeypatch.setattr(verify, "loop_z", off_by_one)
    verify._stabilizer_diagonals.cache_clear()
    try:
        dev = check_identity("plaquette_loops_carry_irrep_dimension", g, cell)
    finally:
        verify._stabilizer_diagonals.cache_clear()
    assert dev == verify._pure_kw_g(g, cell)[2]
    monkeypatch.undo()
    assert check_identity("plaquette_loops_carry_irrep_dimension", g, cell) == 0.0


def test_wall_pushthrough_orientation_on_higher_genus_cells():
    # nondegenerate plaquette pairs fix the sign convention of the pairing
    for cell in [theta_sphere(), square_torus(2, 2)]:
        assert check_identity("decorated_wall_pushthrough", catalog_factor_system("D4"), cell) < 1e-10
    assert check_identity("decorated_wall_pushthrough", catalog_factor_system("S3"), square_torus(2, 2)) < 1e-10


def test_circuit_composition_identity_with_nondegenerate_pairs():
    for label in ["D4", "Q8"]:
        dev = check_identity(
            "central_extension_circuit_matches_composition", catalog_factor_system(label), theta_sphere()
        )
        assert dev < 1e-10


def test_two_step_runs_with_nonabelian_subgroup():
    fs = factor_system_of(CAT["S4"], commutator_subgroup(CAT["S4"]))
    assert check_identity("two_step_composition", fs, hexagon_torus()) < 1e-10


def test_identity_suite_rows_and_skips():
    cell = hexagon_torus()
    rows = identity_suite(cell, groups={"Z2": CAT["Z2"], "A4": CAT["A4"]}, systems={"D4": catalog_factor_system("D4")})
    assert all(row["graph"] == cell.name for row in rows)
    ran = [row for row in rows if "deviation" in row]
    skipped = [row for row in rows if "skipped" in row]
    assert len(ran) + len(skipped) == len(rows)
    assert all(row["deviation"] < 1e-10 for row in ran)
    assert {row["subject"] for row in skipped} == {"A4"}


@pytest.mark.parametrize("label", ["D4", "Q8"])
def test_reversed_theta_sphere_identities_and_degeneracy(label):
    cell = theta_sphere_reversed()
    fs = catalog_factor_system(label)
    rows = identity_suite(cell, groups={label: fs.parent}, systems={label: fs})
    ran = {row["identity"]: row["deviation"] for row in rows if "deviation" in row}
    assert "central_extension_circuit_matches_composition" in ran
    assert max(ran.values()) <= 1e-10
    assert ground_state_degeneracy(fs.parent, cell) == 1


def test_check_identity_subject_type_errors():
    with pytest.raises(TypeError, match="takes a group"):
        check_identity("left_action_gauged_away", catalog_factor_system("S3"), hexagon_torus())
    with pytest.raises(TypeError, match="takes a factor system"):
        check_identity("two_step_composition", CAT["S3"], hexagon_torus())
    with pytest.raises(KeyError, match="unknown identity"):
        check_identity("no_such_identity", CAT["Z2"], hexagon_torus())


def test_identity_budget_guards():
    with pytest.raises(ValueError, match="basis columns"):
        check_identity("left_action_gauged_away", CAT["A5"], square_torus(2, 2))
    with pytest.raises(ValueError, match="budget"):
        check_identity(
            "central_extension_circuit_matches_composition",
            catalog_factor_system("D4"),
            square_torus(2, 2),
        )
