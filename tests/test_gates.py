"""Gate constructors: multiplication operators, entanglers, character gates."""

import itertools

import numpy as np
import pytest

from gaugekit.cellulation import hexagon_torus, square_torus, theta_sphere, two_vertex_graph
from gaugekit.gates import (
    controlled_left,
    controlled_right,
    cz_abelian,
    left_mult,
    loop_z,
    loop_z_tilde,
    omega_gate,
    parent_to_pair,
    right_mult,
    sigma_gate,
    z_dual,
    z_tilde,
)
from gaugekit.groups import (
    build_cyclic,
    catalog,
    catalog_factor_system,
    character_table,
    derived_length,
    direct_product,
    factor_system_of,
    irrep_table,
    subgroup_from_members,
)
from gaugekit.protocols import _solvable_chain
from gaugekit.register import LocalOperator, QuditRegister, SiteSpec, _fourier_matrix, init_plus
from reference import (
    gate_matrix,
    init_identity,
    irrep_by_label,
    is_trivial,
    merge_sites,
    split_left_mult,
    u_ng_edge_factor,
    ug_edge_factor,
)

TOL = 1e-12


def random_state(rng, dims):
    amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    return amps / np.linalg.norm(amps)


def test_left_mult_identity_element_is_identity():
    for name in ("Z2", "S3", "D4"):
        g = catalog()[name]
        assert np.array_equal(left_mult(g, 0, "a").image, np.arange(g.order))
        assert np.array_equal(right_mult(g, 0, "a").image, np.arange(g.order))


def test_z2_left_mult_is_bit_flip():
    z2 = build_cyclic(2)
    assert left_mult(z2, 1, "a").image.tolist() == [1, 0]


def test_left_right_mult_leave_identity_state_invariant():
    for name in ("Z4", "S3", "Q8"):
        g = catalog()[name]
        for el in g.elements():
            reg = init_identity([SiteSpec("a", "edge", g)])
            reg.apply(right_mult(g, el, "a"))
            reg.apply(left_mult(g, el, "a"))
            assert abs(reg.amps[0] - 1) < TOL


def test_z2_cx_is_cnot_and_cz_is_diag():
    z2 = build_cyclic(2)
    cx = gate_matrix(controlled_left(z2, "c", "t"))
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.abs(cx - cnot).max() < TOL
    cz = cz_abelian(z2, "c", "t")
    assert np.abs(cz.diag - np.array([1, 1, 1, -1])).max() < TOL


def test_cz_symmetric_under_control_target_swap():
    for n in (2, 3, 4, 6):
        g = build_cyclic(n)
        diag = cz_abelian(g, "c", "t").diag.reshape(n, n)
        assert np.abs(diag - diag.T).max() < TOL


def test_cx_rejects_nonabelian():
    s3 = catalog()["S3"]
    with pytest.raises(ValueError, match="abelian"):
        cz_abelian(s3, "c", "t")
    with pytest.raises(ValueError, match="abelian site, 'a' carries S3"):
        init_plus([SiteSpec("a", "edge", s3)]).measure_fourier("a", forced=0)


def test_controlled_gates_unitary_roundtrip():
    s3 = catalog()["S3"]
    for ctor in (controlled_left, controlled_right):
        op = ctor(s3, "c", "t")
        m = gate_matrix(op)
        assert np.abs(m @ gate_matrix(op.dagger()) - np.eye(36)).max() < TOL


def test_conjugation_identities_on_s3():
    """CL+(L^g x L^g)CL = L^g x 1 and the companion relations, as matrices."""
    s3 = catalog()["S3"]
    d = s3.order
    cl = gate_matrix(controlled_left(s3, "v", "e"))
    cr = gate_matrix(controlled_right(s3, "v", "e"))
    eye = np.eye(d)
    for g in s3.elements():
        lg = gate_matrix(left_mult(s3, g, "x"))
        rg = gate_matrix(right_mult(s3, g, "x"))
        lhs = cl.conj().T @ np.kron(lg, lg) @ cl
        assert np.abs(lhs - np.kron(lg, eye)).max() < TOL
        lhs = cr.conj().T @ np.kron(lg, rg) @ cr
        assert np.abs(lhs - np.kron(lg, eye)).max() < TOL
        lhs = cl.conj().T @ np.kron(rg, eye) @ cl
        assert np.abs(lhs - np.kron(rg, lg)).max() < TOL
        lhs = cr.conj().T @ np.kron(rg, eye) @ cr
        assert np.abs(lhs - np.kron(rg, rg)).max() < TOL


def test_fourier_z2_is_hadamard_and_squares_to_identity():
    z2 = build_cyclic(2)
    f = _fourier_matrix(z2)
    assert _fourier_matrix(build_cyclic(2)) is f and not f.flags.writeable
    assert np.abs(f - np.array([[1, 1], [1, -1]]) / np.sqrt(2)).max() < TOL
    assert np.abs(f @ f - np.eye(2)).max() < TOL


def test_fourier_conjugates_cx_into_cz():
    for n in (2, 3, 4):
        g = build_cyclic(n)
        f = _fourier_matrix(g)
        cx = gate_matrix(controlled_left(g, "c", "t"))
        cz = gate_matrix(cz_abelian(g, "c", "t"))
        lhs = np.kron(np.eye(n), f) @ cx @ np.kron(np.eye(n), f).conj().T
        assert np.abs(lhs - cz).max() < 1e-12


def test_z_dual_characters():
    z4 = build_cyclic(4)
    chi = character_table(z4)
    for t in range(4):
        assert np.abs(z_dual(z4, t, "a").diag - chi[t]).max() < TOL


def test_loop_z_trivial_irrep_is_identity():
    cell = square_torus(2, 2)
    z2 = build_cyclic(2)
    triv = irrep_by_label(irrep_table(z2), "chi0")
    loop = cell.plaquettes[0]
    op = loop_z(triv, loop, cell)
    assert np.abs(op.diag - 1).max() < TOL


def test_loop_z_sign_irrep_is_plaquette_parity():
    cell = square_torus(2, 2)
    z2 = build_cyclic(2)
    sign = irrep_by_label(irrep_table(z2), "chi1")
    loop = cell.plaquettes[0]
    op = loop_z(sign, loop, cell)
    dims = [2] * 4
    for flat, config in enumerate(np.ndindex(*dims)):
        assert abs(op.diag[flat] - (-1.0) ** sum(config)) < TOL


def test_loop_z_open_loop_rejected():
    cell = square_torus(2, 2)
    z2 = build_cyclic(2)
    sign = irrep_by_label(irrep_table(z2), "chi1")
    with pytest.raises(ValueError, match="not closed"):
        loop_z(sign, ((0, 1), (1, 1)), cell)


SQUARE_WALK = square_torus(2, 2).plaquettes[0]


@pytest.mark.parametrize(
    "walk,step",
    [
        # the closure check would read 2 as a reversed step, the trace as a forward one
        pytest.param(tuple((e, 2 if o == -1 else o) for e, o in SQUARE_WALK), 2, id="orientation-2"),
        pytest.param(((99, 1),) + SQUARE_WALK[1:], 0, id="edge-99"),
    ],
)
def test_loops_reject_bad_step_data_naming_the_step(walk, step):
    cell = square_torus(2, 2)
    fs = catalog_factor_system("D4")
    std = irrep_by_label(irrep_table(catalog()["S3"]), "std")
    sign = irrep_by_label(irrep_table(fs.n_group), "chi1")
    with pytest.raises(ValueError, match=rf"step {step} \("):
        loop_z(std, walk, cell)
    with pytest.raises(ValueError, match=rf"step {step} \("):
        loop_z_tilde(fs, sign, walk, cell, lambda v: ("q", v), lambda e: ("e", e))


def test_loop_z_hexagon_repeated_edges():
    cell = hexagon_torus()
    z3 = build_cyclic(3)
    chi1 = irrep_by_label(irrep_table(z3), "chi1")
    op = loop_z(chi1, cell.plaquettes[0], cell)
    # each edge appears twice with opposite signs: the trace is always 1
    assert np.abs(op.diag - 1).max() < TOL


def _trace_from_identity(irrep, labels):
    m = np.eye(irrep.dim, dtype=np.complex128)
    for g in labels:
        m = m @ irrep.matrices[g]
    return np.trace(m)


def test_loop_diagonals_match_per_configuration_trace():
    """loop_z and loop_z_tilde equal the ordered trace written out one
    configuration at a time, laid out over the operators' own targets."""
    for name in ("S3", "D4", "Q8"):
        g, fs = catalog()[name], catalog_factor_system(name)
        n_grp, q_grp = fs.n_group, fs.q_group
        for cell in (hexagon_torus(), theta_sphere()):
            for walk in cell.plaquettes:
                for irrep in irrep_table(g).irreps:
                    op = loop_z(irrep, walk, cell)
                    edges = [sid[1] for sid in op.targets]
                    expect = []
                    for config in np.ndindex(*(g.order,) * len(edges)):
                        labels = []
                        for e, o in walk:
                            x = config[edges.index(e)]
                            labels.append(g.inverse(x) if o == -1 else x)
                        expect.append(_trace_from_identity(irrep, labels))
                    assert np.array_equal(op.diag, expect), (name, irrep.label)
                for irrep in irrep_table(n_grp).irreps:
                    op = loop_z_tilde(fs, irrep, walk, cell, lambda v: ("q", v), lambda e: ("e", e))
                    verts = [sid[1] for sid in op.targets if sid[0] == "q"]
                    edges = [sid[1] for sid in op.targets if sid[0] == "e"]
                    expect = []
                    for config in np.ndindex(*(q_grp.order,) * len(verts), *(n_grp.order,) * len(edges)):
                        labels = []
                        for e, o in walk:
                            i_v, f_v = cell.edges[e]
                            qi, qf = config[verts.index(i_v)], config[verts.index(f_v)]
                            n = config[len(verts) + edges.index(e)]
                            w = fs.omega[qi, q_grp.mul(q_grp.inverse(qi), qf)]
                            ntil = n_grp.mul(fs.sigma[qi, n], w)
                            labels.append(n_grp.inverse(ntil) if o == -1 else ntil)
                        expect.append(_trace_from_identity(irrep, labels))
                    assert np.array_equal(op.diag, expect), (name, irrep.label)


def test_sigma_gate_trivial_and_s3():
    fs3 = catalog_factor_system("S3")
    op = sigma_gate(fs3, "q", "n")
    # sigma^1 negates in Z3: (q=1, n) -> (q=1, -n)
    dn = 3
    assert op.image[1 * dn + 1] == 1 * dn + 2
    assert op.image[1 * dn + 2] == 1 * dn + 1
    assert op.image[0 * dn + 1] == 0 * dn + 1


def test_omega_gate_d4_example():
    fs = catalog_factor_system("D4")
    op = omega_gate(fs, "qi", "n", "qf")
    dn, dq = 2, 4
    # q1 = (1,0) -> index 2; q1bar q2 = (0,1) -> q2 = (1,1) -> index 3
    for n in range(2):
        src = (2 * dn + n) * dq + 3
        dst = (2 * dn + (n ^ 1)) * dq + 3
        assert op.image[src] == dst


def test_omega_gate_trivial_cocycle_is_identity():
    fs3 = catalog_factor_system("S3")
    op = omega_gate(fs3, "qi", "n", "qf")
    assert np.array_equal(op.image, np.arange(len(op.image)))


def test_ug_edge_factor_domain_wall():
    s3 = catalog()["S3"]
    d = 6
    op = ug_edge_factor(s3, "i", "e", "f")
    for gi in range(d):
        for gf in range(d):
            src = (gi * d + 0) * d + gf
            expect = s3.mul(s3.inverse(gi), gf)
            assert op.image[src] == (gi * d + expect) * d + gf


def test_ug_edge_factor_matches_controlled_composition():
    rng = np.random.default_rng(2)
    s3 = catalog()["S3"]
    sites = [SiteSpec("i", "vertex", s3), SiteSpec("e", "edge", s3), SiteSpec("f", "vertex", s3)]
    reg = init_plus(sites)
    reg.amps = random_state(rng, reg.dims)
    a = reg.copy().apply(ug_edge_factor(s3, "i", "e", "f"))
    b = reg.copy()
    b.apply(controlled_right(s3, "f", "e").dagger())
    b.apply(controlled_left(s3, "i", "e").dagger())
    assert np.abs(a.amps - b.amps).max() < TOL


def test_u_ng_trivial_fs_restricts_to_ug():
    p = direct_product(build_cyclic(2), build_cyclic(3))
    n_sub = subgroup_from_members(p, [0, 3])  # first factor {0} x {0,1} has index step 3
    fs = factor_system_of(p, n_sub)
    assert is_trivial(fs)
    op = u_ng_edge_factor(fs, "i", "e", "f")
    n_grp = fs.n_group
    dq, dn, dg = fs.q_group.order, 2, 6
    pair = parent_to_pair(fs)
    for ni in range(dn):
        for ne in range(dn):
            for nf in range(dn):
                gi = pair[fs.embed[ni]]
                gf = pair[fs.embed[nf]]
                src = (gi * dn + ne) * dg + gf
                expect = n_grp.mul(n_grp.mul(n_grp.inverse(ni), ne), nf)
                assert op.image[src] == (gi * dn + expect) * dg + gf


def test_u_ng_equals_layered_entangler():
    """Edge form of the split entangler matches sigma/omega/controlled layers."""
    rng = np.random.default_rng(4)
    for name in ("S3", "D4", "Q8"):
        fs = catalog_factor_system(name)
        n_grp, q_grp, parent = fs.n_group, fs.q_group, fs.parent
        dn, dq, dg = n_grp.order, q_grp.order, parent.order
        sites = [
            SiteSpec(("v", 0, "n"), "vertex", n_grp),
            SiteSpec(("v", 0, "q"), "vertex", q_grp),
            SiteSpec(("v", 1, "n"), "vertex", n_grp),
            SiteSpec(("v", 1, "q"), "vertex", q_grp),
            SiteSpec(("e", 0), "edge", n_grp),
        ]
        reg = init_plus(sites)
        reg.amps = random_state(rng, reg.dims)

        layered = reg.copy()
        layered.apply(controlled_left(n_grp, ("v", 0, "n"), ("e", 0)).dagger())
        layered.apply(controlled_right(n_grp, ("v", 1, "n"), ("e", 0)).dagger())
        layered.apply(omega_gate(fs, ("v", 0, "q"), ("e", 0), ("v", 1, "q")))
        layered.apply(sigma_gate(fs, ("v", 0, "q"), ("e", 0)).dagger())

        merged = reg.copy()
        pair_g = fs.parent  # pair labels share the parent's order
        for v in (0, 1):
            merge_sites(merged, ("v", v, "n"), ("v", v, "q"), SiteSpec(("v", v), "vertex", pair_g))
        merged.apply(u_ng_edge_factor(fs, ("v", 0), ("e", 0), ("v", 1)))
        for v in (0, 1):
            merged.split_site(("v", v), SiteSpec(("v", v, "n"), "vertex", n_grp), SiteSpec(("v", v, "q"), "vertex", q_grp))

        assert np.abs(layered.amps - merged.amps).max() < 1e-12, name


def test_edge_simplification_reproduces_domain_wall():
    """t-map edge values followed by the dressing collapse to n_i^-1 n_f."""
    for name in ("S3", "D4", "Q8"):
        fs = catalog_factor_system(name)
        n_grp, q_grp, parent = fs.n_group, fs.q_group, fs.parent
        for gi in parent.elements():
            for gf in parent.elements():
                ni, qi = fs.tpart[gi], fs.proj[gi]
                nf, qf = fs.tpart[gf], fs.proj[gf]
                n_e = fs.tpart[parent.mul(parent.inverse(gi), gf)]
                ntil = n_grp.mul(fs.sigma[qi, n_e], fs.omega[qi, q_grp.mul(q_grp.inverse(qi), qf)])
                assert ntil == n_grp.mul(n_grp.inverse(ni), nf)


def test_z_tilde_matches_dressing_formula():
    fs = catalog_factor_system("D4")
    cell = two_vertex_graph(1)
    chi = character_table(fs.n_group)
    op = z_tilde(fs, 1, 0, cell, vertex_of=lambda v: ("v", v, "q"), edge_of=lambda e: ("e", e))
    dq, dn = 4, 2
    for qi in range(dq):
        for n in range(dn):
            for qf in range(dq):
                ntil = fs.n_group.mul(fs.sigma[qi, n], fs.omega[qi, fs.q_group.mul(fs.q_group.inverse(qi), qf)])
                assert abs(op.diag[(qi * dn + n) * dq + qf] - chi[1, ntil]) < TOL


def test_every_template_equals_its_defining_formula():
    """The cached CL, CR, CZ, Sigma, Omega and dressed-charge templates, read
    through their constructors, against each gate's formula written out one
    joint label at a time, for every catalog group and every shipped or
    solvable-chain factor system; a permutation's source row is its argsort."""
    perms = []
    for g in catalog().values():
        d = g.order
        pairs = list(itertools.product(range(d), repeat=2))
        cl, cr = controlled_left(g, "c", "t"), controlled_right(g, "c", "t")
        assert cl.image.tolist() == [g1 * d + g.mul(g1, g2) for g1, g2 in pairs], g.name
        assert cr.image.tolist() == [g1 * d + g.mul(g2, g.inverse(g1)) for g1, g2 in pairs], g.name
        perms += [cl, cr]
        if g.is_abelian:
            chi = character_table(g)
            assert np.array_equal(cz_abelian(g, "c", "t").diag, [chi[a, b] for a, b in pairs]), g.name
    systems = [catalog_factor_system(name) for name in ("S3", "D4", "Q8")]
    systems += [fs for g in catalog().values() if not g.is_abelian and derived_length(g) for fs in _solvable_chain(g)]
    cell = two_vertex_graph(1)
    for fs in systems:
        n_grp, q_grp = fs.n_group, fs.q_group
        dn, dq = n_grp.order, q_grp.order
        triples = list(itertools.product(range(dq), range(dn), range(dq)))

        def step(q1, q2):
            return int(fs.omega[q1, q_grp.mul(q_grp.inverse(q1), q2)])

        sigma, omega = sigma_gate(fs, "q", "n"), omega_gate(fs, "qi", "n", "qf")
        assert sigma.image.tolist() == [q * dn + int(fs.sigma[q, n]) for q in range(dq) for n in range(dn)]
        expect = [(q1 * dn + n_grp.mul(n, n_grp.inverse(step(q1, q2)))) * dq + q2 for q1, n, q2 in triples]
        assert omega.image.tolist() == expect
        perms += [sigma, omega]
        if n_grp.is_abelian:
            chi = character_table(n_grp)
            for t in range(dn):
                op = z_tilde(fs, t, 0, cell, lambda v: ("v", v), lambda e: ("e", e))
                assert np.array_equal(op.diag, [chi[t, n_grp.mul(int(fs.sigma[q1, n]), step(q1, q2))] for q1, n, q2 in triples])
    for op in perms:
        assert np.array_equal(op.sources, np.argsort(op.image)) and not op.sources.flags.writeable


def test_parent_to_pair_is_bijection():
    for name in ("S3", "D4", "Q8"):
        fs = catalog_factor_system(name)
        pair = parent_to_pair(fs)
        assert sorted(pair.tolist()) == list(range(fs.parent.order))
        back = np.argsort(pair)
        for g in fs.parent.elements():
            n, q = divmod(pair[g], fs.q_group.order)
            assert fs.parent.mul(fs.embed[n], fs.lift[q]) == back[pair[g]] == g


def test_split_left_mult_matches_parent_left_mult():
    """The split two-site action agrees with plain left multiplication after
    merging the pair back into parent labels."""
    rng = np.random.default_rng(4)
    for name in ("S3", "D4", "Q8"):
        fs = catalog_factor_system(name)
        n_grp, q_grp, parent = fs.n_group, fs.q_group, fs.parent
        sites = [SiteSpec(("v", 0, "n"), "vertex", n_grp), SiteSpec(("v", 0, "q"), "vertex", q_grp)]
        for g in range(parent.order):
            reg = init_plus(sites)
            x = rng.normal(size=reg.dims) + 1j * rng.normal(size=reg.dims)
            reg.amps = x / np.linalg.norm(x)
            a = reg.copy()
            a.apply(split_left_mult(fs, g, ("v", 0, "n"), ("v", 0, "q")))
            b = reg.copy()
            merge_sites(b, ("v", 0, "n"), ("v", 0, "q"), SiteSpec(("v", 0), "vertex", parent))
            b.relabel_site(("v", 0), np.argsort(parent_to_pair(fs)).astype(np.int64))
            b.apply(left_mult(parent, g, ("v", 0)))
            b.relabel_site(("v", 0), parent_to_pair(fs))
            b.split_site(("v", 0), SiteSpec(("v", 0, "n"), "vertex", n_grp), SiteSpec(("v", 0, "q"), "vertex", q_grp))
            assert np.abs(a.amps - b.amps).max() < TOL, (name, g)
