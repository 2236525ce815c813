"""Kramers-Wannier maps: exact oracle, measured modes, outcome repair."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit import cli, groups, kwmaps, register
from gaugekit.cellulation import hexagon_torus, square_torus, tetrahedron_sphere, theta_sphere, two_vertex_graph
from gaugekit.gates import left_mult, loop_z, parent_to_pair
from gaugekit.groups import (
    FactorSystem,
    catalog,
    catalog_factor_system,
    character_table,
    commutator_subgroup,
    direct_product,
    factor_system_of,
    irrep_table,
    subgroup_from_members,
)
from gaugekit.kwmaps import EXACT_BUDGET, KwMode, kw_abelian, kw_exact_g, kw_hat_abelian, kw_n_in_g
from gaugekit.protocols import _solvable_chain
from gaugekit.register import QuditRegister, SiteSpec, init_plus
from reference import (
    all_element_require_symmetric,
    dense_kw_exact_g,
    is_trivial,
    merge_sites,
    split_left_mult,
    theta_sphere_reversed,
)

CAT = catalog()


def random_state(rng, dims):
    x = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    return (x / np.linalg.norm(x)).astype(np.complex128)


def symmetrize(reg, group, sids):
    """Project onto the invariant sector by group-averaging the left action."""
    acc = np.zeros_like(reg.amps)
    for g in range(group.order):
        probe = reg.copy()
        for s in sids:
            probe.apply(left_mult(group, g, s))
        acc = acc + probe.amps
    norm = np.linalg.norm(acc)
    assert norm > 1e-9
    reg.amps = acc / norm
    return reg


def symmetric_vertex_register(rng, cell, group, role="vertex", tag="v"):
    reg = init_plus([SiteSpec((tag, i), role, group) for i in range(cell.n_vertices if tag == "v" else cell.n_plaquettes)])
    reg.amps = random_state(rng, reg.dims)
    n = cell.n_vertices if tag == "v" else cell.n_plaquettes
    return symmetrize(reg, group, [(tag, i) for i in range(n)])


def walk_product(cell, group, a_config, p):
    """Ordered boundary product of plaquette p; a_config holds one label, or
    one array of labels, per edge."""
    w = 0
    for e, o in cell.plaquettes[p]:
        w = group.mult[w, a_config[e] if o == 1 else group.inv[a_config[e]]]
    return w


def split_input(base, fs, n_vertices):
    """Relabel parent-valued vertices into (subgroup, quotient) pairs."""
    work = base.copy()
    for v in range(n_vertices):
        work.relabel_site(("v", v), parent_to_pair(fs))
        work.split_site(
            ("v", v),
            SiteSpec(("v", v, "n"), "vertex", fs.n_group),
            SiteSpec(("v", v, "q"), "vertex", fs.q_group),
        )
    return work


def two_step(base, cell, fs, mode1, mode2):
    """Gauge the subgroup, then the quotient, and reassemble parent edge labels."""
    work = split_input(base, fs, cell.n_vertices)
    r1 = kw_n_in_g(work, cell, fs, mode1)
    r2 = kw_abelian(
        r1.register,
        cell,
        fs.q_group,
        mode2,
        vertex_of=lambda v: ("v", v, "q"),
        edge_of=lambda e: ("e", e, "q"),
    )
    final = r2.register
    for e in range(cell.n_edges):
        merge_sites(final, ("e", e), ("e", e, "q"), SiteSpec(("e", e), "edge", fs.parent))
        final.relabel_site(("e", e), np.argsort(parent_to_pair(fs)).astype(np.int64))
    return final


# --- modes and results --------------------------------------------------------


def test_mode_validation():
    with pytest.raises(ValueError, match="unknown mode kind"):
        KwMode("collapse")
    with pytest.raises(ValueError, match="needs a seed"):
        KwMode("sample")
    with pytest.raises(ValueError, match="outcome table"):
        KwMode("forced")
    assert KwMode.postselect().generator() is None
    assert KwMode.sample(7).generator() is not None


def test_sample_mode_rejects_a_negative_seed_by_name():
    with pytest.raises(ValueError, match="sample mode needs a non-negative seed, got -1"):
        KwMode.sample(-1)


def test_sample_mode_is_deterministic_per_seed():
    cell = square_torus(2, 2)
    z2 = CAT["Z2"]
    runs = []
    for _ in range(2):
        reg = init_plus([SiteSpec(("v", v), "vertex", z2) for v in range(cell.n_vertices)])
        runs.append(kw_abelian(reg, cell, z2, KwMode.sample(13)))
    assert runs[0].outcomes == runs[1].outcomes
    assert np.array_equal(runs[0].register.amps, runs[1].register.amps)


def test_result_serializes_to_json():
    cell = square_torus(2, 2)
    z2 = CAT["Z2"]
    reg = init_plus([SiteSpec(("v", v), "vertex", z2) for v in range(cell.n_vertices)])
    res = kw_abelian(reg, cell, z2, KwMode.sample(3))
    payload = json.loads(res.to_json())
    assert set(payload) >= {"outcomes", "corrections", "probability", "normalization"}
    assert payload["corrections"]["basis"] == "Z"
    assert len(payload["outcomes"]) == cell.n_vertices


# --- vertex route -------------------------------------------------------------


def test_vertex_route_postselect_matches_oracle():
    """Uniform input on the square torus lands exactly on the enumeration oracle."""
    cell = square_torus(2, 2)
    z2 = CAT["Z2"]
    reg = init_plus([SiteSpec(("v", v), "vertex", z2) for v in range(cell.n_vertices)])
    oracle = kw_exact_g(reg.copy(), cell, z2)
    res = kw_abelian(reg, cell, z2, KwMode.postselect())
    assert res.register is reg
    assert abs(res.register.fidelity(oracle) - 1) < 1e-12
    assert set(res.outcomes.values()) == {0}
    assert not res.corrections.exponents
    # each of the four plus-projections keeps weight 1/2 except the redundant last one
    assert abs(res.probability - 1 / 8) < 1e-12


def test_vertex_route_trivial_group():
    cell = hexagon_torus()
    z1 = CAT["Z1"]
    reg = init_plus([SiteSpec(("v", v), "vertex", z1) for v in range(cell.n_vertices)])
    res = kw_abelian(reg, cell, z1, KwMode.sample(3))
    assert res.register.dims == (1,) * cell.n_edges
    assert abs(res.register.amps.reshape(-1)[0] - 1) < 1e-12


def test_vertex_route_sampled_branches_match_postselect():
    cell = square_torus(2, 2)
    z2 = CAT["Z2"]
    base = init_plus([SiteSpec(("v", v), "vertex", z2) for v in range(cell.n_vertices)])
    ref = kw_abelian(base.copy(), cell, z2, KwMode.postselect()).register
    for seed in range(20):
        out = kw_abelian(base.copy(), cell, z2, KwMode.sample(seed)).register
        assert out.fidelity(ref) >= 1 - 1e-9, seed


def test_vertex_route_sampled_generic_symmetric_input():
    rng = np.random.default_rng(11)
    cell = hexagon_torus()
    z3 = CAT["Z3"]
    base = symmetric_vertex_register(rng, cell, z3)
    ref = kw_abelian(base.copy(), cell, z3, KwMode.postselect()).register
    oracle = kw_exact_g(base.copy(), cell, z3)
    assert abs(ref.fidelity(oracle) - 1) < 1e-10
    for seed in range(20):
        out = kw_abelian(base.copy(), cell, z3, KwMode.sample(seed)).register
        assert out.fidelity(ref) >= 1 - 1e-9, seed


def test_vertex_route_rejects_nonabelian_group():
    cell = hexagon_torus()
    reg = init_plus([SiteSpec(("v", v), "vertex", CAT["S3"]) for v in range(cell.n_vertices)])
    with pytest.raises(ValueError, match="abelian"):
        kw_abelian(reg, cell, CAT["S3"], KwMode.postselect())


def test_vertex_route_rejects_charged_input_before_touching_it():
    cell = hexagon_torus()
    z2 = CAT["Z2"]
    amps = np.zeros((2, 2), dtype=np.complex128)
    amps[0, 1] = 1.0
    reg = QuditRegister([SiteSpec(("v", v), "vertex", z2) for v in range(2)], amps)
    before = reg.amps.copy()
    with pytest.raises(ValueError, match="not invariant"):
        kw_abelian(reg, cell, z2, KwMode.sample(0))
    assert len(reg.sites) == 2
    assert np.array_equal(reg.amps, before)


def test_dual_route_rejects_charged_input_before_touching_it():
    z2 = CAT["Z2"]
    reg = QuditRegister([SiteSpec(("p", 0), "plaquette", z2)], np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="kw_hat_abelian: input is not invariant"):
        kw_hat_abelian(reg, hexagon_torus(), z2, KwMode.sample(0))
    assert len(reg.sites) == 1
    assert np.array_equal(reg.amps, [0.0, 1.0])


def _split_vertices(fs):
    """Two split vertices: vertex 0 stored (n, q) in adjacent axes, vertex 1
    stored (q, n) with a Z2 site between them."""
    n_site = lambda v: SiteSpec(("n", v), "vertex", fs.n_group)
    q_site = lambda v: SiteSpec(("q", v), "vertex", fs.q_group)
    return [n_site(0), q_site(0), q_site(1), SiteSpec("x", "edge", CAT["Z2"]), n_site(1)]


SPLIT_SYSTEMS = [catalog_factor_system(name) for name in ("S3", "D4", "Q8")]
SPLIT_SYSTEMS += [fs for name in ("A4", "S4") for fs in _solvable_chain(CAT[name])]


def test_split_probes_read_the_sources_of_split_left_mult():
    """Every element's row of the split probe table, built from the parent
    tables, equals the source row of split_left_mult, for every catalog
    factor system and every A4/S4 chain stage."""
    for fs in SPLIT_SYSTEMS:
        table = kwmaps._probe_table(fs)
        assert table.shape == (fs.parent.order, fs.order)
        for g in range(fs.parent.order):
            assert np.array_equal(table[g], np.argsort(split_left_mult(fs, g, ("n", 0), ("q", 0)).image)), (fs, g)


def test_an_accepted_probe_reads_only_the_generator_rows(monkeypatch):
    """On an invariant input the probe of a dense register reads, through
    register._taken, one generator row per vertex and nothing else."""
    taken = register._taken
    for fs in SPLIT_SYSTEMS:
        rows = []
        monkeypatch.setattr(register, "_taken", lambda amps, axes, sources: rows.append(sources) or taken(amps, axes, sources))
        sites = [(("n", v), ("q", v)) for v in range(2)]
        kwmaps._require_symmetric(init_plus(_split_vertices(fs)), fs, sites, "probe")
        table = kwmaps._probe_table(fs)
        expected = [table[g] for g in groups._generating_set(fs.parent) for _ in sites]
        assert len(rows) == len(expected) < 2 * (fs.parent.order - 1)
        assert all(np.array_equal(row, want) for row, want in zip(rows, expected)), fs


def test_split_probe_names_the_first_element_that_moves_the_input():
    """A state spread evenly over the cyclic subgroup {0, 1, 4, 5} of Q8 on
    each split vertex is moved first by element 2."""
    fs = catalog_factor_system("Q8")
    local = np.zeros(fs.parent.order)
    local[parent_to_pair(fs)[[0, 1, 4, 5]]] = 0.5
    vertex = local.reshape(fs.n_group.order, fs.q_group.order)
    # axes n0, q0, q1, x, n1
    amps = np.einsum("ab,ce,d->abcde", vertex, vertex.T, np.full(2, np.sqrt(0.5)))
    reg = QuditRegister(_split_vertices(fs), amps)
    with pytest.raises(ValueError, match=r"probe: input is not invariant under the global left action \(element 2 moves it\)"):
        kwmaps._require_symmetric(reg, fs, [(("n", v), ("q", v)) for v in range(2)], "probe")
    with pytest.raises(ValueError, match="do not carry the joint basis"):
        kwmaps._require_symmetric(reg, CAT["Z3"], [("x",)], "probe")


# the plain groups the probe is checked on, and one split factor system
PROBE_SUBJECTS = [CAT[name] for name in ("Z4", "S3", "D4", "Q8", "A4", "S4")] + [catalog_factor_system("D4")]
# the largest residual in units of STATE_TOL, from the Cayley-graph diameter d
# and a drawn u in [0.01, 0.99]
PROBE_LEVELS = {
    "zero": lambda d, u: 0.0,
    "below the bound": lambda d, u: u / d,
    "between the bound and the tolerance": lambda d, u: (1 - u) / d + u,
    "just below the tolerance": lambda d, u: 1 - 1e-4,
    "just above the tolerance": lambda d, u: 1 + 1e-4,
}


def _outcome(call):
    try:
        return "ok", call()
    except ValueError as err:
        return "raised", str(err)


@st.composite
def perturbed_inputs(draw, subject, level):
    """Two vertices of subject and a Z2 spectator: a state constant on every
    orbit of the probe's action (so exactly invariant), plus eps on the
    orbit of one configuration under a drawn subgroup H, which every element
    of H keeps and every other element moves by eps. eps lands at the
    level; the register is dense or in support form."""
    split = isinstance(subject, FactorSystem)
    group = subject.parent if split else subject
    n = subject.order
    table = kwmaps._probe_table(subject)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = np.divmod(np.arange(n * n), n)
    orbit = (table[:, a] * n + table[:, b]).min(axis=0)
    values = 0.05 * (rng.normal(size=(n * n, 2)) + 1j * rng.normal(size=(n * n, 2)))
    state = values[orbit]
    members = groups.generated_subgroup(group, draw(st.lists(st.integers(0, n - 1), max_size=2))).members
    eps = register.STATE_TOL * PROBE_LEVELS[level](groups._cayley_diameter(group), draw(st.floats(0.01, 0.99)))
    x, c = draw(st.integers(0, n * n - 1)), draw(st.integers(0, 1))
    state[table[list(members), x // n] * n + table[list(members), x % n], c] += eps
    if split:
        nn, nq = subject.n_group.order, subject.q_group.order
        amps = state.reshape(nn, nq, nn, nq, 2).transpose(0, 1, 3, 4, 2)  # n0, q0, q1, x, n1
        reg, sites = QuditRegister(_split_vertices(subject), amps), [(("n", v), ("q", v)) for v in range(2)]
    else:
        specs = [SiteSpec(("v", 0), "vertex", group), SiteSpec("x", "edge", CAT["Z2"]), SiteSpec(("v", 1), "vertex", group)]
        reg, sites = QuditRegister(specs, state.reshape(n, n, 2).transpose(0, 2, 1)), [(("v", 0),), (("v", 1),)]
    if draw(st.booleans()):
        reg._positions()
    moved = next((g for g in range(1, n) if g not in members and eps), None)
    return reg, group, sites, moved


@pytest.mark.parametrize("level", PROBE_LEVELS)
@pytest.mark.parametrize("subject", PROBE_SUBJECTS, ids=lambda s: getattr(s, "name", "D4 split"))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_probe_decides_and_words_as_the_all_element_loop(subject, level, data):
    """The probe on a generating set and the loop over every element accept
    and reject the same inputs with the same message, naming the same
    element; the first probes only the generators wherever the Cayley-graph
    bound accepts, and probes every element in order past it."""
    reg, group, sites, moved = data.draw(perturbed_inputs(subject, level))
    calls = []
    probe = QuditRegister.probe_residual
    with mock.patch.object(QuditRegister, "probe_residual", lambda r, *args: calls.append(1) or probe(r, *args)):
        got = _outcome(lambda: kwmaps._require_symmetric(reg, subject, sites, "probe"))
    probes = len(calls)
    assert got == _outcome(lambda: all_element_require_symmetric(reg, subject, sites, "probe"))
    gens = len(groups._generating_set(group))
    if moved is None or level in ("zero", "below the bound"):
        assert (got, probes) == (("ok", None), gens)
    elif level == "just above the tolerance":
        assert got == ("raised", f"probe: input is not invariant under the global left action (element {moved} moves it); "
                       "the residual charge obstructs outcome repair")
        assert probes == gens + moved
    else:
        assert (got, probes) == (("ok", None), gens + subject.order - 1)


def test_a_four_seed_s4_run_probes_five_times(monkeypatch):
    """The S4 solvable rounds probe S4, then S3, then Z2: 2 + 2 + 1
    generators, where every element took 23 + 5 + 1."""
    calls = []
    probe = QuditRegister.probe_residual
    monkeypatch.setattr(QuditRegister, "probe_residual", lambda r, *args: calls.append(1) or probe(r, *args))
    config = cli.RunConfig(command="prepare", group="S4", cell="hexagon", protocol="solvable", mode="sample:3", seeds=4)
    cli.cmd_prepare(config)
    assert len(calls) == 5


def test_vertex_route_forced_branches():
    rng = np.random.default_rng(12)
    cell = hexagon_torus()
    z3 = CAT["Z3"]
    base = symmetric_vertex_register(rng, cell, z3)
    ref = kw_abelian(base.copy(), cell, z3, KwMode.postselect()).register
    for c0 in range(3):
        res = kw_abelian(base.copy(), cell, z3, KwMode.forced({0: c0, 1: (3 - c0) % 3}))
        assert res.register.fidelity(ref) >= 1 - 1e-12, c0
        if c0:
            assert res.corrections.exponents


def test_vertex_route_forced_rejects_impossible_tables():
    cell = hexagon_torus()
    z3 = CAT["Z3"]
    base = init_plus([SiteSpec(("v", v), "vertex", z3) for v in range(cell.n_vertices)])
    # outcomes multiplying to a nontrivial total have zero joint probability
    with pytest.raises(ValueError, match="zero Born probability"):
        kw_abelian(base.copy(), cell, z3, KwMode.forced({0: 1, 1: 1}))
    with pytest.raises(ValueError, match="out of range"):
        kw_abelian(base.copy(), cell, z3, KwMode.forced({0: 5, 1: 0}))


def test_vertex_route_forced_rejects_keys_naming_no_measured_site():
    cell = square_torus(2, 2)
    z3 = CAT["Z3"]
    base = init_plus([SiteSpec(("v", v), "vertex", z3) for v in range(cell.n_vertices)])
    reg = base.copy()
    with pytest.raises(ValueError, match=r"forced outcome keys \[-1, 17\]"):
        kw_abelian(reg, cell, z3, KwMode.forced({0: 1, 1: 2, 17: 1, -1: 0}))
    assert reg.retired == {}  # rejected before the first measurement
    # absent keys still default to the trivial outcome
    partial = kw_abelian(base.copy(), cell, z3, KwMode.forced({0: 1, 1: 2}))
    assert partial.outcomes == {0: 1, 1: 2, 2: 0, 3: 0}


# --- dual route ---------------------------------------------------------------


def test_dual_route_is_uniform_over_flat_configs():
    """On a handle the dual route spreads over every holonomy sector, so its
    output differs from the vertex route by exactly the sector count."""
    cell = square_torus(2, 2)
    z2 = CAT["Z2"]
    regp = init_plus([SiteSpec(("p", p), "plaquette", z2) for p in range(cell.n_plaquettes)])
    hat = kw_hat_abelian(regp, cell, z2, KwMode.postselect()).register

    flat = np.zeros((2,) * cell.n_edges, dtype=np.complex128)
    for idx in np.ndindex(*(2,) * cell.n_edges):
        if all(walk_product(cell, z2, idx, p) == 0 for p in range(cell.n_plaquettes)):
            flat[idx] = 1
    flat /= np.linalg.norm(flat)
    flat_reg = QuditRegister([SiteSpec(("e", e), "edge", z2) for e in range(cell.n_edges)], flat)
    assert abs(hat.fidelity(flat_reg) - 1) < 1e-12

    regv = init_plus([SiteSpec(("v", v), "vertex", z2) for v in range(cell.n_vertices)])
    exact = kw_abelian(regv, cell, z2, KwMode.postselect()).register
    assert abs(hat.fidelity(exact) - 0.25) < 1e-12


def test_dual_route_matches_vertex_route_on_sphere():
    """At genus zero every flat configuration is a wall configuration."""
    cell = theta_sphere()
    z2 = CAT["Z2"]
    regv = init_plus([SiteSpec(("v", v), "vertex", z2) for v in range(cell.n_vertices)])
    a = kw_abelian(regv, cell, z2, KwMode.postselect()).register
    regp = init_plus([SiteSpec(("p", p), "plaquette", z2) for p in range(cell.n_plaquettes)])
    b = kw_hat_abelian(regp, cell, z2, KwMode.postselect()).register
    assert abs(a.fidelity(b) - 1) < 1e-12


def test_dual_route_trivial_group():
    cell = square_torus(2, 2)
    z1 = CAT["Z1"]
    regp = init_plus([SiteSpec(("p", p), "plaquette", z1) for p in range(cell.n_plaquettes)])
    res = kw_hat_abelian(regp, cell, z1, KwMode.sample(5))
    assert res.register.dims == (1,) * cell.n_edges


def test_dual_route_requires_closed_cellulation():
    z2 = CAT["Z2"]
    cell = two_vertex_graph(3)
    regp = init_plus([SiteSpec(("p", 0), "plaquette", z2)])
    with pytest.raises(ValueError, match="closed"):
        kw_hat_abelian(regp, cell, z2, KwMode.postselect())


def test_dual_route_sampled_and_forced_branches():
    rng = np.random.default_rng(13)
    cell = square_torus(2, 2)
    z3 = CAT["Z3"]
    base = init_plus([SiteSpec(("p", p), "plaquette", z3) for p in range(cell.n_plaquettes)])
    base.amps = random_state(rng, base.dims)
    symmetrize(base, z3, [("p", p) for p in range(cell.n_plaquettes)])
    ref = kw_hat_abelian(base.copy(), cell, z3, KwMode.postselect()).register
    for seed in range(20):
        out = kw_hat_abelian(base.copy(), cell, z3, KwMode.sample(seed)).register
        assert out.fidelity(ref) >= 1 - 1e-9, seed
    for table in ((1, 2, 0, 0), (2, 2, 1, 1), (1, 1, 1, 0)):
        res = kw_hat_abelian(base.copy(), cell, z3, KwMode.forced(dict(enumerate(table))))
        assert res.register.fidelity(ref) >= 1 - 1e-12
        assert res.corrections.basis == "X"


def test_dual_route_forced_single_plaquette_flux_is_impossible():
    """The hexagon has one plaquette, so a lone nontrivial flux cannot occur."""
    cell = hexagon_torus()
    z3 = CAT["Z3"]
    regp = init_plus([SiteSpec(("p", 0), "plaquette", z3)])
    with pytest.raises(ValueError, match="zero Born probability"):
        kw_hat_abelian(regp, cell, z3, KwMode.forced({0: 1}))


def test_dual_route_is_fourier_of_dual_wall_map():
    """Kernel law: the dual route equals edge-Fourier after the dual-incidence
    wall map, as dense maps up to one overall scalar."""
    for cell, gname in ((hexagon_torus(), "Z2"), (hexagon_torus(), "Z3"), (square_torus(2, 2), "Z2")):
        grp = CAT[gname]
        d, n_e, n_p = grp.order, cell.n_edges, cell.n_plaquettes
        chi = character_table(grp)
        hat = np.zeros((d ** n_e, d ** n_p), dtype=np.complex128)
        four = np.zeros_like(hat)
        for bi, b in enumerate(np.ndindex(*(d,) * n_p)):
            walls = []
            for e in range(n_e):
                pm, pp = cell.plaquette_pair(e)
                walls.append(grp.mul(grp.inverse(b[pm]), b[pp]))
            for ai, a in enumerate(np.ndindex(*(d,) * n_e)):
                phase = 1.0
                for p in range(n_p):
                    phase *= chi[b[p], walk_product(cell, grp, a, p)]
                hat[ai, bi] = phase
                wall_phase = 1.0
                for e in range(n_e):
                    wall_phase *= chi[a[e], walls[e]]
                four[ai, bi] = wall_phase
        idx = np.unravel_index(np.abs(four).argmax(), four.shape)
        scale = hat[idx] / four[idx]
        assert np.abs(hat - scale * four).max() < 1e-10, (cell.name, gname)


def test_dual_route_implementation_matches_its_kernel():
    rng = np.random.default_rng(14)
    cell = square_torus(2, 2)
    z3 = CAT["Z3"]
    base = init_plus([SiteSpec(("p", p), "plaquette", z3) for p in range(cell.n_plaquettes)])
    base.amps = random_state(rng, base.dims)
    symmetrize(base, z3, [("p", p) for p in range(cell.n_plaquettes)])
    out = kw_hat_abelian(base.copy(), cell, z3, KwMode.postselect()).register.amps.reshape(-1)
    chi = character_table(z3)
    a = np.indices((3,) * cell.n_edges).reshape(cell.n_edges, -1)
    b = np.indices((3,) * cell.n_plaquettes).reshape(cell.n_plaquettes, -1)
    phase = np.ones((a.shape[1], b.shape[1]), dtype=np.complex128)
    for p in range(cell.n_plaquettes):
        phase *= chi[b[p][None, :], walk_product(cell, z3, a, p)[:, None]]
    want = phase @ base.amps.reshape(-1)
    want /= np.linalg.norm(want)
    assert abs(abs(np.vdot(want, out)) ** 2 - 1) < 1e-12


# --- exact map ----------------------------------------------------------------


def test_exact_map_uniform_input_gives_uniform_wall_sum():
    cell = square_torus(2, 2)
    z2 = CAT["Z2"]
    reg = init_plus([SiteSpec(("v", v), "vertex", z2) for v in range(cell.n_vertices)])
    out = kw_exact_g(reg, cell, z2)
    walls = set()
    for a in np.ndindex(*(2,) * cell.n_vertices):
        walls.add(tuple(z2.mul(z2.inverse(a[i]), a[f]) for i, f in cell.edges))
    amps = out.amps.reshape(-1)
    support = {idx for idx, x in enumerate(amps) if abs(x) > 1e-12}
    expect = {int(np.ravel_multi_index(w, (2,) * cell.n_edges)) for w in walls}
    assert support == expect
    vals = np.abs(amps[sorted(support)])
    assert vals.max() - vals.min() < 1e-12


def test_exact_map_basis_and_constant_inputs():
    cell = two_vertex_graph(1)
    s3 = CAT["S3"]
    for g1 in range(6):
        for g2 in range(6):
            amps = np.zeros((6, 6), dtype=np.complex128)
            amps[g1, g2] = 1.0
            reg = QuditRegister([SiteSpec(("v", 0), "vertex", s3), SiteSpec(("v", 1), "vertex", s3)], amps)
            out = kw_exact_g(reg, cell, s3)
            assert abs(out.amps[s3.mul(s3.inverse(g1), g2)] - 1) < 1e-12
    # constant configurations carry no walls
    cellh = hexagon_torus()
    amps = np.zeros((6, 6), dtype=np.complex128)
    amps[4, 4] = 1.0
    reg = QuditRegister([SiteSpec(("v", 0), "vertex", s3), SiteSpec(("v", 1), "vertex", s3)], amps)
    out = kw_exact_g(reg, cellh, s3)
    assert abs(out.amps[0, 0, 0] - 1) < 1e-12


def test_exact_map_input_validation():
    z2 = CAT["Z2"]
    cell = square_torus(2, 2)
    reg = init_plus([SiteSpec(("v", v), "vertex", CAT["S4"]) for v in range(cell.n_vertices)])
    with pytest.raises(ValueError, match="budget"):
        kw_exact_g(reg, cell, CAT["S4"])
    extra = init_plus(
        [SiteSpec(("v", v), "vertex", z2) for v in range(cell.n_vertices)] + [SiteSpec("x", "aux", z2)]
    )
    with pytest.raises(ValueError, match="exactly the vertex sites"):
        kw_exact_g(extra, cell, z2)
    amps = np.zeros((2, 2), dtype=np.complex128)
    amps[0, 0], amps[1, 1] = 1.0, -1.0
    anti = QuditRegister([SiteSpec(("v", 0), "vertex", z2), SiteSpec(("v", 1), "vertex", z2)], amps)
    with pytest.raises(ValueError, match="no invariant component"):
        kw_exact_g(anti, two_vertex_graph(1), z2)


EXACT_CELLS = [
    hexagon_torus,
    theta_sphere,
    theta_sphere_reversed,
    tetrahedron_sphere,
    lambda: square_torus(2, 2),
    lambda: square_torus(3, 2),
    lambda: two_vertex_graph(1),
]


def assert_support_of_dense_scatter(out, reg, cell, grp):
    """kw_exact_g's support form is the dense scatter's nonzero entries:
    the same positions, the same value bits, the same layout."""
    ref = dense_kw_exact_g(reg, cell, grp)
    dense = ref.amps.reshape(-1)
    flat, values = out._support
    assert out.layout == ref.layout
    assert np.array_equal(flat, np.flatnonzero(dense))
    assert values.tobytes() == dense[flat].tobytes()
    return flat


@pytest.mark.parametrize("make_cell", EXACT_CELLS, ids=lambda make: make().name)
def test_exact_map_support_is_the_dense_scatter_bitwise_on_every_fixture(make_cell):
    """Every catalog group within EXACT_BUDGET on each fixture cell, from the
    uniform vertex state."""
    cell = make_cell()
    checked = 0
    for name, grp in CAT.items():
        if grp.order**cell.n_edges > EXACT_BUDGET:
            continue
        reg = init_plus([SiteSpec(("v", v), "vertex", grp) for v in range(cell.n_vertices)])
        out = kw_exact_g(reg, cell, grp)
        assert out._support is not None, name
        assert_support_of_dense_scatter(out, reg, cell, grp)
        checked += 1
    assert checked >= 5


@pytest.mark.parametrize("seed", range(6))
def test_exact_map_support_is_the_dense_scatter_bitwise_on_random_inputs(seed):
    """A random symmetric input, and a random input some of whose wall keys
    get terms x and -x and zeros, which cancel exactly: a cancelled key is
    absent from the support, and every other value has the scatter's bits."""
    rng = np.random.default_rng(seed)
    cells = [hexagon_torus(), theta_sphere_reversed(), tetrahedron_sphere(), square_torus(2, 2)]
    names = [name for name in ("Z2", "Z3", "Z4", "S3", "D4") if CAT[name].order ** 4 <= 4096]
    cell, grp = cells[seed % len(cells)], CAT[names[seed % len(names)]]
    symmetric = symmetric_vertex_register(rng, cell, grp)
    assert_support_of_dense_scatter(kw_exact_g(symmetric, cell, grp), symmetric, cell, grp)

    reg = init_plus([SiteSpec(("v", v), "vertex", grp) for v in range(cell.n_vertices)])
    amps = random_state(rng, reg.dims).reshape(-1)
    grids = np.indices(reg.dims).reshape(cell.n_vertices, -1)
    walls = np.stack([grp.mult[grp.inv[grids[i]], grids[f]] for i, f in cell.edges])
    keys = np.ravel_multi_index(tuple(walls), (grp.order,) * cell.n_edges)
    wall_keys = np.unique(keys)
    cancelled = rng.choice(wall_keys, size=min(2, wall_keys.size - 1), replace=False)
    for key in cancelled:
        terms = np.flatnonzero(keys == key)
        x = amps[terms[0]] + 0.25
        amps[terms] = 0
        amps[terms[0]], amps[terms[-1]] = x, -x
    reg.amps = amps.reshape(reg.dims)
    flat = assert_support_of_dense_scatter(kw_exact_g(reg, cell, grp), reg, cell, grp)
    assert not np.isin(cancelled, flat).any()
    assert flat.size == wall_keys.size - cancelled.size


def test_exact_map_errors_keep_their_messages():
    """The budget and the empty-image rejections read as the dense scatter's."""
    cell = square_torus(2, 2)
    s4 = init_plus([SiteSpec(("v", v), "vertex", CAT["S4"]) for v in range(cell.n_vertices)])
    budget = f"edge space 24^8 exceeds the dense-assembly budget {EXACT_BUDGET}"
    amps = np.zeros((2, 2), dtype=np.complex128)
    amps[0, 0], amps[1, 1] = 1.0, -1.0
    anti = QuditRegister([SiteSpec(("v", 0), "vertex", CAT["Z2"]), SiteSpec(("v", 1), "vertex", CAT["Z2"])], amps)
    empty = "input has no invariant component; the map projects it to zero"
    for exact in (kw_exact_g, dense_kw_exact_g):
        with pytest.raises(ValueError) as err:
            exact(s4, cell, CAT["S4"])
        assert str(err.value) == budget
        with pytest.raises(ValueError) as err:
            exact(anti, two_vertex_graph(1), CAT["Z2"])
        assert str(err.value) == empty


def test_exact_map_kernel_absorbs_global_left_action():
    """Shifting every vertex by the same element never changes the output."""
    rng = np.random.default_rng(15)
    cell = hexagon_torus()
    for name, grp in CAT.items():
        if grp.order ** cell.n_edges > EXACT_BUDGET:
            continue
        base = init_plus([SiteSpec(("v", v), "vertex", grp) for v in range(cell.n_vertices)])
        base.amps = random_state(rng, base.dims)
        ref = kw_exact_g(base.copy(), cell, grp)
        for g in range(1, grp.order):
            shifted = base.copy()
            for v in range(cell.n_vertices):
                shifted.apply(left_mult(grp, g, ("v", v)))
            out = kw_exact_g(shifted, cell, grp)
            assert np.abs(out.amps - ref.amps).max() < 1e-12, (name, g)


def test_loop_expectation_is_irrep_dimension():
    """Plaquette loops on exact-map output read off each irrep's dimension."""
    cellh = hexagon_torus()
    for name in ("Z3", "S3", "D4", "Q8"):
        grp = CAT[name]
        base = init_plus([SiteSpec(("v", v), "vertex", grp) for v in range(cellh.n_vertices)])
        out = kw_exact_g(base, cellh, grp)
        for irr in irrep_table(grp).irreps:
            val = out.expectation(loop_z(irr, cellh.plaquettes[0], cellh))
            assert abs(val - irr.dim) < 1e-10, (name, irr.label)
    sq = square_torus(2, 2)
    for name in ("Z2", "Z3"):
        grp = CAT[name]
        base = init_plus([SiteSpec(("v", v), "vertex", grp) for v in range(sq.n_vertices)])
        out = kw_exact_g(base, sq, grp)
        for p in range(sq.n_plaquettes):
            for irr in irrep_table(grp).irreps:
                val = out.expectation(loop_z(irr, sq.plaquettes[p], sq))
                assert abs(val - irr.dim) < 1e-10, (name, p, irr.label)


# --- subgroup route -----------------------------------------------------------


def test_split_route_two_step_matches_oracle():
    """Gauging the subgroup then the quotient reproduces the one-shot oracle."""
    rng = np.random.default_rng(16)
    cell = hexagon_torus()
    for name in ("S3", "D4", "Q8"):
        fs = catalog_factor_system(name)
        base = symmetric_vertex_register(rng, cell, fs.parent)
        oracle = kw_exact_g(base.copy(), cell, fs.parent)
        post = two_step(base.copy(), cell, fs, KwMode.postselect(), KwMode.postselect())
        assert abs(post.fidelity(oracle) - 1) < 1e-10, name
        sampled = two_step(base.copy(), cell, fs, KwMode.sample(5), KwMode.sample(9))
        assert abs(sampled.fidelity(oracle) - 1) < 1e-10, name


@pytest.mark.parametrize(
    "mode", [KwMode.postselect(), KwMode.sample(1), KwMode.forced({})], ids=["postselect", "sample", "forced"]
)
def test_split_route_refuses_a_nonabelian_subgroup_in_every_mode(mode):
    """Every mode measures the subgroup parts in the Fourier basis, so a
    non-abelian subgroup is refused in all three, before the register is
    touched."""
    rng = np.random.default_rng(17)
    cell = hexagon_torus()
    s4 = CAT["S4"]
    fs = factor_system_of(s4, commutator_subgroup(s4))
    assert not fs.n_group.is_abelian
    reg = split_input(symmetric_vertex_register(rng, cell, s4), fs, cell.n_vertices)
    layout, amps = reg.layout, reg.amps.copy()
    with pytest.raises(ValueError, match="kw_n_in_g needs an abelian subgroup"):
        kw_n_in_g(reg, cell, fs, mode)
    assert reg.layout == layout and not reg.retired
    assert reg.amps.tobytes() == amps.tobytes()


def test_split_route_trivial_factor_system_reduces_to_abelian_route():
    """For a direct product the dressing layers vanish and only the subgroup
    factor is touched."""
    rng = np.random.default_rng(18)
    cell = hexagon_torus()
    g6 = direct_product(CAT["Z2"], CAT["Z3"])
    fs = factor_system_of(g6, subgroup_from_members(g6, [0, 3]))
    assert is_trivial(fs)
    base = symmetric_vertex_register(rng, cell, g6)
    work = split_input(base, fs, cell.n_vertices)
    a = kw_n_in_g(work.copy(), cell, fs, KwMode.sample(21)).register
    b = kw_abelian(
        work.copy(), cell, fs.n_group, KwMode.sample(21), vertex_of=lambda v: ("v", v, "n")
    ).register
    assert abs(a.fidelity(b) - 1) < 1e-10


def test_split_route_forced_and_sampled_branches():
    rng = np.random.default_rng(19)
    cell = hexagon_torus()
    fs = catalog_factor_system("S3")
    base = symmetric_vertex_register(rng, cell, fs.parent)
    work = split_input(base, fs, cell.n_vertices)
    ref = kw_n_in_g(work.copy(), cell, fs, KwMode.postselect()).register
    forced = kw_n_in_g(work.copy(), cell, fs, KwMode.forced({0: 1, 1: 2}))
    assert forced.register.fidelity(ref) >= 1 - 1e-12
    assert forced.corrections.exponents
    for seed in range(20):
        out = kw_n_in_g(work.copy(), cell, fs, KwMode.sample(seed)).register
        assert out.fidelity(ref) >= 1 - 1e-9, seed


def test_split_route_orbit_input_specialization():
    """A symmetrized basis orbit puts definite transversal walls on the edges
    and the projected quotient orbit on the vertices."""
    fs = catalog_factor_system("S3")
    s3, n3, q2 = fs.parent, fs.n_group, fs.q_group
    cell = hexagon_torus()
    gv = (2, 5)
    amps = np.zeros((6, 6), dtype=np.complex128)
    for h in range(6):
        amps[s3.mul(h, gv[0]), s3.mul(h, gv[1])] += 1.0
    amps /= np.linalg.norm(amps)
    base = QuditRegister([SiteSpec(("v", v), "vertex", s3) for v in range(2)], amps)
    res = kw_n_in_g(split_input(base, fs, 2), cell, fs, KwMode.postselect())
    assert [s.sid for s in res.register.sites] == [
        ("v", 0, "q"), ("v", 1, "q"), ("e", 0), ("e", 1), ("e", 2)]
    edge_lab = tuple(int(fs.tpart[s3.mul(s3.inverse(gv[i]), gv[f])]) for i, f in cell.edges)
    expect = np.zeros((2, 2, 3, 3, 3), dtype=np.complex128)
    for q in range(2):
        vidx = tuple(q2.mul(q, int(fs.proj[g])) for g in gv)
        expect[vidx + edge_lab] += 1.0
    expect /= np.linalg.norm(expect)
    assert abs(abs(np.vdot(expect, res.register.amps)) ** 2 - 1) < 1e-12


def test_split_route_output_is_quotient_symmetric():
    """Gauging the subgroup trades the full symmetry for a quotient symmetry."""
    rng = np.random.default_rng(20)
    cell = hexagon_torus()
    fs = catalog_factor_system("S3")
    base = symmetric_vertex_register(rng, cell, fs.parent)
    out = kw_n_in_g(split_input(base, fs, cell.n_vertices), cell, fs, KwMode.sample(4)).register
    for q in range(1, fs.q_group.order):
        probe = out.copy()
        for v in range(cell.n_vertices):
            probe.apply(left_mult(fs.q_group, q, ("v", v, "q")))
        assert np.abs(probe.amps - out.amps).max() < 1e-10, q
