"""Preparation protocols: shot counts, feedforward, transcripts, syndromes."""

import json
import math
from unittest import mock

import numpy as np
import pytest

from gaugekit import feedforward, kwmaps, protocols, register
from gaugekit.cellulation import hexagon_torus, square_torus, theta_sphere, two_vertex_graph
from gaugekit.gates import left_mult
from gaugekit.groups import (
    FactorSystem,
    FiniteGroup,
    alternating_group,
    build_cyclic,
    catalog,
    catalog_factor_system,
    derived_series,
    extension_from_factor_system,
    factor_system_of,
)
from gaugekit.kwmaps import KwMode, _wall_gates, kw_exact_g
from gaugekit.protocols import (
    ProtocolRound,
    _nil2_circuit,
    _solvable_chain,
    gauge_input_state,
    prepare_abelian_double,
    prepare_metabelian_double,
    prepare_nil2_double,
    prepare_solvable_double,
    plan_run,
)
from gaugekit.register import LocalOperator, QuditRegister, SiteSpec, WallCircuit, _vertex_site, init_plus
from gaugekit.verify import check_identity, stabilizer_report
from reference import (
    charge_syndromes,
    expanded_wall_gates,
    flux_syndromes,
    nil2_circuit_gate_by_gate,
    theta_sphere_reversed,
)

CAT = catalog()


def vertex_register(group, cell):
    return init_plus([SiteSpec(("v", v), "vertex", group) for v in range(cell.n_vertices)])


def symmetrized_random(rng, group, cell):
    reg = vertex_register(group, cell)
    raw = rng.normal(size=reg.dims) + 1j * rng.normal(size=reg.dims)
    acc = np.zeros_like(raw)
    for g in range(group.order):
        probe = reg.copy()
        probe.amps = raw.copy()
        for v in range(cell.n_vertices):
            probe.apply(left_mult(group, g, ("v", v)))
        acc = acc + probe.amps
    reg.amps = acc / np.linalg.norm(acc)
    return reg


# ---------------------------------------------------------------------------
# abelian


def test_abelian_double_square_torus():
    cell = square_torus(2, 2)
    for mode in [KwMode.postselect()] + [KwMode.sample(s) for s in range(6)]:
        tr = prepare_abelian_double(CAT["Z2"], cell, mode)
        assert tr.shots == 1 and len(tr.rounds) == 1
        assert tr.fidelity_vs_oracle > 1 - 1e-12
        assert [s.sid for s in tr.register.sites] == [("e", e) for e in range(cell.n_edges)]


def test_abelian_double_rejects_nonabelian():
    with pytest.raises(ValueError, match="abelian"):
        prepare_abelian_double(CAT["S3"], theta_sphere(), KwMode.postselect())


def test_abelian_outcome_probability_matches_branch():
    tr = prepare_abelian_double(CAT["Z3"], theta_sphere(), KwMode.postselect())
    # one vertex measurement is redundant on a connected graph
    assert tr.probability == pytest.approx(3.0 ** -(theta_sphere().n_vertices - 1))


# ---------------------------------------------------------------------------
# nil2 one-shot


@pytest.mark.parametrize("label", ["D4", "Q8"])
def test_nil2_theta_sphere_exact(label):
    fs = catalog_factor_system(label)
    for seed in range(4):
        tr = prepare_nil2_double(fs, theta_sphere(), KwMode.sample(seed))
        assert tr.shots == 1
        assert tr.fidelity_vs_oracle > 1 - 1e-9


@pytest.mark.parametrize("label", ["D4", "Q8"])
def test_nil2_hexagon_torus_flat_sector_weight(label):
    # the one-shot output has trivial quotient holonomy but is uniform over
    # the |N|^2 = 4 central holonomy classes around the torus's two cycles,
    # so its overlap with the trivial-holonomy double is exactly 1/4
    fs = catalog_factor_system(label)
    for mode in [KwMode.postselect(), KwMode.sample(0), KwMode.sample(1)]:
        tr = prepare_nil2_double(fs, hexagon_torus(), mode)
        assert tr.fidelity_vs_oracle == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("label", ["D4", "Q8"])
def test_nil2_reversed_theta_sphere_exact(label):
    fs, cell = catalog_factor_system(label), theta_sphere_reversed()
    for seed in range(6):
        tr = prepare_nil2_double(fs, cell, KwMode.sample(seed))
        assert tr.fidelity_vs_oracle > 1 - 1e-9
        assert stabilizer_report(tr.register, fs.parent, cell).min_expectation() > 1 - 1e-9


def omega_dropped(fs, qi_sid, n_sid, qf_sid):
    dims = fs.q_group.order * fs.n_group.order * fs.q_group.order
    return LocalOperator([qi_sid, n_sid, qf_sid], "perm", np.arange(dims), name="Omega")


@pytest.mark.parametrize("label,fidelity", [("D4", 0.5625), ("Q8", 0.0625)])
def test_dropped_cocycle_dressing_is_caught_on_mixed_orientations(label, fidelity):
    # every edge of theta_sphere and hexagon_torus points from vertex 0 to
    # vertex 1, so the dressing shifts cancel around each plaquette there;
    # with edge 1 reversed they do not
    fs, mixed = catalog_factor_system(label), theta_sphere_reversed()
    name = "central_extension_circuit_matches_composition"
    with mock.patch.object(protocols, "omega_gate", omega_dropped):
        same = [prepare_nil2_double(fs, theta_sphere(), KwMode.sample(seed)) for seed in range(6)]
        runs = [prepare_nil2_double(fs, mixed, KwMode.sample(seed)) for seed in range(6)]
        blind = check_identity(name, fs, theta_sphere())
        caught = check_identity(name, fs, mixed)
    assert min(tr.fidelity_vs_oracle for tr in same) > 1 - 1e-9
    assert blind <= 1e-10
    assert min(tr.fidelity_vs_oracle for tr in runs) == pytest.approx(fidelity, abs=1e-9)
    assert caught > 1e-2


@pytest.mark.parametrize(
    "label,cell",
    [("D4", theta_sphere()), ("Q8", theta_sphere()), ("D4", hexagon_torus())],
)
def test_nil2_syndromes_match_outcomes_before_feedforward(label, cell):
    fs = catalog_factor_system(label)
    for seed in range(4):
        tr = prepare_nil2_double(fs, cell, KwMode.sample(seed), with_oracle=False, feedforward=False)
        assert tr.fidelity_vs_oracle is None
        outs = tr.rounds[0].outcomes
        charges = charge_syndromes(tr.register, fs.q_group, cell, edge_of=lambda e: ("e", e, "q"))
        fluxes = flux_syndromes(tr.register, fs.n_group, cell, edge_of=lambda e: ("e", e, "n"))
        assert charges == outs["charge"]
        assert fluxes == outs["flux"]


@pytest.mark.parametrize(
    "prepare, subject, make_cell",
    [
        (prepare_nil2_double, catalog_factor_system("D4"), theta_sphere),
        (prepare_solvable_double, CAT["S4"], hexagon_torus),
        (prepare_abelian_double, CAT["Z3"], lambda: square_torus(2, 2)),
    ],
    ids=["nil2-D4-theta", "solvable-S4-hexagon", "abelian-Z3-square"],
)
def test_forced_empty_reproduces_postselect_bitwise(prepare, subject, make_cell):
    """Postselect is the measurement at forced outcome 0 on every site, which
    an empty forced table selects too: the same amplitudes, probability,
    fidelity and record, bit for bit."""
    a = prepare(subject, make_cell(), KwMode.postselect())
    b = prepare(subject, make_cell(), KwMode.forced({}))
    assert a.register.layout == b.register.layout
    assert a.register.amps.tobytes() == b.register.amps.tobytes()
    assert a.probability.hex() == b.probability.hex()
    assert a.fidelity_vs_oracle.hex() == b.fidelity_vs_oracle.hex()
    assert a.to_json() == b.to_json()


def test_nil2_forced_keys_cover_vertices_then_plaquettes():
    fs = catalog_factor_system("D4")
    cell = theta_sphere()
    forced = {0: 2, 1: 2, cell.n_vertices + 0: 1, cell.n_vertices + 1: 1}
    tr = prepare_nil2_double(fs, cell, KwMode.forced(forced), with_oracle=False)
    outs = tr.rounds[0].outcomes
    assert outs["charge"] == {0: 2, 1: 2}
    assert outs["flux"][0] == 1 and outs["flux"][1] == 1


def test_nil2_forced_rejects_a_key_past_the_plaquettes():
    fs = catalog_factor_system("D4")
    cell = theta_sphere()
    beyond = cell.n_vertices + cell.n_plaquettes
    with pytest.raises(ValueError, match=rf"forced outcome keys \[{beyond}\]"):
        prepare_nil2_double(fs, cell, KwMode.forced({0: 2, beyond - 1: 1, beyond: 1}), with_oracle=False)


@pytest.mark.parametrize("label", ["D4", "Q8"])
@pytest.mark.parametrize("make_cell", [hexagon_torus, theta_sphere], ids=["hexagon", "theta"])
def test_nil2_circuit_matches_its_gate_by_gate_reference(monkeypatch, label, make_cell):
    fs, cell = catalog_factor_system(label), make_cell()
    want = nil2_circuit_gate_by_gate(fs, cell)
    gated, applied = [], []
    add_sites, apply = QuditRegister.add_sites, QuditRegister.apply

    def recorded_add_sites(reg, specs, state):
        if isinstance(state, WallCircuit):
            gated.append(state)
        return add_sites(reg, specs, state)

    def recorded_apply(reg, op):
        applied.append(op.name)
        return apply(reg, op)

    monkeypatch.setattr(QuditRegister, "add_sites", recorded_add_sites)
    monkeypatch.setattr(QuditRegister, "apply", recorded_apply)
    got = _nil2_circuit(fs, cell)
    assert got.layout == want.layout
    # equal as numbers, not bitwise: where the reference's outer product with
    # the identity state leaves -0.0, the gated scatter writes +0.0
    assert np.array_equal(got.amps, want.amps)
    # one gated allocation carries the quotient walls, and its circuit is the
    # shared vertex-route entangler's: equal as a circuit, and gate for gate
    [walls] = gated
    shared = _wall_gates(fs.q_group, cell, _vertex_site, lambda e: ("e", e, "q"))
    mine, theirs = ([(op.kind, op.targets, op.image.tobytes()) for op in expanded_wall_gates(c)] for c in (walls, shared))
    assert walls == shared and mine == theirs and len(mine) == 2 * cell.n_edges
    assert not {"CL", "CL+", "CR", "CR+"} & set(applied)


def test_nil2_trivial_cocycle_reduces_to_product_double():
    fs = FactorSystem(
        n_group=build_cyclic(2),
        q_group=build_cyclic(3),
        sigma=np.tile(np.arange(2), (3, 1)),
        omega=np.zeros((3, 3), dtype=np.int64),
    )
    extension_from_factor_system(fs, name="Z2xZ3")
    tr = prepare_nil2_double(fs, theta_sphere(), KwMode.sample(9))
    assert tr.fidelity_vs_oracle > 1 - 1e-9


def test_nil2_correction_record_lists_both_families():
    fs = catalog_factor_system("Q8")
    tr = prepare_nil2_double(fs, theta_sphere(), KwMode.sample(2))
    plans = tr.rounds[0].corrections
    assert [p["basis"] for p in plans] == ["Z", "X"]
    assert all(p["applied"] for p in plans)
    tr = prepare_nil2_double(fs, theta_sphere(), KwMode.sample(2), feedforward=False)
    assert not any(p["applied"] for p in tr.rounds[0].corrections)


def test_nil2_rejects_noncentral_and_open():
    with pytest.raises(ValueError, match="central"):
        prepare_nil2_double(catalog_factor_system("S3"), theta_sphere(), KwMode.postselect())
    with pytest.raises(ValueError, match="closed"):
        prepare_nil2_double(catalog_factor_system("D4"), two_vertex_graph(2), KwMode.postselect())


# ---------------------------------------------------------------------------
# metabelian and solvable


def test_metabelian_s3_two_rounds():
    fs = catalog_factor_system("S3")
    for seed in range(4):
        tr = prepare_metabelian_double(fs, hexagon_torus(), KwMode.sample(seed))
        assert tr.shots == 2 and len(tr.rounds) == 2
        assert tr.fidelity_vs_oracle > 1 - 1e-9
        assert [s.sid for s in tr.register.sites] == [("e", e) for e in range(hexagon_torus().n_edges)]


def test_metabelian_rejects_nonabelian_quotient():
    s4 = CAT["S4"]
    v4 = derived_series(s4)[0][-2]
    fs = factor_system_of(s4, v4)
    with pytest.raises(ValueError, match="abelian"):
        prepare_metabelian_double(fs, theta_sphere(), KwMode.postselect())


@pytest.mark.parametrize("name,shots", [("S3", 2), ("D4", 2), ("Q8", 2), ("A4", 2), ("S4", 3)])
def test_solvable_shot_count_and_fidelity(name, shots):
    tr = prepare_solvable_double(CAT[name], hexagon_torus(), KwMode.sample(11))
    assert tr.shots == shots
    assert tr.fidelity_vs_oracle > 1 - 1e-8
    assert [s.sid for s in tr.register.sites] == [("e", e) for e in range(hexagon_torus().n_edges)]


def test_solvable_abelian_is_single_round():
    tr = prepare_solvable_double(CAT["Z4"], two_vertex_graph(2), KwMode.sample(3))
    assert tr.shots == 1
    assert tr.fidelity_vs_oracle > 1 - 1e-12


def test_solvable_rejects_perfect_core():
    with pytest.raises(ValueError, match="perfect core has order 60"):
        prepare_solvable_double(alternating_group(5), two_vertex_graph(2), KwMode.postselect())


def test_solvable_round_labels_name_the_stages():
    tr = prepare_solvable_double(CAT["S4"], theta_sphere(), KwMode.postselect())
    assert "order-4" in tr.rounds[0].label
    assert "order-3" in tr.rounds[1].label
    assert "abelian" in tr.rounds[2].label


def test_solvable_chain_cache_keys_on_the_group_name():
    # an S4 run warms the cache; an equal table under another name must not reuse its labels
    prepare_solvable_double(CAT["S4"], theta_sphere(), KwMode.postselect(), with_oracle=False)
    sym4 = FiniteGroup(CAT["S4"].mult, name="Sym4")
    tr = prepare_solvable_double(sym4, theta_sphere(), KwMode.postselect(), with_oracle=False)
    labels = [r.label for r in tr.rounds]
    assert labels == [
        "gauge the order-4 normal subgroup inside Sym4",
        "gauge the order-3 normal subgroup inside Sym4/4",
        "gauge the abelian group Sym4/4/3",
    ]
    assert "S4" not in tr.to_json()


def test_solvable_chain_is_cached_and_read_only():
    chain = _solvable_chain(CAT["S4"])
    assert _solvable_chain(CAT["S4"]) is chain
    assert _solvable_chain(FiniteGroup(CAT["S4"].mult, name="S4")) is chain
    for fs in chain:
        for table in (fs.sigma, fs.omega, fs.lift, fs.proj, fs.tpart):
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 1


# ---------------------------------------------------------------------------
# gauging supplied inputs


@pytest.mark.parametrize("name", ["Z3", "S3"])
def test_gauge_input_matches_definitional_map(name):
    g, cell = CAT[name], theta_sphere()
    rng = np.random.default_rng(5)
    for _ in range(3):
        reg = symmetrized_random(rng, g, cell)
        want = kw_exact_g(reg.copy(), cell, g)
        tr = gauge_input_state(reg, g, cell, KwMode.sample(7))
        assert tr.fidelity_vs_oracle > 1 - 1e-9
        assert tr.register.fidelity(want) > 1 - 1e-9


def test_gauge_input_cat_state_lands_on_trivial_walls():
    g, cell = CAT["Z2"], square_torus(2, 2)
    reg = vertex_register(g, cell)
    cat = np.zeros(reg.dims, dtype=np.complex128)
    cat[(0,) * cell.n_vertices] = 2**-0.5
    cat[(1,) * cell.n_vertices] = 2**-0.5
    reg.amps = cat
    tr = gauge_input_state(reg, g, cell, KwMode.sample(1))
    flat = tr.register.amps.reshape(-1)
    assert abs(flat[0]) == pytest.approx(1.0)
    assert np.abs(flat[1:]).max() < 1e-12


def test_gauge_input_rejects_asymmetric_state():
    g, cell = CAT["S3"], theta_sphere()
    reg = vertex_register(g, cell)
    reg.amps = np.zeros(reg.dims, dtype=np.complex128)
    reg.amps[0, 1] = 1.0
    with pytest.raises(ValueError, match="not invariant"):
        gauge_input_state(reg, g, cell, KwMode.postselect())


def test_gauge_input_rejects_wrong_layout():
    g, cell = CAT["Z2"], theta_sphere()
    reg = init_plus([SiteSpec(("v", 0), "vertex", g)])
    with pytest.raises(ValueError, match="vertex sites"):
        gauge_input_state(reg, g, cell, KwMode.postselect())


def test_gauge_input_rejects_nonsolvable_before_gauging():
    g, cell = alternating_group(5), theta_sphere()
    with pytest.raises(ValueError, match="perfect core"):
        gauge_input_state(vertex_register(g, cell), g, cell, KwMode.postselect())


def _rejection(run):
    with pytest.raises(ValueError) as info:
        run()
    return str(info.value)


def test_gauge_input_state_checks_its_preconditions_in_order(monkeypatch):
    """Each input below passes the checks before the one it is rejected by,
    and fails the ones after it, so the messages pin the order: the vertex
    sites, the register budget of the rounds, the oracle's invariant
    component, then round 1's symmetry probe, naming the first element that
    moves the input. A rejected input is left as it was given."""
    g, cell = CAT["S3"], theta_sphere()
    one_site = init_plus([SiteSpec(("v", 0), "vertex", g)])
    # |e,e> - |a,a>: both labellings write the trivial walls, which cancel
    cancelling = vertex_register(g, cell)
    amps = np.zeros(cancelling.dims, dtype=np.complex128)
    amps[0, 0], amps[1, 1] = 2**-0.5, -(2**-0.5)
    cancelling.amps = amps
    layout = cancelling.layout

    def run(reg, **kwargs):
        return lambda: gauge_input_state(reg, g, cell, KwMode.postselect(), **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(register, "AMPLITUDE_BUDGET", 1)
        assert _rejection(run(one_site)) == "gauge_input_state needs a register with exactly the vertex sites"
        assert _rejection(run(cancelling)) == "register of 972 amplitudes exceeds the dense register budget 1"
    assert _rejection(run(cancelling)) == "input has no invariant component; the map projects it to zero"
    for _ in range(2):
        assert _rejection(run(cancelling, with_oracle=False)) == (
            "kw_n_in_g: input is not invariant under the global left action (element 1 moves it); "
            "the residual charge obstructs outcome repair"
        )
    assert cancelling.layout == layout and cancelling.amps.tobytes() == amps.tobytes()


def test_plan_run_checks_the_group_then_the_budget_then_builds_the_oracle(monkeypatch):
    """plan_run rejects the group for its protocol first, at any budget, then
    a round over the register budget, before the oracle is enumerated."""
    cell = theta_sphere()

    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle was enumerated before the preconditions")

    monkeypatch.setattr(protocols, "kw_exact_g", no_oracle)
    monkeypatch.setattr(register, "AMPLITUDE_BUDGET", 1)
    assert _rejection(lambda: plan_run("abelian", CAT["S3"], cell)) == "prepare_abelian_double needs an abelian group"
    assert _rejection(lambda: plan_run("metabelian", _solvable_chain(CAT["S4"])[0], cell)) == (
        "prepare_metabelian_double needs abelian subgroup and abelian quotient"
    )
    monkeypatch.setattr(register, "AMPLITUDE_BUDGET", 3600)
    assert _rejection(lambda: plan_run("solvable", alternating_group(5), cell)).startswith("A5 is not solvable")
    monkeypatch.setattr(register, "AMPLITUDE_BUDGET", 971)
    assert _rejection(lambda: plan_run("solvable", CAT["S3"], cell)) == (
        "register of 972 amplitudes exceeds the dense register budget 971"
    )


# ---------------------------------------------------------------------------
# cross-protocol agreement


def test_protocols_agree_on_postselect_branch():
    fs = catalog_factor_system("D4")
    theta = theta_sphere()
    nil2 = prepare_nil2_double(fs, theta, KwMode.postselect(), with_oracle=False)
    meta = prepare_metabelian_double(fs, theta, KwMode.postselect(), with_oracle=False)
    solv = prepare_solvable_double(fs.parent, theta, KwMode.postselect(), with_oracle=False)
    assert nil2.register.fidelity(meta.register) > 1 - 1e-9
    assert meta.register.fidelity(solv.register) > 1 - 1e-9


def test_one_shot_and_two_shot_differ_by_flat_sectors_on_torus():
    fs = catalog_factor_system("D4")
    cell = hexagon_torus()
    nil2 = prepare_nil2_double(fs, cell, KwMode.postselect(), with_oracle=False)
    meta = prepare_metabelian_double(fs, cell, KwMode.postselect(), with_oracle=False)
    assert nil2.register.fidelity(meta.register) == pytest.approx(0.25, abs=1e-9)


# ---------------------------------------------------------------------------
# transcripts


def test_transcript_json_round_trip():
    tr = prepare_solvable_double(CAT["S4"], theta_sphere(), KwMode.sample(13))
    doc = json.loads(tr.to_json())
    assert doc["protocol"] == "solvable_double"
    assert doc["shots"] == 3 and len(doc["rounds"]) == 3
    assert doc["register"]["sites"] == [str(("e", e)) for e in range(theta_sphere().n_edges)]
    assert doc["register"]["dimension"] == 24 ** theta_sphere().n_edges
    assert 0 < doc["probability"] <= 1
    for rnd in doc["rounds"]:
        assert set(rnd) == {"label", "layers", "outcomes", "corrections", "probability"}
        assert all(isinstance(k, str) for k in rnd["outcomes"]["charge"])


def _every_protocol_run(mode):
    cell = theta_sphere()
    s3_vertices = init_plus([SiteSpec(_vertex_site(v), "vertex", CAT["S3"]) for v in range(cell.n_vertices)])
    return {
        "abelian": prepare_abelian_double(CAT["Z3"], cell, mode),
        "nil2": prepare_nil2_double(catalog_factor_system("D4"), cell, mode),
        "nil2 without feedforward": prepare_nil2_double(catalog_factor_system("Q8"), cell, mode, feedforward=False),
        "metabelian": prepare_metabelian_double(catalog_factor_system("S3"), cell, mode),
        "solvable": prepare_solvable_double(CAT["S4"], cell, mode),
        "gauge_input": gauge_input_state(s3_vertices, CAT["S3"], cell, mode),
    }


@pytest.mark.parametrize("mode", [KwMode.sample(11), KwMode.postselect()], ids=["sample", "postselect"])
def test_transcript_totals_are_read_off_the_rounds(mode):
    """shots and probability are the round count and the product of the
    rounds' probabilities, bit for bit, in the object and in its record."""
    for name, tr in _every_protocol_run(mode).items():
        doc = tr.to_dict()
        assert tr.shots == doc["shots"] == len(tr.rounds) == len(doc["rounds"]), name
        product = math.prod(rnd.probability for rnd in tr.rounds)
        assert tr.probability.hex() == doc["probability"].hex() == product.hex(), name
        assert product == math.prod(rnd["probability"] for rnd in doc["rounds"]), name
        retired = math.prod(r.probability for r in tr.register.retired.values())
        assert tr.probability == pytest.approx(retired, rel=1e-12), name


def test_every_correction_plan_is_built_by_the_kwmaps_helpers():
    """A one-seed nil2 run and a solvable run reach the feedforward plan
    makers only through kwmaps, once per recorded plan of each basis."""
    runs = {
        "nil2": lambda: prepare_nil2_double(catalog_factor_system("D4"), theta_sphere(), KwMode.sample(5)),
        "solvable": lambda: prepare_solvable_double(CAT["S3"], theta_sphere(), KwMode.sample(5)),
    }
    for name, run in runs.items():
        with mock.patch.object(kwmaps, "charge_correction", wraps=feedforward.charge_correction) as charge, \
                mock.patch.object(kwmaps, "flux_correction", wraps=feedforward.flux_correction) as flux:
            tr = run()
        bases = [plan["basis"] for rnd in tr.rounds for plan in rnd.corrections]
        assert (charge.call_count, flux.call_count) == (bases.count("Z"), bases.count("X")), name
        assert charge.call_count >= 1, name


def test_same_seed_transcripts_identical():
    a = prepare_solvable_double(CAT["S3"], hexagon_torus(), KwMode.sample(42))
    b = prepare_solvable_double(CAT["S3"], hexagon_torus(), KwMode.sample(42))
    assert a.to_json() == b.to_json()
    assert np.abs(a.register.amps - b.register.amps).max() == 0.0


def test_rounds_draw_independent_streams():
    outcomes = set()
    for seed in range(8):
        tr = prepare_metabelian_double(catalog_factor_system("S3"), theta_sphere(), KwMode.sample(seed), with_oracle=False)
        outcomes.add(json.dumps([r.as_dict()["outcomes"] for r in tr.rounds]))
    assert len(outcomes) > 1


# ---------------------------------------------------------------------------
# syndrome helpers


def test_syndromes_reject_indefinite_states():
    g, cell = CAT["Z2"], theta_sphere()
    reg = init_plus([SiteSpec(("e", e), "edge", g) for e in range(cell.n_edges)])
    rng = np.random.default_rng(3)
    raw = rng.normal(size=reg.dims) + 1j * rng.normal(size=reg.dims)
    reg.amps = raw / np.linalg.norm(raw)
    with pytest.raises(ValueError, match="charge"):
        charge_syndromes(reg, g, cell)
    with pytest.raises(ValueError, match="flux"):
        flux_syndromes(reg, g, cell)


def test_syndromes_read_trivial_labels_off_the_double():
    g, cell = CAT["Z3"], theta_sphere()
    tr = prepare_abelian_double(g, cell, KwMode.sample(4), with_oracle=False)
    assert charge_syndromes(tr.register, g, cell) == {v: 0 for v in range(cell.n_vertices)}
    assert flux_syndromes(tr.register, g, cell) == {p: 0 for p in range(cell.n_plaquettes)}
