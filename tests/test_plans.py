"""Content-keyed plan caches: keys, read-only tables, bounds, and reuse.

Every table that depends only on (group or factor system, cell, register
layout, site ids) is built once and shared by every seed. These tests pin
that equal content shares one entry, that cached arrays cannot be written,
that every cache is bounded, that a warm plan reports the same bytes as a
cold one, and that a second seed rebuilds no plan. Every run, one seed or
many, is one run plan: the oracle and the start register are built once, every
stack of seeds branches from that read-only register and runs each
vertex-route round as one kw_abelian or kw_n_in_g call, and a stack of seeds
stays on its support from its first measurement to its transcripts.
"""

import dataclasses
import hashlib
import json
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit import cli, groups, kwmaps, protocols, register, verify
from gaugekit.cellulation import hexagon_torus, square_torus, tetrahedron_sphere, theta_sphere
from gaugekit.groups import catalog, catalog_factor_system
from gaugekit.register import QuditRegister, SiteSpec, init_plus
import reference

CAT = catalog()

# the plans built from (group or factor system, cell, layout, site ids)
PLANS = (
    verify._stabilizer_diagonals,
    register._gated_rows,
)
PLAN_CACHES = PLANS + (
    groups.irrep_table,
    groups.character_table,
    groups._coordinates,
    protocols._chain_of,
    register._fourier_matrix,
)


def _clear_plans():
    for cache in PLANS:
        cache.cache_clear()


def _split_register(fs, n_vertices):
    return init_plus(
        [SiteSpec((part, v), "vertex", grp) for v in range(n_vertices) for part, grp in [("n", fs.n_group), ("q", fs.q_group)]]
    )


def test_every_plan_cache_is_bounded():
    for cache in PLAN_CACHES:
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 64, cache


def test_equal_factor_systems_share_one_entry_and_distinct_ones_do_not(tmp_path):
    built = catalog_factor_system("D4")
    doc = {"name": "D4", "extension": {"n": "Z2", "q": "Z2xZ2", "sigma": built.sigma.tolist(), "omega": built.omega.tolist()}}
    path = tmp_path / "d4.json"
    path.write_text(json.dumps(doc))
    loaded = cli.parse_factor_system_spec(str(path))
    q8 = catalog_factor_system("Q8")
    assert loaded is not built and loaded == built and hash(loaded) == hash(built)
    assert q8 != built and built != built.parent

    _clear_plans()
    cell = hexagon_torus()
    ctrl = tuple((s.sid, s.dim) for s in _split_register(built, cell.n_vertices).sites)
    new = tuple((("e", e), built.n_group.order) for e in range(cell.n_edges))

    def rows(fs):
        gates = kwmaps._wall_gates(fs, cell, lambda v: ("n", v), lambda e: ("e", e), lambda v: ("q", v))
        return register._gated_rows(ctrl, new, register._GateList(gates))

    shared = rows(built)
    assert rows(loaded) is shared
    assert register._gated_rows.cache_info()[:2] == (1, 1)
    assert not np.array_equal(rows(q8), shared)
    assert register._gated_rows.cache_info().currsize == 2


def _assert_read_only(array):
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array.reshape(-1)[0] = array.reshape(-1)[0]


def test_cached_tables_reject_writes():
    d4, cell = CAT["D4"], hexagon_torus()
    fs = catalog_factor_system("D4")
    edges = [SiteSpec(("e", e), "edge", d4) for e in range(cell.n_edges)]
    edge_ids = tuple(s.sid for s in edges)
    terms = verify._stabilizer_diagonals(d4, cell, edge_ids)
    assert terms.plaquettes and terms.loops
    for op in terms.diagonals:
        _assert_read_only(op.diag)
    for array in (terms.vertex_edges, terms.vertex_moves, terms.weights, terms.offsets, terms.table):
        _assert_read_only(array)

    split = _split_register(fs, 2)
    gates = kwmaps._wall_gates(fs, cell, lambda v: ("n", v), lambda e: ("e", e), lambda v: ("q", v))
    ctrl = tuple((s.sid, s.dim) for s in split.sites)
    new = tuple((("e", e), fs.n_group.order) for e in range(cell.n_edges))
    _assert_read_only(register._gated_rows(ctrl, new, register._GateList(gates)))


def test_cold_and_warm_reports_are_byte_identical():
    d4, cell = CAT["D4"], hexagon_torus()
    transcript = protocols.prepare_solvable_double(d4, cell, kwmaps.KwMode.sample(5))
    verify._stabilizer_diagonals.cache_clear()
    cold = verify.stabilizer_report(transcript.register, d4, cell).to_json()
    assert verify._stabilizer_diagonals.cache_info()[:2] == (0, 1)
    warm = verify.stabilizer_report(transcript.register, d4, cell).to_json()
    assert verify._stabilizer_diagonals.cache_info()[:2] == (1, 1)
    assert warm == cold


def test_diagonals_are_shared_across_layouts():
    d4, cell = CAT["D4"], hexagon_torus()
    specs = [SiteSpec(("e", e), "edge", d4) for e in range(cell.n_edges)]
    rng = np.random.default_rng(4)
    amps = rng.normal(size=(d4.order,) * cell.n_edges) + 1j * rng.normal(size=(d4.order,) * cell.n_edges)
    # the same state stored in either edge order, with the dense sweep's
    # values read before the counted window, since it reads the cache too
    regs = [
        QuditRegister(order, amps.transpose([specs.index(s) for s in order]) / np.linalg.norm(amps))
        for order in (specs, specs[::-1])
    ]
    expected = [reference.dense_stabilizer_report(reg, d4, cell).vertex_expectations for reg in regs]
    _clear_plans()
    for reg, vexp in zip(regs, expected):
        report = verify.stabilizer_report(reg, d4, cell)
        assert report.vertex_expectations == vexp
    assert verify._stabilizer_diagonals.cache_info()[:2] == (1, 1)


def test_to_dict_is_the_json_record():
    d4, cell = CAT["D4"], hexagon_torus()
    transcript = protocols.prepare_solvable_double(d4, cell, kwmaps.KwMode.sample(6))
    report = verify.stabilizer_report(transcript.register, d4, cell)
    for record in (transcript, report):
        assert json.dumps(record.to_dict(), sort_keys=True, indent=2) == record.to_json()
        assert json.loads(record.to_json()) == record.to_dict()


# --- the plan against the stabilizer builders, op by op


CELLS = (hexagon_torus, theta_sphere, tetrahedron_sphere, lambda: square_torus(2, 2))


@st.composite
def edge_registers(draw):
    """A random edge state on a random (group, cell) with its edges stored in
    shuffled order, optionally renamed and with up to two spectator sites of
    another dimension interleaved among them."""
    cell = draw(st.sampled_from(CELLS))()
    fitting = [name for name in ("Z2", "Z3", "S3", "D4") if CAT[name].order ** cell.n_edges <= 6561]
    group = CAT[draw(st.sampled_from(fitting))]
    renamed = draw(st.booleans())
    edge_of = (lambda e: ("w", e, "x")) if renamed else register._edge_site
    specs = [SiteSpec(edge_of(e), "edge", group) for e in draw(st.permutations(range(cell.n_edges)))]
    other = CAT["Z3"] if group.order == 2 else CAT["Z2"]
    for k in range(draw(st.integers(0, 2))):
        specs.insert(draw(st.integers(0, len(specs))), SiteSpec(("spectator", k), "edge", other))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = tuple(s.dim for s in specs)
    amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    # symmetrize under inverting every edge label so loop values stay real
    flipped = amps
    for axis, spec in enumerate(specs):
        if spec.sid[0] != "spectator":
            flipped = np.take(flipped, group.inv, axis=axis)
    amps = amps + flipped
    return QuditRegister(specs, amps / np.linalg.norm(amps)), group, cell, edge_of


@settings(max_examples=40, deadline=None, derandomize=True)
@given(edge_registers())
def test_plan_report_matches_the_stabilizer_builders_bitwise(case):
    """The report's vertex sweep on the support equals the dense sweep over
    every amplitude bitwise, and its diagonals the broadcast expectations of
    the stabilizer builders."""
    reg, group, cell, edge_of = case
    before = reg.amps.copy()
    report = verify.stabilizer_report(reg, group, cell, edge_of)
    vexp = reference.dense_stabilizer_report(reg, group, cell, edge_of).vertex_expectations
    pexp = {
        p: verify._real(reg.expectation(verify.plaquette_stabilizer(group, cell, p, edge_of)), "B")
        for p in range(cell.n_plaquettes)
    }
    loops = {
        irrep.label: {
            p: verify._real(reg.expectation(verify.loop_z(irrep, walk, cell, edge_of)), "loop")
            for p, walk in enumerate(cell.plaquettes)
        }
        for irrep in groups.irrep_table(group).irreps
    }
    assert report.vertex_expectations == vexp
    assert report.plaquette_expectations == pexp
    assert report.loop_values == loops
    assert np.array_equal(reg.amps, before)


# --- a second run reuses every plan; the wall gates are rebuilt per run and
# round, only the label push they drive is cached across runs


def _count_calls(monkeypatch, calls, module, name):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("group", ["S4", "D4"])
def test_a_second_seed_rebuilds_no_plan(monkeypatch, group):
    calls = Counter()
    for module, name in [
        (verify, "loop_z"),
        (verify, "plaquette_stabilizer"),
        (register, "_push_labels"),
    ]:
        _count_calls(monkeypatch, calls, module, name)
    config = cli.RunConfig(command="prepare", group=group, cell="hexagon", protocol="solvable", mode="sample:11")
    _clear_plans()
    first, _ = cli.cmd_prepare(config)
    # the wrappers see the cold build: every table is made on the first seed
    expected = {"plaquette_stabilizer", "_push_labels"}
    assert set(calls) == expected | ({"loop_z"} if group == "D4" else set())
    misses = [cache.cache_info().misses for cache in PLANS]

    calls.clear()
    second, _ = cli.cmd_prepare(dataclasses.replace(config, mode="sample:12"))
    assert calls == Counter()
    assert [cache.cache_info().misses for cache in PLANS] == misses
    assert second["runs"][0]["seed"] == 12 and first["runs"][0]["seed"] == 11


# --- one run plan per cmd_prepare: the start register is built once and the
# seeds run from it in lockstep, as one stack


def _recorded_calls(monkeypatch, calls, module, name, record=lambda args: None):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((name, record(args)))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "group,protocol,walls,later_probes",
    [("S4", "solvable", 3, 2), ("S3", "metabelian", 2, 1), ("D4", "nil2", 0, 0)],
)
def test_a_run_builds_its_prefix_once_for_all_seeds(monkeypatch, group, protocol, walls, later_probes):
    calls = []
    _recorded_calls(monkeypatch, calls, protocols, "kw_exact_g")
    _recorded_calls(monkeypatch, calls, protocols, "_nil2_circuit")
    _recorded_calls(monkeypatch, calls, kwmaps, "_wall_gates")
    # the first vertex site a symmetry probe reads names its round
    _recorded_calls(monkeypatch, calls, kwmaps, "_require_symmetric", lambda args: args[2][0][0])
    _recorded_calls(monkeypatch, calls, register.QuditRegister, "copy")
    _recorded_calls(monkeypatch, calls, register.QuditRegister, "measure_fourier")
    config = cli.RunConfig(command="prepare", group=group, cell="hexagon", protocol=protocol, mode="sample:3", seeds=4)
    payload, _ = cli.cmd_prepare(config)
    assert [run["seed"] for run in payload["runs"]] == [3, 4, 5, 6]

    names = Counter(name for name, _ in calls)
    assert names["kw_exact_g"] == 1
    assert names["_nil2_circuit"] == (protocol == "nil2")
    assert names["_wall_gates"] == walls
    assert names["copy"] == 0
    # the four seeds are one stack: each round's symmetry probe runs once for
    # all of them, and each site is measured once for all of them
    probes = Counter(site for name, site in calls if name == "_require_symmetric")
    if protocol == "nil2":
        assert probes == Counter()
    else:
        assert probes.pop(("v", 0, 1, "n")) == 1
        assert sum(probes.values()) == later_probes
    calls.clear()
    protocols.plan_run(protocol, _subject(protocol, group), hexagon_torus()).branch(kwmaps.KwMode.sample(3))
    assert Counter(name for name, _ in calls)["measure_fourier"] == names["measure_fourier"] > 0


def test_a_one_seed_abelian_run_copies_no_register(monkeypatch):
    calls = []
    _recorded_calls(monkeypatch, calls, register.QuditRegister, "copy")
    # one seed is a stack of one, whose round is one public round map call
    _recorded_calls(monkeypatch, calls, protocols, "kw_abelian")
    config = cli.RunConfig(command="prepare", group="Z2", cell="square:3x2", protocol="abelian", mode="sample:1")
    cli.cmd_prepare(config)
    assert [name for name, _ in calls] == ["kw_abelian"]


# every protocol in the four kinds of run: the CLI default, one sampled seed,
# one 4-seed stack, and a forced outcome table
ONE_PATH_GROUPS = {"abelian": "Z3", "metabelian": "S3", "solvable": "S4", "nil2": "D4"}
ONE_PATH_ROUNDS = {
    "abelian": ["kw_abelian"],
    "metabelian": ["kw_n_in_g", "kw_abelian"],
    "solvable": ["kw_n_in_g", "kw_n_in_g", "kw_abelian"],
    "nil2": [],
}
ONE_PATH_MODES = {
    "postselect": {},
    "sample": {"mode": "sample:5"},
    "4-seeds": {"mode": "sample:5", "seeds": 4},
    "forced": {"mode": "forced:{path}"},
}


@pytest.mark.parametrize("mode", ONE_PATH_MODES)
@pytest.mark.parametrize("protocol", ONE_PATH_ROUNDS)
def test_every_vertex_route_round_of_every_stack_is_one_public_round_call(monkeypatch, tmp_path, protocol, mode):
    """cmd_prepare runs one plan, and each vertex-route round of its stack
    is exactly one kw_n_in_g or kw_abelian call on the whole stack, which
    probes, allocates and measures once; nil2 makes none. A one-seed report
    is the plan's own branch, bitwise."""
    path = tmp_path / "forced.json"
    path.write_text(json.dumps({"1": 0}))
    options = {k: v.format(path=path) if k == "mode" else v for k, v in ONE_PATH_MODES[mode].items()}
    config = cli.RunConfig(command="prepare", group=ONE_PATH_GROUPS[protocol], cell="hexagon", protocol=protocol, **options)
    calls, steps = [], Counter()
    _recorded_calls(monkeypatch, calls, cli, "plan_run")
    for name in ("kw_abelian", "kw_n_in_g"):
        _recorded_calls(monkeypatch, calls, protocols, name, lambda args: args[0].seeds)
    for name in ("_require_symmetric", "_wall_gates", "_measure_sites"):
        _count_calls(monkeypatch, steps, kwmaps, name)
    payload, _ = cli.cmd_prepare(config)
    monkeypatch.undo()

    seeds = config.seeds
    assert calls == [("plan_run", None)] + [(name, seeds) for name in ONE_PATH_ROUNDS[protocol]]
    rounds = len(ONE_PATH_ROUNDS[protocol])
    assert steps == Counter(dict.fromkeys(("_require_symmetric", "_wall_gates", "_measure_sites"), rounds))
    if seeds == 1:
        subject = _subject(protocol, config.group)
        transcript = protocols.plan_run(protocol, subject, hexagon_torus()).branch(cli.parse_mode_spec(config.mode))
        report = verify.stabilizer_report(transcript.register, groups.catalog()[config.group], hexagon_torus())
        entry = payload["runs"][0]
        assert _entry_bytes(entry["transcript"]) == _entry_bytes(transcript.to_dict())
        assert _entry_bytes(entry["verification"]) == _entry_bytes(report.to_dict())


def test_each_stack_probes_once_per_round_with_the_bytes_of_one_stack(monkeypatch):
    """Four S3 metabelian seeds at a budget of two seeds' worth run as two
    stacks of two, and each stack runs each of its two rounds' symmetry
    probes once, for both of its seeds; the report has the bytes of the
    one-stack run."""
    config = cli.RunConfig(command="prepare", group="S3", cell="hexagon", protocol="metabelian", mode="sample:9", seeds=4)
    whole, _ = cli.cmd_prepare(config)
    probes = []
    _recorded_calls(monkeypatch, probes, kwmaps, "_require_symmetric", lambda args: (args[0].seeds, args[2][0][0]))
    monkeypatch.setattr(register, "AMPLITUDE_BUDGET", 2 * 972)
    split, _ = cli.cmd_prepare(config)
    first, second = ("_require_symmetric", (2, ("v", 0, 1, "n"))), ("_require_symmetric", (2, ("v", 0, 1, "q")))
    assert probes == [first, second, first, second]
    assert _entry_bytes(split) == _entry_bytes(whole)


def test_a_vertex_route_start_writes_no_dense_array(monkeypatch):
    """An S4 input held in support form, the orbit of one vertex labelling
    under the global left action (24 of 576 amplitudes): the start counts
    the rounds' registers from the layout (_require_rounds_fit) and splits
    the vertices on the support, so without the oracle it writes no dense
    array, and gauge_input_state leaves its input as it was given."""
    s4, cell = CAT["S4"], hexagon_torus()
    reg = init_plus([SiteSpec(register._vertex_site(v), "vertex", s4) for v in range(cell.n_vertices)])
    orbit = np.zeros(reg.dims, dtype=np.complex128)
    orbit[np.arange(24), s4.mult[np.arange(24), 5]] = 24**-0.5
    reg.amps = orbit
    flat, values = reg._positions()
    written = _spy_dense_writes(monkeypatch)
    protocols._derived_series_start(reg.fork(), s4, cell, with_oracle=False)
    assert written == []
    transcript = protocols.gauge_input_state(reg, s4, cell, kwmaps.KwMode.sample(2), with_oracle=False)
    assert transcript.fidelity_vs_oracle is None and transcript.register.layout != reg.layout
    assert reg._support[0] is flat and reg._support[1] is values and not reg.retired
    assert reg.layout == tuple((register._vertex_site(v), 24) for v in range(cell.n_vertices))


def _prefix_arrays(plan):
    """The prefix's arrays in the form it holds: its support positions and
    values, or its dense amplitudes."""
    prefix = plan.prefix
    return prefix._support if prefix._support is not None else (prefix._amps,)


def _prefix_digest(plan):
    """The digest of the prefix's arrays, read without moving the prefix to
    the other form, so that the seeds still fork it as it was."""
    return hashlib.sha256(b"".join(a.tobytes() for a in _prefix_arrays(plan))).hexdigest()


def _entry_bytes(entry):
    return json.dumps(entry, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "group,protocol",
    [("Z3", "abelian"), ("S3", "metabelian"), ("D4", "nil2"), ("S4", "solvable")],
)
def test_every_seed_of_a_plan_matches_its_own_one_seed_run(monkeypatch, group, protocol):
    plans = []
    build = cli.plan_run

    def recorded(*args, **kwargs):
        plan = build(*args, **kwargs)
        plans.append((plan, _prefix_digest(plan)))
        return plan

    monkeypatch.setattr(cli, "plan_run", recorded)
    config = cli.RunConfig(command="prepare", group=group, cell="hexagon", protocol=protocol, mode="sample:21", seeds=3)
    payload, _ = cli.cmd_prepare(config)
    [(plan, digest)] = plans
    assert not any(array.flags.writeable for array in _prefix_arrays(plan))
    assert _prefix_digest(plan) == digest

    assert [run["seed"] for run in payload["runs"]] == [21, 22, 23]
    for run in payload["runs"]:
        plans.clear()
        single, _ = cli.cmd_prepare(dataclasses.replace(config, seeds=1, mode=f"sample:{run['seed']}"))
        # one seed is a run plan too, one per call
        assert len(plans) == 1
        assert _entry_bytes(run) == _entry_bytes(single["runs"][0])


@pytest.mark.parametrize(
    "group,protocol,size", [("S4", "solvable", 576), ("D4", "nil2", 256)]
)
def test_every_seed_forks_the_prefix_in_support_form(monkeypatch, group, protocol, size):
    """The prefix keeps the form its start left it in, read-only: the S4
    solvable start (the split plus state, 576 amplitudes) dense, the D4 nil2
    coupling circuit in support form (256 positions of 16,384). Each seed's
    first measurement reads a support form: the prefix's own positions for
    nil2, and for S4 the positions the stack's round-1 gated allocation
    writes (of 36,864 amplitudes). Each transcript and its register are
    bitwise those of seeds forked from the same prefix moved to the other
    form first: for nil2 densified, so that the first measurement scans the
    dense array, for S4 in support form, so that the round-1 symmetry probe
    and allocation read positions."""
    subject = catalog_factor_system(group) if protocol == "nil2" else CAT[group]
    plan, other = (protocols.plan_run(protocol, subject, hexagon_torus()) for _ in range(2))
    arrays = _prefix_arrays(plan)
    assert arrays[0].size == size and not any(array.flags.writeable for array in arrays)
    if protocol == "nil2":
        assert not other.prefix.amps.flags.writeable and other.prefix._support is None
    else:
        assert plan.prefix._support is None
        other.prefix._positions()
        other.prefix.freeze()
    first_reads = []
    live_block = QuditRegister._live_block

    def recorded(reg, *args):
        if not reg.retired:
            first_reads.append(reg._support is not None)
        return live_block(reg, *args)

    monkeypatch.setattr(QuditRegister, "_live_block", recorded)
    for seed in range(3):
        mode = kwmaps.KwMode.sample(seed)
        got, want = plan.branch(mode), other.branch(mode)
        assert got.to_json() == want.to_json()
        assert got.register.layout == want.register.layout
        assert got.register.amps.tobytes() == want.register.amps.tobytes()
    assert first_reads == [True, protocol != "nil2"] * 3
    assert all(a is b for a, b in zip(_prefix_arrays(plan), arrays))


def test_threads_branching_from_one_prefix_match_a_serial_run():
    plan = protocols.plan_run("metabelian", catalog_factor_system("S3"), hexagon_torus())
    digest = _prefix_digest(plan)
    modes = [kwmaps.KwMode.sample(seed) for seed in range(16)]
    serial = [plan.branch(mode).to_json() for mode in modes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda mode=mode: plan.branch(mode).to_json()) for mode in modes]
            threaded = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert _prefix_digest(plan) == digest


# --- after the first measurement a stack stays on its support


def _spy_dense_writes(monkeypatch):
    """The registers a dense array is written for from here on while they
    hold the support form or have retired a site: a scatter of the support
    form (_dense) or a store of amplitudes (amps)."""
    written = []
    amps, dense = QuditRegister.amps, QuditRegister._dense

    def set_amps(reg, value):
        if getattr(reg, "retired", None) or getattr(reg, "_support", None) is not None:
            written.append(reg)
        amps.fset(reg, value)

    def densify(reg):
        if reg._support is not None:
            written.append(reg)
        return dense(reg)

    monkeypatch.setattr(QuditRegister, "amps", property(amps.fget, set_amps))
    monkeypatch.setattr(QuditRegister, "_dense", densify)
    return written


@pytest.mark.parametrize("group, protocol", [("S4", "solvable"), ("D4", "nil2")])
def test_a_stacked_run_writes_no_dense_array_after_its_first_measurement(monkeypatch, group, protocol):
    """Every step of a 4-seed stack from its frozen prefix to its scored
    transcripts (measurements, corrections, symmetry probes, gated
    allocations, vertex splits, edge merges, relabelings and the fidelity,
    which reads the oracle at the seed's positions) keeps the support form:
    no dense array is written at all."""
    plan = protocols.plan_run(protocol, _subject(protocol, group), hexagon_torus())
    written = _spy_dense_writes(monkeypatch)
    transcripts = list(plan.run([kwmaps.KwMode.sample(seed) for seed in range(4)]))
    assert written == []
    assert all(t.register._support is not None and t.fidelity_vs_oracle is not None for t in transcripts)


@pytest.mark.parametrize(
    "prepare, group, make_cell",
    [
        (protocols.prepare_solvable_double, "S4", hexagon_torus),
        (protocols.prepare_abelian_double, "Z3", lambda: square_torus(2, 2)),
    ],
    ids=["S4-solvable-hexagon", "Z3-abelian-square"],
)
def test_a_one_seed_postselected_run_writes_no_dense_array(monkeypatch, prepare, group, make_cell):
    """The CLI's default traffic, one postselected seed through the protocol's
    entry point, oracle included: after the first gated allocation every
    measurement reads live columns at forced outcome 0 and every later step
    keeps the support form, so no dense array is written for a register
    that held it."""
    written = _spy_dense_writes(monkeypatch)
    transcript = prepare(catalog()[group], make_cell(), kwmaps.KwMode.postselect())
    assert written == []
    assert transcript.register._support is not None
    assert abs(transcript.fidelity_vs_oracle - 1) < 1e-12


# whole CLI runs with stabilizers and oracle on: two 4-seed stacks and the
# CLI's default, one postselected seed
CLI_RUNS = {
    "S4-solvable-4-seeds": dict(group="S4", cell="hexagon", protocol="solvable", mode="sample:3", seeds=4),
    "D4-nil2-4-seeds": dict(group="D4", cell="hexagon", protocol="nil2", mode="sample:3", seeds=4),
    "S4-solvable-postselect": dict(group="S4", cell="hexagon", protocol="solvable"),
    "Z3-abelian-square-postselect": dict(group="Z3", cell="square:2x2", protocol="abelian"),
}


@pytest.mark.parametrize("run", CLI_RUNS.values(), ids=CLI_RUNS.keys())
def test_a_cli_prepare_with_stabilizers_writes_no_dense_array(monkeypatch, run):
    """cmd_prepare from its plan to its report: the stabilizer report reads
    each seed's support form where the run left it, gathering its vertex
    sources by searchsorted on the positions, so no dense array is written
    for a register that held the support form."""
    written = _spy_dense_writes(monkeypatch)
    payload, _ = cli.cmd_prepare(cli.RunConfig(command="prepare", **run))
    assert written == []
    assert len(payload["runs"]) == run.get("seeds", 1)
    assert all("verification" in entry and "fidelity_vs_oracle" in entry["transcript"] for entry in payload["runs"])


def test_the_report_runs_once_per_stack_with_the_bytes_of_one_stack(monkeypatch):
    """Four S3 metabelian seeds on the hexagon torus are one stack, and their
    stabilizers one report call; at a budget of two seeds' worth they run as
    two stacks, reported once each, with the same bytes."""
    config = cli.RunConfig(command="prepare", group="S3", cell="hexagon", protocol="metabelian", mode="sample:9", seeds=4)
    calls = []
    reports = cli.stabilizer_reports
    monkeypatch.setattr(cli, "stabilizer_reports", lambda regs, *args: calls.append(len(regs)) or reports(regs, *args))
    whole, _ = cli.cmd_prepare(config)
    assert calls == [4]
    calls.clear()
    monkeypatch.setattr(register, "AMPLITUDE_BUDGET", 2 * 972)
    split, _ = cli.cmd_prepare(config)
    assert calls == [2, 2]
    assert _entry_bytes(split) == _entry_bytes(whole)
    calls.clear()
    one, _ = cli.cmd_prepare(dataclasses.replace(config, seeds=1))
    assert calls == [1]
    assert _entry_bytes(one["runs"]) == _entry_bytes(whole["runs"][:1])


def test_the_last_corrections_and_the_edge_reassembly_hold_a_sliver_of_the_dense_stack(monkeypatch):
    """tracemalloc over the 4-seed S4 stack's last correction layer and
    _reassemble_edges: the stack is 4 x 13,824 = 55,296 amplitudes (884,736
    bytes dense) with 96 nonzero. On the support form the two steps peak at
    0.019-0.020 of the dense stack (17.1-17.7 kB over five runs); the dense
    paths they replaced held 2.0-2.15 of it, each correction, merge and
    relabeling writing a copy. The bound, 0.05, is 2.5x the measured value."""
    plan = protocols.plan_run("solvable", CAT["S4"], hexagon_torus(), with_oracle=False)
    assert plan.seeds == 4
    corrections, reassemble = kwmaps._apply_corrections, protocols._reassemble_edges
    layers, peaks = [], []

    def traced_corrections(reg, plans, gate_of):
        layers.append(reg)
        if len(layers) == 3:  # the abelian round, the last of the three
            tracemalloc.start()
        return corrections(reg, plans, gate_of)

    def traced_reassembly(reg, cell, systems):
        try:
            reassemble(reg, cell, systems)
            peaks.append((tracemalloc.get_traced_memory()[1], reg.dims, reg._support[0].size))
        finally:
            tracemalloc.stop()

    modes = [kwmaps.KwMode.sample(seed) for seed in range(4)]
    list(plan.run(modes))  # the gate caches fill on a first run
    monkeypatch.setattr(kwmaps, "_apply_corrections", traced_corrections)
    monkeypatch.setattr(protocols, "_reassemble_edges", traced_reassembly)
    list(plan.run(modes))
    [(peak, dims, support)] = peaks
    assert (int(np.prod(dims)), support) == (55_296, 96)
    assert peak < 0.05 * 55_296 * 16


# --- the register budget, checked before the oracle

# each run's round 2 is over the register budget; its oracle (8^8 and 6^8
# amplitudes) is not, and enumerating it took 0.5 s and 380 MB for D4
OVER_BUDGET = {
    "D4 solvable": ("solvable", "D4", 4_294_967_296),
    "S3 metabelian": ("metabelian", "S3", 26_873_856),
}


def _subject(protocol, group):
    return catalog_factor_system(group) if protocol in ("metabelian", "nil2") else catalog()[group]


def _forbid_the_oracle(monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle was enumerated for a run the register budget rejects")

    monkeypatch.setattr(protocols, "kw_exact_g", no_oracle)


@pytest.mark.parametrize("protocol, group, size", OVER_BUDGET.values(), ids=OVER_BUDGET.keys())
def test_a_run_over_the_register_budget_is_rejected_before_its_oracle(monkeypatch, capsys, protocol, group, size):
    message = f"register of {size} amplitudes exceeds the dense register budget 20000000"
    _forbid_the_oracle(monkeypatch)
    with pytest.raises(ValueError, match=f"^{message}$"):
        protocols.plan_run(protocol, _subject(protocol, group), square_torus(2, 2))
    for extra in ([], ["--mode", "sample:3", "--seeds", "2"]):
        argv = ["prepare", "--group", group, "--cell", "square:2x2", "--protocol", protocol] + extra
        assert cli.main(argv) == 1
        assert json.loads(capsys.readouterr().out)["error"] == {"type": "precondition", "message": message}


def test_a_run_splits_its_seeds_into_stacks_that_fit_the_budget_with_the_same_bytes(monkeypatch):
    """S3 metabelian on the hexagon torus builds at most 972 amplitudes per
    seed and holds at most 216 dense, so five seeds run as stacks of 4 and
    1; at a budget of two seeds' worth they run as stacks of 2, 2 and 1, and
    report the same bytes."""
    config = cli.RunConfig(command="prepare", group="S3", cell="hexagon", protocol="metabelian", mode="sample:9", seeds=5)
    stacks = []
    stack = QuditRegister.stack

    def recorded(reg, n):
        stacks.append(n)
        return stack(reg, n)

    monkeypatch.setattr(QuditRegister, "stack", recorded)
    whole, _ = cli.cmd_prepare(config)
    assert stacks == [4, 1]
    stacks.clear()
    monkeypatch.setattr(register, "AMPLITUDE_BUDGET", 2 * 972)
    split, _ = cli.cmd_prepare(config)
    assert stacks == [2, 2, 1]
    assert _entry_bytes(split) == _entry_bytes(whole)
    monkeypatch.setattr(register, "AMPLITUDE_BUDGET", 971)
    with pytest.raises(ValueError, match="^register of 972 amplitudes exceeds the dense register budget 971$"):
        cli.cmd_prepare(config)


@pytest.mark.parametrize("protocol, group, seeds", [("solvable", "D4", 16), ("nil2", "D4", 32)])
def test_the_memory_a_run_holds_does_not_grow_with_its_seed_count(protocol, group, seeds):
    """A stack's dense arrays hold no more than one seed's largest register
    (register._seeds_within_budget), and each stack runs once the last
    one's transcripts are taken: a run of eight stacks' worth of seeds
    reaches about the traced peak of a run of two."""
    plan = protocols.plan_run(protocol, _subject(protocol, group), hexagon_torus(), with_oracle=False)
    assert plan.seeds == seeds

    def traced_peak(n):
        modes = [kwmaps.KwMode.sample(s) for s in range(n)]
        tracemalloc.start()
        try:
            for _ in plan.run(modes):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(seeds)  # the gate caches fill on a first run
    assert traced_peak(8 * seeds) < 1.25 * traced_peak(2 * seeds)


@pytest.mark.parametrize(
    "protocol, group", [("abelian", "Z3"), ("metabelian", "S3"), ("solvable", "D4"), ("solvable", "S4")]
)
def test_the_early_budget_check_predicts_the_largest_round_exactly(monkeypatch, protocol, group):
    """With the budget at the largest register a run builds, the run fits;
    one amplitude less, it is rejected naming that register, before the
    oracle."""
    sizes = []
    add_sites = QuditRegister.add_sites

    def recorded(reg, *args, **kwargs):
        add_sites(reg, *args, **kwargs)
        sizes.append(reg.amps.size)

    with monkeypatch.context() as patch:
        patch.setattr(QuditRegister, "add_sites", recorded)
        protocols.plan_run(protocol, _subject(protocol, group), hexagon_torus()).branch(kwmaps.KwMode.sample(5))
    peak = max(sizes)
    monkeypatch.setattr(register, "AMPLITUDE_BUDGET", peak)
    protocols.plan_run(protocol, _subject(protocol, group), hexagon_torus()).branch(kwmaps.KwMode.sample(5))
    monkeypatch.setattr(register, "AMPLITUDE_BUDGET", peak - 1)
    _forbid_the_oracle(monkeypatch)
    with pytest.raises(ValueError, match=f"^register of {peak} amplitudes exceeds the dense register budget {peak - 1}$"):
        protocols.plan_run(protocol, _subject(protocol, group), hexagon_torus())
