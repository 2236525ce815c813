"""A stack of seeds against the same seeds run one at a time, bitwise.

A run plan runs its seeds in lockstep as one register whose leading site
labels the seed. The stack comes into being at the run's first
measurement: a register of one seed measured with one generator or forced
outcome per seed fans out (QuditRegister.measure_fourier). These tests pin
what that rests on: one measurement of a stack gives each seed the outcome,
retired probability, generator state, error and amplitudes of a
measurement of that seed alone; a fan-out gives what stacking copies of the
register first and measuring the stack gives (tests/reference.py, stack);
the broadcast diagonal a correction gate applies equals the equal-shape
elementwise product, with or without a seed site, and an identity row
leaves its seed untouched; a fan-out reads back as its register measured;
and the edge reassembly, one register step, gives the bits of the
reference's merge-and-relabel loop.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit import protocols, register
from gaugekit.cellulation import hexagon_torus
from gaugekit.groups import FiniteGroup, build_cyclic, catalog, catalog_factor_system
from gaugekit.kwmaps import _seed_gate
from gaugekit.register import SEED_SITE, DiagonalOperator, LocalOperator, QuditRegister, SiteSpec, init_plus
from reference import pairwise_edge_reassembly, stack
from test_support import DENSITIES, _amplitudes, _outcome

CAT = catalog()


def _generator(seed):
    return np.random.Generator(np.random.Philox(seed))


def _plain(state):
    """A generator state with its arrays as lists, comparable with ==."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@st.composite
def seed_stacks(draw):
    """One to four seeds over one layout: up to nine spectator sites of
    dimensions 1 to 6, at most 20,000 labels in all, around a measured cyclic
    or Z2xZ2 site, so a row of the measured block runs past numpy's
    8,192-entry iterator buffer in some cases. Each seed has its own density
    (1%, 50%, 100% or the zero state), its own normalization and its own
    outcome or generator seed. The seeds are held as separate registers and
    as one stack, both dense or both in support form."""
    dims = []
    for d in draw(st.lists(st.sampled_from([1, 2, 3, 4, 6]), max_size=9)):
        if np.prod(dims + [d]) <= 20_000:
            dims.append(d)
    spectators = [build_cyclic(d) for d in dims]
    at = draw(st.integers(0, len(spectators)))
    measured = draw(st.sampled_from([build_cyclic(2), build_cyclic(3), build_cyclic(4), CAT["Z2xZ2"]]))
    groups = spectators[:at] + [measured] + spectators[at:]
    sites = [SiteSpec(("s", k), "edge", g) for k, g in enumerate(groups)]
    dims = tuple(g.order for g in groups)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    raws = []
    for _ in range(n):
        raw = _amplitudes(rng, dims, draw(st.sampled_from(DENSITIES)), range(len(dims)))
        if draw(st.booleans()) and raw.any():
            raw = raw / np.linalg.norm(raw)
        raws.append(raw)
    seeds = [QuditRegister(sites, raw) for raw in raws]
    stack = QuditRegister([register._seed_spec(n)] + sites, np.stack(raws))
    if draw(st.booleans()):
        for reg in seeds + [stack]:
            reg._positions()
            reg.freeze()
    if draw(st.booleans()):
        forced = [draw(st.integers(0, measured.order - 1)) for _ in range(n)]
        kwargs = [{"forced": outcome} for outcome in forced], {"forced": forced}
    else:
        entropy = [draw(st.integers(0, 2**16)) for _ in range(n)]
        kwargs = [{"rng": _generator(e)} for e in entropy], {"rng": [_generator(e) for e in entropy]}
    return seeds, stack, ("s", at), kwargs, draw(st.sampled_from([register.LIVE_READ_MIN, 0, 64, 512]))


def _state(reg):
    return reg._support is not None, tuple(a.tobytes() for a in (reg._support or (reg._amps,)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed_stacks())
def test_one_measurement_of_a_stack_is_each_seed_measured_alone_bitwise(case):
    """Seeds measured one after another, stopping at the first that raises,
    against one measurement of their stack: the same outcomes, retired
    probabilities, generator states and error, a rejected stack left
    bitwise as it was, and each seed's branch bitwise the branch of the
    seed alone. The floor below which a measurement reads its whole block
    is drawn too, so the seeds and the stack read live columns or whole
    blocks, and weigh them as one einsum or row by row, on either side of
    it, not always the same way."""
    seeds, stack, sid, (alone, stacked), floor = case
    before = _state(stack)
    with mock.patch.object(register, "LIVE_READ_MIN", floor):
        want = []
        for reg, kwargs in zip(seeds, alone):
            want.append(_outcome(lambda: reg.measure_fourier(sid, **kwargs)))
            if want[-1][0] == "raised":
                break
        got = _outcome(lambda: stack.measure_fourier(sid, **stacked))
    if want[-1][0] == "raised":
        assert got == want[-1]
        assert _state(stack) == before and not stack.retired
    else:
        assert got == ("ok", [outcome for _, outcome in want])
        record = stack.retired[sid]
        assert [p.hex() for p in record.probabilities] == [reg.retired[sid].probability.hex() for reg in seeds]
        for s, reg in enumerate(seeds):
            one = stack.seed(s)
            assert one.layout == reg.layout and np.array_equal(one.amps, reg.amps)
            assert one.retired[sid].outcome == reg.retired[sid].outcome
    if "rng" in stacked:
        for kwargs, generator in zip(alone, stacked["rng"]):
            assert _plain(kwargs["rng"].bit_generator.state) == _plain(generator.bit_generator.state)


@st.composite
def fan_outs(draw):
    """One register over the layouts of seed_stacks, the state of a seed
    before its run's first measurement: a drawn density (the zero state
    included), sometimes constant along the measured site in every column
    (so that only outcome 0 has weight), sometimes normalized, dense or in
    support form and frozen, with the retired record of an earlier site.
    One to four seeds, each with its own forced outcome or generator seed,
    given twice: once for the fan-out and once for the reference stack."""
    dims = []
    for d in draw(st.lists(st.sampled_from([1, 2, 3, 4, 6]), max_size=9)):
        if np.prod(dims + [d]) <= 20_000:
            dims.append(d)
    spectators = [build_cyclic(d) for d in dims]
    at = draw(st.integers(0, len(spectators)))
    measured = draw(st.sampled_from([build_cyclic(2), build_cyclic(3), build_cyclic(4), CAT["Z2xZ2"]]))
    groups = spectators[:at] + [measured] + spectators[at:]
    sites = [SiteSpec(("s", k), "edge", g) for k, g in enumerate(groups)]
    dims = tuple(g.order for g in groups)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = _amplitudes(rng, dims, draw(st.sampled_from(DENSITIES)), range(len(dims)))
    if draw(st.booleans()):
        raw = np.repeat(np.take(raw, [0], axis=at), measured.order, axis=at)
    if draw(st.booleans()) and raw.any():
        raw = raw / np.linalg.norm(raw)
    reg = QuditRegister(sites, raw)
    reg.retired[("old",)] = register._Retired([1], [0.25])
    if draw(st.booleans()):
        reg._positions()
    reg.freeze()
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        forced = [draw(st.integers(0, measured.order - 1)) for _ in range(n)]
        kwargs = {"forced": forced}, {"forced": list(forced)}
    else:
        entropy = [draw(st.integers(0, 2**16)) for _ in range(n)]
        kwargs = tuple({"rng": [_generator(e) for e in entropy]} for _ in range(2))
    return reg, ("s", at), n, kwargs, draw(st.sampled_from([register.LIVE_READ_MIN, 0, 64, 512]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fan_outs())
def test_a_fan_out_is_the_reference_stack_measured_bitwise(case):
    """A register of one seed measured with one generator or forced outcome
    per seed against the reference stack of as many copies measured alike:
    the same outcomes or error, retired probabilities (hex), layout, form,
    support positions and values, and generator states; the fan-out repeats
    the earlier retired record for every seed, and a rejected one (a zero
    state, or a forced outcome of zero probability for any seed, the first
    or a later one) leaves the register bitwise as it was. The seeds of a
    fan-out share one block, so a sampled one is rejected before any seed
    draws; a later seed rejected after earlier ones drew is a stack's case,
    pinned through the generator states by the test above. The floor below
    which a measurement reads its whole block is drawn, so both sides of
    LIVE_READ_MIN are read, and the fan-out reads its one seed's block on
    the side the stack reads."""
    reg, sid, n, (fanned, stacked), floor = case
    before, ref = _state(reg), stack(reg, n)
    with mock.patch.object(register, "LIVE_READ_MIN", floor):
        want = _outcome(lambda: ref.measure_fourier(sid, **stacked))
        got = _outcome(lambda: reg.measure_fourier(sid, **fanned))
    assert got == want
    if got[0] == "raised":
        assert _state(reg) == before and list(reg.retired) == [("old",)] and reg.seeds == 1
    else:
        record, ref_record = reg.retired[sid], ref.retired[sid]
        assert record.outcomes == ref_record.outcomes
        assert [p.hex() for p in record.probabilities] == [p.hex() for p in ref_record.probabilities]
        assert reg.retired[("old",)] == register._Retired([1] * n, [0.25] * n)
        assert reg.layout == ref.layout and (reg._support is None) == (ref._support is None)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(reg._support_form(), ref._support_form()))
    if "rng" in fanned:
        for ours, theirs in zip(fanned["rng"], stacked["rng"]):
            assert _plain(ours.bit_generator.state) == _plain(theirs.bit_generator.state)


def test_a_fan_out_over_the_budget_is_rejected_before_it_rotates(monkeypatch):
    """AMPLITUDE_BUDGET applies to the stack a fan-out leaves, checked
    before the rotation: the register is left as it was."""
    reg = init_plus([SiteSpec("a", "edge", build_cyclic(3)), SiteSpec("b", "edge", build_cyclic(2))])
    before = _state(reg)
    monkeypatch.setattr(register, "AMPLITUDE_BUDGET", 8)
    rotated = mock.Mock(side_effect=AssertionError("rotated"))
    monkeypatch.setattr(register, "_rotated", rotated)
    message = "register of 9 amplitudes exceeds the dense register budget 8"
    assert _outcome(lambda: reg.measure_fourier("b", forced=[0, 0, 0])) == ("raised", message)
    assert _state(reg) == before and not reg.retired and reg.layout == (("a", 3), ("b", 2))


def test_a_stack_of_thousands_of_seeds_holds_only_their_amplitudes(monkeypatch):
    """The seed site is a label axis with no group: a measurement that fans
    one register out to 3,000 seeds builds no multiplication table for it,
    so the stack costs its positions and values."""

    def no_table(group):
        raise AssertionError(f"a {group.order}-element group table was built")

    z2 = build_cyclic(2)
    prefix = init_plus([SiteSpec("a", "edge", z2), SiteSpec("b", "edge", z2)])
    prefix._positions()
    prefix.freeze()
    one = prefix.fork()
    one.measure_fourier("b", forced=0)
    outcomes = [0] * 3000
    monkeypatch.setattr(FiniteGroup, "_validate", no_table)
    tracemalloc.start()
    try:
        fan = prefix.fork()
        fan.measure_fourier("b", forced=outcomes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fan.layout == ((SEED_SITE, 3000), ("a", 2)) and fan.seed(2999).layout == one.layout
    assert fan.seed(2999).amps.tobytes() == one.amps.tobytes()
    assert peak < 4 * 3000 * 2 * (16 + 8)


def test_a_stack_of_one_shares_its_prefix_and_more_seeds_read_back_as_it():
    """A stack of one, the fork of the frozen prefix that each stack of a run
    starts from, shares its support form or its read-only view of a dense array; the
    array the dense prefix was built on stays writable. A fan-out to three
    seeds reads back, seed by seed, as the prefix measured at the same
    outcome, and as the reference stack of the prefix measured."""
    rng = np.random.default_rng(3)
    sites = [SiteSpec(("s", k), "edge", build_cyclic(d)) for k, d in enumerate((3, 2, 4))]
    amps = rng.normal(size=(3, 2, 4)) * (rng.random((3, 2, 4)) < 0.3)
    amps[0, 0, 0] = 1.0
    dense = QuditRegister(sites, amps.astype(np.complex128))
    base = dense._amps
    dense.freeze()
    assert dense._support is None and not dense._amps.flags.writeable and base.flags.writeable
    one = dense.fork()
    assert not one.stacked and one.seeds == 1 and one.layout == dense.layout and one._amps is dense._amps
    prefix = QuditRegister(sites, amps)
    prefix._positions()
    prefix.freeze()
    one = prefix.fork()
    assert not one.stacked and one.seeds == 1 and one.layout == prefix.layout
    assert all(a is b for a, b in zip(one._support, prefix._support))
    three, reference = prefix.fork(), stack(prefix, 3)
    assert three.measure_fourier(("s", 1), forced=[0, 0, 0]) == reference.measure_fourier(("s", 1), forced=[0, 0, 0])
    one.measure_fourier(("s", 1), forced=0)
    assert three.seeds == 3 and three.layout == reference.layout
    assert three.amps.tobytes() == reference.amps.tobytes()
    for s in range(3):
        assert three.seed(s).layout == one.layout and three.seed(s).amps.tobytes() == one.amps.tobytes()
    assert prefix.seed(0) is prefix


def test_a_fork_sets_every_attribute_of_its_register():
    """fork sets the attributes one by one, not through the instance dict,
    so an attribute added to QuditRegister must be added there too: a fork
    of a dense or a support-form register has the same attribute names,
    shares the amplitude arrays and dims, and owns its site list, index and
    retired records."""
    sites = [SiteSpec(("s", k), "edge", build_cyclic(d)) for k, d in enumerate((3, 2))]
    for support in (False, True):
        reg = init_plus(sites)
        if support:
            reg._positions()
        out = reg.fork()
        assert sorted(vars(out)) == sorted(vars(reg))
        assert out._amps is reg._amps and out._support is reg._support and out.dims is reg.dims
        assert out.sites == reg.sites and out.sites is not reg.sites
        assert out._index == reg._index and out._index is not reg._index
        assert out.retired == {} and out.retired is not reg.retired


# --- the correction gates: a broadcast diagonal is the equal-shape product


@st.composite
def diagonal_cases(draw):
    """A random register, sometimes with a leading seed site of one to three
    labels, its sites of dimensions 1 to 4 (size-1 axes included), and a
    diagonal on one site, on three sites in a drawn order, or a seed gate:
    one row per seed over one or three sites, some rows exactly 1+0j."""
    dims = draw(st.lists(st.integers(1, 4), min_size=3, max_size=5))
    sites = [SiteSpec(("s", k), "edge", build_cyclic(d)) for k, d in enumerate(dims)]
    n = draw(st.sampled_from([None, 1, 2, 3]))
    if n is not None:
        sites.insert(0, register._seed_spec(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(s.dim for s in sites)
    reg = QuditRegister(sites, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    targets = draw(st.permutations([s.sid for s in sites if s.sid != SEED_SITE]))[: draw(st.sampled_from([1, 3]))]
    size = int(np.prod([reg.spec(t).dim for t in targets]))

    def phases():
        return np.exp(2j * np.pi * rng.random(size))

    if n is None or draw(st.booleans()):
        op = LocalOperator(targets, "diag", phases()) if len(targets) == 1 else DiagonalOperator(targets, phases())
        return reg, op, []
    rows = [LocalOperator(targets, "diag", phases()) if draw(st.booleans()) else None for _ in range(n)]
    if not any(rows):
        rows[0] = LocalOperator(targets, "diag", phases())
    return reg, _seed_gate(rows), [s for s, row in enumerate(rows) if row is None]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(diagonal_cases())
def test_a_broadcast_diagonal_is_the_equal_shape_product_bitwise(case):
    """numpy's complex multiply rounds its scalar loop apart from its vector
    loops, so a stacked correction keeps each seed's bits only if the
    broadcast product takes the loop the equal-shape product takes; and a
    multiply by an exact 1+0j row is exact."""
    reg, op, identity_seeds = case
    amps = reg.amps.copy()
    axes = [reg.pos(t) for t in op.targets]
    table = op.diag.reshape([reg.dims[a] for a in axes]).transpose(np.argsort(axes))
    full = np.broadcast_to(table.reshape([d if k in axes else 1 for k, d in enumerate(reg.dims)]), amps.shape)
    got = reg._applied(op)
    assert got.tobytes() == (amps * np.ascontiguousarray(full)).tobytes()
    for s in identity_seeds:
        assert got[s].tobytes() == amps[s].tobytes()


# --- the edge reassembly: one register step for every edge


@st.composite
def reassembly_cases(draw):
    """Edge stage sites as a run leaves them before its reassembly, on the
    hexagon torus's three edges: the S4 solvable chain (three stages per
    edge), the S3 metabelian chain (two), or the D4 nil2 pair (n, q);
    sometimes behind a seed site of two seeds, sometimes with a spectator,
    the other sites in a drawn order; random amplitudes at a drawn density,
    dense or in support form."""
    cell = hexagon_torus()
    name = draw(st.sampled_from(["S4", "S3", "D4 nil2"]))
    if name == "D4 nil2":
        systems = [catalog_factor_system("D4")]

        def stages_of(e):
            return [("e", e, "n"), ("e", e, "q")]

    else:
        systems = list(protocols._solvable_chain(CAT[name]))

        def stages_of(e):
            return [("e", e, j) for j in range(1, len(systems) + 2)]

    groups = [fs.n_group for fs in systems] + [systems[-1].q_group]
    sites = [SiteSpec(sid, "edge", grp) for e in range(cell.n_edges) for sid, grp in zip(stages_of(e), groups)]
    if draw(st.booleans()):
        sites.append(SiteSpec("x", "vertex", build_cyclic(2)))
    sites = [sites[k] for k in draw(st.permutations(range(len(sites))))]
    if draw(st.booleans()):
        sites.insert(0, register._seed_spec(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = tuple(s.dim for s in sites)
    reg = QuditRegister(sites, _amplitudes(rng, dims, draw(st.sampled_from(DENSITIES)), range(len(dims))))
    if draw(st.booleans()):
        reg._positions()
    return reg, cell, systems, stages_of


@settings(max_examples=60, deadline=None, derandomize=True)
@given(reassembly_cases())
def test_the_edge_reassembly_is_the_pairwise_merge_and_relabel_loop_bitwise(case):
    """protocols._reassemble_edges, one fuse_sites step through one joint
    table per edge, against two merges and two relabelings per edge and
    stage (tests/reference.py): the same layout, form, and arrays, bitwise."""
    reg, cell, systems, stages_of = case
    ref = reg.fork()
    protocols._reassemble_edges(reg, cell, systems, stages_of)
    pairwise_edge_reassembly(ref, cell, systems, stages_of)
    assert reg.layout == ref.layout and (reg._support is None) == (ref._support is None)
    assert _state(reg) == _state(ref)
