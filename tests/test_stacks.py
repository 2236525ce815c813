"""A stack of seeds against the same seeds run one at a time, bitwise.

A run plan runs its seeds in lockstep as one register whose leading site
labels the seed (QuditRegister.stack). These tests pin what that rests on:
one measurement of a stack gives each seed the outcome, retired probability,
generator state, error and amplitudes of a measurement of that seed alone;
the broadcast diagonal a correction gate applies equals the equal-shape
elementwise product, with or without a seed site, and an identity row
leaves its seed untouched; and a stack forked from a plan's prefix reads
back as the prefix.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit import register
from gaugekit.groups import FiniteGroup, build_cyclic, catalog
from gaugekit.kwmaps import _seed_gate
from gaugekit.register import SEED_SITE, DiagonalOperator, LocalOperator, QuditRegister, SiteSpec, init_plus
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


def test_a_stack_of_thousands_of_seeds_holds_only_their_amplitudes(monkeypatch):
    """The seed site is a label axis with no group: a stack builds no
    multiplication table for it, so 3,000 seeds of a two-amplitude register
    cost their positions and values."""

    def no_table(group):
        raise AssertionError(f"a {group.order}-element group table was built")

    prefix = init_plus([SiteSpec("a", "edge", build_cyclic(2))])
    prefix._positions()
    prefix.freeze()
    monkeypatch.setattr(FiniteGroup, "_validate", no_table)
    tracemalloc.start()
    try:
        stack = prefix.stack(3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.layout == ((SEED_SITE, 3000), ("a", 2)) and stack.seed(2999).layout == prefix.layout
    assert peak < 4 * 3000 * 2 * (16 + 8)


def test_a_stack_of_one_shares_its_prefix_and_more_seeds_read_back_as_it():
    """A stack of one is a fork of the frozen prefix, without a seed site,
    sharing its support form or its read-only view of a dense array; the
    array the dense prefix was built on stays writable."""
    rng = np.random.default_rng(3)
    sites = [SiteSpec(("s", k), "edge", build_cyclic(d)) for k, d in enumerate((3, 2, 4))]
    amps = rng.normal(size=(3, 2, 4)) * (rng.random((3, 2, 4)) < 0.3)
    dense = QuditRegister(sites, amps.astype(np.complex128))
    base = dense._amps
    dense.freeze()
    assert dense._support is None and not dense._amps.flags.writeable and base.flags.writeable
    one = dense.stack(1)
    assert not one.stacked and one.seeds == 1 and one.layout == dense.layout and one._amps is dense._amps
    prefix = QuditRegister(sites, amps)
    prefix._positions()
    prefix.freeze()
    one = prefix.stack(1)
    assert not one.stacked and one.seeds == 1 and one.layout == prefix.layout
    assert all(a is b for a, b in zip(one._support, prefix._support))
    three = prefix.stack(3)
    assert three.seeds == 3 and np.array_equal(three.amps, np.stack([amps] * 3))
    for s in range(3):
        assert three.seed(s).layout == prefix.layout and np.array_equal(three.seed(s).amps, amps)
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
