"""The support reads of the stabilizer report and of the Fourier measurement,
checked bitwise against the dense paths in reference.py that read every
amplitude; the register's support form, checked bitwise against the same
steps on a register densified before every step; and the premise they rest
on: protocol states are exact zeros off a small support."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaugekit import kwmaps, protocols, register, verify
from gaugekit.cellulation import hexagon_torus, square_torus, tetrahedron_sphere, theta_sphere
from gaugekit.groups import build_cyclic, catalog, catalog_factor_system
from gaugekit.kwmaps import KwMode, _seed_gate
from gaugekit.protocols import plan_run
from gaugekit.register import SEED_SITE, LocalOperator, QuditRegister, SiteSpec
from gaugekit.verify import stabilizer_report
from reference import circuit_of_gates, dense_measure_fourier, dense_stabilizer_report

CAT = catalog()
# the zero state last: hypothesis draws the first entries of a list most often
DENSITIES = [0.01, 0.5, 1.0, 0.0]
# (group, cell) pairs whose edge space stays small enough to sweep densely
REPORT_CASES = [
    ("Z2", square_torus, (2, 2)),
    ("Z3", square_torus, (2, 2)),
    ("Z2xZ2", hexagon_torus, ()),
    ("S3", hexagon_torus, ()),
    ("D4", hexagon_torus, ()),
    ("Q8", theta_sphere, ()),
    ("S3", tetrahedron_sphere, ()),
]


def _bits(value):
    """A float, complex or nested report value with every float spelled
    exactly, the sign of zero included."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return value.hex()
    return value


def _outcome(call):
    """The call's result, or the type and message of what it raised."""
    try:
        return "ok", call()
    except ValueError as err:
        return "raised", str(err)


def _stored(draw, sites, raw):
    """A register holding raw over sites, its axes stored in a drawn memory
    order, so the amplitude array is usually not C-contiguous."""
    order = draw(st.permutations(range(raw.ndim)))
    stored = np.ascontiguousarray(np.transpose(raw, order))
    return QuditRegister(sites, np.transpose(stored, np.argsort(order)))


def _amplitudes(rng, dims, density, mask_axes):
    """Random complex amplitudes, zero outside a random support of about the
    given density, and never empty unless the density is 0, drawn over
    mask_axes and broadcast along the others."""
    raw = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    mask = rng.random([d if k in mask_axes else 1 for k, d in enumerate(dims)]) < density
    if density:
        mask.flat[rng.integers(mask.size)] = True
    return raw * mask


@st.composite
def report_registers(draw):
    """Edges of a catalog group on a fixture cell, up to two cyclic spectators
    of other dimensions, the sites in a drawn order."""
    name, build, args = draw(st.sampled_from(REPORT_CASES))
    group, cell = CAT[name], build(*args)
    sites = [SiteSpec(("e", e), "edge", group) for e in range(cell.n_edges)]
    sites += [SiteSpec(("x", k), "spectator", build_cyclic(d)) for k, d in enumerate(draw(st.lists(st.integers(2, 3), max_size=2)))]
    sites = [sites[k] for k in draw(st.permutations(range(len(sites))))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = tuple(s.dim for s in sites)
    raw = _amplitudes(rng, dims, draw(st.sampled_from(DENSITIES)), range(len(dims)))
    return _stored(draw, sites, raw), group, cell


def _same_report(reg, group, cell):
    before = reg.amps.copy()
    got = _outcome(lambda: _bits(stabilizer_report(reg, group, cell).to_dict()))
    want = _outcome(lambda: _bits(dense_stabilizer_report(reg, group, cell).to_dict()))
    assert got == want
    assert np.array_equal(reg.amps, before)
    return got


@settings(max_examples=60, deadline=None, derandomize=True)
@given(report_registers())
def test_report_on_the_support_matches_the_dense_sweep_bitwise(case):
    _same_report(*case)


@pytest.mark.parametrize("chunk", [1, 64])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(report_registers())
def test_report_in_small_blocks_matches_the_dense_sweep_bitwise(chunk, case):
    """At a block of one entry every term reads one position at a time; at
    64, small supports put several terms in one block and larger ones run
    one term over runs of positions. Supports past 512 positions are left
    to the shipped block size: one block per position would take minutes."""
    assume(np.count_nonzero(case[0].amps) <= 512)
    with mock.patch.object(verify, "SUPPORT_CHUNK", chunk):
        _same_report(*case)


def test_report_blocks_match_the_dense_sweep_bitwise_on_either_side_of_one_block():
    """Six support positions of a Z3 edge state on square_torus(2, 2), three
    random ones and their images under inverting every edge label, with
    equal amplitudes, so that every loop value is real: a vertex term reads
    12 entries per position (4 edges, 3 elements), a diagonal 8 (every
    edge's label), so the block sizes 1..160 run both kinds through single
    positions, runs of positions, exactly one block of all six, and
    several terms per block."""
    group, cell = CAT["Z3"], square_torus(2, 2)
    sites = [SiteSpec(("e", e), "edge", group) for e in range(cell.n_edges)]
    rng = np.random.default_rng(8)
    amps = np.zeros((3,) * 8, dtype=np.complex128)
    for _ in range(3):
        labels = rng.integers(0, 3, size=8)
        amps[tuple(labels)] = amps[tuple(group.inv[labels])] = rng.normal() + 1j * rng.normal()
    assert np.count_nonzero(amps) == 6
    reg = QuditRegister(sites, amps / np.linalg.norm(amps))
    for chunk in range(1, 161):
        with mock.patch.object(verify, "SUPPORT_CHUNK", chunk):
            assert _same_report(reg, group, cell)[0] == "ok"


@pytest.mark.parametrize("chunk", [verify.SUPPORT_CHUNK, 1])
@pytest.mark.parametrize("scale, first", [(None, "loop[chi1,0]"), (1e6, "A[0]")], ids=["loop", "vertex"])
def test_an_off_axis_term_raises_the_dense_sweeps_first_error(chunk, scale, first):
    """A random Z3 edge state on about 5% of the labels: its chi1 loops are
    complex, so the first plaquette's raises; scaled up a millionfold, the
    rounding of the vertex sums leaves A[0] off the real axis first."""
    group, cell = CAT["Z3"], square_torus(2, 2)
    sites = [SiteSpec(("e", e), "edge", group) for e in range(cell.n_edges)]
    amps = _amplitudes(np.random.default_rng(1), (3,) * 8, 0.05, range(8))
    reg = QuditRegister(sites, amps * (scale or 1 / np.linalg.norm(amps)))
    with mock.patch.object(verify, "SUPPORT_CHUNK", chunk):
        got = _same_report(reg, group, cell)
    assert got[0] == "raised" and got[1].startswith(f"{first} expectation (")


# (protocol, group): 4-seed stacks whose seeds are reported in one pass
STACK_CASES = [("solvable", "S4"), ("nil2", "D4"), ("metabelian", "S3")]


def _respread(regs, rng):
    """The registers' states over one shuffled layout: their sites and a Z2
    and a Z3 spectator, each in a state with two nonzero labels, in a random
    order; every other register in support form."""
    spectators = [
        (SiteSpec(("x", 0), "spectator", build_cyclic(2)), np.array([0.6, 0.8j])),
        (SiteSpec(("x", 1), "spectator", build_cyclic(3)), np.array([0.0, np.sqrt(0.5), -np.sqrt(0.5)])),
    ]
    sites = list(regs[0].sites) + [spec for spec, _ in spectators]
    order = rng.permutation(len(sites))
    out = []
    for s, reg in enumerate(regs):
        amps = reg._dense()
        for _, local in spectators:
            amps = np.multiply.outer(amps, local)
        out.append(QuditRegister([sites[k] for k in order], amps.transpose(order)))
        if s % 2:
            out[-1]._positions()
    return out


@pytest.mark.parametrize("chunk", [verify.SUPPORT_CHUNK, 1, 64])
@pytest.mark.parametrize("protocol, name", STACK_CASES, ids=[f"{name}-{protocol}" for protocol, name in STACK_CASES])
def test_a_stacks_reports_match_the_dense_sweep_of_each_seed_bitwise(chunk, protocol, name):
    """The four seeds of a stack, as the run leaves them (views of the stack,
    in support form but for S3, whose measurements leave it dense) and
    moved to a shuffled layout with spectators (dense and support form
    alternately), reported in one pass at the shipped block size and at
    blocks of 1 and 64 entries: each report is the dense sweep of its seed
    alone, bitwise."""
    subject = catalog_factor_system(name) if protocol in ("nil2", "metabelian") else CAT[name]
    cell = hexagon_torus()
    plan = plan_run(protocol, subject, cell, with_oracle=False)
    registers = [t.register for t in plan.run([KwMode.sample(seed) for seed in range(4)])]
    for regs in (registers, _respread(registers, np.random.default_rng(len(STACK_CASES) + chunk))):
        with mock.patch.object(verify, "SUPPORT_CHUNK", chunk):
            got = [_bits(report.to_dict()) for report in verify.stabilizer_reports(regs, CAT[name], cell)]
        assert got == [_bits(dense_stabilizer_report(reg, CAT[name], cell).to_dict()) for reg in regs]


def test_a_stack_raises_the_first_error_of_its_first_failing_seed():
    """Seed 0 a basis state, every value real; the 5%-support Z3 state of the
    test above raises at its chi1 loop, and scaled a millionfold at A[0],
    earlier in term order. A stack raises the error of its first failing
    seed: seeds first, then A, B, loops within a seed."""
    group, cell = CAT["Z3"], square_torus(2, 2)
    sites = [SiteSpec(("e", e), "edge", group) for e in range(cell.n_edges)]
    amps = _amplitudes(np.random.default_rng(1), (3,) * 8, 0.05, range(8))
    ground = np.zeros((3,) * 8, dtype=np.complex128)
    ground.flat[0] = 1
    regs = [QuditRegister(sites, state) for state in (ground, amps / np.linalg.norm(amps), amps * 1e6)]
    alone = [_outcome(lambda: stabilizer_report(reg, group, cell)) for reg in regs]
    assert alone[0][0] == "ok" and alone[1][1].startswith("loop[chi1,0] ") and alone[2][1].startswith("A[0] ")
    assert _outcome(lambda: verify.stabilizer_reports(regs, group, cell)) == alone[1]
    assert _outcome(lambda: verify.stabilizer_reports([regs[0], regs[2], regs[1]], group, cell)) == alone[2]


def test_registers_of_different_layouts_are_rejected_naming_both():
    group, cell = CAT["Z3"], square_torus(2, 2)
    sites = [SiteSpec(("e", e), "edge", group) for e in range(cell.n_edges)]
    amps = np.zeros((3,) * 8, dtype=np.complex128)
    amps.flat[0] = 1
    regs = [QuditRegister(sites, amps), QuditRegister(sites[::-1], amps)]
    with pytest.raises(ValueError) as raised:
        verify.stabilizer_reports(regs, group, cell)
    assert str(list(regs[0].layout)) in str(raised.value) and str(list(regs[1].layout)) in str(raised.value)


@st.composite
def measured_registers(draw):
    """One to four cyclic sites of dimensions 2 to 4 and one measured site,
    possibly Z2xZ2, at a drawn position; the support drawn over all
    amplitudes or over the other sites' columns, and the state sometimes
    constant (plus) or summing to zero (minus) along the measured axis, so
    that outcomes of zero probability occur."""
    dims = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    groups = [build_cyclic(d) for d in dims]
    at = draw(st.integers(0, len(groups)))
    groups.insert(at, draw(st.sampled_from([build_cyclic(2), build_cyclic(3), build_cyclic(4), CAT["Z2xZ2"]])))
    sites = [SiteSpec(("s", k), "edge", g) for k, g in enumerate(groups)]
    dims = tuple(g.order for g in groups)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from(DENSITIES))
    columns = draw(st.booleans())
    raw = _amplitudes(rng, dims, density, [k for k in range(len(dims)) if k != at or not columns])
    shape = draw(st.sampled_from(["random", "plus", "minus"]))
    if shape == "plus":
        raw = np.broadcast_to(np.take(raw, [0], axis=at), dims)
    elif shape == "minus":
        raw = raw - np.roll(raw, 1, axis=at)
    return _stored(draw, sites, raw), ("s", at)


def _retired(reg):
    return {sid: (r.outcomes, [p.hex() for p in r.probabilities]) for sid, r in reg.retired.items()}


def _state(reg):
    return reg.layout, reg.amps, _retired(reg)


def _same(a, b):
    (layout_a, amps_a, retired_a), (layout_b, amps_b, retired_b) = _state(a), _state(b)
    return layout_a == layout_b and retired_a == retired_b and np.array_equal(amps_a, amps_b)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(measured_registers(), st.data())
def test_measurement_on_live_columns_matches_the_dense_path_bitwise(case, data):
    """Sampled and forced outcomes and the zero-probability rejection (which
    leaves the site rotated, on both paths alike); the small drawn blocks
    read their live columns when the size floor is lifted, and their whole
    block under the shipped floor."""
    reg, sid = case
    ref = QuditRegister(list(reg.sites), reg.amps)
    floor = data.draw(st.sampled_from([0, register.LIVE_READ_MIN]))
    with mock.patch.object(register, "LIVE_READ_MIN", floor):
        _measure_both(reg, ref, sid, data)


def _measure_both(reg, ref, sid, data):
    if data.draw(st.booleans()):
        seed = data.draw(st.integers(0, 2**16))
        got = _outcome(lambda: reg.measure_fourier(sid, rng=np.random.default_rng(seed)))
        want = _outcome(lambda: dense_measure_fourier(ref, sid, rng=np.random.default_rng(seed)))
    else:
        forced = data.draw(st.integers(0, reg.spec(sid).dim - 1))
        got = _outcome(lambda: reg.measure_fourier(sid, forced=forced))
        want = _outcome(lambda: dense_measure_fourier(ref, sid, forced=forced))
    assert got == want
    assert _same(reg, ref)
    if got[0] == "raised":
        assert sid in dict(reg.layout), "a rejected measurement retires no site"


# --- the support form against a register densified before every step ---------


def _wall(rng, sid, dims, pool):
    """A permutation gate on sid and up to two sites of pool, in a random
    target order, that adds a random function of their labels to sid's
    label and keeps theirs."""
    ctrl = [pool[k] for k in rng.permutation(len(pool))[: rng.integers(0, min(2, len(pool)) + 1)]]
    targets = [(ctrl + [sid])[k] for k in rng.permutation(len(ctrl) + 1)]
    shape = [dims[t] for t in targets]
    labels = dict(zip(targets, np.indices(shape).reshape(len(shape), -1)))
    joint = np.ravel_multi_index([labels[t] for t in ctrl], [dims[t] for t in ctrl]) if ctrl else 0
    shift = rng.integers(0, dims[sid], size=math.prod(dims[t] for t in ctrl))
    labels[sid] = (labels[sid] + shift[joint]) % dims[sid]
    return LocalOperator(targets, "perm", np.ravel_multi_index([labels[t] for t in targets], shape), name=f"wall{sid}")


def _allocation(draw, rng, reg, tag):
    """One or two identity-state sites of dimension 2 or 3, each written by a
    wall on live sites and the new sites before it."""
    new = [SiteSpec((tag, j), "edge", build_cyclic(d)) for j, d in enumerate(draw(st.lists(st.integers(2, 3), min_size=1, max_size=2)))]
    dims = dict(reg.layout) | {s.sid: s.dim for s in new}
    pool, gates = [sid for sid, _ in reg.layout], []
    for spec_ in new:
        gates.append(_wall(rng, spec_.sid, dims, pool))
        pool.append(spec_.sid)
    return new, gates


def _support_bits(reg):
    return None if reg._support is None else tuple(a.tobytes() for a in reg._support)


def _amplitude_bits(amps, signless):
    """The amplitudes' bytes, with every zero spelled +0 if signless: a dense
    diagonal writes -0 where 0 times a phase rounds so, where the support
    form has no entry at all."""
    amps = np.ascontiguousarray(amps)
    return (amps + 0.0 if signless else amps).tobytes()


def _same_form_state(reg, ref, signless):
    """reg, in either form, holds ref's state: the support positions are
    exactly the nonzero entries of the densified register, with its values,
    bitwise; a dense reg is ref's array bitwise, up to the sign of zero if
    signless."""
    assert (reg.layout, _retired(reg)) == (ref.layout, _retired(ref))
    dense = np.ravel(ref.amps)
    if reg._support is None:
        assert _amplitude_bits(reg._amps, signless) == _amplitude_bits(ref.amps, signless)
    else:
        assert np.array_equal(reg._support[0], np.flatnonzero(dense))
        assert reg._support[1].tobytes() == dense[reg._support[0]].tobytes()


def _gate(rng, targets, dims, kind):
    size = math.prod(dims[t] for t in targets)
    if kind == "perm":
        return LocalOperator(targets, "perm", rng.permutation(size))
    return LocalOperator(targets, "diag", np.exp(2j * np.pi * rng.random(size)))


def _targets(draw, live, most):
    return draw(st.permutations(live))[: draw(st.integers(1, min(most, len(live))))]


def _drawn_step(draw, rng, reg, fresh):
    """A step that maps a basis state to one basis state times a phase, on
    the live sites other than the seed site, as a callable on a register
    and its result: a diagonal or permutation gate on one to three targets
    in a drawn order; on a stack, a seed gate over one or two targets, a
    seed row of a diagonal or a permutation, or the identity; a
    relabeling, sometimes of a non-permutation; a fusion of one group of
    two or three sites, or two groups of two, each in a drawn order through
    a drawn permutation table or the identity; a split; or the symmetry probe on one
    or two vertices of one or two sites each, which returns its residual
    and what _require_symmetric raises. The callable comes second, after
    whether the step multiplies by phases. fresh names new sites."""
    dims = dict(reg.layout)
    live = [sid for sid in dims if sid != SEED_SITE]
    kinds = ["diag", "perm", "relabel", "probe"] + ["seed"] * reg.stacked + ["fuse"] * (len(live) > 1)
    kinds += ["split"] * any(d in (4, 6, 8, 9) for sid, d in dims.items() if sid != SEED_SITE)
    kind = draw(st.sampled_from(kinds))
    if kind in ("diag", "perm"):
        op = _gate(rng, _targets(draw, live, 3), dims, kind)
        return kind == "diag", lambda r: r.apply(op) and None
    if kind == "seed":
        row_kind = draw(st.sampled_from(["diag", "perm"]))
        targets = _targets(draw, live, 3 if row_kind == "diag" else 2)
        rows = [_gate(rng, targets, dims, row_kind) if draw(st.booleans()) else None for _ in range(reg.seeds)]
        rows[draw(st.integers(0, reg.seeds - 1))] = _gate(rng, targets, dims, row_kind)
        op = _seed_gate(rows)
        return row_kind == "diag", lambda r: r.apply(op) and None
    if kind == "relabel":
        sid = draw(st.sampled_from(live))
        image = rng.permutation(dims[sid]) if draw(st.integers(0, 3)) else np.zeros(dims[sid], dtype=np.int64)
        return False, lambda r: r.relabel_site(sid, image)
    if kind == "fuse":
        order = draw(st.permutations(live))
        fusions = []
        for lo, hi in draw(st.sampled_from([g for g in [((0, 2),), ((0, 3),), ((0, 2), (2, 4))] if g[-1][1] <= len(live)])):
            size = math.prod(dims[t] for t in order[lo:hi])
            table = rng.permutation(size) if draw(st.booleans()) else np.arange(size)
            fusions.append((order[lo:hi], SiteSpec(fresh(), "edge", build_cyclic(size)), table))
        return False, lambda r: r.fuse_sites(fusions)
    if kind == "split":
        sid = draw(st.sampled_from([sid for sid in live if dims[sid] in (4, 6, 8, 9)]))
        first = draw(st.sampled_from([k for k in (2, 3, 4) if dims[sid] % k == 0 and dims[sid] > k]))
        halves = [SiteSpec(fresh(), "edge", build_cyclic(d)) for d in (first, dims[sid] // first)]
        return False, lambda r: r.split_site(sid, *halves)
    vertex = _targets(draw, live, 2)
    joint = math.prod(dims[t] for t in vertex)
    others = [(sid,) for sid in live if sid not in vertex and dims[sid] == joint]
    vertices = [tuple(vertex)] + others[: draw(st.integers(0, min(1, len(others))))]
    sources = rng.permutation(joint)

    def probe(r):
        residual = r.probe_residual([[r.pos(t) for t in v] for v in vertices], sources).hex()
        return residual, _outcome(lambda: kwmaps._require_symmetric(r, build_cyclic(joint), vertices, "probe"))

    return False, probe


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.data())
def test_the_support_form_matches_a_register_densified_before_every_step_bitwise(data):
    """Random inputs on one to three cyclic sites (densities 1%, 50%, 100%
    and the zero state; sometimes constant, or summing to zero, along one
    site in all or half of its columns), sometimes behind a seed site of one
    to three seeds and sometimes starting in support form, then twice a
    gated allocation followed by drawn steps: sampled or forced
    measurements, diagonal and permutation gates, seed gates, relabelings,
    fusions, splits and the symmetry probe (_drawn_step). At every step the
    register in either form and the densified one agree on the result or
    the error, the retired record and the generator states; the support
    positions are exactly the nonzero entries of the dense state, with its
    values, bitwise; a rejected step leaves the positions and values
    bitwise as they were; and the final amplitudes are bitwise equal, up to
    the sign of zero once a diagonal ran on the support form (where the
    dense product writes -0, the support form holds no entry). The size
    floor is lifted or not, so the small registers read live columns too. At a density of 1% most supports are
    one position, so the one-value product of a diagonal is checked against
    the dense product."""
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = [build_cyclic(d) for d in draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))]
    sites = [SiteSpec(("s", k), "edge", g) for k, g in enumerate(groups)]
    seeds = draw(st.sampled_from([None, 1, 2, 3]))
    if seeds is not None:
        sites.insert(0, register._seed_spec(seeds))
    dims, lead = tuple(s.dim for s in sites), int(seeds is not None)
    shape, axis = draw(st.sampled_from(["random", "plus", "minus"])), draw(st.integers(lead, len(dims) - 1))
    raw = _amplitudes(rng, dims, draw(st.sampled_from(DENSITIES)), [k for k in range(len(dims)) if k != axis or shape == "random"])
    if shape != "random":  # in all or half of the live columns along axis: zero weights, exact zeros
        columns = rng.random([1 if k == axis else d for k, d in enumerate(dims)]) < draw(st.sampled_from([1.0, 0.5]))
        shaped = np.take(raw, [0], axis=axis) if shape == "plus" else raw - np.roll(raw, 1, axis=axis)
        raw = np.where(columns, shaped, raw)
    reg = _stored(draw, sites, raw)
    ref = QuditRegister(list(reg.sites), reg.amps)
    if draw(st.booleans()):
        reg._positions()
    seed = draw(st.integers(0, 2**16))
    gens = [[np.random.default_rng(seed + s) for s in range(reg.seeds)] for _ in range(2)]
    names = iter(range(1000))
    floor = draw(st.sampled_from([0, register.LIVE_READ_MIN]))
    signless = False
    with mock.patch.object(register, "LIVE_READ_MIN", floor):
        for tag in ("n", "m"):
            new, gates = _allocation(draw, rng, reg, tag)
            reg.add_sites(new, circuit_of_gates(gates))
            ref.amps  # densified before every step
            ref.add_sites(new, circuit_of_gates(gates))
            _same_form_state(reg, ref, signless)
            for _ in range(draw(st.integers(0, 6))):
                live = [sid for sid, _ in reg.layout if sid != SEED_SITE]
                if not live:
                    break
                if draw(st.integers(0, 2)) == 0:
                    sid = draw(st.sampled_from(live))
                    forced = draw(st.none() | st.integers(0, reg.spec(sid).dim - 1))
                    if forced is not None:
                        kwargs = [{"forced": forced if seeds is None else [forced] * seeds}] * 2
                    else:
                        kwargs = [{"rng": g[0] if seeds is None else g} for g in gens]
                    steps = [lambda r, kw=kw: r.measure_fourier(sid, **kw) for kw in kwargs]
                else:
                    phases, step = _drawn_step(draw, rng, reg, lambda: ("g", next(names)))
                    signless |= phases and reg._support is not None
                    steps = [step, step]
                before = _support_bits(reg)
                got = _outcome(lambda: steps[0](reg))
                ref.amps
                assert got == _outcome(lambda: steps[1](ref))
                assert [[g.bit_generator.state for g in side] for side in gens] == [
                    [g.bit_generator.state for g in gens[1]]
                ] * 2
                if got[0] == "raised":
                    assert _support_bits(reg) == before
                _same_form_state(reg, ref, signless)
    assert _amplitude_bits(reg.amps, signless) == _amplitude_bits(ref.amps, signless)


def _symmetric_register(group, perturb, eps, support_form):
    """A state of two vertex sites of group and one Z2 spectator: the
    invariant sum over x of |x, x> |0>, normalized, its |0, 0> |0> entry
    raised by eps ("on the support") or eps written at |0, 1> |0>, which no
    group element maps into the support ("off the support")."""
    d = group.order
    amps = np.zeros((d, d, 2), dtype=np.complex128)
    amps[np.arange(d), np.arange(d), 0] = 1 / np.sqrt(d)
    amps[(0, 0, 0) if perturb == "on" else (0, 1, 0)] += eps
    sites = [SiteSpec(("v", 0), "vertex", group), SiteSpec(("v", 1), "vertex", group), SiteSpec("x", "edge", build_cyclic(2))]
    reg = QuditRegister(sites, amps)
    if support_form:
        reg._positions()
    return reg


@pytest.mark.parametrize("perturb", ["on", "off"])
@pytest.mark.parametrize("scale, moved", [(1 - 1e-4, False), (1 + 1e-4, True), (1e8, True)], ids=["below", "above", "far"])
def test_the_support_probe_accepts_and_rejects_as_the_dense_probe(perturb, scale, moved):
    """A perturbation of STATE_TOL times scale: just below the tolerance the
    probe accepts, just above it and far above it it rejects naming
    element 1, on the support form and on the densified register alike;
    off the support the moved support is not the state's own."""
    group = build_cyclic(3)
    results = []
    for support_form in (True, False):
        reg = _symmetric_register(group, perturb, register.STATE_TOL * scale, support_form)
        before = _support_bits(reg)
        results.append(_outcome(lambda: kwmaps._require_symmetric(reg, group, [(("v", 0),), (("v", 1),)], "probe")))
        assert (reg._support is not None, _support_bits(reg)) == (support_form, before)
    assert results[0] == results[1]
    if moved:
        assert results[0] == (
            "raised",
            "probe: input is not invariant under the global left action (element 1 moves it); "
            "the residual charge obstructs outcome repair",
        )
    else:
        assert results[0] == ("ok", None)


def test_the_support_probe_names_the_first_element_that_moves_the_state():
    """|0> + |1> on a Z2xZ2 site is kept by element 1 and moved by element 2;
    the support probe and the dense probe agree on every element's residual
    bitwise and both name element 2."""
    group = CAT["Z2xZ2"]
    assert group.mult[1, 0] == 1 and group.mult[2, 0] == 2
    local = np.zeros(4)
    local[[0, 1]] = np.sqrt(0.5)
    regs = [QuditRegister([SiteSpec(("v", 0), "vertex", group)], local) for _ in range(2)]
    regs[0]._positions()
    for g in range(1, 4):
        sources = group.mult[group.inv[g]]
        assert regs[0].probe_residual([[0]], sources).hex() == regs[1].probe_residual([[0]], sources).hex()
    results = [_outcome(lambda: kwmaps._require_symmetric(reg, group, [(("v", 0),)], "probe")) for reg in regs]
    assert results[0] == results[1] and "(element 2 moves it)" in results[0][1]


# --- the premise: exact zeros off a small support ---------------------------------

# (group, protocol, cell): nonzero amplitudes of the plan's start register
# (prefix), of the register its first measurement layer reads and of one
# seed's output, each over the register size: a vertex-route start is the
# full-support plus state, which round 1's gated allocation spreads over the
# edges it adds; the nil2 start is the coupling circuit itself
SPARSE_CASES = [
    ("S4", "solvable", hexagon_torus(), (576, 576), (576, 36_864), (24, 13_824)),
    ("D4", "nil2", hexagon_torus(), (256, 16_384), (256, 16_384), (32, 512)),
    ("Z3", "abelian", square_torus(2, 2), (81, 81), (81, 531_441), (27, 6_561)),
    ("Z2", "abelian", square_torus(3, 2), (64, 64), (64, 262_144), (32, 4_096)),
]


@pytest.mark.parametrize(
    "name, protocol, cell, prefix, measured, output", SPARSE_CASES, ids=[c[0] + "-" + c[1] for c in SPARSE_CASES]
)
def test_protocol_states_are_exact_zeros_off_their_support(monkeypatch, name, protocol, cell, prefix, measured, output):
    subject = catalog_factor_system(name) if protocol == "nil2" else CAT[name]
    plan = plan_run(protocol, subject, cell, with_oracle=False)
    first_reads = []
    measure_sites = kwmaps._measure_sites

    def recorded(reg, *args):
        if not reg.retired:
            first_reads.append(reg._dense())  # read without leaving the support form
        return measure_sites(reg, *args)

    monkeypatch.setattr(kwmaps, "_measure_sites", recorded)
    monkeypatch.setattr(protocols, "_measure_sites", recorded)  # the nil2 tail's import
    for seed in (3, 11):
        first_reads.clear()
        output_amps = plan.branch(KwMode.sample(seed)).register.amps
        states = {"prefix": plan.prefix.amps, "measured": first_reads[0], "output": output_amps}
        for label, amps in states.items():
            magnitudes = np.abs(amps[amps != 0])
            want = {"prefix": prefix, "measured": measured, "output": output}[label]
            assert (magnitudes.size, amps.size) == want, label
            # no amplitude sits between exact zero and rounding noise
            assert magnitudes.min() > 1e-12, label
