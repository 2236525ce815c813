"""The block reads of a warm op, each checked bitwise against the read it
replaces: the joint label of adjacent ascending axes in one divide against
the per-axis loop, the stabilizer report's one nonzero test per block of
term rows against the dense sweep (states that violate a stabilizer, seeds
of unequal runs, a run past OVERLAP_CHUNK), and the overlap of two support
forms at equal positions against the gather of one at the other's."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit import verify
from gaugekit.cellulation import square_torus
from gaugekit.gates import left_mult
from gaugekit.groups import build_cyclic, catalog
from gaugekit.kwmaps import KwMode
from gaugekit.protocols import plan_run
from gaugekit.register import OVERLAP_CHUNK, QuditRegister, SiteSpec, _overlap, _support_joint
from reference import dense_stabilizer_report

CAT = catalog()


def _per_axis_joint(flat, dims, strides, axes):
    """The joint label of axes, row-major in the given order, one axis at a time."""
    joint = 0
    for a in axes:
        joint = joint * dims[a] + flat // strides[a] % dims[a]
    return joint


def _strides(dims):
    return [math.prod(dims[k + 1 :]) for k in range(len(dims))]


@st.composite
def joint_reads(draw):
    """A C-order shape of 1-6 axes, a sorted subset of its flat positions,
    and axes of every kind: a run from axis 0, inside the register or to the
    last axis, one axis, none, ascending with a gap, or descending."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    n = len(dims)
    kind = draw(st.sampled_from(["first", "inner", "last", "one", "none", "gapped", "descending"]))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    if kind == "first":
        axes = list(range(hi))
    elif kind == "inner":
        axes = list(range(lo, hi))
    elif kind == "last":
        axes = list(range(lo, n))
    elif kind == "one":
        axes = [lo]
    elif kind == "none":
        axes = []
    else:
        axes = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)), reverse=kind == "descending")
    size = math.prod(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = np.flatnonzero(rng.random(size) < draw(st.sampled_from([0.1, 0.5, 1.0])))
    return flat, dims, _strides(dims), axes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(joint_reads())
def test_the_joint_label_of_any_axes_equals_the_per_axis_loop(case):
    flat, dims, strides, axes = case
    got, want = _support_joint(flat, dims, strides, axes), _per_axis_joint(flat, dims, strides, axes)
    assert type(got) is type(want)
    assert np.array_equal(got, want)
    if len(axes):
        assert got.dtype == np.int64


def test_a_run_of_adjacent_axes_is_read_with_one_divide():
    """Adjacent ascending axes read the position with one floor-divide and
    one modulo; the labels are the per-axis loop's, at every position."""
    dims = (2, 3, 4, 3, 2)
    flat = np.arange(math.prod(dims))
    strides = _strides(dims)

    class Counted(np.ndarray):
        divides = 0

        def __floordiv__(self, other):
            Counted.divides += 1
            return np.asarray(self) // other

    for axes in ([1, 2, 3], [0, 1, 2, 3, 4], [3, 4], [2]):
        Counted.divides = 0
        got = _support_joint(flat.view(Counted), dims, strides, axes)
        assert Counted.divides == 1, axes
        assert np.array_equal(got, _per_axis_joint(flat, dims, strides, axes)), axes


def _bits(value):
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, float):
        return value.hex()
    return value


def _reported(regs, group, cell):
    """Each register's report, from one stabilizer_reports call over all of
    them, and how many rows took the per-row _overlap."""
    calls = []

    def counted(bra, ket):
        calls.append(bra.size)
        return _overlap(bra, ket)

    with mock.patch.object(verify, "_overlap", counted):
        reports = verify.stabilizer_reports(regs, group, cell)
    return [_bits(report.to_dict()) for report in reports], len(calls)


def _dense(regs, group, cell):
    return [_bits(dense_stabilizer_report(reg, group, cell).to_dict()) for reg in regs]


def _ground_states(name, cell, seeds=3):
    """The registers a sampled abelian run of seeds leaves."""
    plan = plan_run("abelian", CAT[name], cell, with_oracle=False)
    return [t.register for t in plan.run([KwMode.sample(seed) for seed in range(seeds)])]


def test_a_ground_state_reports_every_value_with_one_vdot():
    """On a sampled Z3 double no term row holds a zero, so no value takes the
    per-row _overlap; the bits are the dense sweep's."""
    cell = square_torus(2, 2)
    regs = _ground_states("Z3", cell)
    got, per_row = _reported(regs, CAT["Z3"], cell)
    assert got == _dense(regs, CAT["Z3"], cell)
    assert per_row == 0


def test_a_flux_violating_state_reports_its_zero_rows_bitwise():
    """A Z2 double with one edge flipped on part of its support: the two
    plaquettes at that edge hold flux there, so their B_p rows hold zeros
    and go through _overlap row by row, and the report is the dense
    sweep's, bitwise, B_p below 1 where the flux sits."""
    group, cell = CAT["Z2"], square_torus(2, 2)
    ground = _ground_states("Z2", cell, seeds=1)[0]
    flipped = ground.fork().apply(left_mult(group, 1, ("e", 0)))
    flat, values = ground._support_form()
    amps = ground._dense().ravel().copy()
    amps[flat[::2]] = 0
    mixed = QuditRegister(ground.sites, amps + 0.5 * flipped._dense().ravel())
    mixed = QuditRegister(mixed.sites, mixed.amps / mixed.norm())
    for regs in ([flipped], [mixed], [ground, mixed, flipped]):
        got, per_row = _reported(regs, group, cell)
        assert got == _dense(regs, group, cell)
        assert per_row > 0
    report = verify.stabilizer_report(mixed, group, cell)
    assert 0 < min(report.plaquette_expectations.values()) < 1


def test_seeds_of_unequal_runs_and_a_run_past_the_chunk_report_bitwise():
    """Seeds of one layout whose supports differ in size, one of them full
    and longer than OVERLAP_CHUNK (a Z2 edge state on square_torus(3, 2)
    beside a Z3 spectator, 12,288 amplitudes), one a third of that, one a
    basis state, and an empty one: reported together, each is the dense
    sweep of that seed alone, the long run through _overlap's chunks."""
    group, cell = CAT["Z2"], square_torus(3, 2)
    sites = [SiteSpec(("e", e), "edge", group) for e in range(cell.n_edges)]
    sites.append(SiteSpec(("x", 0), "spectator", build_cyclic(3)))
    size = 2**cell.n_edges * 3
    assert size > OVERLAP_CHUNK
    rng = np.random.default_rng(11)
    full = rng.normal(size=size) + 1j * rng.normal(size=size)
    third = full * (rng.random(size) < 1 / 3)
    basis = np.zeros(size, dtype=np.complex128)
    basis[5] = 1
    regs = [QuditRegister(sites, amps / (np.linalg.norm(amps) or 1)) for amps in (full, third, basis, np.zeros(size))]
    regs[1]._positions()
    assert len({reg._support_form()[0].size for reg in regs}) == 4
    got, per_row = _reported(regs, group, cell)
    assert got == _dense(regs, group, cell)
    assert per_row > 0
    for reg in regs:
        assert _reported([reg], group, cell)[0] == _dense([reg], group, cell)


def _support_register(specs, amps):
    reg = QuditRegister(specs, amps)
    reg._positions()
    return reg


def _hex(value):
    return value.real.hex(), value.imag.hex()


def test_two_support_forms_at_equal_positions_overlap_as_the_gather_does():
    """Support forms at the same positions, short and past OVERLAP_CHUNK,
    overlap with the bits of the read of one at the other's positions, and
    of the dense call; forms at unequal positions still take that read."""
    z4 = build_cyclic(4)
    rng = np.random.default_rng(5)
    for sites, density in [(3, 0.5), (7, 0.9)]:
        specs = [SiteSpec(k, "edge", z4) for k in range(sites)]
        size = 4**sites
        mask = rng.random(size) < density
        a, b, c = ((rng.normal(size=size) + 1j * rng.normal(size=size)) * mask for _ in range(3))
        c[np.flatnonzero(mask)[0]] = 0  # c misses one of a's positions
        bra, ket, other = (_support_register(specs, amps) for amps in (a, b, c))
        assert np.array_equal(bra._support[0], ket._support[0])
        assert not np.array_equal(bra._support[0], other._support[0])
        assert (bra._support[0].size > OVERLAP_CHUNK) == (sites == 7)
        for x, y in [(bra, ket), (ket, bra), (bra, bra), (bra, other), (other, bra)]:
            flat, values = x._support
            via_gather = _overlap(values, y._values_at(flat))
            dense = _overlap(x._dense(), y._dense())
            assert _hex(x.inner_product(y)) == _hex(via_gather) == _hex(dense)
        assert bra.fidelity(ket).hex() == (abs(_overlap(a, b)) ** 2).hex()
