"""The support reads of the stabilizer report and of the Fourier measurement,
checked bitwise against the dense paths in reference.py that read every
amplitude, and the premise they rest on: protocol states are exact zeros off
a small support."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit import register
from gaugekit.cellulation import hexagon_torus, square_torus, tetrahedron_sphere, theta_sphere
from gaugekit.groups import build_cyclic, catalog, catalog_factor_system
from gaugekit.kwmaps import KwMode
from gaugekit.protocols import plan_run
from gaugekit.register import QuditRegister, SiteSpec
from gaugekit.verify import stabilizer_report
from reference import dense_measure_fourier, dense_stabilizer_report

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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(report_registers())
def test_report_on_the_support_matches_the_dense_sweep_bitwise(case):
    reg, group, cell = case
    before = reg.amps.copy()
    got = _outcome(lambda: _bits(stabilizer_report(reg, group, cell).to_dict()))
    want = _outcome(lambda: _bits(dense_stabilizer_report(reg, group, cell).to_dict()))
    assert got == want
    assert np.array_equal(reg.amps, before)


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


def _state(reg):
    return reg.layout, reg.amps, {sid: (r.outcome, r.probability.hex()) for sid, r in reg.retired.items()}


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


# --- the premise: exact zeros off a small support ---------------------------------

# (group, protocol, cell): nonzero amplitudes of the plan's prefix and of one
# seed's output, each over the register size
SPARSE_CASES = [
    ("S4", "solvable", hexagon_torus(), (576, 36_864), (24, 13_824)),
    ("D4", "nil2", hexagon_torus(), (256, 16_384), (32, 512)),
    ("Z3", "abelian", square_torus(2, 2), (81, 531_441), (27, 6_561)),
    ("Z2", "abelian", square_torus(3, 2), (64, 262_144), (32, 4_096)),
]


@pytest.mark.parametrize("name, protocol, cell, prefix, output", SPARSE_CASES, ids=[c[0] + "-" + c[1] for c in SPARSE_CASES])
def test_protocol_states_are_exact_zeros_off_their_support(name, protocol, cell, prefix, output):
    subject = catalog_factor_system(name) if protocol == "nil2" else CAT[name]
    plan = plan_run(protocol, subject, cell, with_oracle=False)
    for seed in (3, 11):
        states = {"prefix": plan.prefix.amps, "output": plan.branch(KwMode.sample(seed)).register.amps}
        for label, amps in states.items():
            magnitudes = np.abs(amps[amps != 0])
            assert (magnitudes.size, amps.size) == {"prefix": prefix, "output": output}[label], label
            # no amplitude sits between exact zero and rounding noise
            assert magnitudes.min() > 1e-12, label
