"""State-vector register: initialization, gates, measurement, relabelings."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit import gates as gates_module
from gaugekit import register, verify
from gaugekit.cellulation import hexagon_torus, square_torus, tetrahedron_sphere, theta_sphere
from gaugekit.gates import controlled_left, controlled_right, cz_abelian, left_mult
from gaugekit.groups import FactorSystem, build_cyclic, catalog, catalog_factor_system, character_table
from gaugekit.kwmaps import KwMode, _wall_gates, kw_abelian
from gaugekit.protocols import _solvable_chain
from gaugekit.register import (
    DiagonalOperator,
    LocalOperator,
    QuditRegister,
    SiteSpec,
    WallCircuit,
    _vertex_site,
    init_plus,
    init_product,
)
from reference import (
    circuit_of_gates,
    dense_measure_fourier,
    expanded_wall_gates,
    gate_matrix,
    identity_state,
    init_identity,
    merge_sites,
    split_left_mult,
    stack,
)

GATE_TOL = 1e-12
STATE_TOL = 1e-10


def z2_sites(n):
    z2 = build_cyclic(2)
    return [SiteSpec(("e", k), "edge", z2) for k in range(n)]


def test_init_plus_amplitudes():
    reg = init_plus(z2_sites(2))
    assert reg.amps.shape == (2, 2)
    assert np.allclose(reg.amps, 0.5)
    assert abs(reg.norm() - 1) < GATE_TOL


def test_init_identity_s3():
    s3 = catalog()["S3"]
    reg = init_identity([SiteSpec("v", "vertex", s3)])
    expected = np.zeros(6)
    expected[0] = 1
    assert np.allclose(reg.amps, expected)


def test_init_product_mixed():
    sites = z2_sites(2)

    def kinds(spec):
        if spec.sid == ("e", 0):
            return np.array([1.0, 0.0])
        return np.array([0.0, 1.0])

    reg = init_product(sites, kinds)
    assert abs(reg.amps[0, 1] - 1) < GATE_TOL


def test_apply_left_shift_on_cyclic():
    z3 = build_cyclic(3)
    reg = init_identity([SiteSpec("a", "edge", z3)])
    shift = LocalOperator(["a"], "perm", [1, 2, 0], name="L1")
    reg.apply(shift)
    assert abs(reg.amps[1] - 1) < GATE_TOL


def test_apply_rejects_dimension_mismatch():
    reg = init_plus(z2_sites(1))
    bad = LocalOperator([("e", 0)], "perm", [1, 2, 0])
    with pytest.raises(ValueError, match="mismatch"):
        reg.apply(bad)


def test_apply_rejects_retired_site():
    reg = init_plus(z2_sites(2))
    reg.measure_fourier(("e", 0), forced=0)
    op = LocalOperator([("e", 0)], "perm", [1, 0])
    with pytest.raises(ValueError, match="retired"):
        reg.apply(op)


def test_apply_preserves_norm_and_is_linear():
    rng = np.random.default_rng(7)
    sites = z2_sites(3)
    a = init_plus(sites)
    b = init_identity(sites)
    a.amps = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    a.amps /= np.linalg.norm(a.amps)
    ops = [
        LocalOperator([("e", 2), ("e", 0)], "perm", [3, 0, 2, 1], name="P"),
        LocalOperator([("e", 1), ("e", 2)], "diag", np.exp(1j * rng.normal(size=4)), name="D"),
    ]
    combo = a.copy()
    combo.amps = 0.3 * a.amps + 0.7j * b.amps
    for op in ops:
        lhs = combo.copy().apply(op).amps
        rhs = 0.3 * a.copy().apply(op).amps + 0.7j * b.copy().apply(op).amps
        assert np.abs(lhs - rhs).max() < GATE_TOL
        assert abs(a.copy().apply(op).norm() - 1) < GATE_TOL


def test_disjoint_support_gates_commute():
    rng = np.random.default_rng(3)
    sites = z2_sites(4)
    reg = init_plus(sites)
    reg.amps = rng.normal(size=reg.dims) + 1j * rng.normal(size=reg.dims)
    reg.amps /= np.linalg.norm(reg.amps)
    perm = LocalOperator([("e", 0), ("e", 2)], "perm", [2, 0, 3, 1], name="P")
    diag = LocalOperator([("e", 1), ("e", 3)], "diag", np.exp(1j * rng.normal(size=4)), name="D")
    flip = LocalOperator([("e", 3)], "perm", [1, 0], name="X")
    for op1, op2 in [(perm, diag), (perm, flip)]:
        ab = reg.copy().apply(op1).apply(op2).amps
        ba = reg.copy().apply(op2).apply(op1).amps
        assert np.abs(ab - ba).max() < GATE_TOL


def test_gate_then_dagger_is_identity():
    rng = np.random.default_rng(11)
    z3 = build_cyclic(3)
    sites = [SiteSpec(k, "edge", z3) for k in range(2)]
    reg = init_plus(sites)
    reg.amps = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    reg.amps /= np.linalg.norm(reg.amps)
    before = reg.amps.copy()
    chi = character_table(z3)
    ops = [
        LocalOperator([0], "perm", [2, 0, 1], name="L"),
        LocalOperator([1], "diag", chi[1], name="Z"),
        LocalOperator([1, 0], "perm", rng.permutation(9), name="P"),
        LocalOperator([0, 1], "diag", np.exp(1j * rng.normal(size=9)), name="D"),
    ]
    for op in ops:
        reg.apply(op)
        reg.apply(op.dagger())
        assert np.abs(reg.amps - before).max() < GATE_TOL


def test_diagonal_gate_must_be_unimodular():
    with pytest.raises(ValueError, match="bad: unitary diagonal must be unimodular"):
        LocalOperator(["a"], "diag", np.array([1.0, 2.0]), name="bad")


def test_perm_image_validated():
    with pytest.raises(ValueError, match="not a permutation"):
        LocalOperator(["a"], "perm", [0, 0])


def test_operator_arity_capped():
    with pytest.raises(ValueError, match="1-3 targets"):
        LocalOperator([0, 1, 2, 3], "perm", list(range(16)))


def test_retarget_shares_the_checked_table_and_checks_only_targets():
    op = LocalOperator(["a", "b"], "perm", [1, 2, 3, 0], name="P")
    moved = op.retarget(["c", "d"])
    assert moved.targets == ("c", "d") and moved.kind == "perm" and moved.name == "P"
    assert moved.image is op.image
    phase = LocalOperator(["a"], "diag", [1j, -1], name="Z")
    assert phase.retarget(["z"]).diag is phase.diag
    with pytest.raises(ValueError, match="duplicate target sites"):
        op.retarget(["c", "c"])
    with pytest.raises(ValueError, match="P: retargeting needs 2 targets, got 3"):
        op.retarget(["c", "d", "e"])
    with pytest.raises(ValueError, match="P: retargeting needs 2 targets, got 1"):
        op.retarget(["c"])
    with pytest.raises(ValueError, match="not a permutation"):
        LocalOperator(["a", "b"], "perm", [1, 1, 3, 0])


def test_dagger_of_a_permutation_skips_the_check(monkeypatch):
    op = LocalOperator(["a", "b"], "perm", [2, 0, 3, 1], name="P")

    def no_check(*args, **kwargs):
        raise AssertionError("dagger re-checked an inverse permutation")

    monkeypatch.setattr(register.np, "sort", no_check)
    inverse = op.dagger()
    assert inverse.targets == op.targets and inverse.name == "P+"
    assert np.array_equal(inverse.image[op.image], np.arange(4))
    # the inverse's image and source row are the gate's source row and image
    assert inverse.image is op.sources and inverse.sources is op.image


def test_a_permutation_gate_carries_its_read_only_source_row(monkeypatch):
    """A gate builds its source row argsort(image) once; applying the gate
    or a copy retargeted from it sorts nothing again."""
    op = LocalOperator(["a"], "perm", [2, 0, 1], name="C")
    assert np.array_equal(op.sources, np.argsort(op.image)) and not op.sources.flags.writeable
    moved = op.retarget(["b"])
    assert moved.sources is op.sources, "a copy retargeted after the first use shares the row"
    reg = QuditRegister([SiteSpec(s, "edge", build_cyclic(3)) for s in "ab"], np.arange(9.0).reshape(3, 3))
    expected = [_reference_applied(reg, reg.amps, gate) for gate in (op, moved)]

    def no_sort(*args, **kwargs):
        raise AssertionError("a checked gate was sorted again")

    monkeypatch.setattr(register.np, "argsort", no_sort)
    monkeypatch.setattr(register.np, "sort", no_sort)
    assert np.array_equal(reg.copy().apply(op).amps, expected[0])
    assert reg.expectation(moved) == complex(np.vdot(reg.amps, expected[1]))


def test_wall_gates_share_one_read_only_table_per_template(monkeypatch):
    """A wall circuit holds one template per gate, on slot numbers, and one
    row of sites per edge. Its templates, in every call, share the tables of
    the cached gates: read-only, and inverted without a sort; so does every
    gate of the per-edge list it stands for."""
    cell = hexagon_torus()
    namers = (lambda v: ("v", v), lambda e: ("e", e))
    circuit, again = (_wall_gates(CAT["Z3"], cell, *namers) for _ in range(2))
    assert circuit == again and circuit is not again
    assert [op.targets for op in circuit.templates] == [(0, 2), (1, 2)]
    assert circuit.targets == tuple((("v", 0), ("v", 1), ("e", e)) for e in range(cell.n_edges))
    gates = expanded_wall_gates(circuit)
    assert len(gates) == 2 * cell.n_edges
    for e in range(1, cell.n_edges):
        for k in range(2):
            assert gates[2 * e + k].image is gates[k].image is circuit.templates[k].image
    assert [op.targets for op in gates[:2]] == [(("v", 0), ("e", 0)), (("v", 1), ("e", 0))]
    fs = catalog_factor_system("D4")
    split = [_wall_gates(fs, cell, *namers, lambda v: ("q", v)).templates for _ in range(2)]
    assert [op.targets for op in split[0]] == [(0, 2), (1, 2), (3, 2, 4), (3, 2)]
    for first, second in [(circuit.templates, again.templates), split]:
        assert all(a.image is b.image and a.sources is b.sources for a, b in zip(first, second, strict=True))
    cl = gates_module._controlled_left(CAT["Z3"])
    assert circuit.templates[0].image is cl.sources and circuit.templates[0].sources is cl.image, "CL+ is CL's tables swapped"
    for table in [op.image for op in split[0]] + [op.sources for op in split[0]] + [cz_abelian(CAT["Z3"], 0, 1).diag]:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[1]

    def no_sort(*args, **kwargs):
        raise AssertionError("a shared permutation was sorted again")

    pairs = [(controlled_left, gates_module._controlled_left(CAT["A5"])), (controlled_right, gates_module._controlled_right(CAT["A5"]))]
    monkeypatch.setattr(register.np, "argsort", no_sort)
    monkeypatch.setattr(register.np, "sort", no_sort)
    for build, template in pairs:
        shared = build(CAT["A5"], "a", "b")
        assert shared.dagger().image is template.sources
        assert shared.retarget(["c", "d"]).dagger().sources is template.image


def test_matrix_materialization_matches_kinds():
    image = np.array([1, 2, 0])
    op = LocalOperator(["a"], "perm", image)
    expected = np.zeros((3, 3))
    expected[image, np.arange(3)] = 1
    assert np.array_equal(gate_matrix(op), expected)
    phase = np.exp(2j * np.pi * np.arange(3) / 3)
    d = LocalOperator(["a"], "diag", phase)
    assert np.abs(gate_matrix(d) - np.diag(phase)).max() < GATE_TOL


def test_measure_plus_gives_trivial_outcome():
    reg = init_plus(z2_sites(1))
    rng = np.random.default_rng(0)
    outcome = reg.measure_fourier(("e", 0), rng=rng)
    assert outcome == 0
    assert reg.retired[("e", 0)].probability == pytest.approx(1.0, abs=STATE_TOL)


def test_measure_identity_state_is_uniform():
    for outcome in range(2):
        reg = init_identity(z2_sites(1))
        reg.measure_fourier(("e", 0), forced=outcome)
        assert reg.retired[("e", 0)].probability == pytest.approx(0.5, abs=STATE_TOL)


def test_forced_branches_sum_to_one():
    rng = np.random.default_rng(5)
    z3 = build_cyclic(3)
    sites = [SiteSpec(k, "edge", z3) for k in range(2)]
    base = init_plus(sites)
    base.amps = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    base.amps /= np.linalg.norm(base.amps)
    total = 0.0
    for outcome in range(3):
        reg = base.copy()
        got = reg.measure_fourier(0, forced=outcome)
        assert got == outcome
        assert abs(reg.norm() - 1) < STATE_TOL
        total += reg.retired[0].probability
    assert abs(total - 1) < STATE_TOL


def test_collapse_of_an_unnormalized_register_has_norm_one():
    """A norm-5 input: the branch is divided by its raw Born weight, while the
    retired probability stays the normalized one, as in the dense reference."""
    rng = np.random.default_rng(21)
    z3 = build_cyclic(3)
    base = init_plus([SiteSpec(k, "edge", z3) for k in range(2)])
    base.amps = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    base.amps *= 5 / np.linalg.norm(base.amps)
    for outcome in range(3):
        reg, ref = base.copy(), base.copy()
        reg.measure_fourier(0, forced=outcome)
        dense_measure_fourier(ref, 0, forced=outcome)
        assert abs(reg.norm() - 1) < 1e-12
        assert 0 < reg.retired[0].probability < 1
        assert reg.retired[0].probability.hex() == ref.retired[0].probability.hex()
        assert np.array_equal(reg.amps, ref.amps)


def test_forced_zero_probability_rejected_with_report():
    reg = init_plus(z2_sites(1))
    with pytest.raises(ValueError, match="zero Born probability"):
        reg.measure_fourier(("e", 0), forced=1)


def test_measurement_of_a_zero_state_rejected_after_the_rotation():
    sites = [SiteSpec(k, "edge", build_cyclic(3)) for k in range(2)]
    for kwargs in ({"forced": 0}, {"rng": np.random.default_rng(0)}):
        reg = QuditRegister(sites, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="zero state"):
            reg.measure_fourier(1, **kwargs)
        assert reg.dims == (3, 3) and not reg.retired


def test_measure_retires_site_and_keeps_order():
    reg = init_plus(z2_sites(3))
    reg.measure_fourier(("e", 1), forced=0)
    assert [s.sid for s in reg.sites] == [("e", 0), ("e", 2)]
    assert reg.amps.shape == (2, 2)
    with pytest.raises(ValueError, match="retired"):
        reg.measure_fourier(("e", 1), forced=0)


def test_measure_needs_rng_or_forced():
    reg = init_plus(z2_sites(1))
    with pytest.raises(ValueError, match="rng or a forced outcome"):
        reg.measure_fourier(("e", 0))


def test_rejected_measurement_leaves_register_unchanged():
    rng = np.random.default_rng(13)
    z3 = build_cyclic(3)
    reg = init_plus([SiteSpec(k, "edge", z3) for k in range(3)])
    reg.amps = rng.normal(size=reg.dims) + 1j * rng.normal(size=reg.dims)
    reg.amps /= np.linalg.norm(reg.amps)
    reg.measure_fourier(0, forced=1)
    before, sites, retired = reg.amps.copy(), list(reg.sites), dict(reg.retired)
    for kwargs, message in [({"forced": 3}, "out of range"), ({"forced": -1}, "out of range"), ({}, "rng or a forced")]:
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                reg.measure_fourier(2, **kwargs)
            assert np.array_equal(reg.amps, before)
            assert reg.sites == sites and reg.retired == retired


def test_fourier_measurement_rejects_nonabelian_site():
    s3 = catalog()["S3"]
    reg = init_plus([SiteSpec("v", "vertex", s3)])
    with pytest.raises(ValueError, match="abelian"):
        reg.measure_fourier("v", forced=0)


def test_inner_product_layout_mismatch_rejected():
    a = init_plus(z2_sites(2))
    b = init_plus(list(reversed(z2_sites(2))))
    with pytest.raises(ValueError, match="layouts differ"):
        a.inner_product(b)


def test_fidelity_of_orthogonal_and_equal_states():
    a = init_identity(z2_sites(1))
    b = init_identity(z2_sites(1))
    assert abs(a.fidelity(b) - 1) < GATE_TOL
    flip = LocalOperator([("e", 0)], "perm", [1, 0])
    b.apply(flip)
    assert a.fidelity(b) < GATE_TOL


def test_expectation_of_diagonal():
    z4 = build_cyclic(4)
    reg = init_plus([SiteSpec("a", "edge", z4)])
    chi = character_table(z4)
    op = LocalOperator(["a"], "diag", chi[1])
    assert abs(reg.expectation(op)) < GATE_TOL
    reg2 = init_identity([SiteSpec("a", "edge", z4)])
    assert reg2.expectation(op) == pytest.approx(1.0, abs=GATE_TOL)


def test_diagonal_operator_any_arity():
    sites = z2_sites(4)
    reg = init_plus(sites)
    chi = character_table(build_cyclic(2))
    diag = np.ones(16, dtype=complex)
    # parity phase over all four sites
    for idx in range(16):
        bits = [(idx >> (3 - k)) & 1 for k in range(4)]
        diag[idx] = (-1) ** sum(bits)
    op = DiagonalOperator([s.sid for s in sites], diag, name="parity")
    val = reg.expectation(op)
    assert abs(val) < GATE_TOL
    assert abs(chi[1, 1] + 1) < GATE_TOL


def test_add_sites_appends_and_rejects_duplicates():
    reg = init_plus(z2_sites(2))
    z3 = build_cyclic(3)
    reg.add_sites([SiteSpec("p", "plaquette", z3)], lambda s: np.full(3, 1 / np.sqrt(3)))
    assert reg.dims == (2, 2, 3)
    assert abs(reg.norm() - 1) < GATE_TOL
    with pytest.raises(ValueError, match="already used"):
        reg.add_sites([SiteSpec("p", "plaquette", z3)], lambda s: np.full(3, 1 / np.sqrt(3)))


def test_merge_then_split_round_trip():
    rng = np.random.default_rng(9)
    z2 = build_cyclic(2)
    z3 = build_cyclic(3)
    z6 = build_cyclic(6)
    sites = [SiteSpec("n", "edge", z3), SiteSpec("x", "edge", z2), SiteSpec("q", "edge", z2)]
    reg = init_plus(sites)
    reg.amps = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    reg.amps /= np.linalg.norm(reg.amps)
    before = reg.amps.copy()
    merged = SiteSpec("nq", "edge", z6)
    merge_sites(reg, "n", "q", merged)
    assert [s.sid for s in reg.sites] == ["nq", "x"]
    assert reg.spec("nq").dim == 6
    # C-order pairing: joint label 2*n + q
    for n in range(3):
        for q in range(2):
            assert abs(reg.amps[2 * n + q, 0] - before[n, 0, q]) < GATE_TOL
    reg.split_site("nq", SiteSpec("n", "edge", z3), SiteSpec("q", "edge", z2))
    merge_sites(reg, "n", "q", merged)
    reg.split_site("nq", SiteSpec("n", "edge", z3), SiteSpec("q", "edge", z2))
    # move q back to the tail position by layout comparison
    assert [s.sid for s in reg.sites] == ["n", "q", "x"]
    assert np.abs(reg.amps - np.moveaxis(before, 2, 1)).max() < GATE_TOL


@pytest.mark.parametrize("support", [False, True], ids=["dense", "support"])
def test_dims_follow_every_change_to_the_site_list(support):
    """dims and the row-major strides are stored and rebuilt with the site
    index, so they must follow the live sites' dimensions after every step
    that changes the site list."""
    z2, z3, z6 = build_cyclic(2), build_cyclic(3), build_cyclic(6)
    base = init_plus([SiteSpec("a", "edge", z2), SiteSpec("b", "edge", z3)])
    if support:
        base._positions()
    seen = []

    def check(reg):
        assert reg.dims == tuple(s.dim for s in reg.sites)
        assert reg._strides == tuple(int(np.prod(reg.dims[a + 1 :])) for a in range(len(reg.dims)))
        assert reg._dense().shape == reg.dims
        seen.append(reg.dims)

    three = stack(base, 3)
    check(three)
    reg = three.seed(1)
    check(reg)
    reg.add_sites([SiteSpec("c", "edge", z2)], circuit_of_gates([controlled_left(z2, "a", "c")]))
    check(reg)
    merge_sites(reg, "b", "a", SiteSpec("ba", "edge", z6))
    check(reg)
    reg.split_site("ba", SiteSpec("b", "edge", z3), SiteSpec("a", "edge", z2))
    check(reg)
    reg.fuse_sites([(["c", "b"], SiteSpec("cb", "edge", z6), np.arange(6)[::-1])])
    check(reg)
    reg.split_site("cb", SiteSpec("c", "edge", z2), SiteSpec("b", "edge", z3))
    check(reg)
    reg.measure_fourier("c", np.random.default_rng(0))
    check(reg)
    reg.add_sites([SiteSpec("p", "plaquette", z3)], lambda s: np.full(3, 1 / np.sqrt(3)))
    check(reg)
    reg.measure_fourier("p", forced=0)
    check(reg)
    assert seen == [(3, 2, 3), (2, 3), (2, 3, 2), (6, 2), (3, 2, 2), (2, 6), (2, 2, 3), (2, 3), (2, 3, 3), (2, 3)]
    assert base.dims == (2, 3)


def test_merge_respects_label_order_when_b_precedes_a():
    z2 = build_cyclic(2)
    z4 = build_cyclic(4)
    sites = [SiteSpec("b", "edge", z2), SiteSpec("a", "edge", z2)]
    reg = init_identity(sites)
    flip = LocalOperator(["b"], "perm", [1, 0])
    reg.apply(flip)
    merge_sites(reg, "a", "b", SiteSpec("ab", "edge", z4))
    # joint label 2*a + b with a=0, b=1
    assert abs(reg.amps[1] - 1) < GATE_TOL


def test_relabel_site_permutes_basis():
    z3 = build_cyclic(3)
    reg = init_identity([SiteSpec("a", "edge", z3)])
    reg.relabel_site("a", np.array([2, 0, 1]))
    assert abs(reg.amps[2] - 1) < GATE_TOL


@pytest.mark.parametrize("image", [[0, 0, 1], [0, 1, 5], [2, 0], [0, 1, 2, 3], [[0, 1, 2]]])
def test_relabel_site_rejects_a_non_permutation_naming_the_site(image):
    z3 = build_cyclic(3)
    reg = init_identity([SiteSpec("a", "edge", z3), SiteSpec("b", "edge", z3)])
    before = reg.amps.copy()
    with pytest.raises(ValueError, match=r"relabelling of 'b' is not a permutation of its 3 labels"):
        reg.relabel_site("b", image)
    assert np.array_equal(reg.amps, before)


def test_add_sites_rejects_register_over_budget(monkeypatch):
    monkeypatch.setattr(register, "AMPLITUDE_BUDGET", 8)
    reg = init_identity(z2_sites(3))
    more = [SiteSpec(("e", 3), "edge", build_cyclic(2))]
    with pytest.raises(ValueError, match="16 amplitudes exceeds the dense register budget 8"):
        reg.add_sites(more, lambda spec: np.ones(2) / np.sqrt(2))
    assert reg.amps.shape == (2, 2, 2)
    assert len(reg.sites) == 3
    # a gated allocation writes no dense array, but the budget is on the
    # logical size all the same, checked before the rows or a position
    gated, z2 = init_identity(z2_sites(2)), build_cyclic(2)
    gated.add_sites([SiteSpec(("e", 2), "edge", z2)], circuit_of_gates([controlled_left(z2, ("e", 0), ("e", 2))]))
    support, rows = gated._support, register._gated_rows.cache_info()
    with pytest.raises(ValueError, match="16 amplitudes exceeds the dense register budget 8"):
        gated.add_sites(more, circuit_of_gates([controlled_left(z2, ("e", 1), ("e", 3))]))
    assert gated._support is support and register._gated_rows.cache_info() == rows
    assert gated.amps.shape == (2, 2, 2) and len(gated.sites) == 3


# the density of each side; every pair but the sparse ones shares more than
# OVERLAP_CHUNK positions on the larger register. Where one side is full, a
# call on the other side's support form shares every position it reads, and
# reads its chunks in place, while the dense call gathers them.
DENSITIES = {"sparse": (0.01, 0.01), "half": (0.5, 0.5), "full": (1.0, 1.0), "sparse-full": (0.01, 1.0),
             "half-full": (0.5, 1.0), "full-half": (1.0, 0.5)}


@pytest.mark.parametrize("sites", [6, 8], ids=["4^6", "4^8"])
@pytest.mark.parametrize("densities", DENSITIES.values(), ids=DENSITIES.keys())
def test_overlaps_on_the_support_match_the_densified_registers_bitwise(sites, densities):
    """inner_product, fidelity and norm give the same bits whichever operand
    holds the support form: both sum the products at the positions where
    both sides are nonzero, in position order. The draws leave entries that
    are zero on one side only, some of them negative zeros, and a support
    form is read where it is, never densified."""
    z4 = build_cyclic(4)
    specs = [SiteSpec(k, "edge", z4) for k in range(sites)]
    rng = np.random.default_rng(sites)

    def draw(density):
        size = 4**sites
        amps = (rng.normal(size=size) + 1j * rng.normal(size=size)) * (rng.random(size) < density)
        return amps / np.linalg.norm(amps)

    def forms(amps):
        dense, support = QuditRegister(specs, amps), QuditRegister(specs, amps)
        support._positions()
        return {"dense": dense, "support": support}

    bras, kets = forms(draw(densities[0])), forms(draw(densities[1]))
    want = bras["dense"].inner_product(kets["dense"])
    assert abs(want - np.vdot(bras["dense"].amps, kets["dense"].amps)) < 1e-12
    for bra_form, bra in bras.items():
        assert bra.norm().hex() == bras["dense"].norm().hex(), bra_form
        for ket_form, ket in kets.items():
            got = bra.inner_product(ket)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (bra_form, ket_form)
            assert bra.fidelity(ket).hex() == (abs(want) ** 2).hex(), (bra_form, ket_form)
    assert bras["support"]._support is not None and kets["support"]._support is not None


def test_an_overlap_of_two_support_forms_gathers_by_searchsorted(monkeypatch):
    """A support form read at the other's positions finds them with one
    searchsorted, not np.intersect1d, with the bits of the dense call, also
    where one side has no entry at all."""
    z4 = build_cyclic(4)
    specs = [SiteSpec(k, "edge", z4) for k in range(6)]
    rng = np.random.default_rng(3)
    size = 4**6
    draws = [(rng.normal(size=size) + 1j * rng.normal(size=size)) * (rng.random(size) < 0.3) for _ in range(2)]
    dense = [QuditRegister(specs, amps) for amps in draws + [np.zeros(size)]]
    support = [QuditRegister(specs, amps) for amps in draws + [np.zeros(size)]]
    for reg in support:
        reg._positions()

    def forbidden(*args, **kwargs):
        raise AssertionError("np.intersect1d called")

    monkeypatch.setattr(np, "intersect1d", forbidden)
    for a in range(3):
        for b in range(3):
            want, got = dense[a].inner_product(dense[b]), support[a].inner_product(support[b])
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (a, b)
    assert all(reg._support is not None for reg in support)


def test_a_copy_leaves_a_support_form_as_it_was():
    """copy() reads the dense amplitudes without storing them, so a frozen or
    shared support form keeps its arrays, and the copy is a writable dense
    register of the same state."""
    z3 = build_cyclic(3)
    reg = init_identity([SiteSpec("a", "edge", z3), SiteSpec("b", "edge", z3)])
    reg.add_sites([SiteSpec("c", "edge", z3)], circuit_of_gates([controlled_left(z3, "a", "c")]))
    reg.freeze()
    flat, values = reg._support
    out = reg.copy()
    assert reg._amps is None and reg._support[0] is flat and reg._support[1] is values
    assert out._support is None and out.amps.flags.writeable
    assert np.array_equal(out.amps, reg._dense())


def test_duplicate_site_ids_rejected():
    z2 = build_cyclic(2)
    with pytest.raises(ValueError, match="duplicate"):
        QuditRegister([SiteSpec("a", "edge", z2), SiteSpec("a", "edge", z2)], np.zeros((2, 2)))


def _transient(build, call):
    """The register build returns and the peak memory call then allocates on
    it beyond what was live before, in sizes of that register. build runs
    traced, so arrays the call frees count against its peak."""
    tracemalloc.start()
    try:
        reg = build()
        size = reg.amps.nbytes
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        call(reg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return reg, (peak - before) / size


def random_z3_register(symmetric_axes=()):
    """A normalized random state on ten Z3 sites 0..9, optionally even under
    inverting the labels of the given axes together."""
    rng = np.random.default_rng(17)
    z3 = build_cyclic(3)
    dims = (3,) * 10
    amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    flipped = amps
    for axis in symmetric_axes:
        flipped = np.take(flipped, z3.inv, axis=axis)
    if symmetric_axes:
        amps = amps + flipped
    return QuditRegister([SiteSpec(k, "edge", z3) for k in range(10)], amps / np.linalg.norm(amps))


# measured on a 3^10 register: 1.34, 1.34, 1.1, 2.0 and 1.0 register sizes; a
# second register-sized copy in the measurement, the diagonal or the one-site
# take exceeds its bound. The norm took 0.07: every position is shared, so its
# overlap holds their mask and reads the chunks in place (0.59 at half density,
# with the shared positions); a gathered copy of the register exceeds its bound. A measurement of the dense state rotates every column
# and holds the rotated block, one conjugated row of it and the branch. The
# three-site permutation moves its axes to the front and merges them, a copy,
# before its take.
PHASES = LocalOperator([7, 2], "diag", np.exp(2j * np.pi * np.arange(9) / 9), name="D")
SHUFFLE = LocalOperator([8, 1, 5], "perm", (np.arange(27) * 5 + 1) % 27, name="P")
CYCLE = LocalOperator([4], "perm", [1, 2, 0], name="C")
TRANSIENT_BOUNDS = [
    ("measure_fourier on the front site", lambda reg: reg.measure_fourier(0, forced=0), 1.5),
    ("measure_fourier on an inner site", lambda reg: reg.measure_fourier(6, forced=0), 1.5),
    ("two-site diagonal", lambda reg: reg.apply(PHASES), 1.5),
    ("three-site permutation", lambda reg: reg.apply(SHUFFLE), 2.5),
    ("one-site permutation", lambda reg: reg.apply(CYCLE), 1.5),
    ("norm", lambda reg: reg.norm(), 1.0),
]


@pytest.mark.parametrize("label, call, bound", TRANSIENT_BOUNDS, ids=[case[0] for case in TRANSIENT_BOUNDS])
def test_register_calls_stay_within_their_transient_memory(label, call, bound):
    reg, transient = _transient(random_z3_register, call)
    assert abs(reg.norm() - 1) < STATE_TOL
    assert transient <= bound, f"{label}: transient {transient:.2f} register sizes"


def _report_transient(build):
    """The transient of the report on the Z3 edges of square_torus(2,2), on
    sites 1..8 between two spectators, of a register build returns."""
    cell = square_torus(2, 2)
    reports = []
    _, transient = _transient(
        build, lambda reg: reports.append(verify.stabilizer_report(reg, reg.spec(1).group, cell, lambda e: e + 1))
    )
    assert len(reports[0].vertex_expectations) == cell.n_vertices
    return transient


def test_stabilizer_report_stays_within_its_transient_memory():
    """Measured at 3.06 register sizes on the dense state: the state at its
    support positions and one term's row there (a register each at full
    density), the positions and a projector row's shared positions (half a
    register each) and one block of label moves and gathered copies. A zero
    ket of full length in place of the row held 1.85, but its overlap read
    every amplitude, and on a sparse state the rows are smaller (THINNED).
    The dense sweep it replaced held 4.1: the scaled state, the vertex
    accumulator and the two ends of one per-axis take."""
    transient = _report_transient(lambda: random_z3_register(symmetric_axes=range(1, 9)))
    assert transient <= 4.5, f"stabilizer_report: transient {transient:.2f} register sizes"


def test_a_vertex_route_round_writes_no_register_sized_array():
    """Z3 on square_torus(2, 2): one kw_abelian round (symmetry check,
    gated allocation, measurements and corrections, its wall-gate list
    included) passes through 3^12 = 531,441 amplitudes (8.5 MB) with 81 of
    them nonzero. The gated allocation writes the support form and the four
    measurements read it, so nothing is dense until the 3^8 output the
    corrections read: measured 0.0024 register sizes, as when the round
    ran on a wall-gate list built before it; 1.33 when the allocation wrote
    the dense array and the measurements read it. A warm-up run builds the
    cached gate rows and Fourier matrix."""
    z3, cell = build_cyclic(3), square_torus(2, 2)

    def run(seed):
        reg = init_plus([SiteSpec(_vertex_site(v), "vertex", z3) for v in range(cell.n_vertices)])
        kw_abelian(reg, cell, z3, KwMode.sample(seed))
        return reg

    run(0)
    for seed in range(1, 5):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            reg = run(seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        transient = (peak - before) / (3**12 * 16)
        assert reg.dims == (3,) * 8 and abs(reg.norm() - 1) < STATE_TOL
        assert transient <= 0.06, f"seed {seed}: transient {transient:.3f} register sizes"


def thinned_z3_register(density, measured_axis=None):
    """random_z3_register zeroed off a random support of about the density,
    then normalized. For a measured axis the support is whole columns of
    the other sites, so that about that share of the measurement's columns
    is live; otherwise it is closed under the label inversion of sites 1..8,
    so the state stays even under it."""
    rng = np.random.default_rng(5)
    reg = random_z3_register(symmetric_axes=() if measured_axis is not None else range(1, 9))
    if measured_axis is not None:
        live = rng.permutation(3**9) < int(density * 3**9)
        mask = np.expand_dims(live.reshape((3,) * 9), measured_axis)
    else:
        # x in the support or its inverse in it: density 1-(1-p)^2
        keep = rng.random(reg.dims) < 1 - np.sqrt(1 - density)
        mask = keep
        for axis in range(1, 9):
            mask = np.take(mask, reg.spec(axis).group.inv, axis=axis)
        mask = mask | keep
    amps = reg.amps * mask
    return QuditRegister(reg.sites, amps / np.linalg.norm(amps))


# half the columns is the most the measurement gathers; measured 1.09 and 0.35
# register sizes for the measurement, 1.65 and 0.21 for the report (1.53 and
# 1.20 with a zero ket of full length)
THINNED = {"half-dense": 0.5, "sparse": 0.01}


@pytest.mark.parametrize("density", THINNED.values(), ids=THINNED.keys())
def test_support_reads_stay_within_their_transient_memory_on_thinned_registers(density):
    reg, transient = _transient(lambda: thinned_z3_register(density, 0), lambda reg: reg.measure_fourier(0, forced=0))
    assert abs(reg.norm() - 1) < STATE_TOL
    assert transient <= 1.5, f"measure_fourier: transient {transient:.2f} register sizes"
    transient = _report_transient(lambda: thinned_z3_register(density))
    assert transient <= 4.5, f"stabilizer_report: transient {transient:.2f} register sizes"


@pytest.mark.parametrize("axis", [0, 6])
@pytest.mark.parametrize("density", THINNED.values(), ids=THINNED.keys())
def test_live_column_measurement_matches_the_dense_path_bitwise_on_thinned_registers(density, axis):
    """Blocks of 3 x 19,683 whose live columns the measurement reads: 9,841
    at half density, more than one 8,192-element numpy iterator buffer,
    which could split the einsum's reduction. Forced and sampled outcomes
    give the dense path's outcome, weight and collapsed state bit for bit."""
    assert thinned_z3_register(density, axis)._live_block(3**axis, 3, 3 ** (9 - axis))[1] is not None
    for kwargs in [{"forced": k} for k in range(3)] + [{"seed": seed} for seed in range(3)]:
        reg, ref = thinned_z3_register(density, axis), thinned_z3_register(density, axis)
        rngs = [{"rng": np.random.default_rng(kwargs["seed"])} if "seed" in kwargs else kwargs for _ in range(2)]
        assert reg.measure_fourier(axis, **rngs[0]) == dense_measure_fourier(ref, axis, **rngs[1]), kwargs
        assert reg.retired[axis].probability.hex() == ref.retired[axis].probability.hex(), kwargs
        assert reg.layout == ref.layout and np.array_equal(reg.amps, ref.amps), kwargs


def _laid_out(block, layout):
    """The block itself, a transposed copy's view, a strided slice of a wider
    array, or a (dim, A, B) moveaxis view: the same entries in four layouts."""
    if layout == "transposed":
        return np.ascontiguousarray(block.T).T
    if layout == "strided":
        wide = np.zeros((block.shape[0], 2 * block.shape[1]), dtype=block.dtype)
        wide[:, ::2] = block
        return wide[:, ::2]
    if layout == "moved" and block.shape[1] % 3 == 0:
        return np.moveaxis(block.reshape(block.shape[0], 3, -1), 0, 1).copy().swapaxes(0, 1)
    return block


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(2, 8),
    st.integers(1, 12_000),
    st.sampled_from(["contiguous", "transposed", "strided", "moved"]),
    st.integers(0, 2**32 - 1),
)
def test_the_rotation_kernel_is_column_local_and_within_1e_15_of_the_blas_product(dim, n, layout, seed):
    """Every column of the rotation has the same bits whichever columns, in
    whichever layout, the block holds, and differs from the BLAS product F @
    block by at most 1e-15 on columns of norm 1; the Born weights equal one
    einsum over the whole rotated block bitwise, across the 8,192-entry
    iterator buffer."""
    rng = np.random.default_rng(seed)
    fourier = register._fourier_matrix(build_cyclic(dim))
    block = rng.normal(size=(dim, n)) + 1j * rng.normal(size=(dim, n))
    block /= np.linalg.norm(block, axis=0)
    whole = register._rotated(fourier, _laid_out(block, layout)).reshape(dim, -1)
    assert np.array_equal(whole, register._rotated(fourier, block))
    assert np.abs(whole - fourier @ block).max() <= 1e-15
    subset = np.flatnonzero(rng.random(n) < rng.random())
    part = register._rotated(fourier, _laid_out(block[:, subset], layout)).reshape(dim, -1)
    assert np.array_equal(part, whole[:, subset])
    weights = np.einsum("ij,ij->i", whole, np.conj(whole)).real
    assert np.array_equal(register._born_weights(whole), weights)


@pytest.mark.parametrize("dim", [2, 3, 8])
@pytest.mark.parametrize("n", [8192, 8193, 59_049])
def test_the_born_weights_equal_one_einsum_over_the_block_bitwise(dim, n):
    """Past one 8,192-entry iterator buffer too, where einsum sums a lone
    row in another order than a row of a taller block (seen with numpy 2.4
    on 9,000 to 59,049 entries)."""
    rng = np.random.default_rng(n + dim)
    block = rng.normal(size=(dim, n)) + 1j * rng.normal(size=(dim, n))
    weights = np.einsum("ij,ij->i", block, np.conj(block)).real
    assert np.array_equal(register._born_weights(block), weights)


def test_a_sparse_measurement_off_the_front_site_copies_no_register():
    """The live columns of a site off axis 0 are read in place from the
    (A, dim, B) reshape, so the measurement holds the branch (1/3 of the
    register) and its live columns: measured 0.35 register sizes, 1.00 when
    the site's axis was first moved to the front by a copy."""
    reg, transient = _transient(lambda: thinned_z3_register(0.01, 6), lambda reg: reg.measure_fourier(6, forced=0))
    assert abs(reg.norm() - 1) < STATE_TOL
    assert transient <= 0.5, f"measure_fourier off the front: transient {transient:.2f} register sizes"


def odd_z3_register():
    """random_z3_register made odd under inverting the labels of site 2, so
    its Fourier outcome 0 on that site has weight zero."""
    reg = random_z3_register()
    odd = reg.amps - np.take(reg.amps, reg.spec(2).group.inv, axis=2)
    return QuditRegister(reg.sites, odd / np.linalg.norm(odd))


def small_odd_register():
    """Three Z3 sites, below LIVE_READ_MIN, odd under inverting site 2."""
    rng = np.random.default_rng(8)
    amps = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    odd = amps - amps[:, :, [0, 2, 1]]
    return QuditRegister([SiteSpec(k, "edge", build_cyclic(3)) for k in range(3)], odd)


# a whole-block read (dense, or below LIVE_READ_MIN) and a live-column read
# (no live column) of each rejection after the rotation
REJECTIONS = {
    "zero-probability forced outcome": (odd_z3_register, "zero Born probability"),
    "zero state": (lambda: QuditRegister(random_z3_register().sites, np.zeros((3,) * 10)), "zero state"),
    "small zero-probability forced outcome": (small_odd_register, "zero Born probability"),
    "small zero state": (lambda: QuditRegister(small_odd_register().sites, np.zeros((3,) * 3)), "zero state"),
}


@pytest.mark.parametrize("build, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_a_rejected_measurement_leaves_the_register_bitwise_as_it_was(build, message):
    """A rejection after the rotation leaves the register's array, its bits,
    its sites and its retired record as they were, and the register still
    measures: the rotation is never stored in it."""
    reg = build()
    amps, before, sites = reg.amps, reg.amps.copy(), list(reg.sites)
    with pytest.raises(ValueError, match=message):
        reg.measure_fourier(2, forced=0)
    assert reg.amps is amps and np.array_equal(reg.amps, before) and reg.sites == sites and not reg.retired
    if message == "zero Born probability":
        assert reg.measure_fourier(2, forced=1) == 1 and abs(reg.norm() - 1) < 1e-12


def test_a_branch_in_support_form_keeps_only_its_nonzero_entries(monkeypatch):
    """Of two live columns of a Z2 site, one sums to zero, so the outcome-0
    branch holds an exact zero there: the support positions leave it out,
    as a scan of the dense branch would, and hold the other column."""
    monkeypatch.setattr(register, "LIVE_READ_MIN", 0)
    amps = np.zeros((2, 4), dtype=np.complex128)
    amps[:, 0], amps[:, 1] = [0.5, -0.5], [0.5, 0.5]
    reg = QuditRegister([SiteSpec("a", "edge", build_cyclic(2)), SiteSpec("b", "edge", build_cyclic(4))], amps)
    assert reg.measure_fourier("a", forced=0) == 0
    assert reg._support[0].tolist() == [1]
    assert np.allclose(reg.amps, [0, 1, 0, 0], atol=STATE_TOL, rtol=0)


def _measured_record(seed):
    """Five sampled measurements of a random state on ten Z3 sites, with
    each outcome, probability and the collapsed amplitudes."""
    rng = np.random.default_rng(seed)
    z3 = build_cyclic(3)
    amps = rng.normal(size=(3,) * 10) + 1j * rng.normal(size=(3,) * 10)
    reg = QuditRegister([SiteSpec(k, "edge", z3) for k in range(10)], amps / np.linalg.norm(amps))
    record = []
    for sid in (3, 0, 7, 1, 9):
        outcome = reg.measure_fourier(sid, rng=rng)
        record.append((outcome, reg.retired[sid].probability.hex()))
    return record, reg.amps


def test_threads_measuring_at_once_match_a_serial_run_bitwise():
    """16 registers measured on 8 threads, switching as often as the
    interpreter allows: a measurement keeps no state outside its register,
    so none reads another's rotation."""
    serial = [_measured_record(seed) for seed in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(_measured_record, seed) for seed in range(16)]
            threaded = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for (record, amps), (ref_record, ref_amps) in zip(threaded, serial):
        assert record == ref_record
        assert np.array_equal(amps, ref_amps)


@pytest.mark.parametrize("dim", range(2, 9))
def test_the_sampler_draws_what_rng_choice_draws(dim):
    """Same outcome and same generator state as rng.choice(dim, p=q), over
    weights with exact zeros (first, last and inner) and several draws per
    generator."""
    weights = np.random.default_rng(dim)
    for seed in range(40):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            w = weights.random(dim) * (weights.random(dim) < 0.7)
            w[weights.integers(dim)] += 0.5
            q = w / w.sum()
            assert register._sample([rng], q[None]).tolist() == [int(ref.choice(dim, p=q))]
            assert rng.bit_generator.state == ref.bit_generator.state
        # several generators, one row each, drawing in order
        rows = weights.random((4, dim)) + 0.01
        rows /= rows.sum(axis=1, keepdims=True)
        rngs, refs = [np.random.default_rng((seed, s)) for s in range(4)], [np.random.default_rng((seed, s)) for s in range(4)]
        assert register._sample(rngs, rows).tolist() == [int(r.choice(dim, p=q)) for r, q in zip(refs, rows)]
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in refs]
    # a draw equal to an entry of the cumulative row lands above it, as
    # np.searchsorted(side="right") puts it; one row read by every generator
    q = np.full(dim, 1 / dim)
    cdf = q.cumsum() / q.cumsum()[-1]
    stubs = [mock.Mock(random=mock.Mock(return_value=u)) for u in [0.0, *cdf[:-1]]]
    want = [int(cdf.searchsorted(u, side="right")) for u in [0.0, *cdf[:-1]]]
    assert register._sample(stubs, q[None]).tolist() == want


# --- gated allocation -------------------------------------------------------------

CAT = catalog()
CLOSED_CELLS = [hexagon_torus, theta_sphere, tetrahedron_sphere, lambda: square_torus(2, 2), lambda: square_torus(3, 2)]
# largest register the sweep builds: Z3 on square_torus(2,2), the dense benchmark
# case, with its spectator; the gate-by-gate reference copies it once per gate
SWEEP_AMPLITUDES = 2 * 3**12


def vertex_rounds(cell):
    """Every vertex-route round shape the protocols run, as (label, sites in
    front of the vertices, vertex sites, gauged subject, global left action,
    its order).

    Plain groups and the shipped factor systems get one Z2 spectator in front;
    the A4 and S4 derived-series stages get the live edges of their earlier
    rounds there, as a multi-round run carries them."""
    n_v = cell.n_vertices
    spectator = [SiteSpec("x", "edge", build_cyclic(2))]

    def abelian(label, front, a_group):
        verts = [SiteSpec(("v", v), "vertex", a_group) for v in range(n_v)]
        action = lambda g: [left_mult(a_group, g, ("v", v)) for v in range(n_v)]
        return label, front, verts, a_group, action, a_group.order

    def split(label, front, fs):
        verts = [SiteSpec((part, v), "vertex", grp) for v in range(n_v) for part, grp in [("n", fs.n_group), ("q", fs.q_group)]]
        action = lambda g: [split_left_mult(fs, g, ("n", v), ("q", v)) for v in range(n_v)]
        return label, front, verts, fs, action, fs.parent.order

    for name in ("Z1", "Z2", "Z3", "Z4", "Z6", "Z2xZ2"):
        yield abelian(name, spectator, CAT[name])
    for name in ("S3", "D4", "Q8"):
        yield split(name, spectator, catalog_factor_system(name))
    for name in ("A4", "S4"):
        chain = _solvable_chain(CAT[name])
        earlier = []
        for j, fs in enumerate(chain):
            yield split(f"{name} stage {j}", earlier, fs)
            earlier = earlier + [SiteSpec(("e", e, j), "edge", fs.n_group) for e in range(cell.n_edges)]
        yield abelian(f"{name} abelian stage", earlier, chain[-1].q_group)


def acted(reg, ops):
    out = reg.copy()
    for op in ops:
        out.apply(op)
    return out.amps


def test_gated_allocation_matches_gate_by_gate_application():
    rng = np.random.default_rng(21)
    checked = []
    for make_cell in CLOSED_CELLS:
        cell = make_cell()
        for label, front, verts, subject, action, order in vertex_rounds(cell):
            split = isinstance(subject, FactorSystem)
            edge_group = subject.n_group if split else subject
            specs = [SiteSpec(("w", e), "edge", edge_group) for e in range(cell.n_edges)]
            if np.prod([s.dim for s in front + verts + specs], dtype=float) > SWEEP_AMPLITUDES:
                continue
            if split:
                circuit = _wall_gates(subject, cell, lambda v: ("n", v), lambda e: ("w", e), lambda v: ("q", v))
            else:
                circuit = _wall_gates(subject, cell, lambda v: ("v", v), lambda e: ("w", e))
            random = init_plus(front + verts)
            random.amps = rng.normal(size=random.dims) + 1j * rng.normal(size=random.dims)
            symmetric = random.copy()
            symmetric.amps = sum(acted(random, action(g)) for g in range(order))
            for reg in (random, symmetric):
                reg.amps = reg.amps / np.linalg.norm(reg.amps)
                ref = reg.copy()
                ref.add_sites(specs, identity_state)
                for op in expanded_wall_gates(circuit):
                    ref.apply(op)
                reg.add_sites(specs, circuit)
                assert [s.sid for s in reg.sites] == [s.sid for s in ref.sites]
                assert np.array_equal(reg.amps, ref.amps), (label, cell.name)
            checked.append((label, cell.name))
    assert len(checked) == 38
    assert {label for label, _ in checked} == {case[0] for case in vertex_rounds(hexagon_torus())}


def test_gated_allocation_rejects_what_one_scatter_cannot_write(monkeypatch):
    """A circuit with a diagonal template is refused when it is built, and
    one whose template moves a vertex label when its rows are pushed; the
    register is left as it was. The budget is checked before any label
    work."""
    z3 = build_cyclic(3)
    cell = hexagon_torus()
    reg = init_plus([SiteSpec(("v", v), "vertex", z3) for v in range(cell.n_vertices)])
    specs = [SiteSpec(("e", e), "edge", z3) for e in range(cell.n_edges)]
    walls = _wall_gates(z3, cell, lambda v: ("v", v), lambda e: ("e", e))
    with pytest.raises(ValueError, match="CZ: label push needs a phase-free"):
        WallCircuit(walls.templates + (cz_abelian(z3, 0, 2),), walls.targets)
    # label x -> -x on the edge's final vertex, once per edge: an odd number of flips
    moved = WallCircuit(walls.templates + (LocalOperator([1], "perm", [0, 2, 1], name="flip"),), walls.targets)
    with pytest.raises(ValueError, match=r"moved the label of live site \('v', 1\)"):
        reg.add_sites(specs, moved)
    assert reg.dims == (3, 3) and len(reg.sites) == 2
    assert np.allclose(reg.amps, 1 / 3)

    def no_label_push(*args):
        raise AssertionError("the budget check must come before any label work or allocation")

    monkeypatch.setattr(register, "AMPLITUDE_BUDGET", 242)
    monkeypatch.setattr(register, "_push_labels", no_label_push)
    with pytest.raises(ValueError, match="243 amplitudes exceeds the dense register budget 242"):
        reg.add_sites(specs, walls)
    assert reg.dims == (3, 3) and len(reg.sites) == 2


# --- gates and per-axis permutation takes, cross-checked against the moveaxis path


def _reference_applied(reg, amps, op):
    """The slow path: move the op's target axes of amps, laid out as reg's live
    sites, to the front, act on the (joint label, rest) block, move them back."""
    axes = tuple(reg.pos(t) for t in op.targets)
    moved = np.moveaxis(amps, axes, range(len(axes)))
    block = moved.reshape(math.prod(moved.shape[: len(axes)]), -1)
    if isinstance(op, LocalOperator) and op.kind == "perm":
        out = np.empty_like(block)
        out[op.image] = block
    else:
        out = block * op.diag[:, None]
    return np.moveaxis(out.reshape(moved.shape), range(len(axes)), axes)


def _random_register(draw, min_sites, max_sites):
    """Random amplitudes on 2- to 4-dimensional sites ("s", k), and the rng
    that drew them."""
    dims = draw(st.lists(st.integers(2, 4), min_size=min_sites, max_size=max_sites))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sites = [SiteSpec(("s", k), "edge", build_cyclic(d)) for k, d in enumerate(dims)]
    # first site stored fastest: a register whose amplitudes are not C-contiguous
    raw = rng.normal(size=tuple(dims[1:]) + (dims[0],)) + 1j * rng.normal(size=tuple(dims[1:]) + (dims[0],))
    return QuditRegister(sites, np.moveaxis(raw, -1, 0)), rng


@st.composite
def register_gates(draw):
    """A random register and a few gates on it: 1-3-site permutations and
    phase diagonals, and diagonal operators on up to 4 sites, each on sites
    drawn in any register order."""
    reg, rng = _random_register(draw, 4, 5)
    dims = reg.dims
    gates = []
    for k in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["perm", "diag", "any-arity diagonal"]))
        arity = draw(st.integers(1, 4 if kind == "any-arity diagonal" else 3))
        sites = draw(st.permutations(range(len(dims))))[:arity]
        targets = [("s", s) for s in sites]
        joint = math.prod(dims[s] for s in sites)
        if kind == "perm":
            gates.append(LocalOperator(targets, "perm", draw(st.permutations(range(joint))), name=f"P{k}"))
        elif kind == "diag":
            gates.append(LocalOperator(targets, "diag", np.exp(2j * np.pi * rng.random(joint)), name=f"D{k}"))
        else:
            gates.append(DiagonalOperator(targets, rng.normal(size=joint) + 1j * rng.normal(size=joint), name=f"T{k}"))
    return reg, gates


@settings(max_examples=80, deadline=None, derandomize=True)
@given(register_gates())
def test_gates_match_the_moveaxis_reference_bitwise(case):
    reg, gates = case
    assert not reg.amps.flags.c_contiguous
    for op in gates:
        ref = _reference_applied(reg, reg.amps, op)
        assert reg.expectation(op) == complex(np.vdot(reg.amps, ref))
        reg.apply(op)
        assert np.array_equal(reg.amps, ref), op.name


# one per-axis take for each target shape: merged in place, or moved to the front first
TARGET_SHAPES = {"adjacent ascending": [1, 2], "adjacent descending": [2, 1], "non-adjacent": [3, 0, 2]}


@pytest.mark.parametrize("targets", TARGET_SHAPES.values(), ids=TARGET_SHAPES.keys())
def test_permuted_reads_every_target_shape_from_its_source_labels(targets):
    rng = np.random.default_rng(8)
    dims = (2, 3, 4, 2, 3)
    amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    reg = QuditRegister([SiteSpec(("s", k), "edge", build_cyclic(d)) for k, d in enumerate(dims)], amps)
    sub = [dims[k] for k in targets]
    sources = rng.permutation(math.prod(sub))
    op = LocalOperator([("s", k) for k in targets], "perm", np.argsort(sources))
    out = reg.copy().apply(op).amps
    for index in np.ndindex(*dims):
        # the joint label of the targets, row-major in target order, and its source
        label = np.ravel_multi_index([index[k] for k in targets], sub)
        src = list(index)
        for k, part in zip(targets, np.unravel_index(sources[label], sub)):
            src[k] = part
        assert out[index] == amps[tuple(src)]
    assert np.array_equal(out, _reference_applied(reg, amps, op))
