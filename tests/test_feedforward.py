"""Syndrome interpretation and spanning-tree outcome repair."""

import numpy as np
import pytest

from gaugekit.cellulation import (
    dual_spanning_tree,
    hexagon_torus,
    spanning_tree,
    square_torus,
    tetrahedron_sphere,
    theta_sphere,
    two_vertex_graph,
)
from gaugekit.feedforward import (
    CorrectionPlan,
    SyndromeSet,
    charge_correction,
    flux_correction,
)
from gaugekit.groups import catalog
from reference import nontrivial, plan_boundary


CAT = catalog()


def random_syndrome(rng, kind, n_sites, group):
    labels = [int(rng.integers(group.order)) for _ in range(n_sites - 1)]
    total = 0
    for c in labels:
        total = group.mul(total, c)
    labels.append(group.inverse(total))
    return SyndromeSet(kind, dict(enumerate(labels)), group)


def test_syndrome_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown syndrome kind"):
        SyndromeSet("spin", {0: 0}, CAT["Z2"])


def test_syndrome_rejects_nonabelian_group():
    with pytest.raises(ValueError, match="abelian"):
        SyndromeSet("charge", {0: 0}, CAT["S3"])


def test_syndrome_rejects_violated_global_constraint():
    with pytest.raises(ValueError, match="global constraint is violated"):
        SyndromeSet("charge", {0: 1, 1: 0}, CAT["Z2"])
    with pytest.raises(ValueError, match="global constraint is violated"):
        SyndromeSet("flux", {0: 1, 1: 1}, CAT["Z3"])


def test_syndrome_nontrivial_filter():
    s = SyndromeSet("charge", {0: 1, 1: 0, 2: 2}, CAT["Z3"])
    assert nontrivial(s) == {0: 1, 2: 2}


def test_plan_inverse_and_empty():
    z4 = CAT["Z4"]
    plan = CorrectionPlan(basis="Z", exponents={0: 1, 3: 3}, group=z4)
    inv = plan.inverse()
    assert inv.exponents == {0: 3, 3: 1}
    assert inv.inverse().exponents == plan.exponents
    assert plan.exponents
    assert not CorrectionPlan(basis="Z", exponents={}, group=z4).exponents


def test_kind_mismatch_rejected():
    cell = square_torus(2, 2)
    s = SyndromeSet("flux", {p: 0 for p in range(cell.n_plaquettes)}, CAT["Z2"])
    with pytest.raises(ValueError, match="charge syndrome"):
        charge_correction(s, cell, spanning_tree(cell))
    c = SyndromeSet("charge", {v: 0 for v in range(cell.n_vertices)}, CAT["Z2"])
    with pytest.raises(ValueError, match="flux syndrome"):
        flux_correction(c, cell, dual_spanning_tree(cell))


def test_trivial_syndrome_gives_empty_plan():
    cell = hexagon_torus()
    s = SyndromeSet("charge", {v: 0 for v in range(cell.n_vertices)}, CAT["Z3"])
    assert not charge_correction(s, cell, spanning_tree(cell)).exponents


def test_two_vertex_charge_transport():
    """A single charge pair moves along the one edge joining the vertices."""
    cell = two_vertex_graph()
    tree = spanning_tree(cell)
    z3 = CAT["Z3"]
    s = SyndromeSet("charge", {0: 2, 1: 1}, z3)
    plan = charge_correction(s, cell, tree)
    assert plan.basis == "Z"
    assert plan.exponents == {0: 1}
    assert plan_boundary(plan, cell) == {0: 2, 1: 1}


def test_charge_boundary_matches_syndrome():
    """Transport is exact: the plan's boundary reproduces every valid syndrome."""
    rng = np.random.default_rng(5)
    cells = [square_torus(2, 2), square_torus(3, 2), hexagon_torus(), theta_sphere(), tetrahedron_sphere()]
    for cell in cells:
        tree = spanning_tree(cell)
        for gname in ("Z2", "Z3", "Z4", "Z6", "Z2xZ2"):
            group = CAT[gname]
            for _ in range(10):
                s = random_syndrome(rng, "charge", cell.n_vertices, group)
                plan = charge_correction(s, cell, tree)
                bnd = plan_boundary(plan, cell)
                for v in range(cell.n_vertices):
                    assert bnd.get(v, 0) == s.outcomes[v], (cell.name, gname)


def test_flux_boundary_matches_syndrome():
    rng = np.random.default_rng(6)
    for cell in [square_torus(2, 2), square_torus(3, 2), theta_sphere(), tetrahedron_sphere()]:
        tree = dual_spanning_tree(cell)
        for gname in ("Z2", "Z3", "Z4", "Z6"):
            group = CAT[gname]
            for _ in range(10):
                s = random_syndrome(rng, "flux", cell.n_plaquettes, group)
                plan = flux_correction(s, cell, tree)
                assert plan.basis == "X"
                bnd = plan_boundary(plan, cell)
                for p in range(cell.n_plaquettes):
                    assert bnd.get(p, 0) == s.outcomes[p], (cell.name, gname)


def test_hexagon_flux_syndromes_are_trivial():
    """One plaquette means the global constraint forces the trivial outcome."""
    cell = hexagon_torus()
    with pytest.raises(ValueError, match="global constraint"):
        SyndromeSet("flux", {0: 1}, CAT["Z2"])
    s = SyndromeSet("flux", {0: 0}, CAT["Z2"])
    assert not flux_correction(s, cell, dual_spanning_tree(cell)).exponents


def test_degenerate_dual_edges_carry_no_transport():
    """Hexagon dual self-loops never enter a dual tree path."""
    cell = hexagon_torus()
    tree = dual_spanning_tree(cell)
    assert tree.path == ((),)
