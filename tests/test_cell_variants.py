"""Randomized cellulations: every protocol is blind to how a cell is written.

A variant of a closed fixture cell relabels its vertices and edges, reverses
some edge orientations (negating the edge's step in both of its walks),
rotates the start of each plaquette walk and goes through to_json/from_json.
It is the same surface, so every protocol that fits the budgets on the
fixture must prepare the double on it at fidelity 1 with every stabilizer at
1, and the ground-space degeneracy must not move.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit.cellulation import (
    Cellulation,
    from_json,
    hexagon_torus,
    square_torus,
    tetrahedron_sphere,
    theta_sphere,
    to_json,
)
from gaugekit.groups import catalog, catalog_factor_system
from gaugekit.kwmaps import KwMode
from gaugekit.protocols import plan_run
from gaugekit.verify import ground_state_degeneracy, stabilizer_report

CAT = catalog()
ABELIAN = [("abelian", CAT["Z2"]), ("abelian", CAT["Z3"])]
VERTEX_ROUTE = ABELIAN + [("metabelian", catalog_factor_system("S3")), ("solvable", CAT["S3"])]
NIL2 = [("nil2", catalog_factor_system("D4")), ("nil2", catalog_factor_system("Q8"))]
# the protocols whose registers fit AMPLITUDE_BUDGET on each fixture; the
# others are rejected by name before any state is built
FIXTURES = {
    "hexagon_torus": (hexagon_torus(), VERTEX_ROUTE + [("solvable", CAT["D4"])] + NIL2),
    "theta_sphere": (theta_sphere(), VERTEX_ROUTE + [("solvable", CAT["D4"])] + NIL2),
    "tetrahedron_sphere": (tetrahedron_sphere(), VERTEX_ROUTE),
    "square_torus(2,2)": (square_torus(2, 2), ABELIAN),
}
TOL = 1e-9


@st.composite
def cell_variants(draw, cell):
    """cell with its vertices and edges relabelled, some edges reversed and
    every plaquette walk started at another step."""
    vertex = draw(st.permutations(range(cell.n_vertices)))
    edge = draw(st.permutations(range(cell.n_edges)))
    flip = [draw(st.booleans()) for _ in range(cell.n_edges)]
    edges, dual = [None] * cell.n_edges, [None] * cell.n_edges
    for e, (i, f) in enumerate(cell.edges):
        i, f = (f, i) if flip[e] else (i, f)
        edges[edge[e]] = (vertex[i], vertex[f])
        dual[edge[e]] = cell.dual_edges[e]
    walks = []
    for walk in cell.plaquettes:
        steps = [(edge[e], -o if flip[e] else o) for e, o in walk]
        start = draw(st.integers(0, len(steps) - 1))
        walks.append(tuple(steps[start:] + steps[:start]))
    return Cellulation(
        n_vertices=cell.n_vertices,
        edges=tuple(edges),
        plaquettes=tuple(walks),
        dual_edges=tuple(dual),
        genus=cell.genus,
        name=cell.name,
    )


@pytest.mark.parametrize("fixture", FIXTURES)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_protocol_prepares_the_double_on_a_rewritten_cell(fixture, data):
    cell, cases = FIXTURES[fixture]
    written = data.draw(cell_variants(cell))
    variant = from_json(to_json(written))
    assert variant == written
    seed = data.draw(st.integers(0, 2**16))
    for protocol, subject in cases:
        group = subject if protocol in ("abelian", "solvable") else subject.parent
        transcript = plan_run(protocol, subject, variant).branch(KwMode.sample(seed))
        fidelity = transcript.fidelity_vs_oracle
        if protocol == "nil2" and cell.genus == 1:
            # the plaquette route spreads the state over the four central
            # holonomy classes (acceptance criterion 2): the trivial-holonomy
            # oracle sees exactly a quarter of it
            assert abs(fidelity - 0.25) < TOL, (protocol, group.name, fidelity)
        else:
            assert abs(fidelity - 1) < TOL, (protocol, group.name, fidelity)
        report = stabilizer_report(transcript.register, group, variant)
        values = list(report.vertex_expectations.values()) + list(report.plaquette_expectations.values())
        assert np.abs(np.array(values) - 1).max() < TOL, (protocol, group.name)
        assert ground_state_degeneracy(group, variant) == ground_state_degeneracy(group, cell)
