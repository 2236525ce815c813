"""The vertex-route entangler as data: a wall circuit of 2 or 4 templates
over a target table of one row of sites per edge.

Its rows are checked bitwise against the per-edge gate list it stands for
(tests/reference.py), its templates against the one property the gated
allocation relies on (each writes only its edge site), its size against
the cell, and a warm protocol op is spied on: it retargets no per-edge wall
gate and looks its allocation rows up once per round.
"""

import math
from collections import Counter

import numpy as np
import pytest

from gaugekit import cli, protocols, register
from gaugekit.cellulation import (
    hexagon_torus,
    square_torus,
    tetrahedron_sphere,
    theta_sphere,
    triangle_graph,
    two_vertex_graph,
)
from gaugekit.gates import controlled_left
from gaugekit.groups import FactorSystem, catalog, catalog_factor_system
from gaugekit.kwmaps import _wall_gates
from gaugekit.register import LocalOperator, SiteSpec, WallCircuit, init_plus
from reference import expanded_wall_gates, gate_list_rows, push_gate_list, theta_sphere_reversed

CAT = catalog()

CELLS = {
    "hexagon": hexagon_torus,
    "theta": theta_sphere,
    "theta_reversed": theta_sphere_reversed,
    "tetrahedron": tetrahedron_sphere,
    "square2x2": lambda: square_torus(2, 2),
    "square3x2": lambda: square_torus(3, 2),
    "square3x3": lambda: square_torus(3, 3),
    "two_vertex": lambda: two_vertex_graph(2),
    "triangle": triangle_graph,
}
# control rows past which the push is compared on sampled rows, not the grid
GRID_ROWS = 1 << 16
SAMPLED_ROWS = 2048


def subjects():
    """Every catalog group, the shipped factor systems and every stage of
    every solvable catalog group's chain."""
    out = dict(CAT)
    for name in ("S3", "D4", "Q8"):
        out[f"{name} system"] = catalog_factor_system(name)
    for name, group in CAT.items():
        if name != "A5":
            for j, fs in enumerate(protocols._solvable_chain(group)):
                out[f"{name} stage {j}"] = fs
    return out


def circuit_sites(subject, cell):
    """The circuit of subject on cell, its live sites as (sid, dim) pairs in
    register order and its new edge sites."""
    if isinstance(subject, FactorSystem):
        circuit = _wall_gates(subject, cell, lambda v: ("n", v), lambda e: ("e", e), lambda v: ("q", v))
        parts = [(("n", v), subject.n_group.order) for v in range(cell.n_vertices)]
        parts += [(("q", v), subject.q_group.order) for v in range(cell.n_vertices)]
        edge_dim = subject.n_group.order
    else:
        circuit = _wall_gates(subject, cell, lambda v: ("v", v), lambda e: ("e", e))
        parts = [(("v", v), subject.order) for v in range(cell.n_vertices)]
        edge_dim = subject.order
    return circuit, tuple(parts), tuple((("e", e), edge_dim) for e in range(cell.n_edges))


@pytest.mark.parametrize("make_cell", CELLS.values(), ids=CELLS.keys())
def test_circuit_rows_equal_the_expanded_gate_list_rows(make_cell):
    """The rows the gated allocation writes are, bitwise, those the per-edge
    gate list writes one gate at a time: over the whole control grid where
    it has at most GRID_ROWS rows, else on SAMPLED_ROWS random control rows,
    every site's labels compared."""
    cell, rng = make_cell(), np.random.default_rng(32)
    sampled = []
    for label, subject in subjects().items():
        circuit, ctrl, new = circuit_sites(subject, cell)
        gates = expanded_wall_gates(circuit)
        assert len(gates) == len(circuit.templates) * cell.n_edges
        if math.prod(d for _, d in ctrl) <= GRID_ROWS:
            rows = register._gated_rows.__wrapped__(ctrl, new, circuit)
            want = gate_list_rows(ctrl, new, gates)
            assert rows.dtype == want.dtype and np.array_equal(rows, want), (label, cell.name)
            continue
        sampled.append(label)
        dims = dict(ctrl + new)
        start = {sid: rng.integers(0, d, SAMPLED_ROWS) for sid, d in ctrl}
        start.update((sid, np.zeros(SAMPLED_ROWS, dtype=np.int64)) for sid, _ in new)
        got, want = dict(start), dict(start)
        register._push_labels(got, dims, circuit)
        push_gate_list(want, dims, gates)
        assert all(np.array_equal(got[sid], want[sid]) for sid in dims), (label, cell.name)
        assert all(np.array_equal(got[sid], start[sid]) for sid, _ in ctrl), (label, cell.name)
    if cell.name == "square_torus(3,3)":
        assert "S4" in sampled and "Z2" not in sampled


def _writes(op: LocalOperator, dims: dict) -> set:
    """The slots whose label some row of a permutation template changes."""
    shape = [dims[slot] for slot in op.targets]
    before = np.unravel_index(np.arange(op.joint_dim), shape)
    after = np.unravel_index(op.image, shape)
    return {slot for slot, a, b in zip(op.targets, before, after) if not np.array_equal(a, b)}


def _slot_dims(subject) -> dict:
    """The dimension of each slot (i, f, e, qi, qf) of subject's circuit."""
    if isinstance(subject, FactorSystem):
        dn, dq = subject.n_group.order, subject.q_group.order
        return {0: dn, 1: dn, 2: dn, 3: dq, 4: dq}
    return dict.fromkeys(range(3), subject.order)


def test_each_template_writes_only_its_edge_site():
    """Every template of every subject's circuit changes the label of its
    edge slot (2) and of no other; the CL+ and CR+ templates of a group of
    order 2 or more do change it. A mutant template that writes a vertex
    slot is seen by the same check, and the gated allocation refuses it."""
    for label, subject in subjects().items():
        dims = _slot_dims(subject)
        templates = circuit_sites(subject, hexagon_torus())[0].templates
        for op in templates:
            assert _writes(op, dims) <= {2}, (label, op.name)
        if dims[0] > 1:
            assert [_writes(op, dims) for op in templates[:2]] == [{2}, {2}], label

    z3, cell = CAT["Z3"], hexagon_torus()
    walls = _wall_gates(z3, cell, lambda v: ("v", v), lambda e: ("e", e))
    mutant = controlled_left(z3, 2, 0)  # multiplies the initial vertex by the edge's wall
    assert _writes(mutant, _slot_dims(z3)) == {0}
    reg = init_plus([SiteSpec(("v", v), "vertex", z3) for v in range(cell.n_vertices)])
    edges = [SiteSpec(("e", e), "edge", z3) for e in range(cell.n_edges)]
    with pytest.raises(ValueError, match=r"moved the label of live site \('v', 0\)"):
        reg.add_sites(edges, WallCircuit(walls.templates + (mutant,), walls.targets))
    assert reg.layout == ((("v", 0), 3), (("v", 1), 3))


@pytest.mark.parametrize("length", range(2, 9))
def test_a_round_has_as_many_layers_as_templates_on_every_square_torus(length):
    """A round's depth does not grow with the cell: on square_torus(L, L) its
    circuit has 2 templates for a group and 4 for a factor system, and its
    target table one row per edge whose edge site no other row names and no
    row reads as a vertex, so each template runs on every edge as one layer
    of commuting gates."""
    cell = square_torus(length, length)
    for subject, count in [(CAT["Z3"], 2), (CAT["S3"], 2), (catalog_factor_system("D4"), 4)]:
        circuit, ctrl, new = circuit_sites(subject, cell)
        assert len(circuit.templates) == count
        assert len(circuit.targets) == cell.n_edges == 2 * length**2
        edges = [row[2] for row in circuit.targets]
        assert edges == [sid for sid, _ in new]
        assert not set(edges) & {sid for row in circuit.targets for k, sid in enumerate(row) if k != 2}
        assert all(2 in op.targets for op in circuit.templates)


def test_a_warm_abelian_op_builds_no_per_edge_gate_and_looks_its_rows_up_once_per_round(monkeypatch):
    """After one cold pass of the two dense abelian op kinds, a second pass
    retargets only the round's templates, onto slot numbers, never a wall
    gate onto an edge's sites, and each round makes exactly one lookup of
    its allocation rows, a cache hit."""
    configs = [
        cli.RunConfig(command="prepare", group=group, cell=cell, protocol="abelian", mode="sample:5")
        for group, cell in [("Z3", "square:2x2"), ("Z2", "square:3x2")]
    ]
    for config in configs:
        cli.cmd_prepare(config)
    retargets, lookups, rounds = [], Counter(), Counter()
    retarget, rows, kw_abelian = LocalOperator.retarget, register._gated_rows, protocols.kw_abelian

    def spy_retarget(op, targets):
        retargets.append(tuple(targets))
        return retarget(op, targets)

    def spy_rows(*args):
        lookups["calls"] += 1
        return rows(*args)

    def spy_round(*args, **kwargs):
        rounds["calls"] += 1
        return kw_abelian(*args, **kwargs)

    monkeypatch.setattr(LocalOperator, "retarget", spy_retarget)
    monkeypatch.setattr(register, "_gated_rows", spy_rows)
    monkeypatch.setattr(protocols, "kw_abelian", spy_round)
    misses = rows.cache_info().misses
    for config in configs:
        cli.cmd_prepare(config)
    assert rounds["calls"] == len(configs)
    assert lookups["calls"] == rounds["calls"] and rows.cache_info().misses == misses
    assert sorted(retargets) == [(0, 2), (0, 2), (1, 2), (1, 2)]
