"""Certification for prepared quantum doubles.

The vertex projector A_v is the group average of the gauge actions A_v^g,
whose tables on every edge at v, for all g at once, are _vertex_tables;
stabilizer_reports reads the joined supports of a stack's seeds and runs
every vertex term, plaquette projector (plaquette_stabilizer) and irrep
loop in batches on them, each value bitwise that of a dense sweep.
ground_state_degeneracy counts the joint rank of the projectors as the
gauge orbits of flat edge labellings and is cross-checked by an independent
commuting-pair orbit count, and check_identity materializes both sides of
every operator identity the gauging maps rely on and reports the largest
entry difference. A g-indexed identity runs on a generating set only: g
enters each side only through a homomorphism from G to permutations (L_g,
R_g, A_v^g, the column and quotient shifts), two of which agree on G when
they agree on its generators, and each deviation is 0 or one constant.
identity_suite builds each pure gauging map once per subject and gives it,
read-only, to every check of that call (_PureMaps); no map outlives the
call, and a direct check_identity call builds its own. The plaquette-loop
identity reads the loop diagonals of the stabilizer report's tables, and
the decorated-wall push-through sweeps its columns in blocks, each value
bitwise that of one column at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .cellulation import Cellulation
from .gates import (
    _joint2,
    _walk_product,
    controlled_left,
    controlled_right,
    cz_abelian,
    left_mult,
    loop_z,
    loop_z_tilde,
    omega_gate,
    parent_to_pair,
    right_mult,
)
from .groups import (
    FactorSystem,
    FiniteGroup,
    _generating_set,
    character_table,
    is_nil2_extension,
    irrep_table,
)
from .kwmaps import _wall_gates, kw_abelian, kw_hat_abelian, KwMode
from .protocols import _nil2_circuit
from .register import (
    DiagonalOperator,
    QuditRegister,
    SiteSpec,
    _edge_site,
    _flat_labels,
    _overlap,
    _push_labels,
    _vertex_site,
    init_plus,
)

__all__ = [
    "StabilizerReport",
    "plaquette_stabilizer",
    "stabilizer_report",
    "stabilizer_reports",
    "ground_state_degeneracy",
    "commuting_pair_classes",
    "check_identity",
    "identity_names",
    "identity_suite",
]

# edge-space dimension for the dense degeneracy projector the tests keep as
# the reference for ground_state_degeneracy
GSD_DIM_BUDGET = 2048
# edge labels for the degeneracy orbit count
GSD_LABEL_BUDGET = 262_144
# amplitudes for the register-level identity checks
DENSE_CHECK_BUDGET = 5_000_000
# per-column work for the wall push-through check
WORK_BUDGET = 20_000_000
# basis columns for the pure-column identity checks
COLUMN_BUDGET = 2_000_000
# entries of the widest array one block builds: rows per (term, support
# position) in the stabilizer report, which bounds its transient on the support
# of a dense state, and joint edge labels per column in the decorated-wall sweep
SUPPORT_CHUNK = 1 << 14

EXPECTATION_IMAG_TOL = 1e-10


def _real(value: complex, what: str) -> float:
    if abs(value.imag) > EXPECTATION_IMAG_TOL:
        raise ValueError(f"{what} expectation {value} is off the real axis beyond {EXPECTATION_IMAG_TOL}")
    return float(value.real)


# ---------------------------------------------------------------------------
# stabilizers


def _vertex_tables(g_group: FiniteGroup, cell: Cellulation, v: int) -> List[Tuple[int, np.ndarray]]:
    """A_v^g on every edge at v for all g at once, read off the multiplication
    table: (edge, table) with table[g] the image of left multiplication by g
    on an edge leaving v, and of right multiplication by g^-1 on an edge
    entering it."""
    return [(e, g_group.mult if sign == 1 else g_group.mult.T[g_group.inv]) for e, sign in cell.edges_at_vertex(v)]


def plaquette_stabilizer(
    g_group: FiniteGroup,
    cell: Cellulation,
    p: int,
    edge_of: Callable[[int], Hashable] = _edge_site,
) -> DiagonalOperator:
    """The plaquette projector: diagonal indicator of a trivial ordered
    boundary-walk product, so it needs no representation data."""
    edges, acc = _walk_product(g_group, cell.plaquettes[p])
    diag = (acc == 0).astype(np.complex128)
    return DiagonalOperator([edge_of(e) for e in edges], diag, name=f"B[{p}]")


@dataclass
class StabilizerReport:
    """Certification record for one edge register.

    Expectations are stored as plain reals; the builder rejects values that
    drift off the real axis. loop_values maps each stored irrep label to its
    per-plaquette loop expectation, which equals the irrep dimension on a
    double state.
    """

    vertex_expectations: Dict[int, float]
    plaquette_expectations: Dict[int, float]
    loop_values: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def min_expectation(self) -> float:
        values = list(self.vertex_expectations.values()) + list(self.plaquette_expectations.values())
        return min(values) if values else 1.0

    def to_dict(self) -> Dict[str, object]:
        """The report record in JSON types: str keys, Python floats."""
        return {
            "vertex_expectations": {str(v): x for v, x in sorted(self.vertex_expectations.items())},
            "plaquette_expectations": {str(p): x for p, x in sorted(self.plaquette_expectations.items())},
            "loop_values": {
                label: {str(p): x for p, x in sorted(per.items())}
                for label, per in sorted(self.loop_values.items())
            },
            "min_expectation": self.min_expectation(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def stabilizer_report(
    reg: QuditRegister, g_group: FiniteGroup, cell: Cellulation, edge_of: Callable[[int], Hashable] = _edge_site
) -> StabilizerReport:
    """stabilizer_reports of one register."""
    return stabilizer_reports([reg], g_group, cell, edge_of)[0]


def stabilizer_reports(
    registers: Sequence[QuditRegister], g_group: FiniteGroup, cell: Cellulation,
    edge_of: Callable[[int], Hashable] = _edge_site,
) -> List[StabilizerReport]:
    """Every vertex and plaquette projector, plus irrep loop values where
    matrices are stored, on each of registers of one layout (a stack's seeds).

    The supports, read in the form each register holds, are joined
    seed-major (register s at s times the register size), and the terms run
    once for all, in blocks (_expectations), on the edge labels there. <A_v>
    sums, in element order, the state scaled by 1/|G| at the source label
    image[g^-1] of every edge at v, found by searchsorted on the positions
    (zero off them); a diagonal multiplies each amplitude by its entry in
    one table (_stabilizer_diagonals). Each (register, term) row is
    overlapped with that register's state on its run of positions
    (_overlap), so each value has the bits of a dense sweep
    (tests/reference.py, dense_stabilizer_report); the first value off the
    real axis, by register, then A, B, loops, raises."""
    first = registers[0]
    for reg in registers[1:]:
        first._check_layout(reg)
    edges = tuple(edge_of(e) for e in range(cell.n_edges))
    wrong = [sid for sid in edges if first.spec(sid).dim != g_group.order]
    if wrong:
        raise ValueError(f"stabilizer report: edge sites {wrong} do not carry {g_group.name}")
    terms = _stabilizer_diagonals(g_group, cell, edges)
    d, dims = g_group.order, first.dims
    strides = np.array([first._strides[first.pos(sid)] for sid in edges], dtype=np.int64)
    supports = [reg._support_form() for reg in registers]
    ends = np.cumsum([0] + [at.size for at, _ in supports])
    runs = list(zip(ends[:-1], ends[1:]))
    flat, bra = supports[0]
    if len(supports) > 1:
        flat = np.concatenate([s * math.prod(dims) + at for s, (at, _) in enumerate(supports)])
        bra = np.concatenate([values for _, values in supports])
    scale = complex(1.0 / d)
    # steps[base[v, k] + x, g]: the flat step that moves label x of vertex
    # v's k-th edge to its source label under g
    n_v, k = terms.vertex_edges.shape
    steps = (terms.vertex_moves * strides[terms.vertex_edges][:, :, None, None]).reshape(-1, d)
    base = (np.arange(n_v * k) * d).reshape(n_v, k, 1)

    def averaged(lo: int, hi: int, span: slice) -> np.ndarray:
        at = flat[span]
        src = steps[base[lo:hi] + at // strides[terms.vertex_edges[lo:hi], None] % d].sum(axis=1)
        src += at[:, None]
        found = np.minimum(np.searchsorted(flat, src), flat.size - 1)
        gathered = np.where(flat[found] == src, bra[found], 0)
        gathered *= scale
        acc = np.zeros((hi - lo, at.size), dtype=np.complex128)
        for g in range(d):
            acc += gathered[:, :, g]
        return acc

    def diagonal(lo: int, hi: int, span: slice) -> np.ndarray:
        joint = terms.weights[lo:hi] @ (flat[span] // strides[:, None] % d) + terms.offsets[lo:hi, None]
        # operands of one shape: a (1,) amplitude row against a (1, 1) block
        # sends numpy's complex multiply down its scalar loop, whose last bit
        # can differ from its vector loops
        return np.repeat(bra[None, span], hi - lo, axis=0) * terms.table[joint]

    # a vertex term reads |G| steps on each of its edges per position, a
    # diagonal the labels of every edge
    vertex = _expectations(bra, runs, k * d, n_v, averaged)
    diagonals = _expectations(bra, runs, len(edges), len(terms.names), diagonal)
    reports = []
    for s in range(len(registers)):
        vexp = {v: _real(per[s], f"A[{v}]") for v, per in enumerate(vertex)}
        values = iter([_real(per[s], name) for per, name in zip(diagonals, terms.names)])
        pexp = {p: next(values) for p in range(cell.n_plaquettes)}
        loop_values = {label: {p: next(values) for p in range(len(ops))} for label, ops in terms.loops}
        reports.append(StabilizerReport(vertex_expectations=vexp, plaquette_expectations=pexp, loop_values=loop_values))
    return reports


def _expectations(
    bra: np.ndarray,
    runs: Sequence[Tuple[int, int]],
    rows: int,
    count: int,
    values: Callable[[int, int, slice], np.ndarray],
) -> List[List[complex]]:
    """<psi_s|O_t|psi_s> for the terms t < count, in order, each for every
    state s, bra the states at their support positions, state s at runs[s].

    values(lo, hi, span) returns O_t psi at the support entries span for the
    terms lo..hi-1, one row each, reading rows amplitudes per term and
    position; one block reads at most SUPPORT_CHUNK of them: several terms
    at every position of a small support, one term over a run of positions
    of a large one, written into one row buffer. Each (state, term) row is
    overlapped with bra on the state's run (_overlap): off the support the
    state is zero, so the bits are those of the dense expectation."""
    step = max(1, SUPPORT_CHUNK // rows)
    if bra.size <= step:
        per = step // max(1, bra.size)
        blocks = (values(lo, min(lo + per, count), slice(None)) for lo in range(0, count, per))
        return [[_overlap(bra[a:b], row[a:b]) for a, b in runs] for block in blocks for row in block]
    row, out = np.empty_like(bra), []
    for t in range(count):
        for lo in range(0, bra.size, step):
            row[lo : lo + step] = values(t, t + 1, slice(lo, lo + step))[0]
        out.append([_overlap(bra[a:b], row[a:b]) for a, b in runs])
    return out


@dataclass(frozen=True)
class _StabilizerTerms:
    """Every term of the report for one (group, cell, edge ids), read-only.

    Vertex v's term moves the label x of its k-th edge vertex_edges[v, k]
    to x + vertex_moves[v, k, x, g], the source label image[g^-1][x] of A_v^g
    (_vertex_tables), for every g; a vertex of lower degree is padded with
    zero moves on edge 0. The diagonal terms (names), the plaquette
    projectors and then each stored irrep's loops, are one table: term t at
    the edge labels x reads table[offsets[t] + weights[t] @ x], weights[t]
    holding the row-major weight of each of its edges in its joint label."""

    plaquettes: Tuple[DiagonalOperator, ...]
    loops: Tuple[Tuple[str, Tuple[DiagonalOperator, ...]], ...]
    names: Tuple[str, ...]
    vertex_edges: np.ndarray
    vertex_moves: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    table: np.ndarray

    @property
    def diagonals(self) -> Tuple[DiagonalOperator, ...]:
        return self.plaquettes + tuple(op for _, ops in self.loops for op in ops)


@lru_cache(maxsize=16)
def _stabilizer_diagonals(g_group: FiniteGroup, cell: Cellulation, edges: Tuple[Hashable, ...]) -> _StabilizerTerms:
    """The report's terms, built once per (group, cell, edge ids): the
    plaquette projectors and, per stored irrep label, the loop diagonal of
    every plaquette, where the closed-loop checks run, with the vertex
    moves and the diagonals' weights and table. Each diagonal is a local
    operator on its plaquette's edges and every table is over edge indices,
    so no register layout enters the key."""
    edge_of = edges.__getitem__
    plaquettes = tuple(plaquette_stabilizer(g_group, cell, p, edge_of) for p in range(cell.n_plaquettes))
    names = [f"B[{p}]" for p in range(cell.n_plaquettes)]
    loops = []
    if cell.n_plaquettes:
        try:
            table = irrep_table(g_group)
        except ValueError:
            table = None
        if table is not None:
            for irrep in table.irreps:
                loops.append((irrep.label, tuple(loop_z(irrep, walk, cell, edge_of) for walk in cell.plaquettes)))
                names += [f"loop[{irrep.label},{p}]" for p in range(cell.n_plaquettes)]
    d, n_v = g_group.order, cell.n_vertices
    incident = [_vertex_tables(g_group, cell, v) for v in range(n_v)]
    k = max(len(rows) for rows in incident)
    still = np.zeros((d, d), dtype=np.int64)
    vertex_edges = [[e for e, _ in rows] + [0] * (k - len(rows)) for rows in incident]
    vertex_moves = [
        [image[g_group.inv].T - np.arange(d)[:, None] for _, image in rows] + [still] * (k - len(rows))
        for rows in incident
    ]
    diagonals = plaquettes + tuple(op for _, ops in loops for op in ops)
    index = {sid: e for e, sid in enumerate(edges)}
    weights = np.zeros((len(diagonals), len(edges)), dtype=np.int64)
    for row, op in zip(weights, diagonals):
        for j, sid in enumerate(op.targets):
            row[index[sid]] += d ** (len(op.targets) - 1 - j)
    sizes = [op.joint_dim for op in diagonals]
    offsets = np.cumsum([0] + sizes[:-1], dtype=np.int64)
    table = np.concatenate([op.diag for op in diagonals] or [np.zeros(0, dtype=np.complex128)])
    arrays = (
        np.array(vertex_edges, dtype=np.int64).reshape(n_v, k),
        np.array(vertex_moves, dtype=np.int64).reshape(n_v, k, d, d),
        weights,
        offsets,
        table,
    )
    for array in arrays:
        array.setflags(write=False)
    for op, lo, size in zip(diagonals, offsets, sizes):
        op.diag = table[lo : lo + size]  # a read-only view of the table, not a second copy
    return _StabilizerTerms(plaquettes, tuple(loops), tuple(names), *arrays)


# ---------------------------------------------------------------------------
# ground state degeneracy


def ground_state_degeneracy(g_group: FiniteGroup, cell: Cellulation) -> int:
    """Number of gauge orbits of flat edge labellings.

    This is the rank of the joint stabilizer projector: the plaquette
    product keeps the flat labellings, a gauge-invariant set, and the vertex
    product averages the gauge group's permutation action on them, so each
    orbit spans one ground state. The actions A_v^s, s in a generating set
    of G, generate the gauge group, and each moves the flat labels along one
    image array. Min-label propagation over those arrays, with pointer
    jumping, runs until no label changes: a label's root is then at most the
    root of every label one move away, and forward moves reach the whole
    orbit, since every element of a finite group is a product of
    generators, so each orbit has exactly one flat label that is its own
    root.
    """
    if not cell.closed:
        raise ValueError("degeneracy counting needs a closed cellulation")
    d, n_e = g_group.order, cell.n_edges
    if d**n_e > GSD_LABEL_BUDGET:
        raise ValueError(f"edge space {d}^{n_e} exceeds the degeneracy label budget {GSD_LABEL_BUDGET}")
    shape = (d,) * n_e
    mask = np.ones(shape, dtype=bool)
    for walk in cell.plaquettes:
        spots, acc = _walk_product(g_group, walk)
        rest = [e for e in range(n_e) if e not in spots]
        keep = (acc == 0).reshape((d,) * len(spots) + (1,) * len(rest))
        mask &= keep.transpose(np.argsort(spots + rest))
    flat = np.flatnonzero(mask)
    labels = np.unravel_index(flat, shape)
    strides = d ** np.arange(n_e - 1, -1, -1)
    gens = np.array(_generating_set(g_group), dtype=np.int64)
    moves = []
    for v in range(cell.n_vertices):
        moved = np.tile(flat, (len(gens), 1))
        for e, table in _vertex_tables(g_group, cell, v):
            moved += strides[e] * (table[gens][:, labels[e]] - labels[e])
        moves.append(np.searchsorted(flat, moved))
    moves = np.concatenate(moves)
    root = np.arange(flat.size)
    while True:
        nxt = np.minimum(root, root[moves].min(axis=0, initial=flat.size))
        nxt = nxt[nxt]
        if np.array_equal(nxt, root):
            return int(np.count_nonzero(root == np.arange(flat.size)))
        root = nxt


def commuting_pair_classes(g_group: FiniteGroup) -> int:
    """Commuting pairs counted modulo simultaneous conjugation.

    Independent of all state machinery; equals the number of anyon types of
    the double model, i.e. its torus degeneracy.
    """
    pairs = [
        (a, b)
        for a in g_group.elements()
        for b in g_group.elements()
        if g_group.mul(a, b) == g_group.mul(b, a)
    ]
    seen = set()
    count = 0
    for pair in pairs:
        if pair in seen:
            continue
        count += 1
        for g in g_group.elements():
            seen.add((g_group.conjugate(g, pair[0]), g_group.conjugate(g, pair[1])))
    return count


# ---------------------------------------------------------------------------
# pure columns: every vertex-route layer is a phase-free permutation, so each
# vertex basis column stays a basis column, one label per site, and after the
# plus contractions every column carries the same amplitude


def _pure_deviation(rows_a: np.ndarray, scale_a: float, rows_b: np.ndarray, scale_b: float) -> float:
    """Largest dense-matrix entry difference between two one-entry-per-column
    maps whose entries are the constants scale_a and scale_b."""
    return abs(scale_a - scale_b) if np.array_equal(rows_a, rows_b) else max(scale_a, scale_b)


def _column_grids(order: int, n_v: int) -> np.ndarray:
    n_cols = order**n_v
    if n_cols > COLUMN_BUDGET:
        raise ValueError(f"{order}^{n_v} basis columns exceed the budget {COLUMN_BUDGET}")
    return np.indices((order,) * n_v).reshape(n_v, -1)


def _pure_kw_g(g_group: FiniteGroup, cell: Cellulation) -> Tuple[Dict, Dict, float]:
    """Labels, dimensions and common amplitude of the full gauging map, column
    by column, from the gates kw_abelian runs."""
    d, n_v = g_group.order, cell.n_vertices
    grids = _column_grids(d, n_v)
    labels = {_vertex_site(v): grids[v] for v in range(n_v)}
    labels.update((_edge_site(e), np.zeros(grids.shape[1], dtype=np.int64)) for e in range(cell.n_edges))
    dims = dict.fromkeys(labels, d)
    _push_labels(labels, dims, _wall_gates(g_group, cell, _vertex_site, _edge_site))
    return labels, dims, math.prod([d**-0.5] * n_v)


def _pure_kw_n(fs: FactorSystem, cell: Cellulation) -> Tuple[Dict, Dict, float]:
    """The subgroup gauging map on split vertices from the gates kw_n_in_g
    runs, quotient parts left live."""
    if fs.parent is None:
        raise ValueError("factor system carries no parent tables")
    n_v, dn = cell.n_vertices, fs.n_group.order
    grids = _column_grids(fs.parent.order, n_v)
    labels, dims = {}, {}
    for v in range(n_v):
        labels[("n", v)], labels[("q", v)] = fs.tpart[grids[v]], fs.proj[grids[v]]
        dims[("n", v)], dims[("q", v)] = dn, fs.q_group.order
    for e in range(cell.n_edges):
        labels[("e", e)], dims[("e", e)] = np.zeros(grids.shape[1], dtype=np.int64), dn
    _push_labels(labels, dims, _wall_gates(fs, cell, lambda v: ("n", v), _edge_site, lambda v: ("q", v)))
    return labels, dims, math.prod([dn**-0.5] * n_v)


class _PureMaps:
    """The pure gauging maps of one cell, each built on first use and kept
    as long as this object: identity_suite makes one per call and gives it
    to every check, and a direct check_identity call makes its own, so no
    map outlives a suite. A map is keyed by its subject, whose tables are
    all it reads, so a factor system's parent shares the map of an equal
    group. Its label arrays are read-only, and each call hands out fresh
    dicts, which a check may extend."""

    def __init__(self, cell: Cellulation):
        self.cell = cell
        self._built: Dict[Hashable, Tuple[Dict, Dict, float]] = {}

    def kw_g(self, g_group: FiniteGroup) -> Tuple[Dict, Dict, float]:
        return self._get(_pure_kw_g, g_group)

    def kw_n(self, fs: FactorSystem) -> Tuple[Dict, Dict, float]:
        return self._get(_pure_kw_n, fs)

    def _get(self, build, subject) -> Tuple[Dict, Dict, float]:
        key = build, subject
        if key not in self._built:
            labels, dims, scale = build(subject, self.cell)
            for array in labels.values():
                array.setflags(write=False)
            self._built[key] = labels, dims, scale
        labels, dims, scale = self._built[key]
        return dict(labels), dict(dims), scale


def _edge_order(cell: Cellulation) -> List[Hashable]:
    return [_edge_site(e) for e in range(cell.n_edges)]


def _split_row_order(cell: Cellulation) -> List[Hashable]:
    return [("q", v) for v in range(cell.n_vertices)] + _edge_order(cell)


# ---------------------------------------------------------------------------
# identity checks


def _check_left_action_gauged_away(
    g_group: FiniteGroup, cell: Cellulation, maps: Optional[_PureMaps] = None
) -> float:
    labels, dims, scale = (maps or _PureMaps(cell)).kw_g(g_group)
    rows = _flat_labels(labels, dims, _edge_order(cell))
    grids = _column_grids(g_group.order, cell.n_vertices)
    worst = 0.0
    for g in _generating_set(g_group):
        perm = np.ravel_multi_index(g_group.mult[g, grids], (g_group.order,) * cell.n_vertices)
        worst = max(worst, _pure_deviation(rows[perm], scale, rows, scale))
    return worst


def _check_right_action_becomes_vertex_term(
    g_group: FiniteGroup, cell: Cellulation, maps: Optional[_PureMaps] = None
) -> float:
    labels, dims, scale = (maps or _PureMaps(cell)).kw_g(g_group)
    order = _edge_order(cell)
    rows = _flat_labels(labels, dims, order)
    grids = _column_grids(g_group.order, cell.n_vertices)
    d = g_group.order
    worst = 0.0
    for v in range(cell.n_vertices):
        tables = _vertex_tables(g_group, cell, v)
        for g in _generating_set(g_group):
            mapped = grids.copy()
            mapped[v] = g_group.mult[grids[v], g_group.inv[g]]
            perm = np.ravel_multi_index(mapped, (d,) * cell.n_vertices)
            moved = dict(labels)
            for e, table in tables:
                moved[_edge_site(e)] = table[g][moved[_edge_site(e)]]
            worst = max(worst, _pure_deviation(rows[perm], scale, _flat_labels(moved, dims, order), scale))
    return worst


def _loop_deviation(pure: Tuple[Dict, Dict, float], irrep_loops) -> float:
    """How far the irrep loop diagonals, read on every column of a pure
    gauging map, are from the irrep dimension, in units of the columns'
    common amplitude; irrep_loops pairs each irrep with its loops, in
    plaquette order."""
    labels, dims, scale = pure
    worst = 0.0
    for irrep, ops in irrep_loops:
        for op in ops:
            traces = op.diag[_flat_labels(labels, dims, op.targets)]
            worst = max(worst, scale * float(np.abs(traces - irrep.dim).max()))
    return worst


def _check_plaquette_loops_carry_irrep_dimension(
    g_group: FiniteGroup, cell: Cellulation, maps: Optional[_PureMaps] = None
) -> float:
    """Every plaquette's irrep loop equals the irrep dimension on every column
    of the gauging map; the loops are the diagonals the stabilizer report
    reads (_stabilizer_diagonals)."""
    if not cell.plaquettes:
        raise ValueError("needs a cellulation with plaquettes")
    irreps = irrep_table(g_group).irreps
    pure = (maps or _PureMaps(cell)).kw_g(g_group)
    terms = _stabilizer_diagonals(g_group, cell, tuple(_edge_order(cell)))
    return _loop_deviation(pure, zip(irreps, (ops for _, ops in terms.loops), strict=True))


def _check_quotient_symmetry_survives(
    fs: FactorSystem, cell: Cellulation, maps: Optional[_PureMaps] = None
) -> float:
    labels, dims, scale = (maps or _PureMaps(cell)).kw_n(fs)
    order = _split_row_order(cell)
    rows = _flat_labels(labels, dims, order)
    parent, q_grp = fs.parent, fs.q_group
    grids = _column_grids(parent.order, cell.n_vertices)
    worst = 0.0
    for g in _generating_set(parent):
        perm = np.ravel_multi_index(parent.mult[g, grids], (parent.order,) * cell.n_vertices)
        shifted = dict(labels)
        for v in range(cell.n_vertices):
            shifted[("q", v)] = q_grp.mult[fs.proj[g], labels[("q", v)]]
        worst = max(worst, _pure_deviation(rows[perm], scale, _flat_labels(shifted, dims, order), scale))
    return worst


def _check_dressed_loops_carry_irrep_dimension(
    fs: FactorSystem, cell: Cellulation, maps: Optional[_PureMaps] = None
) -> float:
    """Every plaquette's dressed subgroup-irrep loop equals the irrep dimension
    on every column of the subgroup gauging map."""
    if not cell.plaquettes:
        raise ValueError("needs a cellulation with plaquettes")
    irreps = irrep_table(fs.n_group).irreps
    pure = (maps or _PureMaps(cell)).kw_n(fs)
    def loops(irrep):
        return (loop_z_tilde(fs, irrep, walk, cell, lambda v: ("q", v), _edge_site) for walk in cell.plaquettes)

    return _loop_deviation(pure, ((irrep, loops(irrep)) for irrep in irreps))


def _check_two_step_composition(
    fs: FactorSystem, cell: Cellulation, maps: Optional[_PureMaps] = None
) -> float:
    maps = maps or _PureMaps(cell)
    labels, dims, scale = maps.kw_n(fs)
    dq = fs.q_group.order
    for e in range(cell.n_edges):
        labels[("qe", e)], dims[("qe", e)] = np.zeros_like(labels[("e", e)]), dq
    _push_labels(labels, dims, _wall_gates(fs.q_group, cell, lambda v: ("q", v), lambda e: ("qe", e)))
    to_parent = np.argsort(parent_to_pair(fs))
    for e in range(cell.n_edges):
        labels[("e", e)] = to_parent[labels[("e", e)] * dq + labels[("qe", e)]]
    full_labels, full_dims, full_scale = maps.kw_g(fs.parent)
    order = _edge_order(cell)
    return _pure_deviation(
        _flat_labels(labels, full_dims, order),
        math.prod([dq**-0.5] * cell.n_vertices, start=scale),
        _flat_labels(full_labels, full_dims, order),
        full_scale,
    )


def _conjugation_deviation(lhs_image: np.ndarray, rhs_image: np.ndarray) -> float:
    return 0.0 if np.array_equal(lhs_image, rhs_image) else 1.0


def _pair_identity(entangler, inner: str, outer: str) -> Callable[[FiniteGroup, Cellulation], float]:
    """Check E+ (X (x) Y) E = X' (x) Y' for every g in G, with the factors
    spelled as two letters for the pair (a, b): L is left_mult(g), R is
    right_mult(g), 1 the identity. L and R are left actions, so both sides are
    homomorphisms from G to permutations of the pair and agree on G when they
    agree on the generators (_generating_set), the only g built. The pair
    labels and the entangler's images do not depend on g."""
    letters = set(inner + outer)

    def check(g_group: FiniteGroup, cell: Cellulation, maps: Optional[_PureMaps] = None) -> float:
        d = g_group.order
        a, b = _joint2(d, d)
        op = entangler(g_group, "a", "b")
        ent, ent_inv = op.image, op.dagger().image

        def pair(spelling: str, images: Dict[str, np.ndarray]) -> np.ndarray:
            x, y = (labels if f == "1" else images[f][labels] for f, labels in zip(spelling, (a, b)))
            return x * d + y

        worst = 0.0
        for g in _generating_set(g_group):
            images = {}
            if "L" in letters:
                images["L"] = left_mult(g_group, g, "x").image
            if "R" in letters:
                images["R"] = right_mult(g_group, g, "x").image
            worst = max(worst, _conjugation_deviation(ent_inv[pair(inner, images)[ent]], pair(outer, images)))
        return worst

    return check


def _check_charge_diagonals_push_to_edge(
    g_group: FiniteGroup, cell: Cellulation, maps: Optional[_PureMaps] = None
) -> float:
    """Conjugating the paired charge diagonal through either entangler leaves
    a bare edge diagonal, component by component."""
    table = irrep_table(g_group)
    d = g_group.order
    a = np.repeat(np.arange(d), d)
    b = np.tile(np.arange(d), d)
    cl_inv = controlled_left(g_group, "a", "b").dagger().image
    cr_inv = controlled_right(g_group, "a", "b").dagger().image
    worst = 0.0
    for irrep in table.irreps:
        mats = irrep.matrices
        rhs = mats[b]
        prod_l = np.einsum("xij,xjk->xik", mats[a], mats[b])
        lhs_l = prod_l[cl_inv]
        worst = max(worst, float(np.abs(lhs_l - rhs).max()))
        prod_r = np.einsum("xij,xjk->xik", mats[b], mats[g_group.inv[a]])
        lhs_r = prod_r[cr_inv]
        worst = max(worst, float(np.abs(lhs_r - rhs).max()))
    return worst


def _check_plaquette_projector_from_irrep_sum(
    g_group: FiniteGroup, cell: Cellulation, maps: Optional[_PureMaps] = None
) -> float:
    """The delta-form plaquette projector equals the dimension-weighted sum of
    irrep loop diagonals, both read off the tables the stabilizer report
    reads."""
    if not cell.plaquettes:
        raise ValueError("needs a cellulation with plaquettes")
    dims = [irrep.dim for irrep in irrep_table(g_group).irreps]
    terms = _stabilizer_diagonals(g_group, cell, tuple(_edge_order(cell)))
    worst = 0.0
    for p, bp in enumerate(terms.plaquettes):
        acc = np.zeros_like(bp.diag)
        for dim, (_, ops) in zip(dims, terms.loops, strict=True):
            if list(ops[p].targets) != list(bp.targets):
                raise ValueError("loop and projector disagree on the edge set")
            acc += dim * ops[p].diag
        worst = max(worst, float(np.abs(acc / g_group.order - bp.diag).max()))
    return worst


def _check_central_extension_circuit_matches_composition(
    fs: FactorSystem, cell: Cellulation, maps: Optional[_PureMaps] = None
) -> float:
    """The three-layer circuit prepare_nil2_double runs, with deferred
    projections, equals the chained plaquette-route, dressing, vertex-route
    grouping of the same map."""
    if not is_nil2_extension(fs):
        raise ValueError("needs a central extension with abelian subgroup and quotient")
    if not cell.closed or not cell.plaquettes:
        raise ValueError("needs a closed cellulation with plaquettes")
    n_grp, q_grp = fs.n_group, fs.q_group
    dim = (
        q_grp.order ** cell.n_vertices
        * (n_grp.order * q_grp.order) ** cell.n_edges
        * n_grp.order ** cell.n_plaquettes
    )
    if dim > DENSE_CHECK_BUDGET:
        raise ValueError(f"joint space of {dim} amplitudes exceeds the budget {DENSE_CHECK_BUDGET}")
    one = _nil2_circuit(fs, cell)
    prob_one = 1.0
    for sid in [("p", p) for p in range(cell.n_plaquettes)] + [("v", v) for v in range(cell.n_vertices)]:
        one.measure_fourier(sid, forced=0)
        prob_one *= one.retired[sid].probability

    q_verts = [SiteSpec(("v", v), "vertex", q_grp) for v in range(cell.n_vertices)]
    hat_reg = init_plus([SiteSpec(("p", p), "plaquette", n_grp) for p in range(cell.n_plaquettes)])
    res_hat = kw_hat_abelian(hat_reg, cell, n_grp, KwMode.postselect(), edge_of=lambda e: ("e", e, "n"))
    two = init_plus(q_verts)
    two_amps = np.multiply.outer(two.amps, hat_reg.amps)
    two = QuditRegister(q_verts + list(hat_reg.sites), two_amps)
    for e, (i_v, f_v) in enumerate(cell.edges):
        two.apply(omega_gate(fs, ("v", i_v), ("e", e, "n"), ("v", f_v)))
    res_q = kw_abelian(two, cell, q_grp, KwMode.postselect(), edge_of=lambda e: ("e", e, "q"))
    # both routes renormalize after each projection, so weigh the branches back
    prob_two = res_hat.probability * res_q.probability
    one._check_layout(two)
    diff = np.sqrt(prob_one) * one.amps - np.sqrt(prob_two) * two.amps
    return float(np.abs(diff).max())


def _check_decorated_wall_pushthrough(
    fs: FactorSystem, cell: Cellulation, maps: Optional[_PureMaps] = None
) -> float:
    """Commuting the dressing layer through the plaquette-route map leaves a
    pure diagonal pairing each edge's vertex cocycle with its plaquette wall."""
    n_grp, q_grp = fs.n_group, fs.q_group
    if not n_grp.is_abelian:
        raise ValueError("needs an abelian subgroup")
    if not cell.closed or not cell.plaquettes:
        raise ValueError("needs a closed cellulation with plaquettes")
    dn, dq = n_grp.order, q_grp.order
    n_cols = dq**cell.n_vertices * dn**cell.n_plaquettes
    if n_cols * dn**cell.n_edges > WORK_BUDGET:
        raise ValueError(f"column sweep exceeds the work budget {WORK_BUDGET}")
    return _decorated_wall_sweep(fs, cell, max(1, SUPPORT_CHUNK // dn**cell.n_edges))


def _decorated_wall_sweep(fs: FactorSystem, cell: Cellulation, width: int) -> float:
    """The push-through deviation over every column (q_v per vertex, b_p per
    plaquette, the last plaquette fastest), width columns at a time.

    Per column, each edge's plus vector, dressed by the CZ walls of its
    plaquette pair, is Omega-moved on the left side, and both sides grow by
    one outer product per edge; the right side carries the cocycle phase of
    every edge. A block runs these on a (column, joint edge label) array,
    the last edge's label slowest, so every entry is the product of the same
    operands, in the same order, as on one column at a time
    (tests/reference.py, column_wall_sweep). The phase takes numpy's scalar
    complex product, real and imaginary parts apart, since its array loops
    may round the last bit differently."""
    n_grp, q_grp = fs.n_group, fs.q_group
    dn, dq = n_grp.order, q_grp.order
    chi = character_table(n_grp)
    cz = cz_abelian(n_grp, "p", "e").diag.reshape(dn, dn)
    cz_bar = np.conj(cz)
    # the Omega image of the plus vector's label n on an edge from qi to qf
    shift = (omega_gate(fs, "qi", "e", "qf").image.reshape(dq, dn, dq) // dq) % dn
    # the character label of an edge from qi to qf
    cocycle = np.array(
        [[fs.omega_inv(qi, q_grp.mul(q_grp.inverse(qi), qf)) for qf in range(dq)] for qi in range(dq)]
    )
    shape = (dq,) * cell.n_vertices + (dn,) * cell.n_plaquettes
    n_cols = math.prod(shape)
    pairs = [cell.plaquette_pair(e) for e in range(cell.n_edges)]
    edge_scale = dn**-0.5
    worst = 0.0
    for lo in range(0, n_cols, width):
        at = np.arange(lo, min(lo + width, n_cols))
        labels = np.unravel_index(at, shape)
        qs, bs = labels[: cell.n_vertices], labels[cell.n_vertices :]
        rows = np.arange(at.size)[:, None]
        lhs = rhs = np.ones((at.size, 1), dtype=np.complex128)
        re, im = np.ones(at.size), np.zeros(at.size)
        for e, (i_v, f_v) in enumerate(cell.edges):
            p_minus, p_plus = pairs[e]
            vec = np.full((at.size, dn), edge_scale, dtype=np.complex128)
            if p_minus != p_plus:
                vec = vec * cz[bs[p_plus]] * cz_bar[bs[p_minus]]
            qi, qf = qs[i_v], qs[f_v]
            moved = np.empty_like(vec)
            moved[rows, shift[qi, :, qf]] = vec
            # edge e's label is the slowest of a column's entries so far
            lhs = (lhs[:, None, :] * moved[:, :, None]).reshape(at.size, -1)
            rhs = (rhs[:, None, :] * vec[:, :, None]).reshape(at.size, -1)
            factor = chi[cocycle[qi, qf], n_grp.mult[n_grp.inv[bs[p_plus]], bs[p_minus]]]
            re, im = re * factor.real - im * factor.imag, re * factor.imag + im * factor.real
        phase = np.empty((at.size, 1), dtype=np.complex128)
        phase.real[:, 0], phase.imag[:, 0] = re, im
        # the right side turns into the difference in place
        np.subtract(lhs, np.multiply(phase, rhs, out=rhs), out=rhs)
        worst = max(worst, float(np.abs(rhs).max()))
    return worst


# every check takes its subject, the cell and the suite's pure gauging maps,
# and builds the maps it reads when given none
_GROUP_IDENTITIES: Dict[str, Callable[..., float]] = {
    "left_action_gauged_away": _check_left_action_gauged_away,
    "right_action_becomes_vertex_term": _check_right_action_becomes_vertex_term,
    "plaquette_loops_carry_irrep_dimension": _check_plaquette_loops_carry_irrep_dimension,
    "plaquette_projector_from_irrep_sum": _check_plaquette_projector_from_irrep_sum,
    "cl_absorbs_left_multiplication": _pair_identity(controlled_left, "LL", "L1"),
    "cr_absorbs_left_multiplication": _pair_identity(controlled_right, "LR", "L1"),
    "cl_spreads_right_multiplication": _pair_identity(controlled_left, "R1", "RL"),
    "cr_spreads_right_multiplication": _pair_identity(controlled_right, "R1", "RR"),
    "charge_diagonals_push_to_edge": _check_charge_diagonals_push_to_edge,
}

_SYSTEM_IDENTITIES: Dict[str, Callable[..., float]] = {
    "two_step_composition": _check_two_step_composition,
    "quotient_symmetry_survives": _check_quotient_symmetry_survives,
    "dressed_loops_carry_irrep_dimension": _check_dressed_loops_carry_irrep_dimension,
    "central_extension_circuit_matches_composition": _check_central_extension_circuit_matches_composition,
    "decorated_wall_pushthrough": _check_decorated_wall_pushthrough,
}


def identity_names() -> Tuple[str, ...]:
    return tuple(list(_GROUP_IDENTITIES) + list(_SYSTEM_IDENTITIES))


def check_identity(name: str, subject, cell: Cellulation) -> float:
    """Materialize both sides of one named identity on one graph and return
    the largest absolute entry difference; the gauging maps it reads are
    built for this call alone."""
    return _check(name, subject, cell, _PureMaps(cell))


def _check(name: str, subject, cell: Cellulation, maps: _PureMaps) -> float:
    if name in _GROUP_IDENTITIES:
        if not isinstance(subject, FiniteGroup):
            raise TypeError(f"identity {name!r} takes a group, got {type(subject).__name__}")
        return _GROUP_IDENTITIES[name](subject, cell, maps)
    if name in _SYSTEM_IDENTITIES:
        if not isinstance(subject, FactorSystem):
            raise TypeError(f"identity {name!r} takes a factor system, got {type(subject).__name__}")
        return _SYSTEM_IDENTITIES[name](subject, cell, maps)
    raise KeyError(f"unknown identity {name!r}; known: {', '.join(identity_names())}")


def identity_suite(
    cell: Cellulation,
    groups: Optional[Dict[str, FiniteGroup]] = None,
    systems: Optional[Dict[str, FactorSystem]] = None,
) -> List[Dict[str, object]]:
    """Run every known identity against every supplied subject on one graph.

    Returns a flat table; combinations an identity cannot apply to (open
    graph, missing irrep matrices, non-central extension, budget) appear as
    rows with a skip reason instead of a deviation. Every check reads one
    set of pure gauging maps, built once per subject for this call.
    """
    maps = _PureMaps(cell)
    rows: List[Dict[str, object]] = []
    for name in identity_names():
        subjects = (groups or {}) if name in _GROUP_IDENTITIES else (systems or {})
        for label, subject in subjects.items():
            row: Dict[str, object] = {"identity": name, "subject": label, "graph": cell.name}
            try:
                row["deviation"] = _check(name, subject, cell, maps)
            except ValueError as err:
                row["skipped"] = str(err)
            rows.append(row)
    return rows
