"""Directed 2D cellulations: vertices, directed edges, oriented plaquette walks.

Each edge carries two direction data: the primal arrow (i_e -> f_e between
vertices) and a dual arrow (i_dual -> f_dual between the two plaquettes whose
boundary walks traverse it). On a closed surface every edge is traversed by
exactly two walk steps with opposite orientation; coupling and transport
algorithms key off those walk-appearance signs, which are exposed per edge,
because the stored dual arrows (+x/+y on square lattices) do not relate to
walk signs uniformly across edge families.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Cellulation",
    "CellulationError",
    "Tree",
    "square_torus",
    "hexagon_torus",
    "theta_sphere",
    "tetrahedron_sphere",
    "two_vertex_graph",
    "triangle_graph",
    "from_json",
    "to_json",
    "spanning_tree",
    "dual_spanning_tree",
]


class CellulationError(ValueError):
    """Raised with the full list of violated invariants."""

    def __init__(self, violations: List[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class Cellulation:
    """A directed graph with oriented plaquette walks and dual-edge data.

    closed=True demands the closed-surface invariants (two opposite walk
    appearances per edge, Euler characteristic matching the genus). Open
    fixtures (closed=False) carry no plaquettes and are used for operator
    identity checks on small graphs.
    """

    n_vertices: int
    edges: Tuple[Tuple[int, int], ...]
    plaquettes: Tuple[Tuple[Tuple[int, int], ...], ...] = ()
    dual_edges: Tuple[Tuple[int, int], ...] = ()
    genus: Optional[int] = None
    closed: bool = True
    name: str = "cell"

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(i), int(f)) for i, f in self.edges))
        object.__setattr__(
            self,
            "plaquettes",
            tuple(tuple((int(e), int(o)) for e, o in walk) for walk in self.plaquettes),
        )
        object.__setattr__(self, "dual_edges", tuple((int(a), int(b)) for a, b in self.dual_edges))
        violations = self.validate()
        if violations:
            raise CellulationError(violations)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_plaquettes(self) -> int:
        return len(self.plaquettes)

    def validate(self) -> List[str]:
        out: List[str] = []
        v, es = self.n_vertices, self.edges
        if v < 1:
            out.append("cellulation needs at least one vertex")
        for k, (i, f) in enumerate(es):
            if not (0 <= i < v and 0 <= f < v):
                out.append(f"edge {k}: endpoint out of range")
            elif i == f:
                out.append(f"edge {k}: self-loop at vertex {i}")
        defects = [(p, self.walk_defect(walk)) for p, walk in enumerate(self.plaquettes)]
        out += [f"plaquette {p}: {defect}" for p, defect in defects if defect]
        # the surface checks index every step's edge, so they run on well-formed walks only
        if self.closed and not any(defect for _, defect in defects):
            apps = self._appearances()
            for e in range(len(es)):
                signs = sorted(o for _, o in apps[e])
                if signs != [-1, 1]:
                    out.append(
                        f"edge {e}: needs exactly two walk appearances with opposite orientation, got {apps[e]}"
                    )
            if len(self.dual_edges) != len(es):
                out.append("dual_edges must list one plaquette pair per edge")
            else:
                for e in range(len(es)):
                    named = sorted(self.dual_edges[e])
                    present = sorted(p for p, _ in apps[e])
                    if named != present:
                        out.append(
                            f"edge {e}: dual_edges {self.dual_edges[e]} do not name its boundary plaquettes {present}"
                        )
            if self.genus is not None:
                euler = v - len(es) + len(self.plaquettes)
                if euler != 2 - 2 * self.genus:
                    out.append(f"Euler characteristic {euler} mismatches genus {self.genus}")
        return out

    def walk_defect(self, walk: Sequence[Tuple[int, int]]) -> Optional[str]:
        """Why walk is not a closed oriented walk on this graph, or None.

        A walk is a sequence of (edge, +1 along its arrow / -1 against) steps;
        each step starts where the one before it ends, and the last ends where
        the first starts."""
        if not walk:
            return "empty walk"
        for k, (e, o) in enumerate(walk):
            if not 0 <= e < len(self.edges) or o not in (1, -1):
                return f"step {k} ({e}, {o}) needs an edge in [0, {len(self.edges)}) and orientation +1 or -1"
        ends = [self.edges[e] if o == 1 else self.edges[e][::-1] for e, o in walk]
        for k, ((_, end), (start, _)) in enumerate(zip(ends, ends[1:] + ends[:1])):
            if end != start:
                return f"walk is not closed at step {k}: {end} != {start}"
        return None

    def _appearances(self) -> List[List[Tuple[int, int]]]:
        apps: List[List[Tuple[int, int]]] = [[] for _ in self.edges]
        for p, walk in enumerate(self.plaquettes):
            for e, o in walk:
                apps[e].append((p, o))
        return apps

    def plaquette_pair(self, e: int) -> Tuple[int, int]:
        """(plaquette traversing e against its arrow, plaquette traversing along).

        This is the walk-derived dual pair; it lists the same two plaquettes
        as dual_edges[e] but in the sign-canonical order used by couplings
        and flux transport.
        """
        apps = self._appearances()[e]
        minus = [p for p, o in apps if o == -1]
        plus = [p for p, o in apps if o == 1]
        if len(minus) != 1 or len(plus) != 1:
            raise ValueError(f"edge {e} lacks the two opposite appearances")
        return minus[0], plus[0]

    def edges_at_vertex(self, v: int) -> List[Tuple[int, int]]:
        """Incident edges as (edge, +1 if outgoing / -1 if incoming); both entries for loops at distinct roles."""
        out = []
        for e, (i, f) in enumerate(self.edges):
            if i == v:
                out.append((e, 1))
            if f == v:
                out.append((e, -1))
        return out


@dataclass(frozen=True)
class Tree:
    """Spanning tree with per-node transport paths toward the root.

    path[x] is the root-ward walk from node x: a tuple of (edge, sign) steps,
    where sign is the transport orientation for that step (primal trees: +1
    when the edge points root-ward, dual trees: the walk sign of the edge in
    the plaquette being left).
    """

    root: int
    edges: Tuple[int, ...]
    path: Tuple[Tuple[Tuple[int, int], ...], ...]


def _bfs_tree(n_nodes: int, incidence: Dict[int, List[Tuple[int, int, int]]], what: str) -> Tree:
    """incidence[node] = list of (edge id, neighbor, transport sign toward neighbor)."""
    parent_step: List[Optional[Tuple[int, int, int]]] = [None] * n_nodes  # (edge, sign, parent)
    seen = [False] * n_nodes
    seen[0] = True
    queue = deque([0])
    tree_edges: List[int] = []
    while queue:
        x = queue.popleft()
        for e, nb, sign in incidence[x]:
            if not seen[nb]:
                seen[nb] = True
                # recorded at the child: transport from child back toward x
                parent_step[nb] = (e, -sign, x)
                tree_edges.append(e)
                queue.append(nb)
    if not all(seen):
        missing = [i for i, s in enumerate(seen) if not s]
        raise ValueError(f"{what} is disconnected; unreachable: {missing}")
    paths: List[Tuple[Tuple[int, int], ...]] = []
    for x in range(n_nodes):
        steps: List[Tuple[int, int]] = []
        node = x
        while parent_step[node] is not None:
            e, sign, par = parent_step[node]
            steps.append((e, sign))
            node = par
        paths.append(tuple(steps))
    return Tree(root=0, edges=tuple(tree_edges), path=tuple(paths))


def spanning_tree(cell: Cellulation) -> Tree:
    """Breadth-first tree from vertex 0; path signs are +1 when the step's edge
    points from the current vertex toward the root side (i.e. is traversed
    along its arrow)."""
    incidence: Dict[int, List[Tuple[int, int, int]]] = {v: [] for v in range(cell.n_vertices)}
    for e, (i, f) in enumerate(cell.edges):
        # moving i -> f travels along the arrow: sign +1
        incidence[i].append((e, f, 1))
        incidence[f].append((e, i, -1))
    # incidence sign is "toward neighbor"; the recorded step must be "toward parent",
    # which is the reverse direction of discovery
    return _bfs_tree(cell.n_vertices, incidence, "cellulation")


def dual_spanning_tree(cell: Cellulation) -> Tree:
    """Breadth-first tree on plaquettes; path signs are the walk sign of the
    crossed edge in the plaquette being left (flux transport convention)."""
    if not cell.closed:
        raise ValueError("dual tree requires a closed cellulation")
    incidence: Dict[int, List[Tuple[int, int, int]]] = {p: [] for p in range(cell.n_plaquettes)}
    for e in range(cell.n_edges):
        p_minus, p_plus = cell.plaquette_pair(e)
        if p_minus == p_plus:
            continue  # degenerate dual self-loop (hexagon torus): no adjacency
        # leaving p_minus across e: walk sign of e in p_minus is -1, transport sign -(-1)=?
        # Convention: the recorded sign is the walk sign in the departed plaquette.
        incidence[p_minus].append((e, p_plus, -1))
        incidence[p_plus].append((e, p_minus, 1))
    tree = _bfs_tree(cell.n_plaquettes, incidence, "dual graph")
    return tree


# ---------------------------------------------------------------------------
# constructors: the torus and sphere cells the CLI names are built and
# validated once per process and shared, since a Cellulation is frozen


@lru_cache(maxsize=16)
def square_torus(lx: int, ly: int) -> Cellulation:
    """Square lattice on the torus. Vertex v = x + lx*y; edge 2v points +x,
    edge 2v+1 points +y; plaquette v sits northeast of vertex v with a
    counterclockwise boundary walk; dual arrows point +x/+y.
    """
    if lx < 2 or ly < 2:
        raise ValueError(f"square torus needs lx, ly >= 2 to avoid self-loops, got ({lx},{ly})")

    def vid(x: int, y: int) -> int:
        return (x % lx) + lx * (y % ly)

    edges: List[Tuple[int, int]] = []
    for y in range(ly):
        for x in range(lx):
            edges.append((vid(x, y), vid(x + 1, y)))  # 2v: +x
            edges.append((vid(x, y), vid(x, y + 1)))  # 2v+1: +y

    def ex(x: int, y: int) -> int:
        return 2 * vid(x, y)

    def ey(x: int, y: int) -> int:
        return 2 * vid(x, y) + 1

    plaquettes = []
    for y in range(ly):
        for x in range(lx):
            plaquettes.append(
                (
                    (ex(x, y), 1),
                    (ey(x + 1, y), 1),
                    (ex(x, y + 1), -1),
                    (ey(x, y), -1),
                )
            )
    dual = [(0, 0)] * len(edges)
    for y in range(ly):
        for x in range(lx):
            p = vid(x, y)
            dual[ex(x, y)] = (vid(x, y - 1), p)  # dual arrow +y: below -> above
            dual[ey(x, y)] = (vid(x - 1, y), p)  # dual arrow +x: left -> right
    return Cellulation(
        n_vertices=lx * ly,
        edges=tuple(edges),
        plaquettes=tuple(plaquettes),
        dual_edges=tuple(dual),
        genus=1,
        name=f"square_torus({lx},{ly})",
    )


@lru_cache(maxsize=1)
def hexagon_torus() -> Cellulation:
    """Hexagonal fundamental domain with opposite sides identified: the
    smallest self-loop-free torus cellulation (V=2, E=3, F=1)."""
    walk = ((0, 1), (1, -1), (2, 1), (0, -1), (1, 1), (2, -1))
    return Cellulation(
        n_vertices=2,
        edges=((0, 1), (0, 1), (0, 1)),
        plaquettes=(walk,),
        dual_edges=((0, 0), (0, 0), (0, 0)),
        genus=1,
        name="hexagon_torus",
    )


@lru_cache(maxsize=1)
def theta_sphere() -> Cellulation:
    """Theta graph on the sphere: V=2, E=3, F=3, genus 0."""
    plaquettes = (
        ((0, 1), (1, -1)),
        ((1, 1), (2, -1)),
        ((2, 1), (0, -1)),
    )
    return Cellulation(
        n_vertices=2,
        edges=((0, 1), (0, 1), (0, 1)),
        plaquettes=plaquettes,
        dual_edges=((2, 0), (0, 1), (1, 2)),
        genus=0,
        name="theta_sphere",
    )


def tetrahedron_sphere() -> Cellulation:
    """Tetrahedron boundary: V=4, E=6, F=4, genus 0."""
    edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    plaquettes = (
        ((3, 1), (5, 1), (4, -1)),  # 1->2->3->1
        ((2, 1), (5, -1), (1, -1)),  # 0->3->2->0
        ((0, 1), (4, 1), (2, -1)),  # 0->1->3->0
        ((1, 1), (3, -1), (0, -1)),  # 0->2->1->0
    )
    dual = [(0, 0)] * 6
    apps: Dict[int, Dict[int, int]] = {e: {} for e in range(6)}
    for p, walk in enumerate(plaquettes):
        for e, o in walk:
            apps[e][o] = p
    for e in range(6):
        dual[e] = (apps[e][-1], apps[e][1])
    return Cellulation(
        n_vertices=4,
        edges=edges,
        plaquettes=plaquettes,
        dual_edges=tuple(dual),
        genus=0,
        name="tetrahedron_sphere",
    )


def two_vertex_graph(n_edges: int = 1) -> Cellulation:
    """Open fixture: two vertices joined by parallel edges, no plaquettes."""
    return Cellulation(
        n_vertices=2,
        edges=tuple((0, 1) for _ in range(n_edges)),
        closed=False,
        name=f"two_vertex_graph({n_edges})",
    )


def triangle_graph() -> Cellulation:
    """Open fixture: directed 3-cycle, no plaquettes."""
    return Cellulation(
        n_vertices=3,
        edges=((0, 1), (1, 2), (2, 0)),
        closed=False,
        name="triangle_graph",
    )


# ---------------------------------------------------------------------------
# serialization


def to_json(cell: Cellulation) -> str:
    doc = {
        "vertices": cell.n_vertices,
        "edges": [list(e) for e in cell.edges],
        "plaquettes": [[list(step) for step in walk] for walk in cell.plaquettes],
        "dual_edges": [list(d) for d in cell.dual_edges],
        "genus": cell.genus,
        "closed": cell.closed,
        "name": cell.name,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def from_json(document) -> Cellulation:
    """Build a validated Cellulation from a JSON document (string or dict).

    Invalid documents raise CellulationError listing every violated invariant
    with its location.
    """
    doc = json.loads(document) if isinstance(document, str) else document
    try:
        return Cellulation(
            n_vertices=int(doc["vertices"]),
            edges=tuple(tuple(e) for e in doc["edges"]),
            plaquettes=tuple(tuple(tuple(s) for s in walk) for walk in doc.get("plaquettes", [])),
            dual_edges=tuple(tuple(d) for d in doc.get("dual_edges", [])),
            genus=doc.get("genus"),
            closed=bool(doc.get("closed", True)),
            name=str(doc.get("name", "cell")),
        )
    except KeyError as exc:
        raise CellulationError([f"missing field {exc}"]) from exc
