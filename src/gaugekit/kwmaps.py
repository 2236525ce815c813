"""Kramers-Wannier maps in exact and measured form.

kw_exact_g is the definitional oracle: it writes the domain walls of every
vertex basis configuration onto the edges by direct enumeration. kw_abelian
and kw_hat_abelian are the gate-level maps for an abelian group on the
vertex route and the plaquette (dual) route; kw_n_in_g gauges a normal
subgroup presented by a factor system, leaving the quotient parts of the
vertices live. Measured modes repair nontrivial outcomes through feedforward
so every sampled branch matches the postselected branch. Both vertex-route
maps run one whole round through one body (_kw_round): the symmetry check,
the gated edge allocation, the Fourier measurement and one correction
layer, on one seed, on a stack of seeds, or on one seed that the round's
first measurement fans out to a stack, one mode per seed. Every
vertex-route round of every protocol is one of these two calls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cellulation import Cellulation, dual_spanning_tree, spanning_tree
from .feedforward import CorrectionPlan, SyndromeSet, charge_correction, flux_correction
from .gates import (
    controlled_left,
    controlled_right,
    cz_abelian,
    left_mult,
    omega_gate,
    parent_to_pair,
    sigma_gate,
    z_dual,
    z_tilde,
)
from .groups import FactorSystem, FiniteGroup, _cayley_diameter, _generating_set
from .register import (
    AMPLITUDE_BUDGET,
    SEED_SITE,
    STATE_TOL,
    DiagonalOperator,
    LocalOperator,
    QuditRegister,
    SiteSpec,
    WallCircuit,
    _edge_site,
    _from_support,
    _overlap,
    _plus_state,
    _vertex_site,
)

__all__ = ["KwMode", "KwResult", "kw_abelian", "kw_hat_abelian", "kw_exact_g", "kw_n_in_g"]

# dense-assembly ceiling for the enumeration oracle, in amplitudes
EXACT_BUDGET = AMPLITUDE_BUDGET


def _plaquette_site(p: int) -> Hashable:
    return ("p", p)


def _n_site(v: int) -> Hashable:
    return ("v", v, "n")


def _q_site(v: int) -> Hashable:
    return ("v", v, "q")


@dataclass(frozen=True)
class KwMode:
    """Measurement handling for the gate-level maps.

    postselect keeps the trivial branch of every measurement (forced outcome
    0 on every site), sample draws one branch per site with a counter-based
    generator, forced selects the stated outcomes, 0 for a site the table
    does not name (rejected when their Born probability vanishes).
    """

    kind: str
    seed: Optional[int] = None
    outcomes: Optional[Dict[int, int]] = None

    def __post_init__(self):
        if self.kind not in ("postselect", "sample", "forced"):
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if self.kind == "sample" and self.seed is None:
            raise ValueError("sample mode needs a seed")
        if self.kind == "sample" and self.seed < 0:
            raise ValueError(f"sample mode needs a non-negative seed, got {self.seed}")
        if self.kind == "forced" and self.outcomes is None:
            raise ValueError("forced mode needs an outcome table")

    @staticmethod
    def postselect() -> "KwMode":
        return KwMode("postselect")

    @staticmethod
    def sample(seed: int) -> "KwMode":
        return KwMode("sample", seed=int(seed))

    @staticmethod
    def forced(outcomes: Dict[int, int]) -> "KwMode":
        return KwMode("forced", outcomes=dict(outcomes))

    def generator(self) -> Optional[np.random.Generator]:
        if self.kind != "sample":
            return None
        return np.random.Generator(np.random.Philox(self.seed))


@dataclass
class KwResult:
    """Output register plus the measurement record that produced it.

    outcomes maps each measured site index to its dual label; corrections is
    the plan that was applied (empty in postselect mode); probability is the
    joint Born weight of the branch. A seed of a stack holds the stack as its
    register.
    """

    register: QuditRegister
    outcomes: Dict[int, int]
    corrections: CorrectionPlan
    probability: float

    @property
    def normalization(self) -> float:
        return float(np.sqrt(self.probability))

    def to_json(self) -> str:
        payload = {
            "outcomes": {str(k): int(v) for k, v in sorted(self.outcomes.items())},
            "corrections": self.corrections.as_dict(),
            "probability": float(self.probability),
            "normalization": self.normalization,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _probe_table(subject: Union[FiniteGroup, FactorSystem]) -> np.ndarray:
    """The symmetry probe's source rows, read off the group tables and so
    trusted: row g holds g^-1 x at label x of a group's vertex, and the pair
    label of g^-1 times the parent element of x on a split vertex."""
    if isinstance(subject, FactorSystem):
        pair = parent_to_pair(subject)
        return pair[subject.parent.mult[subject.parent.inv][:, np.argsort(pair)]]
    return subject.mult[subject.inv]


def _require_symmetric(
    reg: QuditRegister, subject: Union[FiniteGroup, FactorSystem], sites: Sequence[Tuple[Hashable, ...]], what: str
) -> None:
    """Reject inputs that carry a net charge: the global product constraint on
    outcomes is satisfiable exactly for invariant states, so repair would fail.

    sites holds each vertex's sites, one plain-group site or a split
    (subgroup, quotient) pair. Element g is probed by one per-axis take per
    vertex of its row of _probe_table, in the form the register holds
    (QuditRegister.probe_residual). A probe reads psi o s_g, g -> s_g a
    homomorphism into permutations, so residual(gh) <= residual(g) +
    residual(h): a generating set's largest residual times the Cayley-graph
    diameter (and 1 + 1e-9 for rounding) within STATE_TOL accepts the input;
    else every element is probed in order, and the first that moves it is
    named."""
    table = _probe_table(subject)
    vertices = [[reg.pos(s) for s in t] for t in sites]
    for t, axes in zip(sites, vertices):
        if math.prod(reg.dims[a] for a in axes) != subject.order:
            raise ValueError(f"{what}: vertex sites {t} do not carry the joint basis of the symmetry")
    group = subject.parent if isinstance(subject, FactorSystem) else subject
    worst = max((reg.probe_residual(vertices, table[g]) for g in _generating_set(group)), default=0.0)
    if worst * _cayley_diameter(group) * (1 + 1e-9) <= STATE_TOL:
        return
    for g in range(1, subject.order):
        if reg.probe_residual(vertices, table[g]) > STATE_TOL:
            raise ValueError(
                f"{what}: input is not invariant under the global left action "
                f"(element {g} moves it); the residual charge obstructs outcome repair"
            )


def _wall_gates(
    subject,
    cell: Cellulation,
    vertex_of: Callable[[int], Hashable],
    edge_of: Callable[[int], Hashable],
    q_of: Optional[Callable[[int], Hashable]] = None,
) -> WallCircuit:
    """The vertex-route entangler as one wall circuit: CL+ and CR+ write the
    domain wall g_i^-1 g_f of a group onto the identity-state edge; for a
    factor system they act on the subgroup parts, and Omega, Sigma+ then
    dress the wall with the quotient parts. Its templates are the cached
    gates of gates.py on slots (i, f, e, qi, qf): the end vertices, the
    edge, and the end vertices' quotient parts; its target table holds
    those sites for every edge, in edge order."""
    fs = subject if isinstance(subject, FactorSystem) else None
    grp = subject if fs is None else fs.n_group
    templates = [controlled_left(grp, 0, 2).dagger(), controlled_right(grp, 1, 2).dagger()]
    if fs is None:
        rows = [(vertex_of(i_v), vertex_of(f_v), edge_of(e)) for e, (i_v, f_v) in enumerate(cell.edges)]
    else:
        templates += [omega_gate(fs, 3, 2, 4), sigma_gate(fs, 3, 2).dagger()]
        rows = [
            (vertex_of(i_v), vertex_of(f_v), edge_of(e), q_of(i_v), q_of(f_v)) for e, (i_v, f_v) in enumerate(cell.edges)
        ]
    return WallCircuit(templates, rows)


def _kw_round(
    reg: QuditRegister,
    subject: Union[FiniteGroup, FactorSystem],
    cell: Cellulation,
    mode: Union[KwMode, Sequence[KwMode]],
    vertex_of: Callable[[int], Hashable],
    edge_of: Callable[[int], Hashable],
    q_of: Optional[Callable[[int], Hashable]] = None,
) -> Union[KwResult, List[KwResult]]:
    """One vertex-route gauging round, in place: the symmetry check, the
    edge ancillas allocated through the wall circuit, the Fourier
    measurement of the gauged vertex parts and one layer of character
    corrections. subject is an abelian group, gauged on the vertex sites,
    or a factor system, whose subgroup parts vertex_of names and quotient
    parts q_of names. mode is one KwMode, which returns one KwResult, or
    one mode per seed, which returns a list: reg is then a stack of that
    many seeds, or one seed, which the round's first measurement fans out
    to the stack (QuditRegister.measure_fourier)."""
    modes = [mode] if isinstance(mode, KwMode) else list(mode)
    fs = subject if isinstance(subject, FactorSystem) else None
    group = subject if fs is None else fs.n_group
    n_v = cell.n_vertices
    parts = [(vertex_of(v),) if fs is None else (vertex_of(v), q_of(v)) for v in range(n_v)]
    _require_symmetric(reg, subject, parts, "kw_abelian" if fs is None else "kw_n_in_g")
    reg.add_sites(
        [SiteSpec(edge_of(e), "edge", group) for e in range(cell.n_edges)],
        _wall_gates(subject, cell, vertex_of, edge_of, q_of),
    )
    outcomes, probs = _measure_sites(reg, modes, [(v, vertex_of(v)) for v in range(n_v)])
    plans = _charge_plans(outcomes, group, cell)
    if fs is None:
        _apply_corrections(reg, plans, _plan_gate(plans[0], edge_of))
    else:
        _apply_corrections(reg, plans, lambda e, t: z_tilde(fs, t, e, cell, q_of, edge_of))
    results = [KwResult(reg, *record) for record in zip(outcomes, plans, probs)]
    return results[0] if isinstance(mode, KwMode) else results


def _measure_sites(
    reg: QuditRegister, modes: Sequence[KwMode], site_pairs: List[Tuple[int, Hashable]]
) -> Tuple[List[Dict[int, int]], List[float]]:
    """Measure the sites in order, once each for every seed, modes one per
    seed and all of one kind: each seed's outcomes and joint probability. reg
    is a stack of one seed per mode, or one seed, which the first
    measurement fans out to one per mode (QuditRegister.measure_fourier).
    Postselect is the Fourier measurement at forced outcome 0, the trivial
    branch, so a forced table that names no site reproduces it bitwise."""
    kind = modes[0].kind
    if any(mode.kind != kind for mode in modes) or reg.seeds not in (1, len(modes)):
        raise ValueError(f"a measurement layer of {reg.seeds} seeds needs one mode per seed, all of one kind")
    if kind == "forced":
        for mode in modes:
            unknown = sorted(set(mode.outcomes) - {idx for idx, _ in site_pairs})
            if unknown:
                raise ValueError(f"forced outcome keys {unknown} name no site this measurement layer reads")
    rngs = [mode.generator() for mode in modes]
    outcomes: List[Dict[int, int]] = [{} for _ in modes]
    probs = [1.0] * len(modes)
    for idx, sid in site_pairs:
        if kind == "sample":
            reg.measure_fourier(sid, rng=rngs)
        else:
            reg.measure_fourier(sid, forced=[(mode.outcomes or {}).get(idx, 0) for mode in modes])
        record = reg.retired[sid]
        for s, (outcome, prob) in enumerate(zip(record.outcomes, record.probabilities)):
            outcomes[s][idx] = outcome
            probs[s] *= prob
    return outcomes, probs


def _charge_plans(outcomes: Sequence[Dict[int, int]], group: FiniteGroup, cell: Cellulation) -> List[CorrectionPlan]:
    """The character layer that cancels each seed's measured vertex charges
    on the spanning tree, built once for all seeds."""
    tree = spanning_tree(cell)
    return [charge_correction(SyndromeSet("charge", seen, group), cell, tree).inverse() for seen in outcomes]


def _flux_plans(outcomes: Sequence[Dict[int, int]], group: FiniteGroup, cell: Cellulation) -> List[CorrectionPlan]:
    """The group-shift layer that cancels each seed's measured plaquette
    fluxes on the dual tree, built once for all seeds."""
    tree = dual_spanning_tree(cell)
    return [flux_correction(SyndromeSet("flux", seen, group), cell, tree) for seen in outcomes]


def _couple_plaquettes(
    reg: QuditRegister, cell: Cellulation, a_group: FiniteGroup,
    plaquette_of: Callable[[int], Hashable], edge_of: Callable[[int], Hashable]
) -> None:
    """The plaquette-route entangler: couple each edge to its two plaquettes
    with opposite character phases, in place."""
    for e in range(cell.n_edges):
        p_minus, p_plus = cell.plaquette_pair(e)
        if p_minus == p_plus:
            continue  # both couplings hit the same plaquette and cancel
        reg.apply(cz_abelian(a_group, plaquette_of(p_plus), edge_of(e)))
        reg.apply(cz_abelian(a_group, plaquette_of(p_minus), edge_of(e)).dagger())


def _plan_gate(plan: CorrectionPlan, edge_of: Callable[[int], Hashable]) -> Callable[[int, int], LocalOperator]:
    """The gate of an abelian correction plan's basis for exponent x on edge
    e: a character diagonal for basis Z, a group shift for X."""
    gate = {"Z": z_dual, "X": left_mult}[plan.basis]
    return lambda e, x: gate(plan.group, x, edge_of(e))


def _apply_corrections(
    reg: QuditRegister, plans: Sequence[CorrectionPlan], gate_of: Callable[[int, int], LocalOperator]
) -> None:
    """One feedforward layer, plans one per seed of reg, in place: the edges
    any plan corrects, in sorted order, each as one gate_of(edge, exponent)
    gate per seed, merged into one gate over the seed site (_seed_gate). So
    each seed goes through its own corrections in the order a run of that
    seed alone takes, with an identity row where it has none."""
    for e in sorted(set().union(*(plan.exponents for plan in plans))):
        gates = [gate_of(e, plan.exponents[e]) if e in plan.exponents else None for plan in plans]
        reg.apply(gates[0] if len(gates) == 1 else _seed_gate(gates))


def _seed_gate(gates: Sequence[Optional[LocalOperator]]) -> Union[LocalOperator, DiagonalOperator]:
    """One gate over (SEED_SITE, the gates' targets) that runs gates[s] on
    seed s and the identity where gates[s] is None: the diagonals' rows, a row
    of exact ones for the identity, or the permutations' images shifted to
    each seed's block of labels."""
    op = next(gate for gate in gates if gate is not None)
    targets, dim = (SEED_SITE,) + op.targets, op.joint_dim
    if op.kind == "diag":
        ones = np.ones(dim, dtype=np.complex128)
        return DiagonalOperator(targets, np.concatenate([ones if g is None else g.diag for g in gates]), op.name)
    rows = [np.arange(dim) if g is None else g.image for g in gates]
    return LocalOperator(targets, "perm", np.concatenate([s * dim + row for s, row in enumerate(rows)]), op.name)


def kw_abelian(
    reg: QuditRegister,
    cell: Cellulation,
    a_group: FiniteGroup,
    mode: Union[KwMode, Sequence[KwMode]],
    vertex_of: Callable[[int], Hashable] = _vertex_site,
    edge_of: Callable[[int], Hashable] = _edge_site,
) -> Union[KwResult, List[KwResult]]:
    """Gauge an abelian symmetry along the vertex route.

    Allocates edge ancillas in the identity state, writes each domain wall
    a_i^-1 a_f onto its edge, measures every vertex in the Fourier basis and
    cancels the outcome phases with one layer of character diagonals. The
    register is modified in place and returned inside the result. Given a
    list of modes, one per seed, on a stack of as many seeds or on one seed
    its first measurement fans out (_kw_round), it returns a list.
    """
    if not a_group.is_abelian:
        raise ValueError("kw_abelian needs an abelian group")
    return _kw_round(reg, a_group, cell, mode, vertex_of, edge_of)


def kw_hat_abelian(
    reg: QuditRegister,
    cell: Cellulation,
    a_group: FiniteGroup,
    mode: KwMode,
    plaquette_of: Callable[[int], Hashable] = _plaquette_site,
    edge_of: Callable[[int], Hashable] = _edge_site,
) -> KwResult:
    """Gauge an abelian symmetry along the plaquette (dual) route.

    Allocates edge ancillas in the uniform state, couples each edge to its
    two plaquettes with opposite character phases, measures every plaquette
    in the Fourier basis and shifts the fluxes back with one layer of group
    multiplications on the direct edges.
    """
    if not a_group.is_abelian:
        raise ValueError("kw_hat_abelian needs an abelian group")
    if not cell.closed:
        raise ValueError("kw_hat_abelian needs a closed cellulation")
    n_p = cell.n_plaquettes
    _require_symmetric(reg, a_group, [(plaquette_of(p),) for p in range(n_p)], "kw_hat_abelian")
    reg.add_sites(
        [SiteSpec(edge_of(e), "edge", a_group) for e in range(cell.n_edges)], _plus_state
    )
    _couple_plaquettes(reg, cell, a_group, plaquette_of, edge_of)
    [outcomes], [prob] = _measure_sites(reg, [mode], [(p, plaquette_of(p)) for p in range(n_p)])
    [applied] = _flux_plans([outcomes], a_group, cell)
    _apply_corrections(reg, [applied], _plan_gate(applied, edge_of))
    return KwResult(register=reg, outcomes=outcomes, corrections=applied, probability=prob)


def kw_exact_g(
    reg: QuditRegister,
    cell: Cellulation,
    g_group: FiniteGroup,
    vertex_of: Callable[[int], Hashable] = _vertex_site,
    edge_of: Callable[[int], Hashable] = _edge_site,
) -> QuditRegister:
    """Definitional map |g_V> -> |g_i^-1 g_f on each edge>, any finite group.

    Assembled by direct basis enumeration, no gates and no measurement; the
    output is normalized, in support form: np.add.at on the merged wall
    keys adds each key's terms in the order a dense scatter does, so every
    value has its bits, and a key whose terms cancel exactly is left out.
    The input must hold exactly the vertex sites. This is the oracle every
    protocol output is compared against.
    """
    d = g_group.order
    n_v, n_e = cell.n_vertices, cell.n_edges
    if len(reg.sites) != n_v:
        raise ValueError("kw_exact_g expects a register with exactly the vertex sites")
    if d ** n_e > EXACT_BUDGET:
        raise ValueError(
            f"edge space {d}^{n_e} exceeds the dense-assembly budget {EXACT_BUDGET}"
        )
    order = [reg.pos(vertex_of(v)) for v in range(n_v)]
    amps = np.moveaxis(reg.amps, order, range(n_v)).reshape(-1)
    grids = np.indices((d,) * n_v).reshape(n_v, -1)
    walls = np.empty((n_e, grids.shape[1]), dtype=np.int64)
    for e, (i_v, f_v) in enumerate(cell.edges):
        walls[e] = g_group.mult[g_group.inv[grids[i_v]], grids[f_v]]
    keys, slot = np.unique(np.ravel_multi_index(tuple(walls), (d,) * n_e), return_inverse=True)
    sums = np.zeros(keys.size, dtype=np.complex128)
    np.add.at(sums, slot, amps)
    norm = np.sqrt(_overlap(sums, sums).real)
    if norm < 1e-12:
        raise ValueError("input has no invariant component; the map projects it to zero")
    values = sums / norm
    kept = values != 0
    specs = [SiteSpec(edge_of(e), "edge", g_group) for e in range(n_e)]
    return _from_support(specs, keys[kept], values[kept])


def kw_n_in_g(
    reg: QuditRegister,
    cell: Cellulation,
    fs: FactorSystem,
    mode: Union[KwMode, Sequence[KwMode]],
    n_of: Callable[[int], Hashable] = _n_site,
    q_of: Callable[[int], Hashable] = _q_site,
    edge_of: Callable[[int], Hashable] = _edge_site,
) -> Union[KwResult, List[KwResult]]:
    """Gauge a normal subgroup inside a group given in the split basis.

    Vertex sites must be presented as (subgroup part, quotient part) pairs.
    Allocates subgroup-valued edge ancillas, applies the restricted edge
    entangler followed by the omega and inverse-sigma dressing layers,
    measures only the subgroup part of every vertex, and repairs outcomes
    with one layer of dressed character diagonals. Quotient parts stay live.
    mode is one KwMode or, on a stack of seeds, one per seed (kw_abelian).

    The subgroup must be abelian, in every mode: its parts are measured in
    the Fourier basis, and repairs for a non-abelian one would be string
    operators that do not stay in one layer. A non-abelian one is rejected
    before the register is touched.
    """
    if not fs.n_group.is_abelian:
        raise ValueError("kw_n_in_g needs an abelian subgroup")
    return _kw_round(reg, fs, cell, mode, n_of, edge_of, q_of)
