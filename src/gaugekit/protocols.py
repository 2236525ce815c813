"""Preparation protocols for quantum double states, with shot accounting.

Each protocol assembles the gauging maps into measurement rounds, repairs
sampled outcomes with one feedforward layer per round, and reassembles split
edge labels into the full group at the end. The transcript records every
unitary layer, outcome, and correction plan, along with the branch
probability and the fidelity against the enumeration oracle when requested.
Every run, one seed or many, is a run plan (plan_run): the preconditions,
the start register and the oracle, built once. Its seeds run in lockstep
from the start register, as one stack (QuditRegister.stack), and each
vertex-route round is one kw_n_in_g or kw_abelian call on the stack: one
symmetry probe and one gated allocation, one measurement per site and one
correction gate per edge for every seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cellulation import Cellulation
from .feedforward import CorrectionPlan
from .gates import controlled_left, controlled_right, omega_gate, parent_to_pair
from .groups import (
    FactorSystem,
    FiniteGroup,
    derived_series,
    factor_system_of,
    is_nil2_extension,
)
from .kwmaps import (
    KwMode, _apply_corrections, _charge_plans, _couple_plaquettes, _flux_plans, _measure_sites,
    _plan_gate, _plaquette_site, kw_abelian, kw_exact_g, kw_n_in_g,
)
from .register import (
    QuditRegister,
    SiteSpec,
    _edge_site,
    _identity_state,
    _require_within_budget,
    _seeds_within_budget,
    _vertex_site,
    init_plus,
)

__all__ = [
    "ProtocolRound",
    "ProtocolTranscript",
    "RunPlan",
    "plan_run",
    "prepare_abelian_double",
    "prepare_nil2_double",
    "prepare_metabelian_double",
    "prepare_solvable_double",
    "gauge_input_state",
]


# ---------------------------------------------------------------------------
# transcript record


@dataclass
class ProtocolRound:
    """One measurement round: unitary layers, outcomes, applied corrections."""

    label: str
    layers: List[str]
    outcomes: Dict[str, Dict[int, int]]
    corrections: List[Dict[str, object]] = field(default_factory=list)
    probability: float = 1.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "layers": list(self.layers),
            "outcomes": {
                family: {str(k): int(v) for k, v in sorted(vals.items())}
                for family, vals in sorted(self.outcomes.items())
            },
            "corrections": self.corrections,
            "probability": float(self.probability),
        }


@dataclass
class ProtocolTranscript:
    """Full run record plus the final register.

    shots and probability are read off the rounds: one measurement layer per
    round, and the product of the rounds' branch probabilities. Corrections
    within a round commute (diagonals commute among themselves, and the two
    correction families act on disjoint sites).
    """

    protocol: str
    group: str
    graph: str
    rounds: List[ProtocolRound]
    register: QuditRegister
    fidelity_vs_oracle: Optional[float] = None

    @property
    def shots(self) -> int:
        return len(self.rounds)

    @property
    def probability(self) -> float:
        return math.prod(rnd.probability for rnd in self.rounds)

    def to_dict(self) -> Dict[str, object]:
        """The report record in JSON types: str keys, lists, Python numbers."""
        payload: Dict[str, object] = {
            "protocol": self.protocol,
            "group": self.group,
            "graph": self.graph,
            "shots": self.shots,
            "rounds": [r.as_dict() for r in self.rounds],
            "probability": float(self.probability),
            "register": {
                "sites": [str(s.sid) for s in self.register.sites],
                "dimension": int(np.prod([s.dim for s in self.register.sites], dtype=np.int64)),
            },
        }
        if self.fidelity_vs_oracle is not None:
            payload["fidelity_vs_oracle"] = float(self.fidelity_vs_oracle)
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _plan_record(plan: CorrectionPlan, applied: bool = True) -> Dict[str, object]:
    return {**plan.as_dict(), "applied": bool(applied)}


def _round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence(entropy=(int(seed), int(r))).generate_state(1)[0])


def _round_mode(mode: KwMode, r: int, total: int) -> KwMode:
    """Per-round sampling streams; postselect and forced pass through.

    A forced outcome table applies to every round (absent keys default to
    the trivial outcome), so an empty table reproduces postselect bitwise.
    """
    if mode.kind != "sample" or total == 1:
        return mode
    return KwMode.sample(_round_seed(mode.seed, r))


def _plus_vertices(group: FiniteGroup, cell: Cellulation) -> QuditRegister:
    return init_plus([SiteSpec(_vertex_site(v), "vertex", group) for v in range(cell.n_vertices)])


# ---------------------------------------------------------------------------
# solvable round planning


def _solvable_chain(g_group: FiniteGroup) -> Tuple[FactorSystem, ...]:
    """Factor systems for the rounds, innermost abelian subgroup each stage.

    Every stage gauges the last nontrivial derived subgroup of what remains,
    which is always abelian and normal, until the remainder itself is
    abelian. Non-solvable groups are rejected naming the obstruction. The
    chain depends only on the group, so it is cached, keyed by the name as
    well as the table because the round labels print the quotient names.
    """
    return _chain_of(g_group.name, g_group)


@lru_cache(maxsize=32)
def _chain_of(name: str, g_group: FiniteGroup) -> Tuple[FactorSystem, ...]:
    chain, length = derived_series(g_group)
    if length is None:
        core = chain[-1]
        raise ValueError(
            f"{g_group.name} is not solvable: its perfect core has order {core.order} "
            f"and no measurement round can reduce a perfect subgroup"
        )
    systems: List[FactorSystem] = []
    h = g_group
    while not h.is_abelian:
        sub = derived_series(h)[0][-2]
        fs = factor_system_of(h, sub)
        for table in (fs.sigma, fs.omega, fs.lift, fs.embed, fs.proj, fs.tpart):
            table.setflags(write=False)
        systems.append(fs)
        h = fs.q_group
    return tuple(systems)


def _merge_edge_pairs(
    reg: QuditRegister, cell: Cellulation, fs: FactorSystem,
    n_of: Callable[[int], Hashable], q_of: Callable[[int], Hashable], edge_of: Callable[[int], Hashable],
) -> None:
    """Fuse each edge's subgroup and quotient labels into one site of the
    parent group (subgroup-major) and relabel the pair to the parent's
    elements: a pure relabeling, no gates."""
    image = np.argsort(parent_to_pair(fs))
    for e in range(cell.n_edges):
        reg.merge_sites(n_of(e), q_of(e), SiteSpec(edge_of(e), "edge", fs.parent))
        reg.relabel_site(edge_of(e), image)


def _reassemble_edges(reg: QuditRegister, cell: Cellulation, systems: Sequence[FactorSystem]) -> None:
    """Merge per-round edge labels back into the full group, innermost first:
    each subgroup label pairs with the already-reassembled quotient label."""
    for j in range(len(systems), 0, -1):
        inner, outer = (lambda e, j=j: ("e", e, j)), (lambda e, j=j: ("e", e, j + 1))
        _merge_edge_pairs(reg, cell, systems[j - 1], inner, outer, _edge_site if j == 1 else inner)


def _split_vertices(reg: QuditRegister, cell: Cellulation, fs: FactorSystem, j: int) -> None:
    """Present each live vertex in the (subgroup, quotient) pair basis."""
    pair = parent_to_pair(fs)
    for v in range(cell.n_vertices):
        sid = _vertex_site(v) if j == 1 else ("v", v, j - 1, "q")
        reg.relabel_site(sid, pair)
        reg.split_site(
            sid,
            SiteSpec(("v", v, j, "n"), "vertex", fs.n_group),
            SiteSpec(("v", v, j, "q"), "vertex", fs.q_group),
        )


def _stages(g_group: FiniteGroup, chain: Sequence[FactorSystem]) -> List[tuple]:
    """(subject, vertex_of, edge_of, q_of) of every round: each factor system
    of chain gauges its subgroup parts, then the abelian remainder (g_group
    itself when chain is empty) is gauged on the last quotient parts."""
    stages: List[tuple] = [
        (fs, lambda v, j=j: ("v", v, j, "n"), lambda e, j=j: ("e", e, j), lambda v, j=j: ("v", v, j, "q"))
        for j, fs in enumerate(chain, start=1)
    ]
    if not chain:
        return stages + [(g_group, _vertex_site, _edge_site, None)]
    k = len(chain)
    return stages + [(chain[-1].q_group, lambda v: ("v", v, k, "q"), lambda e: ("e", e, k + 1), None)]


def _gauge_rounds(
    reg: QuditRegister,
    g_group: FiniteGroup,
    chain: Sequence[FactorSystem],
    cell: Cellulation,
    modes: Sequence[KwMode],
    protocol: str,
) -> List[ProtocolTranscript]:
    """One measurement round per factor system in chain, then one for the
    abelian remainder, then edge reassembly, on reg, a stack of one seed per
    mode; one transcript per mode.

    chain is empty for an abelian group. Otherwise the vertices of reg arrive
    already split for the first factor system; later stages split here.
    Every round is one kw_n_in_g or kw_abelian call on the whole stack.
    """
    stages = _stages(g_group, chain)
    total = len(stages)
    records: List[List[ProtocolRound]] = [[] for _ in modes]
    for j, (subject, vertex_of, edge_of, q_of) in enumerate(stages, start=1):
        if 1 < j < total:
            _split_vertices(reg, cell, subject, j)
        round_modes = [_round_mode(mode, j, total) for mode in modes]
        if q_of is None:
            results = kw_abelian(reg, cell, subject, round_modes, vertex_of=vertex_of, edge_of=edge_of)
            label = f"gauge the abelian group {subject.name}"
            layer = "controlled group multiplications write domain walls onto identity-state edges"
        else:
            results = kw_n_in_g(reg, cell, subject, round_modes, n_of=vertex_of, q_of=q_of, edge_of=edge_of)
            label = f"gauge the order-{subject.n_group.order} normal subgroup inside {subject.parent.name}"
            layer = "restricted edge entangler with cocycle and automorphism dressing"
        for record, res in zip(records, results):
            corrections = [_plan_record(res.corrections)]
            record.append(ProtocolRound(label, [layer], {"charge": res.outcomes}, corrections, res.probability))
    _reassemble_edges(reg, cell, chain)
    return [
        ProtocolTranscript(protocol=protocol, group=g_group.name, graph=cell.name, rounds=record, register=reg.seed(s))
        for s, record in enumerate(records)
    ]


def _scored(transcript: ProtocolTranscript, oracle: Optional[QuditRegister]) -> ProtocolTranscript:
    if oracle is not None:
        transcript.fidelity_vs_oracle = transcript.register.fidelity(oracle)
    return transcript


def _oracle(g_group: FiniteGroup, cell: Cellulation) -> QuditRegister:
    """The enumerated double of g_group: the definitional map on the uniform vertex state."""
    return kw_exact_g(_plus_vertices(g_group, cell), cell, g_group)


# each start returns the register before round 1, the prepared group, the
# factor-system chain, the oracle (None without one) and the seeds one stack
# of the run holds (_require_rounds_fit)
_Start = Tuple[QuditRegister, FiniteGroup, Tuple[FactorSystem, ...], Optional[QuditRegister], int]


def _abelian_start(a_group: FiniteGroup, cell: Cellulation, with_oracle: bool) -> _Start:
    if not a_group.is_abelian:
        raise ValueError("prepare_abelian_double needs an abelian group")
    return _solvable_start(a_group, cell, with_oracle)


def _require_rounds_fit(
    reg: QuditRegister, g_group: FiniteGroup, chain: Sequence[FactorSystem], cell: Cellulation
) -> int:
    """Reject a run, from its register before round 1, when one of its rounds
    would build a register over the budget, with the error that round's
    add_sites raises: a round adds one edge site per edge of the group it
    gauges, and its measurement retires that group's vertex parts. Checked
    before the oracle, which can cost more than the rounds that fit. Returns
    the seeds one stack of the run holds (_seeds_within_budget), from the
    largest register the rounds build and the largest a measurement leaves."""
    size, peak, held = math.prod(reg.dims), 0, 0
    for subject, *_ in _stages(g_group, chain):
        order = (subject.n_group if isinstance(subject, FactorSystem) else subject).order
        size *= order**cell.n_edges
        _require_within_budget(size)
        peak = max(peak, size)
        size //= order**cell.n_vertices
        held = max(held, size)
    return _seeds_within_budget(peak, held)


def _metabelian_start(fs: FactorSystem, cell: Cellulation, with_oracle: bool) -> _Start:
    if not (fs.n_group.is_abelian and fs.q_group.is_abelian):
        raise ValueError("prepare_metabelian_double needs abelian subgroup and abelian quotient")
    # the split plus state is built directly, not split from parent labels:
    # 1/sqrt(|N|) 1/sqrt(|Q|) and 1/sqrt(|G|) round apart
    reg = init_plus(
        [
            SiteSpec(("v", v, 1, part), "vertex", grp)
            for v in range(cell.n_vertices)
            for part, grp in [("n", fs.n_group), ("q", fs.q_group)]
        ]
    )
    seeds = _require_rounds_fit(reg, fs.parent, (fs,), cell)
    oracle = _oracle(fs.parent, cell) if with_oracle else None
    return reg, fs.parent, (fs,), oracle, seeds


def _derived_series_start(reg: QuditRegister, g_group: FiniteGroup, cell: Cellulation, with_oracle: bool) -> _Start:
    """The start of the rounds down the derived series of g_group, on a
    symmetric vertex register: round 1's split is made here."""
    chain = _solvable_chain(g_group)
    seeds = _require_rounds_fit(reg, g_group, chain, cell)
    oracle = kw_exact_g(reg, cell, g_group) if with_oracle else None
    if chain:
        _split_vertices(reg, cell, chain[0], 1)
    return reg, g_group, chain, oracle, seeds


def _solvable_start(g_group: FiniteGroup, cell: Cellulation, with_oracle: bool) -> _Start:
    return _derived_series_start(_plus_vertices(g_group, cell), g_group, cell, with_oracle)


def _nil2_start(fs: FactorSystem, cell: Cellulation) -> QuditRegister:
    if not is_nil2_extension(fs):
        raise ValueError("prepare_nil2_double needs a central extension with abelian subgroup and quotient")
    if not cell.closed:
        raise ValueError("prepare_nil2_double needs a closed cellulation")
    return _nil2_circuit(fs, cell)


def _nil2_circuit(fs: FactorSystem, cell: Cellulation) -> QuditRegister:
    """The three coupling layers of the one-shot central-extension double,
    before any measurement: the plaquette-route couplings of the subgroup
    onto its edges, the cocycle dressing, then the quotient edges, allocated
    with the vertex-route walls of the quotient written in the same pass."""
    n_grp, q_grp = fs.n_group, fs.q_group
    reg = init_plus(
        [SiteSpec(_vertex_site(v), "vertex", q_grp) for v in range(cell.n_vertices)]
        + [SiteSpec(_plaquette_site(p), "plaquette", n_grp) for p in range(cell.n_plaquettes)]
    )
    # d**-0.5, not 1/sqrt(d) as in init_plus: the two round apart at d = 2, 3, 6, 8, 12, 24
    reg.add_sites(
        [SiteSpec(("e", e, "n"), "edge", n_grp) for e in range(cell.n_edges)],
        lambda spec: np.full(spec.dim, spec.dim**-0.5, dtype=np.complex128),
    )
    _couple_plaquettes(reg, cell, n_grp, _plaquette_site, lambda e: ("e", e, "n"))
    walls = []  # the list kwmaps._wall_gates builds for q_grp on these vertices and quotient edges
    for e, (i_v, f_v) in enumerate(cell.edges):
        reg.apply(omega_gate(fs, ("v", i_v), ("e", e, "n"), ("v", f_v)))
        walls.append(controlled_left(q_grp, ("v", i_v), ("e", e, "q")).dagger())
        walls.append(controlled_right(q_grp, ("v", f_v), ("e", e, "q")).dagger())
    reg.add_sites([SiteSpec(("e", e, "q"), "edge", q_grp) for e in range(cell.n_edges)], _identity_state, walls)
    return reg


def _nil2_tail(
    reg: QuditRegister, fs: FactorSystem, cell: Cellulation, modes: Sequence[KwMode], feedforward: bool
) -> List[ProtocolTranscript]:
    """The one measurement layer of the nil2 circuit, its feedforward and the
    edge merge, for every seed of reg at once, modes one per seed; the
    transcripts carry no fidelity."""
    n_grp, q_grp = fs.n_group, fs.q_group
    n_v, n_p = cell.n_vertices, cell.n_plaquettes
    pairs = [(v, _vertex_site(v)) for v in range(n_v)] + [(n_v + p, ("p", p)) for p in range(n_p)]
    raws, probs = _measure_sites(reg, modes, pairs)
    v_outs = [{v: raw[v] for v in range(n_v)} for raw in raws]
    p_outs = [{p: raw[n_v + p] for p in range(n_p)} for raw in raws]
    charge_plans, flux_plans = _charge_plans(v_outs, q_grp, cell), _flux_plans(p_outs, n_grp, cell)
    if feedforward:
        n_of, q_of = (lambda e: ("e", e, "n")), (lambda e: ("e", e, "q"))
        _apply_corrections(reg, charge_plans, _plan_gate(charge_plans[0], q_of))
        _apply_corrections(reg, flux_plans, _plan_gate(flux_plans[0], n_of))
        _merge_edge_pairs(reg, cell, fs, n_of, q_of, _edge_site)
    label = f"one-shot double of {fs.parent.name}"
    layers = [
        "plaquette-to-edge character couplings, opposite phases on each edge's plaquette pair",
        "cocycle dressing on every edge",
        "controlled quotient multiplications write domain walls onto identity-state quotient edges",
    ]
    transcripts = []
    for s, prob in enumerate(probs):
        corrections = [_plan_record(plan, applied=feedforward) for plan in (charge_plans[s], flux_plans[s])]
        rnd = ProtocolRound(label, list(layers), {"charge": v_outs[s], "flux": p_outs[s]}, corrections, prob)
        transcripts.append(ProtocolTranscript("nil2_double", fs.parent.name, cell.name, [rnd], reg.seed(s)))
    return transcripts


# ---------------------------------------------------------------------------
# protocols


def prepare_abelian_double(
    a_group: FiniteGroup, cell: Cellulation, mode: KwMode, with_oracle: bool = True
) -> ProtocolTranscript:
    """One-shot double of an abelian group from uniform vertex ancillas."""
    return plan_run("abelian", a_group, cell, with_oracle).branch(mode)


def prepare_nil2_double(
    fs: FactorSystem,
    cell: Cellulation,
    mode: KwMode,
    with_oracle: bool = True,
    feedforward: bool = True,
) -> ProtocolTranscript:
    """One-shot double of a central extension from three coupling layers.

    Plaquette ancillas couple character phases onto the subgroup edges, the
    cocycle dressing ties them to the quotient vertices, and the quotient
    entangler writes domain walls onto the quotient edges; one measurement
    layer then reads every vertex and plaquette, and one feedforward layer
    (character diagonals for the charges, group shifts for the fluxes)
    repairs the branch. Edge pairs are merged into full-group labels at the
    end.

    In forced mode, keys 0..V-1 select vertex outcomes and V..V+P-1
    plaquette outcomes. With feedforward disabled the register keeps its
    split, uncorrected edges for inspection and no fidelity is computed.
    """
    [transcript] = _nil2_tail(_nil2_start(fs, cell), fs, cell, [mode], feedforward)
    return _scored(transcript, _oracle(fs.parent, cell) if with_oracle and feedforward else None)


def prepare_metabelian_double(
    fs: FactorSystem, cell: Cellulation, mode: KwMode, with_oracle: bool = True
) -> ProtocolTranscript:
    """Two-shot double of an abelian-by-abelian extension.

    Round one gauges the subgroup parts of the split vertices; round two
    gauges the remaining quotient vertices with fresh edge ancillas; the
    edge pairs are then merged into full-group labels.
    """
    return plan_run("metabelian", fs, cell, with_oracle).branch(mode)


def prepare_solvable_double(
    g_group: FiniteGroup, cell: Cellulation, mode: KwMode, with_oracle: bool = True
) -> ProtocolTranscript:
    """Double of any solvable group in one round per derived-series step."""
    return plan_run("solvable", g_group, cell, with_oracle).branch(mode)


def gauge_input_state(
    reg: QuditRegister,
    g_group: FiniteGroup,
    cell: Cellulation,
    mode: KwMode,
    with_oracle: bool = True,
) -> ProtocolTranscript:
    """Run the solvable round structure on a supplied symmetric vertex state.

    The input register must hold exactly the vertex sites and be invariant
    under the global left action within 1e-10, which the first round checks;
    the output matches the definitional map applied to the same input. The
    run starts from a fork of reg (QuditRegister.fork), so reg is left as it
    was given.
    """
    if len(reg.sites) != cell.n_vertices or any(
        reg.spec(_vertex_site(v)).dim != g_group.order for v in range(cell.n_vertices)
    ):
        raise ValueError("gauge_input_state needs a register with exactly the vertex sites")
    start = _derived_series_start(reg.fork(), g_group, cell, with_oracle)
    return _vertex_route_plan("gauge_input", cell, start).branch(mode)


# ---------------------------------------------------------------------------
# run plans

_VERTEX_ROUTE: Dict[str, Tuple[str, Callable[..., _Start]]] = {
    "abelian": ("abelian_double", _abelian_start),
    "metabelian": ("metabelian_double", _metabelian_start),
    "solvable": ("solvable_double", _solvable_start),
}


@dataclass(frozen=True)
class RunPlan:
    """The seed-independent part of one preparation run, built once and
    shared by every seed.

    prefix is the run's start register: for the vertex-route protocols the
    input after the preconditions and round 1's vertex split, so each stack
    runs round 1's symmetry check and gated allocation itself; for nil2 the
    whole coupling circuit. It is made read-only in the form its start left
    it (QuditRegister.freeze), and every stack starts from it without
    writing it (stack): a plus-state start stays dense, since its support
    is full, and the nil2 circuit, which ends in a gated allocation, stays
    in support form, which each stack's one measurement layer reads. The
    oracle's amplitudes are made read-only too.
    oracle is the enumerated reference state, or None. seeds is the most
    seeds one stack holds (_seeds_within_budget). finish runs the rounds of
    a stack of seeds, one mode each: the vertex-route rounds, one
    kw_n_in_g or kw_abelian call per round (_gauge_rounds), or the nil2
    tail. It returns one transcript per seed, whose register is that seed
    of the stack.
    """

    prefix: QuditRegister
    oracle: Optional[QuditRegister]
    seeds: int
    finish: Callable[[QuditRegister, Sequence[KwMode]], List[ProtocolTranscript]]

    def __post_init__(self):
        self.prefix.freeze()
        if self.oracle is not None:
            self.oracle.amps.setflags(write=False)

    def run(self, modes: Sequence[KwMode]) -> Iterator[ProtocolTranscript]:
        """One transcript per mode, in order, the seeds run in lockstep as
        stacks of at most self.seeds; each stack runs once the previous
        one's transcripts are taken. Several seeds need sample modes."""
        if len(modes) > 1 and any(mode.kind != "sample" for mode in modes):
            raise ValueError("running multiple seeds needs sample mode")
        for lo in range(0, len(modes), self.seeds):
            stack = modes[lo : lo + self.seeds]
            yield from (_scored(t, self.oracle) for t in self.finish(self.prefix.stack(len(stack)), stack))

    def branch(self, mode: KwMode) -> ProtocolTranscript:
        """One seed's run: a stack of one."""
        [transcript] = self.run([mode])
        return transcript


def _vertex_route_plan(protocol: str, cell: Cellulation, start: _Start) -> RunPlan:
    """The run plan of a vertex-route start: its rounds run on each stack."""
    prefix, group, chain, oracle, seeds = start
    return RunPlan(prefix, oracle, seeds, lambda reg, modes: _gauge_rounds(reg, group, chain, cell, modes, protocol))


def plan_run(
    protocol: str, subject: Union[FiniteGroup, FactorSystem], cell: Cellulation, with_oracle: bool = True
) -> RunPlan:
    """The run plan of one protocol ("abelian", "nil2", "metabelian",
    "solvable") on subject, its preconditions checked here: each
    vertex-route prepare_* entry point is plan_run(...).branch(mode), and
    prepare_nil2_double checks the same ones in the same order, so
    plan.run(modes) reports what the entry point reports for each mode."""
    if protocol == "nil2":
        prefix = _nil2_start(subject, cell)
        oracle = _oracle(subject.parent, cell) if with_oracle else None
        # the prefix is the run's largest register; its one measurement layer
        # retires every vertex and plaquette site
        peak = math.prod(prefix.dims)
        held = peak // (subject.q_group.order**cell.n_vertices * subject.n_group.order**cell.n_plaquettes)
        return RunPlan(
            prefix, oracle, _seeds_within_budget(peak, held),
            lambda reg, modes: _nil2_tail(reg, subject, cell, modes, feedforward=True),
        )
    if protocol not in _VERTEX_ROUTE:
        raise ValueError(f"unknown protocol {protocol!r}")
    name, start = _VERTEX_ROUTE[protocol]
    return _vertex_route_plan(name, cell, start(subject, cell, with_oracle))
