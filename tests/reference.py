"""Reference code the tests compare the program against; nothing in
src/gaugekit calls it.

oracle_double_state enumerates the reference wavefunction straight from the
multiplication table, touching neither the gate constructors nor the gauging
maps, so any disagreement with a protocol output is attributable. The edge
entanglers act on a whole edge with both of its vertex labels in one
3-site permutation. plan_boundary is the boundary of a correction plan,
which the feedforward tests compare with the syndrome it repairs. The
syndrome helpers read dual labels back off a register: the charge label at
a vertex is the character row traced out by the vertex actions, the flux
label at a plaquette is the inverse of the concentrated boundary-walk
product. On any protocol branch before feedforward these equal the
measurement outcomes exactly. nil2_circuit_gate_by_gate is the one-shot
nil2 coupling circuit with every edge allocated first and every gate
applied on its own, the form the gated allocation of the quotient walls
is checked against.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Hashable, Sequence

import numpy as np

from gaugekit.cellulation import Cellulation
from gaugekit.feedforward import CorrectionPlan
from gaugekit.gates import (
    _walk_product,
    controlled_left,
    controlled_right,
    cz_abelian,
    left_mult,
    omega_gate,
    parent_to_pair,
    right_mult,
)
from gaugekit.groups import FactorSystem, FiniteGroup, character_table
from gaugekit.register import (
    DiagonalOperator,
    LocalOperator,
    QuditRegister,
    SiteSpec,
    StabilizerOperator,
    _edge_site,
    _identity_state,
    init_plus,
    init_product,
)

# enumeration terms for the reference state
ORACLE_BUDGET = 1_000_000
SYNDROME_TOL = 1e-8


# ---------------------------------------------------------------------------
# reference state


def oracle_double_state(
    g_group: FiniteGroup,
    cell: Cellulation,
    edge_of: Callable[[int], Hashable] = _edge_site,
) -> QuditRegister:
    """Reference double state: equal-weight domain walls of every vertex assignment.

    Plain enumeration with multiplication-table lookups only; independent of
    the gate and gauging modules by construction.
    """
    d, n_v, n_e = g_group.order, cell.n_vertices, cell.n_edges
    terms = d**n_v
    if terms > ORACLE_BUDGET or d**n_e > ORACLE_BUDGET:
        raise ValueError(
            f"enumeration needs {terms} terms on a {d}^{n_e} edge space, over the budget {ORACLE_BUDGET}"
        )
    amps = np.zeros((d,) * n_e, dtype=np.complex128)
    for assign in itertools.product(range(d), repeat=n_v):
        walls = tuple(
            g_group.mul(g_group.inverse(assign[i_v]), assign[f_v]) for i_v, f_v in cell.edges
        )
        amps[walls] += 1.0
    amps /= np.linalg.norm(amps)
    specs = [SiteSpec(edge_of(e), "edge", g_group) for e in range(n_e)]
    return QuditRegister(specs, amps)


def init_identity(specs: Sequence[SiteSpec]) -> QuditRegister:
    """Product of identity-element basis states."""
    return init_product(specs, _identity_state)


# ---------------------------------------------------------------------------
# edge entanglers


def ug_edge_factor(group: FiniteGroup, i_sid: Hashable, e_sid: Hashable, f_sid: Hashable) -> LocalOperator:
    """Edge entangler |g_i, g_e, g_f> = |g_i, g_i^-1 g_e g_f, g_f>."""
    d = group.order
    image = np.zeros(d * d * d, dtype=np.int64)
    for gi in range(d):
        for ge in range(d):
            new = group.mult[group.inv[gi], ge]
            for gf in range(d):
                image[(gi * d + ge) * d + gf] = (gi * d + group.mul(new, gf)) * d + gf
    return LocalOperator([i_sid, e_sid, f_sid], "perm", image, name="U^G[e]")


def u_ng_edge_factor(fs: FactorSystem, i_sid: Hashable, e_sid: Hashable, f_sid: Hashable) -> LocalOperator:
    """Edge entangler for N inside G, vertices in split-pair labels n*|Q|+q.

    |g_i, n_e, g_f> = |g_i, t(g_i^-1 iota(n_e) g_f), g_f> with t the
    transversal part of the parent group.
    """
    parent = fs.parent
    dq, dn, dg = fs.q_group.order, fs.n_group.order, parent.order
    pair = parent_to_pair(fs)
    to_parent = np.argsort(pair)
    image = np.zeros(dg * dn * dg, dtype=np.int64)
    for pi in range(dg):
        gi = to_parent[pi]
        for ne in range(dn):
            left = parent.mul(parent.inv[gi], fs.embed[ne])
            for pf in range(dg):
                gf = to_parent[pf]
                ne2 = fs.tpart[parent.mul(left, gf)]
                image[(pi * dn + ne) * dg + pf] = (pi * dn + ne2) * dg + pf
    return LocalOperator([i_sid, e_sid, f_sid], "perm", image, name="U^NG[e]")


# ---------------------------------------------------------------------------
# correction-plan boundary


def plan_boundary(plan: CorrectionPlan, cell: Cellulation) -> Dict[int, int]:
    """Signed accumulation of plan exponents at each vertex (Z) or plaquette (X).

    Z basis: an edge deposits its exponent at its head and the inverse at its
    tail. X basis: deposits are weighted by the edge's walk signs, the
    exponent at the positive-appearance plaquette and the inverse at the
    negative one.
    """
    g = plan.group
    out: Dict[int, int] = {}

    def deposit(site: int, val: int) -> None:
        out[site] = g.mul(out.get(site, 0), val)

    for e, x in plan.exponents.items():
        if plan.basis == "Z":
            i_v, f_v = cell.edges[e]
            deposit(f_v, x)
            deposit(i_v, g.inverse(x))
        else:
            p_minus, p_plus = cell.plaquette_pair(e)
            deposit(p_plus, x)
            deposit(p_minus, g.inverse(x))
    return {site: v for site, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# syndrome bookkeeping


def charge_syndromes(
    reg: QuditRegister,
    a_group: FiniteGroup,
    cell: Cellulation,
    edge_of: Callable[[int], Hashable] = _edge_site,
) -> Dict[int, int]:
    """Dual label at each vertex from the vertex-action eigenvalue pattern.

    Rejects states without a definite label; on a protocol branch before
    charge feedforward the labels equal the measurement outcomes.
    """
    chi = character_table(a_group)
    out: Dict[int, int] = {}
    for v in range(cell.n_vertices):
        vals = []
        for g in a_group.elements():
            factors = {}
            for e, sign in cell.edges_at_vertex(v):
                sid = edge_of(e)
                op = left_mult(a_group, g, sid) if sign == 1 else right_mult(a_group, g, sid)
                factors[sid] = op
            vals.append(reg.expectation(StabilizerOperator([(1.0, factors)], name=f"A^{g}[{v}]")))
        vals = np.array(vals)
        matches = [c for c in a_group.elements() if np.abs(vals - chi[c]).max() < SYNDROME_TOL]
        if len(matches) != 1:
            raise ValueError(f"vertex {v} carries no definite charge label")
        out[v] = matches[0]
    return out


def flux_syndromes(
    reg: QuditRegister,
    a_group: FiniteGroup,
    cell: Cellulation,
    edge_of: Callable[[int], Hashable] = _edge_site,
) -> Dict[int, int]:
    """Dual label at each plaquette: inverse of the concentrated walk product.

    Rejects smeared flux; on a protocol branch before flux feedforward the
    labels equal the measurement outcomes.
    """
    out: Dict[int, int] = {}
    for p in range(cell.n_plaquettes):
        edges, acc = _walk_product(a_group, cell.plaquettes[p])
        hit = None
        for n in a_group.elements():
            val = reg.expectation(
                DiagonalOperator([edge_of(e) for e in edges], (acc == n).astype(np.complex128))
            )
            if abs(val - 1) < SYNDROME_TOL:
                hit = n
                break
        if hit is None:
            raise ValueError(f"plaquette {p} carries no definite flux label")
        out[p] = a_group.inverse(hit)
    return out


def nil2_circuit_gate_by_gate(fs: FactorSystem, cell: Cellulation) -> QuditRegister:
    """protocols._nil2_circuit with the quotient edges allocated in the
    identity state up front, then the plaquette couplings, the cocycle
    dressing and the 2E quotient walls CL+, CR+ applied gate by gate."""
    n_grp, q_grp = fs.n_group, fs.q_group
    reg = init_plus(
        [SiteSpec(("v", v), "vertex", q_grp) for v in range(cell.n_vertices)]
        + [SiteSpec(("p", p), "plaquette", n_grp) for p in range(cell.n_plaquettes)]
    )
    reg.add_sites(
        [SiteSpec(("e", e, "n"), "edge", n_grp) for e in range(cell.n_edges)],
        lambda spec: np.full(spec.dim, spec.dim**-0.5, dtype=np.complex128),
    )
    reg.add_sites([SiteSpec(("e", e, "q"), "edge", q_grp) for e in range(cell.n_edges)], _identity_state)
    for e in range(cell.n_edges):
        p_minus, p_plus = cell.plaquette_pair(e)
        if p_minus == p_plus:
            continue
        reg.apply(cz_abelian(n_grp, ("p", p_plus), ("e", e, "n")))
        reg.apply(cz_abelian(n_grp, ("p", p_minus), ("e", e, "n")).dagger())
    for e, (i_v, f_v) in enumerate(cell.edges):
        reg.apply(omega_gate(fs, ("v", i_v), ("e", e, "n"), ("v", f_v)))
    for e, (i_v, f_v) in enumerate(cell.edges):
        reg.apply(controlled_left(q_grp, ("v", i_v), ("e", e, "q")).dagger())
        reg.apply(controlled_right(q_grp, ("v", f_v), ("e", e, "q")).dagger())
    return reg
