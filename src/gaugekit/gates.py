"""Constructors for group-register gates.

Covers group multiplication operators, controlled multiplications, the
abelian CZ, character diagonals, loop diagonals, and the factor-system
dressings (sigma and omega) with the split-label relabelings.

The table-building gates (CL, CR, CZ, Sigma, Omega and each dressed charge
diagonal) are retargets of one template per group or factor system, built
and checked once on placeholder targets and cached like character_table: a
gate and its inverse share the template's read-only tables.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Hashable, List, Sequence, Tuple

import numpy as np

from .cellulation import Cellulation
from .groups import FactorSystem, FiniteGroup, Irrep, character_table
from .register import DiagonalOperator, LocalOperator, _edge_site

__all__ = [
    "left_mult",
    "right_mult",
    "controlled_left",
    "controlled_right",
    "cz_abelian",
    "z_dual",
    "loop_z",
    "z_tilde",
    "loop_z_tilde",
    "sigma_gate",
    "omega_gate",
    "parent_to_pair",
]


def left_mult(group: FiniteGroup, g: int, sid: Hashable) -> LocalOperator:
    """L^g |h> = |gh>."""
    image = group.mult[g]
    return LocalOperator([sid], "perm", image, name=f"L^{g}")


def right_mult(group: FiniteGroup, g: int, sid: Hashable) -> LocalOperator:
    """R^g |h> = |h gbar>."""
    image = group.mult[:, group.inverse(g)]
    return LocalOperator([sid], "perm", image, name=f"R^{g}")


def _joint2(da: int, db: int) -> Tuple[np.ndarray, np.ndarray]:
    a = np.repeat(np.arange(da), db)
    b = np.tile(np.arange(db), da)
    return a, b


@lru_cache(maxsize=32)
def _controlled_left(group: FiniteGroup) -> LocalOperator:
    d = group.order
    g1, g2 = _joint2(d, d)
    return LocalOperator([0, 1], "perm", g1 * d + group.mult[g1, g2], name="CL")


def controlled_left(group: FiniteGroup, c_sid: Hashable, t_sid: Hashable) -> LocalOperator:
    """CL |g1, g2> = |g1, g1 g2>."""
    return _controlled_left(group).retarget([c_sid, t_sid])


@lru_cache(maxsize=32)
def _controlled_right(group: FiniteGroup) -> LocalOperator:
    d = group.order
    g1, g2 = _joint2(d, d)
    return LocalOperator([0, 1], "perm", g1 * d + group.mult[g2, group.inv[g1]], name="CR")


def controlled_right(group: FiniteGroup, c_sid: Hashable, t_sid: Hashable) -> LocalOperator:
    """CR |g1, g2> = |g1, g2 g1bar>."""
    return _controlled_right(group).retarget([c_sid, t_sid])


def _require_abelian(group: FiniteGroup, what: str) -> None:
    if not group.is_abelian:
        raise ValueError(f"{what} needs an abelian group, got {group.name}")


@lru_cache(maxsize=32)
def _cz_abelian(a_group: FiniteGroup) -> LocalOperator:
    _require_abelian(a_group, "cz_abelian")
    return LocalOperator([0, 1], "diag", character_table(a_group).reshape(-1), name="CZ")


def cz_abelian(a_group: FiniteGroup, c_sid: Hashable, t_sid: Hashable) -> LocalOperator:
    """CZ |a_v, a_e> = chi^{a_v}(a_e) |a_v, a_e>."""
    return _cz_abelian(a_group).retarget([c_sid, t_sid])


def z_dual(a_group: FiniteGroup, t: int, sid: Hashable) -> LocalOperator:
    """Z^t |a> = chi^t(a) |a> for a dual-group label t."""
    _require_abelian(a_group, "z_dual")
    chi = character_table(a_group)
    return LocalOperator([sid], "diag", chi[t], name=f"Z^{t}")


def _check_loop_closed(loop: Sequence[Tuple[int, int]], cell: Cellulation) -> None:
    defect = cell.walk_defect(loop)
    if defect:
        raise ValueError(defect)


def _ordered_trace(irrep: Irrep, steps: Sequence[np.ndarray]) -> np.ndarray:
    """Tr of rho(l_1) rho(l_2) ... for one label array l_k per walk step,
    each over the same joint configuration grid."""
    m = np.eye(irrep.dim, dtype=np.complex128)
    for labels in steps:
        m = m @ irrep.matrices[labels]
    return np.trace(m, axis1=1, axis2=2)


def loop_z(
    irrep: Irrep,
    loop: Sequence[Tuple[int, int]],
    cell: Cellulation,
    edge_of: Callable[[int], Hashable] = _edge_site,
) -> DiagonalOperator:
    """Tr of the ordered product of rho^mu(g_e^{O_e}) around a closed loop.

    The loop is an oriented edge list ((edge, +-1), ...); an edge may appear
    several times. The result is diagonal over the distinct edges touched.
    """
    group = irrep_group_guard(irrep)
    _check_loop_closed(loop, cell)
    edges = list(dict.fromkeys(e for e, _ in loop))
    grids = np.indices((group.order,) * len(edges)).reshape(len(edges), -1)
    steps = []
    for e, o in loop:
        g = grids[edges.index(e)]
        steps.append(group.inv[g] if o == -1 else g)
    return DiagonalOperator([edge_of(e) for e in edges], _ordered_trace(irrep, steps), name=f"loopZ^{irrep.label}")


def _walk_product(group: FiniteGroup, walk: Sequence[Tuple[int, int]]) -> Tuple[List[int], np.ndarray]:
    """Distinct edges of an oriented walk in first-visit order, and the ordered
    product of g_e^{O_e} along the walk for every joint label of those edges."""
    edges = list(dict.fromkeys(e for e, _ in walk))
    d = group.order
    grids = np.indices((d,) * len(edges)).reshape(len(edges), -1)
    acc = np.zeros(grids.shape[1], dtype=np.int64)
    for e, orient in walk:
        labels = grids[edges.index(e)]
        if orient == -1:
            labels = group.inv[labels]
        acc = group.mult[acc, labels]
    return edges, acc


def irrep_group_guard(irrep: Irrep) -> FiniteGroup:
    if irrep.group is None:
        raise ValueError("irrep carries no group reference")
    return irrep.group


def _cocycle_step(fs: FactorSystem) -> np.ndarray:
    """omega(q_i, q_i^-1 q_f) indexed [q_i, q_f]."""
    q_grp = fs.q_group
    q = np.arange(q_grp.order)
    return fs.omega[q[:, None], q_grp.mult[q_grp.inv[q][:, None], q]]


def _dressed_labels(fs: FactorSystem) -> np.ndarray:
    """ntilde = sigma^{q_i}[n] omega(q_i, q_i^-1 q_f) indexed [q_i, n, q_f]."""
    return fs.n_group.mult[fs.sigma[:, :, None], _cocycle_step(fs)[:, None, :]]


@lru_cache(maxsize=32)
def _z_tilde(fs: FactorSystem, t: int) -> LocalOperator:
    _require_abelian(fs.n_group, "z_tilde")
    diag = character_table(fs.n_group)[t, _dressed_labels(fs).reshape(-1)]
    return LocalOperator([0, 1, 2], "diag", diag, name=f"Zt^{t}")


def z_tilde(
    fs: FactorSystem,
    t: int,
    edge: int,
    cell: Cellulation,
    vertex_of: Callable[[int], Hashable],
    edge_of: Callable[[int], Hashable],
) -> LocalOperator:
    """Dressed charge diagonal chi^t(sigma^{q_i}[n_e] omega(q_i, q_i^-1 q_f)).

    Acts on (Q-part of i_e, N-edge, Q-part of f_e); needs abelian N.
    """
    i_v, f_v = cell.edges[edge]
    return _z_tilde(fs, t).retarget([vertex_of(i_v), edge_of(edge), vertex_of(f_v)])


def loop_z_tilde(
    fs: FactorSystem,
    irrep: Irrep,
    loop: Sequence[Tuple[int, int]],
    cell: Cellulation,
    vertex_of: Callable[[int], Hashable],
    edge_of: Callable[[int], Hashable],
) -> DiagonalOperator:
    """Tr of the ordered product of rho^nu(ntilde_e^{O_e}) around a closed loop."""
    n_grp = fs.n_group
    _check_loop_closed(loop, cell)
    edges = list(dict.fromkeys(e for e, _ in loop))
    verts = list(dict.fromkeys(v for e, _ in loop for v in cell.edges[e]))
    dims = (fs.q_group.order,) * len(verts) + (n_grp.order,) * len(edges)
    grids = np.indices(dims).reshape(len(dims), -1)
    ntil = _dressed_labels(fs)
    steps = []
    for e, o in loop:
        i_v, f_v = cell.edges[e]
        labels = ntil[grids[verts.index(i_v)], grids[len(verts) + edges.index(e)], grids[verts.index(f_v)]]
        steps.append(n_grp.inv[labels] if o == -1 else labels)
    targets = [vertex_of(v) for v in verts] + [edge_of(e) for e in edges]
    return DiagonalOperator(targets, _ordered_trace(irrep, steps), name=f"loopZt^{irrep.label}")


@lru_cache(maxsize=32)
def _sigma_gate(fs: FactorSystem) -> LocalOperator:
    dq, dn = fs.q_group.order, fs.n_group.order
    q, n = _joint2(dq, dn)
    return LocalOperator([0, 1], "perm", q * dn + fs.sigma[q, n], name="Sigma")


def sigma_gate(fs: FactorSystem, q_sid: Hashable, n_sid: Hashable) -> LocalOperator:
    """Sigma |q, n> = |q, sigma^q[n]>."""
    return _sigma_gate(fs).retarget([q_sid, n_sid])


@lru_cache(maxsize=32)
def _omega_gate(fs: FactorSystem) -> LocalOperator:
    n_grp = fs.n_group
    dq, dn = fs.q_group.order, n_grp.order
    q1, n, q2 = np.indices((dq, dn, dq)).reshape(3, -1)
    n2 = n_grp.mult[n, n_grp.inv[_cocycle_step(fs)[q1, q2]]]
    return LocalOperator([0, 1, 2], "perm", (q1 * dn + n2) * dq + q2, name="Omega")


def omega_gate(fs: FactorSystem, qi_sid: Hashable, n_sid: Hashable, qf_sid: Hashable) -> LocalOperator:
    """Omega |q1, n, q2> = |q1, n * omega(q1, q1^-1 q2)^-1, q2>."""
    return _omega_gate(fs).retarget([qi_sid, n_sid, qf_sid])


def parent_to_pair(fs: FactorSystem) -> np.ndarray:
    """Relabeling g -> tpart(g)*|Q| + proj(g) from parent labels to split pairs."""
    return fs.tpart * fs.q_group.order + fs.proj
