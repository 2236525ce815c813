"""Finite groups as dense multiplication tables, plus extension machinery.

Elements are indices 0..order-1 with 0 the identity. Everything is
precomputed into integer tables so group arithmetic is O(1) and runs are
exactly reproducible. Factor systems (N normal in G with a chosen lift of
Q = G/N) carry the twist sigma and cocycle omega used by the gauging maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "FactorSystem",
    "Irrep",
    "IrrepTable",
    "build_cyclic",
    "direct_product",
    "permutation_group",
    "symmetric_group",
    "alternating_group",
    "subgroup_from_members",
    "generated_subgroup",
    "quotient_group",
    "extension_from_factor_system",
    "factor_system_of",
    "commutator_subgroup",
    "derived_series",
    "derived_length",
    "center",
    "perfect_core",
    "is_nil2_extension",
    "abelian_decomposition",
    "character_table",
    "irrep_table",
    "catalog",
    "catalog_factor_system",
    "load_catalog",
    "parse_extension",
    "group_from_spec",
]


class FiniteGroup:
    """A finite group given by its multiplication table.

    mult[a, b] is the index of a*b; index 0 must be the identity.
    """

    def __init__(self, mult, name: str = "G", decomposition: Optional[List[Tuple[int, int]]] = None):
        table = np.asarray(mult, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError(f"multiplication table must be square, got shape {table.shape}")
        self.order = int(table.shape[0])
        if self.order == 0:
            raise ValueError("group must contain at least the identity")
        self.mult = table
        self.mult.setflags(write=False)
        # the table is read-only, so its hash is computed once
        self._hash = hash((self.order, table.tobytes()))
        self.name = name
        self.identity = 0
        self._validate()
        self.inv = self._build_inverses()
        self.inv.setflags(write=False)
        self.is_abelian = bool(np.array_equal(table, table.T))
        # Optional cyclic decomposition [(generator, order), ...], attached by
        # the abelian builders so the character pairing is the factor-wise one.
        self._decomposition = decomposition

    def _validate(self) -> None:
        n, t = self.order, self.mult
        if t.min() < 0 or t.max() >= n:
            raise ValueError("table entries out of range")
        if not (np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n))):
            raise ValueError("element 0 is not a two-sided identity")
        # associativity: (ab)c == a(bc) on all triples, vectorized
        left = t[t, :]
        right = t[:, t]
        if not np.array_equal(left, right):
            bad = np.argwhere(left != right)[0]
            raise ValueError(f"multiplication not associative at triple {tuple(int(x) for x in bad)}")
        # each row/column a permutation implies inverses exist
        for a in range(n):
            if len(set(t[a].tolist())) != n:
                raise ValueError(f"row {a} is not a permutation; not a group")

    def _build_inverses(self) -> np.ndarray:
        inv = np.empty(self.order, dtype=np.int64)
        for a in range(self.order):
            hits = np.where(self.mult[a] == 0)[0]
            if len(hits) != 1:
                raise ValueError(f"element {a} lacks a unique inverse")
            inv[a] = hits[0]
        return inv

    def mul(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def conjugate(self, g: int, a: int) -> int:
        """g a g^-1."""
        return int(self.mult[self.mult[g, a], self.inv[g]])

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1."""
        return int(self.mult[self.mult[self.mult[a, b], self.inv[a]], self.inv[b]])

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = int(self.mult[x, a])
            k += 1
        return k

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and np.array_equal(self.mult, other.mult)

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class Subgroup:
    """A subgroup recorded as a sorted member tuple inside a parent group."""

    parent: FiniteGroup
    members: Tuple[int, ...]

    def __post_init__(self):
        mem = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", mem)
        if 0 not in mem:
            raise ValueError("subgroup must contain the identity")
        g = self.parent
        member_set = set(mem)
        for a in mem:
            if int(g.inv[a]) not in member_set:
                raise ValueError(f"subgroup not closed under inverse at {a}")
            for b in mem:
                if int(g.mult[a, b]) not in member_set:
                    raise ValueError(f"subgroup not closed under product at ({a},{b})")

    @property
    def order(self) -> int:
        return len(self.members)

    def is_normal(self) -> bool:
        g = self.parent
        member_set = set(self.members)
        return all(g.conjugate(x, a) in member_set for x in g.elements() for a in self.members)

    def as_group(self, name: Optional[str] = None) -> FiniteGroup:
        """The subgroup as a standalone FiniteGroup; members[i] <-> index i."""
        index = {m: i for i, m in enumerate(self.members)}
        n = len(self.members)
        table = [[index[self.parent.mul(self.members[a], self.members[b])] for b in range(n)] for a in range(n)]
        return FiniteGroup(table, name=name or f"{self.parent.name}-sub{n}")


def subgroup_from_members(parent: FiniteGroup, members: Sequence[int]) -> Subgroup:
    return Subgroup(parent, tuple(members))


def generated_subgroup(parent: FiniteGroup, generators: Sequence[int]) -> Subgroup:
    """Closure of the generators under multiplication."""
    members = {0}
    frontier = [0]
    gens = sorted(set(int(x) for x in generators))
    while frontier:
        a = frontier.pop()
        for s in gens:
            for b in (parent.mul(a, s), parent.mul(s, a)):
                if b not in members:
                    members.add(b)
                    frontier.append(b)
    return Subgroup(parent, tuple(sorted(members)))


@lru_cache(maxsize=16)
def _generating_set(g: FiniteGroup) -> Tuple[int, ...]:
    """A small generating set of g: greedily the element of largest order,
    then of smallest label, that the set so far does not generate. Built
    once per group table."""
    gens: List[int] = []
    span = {0}
    for a in sorted(g.elements(), key=lambda x: (-g.element_order(x), x)):
        if a in span:
            continue
        gens.append(a)
        span = set(generated_subgroup(g, gens).members)
        if len(span) == g.order:
            break
    return tuple(gens)


@lru_cache(maxsize=16)
def _cayley_diameter(g: FiniteGroup) -> int:
    """The longest shortest word of an element of g over _generating_set(g)
    and its inverses: the depth of a breadth-first search from the identity."""
    steps = [s for a in _generating_set(g) for s in (a, int(g.inv[a]))]
    reached, depth = {0}, 0
    while len(reached) < g.order:
        reached, depth = reached | {int(g.mult[a, s]) for a in reached for s in steps}, depth + 1
    return depth


def build_cyclic(n: int) -> FiniteGroup:
    """Z_n with addition mod n."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    decomp = [(1, n)] if n > 1 else []
    return FiniteGroup(table, name=f"Z{n}", decomposition=decomp)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element (x, y) has index x*|b| + y."""
    na, nb = a.order, b.order
    table = np.empty((na * nb, na * nb), dtype=np.int64)
    for xa, ya in itertools.product(range(na), range(nb)):
        row = a.mult[xa][:, None] * nb + b.mult[ya][None, :]
        table[xa * nb + ya] = row.reshape(-1)
    decomp = None
    if a._decomposition is not None and b._decomposition is not None:
        decomp = [(g * nb, k) for g, k in a._decomposition] + [(g, k) for g, k in b._decomposition]
    return FiniteGroup(table, name=f"{a.name}x{b.name}", decomposition=decomp)


def permutation_group(perms: Sequence[Tuple[int, ...]], name: str) -> FiniteGroup:
    """Group of permutation tuples under composition (p*q)(i) = p[q[i]].

    The tuples are sorted lexicographically, so the identity gets index 0.
    Every product is found by one gather of the composed tuples and one
    search of their base-k keys (k points), which sort like the tuples.
    """
    elems = sorted(set(tuple(p) for p in perms))
    if elems[0] != tuple(range(len(elems[0]))):
        raise ValueError("permutation set must contain the identity")
    points = np.array(elems, dtype=np.int64)
    k = points.shape[1]
    if k**k > 2**63:
        raise ValueError(f"permutations of {k} points overflow the 64-bit product keys; at most 15 points")
    radix = k ** np.arange(k - 1, -1, -1, dtype=np.int64)
    keys = points @ radix
    composed = points[:, points] @ radix  # [i, j] is the key of p_i after p_j
    table = np.minimum(np.searchsorted(keys, composed), len(keys) - 1)
    if not np.array_equal(keys[table], composed):
        raise ValueError("permutation set not closed under composition")
    return FiniteGroup(table, name=name)


def symmetric_group(n: int) -> FiniteGroup:
    return permutation_group(list(itertools.permutations(range(n))), name=f"S{n}")


def _is_even(p: Tuple[int, ...]) -> bool:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inversions % 2 == 0


def alternating_group(n: int) -> FiniteGroup:
    perms = [p for p in itertools.permutations(range(n)) if _is_even(p)]
    return permutation_group(perms, name=f"A{n}")


def quotient_group(g: FiniteGroup, n: Subgroup) -> Tuple[FiniteGroup, np.ndarray, np.ndarray]:
    """Quotient G/N for normal N.

    Returns (Q, proj, reps): proj[g_elem] is the coset index, reps[q] the
    lowest-index representative. The identity coset gets index 0 and cosets
    are ordered by representative, so the construction is deterministic.
    """
    if not n.is_normal():
        raise ValueError(f"{n.members} is not normal in {g.name}")
    coset_of = np.full(g.order, -1, dtype=np.int64)
    reps: List[int] = []
    for a in g.elements():
        if coset_of[a] >= 0:
            continue
        members = sorted(int(g.mult[a, m]) for m in n.members)
        rep = members[0]
        if coset_of[rep] >= 0:
            for m in members:
                coset_of[m] = coset_of[rep]
            continue
        reps.append(rep)
        for m in members:
            coset_of[m] = len(reps) - 1
    order_q = len(reps)
    reps_arr = np.array(reps, dtype=np.int64)
    table = np.empty((order_q, order_q), dtype=np.int64)
    for q1 in range(order_q):
        for q2 in range(order_q):
            table[q1, q2] = coset_of[g.mult[reps_arr[q1], reps_arr[q2]]]
    q_group = FiniteGroup(table, name=f"{g.name}/{n.order}")
    return q_group, coset_of, reps_arr


@dataclass
class FactorSystem:
    """Extension data for N normal in G with quotient Q and a chosen lift.

    sigma[q] is the permutation of N-indices m -> s(q) m s(q)^-1, omega[q1,q2]
    the N-index of s(q1)s(q2)s(q1 q2)^-1. The parent tables (lift, embed,
    proj, tpart) identify the split g = embed(tpart(g)) * lift(proj(g)).
    """

    n_group: FiniteGroup
    q_group: FiniteGroup
    sigma: np.ndarray  # shape (|Q|, |N|)
    omega: np.ndarray  # shape (|Q|, |Q|)
    parent: Optional[FiniteGroup] = None
    lift: Optional[np.ndarray] = None
    embed: Optional[np.ndarray] = None
    proj: Optional[np.ndarray] = None
    tpart: Optional[np.ndarray] = None

    def __post_init__(self):
        # read-only copies: the hash is taken once from them
        self.sigma = np.array(self.sigma, dtype=np.int64)
        self.omega = np.array(self.omega, dtype=np.int64)
        self.sigma.setflags(write=False)
        self.omega.setflags(write=False)
        nn, nq = self.n_group.order, self.q_group.order
        if self.sigma.shape != (nq, nn):
            raise ValueError(f"sigma table must have shape ({nq},{nn})")
        if self.omega.shape != (nq, nq):
            raise ValueError(f"omega table must have shape ({nq},{nq})")
        self.validate()
        # hashed once, on what construction fixes: the parent tables may be
        # filled in later (extension_from_factor_system), and equal systems
        # agree on this part, so __eq__ reads more than the hash does
        self._hash = hash((self.n_group, self.q_group, self.sigma.tobytes(), self.omega.tobytes()))

    def validate(self) -> None:
        ng, qg = self.n_group, self.q_group
        if not np.array_equal(self.sigma[0], np.arange(ng.order)):
            raise ValueError("sigma[identity] must be the identity automorphism")
        for q in qg.elements():
            perm = self.sigma[q]
            if len(set(perm.tolist())) != ng.order or perm[0] != 0:
                raise ValueError(f"sigma[{q}] is not an identity-preserving bijection")
            if not np.array_equal(perm[ng.mult], ng.mult[perm][:, perm]):
                raise ValueError(f"sigma[{q}] is not an automorphism of N")
        if any(self.omega[0, q] != 0 or self.omega[q, 0] != 0 for q in qg.elements()):
            raise ValueError("omega must be counital")
        for q1, q2, q3 in itertools.product(qg.elements(), repeat=3):
            lhs = ng.mul(int(self.sigma[q1, self.omega[q2, q3]]), int(self.omega[q1, qg.mul(q2, q3)]))
            rhs = ng.mul(int(self.omega[q1, q2]), int(self.omega[qg.mul(q1, q2), q3]))
            if lhs != rhs:
                raise ValueError(f"cocycle condition fails at triple ({q1},{q2},{q3}): {lhs} != {rhs}")
        # twisted-homomorphism property of sigma
        for q1, q2 in itertools.product(qg.elements(), repeat=2):
            w = int(self.omega[q1, q2])
            comp = self.sigma[q1][self.sigma[q2]]
            twisted = np.array([ng.mul(ng.mul(w, int(m)), ng.inverse(w)) for m in self.sigma[qg.mul(q1, q2)]])
            if not np.array_equal(comp, twisted):
                raise ValueError(f"sigma twist identity fails at ({q1},{q2})")
        if self.parent is not None:
            g = self.parent
            for a in g.elements():
                rebuilt = g.mul(int(self.embed[self.tpart[a]]), int(self.lift[self.proj[a]]))
                if rebuilt != a:
                    raise ValueError(f"split g = embed(t(g)) lift(pi(g)) fails at {a}")

    @property
    def order(self) -> int:
        return self.n_group.order * self.q_group.order

    def omega_inv(self, q1: int, q2: int) -> int:
        return self.n_group.inverse(int(self.omega[q1, q2]))

    def _content(self) -> Tuple[Tuple[Optional[FiniteGroup], ...], Tuple[Optional[np.ndarray], ...]]:
        groups = (self.n_group, self.q_group, self.parent)
        tables = (self.sigma, self.omega, self.lift, self.embed, self.proj, self.tpart)
        return groups, tuple(None if t is None else np.asarray(t, dtype=np.int64) for t in tables)

    def __eq__(self, other) -> bool:
        """Equal table content, parent tables included, like FiniteGroup:
        independently built systems share the plans cached on them."""
        if not isinstance(other, FactorSystem):
            return False
        (mine, my_tables), (theirs, their_tables) = self._content(), other._content()
        return mine == theirs and all(
            (a is None and b is None) or (a is not None and b is not None and np.array_equal(a, b))
            for a, b in zip(my_tables, their_tables)
        )

    def __hash__(self) -> int:
        return self._hash


def extension_from_factor_system(fs: FactorSystem, name: Optional[str] = None) -> FiniteGroup:
    """Group on pairs (n, q) with product (n1 sigma^q1[n2] omega(q1,q2), q1 q2).

    Pairs are indexed as n*|Q| + q. Populates the parent tables of fs.
    """
    ng, qg = fs.n_group, fs.q_group
    nn, nq = ng.order, qg.order
    size = nn * nq
    table = np.empty((size, size), dtype=np.int64)
    for n1, q1 in itertools.product(range(nn), range(nq)):
        for n2, q2 in itertools.product(range(nn), range(nq)):
            n_out = ng.mul(ng.mul(n1, int(fs.sigma[q1, n2])), int(fs.omega[q1, q2]))
            table[n1 * nq + q1, n2 * nq + q2] = n_out * nq + qg.mul(q1, q2)
    group = FiniteGroup(table, name=name or f"{ng.name}.{qg.name}")
    fs.parent = group
    fs.lift = np.arange(nq, dtype=np.int64)  # (1, q) has index q
    fs.embed = np.arange(nn, dtype=np.int64) * nq  # (n, 1) has index n*|Q|
    fs.proj = np.arange(size, dtype=np.int64) % nq
    fs.tpart = np.arange(size, dtype=np.int64) // nq
    fs.validate()
    return group


def factor_system_of(g: FiniteGroup, n: Subgroup) -> FactorSystem:
    """Extract (sigma, omega, lift, embed, proj, tpart) for normal n in g."""
    if n.parent is not g and n.parent != g:
        raise ValueError("subgroup belongs to a different parent group")
    q_group, proj, reps = quotient_group(g, n)
    n_as_group = n.as_group(name=f"N{n.order}")
    n_index = {m: i for i, m in enumerate(n.members)}
    embed = np.array(n.members, dtype=np.int64)
    lift = reps
    nq, nn = q_group.order, n_as_group.order
    sigma = np.empty((nq, nn), dtype=np.int64)
    for q in range(nq):
        s = int(lift[q])
        for m_idx, m in enumerate(n.members):
            sigma[q, m_idx] = n_index[g.conjugate(s, m)]
    omega = np.empty((nq, nq), dtype=np.int64)
    for q1 in range(nq):
        for q2 in range(nq):
            w = g.mul(g.mul(int(lift[q1]), int(lift[q2])), g.inverse(int(lift[q_group.mul(q1, q2)])))
            omega[q1, q2] = n_index[w]
    tpart = np.empty(g.order, dtype=np.int64)
    for a in g.elements():
        tpart[a] = n_index[g.mul(a, g.inverse(int(lift[proj[a]])))]
    return FactorSystem(
        n_group=n_as_group,
        q_group=q_group,
        sigma=sigma,
        omega=omega,
        parent=g,
        lift=lift,
        embed=embed,
        proj=proj,
        tpart=tpart,
    )


def commutator_subgroup(g: FiniteGroup) -> Subgroup:
    gens = {g.commutator(a, b) for a in g.elements() for b in g.elements()}
    return generated_subgroup(g, sorted(gens))


def _commutator_of_members(g: FiniteGroup, members: Sequence[int]) -> Subgroup:
    gens = {g.commutator(a, b) for a in members for b in members}
    return generated_subgroup(g, sorted(gens))


def derived_series(g: FiniteGroup) -> Tuple[List[Subgroup], Optional[int]]:
    """Chain G >= [G,G] >= ... until it stabilizes, with the derived length.

    The length counts strict steps down to the trivial group; when the chain
    stabilizes at a nontrivial perfect core the length is None (non-solvable)
    and the core is the final chain member.
    """
    chain = [Subgroup(g, tuple(g.elements()))]
    while True:
        nxt = _commutator_of_members(g, chain[-1].members)
        if nxt.members == chain[-1].members:
            break
        chain.append(nxt)
        if nxt.order == 1:
            break
    length = len(chain) - 1 if chain[-1].order == 1 else None
    return chain, length


def derived_length(g: FiniteGroup) -> Optional[int]:
    return derived_series(g)[1]


def center(g: FiniteGroup) -> Subgroup:
    members = [a for a in g.elements() if np.array_equal(g.mult[a], g.mult[:, a])]
    return Subgroup(g, tuple(members))


def perfect_core(g: FiniteGroup) -> Subgroup:
    return derived_series(g)[0][-1]


def is_nil2_extension(fs: FactorSystem) -> bool:
    """True iff the extension is central with abelian N and Q."""
    if not (fs.n_group.is_abelian and fs.q_group.is_abelian):
        return False
    return all(np.array_equal(fs.sigma[q], np.arange(fs.n_group.order)) for q in fs.q_group.elements())


# ---------------------------------------------------------------------------
# abelian structure and characters


def abelian_decomposition(g: FiniteGroup) -> List[Tuple[int, int]]:
    """Generators (element, order) of a direct cyclic decomposition.

    Uses the decomposition attached by the abelian builders when present;
    otherwise searches deterministically (largest order first, lowest index
    first, backtracking on the direct-sum condition).
    """
    if not g.is_abelian:
        raise ValueError(f"{g.name} is not abelian")
    if g._decomposition is not None:
        return list(g._decomposition)
    if g.order == 1:
        return []
    orders = [(g.element_order(a), a) for a in g.elements()]
    candidates = [a for _, a in sorted(orders, key=lambda t: (-t[0], t[1])) if a != 0]

    def cyclic_powers(a: int) -> List[int]:
        out, x = [0], a
        while x != 0:
            out.append(x)
            x = g.mul(x, a)
        return out

    def extend(span: set, gens: List[Tuple[int, int]]) -> Optional[List[Tuple[int, int]]]:
        if len(span) == g.order:
            return gens
        for a in candidates:
            if a in span:
                continue
            powers = cyclic_powers(a)
            if any(p in span and p != 0 for p in powers):
                continue
            new_span = {g.mul(s, p) for s in span for p in powers}
            result = extend(new_span, gens + [(a, len(powers))])
            if result is not None:
                return result
        return None

    result = extend({0}, [])
    if result is None:
        raise RuntimeError(f"no cyclic decomposition found for {g.name}; table is not a group")
    return result


@lru_cache(maxsize=64)
def _coordinates(g: FiniteGroup) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    decomp = abelian_decomposition(g)
    coords = [None] * g.order
    for tup in itertools.product(*(range(k) for _, k in decomp)):
        elem = 0
        for (gen, _), e in zip(decomp, tup):
            x = 0
            for _ in range(e):
                x = g.mul(x, gen)
            elem = g.mul(elem, x)
        coords[elem] = tup
    if any(c is None for c in coords):
        raise RuntimeError("cyclic decomposition does not cover the group")
    return tuple(coords), tuple(k for _, k in decomp)


@lru_cache(maxsize=64)
def character_table(g: FiniteGroup) -> np.ndarray:
    """chi[a, b] for abelian g: the symmetric perfect pairing exp(2 pi i sum a_i b_i / n_i)."""
    coords, periods = _coordinates(g)
    chi = np.ones((g.order, g.order), dtype=np.complex128)
    for a in g.elements():
        for b in g.elements():
            phase = sum(ca * cb / k for ca, cb, k in zip(coords[a], coords[b], periods))
            chi[a, b] = np.exp(2j * np.pi * phase)
    chi.setflags(write=False)
    return chi


# ---------------------------------------------------------------------------
# irreps


@dataclass(frozen=True)
class Irrep:
    label: str
    dim: int
    matrices: np.ndarray  # shape (order, dim, dim)
    group: Optional[FiniteGroup] = None

    @property
    def characters(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)


@dataclass(frozen=True)
class IrrepTable:
    group: FiniteGroup
    irreps: Tuple[Irrep, ...]

    def __post_init__(self):
        _validate_irreps(self.group, self.irreps)
        for ir in self.irreps:
            ir.matrices.setflags(write=False)

    @property
    def characters(self) -> np.ndarray:
        return np.stack([ir.characters for ir in self.irreps])



def _validate_irreps(g: FiniteGroup, irreps: Sequence[Irrep], tol: float = 1e-12) -> None:
    dimsum = sum(ir.dim**2 for ir in irreps)
    if dimsum != g.order:
        raise ValueError(f"sum of squared dimensions {dimsum} != |G| = {g.order}")
    for ir in irreps:
        mats = ir.matrices
        if mats.shape != (g.order, ir.dim, ir.dim):
            raise ValueError(f"irrep {ir.label}: matrix table has shape {mats.shape}")
        if np.abs(mats[0] - np.eye(ir.dim)).max() > tol:
            raise ValueError(f"irrep {ir.label}: identity not mapped to identity matrix")
        for a in g.elements():
            u = mats[a]
            if np.abs(u @ u.conj().T - np.eye(ir.dim)).max() > tol:
                raise ValueError(f"irrep {ir.label}: matrix at {a} not unitary")
            for b in g.elements():
                if np.abs(u @ mats[b] - mats[g.mul(a, b)]).max() > tol:
                    raise ValueError(f"irrep {ir.label}: not a homomorphism at ({a},{b})")
    chars = np.stack([ir.characters for ir in irreps])
    gram = chars @ chars.conj().T / g.order
    if np.abs(gram - np.eye(len(irreps))).max() > tol:
        raise ValueError("character rows are not orthonormal")


def _abelian_irreps(g: FiniteGroup) -> Tuple[Irrep, ...]:
    chi = character_table(g)
    return tuple(
        Irrep(label=f"chi{a}", dim=1, matrices=chi[a].reshape(g.order, 1, 1).copy(), group=g)
        for a in g.elements()
    )


def _pauli(which: str) -> np.ndarray:
    if which == "x":
        return np.array([[0, 1], [1, 0]], dtype=np.complex128)
    if which == "z":
        return np.array([[1, 0], [0, -1]], dtype=np.complex128)
    raise KeyError(which)


def _catalog_irreps(g: FiniteGroup, name: str) -> Tuple[Irrep, ...]:
    """Exact irrep matrices for the shipped S3/D4/Q8 presentations.

    All three are built from their factor systems, so elements are pairs
    (n, q) with index n*|Q| + q and the matrices below are written directly
    in that labeling.
    """
    irreps: List[Irrep] = []
    if name == "S3":
        # elements (n, q), n in Z3, q in Z2; (n,q) = r^n s^q
        zeta = np.exp(2j * np.pi / 3)
        sx = _pauli("x")

        def two_dim(idx: int) -> np.ndarray:
            n, q = divmod(idx, 2)
            d = np.diag([zeta**n, zeta ** (-n)])
            return d @ np.linalg.matrix_power(sx, q)

        one = np.ones((6, 1, 1), dtype=np.complex128)
        sign = np.array([(-1.0) ** (idx % 2) for idx in range(6)], dtype=np.complex128).reshape(6, 1, 1)
        two = np.stack([two_dim(i) for i in range(6)])
        irreps = [Irrep("triv", 1, one, group=g), Irrep("sgn", 1, sign, group=g), Irrep("std", 2, two, group=g)]
    elif name in ("D4", "Q8"):
        # elements (n, (a, b)) with q = (a, b) in Z2xZ2 indexed 2a+b;
        # presentation (n,(a,b)) = z^n y^b x^a with z the central element
        sx, sz = _pauli("x"), _pauli("z")
        if name == "D4":
            mx, mz = sx, sz  # x^2 = y^2 = 1, (xy)^2 = z
        else:
            mx, mz = 1j * sx, 1j * sz  # x^2 = y^2 = z
        two = np.empty((8, 2, 2), dtype=np.complex128)
        ones = np.empty((8, 4), dtype=np.complex128)
        for idx in range(8):
            n, q = divmod(idx, 4)
            a, b = divmod(q, 2)
            two[idx] = (-1.0) ** n * np.linalg.matrix_power(mz, b) @ np.linalg.matrix_power(mx, a)
            ones[idx] = [1.0, (-1.0) ** a, (-1.0) ** b, (-1.0) ** (a + b)]
        irreps = [
            Irrep(lbl, 1, ones[:, k].reshape(8, 1, 1).copy(), group=g)
            for k, lbl in enumerate(["triv", "pa", "pb", "pab"])
        ]
        irreps.append(Irrep("std", 2, two, group=g))
    else:
        raise ValueError(f"no stored irreps for {name}")
    return tuple(irreps)


@lru_cache(maxsize=64)
def irrep_table(g: FiniteGroup) -> IrrepTable:
    """All irreps: characters for abelian groups, stored matrices for S3/D4/Q8.

    Cached by table content, so every caller shares one read-only table."""
    if g.is_abelian:
        return IrrepTable(group=g, irreps=_abelian_irreps(g))
    for name in ("S3", "D4", "Q8"):
        if g == catalog()[name]:
            return IrrepTable(group=g, irreps=_catalog_irreps(g, name))
    raise ValueError(
        f"irreps unsupported for non-abelian {g.name} outside the stored catalog"
    )


# ---------------------------------------------------------------------------
# catalog


def _klein_four() -> FiniteGroup:
    return direct_product(build_cyclic(2), build_cyclic(2))


@lru_cache(maxsize=1)
def _catalog_systems() -> Dict[str, FactorSystem]:
    z2, z3 = build_cyclic(2), build_cyclic(3)
    v4 = _klein_four()
    systems: Dict[str, FactorSystem] = {}

    sigma_triv = np.tile(np.arange(2), (4, 1))
    omega_d4 = np.zeros((4, 4), dtype=np.int64)
    omega_q8 = np.zeros((4, 4), dtype=np.int64)
    for q1 in range(4):
        for q2 in range(4):
            a1, b1 = divmod(q1, 2)
            a2, b2 = divmod(q2, 2)
            omega_d4[q1, q2] = (a1 * b2) % 2
            omega_q8[q1, q2] = (a1 * a2 + a1 * b2 + b1 * b2) % 2
    systems["D4"] = FactorSystem(n_group=z2, q_group=v4, sigma=sigma_triv.copy(), omega=omega_d4)
    systems["Q8"] = FactorSystem(n_group=z2, q_group=v4, sigma=sigma_triv.copy(), omega=omega_q8)

    sigma_s3 = np.stack([np.arange(3), (-np.arange(3)) % 3])
    systems["S3"] = FactorSystem(n_group=z3, q_group=build_cyclic(2), sigma=sigma_s3, omega=np.zeros((2, 2), dtype=np.int64))
    return systems


@lru_cache(maxsize=1)
def catalog() -> Dict[str, FiniteGroup]:
    """Built-in groups, keyed by name. S3/D4/Q8 come from their factor systems."""
    groups: Dict[str, FiniteGroup] = {}
    for n in (1, 2, 3, 4, 6):
        groups[f"Z{n}"] = build_cyclic(n)
    groups["Z2xZ2"] = _klein_four()
    for name, fs in _catalog_systems().items():
        groups[name] = extension_from_factor_system(fs, name=name)
    groups["A4"] = alternating_group(4)
    groups["S4"] = symmetric_group(4)
    groups["A5"] = alternating_group(5)
    return groups


def catalog_factor_system(name: str) -> FactorSystem:
    """The shipped factor system presenting one of S3, D4, Q8."""
    systems = _catalog_systems()
    if name not in systems:
        raise KeyError(f"no shipped factor system named {name!r}; have {sorted(systems)}")
    fs = systems[name]
    if fs.parent is None:
        extension_from_factor_system(fs, name=name)
    return fs


def group_from_spec(spec: str) -> FiniteGroup:
    """Parse 'Z6', 'Z2xZ3', 'S3', 'D4', ... into a group."""
    spec = spec.strip()
    parts = spec.split("x")
    built: List[FiniteGroup] = []
    for part in parts:
        part = part.strip()
        if part in catalog():
            built.append(catalog()[part])
        elif part.startswith("Z") and part[1:].isdigit():
            built.append(build_cyclic(int(part[1:])))
        else:
            raise ValueError(f"unknown group spec {part!r}")
    out = built[0]
    for extra in built[1:]:
        out = direct_product(out, extra)
    return out


def parse_extension(entry: Dict) -> FactorSystem:
    """The factor system of one {"extension": {"n", "q", "sigma", "omega"}}
    entry, n and q being specs group_from_spec reads, with its parent tables
    built and the parent named by the entry's optional "name"."""
    ext = entry["extension"]
    fs = FactorSystem(
        n_group=group_from_spec(ext["n"]), q_group=group_from_spec(ext["q"]), sigma=ext["sigma"], omega=ext["omega"]
    )
    extension_from_factor_system(fs, name=entry.get("name"))
    return fs


def load_catalog(document) -> Dict[str, FiniteGroup]:
    """Load groups from a parsed JSON catalog: a list of entries, or an
    object holding one under "groups".

    Each entry is {"name", "order", "mult_table"} or {"name", "extension"}
    as parse_extension reads it.
    """
    entries = document.get("groups", []) if isinstance(document, dict) else document
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        raise ValueError("a group catalog is a list of group objects, or an object holding one under 'groups'")
    out: Dict[str, FiniteGroup] = {}
    for entry in entries:
        name = entry["name"]
        if "mult_table" in entry:
            group = FiniteGroup(entry["mult_table"], name=name)
            if group.order != entry.get("order", group.order):
                raise ValueError(f"catalog entry {name}: declared order does not match table")
        elif "extension" in entry:
            group = parse_extension(entry).parent
        else:
            raise ValueError(f"catalog entry {name}: need mult_table or extension")
        out[name] = group
    return out
