"""State vector over heterogeneous group-algebra sites, held dense or on its
support.

Sites are ordered; amplitudes are indexed C-order, one axis per live site
(site-major, last site fastest). A register holds them in one of two forms:
a dense complex128 array (amps), or its support form, the sorted flat
positions of the nonzero amplitudes and their values. A gated allocation
writes the support form, a Fourier measurement reads its live columns off it
and leaves a branch it read by live columns in it, and the steps that map a
basis state to one basis state times a phase keep it: gates, relabelings,
merges, splits and the symmetry probe (probe_residual) act on the positions
and values, each with the bits of its dense path. Every other reader takes
amps, which writes the dense array once and drops the support form.
Measurement retires the site and reshapes the state down, so peak dimension
is bounded by the largest single protocol round. Every gate is a phase-free
permutation, one np.take on its merged target axes, or a unimodular
diagonal, so large-arity gates never materialize dense matrices; the
Fourier rotation inside measure_fourier is the only step that mixes
amplitudes, and it reads only the nonzero columns. No method writes into an
amplitude array or a support form: each replaces it with a new array or a
reshaped view, so registers can fork from one frozen register without
copying it. Overlaps are summed over the positions where both operands are
nonzero, in fixed chunks (_overlap), so an overlap with a register in
support form reads the other one only at its positions.

A stack holds several seeds of one run in one register (stacked): its
leading site, SEED_SITE, labels the seed, so each seed's amplitudes are one
contiguous, seed-major run of the state. Gates and relabelings act on every
seed at once; a measurement draws, weighs and normalizes each seed on its
own, and seed(s) reads one seed back as a register of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .groups import FiniteGroup, character_table

__all__ = [
    "SiteSpec",
    "LocalOperator",
    "DiagonalOperator",
    "QuditRegister",
    "init_plus",
    "init_product",
    "SEED_SITE",
]

GATE_TOL = 1e-12
STATE_TOL = 1e-10
# dense ceiling on the amplitude count of one register, checked before allocation
AMPLITUDE_BUDGET = 20_000_000
# amplitudes below which a measurement reads its whole block: the column scan
# and gather of a live-column read cost more than they save there (about
# 4,096 on the machine the crossover was measured on, 2-4 rows)
LIVE_READ_MIN = 4096
# the id of a stack's leading site, whose labels are its seeds
SEED_SITE = ("seed",)
# amplitudes one np.vdot of an overlap reads: OpenBLAS splits a complex dot
# product of more than 10,000 across its threads, moving the sum's last bit
OVERLAP_CHUNK = 8192


@dataclass(frozen=True)
class SiteSpec:
    """One group-algebra qudit: a site id, its role, and its local group."""

    sid: Hashable
    role: str  # vertex | edge | plaquette | seed
    group: FiniteGroup

    @property
    def dim(self) -> int:
        return self.group.order


class LocalOperator:
    """Unitary gate on 1 to 3 sites, a permutation or a diagonal over the
    joint target basis.

    perm: image array, |x> -> |image[x]>.
    diag: unimodular phases, |x> -> diag[x] |x>.
    """

    def __init__(self, targets: Sequence[Hashable], kind: str, payload, name: str = "op"):
        self.targets = _checked_targets(targets)
        self.kind = kind
        self.name = name
        if kind == "perm":
            self.image = np.asarray(payload, dtype=np.int64)
            if np.sort(self.image).tolist() != list(range(len(self.image))):
                raise ValueError(f"{name}: image is not a permutation")
            self._sources = None
        elif kind == "diag":
            self.diag = np.asarray(payload, dtype=np.complex128)
            if np.abs(np.abs(self.diag) - 1).max() > GATE_TOL:
                raise ValueError(f"{name}: unitary diagonal must be unimodular")
        else:
            raise ValueError(f"unknown operator kind {kind!r}")

    def _from_checked(self, targets: Sequence[Hashable], name: str, **tables: np.ndarray) -> "LocalOperator":
        """A gate of this kind whose tables are known to pass this kind's
        check (this gate's own, or its inverse), so only the targets are
        checked."""
        op = object.__new__(LocalOperator)
        op.targets = _checked_targets(targets)
        op.kind = self.kind
        op.name = name
        vars(op).update(tables)
        return op

    def retarget(self, targets: Sequence[Hashable]) -> "LocalOperator":
        """The same gate on other sites, sharing this gate's tables."""
        if len(targets) != len(self.targets):
            raise ValueError(f"{self.name}: retargeting needs {len(self.targets)} targets, got {len(targets)}")
        if self.kind == "diag":
            return self._from_checked(targets, self.name, diag=self.diag)
        return self._from_checked(targets, self.name, image=self.image, _sources=self._sources)

    @property
    def sources(self) -> np.ndarray:
        """The source row argsort(image) of a permutation: output label x
        reads input label sources[x]. Built once, on first use, read-only;
        a copy retargeted after that shares it."""
        if self._sources is None:
            self._sources = np.argsort(self.image)
            self._sources.setflags(write=False)
        return self._sources

    @property
    def joint_dim(self) -> int:
        return len(self.image) if self.kind == "perm" else len(self.diag)

    def dagger(self) -> "LocalOperator":
        # the conjugate of a unimodular diagonal is one; the inverse of a
        # permutation swaps its image and source row
        if self.kind == "diag":
            return self._from_checked(self.targets, self.name + "+", diag=np.conj(self.diag))
        return self._from_checked(self.targets, self.name + "+", image=self.sources, _sources=self.image)


def _checked_targets(targets: Sequence[Hashable]) -> Tuple[Hashable, ...]:
    if not 1 <= len(targets) <= 3:
        raise ValueError(f"LocalOperator supports 1-3 targets, got {len(targets)}")
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target sites")
    return tuple(targets)


class DiagonalOperator:
    """Diagonal operator on any number of sites (stabilizer and loop checks)."""

    def __init__(self, targets: Sequence[Hashable], diag: np.ndarray, name: str = "diag"):
        self.targets = tuple(targets)
        self.diag = np.asarray(diag, dtype=np.complex128)
        self.name = name

    @property
    def joint_dim(self) -> int:
        return len(self.diag)


def _flat_labels(labels: Dict[Hashable, np.ndarray], dims: Dict[Hashable, int], order: Sequence[Hashable]) -> np.ndarray:
    """Row-major joint index of the sites in order, one entry per row."""
    flat = 0
    for sid in order:
        flat = flat * dims[sid] + labels[sid]
    return flat


def _push_labels(labels: Dict[Hashable, np.ndarray], dims: Dict[Hashable, int], gates: Sequence[LocalOperator]) -> None:
    """Send every row of a per-site label table through permutation gates, in
    order: a basis state stays a basis state, so this is the whole circuit on
    every row at once."""
    for op in gates:
        if op.kind != "perm":
            raise ValueError(f"{op.name}: label push needs a phase-free permutation")
        if op.joint_dim != math.prod(dims[sid] for sid in op.targets):
            raise ValueError(f"{op.name}: operator dimension {op.joint_dim} mismatches its targets")
        out = op.image[_flat_labels(labels, dims, op.targets)]
        for sid in reversed(op.targets):
            out, labels[sid] = np.divmod(out, dims[sid])


class _GateList:
    """A gate sequence as a cache key: two lists are equal when their gates
    agree in kind, targets and table, whatever the objects."""

    def __init__(self, gates: Sequence[LocalOperator]):
        self.gates = tuple(gates)
        self.key = tuple(
            (op.kind, op.targets, (op.image if op.kind == "perm" else op.diag).tobytes()) for op in self.gates
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, _GateList) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


@lru_cache(maxsize=32)
def _gated_rows(
    ctrl: Tuple[Tuple[Hashable, int], ...], new: Tuple[Tuple[Hashable, int], ...], gates: _GateList
) -> np.ndarray:
    """Joint row of the new identity-state sites for every basis row of the
    ctrl sites, (sid, dim) pairs in register order, after the gates; the
    gates must not move a ctrl label. Read-only, shared by every register
    with the same touched sites and gates."""
    grid = np.indices([d for _, d in ctrl]).reshape(len(ctrl), math.prod(d for _, d in ctrl))
    labels = {sid: grid[n] for n, (sid, _) in enumerate(ctrl)}
    labels.update((sid, np.zeros(grid.shape[1], dtype=np.int64)) for sid, _ in new)
    dims = dict(ctrl + new)
    _push_labels(labels, dims, gates.gates)
    for n, (sid, _) in enumerate(ctrl):
        if not np.array_equal(labels[sid], grid[n]):
            raise ValueError(f"gated allocation moved the label of live site {sid!r}")
    rows = _flat_labels(labels, dims, [sid for sid, _ in new])
    rows.setflags(write=False)
    return rows


def _taken(amps: np.ndarray, axes: Sequence[int], sources: np.ndarray) -> np.ndarray:
    """amps with the joint label x of axes, row-major in the given order, read
    from sources[x] by one np.take on the axes merged into one: in place for
    one axis or adjacent ascending axes, moved to the front otherwise. Callers
    pass a checked gate's source row or read it off group tables."""
    shape = amps.shape
    first, k = axes[0], len(axes)
    if list(axes) == list(range(first, first + k)):
        merged = amps.reshape(shape[:first] + (-1,) + shape[first + k :])
        return np.take(merged, sources, axis=first).reshape(shape)
    moved = np.moveaxis(amps, axes, range(k))
    out = np.take(moved.reshape((-1,) + moved.shape[k:]), sources, axis=0)
    return np.moveaxis(out.reshape(moved.shape), range(k), axes)


def _support_joint(flat: np.ndarray, dims: Sequence[int], axes: Sequence[int]) -> np.ndarray:
    """The joint label of axes, row-major in the given order, at every flat
    position of a C-order array of shape dims."""
    joint = 0
    for a in axes:
        joint = joint * dims[a] + flat // math.prod(dims[a + 1 :]) % dims[a]
    return joint


def _label_moves(flat: np.ndarray, dims: Sequence[int], axes: Sequence[int], image: np.ndarray) -> np.ndarray:
    """How far each flat position moves when the joint label x of axes,
    row-major in the given order, goes to image[x]."""
    grid = np.indices([dims[a] for a in axes]).reshape(len(axes), -1)
    offsets = np.dot([math.prod(dims[a + 1 :]) for a in axes], grid)
    return (offsets[image] - offsets)[_support_joint(flat, dims, axes)]


def _sorted(flat: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A support form from moved positions: one stable argsort carries the
    values with their positions."""
    order = np.argsort(flat, kind="stable")
    return flat[order], values[order]


def _on_union(union: np.ndarray, flat: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values at their positions flat within the sorted positions union, zero elsewhere."""
    out = np.zeros(union.size, dtype=np.complex128)
    out[np.searchsorted(union, flat)] = values
    return out


def _require_within_budget(size: int) -> None:
    """Reject a register of size amplitudes over AMPLITUDE_BUDGET, naming
    the limit; callers check before they allocate."""
    if size > AMPLITUDE_BUDGET:
        raise ValueError(f"register of {size} amplitudes exceeds the dense register budget {AMPLITUDE_BUDGET}")


def _seeds_within_budget(peak: int, held: int) -> int:
    """The most seeds a stack holds when one seed's run builds registers of
    at most peak amplitudes and holds at most held of them dense (what a
    measurement layer leaves, dense after a whole-block read; the
    corrections and relabelings after it keep the form it leaves): the
    stack fits AMPLITUDE_BUDGET at the peak, and its dense arrays hold no
    more than peak, one seed's largest register, so the memory a run holds
    does not grow with its seed count. At least one, since a run over the
    budget is rejected on its own."""
    return max(1, min(AMPLITUDE_BUDGET // peak, peak // held))


def _overlap(bra: np.ndarray, ket: np.ndarray) -> complex:
    """<bra|ket> over the C-order flattened arrays, summed over the positions
    where both are nonzero, in position order: one np.vdot per fixed chunk of
    OVERLAP_CHUNK of those positions, and the chunks summed in order. So the
    bits do not depend on the BLAS thread count, nor on the entries that are
    zero on either side: two support forms read at their positions give the
    bits of the dense call. A chunk is gathered when it is used, or read in
    place when every position is shared."""
    bra, ket = bra.ravel(), ket.ravel()
    both = np.logical_and(bra, ket)
    if np.count_nonzero(both) == both.size:
        if both.size <= OVERLAP_CHUNK:
            return complex(np.vdot(bra, ket))
        chunks = [slice(lo, lo + OVERLAP_CHUNK) for lo in range(0, both.size, OVERLAP_CHUNK)]
    else:
        shared = both.nonzero()[0]
        chunks = [shared[lo : lo + OVERLAP_CHUNK] for lo in range(0, shared.size, OVERLAP_CHUNK)]
    parts = [complex(np.vdot(bra[at], ket[at])) for at in chunks]
    return sum(parts[1:], parts[0]) if parts else 0j


def _rotated(fourier: np.ndarray, block: np.ndarray) -> np.ndarray:
    """fourier applied to the first axis of block, as one einsum: each
    column's bits do not depend on which other columns, in which layout, the
    block holds, which a BLAS product does not give (OpenBLAS runs the tail
    columns of a width that is not a multiple of 4 through another kernel)."""
    return np.einsum("ij,j...->i...", fourier, block)


def _born_weights(block: np.ndarray) -> np.ndarray:
    """np.einsum("ij,ij->i", block, np.conj(block)).real, bitwise; a block of
    LIVE_READ_MIN amplitudes or more one conjugated row at a time, each as a
    two-row broadcast, since einsum sums a lone row of more than 8,192
    entries in another order than a row of a taller operand."""
    if block.size < LIVE_READ_MIN:
        return np.einsum("ij,ij->i", block, np.conj(block)).real
    pairs = ((np.broadcast_to(r, (2, r.size)) for r in (row, np.conj(row))) for row in block)  # one row at a time
    return np.array([np.einsum("ij,ij->i", *pair)[0].real for pair in pairs])


def _sample(rng: np.random.Generator, probs: np.ndarray) -> int:
    """The outcome rng.choice(len(probs), p=probs) draws, from the same one
    uniform draw: numpy's own inverse-CDF search, without its argument
    checks. probs must be non-negative with a positive sum."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


@dataclass
class _Retired:
    """A measured site's outcome and branch probability for each seed of its
    register, in seed order: one of each on a register that is not a stack."""

    outcomes: List[int]
    probabilities: List[float]

    @property
    def outcome(self) -> int:
        """The outcome of a register of one seed."""
        [outcome] = self.outcomes
        return outcome

    @property
    def probability(self) -> float:
        """The branch probability of a register of one seed."""
        [probability] = self.probabilities
        return probability


@dataclass(frozen=True)
class _SeedSite(SiteSpec):
    """The leading site of a stack: one label per seed, and no group, since
    nothing acts on it but a correction gate's seed rows (no multiplication
    table is built, whatever the seed count)."""

    seeds: int

    @property
    def dim(self) -> int:
        return self.seeds


def _seed_spec(n: int) -> SiteSpec:
    """The seed site of a stack of n seeds."""
    return _SeedSite(SEED_SITE, "seed", None, n)


class QuditRegister:
    """Complex state over an ordered list of live sites, dense or in support
    form (module docstring)."""

    def __init__(self, sites: Sequence[SiteSpec], amplitudes: np.ndarray):
        self.sites: List[SiteSpec] = list(sites)
        self._reindex()
        amps = np.asarray(amplitudes, dtype=np.complex128)
        self.amps = amps if amps.shape == self.dims else amps.reshape(self.dims)
        self.retired: Dict[Hashable, _Retired] = {}
        if len(self._index) != len(self.sites):
            raise ValueError("duplicate site ids")

    # --- layout ------------------------------------------------------------

    def pos(self, sid: Hashable) -> int:
        if sid in self.retired:
            raise ValueError(f"site {sid!r} was measured and retired")
        if sid not in self._index:
            raise KeyError(f"no live site {sid!r}")
        return self._index[sid]

    def spec(self, sid: Hashable) -> SiteSpec:
        return self.sites[self.pos(sid)]

    def _reindex(self) -> None:
        """The site index and dims, rebuilt on every change to the site list."""
        self._index: Dict[Hashable, int] = {s.sid: k for k, s in enumerate(self.sites)}
        self.dims: Tuple[int, ...] = tuple(s.dim for s in self.sites)

    @property
    def amps(self) -> np.ndarray:
        """The dense amplitudes; a register in support form writes them
        here, once, and leaves that form. They are read-only when the
        support form was (freeze)."""
        if self._support is not None:
            dense = self._dense()
            dense.setflags(write=self._support[1].flags.writeable)
            self.amps = dense
        return self._amps

    @amps.setter
    def amps(self, amps: np.ndarray) -> None:
        self._amps, self._support = amps, None

    def _dense(self) -> np.ndarray:
        """The dense amplitudes, without storing them: one zero-fill and one
        scatter of the support form."""
        if self._support is None:
            return self._amps
        flat, values = self._support
        dense = np.zeros(math.prod(self.dims), dtype=np.complex128)
        dense[flat] = values
        return dense.reshape(self.dims)

    @property
    def layout(self) -> Tuple[Tuple[Hashable, int], ...]:
        """(sid, dim) of every live site, in axis order."""
        return tuple((s.sid, s.dim) for s in self.sites)

    def _support_form(self) -> Tuple[np.ndarray, np.ndarray]:
        """The support form, found by one scan of the dense array if the
        register is dense, which stays as it is."""
        if self._support is None:
            flat = np.flatnonzero(self._amps)
            return flat, np.ravel(self._amps)[flat]
        return self._support

    def _positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """The support form (_support_form); the register is left in it."""
        self._amps, self._support = None, self._support_form()
        return self._support

    def freeze(self) -> None:
        """Make the register's arrays read-only in the form it holds, so that
        registers can start from it without a copy (fork): the positions and
        values of its support form, or a read-only view of its dense array,
        which leaves the array itself as writable as it was."""
        if self._support is None:
            self._amps = self._amps.view()
            self._amps.setflags(write=False)
            return
        for array in self._support:
            array.setflags(write=False)

    def fork(self) -> "QuditRegister":
        """A register over the same live sites that starts from this one's
        state, in the form this one holds it, without a copy: no method
        writes into an amplitude array or a support form, so the two go on
        apart. It retires no site yet. The attributes are set one by one, in
        __init__'s order: copy.copy reads and writes the instance __dict__,
        which leaves both registers with a materialised dict and every later
        attribute read slower (CPython 3.11: about 10 us more per Z3
        square:2x2 round)."""
        out = object.__new__(QuditRegister)
        out.sites, out._index, out.dims = list(self.sites), dict(self._index), self.dims
        out._amps, out._support, out.retired = self._amps, self._support, {}
        return out

    @property
    def stacked(self) -> bool:
        """Whether the register is a stack of seeds: its leading site is SEED_SITE."""
        return bool(self.sites) and self.sites[0].sid == SEED_SITE

    @property
    def seeds(self) -> int:
        """The seeds the register holds: its seed site's labels, or 1."""
        return self.sites[0].dim if self.stacked else 1

    def stack(self, n: int) -> "QuditRegister":
        """n seeds of this register's state as one stack, seed-major: a
        register whose leading site is SEED_SITE, in the form this one holds
        it, retiring no site yet, its seeds this one's support form, or
        dense array, once per seed. A stack of one is a fork of this
        register (fork), sharing its arrays: a leading seed site of one
        label would move no flat position. AMPLITUDE_BUDGET applies to the
        stack's size."""
        size = math.prod(self.dims)
        _require_within_budget(n * size)
        out = self.fork()
        if n == 1:
            return out
        out.sites.insert(0, _seed_spec(n))
        out._reindex()
        if self._support is not None:
            flat, values = self._support
            out._support = ((np.arange(n)[:, None] * size + flat).reshape(-1), np.tile(values, n))
        else:
            out._amps = np.repeat(self._amps[None], n, axis=0)
        return out

    def seed(self, s: int) -> "QuditRegister":
        """Seed s of a stack, as a register over the sites after the seed site
        with its entries of the stack's retired records: a view of the
        stack's dense amplitudes, or its run of the support form. A register
        without a seed site is its own seed 0."""
        if not self.stacked:
            return self
        out = self.fork()
        del out.sites[0]
        out._reindex()
        out.retired = {sid: _Retired([r.outcomes[s]], [r.probabilities[s]]) for sid, r in self.retired.items()}
        if self._support is not None:
            flat, values = self._support
            size = math.prod(out.dims)
            lo, hi = np.searchsorted(flat, [s * size, (s + 1) * size])
            out._support = (flat[lo:hi] - s * size, values[lo:hi])
        else:
            out._amps = self._amps[s]
        return out

    def norm(self) -> float:
        amps = self._amps if self._support is None else self._support[1]
        return float(np.sqrt(_overlap(amps, amps).real))

    def copy(self) -> "QuditRegister":
        out = QuditRegister(list(self.sites), self.amps.copy())
        out.retired = dict(self.retired)
        return out

    def add_sites(
        self,
        specs: Sequence[SiteSpec],
        state_fn: Callable[[SiteSpec], np.ndarray],
        gates: Sequence[LocalOperator] = (),
    ) -> None:
        """Append fresh product-state sites (ancilla allocation).

        A non-empty gates list of permutations, which must not move
        a live site's label, runs in the same pass on identity-state ancillas:
        each basis row of the live sites it touches lands on one new-site row,
        so the labels are pushed over that grid once (_gated_rows), and the
        register is left in support form: each nonzero amplitude keeps its
        value, at its old flat position times the new sites' joint dimension
        plus the new-site row of its ctrl labels. No dense array of the new
        size is written. AMPLITUDE_BUDGET applies to that size all the same,
        checked before anything is allocated."""
        old, extra = self.dims, math.prod(spec_.dim for spec_ in specs)
        _require_within_budget(math.prod(old) * extra)
        states = []
        for spec_ in specs:
            if spec_.sid in self._index or spec_.sid in self.retired:
                raise ValueError(f"site id {spec_.sid!r} already used")
            local = np.asarray(state_fn(spec_), dtype=np.complex128)
            if local.shape != (spec_.dim,):
                raise ValueError(f"ancilla state for {spec_.sid!r} has wrong dimension")
            if gates and not (local[0] == 1 and not local[1:].any()):
                raise ValueError(f"gated allocation needs identity-state ancillas; {spec_.sid!r} is not")
            states.append(local)
        if not gates:
            for local in states:
                self.amps = np.multiply.outer(self.amps, local)
        else:
            new = tuple((spec_.sid, spec_.dim) for spec_ in specs)
            fresh = {sid for sid, _ in new}
            ctrl = sorted({self.pos(t) for op in gates for t in op.targets if t not in fresh})
            rows = _gated_rows(tuple((self.sites[k].sid, old[k]) for k in ctrl), new, _GateList(gates))
            flat, values = self._positions()
            self._amps, self._support = None, (flat * extra + rows[_support_joint(flat, old, ctrl)], values)
        self.sites.extend(specs)
        self._reindex()

    # --- gates ---------------------------------------------------------------

    def _target_axes(self, op) -> List[int]:
        """The axes of op's targets, whose joint dimension its table must have."""
        axes = [self.pos(t) for t in op.targets]
        joint = math.prod(self.sites[a].dim for a in axes)
        if op.joint_dim != joint:
            raise ValueError(f"{op.name}: operator dimension {op.joint_dim} mismatches targets {joint}")
        return axes

    def _applied(self, op) -> np.ndarray:
        """The amplitudes after op, as a new array; the register is left as it was."""
        axes = self._target_axes(op)
        if isinstance(op, LocalOperator) and op.kind == "perm":
            return _taken(self.amps, axes, op.sources)
        # the table in register axis order, broadcast over the other sites
        table = op.diag.reshape([self.sites[a].dim for a in axes]).transpose(np.argsort(axes))
        return self.amps * table.reshape([d if k in axes else 1 for k, d in enumerate(self.dims)])

    def apply(self, op) -> "QuditRegister":
        """Run op on the register, in the form it holds: a dense register
        takes _applied; on the support form a diagonal multiplies each value
        by its entry at the targets' joint label (one 1-D product of equal
        shapes, so every value has the bits of the dense product), and a
        permutation moves each position to its image's labels and sorts the
        positions, carrying the values."""
        if self._support is None:
            self.amps = self._applied(op)
            return self
        axes, dims = self._target_axes(op), self.dims
        flat, values = self._support
        if isinstance(op, LocalOperator) and op.kind == "perm":
            self._support = _sorted(flat + _label_moves(flat, dims, axes, op.image), values)
        else:
            self._support = (flat, values * op.diag[_support_joint(flat, dims, axes)])
        return self

    def expectation(self, op) -> complex:
        return _overlap(self.amps, self._applied(op))

    # --- measurement -----------------------------------------------------------

    def measure_fourier(
        self,
        sid: Hashable,
        rng: Union[None, np.random.Generator, Sequence[np.random.Generator]] = None,
        forced: Union[None, int, Sequence[int]] = None,
    ) -> Union[int, List[int]]:
        """Rotate one abelian site by F_ab = chi^a(b)/sqrt|A|, measure, retire it.

        Exactly one of rng and forced selects the branch. A forced outcome out
        of range or a call with neither is rejected before the rotation, a
        zero state or a forced outcome of zero Born probability after it; the
        register never holds the rotation, so every rejection leaves it
        bitwise as it was. The branch is divided by the root of its raw Born
        weight, and sampling and the retired probability use the weights over
        their sum when that sum is more than 1e-6 off 1.

        Given a list or tuple of generators, or of forced outcomes, one per
        seed, it returns a list of outcomes, one per seed; given one, it
        measures a register of one seed and returns its outcome. A stack's live
        columns are read and rotated once for every seed; the seed digit is
        the most significant, so each seed's columns are one contiguous run,
        and each run is weighed, drawn from and normalized on its own, in seed
        order, as if the seed were measured alone. The first seed rejected
        stops the call, and the retired record holds one outcome and one
        probability per seed.

        Only the live columns of the (A, dim, B) reshape are rotated
        (_live_block): read off the support form's positions, or found by a
        scan of the dense array and read in place. _rotated gives each column
        the bits it has in the whole block's rotation, and an all-zero column
        adds exact zeros to the weights, which einsum sums in column order,
        so the weights and the branch are bitwise those of the whole block (a
        zero's sign aside). A live-column read leaves the branch in support
        form, its nonzero entries at the live columns; a whole-block read
        leaves it dense.
        """
        spec_ = self.spec(sid)
        if not spec_.group.is_abelian:
            raise ValueError(f"Fourier measurement needs an abelian site, {sid!r} carries {spec_.group.name}")
        seeds, per_seed = self.seeds, isinstance(rng if forced is None else forced, (list, tuple))
        if forced is not None:
            forced = [int(outcome) for outcome in (forced if per_seed else [forced])]
            for outcome in forced:
                if not 0 <= outcome < spec_.dim:
                    raise ValueError(f"forced outcome {outcome} out of range for {sid!r}")
        elif rng is None:
            raise ValueError("measurement needs an rng or a forced outcome")
        rngs = rng if per_seed else [rng]
        if len(rngs if forced is None else forced) != seeds:
            raise ValueError(f"a measurement of {seeds} seeds needs one rng or forced outcome per seed")
        pos, dims = self.pos(sid), self.dims
        outer, inner = math.prod(dims[:pos]), math.prod(dims[pos + 1 :])
        cols, live = self._live_block(outer, spec_.dim, inner)
        cols = _rotated(_fourier_matrix(spec_.group), cols).reshape(spec_.dim, -1)  # frees the gathered block
        width = outer // seeds * inner  # one seed's columns of the whole block
        runs = [s * width for s in range(seeds + 1)]
        if live is not None and seeds > 1:  # one seed's run is every live column
            runs = live.searchsorted(runs).tolist()
        outcomes, probabilities, branch = [], [], []
        for s in range(seeds):
            block = cols[:, runs[s] : runs[s + 1]]
            weights = probs = _born_weights(block)
            total = probs.sum()
            if not total > 0:
                raise ValueError(f"measurement of {sid!r} on a zero state")
            if abs(total - 1.0) > 1e-6:
                probs = probs / total
            if forced is None:
                outcome = _sample(rngs[s], probs / probs.sum())
            else:
                outcome = forced[s]
                if probs[outcome] < 1e-14:
                    raise ValueError(
                        f"forced outcome {outcome} on {sid!r} has zero Born probability "
                        f"(distribution {np.round(probs, 6).tolist()})"
                    )
            branch.append(block[outcome] / np.sqrt(weights[outcome]))
            outcomes.append(outcome)
            probabilities.append(float(probs[outcome]))
        branch = branch[0] if seeds == 1 else np.concatenate(branch)
        if live is None:
            self.amps = branch.reshape(dims[:pos] + dims[pos + 1 :])
        else:
            kept = branch != 0
            self._amps, self._support = None, (live[kept], branch[kept])
        self.sites.pop(pos)
        self.retired[sid] = _Retired(outcomes, probabilities)
        self._reindex()
        return outcomes if per_seed else outcomes[0]

    def _live_block(self, outer: int, dim: int, inner: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The columns of the (outer, dim, inner) reshape that a measurement
        reads, rows first, in the order np.moveaxis(view, 1, 0).reshape(dim,
        -1) gives, and which they are. The live ones, a x inner + b with a
        nonzero entry, are read off the support positions (divmod, then
        np.unique) into the layout a gather of the dense array gives, or
        found by a scan of the dense array and gathered in place; below
        LIVE_READ_MIN amplitudes, or with more than half the columns live,
        every column of the dense amplitudes is read, as a strided view,
        and None names them. The register is left as it was."""
        if outer * dim * inner >= LIVE_READ_MIN:
            if self._support is not None:
                flat, values = self._support
                rest, back = np.divmod(flat, inner)
                front, row = np.divmod(rest, dim)
                live, col = np.unique(front * inner + back, return_inverse=True)
            else:
                view = self._amps.reshape(outer, dim, inner)
                live = np.flatnonzero(view.any(axis=1))
            if 2 * live.size <= outer * inner:
                if self._support is None:
                    front, back = np.divmod(live, inner)
                    return view[front, :, back].T, live
                block = np.zeros((live.size, dim), dtype=np.complex128)
                block[col, row] = values
                return block.T, live
        return np.moveaxis(self._dense().reshape(outer, dim, inner), 1, 0), None

    # --- overlaps ------------------------------------------------------------

    def _check_layout(self, other: "QuditRegister") -> None:
        if self.layout != other.layout:
            raise ValueError(f"live-site layouts differ: {list(self.layout)} vs {list(other.layout)}")

    def inner_product(self, other: "QuditRegister") -> complex:
        """<self|other> (_overlap). A register in support form reads the other
        only at its own positions, so no dense array is written."""
        self._check_layout(other)
        if self._support is not None:
            flat, values = self._support
            return _overlap(values, other._values_at(flat))
        if other._support is not None:
            flat, values = other._support
            return _overlap(self._values_at(flat), values)
        return _overlap(self._amps, other._amps)

    def _values_at(self, flat: np.ndarray) -> np.ndarray:
        """The amplitudes at the flat positions flat, sorted, in the form the
        register holds them: zero where its support form has no entry."""
        if self._support is None:
            return np.ravel(self._amps)[flat]
        own, values = self._support
        out = np.zeros(flat.size, dtype=np.complex128)
        _, mine, theirs = np.intersect1d(own, flat, assume_unique=True, return_indices=True)
        out[theirs] = values[mine]
        return out

    def fidelity(self, other: "QuditRegister") -> float:
        return abs(self.inner_product(other)) ** 2

    # --- relabelings -----------------------------------------------------------

    def relabel_site(self, sid: Hashable, image: np.ndarray) -> None:
        """Permute one site's basis labels: |x> -> |image[x]>; image must be
        a permutation of the site's labels. A dense register takes one
        per-axis take; on the support form each position moves to its new
        label and the positions are sorted, carrying the values."""
        pos, image = self.pos(sid), np.asarray(image, dtype=np.int64)
        dim, inverse = self.sites[pos].dim, image.argsort()
        if image.shape != (dim,) or (image[inverse] != np.arange(dim)).any():
            raise ValueError(f"relabelling of {sid!r} is not a permutation of its {dim} labels")
        if self._support is None:
            self.amps = _taken(self._amps, [pos], inverse)
            return
        flat, values = self._support
        self._support = _sorted(flat + _label_moves(flat, self.dims, [pos], image), values)

    def merge_sites(self, sid_a: Hashable, sid_b: Hashable, new_spec: SiteSpec) -> None:
        """Fuse two sites into one with C-order pairing (a-label major), at
        a's place: a dense register moves b's axis behind a's and reshapes;
        on the support form each position drops b's label and takes it back
        behind a's, and the positions are sorted, carrying the values."""
        pa, pb = self.pos(sid_a), self.pos(sid_b)
        if pa == pb:
            raise ValueError("merge needs two distinct sites")
        spec_a, spec_b = self.sites[pa], self.sites[pb]
        if new_spec.dim != spec_a.dim * spec_b.dim:
            raise ValueError("merged spec dimension mismatch")
        new_pa = pa if pb > pa else pa - 1
        if self._support is None:
            moved = np.moveaxis(self._amps, pb, new_pa + 1)
            self.amps = moved.reshape(moved.shape[:new_pa] + (new_spec.dim,) + moved.shape[new_pa + 2 :])
        else:
            flat, values, dims = *self._support, self.dims
            rest = dims[:pb] + dims[pb + 1 :]  # the layout without b
            below, after = math.prod(dims[pb + 1 :]), math.prod(rest[new_pa + 1 :])
            high, low = np.divmod(flat, below)
            high, label = np.divmod(high, dims[pb])
            high, low = np.divmod(high * below + low, after)
            self._support = _sorted((high * dims[pb] + label) * after + low, values)
        self.sites.pop(pb)
        self.sites[new_pa] = new_spec
        self._reindex()

    def split_site(self, sid: Hashable, spec_a: SiteSpec, spec_b: SiteSpec) -> None:
        """Inverse of merge_sites: C-order split of one site into two. No
        flat position moves, so the support form keeps its arrays and a
        dense register is reshaped."""
        pos = self.pos(sid)
        d = self.sites[pos].dim
        if spec_a.dim * spec_b.dim != d:
            raise ValueError("split dimensions do not factor the site")
        self.sites[pos : pos + 1] = [spec_a, spec_b]
        self._reindex()
        if self._support is None:
            self.amps = self._amps.reshape(self.dims)

    def probe_residual(self, vertices: Sequence[Sequence[int]], sources: np.ndarray) -> float:
        """max |probe - state| over every amplitude, where probe reads the
        joint label x of each axis group in vertices (row-major in its
        order) from sources[x], a permutation the caller trusts. A dense
        register is read through one per-axis take per group. On the support
        form each position moves to the labels that read it, and the values
        are compared over the union of the two supports: an entry outside
        it is zero on both sides, so the maximum has the dense check's bits."""
        if self._support is None:
            probe = self._amps
            for axes in vertices:
                probe = _taken(probe, axes, sources)
            return float(np.abs(probe - self._amps).max())
        flat, values = self._support
        image, dims = np.argsort(sources), self.dims
        moved = flat + sum(_label_moves(flat, dims, axes, image) for axes in vertices)
        moved, carried = _sorted(moved, values)
        if np.array_equal(moved, flat):
            diff = carried - values
        else:
            union = np.union1d(flat, moved)
            diff = _on_union(union, moved, carried) - _on_union(union, flat, values)
        return float(np.abs(diff).max()) if diff.size else 0.0


@lru_cache(maxsize=16)
def _fourier_matrix(group: FiniteGroup) -> np.ndarray:
    """F_ab = chi^a(b)/sqrt|A| of an abelian group, built once per group
    table; read-only."""
    fourier = character_table(group) / np.sqrt(group.order)
    fourier.setflags(write=False)
    return fourier


# ---------------------------------------------------------------------------
# initialization


def _vertex_site(v: int) -> Hashable:
    return ("v", v)


def _edge_site(e: int) -> Hashable:
    return ("e", e)


def _plus_state(spec_: SiteSpec) -> np.ndarray:
    return np.full(spec_.dim, 1.0 / np.sqrt(spec_.dim), dtype=np.complex128)


def _identity_state(spec_: SiteSpec) -> np.ndarray:
    v = np.zeros(spec_.dim, dtype=np.complex128)
    v[0] = 1.0
    return v


def init_product(specs: Sequence[SiteSpec], state_fn: Callable[[SiteSpec], np.ndarray]) -> QuditRegister:
    if not specs:
        raise ValueError("register needs at least one site")
    amps = np.asarray(state_fn(specs[0]), dtype=np.complex128)
    reg = QuditRegister([specs[0]], amps)
    if len(specs) > 1:
        reg.add_sites(specs[1:], state_fn)
    return reg


def init_plus(specs: Sequence[SiteSpec]) -> QuditRegister:
    """Product of uniform-superposition sites, norm 1."""
    return init_product(specs, _plus_state)
