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
and values, each with the bits of its dense path; so do fusions of sites
(fuse_sites), one decode and one encode of the positions. Every other
reader takes amps, which writes the dense array once and drops the
support form.
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
contiguous, seed-major run of the state. A stack comes into being at a
measurement: a register of one seed measured with one generator or forced
outcome per seed reads and rotates its block once and leaves one branch
per seed (a fan-out), so the seeds share every step before it. Gates and
relabelings act on every seed at once; a measurement weighs, draws and
normalizes every seed in one pass, each seed with the bits it has measured
alone, and seed(s) reads one seed back as a register of its own.
"""

from __future__ import annotations

import functools
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
    "WallCircuit",
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
# 4,096 on the machine the crossover was measured on, 2-4 rows); a fan-out
# counts the stack it leaves
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

    perm: image array, |x> -> |image[x]>, and its source row
    sources = argsort(image): output label x reads input label sources[x].
    diag: unimodular phases, |x> -> diag[x] |x>.

    The tables are checked, and a permutation's source row built, once at
    construction, read-only: a retargeted copy shares them, and the inverse
    of a permutation shares them swapped.
    """

    def __init__(self, targets: Sequence[Hashable], kind: str, payload, name: str = "op"):
        self.targets = _checked_targets(targets)
        self.kind = kind
        self.name = name
        if kind == "perm":
            self.image = np.array(payload, dtype=np.int64)
            self.sources = np.argsort(self.image)
            # image[argsort(image)] is the sorted image
            if not np.array_equal(self.image[self.sources], np.arange(len(self.image))):
                raise ValueError(f"{name}: image is not a permutation")
            self.sources.setflags(write=False)
            self.image.setflags(write=False)
        elif kind == "diag":
            self.diag = np.array(payload, dtype=np.complex128)
            if np.abs(np.abs(self.diag) - 1).max() > GATE_TOL:
                raise ValueError(f"{name}: unitary diagonal must be unimodular")
            self.diag.setflags(write=False)
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
        return self._from_checked(targets, self.name, image=self.image, sources=self.sources)

    @property
    def joint_dim(self) -> int:
        return len(self.image) if self.kind == "perm" else len(self.diag)

    def dagger(self) -> "LocalOperator":
        # the conjugate of a unimodular diagonal is one; the inverse of a
        # permutation swaps its image and source row
        if self.kind == "diag":
            return self._from_checked(self.targets, self.name + "+", diag=np.conj(self.diag))
        return self._from_checked(self.targets, self.name + "+", image=self.sources, sources=self.image)


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


class WallCircuit:
    """A gated allocation's entangler as data: permutation templates whose
    targets are slot numbers, and a target table with one row of site ids
    per edge, slot k of a row naming the site the templates' slot k acts
    on. Running it is every template in order on row 0, then on row 1, and
    so on (_push_labels). Two circuits are equal when their template tables
    and target tables are, whatever the objects: the rows of an allocation
    are cached on that content (_gated_rows), taken once here."""

    def __init__(self, templates: Sequence[LocalOperator], targets: Sequence[Sequence[Hashable]]):
        for op in templates:
            if op.kind != "perm":
                raise ValueError(f"{op.name}: label push needs a phase-free permutation")
        self.templates = tuple(templates)
        self.targets = tuple(tuple(row) for row in targets)
        self._key = tuple((op.targets, op.image.tobytes()) for op in self.templates), self.targets
        self._hash = hash(self._key)

    def __eq__(self, other) -> bool:
        return isinstance(other, WallCircuit) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash


def _push_labels(labels: Dict[Hashable, np.ndarray], dims: Dict[Hashable, int], circuit: WallCircuit) -> None:
    """Send every row of a per-site label table through a wall circuit, each
    template on each target row in the circuit's order: a basis state stays
    a basis state, so this is the whole circuit on every row at once."""
    for row in circuit.targets:
        for op in circuit.templates:
            targets = [row[k] for k in op.targets]
            if len(set(targets)) != len(targets):
                raise ValueError(f"{op.name}: duplicate target sites {targets}")
            if op.joint_dim != math.prod(dims[sid] for sid in targets):
                raise ValueError(f"{op.name}: operator dimension {op.joint_dim} mismatches its targets")
            out = op.image[_flat_labels(labels, dims, targets)]
            for sid in reversed(targets):
                out, labels[sid] = np.divmod(out, dims[sid])


@lru_cache(maxsize=32)
def _gated_rows(
    ctrl: Tuple[Tuple[Hashable, int], ...], new: Tuple[Tuple[Hashable, int], ...], circuit: WallCircuit
) -> np.ndarray:
    """Joint row of the new identity-state sites for every basis row of the
    ctrl sites, (sid, dim) pairs in register order, after the circuit; it
    must not move a ctrl label. Read-only, shared by every register with the
    same touched sites and circuit content."""
    grid = np.indices([d for _, d in ctrl]).reshape(len(ctrl), math.prod(d for _, d in ctrl))
    labels = {sid: grid[n] for n, (sid, _) in enumerate(ctrl)}
    labels.update((sid, np.zeros(grid.shape[1], dtype=np.int64)) for sid, _ in new)
    dims = dict(ctrl + new)
    _push_labels(labels, dims, circuit)
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


def _support_joint(flat: np.ndarray, dims: Sequence[int], strides: Sequence[int], axes: Sequence[int]) -> np.ndarray:
    """The joint label of axes, row-major in the given order, at every flat
    position of a C-order array of shape dims and row-major strides."""
    joint = 0
    for a in axes:
        joint = joint * dims[a] + flat // strides[a] % dims[a]
    return joint


def _label_moves(
    flat: np.ndarray, dims: Sequence[int], strides: Sequence[int], axes: Sequence[int], image: np.ndarray
) -> np.ndarray:
    """How far each flat position moves when the joint label x of axes,
    row-major in the given order, goes to image[x]."""
    grid = np.indices([dims[a] for a in axes]).reshape(len(axes), -1)
    offsets = np.dot([strides[a] for a in axes], grid)
    return (offsets[image] - offsets)[_support_joint(flat, dims, strides, axes)]


def _sorted(flat: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A support form from moved positions: one stable argsort carries the
    values with their positions."""
    order = np.argsort(flat, kind="stable")
    return flat[order], values[order]


def _from_support(sites: Sequence[SiteSpec], flat: np.ndarray, values: np.ndarray) -> "QuditRegister":
    """A register over sites in support form: sorted distinct positions flat, nonzero values."""
    out = object.__new__(QuditRegister)
    out.sites, out._amps, out._support, out.retired = list(sites), None, (flat, values), {}
    out._reindex()
    return out


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


def _measured_rows(
    cols: np.ndarray, live: Optional[np.ndarray], blocks: int, width: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The rotated (dim, columns) block of a measurement as the rows of its
    blocks, row b * dim + x the columns of block b at outcome x, and for a
    live-column read the flat position of each block's columns. Block s holds
    seed s of a stack (its width columns, or its run of the live columns,
    zero-padded to the longest run); a register of one seed is one block."""
    if blocks == 1:
        return cols, None if live is None else live[None]
    dim = cols.shape[0]
    if live is None:
        return cols.reshape(dim, blocks, width).swapaxes(0, 1).reshape(blocks * dim, width), None
    runs = live.searchsorted(np.arange(blocks + 1) * width)
    owner = np.repeat(np.arange(blocks), np.diff(runs))
    slot = np.arange(live.size) - runs[owner]
    rows = np.zeros((blocks, dim, int(np.diff(runs).max())), dtype=np.complex128)
    rows[owner, :, slot] = cols.T
    at = np.zeros((blocks, rows.shape[2]), dtype=np.int64)
    at[owner, slot] = live
    return rows.reshape(blocks * dim, -1), at


def _sample(rngs: Sequence[np.random.Generator], probs: np.ndarray) -> np.ndarray:
    """The outcome rng.choice(k, p=row) draws for each generator and its row
    of k probabilities (one row per generator, or one for all of them), from
    the same one uniform draw, the generators drawing in order: numpy's own
    inverse-CDF search, without its argument checks, for every row at once,
    as one cumsum and one compare. Each row must be non-negative with a
    positive sum."""
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    draws = np.array([[rng.random()] for rng in rngs])
    # the first entry above a draw is np.searchsorted(row, draw, side="right"):
    # the last entry is exactly 1, above every draw
    return (cdf > draws).argmax(axis=1)


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
        """The site index, dims and row-major strides (the flat step of one
        label on each axis), rebuilt on every change to the site list."""
        self._index: Dict[Hashable, int] = {s.sid: k for k, s in enumerate(self.sites)}
        dims = [s.dim for s in self.sites]
        self.dims: Tuple[int, ...] = tuple(dims)
        strides, stride = [], 1
        for dim in reversed(dims):
            strides.append(stride)
            stride *= dim
        strides.reverse()
        self._strides: Tuple[int, ...] = tuple(strides)

    @property
    def amps(self) -> np.ndarray:
        """The dense amplitudes; a register in support form writes them
        here, once, and leaves that form. A frozen support form (freeze)
        never changes form, since registers fork it from any thread: its
        dense amplitudes are scattered on every read, read-only, and not
        stored."""
        if self._support is not None:
            dense = self._dense()
            if not self._support[1].flags.writeable:
                dense.setflags(write=False)
                return dense
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
        out.sites, out._index, out.dims, out._strides = list(self.sites), dict(self._index), self.dims, self._strides
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
            size = self._strides[0]
            lo, hi = np.searchsorted(flat, [s * size, (s + 1) * size])
            out._support = (flat[lo:hi] - s * size, values[lo:hi])
        else:
            out._amps = self._amps[s]
        return out

    def norm(self) -> float:
        amps = self._amps if self._support is None else self._support[1]
        return float(np.sqrt(_overlap(amps, amps).real))

    def copy(self) -> "QuditRegister":
        out = QuditRegister(list(self.sites), self._dense().copy())
        out.retired = dict(self.retired)
        return out

    def add_sites(
        self, specs: Sequence[SiteSpec], state: Union[Callable[[SiteSpec], np.ndarray], WallCircuit]
    ) -> None:
        """Append fresh sites (ancilla allocation): in the product state
        state(spec) of each site, or, for a WallCircuit, in the identity
        state, written by its walls in the same pass (a gated allocation).

        The circuit must not move a live site's label. Each basis row of the
        live sites its target table names lands on one new-site row, so the
        labels are pushed over that grid once (_gated_rows), and the
        register is left in support form: each nonzero amplitude keeps its
        value, at its old flat position times the new sites' joint dimension
        plus the new-site row of its ctrl labels. No dense array of the new
        size is written. AMPLITUDE_BUDGET applies to that size all the same,
        checked before anything is allocated."""
        old, extra = self.dims, math.prod(spec_.dim for spec_ in specs)
        _require_within_budget(math.prod(old) * extra)
        for spec_ in specs:
            if spec_.sid in self._index or spec_.sid in self.retired:
                raise ValueError(f"site id {spec_.sid!r} already used")
        if isinstance(state, WallCircuit):
            new = tuple((spec_.sid, spec_.dim) for spec_ in specs)
            named = {sid for row in state.targets for sid in row}.difference(sid for sid, _ in new)
            ctrl = sorted(self.pos(sid) for sid in named)
            rows = _gated_rows(tuple((self.sites[k].sid, old[k]) for k in ctrl), new, state)
            flat, values = self._positions()
            joint = _support_joint(flat, old, self._strides, ctrl)
            self._amps, self._support = None, (flat * extra + rows[joint], values)
        else:
            states = [np.asarray(state(spec_), dtype=np.complex128) for spec_ in specs]
            for spec_, local in zip(specs, states):
                if local.shape != (spec_.dim,):
                    raise ValueError(f"ancilla state for {spec_.sid!r} has wrong dimension")
            for local in states:
                self.amps = np.multiply.outer(self.amps, local)
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
        axes, dims, strides = self._target_axes(op), self.dims, self._strides
        flat, values = self._support
        if isinstance(op, LocalOperator) and op.kind == "perm":
            self._support = _sorted(flat + _label_moves(flat, dims, strides, axes, op.image), values)
        else:
            self._support = (flat, values * op.diag[_support_joint(flat, dims, strides, axes)])
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
        seed, it returns a list of outcomes; given one, it measures a register
        of one seed and returns its outcome. A stack takes one per seed it
        holds. A register of one seed takes any number n and fans out: its
        block is read and rotated once, and it is left as the stack of n seeds
        that n copies of it stacked before the measurement would leave, its
        earlier retired records repeated per seed. AMPLITUDE_BUDGET applies
        to that stack, checked before the rotation.

        One pass measures every seed, with no loop over them but the draws:
        the rotated columns are the rows of one (blocks, dim, width) array
        (_measured_rows), one block per seed of a stack or one block every
        seed of a fan-out reads; the Born weights are one _born_weights call,
        each seed draws one uniform from its own generator, in seed order,
        against its block's cumulative probabilities (_sample), and the
        branches are one gather and one divide. Each seed gets the bits of a
        measurement of that seed alone, since a row's weight depends neither
        on the rows around it nor on the zeros that pad it. The first seed
        rejected stops the call before any later seed draws; the retired
        record holds one outcome and one probability per seed.

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
        pos = self.pos(sid)
        spec_ = self.sites[pos]
        if not spec_.group.is_abelian:
            raise ValueError(f"Fourier measurement needs an abelian site, {sid!r} carries {spec_.group.name}")
        per_seed = isinstance(rng if forced is None else forced, (list, tuple))
        if forced is not None:
            forced = [int(outcome) for outcome in (forced if per_seed else [forced])]
            for outcome in forced:
                if not 0 <= outcome < spec_.dim:
                    raise ValueError(f"forced outcome {outcome} out of range for {sid!r}")
        elif rng is None:
            raise ValueError("measurement needs an rng or a forced outcome")
        rngs = rng if per_seed else [rng]
        seeds, blocks = len(rngs if forced is None else forced), self.seeds
        if not seeds or blocks not in (1, seeds):
            raise ValueError(f"a measurement of {blocks} seeds needs one rng or forced outcome per seed")
        dims, dim, inner = self.dims, spec_.dim, self._strides[pos]
        outer = math.prod(dims[:pos])
        if seeds > blocks:
            _require_within_budget(seeds * outer * inner)
        cols, live = self._live_block(outer, dim, inner, seeds // blocks)
        cols = _rotated(_fourier_matrix(spec_.group), cols).reshape(dim, -1)  # frees the gathered block
        rows, at = _measured_rows(cols, live, blocks, outer // blocks * inner)
        weights = _born_weights(rows).reshape(blocks, dim)
        totals = weights.sum(axis=1, keepdims=True)
        probs, sums, zero = weights, totals, None
        off = np.abs(totals - 1.0)
        if not off.max() <= 1e-6:  # a total more than 1e-6 off 1: zero, NaN or to be rescaled
            zero = ~(totals[:, 0] > 0)
            with np.errstate(invalid="ignore"):  # a zero block, rejected below, reads 0 / 0
                probs = weights / np.where(off <= 1e-6, 1.0, totals)
            sums = probs.sum(axis=1, keepdims=True)
        # each seed's block's first row: the seeds of a fan-out share block 0
        base = np.arange(0, blocks * dim, dim) if blocks > 1 else 0
        failed = zero  # one per block, or None: no block is zero
        if forced is not None:
            outcomes = np.array(forced)
            unlikely = probs.take(outcomes + base) < 1e-14
            failed = unlikely if zero is None else zero | unlikely
        if failed is not None and np.count_nonzero(failed):
            first = int(failed.argmax())
            block = first if blocks > 1 else 0
            for generator in rngs[:first] if forced is None else ():
                generator.random()  # each seed before the rejected one draws, as when measured alone
            if zero is not None and zero[block]:
                raise ValueError(f"measurement of {sid!r} on a zero state")
            raise ValueError(
                f"forced outcome {forced[first]} on {sid!r} has zero Born probability "
                f"(distribution {np.round(probs[block], 6).tolist()})"
            )
        if forced is None:
            outcomes = _sample(rngs, probs / sums)
        pick = outcomes + base  # each seed's row of weights, probabilities and branches
        chosen = weights.take(pick)
        branch = rows.take(pick, axis=0)
        branch /= np.sqrt(chosen)[:, None]
        probabilities = (chosen if probs is weights else probs.take(pick)).tolist()
        if live is None:
            self.amps = branch.reshape((seeds,) * (seeds > blocks) + dims[:pos] + dims[pos + 1 :])
        else:
            flat = at if seeds == blocks else at + (np.arange(seeds) * (outer * inner))[:, None]
            kept = branch != 0
            self._amps, self._support = None, (flat[kept], branch[kept])
        self.sites.pop(pos)
        if seeds > blocks:
            self.sites.insert(0, _seed_spec(seeds))
            self.retired = {k: _Retired(r.outcomes * seeds, r.probabilities * seeds) for k, r in self.retired.items()}
        self.retired[sid] = _Retired(outcomes.tolist(), probabilities)
        self._reindex()
        return self.retired[sid].outcomes if per_seed else self.retired[sid].outcome

    def _live_block(self, outer: int, dim: int, inner: int, fan: int = 1) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The columns of the (outer, dim, inner) reshape that a measurement
        reads, rows first, in the order np.moveaxis(view, 1, 0).reshape(dim,
        -1) gives, and which they are. The live ones, a x inner + b with a
        nonzero entry, are read off the support positions (divmod, then
        np.unique) into the layout a gather of the dense array gives, or
        found by a scan of the dense array and gathered in place; below
        LIVE_READ_MIN amplitudes in the stack the measurement leaves, fan
        times this register, or with more than half the columns live, every
        column of the dense amplitudes is read, as a strided view, and None
        names them. The register is left as it was."""
        if fan * outer * dim * inner >= LIVE_READ_MIN:
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
        register holds them: a gather of the dense array, or one searchsorted
        on the support positions, zero where the support form has no entry."""
        if self._support is None:
            return np.ravel(self._amps)[flat]
        own, values = self._support
        if not own.size:
            return np.zeros(flat.size, dtype=np.complex128)
        found = np.minimum(own.searchsorted(flat), own.size - 1)
        return np.where(own[found] == flat, values[found], 0)

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
        self._support = _sorted(flat + _label_moves(flat, self.dims, self._strides, [pos], image), values)

    def fuse_sites(self, fusions: Sequence[Tuple[Sequence[Hashable], SiteSpec, np.ndarray]]) -> None:
        """Fuse each group of sites (sids, spec, table) into one site spec at
        the place of its first site: the joint label x of the sids, row-major
        in their order, becomes label table[x], a permutation of spec's
        labels, and every amplitude only moves. A dense register takes one
        gather, its sources a broadcast sum of each new axis's offsets; on
        the support form the positions are decoded into labels once, encoded
        into the new layout once and sorted by one stable argsort."""
        dims, strides = self.dims, self._strides
        fused, seen = {}, []
        for sids, spec_, table in fusions:
            axes = [self.pos(sid) for sid in sids]
            size = math.prod(dims[a] for a in axes)
            table = np.asarray(table, dtype=np.int64)
            if spec_.dim != size or table.shape != (size,) or (np.sort(table) != np.arange(size)).any():
                raise ValueError(f"fusing {list(sids)} needs a permutation of their {size} joint labels")
            fused[axes[0]] = axes, spec_, table
            seen += axes
        if len(set(seen)) != len(seen):
            raise ValueError("a site can be fused once")
        layout = [fused.get(a, ([a], self.sites[a], None)) for a in range(len(dims)) if a not in seen or a in fused]
        if self._support is None:
            steps = []  # each new axis's labels as offsets of the old flat positions
            for axes, spec_, table in layout:
                labels = np.arange(spec_.dim) if table is None else np.argsort(table)
                parts = np.unravel_index(labels, [dims[a] for a in axes])
                steps.append(sum(part * strides[a] for part, a in zip(parts, axes)))
            self.amps = np.ravel(self._amps)[functools.reduce(np.add.outer, steps)]
        else:
            flat, values = self._support
            labels = np.unravel_index(flat, dims)
            moved = [labels[axes[0]] if table is None else table[_flat_labels(labels, dims, axes)] for axes, _, table in layout]
            self._support = _sorted(np.ravel_multi_index(moved, [spec_.dim for _, spec_, _ in layout]), values)
        self.sites = [spec_ for _, spec_, _ in layout]
        self._reindex()

    def split_site(self, sid: Hashable, spec_a: SiteSpec, spec_b: SiteSpec) -> None:
        """C-order split of one site into two, the first label major. No
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
        image, dims, strides = np.argsort(sources), self.dims, self._strides
        moved = flat + sum(_label_moves(flat, dims, strides, axes, image) for axes in vertices)
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
