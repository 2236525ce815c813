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
is checked against. theta_sphere_reversed is theta_sphere with edge 1
reversed, so its edges no longer all point the same way. dense_kw_exact_g
is the definitional map scattered into the dense edge space, the reference
kw_exact_g's support form is checked against bitwise.
expanded_wall_gates is a wall circuit as the per-edge gate list it stands
for, one retargeted gate per (edge, template), and push_gate_list and
gate_list_rows push labels through such a list one gate at a time: the
reference the circuit's rows are checked against bitwise. circuit_of_gates
spells any permutation gate list as a one-row circuit, for the random walls
of the support tests and the dropped-gate mutants. identity_state is the
identity-element basis state of one site.
dense_vertex_projector is one vertex term A_v as a dense matrix, and
dense_projector_rank is the joint stabilizer projector as a dense
|G|^E x |G|^E matrix with its rank read off the spectrum, the reference for
the orbit count of verify.ground_state_degeneracy.
dense_stabilizer_report and dense_measure_fourier read every amplitude,
the paths the support reads of the report and the measurement are checked
against bitwise; they take their overlaps and the Fourier rotation through
the register's own kernels (_overlap, _rotated), whose bits do not depend on
the BLAS thread count or on which columns they are given.
stack builds a stack of seeds by copying a register before any
measurement, the reference a measurement's fan-out is checked against;
merge_sites fuses two sites with a-label-major pairing, and
pairwise_edge_reassembly is the edge reassembly as two merges and two
relabelings per edge and stage, the reference the one-step reassembly
(protocols._reassemble_edges) is checked against bitwise.
is_isomorphic and central_quotient are the group-theory checks of the
factor-system round trips, and loop_permutation_table is the composition
table of a permutation group one tuple composition at a time, the reference
for the vectorized groups.permutation_group. gate_matrix is a register gate as a dense
matrix, and split_left_mult is L^g on a split vertex built from the factor
system's own formula, the reference the split-vertex symmetry probes are
pinned to. all_element_require_symmetric is the symmetry probe over every
g != e, the reference for the probe on a generating set. walk_sign,
nontrivial, conjugacy_classes, is_trivial and irrep_by_label are small
queries on the program's records that only the tests ask. The other
all_element_* checks are verify's g-indexed identities as a loop over every
g != e, from the same pure columns, actions and deviation constants; verify
loops over a generating set only, and must give the same bits.
per_op_plaquette_loops_carry_irrep_dimension builds each loop diagonal with
loop_z, where verify reads the stabilizer report's tables,
and column_wall_sweep is the decorated-wall push-through one column at a
time, where verify sweeps blocks of columns as one array; both must give
verify's bits.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, Hashable, List, Sequence

import numpy as np

from gaugekit.cellulation import Cellulation
from gaugekit.feedforward import CorrectionPlan, SyndromeSet
from gaugekit.gates import (
    _joint2,
    _walk_product,
    controlled_left,
    controlled_right,
    cz_abelian,
    left_mult,
    loop_z,
    omega_gate,
    parent_to_pair,
    right_mult,
)
from gaugekit.groups import (
    FactorSystem,
    FiniteGroup,
    Irrep,
    IrrepTable,
    _generating_set,
    center,
    character_table,
    irrep_table,
    quotient_group,
)
from gaugekit.kwmaps import EXACT_BUDGET, _probe_table
from gaugekit.register import (
    STATE_TOL,
    DiagonalOperator,
    LocalOperator,
    QuditRegister,
    SiteSpec,
    WallCircuit,
    _edge_site,
    _flat_labels,
    _fourier_matrix,
    _overlap,
    _require_within_budget,
    _Retired,
    _rotated,
    _seed_spec,
    _sorted,
    _vertex_site,
    init_plus,
    init_product,
)
from gaugekit.verify import (
    GSD_DIM_BUDGET,
    StabilizerReport,
    _column_grids,
    _conjugation_deviation,
    _edge_order,
    _pure_deviation,
    _pure_kw_g,
    _pure_kw_n,
    _real,
    _split_row_order,
    _stabilizer_diagonals,
    _vertex_tables,
)

# enumeration terms for the reference state
ORACLE_BUDGET = 1_000_000
SYNDROME_TOL = 1e-8


# ---------------------------------------------------------------------------
# fixture cell


def theta_sphere_reversed() -> Cellulation:
    """theta_sphere with edge 1 pointing from vertex 1 to vertex 0: its step
    is negated in both walks, the dual edges are unchanged. With mixed
    orientations the cocycle dressing of the one-shot nil2 circuit no
    longer cancels around every plaquette."""
    return Cellulation(
        n_vertices=2,
        edges=((0, 1), (1, 0), (0, 1)),
        plaquettes=(((0, 1), (1, 1)), ((1, -1), (2, -1)), ((2, 1), (0, -1))),
        dual_edges=((2, 0), (0, 1), (1, 2)),
        genus=0,
        name="theta_sphere_reversed",
    )


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
    amps /= np.sqrt(_overlap(amps, amps).real)
    specs = [SiteSpec(edge_of(e), "edge", g_group) for e in range(n_e)]
    return QuditRegister(specs, amps)


def dense_kw_exact_g(
    reg: QuditRegister,
    cell: Cellulation,
    g_group: FiniteGroup,
    vertex_of: Callable[[int], Hashable] = _vertex_site,
    edge_of: Callable[[int], Hashable] = _edge_site,
) -> QuditRegister:
    """kw_exact_g as a scatter into the dense |G|^E edge space: np.add.at
    adds each wall key's terms in input order, the output is normalized by
    _overlap and returned dense. Only its nonzero entries are divided, which
    leaves the zeros as they are and the untouched pages of the zero-filled
    array unwritten, so the cases near EXACT_BUDGET stay small."""
    d = g_group.order
    n_v, n_e = cell.n_vertices, cell.n_edges
    if len(reg.sites) != n_v:
        raise ValueError("kw_exact_g expects a register with exactly the vertex sites")
    if d**n_e > EXACT_BUDGET:
        raise ValueError(f"edge space {d}^{n_e} exceeds the dense-assembly budget {EXACT_BUDGET}")
    order = [reg.pos(vertex_of(v)) for v in range(n_v)]
    amps = np.moveaxis(reg.amps, order, range(n_v)).reshape(-1)
    grids = np.indices((d,) * n_v).reshape(n_v, -1)
    walls = np.empty((n_e, grids.shape[1]), dtype=np.int64)
    for e, (i_v, f_v) in enumerate(cell.edges):
        walls[e] = g_group.mult[g_group.inv[grids[i_v]], grids[f_v]]
    out = np.zeros(d**n_e, dtype=np.complex128)
    np.add.at(out, np.ravel_multi_index(tuple(walls), (d,) * n_e), amps)
    norm = np.sqrt(_overlap(out, out).real)
    if norm < 1e-12:
        raise ValueError("input has no invariant component; the map projects it to zero")
    nonzero = np.flatnonzero(out)
    out[nonzero] /= norm
    specs = [SiteSpec(edge_of(e), "edge", g_group) for e in range(n_e)]
    return QuditRegister(specs, out.reshape((d,) * n_e))


def identity_state(spec_: SiteSpec) -> np.ndarray:
    """The identity-element basis state of one site."""
    v = np.zeros(spec_.dim, dtype=np.complex128)
    v[0] = 1.0
    return v


def init_identity(specs: Sequence[SiteSpec]) -> QuditRegister:
    """Product of identity-element basis states."""
    return init_product(specs, identity_state)


# ---------------------------------------------------------------------------
# wall circuits as per-edge gate lists


def expanded_wall_gates(circuit: WallCircuit) -> List[LocalOperator]:
    """A wall circuit as the gate list it stands for: every template
    retargeted to every row of its target table, row by row, one gate object
    per (edge, template)."""
    return [op.retarget([row[k] for k in op.targets]) for row in circuit.targets for op in circuit.templates]


def circuit_of_gates(gates: Sequence[LocalOperator]) -> WallCircuit:
    """Any permutation gate list as a wall circuit of one row: the row names
    every site the gates touch, in first-seen order, and template k is gate
    k on those sites' slots."""
    row = list(dict.fromkeys(t for op in gates for t in op.targets))
    return WallCircuit([op.retarget([row.index(t) for t in op.targets]) for op in gates], [row])


def push_gate_list(
    labels: Dict[Hashable, np.ndarray], dims: Dict[Hashable, int], gates: Sequence[LocalOperator]
) -> None:
    """Send every row of a per-site label table through permutation gates
    one gate at a time, in order: the gate-list form of
    register._push_labels."""
    for op in gates:
        assert op.kind == "perm" and op.joint_dim == np.prod([dims[sid] for sid in op.targets])
        out = op.image[_flat_labels(labels, dims, op.targets)]
        for sid in reversed(op.targets):
            out, labels[sid] = np.divmod(out, dims[sid])


def gate_list_rows(ctrl, new, gates: Sequence[LocalOperator]) -> np.ndarray:
    """register._gated_rows through a per-edge gate list: the joint row of
    the new identity-state sites after the gates, for every basis row of the
    ctrl sites ((sid, dim) pairs)."""
    grid = np.indices([d for _, d in ctrl]).reshape(len(ctrl), -1)
    labels = {sid: grid[n].copy() for n, (sid, _) in enumerate(ctrl)}
    labels.update((sid, np.zeros(grid.shape[1], dtype=np.int64)) for sid, _ in new)
    dims = dict(tuple(ctrl) + tuple(new))
    push_gate_list(labels, dims, gates)
    assert all(np.array_equal(labels[sid], grid[n]) for n, (sid, _) in enumerate(ctrl))
    return _flat_labels(labels, dims, [sid for sid, _ in new])


# ---------------------------------------------------------------------------
# edge entanglers


def gate_matrix(op: LocalOperator) -> np.ndarray:
    """A register gate as a dense matrix over its joint target basis."""
    if op.kind == "diag":
        return np.diag(op.diag)
    d = op.joint_dim
    m = np.zeros((d, d), dtype=np.complex128)
    m[op.image, np.arange(d)] = 1
    return m


def split_left_mult(fs: FactorSystem, g: int, n_sid: Hashable, q_sid: Hashable) -> LocalOperator:
    """L^g on a split vertex: |n_v, q_v> = |n_g sigma^{q_g}[n_v] omega(q_g, q_v), q_g q_v>."""
    n_grp, q_grp = fs.n_group, fs.q_group
    ng, qg = int(fs.tpart[g]), int(fs.proj[g])
    n, q = _joint2(n_grp.order, q_grp.order)
    n2 = n_grp.mult[n_grp.mult[ng, fs.sigma[qg, n]], fs.omega[qg, q]]
    image = n2 * q_grp.order + q_grp.mult[qg, q]
    return LocalOperator([n_sid, q_sid], "perm", image, name=f"Lsplit^{g}")


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
            moved = reg.copy()
            for e, sign in cell.edges_at_vertex(v):
                sid = edge_of(e)
                moved.apply(left_mult(a_group, g, sid) if sign == 1 else right_mult(a_group, g, sid))
            vals.append(_overlap(reg.amps, moved.amps))
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
    reg.add_sites([SiteSpec(("e", e, "q"), "edge", q_grp) for e in range(cell.n_edges)], identity_state)
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


# ---------------------------------------------------------------------------
# seed stacks and pairwise edge merges


def stack(reg: QuditRegister, n: int) -> QuditRegister:
    """n seeds of reg's state as one stack, seed-major, built before any
    measurement: a register whose leading site is SEED_SITE, in the form reg
    holds it, retiring no site, its seeds reg's support form, or dense array,
    once per seed. A stack of one is a fork of reg. AMPLITUDE_BUDGET applies
    to the stack's size. The reference a measurement's fan-out is checked
    against."""
    size = math.prod(reg.dims)
    _require_within_budget(n * size)
    out = reg.fork()
    if n == 1:
        return out
    out.sites.insert(0, _seed_spec(n))
    out._reindex()
    if reg._support is not None:
        flat, values = reg._support
        out._support = ((np.arange(n)[:, None] * size + flat).reshape(-1), np.tile(values, n))
    else:
        out._amps = np.repeat(reg._amps[None], n, axis=0)
    return out


def merge_sites(reg: QuditRegister, sid_a: Hashable, sid_b: Hashable, new_spec: SiteSpec) -> None:
    """Fuse two sites into one with C-order pairing (a-label major), at a's
    place: a dense register moves b's axis behind a's and reshapes; on the
    support form each position drops b's label and takes it back behind a's,
    and the positions are sorted, carrying the values."""
    pa, pb = reg.pos(sid_a), reg.pos(sid_b)
    if pa == pb:
        raise ValueError("merge needs two distinct sites")
    spec_a, spec_b = reg.sites[pa], reg.sites[pb]
    if new_spec.dim != spec_a.dim * spec_b.dim:
        raise ValueError("merged spec dimension mismatch")
    new_pa = pa if pb > pa else pa - 1
    if reg._support is None:
        moved = np.moveaxis(reg._amps, pb, new_pa + 1)
        reg.amps = moved.reshape(moved.shape[:new_pa] + (new_spec.dim,) + moved.shape[new_pa + 2 :])
    else:
        flat, values, dims = *reg._support, reg.dims
        rest = dims[:pb] + dims[pb + 1 :]  # the layout without b
        below, after = math.prod(dims[pb + 1 :]), math.prod(rest[new_pa + 1 :])
        high, low = np.divmod(flat, below)
        high, label = np.divmod(high, dims[pb])
        high, low = np.divmod(high * below + low, after)
        reg._support = _sorted((high * dims[pb] + label) * after + low, values)
    reg.sites.pop(pb)
    reg.sites[new_pa] = new_spec
    reg._reindex()


def pairwise_edge_reassembly(
    reg: QuditRegister, cell: Cellulation, systems: Sequence[FactorSystem], stages_of: Callable[[int], List[Hashable]]
) -> None:
    """protocols._reassemble_edges as two merges and two relabelings per edge
    and stage: innermost first, each edge's subgroup label of systems[j - 1]
    is merged with its already-reassembled quotient label (subgroup-major)
    and the pair relabelled to the parent's elements."""
    for j in range(len(systems), 0, -1):
        image = np.argsort(parent_to_pair(systems[j - 1]))
        for e in range(cell.n_edges):
            stages = stages_of(e)
            merged = _edge_site(e) if j == 1 else stages[j - 1]
            merge_sites(reg, stages[j - 1], stages[j], SiteSpec(merged, "edge", systems[j - 1].parent))
            reg.relabel_site(merged, image)


# ---------------------------------------------------------------------------
# dense stabilizer sweep and measurement


def dense_stabilizer_report(
    reg: QuditRegister,
    g_group: FiniteGroup,
    cell: Cellulation,
    edge_of: Callable[[int], Hashable] = _edge_site,
) -> StabilizerReport:
    """stabilizer_report reading every amplitude: <A_v> sums, in element
    order, the state scaled once by 1/|G| and read through the source row
    image[g^-1] of every edge at v, one np.take per edge axis, and the
    diagonals go through QuditRegister.expectation's broadcast multiply."""
    edges = tuple(edge_of(e) for e in range(cell.n_edges))
    terms = _stabilizer_diagonals(g_group, cell, edges)
    scaled = complex(1.0 / g_group.order) * reg.amps
    vexp = {}
    for v in range(cell.n_vertices):
        rows = [(reg.pos(edges[e]), image[g_group.inv]) for e, image in _vertex_tables(g_group, cell, v)]
        acc = np.zeros_like(reg.amps)
        for g in range(g_group.order):
            term = scaled
            for axis, sources in rows:
                term = np.take(term, sources[g], axis=axis)
            acc += term
        vexp[v] = _real(_overlap(reg.amps, acc), f"A[{v}]")
    pexp = {p: _real(reg.expectation(op), f"B[{p}]") for p, op in enumerate(terms.plaquettes)}
    loop_values = {
        label: {p: _real(reg.expectation(op), f"loop[{label},{p}]") for p, op in enumerate(ops)}
        for label, ops in terms.loops
    }
    return StabilizerReport(vertex_expectations=vexp, plaquette_expectations=pexp, loop_values=loop_values)


def dense_measure_fourier(reg: QuditRegister, sid: Hashable, rng=None, forced=None) -> int:
    """QuditRegister.measure_fourier with the same rotation kernel over
    every column of the block, the Born weights as one einsum over the whole
    rotated block, and the collapse read off it; a zero state is rejected as
    there, leaving the register as it was."""
    spec_ = reg.spec(sid)
    if not spec_.group.is_abelian:
        raise ValueError(f"Fourier measurement needs an abelian site, {sid!r} carries {spec_.group.name}")
    if forced is not None:
        outcome = int(forced)
        if not 0 <= outcome < spec_.dim:
            raise ValueError(f"forced outcome {outcome} out of range for {sid!r}")
    elif rng is None:
        raise ValueError("measurement needs an rng or a forced outcome")
    pos = reg.pos(sid)
    moved = np.moveaxis(reg.amps, pos, 0)
    block = _rotated(_fourier_matrix(spec_.group), moved.reshape(spec_.dim, -1))
    weights = probs = np.einsum("ij,ij->i", block, np.conj(block)).real
    total = probs.sum()
    if not total > 0:
        raise ValueError(f"measurement of {sid!r} on a zero state")
    if abs(total - 1.0) > 1e-6:
        probs = probs / total
    if forced is None:
        outcome = int(rng.choice(spec_.dim, p=probs / probs.sum()))
    elif probs[outcome] < 1e-14:
        raise ValueError(
            f"forced outcome {outcome} on {sid!r} has zero Born probability "
            f"(distribution {np.round(probs, 6).tolist()})"
        )
    branch = block[outcome] / np.sqrt(weights[outcome])
    reg.amps = branch.reshape(moved.shape[1:])
    reg.sites.pop(pos)
    reg.retired[sid] = _Retired(outcomes=[outcome], probabilities=[float(probs[outcome])])
    reg._reindex()
    return outcome


# ---------------------------------------------------------------------------
# dense degeneracy projector


def _vertex_perm_columns(
    g_group: FiniteGroup, cell: Cellulation, v: int, g: int, grids: np.ndarray
) -> np.ndarray:
    """Row index hit by each basis column under one vertex action."""
    labels = grids.copy()
    for e, table in _vertex_tables(g_group, cell, v):
        labels[e] = table[g][labels[e]]
    return np.ravel_multi_index(tuple(labels), (g_group.order,) * cell.n_edges)


def dense_vertex_projector(g_group: FiniteGroup, cell: Cellulation, v: int) -> np.ndarray:
    """A_v as a dense |G|^E x |G|^E matrix over the edges in cell order: the
    group average of the vertex-action permutation matrices."""
    n_e = cell.n_edges
    grids = np.indices((g_group.order,) * n_e).reshape(n_e, -1)
    cols = np.arange(grids.shape[1])
    proj = np.zeros((cols.size, cols.size))
    for g in g_group.elements():
        proj[_vertex_perm_columns(g_group, cell, v, g, grids), cols] += 1.0 / g_group.order
    return proj


def dense_projector_rank(g_group: FiniteGroup, cell: Cellulation) -> int:
    """Rank of the joint stabilizer projector on the edge space.

    The vertex product is a real average of permutation matrices: every
    joint choice of vertex actions scatters |G|^-V along one composed
    permutation, vertex 0 acting first. The plaquette diagonal then zeroes
    each non-flat row. Every nonzero entry is at least |G|^-V, far above
    the hermiticity tolerance, so a hermitian projector also has zero
    flat-row, non-flat-column entries and its spectrum is that of the flat
    block plus exact zeros.
    """
    if not cell.closed:
        raise ValueError("degeneracy counting needs a closed cellulation")
    d, n_e = g_group.order, cell.n_edges
    dim = d**n_e
    if dim > GSD_DIM_BUDGET:
        raise ValueError(f"edge space {d}^{n_e} exceeds the dense projector budget {GSD_DIM_BUDGET}")
    grids = np.indices((d,) * n_e).reshape(n_e, -1)
    cols = np.arange(dim)
    actions = [
        [_vertex_perm_columns(g_group, cell, v, g, grids) for g in g_group.elements()]
        for v in range(cell.n_vertices)
    ]
    weight = 1.0 / d**cell.n_vertices
    proj = np.zeros((dim, dim))
    for choice in itertools.product(*actions):
        rows = cols
        for perm in choice:
            rows = perm[rows]
        proj[rows, cols] += weight
    keep = np.ones(dim)
    for walk in cell.plaquettes:
        spots, acc = _walk_product(g_group, walk)
        keep *= acc[np.ravel_multi_index(tuple(grids[e] for e in spots), (d,) * len(spots))] == 0
    proj *= keep[:, None]
    herm_dev = np.abs(proj - proj.T).max()
    if herm_dev > 1e-10:
        raise ValueError(f"stabilizer projector fails hermiticity by {herm_dev:.2e}")
    flat = np.flatnonzero(keep)
    block = proj[np.ix_(flat, flat)]
    eigs = np.linalg.eigvalsh((block + block.T) / 2)
    loose = eigs[(eigs > 1e-8) & (eigs < 1 - 1e-8)]
    if loose.size:
        raise ValueError(f"projector spectrum has {loose.size} values away from 0 and 1")
    return int(np.count_nonzero(eigs >= 1 - 1e-8))


# ---------------------------------------------------------------------------
# g-indexed identities over every element


def all_element_left_action_gauged_away(g_group: FiniteGroup, cell: Cellulation) -> float:
    labels, dims, scale = _pure_kw_g(g_group, cell)
    rows = _flat_labels(labels, dims, _edge_order(cell))
    grids = _column_grids(g_group.order, cell.n_vertices)
    worst = 0.0
    for g in range(1, g_group.order):
        perm = np.ravel_multi_index(g_group.mult[g, grids], (g_group.order,) * cell.n_vertices)
        worst = max(worst, _pure_deviation(rows[perm], scale, rows, scale))
    return worst


def all_element_right_action_becomes_vertex_term(g_group: FiniteGroup, cell: Cellulation) -> float:
    labels, dims, scale = _pure_kw_g(g_group, cell)
    order = _edge_order(cell)
    rows = _flat_labels(labels, dims, order)
    grids = _column_grids(g_group.order, cell.n_vertices)
    d = g_group.order
    worst = 0.0
    for v in range(cell.n_vertices):
        tables = _vertex_tables(g_group, cell, v)
        for g in range(1, d):
            mapped = grids.copy()
            mapped[v] = g_group.mult[grids[v], g_group.inv[g]]
            perm = np.ravel_multi_index(mapped, (d,) * cell.n_vertices)
            moved = dict(labels)
            for e, table in tables:
                moved[_edge_site(e)] = table[g][moved[_edge_site(e)]]
            worst = max(worst, _pure_deviation(rows[perm], scale, _flat_labels(moved, dims, order), scale))
    return worst


def all_element_quotient_symmetry_survives(fs: FactorSystem, cell: Cellulation) -> float:
    labels, dims, scale = _pure_kw_n(fs, cell)
    order = _split_row_order(cell)
    rows = _flat_labels(labels, dims, order)
    parent, q_grp = fs.parent, fs.q_group
    grids = _column_grids(parent.order, cell.n_vertices)
    worst = 0.0
    for g in range(1, parent.order):
        perm = np.ravel_multi_index(parent.mult[g, grids], (parent.order,) * cell.n_vertices)
        shifted = dict(labels)
        for v in range(cell.n_vertices):
            shifted[("q", v)] = q_grp.mult[fs.proj[g], labels[("q", v)]]
        worst = max(worst, _pure_deviation(rows[perm], scale, _flat_labels(shifted, dims, order), scale))
    return worst


def all_element_pair_identity(entangler, inner: str, outer: str) -> Callable[[FiniteGroup, Cellulation], float]:
    """E+ (X (x) Y) E = X' (x) Y' checked on every g != e, with verify's
    spelling: L is left_mult(g), R is right_mult(g), 1 the identity."""

    def check(g_group: FiniteGroup, cell: Cellulation) -> float:
        d = g_group.order
        a, b = _joint2(d, d)
        op = entangler(g_group, "a", "b")
        ent, ent_inv = op.image, op.dagger().image
        worst = 0.0
        for g in range(1, d):
            images = {"L": left_mult(g_group, g, "x").image, "R": right_mult(g_group, g, "x").image}

            def pair(spelling: str) -> np.ndarray:
                x, y = (labels if f == "1" else images[f][labels] for f, labels in zip(spelling, (a, b)))
                return x * d + y

            worst = max(worst, _conjugation_deviation(ent_inv[pair(inner)[ent]], pair(outer)))
        return worst

    return check


# every identity of verify that is indexed by a group element, as a loop over
# the whole group: the reference for verify's loop over a generating set
ALL_ELEMENT_GROUP_IDENTITIES: Dict[str, Callable[[FiniteGroup, Cellulation], float]] = {
    "left_action_gauged_away": all_element_left_action_gauged_away,
    "right_action_becomes_vertex_term": all_element_right_action_becomes_vertex_term,
    "cl_absorbs_left_multiplication": all_element_pair_identity(controlled_left, "LL", "L1"),
    "cr_absorbs_left_multiplication": all_element_pair_identity(controlled_right, "LR", "L1"),
    "cl_spreads_right_multiplication": all_element_pair_identity(controlled_left, "R1", "RL"),
    "cr_spreads_right_multiplication": all_element_pair_identity(controlled_right, "R1", "RR"),
}
ALL_ELEMENT_SYSTEM_IDENTITIES: Dict[str, Callable[[FactorSystem, Cellulation], float]] = {
    "quotient_symmetry_survives": all_element_quotient_symmetry_survives,
}


# ---------------------------------------------------------------------------
# the symmetry probe over every element


def all_element_require_symmetric(
    reg: QuditRegister, subject, sites: Sequence[Sequence[Hashable]], what: str
) -> None:
    """kwmaps._require_symmetric probing every g != e in order, naming the
    first one that moves the input; kwmaps accepts on a generating set when
    the Cayley-graph bound allows and must decide, and word, the same."""
    table = _probe_table(subject)
    vertices = [[reg.pos(s) for s in t] for t in sites]
    for t, axes in zip(sites, vertices):
        if int(np.prod([reg.dims[a] for a in axes])) != subject.order:
            raise ValueError(f"{what}: vertex sites {t} do not carry the joint basis of the symmetry")
    for g in range(1, subject.order):
        if reg.probe_residual(vertices, table[g]) > STATE_TOL:
            raise ValueError(
                f"{what}: input is not invariant under the global left action "
                f"(element {g} moves it); the residual charge obstructs outcome repair"
            )


# ---------------------------------------------------------------------------
# identities one table or one column at a time


def per_op_plaquette_loops_carry_irrep_dimension(g_group: FiniteGroup, cell: Cellulation) -> float:
    """verify's plaquette-loop identity with every loop diagonal built on its
    own by loop_z, one per (irrep, plaquette); verify reads the loops of the
    stabilizer report's tables and must give the same bits."""
    if not cell.plaquettes:
        raise ValueError("needs a cellulation with plaquettes")
    table = irrep_table(g_group)
    labels, dims, scale = _pure_kw_g(g_group, cell)
    worst = 0.0
    for irrep in table.irreps:
        for p in range(cell.n_plaquettes):
            op = loop_z(irrep, cell.plaquettes[p], cell)
            traces = op.diag[_flat_labels(labels, dims, op.targets)]
            worst = max(worst, scale * float(np.abs(traces - irrep.dim).max()))
    return worst


def column_wall_sweep(fs: FactorSystem, cell: Cellulation) -> float:
    """verify's decorated-wall push-through deviation one column at a time:
    per edge, the plus vector dressed by its CZ walls, Omega-moved on the
    left side, one outer product per side, and the cocycle phase as a
    complex scalar. verify runs the same products on blocks of columns and
    must give the same bits."""
    n_grp, q_grp = fs.n_group, fs.q_group
    dn, dq = n_grp.order, q_grp.order
    chi = character_table(n_grp)
    cz = cz_abelian(n_grp, "p", "e").diag.reshape(dn, dn)
    omega_images = omega_gate(fs, "qi", "e", "qf").image.reshape(dq, dn, dq)
    pairs = [cell.plaquette_pair(e) for e in range(cell.n_edges)]
    edge_scale = dn**-0.5
    worst = 0.0
    for qs in itertools.product(range(dq), repeat=cell.n_vertices):
        for bs in itertools.product(range(dn), repeat=cell.n_plaquettes):
            lhs = rhs = np.ones(1, dtype=np.complex128)
            rhs_phase = 1.0 + 0.0j
            for e, (i_v, f_v) in enumerate(cell.edges):
                p_minus, p_plus = pairs[e]
                vec = np.full(dn, edge_scale, dtype=np.complex128)
                if p_minus != p_plus:
                    vec = vec * cz[bs[p_plus]] * np.conj(cz[bs[p_minus]])
                qi, qf = qs[i_v], qs[f_v]
                moved = np.empty_like(vec)
                moved[(omega_images[qi, :, qf] // dq) % dn] = vec
                lhs = np.multiply.outer(lhs, moved).reshape(-1)
                rhs = np.multiply.outer(rhs, vec).reshape(-1)
                wall = n_grp.mul(n_grp.inverse(bs[p_plus]), bs[p_minus])
                rhs_phase *= chi[fs.omega_inv(qi, q_grp.mul(q_grp.inverse(qi), qf)), wall]
            worst = max(worst, float(np.abs(lhs - rhs_phase * rhs).max()))
    return worst


# ---------------------------------------------------------------------------
# isomorphism testing and the central quotient


def central_quotient(g: FiniteGroup) -> FiniteGroup:
    q, _, _ = quotient_group(g, center(g))
    return q


def loop_permutation_table(perms: Sequence[tuple]) -> np.ndarray:
    """mult[i, j] of the sorted distinct tuples under (p*q)(i) = p[q[i]],
    each product composed and looked up on its own."""
    elems = sorted(set(tuple(p) for p in perms))
    index = {p: i for i, p in enumerate(elems)}
    table = np.empty((len(elems), len(elems)), dtype=np.int64)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[i, j] = index[tuple(p[q[k]] for k in range(len(p)))]
    return table


def is_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    """Backtracking generator-image search; fine for order <= 64."""
    if g1.order != g2.order:
        return False
    orders1 = sorted(g1.element_order(a) for a in g1.elements())
    orders2 = sorted(g2.element_order(a) for a in g2.elements())
    if orders1 != orders2:
        return False
    gens = _generating_set(g1)
    by_order: Dict[int, List[int]] = {}
    for a in g2.elements():
        by_order.setdefault(g2.element_order(a), []).append(a)

    def words(limit_gens: List[int]) -> Dict[int, List[int]]:
        """Every g1 element as a word (list of generator positions)."""
        table: Dict[int, List[int]] = {0: []}
        frontier = [0]
        while frontier:
            x = frontier.pop(0)
            for pos, s in enumerate(limit_gens):
                y = g1.mul(x, s)
                if y not in table:
                    table[y] = table[x] + [pos]
                    frontier.append(y)
        return table

    word_table = words(gens)
    if len(word_table) != g1.order:
        raise RuntimeError("generating set does not generate")

    def image_of(word: List[int], images: List[int]) -> int:
        x = 0
        for pos in word:
            x = g2.mul(x, images[pos])
        return x

    def assign(k: int, images: List[int]) -> bool:
        if k == len(gens):
            mapping = {a: image_of(w, images) for a, w in word_table.items()}
            if len(set(mapping.values())) != g1.order:
                return False
            return all(
                mapping[g1.mul(a, b)] == g2.mul(mapping[a], mapping[b])
                for a in g1.elements()
                for b in g1.elements()
            )
        for cand in by_order[g1.element_order(gens[k])]:
            if assign(k + 1, images + [cand]):
                return True
        return False

    return assign(0, [])


# ---------------------------------------------------------------------------
# queries only the tests ask


def walk_sign(cell: Cellulation, p: int, e: int) -> int:
    """Orientation with which plaquette p's boundary walk traverses edge e;
    ambiguous, and rejected, when the walk traverses e twice."""
    hits = [o for ee, o in cell.plaquettes[p] if ee == e]
    if not hits:
        raise KeyError(f"edge {e} is not on plaquette {p}")
    if len(hits) > 1:
        raise ValueError(f"edge {e} appears {len(hits)} times on plaquette {p}")
    return hits[0]


def nontrivial(s: SyndromeSet) -> Dict[int, int]:
    """The sites of a syndrome with a nontrivial outcome."""
    return {site: c for site, c in s.outcomes.items() if c != 0}


def conjugacy_classes(g: FiniteGroup) -> List[tuple]:
    """The conjugacy classes of g, each sorted, in order of their least member."""
    seen = set()
    classes = []
    for a in range(g.order):
        if a in seen:
            continue
        orbit = sorted({g.conjugate(x, a) for x in range(g.order)})
        seen.update(orbit)
        classes.append(tuple(orbit))
    return classes


def is_trivial(fs: FactorSystem) -> bool:
    """A factor system of a direct product: zero cocycle, identity action."""
    return bool(np.all(fs.omega == 0)) and all(
        np.array_equal(fs.sigma[q], np.arange(fs.n_group.order)) for q in fs.q_group.elements()
    )


def irrep_by_label(table: IrrepTable, label: str) -> Irrep:
    for ir in table.irreps:
        if ir.label == label:
            return ir
    raise KeyError(label)
