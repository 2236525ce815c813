"""End-to-end acceptance gates, one test per criterion at its stated tolerance.

Each test records a summary line (printed after the run) and then asserts.
Criterion 2 scores the one-shot central-extension run against the ground
state that protocol prepares. On a genus-1 surface the D(G) ground space is
degenerate: the quotient is gauged through vertex ancillas, so the output
has trivial Q-holonomy, but the central subgroup N is gauged through
plaquette ancillas, which spreads the state uniformly over the |N|^2 = 4
N-holonomy classes around the torus's two cycles. The reference is therefore
the enumerated trivial-holonomy double averaged over flat central edge
shifts; it overlaps the trivial-holonomy double at exactly 1/4, and that
overlap is asserted so the clause cannot pass against a collapsed reference.
"""

import itertools
import json
import time

import numpy as np
import pytest

from gaugekit.cellulation import hexagon_torus, square_torus, two_vertex_graph
from gaugekit.cli import main
from gaugekit.gates import left_mult
from gaugekit.groups import (
    FactorSystem,
    catalog,
    catalog_factor_system,
    center,
    derived_length,
    derived_series,
    extension_from_factor_system,
    factor_system_of,
    perfect_core,
)
from gaugekit.kwmaps import KwMode, kw_exact_g
from gaugekit.protocols import (
    gauge_input_state,
    prepare_abelian_double,
    prepare_nil2_double,
    prepare_solvable_double,
)
from gaugekit.register import SiteSpec, init_plus
from gaugekit.verify import (
    commuting_pair_classes,
    ground_state_degeneracy,
    identity_suite,
    stabilizer_report,
)
from reference import charge_syndromes, dense_projector_rank, flux_syndromes, is_isomorphic, oracle_double_state

CAT = catalog()


def standard_systems():
    systems = {name: catalog_factor_system(name) for name in ["S3", "D4", "Q8"]}
    systems["S4/V4"] = factor_system_of(CAT["S4"], derived_series(CAT["S4"])[0][-2])
    systems["A4/V4"] = factor_system_of(CAT["A4"], derived_series(CAT["A4"])[0][-2])
    return systems


def symmetrized_random(rng, group, cell):
    reg = init_plus([SiteSpec(("v", v), "vertex", group) for v in range(cell.n_vertices)])
    raw = rng.normal(size=reg.dims) + 1j * rng.normal(size=reg.dims)
    acc = np.zeros_like(raw)
    for g in range(group.order):
        shifted = raw
        for axis in range(cell.n_vertices):
            shifted = np.take(shifted, group.mult[g], axis=axis)
        acc = acc + shifted
    norm = np.linalg.norm(acc)
    assert norm > 1e-12
    reg.amps = acc / norm
    return reg


def central_shift_reference(fs, cell):
    """Trivial-holonomy double averaged over flat central edge shifts.

    Sums prod_e L^{embed(a_e)} over the oracle for every N-labelling a whose
    signed product around each plaquette walk is the identity, then
    normalizes. Built from the enumeration oracle, left multiplications and
    the cellulation only, never from protocol code.
    """
    ng = fs.n_group
    oracle = oracle_double_state(fs.parent, cell)
    acc = np.zeros_like(oracle.amps)
    for labels in itertools.product(ng.elements(), repeat=cell.n_edges):
        flat = True
        for walk in cell.plaquettes:
            holonomy = 0
            for e, o in walk:
                holonomy = ng.mul(holonomy, labels[e] if o == 1 else ng.inverse(labels[e]))
            flat = flat and holonomy == 0
        if not flat:
            continue
        shifted = oracle.copy()
        for e, a in enumerate(labels):
            shifted.apply(left_mult(fs.parent, int(fs.embed[a]), ("e", e)))
        acc += shifted.amps
    ref = oracle.copy()
    ref.amps = acc / np.linalg.norm(acc)
    return ref, oracle


def test_criterion_1_toric_code_one_shot(criterion_log):
    cell = square_torus(2, 2)
    oracle = oracle_double_state(CAT["Z2"], cell)
    start = time.monotonic()
    worst_exp, worst_fid = 1.0, 1.0
    for seed in range(20):
        tr = prepare_abelian_double(CAT["Z2"], cell, KwMode.sample(seed), with_oracle=False)
        assert tr.shots == 1
        report = stabilizer_report(tr.register, CAT["Z2"], cell)
        assert len(report.vertex_expectations) + len(report.plaquette_expectations) == 8
        worst_exp = min(worst_exp, report.min_expectation())
        worst_fid = min(worst_fid, tr.register.fidelity(oracle))
    elapsed = time.monotonic() - start
    ok = worst_exp >= 1 - 1e-9 and worst_fid >= 1 - 1e-9 and elapsed < 1.0
    criterion_log(
        1,
        ok,
        f"toric code Z2 on square_torus(2,2), 20 seeds, shots=1: min stabilizer "
        f"{worst_exp:.12f}, min fidelity {worst_fid:.12f}, {elapsed:.2f}s (< 1s)",
    )
    assert worst_exp >= 1 - 1e-9
    assert worst_fid >= 1 - 1e-9
    assert elapsed < 1.0


def test_criterion_2_one_shot_nonabelian(criterion_log):
    cell = hexagon_torus()
    start = time.monotonic()
    syndromes_ok = True
    min_fid, oracle_fid = 1.0, 1.0
    for label in ["D4", "Q8"]:
        fs = catalog_factor_system(label)
        ref, oracle = central_shift_reference(fs, cell)
        # four N-holonomy classes on the torus, one of them the oracle's
        assert ref.fidelity(oracle) == pytest.approx(0.25, abs=1e-12)
        for seed in range(20):
            raw = prepare_nil2_double(fs, cell, KwMode.sample(seed), with_oracle=False, feedforward=False)
            assert raw.shots == 1
            outs = raw.rounds[0].outcomes
            charges = charge_syndromes(raw.register, fs.q_group, cell, edge_of=lambda e: ("e", e, "q"))
            fluxes = flux_syndromes(raw.register, fs.n_group, cell, edge_of=lambda e: ("e", e, "n"))
            syndromes_ok = syndromes_ok and charges == outs["charge"] and fluxes == outs["flux"]
            tr = prepare_nil2_double(fs, cell, KwMode.sample(seed))
            min_fid = min(min_fid, tr.register.fidelity(ref))
            oracle_fid = min(oracle_fid, tr.fidelity_vs_oracle)
    elapsed = time.monotonic() - start
    ok = syndromes_ok and min_fid >= 1 - 1e-9 and elapsed < 5.0
    criterion_log(
        2,
        ok,
        f"one-shot D4/Q8 on hexagon_torus, 20 seeds each: pre-correction syndromes match "
        f"outcomes: {syndromes_ok}; post-correction min fidelity {min_fid:.12f} against the "
        f"central-shift-averaged double (needs >= 1-1e-9), {oracle_fid:.6f} against the "
        f"trivial-holonomy double, {elapsed:.2f}s (< 5s)",
    )
    assert syndromes_ok
    assert elapsed < 5.0
    assert min_fid >= 1 - 1e-9, (
        f"single-round preparation on the torus reaches fidelity {min_fid} against the "
        "double averaged over flat central edge shifts; every seed should land on that "
        "ground state deterministically"
    )


def test_criterion_3_multi_shot_solvable(criterion_log):
    cell = hexagon_torus()
    start = time.monotonic()
    s3_fids, s4_fids = [], []
    for seed in range(5):
        tr3 = prepare_solvable_double(CAT["S3"], cell, KwMode.sample(seed))
        assert tr3.shots == 2
        s3_fids.append(tr3.fidelity_vs_oracle)
        tr4 = prepare_solvable_double(CAT["S4"], cell, KwMode.sample(seed))
        assert tr4.shots == 3
        s4_fids.append(tr4.fidelity_vs_oracle)
    elapsed = time.monotonic() - start
    ok = min(s3_fids) >= 1 - 1e-9 and min(s4_fids) >= 1 - 1e-8 and elapsed < 60.0
    criterion_log(
        3,
        ok,
        f"S3 two-shot min fidelity {min(s3_fids):.12f}, S4 three-shot min fidelity "
        f"{min(s4_fids):.12f} on hexagon_torus, 5 seeds each, {elapsed:.2f}s (< 60s)",
    )
    assert min(s3_fids) >= 1 - 1e-9
    assert min(s4_fids) >= 1 - 1e-8
    assert elapsed < 60.0


def test_criterion_4_identity_suite(criterion_log):
    start = time.monotonic()
    systems = standard_systems()
    checked, skipped, max_dev = 0, 0, 0.0
    for cell in [two_vertex_graph(2), hexagon_torus()]:
        for row in identity_suite(cell, groups=CAT, systems=systems):
            if "deviation" in row:
                checked += 1
                max_dev = max(max_dev, row["deviation"])
            else:
                skipped += 1
    elapsed = time.monotonic() - start
    ok = max_dev <= 1e-10 and elapsed < 30.0
    criterion_log(
        4,
        ok,
        f"identity suite on two_vertex_graph and hexagon_torus, all catalog groups: "
        f"{checked} checks, max deviation {max_dev:.2e} (<= 1e-10), {skipped} "
        f"structurally inapplicable combinations skipped, {elapsed:.1f}s (< 30s)",
    )
    assert max_dev <= 1e-10
    assert elapsed < 30.0


def test_criterion_5_gauging_symmetric_inputs(criterion_log):
    cell = hexagon_torus()
    start = time.monotonic()
    min_fid = 1.0
    n_runs = 0
    for name in sorted(CAT):
        group = CAT[name]
        if name == "A5":
            with pytest.raises(ValueError, match="perfect core"):
                gauge_input_state(
                    init_plus([SiteSpec(("v", v), "vertex", group) for v in range(cell.n_vertices)]),
                    group,
                    cell,
                    KwMode.postselect(),
                )
            continue
        rng = np.random.default_rng(hash(name) % 2**32)
        for k in range(50):
            reg = symmetrized_random(rng, group, cell)
            tr = gauge_input_state(reg, group, cell, KwMode.sample(1000 + k))
            min_fid = min(min_fid, tr.fidelity_vs_oracle)
            n_runs += 1
    elapsed = time.monotonic() - start
    ok = min_fid >= 1 - 1e-9
    criterion_log(
        5,
        ok,
        f"gauge_input_state on 50 random symmetrized inputs per solvable catalog group "
        f"({n_runs} sampled branches): min fidelity {min_fid:.12f} (>= 1-1e-9); "
        f"A5 rejected naming its perfect core, {elapsed:.1f}s",
    )
    assert min_fid >= 1 - 1e-9


def test_criterion_6_ground_state_degeneracy(criterion_log):
    cell = hexagon_torus()
    expected = {"Z2": 4, "Z3": 9, "S3": 8, "D4": 22}
    got = {}
    for name, want in expected.items():
        projector = dense_projector_rank(CAT[name], cell)
        classes = commuting_pair_classes(CAT[name])
        orbits = ground_state_degeneracy(CAT[name], cell)
        got[name] = (projector, classes, orbits)
    ok = all(got[name] == (want, want, want) for name, want in expected.items())
    criterion_log(
        6,
        ok,
        "torus degeneracy, projector rank == commuting-pair classes == flat-labelling gauge orbits: "
        + ", ".join(f"{name}={got[name][0]} (orbits {got[name][2]})" for name in expected),
    )
    for name, want in expected.items():
        assert got[name][:2] == (want, want)
        assert got[name][2] == want


def test_criterion_7_group_suite(criterion_log):
    # factor-system round trips over every structurally available normal
    # subgroup (derived-series members and centers) plus the shipped systems
    pairs = 0
    for name, group in CAT.items():
        if name == "A5":
            continue
        subs = {}
        chain, _ = derived_series(group)
        for sub in chain[1:-1]:
            subs[tuple(sub.members)] = sub
        z = center(group)
        if 1 < z.order < group.order:
            subs[tuple(z.members)] = z
        for sub in subs.values():
            fs = factor_system_of(group, sub)
            fresh = FactorSystem(
                n_group=fs.n_group, q_group=fs.q_group, sigma=fs.sigma.copy(), omega=fs.omega.copy()
            )
            rebuilt = extension_from_factor_system(fresh)
            assert is_isomorphic(rebuilt, group), f"round trip failed for ({name}, N of order {sub.order})"
            pairs += 1
    for label in ["S3", "D4", "Q8"]:
        fs = catalog_factor_system(label)
        fresh = FactorSystem(
            n_group=fs.n_group, q_group=fs.q_group, sigma=fs.sigma.copy(), omega=fs.omega.copy()
        )
        assert is_isomorphic(extension_from_factor_system(fresh), CAT[label])
        pairs += 1
        ng, qg = fs.n_group, fs.q_group
        for q1 in qg.elements():
            for q2 in qg.elements():
                for q3 in qg.elements():
                    lhs = ng.mul(int(fs.sigma[q1, fs.omega[q2, q3]]), int(fs.omega[q1, qg.mul(q2, q3)]))
                    rhs = ng.mul(int(fs.omega[q1, q2]), int(fs.omega[qg.mul(q1, q2), q3]))
                    assert lhs == rhs
    # the trivial group's series is born terminated: length 0
    lengths = {name: derived_length(CAT[name]) for name in CAT}
    expected = {"Z1": 0, "Z2": 1, "Z3": 1, "Z4": 1, "Z6": 1, "Z2xZ2": 1,
                "S3": 2, "D4": 2, "Q8": 2, "A4": 2, "S4": 3, "A5": None}
    core = perfect_core(CAT["A5"])
    ok = lengths == expected and core.order == 60
    criterion_log(
        7,
        ok,
        f"{pairs} factor-system round trips isomorphic, cocycle condition exact, "
        f"derived lengths as expected, A5 non-solvable with perfect core of order {core.order}",
    )
    assert lengths == expected
    assert core.order == 60


def test_criterion_8_cli_determinism(criterion_log, tmp_path):
    base = ["prepare", "--group", "D4", "--cell", "hexagon", "--protocol", "nil2",
            "--mode", "sample:0", "--seeds", "6"]
    paths = [tmp_path / f"run{k}.json" for k in range(3)]
    assert main(base + ["--workers", "1", "-o", str(paths[0])]) == 0
    assert main(base + ["--workers", "4", "-o", str(paths[1])]) == 0
    assert main(base + ["--workers", "4", "-o", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2]
    criterion_log(
        8,
        ok,
        "CLI reports byte-identical across repeated runs and worker counts 1 and 4 "
        f"({len(blobs[0])} bytes, 6 seeds)",
    )
    assert blobs[0] == blobs[1] == blobs[2]
    doc = json.loads(blobs[0])
    assert [run["seed"] for run in doc["runs"]] == list(range(6))
