"""Workloads of the certifier benchmark, how one op runs, and how it is checked.

One op is one ``cli.cmd_prepare`` or ``cli.cmd_verify`` call, the report
serialised exactly as ``cli._emit`` writes it, the SHA-256 of those bytes and
the output checks below. The workload seed is a benchmark argument; the
program only ever sees the ``RunConfig`` built from it. Ops run in a closed
loop: one process, one client, ``workers=1``, no extra threads, BLAS pinned
to one thread by ``run.py``.

Why each workload exists
------------------------

``prepare_seeds``
    ``cmd_prepare`` on ``hexagon`` with ``seeds=4``, stabilizers and oracle
    on, rotating S4/solvable, S3/metabelian, D4/nil2, D4/solvable. States
    are small (at most 62,208 amplitudes, about 1 MB, inside L2). The cost is
    per-seed fixed work rebuilt for every seed: ``_solvable_chain``, the
    spanning trees, gate tables, the ``_require_symmetric`` probes,
    ``stabilizer_report`` and about 240 tiny ``register.apply`` calls per S4
    seed. Compile-once and seed-batch work should show here; a sparse label
    backend should barely matter.

``dense_abelian``
    ``cmd_prepare`` with ``protocol=abelian``, one sampled seed, stabilizers
    and oracle on, alternating Z3 on ``square:2x2`` (peak 3^12 = 531,441
    amplitudes, 8.5 MB) and Z2 on ``square:3x2`` (2^18 = 262,144 amplitudes,
    4.2 MB). The register layer does few, large, bandwidth-bound
    ``moveaxis``/``reshape`` copies that exceed a 4 MiB per-core L2, where
    ``prepare_seeds`` makes it do many call-overhead-bound ones: a register
    change that trades per-call overhead for throughput wins on one and
    loses on the other. This is the sparse-backend target. The arrays fit in
    the L3 of the machine the benchmark was defined on (300 MiB reported),
    so this is not a DRAM-bandwidth measurement.

``certify_catalog``
    ``cmd_verify`` on ``hexagon``: the identity suite for all twelve catalog
    groups, then the degeneracy (gsd) suite for every catalog group whose
    edge space fits ``verify.GSD_DIM_BUDGET`` (all but S4 and A5). The
    protocols and the register are nearly idle; time goes to the
    ``gates.loop_z``/``loop_z_tilde`` table builds (D4/Q8 identities), the A5
    identity suite, and the dense projector plus ``eigvalsh`` (A4 gsd). The
    checks have no randomness, so the seed only permutes the order of the 22
    ops inside each rotation.

Predictions (cite by label)
---------------------------

Which end-to-end metric each per-layer metric should move, stated before any
optimisation is measured. Shares are cProfile on the seed code.

[P-register] ``register.apply.*``, ``register.copy_bytes``,
    ``register.peak_amplitudes``, ``step.entangle.ms`` and
    ``step.measure.ms`` move ``op_ms_p50``/``ops_per_s`` and
    ``peak_rss_mb`` on ``dense_abelian`` (register about 60% of op time);
    they move ``prepare_seeds`` only through the call count (about 30%)
    and leave ``certify_catalog`` unchanged.
[P-planning] ``groups.*``, ``cellulation.*``, ``step.symmetry_check.ms``
    and ``kwmaps.self_ms`` move ``ops_per_s`` on ``prepare_seeds``
    (``_solvable_chain`` about 12% and the symmetry probes about 15% of an
    S4 op) and leave the other two workloads unchanged.
[P-stabilizer] ``verify.stabilizer.ms`` moves ``ops_per_s`` on
    ``prepare_seeds`` (about 35-50%) and on ``dense_abelian`` (about 35%).
[P-loops] ``gates.loop.ms`` moves ``op_ms_p90`` on ``certify_catalog``
    (the D4/Q8 ops) and on ``prepare_seeds`` (the D4 nil2 ops, about 85%
    ``loop_z``); its share on ``dense_abelian`` is about 20%.
[P-certify] ``verify.gsd.ms`` and ``verify.identity.ms`` move
    ``ops_per_s`` and ``peak_rss_mb`` on ``certify_catalog`` only.
[P-cli] ``cli.self_ms`` (report JSON round trips) moves ``prepare_seeds``
    only.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

from gaugekit import cli
from gaugekit.cellulation import hexagon_torus
from gaugekit.groups import catalog
from gaugekit.verify import GSD_DIM_BUDGET

# The acceptance-suite thresholds, kept here rather than read from ``cli`` so
# that a change to the program's own tolerances cannot loosen these checks.
FIDELITY_TOL = 1e-9
STABILIZER_TOL = 1e-9
IDENTITY_TOL = 1e-10

# Acceptance criterion 2: a one-shot nil2 run on a torus prepares the flat
# state, whose overlap with the trivial-holonomy oracle is exactly 1/4. Those
# ops count as failed; only this exact signature is an expected failure.
KNOWN_TORUS_FIDELITY = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    period: int  # ops per rotation; timed runs stop only at whole rotations
    op: Callable[[int, int], cli.RunConfig]  # (seed, op index) -> config


def _sample_base(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


_SEED_CASES = (("S4", "solvable"), ("S3", "metabelian"), ("D4", "nil2"), ("D4", "solvable"))


def _prepare_seeds_op(seed: int, index: int) -> cli.RunConfig:
    group, protocol = _SEED_CASES[index % len(_SEED_CASES)]
    return cli.RunConfig(
        command="prepare",
        group=group,
        cell="hexagon",
        protocol=protocol,
        mode=f"sample:{_sample_base('prepare_seeds', seed, index)}",
        seeds=4,
    )


_DENSE_CASES = (("Z3", "square:2x2"), ("Z2", "square:3x2"))


def _dense_abelian_op(seed: int, index: int) -> cli.RunConfig:
    group, cell = _DENSE_CASES[index % len(_DENSE_CASES)]
    return cli.RunConfig(
        command="prepare",
        group=group,
        cell=cell,
        protocol="abelian",
        mode=f"sample:{_sample_base('dense_abelian', seed, index)}",
        seeds=1,
    )


@lru_cache(maxsize=None)
def _catalog_rotation(seed: int) -> Tuple[Tuple[str, str], ...]:
    n_edges = hexagon_torus().n_edges
    groups = catalog()
    cases = [("identities", name) for name in groups]
    cases += [("gsd", name) for name, g in groups.items() if g.order**n_edges <= GSD_DIM_BUDGET]
    random.Random(seed).shuffle(cases)
    return tuple(cases)


def _certify_catalog_op(seed: int, index: int) -> cli.RunConfig:
    cases = _catalog_rotation(seed)
    suite, group = cases[index % len(cases)]
    return cli.RunConfig(command="verify", group=group, cell="hexagon", suite=suite)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("prepare_seeds", len(_SEED_CASES), _prepare_seeds_op),
        Workload("dense_abelian", len(_DENSE_CASES), _dense_abelian_op),
        Workload("certify_catalog", len(_catalog_rotation(0)), _certify_catalog_op),
    )
}


def execute(config: cli.RunConfig) -> Tuple[Dict[str, object], int, bytes]:
    """Run one op through the public entry point; return the payload, the
    exit code and the report bytes exactly as ``cli._emit`` writes them."""
    command = cli.cmd_prepare if config.command == "prepare" else cli.cmd_verify
    payload, code = command(config)
    return payload, code, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _fidelity(run: Dict[str, object]) -> float:
    """A run's oracle fidelity; -1 when the report lacks it, which fails."""
    return run["transcript"].get("fidelity_vs_oracle", -1.0)


def check(config: cli.RunConfig, payload: Dict[str, object], code: int) -> List[str]:
    """Failure kinds of one op's output at the acceptance-suite thresholds;
    an empty list means every check passed."""
    kinds = []
    if code != 0:
        kinds.append("exit_code")
    if config.command == "prepare":
        runs = payload["runs"]
        if any(_fidelity(r) < 1 - FIDELITY_TOL for r in runs):
            kinds.append("fidelity")
        if any(r["min_stabilizer_expectation"] < 1 - STABILIZER_TOL for r in runs):
            kinds.append("stabilizer")
    elif config.suite == "identities":
        if payload["max_deviation"] > IDENTITY_TOL:
            kinds.append("identity")
    elif payload["gsd"]["projector_rank"] != payload["gsd"]["commuting_pair_classes"]:
        kinds.append("gsd")
    return kinds


def is_known_defect(config: cli.RunConfig, payload: Dict[str, object], kinds: List[str]) -> bool:
    """True when an op failed only as acceptance criterion 2 documents: a
    one-shot nil2 run on a torus cell at fidelity exactly 1/4."""
    torus = config.cell == "hexagon" or config.cell.startswith("square:")
    if kinds != ["fidelity"] or config.protocol != "nil2" or not torus:
        return False
    return all(
        abs(_fidelity(r) - KNOWN_TORUS_FIDELITY) <= FIDELITY_TOL
        for r in payload["runs"]
        if _fidelity(r) < 1 - FIDELITY_TOL
    )


def skipped_rows(payload: Dict[str, object]) -> Tuple[int, int]:
    """(skipped, attempted) identity rows of one report; (0, 0) for others."""
    rows = payload.get("rows", [])
    return sum(1 for row in rows if "skipped" in row), len(rows)
