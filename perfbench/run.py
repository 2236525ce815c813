"""Certifier benchmark for gaugekit.

Drives the public entry points ``cli.cmd_prepare``/``cli.cmd_verify``
in-process: one process, one client in a closed loop (the next op starts when
the previous one has been serialised and checked), ``workers=1``, no extra
threads. BLAS is pinned to one thread before numpy loads; on a 2-core machine
the default OpenBLAS pool burned about 1.75 CPU-s per wall-s on
``prepare_seeds`` with no wall-time gain. The workloads, the reason for each
and the predictions later changes are judged against are in
``workloads.py``.

Run from the repository root::

    python3 perfbench/run.py --workload prepare_seeds --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 1   # every workload, one table
    python3 perfbench/run.py --workload dense_abelian --ops 4        # fast mode: 4 ops per phase

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics:

- ``setup_s``: process start until the first timed op can start (imports,
  ``groups.catalog()`` and one warm-up op), the median of nine fresh
  processes.
- ``ops_per_s``: ops completed per second of op time.
- ``op_ms_p50``/``op_ms_p90``: median and 90th-percentile op time,
  Harrell-Davis estimates; a timed run has at least 100 ops and ends on a
  whole rotation of the workload's op kinds.
- ``ok_fraction``: ops whose every check passed, over ops attempted; this is
  1 - failed_fraction, kept nonzero so a relative bound applies.
- ``peak_rss_mb``: peak resident memory of the benchmark process.

Times are scaled to reference speed (``speed.py``): a fixed reference kernel
runs before the first op and after each, and each op's wall time is scaled
by the kernel's nominal time over its mean time on both sides; each set-up
probe process runs the kernel itself right after its set-up. The machine the
benchmark was defined on changes speed by up to 1.8x for stretches of
seconds to minutes; the scaling takes most of that out of the figures. The
unscaled wall-time figures are printed and recorded too (``wall``).

``--trace 1`` runs the same op sequence untraced for half the time, then
traced for the other half, and reports the per-layer metrics of ``tracer.py``
per op of the traced half, ``verify.identity.skipped_ratio`` and
``trace.overhead_ratio`` (untraced over traced ops per second, both
scaled). Every op's report SHA-256 is recorded; the traced half must
reproduce the untraced hashes. Results, hashes, failure kinds and the environment go to
``perfbench/out/``; the spans of a traced run go there too.

An op fails if it raises, exits non-zero, or misses an acceptance-suite
threshold (see ``workloads.check``). The one-shot D4 nil2 ops on the torus
fail at fidelity exactly 1/4 (acceptance criterion 2) and are counted as
failed; ``correct`` turns false only for a failure other than that one, or
for a report hash that tracing changed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9
SETUP_REF_REPEATS = 7  # a fresh process runs the reference on cold caches
MIN_OPS = 100  # so that at least ten samples lie above the 90th percentile
PHASE_LIMIT_S = 120.0  # measured seconds per run, so that a run ends well within 180 s


def bootstrap() -> None:
    """Pin BLAS to one thread and put the checkout's ``src`` first on the path;
    must run before numpy or gaugekit is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Phase:
    """The timed ops of one phase, in op-index order."""

    latencies: List[float] = field(default_factory=list)
    refs: List[float] = field(default_factory=list)  # reference kernel before the first op and after each
    hashes: List[str] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    unexpected: List[str] = field(default_factory=list)
    failed: int = 0
    skipped_rows: int = 0
    rows: int = 0
    elapsed: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def scaled(self) -> List[float]:
        import speed

        return speed.scaled(self.latencies, self.refs)


def run_phase(
    workload, seed: int, seconds: float, max_ops: Optional[int], min_ops: int,
    limit_s: float = PHASE_LIMIT_S, tracer=None, check=None,
) -> Phase:
    """Closed loop over the workload's ops from index 0.

    Stops after ``max_ops`` ops when given; otherwise at the first whole
    rotation once ``seconds`` have passed and ``min_ops`` ops are done, or at
    ``limit_s`` even mid-rotation. ``check`` replaces ``workloads.check`` in
    tests.
    """
    import speed
    import workloads

    check = check or workloads.check
    phase = Phase()
    start = time.perf_counter()
    phase.refs.append(speed.reference())
    i = 0
    while True:
        config = workload.op(seed, i)
        if tracer is not None:
            tracer.op = i
        payload = None
        t0 = time.perf_counter()
        try:
            payload, code, report = workloads.execute(config)
            kinds = check(config, payload, code)
            digest = hashlib.sha256(report).hexdigest()
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            kinds, digest = [f"raised:{type(exc).__name__}"], ""
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        phase.latencies.append(t1 - t0)
        phase.refs.append(speed.reference())
        phase.hashes.append(digest)
        if kinds:
            phase.failed += 1
            phase.failures.update(kinds)
            if payload is None or not workloads.is_known_defect(config, payload, kinds):
                phase.unexpected.append(f"op {i} {config}: {kinds}")
        if payload is not None:
            skipped, rows = workloads.skipped_rows(payload)
            phase.skipped_rows += skipped
            phase.rows += rows
        i += 1
        phase.elapsed = t1 - start
        if max_ops is not None:
            if i >= max_ops:
                return phase
        elif phase.elapsed >= limit_s or (
            i % workload.period == 0 and phase.elapsed >= seconds and i >= min_ops
        ):
            return phase


def setup(name: str):
    """Everything a timed op needs first: the imports (which build the lazy
    ``groups.catalog()``) and one warm-up op, the first op of workload seed 0,
    the same in every run."""
    import workloads

    workload = workloads.WORKLOADS[name]
    workloads.execute(workload.op(0, 0))
    return workload


def probe_setup(name: str, seed: int) -> Tuple[List[float], List[float]]:
    """Wall time from spawning a fresh benchmark process until its set-up is
    done, once per probe, and the reference kernel's time that each probe
    process measures right after its set-up, on the core and caches it ran
    on; each probe exits right after reporting."""
    times, refs = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            ref = proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
        refs.append(float(ref))
    return times, refs


def latency_metrics(phase: Phase, wall: bool = False) -> Dict[str, Dict[str, object]]:
    """The op-time metrics of one phase, scaled to reference speed unless
    ``wall``."""
    from speed import hd_quantile

    lat = phase.latencies if wall else phase.scaled
    return {
        "ops_per_s": {"value": phase.ops / sum(lat), "unit": "1/s"},
        "op_ms_p50": {"value": 1e3 * hd_quantile(lat, 0.5), "unit": "ms"},
        "op_ms_p90": {"value": 1e3 * hd_quantile(lat, 0.9), "unit": "ms"},
        "ok_fraction": {"value": (phase.ops - phase.failed) / phase.ops, "unit": "ratio"},
    }


def _blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (no .git in this checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def environment() -> Dict[str, object]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def _print_table(metrics: Dict[str, Dict[str, object]]) -> None:
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")


def measure(args) -> Dict[str, object]:
    """One workload run; prints the human summary and returns the result."""
    workload = setup(args.workload)
    OUT.mkdir(exist_ok=True)
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env, sort_keys=True)}")
    record: Dict[str, object] = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    if not args.trace:
        import speed

        setup_times, setup_refs = probe_setup(args.workload, args.seed)
        phase = run_phase(workload, args.seed, args.seconds, args.ops, 0 if args.ops else MIN_OPS)
        phases = [phase]
        setup_scaled = [t * speed.REF_NOMINAL_S / ref for t, ref in zip(setup_times, setup_refs)]
        metrics = {"setup_s": {"value": statistics.median(setup_scaled), "unit": "s"}}
        metrics.update(latency_metrics(phase))
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
        wall = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"}}
        wall.update(latency_metrics(phase, wall=True))
        record.update({"setup_probes_s": setup_times, "setup_refs_s": setup_refs, "wall": wall})
        print("unscaled wall-time figures:")
        _print_table(wall)
        hashes_agree = True
    else:
        from tracer import Tracer

        half = (args.seconds / 2, args.ops, 0, PHASE_LIMIT_S / 2)
        plain = run_phase(workload, args.seed, *half)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, args.seed, *half, tracer=tracer)
        finally:
            tracer.uninstall()
        phases = [plain, traced]
        common = min(plain.ops, traced.ops)
        hashes_agree = plain.hashes[:common] == traced.hashes[:common]
        print(f"report hashes, traced against untraced: {'identical' if hashes_agree else 'DIFFERENT'} on {common} ops")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics(traced.ops).items()}
        metrics["verify.identity.skipped_ratio"] = {
            "value": traced.skipped_rows / traced.rows if traced.rows else 0.0,
            "unit": "ratio",
        }
        record["untraced"] = latency_metrics(plain)
        record["traced"] = latency_metrics(traced)
        metrics["trace.overhead_ratio"] = {
            "value": record["untraced"]["ops_per_s"]["value"] / record["traced"]["ops_per_s"]["value"],
            "unit": "ratio",
        }
        tracer.write(str(OUT / f"trace-{args.workload}-s{args.seed}.jsonl.gz"))
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    failures = sum((p.failures for p in phases), Counter())
    unexpected = [u for p in phases for u in p.unexpected]
    rotation = phases[0].hashes[: workload.period]
    digest = hashlib.sha256("".join(rotation).encode()).hexdigest()
    print(f"ops attempted={attempted} failed={failed} failed_fraction={failed / attempted:.4f} "
          f"failures by kind={dict(sorted(failures.items()))}; percentiles over {phases[-1].ops} op times")
    print(f"report digest of the first {len(rotation)} ops: {digest}")
    for line in unexpected:
        print(f"unexpected failure: {line}")
    _print_table(metrics)
    record.update(
        {
            "metrics": metrics,
            "attempted": attempted,
            "failed": failed,
            "failed_fraction": failed / attempted,
            "failures_by_kind": dict(failures),
            "unexpected_failures": unexpected,
            "first_rotation_digest": digest,
            "report_sha256": phases[0].hashes,
            "latencies_s": phases[-1].latencies,
            "reference_s": phases[-1].refs,
        }
    )
    with open(OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return {"correct": not unexpected and hashes_agree, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args, names: List[str]) -> int:
    """Every workload in its own process, one after another, as one table."""
    code = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops:
            cmd += ["--ops", str(args.ops)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            code = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        _print_table(result["metrics"])
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name from workloads.py, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None, help="fast mode: run exactly this many ops per phase")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "gaugekit" / "__init__.py").is_file():
        print(f"perfbench: no gaugekit package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds < 1 or (args.ops is not None and args.ops < 2):
        parser.error("--seconds must be positive and --ops at least 2 (a percentile needs two samples)")
    bootstrap()
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        import speed

        setup(args.workload)
        print("ready", flush=True)
        print(speed.reference(SETUP_REF_REPEATS))
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
