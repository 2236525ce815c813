"""Self-check of the benchmark in fast mode (a handful of ops per workload).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.bootstrap()

import workloads  # noqa: E402  (needs the checkout's src on the path)
from gaugekit import cli, gates, kwmaps, protocols, verify  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FAST_OPS = 4


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _record(workload: str, seed: int, trace: int) -> dict:
    return json.loads((run.OUT / f"{workload}-s{seed}-t{trace}.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_fast_mode_reports_every_metric_with_its_unit(workload, trace):
    result = _result(_bench("--workload", workload, "--seed", "5", "--trace", str(trace), "--ops", str(FAST_OPS)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == FAST_OPS * (1 + trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_seed_code_fails_only_the_criterion_2_ops():
    result = _result(_bench("--workload", "prepare_seeds", "--seed", "2", "--ops", "8"))
    assert result["failed"] == 2 and result["correct"] is True
    assert result["metrics"]["ok_fraction"]["value"] == 0.75
    assert _record("prepare_seeds", 2, 0)["failures_by_kind"] == {"fidelity": 2}


def test_report_hashes_repeat_across_runs_and_tracing():
    args = ("--workload", "dense_abelian", "--seed", "7", "--ops", str(FAST_OPS))
    _result(_bench(*args))
    first = _record("dense_abelian", 7, 0)["report_sha256"]
    _result(_bench(*args))
    assert _record("dense_abelian", 7, 0)["report_sha256"] == first
    traced = _result(_bench(*args, "--trace", "1"))
    assert traced["correct"] is True
    assert _record("dense_abelian", 7, 1)["report_sha256"] == first
    assert len(set(first)) == FAST_OPS


def test_a_failing_check_is_counted():
    workload = workloads.WORKLOADS["certify_catalog"]
    phase = run.run_phase(workload, 0, 0, 3, 0, check=lambda config, payload, code: ["injected"])
    assert phase.failed == 3 and phase.failures == {"injected": 3}
    assert len(phase.unexpected) == 3
    assert run.latency_metrics(phase)["ok_fraction"]["value"] == 0.0


def test_times_scale_with_the_reference_kernel():
    phase = run.run_phase(workloads.WORKLOADS["dense_abelian"], 0, 0, 3, 0)
    assert len(phase.refs) == phase.ops + 1 and all(r > 0 for r in phase.refs)
    assert speed.scaled([2.0, 4.0], [2 * speed.REF_NOMINAL_S] * 3) == [1.0, 2.0]
    assert speed.scaled([1.0], [speed.REF_NOMINAL_S, 3 * speed.REF_NOMINAL_S]) == [0.5]


def test_harrell_davis_quantiles():
    assert speed.hd_quantile([3.0] * 50, 0.9) == pytest.approx(3.0)
    assert speed.hd_quantile(range(101), 0.5) == pytest.approx(50.0)
    # Two op kinds with a gap between them: when the slowest op of the fast
    # kind moves into the gap, the sample median jumps by 20 and the
    # Harrell-Davis median moves by a few.
    fast, slow = [100.0] * 50, [150.0] * 50
    moved = fast[:-1] + [140.0] + slow
    assert statistics.median(moved) - statistics.median(fast + slow) == 20.0
    assert 0 < speed.hd_quantile(moved, 0.5) - speed.hd_quantile(fast + slow, 0.5) < 5.0


def test_checks_apply_the_acceptance_thresholds():
    config = workloads.WORKLOADS["prepare_seeds"].op(0, 2)
    assert config.protocol == "nil2"
    payload, code, _ = workloads.execute(config)
    kinds = workloads.check(config, payload, code)
    assert kinds == ["fidelity"] and workloads.is_known_defect(config, payload, kinds)
    payload["runs"][0]["transcript"]["fidelity_vs_oracle"] = 0.5
    assert not workloads.is_known_defect(config, payload, workloads.check(config, payload, code))
    payload["runs"][0]["min_stabilizer_expectation"] = 0.9
    assert workloads.check(config, payload, code) == ["fidelity", "stabilizer"]
    assert workloads.check(config, payload, 2)[0] == "exit_code"


def test_report_bytes_match_the_cli_output():
    config = cli.RunConfig(command="verify", group="S3", cell="hexagon", suite="identities")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--suite", "identities", "--group", "S3", "--cell", "hexagon"]) == 0
    assert workloads.execute(config)[2] == out.getvalue().encode("utf-8")


def test_tracer_patches_every_import_site_and_restores_them():
    original = gates.controlled_left
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = gates.controlled_left
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert kwmaps.controlled_left is wrapped
        assert protocols.controlled_left is wrapped
        assert verify.controlled_left is wrapped
        tracer.op = 0
        payload, code, _ = workloads.execute(workloads.WORKLOADS["dense_abelian"].op(0, 1))
    finally:
        tracer.uninstall()
    assert gates.controlled_left is original and kwmaps.controlled_left is original
    names = {tracer.names[s[0]] for s in tracer.spans}
    assert {"cli.cmd_prepare", "kwmaps.kw_abelian", "register.QuditRegister.apply", "gates.controlled_left"} <= names
    metrics = tracer.metrics(1)
    assert metrics["register.peak_amplitudes"][0] == 2**18
    assert metrics["cli.self_ms"][0] > 0 and metrics["register.apply.calls"][0] > 0


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in (run.ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = _bench("--workload", "dense_abelian", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
