"""Report bytes do not depend on the BLAS thread count.

OpenBLAS reads its thread count once, when numpy loads, so each count runs
in its own process. Two pinned CLI reports run at 1 and 2 BLAS threads,
whatever the calling shell sets, and must both hash to their pinned
digests: the S4 one, whose 13,824-amplitude output is past the 10,000
entries above which OpenBLAS splits a dot product across its threads, and
the Z3 one, whose measurement rotates 3^12-amplitude blocks.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_report_bytes import CLI_REPORTS

SRC = Path(__file__).resolve().parents[1] / "src"
PINNED = {param.id: param.values for param in CLI_REPORTS}


@pytest.mark.parametrize("case", ["solvable-S4-hexagon", "abelian-Z3-square"])
def test_report_bytes_do_not_depend_on_the_blas_thread_count(case, tmp_path):
    argv, digest = PINNED[case]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    digests = {}
    for threads in (1, 2):
        out = tmp_path / f"report-{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
        subprocess.run(
            [sys.executable, "-m", "gaugekit.cli", *argv, "-o", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        digests[threads] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == {1: digest, 2: digest}
