"""Acceptance-criterion result collection: one summary line per criterion,
and a cold plan cache for every test."""

from typing import Dict, Tuple

import pytest

_RESULTS: Dict[int, Tuple[bool, str]] = {}


@pytest.fixture(autouse=True)
def cold_plans():
    """Each test starts without cached run plans, so a test that counts the
    steps a plan build runs, or patches what a build reads, sees its own
    build rather than a plan an earlier test left behind."""
    from gaugekit import protocols

    protocols._plan_of.cache_clear()


@pytest.fixture
def criterion_log():
    def record(number: int, ok: bool, detail: str) -> None:
        _RESULTS[number] = (bool(ok), detail)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        ok, detail = _RESULTS[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status} - {detail}")
