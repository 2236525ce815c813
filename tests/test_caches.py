"""Every lru_cache in the source is bounded.

A cache keyed by groups, cells or register layouts grows with every distinct
input, so each one must name an integer maxsize. This reads each module's
syntax tree, so a new cache is checked without being listed anywhere. The
gate template caches, the run plan cache and the oracle cache are also
sized: a second pass of the benchmark's op kinds builds no template, no
plan and no oracle again.
"""

import ast
from pathlib import Path

import pytest

from gaugekit import cli, gates, protocols
from gaugekit.cellulation import hexagon_torus
from gaugekit.groups import catalog
from gaugekit.verify import GSD_DIM_BUDGET

SRC = Path(__file__).resolve().parents[1] / "src" / "gaugekit"
MAX_ENTRIES = 64


def cache_sizes(source: str) -> list:
    """(line, maxsize) for every use of lru_cache; maxsize is None unless it
    is an integer literal (a bare @lru_cache defaults to 128)."""
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    sizes = []
    for node in ast.walk(tree):
        if getattr(node, "id", getattr(node, "attr", None)) != "lru_cache":
            continue
        call = calls.get(id(node))
        args = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1] if call else []
        literal = args and isinstance(args[0], ast.Constant) and type(args[0].value) is int
        sizes.append((node.lineno, args[0].value if literal else None))
    return sorted(sizes)


def test_the_scan_finds_every_spelling():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=8)\n"
        "def a(): pass\n"
        "@lru_cache(4)\n"
        "def b(): pass\n"
        "@lru_cache\n"
        "def c(): pass\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def d(): pass\n"
        "e = lru_cache(maxsize=2 * 8)(len)\n"
    )
    assert cache_sizes(source) == [(3, 8), (5, 4), (7, None), (9, None), (11, None)]


def test_the_source_has_caches():
    assert sum(len(cache_sizes(path.read_text(encoding="utf-8"))) for path in SRC.glob("*.py")) >= 9


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_cache_has_a_small_integer_maxsize(path):
    sizes = cache_sizes(path.read_text(encoding="utf-8"))
    assert [(line, size) for line, size in sizes if size is None or not 1 <= size <= MAX_ENTRIES] == []


TEMPLATES = [
    gates._controlled_left,
    gates._controlled_right,
    gates._cz_abelian,
    gates._sigma_gate,
    gates._omega_gate,
    gates._z_tilde,
]


def run_rotation():
    """The op kinds of the certify_catalog and prepare_seeds benchmark
    workloads, once each: the identity suite of every catalog group, the
    degeneracy suite of each that fits, and four seeds of each prepare case."""
    n_edges = hexagon_torus().n_edges
    for name, group in catalog().items():
        cli.cmd_verify(cli.RunConfig(command="verify", group=name, suite="identities"))
        if group.order**n_edges <= GSD_DIM_BUDGET:
            cli.cmd_verify(cli.RunConfig(command="verify", group=name, suite="gsd"))
    for name, protocol in [("S4", "solvable"), ("S3", "metabelian"), ("D4", "nil2"), ("D4", "solvable")]:
        cli.cmd_prepare(cli.RunConfig(command="prepare", group=name, protocol=protocol, mode="sample:3", seeds=4))


def test_a_warm_rotation_builds_no_gate_template():
    """The gate template caches, the run plan cache and the oracle cache hold
    every key one rotation of the benchmark op kinds asks for, so a second
    rotation only hits: it builds no gate table and no run plan, and so
    enumerates no oracle, which only a plan build reads."""
    warm = TEMPLATES + [protocols._plan_of]
    run_rotation()
    before = [cache.cache_info() for cache in warm + [protocols._oracle]]
    run_rotation()
    after = [cache.cache_info() for cache in warm + [protocols._oracle]]
    assert [b.misses for b in before] == [a.misses for a in after]
    assert all(a.hits > b.hits for a, b in zip(after[:-1], before)), "a cache the rotation never reads"
    assert after[-1] == before[-1]
