"""Batch front-end: protocols, verification suites, and group queries.

Reports are JSON only, schema-versioned, and written atomically; an
identical config (seed included) produces byte-identical reports, whatever
its --workers value. Exit codes: 0 success, 1 precondition failure,
2 tolerance failure. The --pretty flag prints a short summary to standard
output without affecting the report file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .cellulation import Cellulation, from_json as cellulation_from_json, hexagon_torus, square_torus, theta_sphere
from .groups import (
    FactorSystem,
    FiniteGroup,
    catalog,
    catalog_factor_system,
    center,
    derived_series,
    group_from_spec,
    load_catalog,
    parse_extension,
)
from .kwmaps import KwMode
from .protocols import ProtocolTranscript, plan_run
from .verify import commuting_pair_classes, ground_state_degeneracy, identity_suite, stabilizer_reports

__all__ = ["RunConfig", "main", "cmd_prepare", "cmd_verify", "cmd_groups"]

SCHEMA_VERSION = 1
STABILIZER_TOL = 1e-9
IDENTITY_TOL = 1e-10
CATALOG_ENV = "GAUGEKIT_CATALOG"

# execution details that must not change report bytes
_VOLATILE_FIELDS = ("workers", "output", "pretty")


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved CLI invocation; unknown fields are rejected."""

    command: str
    group: str = ""
    cell: str = "hexagon"
    protocol: str = "solvable"
    mode: str = "postselect"
    seeds: int = 1
    workers: int = 1
    stabilizers: bool = True
    oracle_fidelity: bool = True
    gsd: bool = False
    suite: str = "identities"
    derived_series: str = ""
    center: str = ""
    factor_system: str = ""
    output: str = ""
    pretty: bool = False

    @staticmethod
    def from_dict(doc: Dict[str, object]) -> "RunConfig":
        known = {f.name for f in fields(RunConfig)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown config fields {unknown}")
        return RunConfig(**doc)  # type: ignore[arg-type]


# the fields a report records, in declaration order; every one is a str, int
# or bool, so reading them off the frozen config needs no copy
_RECORD_FIELDS = tuple(f.name for f in fields(RunConfig) if f.name not in _VOLATILE_FIELDS)


def _config_record(config: RunConfig) -> Dict[str, object]:
    return {name: getattr(config, name) for name in _RECORD_FIELDS}


# ---------------------------------------------------------------------------
# spec parsing


def _group_table() -> Dict[str, FiniteGroup]:
    table = dict(catalog())
    path = os.environ.get(CATALOG_ENV)
    if path:
        table.update(_parse_document(path, f"{CATALOG_ENV} catalog", load_catalog))
    return table


def parse_group_spec(spec: str) -> FiniteGroup:
    """Catalog name, Z<n>/product shorthand, or a JSON group document path."""
    if not spec:
        raise ValueError("empty group spec")
    table = _group_table()
    if spec in table:
        return table[spec]
    if spec.endswith(".json") or os.path.sep in spec:
        loaded = _parse_document(spec, "group", load_catalog)
        if len(loaded) != 1:
            raise ValueError(f"group document {spec!r} must define exactly one group")
        return next(iter(loaded.values()))
    return group_from_spec(spec)


def parse_factor_system_spec(spec: str) -> FactorSystem:
    """Stored factor system by name, or an extension document path."""
    try:
        return catalog_factor_system(spec)
    except KeyError:
        pass
    if spec.endswith(".json") or os.path.sep in spec:
        return _parse_document(spec, "extension", lambda doc: parse_extension(_as_object(doc)))
    raise ValueError(f"{spec!r} carries no extension data (stored factor system or document required)")


def parse_cell_spec(spec: str) -> Cellulation:
    if spec == "hexagon":
        return hexagon_torus()
    if spec == "theta":
        return theta_sphere()
    if spec.startswith("square:"):
        body = spec.split(":", 1)[1]
        try:
            lx, ly = (int(part) for part in body.lower().split("x"))
        except ValueError:
            raise ValueError(f"square cell spec needs LxL, got {body!r}") from None
        return square_torus(lx, ly)
    if spec.endswith(".json") or os.path.sep in spec:
        return _parse_document(spec, "cellulation", lambda doc: cellulation_from_json(_as_object(doc)))
    raise ValueError(f"unknown cellulation spec {spec!r}")


def parse_mode_spec(spec: str) -> KwMode:
    if spec == "postselect":
        return KwMode.postselect()
    if spec.startswith("sample:"):
        return KwMode.sample(int(spec.split(":", 1)[1]))
    if spec.startswith("forced:"):
        doc = _parse_document(spec.split(":", 1)[1], "forced-outcome", _as_object)
        return KwMode.forced({int(k): int(v) for k, v in doc.items()})
    raise ValueError(f"unknown mode spec {spec!r} (postselect | sample:<seed> | forced:<file>)")


def _read_document(path: str) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_document(path: str, what: str, parse: Callable[[Any], Any]) -> Any:
    """parse run on the JSON document at path; a malformed document raises a
    ValueError that names it, and the key when one is missing."""
    try:
        return parse(_read_document(path))
    except KeyError as exc:
        raise ValueError(f"{what} document {path!r} lacks the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} document {path!r}: {exc}") from exc


def _as_object(doc: object) -> Dict[str, object]:
    """A document that must be a JSON object; group catalogs may also be lists."""
    if not isinstance(doc, dict):
        raise ValueError(f"must be a JSON object, not {type(doc).__name__}")
    return doc


# ---------------------------------------------------------------------------
# commands


def _parse_subject(config: RunConfig) -> Tuple[Union[FiniteGroup, FactorSystem], FiniteGroup]:
    """The protocol's group or factor system, and the group it prepares."""
    if config.protocol in ("abelian", "solvable"):
        group = parse_group_spec(config.group)
        return group, group
    if config.protocol in ("nil2", "metabelian"):
        fs = parse_factor_system_spec(config.group)
        return fs, fs.parent
    raise ValueError(f"unknown protocol {config.protocol!r}")


def _run_protocol(
    config: RunConfig, subject: Union[FiniteGroup, FactorSystem], cell: Cellulation, modes: Sequence[KwMode]
) -> Iterator[List[ProtocolTranscript]]:
    """One list of transcripts per stack of seeds, a stack run once the last
    one's list is taken, from the run plan plan_run returns, one seed or
    many: it shares the oracle and the prefix among the stacks."""
    plan = plan_run(config.protocol, subject, cell, with_oracle=config.oracle_fidelity)
    return (list(plan.run(modes[lo : lo + plan.seeds])) for lo in range(0, len(modes), plan.seeds))


def cmd_prepare(config: RunConfig) -> Tuple[Dict[str, object], int]:
    cell = parse_cell_spec(config.cell)
    base_mode = parse_mode_spec(config.mode)
    if config.seeds < 1 or config.workers < 1:
        raise ValueError("seeds and workers must be positive")
    if config.seeds > 1 and base_mode.kind != "sample":
        raise ValueError("running multiple seeds needs sample mode")
    modes = (
        [KwMode.sample(base_mode.seed + k) for k in range(config.seeds)]
        if base_mode.kind == "sample"
        else [base_mode]
    )
    subject, group = _parse_subject(config)
    gsd = ground_state_degeneracy(group, cell) if config.gsd else None

    runs = []
    # one stack's transcripts at a time, the stabilizers of its seeds reported in one pass
    for transcripts in _run_protocol(config, subject, cell, modes):
        entries = [{"seed": mode.seed, "transcript": t.to_dict()} for mode, t in zip(modes[len(runs) :], transcripts)]
        if config.stabilizers:
            for entry, report in zip(entries, stabilizer_reports([t.register for t in transcripts], group, cell)):
                entry["verification"] = report.to_dict()
                entry["min_stabilizer_expectation"] = report.min_expectation()
        runs += entries

    payload: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "command": "prepare",
        "config": _config_record(config),
        "group": group.name,
        "cell": cell.name,
        "runs": runs,
    }
    summary: Dict[str, object] = {
        "n_runs": len(runs),
        "shots": runs[0]["transcript"]["shots"],
    }
    fidelities = [
        r["transcript"]["fidelity_vs_oracle"] for r in runs if "fidelity_vs_oracle" in r["transcript"]
    ]
    if fidelities:
        summary["min_fidelity_vs_oracle"] = min(fidelities)
    code = 0
    if config.stabilizers:
        worst = min(r["min_stabilizer_expectation"] for r in runs)
        summary["min_stabilizer_expectation"] = worst
        summary["stabilizer_tolerance"] = STABILIZER_TOL
        if worst < 1 - STABILIZER_TOL:
            code = 2
    if gsd is not None:
        payload["gsd"] = gsd
    payload["summary"] = summary
    return payload, code


def cmd_verify(config: RunConfig) -> Tuple[Dict[str, object], int]:
    group = parse_group_spec(config.group)
    cell = parse_cell_spec(config.cell)
    payload: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "config": _config_record(config),
        "group": group.name,
        "cell": cell.name,
        "suite": config.suite,
    }
    if config.suite == "identities":
        systems: Dict[str, FactorSystem] = {}
        try:
            systems[config.group] = catalog_factor_system(config.group)
        except KeyError:
            pass
        rows = identity_suite(cell, groups={config.group: group}, systems=systems)
        deviations = [row["deviation"] for row in rows if "deviation" in row]
        payload["rows"] = rows
        payload["tolerance"] = IDENTITY_TOL
        payload["max_deviation"] = max(deviations) if deviations else 0.0
        code = 0 if all(d <= IDENTITY_TOL for d in deviations) else 2
        return payload, code
    if config.suite == "gsd":
        # a closed surface's degeneracy: 1 on the sphere, the anyon count on the torus
        euler = cell.n_vertices - cell.n_edges + cell.n_plaquettes
        if cell.closed and euler not in (0, 2):
            raise ValueError(f"gsd suite needs a sphere or a torus, got Euler characteristic {euler}")
        projector = ground_state_degeneracy(group, cell)
        classes = commuting_pair_classes(group)
        payload["gsd"] = {"projector_rank": projector, "commuting_pair_classes": classes}
        expected = 1 if euler == 2 else classes
        return payload, 0 if projector == expected else 2
    raise ValueError(f"unknown suite {config.suite!r}")


def cmd_groups(config: RunConfig) -> Tuple[Dict[str, object], int]:
    if not (config.derived_series or config.center or config.factor_system):
        raise ValueError("groups needs at least one of --derived-series, --center, --factor-system")
    payload: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "command": "groups",
        "config": _config_record(config),
    }
    if config.derived_series:
        group = parse_group_spec(config.derived_series)
        chain, length = derived_series(group)
        section: Dict[str, object] = {
            "group": group.name,
            "orders": [sub.order for sub in chain],
            "derived_length": length,
            "solvable": length is not None,
        }
        if length is None:
            section["perfect_core_order"] = chain[-1].order
        payload["derived_series"] = section
    if config.center:
        group = parse_group_spec(config.center)
        z = center(group)
        payload["center"] = {"group": group.name, "order": z.order, "members": list(map(int, z.members))}
    if config.factor_system:
        fs = parse_factor_system_spec(config.factor_system)
        payload["factor_system"] = {
            "group": fs.parent.name,
            "n": fs.n_group.name,
            "q": fs.q_group.name,
            "sigma": fs.sigma.tolist(),
            "omega": fs.omega.tolist(),
        }
    return payload, 0


# ---------------------------------------------------------------------------
# report emission


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _summary_lines(payload: Dict[str, object], code: int) -> List[str]:
    lines = [f"command: {payload['command']}  exit: {code}"]
    if "summary" in payload:
        for key, value in sorted(payload["summary"].items()):
            lines.append(f"  {key}: {value}")
    if "max_deviation" in payload:
        lines.append(f"  max_deviation: {payload['max_deviation']:.3e} (tolerance {payload['tolerance']:.0e})")
    if "gsd" in payload and isinstance(payload["gsd"], dict):
        lines.append(f"  gsd: {payload['gsd']}")
    if "derived_series" in payload:
        section = payload["derived_series"]
        lines.append(f"  derived series orders: {section['orders']} (length {section['derived_length']})")
    return lines


def _emit(payload: Dict[str, object], config: RunConfig, code: int) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if config.output:
        _atomic_write(config.output, text)
    if config.pretty:
        sys.stdout.write("\n".join(_summary_lines(payload, code)) + "\n")
    elif not config.output:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugekit",
        description="Prepare quantum double states by gauging protocols and verify them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prep = sub.add_parser("prepare", help="run a preparation protocol and report the transcript")
    prep.add_argument("--group", required=True, help="catalog name, Z<n>/product shorthand, or JSON document")
    prep.add_argument("--cell", default="hexagon", help="square:LxL | hexagon | theta | JSON document")
    prep.add_argument("--protocol", default="solvable", choices=["abelian", "nil2", "metabelian", "solvable"])
    prep.add_argument("--mode", default="postselect", help="postselect | sample:<seed> | forced:<file>")
    prep.add_argument("--seeds", type=int, default=1, help="consecutive seeds starting at the sample seed")
    prep.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility and checked to be positive; every seed runs in the calling thread",
    )
    prep.add_argument("--no-stabilizers", dest="stabilizers", action="store_false")
    prep.add_argument("--no-oracle-fidelity", dest="oracle_fidelity", action="store_false")
    prep.add_argument("--gsd", action="store_true", help="include the ground-space degeneracy")
    prep.add_argument("--output", "-o", default="")
    prep.add_argument("--pretty", action="store_true")

    ver = sub.add_parser("verify", help="run an identity or degeneracy suite")
    ver.add_argument("--suite", default="identities", choices=["identities", "gsd"])
    ver.add_argument("--group", required=True)
    ver.add_argument("--cell", default="hexagon")
    ver.add_argument("--output", "-o", default="")
    ver.add_argument("--pretty", action="store_true")

    grp = sub.add_parser("groups", help="group-theory queries")
    grp.add_argument("--derived-series", default="", metavar="GROUP")
    grp.add_argument("--center", default="", metavar="GROUP")
    grp.add_argument("--factor-system", default="", metavar="GROUP")
    grp.add_argument("--output", "-o", default="")
    grp.add_argument("--pretty", action="store_true")
    return parser


_COMMANDS: Dict[str, Callable[[RunConfig], Tuple[Dict[str, object], int]]] = {
    "prepare": cmd_prepare,
    "verify": cmd_verify,
    "groups": cmd_groups,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig.from_dict(vars(args))
    try:
        payload, code = _COMMANDS[config.command](config)
    except (ValueError, KeyError, OSError) as exc:
        error = {
            "schema": SCHEMA_VERSION,
            "error": {"type": "precondition", "message": str(exc)},
        }
        sys.stdout.write(json.dumps(error, sort_keys=True, indent=2) + "\n")
        return 1
    _emit(payload, config, code)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
