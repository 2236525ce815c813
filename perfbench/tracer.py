"""Per-layer tracing of gaugekit from outside the program.

The tracer is installed only for the traced phase of a ``--trace 1`` run and
removed after it; untraced runs never import this module's wrappers.
``Tracer.install`` wraps every public function of each layer module (names
without a leading underscore, defined in that module) at every import site,
so ``controlled_left`` is replaced in ``gates``, ``kwmaps``, ``protocols`` and
``verify`` alike, and every public method of the public classes defined
there, on the class. Each call records one span in memory: name, start, end,
parent span and op id, plus the register's amplitude count at the call
boundary. ``write`` dumps them when the run ends.

Self time is a span's duration minus the durations of its direct children.
The wrapper's own bookkeeping after a call returns is charged to the caller's
self time; ``trace.overhead_ratio`` reports what tracing costs in total.
A layer's ``calls`` counts every wrapped call into it, nested ones included.
``register.copy_bytes`` and the ``peak_amplitudes`` figures are computed from
``amps.nbytes``/``amps.size`` at register call boundaries, not measured
memory traffic: a call that leaves a new amplitude array behind counts its
bytes once.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from types import FunctionType
from typing import Dict, List, Optional, Tuple

LAYERS = ("cli", "protocols", "kwmaps", "register", "gates", "groups", "cellulation", "feedforward", "verify")

# O(1) multiplication-table lookups, called up to ~30k times per op from the
# gate-table and identity loops: a span around each would time the tracer,
# not the lookup. Their time stays in the caller's self time.
UNWRAPPED = frozenset(
    f"groups.{name}"
    for name in (
        "FiniteGroup.mul",
        "FiniteGroup.inverse",
        "FiniteGroup.conjugate",
        "FiniteGroup.commutator",
        "FiniteGroup.element_order",
        "FiniteGroup.elements",
        "Subgroup.contains",
        "FactorSystem.pair_index",
        "FactorSystem.split_index",
        "FactorSystem.omega_inv",
    )
)

PLAN_MAKERS = frozenset({"feedforward.charge_correction", "feedforward.flux_correction"})

# span tuple fields
NAME, START, END, PARENT, OP, AMPS, NEW_BYTES = range(7)


class Tracer:
    """Span recorder; ``op`` is set by the caller before each op."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Optional[tuple]] = []
        self.plans: List[bool] = []  # per plan built: has at least one correction
        self.op = -1
        self._last_array = None  # the amplitude array counted last, so nested calls count it once
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"gaugekit.{layer}") for layer in LAYERS}
        register_cls = modules["register"].QuditRegister
        replaced: Dict[int, Tuple[object, FunctionType]] = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                # lru_cache-wrapped functions (catalog, character_table) count as functions
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    replaced[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", register_cls))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{attr}", register_cls)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                original, wrapper = replaced.get(id(obj), (None, None))
                if original is obj:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_methods(self, cls: type, prefix: str, register_cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if attr.startswith("_") or name in UNWRAPPED:
                continue
            if isinstance(member, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(member.__func__, name, register_cls)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, name, register_cls))

    def _wrap(self, fn, name: str, register_cls: type) -> FunctionType:
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        is_register = name.startswith("register.")
        is_plan = name in PLAN_MAKERS

        def traced(*args, **kwargs):
            reg = args[0] if is_register and args and isinstance(args[0], register_cls) else None
            before = reg.amps if reg is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                amps, new_bytes = -1, 0
                if reg is not None:
                    amps = reg.amps.size
                    if reg.amps is not before and reg.amps is not self._last_array:
                        new_bytes, self._last_array = reg.amps.nbytes, reg.amps
                if is_register and isinstance(result, register_cls) and result is not reg:
                    amps = max(amps, result.amps.size)
                    if result.amps is not self._last_array:
                        new_bytes, self._last_array = new_bytes + result.amps.nbytes, result.amps
                spans[idx] = (name_id, start, end, parent, self.op, amps, new_bytes)
                if is_plan and result is not None:
                    self.plans.append(any(x != 0 for x in result.exponents.values()))

        return functools.update_wrapper(traced, fn)

    # --- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as gzip JSON lines: a header naming the fields, then one list per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent", "op", "amps", "new_bytes"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # --- per-layer metrics -------------------------------------------------------

    def metrics(self, n_ops: int) -> Dict[str, Tuple[float, str]]:
        """Per-op layer figures over every recorded span."""
        spans = self.spans
        ids: Dict[str, int] = {name: k for k, name in enumerate(self.names)}

        def id_set(*names: str) -> frozenset:
            return frozenset(ids[n] for n in names if n in ids)

        layer_of = [name.split(".", 1)[0] for name in self.names]
        child_ns = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        self_ns = {layer: 0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        by_name_ns: Dict[int, int] = {}
        by_name_calls: Dict[int, int] = {}
        copy_bytes = 0
        peak = 0
        for k, s in enumerate(spans):
            layer = layer_of[s[NAME]]
            dur = s[END] - s[START]
            self_ns[layer] += dur - child_ns[k]
            calls[layer] += 1
            by_name_ns[s[NAME]] = by_name_ns.get(s[NAME], 0) + dur
            by_name_calls[s[NAME]] = by_name_calls.get(s[NAME], 0) + 1
            copy_bytes += s[NEW_BYTES]
            peak = max(peak, s[AMPS])

        def total_ns(names: frozenset) -> int:
            return sum(by_name_ns.get(n, 0) for n in names)

        def total_calls(names: frozenset) -> int:
            return sum(by_name_calls.get(n, 0) for n in names)

        apply_ids = id_set("register.QuditRegister.apply")
        measure_ids = id_set("register.QuditRegister.measure_fourier", "register.QuditRegister.project_plus")
        expect_ids = id_set("register.QuditRegister.expectation")
        steps = self._steps(ids, measure_ids)
        per_op = 1.0 / max(n_ops, 1)
        ms = 1e-6 * per_op
        out: Dict[str, Tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (self_ns[layer] * ms, "ms")
            out[f"{layer}.calls"] = (calls[layer] * per_op, "count")
        out.update(
            {
                "register.apply.calls": (total_calls(apply_ids) * per_op, "count"),
                "register.apply.ms": (total_ns(apply_ids) * ms, "ms"),
                "register.measure.calls": (total_calls(measure_ids) * per_op, "count"),
                "register.measure.ms": (total_ns(measure_ids) * ms, "ms"),
                "register.expectation.calls": (total_calls(expect_ids) * per_op, "count"),
                "register.expectation.ms": (total_ns(expect_ids) * ms, "ms"),
                "register.copy_bytes": (copy_bytes * per_op, "B"),
                "register.peak_amplitudes": (float(peak), "amplitudes"),
                "gates.loop.ms": (total_ns(id_set("gates.loop_z", "gates.loop_z_tilde")) * ms, "ms"),
                "feedforward.nonempty_ratio": (sum(self.plans) / len(self.plans) if self.plans else 0.0, "ratio"),
                "verify.stabilizer.ms": (total_ns(id_set("verify.stabilizer_report")) * ms, "ms"),
                "verify.identity.ms": (total_ns(id_set("verify.identity_suite")) * ms, "ms"),
                "verify.gsd.ms": (
                    total_ns(id_set("verify.ground_state_degeneracy", "verify.commuting_pair_classes")) * ms,
                    "ms",
                ),
            }
        )
        for step in ("symmetry_check", "entangle", "measure", "feedforward", "reassembly", "oracle"):
            out[f"step.{step}.ms"] = (steps[step] * ms, "ms")
        # the three certification steps are the verify entry points themselves
        out["step.stabilizer_report.ms"] = out["verify.stabilizer.ms"]
        out["step.identity_suite.ms"] = out["verify.identity.ms"]
        out["step.gsd.ms"] = out["verify.gsd.ms"]
        out["step.entangle.peak_amplitudes"] = (float(steps["entangle_peak"]), "amplitudes")
        return out

    def _steps(self, ids: Dict[str, int], measure_ids: frozenset) -> Dict[str, int]:
        """ROADMAP step times in ns, attributed by span order.

        Inside each round span (``kw_abelian``, ``kw_n_in_g``, and the
        one-round ``prepare_nil2_double``): the symmetry check runs until the
        first ``add_sites`` (kw rounds only), entangling from there to the
        first measurement, measuring to the end of the last one, and
        feedforward from there to the end of the round or the first
        reassembly or oracle call. Under each ``prepare_*`` span, reassembly is
        every ``merge_sites``/``relabel_site`` after the last measurement, and
        the oracle is every ``kw_exact_g`` and ``fidelity`` call.
        """
        spans = self.spans
        get = ids.get
        add_id = get("register.QuditRegister.add_sites")
        reassembly = {get("register.QuditRegister.merge_sites"), get("register.QuditRegister.relabel_site")}
        oracle = {get("kwmaps.kw_exact_g"), get("register.QuditRegister.fidelity")}
        after_measure = reassembly | oracle | {get("register.init_plus")}
        kw_rounds = {get("kwmaps.kw_abelian"), get("kwmaps.kw_n_in_g")}
        nil2 = get("protocols.prepare_nil2_double")
        prepares = {k for name, k in ids.items() if name.startswith("protocols.prepare_")}
        out = dict.fromkeys(
            ("symmetry_check", "entangle", "measure", "feedforward", "reassembly", "oracle", "entangle_peak"), 0
        )
        for r, s in enumerate(spans):
            is_round = s[NAME] in kw_rounds or s[NAME] == nil2
            if not is_round and s[NAME] not in prepares:
                continue
            desc = range(r + 1, _descendants_end(spans, r))
            t_add = next((spans[j][START] for j in desc if spans[j][NAME] == add_id), None)
            meas = [j for j in desc if spans[j][NAME] in measure_ids]
            if s[NAME] in prepares:
                t_last = spans[meas[-1]][END] if meas else s[START]
                for j in desc:
                    d = spans[j]
                    if d[NAME] in reassembly and d[START] >= t_last:
                        out["reassembly"] += d[END] - d[START]
                    elif d[NAME] in oracle:
                        out["oracle"] += d[END] - d[START]
            if not is_round or t_add is None or not meas:
                continue
            t_m0, t_m1 = spans[meas[0]][START], spans[meas[-1]][END]
            if s[NAME] in kw_rounds:
                out["symmetry_check"] += t_add - s[START]
            out["entangle"] += t_m0 - t_add
            out["measure"] += t_m1 - t_m0
            ff_end = next(
                (spans[j][START] for j in desc if spans[j][START] >= t_m1 and spans[j][NAME] in after_measure),
                s[END],
            )
            out["feedforward"] += ff_end - t_m1
            peak = max((spans[j][AMPS] for j in desc if t_add <= spans[j][START] < t_m0), default=0)
            out["entangle_peak"] = max(out["entangle_peak"], peak)
        return out


def _descendants_end(spans: List[tuple], r: int) -> int:
    """Spans are stored in start order, so a span's descendants follow it
    contiguously until the first span starting after it ends."""
    end = spans[r][END]
    j = r + 1
    while j < len(spans) and spans[j][START] < end:
        j += 1
    return j
