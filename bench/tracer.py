"""Per-layer tracing installed from outside the program.

``install`` replaces each traced ``xview`` function by a wrapper at every
name an ``xview`` module binds it to (its own module and each importer), so
calls between modules are caught as well as the benchmark's own calls.
Functions that recurse are wrapped only at their importers' names, so one
outside call counts once, however deep the recursion.  The program itself
is not edited, and ``uninstall`` puts every original back.

A wrapper is one of three kinds:

- ``span``: a span (name, start, end, parent span, op id) kept in memory,
  plus the per-name totals;
- ``timed``: the per-name totals only, for functions called thousands of
  times per op, whose spans would not fit in memory;
- ``count``: a call counter only, for the cheapest helpers.

Self time is a span's duration minus the time its timed child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

# (module, function, kind, recursive); the metric name is module.function
TRACED = [
    ("xml_model", "parse_document", "span", False),
    ("xml_model", "serialize", "timed", True),
    ("xml_model", "string_value", "count", True),
    ("xml_model", "locate", "count", False),
    ("lang", "parse_view_def", "span", False),
    ("lang", "parse_update", "span", False),
    ("evaluator", "evaluate_view", "span", False),
    ("evaluator", "enumerate_bindings", "span", False),
    ("evaluator", "eval_condition", "timed", False),
    ("evaluator", "build_etree", "timed", False),
    ("translator", "translate", "span", False),
    ("updater", "plan_update", "span", False),
    ("updater", "execute_plan", "span", False),
    ("updater", "replay_edits", "span", False),
    ("verifier", "verify_translation", "span", False),
    ("verifier", "check_correctness", "span", False),
    ("verifier", "check_minimality", "span", False),
    ("verifier", "run_lemma_suite", "span", False),
    ("fuzzgen", "random_case", "span", False),
    ("cli", "main", "span", False),
]

# (module, class, method, kind); the metric name is module.class.method
TRACED_METHODS = [
    ("xml_model", "DocumentStore", "copy", "span"),
    ("xml_model", "DocumentStore", "find_node", "timed"),
]

SPAN_CAP = 50_000  # spans kept in memory; later ones only add to the totals
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op")


class Tracer:
    """Span store and per-name totals for one traced run."""

    def __init__(self) -> None:
        self.active = True
        self.op_id = 0
        self.stack: list[list] = []  # open frames: [child seconds, span id]
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.open: dict[str, int] = {}  # span name -> currently open count
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # SPAN_FIELDS
        self._next_id = 1
        self._restore: list[tuple] = []

    @contextlib.contextmanager
    def paused(self):
        """Run the body without recording anything."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def inside(self, name: str) -> bool:
        return self.open.get(name, 0) > 0

    # -- wrappers -----------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        after = _AFTER.get(name)
        if kind == "count":

            def counted(*args, **kwargs):
                if self.active:
                    totals[0] += 1
                return fn(*args, **kwargs)

            return counted

        keep = kind == "span"
        stack, spans, open_ = self.stack, self.spans, self.open

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else 0
            if keep:
                span_id = self._next_id
                self._next_id += 1
                open_[name] = open_.get(name, 0) + 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                totals[0] += 1
                totals[1] += took
                totals[2] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if keep:
                    open_[name] -= 1
                    if len(spans) < SPAN_CAP:
                        spans.append((span_id, name, start, end, parent, self.op_id))
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at each name an xview module binds."""
        mods = {
            name: module
            for name, module in sys.modules.items()
            if name == "xview" or name.startswith("xview.")
        }
        for modname, attr, kind, recursive in TRACED:
            home = importlib.import_module(f"xview.{modname}")
            original = getattr(home, attr)
            wrapper = self._wrap(f"{modname}.{attr}", original, kind)
            for module in mods.values():
                if recursive and module is home:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        for modname, clsname, method, kind in TRACED_METHODS:
            cls = getattr(importlib.import_module(f"xview.{modname}"), clsname)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            name = f"{modname}.{clsname}.{method}"
            setattr(cls, method, self._wrap(name, original, kind))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output -------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


# Counters taken from arguments and results, keyed by the span that sees them.

def _after_enumerate(tr: Tracer, _args, result) -> None:
    tr.add("evaluator.tuples_enumerated", len(result))
    if tr.inside("evaluator.evaluate_view"):
        tr.add("tuples_in_eval", len(result))


def _after_evaluate(tr: Tracer, _args, result) -> None:
    tr.add("evaluator.rows_out", len(result.tuples))
    if tr.inside("verifier.verify_translation"):
        tr.add("evals_in_verify", 1)


def _after_plan(tr: Tracer, _args, result) -> None:
    tr.add("updater.ops_planned", len(result))


def _after_execute(tr: Tracer, _args, result) -> None:
    tr.add("updater.edits", len(result))


def _after_replay(tr: Tracer, args, _result) -> None:
    tr.add("updater.edits_replayed", len(args[0]))
    if tr.inside("verifier.check_minimality"):
        tr.add("verifier.minimality_probes", 1)


def _after_copy(tr: Tracer, _args, _result) -> None:
    if tr.inside("verifier.verify_translation"):
        tr.add("copies_in_verify", 1)


def _after_translate(tr: Tracer, _args, result) -> None:
    if type(result).__name__ == "Rejected":
        tr.add("translator.rejected", 1)


def _after_parse_document(tr: Tracer, args, _result) -> None:
    tr.add("xml_model.parse_document.bytes", len(args[0].encode("utf-8")))


_AFTER = {
    "evaluator.enumerate_bindings": _after_enumerate,
    "evaluator.evaluate_view": _after_evaluate,
    "updater.plan_update": _after_plan,
    "updater.execute_plan": _after_execute,
    "updater.replay_edits": _after_replay,
    "xml_model.DocumentStore.copy": _after_copy,
    "translator.translate": _after_translate,
    "xml_model.parse_document": _after_parse_document,
}


# ----------------------------------------------------------------------
# Per-layer metrics

# name -> unit.  Every figure is per op except the ratios.
LAYER_METRICS = {
    "evaluator.tuples_enumerated": "tuples/op",
    "evaluator.rows_out": "rows/op",
    "evaluator.tuples_per_row": "tuples/row",
    "evaluator.enumerate_bindings.calls": "calls/op",
    "evaluator.enumerate_bindings.ms": "ms/op",
    "evaluator.eval_condition.calls": "calls/op",
    "evaluator.eval_condition.ms": "ms/op",
    "evaluator.build_etree.ms": "ms/op",
    "evaluator.evaluate_view.calls": "calls/op",
    "evaluator.evaluate_view.ms": "ms/op",
    "evaluator.evaluate_view.self_ms": "ms/op",
    "xml_model.string_value.calls": "calls/op",
    "xml_model.locate.calls": "calls/op",
    "updater.plan_update.calls": "calls/op",
    "updater.plan_update.ms": "ms/op",
    "updater.plan_update.self_ms": "ms/op",
    "updater.ops_planned": "ops/op",
    "updater.execute_plan.ms": "ms/op",
    "updater.edits": "edits/op",
    "xml_model.serialize.calls": "calls/op",
    "xml_model.serialize.ms": "ms/op",
    "verifier.verify_translation.calls": "calls/op",
    "verifier.verify_translation.ms": "ms/op",
    "verifier.check_correctness.ms": "ms/op",
    "verifier.check_minimality.ms": "ms/op",
    "verifier.check_minimality.self_ms": "ms/op",
    "verifier.run_lemma_suite.ms": "ms/op",
    "verifier.minimality_probes": "probes/op",
    "verifier.evals_per_verify": "evals/verify",
    "verifier.copies_per_verify": "copies/verify",
    "updater.replay_edits.calls": "calls/op",
    "updater.replay_edits.ms": "ms/op",
    "updater.edits_replayed": "edits/op",
    "xml_model.DocumentStore.copy.calls": "calls/op",
    "xml_model.DocumentStore.copy.ms": "ms/op",
    "xml_model.DocumentStore.find_node.calls": "calls/op",
    "xml_model.DocumentStore.find_node.ms": "ms/op",
    "lang.parse_view_def.calls": "calls/op",
    "lang.parse_view_def.ms": "ms/op",
    "lang.parse_update.calls": "calls/op",
    "lang.parse_update.ms": "ms/op",
    "translator.translate.calls": "calls/op",
    "translator.translate.ms": "ms/op",
    "translator.rejected": "count/op",
    "fuzzgen.random_case.calls": "calls/op",
    "fuzzgen.random_case.ms": "ms/op",
    "cli.main.ms": "ms/op",
    "cli.main.self_ms": "ms/op",
    "xml_model.parse_document.calls": "calls/op",
    "xml_model.parse_document.ms": "ms/op",
    "xml_model.parse_document.bytes": "bytes/op",
    "trace.untraced_op_ms_p50": "ms",
    "trace.traced_op_ms_p50": "ms",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, ops: int, untraced_p50: float, traced_p50: float) -> dict:
    """The per-layer figures of one traced run, keyed as in LAYER_METRICS."""
    values: dict[str, float] = {}
    for name, unit in LAYER_METRICS.items():
        if not unit.endswith("/op"):
            continue
        base, _, field = name.rpartition(".")
        if field in ("calls", "ms", "self_ms"):
            calls, seconds, self_seconds = tr.totals.get(base, (0, 0.0, 0.0))
            figure = {"calls": calls, "ms": seconds * 1e3, "self_ms": self_seconds * 1e3}[field]
        else:
            figure = tr.counters.get(name, 0)
        values[name] = _ratio(figure, ops)
    c = tr.counters
    values["evaluator.tuples_per_row"] = _ratio(
        c.get("tuples_in_eval", 0), c.get("evaluator.rows_out", 0)
    )
    verifies = tr.totals.get("verifier.verify_translation", (0,))[0]
    values["verifier.evals_per_verify"] = _ratio(c.get("evals_in_verify", 0), verifies)
    values["verifier.copies_per_verify"] = _ratio(c.get("copies_in_verify", 0), verifies)
    values["trace.untraced_op_ms_p50"] = untraced_p50
    values["trace.traced_op_ms_p50"] = traced_p50
    values["trace.overhead_pct"] = _ratio(traced_p50 - untraced_p50, untraced_p50) * 100
    return {name: {"value": values[name], "unit": LAYER_METRICS[name]} for name in LAYER_METRICS}
