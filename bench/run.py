"""Run one workload of the xview benchmark and print its metrics.

    python3 bench/run.py --workload join-session --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones of a traced run (see ``tracer.py``).  Times are scaled to a
fixed host speed (see ``speed.py``).  Lines before the JSON are a
human-readable report: the per-op-type latencies and the raw wall-clock
figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = HERE / "out"

SETUP_REPEATS = 5  # set-up runs per process; setup_s is their median
CALIBRATION_SHARE = 0.25  # share of a traced run measured with tracing off
MAX_ERRORS_SHOWN = 5

# The end-to-end metrics, as in BENCHMARK.json; times at the reference speed.
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "throughput_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# The same figures in wall-clock time, printed in the report only.
RAW = {"setup_s", "op_ms_p50", "op_ms_p90", "throughput_ops_per_s"}


def percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Tally:
    """Per-op latencies and failure counts of one measured phase.

    ``latency`` and ``busy`` are scaled to the reference speed; ``raw`` and
    ``raw_busy`` are wall-clock.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0  # seconds spent inside xview by ops that passed
        self.raw_busy = 0.0
        self.latency: dict[str, list[float]] = {}  # op type -> seconds per op
        self.raw: dict[str, list[float]] = {}
        self.errors: list[str] = []

    def add(self, kind: str, took: float, count: int, scale: float) -> None:
        self.attempted += count
        self.busy += took * scale
        self.raw_busy += took
        self.latency.setdefault(kind, []).append(took / count * scale)
        self.raw.setdefault(kind, []).append(took / count)

    def fail(self, count: int, error: str) -> None:
        self.failed += count
        self.errors.append(error)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.busy += other.busy
        self.raw_busy += other.raw_busy
        for mine, theirs in ((self.latency, other.latency), (self.raw, other.raw)):
            for kind, values in theirs.items():
                mine.setdefault(kind, []).extend(values)
        self.errors.extend(other.errors)


def _flat(by_kind: dict[str, list[float]]) -> list[float]:
    return [x for values in by_kind.values() for x in values]


def _attempt(workload, tally: Tally):
    """Run one op; on failure count it and return None."""
    from workloads import OpFailed

    try:
        return workload.op()
    except OpFailed as exc:
        tally.attempted += workload.op_size
        tally.fail(exc.count or workload.op_size, str(exc))
    except Exception:  # an op that raises counts as failed; the run goes on
        tally.attempted += workload.op_size
        tally.fail(workload.op_size, traceback.format_exc())
    return None


def drive(workload, deadline: float, max_ops, tracer=None) -> Tally:
    """Run ops back to back until the deadline or ``max_ops`` ops.

    The reference is timed between ops, so each op has one just before and
    one just after it.
    """
    tally = Tally()
    before = speed.reference()
    while perf_counter() < deadline and (max_ops is None or tally.attempted < max_ops):
        if tracer is not None:
            tracer.op_id += 1
        outcome = _attempt(workload, tally)
        after = speed.reference()
        if outcome is not None:
            kind, took, count = outcome
            tally.add(kind, took, count, speed.scale(before, after))
        before = after
    return tally


def run(name: str, seed: int, seconds: float, trace: bool, max_ops=None) -> dict:
    """Set up and measure one workload; return the result object.

    ``max_ops`` stops the run after that many ops whatever the time, which
    makes counts comparable between runs.
    """
    import tracer as tracing
    from workloads import WORKLOADS

    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        workload = WORKLOADS[name](seed)
        before = speed.reference()
        start = perf_counter()
        workload.setup()
        took = perf_counter() - start
        raw_setups.append(took)
        setups.append(took * speed.scale(before, speed.reference()))

    start = perf_counter()
    if not trace:
        tally = drive(workload, start + seconds, max_ops)
    else:
        calibration = drive(
            workload,
            start + seconds * CALIBRATION_SHARE,
            None if max_ops is None else int(max_ops * CALIBRATION_SHARE),
        )
        tr = tracing.Tracer()
        workload.untraced = tr.paused
        tr.install()
        try:
            tally = drive(
                workload,
                start + seconds,
                None if max_ops is None else max_ops - calibration.attempted,
                tr,
            )
        finally:
            tr.uninstall()
        tr.write_spans(SPAN_DIR / f"spans-{name}.jsonl")

    finished = True
    try:
        workload.finish()
    except Exception:
        finished = False
        tally.errors.append(traceback.format_exc())

    if trace:
        metrics = tracing.layer_metrics(
            tr,
            tally.attempted,
            percentile(_flat(calibration.latency), 50) * 1e3,
            percentile(_flat(tally.latency), 50) * 1e3,
        )
        tally.merge(calibration)
        raw = {}
    else:
        passed = tally.attempted - tally.failed
        metrics = _end_to_end(setups, _flat(tally.latency), passed, tally.busy)
        raw = _end_to_end(raw_setups, _flat(tally.raw), passed, tally.raw_busy)

    _report(name, seed, seconds, trace, tally, metrics, raw)
    return {
        "correct": finished and tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }


def _end_to_end(setups: list[float], latencies: list[float], passed: int, busy: float) -> dict:
    values = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": percentile(latencies, 50) * 1e3,
        "op_ms_p90": percentile(latencies, 90) * 1e3,
        "throughput_ops_per_s": passed / busy if busy else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def _report(name, seed, seconds, trace, tally: Tally, metrics, raw) -> None:
    for err in tally.errors[:MAX_ERRORS_SHOWN]:
        print(f"error: {err.rstrip()}", file=sys.stderr)
    print(f"# workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    for kind, values in tally.latency.items():
        walls = tally.raw[kind]
        print(
            f"# {kind}_ms_p50 {percentile(values, 50) * 1e3:.3f}  "
            f"{kind}_ms_p90 {percentile(values, 90) * 1e3:.3f}  "
            f"(wall-clock {percentile(walls, 50) * 1e3:.3f} / "
            f"{percentile(walls, 90) * 1e3:.3f})  n={len(values)}"
        )
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"# failed_op_ratio {ratio:g} ({tally.failed}/{tally.attempted})")
    for key, metric in metrics.items():
        wall = f"  (wall-clock {raw[key]['value']:.6g})" if key in RAW and raw else ""
        print(f"# {key} {metric['value']:.6g} {metric['unit']}{wall}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "xview" / "__init__.py").is_file():
        print(f"error: no xview sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
