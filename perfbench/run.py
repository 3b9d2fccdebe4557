"""Run one sbprof benchmark workload and print its metrics.

    python3 perfbench/run.py --workload container --seed 1 --seconds 20 --trace 0

Run from the repository root: the program is imported from ./src, never
from an installed copy. With --trace 0 the workload runs untraced for
--seconds (roundtrip: over a fixed number of profiles sized from --seconds)
and the last line of standard output is a JSON object with the
end-to-end metrics. With --trace 1 a fixed amount of work (sized from
--seconds) runs once untraced and once traced, and the metrics are the
per-layer ones plus the tracing overhead. Lines before the last one give
every metric by name and unit, the error rate with its attempted count, and
the workload's input properties; a full report and, when traced, the spans
go to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_program():
    """Put ./src first on the path and make sure sbprof comes from there."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import sbprof
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import sbprof from {SRC}: {exc}")
    if Path(sbprof.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: sbprof was imported from {sbprof.__file__}, "
                         f"not from {SRC}")
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


HEAD = 64  # items kept for describing the inputs


def timed_run(name: str, seed: int, seconds: float) -> dict:
    """Run the closed loop for `seconds`, or, on a workload with
    `timed_items_per_s`, over a fixed number of items sized from `seconds`,
    so that one seed always gives the same operations and the same failures.
    The workload is set up `setup_repeats` times, spread evenly over the run
    so that the median set-up sees the same machine as the operations; the
    first set-up's state serves every operation."""
    from measure import Record, Speed, geometric_mean, median
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workload = cls(seed)
    speed = Speed()
    rec = Record(speed)

    def timed_setup():
        speed.tick()
        t0 = perf_counter()
        state = workload.setup()
        rec.time("setup", perf_counter() - t0)
        return state

    speed.tick(force=True)
    state = timed_setup()
    setups = 1
    head = []
    count = 0
    stream = workload.items()
    total = None
    if cls.timed_items_per_s:
        total = max(cls.min_items, round(seconds * cls.timed_items_per_s))
    started = perf_counter()

    def progress():
        """Share of the run done, by items or by time."""
        if total is not None:
            return count / total
        return (perf_counter() - started) / seconds

    while count < cls.min_items or progress() < 1:
        if setups < cls.setup_repeats and progress() >= setups / cls.setup_repeats:
            timed_setup()
            setups += 1
            continue
        item = next(stream)
        if count < HEAD:
            head.append(item)
        count += 1
        speed.tick()
        workload.step(state, item, rec)
    while setups < cls.setup_repeats:
        timed_setup()
        setups += 1
    workload.finish(state, rec)
    speed.tick(force=True)
    # read before the statistics below allocate lists the size of the run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ok_ops = rec.ok_ops()
    metrics = {
        "setup_s": (median(rec.scaled("setup")), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_ms_gmean": (geometric_mean(ok_ops) * 1e3, "ms"),
    }
    details = workload.details(rec, state)
    details["op_ms_p50"] = (median(ok_ops) * 1e3, "ms")
    details["ops_per_s"] = (rec.ops_per_s(), "1/s")
    details["error_rate"] = (rec.failed / max(rec.attempted, 1), "ratio")
    details["wall_op_ms_p50"] = (
        median([t for t, ok in zip(rec.wall("op"), rec.op_ok) if ok]) * 1e3, "ms")
    details["wall_setup_s"] = (median(rec.wall("setup")), "s")
    details["reference_run_ms_p50"] = (median(speed.refs) * 1e3, "ms")
    return {
        "workload": name, "seed": seed, "trace": 0, "why": cls.why,
        "correct": rec.wrong == 0 and bool(ok_ops),
        "attempted": rec.attempted, "failed": rec.failed,
        "metrics": metrics, "details": details,
        "sample_counts": {"items": count, "ok_ops": len(ok_ops),
                          "reference_runs": len(speed.refs),
                          **{k: rec.count(k) for k in sorted(rec.names())}},
        "errors": dict(rec.error_kinds), "notes": rec.notes,
        "inputs": workload.describe(state, head, count),
    }


def traced_run(name: str, seed: int, seconds: float, spans_path=None, count=None):
    """Run the same fixed work untraced, then traced; compare the outputs.
    The work is `count` items, by default sized from `seconds`.
    Returns (result, tracer)."""
    import spans
    from measure import Record, Speed
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workload = cls(seed)
    if count is None:
        count = max(cls.min_items, round(seconds * cls.trace_items_per_s))
    items = list(islice(workload.items(), count))
    speed = Speed()

    def one_pass(tracer=None):
        """Scaled seconds for set-up, all items and finish."""
        rec = Record(speed)
        speed.tick(force=True)
        first, spent = speed.epoch, speed.spent
        t0 = perf_counter()
        state = workload.setup()
        for i, item in enumerate(items):
            speed.tick()
            if tracer is not None:
                tracer.request = i
            workload.step(state, item, rec)
        if tracer is not None:
            tracer.request = "finish"
        workload.finish(state, rec)
        speed.tick(force=True)
        elapsed = perf_counter() - t0 - (speed.spent - spent)
        return elapsed * speed.mean_scale(first), state, rec

    plain_s, state, plain = one_pass()
    tracer = spans.Tracer()
    tracer.request = "setup"
    with tracer:
        first = speed.epoch + 1
        traced_s, _state, traced = one_pass(tracer)
    if spans_path is not None:
        tracer.write(spans_path)

    metrics = tracer.layer_metrics(scale=speed.mean_scale(first))
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    same = plain.outputs.digest() == traced.outputs.digest() \
        and plain.failed == traced.failed
    result = {
        "workload": name, "seed": seed, "trace": 1, "why": cls.why,
        "correct": same and plain.wrong == 0 and traced.wrong == 0,
        "attempted": traced.attempted, "failed": traced.failed,
        "metrics": metrics,
        "details": {"untraced_s": (plain_s, "s"), "traced_s": (traced_s, "s"),
                    "error_rate": (traced.failed / max(traced.attempted, 1), "ratio"),
                    "traced_outputs_match": (int(same), "bool")},
        "sample_counts": {"items": len(items), "reference_runs": len(speed.refs)},
        "errors": dict(traced.error_kinds), "notes": traced.notes,
        "inputs": workload.describe(state, items[:HEAD], len(items)),
    }
    return result, tracer


def _show(result):
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"trace={result['trace']}: {result['sample_counts']}")
    print(f"  why: {result['why']}")
    for group in ("metrics", "details"):
        for key, (value, unit) in result[group].items():
            print(f"  {key:48} {value:.6g} {unit}")
    print(f"  error_rate {result['failed']} failed of {result['attempted']} "
          f"attempted; by kind: {result['errors']}")
    for note in result["notes"]:
        print(f"  note: {note}")
    print("inputs " + json.dumps(result["inputs"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("container", "roundtrip", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")

    import_program()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result, _tracer = traced_run(args.workload, args.seed, args.seconds,
                                     spans_path=out_dir / f"{stem}.spans.json")
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    (out_dir / f"{stem}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    _show(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
