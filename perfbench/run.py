"""Benchmark of the Gravit cycle simulator: one driver step, one service job.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload step-incore --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` measures an untraced window and then a traced cold set-up and
window, and reports the per-layer metrics.  Every line but the last is a
human-readable report; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every op was correct.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("step-incore", "step-ooc", "svc-open")
#: Environment knobs that would change what runs; the workloads use the
#: defaults (serial SM engine, fastpath v2, in-memory kernel cache only).
CLEARED_ENV = ("REPRO_EXEC_FASTPATH", "REPRO_SM_ENGINE", "REPRO_KERNEL_CACHE_DIR")
#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def pct(values, p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)]


def tail(values) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it,
    as ``(value, percentile)``; the median when no rung qualifies."""
    for p in TAIL_LADDER:
        value = pct(values, p)
        if sum(1 for x in values if x > value) >= TAIL_BEYOND:
            return value, p
    return statistics.median(values), 50.0


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def end_to_end(wl, out) -> tuple[dict, list]:
    times = out.op_s()
    ok = [t for t in times if math.isfinite(t)]
    p50 = statistics.median(times)
    tail_s, tail_p = tail(times)
    if wl.kind == "service":
        # At a fixed offered rate the schedule sets throughput until the
        # service saturates.  The simulator's own speed is the job's run on
        # its device, without the queue.
        ops_per_s = len(ok) / out.window_s
        busy_s = statistics.median(out.run_s())
    else:
        # A closed loop of one driver: throughput is 1 / mean step time.
        ops_per_s = len(ok) / math.fsum(ok) if ok else 0.0
        busy_s = p50
    winst_per_s = out.winst_per_op / busy_s
    setups = out.setup_s()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50": (p50, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "sim_winst_per_s": (winst_per_s, "1/s"),
        "sim_cycles_per_op": (out.cycles_per_op, "cycles"),
        "op_ok_frac": (1.0 - out.failed / max(1, out.attempted), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    wall = out.op_wall_s()
    notes = [
        f"op_s_tail {tail_s:.6g} s: p{tail_p:g} of {len(times)} ops (not "
        "gated: its spread between seeds exceeds every allowed bound)",
        f"setup_s is the median of {len(setups)} cold set-ups: "
        + ", ".join(f"{s:.3f}" for s in setups)
        + " (wall " + ", ".join(f"{e - s:.3f}" for s, e in out.setups) + ")",
        f"at wall speed: op_s_p50 {statistics.median(wall):.6g} s, "
        f"op_s_tail {tail(wall)[0]:.6g} s",
        out.speed.summary(),
    ]
    return metrics, notes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(wl, plain, traced) -> tuple[dict, list]:
    from tracer import LAYERS, attribute

    trace = traced.layer["tracer"]
    by_op = defaultdict(list)
    for sp in trace.spans:
        by_op[sp[5]].append(sp)
    # A job waits on its device stream from dispatch until its closure runs.
    for job, dispatched in traced.layer.get("dispatched", {}).items():
        starts = [sp[2] for sp in by_op[job] if sp[1] == "dispatch.stream_op"]
        if starts:
            trace.add("service.stream_wait", dispatched, min(starts), job)
            by_op[job].append(trace.spans[-1])

    ops = traced.layer.get("ops", [])
    n = max(1, len(ops))
    excl = defaultdict(float)
    wall = covered = blocked = 0.0
    for op, start, end in ops:
        spans = by_op.get(op, [])
        names, cov = attribute(spans, start, end)
        for name, s in names.items():
            excl[name] += s
        wall += end - start
        covered += cov
        blocked += sum(
            min(sp[3], end) - max(sp[2], start)
            for sp in spans
            if sp[1] == "dispatch.sync_wait" and sp[3] > start and sp[2] < end
        )
    counts = defaultdict(float)
    for op, _, _ in ops:
        for key, value in trace.counts.get(op, {}).items():
            counts[key] += value

    setup_start, setup_end = traced.layer["setup_window"]
    setup_spans = [sp for sp in trace.spans
                   if sp[3] > setup_start and sp[2] < setup_end]
    setup_names, setup_cov = attribute(setup_spans, setup_start, setup_end)

    def layer_s(names, layer):
        return sum(s for k, s in names.items() if layer_of(k) == layer)

    vec = traced.layer.get("vec", {})
    cache = traced.layer.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    launches = counts["launches"]
    svc = wl.kind == "service"
    qwait = traced.layer.get("service.queue_wait_s", [])
    busy = traced.layer.get("service.device_busy_frac", [])

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    put("service.queue_wait_s_p50",
        statistics.median(qwait) if qwait else 0.0, "s")
    put("service.queue_wait_s_tail", tail(qwait)[0] if qwait else 0.0, "s")
    put("service.run_s_p50",
        statistics.median(traced.layer["service.run_s"]) if svc else 0.0, "s")
    put("service.device_busy_frac_min", min(busy) if busy else 0.0, "ratio")
    put("service.device_busy_frac_max", max(busy) if busy else 0.0, "ratio")
    put("service.warm_hit_rate",
        traced.layer.get("service.warm_hit_rate", 0.0), "ratio")
    put("service.gen_lag_s_max",
        traced.layer.get("service.gen_lag_s_max", 0.0), "s")
    put("driver.create_s", excl["driver.create"] / n, "s")
    put("driver.step_self_s", excl["driver.step"] / n, "s")
    put("driver.download_s", excl["driver.download"] / n, "s")
    put("dispatch.submits_per_op", counts["dispatch.submits"] / n, "count")
    put("dispatch.enqueue_s", excl["dispatch.enqueue"] / n, "s")
    put("dispatch.sync_wait_s", blocked / n, "s")
    put("xfer.copy_bytes_per_op", traced.layer.get("xfer.copy_bytes_per_op", 0), "B")
    put("xfer.copy_exposed_fraction",
        traced.layer.get("xfer.copy_exposed_fraction", 0.0), "ratio")
    put("compile.lower_s", setup_names.get("compile.lower", 0.0), "s")
    put("compile.codegen_s", setup_names.get("compile.codegen", 0.0), "s")
    put("compile.key_s", excl["compile.key"] / n, "s")
    put("compile.cache_hit_rate",
        cache.get("hits", 0) / lookups if lookups else 0.0, "ratio")
    put("launch.per_op", launches / n, "count")
    put("launch.setup_s", excl["launch.device_launch"] / n, "s")
    put("exec.run_sms_s", excl["exec.run_sms"] / n, "s")
    put("exec.share", layer_s(excl, "exec") / wall if wall else 0.0, "ratio")
    put("exec.winst_per_op", counts["winst"] / n, "count")
    put("exec.sms_busy", counts["sms_busy"] / launches if launches else 0.0,
        "count")
    put("exec.vec_warps_per_dispatch",
        vec["warps"] / vec["dispatches"] if vec.get("dispatches") else 0.0,
        "count")
    attempts = vec.get("dispatches", 0) + vec.get("fallbacks", 0)
    put("exec.vec_fallback_frac",
        vec["fallbacks"] / attempts if attempts else 0.0, "ratio")
    put("mem.transactions_per_op", counts["mem.transactions"] / n, "count")
    put("mem.bytes_per_op", counts["mem.bytes"] / n, "B")
    put("mem.requests_per_op", counts["mem.requests"] / n, "count")
    put("mem.queue_delay_cycles_per_op",
        counts["mem.queue_delay_cycles"] / n, "cycles")
    put("mem.busy_frac",
        counts["mem.busy_cycles"] / counts["sm_cycles"]
        if counts["sm_cycles"] else 0.0, "ratio")
    for layer in LAYERS:
        put(f"layer.{layer}_s", layer_s(excl, layer) / n, "s")
    put("trace.other_s", (wall - covered) / n, "s")
    put("trace.coverage", covered / wall if wall else 0.0, "ratio")
    put("trace.overhead_frac",
        statistics.median(traced.op_s()) / statistics.median(plain.op_s())
        - 1.0, "ratio")
    for layer in LAYERS:
        put(f"setup.{layer}_s", layer_s(setup_names, layer), "s")
    put("setup.other_s", setup_end - setup_start - setup_cov, "s")

    notes = [
        f"traced {len(ops)} ops over {wall:.3f} s; "
        f"{len(trace.spans)} spans kept in memory",
        f"cold set-up traced over {setup_end - setup_start:.3f} s",
    ]
    return m, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no simulator sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import make_workloads

    wl = make_workloads()[args.workload]
    if args.trace:
        plain, traced = wl.run_traced(args.seed, args.seconds)
        metrics, notes = per_layer(wl, plain, traced)
        runs = (plain, traced)
    else:
        out = wl.run(args.seed, args.seconds)
        metrics, notes = end_to_end(wl, out)
        runs = (out,)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    correct = failed == 0
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for r in runs:
        for problem in r.problems:
            print(f"INCORRECT: {problem}")
    for note in [n for r in runs for n in r.notes] + notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None,
                   "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
