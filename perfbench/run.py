#!/usr/bin/env python3
"""Benchmark for outlooker: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root, which holds ``src/outlooker``:

    python3 perfbench/run.py --workload d1-infer-b1 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Each workload is a closed loop with one client: a step starts when the last
one has ended.  ``--trace 0`` times the loop untraced and reports the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` spends half the time
untraced and half traced, and reports the per-layer metrics, the tracing
overhead, a self-time table, and a Chrome trace under ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness gate passed; 2 when the run was refused before measuring.
"""

from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()

# BLAS and OpenMP runtimes read these once, when numpy loads them, so they are
# pinned here, before anything imports numpy.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
UNPINNED = {var: os.environ[var] for var in THREAD_VARS if os.environ.setdefault(var, "1") != "1"}

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3          # set-ups per run; setup_s is their median


def refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Tally:
    """Steps attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, fn, *args):
        """Run one step; returns (ok, value)."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception as exc:  # a failed gate or a raised error fails the step only
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return False, None


class MemoryProbe:
    """Traced-memory readings at the marks a step makes, in bytes."""

    def __init__(self):
        self.peak = self.retained = self.backward_peak = 0

    def _take(self):
        current, peak = tracemalloc.get_traced_memory()
        self.peak = max(self.peak, peak)
        tracemalloc.reset_peak()
        return current, peak

    def __call__(self, label: str) -> None:
        current, peak = self._take()
        if label == "forward":
            self.retained = max(self.retained, current)
        elif label == "backward":
            self.backward_peak = max(self.backward_peak, peak)

    def finish(self) -> None:
        self._take()


def timed_loop(step, seconds: float, tally: Tally) -> list[tuple[float, float, bool]]:
    """Closed loop for ``seconds``; returns (start, end, ok) of every step."""
    gc.collect()
    steps = []
    start = end = time.perf_counter()
    while end - start < seconds:
        t0 = time.perf_counter()
        ok, _ = tally.attempt(step)
        end = time.perf_counter()
        steps.append((t0, end, ok))
    return steps


def durations(steps) -> list[float]:
    return [end - t0 for t0, end, ok in steps if ok]


def memory_step(workload, tally: Tally) -> MemoryProbe:
    """One untimed step under tracemalloc; allocations before it are not counted."""
    probe = MemoryProbe()
    gc.collect()
    tracemalloc.start()
    try:
        tally.attempt(workload.step, probe)
        probe.finish()
    finally:
        tracemalloc.stop()
    return probe


def tail(samples: list[float], percentile: int):
    """(value, samples beyond) of the given percentile, interpolated linearly
    between order statistics."""
    if len(samples) < 2:
        return samples[0], 0
    value = statistics.quantiles(samples, n=100, method="inclusive")[percentile - 1]
    return value, sum(s > value for s in samples)


def run_workload(workload, seed: int, seconds: float, trace: bool, import_s: float,
                 context: dict) -> dict:
    import machine
    from tracer import Tracer

    tally = Tally()
    problems: list[str] = []

    setup_times, warm = [], []
    for _ in range(SETUPS):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup(seed)
        values = [tally.attempt(workload.step)[1] for _ in range(workload.warmup)]
        setup_times.append(time.perf_counter() - t0)
        warm.append(values)
    for i, values in enumerate(warm[1:], start=2):
        differ = sum(a != b for a, b in zip(values, warm[0]))
        if differ:
            tally.failed += differ
            problems.append(f"set-up {i}: {differ} warm-up step results differ from set-up 1 "
                            f"with the same seed ({values} vs {warm[0]})")
    problems += workload.prepare(seed, warm[-1])

    tracer = None
    if trace:
        plain = timed_loop(workload.step, seconds / 2, tally)
        tracer = Tracer(workload.roots())
        try:
            tracer.install()
            traced = durations(timed_loop(tracer.traced_step(workload.step), seconds / 2, tally))
        finally:
            tracer.uninstall()
    else:
        plain = timed_loop(workload.step, seconds, tally)
    times = durations(plain)
    if not times:
        problems.append("no step was timed successfully")

    probe = memory_step(workload, tally)
    roof = machine.roofline(context["llc_bytes"])

    result = {
        "workload": workload.name,
        "seed": seed,
        "tally": tally,
        "problems": problems,
        "roofline": roof,
        "setup_times": setup_times,
        "import_s": import_s,
        "steps": len(times),
    }
    if times:
        value, beyond = tail(times, workload.tail_percentile)
        result["tail"] = (workload.tail_percentile, beyond)
        result["end_to_end"] = {
            "setup_s": import_s + statistics.median(setup_times),
            "images_per_s": workload.images_per_step * len(times) / (plain[-1][1] - plain[0][0]),
            "step_p50_ms": statistics.median(times) * 1e3,
            "step_tail_ms": value * 1e3,
            "peak_mb": probe.peak / 1e6,
        }
    if tracer is not None:
        untraced_ms = statistics.median(times) * 1e3 if times else 0.0
        traced_ms = statistics.median(traced) * 1e3 if traced else 0.0
        memory = {"backward_peak_mb": probe.backward_peak / 1e6,
                  "retained_mb": probe.retained / 1e6}
        result["overhead"] = (untraced_ms, traced_ms, len(traced))
        result["per_layer"] = tracer.layer_metrics(memory, traced_ms - untraced_ms)
        result["table"] = tracer.self_time_table()
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload.name}-seed{seed}.json"
        tracer.write_chrome_trace(path, {"workload": workload.name, "seed": seed,
                                         "traced_steps": tracer.steps, "context": context,
                                         "roofline": roof})
        result["trace_path"] = path.relative_to(ROOT)
    return result


def report(result: dict, units: dict) -> None:
    tally = result["tally"]
    print(f"== {result['workload']}  seed {result['seed']}  closed loop, 1 client")
    e2e = result.get("end_to_end", {})
    setups = ", ".join(f"{s:.3f}" for s in result["setup_times"])
    notes = {
        "setup_s": f"import {result['import_s']:.3f} s + median of set-ups [{setups}] s",
        "step_p50_ms": f"median of {result['steps']} timed steps",
    }
    if "tail" in result:
        pct, beyond = result["tail"]
        notes["step_tail_ms"] = f"p{pct}, {beyond} of {result['steps']} samples beyond"
    for name, value in e2e.items():
        print(f"  {name:<14} {value:12.4f} {units[name]:<8} {notes.get(name, '')}")
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  failed_frac    {frac:12.4f}          {tally.failed} of {tally.attempted} "
          f"attempted steps failed")
    roof = result["roofline"]
    print(f"  roofline: float32 GEMM {roof['gemm_gmacs_per_s']:.1f} GMAC/s "
          f"({'x'.join(map(str, roof['gemm_shape']))}, {roof['gemm_operand_mb']:.1f} MB per "
          f"operand); copy {roof['copy_gb_per_s']:.2f} GB/s over a {roof['copy_buffer_mb']:.0f} "
          f"MB buffer (LLC {roof['llc_mb']:.0f} MB)")
    if "per_layer" in result:
        untraced, traced, count = result["overhead"]
        share = (traced - untraced) / untraced if untraced else 0.0
        print(f"  tracing overhead: step p50 {traced:.3f} ms traced ({count} steps) vs "
              f"{untraced:.3f} ms untraced = {traced - untraced:+.3f} ms ({share:+.1%})")
        print(f"  self time per step by scope and span (trace: {result['trace_path']}):")
        for line in result["table"]:
            print(line)
        idle = [n for n, v in result["per_layer"].items() if v == 0]
        print("  per-layer metrics:")
        for name, value in result["per_layer"].items():
            if value != 0:
                print(f"    {name:<32} {value:14.4f} {units[name]}")
        print(f"    ({len(idle)} metrics are 0 because their layer does not run here: "
              f"{', '.join(idle)})")
    for error in tally.errors:
        print(f"  FAILED STEP: {error}")
    for problem in result["problems"]:
        print(f"  GATE FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if UNPINNED:
        return refuse(f"BLAS thread variables must be 1, got {UNPINNED}")
    if args.seconds <= 0:
        return refuse("--seconds must be positive")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "outlooker" / "__init__.py").is_file() or not spec_path.is_file():
        return refuse(f"run from a checkout holding src/outlooker and BENCHMARK.json ({ROOT})")
    sys.path.insert(0, str(ROOT / "src"))
    import outlooker  # noqa: F401  (timed as part of set-up)

    import_s = time.perf_counter() - START

    import machine
    from workloads import WORKLOADS

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        return refuse(f"unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)} or all")

    ctx = machine.context(THREAD_VARS)
    threads = ctx["blas"]["runtime_threads"]
    if threads not in (None, 1):
        return refuse(f"BLAS runtime reports {threads} threads, not 1")
    print("context: " + json.dumps(ctx, sort_keys=True))

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace),
                              import_s, ctx)
        report(result, units)
        values = result.get("per_layer" if args.trace else "end_to_end")
        if values is not None and sorted(values) != sorted(declared):
            raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} do not match "
                               f"BENCHMARK.json")
        tally = result["tally"]
        correct = correct and values is not None and not result["problems"] and not tally.failed
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({f"{prefix}{metric}": {"value": float(value), "unit": units[metric]}
                        for metric, value in (values or {}).items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
