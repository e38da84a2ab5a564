"""Run one constakit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  Metric names, units and
bounds are those of ``BENCHMARK.json`` beside ``src``.

``--trace 0`` measures the end-to-end metrics: set-up in fresh interpreters,
then warm passes, back to back, as many as fit in ``--seconds`` (at least
one).  Their times are in seconds at the reference speed of ``meter``; the
record keeps the raw pass times too.
``--trace 1`` instead installs the tracer, sets up and runs one pass under
it, then runs one plain pass, and reports the per-layer metrics together
with the tracing overhead (traced pass minus plain pass).

Every line but the last is for people: a run record, then each metric with
its unit.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every
exact check passed, 1 when one failed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from meter import Meter
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def _git_sha() -> str | None:
    """HEAD's commit, read from the .git directory if the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _percentile(ordered: list, share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _setup_seconds(workload: str) -> float:
    """One cold set-up, timed inside a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _measure(workload: str, setup, run_pass, rng, checks, seconds: float):
    setup()
    meter = Meter()
    setups, passes, raw_passes = [], [], []
    start = perf_counter()
    # Start a pass only if one more like the slowest so far fits the window.
    # A set-up probe precedes each pass, so the probes sample the whole run.
    while not passes or perf_counter() - start + max(raw_passes) <= seconds:
        setups.append(_setup_seconds(workload))
        meter.sample()
        t0, scaled0 = perf_counter(), meter.elapsed
        run_pass(rng, checks, meter)
        meter.sample()
        raw_passes.append(perf_counter() - t0)
        passes.append(meter.elapsed - scaled0)
    while len(setups) < SETUP_REPEATS:
        setups.append(_setup_seconds(workload))
    items = sorted(meter.items)
    metrics = {
        "wall_s": statistics.median(passes),
        "item_p50_ms": statistics.median(items) * 1e3,
        "item_p99_ms": _percentile(items, 0.99) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"pass_s": passes, "raw_pass_s": raw_passes, "setup_s": setups,
                     "items": len(items)}


def _trace(setup, run_pass, rng, checks, seed: int):
    tracer = Tracer()
    tracer.install()
    try:
        setup()
        t0 = perf_counter()
        run_pass(rng, checks, Meter())
        traced = perf_counter() - t0
    finally:
        tracer.uninstall()
    t0 = perf_counter()
    run_pass(rng, checks, Meter())
    plain = perf_counter() - t0
    metrics = tracer.metrics(seed)
    metrics["trace.overhead_s"] = traced - plain
    return metrics, {"traced_pass_s": traced, "plain_pass_s": plain, "trace_overhead_s": traced - plain}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (SRC / "constakit" / "__init__.py").is_file():
        print(f"no constakit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if workloads.ck.__file__ != str(SRC / "constakit" / "__init__.py"):
        print(f"constakit was imported from {workloads.ck.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    setup, run_pass = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    checks = workloads.Checks()
    if args.trace:
        measured, details = _trace(setup, run_pass, rng, checks, args.seed)
        wanted = spec["per_layer"]
    else:
        measured, details = _measure(args.workload, setup, run_pass, rng, checks, args.seconds)
        record["trace_overhead_s"] = None
        wanted = spec["end_to_end"]
    record.update(details, loadavg_end=os.getloadavg())

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    print("record " + json.dumps(record, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:28} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'fail_ratio':28} {checks.failed / max(checks.attempted, 1):>16.6g} "
          f"({checks.failed} of {checks.attempted} exact checks)")
    correct = checks.failed == 0 and checks.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
