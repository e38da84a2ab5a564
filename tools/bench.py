"""Run the gated benchmark workloads on one or two checkouts and fold the
runs into one ``BENCH_<label>.json``.

    python3 tools/bench.py --label LABEL PARENT_ROOT CHANGE_ROOT
    python3 tools/bench.py --label LABEL ROOT

For each workload named in ``BENCHMARK.json`` (the one beside this script),
``perfbench/run.py`` runs unmodified from each checkout root with that
file's ``run_seconds``, untraced, ``--pairs`` times per side (at least 5).
Pair i uses seed i on both sides.  With two roots the sides are ``parent``
and ``change``, and the side that runs first alternates from pair to pair,
so a slow spell of a shared machine does not fall on one side only; with
one root the only side is ``change``.

Each run starts from a fresh copy of its checkout's ``src/``,
``perfbench/`` and ``BENCHMARK.json``, without any ``__pycache__``, and
writes no bytecode, so ``setup_s`` includes compiling constakit on both
sides alike, however warm a checkout's ``__pycache__``.  The standard
library keeps its installed bytecode, as in a fresh checkout.

Each run is folded from its ``record`` line and its last line, the JSON
result.  Per side the file keeps the git sha of the checkout (null for a
checkout without ``.git``), a sha-256 digest of ``src/`` (which also names
an uncommitted tree), the Python version, ``nproc``, the passes of each run,
every run's metrics, the median and quartile distance of each metric, and
the median ``peak_rss_mb`` of the runs at each pass count (the harness keeps
every item time, so peak RSS grows with the passes that fit).

With two roots, each metric of the change's summary that ``BENCHMARK.json``
gives a ``better`` direction also gets the comparison with the parent: the
pairs the change won, the median shift as a share of the parent's median,
the parent's IQR, whether the claim rule holds (at least 9 of 10 pairs won,
and a median gain larger than the parent's IQR), and, for a metric with a
``bound``, whether the change's median is within it.  Progress and the
comparison go to stderr.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 5
#: What a run needs of its checkout, copied fresh for each run.
COPIED = ("src", "perfbench", "BENCHMARK.json")


def fold(stdout: str, exit_code: int) -> dict:
    """One run's record line and final JSON line, as one entry."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    records = [line for line in lines if line.startswith("record ")]
    if not records or not lines[-1].startswith("{"):
        raise ValueError(f"run exited {exit_code} without a record and a result line")
    record = json.loads(records[-1][len("record "):])
    result = json.loads(lines[-1])
    return {
        "exit": exit_code,
        "seed": record["seed"],
        "passes": len(record["pass_s"]),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "record": record,
    }


def summarize(runs: list[dict], digest: str) -> dict:
    """One side's runs with their provenance and per-metric median and IQR."""
    def one(key):
        values = {run["record"][key] for run in runs}
        return values.pop() if len(values) == 1 else sorted(values, key=str)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": statistics.median(values), "iqr": q3 - q1}
    rss = {}
    for run in runs:
        if "peak_rss_mb" in run["metrics"]:
            rss.setdefault(run["passes"], []).append(run["metrics"]["peak_rss_mb"])
    return {
        "git_sha": one("git_sha"),
        "src_digest": digest,
        "python": one("python"),
        "nproc": one("nproc"),
        "passes": [run["passes"] for run in runs],
        "runs": runs,
        "summary": summary,
        "peak_rss_mb_by_passes": {str(k): statistics.median(v) for k, v in sorted(rss.items())},
    }


def compare(parent: dict, change: dict, spec: dict) -> dict:
    """Per metric with a ``better`` direction in spec, the change side
    against the parent side, pairing runs by seed."""
    directions = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    out = {}
    for name, before in parent["summary"].items():
        if name not in directions or name not in change["summary"]:
            continue
        sign = 1 if directions[name]["better"] == "lower" else -1
        base = {run["seed"]: run["metrics"][name] for run in parent["runs"]}
        pairs = [(base[run["seed"]], run["metrics"][name])
                 for run in change["runs"] if run["seed"] in base]
        won = sum(sign * (new - old) < 0 for old, new in pairs)
        old, new, iqr = before["median"], change["summary"][name]["median"], before["iqr"]
        claim = 10 * won >= 9 * len(pairs) and sign * (old - new) > iqr
        entry = {"pairs": len(pairs), "won": won, "shift": (new - old) / old if old else None,
                 "parent_iqr": iqr, "claim": claim}
        if "bound" in directions[name]:
            entry["within_bound"] = sign * (new - old) <= directions[name]["bound"] * abs(old)
        out[name] = entry
    return out


def src_digest(root: Path) -> str:
    """sha-256 over the relative paths and bytes of every .py file in src/."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha(root: Path) -> str | None:
    """HEAD's commit in root, or None for a checkout without .git."""
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def run_once(command: list, root: Path, workload: str, seed: int, seconds) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="bench-root-") as copy:
        for name in COPIED:
            if (root / name).is_dir():
                shutil.copytree(root / name, Path(copy) / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(root / name, copy)
        done = subprocess.run(argv, cwd=copy, capture_output=True, text=True, env=env)
    sys.stderr.write(done.stderr)
    run = fold(done.stdout, done.returncode)
    run["record"]["git_sha"] = git_sha(root)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("roots", nargs="+", type=Path)
    args = parser.parse_args(argv)
    if len(args.roots) > 2 or args.pairs < MIN_PAIRS:
        parser.error(f"give one or two roots and at least {MIN_PAIRS} pairs")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ["parent", "change"][-len(args.roots):]
    roots = dict(zip(names, (root.resolve() for root in args.roots)))
    out = {"label": args.label, "command": spec["command"],
           "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {name: [] for name in names}
        for seed in range(1, args.pairs + 1):
            order = names if seed % 2 else names[::-1]
            for name in order:
                run = run_once(spec["command"], roots[name], workload, seed, spec["run_seconds"])
                runs[name].append(run)
                print(f"{workload} seed {seed} {name}: {run['passes']} passes, "
                      f"exit {run['exit']}, {run['metrics']}", file=sys.stderr)
        sides = {name: summarize(runs[name], src_digest(roots[name])) for name in names}
        if len(names) == 2:
            for metric, entry in compare(sides["parent"], sides["change"], spec).items():
                sides["change"]["summary"][metric].update(entry)
                print(f"{workload} {metric}: {entry}", file=sys.stderr)
        out["workloads"][workload] = sides
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
