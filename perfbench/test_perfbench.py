"""The benchmark's own tests: exact checks count, wrappers reach every layer.

Run with ``python3 -m pytest -q perfbench``; the traced runs take minutes.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: layer metric -> workloads whose traced run must read it nonzero.
MAPPED = {
    **{f"field.{m}.{k}": ("roundtrip",) for m in ("mul.calls", "mul_ns", "add.calls")
       for k in ("prime", "tabulated")},
    **{f"field.{m}.vector": ("roundtrip", "large_n") for m in ("mul.calls", "mul_ns", "add.calls")},
    "field.inv.calls": ("roundtrip", "large_n"),
    "field.build_s": ("roundtrip", "verify_grid", "large_n"),
    "field.find_order_s": ("roundtrip", "verify_grid", "large_n"),
    "numbertheory.s": ("roundtrip", "verify_grid", "large_n"),
    "poly.mul.calls": ("large_n",),
    "poly.mul.s": ("large_n",),
    **{f"poly.{m}.{x}": ("verify_grid", "large_n") for m in ("divmod", "gcd") for x in ("calls", "s")},
    "zn.sumset.calls": ("verify_grid",),
    "zn.sumset.s": ("verify_grid",),
    "zn.coset_bias.s": ("verify_grid",),
    "cdft.inverse.calls": ("roundtrip",),
    "cdft.inverse.s": ("roundtrip",),
    "cdft.forward.calls": ("roundtrip", "verify_grid"),
    "cdft.forward.s": ("roundtrip", "verify_grid"),
    "cdft.build_basis.calls": ("roundtrip",),
    "cdft.build_basis.s": ("roundtrip",),
    "cdft.family.s": ("verify_grid", "large_n"),
    "cdft.factors.s": ("large_n",),
    "codes.product_gcd.s": ("verify_grid", "large_n"),
    "codes.product_sumset.s": ("verify_grid", "large_n"),
    **{f"codes.{m}.s": ("verify_grid",)
       for m in ("from_generator", "from_gen_set", "dual", "powers", "pattern", "bounds")},
    **{name: ("verify_grid",) for name in (
        "oracle.product.calls", "oracle.product.s", "oracle.rref.calls", "oracle.rref.rows",
        "oracle.rref.s", "oracle.dual.s", "oracle.pattern.s", "oracle.cache_hit_ratio",
        "verify.self_s", "verify.pairs", "verify.checks", "cli.self_s")},
}


def _run(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return done.returncode, done.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@functools.cache
def _traced(workload: str, seed: int = 1) -> dict:
    status, out = _run("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert status == 0, out
    result = _result(out)
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


def _self_times(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if UNITS[k] == "s" and k != "trace.overhead_s"}


def test_benchmark_json_names_what_the_runner_measures():
    assert set(MAPPED) | {"trace.overhead_s"} == set(UNITS)
    # large_n runs by hand only; see the README.
    assert {w["name"] for w in SPEC["workloads"]} == {"roundtrip", "verify_grid"}
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "wall_s", "item_p50_ms", "item_p99_ms", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", ["roundtrip", "verify_grid", "large_n"])
def test_every_mapped_layer_metric_reads_nonzero(workload):
    metrics = _traced(workload)
    silent = [name for name, where in MAPPED.items() if workload in where and not metrics[name]]
    assert not silent


def test_traced_runs_reproduce_the_known_split():
    roundtrip = _self_times(_traced("roundtrip"))
    assert max(roundtrip, key=roundtrip.get) == "cdft.inverse.s"

    verify = _self_times(_traced("verify_grid"))
    gcd_product = verify.pop("codes.product_gcd.s") + verify.pop("poly.gcd.s")
    assert gcd_product > max(verify.values())
    assert _traced("verify_grid")["oracle.cache_hit_ratio"] == 1 - 3764 / 7176

    large = _self_times(_traced("large_n"))
    assert large["cdft.factors.s"] + large["poly.mul.s"] > 0.5 * sum(large.values())


def test_large_n_work_does_not_depend_on_the_seed():
    one = _traced("large_n")["field.mul.calls.vector"]
    two = _traced("large_n", 2)["field.mul.calls.vector"]
    # Generator weights still vary with the draw, and with them the forward
    # transform work: across seeds 1-5 the count spans 4.7%.
    assert abs(one - two) <= 0.05 * max(one, two)


def test_a_corrupted_result_is_counted_and_fails_the_run(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    from constakit.cdft import RootBasis

    inverse = RootBasis.inverse

    def corrupted(self, values):
        out = inverse(self, values)
        return (out[0] + self.splitting.one(),) + out[1:]

    monkeypatch.setattr(RootBasis, "inverse", corrupted)
    status = run.main(["--workload", "roundtrip", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = _result(capsys.readouterr().out)
    assert status == 1
    assert not result["correct"]
    assert result["failed"] > 0 and result["failed"] / result["attempted"] > 0


def test_without_sources_the_runner_refuses(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    status, out = _run("--workload", "roundtrip", "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=tmp_path)
    assert status == 2
    assert out == ""
