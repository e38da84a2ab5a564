"""tools/bench.py folds perfbench output; checked on canned runs, no subprocess."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def canned(seed, passes, wall, rss, sha="abc1234"):
    record = {"workload": "roundtrip", "seed": seed, "trace": 0, "git_sha": sha,
              "python": "3.11.7", "nproc": 2, "pass_s": [wall] * passes, "items": 19400}
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return "\n".join([
        "record " + json.dumps(record, sort_keys=True),
        f"{'wall_s':28} {wall:>16.6g} s",
        f"{'peak_rss_mb':28} {rss:>16.6g} MB",
        f"{'fail_ratio':28} {0:>16.6g} (0 of 19400 exact checks)",
        json.dumps({"correct": True, "attempted": 19400, "failed": 0, "metrics": metrics}),
        "",
    ])


def test_fold_reads_the_record_and_result_lines():
    run = bench.fold(canned(3, 5, 4.9, 25.5), 0)
    assert run["seed"] == 3 and run["passes"] == 5 and run["exit"] == 0
    assert run["correct"] is True and (run["attempted"], run["failed"]) == (19400, 0)
    assert run["metrics"] == {"wall_s": 4.9, "peak_rss_mb": 25.5}
    assert run["record"]["git_sha"] == "abc1234"


def test_fold_refuses_a_run_without_a_result_line():
    with pytest.raises(ValueError, match="exited 2"):
        bench.fold("no constakit sources under src\n", 2)


def test_summary_keeps_every_run_with_median_and_iqr():
    walls = [5.0, 4.0, 6.0, 5.5, 4.5]
    runs = [bench.fold(canned(i + 1, 4 + i % 2, w, 25.0 + i), 0) for i, w in enumerate(walls)]
    side = bench.summarize(runs, "digest")
    assert (side["git_sha"], side["python"], side["nproc"]) == ("abc1234", "3.11.7", 2)
    assert side["src_digest"] == "digest" and side["passes"] == [4, 5, 4, 5, 4]
    assert side["runs"] == runs
    # statistics.quantiles' default (exclusive) quartiles of 4.0 ... 6.0
    assert side["summary"]["wall_s"] == {"median": 5.0, "iqr": pytest.approx(5.75 - 4.25)}
    assert side["summary"]["peak_rss_mb"]["median"] == 27.0


def test_summary_lists_mixed_shas():
    runs = [bench.fold(canned(i, 5, 5.0, 25.0, sha), 0) for i, sha in enumerate("ab" * 3)]
    assert bench.summarize(runs, "d")["git_sha"] == ["a", "b"]


def test_summary_compares_peak_rss_at_equal_pass_counts():
    """The harness keeps every item time, so peak RSS grows with the passes
    that fit; each pass count gets its own median."""
    rss = [25.0, 26.0, 25.4, 26.2, 25.2]
    runs = [bench.fold(canned(i + 1, 4 + i % 2, 5.0, r), 0) for i, r in enumerate(rss)]
    assert bench.summarize(runs, "d")["peak_rss_mb_by_passes"] == {
        "4": 25.2, "5": pytest.approx(26.1)}
    six = bench.fold(canned(6, 6, 5.0, 27.5), 0)
    assert list(bench.summarize(runs + [six], "d")["peak_rss_mb_by_passes"]) == ["4", "5", "6"]


def test_each_run_starts_from_a_fresh_copy_without_bytecode(monkeypatch, tmp_path):
    root = tmp_path / "checkout"
    for name in ("src/constakit/__init__.py", "src/constakit/__pycache__/field.pyc",
                 "perfbench/run.py", "perfbench/__pycache__/meter.pyc", "BENCHMARK.json",
                 "README.md"):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(name)
    assert bench.git_sha(root) is None  # no .git, so no git call
    seen = []

    def fake_run(argv, cwd, capture_output, text, env):
        copy = pathlib.Path(cwd)
        seen.append(copy)
        files = sorted(str(f.relative_to(copy)) for f in copy.rglob("*") if f.is_file())
        assert files == ["BENCHMARK.json", "perfbench/run.py", "src/constakit/__init__.py"]
        assert (copy / "src/constakit/__init__.py").read_text() == "src/constakit/__init__.py"
        assert "PYTHONPYCACHEPREFIX" not in env and env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert argv[-2:] == ["--trace", "0"]
        seed = int(argv[argv.index("--seed") + 1])
        return bench.subprocess.CompletedProcess(argv, 0, canned(seed, 5, 4.9, 25.5, None), "")

    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setattr(bench, "git_sha", lambda r: f"sha of {r.name}")
    runs = [bench.run_once(["python3", "perfbench/run.py"], root, "roundtrip", s, 50)
            for s in (1, 2)]
    assert [run["seed"] for run in runs] == [1, 2]
    assert [run["record"]["git_sha"] for run in runs] == ["sha of checkout"] * 2
    first, second = seen
    assert first != second and root not in (first, second)
    assert not first.exists() and not second.exists()
    assert (root / "src/constakit/__pycache__/field.pyc").exists()


SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "oracle.cache_hit_ratio", "better": "higher"}]}


def side(walls, rss=25.0, seeds=None):
    seeds = seeds or range(1, len(walls) + 1)
    runs = [bench.fold(canned(s, 5, w, rss), 0) for s, w in zip(seeds, walls)]
    return bench.summarize(runs, "d")


def test_compare_counts_won_pairs_and_the_median_shift():
    parent = side([5.0, 5.2, 4.8, 5.1, 4.9, 5.0, 5.3, 4.7, 5.0, 5.1])
    change = side([4.5, 4.6, 4.4, 4.5, 4.4, 4.6, 4.7, 4.2, 4.5, 4.5])
    wall = bench.compare(parent, change, SPEC)["wall_s"]
    assert wall["pairs"] == 10 and wall["won"] == 10
    assert wall["shift"] == pytest.approx((4.5 - 5.0) / 5.0)
    assert wall["parent_iqr"] == parent["summary"]["wall_s"]["iqr"]
    assert wall["claim"] is True and wall["within_bound"] is True


def test_claim_needs_nine_of_ten_pairs_and_a_shift_past_the_parent_iqr():
    parent = side([5.0, 5.2, 4.8, 5.1, 4.9, 5.0, 5.3, 4.7, 5.0, 5.1])
    # a large median gain, but two pairs lost: 8 of 10
    lost_two = side([4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 5.1, 5.2])
    result = bench.compare(parent, lost_two, SPEC)["wall_s"]
    assert (result["won"], result["claim"]) == (8, False)
    # every pair won, by less than the parent's IQR (0.2 s here)
    small = side([w - 0.05 for w in [5.0, 5.2, 4.8, 5.1, 4.9, 5.0, 5.3, 4.7, 5.0, 5.1]])
    result = bench.compare(parent, small, SPEC)["wall_s"]
    assert result["won"] == 10 and result["parent_iqr"] > 0.05 and result["claim"] is False


def test_compare_reads_each_metrics_direction_and_bound():
    parent, change = side([5.0] * 10, rss=25.0), side([5.0] * 10, rss=28.0)
    rss = bench.compare(parent, change, SPEC)["peak_rss_mb"]
    assert rss["won"] == 0 and rss["shift"] == pytest.approx(0.12)
    assert rss["within_bound"] is False  # 12% worse against a 10% bound
    for s, value in ((parent, 0.5), (change, 0.6)):
        for run in s["runs"]:
            run["metrics"]["oracle.cache_hit_ratio"] = value
        s["summary"]["oracle.cache_hit_ratio"] = {"median": value, "iqr": 0.0}
    ratio = bench.compare(parent, change, SPEC)["oracle.cache_hit_ratio"]
    assert ratio["won"] == 10 and ratio["claim"] is True and "within_bound" not in ratio
    # metrics without a direction, such as the pass count, get no comparison
    change["summary"]["passes"] = parent["summary"]["passes"] = {"median": 5, "iqr": 0}
    assert "passes" not in bench.compare(parent, change, SPEC)


def test_compare_pairs_runs_by_seed():
    parent = side([5.0, 6.0, 7.0, 8.0, 9.0])
    # each change run is 0.5 s faster than the parent run of its seed, though
    # pairing by position would call two of the five lost; seed 9 has no pair
    change = side([7.5, 6.5, 5.5, 4.5, 1.0], seeds=[4, 3, 2, 1, 9])
    wall = bench.compare(parent, change, SPEC)["wall_s"]
    assert wall["pairs"] == 4 and wall["won"] == 4


def test_main_adds_the_comparison_to_the_change_summary(monkeypatch, tmp_path, capsys):
    spec = dict(SPEC, command=["python3", "perfbench/run.py"], run_seconds=50,
                workloads=[{"name": "roundtrip"}])
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    roots = []
    for name in ("parent", "change"):
        (tmp_path / name / "src").mkdir(parents=True)
        roots.append(str(tmp_path / name))
    walls = {"parent": 5.0, "change": 4.0}

    def fake_run_once(command, root, workload, seed, seconds):
        return bench.fold(canned(seed, 5, walls[root.name] + seed / 100, 25.0), 0)

    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "run_once", fake_run_once)
    assert bench.main(["--label", "t", *roots]) == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["roundtrip"]
    wall = out["change"]["summary"]["wall_s"]
    assert (wall["won"], wall["pairs"], wall["claim"]) == (5, 5, True)
    assert "won" not in out["parent"]["summary"]["wall_s"]
    assert "roundtrip wall_s:" in capsys.readouterr().err
