import contextlib
import hashlib
import os
import sys
import threading
from collections import Counter

import pytest

from constakit import build_field, field_for_cardinality, run_grid_verification
from constakit import codes as cd
from constakit import oracle as oc
from constakit import verify as vf
from constakit.cli import main


def test_field_for_cardinality():
    assert field_for_cardinality(7) is build_field(7, [])
    assert field_for_cardinality(9) is build_field(3, [2])
    assert field_for_cardinality(8) is build_field(2, [3])
    for bad in (1, 6, 12, 0):
        with pytest.raises(ValueError):
            field_for_cardinality(bad)


def test_small_grid_clean():
    report = run_grid_verification(qs=(2, 3), n_max=4)
    assert report["failures"] == 0
    assert report["first_counterexample"] is None
    assert report["points"] == 8  # q=2: n in {1,3}; q=3: n in {1,2,4}, two lambdas
    assert report["pairs_checked"] > 0
    # every check family ran at least once
    for name in (
        "product_methods_agree",
        "pattern_methods_agree",
        "pattern_support_coset",
        "fills_iff_nondegenerate",
        "dual_space",
        "factorization_product",
        "square_fills",
        "regularity_bound",
    ):
        assert report["checks"][name] > 0, name


def test_degenerate_checks_fire():
    # n=4 over F_3 and n=4/8 over F_5 contain degenerate codes
    report = run_grid_verification(qs=(3, 5), n_max=8)
    assert report["failures"] == 0
    assert report["checks"]["factored_power"] > 0
    assert report["checks"]["core_nondegenerate"] > 0
    assert report["checks"]["product_pattern"] > 0
    assert report["checks"]["block_structure"] > 0


def test_trivial_grid():
    report = run_grid_verification(qs=(2,), n_max=1)
    assert report["failures"] == 0
    assert report["points"] == 1
    assert report["codes_checked"] == 2  # zero code and full space


def test_corruption_hook_counts_failures():
    report = run_grid_verification(qs=(2,), n_max=3, corrupt=True)
    assert report["failures"] >= 1
    first = report["first_counterexample"]
    assert first["check"] == "product_methods_agree"
    assert {"q", "n", "lam", "g1", "g2"} <= set(first)


def test_rejects_bad_grid(monkeypatch):
    with pytest.raises(ValueError):
        run_grid_verification(qs=(6,), n_max=3)
    with pytest.raises(ValueError):
        run_grid_verification(qs=(2,), n_max=0)
    # int(2.5) would run the q = 2 grid, and range(1, 4.0) would raise
    # TypeError; both are refused before any field is built.
    monkeypatch.setattr(vf, "field_for_cardinality", None)
    for qs, n_max in (((2.5,), 3), ((2,), 3.0)):
        with pytest.raises(ValueError, match="must be ints"):
            run_grid_verification(qs=qs, n_max=n_max)


@pytest.mark.parametrize(
    "argv, status, md5",
    [
        (["verify"], 0, "fecb12f600de01ea8de55c929537ff7e"),
        (
            ["verify", "--grid-q", "3", "--grid-n", "5", "--inject-corruption"],
            1,
            "ad4cba290252c4cb93d96f1e28ffe15d",
        ),
    ],
    ids=["default_grid", "corruption"],
)
def test_verify_stdout_is_pinned(capsys, argv, status, md5):
    """The default grid is the benchmarked workload; the corruption run pins
    how first_counterexample is rendered."""
    assert main(argv) == status
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == md5


def test_default_grid_runs_each_route_a_pinned_number_of_times(monkeypatch):
    """A speedup must not come from skipping work: over the shares of any
    worker count, the default grid takes the oracle once per distinct
    unordered pair of codes at a point, each spectral product once per
    ordered pair, and every unit exactly once.  The shares run in-process,
    so every call is counted here, whichever worker made it."""
    calls, units = Counter(), Counter()
    for module, name in (
        (oc, "oracle_schur_product"),
        (cd, "schur_product_gcd"),
        (cd, "schur_product_sumset"),
    ):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            if _name == "oracle_schur_product":
                units[args] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)

    def code_unit(c, rec, ctxinfo, _fn=vf._check_single_code):
        units[c] += 1
        return _fn(c, rec, ctxinfo)

    monkeypatch.setattr(vf, "_check_single_code", code_unit)
    for workers in (1, 2, 3):
        calls.clear()
        units.clear()
        shares = [vf._run_share([2, 3, 5], 10, False, w, workers) for w in range(workers)]
        assert sum(share.pairs for share in shares) == 7176
        assert calls == {
            "oracle_schur_product": 3764,
            "schur_product_gcd": 7176,
            "schur_product_sumset": 7176,
        }
        assert {(share.points, share.codes) for share in shares} == {(51, 352)}
        assert sum(share.checks["factorization_product"] for share in shares) == 51
        assert len(units) == 3764 + 352 and set(units.values()) == {1}


def _failing_patterns(c1, c2, _fn=cd.pattern_of_product):
    """pattern_of_product, wrong on a scattered fifth of the pairs."""
    if hash((tuple(c1.gen_set), tuple(c2.gen_set))) % 5 == 0:
        return None
    return _fn(c1, c2)


def test_forked_report_equals_one_worker(monkeypatch):
    """The report, first counterexample included, is the same for any worker
    count; the scattered pattern failures land in every share."""
    runs = [((2, 3, 5), 10, False), ((4, 7), 8, False), ((8, 9), 6, False), ((3,), 5, True)]
    by_workers = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(vf, "_worker_count", lambda: workers)
        by_workers.append([run_grid_verification(*run) for run in runs])
    with monkeypatch.context() as patched:
        patched.setattr(cd, "pattern_of_product", _failing_patterns)
        assert all(vf._run_share([2, 3, 4], 6, False, w, 3).failed for w in range(3))
        for workers, reports in zip((1, 2, 3), by_workers):
            monkeypatch.setattr(vf, "_worker_count", lambda: workers)
            reports.append(run_grid_verification((2, 3, 4), 6))
    assert by_workers[0][-1]["failures"] > 3
    assert by_workers[0] == by_workers[1] == by_workers[2]


@contextlib.contextmanager
def _caller_only():
    """A forked worker that came back out of run_grid_verification would go
    on running the test session; stop it here, and say so on fd 2."""
    parent = os.getpid()
    try:
        yield
    finally:
        if os.getpid() != parent:
            os.write(2, b"a verify worker returned into its caller\n")
            os._exit(0)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_an_exception_in_any_share_reaches_the_caller(monkeypatch, where):
    """A worker's exception is raised again, with its type and message, once
    every child is reaped; when the caller's own share raises, it kills and
    reaps the workers first."""
    parent = os.getpid()

    def refusing(*args, _fn=oc.oracle_schur_product):
        if (os.getpid() == parent) == (where == "caller"):
            raise AssertionError(f"oracle refused in the {where}")
        return _fn(*args)

    monkeypatch.setattr(vf, "_worker_count", lambda: 2)
    monkeypatch.setattr(oc, "oracle_schur_product", refusing)
    with _caller_only(), pytest.raises(AssertionError, match=f"^oracle refused in the {where}$"):
        run_grid_verification(qs=(2,), n_max=3)
    _no_child_left()


@pytest.mark.parametrize("leave", [lambda: os._exit(3), sys.exit], ids=["os_exit", "sys_exit"])
def test_a_worker_that_dies_without_a_result_raises_runtime_error(monkeypatch, leave):
    parent = os.getpid()

    def dying(*args, _fn=oc.oracle_schur_product):
        if os.getpid() != parent:
            leave()
        return _fn(*args)

    monkeypatch.setattr(vf, "_worker_count", lambda: 2)
    monkeypatch.setattr(oc, "oracle_schur_product", dying)
    with _caller_only(), pytest.raises(RuntimeError, match="verify worker 1 exited without a result"):
        run_grid_verification(qs=(2,), n_max=3)
    _no_child_left()


def test_a_forked_run_writes_one_rendering_and_leaves_no_process(monkeypatch, capfd):
    """Workers leave through os._exit: they write nothing to fd 1 or 2, flush
    no buffer of the caller's and never return into it."""
    monkeypatch.setattr(vf, "_worker_count", lambda: 2)
    with _caller_only():
        assert main(["verify"]) == 0
    out, err = capfd.readouterr()
    assert err == ""
    assert hashlib.md5(out.encode()).hexdigest() == "fecb12f600de01ea8de55c929537ff7e"
    _no_child_left()


def test_worker_count_is_one_without_fork_or_beside_another_thread(monkeypatch):
    assert 1 <= vf._worker_count() <= 8
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert vf._worker_count() == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    monkeypatch.delattr(os, "fork")
    assert vf._worker_count() == 1
