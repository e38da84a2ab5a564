import hashlib
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
    """A speedup must not come from skipping work: the default grid takes the
    oracle once per distinct unordered pair of codes at a point, and each
    spectral product once per ordered pair."""
    calls = Counter()
    for module, name in (
        (oc, "oracle_schur_product"),
        (cd, "schur_product_gcd"),
        (cd, "schur_product_sumset"),
    ):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    assert run_grid_verification()["pairs_checked"] == 7176
    assert calls == {
        "oracle_schur_product": 3764,
        "schur_product_gcd": 7176,
        "schur_product_sumset": 7176,
    }
