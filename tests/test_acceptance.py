"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Every numeric claim here is exact (field arithmetic has no rounding);
the only tolerances are the runtime budgets, which are asserted as
hard limits: 30 s for the transform round trip, 300 s for the method
equivalence grid.  Run with `pytest -v tests/test_acceptance.py` to
see the per-criterion verdict lines.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from constakit import (
    CodeParams,
    Poly,
    bounds_report,
    build_basis,
    build_field,
    code_from_generator,
    dimension_sequence,
    dual_generating_set,
    oracle_dual,
    oracle_pattern,
    oracle_schur_product,
    pattern_polynomial,
    run_grid_verification,
    schur_product_gcd,
    schur_product_sumset,
)
from constakit.cdft import RootBasis
from constakit.oracle import generator_rows, rref


def _verdict(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def grid_report():
    t0 = time.time()
    report = run_grid_verification(qs=(2, 3, 5), n_max=10)
    report["elapsed"] = time.time() - t0
    return report


def test_criterion_1_transform_round_trip():
    grid = {2: (2, []), 3: (3, []), 4: (2, [2]), 5: (5, []), 9: (3, [2])}
    rng = random.Random(20260819)
    t0 = time.time()
    points = checked = 0
    for q, (p, degs) in grid.items():
        field = build_field(p, degs)
        for n in range(1, 17):
            if math.gcd(n, q) != 1:
                continue
            for lam in field.elements():
                if lam.is_zero:
                    continue
                basis = build_basis(CodeParams(field, n, lam))
                spl = basis.splitting
                for _ in range(100):
                    a = [field.elem(rng.randrange(q)) for _ in range(n)]
                    back = basis.forward(a).inverse()
                    assert all(x == y.lift(spl) for x, y in zip(back, a))
                    checked += 1
                points += 1
    elapsed = time.time() - t0
    _verdict(
        "criterion 1 round trip",
        points == 194 and elapsed < 30.0,
        f"{checked} vectors over {points} (q,n,lambda) points, exact, {elapsed:.1f}s < 30s",
    )


def test_criterion_2_method_equivalence(grid_report):
    r = grid_report
    clean = all(
        r["failed_by_check"].get(name, 0) == 0
        for name in ("product_methods_agree", "product_dim", "product_sets_agree")
    )
    ok = (
        clean
        and r["checks"]["product_methods_agree"] == r["pairs_checked"]
        and r["pairs_checked"] > 0
        and r["elapsed"] < 300.0
    )
    _verdict(
        "criterion 2 method equivalence",
        ok,
        f"sumset = gcd = oracle on {r['pairs_checked']} ordered pairs, "
        f"0 failures, {r['elapsed']:.1f}s < 300s",
    )


def test_criterion_3_worked_example_negacyclic():
    f3 = build_field(3, [])
    params = CodeParams(f3, 4, f3.elem(2))
    basis = build_basis(params)
    c = code_from_generator(params, Poly(f3, [2, 1, 1]))
    sq = schur_product_sumset(c, c)
    dims, reg = dimension_sequence(c)
    rep = bounds_report(c)
    checks = [
        basis.frobenius_shift == 1,
        basis.orbits() == ((0, 1), (2, 3)),
        c.gen_set.elements == (2, 3),
        sq.params.lam == f3.one(),
        sq.generator == Poly(f3, [2, 1]),
        sq.dim == 3,
        sq.generator == schur_product_gcd(c, c).generator,
        (dims, reg) == ((2, 3, 4), 3),
        rep["regularity_bound"]["bound"] == 4.0,
        rep["regularity_bound"]["holds"] is True,
    ]
    _verdict(
        "criterion 3 worked example q=3 n=4",
        all(checks),
        "t=1, orbits {{0,1},{2,3}}, G={2,3}, square = <x-1> dim 3 cyclic, "
        "dims (2,3,4) r=3, bound 4 holds",
    )


def test_criterion_4_worked_example_hamming():
    f2 = build_field(2, [])
    params = CodeParams(f2, 7, f2.one())
    c = code_from_generator(params, Poly(f2, [1, 1, 0, 1]))
    sq = schur_product_sumset(c, c)
    dset, dual = dual_generating_set(c)
    null_dim, null_rows = oracle_dual(c)
    dual_rows, _ = rref(f2, generator_rows(dual))
    checks = [
        c.gen_set.elements == (0, 3, 5, 6),
        sq.dim == 7 and sq.is_full,
        oracle_schur_product(c, c) == (7, Poly.one(f2)),
        dset.elements == (3, 5, 6),
        dual.dim == 3 and null_dim == 3,
        dual_rows == null_rows,
    ]
    _verdict(
        "criterion 4 worked example q=2 n=7",
        all(checks),
        "G={0,3,5,6}, square fills F_2^7, dual set {3,5,6}, oracle dual dim 3",
    )


def test_criterion_5_pattern_machinery(grid_report):
    r = grid_report
    clean = all(
        r["failed_by_check"].get(name, 0) == 0
        for name in ("pattern_methods_agree", "pattern_support_coset", "fills_iff_nondegenerate")
    )
    f5 = build_field(5, [])
    c = code_from_generator(CodeParams(f5, 4, f5.one()), Poly(f5, [1, 0, 1]))
    pat = pattern_polynomial(c)
    witness = (
        (pat.v, pat.alpha) == (2, f5.one())
        and oracle_pattern(c) == pat
        and dimension_sequence(c) == ((2,), 1)
    )
    ok = clean and witness and r["checks"]["pattern_methods_agree"] > 0
    _verdict(
        "criterion 5 pattern machinery",
        ok,
        f"gcd-based pattern = exhaustive oracle on {r['checks']['pattern_methods_agree']} codes, "
        "support = smallest coset, fills iff non-degenerate, witness (v=2, alpha=1) seq (2)",
    )


def test_criterion_6_factored_powers_and_product_patterns(grid_report):
    r = grid_report
    clean = (
        r["failed_by_check"].get("factored_power", 0) == 0
        and r["failed_by_check"].get("product_pattern", 0) == 0
    )
    ok = clean and r["checks"]["factored_power"] > 0 and r["checks"]["product_pattern"] > 0
    _verdict(
        "criterion 6 factored powers / product patterns",
        ok,
        f"{r['checks']['factored_power']} factored power generators and "
        f"{r['checks']['product_pattern']} product patterns match exactly",
    )


def test_criterion_7_bounds(grid_report):
    r = grid_report
    clean = (
        r["failed_by_check"].get("square_fills", 0) == 0
        and r["failed_by_check"].get("regularity_bound", 0) == 0
        and r["failed_by_check"].get("bias_bound_guarded", 0) == 0
    )
    # the bias bound never applies; verify recomputes its record's reason
    # from the oracle's pattern and the Fourier bias b
    guarded = r["checks"].get("bias_bound_guarded", 0) > 0
    _verdict(
        "criterion 7 bounds",
        clean and guarded,
        f"square-fill and regularity bounds hold on {r['checks']['square_fills']} codes; "
        f"bias bound reason confirmed on {r['checks']['bias_bound_guarded']}",
    )


def test_criterion_8_reversal_identity():
    rng = random.Random(1405)
    identity_points = control_points = control_failures = 0
    for q in (2, 3, 5):
        field = build_field(q, [])
        for n in range(1, 11):
            if math.gcd(n, q) != 1:
                continue
            for lam in field.elements():
                if lam.is_zero:
                    continue
                basis = build_basis(CodeParams(field, n, lam))
                rev = RootBasis(basis.family, -basis.beta_exp)
                assert rev.params.lam == lam.inverse()
                # swapping beta for beta^-1 changes the transform matrix
                # iff some entry (xi^j beta)^i with i < n moves, i.e. n >= 2
                # and beta^2 != 1; elsewhere the control cannot fire
                beta_sq_one = basis.delta_pow(2 * basis.beta_exp) == basis.splitting.one()
                control_applies = n >= 2 and not beta_sq_one
                vectors = [
                    [field.elem(rng.randrange(q)) for _ in range(n)] for _ in range(100)
                ]
                for a in vectors:
                    A = basis.forward(a).values
                    B = rev.forward(list(reversed(a))).values
                    for j in range(n):
                        scale = basis.delta_pow(basis.beta_exp * (1 - n) - basis.xi_exp * j)
                        assert B[j] == A[(n - j) % n] * scale
                identity_points += 1
                if not control_applies:
                    continue
                # negative control: with beta in place of beta^{-1} the
                # identity must break for at least one sampled vector
                control_points += 1
                broken = False
                for a in vectors:
                    A = basis.forward(a).values
                    Bwrong = basis.forward(list(reversed(a))).values
                    for j in range(n):
                        scale = basis.delta_pow(basis.beta_exp * (1 - n) - basis.xi_exp * j)
                        if Bwrong[j] != A[(n - j) % n] * scale:
                            broken = True
                            break
                    if broken:
                        break
                if not broken:
                    control_failures += 1
    ok = identity_points == 51 and control_points > 0 and control_failures == 0
    _verdict(
        "criterion 8 reversal identity",
        ok,
        f"exact on 100 vectors at {identity_points} grid points; negative control "
        f"(beta for beta^-1) broke at all {control_points} points where the swap moves the map",
    )


def test_criterion_9_cli_verify_exit_codes(cli_env):
    base = [sys.executable, "-m", "constakit.cli", "verify"]
    good = subprocess.run(base, capture_output=True, text=True, env=cli_env)
    good_doc = json.loads(good.stdout)
    bad = subprocess.run(
        base + ["--grid-q", "[2,3]", "--grid-n", "5", "--inject-corruption"],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    bad_doc = json.loads(bad.stdout)
    ok = (
        good.returncode == 0
        and good_doc["failures"] == 0
        and bad.returncode == 1
        and bad_doc["failures"] >= 1
    )
    _verdict(
        "criterion 9 cmd_verify exit codes",
        ok,
        f"default grid exit 0 with {good_doc['pairs_checked']} pairs clean; "
        f"corruption hook exit 1 with {bad_doc['failures']} failure(s)",
    )
