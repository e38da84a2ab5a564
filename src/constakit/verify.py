"""Exhaustive cross-checking of spectral methods against the oracle.

run_grid_verification enumerates every constacyclic code on a small
grid (all lam, all monic divisors of x^n - lam) and checks each claim
the library makes by two independent routes: sumset vs gcd vs oracle
for products, gcd-based vs exhaustive pattern extraction, reciprocal
vs nullspace duals, factored vs direct power generators, and the
bound predicates.  The report carries counts, the failure total, and
the first counterexample in full detail.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable

from . import codes as cd
from . import oracle as oc
from .field import FieldCtx, build_field
from .numbertheory import divisors, factorint
from .poly import Poly
from .zn import fourier_bias, smallest_coset


def field_for_cardinality(q: int) -> FieldCtx:
    """The canonical field with q elements; q must be a prime power."""
    if type(q) is not int:
        raise ValueError(f"field size must be an int, got {q!r}")
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fac = factorint(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p, k), = fac.items()
    return build_field(p, [] if k == 1 else [k])


class _Recorder:
    """Counts attempts and failures per check, keeping the first failure."""

    def __init__(self):
        self.checks: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.first = None

    def record(self, name: str, ok: bool, context, **extra):
        """Count one check; context() builds the details of a first failure."""
        self.checks[name] += 1
        if not ok:
            self.failed[name] += 1
            if self.first is None:
                self.first = {"check": name, **context(), **extra}


def _context(ctxinfo: dict, **codes):
    """The grid point plus each code's generator indices, built only when called."""
    return lambda: {**ctxinfo, **{k: list(c.generator.indices()) for k, c in codes.items()}}


def _divisor_codes(basis) -> list[cd.ConstaCode]:
    """Every code for this (params, basis): one per subset of orbits.

    Each is built from its generating set and checked against the code
    its generator gives through the transform.
    """
    params = basis.params
    orbits = basis.orbits()
    out = []
    for mask in range(1 << len(orbits)):
        gen_set = [j for i, orb in enumerate(orbits) if not mask >> i & 1 for j in orb]
        code = cd.code_from_generating_set(params, basis, gen_set)
        if cd.code_from_generator(params, code.generator, basis).gen_set != code.gen_set:
            raise AssertionError("support disagrees with chosen orbits")
        out.append(code)
    return out


def _check_single_code(c: cd.ConstaCode, rec: _Recorder, ctxinfo: dict) -> None:
    params = c.params
    n = params.n
    info = _context(ctxinfo, g=c)

    # block structure: G a union of cosets of <n/v> iff g uses only
    # exponents divisible by v, for every proper divisor v of n
    for v in divisors(n):
        if v == 1 or v == n:
            continue
        step = n // v
        left = all((a + step) % n in c.gen_set for a in c.gen_set)
        right = all(e % v == 0 for e, rep in enumerate(c.generator.coeffs) if rep != params.field.zero_rep)
        rec.record("block_structure", left == right, info, v=v)

    # dual: reciprocal construction vs nullspace
    dset, dual = cd.dual_generating_set(c)
    rec.record("dual_set_matches_code", dset == dual.gen_set, info)
    null_dim, null_rows = oc.oracle_dual(c)
    rec.record("dual_dim", null_dim == dual.dim, info)
    dual_rows, _ = oc.rref(params.field, oc.generator_rows(dual))
    rec.record("dual_space", dual_rows == null_rows, info)

    if c.is_zero:
        return

    pat, oracle_pat = cd.pattern_polynomial(c), oc.oracle_pattern(c)
    rec.record("pattern_methods_agree", oracle_pat == pat, info)

    # the pattern's spectral support is the smallest coset containing G
    offset, subgroup = smallest_coset(c.gen_set)
    coset = subgroup.translate(offset)
    psupp = c.basis.forward_poly(pat.polynomial()).support()
    rec.record("pattern_support_coset", psupp == coset, info)

    report = cd.bounds_report(c)
    dims, r = report["dims"], report["r"]
    rec.record("fills_iff_nondegenerate", (dims[-1] == n) == pat.is_trivial, info)
    rec.record("square_fills", report["square_fills"]["holds"], info)
    rec.record("regularity_bound", report["regularity_bound"]["holds"], info)
    # the bias record's reason by another route: the oracle's pattern and b itself
    if not oracle_pat.is_trivial:
        reason = "degenerate code"
    elif (b := fourier_bias(c.gen_set)) == 0:
        reason = "zero bias"
    elif math.log(b) <= math.log(n / c.dim):
        reason = "nonpositive denominator"
    else:
        reason = "applicable"
    rec.record("bias_bound_guarded", report["bias_bound"]["reason"] == reason, info)

    if not pat.is_trivial:
        core = cd.core_code(c)
        rec.record("core_dimension", core.dim == c.dim, info)
        rec.record("core_nondegenerate", cd.pattern_polynomial(core).is_trivial, info)
        for i in range(1, r + 2):
            ok = cd.schur_power(c, i).generator == cd.factored_power_generator(c, i)
            rec.record("factored_power", ok, info, i=i)


def run_grid_verification(
    qs: Iterable[int] = (2, 3, 5),
    n_max: int = 10,
    corrupt: bool = False,
) -> dict:
    """Enumerate the grid and cross-check everything; see module docstring.

    corrupt=True deliberately damages the first product comparison so
    the negative path (failure counting, exit codes) can be exercised.
    """
    qs = list(qs)
    if any(type(x) is not int for x in (*qs, n_max)) or n_max < 1:  # int(2.5) would run q = 2
        raise ValueError(f"field sizes must be ints and n_max an int >= 1, got {qs!r} and {n_max!r}")
    qs = sorted(set(qs))
    rec = _Recorder()
    points = 0
    codes_checked = 0
    pairs_checked = 0
    for q in qs:
        field = field_for_cardinality(q)
        for n in range(1, n_max + 1):
            if math.gcd(n, q) != 1:
                continue
            fam = cd.basis_family(field, n)
            for lam_idx in range(1, q):
                lam = field.elem(lam_idx)
                points += 1
                basis = fam.basis_for_lambda(lam)
                ctxinfo = {"q": q, "n": n, "lam": lam_idx}

                all_codes = _divisor_codes(basis)
                # The last code has every orbit in its zero set, so its
                # generator is the product of all the irreducible factors.
                rec.record(
                    "factorization_product",
                    all_codes[-1].generator == basis.params.xn_minus_lam,
                    _context(ctxinfo),
                )
                codes_checked += len(all_codes)
                for c in all_codes:
                    _check_single_code(c, rec, ctxinfo)

                oracle_cache: dict = {}
                for i, c1 in enumerate(all_codes):
                    for j, c2 in enumerate(all_codes):
                        info = _context(ctxinfo, g1=c1, g2=c2)
                        by_sum = cd.schur_product_sumset(c1, c2)
                        by_gcd = cd.schur_product_gcd(c1, c2)
                        key = (min(i, j), max(i, j))
                        if key not in oracle_cache:
                            oracle_cache[key] = oc.oracle_schur_product(c1, c2)
                        oracle_dim, oracle_gen = oracle_cache[key]
                        sum_gen = by_sum.generator
                        if corrupt and pairs_checked == 0:
                            sum_gen = sum_gen + Poly.one(field)
                        ok = sum_gen == by_gcd.generator == oracle_gen
                        rec.record("product_methods_agree", ok, info)
                        rec.record("product_dim", by_sum.dim == by_gcd.dim == oracle_dim, info)
                        rec.record("product_sets_agree", by_sum.gen_set == by_gcd.gen_set, info)
                        if not c1.is_zero and not c2.is_zero:
                            ok = cd.pattern_of_product(c1, c2) == cd.pattern_polynomial(by_sum)
                            rec.record("product_pattern", ok, info)
                        pairs_checked += 1

    return {
        "grid": {"q": qs, "n_max": n_max},
        "points": points,
        "codes_checked": codes_checked,
        "pairs_checked": pairs_checked,
        "checks": dict(sorted(rec.checks.items())),
        "failures": sum(rec.failed.values()),
        "failed_by_check": dict(sorted(rec.failed.items())),
        "first_counterexample": rec.first,
    }
