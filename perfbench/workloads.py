"""The benchmark's workloads: what each sets up, runs in one pass, and checks.

Each workload has a ``setup`` that fills the process-wide caches a user's
session fills on first use (fields, basis families, family bases) and a
``run_pass(rng, checks, meter)`` that does one closed-loop pass of user
work on one thread.  A pass draws its inputs from ``rng``, hands the raw
time of each item (one unit of user-visible work) to ``meter.item`` and
records every exact check in ``checks``.  Everything is called through constakit's public
names, looked up at call time, so a tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from time import perf_counter

import constakit as ck
from constakit import cli


class Checks:
    """Exact checks attempted and failed.

    Every failure is counted; the first few are also described on stderr.
    """

    SHOWN = 10

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, where) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= self.SHOWN:
                print(f"check failed: {where}", file=sys.stderr)

    def add(self, attempted: int, failed: int, where) -> None:
        """Fold in a batch of checks another component ran and counted."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            print(f"{failed} checks failed: {where}", file=sys.stderr)


# -- roundtrip: acceptance criterion 1, the transform workload -------------

#: q -> (p, extension degrees) of the base field.
ROUNDTRIP_FIELDS = {2: (2, []), 3: (3, []), 4: (2, [2]), 5: (5, []), 9: (3, [2])}
ROUNDTRIP_MAX_N = 16
VECTORS_PER_POINT = 100


def _roundtrip_points():
    for q, (p, degrees) in ROUNDTRIP_FIELDS.items():
        field = ck.build_field(p, degrees)
        for n in range(1, ROUNDTRIP_MAX_N + 1):
            if math.gcd(n, q) != 1:
                continue
            for lam in field.elements():
                if not lam.is_zero:
                    yield ck.CodeParams(field, n, lam)


def roundtrip_setup() -> None:
    # build_basis is not cached, so only the splitting fields are built here.
    for params in _roundtrip_points():
        if params.splitting_degree > 1:
            params.field.extend(params.splitting_degree)


def roundtrip_pass(rng, checks: Checks, meter) -> None:
    bases = [ck.build_basis(params) for params in _roundtrip_points()]
    # One vector per point per round: each point's items, including the slow
    # ones behind p99, are spread over the whole pass rather than bunched
    # into one stretch of it, so a burst of machine noise cannot own them.
    for _ in range(VECTORS_PER_POINT):
        for basis in bases:
            params = basis.params
            field, q, n = params.field, params.q, params.n
            a = [field.elem(rng.randrange(q)) for _ in range(n)]
            start = perf_counter()
            back = basis.forward(a).inverse()
            ok = len(back) == n and all(x == y.lift(basis.splitting) for x, y in zip(back, a))
            meter.item(perf_counter() - start)
            checks.record(ok, ("roundtrip", q, n, params.lam, a))


# -- verify_grid: `constakit verify` on its default grid -------------------

VERIFY_QS = (2, 3, 5)
VERIFY_MAX_N = 10
VERIFY_PAIRS = 7176


def verify_setup() -> None:
    for q in VERIFY_QS:
        field = ck.field_for_cardinality(q)
        for n in range(1, VERIFY_MAX_N + 1):
            if math.gcd(n, q) == 1:
                family = ck.basis_family(field, n)
                for s in range(family.delta_order):
                    family.basis_for_exponent(s)


def verify_pass(rng, checks: Checks, meter) -> None:
    # The grid is a fixed enumeration: there is nothing for rng to draw.
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        status = cli.main(["verify"])
    meter.item(perf_counter() - start)
    report = json.loads(out.getvalue())
    checks.add(sum(report["checks"].values()), report["failures"], report["first_counterexample"])
    checks.record(
        status == 0 and report["failures"] == 0 and report["pairs_checked"] == VERIFY_PAIRS,
        ("verify", status, report["failures"], report["pairs_checked"]),
    )


# -- large_n: factoring and products over F_2 at growing n ------------------

#: n -> (orbit size, codes drawn, orbits per code).  Zero sets are drawn only
#: among orbits of the given size, so the seed changes which codes are drawn
#: but not how much work they take.  Every size is the commonest orbit size
#: of j -> 2j on Z_n.
LARGE_N = {63: (6, 4, 2), 255: (8, 32, 2), 1001: (60, 2, 1)}
#: The oracle is run at this length only; at n = 255 it alone takes seconds.
ORACLE_N = 63


def _large_basis(n: int):
    f2 = ck.build_field(2, [])
    return ck.basis_family(f2, n).basis_for_lambda(f2.one())


def large_setup() -> None:
    for n in LARGE_N:
        _large_basis(n)


def _factor_item(n: int, checks: Checks) -> None:
    basis = _large_basis(n)
    f2 = basis.params.field
    product = ck.Poly.one(f2)
    for factor in basis.irreducible_factors():
        product = product * factor
    checks.record(product == ck.Poly.monomial(f2, n) - ck.Poly.one(f2), ("factor", n))


def _code_item(n: int, gen_set: list, partner, checks: Checks):
    """Build a code, rebuild it, and multiply it by partner (or by itself)."""
    params = _large_basis(n).params
    code = ck.code_from_generating_set(params, None, gen_set)
    again = ck.code_from_generator(params, code.generator)
    partner = partner or code
    by_sum = ck.schur_product_sumset(code, partner)
    by_gcd = ck.schur_product_gcd(code, partner)
    agree = by_sum.generator == by_gcd.generator and by_sum.gen_set == by_gcd.gen_set
    if n == ORACLE_N:
        dim, gen = ck.oracle_schur_product(code, partner)
        agree = agree and gen == by_sum.generator and dim == by_sum.dim
    checks.record(again == code and again.gen_set == code.gen_set, ("rebuild", n, gen_set))
    checks.record(agree, ("product", n, gen_set, partner.gen_set))
    return code


def large_pass(rng, checks: Checks, meter) -> None:
    # Items run in a seeded random order, so the items of each n are spread
    # over the pass instead of bunched between the long n = 1001 ones.
    tasks = [(n, None) for n in LARGE_N]
    for n, (size, count, per_code) in LARGE_N.items():
        orbits = [orb for orb in _large_basis(n).orbits() if len(orb) == size]
        for _ in range(count):
            zeros = {j for orb in rng.sample(orbits, per_code) for j in orb}
            tasks.append((n, [j for j in range(n) if j not in zeros]))
    rng.shuffle(tasks)
    previous = {}
    for n, gen_set in tasks:
        start = perf_counter()
        if gen_set is None:
            _factor_item(n, checks)
        else:
            previous[n] = _code_item(n, gen_set, previous.get(n), checks)
        meter.item(perf_counter() - start)


#: name -> (setup, run_pass)
WORKLOADS = {
    "roundtrip": (roundtrip_setup, roundtrip_pass),
    "verify_grid": (verify_setup, verify_pass),
    "large_n": (large_setup, large_pass),
}
