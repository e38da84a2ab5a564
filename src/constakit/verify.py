"""Exhaustive cross-checking of spectral methods against the oracle.

run_grid_verification enumerates every constacyclic code on a small
grid (all lam, all monic divisors of x^n - lam) and checks each claim
the library makes by two independent routes: sumset vs gcd vs oracle
for products, gcd-based vs exhaustive pattern extraction, reciprocal
vs nullspace duals, factored vs direct power generators, and the
bound predicates.  The report carries counts, the failure total, and
the first counterexample in full detail.

The grid is a fixed sequence of units; at each point the factorization
check, one unit per code, then one per unordered pair {i <= j} (the
oracle once, the checks of both ordered pairs).  Worker w of W takes the
units with index w mod W: the caller runs share 0 and forks the others.
Counts add up, and the first counterexample is the failure at the
smallest serial position (point, phase, i, j), so W never shows.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from collections import Counter
from collections.abc import Iterable

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
    """One share's counts, and as ``first`` its failure at the smallest serial
    position (point, phase, i, j) with its details; ``at`` is the current one."""

    def __init__(self):
        self.points = self.codes = self.pairs = 0
        self.checks: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.at = self.first = None

    def record(self, name: str, ok: bool, context, **extra):
        """Count one check; context() builds the details of a first failure."""
        self.checks[name] += 1
        if not ok:
            self.failed[name] += 1
            if self.first is None or self.at < self.first[0]:
                self.first = (self.at, {"check": name, **context(), **extra})


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


def _run_share(qs: list, n_max: int, corrupt: bool, w: int, workers: int) -> _Recorder:
    """Worker w's share: it builds and counts every code, and checks its units."""
    rec = _Recorder()
    owned = (u % workers == w for u in itertools.count())
    for q in qs:
        field = field_for_cardinality(q)
        for n in range(1, n_max + 1):
            if math.gcd(n, q) != 1:
                continue
            fam = cd.basis_family(field, n)
            for lam_idx in range(1, q):
                point = rec.points
                rec.points += 1
                basis = fam.basis_for_lambda(field.elem(lam_idx))
                ctxinfo = {"q": q, "n": n, "lam": lam_idx}
                all_codes = _divisor_codes(basis)
                rec.codes += len(all_codes)
                if next(owned):
                    # The last code has every orbit in its zero set, so its
                    # generator is the product of all the irreducible factors.
                    rec.at = (point, 0, 0, 0)
                    ok = all_codes[-1].generator == basis.params.xn_minus_lam
                    rec.record("factorization_product", ok, _context(ctxinfo))
                for i, c in enumerate(all_codes):
                    if next(owned):
                        rec.at = (point, 1, i, 0)
                        _check_single_code(c, rec, ctxinfo)
                for i, j in itertools.combinations_with_replacement(range(len(all_codes)), 2):
                    if not next(owned):
                        continue
                    oracle_dim, oracle_gen = oc.oracle_schur_product(all_codes[i], all_codes[j])
                    for a, b in dict.fromkeys([(i, j), (j, i)]):
                        c1, c2 = all_codes[a], all_codes[b]
                        rec.at = (point, 2, a, b)
                        info = _context(ctxinfo, g1=c1, g2=c2)
                        by_sum = cd.schur_product_sumset(c1, c2)
                        by_gcd = cd.schur_product_gcd(c1, c2)
                        sum_gen = by_sum.generator
                        if corrupt and rec.at == (0, 2, 0, 0):
                            sum_gen = sum_gen + Poly.one(field)
                        ok = sum_gen == by_gcd.generator == oracle_gen
                        rec.record("product_methods_agree", ok, info)
                        rec.record("product_dim", by_sum.dim == by_gcd.dim == oracle_dim, info)
                        rec.record("product_sets_agree", by_sum.gen_set == by_gcd.gen_set, info)
                        if not c1.is_zero and not c2.is_zero:
                            ok = cd.pattern_of_product(c1, c2) == cd.pattern_polynomial(by_sum)
                            rec.record("product_pattern", ok, info)
                        rec.pairs += 1
    return rec


def _worker_count() -> int:
    """Usable CPUs, at most 8; 1 without fork or while another thread runs."""
    threads = sys.modules.get("threading")
    if not hasattr(os, "fork") or threads and threads.active_count() > 1:
        return 1  # a forked child keeps only the calling thread
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return min(len(cpus), 8)


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
    workers = _worker_count()
    children = []
    try:
        for w in range(1, workers):
            import pickle
            read_fd, write_fd = os.pipe()
            if (pid := os.fork()) == 0:
                try:  # worker w writes its share, or its exception, as one pickle
                    try:
                        share = _run_share(qs, n_max, corrupt, w, workers)
                    except Exception as exc:
                        share = exc
                    with os.fdopen(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(share))
                finally:  # never return into the caller, flush its buffers or run its atexit hooks
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, read_fd))
        rec = _run_share(qs, n_max, corrupt, 0, workers)
    except BaseException:
        import signal
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        ends = []
        for pid, read_fd in children:
            with os.fdopen(read_fd, "rb") as pipe:
                ends.append((pipe.read(), os.waitpid(pid, 0)[1]))
    for w, (data, status) in enumerate(ends, 1):
        if not data:
            raise RuntimeError(f"verify worker {w} exited without a result (wait status {status})")
        share = pickle.loads(data)
        if isinstance(share, Exception):
            raise share
        rec.pairs += share.pairs
        rec.checks += share.checks
        rec.failed += share.failed
        if share.first and (rec.first is None or share.first[0] < rec.first[0]):
            rec.first = share.first
    return {
        "grid": {"q": qs, "n_max": n_max},
        "points": rec.points,
        "codes_checked": rec.codes,
        "pairs_checked": rec.pairs,
        "checks": dict(sorted(rec.checks.items())),
        "failures": sum(rec.failed.values()),
        "failed_by_check": dict(sorted(rec.failed.items())),
        "first_counterexample": None if rec.first is None else rec.first[1],
    }
