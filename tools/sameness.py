"""Fingerprint constakit's CLI output and transform values, to show a change
leaves them byte-identical.

Runs ``constakit.cli.main`` in-process from the ``src/`` tree next to this
script and prints:

* the md5 of ``verify`` stdout on four grids: ``[2,3,5]``/10, ``[4,7]``/8,
  ``[8,9]``/6 and ``[2,3]``/16, and on ``3``/5 with ``--inject-corruption``,
  which pins how ``first_counterexample`` is rendered;
* one md5 over the 816 ``factor`` runs of a fixed grid, and their exit-code
  counts: p in {2, 3, 5, 7, 11, 13}, GF(4), GF(8), GF(9), GF(16), GF(25)
  and GF(4)^2; n = 1 ... 17; lambda in {1, 2, -1, [0,1]}.  Each run adds
  its argv, exit code and stdout to the digest;
* one md5 over the ``product --method all`` runs of a fixed grid of
  (field, n, lambda) points, with their exit-code counts, digested the same
  way.  The points reach every kind of splitting field the product basis
  can have: prime (only n = 1, since that basis takes delta of order
  n*(q - 1)), tabulated (GF(4), GF(9), GF(16), GF(81), ...) and vector
  (GF(2^20) at q = 2, n = 25; GF(3^8) at q = 3, n = 16).  At lambda = 1 the
  codes are given by generating sets, every union of the orbits of
  j -> q*j on Z_n; at other lambda by generators, each irreducible factor
  that ``factor`` prints, and 1.  Every unordered pair of a point's codes,
  a code with itself included, is multiplied;
* one md5 over the ``powers`` runs of a fixed grid of (field, n, lambda)
  points, with their exit-code counts, digested the same way.  The codes
  are chosen by the product grid's rule, the zero code included (exit 2),
  and each is printed as JSON, text and CSV;
* one md5 over the ``factor`` runs at the large prime p = 1,000,003, with
  n in {1, 2, 3} and lambda in {5, -2}, digested the same way.  Their
  delta powers are memoized one at a time (delta's order is past the eager
  table), and n = 3 splits in a vector level GF(p^3).  Before lambda's
  exponent was found by a walk in F_p, these six runs took tens of seconds
  longer than they do now;
* one md5 over ``forward`` and then ``inverse`` of three seeded vectors at
  every point of acceptance criterion 1 (q in {2, 3, 4, 5, 9}, n <= 16 prime
  to q, every lambda), called through the library, with the count of
  points by splitting-field kind.  It reaches every transform path: prime,
  tabulated, vector over F_p and vector over GF(4) or GF(9).

Run it in two checkouts and compare the output:

    python3 tools/sameness.py

Standard library only; the full grid takes about 13 s on a 2-core VM, 2 s
of it the product grid, about 1 s the powers grid, and well under 1 s each
the large-prime runs and, once the tower levels are built, the transforms.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import pathlib
import random
import sys
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from constakit import CodeParams, build_basis, build_field  # noqa: E402
from constakit.cli import main  # noqa: E402

#: (--grid-q, --grid-n, further flags) of each verify run.
VERIFY_RUNS = (
    ("[2,3,5]", 10, ()),
    ("[4,7]", 8, ()),
    ("[8,9]", 6, ()),
    ("[2,3]", 16, ()),
    ("3", 5, ("--inject-corruption",)),
)

#: (p, --degrees) for each field of the factor grid.
FACTOR_FIELDS = (
    (2, None), (3, None), (5, None), (7, None), (11, None), (13, None),
    (2, "[2]"), (2, "[3]"), (3, "[2]"), (2, "[4]"), (5, "[2]"), (2, "[2,2]"),
)
FACTOR_LENGTHS = range(1, 18)
FACTOR_LAMBDAS = ("1", "2", "-1", "[0,1]")
LARGE_PRIME = 1000003

#: (p, --degrees, n, lambda) of each product point.
PRODUCT_POINTS = (
    (5, None, 1, "2"), (2, None, 3, "1"), (2, None, 7, "1"), (5, None, 6, "1"),
    (3, None, 4, "2"), (3, None, 8, "2"), (2, "[2]", 5, "1"), (2, "[2]", 5, "[0,1]"),
    (3, "[2]", 5, "[0,1]"), (2, None, 25, "1"), (3, None, 16, "2"),
)

#: (p, --degrees, n, lambda) of each powers point.
POWERS_POINTS = (
    (2, None, 7, "1"), (2, None, 15, "1"), (2, None, 21, "1"), (3, None, 8, "1"),
    (5, None, 6, "1"), (3, None, 4, "2"), (3, None, 8, "2"), (5, None, 4, "2"),
    (2, "[2]", 5, "[0,1]"), (3, "[2]", 5, "[0,1]"), (2, "[2]", 9, "1"), (7, None, 8, "1"),
)

#: (p, degrees) of each base field of the transform grid, and its lengths.
TRANSFORM_FIELDS = ((2, []), (3, []), (2, [2]), (5, []), (3, [2]))
TRANSFORM_LENGTHS = range(1, 17)
TRANSFORM_VECTORS = 3


def run(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue().encode()


def factor_argvs():
    for p, degrees in FACTOR_FIELDS:
        field = ["--p", str(p)] + (["--degrees", degrees] if degrees else [])
        for n in FACTOR_LENGTHS:
            for lam in FACTOR_LAMBDAS:
                yield ["factor", *field, "--n", str(n), "--lambda", lam]


def large_prime_argvs():
    for n in (1, 2, 3):
        for lam in ("5", "-2"):
            yield ["factor", "--p", str(LARGE_PRIME), "--n", str(n), "--lambda", lam]


def _orbits(q: int, n: int) -> list[list[int]]:
    """The orbits of j -> q*j on Z_n: at lambda = 1, the blocks of every generating set."""
    seen, out = set(), []
    for start in range(n):
        orbit, j = [], start
        while j not in seen:
            seen.add(j)
            orbit.append(j)
            j = q * j % n
        if orbit:
            out.append(orbit)
    return out


def _point_codes(p, degrees, n, lam) -> tuple[list[str], list[list[str]]]:
    """A point's field, n and lambda flags, and its codes' flags: at lambda = 1
    a generating set per union of orbits, else each factor and 1 as generators."""
    field = ["--p", str(p)] + (["--degrees", degrees] if degrees else [])
    point = [*field, "--n", str(n), "--lambda", lam]
    if lam == "1":
        orbits = _orbits(p ** math.prod(json.loads(degrees or "[]")), n)
        codes = [
            ["--gen-set", json.dumps(sorted(j for i, o in enumerate(orbits) if m >> i & 1 for j in o))]
            for m in range(1 << len(orbits))
        ]
    else:
        factors = json.loads(run(["factor", *point])[1])["factors"]
        codes = [["--generator", json.dumps(f)] for f in factors] + [["--generator", "[1]"]]
    return point, codes


def product_argvs():
    for spec in PRODUCT_POINTS:
        point, codes = _point_codes(*spec)
        for i, code in enumerate(codes):
            for other in codes[i:]:
                yield ["product", *point, *code, *other, "--method", "all"]


def powers_argvs():
    for spec in POWERS_POINTS:
        point, codes = _point_codes(*spec)
        for code in codes:
            for fmt in ("json", "text", "csv"):
                yield ["powers", *point, *code, "--format", fmt]


def _fingerprint(argvs) -> str:
    """md5 over each run's argv, exit code and stdout, and the exit-code counts."""
    digest, exits = hashlib.md5(), Counter()
    for argv in argvs:
        rc, out = run(argv)
        digest.update(f"{argv} {rc}\n".encode() + out)
        exits[rc] += 1
    counts = ", ".join(f"exit {rc}: {k}" for rc, k in sorted(exits.items()))
    return f"{sum(exits.values())} runs: md5 {digest.hexdigest()}, {counts}"


def transform_fingerprint() -> str:
    """md5 over the indices of each seeded vector's spectrum and inverse, per point."""
    digest, kinds, rng = hashlib.md5(), Counter(), random.Random(0)
    for p, degrees in TRANSFORM_FIELDS:
        field = build_field(p, degrees)
        q = field.cardinality
        for n in (n for n in TRANSFORM_LENGTHS if math.gcd(n, q) == 1):
            for lam in list(field.elements())[1:]:
                basis = build_basis(CodeParams(field, n, lam))
                spl = basis.splitting
                kinds[f"vector/{spl.subfield.kind}" if spl.kind == "vector" else spl.kind] += 1
                for _ in range(TRANSFORM_VECTORS):
                    spectrum = basis.forward([field.elem(rng.randrange(q)) for _ in range(n)])
                    back = basis.inverse(spectrum)
                    indices = [x.index for x in (*spectrum.values, *back)]
                    digest.update(f"{q} {n} {lam.index} {indices}\n".encode())
    counts = ", ".join(f"{kind}: {k}" for kind, k in sorted(kinds.items()))
    return f"{sum(kinds.values())} points: md5 {digest.hexdigest()}, {counts}"


def report() -> None:
    for q, n, flags in VERIFY_RUNS:
        rc, out = run(["verify", "--grid-q", q, "--grid-n", str(n), *flags])
        label = " ".join((f"{q}/{n}", *flags))
        print(f"verify {label}: exit {rc} md5 {hashlib.md5(out).hexdigest()}")
    print(f"factor {_fingerprint(factor_argvs())}")
    print(f"product {_fingerprint(product_argvs())}")
    print(f"powers {_fingerprint(powers_argvs())}")
    print(f"factor p={LARGE_PRIME} {_fingerprint(large_prime_argvs())}")
    print(f"transform {transform_fingerprint()}")


if __name__ == "__main__":
    report()
