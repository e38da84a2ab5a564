"""Brute-force ground truth, deliberately oblivious to spectra.

Everything here works on coefficient vectors and one row reduction over
the base field: Schur products as spans of pairwise componentwise
products, duals as nullspaces, patterns by exhaustive divisor search.
None of it touches roots of unity, so agreement with the spectral
methods is a real cross-check rather than the same computation twice.

rref reads its rows in one pass and stops once every column is a pivot.
Each pivot row is 0 at every other pivot, so a vector's component along it
is the vector's own entry there, and only the free (non-pivot) columns take
arithmetic: a full-rank echelon is built and checked closed without more.
The product oracle feeds rref vectors in descending-degree coordinates
(x^(n-1) first, x^0 last), so the last echelon row is the monic element
of least degree: the generator.  Its rows are the reversed generator's
shifts, slices of one padded line.  It forms one Schur product per shift
diagonal and takes the diagonal's other pairs as shifts of it.
"""

from __future__ import annotations

from .codes import ConstaCode, PatternPoly
from .numbertheory import divisors
from .poly import Poly, reciprocal


def _reduce(ctx, echelon, pivots, free, vec) -> list:
    """vec minus its components along the pivot rows; zero iff vec is in their span."""
    sub, mul, zero = ctx.sub, ctx.mul, ctx.zero_rep
    v = list(vec)
    for row, col in zip(echelon, pivots):
        f = vec[col]
        if f != zero:
            v[col] = zero
            for j in free:
                if row[j] != zero:
                    v[j] = sub(v[j], mul(f, row[j]))
    return v


def rref(ctx, rows) -> tuple[list[tuple], list[int]]:
    """Reduced row echelon form of the span of rows, in one pass.

    Each row is reduced by the pivot rows found so far; the first nonzero
    entry of the remainder, at a free column, is scaled to 1 and cleared
    from the earlier pivot rows, and the remainder becomes a pivot row.
    Reading stops once no column is free.  The reduced echelon form of a
    span is unique, so any two row sets spanning the same subspace give
    the identical list, sorted by pivot column.
    """
    sub, mul, zero, one = ctx.sub, ctx.mul, ctx.zero_rep, ctx.one_rep
    echelon: list[list] = []
    pivots: list[int] = []
    free = None
    for r in rows:
        free = list(range(len(r))) if free is None else free
        v = _reduce(ctx, echelon, pivots, free, r)
        i = next((i for i, j in enumerate(free) if v[j] != zero), None)
        if i is None:
            continue
        col = free.pop(i)
        inv = ctx.inv(v[col])
        if inv != one:
            v = [c if c == zero else mul(inv, c) for c in v]
        for row in echelon:
            f = row[col]
            if f != zero:
                row[col] = zero
                for j in free:
                    if v[j] != zero:
                        row[j] = sub(row[j], mul(f, v[j]))
        echelon.append(v)
        pivots.append(col)
        if not free:
            break
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [tuple(echelon[i]) for i in order], [pivots[i] for i in order]


def span_contains(ctx, echelon, pivots, vec, free=None) -> bool:
    """Whether vec lies in the row space given by rref output; free: its non-pivot columns."""
    if free is None:
        free = [j for j in range(len(vec)) if j not in pivots]
    return all(c == ctx.zero_rep for c in _reduce(ctx, echelon, pivots, free, vec))


def generator_rows(c: ConstaCode) -> list[tuple]:
    """The k rows x^j * g, j < k, as length-n coefficient vectors."""
    return list(c.generator.shifts(c.params.n))


def oracle_schur_product(c1: ConstaCode, c2: ConstaCode) -> tuple[int, Poly]:
    """(dim, monic generator) of the componentwise product span.

    Row reduces the distinct Schur products (x^i g1) o (x^j g2), i < k1, j < k2,
    once, in descending-degree coordinates.  Rows do not wrap, so diagonal
    d = j - i holds the shifts of one product, taken nearest d = 0 first; a
    square reads d >= 0 only.  The span is checked closed under the lam1*lam2
    shift, which makes it an ideal whose monic element of least degree (the
    last echelon row) is its generator.
    """
    p1, p2 = c1.params, c2.params
    if p1.field is not p2.field or p1.n != p2.n:
        raise ValueError("codes must share field and length")
    ctx = p1.field
    n = p1.n
    lam3 = p1.lam * p2.lam
    rows1, rows2 = (list(reciprocal(c.generator).shifts(n))[::-1] for c in (c1, c2))
    k1, k2 = len(rows1), len(rows2)
    if not k1 or not k2:
        return 0, Poly.monomial(ctx, n) - Poly.from_elements([lam3])
    # In a square, diagonal -d holds the products of diagonal d, swapped.
    products, pad = {}, (ctx.zero_rep,)
    for d in sorted(range(0 if rows1 == rows2 else 1 - k1, k2), key=abs):
        i = max(0, -d)
        h = tuple(map(ctx.mul, rows1[i], rows2[i + d]))
        for t in range(min(k1 - i, k2 - i - d)):
            products[h[t:] + pad * t] = None
    echelon, pivots = rref(ctx, list(products))
    dim = len(echelon)
    free = [j for j in range(n) if j not in pivots]
    for r in echelon if dim < n else ():
        shifted = r[1:] + (ctx.mul(lam3.rep, r[0]),)
        if not span_contains(ctx, echelon, pivots, shifted, free):
            raise AssertionError("product span is not constacyclic; theory violated")
    gen = Poly(ctx, echelon[-1][::-1])
    if gen.degree != n - dim:
        raise AssertionError("generator degree disagrees with rank")
    return dim, gen


def oracle_pattern(c: ConstaCode) -> PatternPoly:
    """Pattern by exhaustive search over (v, alpha), smallest v first."""
    if c.is_zero:
        raise ValueError("the zero code has no pattern polynomial")
    ctx = c.params.field
    n = c.params.n
    g = c.generator
    for v in divisors(n):
        if v == n:
            break
        for idx in range(1, ctx.cardinality):
            pattern = PatternPoly(n, v, ctx.elem(idx))
            if pattern.polynomial().divides(g):
                return pattern
    return PatternPoly(n, n, ctx.one())


def oracle_dual(c: ConstaCode) -> tuple[int, list[tuple]]:
    """(dim, rref basis) of the nullspace of the generator matrix."""
    ctx = c.params.field
    n = c.params.n
    zero, one = ctx.zero_rep, ctx.one_rep
    echelon, pivots = rref(ctx, generator_rows(c))
    free = [j for j in range(n) if j not in pivots]
    null_rows = []
    for f in free:
        vec = [zero] * n
        vec[f] = one
        for row, col in zip(echelon, pivots):
            vec[col] = ctx.neg(row[f])
        null_rows.append(tuple(vec))
    reduced, _ = rref(ctx, null_rows)
    return len(reduced), reduced
