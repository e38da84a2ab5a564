"""Finite-field towers with deterministic, scan-based construction.

A field context is a chain F_p = L_0 < L_1 < ... < L_k where each step
L_{i+1} = L_i[y]/(m_i) extends the level below by a monic irreducible
modulus m_i.  The modulus is not an input: it is always the *first* monic
irreducible of the requested degree in the canonical ordering, so two runs
(or two machines) always build identical towers.  Candidates are tested
with Ben-Or's gcd test, and a level whose scan finds none among the first
MODULUS_SCAN_BUDGET candidates is refused with ValueError, as is any tower
(a prime field included) above DEFAULT_MAX_CARDINALITY = 2**64 elements.

Canonical ordering.  Elements of a level correspond to integers: a
coefficient vector (c_0, ..., c_{d-1}) over a sublevel of size S has index
sum(index(c_j) * S**j), i.e. the base-S number whose most significant
digit is the leading coefficient.  Prime-level elements are their own
residues.  Scans ("first element such that ...") always walk indices
upward; polynomials of fixed degree are ordered the same way by their
non-leading coefficients.

Representations.  Internally an element of a level is
  * an int residue, at the prime level;
  * an int canonical index, at levels of at most TABLE_LIMIT (4096)
    elements, with arithmetic on exp/log/Zech arrays of O(Q) entries,
    which cdft also reads for its log-domain transform sum.  The arrays
    take no vector product per element: multiplying by the generator is
    F_p-linear on an index's base-p digits, so two tables of about sqrt(Q)
    entries give each next power as a byte-per-digit sum, which never
    carries (p <= 64).  Levels of at most SQUARE_TABLE_LIMIT (128)
    elements derive full Q x Q add/mul tables from the arrays and use
    them instead;
  * a tuple of sublevel representations otherwise; over a sublevel of at
    most SQUARE_TABLE_LIMIT elements its arithmetic reads the S x S tables
    that sublevel keeps (prime levels build theirs when they are made).
Subfields embed positionally: the element of index i in a sublevel is the
element of index i upstairs.  Each context keeps its levels (itself, then
each level below) and two index maps, _index_of and _rep_of (the identity
where reps are indices); lift, project and the format methods map through
them, so embedding small-field scalars is one digit and projecting to a
subfield K is an index check (the element lies in K iff its index is below
|K|).  FieldElem, a frozen dataclass, sets its two slots through their
descriptors (poly.slot_setters), at a plain object's cost.

Orders.  numbertheory.order_from_multiple is the one order routine: elem_order
strips primes from Q - 1 with it, and find_element_of_order and each tabulated
level's generator scan take the first candidate whose order it finds is e.

Construction.  FieldCtx's constructor sets what every level shares (p,
subfield, step_degree, degrees, levels, cardinality); build_field's
_make_prime and _make_extension add the modulus, kind, reps, index maps and ops.

Public entry points: build_field, FieldCtx, FieldElem, elem_order,
find_element_of_order, schur.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate, repeat
from typing import Iterable, Iterator, Sequence

from . import numbertheory as nt
from .poly import (
    Poly, Shared, convolve, euclid, format_terms, poly_xgcd, slot_setters, square_and_multiply,
)

#: Levels with at most this many elements use int indices as their
#: representation, with O(Q) exp/log/Zech arrays behind the arithmetic.
TABLE_LIMIT = 4096

#: Tabulated levels this small compute with full Q x Q add/mul tables, and
#: a vector level over a sublevel this small reads the sublevel's tables.
SQUARE_TABLE_LIMIT = 128

#: find_element_of_order walks the canonical scan only in fields up to this
#: size; larger fields use a deterministic subgroup construction instead
#: (the scan would be quadratic in the field size).
SCAN_LIMIT = 4096

#: The modulus scan refuses a level after this many candidates; towers the
#: verify grid reaches need at most a few hundred.
MODULUS_SCAN_BUDGET = 2**17

DEFAULT_MAX_CARDINALITY = 2**64

_VAR_NAMES = "yzwv"


def _var_name(level: int) -> str:
    if 1 <= level <= len(_VAR_NAMES):
        return _VAR_NAMES[level - 1]
    return f"t{level}"


@dataclass(frozen=True, repr=False, init=False)
class FieldElem(Shared):
    """An element of a FieldCtx: an immutable rep, equal by (context identity, rep)."""

    __slots__ = ("ctx", "rep")
    ctx: FieldCtx
    rep: object

    def __init__(self, ctx: FieldCtx, rep):
        _set_ctx(self, ctx)
        _set_rep(self, rep)

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.ctx is not self.ctx:
                raise ValueError(
                    "elements of different field contexts; lift explicitly"
                )
            return other
        raise TypeError(f"cannot combine FieldElem with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElem(self.ctx, self.ctx.add(self.rep, other.rep))

    def __sub__(self, other):
        other = self._coerce(other)
        return FieldElem(self.ctx, self.ctx.sub(self.rep, other.rep))

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx.neg(self.rep))

    def __mul__(self, other):
        other = self._coerce(other)
        return FieldElem(self.ctx, self.ctx.mul(self.rep, other.rep))

    def __truediv__(self, other):
        other = self._coerce(other)
        return FieldElem(self.ctx, self.ctx.mul(self.rep, self.ctx.inv(other.rep)))

    def __pow__(self, e: int):
        return FieldElem(self.ctx, self.ctx.pow_rep(self.rep, e))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx.inv(self.rep))

    @property
    def is_zero(self) -> bool:
        return self.rep == self.ctx.zero_rep

    def __bool__(self) -> bool:
        return not self.is_zero

    @property
    def index(self) -> int:
        """Position of this element in the canonical scan."""
        return self.ctx._index_of(self.rep)

    def lift(self, target: "FieldCtx") -> "FieldElem":
        """Embed into an extension built on top of this element's context:
        target's element of the same index."""
        if self.ctx not in target.levels:
            raise ValueError("target is not an extension of this context")
        return FieldElem(target, target._rep_of(self.ctx._index_of(self.rep)))

    def project(self, target: "FieldCtx") -> "FieldElem":
        """Inverse of lift: target's element of the same index, which must be
        below |target|; target is this element's context or a level below."""
        if target not in self.ctx.levels:
            raise ValueError("target is not below this element's context")
        i = self.ctx._index_of(self.rep)
        if i >= target.cardinality:
            raise ValueError("element does not lie in the requested subfield")
        return FieldElem(target, target._rep_of(i))

    def __repr__(self) -> str:
        return self.ctx.rep_to_str(self.rep)


_set_ctx, _set_rep = slot_setters(FieldElem)


def schur(u: Sequence, v: Sequence) -> tuple:
    """Componentwise product of two equal-length vectors of field elements."""
    if len(u) != len(v):
        raise ValueError("schur product needs equal-length vectors")
    if not u:
        return ()
    ctx = getattr(u[0], "ctx", None)
    for e in list(u) + list(v):
        if not isinstance(e, FieldElem) or e.ctx is not ctx:
            raise ValueError("schur vectors must share one field context")
    return tuple(FieldElem(ctx, ctx.mul(a.rep, b.rep)) for a, b in zip(u, v))


class FieldCtx(Shared):
    """One level of a field tower.  Immutable after construction."""

    def __init__(self, p=None, sub=None, degree=0, *, _token=None):
        if _token is not _CTX_TOKEN:
            raise TypeError("use build_field() to construct field contexts")
        self.p, self.subfield, self.step_degree = p, sub, degree
        self.degrees = sub.degrees + (degree,) if sub else ()
        self.levels = (self,) + sub.levels if sub else (self,)
        self.cardinality = sub.cardinality**degree if sub else p

    # -- construction -----------------------------------------------------

    @staticmethod
    def _make_prime(p: int) -> "FieldCtx":
        ctx = FieldCtx(p, _token=_CTX_TOKEN)
        ctx._index_of = ctx._rep_of = int  # the identity on int reps
        ctx.modulus = None
        ctx.kind = "prime"
        ctx.zero_rep = 0
        ctx.one_rep = 1 % p
        ctx.add = lambda a, b: (a + b) % p
        ctx.sub = lambda a, b: (a - b) % p
        ctx.neg = lambda a: (-a) % p

        def mul(a, b):
            return a * b % p

        def inv(a):
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, p - 2, p)

        ctx.mul = mul
        ctx.inv = inv
        ctx.scale = mul  # sublevel of the prime level is itself
        if p <= SQUARE_TABLE_LIMIT:  # add/mul tables, read by the vector levels above
            ctx._tables = [[[op(a, b) for b in range(p)] for a in range(p)]
                           for op in (ctx.add, mul)]
        return ctx

    @staticmethod
    def _make_extension(sub: "FieldCtx", degree: int) -> "FieldCtx":
        ctx = FieldCtx(sub.p, sub, degree, _token=_CTX_TOKEN)
        ctx.modulus = _first_irreducible(sub, degree)

        d = degree
        ctx._red, (vec_add, vec_neg, vec_mul, vec_scale) = _modulus_ops(sub, ctx.modulus)
        ctx._vec_zero = (sub.zero_rep,) * d
        ctx._vec_one = (sub.one_rep,) + ctx._vec_zero[1:]

        def vec_sub(a, b):
            return vec_add(a, vec_neg(b))

        def vec_inv(a):
            if a == ctx._vec_zero:
                raise ZeroDivisionError("inverse of zero")
            g, u, _ = poly_xgcd(Poly(sub, a), ctx.modulus)
            if g.degree != 0:
                raise RuntimeError("modulus is not irreducible; tower corrupt")
            return u.padded(d)

        S, sub_index, sub_rep = sub.cardinality, sub._index_of, sub._rep_of

        def vec_to_index(rep):
            idx = 0
            for c in reversed(rep):
                idx = idx * S + sub_index(c)
            return idx

        def vec_from_index(i):
            # Digits past the top nonzero one are zero: a lifted scalar is one divmod.
            digits = []
            while i:
                i, r = divmod(i, S)
                digits.append(sub_rep(r))
            return tuple(digits) + ctx._vec_zero[len(digits):]

        ctx._vec_to_index = vec_to_index
        ctx._vec_from_index = vec_from_index
        if ctx.cardinality <= TABLE_LIMIT:
            ctx.kind = "tabulated"
            ctx._index_of = ctx._rep_of = int
            ctx.zero_rep, ctx.one_rep = 0, 1
            _install_log_ops(ctx, vec_mul)
        else:
            ctx.kind = "vector"
            ctx._index_of, ctx._rep_of = vec_to_index, vec_from_index
            ctx.zero_rep, ctx.one_rep = ctx._vec_zero, ctx._vec_one
            ctx.add, ctx.sub, ctx.neg = vec_add, vec_sub, vec_neg
            ctx.mul, ctx.inv, ctx.scale = vec_mul, vec_inv, vec_scale
        return ctx

    # -- representation plumbing -------------------------------------------

    def rep_from_index(self, i: int):
        if type(i) is not int or not 0 <= i < self.cardinality:
            raise ValueError(f"index {i!r} out of range for {self!r}")
        return self._rep_of(i)

    def rep_to_index(self, rep) -> int:
        return self._index_of(rep)

    def rep_to_nested(self, rep):
        if self.kind == "prime":
            return rep
        return [self.subfield.rep_to_nested(c) for c in self._vec_from_index(self._index_of(rep))]

    def rep_from_nested(self, data):
        if self.kind == "prime":
            if type(data) is not int:
                raise ValueError(f"prime-level coefficient must be int, got {data!r}")
            if not 0 <= data < self.p:
                raise ValueError(f"residue {data} out of range mod {self.p}")
            return data
        if not isinstance(data, (list, tuple)) or len(data) != self.step_degree:
            raise ValueError(
                f"expected {self.step_degree} coefficients for {self!r}, got {data!r}"
            )
        return self._rep_of(self._vec_to_index([self.subfield.rep_from_nested(c) for c in data]))

    def pow_rep(self, rep, e: int):
        if e < 0:
            rep = self.inv(rep)
            e = -e
        return square_and_multiply(self.mul, self.one_rep, rep, e)

    def rep_to_str(self, rep) -> str:
        if self.kind == "prime":
            return str(rep)
        vec = self._vec_from_index(self._index_of(rep))
        return format_terms(self.subfield, vec, _var_name(len(self.degrees)))

    # -- public API ---------------------------------------------------------

    def elem(self, x) -> FieldElem:
        """Element from a canonical index, nested coefficient list, or elem."""
        if isinstance(x, FieldElem):
            if x.ctx is not self:
                raise ValueError("element belongs to a different context")
            return x
        if isinstance(x, int):
            return FieldElem(self, self.rep_from_index(x))
        if isinstance(x, (list, tuple)):
            return FieldElem(self, self.rep_from_nested(list(x)))
        raise TypeError(f"cannot build a field element from {type(x).__name__}")

    def vector(self, xs: Iterable) -> tuple[FieldElem, ...]:
        return tuple(self.elem(x) for x in xs)

    def zero(self) -> FieldElem:
        return FieldElem(self, self.zero_rep)

    def one(self) -> FieldElem:
        return FieldElem(self, self.one_rep)

    def elements(self) -> Iterator[FieldElem]:
        return (FieldElem(self, self.rep_from_index(i)) for i in range(self.cardinality))

    def extend(self, degree: int) -> "FieldCtx":
        return build_field(self.p, list(self.degrees) + [degree])

    def describe(self) -> dict:
        moduli = [
            [level.subfield.rep_to_nested(cf) for cf in level.modulus.coeffs]
            for level in reversed(self.levels[:-1])
        ]
        return {"p": self.p, "degrees": list(self.degrees), "moduli": moduli}

    def __repr__(self) -> str:
        return f"GF({self.p}^{math.prod(self.degrees)})" if self.degrees else f"GF({self.p})"


_CTX_TOKEN = object()


def _install_log_ops(ctx: FieldCtx, vec_mul) -> None:
    """Give a tabulated level its index-rep ops, from exp/log/Zech arrays.

    g is the first primitive element in the canonical scan.  exp[k] = g**k
    for 0 <= k < 2(Q-1), so a sum of two logs needs no modulo; Zech[k] is
    log(1 + g**k), or -1 when that sum is zero (Huber 1990), so
    a + b = a * (1 + b/a) = exp[log a + Zech[log b - log a]], where a
    negative difference indexes from the end, i.e. modulo Q - 1.

    An index's base-p digits are its F_p coordinates (every level below is
    indexed alike), and x -> x*g is F_p-linear on them.  So for
    i = lo + p**L * hi, the digits of i*g are the digitwise sum mod p of
    lo*g and (p**L * hi)*g, read from two half tables spanned the same way
    by the D unit images (p**j)*g, one vec_mul each; no digit sum carries
    (p <= 64), and two half-digit lookups turn it back into an index.
    1 + x differs from x in digit 0 only.
    """
    Q, p, one = ctx.cardinality, ctx.p, ctx._vec_one
    vec_to_index, vec_from_index = ctx._vec_to_index, ctx._vec_from_index
    n1 = Q - 1
    power = partial(square_and_multiply, vec_mul, one)
    units = map(vec_from_index, range(1, Q))
    g = next(x for x in units if nt.order_from_multiple(x, n1, power, one) == n1)
    D = math.prod(ctx.degrees)
    L, P = D // 2, p ** (D // 2)

    def digits(i, n):  # n base-p digits of i, least significant first
        return bytes(i // p**j % p for j in range(n))

    def times_g(i):  # digits of i*g packed one per byte, low byte first
        return int.from_bytes(digits(vec_to_index(vec_mul(vec_from_index(i), g)), D), "little")

    # D >= 2 makes p*p <= Q <= TABLE_LIMIT, so p <= 64 and a sum of two
    # digits is at most 2(p - 1) <= 126: no byte carries into the next.
    mod_p = bytes(v % p for v in range(256))

    def plus(u, v):  # digitwise sum mod p of two packed digit strings
        return int.from_bytes((u + v).to_bytes(D, "little").translate(mod_p), "little")

    def span(units):  # entry i: the sum of digit_j(i) * units[j]
        table = [0]
        for u in units:
            multiples = accumulate(repeat(u, p - 1), plus, initial=0)
            table = [plus(m, t) for m in multiples for t in table]
        return table

    images = [times_g(p**j) for j in range(D)]
    lo_g, hi_g = span(images[:L]), span(images[L:])
    lo_ix = {digits(i, L): i for i in range(P)}
    hi_ix = {digits(h, D - L): h * P for h in range(Q // P)}
    powers, x = [], 1
    for _ in range(n1):
        powers.append(x)
        b = (lo_g[x % P] + hi_g[x // P]).to_bytes(D, "little").translate(mod_p)
        x = lo_ix[b[:L]] + hi_ix[b[L:]]
    logs = [0] * Q
    for k, i in enumerate(powers):
        logs[i] = k
    # Entries lie in [-1, Q), Q <= TABLE_LIMIT; "h" raises OverflowError past 32767.
    zech = array("h", [logs[j] if (j := i - i % p + (i + 1) % p) else -1 for i in powers])
    exp, log = array("h", powers * 2), array("h", logs)
    ctx._logs = exp, log, zech  # cdft sums transforms in the log domain
    # -1 = g**((Q-1)/2) in odd characteristic; in characteristic 2, -1 = 1 = g**0.
    half = n1 // 2 if p > 2 else 0

    def mul(a, b):
        return exp[log[a] + log[b]] if a and b else 0

    def add(a, b):
        if not (a and b):
            return a or b
        la = log[a]
        z = zech[log[b] - la]
        return exp[la + z] if z >= 0 else 0

    def neg(a):
        return exp[log[a] + half] if a else 0

    def inv(a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return exp[n1 - log[a]]

    if Q <= SQUARE_TABLE_LIMIT:
        nz = log[1:]  # logs of the indices 1 .. Q-1
        mul_t = [[0] * Q] + [[0] + [exp[la + lb] for lb in nz] for la in nz]
        add_t = [list(range(Q))] + [
            [a] + [exp[la + z] if (z := zech[lb - la]) >= 0 else 0 for lb in nz]
            for a, la in enumerate(nz, 1)
        ]
        neg_t = [neg(a) for a in range(Q)]
        ctx._tables = add_t, mul_t  # read by the vector levels above
        ctx.add = lambda a, b: add_t[a][b]
        ctx.sub = lambda a, b: add_t[a][neg_t[b]]
        ctx.neg = lambda a: neg_t[a]
        ctx.mul = lambda a, b: mul_t[a][b]
    else:
        ctx.add, ctx.neg, ctx.mul = add, neg, mul
        ctx.sub = lambda a, b: add(a, neg(b))
    ctx.inv = inv
    # Scaling by an embedded sublevel element is plain multiplication
    # because sub indices embed as identical indices here.
    ctx.scale = ctx.mul


def _vector_ops(sub: FieldCtx, d: int, red: tuple):
    """Add/neg/mul/scale closures for a degree-d vector level over sub.

    Over a sublevel of at most SQUARE_TABLE_LIMIT elements, prime or
    tabulated, they read the sublevel's S x S _tables (such reps are their
    own indices, so range(S) spans the sublevel); over a larger one they
    call its ops, and mul is poly.convolve folded by red.
    """
    S, sneg = sub.cardinality, sub.neg

    def neg(a):
        return tuple(sneg(x) for x in a)

    if S <= SQUARE_TABLE_LIMIT:
        add_t, mul_t = sub._tables

        def add(a, b):
            return tuple(add_t[x][y] for x, y in zip(a, b))

        def mul(a, b):
            conv = [0] * (2 * d - 1)
            for i in range(d):
                ai = a[i]
                if ai:
                    row = mul_t[ai]
                    for j in range(d):
                        bj = b[j]
                        if bj:
                            k = i + j
                            conv[k] = add_t[conv[k]][row[bj]]
            res = conv[:d]
            for i in range(d - 1):
                c = conv[d + i]
                if c:
                    rrow = red[i]
                    crow = mul_t[c]
                    for j in range(d):
                        rj = rrow[j]
                        if rj:
                            res[j] = add_t[res[j]][crow[rj]]
            return tuple(res)

        def scale(a, s):
            row = mul_t[s]
            return tuple(row[x] for x in a)

        return add, neg, mul, scale

    sadd, smul, szero = sub.add, sub.mul, sub.zero_rep

    def add(a, b):
        return tuple(sadd(x, y) for x, y in zip(a, b))

    def mul(a, b):
        conv = convolve(sub, a, b)
        res = conv[:d]
        for i in range(d - 1):
            c = conv[d + i]
            if c != szero:
                row = red[i]
                for j in range(d):
                    rj = row[j]
                    if rj != szero:
                        res[j] = sadd(res[j], smul(c, rj))
        return tuple(res)

    def scale(a, s):
        return tuple(smul(x, s) for x in a)

    return add, neg, mul, scale


def _modulus_ops(sub: FieldCtx, f: Poly):
    """The rows y**(d+i) mod f, i < d - 1, for monic f of degree d over sub, and
    _vector_ops mod f: -f's low coefficients, then y times each row (shift, plus top * red[0])."""
    d, zero = f.degree, sub.zero_rep
    red = [tuple(map(sub.neg, f.coeffs[:d]))]
    ops = add, _, _, scale = _vector_ops(sub, d, red)
    while len(red) < d - 1:
        *low, top = red[-1]
        red.append((zero, *low) if top == zero else add((zero, *low), scale(red[0], top)))
    return tuple(red), ops


def _is_irreducible(f: Poly, sub: FieldCtx) -> bool:
    """Exact irreducibility test for monic f over the sublevel (Ben-Or).

    f (degree d) over a field of size S is irreducible iff
    gcd(x**(S**i) - x, f) = 1 for every i <= d/2: a reducible f has an
    irreducible factor of some degree i <= d/2, and that factor divides
    x**(S**i) - x.  Most reducible f have a small factor, so the loop
    usually stops at i = 1 or 2.

    The powers are tuples mod f.  X = x**S takes square-and-multiply; after
    it, u -> u**S being F_S-linear, x**(S**i) = sum_k c_k X**k for
    x**(S**(i-1)) = sum_k c_k x**k (von zur Gathen & Shoup 1992), on the
    powers X**k, built once f survives i = 1.
    """
    zero, d = sub.zero_rep, f.degree
    _, (add, _, mul, scale) = _modulus_ops(sub, f)
    one = (sub.one_rep,) + (zero,) * (d - 1)
    frob = X = square_and_multiply(mul, one, (zero,) + one[:-1], sub.cardinality)
    for i in range(d // 2):
        if i == 1:  # X**k for k < d; mul's first factor is the sparser one
            powers = list(accumulate(repeat(X, d - 1), lambda u, v: mul(v, u), initial=one))
        if i:  # frob passed the gcd, so it is a unit mod f and some c_k != 0
            frob = reduce(add, [scale(P, c) for P, c in zip(powers, frob) if c != zero])
        h = list(frob)
        h[1] = sub.sub(h[1], sub.one_rep)  # x**(S**i) - x
        while h and h[-1] == zero:
            h.pop()
        if len(euclid(sub, list(f.coeffs), h)) != 1:
            return False
    return True


def _first_irreducible(sub: FieldCtx, degree: int) -> Poly:
    """First monic irreducible of the given degree in canonical order.

    Indices below S are the binomials x**d + c; when some prime factor of
    d does not divide S - 1 none of them is irreducible (Lidl &
    Niederreiter, Thm 3.75), so the scan starts at S.  The scan tests at
    most MODULUS_SCAN_BUDGET candidates and raises ValueError after that.
    In characteristic 2 at degree 2 the scan's block x**2 + x + c is
    irreducible iff c has absolute trace 1 (ibid., Cor. 3.79); Tr is linear
    in the bits of c's index, so the first such c is 2**j for the least j
    with Tr(2**j) = 1, and the scan jumps there.
    """
    S = sub.cardinality
    start = S if any((S - 1) % r for r in nt.factorint(degree)) else 0
    stop = min(S**degree, start + MODULUS_SCAN_BUDGET)
    if sub.p == 2 and degree == 2:
        for j in range(S.bit_length() - 1):
            x = t = sub.rep_from_index(1 << j)
            for _ in range(S.bit_length() - 2):
                x = sub.mul(x, x)
                t = sub.add(t, x)
            if t == sub.one_rep:
                start += 1 << j
                break
    for idx in range(start, stop):
        digits = [sub.rep_from_index(idx // S**j % S) for j in range(degree)]
        f = Poly(sub, digits + [sub.one_rep])
        if _is_irreducible(f, sub):
            return f
    raise ValueError(
        f"no monic irreducible of degree {degree} over {sub!r} among the first "
        f"{MODULUS_SCAN_BUDGET} candidates of the modulus scan (MODULUS_SCAN_BUDGET)"
    )


_FIELD_CACHE: dict[tuple[int, tuple[int, ...]], FieldCtx] = {}


def build_field(p: int, degrees: Sequence[int]) -> FieldCtx:
    """Deterministically build the tower F_p < F_p^d1 < (F_p^d1)^d2 < ...

    Equal (p, degrees) always return the identical context object, so
    element contexts can be compared by identity; a degree of 1 adds no
    level, so each field has one tower.  The constructor refuses
    towers, primes included, above DEFAULT_MAX_CARDINALITY before testing p,
    and decides from bit lengths past 2**128, so it never forms a huge power.
    """
    degs = tuple(degrees)
    if type(p) is not int or any(type(d) is not int for d in degs):
        raise ValueError(f"p and the extension degrees must be ints, got {p!r} and {list(degs)!r}")
    if any(d < 1 for d in degs):
        raise ValueError("extension degrees must be >= 1")
    degs = tuple(d for d in degs if d > 1)
    card = p
    for d in (1,) + degs:
        # card**d >= 2**((card.bit_length() - 1) * d): past 2**128 it is not formed
        card = card**d if (card.bit_length() - 1) * d <= 128 else None
        if card is None or card > DEFAULT_MAX_CARDINALITY:
            size = "above 2**128" if card is None else card
            raise ValueError(f"tower cardinality {size} exceeds the cap {DEFAULT_MAX_CARDINALITY}")
    if not nt.is_prime(p):
        raise ValueError(f"{p} is not prime")
    # Build every prefix so .subfield chains are shared and cached.
    ctx = None
    for i in range(len(degs) + 1):
        key = (p, degs[:i])
        if key not in _FIELD_CACHE:
            new = FieldCtx._make_extension(ctx, degs[i - 1]) if i else FieldCtx._make_prime(p)
            _FIELD_CACHE[key] = new
        ctx = _FIELD_CACHE[key]
    return ctx


def elem_order(x: FieldElem) -> int:
    """Multiplicative order of a nonzero field element."""
    if x.is_zero:
        raise ValueError("zero has no multiplicative order")
    return nt.order_from_multiple(x.rep, x.ctx.cardinality - 1, x.ctx.pow_rep, x.ctx.one_rep)


def find_element_of_order(ctx: FieldCtx, e: int) -> FieldElem:
    """Deterministically pick an element of multiplicative order exactly e.

    In fields up to SCAN_LIMIT elements this is the first such element in
    the canonical scan.  In larger fields the scan is replaced by an
    equally deterministic shortcut: take the first scanned h whose power
    h**((Q-1)/e) has order e (the scan would otherwise visit on the order
    of (Q-1)/phi(e) elements, which is hopeless at desk scale).  Unless e
    divides S - 1, h skips the sublevel (size S), whose powers stay in it.
    """
    Q, power, one = ctx.cardinality, ctx.pow_rep, ctx.one_rep
    if e < 1:
        raise ValueError("order must be >= 1")
    if (Q - 1) % e != 0:
        raise ValueError(f"no element of order {e}: it does not divide {Q - 1}")
    if Q <= SCAN_LIMIT:  # order_from_multiple needs x**e = one
        candidates = (x for x in map(ctx.rep_from_index, range(1, Q)) if power(x, e) == one)
    else:
        S = ctx.subfield.cardinality if ctx.subfield else 1
        hs = map(ctx.rep_from_index, range(1 if (S - 1) % e == 0 else S, Q))
        candidates = (power(h, (Q - 1) // e) for h in hs)
    of_order_e = (x for x in candidates if nt.order_from_multiple(x, e, power, one) == e)
    return FieldElem(ctx, next(of_order_e))
