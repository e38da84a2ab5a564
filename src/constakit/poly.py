"""Dense univariate polynomials over a finite-field context.

Coefficients are stored in ascending order of the exponent (index i holds
the coefficient of x**i), in the context's internal representation; the
zero polynomial stores an empty tuple and reports degree -1.  A Poly never
keeps trailing zero coefficients; the trusted `Poly._of` takes only tuples
that have none.  One schoolbook product on coefficient lists, `convolve`,
serves ``*`` and field.py's generic vector kernel; one in-place division
loop serves ``divmod``, ``%`` and `euclid`, the list-level Euclid under
`poly_gcd`, the modulus scan and the gcd route to a Schur product.

The context object supplies the coefficient arithmetic (``add``, ``mul``,
``inv``, ...), so this module works over any tower level from field.py
without knowing how elements are encoded.  It also holds the two bases the
package's classes share: `Shared`, for objects that are their own copies,
and `Value`, the frozen value base of the seven value classes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence


class Shared:
    """Immutable, or memoized once per process: every copy is the object itself."""

    __slots__ = ()

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class Value:
    """A frozen value, equal (to its own class only) and hashed by the fields it
    compares, named in its class line: ``class C(Value, fields=("a", "b", "_c"),
    compare=("a", "b"))`` (compare defaults to fields).  Value.__init__ sets them
    from its arguments, in order; a class built in a hot loop sets them itself
    (0.6 us less), through object.__setattr__ or its slots' setters.  __eq__ and
    __hash__ are compiled per class: through getattr they take twice as long."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, fields, compare=None):
        cls._fields = fields
        compare = fields if compare is None else compare
        same = " and ".join(f"a.{f} == b.{f}" for f in compare)
        key = "".join(f"a.{f}, " for f in compare)
        methods = {}  # contexts and bases define no __eq__: they compare by identity
        exec(f"def __eq__(a, b):\n return ({same}) if b.__class__ is a.__class__ else NotImplemented\n"
             f"def __hash__(a):\n return hash(({key}))\n", methods)
        cls.__eq__, cls.__hash__ = methods["__eq__"], methods["__hash__"]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"


def slot_setters(cls) -> tuple:
    """Each slot descriptor's __set__, in __slots__ order: a Value's own
    __init__ sets its fields through them at a plain object's cost."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class Poly(Shared, Value, fields=("ctx", "coeffs")):
    """Immutable dense polynomial, equal by (context identity, coefficients)."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs: Iterable = ()):
        cs = list(coeffs)
        zero = ctx.zero_rep
        while cs and cs[-1] == zero:
            cs.pop()
        _set_ctx(self, ctx)
        _set_coeffs(self, tuple(cs))

    @classmethod
    def _of(cls, ctx, coeffs: tuple) -> "Poly":
        """The Poly of a coefficient tuple with no trailing zero, taken as is."""
        p = object.__new__(cls)
        _set_ctx(p, ctx)
        _set_coeffs(p, coeffs)
        return p

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ctx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx) -> "Poly":
        return cls(ctx, (ctx.one_rep,))

    @classmethod
    def x(cls, ctx) -> "Poly":
        return cls(ctx, (ctx.zero_rep, ctx.one_rep))

    @classmethod
    def monomial(cls, ctx, k: int) -> "Poly":
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls(ctx, (ctx.zero_rep,) * k + (ctx.one_rep,))

    @classmethod
    def from_indices(cls, ctx, indices: Sequence[int]) -> "Poly":
        """Build from canonical element indices (residues, for prime fields)."""
        return cls(ctx, (ctx.rep_from_index(i) for i in indices))

    @classmethod
    def from_elements(cls, elems: Sequence) -> "Poly":
        if not elems:
            raise ValueError("from_elements needs at least one element")
        ctx = getattr(elems[0], "ctx", None)
        if ctx is None or any(getattr(e, "ctx", None) is not ctx or not hasattr(e, "rep") for e in elems):
            raise ValueError("mixed field contexts in coefficient list")
        return cls(ctx, (e.rep for e in elems))

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 as the zero-polynomial sentinel."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one_rep

    def coeff_rep(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ctx.zero_rep

    def __getitem__(self, i: int):
        from .field import FieldElem

        return FieldElem(self.ctx, self.coeff_rep(i))

    def __iter__(self):
        # Without this, iteration would fall back to __getitem__, which
        # pads with zeros forever instead of raising IndexError.
        from .field import FieldElem

        return iter([FieldElem(self.ctx, c) for c in self.coeffs])

    def indices(self) -> tuple[int, ...]:
        """Coefficients as canonical element indices, ascending exponent."""
        return tuple(self.ctx.rep_to_index(c) for c in self.coeffs)

    def padded(self, n: int) -> tuple:
        """Coefficient reps padded with zeros to length n."""
        if len(self.coeffs) > n:
            raise ValueError(f"degree {self.degree} does not fit in length {n}")
        return self.coeffs + (self.ctx.zero_rep,) * (n - len(self.coeffs))

    def shifts(self, n: int):
        """The rows x^j * self, j < n - deg, as length-n slices of one padded tuple."""
        k = n - self.degree
        pad = (self.ctx.zero_rep,) * (k - 1)
        line = pad + self.coeffs + pad
        return (line[k - 1 - j : n + k - 1 - j] for j in range(k))

    def __str__(self) -> str:
        """Readable form with field-valued coefficients, e.g. x^2 + (y + 2)*x + 1."""
        return format_terms(self.ctx, self.coeffs, "x")

    def __repr__(self) -> str:
        """Coefficients as canonical indices, e.g. Poly(x^2 + 2*x + 1)."""
        text = format_terms(self.ctx, self.coeffs, "x", lambda c: str(self.ctx.rep_to_index(c)))
        return f"Poly({text})"

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if not isinstance(other, Poly) or other.ctx is not self.ctx:
            raise ValueError("polynomials over different field contexts")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        add = ctx.add
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly(ctx, out)

    def __neg__(self) -> "Poly":
        neg = self.ctx.neg
        return Poly(self.ctx, (neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.ctx, convolve(self.ctx, self.coeffs, other.coeffs))

    def scale(self, c) -> "Poly":
        """Multiply every coefficient by the rep c."""
        mul = self.ctx.mul
        return Poly(self.ctx, (mul(a, c) for a in self.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic scaling")
        lead = self.coeffs[-1]
        if lead == self.ctx.one_rep:
            return self
        return self.scale(self.ctx.inv(lead))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        rem = list(self.coeffs)
        quo = [ctx.zero_rep] * max(len(rem) - other.degree, 0)
        _divide(ctx, rem, other.coeffs, quo)
        return Poly._of(ctx, tuple(quo)), Poly._of(ctx, tuple(rem))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        """True when self divides other exactly (self nonzero)."""
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def __call__(self, point):
        """Horner evaluation at an element of the same context."""
        from .field import FieldElem

        ctx = self.ctx
        if not isinstance(point, FieldElem) or point.ctx is not ctx:
            raise ValueError("evaluation point must belong to the same context")
        mul, add, x, acc = ctx.mul, ctx.add, point.rep, ctx.zero_rep
        for c in reversed(self.coeffs):
            acc = add(mul(acc, x), c)
        return FieldElem(ctx, acc)


_set_ctx, _set_coeffs = slot_setters(Poly)


# -- module-level operations ----------------------------------------------


def format_terms(ctx, reps: Sequence, var: str, text: Callable | None = None) -> str:
    """Text of sum_i reps[i] * var^i over ctx, highest power first.

    A coefficient's text is text(rep), ctx.rep_to_str by default.  Zero terms
    are dropped, a text "1" is left implicit, and a text that is a sum is
    parenthesised.  All-zero is "0".
    """
    text = text or ctx.rep_to_str
    terms = []
    for i in range(len(reps) - 1, -1, -1):
        c = reps[i]
        if c == ctx.zero_rep:
            continue
        cs = text(c)
        if i == 0:
            terms.append(cs)
            continue
        xs = var if i == 1 else f"{var}^{i}"
        if cs == "1":
            terms.append(xs)
        elif any(ch in cs for ch in "+- "):
            terms.append(f"({cs})*{xs}")
        else:
            terms.append(f"{cs}*{xs}")
    return " + ".join(terms) if terms else "0"


def convolve(ctx, a: Sequence, b: Sequence) -> list:
    """Schoolbook product of two coefficient sequences over ctx, as a list;
    an empty operand gives a list of zeros, which Poly strips."""
    mul, add, zero = ctx.mul, ctx.add, ctx.zero_rep
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai != zero:
            for j, bj in enumerate(b):
                if bj != zero:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return out


def _divide(ctx, rem: list, b: Sequence, quo: list | None = None) -> None:
    """Reduce rem in place to its remainder mod b, quotient into quo if given.
    Each step pops the top coefficient it cancels; a monic b needs no inverse."""
    mul, sub, zero = ctx.mul, ctx.sub, ctx.zero_rep
    db = len(b) - 1
    lead = b[-1]
    monic = lead == ctx.one_rep
    inv_lead = lead if monic else ctx.inv(lead)
    for i in range(len(rem) - db - 1, -1, -1):
        c = rem.pop()
        if c == zero:
            continue
        f = c if monic else mul(c, inv_lead)
        if quo is not None:
            quo[i] = f
        for j in range(db):
            if b[j] != zero:
                rem[i + j] = sub(rem[i + j], mul(f, b[j]))
    while rem and rem[-1] == zero:
        rem.pop()


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) is an error."""
    a._check(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return Poly._of(a.ctx, tuple(euclid(a.ctx, list(a.coeffs), list(b.coeffs)))).monic()


def euclid(ctx, r0: list, r1: list) -> list:
    """Euclid's last nonzero remainder of two coefficient lists, which it consumes."""
    while r1:
        _divide(ctx, r0, r1)
        r0, r1 = r1, r0
    return r0


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns monic g and u, v with u*a + v*b = g."""
    ctx = a.ctx
    a._check(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    r0, r1 = a, b
    u0, u1 = Poly.one(ctx), Poly.zero(ctx)
    v0, v1 = Poly.zero(ctx), Poly.one(ctx)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    lead_inv = ctx.inv(r0.coeffs[-1])
    return r0.scale(lead_inv), u0.scale(lead_inv), v0.scale(lead_inv)


def square_and_multiply(mul, one, base, e: int):
    """base**e for e >= 0 with the given mul, from the top bit of e down:
    one squaring per bit past the top one, one product more per set bit."""
    if not e:
        return one
    result = base
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


def reciprocal(a: Poly) -> Poly:
    """Coefficient-reversed polynomial x**deg(a) * a(1/x); error on zero."""
    if a.is_zero:
        raise ValueError("zero polynomial has no reciprocal")
    return Poly(a.ctx, tuple(reversed(a.coeffs)))

