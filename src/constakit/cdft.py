"""Transforms over the roots of x^n - lam.

When gcd(n, q) = 1 and lam is a unit of F_q, the polynomial x^n - lam
splits into n distinct linear factors x - xi^j*beta over an extension
field, where xi is a primitive n-th root of unity and beta is a fixed
n-th root of lam.  Evaluating a length-n vector at those points is the
forward transform, A_j = sum_i a_i * (xi^j * beta)^i; interpolation is
the inverse, a_i = n^-1 * sum_j A_j * (xi^j * beta)^(-i).  Both xi and
beta are realized as powers of a single element delta, so both
directions are one sum over powers of delta whose exponents are
products mod ord(delta).

Spectra of vectors over F_q are generally not over F_q themselves.  The
trace they leave instead is the constraint A_j^q = A_{q*j + t}, with the
shift t defined by xi^t = beta^(q-1).  Orbits of j -> q*j + t on Z_n
therefore index the monic irreducible factors of x^n - lam.

Each output of either direction is computed on one of three paths,
chosen by the splitting field's kind.  A vector level over the prime
field F_p (m coordinates mod p) takes the packed sum: an element becomes
one int with `bits` bits per coordinate, a term is one int multiply-add,
and an output is unpacked and reduced once: slots m ... 2m-2 mod p,
folded into the low m by the level's rows y^(m+i) mod its modulus, then
each low slot mod p.  A slot of a sum of n packed products is at most
n*m*(p-1)^2 and the fold adds less than m*(p-1)^2, so bits, one past the
bit length of n*m*(p-1)^2, leaves no carry; BasisFamily.packed fixes
bits and the slot layout once per family, and its unpack does the
reduction.  A tabulated splitting field takes the log-domain sum on its
exp/log/Zech arrays: term c of output r has log u_r*v_c*log(delta) +
log(x_c) + log(scale) mod Q - 1, and the sum's log a steps a <- a +
Zech[b - a], Zech[d] = log(1 + g^d), one lookup per term.  That step is
the field's own addition, so the sum is exact; Zech = -1 marks a sum
that cancelled, and the next term restarts it.  Prime splitting fields
and vector levels over a tabulated or vector level take the term loop:
one field multiplication and one field addition per term.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cache, cached_property, partial

from .field import DEFAULT_MAX_CARDINALITY, FieldCtx, FieldElem, elem_order, find_element_of_order
from .numbertheory import mult_order_mod
from .poly import Poly, Shared, Value
from .zn import ZnSet

# Powers of delta are precomputed up to this group order; beyond it they
# are memoized one at a time.
EAGER_POWER_LIMIT = 4096
# Longer n is refused before any n-entry table (n = 4095 factors in ~0.3 s).
MAX_LENGTH = 4096


def _check_length(n: int, q: int) -> None:
    if type(n) is not int:
        raise ValueError(f"length must be an int, got {n!r}")
    if n < 1:
        raise ValueError("length must be >= 1")
    if math.gcd(n, q) != 1:
        raise ValueError(f"length {n} shares a factor with q = {q}")


class CodeParams(Value, fields=("field", "n", "lam")):
    """Ambient data (field, length, constant) for one constacyclic setting.

    Equality, hashing and repr look only at the triple itself.  The derived
    values, ord(lam), the splitting degree ord_{n*ord(lam)}(q) and
    x^n - lam, are computed on first use and kept on the instance.
    """

    def __init__(self, field: FieldCtx, n: int, lam: FieldElem):
        super().__init__(field, n, lam)
        if not isinstance(lam, FieldElem) or lam.ctx is not field:
            raise ValueError("lam must be an element of the given field")
        if lam.is_zero:
            raise ValueError("lam must be a unit")
        _check_length(n, field.cardinality)

    @property
    def q(self) -> int:
        return self.field.cardinality

    @cached_property
    def lam_order(self) -> int:
        return elem_order(self.lam)

    @cached_property
    def splitting_degree(self) -> int:
        return mult_order_mod(self.q, self.n * self.lam_order)

    @cached_property
    def xn_minus_lam(self) -> Poly:
        return Poly.monomial(self.field, self.n) - Poly.from_elements([self.lam])

    def __repr__(self) -> str:
        return f"CodeParams(q={self.q}, n={self.n}, lam={self.lam!r})"


class RootBasis(Shared):
    """The n evaluation points xi^j * beta of one BasisFamily, beta = delta^s.

    The family fixes delta of order e = n*o and xi = delta^o; a basis adds
    only the exponent s.  lam = beta^n = delta^(sn), and the Frobenius
    shift t with xi^t = beta^(q-1) is s*(q-1)/o mod n, because o divides
    q - 1.  Every point is a power of delta, so products of points and
    their inverses never require a field inversion or discrete logarithm,
    only exponent arithmetic mod e.  Bases are made by their family.  A
    basis keeps the codes built on it in `_codes` for as long as it lives:
    code_from_generator keys them by generator Poly, code_from_generating_set
    by ZnSet, and each reads only its own keys.
    """

    __slots__ = (
        "family",
        "params",
        "beta_exp",
        "frobenius_shift",
        "_point_exp",
        "_orbits",
        "_factors",
        "_codes",
    )

    def __init__(self, family: BasisFamily, s: int):
        n, o, e = family.n, family.xi_exp, family.delta_order
        s %= e
        lam = family.delta_pow(s * n).project(family.field)
        self.family = family
        self.params = CodeParams(family.field, n, lam)
        self.beta_exp = s
        self.frobenius_shift = s * ((family.field.cardinality - 1) // o) % n
        self._point_exp = tuple((o * j + s) % e for j in range(n))
        self._orbits = None
        self._factors = None
        self._codes = {}

    splitting = property(lambda self: self.family.splitting)
    delta = property(lambda self: self.family.delta)
    delta_order = property(lambda self: self.family.delta_order)
    xi_exp = property(lambda self: self.family.xi_exp)

    @property
    def n(self) -> int:
        return self.params.n

    def delta_pow(self, k: int) -> FieldElem:
        return self.family.delta_pow(k)

    def point(self, j: int) -> FieldElem:
        """The j-th evaluation point xi^j * beta."""
        return self.family.delta_pow(self._point_exp[j % self.n])

    # -- transforms ----------------------------------------------------

    def forward(self, coeffs: Sequence[FieldElem]) -> "Spectrum":
        """Spectrum of a base-field vector (padded with zeros to length n)."""
        return self._spectrum(coeffs, self.params.field, "coefficients must be elements of the base field")

    def forward_poly(self, f: Poly) -> "Spectrum":
        if not isinstance(f, Poly) or f.ctx is not self.params.field:
            raise ValueError("polynomial is over the wrong field")
        if f.degree >= self.n:
            raise ValueError("polynomial degree must be below n")
        return Spectrum(self, self._transform(self._point_exp, range(self.n), f.coeffs, f.ctx))

    def forward_extended(self, coeffs: Sequence[FieldElem]) -> "Spectrum":
        """Spectrum of a vector already over the splitting field."""
        return self._spectrum(coeffs, self.splitting, "coefficients must be elements of the splitting field")

    def inverse(self, values) -> tuple[FieldElem, ...]:
        """Vector over the splitting field whose spectrum is `values`.

        a_i = n^-1 * sum_j A_j * (xi^j * beta)^(-i).  The power is
        delta^(-i * point_exp[j]), so this is the forward kernel with the
        roles of i and j swapped; n^-1 scales the values before the sum.
        The caller decides whether to project the result down to the base
        field.
        """
        reps, spl, n = self._values(values), self.splitting, self.n
        return self._transform(range(0, -n, -1), self._point_exp, reps, spl, pow(n, -1, spl.p))

    def _values(self, values) -> list:
        """Reps of n splitting-field values, refusing a Spectrum of another basis."""
        if isinstance(values, Spectrum):
            if values.basis is not self:
                raise ValueError("spectrum was taken on a different basis")
            values = values.values
        if len(values) != self.n:
            raise ValueError(f"spectrum must have exactly n = {self.n} values")
        return self._reps(values, self.splitting, "spectrum values must lie in the splitting field")

    def _reps(self, elems, ctx: FieldCtx, message: str) -> list:
        n = self.n
        if len(elems) > n:
            raise ValueError(f"vector longer than n = {n}")
        reps = []
        for x in elems:
            if not isinstance(x, FieldElem) or x.ctx is not ctx:
                raise ValueError(message)
            reps.append(x.rep)
        return reps

    def _spectrum(self, elems, ctx: FieldCtx, message: str) -> "Spectrum":
        reps = self._reps(elems, ctx, message)
        return Spectrum(self, self._transform(self._point_exp, range(self.n), reps, ctx))

    def _transform(self, us, vs, reps, ctx: FieldCtx, scale: int = 1) -> tuple[FieldElem, ...]:
        """out_r = scale * sum_c delta^(u_r * v_c) * x_c, x_c = reps[c] over ctx.

        ctx is the splitting field or the level just below it, and scale is
        an integer mod p.  The path is the module docstring's.  Packed: x_c
        is packed (a residue mod p below the splitting field), and each
        output is BasisFamily.packed's unpack of one packed sum.  Log
        domain: x_c and scale are indices in the splitting field too, so
        their logs are read directly.  Term loop: one add and one mul per
        term, or a componentwise scale when x_c lies in the sublevel.
        """
        fam = self.family
        spl, e = fam.splitting, fam.delta_order
        terms = [(v, x) for v, x in zip(vs, reps) if x != ctx.zero_rep]
        out = []
        if spl.kind == "vector" and spl.subfield.kind == "prime":
            p, (pack, power, unpack) = spl.p, fam.packed
            terms = [(v, pack([c * scale % p for c in x]) if ctx is spl else x * scale % p)
                     for v, x in terms]
            # From a list: tuple() over a generator here raised the roundtrip workload's peak RSS.
            return tuple([FieldElem(spl, unpack(sum(x * power(u * v % e) for v, x in terms)))
                          for u in us])
        if spl.kind == "tabulated":
            exp, log, zech = spl._logs
            n1, ell = spl.cardinality - 1, log[fam.delta.rep]
            terms = [(v * ell, log[x] + log[scale]) for v, x in terms]
            for u in us:
                a = None  # the log of the sum so far, None while it is zero
                for w, b in terms:
                    b += u * w
                    if a is None:
                        a = b
                    else:
                        z = zech[(b - a) % n1]
                        a = a + z if z >= 0 else None
                out.append(FieldElem(spl, 0 if a is None else exp[a % n1]))
            return tuple(out)
        if scale != 1:
            factor = spl.rep_from_index(scale)
            terms = [(v, spl.mul(x, factor)) for v, x in terms]
        add, zero, dp = spl.add, spl.zero_rep, fam.power_rep
        term = spl.mul if ctx is spl else spl.scale
        for u in us:
            acc = zero
            for v, x in terms:
                acc = add(acc, term(dp(u * v % e), x))
            out.append(FieldElem(spl, acc))
        return tuple(out)

    # -- rationality and factors ---------------------------------------

    def is_rational(self, values) -> bool:
        """Whether a spectrum comes from a vector over the base field."""
        reps, n, q, t = self._values(values), self.n, self.params.q, self.frobenius_shift
        pow_rep = self.splitting.pow_rep
        return all(pow_rep(v, q) == reps[(q * j + t) % n] for j, v in enumerate(reps))

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of j -> q*j + t on Z_n, each sorted, ordered by minimum.

        Computed on the first call and kept on the basis.
        """
        if self._orbits is None:
            n, q, t = self.n, self.params.q, self.frobenius_shift
            seen = [False] * n
            out = []
            for start in range(n):
                if seen[start]:
                    continue
                orb = []
                j = start
                while not seen[j]:
                    seen[j] = True
                    orb.append(j)
                    j = (q * j + t) % n
                out.append(tuple(sorted(orb)))
            self._orbits = tuple(out)
        return self._orbits

    def linear_factor_product(self, ks) -> Poly:
        """prod_{k in ks} (x - xi^k * beta) over the splitting field."""
        spl = self.splitting
        f = Poly.one(spl)
        for k in ks:
            f = f * Poly.from_elements([-self.point(k), spl.one()])
        return f

    def poly_to_base(self, f: Poly) -> Poly:
        """Project a splitting-field polynomial down to the base field."""
        base = self.params.field
        try:
            return Poly(base, [c.project(base).rep for c in f])
        except ValueError:
            raise RuntimeError("coefficient does not lie in the base field") from None

    def irreducible_factors(self) -> tuple[Poly, ...]:
        """Monic irreducible factors of x^n - lam over the base, one per orbit.

        The factor of an orbit is the product of x - xi^k * beta over its
        indices k, projected down.  It is computed on the first call and
        kept on the basis, so code generators are assembled from it.
        """
        if self._factors is None:
            self._factors = tuple(
                self.poly_to_base(self.linear_factor_product(orb)) for orb in self.orbits()
            )
        return self._factors

    def __repr__(self) -> str:
        return (
            f"RootBasis(n={self.n}, lam={self.params.lam!r}, "
            f"beta=delta^{self.beta_exp} in {self.splitting!r})"
        )


class Spectrum(Value, fields=("basis", "values")):
    """Values of a vector at the n points of a RootBasis, in point order."""

    def __init__(self, basis: RootBasis, values: tuple[FieldElem, ...]):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, j: int) -> FieldElem:
        return self.values[j]

    def support(self) -> ZnSet:
        return ZnSet._of(
            self.basis.n, tuple([j for j, v in enumerate(self.values) if not v.is_zero])
        )

    def is_rational(self) -> bool:
        return self.basis.is_rational(self.values)

    def inverse(self) -> tuple[FieldElem, ...]:
        return self.basis.inverse(self.values)


def build_basis(params: CodeParams) -> RootBasis:
    """Root basis drawn from the smallest extension splitting x^n - lam.

    It is lam's basis in the memoized family with o = ord(lam): delta is
    the canonical element of order n * ord(lam), xi = delta^ord(lam), and
    beta the smallest power of delta whose n-th power equals lam.
    """
    return basis_family(params.field, params.n, params.lam_order).basis_for_lambda(params.lam)


_FAMILIES: dict[tuple[FieldCtx, int, int], BasisFamily] = {}


def basis_family(field: FieldCtx, n: int, o: int | None = None) -> BasisFamily:
    """The memoized BasisFamily(field, n, o), o defaulting to q - 1; one per process."""
    if type(n) is not int:  # refused before the memo, where 4.0 would find n = 4
        _check_length(n, field.cardinality)
    key = (field, n, field.cardinality - 1 if o is None else o)
    fam = _FAMILIES.get(key)
    if fam is None:
        fam = _FAMILIES[key] = BasisFamily(*key)
    return fam


class BasisFamily(Shared):
    """One delta of order e = n*o and the bases beta = delta^s it carries.

    o divides q - 1 and defaults to q - 1.  The family builds the
    splitting field, delta, xi = delta^o (of order n) and one table of
    delta's powers, which all its bases share.  With the default o it
    serves every lam of F_q with one xi in one splitting field, so spectra
    taken with respect to different constants can be compared or
    multiplied pointwise directly.  A basis is addressed by the exponent s
    with beta = delta^s; componentwise code products add exponents, duals
    negate them, and Schur powers multiply them.
    """

    def __init__(self, field: FieldCtx, n: int, o: int | None = None):
        q = field.cardinality
        _check_length(n, q)
        if o is None:
            o = q - 1
        elif o < 1 or (q - 1) % o:
            raise ValueError(f"{o} does not divide q - 1 = {q - 1}")
        self.field = field
        self.n = n
        self.xi_exp = o
        self.delta_order = e = n * o
        if e >= DEFAULT_MAX_CARDINALITY:  # delta's order e divides Q - 1
            raise ValueError(
                f"a splitting field for n*o >= 2**64 exceeds the cap {DEFAULT_MAX_CARDINALITY}"
            )
        self.splitting = spl = field.extend(mult_order_mod(q, e))
        if n > MAX_LENGTH:
            raise ValueError(f"length {n} exceeds the cap {MAX_LENGTH}")
        self.delta = find_element_of_order(spl, e)
        # power_rep(k) is the rep of delta^k for 0 <= k < e: a table up to
        # EAGER_POWER_LIMIT, memoized one power at a time beyond it.
        if e <= EAGER_POWER_LIMIT:
            reps = [spl.one_rep]
            for _ in range(e - 1):
                reps.append(spl.mul(reps[-1], self.delta.rep))
            self.power_rep = reps.__getitem__
        else:
            self.power_rep = cache(partial(spl.pow_rep, self.delta.rep))
        self._by_exp: dict[int, RootBasis] = {}

    @cached_property
    def packed(self):
        """(pack, power, unpack) for a vector splitting field over F_p.

        pack(rep) = sum_i rep[i] * 2^(bits*i); power(k) is power_rep(k)
        packed on first use and memoized.  unpack(acc) is the rep of a packed
        sum of at most n products: its high slots mod p, folded into the low
        m by the level's _red rows packed, then each low slot mod p.  bits is
        one past the bit length of n*m*(p-1)^2 (see the module docstring), so
        no slot of such a sum, folded or not, carries into the next.
        """
        spl, dp = self.splitting, self.power_rep
        p, m = spl.p, spl.step_degree
        bits = (self.n * m * (p - 1) ** 2).bit_length() + 1
        slot, top = (1 << bits) - 1, bits * m

        def pack(rep):
            return sum(c << bits * i for i, c in enumerate(rep))

        red = [pack(row) for row in spl._red]

        def unpack(acc):
            high, acc = acc >> top, acc & ((1 << top) - 1)
            for row in red:
                if not high:
                    break
                acc += (high & slot) % p * row
                high >>= bits
            return tuple((acc >> s & slot) % p for s in range(0, top, bits))

        return pack, cache(lambda k: pack(dp(k))), unpack

    def delta_pow(self, k: int) -> FieldElem:
        return FieldElem(self.splitting, self.power_rep(k % self.delta_order))

    def basis_for_exponent(self, s: int) -> RootBasis:
        s %= self.delta_order
        basis = self._by_exp.get(s)
        if basis is None:
            basis = self._by_exp[s] = RootBasis(self, s)
        return basis

    def basis_for_lambda(self, lam: FieldElem) -> RootBasis:
        """The family basis with the smallest exponent s, beta^n = delta^(sn) = lam.

        delta^n has order o | q - 1, so s is found by a walk over its powers in F_q.
        """
        field = self.field
        if not isinstance(lam, FieldElem) or lam.ctx is not field:
            raise ValueError("lam must be an element of the family's field")
        step, x = self.delta_pow(self.n).project(field).rep, field.one_rep
        for s in range(self.xi_exp):
            if x == lam.rep:
                return self.basis_for_exponent(s)
            x = field.mul(x, step)
        raise ValueError(f"lam is not a unit of order dividing {self.xi_exp}")

    def __repr__(self) -> str:
        return f"BasisFamily(q={self.field.cardinality}, n={self.n}, o={self.xi_exp})"
