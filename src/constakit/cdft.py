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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as datafield
from functools import cached_property
from typing import Sequence

from .field import FieldCtx, FieldElem, elem_order, find_element_of_order
from .numbertheory import mult_order_mod
from .poly import Poly
from .zn import ZnSet

# Powers of delta are precomputed up to this group order; beyond it they
# are memoized one at a time.
EAGER_POWER_LIMIT = 4096


@dataclass(frozen=True)
class CodeParams:
    """Ambient data (field, length, constant) for one constacyclic setting.

    Equality and hashing look only at the triple itself; the derived
    orders are cached on construction because everything downstream
    needs them, and x^n - lam on first use.
    """

    field: FieldCtx
    n: int
    lam: FieldElem
    lam_order: int = datafield(init=False, compare=False, repr=False)
    splitting_degree: int = datafield(init=False, compare=False, repr=False)

    def __post_init__(self):
        ctx = self.field
        if not isinstance(self.lam, FieldElem) or self.lam.ctx is not ctx:
            raise ValueError("lam must be an element of the given field")
        if self.lam.is_zero:
            raise ValueError("lam must be a unit")
        if self.n < 1:
            raise ValueError("length must be >= 1")
        q = ctx.cardinality
        if math.gcd(self.n, q) != 1:
            raise ValueError(f"length {self.n} shares a factor with q = {q}")
        o = elem_order(self.lam)
        m_root = mult_order_mod(q, self.n)
        m_split = mult_order_mod(q, self.n * o)
        # The n-th roots of unity live inside the splitting field of
        # x^n - lam, so the first degree always divides the second.
        if m_split % m_root:
            raise AssertionError("order tower violated; field arithmetic is broken")
        object.__setattr__(self, "lam_order", o)
        object.__setattr__(self, "splitting_degree", m_split)

    @property
    def q(self) -> int:
        return self.field.cardinality

    @cached_property
    def xn_minus_lam(self) -> Poly:
        return Poly.monomial(self.field, self.n) - Poly.from_elements([self.lam])

    def __repr__(self) -> str:
        return f"CodeParams(q={self.q}, n={self.n}, lam={self.lam!r})"


class RootBasis:
    """The n evaluation points xi^j * beta, all powers of one delta.

    xi = delta^xi_exp has order exactly n and beta = delta^beta_exp
    satisfies beta^n = lam.  Keeping everything inside the cyclic group
    generated by delta means products of points and their inverses never
    require a field inversion or discrete logarithm, only exponent
    arithmetic mod ord(delta).
    """

    __slots__ = (
        "params",
        "splitting",
        "delta",
        "delta_order",
        "xi_exp",
        "beta_exp",
        "xi",
        "beta",
        "frobenius_shift",
        "_dpow_rep",
        "_dpow_cache",
        "_point_exp",
        "_factors",
    )

    def __init__(
        self,
        params: CodeParams,
        splitting: FieldCtx,
        delta: FieldElem,
        delta_order: int,
        xi_exp: int,
        beta_exp: int,
    ):
        n = params.n
        e = delta_order
        if delta.ctx is not splitting:
            raise ValueError("delta must live in the splitting context")
        if e % n:
            raise ValueError("ord(delta) must be a multiple of n")
        xi_exp %= e
        beta_exp %= e
        if e // math.gcd(e, xi_exp if xi_exp else e) != n:
            raise ValueError("xi exponent does not give an element of order n")
        self.params = params
        self.splitting = splitting
        self.delta = delta
        self.delta_order = e
        self.xi_exp = xi_exp
        self.beta_exp = beta_exp

        if e <= EAGER_POWER_LIMIT:
            reps = [splitting.one_rep]
            mul = splitting.mul
            for _ in range(e - 1):
                reps.append(mul(reps[-1], delta.rep))
            self._dpow_rep = reps
        else:
            self._dpow_rep = None
        self._dpow_cache = {}

        self.xi = self.delta_pow(xi_exp)
        self.beta = self.delta_pow(beta_exp)
        if self.delta_pow(beta_exp * n) != params.lam.lift(splitting):
            raise ValueError("beta exponent does not produce a root of x^n - lam")

        # xi^t = beta^(q-1); solvable because beta^(q-1) is an n-th root
        # of unity (its n-th power is lam^(q-1) = 1).
        target = beta_exp * (params.q - 1) % e
        for t in range(n):
            if (xi_exp * t - target) % e == 0:
                self.frobenius_shift = t
                break
        else:
            raise ValueError("no frobenius shift; beta^(q-1) escaped <xi>")

        self._point_exp = tuple((xi_exp * j + beta_exp) % e for j in range(n))
        self._factors = None

    @property
    def n(self) -> int:
        return self.params.n

    def delta_pow(self, k: int) -> FieldElem:
        return FieldElem(self.splitting, self._dpow_rep_of(k))

    def _dpow_rep_of(self, k: int):
        k %= self.delta_order
        if self._dpow_rep is not None:
            return self._dpow_rep[k]
        rep = self._dpow_cache.get(k)
        if rep is None:
            rep = self.splitting.pow_rep(self.delta.rep, k)
            self._dpow_cache[k] = rep
        return rep

    def point(self, j: int) -> FieldElem:
        """The j-th evaluation point xi^j * beta."""
        return self.delta_pow(self._point_exp[j % self.n])

    def points(self) -> tuple[FieldElem, ...]:
        return tuple(self.point(j) for j in range(self.n))

    # -- transforms ----------------------------------------------------

    def forward(self, coeffs: Sequence[FieldElem]) -> "Spectrum":
        """Spectrum of a base-field vector (padded with zeros to length n)."""
        base = self.params.field
        reps = self._reps(coeffs, base, "coefficients must be elements of the base field")
        return self._spectrum(reps, base)

    def forward_poly(self, f: Poly) -> "Spectrum":
        if f.ctx is not self.params.field:
            raise ValueError("polynomial is over the wrong field")
        if f.degree >= self.n:
            raise ValueError("polynomial degree must be below n")
        return self._spectrum(f.padded(self.n), f.ctx)

    def forward_extended(self, coeffs: Sequence[FieldElem]) -> "Spectrum":
        """Spectrum of a vector already over the splitting field."""
        spl = self.splitting
        reps = self._reps(coeffs, spl, "coefficients must be elements of the splitting field")
        return self._spectrum(reps, spl)

    def inverse(self, values) -> tuple[FieldElem, ...]:
        """Vector over the splitting field whose spectrum is `values`.

        a_i = n^-1 * sum_j A_j * (xi^j * beta)^(-i).  The power is
        delta^(-i * point_exp[j]), so this is the forward kernel with the
        roles of i and j swapped; n^-1 scales the values before the sum.
        The caller decides whether to project the result down to the base
        field.
        """
        if isinstance(values, Spectrum):
            values = values.values
        spl = self.splitting
        n = self.n
        if len(values) != n:
            raise ValueError(f"spectrum must have exactly n = {n} values")
        reps = self._reps(values, spl, "spectrum values must lie in the splitting field")
        n_inv = spl.rep_from_index(pow(n, -1, spl.p))
        reps = [spl.mul(r, n_inv) for r in reps]
        return self._transform(range(0, -n, -1), self._point_exp, reps, spl)

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

    def _spectrum(self, reps, ctx: FieldCtx) -> "Spectrum":
        return Spectrum(self, self._transform(self._point_exp, range(self.n), reps, ctx))

    def _transform(self, us, vs, reps, ctx: FieldCtx) -> tuple[FieldElem, ...]:
        """out_r = sum_c delta^(u_r * v_c) * x_c, for x_c = reps[c] over ctx.

        ctx is the splitting field or the level just below it.  In the
        latter case each term is spl.scale, a componentwise product by a
        sublevel element; at prime and tabulated levels scale is mul,
        because sublevel indices embed as themselves.
        """
        spl = self.splitting
        add, zero = spl.add, spl.zero_rep
        term = spl.mul if ctx is spl else spl.scale
        e = self.delta_order
        dp = self._dpow_rep_of
        terms = [(v, x) for v, x in zip(vs, reps) if x != ctx.zero_rep]
        out = []
        for u in us:
            acc = zero
            for v, x in terms:
                acc = add(acc, term(dp(u * v % e), x))
            out.append(FieldElem(spl, acc))
        return tuple(out)

    # -- rationality and factors ---------------------------------------

    def is_rational(self, values) -> bool:
        """Whether a spectrum comes from a vector over the base field."""
        if isinstance(values, Spectrum):
            values = values.values
        n, q, t = self.n, self.params.q, self.frobenius_shift
        if len(values) != n:
            raise ValueError(f"spectrum must have exactly n = {n} values")
        spl = self.splitting
        for j, v in enumerate(values):
            if spl.pow_rep(v.rep, q) != values[(q * j + t) % n].rep:
                return False
        return True

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of j -> q*j + t on Z_n, each sorted, ordered by minimum."""
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
        return tuple(out)

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
        if self.splitting is base:
            return f
        coeffs = []
        for c in f:
            if not self.splitting.rep_in_sub(c.rep):
                raise RuntimeError("coefficient does not lie in the base field")
            coeffs.append(c.project(base))
        return Poly.from_elements(coeffs) if coeffs else Poly.zero(base)

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


@dataclass(frozen=True)
class Spectrum:
    """Values of a vector at the n points of a RootBasis, in point order."""

    basis: RootBasis
    values: tuple[FieldElem, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, j: int) -> FieldElem:
        return self.values[j]

    def support(self) -> ZnSet:
        return ZnSet(
            self.basis.n, (j for j, v in enumerate(self.values) if not v.is_zero)
        )

    def is_rational(self) -> bool:
        return self.basis.is_rational(self.values)

    def inverse(self) -> tuple[FieldElem, ...]:
        return self.basis.inverse(self.values)


def build_basis(params: CodeParams) -> RootBasis:
    """Root basis drawn from the smallest extension splitting x^n - lam.

    delta is the canonical element of order n * ord(lam); xi is its
    ord(lam)-th power and beta the smallest power of delta whose n-th
    power equals lam.
    """
    e = params.n * params.lam_order
    m = params.splitting_degree
    splitting = params.field if m == 1 else params.field.extend(m)
    delta = find_element_of_order(splitting, e)
    lam = params.lam.lift(splitting)
    for s in range(params.lam_order):
        if delta ** (s * params.n) == lam:
            return RootBasis(params, splitting, delta, e, params.lam_order, s)
    raise AssertionError("lam escaped the group generated by delta^n")


class BasisFamily:
    """One delta of order n*(q-1) serving every lam for a fixed (field, n).

    All bases handed out by a family share xi and live in one splitting
    field, so spectra taken with respect to different constants can be
    compared or multiplied pointwise directly.  A basis is addressed by
    the exponent s with beta = delta^s; componentwise code products add
    exponents, duals negate them, and Schur powers multiply them.
    """

    def __init__(self, field: FieldCtx, n: int):
        q = field.cardinality
        if math.gcd(n, q) != 1:
            raise ValueError(f"length {n} shares a factor with q = {q}")
        self.field = field
        self.n = n
        self.delta_order = n * (q - 1)
        m = mult_order_mod(q, self.delta_order)
        self.splitting = field if m == 1 else field.extend(m)
        self.delta = find_element_of_order(self.splitting, self.delta_order)
        self._by_exp: dict[int, RootBasis] = {}

    def basis_for_exponent(self, s: int) -> RootBasis:
        s %= self.delta_order
        basis = self._by_exp.get(s)
        if basis is None:
            q = self.field.cardinality
            lam = (self.delta ** (s * self.n)).project(self.field)
            params = CodeParams(self.field, self.n, lam)
            basis = RootBasis(
                params, self.splitting, self.delta, self.delta_order, q - 1, s
            )
            self._by_exp[s] = basis
        return basis

    def basis_for_lambda(self, lam: FieldElem) -> RootBasis:
        """The family basis with the smallest exponent s, beta^n = lam."""
        if not isinstance(lam, FieldElem) or lam.ctx is not self.field:
            raise ValueError("lam must be an element of the family's field")
        lifted = lam.lift(self.splitting)
        for s in range(self.field.cardinality - 1):
            if self.delta ** (s * self.n) == lifted:
                return self.basis_for_exponent(s)
        raise ValueError("lam is not a unit of the base field")

    def __repr__(self) -> str:
        return f"BasisFamily(q={self.field.cardinality}, n={self.n})"
