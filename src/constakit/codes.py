"""Constacyclic codes and their componentwise (Schur) structure.

A lam-constacyclic code of length n over F_q is an ideal of
F_q[x]/(x^n - lam), generated by a unique monic divisor g of x^n - lam.
The code is represented spectrally by its generating set
G = {j : g(xi^j * beta) != 0}; dim C = |G| = n - deg g.

Componentwise products of codes move to sumsets of generating sets,
which is why every code built here carries a basis drawn from one
BasisFamily per (field, n): all such bases share xi, so generating sets
of different codes live on a common index line and can be added.
"""

from __future__ import annotations

import math

from .cdft import CodeParams, RootBasis, basis_family
from .field import FieldElem
from .numbertheory import is_prime
from .poly import Poly, Value, euclid, poly_gcd, reciprocal
from .zn import ZnSet, iterated_sumset, smallest_coset, sumset


class ConstaCode(Value, fields=("params", "generator", "basis", "gen_set", "_pattern"),
                 compare=("params", "generator")):
    """An immutable constacyclic code, identified by (params, generator)."""

    def __init__(self, params: CodeParams, generator: Poly, basis: RootBasis, gen_set: ZnSet):
        super().__init__(params, generator, basis, gen_set, None)

    @property
    def dim(self) -> int:
        return self.params.n - self.generator.degree

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.dim == self.params.n

    def __repr__(self) -> str:
        p = self.params
        return f"ConstaCode(q={p.q}, n={p.n}, lam={p.lam!r}, g={self.generator!r})"


def _resolve_basis(params: CodeParams, basis: RootBasis | None) -> RootBasis:
    """The default family basis for params, or the given basis if it fits them."""
    if basis is None:
        return basis_family(params.field, params.n).basis_for_lambda(params.lam)
    if basis.params != params:
        raise ValueError("basis was built for different parameters")
    return basis


def code_from_generator(
    params: CodeParams, g: Poly, basis: RootBasis | None = None
) -> ConstaCode:
    """The code generated by a monic divisor g of x^n - lam.

    A given basis is asked first; its memo keeps the code under g once g
    has passed every check below and the transform has given its support.
    """
    if not isinstance(g, Poly):  # a ZnSet would read the other route's entry
        raise ValueError("generator must be a polynomial")
    if basis is not None and basis.params == params and g in basis._codes:
        return basis._codes[g]
    if g.ctx is not params.field:
        raise ValueError("generator is over the wrong field")
    if not g.is_monic:
        raise ValueError("generator must be monic")
    basis = _resolve_basis(params, basis)  # refuses a length past the cap
    if not g.divides(params.xn_minus_lam):
        lam = params.field.rep_to_str(params.lam.rep)
        raise ValueError(f"{g!r} does not divide x^{params.n} - ({lam})")
    gen_set = basis.forward_poly(g % params.xn_minus_lam).support()  # the zero code's g reduces to 0
    if len(gen_set) != params.n - g.degree:
        raise AssertionError("support size disagrees with degree; basis is broken")
    return basis._codes.setdefault(g, ConstaCode(params, g, basis, gen_set))


def code_from_generating_set(
    params: CodeParams, basis: RootBasis | None, gen_set
) -> ConstaCode:
    """The code whose spectrum is supported exactly on gen_set.

    The complement must be closed under j -> q*j + t; otherwise no code
    over F_q has this generating set and the offending index is named.
    The complement is then a union of orbits, and the generator is the
    product of their irreducible factors, which the basis caches.  The
    basis's memo keeps the code under its ZnSet once both steps are done;
    codes built from a generator are never read here.
    """
    basis = _resolve_basis(params, basis)
    n, q, t = params.n, params.q, basis.frobenius_shift
    if not isinstance(gen_set, ZnSet):
        gen_set = ZnSet(n, gen_set)
    elif gen_set.n != n:
        raise ValueError(f"generating set lives in Z_{gen_set.n}, expected Z_{n}")
    if gen_set in basis._codes:
        return basis._codes[gen_set]
    zeros = gen_set.complement()
    for j in zeros:
        image = (q * j + t) % n
        if image not in zeros:
            raise ValueError(
                f"no such code: complement element {j} maps to {image}, "
                "which is back in the generating set"
            )
    g = Poly.one(params.field)
    for orb, f in zip(basis.orbits(), basis.irreducible_factors()):
        if orb[0] in zeros:
            g = g * f
    return basis._codes.setdefault(gen_set, ConstaCode(params, g, basis, gen_set))


# -- duality ------------------------------------------------------------


def dual_generating_set(c: ConstaCode) -> tuple[ZnSet, ConstaCode]:
    """Generating set of the Euclidean dual, with the dual code itself.

    The dual of a lam-constacyclic code is lam^{-1}-constacyclic; with
    respect to (xi, beta^{-1}) its generating set is -(Z_n \\ G) and its
    generator is the monic reciprocal of (x^n - lam)/g.
    """
    dset = c.gen_set.complement().negate()
    h = c.params.xn_minus_lam // c.generator
    hstar = reciprocal(h).monic()
    dual_basis = c.basis.family.basis_for_exponent(-c.basis.beta_exp)
    return dset, code_from_generator(dual_basis.params, hstar, dual_basis)


# -- pattern polynomials and cores ---------------------------------------


class PatternPoly(Value, fields=("n", "v", "alpha")):
    """p(x) = sum_{i < n/v} alpha^i x^{iv}; trivial (p = 1) when v = n."""

    def __init__(self, n: int, v: int, alpha: FieldElem):
        object.__setattr__(self, "n", n)  # built in verify's hot loop, so set directly
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "alpha", alpha)
        if v < 1 or n % v:
            raise ValueError(f"{v} does not divide the length {n}")
        if alpha.is_zero:
            raise ValueError("alpha must be nonzero")
        if v == n and alpha != alpha.ctx.one():
            raise ValueError("the trivial pattern is normalized to alpha = 1")

    @property
    def is_trivial(self) -> bool:
        return self.v == self.n

    def polynomial(self) -> Poly:
        ctx = self.alpha.ctx
        coeffs = [ctx.zero()] * (self.n - self.v + 1)
        power = ctx.one()
        for i in range(self.n // self.v):
            coeffs[i * self.v] = power
            power = power * self.alpha
        return Poly.from_elements(coeffs)


def pattern_polynomial(c: ConstaCode) -> PatternPoly:
    """Pattern of a nonzero code, read off its generating set.

    v is the size of the subgroup of Z_n generated by the differences
    within G (the one smallest_coset finds); v = n means the support
    spreads over all of Z_n and the pattern is trivial.  Otherwise alpha
    is the ratio g_v / g_0, which is well defined because the core factor
    of g has degree below v.  Computed on the first call, kept on the code.
    """
    if c.is_zero:
        raise ValueError("the zero code has no pattern polynomial")
    if c._pattern is None:
        n = c.params.n
        v = len(smallest_coset(c.gen_set)[1])
        alpha = c.params.field.one()
        if v != n:
            g = c.generator
            alpha = g[v] / g[0]
            if alpha.is_zero:
                raise AssertionError("degenerate generator lost its x^v coefficient")
        object.__setattr__(c, "_pattern", PatternPoly(n, v, alpha))
    return c._pattern


def core_code(c: ConstaCode) -> ConstaCode:
    """The length-v code whose generator is g/p, for degenerate c.

    p divides x^n - lam exactly when lam = alpha^(-n/v), and peeling p
    off leaves a divisor of x^v - alpha^(-1); both facts are validated
    rather than assumed, so a bad pattern is a hard fault here.
    """
    pat = pattern_polynomial(c)
    if pat.is_trivial:
        raise ValueError("only degenerate codes have a core")
    p = pat.polynomial()
    gbar, rem = divmod(c.generator, p)
    if not rem.is_zero:
        raise RuntimeError("pattern does not divide the generator")
    gbar = gbar.monic()
    basis = basis_family(c.params.field, pat.v).basis_for_lambda(pat.alpha.inverse())
    if not gbar.divides(basis.params.xn_minus_lam):
        raise RuntimeError("core generator does not divide x^v - 1/alpha")
    return code_from_generator(basis.params, gbar, basis)


# -- componentwise products ----------------------------------------------


def _family_basis(s: int, *codes: ConstaCode) -> RootBasis:
    """delta^s's basis in the (field, n) family, which holds a code's basis exactly
    when its o is q - 1, as a family's delta is canonical for its (field, n, o)."""
    for c in codes:
        if c.basis.xi_exp != c.params.q - 1:
            raise ValueError(
                "code was built on a basis outside the (field, n) family; "
                "rebuild it with the default basis to take products"
            )
    return basis_family(c.params.field, c.params.n).basis_for_exponent(s)


def product_basis(c1: ConstaCode, c2: ConstaCode) -> RootBasis:
    """The family basis of c1 o c2, beta = beta1 * beta2."""
    if c1.params.field is not c2.params.field or c1.params.n != c2.params.n:
        raise ValueError("codes must share field and length")
    return _family_basis(c1.basis.beta_exp + c2.basis.beta_exp, c1, c2)


def schur_product_sumset(c1: ConstaCode, c2: ConstaCode) -> ConstaCode:
    """Componentwise product code, computed as G1 + G2 w.r.t. beta1*beta2."""
    basis = product_basis(c1, c2)
    g3 = sumset(c1.gen_set, c2.gen_set)
    return code_from_generating_set(basis.params, basis, g3)


def schur_product_gcd(
    c1: ConstaCode, c2: ConstaCode, s: Poly | None = None
) -> ConstaCode:
    """Componentwise product code, computed as a time-domain gcd.

    The generator is gcd({g o (x^j g2) : 0 <= j < n - deg g2}, x^n - lam1*lam2)
    with g = g1*s mod (x^n - lam1) for any s coprime to (x^n - lam1)/g1
    (s = 1 when omitted).  Row j is x^j * h_j, h_j = g[j : j + deg g2 + 1] o g2,
    and x^j drops out: each partial gcd divides x^n - lam1*lam2, which has a
    nonzero constant term, so x is a unit modulo it.  poly.euclid runs on the
    windows h_j, of degree <= deg g2, as bare lists and stops at gcd 1.
    """
    basis = product_basis(c1, c2)
    params3 = basis.params
    n = params3.n
    ctx = params3.field
    xn1 = c1.params.xn_minus_lam
    g = c1.generator
    if s is not None:
        if not isinstance(s, Poly) or s.ctx is not ctx:
            raise ValueError("s is over the wrong field")
        if poly_gcd(s, xn1 // g).degree != 0:
            raise ValueError("s shares a factor with (x^n - lam1)/g1")
        g = g * s
    if g.degree >= n:  # only with s given, or for the zero code
        g = g % xn1
    g2, zero = c2.generator.coeffs, ctx.zero_rep
    acc = list(params3.xn_minus_lam.coeffs)
    for j in range(n + 1 - len(g2)):
        r = list(map(ctx.mul, g.coeffs[j:], g2))
        while r and r[-1] == zero:
            r.pop()
        acc = euclid(ctx, acc, r)
        if len(acc) == 1:
            break
    return code_from_generator(params3, Poly._of(ctx, tuple(acc)).monic(), basis)


def schur_power(c: ConstaCode, i: int) -> ConstaCode:
    """The i-fold componentwise power, as an iterated sumset w.r.t. beta^i."""
    if i < 1:
        raise ValueError("power must be >= 1")
    if i == 1:
        return c
    basis = _family_basis(c.basis.beta_exp * i, c)
    gi = iterated_sumset(c.gen_set, i)
    return code_from_generating_set(basis.params, basis, gi)


def power_pattern(pat: PatternPoly, i: int) -> PatternPoly:
    """Pattern of the i-th componentwise power: alpha -> alpha^i, same v."""
    if i < 1:
        raise ValueError("power must be >= 1")
    return PatternPoly(pat.n, pat.v, pat.alpha**i)


def factored_power_generator(c: ConstaCode, i: int) -> Poly:
    """Generator of c^(o i) assembled from the core: gbar_i * (p with alpha^i).

    Only defined for degenerate codes; the direct computation and this
    factored form must agree exactly.  The raw product is only monic up
    to the pattern's leading coefficient, so it is normalized here.
    """
    core = core_code(c)
    pat = pattern_polynomial(c)
    core_i = schur_power(core, i)
    return (core_i.generator * power_pattern(pat, i).polynomial()).monic()


def dimension_sequence(c: ConstaCode) -> tuple[tuple[int, ...], int]:
    """Dimensions of the powers c, c^(o 2), ... up to stabilization.

    Returns (dims, r) where dims stops at the first stable value and r
    is its 1-based index; the sequence is strictly increasing before
    that because each sumset contains a translate of the previous one.
    """
    if c.is_zero:
        raise ValueError("the zero code has no power sequence")
    dims = [len(c.gen_set)]
    current = c.gen_set
    while True:
        current = sumset(current, c.gen_set)
        d = len(current)
        if d == dims[-1]:
            break
        dims.append(d)
    return tuple(dims), len(dims)


def pattern_of_product(c1: ConstaCode, c2: ConstaCode) -> PatternPoly:
    """Pattern of c1 o c2 from the factor patterns alone.

    v3 = lcm(v1, v2) and alpha3 = alpha1^(v3/v1) * alpha2^(v3/v2); if
    either factor is non-degenerate (v = n) the product's pattern is
    trivial, which the formula reproduces after normalization.
    """
    if c1.params.field is not c2.params.field or c1.params.n != c2.params.n:
        raise ValueError("codes must share field and length")
    pat1, pat2 = pattern_polynomial(c1), pattern_polynomial(c2)
    n = pat1.n
    v3 = pat1.v * pat2.v // math.gcd(pat1.v, pat2.v)
    if v3 == n:
        return PatternPoly(n, n, c1.params.field.one())
    alpha3 = pat1.alpha ** (v3 // pat1.v) * pat2.alpha ** (v3 // pat2.v)
    return PatternPoly(n, v3, alpha3)


# -- bounds ---------------------------------------------------------------


def bounds_report(c: ConstaCode) -> dict:
    """Evaluate the regularity bounds for a nonzero code.

    square_fills: 2k > n forces the componentwise square to be full.
    regularity_bound (k >= 2): the iterated sumset fills (or, degenerate
    case, stabilizes) at every integer exponent >= (n-1)/(k-1) for prime
    n, else 2v/k, so the holds predicate compares r against the first
    such integer.  The bound itself is reported unrounded.
    bias_bound: max(3, (2*log b - log(n/k)) / (log b - log(n/k))) with b
    the Fourier bias of G, kept as stated but never applicable: b <= k/n by
    the triangle inequality and k/n <= 1 <= n/k, so the denominator is <= 0.
    Its record names the reason from n, k and v without computing b: a
    degenerate code, k = n (only Z_n has bias 0), or a negative denominator.
    """
    if c.is_zero:
        raise ValueError("bounds are stated for nonzero codes")
    n, k = c.params.n, c.dim
    dims, r = dimension_sequence(c)
    pat = pattern_polynomial(c)
    report = {"n": n, "k": k, "r": r, "dims": dims}

    # dims stops at the first stable size, so the square's size is dims[1]
    # unless G + G already had the size of G.
    square_dim = dims[1] if len(dims) > 1 else dims[0]
    over_half = 2 * k > n
    report["square_fills"] = {
        "applies": over_half,
        "square_full": square_dim == n,
        "holds": (not over_half) or square_dim == n,
    }

    if k >= 2:
        if is_prime(n):
            num, den = n - 1, k - 1
        else:
            num, den = 2 * pat.v, k
        # r <= ceil(num/den), kept in integers: r*den <= den*ceil
        holds = r * den <= den * (-(-num // den))
        report["regularity_bound"] = {"applies": True, "bound": num / den, "holds": holds}
    else:
        report["regularity_bound"] = {"applies": False, "bound": None, "holds": True}

    if not pat.is_trivial:
        reason = "degenerate code"
    elif k == n:
        reason = "zero bias"
    else:
        reason = "nonpositive denominator"
    report["bias_bound"] = {"applicable": False, "reason": reason, "bound": None}
    return report
