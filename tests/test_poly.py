import random
import re

import pytest

from constakit import (
    Poly,
    build_field,
    poly_gcd,
    poly_xgcd,
    reciprocal,
    schur,
)
from constakit.numbertheory import divisors, factorint, mult_order_mod


@pytest.fixture(scope="module")
def f3():
    return build_field(3, [])


@pytest.fixture(scope="module")
def f4():
    return build_field(2, [2])


def rand_poly(field, rng, max_deg):
    return Poly(field, [field.elem(rng.randrange(field.cardinality)).rep for _ in range(rng.randrange(max_deg + 2))])


def test_construction_normalizes_leading_zeros(f3):
    p = Poly(f3, [1, 2, 0, 0])
    assert p.degree == 1
    assert p == Poly(f3, [1, 2])
    assert Poly(f3, []).is_zero
    assert Poly.zero(f3).degree == -1


def test_coefficients_ascending(f3):
    p = Poly.from_elements(f3.vector([2, 1, 1]))  # x^2 + x + 2
    assert p.degree == 2
    assert p[0] == f3.elem(2)
    assert p[1] == f3.one()
    assert p[2] == f3.one()
    assert p[17].is_zero  # reads past the end are zero
    assert p.indices() == (2, 1, 1)
    assert repr(p) == "Poly(x^2 + x + 2)"
    assert repr(Poly(f3, [0, 2])) == "Poly(2*x)"
    assert repr(Poly.zero(f3)) == "Poly(0)"


def test_iteration_stops(f3):
    p = Poly(f3, [1, 0, 2])
    assert [c.rep for c in p] == [1, 0, 2]


def test_ring_axioms_random(f3):
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rand_poly(f3, rng, 5) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a


def test_degree_of_product(f3):
    rng = random.Random(5)
    for _ in range(40):
        a, b = rand_poly(f3, rng, 6), rand_poly(f3, rng, 6)
        if a.is_zero or b.is_zero:
            assert (a * b).is_zero
        else:
            assert (a * b).degree == a.degree + b.degree


def test_divmod_invariant(f3):
    rng = random.Random(2)
    for _ in range(80):
        a = rand_poly(f3, rng, 8)
        b = rand_poly(f3, rng, 4)
        if b.is_zero:
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_monic_division_needs_no_inverse(monkeypatch):
    """Dividing by a monic polynomial never inverts its leading coefficient,
    which at a vector level would cost a polynomial xgcd."""
    field = build_field(3, [8])
    assert field.kind == "vector"

    def refuse(a):
        raise RuntimeError("inverse requested")

    monkeypatch.setattr(field, "inv", refuse)
    rng = random.Random(8)
    for _ in range(10):
        a = rand_poly(field, rng, 7)
        low = [field.rep_from_index(rng.randrange(field.cardinality)) for _ in range(rng.randrange(4))]
        b = Poly(field, low + [field.one_rep])
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
    with pytest.raises(RuntimeError):
        divmod(a, b.scale(field.rep_from_index(2)))


def test_divides_and_monic(f3):
    x = Poly.x(f3)
    p = (x + Poly.one(f3)) * (x * x + Poly.one(f3))
    assert (x + Poly.one(f3)).divides(p)
    assert not (x + Poly.from_elements([f3.elem(2)])).divides(p + Poly.one(f3))
    doubled = p.scale(f3.elem(2).rep)
    assert doubled.monic() == p.monic() == p
    zero = Poly.zero(f3)
    assert zero.divides(zero) and not zero.divides(p)


def test_eval_matches_horner(f4):
    rng = random.Random(23)
    for _ in range(30):
        p = rand_poly(f4, rng, 5)
        for a in f4.elements():
            direct = f4.zero()
            for i in range(p.degree, -1, -1):
                direct = direct * a + p[i]
            assert p(a) == direct


def test_gcd_properties(f3):
    rng = random.Random(19)
    for _ in range(60):
        a, b = rand_poly(f3, rng, 6), rand_poly(f3, rng, 6)
        if a.is_zero and b.is_zero:
            with pytest.raises(ValueError):
                poly_gcd(a, b)
            continue
        g = poly_gcd(a, b)
        assert g.is_monic
        assert g.divides(a) and g.divides(b)
        d, u, v = poly_xgcd(a, b)
        assert d == g
        assert u * a + v * b == d


def test_gcd_with_zero(f3):
    p = Poly(f3, [2, 1])
    assert poly_gcd(p, Poly.zero(f3)) == p.monic()
    assert poly_gcd(Poly.zero(f3), p) == p.monic()


def test_element_powers_match_repeated_multiplication(f9):
    g = f9.elem([1, 1])
    elem_power = f9.one()
    for e in range(71):
        assert g**e == elem_power
        elem_power = elem_power * g


@pytest.mark.parametrize("e, products", [(0, 0), (1, 0), (2, 1), (3, 2), (1024, 10), (1023, 18)])
def test_square_and_multiply_product_count(e, products):
    from constakit.poly import square_and_multiply

    calls = []

    def mul(u, v):
        calls.append(None)
        return u * v

    assert square_and_multiply(mul, 1, 3, e) == 3**e
    assert len(calls) == products


def test_reciprocal(f3):
    p = Poly(f3, [2, 1, 1])
    r = reciprocal(p)
    assert r == Poly(f3, [1, 1, 2])
    assert reciprocal(r) == p
    # reversal swaps evaluation at a and 1/a up to a power
    two = f3.elem(2)
    assert r(two) == p(two.inverse()) * two**p.degree


def test_schur_componentwise(f3):
    u = f3.vector([1, 2, 0, 1])
    v = f3.vector([2, 2, 1, 1])
    assert [e.rep for e in schur(u, v)] == [2, 1, 0, 1]
    with pytest.raises(ValueError):
        schur(u, v[:3])
    assert schur((), ()) == ()


# -- division and gcd against independent references ------------------------


def _to_gf(f):
    """Coefficient indices, highest degree first: galoistools' dense form."""
    return list(reversed(f.indices()))


def _division_cases(field, rng):
    """(a, b) pairs, b nonzero: random ones, plus a shorter dividend, equal
    degrees, a constant divisor and a zero dividend."""

    def poly(deg):
        lead = field.rep_from_index(rng.randrange(1, field.cardinality))
        low = [field.rep_from_index(rng.randrange(field.cardinality)) for _ in range(deg)]
        return Poly(field, low + [lead])

    cases = [(rand_poly(field, rng, 8), poly(rng.randrange(4))) for _ in range(40)]
    cases += [(poly(2), poly(5)), (poly(4), poly(4)), (poly(6), poly(0)), (Poly.zero(field), poly(3))]
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_division_and_gcd_match_galoistools(p):
    from sympy import ZZ
    from sympy.polys.galoistools import gf_div, gf_gcd

    field = build_field(p, [])
    for a, b in _division_cases(field, random.Random(p)):
        q, r = divmod(a, b)
        assert (_to_gf(q), _to_gf(r)) == gf_div(_to_gf(a), _to_gf(b), p, ZZ)
        assert a % b == r
        assert _to_gf(poly_gcd(a, b)) == gf_gcd(_to_gf(a), _to_gf(b), p, ZZ)


@pytest.mark.parametrize("p, degrees", [(2, [2]), (3, [5])])
def test_division_and_gcd_identities_over_extensions(p, degrees):
    """q*b + r == a and the gcd's Bezout identity, checked with Poly.__mul__,
    which shares no code with division."""
    field = build_field(p, degrees)
    rng = random.Random(sum(degrees))
    for a, b in _division_cases(field, rng):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        assert a % b == r
        g = poly_gcd(a, b)
        assert g.is_monic
        for f in (a, b):
            cofactor, rest = divmod(f, g)
            assert rest.is_zero and cofactor * g == f
        d, u, v = poly_xgcd(a, b)
        assert d == g and u * a + v * b == g


def test_division_and_gcd_errors(f4):
    a = Poly(f4, [f4.one_rep, f4.one_rep])
    zero = Poly.zero(f4)
    with pytest.raises(ZeroDivisionError):
        divmod(a, zero)
    with pytest.raises(ZeroDivisionError):
        a % zero
    with pytest.raises(ValueError, match="undefined"):
        poly_gcd(zero, zero)


_F3, _F4 = build_field(3, []), build_field(2, [2])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Poly.monomial(_F3, -1), "monomial exponent must be >= 0"),
        (lambda: Poly.from_elements([]), "from_elements needs at least one element"),
        (lambda: Poly.from_elements([_F3.one(), _F4.one()]), "mixed field contexts in coefficient list"),
        (lambda: Poly.monomial(_F3, 3).padded(3), "degree 3 does not fit in length 3"),
        (lambda: Poly.one(_F3) + Poly.one(_F4), "polynomials over different field contexts"),
        (lambda: Poly.zero(_F3).monic(), "zero polynomial has no monic scaling"),
        (lambda: Poly.x(_F3)(_F4.one()), "evaluation point must belong to the same context"),
        (lambda: poly_gcd(Poly.x(_F3), Poly.x(_F4)), "polynomials over different field contexts"),
        (lambda: poly_xgcd(Poly.x(_F3), Poly.x(_F4)), "polynomials over different field contexts"),
        (lambda: poly_gcd(Poly.x(_F3), [1]), "polynomials over different field contexts"),
        (lambda: poly_xgcd(Poly.x(_F3), [1]), "polynomials over different field contexts"),
        (lambda: poly_xgcd(Poly.zero(_F3), Poly.zero(_F3)), "gcd(0, 0) is undefined"),
        (lambda: reciprocal(Poly.zero(_F3)), "zero polynomial has no reciprocal"),
        (lambda: schur([_F3.one()], [_F4.one()]), "schur vectors must share one field context"),
        pytest.param(lambda: schur([1], [2]), "schur vectors must share one field context",
                     id="schur-of-ints"),
        pytest.param(lambda: Poly.from_elements([1, 2]), "mixed field contexts in coefficient list",
                     id="from_elements-of-ints"),
        pytest.param(lambda: Poly.from_elements([_F3.one(), 2]),
                     "mixed field contexts in coefficient list", id="from_elements-with-an-int"),
        pytest.param(lambda: Poly.from_elements([Poly.x(_F3)]),
                     "mixed field contexts in coefficient list", id="from_elements-of-a-poly"),
        (lambda: factorint(0), "factorint expects a positive integer"),
        (lambda: divisors(0), "divisors expects a positive integer"),
        (lambda: mult_order_mod(3, 0), "modulus must be positive"),
    ],
)
def test_bad_input_is_refused(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()
