"""The packed and log-domain transforms against results computed without a transform.

A vector splitting field over a prime sublevel takes the packed sum in
RootBasis._transform, and a tabulated one the log-domain sum.  Their
spectra are checked here against Horner evaluation (Poly.__call__, which
multiplies in the splitting field one term at a time) of the vector's
polynomial at each point, and their inverse against the vector it came
from.  The packed cases reach a wide and a narrow prime, a long length,
lazily memoized delta powers and the widest slots; the log-domain cases
reach characteristic 2, odd characteristic, n^-1 != 1 and a tabulated base
field.  A property test draws points on all three paths, the term loop over
a tabulated sublevel included, and checks that forward and inverse undo
each other.
"""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from constakit import CodeParams, Poly, build_basis, build_field
from constakit.cdft import EAGER_POWER_LIMIT, basis_family


def _basis(p, n, lam, degrees=()):
    field = build_field(p, degrees)
    return build_basis(CodeParams(field, n, field.elem(lam)))


def _is_packed(basis):
    spl = basis.splitting
    return spl.kind == "vector" and spl.subfield.kind == "prime"


def _packed_basis(p, n, lam):
    basis = _basis(p, n, lam)
    assert _is_packed(basis)
    return basis


def _lifted(basis, a):
    return [x.lift(basis.splitting) for x in a]


def _check_against_horner(basis, a, js):
    """forward(a) at each j in js is a's polynomial at point j; inverse undoes it."""
    spectrum = basis.forward(a)
    up = Poly.from_elements(_lifted(basis, a))
    for j in js:
        assert spectrum[j] == up(basis.point(j)), j
    return spectrum


@pytest.mark.parametrize(
    "p,degrees,n,lams,vectors",
    [(5, [], 16, [1, 2, 3, 4], 3), (3, [], 16, [2], 5), (2, [], 47, [1], 3),
     (2, [], 15, [1], 3), (3, [], 7, [1, 2], 3), (5, [], 13, [1, 2, 3, 4], 3),
     (2, [2], 7, [1, 2, 3], 3)],
    ids=["F5-n16", "F3-n16", "F2-n47", "F2-n15", "F3-n7", "F5-n13", "GF4-n7"],
)
def test_packed_spectra_match_horner_and_invert(p, degrees, n, lams, vectors):
    """Over F_5 at n = 16, lam = 1 splits in GF(5^4), and the last four
    cases split in GF(2^4), GF(3^6), GF(5^4) and GF(4^3) for every lam: the
    log-domain sum in characteristic 2, in odd characteristic, with
    n^-1 = 2 in inverse, and over a tabulated base field."""
    rng = random.Random(f"{p}-{n}")
    for lam in lams:
        basis = _basis(p, n, lam, degrees)
        spl, field = basis.splitting, basis.params.field
        assert _is_packed(basis) or spl.kind == "tabulated"
        for _ in range(vectors):
            a = [field.elem(rng.randrange(field.cardinality)) for _ in range(n)]
            spectrum = _check_against_horner(basis, a, range(n))
            assert list(basis.inverse(spectrum)) == _lifted(basis, a)
        values = [spl.elem(rng.randrange(spl.cardinality)) for _ in range(n)]
        assert list(basis.forward_extended(basis.inverse(values)).values) == values


def test_packed_widest_slots_with_lazy_delta_powers():
    """GF(4099^2): a primitive lam gives delta of order 2 * 4098, past the
    eager table, and (p - 1)^2 makes the widest slot of every case here."""
    p = 4099
    lam = next(g for g in range(2, p) if all(pow(g, (p - 1) // r, p) != 1 for r in (2, 3, 683)))
    basis = _packed_basis(p, 2, lam)
    assert basis.delta_order > EAGER_POWER_LIMIT
    field, rng = basis.params.field, random.Random(4099)
    for _ in range(50):
        a = [field.elem(rng.randrange(p)) for _ in range(2)]
        spectrum = _check_against_horner(basis, a, range(2))
        assert list(basis.inverse(spectrum)) == _lifted(basis, a)


def test_unpack_at_the_no_carry_bound():
    """Over F_31 at n = 3 the family splits in GF(31^3): m = 3 and every slot
    of a packed sum is at most M = n*m*(p - 1)^2 = 8100, a 13-bit value.  With
    the low slots at M and the high slots at 8090, the largest value <= M
    that is -1 mod 31, the fold adds 30 times each _red row to slots already
    at M, which carries unless bits leaves one spare bit past M's bit length.
    unpack must agree with the same slots reduced by Poly % modulus."""
    fam = basis_family(build_field(31, []), 3)
    spl, m = fam.splitting, fam.splitting.step_degree
    assert (spl.cardinality, spl.kind, spl.subfield.kind) == (31**3, "vector", "prime")
    top = fam.n * m * 30**2
    high = top - top % 31 - 1
    assert (top, high, high % 31) == (8100, 8090, 30)
    pack, _, unpack = fam.packed
    slots = [top] * m + [high] * (m - 1)
    direct = Poly(spl.subfield, [c % 31 for c in slots]) % spl.modulus
    assert unpack(pack(slots)) == direct.padded(m)


def test_packed_forward_at_length_1001_matches_horner():
    """F_2 at n = 1001 splits in GF(2^60); five seeded points are checked."""
    basis = _packed_basis(2, 1001, 1)
    assert basis.splitting.cardinality == 2**60
    rng = random.Random(1001)
    a = [basis.params.field.elem(rng.randrange(2)) for _ in range(1001)]
    _check_against_horner(basis, a, rng.sample(range(1001), 5))


def _inverse_makes_no_splitting_field_op(monkeypatch, basis):
    spl, field, n = basis.splitting, basis.params.field, basis.n
    spectrum = basis.forward([field.elem(i % field.p) for i in range(n)])
    calls = []
    for name in ("mul", "scale", "add"):
        op = getattr(spl, name)
        monkeypatch.setattr(spl, name, lambda *args, _op=op, _name=name: calls.append(_name) or _op(*args))
    back = basis.inverse(spectrum)
    assert calls == []
    assert [x.project(field).index for x in back] == [i % field.p for i in range(n)]


def test_packed_inverse_makes_no_splitting_field_mul(monkeypatch):
    """A GF(5^16) inverse never falls back to the term loop."""
    _inverse_makes_no_splitting_field_op(monkeypatch, _packed_basis(5, 16, 2))


def test_log_domain_inverse_makes_no_splitting_field_mul_or_add(monkeypatch):
    """A GF(5^4) inverse, scaled by n^-1 = 2, reads only the log arrays."""
    basis = _basis(5, 13, 2)
    assert basis.splitting.kind == "tabulated"
    _inverse_makes_no_splitting_field_op(monkeypatch, basis)


# (p, degrees, largest n): F_p, then bases whose splitting fields past 4096
# elements are vector levels over a tabulated sublevel, GF(4) and GF(9) on its
# table kernel and GF(3^5) on its generic kernel.  n is bounded per base so
# that each drawn point builds and transforms in well under a second.
_BASES = ((2, (), 40), (3, (), 40), (5, (), 40), (7, (), 40),
          (2, (2,), 40), (3, (2,), 20), (3, (5,), 10))


@st.composite
def summed_points(draw):
    """(p, n, lam, degrees) whose splitting field is a proper extension."""
    p, degrees, largest = draw(st.sampled_from(_BASES))
    n = draw(st.integers(1, largest).filter(lambda n: math.gcd(n, p) == 1))
    field = build_field(p, degrees)
    lam = draw(st.integers(1, field.cardinality - 1))
    params = CodeParams(field, n, field.elem(lam))
    # Up to 4096 elements the splitting field is tabulated, past it a vector
    # level; at most 2^40 keeps each field's build and delta search short.
    assume(params.splitting_degree > 1 and field.cardinality**params.splitting_degree <= 2**40)
    return p, n, lam, degrees


@settings(max_examples=80, deadline=None)
@given(point=summed_points(), seed=st.integers(0, 2**32))
@example(point=(2, 9, 2, (2,)), seed=0)  # GF(2^18) over GF(4)
@example(point=(3, 8, 4, (2,)), seed=0)  # GF(3^16) over GF(9)
@example(point=(3, 4, 1, (5,)), seed=0)  # GF(3^10) over GF(3^5)
def test_packed_transforms_are_mutually_inverse(point, seed):
    """Drawn points take the packed sum, the log-domain sum or the term loop."""
    basis = _basis(*point)
    spl, field, n = basis.splitting, basis.params.field, basis.n
    assert spl.kind == "tabulated" or spl.subfield.kind in ("prime", "tabulated")
    rng = random.Random(seed)
    a = [field.elem(rng.randrange(field.cardinality)) for _ in range(n)]
    assert list(basis.inverse(basis.forward(a))) == _lifted(basis, a)
    values = [spl.elem(rng.randrange(spl.cardinality)) for _ in range(n)]
    assert list(basis.forward_extended(basis.inverse(values)).values) == values


@settings(max_examples=60, deadline=None)
@given(point=summed_points(), seed=st.integers(0, 2**32))
@example(point=(2, 9, 1, ()), seed=0)  # GF(2^6), tabulated over F_2
@example(point=(5, 16, 2, ()), seed=0)  # GF(5^16), a vector level over F_5
@example(point=(2, 9, 2, (2,)), seed=0)  # GF(2^18) over GF(4)
@example(point=(3, 8, 4, (2,)), seed=0)  # GF(3^16) over GF(9)
@example(point=(3, 4, 1, (5,)), seed=0)  # GF(3^10) over GF(3^5)
def test_spectra_of_base_vectors_satisfy_the_frobenius_relation(point, seed):
    """A_(qj+t) = A_j^q for the spectrum of a base-field vector; a spectrum
    with one value moved off that relation is not rational."""
    basis = _basis(*point)
    spl, field, n = basis.splitting, basis.params.field, basis.n
    q, t = field.cardinality, basis.frobenius_shift
    rng = random.Random(seed)
    spectrum = basis.forward([field.elem(rng.randrange(q)) for _ in range(n)])
    for j in range(n):
        assert spectrum[(q * j + t) % n] == spectrum[j] ** q, j
    assert spectrum.is_rational()
    # Frobenius is a bijection, so A_j^q = A_(qj+t) pins A_j; an orbit of one
    # point asks only A_j in F_q, which the added element of index q is not.
    j = rng.randrange(n)
    values = list(spectrum.values)
    values[j] += spl.elem(q)
    assert not basis.is_rational(values)
