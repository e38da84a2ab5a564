import cmath
import math
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constakit import (
    CodeParams, Spectrum, ZnSet, basis_family, build_field, code_from_generating_set,
    fourier_bias, iterated_sumset, smallest_coset, sumset,
)

_F2 = build_field(2, [])


def test_normalization_and_membership():
    a = ZnSet(6, [7, 1, -5, 3])
    assert a.elements == (1, 3)
    assert 1 in a and 3 in a and 2 not in a
    assert len(a) == 2
    assert list(a) == [1, 3]


def test_requires_positive_modulus():
    with pytest.raises(ValueError):
        ZnSet(0, [])


@pytest.mark.parametrize("make, message", [
    (lambda: ZnSet(4, [1.5]), "ZnSet elements must be ints"),
    (lambda: ZnSet(4, [True, 2.0]), "ZnSet elements must be ints"),
    (lambda: code_from_generating_set(CodeParams(_F2, 7, _F2.one()), None, [0.5]),
     "ZnSet elements must be ints"),
    (lambda: ZnSet(4.0, [1]).complement(), "ZnSet modulus must be an int, got 4.0"),
], ids=["float", "bool", "gen-set", "float-modulus"])
def test_modulus_and_elements_must_be_ints(make, message):
    """Bools and floats reduce mod n to residues, so each is refused first."""
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        make()


def test_complement_negate_translate():
    a = ZnSet(5, [0, 2])
    assert a.complement().elements == (1, 3, 4)
    assert a.negate().elements == (0, 3)
    assert a.translate(4).elements == (1, 4)
    assert a.translate(5) == a


def test_full_and_empty():
    assert ZnSet(4, range(4)).is_full
    assert not ZnSet(4, [1]).is_full
    assert len(ZnSet(4, [])) == 0


def test_sumset_small_cases():
    a = ZnSet(7, [0, 3, 5, 6])
    assert sumset(a, a).is_full
    b = ZnSet(4, [2, 3])
    assert sumset(b, b).elements == (0, 1, 2)
    assert iterated_sumset(b, 3).is_full
    assert iterated_sumset(b, 1) == b


def test_sumset_brute_force_agreement():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(1, 12)
        a = ZnSet(n, rng.sample(range(n), rng.randrange(n + 1)))
        b = ZnSet(n, rng.sample(range(n), rng.randrange(n + 1)))
        expect = sorted({(x + y) % n for x in a for y in b})
        assert list(sumset(a, b)) == expect


def test_sumset_empty_absorbs():
    a = ZnSet(5, [1, 2])
    assert len(sumset(a, ZnSet(5, []))) == 0


def test_sumset_modulus_mismatch():
    with pytest.raises(ValueError):
        sumset(ZnSet(4, [1]), ZnSet(5, [1]))


def test_iterated_sumset_requires_positive():
    with pytest.raises(ValueError):
        iterated_sumset(ZnSet(4, [1]), 0)


def test_smallest_coset_examples():
    offset, sub = smallest_coset(ZnSet(8, [1, 3]))
    assert offset == 1
    assert sub.elements == (0, 2, 4, 6)
    offset, sub = smallest_coset(ZnSet(6, [4]))
    assert offset == 4 and sub.elements == (0,)
    offset, sub = smallest_coset(ZnSet(5, [0, 1]))
    assert offset == 0 and sub.is_full


def test_smallest_coset_is_minimal():
    rng = random.Random(29)
    for _ in range(50):
        n = rng.randrange(1, 13)
        a = ZnSet(n, rng.sample(range(n), rng.randrange(1, n + 1)))
        offset, sub = smallest_coset(a)
        coset = sub.translate(offset)
        assert all(x in coset for x in a)
        # no proper subgroup's coset contains a
        for d in range(1, n + 1):
            if n % d:
                continue
            candidate = ZnSet(n, range(0, n, n // d)) if d < n else ZnSet(n, range(n))
            if len(candidate) >= len(sub):
                continue
            shifted = candidate.translate(a.elements[0])
            assert not all(x in shifted for x in a)


def test_smallest_coset_rejects_empty():
    with pytest.raises(ValueError):
        smallest_coset(ZnSet(4, []))


def _public(result: ZnSet) -> ZnSet:
    """What the checking constructor makes of a result's own elements."""
    return ZnSet(result.n, list(result))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_trusted_producers_build_what_the_public_constructor_builds(data):
    """sumset, iterated_sumset, complement and smallest_coset hand ZnSet._of
    a tuple they built reduced, sorted and distinct; each result equals the
    checking constructor's build of its own elements, tuple for tuple."""
    n = data.draw(st.integers(1, 40))
    elements = st.lists(st.integers(-2 * n, 2 * n), max_size=12)
    a, b = ZnSet(n, data.draw(elements)), ZnSet(n, data.draw(elements))
    results = [sumset(a, b), iterated_sumset(a, data.draw(st.integers(1, 4))), a.complement()]
    if a.elements:
        results.append(smallest_coset(a)[1])
    for result in results:
        public = _public(result)
        assert result.n == n and type(result.elements) is tuple
        assert result.elements == public.elements and result == public
        assert hash(result) == hash(public)


_SPECTRUM_BASES = [basis_family(build_field(p, []), n).basis_for_exponent(0)
                   for p, n in ((2, 7), (2, 31), (3, 40))]


@pytest.mark.parametrize("basis", _SPECTRUM_BASES, ids=["F2-7", "F2-31", "F3-40"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_spectrum_support_builds_what_the_public_constructor_builds(basis, data):
    spl = basis.splitting
    value = st.one_of(st.just(0), st.integers(1, spl.cardinality - 1)).map(spl.elem)
    values = data.draw(st.lists(value, min_size=basis.n, max_size=basis.n))
    support = Spectrum(basis, tuple(values)).support()
    assert support.elements == _public(support).elements
    assert support.elements == tuple(j for j, v in enumerate(values) if not v.is_zero)


def test_fourier_bias_extremes():
    assert fourier_bias(ZnSet(7, range(7))) == 0.0
    assert fourier_bias(ZnSet(12, range(12))) == 0.0
    assert fourier_bias(ZnSet(12)) == 0.0
    assert fourier_bias(ZnSet(2, [0])) == pytest.approx(0.5, abs=1e-12)
    assert fourier_bias(ZnSet(1, [0])) == 0.0


def test_fourier_bias_against_direct_sum():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randrange(2, 14)
        a = ZnSet(n, rng.sample(range(n), rng.randrange(1, n + 1)))
        direct = max(
            abs(sum(cmath.exp(-2j * cmath.pi * x * r / n) for x in a)) / n
            for r in range(1, n)
        )
        got = fourier_bias(a)
        assert math.isclose(got, direct, rel_tol=0, abs_tol=1e-9)
        assert got <= len(a) / n + 1e-9


def test_fourier_bias_bounds_on_every_proper_subset():
    # Upper: the triangle inequality, |sum over a| <= k.  Lower: Parseval,
    # the n - 1 nonzero frequencies share k(n - k) of squared mass.  Since
    # k/n <= 1 <= n/k, bounds_report's bias bound never applies.
    for n in range(2, 13):
        for k in range(1, n):
            low, high = math.sqrt(k * (n - k) / (n - 1)) / n, k / n
            for a in combinations(range(n), k):
                b = fourier_bias(ZnSet(n, a))
                assert low - 1e-12 <= b <= high + 1e-12, (n, a, b)
