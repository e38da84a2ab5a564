import math
import random

import pytest
import sympy

from constakit.numbertheory import divisors, factorint, is_prime, mult_order_mod


SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}


def test_is_prime_small_range():
    for n in range(-3, 50):
        assert is_prime(n) == (n in SMALL_PRIMES)


@pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1, 10**9 + 7])
def test_is_prime_known_primes(p):
    assert is_prime(p)


@pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 3215031751, 3825123056546413051])
def test_is_prime_rejects_carmichael(n):
    # classic pseudoprime traps for weak probabilistic tests; the Carmichael
    # numbers have a factor <= 37 and fall to trial division, while the last
    # two, strong pseudoprimes to 2 ... 7 and to 2 ... 31 with every factor
    # above 37, are rejected only by a later Miller-Rabin witness (11, 37)
    assert not is_prime(n)


def test_factorint_reassembles():
    for n in range(1, 400):
        fac = factorint(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p) and e >= 1
            prod *= p**e
        assert prod == n


def test_factorint_of_one():
    assert factorint(1) == {}


@pytest.mark.parametrize("n,expected", [
    (2**59 - 1, {179951: 1, 3203431780337: 1}),
    (1000003 * 1000033, {1000003: 1, 1000033: 1}),
    (2**64 - 1, {3: 1, 5: 1, 17: 1, 257: 1, 641: 1, 65537: 1, 6700417: 1}),
    (2147483659**2, {2147483659: 2}),
    (2097169**3, {2097169: 3}),
    (4294967291 * 4294967279, {4294967279: 1, 4294967291: 1}),
    (3000000019 * 3000000037, {3000000019: 1, 3000000037: 1}),
])
def test_factorint_past_trial_division(n, expected):
    """Factors past 2, 3 and 5 come from Pollard's rho, large ones included:
    prime powers and balanced semiprimes near the 2**64 cap."""
    assert factorint(n) == expected


def test_factorint_matches_sympy_on_small_prime_factors():
    """Small primes reach Pollard's rho once 2, 3 and 5 are stripped: every
    prime power r**k < 2**64 with r < 2,000, and 300 seeded products of two
    to four primes below 100,000, factor as sympy factors them."""
    cases = [r**k for r in sympy.primerange(2, 2_000) for k in range(1, 64) if r**k < 2**64]
    primes = list(sympy.primerange(2, 100_000))
    rng = random.Random(29)
    cases += [math.prod(rng.choices(primes, k=rng.randint(2, 4))) for _ in range(300)]
    for n in cases:
        assert factorint(n) == sympy.factorint(n), n


def test_divisors_ascending():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    for n in (36, 97, 360):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert all(n % d == 0 for d in ds)
        assert len(ds) == sum(1 for k in range(1, n + 1) if n % k == 0)


def test_mult_order_divides_totient():
    for n in range(2, 60):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                with pytest.raises(ValueError):
                    mult_order_mod(a, n)
                continue
            d = mult_order_mod(a, n)
            assert pow(a, d, n) == 1
            # minimality
            assert all(pow(a, e, n) != 1 for e in range(1, d))


def test_mult_order_trivial_modulus():
    assert mult_order_mod(7, 1) == 1
