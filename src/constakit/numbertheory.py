"""Small integer helpers: primality, factoring, orders, divisors.

Everything here is deterministic.  Sizes are modest (group orders of
desk-scale fields, so < 2**64); Pollard's rho after 2, 3 and 5 is plenty.
order_from_multiple is the one order routine, for (Z/n)^* and field unit groups.
"""

from __future__ import annotations

import math

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the witnesses 2 ... 37, exact below psi_12 ~ 3.18e23,
    the first strong pseudoprime to all twelve (Sorenson & Webster, Math. Comp.
    86, 2017).  build_field applies its 2**64 cap before it tests p."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """One nontrivial factor of composite odd n: Pollard's rho (BIT 15, 1975) on
    x -> x*x + c from 2, Floyd's cycle test, c = 1, 2, ... until one splits n."""
    for c in range(1, 100):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorint(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}, keys ascending."""
    if n < 1:
        raise ValueError("factorint expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("divisors expects a positive integer")
    divs = [1]
    for p, e in factorint(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def order_from_multiple(x, m: int, power, one) -> int:
    """Order of x in a group where x**m = one: strip each prime r from m while
    x**(m/r) = one.  power(x, k) computes x**k."""
    order = m
    for r in factorint(m):
        while order % r == 0 and power(x, order // r) == one:
            order //= r
    return order


def mult_order_mod(a: int, n: int) -> int:
    """Multiplicative order of a modulo n.  Requires gcd(a, n) = 1."""
    if n < 1:
        raise ValueError("modulus must be positive")
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1, order undefined")
    # Euler's phi(n) is a multiple of every unit's order.
    phi = 1
    for p, e in factorint(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return order_from_multiple(a, phi, lambda x, k: pow(x, k, n), 1)
