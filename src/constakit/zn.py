"""Subsets of Z_n: sumsets, generated subgroups, and Fourier bias.

ZnSet is a normalized immutable subset of Z_n.  The empty set is legal
everywhere except where a minimum element is required (smallest_coset).
The trusted `ZnSet._of` takes, unchecked, the tuples that sumset,
complement, smallest_coset and a spectrum's support build sorted and distinct.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable

from .poly import Value


class ZnSet(Value, fields=("n", "elements")):
    """A subset of Z_n; elements are stored reduced, sorted, deduplicated."""

    def __init__(self, n: int, elements: Iterable[int] = ()):
        if type(n) is not int:
            raise ValueError(f"ZnSet modulus must be an int, got {n!r}")
        if n < 1:
            raise ValueError("modulus must be >= 1")
        residues = {e % n if type(e) is int else None for e in elements}
        if None in residues:  # a bool or a float would have reduced to a residue
            raise ValueError("ZnSet elements must be ints")
        elems = tuple(sorted(residues))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "elements", elems)

    @classmethod
    def _of(cls, n: int, elements: tuple[int, ...]) -> "ZnSet":
        """The ZnSet of a sorted tuple of distinct residues mod n, taken as is.
        Producers build it from a list: a tuple grown from a generator keeps spare room."""
        z = object.__new__(cls)
        object.__setattr__(z, "n", n)
        object.__setattr__(z, "elements", elements)
        return z

    def __contains__(self, x: int) -> bool:
        return x % self.n in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def is_full(self) -> bool:
        return len(self.elements) == self.n

    def complement(self) -> "ZnSet":
        have = set(self.elements)
        return ZnSet._of(self.n, tuple([x for x in range(self.n) if x not in have]))

    def negate(self) -> "ZnSet":
        return ZnSet(self.n, (-x for x in self.elements))

    def translate(self, k: int) -> "ZnSet":
        return ZnSet(self.n, (x + k for x in self.elements))

    def __repr__(self) -> str:
        return f"ZnSet({self.n}, {{{', '.join(map(str, self.elements))}}})"


def sumset(a: ZnSet, b: ZnSet) -> ZnSet:
    """{x + y : x in a, y in b} in Z_n."""
    n = a.n
    if b.n != n:
        raise ValueError(f"mixed moduli {n} and {b.n}")
    hit = [False] * n
    for x in a.elements:
        for y in b.elements:
            hit[(x + y) % n] = True
    return ZnSet._of(n, tuple([i for i, h in enumerate(hit) if h]))


def iterated_sumset(a: ZnSet, t: int) -> ZnSet:
    """The t-fold sumset a + a + ... + a (t >= 1 copies)."""
    if t < 1:
        raise ValueError("iterated sumset needs t >= 1")
    acc = a
    for _ in range(t - 1):
        acc = sumset(acc, a)
    return acc


def smallest_coset(a: ZnSet) -> tuple[int, ZnSet]:
    """Smallest coset of a subgroup of Z_n containing a, as (offset, subgroup).

    The subgroup is generated by the differences of a; the offset is min(a).
    """
    if not a.elements:
        raise ValueError("smallest_coset needs a nonempty set")
    n = a.n
    base = a.elements[0]
    d = n
    for x in a.elements[1:]:
        d = math.gcd(d, x - base)
    return base, ZnSet._of(n, tuple(range(0, n, d)))


def fourier_bias(a: ZnSet) -> float:
    """max over r != 0 of |(1/n) * sum_{x in a} exp(-2*pi*i*x*r/n)|.

    The normalization is 1/n (an expectation over Z_n, not over a), so a
    singleton has bias 1/n.  The empty and full sets (every set when n = 1)
    are the only ones of bias 0, returned exactly rather than summed.
    """
    n = a.n
    if len(a) in (0, n):
        return 0.0
    best = 0.0
    for r in range(1, n):
        s = 0j
        for x in a.elements:
            s += cmath.exp(-2j * cmath.pi * x * r / n)
        best = max(best, abs(s) / n)
    return best
