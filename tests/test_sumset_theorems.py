"""Cauchy-Davenport, Kneser and Vosper as exact checks on product dimensions.

The componentwise product C1 o C2 has generating set G1 + G2, so lower
bounds on sumsets in Z_n are lower bounds on its dimension.  Here the
dimension comes from the oracle, which spans the pairwise products of
generator rows and never uses a transform; G1 and G2 are the codes' own
generating sets.

Kneser (Math. Z. 58, 1953): with H the stabiliser of A + B,
|A + B| >= |A + H| + |B + H| - |H|.  For H = {0} that reads
|A + B| >= |A| + |B| - 1, so a product of dimension below k1 + k2 - 1
needs a nontrivial stabiliser.  Cauchy-Davenport is the case of prime
n, where Z_n has no proper nontrivial subgroup:
|A + B| >= min(n, |A| + |B| - 1).

Vosper (J. London Math. Soc. 31, 1956) says when that bound is met at
prime n: for |A|, |B| >= 2 and |A + B| <= n - 2, |A + B| = |A| + |B| - 1
exactly when A and B are arithmetic progressions with one common
difference.
"""

import itertools
import math

import pytest

from constakit import ZnSet, basis_family, build_field, oracle_schur_product, sumset
from constakit.numbertheory import is_prime
from constakit.verify import _divisor_codes


def nonzero_codes(field, n):
    """Every nonzero code of length n over field, over every lam."""
    fam = basis_family(field, n)
    return [
        c
        for lam_idx in range(1, field.cardinality)
        for c in _divisor_codes(fam.basis_for_lambda(field.elem(lam_idx)))
        if not c.is_zero
    ]


def stabiliser(s: ZnSet) -> ZnSet:
    """{h in Z_n : s + h = s}, a subgroup of Z_n."""
    members = set(s)
    return ZnSet(s.n, (h for h in range(s.n) if all((x + h) % s.n in members for x in members)))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_product_dimensions_obey_kneser_and_cauchy_davenport(q):
    field = build_field(q, [])
    pairs = below_k1_k2 = 0
    for n in range(1, 9):
        if math.gcd(n, q) != 1:
            continue
        for c1, c2 in itertools.combinations_with_replacement(nonzero_codes(field, n), 2):
            dim, _ = oracle_schur_product(c1, c2)
            g1, g2 = c1.gen_set, c2.gen_set
            k1, k2 = len(g1), len(g2)
            h = stabiliser(sumset(g1, g2))
            where = (q, n, c1.generator, c2.generator)
            assert dim >= len(sumset(g1, h)) + len(sumset(g2, h)) - len(h), where
            if dim < k1 + k2 - 1:
                assert len(h) > 1, where
                below_k1_k2 += 1
            if is_prime(n):
                assert dim >= min(n, k1 + k2 - 1), where
            pairs += 1
    assert pairs > 0 and below_k1_k2 > 0


def is_progression(s: ZnSet, d: int) -> bool:
    """Whether s is an arithmetic progression with difference d, for prime n.

    d generates Z_n, so s falls into runs along the cycle of step d; s + {0, d}
    adds one element per run, and s is a progression exactly when it is one run.
    """
    return len(sumset(s, ZnSet(s.n, (0, d)))) == len(s) + 1


@pytest.mark.parametrize("p, degrees", [(2, [2]), (2, [3]), (3, [2]), (11, [])])
def test_tight_product_dimensions_are_vospers_progressions(p, degrees):
    # Over F_2, F_3, F_5 and F_7 no pair at prime n <= 7 meets the conditions.
    field = build_field(p, degrees)
    pairs = tight = 0
    for n in (2, 3, 5, 7):
        if math.gcd(n, field.cardinality) != 1:
            continue
        fam = basis_family(field, n)
        for lam_idx in range(1, field.cardinality):
            basis = fam.basis_for_lambda(field.elem(lam_idx))
            codes = [c for c in _divisor_codes(basis) if c.dim >= 2]
            for c1, c2 in itertools.combinations_with_replacement(codes, 2):
                dim, _ = oracle_schur_product(c1, c2)
                if dim > n - 2:
                    continue
                g1, g2 = c1.gen_set, c2.gen_set
                common = any(is_progression(g1, d) and is_progression(g2, d) for d in range(1, n))
                where = (field.cardinality, n, c1.generator, c2.generator)
                assert (dim == len(g1) + len(g2) - 1) == common, where
                pairs += 1
                tight += common
    assert pairs > 0 and tight > 0
