"""A third route to the factors of x^n - lam: sympy's factoriser over F_p.

irreducible_factors multiplies linear factors over the splitting field;
verify checks the product of those factors and the transform support of
each.  sympy's galoistools.gf_factor (Cantor-Zassenhaus over a prime
field) uses neither delta nor a transform, so agreement here does not
rest on the spectral construction at all.
"""

import math

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor

from constakit import CodeParams, build_basis, build_field


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_irreducible_factors_match_gf_factor(p):
    field = build_field(p, [])
    for n in range(1, 17):
        if math.gcd(n, p) != 1:
            continue
        for lam in range(1, p):
            basis = build_basis(CodeParams(field, n, field.elem(lam)))
            ours = sorted(f.indices() for f in basis.irreducible_factors())
            lead, factors = gf_factor(ZZ.map([1] + [0] * (n - 1) + [-lam]), p, ZZ)
            theirs = sorted(tuple(reversed(g)) for g, k in factors for _ in range(k))
            assert lead == 1 and ours == theirs, (p, n, lam)
