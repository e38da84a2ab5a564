import random

import pytest

from constakit import (
    CodeParams,
    Poly,
    RootBasis,
    build_field,
    code_from_generator,
    oracle_dual,
    oracle_pattern,
    oracle_schur_product,
    schur_product_gcd,
)
from constakit.codes import basis_family
from constakit.oracle import generator_rows, rref, span_contains

from test_codes import all_codes


def test_rref_pinned_example(f3):
    rows = [(1, 1, 1, 0), (0, 2, 1, 0), (1, 0, 0, 1)]
    echelon, pivots = rref(f3, rows)
    assert pivots == [0, 1, 2]
    assert echelon == [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)]


def test_rref_is_canonical(f3):
    # any row basis of the same span reduces to the same echelon form
    rng = random.Random(9)
    base = [(1, 2, 0, 1), (0, 1, 1, 1)]
    reference, _ = rref(f3, base)
    for _ in range(40):
        a, b, c, d = (rng.randrange(3) for _ in range(4))
        if (a * d - b * c) % 3 == 0:
            continue
        mixed = [
            tuple((a * x + b * y) % 3 for x, y in zip(*base)),
            tuple((c * x + d * y) % 3 for x, y in zip(*base)),
        ]
        echelon, _ = rref(f3, mixed)
        assert echelon == reference


def test_rref_zero_rows(f3):
    echelon, pivots = rref(f3, [(0, 0, 0)])
    assert echelon == [] and pivots == []


def test_span_contains(f3):
    echelon, pivots = rref(f3, [(1, 0, 2), (0, 1, 1)])
    assert span_contains(f3, echelon, pivots, (1, 1, 0))
    assert span_contains(f3, echelon, pivots, (2, 0, 1))
    assert not span_contains(f3, echelon, pivots, (0, 0, 1))


def test_generator_rows_shape(f3, negacyclic_example):
    rows = generator_rows(negacyclic_example)
    assert rows == [(2, 1, 1, 0), (0, 2, 1, 1)]


def test_oracle_square_negacyclic(negacyclic_example):
    dim, gen = oracle_schur_product(negacyclic_example, negacyclic_example)
    assert dim == 3
    assert gen == Poly(negacyclic_example.params.field, [2, 1])


def test_oracle_square_hamming(hamming_example):
    dim, gen = oracle_schur_product(hamming_example, hamming_example)
    assert dim == 7
    assert gen == Poly.one(hamming_example.params.field)


def _every_ordered_pair(c1, c2):
    """(dim, generator) of c1 o c2 from all k1*k2 ordered pairs of shifts."""
    ctx, n = c1.params.field, c1.params.n
    rows1 = [r[::-1] for r in generator_rows(c1)]
    rows2 = [r[::-1] for r in generator_rows(c2)]
    echelon, _ = rref(ctx, [tuple(map(ctx.mul, a, b)) for a in rows1 for b in rows2])
    if not echelon:
        return 0, Poly.monomial(ctx, n) - Poly.from_elements([c1.params.lam * c2.params.lam])
    return len(echelon), Poly(ctx, echelon[-1][::-1])


def test_oracle_square_forms_each_unordered_pair_once(
    f3, f4, negacyclic_example, hamming_example, degenerate_example
):
    """A square reads only the unordered pairs; the reduced echelon form of
    the span, and so the result, equals the one from every ordered pair.
    The repetition code has k = 1, so its square is the lone pair (g, g)."""
    repetition = code_from_generator(CodeParams(f3, 4, f3.one()), Poly(f3, [1, 1, 1, 1]))
    fam = basis_family(f4, 5)
    over_f4 = code_from_generator(
        CodeParams(f4, 5, f4.one()), fam.basis_for_lambda(f4.one()).irreducible_factors()[1]
    )
    for c in (negacyclic_example, hamming_example, degenerate_example, repetition, over_f4):
        assert oracle_schur_product(c, c) == _every_ordered_pair(c, c)
    assert oracle_schur_product(repetition, repetition) == (1, repetition.generator)


@pytest.mark.parametrize(
    "p, degrees, n, lams",
    [
        (3, [], 4, (1, 2)),  # every lam, so distinct-lam pairs too
        (5, [], 6, (2, 3)),
        (2, [2], 5, (1, 2)),  # GF(4), tabulated
        (3, [2], 4, (3, 5)),  # GF(9), tabulated
        (2, [], 15, (1,)),  # five orbits, 32 codes
    ],
)
def test_oracle_product_equals_every_ordered_pair(p, degrees, n, lams):
    """One product per shift diagonal spans what all k1*k2 ordered products
    span, on every pair: distinct codes, distinct lam, zero and full codes."""
    field = build_field(p, degrees)
    codes = [c for lam in lams for c in all_codes(field, n, field.elem(lam))]
    assert any(c.is_zero for c in codes) and any(c.is_full for c in codes)
    for c1 in codes:
        for c2 in codes:
            assert oracle_schur_product(c1, c2) == _every_ordered_pair(c1, c2), (c1, c2)


def test_oracle_zero_factor(f3):
    params = CodeParams(f3, 4, f3.elem(2))
    zero = code_from_generator(params, params.xn_minus_lam)
    other = code_from_generator(params, Poly(f3, [2, 1, 1]))
    dim, gen = oracle_schur_product(zero, other)
    assert dim == 0
    assert gen == CodeParams(f3, 4, f3.one()).xn_minus_lam


def test_oracle_rejects_incompatible(f3):
    f5 = build_field(5, [])
    a = code_from_generator(CodeParams(f3, 4, f3.one()), Poly.one(f3))
    b = code_from_generator(CodeParams(f5, 4, f5.one()), Poly.one(f5))
    with pytest.raises(ValueError):
        oracle_schur_product(a, b)


def test_oracle_pattern_self(f3):
    # a pattern polynomial is its own code's pattern
    f5 = build_field(5, [])
    params = CodeParams(f5, 4, f5.one())
    g = Poly(f5, [1, 0, 1])
    pat = oracle_pattern(code_from_generator(params, g))
    assert (pat.v, pat.alpha) == (2, f5.one())


def test_oracle_pattern_zero_rejected(f3):
    params = CodeParams(f3, 4, f3.elem(2))
    with pytest.raises(ValueError):
        oracle_pattern(code_from_generator(params, params.xn_minus_lam))


def test_oracle_dual_dimensions(f3):
    fam = basis_family(f3, 4)
    for lam_idx in (1, 2):
        lam = f3.elem(lam_idx)
        params = CodeParams(f3, 4, lam)
        basis = fam.basis_for_lambda(lam)
        factors = basis.irreducible_factors()
        for mask in range(1 << len(factors)):
            g = Poly.one(f3)
            for i, f in enumerate(factors):
                if mask >> i & 1:
                    g = g * f
            c = code_from_generator(params, g, basis)
            dim, rows = oracle_dual(c)
            assert dim == 4 - c.dim
            assert len(rows) == dim
            # every dual row is orthogonal to every codeword row
            for r in rows:
                for cw in generator_rows(c):
                    acc = f3.zero_rep
                    for x, y in zip(r, cw):
                        acc = f3.add(acc, f3.mul(x, y))
                    assert acc == f3.zero_rep


def test_oracle_dual_of_full_space(f3):
    params = CodeParams(f3, 4, f3.one())
    full = code_from_generator(params, Poly.one(f3))
    dim, rows = oracle_dual(full)
    assert dim == 0 and rows == []
    zero = code_from_generator(params, params.xn_minus_lam)
    dim, rows = oracle_dual(zero)
    assert dim == 4
    assert rows == rref(f3, [tuple(1 if i == j else 0 for j in range(4)) for i in range(4)])[0]


def _refuse(*_args, **_kwargs):
    raise AssertionError("the transform was used")


def test_oracle_never_touches_the_transform(f3, monkeypatch):
    fam = basis_family(f3, 8)
    codes = []
    for lam_idx in (1, 2):
        lam = f3.elem(lam_idx)
        params = CodeParams(f3, 8, lam)
        factors = fam.basis_for_lambda(lam).irreducible_factors()
        for k in range(len(factors)):
            codes.append(code_from_generator(params, factors[k]))
    for name in ("forward", "forward_poly", "inverse", "irreducible_factors"):
        monkeypatch.setattr(RootBasis, name, _refuse)
    for c1 in codes:
        oracle_dual(c1)
        oracle_pattern(c1)
        for c2 in codes:
            oracle_schur_product(c1, c2)


def test_gcd_product_never_reads_orbits_or_factors(f3, monkeypatch):
    fam = basis_family(f3, 8)
    params = CodeParams(f3, 8, f3.elem(2))
    factors = fam.basis_for_lambda(params.lam).irreducible_factors()
    codes = [code_from_generator(params, f) for f in factors]
    for name in ("orbits", "irreducible_factors"):
        monkeypatch.setattr(RootBasis, name, _refuse)
    for c1 in codes:
        for c2 in codes:
            schur_product_gcd(c1, c2)
