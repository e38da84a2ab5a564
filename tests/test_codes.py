import math
import random
import re

import pytest

from constakit import (
    BasisFamily,
    CodeParams,
    PatternPoly,
    Poly,
    RootBasis,
    ZnSet,
    basis_family,
    bounds_report,
    build_basis,
    build_field,
    code_from_generating_set,
    code_from_generator,
    core_code,
    dimension_sequence,
    dual_generating_set,
    factored_power_generator,
    oracle_dual,
    oracle_pattern,
    oracle_schur_product,
    pattern_of_product,
    pattern_polynomial,
    power_pattern,
    schur_power,
    schur_product_gcd,
    schur_product_sumset,
    smallest_coset,
)
import constakit.poly as poly_module
from constakit.oracle import generator_rows, rref
from constakit.verify import _divisor_codes


def all_codes(field, n, lam):
    """Every constacyclic code of length n over field with constant lam."""
    params = CodeParams(field, n, lam)
    basis = basis_family(field, n).basis_for_lambda(lam)
    factors = basis.irreducible_factors()
    out = []
    for mask in range(1 << len(factors)):
        g = Poly.one(field)
        for i, f in enumerate(factors):
            if mask >> i & 1:
                g = g * f
        out.append(code_from_generator(params, g, basis))
    return out


# -- construction ---------------------------------------------------------


def test_code_from_generator_pinned(negacyclic_example):
    c = negacyclic_example
    assert c.gen_set.elements == (2, 3)
    assert c.dim == 2
    assert not c.is_zero and not c.is_full


def test_hamming_generating_set(hamming_example):
    assert hamming_example.gen_set.elements == (0, 3, 5, 6)
    assert hamming_example.dim == 4


def test_dim_equals_codim_of_generator(f3, f5):
    for field, n in ((f3, 8), (f5, 6)):
        for lam in field.elements():
            if lam.is_zero:
                continue
            for c in all_codes(field, n, lam):
                assert c.dim == len(c.gen_set) == n - c.generator.degree


def test_generator_must_be_monic_divisor(f3):
    params = CodeParams(f3, 4, f3.elem(2))
    with pytest.raises(ValueError):
        code_from_generator(params, Poly(f3, [1, 1]))  # does not divide
    with pytest.raises(ValueError):
        code_from_generator(params, Poly(f3, [2, 2]))  # not monic


def test_zero_and_full_codes(f3):
    params = CodeParams(f3, 4, f3.elem(2))
    full = code_from_generator(params, Poly.one(f3))
    assert full.is_full and full.dim == 4
    zero = code_from_generator(params, params.xn_minus_lam)
    assert zero.is_zero and zero.dim == 0
    assert zero.gen_set.elements == ()


def test_code_from_generating_set_round_trip(f2):
    params = CodeParams(f2, 7, f2.one())
    c = code_from_generating_set(params, None, [0, 3, 5, 6])
    assert c.generator == Poly.from_indices(f2, [1, 1, 0, 1])
    with pytest.raises(ValueError) as err:
        code_from_generating_set(params, None, [0, 3, 5])
    assert "complement element" in str(err.value)


def test_codes_hash_by_identity_content(f3, negacyclic_example):
    params = CodeParams(f3, 4, f3.elem(2))
    again = code_from_generator(params, Poly(f3, [2, 1, 1]))
    assert again == negacyclic_example
    assert len({again, negacyclic_example}) == 1


def test_codes_are_immutable(f3, negacyclic_example):
    held = {negacyclic_example}
    for name in ("params", "generator", "basis", "gen_set"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(negacyclic_example, name, Poly.one(f3))
    assert negacyclic_example in held
    assert negacyclic_example.dim == len(negacyclic_example.gen_set) == 2


# -- the per-basis code memo ------------------------------------------------


def _fresh_basis(field, n):
    """A cyclic basis outside the family memo, so its code memo starts empty."""
    return BasisFamily(field, n).basis_for_lambda(field.one())


def test_code_from_generator_is_memoized_on_its_basis(hamming_example):
    p, g, b = hamming_example.params, hamming_example.generator, hamming_example.basis
    assert code_from_generator(p, g, b) is code_from_generator(p, g, b)
    c = code_from_generator(p, g, b)
    assert pattern_polynomial(c) is pattern_polynomial(c)


def test_non_divisor_raises_on_every_call(f3):
    basis = basis_family(f3, 4).basis_for_lambda(f3.elem(2))
    g = Poly(f3, [1, 1])
    for _ in range(3):
        with pytest.raises(ValueError, match="does not divide"):
            code_from_generator(basis.params, g, basis)
    assert g not in basis._codes


def test_swapped_orbit_factors_still_fail_the_cross_check(f2):
    """The generating-set route multiplies cached orbit factors and the
    generator route transforms; with the factors of the two cubic orbits of
    x^7 - 1 swapped they disagree, and neither route may read the other's
    memo entries to hide it."""
    from constakit.verify import _divisor_codes

    basis = _fresh_basis(f2, 7)
    factors = list(basis.irreducible_factors())
    i, j = (k for k, orb in enumerate(basis.orbits()) if len(orb) == 3)
    factors[i], factors[j] = factors[j], factors[i]
    basis._factors = tuple(factors)
    with pytest.raises(AssertionError, match="support disagrees with chosen orbits"):
        _divisor_codes(basis)


def test_each_basis_keeps_its_own_codes(f5):
    """x - 2 over F_5 at n = 4, lam = 1: build_basis (o = 1) and the family
    basis (o = 4) index the same roots differently."""
    params = CodeParams(f5, 4, f5.one())
    g = Poly(f5, [3, 1])
    own, fam = build_basis(params), basis_family(f5, 4).basis_for_lambda(f5.one())
    by_own = code_from_generator(params, g, own)
    by_fam = code_from_generator(params, g, fam)
    assert by_own.basis is own and by_fam.basis is fam
    assert by_own.gen_set == ZnSet(4, [0, 2, 3])
    assert by_fam.gen_set == ZnSet(4, [0, 1, 2])


def test_generating_set_code_leaves_the_generator_route_its_transform(f2, monkeypatch):
    basis = _fresh_basis(f2, 7)
    code = code_from_generating_set(basis.params, basis, [0, 3, 5, 6])
    assert code_from_generating_set(basis.params, basis, [0, 3, 5, 6]) is code
    calls, forward_poly = [], RootBasis.forward_poly
    monkeypatch.setattr(
        RootBasis, "forward_poly", lambda basis, f: calls.append(f) or forward_poly(basis, f)
    )
    again = code_from_generator(basis.params, code.generator, basis)
    assert again is not code and again == code and again.gen_set == code.gen_set
    assert len(calls) == 1
    assert code_from_generator(basis.params, code.generator, basis) is again
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["memo's ZnSet", "list", "None"])
def test_generator_route_refuses_a_non_polynomial_before_its_memo(f2, kind):
    """A ZnSet is a key of the basis's memo too; the generator route must not
    hand back the code the generating-set route keeps under it."""
    basis = _fresh_basis(f2, 7)
    code = code_from_generating_set(basis.params, basis, [0, 3, 5, 6])
    g = {"memo's ZnSet": code.gen_set, "list": [1, 1, 0, 1], "None": None}[kind]
    with pytest.raises(ValueError, match="^generator must be a polynomial$"):
        code_from_generator(basis.params, g, basis)


# -- duals ----------------------------------------------------------------


def test_dual_pinned_hamming(hamming_example):
    dset, dual = dual_generating_set(hamming_example)
    assert dset.elements == (3, 5, 6)
    assert dual.dim == 3
    assert dual.params.lam == hamming_example.params.lam  # 1 is self-inverse


def test_dual_is_the_nullspace(f3, f5):
    for field, n in ((f3, 4), (f5, 4), (f5, 6)):
        for lam in field.elements():
            if lam.is_zero:
                continue
            for c in all_codes(field, n, lam):
                dset, dual = dual_generating_set(c)
                assert dset == c.gen_set.complement().negate()
                assert dset == dual.gen_set
                null_dim, null_rows = oracle_dual(c)
                assert dual.dim == null_dim == n - c.dim
                if dual.is_zero:
                    assert null_rows == []
                else:
                    rows, _ = rref(field, generator_rows(dual))
                    assert rows == null_rows


def test_dual_on_a_build_basis_basis_matches_the_oracle(f3, f5):
    for field, n in ((f3, 4), (f5, 4), (f5, 6)):
        for lam in field.elements():
            if lam.is_zero:
                continue
            params = CodeParams(field, n, lam)
            basis = build_basis(params)
            factors = basis.irreducible_factors()
            for mask in range(1 << len(factors)):
                g = Poly.one(field)
                for i, f in enumerate(factors):
                    if mask >> i & 1:
                        g = g * f
                c = code_from_generator(params, g, basis)
                dset, dual = dual_generating_set(c)
                assert dual.basis.family is basis.family
                assert dual.params.lam == lam.inverse()
                assert dset == dual.gen_set
                null_dim, null_rows = oracle_dual(c)
                assert dual.dim == null_dim
                if not dual.is_zero:
                    assert rref(field, generator_rows(dual))[0] == null_rows


def test_dual_of_a_family_code_sits_on_the_cached_basis(f5):
    fam = basis_family(f5, 4)
    for c in all_codes(f5, 4, f5.elem(2)):
        _, dual = dual_generating_set(c)
        assert dual.basis is fam.basis_for_exponent(-c.basis.beta_exp)
        assert dual_generating_set(c)[1].basis is dual.basis


def test_dual_constant_is_inverse(f5):
    params = CodeParams(f5, 4, f5.elem(2))
    c = all_codes(f5, 4, f5.elem(2))[1]
    _, dual = dual_generating_set(c)
    assert dual.params.lam == f5.elem(2).inverse()


# -- patterns and cores ---------------------------------------------------


def test_pattern_poly_validation(f5):
    with pytest.raises(ValueError):
        PatternPoly(4, 3, f5.one())  # v must divide n
    with pytest.raises(ValueError):
        PatternPoly(4, 2, f5.zero())
    with pytest.raises(ValueError):
        PatternPoly(4, 4, f5.elem(2))  # trivial pattern forces alpha = 1
    pat = PatternPoly(4, 2, f5.one())
    assert pat.polynomial() == Poly.from_indices(f5, [1, 0, 1])
    assert not pat.is_trivial


def test_pattern_of_degenerate_witness(degenerate_example):
    pat = pattern_polynomial(degenerate_example)
    assert (pat.v, pat.alpha) == (2, degenerate_example.params.field.one())
    assert oracle_pattern(degenerate_example) == pat


def test_pattern_trivial_for_nondegenerate(negacyclic_example, hamming_example):
    for c in (negacyclic_example, hamming_example):
        pat = pattern_polynomial(c)
        assert pat.is_trivial
        assert pat.polynomial() == Poly.one(c.params.field)


def test_pattern_with_nontrivial_alpha(f5):
    # (x^2+2)(x^2+3) = x^4 + 1 = x^4 - 4 over F_5, so x^2+2 generates a lam=4 code
    params = CodeParams(f5, 4, f5.elem(4))
    g = Poly(f5, [2, 0, 1])
    c = code_from_generator(params, g)
    pat = pattern_polynomial(c)
    assert pat.v == 2
    # alpha = g_2 / g_0 = 1/2 = 3
    assert pat.alpha == f5.elem(3)
    assert oracle_pattern(c) == pat
    core = core_code(c)
    assert core.params.n == 2
    assert core.params.lam == pat.alpha.inverse()
    assert core.dim == c.dim
    assert pattern_polynomial(core).is_trivial


def test_pattern_matches_oracle_everywhere(f2, f3):
    for field, n in ((f2, 9), (f3, 8)):
        for lam in field.elements():
            if lam.is_zero:
                continue
            for c in all_codes(field, n, lam):
                if c.is_zero:
                    continue
                assert pattern_polynomial(c) == oracle_pattern(c)


def test_pattern_support_is_smallest_coset(f3):
    for c in all_codes(f3, 8, f3.elem(2)):
        if c.is_zero:
            continue
        pat = pattern_polynomial(c)
        offset, sub = smallest_coset(c.gen_set)
        support = c.basis.forward_poly(pat.polynomial()).support()
        assert support == sub.translate(offset)


def test_zero_code_has_no_pattern(f3):
    params = CodeParams(f3, 4, f3.elem(2))
    zero = code_from_generator(params, params.xn_minus_lam)
    with pytest.raises(ValueError):
        pattern_polynomial(zero)
    with pytest.raises(ValueError):
        dimension_sequence(zero)


def test_core_requires_degenerate(negacyclic_example):
    with pytest.raises(ValueError):
        core_code(negacyclic_example)


# -- products -------------------------------------------------------------


def test_worked_square_negacyclic(negacyclic_example, f3):
    sq = schur_product_sumset(negacyclic_example, negacyclic_example)
    assert sq.params.lam == f3.one()  # 2*2 = 1: the square is cyclic
    assert sq.generator == Poly(f3, [2, 1])  # x - 1
    assert sq.dim == 3
    assert schur_product_gcd(negacyclic_example, negacyclic_example) == sq
    dim, gen = oracle_schur_product(negacyclic_example, negacyclic_example)
    assert (dim, gen) == (3, sq.generator)


def test_worked_square_hamming(hamming_example, f2):
    sq = schur_product_sumset(hamming_example, hamming_example)
    assert sq.dim == 7 and sq.is_full
    assert sq.generator == Poly.one(f2)


def test_product_methods_match_oracle_on_every_cross_lambda_pair():
    """Every ordered pair of codes over every (lam1, lam2) of the default
    verify grid (q in 2, 3, 5; n <= 10 prime to q), which pairs codes of
    one lam only: the product is lam1*lam2-constacyclic, the sumset and gcd
    routes give the same code and generating set, the oracle gives the same
    (dim, generator), and a product of nonzero codes has the pattern that
    pattern_of_product reads off the factors."""
    pairs = 0
    for q in (2, 3, 5):
        field = build_field(q, [])
        for n in range(1, 11):
            if math.gcd(n, q) != 1:
                continue
            fam = basis_family(field, n)
            codes = [c for lam in range(1, q)
                     for c in _divisor_codes(fam.basis_for_lambda(field.elem(lam)))]
            oracle = {}
            for i, c1 in enumerate(codes):
                for j, c2 in enumerate(codes):
                    where = (q, n, i, j)
                    by_sum = schur_product_sumset(c1, c2)
                    by_gcd = schur_product_gcd(c1, c2)
                    assert by_sum.params.lam == c1.params.lam * c2.params.lam, where
                    assert by_sum == by_gcd and by_sum.gen_set == by_gcd.gen_set, where
                    key = (min(i, j), max(i, j))
                    if key not in oracle:
                        oracle[key] = oracle_schur_product(c1, c2)
                    assert (by_sum.dim, by_sum.generator) == oracle[key], where
                    if not c1.is_zero and not c2.is_zero:
                        assert pattern_of_product(c1, c2) == pattern_polynomial(by_sum), where
                    pairs += 1
    assert pairs == 12_168


def test_product_with_zero_code(f3):
    """A zero code on either side: each method gives the zero code."""
    params = CodeParams(f3, 4, f3.elem(2))
    zero = code_from_generator(params, params.xn_minus_lam)
    for other in all_codes(f3, 4, f3.elem(2)):
        for c1, c2 in ((zero, other), (other, zero)):
            prod = schur_product_sumset(c1, c2)
            assert prod.is_zero
            assert schur_product_gcd(c1, c2) == prod
            assert oracle_schur_product(c1, c2) == (0, prod.generator)


def test_product_requires_same_length(f3):
    a = all_codes(f3, 4, f3.one())[1]
    b = all_codes(f3, 8, f3.one())[1]
    with pytest.raises(ValueError):
        schur_product_sumset(a, b)
    with pytest.raises(ValueError):
        schur_product_gcd(a, b)


def test_products_take_family_bases_only(f5):
    params = CodeParams(f5, 4, f5.one())  # ord(1) = 1 < q - 1
    g = Poly(f5, [4, 1])  # x - 1
    foreign = code_from_generator(params, g, build_basis(params))
    home = code_from_generator(params, g)
    message = (
        r"^code was built on a basis outside the \(field, n\) family; "
        r"rebuild it with the default basis to take products$"
    )
    for product in (schur_product_sumset, schur_product_gcd):
        with pytest.raises(ValueError, match=message):
            product(foreign, home)
        with pytest.raises(ValueError, match=message):
            product(home, foreign)
    with pytest.raises(ValueError, match=message):
        schur_power(foreign, 2)
    # a family the caller built has the canonical delta, so it is accepted
    own = code_from_generator(params, g, BasisFamily(f5, 4).basis_for_lambda(f5.one()))
    assert own.basis.family is not home.basis.family
    for product in (schur_product_sumset, schur_product_gcd):
        assert product(own, own) == product(home, home)
        assert product(own, home) == product(home, home)


def test_gcd_method_custom_multiplier(f3, f5, negacyclic_example):
    # any s coprime to (x^n - lam)/g1 must give the same product
    s = Poly(f3, [1, 1])
    default = schur_product_gcd(negacyclic_example, negacyclic_example)
    assert schur_product_gcd(negacyclic_example, negacyclic_example, s) == default
    bad = Poly(f3, [2, 2, 1])  # shares the factor x^2+2x+2 with h1
    with pytest.raises(ValueError, match=r"^s shares a factor with \(x\^n - lam1\)/g1$"):
        schur_product_gcd(negacyclic_example, negacyclic_example, bad)
    with pytest.raises(ValueError, match="^s is over the wrong field$"):
        schur_product_gcd(negacyclic_example, negacyclic_example, Poly.one(f5))


@pytest.mark.parametrize("s", [[1], ZnSet(4, [0])], ids=["list", "ZnSet"])
def test_gcd_method_refuses_a_non_polynomial_multiplier(negacyclic_example, s):
    with pytest.raises(ValueError, match="^s is over the wrong field$"):
        schur_product_gcd(negacyclic_example, negacyclic_example, s)


def test_gcd_product_of_full_codes_takes_one_gcd(f3, hamming_example, monkeypatch):
    """Full x full: the first row is the constant 1, so Euclid takes one
    division, x^n - 1 by 1, and stops at gcd 1.  The Hamming square reaches
    gcd 1 at its second row, whose window product g[1:] o g is 1 (the row
    g o x*g = x without its x), and reads none of the rows after.
    Each product runs once first, so the code memo answers code_from_generator
    and only the gcd route's own divisions are counted."""
    calls = []
    real = poly_module._divide

    def counting(ctx, rem, b, quo=None):
        calls.append((list(rem), list(b)))
        return real(ctx, rem, b, quo)

    full = code_from_generator(CodeParams(f3, 8, f3.one()), Poly.one(f3))
    schur_product_gcd(full, full)
    schur_product_gcd(hamming_example, hamming_example)
    monkeypatch.setattr(poly_module, "_divide", counting)
    assert schur_product_gcd(full, full).is_full
    assert calls == [(list(full.params.xn_minus_lam.coeffs), [f3.one_rep])]
    calls.clear()
    assert schur_product_gcd(hamming_example, hamming_example).is_full
    # x^7 - 1 by g leaves 0; then g by 1 leaves 0.
    assert [len(b) - 1 for _, b in calls] == [3, 0]


def test_gcd_product_reduces_g_times_s_past_the_length(f3, f5, negacyclic_example):
    """deg(g1*s) >= n takes the kept g % (x^n - lam1) branch; the product is
    the one the sumset route and the oracle give, for every code c2."""
    s = Poly(f3, [1, 1, 0, 1])  # x^3 + x + 1: deg(g1*s) = 5 >= 4, coprime to h1
    assert (negacyclic_example.generator * s).degree >= 4
    for c2 in all_codes(f3, 4, f3.elem(2)) + all_codes(f3, 4, f3.one()):
        by_gcd = schur_product_gcd(negacyclic_example, c2, s)
        assert by_gcd == schur_product_sumset(negacyclic_example, c2)
        assert (by_gcd.dim, by_gcd.generator) == oracle_schur_product(negacyclic_example, c2)
    # x^6 + x + 1 = x + 3 mod x^6 - 2, coprime to it as 2^6 = 4 != 2 in F_5;
    # deg(g1*s) >= 6 for every g1, and the zero code's g1*s reduces to 0.
    s = Poly(f5, [1, 1, 0, 0, 0, 0, 1])
    codes = all_codes(f5, 6, f5.elem(2))
    for c1 in codes:
        for c2 in codes:
            by_gcd = schur_product_gcd(c1, c2, s)
            assert by_gcd == schur_product_sumset(c1, c2)
            assert (by_gcd.dim, by_gcd.generator) == oracle_schur_product(c1, c2)


@pytest.mark.parametrize("p, n, lam_idx", [(2, 63, 1), (2, 255, 1), (3, 80, 2)])
def test_gcd_product_matches_sumset_where_windows_slide_far(p, n, lam_idx):
    """A one-orbit c1 and a large c2 whose sumset with G1 misses an index h:
    c1 o c2 reads every one of c2's many rows, as the product is not full
    and Euclid never stops at gcd 1.  With s = x^m, g = x^m * g1 has degree
    n - 1 and no coefficient below x^m, so each window g[j : j + deg g2 + 1]
    with j + deg g2 < m is zero; in c2 o c2 the gcd is then settled by rows
    j >= n - 1 - 2 deg g2, which is 126 or more at n = 255.  Seeded unions
    of orbits."""
    rng = random.Random(p * 1000 + n)
    field = build_field(p, [])
    basis = basis_family(field, n).basis_for_lambda(field.elem(lam_idx))
    orbits = basis.orbits()
    for _ in range(3):
        small = rng.choice(orbits[1:])
        h = rng.randrange(n)
        holes = {(h - j) % n for j in small}
        large = [j for orb in orbits if holes.isdisjoint(orb) for j in orb]
        c1, c2 = (code_from_generating_set(basis.params, basis, g) for g in (small, large))
        assert c2.dim >= n // 5
        assert h not in schur_product_sumset(c1, c2).gen_set
        for a, b in ((c1, c2), (c2, c1), (c2, c2)):
            expected = schur_product_sumset(a, b)
            assert schur_product_gcd(a, b) == expected
            assert schur_product_gcd(a, b, Poly.monomial(field, n - 1 - a.generator.degree)) == expected


def _orbit_grid():
    for p, degs in ((2, []), (3, []), (2, [2]), (5, [])):
        field = build_field(p, degs)
        for n in range(1, 11):
            if math.gcd(n, field.cardinality) != 1:
                continue
            for lam_idx in range(1, field.cardinality):
                yield basis_family(field, n).basis_for_lambda(field.elem(lam_idx))


def test_generators_from_orbit_factors_match_linear_factors():
    """g assembled from the cached orbit factors is the projection of
    prod (x - xi^k beta) over the zeros, for every union of orbits."""
    count = 0
    for basis in _orbit_grid():
        n, orbits = basis.n, basis.orbits()
        for mask in range(1 << len(orbits)):
            zeros = [k for i, orb in enumerate(orbits) if mask >> i & 1 for k in orb]
            expected = basis.poly_to_base(basis.linear_factor_product(zeros))
            gen_set = ZnSet(n, set(range(n)) - set(zeros))
            code = code_from_generating_set(basis.params, basis, gen_set)
            assert code.generator == expected
            assert code.gen_set == gen_set
            count += 1
    assert count == 454  # codes on the grid, one per union of orbits


# -- powers, patterns of products, bounds ---------------------------------


def test_dimension_sequences_pinned(negacyclic_example, degenerate_example, f2):
    assert dimension_sequence(negacyclic_example) == ((2, 3, 4), 3)
    assert dimension_sequence(degenerate_example) == ((2,), 1)
    params = CodeParams(f2, 5, f2.one())
    full = code_from_generator(params, Poly.one(f2))
    assert dimension_sequence(full) == ((5,), 1)


def test_schur_power_agrees_with_iterated_products(f3):
    for c in all_codes(f3, 8, f3.elem(2)):
        if c.is_zero:
            continue
        acc = c
        for i in range(2, 5):
            acc = schur_product_sumset(acc, c)
            direct = schur_power(c, i)
            assert direct.generator == acc.generator
            assert direct.gen_set == acc.gen_set
            assert direct.params.lam == acc.params.lam


def test_factored_powers_of_degenerate(degenerate_example):
    pat = pattern_polynomial(degenerate_example)
    for i in (1, 2, 3):
        direct = schur_power(degenerate_example, i)
        assert factored_power_generator(degenerate_example, i) == direct.generator
        assert power_pattern(pat, i) == pattern_polynomial(direct)


def test_factored_powers_nontrivial_alpha(f5):
    params = CodeParams(f5, 4, f5.elem(4))
    c = code_from_generator(params, Poly(f5, [2, 0, 1]))
    for i in (1, 2, 3, 4):
        assert factored_power_generator(c, i) == schur_power(c, i).generator


def test_power_pattern_alpha_powers(f5):
    pat = PatternPoly(8, 2, f5.elem(2))
    assert power_pattern(pat, 3).alpha == f5.elem(3)  # 2^3 = 8 = 3
    assert power_pattern(pat, 1) == pat
    trivial = PatternPoly(8, 8, f5.one())
    assert power_pattern(trivial, 5) == trivial


def test_pattern_of_product_formula(f5):
    codes = [c for c in all_codes(f5, 8, f5.one()) if not c.is_zero]
    for c1 in codes:
        for c2 in codes:
            prod = schur_product_sumset(c1, c2)
            assert pattern_of_product(c1, c2) == pattern_polynomial(prod)


def test_pattern_of_product_normalizes_to_trivial(f5, degenerate_example):
    nondegen = code_from_generator(
        CodeParams(f5, 4, f5.one()), Poly(f5, [4, 1])
    )
    pat = pattern_of_product(degenerate_example, nondegen)
    assert pat.is_trivial and pat.alpha == f5.one()


def test_bounds_report_shapes(negacyclic_example, degenerate_example, hamming_example):
    rep = bounds_report(negacyclic_example)
    assert rep["r"] == 3
    assert rep["regularity_bound"] == {"applies": True, "bound": 4.0, "holds": True}
    assert rep["square_fills"]["applies"] is False  # 2k = n exactly
    assert rep["square_fills"]["holds"] is True

    rep = bounds_report(hamming_example)
    assert rep["regularity_bound"] == {"applies": True, "bound": 2.0, "holds": True}
    assert rep["square_fills"] == {"applies": True, "square_full": True, "holds": True}
    assert rep["bias_bound"] == {
        "applicable": False,
        "reason": "nonpositive denominator",
        "bound": None,
    }

    rep = bounds_report(degenerate_example)
    assert rep["dims"] == (2,)
    assert rep["bias_bound"] == {
        "applicable": False,
        "reason": "degenerate code",
        "bound": None,
    }


def test_bounds_report_min_dim(f2):
    params = CodeParams(f2, 7, f2.one())
    c = code_from_generating_set(params, None, [0])
    rep = bounds_report(c)
    assert rep["regularity_bound"]["applies"] is False
    assert rep["regularity_bound"]["holds"] is True


def test_square_fills_over_half(f2, f3):
    for field, n in ((f2, 9), (f3, 10)):
        for lam in field.elements():
            if lam.is_zero:
                continue
            for c in all_codes(field, n, lam):
                if c.is_zero:
                    continue
                rep = bounds_report(c)
                if 2 * c.dim > n:
                    assert rep["square_fills"]["square_full"]
                assert rep["square_fills"]["holds"]
                assert rep["regularity_bound"]["holds"]


def test_bias_bound_when_applicable(f2):
    # the bound needs log(bias) > log(n/k), i.e. bias*k > n; bias <= k/n by
    # the triangle inequality (tests/test_zn.py checks it), so that needs
    # k > n and never holds: the report says "not applicable" rather than
    # invent a number, and the full code, whose bias is 0, says why
    params = CodeParams(f2, 7, f2.one())
    c = code_from_generating_set(params, None, [0, 1, 2, 3, 4, 5, 6])
    rep = bounds_report(c)
    assert rep["bias_bound"]["applicable"] is False
    assert rep["bias_bound"]["reason"] == "zero bias"


_F3, _F5 = build_field(3, []), build_field(5, [])
_P3 = CodeParams(_F3, 4, _F3.elem(2))


def _code(field, n, gen_set):
    return code_from_generating_set(CodeParams(field, n, field.one()), None, gen_set)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CodeParams(_F3, 4, _F5.elem(2)), "lam must be an element of the given field"),
        (lambda: build_basis(_P3).forward_poly(Poly.one(_F5)), "polynomial is over the wrong field"),
        pytest.param(lambda: build_basis(_P3).forward_poly([1]), "polynomial is over the wrong field",
                     id="forward_poly of a list"),
        pytest.param(lambda: build_basis(_P3).forward_poly(None), "polynomial is over the wrong field",
                     id="forward_poly of None"),
        (lambda: build_basis(_P3).forward_poly(Poly.monomial(_F3, 4)),
         "polynomial degree must be below n"),
        (lambda: code_from_generating_set(_P3, build_basis(CodeParams(_F3, 4, _F3.one())), [0]),
         "basis was built for different parameters"),
        (lambda: code_from_generator(_P3, Poly.one(_F5)), "generator is over the wrong field"),
        (lambda: code_from_generating_set(_P3, None, ZnSet(5, [0])),
         "generating set lives in Z_5, expected Z_4"),
        (lambda: schur_power(_code(_F3, 4, [0]), 0), "power must be >= 1"),
        (lambda: power_pattern(PatternPoly(4, 4, _F3.one()), 0), "power must be >= 1"),
        (lambda: pattern_of_product(_code(_F3, 4, [0]), _code(_F5, 4, [0])),
         "codes must share field and length"),
        (lambda: pattern_of_product(_code(_F3, 4, [0]), _code(_F3, 5, [0])),
         "codes must share field and length"),
    ],
)
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()
