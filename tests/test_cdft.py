import math
import random
import re

import pytest

from constakit import (
    BasisFamily,
    CodeParams,
    Poly,
    basis_family,
    build_basis,
    build_field,
    code_from_generator,
    dual_generating_set,
    elem_order,
    field_for_cardinality,
    schur,
)
from constakit import cdft
from constakit.cdft import EAGER_POWER_LIMIT, RootBasis
from constakit.field import SQUARE_TABLE_LIMIT, TABLE_LIMIT


def small_int(field, k):
    """k * 1 in the field, for scaling identities by the length n."""
    acc = field.zero()
    for _ in range(k):
        acc = acc + field.one()
    return acc


def test_params_validation(f3):
    with pytest.raises(ValueError):
        CodeParams(f3, 3, f3.one())  # gcd(n, q) != 1
    with pytest.raises(ValueError):
        CodeParams(f3, 4, f3.zero())
    with pytest.raises(ValueError):
        CodeParams(f3, 0, f3.one())


_F3 = build_field(3, [])


@pytest.mark.parametrize("make, message", [
    (lambda: CodeParams(_F3, True, _F3.elem(2)), "length must be an int, got True"),
    (lambda: CodeParams(_F3, 4.0, _F3.elem(2)), "length must be an int, got 4.0"),
    # 4.0 == 4 as a memo key, so the family of n = 4 is built first.
    (lambda: (basis_family(_F3, 4), basis_family(_F3, 4.0)), "length must be an int, got 4.0"),
    (lambda: build_field(3, [True, 2]),
     "p and the extension degrees must be ints, got 3 and [True, 2]"),
    (lambda: build_field(3, ["2"]), "p and the extension degrees must be ints, got 3 and ['2']"),
    (lambda: build_field(3.0, []), "p and the extension degrees must be ints, got 3.0 and []"),
    (lambda: field_for_cardinality(4.0), "field size must be an int, got 4.0"),
], ids=["params-bool", "params-float", "family-float", "degree-bool", "degree-str", "p-float",
        "cardinality-float"])
def test_sizes_must_be_ints(make, message):
    """A bool or float length, p, degree or field size is refused, not coerced."""
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        make()


def test_params_derived_orders(f3, f2):
    params = CodeParams(f3, 4, f3.elem(2))
    assert params.q == 3
    assert params.lam_order == 2
    assert params.splitting_degree == 2
    cyclic = CodeParams(f2, 7, f2.one())
    assert cyclic.lam_order == 1
    assert cyclic.splitting_degree == 3


def test_build_basis_negacyclic_pinned(f3):
    """q=3, n=4, lam=2: delta = y+1 in F_9, xi = 2y, beta = y+1, t = 1."""
    basis = build_basis(CodeParams(f3, 4, f3.elem(2)))
    spl = basis.splitting
    assert spl.cardinality == 9
    assert spl.rep_to_str(basis.delta.rep) == "y + 1"
    assert spl.rep_to_str(basis.delta_pow(basis.xi_exp).rep) == "2*y"
    assert spl.rep_to_str(basis.delta_pow(basis.beta_exp).rep) == "y + 1"
    assert basis.frobenius_shift == 1


def test_build_basis_cyclic_beta_is_one(f2):
    basis = build_basis(CodeParams(f2, 7, f2.one()))
    assert basis.beta_exp == 0
    assert basis.frobenius_shift == 0
    assert basis.splitting.cardinality == 8


def test_orbit_partitions(f3, f2):
    basis = build_basis(CodeParams(f3, 4, f3.elem(2)))
    assert basis.orbits() == ((0, 1), (2, 3))
    cyclic = build_basis(CodeParams(f2, 7, f2.one()))
    assert cyclic.orbits() == ((0,), (1, 2, 4), (3, 5, 6))
    tiny = build_basis(CodeParams(f2, 1, f2.one()))
    assert tiny.orbits() == ((0,),)


def test_orbits_cover_and_close(f5):
    for lam_idx in range(1, 5):
        params = CodeParams(f5, 8, f5.elem(lam_idx))
        basis = build_basis(params)
        t = basis.frobenius_shift
        seen = []
        for orb in basis.orbits():
            for j in orb:
                assert (5 * j + t) % 8 in orb
            seen.extend(orb)
        assert sorted(seen) == list(range(8))


def test_forward_constant_and_impulse(f3):
    basis = build_basis(CodeParams(f3, 4, f3.elem(2)))
    ones = basis.forward([f3.one(), f3.zero(), f3.zero(), f3.zero()])
    assert all(v == basis.splitting.one() for v in ones.values)
    shifted = basis.forward([f3.zero(), f3.one(), f3.zero(), f3.zero()])
    assert all(shifted.values[j] == basis.point(j) for j in range(4))


def test_forward_knows_the_generator_zeros(f3, negacyclic_example):
    spec = negacyclic_example.basis.forward(f3.vector([2, 1, 1, 0]))
    assert spec.values[0].is_zero and spec.values[1].is_zero
    assert not spec.values[2].is_zero and not spec.values[3].is_zero
    assert spec.support().elements == (2, 3)


def test_spectral_support_edges(f3):
    basis = build_basis(CodeParams(f3, 4, f3.elem(2)))
    assert basis.forward([f3.zero()] * 4).support().elements == ()
    impulse = basis.forward([f3.zero(), f3.zero(), f3.zero(), f3.one()])
    assert impulse.support().is_full


def test_round_trip_random():
    rng = random.Random(97)
    for p, degs, n in ((2, [], 7), (3, [], 8), (2, [2], 5), (5, [], 6), (3, [2], 4)):
        field = build_field(p, degs)
        q = field.cardinality
        for lam in field.elements():
            if lam.is_zero:
                continue
            basis = build_basis(CodeParams(field, n, lam))
            for _ in range(5):
                a = [field.elem(rng.randrange(q)) for _ in range(n)]
                back = basis.forward(a).inverse()
                assert [x for x in back] == [y.lift(basis.splitting) for y in a]


def test_inverse_of_lone_dc_term(f3):
    basis = build_basis(CodeParams(f3, 4, f3.elem(2)))
    spl = basis.splitting
    values = [spl.one(), spl.zero(), spl.zero(), spl.zero()]
    a = basis.inverse(values)
    # a_i = 1/(n beta^i); forward must reproduce the lone spike
    assert list(basis.forward_extended(list(a)).values) == values


def test_forward_rejects_bad_lengths(f3):
    basis = build_basis(CodeParams(f3, 4, f3.elem(2)))
    with pytest.raises(ValueError):
        basis.forward([f3.one()] * 5)
    with pytest.raises(ValueError):
        basis.inverse([basis.splitting.one()] * 3)


def test_rationality_detects_base_vectors(f9):
    rng = random.Random(3)
    params = CodeParams(f9, 5, f9.elem([2, 1]))
    basis = build_basis(params)
    spl = basis.splitting
    assert spl is not f9
    for _ in range(10):
        a = [f9.elem(rng.randrange(9)) for _ in range(5)]
        spec = basis.forward(a)
        assert spec.is_rational() and basis.is_rational(spec)
        assert basis.inverse(spec) == spec.inverse()
        # perturb one spectral value by a proper-extension element
        values = list(spec.values)
        values[2] = values[2] + basis.delta
        assert not basis.is_rational(values)
    zero_spec = basis.forward([f9.zero()] * 5)
    assert zero_spec.is_rational()


def test_spectrum_of_another_basis_is_refused(f3):
    fam = basis_family(f3, 4)
    a = [f3.one(), f3.zero(), f3.zero(), f3.one()]
    s = fam.basis_for_exponent(1).forward(a)
    other = fam.basis_for_exponent(3)
    for method in (other.inverse, other.is_rational):
        with pytest.raises(ValueError, match="different basis"):
            method(s)
    # raw values carry no basis and are read on the basis they are given to:
    # on basis 3 these are the spectrum of no vector over F_3
    assert str(other.inverse(s.values)[3]) == "2*y"
    assert s.basis.is_rational(s.values) and not other.is_rational(s.values)
    assert s.inverse() == s.basis.inverse(s) == tuple(x.lift(fam.splitting) for x in a)


@pytest.mark.parametrize(
    "p, n, lam, foreign",
    [(5, 2, 1, 7), (2, 5, 1, 2), (5, 16, 2, 5)],
    ids=["prime GF(5)", "tabulated GF(2^4)", "vector GF(5^16)"],
)
def test_spectrum_values_from_another_field_are_refused(p, n, lam, foreign):
    field = build_field(p, [])
    basis = build_basis(CodeParams(field, n, field.elem(lam)))
    values = [build_field(foreign, []).one()] * n
    for method in (basis.inverse, basis.is_rational):
        with pytest.raises(ValueError, match="^spectrum values must lie in the splitting field$"):
            method(values)


def test_linear_factor_product_and_poly_to_base(f3):
    basis = build_basis(CodeParams(f3, 4, f3.elem(2)))
    f = basis.poly_to_base(basis.linear_factor_product([0, 1]))
    assert f == Poly(f3, [2, 1, 1])
    g = basis.poly_to_base(basis.linear_factor_product([2, 3]))
    assert g == Poly(f3, [2, 2, 1])
    with pytest.raises(RuntimeError):
        basis.poly_to_base(basis.linear_factor_product([1]))  # not Frobenius-closed


def test_irreducible_factors_pinned(f3, f2):
    nega = build_basis(CodeParams(f3, 4, f3.elem(2)))
    assert [f.indices() for f in nega.irreducible_factors()] == [(2, 1, 1), (2, 2, 1)]
    cyc = build_basis(CodeParams(f2, 7, f2.one()))
    assert [f.indices() for f in cyc.irreducible_factors()] == [
        (1, 1),
        (1, 1, 0, 1),
        (1, 0, 1, 1),
    ]
    tiny = build_basis(CodeParams(f2, 1, f2.one()))
    assert [f.indices() for f in tiny.irreducible_factors()] == [(1, 1)]


def test_factor_product_reassembles_many():
    for p, degs in ((2, []), (3, []), (2, [2]), (5, [])):
        field = build_field(p, degs)
        q = field.cardinality
        for n in range(1, 9):
            if math.gcd(n, q) != 1:
                continue
            for lam in field.elements():
                if lam.is_zero:
                    continue
                basis = build_basis(CodeParams(field, n, lam))
                acc = Poly.one(field)
                for f in basis.irreducible_factors():
                    assert f.is_monic
                    acc = acc * f
                assert acc == Poly.monomial(field, n) - Poly.from_elements([lam])


def test_convolution_identity(f5):
    """Spectrum of a componentwise product is 1/n times a circular convolution."""
    rng = random.Random(17)
    n = 4
    fam = BasisFamily(f5, n)
    spl = fam.splitting
    n_elem = small_int(spl, n)
    for s1, s2 in ((1, 2), (0, 3), (2, 2)):
        b1, b2 = fam.basis_for_exponent(s1), fam.basis_for_exponent(s2)
        b3 = fam.basis_for_exponent(s1 + s2)
        for _ in range(6):
            a = [f5.elem(rng.randrange(5)) for _ in range(n)]
            b = [f5.elem(rng.randrange(5)) for _ in range(n)]
            A, B = b1.forward(a).values, b2.forward(b).values
            C = b3.forward(list(schur(a, b))).values
            for j in range(n):
                conv = spl.zero()
                for t in range(n):
                    conv = conv + A[t] * B[(j - t) % n]
                assert n_elem * C[j] == conv


def test_pointwise_product_identity(f3):
    rng = random.Random(71)
    n, lam = 4, f3.elem(2)
    basis = build_basis(CodeParams(f3, n, lam))
    for _ in range(10):
        a = Poly(f3, [rng.randrange(3) for _ in range(n)])
        b = Poly(f3, [rng.randrange(3) for _ in range(n)])
        ab = (a * b) % basis.params.xn_minus_lam
        # padded() hands back raw reps; rebuild elements for forward
        A = basis.forward([f3.elem(r) for r in a.padded(n)]).values
        B = basis.forward([f3.elem(r) for r in b.padded(n)]).values
        AB = basis.forward([f3.elem(r) for r in ab.padded(n)]).values
        assert all(AB[j] == A[j] * B[j] for j in range(n))


def test_reversal_identity(f5):
    """B_j = A_{n-j} beta^{1-n} xi^{-j}, with B taken w.r.t. beta^{-1}."""
    rng = random.Random(5)
    n = 6
    for lam_idx in (2, 3, 4):
        params = CodeParams(f5, n, f5.elem(lam_idx))
        basis = build_basis(params)
        rev = RootBasis(basis.family, -basis.beta_exp)
        assert rev.params.lam == params.lam.inverse()
        for _ in range(8):
            a = [f5.elem(rng.randrange(5)) for _ in range(n)]
            A = basis.forward(a).values
            B = rev.forward(list(reversed(a))).values
            for j in range(n):
                scale = basis.delta_pow(basis.beta_exp * (1 - n) - basis.xi_exp * j)
                assert B[j] == A[(n - j) % n] * scale


def test_family_and_per_lambda_bases_agree_on_supports(f3):
    fam = BasisFamily(f3, 8)
    for lam_idx in (1, 2):
        lam = f3.elem(lam_idx)
        per = build_basis(CodeParams(f3, 8, lam))
        famb = fam.basis_for_lambda(lam)
        g = per.poly_to_base(per.linear_factor_product(per.orbits()[0]))
        # both bases factor the same binomial
        acc1 = Poly.one(f3)
        for f in per.irreducible_factors():
            acc1 = acc1 * f
        acc2 = Poly.one(f3)
        for f in famb.irreducible_factors():
            acc2 = acc2 * f
        assert acc1 == acc2
        assert g.divides(acc1)


def test_closed_form_shift_solves_the_frobenius_equation():
    """xi^t = beta^(q-1) for t = s*(q-1)/o mod n, on the criterion-1 grid.

    Covers every build_basis basis (o = ord lam) and every basis of the
    default family (o = q - 1).
    """
    grid = {2: (2, []), 3: (3, []), 4: (2, [2]), 5: (5, []), 9: (3, [2])}
    checked = 0
    for q, (p, degs) in grid.items():
        field = build_field(p, degs)
        for n in range(1, 17):
            if math.gcd(n, q) != 1:
                continue
            fam = BasisFamily(field, n)
            bases = [fam.basis_for_exponent(s) for s in range(fam.delta_order)]
            for lam in field.elements():
                if not lam.is_zero:
                    bases.append(build_basis(CodeParams(field, n, lam)))
            for b in bases:
                t = b.frobenius_shift
                assert 0 <= t < n
                assert b.delta_pow(b.xi_exp * t) == b.delta_pow(b.beta_exp * (q - 1))
                assert b.delta_pow(b.beta_exp * n) == b.params.lam.lift(b.splitting)
                checked += 1
    assert checked == 1784


def test_family_exponent_must_divide_q_minus_1(f5, f9):
    for o in (0, 3, 5):
        with pytest.raises(ValueError, match=f"^{o} does not divide q - 1 = 4$"):
            BasisFamily(f5, 3, o)
    fam = BasisFamily(f9, 4, 2)
    assert fam.delta_order == 8
    assert fam.delta_pow(fam.xi_exp * 4) == fam.splitting.one()
    with pytest.raises(ValueError, match="^lam is not a unit of order dividing 2$"):
        fam.basis_for_lambda(f9.elem(3))  # of order 4 in F_9


def test_build_basis_is_the_lambda_basis_of_its_order_family(f5):
    for lam_idx in range(1, 5):
        params = CodeParams(f5, 6, f5.elem(lam_idx))
        basis = build_basis(params)
        assert basis.xi_exp == params.lam_order
        assert basis.delta_order == 6 * params.lam_order
        assert basis.params == params
        assert basis.family.basis_for_lambda(params.lam).beta_exp == basis.beta_exp


def test_build_basis_is_served_from_the_family_memo(f2, f5):
    params = CodeParams(f5, 4, f5.elem(4))  # ord(-1) = 2 < q - 1
    basis = build_basis(params)
    assert build_basis(params) is basis
    assert basis.family is basis_family(f5, 4, 2)
    assert basis.family is not basis_family(f5, 4)
    code = code_from_generator(params, basis.irreducible_factors()[0], basis)
    families = len(cdft._FAMILIES)
    _, dual = dual_generating_set(code)
    assert len(cdft._FAMILIES) == families
    assert dual.basis.family is code.basis.family
    for n in (0, -1):
        with pytest.raises(ValueError, match="^length must be >= 1$"):
            BasisFamily(f2, n)


def test_family_rejects_foreign_lambda(f3, f5):
    fam = BasisFamily(f3, 4)
    with pytest.raises(ValueError):
        fam.basis_for_lambda(f5.one())


def _scanned_exponent(fam, lam):
    """Reference for basis_for_lambda: the smallest s with delta^(sn) = lam,
    found by lifting lam and comparing it with each power in the splitting field."""
    lifted = lam.lift(fam.splitting)
    for s in range(fam.xi_exp):
        if fam.delta_pow(s * fam.n) == lifted:
            return s
    return None


@pytest.mark.parametrize("p,degrees,n", [(3, [2], 16), (5, [], 16), (7, [], 16)])
def test_basis_for_lambda_walk_matches_the_splitting_field_scan(p, degrees, n):
    """GF(9) and F_5 at n = 16 split in vector levels (GF(3^32), GF(5^16)),
    F_7 in a tabulated one; every lam, in the default and its own-order family."""
    field = build_field(p, degrees)
    assert BasisFamily(field, n).splitting.kind == ("tabulated" if p == 7 else "vector")
    for lam in field.elements():
        if lam.is_zero:
            continue
        for o in (None, elem_order(lam)):
            fam = BasisFamily(field, n, o)
            s = _scanned_exponent(fam, lam)
            assert s is not None
            assert fam.basis_for_lambda(lam).beta_exp == s


def test_basis_for_lambda_walk_matches_the_scan_on_lazy_delta_powers():
    """(F_4099, 2): delta of order 8196 is past the eager table; 50 seeded lam."""
    field = build_field(4099, [])
    fam = BasisFamily(field, 2)
    assert fam.delta_order > EAGER_POWER_LIMIT
    rng = random.Random(4099)
    for idx in rng.sample(range(1, 4099), 50):
        lam = field.elem(idx)
        assert fam.basis_for_lambda(lam).beta_exp == _scanned_exponent(fam, lam)


def test_basis_for_lambda_takes_one_delta_power(f9, monkeypatch):
    """Once a basis is built, finding it again takes delta^n and nothing else;
    a search in the splitting field would take s + 1 powers."""
    fam = BasisFamily(f9, 16)
    lams = [lam for lam in f9.elements() if not lam.is_zero]
    bases = [fam.basis_for_lambda(lam) for lam in lams]
    assert max(b.beta_exp for b in bases) == 7
    calls = []
    delta_pow = BasisFamily.delta_pow
    monkeypatch.setattr(
        BasisFamily, "delta_pow", lambda self, k: calls.append(k) or delta_pow(self, k)
    )
    for lam, basis in zip(lams, bases):
        calls.clear()
        assert fam.basis_for_lambda(lam) is basis
        assert calls == [16]


def test_lazy_delta_powers_round_trip_and_factor():
    """q = 4099, n = 2, lam = 2: ord(delta) = 8196 is past the eager table."""
    field = build_field(4099, [])
    basis = build_basis(CodeParams(field, 2, field.elem(2)))
    assert basis.delta_order == 8196 > EAGER_POWER_LIMIT
    spl = basis.splitting
    rng = random.Random(11)
    for _ in range(5):
        a = [field.elem(rng.randrange(4099)) for _ in range(2)]
        spec = basis.forward(a)
        assert spec.values == basis.forward_extended([x.lift(spl) for x in a]).values
        assert list(spec.inverse()) == [x.lift(spl) for x in a]
    product = Poly.one(field)
    for f in basis.irreducible_factors():
        product = product * f
    assert product == Poly.from_elements([field.elem(4097), field.zero(), field.one()])


@pytest.mark.parametrize("lam", [1, 2])
def test_transform_over_a_vector_on_vector_splitting_field(lam):
    """Base GF(3^5), n = 4: the splitting field GF(3^10) is a vector level on
    a log-table level too large for Q x Q tables, so forward scales through
    the generic sublevel ops."""
    field = build_field(3, [5])
    basis = build_basis(CodeParams(field, 4, field.elem(lam)))
    spl = basis.splitting
    assert spl.degrees == (5, 2) and spl.kind == "vector"
    assert spl.subfield.kind == "tabulated" and spl.subfield.cardinality > SQUARE_TABLE_LIMIT
    rng = random.Random(lam)
    for _ in range(3):
        a = [field.elem(rng.randrange(243)) for _ in range(4)]
        spec = basis.forward(a)
        assert spec.is_rational()
        assert spec.values == basis.forward_extended([x.lift(spl) for x in a]).values
        assert list(spec.inverse()) == [x.lift(spl) for x in a]


def test_transform_over_a_splitting_field_on_a_vector_base():
    """Base GF(67^2), above TABLE_LIMIT, n = 5, lambda = -1: the splitting
    field GF(67^4) is a vector level whose sublevel is a vector level too."""
    field = build_field(67, [2])
    basis = build_basis(CodeParams(field, 5, -field.one()))
    spl = basis.splitting
    assert field.cardinality > TABLE_LIMIT
    assert spl.degrees == (2, 2) and spl.kind == spl.subfield.kind == "vector"
    rng = random.Random(5)
    for _ in range(2):
        a = [field.elem(rng.randrange(field.cardinality)) for _ in range(5)]
        spec = basis.forward(a)
        assert spec.is_rational()
        assert spec.values == basis.forward_extended([x.lift(spl) for x in a]).values
        assert list(spec.inverse()) == [x.lift(spl) for x in a]


@pytest.mark.parametrize("lam,delta_index", [(1, 39366), (2, 19684)])
def test_delta_scan_past_the_sublevel(lam, delta_index):
    """Over GF(3^9), n = 4, the order e (4 or 8) does not divide 3^9 - 1, so
    the delta scan in GF(3^18) skips the 3^9 sublevel elements; delta is the
    element the full scan picks."""
    field = build_field(3, [9])
    basis = build_basis(CodeParams(field, 4, field.elem(lam)))
    assert basis.splitting is build_field(3, [9, 2])
    assert basis.delta.index == delta_index


def test_transforms_reject_wrong_context_inputs(f3):
    basis = build_basis(CodeParams(f3, 4, f3.elem(2)))
    spl = basis.splitting
    with pytest.raises(ValueError, match="^coefficients must be elements of the base field$"):
        basis.forward([spl.one()])
    with pytest.raises(ValueError, match="^coefficients must be elements of the splitting field$"):
        basis.forward_extended([f3.one()])
    with pytest.raises(ValueError, match="^spectrum values must lie in the splitting field$"):
        basis.inverse([f3.one()] * 4)
    with pytest.raises(ValueError, match="^vector longer than n = 4$"):
        basis.forward_extended([spl.one()] * 5)
    with pytest.raises(ValueError, match="^spectrum must have exactly n = 4 values$"):
        basis.inverse([spl.one()] * 5)


def test_irreducible_factors_are_computed_once(f3):
    basis = build_basis(CodeParams(f3, 8, f3.elem(2)))
    first = basis.irreducible_factors()
    assert basis.irreducible_factors() is first
    assert basis.orbits() is basis.orbits()


def test_xn_minus_lam_stays_out_of_eq_hash_and_repr(f3):
    """So do the derived orders: all three are computed on first use only."""
    read = CodeParams(f3, 4, f3.elem(2))
    assert read.xn_minus_lam == Poly.monomial(f3, 4) - Poly(f3, [2])
    assert read.xn_minus_lam is read.xn_minus_lam
    assert (read.lam_order, read.splitting_degree) == (2, 2)
    fresh = CodeParams(f3, 4, f3.elem(2))
    for name in ("xn_minus_lam", "lam_order", "splitting_degree"):
        assert name not in vars(fresh) and name in vars(read)
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh) == "CodeParams(q=3, n=4, lam=2)"
    assert len({read, fresh}) == 1
