import json
import pathlib
import random
import time
from itertools import count, islice

import pytest

from constakit import Poly, build_field, elem_order, find_element_of_order
from constakit import field as field_module
from constakit.field import (
    _FIELD_CACHE,
    SQUARE_TABLE_LIMIT,
    TABLE_LIMIT,
    FieldCtx,
    FieldElem,
    _first_irreducible,
    _is_irreducible,
    _var_name,
    _vector_ops,
)
from constakit.numbertheory import divisors

MODULI_GOLDEN = pathlib.Path(__file__).parent / "golden" / "moduli.json"


def field_axioms(field, sample):
    zero, one = field.zero(), field.one()
    for a in sample:
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        assert a + (-a) == zero
        if not a.is_zero:
            assert a * a.inverse() == one
    for a in sample:
        for b in sample:
            assert a + b == b + a
            assert a * b == b * a
    a, b, c = sample[0], sample[len(sample) // 2], sample[-1]
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("p,degrees", [(2, []), (3, []), (5, []), (2, [2]), (3, [2]), (2, [4]), (5, [2])])
def test_axioms_exhaustive(p, degrees):
    field = build_field(p, degrees)
    field_axioms(field, list(field.elements()))


def test_axioms_sampled_tower():
    field = build_field(3, [2, 2])
    assert field.cardinality == 81
    rng = random.Random(7)
    sample = [field.elem(rng.randrange(81)) for _ in range(12)]
    field_axioms(field, sample)


@pytest.mark.parametrize("p,degrees", [(2, [8, 2]), (3, [5, 2]), (67, [2, 2]), (2, [13, 2])])
def test_axioms_vector_on_vector(p, degrees):
    """Vector levels whose sublevel is too large for Q x Q tables run the
    generic vector ops: GF(2^16) over GF(2^8) and GF(3^10) over GF(3^5) sit
    on log-table levels, GF(67^4) over GF(67^2) and GF(2^26) over GF(2^13)
    on vector levels."""
    field = build_field(p, degrees)
    sub = field.subfield
    assert field.kind == "vector" and sub.cardinality > SQUARE_TABLE_LIMIT
    assert sub.kind == ("vector" if sub.cardinality > TABLE_LIMIT else "tabulated")
    rng = random.Random(p)
    sample = [field.elem(rng.randrange(1, field.cardinality)) for _ in range(9)]
    field_axioms(field, sample + [field.zero()])
    for a, b, c in zip(sample[0::3], sample[1::3], sample[2::3]):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - b == a + (-b) == -(b - a)
    sub = field.subfield
    for a in sample:
        s = sub.elem(rng.randrange(sub.cardinality))
        assert FieldElem(field, field.scale(a.rep, s.rep)) == a * s.lift(field)


@pytest.mark.parametrize("p,degrees", [(2, [10]), (3, [6]), (5, [4]), (3, [2, 3])])
def test_log_table_ops_match_the_vector_ops(p, degrees):
    """Every op of a log-table level (characteristic 2, odd characteristic,
    and GF(9)^3 over a Q x Q tabulated sublevel) agrees with the schoolbook
    vector ops of the same level, on seeded pairs plus 0, 1 and -1."""
    field = build_field(p, degrees)
    sub, d = field.subfield, field.step_degree
    assert field.kind == "tabulated" and field.cardinality > SQUARE_TABLE_LIMIT
    vadd, vneg, vmul, vscale = _vector_ops(sub, d, field._red)
    vec, idx = field._vec_from_index, field._vec_to_index
    minus_one = idx(vneg(field._vec_one))
    rng = random.Random(field.cardinality)
    picks = [0, 1, minus_one] + [rng.randrange(field.cardinality) for _ in range(40)]
    for a in picks:
        assert field.neg(a) == idx(vneg(vec(a)))
        if a:
            assert vmul(vec(a), vec(field.inv(a))) == field._vec_one
        s = a % sub.cardinality
        b = picks[rng.randrange(len(picks))]
        assert field.scale(b, s) == idx(vscale(vec(b), s))
        for b in picks[:3] + [picks[rng.randrange(len(picks))] for _ in range(8)]:
            assert field.add(a, b) == idx(vadd(vec(a), vec(b)))
            assert field.sub(a, b) == idx(vadd(vec(a), vneg(vec(b))))
            assert field.mul(a, b) == idx(vmul(vec(a), vec(b)))


@pytest.mark.parametrize("p,degrees", [
    (2, [12]), (2, [2, 6]), (5, [5]), (3, [7]), (7, [4]), (13, [3]), (37, [2]), (61, [2]),
    (2, [2, 2, 3])])
def test_log_arrays_match_the_vector_powers_of_g(p, degrees):
    """exp, log and Zech are built from half tables of digit sums; every
    entry equals the vector arithmetic of the same level.  The shapes reach
    Q = 4096 over GF(2) and GF(4), primes above 36 and a three-level tower."""
    field = build_field(p, degrees)
    Q, n1 = field.cardinality, field.cardinality - 1
    assert field.kind == "tabulated" and p * p <= Q <= TABLE_LIMIT
    vadd, _, vmul, _ = _vector_ops(field.subfield, field.step_degree, field._red)
    vec, idx, one = field._vec_from_index, field._vec_to_index, field._vec_one
    exp, log, zech = field._logs
    assert len(exp) == 2 * n1 and len(log) == Q and len(zech) == n1
    g, x = vec(exp[1]), one
    for k in range(n1):
        assert exp[k] == exp[k + n1] == idx(x)
        assert log[exp[k]] == k
        s = idx(vadd(one, x))
        assert zech[k] == (log[s] if s else -1)
        x = vmul(x, g)
    assert x == one
    assert elem_order(field.elem(exp[1])) == n1
    assert all(elem_order(field.elem(i)) < n1 for i in range(1, exp[1]))


@pytest.mark.parametrize("p,degrees,sub_kind", [
    (3, [4], "prime"), (3, [2, 2], "tabulated"), (2, [6], "prime"), (2, [2, 3], "tabulated")])
def test_square_tables_match_the_log_array_ops(p, degrees, sub_kind):
    """Every pair of a Q x Q tabulated level's add/sub/mul tables, and every
    neg, agrees with the exp/log/Zech arrays, over a prime and a tabulated
    sublevel; add and mul also agree with the level's vector ops."""
    field = build_field(p, degrees)
    Q, n1 = field.cardinality, field.cardinality - 1
    assert field.kind == "tabulated" and Q <= SQUARE_TABLE_LIMIT
    assert field.subfield.kind == sub_kind
    vadd, _, vmul, _ = _vector_ops(field.subfield, field.step_degree, field._red)
    vec, idx = field._vec_from_index, field._vec_to_index
    exp, log, zech = field._logs
    minus_one = exp[n1 // 2] if p > 2 else 1

    def mul(a, b):
        return exp[log[a] + log[b]] if a and b else 0

    def add(a, b):
        if not (a and b):
            return a or b
        z = zech[(log[b] - log[a]) % n1]
        return exp[log[a] + z] if z >= 0 else 0

    for a in range(Q):
        assert field.neg(a) == mul(a, minus_one) and add(a, field.neg(a)) == 0
        for b in range(Q):
            assert field.add(a, b) == add(a, b)
            assert field.sub(a, b) == add(a, mul(b, minus_one))
            assert field.mul(a, b) == mul(a, b)
            assert (field.add(a, b), field.mul(a, b)) == (
                idx(vadd(vec(a), vec(b))), idx(vmul(vec(a), vec(b))))


@pytest.mark.parametrize("p,degrees,table_kernel", [
    (3, [8], True), (2, [13], True), (3, [2, 4], True),
    (4099, [2], False), (2, [8, 2], False), (2, [13, 2], False)])
def test_vector_kernels_match_polynomial_arithmetic(p, degrees, table_kernel):
    """Each vector kernel agrees with polynomial arithmetic over the sublevel
    modulo the level's modulus: the table kernel over prime and tabulated
    sublevels of at most SQUARE_TABLE_LIMIT elements, the generic kernel
    over a larger prime, a log-table and a vector sublevel."""
    field = build_field(p, degrees)
    sub, d, modulus = field.subfield, field.step_degree, field.modulus
    assert field.kind == "vector"
    assert (sub.cardinality <= SQUARE_TABLE_LIMIT) == table_kernel

    def poly(a):
        return Poly(sub, a)

    def ref(f):
        return (f % modulus).padded(d)

    minus_one = (sub.neg(sub.one_rep),) + (sub.zero_rep,) * (d - 1)
    rng = random.Random(field.cardinality)
    picks = [field.zero_rep, field.one_rep, minus_one]
    picks += [field.rep_from_index(rng.randrange(field.cardinality)) for _ in range(16)]
    for a in picks:
        assert field.neg(a) == ref(-poly(a))
        s = sub.rep_from_index(rng.randrange(sub.cardinality))
        assert field.scale(a, s) == ref(poly(a) * Poly(sub, [s]))
        assert field.scale(a, sub.zero_rep) == field.zero_rep
        if a != field.zero_rep:
            assert ref(poly(a) * poly(field.inv(a))) == field.one_rep
        for b in picks[:3] + rng.sample(picks, 5):
            assert field.add(a, b) == ref(poly(a) + poly(b))
            assert field.sub(a, b) == ref(poly(a) - poly(b))
            assert field.mul(a, b) == ref(poly(a) * poly(b))


def test_modulus_scan_over_gf_2_13_tests_one_candidate(monkeypatch):
    """The characteristic-2 trace jump starts the degree-2 scan over GF(2^13)
    at its first irreducible, x^2 + x + 1, so Ben-Or runs once.  Every
    x^2 + c is a square, which Ben-Or rejects at i = 1."""
    field = build_field(2, [13, 2])
    sub = field.subfield
    one = sub.one_rep
    assert field.modulus == Poly(sub, [one, one, one])
    assert sub.cardinality == 2**13
    for c in (0, 1, 5, sub.cardinality - 1):
        assert not _is_irreducible(Poly(sub, [sub.rep_from_index(c), sub.zero_rep, one]), sub)

    tested = []

    def counted(f, ctx):
        tested.append(f)
        return _is_irreducible(f, ctx)

    monkeypatch.setattr(field_module, "_is_irreducible", counted)
    assert _first_irreducible(sub, 2) == field.modulus
    assert tested == [field.modulus]


@pytest.mark.parametrize(
    "tower", json.loads(MODULI_GOLDEN.read_text()), ids=lambda t: f"{t['p']}-{t['degrees']}"
)
def test_moduli_match_golden(tower):
    """Every level's modulus, as captured before the scan used Ben-Or's test."""
    assert build_field(tower["p"], tower["degrees"]).describe() == tower


def test_binomial_skip_keeps_the_gf2_39_modulus(monkeypatch):
    """3 does not divide 2^13 - 1, so no x^3 + c over GF(2^13) is irreducible;
    the scan starts at x^3 + x and tests two candidates, not 8,194."""
    sub = build_field(2, [13])
    one = sub.one_rep
    tested = []

    def counted(f, ctx):
        tested.append(f)
        return _is_irreducible(f, ctx)

    monkeypatch.setattr(field_module, "_is_irreducible", counted)
    start = time.perf_counter()
    modulus = _first_irreducible(sub, 3)
    assert time.perf_counter() - start < 1.0
    assert modulus == Poly(sub, [one, one, sub.zero_rep, one])
    assert len(tested) == 2
    assert build_field(2, [13, 3]).modulus == modulus


def _ordered_factorizations(k):
    """Every degree list of a tower over F_2 with 2^k elements."""
    if k == 1:
        yield []
    for d in range(2, k + 1):
        if k % d == 0:
            for rest in _ordered_factorizations(k // d):
                yield [d] + rest


@pytest.mark.parametrize(
    "degrees", [f for k in range(1, 13) for f in _ordered_factorizations(k)], ids=str
)
def test_trace_jump_matches_the_plain_quadratic_scan_in_characteristic_2(degrees):
    """Over every tower of at most 2^12 elements on F_2, nested ones included,
    the degree-2 modulus found by the trace jump is the first candidate that
    passes Ben-Or's test in a scan from index 0."""
    sub = build_field(2, degrees)
    S = sub.cardinality
    for idx in count():
        f = Poly(sub, [sub.rep_from_index(idx % S), sub.rep_from_index(idx // S), sub.one_rep])
        if _is_irreducible(f, sub):
            break
    assert _first_irreducible(sub, 2) == f


def test_five_level_tower_tests_one_candidate(monkeypatch):
    """GF(2^32) as five quadratic steps from F_2: over GF(2^16) the first
    x^2 + x + c of trace 1 has c of index 2^15, 32,769 candidates into the
    scan, and the trace jump tests only that one.  A budget of 2^15 refuses
    the level as the scan did."""
    sub = build_field(2, [2, 2, 2, 2])
    tested = []

    def counted(f, ctx):
        tested.append(f)
        return _is_irreducible(f, ctx)

    monkeypatch.setattr(field_module, "_is_irreducible", counted)
    modulus = _first_irreducible(sub, 2)
    assert len(tested) == 1
    assert [sub.rep_to_index(c) for c in modulus.coeffs] == [2**15, 1, 1]
    field = build_field(2, [2, 2, 2, 2, 2])
    assert field.modulus == modulus
    assert str(field.elem(2**16)) == "t5"
    assert str(field.modulus) == "x^2 + x + y*z*w*v"
    monkeypatch.setattr(field_module, "MODULUS_SCAN_BUDGET", 2**15)
    with pytest.raises(ValueError, match="first 32768 candidates"):
        _first_irreducible(sub, 2)
    monkeypatch.setattr(field_module, "MODULUS_SCAN_BUDGET", 2**15 + 1)
    assert _first_irreducible(sub, 2) == modulus


def test_modulus_scan_refuses_past_its_budget(monkeypatch):
    build_field(2, [8])
    cached = dict(_FIELD_CACHE)
    monkeypatch.setattr(field_module, "MODULUS_SCAN_BUDGET", 1000)
    with pytest.raises(ValueError, match="first 1000 candidates.*MODULUS_SCAN_BUDGET"):
        build_field(2, [8, 4])
    assert _FIELD_CACHE == cached


def test_irreducibility_agrees_with_sympy():
    """Every monic polynomial of degree 2..5 over F_2, F_3 and F_5, against
    sympy's Rabin test, which uses no tower."""
    ZZ = pytest.importorskip("sympy.polys.domains").ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    for p in (2, 3, 5):
        fp = build_field(p, [])
        for d in range(2, 6):
            for idx in range(p**d):
                low = [idx // p**i % p for i in range(d)]
                expected = gf_irreducible_p([1] + low[::-1], p, ZZ)
                assert _is_irreducible(Poly(fp, low + [1]), fp) == expected, (p, low)


def _monic(field, rng, d):
    return Poly(field, [field.rep_from_index(rng.randrange(field.cardinality)) for _ in range(d)]
                + [field.one_rep])


def _samples(field, rng, d, irreducible, count=12):
    """count random monic polynomials of degree d, then four irreducible ones
    and four products of two irreducible factors of degree >= 2, which only
    the later Frobenius steps can catch."""
    def draw(k):
        while not irreducible(f := _monic(field, rng, k)):
            pass
        return f

    k = max(2, d // 2 - rng.randrange(2))
    return ([_monic(field, rng, d) for _ in range(count)] + [draw(d) for _ in range(4)]
            + [draw(k) * draw(d - k) for _ in range(4)])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_irreducibility_agrees_with_sympy_at_degrees_6_to_9(p):
    """Seeded samples of degree 6..9 over F_p, where f takes up to three
    Frobenius steps past X = x**p, against sympy's Rabin test."""
    ZZ = pytest.importorskip("sympy.polys.domains").ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    fp = build_field(p, [])

    def reference(f):
        return gf_irreducible_p(list(f.coeffs[::-1]), p, ZZ)

    rng = random.Random(p)
    for d in range(6, 10):
        for f in _samples(fp, rng, d, reference):
            assert _is_irreducible(f, fp) == reference(f), (p, f.coeffs)


@pytest.mark.parametrize("p,degrees", [(2, [2]), (2, [3]), (3, [2])], ids=["GF4", "GF8", "GF9"])
def test_irreducibility_agrees_with_trial_division_over_extension_sublevels(p, degrees):
    """Seeded samples of degree 4..6 over GF(4), GF(8) and GF(9), against
    trial division by every monic polynomial of degree <= d/2."""
    sub = build_field(p, degrees)
    S = sub.cardinality
    divisors = {k: [Poly(sub, [sub.rep_from_index(i // S**j % S) for j in range(k)]
                         + [sub.one_rep]) for i in range(S**k)] for k in (1, 2, 3)}

    def reference(f):
        return not any((f % g).is_zero for k in range(1, f.degree // 2 + 1) for g in divisors[k])

    rng = random.Random(S)
    for d in range(4, 7):
        for f in _samples(sub, rng, d, reference, count=6):
            assert _is_irreducible(f, sub) == reference(f), (S, f.coeffs)


@pytest.mark.parametrize("p,degrees,kind", [
    (5, [], "prime"), (3, [2], "tabulated"), (3, [6], "tabulated"), (3, [8], "vector")])
def test_inverse_of_zero_raises_at_every_kind(p, degrees, kind):
    field = build_field(p, degrees)
    assert field.kind == kind
    with pytest.raises(ZeroDivisionError):
        field.inv(field.zero_rep)
    with pytest.raises(ZeroDivisionError):
        field.one() / field.zero()


def test_build_field_caches_prefixes():
    tower = build_field(2, [2, 3])
    assert tower.subfield is build_field(2, [2])
    assert tower.subfield.subfield is build_field(2, [])


def test_degree_one_adds_no_level():
    """One tower per field: a degree-1 step is the level below it."""
    assert build_field(2, [1]) is build_field(2, [])
    assert build_field(3, [1, 2, 1]) is build_field(3, [2])
    assert build_field(2, [2, 1, 3]).degrees == (2, 3)
    one = build_field(2, [1]).one() + build_field(2, []).one()
    assert one.is_zero and repr(build_field(5, [1, 1])) == "GF(5)"
    assert build_field(3, [2]).extend(1) is build_field(3, [2])


def test_modulus_scan_is_deterministic():
    f9a = build_field(3, [2])
    f9b = build_field(3, [2])
    assert f9a is f9b
    # the canonical F_9 modulus is y^2 + 1, the first irreducible in scan order
    assert f9a.describe() == {"p": 3, "degrees": [2], "moduli": [[1, 0, 1]]}


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_field(4, [])
    with pytest.raises(ValueError):
        build_field(2, [0])
    with pytest.raises(ValueError):
        build_field(2, [200])  # cardinality cap
    # psi_12, a strong pseudoprime to every Miller-Rabin witness, is refused
    # by the cap, which also covers prime fields
    with pytest.raises(ValueError, match="tower cardinality 318665857834031151167461 exceeds"):
        build_field(318665857834031151167461, [])
    # past 2**128 the cap is decided from bit lengths; 2**(10**30) is never formed
    for p, degrees in ((2, [10**30]), (2**200 + 1, []), (3, [2, 10**30])):
        with pytest.raises(ValueError, match=r"above 2\*\*128 exceeds the cap"):
            build_field(p, degrees)
    with pytest.raises(TypeError, match="use build_field"):
        FieldCtx()


def test_largest_prime_below_the_cap_builds():
    p = 2**64 - 59
    field = build_field(p, [])
    assert field.kind == "prime" and field.cardinality == p
    assert field.elem(p - 1) * field.elem(p - 1) == field.one()


def test_index_round_trip():
    field = build_field(2, [3])
    for i in range(field.cardinality):
        e = field.elem(i)
        assert field.rep_to_index(e.rep) == i
        nested = field.rep_to_nested(e.rep)
        assert field.elem(nested) == e
    vec = build_field(2, [13])  # a vector level, enumerated lazily
    assert vec.kind == "vector"
    for i, e in enumerate(islice(vec.elements(), 40)):
        assert e.index == i
        assert vec.elem(vec.rep_to_nested(e.rep)) == e


def test_lift_and_project():
    f2 = build_field(2, [])
    f3 = build_field(3, [])
    f9 = f3.extend(2)
    for i in range(3):
        a = f3.elem(i)
        lifted = a.lift(f9)
        assert lifted.ctx is f9
        assert lifted.project(f3) == a
    y = f9.elem([0, 1])
    with pytest.raises(ValueError, match="does not lie in the requested subfield"):
        y.project(f3)
    # two levels, tabulated GF(4) under the vector level GF(4)^7, and F_2
    # under the vector level GF(2^13)
    f4 = build_field(2, [2])
    f4_7, f2_13 = f4.extend(7), build_field(2, [13])
    assert (f4.kind, f4_7.kind, f2_13.kind) == ("tabulated", "vector", "vector")
    for sub, top in ((f4, f4_7), (f2, f2_13), (f2, f4_7)):
        for a in sub.elements():
            lifted = a.lift(top)
            assert lifted.ctx is top and lifted.index == a.index
            assert lifted.project(sub) == a
    with pytest.raises(ValueError, match="does not lie in the requested subfield"):
        f4_7.elem(4).project(f4)
    with pytest.raises(ValueError, match="does not lie in the requested subfield"):
        f4.elem(2).lift(f4_7).project(f2)
    for elem, target in ((f3.one(), f9), (f9.one(), f2), (f4.one(), f2_13)):
        with pytest.raises(ValueError, match="target is not below"):
            elem.project(target)
    with pytest.raises(ValueError, match="target is not an extension"):
        f9.one().lift(f3)


#: (p, lower degrees, upper degrees) for each pair of level kinds; GF(3^5)
#: is tabulated, so the vector-on-vector pair is GF(67^4) over GF(67^2).
LIFT_PAIRS = {
    "prime-tabulated": (3, [], [2]),
    "prime-vector": (2, [], [13]),
    "tabulated-vector": (3, [5], [5, 2]),
    "vector-vector": (67, [2], [2, 2]),
}


@pytest.mark.parametrize("p,low,high", LIFT_PAIRS.values(), ids=list(LIFT_PAIRS))
def test_lift_then_project_returns_the_element(p, low, high):
    sub, top = build_field(p, low), build_field(p, high)
    assert f"{sub.kind}-{top.kind}" in LIFT_PAIRS and sub in top.levels
    rng = random.Random(p)
    for i in [0, 1, sub.cardinality - 1] + [rng.randrange(sub.cardinality) for _ in range(20)]:
        x = sub.elem(i)
        up = x.lift(top)
        assert up.ctx is top and up.index == i and up.project(sub) == x
        assert x.lift(x.ctx) == x == x.project(x.ctx)
        assert up.lift(top) == up == up.project(top)


def test_lift_and_project_refusals_keep_their_messages():
    f2, f3, f4, f8 = (build_field(p, d) for p, d in ((2, []), (3, []), (2, [2]), (2, [3])))
    f9 = f3.extend(2)
    for x, target in ((f9.one(), f3), (f2.one(), f9), (f4.one(), f8)):
        with pytest.raises(ValueError, match=r"^target is not an extension of this context$"):
            x.lift(target)
    for x, target in ((f3.one(), f9), (f4.one(), f8), (f9.one(), f2)):
        with pytest.raises(ValueError, match=r"^target is not below this element's context$"):
            x.project(target)
    for x, target in ((f9.elem(3), f3), (f4.elem(2).lift(f4.extend(7)), f2)):
        with pytest.raises(ValueError, match=r"^element does not lie in the requested subfield$"):
            x.project(target)


def test_cross_field_operations_refuse():
    f4 = build_field(2, [2])
    f9 = build_field(3, [2])
    with pytest.raises(ValueError):
        f4.one() + f9.one()
    with pytest.raises(TypeError, match="cannot combine FieldElem with int"):
        f4.one() + 1


def test_scalar_action_matches_lifted_multiplication():
    f2 = build_field(2, [])
    f16 = build_field(2, [4])
    rng = random.Random(3)
    for _ in range(20):
        a = f16.elem(rng.randrange(16))
        s = f2.elem(rng.randrange(2))
        scaled = FieldElem(f16, f16.scale(a.rep, s.rep))
        assert scaled == a * s.lift(f16)


#: GF(4), GF(8), GF(16), GF(25), GF(27) and GF(4)^2, small enough to brute-force.
SMALL_FIELDS = [(2, [2]), (2, [3]), (2, [4]), (5, [2]), (3, [3]), (2, [2, 2])]
SMALL_FIELD_NAMES = ["GF4", "GF8", "GF16", "GF25", "GF27", "GF4^2"]


def brute_orders(field):
    """{index: least k >= 1 with x**k = 1} for every unit x, by repeated multiplication."""
    orders = {}
    for x in list(field.elements())[1:]:
        k, y = 1, x
        while y != field.one():
            k, y = k + 1, y * x
        orders[x.index] = k
    return orders


def test_elem_order():
    f9 = build_field(3, [2])
    orders = sorted(elem_order(a) for a in f9.elements() if not a.is_zero)
    # multiplicative group is cyclic of order 8
    assert orders.count(8) == 4
    assert max(orders) == 8
    for p, degrees in SMALL_FIELDS:
        field = build_field(p, degrees)
        assert {x.index: elem_order(x) for x in list(field.elements())[1:]} == brute_orders(field)
    with pytest.raises(ValueError, match="zero has no multiplicative order"):
        elem_order(f9.zero())


@pytest.mark.parametrize("order", [1, 2, 4, 8])
def test_find_element_of_order(order):
    f9 = build_field(3, [2])
    a = find_element_of_order(f9, order)
    assert elem_order(a) == order


@pytest.mark.parametrize("p,degrees", SMALL_FIELDS, ids=SMALL_FIELD_NAMES)
def test_find_element_of_order_is_the_lowest_unit_of_that_order(p, degrees):
    field = build_field(p, degrees)
    orders = brute_orders(field)
    for e in divisors(field.cardinality - 1):
        lowest = min(i for i, k in orders.items() if k == e)
        assert find_element_of_order(field, e).index == lowest


def test_find_element_of_order_impossible():
    f9 = build_field(3, [2])
    with pytest.raises(ValueError):
        find_element_of_order(f9, 3)
    with pytest.raises(ValueError, match="order must be >= 1"):
        find_element_of_order(f9, 0)


def test_pow_rep_negative_exponent():
    f5 = build_field(5, [])
    a = f5.elem(2)
    assert a**-1 == a.inverse()
    assert a**-3 == (a * a * a).inverse()


def test_elem_rejects_foreign_and_junk():
    f4 = build_field(2, [2])
    with pytest.raises(TypeError):
        f4.elem(1.5)
    with pytest.raises(ValueError):
        f4.elem(4)
    with pytest.raises(ValueError):
        f4.elem([1])  # wrong coefficient count
    with pytest.raises(ValueError):
        f4.elem([True, 0])  # a bool is not a residue
    assert f4.elem(f4.one()) == f4.one()
    with pytest.raises(ValueError, match="element belongs to a different context"):
        f4.elem(build_field(2, [3]).one())


@pytest.mark.parametrize("p,degrees,kind", [
    (3, [], "prime"), (2, [3], "tabulated"), (3, [8], "vector"),
])
def test_index_refuses_bools(p, degrees, kind):
    field = build_field(p, degrees)
    assert field.kind == kind
    for flag in (True, False):
        with pytest.raises(ValueError, match="out of range"):
            field.elem(flag)
        with pytest.raises(ValueError, match="out of range"):
            field.rep_from_index(flag)


def test_str_forms():
    f9 = build_field(3, [2])
    assert f9.rep_to_str(f9.elem([1, 1]).rep) == "y + 1"
    assert f9.rep_to_str(f9.zero_rep) == "0"
    f3 = build_field(3, [])
    assert f3.rep_to_str(f3.elem(2).rep) == "2"
    # levels past the fourth are named t5, t6, ...  (the smallest five-level
    # tower, GF(2^32), takes ~20 s to build, so the names are checked directly)
    assert [_var_name(k) for k in range(1, 7)] == ["y", "z", "w", "v", "t5", "t6"]


def test_elements_are_hashable_and_slotless():
    f4 = build_field(2, [2])
    seen = {a for a in f4.elements()}
    assert len(seen) == 4
    assert f4.one() and not f4.zero()
    with pytest.raises(AttributeError):
        f4.one().stray = 1
    assert isinstance(f4.one(), FieldElem)
