"""Property tests for moving elements between tower levels, and for the
field axioms at every level.

Towers are drawn over p in {2, 3, 5, 7} with up to three extension levels
and at most 2**32 elements, so every representation kind turns up, a
vector level over a vector level included (the examples pin a few).  An
element crosses levels by its canonical index alone: lift keeps the index,
project returns it, and both respect the field operations.

The axioms test draws towers of at most 2**26 elements, which still holds
GF(2^26) over GF(2^13), a vector level over a vector level; above that, one
tower, GF(((2^2)^4)^4), spends about 10 s in its degree-4 modulus scan over
GF(2^8).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from constakit import build_field

MAX_CARDINALITY = 2**32


@st.composite
def towers(draw, cap=MAX_CARDINALITY):
    """(p, degrees) of a tower with at most cap elements."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    degrees, card = [], p
    for _ in range(draw(st.integers(0, 3))):
        top = 1
        while card ** (top + 1) <= cap and top < 13:
            top += 1
        d = draw(st.integers(1, top))
        degrees.append(d)
        card **= d
    return p, tuple(degrees)


def _levels(p, degrees):
    return [build_field(p, degrees[:i]) for i in range(len(degrees) + 1)]


@settings(max_examples=60, deadline=None)
@given(tower=towers(), lo=st.integers(0, 3), hi=st.integers(0, 3), a=st.integers(0, 2**32), b=st.integers(0, 2**32))
@example(tower=(2, (13, 2)), lo=0, hi=2, a=1, b=0)
@example(tower=(2, (13, 2)), lo=1, hi=2, a=5000, b=8191)
@example(tower=(5, (2, 3, 2)), lo=1, hi=3, a=24, b=7)
@example(tower=(7, (5, 2)), lo=1, hi=2, a=16806, b=16807)
def test_lift_keeps_the_index_and_the_operations(tower, lo, hi, a, b):
    levels = _levels(*tower)
    lo, hi = sorted((lo % len(levels), hi % len(levels)))
    low, top = levels[lo], levels[hi]
    x, y = low.elem(a % low.cardinality), low.elem(b % low.cardinality)
    up = x.lift(top)
    assert up.ctx is top and up.index == x.index
    for mid in levels[lo : hi + 1]:
        assert up.project(mid).project(low) == x
        assert x.lift(mid).lift(top) == up
    assert (x + y).lift(top) == up + y.lift(top)
    assert (x * y).lift(top) == up * y.lift(top)


@pytest.mark.parametrize(
    "p, degrees, sub_kind",
    [(7, [5], "prime"), (2, [2, 8], "tabulated"), (2, [13, 2], "vector")],
)
def test_index_round_trip_at_the_digit_boundaries(p, degrees, sub_kind):
    """index -> rep -> index at the indices where the number of nonzero
    base-S digits changes, over each kind of sublevel."""
    field = build_field(p, degrees)
    sub = field.subfield
    assert field.kind == "vector" and sub.kind == sub_kind
    S, Q = sub.cardinality, field.cardinality
    for i in (0, 1, S - 1, S, S + 1, Q - 1):
        rep = field.rep_from_index(i)
        assert len(rep) == field.step_degree
        assert rep[0] == sub.rep_from_index(i % S)
        assert field.rep_to_index(rep) == i


@settings(max_examples=150, deadline=None)
@given(tower=towers(2**26), level=st.integers(0, 3), abc=st.lists(st.integers(0, 2**32), min_size=3, max_size=3))
@example(tower=(3, (2, 2)), level=2, abc=[5, 80, 41])
@example(tower=(7, (2, 2)), level=2, abc=[2400, 1, 1234])
@example(tower=(5, (2, 3, 2)), level=3, abc=[24, 15624, 99999])
@example(tower=(2, (13, 2)), level=2, abc=[8191, 8192, 2**26 - 1])
def test_field_axioms_on_drawn_towers(tower, level, abc):
    """Associativity, distributivity, inverses and sub/neg agree at a drawn
    level: tabulated levels over prime or tabulated sublevels (their log
    arrays and Q x Q tables come from digit-sum half tables), vector levels,
    and vector levels over vector levels."""
    levels = _levels(*tower)
    field = levels[level % len(levels)]
    a, b, c = (field.elem(x % field.cardinality) for x in abc)
    zero, one = field.zero(), field.one()
    assert (a * b) * c == a * (b * c) and (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c and (a - b) * c == a * c - b * c
    assert a - b == a + (-b) == -(b - a) and -(-a) == a and a - a == zero
    for x in (a, b, c):
        if x:
            assert x * x.inverse() == one and (a / x) * x == a
