"""Property tests for the oracle's row reduction.

The fields cover the three element representations: F_5 (prime),
GF(4) (tabulated) and GF(3^5) (vector reps).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constakit import build_field
from constakit.oracle import rref, span_contains

FIELDS = {"F5": build_field(5, []), "GF4": build_field(2, [2]), "GF243": build_field(3, [5])}

_settings = settings(max_examples=40, deadline=None)


def _elements(ctx, nonzero=False):
    return st.integers(1 if nonzero else 0, ctx.cardinality - 1).map(ctx.rep_from_index)


@st.composite
def _matrices(draw, ctx):
    ncols = draw(st.integers(1, 5))
    row = st.tuples(*[_elements(ctx)] * ncols)
    return ncols, draw(st.lists(row, max_size=7))


@st.composite
def _full_rank(draw, ctx):
    """Rows of a unit upper-triangular matrix, scaled and shuffled."""
    n = draw(st.integers(1, 5))
    zero, one = ctx.zero_rep, ctx.one_rep
    rows = []
    for i in range(n):
        tail = [draw(_elements(ctx)) for _ in range(n - i - 1)]
        scale = draw(_elements(ctx, nonzero=True))
        rows.append(tuple(ctx.mul(scale, c) for c in [zero] * i + [one] + tail))
    return draw(st.permutations(rows))


@pytest.mark.parametrize("name", sorted(FIELDS))
@_settings
@given(data=st.data())
def test_rref_ignores_order_duplicates_and_zero_rows(name, data):
    ctx = FIELDS[name]
    ncols, rows = data.draw(_matrices(ctx))
    reference = rref(ctx, rows)
    zero_row = (ctx.zero_rep,) * ncols
    noisy = rows + data.draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    noisy += [zero_row] * data.draw(st.integers(0, 2))
    assert rref(ctx, data.draw(st.permutations(noisy))) == reference


@pytest.mark.parametrize("name", sorted(FIELDS))
@_settings
@given(data=st.data())
def test_rref_spans_its_input_in_reduced_form(name, data):
    ctx = FIELDS[name]
    ncols, rows = data.draw(_matrices(ctx))
    echelon, pivots = rref(ctx, rows)
    assert len(echelon) == len(pivots) <= min(len(rows), ncols)
    for r in rows:
        assert span_contains(ctx, echelon, pivots, r)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, col in enumerate(pivots):
        column = [row[col] for row in echelon]
        assert column == [ctx.one_rep if k == i else ctx.zero_rep for k in range(len(echelon))]
        assert all(c == ctx.zero_rep for c in echelon[i][:col])


@pytest.mark.parametrize("name", sorted(FIELDS))
@_settings
@given(data=st.data())
def test_rref_of_full_rank_rows_is_the_identity(name, data):
    ctx = FIELDS[name]
    rows = data.draw(_full_rank(ctx))
    n = len(rows)
    identity = [tuple(ctx.one_rep if i == j else ctx.zero_rep for j in range(n)) for i in range(n)]
    assert rref(ctx, rows) == (identity, list(range(n)))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_rref_stops_reading_at_full_rank(name):
    ctx = FIELDS[name]
    one, zero = ctx.one_rep, ctx.zero_rep

    def rows():
        yield (one, one, zero)
        yield (zero, one, one)
        yield (one, zero, one)  # full rank here in odd characteristic,
        yield (zero, zero, one)  # and here in characteristic 2
        raise AssertionError("row read after full rank")

    echelon, pivots = rref(ctx, rows())
    assert pivots == [0, 1, 2]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_rref_of_no_rows_is_empty(name):
    assert rref(FIELDS[name], []) == ([], [])


# -- an independent reference: sympy's rref over GF(p) ----------------------

PRIME_FIELDS = {p: build_field(p, []) for p in (2, 5, 7)}


@st.composite
def _row_sets(draw, ctx):
    """Drawn rows, full-rank rows, or either with duplicate and zero rows mixed in."""
    if draw(st.booleans()):
        rows = list(draw(_full_rank(ctx)))
        ncols = len(rows[0])
    else:
        ncols, rows = draw(_matrices(ctx))
    if rows and draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
        rows += [(ctx.zero_rep,) * ncols] * draw(st.integers(0, 2))
        rows = draw(st.permutations(rows))
    return ncols, rows


def _sympy_rref(ctx, ncols, rows):
    """(echelon, pivots) from sympy's DomainMatrix.rref over GF(p)."""
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    p = ctx.p
    K = GF(p)
    entries = [[K(ctx.rep_to_index(c)) for c in r] for r in rows]
    reduced, pivots = DomainMatrix(entries, (len(rows), ncols), K).rref()
    echelon = [
        tuple(ctx.rep_from_index(int(c) % p) for c in row)
        for row in reduced.to_list()[: len(pivots)]
    ]
    return echelon, list(pivots)


@pytest.mark.parametrize("p", sorted(PRIME_FIELDS))
@_settings
@given(data=st.data())
def test_rref_matches_sympy_over_prime_fields(p, data):
    ctx = PRIME_FIELDS[p]
    ncols, rows = data.draw(_row_sets(ctx))
    echelon, pivots = rref(ctx, rows)
    assert (echelon, pivots) == _sympy_rref(ctx, ncols, rows)
    vec = data.draw(st.tuples(*[_elements(ctx)] * ncols))
    expected = len(_sympy_rref(ctx, ncols, rows + [vec])[1]) == len(pivots)
    assert span_contains(ctx, echelon, pivots, vec) == expected


@pytest.mark.parametrize("p", sorted(PRIME_FIELDS))
@_settings
@given(data=st.data())
def test_full_rank_echelon_contains_every_vector(p, data):
    ctx = PRIME_FIELDS[p]
    rows = data.draw(_full_rank(ctx))
    echelon, pivots = rref(ctx, rows)
    assert len(pivots) == len(rows)
    vec = data.draw(st.tuples(*[_elements(ctx)] * len(rows)))
    assert span_contains(ctx, echelon, pivots, vec)
