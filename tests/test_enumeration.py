import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rigidmetrics.enumeration import (
    calkin_wilf,
    calkin_wilf_index,
    cantor_pair,
    cantor_unpair,
    first_hit_index,
    index_of,
    rational_at,
    simplest_in_open,
    tree_depth,
)

PREFIX = 10_000


def test_zero_maps_to_zero():
    assert rational_at(0) == 0


def test_first_hit_indices_brute_force():
    # Oracle: scan the enumeration and record where each integer block is
    # first entered; the first value there must be the integer itself.
    first_seen: dict[int, int] = {}
    for i in range(PREFIX):
        m = int(rational_at(i))
        first_seen.setdefault(m, i)
    for m in range(5):
        assert first_seen[m] == (0, 1, 3, 7, 15)[m]
        assert first_seen[m] == first_hit_index(m)
        assert rational_at(first_hit_index(m)) == m
    assert rational_at(1) == 1 and rational_at(3) == 2 and rational_at(7) == 3


def test_first_hit_property_up_to_20():
    for m in range(20):
        assert rational_at(first_hit_index(m)) == m
        assert first_hit_index(m) < first_hit_index(m + 1)


def test_prefix_bijectivity():
    values = [rational_at(i) for i in range(PREFIX)]
    assert len(set(values)) == PREFIX
    for i, v in enumerate(values):
        assert index_of(v) == i
    assert all(v >= 0 for v in values)


def test_index_of_rejects_negative():
    with pytest.raises(ValueError):
        index_of(Fraction(-1, 2))


def test_calkin_wilf_prefix():
    seq = [calkin_wilf(n) for n in range(1, 8)]
    assert seq == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(2),
        Fraction(1, 3),
        Fraction(3, 2),
        Fraction(2, 3),
        Fraction(3),
    ]
    for n in range(1, 500):
        assert calkin_wilf_index(calkin_wilf(n)) == n


def test_tree_depth_matches_index_bit_length():
    for n in range(1, 300):
        assert tree_depth(calkin_wilf(n)) == n.bit_length() - 1


@given(st.integers(0, 10**6))
def test_cantor_round_trip(n):
    a, b = cantor_unpair(n)
    assert cantor_pair(a, b) == n


def test_simplest_in_open_cases():
    assert simplest_in_open(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)
    assert simplest_in_open(Fraction(7, 10), Fraction(4, 5)) == Fraction(3, 4)
    assert simplest_in_open(Fraction(2), Fraction(3)) == Fraction(5, 2)
    assert simplest_in_open(Fraction(0), Fraction(1, 7)) == Fraction(1, 8)
    assert simplest_in_open(Fraction(1, 2), Fraction(7, 2)) == 1


@given(
    st.fractions(min_value=0, max_value=50),
    st.fractions(min_value=Fraction(1, 1000), max_value=10),
)
def test_simplest_in_open_membership_and_minimality(lo, width):
    hi = lo + width
    s = simplest_in_open(lo, hi)
    assert lo < s < hi
    for q in range(1, min(s.denominator, 12)):
        for p in range(int(lo * q), int(hi * q) + 2):
            assert not lo < Fraction(p, q) < hi


def _simplest_reference(lo, hi):
    """The recursive Stern-Brocot search on ``Fraction``s."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo < 0 or not lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    whole = math.floor(lo)
    if whole + 1 < hi:
        return Fraction(whole + 1)
    a, b = lo - whole, hi - whole
    if a == 0:
        m = b.denominator // b.numerator + 1
        return whole + Fraction(1, m)
    return whole + 1 / _simplest_reference(1 / b, 1 / a)


def _outcome(f, *args):
    try:
        value = f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(value), value


_BOUND = st.one_of(
    st.integers(-1, 6),
    st.fractions(min_value=-1, max_value=6, max_denominator=4096),
)
# hi within 1/d of lo, so the walk runs deep
_CLOSE = st.builds(lambda lo, d: (lo, lo + Fraction(1, d)), _BOUND, st.integers(1, 10**9))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.tuples(_BOUND, _BOUND), _CLOSE))
@example((Fraction(1, 2), 1))  # hi on an integer
@example((2, 3))  # integer lo and hi
@example((0, Fraction(1, 7)))  # lo = 0
@example((0, Fraction(1, 4096)))
@example((Fraction(5, 2), 3))
@example((Fraction(333, 106), Fraction(355, 113)))  # a long continued fraction
@example((1, 1))  # empty
@example((Fraction(-1, 2), 1))  # negative lo
def test_simplest_in_open_matches_recursive_reference(bounds):
    assert _outcome(simplest_in_open, *bounds) == _outcome(_simplest_reference, *bounds)
