from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rigidmetrics.intervals import EMPTY_SET, IntervalSet


def blk(a, b):
    return IntervalSet.block(Fraction(a), Fraction(b))


def test_normal_form_merges_abutting_blocks():
    s = IntervalSet.from_blocks([(0, 1), (1, 2)])
    assert s == blk(0, 2)
    t = IntervalSet.from_blocks([(1, 2), (0, Fraction(3, 2))])
    assert t == blk(0, 2)


def test_degenerate_blocks_drop():
    assert IntervalSet.from_blocks([(1, 1)]) == EMPTY_SET


def test_invalid_blocks_rejected():
    with pytest.raises(ValueError):
        IntervalSet(((Fraction(1), Fraction(1)),))
    with pytest.raises(ValueError):
        IntervalSet(((Fraction(-1), Fraction(1)),))
    with pytest.raises(ValueError):
        IntervalSet(((Fraction(0), Fraction(2)), (Fraction(1), Fraction(3))))


def test_membership_half_open():
    s = IntervalSet.from_blocks([(0, 1), (2, Fraction(5, 2))])
    assert Fraction(0) in s and Fraction(1, 2) in s
    assert Fraction(1) not in s
    assert Fraction(2) in s and Fraction(5, 2) not in s


def test_intersection():
    s = IntervalSet.from_blocks([(0, 2), (3, 4)])
    t = IntervalSet.from_blocks([(1, Fraction(7, 2))])
    assert s.intersect(t) == IntervalSet.from_blocks([(1, 2), (3, Fraction(7, 2))])
    assert s.intersect(EMPTY_SET) == EMPTY_SET


def test_integer_levels():
    s = IntervalSet.from_blocks([(Fraction(1, 2), Fraction(5, 2)), (4, Fraction(9, 2))])
    assert list(s.integer_levels()) == [0, 1, 2, 4]


def test_window_is_the_unit_trace_computed_once():
    s = IntervalSet.from_blocks([(Fraction(1, 2), Fraction(5, 2)), (4, Fraction(9, 2))])
    for n in range(6):
        assert s.window(n) == s.intersect_block(n, n + 1)
    assert s.window(1) is s.window(1)
    # the memo is not part of the value
    fresh = IntervalSet.from_blocks(s.blocks)
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)


def test_json_round_trip():
    s = IntervalSet.from_blocks([(Fraction(1, 3), Fraction(1, 2)), (2, 3)])
    assert IntervalSet.from_json(s.to_json()) == s


frac = st.fractions(min_value=0, max_value=8)


@given(st.lists(st.tuples(frac, frac), max_size=6))
def test_union_semantics(pairs):
    blocks = [(min(a, b), max(a, b)) for a, b in pairs]
    s = IntervalSet.from_blocks(blocks)
    probes = [a for a, _ in blocks] + [b for _, b in blocks] + [
        (a + b) / 2 for a, b in blocks
    ]
    for q in probes:
        expected = any(a <= q < b for a, b in blocks)
        assert (q in s) == expected


@given(st.lists(st.tuples(frac, frac), max_size=5), st.lists(st.tuples(frac, frac), max_size=5))
def test_union_is_canonical(pairs1, pairs2):
    b1 = [(min(a, b), max(a, b)) for a, b in pairs1]
    b2 = [(min(a, b), max(a, b)) for a, b in pairs2]
    u = IntervalSet.from_blocks(b1).union(IntervalSet.from_blocks(b2))
    assert u == IntervalSet.from_blocks(b1 + b2)
