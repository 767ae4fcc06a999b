from fractions import Fraction

from rigidmetrics.coded import CodedReal, coded_sum
from rigidmetrics.independence import (
    SumComponent,
    find_interval_trace_witness,
    multiset_key,
    tagged_sum_holds,
)
from rigidmetrics.intervals import IntervalSet


def blk(a, b):
    return IntervalSet.block(Fraction(a), Fraction(b))


def test_witness_basic():
    assert find_interval_trace_witness([blk(0, Fraction(1, 2)), blk(0, Fraction(3, 4))]) == 0


def test_witness_identical_sets_fail():
    assert find_interval_trace_witness([blk(0, 1), blk(0, 1)]) is None


def test_witness_shifted_window():
    sets = [blk(2, Fraction(5, 2)), blk(2, Fraction(9, 4)), blk(2, Fraction(11, 5))]
    assert find_interval_trace_witness(sets) == 2


def test_witness_multi_level_sets():
    s1 = IntervalSet.from_blocks([(0, Fraction(1, 3)), (1, Fraction(3, 2))])
    s2 = IntervalSet.from_blocks([(0, Fraction(2, 3)), (1, Fraction(3, 2))])
    assert find_interval_trace_witness([s1, s2]) == 0


def _component(gauge, a, b, value):
    return SumComponent("block", gauge_id=gauge, detail=(a, b), value=value)


def _zero_block(gauge):
    return _component(gauge, "p", "p", CodedReal())


def test_sum_independence_basic():
    v1 = coded_sum(0, blk(0, Fraction(1, 3)))
    v2 = coded_sum(0, blk(0, Fraction(1, 5)))
    v3 = coded_sum(0, blk(0, Fraction(1, 7)))
    hub1 = SumComponent("hub", hub_index=0, value=CodedReal.from_rational(1) + coded_sum(0, blk(0, Fraction(2, 5))))
    hub2 = SumComponent("hub", hub_index=1, value=CodedReal.from_rational(2) + coded_sum(0, blk(0, Fraction(2, 7))))
    left = (_component(1, "x", "p", v1), _component(2, "q", "y", v2), hub1)
    right = (_component(1, "u", "p", v3), _component(3, "q", "v", v2), hub2)
    assert tagged_sum_holds(left, [0, 1, 2, 3]) and tagged_sum_holds(right, [0, 1, 2, 3])
    assert multiset_key(left) != multiset_key(right)


def test_sum_independence_identical_multisets_fail():
    v = coded_sum(0, blk(0, Fraction(1, 3)))
    left = (_component(1, "x", "y", v),)
    assert tagged_sum_holds(left, [1])
    assert multiset_key(left) == multiset_key(left)


def test_component_multisets_compare_values_with_multiplicity():
    a = _component(1, "x", "y", coded_sum(0, blk(0, Fraction(1, 3))))
    b = _component(2, "u", "v", coded_sum(0, blk(0, Fraction(1, 5))))
    # equal value under another tag and order: the multisets agree
    a_again = _component(3, "p", "q", CodedReal.from_json(a.value.to_json()))
    assert multiset_key((a, b)) == multiset_key((b, a_again))
    assert multiset_key((a, a, b)) != multiset_key((a, b, b))
    # a zero summand changes the multiset but not the sum, so the
    # hypotheses refuse it
    zero = _zero_block(3)
    assert multiset_key((a, b)) != multiset_key((a, b, zero))
    assert tagged_sum_holds((a, b), [1, 2, 3]) and not tagged_sum_holds((a, b, zero), [1, 2, 3])


def test_sum_independence_zero_sum_fails():
    v = coded_sum(0, blk(0, Fraction(1, 3)))
    assert tagged_sum_holds((_component(1, "x", "y", v),), [1])
    assert not tagged_sum_holds((_zero_block(1), _zero_block(2)), [1, 2])


def test_sum_independence_repeated_gauge_fails():
    v1 = coded_sum(0, blk(0, Fraction(1, 3)))
    v2 = coded_sum(0, blk(0, Fraction(1, 5)))
    left = (_component(1, "x", "p", v1), _component(1, "p", "y", v2))
    assert not tagged_sum_holds(left, [1, 2])
    # a zero block value is refused whatever its tag
    assert not tagged_sum_holds((_component(1, "x", "p", v1), _zero_block(2)), [1, 2])


def test_sum_independence_unregistered_gauge_fails():
    v = coded_sum(0, blk(0, Fraction(1, 3)))
    assert not tagged_sum_holds((_component(9, "x", "y", v),), [1])
    assert tagged_sum_holds((_component(9, "x", "y", v),), [1, 9])


def test_sum_hypotheses_bound_the_shape():
    v = coded_sum(0, blk(0, Fraction(1, 3)))
    hub = SumComponent("hub", hub_index=0, value=CodedReal.from_rational(1) + v)
    assert not tagged_sum_holds((), [1])
    assert not tagged_sum_holds((hub, hub), [1])
    four = tuple(_component(g, "x", "y", v) for g in (1, 2, 3)) + (hub,)
    assert tagged_sum_holds(four[1:], [1, 2, 3])
    assert not tagged_sum_holds(four, [1, 2, 3])
    # block and hub are the only kinds
    assert not tagged_sum_holds((SumComponent("zero", value=v),), [1])


def _zero_across_ladders():
    # <g0,[0,1)> - 2<g1,[0,1)>: 0 in another form than the zero form
    z = coded_sum(0, blk(0, 1)) - coded_sum(1, blk(0, 1), 2)
    assert not z.is_zero_form()
    return z


def test_sum_of_zero_value_fails_whatever_its_form():
    z = _zero_across_ladders()
    assert not tagged_sum_holds((SumComponent("hub", hub_index=1, value=z),), [1])


def test_block_worth_zero_is_refused_whatever_its_form():
    v = coded_sum(0, blk(0, Fraction(1, 3)))
    z = _zero_across_ladders()
    assert not tagged_sum_holds((_component(1, "x", "p", v), _component(2, "p", "p", z)), [1, 2])
