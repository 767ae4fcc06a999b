import json
from fractions import Fraction

import pytest

from rigidmetrics.coded import compare, equals, EQUAL
from rigidmetrics.errors import DomainError
from rigidmetrics.product import tau
from rigidmetrics.registry import (
    RESERVED_GAUGE_ID,
    HubAllocation,
    ValueRegistry,
    _dyadic_power_floor,
    gauge_from_snapshot,
)


def test_fresh_gauges_distinct():
    registry = ValueRegistry(0)
    g1, g2 = registry.fresh_gauge(), registry.fresh_gauge()
    assert g1.gauge_id != g2.gauge_id
    assert RESERVED_GAUGE_ID not in (g1.gauge_id, g2.gauge_id)
    assert g1.value(0, 0, 1) != g2.value(0, 0, 1)


def test_gauge_values_inside_level_window():
    registry = ValueRegistry(0)
    gauge = registry.fresh_gauge()
    for level in range(5):
        for a, b in ((0, 1), (0, 2), (3, 9)):
            v = gauge.value(level, a, b)
            assert level < v < level + 1


def test_many_draws_globally_distinct():
    registry = ValueRegistry(0)
    drawn = []
    for _ in range(10):
        gauge = registry.fresh_gauge()
        for level in range(4):
            for b in range(1, 26):
                drawn.append(gauge.value(level, 0, b))
    assert len(drawn) == 1000
    assert len(set(drawn)) == 1000


def test_hub_value_accuracy():
    # p lies in the window, and the coded part adds at most 2^-i above it
    registry = ValueRegistry(0)
    lo, hi = Fraction(31, 32), Fraction(33, 32)
    value = registry.hub_value(3, 4, lo, hi)
    assert lo < registry.hub_allocation(4).p < hi
    enc = value.eval(4)
    assert lo < enc.lo and enc.hi <= hi + Fraction(1, 16)


def test_hub_value_structure():
    registry = ValueRegistry(2)
    i = 6
    value = registry.hub_value(3, i, Fraction(3, 2), Fraction(5, 3))
    alloc = registry.hub_allocation(i)
    assert value.offset == alloc.p
    assert Fraction(3, 2) < alloc.p < Fraction(5, 3)
    assert len(value.terms) >= 1
    coded_part = value - alloc.p
    enc = coded_part.eval(4)
    assert 0 <= enc.lo and enc.hi <= Fraction(1, 1 << i)


def test_hub_allocation_json_round_trip():
    registry = ValueRegistry(2)
    value = registry.hub_value(3, 6, Fraction(3, 2), Fraction(5, 3))
    alloc = registry.hub_allocation(6)
    data = json.loads(json.dumps(alloc.to_json()))
    assert set(data) == {"p", "q", "words"}
    decoded = HubAllocation.from_json(data)
    assert decoded == alloc
    # the basis is replayed from the words on the reserved gauge
    reserved = gauge_from_snapshot(RESERVED_GAUGE_ID, json.loads(json.dumps(registry.snapshot())))
    basis = tau(reserved, 3, *decoded.words)
    assert decoded.value(basis) == value == alloc.value(basis)
    assert decoded.words == alloc.words == ((0,), (1,))


def test_hub_values_distinct_for_same_window():
    registry = ValueRegistry(0)
    window = (Fraction(1), Fraction(9, 8))
    v1 = registry.hub_value(3, 10, *window)
    v2 = registry.hub_value(3, 11, *window)
    assert v1 != v2
    assert equals(v1, v2) is False
    # one enumerator per window: the second p is its next value, not a repeat
    p1, p2 = registry.hub_allocation(10).p, registry.hub_allocation(11).p
    assert p1 != p2 and all(window[0] < p < window[1] for p in (p1, p2))
    assert [key for key in registry._enumerators if key[2] == 2] == [(*window, 2)]


def test_hub_index_reuse_rejected():
    registry = ValueRegistry(0)
    registry.hub_value(0, 1, Fraction(1), Fraction(2))
    with pytest.raises(DomainError):
        registry.hub_value(0, 1, Fraction(2), Fraction(3))
    # empty or partly negative windows
    for lo, hi in ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(1)),
                   (Fraction(-1), Fraction(1))):
        with pytest.raises(DomainError):
            registry.hub_value(0, 2, lo, hi)


def test_hub_and_block_values_never_equal():
    registry = ValueRegistry(0)
    gauge = registry.fresh_gauge()
    blocks = [tau(gauge, 3, (i,), (j,)) for i in range(4) for j in range(i + 1, 4)]
    hubs = [registry.hub_value(3, 20 + t, Fraction(t + 1, 2), Fraction(t + 2, 2))
            for t in range(4)]
    for b in blocks:
        for h in hubs:
            assert equals(b, h) is False
            assert compare(b, h) != EQUAL


def test_snapshot_is_json_serializable():
    registry = ValueRegistry(7)
    gauge = registry.fresh_gauge()
    gauge.value(0, 0, 1)
    registry.draw_value(Fraction(1, 3), Fraction(1, 2), salt=1)
    registry.hub_value(1, 3, Fraction(2), Fraction(3))
    blob = json.dumps(registry.snapshot(), sort_keys=True)
    data = json.loads(blob)
    assert data["seed"] == 7
    assert "1" in data["gauges"]
    assert "3" in data["hubs"]


def test_dyadic_power_floor():
    assert _dyadic_power_floor(Fraction(1)) == 1
    assert _dyadic_power_floor(Fraction(3, 2)) == 1
    assert _dyadic_power_floor(Fraction(1, 3)) == Fraction(1, 4)
    assert _dyadic_power_floor(Fraction(9)) == 8
    with pytest.raises(DomainError):
        _dyadic_power_floor(Fraction(0))
