import hashlib
import json
from fractions import Fraction

import pytest

from rigidmetrics.coded import compare, equals, EQUAL
from rigidmetrics.errors import DomainError
from rigidmetrics.intervals import _frac_str
from rigidmetrics.product import tau
from rigidmetrics.registry import (
    RESERVED_GAUGE_ID,
    _StatedHubs,
    ValueRegistry,
    gauge_from_snapshot,
    read_snapshot,
)


def _dyadic_power_floor(x: Fraction) -> Fraction:
    """Largest power of two (positive exponent allowed) not exceeding x > 0:
    the rule that set a hub's q, as ``q <= 2^-i / upper(basis)``, before its
    closed form ``2^(k - i)``; kept as the reference for that form."""
    n, d = x.numerator, x.denominator
    if n <= 0:
        raise DomainError("expected a positive bound")
    e = n.bit_length() - d.bit_length()
    if (d << e if e > 0 else d) > (n << -e if e < 0 else n):
        e -= 1
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)


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
    # a snapshot states each hub's p alone; a registry handing them out in
    # order, on the snapshot's gauge 0, places the same hubs again
    registry = ValueRegistry(2)
    windows = [(Fraction(3, 2), Fraction(5, 3)), (Fraction(1), Fraction(9, 8))]
    values = [registry.hub_value(3, 6 + t, *w) for t, w in enumerate(windows)]
    snapshot = json.loads(json.dumps(registry.snapshot()))
    assert snapshot["hubs"] == [_frac_str(registry.hub_allocation(i).p) for i in (6, 7)]
    _, gauges, ps = read_snapshot(snapshot)
    stated = _StatedHubs(gauges, ps)
    assert [stated.hub_value(3, 6 + t, *w) for t, w in enumerate(windows)] == values
    assert stated.hub_allocations() == registry.hub_allocations()
    assert not stated.unplaced
    assert [a.words for a in stated.hub_allocations().values()] == [((0,), (1,)), ((2,), (3,))]
    # one p short, one left over, or a basis on a gauge 0 the snapshot lacks
    short = _StatedHubs(gauges, ps[:1])
    short.hub_value(3, 6, *windows[0])
    with pytest.raises(DomainError, match="fewer hubs"):
        short.hub_value(3, 7, *windows[1])
    assert list(_StatedHubs(gauges, ps + ps).unplaced) == ps + ps
    with pytest.raises(DomainError, match="never recorded"):
        _StatedHubs({}, ps).hub_value(3, 6, *windows[0])


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("k", [0, 1, 3, 7])
def test_hub_q_is_its_closed_form(seed, k):
    # q = 2^(k - i) is the largest dyadic power with q * upper(basis) <= 2^-i,
    # for indices below, at and above the ladder
    registry = ValueRegistry(seed)
    indices = sorted({0, 1, k, k + 1, k + 5, 40, 41})
    for t, i in enumerate(indices):
        registry.hub_value(k, i, Fraction(t + 1, 2), Fraction(t + 2, 2))
    reserved = gauge_from_snapshot(RESERVED_GAUGE_ID, registry.snapshot())
    for i, alloc in registry.hub_allocations().items():
        basis_hi = tau(reserved, k, *alloc.words).eval(4).hi
        assert alloc.q == _dyadic_power_floor(Fraction(1, (1 << i) * basis_hi))
        assert alloc.q == Fraction(2) ** (k - i)


def test_hub_values_distinct_for_same_window():
    registry = ValueRegistry(0)
    window = (Fraction(1), Fraction(9, 8))
    v1 = registry.hub_value(3, 10, *window)
    enumerators = len(registry._enumerators)
    v2 = registry.hub_value(3, 11, *window)
    assert v1 != v2
    assert equals(v1, v2) is False
    # one enumerator per window: the second p is its next value, not a repeat
    p1, p2 = registry.hub_allocation(10).p, registry.hub_allocation(11).p
    assert p1 != p2 and all(window[0] < p < window[1] for p in (p1, p2))
    assert len(registry._enumerators) == enumerators
    registry.hub_value(3, 12, Fraction(9, 8), Fraction(5, 4))
    assert len(registry._enumerators) == enumerators + 1


def _draw_digest(seed):
    """SHA-256 of 200 pool draws over three windows and four salts, then the
    records (p, q and words, as sorted JSON) of 300 hub values over mixed
    windows."""
    registry = ValueRegistry(seed)
    windows = [(Fraction(0), Fraction(1)), (Fraction(1, 3), Fraction(1, 2)),
               (Fraction(5, 4), Fraction(7, 3))]
    lines = []
    for t in range(200):
        value = registry.draw_value(*windows[t % 3], salt=t % 4)
        lines.append(f"{value.numerator}/{value.denominator}")
    for i in range(300):
        lo = Fraction(i % 5, 1 + i % 3)
        registry.hub_value(i % 4, i, lo, lo + Fraction(1, 2 + i % 7))
        alloc = registry.hub_allocation(i)
        record = {"p": _frac_str(alloc.p), "q": _frac_str(alloc.q),
                  "words": [list(w) for w in alloc.words]}
        lines.append(json.dumps(record, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("seed, digest", [
    (0, "56eb6f6f7312eb9dfe32f6007d335d99c1a413935221563b468fd1d99b103d9c"),
    (11, "9f05efbc1496a09685a643806f5f8f4fb6ea997625801f72704600a30d9f8b39"),
])
def test_registry_draws_do_not_move(seed, digest):
    # every value and its draw order are part of the certificate bytes
    assert _draw_digest(seed) == digest


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
    assert data["hubs"] == [_frac_str(registry.hub_allocation(3).p)]


def test_dyadic_power_floor():
    assert _dyadic_power_floor(Fraction(1)) == 1
    assert _dyadic_power_floor(Fraction(3, 2)) == 1
    assert _dyadic_power_floor(Fraction(1, 3)) == Fraction(1, 4)
    assert _dyadic_power_floor(Fraction(9)) == 8
    with pytest.raises(DomainError):
        _dyadic_power_floor(Fraction(0))
