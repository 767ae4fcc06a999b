import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rigidmetrics.coded import CodedReal
from rigidmetrics.errors import ResourceError
from rigidmetrics.intervals import (
    EMPTY_SET,
    IntervalSet,
    _decode_memo,
    _decode_scope,
    _parse_frac,
)


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


# Reference copies of the kernels as they compared ``Fraction``s.


def _from_blocks_reference(blocks):
    cleaned = []
    for a, b in blocks:
        a, b = Fraction(a), Fraction(b)
        if a < b:
            cleaned.append((a, b))
    cleaned.sort()
    merged = []
    for a, b in cleaned:
        if a < 0:
            raise ValueError("intervals live in the nonnegative rationals")
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


def _validate_reference(blocks):
    prev_end = None
    for a, b in blocks:
        if a < 0:
            raise ValueError("intervals live in the nonnegative rationals")
        if not a < b:
            raise ValueError(f"degenerate block [{a}, {b})")
        if prev_end is not None and not prev_end < a:
            raise ValueError("blocks must be sorted, disjoint and non-abutting")
        prev_end = b
    return blocks


def _block_index_reference(blocks, q):
    return next((t for t, (a, b) in enumerate(blocks) if a <= q < b), -1)


def _intersect_reference(blocks1, blocks2):
    out = []
    i = j = 0
    while i < len(blocks1) and j < len(blocks2):
        a1, b1 = blocks1[i]
        a2, b2 = blocks2[j]
        lo, hi = max(a1, a2), min(b1, b2)
        if lo < hi:
            out.append((lo, hi))
        if b1 <= b2:
            i += 1
        else:
            j += 1
    return tuple(out)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# integer parts -1 to 4 over denominators up to 4096, ints among them
_ENDPOINT = st.one_of(
    st.integers(-1, 5),
    st.builds(
        lambda m, den, num: m + Fraction(num % den, den),
        st.integers(-1, 4),
        st.sampled_from([1, 2, 3, 7, 8, 12, 64, 1000, 4095, 4096]),
        st.integers(0, 4095),
    ),
)


@st.composite
def _raw_blocks(draw, nonnegative=False):
    """Blocks over a small pool of endpoints, so that they overlap, abut,
    repeat, or are empty or reversed."""
    point = _ENDPOINT.filter(lambda q: q >= 0) if nonnegative else _ENDPOINT
    pool = draw(st.lists(point, min_size=1, max_size=6))
    pick = st.sampled_from(pool)
    return draw(st.lists(st.tuples(pick, pick), max_size=6))


_ABUTTING = [(0, Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 2))]


@settings(max_examples=300, deadline=None)
@given(_raw_blocks())
@example(_ABUTTING)
@example([(Fraction(1, 2), Fraction(1, 2)), (1, 0)])  # empty and reversed
@example([(0, 2), (1, Fraction(3, 2))])  # nested
@example([(Fraction(-1, 4096), 0), (0, 1)])
def test_from_blocks_matches_fraction_reference(blocks):
    built = _outcome(lambda: IntervalSet.from_blocks(blocks).blocks)
    assert built == _outcome(_from_blocks_reference, blocks)


@settings(max_examples=300, deadline=None)
@given(_raw_blocks())
@example(_ABUTTING)
@example([(0, 1), (Fraction(1, 2), 2)])  # overlapping
@example([(1, 2), (0, Fraction(1, 2))])  # unsorted
@example([(Fraction(1, 3), Fraction(1, 3))])  # degenerate
@example([(-1, 1)])  # negative start
def test_post_init_matches_fraction_reference(blocks):
    blocks = tuple((Fraction(a), Fraction(b)) for a, b in blocks)
    checked = _outcome(lambda: IntervalSet(blocks).blocks)
    assert checked == _outcome(_validate_reference, blocks)


@settings(max_examples=300, deadline=None)
@given(_raw_blocks(nonnegative=True), _raw_blocks(nonnegative=True), st.lists(_ENDPOINT, max_size=4))
def test_membership_and_intersect_match_fraction_reference(blocks1, blocks2, extra):
    s, t = IntervalSet.from_blocks(blocks1), IntervalSet.from_blocks(blocks2)
    ends = [Fraction(p) for blk in s.blocks + t.blocks for p in blk]
    probes = ends + [(a + b) / 2 for a, b in s.blocks] + [Fraction(q) for q in extra]
    for q in probes:
        expected = _block_index_reference(s.blocks, q)
        assert s._block_index(q.numerator, q.denominator) == expected
        assert (q in s) == (expected >= 0)
    assert s.intersect(t).blocks == _intersect_reference(s.blocks, t.blocks)


_PQ_TEXT = st.text(alphabet="0123456789/-+ ._e\u0661\u0662", max_size=8)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_PQ_TEXT, st.fractions().map(lambda q: f"{q.numerator}/{q.denominator}")))
@example(" 1/2")
@example("+1/2")
@example("1.5")
@example("1e3")
@example("-0/1")
@example("3/-4")
@example("1/0")
@example("-5/0")
@example("1_0/3")
@example("\u0661/\u0662")  # Arabic-Indic digits
@example("007/010")
@example("")
@example("1e99999")
@example("-1e-4301")
@example("1e4300")
def test_parse_frac_matches_fraction(text):
    def read(reader):
        try:
            value = reader(text)
        except (ValueError, ZeroDivisionError, ResourceError) as exc:
            return type(exc)
        return type(value), value

    # Fraction's reading, except that an exponent past the int-string digit
    # limit (this alphabet spells up to 1e99999) is a resource limit
    expected = read(Fraction)
    cap = getattr(sys, "get_int_max_str_digits", int)()
    if cap and isinstance(expected, tuple) and "e" in text:
        if abs(int(text.strip().rpartition("e")[2])) > cap:
            expected = ResourceError
    assert read(_parse_frac) == expected
    with _decode_scope():
        # the second read is a memo hit when the first succeeded
        assert read(_parse_frac) == read(_parse_frac) == expected


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no integer digit cap before Python 3.10.7")
@pytest.mark.parametrize("text", ["1e10000000", "1e-10000000"])
def test_a_long_exponent_is_refused_before_it_is_read(text):
    # Fraction would build 10**10000000, which takes seconds
    started = time.perf_counter()
    with pytest.raises(ResourceError, match="rational too long to read"):
        _parse_frac(text)
    assert time.perf_counter() - started < 0.1


def _from_blocks_sweep_reference(blocks):
    """``from_blocks`` as it sorted and merged every list over the least
    common denominator, normal or not."""
    pairs = [(Fraction(a), Fraction(b)) for a, b in blocks]
    scale = math.lcm(*(p.denominator for pair in pairs for p in pair))
    keyed = []
    for a, b in pairs:
        ia = a.numerator * (scale // a.denominator)
        ib = b.numerator * (scale // b.denominator)
        if ia < ib:
            keyed.append((ia, ib, a, b))
    keyed.sort(key=lambda entry: entry[0])
    merged = []
    for ia, ib, a, b in keyed:
        if ia < 0:
            raise ValueError("intervals live in the nonnegative rationals")
        if merged and ia <= merged[-1][1]:
            last = merged[-1]
            if ib > last[1]:
                last[1], last[3] = ib, b
        else:
            merged.append([ia, ib, a, b])
    return IntervalSet(tuple((a, b) for _, _, a, b in merged))


# normal-form lists as this program writes them, next to raw ones
_NORMAL_BLOCKS = _raw_blocks(nonnegative=True).map(
    lambda blocks: list(IntervalSet.from_blocks(blocks).blocks)
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_NORMAL_BLOCKS, _raw_blocks()))
@example([])
@example([(0, Fraction(1, 3)), (Fraction(1, 2), 2)])  # normal, int endpoints
@example(_ABUTTING)
@example([(0, 1), (Fraction(1, 2), 2)])  # overlapping
@example([(1, 2), (0, Fraction(1, 2))])  # unsorted
@example([(0, 1), (Fraction(1, 3), Fraction(1, 3))])  # degenerate, dropped
@example([(-1, 1)])  # negative start
@example([(Fraction(1, 2), Fraction(-1, 2))])  # negative but degenerate, dropped
def test_from_blocks_matches_sweep_reference(blocks):
    assert _outcome(IntervalSet.from_blocks, blocks) == _outcome(
        _from_blocks_sweep_reference, blocks
    )


def test_decode_scope_shares_repeated_spellings_and_lists():
    # the memo holds p/q spellings only: each list is decoded again, its
    # endpoints shared
    data = [["0/1", "1/2"], ["1/1", "3/2"]]
    with _decode_scope():
        half = _parse_frac("1/2")
        sett = IntervalSet.from_json(data)
        with _decode_scope():  # a nested decode reuses the outer memo
            again = IntervalSet.from_json([list(blk) for blk in data])
        assert _parse_frac("1/2") is half and sett.blocks[0][1] is half
        assert again == sett and again.blocks[1][1] is sett.blocks[1][1]
        respelled = _parse_frac("2/4")
        assert respelled == half and respelled is not half
        assert all(isinstance(value, Fraction) for value in _decode_memo.get().values())
    assert _decode_memo.get() is None
    assert IntervalSet.from_json(data) == sett


_COEFF_FIRST = {"terms": [{"intervals": [["0/1", "1/2"]], "k": 0, "coeff": "2/1"}], "offset": "1/3"}


@pytest.mark.parametrize(
    "reader, data",
    [(IntervalSet.from_json, [[0, 1]]),
     (IntervalSet.from_json, [["1/2", 1], [2, "5/2"]]),
     (CodedReal.from_json, _COEFF_FIRST)],
    ids=["integer-ends", "mixed-ends", "coded-reordered"],
)
def test_other_decodable_shapes_decode_alike_inside_a_scope(reader, data):
    outside = reader(data)
    with _decode_scope():
        inside = reader(data)
        assert inside == outside and inside.to_json() == outside.to_json()
    assert _decode_memo.get() is None


def _terms(intervals):
    return {"offset": "0/1", "terms": [{"coeff": "1/1", "k": 0, "intervals": intervals}]}


@pytest.mark.parametrize(
    "reader, data",
    [(_parse_frac, "1/0"),
     (_parse_frac, "x"),
     (IntervalSet.from_json, [["0/1", "1/2", "1/1"]]),
     (IntervalSet.from_json, [["0/1", "1/0"]]),
     (IntervalSet.from_json, [["-1/2", "1/2"]]),
     (IntervalSet.from_json, [("0/1", "1/2"), 0]),
     (CodedReal.from_json, _terms(0)),
     (CodedReal.from_json, _terms("0/1")),
     (CodedReal.from_json, _terms({"0/1": "1/2"})),
     (CodedReal.from_json, {"offset": "0/1", "terms": 0})],
)
def test_malformed_input_raises_alike_inside_a_scope(reader, data):
    def outcome():
        try:
            reader(data)
        except Exception as exc:
            return type(exc)
        return None

    outside = outcome()
    assert outside is not None
    with _decode_scope():
        assert [outcome(), outcome()] == [outside, outside]
        # only the spellings that parsed are kept; no failing one, no set
        memo = _decode_memo.get()
        assert all(isinstance(value, Fraction) for value in memo.values())
        if isinstance(data, str):
            assert data not in memo
    assert _decode_memo.get() is None


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no integer digit cap before Python 3.10.7")
def test_digit_cap_holds_inside_a_scope():
    from rigidmetrics.metric import FiniteMetric

    long = "7" * 700 + "/3"
    zero = {"offset": "0/1", "terms": []}
    # both entries of the pair spell the long offset, and each is refused
    first, second = {"offset": long, "terms": []}, {"terms": [], "offset": long}
    data = {"points": ["a", "b"], "matrix": [[zero, first], [second, zero]]}
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ResourceError, match="rational too long to read"):
            FiniteMetric.from_json(data)
        with _decode_scope():
            for _ in range(2):
                with pytest.raises(ResourceError):
                    _parse_frac(long)
            assert long not in _decode_memo.get()
    finally:
        sys.set_int_max_str_digits(cap)
    assert _decode_memo.get() is None
    assert FiniteMetric.from_json(data).at(0, 1).rational_value() == Fraction(long)
