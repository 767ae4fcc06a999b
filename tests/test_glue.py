import contextlib
import functools
import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import clustered_metric, mixed_scale_metrics, rational_metric
from rigidmetrics import glue, intervals, metric
from rigidmetrics.coded import (
    GREATER, UNRESOLVED, CodedReal, _signed_sum, as_coded, coded_sum, compare,
)
from rigidmetrics.errors import DomainError, UnresolvedComparison
from rigidmetrics.glue import (
    CERTIFICATE_VERSION,
    Partition,
    amalgamate,
    partition_by_diameter,
    rigidify_full,
    sup_bound_check,
    verify_certificate,
)
from rigidmetrics.intervals import IntervalSet, _decode_memo, _frac_str
from rigidmetrics.metric import FiniteMetric, dumps_canonical
from rigidmetrics.product import tau
from rigidmetrics.registry import (
    RESERVED_GAUGE_ID, HubAllocation, gauge_from_snapshot, read_snapshot,
)
from rigidmetrics.rigidify import subadditive_window
from rigidmetrics.verify import _eval_halving, is_metric, is_strongly_rigid, sup_distance


def _component_sum(comps):
    """The sum of the values of a row's stated components."""
    return _signed_sum((1, CodedReal.from_json(c["value"])) for c in comps)


def test_partition_far_points_become_singletons(rng):
    d = rational_metric(rng, 6)  # distances >= 1
    part = partition_by_diameter(d, Fraction(1, 2))
    assert all(len(b) == 1 for b in part.blocks)
    assert part.hubs == d.points


def test_partition_tight_cluster_single_block(rng):
    d = rational_metric(rng, 5).scaled(Fraction(1, 100))
    part = partition_by_diameter(d, Fraction(1, 10))
    assert len(part.blocks) == 1
    assert part.hubs == (d.points[0],)


def test_partition_two_groups():
    # four points, mutual distance 1, except one far pair at 10
    def dist(i, j):
        return Fraction(10) if (i, j) == (0, 3) else Fraction(1)

    d = FiniteMetric.from_pair_function(["a", "b", "c", "z"], dist)
    part = partition_by_diameter(d, Fraction(3))
    assert len(part.blocks) == 2
    for block in part.blocks:
        sub = d.restrict(block)
        for i, j in sub.pairs():
            assert sub.at(i, j).rational_value() <= 3
    # a point exactly bound / 2 from the seed joins its block
    part = partition_by_diameter(d, Fraction(2))
    assert part.blocks == (("a", "b", "c"), ("z",))


def test_partition_refuses_a_coded_entry():
    # d(b, c) is never read against a seed at this bound, and still refused
    coded = 1 + coded_sum(0, IntervalSet.block(0, 1))
    d = FiniteMetric.from_entries("abc", [[0, 1, 1], [1, 0, coded], [1, coded, 0]])
    with pytest.raises(DomainError, match="rational input"):
        partition_by_diameter(d, Fraction(3))


def test_partition_invariants():
    with pytest.raises(DomainError):
        Partition((("a",), ("b",)), ("a", "a"))
    with pytest.raises(DomainError):
        Partition((("a", "b"), ("b",)), ("a", "b"))


def test_amalgamate_formula():
    part = Partition((("a", "b"), ("c",)), ("a", "c"))
    e1 = FiniteMetric.from_entries(["a", "b"], [[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    e2 = FiniteMetric.from_entries(["c"], [[0]])
    hub = FiniteMetric.from_entries(["a", "c"], [[0, 2], [2, 0]])
    glued = amalgamate(part, [e1, e2], hub)
    assert glued.distance("b", "c").rational_value() == Fraction(5, 2)
    assert glued.distance("a", "c").rational_value() == 2
    # restriction is syntactically exact
    assert glued.distance("a", "b") == e1.distance("a", "b")


def test_amalgamate_single_block_is_identity():
    part = Partition((("a", "b", "c"),), ("b",))
    e = FiniteMetric.from_entries(
        ["a", "b", "c"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
    )
    hub = FiniteMetric.from_entries(["b"], [[0]])
    assert amalgamate(part, [e], hub).restrict(["a", "b", "c"]) == e


def test_amalgamate_rejects_zero_hub_distance():
    part = Partition((("a",), ("b",)), ("a", "b"))
    e1 = FiniteMetric.from_entries(["a"], [[0]])
    e2 = FiniteMetric.from_entries(["b"], [[0]])
    hub = FiniteMetric.from_entries(["a", "b"], [[0, 0], [0, 0]])
    with pytest.raises(DomainError):
        amalgamate(part, [e1, e2], hub)


def test_amalgamate_rejects_a_hub_distance_worth_zero():
    part = Partition((("a",), ("b",)), ("a", "b"))
    e1 = FiniteMetric.from_entries(["a"], [[0]])
    e2 = FiniteMetric.from_entries(["b"], [[0]])
    # <g0,[0,1)> - 2<g1,[0,1)>: not the zero form, but 0
    z = coded_sum(0, IntervalSet.block(0, 1)) - coded_sum(1, IntervalSet.block(0, 1), 2)
    hub = FiniteMetric.from_entries(["a", "b"], [[0, z], [z, 0]])
    with pytest.raises(DomainError, match="positive off the diagonal"):
        amalgamate(part, [e1, e2], hub)


def test_sup_bound_singleton_blocks_zero_defect(rng):
    d = rational_metric(rng, 5)
    part = Partition(tuple((p,) for p in d.points), d.points)
    singletons = [FiniteMetric.from_entries([p], [[0]]) for p in d.points]
    hub = d
    glued = amalgamate(part, singletons, hub)
    assert sup_distance(glued, d).hi == 0
    report = sup_bound_check(d, glued, part, Fraction(1, 4), hub)
    assert report.passed


def test_sup_bound_with_inflated_hub(rng):
    d = rational_metric(rng, 4)
    part = Partition(tuple((p,) for p in d.points), d.points)
    singletons = [FiniteMetric.from_entries([p], [[0]]) for p in d.points]
    inflated = FiniteMetric.from_entries(
        d.points,
        [
            [
                0 if i == j else d.at(i, j).rational_value() + 1
                for j in range(d.size)
            ]
            for i in range(d.size)
        ],
    )
    glued = amalgamate(part, singletons, inflated)
    report = sup_bound_check(d, glued, part, Fraction(1, 4), inflated)
    assert report.passed  # allowance grows with the hub defect


def test_sup_bound_exceeded_names_the_first_pair(rng):
    d = rational_metric(rng, 4)
    part = Partition(tuple((p,) for p in d.points), d.points)
    singletons = [FiniteMetric.from_entries([p], [[0]]) for p in d.points]
    inflated = FiniteMetric.from_pair_function(
        d.points, lambda i, j: d.at(i, j).rational_value() + 2
    )
    glued = amalgamate(part, singletons, inflated)
    # against the uninflated hub the allowance is 4 * 1/4 + 0 = 1 < 2
    report = sup_bound_check(d, glued, part, Fraction(1, 4), d)
    assert report.verdict == "fail"
    assert report.witnesses == ((d.points[0], d.points[1]),)
    assert report.detail == "sup bound exceeded"
    assert sup_bound_check(d, glued, part, Fraction(1, 4), d, 16).precision == 16


def test_sup_bound_reports_precondition_failure(rng):
    d = rational_metric(rng, 4)  # block diameters >= 1
    part = Partition((tuple(d.points),), (d.points[0],))
    hub = FiniteMetric.from_entries([d.points[0]], [[0]])
    glued = amalgamate(part, [d], hub)
    report = sup_bound_check(d, glued, part, Fraction(1, 8), hub)
    assert report.verdict == "fail"
    assert "precondition" in report.detail


def _exact_sup_scan(d, glued, allowance, max_precision):
    """The sup-bound scan without the enclosure prefilter: every pair is
    oriented and compared through the exact engine, in the scan's order;
    the enclosure is rounded as the scan rounds it."""
    sup_lo = sup_hi = Fraction(0)
    for i, j in d.pairs():
        gap = glue._abs_exact(glued.at(i, j) - d.at(i, j), max_precision)
        order = compare(gap, allowance, max_precision)
        if order in (GREATER, UNRESOLVED):
            return ((d.points[i], d.points[j]), order), glue._rounded_out(sup_lo, sup_hi,
                                                                          allowance)
        enc = _eval_halving(gap)
        sup_lo = max(sup_lo, enc.lo)
        sup_hi = max(sup_hi, enc.hi)
    return None, glue._rounded_out(sup_lo, sup_hi, allowance)


def _outcome(scan, *args):
    try:
        return scan(*args)
    except Exception as exc:  # the same exception must come from both scans
        return type(exc), str(exc)


# eval(8) reads indices 0-8 and pads each term by 2^-511.  <g0,[5,6)> first
# hits index 31; <g0,[4/3,7/5)> first hits index 9.  Every rational in
# [1/23, 1/22) sits at Calkin-Wilf depth 22 or more, past the symbolic index
# range, so the exact engine cannot tell <g0,[1/23,1/22)> from 0.
_BELOW_8 = IntervalSet.block(5, 6)
_AT_9 = IntervalSet.block(Fraction(4, 3), Fraction(7, 5))
_DEEP = IntervalSet.block(Fraction(1, 23), Fraction(1, 22))
_TINY = Fraction(1, 1 << 520)
_EPS = Fraction(1, 2)
_UNPLACEABLE = _EPS - coded_sum(0, _DEEP)  # below epsilon by an amount no engine sees
_JUST_ABOVE = _EPS + coded_sum(0, _BELOW_8)
_JUST_BELOW = _EPS - coded_sum(0, _AT_9)
_UNORIENTED = coded_sum(0, _BELOW_8) - _TINY  # eval(8) straddles 0
_OUT_OF_REACH = coded_sum(1 << 21, _BELOW_8)  # no eval at any precision
_GAPS = [
    CodedReal.from_rational(_EPS),
    CodedReal.from_rational(_EPS + _TINY),
    CodedReal.from_rational(_EPS - _TINY),
    CodedReal.from_rational(_TINY),
    _UNPLACEABLE,
    _JUST_ABOVE,
    _JUST_BELOW,
    _EPS - _TINY + coded_sum(0, _AT_9),
    coded_sum(0, _BELOW_8),
    _UNORIENTED,
    coded_sum(0, _DEEP),
    coded_sum(1, _AT_9, Fraction(1, 2)),
    _OUT_OF_REACH,
]
_ALLOWANCES = [
    CodedReal.from_rational(_EPS),
    _EPS + coded_sum(0, _AT_9),
    _EPS - coded_sum(0, _DEEP),
    _EPS + _OUT_OF_REACH,
]


def _shifted(d, shifts):
    values = dict(zip(d.pairs(), shifts))
    return FiniteMetric.from_pair_function(d.points, lambda i, j: d.at(i, j) + values[(i, j)])


@st.composite
def sup_scans(draw):
    """An input metric, an output within or beyond the allowance by amounts
    at and below eval(8)'s resolution, of either sign, and an allowance that
    is a plain ``Fraction`` or coded, as ``sup_bound_check`` passes it."""
    n = draw(st.integers(2, 4))
    count = n * (n - 1) // 2
    d = rational_metric(random.Random(draw(st.integers(0, 99))), n)
    gaps = st.one_of(
        st.fractions(min_value=-1, max_value=1, max_denominator=4).map(CodedReal.from_rational),
        st.sampled_from(_GAPS),
    )
    shifts = [g if draw(st.booleans()) else -g
              for g in draw(st.lists(gaps, min_size=count, max_size=count))]
    allowance = _EPS if draw(st.booleans()) else draw(st.sampled_from(_ALLOWANCES))
    return d, _shifted(d, shifts), allowance


def _scan_case(shifts, allowance=_EPS):
    d = rational_metric(random.Random(0), 3)
    return d, _shifted(d, shifts), allowance


@settings(max_examples=300, deadline=None)
@given(sup_scans(), st.sampled_from([16, 64]))
# a gap equal to epsilon, and one that only the exact engine cannot place
# against it: the prefilter must leave both to the exact path
@example(_scan_case([_EPS, 0, 0]), 64)
@example(_scan_case([0, _UNPLACEABLE, _EPS]), 64)
@example(_scan_case([_UNPLACEABLE, -_UNPLACEABLE, 0], _ALLOWANCES[1]), 64)
# just above and just below epsilon, below eval(8)'s resolution
@example(_scan_case([_EPS - _TINY, -_JUST_ABOVE, -(_EPS + _TINY)]), 64)
@example(_scan_case([_JUST_BELOW, -_JUST_BELOW, coded_sum(0, _BELOW_8)], _ALLOWANCES[2]), 64)
# a gap eval(8) cannot orient, one the exact engine cannot orient either,
# and gaps or an allowance whose eval is out of reach
@example(_scan_case([_UNORIENTED, -coded_sum(0, _DEEP), 0]), 64)
@example(_scan_case([Fraction(1, 4), -_OUT_OF_REACH, 0]), 64)
@example(_scan_case([Fraction(1, 4), 0, 0], _ALLOWANCES[3]), 16)
def test_sup_prefilter_cannot_change_the_scan(case, max_precision):
    d, glued, allowance = case
    assert _outcome(glue._certify_sup_bound, d, glued, allowance, max_precision) == \
        _outcome(_exact_sup_scan, d, glued, allowance, max_precision)


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=0, max_denominator=10 ** 60).filter(lambda x: x < 10 ** 30),
       st.booleans())
@example(Fraction(0), True)
@example(Fraction(1, 3), False)
@example(Fraction((1 << 64) - 1), True)
@example(Fraction(1, 10 ** 97), True)
def test_sup_ends_round_outward_to_64_bits(x, up):
    r = glue._round_dyadic(x, up)
    assert (r >= x) if up else (r <= x)
    m = r.numerator
    assert (m >> ((m & -m).bit_length() - 1) if m else 0).bit_length() <= 64
    # at most one unit in the 64th bit away: the next 64-bit value past r crosses x
    assert abs(r - x) <= x / (1 << 63)


@pytest.mark.parametrize("hi", [Fraction(1, 3), Fraction(1, 10 ** 97), Fraction(1, 2)])
def test_rounded_sup_stays_within_a_rational_allowance(hi):
    # hi rounded up would pass a non-dyadic allowance it equals; it stops there
    enc = glue._rounded_out(hi / 2, hi, hi)
    assert enc.hi == hi and enc.lo <= hi / 2
    # above the allowance, or under a coded one, hi is rounded up as it is
    assert glue._rounded_out(hi / 2, hi, hi / 2).hi >= hi
    assert glue._rounded_out(hi / 2, hi, as_coded(hi) + coded_sum(0, _AT_9)).hi >= hi


def test_rigidify_full_two_points():
    d = FiniteMetric.from_entries(["a", "b"], [[0, 1], [1, 0]])
    out, cert = rigidify_full(d, Fraction(1, 2))
    assert cert.sup_hi <= Fraction(1, 2)
    assert is_strongly_rigid(out).passed
    # the lone distance is its hub value, independent of 1 by a witness that
    # the row does not store
    (row,) = cert.independence
    assert set(row) == {"certificate"} and set(row["certificate"]) == {"left"}
    (comp,) = row["certificate"]["left"]
    assert comp["kind"] == "hub"


def test_rigidify_full_six_points(rng):
    d = rational_metric(rng, 6)
    out, cert = rigidify_full(d, Fraction(1, 2))
    assert is_metric(out).passed
    assert is_strongly_rigid(out).passed
    assert cert.sup_hi <= Fraction(1, 2)
    # row t sums to the entry of pair t
    assert len(cert.independence) == len(list(out.pairs()))
    for row, (i, j) in zip(cert.independence, out.pairs()):
        assert _component_sum(row["certificate"]["left"]) == out.at(i, j)
    blob = json.loads(json.dumps(cert.to_json(out), sort_keys=True))
    assert verify_certificate(blob).passed


def test_rigidify_full_exercises_blocks(rng):
    d = clustered_metric(rng, 3, 2)
    out, cert = rigidify_full(d, Fraction(1))
    assert len(cert.partition.blocks) < d.size  # at least one multi-point block
    assert is_metric(out).passed
    assert is_strongly_rigid(out).passed
    assert cert.sup_hi <= 1
    # paths through a hub give exact additive decompositions, so the glued
    # metric is not strictly triangular; pairwise independence still holds
    blob = json.loads(json.dumps(cert.to_json(out)))
    assert verify_certificate(blob).passed


@settings(max_examples=30, deadline=None)
@given(mixed_scale_metrics())
def test_rigidify_full_on_mixed_scales(case):
    d, epsilon = case
    assert is_metric(d).passed
    glued, cert = rigidify_full(d, epsilon)
    assert any(len(block) >= 2 for block in cert.partition.blocks)
    report = verify_certificate(json.loads(dumps_canonical(cert.to_json(glued))))
    assert report.passed, report.detail
    assert sup_distance(glued, d).hi <= epsilon
    assert is_strongly_rigid(glued).passed


def test_rigidify_full_replaces_strongly_rigid_input():
    d = FiniteMetric.from_entries(
        ["a", "b", "c"],
        [
            [0, 1, Fraction(11, 10)],
            [1, 0, Fraction(6, 5)],
            [Fraction(11, 10), Fraction(6, 5), 0],
        ],
    )
    assert is_strongly_rigid(d).passed
    out, cert = rigidify_full(d, Fraction(1, 4))
    assert out != d
    assert cert.sup_hi <= Fraction(1, 4)


def _scales_by_halving(epsilon):
    """The ladder as it was found before its bit-length form: halve from
    ``2^0`` until ``2^-k <= epsilon / 5``, one comparison per bit."""
    eta = epsilon / 5
    k = 0
    while Fraction(1, 1 << k) > eta:
        k += 1
    return eta, k


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=0, max_denominator=10 ** 80).filter(lambda x: 0 < x < 10 ** 40))
@example(Fraction(5))
@example(Fraction(5, 2))
@example(Fraction(5, 1 << 40))
@example(Fraction(5, (1 << 40) + 1))
@example(Fraction(1, 10 ** 400))
def test_scales_match_the_halving_loop(epsilon):
    assert glue._scales(epsilon) == _scales_by_halving(epsilon)


def test_rigidify_full_guards():
    d = FiniteMetric.from_entries(["a"], [[0]])
    with pytest.raises(DomainError):
        rigidify_full(d, Fraction(1, 2))
    two = FiniteMetric.from_entries(["a", "b"], [[0, 1], [1, 0]])
    with pytest.raises(DomainError):
        rigidify_full(two, Fraction(0))
    coded = coded_sum(0, IntervalSet.block(0, 1))
    mixed = FiniteMetric.from_entries(["a", "b"], [[0, coded], [coded, 0]])
    with pytest.raises(DomainError):
        rigidify_full(mixed, Fraction(1, 2))


@pytest.mark.parametrize(
    "name, stub, message",
    [("find_interval_trace_witness", lambda sets: None,
      "no independent-of-1 witness for ('p0', 'p1')"),
     ("multiset_key", lambda side: (), "equal component multisets for")],
)
def test_build_refuses_a_distance_it_cannot_certify(monkeypatch, name, stub, message):
    d = rational_metric(random.Random(3), 4)
    monkeypatch.setattr(glue, name, stub)
    with pytest.raises(UnresolvedComparison) as raised:
        rigidify_full(d, Fraction(1, 2))
    assert str(raised.value).startswith(message)


def test_certificate_tamper_detection(rng):
    d = rational_metric(rng, 4)
    out, cert = rigidify_full(d, Fraction(1, 2))
    blob = json.loads(json.dumps(cert.to_json(out)))
    blob["sup_bound"]["achieved_hi"] = "7/1"
    assert not verify_certificate(blob).passed


def test_certificate_replay_detects_forged_draws(rng):
    d = clustered_metric(rng, 3, 2)
    out, cert = rigidify_full(d, Fraction(1, 2))
    blob = json.dumps(cert.to_json(out), sort_keys=True)
    assert verify_certificate(json.loads(blob)).passed

    forged = json.loads(blob)
    for gauge in forged["registry"]["gauges"].values():
        if gauge["draws"]:
            key = sorted(gauge["draws"])[0]
            gauge["draws"][key] = "999/1000"
            break
    report = verify_certificate(forged)
    assert report.verdict == "fail" and "replay" in report.detail

    forged = json.loads(blob)
    forged["registry"]["hubs"][0] = "17/5"
    report = verify_certificate(forged)
    assert report.verdict == "fail" and "replay" in report.detail

    forged = json.loads(blob)
    for gauge in forged["registry"]["gauges"].values():
        gauge["draws"] = {}
    report = verify_certificate(forged)
    assert report.verdict == "fail"


def test_unit_independence_records_cover_every_pair(rng):
    for d in (rational_metric(rng, 5), clustered_metric(rng, 2, 3)):
        out, cert = rigidify_full(d, Fraction(1, 2))
        pairs = out.size * (out.size - 1) // 2
        assert len(cert.independence) == pairs


@pytest.fixture(scope="module")
def certificates():
    """Canonical certificate text of a spread and a clustered input."""
    rng = random.Random(3)
    out = {}
    for name, d in (("spread", rational_metric(rng, 5)), ("clustered", clustered_metric(rng, 3, 2))):
        glued, cert = rigidify_full(d, Fraction(1, 2))
        out[name] = json.dumps(cert.to_json(glued), sort_keys=True)
    return out


def _rows(blob):
    return blob["independence"]


def _pairs(blob):
    """The metric's pairs in pair order: row t belongs to pair t."""
    points = blob["metric"]["points"]
    return [(a, b) for i, a in enumerate(points) for b in points[i + 1:]]


def _empty_list(blob):
    blob["independence"] = []


def _dropped_record(blob):
    _rows(blob).pop()


def _duplicated_record(blob):
    _rows(blob).append(_rows(blob)[0])


def _swapped_rows(blob):
    rows = _rows(blob)
    rows[0], rows[1] = rows[1], rows[0]


def _swapped_metric(blob):
    # same points, pairwise distinct rational distances in [1, 2]: a metric
    # that passes the strong rigidity recheck but is not Q-independent
    points = blob["metric"]["points"]
    pairs = [(i, j) for i in range(len(points)) for j in range(i + 1, len(points))]
    value = {pair: 1 + Fraction(t + 1, 100) for t, pair in enumerate(pairs)}
    swapped = FiniteMetric.from_pair_function(points, lambda i, j: value[(i, j)])
    blob["metric"] = swapped.to_json()


def _restate_sup(blob):
    """Claim the sup bound as the checker recomputes it."""
    _, sup = glue._certify_sup_bound(
        FiniteMetric.from_json(blob["input"]), FiniteMetric.from_json(blob["metric"]),
        Fraction(blob["sup_bound"]["epsilon"]), 64,
    )
    blob["sup_bound"].update(achieved_lo=_frac_str(sup.lo), achieved_hi=_frac_str(sup.hi))


def _copied_row(blob, extra=()):
    """Row 1 takes row 0's components, followed by ``extra``; the metric and
    input entries of pair 1 take pair 0's, and the claimed sup is restated,
    so that row passes every check of its own."""
    first, second = _rows(blob)[:2]
    second["certificate"] = {**first["certificate"],
                             "left": first["certificate"]["left"] + list(extra)}
    one, two = _pairs(blob)[:2]
    for name in ("metric", "input"):
        _set_entry(blob, name, two, _entry(blob, name, one))
    _restate_sup(blob)


def _equal_multisets(blob):
    _copied_row(blob)


_ZERO = {"offset": "0/1", "terms": []}


def _zero_padded_row(blob):
    # a zero summand changes row 1's multiset but not its sum; this one has
    # the earlier format's "zero" kind
    _copied_row(blob, [{"kind": "zero", "gauge": None, "hub_index": None, "detail": [],
                        "value": _ZERO}])


def _zero_block_padded_row(blob):
    # a zero block value on a registered gauge that row 0 does not use, which
    # replays as e(x, x): without the rule against zero components only the
    # strong-rigidity recheck would catch the equal distances
    x = blob["metric"]["points"][0]
    gauge = max(int(g) for g in blob["registry"]["gauges"])
    _copied_row(blob, [{"kind": "block", "gauge": gauge, "detail": [x, x], "value": _ZERO}])


def _zeroed_sup(blob):
    blob["sup_bound"]["achieved_hi"] = "0/1"


def _shifted_input(blob):
    first = blob["input"]["pairs"][0]
    first["offset"] = _frac_str(Fraction(first["offset"]) + 1)


def _renamed_input(blob):
    blob["input"]["points"][0] = "elsewhere"


def _pair_position(blob, name, pair):
    """The position of ``pair``, in either order, in the pair order of
    ``blob[name]``."""
    points = blob[name]["points"]
    a, b = sorted(points.index(x) for x in pair)
    return a * len(points) - a * (a + 1) // 2 + b - a - 1


def _entry(blob, name, pair):
    return CodedReal.from_json(blob[name]["pairs"][_pair_position(blob, name, pair)])


def _set_entry(blob, name, pair, value):
    blob[name]["pairs"][_pair_position(blob, name, pair)] = value.to_json()


def _ladder(blob):
    """The ladder the checker derives from the certificate's epsilon."""
    return glue._scales(Fraction(blob["sup_bound"]["epsilon"]))[1]


def _partition(blob):
    """The partition the checker derives from the certificate's input and epsilon."""
    eta, _ = glue._scales(Fraction(blob["sup_bound"]["epsilon"]))
    return partition_by_diameter(FiniteMetric.from_json(blob["input"]), eta)


def _hub_pair_rows(blob):
    """The pairs of two hubs with their rows, whose only nonzero component is
    the hub value."""
    hubs = set(_partition(blob).hubs)
    return [(pair, row) for pair, row in zip(_pairs(blob), _rows(blob)) if set(pair) <= hubs]


def _hub_of(row):
    return next((c for c in row["certificate"]["left"] if c["kind"] == "hub"), None)


def _base_index(blob):
    """The allocation index of hub pair 0, the least index a row names."""
    return min(c["hub_index"] for r in _rows(blob) for c in r["certificate"]["left"]
               if c["kind"] == "hub")


def _hub_records(blob):
    """Each hub record as the checker derives it from its stated ``p``: hub
    pair ``t`` has index ``base + t``, words ``(2t,)`` and ``(2t+1,)`` and
    ``q = 2^(k - index)``."""
    k, base = _ladder(blob), _base_index(blob)
    return [HubAllocation(Fraction(p), Fraction(2) ** (k - base - t), ((2 * t,), (2 * t + 1,)))
            for t, p in enumerate(blob["registry"]["hubs"])]


def _hub_record(blob, index):
    return _hub_records(blob)[index - _base_index(blob)]


def _reallocate_hub(blob, index, p, value, input_shift):
    """Restate hub allocation ``index`` with ``p`` (None keeps it) and carry
    its new value ``value`` through every row that names it: its hub
    component, its metric entry (the sum of its components) and its input
    entry (moved by ``input_shift``).  The claimed sup is then restated as
    the checker recomputes it, so only the registry is at odds."""
    if p is not None:
        blob["registry"]["hubs"][index - _base_index(blob)] = _frac_str(p)
    for pair, row in zip(_pairs(blob), _rows(blob)):
        hub = _hub_of(row)
        if hub is None or hub["hub_index"] != index:
            continue
        hub["value"] = value.to_json()
        _set_entry(blob, "metric", pair, _component_sum(row["certificate"]["left"]))
        _set_entry(blob, "input", pair, _entry(blob, "input", pair) + input_shift)
    _restate_sup(blob)


def _shared_word_pair(blob):
    """The second hub pair's distance becomes twice the first's, a
    Q-dependence: its hub component takes the first hub's value doubled, on
    the first hub's word pair, and its input entry doubles too.  No record
    can state a word pair: the checker places the second hub on its own."""
    (one_pair, first), (two_pair, second) = _hub_pair_rows(blob)[:2]
    shift = 2 * _entry(blob, "input", one_pair) - _entry(blob, "input", two_pair)
    _reallocate_hub(blob, _hub_of(second)["hub_index"], None,
                    CodedReal.from_json(_hub_of(first)["value"]) * 2, shift)


def _repeated_draws(blob):
    """The second hub's basis replays to the first's: the reserved-gauge
    draws of its words, ``(2,)`` and ``(3,)``, are copied from those of
    ``(0,)`` and ``(1,)``.  Its value, its own ``p`` plus its own ``q`` (half
    the first's) times that basis, is carried through its rows, so its
    distance is half the first's plus a rational: a Q-dependence."""
    (_, first), (_, second) = _hub_pair_rows(blob)[:2]
    draws = blob["registry"]["gauges"]["0"]["draws"]
    for level in (0, 1):
        draws[f"{level}:2:3"] = draws[f"{level}:0:1"]
    one, two = _hub_of(first)["hub_index"], _hub_of(second)["hub_index"]
    p_one, p_two = _hub_record(blob, one).p, _hub_record(blob, two).p
    value = (CodedReal.from_json(_hub_of(first)["value"]) - p_one) * Fraction(1, 2) + p_two
    _reallocate_hub(blob, two, None, value, 0)


@pytest.mark.parametrize("kind", ["spread", "clustered"])
@pytest.mark.parametrize(
    "forge",
    [_empty_list, _dropped_record, _duplicated_record, _swapped_rows, _swapped_metric,
     _equal_multisets,
     _zero_padded_row, _zero_block_padded_row, _zeroed_sup, _shifted_input,
     _renamed_input, _shared_word_pair, _repeated_draws],
)
def test_certificate_forgeries_fail(certificates, kind, forge):
    blob = json.loads(certificates[kind])
    assert verify_certificate(blob).passed
    forge(blob)
    assert verify_certificate(blob).verdict == "fail"


@pytest.mark.parametrize(
    "forge, detail",
    # a row is what the construction derives for its pair, so an edited row
    # fails its replay before the sum, the hypotheses or the multiset pass
    [(_swapped_rows, "component replay failed"),
     (_equal_multisets, "component replay failed"),
     (_zero_padded_row, "component replay failed"),
     (_zero_block_padded_row, "component replay failed"),
     (_zeroed_sup, "claimed sup bound"),
     (_shifted_input, "sup bound exceeded"),
     # the rows derived from the input name the new label
     (_renamed_input, "component replay failed")],
)
def test_forgeries_fail_the_check_aimed_at(certificates, forge, detail):
    blob = json.loads(certificates["spread"])
    forge(blob)
    report = verify_certificate(blob)
    assert report.verdict == "fail" and detail in report.detail
    if forge is _swapped_rows:
        assert report.witnesses == (_pairs(blob)[0],)
    if forge in (_equal_multisets, _zero_padded_row, _zero_block_padded_row):
        assert report.witnesses == (_pairs(blob)[1],)


@pytest.mark.parametrize(
    "name, stub, detail, witnesses",
    [("tagged_sum_holds", lambda side, gauges: False, "independence hypotheses failed", 1),
     ("multiset_key", lambda side: (), "equal component multisets", 2)],
)
def test_the_row_pass_names_the_first_failing_pair(
    certificates, monkeypatch, name, stub, detail, witnesses
):
    # the builder's row pass, run by the checker on the derived components
    blob = json.loads(certificates["clustered"])
    monkeypatch.setattr(glue, name, stub)
    report = verify_certificate(blob)
    assert report.verdict == "fail" and report.detail == detail
    assert report.witnesses == tuple(_pairs(blob)[:witnesses])


def _unused_gauge(blob):
    gauges = blob["registry"]["gauges"]
    gauges[str(max(int(g) for g in gauges) + 1)] = {"draws": {}}


def _unused_hub_record(blob):
    # a record past the last hub pair
    hubs = blob["registry"]["hubs"]
    hubs.append(hubs[-1])


def _missing_hub_record(blob):
    blob["registry"]["hubs"].pop()


def _swapped_hub_keys(blob):
    # a record's position is its key: hub pair t takes the t-th p
    hubs = blob["registry"]["hubs"]
    hubs[0], hubs[1] = hubs[1], hubs[0]


def _other_ladder(blob):
    # epsilon halved: the registry was drawn at the ladder above
    sup = blob["sup_bound"]
    sup["epsilon"] = _frac_str(Fraction(sup["epsilon"]) / 2)


def _remote_ladder(blob):
    # an epsilon at a ladder past 13 000, whose hub windows no record meets
    blob["sup_bound"]["epsilon"] = f"1/{10 ** 4000}"


def _remote_hub_p(blob):
    # window N = 2 * 10^1001 would take 2^N to build; the record fails first
    blob["registry"]["hubs"][0] = f"{10 ** 1000}/1"


@pytest.mark.parametrize("kind", ["spread", "clustered"])
@pytest.mark.parametrize(
    "forge",
    [_unused_gauge, _unused_hub_record, _missing_hub_record,
     _swapped_hub_keys, _other_ladder, _remote_ladder, _remote_hub_p],
)
def test_parts_off_the_allocation_rule_fail_the_replay(certificates, kind, forge):
    # the checker derives the ladder and the partition from epsilon and the
    # input, allocates the gauges and hub records by the builder's rules, and
    # finds these at odds with them
    blob = json.loads(certificates[kind])
    forge(blob)
    report = verify_certificate(blob)
    assert report.verdict == "fail" and report.detail == "component replay failed"


@pytest.fixture(scope="module")
def straight_certificate():
    """The certificate of a, b, c at distances 1, 1 and 2: its hub window
    integers 20, 40 and 20 meet subadditivity with equality."""
    d = FiniteMetric.from_entries("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    glued, cert = rigidify_full(d, Fraction(1, 2))
    return json.dumps(cert.to_json(glued), sort_keys=True)


def _moved_hub_p(blob, shifts, move_input):
    """Hub pair ``t``'s ``p`` moves by ``shifts[t]``, its value with it, in
    every row and metric entry; with ``move_input`` the input entry too."""
    for (pair, row), shift in zip(_hub_pair_rows(blob), shifts):
        hub = _hub_of(row)
        record = _hub_record(blob, hub["hub_index"])
        _reallocate_hub(blob, hub["hub_index"], record.p + shift,
                        CodedReal.from_json(hub["value"]) + shift, shift if move_input else 0)


def test_hub_values_outside_their_windows_fail(straight_certificate):
    # the three hub values moved by -1/10, +1/10 and -1/10, with the metric
    # and the claimed sup restated: d(a, c) > d(a, b) + d(b, c)
    blob = json.loads(straight_certificate)
    assert verify_certificate(blob).passed
    _moved_hub_p(blob, [Fraction(-1, 10), Fraction(1, 10), Fraction(-1, 10)], False)
    assert not is_metric(FiniteMetric.from_json(blob["metric"])).passed
    eta_h, k = Fraction(1, 20), _ladder(blob)
    assert all(glue._hub_window_index(a, eta_h, k) is None for a in _hub_records(blob))
    report = verify_certificate(blob)
    assert report.verdict == "fail" and report.detail == "component replay failed"
    # d(a, b) moved to just above 20 * eta_h, below its window: the window
    # integers stay subadditive, so only the window rule refuses it
    blob = json.loads(straight_certificate)
    p = _hub_records(blob)[0].p
    _moved_hub_p(blob, [20 * eta_h - p, 0, 0], True)
    assert glue._hub_window_index(_hub_records(blob)[0], eta_h, k) is None
    report = verify_certificate(blob)
    assert report.verdict == "fail" and report.detail == "component replay failed"


def test_hub_window_integers_must_be_subadditive(straight_certificate):
    # d(a, c) moves into the middle of window 41 > 20 + 20, input entry and
    # all: each record sits in its window, yet d(a, c) > d(a, b) + d(b, c)
    blob = json.loads(straight_certificate)
    eta_h, k = Fraction(1, 20), _ladder(blob)
    lo, hi = subadditive_window(41)
    (_, _), (_, ac), _ = _hub_pair_rows(blob)
    p = _hub_record(blob, _hub_of(ac)["hub_index"]).p
    _moved_hub_p(blob, [0, eta_h * (lo + hi) / 2 - p, 0], True)
    assert not is_metric(FiniteMetric.from_json(blob["metric"])).passed
    assert [glue._hub_window_index(a, eta_h, k) for a in _hub_records(blob)] == [20, 41, 20]
    report = verify_certificate(blob)
    assert report.verdict == "fail" and report.detail == "component replay failed"


def test_a_hub_value_in_the_dyadic_window_of_its_integer_fails(straight_certificate):
    # d(b, c) moves, input entry and all, into the middle of the dyadic window
    # (20 + 2^-10, 20 + 2^-9) * eta_h, and its fuzz q * basis < 2^-20 keeps
    # its whole value there.  That window lies below (20 + 1/22, 20 + 1/21) *
    # eta_h, the window of integer 20, and the metric stays a metric, so only
    # the window rule refuses the record.
    blob = json.loads(straight_certificate)
    eta_h, k = Fraction(1, 20), _ladder(blob)
    lo, hi = eta_h * (20 + Fraction(1, 1 << 10)), eta_h * (20 + Fraction(1, 1 << 9))
    *_, (_, bc) = _hub_pair_rows(blob)
    hub = _hub_of(bc)
    old = _hub_record(blob, hub["hub_index"])
    assert old.q * Fraction(1, 1 << k) <= Fraction(1, 1 << 20)
    p = (lo + hi) / 2
    value = CodedReal.from_json(hub["value"]) + (p - old.p)
    assert lo < value.eval(4).lo and value.eval(4).hi < hi
    _reallocate_hub(blob, hub["hub_index"], p, value, p - old.p)
    assert is_metric(FiniteMetric.from_json(blob["metric"])).passed
    assert glue._hub_window_index(_hub_record(blob, hub["hub_index"]), eta_h, k) is None
    report = verify_certificate(blob)
    assert report.verdict == "fail" and report.detail == "component replay failed"


@pytest.mark.parametrize("kind", ["spread", "clustered"])
def test_verify_certificate_spells_each_derived_value_once(certificates, kind, monkeypatch):
    # a row's components and their metric entries are shared objects, which
    # the check spells once each
    blob = json.loads(certificates[kind])
    spelled = []
    to_json = CodedReal.to_json
    monkeypatch.setattr(CodedReal, "to_json", lambda self: spelled.append(id(self)) or to_json(self))
    assert verify_certificate(blob).passed
    assert spelled and len(spelled) == len(set(spelled))


def _single_block_metric():
    return FiniteMetric.from_entries("abc", [
        [0, Fraction(1, 100), Fraction(1, 80)],
        [Fraction(1, 100), 0, Fraction(1, 90)],
        [Fraction(1, 80), Fraction(1, 90), 0],
    ])


def test_a_single_block_certificate_passes():
    # one block: one gauge, no hub record, and no hub pair to replay
    glued, cert = rigidify_full(_single_block_metric(), Fraction(1, 2))
    assert cert.partition.blocks == (("a", "b", "c"),)
    assert cert.registry_snapshot["hubs"] == {}
    assert all(len(row["certificate"]["left"]) == 1 for row in cert.independence)
    report = verify_certificate(json.loads(dumps_canonical(cert.to_json(glued))))
    assert report.passed, report.detail


@pytest.mark.parametrize(
    "kind, forge, detail",
    [("spread", _repeated_draws, "gauge draw is repeated"),
     ("clustered", _repeated_draws, "gauge draw is repeated")],
)
def test_registry_forgeries_fail_the_invariant_aimed_at(certificates, kind, forge, detail):
    blob = json.loads(certificates[kind])
    assert verify_certificate(blob).passed
    forge(blob)
    report = verify_certificate(blob)
    assert report.verdict == "fail" and "registry invariant" in report.detail
    assert detail in report.detail


def test_hub_components_name_their_record_by_an_integer(certificates):
    # a row is compared as JSON with the derived one, so a hub index spelled
    # as a string is another row
    blob = json.loads(certificates["spread"])
    for row in _rows(blob):
        hub = _hub_of(row)
        if hub is not None:
            hub["hub_index"] = str(hub["hub_index"])
    report = verify_certificate(blob)
    assert report.verdict == "fail" and report.detail == "component replay failed"
    assert report.witnesses == (_pairs(blob)[0],)


def test_a_hub_component_without_an_index_is_refused(certificates):
    # the second hub pair's component drops its index and takes twice the
    # first hub's value; with no record to replay against, the distance
    # d(second) = 2 d(first) would pass every other check
    blob = json.loads(certificates["spread"])
    (one_pair, first), (two_pair, second) = _hub_pair_rows(blob)[:2]
    index = _hub_of(second)["hub_index"]
    shift = 2 * _entry(blob, "input", one_pair) - _entry(blob, "input", two_pair)
    _reallocate_hub(blob, index, None, CodedReal.from_json(_hub_of(first)["value"]) * 2, shift)
    for row in _rows(blob):
        hub = _hub_of(row)
        if hub is not None and hub["hub_index"] == index:
            hub["hub_index"] = None
    forged = FiniteMetric.from_json(blob["metric"])
    assert forged.distance(*two_pair) == forged.distance(*one_pair) * 2
    report = verify_certificate(blob)
    assert report.verdict == "fail" and report.detail == "component replay failed"
    assert report.witnesses == (two_pair,)


def _retagged_to_the_reserved_gauge(scaled_hub):
    """Blocks {a, b} and {c}; block {a, b}'s components are retagged with the
    reserved gauge 0, whose letters (0, 1) replay to the hub's basis, and with
    ``scaled_hub`` the hub becomes 32 times that basis, its ``p`` stated 0:
    d(a, c) = 32 d(a, b).  The metric and input entries and the claimed sup
    are restated."""
    d = FiniteMetric.from_entries(
        "abc", [[0, Fraction(1, 40), 1], [Fraction(1, 40), 0, 1], [1, 1, 0]]
    )
    glued, cert = rigidify_full(d, Fraction(1, 2))
    blob = json.loads(json.dumps(cert.to_json(glued)))
    assert cert.partition.blocks == (("a", "b"), ("c",))
    (block_ab,) = _rows(blob)[0]["certificate"]["left"]
    gauge = block_ab["gauge"]
    assert len(blob["registry"]["hubs"]) == 1
    reserved = gauge_from_snapshot(RESERVED_GAUGE_ID, blob["registry"])
    basis = tau(reserved, cert.k, (0,), (1,))
    if scaled_hub:
        blob["registry"]["hubs"] = ["0/1"]
    for pair, row in zip(_pairs(blob), _rows(blob)):
        for comp in row["certificate"]["left"]:
            if comp["kind"] == "block" and comp["gauge"] == gauge:
                comp.update(gauge=0, value=basis.to_json())
            elif comp["kind"] == "hub" and scaled_hub:
                comp["value"] = (basis * 32).to_json()
        value = _component_sum(row["certificate"]["left"])
        _set_entry(blob, "metric", pair, value)
        # the input moves to the midpoint of an enclosure of the new entry
        enc = value.eval(4)
        mid = CodedReal.from_rational((enc.lo + enc.hi) / 2)
        _set_entry(blob, "input", pair, mid)
    _restate_sup(blob)
    forged = FiniteMetric.from_json(blob["metric"])
    assert (forged.distance("a", "c") == forged.distance("a", "b") * 32) == scaled_hub
    return blob


def test_the_reserved_gauge_tags_no_block_component():
    # block {a, b} takes the first gauge other than 0, by rule, so its row
    # fails the replay
    report = verify_certificate(_retagged_to_the_reserved_gauge(scaled_hub=False))
    assert report.verdict == "fail" and report.detail == "component replay failed"
    assert report.witnesses == (("a", "b"),)
    # a hub value of 32 * basis has p = 0, below every hub window, and fails
    # before any row is compared
    report = verify_certificate(_retagged_to_the_reserved_gauge(scaled_hub=True))
    assert report.verdict == "fail" and report.detail == "component replay failed"
    assert report.witnesses == ()


def test_draws_must_lie_in_their_level(certificates):
    blob = json.loads(certificates["clustered"])
    draws = blob["registry"]["gauges"]["1"]["draws"]
    key = next(key for key in sorted(draws) if key.startswith("1:"))
    draws[key] = "99/10"
    report = verify_certificate(blob)
    assert report.verdict == "fail" and "lies outside level 1" in report.detail


def test_unit_witness_must_cover_every_index_set_of_its_row(certificates, monkeypatch):
    # the checker searches each row's window over the distinct index sets of
    # all its components
    blob = json.loads(certificates["clustered"])
    searched = []
    real_find = glue.find_interval_trace_witness
    monkeypatch.setattr(glue, "find_interval_trace_witness",
                        lambda sets: searched.append(sets) or real_find(sets))
    assert verify_certificate(blob).passed
    expected = []
    for row in _rows(blob):
        terms = [t for c in row["certificate"]["left"] for t in c["value"]["terms"]]
        expected.append(tuple(dict.fromkeys(IntervalSet.from_json(t["intervals"]) for t in terms)))
    assert searched == expected
    assert any(len(sets) >= 3 for sets in searched)


def test_a_window_that_fails_its_verification_is_not_a_witness(certificates, monkeypatch):
    blob = json.loads(certificates["spread"])
    monkeypatch.setattr(glue, "find_interval_trace_witness", lambda sets: None)
    report = verify_certificate(blob)
    assert report.verdict == "fail" and report.detail == "no independent-of-1 witness"
    assert report.witnesses == (_pairs(blob)[0],)


def test_hub_allocations_hold_only_the_replayed_fields(certificates):
    # each fact is stated once: no restated index, ladder, basis, words, q,
    # pair label or partition, and no null tag; a hub record is its p
    for text in certificates.values():
        blob = json.loads(text)
        assert set(blob) == {"version", "input", "metric", "registry", "independence",
                             "sup_bound"}
        snapshot = blob["registry"]
        assert set(snapshot) == {"seed", "gauges", "hubs"}
        assert snapshot["hubs"] and all(isinstance(p, str) for p in snapshot["hubs"])
        assert all(set(gauge) == {"draws"} for gauge in snapshot["gauges"].values())
        for row in _rows(blob):
            assert set(row) == {"certificate"} and set(row["certificate"]) == {"left"}
            for comp in row["certificate"]["left"]:
                tag = "gauge" if comp["kind"] == "block" else "hub_index"
                assert set(comp) == {"kind", tag, "detail", "value"}
                assert comp[tag] is not None


@pytest.mark.parametrize("kind", ["spread", "clustered"])
def test_certificate_with_the_dropped_fields_is_refused(certificates, kind):
    # an earlier writer also put each hub's value and target and an empty
    # "streams" into the snapshot; no version-6 writer does: a hub record is
    # its p alone, and the registry is not spelled the way the writer spells it
    blob = json.loads(certificates[kind])
    values = {c["hub_index"]: c["value"] for r in _rows(blob) for c in r["certificate"]["left"]
              if c["kind"] == "hub"}
    values = [values[i] for i in sorted(values)]
    hubs = blob["registry"]["hubs"]
    assert len(values) == len(hubs)
    blob["registry"]["streams"] = {}
    with pytest.raises(ValueError, match="certificate part registry is not spelled"):
        verify_certificate(blob)
    hubs[:] = [{"p": p, "value": v, "target": p} for p, v in zip(hubs, values)]
    with pytest.raises(ValueError, match="hubs must be a list of p/q strings"):
        verify_certificate(blob)


# 1 to 5 are earlier formats, and no reader for any is kept; a version must
# be a JSON integer: 6.0 and "6" are not 6, nor true 1
@pytest.mark.parametrize("version", [None, 0, 1, 2, 3, "4", 4.0, "5", 5.0, "6", 6.0, True])
def test_other_certificate_versions_are_refused(certificates, version):
    blob = json.loads(certificates["spread"])
    assert blob["version"] == CERTIFICATE_VERSION
    if version is None:
        del blob["version"]
    else:
        blob["version"] = version
    with pytest.raises(ValueError, match="unsupported certificate version"):
        verify_certificate(blob)


@pytest.mark.parametrize("kind", ["spread", "clustered"])
def test_a_coded_input_fails_the_replay(certificates, kind):
    # no writer states a coded input: the partition is derived from rational
    # distances only, so an input entry 2^-40-odd off its rational fails
    blob = json.loads(certificates[kind])
    pair = _pairs(blob)[0]
    _set_entry(blob, "input", pair,
               _entry(blob, "input", pair) + coded_sum(40, IntervalSet.block(0, 1)))
    report = verify_certificate(blob)
    assert (report.verdict, report.detail) == ("fail", "component replay failed")


@pytest.fixture(scope="module")
def integer_labelled():
    """Certificate text of a spread and a clustered input labelled 1, 2, ..."""
    rng = random.Random(5)
    out = {}
    for name, d in (("spread", rational_metric(rng, 3)), ("clustered", clustered_metric(rng, 2, 2))):
        d = FiniteMetric(tuple(range(1, d.size + 1)), d.matrix)
        glued, cert = rigidify_full(d, Fraction(1, 2))
        out[name] = json.dumps(cert.to_json(glued))
    return out


def _floated(blob, in_rows, in_metric):
    """The labels ``in_rows`` as floats in every row's details, and the
    labels ``in_metric`` as floats in the metric's points."""
    for row in _rows(blob):
        for c in row["certificate"]["left"]:
            c["detail"] = [float(x) if x in in_rows else x for x in c["detail"]]
    points = blob["metric"]["points"]
    points[:] = [float(x) if x in in_metric else x for x in points]


def _float_labels(blob):
    # every label as a float in the rows, and all but the last in the metric
    points = blob["metric"]["points"]
    _floated(blob, set(points), set(points[:-1]))


def _float_hub(blob):
    # the first hub's label as a float wherever the certificate names it
    hub = {_partition(blob).hubs[0]}
    _floated(blob, hub, hub)


def _true_point(blob):
    points = blob["metric"]["points"]
    points[points.index(1)] = True


def _float_details(blob):
    for c in _rows(blob)[0]["certificate"]["left"]:
        c["detail"] = [float(x) for x in c["detail"]]


@pytest.mark.parametrize("kind", ["spread", "clustered"])
@pytest.mark.parametrize(
    "forge, detail",
    [(_float_labels, "component replay failed"),
     (_float_hub, "component replay failed"),
     (_true_point, "input and metric have different points"),
     (_float_details, "component replay failed")],
)
def test_a_label_respelled_as_another_type_fails(integer_labelled, kind, forge, detail):
    # 1.0 == 1 and true == 1 in JSON's Python reading, so labels compare by type too
    blob = json.loads(integer_labelled[kind])
    assert verify_certificate(blob).passed
    forge(blob)
    report = verify_certificate(blob)
    assert report.verdict == "fail" and report.detail == detail


def test_swapped_metric_fails_the_binding(certificates):
    blob = json.loads(certificates["clustered"])
    _swapped_metric(blob)
    assert is_strongly_rigid(FiniteMetric.from_json(blob["metric"])).passed
    report = verify_certificate(blob)
    assert report.verdict == "fail" and "sum to the metric entry" in report.detail


def test_coverage_failure_names_the_missing_pair(certificates):
    # row t belongs to pair t, so a dropped row is the first pair whose row
    # differs from the derived one: its own, or the last pair's
    for position in (-1, 3):
        blob = json.loads(certificates["spread"])
        _rows(blob).pop(position)
        report = verify_certificate(blob)
        assert report.verdict == "fail" and report.detail == "component replay failed"
        assert report.witnesses == (_pairs(blob)[position],)
    # an extra row leaves no pair uncovered
    blob = json.loads(certificates["spread"])
    _duplicated_record(blob)
    report = verify_certificate(blob)
    assert report.verdict == "fail" and report.witnesses == ()
    assert report.detail == "component replay failed"


def test_replay_runs_tau_once_per_distinct_component(certificates, monkeypatch):
    blob = json.loads(certificates["clustered"])
    distinct = {
        repr(c)
        for r in _rows(blob)
        for c in r["certificate"]["left"]
        if c["kind"] in ("block", "hub") and c["value"]["terms"]
    }
    calls = []
    real_tau = glue.tau

    def counting_tau(*args):
        calls.append(args)
        return real_tau(*args)

    monkeypatch.setattr(glue, "tau", counting_tau)
    assert verify_certificate(blob).passed
    copies = sum(
        c["kind"] in ("block", "hub") and bool(c["value"]["terms"])
        for r in _rows(blob)
        for c in r["certificate"]["left"]
    )
    assert 0 < len(calls) <= len(distinct) < copies


def test_same_block_component_is_its_metric_entry(certificates):
    # a same-block distance is its one block component: an entry moved off
    # it fails, though the row still equals the derived one
    blob = json.loads(certificates["clustered"])
    partition = _partition(blob)
    pair = next(p for p in _pairs(blob) if partition.block_of(p[0]) == partition.block_of(p[1]))
    _set_entry(blob, "metric", pair, _entry(blob, "metric", pair) + Fraction(1, 1000))
    report = verify_certificate(blob)
    assert report.verdict == "fail" and report.detail == "components do not sum to the metric entry"
    assert report.witnesses == (pair,)


def _interval_lists(node, found):
    """The ``repr`` of every interval list in a certificate."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "intervals":
                found.append(repr(value))
            else:
                _interval_lists(value, found)
    elif isinstance(node, list):
        for value in node:
            _interval_lists(value, found)
    return found


def test_verify_certificate_decodes_each_interval_list_and_rational_once(
    certificates, monkeypatch
):
    # only input, registry and sup_bound are decoded, each
    # distinct spelling once; the metric and the rows are compared as JSON
    blob = json.loads(certificates["clustered"])
    parsed = json.dumps([blob[name] for name in ("input", "registry", "sup_bound")])
    assert not _interval_lists([blob["input"], blob["registry"]], [])
    lists, reads = [], []
    real_from_json, real_read = IntervalSet.from_json, intervals._read_frac

    def counting_from_json(data):
        lists.append(repr(data))
        return real_from_json(data)

    def counting_read(text):
        reads.append(text)
        return real_read(text)

    monkeypatch.setattr(IntervalSet, "from_json", staticmethod(counting_from_json))
    monkeypatch.setattr(intervals, "_read_frac", counting_read)
    assert verify_certificate(blob).passed
    assert lists == []
    assert reads and len(reads) == len(set(reads))
    assert all(json.dumps(text) in parsed for text in reads)
    assert _decode_memo.get() is None


def _respell_a_repeated_endpoint(blob, spelling):
    """Write one occurrence of ``1/2`` in a row's component as ``spelling``."""
    assert json.dumps(blob).count('"1/2"') >= 2
    for row in _rows(blob):
        for comp in row["certificate"]["left"]:
            for term in comp["value"]["terms"]:
                for blk in term["intervals"]:
                    if "1/2" in blk:
                        blk[blk.index("1/2")] = spelling
                        return
    raise AssertionError("no component endpoint 1/2")


# a row is compared as JSON, so an equal rational spelled otherwise fails
@pytest.mark.parametrize("spelling, passes", [("2/4", False), ("1/3", False)])
def test_respelled_endpoint_keeps_the_verdict(certificates, monkeypatch, spelling, passes):
    blob = json.loads(certificates["clustered"])
    _respell_a_repeated_endpoint(blob, spelling)
    report = verify_certificate(blob)
    assert report.passed == passes
    # the verdict of a decode that shares nothing
    monkeypatch.setattr(glue, "_decode_scope", contextlib.nullcontext)
    monkeypatch.setattr(metric, "_decode_scope", contextlib.nullcontext)
    assert verify_certificate(blob) == report


def test_a_certificate_decode_that_raises_leaves_no_scope_open(certificates):
    blob = json.loads(certificates["clustered"])
    blob["input"]["pairs"][-1]["offset"] = "1/0"
    with pytest.raises(ZeroDivisionError):
        verify_certificate(blob)
    assert _decode_memo.get() is None


def _first_rational_entry(blob):
    """The first pair, in pair order, whose metric entry has a rational
    offset other than 0, with its entry."""
    for pair, entry in zip(_pairs(blob), blob["metric"]["pairs"]):
        if entry["offset"] != "0/1":
            return pair, entry
    raise AssertionError("no entry with a nonzero offset")


def _respelled_entry(blob):
    # p/q written as 2p/2q: an equal rational
    pair, entry = _first_rational_entry(blob)
    p, q = entry["offset"].split("/")
    entry["offset"] = f"{2 * int(p)}/{2 * int(q)}"
    return pair


def _entry_with_an_unknown_key(blob):
    pair, entry = _first_rational_entry(blob)
    entry["note"] = "ignored by a reader"
    return pair


def _row_with_an_unknown_key(blob):
    _rows(blob)[2]["note"] = "ignored by a reader"
    return _pairs(blob)[2]


def _component_with_an_unknown_key(blob):
    _rows(blob)[1]["certificate"]["left"][0]["note"] = "ignored by a reader"
    return _pairs(blob)[1]


@pytest.mark.parametrize("kind", ["spread", "clustered"])
@pytest.mark.parametrize(
    "respell, detail",
    [(_respelled_entry, "components do not sum to the metric entry"),
     (_entry_with_an_unknown_key, "components do not sum to the metric entry"),
     (_row_with_an_unknown_key, "component replay failed"),
     (_component_with_an_unknown_key, "component replay failed")],
    ids=["respelled-entry", "entry-unknown-key", "row-unknown-key", "component-unknown-key"],
)
def test_a_respelled_metric_entry_or_row_fails_naming_its_pair(
    certificates, kind, respell, detail
):
    # what the checker derives is compared as JSON: the same values spelled
    # otherwise, or with a field no reader reads, are another certificate
    blob = json.loads(certificates[kind])
    pair = respell(blob)
    report = verify_certificate(blob)
    assert report.verdict == "fail" and report.detail == detail
    assert report.witnesses == (pair,)


@pytest.mark.parametrize("kind", ["spread", "clustered"])
def test_a_metric_in_another_point_order_fails(certificates, kind):
    # the same metric, its points reversed: the derived one has the input's order
    blob = json.loads(certificates[kind])
    stated = FiniteMetric.from_json(blob["metric"])
    blob["metric"] = stated.restrict(stated.points[::-1]).to_json()
    report = verify_certificate(blob)
    assert report.verdict == "fail" and report.detail == "input and metric have different points"


def test_a_metric_that_differs_off_its_pairs_fails(certificates):
    # an entry past the last pair, or a field beside the points and the pairs
    for where in ("extra", "top"):
        blob = json.loads(certificates["spread"])
        if where == "extra":
            blob["metric"]["pairs"].append(blob["metric"]["pairs"][0])
        else:
            blob["metric"]["note"] = "ignored by a reader"
        report = verify_certificate(blob)
        assert report.verdict == "fail" and report.witnesses == ()
        assert report.detail == "metric differs from the derived one"


def _doubled(text):
    """``p/q`` written ``2p/2q``: an equal rational spelled otherwise."""
    p, q = text.split("/")
    return f"{2 * int(p)}/{2 * int(q)}"


def _at(blob, path):
    return functools.reduce(operator.getitem, path, blob)


def _set(*path, value):
    """An edit that sets the JSON value at ``path`` to ``value(old)``."""
    def edit(blob):
        node = _at(blob, path[:-1])
        node[path[-1]] = value(node[path[-1]])
    return edit


def _added(*path):
    """An edit that adds a key no writer writes to the object at ``path``."""
    return lambda blob: _at(blob, path).update(note="x")


def _rekeyed(*path, pad):
    """An edit that moves the least key of the object at ``path`` to another
    spelling that ``int`` reads alike: ``pad`` before its first digits."""
    def edit(blob):
        table = _at(blob, path)
        key = min(table)
        head, colon, tail = key.rpartition(":")
        table[head + colon + pad + tail] = table.pop(key)
    return edit


def _first_hub(change):
    """An edit that sets the first hub record ``p`` to ``change(p)``."""
    return _set("registry", "hubs", 0, value=change)


def _deleted_registry(blob):
    del blob["registry"]


def _restored_parameters(blob):
    # the ladder and the partition, as a version-4 writer stated them
    partition = _partition(blob)
    blob["parameters"] = {"k": _ladder(blob), "partition": {
        "blocks": [list(b) for b in partition.blocks], "hubs": list(partition.hubs)}}


def _floated_tag(blob):
    comp = blob["independence"][0]["certificate"]["left"][0]
    tag = "gauge" if comp["kind"] == "block" else "hub_index"
    comp[tag] = float(comp[tag])


_PADS = [("zero", "0"), ("space", " "), ("sign", "+")]
_ROW_ZERO = ("independence", 0, "certificate", "left", 0, "value", "terms", 0)
_REPLAY = "component replay failed"
_SUP = "claimed sup bound differs from the recomputed one"
# One entry per section of a certificate.  A part the checker decodes (input,
# registry and sup_bound.epsilon) must be the writer's JSON of
# what it decodes, and the top-level keys the writer's: anything else raises
# ValueError, exit 3 (detail None).  A part it derives (the metric, the rows,
# sup_bound) must be what the writer writes from the replayed parts:
# anything else fails, exit 1, with the detail and the position of the pair
# named, if any.  An unknown key or a respelled entry of the metric or a row:
# test_a_respelled_metric_entry_or_row_fails_naming_its_pair.
_MUTATIONS = [
    pytest.param(_added(), None, None, id="top-unknown-key"),
    pytest.param(_deleted_registry, None, None, id="top-missing-key"),
    pytest.param(_added("input"), None, None, id="input-unknown-key"),
    pytest.param(_added("input", "pairs", 0), None, None, id="input-entry-unknown-key"),
    pytest.param(_set("input", "pairs", 0, "offset", value=_doubled), None, None,
                 id="input-respelled-offset"),
    pytest.param(_set("input", "version", value=bool), None, None, id="input-version-true"),
    pytest.param(_added("registry"), None, None, id="registry-unknown-key"),
    pytest.param(_set("registry", "seed", value=lambda _: "zzz"), None, None, id="seed-letters"),
    pytest.param(_set("registry", "seed", value=float), None, None, id="seed-float"),
    pytest.param(_added("registry", "gauges", "1"), None, None, id="gauge-unknown-key"),
    pytest.param(_set("registry", "gauges", "0", "draws", "0:0:1", value=_doubled), None, None,
                 id="gauge-respelled-draw"),
    *(pytest.param(_rekeyed("registry", "gauges", pad=pad), None, None, id=f"gauge-key-{name}")
      for name, pad in _PADS),
    *(pytest.param(_rekeyed("registry", "gauges", "0", "draws", pad=pad), None, None,
                   id=f"draw-key-{name}") for name, pad in _PADS),
    # a version-3 writer's hub value, beside the p in an object
    pytest.param(_first_hub(lambda p: {"p": p, "value": {"offset": p, "terms": []}}),
                 None, None, id="hub-unknown-key"),
    pytest.param(_first_hub(_doubled), None, None, id="hub-respelled-p"),
    *(pytest.param(_first_hub(lambda p, pad=pad: pad + p), None, None, id=f"hub-p-{name}")
      for name, pad in _PADS),
    # since version 5 the ladder and the partition are derived, not stated
    pytest.param(_restored_parameters, None, None, id="parameters-unknown-key"),
    pytest.param(_added("sup_bound"), _SUP, None, id="sup-unknown-key"),
    pytest.param(_set("sup_bound", "epsilon", value=_doubled), None, None,
                 id="sup-respelled-epsilon"),
    pytest.param(_set("sup_bound", "achieved_hi", value=_doubled), _SUP, None,
                 id="sup-respelled-achieved-hi"),
    pytest.param(_set("metric", "version", value=bool), "metric differs from the derived one",
                 None, id="metric-version-true"),
    pytest.param(_set("metric", "pairs", 0, "terms", 0, "k", value=float),
                 "components do not sum to the metric entry", 0, id="metric-k-float"),
    pytest.param(_set(*_ROW_ZERO, "intervals", 0, 0, value=_doubled), _REPLAY, 0,
                 id="row-respelled-end"),
    pytest.param(_floated_tag, _REPLAY, 0, id="row-tag-float"),
    pytest.param(_set(*_ROW_ZERO, "k", value=float), _REPLAY, 0, id="row-k-float"),
]


@pytest.mark.parametrize("kind", ["spread", "clustered"])
@pytest.mark.parametrize("edit, detail, pair", _MUTATIONS)
def test_a_certificate_written_otherwise_is_refused(certificates, kind, edit, detail, pair):
    blob = json.loads(certificates[kind])
    edit(blob)
    if detail is None:
        with pytest.raises(ValueError) as raised:
            verify_certificate(blob)
        # a DomainError would be exit 4
        assert not isinstance(raised.value, DomainError)
    else:
        report = verify_certificate(blob)
        named = () if pair is None else (_pairs(blob)[pair],)
        assert (report.verdict, report.detail, report.witnesses) == ("fail", detail, named)


@pytest.mark.parametrize("kind", ["spread", "clustered", "single-block"])
def test_the_replayed_parts_derive_the_written_metric_and_rows(kind):
    d = {"spread": lambda: rational_metric(random.Random(3), 5),
         "clustered": lambda: clustered_metric(random.Random(3), 3, 2),
         "single-block": _single_block_metric}[kind]()
    out, cert = rigidify_full(d, Fraction(1, 2))
    written = cert.to_json(out)
    _, gauges, ps = read_snapshot(written["registry"])
    parts = glue._replayed_construction(d, cert.epsilon, gauges, ps)
    assert parts.partition == cert.partition
    assert parts.glued(d.points).to_json() == written["metric"]
    rows = [glue._row_json(parts.components(*pair)) for pair in _pairs(written)]
    assert rows == written["independence"]
