import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import rational_metric
from rigidmetrics.cli import main
from rigidmetrics.coded import (
    EQUAL,
    GREATER,
    UNRESOLVED,
    CodedReal,
    _difference,
    _ordering,
    _piece_support,
    coded_sum,
)
from rigidmetrics.errors import DomainError, ResourceError
from rigidmetrics.intervals import IntervalSet
from rigidmetrics.metric import FiniteMetric, load_metric
from rigidmetrics.product import tau, word_label
from rigidmetrics.registry import ValueRegistry
from rigidmetrics.rigidify import perturb_strongly_rigid
from rigidmetrics.verify import (
    Report,
    distance_embedding_check,
    is_metric,
    is_rigid,
    is_strict_triangle,
    is_strongly_rigid,
    isometry_group,
    lnm_membership,
    lnm_never_member,
    sup_distance,
)


def triangle(a, b, c):
    return FiniteMetric.from_entries(
        ["x", "y", "z"],
        [[0, a, b], [a, 0, c], [b, c, 0]],
    )


EQUILATERAL = triangle(1, 1, 1)
COLINEAR = triangle(1, 3, 2)  # d(x,y)=1, d(y,z)=2, d(x,z)=3


def test_is_metric_and_strict():
    assert is_metric(EQUILATERAL).passed
    assert is_strict_triangle(EQUILATERAL).passed  # 1 < 2
    assert is_metric(COLINEAR).passed
    strict = is_strict_triangle(COLINEAR)
    assert strict.verdict == "fail" and strict.witnesses


def test_is_metric_fail_with_witness():
    bad = triangle(1, 4, 2)  # 4 > 1 + 2
    report = is_metric(bad)
    assert report.verdict == "fail"
    assert ("x", "z", "y") in report.witnesses


def test_is_metric_rejects_nonpositive():
    zeroish = FiniteMetric.from_entries(
        ["a", "b", "c"],
        [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
    )
    assert is_metric(zeroish).verdict == "fail"


def test_sup_distance_cases():
    assert sup_distance(EQUILATERAL, EQUILATERAL).hi == 0
    a = FiniteMetric.from_entries(["p", "q"], [[0, 1], [1, 0]])
    b = FiniteMetric.from_entries(["p", "q"], [[0, Fraction(5, 4)], [Fraction(5, 4), 0]])
    enc = sup_distance(a, b)
    assert enc.lo == enc.hi == Fraction(1, 4)
    with pytest.raises(DomainError):
        sup_distance(a, EQUILATERAL)


def test_strongly_rigid_detects_collisions():
    report = is_strongly_rigid(EQUILATERAL)
    assert report.verdict == "fail"
    assert len(report.witnesses[0]) == 3  # all three pairs share the value


def test_strongly_rigid_distinct_rationals():
    d = triangle(1, Fraction(11, 10), Fraction(6, 5))
    assert is_strongly_rigid(d).passed


def test_isometry_group_equilateral_full_symmetric():
    assert len(isometry_group(EQUILATERAL)) == 6


def test_isometry_group_scalene_trivial():
    d = triangle(2, 3, 4)
    assert isometry_group(d) == [(0, 1, 2)]
    assert is_rigid(d).passed


def test_isometry_group_swap():
    # isosceles: exactly one transposition survives
    d = triangle(1, 1, Fraction(3, 2))
    group = isometry_group(d)
    assert len(group) == 2
    assert not is_rigid(d).passed


def test_isometry_group_size_guard():
    big = rational_metric(__import__("random").Random(0), 13)
    with pytest.raises(ResourceError):
        isometry_group(big)


def test_lnm_membership_equilateral():
    report = lnm_membership(EQUILATERAL, 0)
    assert report.verdict == "pass"
    x, y, u, v = report.witnesses[0]
    assert {x, y} != {u, v}


def test_lnm_membership_scale_sensitivity():
    # two equal distances of 1/8: invisible at scale 1/4, visible at 1/8
    d = FiniteMetric.from_entries(
        ["a", "b", "c", "d"],
        [
            [0, Fraction(1, 8), Fraction(3, 16), Fraction(3, 16)],
            [Fraction(1, 8), 0, Fraction(3, 16), Fraction(3, 16)],
            [Fraction(3, 16), Fraction(3, 16), 0, Fraction(1, 8)],
            [Fraction(3, 16), Fraction(3, 16), Fraction(1, 8), 0],
        ],
    )
    assert is_metric(d).passed
    assert lnm_membership(d, 2).verdict == "fail"
    assert lnm_membership(d, 3).verdict == "pass"


def test_lnm_non_membership_on_strongly_rigid(rng):
    d = rational_metric(rng, 5)
    out = perturb_strongly_rigid(d, Fraction(1, 2))
    assert lnm_never_member(out).passed


def test_lnm_agrees_with_strong_rigidity(rng):
    agree = 0
    for _ in range(40):
        d = rational_metric(rng, 6, den=4)  # coarse values force collisions
        sr = is_strongly_rigid(d).passed
        never = lnm_never_member(d).passed
        assert sr == never
        agree += 1
    assert agree == 40


def test_embedding_checks():
    sr = triangle(1, Fraction(11, 10), Fraction(6, 5))
    for xi in sr.points:
        assert distance_embedding_check(sr, xi).passed
    report = distance_embedding_check(EQUILATERAL, "x")
    assert report.verdict == "fail"
    two = FiniteMetric.from_entries(["a", "b"], [[0, 5], [5, 0]])
    assert distance_embedding_check(two, "a").passed
    assert distance_embedding_check(two, "b").passed


@pytest.mark.parametrize("d", [EQUILATERAL, COLINEAR, triangle(1, 2, 2)])
def test_reports_record_budget(d):
    reports = [
        is_metric(d, 16),
        is_strict_triangle(d, 16),
        is_strongly_rigid(d, 16),
        lnm_membership(d, 0, 16),
        lnm_never_member(d, max_precision=16),
        distance_embedding_check(d, "x", 16),
    ]
    assert [r.precision for r in reports] == [16] * len(reports)
    assert is_strict_triangle(d).precision == 64


def test_rigid_sees_equal_values_on_different_ladders():
    # d(a,b) = 1 + <g0,[0,1)> and d(a,c) = 1 + 2<g1,[0,1)> are one number
    unit = IntervalSet.block(0, 1)
    ab = 1 + coded_sum(0, unit)
    ac = 1 + coded_sum(1, unit, 2)
    d = FiniteMetric.from_entries(
        ["a", "b", "c"],
        [[0, ab, ac], [ab, 0, Fraction(3, 2)], [ac, Fraction(3, 2), 0]],
    )
    assert is_metric(d).passed
    assert isometry_group(d) == [(0, 1, 2), (0, 2, 1)]
    report = is_rigid(d)
    assert report.verdict == "fail"
    assert report.witnesses == ((0, 2, 1),)
    # the near-collision oracle groups the two entries as well
    assert lnm_membership(d, 0).witnesses == (("a", "b", "a", "c"),)
    assert lnm_never_member(d).verdict == is_strongly_rigid(d).verdict == "fail"


# d(x,y) and d(x,z) lie on ladders 0 and 1 and differ only inside
# [499999999/10^9, 1/2), whose simplest member is too deep for any budget to
# order them.  With d(x,y) = 1 + <g0,[0,1/2)> they are one number.
NEAR_HALF = Fraction(499999999, 10**9)


def _mixed_ladder_metric(xy_cut):
    xy = 1 + coded_sum(0, IntervalSet.block(0, xy_cut))
    xz = 1 + coded_sum(1, IntervalSet.block(0, Fraction(1, 2)), 2)
    return triangle(xy, xz, 2)


def test_equality_across_ladders_is_decided():
    d = _mixed_ladder_metric(NEAR_HALF)
    assert is_strongly_rigid(d).verdict == "pass"
    assert distance_embedding_check(d, "x").verdict == "pass"
    d = _mixed_ladder_metric(Fraction(1, 2))
    report = is_strongly_rigid(d)
    assert report.verdict == "fail"
    assert report.witnesses == ((("x", "y"), ("x", "z")),)
    report = distance_embedding_check(d, "x")
    assert report.verdict == "fail"
    assert report.witnesses == ((("y",), ("z",)),)


def test_is_rigid_stops_at_the_first_nontrivial_isometry():
    uniform = FiniteMetric.from_pair_function([f"p{i}" for i in range(9)], lambda i, j: 1)
    start = time.perf_counter()
    report = is_rigid(uniform)
    assert time.perf_counter() - start < 0.5
    assert report.verdict == "fail" and len(report.witnesses) == 1
    (witness,) = report.witnesses
    assert sorted(witness) == list(range(9)) and witness != tuple(range(9))


def _exact_triangle_report(d, strict, max_precision):
    """The triangle oracle without the enclosure prefilter: every entry and
    every triple through the exact engine, in the oracle's loop order."""
    n = d.size
    for i, j in d.pairs():
        order = _ordering(d.at(i, j), max_precision)
        if order != GREATER:
            if order == UNRESOLVED:
                return Report("unresolved", ((d.points[i], d.points[j]),),
                              "positivity", max_precision)
            return Report("fail", ((d.points[i], d.points[j]),),
                          "nonpositive distance", max_precision)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k == i or k == j:
                    continue
                gap = _difference(d.at(i, j), d.at(i, k), d.at(k, j))
                order = _ordering(gap, max_precision)
                triple = (d.points[i], d.points[j], d.points[k])
                if order == UNRESOLVED:
                    return Report("unresolved", (triple,), "triangle comparison",
                                  max_precision)
                if order == GREATER or (strict and order == EQUAL):
                    kind = "strict triangle" if strict else "triangle"
                    return Report("fail", (triple,), f"{kind} violated", max_precision)
    return Report("pass", (), "strict triangle" if strict else "triangle",
                  max_precision)


# eval(8) reads indices 0-8 and pads each term by 2^-511.  <g0,[5,6)> first
# hits index 31; <g0,[4/3,7/5)> first hits index 9 (value 4/3), so it
# exceeds 2^-520 while no index eval(8) reads lands in it.
_BELOW_8 = IntervalSet.block(5, 6)
_AT_9 = IntervalSet.block(Fraction(4, 3), Fraction(7, 5))
_TINY = Fraction(1, 1 << 520)


def _matrix(labels, entries):
    n = len(labels)
    values = dict(zip([(i, j) for i in range(n) for j in range(i + 1, n)], entries))
    return FiniteMetric.from_pair_function(labels, lambda i, j: values[(i, j)])


def _triangle(xy, xz, zy):
    return FiniteMetric.from_entries(
        ["x", "y", "z"], [[0, xy, xz], [xy, 0, zy], [xz, zy, 0]]
    )


@st.composite
def triangle_matrices(draw):
    """Symmetric matrices for the triangle oracles: small-denominator
    rationals or distances of points on a line (violated and degenerate
    triangles, nonpositive entries), optionally shifted by coded or tiny
    rational amounts at or below the enclosure's resolution, or a tau
    product metric plus such a matrix."""
    n = draw(st.integers(2, 5))
    count = n * (n - 1) // 2
    low = draw(st.sampled_from([-1, 0, 1]))
    den = draw(st.sampled_from([1, 2, 4]))
    rationals = st.fractions(min_value=low, max_value=3, max_denominator=den)
    if draw(st.booleans()):
        # points on a line: every triangle is degenerate, and coincident
        # points give zero distances
        xs = draw(st.lists(rationals, min_size=n, max_size=n))
        entries = [CodedReal.from_rational(abs(xs[i] - xs[j]))
                   for i in range(n) for j in range(i + 1, n)]
    else:
        entries = [CodedReal.from_rational(q) for q in draw(
            st.lists(rationals, min_size=count, max_size=count))]
    shifts = st.just(CodedReal()) if draw(st.booleans()) else st.sampled_from([
        CodedReal(),
        CodedReal.from_rational(_TINY),
        CodedReal.from_rational(-_TINY),
        coded_sum(0, _BELOW_8),
        coded_sum(1, _BELOW_8, -2),
        coded_sum(0, _AT_9),
        coded_sum(0, _AT_9, -1),
        coded_sum(1, IntervalSet.block(0, 1), Fraction(1, 2)),
    ])
    entries = [e + draw(shifts) for e in entries]
    if draw(st.booleans()):
        alphabet, length = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
        gauge = ValueRegistry(draw(st.integers(0, 3))).fresh_gauge()
        k = draw(st.integers(0, 3))
        words = list(itertools.product(range(alphabet), repeat=length))
        n = len(words)
        count = n * (n - 1) // 2
        entries = (entries * count)[:count] if draw(st.booleans()) else [0] * count
        coded = [tau(gauge, k, words[i], words[j])
                 for i in range(n) for j in range(i + 1, n)]
        entries = [c + e for c, e in zip(coded, entries)]
        return _matrix([word_label(w) for w in words], entries)
    return _matrix([f"p{i}" for i in range(n)], entries)


@settings(max_examples=300, deadline=None)
@given(triangle_matrices(), st.sampled_from([16, 64]))
# a degenerate rational triangle: only the exact path sees the equality
@example(_triangle(3, 1, 2), 64)
# equality and violation below eval(8)'s resolution
@example(_triangle(3 + coded_sum(0, _BELOW_8), 1 + coded_sum(0, _BELOW_8), 2), 64)
@example(_triangle(3 + coded_sum(0, _BELOW_8), 1, 2), 64)
# violations that a missing tail pad would hide, on either bound
@example(_triangle(3 - _TINY + coded_sum(0, _AT_9), 1, 2), 64)
@example(_triangle(3, 1 + _TINY - coded_sum(0, _AT_9), 2), 64)
# a ladder too far out for any eval: the exact path alone decides
@example(_triangle(3 + coded_sum(1 << 21, _BELOW_8), 1, 2), 64)
def test_prefilter_cannot_change_a_report(d, max_precision):
    for strict, oracle in ((False, is_metric), (True, is_strict_triangle)):
        assert oracle(d, max_precision) == _exact_triangle_report(d, strict, max_precision)


def test_product_triangles_need_no_support_scan(tmp_path, monkeypatch):
    # the metric tests/test_byte_identity.py pins: every triangle gap the
    # enclosures leave open is decided from its least enumeration index
    out = tmp_path / "product.json"
    assert main(["product", "--alphabet", "2", "--length", "3", "--k", "1",
                 "--out", str(out)]) == 0
    d = load_metric(out.read_text())
    calls = []

    def counted(*args):
        calls.append(args)
        return _piece_support(*args)

    monkeypatch.setattr("rigidmetrics.coded._piece_support", counted)
    assert is_metric(d).passed
    assert is_strict_triangle(d).passed
    assert calls == []
