from fractions import Fraction

import pytest

from conftest import rational_metric
from rigidmetrics.errors import DomainError, ResourceError
from rigidmetrics.metric import FiniteMetric
from rigidmetrics.rigidify import perturb_strongly_rigid
from rigidmetrics.verify import (
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
