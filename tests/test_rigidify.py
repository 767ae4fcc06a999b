import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rational_metric
from rigidmetrics import glue
from rigidmetrics.coded import GREATER, LESS, compare
from rigidmetrics.errors import DomainError
from rigidmetrics.metric import FiniteMetric
from rigidmetrics.registry import ValueRegistry
from rigidmetrics.rigidify import (
    perturb_strongly_rigid,
    snap_to_grid,
    subadditive_window,
)
from rigidmetrics.verify import (
    is_metric,
    is_strict_triangle,
    is_strongly_rigid,
    sup_distance,
)


def two_point(value):
    return FiniteMetric.from_entries(["x", "y"], [[0, value], [value, 0]])


def test_snap_rounds_up():
    e = snap_to_grid(two_point(Fraction(7, 10)), Fraction(1, 2))
    assert e.at(0, 1).rational_value() == 1
    assert abs(1 - Fraction(7, 10)) <= Fraction(1, 2)


def test_snap_fixes_grid_points():
    d = FiniteMetric.from_entries(
        ["a", "b", "c"],
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    )
    assert snap_to_grid(d, 1) == d
    assert snap_to_grid(d, Fraction(1, 2)) == d


def test_snap_requires_rational():
    from rigidmetrics.coded import coded_sum
    from rigidmetrics.intervals import IntervalSet

    coded = coded_sum(0, IntervalSet.block(0, 1))
    d = FiniteMetric.from_entries(["a", "b"], [[0, coded], [coded, 0]])
    with pytest.raises(DomainError):
        snap_to_grid(d, Fraction(1, 2))


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 100), max_value=5),
    st.fractions(min_value=Fraction(1, 8), max_value=2),
)
def test_snap_properties(value, eta):
    e = snap_to_grid(two_point(value), eta)
    out = e.at(0, 1).rational_value()
    assert (out / eta).denominator == 1 and out >= eta
    assert 0 <= out - value <= eta


def test_snap_preserves_triangle(rng):
    for _ in range(20):
        d = rational_metric(rng, 6)
        e = snap_to_grid(d, Fraction(1, 3))
        assert is_metric(e).passed


def test_streams_disjoint_and_positive():
    registry = ValueRegistry(0)
    lo, hi = Fraction(0), Fraction(4)
    a = [registry.draw_value(lo, hi, salt=0) for _ in range(100)]
    b = [registry.draw_value(lo, hi, salt=1) for _ in range(100)]
    assert set(a).isdisjoint(b)
    assert all(v > 0 for v in a + b)
    assert len(set(a)) == 100 and len(set(b)) == 100


def test_pick_interval_value_windows():
    registry = ValueRegistry(0)
    v1 = registry.draw_value(*subadditive_window(1), salt=0)
    assert Fraction(4, 3) < v1 < Fraction(3, 2)
    v2 = registry.draw_value(*subadditive_window(2), salt=1)
    assert Fraction(9, 4) < v2 < Fraction(7, 3)
    # same window, other salts, still distinct values
    drawn = {v1}
    for salt in range(2, 8):
        v3 = registry.draw_value(*subadditive_window(1), salt=salt)
        assert v3 not in drawn and Fraction(4, 3) < v3 < Fraction(3, 2)
        drawn.add(v3)


def test_subadditive_window_ends():
    assert subadditive_window(1) == (Fraction(4, 3), Fraction(3, 2))
    assert subadditive_window(3) == (Fraction(16, 5), Fraction(13, 4))
    for n in (0, -1):
        with pytest.raises(DomainError, match="at least 1"):
            subadditive_window(n)


def _in_window(value, n, step):
    lo, hi = subadditive_window(n)
    return compare(value, step * lo) == GREATER and compare(value, step * hi) == LESS


@pytest.mark.parametrize("seed", [0, 4])
def test_both_paths_place_every_value_in_its_window(seed):
    d = rational_metric(random.Random(seed), 6)
    epsilon = Fraction(1, 2)
    # rigidify: integers at step eta = epsilon / 2
    eta = epsilon / 2
    out = perturb_strongly_rigid(d, epsilon, seed=seed)
    for i, j in d.pairs():
        n = math.ceil(d.at(i, j).rational_value() / eta)
        assert _in_window(out.at(i, j), n, eta)
    # rigidify --full: hub integers at step eta / 2, with eta = epsilon / 5
    eta = epsilon / 5
    partition = glue.partition_by_diameter(d, eta)
    hubs, _ = glue._hub_metric(d, partition, eta, 4, ValueRegistry(seed))
    source = d.restrict(partition.hubs)
    assert hubs.size == 6
    for i, j in hubs.pairs():
        n = math.ceil(source.at(i, j).rational_value() / (eta / 2))
        assert _in_window(hubs.at(i, j), n, eta / 2)


def test_subadditivity_window_oracle():
    # Exhaustive: every admissible integer triple, several samples per window.
    rng = random.Random(1)
    for n1 in range(1, 13):
        lo1, hi1 = n1 + Fraction(1, 1 << (n1 + 1)), n1 + Fraction(1, 1 << n1)
        for n2 in range(1, 13):
            for n3 in range(1, 13):
                if n1 > n2 + n3:
                    continue
                lo2, hi2 = n2 + Fraction(1, 1 << (n2 + 1)), n2 + Fraction(1, 1 << n2)
                lo3, hi3 = n3 + Fraction(1, 1 << (n3 + 1)), n3 + Fraction(1, 1 << n3)
                for _ in range(3):
                    m1 = lo1 + (hi1 - lo1) * Fraction(rng.randrange(1, 64), 64)
                    m2 = lo2 + (hi2 - lo2) * Fraction(rng.randrange(1, 64), 64)
                    m3 = lo3 + (hi3 - lo3) * Fraction(rng.randrange(1, 64), 64)
                    assert m1 < m2 + m3


def test_subadditive_window_family_is_subadditive():
    # Exhaustive, as criterion 1 on the family the pipeline uses: every
    # admissible integer triple, its closed bound and several samples.
    rng = random.Random(1)
    for n1 in range(1, 13):
        lo1, hi1 = subadditive_window(n1)
        for n2 in range(1, 13):
            for n3 in range(1, 13):
                if n1 > n2 + n3:
                    continue
                (lo2, hi2), (lo3, hi3) = subadditive_window(n2), subadditive_window(n3)
                assert hi1 <= lo2 + lo3
                for _ in range(3):
                    m1 = lo1 + (hi1 - lo1) * Fraction(rng.randrange(1, 64), 64)
                    m2 = lo2 + (hi2 - lo2) * Fraction(rng.randrange(1, 64), 64)
                    m3 = lo3 + (hi3 - lo3) * Fraction(rng.randrange(1, 64), 64)
                    assert m1 < m2 + m3


def test_perturb_equilateral():
    eq = FiniteMetric.from_entries(
        ["a", "b", "c"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    )
    out = perturb_strongly_rigid(eq, 1)
    values = [out.at(i, j).rational_value() for i, j in out.pairs()]
    assert len(set(values)) == 3
    for v in values:
        assert Fraction(9, 8) < v < Fraction(7, 6)
    assert sup_distance(eq, out).hi <= 1
    assert is_strict_triangle(out).passed
    assert is_strongly_rigid(out).passed


def test_perturb_two_points():
    d = two_point(Fraction(3, 2))
    out = perturb_strongly_rigid(d, Fraction(1, 2))
    assert sup_distance(d, out).hi <= Fraction(1, 2)
    assert is_strongly_rigid(out).passed
    # the single value sits strictly inside its scaled window: eta = 1/4,
    # snapped integer 6, window (6 + 1/8, 6 + 1/7) * eta
    value = out.at(0, 1).rational_value() / Fraction(1, 4)
    assert 6 + Fraction(1, 8) < value < 6 + Fraction(1, 7)


def test_perturb_degenerate_triangle_becomes_strict():
    d = FiniteMetric.from_entries(
        ["a", "b", "c"], [[0, 1, 3], [1, 0, 2], [3, 2, 0]]
    )
    assert not is_strict_triangle(d).passed
    out = perturb_strongly_rigid(d, Fraction(1, 2))
    assert is_strict_triangle(out).passed
    assert sup_distance(d, out).hi <= Fraction(1, 2)


def test_perturb_deterministic_per_seed(rng):
    d = rational_metric(rng, 5)
    a = perturb_strongly_rigid(d, Fraction(1, 4), seed=3)
    b = perturb_strongly_rigid(d, Fraction(1, 4), seed=3)
    c = perturb_strongly_rigid(d, Fraction(1, 4), seed=4)
    assert a == b
    assert a != c


def test_perturb_guards():
    with pytest.raises(DomainError):
        perturb_strongly_rigid(two_point(1), 0)
    with pytest.raises(DomainError):
        perturb_strongly_rigid(FiniteMetric.from_entries(["a"], [[0]]), 1)
