import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rigidmetrics.coded import (
    EQUAL, GREATER, LESS, CodedReal, coded_sum, compare, equals, gamma_compare,
)
from rigidmetrics.enumeration import first_hit_index
from rigidmetrics.errors import DomainError
from rigidmetrics.intervals import IntervalSet
from rigidmetrics.product import (
    SemiMetricGauge,
    find_separating_prefix,
    pair_encode,
    prism,
    rho,
    sigma,
    tau,
)
from rigidmetrics.registry import ValueRegistry, _SealedPool


@pytest.fixture
def gauge():
    return ValueRegistry(0).fresh_gauge()


def test_pair_encode_identity_and_pairing():
    assert pair_encode(0, (3,)) == 3
    assert pair_encode(1, (3, 5)) == 41  # (3+5)(3+5+1)/2 + 5
    assert pair_encode(2, (0, 0, 0)) == 0
    with pytest.raises(DomainError):
        pair_encode(1, (3,))


def test_pair_encode_injective_small_range():
    codes = {pair_encode(1, (a, b)) for a in range(50) for b in range(50)}
    assert len(codes) == 2500


def test_prism_examples():
    assert prism((3, 5)) == (3, 3, 5, 41)
    assert prism((0,)) == (0, 0)


def test_prism_injective_on_short_words():
    words = [
        w
        for length in (1, 2, 3)
        for w in itertools.product(range(3), repeat=length)
    ]
    assert len(words) == 39
    images = {prism(w) for w in words}
    assert len(images) == 39


def test_semi_metric_axioms(gauge):
    assert gauge.value(0, 7, 7) == 0
    v1 = gauge.value(0, 0, 1)
    v2 = gauge.value(0, 0, 2)
    assert v1 != v2
    assert 0 < v1 < 1 and 0 < v2 < 1
    assert gauge.value(0, 1, 0) == v1
    assert 3 < gauge.value(3, 0, 1) < 4


def test_semi_metric_disjoint_across_gauges():
    registry = ValueRegistry(0)
    g1, g2 = registry.fresh_gauge(), registry.fresh_gauge()
    assert g1.value(0, 0, 1) != g2.value(0, 0, 1)


def test_rho_zero_on_diagonal(gauge):
    assert rho(gauge, 0, 0, 5, 5).is_zero_form()


def test_rho_first_level_bounds(gauge):
    value = rho(gauge, 0, 0, 0, 1)
    enc = value.eval(6)
    assert Fraction(1, 2) <= enc.lo and enc.hi <= 1


def test_rho_bounds_all_levels_symbolic(gauge):
    # value sits between gamma and twice gamma at the level's first index
    for m in range(6):
        value = rho(gauge, 0, m, 0, 1)
        pos = first_hit_index(m)
        assert gamma_compare(value, 1, 0, pos) == GREATER
        assert gamma_compare(value, 2, 0, pos) == LESS


def test_rho_strict_triangle(gauge):
    k, m = 0, 0
    ab = rho(gauge, k, m, 0, 1)
    ac = rho(gauge, k, m, 0, 2)
    cb = rho(gauge, k, m, 2, 1)
    assert compare(ab, ac + cb) == LESS


def test_sigma_zero_and_length_guard(gauge):
    assert sigma(gauge, 0, (1, 2, 3), (1, 2, 3)).is_zero_form()
    with pytest.raises(DomainError):
        sigma(gauge, 0, (1, 2), (1, 2, 3))


def test_sigma_prefix_bounds(gauge):
    k = 0
    x, y = (0, 0, 0, 1, 2), (0, 0, 0, 2, 2)
    s = sigma(gauge, k, x, y)
    # agreeing through position 2 caps the value at four gammas of level 3
    assert gamma_compare(s, 4, k, first_hit_index(3)) in (LESS, EQUAL)
    # and a value that small forces agreement through position 2
    for m in range(3):
        assert gamma_compare(s, 1, k, first_hit_index(m)) == LESS
    # the first disagreeing position pushes the value above its level gamma
    assert gamma_compare(s, 1, k, first_hit_index(3)) == GREATER


def test_tau_level_structure(gauge):
    # one-letter words prism to (x, x): the index set stacks one window per
    # prism level, each starting at its level and cut at that level's draw
    value = tau(gauge, 0, (4,), (7,))
    assert len(value.terms) == 1
    blocks = value.terms[0].index_set.blocks
    assert len(blocks) == 2
    (a0, b0), (a1, b1) = blocks
    assert a0 == 0 and b0 == gauge.value(0, 4, 7)
    assert a1 == 1 and b1 == gauge.value(1, 4, 7)


def test_tau_zero_and_small_diameter(gauge):
    assert tau(gauge, 5, (1, 2), (1, 2)).is_zero_form()
    value = tau(gauge, 5, (0, 1), (1, 1))
    assert value.eval(2).hi <= Fraction(1, 32)


def test_tau_separates_where_sigma_collides(gauge):
    a, b = 0, 1
    x = (a, a, a)
    y = (a, b, b)
    u = (b, a, a)
    v = (b, b, b)
    k = 3
    assert sigma(gauge, k, x, y) == sigma(gauge, k, u, v)
    assert equals(tau(gauge, k, x, y), tau(gauge, k, u, v)) is False


def test_tau_gauge_families_never_collide():
    registry = ValueRegistry(0)
    g1, g2 = registry.fresh_gauge(), registry.fresh_gauge()
    words = list(itertools.product(range(3), repeat=2))
    pairs = list(itertools.combinations(words, 2))[:10]
    crossings = 0
    for wa, wb in pairs:
        for wc, wd in pairs:
            v1 = tau(g1, 3, wa, wb)
            v2 = tau(g2, 3, wc, wd)
            assert equals(v1, v2) is False
            crossings += 1
    assert crossings == 100


def test_tau_metric_axioms_small_spaces():
    from rigidmetrics.metric import FiniteMetric
    from rigidmetrics.verify import is_metric, is_strict_triangle, is_strongly_rigid

    registry = ValueRegistry(0)
    for alphabet, length in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        gauge = registry.fresh_gauge()
        words = list(itertools.product(range(alphabet), repeat=length))
        values = {
            (i, j): tau(gauge, 2, words[i], words[j])
            for i in range(len(words))
            for j in range(i + 1, len(words))
        }
        metric = FiniteMetric.from_pair_function(
            [".".join(map(str, w)) for w in words],
            lambda i, j: values[(min(i, j), max(i, j))],
        )
        assert is_metric(metric).passed
        assert is_strict_triangle(metric).passed
        assert is_strongly_rigid(metric).passed


def _reference_tau(gauge, k, x, y):
    """tau by its definition: each prism slot ``2n + 1`` is pair_encode of the
    prefix through ``n``, and the value is coded_sum over the level blocks."""
    px, py = ([v for n in range(len(w)) for v in (w[n], pair_encode(n, w[: n + 1]))]
              for w in (x, y))
    blocks = [(m, gauge.value(m, a, b)) for m, (a, b) in enumerate(zip(px, py)) if a != b]
    return coded_sum(k, IntervalSet.from_blocks(blocks)) if blocks else CodedReal()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 7),
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 6)] * n), min_size=2, max_size=5)
    ),
)
def test_tau_matches_its_definition(k, seed, words):
    gauge = ValueRegistry(seed).fresh_gauge()
    reference = ValueRegistry(seed).fresh_gauge()
    for x, y in itertools.combinations(words, 2):
        value = tau(gauge, k, x, y)
        assert value == _reference_tau(reference, k, x, y)
        assert gauge.drawn() == reference.drawn()
        if x != y:
            with pytest.raises(ValueError):
                tau(gauge, -1, x, y)
    x = words[0]
    assert tau(gauge, k, x, x).is_zero_form()
    with pytest.raises(DomainError):
        tau(gauge, k, x, x + (0,))


def test_tau_replays_draws_outside_their_level_by_definition():
    # a replayed gauge value need not lie in (m, m + 1): such blocks overlap
    # or are empty, and go through IntervalSet.from_blocks like any other
    for draws in ({(0, 0, 1): Fraction(3, 2), (1, 0, 1): Fraction(5, 4)},
                  {(0, 0, 1): Fraction(0), (1, 0, 1): Fraction(1)}):
        gauge = SemiMetricGauge(1, _SealedPool())
        for key, value in draws.items():
            gauge.preload(key, value)
        assert tau(gauge, 2, (0,), (1,)) == _reference_tau(gauge, 2, (0,), (1,))
    assert tau(gauge, 2, (0,), (1,)).is_zero_form()


def test_find_separating_prefix_examples():
    pairs = [((0, 0), (0, 1)), ((1, 0), (1, 1))]
    assert find_separating_prefix(pairs) == 1
    assert find_separating_prefix([((0, 1, 2), (1, 1, 2))]) == 0
    pairs = [((0, 0, 0), (0, 0, 1)), ((0, 0, 0), (0, 0, 2))]
    assert find_separating_prefix(pairs) == 2


def test_find_separating_prefix_guards():
    with pytest.raises(DomainError):
        find_separating_prefix([((0, 1), (0, 1))])
    with pytest.raises(DomainError):
        find_separating_prefix([((0,), (1,)), ((1,), (0,))])
    with pytest.raises(DomainError):
        find_separating_prefix([])
