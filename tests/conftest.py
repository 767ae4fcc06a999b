import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from rigidmetrics.metric import FiniteMetric


def rational_metric(
    rng: random.Random,
    n: int,
    low: Fraction = Fraction(1),
    den: int = 8,
) -> FiniteMetric:
    """Random exact metric with values in [low, 2*low] (triangle automatic)."""
    labels = [f"p{i}" for i in range(n)]
    values = {
        (i, j): low * Fraction(rng.randint(den, 2 * den), den)
        for i in range(n)
        for j in range(i + 1, n)
    }
    return FiniteMetric.from_pair_function(labels, lambda i, j: values[(i, j)])


def clustered_metric(
    rng: random.Random, clusters: int, size: int, intra_den: int = 64
) -> FiniteMetric:
    """Clusters with tiny internal distances; cross distances from the reps."""
    reps = {
        (a, b): Fraction(rng.randint(8, 16), 8)
        for a in range(clusters)
        for b in range(a + 1, clusters)
    }
    labels = [f"c{a}x{t}" for a in range(clusters) for t in range(size)]

    def dist(i: int, j: int) -> Fraction:
        a, s = divmod(i, size)
        b, t = divmod(j, size)
        if a == b:
            return Fraction(rng.randint(intra_den, 2 * intra_den), intra_den * intra_den)
        return reps[(min(a, b), max(a, b))]

    values = {(i, j): dist(i, j) for i in range(len(labels)) for j in range(i + 1, len(labels))}
    return FiniteMetric.from_pair_function(labels, lambda i, j: values[(i, j)])


@st.composite
def mixed_scale_metrics(draw):
    """``(metric, epsilon)``: tight clusters at least 1 apart, points shuffled.

    With ``a = epsilon / 40``, distances inside a cluster lie in ``[a, 2a]``,
    far under the ``epsilon / 10`` radius of the partition, and the first
    cluster has at least two points.  Points of clusters ``A != B`` are
    ``D(A, B) + s_x + s_y`` apart with ``D`` in ``[1, 3/2]`` and shifts ``s``
    in ``[0, a/2]``; shifts differ by less than any distance inside a
    cluster, and three cross distances lie in ``[1, 2]``, so every triangle
    holds.
    """
    epsilon = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
    a = epsilon / 40
    sizes = [draw(st.integers(2, 3))]
    sizes += draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    cluster = [c for c, size in enumerate(sizes) for _ in range(size)]
    n = len(cluster)
    order = draw(st.permutations(range(n)))
    cluster = [cluster[t] for t in order]

    def frac(lo: Fraction, hi: Fraction) -> Fraction:
        return lo + (hi - lo) * Fraction(draw(st.integers(0, 8)), 8)

    shift = [frac(Fraction(0), a / 2) for _ in range(n)]
    far = {
        (b, c): frac(Fraction(1), Fraction(3, 2))
        for b in range(len(sizes))
        for c in range(b + 1, len(sizes))
    }

    def dist(i: int, j: int) -> Fraction:
        b, c = sorted((cluster[i], cluster[j]))
        if b == c:
            return frac(a, 2 * a)
        return far[(b, c)] + shift[i] + shift[j]

    labels = [f"c{cluster[i]}p{i}" for i in range(n)]
    return FiniteMetric.from_pair_function(labels, dist), epsilon


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)
