"""Seeded input generators for the benchmark workloads.

These live with the benchmark rather than in the test suite, so that an edit
to the tests cannot shift what the benchmark measures.  Every generator takes
a ``random.Random`` and returns plain JSON payloads in the ``FiniteMetric``
file format; the program only ever sees the files written from them.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def metric_payload(labels: list[str], dist) -> dict:
    """``FiniteMetric`` JSON for a symmetric rational distance function."""
    n = len(labels)
    matrix = [
        [
            {"offset": _frac(Fraction(0) if i == j else dist(min(i, j), max(i, j))),
             "terms": []}
            for j in range(n)
        ]
        for i in range(n)
    ]
    return {"points": labels, "matrix": matrix}


def spread_metric(rng: random.Random, n: int, den: int = 8) -> dict:
    """Distances in ``[1, 2]`` on a grid of step ``1/den``.

    Every entry is at most twice every other, so the triangle inequality
    holds automatically; with budget 1/2 every point becomes its own block.
    """
    labels = [f"p{i}" for i in range(n)]
    values = {
        (i, j): Fraction(rng.randint(den, 2 * den), den)
        for i in range(n)
        for j in range(i + 1, n)
    }
    return metric_payload(labels, lambda i, j: values[(i, j)])


def clustered_metric(
    rng: random.Random, clusters: int, size: int, intra_den: int = 64
) -> dict:
    """Clusters of diameter at most ``2 / intra_den`` whose cross distances
    come from one representative distance in ``[1, 2]`` per cluster pair."""
    reps = {
        (a, b): Fraction(rng.randint(8, 16), 8)
        for a in range(clusters)
        for b in range(a + 1, clusters)
    }
    labels = [f"c{a}x{t}" for a in range(clusters) for t in range(size)]
    values = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            a, b = i // size, j // size
            if a == b:
                values[(i, j)] = Fraction(
                    rng.randint(intra_den, 2 * intra_den), intra_den * intra_den
                )
            else:
                values[(i, j)] = reps[(a, b)]
    return metric_payload(labels, lambda i, j: values[(i, j)])


MIXED_DENOMINATORS = (2, 3, 5, 7, 8, 9, 12)
MIXED_EPSILONS = ("1/2", "1/3", "1/4", "1/5", "1/8")


def mixed_metric(rng: random.Random, n: int) -> dict:
    """Distances in ``[1, 2]`` whose denominators vary entry by entry."""
    labels = [f"m{i}" for i in range(n)]
    values = {}
    for i in range(n):
        for j in range(i + 1, n):
            q = rng.choice(MIXED_DENOMINATORS)
            values[(i, j)] = Fraction(rng.randint(q, 2 * q), q)
    return metric_payload(labels, lambda i, j: values[(i, j)])
