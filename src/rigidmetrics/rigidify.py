"""Strongly rigid perturbation of a finite rational metric.

The pipeline: snap the metric onto the grid ``eta * Z`` (ceiling entrywise,
``eta = epsilon / 2``), rescale to integers, and replace the integer ``N`` of
each point pair by a fresh rational that the registry draws, salted with the
pair's index, inside :func:`subadditive_window` ``(N + 1/(N+2), N + 1/(N+1))``,
the one window family of the package (``glue`` places hub values in it too).
Values from these windows satisfy the strict triangle inequality whenever the
integers do: ``N1 <= N2 + N3`` forces ``M1 < M2 + M3`` (if ``N1 < N2 + N3``,
then ``M1 < N1 + 1 <= N2 + N3 < M2 + M3``; if ``N1 = N2 + N3`` with
``N3 >= 1``, then ``1/(N1+1) <= 1/(N2+2)``, below the sum of the two lower
fractional ends), and a window's ends have O(log N) digits.  Pairwise
distinctness comes from the registry never drawing a value twice, and scaling
back by ``eta`` lands within ``epsilon`` of the input in sup distance.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .metric import FiniteMetric
from .registry import ValueRegistry


def snap_to_grid(d: FiniteMetric, eta: Fraction) -> FiniteMetric:
    """Round every off-diagonal entry up to the grid ``eta * Z>=1``.

    Ceiling is subadditive, so the triangle inequality survives; entries move
    by less than ``eta`` and stay positive.
    """
    eta = Fraction(eta)
    if eta <= 0:
        raise DomainError("grid step must be positive")
    if not d.is_rational_valued():
        raise DomainError("grid snapping requires rational entries")

    def snapped(i: int, j: int) -> Fraction:
        value = d.at(i, j).rational_value()
        if value <= 0:
            raise DomainError("off-diagonal entries must be positive")
        return eta * math.ceil(value / eta)

    return FiniteMetric.from_pair_function(d.points, snapped)


def subadditive_window(n: int) -> tuple[Fraction, Fraction]:
    """The open window ``(n + 1/(n+2), n + 1/(n+1))`` of an integer ``n >= 1``."""
    if n < 1:
        raise DomainError("window index must be at least 1")
    return n + Fraction(1, n + 2), n + Fraction(1, n + 1)


def perturb_strongly_rigid(
    d: FiniteMetric,
    epsilon: Fraction,
    seed: int = 0,
) -> FiniteMetric:
    """A strongly rigid, uniformly discrete metric within ``epsilon`` of ``d``.

    The output satisfies the strict triangle inequality, no positive value
    repeats, and the sup distance to ``d`` is at most ``epsilon`` (exactly).
    Deterministic given ``(d, epsilon, seed)``.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if d.size < 2:
        raise DomainError("need at least two points")
    eta = epsilon / 2
    snapped = snap_to_grid(d, eta)
    registry = ValueRegistry(seed)

    chosen: dict[tuple[int, int], Fraction] = {}
    # one salt per pair, in lexicographic pair order
    for alpha, (i, j) in enumerate(snapped.pairs()):
        n = int(snapped.at(i, j).rational_value() / eta)
        chosen[(i, j)] = eta * registry.draw_value(*subadditive_window(n), salt=alpha)

    return FiniteMetric.from_pair_function(d.points, lambda i, j: chosen[(i, j)])
