"""Independent exhaustive oracles for the properties the pipeline promises.

Every oracle returns a :class:`Report` whose verdict is ``pass``, ``fail`` or
``unresolved``; a fail always carries a concrete witness, and a pass of an
exhaustive oracle really did check every instance.  Comparisons go through
the exact engine of :mod:`rigidmetrics.coded`.  The triangle oracles first
try one rigorous rational enclosure per distance and send only the instances
it cannot prove to the exact engine.

Strong rigidity, the distance embedding, self-isometry search and
near-collision grouping match entries by canonical form after folding them
onto their least exponent ladder (:func:`_by_value`).  Forms are unique on
one ladder, so matching forms means equal values and equality is never
unresolved; only ordering can be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal, Sequence

from .coded import (
    DEFAULT_MAX_PRECISION,
    CodedReal,
    Enclosure,
    EQUAL,
    GREATER,
    LESS,
    UNRESOLVED,
    _difference,
    _on_least_ladder,
    _ordering,
    compare,
)
from .errors import DomainError, PrecisionError, ResourceError
from .metric import FiniteMetric

Verdict = Literal["pass", "fail", "unresolved"]


@dataclass(frozen=True)
class Report:
    verdict: Verdict
    witnesses: tuple = ()
    detail: str = ""
    precision: int = DEFAULT_MAX_PRECISION

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witnesses": [list(map(str, w)) if isinstance(w, tuple) else str(w) for w in self.witnesses],
            "detail": self.detail,
            "precision": self.precision,
        }


def _enclosure_ends(
    d: FiniteMetric,
) -> tuple[list[list[int | None]], list[list[int | None]]]:
    """The ends of one ``eval(8)`` enclosure per distance, as the tables
    ``lo`` and ``hi`` of integer numerators over one shared positive
    denominator; ``None`` where eval is out of reach."""
    n = d.size
    encs: dict[tuple[int, int], Enclosure] = {}
    for i, j in d.pairs():
        try:
            encs[(i, j)] = _eval_halving(d.at(i, j))
        except PrecisionError:
            pass
    den = math.lcm(*(q.denominator for e in encs.values() for q in (e.lo, e.hi)))
    lo: list[list[int | None]] = [[None] * n for _ in range(n)]
    hi: list[list[int | None]] = [[None] * n for _ in range(n)]
    for (i, j), e in encs.items():
        lo[i][j] = lo[j][i] = e.lo.numerator * (den // e.lo.denominator)
        hi[i][j] = hi[j][i] = e.hi.numerator * (den // e.hi.denominator)
    return lo, hi


def _triangle_report(
    d: FiniteMetric, strict: bool, max_precision: int
) -> Report:
    """Positivity, then every triangle ``d(i,j) <= d(i,k) + d(k,j)``.

    A rational enclosure per distance is a sound prefilter: an entry whose
    enclosure lies above 0, or a triple with ``hi(i,j) < lo(i,k) + lo(k,j)``,
    is proved positive or strict without the exact engine.  Every other
    entry and triple takes the exact ``_difference``/``_ordering`` path in
    the same loop order, so the prefilter only skips instances the exact
    path would also prove and the report is the same.  The enclosure ends
    are integers over one shared denominator, so the prefilter adds and
    compares integers.
    """
    n = d.size
    lo, hi = _enclosure_ends(d)
    for i, j in d.pairs():
        if lo[i][j] is not None and lo[i][j] > 0:
            continue
        order = _ordering(d.at(i, j), max_precision)
        if order != GREATER:
            if order == UNRESOLVED:
                return Report("unresolved", ((d.points[i], d.points[j]),),
                              "positivity", max_precision)
            return Report("fail", ((d.points[i], d.points[j]),),
                          "nonpositive distance", max_precision)
    for i in range(n):
        for j in range(i + 1, n):
            hi_ij = hi[i][j]
            for k in range(n):
                if k == i or k == j:
                    continue
                lo_ik, lo_kj = lo[i][k], lo[k][j]
                if (hi_ij is not None and lo_ik is not None and lo_kj is not None
                        and hi_ij < lo_ik + lo_kj):
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


def is_metric(d: FiniteMetric, max_precision: int = DEFAULT_MAX_PRECISION) -> Report:
    """Symmetry, zero diagonal, positivity, and every triangle inequality."""
    return _triangle_report(d, strict=False, max_precision=max_precision)


def is_strict_triangle(
    d: FiniteMetric, max_precision: int = DEFAULT_MAX_PRECISION
) -> Report:
    return _triangle_report(d, strict=True, max_precision=max_precision)


def sup_distance(d: FiniteMetric, e: FiniteMetric) -> Enclosure:
    """Exact max of ``|d - e|`` over pairs, enclosure-valued for coded entries."""
    if d.points != e.points:
        raise DomainError("sup distance needs identical point sets")
    best = Enclosure(Fraction(0), Fraction(0))
    for i, j in d.pairs():
        diff = d.at(i, j) - e.at(i, j)
        enc = _abs_enclosure(diff)
        best = Enclosure(max(best.lo, enc.lo), max(best.hi, enc.hi))
    return best


def _eval_halving(value: CodedReal) -> Enclosure:
    """``value.eval(n)`` at the largest ``n`` reachable by halving 8 that
    stays within the eval size cap."""
    n = 8
    while True:
        try:
            return value.eval(n)
        except PrecisionError:
            if n == 0:
                raise
            n //= 2


def _abs_enclosure(value: CodedReal) -> Enclosure:
    enc = _eval_halving(value)
    if enc.lo >= 0:
        return enc
    if enc.hi <= 0:
        return Enclosure(-enc.hi, -enc.lo)
    return Enclosure(Fraction(0), max(-enc.lo, enc.hi))


def _by_value(tagged: Sequence[tuple[object, CodedReal]]) -> dict[CodedReal, list]:
    """The tags grouped by value, folded onto the family's least ladder."""
    groups: dict[CodedReal, list] = {}
    for (tag, _), value in zip(tagged, _on_least_ladder(v for _, v in tagged)):
        groups.setdefault(value, []).append(tag)
    return groups


def _distinctness(values: Sequence[tuple[tuple, CodedReal]]) -> tuple[Verdict, tuple]:
    """``fail`` with every group of tags that share one value, else ``pass``."""
    collisions = tuple(tuple(tags) for tags in _by_value(values).values() if len(tags) > 1)
    return ("fail", collisions) if collisions else ("pass", ())


def is_strongly_rigid(
    d: FiniteMetric, max_precision: int = DEFAULT_MAX_PRECISION
) -> Report:
    """No positive distance may be attained by two different point pairs."""
    tagged = [((d.points[i], d.points[j]), d.at(i, j)) for i, j in d.pairs()]
    return Report(*_distinctness(tagged), "pairwise distinct positive distances",
                  max_precision)


def _isometries(d: FiniteMetric, limit: int) -> Iterator[tuple[int, ...]]:
    """The distance-preserving self-bijections, as index permutations, in
    backtracking order with per-point distance-multiset fingerprints.  Each
    entry is keyed by the number of its value class (:func:`_by_value`), so
    the search is exact.  The point cap is checked on the call."""
    n = d.size
    if n > limit:
        raise ResourceError(f"isometry search capped at {limit} points")
    cells = [((i, j), d.at(i, j)) for i in range(n) for j in range(n)]
    classes = {ij: key for key, group in enumerate(_by_value(cells).values()) for ij in group}
    keys = [[classes[i, j] for j in range(n)] for i in range(n)]
    fingerprints = [tuple(sorted(keys[i][j] for j in range(n) if j != i)) for i in range(n)]
    candidates = [
        [j for j in range(n) if fingerprints[j] == fingerprints[i]] for i in range(n)
    ]
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    mapping = [-1] * n
    used = [False] * n

    def extend(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            yield tuple(mapping)
            return
        i = order[pos]
        for j in candidates[i]:
            if used[j]:
                continue
            if all(keys[i][prev] == keys[j][mapping[prev]] for prev in order[:pos]):
                mapping[i] = j
                used[j] = True
                yield from extend(pos + 1)
                used[j] = False
                mapping[i] = -1

    return extend(0)


def isometry_group(d: FiniteMetric, limit: int = 12) -> list[tuple[int, ...]]:
    """All distance-preserving self-bijections, as sorted index permutations."""
    return sorted(_isometries(d, limit))


def is_rigid(d: FiniteMetric, limit: int = 12) -> Report:
    """Only the identity preserves distances; a fail names the first other
    isometry the search finds, which ends it."""
    identity = tuple(range(d.size))
    extra = next((g for g in _isometries(d, limit) if g != identity), None)
    if extra is not None:
        return Report("fail", (extra,), "nontrivial self-isometry")
    return Report("pass", (), "only the identity isometry")


def lnm_membership(
    d: FiniteMetric, m: int, max_precision: int = DEFAULT_MAX_PRECISION
) -> Report:
    """Membership in the closed near-collision set at scale ``2^-m``.

    ``pass`` means a quadruple ``(x, y, u, v)`` exists with
    ``d(x,y) = d(u,v) >= 2^-m``, ``d(x,u) + d(y,v) >= 2^-m`` and
    ``d(x,v) + d(u,y) >= 2^-m``; ``fail`` means no quadruple qualifies.
    A strongly rigid metric is a non-member for every ``m``.
    """
    if m < 0:
        raise DomainError("scales are indexed by m >= 0")
    threshold = Fraction(1, 1 << m)
    groups = _by_value([((i, j), d.at(i, j)) for i, j in d.pairs()])
    saw_unresolved = False
    for value, pairs in groups.items():
        if len(pairs) < 2:
            continue
        order = compare(value, threshold, max_precision)
        if order == LESS:
            continue
        if order == UNRESOLVED:
            saw_unresolved = True
            continue
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                for x, y in (pairs[a], tuple(reversed(pairs[a]))):
                    for u, v in (pairs[b], tuple(reversed(pairs[b]))):
                        c1 = compare(d.at(x, u) + d.at(y, v), threshold, max_precision)
                        c2 = compare(d.at(x, v) + d.at(u, y), threshold, max_precision)
                        if c1 in (GREATER, EQUAL) and c2 in (GREATER, EQUAL):
                            witness = tuple(d.points[t] for t in (x, y, u, v))
                            return Report("pass", (witness,), f"member at m={m}",
                                          max_precision)
                        if UNRESOLVED in (c1, c2):
                            saw_unresolved = True
    if saw_unresolved:
        return Report("unresolved", (), f"membership at m={m} undecided",
                      max_precision)
    return Report("fail", (), f"non-member at m={m}", max_precision)


def lnm_scale_bound(d: FiniteMetric) -> int:
    """Largest scale index worth testing, two past the first ``m`` with
    ``2^-m`` at most the least positive distance: membership at any scale
    implies membership once ``2^-m`` drops below it."""
    least: Fraction | None = None
    for i, j in d.pairs():
        enc = _abs_enclosure(d.at(i, j))
        low = enc.lo
        if low <= 0:
            raise DomainError("positivity must hold before scale analysis")
        least = low if least is None else min(least, low)
    if least is None:
        raise DomainError("need at least one pair")
    m = 0
    while Fraction(1, 1 << m) > least:
        m += 1
    return m + 2


def lnm_never_member(d: FiniteMetric, max_precision: int = DEFAULT_MAX_PRECISION) -> Report:
    """Non-membership at every relevant scale (finite-space rigidity test)."""
    bound = lnm_scale_bound(d)
    for m in range(bound + 1):
        report = lnm_membership(d, m, max_precision)
        if report.verdict == "pass":
            return Report("fail", report.witnesses, f"member at m={m}", max_precision)
        if report.verdict == "unresolved":
            return Report("unresolved", (), f"undecided at m={m}", max_precision)
    return Report("pass", (), f"non-member for all m <= {bound}", max_precision)


def distance_embedding_check(
    d: FiniteMetric, xi: str, max_precision: int = DEFAULT_MAX_PRECISION
) -> Report:
    """Injectivity of ``x -> d(x, xi)`` (a topological embedding at finite scale)."""
    base = d.index(xi)
    tagged = [((d.points[i],), d.at(i, base)) for i in range(d.size)]
    return Report(*_distinctness(tagged), f"distance column at {xi}", max_precision)
