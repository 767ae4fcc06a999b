"""Exact arithmetic on set-coded real numbers.

A :class:`CodedReal` denotes the number

    offset + sum over terms of  coeff * <gamma_k, B>,

where ``<gamma_k, B>`` is the sum of ``2^(-(2^i + k))`` over all enumeration
indices ``i`` whose rational value lies in the index set ``B`` (a finite union
of half-open rational intervals, hence an infinite or empty set of rationals).
Empty sets contribute zero.

Terms are kept in a canonical weighted form: for each exponent offset ``k``
one sweep over the block endpoints, scaled to integers over a shared
denominator, accumulates the total weight of every elementary segment, and
segments are regrouped by weight, so equal weighted forms denote equal
numbers.  One rule, :func:`_merge_ladders`, makes the form from summands
that are canonical on their ladders: the parts of :meth:`CodedReal.build`,
one term each, and in a signed sum of values (:func:`_signed_sum`, behind
``+``, ``-`` and the package's n-ary sums) each value's terms on one
ladder.  A ladder that one summand alone touches keeps its terms times its
sign; only ladders that two or more summands touch are swept, once each.
A canonical value times a rational (:meth:`CodedReal.__mul__`) at most
re-sorts its terms.  This rests on one invariant: every ``CodedReal`` the
package makes comes out of :meth:`CodedReal.build` (or :func:`coded_sum`,
its one-part case), ``__mul__`` or :func:`_signed_sum`, so every summand is
canonical already.

The form is unique per ladder ``k`` only: since
``<gamma_k, B> = 2^-k <gamma_0, B>``, terms on different ladders can cancel
exactly while their canonical form stays nonzero.  :func:`_on_least_ladder`
folds a family onto its least ladder, where equal numbers have equal forms, so
:func:`equals` is decided without a budget; :func:`sign` folds its value
first.  A fold scales by ``2^(k - k0)``, so one across more than
``_MAX_EVAL_EXPONENT`` ladders raises ``PrecisionError``.

Two evaluation routes are provided.

* :meth:`CodedReal.eval` returns a rational :class:`Enclosure` by summing the
  first ``N + 1`` indices of each term exactly and adding the geometric tail
  bound ``2^(1 - (2^(N+1) + k))`` per term.  This materializes denominators of
  ``2^(2^(N+1))`` and is therefore capped at moderate ``N``.
* :func:`compare` decides signs symbolically: support indices of each weighted
  piece are enumerated structurally (per integer level of the index set), the
  un-enumerated remainder is bounded through the first index it could possibly
  occupy, and :func:`_dyadic_sign` decides the resulting sparse dyadic sums
  without ever expanding ``2^(-2^i)`` into an integer.  This is what makes
  comparisons involving indices like ``i = 2047`` (exponent ``2^2047``)
  feasible.

Before that scan, :func:`sign` tries one exact step,
:func:`_leading_index_sign`: the least enumeration index ``i0`` over the
value's term sets, which are disjoint on one ladder, decides the sign when
its weight (or the offset) provably outweighs everything past it, as two
two-entry sums for :func:`_dyadic_sign`.  The step is held to the budget:
it decides only when ``i0`` lies within the odd parts the scan walks at
that budget, and defers where the scan would raise.  A value whose least
index lies past the scan, such as a sliver whose simplest member is buried
deep in the Calkin-Wilf tree, is left to the scan and stays unresolved.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Sequence

from .enumeration import (
    fusc_pair,
    rational_at,
    simplest_in_open,
    tree_depth,
    unit_rational_index,
)
from .errors import DomainError, PrecisionError, ResourceError
from .intervals import IntervalSet, _as_fraction, _frac_str, _parse_frac

Ordering = Literal["less", "equal", "greater", "unresolved"]

LESS: Ordering = "less"
EQUAL: Ordering = "equal"
GREATER: Ordering = "greater"
UNRESOLVED: Ordering = "unresolved"

DEFAULT_MAX_PRECISION = 64

# eval() materializes 2^(-(2^(N+1)+k)) as Fractions, and a fold onto a lower
# ladder materializes 2^(k - k0); cap the exponent bits of both.
_MAX_EVAL_EXPONENT = 1 << 21
# Symbolic exponents 2^i are stored as ints of i bits; cap the index range.
_MAX_SYMBOLIC_INDEX = 1 << 21
# Index sets may not reach past this integer level (enumerated indices at
# level m start at 2^m - 1 and must stay within the symbolic range).
_MAX_LEVEL = 16
# Support scan always explores at least this many odd-part candidates per level.
_MIN_SCAN = 8


@dataclass(frozen=True)
class Enclosure:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("enclosure bounds out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def encloses(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __repr__(self) -> str:
        return f"Enclosure[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class ExponentSchedule:
    """The exponent ladder ``F(n) = 2^n + k`` for a fixed offset ``k >= 0``."""

    k: int = 0

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("schedule offset must be nonnegative")

    def exponent(self, n: int) -> int:
        if n < 0:
            raise ValueError("ladder positions are nonnegative")
        if n > _MAX_SYMBOLIC_INDEX:
            # 2^n itself would not fit in memory as an integer exponent.
            raise PrecisionError(f"ladder position {n} is out of reach")
        return (1 << n) + self.k


def gamma(schedule: ExponentSchedule | int, i: int) -> Fraction:
    """The dyadic value ``2^-(2^i + k)``, materialized exactly."""
    k = schedule.k if isinstance(schedule, ExponentSchedule) else int(schedule)
    e = ExponentSchedule(k).exponent(i)
    if e > _MAX_EVAL_EXPONENT:
        raise PrecisionError(
            f"2^-{e} has too many bits to materialize; use compare() instead"
        )
    return Fraction(1, 1 << e)


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    k: int
    index_set: IntervalSet


def _sweep_ladder(k: int, entries: list[tuple[Fraction, IntervalSet]]) -> list[Term]:
    """The canonical terms of ``sum coeff * <gamma_k, B>`` on one ladder.

    Every block endpoint is put over one shared integer denominator and every
    coefficient over another, each block adds ``+c`` at its start and ``-c``
    at its end, and a running integer weight over the sorted cuts gives every
    elementary segment its total weight.  Segments of one weight are
    collected in order, abutting ones merged, and the weights emitted in
    ascending order with zero dropped.  The result depends only on the weight
    function, so equal sums on one ladder get equal forms.  The blocks reuse
    the callers' endpoint objects.
    """
    cden = math.lcm(*(c.denominator for c, _ in entries))
    pden = math.lcm(*(p.denominator for _, s in entries for blk in s.blocks for p in blk))
    delta: dict[int, int] = {}
    endpoint: dict[int, Fraction] = {}
    for coeff, s in entries:
        c = coeff.numerator * (cden // coeff.denominator)
        for a, b in s.blocks:
            ia = a.numerator * (pden // a.denominator)
            ib = b.numerator * (pden // b.denominator)
            delta[ia] = delta.get(ia, 0) + c
            delta[ib] = delta.get(ib, 0) - c
            endpoint[ia] = a
            endpoint[ib] = b
    runs: dict[int, list[list[int]]] = {}
    w = 0
    prev = 0
    for x in sorted(delta):
        if w:
            blocks = runs.setdefault(w, [])
            if blocks and blocks[-1][1] == prev:
                blocks[-1][1] = x
            else:
                blocks.append([prev, x])
        w += delta[x]
        prev = x
    out = []
    for w in sorted(runs):
        sett = IntervalSet(tuple((endpoint[a], endpoint[b]) for a, b in runs[w]))
        out.append(Term(Fraction(w, cden), k, sett))
    return out


@dataclass(frozen=True)
class CodedReal:
    """``offset`` plus the sum of ``terms``, in canonical form.

    The constructor takes the terms as given, so they must be canonical
    already; :meth:`build`, :meth:`from_rational`, :func:`coded_sum` and the
    arithmetic operators make every value the package uses, and sums rely on
    their summands being canonical.
    """

    offset: Fraction = Fraction(0)
    terms: tuple[Term, ...] = ()

    @staticmethod
    def from_rational(q: Fraction | int) -> "CodedReal":
        return CodedReal(_as_fraction(q), ())

    @staticmethod
    def build(
        offset: Fraction | int,
        parts: Iterable[tuple[Fraction | int, int, IntervalSet]] = (),
    ) -> "CodedReal":
        """The canonical form of ``offset + sum coeff * <gamma_k, B>`` over
        ``parts``: a zero coefficient or an empty set is dropped, and each
        other part is its own summand of :func:`_merge_ladders`."""
        touched: dict[int, list[tuple[int, list[Term]]]] = {}
        for part in parts:
            term = _one_term(*part)
            if term is not None:
                touched.setdefault(term.k, []).append((1, [term]))
        return CodedReal(_as_fraction(offset), _merge_ladders(touched))

    @property
    def is_rational(self) -> bool:
        return not self.terms

    def rational_value(self) -> Fraction:
        if self.terms:
            raise DomainError("value has coded terms; use eval() or compare()")
        return self.offset

    def is_zero_form(self) -> bool:
        return self.offset == 0 and not self.terms

    def __add__(self, other: "CodedReal | Fraction | int") -> "CodedReal":
        return _signed_sum(((1, self), (1, as_coded(other))))

    __radd__ = __add__

    def __neg__(self) -> "CodedReal":
        return self * -1

    def __sub__(self, other: "CodedReal | Fraction | int") -> "CodedReal":
        return _difference(self, as_coded(other))

    def __rsub__(self, other: "CodedReal | Fraction | int") -> "CodedReal":
        return as_coded(other) - self

    def __mul__(self, scalar: Fraction | int) -> "CodedReal":
        """The value times a rational, its terms mapped in place.

        Scaling a canonical form by ``s != 0`` keeps every set and gives the
        weights of a ladder distinct new values, so the result is canonical
        once their order is restored: a negative ``s`` reverses the weights
        within each ladder, and one sort by ``(k, coeff)`` puts them back in
        ascending order.
        """
        s = Fraction(scalar)
        if s == 0:
            return CodedReal()
        terms = [Term(t.coeff * s, t.k, t.index_set) for t in self.terms]
        if s < 0:
            terms.sort(key=lambda t: (t.k, t.coeff))
        return CodedReal(self.offset * s, tuple(terms))

    __rmul__ = __mul__

    def eval(self, precision_index: int) -> Enclosure:
        """Rational enclosure from the first ``precision_index + 1`` indices.

        A pure offset ``q`` is enclosed by ``[q, q]``.  Otherwise hits and
        tail pads are added as integers over one denominator: the lcm of the
        offset and coefficient denominators times ``2^E``, where ``E`` is the
        largest tail exponent, and the two ends are built from them once.
        The enumeration values at those indices are read as integer pairs
        from one memoized list shared by all terms and calls.
        """
        n = precision_index
        if n < 0:
            raise ValueError("precision index must be nonnegative")
        if not self.terms:
            return Enclosure(self.offset, self.offset)
        tail_exps = []
        for term in self.terms:
            tail_exp = ExponentSchedule(term.k).exponent(n + 1) - 1
            if tail_exp > _MAX_EVAL_EXPONENT:
                raise PrecisionError(
                    f"eval at index {n} needs 2^{tail_exp}-bit rationals; "
                    "use compare() for symbolic decisions"
                )
            tail_exps.append(tail_exp)
        top = max(tail_exps, default=0)
        offset = self.offset
        scale = math.lcm(offset.denominator, *(t.coeff.denominator for t in self.terms))
        base = offset.numerator * (scale // offset.denominator) << top
        lo_pad = hi_pad = 0
        prefix = _enumeration_prefix(n + 1)
        for term, tail_exp in zip(self.terms, tail_exps):
            # hits in units of 2^-(2^n + k): index i weighs 2^(2^n - 2^i) of them
            hits = 0
            for i, (qn, qd) in enumerate(prefix):
                if term.index_set._block_index(qn, qd) >= 0:
                    hits += 1 << ((1 << n) - (1 << i))
            c = term.coeff.numerator * (scale // term.coeff.denominator)
            base += c * hits << (top - (1 << n) - term.k)
            if c > 0:
                hi_pad += c << (top - tail_exp)
            else:
                lo_pad += c << (top - tail_exp)
        den = scale << top
        return Enclosure(Fraction(base + lo_pad, den), Fraction(base + hi_pad, den))

    def __hash__(self) -> int:
        # the dataclass hash, computed once per instance and kept outside the
        # fields, so equality is unaffected
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.offset, self.terms))
            object.__setattr__(self, "_hash", h)
        return h

    def sort_key(self) -> tuple:
        """Deterministic total order on canonical forms (not the value order)."""
        return (
            self.offset,
            tuple((t.k, t.coeff, t.index_set.blocks) for t in self.terms),
        )

    def to_json(self) -> dict:
        """The offset and interval ends as ``p/q``, each coefficient by
        :func:`_coeff_str`."""
        return {
            "offset": _frac_str(self.offset),
            "terms": [
                {
                    "coeff": _coeff_str(t.coeff),
                    "k": t.k,
                    "intervals": t.index_set.to_json(),
                }
                for t in self.terms
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "CodedReal":
        offset = _parse_frac(data["offset"])
        if data.get("terms", []) == []:
            return CodedReal.from_rational(offset)
        return CodedReal.build(
            offset,
            [
                (
                    _parse_coeff(t["coeff"]),
                    _parse_int(t["k"]),
                    IntervalSet.from_json(t["intervals"]),
                )
                for t in data["terms"]
            ],
        )

    def __repr__(self) -> str:
        if not self.terms:
            return f"CodedReal({self.offset})"
        bits = [str(self.offset)] if self.offset else []
        bits += [f"{t.coeff}*<g{t.k}, {t.index_set!r}>" for t in self.terms]
        return "CodedReal(" + " + ".join(bits) + ")"


def _coeff_str(c: Fraction) -> str:
    """A term coefficient ``±2^e`` with ``e != 0`` as ``"2^e"`` or
    ``"-2^e"``; any other coefficient as ``p/q``."""
    n, d = abs(c.numerator), c.denominator
    # in lowest terms, c is ±2^e exactly when n * d is a power of two
    if n * d > 1 and (n * d) & (n * d - 1) == 0:
        return f"{'-' if c < 0 else ''}2^{n.bit_length() - d.bit_length()}"
    return _frac_str(c)


# a nonzero exponent in canonical decimal, as _coeff_str writes it
_POWER = re.compile(r"(-?)2\^(-?[1-9][0-9]*)")


def _parse_coeff(s: str) -> Fraction:
    """Read a term coefficient: ``"2^e"`` or ``"-2^e"`` as ``±2^e``, any
    other spelling by :func:`~rigidmetrics.intervals._parse_frac`.

    Any other spelling that starts like a power (``"2^"``, ``"2^1.5"``,
    ``"2^-03"``) raises ``ValueError``; an exponent of greater absolute
    value than ``_MAX_EVAL_EXPONENT`` raises ``ResourceError`` before any
    power is built.
    """
    if not (isinstance(s, str) and "^" in s):
        return _parse_frac(s)
    m = _POWER.fullmatch(s)
    if m is None:
        raise ValueError(f"malformed power-of-two coefficient {s!r}")
    digits = m[2].lstrip("-")
    if len(digits) > len(str(_MAX_EVAL_EXPONENT)) or int(digits) > _MAX_EVAL_EXPONENT:
        raise ResourceError(f"coefficient exponent too large to read: {s[:40]}")
    e = int(m[2])
    power = Fraction(1 << e) if e > 0 else Fraction(1, 1 << -e)
    return -power if m[1] else power


def _parse_int(value: object, what: str = "ladder offset k") -> int:
    """Read ``what``, which must be a JSON integer.

    ``bool`` is an ``int`` in Python but ``true`` is not an integer in JSON,
    and ``int`` would truncate ``1.5``; both raise ``ValueError``, as does a
    string such as ``"0"``.
    """
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


_enumerated: list[tuple[int, int]] = []


def _enumeration_prefix(count: int) -> list[tuple[int, int]]:
    """``rational_at(0), ..., rational_at(count - 1)`` as (numerator,
    denominator) pairs, memoized for eval."""
    while len(_enumerated) < count:
        q = rational_at(len(_enumerated))
        _enumerated.append((q.numerator, q.denominator))
    return _enumerated[:count]


def as_coded(value: "CodedReal | Fraction | int") -> CodedReal:
    if isinstance(value, CodedReal):
        return value
    return CodedReal.from_rational(value)


_ZERO = Fraction(0)


def _signed_sum(signed: Iterable[tuple[int, CodedReal]]) -> CodedReal:
    """``sum sign * value`` over ``(sign, value)`` pairs, each sign ``+1`` or
    ``-1``, each value canonical, in one pass: a value's terms on one ladder
    are one group of :func:`_merge_ladders`.  The result is canonical, with
    the form :meth:`CodedReal.build` gives the raw parts.
    """
    offset = _ZERO
    touched: dict[int, list[tuple[int, list[Term]]]] = {}
    for s, v in signed:
        if v.offset:
            offset = offset + v.offset if s > 0 else offset - v.offset
        k_prev = None
        for t in v.terms:
            if t.k != k_prev:
                k_prev = t.k
                group: list[Term] = []
                touched.setdefault(k_prev, []).append((s, group))
            group.append(t)
    return CodedReal(offset, _merge_ladders(touched))


def _merge_ladders(touched: dict[int, list[tuple[int, list[Term]]]]) -> tuple[Term, ...]:
    """The canonical terms of the signed groups in ``touched``, ladders in
    ascending order.

    ``touched[k]`` lists ``(sign, terms)`` groups, each a canonical form on
    ladder ``k``.  A ladder that one group alone touches keeps that group's
    terms, times its sign: for ``-1`` their order is reversed, as
    :meth:`CodedReal.__mul__` would re-sort them.  Every ladder that two or
    more groups touch is swept once (:func:`_sweep_ladder`) over all of
    their terms, in order.
    """
    terms: list[Term] = []
    for k in sorted(touched):
        groups = touched[k]
        if len(groups) == 1:
            s, group = groups[0]
            if s > 0:
                terms += group
            else:
                terms += [Term(-t.coeff, k, t.index_set) for t in reversed(group)]
        else:
            terms += _sweep_ladder(
                k, [(t.coeff if s > 0 else -t.coeff, t.index_set) for s, g in groups for t in g]
            )
    return tuple(terms)


def _difference(x: CodedReal, *ys: CodedReal) -> CodedReal:
    """``x - (y1 + y2 + ...)``, as one signed sum."""
    return _signed_sum([(1, x), *((-1, y) for y in ys)])


def _one_term(coeff: Fraction | int, k: int, index_set: IntervalSet) -> Term | None:
    """``coeff * <gamma_k, index_set>`` as one canonical term, or None when it
    is zero (a zero coefficient or an empty set)."""
    coeff = _as_fraction(coeff)
    if k < 0:
        raise ValueError("schedule offset must be nonnegative")
    return Term(coeff, k, index_set) if coeff and not index_set.is_empty else None


def coded_sum(k: int, index_set: IntervalSet, coeff: Fraction | int = 1) -> CodedReal:
    """The number ``coeff * <gamma_k, index_set>``: the one-part case of
    :meth:`CodedReal.build`, whose canonical form is its one term."""
    term = _one_term(coeff, k, index_set)
    return CodedReal(terms=(term,)) if term is not None else CodedReal()


# ---------------------------------------------------------------------------
# symbolic sign machinery
# ---------------------------------------------------------------------------


def _sgn(x: Fraction | int) -> int:
    return (x > 0) - (x < 0)


def _merge_entries(entries: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    acc: dict[int, int] = {}
    for e, c in entries:
        acc[e] = acc.get(e, 0) + c
    return sorted((e, c) for e, c in acc.items() if c != 0)


def _dyadic_sign(entries: Sequence[tuple[int, int]]) -> int:
    """Exact sign of ``sum c * 2^-e`` over sorted, merged ``(e, c)`` entries,
    ``c`` integers.  The entries still to come weigh less than ``rest`` units
    of the next exponent, so a nonzero running sum decides once the gap to it
    exceeds ``rest``'s bit length: no shift is longer than the coefficients,
    however far apart the exponents lie."""
    rest = sum(abs(c) for _, c in entries)
    acc = e_acc = 0
    for e, c in entries:
        if acc:
            gap = e - e_acc
            if gap > rest.bit_length():
                break
            acc <<= gap
        acc += c
        rest -= abs(c)
        e_acc = e
    return _sgn(acc)


def _scan_length(m: int, index_cap: int) -> int:
    """How many odd parts the support scan walks at level ``m``."""
    return max(_MIN_SCAN, (index_cap + 1) >> (m + 1))


def _shallowest(u: Fraction, v: Fraction) -> tuple[Fraction, int]:
    """The member of ``[u, v)``, ``0 < u < v <= 1``, of least Calkin-Wilf
    depth, with that depth: the shallower of ``u`` and the simplest rational
    inside (two rationals of one depth have a shallower one between them)."""
    x = simplest_in_open(u, v)
    depth, left_depth = tree_depth(x), tree_depth(u)
    return (u, left_depth) if left_depth < depth else (x, depth)


def _depth_bound(m: int, depth: int) -> int:
    """A lower bound on the index of ``m + x`` for ``x`` in ``(0, 1)`` of
    Calkin-Wilf depth ``depth``, which is ``2^m * (2^depth + 1) - 1``, or
    ``_MAX_SYMBOLIC_INDEX`` once that is larger."""
    if depth >= _MAX_SYMBOLIC_INDEX.bit_length():
        return _MAX_SYMBOLIC_INDEX
    return (1 << m) * ((1 << depth) + 1) - 1


def _piece_support(
    k: int, index_set: IntervalSet, index_cap: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Support exponents and per-level tail-bound exponents of an index set.

    The support part lists ``2^i + k`` for every enumerated index ``i`` with
    value inside the set; each tail exponent ``e`` bounds the un-enumerated
    remainder of one integer level by ``2^(1-e)``.  At level ``m`` the scan
    walks the odd parts ``j`` with ``fusc_pair(j) = (a, b)`` stepped as
    integers, and finds the fragment of the set's trace on ``[m, m+1)``
    holding ``m + a/(a+b)`` by integer membership.
    """
    sched = ExponentSchedule(k)
    support: list[int] = []
    tails: list[int] = []
    for m in index_set.integer_levels():
        if m > _MAX_LEVEL:
            raise PrecisionError(f"index set reaches level {m}; out of range")
        trace = index_set.window(m)
        scan = _scan_length(m, index_cap)
        frag_hit = [False] * len(trace.blocks)
        if trace.blocks[0][0] == m:
            support.append(sched.exponent((1 << m) - 1))
            frag_hit[0] = True
        a, b = fusc_pair(1)
        for j in range(1, scan + 1):
            # the j-th rational of (0, 1) is a/(a+b)
            t = trace._block_index(m * (a + b) + a, a + b)
            if t >= 0:
                support.append(sched.exponent((1 << m) * (2 * j + 1) - 1))
                frag_hit[t] = True
            a, b = b, a + b - 2 * (a % b)  # fusc_pair(j + 1), by Newman's step
        enum_lb = (1 << m) * (2 * scan + 3) - 1
        level_lb = None
        for t, (u, v) in enumerate(trace.blocks):
            if frag_hit[t]:
                frag_lb = enum_lb
            else:
                # No hit found by scanning: bound the fragment through the
                # tree depth of its shallowest member.
                _, depth = _shallowest(u - m, v - m)
                frag_lb = max(enum_lb, _depth_bound(m, depth))
            level_lb = frag_lb if level_lb is None else min(level_lb, frag_lb)
        if level_lb is not None:
            tails.append(sched.exponent(min(level_lb, _MAX_SYMBOLIC_INDEX)))
    return tuple(support), tuple(tails)


def _fold_onto(value: CodedReal, k0: int) -> CodedReal:
    """The same number with every term moved onto ladder ``k0``, which must
    not exceed any of its ladders; values already on ``k0`` alone are
    returned as they are.  A fold across more than ``_MAX_EVAL_EXPONENT``
    ladders raises ``PrecisionError``."""
    if all(t.k == k0 for t in value.terms):
        return value
    span = max(t.k for t in value.terms) - k0
    if span > _MAX_EVAL_EXPONENT:
        raise PrecisionError(f"folding across {span} ladders would build 2^{span}")
    return CodedReal.build(
        value.offset,
        [(t.coeff / (1 << (t.k - k0)), k0, t.index_set) for t in value.terms],
    )


def _on_least_ladder(values: Iterable[CodedReal]) -> list[CodedReal]:
    """The values with every term moved onto the least ladder of the whole
    family, where two values are equal exactly when their forms are (see
    :func:`equals`); a family on fewer than two ladders comes back as the
    same objects."""
    values = list(values)
    ladders = {t.k for v in values for t in v.terms}
    if len(ladders) < 2:
        return values
    k0 = min(ladders)
    return [_fold_onto(v, k0) for v in values]


def _leading_index_sign(value: CodedReal, max_precision: int) -> int | None:
    """The sign of a value with terms on one ladder ``k``, read off its least
    enumeration index ``i0``, or None to leave it to the support scan.

    Canonical term sets on one ladder are disjoint, so with the weights
    scaled to integers the coded part is ``sum c_i 2^-(2^i + k)``, each
    ``c_i`` the weight of the set holding ``i``.  Let ``W`` be the largest
    weight in absolute value and ``w0`` the weight at ``i0``.  The indices
    past ``i0`` sum below ``2W * 2^-(2^(i0+1) + k)``, so ``w0`` gives the
    sign of the coded part once ``|w0| * 2^(2^i0) > 2W`` (never at
    ``i0 = 0``), and the whole coded part is below ``2W * 2^-(2^i0 + k)``,
    which an offset of the other sign must reach to win.  With
    ``e = 2^i0 + k``, :func:`_dyadic_sign` decides both as two-entry sums,
    ``|w0| * 2^-e - 2W * 2^-(e + 2^i0)`` and ``p - 2W * q * 2^-e`` for the
    scaled offset ``p / q``, shifting by no more than their bit lengths
    however large ``k``; ``2^i0`` is built, within ``_MAX_SYMBOLIC_INDEX``.

    The least index of a block ``[a, b)``, ``m = floor(a)``, is ``2^m - 1``
    when ``a = m`` and ``2^(m+1) - 1`` when ``b > m + 1``.  Any other block
    lies in ``(m, m + 1]`` and its least index is at least ``3 * 2^m - 1``;
    it is made exact, from the shallower of its left end and the simplest
    rational inside it, only while it could be the least.  The step decides
    only from an index the support scan itself reaches at ``max_precision``:
    it defers when ``i0`` has its odd part past that scan, or may lie in a
    block whose least index is past it, and where the scan would raise
    ``PrecisionError`` (a block past ``_MAX_LEVEL``, or ``i0`` past
    ``_MAX_SYMBOLIC_INDEX``).
    """
    scale = math.lcm(*(t.coeff.denominator for t in value.terms))
    top = 0  # twice the largest weight
    weight_at: dict[int, int] = {}  # least index of a block, odd part within the scan
    inner: list[tuple[int, int, Fraction, Fraction, int]] = []  # (lower bound, m, a, b, weight)
    for t in value.terms:
        w = t.coeff.numerator * (scale // t.coeff.denominator)
        top = max(top, 2 * abs(w))
        end = t.index_set.blocks[-1][1]
        if end.numerator > (_MAX_LEVEL + 1) * end.denominator:
            return None
        for a, b in t.index_set.blocks:
            m = a.numerator // a.denominator
            if a.denominator == 1:
                i = (1 << m) - 1
            elif b.numerator > (m + 1) * b.denominator:
                i = (2 << m) - 1
            else:
                inner.append(((3 << m) - 1, m, a, b, w))
                continue
            # an integer is the least index of its block, and every later
            # block lies on higher levels, whose indices are larger
            weight_at[i] = weight_at.get(i, 0) + w
            break
    best = min(weight_at, default=math.inf)
    past = math.inf  # least lower bound on a block whose least index is past the scan
    inner.sort()
    for bound, m, a, b, w in inner:
        if bound > best:
            break
        x, depth = _shallowest(a - m, b - m)
        # the odd part 2j + 1 of its index has j >= 2^(depth - 1)
        scan = _scan_length(m, max_precision)
        if depth > scan.bit_length():
            past = min(past, _depth_bound(m, depth))
            continue
        j = unit_rational_index(x)
        index = (1 << m) * (2 * j + 1) - 1
        if j > scan:
            past = min(past, index)
        else:
            weight_at[index] = weight_at.get(index, 0) + w
            best = min(best, index)
    if past <= best or best > _MAX_SYMBOLIC_INDEX:
        return None
    i0, w0 = best, weight_at[best]
    e = (1 << i0) + value.terms[0].k
    if _dyadic_sign([(e, abs(w0)), (e + (1 << i0), -top)]) <= 0:
        return None
    lead = 1 if w0 > 0 else -1
    offset = value.offset
    if offset == 0 or (offset > 0) == (lead > 0):
        return lead
    p, q = abs(offset.numerator) * scale, offset.denominator
    if _dyadic_sign([(0, p), (e, -top * q)]) < 0:
        return None
    return -lead


def sign(
    value: CodedReal,
    max_precision: int = DEFAULT_MAX_PRECISION,
    extra: Sequence[tuple[int, Fraction]] = (),
) -> int | None:
    """Exact sign of ``value`` plus optional symbolic dyadic addends.

    ``extra`` entries are exact ``(exponent, coefficient)`` contributions of
    ``coefficient * 2^-exponent``.  Returns ``None`` when unresolved within
    the precision budget.  Canonical forms are unique per ladder only, so a
    value whose terms span several ladders is first folded onto the least
    one; exact zeros that span ladders then cancel and get sign 0.

    Without ``extra``, the folded value's least enumeration index is tried
    first (:func:`_leading_index_sign`).  It decides only from an index the
    support scan reaches at ``max_precision``, so a value whose least index
    lies past that scan, such as a sliver whose simplest member is buried
    deep in the tree, goes on to the scan at caps 16, 64 and
    ``max_precision`` and comes back None when none of them settles it.
    """
    (value,) = _on_least_ladder([value])
    if not extra:
        if not value.terms:
            return _sgn(value.offset)
        lead = _leading_index_sign(value, max_precision)
        if lead is not None:
            return lead
    caps = sorted({min(16, max_precision), min(64, max_precision), max_precision})
    for cap in caps:
        result = _sign_once(value, cap, extra)
        if result is not None:
            return result
    return None


def _sign_once(
    value: CodedReal,
    index_cap: int,
    extra: Sequence[tuple[int, Fraction]] = (),
) -> int | None:
    """The sign of ``value`` plus ``extra`` from one support scan, or None:
    both ends of its enclosure, scaled to integers, are dyadic sums with the
    offset as the entry ``(0, p)``."""
    denoms = [t.coeff.denominator for t in value.terms]
    denoms += [c.denominator for _, c in extra]
    scale = math.lcm(value.offset.denominator, *denoms)
    events = [(0, int(value.offset * scale))]
    events += [(e, int(c * scale)) for e, c in extra]
    lo_pad: list[tuple[int, int]] = []
    hi_pad: list[tuple[int, int]] = []
    for term in value.terms:
        # support events of w * <gamma_k, B>, and its tail bounds 2 * w each
        w = int(term.coeff * scale)
        support, tail_exps = _piece_support(term.k, term.index_set, index_cap)
        events.extend((e, w) for e in support)
        (hi_pad if w > 0 else lo_pad).extend((e, 2 * w) for e in tail_exps)
    lo_sign = _dyadic_sign(_merge_entries(events + lo_pad))
    hi_sign = _dyadic_sign(_merge_entries(events + hi_pad))
    if lo_sign > 0:
        return 1
    if hi_sign < 0:
        return -1
    if lo_sign == 0 and hi_sign == 0:
        return 0
    return None


def _ordering(
    value: CodedReal,
    max_precision: int,
    extra: Sequence[tuple[int, Fraction]] = (),
) -> Ordering:
    """The ordering of ``value`` plus ``extra`` against zero.

    A zero form with no extra addends is ``EQUAL`` without a sign search.
    """
    if not extra and value.is_zero_form():
        return EQUAL
    s = sign(value, max_precision, extra)
    if s is None:
        return UNRESOLVED
    if s == 0:
        return EQUAL
    return GREATER if s > 0 else LESS


def compare(
    x: CodedReal | Fraction | int,
    y: CodedReal | Fraction | int,
    max_precision: int = DEFAULT_MAX_PRECISION,
) -> Ordering:
    """Exact three-way comparison with an explicit unresolved verdict."""
    return _ordering(as_coded(x) - as_coded(y), max_precision)


def gamma_compare(
    value: CodedReal | Fraction | int,
    coeff: Fraction | int,
    k: int,
    position: int,
    max_precision: int = DEFAULT_MAX_PRECISION,
) -> Ordering:
    """Compare ``value`` against ``coeff * 2^-(2^position + k)`` exactly.

    Works at ladder positions far beyond what :func:`gamma` can materialize.
    """
    e = ExponentSchedule(k).exponent(position)
    return _ordering(as_coded(value), max_precision, ((e, -Fraction(coeff)),))


def equals(x: CodedReal | Fraction | int, y: CodedReal | Fraction | int) -> bool:
    """Exact equality, never unresolved: the forms agree on the least ladder.
    Only a fold across more than ``_MAX_EVAL_EXPONENT`` ladders raises
    ``PrecisionError``.

    On one ladder ``k``, distinct forms denote distinct numbers.  Were they
    equal, pick a deep index ``n`` where the integer-scaled weights differ:
    times ``2^(2^n + k)`` all is an integer but a tail below 1, and all other
    indices contribute multiples of ``2^(2^n - 2^(n-1))``, which the bounded
    weight at ``n`` is not.  Index sets are infinite or empty, so such ``n``
    exist beyond every bound.
    """
    x, y = _on_least_ladder([as_coded(x), as_coded(y)])
    return x == y
