"""Certificates of linear independence over the rationals.

Two pieces of evidence are produced and re-checked here.

* :class:`IntervalTraceWitness`: a window ``[n, n+1)`` in which every index
  set under consideration traces exactly ``[a, b_i)`` with one shared left
  endpoint ``a`` and pairwise distinct cuts ``b_i``.  Such a window forces the
  coded sums of those sets, together with 1, to be linearly independent over
  the rationals; the witness is re-verified by redoing the intersections.

* Tagged sums: a distance that is a sum of at most three tagged components
  (two block values drawn from distinct gauge families plus one hub value).
  The hypotheses that force independence are syntactic.  Each sum must pass
  :func:`tagged_sum_holds` on its own (distinct registered gauge tags, at most
  one hub component, not every component zero), and two sums must have
  different component multisets, which :func:`multiset_key` turns into a
  sort: two sums differ exactly when their keys do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .coded import CodedReal, _parse_int, equals
from .errors import DomainError
from .intervals import IntervalSet, _decode_once, _dict_key, _frac_str, _parse_frac


@dataclass(frozen=True)
class IntervalTraceWitness:
    """Shared-window trace data certifying Q-linear independence."""

    k: int
    window_start: Fraction
    base: Fraction
    cuts: tuple[Fraction, ...]
    index_sets: tuple[IntervalSet, ...]

    def verify(self) -> bool:
        """Recompute every trace from scratch and recheck the shape."""
        n = self.window_start
        if n < 0 or n.denominator != 1:
            return False
        if len(self.cuts) != len(self.index_sets):
            return False
        if len(set(self.cuts)) != len(self.cuts):
            return False
        n = int(n)
        for b, sett in zip(self.cuts, self.index_sets):
            if not self.base < b:
                return False
            trace = sett.window(n)
            if trace.blocks != ((self.base, b),):
                return False
        return True

    def to_json(self) -> dict:
        return {
            "kind": "interval-trace",
            "k": self.k,
            "window": [_frac_str(self.window_start), _frac_str(self.window_start + 1)],
            "base": _frac_str(self.base),
            "cuts": [_frac_str(b) for b in self.cuts],
            "index_sets": [s.to_json() for s in self.index_sets],
        }

    @staticmethod
    def from_json(data: dict) -> "IntervalTraceWitness":
        return IntervalTraceWitness(
            k=_parse_int(data["k"]),
            window_start=_parse_frac(data["window"][0]),
            base=_parse_frac(data["base"]),
            cuts=tuple(_parse_frac(b) for b in data["cuts"]),
            index_sets=tuple(IntervalSet.from_json(s) for s in data["index_sets"]),
        )


def find_interval_trace_witness(
    index_sets: Sequence[IntervalSet], k: int = 0
) -> IntervalTraceWitness | None:
    """Search for a shared window certifying independence of the given sets.

    Returns ``None`` when no window works; that is inconclusive, not a
    dependence proof.
    """
    if not index_sets:
        raise DomainError("need at least one index set")
    candidates: set[int] = set()
    for s in index_sets:
        candidates.update(s.integer_levels())
    for n in sorted(candidates):
        traces = [s.window(n) for s in index_sets]
        if any(len(t.blocks) != 1 for t in traces):
            continue
        starts = {t.blocks[0][0] for t in traces}
        if len(starts) != 1:
            continue
        base = starts.pop()
        cuts = tuple(t.blocks[0][1] for t in traces)
        if len(set(cuts)) != len(cuts):
            continue
        witness = IntervalTraceWitness(
            k=k,
            window_start=Fraction(n),
            base=base,
            cuts=cuts,
            index_sets=tuple(index_sets),
        )
        assert witness.verify()
        return witness
    return None


@dataclass(frozen=True)
class SumComponent:
    """One tagged summand of a composite distance value."""

    kind: str  # "block", "hub" or "zero"
    gauge_id: int | None = None
    hub_index: int | None = None
    detail: tuple[str, ...] = ()
    value: CodedReal = field(default_factory=CodedReal)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "gauge": self.gauge_id,
            "hub_index": self.hub_index,
            "detail": list(self.detail),
            "value": self.value.to_json(),
        }

    @staticmethod
    def from_json(data: dict) -> "SumComponent":
        return _decode_once(SumComponent._decode, data, _dict_key)

    @staticmethod
    def _decode(data: dict) -> "SumComponent":
        """A hub component's ``hub_index`` must be a JSON integer; any other
        component may leave it null."""
        hub_index = data.get("hub_index")
        if hub_index is not None or data["kind"] == "hub":
            hub_index = _parse_int(hub_index, "hub index")
        return SumComponent(
            kind=data["kind"],
            gauge_id=data.get("gauge"),
            hub_index=hub_index,
            detail=tuple(data.get("detail", ())),
            value=CodedReal.from_json(data["value"]),
        )


def tagged_sum_holds(side: Sequence[SumComponent], known_gauges: Iterable[int]) -> bool:
    """The syntactic hypotheses on one tagged sum.

    One to three components; the nonzero block components carry distinct
    gauges, all in ``known_gauges`` (a checker cannot vouch for families it
    has never registered); at most one hub component; and the sum is nonzero,
    since zero is dependent with everything.
    """
    if not 1 <= len(side) <= 3:
        return False
    zero = [c.value.is_zero_form() or equals(c.value, 0) for c in side]
    gauge_ids = [c.gauge_id for c, z in zip(side, zero) if c.kind == "block" and not z]
    if len(gauge_ids) != len(set(gauge_ids)) or not set(gauge_ids) <= set(known_gauges):
        return False
    if sum(c.kind == "hub" for c in side) > 1:
        return False
    return not all(zero)


def multiset_key(side: Sequence[SumComponent]) -> tuple[CodedReal, ...]:
    """Sort key of a tagged sum's multiset of component values: the values
    ordered by :meth:`CodedReal.sort_key`.

    Values are canonical forms, so two sums have equal keys exactly when
    their component multisets agree, tags and order aside.  The key hashes
    through the values' cached hashes.
    """
    return tuple(sorted((c.value for c in side), key=CodedReal.sort_key))
