"""Certificates of linear independence over the rationals.

Two pieces of evidence are produced and re-checked here.

* Interval-trace witnesses: a window ``[n, n+1)`` in which every index set
  under consideration traces exactly ``[a, b_i)`` with one shared left
  endpoint ``a`` and pairwise distinct cuts ``b_i``.  Such a window forces the
  coded sums of those sets, together with 1, to be linearly independent over
  the rationals.  :func:`find_interval_trace_witness` returns the window's
  index ``n``, so a checker runs the search itself and nothing is stored.

* Tagged sums: a distance that is a sum of at most three nonzero tagged
  components (two block values drawn from distinct gauge families plus one
  hub value).  The hypotheses that force independence are syntactic.  Each
  sum must pass :func:`tagged_sum_holds` on its own (block and hub values
  only, none of them 0, distinct registered gauge tags, at most one hub
  component), and two sums must have different component multisets, which
  :func:`multiset_key` turns into a sort: two sums differ exactly when their
  keys do.  A certificate row states a sum's :class:`SumComponent` objects,
  which the builder and the checker both derive; none is ever decoded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .coded import CodedReal, equals
from .errors import DomainError
from .intervals import IntervalSet


def find_interval_trace_witness(index_sets: Sequence[IntervalSet]) -> int | None:
    """The least integer ``n`` whose window ``[n, n+1)`` certifies
    independence of the given sets: each traces one block there, all blocks
    share their start, and their ends are pairwise distinct.

    Returns ``None`` when no window works; that is inconclusive, not a
    dependence proof.  Window 0 is falsy, so callers test ``is None``.
    """
    if not index_sets:
        raise DomainError("need at least one index set")
    candidates: set[int] = set()
    for s in index_sets:
        candidates.update(s.integer_levels())
    for n in sorted(candidates):
        traces = [s.window(n) for s in index_sets]
        if (all(len(t.blocks) == 1 for t in traces)
                and len({t.blocks[0][0] for t in traces}) == 1
                and len({t.blocks[0][1] for t in traces}) == len(traces)):
            return n
    return None


@dataclass(frozen=True)
class SumComponent:
    """One tagged summand of a composite distance value."""

    kind: str  # "block" or "hub"
    gauge_id: int | None = None
    hub_index: int | None = None
    detail: tuple[str, ...] = ()
    value: CodedReal = field(default_factory=CodedReal)

    def to_json(self, spell: Callable[[CodedReal], dict] = CodedReal.to_json) -> dict:
        """The component's JSON, its value spelled by ``spell``."""
        tag = {"gauge": self.gauge_id} if self.kind == "block" else {"hub_index": self.hub_index}
        return {"kind": self.kind, **tag, "detail": list(self.detail),
                "value": spell(self.value)}


def tagged_sum_holds(side: Sequence[SumComponent], known_gauges: Iterable[int]) -> bool:
    """The syntactic hypotheses on one tagged sum.

    One to three components, each a block or hub value that is not 0 (a zero
    summand leaves the sum as it is but changes its multiset); the block
    components carry distinct gauges, all in ``known_gauges`` (a checker
    cannot vouch for families it has never registered); and at most one hub
    component.
    """
    if not 1 <= len(side) <= 3:
        return False
    if any(c.kind not in ("block", "hub") or c.value.is_zero_form() or equals(c.value, 0)
           for c in side):
        return False
    gauge_ids = [c.gauge_id for c in side if c.kind == "block"]
    if len(gauge_ids) != len(set(gauge_ids)) or not set(gauge_ids) <= set(known_gauges):
        return False
    return sum(c.kind == "hub" for c in side) <= 1


def multiset_key(side: Sequence[SumComponent]) -> tuple[CodedReal, ...]:
    """Sort key of a tagged sum's multiset of component values: the values
    ordered by :meth:`CodedReal.sort_key`.

    Values are canonical forms, so two sums have equal keys exactly when
    their component multisets agree, tags and order aside.  The key hashes
    through the values' cached hashes.
    """
    return tuple(sorted((c.value for c in side), key=CodedReal.sort_key))
