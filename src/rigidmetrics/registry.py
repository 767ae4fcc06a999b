"""Bookkeeping for disjoint value families.

The registry is the single mutable component of the package.  It owns

* a global pool of drawn rationals: :meth:`ValueRegistry.draw_value` never
  returns a value twice, whatever its window and salt, so the values drawn
  for distinct pairs and gauges are pairwise distinct;
* gauge allocation (ids never reused; id 0 is reserved for the basis values
  used inside hub allocations and is never handed out for blocks);
* hub allocations: for a fresh index ``i`` and an open window ``(lo, hi)``
  with ``0 <= lo`` it returns ``p + q * s`` where ``p`` is an unused rational
  of the window, ``s`` is the product metric on the reserved gauge of the
  ``c``-th hub's words ``(2c,)`` and ``(2c+1,)``, and ``q = 2^(k - i)``, so
  that ``q * s < 2^-i``.  ``p`` comes from the window's own enumerator,
  which every hub of the same window shares, so its digits grow with the
  window's ends and the number of draws from it, not with ``i``.

Pool and hub ``p`` draws share one loop, :meth:`ValueRegistry._fresh`, each
kind checked against its own set of used values.  The enumerators are keyed by
their windows' ends, and the used sets hold values, as integer ``(numerator,
denominator)`` pairs, so a draw hashes no ``Fraction`` and builds one, for the
value it returns.

A snapshot of the gauges' draws and the hubs' ``p``, in ascending index,
written by :func:`snapshot_json` and read by :func:`read_snapshot`, serializes
with every certificate so that checks remain replayable offline: a
:class:`_StatedHubs` registry places the hubs again, handing out the stated
``p`` in order, and each hub's words and ``q`` follow from its position.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .coded import CodedReal, _parse_int
from .enumeration import _simplest_pair
from .errors import DomainError
from .intervals import _frac_str, _parse_frac
from .product import SemiMetricGauge, Word, tau

RESERVED_GAUGE_ID = 0


class _IntervalEnumerator:
    """All rationals of an open interval, shallowest first, each as its
    ``(numerator, denominator)`` pair.

    Splitting at the simplest inner rational and walking breadth-first keeps
    the heights of consecutive draws small (the n-th value sits at roughly
    log2(n) splits below the simplest one), which matters both for speed and
    for downstream support scans.
    """

    def __init__(self, lo: tuple[int, int], hi: tuple[int, int], seed: int):
        self._queue: deque[tuple[tuple[int, int], tuple[int, int]]] = deque([(lo, hi)])
        self._seed = seed
        self._step = 0

    def next_value(self) -> tuple[int, int]:
        lo, hi = self._queue.popleft()
        mid = _simplest_pair(*lo, *hi)
        if (self._seed >> (self._step % 16)) & 1:
            self._queue.append((mid, hi))
            self._queue.append((lo, mid))
        else:
            self._queue.append((lo, mid))
            self._queue.append((mid, hi))
        self._step += 1
        return mid


@dataclass(frozen=True)
class HubAllocation:
    """The record of one hub value, ``p + q * basis``, stored under its
    allocation index ``i``.  ``basis`` is the ``tau`` of ``words`` on the
    reserved gauge and the ladder ``k``, and ``q = 2^(k - i)``: the words
    and ``q`` follow from the hub's position and index, so a snapshot
    states ``p`` alone."""

    p: Fraction
    q: Fraction
    words: tuple[Word, Word]

    def value(self, basis: CodedReal) -> CodedReal:
        """``p + q * basis`` in canonical form, in one step: ``basis * q`` is
        canonical, and adding the rational ``p`` moves only its offset."""
        scaled = basis * self.q
        return CodedReal(self.p + scaled.offset, scaled.terms)


class ValueRegistry:
    """Allocator for fresh dense draws, gauges, and hub values."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._used: set[tuple[int, int]] = set()
        self._p_used: set[tuple[int, int]] = set()
        self._enumerators: dict[tuple[tuple[int, int], tuple[int, int], int],
                                _IntervalEnumerator] = {}
        self._gauges: dict[int, SemiMetricGauge] = {}
        self._next_gauge_id = RESERVED_GAUGE_ID + 1
        self._hubs: dict[int, HubAllocation] = {}
        self._reserved = SemiMetricGauge(RESERVED_GAUGE_ID, self)
        self._gauges[RESERVED_GAUGE_ID] = self._reserved

    # -- dense draws ------------------------------------------------------

    def draw_value(self, lo: Fraction | int, hi: Fraction | int, salt: int = 0) -> Fraction:
        """A fresh rational strictly inside ``(lo, hi)``, never repeated."""
        lo, hi = Fraction(lo), Fraction(hi)
        if not 0 <= lo < hi:
            raise DomainError(f"cannot draw from ({lo}, {hi})")
        return self._fresh(lo, hi, salt & 1, self.seed ^ salt, self._used)

    def _fresh(self, lo: Fraction, hi: Fraction, tag: int, seed: int,
               used: set[tuple[int, int]]) -> Fraction:
        """The next value of the enumerator of ``(lo, hi)`` and ``tag``, made
        with ``seed`` on first use, that is not in ``used``; it joins ``used``.
        Enumerators are keyed, and values compared, by integer ``(numerator,
        denominator)`` pairs; one ``Fraction`` is built, for the result."""
        key = (lo.numerator, lo.denominator), (hi.numerator, hi.denominator), tag
        enum = self._enumerators.get(key)
        if enum is None:
            enum = self._enumerators[key] = _IntervalEnumerator(key[0], key[1], seed)
        while True:
            candidate = enum.next_value()
            if candidate not in used:
                used.add(candidate)
                return Fraction(*candidate)

    # -- gauges -----------------------------------------------------------

    def fresh_gauge(self) -> SemiMetricGauge:
        gauge = SemiMetricGauge(self._next_gauge_id, self)
        self._gauges[gauge.gauge_id] = gauge
        self._next_gauge_id += 1
        return gauge

    # -- hub values -------------------------------------------------------

    def hub_value(self, k: int, i: int, lo: Fraction, hi: Fraction) -> CodedReal:
        lo, hi = Fraction(lo), Fraction(hi)
        if not 0 <= lo < hi:
            raise DomainError(f"cannot place a hub value in ({lo}, {hi})")
        if i < 0:
            raise DomainError("hub indices are nonnegative")
        if i in self._hubs:
            raise DomainError(f"hub index {i} was already allocated")
        p = self._draw_p(lo, hi)
        c = len(self._hubs)
        words = ((2 * c,), (2 * c + 1,))
        basis = tau(self._reserved, k, words[0], words[1])
        # The basis <gamma_k, S> has S holding the rationals 0 and 1, so the
        # upper end of its enclosure lies in [3/4 * 2^-k, 2^-k): q = 2^(k - i)
        # is the largest power of two with q times that end at most 2^-i.
        q = Fraction(1 << (k - i)) if k >= i else Fraction(1, 1 << (i - k))
        alloc = self._hubs[i] = HubAllocation(p, q, words)
        return alloc.value(basis)

    def hub_allocation(self, i: int) -> HubAllocation:
        return self._hubs[i]

    def _draw_p(self, lo: Fraction, hi: Fraction) -> Fraction:
        return self._fresh(lo, hi, 2, self.seed, self._p_used)

    # -- persistence ------------------------------------------------------

    def hub_allocations(self) -> dict[int, HubAllocation]:
        return dict(self._hubs)

    def snapshot(self) -> dict:
        return snapshot_json(self.seed, self._gauges,
                             [alloc.p for _, alloc in sorted(self._hubs.items())])


class _StatedHubs(ValueRegistry):
    """A registry that places a snapshot's hubs again, the way
    :class:`_SealedPool` replays gauge draws: its reserved gauge is the
    snapshot's gauge 0, sealed, and each hub takes the next stated ``p``,
    ``DomainError`` when none is left.  ``unplaced`` holds the rest."""

    def __init__(self, gauges: dict[int, SemiMetricGauge], ps: Sequence[Fraction]):
        super().__init__()
        sealed = SemiMetricGauge(RESERVED_GAUGE_ID, _SealedPool())
        self._reserved = gauges.get(RESERVED_GAUGE_ID, sealed)
        self.unplaced = deque(ps)

    def _draw_p(self, lo: Fraction, hi: Fraction) -> Fraction:
        if not self.unplaced:
            raise DomainError("the snapshot states fewer hubs than are placed")
        return self.unplaced.popleft()


def snapshot_json(seed: int, gauges: dict[int, SemiMetricGauge], ps: Sequence[Fraction]) -> dict:
    """A registry's seed, gauge draws keyed ``level:a:b``, ids in canonical
    decimal, and hub ``ps``: what :meth:`ValueRegistry.snapshot` writes, and
    what a checker writes again from :func:`read_snapshot` to compare."""
    return {
        "seed": seed,
        "gauges": {
            str(gid): {"draws": {
                f"{level}:{a}:{b}": _frac_str(v)
                for (level, a, b), v in sorted(gauge.drawn().items())
            }}
            for gid, gauge in sorted(gauges.items())
        },
        "hubs": [_frac_str(p) for p in ps],
    }


class _SealedPool:
    """Draw pool that refuses to draw: replay must cover every request."""

    def draw_value(self, lo: Fraction, hi: Fraction, salt: int = 0) -> Fraction:
        raise DomainError("snapshot replay hit a value that was never recorded")


def read_snapshot(data: dict) -> tuple[int, dict[int, SemiMetricGauge], list[Fraction]]:
    """A snapshot's seed, gauges replaying only their recorded draws, and hub ``p``;
    keys are read with ``int``, so only :func:`snapshot_json` tells ``"01"`` from ``"1"``."""
    hubs = data["hubs"]
    if type(hubs) is not list or any(type(p) is not str for p in hubs):
        raise ValueError("the registry's hubs must be a list of p/q strings")
    ps = [_parse_frac(p) for p in hubs]
    return _parse_int(data["seed"], "registry seed"), _read_gauges(data["gauges"]), ps


def _read_gauges(data: dict) -> dict[int, SemiMetricGauge]:
    gauges = {}
    for key, record in data.items():
        gauge = gauges[int(key)] = SemiMetricGauge(int(key), _SealedPool())
        for draw, value in record["draws"].items():
            level, a, b = map(int, draw.split(":"))
            gauge.preload((level, a, b), _parse_frac(value))
    return gauges


def gauge_from_snapshot(gauge_id: int, snapshot: dict) -> SemiMetricGauge:
    """Gauge ``gauge_id`` of a snapshot, as :func:`read_snapshot` reads it."""
    return _read_gauges(snapshot["gauges"])[gauge_id]
