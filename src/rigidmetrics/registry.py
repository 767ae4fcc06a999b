"""Bookkeeping for disjoint value families.

The registry is the single mutable component of the package.  It owns

* a global pool of drawn rationals: :meth:`ValueRegistry.draw_value` never
  returns a value twice, whatever its window and salt, so the values drawn
  for distinct pairs and gauges are pairwise distinct;
* gauge allocation (ids never reused; id 0 is reserved for the basis values
  used inside hub allocations and is never handed out for blocks);
* hub allocations: for a fresh index ``i`` and an open window ``(lo, hi)``
  with ``0 <= lo`` it returns ``p + q * s`` where ``p`` is an unused rational
  of the window, ``s`` is a fresh positive product-metric value from the
  reserved gauge, and ``q`` is the largest dyadic power with
  ``q * upper(s) <= 2^-i``.  ``p`` comes from the window's own enumerator,
  which every hub of the same window shares, so its digits grow with the
  window's ends and the number of draws from it, not with ``i``.

Pool and hub ``p`` draws share one loop, :meth:`ValueRegistry._fresh`, each
kind checked against its own set of used values.

A snapshot of the gauges' draws and the hub allocations, written by
:func:`snapshot_json` and read by :func:`read_snapshot`, serializes with every
certificate so that checks remain replayable offline.  :class:`HubAllocation`
writes and reads a hub's record; its basis and value are computed from it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .coded import CodedReal, _parse_int, as_coded
from .enumeration import simplest_in_open
from .errors import DomainError
from .intervals import _frac_str, _parse_frac
from .product import SemiMetricGauge, Word, tau

RESERVED_GAUGE_ID = 0


class _IntervalEnumerator:
    """All rationals of an open interval, shallowest first.

    Splitting at the simplest inner rational and walking breadth-first keeps
    the heights of consecutive draws small (the n-th value sits at roughly
    log2(n) splits below the simplest one), which matters both for speed and
    for downstream support scans.
    """

    def __init__(self, lo: Fraction, hi: Fraction, seed: int):
        self._queue: deque[tuple[Fraction, Fraction]] = deque([(lo, hi)])
        self._seed = seed
        self._step = 0

    def next_value(self) -> Fraction:
        lo, hi = self._queue.popleft()
        mid = simplest_in_open(lo, hi)
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
    allocation index.  ``basis`` is the ``tau`` of ``words`` on the reserved
    gauge and the certificate's ladder; a checker replays it from the
    gauge's draws, so the JSON record holds ``p``, ``q`` and ``words`` only.
    Every word letter must be a JSON integer: a letter ``"0"`` would pass as
    a word pair of its own yet replay like ``0``."""

    p: Fraction
    q: Fraction
    words: tuple[Word, Word]

    def value(self, basis: CodedReal) -> CodedReal:
        return as_coded(self.p) + basis * self.q

    def to_json(self) -> dict:
        return {
            "p": _frac_str(self.p),
            "q": _frac_str(self.q),
            "words": [list(w) for w in self.words],
        }

    @staticmethod
    def from_json(data: dict) -> "HubAllocation":
        left, right = (
            tuple(_parse_int(x, "hub word letter") for x in w) for w in data["words"]
        )
        return HubAllocation(
            p=_parse_frac(data["p"]), q=_parse_frac(data["q"]), words=(left, right)
        )


class ValueRegistry:
    """Allocator for fresh dense draws, gauges, and hub values."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._used: set[Fraction] = set()
        self._p_used: set[Fraction] = set()
        self._enumerators: dict[tuple[Fraction, Fraction, int], _IntervalEnumerator] = {}
        self._gauges: dict[int, SemiMetricGauge] = {}
        self._next_gauge_id = RESERVED_GAUGE_ID + 1
        self._hubs: dict[int, HubAllocation] = {}
        self._hub_word_counter = 0
        self._reserved = SemiMetricGauge(RESERVED_GAUGE_ID, self)
        self._gauges[RESERVED_GAUGE_ID] = self._reserved

    # -- dense draws ------------------------------------------------------

    def draw_value(self, lo: Fraction, hi: Fraction, salt: int = 0) -> Fraction:
        """A fresh rational strictly inside ``(lo, hi)``, never repeated."""
        lo, hi = Fraction(lo), Fraction(hi)
        if not 0 <= lo < hi:
            raise DomainError(f"cannot draw from ({lo}, {hi})")
        return self._fresh((lo, hi, salt & 1), self.seed ^ salt, self._used)

    def _fresh(self, key: tuple[Fraction, Fraction, int], seed: int, used: set) -> Fraction:
        """The next value of the enumerator of ``key = (lo, hi, tag)``, made
        with ``seed`` on first use, that is not in ``used``; it joins ``used``."""
        enum = self._enumerators.get(key)
        if enum is None:
            enum = self._enumerators[key] = _IntervalEnumerator(key[0], key[1], seed)
        while True:
            candidate = enum.next_value()
            if candidate not in used:
                used.add(candidate)
                return candidate

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
        c = self._hub_word_counter
        self._hub_word_counter += 1
        words = ((2 * c,), (2 * c + 1,))
        basis = tau(self._reserved, k, words[0], words[1])
        s_hi = basis.eval(4).hi
        q = _dyadic_power_floor(Fraction(1, 1 << i) / s_hi)
        alloc = self._hubs[i] = HubAllocation(p, q, words)
        return alloc.value(basis)

    def hub_allocation(self, i: int) -> HubAllocation:
        return self._hubs[i]

    def _draw_p(self, lo: Fraction, hi: Fraction) -> Fraction:
        return self._fresh((lo, hi, 2), self.seed, self._p_used)

    # -- persistence ------------------------------------------------------

    def snapshot(self) -> dict:
        return snapshot_json(self.seed, self._gauges, self._hubs)


def snapshot_json(seed: int, gauges: dict[int, SemiMetricGauge],
                  hubs: dict[int, HubAllocation]) -> dict:
    """A registry's seed, gauge draws keyed ``level:a:b`` and hub records, ids
    in canonical decimal: what :meth:`ValueRegistry.snapshot` writes, and
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
        "hubs": {str(i): alloc.to_json() for i, alloc in sorted(hubs.items())},
    }


def _dyadic_power_floor(x: Fraction) -> Fraction:
    """Largest power of two (positive exponent allowed) not exceeding x > 0."""
    if x <= 0:
        raise DomainError("expected a positive bound")
    e = x.numerator.bit_length() - x.denominator.bit_length()
    p = Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)
    if p > x:
        p /= 2
    elif 2 * p <= x:
        p *= 2
    return p


class _SealedPool:
    """Draw pool that refuses to draw: replay must cover every request."""

    def draw_value(self, lo: Fraction, hi: Fraction, salt: int = 0) -> Fraction:
        raise DomainError("snapshot replay hit a value that was never recorded")


def read_snapshot(data: dict) -> tuple[int, dict[int, SemiMetricGauge], dict[int, HubAllocation]]:
    """A snapshot's seed, gauges replaying only their recorded draws, and hub records;
    keys are read with ``int``, so only :func:`snapshot_json` tells ``"01"`` from ``"1"``."""
    gauges = {}
    for key, record in data["gauges"].items():
        gauge = gauges[int(key)] = SemiMetricGauge(int(key), _SealedPool())
        for draw, value in record["draws"].items():
            level, a, b = map(int, draw.split(":"))
            gauge.preload((level, a, b), _parse_frac(value))
    hubs = {int(key): HubAllocation.from_json(record) for key, record in data["hubs"].items()}
    return _parse_int(data["seed"], "registry seed"), gauges, hubs


def gauge_from_snapshot(gauge_id: int, snapshot: dict) -> SemiMetricGauge:
    """Gauge ``gauge_id`` of a snapshot, as :func:`read_snapshot` reads it."""
    return read_snapshot(snapshot)[1][gauge_id]
