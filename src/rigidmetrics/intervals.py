"""Finite disjoint unions of half-open rational intervals ``[a, b)``.

An :class:`IntervalSet` denotes the set of nonnegative rationals covered by
its blocks.  Normal form is unique: blocks are sorted, pairwise disjoint,
nonempty, and abutting blocks (``b_i == a_{i+1}``) are merged, so structural
equality of normal forms is set equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

Block = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class IntervalSet:
    blocks: tuple[Block, ...] = ()

    def __post_init__(self) -> None:
        prev_end: Fraction | None = None
        for a, b in self.blocks:
            if a < 0:
                raise ValueError("intervals live in the nonnegative rationals")
            if not a < b:
                raise ValueError(f"degenerate block [{a}, {b})")
            if prev_end is not None and not prev_end < a:
                raise ValueError("blocks must be sorted, disjoint and non-abutting")
            prev_end = b

    @staticmethod
    def from_blocks(blocks: Iterable[tuple[Fraction | int, Fraction | int]]) -> "IntervalSet":
        """Build the union of the given intervals in normal form."""
        cleaned = []
        for a, b in blocks:
            a, b = _as_fraction(a), _as_fraction(b)
            if a < b:
                cleaned.append((a, b))
        cleaned.sort()
        merged: list[list[Fraction]] = []
        for a, b in cleaned:
            if a < 0:
                raise ValueError("intervals live in the nonnegative rationals")
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return IntervalSet(tuple((a, b) for a, b in merged))

    @staticmethod
    def block(a: Fraction | int, b: Fraction | int) -> "IntervalSet":
        return IntervalSet.from_blocks([(a, b)])

    @property
    def is_empty(self) -> bool:
        return not self.blocks

    def __contains__(self, q: Fraction) -> bool:
        q = _as_fraction(q)
        lo, hi = 0, len(self.blocks)
        while lo < hi:
            mid = (lo + hi) // 2
            a, b = self.blocks[mid]
            if q < a:
                hi = mid
            elif q >= b:
                lo = mid + 1
            else:
                return True
        return False

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_blocks([*self.blocks, *other.blocks])

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Block] = []
        i = j = 0
        while i < len(self.blocks) and j < len(other.blocks):
            a1, b1 = self.blocks[i]
            a2, b2 = other.blocks[j]
            lo, hi = max(a1, a2), min(b1, b2)
            if lo < hi:
                out.append((lo, hi))
            if b1 <= b2:
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(out))

    def intersect_block(self, a: Fraction | int, b: Fraction | int) -> "IntervalSet":
        return self.intersect(IntervalSet.block(a, b))

    def window(self, n: int) -> "IntervalSet":
        """The trace on ``[n, n+1)``, computed once per set and level.

        The traces are kept on the instance (outside the dataclass fields, so
        equality and hashing are unaffected): a set shared by many
        independence witnesses is intersected once per window.
        """
        windows = self.__dict__.get("_windows")
        if windows is None:
            windows = {}
            object.__setattr__(self, "_windows", windows)
        trace = windows.get(n)
        if trace is None:
            trace = windows[n] = self.intersect_block(n, n + 1)
        return trace

    def min_value(self) -> Fraction:
        if self.is_empty:
            raise ValueError("empty set has no minimum")
        return self.blocks[0][0]

    def integer_levels(self) -> Iterator[int]:
        """Integers ``m`` with ``[m, m+1)`` meeting the set, in order."""
        # [a, b) meets [m, m+1) exactly when a < m + 1 and m < b
        start = 0
        for a, b in self.blocks:
            stop = math.ceil(b)
            yield from range(max(math.floor(a), start), stop)
            start = stop

    def to_json(self) -> list[list[str]]:
        return [[_frac_str(a), _frac_str(b)] for a, b in self.blocks]

    @staticmethod
    def from_json(data: Iterable[Iterable[str]]) -> "IntervalSet":
        return IntervalSet.from_blocks([(Fraction(a), Fraction(b)) for a, b in data])

    def __repr__(self) -> str:
        inner = " u ".join(f"[{a}, {b})" for a, b in self.blocks)
        return f"IntervalSet({inner or 'empty'})"


EMPTY_SET = IntervalSet()


def _as_fraction(q: Fraction | int) -> Fraction:
    return q if isinstance(q, Fraction) else Fraction(q)


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"
