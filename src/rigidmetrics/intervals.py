"""Finite disjoint unions of half-open rational intervals ``[a, b)``.

An :class:`IntervalSet` denotes the set of nonnegative rationals covered by
its blocks.  Normal form is unique: blocks are sorted, pairwise disjoint,
nonempty, and abutting blocks (``b_i == a_{i+1}``) are merged, so structural
equality of normal forms is set equality.

Endpoints stay :class:`~fractions.Fraction` objects, but the kernels compare
them as integers, by cross-multiplying numerators and denominators or over one
shared denominator; :meth:`IntervalSet._block_index` is the one membership
test, used also by ``CodedReal.eval`` and the support scan.  The ``p/q``
spelling of rationals is written by :func:`_frac_str` and read by
:func:`_parse_frac`.

A document is decoded under one memo of ``p/q`` spellings
(:func:`_decode_scope`, opened by ``FiniteMetric.from_json`` and, for the
parts of a certificate it decodes, ``glue.verify_certificate``; a nested
decode reuses the outer one, and it is dropped when the outermost decode
returns or raises).  Inside it :func:`_parse_frac` gives every distinct
spelling one ``Fraction``, so endpoints and offsets that repeat are the same
objects.  A spelling enters the memo only once it has been read; any other
input is read as outside a scope and raises what it raises there.
"""

from __future__ import annotations

import math
import re
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import ResourceError

Block = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class IntervalSet:
    blocks: tuple[Block, ...] = ()

    def __post_init__(self) -> None:
        prev_n, prev_d = -1, 1  # below every admissible start
        for a, b in self.blocks:
            an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
            if an < 0:
                raise ValueError("intervals live in the nonnegative rationals")
            if not an * bd < bn * ad:
                raise ValueError(f"degenerate block [{a}, {b})")
            if not prev_n * ad < an * prev_d:
                raise ValueError("blocks must be sorted, disjoint and non-abutting")
            prev_n, prev_d = bn, bd

    @staticmethod
    def from_blocks(blocks: Iterable[tuple[Fraction | int, Fraction | int]]) -> "IntervalSet":
        """Build the union of the given intervals in normal form.

        A list already in normal form, such as one this program wrote, is
        only validated: it is taken as it is when ``__post_init__`` accepts
        it.  Any other list is sorted and merged as integers over the least
        common denominator, which drops degenerate blocks and raises on a
        negative start.  Either way the blocks keep the callers' endpoint
        objects.
        """
        pairs = [(_as_fraction(a), _as_fraction(b)) for a, b in blocks]
        try:
            return IntervalSet(tuple(pairs))
        except ValueError:
            pass
        scale = math.lcm(*(p.denominator for pair in pairs for p in pair))
        keyed = []
        for a, b in pairs:
            ia = a.numerator * (scale // a.denominator)
            ib = b.numerator * (scale // b.denominator)
            if ia < ib:
                keyed.append((ia, ib, a, b))
        keyed.sort(key=lambda entry: entry[0])
        merged: list[list] = []
        for ia, ib, a, b in keyed:
            if ia < 0:
                raise ValueError("intervals live in the nonnegative rationals")
            if merged and ia <= merged[-1][1]:
                last = merged[-1]
                if ib > last[1]:
                    last[1], last[3] = ib, b
            else:
                merged.append([ia, ib, a, b])
        return IntervalSet(tuple((a, b) for _, _, a, b in merged))

    @staticmethod
    def block(a: Fraction | int, b: Fraction | int) -> "IntervalSet":
        return IntervalSet.from_blocks([(a, b)])

    def __hash__(self) -> int:
        # the dataclass hash, computed once per instance and kept outside the
        # fields, like the window traces
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.blocks,))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def is_empty(self) -> bool:
        return not self.blocks

    def __contains__(self, q: Fraction) -> bool:
        q = _as_fraction(q)
        return self._block_index(q.numerator, q.denominator) >= 0

    def _block_index(self, n: int, d: int) -> int:
        """Index of the block holding ``n/d`` (``d > 0``), or -1."""
        blocks = self.blocks
        lo, hi = 0, len(blocks)
        while lo < hi:
            mid = (lo + hi) // 2
            a, b = blocks[mid]
            if n * a.denominator < a.numerator * d:
                hi = mid
            elif n * b.denominator >= b.numerator * d:
                lo = mid + 1
            else:
                return mid
        return -1

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_blocks([*self.blocks, *other.blocks])

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Block] = []
        i = j = 0
        while i < len(self.blocks) and j < len(other.blocks):
            a1, b1 = self.blocks[i]
            a2, b2 = other.blocks[j]
            lo = a2 if a1.numerator * a2.denominator < a2.numerator * a1.denominator else a1
            first_ends = b1.numerator * b2.denominator <= b2.numerator * b1.denominator
            hi = b1 if first_ends else b2
            if lo.numerator * hi.denominator < hi.numerator * lo.denominator:
                out.append((lo, hi))
            if first_ends:
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
        return IntervalSet.from_blocks([(_parse_frac(a), _parse_frac(b)) for a, b in data])

    def __repr__(self) -> str:
        inner = " u ".join(f"[{a}, {b})" for a, b in self.blocks)
        return f"IntervalSet({inner or 'empty'})"


EMPTY_SET = IntervalSet()


def _as_fraction(q: Fraction | int) -> Fraction:
    return q if isinstance(q, Fraction) else Fraction(q)


def _frac_str(q: Fraction) -> str:
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise ResourceError(f"rational too long to write: {exc}") from exc


_PQ = re.compile(r"(-?[0-9]+)/([0-9]+)")
# the exponent that ends a decimal spelling such as "1.5e-3"
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)
# the int-string digit limit; 0 means none, as before Python 3.10.7
_digit_cap = getattr(sys, "get_int_max_str_digits", int)


def _parse_frac(s: str) -> Fraction:
    """Read a rational written as ``p/q``, the spelling of :func:`_frac_str`.

    ``-?digits/digits`` is read as two integers; any other input goes to
    ``Fraction`` as it is, so every spelling ``Fraction`` accepts keeps its
    value and every one it rejects raises the same exception type (a zero
    denominator raises ``ZeroDivisionError``).  A spelling ``Fraction``
    accepts, ``p/q`` or any other, that has a run of more digits than
    ``sys.get_int_max_str_digits()``, or an exponent of greater absolute
    value than that limit, raises ``ResourceError``.  Inside a decode scope
    each ``str`` is read once.
    """
    memo = _decode_memo.get()
    if memo is None or type(s) is not str:
        return _read_frac(s)
    q = memo.get(s)
    if q is None:
        q = memo[s] = _read_frac(s)
    return q


def _read_frac(s: str) -> Fraction:
    m = _PQ.fullmatch(s) if isinstance(s, str) else None
    try:
        if m is not None:
            return Fraction(int(m[1]), int(m[2]))
        e = _EXPONENT.search(s) if isinstance(s, str) else None
        # Fraction builds 10 ** exponent unbounded: 1e10000000 takes seconds
        if e is not None and 0 < _digit_cap() < abs(int(e[1])):
            raise ValueError("an exponent exceeds the digit limit")
        return Fraction(s)
    except ValueError as exc:
        if m is None and not _well_formed(s):
            raise
        raise ResourceError(f"rational too long to read: {exc}") from exc


def _well_formed(s: object) -> bool:
    """Whether ``Fraction`` accepts the string ``s`` once each digit run is
    cut to one digit.  It checks a spelling before it reads the digits, so
    such an ``s`` that :func:`_read_frac` refused was refused for the
    int-string limit."""
    if not isinstance(s, str):
        return False
    try:
        Fraction(re.sub(r"\d+", "1", s))
    except ValueError:
        return False
    return True


# the open decode scope's memo of p/q spellings
_decode_memo: ContextVar[dict | None] = ContextVar("_decode_memo", default=None)


@contextmanager
def _decode_scope() -> Iterator[None]:
    """Share the rationals read from one document, one per spelling."""
    if _decode_memo.get() is not None:
        yield
        return
    token = _decode_memo.set({})
    try:
        yield
    finally:
        _decode_memo.reset(token)
