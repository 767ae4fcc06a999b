"""Metrics on finite words over the alphabet of nonnegative integers.

Words are compared coordinatewise through a gauge: a family of strongly rigid
semi-metrics, one per level, whose level-``i`` values are fresh rationals in
``(i, i+1)`` drawn from a disjoint dense pool.  The induced distances are

    rho_m(a, b)   = <gamma_k, [m, r_m(a, b))>          (one level),
    sigma(x, y)   = sum of rho_m over the coordinates  (a metric, but two
                    different pairs can share a value),
    tau(x, y)     = sigma(prism(x), prism(y)),

where the prism interleaves a word with injective codes of all its prefixes.
Forcing whole prefixes into single coordinates is what upgrades sigma to a
strongly rigid metric: distinct pairs disagree at some prefix level, hence
their index sets differ, hence their values differ.

Every value the construction writes goes through ``tau``, so the kernel does
no work twice: :func:`prism` validates its word once and folds each prefix
code from the one before it, and :func:`sigma`'s blocks ``[m, r_m)`` are in
normal form already, since ``r_m`` lies in ``(m, m+1)``, so
``IntervalSet.from_blocks`` only validates them and ``coded_sum`` makes one
term without a sweep.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Protocol, Sequence

from .coded import CodedReal, coded_sum
from .enumeration import cantor_pair
from .errors import DomainError
from .intervals import IntervalSet

Word = tuple[int, ...]


def as_word(letters: Sequence[int]) -> Word:
    word = tuple(map(int, letters))
    if not word:
        raise DomainError("words are nonempty")
    if min(word) < 0:
        raise DomainError("letters are nonnegative integers")
    return word


def word_label(word: Word) -> str:
    return ".".join(str(x) for x in word)


def pair_encode(level: int, prefix: Sequence[int]) -> int:
    """Injective code of a length-``level + 1`` prefix into one letter.

    Level 0 is the identity; higher levels fold with the Cantor pairing.
    """
    prefix = as_word(prefix)
    if len(prefix) != level + 1:
        raise DomainError(f"level {level} expects a prefix of length {level + 1}")
    code = prefix[0]
    for letter in prefix[1:]:
        code = cantor_pair(code, letter)
    return code


def prism(word: Sequence[int]) -> Word:
    """Interleave a word with the codes of all its prefixes.

    Output slot ``2n`` carries letter ``n``; slot ``2n + 1`` carries the code
    of the prefix through position ``n``, :func:`pair_encode` of that prefix,
    folded from the code before it with one Cantor pairing.  The word is
    validated once.
    """
    word = as_word(word)
    out = [word[0], word[0]]
    for letter in word[1:]:
        out += (letter, cantor_pair(out[-1], letter))
    return tuple(out)


class DrawPool(Protocol):
    def draw_value(self, lo: Fraction | int, hi: Fraction | int, salt: int = 0) -> Fraction: ...


class SemiMetricGauge:
    """Strongly rigid semi-metrics, one per level, with values in (i, i+1).

    Symmetric, zero exactly on the diagonal, injective over unordered letter
    pairs, and injective across gauges (the pool never repeats a rational).
    No triangle inequality is promised at this layer.
    """

    def __init__(self, gauge_id: int, pool: DrawPool):
        self.gauge_id = gauge_id
        self._pool = pool
        self._memo: dict[tuple[int, int, int], Fraction] = {}

    def value(self, level: int, a: int, b: int) -> Fraction:
        if level < 0 or a < 0 or b < 0:
            raise DomainError("levels and letters are nonnegative")
        if a == b:
            return Fraction(0)
        key = (level, a, b) if a < b else (level, b, a)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = self._pool.draw_value(
                level, level + 1, salt=self.gauge_id + level
            )
        return value

    def drawn(self) -> dict[tuple[int, int, int], Fraction]:
        return dict(self._memo)

    def preload(self, key: tuple[int, int, int], value: Fraction) -> None:
        """Install a recorded draw (snapshot replay)."""
        self._memo[key] = Fraction(value)

    def __repr__(self) -> str:
        return f"SemiMetricGauge(id={self.gauge_id}, draws={len(self._memo)})"


def rho(gauge: SemiMetricGauge, k: int, m: int, a: int, b: int) -> CodedReal:
    """Distance of two letters at level ``m``: ``<gamma_k, [m, r_m(a, b))>``."""
    if a == b:
        return CodedReal()
    r = gauge.value(m, a, b)
    return coded_sum(k, IntervalSet.block(m, r))


def sigma(gauge: SemiMetricGauge, k: int, x: Sequence[int], y: Sequence[int]) -> CodedReal:
    """Coordinatewise sum of level distances on equal-length words."""
    x, y = as_word(x), as_word(y)
    if len(x) != len(y):
        raise DomainError("words must have equal length")
    blocks = [(Fraction(m), gauge.value(m, a, b)) for m, (a, b) in enumerate(zip(x, y)) if a != b]
    if not blocks:
        return CodedReal()
    return coded_sum(k, IntervalSet.from_blocks(blocks))


def tau(gauge: SemiMetricGauge, k: int, x: Sequence[int], y: Sequence[int]) -> CodedReal:
    """The strongly rigid product metric: sigma on the prism images."""
    return sigma(gauge, k, prism(x), prism(y))


def find_separating_prefix(pairs: Sequence[tuple[Word, Word]]) -> int:
    """Least truncation level keeping all pairs distinct and non-degenerate.

    At the returned ``n``, the two members of each pair still differ within
    the first ``n + 1`` letters, and the unordered truncated pairs remain
    pairwise distinct.
    """
    if not pairs:
        raise DomainError("need at least one pair")
    words = [(as_word(x), as_word(y)) for x, y in pairs]
    lengths = {len(x) for x, y in words} | {len(y) for x, y in words}
    if len(lengths) != 1:
        raise DomainError("all words must share one length")
    (length,) = lengths
    for x, y in words:
        if x == y:
            raise DomainError("pair members must differ")
    seen = set()
    for x, y in words:
        key = frozenset((x, y))
        if key in seen:
            raise DomainError("unordered pairs must be pairwise distinct")
        seen.add(key)
    for n in range(length):
        cuts = [(x[: n + 1], y[: n + 1]) for x, y in words]
        if any(cx == cy for cx, cy in cuts):
            continue
        unordered = {frozenset((cx, cy)) for cx, cy in cuts}
        if len(unordered) == len(cuts):
            return n
    raise DomainError("no separating prefix exists at full length")
