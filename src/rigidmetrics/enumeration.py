"""Bijective enumeration of the nonnegative rationals with first-hit integers.

The enumeration splits the index line into the residue classes
``A_m = {2^m * (2j + 1) - 1 : j >= 0}``.  Class ``A_m`` is sent onto
``[m, m+1) & Q``: the index ``2^m - 1`` (the minimum of ``A_m``) maps to the
integer ``m`` itself, and the index with odd part ``2j + 1`` (``j >= 1``) maps
to ``m`` plus the ``j``-th rational of ``(0, 1)`` in Calkin-Wilf order.  The
result is a bijection ``Z>=0 -> Q>=0`` that hits each integer ``m`` first
among the rationals of ``[m, m+1)``, at the strictly increasing indices
``2^m - 1``.

Also provides the Stern-Brocot "simplest rational inside an interval" search,
used wherever a canonical small-height rational must be picked from an
interval.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError


def fusc_pair(n: int) -> tuple[int, int]:
    """Return ``(fusc(n), fusc(n+1))`` of Stern's diatomic sequence."""
    if n < 0:
        raise ValueError("fusc is defined for nonnegative indices")
    a, b = 0, 1  # (fusc(0), fusc(1))
    for shift in range(n.bit_length() - 1, -1, -1):
        if (n >> shift) & 1:
            a, b = a + b, b
        else:
            a, b = a, a + b
    return a, b


def calkin_wilf(n: int) -> Fraction:
    """The ``n``-th positive rational in Calkin-Wilf order, ``n >= 1``."""
    if n < 1:
        raise ValueError("Calkin-Wilf indices start at 1")
    a, b = fusc_pair(n)
    return Fraction(a, b)


def calkin_wilf_index(value: Fraction) -> int:
    """Inverse of :func:`calkin_wilf` on positive rationals.

    Runs of equal tree steps are collapsed with a division, so the cost is
    the length of the continued fraction of ``value``, not its height.
    """
    a, b = value.numerator, value.denominator
    if a <= 0 or b <= 0:
        raise ValueError("Calkin-Wilf order covers positive rationals only")
    runs: list[tuple[int, int]] = []  # (bit, count) from node up to root
    while not (a == 1 and b == 1):
        if a < b:
            t = (b - 1) // a
            runs.append((0, t))
            b -= t * a
        else:
            t = (a - 1) // b
            runs.append((1, t))
            a -= t * b
    n = 1
    for bit, count in reversed(runs):
        n <<= count
        if bit:
            n |= (1 << count) - 1
    return n


def tree_depth(value: Fraction) -> int:
    """Depth of ``value`` in the Calkin-Wilf tree (root has depth 0).

    Equals the bit length of the Calkin-Wilf index minus one, computed
    without building the (possibly enormous) index.
    """
    a, b = value.numerator, value.denominator
    if a <= 0 or b <= 0:
        raise ValueError("positive rationals only")
    depth = 0
    while not (a == 1 and b == 1):
        if a < b:
            t = (b - 1) // a
            b -= t * a
        else:
            t = (a - 1) // b
            a -= t * b
        depth += t
    return depth


def unit_rational(j: int) -> Fraction:
    """The ``j``-th rational of ``(0, 1)``, ``j >= 1`` (Calkin-Wilf left spine)."""
    return calkin_wilf(2 * j)


def unit_rational_index(value: Fraction) -> int:
    if not 0 < value < 1:
        raise ValueError("expected a rational strictly between 0 and 1")
    n = calkin_wilf_index(value)
    assert n % 2 == 0, "rationals below one sit at even Calkin-Wilf indices"
    return n // 2


def rational_at(i: int) -> Fraction:
    """Value of the enumeration at index ``i >= 0``."""
    if i < 0:
        raise ValueError("indices are nonnegative")
    m = i + 1
    e = (m & -m).bit_length() - 1
    j = ((m >> e) - 1) // 2
    if j == 0:
        return Fraction(e)
    return e + unit_rational(j)


def index_of(value: Fraction) -> int:
    """Index of ``value`` in the enumeration; inverse of :func:`rational_at`."""
    value = Fraction(value)
    if value < 0:
        raise DomainError("the enumeration covers nonnegative rationals only")
    whole = math.floor(value)
    frac = value - whole
    if frac == 0:
        return (1 << whole) - 1
    j = unit_rational_index(frac)
    return (1 << whole) * (2 * j + 1) - 1


def first_hit_index(m: int) -> int:
    """Least index whose value lies in ``[m, m+1)``; its value is ``m``."""
    if m < 0:
        raise ValueError("integer blocks are indexed by m >= 0")
    return (1 << m) - 1


def cantor_pair(a: int, b: int) -> int:
    """Bijection ``Z>=0 x Z>=0 -> Z>=0``."""
    if a < 0 or b < 0:
        raise ValueError("pairing is defined on nonnegative integers")
    s = a + b
    return s * (s + 1) // 2 + b


def cantor_unpair(n: int) -> tuple[int, int]:
    if n < 0:
        raise ValueError("pairing is defined on nonnegative integers")
    w = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return w - b, b


def simplest_in_open(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator rational strictly inside ``(lo, hi)``, ``0 <= lo``.

    The Stern-Brocot descent as a continued-fraction walk on the integers
    ``lo = p/q`` and ``hi = r/s``: each step takes the common whole part
    ``w`` off both ends and inverts them, ``(lo, hi) -> (1/(hi-w), 1/(lo-w))``,
    folding ``w`` into the convergent ``(h1*x + h0) / (k1*x + k0)`` of the
    remaining value ``x``, until an integer (or ``1/m`` above a zero lower
    end) fits.  One ``Fraction`` is built, for the result.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    p, q, r, s = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    if p < 0 or not p * s < r * q:
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    return Fraction(*_simplest_pair(p, q, r, s))


def _simplest_pair(p: int, q: int, r: int, s: int) -> tuple[int, int]:
    """:func:`simplest_in_open` of ``(p/q, r/s)`` as a ``(numerator,
    denominator)`` pair in lowest terms, for ``0 <= p/q < r/s`` and
    ``q, s > 0``, which the caller has checked."""
    h1, h0, k1, k0 = 1, 0, 0, 1
    while True:
        w = p // q
        if (w + 1) * s < r:  # the next integer lies below hi
            x_num, x_den = w + 1, 1
            break
        p -= w * q  # now 0 <= p/q < r/s <= 1
        r -= w * s
        if p == 0:
            m = s // r + 1  # the least m with 1/m < r/s
            x_num, x_den = w * m + 1, m
            break
        h1, h0, k1, k0 = h1 * w + h0, h1, k1 * w + k0, k1
        p, q, r, s = s, r, q, p
    return h1 * x_num + h0 * x_den, k1 * x_num + k0 * x_den
