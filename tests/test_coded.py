import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rigidmetrics.coded import (
    _MAX_EVAL_EXPONENT,
    CodedReal,
    Term,
    _difference,
    _dyadic_sign,
    _enumeration_prefix,
    _leading_index_sign,
    _merge_entries,
    _on_least_ladder,
    _piece_support,
    _sign_once,
    _signed_sum,
    Enclosure,
    ExponentSchedule,
    EQUAL,
    GREATER,
    LESS,
    coded_sum,
    compare,
    equals,
    gamma,
    gamma_compare,
    sign,
)
from rigidmetrics.enumeration import (
    fusc_pair,
    rational_at,
    simplest_in_open,
    tree_depth,
    unit_rational,
)
from rigidmetrics.errors import PrecisionError
from rigidmetrics.intervals import IntervalSet

UNIT = IntervalSet.block(0, 1)


def test_gamma_values():
    assert gamma(0, 0) == Fraction(1, 2)
    # direct exponentiation oracle
    assert gamma(0, 3) == Fraction(1, 2) ** 8 == Fraction(1, 256)
    assert gamma(2, 0) == Fraction(1, 8)
    with pytest.raises(PrecisionError):
        gamma(0, 64)


def test_schedule_strictly_increasing():
    sched = ExponentSchedule(5)
    exps = [sched.exponent(n) for n in range(12)]
    assert exps == sorted(set(exps))


def test_eval_empty_set_is_zero():
    x = coded_sum(0, IntervalSet())
    assert x.is_zero_form()
    assert x.eval(3) == Enclosure(Fraction(0), Fraction(0))


def test_eval_unit_block_at_index_zero():
    x = coded_sum(0, UNIT)
    enc = x.eval(0)
    # index 0 holds value 0 which lies in [0,1); the tail bound is 2^(1-F(1))
    assert enc.lo == Fraction(1, 2)
    assert enc.hi == Fraction(1, 2) + Fraction(1, 2)


def test_eval_pure_offset():
    x = CodedReal.from_rational(1)
    assert x.eval(0) == Enclosure(Fraction(1), Fraction(1))


def test_eval_monotone_and_tight():
    x = coded_sum(0, UNIT) + coded_sum(3, IntervalSet.block(1, Fraction(5, 2))) * Fraction(-2, 3)
    prev = x.eval(0)
    for n in range(1, 12):
        cur = x.eval(n)
        assert prev.encloses(cur)
        assert cur.width < prev.width
        prev = cur


def test_tail_bound_holds_exactly():
    # Any finite extension of the partial sum, plus the deeper tail bound,
    # stays within the original tail bound.
    for k in (0, 1, 3):
        sched = ExponentSchedule(k)
        for n in range(0, 6):
            bound = Fraction(1, 1 << (sched.exponent(n + 1) - 1))
            for m in range(n + 1, n + 7):
                extension = sum(
                    Fraction(1, 1 << sched.exponent(i)) for i in range(n + 1, m + 1)
                )
                deeper = Fraction(1, 1 << (sched.exponent(m + 1) - 1))
                assert extension + deeper <= bound


def test_canonical_form_merges_adjacent_terms():
    split = coded_sum(0, IntervalSet.block(0, 1)) + coded_sum(0, IntervalSet.block(1, 2))
    merged = coded_sum(0, IntervalSet.block(0, 2))
    assert split == merged
    assert equals(split, merged) is True


def test_canonical_form_weights():
    x = coded_sum(0, IntervalSet.block(0, 2)) + coded_sum(0, IntervalSet.block(1, 3))
    assert len(x.terms) == 2
    weights = {t.coeff: t.index_set for t in x.terms}
    assert weights[Fraction(2)] == IntervalSet.block(1, 2)
    assert weights[Fraction(1)] == IntervalSet.from_blocks([(0, 1), (2, 3)])


def test_compare_examples():
    x = coded_sum(0, UNIT)
    assert compare(x, x) == EQUAL
    assert compare(Fraction(1, 4), x) == LESS
    assert compare(x, coded_sum(0, IntervalSet.block(0, 2))) == LESS


def test_equals_examples():
    a = coded_sum(0, IntervalSet.block(1, 2))
    assert equals(a, coded_sum(0, IntervalSet.block(1, 2))) is True
    assert equals(coded_sum(0, IntervalSet.block(1, Fraction(3, 2))), a) is False
    # strict separation of 1/2 from the unit-block sum, confirmed by
    # refining enclosures until the lower bound clears 1/2
    x = coded_sum(0, UNIT)
    assert equals(CodedReal.from_rational(Fraction(1, 2)), x) is False
    n = 0
    while x.eval(n).lo <= Fraction(1, 2):
        n += 1
    assert n <= 4


def test_compare_distinct_interval_sets_never_equal():
    rng = random.Random(4)

    def random_set():
        cuts = sorted(
            {Fraction(rng.randint(0, 48), rng.randint(4, 8)) for _ in range(4)}
        )
        blocks = [(a, b) for a, b in zip(cuts, cuts[1:]) if rng.random() < 0.6]
        return IntervalSet.from_blocks(blocks)

    done = 0
    while done < 200:
        s, t = random_set(), random_set()
        if s == t or s.is_empty or t.is_empty:
            continue
        verdict = compare(coded_sum(0, s), coded_sum(0, t))
        assert verdict != EQUAL, (s, t)
        done += 1


def test_deep_level_symbolic_comparison():
    deep1 = IntervalSet.from_blocks([(m, Fraction(2 * m + 1, 2)) for m in range(12)])
    deep2 = IntervalSet.from_blocks(
        [(m, Fraction(2 * m + 1, 2)) for m in range(11)]
        + [(11, Fraction(23, 2) + Fraction(1, 3))]
    )
    assert compare(coded_sum(3, deep1), coded_sum(3, deep2)) == LESS
    assert equals(coded_sum(3, deep1), coded_sum(3, deep2)) is False


def test_gamma_compare_symbolic_positions():
    # value contains the first index of level 5 (position 31), so it exceeds
    # gamma at 31 but stays below twice that; both positions are far beyond
    # what gamma() could materialize.
    value = coded_sum(0, IntervalSet.block(5, Fraction(11, 2)))
    assert gamma_compare(value, 1, 0, 31) == GREATER
    assert gamma_compare(value, 2, 0, 31) == LESS
    assert gamma_compare(CodedReal(), 0, 0, 31) == EQUAL


def test_exact_zero_across_ladders():
    # <g0, B> = 2 <g1, B>: distinct canonical forms, one number
    b = IntervalSet.block(Fraction(1, 3), 1)
    assert compare(coded_sum(0, b), coded_sum(1, b, 2)) == EQUAL
    assert equals(coded_sum(0, b), coded_sum(1, b, 2)) is True
    zero = coded_sum(0, b) - coded_sum(1, b, Fraction(3, 2)) - coded_sum(2, b)
    assert not zero.is_zero_form()
    assert sign(zero) == 0


def test_equals_compares_forms_on_the_least_ladder():
    a = coded_sum(0, IntervalSet.block(0, Fraction(1, 2)))
    b = coded_sum(0, IntervalSet.block(0, Fraction(3, 4)))
    assert equals(a, b) is False
    assert equals(a, a) is True
    # across ladders: <g1,[0,3/4)> = 1/2 <g0,[0,3/4)>, another form than a's
    c = coded_sum(1, IntervalSet.block(0, Fraction(3, 4)))
    assert equals(a, c) is False
    assert equals(c, coded_sum(0, IntervalSet.block(0, Fraction(3, 4)), Fraction(1, 2))) is True


def test_sign_of_rationals():
    assert sign(CodedReal.from_rational(Fraction(-3, 7))) == -1
    assert sign(CodedReal.from_rational(0)) == 0


def test_unresolved_order_with_certified_distinctness():
    # The sets differ only across a sliver whose simplest member is buried
    # astronomically deep in the tree: the order stays unresolved at default
    # precision, yet the two distinct forms on one ladder are unequal.
    near_half = Fraction(10**9 // 2 - 1, 10**9)
    a = coded_sum(0, IntervalSet.block(0, near_half))
    b = coded_sum(0, IntervalSet.block(0, Fraction(1, 2)))
    assert compare(a, b) == "unresolved"
    assert equals(a, b) is False


def test_arithmetic_cancellation():
    x = coded_sum(2, IntervalSet.block(0, Fraction(1, 2)))
    y = coded_sum(2, IntervalSet.block(3, 4)) * Fraction(5, 7)
    z = x + y - x
    assert z == y
    assert (x - x).is_zero_form()
    assert (x * 0).is_zero_form()


def test_eval_negative_coefficient_orientation():
    x = coded_sum(0, UNIT) * -1
    enc = x.eval(0)
    assert enc.lo == -1 and enc.hi == Fraction(-1, 2)


def test_compare_small_budget_still_exact():
    a = coded_sum(0, IntervalSet.block(0, 1))
    b = coded_sum(0, IntervalSet.block(0, 2))
    assert compare(a, b, max_precision=4) == LESS


def test_eval_membership_uses_enumeration():
    # [0, 1/2) holds value 0 (index 0) and 1/3 (index 4) but not 1/2 (index 2)
    x = coded_sum(0, IntervalSet.block(0, Fraction(1, 2)))
    sched = ExponentSchedule(0)
    expected = Fraction(1, 1 << sched.exponent(0)) + Fraction(1, 1 << sched.exponent(4))
    assert rational_at(2) == Fraction(1, 2)
    assert x.eval(4).lo == expected


def test_json_round_trip():
    x = CodedReal.build(
        Fraction(3, 7),
        [
            (Fraction(1, 2), 0, IntervalSet.block(0, 1)),
            (Fraction(-2), 3, IntervalSet.from_blocks([(1, 2), (4, Fraction(9, 2))])),
        ],
    )
    assert CodedReal.from_json(x.to_json()) == x


def test_precision_error_on_huge_eval():
    x = coded_sum(0, UNIT)
    with pytest.raises(PrecisionError):
        x.eval(64)


def _membership_terms(raw):
    """Reference canonical form: the weight of every elementary segment
    between consecutive cuts, summed over the entries whose set holds the
    segment's left end (cut by cut, by membership test)."""
    by_k = {}
    for coeff, k, sett in raw:
        coeff = Fraction(coeff)
        if k < 0:
            raise ValueError("schedule offset must be nonnegative")
        if coeff == 0 or sett.is_empty:
            continue
        by_k.setdefault(k, []).append((coeff, sett))
    out = []
    for k in sorted(by_k):
        entries = by_k[k]
        cuts = sorted({p for _, s in entries for blk in s.blocks for p in blk})
        weights = {}
        for a, b in zip(cuts, cuts[1:]):
            w = Fraction(0)
            for coeff, s in entries:
                if a in s:
                    w += coeff
            if w != 0:
                weights.setdefault(w, []).append((a, b))
        for w in sorted(weights):
            out.append(Term(w, k, IntervalSet.from_blocks(weights[w])))
    return tuple(out)


# endpoints at mixed scales: integer parts 0-5 over denominators from 1 to 4096
_ENDPOINTS = st.builds(
    lambda m, den, num: m + Fraction(num % den, den),
    st.integers(0, 5),
    st.sampled_from([1, 2, 3, 8, 12, 64, 4096]),
    st.integers(0, 4095),
)


@st.composite
def raw_terms(draw):
    """Entries ``(coeff, k, B)`` on two or three ladders whose sets share one
    pool of cuts, so blocks of different entries overlap and abut."""
    pool = sorted(draw(st.lists(_ENDPOINTS, min_size=4, max_size=9, unique=True)))
    ladders = draw(st.lists(st.integers(0, 3), min_size=2, max_size=3, unique=True))
    entries = []
    for _ in range(draw(st.integers(1, 6))):
        picks = sorted(
            draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=6, unique=True))
        )
        # step 2 gives separate blocks, step 1 blocks that abut (and merge)
        step = draw(st.sampled_from([1, 2]))
        blocks = [(pool[picks[t]], pool[picks[t + 1]]) for t in range(0, len(picks) - 1, step)]
        coeff = draw(st.fractions(min_value=-4, max_value=4, max_denominator=12))
        entries.append((coeff, draw(st.sampled_from(ladders)), IntervalSet.from_blocks(blocks)))
    # cancelling entries: the negation of some entry, on the same ladder
    for coeff, k, sett in list(entries):
        if draw(st.booleans()):
            entries.append((-coeff, k, sett))
    return entries


_TWO_BLOCKS = IntervalSet.from_blocks([(0, Fraction(1, 3)), (Fraction(1, 2), 2)])


@settings(max_examples=200, deadline=None)
@given(raw_terms(), st.fractions(max_denominator=8), st.fractions(max_denominator=8))
@example(
    # abutting blocks of one weight merge; a cancelling pair vanishes
    [
        (1, 0, IntervalSet.block(0, Fraction(1, 64))),
        (1, 0, IntervalSet.block(Fraction(1, 64), 3)),
        (Fraction(-1, 2), 1, _TWO_BLOCKS),
        (Fraction(1, 2), 1, _TWO_BLOCKS),
    ],
    Fraction(0),
    Fraction(1),
)
@example(
    # three ladders, multi-block sets, mixed scales
    [
        (Fraction(3, 4), 0, _TWO_BLOCKS),
        (-2, 2, IntervalSet.from_blocks([(Fraction(1, 4096), 1), (3, Fraction(13, 4))])),
        (Fraction(1, 3), 3, IntervalSet.block(Fraction(2, 3), Fraction(5, 2))),
        (Fraction(-1, 3), 0, IntervalSet.block(Fraction(1, 8), Fraction(5, 2))),
    ],
    Fraction(1, 2),
    Fraction(-3),
)
def test_canonical_terms_match_membership_reference(raw, o1, o2):
    terms = CodedReal.build(0, raw).terms
    assert terms == _membership_terms(raw)
    # same bytes, not only equal values
    assert CodedReal(0, terms).to_json() == CodedReal(0, _membership_terms(raw)).to_json()

    h = len(raw) // 2
    x, y = CodedReal.build(o1, raw[:h]), CodedReal.build(o2, raw[h:])
    assert x - y == x + (-y)
    assert o1 - y == CodedReal.from_rational(o1) + (-y)

    t = len(raw) // 3
    lhs = CodedReal.build(o1, raw[:t])
    a = CodedReal.build(o2, raw[t : 2 * t])
    b = CodedReal.build(0, raw[2 * t :])
    # the triangle oracle's fused d(i,j) - d(i,k) - d(k,j)
    assert _difference(lhs, a, b) == lhs - (a + b)


def _eval_reference(x, n):
    """``eval`` as a sum of one ``Fraction`` per enumerated hit."""
    base = x.offset
    lo_pad = hi_pad = Fraction(0)
    for term in x.terms:
        sched = ExponentSchedule(term.k)
        partial = Fraction(0)
        for i in range(n + 1):
            if rational_at(i) in term.index_set:
                partial += Fraction(1, 1 << sched.exponent(i))
        tail = Fraction(1, 1 << (sched.exponent(n + 1) - 1))
        base += term.coeff * partial
        if term.coeff > 0:
            hi_pad += term.coeff * tail
        else:
            lo_pad += term.coeff * tail
    return base + lo_pad, base + hi_pad


@settings(max_examples=150, deadline=None)
@given(raw_terms(), st.fractions(max_denominator=8), st.integers(0, 8))
@example(
    [
        (1, 0, UNIT),
        (Fraction(-3, 4), 3, IntervalSet.from_blocks([(0, Fraction(1, 3)), (Fraction(1, 2), 5)])),
    ],
    Fraction(1, 2),
    8,
)
def test_integer_eval_equals_per_hit_sum(raw, offset, n):
    x = CodedReal.build(offset, raw)
    enc = x.eval(n)
    lo, hi = _eval_reference(x, n)
    assert enc.lo == lo
    assert enc.hi == hi


@settings(max_examples=150, deadline=None)
@given(raw_terms(), st.fractions(max_denominator=8), st.integers(0, 8))
def test_negation_mirrors_eval(raw, offset, n):
    # the sup-bound scan reads |x|'s enclosure off x's own
    x = CodedReal.build(offset, raw)
    enc = x.eval(n)
    assert (-x).eval(n) == Enclosure(-enc.hi, -enc.lo)


def _eval_fraction_reference(x, n):
    """``eval`` as a ``Fraction`` sum per term, membership by ``Fraction``
    comparisons against each block."""
    lo = hi = x.offset
    for term in x.terms:
        sched = ExponentSchedule(term.k)
        partial = sum(
            (Fraction(1, 1 << sched.exponent(i)) for i in range(n + 1)
             if any(a <= rational_at(i) < b for a, b in term.index_set.blocks)),
            Fraction(0),
        )
        tail = term.coeff * Fraction(1, 1 << (sched.exponent(n + 1) - 1))
        lo += term.coeff * partial + min(tail, 0)
        hi += term.coeff * partial + max(tail, 0)
    return Enclosure(lo, hi)


@settings(max_examples=150, deadline=None)
@given(raw_terms(), st.fractions(max_denominator=8), st.integers(0, 8))
@example([], Fraction(-7, 3), 0)
@example([(Fraction(5, 7), 0, UNIT), (Fraction(-1, 3), 2, UNIT)], Fraction(1, 6), 8)
def test_eval_matches_fraction_reference(raw, offset, n):
    x = CodedReal.build(offset, raw)
    assert x.eval(n) == _eval_fraction_reference(x, n)


def _support_reference(k, index_set, index_cap):
    """The support scan as it compared ``Fraction``s, uncached."""
    sched = ExponentSchedule(k)
    support, tails = [], []
    for m in index_set.integer_levels():
        if m > 16:
            raise PrecisionError(f"index set reaches level {m}; out of range")
        trace = index_set.intersect_block(m, m + 1)
        frags = [(a - m, b - m) for a, b in trace.blocks]
        scan = max(8, (index_cap + 1) >> (m + 1))
        frag_hit = [False] * len(frags)
        if any(u == 0 for u, _ in frags):
            support.append(sched.exponent((1 << m) - 1))
            for t, (u, _) in enumerate(frags):
                if u == 0:
                    frag_hit[t] = True
        for j in range(1, scan + 1):
            a, b = fusc_pair(j)
            val = Fraction(a, a + b)
            for t, (u, v) in enumerate(frags):
                if u <= val < v:
                    support.append(sched.exponent((1 << m) * (2 * j + 1) - 1))
                    frag_hit[t] = True
                    break
        enum_lb = (1 << m) * (2 * scan + 3) - 1
        level_lb = None
        for t, (u, v) in enumerate(frags):
            if frag_hit[t]:
                frag_lb = enum_lb
            else:
                depth = min(tree_depth(u), tree_depth(simplest_in_open(u, v)))
                if depth >= (1 << 21).bit_length():
                    cand = 1 << 21
                else:
                    cand = (1 << m) * ((1 << depth) + 1) - 1
                frag_lb = max(enum_lb, cand)
            level_lb = frag_lb if level_lb is None else min(level_lb, frag_lb)
        if level_lb is not None:
            tails.append(sched.exponent(min(level_lb, 1 << 21)))
    return tuple(support), tuple(tails)


@st.composite
def index_sets(draw):
    """Sets over a pool of cuts at mixed scales, now and then one that
    reaches past the symbolic level range."""
    pool = sorted(draw(st.lists(_ENDPOINTS, min_size=2, max_size=8, unique=True)))
    if draw(st.integers(0, 9)) == 0:
        pool.append(Fraction(35, 2))
    picks = sorted(draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=8, unique=True)))
    return IntervalSet.from_blocks([(pool[a], pool[b]) for a, b in zip(picks, picks[1:])])


def _support_outcome(f, *args):
    try:
        return f(*args)
    except PrecisionError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), index_sets(), st.sampled_from([16, 64, 200]))
@example(0, IntervalSet.block(Fraction(1, 4096), Fraction(1, 4095)), 64)  # no scanned hit
@example(1, IntervalSet.from_blocks([(Fraction(1, 2), 1), (2, Fraction(7, 3))]), 16)
@example(2, IntervalSet.block(0, 17), 16)  # past level 16
def test_piece_support_matches_fraction_reference(k, index_set, index_cap):
    assert _support_outcome(_piece_support, k, index_set, index_cap) == _support_outcome(
        _support_reference, k, index_set, index_cap
    )


# Reference copy of the canonicalizer that sweeps every ladder, including
# one that holds a single entry.


def _sweep_reference(raw):
    by_k = {}
    for coeff, k, sett in raw:
        coeff = Fraction(coeff)
        if k < 0:
            raise ValueError("schedule offset must be nonnegative")
        if coeff == 0 or sett.is_empty:
            continue
        by_k.setdefault(k, []).append((coeff, sett))
    out = []
    for k in sorted(by_k):
        entries = by_k[k]
        cden = math.lcm(*(c.denominator for c, _ in entries))
        pden = math.lcm(
            *(p.denominator for _, s in entries for blk in s.blocks for p in blk)
        )
        delta, endpoint = {}, {}
        for coeff, s in entries:
            c = coeff.numerator * (cden // coeff.denominator)
            for a, b in s.blocks:
                ia = a.numerator * (pden // a.denominator)
                ib = b.numerator * (pden // b.denominator)
                delta[ia] = delta.get(ia, 0) + c
                delta[ib] = delta.get(ib, 0) - c
                endpoint[ia] = a
                endpoint[ib] = b
        runs = {}
        w = prev = 0
        for x in sorted(delta):
            if w:
                blocks = runs.setdefault(w, [])
                if blocks and blocks[-1][1] == prev:
                    blocks[-1][1] = x
                else:
                    blocks.append([prev, x])
            w += delta[x]
            prev = x
        for w in sorted(runs):
            sett = IntervalSet(tuple((endpoint[a], endpoint[b]) for a, b in runs[w]))
            out.append(Term(Fraction(w, cden), k, sett))
    return tuple(out)


@st.composite
def ladder_entries(draw):
    """One to three ladders of one to three entries each, over one pool of
    cuts, now and then with a zero coefficient or an empty set."""
    pool = sorted(draw(st.lists(_ENDPOINTS, min_size=3, max_size=7, unique=True)))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    entries = []
    for k in draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True)):
        for _ in range(draw(st.integers(1, 3))):
            picks = sorted(draw(st.lists(
                st.integers(0, len(pool) - 1), min_size=0, max_size=5, unique=True
            )))
            sett = IntervalSet.from_blocks(
                [(pool[a], pool[b]) for a, b in zip(picks[::2], picks[1::2])]
            )
            entries.append((draw(coeffs), k, sett))
    return draw(st.permutations(entries))


_HALF = IntervalSet.block(0, Fraction(1, 2))


@settings(max_examples=300, deadline=None)
@given(ladder_entries())
@example([(Fraction(1, 3), 2, _TWO_BLOCKS)])  # one entry
@example([(1, 0, _HALF), (1, 0, IntervalSet.block(Fraction(1, 2), 1))])  # two that merge
@example([(1, 0, _HALF), (-1, 0, _HALF), (2, 1, _TWO_BLOCKS)])  # two that cancel, one alone
@example([(0, 0, _HALF), (2, 0, _TWO_BLOCKS), (1, 3, IntervalSet())])  # one left after drops
def test_canonical_terms_match_sweep_reference(raw):
    terms = CodedReal.build(0, raw).terms
    reference = _sweep_reference(raw)
    assert terms == reference
    assert CodedReal(0, terms).to_json() == CodedReal(0, reference).to_json()


@settings(max_examples=200, deadline=None)
@given(
    raw_terms(),
    st.fractions(max_denominator=8),
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=9)),
)
@example(
    [(1, 0, _HALF), (2, 0, _TWO_BLOCKS), (Fraction(1, 2), 2, UNIT), (-1, 2, _HALF)],
    Fraction(1, 3),
    Fraction(-2, 3),
)
def test_scaling_matches_rebuild(raw, offset, s):
    x = CodedReal.build(offset, raw)
    scaled = x * s
    rebuilt = CodedReal.build(x.offset * s, [(t.coeff * s, t.k, t.index_set) for t in x.terms])
    assert scaled == rebuilt
    assert scaled.to_json() == rebuilt.to_json()
    assert -x == CodedReal.build(-x.offset, [(-t.coeff, t.k, t.index_set) for t in x.terms])


@pytest.mark.parametrize("k", [1.5, 1.0, True, "1", None])
def test_from_json_needs_an_integer_ladder(k):
    data = {"offset": "0/1", "terms": [{"coeff": "1/1", "k": k, "intervals": [["0/1", "1/1"]]}]}
    with pytest.raises(ValueError, match="ladder offset k must be an integer"):
        CodedReal.from_json(data)


# The sums as they were built before signed sums: every raw part of every
# summand through one canonicalization.  Kept verbatim as references.


def _rebuilt_add(x, y):
    raw = [(t.coeff, t.k, t.index_set) for t in x.terms + y.terms]
    return CodedReal.build(x.offset + y.offset, raw)


def _rebuilt_difference(x, *ys):
    parts = [(t.coeff, t.k, t.index_set) for t in x.terms]
    parts += [(-t.coeff, t.k, t.index_set) for y in ys for t in y.terms]
    return CodedReal.build(x.offset - sum(y.offset for y in ys), parts)


def _rebuilt_signed_sum(signed):
    return CodedReal.build(
        sum(s * v.offset for s, v in signed),
        [(s * t.coeff, t.k, t.index_set) for s, v in signed for t in v.terms],
    )


@st.composite
def coded_values(draw, pool):
    """A canonical value on one to three ladders, or now and then a pure
    offset, with blocks cut from ``pool``."""
    offset = draw(st.fractions(min_value=-3, max_value=3, max_denominator=6))
    if draw(st.integers(0, 4)) == 0:
        return CodedReal.from_rational(offset)
    entries = []
    for k in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True)):
        for _ in range(draw(st.integers(1, 3))):
            picks = sorted(draw(st.lists(
                st.integers(0, len(pool) - 1), min_size=2, max_size=5, unique=True
            )))
            sett = IntervalSet.from_blocks(
                [(pool[a], pool[b]) for a, b in zip(picks[::2], picks[1::2])]
            )
            coeff = draw(st.fractions(min_value=-3, max_value=3, max_denominator=6))
            entries.append((coeff or 1, k, sett))
    return CodedReal.build(offset, entries)


@st.composite
def signed_sums(draw):
    """One to four signed summands over one pool of cuts, so blocks of
    different summands overlap and abut; a summand may repeat an earlier one."""
    pool = sorted(draw(st.lists(_ENDPOINTS, min_size=3, max_size=7, unique=True)))
    values = []
    for _ in range(draw(st.integers(1, 4))):
        if values and draw(st.integers(0, 3)) == 0:
            values.append(draw(st.sampled_from(values)))
        else:
            values.append(draw(coded_values(pool)))
    return [(draw(st.sampled_from([1, -1])), v) for v in values]


_SPLIT = CodedReal.build(0, [(2, 0, _TWO_BLOCKS), (-1, 0, _HALF), (1, 2, UNIT)])


@settings(max_examples=200, deadline=None)
@given(signed_sums())
@example([(1, _SPLIT), (-1, _SPLIT)])  # one ladder touched twice cancels
@example([(-1, _SPLIT)])  # a negated ladder of several weights
@example([(1, CodedReal.from_rational(Fraction(1, 3))), (-1, _SPLIT)])
@example(
    # two summands on ladder 0 whose blocks abut, one alone on ladder 3
    [(1, coded_sum(0, _HALF)), (1, coded_sum(0, IntervalSet.block(Fraction(1, 2), 1))),
     (-1, coded_sum(3, _TWO_BLOCKS, Fraction(-2, 3)))]
)
def test_signed_sums_match_the_rebuilt_sums(signed):
    def same(a, b):
        assert a == b
        assert a.to_json() == b.to_json()

    same(_signed_sum(signed), _rebuilt_signed_sum(signed))
    x, *ys = (v for _, v in signed)
    same(_difference(x, *ys), _rebuilt_difference(x, *ys))
    for y in ys:
        same(x + y, _rebuilt_add(x, y))
        same(x - y, _rebuilt_difference(x, y))


def test_sums_that_touch_a_ladder_once_keep_its_terms():
    # a re-sweep would build new Term objects with equal fields
    x = _SPLIT
    q = Fraction(5, 7)
    assert len(x.terms) >= 3
    sums = [(x - q, -q), (q + x, q), (x + q, q), (_difference(x, CodedReal.from_rational(q)), -q)]
    for total, shift in sums:
        assert total.offset == x.offset + shift
        assert len(total.terms) == len(x.terms)
        assert all(a is b for a, b in zip(total.terms, x.terms))
    # x on ladders 0 and 2, the other summand on ladder 1: all terms are kept
    other = coded_sum(1, _HALF)
    both = x + other
    expected = sorted(x.terms + other.terms, key=lambda t: t.k)
    assert len(both.terms) == len(expected)
    assert all(a is b for a, b in zip(both.terms, expected))


def _eval_kernel_before(x, n):
    """``CodedReal.eval`` as it was before pure offsets took a shortcut."""
    if n < 0:
        raise ValueError("precision index must be nonnegative")
    tail_exps = []
    for term in x.terms:
        tail_exp = ExponentSchedule(term.k).exponent(n + 1) - 1
        if tail_exp > _MAX_EVAL_EXPONENT:
            raise PrecisionError("out of reach")
        tail_exps.append(tail_exp)
    top = max(tail_exps, default=0)
    offset = x.offset
    scale = math.lcm(offset.denominator, *(t.coeff.denominator for t in x.terms))
    base = offset.numerator * (scale // offset.denominator) << top
    lo_pad = hi_pad = 0
    prefix = _enumeration_prefix(n + 1)
    for term, tail_exp in zip(x.terms, tail_exps):
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


@pytest.mark.parametrize("n", range(9))
def test_eval_of_a_pure_offset_matches_the_full_kernel(n):
    for q in (Fraction(0), Fraction(-7, 3), Fraction(5, 12), Fraction(2), Fraction(1, 4096)):
        x = CodedReal.from_rational(q)
        assert x.eval(n) == _eval_kernel_before(x, n) == Enclosure(q, q)
        assert x.eval(n) == CodedReal.build(q, [(1, 0, IntervalSet())]).eval(n)


def _folded_equals(x, y):
    a, b = _on_least_ladder([x, y])
    return a == b


@st.composite
def mixed_ladder_pairs(draw):
    """Two values, the second often the first with each term lifted from
    ladder ``k`` to ``k + j`` at ``2^j`` times its coefficient (the same
    number on other ladders), now and then plus a small change."""
    pool = sorted(draw(st.lists(_ENDPOINTS, min_size=3, max_size=6, unique=True)))
    x = draw(coded_values(pool))
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return x, draw(coded_values(pool))
    lifts = [draw(st.integers(0, 2)) for _ in x.terms]
    y = CodedReal.build(
        x.offset, [(t.coeff * (1 << j), t.k + j, t.index_set) for t, j in zip(x.terms, lifts)]
    )
    if choice == 2:
        y = y + draw(coded_values(pool))
    return x, y


@settings(max_examples=200, deadline=None)
@given(mixed_ladder_pairs())
@example((coded_sum(0, UNIT), coded_sum(1, UNIT, 2)))  # one number on two ladders
@example((coded_sum(2, _HALF), coded_sum(2, _HALF)))
@example((CodedReal.from_rational(1), coded_sum(1, _HALF) + 1))
def test_equals_agrees_with_the_least_ladder_fold(pair):
    x, y = pair
    assert equals(x, y) is _folded_equals(x, y)
    assert equals(y, x) is _folded_equals(x, y)
    ex, ey = x.eval(5), y.eval(5)
    if ex.hi < ey.lo or ey.hi < ex.lo:
        assert not equals(x, y)


def test_cached_hashes_leave_fields_and_equality_alone():
    x = CodedReal.build(Fraction(1, 3), [(2, 0, _TWO_BLOCKS), (1, 2, UNIT)])
    y = CodedReal.build(Fraction(1, 3), [(2, 0, _TWO_BLOCKS), (1, 2, UNIT)])
    assert x is not y
    assert hash(x) == hash(x) == hash((x.offset, x.terms)) == hash(y)
    assert x == y and {x: 1}[y] == 1
    assert [f.name for f in dataclasses.fields(CodedReal)] == ["offset", "terms"]
    s = x.terms[0].index_set
    assert hash(s) == hash((s.blocks,)) == hash(IntervalSet(s.blocks))
    assert [f.name for f in dataclasses.fields(IntervalSet)] == ["blocks"]
    assert repr(x) == repr(y) and repr(s) == repr(IntervalSet(s.blocks))


def test_decode_of_a_pure_offset():
    for data in ({"offset": "-7/3", "terms": []}, {"offset": "5/1"}):
        x = CodedReal.from_json(data)
        assert x == CodedReal.from_rational(Fraction(data["offset"])) and x.terms == ()
    with pytest.raises(ZeroDivisionError):
        CodedReal.from_json({"offset": "1/0", "terms": []})


# The leading-index step of sign() against the support scan


def _least_index(value, limit):
    """The least enumeration index below ``limit`` in one of the value's
    term sets, or None, by walking the enumeration."""
    for i, (n, d) in enumerate(_enumeration_prefix(limit)):
        if any(t.index_set._block_index(n, d) >= 0 for t in value.terms):
            return i
    return None


# Below every index the scan reaches at a budget of at most 256 on the levels
# the values below touch: 2^6 * (2 * 8 + 1) - 1 = 1087 is the last at level
# 6, and a block reaching into level 7 holds 7 itself, at index 127.
_SCAN_REACH = 1100
_UNITS = sorted({Fraction(a, b) for b in range(2, 13) for a in range(1, b)})
# nonzero weights in [-4, 4] with denominators 1, 2, 4
_WEIGHTS = sorted({Fraction(a, b) for b in (1, 2, 4) for a in range(-4 * b, 4 * b + 1) if a})
# a ladder so far down that an integer of 2^k bits could never be allocated
_HUGE_K = 10**18


@st.composite
def leading_blocks(draw, budget):
    """A block at level 0-6 starting at an integer or inside the level and
    ending inside it, at its end or one level on; now and then a sliver
    whose least member lies just past the scan, or a block past level 16."""
    choice = draw(st.integers(0, 19))
    if choice == 0:
        return draw(st.sampled_from([(17, Fraction(35, 2)), (16, 18)]))
    m = draw(st.integers(0, 6))
    if choice == 1:
        scan = max(8, (budget + 1) >> (m + 1))
        x = m + unit_rational(draw(st.integers(scan + 1, 2 * scan)))
        return x, x + Fraction(1, 1 << 40)
    u, v = sorted(draw(st.lists(st.sampled_from(_UNITS), min_size=2, max_size=2, unique=True)))
    start = draw(st.sampled_from([m, m + u]))
    return start, draw(st.sampled_from([m + v, m + 1, m + 2]))


@st.composite
def one_ladder_values(draw):
    """A canonical value on one ladder with 1-4 parts and a budget; the
    ladder is now and then so far down that no integer of 2^-k is built."""
    budget = draw(st.sampled_from([16, 64, 256]))
    k = draw(st.sampled_from([0, 1, 2, _HUGE_K]))
    parts = [
        (draw(st.sampled_from(_WEIGHTS)), k, IntervalSet.from_blocks(
            draw(st.lists(leading_blocks(budget), min_size=1, max_size=2))
        ))
        for _ in range(draw(st.integers(1, 4)))
    ]
    offset = draw(st.sampled_from([
        Fraction(0),
        Fraction(draw(st.integers(-4, 4)), 1 << draw(st.integers(0, 20))),
        Fraction(draw(st.integers(-5, 5))),
    ]))
    return CodedReal.build(offset, parts), budget


_NEAR_HALF = Fraction(10**9 // 2 - 1, 10**9)
_AT_INTEGER_2 = IntervalSet.block(2, Fraction(5, 2))  # least index 3


@settings(max_examples=200, deadline=None)
@given(one_ladder_values())
# the sliver of test_unresolved_order_with_certified_distinctness
@example((coded_sum(0, IntervalSet.block(_NEAR_HALF, Fraction(1, 2)), -1), 64))
# least index 0 with the largest weight there
@example((CodedReal.build(0, [(1, 0, _HALF), (-1, 0, IntervalSet.block(Fraction(1, 2), 1))]), 64))
# an opposing offset just below and just at 2W * 2^-(2^3 + 0) = 1/128
@example((CodedReal.build(Fraction(-1, 128) + Fraction(1, 1 << 30), [(1, 0, _AT_INTEGER_2)]), 64))
@example((CodedReal.build(Fraction(-1, 128), [(1, 0, _AT_INTEGER_2)]), 64))
# an opposing offset far above the coded part on a huge ladder
@example((CodedReal.build(Fraction(-1, 1 << 20), [(1, _HUGE_K, _AT_INTEGER_2)]), 64))
# a sliver whose least member, odd part j = 33 at level 0, is past the scan
@example((coded_sum(0, IntervalSet.block(
    unit_rational(33), unit_rational(33) + Fraction(1, 1 << 40))), 64))
# parts that cancel to the zero form: no terms are left
@example((CodedReal.build(0, [(1, 0, _AT_INTEGER_2), (-1, 0, _AT_INTEGER_2)]), 64))
def test_leading_index_step_agrees_with_the_support_scan(case):
    value, budget = case
    lead = _leading_index_sign(value, budget)
    for cap in sorted({min(16, budget), min(64, budget), budget}):
        try:
            s = _sign_once(value, cap)
        except PrecisionError:
            assert lead is None
            return
        if s is not None:
            assert lead in (None, s)
    if value.terms and value.terms[0].k != _HUGE_K:
        enc = value.eval(6)
        if enc.lo > 0 or enc.hi < 0:
            assert lead in (None, 1 if enc.lo > 0 else -1)
    if lead is not None:
        # decided only from an index the scan reaches, and never at index 0
        i0 = _least_index(value, _SCAN_REACH)
        assert i0
        scanned = {e for t in value.terms for e in _piece_support(t.k, t.index_set, budget)[0]}
        assert (1 << i0) + value.terms[0].k in scanned


def test_leading_index_step_on_the_examples():
    sliver = coded_sum(0, IntervalSet.block(_NEAR_HALF, Fraction(1, 2)), -1)
    index_zero = CodedReal.build(0, [(1, 0, _HALF), (-1, 0, IntervalSet.block(Fraction(1, 2), 1))])
    below = CodedReal.build(Fraction(-1, 128) + Fraction(1, 1 << 30), [(1, 0, _AT_INTEGER_2)])
    at = CodedReal.build(Fraction(-1, 128), [(1, 0, _AT_INTEGER_2)])
    for deferred in (sliver, index_zero, below):
        assert _leading_index_sign(deferred, 64) is None
    assert _leading_index_sign(at, 64) == -1 == sign(at)
    assert _leading_index_sign(coded_sum(0, _AT_INTEGER_2, -3), 64) == -1
    # least index 87 (3 + 3/5, odd part j = 5 within the scan) beats the
    # sliver at 4/13 (index 120, j = 60 past it), which the scan bounds only
    # from index 67 on: the step decides where caps 16 and 64 cannot
    x, y = 3 + unit_rational(5), unit_rational(60)
    ahead = CodedReal.build(0, [(1, 0, IntervalSet.block(x, x + Fraction(1, 1 << 40))),
                                (-1, 0, IntervalSet.block(y, y + Fraction(1, 1 << 40)))])
    assert _sign_once(ahead, 16) is None and _sign_once(ahead, 64) is None
    assert _leading_index_sign(ahead, 64) == 1 == _sign_once(ahead, 256)


def test_leading_index_step_on_a_huge_ladder():
    # the offset test is gated on the whole exponent 2^i0 + k: here the
    # offset wins outright, and 2^-(2^3 + k) is never built
    far = CodedReal.build(Fraction(-1, 1 << 20), [(1, _HUGE_K, _AT_INTEGER_2)])
    assert _leading_index_sign(far, 64) == -1 == sign(far) == _sign_once(far, 16)
    assert _leading_index_sign(-far, 64) == 1 == sign(-far)
    with pytest.raises(PrecisionError):
        far.eval(0)


_DYADIC_TERMS = st.dictionaries(
    st.integers(0, 64),
    st.one_of(st.integers(-4, 4), st.integers(-(1 << 20), 1 << 20)).filter(bool),
    max_size=5,
)


def _dyadic_value(terms, shift=0):
    return sum((Fraction(c, 1 << (e + shift)) for e, c in terms.items()), Fraction(0))


@settings(max_examples=300, deadline=None)
@given(_DYADIC_TERMS, _DYADIC_TERMS, st.integers(0, 64))
# a tail past a gap that no integer could be shifted by: 10^18 and 2^(2^20)
@example({0: 1}, {0: -3}, 10**18)
@example({3: -1, 9: 5}, {0: 1 << 20}, 10**18)
@example({0: 1, 1: -2}, {5: -1}, 10**18)  # the head cancels, the tail decides
@example({2: 7}, {0: -1, 1: 1}, 1 << (1 << 20))
@example({}, {4: 3}, 1 << (1 << 20))
@example({0: 1, 1: -2}, {}, 1 << (1 << 20))  # the whole sum cancels
def test_dyadic_sign_matches_the_fraction_sum(head, tail, gap):
    """Exponents 0-64 in the head, the tail ``gap`` further down."""
    entries = _merge_entries([*head.items(), *((e + gap, c) for e, c in tail.items())])
    if gap <= 64:
        exact = _dyadic_value(head) + _dyadic_value(tail, gap)
    else:
        # the tail weighs below 2^23 * 2^-gap, under any nonzero head (2^-64)
        assert gap > 100
        exact = _dyadic_value(head) or _dyadic_value(tail)
    assert _dyadic_sign(entries) == (exact > 0) - (exact < 0)


@settings(max_examples=200, deadline=None)
@given(one_ladder_values())
@example((coded_sum(0, IntervalSet.block(_NEAR_HALF, Fraction(1, 2)), -1), 64))
@example((CodedReal.build(0, [
    (1, 0, IntervalSet.block(3 + unit_rational(5), 3 + unit_rational(5) + Fraction(1, 1 << 40))),
    (-1, 0, IntervalSet.block(unit_rational(60), unit_rational(60) + Fraction(1, 1 << 40))),
]), 64))  # open at caps 16 and 64, decided at 256
def test_a_sign_the_scan_decides_stays_decided_at_higher_caps(case):
    # sign's cap ladder 16 -> 64 -> max rests on this
    value, _ = case
    outcomes = [_support_outcome(_sign_once, value, cap) for cap in (16, 64, 256)]
    decided = [s for s in outcomes if s is not None]
    assert decided == [] or outcomes[-len(decided):] == [decided[0]] * len(decided)


def test_a_fold_across_too_many_ladders_is_refused_at_once():
    # folding onto ladder 0 would scale by 2^(10^18): refused, not built
    far = coded_sum(0, _AT_INTEGER_2) + coded_sum(_HUGE_K, _AT_INTEGER_2)
    for check in (lambda: sign(far), lambda: equals(far, far),
                  lambda: equals(far, coded_sum(0, _AT_INTEGER_2))):
        start = time.perf_counter()
        with pytest.raises(PrecisionError):
            check()
        assert time.perf_counter() - start < 0.1


def test_a_fold_spans_at_most_the_eval_exponent():
    near = coded_sum(0, _AT_INTEGER_2)
    (folded,) = _on_least_ladder([near + coded_sum(_MAX_EVAL_EXPONENT, _AT_INTEGER_2)])
    assert {t.k for t in folded.terms} == {0}
    with pytest.raises(PrecisionError):
        _on_least_ladder([near + coded_sum(_MAX_EVAL_EXPONENT + 1, _AT_INTEGER_2)])


def test_values_on_one_ladder_are_not_folded():
    family = [coded_sum(2, _HALF), CodedReal.from_rational(1), coded_sum(2, UNIT, -3)]
    assert all(a is b for a, b in zip(_on_least_ladder(family), family, strict=True))
