"""Cross-validation of the symbolic comparison engine.

Random coded values with materializable supports let two independent routes
answer the same questions: the symbolic sign engine and plain rational
enclosure refinement.  They must never disagree.
"""

import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from rigidmetrics.coded import (
    CodedReal,
    EQUAL,
    GREATER,
    LESS,
    UNRESOLVED,
    coded_sum,
    compare,
    equals,
    sign,
)
from rigidmetrics.intervals import IntervalSet
from rigidmetrics.verify import _distinctness

# Precision budget that resolves every value the strategies below draw.  A
# sign is settled once the support scan reaches the first member of each
# fragment; at integer level m the scan covers odd-part positions up to
# (cap + 1) >> (m + 1).  Cuts lie in [0, 3] with denominators <= 6, so the
# deepest first member is 17/6 = 2 + 5/6: level 2, and 5/6 sits at position
# 31 (the last of tree row 5), index 2^2 * (2*31 + 1) - 1 = 251.
# Level 2 thus needs (cap + 1) >> 3 >= 31, i.e. cap >= 247; the default of
# 64 stops at position 8.  256 is the next power of two.
FUZZ_PRECISION = 256

# <g0,[1/3,1)> - 3/2 <g1,[1/3,1)> - <g2,[1/3,1)> is exactly 0, since
# <g_k, B> = 2^-k <g_0, B>, yet its canonical form spans three ladders.
THIRD_TO_ONE = IntervalSet.block(Fraction(1, 3), 1)
ZERO_ACROSS_LADDERS = CodedReal.build(
    0,
    [(1, 0, THIRD_TO_ONE), (Fraction(-3, 2), 1, THIRD_TO_ONE), (-1, 2, THIRD_TO_ONE)],
)
# Positive, but its first support index (251) lies beyond the default scan.
DEEP_FIRST_MEMBER = coded_sum(0, IntervalSet.block(Fraction(17, 6), 3))


def on_ladder_0(x):
    """``x`` with every term rewritten on ladder 0: <g_k, B> = 2^-k <g_0, B>."""
    return CodedReal.build(
        x.offset, [(t.coeff / (1 << t.k), 0, t.index_set) for t in x.terms]
    )


@st.composite
def interval_sets(draw):
    cuts = draw(
        st.lists(
            st.fractions(min_value=0, max_value=3, max_denominator=6),
            min_size=2,
            max_size=5,
            unique=True,
        )
    )
    cuts = sorted(cuts)
    blocks = []
    for a, b in zip(cuts, cuts[1:]):
        if draw(st.booleans()):
            blocks.append((a, b))
    return IntervalSet.from_blocks(blocks)


@st.composite
def coded_values(draw):
    offset = draw(st.fractions(min_value=-3, max_value=3, max_denominator=8))
    parts = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(3)]
                ),
                st.integers(0, 2),
                interval_sets(),
            ),
            max_size=3,
        )
    )
    return CodedReal.build(offset, parts)


@settings(max_examples=80, deadline=None)
@given(coded_values())
@example(ZERO_ACROSS_LADDERS)
@example(DEEP_FIRST_MEMBER)
def test_sign_agrees_with_enclosures(x):
    s = sign(x, FUZZ_PRECISION)
    assert s is not None  # shallow supports resolve within FUZZ_PRECISION
    for n in range(0, 9, 2):
        enc = x.eval(n)
        if s > 0:
            assert enc.hi > 0
        elif s < 0:
            assert enc.lo < 0
        else:
            assert enc.lo <= 0 <= enc.hi
    if s == 0:
        # canonical forms are unique per ladder: written on ladder 0 alone,
        # a zero must have the zero form
        assert on_ladder_0(x).is_zero_form()
    else:
        # when refinement manages to separate (the engine can decide sets
        # whose first support index lies beyond any materializable eval),
        # it must land on the same side
        for n in range(13):
            enc = x.eval(n)
            if enc.lo > 0 or enc.hi < 0:
                assert (enc.lo > 0) == (s > 0)
                break


@settings(max_examples=60, deadline=None)
@given(coded_values(), coded_values())
@example(DEEP_FIRST_MEMBER, CodedReal())
def test_compare_antisymmetric(x, y):
    xy = compare(x, y, FUZZ_PRECISION)
    yx = compare(y, x, FUZZ_PRECISION)
    flips = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}
    assert yx == flips[xy]
    if xy == EQUAL:
        assert equals(x, y) is True


def lifted(x, j):
    """``x`` with every term moved up ``j`` ladders: <g_k, B> = 2^j <g_(k+j), B>."""
    return CodedReal.build(
        x.offset, [(t.coeff * (1 << j), t.k + j, t.index_set) for t in x.terms]
    )


@settings(max_examples=80, deadline=None)
@given(coded_values(), coded_values(), st.integers(0, 2))
@example(ZERO_ACROSS_LADDERS, CodedReal(), 1)
def test_equals_agrees_with_decided_compare(x, y, j):
    # pairs of unrelated values, and equal values written on other ladders
    for a, b in ((x, y), (x, lifted(x, j)), (x + y, lifted(y, j) + x)):
        order = compare(a, b, FUZZ_PRECISION)
        if order != UNRESOLVED:
            assert equals(a, b) is (order == EQUAL)


def _equals_before_folding(x, y, max_precision):
    """``equals`` as it was before equality compared folded forms: the sign
    engine, then distinct forms on one shared ladder; None if undecided."""
    if x == y:
        return True
    order = compare(x, y, max_precision)
    if order in (LESS, GREATER):
        return False
    if order == EQUAL:
        return True
    return False if len({t.k for t in x.terms} | {t.k for t in y.terms}) == 1 else None


def _distinctness_before_folding(values, max_precision):
    """``verify._distinctness`` as it was before it grouped folded values."""
    groups = {}
    for tag, value in values:
        groups.setdefault(value, []).append(tag)
    collisions = [tuple(tags) for tags in groups.values() if len(tags) > 1]
    if collisions:
        return "fail", tuple(collisions)
    distinct = list(groups)
    ks = {t.k for v in distinct for t in v.terms}
    if len(ks) <= 1:
        return "pass", ()
    unresolved = []
    for a in range(len(distinct)):
        for b in range(a + 1, len(distinct)):
            verdict = _equals_before_folding(distinct[a], distinct[b], max_precision)
            if verdict is True:
                return "fail", (tuple(groups[distinct[a]] + groups[distinct[b]]),)
            if verdict is None:
                unresolved.append((groups[distinct[a]][0], groups[distinct[b]][0]))
    if unresolved:
        return "unresolved", tuple(unresolved)
    return "pass", ()


@st.composite
def tagged_families(draw):
    """Tagged coded values, some repeated as they are or on another ladder."""
    values = draw(st.lists(coded_values(), min_size=1, max_size=4))
    for x in draw(st.lists(st.sampled_from(values), max_size=2)):
        values.append(lifted(x, draw(st.integers(0, 2))))
    return [((f"t{i}",), v) for i, v in enumerate(values)]


@settings(max_examples=80, deadline=None)
@given(tagged_families())
def test_distinctness_agrees_with_the_sign_engine(values):
    verdict, witnesses = _distinctness(values)
    old_verdict, old_witnesses = _distinctness_before_folding(values, FUZZ_PRECISION)
    if old_verdict == "unresolved":
        return
    assert verdict == old_verdict
    # the old check stopped at its first collision; each is inside a new group
    groups = [set(group) for group in witnesses]
    assert all(any(set(w) <= g for g in groups) for w in old_witnesses)


@settings(max_examples=60, deadline=None)
@given(coded_values(), coded_values(), coded_values())
def test_arithmetic_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert (x - x).is_zero_form()
    assert (x + y) * Fraction(2, 3) == x * Fraction(2, 3) + y * Fraction(2, 3)
    # negative scaling must land in canonical form too
    assert x * Fraction(-2) == (-x) + (-x)
    assert -(-x) == x


@settings(max_examples=60, deadline=None)
@given(coded_values(), st.integers(0, 8))
def test_compare_consistent_with_enclosure(x, n):
    enc = x.eval(n)
    probe = enc.hi + Fraction(1, 7)
    assert compare(x, probe) == LESS
    probe = enc.lo - Fraction(1, 9)
    assert compare(x, probe) == GREATER


def test_transitivity_spot_checks():
    rng = random.Random(11)
    values = []
    for _ in range(25):
        blocks = []
        cut = Fraction(rng.randint(1, 18), 6)
        blocks.append((Fraction(rng.randint(0, 5), 6), cut))
        values.append(
            coded_sum(rng.choice([0, 1]), IntervalSet.from_blocks(blocks))
            + Fraction(rng.randint(-4, 4), 3)
        )
    for _ in range(300):
        a, b, c = rng.sample(values, 3)
        if compare(a, b) == LESS and compare(b, c) == LESS:
            assert compare(a, c) == LESS
