import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rigidmetrics.coded import CodedReal, _coeff_str, _parse_coeff, coded_sum
from rigidmetrics.errors import DomainError, ResourceError
from rigidmetrics.intervals import IntervalSet, _decode_memo
from rigidmetrics.metric import FiniteMetric, dump_metric, load_metric


def test_structural_validation():
    with pytest.raises(DomainError):
        FiniteMetric.from_entries(["a", "a"], [[0, 1], [1, 0]])
    with pytest.raises(DomainError):
        FiniteMetric.from_entries(["a", "b"], [[0, 1], [2, 0]])
    with pytest.raises(DomainError):
        FiniteMetric.from_entries(["a", "b"], [[1, 1], [1, 0]])


def test_json_round_trip_mixed_entries():
    coded = coded_sum(3, IntervalSet.from_blocks([(0, Fraction(1, 2)), (1, Fraction(4, 3))]))
    m = FiniteMetric.from_entries(
        ["a", "b", "c"],
        [
            [0, Fraction(5, 3), coded],
            [Fraction(5, 3), 0, coded + Fraction(1, 7)],
            [coded, coded + Fraction(1, 7), 0],
        ],
    )
    text = dump_metric(m)
    again = load_metric(text)
    assert again == m
    assert dump_metric(again) == text


def test_csv_round_trip():
    m = FiniteMetric.from_entries(
        ["a", "b"], [[0, Fraction(7, 10)], [Fraction(7, 10), 0]]
    )
    text = dump_metric(m, "csv")
    assert load_metric(text, "csv") == m


def test_csv_rejects_coded_entries():
    coded = coded_sum(0, IntervalSet.block(0, 1))
    m = FiniteMetric.from_entries(["a", "b"], [[0, coded], [coded, 0]])
    with pytest.raises(DomainError):
        dump_metric(m, "csv")


def test_restrict_and_distance():
    m = FiniteMetric.from_entries(
        ["a", "b", "c"],
        [[0, 1, 2], [1, 0, 3], [2, 3, 0]],
    )
    r = m.restrict(["c", "a"])
    assert r.points == ("c", "a")
    assert r.distance("c", "a").rational_value() == 2
    with pytest.raises(DomainError):
        m.distance("a", "zz")


def test_scaled():
    m = FiniteMetric.from_entries(["a", "b"], [[0, 2], [2, 0]])
    assert m.scaled(Fraction(1, 4)).at(0, 1).rational_value() == Fraction(1, 2)
    with pytest.raises(DomainError):
        m.scaled(Fraction(0))


def _coded_metric():
    x = coded_sum(3, IntervalSet.from_blocks([(0, Fraction(1, 2)), (1, Fraction(4, 3))]))
    return FiniteMetric.from_entries(
        ["a", "b", "c", "d"],
        [
            [0, x, x + 1, Fraction(5, 3)],
            [x, 0, Fraction(5, 3), x + 1],
            [x + 1, Fraction(5, 3), 0, x],
            [Fraction(5, 3), x + 1, x, 0],
        ],
    )


def _legacy(m):
    """``m`` in the spelling with no version: the full matrix."""
    return {"points": list(m.points), "matrix": [[e.to_json() for e in row] for row in m.matrix]}


def test_json_writes_each_pair_once():
    m = _coded_metric()
    data = m.to_json()
    assert set(data) == {"version", "points", "pairs"} and data["version"] == 1
    assert data["pairs"] == [m.at(i, j).to_json() for i, j in m.pairs()]
    assert FiniteMetric.from_json(data) == m


def test_a_legacy_matrix_reads_as_its_rewrite():
    m = _coded_metric()
    legacy = _legacy(m)
    assert FiniteMetric.from_json(legacy) == FiniteMetric.from_json(m.to_json()) == m
    # an asymmetric matrix still fails
    legacy["matrix"][1][0]["terms"][0]["coeff"] = "2/1"
    with pytest.raises(DomainError, match="asymmetric"):
        FiniteMetric.from_json(legacy)


@pytest.mark.parametrize(
    "damage",
    [lambda d: d["pairs"].pop(), lambda d: d["pairs"].append(d["pairs"][0]),
     lambda d: d.update(pairs={}), lambda d: d.update(version=2),
     lambda d: d.update(version="1"), lambda d: d.update(version=True),
     lambda d: d.update(version=None)],
    ids=["one-short", "one-over", "not-a-list", "version-2", "version-string",
         "version-true", "version-null"],
)
def test_a_wrong_pair_count_or_version_is_refused(damage):
    data = _coded_metric().to_json()
    damage(data)
    with pytest.raises(ValueError, match="pairs|version") as info:
        FiniteMetric.from_json(data)
    assert not isinstance(info.value, DomainError)


_DYADIC = st.builds(lambda e, sign: sign * Fraction(2) ** e,
                    st.integers(-70, 70), st.sampled_from([1, -1]))
_OTHER = st.fractions(min_value=-5, max_value=5, max_denominator=50).filter(lambda q: q != 0)
_SETS = st.lists(
    st.tuples(st.fractions(0, 3, max_denominator=6), st.fractions(0, 3, max_denominator=6)),
    min_size=1, max_size=3,
).map(IntervalSet.from_blocks).filter(lambda sett: not sett.is_empty)


@st.composite
def coded_metrics(draw):
    """A symmetric table of coded values, some coefficients ``±2^e``, some
    other rationals; the metric axioms are not needed to round-trip it."""
    n = draw(st.integers(2, 4))
    values = {}
    for i in range(n):
        for j in range(i + 1, n):
            parts = draw(st.lists(st.tuples(st.one_of(_DYADIC, _OTHER), st.integers(0, 3), _SETS),
                                  max_size=3))
            offset = draw(st.fractions(0, 4, max_denominator=20))
            values[(i, j)] = CodedReal.build(offset, parts)
    return FiniteMetric.from_pair_function([f"p{i}" for i in range(n)],
                                           lambda i, j: values[(i, j)])


@settings(max_examples=150, deadline=None)
@given(coded_metrics())
def test_format_1_round_trips_coded_metrics(m):
    text = dump_metric(m)
    again = load_metric(text)
    assert again == m and dump_metric(again) == text
    # the legacy matrix of the same values reads as the same metric
    assert FiniteMetric.from_json(_legacy(m)) == m
    for (i, j), written in zip(m.pairs(), m.to_json()["pairs"]):
        for term, spelled in zip(m.at(i, j).terms, written["terms"]):
            c = term.coeff
            power = abs(c.numerator) * c.denominator
            dyadic = c not in (1, -1) and power & (power - 1) == 0
            assert ("^" in spelled["coeff"]) == dyadic


@settings(max_examples=300, deadline=None)
@given(st.one_of(_DYADIC, _OTHER))
@example(Fraction(1))
@example(Fraction(-1))
@example(Fraction(1, 16384))
@example(Fraction(-8))
@example(Fraction(3, 4))
def test_coefficient_spelling_round_trips(c):
    text = _coeff_str(c)
    assert _parse_coeff(text) == c
    if c == Fraction(1, 16384):
        assert text == "2^-14"
    if c in (1, -1):
        assert "^" not in text


def test_a_p_q_coefficient_still_reads():
    # hand-written inputs spell every coefficient p/q
    x = coded_sum(0, IntervalSet.block(0, 1), Fraction(1, 16384))
    m = FiniteMetric.from_entries(["a", "b"], [[0, 1 + x], [1 + x, 0]])
    data = m.to_json()
    assert data["pairs"][0]["terms"][0]["coeff"] == "2^-14"
    data["pairs"][0]["terms"][0]["coeff"] = "1/16384"
    assert FiniteMetric.from_json(data) == m
    assert FiniteMetric.from_json(_legacy(m)) == m


@pytest.mark.parametrize("text", ["2^", "2^1.5", "2^-03", "2^0", "-2^-0", "+2^3", "3^2",
                                  "2^ 3", "2^3 ", "2^^3"])
def test_a_malformed_power_is_a_value_error(text):
    with pytest.raises(ValueError) as info:
        _parse_coeff(text)
    assert not isinstance(info.value, DomainError)


@pytest.mark.parametrize("text", ["2^-10000000000", "2^10000000000", "-2^2097153",
                                  "2^" + "9" * 5000])
def test_a_remote_power_is_refused_before_it_is_built(text):
    started = time.perf_counter()
    with pytest.raises(ResourceError, match="exponent too large"):
        _parse_coeff(text)
    assert time.perf_counter() - started < 0.1


def test_from_json_shares_repeated_endpoints():
    m = FiniteMetric.from_json(_coded_metric().to_json())
    x, x1 = m.at(0, 1), m.at(0, 2)
    # two entries share the endpoints and offsets they spell alike
    assert x.terms[0].index_set == x1.terms[0].index_set
    assert x.terms[0].index_set.blocks[0][1] is x1.terms[0].index_set.blocks[0][1]
    assert m.at(0, 3).offset is m.at(1, 2).offset


def test_a_decode_that_raises_leaves_no_scope_open():
    data = _coded_metric().to_json()
    data["pairs"][-1]["offset"] = "1/0"
    with pytest.raises(ZeroDivisionError):
        FiniteMetric.from_json(data)
    assert _decode_memo.get() is None
    data = _legacy(_coded_metric())
    # a degenerate block drops its term, so the last entry differs from its mirror
    data["matrix"][3][2]["terms"][0]["intervals"] = [["1/2", "1/2"]]
    with pytest.raises(DomainError, match="asymmetric"):
        FiniteMetric.from_json(data)
    assert _decode_memo.get() is None
    assert FiniteMetric.from_json(_coded_metric().to_json()) == _coded_metric()


def test_from_json_still_compares_mirror_entries():
    data = _legacy(_coded_metric())
    # mirror entries that differ in one coefficient
    data["matrix"][1][0]["terms"][0]["coeff"] = "2/1"
    with pytest.raises(DomainError, match="asymmetric"):
        FiniteMetric.from_json(data)
    # mirror entries written differently but equal in value
    data = _legacy(_coded_metric())
    data["matrix"][0][3]["offset"] = "10/6"
    data["matrix"][3][0]["offset"] = "5/3"
    data["matrix"][0][1]["terms"][0]["coeff"] = "2/2"
    assert FiniteMetric.from_json(data) == _coded_metric()
    rational = {"points": ["a", "b"], "matrix": [
        [{"offset": "0/1", "terms": []}, {"offset": "2/4", "terms": []}],
        [{"offset": "1/2", "terms": []}, {"offset": "0/1", "terms": []}],
    ]}
    assert FiniteMetric.from_json(rational).at(0, 1).rational_value() == Fraction(1, 2)


def _zero_across_ladders():
    # <g0,[0,1)> - 2<g1,[0,1)>: a nonzero form whose value is 0
    b = IntervalSet.block(0, 1)
    return coded_sum(0, b) - coded_sum(1, b, 2)


def test_diagonal_is_tested_by_value():
    z = _zero_across_ladders()
    assert not z.is_zero_form()
    m = FiniteMetric.from_entries(["a", "b"], [[z, 1], [1, 0]])
    assert m.at(0, 0) is z
    with pytest.raises(DomainError, match="nonzero diagonal"):
        FiniteMetric.from_entries(["a", "b"], [[z + 1, 1], [1, 0]])


def test_mirror_entries_are_compared_by_value():
    # x = <g1,[0,1)> and y = 1/2 <g0,[0,1)>: two forms of one number
    b = IntervalSet.block(0, 1)
    x, y = coded_sum(1, b), coded_sum(0, b, Fraction(1, 2))
    assert x != y
    m = FiniteMetric.from_entries(["a", "b"], [[0, 1 + x], [1 + y, 0]])
    assert m.at(0, 1) == 1 + x and m.at(1, 0) == 1 + y
    with pytest.raises(DomainError, match="asymmetric"):
        FiniteMetric.from_entries(["a", "b"], [[0, 1 + x], [1 + 2 * y, 0]])
