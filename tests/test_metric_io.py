from fractions import Fraction

import pytest

from rigidmetrics.coded import CodedReal, coded_sum
from rigidmetrics.errors import DomainError
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


def test_from_json_decodes_each_distinct_entry_once(monkeypatch):
    data = _coded_metric().to_json()
    distinct = {repr(e) for row in data["matrix"] for e in row}
    seen = []
    real = CodedReal._decode

    def counting(entry):
        seen.append(repr(entry))
        return real(entry)

    # count decodes, not the memo hits that CodedReal.from_json also serves
    monkeypatch.setattr(CodedReal, "_decode", staticmethod(counting))
    assert FiniteMetric.from_json(data) == _coded_metric()
    assert sorted(seen) == sorted(distinct)
    assert len(distinct) < 16


def test_from_json_shares_repeated_endpoints_and_sets():
    m = FiniteMetric.from_json(_coded_metric().to_json())
    x, x1 = m.at(0, 1), m.at(0, 2)
    # two entries written apart share their interval set and endpoints
    assert x.terms[0].index_set is x1.terms[0].index_set
    assert m.at(0, 3).offset is m.at(1, 2).offset


def test_a_decode_that_raises_leaves_no_scope_open():
    data = _coded_metric().to_json()
    data["matrix"][3][3]["offset"] = "1/0"
    with pytest.raises(ZeroDivisionError):
        FiniteMetric.from_json(data)
    assert _decode_memo.get() is None
    data = _coded_metric().to_json()
    # a degenerate block drops its term, so the last entry differs from its mirror
    data["matrix"][3][2]["terms"][0]["intervals"] = [["1/2", "1/2"]]
    with pytest.raises(DomainError, match="asymmetric"):
        FiniteMetric.from_json(data)
    assert _decode_memo.get() is None
    assert FiniteMetric.from_json(_coded_metric().to_json()) == _coded_metric()


def test_from_json_still_compares_mirror_entries():
    data = _coded_metric().to_json()
    # mirror entries that differ in one coefficient
    data["matrix"][1][0]["terms"][0]["coeff"] = "2/1"
    with pytest.raises(DomainError, match="asymmetric"):
        FiniteMetric.from_json(data)
    # mirror entries written differently but equal in value
    data = _coded_metric().to_json()
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
