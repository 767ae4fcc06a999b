import json
import random
import sys
import time
from fractions import Fraction

import pytest

from conftest import clustered_metric, rational_metric
from rigidmetrics import cli
from rigidmetrics.cli import main
from rigidmetrics.coded import _parse_coeff
from rigidmetrics.glue import CERTIFICATE_VERSION, rigidify_full
from rigidmetrics.intervals import _frac_str
from rigidmetrics.metric import FiniteMetric, dump_metric, load_metric


@pytest.fixture
def metric_file(tmp_path):
    m = FiniteMetric.from_entries(
        ["a", "b", "c"],
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    )
    path = tmp_path / "m.json"
    path.write_text(dump_metric(m))
    return path


def test_dist_zero(metric_file, capsys):
    assert main(["dist", str(metric_file), str(metric_file)]) == 0
    assert capsys.readouterr().out.strip() == "0/1"


def test_dist_prints_an_enclosure_when_it_is_not_exact(tmp_path, capsys):
    # |1 + <g0,[0,1/3)> - 1| has no exact rational enclosure: lo and hi differ
    coded = {"offset": "1/1", "terms": [{"coeff": "1/1", "k": 0, "intervals": [["0/1", "1/3"]]}]}
    paths = []
    for name, d in (("coded", coded), ("one", {"offset": "1/1", "terms": []})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"points": ["a", "b"], "matrix": [
            [{"offset": "0/1", "terms": []}, d], [d, {"offset": "0/1", "terms": []}]]}))
        paths.append(str(path))
    assert main(["dist", *paths]) == 0
    lo, hi = (Fraction(x) for x in capsys.readouterr().out.split())
    assert 0 < lo < hi


def test_verify_exit_codes(metric_file, capsys):
    assert main(["verify", "--metric", str(metric_file), "--check", "metric"]) == 0
    assert main(["verify", "--metric", str(metric_file), "--check", "sr"]) == 1
    out = capsys.readouterr().out
    assert '"verdict":"fail"' in out


def test_report_records_precision_budget(metric_file, tmp_path, capsys):
    argv = ["verify", "--metric", str(metric_file), "--check"]
    for check in (["metric"], ["strict"], ["sr"], ["lnm"], ["embed", "--xi", "a"]):
        assert main(["--max-precision", "16", *argv, *check]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["precision"] == 16
    cert = tmp_path / "m.cert.json"
    assert main(["rigidify", str(metric_file), "--epsilon", "1/2", "--full",
                 "--out", str(tmp_path / "out.json"), "--certificate", str(cert)]) == 0
    assert main(["--max-precision", "16", "indep", str(cert)]) == 0
    assert json.loads(capsys.readouterr().out)["precision"] == 16
    # the default budget is reported as before
    assert main([*argv, "strict"]) == 0
    assert json.loads(capsys.readouterr().out)["precision"] == 64


def test_main_calls_share_no_parser_state(metric_file, capsys):
    verify = ["verify", "--metric", str(metric_file), "--check"]
    assert main(["--max-precision", "16", *verify, "metric"]) == 0
    assert json.loads(capsys.readouterr().out)["precision"] == 16
    assert main([*verify, "metric"]) == 0
    assert json.loads(capsys.readouterr().out)["precision"] == 64
    assert main([*verify, "lnm", "--m", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["detail"] == "member at m=3"
    assert main([*verify, "lnm"]) == 0
    assert json.loads(capsys.readouterr().out)["detail"] == "member at m=0"
    # one parser serves every call
    assert cli._parser() is cli._parser()


def test_rigidify_round_trip(metric_file, tmp_path, capsys):
    out_path = tmp_path / "r.json"
    assert main(["rigidify", str(metric_file), "--epsilon", "1", "--out", str(out_path)]) == 0
    again = load_metric(out_path.read_text())
    assert main(["verify", "--metric", str(out_path), "--check", "sr"]) == 0
    assert main(["verify", "--metric", str(out_path), "--check", "strict"]) == 0
    capsys.readouterr()


def test_rigidify_determinism(metric_file, tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["--seed", "5", "rigidify", str(metric_file), "--epsilon", "1/2", "--out", str(p1)])
    main(["--seed", "5", "rigidify", str(metric_file), "--epsilon", "1/2", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()
    p3 = tmp_path / "r3.json"
    main(["--seed", "6", "rigidify", str(metric_file), "--epsilon", "1/2", "--out", str(p3)])
    assert p1.read_bytes() != p3.read_bytes()


def test_rigidify_full_and_indep(metric_file, tmp_path, capsys):
    out_path = tmp_path / "f.json"
    cert_path = tmp_path / "f.cert.json"
    code = main([
        "rigidify", str(metric_file), "--epsilon", "1/2", "--full",
        "--out", str(out_path), "--certificate", str(cert_path),
    ])
    assert code == 0
    assert main(["verify", "--metric", str(out_path), "--check", "sr"]) == 0
    assert main(["indep", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    assert Fraction(cert["sup_bound"]["achieved_hi"]) <= Fraction(1, 2)
    capsys.readouterr()


def test_rigidify_full_prints_the_certificate_without_out_or_certificate(
    metric_file, tmp_path, capsys
):
    argv = ["--seed", "4", "rigidify", str(metric_file), "--epsilon", "1/2", "--full"]
    assert main(argv) == 0
    printed = tmp_path / "printed.cert.json"
    printed.write_text(capsys.readouterr().out)
    written = tmp_path / "written.cert.json"
    assert main([*argv, "--certificate", str(written)]) == 0
    assert capsys.readouterr().out == ""
    assert printed.read_bytes() == written.read_bytes()
    assert main(["indep", str(printed)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def test_verify_rigid_exit_codes(metric_file, tmp_path, capsys):
    # a rigidified metric has pairwise distinct distances, so only the identity
    # preserves them; the equilateral triangle has five more isometries
    source, out = tmp_path / "five.json", tmp_path / "five.out.json"
    source.write_text(dump_metric(rational_metric(random.Random(2), 5)))
    assert main(["rigidify", str(source), "--epsilon", "1/2", "--out", str(out)]) == 0
    assert main(["verify", "--metric", str(out), "--check", "rigid"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert main(["verify", "--metric", str(metric_file), "--check", "rigid"]) == 1
    assert json.loads(capsys.readouterr().out)["detail"] == "nontrivial self-isometry"
    # the isometry search is capped at 12 points
    thirteen = tmp_path / "thirteen.json"
    thirteen.write_text(dump_metric(rational_metric(random.Random(2), 13)))
    assert main(["verify", "--metric", str(thirteen), "--check", "rigid"]) == 5
    assert capsys.readouterr().err.startswith("resource limit:")


def test_rigidify_refuses_an_input_with_undecided_axioms(tmp_path, capsys):
    # d(x, z) = 2 + <g0, [0, 1/2)> against d(x, y) + d(y, z), whose coded part
    # differs from it only past any precision: is_metric stays unresolved
    def entry(offset, end=None):
        terms = [] if end is None else [{"coeff": "1/1", "k": 0, "intervals": [["0/1", end]]}]
        return {"offset": offset, "terms": terms}

    xy, xz = entry("1/1", "499999999/1000000000"), entry("2/1", "1/2")
    yz, o = entry("1/1"), entry("0/1")
    sliver = tmp_path / "sliver.json"
    sliver.write_text(json.dumps({"points": ["x", "y", "z"],
                                  "matrix": [[o, xy, xz], [xy, o, yz], [xz, yz, o]]}))
    assert main(["rigidify", str(sliver), "--epsilon", "1/2"]) == 2
    assert capsys.readouterr().err == "unresolved: input metric axioms undecided\n"


def test_rigidify_writes_csv_within_epsilon(tmp_path, capsys):
    source, out = tmp_path / "in.csv", tmp_path / "out.csv"
    source.write_text("point,a,b,c,d\na,0,1,5/4,3/2\nb,1,0,7/4,9/8\n"
                      "c,5/4,7/4,0,11/8\nd,3/2,9/8,11/8,0\n")
    argv = ["--format", "csv", "rigidify", str(source), "--epsilon", "1/2", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text().splitlines()[0] == "point,a,b,c,d"
    assert main(["dist", str(source), str(out)]) == 0
    (hi,) = capsys.readouterr().out.split()[-1:]
    assert 0 < Fraction(hi) <= Fraction(1, 2)


def test_cross_process_determinism(metric_file, tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rigidmetrics

    # The child must run the very source under test, whether the package was
    # found through a relative PYTHONPATH, an install, or anything else, and
    # from any working directory: hand it the absolute directory that holds
    # the imported package, ahead of any installed copy.
    package_root = str(Path(rigidmetrics.__file__).resolve().parent.parent)
    outs = []
    for tag, hashseed in (("a", "1"), ("b", "99")):
        out_path = tmp_path / f"x{tag}.json"
        cert_path = tmp_path / f"x{tag}.cert.json"
        env = {"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin",
               "PYTHONPATH": package_root}
        # a run that keeps the source tree free of bytecode keeps it so in the child
        if "PYTHONDONTWRITEBYTECODE" in os.environ:
            env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
        subprocess.run(
            [sys.executable, "-m", "rigidmetrics.cli", "--seed", "3",
             "rigidify", str(metric_file), "--epsilon", "1/2", "--full",
             "--out", str(out_path), "--certificate", str(cert_path)],
            check=True,
            env=env,
        )
        outs.append((out_path.read_bytes(), cert_path.read_bytes()))
    assert outs[0] == outs[1]


def test_certificate_json_round_trip_identity(metric_file, tmp_path):
    from rigidmetrics.metric import dumps_canonical

    cert_path = tmp_path / "c.json"
    main(["rigidify", str(metric_file), "--epsilon", "1/2", "--full",
          "--certificate", str(cert_path), "--out", str(tmp_path / "m.json")])
    text = cert_path.read_text()
    assert dumps_canonical(json.loads(text)) == text


def test_certificate_determinism(metric_file, tmp_path):
    paths = []
    for tag in ("1", "2"):
        out_path = tmp_path / f"m{tag}.json"
        cert_path = tmp_path / f"c{tag}.json"
        main(["--seed", "9", "rigidify", str(metric_file), "--epsilon", "1/2",
              "--full", "--out", str(out_path), "--certificate", str(cert_path)])
        paths.append((out_path, cert_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_glue_job(tmp_path, capsys):
    job = {
        "partition": {"blocks": [["a", "b"], ["c"]], "hubs": ["a", "c"]},
        "block_metrics": [
            FiniteMetric.from_entries(["a", "b"], [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]).to_json(),
            FiniteMetric.from_entries(["c"], [[0]]).to_json(),
        ],
        "hub_metric": FiniteMetric.from_entries(["a", "c"], [[0, 2], [2, 0]]).to_json(),
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["glue", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    glued = FiniteMetric.from_json(out)
    assert glued.distance("b", "c").rational_value() == Fraction(5, 2)


def test_product_matrix(tmp_path, capsys):
    out_path = tmp_path / "tau.json"
    assert main(["product", "--alphabet", "2", "--length", "2", "--k", "3",
                 "--out", str(out_path)]) == 0
    metric = load_metric(out_path.read_text())
    assert metric.size == 4
    assert main(["verify", "--metric", str(out_path), "--check", "sr"]) == 0
    assert main(["verify", "--metric", str(out_path), "--check", "strict"]) == 0
    capsys.readouterr()


def test_product_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["--seed", "1", "product", "--alphabet", "2", "--length", "2", "--out", str(a)])
    main(["--seed", "1", "product", "--alphabet", "2", "--length", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


NO_MATRIX = json.dumps({"points": ["a", "b"]})
STRING_ENTRY = json.dumps({"points": ["a", "b"], "matrix": [["0", "1"], ["1", "0"]]})
VERIFY = ["verify", "--metric", "{}", "--check", "metric"]
DIST = ["dist", "{}", "{}"]
RIGIDIFY = ["rigidify", "{}", "--epsilon", "1"]


def _entry(offset="0/1", intervals=None, k=0):
    terms = [] if intervals is None else [{"coeff": "1/1", "k": k, "intervals": intervals}]
    return {"offset": offset, "terms": terms}


def _two_points(d):
    return {"points": ["a", "b"], "matrix": [[_entry(), d], [d, _entry()]]}


def _two_points_v1(d):
    return {"version": 1, "points": ["a", "b"], "pairs": [d]}


def _power_entry(coeff):
    return {"offset": "1/1", "terms": [{"coeff": coeff, "k": 0, "intervals": [["0/1", "1/2"]]}]}


def _legacy_input_certificate():
    """The 4-point certificate with its input in the matrix spelling."""
    data = _four_point_certificate()
    source = FiniteMetric.from_json(data["input"])
    data["input"] = {"points": list(source.points),
                     "matrix": [[e.to_json() for e in row] for row in source.matrix]}
    return json.dumps(data)


def _two_point_csv(cell):
    return f"point,a,b\na,0,{cell}\nb,{cell},0\n"


ZERO_DEN_OFFSET = json.dumps(_two_points(_entry("1/0")))
ZERO_DEN_INTERVAL = json.dumps(_two_points(_entry("1/1", [["0/1", "1/0"]])))
HALF_LADDER = json.dumps(_two_points(_entry("1/1", [["0/1", "1/1"]], k=1.5)))
ONE_POINT = {"version": 1, "points": ["a"], "pairs": []}
# every part the checker decodes before sup_bound.epsilon is well-formed
ZERO_DEN_EPSILON_CERT = json.dumps({
    "version": CERTIFICATE_VERSION,
    "metric": ONE_POINT,
    "input": ONE_POINT,
    "registry": {"seed": 0, "gauges": {}, "hubs": []},
    "independence": [],
    "sup_bound": {"epsilon": "1/0", "achieved_lo": "0/1", "achieved_hi": "0/1"},
})


def _four_point_certificate(parameters: bool = False, version_5: bool = False) -> dict:
    """A 4-point ``rigidify --full`` certificate; with ``parameters``, also
    the ``parameters`` block, the ladder and the partition, that a version-4
    writer put beside the other parts; with ``version_5``, as a version-5
    writer wrote it, each hub record under its index with its ``p``, ``q``
    and ``words``."""
    q = Fraction
    d = FiniteMetric.from_entries(["a", "b", "c", "d"], [
        [0, 1, q(5, 4), q(3, 2)],
        [1, 0, q(7, 4), q(9, 8)],
        [q(5, 4), q(7, 4), 0, q(11, 8)],
        [q(3, 2), q(9, 8), q(11, 8), 0],
    ])
    metric, cert = rigidify_full(d, q(1, 2))
    data = cert.to_json(metric)
    if version_5:
        data.update(version=5, registry=cert.registry_snapshot)
    if parameters:
        partition = cert.partition
        data["parameters"] = {"k": cert.k, "partition": {
            "blocks": [list(b) for b in partition.blocks], "hubs": list(partition.hubs)}}
    return data


def _version_4_certificate():
    """The 4-point certificate as a version-4 writer wrote it."""
    return json.dumps({**_four_point_certificate(parameters=True), "version": 4})


def _respelled_certificate(table, old, new):
    """The 4-point certificate with the entry ``old`` of the registry table
    at path ``table`` (its first entry when ``old`` is None) stored under
    ``new(old)``, another spelling of its key that ``int`` reads alike."""
    data = _four_point_certificate()
    entries = data["registry"]
    for name in table:
        entries = entries[name]
    old = next(iter(entries)) if old is None else old
    entries[new(old)] = entries.pop(old)
    return json.dumps(data)


def _respelled_gauge_certificate(key):
    """The 4-point certificate with gauge 1 stored under ``key``."""
    return _respelled_certificate(("gauges",), "1", lambda _: key)


def _respelled_draw_certificate(key):
    """The 4-point certificate with gauge 0's draw ``0:0:1`` stored under ``key``."""
    return _respelled_certificate(("gauges", "0", "draws"), "0:0:1", lambda _: key)


def _padded_hub_p_certificate(pad):
    """The 4-point certificate with ``pad`` before its first hub ``p``."""
    data = _four_point_certificate()
    data["registry"]["hubs"][0] = pad + data["registry"]["hubs"][0]
    return json.dumps(data)


def _half_ladder_certificate(every_term):
    """The 4-point certificate with the ``parameters`` block of version 4,
    its ``k`` raised by one half, which ``int`` would truncate back; with
    ``every_term``, no such block and each term's ``k`` of the metric and
    the rows raised instead."""
    data = _four_point_certificate(parameters=not every_term)

    def walk(node):
        if isinstance(node, list):
            for child in node:
                walk(child)
        elif isinstance(node, dict):
            if {"coeff", "k", "intervals"} <= node.keys():
                node["k"] += 0.5
            walk(list(node.values()))

    if every_term:
        walk(data)
    else:
        data["parameters"]["k"] += 0.5
    return json.dumps(data)


@pytest.mark.parametrize(
    "name, text, argv",
    [
        pytest.param("bad.json", "{not json", VERIFY, id="not-json"),
        pytest.param("job.json", "{}", ["glue", "{}"], id="glue-empty-job"),
        pytest.param("m.json", NO_MATRIX, VERIFY, id="verify-no-matrix"),
        pytest.param("m.json", NO_MATRIX, DIST, id="dist-no-matrix"),
        pytest.param("m.json", NO_MATRIX, RIGIDIFY, id="rigidify-no-matrix"),
        pytest.param("m.json", STRING_ENTRY, VERIFY, id="verify-string-entry"),
        pytest.param("m.json", STRING_ENTRY, DIST, id="dist-string-entry"),
        pytest.param("m.json", STRING_ENTRY, RIGIDIFY, id="rigidify-string-entry"),
        pytest.param("m.csv", "", RIGIDIFY, id="rigidify-empty-csv"),
        pytest.param("m.json", ZERO_DEN_OFFSET, VERIFY, id="zero-denominator-offset"),
        pytest.param("m.json", ZERO_DEN_INTERVAL, DIST, id="zero-denominator-interval"),
        pytest.param("m.csv", "point,a,b\na,0,1/0\nb,1/0,0\n", RIGIDIFY,
                     id="zero-denominator-csv-cell"),
        pytest.param("m.csv", "point,a,b\na,0,1\nb,1,0\n",
                     ["rigidify", "{}", "--epsilon", "1/0"], id="zero-denominator-epsilon"),
        # malformed, and longer than the int-string digit limit: still a parse error
        pytest.param("m.csv", _two_point_csv("x" + "1" * 5000), VERIFY, id="long-letter-csv-cell"),
        pytest.param("m.csv", _two_point_csv("1" * 5000 + ".5.5"), VERIFY,
                     id="long-two-dots-csv-cell"),
        pytest.param("c.cert.json", ZERO_DEN_EPSILON_CERT, ["indep", "{}"],
                     id="zero-denominator-certificate-epsilon"),
        pytest.param("m.json", HALF_LADDER, VERIFY, id="fractional-ladder-metric"),
        pytest.param("c.cert.json", _half_ladder_certificate(False), ["indep", "{}"],
                     id="fractional-ladder-certificate"),
        # version 5 reads no earlier version
        pytest.param("c.cert.json", _version_4_certificate(), ["indep", "{}"],
                     id="version-4-certificate"),
        pytest.param("c.cert.json", _respelled_gauge_certificate("01"), ["indep", "{}"],
                     id="zero-padded-gauge-key"),
        pytest.param("c.cert.json", _respelled_gauge_certificate(" 1"), ["indep", "{}"],
                     id="space-padded-gauge-key"),
        pytest.param("c.cert.json", _respelled_draw_certificate("0:0:01"), ["indep", "{}"],
                     id="zero-padded-draw-key"),
        pytest.param("c.cert.json", _respelled_draw_certificate("+0:0:1"), ["indep", "{}"],
                     id="signed-draw-key"),
        pytest.param("c.cert.json", _respelled_draw_certificate("0:0:1:0"), ["indep", "{}"],
                     id="four-part-draw-key"),
        pytest.param("c.cert.json", _padded_hub_p_certificate("0"), ["indep", "{}"],
                     id="zero-padded-hub-p"),
        pytest.param("m.json", json.dumps({**_two_points_v1(_entry("1/1")), "version": 2}),
                     VERIFY, id="metric-version-2"),
        pytest.param("m.json", json.dumps({**_two_points_v1(_entry("1/1")), "pairs": []}),
                     VERIFY, id="metric-too-few-pairs"),
        pytest.param("m.json", json.dumps({**_two_points_v1(_entry("1/1")),
                                           "pairs": [_entry("1/1")] * 2}),
                     DIST, id="metric-too-many-pairs"),
        *(pytest.param("m.json", json.dumps(_two_points_v1(_power_entry(coeff))), VERIFY,
                       id=f"malformed-power-{coeff}") for coeff in ("2^", "2^1.5", "2^-03")),
        pytest.param("c.cert.json", _legacy_input_certificate(), ["indep", "{}"],
                     id="certificate-input-in-the-matrix-spelling"),
    ],
)
def test_parse_error_exit_code(tmp_path, capsys, name, text, argv):
    bad = tmp_path / name
    bad.write_text(text)
    assert main([arg.format(bad) for arg in argv]) == 3
    assert capsys.readouterr().err.startswith("parse error:")


def test_fractional_ladders_in_the_metric_and_rows_fail(tmp_path, capsys):
    # the metric and the rows are compared as JSON, not parsed
    bad = tmp_path / "c.cert.json"
    bad.write_text(_half_ladder_certificate(True))
    assert main(["indep", str(bad)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail" and report["detail"] == "component replay failed"


def test_invariant_violation_exit_code(tmp_path, capsys):
    asym = tmp_path / "asym.json"
    asym.write_text(json.dumps({
        "points": ["a", "b"],
        "matrix": [
            [{"offset": "0/1", "terms": []}, {"offset": "1/1", "terms": []}],
            [{"offset": "2/1", "terms": []}, {"offset": "0/1", "terms": []}],
        ],
    }))
    assert main(["rigidify", str(asym), "--epsilon", "1"]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("xy_cut, code", [("499999999/1000000000", 0), ("1/2", 1)])
def test_verify_sr_decides_equality_across_ladders(tmp_path, capsys, xy_cut, code):
    # d(x,y) = 1 + <g0,[0,xy_cut)>, d(x,z) = 1 + 2<g1,[0,1/2)>: one number
    # exactly when xy_cut is 1/2, and no budget orders them otherwise
    xy = _entry("1/1", [["0/1", xy_cut]])
    xz = {"offset": "1/1",
          "terms": [{"coeff": "2/1", "k": 1, "intervals": [["0/1", "1/2"]]}]}
    yz = _entry("2/1")
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"points": ["x", "y", "z"], "matrix": [
        [_entry(), xy, xz], [xy, _entry(), yz], [xz, yz, _entry()]]}))
    assert main(["verify", "--metric", str(path), "--check", "sr"]) == code
    assert json.loads(capsys.readouterr().out)["verdict"] == ("pass", "fail")[code]


def test_a_fold_across_too_many_ladders_is_a_resource_limit(tmp_path, capsys):
    # <g0,[2,5/2)> + <g_(10^18),[2,5/2)>: its fold onto ladder 0 is refused
    terms = [{"coeff": "1/1", "k": k, "intervals": [["2/1", "5/2"]]} for k in (0, 10**18)]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(_two_points({"offset": "0/1", "terms": terms})))
    assert main(["verify", "--metric", str(path), "--check", "metric"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("resource limit: folding across") and "Traceback" not in err


def test_nonmetric_input_rejected(tmp_path, capsys):
    bad = FiniteMetric.from_entries(
        ["a", "b", "c"],
        [[0, 1, 4], [1, 0, 2], [4, 2, 0]],
    )
    path = tmp_path / "bad.json"
    path.write_text(dump_metric(bad))
    assert main(["rigidify", str(path), "--epsilon", "1"]) == 4
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["rigidify", "{}", "--epsilon", "1"], id="rigidify"),
        pytest.param(["verify", "--metric", "{}", "--check", "metric"], id="verify"),
        pytest.param(["dist", "{}", "{}"], id="dist"),
    ],
)
def test_csv_suffix_selects_csv(tmp_path, capsys, argv):
    path = tmp_path / "m.csv"
    path.write_text("point,a,b\na,0,1\nb,1,0\n")
    assert main([arg.format(path) for arg in argv]) == 0
    out = capsys.readouterr().out
    if argv[0] == "dist":
        assert out.strip() == "0/1"
    if argv[0] == "verify":
        assert json.loads(out)["verdict"] == "pass"


def test_verify_reports_a_nonmetric_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("point,a,b,c\na,0,1,4\nb,1,0,2\nc,4,2,0\n")
    assert main(["verify", "--metric", str(path), "--check", "metric"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail"
    assert report["witnesses"] == [["a", "c", "b"]]


def test_approx_flag(metric_file, capsys):
    assert main(["--approx", "rigidify", str(metric_file), "--epsilon", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["approx_pairs"]) == len(payload["pairs"])
    assert "approx_matrix" not in payload


def test_full_approx_output_keeps_the_certificate_metric_exact(metric_file, tmp_path):
    # the output file is written from the certificate's metric, with the
    # decimal renderings added on a copy
    paths = {flags: (tmp_path / f"{len(flags)}.json", tmp_path / f"{len(flags)}.cert.json")
             for flags in ((), ("--approx",))}
    for flags, (out, cert) in paths.items():
        assert main([*flags, "rigidify", str(metric_file), "--epsilon", "1/2", "--full",
                     "--out", str(out), "--certificate", str(cert)]) == 0
    (plain, plain_cert), (approx, approx_cert) = paths.values()
    assert plain_cert.read_bytes() == approx_cert.read_bytes()
    written = json.loads(approx.read_text())
    assert {"approx_pairs", "approx_note"} <= set(written)
    assert json.loads(plain.read_text()) == json.loads(plain_cert.read_text())["metric"]
    assert {k: written[k] for k in ("version", "points", "pairs")} == json.loads(plain.read_text())


@pytest.fixture
def clustered_certificate(tmp_path):
    """A clustered input's certificate, whose block components recur in several rows."""
    path = tmp_path / "clustered.json"
    path.write_text(dump_metric(clustered_metric(random.Random(3), 3, 2)))
    cert_path = tmp_path / "clustered.cert.json"
    argv = ["rigidify", str(path), "--epsilon", "1/2", "--full", "--certificate", str(cert_path)]
    assert main(argv) == 0
    return cert_path


def _most_shared_block_component(cert):
    """Rows holding the block component that the most rows share, and its text."""
    holders: dict[str, list] = {}
    for row in cert["independence"]:
        for comp in row["certificate"]["left"]:
            if comp["kind"] == "block" and comp["value"]["terms"]:
                holders.setdefault(json.dumps(comp, sort_keys=True), []).append(row)
    text = max(holders, key=lambda t: len(holders[t]))
    return text, holders[text]


@pytest.mark.parametrize("field", ["value", "gauge"])
def test_indep_rejects_one_altered_copy_of_a_shared_component(
    clustered_certificate, tmp_path, capsys, field
):
    cert = json.loads(clustered_certificate.read_text())
    text, records = _most_shared_block_component(cert)
    assert len(records) >= 5
    # alter the last copy only, after the checker has accepted the others
    side = records[-1]["certificate"]["left"]
    comp = next(c for c in side if json.dumps(c, sort_keys=True) == text)
    if field == "value":
        comp["value"]["terms"][0]["coeff"] = "2/1"
    else:
        # a registered gauge that no other component of the side uses, so the
        # syntactic check still passes and only the replay can catch it
        used = {c["gauge"] for c in side}
        blocks = sorted(int(g) for g in cert["registry"]["gauges"] if g != "0")
        comp["gauge"] = next(g for g in blocks if g not in used)
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(cert))
    assert main(["indep", str(clustered_certificate)]) == 0
    assert main(["indep", str(forged)]) == 1
    assert '"verdict":"fail"' in capsys.readouterr().out.splitlines()[-1]


@pytest.mark.parametrize("damage", ["registry", "value"])
def test_indep_malformed_certificate_is_a_parse_error(
    clustered_certificate, tmp_path, capsys, damage
):
    cert = json.loads(clustered_certificate.read_text())
    if damage == "registry":
        del cert["registry"]
    else:
        # a hub record that is not its p alone, but an object holding it
        hubs = cert["registry"]["hubs"]
        hubs[0] = {"p": hubs[0]}
    bad = tmp_path / "bad.cert.json"
    bad.write_text(json.dumps(cert))
    assert main(["indep", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("parse error:")


@pytest.mark.parametrize("damage", ["no-gauge-0", "undrawn-letters"])
def test_indep_fails_a_hub_whose_basis_cannot_be_replayed(
    clustered_certificate, tmp_path, capsys, damage
):
    # each hub's basis is replayed from its words on the reserved gauge 0,
    # which must hold every draw the replay asks for: hub 0's words are (0,)
    # and (1,), drawn at levels 0 and 1
    cert = json.loads(clustered_certificate.read_text())
    if damage == "no-gauge-0":
        del cert["registry"]["gauges"]["0"]
    else:
        draws = cert["registry"]["gauges"]["0"]["draws"]
        del draws["0:0:1"], draws["1:0:1"]
    bad = tmp_path / "bad.cert.json"
    bad.write_text(json.dumps(cert))
    assert main(["indep", str(bad)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail" and report["detail"] == "component replay failed"


def test_indep_refuses_a_v0_certificate(clustered_certificate, tmp_path, capsys):
    cert = json.loads(clustered_certificate.read_text())
    # the v0 shape: no version or input, one record per pair of distances
    del cert["version"], cert["input"]
    first, second = cert["independence"][:2]
    a, b, c = cert["metric"]["points"][:3]
    cert["independence"] = [{
        "pair_left": [a, b],
        "pair_right": [a, c],
        "certificate": {
            "kind": "sum-independence",
            "left": first["certificate"]["left"],
            "right": second["certificate"]["left"],
        },
    }]
    old = tmp_path / "v0.cert.json"
    old.write_text(json.dumps(cert))
    assert main(["indep", str(old)]) == 3
    assert capsys.readouterr().err == "parse error: unsupported certificate version\n"


def test_indep_refuses_a_v1_certificate(clustered_certificate, tmp_path, capsys):
    cert = json.loads(clustered_certificate.read_text())
    cert["version"] = 1
    old = tmp_path / "v1.cert.json"
    old.write_text(json.dumps(cert))
    assert main(["indep", str(old)]) == 3
    assert capsys.readouterr().err == "parse error: unsupported certificate version\n"


def test_indep_refuses_a_v2_certificate(clustered_certificate, tmp_path, capsys):
    cert = json.loads(clustered_certificate.read_text())
    # the v2 shape: each row also names its pair
    points = cert["metric"]["points"]
    pairs = [[a, b] for i, a in enumerate(points) for b in points[i + 1:]]
    for row, pair in zip(cert["independence"], pairs):
        row.update(pair_left=pair, pair_right=["1"])
        row["certificate"]["kind"] = "tagged-sum"
    cert["version"] = 2
    old = tmp_path / "v2.cert.json"
    old.write_text(json.dumps(cert))
    assert main(["indep", str(old)]) == 3
    assert capsys.readouterr().err == "parse error: unsupported certificate version\n"


def test_indep_refuses_a_v3_certificate(clustered_certificate, tmp_path, capsys):
    cert = json.loads(clustered_certificate.read_text())
    # the v3 shape: the input and the metric as full matrices, every
    # coefficient p/q
    for name in ("input", "metric"):
        m = FiniteMetric.from_json(cert[name])
        cert[name] = {"points": list(m.points), "matrix": [
            [{**e.to_json(), "terms": [{**t, "coeff": _frac_str(_parse_coeff(t["coeff"]))}
                                       for t in e.to_json()["terms"]]} for e in row]
            for row in m.matrix]}
    cert["version"] = 3
    old = tmp_path / "v3.cert.json"
    old.write_text(json.dumps(cert))
    assert main(["indep", str(old)]) == 3
    assert capsys.readouterr().err == "parse error: unsupported certificate version\n"


def _hub_moved_out_of_its_window(data):
    # half a window step up, eta / 2 = 1/20: past the top of every window
    hubs = data["registry"]["hubs"]
    hubs[0] = _frac_str(Fraction(hubs[0]) + Fraction(1, 40))


def _hub_removed(data):
    data["registry"]["hubs"].pop()


def _hub_appended(data):
    hubs = data["registry"]["hubs"]
    hubs.append(_frac_str(Fraction(hubs[-1]) + Fraction(1, 10 ** 6)))


def _hub_respelled(data):
    hubs = data["registry"]["hubs"]
    p, q = hubs[0].split("/")
    hubs[0] = f"{2 * int(p)}/{2 * int(q)}"


def _hub_as_version_5_record(data):
    # the record that a version-5 writer stated for hub 0
    records = _four_point_certificate(version_5=True)["registry"]["hubs"]
    assert set(records[min(records, key=int)]) == {"p", "q", "words"}
    data["registry"]["hubs"][0] = records[min(records, key=int)]


def _version_5_certificate(data):
    data.clear()
    data.update(_four_point_certificate(version_5=True))


@pytest.mark.parametrize(
    "forge, code, message",
    [(_hub_moved_out_of_its_window, 1, None),
     (_hub_removed, 1, None),
     (_hub_appended, 1, None),
     (_hub_respelled, 3, "parse error: certificate part registry is not spelled"),
     (_hub_as_version_5_record, 3, "parse error: the registry's hubs must be a list"),
     (_version_5_certificate, 3, "parse error: unsupported certificate version")],
)
def test_indep_checks_each_stated_hub_p(tmp_path, capsys, forge, code, message):
    # a version-6 hub record is its p alone, in hub-pair order: one moved out
    # of its window, one too few or one too many fail the replay, and any
    # other spelling is a parse error
    data = _four_point_certificate()
    assert data["version"] == 6 and all(isinstance(p, str) for p in data["registry"]["hubs"])
    forge(data)
    bad = tmp_path / "bad.cert.json"
    bad.write_text(json.dumps(data))
    assert main(["indep", str(bad)]) == code
    captured = capsys.readouterr()
    if message is None:
        report = json.loads(captured.out)
        assert (report["verdict"], report["detail"]) == ("fail", "component replay failed")
    else:
        assert captured.err.startswith(message)


@pytest.mark.parametrize(
    "argv",
    [pytest.param(["rigidify", "{}", "--epsilon", "1/2", "--format", "csv"],
                  id="global-flag-after-the-subcommand"),
     pytest.param(["rigidify", "{}"], id="no-epsilon"),
     pytest.param(["frobnicate"], id="unknown-subcommand")],
)
def test_a_usage_error_is_a_parse_error(metric_file, capsys, argv):
    # argparse's own exit code for a usage error, 2, means unresolved here
    with pytest.raises(SystemExit) as raised:
        main([arg.format(metric_file) for arg in argv])
    assert raised.value.code == 3
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["rigidify", "--help"]):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_a_metric_coefficient_respelled_p_q_fails_the_check(tmp_path, capsys):
    # the stated metric is compared with the derived one as JSON: 2^-14
    # written 1/16384 is the same value, spelled otherwise
    data = _four_point_certificate()
    coeffs = [t for e in data["metric"]["pairs"] for t in e["terms"]]
    respelled = next(t for t in coeffs if t["coeff"] == "2^-14")
    respelled["coeff"] = "1/16384"
    bad = tmp_path / "bad.cert.json"
    bad.write_text(json.dumps(data))
    assert main(["indep", str(bad)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["detail"] == "components do not sum to the metric entry"
    assert FiniteMetric.from_json(data["metric"]) == FiniteMetric.from_json(
        _four_point_certificate()["metric"])


def test_a_remote_power_coefficient_is_a_resource_limit(tmp_path, capsys):
    path = tmp_path / "far.json"
    path.write_text(json.dumps(_two_points_v1(_power_entry("2^-10000000000"))))
    started = time.perf_counter()
    assert main(["verify", "--metric", str(path), "--check", "metric"]) == 5
    assert time.perf_counter() - started < 0.1
    assert capsys.readouterr().err.startswith("resource limit: coefficient exponent too large")


def test_v1_output_holds_each_pair_once(metric_file, tmp_path):
    out = tmp_path / "out.json"
    assert main(["rigidify", str(metric_file), "--epsilon", "1/2", "--full",
                 "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    n = len(written["points"])
    assert written["version"] == 1 and "matrix" not in written
    assert len(written["pairs"]) == n * (n - 1) // 2
    coeffs = {t["coeff"] for e in written["pairs"] for t in e["terms"]}
    assert coeffs and all(c.startswith("2^-") for c in coeffs)


@pytest.fixture
def digit_cap():
    """Python's int-string digit limit lowered to its least value, 640."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no integer digit cap before Python 3.10.7")
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(cap)


def test_two_points_at_a_small_epsilon_certify(tmp_path):
    # hub window ends have O(log(d / epsilon)) digits, so epsilon 1/700 stays
    # far below the int-string digit limit with --full and in the check
    source = tmp_path / "two.csv"
    source.write_text("point,a,b\na,0,1\nb,1,0\n")
    out, cert = tmp_path / "out.json", tmp_path / "out.cert.json"
    assert main(["rigidify", str(source), "--epsilon", "1/700", "--full", "--out", str(out),
                 "--certificate", str(cert)]) == 0
    assert main(["indep", str(cert)]) == 0


def test_rounded_sup_enclosure_stays_below_the_digit_cap(tmp_path, digit_cap):
    # two points at distance 1 with epsilon 1/10^97: the exact sup enclosure
    # had more than 640 digits; rounded outward it has 64 significant bits
    source = tmp_path / "two.csv"
    source.write_text("point,a,b\na,0,1\nb,1,0\n")
    out, cert = tmp_path / "out.json", tmp_path / "out.cert.json"
    assert main(["rigidify", str(source), "--epsilon", f"1/{10 ** 97}", "--full",
                 "--out", str(out), "--certificate", str(cert)]) == 0
    assert main(["indep", str(cert)]) == 0
    sup = json.loads(cert.read_text())["sup_bound"]
    for end in ("achieved_lo", "achieved_hi"):
        assert Fraction(sup[end]).numerator.bit_length() <= 64
    assert 0 < Fraction(sup["achieved_lo"]) <= Fraction(sup["achieved_hi"]) <= Fraction(1, 10 ** 97)


def test_digit_cap_on_output_is_a_resource_limit(tmp_path, capsys, digit_cap):
    # two points at distance 1 with epsilon 1/10^400: the hub p has
    # Theta(log(d / epsilon)) digits, more than 640 from about 1/10^320 on
    source = tmp_path / "two.csv"
    source.write_text("point,a,b\na,0,1\nb,1,0\n")
    out = tmp_path / "out.json"
    argv = ["rigidify", str(source), "--epsilon", f"1/{10 ** 400}", "--full", "--out", str(out)]
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert err.startswith("resource limit: rational too long to write")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [source]


@pytest.mark.parametrize(
    "name, text",
    [pytest.param("long.json", json.dumps(_two_points(_entry("1" * 700 + "/1"))), id="json-pq"),
     pytest.param("long.csv", _two_point_csv("1" * 700), id="csv-integer"),
     pytest.param("long.csv", _two_point_csv("1" * 700 + ".5"), id="csv-decimal"),
     # Fraction would build 10**10000000 before any digit is written
     pytest.param("long.csv", _two_point_csv("1e10000000"), id="csv-exponent")],
)
def test_digit_cap_on_input_is_a_resource_limit(tmp_path, capsys, digit_cap, name, text):
    source = tmp_path / name
    source.write_text(text)
    assert main(["verify", "--metric", str(source), "--check", "metric"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("resource limit: rational too long to read")
    assert "Traceback" not in err


def test_digit_cap_on_a_distance_is_a_resource_limit(tmp_path, capsys, digit_cap):
    # each entry has 401 digits, their difference's denominator about 800
    paths = []
    for name, den in (("a", 10**400 + 1), ("b", 10**400 + 3)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_two_points(_entry(f"{den + 1}/{den}"))))
        paths.append(str(path))
    assert main(["dist", *paths]) == 5
    err = capsys.readouterr().err
    assert err.startswith("resource limit: rational too long to write")
