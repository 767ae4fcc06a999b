"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import tracing
from workloads import WORKLOADS, Corpus, run_job

sys.path.insert(0, str(run.SRC))
import rigidmetrics.cli  # noqa: E402
import rigidmetrics.glue  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY_SHAPES = {
    "certify-spread": [3, 4],
    "certify-clustered": [(2, 2)],
    "oracle-coded": [(2, 2, 1)],
    "discrete-rational": [3, 4],
}


def _tiny(monkeypatch, name: str):
    workload = WORKLOADS[name]
    monkeypatch.setattr(workload, "shapes", TINY_SHAPES[name])
    monkeypatch.setattr(workload, "setup_cycles", 1)
    monkeypatch.setattr(workload, "min_cycles", 1)
    return workload


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(name, trace, monkeypatch, capsys):
    _tiny(monkeypatch, name)
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _bump_first_hub_value(job) -> None:
    cert_path = job.outputs[1]
    data = json.loads(cert_path.read_text())
    for record in data["independence"]:
        for comp in record.get("certificate", {}).get("left", []):
            if comp["kind"] == "hub":
                value = comp["value"]
                value["offset"] = str(Fraction(value["offset"]) + Fraction(1, 1000))
                cert_path.write_text(json.dumps(data))
                return
    raise AssertionError("certificate has no hub component to tamper with")


def test_tampered_hub_component_shows_in_failed_ratio(monkeypatch, tmp_path):
    workload = _tiny(monkeypatch, "certify-spread")
    jobs = Corpus(workload, 5, tmp_path).cycle(0)
    clean = [run_job(rigidmetrics.cli.main, job) for job in jobs]
    assert run._summary(clean, workload, 1)["failed_ratio"] == 0
    tampered = [
        run_job(rigidmetrics.cli.main, job, after_build=_bump_first_hub_value)
        for job in jobs
    ]
    summary = run._summary(tampered, workload, 1)
    assert summary["failed_ratio"] == 1
    assert all(" indep " in p and "exit 1" in p for p in summary["problems"])


def test_absent_trace_point_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(rigidmetrics.glue, "_hub_metric")
    monkeypatch.delattr(rigidmetrics.glue, "_trace_witness_for")
    original = rigidmetrics.glue.amalgamate
    tracer = tracing.Tracer()
    tracer.install()
    assert rigidmetrics.glue.amalgamate is not original
    tracer.uninstall()
    assert rigidmetrics.glue.amalgamate is original
    assert {"glue.hub_metric", "glue.witness_calls"} <= set(tracer.absent)


def test_tail_rank_keeps_ten_jobs_beyond():
    assert run.tail_rank(60, 80) == 80
    assert run.tail_rank(45, 80) == 75
    assert run.tail_rank(12, 80) == 50
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-coded",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
