"""Self-tests of the census benchmark, on small scenes.

    python3 -m pytest bench -q

Each workload's code path runs on a 256x256 scene. The tests check that
every metric named in BENCHMARK.json is printed with its unit, that a
traced operation's outputs equal the untraced one's, and that the blob
rejection counts add up to the labeled blobs.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL_RAFTS = {"ria_tile": 40, "mlp_water_tile": 10, "speckle": 5}


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def small_run(name: str, tmp_path: Path, trace: bool) -> run.Run:
    w = replace(workloads.WORKLOADS[name], size=256, rafts=SMALL_RAFTS[name])
    r = run.Run(w, seed=3, seconds=0, trace=trace, workdir=tmp_path)
    r.execute()
    return r


def result_line(r: run.Run, capsys) -> dict:
    assert run.report(r) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_names_match_benchmark_json():
    for item in SPEC["workloads"]:
        assert item == {"name": item["name"], "why": workloads.WORKLOADS[item["name"]].why}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(name, tmp_path, capsys):
    result = result_line(small_run(name, tmp_path, trace=False), capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_matches_untraced(name, tmp_path, capsys):
    r = small_run(name, tmp_path, trace=True)
    result = result_line(r, capsys)
    assert result["correct"] and result["failed"] == 0
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]

    tracer = workloads.Tracer()
    untraced = r.scene.outcome(r.scene.run())
    traced = r.scene.outcome(r.scene.run_traced(tracer))
    assert traced.outputs == untraced.outputs
    c = tracer.counts
    rejected = sum(c[f"blobs.rejected.{reason}"] for reason in workloads.REJECT_ORDER)
    assert c["blobs.labeled"] == c["blobs.accepted"] + rejected > 0
    if name == "speckle":
        assert rejected > 0


def test_output_mismatch_counts_as_failure(tmp_path):
    r = run.Run(workloads.WORKLOADS["speckle"], seed=0, seconds=0, trace=False, workdir=tmp_path)
    good = workloads.Outcome({"csv": b"id\n1\n"}, count=1, records=1, tfa_pct=0.0, tfr_pct=0.0)
    assert r.check(good, "first")
    assert not r.check(workloads.Outcome({"csv": b"id\n2\n"}, 1, 1, 0.0, 0.0), "differs")
    assert not r.check(workloads.Outcome({"csv": b"id\n1\n"}, 2, 1, 0.0, 0.0), "count")
    assert r.failed == 2


def test_quality_gate_applies_to_clean_workloads_only(tmp_path):
    poor = workloads.Outcome({"csv": b""}, 0, 0, tfa_pct=50.0, tfr_pct=50.0)
    gated = run.Run(workloads.WORKLOADS["ria_tile"], 0, 0, False, tmp_path)
    assert not gated.check(poor, "ria_tile")
    ungated = run.Run(workloads.WORKLOADS["speckle"], 0, 0, False, tmp_path)
    assert ungated.check(poor, "speckle")


def test_self_time_excludes_child_spans():
    tr = workloads.Tracer()
    tr.spans = [["outer", 0.0, 10.0, None], ["inner", 2.0, 5.0, 0], ["inner", 6.0, 7.0, 0]]
    assert tr.self_times() == {"outer": 6.0, "inner": 4.0}
    assert tr.covered() == 10.0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "speckle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
