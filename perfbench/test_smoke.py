"""Smoke test of the benchmark harness on a tiny shape of every workload.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


def test_same_seed_same_inputs(tmp_path):
    workload = workloads.WORKLOADS["ssl-train"]
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        workloads.write_inputs(workload, 5, tmp_path / sub, tiny=True)
    for name in ("pool.csv", "test.csv", "config0.cfg"):
        a, b = ((tmp_path / sub / name).read_text().replace(str(tmp_path / sub), "")
                for sub in ("a", "b"))
        assert a == b


def test_output_checks_catch_a_bad_round(tmp_path):
    al = run.import_program()
    workload = workloads.WORKLOADS["ssl-train"]
    cfg_path = workloads.write_inputs(workload, 5, tmp_path, tiny=True)[0]
    cfg, pool, lp, _ = run.set_up(al, cfg_path)
    reports = lp.run()
    al.data.write_reports(reports, tmp_path / "out", config=cfg)
    assert run.check_outputs(al, cfg, pool, lp, reports, tmp_path / "out") == []

    repeated = reports[0].selected_ids[:1] * cfg.budget
    bad = [dataclasses.replace(reports[0], selected_ids=repeated), *reports[1:]]
    problems = run.check_outputs(al, cfg, pool, lp, bad, tmp_path / "out")
    assert any("unique" in p for p in problems)

    lp.oracle.audit.append(reports[0].selected_ids[0])
    problems = run.check_outputs(al, cfg, pool, lp, reports, tmp_path / "out")
    assert any("oracle audit" in p for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ssl-train", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
