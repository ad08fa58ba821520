"""Smoke runs of every benchmark workload at seconds-long sizes with every
check on, so that the test suite catches a broken benchmark harness."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
_spec = importlib.util.spec_from_file_location("ambidoa_bench_run", HERE / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace, tmp_path, capsys):
    code = bench_run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                           "--trace", str(trace), "--scale", "smoke",
                           "--results-dir", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())

    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert {"python", "numpy", "scipy", "blas", "blas_threads", "nproc",
            "render_workers", "git_sha"} <= set(record["environment"])
    assert abs(record["unaccounted_s"]) < 0.05 * record["wall_s"]
    if trace:
        # the self times of the traced rounds' spans add up to those rounds
        assert sum(record["self_ms_by_span"].values()) == pytest.approx(
            1e3 * record["stages_s"]["bench.round.traced"], rel=1e-9)
        spans = (tmp_path / f"{workload}-seed3-trace1.spans.jsonl").read_text().splitlines()
        assert {"id", "parent", "name", "start", "end"} <= set(json.loads(spans[0]))
    assert not list(tmp_path.glob("work-*"))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "infer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
