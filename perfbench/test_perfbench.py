"""Tests of the benchmark itself. Run: python3 -m pytest perfbench"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from clipgen import BENCH_CLIP_SHA256, clip_digest, moving_clip  # noqa: E402
from run import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_seed_11_reproduces_the_bench_clip():
    assert clip_digest(moving_clip(8, 205, 480, 11)) == BENCH_CLIP_SHA256


def test_generator_matches_the_test_suite_pan():
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    for args in ((8, 205, 480, 11), (3, 33, 47, 5)):
        assert moving_clip(*args) == suite.moving_clip(*args[:3], seed=args[3], step=2)


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_every_declared_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace and workload == "lossless":
        # a full mask skips the CG solve entirely
        assert result["metrics"]["homogeneous.cg_iterations"]["value"] == 0


def test_fails_without_hivc_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "lossless", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
