"""Every workload at toy size, untraced and traced: it runs to its end,
passes its checks, and reports exactly the metrics BENCHMARK.json lists."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from multitag import estimators, inference
from workloads import TOY

ROOT = Path(run.__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads_and_this_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.NAMES)
def test_toy_run(name, trace):
    original = (estimators.cd_gradient, inference.lbp_marginals)
    result, lines = run.run_workload(TOY[name], seed=11, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert (estimators.cd_gradient, inference.lbp_marginals) == original
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    counts = ("estimators.gradient_calls", "inference.lbp_marginals_calls")
    runs = [run.run_workload(TOY["desk"], seed=s, seconds=0, trace=1)[0]
            for s in (4, 5)]
    assert [[r["metrics"][c]["value"] for c in counts] for r in runs] == \
        [[r["metrics"][c]["value"] for c in counts] for r in runs[:1]] * 2


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "desk", "--seed", "1", "--seconds", "1", "--trace",
                           "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
