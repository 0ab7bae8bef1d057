"""Self-test of the benchmark on small corpora.

    python3 -m pytest -q bench/test_bench.py

Runs every workload in --smoke mode, untraced and traced, and checks that
each metric BENCHMARK.json names is emitted with its unit and that the
correctness checks pass on the current code. Not part of the tier-1 suite
(pytest's testpaths is tests/).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric(workload, trace, kind):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[1] for line in lines[:-1] if not line.startswith("#")}
    assert "failed_op_share" in printed
    assert ("cv_macro_f1" in printed) == workload.startswith("label-")


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 9.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("cli.stage.eval"):               # 0 .. 9
        with tracer.span("models.RandomForest.fit"):  # 1 .. 6
            with tracer.span("models.DecisionTree.fit"):  # 2 .. 5
                pass
    assert tracer.self_times() == [9.0 - 5.0, 5.0 - 3.0, 3.0]
    metrics = tracer.layer_metrics()
    assert metrics["cli.stage.eval.s"] == 9.0
    assert metrics["models.forest_fit.s"] == 2.0
    assert metrics["models.tree_fit.s"] == 3.0


def test_hook_time_is_kept_out_of_stage_time():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 7.0])
    tracer = Tracer(clock=lambda: next(ticks))
    fit = tracer.wrap(lambda X: None, "models.DecisionTree.fit",
                      before=lambda tracer, fn, args, kwargs: None)
    with tracer.span("cli.stage.eval"):  # 0 .. 7
        fit(None)                        # hook 1 .. 3, fit 4 .. 6
    metrics = tracer.layer_metrics()
    assert metrics["trace.hooks_s"] == 2.0
    assert metrics["cli.stage.eval.s"] == 7.0 - 2.0
    assert metrics["models.tree_fit.s"] == 2.0
    assert tracer.self_times()[0] == 7.0 - 2.0 - 2.0


def test_lost_trace_coverage_is_a_problem():
    import run

    workload = run.WORKLOADS["score-200k"]
    result = {"failed_stage": None, "stages": list(workload.stages), "warnings": [],
              "trace_missing": ["profile.pdist"], "trace_notes": ["_after_match: KeyError: 0"]}
    traced = run.Run(traced=True, result=result, match_only_rate=1.0)
    res = run.SeedResult(seed=1, setup_times=[], runs=[traced])
    run._account(workload, traced, res)
    assert len(res.problems) == 2
    correct, _, _, _ = run.summary([res], True, {})
    assert correct is False
