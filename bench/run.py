"""motifscope benchmark: the whole batch pipeline on three synthetic workloads.

    python3 bench/run.py --workload label-dt-50k --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 7 --trace 1
    python3 bench/run.py --workload score-200k --seed 3 --smoke

Set-up generates the workload's corpus from the seed with `motifscope.synth`,
several times before and after the runs; the median time is `setup_s`. The
program receives only the generated transfers, tokens and accounts, plus
methods.csv on the label workloads and a committed signatures file on
`score-200k`. Each pipeline run is a fresh child process (`child.py`) calling
`motifscope.cli.run_pipeline`, one at a time (a closed loop with one client),
so CPU time and peak RSS are per run. Runs repeat while another one fits in
`--seconds`; end-to-end metrics are medians over runs. At the sizes below one
run fills `--seconds 25`, so an untraced invocation makes one run per seed.

Correctness is checked against ground truth the program never sees on
`score-200k`: methods.csv mapped through the benchmark's own copy of the
method-group table gives `match_only_rate`, which must reach criterion 8's
0.95; label-dt-50k's `cv_macro_f1` must reach criterion 8's 0.90. Every run
of a workload and seed must reproduce the first run's artifact digests. The
first run's digests are kept in .bench_work/digests, so a later invocation of
the same workload, seed and program source in the same checkout is compared
with them; the first invocation has only its own runs to compare. A stage that
raises, a stage missing from the manifest, or a digest mismatch counts as a
failed operation; stage warnings are printed, not counted.

`--trace 1` makes one untraced and one traced run and reports the per-layer
metrics of the traced one (see tracer.py), its spans under .bench_work/traces,
the traced minus untraced `pipeline_s` as `trace.overhead_s` and the time of
the tracer's counter hooks as `trace.hooks_s`. The traced run must reproduce
the untraced run's digests, and a wrap target that no longer exists or a
counter hook that raised makes the result incorrect, so that lost coverage
does not read as a gain.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
DATA = BENCH_DIR / "data"
DEADLINE_S = 170.0  # per workload and seed: a run still going then is killed and failed
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)

# Raw method group names the packaged table uses for retained groups.
GROUP_ALIASES = {"Exchange": "Swap", "Redeem": "Withdraw", "Claim Reward": "ClaimReward"}

# Criterion 9's three account activity mixes.
MIXES = [
    ("mover", {"Transfer": 0.6, "Swap": 0.4}),
    ("farmer", {"Deposit": 0.5, "Withdraw": 0.3, "ClaimReward": 0.2}),
    ("leverager", {"Borrow": 0.4, "Repay": 0.4, "Mint": 0.2}),
]

MIN_MATCH_ONLY = 0.95  # floor on match_only_rate (criterion 8)

LABEL_STAGES = ("ingest", "featurize", "train", "eval", "prune", "signatures",
                "match", "profile", "cluster")


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict             # keyword arguments of synth.generate
    pipeline: dict          # PipelineConfig fields
    stages: tuple
    labelled: bool          # methods.csv is handed to the program
    min_f1: float = 0.0     # floor on cv_macro_f1
    smoke: dict = field(default_factory=dict)  # synth/pipeline overrides for --smoke


WORKLOADS = {
    # The paper's default labelled flow; criterion 8's corpus and F1 floor.
    # Eval and prune-CV fit the same fold trees, and features.jsonl is parsed
    # five times: ROADMAP items 2 and 4 (DT) move this one.
    "label-dt-50k": Workload(
        name="label-dt-50k",
        synth=dict(n_transactions=50_000, skew="table2"),
        pipeline=dict(mode="M+E", model="dt", folds=10, threads=1),
        stages=LABEL_STAGES, labelled=True, min_f1=0.90,
        smoke=dict(n_transactions=15_000, folds=3),
    ),
    # Uniform classes and the wide MxE vocabulary; nearly all time is forest
    # fits over a dense n x |vocab| X (ROADMAP item 4). No criterion fixes a
    # forest F1 floor, so cv_macro_f1 is reported here but not gated.
    "label-rf-mxe": Workload(
        name="label-rf-mxe",
        synth=dict(n_transactions=10_000, skew="uniform"),
        pipeline=dict(mode="MxE", model="rf", trees=5, folds=10, threads=1),
        stages=("ingest", "featurize", "train", "eval", "train_dt", "prune",
                "signatures", "match", "profile", "cluster"),
        labelled=True,
        smoke=dict(n_transactions=1_500, trees=2, folds=3),
    ),
    # Match-only scoring of 4000 accounts with fixed signatures: ingest,
    # match, silhouette and parallel featurize; no model is fitted (ROADMAP
    # item 5). methods.csv is held back and used only as ground truth.
    "score-200k": Workload(
        name="score-200k",
        synth=dict(n_transactions=200_000, n_egos=4_000, mixes=True),
        pipeline=dict(mode="M+E", threads=min(2, NPROC),
                      signatures=str(DATA / "score_signatures.json")),
        stages=("ingest", "featurize", "match", "profile", "cluster"),
        labelled=False,
        smoke=dict(n_transactions=8_000, n_egos=160),
    ),
}

# Printed beside the end-to-end metrics but not gated: failed_op_share reads 0
# (the result line's failed/attempted carry it) and cv_macro_f1 has no value
# on score-200k.
REPORTED_ONLY = {"failed_op_share": "ratio", "cv_macro_f1": "ratio"}


# ---------------------------------------------------------------------------
# set-up and ground truth
# ---------------------------------------------------------------------------

def _synth_args(workload: Workload, smoke: bool) -> dict:
    kwargs = dict(workload.synth)
    if smoke:
        kwargs.update({k: v for k, v in workload.smoke.items() if k in ("n_transactions", "n_egos")})
    return kwargs


def setup_corpus(workload: Workload, seed: int, corpus: Path, smoke: bool) -> list[float]:
    """Generate the corpus at least twice and for at least 2 s; return the times.

    `measure` calls this before and after its runs, so that the reported median
    samples the machine at two moments rather than one.
    """
    from motifscope import synth

    kwargs = _synth_args(workload, smoke)
    if kwargs.pop("mixes", False):
        kwargs["mixes"] = [synth.Mix(name=n, weight=1.0, methods=m) for n, m in MIXES]
    config = synth.load_config()
    times: list[float] = []
    while len(times) < 2 or (sum(times) < 2.0 and len(times) < 25):
        shutil.rmtree(corpus, ignore_errors=True)
        start = time.perf_counter()
        synth.generate(config, seed=seed, out_dir=corpus, **kwargs)
        times.append(time.perf_counter() - start)
    return times


def true_groups(methods_csv: Path) -> dict[str, str]:
    """tx_hash -> generating method group, from methods.csv and the held-back table."""
    with open(DATA / "method_groups.json", encoding="utf-8") as fh:
        table = {k.strip().lower(): GROUP_ALIASES.get(v, v) for k, v in json.load(fh).items()}
    with open(methods_csv, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {row[0]: table[row[1].strip().lower()] for row in reader if row}


def match_only_rate(matches: Path, truth: dict[str, str]) -> float:
    total = hits = 0
    with open(matches, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                total += 1
                hits += obj["groups"] == [truth.get(obj["tx_hash"])]
    return hits / total if total else 0.0


def _tree_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


# ---------------------------------------------------------------------------
# one pipeline run in a child process
# ---------------------------------------------------------------------------

@dataclass
class Run:
    traced: bool
    result: dict
    digests: Optional[dict] = None
    artifacts_mb: Optional[float] = None
    match_only_rate: Optional[float] = None
    cv_macro_f1: Optional[float] = None
    log_tail: str = ""


def run_child(job: dict, run_dir: Path, deadline: float) -> tuple[dict, str]:
    job_path = run_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    log_path = run_dir / "child.log"
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(job_path)],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    result_path = Path(job["result"])
    if proc.returncode == 0 and result_path.exists():
        return json.loads(result_path.read_text(encoding="utf-8")), tail
    reason = "timed out" if proc.returncode == -signal.SIGKILL else f"exit code {proc.returncode}"
    return {"stages": [], "failed_stage": "pipeline", "error": f"child {reason}",
            "warnings": []}, tail


def pipeline_run(workload: Workload, seed: int, corpus: Path, run_dir: Path, truth: dict,
                 traced: bool, smoke: bool, deadline: float, spans_path: Path) -> Run:
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out = run_dir / "out"
    config = dict(workload.pipeline)
    if smoke:
        config.update({k: v for k, v in workload.smoke.items() if k not in ("n_transactions", "n_egos")})
    config.update(transfers=str(corpus / "transfers.csv"), tokens=str(corpus / "tokens.json"),
                  accounts=str(corpus / "accounts.json"), out=str(out), seed=seed)
    if workload.labelled:
        config["methods"] = str(corpus / "methods.csv")
    job = {"root": str(ROOT), "config": config, "trace": traced,
           "result": str(run_dir / "result.json"), "spans": str(spans_path)}
    result, tail = run_child(job, run_dir, deadline)
    run = Run(traced=traced, result=result, log_tail=tail)
    if result["failed_stage"] is None:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        run.digests = manifest["artifacts"]
        run.artifacts_mb = _tree_mb(out)
        if (out / "matches.jsonl").exists():
            run.match_only_rate = match_only_rate(out / "matches.jsonl", truth)
        if workload.labelled and (out / "eval_report.json").exists():
            report = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))
            run.cv_macro_f1 = float(report["averages"]["f1"])
    shutil.rmtree(run_dir, ignore_errors=True)
    return run


# ---------------------------------------------------------------------------
# one workload and seed
# ---------------------------------------------------------------------------

@dataclass
class SeedResult:
    seed: int
    setup_times: list
    runs: list
    attempted: int = 0
    failed: int = 0
    digest_checks: int = 0
    problems: list = field(default_factory=list)


def _account(workload: Workload, run: Run, res: SeedResult) -> None:
    r = run.result
    label = "traced run" if run.traced else "run"
    for target in r.get("trace_missing", []):
        res.problems.append(f"{label}: wrap target missing: {target}")
    for note in r.get("trace_notes", []):
        res.problems.append(f"{label}: counter hook failed: {note}")
    if r["failed_stage"] is not None:
        stage = r["failed_stage"]
        done = workload.stages.index(stage) if stage in workload.stages else len(r["stages"])
        res.attempted += done + 1
        res.failed += 1
        res.problems.append(f"{label} failed at stage {stage}: {r['error']}\n{run.log_tail}")
        return
    res.attempted += len(workload.stages)
    missing = [s for s in workload.stages if s not in r["stages"]]
    res.failed += len(missing)
    if missing:
        res.problems.append(f"{label} skipped stages {missing}")
    if run.match_only_rate is None or run.match_only_rate < MIN_MATCH_ONLY:
        res.problems.append(f"{label}: match_only_rate {run.match_only_rate} below "
                            f"{MIN_MATCH_ONLY}")
    if workload.labelled and (run.cv_macro_f1 is None or run.cv_macro_f1 < workload.min_f1):
        res.problems.append(f"{label}: cv_macro_f1 {run.cv_macro_f1} below {workload.min_f1}")


def _check_digests(run: Run, reference: dict, res: SeedResult, what: str) -> None:
    res.attempted += 1
    res.digest_checks += 1
    if run.digests != reference:
        res.failed += 1
        changed = sorted(k for k in set(run.digests) | set(reference)
                         if run.digests.get(k) != reference.get(k))
        res.problems.append(f"artifact digests differ from {what}: {changed}")


def measure(workload: Workload, seed: int, args: argparse.Namespace, deadline: float) -> SeedResult:
    smoke = args.smoke
    tag = f"{workload.name}{'-smoke' if smoke else ''}-s{seed}"
    corpus = WORK / "corpus" / tag
    setup_times = setup_corpus(workload, seed, corpus, smoke)
    truth = true_groups(corpus / "methods.csv")
    res = SeedResult(seed=seed, setup_times=setup_times, runs=[])
    spans_path = WORK / "traces" / f"{tag}.spans.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)

    def one(traced: bool) -> Run:
        run = pipeline_run(workload, seed, corpus, WORK / "run" / tag, truth, traced, smoke,
                           deadline, spans_path)
        res.runs.append(run)
        _account(workload, run, res)
        return run

    if args.trace:
        plain, traced = one(False), one(True)
        if plain.digests is not None and traced.digests is not None:
            _check_digests(traced, plain.digests, res, "the untraced run")
    else:
        start = time.monotonic()
        while True:
            run = one(False)
            elapsed = time.monotonic() - start
            if (run.digests is None or elapsed + run.result["pipeline_s"] > args.seconds
                    or time.monotonic() + 2 * run.result["pipeline_s"] > deadline):
                break
    res.setup_times += setup_corpus(workload, seed, corpus, smoke)
    shutil.rmtree(corpus, ignore_errors=True)

    good = [r for r in res.runs if r.digests is not None]
    if good:
        # keyed by program source and inputs, so a changed program starts a new record
        inputs = json.dumps([args.source, _synth_args(workload, smoke), workload.pipeline, smoke,
                             seed], sort_keys=True, default=str)
        record = WORK / "digests" / f"{tag}-{hashlib.sha256(inputs.encode()).hexdigest()[:12]}.json"
        if record.exists():
            reference, what = json.loads(record.read_text(encoding="utf-8")), "an earlier invocation"
        else:
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(json.dumps(good[0].digests, sort_keys=True), encoding="utf-8")
            reference, what = good[0].digests, "the first run"
            good = good[1:]
        for run in good:
            if not run.traced:
                _check_digests(run, reference, res, what)
    return res


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(results: list[SeedResult]) -> dict:
    runs = [r for res in results for r in res.runs if not r.traced and r.digests is not None]
    attempted = sum(res.attempted for res in results)
    return {
        "pipeline_s": _median([r.result["pipeline_s"] for r in runs]),
        "cpu_s": _median([r.result["cpu_s"] for r in runs]),
        "peak_rss_mb": _median([r.result["peak_rss_mb"] for r in runs]),
        "artifacts_mb": _median([r.artifacts_mb for r in runs]),
        "setup_s": _median([t for res in results for t in res.setup_times]),
        "match_only_rate": _median([r.match_only_rate for r in runs]),
        "failed_op_share": sum(res.failed for res in results) / attempted if attempted else None,
        "cv_macro_f1": _median([r.cv_macro_f1 for r in runs]),
    }


def per_layer(results: list[SeedResult]) -> dict:
    per_seed = []
    for res in results:
        plain = [r for r in res.runs if not r.traced]
        traced = [r for r in res.runs if r.traced and "layers" in r.result]
        if plain and traced:
            layers = dict(traced[0].result["layers"])
            layers["trace.overhead_s"] = traced[0].result["pipeline_s"] - plain[0].result["pipeline_s"]
            per_seed.append(layers)
    if not per_seed:
        return {}
    return {name: statistics.median(s[name] for s in per_seed) for name in per_seed[0]}


def load_units() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "nproc": NPROC, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit, "source_sha256": source_digest(),
        "loadavg_1m": os.getloadavg()[0],
    }


def report(name: str, results: list[SeedResult], trace: bool, units: dict) -> None:
    e2e = end_to_end(results)
    for res in results:
        runs = ", ".join(f"{r.result['pipeline_s']:.3f}" for r in res.runs)
        print(f"# {name} seed {res.seed}: setup x{len(res.setup_times)}, pipeline_s [{runs}], "
              f"digest checks {res.digest_checks}")
        for problem in res.problems:
            print(f"# {name} seed {res.seed} PROBLEM: {problem}")
        warned = sorted({w for r in res.runs for w in r.result.get("warnings", [])})
        for warning in warned:
            print(f"# {name} seed {res.seed} warning: {warning}")
    for metric, value in e2e.items():
        if value is not None:
            unit = units["end_to_end"].get(metric) or REPORTED_ONLY[metric]
            print(f"{name:14s} {metric:18s} {value:14.6f} {unit}")
    if trace:
        for metric, value in per_layer(results).items():
            print(f"{name:14s} {metric:34s} {value:16.6f} {units['per_layer'][metric]}")


def summary(results: list[SeedResult], trace: bool, units: dict) -> tuple[bool, int, int, dict]:
    """The result line's fields; `units` names the gated metrics (end-to-end or per-layer)."""
    attempted = sum(res.attempted for res in results)
    failed = sum(res.failed for res in results)
    metrics = per_layer(results) if trace else end_to_end(results)
    values = {k: {"value": metrics[k], "unit": u} for k, u in units.items()
              if metrics.get(k) is not None}
    correct = (failed == 0 and not any(res.problems for res in results)
               and len(values) == len(units))
    return correct, max(attempted, 1), failed, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, nargs="+", required=True,
                        help="workload seed(s); a second seed checks a claim on unseen inputs")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure for about this long (at least one run per seed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small corpora, for self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "motifscope" / "cli.py").is_file():
        sys.stderr.write(f"benchmark cannot run: no motifscope source under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = environment()
    args.source = env["source_sha256"]
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    units = load_units()
    gated = units["per_layer"] if args.trace else units["end_to_end"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        workload = WORKLOADS[name]
        results = [measure(workload, seed, args, time.monotonic() + DEADLINE_S)
                   for seed in args.seed]
        report(name, results, bool(args.trace), units)
        ok, n, f, values = summary(results, bool(args.trace), gated)
        correct, attempted, failed = correct and ok, attempted + n, failed + f
        if len(names) == 1:
            metrics = values
        else:
            metrics.update({f"{name}/{k}": v for k, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
