"""Run one motifscope pipeline in this process and write what it measured.

Usage: python3 bench/child.py JOB.json

JOB.json holds {"root", "config", "trace", "result", "spans"}. The result file
gets wall time of the `run_pipeline` call, the CPU time of this process and
of its featurize workers over that call, the RSS high-water mark, the stages
the manifest lists, the failing stage if one raised, and the warnings the run
emitted. With "trace" set, the layer boundaries are wrapped first (see
tracer.py) and the spans are written to the "spans" file when the run ends.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
import warnings


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    from motifscope import cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    cfg = cli.PipelineConfig(**job["config"])
    result = {"stages": [], "failed_stage": None, "error": None}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cpu0 = _cpu_s()
        start = time.perf_counter()
        try:
            if tracer is None:
                manifest = cli.run_pipeline(cfg)
            else:
                with tracer.span("cli.run_pipeline"):
                    manifest = cli.run_pipeline(cfg)
            result["stages"] = list(manifest["stages"])
        except Exception as exc:  # a failed run is reported, not fatal to the benchmark
            result["failed_stage"] = getattr(exc, "stage", "pipeline")
            result["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        result["pipeline_s"] = time.perf_counter() - start
        result["cpu_s"] = _cpu_s() - cpu0
    result["peak_rss_mb"] = _peak_rss_mb()
    result["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["trace_missing"] = tracer.missing
        result["trace_notes"] = tracer.notes
        with open(job["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
