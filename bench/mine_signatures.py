"""Mine the fixed signatures file that the score-200k workload matches against.

    python3 bench/mine_signatures.py

Generates a 50k-transaction table2 corpus (seed 90210, a seed no workload
uses), runs the default labelled pipeline (M+E, dt, unpruned) on it and
copies signatures.json to bench/data/score_signatures.json. The file is
committed so that scoring inputs stay fixed when the mining code changes;
rerun this only to regenerate it on purpose.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 90210


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from motifscope import synth
    from motifscope.cli import PipelineConfig, run_pipeline

    work = ROOT / ".bench_work" / "mine"
    shutil.rmtree(work, ignore_errors=True)
    synth.generate(synth.load_config(), 50_000, SEED, work / "corpus", skew="table2")
    corpus = work / "corpus"
    run_pipeline(PipelineConfig(
        transfers=str(corpus / "transfers.csv"), tokens=str(corpus / "tokens.json"),
        accounts=str(corpus / "accounts.json"), methods=str(corpus / "methods.csv"),
        out=str(work / "out"), mode="M+E", model="dt", seed=SEED,
    ))
    shutil.copyfile(work / "out" / "signatures.json",
                    Path(__file__).resolve().parent / "data" / "score_signatures.json")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
