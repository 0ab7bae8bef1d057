"""Committed artifact digests: every pipeline artifact keeps its bytes.

tests/data/golden_digests.json holds, per case, the sha256 of each artifact
that `run_pipeline` writes, as its manifest's `artifacts` map records them.
The cases run small seeded `synth` corpora and one hand-written corpus whose
groups interleave, with a spam-touched transaction and every reject reason,
through each feature mode, each model kind, one and two threads, a leaf
target, a catalog override, a `max_nodes` below the largest ego and
match-only runs on a committed signatures file.

Artifacts made by Python text code alone (the store, features.jsonl, and a
match-only run's matches.jsonl and profiles.csv) are compared everywhere.
The others pass through numpy and scipy arithmetic, which may differ in the
last bits between versions, so they are compared only where the numpy and
scipy versions recorded in the file are the ones installed.

To regenerate the file after a change that means to alter bytes, run

    MOTIFSCOPE_GOLDEN=write python -m pytest tests/test_golden.py

and name each changed artifact, and why it changed, in CHANGES.md.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest
import scipy

from motifscope import ingest, motif, synth
from motifscope.cli import PipelineConfig, run_pipeline

from oracles import catalog_json

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_digests.json"
WRITE = os.environ.get("MOTIFSCOPE_GOLDEN") == "write"

# the artifacts whose bytes come from Python text code alone
TEXT = ("store/transactions.jsonl", "store/labels.csv", "store/ingest_report.json",
        "features.jsonl")
MATCH_ONLY_TEXT = ("matches.jsonl", "profiles.csv")

# name -> (corpus, pipeline config beyond the corpus paths); a corpus without
# methods runs match-only on tests/data/golden_signatures_<signatures>.json,
# the signatures.json of the synth-me-dt-t1 or handwritten-dt-t1 run
CASES = {
    "synth-me-dt-t1": ("uniform", dict(mode="M+E", model="dt", folds=3)),
    "synth-me-dt-t2": ("uniform", dict(mode="M+E", model="dt", folds=3, threads=2)),
    "synth-m-lr-t2": ("uniform", dict(mode="M", model="lr", folds=3, threads=2)),
    "synth-e-rf-t1": ("uniform", dict(mode="E", model="rf", trees=3, folds=3, seed=4)),
    "synth-mxe-dt-leaves-maxnodes": ("uniform", dict(mode="MxE", model="dt", folds=3,
                                                     target_leaves=8, max_nodes=2)),
    "synth-catalog-dt-t2": ("uniform", dict(mode="M", model="dt", folds=3, threads=2,
                                            catalog="catalog")),
    "synth-match-t1": ("table2-unlabelled", dict(mode="M+E", signatures="synth")),
    "synth-match-t2": ("table2-unlabelled", dict(mode="M+E", signatures="synth", threads=2,
                                                 min_matches=1)),
    "handwritten-dt-t1": ("handwritten", dict(mode="M+E", model="dt", folds=2, min_leaf=1,
                                              min_matches=1)),
    "handwritten-rf-t2": ("handwritten", dict(mode="M+E", model="rf", trees=2, folds=2,
                                              min_leaf=1, threads=2, min_matches=1)),
    "handwritten-match-t2": ("handwritten-unlabelled", dict(mode="M+E", signatures="handwritten",
                                                            threads=2, min_matches=1)),
}

# (tx hash, ego, from, to, contract, symbol) templates; the corpus below
# interleaves them with reject rows and one spam-touched transaction
_HANDWRITTEN_SHAPES = {
    "Swap": [("E", "0xpool{n}", "0xt1", "USDC"), ("0xpool{n}", "E", "0xt2", "WETH")],
    "Transfer": [("E", "0xfriend{n}", "0xt2", "WETH")],
    "Deposit": [("E", "0xvault", "0xt1", "USDC"), ("0xvault", "E", "0xt3", "SYN"),
                ("E", "0x0000000000", "0xt1", "USDC")],
}
_REJECTS = [
    "h90,0xe1,0xa1,0xe1,0xt1,USDC,1.0",  # malformed_row
    ",0xe1,0xa1,0xe1,0xt1,USDC,1.0,10",  # missing_tx_hash
    "h91,,0xa1,0xe1,0xt1,USDC,1.0,10",  # missing_account
    "h92,0xe1,0xe1,0xe1,0xt1,USDC,1.0,10",  # self_transfer
    "h93,0xe1,0xa1,0xe1,0xt1,USDC,lots,10",  # bad_amount
    "h94,0xe1,0xa1,0xe1,0xt1,USDC,-1,10",  # negative_amount
    "h95,0xe1,0xa1,0xe1,0xt1,USDC,1.0,+7",  # bad_block
]


def write_handwritten(root: Path, methods: bool) -> None:
    """Eighteen transactions of three method groups on three egos, one hash
    under both egos, their rows interleaved round-robin with the reject rows,
    one spam transfer and a quoted field."""
    root.mkdir(parents=True)
    groups = list(_HANDWRITTEN_SHAPES)
    txs = []  # (hash, ego, group, rows)
    for n in range(18):
        group, ego = groups[n % 3], f"0xe{n * 7 // 4 % 3 + 1}"
        rows = [(ego if a == "E" else a.format(n=n % 4), ego if b == "E" else b.format(n=n % 4),
                 contract, symbol) for a, b, contract, symbol in _HANDWRITTEN_SHAPES[group]]
        txs.append((f"h{n:02d}", ego, group, rows))
    # h03 under its second ego, and a spam-touched transaction
    txs.append(("h03", "0xe1", "Transfer", [("0xe1", "0xfriend9", "0xt2", "WETH")]))
    txs.append(("h40", "0xe1", "Swap", [("0xe1", "0xpool1", "0xt1", "USDC"),
                                        ("0xpool1", "0xe1", "0xspam", "FREE")]))
    lines = []
    for i in range(max(len(rows) for *_, rows in txs)):
        for tx_hash, ego, _, rows in txs:
            if i < len(rows):
                src, dst, contract, symbol = rows[i]
                lines.append(f"{tx_hash},{ego},{src},{dst},{contract},{symbol},{i + 1}.5,{100 + i}")
        if i < len(_REJECTS):
            lines.append(_REJECTS[i])
    lines += _REJECTS[i + 1:] + ['"h5,0",0xe2,0xe2,"0xa""1",0xt2,WETH,2,7']
    (root / "transfers.csv").write_text(
        ",".join(ingest.TRANSFER_COLUMNS) + "\n" + "\n".join(lines) + "\n", encoding="utf-8")
    (root / "tokens.json").write_text(json.dumps([
        {"contract": "0xt1", "symbol": "USDC", "category": "Stablecoin"},
        {"contract": "0xt2", "symbol": "WETH", "category": "Cryptocurrency"},
        {"contract": "0xt3", "symbol": "SYN", "category": "Synthetic"},
        {"contract": "0xspam", "symbol": "FREE", "is_spam": True},
    ]), encoding="utf-8")
    (root / "accounts.json").write_text(json.dumps([
        *({"address": f"0xe{n}", "type": "ego"} for n in (1, 2, 3)),
        {"address": "0xvault", "type": "contract"},
        *({"address": f"0xpool{n}", "type": "contract"} for n in range(4)),
    ]), encoding="utf-8")
    if methods:
        raw = {"Swap": "swapExactTokensForTokens", "Transfer": "transfer", "Deposit": "deposit"}
        with open(root / "methods.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tx_hash", "raw_method"])
            writer.writerows((tx_hash, raw[group]) for tx_hash, _, group, _ in txs)


def write_corpus(root: Path, name: str) -> None:
    if name.startswith("handwritten"):
        write_handwritten(root, methods=not name.endswith("unlabelled"))
        return
    skew = name.split("-")[0]
    synth.generate(synth.load_config(), n_transactions=3000, seed=17, out_dir=root, skew=skew)
    if name.endswith("unlabelled"):
        (root / "methods.csv").unlink()


def run_case(tmp_path: Path, name: str) -> dict:
    """The case's run_pipeline manifest."""
    corpus, params = CASES[name]
    raw = tmp_path / corpus
    if not raw.exists():
        write_corpus(raw, corpus)
    config = dict(params, transfers=str(raw / "transfers.csv"), tokens=str(raw / "tokens.json"),
                  accounts=str(raw / "accounts.json"), out=str(tmp_path / name))
    if match_only(name):
        config["signatures"] = str(DATA / f"golden_signatures_{params['signatures']}.json")
    else:
        config["methods"] = str(raw / "methods.csv")
    if config.get("catalog") == "catalog":
        subset = [e for e in catalog_json(motif.enumerate_catalog())
                  if e["id"] in ("m1", "m2", "m4", "m5", "m8")]
        config["catalog"] = str(tmp_path / "catalog.json")
        (tmp_path / "catalog.json").write_text(json.dumps(subset), encoding="utf-8")
    return run_pipeline(PipelineConfig(**config))


def match_only(case: str) -> bool:
    return CASES[case][0].endswith("unlabelled")


@pytest.fixture(scope="module")
def manifests(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("golden")
    return {name: run_case(root, name) for name in CASES}


def test_artifact_digests_equal_the_committed_ones(manifests):
    digests = {case: manifest["artifacts"] for case, manifest in manifests.items()}
    if WRITE:
        GOLDEN.write_text(json.dumps({"numpy": np.__version__, "scipy": scipy.__version__,
                                      "cases": digests}, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    same_versions = (golden["numpy"], golden["scipy"]) == (np.__version__, scipy.__version__)
    assert sorted(golden["cases"]) == sorted(CASES)
    for case, got in digests.items():
        want = golden["cases"][case]
        assert sorted(got) == sorted(want), case
        text = TEXT + MATCH_ONLY_TEXT if match_only(case) else TEXT
        for artifact, digest in want.items():
            if same_versions or artifact in text:
                assert got[artifact] == digest, f"case {case}: {artifact} changed"


def test_cases_cover_what_they_claim(manifests):
    """A labelled case writes a model and a match-only case none; one and two
    threads write the same bytes; max_nodes cuts an ego in its case; the
    handwritten corpus rejects a row for every reason and drops a
    spam-touched transaction."""
    for case, manifest in manifests.items():
        assert ("model.json" in manifest["artifacts"]) is not match_only(case), case
        assert "matches.jsonl" in manifest["artifacts"], case
    assert manifests["synth-me-dt-t1"]["artifacts"] == manifests["synth-me-dt-t2"]["artifacts"]
    assert manifests["synth-mxe-dt-leaves-maxnodes"]["counters"]["featurize"]["oversize"] > 0
    ingested = manifests["handwritten-dt-t1"]["counters"]["ingest"]
    assert set(ingested["rejected"]) == {"malformed_row", "missing_tx_hash", "missing_account",
                                         "self_transfer", "bad_amount", "negative_amount",
                                         "bad_block"}
    assert ingested["spam_filtered"] == 1
