"""Command-line interface: exit codes, artifact formats, pipeline manifest."""

import argparse
import csv
import dataclasses
import functools
import gc
import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import motifscope
from motifscope import cli, etn as etn_mod, ingest, models, motif, profile, storage, synth
from motifscope.cli import PipelineConfig, build_parser, main, run_pipeline
from motifscope.signatures import LeafSignature

from oracles import (batch_of, brute_force_match, catalog_json, reference_etn, reference_stats,
                     stored_transactions, transactions_of)

GROUPS8 = sorted(ingest.METHOD_GROUPS)
MODEL_FILES = Path(__file__).parent / "data" / "model_format"


def run(capsys, argv, code=0):
    """Invoke main(), return (stdout JSON, stderr JSON or None)."""
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == code, f"{argv} -> rc {rc}, stderr: {captured.err}"
    out = json.loads(captured.out.strip().splitlines()[-1]) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return out, err


def write_mini_corpus(root):
    """Two transactions: tx1 (2 transfers, ego 0xe1 and ego 0xe2 views) and
    tx2 (1 transfer). Gives stats/etn something hand-checkable."""
    root.mkdir(parents=True, exist_ok=True)
    rows = [
        ("tx1", "0xe1", "0xe1", "0xc1", "0xt1", "USDC", "5.0", "100"),
        ("tx1", "0xe1", "0xc1", "0xe1", "0xt2", "WETH", "1.0", "100"),
        ("tx1", "0xe2", "0xe2", "0xc1", "0xt1", "USDC", "2.0", "100"),
        ("tx2", "0xe1", "0xe1", "0xa1", "0xt1", "USDC", "3.0", "101"),
    ]
    with open(root / "transfers.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ingest.TRANSFER_COLUMNS)
        writer.writerows(rows)
    (root / "tokens.json").write_text(json.dumps([
        {"contract": "0xt1", "symbol": "USDC", "category": "Stablecoin"},
        {"contract": "0xt2", "symbol": "WETH", "category": "Cryptocurrency"},
    ]), encoding="utf-8")
    (root / "accounts.json").write_text(json.dumps([
        {"address": "0xe1", "type": "ego"},
        {"address": "0xe2", "type": "ego"},
        {"address": "0xc1", "type": "contract"},
        {"address": "0xa1", "type": "address"},
    ]), encoding="utf-8")
    with open(root / "methods.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tx_hash", "raw_method"])
        writer.writerows([("tx1", "Simple Swap"), ("tx2", "transfer")])
    return root


@pytest.fixture(scope="module")
def mini_store(tmp_path_factory):
    root = write_mini_corpus(tmp_path_factory.mktemp("mini") / "raw")
    store = root.parent / "store"
    rc = main([
        "ingest", "--transfers", str(root / "transfers.csv"),
        "--tokens", str(root / "tokens.json"), "--accounts", str(root / "accounts.json"),
        "--methods", str(root / "methods.csv"), "--out", str(store),
    ])
    assert rc == 0
    return store


@pytest.fixture(scope="module")
def trained(tmp_path_factory, small_corpus):
    """dt model -> pruned model -> signatures -> matches, chained once."""
    out = tmp_path_factory.mktemp("clichain")
    paths = {
        "model": out / "model.json",
        "pruned": out / "pruned.json",
        "signatures": out / "signatures.json",
        "matches": out / "matches.jsonl",
        "profiles": out / "profiles.csv",
    }
    feats, labels = str(small_corpus["features"]), str(small_corpus["labels"])
    assert main(["train", "--features", feats, "--labels", labels,
                 "--model", "dt", "--out", str(paths["model"])]) == 0
    with pytest.warns(UserWarning, match="no pruning level with exactly 20 leaves"):
        assert main(["prune", "--model", str(paths["model"]), "--target-leaves", "20",
                     "--out", str(paths["pruned"])]) == 0
    assert main(["signatures", "--model", str(paths["pruned"]), "--features", feats,
                 "--labels", labels, "--out", str(paths["signatures"])]) == 0
    assert main(["match", "--signatures", str(paths["signatures"]), "--features", feats,
                 "--out", str(paths["matches"])]) == 0
    assert main(["profile", "--matches", str(paths["matches"]),
                 "--out", str(paths["profiles"])]) == 0
    return paths


# ---------------------------------------------------------------------------
# error envelope
# ---------------------------------------------------------------------------

def test_input_error_exit_2_with_json(tmp_path, capsys):
    _, err = run(capsys, [
        "ingest", "--transfers", str(tmp_path / "nope.csv"),
        "--tokens", str(tmp_path / "nope.json"), "--accounts", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "store"),
    ], code=2)
    assert set(err["error"]) == {"stage", "type", "message"}
    assert err["error"]["stage"] == "ingest"
    assert err["error"]["type"] == "InputError"


# a value that each PARAMS rule refuses, as a flag would pass it
REFUSED = {"seed": "-1", "threads": "0", "folds": "1", "min_leaf": "0", "l2": "-1", "trees": "0",
           "threshold": "1", "target_leaves": "0", "alpha": "-1", "min_matches": "-1",
           "max_nodes": "0"}


def _walked_range_cases():
    """(argv, message prefix) refusing each subcommand flag with a PARAMS rule
    once, found by walking the parser; a flag with choices is argparse's."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        for action in parser._actions:
            param = cli.PARAMS.get(action.dest)
            if action.option_strings and param and param.ok and not action.choices:
                value = REFUSED[action.dest]
                where = (f"pipeline config {action.dest!r}" if command == "pipeline"
                         else action.option_strings[0])
                yield pytest.param(
                    [command, action.option_strings[0], value],
                    f"{where} must be {param.what}, got {param.type(value)!r}",
                    id=f"{command}-{action.option_strings[0][2:]}-{value}")


OUT_OF_RANGE = [
    (["eval", "--folds", "1"], "--folds must be an integer >= 2, got 1"),
    (["eval", "--folds", "0"], "--folds must be an integer >= 2, got 0"),
    (["prune", "--folds", "1"], "--folds must be an integer >= 2, got 1"),
    (["train", "--model", "rf", "--trees", "0"], "--trees must be an integer >= 1, got 0"),
    (["pipeline", "--folds", "1"], "pipeline config 'folds' must be an integer >= 2, got 1"),
    (["pipeline", "--model", "rf", "--trees", "0"],
     "pipeline config 'trees' must be an integer >= 1, got 0"),
    (["featurize", "--threads", "0"], "--threads must be an integer >= 1, got 0"),
    (["featurize", "--threads", "-2"], "--threads must be an integer >= 1, got -2"),
    (["featurize", "--max-nodes", "0"], "--max-nodes must be an integer >= 1, got 0"),
    (["featurize", "--max-nodes", "-1"], "--max-nodes must be an integer >= 1, got -1"),
    (["cluster", "--min-matches", "-1"], "--min-matches must be an integer >= 0, got -1"),
    (["pipeline", "--threads", "0"], "pipeline config 'threads' must be an integer >= 1, got 0"),
    (["pipeline", "--min-matches", "-5"],
     "pipeline config 'min_matches' must be an integer >= 0, got -5"),
    (["pipeline", "--max-nodes", "-1", "--mode", "MxE"],
     "pipeline config 'max_nodes' must be an integer >= 1, got -1"),
    (["pipeline", "--max-nodes", "0"], "pipeline config 'max_nodes' must be an integer >= 1, got 0"),
    (["pipeline", "--seed", "-1", "--folds", "3"],
     "pipeline config 'seed' must be an integer >= 0, got -1"),
    (["train", "--model", "dt", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
    (["eval", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
    (["prune", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
    (["synth", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
]
OUT_OF_RANGE_IDS = ["eval-folds-1", "eval-folds-0", "prune-folds-1", "train-trees-0",
                    "pipeline-folds-1", "pipeline-trees-0", "featurize-threads-0",
                    "featurize-threads--2", "featurize-max-nodes-0", "featurize-max-nodes--1",
                    "cluster-min-matches--1", "pipeline-threads-0", "pipeline-min-matches--5",
                    "pipeline-max-nodes--1", "pipeline-max-nodes-0", "pipeline-seed--1",
                    "train-seed--1", "eval-seed--1", "prune-seed--1", "synth-seed--1"]


@pytest.mark.parametrize("argv, prefix", [
    *(pytest.param(*case, id=id_) for case, id_ in zip(OUT_OF_RANGE, OUT_OF_RANGE_IDS)),
    *(case for case in _walked_range_cases() if case.id not in OUT_OF_RANGE_IDS)])
def test_out_of_range_parameter_exit_2(small_corpus, trained, tmp_path, capsys, argv, prefix):
    data = ["--features", str(small_corpus["features"]), "--labels", str(small_corpus["labels"])]
    extra = {
        "eval": ["--model", str(trained["model"]), *data, "--report", str(tmp_path / "r.json")],
        "prune": ["--model", str(trained["model"]), *data, "--alpha", "0",
                  "--path", str(tmp_path / "path.csv"), "--out", str(tmp_path / "p.json")],
        "train": [*data, "--model", "rf", "--out", str(tmp_path / "m.json")],
        "signatures": ["--model", str(trained["pruned"]), *data, "--out", str(tmp_path / "m.json")],
        "featurize": ["--store", str(small_corpus["store"]), "--out", str(tmp_path / "m.json")],
        "cluster": ["--profiles", str(trained["profiles"]), "--out", str(tmp_path / "m.json")],
        "synth": ["--n", "100", "--out", str(tmp_path / "m.json")],
        "pipeline": ["--transfers", str(small_corpus["transfers"]),
                     "--tokens", str(small_corpus["tokens"]),
                     "--accounts", str(small_corpus["accounts"]),
                     "--methods", str(small_corpus["methods"]), "--out", str(tmp_path / "run")],
    }[argv[0]]
    _, err = run(capsys, [argv[0], *extra, *argv[1:]], code=2)  # the case's flags win
    assert err["error"]["type"] == "InputError"
    assert err["error"]["message"].startswith(prefix), err["error"]["message"]
    assert not (tmp_path / "m.json").exists()
    assert not (tmp_path / "run").exists()  # the pipeline refuses before ingest


def test_prune_checks_folds_without_a_cv_path(trained, tmp_path, capsys):
    """prune refuses --folds 1 before any work, though only --path would use it."""
    _, err = run(capsys, ["prune", "--model", str(trained["model"]), "--alpha", "0",
                          "--folds", "1", "--out", str(tmp_path / "p.json")], code=2)
    assert err["error"]["message"] == "--folds must be an integer >= 2, got 1"
    assert not (tmp_path / "p.json").exists()


# (key, value, what the value must be) of fit parameters out of their range
BAD_MODEL_PARAMS = [("min_leaf", 0, "an integer >= 1"), ("min_leaf", -1, "an integer >= 1"),
                    ("trees", 0, "an integer >= 1"), ("l2", -1.0, "a finite number >= 0"),
                    ("l2", float("nan"), "a finite number >= 0"),
                    ("l2", float("inf"), "a finite number >= 0")]


# the --max-features flag takes only its choices and the pipeline has no such key
@pytest.mark.parametrize("command, key, value, what", [
    pytest.param(command, *case, id=f"{command}-{case[0]}-{case[1]}")
    for command in ("train", "pipeline", "eval")
    for case in BAD_MODEL_PARAMS + [("max_features", 0, '"sqrt", null or an integer >= 1'),
                                    ("max_features", "all", '"sqrt", null or an integer >= 1')]
    if command == "eval" or case[0] != "max_features"])
def test_model_parameter_out_of_range_exit_2(small_corpus, trained, tmp_path, capsys, command,
                                             key, value, what):
    """A fit parameter out of its range exits 2 before any work, naming the
    train flag, the pipeline config key or the model file."""
    flag = ["--" + key.replace("_", "-"), str(value)]
    if command == "train":  # features that do not exist: the check comes first
        argv = ["train", "--features", str(tmp_path / "none.jsonl"), "--labels",
                str(tmp_path / "none.csv"), "--model", "rf", *flag, "--out", str(tmp_path / "m")]
        where = flag[0]
    elif command == "pipeline":
        argv = ["pipeline", "--transfers", str(small_corpus["transfers"]),
                "--tokens", str(small_corpus["tokens"]), "--accounts", str(small_corpus["accounts"]),
                "--methods", str(small_corpus["methods"]), *flag, "--out", str(tmp_path / "m")]
        where = f"pipeline config {key!r}"
    else:
        model = storage.read_json(trained["model"])
        model["params"][key] = value
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(model), encoding="utf-8")
        argv = ["eval", "--model", str(bad), "--features", str(small_corpus["features"]),
                "--labels", str(small_corpus["labels"]), "--report", str(tmp_path / "m")]
        where = f"bad model file {bad}: params {key!r}"
    _, err = run(capsys, argv, code=2)
    assert err["error"]["type"] == "InputError"
    assert err["error"]["message"] == f"{where} must be {what}, got {value!r}"
    assert not (tmp_path / "m").exists()  # no model, run directory or report


@pytest.mark.parametrize("where", ["signatures", "pipeline flag", "pipeline config"])
@pytest.mark.parametrize("value", ["-1", "1", "1.5", "nan"])
def test_threshold_outside_0_1_exit_2(small_corpus, trained, tmp_path, capsys, where, value):
    """The support threshold is a fraction in [0, 1): signatures refuses
    another before it reads its inputs, and the pipeline before ingest."""
    inputs = ["--transfers", str(small_corpus["transfers"]), "--tokens", str(small_corpus["tokens"]),
              "--accounts", str(small_corpus["accounts"]), "--methods", str(small_corpus["methods"])]
    out = tmp_path / "out"
    if where == "signatures":
        argv = ["signatures", "--model", str(tmp_path / "none.json"), "--features",
                str(small_corpus["features"]), "--labels", str(small_corpus["labels"]),
                "--threshold", value, "--out", str(out)]
        message = f"--threshold must be a number >= 0 and < 1, got {float(value)!r}"
    elif where == "pipeline flag":
        argv = ["pipeline", *inputs, "--threshold", value, "--out", str(out)]
        message = f"pipeline config 'threshold' must be a number >= 0 and < 1, got {float(value)!r}"
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"threshold": float(value)}), encoding="utf-8")
        argv = ["pipeline", "--config", str(config), *inputs, "--out", str(out)]
        message = (f"bad pipeline config {config}: pipeline config 'threshold' must be a number "
                   f">= 0 and < 1, got {float(value)!r}")
    _, err = run(capsys, argv, code=2)
    assert err["error"]["type"] == "InputError" and err["error"]["message"] == message
    assert not out.exists()


def test_stage_error_exit_3(small_corpus, trained, tmp_path, capsys, monkeypatch):
    # a ValueError raised inside the stage, not by its input checks
    def failing_evaluate(*args, **kwargs):
        raise ValueError("evaluation failed")

    monkeypatch.setattr(cli, "evaluate", failing_evaluate)
    _, err = run(capsys, [
        "eval", "--model", str(trained["model"]), "--features", str(small_corpus["features"]),
        "--labels", str(small_corpus["labels"]), "--folds", "3",
        "--report", str(tmp_path / "r.json"),
    ], code=3)
    assert err["error"]["stage"] == "eval"
    assert err["error"]["type"] == "ValueError"


# ---------------------------------------------------------------------------
# ingest / stats / etn
# ---------------------------------------------------------------------------

def test_ingest_report_and_store(mini_store, capsys):
    report = storage.read_json(mini_store / "ingest_report.json")
    assert report["transfers_read"] == 4 and report["transfers_kept"] == 4
    assert report["rejected"] == {}
    assert report["transactions"] == 3  # (tx1,e1), (tx1,e2), (tx2,e1)
    assert report["labeled"] == {"Swap": 2, "Transfer": 1}
    assert (mini_store / "transactions.jsonl").exists()
    labels = storage.read_labels(mini_store / "labels.csv")
    assert labels[("tx1", "0xe1")] == "Swap" and labels[("tx2", "0xe1")] == "Transfer"


def test_stats(mini_store, tmp_path, capsys):
    out, _ = run(capsys, ["stats", "--store", str(mini_store),
                          "--out", str(tmp_path / "stats.json")])
    assert out["transactions"] == 3
    assert out["transfers_per_transaction"] == {"1": 2, "2": 1}
    assert out["single_transfer_fraction"] == round(2 / 3, 6)
    assert out["accounts"]["0xe1"] == {
        "transactions": 2, "tokens": 2, "fraction_unlabeled": 0.0}
    assert storage.read_json(tmp_path / "stats.json") == out


def test_stats_and_etn_read_a_store_of_several_slices(tmp_path, capsys, monkeypatch):
    """stats and etn read a store in CHUNK_LINES slices, each decoded into a
    batch, and give what tuple logic gives over the store's transactions: an
    ego spanning slices, a token with no contract, an Unknown group, a hash
    under two egos, a row off the ego and a blank line."""
    def row(src, dst, src_type, dst_type, contract="0xt1", symbol="T1", category="Stablecoin"):
        return [src, dst, src_type, dst_type, contract, symbol, category, 1.5, 7]

    txs = [
        ("t1", "0xe1", "Swap", [row("0xe1", "0xa", "E", "A"), row("0xa", "0xe1", "A", "E")]),
        ("t1", "0xe2", None, [row("0xe2", "0xc", "E", "C", "", "T2", "Synthetic")]),
        ("t2", "0xe1", "Unknown", [row("0xn", "0xe1", "N", "E", "", "T2", "Bridge"),
                                   row("0xa", "0xb", "A", "A")]),
        ("t3", "0xe2", "Mint", [row("0xc", "0xe2", "C", "E", "0xt3", "", "Network")]),
        ("t4", "0xe1", None, [row("0xe1", "0xc", "E", "C"), row("0xe1", "0xa", "E", "A"),
                              row("0xe1", "0xc", "E", "A", "0xt3", "T3", "Other")]),
    ]
    store = tmp_path / "store"
    storage.write_store(store, batch_of(txs))
    path = store / storage.STORE_FILE
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join([*lines[:2], "\n", *lines[2:]]), encoding="utf-8")
    monkeypatch.setattr(storage, "CHUNK_LINES", 2)
    batches = list(storage.read_store(store))
    assert [len(batch) for batch in batches] == [2, 1, 2]
    stored = [tx for batch in batches for tx in transactions_of(batch)]
    assert stored == txs
    out, _ = run(capsys, ["stats", "--store", str(store), "--out", str(tmp_path / "stats.json")])
    assert out == reference_stats(stored)
    assert (tmp_path / "stats.json").read_text(encoding="utf-8") == storage.dumps(out) + "\n"
    for tx_hash, ego, _, rows in stored:
        dot = tmp_path / f"{tx_hash}-{ego}.dot"
        out, _ = run(capsys, ["etn", "--store", str(store), "--tx", tx_hash, "--ego", ego,
                              "--dot", str(dot)])
        network = reference_etn((tx_hash, ego, None, rows))
        assert dot.read_text(encoding="utf-8") == etn_mod.to_dot(network)
        assert out == {"tx_hash": tx_hash, "ego": ego, "nodes": len(network.node_types),
                       "edges": len(network.edges), "dot": str(dot)}
    _, err = run(capsys, ["etn", "--store", str(store), "--tx", "t1",
                          "--dot", str(tmp_path / "x.dot")], code=2)
    assert "has several egos (0xe1, 0xe2); pass --ego" in err["error"]["message"]


@pytest.mark.parametrize("threads", [1, 2])
def test_featurize_bad_store_line_exit_2(mini_store, tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setattr(storage, "CHUNK_LINES", 2)  # the bad line opens the second chunk
    lines = (mini_store / storage.STORE_FILE).read_text(encoding="utf-8").splitlines()
    store = tmp_path / "store"
    store.mkdir()
    out = tmp_path / "features.jsonl"
    bad_lines = {
        "truncated": lines[1][: len(lines[1]) // 2],
        "missing key": json.dumps({"tx": "t", "tr": []}),
        "short row": json.dumps({"tx": "t", "ego": "0xe1", "tr": [["0xe1", "0xa"]]}),
    }
    for what, bad in bad_lines.items():
        # a blank line first: line numbers count every line of the store
        text = "\n".join([lines[0], "", bad, lines[2]]) + "\n"
        (store / storage.STORE_FILE).write_text(text, encoding="utf-8")
        out.write_text("previous\n", encoding="utf-8")
        _, err = run(capsys, ["featurize", "--store", str(store), "--mode", "MxE",
                              "--threads", str(threads), "--out", str(out)], code=2)
        assert err["error"]["stage"] == "featurize", what
        assert err["error"]["type"] == "InputError", what
        assert f"{store / storage.STORE_FILE}:3:" in err["error"]["message"], what
        # the previous output is left as it was and no temporary file remains
        assert out.read_text(encoding="utf-8") == "previous\n", what
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features.jsonl", "store"], what


@pytest.mark.parametrize("mode", ["M", "MxE"])
def test_featurize_null_counterpart_type_exit_2(tmp_path, capsys, mode):
    store = tmp_path / "store"
    store.mkdir()
    row = ["0xe1", "0xa", "EOA", "EOA", "0xt", "T", "stable", 1.0, 1]
    line = {"tx": "t", "ego": "0xe1", "mg": None, "tr": [row, ["0xe1", "0xb", "EOA", None, *row[4:]]]}
    (store / storage.STORE_FILE).write_text(json.dumps(line) + "\n", encoding="utf-8")
    _, err = run(capsys, ["featurize", "--store", str(store), "--mode", mode,
                          "--out", str(tmp_path / "features.jsonl")], code=2)
    assert err["error"]["type"] == "InputError"
    assert f"bad store line {store / storage.STORE_FILE}:1:" in err["error"]["message"]
    assert "'0xb'" in err["error"]["message"]


BAD_STORE_LINES = {
    "truncated JSON": '{"tx": "t", "ego": "0xe1", "mg": null, "tr": [["0xe1", "0xa"',
    "missing key": json.dumps({"tx": "t", "tr": []}),
    "short row": json.dumps({"tx": "t", "ego": "0xe1", "tr": [["0xe1", "0xa"]]}),
    "non-string counterpart type": json.dumps({"tx": "t", "ego": "0xe1", "mg": None, "tr": [
        ["0xe1", "0xb", "E", None, "0xt", "T", "Stablecoin", 1.0, 1]]}),
    "self-transfer": json.dumps({"tx": "t", "ego": "0xe1", "mg": None, "tr": [
        ["0xe1", "0xe1", "E", "E", "0xt", "T", "Stablecoin", 1.0, 1]]}),
    "string amount": json.dumps({"tx": "t", "ego": "0xe1", "mg": None, "tr": [
        ["0xe1", "0xb", "E", "A", "0xt", "T", "Stablecoin", "1.0", 1]]}),
    "amount beyond a float": json.dumps({"tx": "t", "ego": "0xe1", "mg": None, "tr": [
        ["0xe1", "0xb", "E", "A", "0xt", "T", "Stablecoin", 10 ** 400, 1]]}),
    "string block": json.dumps({"tx": "t", "ego": "0xe1", "mg": None, "tr": [
        ["0xe1", "0xb", "E", "A", "0xt", "T", "Stablecoin", 1.0, "1"]]}),
}


def _store_with_line(mini_store, store, line):
    """The mini store's first and last lines around `line`, on line 3."""
    lines = (mini_store / storage.STORE_FILE).read_text(encoding="utf-8").splitlines()
    store.mkdir()
    path = store / storage.STORE_FILE
    path.write_text("\n".join([lines[0], "", line, lines[2]]) + "\n", encoding="utf-8")
    return path


def _store_reader_argv(command, store, tmp_path):
    extra = {"featurize": ["--out", str(tmp_path / "features.jsonl")], "stats": [],
             "etn": ["--tx", "tx2", "--dot", str(tmp_path / "etn.dot")]}[command]
    return [command, "--store", str(store), *extra]


@pytest.mark.parametrize("bad", list(BAD_STORE_LINES))
@pytest.mark.parametrize("command", ["featurize", "stats", "etn"])
def test_every_store_reader_rejects_bad_line(mini_store, tmp_path, capsys, command, bad):
    path = _store_with_line(mini_store, tmp_path / "store", BAD_STORE_LINES[bad])
    _, err = run(capsys, _store_reader_argv(command, tmp_path / "store", tmp_path), code=2)
    assert err["error"]["stage"] == command
    assert err["error"]["type"] == "InputError"
    assert err["error"]["message"].startswith(f"bad store line {path}:3: "), err["error"]["message"]


@pytest.mark.parametrize("command", ["featurize", "stats", "etn"])
def test_every_store_reader_accepts_integer_amount_and_block_beyond_int64(mini_store, tmp_path,
                                                                          capsys, command):
    line = json.dumps({"tx": "t", "ego": "0xe1", "mg": None, "tr": [
        ["0xe1", "0xb", "E", "A", "0xt", "T", "Stablecoin", 5, 2 ** 70]]})
    _store_with_line(mini_store, tmp_path / "store", line)
    run(capsys, _store_reader_argv(command, tmp_path / "store", tmp_path))


@pytest.mark.parametrize("command", ["featurize", "stats", "etn"])
def test_every_store_reader_accepts_line_without_method_group(mini_store, tmp_path, capsys,
                                                             command):
    line = json.dumps({"tx": "t", "ego": "0xe1", "tr": [
        ["0xe1", "0xb", "E", "A", "0xt", "T", "Stablecoin", 1.0, 1]]})
    _store_with_line(mini_store, tmp_path / "store", line)
    run(capsys, _store_reader_argv(command, tmp_path / "store", tmp_path))


# ---------------------------------------------------------------------------
# every input file kind: a bad file is exit 2, naming the file (and line)
# ---------------------------------------------------------------------------

INPUT_KINDS = ["transfers", "tokens", "accounts", "methods", "method groups", "catalog",
               "pipeline config", "mixes", "archetype config", "model", "signatures",
               "store (featurize)", "store (stats)", "features (train)", "features (match)",
               "labels", "matches", "profiles"]

# (kind, fault) -> content that decodes but is not a valid file of its kind,
# and the line it is on
def _one_leaf_model(classes=("Swap",), vocabulary=("m1(E,A)", "__oov__"), n=1, mode="M+E",
                    params=None) -> str:
    """A dt model file whose tree is one leaf, with the given fields."""
    leaf = {"feature": None, "threshold": None, "left": None, "right": None, "value": [1.0],
            "n": n, "weight": 1.0, "gini": 0.0}
    return json.dumps({
        "format": "motifscope-model", "kind": "dt", "mode": mode, "classes": classes,
        "vocabulary": vocabulary, "params": {} if params is None else params,
        "model": {"kind": "tree", "n_classes": 1, "min_leaf": 10, "total_weight": 1.0,
                  "nodes": [leaf]}})


def _model_with(**fields) -> str:
    """_one_leaf_model() with `fields` set at its top level."""
    return json.dumps({**json.loads(_one_leaf_model()), **fields})


def _archetype_config(noise=0.05, **fields) -> str:
    """An archetype config of one Swap archetype with `fields` set."""
    return json.dumps({"noise": noise, "archetypes": [{
        "name": "Swap", "table2_count": 1, "edges": [["ego", "contract:pool", "Stablecoin"]],
        **fields}]})


INVALID_INPUTS = {
    ("catalog", "invalid"): (json.dumps([{"id": "m1", "nodes": ["E", "i", "j"],
                                          "edges": [["E", "i"], ["i", "j"]]}]), None),
    ("profiles", "invalid"): ("account,total,leaf_1\n0xa,1,x\n", 2),
    ("labels", "invalid"): ("tx_hash,ego,method_group\n\ntx1,0xe1\n", 3),
    ("tokens", "invalid object"): (json.dumps({"0xt1": "Stablecoin"}), None),
    ("accounts", "invalid object"): (json.dumps({"0x1": "ego"}), None),
    ("accounts", "invalid entries"): ("[1, 2]", None),
    ("method groups", "invalid list"): (json.dumps(["Swap"]), None),
    ("mixes", "invalid object"): (json.dumps({"name": "m", "methods": {"Swap": 1.0}}), None),
    ("pipeline config", "invalid list"): ("[]", None),
    ("archetype config", "invalid list"): ("[]", None),
    ("model", "invalid list"): ("[]", None),
    ("model", "invalid no mode"): (json.dumps({"format": "motifscope-model", "kind": "dt"}), None),
    ("signatures", "invalid no group"): (json.dumps({
        "format": "motifscope-signatures", "signatures": [{"leaf": 1, "items": ["m1(E,A)"]}]}),
        None),
    ("features (match)", "invalid no features"): (
        '{"tx_hash":"t","ego":"e","mode":"M+E"}\n', 1),
    ("features (match)", "invalid features list"): (
        '{"tx_hash":"t","ego":"e","mode":"M+E","features":[1]}\n', 1),
    ("matches", "invalid no ego"): ('{"groups":[],"leaves":[],"tx_hash":"t"}\n', 1),
    ("features (match)", "invalid count string"): (
        '{"tx_hash":"t","ego":"e","mode":"M+E","features":{"m1(E,A)":1}}\n'
        '{"tx_hash":"u","ego":"e","mode":"M+E","features":{"m1(E,A)":"x"}}\n', 2),
    ("features (match)", "invalid count bool"): (
        '{"tx_hash":"t","ego":"e","mode":"M+E","features":{"m1(E,A)":true}}\n', 1),
    ("features (match)", "invalid tx_hash"): (
        '{"tx_hash":1,"ego":"e","mode":"M+E","features":{}}\n', 1),
    ("features (train)", "invalid count float"): (
        '{"tx_hash":"t","ego":"e","mode":"M+E","features":{"m1(E,A)":1.5}}\n', 1),
    ("matches", "invalid ego list"): ('{"ego":"e","leaves":[1]}\n{"ego":["e"],"leaves":[1]}\n', 2),
    ("matches", "invalid leaves nested"): ('{"ego":"e","leaves":[[1]]}\n', 1),
    ("profiles", "invalid count overflow"): (f"account,total,leaf_1\n0xa,1,{2**70}\n", 2),
    ("profiles", "invalid negative count"): ("account,total,leaf_1,leaf_2\n0xb,3,3,0\n"
                                             "0xa,1,-5,6\n", 3),
    ("profiles", "invalid total"): ("account,total,leaf_1,leaf_2\n0xa,4,1,2\n", 2),
    ("signatures", "invalid items list"): (json.dumps({
        "format": "motifscope-signatures",
        "signatures": [{"leaf": 1, "group": "Swap", "items": [["m1(E,A)"]]}]}), None),
    ("signatures", "invalid group list"): (json.dumps({
        "format": "motifscope-signatures",
        "signatures": [{"leaf": 1, "group": ["Swap"], "items": ["m1(E,A)"]}]}), None),
    ("model", "invalid classes"): (_one_leaf_model(classes=5), None),
    ("model", "invalid vocabulary entry"): (
        _one_leaf_model(vocabulary=["m1(E,A)", ["x"], "__oov__"]), None),
    ("model", "invalid node n"): (_one_leaf_model(n=1e300), None),
    ("model", "invalid params list"): (_one_leaf_model(params=[]), None),
    ("model", "invalid min_leaf string"): (_one_leaf_model(params={"min_leaf": "x"}), None),
    ("model", "invalid mode"): (_one_leaf_model(mode=5), None),
    ("pipeline config", "invalid target_leaves 0"): (json.dumps({"target_leaves": 0}), None),
    ("pipeline config", "invalid negative alpha"): (json.dumps({"alpha": -1.0}), None),
    ("pipeline config", "invalid both pruning targets"): (
        json.dumps({"target_leaves": 3, "alpha": 0.1}), None),
    ("tokens", "invalid spam string"): (json.dumps([
        {"contract": "0xt1", "symbol": "USDC", "category": "Stablecoin", "is_spam": "false"}]),
        None),
    ("methods", "invalid one field"): ("tx_hash,raw_method\ntx1,swap\n\ntx2\n", 4),
    ("methods", "invalid empty hash"): ("tx_hash,raw_method\n,swap\n", 2),
    ("signatures", "invalid leaf string"): (json.dumps({
        "format": "motifscope-signatures",
        "signatures": [{"leaf": "7", "group": "Swap", "items": ["m1(E,A)"]}]}), None),
    ("signatures", "invalid leaf bool"): (json.dumps({
        "format": "motifscope-signatures",
        "signatures": [{"leaf": True, "group": "Swap", "items": ["m1(E,A)"]}]}), None),
    ("signatures", "invalid samples float"): (json.dumps({
        "format": "motifscope-signatures",
        "signatures": [{"leaf": 7, "group": "Swap", "items": [], "samples": 7.9}]}), None),
    ("signatures", "invalid support string"): (json.dumps({
        "format": "motifscope-signatures",
        "signatures": [{"leaf": 7, "group": "Swap", "items": ["a"], "item_supports": {"a": "1"}}]}),
        None),
    ("signatures", "invalid repeated leaf"): (json.dumps({
        "format": "motifscope-signatures",
        "signatures": [{"leaf": 7, "group": "Swap", "items": ["m1(E,A)"]},
                       {"leaf": 7, "group": "Mint", "items": ["m2(E,A)"]}]}), None),
    ("features (train)", "invalid mode"): (
        '{"tx_hash":"t","ego":"e","mode":"XYZ","features":{}}\n', 1),
    ("signatures", "invalid mode"): (json.dumps({
        "format": "motifscope-signatures", "mode": "XYZ",
        "signatures": [{"leaf": 7, "group": "Swap", "items": ["m1(E,A)"]}]}), None),
    ("accounts", "invalid no address"): (json.dumps([{"adress": "0xc0", "type": "contract"}]),
                                         None),
    ("tokens", "invalid no contract or symbol"): (json.dumps([{"category": "Stablecoin"}]), None),
    ("features (match)", "invalid mixed modes"): (
        '{"tx_hash":"t","ego":"e","mode":"M+E","features":{}}\n'
        '{"tx_hash":"u","ego":"e","mode":"MxE","features":{}}\n', 2),
    # a quoted field spans lines 2 and 3, so the fault is on physical line 4
    ("methods", "invalid one field after a quoted line break"): (
        'tx_hash,raw_method\nt1,"multi\nline"\nt2\n', 4),
    ("labels", "invalid short row after a quoted line break"): (
        'tx_hash,ego,method_group\nt1,"e\n1",Swap\nt2,e\n', 4),
    ("profiles", "invalid short row after a quoted line break"): (
        'account,total,leaf_1\n"0x\na",1,1\n0xb,1\n', 4),
    # misspelt, mistyped and unknown fields, each once loaded with no message
    ("tokens", "invalid misspelt is_spam"): (json.dumps([
        {"contract": "0xTok", "symbol": "SPAM", "isSpam": True}]), None),
    ("accounts", "invalid misspelt type"): (json.dumps([{"address": "0xc0", "typ": "contract"}]),
                                            None),
    ("signatures", "invalid misspelt probability"): (json.dumps({
        "format": "motifscope-signatures",
        "signatures": [{"leaf": 7, "group": "Swap", "items": ["m1(E,A)"], "prob": 0.9}]}), None),
    ("archetype config", "invalid fractional count"): (_archetype_config(table2_count=2.7), None),
    ("archetype config", "invalid count string"): (_archetype_config(table2_count="3"), None),
    ("archetype config", "invalid noise string"): (_archetype_config(noise="0.1"), None),
    ("mixes", "invalid name number"): (json.dumps([{"name": 5, "methods": {"Swap": 1.0}}]), None),
    ("mixes", "invalid weight bool"): (json.dumps([
        {"name": "m", "weight": True, "methods": {"Swap": 1.0}}]), None),
    ("mixes", "invalid share string"): (json.dumps([{"name": "m", "methods": {"Swap": "1"}}]),
                                        None),
    ("catalog", "invalid id number"): (json.dumps([
        {"id": 5, "nodes": ["E", "i"], "edges": [["E", "i"]]}]), None),
    ("catalog", "invalid nodes string"): (json.dumps([
        {"id": "m1", "nodes": "Ei", "edges": [["E", "i"]]}]), None),
    ("catalog", "invalid unknown key"): (json.dumps([
        {"id": "m1", "nodes": ["E", "i"], "edges": [["E", "i"]], "note": "x"}]), None),
    ("model", "invalid l2 string"): (_model_with(kind="lr", model={
        "kind": "logistic", "l2": "2", "weights": [[0.0, 0.0]], "biases": [0.0]}), None),
    ("model", "invalid unknown key"): (_model_with(note="x"), None),
    ("model", "invalid forest without trees"): (_model_with(kind="rf", model={
        "kind": "forest", "n_classes": 1, "trees": []}), None),
    # refusals whose messages once left out the file
    ("archetype config", "invalid unknown name"): (_archetype_config(name="Teleport"), None),
    ("mixes", "invalid empty distribution"): (json.dumps([{"name": "m", "methods": {}}]), None),
    ("tokens", "invalid unknown category"): (json.dumps([
        {"contract": "0x1", "category": "Doubloons"}]), None),
    ("accounts", "invalid unknown type"): (json.dumps([{"address": "0x1", "type": "wizard"}]),
                                           None),
}


def _input_kinds(mini_store, small_corpus, trained, tmp):
    """kind -> (format, a valid file of that kind, argv reading it from "{bad}",
    or from the directory "{bad_dir}" for the store)."""
    raw = mini_store.parent / "raw"
    feats, labels = str(small_corpus["features"]), str(small_corpus["labels"])
    sources = {
        "catalog.json": catalog_json(motif.enumerate_catalog()),
        "config.json": {"transfers": str(raw / "transfers.csv"), "tokens": str(raw / "tokens.json"),
                        "accounts": str(raw / "accounts.json"), "out": str(tmp / "run")},
        "mixes.json": [{"name": "m", "methods": {"Swap": 1.0}}],
    }
    for name, obj in sources.items():
        (tmp / name).write_text(json.dumps(obj), encoding="utf-8")
    (tmp / "archetypes.json").write_text(synth.PACKAGED_ARCHETYPES.read_text(encoding="utf-8"), encoding="utf-8")
    ingest_flags = {"--transfers": raw / "transfers.csv", "--tokens": raw / "tokens.json",
                    "--accounts": raw / "accounts.json", "--methods": raw / "methods.csv",
                    "--method-groups": cli.PACKAGED_METHOD_GROUPS, "--out": tmp / "store"}

    def ingest_with(bad_flag):
        return ["ingest", *(arg for flag, path in ingest_flags.items()
                            for arg in (flag, "{bad}" if flag == bad_flag else str(path)))]

    store_file = mini_store / storage.STORE_FILE
    return {
        "transfers": ("csv", raw / "transfers.csv", ingest_with("--transfers")),
        "tokens": ("json", raw / "tokens.json", ingest_with("--tokens")),
        "accounts": ("json", raw / "accounts.json", ingest_with("--accounts")),
        "methods": ("csv", raw / "methods.csv", ingest_with("--methods")),
        "method groups": ("json", cli.PACKAGED_METHOD_GROUPS, ingest_with("--method-groups")),
        "catalog": ("json", tmp / "catalog.json", ["featurize", "--store", str(mini_store),
                                                   "--catalog", "{bad}", "--out", str(tmp / "f")]),
        "pipeline config": ("json", tmp / "config.json", ["pipeline", "--config", "{bad}"]),
        "mixes": ("json", tmp / "mixes.json",
                  ["synth", "--n", "10", "--mixes", "{bad}", "--out", str(tmp / "corpus")]),
        "archetype config": ("json", tmp / "archetypes.json",
                             ["synth", "--n", "10", "--config", "{bad}", "--out", str(tmp / "corpus")]),
        "model": ("json", trained["model"], ["eval", "--model", "{bad}", "--features", feats,
                                             "--labels", labels, "--report", str(tmp / "r.json")]),
        "signatures": ("json", trained["signatures"], ["match", "--signatures", "{bad}",
                                                       "--features", feats, "--out", str(tmp / "m")]),
        "store (featurize)": ("jsonl", store_file, ["featurize", "--store", "{bad_dir}",
                                                    "--out", str(tmp / "f")]),
        "store (stats)": ("jsonl", store_file, ["stats", "--store", "{bad_dir}"]),
        "features (train)": ("jsonl", small_corpus["features"], [
            "train", "--features", "{bad}", "--labels", labels, "--model", "dt",
            "--out", str(tmp / "model.json")]),
        "features (match)": ("jsonl", small_corpus["features"], [
            "match", "--signatures", str(trained["signatures"]), "--features", "{bad}",
            "--out", str(tmp / "m")]),
        "labels": ("csv", small_corpus["labels"], ["train", "--features", feats, "--labels", "{bad}",
                                                   "--model", "dt", "--out", str(tmp / "model.json")]),
        "matches": ("jsonl", trained["matches"], ["profile", "--matches", "{bad}",
                                                  "--out", str(tmp / "p.csv")]),
        "profiles": ("csv", trained["profiles"], ["cluster", "--profiles", "{bad}",
                                                  "--out", str(tmp / "c.json")]),
    }


def _corrupt(data: bytes, fmt: str, fault: str):
    """`data` cut short or given a byte that is not UTF-8, and the line that
    holds the fault (None for a JSON document)."""
    if fmt == "json":
        half = len(data) // 2
        return (data[:half] if fault == "truncated" else data[:half] + b"\xff" + data[half:]), None
    lines = data.splitlines(keepends=True)
    if fault == "truncated" and fmt == "csv":  # a cut CSV row is a short row: cut the header
        return lines[0][: len(lines[0]) // 2], 1
    cut = len(lines[1]) // 2
    if fault == "truncated":
        return lines[0] + lines[1][:cut], 2
    return b"".join([lines[0], lines[1][:cut], b"\xff", lines[1][cut:], *lines[2:]]), 2


@pytest.mark.parametrize("kind, fault", [(kind, fault) for kind in INPUT_KINDS
                                         for fault in ("truncated", "undecodable")]
                         + list(INVALID_INPUTS))
def test_every_input_file_kind_rejects_bad_file(mini_store, small_corpus, trained, tmp_path,
                                                capsys, kind, fault):
    kinds = _input_kinds(mini_store, small_corpus, trained, tmp_path)
    assert sorted(kinds) == sorted(INPUT_KINDS)
    fmt, source, argv = kinds[kind]
    if fault.startswith("invalid"):
        text, line = INVALID_INPUTS[kind, fault]
        data = text.encode("utf-8")
    else:
        data, line = _corrupt(Path(source).read_bytes(), fmt, fault)
    bad = tmp_path / "bad" / Path(source).name
    bad.parent.mkdir()
    bad.write_bytes(data)
    argv = [arg.replace("{bad}", str(bad)).replace("{bad_dir}", str(bad.parent)) for arg in argv]
    _, err = run(capsys, argv, code=2)
    assert err["error"]["type"] == "InputError"
    assert err["error"]["message"].count(str(bad)) == 1, err["error"]["message"]
    if line is not None:
        assert f"{bad}:{line}: " in err["error"]["message"], err["error"]["message"]


# each declared field table -> (the table, the file kind it reads, and where in
# a file of that kind the object it reads sits)
FIELD_TABLES = {
    "token": (ingest.TokenRegistry._FIELDS, "tokens", lambda doc: doc[0]),
    "account": (ingest.AccountRegistry._FIELDS, "accounts", lambda doc: doc[0]),
    "catalog entry": (motif._CATALOG_FIELDS, "catalog", lambda doc: doc[0]),
    "archetype config": (synth._CONFIG_FIELDS, "archetypes", lambda doc: doc),
    "archetype": (synth._ARCHETYPE_FIELDS, "archetypes", lambda doc: doc["archetypes"][0]),
    "mix": (synth._MIX_FIELDS, "mixes", lambda doc: doc[0]),
    "model file": (cli._MODEL_FIELDS, "dt model", lambda doc: doc),
    "model params": (cli._MODEL_PARAMS, "pruned model", lambda doc: doc["params"]),
    "tree": (models.DecisionTree._FIELDS, "dt model", lambda doc: doc["model"]),
    "forest": (models.RandomForest._FIELDS, "rf model", lambda doc: doc["model"]),
    "logistic": (models.LogisticModel._FIELDS, "lr model", lambda doc: doc["model"]),
    "signatures file": (cli._SIGNATURES_FIELDS, "signatures", lambda doc: doc),
    "signature": (LeafSignature._FIELDS, "pipeline signatures", lambda doc: doc["signatures"][0]),
}
# a value of another JSON type than each declared type
OTHER_TYPE = {int: True, bool: 1, float: "1", str: None, list: {}, dict: [], None: True}


def _table_files(small_corpus, pipeline_run):
    """file kind -> (a file of that kind that this repository commits or
    writes, or a document where it has none, and its loader)."""
    bench_data = Path(__file__).parent.parent / "bench" / "data"
    signatures = functools.partial(cli.load_signatures, mode=None)
    return {
        "tokens": (small_corpus["tokens"], ingest.TokenRegistry.from_file),
        "accounts": (small_corpus["accounts"], ingest.AccountRegistry.from_file),
        "catalog": (catalog_json(motif.enumerate_catalog()), motif.load_catalog),
        "archetypes": (Path(synth.__file__).parent / "data" / "archetypes.json", synth.load_config),
        "mixes": ([{"name": "m", "weight": 1.0, "methods": {"Swap": 1.0}}], synth.load_mixes),
        "dt model": (pipeline_run / "model.json", cli.load_model),
        "pruned model": (pipeline_run / "pruned.json", cli.load_model),
        "rf model": (MODEL_FILES / "rf_model.json", cli.load_model),
        "lr model": (json.loads(_model_with(kind="lr", model={
            "kind": "logistic", "l2": 1.0, "weights": [[0.0, 0.0]], "biases": [0.0]})),
            cli.load_model),
        "signatures": (bench_data / "score_signatures.json", signatures),
        "pipeline signatures": (pipeline_run / "signatures.json", signatures),
    }


@pytest.mark.parametrize("table", list(FIELD_TABLES))
def test_declared_fields_refuse_what_they_do_not_declare(small_corpus, pipeline_run, tmp_path,
                                                          table):
    """A file of each kind loads. Each field of its table, deleted where it
    is required or given a value of another JSON type, and an unknown key
    beside them, make it raise InputError naming the file once."""
    modules = (ingest, motif, synth, models, motifscope.signatures, cli)
    owners = [*modules, *(value for module in modules for value in vars(module).values()
                          if isinstance(value, type) and value.__module__ == module.__name__)]
    declared = {id(value) for owner in owners for name, value in vars(owner).items()
                if name != "PARAMS" and type(value) is dict and value
                and all(isinstance(param, ingest.Param) for param in value.values())}
    assert declared == {id(fields) for fields, _, _ in FIELD_TABLES.values()}
    fields, kind, locate = FIELD_TABLES[table]
    source, load = _table_files(small_corpus, pipeline_run)[kind]
    text = Path(source).read_text(encoding="utf-8") if isinstance(source, Path) else \
        json.dumps(source)
    path = tmp_path / "file.json"
    path.write_text(text, encoding="utf-8")
    load(path)

    def refused(edit):
        doc = json.loads(text)
        edit(locate(doc))
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ingest.InputError) as err:
            load(path)
        assert str(err.value).count(str(path)) == 1, err.value

    for key, param in fields.items():
        if param.default is ...:
            refused(lambda obj: obj.pop(key))
        refused(lambda obj: obj.update({key: OTHER_TYPE[param.type]}))
    refused(lambda obj: obj.update({"unknown": 1}))


def test_failed_artifact_writes_leave_previous_files(trained, tmp_path, monkeypatch, capsys):
    prune = ["prune", "--model", str(trained["model"]), "--target-leaves", "8",
             "--out", str(tmp_path / "pruned.json"), "--path", str(tmp_path / "ccp_path.csv"),
             "--dot", str(tmp_path / "pruned_tree.dot")]
    cluster = ["cluster", "--profiles", str(trained["profiles"]), "--min-matches", "1",
               "--out", str(tmp_path / "clusters.json"), "--plotdata", str(tmp_path / "plot")]
    run(capsys, prune)
    run(capsys, cluster)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert {"ccp_path.csv", "pruned_tree.dot", "zscores.csv", "clusters.csv"} <= {
        p.name for p in before}

    class FailingWriter:
        """csv.writer that fails on its third row, after the header and one row."""

        def __init__(self, fh):
            self.writer = csv.writer(fh)
            self.rows = 0

        def writerow(self, row):
            self.rows += 1
            if self.rows == 3:
                raise RuntimeError("disk full")
            return self.writer.writerow(row)

        def writerows(self, rows):
            for row in rows:
                self.writerow(row)

    with monkeypatch.context() as patch:
        patch.setattr(storage, "csv", types.SimpleNamespace(writer=FailingWriter))
        assert run(capsys, prune, code=3)[1]["error"]["message"] == "disk full"
        assert run(capsys, cluster, code=3)[1]["error"]["message"] == "disk full"
    # a DOT text that cannot be encoded fails inside write_text
    monkeypatch.setattr(cli, "tree_to_dot", lambda *args: "digraph {\n" + "\ud800")
    assert run(capsys, prune, code=3)[1]["error"]["type"] == "UnicodeEncodeError"
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_python_m_motifscope(mini_store, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(motifscope.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "motifscope", "stats", "--store", str(mini_store)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["transactions"] == 3
    proc = subprocess.run([sys.executable, "-m", "motifscope", "stats", "--store",
                           str(tmp_path / "missing")], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"]["type"] == "InputError"


def test_etn_requires_ego_when_ambiguous(mini_store, tmp_path, capsys):
    _, err = run(capsys, ["etn", "--store", str(mini_store), "--tx", "tx1",
                          "--dot", str(tmp_path / "x.dot")], code=2)
    assert "0xe1" in err["error"]["message"] and "0xe2" in err["error"]["message"]


def test_etn_writes_dot(mini_store, tmp_path, capsys):
    out, _ = run(capsys, ["etn", "--store", str(mini_store), "--tx", "tx1",
                          "--ego", "0xe1", "--dot", str(tmp_path / "t.dot")])
    assert out["nodes"] == 2 and out["edges"] == 2
    dot = (tmp_path / "t.dot").read_text(encoding="utf-8")
    assert dot.startswith("digraph etn {")
    assert '"0xe1" -> "0xc1" [label="Stablecoin"];' in dot


def test_etn_not_found(mini_store, tmp_path, capsys):
    _, err = run(capsys, ["etn", "--store", str(mini_store), "--tx", "0xmissing",
                          "--dot", str(tmp_path / "x.dot")], code=2)
    assert "not found" in err["error"]["message"]


# ---------------------------------------------------------------------------
# featurize / train / eval
# ---------------------------------------------------------------------------

def test_featurize_me_alias_and_catalog_override(mini_store, tmp_path, capsys):
    default = tmp_path / "f1.jsonl"
    override = tmp_path / "f2.jsonl"
    out, _ = run(capsys, ["featurize", "--store", str(mini_store), "--mode", "ME",
                          "--out", str(default)])
    assert out["transactions"] == 3 and out["oversize"] == 0
    first = json.loads(default.read_text().splitlines()[0])
    assert first["mode"] == "M+E"
    catalog_path = tmp_path / "catalog.json"
    catalog_path.write_text(json.dumps(catalog_json(motif.enumerate_catalog())), encoding="utf-8")
    run(capsys, ["featurize", "--store", str(mini_store), "--mode", "ME",
                 "--out", str(override), "--catalog", str(catalog_path)])
    assert override.read_bytes() == default.read_bytes()


@pytest.mark.parametrize("kind", ["dt", "lr", "rf"])
def test_train_envelope(small_corpus, tmp_path, capsys, kind):
    out_path = tmp_path / f"{kind}.json"
    argv = ["train", "--features", str(small_corpus["features"]),
            "--labels", str(small_corpus["labels"]), "--model", kind,
            "--out", str(out_path)]
    if kind == "rf":
        argv += ["--trees", "5"]  # keep the fixture fast
    out, _ = run(capsys, argv)
    assert out["model"] == kind and out["rows"] == 2000
    spec = storage.read_json(out_path)
    assert spec["format"] == "motifscope-model"
    assert spec["kind"] == kind and spec["mode"] == "M+E"
    assert spec["classes"] == GROUPS8
    assert spec["vocabulary"][-1] == "__oov__"
    assert set(spec["params"]) == {"l2", "min_leaf", "trees", "max_features"}


def test_train_mode_mismatch(small_corpus, tmp_path, capsys):
    _, err = run(capsys, ["train", "--features", str(small_corpus["features"]),
                          "--labels", str(small_corpus["labels"]), "--model", "dt",
                          "--mode", "MxE", "--out", str(tmp_path / "m.json")], code=2)
    assert "does not match" in err["error"]["message"]


def test_eval_report(small_corpus, trained, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    out, _ = run(capsys, ["eval", "--model", str(trained["model"]),
                          "--features", str(small_corpus["features"]),
                          "--labels", str(small_corpus["labels"]),
                          "--folds", "5", "--report", str(report_path)])
    report = storage.read_json(report_path)
    assert report["classes"] == GROUPS8
    assert len(report["per_fold"]) == 5
    assert out["averages"] == report["averages"]
    assert set(report["averages"]) == {"precision", "recall", "f1"}
    n = sum(sum(row) for row in report["confusion"])
    assert n == 2000
    for row in report["confusion_row_percent"]:
        assert abs(sum(row) - 1.0) < 1e-4 or sum(row) == 0.0
    assert 0.9 < report["averages"]["f1"] <= 1.0  # clean synthetic corpus


def test_eval_rejects_junk_model(small_corpus, tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
    _, err = run(capsys, ["eval", "--model", str(junk),
                          "--features", str(small_corpus["features"]),
                          "--labels", str(small_corpus["labels"]),
                          "--report", str(tmp_path / "r.json")], code=2)
    assert "'format' must be one of ['motifscope-model'], got 'something-else'" in \
        err["error"]["message"]


def _dataset_argv(command, model, features, labels, tmp):
    """argv of a subcommand that reads a model, --features and --labels."""
    inputs = ["--model", str(model), "--features", str(features), "--labels", str(labels)]
    return {"eval": ["eval", *inputs, "--report", str(tmp / "r.json")],
            "signatures": ["signatures", *inputs, "--out", str(tmp / "s.json")],
            "prune": ["prune", *inputs, "--alpha", "0", "--path", str(tmp / "p.csv"),
                      "--out", str(tmp / "p.json")]}[command]


@pytest.fixture(scope="module")
def mint_free_model(tmp_path_factory, small_corpus):
    """A dt model trained on labels.csv without its Mint rows."""
    out = tmp_path_factory.mktemp("mintfree")
    with open(small_corpus["labels"], newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row[2] != "Mint"]
    with open(out / "labels.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["train", "--features", str(small_corpus["features"]),
                 "--labels", str(out / "labels.csv"), "--model", "dt",
                 "--out", str(out / "model.json")]) == 0
    return out / "model.json"


@pytest.mark.parametrize("command", ["eval", "signatures", "prune"])
def test_label_outside_model_classes_exit_2(small_corpus, mint_free_model, tmp_path, capsys,
                                           command):
    """A label the model has no class for exits 2 naming it and the model's classes."""
    _, err = run(capsys, _dataset_argv(command, mint_free_model, small_corpus["features"],
                                       small_corpus["labels"], tmp_path), code=2)
    assert err["error"]["type"] == "InputError"
    assert "['Mint']" in err["error"]["message"]
    assert str([g for g in GROUPS8 if g != "Mint"]) in err["error"]["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def mxe_features(tmp_path_factory, small_corpus):
    out = tmp_path_factory.mktemp("mxe") / "features.jsonl"
    assert main(["featurize", "--store", str(small_corpus["store"]), "--mode", "MxE",
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("command", ["eval", "signatures", "prune", "match", "pipeline"])
def test_features_of_another_mode_exit_2(small_corpus, trained, mxe_features, tmp_path, capsys,
                                         command):
    """M+E models and signatures refuse MxE features (eval, prune with
    --features, signatures and match), and a match-only MxE pipeline refuses
    M+E signatures before ingest."""
    if command == "match":
        argv = ["match", "--signatures", str(trained["signatures"]),
                "--features", str(mxe_features), "--out", str(tmp_path / "m.jsonl")]
    elif command == "pipeline":
        argv = ["pipeline", "--transfers", str(small_corpus["transfers"]),
                "--tokens", str(small_corpus["tokens"]),
                "--accounts", str(small_corpus["accounts"]),
                "--signatures", str(trained["signatures"]), "--mode", "MxE",
                "--out", str(tmp_path / "run")]
    else:
        model = trained["pruned" if command == "signatures" else "model"]
        argv = _dataset_argv(command, model, mxe_features, small_corpus["labels"], tmp_path)
    _, err = run(capsys, argv, code=2)
    assert err["error"]["type"] == "InputError"
    assert re.search(r"M\+E does not match .* mode MxE|MxE does not match .* mode M\+E",
                     err["error"]["message"]), err["error"]["message"]
    if command == "pipeline":
        manifest = storage.read_json(tmp_path / "run" / "manifest.json")
        assert manifest["stages"] == [] and not (tmp_path / "run" / "store").exists()
    else:
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# prune / signatures / match / profile / cluster
# ---------------------------------------------------------------------------

def test_prune_by_target_with_path_csv(small_corpus, trained, tmp_path, capsys):
    path_csv = tmp_path / "path.csv"
    dot = tmp_path / "tree.dot"
    out, _ = run(capsys, ["prune", "--model", str(trained["model"]),
                          "--target-leaves", "8", "--out", str(tmp_path / "p.json"),
                          "--path", str(path_csv), "--dot", str(dot)])
    assert out["leaves"] <= 8
    with open(path_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha", "leaves", "precision", "recall", "f1"]
    alphas = [float(r[0]) for r in rows[1:]]
    leaves = [int(r[1]) for r in rows[1:]]
    assert alphas[0] == 0.0 and alphas == sorted(alphas)
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
    assert all(a > b for a, b in zip(leaves, leaves[1:]))
    assert all(r[2] == r[3] == r[4] == "" for r in rows[1:])  # no features given
    assert (tmp_path / "p.json").exists()
    assert dot.read_text(encoding="utf-8").startswith("digraph pruned_tree {")
    pruned = storage.read_json(tmp_path / "p.json")
    assert pruned["params"]["pruned_leaves"] == out["leaves"]
    assert pruned["params"]["pruned_alpha"] == out["alpha"]


def test_prune_alpha_zero_keeps_tree(trained, tmp_path, capsys):
    out, _ = run(capsys, ["prune", "--model", str(trained["model"]), "--alpha", "0",
                          "--out", str(tmp_path / "p0.json")])
    full = storage.read_json(trained["model"])
    p0 = storage.read_json(tmp_path / "p0.json")
    assert p0["model"] == full["model"]
    assert out["alpha"] == 0.0


def test_prune_path_cv_metrics(small_corpus, trained, tmp_path, capsys):
    path_csv = tmp_path / "path.csv"
    run(capsys, ["prune", "--model", str(trained["model"]), "--alpha", "0",
                 "--out", str(tmp_path / "p.json"), "--path", str(path_csv),
                 "--features", str(small_corpus["features"]),
                 "--labels", str(small_corpus["labels"]), "--folds", "3"])
    with open(path_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    for row in rows:
        for cell in row[2:]:
            assert 0.0 <= float(cell) <= 1.0
    assert float(rows[0][4]) > 0.8  # unpruned tree scores well here


def test_prune_argument_errors(trained, small_corpus, tmp_path, capsys):
    _, err = run(capsys, ["prune", "--model", str(trained["model"]),
                          "--out", str(tmp_path / "p.json")], code=2)
    assert "--target-leaves or --alpha" in err["error"]["message"]
    lr_path = tmp_path / "lr.json"
    run(capsys, ["train", "--features", str(small_corpus["features"]),
                 "--labels", str(small_corpus["labels"]), "--model", "lr",
                 "--l2", "1.0", "--out", str(lr_path)])
    _, err = run(capsys, ["prune", "--model", str(lr_path), "--alpha", "0",
                          "--out", str(tmp_path / "p.json")], code=2)
    assert "decision-tree" in err["error"]["message"]
    # the CV flags are refused where they would be ignored, naming the missing flag
    feats, labels = str(small_corpus["features"]), str(small_corpus["labels"])
    path_csv = tmp_path / "path.csv"
    for flags, missing in ((["--path", str(path_csv), "--features", feats], "--labels"),
                           (["--path", str(path_csv), "--labels", labels], "--features"),
                           (["--features", feats, "--labels", labels], "--path")):
        _, err = run(capsys, ["prune", "--model", str(trained["model"]), "--alpha", "0",
                              "--out", str(tmp_path / "p.json"), *flags], code=2)
        assert err["error"]["message"].endswith(f"missing {missing}"), err["error"]["message"]
    assert not (tmp_path / "p.json").exists() and not path_csv.exists()


@pytest.mark.parametrize("flags, message", [
    (["--target-leaves", "3", "--alpha", "0.1"], "--target-leaves and --alpha exclude each other"),
    (["--target-leaves", "0"], "--target-leaves must be at least 1, got 0"),
    (["--alpha", "-1"], "--alpha must be a number >= 0, got -1.0"),
    (["--alpha", "nan"], "--alpha must be a number >= 0, got nan")],
    ids=["both", "target_leaves 0", "alpha -1", "alpha nan"])
def test_prune_bad_target_exit_2(trained, tmp_path, capsys, flags, message):
    _, err = run(capsys, ["prune", "--model", str(trained["model"]), *flags,
                          "--out", str(tmp_path / "p.json")], code=2)
    assert err["error"]["type"] == "InputError" and message in err["error"]["message"]
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("link", [0, 10**6])
@pytest.mark.parametrize("kind", ["dt", "rf"])
def test_tree_nodes_not_in_preorder_exit_2(small_corpus, tmp_path, kind, link):
    """A model file whose node 0 links left to itself or past the node table
    is exit 2 naming the file. The first once looped with growing memory and
    the second was exit 3 on an IndexError, so each runs in a child process
    with a timeout."""
    obj = storage.read_json(MODEL_FILES / f"{kind}_model.json")
    tree = obj["model"]["trees"][1] if kind == "rf" else obj["model"]
    assert tree["nodes"][0]["left"] == 1
    tree["nodes"][0]["left"] = link
    bad = tmp_path / "bad.json"
    storage.write_json(bad, obj)
    if kind == "dt":
        argv = ["prune", "--model", str(bad), "--alpha", "0", "--out", str(tmp_path / "p.json")]
    else:
        argv = ["eval", "--model", str(bad), "--features", str(small_corpus["features"]),
                "--labels", str(small_corpus["labels"]), "--report", str(tmp_path / "r.json")]
    env = {**os.environ, "PYTHONPATH": str(Path(motifscope.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "motifscope", *argv], capture_output=True,
                          text=True, env=env, timeout=20)
    assert proc.returncode == 2, proc.stderr
    message = json.loads(proc.stderr)["error"]["message"]
    assert message.startswith(f"bad model file {bad}: ValueError: "), message
    assert "preorder" in message


def test_signatures_envelope(trained, capsys):
    spec = storage.read_json(trained["signatures"])
    assert spec["format"] == "motifscope-signatures"
    assert spec["mode"] == "M+E" and spec["threshold"] == 0.8
    assert spec["classes"] == GROUPS8
    assert spec["discrepancies"] == []
    assert len(spec["signatures"]) > 0
    for sig in spec["signatures"]:
        assert set(sig) == {"leaf", "group", "probability", "samples",
                            "items", "item_supports", "support"}
        assert sig["group"] in GROUPS8
        assert sig["items"] == sorted(sig["items"])


def test_signatures_file_mode_must_be_a_features_mode(trained, tmp_path):
    spec = storage.read_json(trained["signatures"])
    path = tmp_path / "signatures.json"
    path.write_text(json.dumps({**spec, "mode": "XYZ"}), encoding="utf-8")
    message = f"bad signatures file {path}: 'mode' must be one of ['M', 'E', 'M+E', 'MxE'], got 'XYZ'"
    for mode in (None, "M+E"):
        with pytest.raises(ingest.InputError, match=f"^{re.escape(message)}$"):
            cli.load_signatures(path, mode)
    path.write_text(json.dumps({**spec, "mode": None}), encoding="utf-8")
    assert cli.load_signatures(path, "MxE") == cli.load_signatures(trained["signatures"], "M+E")


def test_match_jsonl(small_corpus, trained):
    lines = [json.loads(l) for l in trained["matches"].read_text(encoding="utf-8").splitlines()
             if l.strip()]
    assert len(lines) == 2000
    labels = storage.read_labels(small_corpus["labels"])
    matched = 0
    for row in lines:
        assert set(row) == {"tx_hash", "ego", "leaves", "groups"}
        assert (row["tx_hash"], row["ego"]) in labels
        assert row["leaves"] == sorted(row["leaves"])
        assert row["groups"] == sorted(set(row["groups"]))
        matched += bool(row["leaves"])
    assert matched / len(lines) > 0.8  # clean corpus, most transactions match


def _signature(leaf, group, items):
    return LeafSignature(leaf_id=leaf, group=group, probability=1.0, samples=1, items=items,
                         item_supports={}, support=1.0)


def test_match_features_once_per_key_set_equals_oracle(tmp_path, monkeypatch):
    signatures = [_signature(3, "Swap", ["a", "b"]), _signature(1, "Swap", ["a"]),
                  _signature(7, "Deposit", ["c"]), _signature(7, "Repay", ["d"]),
                  _signature(9, "Borrow", [])]
    rows = [
        {"a": 1, "b": 2},
        {"b": 5, "a": 1},            # the same key set, reordered
        {"a": 1, "b": 2},            # repeated
        {"b": 2, "a": 1},            # repeated, keys reordered: the same distinct row
        {"a": 1, "b": 0, "c": 3},    # a zero count is an absent key
        {"a": 1, "b": 1, "c": 3},    # the same keys as the row above, another present set
        {"a": 2, "c": 1},            # the same present set as the row above
        {"b": 1},
        {"d": 1},                    # leaf 7 again, under another group
        {"c": 1, "d": 2},
        {},
        {"z": 0},
    ] + [{f"k{i}": 1, "c": i} for i in range(5)]  # all distinct
    features = tmp_path / "features.jsonl"
    with open(features, "w", encoding="utf-8") as fh:
        for i, feats in enumerate(rows):
            fh.write(json.dumps({"tx_hash": f"0xt\u00e9{i}", "ego": f"0xe{i % 3}",
                                 "features": feats}) + "\n")
    calls = []
    real = cli.match_signatures

    def counting(feats, sigs):
        calls.append(feats)
        return real(feats, sigs)

    monkeypatch.setattr(cli, "match_signatures", counting)
    out = tmp_path / "matches.jsonl"
    table = storage.read_features(features)
    pairs = cli.match_features(table, signatures, out)
    expected_lines, expected_pairs = [], []
    for i, feats in enumerate(rows):
        leaves, groups = brute_force_match(feats, signatures)
        expected_lines.append(storage.dumps({"tx_hash": f"0xt\u00e9{i}", "ego": f"0xe{i % 3}",
                                             "leaves": leaves, "groups": groups}) + "\n")
        expected_pairs.append((f"0xe{i % 3}", tuple(leaves)))
    assert out.read_text(encoding="utf-8").splitlines(keepends=True) == expected_lines
    assert pairs == expected_pairs
    # one call per distinct row: the same keys and counts in any key order
    distinct = {tuple(sorted(feats.items())) for feats in rows}
    assert len(calls) == table.n_distinct == len(distinct) < len(rows)


def test_match_failure_keeps_previous_matches(tmp_path, small_corpus, trained, monkeypatch):
    out = tmp_path / "matches.jsonl"
    out.write_text("previous\n", encoding="utf-8")
    calls = []
    real = cli.match_signatures

    def failing(feats, sigs):
        calls.append(1)
        if len(calls) == 3:  # after lines for the first two key sets are written
            raise RuntimeError("matcher failed")
        return real(feats, sigs)

    monkeypatch.setattr(cli, "match_signatures", failing)
    with pytest.raises(RuntimeError, match="matcher failed"):
        cli.match_features(storage.read_features(small_corpus["features"]),
                           cli.load_signatures(trained["signatures"], "M+E"), out)
    assert out.read_text(encoding="utf-8") == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["matches.jsonl"]


def test_profile_csv(trained):
    with open(trained["profiles"], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[:2] == ["account", "total"]
    assert all(col.startswith("leaf_") for col in header[2:])
    for row in rows[1:]:
        counts = [int(c) for c in row[2:]]
        assert int(row[1]) == sum(counts)


def test_cluster_outputs(tmp_path, capsys):
    profiles = tmp_path / "profiles.csv"
    with open(profiles, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["account", "total", "leaf_0", "leaf_1"])
        for i in range(4):
            writer.writerow([f"0xa{i}", 20, 20, 0])
        for i in range(4, 8):
            writer.writerow([f"0xa{i}", 20, 0, 20])
    out, _ = run(capsys, ["cluster", "--profiles", str(profiles),
                          "--out", str(tmp_path / "clusters.json"),
                          "--plotdata", str(tmp_path / "plot")])
    result = storage.read_json(tmp_path / "clusters.json")
    assert result["chosen_k"] == 2 == out["chosen_k"]
    assert len(result["assignments"]) == 8
    plot = tmp_path / "plot"
    clustermap = storage.read_json(plot / "clustermap.json")
    assert sorted(clustermap["row_order"]) == [f"0xa{i}" for i in range(8)]
    with open(plot / "zscores.csv", newline="", encoding="utf-8") as fh:
        zrows = list(csv.reader(fh))
    assert len(zrows) == 9  # header + 8 accounts
    with open(plot / "clusters.csv", newline="", encoding="utf-8") as fh:
        crows = list(csv.reader(fh))
    assert crows[0] == ["account", "cluster"]
    assert len(crows) == 9


def test_cluster_needs_two_accounts(tmp_path, capsys):
    profiles = tmp_path / "profiles.csv"
    with open(profiles, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["account", "total", "leaf_0"])
        writer.writerow(["0xa0", 30, 30])
        writer.writerow(["0xa1", 2, 2])  # filtered by min-matches 10
    with pytest.warns(UserWarning, match=r"excluded 1 account\(s\) with fewer than 10"):
        _, err = run(capsys, ["cluster", "--profiles", str(profiles),
                              "--out", str(tmp_path / "c.json")], code=2)
    assert "at least 2 accounts" in err["error"]["message"]


def test_accounts_above_the_cluster_cap(tmp_path, small_corpus, pipeline_run, monkeypatch,
                                        capsys):
    """Above MAX_CLUSTER_ACCOUNTS accounts, cluster exits 2 naming the count
    and the cap, and the pipeline skips its cluster stage with a note."""
    accounts = len(storage.read_json(pipeline_run / "clusters.json")["assignments"])
    cluster = ["cluster", "--profiles", str(pipeline_run / "profiles.csv"), "--min-matches", "1",
               "--out", str(tmp_path / "c.json")]
    monkeypatch.setattr(cli, "MAX_CLUSTER_ACCOUNTS", accounts - 1)
    _, err = run(capsys, cluster, code=2)
    assert err["error"]["message"] == (f"clustering {accounts} accounts exceeds the cap of "
                                       f"{accounts - 1} accounts")
    assert not (tmp_path / "c.json").exists()
    out = tmp_path / "run"
    run(capsys, ["pipeline", "--transfers", str(small_corpus["transfers"]),
                 "--tokens", str(small_corpus["tokens"]),
                 "--accounts", str(small_corpus["accounts"]),
                 "--methods", str(small_corpus["methods"]), "--out", str(out),
                 "--model", "dt", "--seed", "5", "--min-matches", "1"])
    manifest = storage.read_json(out / "manifest.json")
    assert manifest["stages"] == ["ingest", "featurize", "train", "eval", "prune",
                                  "signatures", "match", "profile"]
    assert (f"clustering skipped: {accounts} account(s) after the min-matches filter "
            f"(need 2 to {accounts - 1})") in manifest["notes"]
    assert not (out / "clusters.json").exists()
    monkeypatch.setattr(cli, "MAX_CLUSTER_ACCOUNTS", accounts)  # at the cap it clusters
    run(capsys, cluster)
    assert storage.read_json(tmp_path / "c.json") == storage.read_json(pipeline_run / "clusters.json")


def test_profile_rejects_bad_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n", encoding="utf-8")
    _, err = run(capsys, ["cluster", "--profiles", str(bad),
                          "--out", str(tmp_path / "c.json")], code=2)
    assert err["error"]["type"] == "InputError"


# ---------------------------------------------------------------------------
# synth command
# ---------------------------------------------------------------------------

def test_synth_cli(tmp_path, capsys):
    out, _ = run(capsys, ["synth", "--n", "120", "--out", str(tmp_path / "c"),
                          "--skew", "uniform", "--seed", "3"])
    assert out["transactions"] == 120
    assert out["transfers"] >= 120
    assert sum(out["groups"].values()) == 120
    assert (tmp_path / "c" / "transfers.csv").exists()


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_pipeline_config_round_trip():
    cfg = PipelineConfig(transfers="t.csv", tokens="k.json", accounts="a.json",
                         out="run", seed=7, model="lr")
    clone = PipelineConfig.from_json(cfg.to_json())
    assert clone == cfg
    with pytest.raises(ingest.InputError):
        PipelineConfig.from_json({"bogus_key": 1})


def test_pipeline_parser_has_a_flag_per_config_field():
    """cmd_pipeline overrides every PipelineConfig field whose flag is passed,
    so each field needs a flag of its name that defaults to None."""
    parser = build_parser()
    fields = dataclasses.fields(PipelineConfig)
    defaults = vars(parser.parse_args(["pipeline"]))
    assert {f.name: defaults.get(f.name, "no flag") for f in fields} == {f.name: None for f in fields}
    for f in fields:
        value = "1" if f.default is None else str(f.default)
        args = parser.parse_args(["pipeline", f"--{f.name.replace('_', '-')}", value])
        assert getattr(args, f.name) is not None, f.name


def test_pipeline_requires_inputs(tmp_path, capsys):
    _, err = run(capsys, ["pipeline", "--out", str(tmp_path / "run")], code=2)
    assert "missing" in err["error"]["message"]



def test_pipeline_class_with_fewer_transactions_than_folds_fails_before_train(tmp_path, capsys):
    """A labelled class with fewer transactions than --folds stops the run at
    exit 2 in the train stage, naming the class, before a model is written."""
    raw, out = tmp_path / "raw", tmp_path / "run"
    assert main(["synth", "--n", "1500", "--out", str(raw), "--seed", "0"]) == 0
    capsys.readouterr()
    _, err = run(capsys, [
        "pipeline", "--transfers", str(raw / "transfers.csv"), "--tokens", str(raw / "tokens.json"),
        "--accounts", str(raw / "accounts.json"), "--methods", str(raw / "methods.csv"),
        "--out", str(out), "--folds", "3",
    ], code=2)
    assert err["error"]["stage"] == "train" and err["error"]["type"] == "InputError"
    match = re.fullmatch(r"class '(\w+)' has ([0-2]) transactions but --folds is 3; "
                         r"every fold needs one of each class", err["error"]["message"])
    assert match and match[1] in GROUPS8
    assert not (out / "model.json").exists() and not (out / "eval_report.json").exists()
    assert storage.read_json(out / "manifest.json")["stages"] == ["ingest", "featurize"]

@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory, small_corpus):
    out = tmp_path_factory.mktemp("pipe") / "run"
    rc = main([
        "pipeline", "--transfers", str(small_corpus["transfers"]),
        "--tokens", str(small_corpus["tokens"]), "--accounts", str(small_corpus["accounts"]),
        "--methods", str(small_corpus["methods"]), "--out", str(out),
        "--model", "dt", "--seed", "5", "--min-matches", "1",
    ])
    assert rc == 0
    return out


def test_pipeline_manifest(pipeline_run):
    manifest = storage.read_json(pipeline_run / "manifest.json")
    assert manifest["tool"] == "motifscope"
    assert set(manifest) >= {"tool", "version", "python", "numpy", "scipy", "seed",
                             "config", "inputs", "stages", "artifacts", "notes"}
    assert manifest["seed"] == 5
    assert manifest["stages"] == ["ingest", "featurize", "train", "eval", "prune",
                                  "signatures", "match", "profile", "cluster"]
    assert set(manifest["inputs"]) == {"transfers", "tokens", "accounts", "methods"}
    assert any("alpha=0" in note for note in manifest["notes"])
    assert "manifest.json" not in manifest["artifacts"]
    for rel, digest in manifest["artifacts"].items():
        assert len(digest) == 64
        assert (pipeline_run / rel).exists()
    expected = {"store/transactions.jsonl", "features.jsonl", "model.json",
                "eval_report.json", "pruned.json", "ccp_path.csv", "signatures.json",
                "matches.jsonl", "profiles.csv", "clusters.json"}
    assert expected <= set(manifest["artifacts"])


def test_pipeline_train_dt_for_lr(tmp_path, small_corpus, capsys):
    out = tmp_path / "runlr"
    json_out, _ = run(capsys, [
        "pipeline", "--transfers", str(small_corpus["transfers"]),
        "--tokens", str(small_corpus["tokens"]), "--accounts", str(small_corpus["accounts"]),
        "--methods", str(small_corpus["methods"]), "--out", str(out),
        "--model", "lr", "--folds", "3", "--min-matches", "1",
    ])
    assert "train_dt" in json_out["stages"]
    assert json_out["stages"].index("train_dt") == json_out["stages"].index("eval") + 1
    assert (out / "model_dt.json").exists()
    assert storage.read_json(out / "model.json")["kind"] == "lr"


def test_pipeline_match_only(tmp_path, small_corpus, pipeline_run, capsys):
    out = tmp_path / "runmatch"
    json_out, _ = run(capsys, [
        "pipeline", "--transfers", str(small_corpus["transfers"]),
        "--tokens", str(small_corpus["tokens"]), "--accounts", str(small_corpus["accounts"]),
        "--signatures", str(pipeline_run / "signatures.json"), "--out", str(out),
        "--min-matches", "1",
    ])
    manifest = storage.read_json(out / "manifest.json")
    assert "train" not in manifest["stages"] and "signatures" not in manifest["stages"]
    assert manifest["stages"][:3] == ["ingest", "featurize", "match"]
    assert any("match-only" in note for note in manifest["notes"])
    assert "signatures" in manifest["inputs"]


def test_pipeline_profiles_and_clusters_from_memory(tmp_path, small_corpus, pipeline_run,
                                                   monkeypatch, capsys):
    """The pipeline neither reads matches.jsonl back nor builds an n x n
    distance matrix, and writes what the file-based subcommands write."""
    def refuse(*args, **kwargs):
        raise AssertionError("re-parse or n x n matrix in the pipeline")

    monkeypatch.setattr(storage, "read_matches", refuse)
    monkeypatch.setattr(profile, "pairwise_distances", refuse)
    monkeypatch.setattr(profile, "pdist", refuse)
    out = tmp_path / "run"
    run(capsys, [
        "pipeline", "--transfers", str(small_corpus["transfers"]),
        "--tokens", str(small_corpus["tokens"]), "--accounts", str(small_corpus["accounts"]),
        "--methods", str(small_corpus["methods"]), "--out", str(out),
        "--model", "dt", "--seed", "5", "--min-matches", "1",
    ])
    artifacts = storage.read_json(out / "manifest.json")["artifacts"]
    assert artifacts == storage.read_json(pipeline_run / "manifest.json")["artifacts"]
    assert "clusters.json" in artifacts and "plotdata/clustermap.json" in artifacts
    monkeypatch.undo()
    chain = tmp_path / "chain"
    run(capsys, ["profile", "--matches", str(out / "matches.jsonl"),
                 "--out", str(tmp_path / "profiles.csv")])
    run(capsys, ["cluster", "--profiles", str(tmp_path / "profiles.csv"), "--min-matches", "1",
                 "--out", str(tmp_path / "clusters.json"), "--plotdata", str(chain)])
    assert (tmp_path / "profiles.csv").read_bytes() == (out / "profiles.csv").read_bytes()
    assert (tmp_path / "clusters.json").read_bytes() == (out / "clusters.json").read_bytes()
    for path in chain.iterdir():
        assert path.read_bytes() == (out / "plotdata" / path.name).read_bytes(), path.name


def test_pipeline_match_only_requires_signatures(tmp_path, small_corpus, capsys):
    _, err = run(capsys, [
        "pipeline", "--transfers", str(small_corpus["transfers"]),
        "--tokens", str(small_corpus["tokens"]), "--accounts", str(small_corpus["accounts"]),
        "--out", str(tmp_path / "run"),
    ], code=2)
    assert "nothing to match" in err["error"]["message"]


def test_pipeline_config_file_with_override(tmp_path, small_corpus, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bad_key": True}), encoding="utf-8")
    _, err = run(capsys, ["pipeline", "--config", str(cfg_path),
                          "--out", str(tmp_path / "run")], code=2)
    assert f"bad pipeline config {cfg_path}: unknown pipeline config keys: ['bad_key']" \
        == err["error"]["message"]


def test_pipeline_timings(pipeline_run):
    manifest = storage.read_json(pipeline_run / "manifest.json")
    timings = manifest["timings"]
    assert set(timings) == set(manifest["stages"]) | {"total"}
    assert all(timings[stage] >= 0.0 for stage in manifest["stages"])
    assert sum(timings[stage] for stage in manifest["stages"]) <= timings["total"]


def test_pipeline_records_stage_rss(pipeline_run):
    manifest = storage.read_json(pipeline_run / "manifest.json")
    rss = manifest["peak_rss_mb"]
    assert set(rss) == set(manifest["stages"])
    marks = [rss[stage] for stage in manifest["stages"]]
    assert marks[0] > 0 and marks == sorted(marks)  # a high-water mark never falls
    assert 0 < manifest["rss_mb_start"] <= marks[0]


def test_scipy_optimize_loads_only_for_a_logistic_fit(tmp_path, small_corpus):
    """Importing the CLI and running a dt or an rf pipeline leave
    scipy.optimize unloaded; a logistic fit loads it."""
    code = """if True:
        import sys
        import numpy as np
        from motifscope import cli, models
        assert "scipy.optimize" not in sys.modules, "import motifscope.cli"
        corpus, out = sys.argv[1:]
        for model in ("dt", "rf"):
            cli.run_pipeline(cli.PipelineConfig(
                transfers=f"{corpus}/transfers.csv", tokens=f"{corpus}/tokens.json",
                accounts=f"{corpus}/accounts.json", methods=f"{corpus}/methods.csv",
                model=model, folds=3, trees=2, min_matches=1, out=f"{out}/{model}"))
            assert "scipy.optimize" not in sys.modules, model
        models.LogisticModel.fit(np.eye(2), np.array([0, 1]))
        assert "scipy.optimize" in sys.modules, "lr"
    """
    src = str(Path(motifscope.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, str(small_corpus["raw"]), str(tmp_path)],
                          capture_output=True, text=True, cwd=src)
    assert proc.returncode == 0, proc.stderr


def test_pipeline_records_featurize_counters(pipeline_run):
    manifest = storage.read_json(pipeline_run / "manifest.json")
    lines = [json.loads(line) for line in
             (pipeline_run / "features.jsonl").read_text(encoding="utf-8").splitlines()]
    distinct = {tuple(sorted(obj["features"].items())) for obj in lines}
    labels = storage.read_labels(pipeline_run / "store" / storage.LABELS_FILE)
    groups = [labels.get((obj["tx_hash"], obj["ego"])) for obj in lines]
    pairs = [(tuple(sorted(obj["features"].items())), group)
             for obj, group in zip(lines, groups) if group in cli.METHOD_GROUPS]
    report = storage.read_json(pipeline_run / "store" / storage.REPORT_FILE)
    off_ego = sum(ego not in row[:2] for _, ego, _, rows in stored_transactions(
        pipeline_run / "store") for row in rows)
    assert manifest["counters"] == {
        "ingest": {"transactions": report["transactions"], "kept": report["transfers_kept"],
                   "rejected": report["rejected"],
                   "spam_filtered": report["transactions_spam_filtered"]},
        "featurize": {"rows": 2000, "distinct_rows": len(distinct),
                      "oversize": sum(motif.OVERSIZE_KEY in obj["features"] for obj in lines),
                      "rejected_transfers": off_ego},
        "train": {"rows": len(pairs), "distinct_pairs": len(set(pairs))},
    }
    assert len(lines) == 2000 and len(distinct) < 2000
    assert len(set(pairs)) < len(pairs) <= 2000
    assert report["transactions"] == 2000 and report["transfers_kept"] > 2000


def test_pipeline_missing_input_exit_2(tmp_path, small_corpus, capsys):
    missing = tmp_path / "nowhere" / "transfers.csv"
    _, err = run(capsys, [
        "pipeline", "--transfers", str(missing), "--tokens", str(small_corpus["tokens"]),
        "--accounts", str(small_corpus["accounts"]), "--methods", str(small_corpus["methods"]),
        "--out", str(tmp_path / "run"),
    ], code=2)
    assert err["error"]["type"] == "InputError"
    assert f"cannot read transfers file {missing}" in err["error"]["message"]
    assert not (tmp_path / "run").exists()


def test_pipeline_refuses_an_out_that_is_not_empty(tmp_path, small_corpus, capsys):
    """An out holding an earlier run's file, or an out that is a file, is
    refused at exit 2 before any input is read or any file is written; an
    empty out is used."""
    stale = tmp_path / "run" / "model_lr.json"
    stale.parent.mkdir()
    stale.write_text("{}", encoding="utf-8")
    missing = tmp_path / "missing.csv"
    argv = ["pipeline", "--transfers", str(missing), "--tokens", str(small_corpus["tokens"]),
            "--accounts", str(small_corpus["accounts"]), "--out"]
    for out in (stale.parent, stale):
        _, err = run(capsys, [*argv, str(out)], code=2)
        assert err["error"] == {"type": "InputError", "stage": "pipeline", "message":
                                f"pipeline out {out} exists and is not an empty directory"}
    assert [p.name for p in stale.parent.iterdir()] == ["model_lr.json"]
    assert stale.read_text(encoding="utf-8") == "{}"
    (tmp_path / "empty").mkdir()
    _, err = run(capsys, [*argv, str(tmp_path / "empty")], code=2)
    assert f"cannot read transfers file {missing}" in err["error"]["message"]


@pytest.mark.parametrize("key,value", [("folds", "3"), ("threads", True), ("l2", "1"),
                                       ("mode", 3), ("target_leaves", 2.5), ("seed", None),
                                       ("mode", "XYZ"), ("model", "svm"), ("linkage", "single"),
                                       ("target_leaves", 0), ("alpha", -1.0), ("folds", 1),
                                       ("threads", 0), ("min_matches", -1), ("max_nodes", 0),
                                       ("seed", -1)])
def test_pipeline_config_value_types_exit_2(tmp_path, small_corpus, capsys, key, value):
    config = {"transfers": str(small_corpus["transfers"]), "tokens": str(small_corpus["tokens"]),
              "accounts": str(small_corpus["accounts"]), "methods": str(small_corpus["methods"]),
              "out": str(tmp_path / "run"), key: value}
    (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    _, err = run(capsys, ["pipeline", "--config", str(tmp_path / "cfg.json")], code=2)
    assert err["error"]["type"] == "InputError"
    assert f"pipeline config {key!r} must be" in err["error"]["message"]
    assert not (tmp_path / "run").exists()  # rejected before ingest


def test_pipeline_one_pruning_target_exit_2(tmp_path, small_corpus, capsys):
    """A target leaf count and an alpha from flags are refused before ingest."""
    _, err = run(capsys, [
        "pipeline", "--transfers", str(small_corpus["transfers"]),
        "--tokens", str(small_corpus["tokens"]), "--accounts", str(small_corpus["accounts"]),
        "--methods", str(small_corpus["methods"]), "--out", str(tmp_path / "run"),
        "--target-leaves", "3", "--alpha", "0.1"], code=2)
    assert err["error"]["message"] == ("pipeline config 'target_leaves' and pipeline config "
                                       "'alpha' exclude each other; set one")
    assert not (tmp_path / "run").exists()


def test_pipeline_config_accepts_ints_for_floats():
    PipelineConfig(transfers="t", tokens="k", accounts="a", out="o", l2=1, threshold=0,
                   alpha=0, target_leaves=None).check()


@pytest.mark.parametrize("threads", [1, 2])
def test_pipeline_failure_manifest(tmp_path, small_corpus, pipeline_run, monkeypatch, capsys,
                                   threads):
    def failing(feats, sigs):
        raise RuntimeError("matcher failed")

    monkeypatch.setattr(cli, "match_signatures", failing)
    out = tmp_path / "run"
    _, err = run(capsys, [
        "pipeline", "--transfers", str(small_corpus["transfers"]),
        "--tokens", str(small_corpus["tokens"]), "--accounts", str(small_corpus["accounts"]),
        "--methods", str(small_corpus["methods"]), "--out", str(out),
        "--model", "dt", "--seed", "5", "--min-matches", "1", "--threads", str(threads),
    ], code=3)
    assert err["error"]["stage"] == "match"
    manifest = storage.read_json(out / "manifest.json")
    assert manifest["failed_stage"] == "match"
    assert manifest["error"] == {"type": "RuntimeError", "message": "matcher failed"}
    assert manifest["stages"] == ["ingest", "featurize", "train", "eval", "prune", "signatures"]
    assert set(manifest["timings"]) == set(manifest["peak_rss_mb"]) == set(manifest["stages"])
    # what the completed stages wrote is intact, the failed stage left nothing
    complete = storage.read_json(pipeline_run / "manifest.json")["artifacts"]
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                     if p.is_file() and p.name != "manifest.json")
    assert written and not any(name.endswith(".tmp") for name in written)
    assert {"store/transactions.jsonl", "features.jsonl"} <= set(written)
    assert "matches.jsonl" not in written
    for name in written:
        assert storage.sha256_file(out / name) == complete[name], name
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("caller_gc", [True, False], ids=["gc-on", "gc-off"])
def test_pipeline_pauses_the_collector_for_the_whole_run(tmp_path, small_corpus, monkeypatch,
                                                         capsys, caller_gc):
    """Ingest, featurize, match and the forked store writer run with the
    collector paused, and the run leaves it as the caller had it: after a
    run, and after a run whose match stage fails."""
    seen, writer_log = [], tmp_path / "writer_gc"

    def recording(name, fn):
        def recorded(*args, **kwargs):
            seen.append((name, gc.isenabled()))
            return fn(*args, **kwargs)
        return recorded

    def write_store(*args, **kwargs):  # runs in the writer process at threads 2
        with open(writer_log, "a", encoding="utf-8") as fh:
            fh.write(f"{gc.isenabled()}\n")
        return storage_write_store(*args, **kwargs)

    def failing(*args, **kwargs):
        raise RuntimeError("matcher failed")

    storage_write_store = storage.write_store
    monkeypatch.setattr(storage, "write_store", write_store)
    for name in ("ingest_to_store", "featurize_store", "match_features"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    was = gc.isenabled()
    (gc.enable if caller_gc else gc.disable)()
    try:
        run(capsys, _pipeline_argv(small_corpus, tmp_path / "ok", 2))
        assert gc.isenabled() is caller_gc
        monkeypatch.setattr(cli, "match_features", recording("match_features", failing))
        run(capsys, _pipeline_argv(small_corpus, tmp_path / "failed", 2), code=3)
        assert gc.isenabled() is caller_gc
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [(name, False) for name in ("ingest_to_store", "featurize_store",
                                               "match_features")] * 2
    assert writer_log.read_text(encoding="utf-8") == "False\nFalse\n"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kind", ["dt", "lr", "rf", "match-only"])
def test_pipeline_builds_no_reference_cycles(tmp_path, small_corpus, pipeline_run, kind):
    """What pausing the collector for a whole run rests on: the run leaves
    nothing that only a collection could free."""
    cfg = PipelineConfig(transfers=str(small_corpus["transfers"]),
                         tokens=str(small_corpus["tokens"]),
                         accounts=str(small_corpus["accounts"]), out=str(tmp_path / "run"),
                         threads=2, folds=3, trees=5, min_matches=1)
    if kind == "match-only":
        cfg.signatures = str(pipeline_run / "signatures.json")
    else:
        cfg.methods, cfg.model = str(small_corpus["methods"]), kind
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run_pipeline(cfg)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def _pipeline_argv(small_corpus, out, threads, signatures=None):
    """The pipeline_run command, or a match-only run against `signatures`, at `threads`."""
    argv = ["pipeline", "--transfers", str(small_corpus["transfers"]),
            "--tokens", str(small_corpus["tokens"]), "--accounts", str(small_corpus["accounts"]),
            "--out", str(out), "--threads", str(threads), "--min-matches", "1"]
    if signatures:
        return argv + ["--signatures", str(signatures)]
    return argv + ["--methods", str(small_corpus["methods"]), "--model", "dt", "--seed", "5"]


@pytest.mark.parametrize("match_only", [False, True], ids=["labelled", "match-only"])
def test_pipeline_writers_write_the_bytes_of_inline_writes(tmp_path, small_corpus, pipeline_run,
                                                           capsys, match_only):
    """At threads 2 the store, features.jsonl and matches.jsonl are written in
    writer processes; every artifact digest is the one of threads 1, and the
    manifest records each write's stage, seconds and where it ran."""
    signatures = pipeline_run / "signatures.json" if match_only else None
    manifests = []
    for threads in (1, 2):
        out = tmp_path / f"run{threads}"
        run(capsys, _pipeline_argv(small_corpus, out, threads, signatures))
        manifests.append(storage.read_json(out / "manifest.json"))
        assert multiprocessing.active_children() == []
    inline, background = manifests
    assert inline["artifacts"] == background["artifacts"]
    assert {"store/transactions.jsonl", "store/labels.csv", "store/ingest_report.json",
            "features.jsonl", "matches.jsonl"} <= set(inline["artifacts"])
    if not match_only:
        assert inline["artifacts"] == storage.read_json(pipeline_run / "manifest.json")["artifacts"]
    for manifest, in_writer in zip(manifests, (False, True)):
        writes = manifest["writes"]
        assert [(w["stage"], w["inline"]) for w in writes] == [
            (stage, not in_writer) for stage in ("ingest", "featurize", "match")]
        assert all(type(w["seconds"]) is float and w["seconds"] >= 0 for w in writes)
        # the writes stay outside the digests and the stage keys
        assert set(manifest["timings"]) == set(manifest["stages"]) | {"total"}
        assert set(manifest["peak_rss_mb"]) == set(manifest["stages"])


@pytest.mark.parametrize("threads", [1, 2])
def test_manifest_digests_are_the_files_digests(tmp_path, small_corpus, monkeypatch, capsys,
                                                threads):
    """Every artifact has a manifest digest, and each is storage.sha256_file
    of its file. At threads 2 the writer processes hash the store,
    features.jsonl and matches.jsonl, so the run reads none of them back."""
    read_back = []
    sha256_file = storage.sha256_file

    def recording(path):
        read_back.append(os.path.relpath(path, tmp_path / "run"))
        return sha256_file(path)

    monkeypatch.setattr(storage, "sha256_file", recording)
    run(capsys, _pipeline_argv(small_corpus, tmp_path / "run", threads))
    out = tmp_path / "run"
    artifacts = storage.read_json(out / "manifest.json")["artifacts"]
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                   if p.is_file() and p.name != "manifest.json")
    assert sorted(artifacts) == files and len(files) > 10
    for name in files:
        assert artifacts[name] == sha256_file(out / name), name
    in_writers = {"store/transactions.jsonl", "store/labels.csv", "store/ingest_report.json",
                  "features.jsonl", "matches.jsonl"}
    assert set(read_back) & in_writers == (set() if threads == 2 else in_writers)


def _leave_a_tmp_then(error):
    """A stand-in for storage.write_rows that starts its file, then raises `error`."""
    def write_rows(path, table, fields):
        with storage.replacing(path) as (tmp,):
            Path(tmp).write_text("a partial line", encoding="utf-8")
            raise error
    return write_rows


@pytest.mark.parametrize("threads", [1, 2])
def test_failed_write_fails_the_stage_that_submitted_it(tmp_path, small_corpus, monkeypatch,
                                                        capsys, threads):
    """A write that raises, inline or in a writer process, exits 3 as its
    stage's failure with the write's error, leaves no .tmp file and no
    process behind."""
    monkeypatch.setattr(storage, "write_rows", _leave_a_tmp_then(OSError(28, "disk full")))
    out = tmp_path / "run"
    _, err = run(capsys, _pipeline_argv(small_corpus, out, threads), code=3)
    assert err["error"] == {"stage": "featurize", "type": "OSError",
                            "message": "[Errno 28] disk full"}
    manifest = storage.read_json(out / "manifest.json")
    assert manifest["failed_stage"] == "featurize"
    assert manifest["error"] == {"type": "OSError", "message": "[Errno 28] disk full"}
    assert manifest["stages"] == ["ingest"]
    assert set(manifest["timings"]) == set(manifest["peak_rss_mb"]) == {"ingest"}
    assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]
    assert not (out / "features.jsonl").exists() and (out / "store" / storage.STORE_FILE).exists()
    assert multiprocessing.active_children() == []


def test_interrupted_run_terminates_its_writers(tmp_path, small_corpus, monkeypatch, capsys):
    """An interrupt ends the writes still running, which remove their .tmp files."""
    def slow_store(store_dir, transactions, report=None):
        os.makedirs(store_dir, exist_ok=True)
        with storage.replacing(Path(store_dir) / storage.STORE_FILE) as (tmp,):
            Path(tmp).write_text("a partial line", encoding="utf-8")
            time.sleep(60)

    def interrupt(feats, sigs):
        raise KeyboardInterrupt

    monkeypatch.setattr(storage, "write_store", slow_store)
    monkeypatch.setattr(cli, "match_signatures", interrupt)
    out = tmp_path / "run"
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(_pipeline_argv(small_corpus, out, 2))
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []
    assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]
    assert not (out / "store" / storage.STORE_FILE).exists()


def test_pipeline_input_error_failure_manifest(tmp_path, capsys):
    root = write_mini_corpus(tmp_path / "raw")
    (root / "tokens.json").write_text('[{"contract": "0xt1", "category": "Bogus"}]',
                                      encoding="utf-8")
    run(capsys, ["pipeline", "--transfers", str(root / "transfers.csv"),
                 "--tokens", str(root / "tokens.json"), "--accounts", str(root / "accounts.json"),
                 "--methods", str(root / "methods.csv"), "--out", str(tmp_path / "run")], code=2)
    manifest = storage.read_json(tmp_path / "run" / "manifest.json")
    assert manifest["failed_stage"] == "ingest" and manifest["stages"] == []
    assert manifest["error"]["type"] == "InputError"
    assert "Bogus" in manifest["error"]["message"]


def test_pipeline_reads_back_neither_store_nor_features(tmp_path, small_corpus, pipeline_run,
                                                       monkeypatch, capsys):
    """Featurize works on ingest's transactions and train and match on its
    table, with the same artifacts as the file-based stages."""
    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline read back an artifact")

    for name in ("decode_lines", "read_store", "read_features"):
        monkeypatch.setattr(storage, name, refuse)
    out = tmp_path / "run"
    run(capsys, [
        "pipeline", "--transfers", str(small_corpus["transfers"]),
        "--tokens", str(small_corpus["tokens"]), "--accounts", str(small_corpus["accounts"]),
        "--methods", str(small_corpus["methods"]), "--out", str(out),
        "--model", "dt", "--seed", "5", "--min-matches", "1",
    ])
    artifacts = storage.read_json(out / "manifest.json")["artifacts"]
    assert artifacts == storage.read_json(pipeline_run / "manifest.json")["artifacts"]


def test_pipeline_takes_labels_from_ingest(tmp_path, small_corpus, pipeline_run, monkeypatch,
                                           capsys):
    """Train labels the table from ingest's map, not from labels.csv read back."""
    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline read labels.csv back")

    monkeypatch.setattr(storage, "read_labels", refuse)
    out = tmp_path / "run"
    run(capsys, [
        "pipeline", "--transfers", str(small_corpus["transfers"]),
        "--tokens", str(small_corpus["tokens"]), "--accounts", str(small_corpus["accounts"]),
        "--methods", str(small_corpus["methods"]), "--out", str(out),
        "--model", "dt", "--seed", "5", "--min-matches", "1",
    ])
    artifacts = storage.read_json(out / "manifest.json")["artifacts"]
    assert artifacts == storage.read_json(pipeline_run / "manifest.json")["artifacts"]


def test_pipeline_input_error_names_stage(tmp_path, capsys):
    root = write_mini_corpus(tmp_path / "raw")
    with open(root / "methods.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("tx_hash", "raw_method"), ("tx1", "frobnicate"),
                                  ("tx2", "frobnicate")])  # no retained group
    _, err = run(capsys, [
        "pipeline", "--transfers", str(root / "transfers.csv"),
        "--tokens", str(root / "tokens.json"), "--accounts", str(root / "accounts.json"),
        "--methods", str(root / "methods.csv"), "--out", str(tmp_path / "run"),
    ], code=2)
    assert err["error"]["stage"] == "train"
    assert err["error"]["type"] == "InputError"
    assert "no feature rows with labels" in err["error"]["message"]


@pytest.mark.parametrize("kind", ["dt", "rf"])
def test_pipeline_matches_subcommand_chain(tmp_path, small_corpus, capsys, kind):
    """The pipeline's in-memory handoff (and, for dt, eval's fold trees reused
    by prune-CV) writes the same bytes as the subcommand chain, which reloads
    every input and refits the fold trees. The subcommands that read the
    pipeline's own model and signatures files write the pipeline's bytes too."""
    out = tmp_path / "run"
    common = ["--seed", "5"]
    run(capsys, [
        "pipeline", "--transfers", str(small_corpus["transfers"]),
        "--tokens", str(small_corpus["tokens"]), "--accounts", str(small_corpus["accounts"]),
        "--methods", str(small_corpus["methods"]), "--out", str(out), "--model", kind,
        "--trees", "3", "--folds", "4", "--min-matches", "1", *common,
    ])
    chain = tmp_path / "chain"
    chain.mkdir()
    data = ["--features", str(out / "features.jsonl"), "--labels", str(out / "store" / "labels.csv")]
    run(capsys, ["train", *data, "--model", kind, "--trees", "3", "--mode", "M+E",
                 "--out", str(chain / "model.json"), *common])
    run(capsys, ["eval", *data, "--model", str(chain / "model.json"), "--folds", "4",
                 "--report", str(chain / "eval_report.json"), *common])
    dt_model = chain / "model.json"
    compared = ["model.json", "eval_report.json", "pruned.json", "ccp_path.csv",
                "signatures.json", "matches.jsonl"]
    if kind != "dt":
        dt_model = chain / "model_dt.json"
        compared.append("model_dt.json")
        run(capsys, ["train", *data, "--model", "dt", "--trees", "3", "--mode", "M+E",
                     "--out", str(dt_model), *common])
    run(capsys, ["prune", *data, "--model", str(dt_model), "--alpha", "0", "--folds", "4",
                 "--out", str(chain / "pruned.json"), "--path", str(chain / "ccp_path.csv"),
                 *common])
    run(capsys, ["signatures", *data, "--model", str(chain / "pruned.json"),
                 "--out", str(chain / "signatures.json")])
    run(capsys, ["match", "--features", str(out / "features.jsonl"),
                 "--signatures", str(chain / "signatures.json"),
                 "--out", str(chain / "matches.jsonl")])
    for name in compared:
        assert (chain / name).read_bytes() == (out / name).read_bytes(), name
    again = tmp_path / "again"
    again.mkdir()
    run(capsys, ["eval", *data, "--model", str(out / "model.json"), "--folds", "4",
                 "--report", str(again / "eval_report.json"), *common])
    run(capsys, ["prune", "--model", str(out / ("model.json" if kind == "dt" else "model_dt.json")),
                 "--alpha", "0", "--out", str(again / "pruned.json")])
    run(capsys, ["signatures", *data, "--model", str(out / "pruned.json"),
                 "--out", str(again / "signatures.json")])
    run(capsys, ["match", "--features", str(out / "features.jsonl"),
                 "--signatures", str(out / "signatures.json"), "--out", str(again / "matches.jsonl")])
    for name in ("eval_report.json", "pruned.json", "signatures.json", "matches.jsonl"):
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("kind", ["dt", "rf"])
def test_pipeline_rank_encodes_features_once(tmp_path, small_corpus, monkeypatch, kind):
    """Train, eval, train_dt and prune-CV fit every tree (forest members and
    fold trees too) from the dataset's one encoding."""
    encoded = []
    real = models.rank_encode

    def counting(X):
        if not isinstance(X, models.RankedMatrix):
            encoded.append(X.shape)
        return real(X)

    monkeypatch.setattr(models, "rank_encode", counting)
    manifest = run_pipeline(PipelineConfig(
        transfers=str(small_corpus["transfers"]), tokens=str(small_corpus["tokens"]),
        accounts=str(small_corpus["accounts"]), methods=str(small_corpus["methods"]),
        out=str(tmp_path / "run"), model=kind, trees=3, folds=4, min_matches=1,
    ))
    assert "prune" in manifest["stages"]
    assert len(encoded) == 1, encoded


def test_removed_flags_are_rejected(capsys):
    """--seed, --threads and --config exist only where a command reads them."""
    parser = build_parser()
    ingest_argv = ["ingest", "--transfers", "t.csv", "--tokens", "t.json", "--accounts", "a.json",
                   "--out", "store"]
    assert parser.parse_args(ingest_argv).func is not None
    for argv in (ingest_argv + ["--threads", "2"], ["stats", "--store", "s", "--seed", "1"],
                 ["match", "--signatures", "s", "--features", "f", "--out", "o", "--config", "c"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def _cli_options() -> dict:
    """Each subcommand's options as [option strings, dest, default, choices,
    help, type name, required], and each pipeline config field's default, as
    JSON reads them back."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        "commands": {name: [[a.option_strings, a.dest, a.default,
                             None if a.choices is None else list(a.choices), a.help,
                             getattr(a.type, "__name__", None), a.required]
                            for a in p._actions if a.option_strings]
                     for name, p in sub.choices.items()},
        "pipeline_config": {f.name: f.default for f in dataclasses.fields(PipelineConfig)},
    }
    return json.loads(json.dumps(options))


def test_cli_options_match_the_committed_list():
    """A flag, default, choice, help text, type, required mark or config field
    added, dropped or changed shows as an edit of tests/data/cli_options.json,
    which holds _cli_options()."""
    committed = json.loads((Path(__file__).parent / "data" / "cli_options.json").read_text(
        encoding="utf-8"))
    assert _cli_options() == committed


def test_write_json_failure_leaves_previous_file(tmp_path):
    path = tmp_path / "model.json"
    storage.write_json(path, {"ok": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        storage.write_json(path, {"bad": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_readme_library_block_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n+```python\n(.*?)```", readme, re.S).group(1)
    synth.generate(synth.load_config(), 40, 3, tmp_path / "corpus")
    methods = tmp_path / "corpus" / "methods.csv"
    header, *lines = methods.read_text(encoding="utf-8").splitlines(keepends=True)
    methods.write_text(header + "".join(lines[5:]), encoding="utf-8")  # 5 unlabelled transactions
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(block, namespace)
    batch, groups = namespace["batch"], namespace["groups"]
    unlabelled = groups.count(None)
    assert len(batch) == 40 and unlabelled >= 5
    assert all(group in GROUPS8 for group in groups if group is not None)
    assert namespace["dataset"].n_rows == len(batch) - unlabelled
    assert transactions_of(namespace["stored"][0]) == transactions_of(batch)
    assert namespace["counts"].items() <= namespace["features"].items()
    entry, pruned = namespace["entry"], namespace["pruned"]
    assert entry in namespace["path"] and entry.alpha <= 0.01
    assert pruned.n_leaves == entry.leaf_count <= namespace["tree"].n_leaves


def _readme_commands():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("motifscope ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 14
    parser = build_parser()
    for argv in commands:
        try:
            args = parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(argv)}")
        assert args.func is not None
