"""Shared fixtures: one small synthetic corpus, ingested and featurized once."""

from __future__ import annotations

import numpy as np
import pytest

from motifscope import learn, storage
from motifscope.cli import main
from motifscope.models import DecisionTree
from motifscope.table import FeatureTable

from oracles import table_rows


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """A 2,000-transaction uniform-skew corpus, ingested store + M+E features.

    Uniform skew keeps every method group large enough for 10-fold CV.
    """
    root = tmp_path_factory.mktemp("smallcorpus")
    raw = root / "raw"
    store = root / "store"
    features = root / "features.jsonl"
    assert main(["synth", "--n", "2000", "--out", str(raw), "--skew", "uniform", "--seed", "11"]) == 0
    assert (
        main(
            [
                "ingest",
                "--transfers", str(raw / "transfers.csv"),
                "--tokens", str(raw / "tokens.json"),
                "--accounts", str(raw / "accounts.json"),
                "--methods", str(raw / "methods.csv"),
                "--out", str(store),
            ]
        )
        == 0
    )
    assert main(["featurize", "--store", str(store), "--mode", "M+E", "--out", str(features)]) == 0
    return {
        "raw": raw,
        "store": store,
        "features": features,
        "labels": store / "labels.csv",
        "transfers": raw / "transfers.csv",
        "tokens": raw / "tokens.json",
        "accounts": raw / "accounts.json",
        "methods": raw / "methods.csv",
    }


@pytest.fixture(scope="session")
def small_dataset(small_corpus) -> learn.Dataset:
    labels = storage.read_labels(small_corpus["labels"])
    rows = [row for row in table_rows(storage.read_features(small_corpus["features"]))
            if row[:2] in labels]
    return learn.build_dataset(FeatureTable.build(*zip(*rows)),
                               [labels[row[:2]] for row in rows])


@pytest.fixture(scope="session")
def small_tree(small_dataset) -> DecisionTree:
    cw = learn.class_weights(small_dataset.y, len(small_dataset.classes))
    return DecisionTree.fit(
        small_dataset.X,
        small_dataset.y,
        cw,
        n_classes=len(small_dataset.classes),
        min_leaf=10,
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
