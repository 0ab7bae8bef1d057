"""Dataset assembly from a feature table's labelled rows, class weighting,
stratified CV, and evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Callable, Optional, Sequence

import numpy as np

from . import models
from .ingest import InputError
from .motif import OOV_KEY
from .table import FeatureTable


@dataclass
class Dataset:
    """Labelled rows over a fixed, lexicographic feature vocabulary, held as
    their distinct (row, class) pairs.

    The vocabulary is closed over the training corpus; the trailing OOV
    column absorbs feature keys unseen at training time so models can score
    transactions from outside the corpus.

    Rows repeat heavily, so the dataset stores the distinct (feature row,
    class) pairs as a small dense matrix, `pairs` with classes `pair_y`, and
    `pair_of`, each row's pair. Every model kind fits on the pairs and a row
    subset's `pair_of` and predicts once per pair, and signatures are mined
    over the pairs with their multiplicities `counts`. `ranked` is the pairs
    rank-encoded (`models.RankedMatrix`), computed once on first use, so
    every tree fitted on folds, bootstrap samples or the whole set indexes
    one encoding. `X`, the row matrix `pairs[pair_of]`, and `y` are expanded
    on first use for code that wants the rows, such as a benchmark gauge.
    """

    pairs: np.ndarray  # (n_pairs, vocabulary) float
    pair_y: np.ndarray  # int64: pair p's class
    pair_of: np.ndarray  # intp: row i is pair pair_of[i]
    classes: list[str]
    vocabulary: list[str]
    tx_hashes: list[str] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return len(self.pair_of)

    @property
    def n_pairs(self) -> int:
        return len(self.pair_y)

    @cached_property
    def X(self) -> np.ndarray:
        return self.pairs[self.pair_of]

    @cached_property
    def y(self) -> np.ndarray:
        return self.pair_y[self.pair_of]

    @cached_property
    def counts(self) -> np.ndarray:
        """Each pair's number of rows."""
        return np.bincount(self.pair_of, minlength=self.n_pairs)

    @cached_property
    def ranked(self) -> models.RankedMatrix:
        return models.rank_encode(self.pairs)

    def predict(self, model, rows) -> np.ndarray:
        """model's predicted class indices for the given rows, made once per
        pair and indexed by pair_of."""
        return model.predict(self.pairs)[self.pair_of[rows]]


def build_dataset(
    table: FeatureTable,
    labels: Sequence[Optional[str]],
    classes: Optional[list[str]] = None,
    vocabulary: Optional[list[str]] = None,
) -> Dataset:
    """Assemble a table's labelled rows, read in place, into a Dataset:
    `labels` holds one label per table row, None for a row that stays out.

    The classes default to the sorted labels; a label outside given classes
    raises InputError. The vocabulary defaults to the sorted keys of the
    distinct rows that kept rows use, plus OOV_KEY. The pairs are filled
    straight from the CSR arrays, once per distinct row: a key outside the
    vocabulary adds its count into the OOV column, in vocabulary order, which
    gives the same row as any other order while each partial sum stays below
    2**53. A pair is a distinct row and a class, in the order of the table's
    (row_of, class), so unlabelled rows may change the pair order; trees,
    forests and signatures do not depend on it, as every sum they take is
    over integer row counts.
    """
    keep = np.array([label is not None for label in labels], dtype=bool)
    names = list(compress(labels, keep))
    if not names:
        raise ValueError("cannot build a dataset from zero labeled rows")
    if classes is None:
        classes = sorted(set(names))
    class_index = {c: i for i, c in enumerate(classes)}
    if unknown := sorted(set(names) - class_index.keys()):
        raise InputError(f"labels {unknown} are not among the classes {classes}")
    row_of = table.row_of[keep].astype(np.int64)
    used = np.bincount(row_of, minlength=table.n_distinct) > 0
    entry_row = np.repeat(np.arange(table.n_distinct), np.diff(table.indptr))
    entries = used[entry_row]
    if vocabulary is None:
        keys = [table.vocabulary[c] for c in np.unique(table.indices[entries]).tolist()]
        vocabulary = [key for key in keys if key != OOV_KEY] + [OOV_KEY]
    index = {key: col for col, key in enumerate(vocabulary)}
    oov = index[OOV_KEY]
    column = np.array([index.get(key, oov) for key in table.vocabulary], dtype=np.intp)
    local = np.cumsum(used) - 1  # a used distinct row's row in `distinct`
    distinct = np.zeros((local[-1] + 1, len(vocabulary)))
    np.add.at(distinct, (local[entry_row[entries]], column[table.indices[entries]]),
              table.counts[entries])
    y = np.array([class_index[name] for name in names], dtype=np.int64)
    _, first, pair_of = np.unique(row_of * len(classes) + y, return_index=True, return_inverse=True)
    return Dataset(
        pairs=distinct[local[row_of[first]]],
        pair_y=y[first],
        pair_of=pair_of,
        classes=classes,
        vocabulary=vocabulary,
        tx_hashes=list(compress(table.tx_hashes.tolist(), keep)),
    )


def class_weights(y: np.ndarray, n_classes: int) -> np.ndarray:
    """Balanced weights w_c = N / (K * n_c); every class must be present."""
    counts = np.bincount(y, minlength=n_classes)
    if (counts == 0).any():
        missing = [i for i, c in enumerate(counts) if c == 0]
        raise ValueError(f"cannot weight empty classes (indices {missing})")
    return len(y) / (n_classes * counts.astype(float))


def stratified_kfold(
    y: np.ndarray,
    k: int = 10,
    seed: int = 0,
    groups: Optional[Sequence[str]] = None,
    classes: Optional[Sequence[str]] = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold index pairs (train, test).

    Per-fold class counts stay within one of n_c/k. When groups are given
    (tx hashes), rows of one group always land in the same fold, keeping
    duplicated transactions out of train/test splits of the same fold.
    A class with fewer units (groups, or rows) than k raises InputError,
    naming the class by classes[index] when the names are given.
    """
    if k < 2:
        raise InputError(f"folds must be at least 2, got {k}")
    n = len(y)
    y = np.asarray(y)
    if groups is None:
        unit_of = np.arange(n)
        unit_labels = y
    else:
        # units are the groups in order of first occurrence; integer codes
        # keep np.unique off a fixed-width string array of every group
        index: dict = {}
        unit_of = np.fromiter((index.setdefault(g, len(index)) for g in groups), np.intp, n)
        _, first = np.unique(unit_of, return_index=True)
        unit_labels = y[first]
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(unit_labels), dtype=np.intp)
    for ci in np.unique(unit_labels):
        members = np.flatnonzero(unit_labels == ci)
        if len(members) < k:
            name = f"class {classes[ci]!r}" if classes is not None else f"class index {ci}"
            units = "rows" if groups is None else "transactions"
            raise InputError(f"{name} has {len(members)} {units} but --folds is {k}; "
                             f"every fold needs one of each class")
        members = members[rng.permutation(len(members))]
        sizes = [len(members) // k + (1 if f < len(members) % k else 0) for f in range(k)]
        # rotate which folds receive the remainder so totals stay balanced
        rot = int(ci) % k
        sizes = sizes[-rot:] + sizes[:-rot] if rot else sizes
        fold_of[members] = np.repeat(np.arange(k), sizes)
    row_fold = fold_of[unit_of]
    return [(np.flatnonzero(row_fold != f), np.flatnonzero(row_fold == f)) for f in range(k)]


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> np.ndarray:
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def macro_scores(cm: np.ndarray) -> dict[str, float]:
    """Macro precision/recall/F1 from a confusion matrix (rows = true)."""
    tp = np.diag(cm).astype(float)
    pred = cm.sum(axis=0).astype(float)
    true = cm.sum(axis=1).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred > 0, tp / pred, 0.0)
        recall = np.where(true > 0, tp / true, 0.0)
        f1 = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)
    return {
        "precision": float(precision.mean()),
        "recall": float(recall.mean()),
        "f1": float(f1.mean()),
    }


@dataclass
class EvalReport:
    classes: list[str]
    per_fold: list[dict[str, float]]
    averages: dict[str, float]
    confusion: np.ndarray  # pooled over folds, rows = true class
    models: list = field(default_factory=list)  # fitted per fold, in fold order

    def to_json(self) -> dict:
        cm = self.confusion.astype(float)
        row_sums = cm.sum(axis=1, keepdims=True)
        col_sums = cm.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            row_pct = np.where(row_sums > 0, cm / row_sums, 0.0)
            col_pct = np.where(col_sums > 0, cm / col_sums, 0.0)
        return {
            "classes": self.classes,
            "per_fold": self.per_fold,
            "averages": self.averages,
            "confusion": self.confusion.tolist(),
            "confusion_row_percent": np.round(row_pct, 6).tolist(),
            "confusion_col_percent": np.round(col_pct, 6).tolist(),
        }


def evaluate(
    dataset: Dataset,
    folds: list[tuple[np.ndarray, np.ndarray]],
    fit_fn: Callable[[np.ndarray], object],
) -> EvalReport:
    """Cross-validate: fit per fold, average macro metrics, pool confusion.

    fit_fn gets a fold's train row indices into the dataset and returns a
    fitted model, so fits can index one shared encoding of the pairs rather
    than a copied row subset; test rows are predicted by dataset.predict.
    The report keeps the fold models, so a later step on the same folds can
    reuse them instead of refitting.
    """
    n_classes = len(dataset.classes)
    models = []
    per_fold = []
    pooled = np.zeros((n_classes, n_classes), dtype=np.int64)
    for train_idx, test_idx in folds:
        model = fit_fn(train_idx)
        models.append(model)
        cm = confusion_matrix(dataset.y[test_idx], dataset.predict(model, test_idx), n_classes)
        pooled += cm
        per_fold.append(macro_scores(cm))
    averages = {
        key: float(np.mean([fold[key] for fold in per_fold])) for key in ("precision", "recall", "f1")
    }
    return EvalReport(classes=dataset.classes, per_fold=per_fold, averages=averages,
                      confusion=pooled, models=models)
