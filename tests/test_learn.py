"""Vocabulary/dataset assembly, class weights, stratified CV, metrics."""

import numpy as np
import pytest

from motifscope import learn
from motifscope.ingest import InputError
from motifscope.motif import OOV_KEY
from motifscope.table import FeatureTable


# ---------------------------------------------------------------------------
# vocabulary and vectorization
# ---------------------------------------------------------------------------

def _dataset(rows, **kwargs):
    """build_dataset over (tx_hash, ego, features, label) rows."""
    table = FeatureTable.build([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])
    return learn.build_dataset(table, [r[3] for r in rows], **kwargs)


def test_vocabulary_sorted_with_oov_last():
    ds = _dataset([("t1", "e1", {"b": 1, "a": 2}, "Swap"), ("t2", "e1", {"c": 1}, "Swap")])
    assert ds.vocabulary == ["a", "b", "c", OOV_KEY]


def test_vectorize_sums_unknown_keys_into_oov():
    vocab = ["a", "b", OOV_KEY]
    ds = _dataset([("t1", "e1", {"a": 2, "zz": 3, "qq": 4}, "Swap"), ("t2", "e1", {"b": 1}, "Swap")],
                  vocabulary=vocab)
    assert ds.X.tolist() == [[2.0, 0.0, 7.0], [0.0, 1.0, 0.0]]


def test_build_dataset_sorted_classes_and_metadata():
    rows = [
        ("t1", "e1", {"a": 1}, "Swap"),
        ("t2", "e2", {"b": 2}, "Mint"),
        ("t3", "e1", {"a": 1, "b": 1}, "Swap"),
    ]
    ds = _dataset(rows)
    assert ds.classes == ["Mint", "Swap"]
    assert ds.y.tolist() == [1, 0, 1]
    assert ds.vocabulary == ["a", "b", OOV_KEY]
    assert ds.tx_hashes == ["t1", "t2", "t3"]
    assert ds.n_rows == 3


def test_build_dataset_with_fixed_classes_and_vocabulary():
    rows = [("t1", "e1", {"new_key": 5}, "Swap")]
    ds = _dataset(rows, classes=["Mint", "Swap"], vocabulary=["a", OOV_KEY])
    assert ds.y.tolist() == [1]
    assert ds.X.tolist() == [[0.0, 5.0]]  # unseen key lands in OOV


def test_build_dataset_rejects_empty():
    with pytest.raises(ValueError):
        _dataset([])


# ---------------------------------------------------------------------------
# class weights
# ---------------------------------------------------------------------------

def test_class_weights_formula():
    y = np.array([0, 0, 0, 1])
    w = learn.class_weights(y, 2)
    assert w.tolist() == [4 / (2 * 3), 4 / (2 * 1)]
    # weighted class totals equalize
    assert 3 * w[0] == pytest.approx(w[1])


def test_class_weight_ratio_matches_corpus_extremes():
    # Transfer (404,130) vs the smallest retained group (1,389): the balanced
    # weight ratio is the inverse count ratio.
    y = np.repeat([0, 1], [404130, 1389])
    w = learn.class_weights(y, 2)
    ratio = w[1] / w[0]
    assert ratio == pytest.approx(404130 / 1389)
    assert ratio == pytest.approx(290.950324, abs=1e-6)
    assert round(ratio) == 291


def test_class_weights_require_every_class():
    with pytest.raises(ValueError):
        learn.class_weights(np.array([0, 0]), 2)


# ---------------------------------------------------------------------------
# stratified k-fold
# ---------------------------------------------------------------------------

def assert_valid_folds(folds, y, k):
    n = len(y)
    all_test = np.concatenate([test for _, test in folds])
    assert sorted(all_test.tolist()) == list(range(n))  # exact partition
    for train, test in folds:
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(n))
        assert np.intersect1d(train, test).size == 0
        for c in np.unique(y):
            n_c = int((y == c).sum())
            in_fold = int((y[test] == c).sum())
            assert abs(in_fold - n_c / k) <= 1


def test_kfold_exact_counts_8_2():
    y = np.array([0] * 8 + [1] * 2)
    folds = learn.stratified_kfold(y, k=2, seed=0)
    assert_valid_folds(folds, y, 2)
    for _, test in folds:
        assert (y[test] == 0).sum() == 4
        assert (y[test] == 1).sum() == 1


def test_kfold_remainder_spread():
    y = np.zeros(11, dtype=int)
    folds = learn.stratified_kfold(y, k=10, seed=3)
    sizes = sorted(len(test) for _, test in folds)
    assert sizes == [1] * 9 + [2]


def test_kfold_class_smaller_than_k_is_fatal():
    y = np.array([0] * 20 + [1] * 5)
    with pytest.raises(ValueError):
        learn.stratified_kfold(y, k=10)
    with pytest.raises(InputError, match="^class 'Mint' has 5 rows but --folds is 10;"):
        learn.stratified_kfold(y, k=10, classes=["Swap", "Mint"])


def test_kfold_property_random_datasets(rng):
    for trial in range(20):
        k = int(rng.integers(2, 11))
        n_classes = int(rng.integers(2, 6))
        counts = rng.integers(k, 60, size=n_classes)
        y = rng.permutation(np.repeat(np.arange(n_classes), counts))
        folds = learn.stratified_kfold(y, k=k, seed=trial)
        assert_valid_folds(folds, y, k)


def test_kfold_groups_stay_together():
    # two rows per tx_hash; they must land in the same fold
    y = np.repeat(np.arange(2), 20)
    groups = [f"tx{i // 2}" for i in range(40)]
    folds = learn.stratified_kfold(y, k=5, seed=1, groups=groups)
    for _, test in folds:
        in_test = {groups[i] for i in test}
        for i in range(40):
            assert (groups[i] in in_test) == (i in set(test.tolist()))


def test_kfold_deterministic_per_seed():
    y = np.repeat(np.arange(3), 30)
    a = learn.stratified_kfold(y, k=5, seed=7)
    b = learn.stratified_kfold(y, k=5, seed=7)
    c = learn.stratified_kfold(y, k=5, seed=8)
    assert all((x[1] == y_[1]).all() for x, y_ in zip(a, b))
    assert any((x[1].shape != y_[1].shape) or (x[1] != y_[1]).any() for x, y_ in zip(a, c))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_confusion_matrix_counts():
    cm = learn.confusion_matrix(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]), 2)
    assert cm.tolist() == [[1, 1], [0, 2]]


def test_macro_scores_hand_example():
    cm = np.array([[2, 1], [0, 3]])
    scores = learn.macro_scores(cm)
    assert scores["precision"] == pytest.approx((1.0 + 3 / 4) / 2)
    assert scores["recall"] == pytest.approx((2 / 3 + 1.0) / 2)
    f1_0 = 2 * 1.0 * (2 / 3) / (1.0 + 2 / 3)
    f1_1 = 2 * (3 / 4) * 1.0 / (3 / 4 + 1.0)
    assert scores["f1"] == pytest.approx((f1_0 + f1_1) / 2)


def test_macro_scores_zero_division_to_zero():
    cm = np.array([[0, 2], [0, 2]])  # class 0 never predicted
    scores = learn.macro_scores(cm)
    f1_1 = 2 * 0.5 * 1.0 / 1.5
    assert scores["precision"] == pytest.approx((0.0 + 0.5) / 2)
    assert scores["recall"] == pytest.approx((0.0 + 1.0) / 2)
    assert scores["f1"] == pytest.approx((0.0 + f1_1) / 2)


def test_eval_report_percentages():
    report = learn.EvalReport(
        classes=["A", "B"],
        per_fold=[{"precision": 1.0, "recall": 1.0, "f1": 1.0}],
        averages={"precision": 1.0, "recall": 1.0, "f1": 1.0},
        confusion=np.array([[8, 2], [1, 9]]),
    )
    obj = report.to_json()
    assert obj["confusion"] == [[8, 2], [1, 9]]
    assert obj["confusion_row_percent"][0] == [0.8, 0.2]
    assert obj["confusion_col_percent"][0][0] == pytest.approx(8 / 9, abs=1e-6)
    for row in obj["confusion_row_percent"]:
        assert sum(row) == pytest.approx(1.0, abs=1e-5)


class _Majority:
    def __init__(self, label):
        self.label = label

    def predict(self, X):
        return np.full(len(X), self.label, dtype=np.int64)


def test_evaluate_pools_confusion_and_averages():
    rows = 40
    y = np.repeat([0, 1], [30, 10])
    ds = learn.Dataset(  # every row is [0.0]: one pair per class
        pairs=np.zeros((2, 1)), pair_y=np.array([0, 1]), pair_of=y, classes=["a", "b"],
        vocabulary=["x"], tx_hashes=[str(i) for i in range(rows)],
    )
    folds = learn.stratified_kfold(y, k=5, seed=0)
    report = learn.evaluate(ds, folds, lambda train_idx: _Majority(0))
    assert report.confusion.sum() == rows  # every row tested exactly once
    assert report.confusion.tolist() == [[30, 0], [10, 0]]
    assert len(report.per_fold) == 5
    for key in ("precision", "recall", "f1"):
        assert report.averages[key] == pytest.approx(
            float(np.mean([f[key] for f in report.per_fold]))
        )


def test_kfold_equals_grouping_oracle(rng):
    """Units grouped by np.unique in first-seen order give the folds of the
    dict grouping: random hashes repeated up to four times, uneven classes,
    and rows without groups."""
    from oracles import reference_stratified_kfold

    for trial in range(30):
        k = int(rng.integers(2, 11))
        n_groups = int(rng.integers(6 * k, 200))
        # a group's rows share its class; classes of uneven size
        group_class = rng.choice(4, size=n_groups, p=[0.5, 0.25, 0.15, 0.1])
        group_class[:4 * k] = np.repeat(np.arange(4), k)  # every class has k units
        names = [f"0x{int(h):x}" for h in rng.permutation(10 ** 6)[:n_groups]]
        rows = rng.permutation(np.repeat(np.arange(n_groups), rng.integers(1, 5, size=n_groups)))
        y = group_class[rows]
        groups = [names[g] for g in rows]
        for grouping in (groups, None):
            got = learn.stratified_kfold(y, k=k, seed=trial, groups=grouping)
            expected = reference_stratified_kfold(y, k=k, seed=trial, groups=grouping)
            assert len(got) == k
            for (train, test), (ref_train, ref_test) in zip(got, expected):
                assert np.array_equal(train, ref_train) and np.array_equal(test, ref_test)
                assert train.dtype == ref_train.dtype and test.dtype == ref_test.dtype


def test_dataset_pairs_are_the_distinct_row_class_pairs():
    """Rows with equal features and class share a pair; X and y expand the
    pairs through pair_of, and counts are the pairs' row counts."""
    rows = [{"a": 1}, {"b": 2}, {"a": 1}, {"a": 1}, {"b": 2}, {"a": 1, "b": 1}]
    labels = ["Swap", "Swap", "Swap", "Mint", "Swap", "Mint"]
    ds = learn.build_dataset(
        FeatureTable.build([f"t{i}" for i in range(6)], ["e"] * 6, rows), labels)
    pairs = {(tuple(x), c) for x, c in zip(ds.pairs.tolist(), ds.pair_y.tolist())}
    assert ds.n_pairs == len(pairs) == 4
    assert ds.X.tolist() == [[1, 0, 0], [0, 2, 0], [1, 0, 0], [1, 0, 0], [0, 2, 0], [1, 1, 0]]
    assert ds.y.tolist() == [1, 1, 1, 0, 1, 0]
    assert np.array_equal(ds.X, ds.pairs[ds.pair_of]) and np.array_equal(ds.y, ds.pair_y[ds.pair_of])
    assert ds.counts.tolist() == np.bincount(ds.pair_of).tolist() and ds.counts.sum() == 6
    assert sorted(ds.counts.tolist()) == [1, 1, 2, 2]
