"""Logistic regression, decision tree, and random forest internals."""

from pathlib import Path

import numpy as np
import pytest

from motifscope import cli, learn, models, storage
from motifscope.models import DecisionTree, LogisticModel, RandomForest, RankedMatrix

from oracles import central_difference, reference_best_split


def blobs(rng, n_per=60, centers=((0, 0), (4, 4), (0, 5)), scale=0.5):
    X, y = [], []
    for label, center in enumerate(centers):
        X.append(rng.normal(center, scale, size=(n_per, len(center))))
        y.extend([label] * n_per)
    return np.vstack(X), np.array(y, dtype=np.int64)


# ---------------------------------------------------------------------------
# logistic loss and gradient
# ---------------------------------------------------------------------------

def test_logistic_loss_at_origin():
    X = np.array([[1.0, 2.0], [3.0, -1.0]])
    t = np.array([1.0, 0.0])
    sw = np.array([1.0, 3.0])
    loss, grad = models.logistic_loss_grad(np.zeros(3), X, t, sw, l2=0.0)
    assert loss == pytest.approx(np.log(2.0))
    resid = sw * (0.5 - t) / sw.sum()
    assert grad[:2] == pytest.approx(X.T @ resid)
    assert grad[2] == pytest.approx(resid.sum())


def test_logistic_gradient_matches_finite_differences(rng):
    for _ in range(5):
        n = int(rng.integers(3, 30))
        d = int(rng.integers(1, 8))
        X = rng.normal(size=(n, d))
        t = (rng.random(n) < 0.5).astype(float)
        sw = rng.uniform(0.5, 3.0, size=n)
        l2 = float(rng.uniform(0.0, 2.0))
        params = rng.normal(size=d + 1)
        _, grad = models.logistic_loss_grad(params, X, t, sw, l2)
        fd = central_difference(lambda p: models.logistic_loss_grad(p, X, t, sw, l2)[0], params)
        denom = max(float(np.linalg.norm(grad)), 1e-12)
        assert np.linalg.norm(fd - grad) / denom < 1e-6


def test_l2_penalizes_weights_not_bias():
    X = np.zeros((2, 2))
    t = np.array([0.0, 1.0])
    sw = np.ones(2)
    params = np.array([3.0, -2.0, 5.0])  # last entry is the bias
    loss0, grad0 = models.logistic_loss_grad(params, X, t, sw, l2=0.0)
    loss1, grad1 = models.logistic_loss_grad(params, X, t, sw, l2=2.0)
    assert loss1 - loss0 == pytest.approx(0.5 * 2.0 * (9.0 + 4.0))
    assert grad1[0] == pytest.approx(2.0 * 3.0)  # pure penalty term: X is zero
    assert grad1[2] == pytest.approx(grad0[2])  # bias unpenalized


def test_loss_invariant_to_weight_scale():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 4))
    t = (rng.random(20) < 0.5).astype(float)
    sw = rng.uniform(0.5, 2.0, size=20)
    params = rng.normal(size=5)
    loss_a, grad_a = models.logistic_loss_grad(params, X, t, sw, l2=1.0)
    loss_b, grad_b = models.logistic_loss_grad(params, X, t, 1000.0 * sw, l2=1.0)
    assert loss_b == pytest.approx(loss_a, rel=1e-12)
    assert grad_b == pytest.approx(grad_a, rel=1e-12)


def test_logistic_model_separable_and_round_trip(rng):
    X, y = blobs(rng)
    model = LogisticModel.fit(X, y, n_classes=3, l2=0.1)
    assert (model.predict(X) == y).mean() == 1.0
    clone = LogisticModel.from_dict(model.to_dict())
    assert (clone.predict(X) == model.predict(X)).all()
    assert clone.decision_function(X) == pytest.approx(model.decision_function(X))


def test_logistic_model_applies_class_weights():
    # 1-D data, overlapping classes with a 9:1 imbalance: unweighted LR calls
    # almost everything the majority class, balanced weights recover class 1
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0.0, 1.0, size=(180, 1)), rng.normal(1.0, 1.0, size=(20, 1))])
    y = np.repeat([0, 1], [180, 20])
    plain = LogisticModel.fit(X, y, n_classes=2)
    weighted = LogisticModel.fit(X, y, learn.class_weights(y, 2)[y], n_classes=2)
    recall_plain = (plain.predict(X)[y == 1] == 1).mean()
    recall_weighted = (weighted.predict(X)[y == 1] == 1).mean()
    assert recall_weighted > recall_plain


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------

def test_tree_pure_target_is_single_leaf():
    X = np.arange(20, dtype=float).reshape(-1, 1)
    tree = DecisionTree.fit(X, np.zeros(20, dtype=np.int64), n_classes=2, min_leaf=1)
    assert tree.left[0] == -1
    assert tree.n_leaves == 1
    assert tree.predict(X).tolist() == [0] * 20


def test_tree_learns_midpoint_threshold():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    tree = DecisionTree.fit(X, y, min_leaf=1)
    assert tree.left[0] != -1
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(1.5)
    assert tree.n_leaves == 2
    assert tree.predict(np.array([[1.4], [1.6]])).tolist() == [0, 1]


def test_tree_min_leaf_enforced(rng):
    X = rng.normal(size=(200, 5))
    y = (X[:, 0] + 0.3 * rng.normal(size=200) > 0).astype(np.int64)
    tree = DecisionTree.fit(X, y, min_leaf=17)
    assert tree.n_leaves > 1
    for leaf in tree.leaves():
        assert tree.n_samples[leaf] >= 17


def test_tree_tie_breaks_to_lowest_feature():
    col = np.array([0.0, 0.0, 1.0, 1.0])
    X = np.column_stack([col, col])  # two identical perfect splitters
    y = np.array([0, 0, 1, 1])
    tree = DecisionTree.fit(X, y, min_leaf=1)
    assert tree.feature[0] == 0


def test_tree_leaf_ids_preorder_and_apply(rng):
    X = rng.normal(size=(300, 4))
    y = ((X[:, 0] > 0).astype(int) + (X[:, 1] > 0).astype(int)).astype(np.int64)
    tree = DecisionTree.fit(X, y, min_leaf=10)
    # the nodes are numbered in preorder, and leaf ids count the leaves in order
    order, stack = [], [0]
    while stack:
        node = stack.pop()
        order.append(node)
        if tree.left[node] != -1:
            stack += [tree.right[node], tree.left[node]]
    assert order == list(range(len(tree.left)))
    leaves = tree.leaves().tolist()
    assert leaves == [i for i in range(len(tree.left)) if tree.left[i] == -1]
    assert len(leaves) == tree.n_leaves
    assigned = tree.apply(X)
    assert set(assigned.tolist()) <= set(range(tree.n_leaves))
    # apply and predict agree with a per-row walk down the tree
    for i in rng.choice(len(X), size=20, replace=False):
        node = 0
        while tree.left[node] != -1:
            goes_left = X[i, tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if goes_left else tree.right[node]
        assert assigned[i] == leaves.index(node)
        assert tree.predict(X[i : i + 1])[0] == np.argmax(tree.value[node])


def test_tree_weighted_majority():
    X = np.zeros((3, 1))
    y = np.array([0, 0, 1])
    tree = DecisionTree.fit(X, y, class_weight=np.array([1.0, 5.0]), min_leaf=3)
    assert tree.left[0] == -1
    assert tree.value[0].tolist() == [2.0, 5.0]
    assert tree.predict(X).tolist() == [1, 1, 1]


def test_node_gini_formula():
    value = np.array([2.0, 5.0])
    w = value.sum()
    # unnormalized gini: W * (1 - sum p^2) = W - sum(v^2)/W
    assert models._node_gini(value, w) == pytest.approx(w * (1 - (2 / 7) ** 2 - (5 / 7) ** 2))


def test_tree_serialization_round_trip(rng):
    X = rng.normal(size=(200, 6))
    y = (X[:, 0] * X[:, 1] > 0).astype(np.int64)
    tree = DecisionTree.fit(X, y, min_leaf=5)
    obj = tree.to_dict()
    clone = DecisionTree.from_dict(obj)
    assert clone.to_dict() == obj
    probe = rng.normal(size=(50, 6))
    assert (clone.predict(probe) == tree.predict(probe)).all()
    assert (clone.apply(probe) == tree.apply(probe)).all()


def test_tree_deterministic(rng):
    X = rng.normal(size=(150, 4))
    y = (X[:, 2] > 0.2).astype(np.int64)
    a = DecisionTree.fit(X, y, min_leaf=8)
    b = DecisionTree.fit(X, y, min_leaf=8)
    assert a.to_dict() == b.to_dict()


def _small_tree_dict():
    """A 7-node tree in preorder: splits at 0, 2 and 4, leaves 1, 3, 5 and 6."""
    X = np.arange(8, dtype=float).reshape(-1, 1)
    obj = DecisionTree.fit(X, np.repeat([0, 1, 2, 3], 2), min_leaf=1).to_dict()
    assert [(r["left"], r["right"]) for r in obj["nodes"]] == [
        (1, 2), (None, None), (3, 4), (None, None), (5, 6), (None, None), (None, None)]
    return obj


def _set(i, **fields):
    def edit(obj):
        obj["nodes"][i].update(fields)
    return edit


MALFORMED_TABLES = {
    "left to itself": _set(0, left=0),
    "left past the table": _set(0, left=10**6),
    "right to an earlier node": _set(4, right=3),
    "children swapped": _set(0, left=2, right=1),
    "an extra node no split reaches": lambda obj: obj["nodes"].append(dict(obj["nodes"][-1])),
    "no nodes": lambda obj: obj["nodes"].clear(),
    "a negative child": _set(4, right=-1),
    "a negative feature": _set(2, feature=-1),
    "a value short of the others": _set(1, value=[1.0]),
    "values of another class count": lambda obj: obj.update(n_classes=5),
    "a split with no left child": _set(2, left=None),
    "a float child index": _set(0, left=1.0),
}


@pytest.mark.parametrize("case", list(MALFORMED_TABLES))
def test_from_dict_rejects_a_table_that_is_not_a_preorder_tree(case):
    obj = _small_tree_dict()
    assert DecisionTree.from_dict(obj).to_dict() == obj
    MALFORMED_TABLES[case](obj)
    with pytest.raises((TypeError, ValueError)):
        DecisionTree.from_dict(obj)
    with pytest.raises((TypeError, ValueError)):
        RandomForest.from_dict({"n_classes": 4, "trees": [_small_tree_dict(), obj]})


# ---------------------------------------------------------------------------
# model files written while trees were linked node objects
# ---------------------------------------------------------------------------

MODEL_FILES = Path(__file__).parent / "data" / "model_format"


@pytest.mark.parametrize("name", ["dt", "pruned", "rf"])
def test_model_files_load_and_score_as_recorded(name, tmp_path):
    """dt_model.json, rf_model.json (3 trees) and pruned.json (6 leaves) were
    written by `motifscope train` and `prune` before trees were held as node
    arrays, on a 600-transaction uniform M+E corpus with some labels changed
    at random. scored.json holds rows over their vocabulary (the distinct
    rows, perturbed rows and rows at each split's threshold) and what each
    model's predict and apply gave on them then. A file must load, give back
    its own bytes when saved, and score the rows exactly as recorded."""
    path = MODEL_FILES / ("pruned.json" if name == "pruned" else f"{name}_model.json")
    spec = cli.load_model(path)
    assert spec.instance.to_dict() == storage.read_json(path)["model"]
    spec.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    scored = storage.read_json(MODEL_FILES / "scored.json")
    rows = np.array(scored["rows"])
    assert spec.instance.predict(rows).tolist() == scored[f"{name}_predict"]
    trees = spec.instance.trees if name == "rf" else [spec.instance]
    applied = [tree.apply(rows).tolist() for tree in trees]
    assert applied == (scored["rf_apply"] if name == "rf" else [scored[f"{name}_apply"]])
    assert len({tuple(a) for a in zip(*applied)}) > 5  # the rows reach many leaves


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

def test_forest_is_majority_vote_of_members(rng):
    X, y = blobs(rng)
    forest = RandomForest.fit(X, y, n_trees=7, min_leaf=5, seed=3)
    probe = rng.normal(2.0, 2.0, size=(40, 2))
    votes = np.zeros((len(probe), forest.n_classes), dtype=int)
    for tree in forest.trees:
        votes[np.arange(len(probe)), tree.predict(probe)] += 1
    assert (forest.predict(probe) == votes.argmax(axis=1)).all()


def test_forest_deterministic_per_seed(rng):
    X, y = blobs(rng, n_per=40)
    a = RandomForest.fit(X, y, n_trees=5, min_leaf=5, seed=9)
    b = RandomForest.fit(X, y, n_trees=5, min_leaf=5, seed=9)
    c = RandomForest.fit(X, y, n_trees=5, min_leaf=5, seed=10)
    assert a.to_dict() == b.to_dict()
    assert a.to_dict() != c.to_dict()


def test_forest_round_trip_and_accuracy(rng):
    X, y = blobs(rng)
    forest = RandomForest.fit(X, y, n_trees=15, min_leaf=5, seed=0)
    assert (forest.predict(X) == y).mean() > 0.95
    clone = RandomForest.from_dict(forest.to_dict())
    assert (clone.predict(X) == forest.predict(X)).all()
    assert len(clone.trees) == 15


def test_forest_max_features_subsampling(rng):
    X, y = blobs(rng, n_per=50)
    forest = RandomForest.fit(X, y, n_trees=3, min_leaf=5, max_features="sqrt", seed=1)
    # d=2 -> sqrt -> 1 feature per split; trees must still fit and predict
    assert forest.predict(X).shape == (len(X),)
    full = RandomForest.fit(X, y, n_trees=3, min_leaf=5, max_features=None, seed=1)
    assert (full.predict(X) == y).mean() > 0.9


# ---------------------------------------------------------------------------
# shared rank encoding
# ---------------------------------------------------------------------------

def _local_wide_encoding(X):
    """The per-fit reference: X's own uniques and int64 codes, which no
    code * K product can overflow."""
    pairs = [np.unique(col, return_inverse=True) for col in X.T]
    codes = np.stack([inv for _, inv in pairs], axis=1).astype(np.int64).reshape(X.shape)
    return RankedMatrix(codes, tuple(uniq for uniq, _ in pairs))


def _encoding_case(name, rng):
    """(X, y, rows, code dtype) for one equivalence case."""
    n = 400
    if name == "float ties":
        X = np.round(rng.normal(0.0, 1.0, size=(n, 4)), 1)
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int64) + (X[:, 2] > 0.8)
        rows = rng.integers(0, n, size=n)  # a bootstrap sample: repeats and absent rows
        return X, y, rows, np.uint8
    if name in ("counts absent codes", "counts fold"):
        X = rng.poisson(1.5, size=(n, 5)).astype(float)
        X[:, 4] = 3.0  # constant everywhere
        y = (X[:, 0] >= 2).astype(np.int64) + (X[:, 1] + X[:, 2] >= 4)
        if name == "counts fold":
            rows = learn.stratified_kfold(y, k=5, seed=2)[1][0]
        else:
            # code 2 of column 0 is absent and column 3 is constant on these rows
            rows = np.flatnonzero((X[:, 0] != 2) & (X[:, 3] == 1))
        return X, y, rows, np.uint8
    if name == "wide uint16":
        X = np.column_stack([rng.permutation(n).astype(float), rng.poisson(1.0, size=n)])
        y = ((X[:, 0] > 150).astype(np.int64) + (X[:, 0] > 300)) * (X[:, 1] > 0)
        rows = rng.choice(n, size=300, replace=False)
        return X, y, rows, np.uint16
    # narrow codes reaching 128 and more with K = 3: code * K overflows uint8
    X = np.column_stack([rng.integers(0, 200, size=n).astype(float), rng.poisson(1.0, size=n)])
    y = (X[:, 0] >= 140).astype(np.int64) + (X[:, 0] >= 170) * (X[:, 1] > 0)
    rows = rng.choice(n, size=350, replace=False)
    return X, y, rows, np.uint8


ENCODING_CASES = ["float ties", "counts absent codes", "counts fold", "wide uint16", "uint8 codes >= 128"]


@pytest.mark.parametrize("name", ENCODING_CASES)
def test_rank_encode_codes(name, rng):
    X, _, rows, dtype = _encoding_case(name, rng)
    ranked = models.rank_encode(X)
    assert ranked.codes.dtype == dtype
    assert ranked.shape == X.shape
    for f, uniq in enumerate(ranked.uniques):
        assert (np.diff(uniq) > 0).all()
        assert (uniq[ranked.codes[:, f]] == X[:, f]).all()
    assert models.rank_encode(ranked) is ranked


@pytest.mark.parametrize("name", ENCODING_CASES)
@pytest.mark.parametrize("kind", ["tree", "forest"])
def test_fit_on_shared_encoding_matches_fit_on_rows(name, kind, rng):
    """Fitting on rows of the whole matrix's encoding, given as pair_of (codes
    a row subset does not use, narrow dtypes), gives the same model as
    fitting on X[rows]."""
    X, y, rows, _ = _encoding_case(name, rng)
    cw = learn.class_weights(y[rows], 3)
    if kind == "tree":
        def fit(data, labels, **kw):
            return DecisionTree.fit(data, labels, cw, n_classes=3, min_leaf=3, **kw).to_dict()
    else:
        def fit(data, labels, **kw):
            return RandomForest.fit(data, labels, cw, n_classes=3, n_trees=4, min_leaf=3,
                                    seed=5, **kw).to_dict()
    expected = fit(X[rows], y[rows])
    assert fit(models.rank_encode(X), y, pair_of=rows) == expected
    assert fit(_local_wide_encoding(X[rows]), y[rows]) == expected
    if kind == "tree":
        assert len(expected["nodes"]) > 5


# ---------------------------------------------------------------------------
# fits on distinct (row, class) pairs with multiplicities
# ---------------------------------------------------------------------------

def _pairs(X, y, K):
    """(pair matrix, pair classes, each row's pair) of rows X with classes y."""
    _, first, pair_of = np.unique(X, axis=0, return_index=True, return_inverse=True)
    _, first, pair_of = np.unique(pair_of.reshape(-1) * K + y, return_index=True,
                                  return_inverse=True)
    return X[first], y[first], pair_of


def _repeating_case(rng, n=900, n_distinct=60, d=5, K=3):
    """Rows drawn, some often and some rarely, from a few distinct rows, with
    classes mostly a function of the row and partly noise, so rows repeat and
    some rows carry two classes. Columns 1, 2 and 4 hold ties; column 3 has a
    value of its own in nearly every distinct row, so a row subset that
    misses a rare row leaves a gap between the values it uses. Class 2 is
    exactly the rows with x0 = 5, so the node that split isolates is pure."""
    pool = rng.integers(0, 4, size=(n_distinct, d)).astype(float)
    pool[:, 3] = np.round(rng.normal(size=n_distinct), 2)
    pool[:10, 0] = 5.0
    p = 1.0 / np.arange(1, n_distinct + 1)
    rows = rng.choice(n_distinct, size=n, p=p / p.sum())
    X = pool[rows]
    y = np.where(X[:, 3] < 0, X[:, 1] + X[:, 2] >= 4, X[:, 3] > 0.6).astype(np.int64)
    noise = rng.random(n) < 0.1
    y[noise] = 1 - y[noise]
    y[X[:, 0] == 5.0] = 2
    return X, y


def _tree_json(tree):
    import json
    return json.dumps(tree.to_dict())


@pytest.mark.parametrize("trial", range(6))
@pytest.mark.parametrize("min_leaf", [1, 7, 25])
def test_tree_on_pairs_equals_tree_on_rows(rng, trial, min_leaf):
    """A fold of repeating rows fitted on its pairs and multiplicities gives
    the tree of the rows, bit for bit; pairs the fold does not use have
    multiplicity 0."""
    K = 3
    X, y = _repeating_case(rng)
    pairs, pair_y, pair_of = _pairs(X, y, K)
    rows = learn.stratified_kfold(y, k=3, seed=trial)[0][1]  # a third of the rows
    cw = learn.class_weights(y[rows], K)
    counts = np.bincount(pair_of[rows], minlength=len(pair_y))
    assert (counts == 0).any() and counts.max() > 1
    expected = DecisionTree.fit(X[rows], y[rows], cw, n_classes=K, min_leaf=min_leaf)
    got = DecisionTree.fit(pairs, pair_y, cw, n_classes=K, min_leaf=min_leaf,
                           pair_of=pair_of[rows])
    assert _tree_json(got) == _tree_json(expected)
    # a leaf's class weights are np.bincount's sums of its rows' weights
    leaf, y_rows = expected.apply(X[rows]), y[rows]
    for k, node in enumerate(expected.leaves()):
        at = leaf == k
        assert expected.value[node].tolist() == np.bincount(
            y_rows[at], weights=cw[y_rows[at]], minlength=K).tolist()
    assert expected.n_leaves > 2
    assert any(expected.gini[leaf] == 0.0 and expected.n_samples[leaf] >= 2 * min_leaf
               for leaf in expected.leaves())
    assert (got.predict(pairs)[pair_of[rows]] == expected.predict(X[rows])).all()


def test_tree_on_pairs_min_leaf_at_the_boundary():
    """The one split leaves exactly min_leaf rows on its left: it is taken at
    min_leaf and refused at min_leaf + 1, on pairs as on rows."""
    X = np.repeat([[0.0], [1.0], [2.0]], [4, 3, 9], axis=0)
    y = np.repeat([1, 1, 0], [4, 3, 9])
    y[[0, 8]] = [0, 1]  # some rows of a repeated value carry the other class
    pairs, pair_y, pair_of = _pairs(X, y, 2)
    cw = learn.class_weights(y, 2)
    for min_leaf, splits in ((7, True), (8, False)):
        expected = DecisionTree.fit(X, y, cw, n_classes=2, min_leaf=min_leaf)
        got = DecisionTree.fit(pairs, pair_y, cw, n_classes=2, min_leaf=min_leaf, pair_of=pair_of)
        assert _tree_json(got) == _tree_json(expected)
        assert (expected.left[0] != -1) == splits
        if splits:
            assert expected.n_samples[expected.left[0]] == min_leaf


def test_tree_on_pairs_that_never_repeat_equals_tree_on_rows(rng):
    """Every multiplicity 1: distinct rows fitted as pairs, in an order other
    than the rows', give the rows' tree."""
    K = 3
    X = rng.normal(size=(300, 4))
    y = (X[:, 0] + 0.3 * rng.normal(size=300) > 0).astype(np.int64) + (X[:, 1] > 1)
    pairs, pair_y, pair_of = _pairs(X, y, K)
    assert not np.array_equal(pair_of, np.arange(300))
    cw = learn.class_weights(y, K)
    expected = DecisionTree.fit(X, y, cw, n_classes=K, min_leaf=5)
    got = DecisionTree.fit(pairs, pair_y, cw, n_classes=K, min_leaf=5, pair_of=pair_of)
    assert _tree_json(got) == _tree_json(expected)


@pytest.mark.parametrize("max_features", ["sqrt", None])
def test_forest_on_pairs_equals_forest_on_bootstrap_rows(rng, max_features):
    """Forest members fitted on the multiplicities of their bootstrap draws
    equal trees fitted on the drawn rows, with the same feature draws."""
    from oracles import reference_forest

    K = 3
    X, y = _repeating_case(rng, d=9)
    pairs, pair_y, pair_of = _pairs(X, y, K)
    rows = np.sort(rng.choice(len(y), size=450, replace=False))
    cw = learn.class_weights(y[rows], K)
    expected = reference_forest(X[rows], y[rows], cw, K, n_trees=6, min_leaf=4,
                                max_features=3 if max_features else None, seed=11)
    got = RandomForest.fit(pairs, pair_y, cw, n_classes=K, n_trees=6, min_leaf=4,
                           max_features=max_features, seed=11, pair_of=pair_of[rows])
    assert [_tree_json(t) for t in got.trees] == [_tree_json(t) for t in expected.trees]
    # a forest on plain rows draws the same samples and fits them as pairs too
    plain = RandomForest.fit(X[rows], y[rows], cw, n_classes=K, n_trees=6, min_leaf=4,
                             max_features=max_features, seed=11)
    assert [_tree_json(t) for t in plain.trees] == [_tree_json(t) for t in expected.trees]


def test_fits_on_pairs_count_classes_of_their_rows():
    """Without n_classes, a fit on pairs has as many classes as its rows
    have, not as the pairs have."""
    X = np.repeat([[0.0], [1.0], [2.0]], 4, axis=0)
    y = np.repeat([0, 1, 2], 4)
    pairs, pair_y, pair_of = _pairs(X, y, 3)
    rows = np.arange(8)  # classes 0 and 1 only
    expected = DecisionTree.fit(X[rows], y[rows], min_leaf=2)
    got = DecisionTree.fit(pairs, pair_y, min_leaf=2, pair_of=pair_of[rows])
    assert got.n_classes == expected.n_classes == 2
    assert _tree_json(got) == _tree_json(expected)
    forest = RandomForest.fit(pairs, pair_y, n_trees=2, min_leaf=2, pair_of=pair_of[rows])
    assert forest.n_classes == 2 and all(t.n_classes == 2 for t in forest.trees)


# ---------------------------------------------------------------------------
# split search against the feature-by-feature reference
# ---------------------------------------------------------------------------

def _same_split(got, expected):
    if got is None or expected is None:
        return got is None and expected is None
    return (got[0] == expected[0] and got[1] == expected[1]
            and np.array_equal(got[2], expected[2]))


def _node_stats(y, counts, sums, idx, K):
    """A node's (value, n_samples, weight, gini) as DecisionTree.fit makes it."""
    class_rows = np.bincount(y[idx], weights=counts[idx], minlength=K)
    value = sums(class_rows)
    weight_sum = float(value.sum())
    return value, int(class_rows.sum()), weight_sum, models._node_gini(value, weight_sum)


def _random_pairs(rng, dtype, n_pairs=120, d=8, K=3):
    """(ranked pairs, pair classes, multiplicities, class weights, pair_of):
    columns of 1 to 300 codes (at most 256 for uint8), two duplicated
    columns, so every decrease of the first ties with the second, and a
    fifth of the pairs used by no row."""
    widths = rng.choice([1, 2, 3, 6, 40, 300 if dtype == np.uint16 else 200], size=d)
    codes = np.column_stack([rng.integers(0, w, size=n_pairs) for w in widths]).astype(dtype)
    codes[:, d - 1] = codes[:, 2]
    uniques = tuple(np.sort(rng.choice(10_000, size=max(int(w), int(c.max()) + 1),
                                       replace=False)) / 8.0 for w, c in zip(widths, codes.T))
    y = rng.integers(0, K, size=n_pairs)
    counts = rng.integers(1, 6, size=n_pairs) * (rng.random(n_pairs) >= 0.2)
    pair_of = np.repeat(np.arange(n_pairs), counts)
    cw = learn.class_weights(y[pair_of], K)
    return RankedMatrix(codes, uniques), y, counts, cw, pair_of


def _check_split_search(rng, ranked, y, counts, class_weight, K):
    """The search returns the loop's feature, threshold and left mask: at the
    root and at a random subset, for min_leaf 1 and 0, at the smaller side
    of the loop's split and one above it, and with max_features draws that
    leave both generators in the same state."""
    sums = models._class_sums(class_weight, np.bincount(np.repeat(y, counts), minlength=K))
    used = np.flatnonzero(counts)
    for idx in (used, np.sort(rng.choice(used, size=len(used) // 3, replace=False))):
        stats = _node_stats(y, counts, sums, idx, K)
        args = (ranked.codes, ranked.uniques, y, counts, sums, idx, stats, K)
        expected = reference_best_split(*args, 1, None, None)
        assert _same_split(models._best_split(*args, 1, None, None), expected)
        if expected is not None:
            side = counts[idx][expected[2]].sum(), counts[idx][~expected[2]].sum()
            for min_leaf in (0, min(side), min(side) + 1, stats[1] // 2 + 1):
                assert _same_split(models._best_split(*args, min_leaf, None, None),
                                   reference_best_split(*args, min_leaf, None, None))
        for seed in range(4):
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _same_split(models._best_split(*args, 2, 3, got_rng),
                               reference_best_split(*args, 2, 3, ref_rng))
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state


# one pass over all features, a few features a pass, and one feature a pass
CELLS = [models.SPLIT_CELLS, 300, 1]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@pytest.mark.parametrize("K", [3, 9])
@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("trial", range(6))
def test_pair_split_equals_feature_by_feature_search(rng, monkeypatch, dtype, K, cells, trial):
    """On random pairs (zero multiplicities, tied columns, wide and narrow
    columns, fewer classes than numpy's 8-term summation blocks and more),
    the search finds the loop's split, however many features a pass covers."""
    monkeypatch.setattr(models, "SPLIT_CELLS", cells)
    ranked, y, counts, cw, _ = _random_pairs(rng, dtype, K=K)
    _check_split_search(rng, ranked, y, counts, cw, K)


def test_pair_split_ties_and_unsplittable_nodes():
    """Tied decreases go to the first feature and the first cut, as in the
    loop; a node whose features are all constant, or whose every cut leaves
    a side under min_leaf, is not split."""
    K = 2
    # cuts after code 0 and after code 2 of column 0 have equal decreases;
    # column 1 repeats column 0, and column 2 is constant
    ranked = models.rank_encode(np.array([[0, 0, 4], [1, 1, 4], [2, 2, 4], [3, 3, 4]], float))
    y = np.array([0, 1, 1, 0])
    counts = np.array([3, 3, 3, 3])
    sums = models._class_sums(np.ones(K), np.array([6, 6]))
    idx = np.arange(4)
    stats = _node_stats(y, counts, sums, idx, K)
    args = (ranked.codes, ranked.uniques, y, counts, sums, idx, stats, K)
    got = models._best_split(*args, 1, None, None)
    assert _same_split(got, reference_best_split(*args, 1, None, None))
    assert got[0] == 0 and got[1] == 0.5 and got[2].tolist() == [True, False, False, False]
    assert models._best_split(*args, 7, None, None) is None
    only_constant = (ranked.codes[:, [2]], ranked.uniques[2:], y, counts, sums, idx, stats, K)
    assert models._best_split(*only_constant, 1, None, None) is None
    assert reference_best_split(*only_constant, 1, None, None) is None


@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("trial", range(4))
def test_row_split_equals_feature_by_feature_search(rng, monkeypatch, cells, trial):
    """Rows are pairs of multiplicity 1: on continuous, integer and rounded
    columns, with uneven class weights, the search (with a bin per present
    code for columns wider than the node) finds the loop's split."""
    monkeypatch.setattr(models, "SPLIT_CELLS", cells)
    K = 3
    X = np.column_stack([rng.normal(size=300), rng.integers(0, 4, size=300),
                         np.round(rng.normal(size=300), 1)])
    y = rng.integers(0, K, size=300)
    _check_split_search(rng, models.rank_encode(X), y, np.ones(300, dtype=np.int64),
                        rng.uniform(0.5, 2.0, size=K), K)


def _grown(search, monkeypatch, fit):
    with monkeypatch.context() as patch:
        patch.setattr(models, "_best_split", search)
        return fit()


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@pytest.mark.parametrize("cells", [models.SPLIT_CELLS, 1])
def test_trees_equal_trees_grown_with_the_reference_search(rng, monkeypatch, dtype, cells):
    """Trees and forests grown with the reference search equal the package's,
    array for array, on pairs (with zero multiplicities) and on rows."""
    monkeypatch.setattr(models, "SPLIT_CELLS", cells)
    K = 3
    ranked, y, counts, cw, pair_of = _random_pairs(rng, dtype, n_pairs=300, K=K)
    X = np.column_stack([u[c] for u, c in zip(ranked.uniques, ranked.codes.T)])
    fits = [
        lambda: DecisionTree.fit(ranked, y, cw, n_classes=K, min_leaf=2, pair_of=pair_of),
        lambda: DecisionTree.fit(X[pair_of], y[pair_of], cw, n_classes=K, min_leaf=3),
        lambda: RandomForest.fit(ranked, y, cw, n_classes=K, n_trees=3, min_leaf=2, seed=4,
                                 pair_of=pair_of),
    ]
    for fit in fits:
        got, expected = fit(), _grown(reference_best_split, monkeypatch, fit)
        got_trees = got.trees if isinstance(got, RandomForest) else [got]
        expected_trees = expected.trees if isinstance(got, RandomForest) else [expected]
        for a, b in zip(got_trees, expected_trees, strict=True):
            assert a.n_leaves > 3
            for x, z in zip(a._arrays(), b._arrays()):
                assert x.dtype == z.dtype and np.array_equal(x, z)


def test_a_split_that_leaves_a_side_empty_fails_the_fit(rng, monkeypatch):
    """A split search that sends every unit one way fails the fit instead of
    growing the same node forever."""
    X, y = blobs(rng)
    monkeypatch.setattr(models, "_best_split",
                        lambda *args: (0, 0.0, np.ones(len(args[5]), dtype=bool)))
    with pytest.raises(AssertionError, match="leaves a side empty"):
        DecisionTree.fit(X, y, min_leaf=2)
