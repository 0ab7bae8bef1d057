"""CCP pruning path, per-leaf itemset mining, signature matching."""

import re

import numpy as np
import pytest

from motifscope import signatures as sig_mod
from motifscope.models import DecisionTree, RandomForest
from motifscope.signatures import (
    LeafSignature,
    ccp_path,
    exhaustive_maximal_itemsets,
    greedy_itemset,
    match_signatures,
    mine_leaf_itemset,
    mine_signatures,
    select_pruned,
    tree_to_dot,
)

from oracles import (
    brute_force_match,
    brute_force_maximal_itemsets,
    reference_ccp_path,
    reference_collapse,
)


def blocky(values_y, reps=10):
    """1-D dataset: feature value v repeated reps times with label values_y[v]."""
    X = np.repeat(np.arange(len(values_y), dtype=float), reps).reshape(-1, 1)
    y = np.repeat(np.asarray(values_y, dtype=np.int64), reps)
    return X, y


def assert_path_invariants(tree, path):
    alphas = [e.alpha for e in path]
    counts = [e.leaf_count for e in path]
    assert alphas[0] == 0.0
    assert all(b > a for a, b in zip(alphas, alphas[1:]))
    assert all(b < a for a, b in zip(counts, counts[1:]))
    assert counts[0] == tree.n_leaves
    assert counts[-1] == 1
    assert path[0].tree.to_dict() == tree.to_dict()
    for entry in path:
        assert entry.tree.n_leaves == entry.leaf_count


# ---------------------------------------------------------------------------
# pruning path
# ---------------------------------------------------------------------------

def test_ccp_path_depth_one_two_entries():
    X, y = blocky([0, 0, 1, 1])
    tree = DecisionTree.fit(X, y, min_leaf=10)
    assert tree.n_leaves == 2
    path = ccp_path(tree)
    assert_path_invariants(tree, path)
    assert len(path) == 2
    # g(root) = unnormalized gini / W = (40 * 0.5) / 40
    assert path[1].alpha == pytest.approx(0.5)


def test_ccp_path_hand_computed_two_steps():
    # leaves: [c0 x20 | c1 x10 | c2 x10]; R(root)=0.625, inner g=0.25, then 0.375
    X, y = blocky([0, 0, 1, 2])
    tree = DecisionTree.fit(X, y, min_leaf=10)
    assert tree.n_leaves == 3
    path = ccp_path(tree)
    assert_path_invariants(tree, path)
    assert [e.leaf_count for e in path] == [3, 2, 1]
    assert [e.alpha for e in path] == pytest.approx([0.0, 0.25, 0.375])


def test_ccp_path_merges_equal_alphas():
    # four pure leaves, perfectly balanced: every node has g = 0.25, so the
    # whole tree collapses in a single step
    X, y = blocky([0, 1, 2, 3])
    tree = DecisionTree.fit(X, y, min_leaf=10)
    assert tree.n_leaves == 4
    path = ccp_path(tree)
    assert_path_invariants(tree, path)
    assert [e.leaf_count for e in path] == [4, 1]
    assert [e.alpha for e in path] == pytest.approx([0.0, 0.25])


def test_ccp_path_single_leaf_tree():
    X = np.zeros((20, 1))
    y = np.zeros(20, dtype=np.int64)
    tree = DecisionTree.fit(X, y, min_leaf=10, n_classes=2)
    path = ccp_path(tree)
    assert len(path) == 1
    assert path[0].leaf_count == 1


def test_ccp_path_invariants_on_random_trees(rng):
    for _ in range(10):
        n = int(rng.integers(80, 400))
        d = int(rng.integers(2, 6))
        X = rng.normal(size=(n, d))
        y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.int64) + (
            X[:, 1] > 0.5
        ).astype(np.int64)
        tree = DecisionTree.fit(X, y, min_leaf=5)
        assert_path_invariants(tree, ccp_path(tree))


def test_ccp_path_invariants_on_corpus_tree(small_tree):
    assert_path_invariants(small_tree, ccp_path(small_tree))


def test_pruned_trees_equal_the_collapse_oracle(rng):
    """Each path entry's tree, and the tree with any set of nodes collapsed,
    is the oracle's: the unpruned rows with the subtrees below the pruned
    nodes dropped and the rest renumbered in preorder. The trees include
    ties in g (all of blocky([0, 1, 2, 3])'s nodes; integer features) and
    the trees of a forest."""
    trees = [DecisionTree.fit(*blocky([0, 1, 2, 3]), min_leaf=10),
             DecisionTree.fit(*blocky([0, 1, 0, 1, 2, 2, 0, 1]), min_leaf=5)]
    for _ in range(6):
        n = int(rng.integers(80, 400))
        X = rng.integers(0, 4, size=(n, 4)).astype(float)
        y = (X[:, 0] + rng.integers(0, 3, size=n) > 2).astype(np.int64) + (X[:, 1] > 2)
        trees.append(DecisionTree.fit(X, y, min_leaf=int(rng.integers(1, 8))))
    X, y = blocky([0, 1, 2, 0, 2, 1, 1, 0], reps=12)
    X = np.column_stack([X, rng.normal(size=len(y))])
    trees += RandomForest.fit(X, y, n_trees=4, min_leaf=3, seed=2).trees
    ties = nested = 0
    for tree in trees:
        obj = tree.to_dict()
        path = ccp_path(tree)
        for before, entry in zip([None, *path], path):
            assert entry.tree.to_dict() == reference_collapse(obj, entry.pruned_ids)
            if before is not None:
                ties += len(entry.pruned_ids) - len(before.pruned_ids) > 1
        inner = [i for i, row in enumerate(obj["nodes"]) if row["feature"] is not None]
        for _ in range(5):
            size = int(rng.integers(0, len(inner) + 1))
            ids = set(rng.choice(inner, size=size, replace=False).tolist())
            nested += any(obj["nodes"][i]["left"] in ids for i in ids)
            assert tree.collapsed(ids).to_dict() == reference_collapse(obj, ids)
    assert ties > 0 and nested > 0


def test_ccp_path_equals_the_reference_path(rng):
    """Every entry's alpha, leaf count and pruned ids are exactly those of
    the reference path (hidden-node pass and parent walk per step), on
    trees with tied g, class weights, forest trees and a single leaf, and
    on a tree whose second cut ties the first only once the first is made,
    through rounding, so that it extends the first cut's entry."""
    left, right = np.array([1, 2, 3, -1, -1, -1, -1]), np.array([6, 5, 4, -1, -1, -1, -1])
    gini = [120.58666222656643, 20.586662226566435, 17.766505616029377, 5.322887580421551,
            12.159843313973697, 2.5363818889029286, 0.0]
    extended = DecisionTree(np.where(left < 0, -1, 0), np.where(left < 0, -1.0, 0.5), left, right,
                            np.ones((7, 2)), np.full(7, 10), np.ones(7), np.array(gini), 2, 1, 1.0)
    assert [(e.leaf_count, e.pruned_ids) for e in ccp_path(extended)] == [
        (4, frozenset()), (2, {1, 2}), (1, {0, 1, 2})]
    trees = [extended,
             DecisionTree.fit(np.zeros((20, 1)), np.zeros(20, dtype=np.int64), min_leaf=10,
                              n_classes=2),
             DecisionTree.fit(*blocky([0, 1, 2, 3]), min_leaf=10),
             DecisionTree.fit(*blocky([0, 1, 0, 1, 2, 2, 0, 1]), min_leaf=5)]
    for trial in range(24):
        n, d = int(rng.integers(60, 400)), int(rng.integers(2, 6))
        X = rng.normal(size=(n, d)) if trial % 2 else rng.integers(0, 4, size=(n, d)).astype(float)
        y = (X[:, 0] + rng.normal(size=n) > 0).astype(np.int64) + (X[:, 1] > 0.5)
        if trial % 3 == 0:
            y = rng.integers(0, 3, size=n)
        cw = rng.uniform(0.5, 3.0, size=3) if trial % 4 < 2 else None
        trees.append(DecisionTree.fit(X, y, cw, n_classes=3, min_leaf=int(rng.integers(1, 10))))
    X, y = blocky([0, 1, 2, 0, 2, 1, 1, 0], reps=12)
    X = np.column_stack([X, rng.normal(size=len(y))])
    trees += RandomForest.fit(X, y, n_trees=3, min_leaf=2, seed=4).trees
    ties = 0
    for tree in trees:
        path = [(e.alpha, e.leaf_count, e.pruned_ids) for e in ccp_path(tree)]
        assert path == reference_ccp_path(tree)
        ties += any(len(b) - len(a) > 1 for (_, _, a), (_, _, b) in zip(path, path[1:]))
    assert trees[1].n_leaves == 1 and ties > 1


def test_pruned_tree_prediction_tie_breaks_low_index():
    X, y = blocky([0, 0, 1, 2])
    tree = DecisionTree.fit(X, y, min_leaf=10)
    pruned, entry = select_pruned(ccp_path(tree), target_leaves=2)
    assert entry.leaf_count == 2
    # the collapsed right leaf holds 10 of class 1 and 10 of class 2
    assert pruned.predict(np.array([[3.0]]))[0] == 1


# ---------------------------------------------------------------------------
# snapshot selection
# ---------------------------------------------------------------------------

def test_select_pruned_exact_leaf_target():
    X, y = blocky([0, 0, 1, 2])
    path = ccp_path(DecisionTree.fit(X, y, min_leaf=10))
    pruned, entry = select_pruned(path, target_leaves=2)
    assert entry.leaf_count == 2 and pruned.n_leaves == 2


def test_select_pruned_unreachable_target_warns():
    X, y = blocky([0, 1, 2, 3])  # path has only 4-leaf and 1-leaf snapshots
    path = ccp_path(DecisionTree.fit(X, y, min_leaf=10))
    with pytest.warns(UserWarning, match="no pruning level with exactly 3"):
        _, entry = select_pruned(path, target_leaves=3)
    assert entry.leaf_count == 1  # nearest achievable level at or below target


def test_select_pruned_by_alpha():
    X, y = blocky([0, 0, 1, 2])
    path = ccp_path(DecisionTree.fit(X, y, min_leaf=10))  # alphas 0, 0.25, 0.375
    _, entry = select_pruned(path, alpha=0.0)
    assert entry.leaf_count == 3
    _, entry = select_pruned(path, alpha=0.3)
    assert entry.leaf_count == 2
    _, entry = select_pruned(path, alpha=10.0)
    assert entry.leaf_count == 1


def test_select_pruned_argument_validation():
    X, y = blocky([0, 1])
    path = ccp_path(DecisionTree.fit(X, y, min_leaf=10))
    with pytest.raises(ValueError):
        select_pruned(path)
    with pytest.raises(ValueError):
        select_pruned(path, target_leaves=2, alpha=0.1)
    with pytest.raises(ValueError):
        select_pruned(path, target_leaves=0)
    with pytest.raises(ValueError):
        select_pruned(path, alpha=-0.5)
    with pytest.raises(ValueError):
        select_pruned(path, alpha=float("nan"))


# ---------------------------------------------------------------------------
# itemset mining
# ---------------------------------------------------------------------------

def presence_from_rows(rows, n_cols):
    mat = np.zeros((len(rows), n_cols), dtype=bool)
    for i, cols in enumerate(rows):
        mat[i, list(cols)] = True
    return mat


def test_greedy_itemset_grows_while_support_holds():
    # a and b co-occur on 9/10 rows; both survive
    rows = [{0, 1}] * 9 + [set()]
    chosen, support = greedy_itemset(presence_from_rows(rows, 2), ["a", "b"])
    assert sorted(chosen) == [0, 1]
    assert support == pytest.approx(0.9)


def test_greedy_itemset_rejects_when_joint_support_drops():
    # a on rows 0-8, d on rows 1-9: joint 0.8 is not strictly above threshold
    rows = [{0} if i == 0 else ({0, 1} if i <= 8 else {1}) for i in range(10)]
    chosen, support = greedy_itemset(presence_from_rows(rows, 2), ["a", "d"])
    assert chosen == [0]  # tie on single support, lexicographic: a before d
    assert support == pytest.approx(0.9)


def test_greedy_itemset_orders_by_support_then_key():
    # c has the highest support and is tried first despite its key
    rows = [{0, 1, 2}] * 9 + [{2}]
    presence = presence_from_rows(rows, 3)
    chosen, _ = greedy_itemset(presence, ["b", "a", "c"])
    assert chosen[0] == 2  # the 1.0-support item
    assert sorted(chosen) == [0, 1, 2]


def test_greedy_itemset_threshold_is_strict():
    rows = [{0}] * 8 + [set()] * 2  # support exactly 0.8
    chosen, support = greedy_itemset(presence_from_rows(rows, 1), ["a"])
    assert chosen == [] and support == 0.0


def test_exhaustive_matches_brute_force_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(5, 30))
        d = int(rng.integers(1, 8))
        presence = rng.random((n, d)) < rng.uniform(0.5, 1.0)
        threshold = float(rng.choice([0.5, 0.7, 0.8]))
        got = {(items, round(sup, 12)) for items, sup in exhaustive_maximal_itemsets(presence, threshold)}
        want = {
            (items, round(sup, 12)) for items, sup in brute_force_maximal_itemsets(presence, threshold)
        }
        assert got == want


def test_exhaustive_rejects_oversized_universe():
    presence = np.ones((4, 16), dtype=bool)
    with pytest.raises(ValueError):
        exhaustive_maximal_itemsets(presence, 0.5, max_items=15)


def test_mine_leaf_itemset_flags_greedy_shortfall():
    # x alone (0.95) blocks the longer {y, z} (0.85): the greedy pass yields a
    # shorter set than the exhaustive maximum and must say so
    rows = []
    for i in range(20):
        cols = set()
        if i >= 1:
            cols.add(0)  # x on rows 1-19
        if i <= 16:
            cols.update({1, 2})  # y, z on rows 0-16
        rows.append(cols)
    presence = presence_from_rows(rows, 3)
    chosen, support, notes = mine_leaf_itemset(presence, ["x", "y", "z"], method="greedy")
    assert chosen == [0] and support == pytest.approx(0.95)
    assert len(notes) == 1 and "shorter than exhaustive maximum 2" in notes[0]
    chosen, support, notes = mine_leaf_itemset(presence, ["x", "y", "z"], method="exhaustive")
    assert sorted(chosen) == [1, 2] and support == pytest.approx(0.85)
    assert notes == []


def test_exhaustive_method_rejects_oversized_leaf():
    # 16 always-present items: greedy takes them all, exhaustive refuses
    # rather than return an empty signature
    presence = np.ones((20, 16), dtype=bool)
    keys = [f"k{i:02d}" for i in range(16)]
    chosen, support, notes = mine_leaf_itemset(presence, keys, method="greedy")
    assert len(chosen) == 16 and support == 1.0 and notes == []
    with pytest.raises(ValueError, match="16 candidate items exceed the exhaustive limit 15"):
        mine_leaf_itemset(presence, keys, method="exhaustive")


def test_mine_leaf_itemset_no_candidates():
    presence = np.zeros((5, 3), dtype=bool)
    for method in ("greedy", "exhaustive"):
        chosen, support, notes = mine_leaf_itemset(presence, ["a", "b", "c"], method=method)
        assert chosen == [] and support == 0.0 and notes == []


# ---------------------------------------------------------------------------
# signature mining and matching
# ---------------------------------------------------------------------------

def test_mine_signatures_per_leaf(small_tree, small_dataset):
    sigs, notes = mine_signatures(
        small_tree, small_dataset.X, small_dataset.vocabulary, small_dataset.classes
    )
    assert notes == []
    leaf_ids = set(range(len(small_tree.leaves())))  # leaf id k is the k-th leaf in preorder
    assert {s.leaf_id for s in sigs} <= leaf_ids
    assert len(sigs) >= 1
    for s in sigs:
        assert s.group in small_dataset.classes
        assert s.items == sorted(s.items)
        assert set(s.items) <= set(small_dataset.vocabulary)
        assert 0.0 <= s.probability <= 1.0
        if s.items:
            assert s.support > 0.8
            for item in s.items:
                assert s.item_supports[item] >= s.support - 1e-12
        else:
            assert s.support == 0.0


def test_mine_signatures_validates_method(small_tree, small_dataset):
    with pytest.raises(ValueError):
        mine_signatures(
            small_tree, small_dataset.X, small_dataset.vocabulary, small_dataset.classes,
            method="psychic",
        )


def make_sig(leaf_id, group, items):
    return LeafSignature(
        leaf_id=leaf_id,
        group=group,
        probability=1.0,
        samples=10,
        items=items,
        item_supports={i: 1.0 for i in items},
        support=1.0 if items else 0.0,
    )


def test_match_signatures_subset_semantics():
    sigs = [
        make_sig(0, "Swap", ["a", "b"]),
        make_sig(1, "Mint", ["c"]),
        make_sig(2, "Swap", ["a"]),
        make_sig(3, "Borrow", []),  # empty signatures never match
    ]
    leaves, groups = match_signatures({"a": 2, "b": 1, "zz": 5}, sigs)
    assert leaves == [0, 2]
    assert groups == ["Swap"]
    leaves, groups = match_signatures({"a": 1, "c": 3}, sigs)
    assert leaves == [1, 2]  # ascending leaf ids
    assert groups == ["Mint", "Swap"]  # unique groups, sorted
    leaves, groups = match_signatures({"b": 1}, sigs)
    assert leaves == [] and groups == []
    # leaf ids out of order and repeated; one group on two leaves
    sigs = [make_sig(7, "Swap", ["a"]), make_sig(2, "Mint", ["b"]), make_sig(7, "Borrow", ["a"]),
            make_sig(4, "Swap", ["b", "a"])]
    assert match_signatures({"a": 1, "b": 2}, sigs) == ([2, 4, 7, 7], ["Borrow", "Mint", "Swap"])
    assert match_signatures({"a": 1, "b": 0}, sigs) == ([7, 7], ["Borrow", "Swap"])


def test_match_signatures_matches_brute_force(rng):
    keys = [f"k{i}" for i in range(6)]
    groups = ["Swap", "Mint", "Borrow"]
    for _ in range(500):
        sigs = [make_sig(int(rng.integers(0, 6)), groups[int(rng.integers(0, 3))],
                         [keys[j] for j in rng.choice(6, size=int(rng.integers(0, 4)), replace=False)])
                for _ in range(int(rng.integers(0, 8)))]
        features = {k: int(rng.integers(0, 3)) for k in keys if rng.random() < 0.7}
        assert match_signatures(features, sigs) == brute_force_match(features, sigs)


def test_match_ignores_zero_count_features():
    sigs = [make_sig(0, "Swap", ["a"])]
    assert match_signatures({"a": 0}, sigs) == ([], [])


def test_tree_to_dot_output(small_tree, small_dataset):
    dot = tree_to_dot(small_tree, small_dataset.vocabulary, small_dataset.classes)
    assert dot.startswith("digraph pruned_tree {")
    assert dot.rstrip().endswith("}")
    assert 'label="yes"' in dot and 'label="no"' in dot
    assert any(cls in dot for cls in small_dataset.classes)
    n_leaf_boxes = dot.count("shape=box")
    assert n_leaf_boxes == small_tree.n_leaves
    # one yes and one no edge per split, to its children; leaves numbered in preorder
    edges = re.findall(r"n(\d+) -> n(\d+) \[label=\"(yes|no)\"\]", dot)
    splits = np.flatnonzero(small_tree.left != -1).tolist()
    assert sorted(edges) == sorted(
        [(str(i), str(small_tree.left[i]), "yes") for i in splits]
        + [(str(i), str(small_tree.right[i]), "no") for i in splits])
    leaves = re.findall(r"n(\d+) \[shape=box, style=rounded, label=\"leaf (\d+)", dot)
    assert leaves == [(str(node), str(k)) for k, node in enumerate(small_tree.leaves())]


@pytest.mark.parametrize("method", ["greedy", "exhaustive"])
def test_mine_signatures_on_pairs_equals_rows(rng, method):
    """Mining a dataset's pairs with their row counts gives the signatures of
    its rows, floats and all."""
    from motifscope import learn

    d, K = 8, 3
    pool = (rng.random((30, d)) < np.linspace(0.95, 0.3, d)).astype(float)
    pool *= rng.integers(1, 4, size=pool.shape)
    pool_class = rng.integers(0, K, size=30)
    pool_class[pool[:, 0] == 0] = 2
    rows = rng.integers(0, 30, size=700)
    X, y = pool[rows], pool_class[rows]
    y[rng.random(700) < 0.05] = 1
    tree = DecisionTree.fit(X, y, learn.class_weights(y, K), n_classes=K, min_leaf=20)
    assert tree.n_leaves >= 3
    _, first, pair_of = np.unique(rows * K + y, return_index=True, return_inverse=True)
    pairs, counts = X[first], np.bincount(pair_of)
    vocabulary = [f"k{j}" for j in range(d)]
    classes = ["Borrow", "Mint", "Swap"]
    expected = mine_signatures(tree, X, vocabulary, classes, threshold=0.6, method=method)
    got = mine_signatures(tree, pairs, vocabulary, classes, threshold=0.6, method=method,
                          counts=counts)
    assert [vars(s) for s in got[0]] == [vars(s) for s in expected[0]]
    assert got[1] == expected[1]
    assert sum(len(s.items) for s in expected[0]) >= 4
    assert sum(s.samples for s in expected[0]) == 700
