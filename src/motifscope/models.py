"""Classifiers: one-vs-rest logistic regression, decision tree, random forest.

The tree is grown with weighted Gini impurity so the cost-complexity pruning
and per-leaf signature mining in signatures.py can reuse its internal node
statistics. A `DecisionTree` is one set of arrays over its nodes in preorder
(the node table that `to_dict` writes): the grower appends each node as it
pops it, a leaf's id is its rank among the leaves, prediction routes all rows
down one level at a time, and `collapsed` makes a pruned copy. Feature values
are rank-encoded into a `RankedMatrix`; every node split then reduces to
bincounts over the rank codes. A fit encodes a float matrix once per call
(a forest once for all its trees); callers that fit many trees on row
subsets of one matrix encode it once and pass each subset as `pair_of`.

A fit weights each row by its class, w_c = class_weight[c], the class-prior
weighting of CART (Breiman et al., 1984). Every kind's `fit` takes distinct
(row, class) pairs as X and y and, as `pair_of`, each row's pair (without
it, row i is pair i), and fits the model of the rows from an integer
multiplicity per pair, so no fit needs the rows (`learn.Dataset.X`).
Logistic regression weights pair p's loss term w_c times its multiplicity.
A tree is the rows' tree bit for bit: sample counts and `min_leaf` tests sum
multiplicities, and a bin's class-c weight is read at its count m of class-c
rows from S_c = cumsum([0, w_c, w_c, ...]), the sequential sum of those
rows' weights.

Split search (`_best_split`) bins a node's units by code or, where a column
has more codes than the node has units, by a code's rank among the codes the
node uses (a sort of the node's codes). A node of n units thus costs at most
O(n log n) per feature, never O(the column's codes). It searches the node's
features a block at a time, as many as fit `SPLIT_CELLS` (unit, feature)
cells, so all of them at once on most nodes (the histogram split search of
Ke et al., "LightGBM", 2017): one bincount into a (feature, bin, class)
array, one cumsum along the bins and one flat argmax per block. The block
bounds the temporaries on wide, dense fits such as 50k rows. The search finds
the split of a loop over the features with a bin per code of the column,
which `tests/oracles.py` keeps as the reference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .ingest import Param, _fields


# ---------------------------------------------------------------------------
# logistic regression (one-vs-rest)
# ---------------------------------------------------------------------------

def logistic_loss_grad(
    params: np.ndarray,
    X: np.ndarray,
    t: np.ndarray,
    sample_weight: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray]:
    """Weighted binary cross-entropy (normalized by total weight) + L2 on w.

    params = [w_1..w_d, b]; the bias is not penalized. Normalizing the data
    term by the weight total keeps the optimum invariant to rescaling all
    sample weights by a constant.
    """
    w, b = params[:-1], params[-1]
    z = X @ w + b
    total = sample_weight.sum()
    # log(1 + e^z) - t*z, computed stably
    data = np.logaddexp(0.0, z) - t * z
    loss = float((sample_weight * data).sum() / total + 0.5 * l2 * (w @ w))
    resid = sample_weight * (expit(z) - t) / total
    grad = np.empty_like(params)
    grad[:-1] = X.T @ resid + l2 * w
    grad[-1] = resid.sum()
    return loss, grad


@dataclass
class LogisticModel:
    """One-vs-rest logistic regression trained with L-BFGS-B on (row, class) pairs."""

    weights: np.ndarray  # (K, d)
    biases: np.ndarray  # (K,)
    l2: float = 1.0

    @classmethod
    def fit(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        class_weight: Optional[np.ndarray] = None,
        n_classes: Optional[int] = None,
        l2: float = 1.0,
        max_iter: int = 500,
        pair_of: Optional[np.ndarray] = None,
    ) -> "LogisticModel":
        """Fit on the rows X[pair_of], y[pair_of] as DecisionTree.fit does: pair
        p is one loss term, weighted class_weight[y[p]] times its row count."""
        counts = np.ones(len(y)) if pair_of is None else np.bincount(pair_of, minlength=len(y))
        d = X.shape[1]
        K = int(n_classes if n_classes is not None else y[counts > 0].max() + 1)
        class_weight = np.ones(K) if class_weight is None else np.asarray(class_weight, float)
        sample_weight = class_weight[y] * counts
        weights = np.zeros((K, d))
        biases = np.zeros(K)
        for k in range(K):
            t = (y == k).astype(float)
            res = minimize(
                logistic_loss_grad,
                np.zeros(d + 1),
                args=(X, t, sample_weight, l2),
                method="L-BFGS-B",
                jac=True,
                options={"maxiter": max_iter},
            )
            if not res.success:
                warnings.warn(
                    f"logistic fit for class {k} stopped early: {res.message}",
                    RuntimeWarning,
                )
            weights[k] = res.x[:-1]
            biases[k] = res.x[-1]
        return cls(weights=weights, biases=biases, l2=l2)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights.T + self.biases

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_function(X), axis=1)

    def to_dict(self) -> dict:
        return {
            "kind": "logistic",
            "l2": self.l2,
            "weights": self.weights.tolist(),
            "biases": self.biases.tolist(),
        }

    _FIELDS = {"kind": Param(None, choices=("logistic",)), "l2": Param(float, 1.0),
               "weights": Param(list), "biases": Param(list)}

    @classmethod
    def from_dict(cls, obj: dict) -> "LogisticModel":
        fields = _fields(obj, cls._FIELDS)
        return cls(weights=np.asarray(fields["weights"], dtype=float),
                   biases=np.asarray(fields["biases"], dtype=float), l2=fields["l2"])


# ---------------------------------------------------------------------------
# rank encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankedMatrix:
    """A float matrix as per-column rank codes plus each column's sorted uniques.

    codes[i, f] is the index of X[i, f] in uniques[f]. The codes use the
    narrowest unsigned dtype that holds the largest per-column unique count.
    A fit on a row subset, given as `pair_of`, may leave some codes unused;
    split search only looks at the codes present in a node, which makes it
    identical to a fit on `X[rows]`.
    """

    codes: np.ndarray  # (n, d)
    uniques: tuple[np.ndarray, ...]  # d sorted value arrays

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape


def rank_encode(X: Union[np.ndarray, RankedMatrix]) -> RankedMatrix:
    """Rank-encode each column of X; a RankedMatrix is returned as it is."""
    if isinstance(X, RankedMatrix):
        return X
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    codes = np.empty((n, d), dtype=np.uint8)
    uniques = []
    for f in range(d):
        uniq, inv = np.unique(X[:, f], return_inverse=True)
        dtype = np.promote_types(codes.dtype, np.min_scalar_type(len(uniq)))
        if dtype != codes.dtype:
            codes = codes.astype(dtype)
        codes[:, f] = inv
        uniques.append(uniq)
    return RankedMatrix(codes, tuple(uniques))


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------

def _node_gini(value: np.ndarray, weight: float) -> float:
    if weight <= 0:
        return 0.0
    return float(weight - (value @ value) / weight)


@dataclass(eq=False)
class DecisionTree:
    """A binary tree as arrays over its nodes in preorder: node 0 is the root
    and an inner node's left child is the node after it. A row goes left when
    X[row, feature] <= threshold; feature, threshold, left and right are -1
    at a leaf. A leaf's id is its rank among the leaves in preorder."""

    feature: np.ndarray  # (nodes,)
    threshold: np.ndarray  # (nodes,)
    left: np.ndarray  # (nodes,)
    right: np.ndarray  # (nodes,)
    value: np.ndarray  # (nodes, n_classes) per-class weight sums
    n_samples: np.ndarray  # (nodes,) raw counts
    weight: np.ndarray  # (nodes,)
    gini: np.ndarray  # (nodes,) unnormalized: W * (1 - sum p^2)
    n_classes: int
    min_leaf: int = 10
    total_weight: float = 0.0

    @classmethod
    def fit(
        cls,
        X: Union[np.ndarray, RankedMatrix],
        y: np.ndarray,
        class_weight: Optional[np.ndarray] = None,
        n_classes: Optional[int] = None,
        min_leaf: int = 10,
        max_features: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        pair_of: Optional[np.ndarray] = None,
    ) -> "DecisionTree":
        """Fit on the rows X[pair_of], y[pair_of] (X and y without pair_of),
        a row of class c weighted class_weight[c] (default 1). X and y may
        hold each distinct (row, class) pair once: the tree is bit for bit
        the one of the rows, fitted from each pair's multiplicity."""
        # node splits are bincounts over the rank codes
        ranked = rank_encode(X)
        y = np.asarray(y, dtype=np.int64)
        if pair_of is None:
            pair_of = np.arange(len(y))
        row_y = y[pair_of]
        K = int(n_classes if n_classes is not None else row_y.max() + 1)
        class_weight = np.ones(K) if class_weight is None else np.asarray(class_weight, float)
        total_weight = float(class_weight[row_y].sum())
        counts = np.bincount(pair_of, minlength=len(y))  # each pair's multiplicity
        sums = _class_sums(class_weight, np.bincount(row_y, minlength=K))

        # per node: [feature, threshold, left, right] and (value, n_samples, weight, gini)
        splits, stats = [], []
        # pairs no row uses are no unit of any node
        stack = [(np.flatnonzero(counts), -1)]  # a node's units and, for a right child, its parent
        while stack:
            idx, parent = stack.pop()
            node = len(stats)  # nodes are appended as popped, in preorder
            if parent >= 0:
                splits[parent][3] = node
            class_rows = np.bincount(y[idx], weights=counts[idx], minlength=K)
            n_samples, value = int(class_rows.sum()), sums(class_rows)
            weight_sum = float(value.sum())
            gini = _node_gini(value, weight_sum)
            stats.append((value, n_samples, weight_sum, gini))
            splits.append([-1, -1.0, -1, -1])
            if n_samples < 2 * min_leaf or gini <= 0.0:
                continue
            split = _best_split(ranked.codes, ranked.uniques, y, counts, sums, idx, stats[-1], K,
                                min_leaf, max_features, rng)
            if split is None:
                continue
            feature, threshold, left_mask = split
            if left_mask.all() or not left_mask.any():
                raise AssertionError(f"the split of node {node} leaves a side empty")
            splits[node][:3] = feature, threshold, node + 1  # the left child is popped next
            stack.append((idx[~left_mask], node))
            stack.append((idx[left_mask], -1))
        tree = cls(*map(np.array, zip(*splits)), *map(np.array, zip(*stats)), K, min_leaf,
                   total_weight)
        small = (tree.left < 0) & (tree.n_samples < min_leaf)
        if small[1:].any():
            raise AssertionError(f"a leaf violates min_leaf={min_leaf}")
        return tree

    # -- structure ----------------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return int((self.left < 0).sum())

    def leaves(self) -> np.ndarray:
        """The leaves' nodes in preorder: leaf id k is node leaves()[k]."""
        return np.flatnonzero(self.left < 0)

    def collapsed(self, nodes: Iterable[int]) -> "DecisionTree":
        """This tree with each of the given nodes made a leaf. The nodes below
        them go; the rest keep their order and are numbered again."""
        feature, threshold, left, right, *stats = self._arrays()
        split = left >= 0
        split[list(nodes)] = False
        keep = np.zeros_like(split)
        keep[0] = True
        for i, (l, r) in enumerate(zip(left.tolist(), right.tolist())):  # parents come first
            if keep[i] and split[i]:
                keep[l] = keep[r] = True
        new, split = np.cumsum(keep) - 1, split[keep]
        links = (feature[keep], threshold[keep], new[left[keep]], new[right[keep]])
        return DecisionTree(*(np.where(split, a, -1) for a in links), *(a[keep] for a in stats),
                            self.n_classes, self.min_leaf, self.total_weight)

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (self.feature, self.threshold, self.left, self.right, self.value,
                self.n_samples, self.weight, self.gini)

    # -- inference ----------------------------------------------------------

    def _leaf_of(self, X: np.ndarray) -> np.ndarray:
        """The leaf node each row of X reaches; all rows go down one level a step."""
        X = np.asarray(X, dtype=float)
        node = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.arange(X.shape[0])
        while rows.size:
            at = node[rows]
            inner = self.left[at] >= 0
            rows, at = rows[inner], at[inner]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        # argmax returns the first maximum, i.e. the lowest class index on ties
        return self.value.argmax(axis=1)[self._leaf_of(X)]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf id (preorder numbering) reached by each row."""
        return (np.cumsum(self.left < 0) - 1)[self._leaf_of(X)]

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        rows = []
        for f, t, l, r, v, n, w, g in zip(*(a.tolist() for a in self._arrays())):
            f, t, l, r = (None,) * 4 if l < 0 else (f, t, l, r)
            rows.append({"feature": f, "threshold": t, "left": l, "right": r,
                         "value": v, "n": n, "weight": w, "gini": g})
        return {
            "kind": "tree",
            "n_classes": self.n_classes,
            "min_leaf": self.min_leaf,
            "total_weight": self.total_weight,
            "nodes": rows,
        }

    _FIELDS = {"kind": Param(None, choices=("tree",)), "n_classes": Param(int),
               "min_leaf": Param(int), "total_weight": Param(float), "nodes": Param(list)}

    @classmethod
    def from_dict(cls, obj: dict) -> "DecisionTree":
        """The tree of a to_dict() object; ValueError unless its nodes are one
        binary tree numbered in preorder, each with an int64 count n."""
        fields = _fields(obj, cls._FIELDS)
        rows = fields["nodes"]
        _check_preorder(rows)
        if not all(type(r["n"]) is int and -(1 << 63) <= r["n"] < 1 << 63 for r in rows):
            raise ValueError("a tree node's n is not a 64-bit integer")
        split = [(-1, -1.0, -1, -1) if r["feature"] is None else
                 (int(r["feature"]), float(r["threshold"]), r["left"], r["right"]) for r in rows]
        stats = (("value", float), ("n", np.int64), ("weight", float), ("gini", float))
        tree = cls(*map(np.array, zip(*split)),
                   *(np.array([r[key] for r in rows], dtype=dtype) for key, dtype in stats),
                   fields["n_classes"], fields["min_leaf"], fields["total_weight"])
        if tree.value.shape != (len(rows), tree.n_classes):
            raise ValueError(f"tree node values are not {tree.n_classes} per node")
        return tree


def _check_preorder(rows: list) -> None:
    """Raise ValueError unless a walk from node 0 that goes left first meets
    every node once, in index order, and every split feature is >= 0."""
    n, seen, stack = len(rows), 0, [0]
    while stack:
        i = stack.pop()
        if i != seen or i >= n:
            raise ValueError(f"tree nodes are not in preorder: a link to node {i} where "
                             f"node {seen} belongs ({n} nodes)")
        seen += 1
        if rows[i]["feature"] is not None:
            if rows[i]["feature"] < 0:
                raise ValueError(f"negative feature at tree node {i}")
            stack += [rows[i]["right"], rows[i]["left"]]
    if seen < n:
        raise ValueError(f"{n - seen} of {n} tree nodes are not reachable from node 0")


def _class_sums(class_weight: np.ndarray, class_rows: np.ndarray
                ) -> Callable[[np.ndarray], np.ndarray]:
    """The lookup that turns row counts m[..., c] into class-weight sums:
    table[offset[c] + m], where the table holds each class's cumsum of its
    weight after a 0 (class_rows[c] + 1 entries), which is what np.bincount
    adds up over m rows of weight w_c, one by one."""
    offset = np.concatenate(([0], np.cumsum(class_rows + 1)[:-1]))
    table = np.concatenate([np.concatenate(([0.0], np.cumsum(np.full(m, w))))
                            for w, m in zip(class_weight.tolist(), class_rows.tolist())])
    return lambda m: table[offset + m.astype(np.intp)]


# (unit, feature) cells one pass of a split search covers: its key and weight
# temporaries take 8 bytes a cell, and its count arrays at most K times that
SPLIT_CELLS = 1 << 18


def _best_split(
    codes: np.ndarray,
    uniques: Sequence[np.ndarray],
    y: np.ndarray,
    counts: np.ndarray,
    sums: Callable[[np.ndarray], np.ndarray],
    idx: np.ndarray,
    stats: tuple[np.ndarray, int, float, float],
    K: int,
    min_leaf: int,
    max_features: Optional[int],
    rng: Optional[np.random.Generator],
) -> Optional[tuple[int, float, np.ndarray]]:
    """The best split of the node whose pairs are idx, or None; counts is
    each pair's multiplicity and sums the class-sum lookup. stats is the
    node's (value, n_samples, weight, gini). The split is the first, in
    (feature, code) order, of those with the largest Gini decrease, if that
    exceeds a rounding margin."""
    d = codes.shape[1]
    if max_features is not None and max_features < d:
        if rng is None:
            raise ValueError("max_features requires an rng")
        features = np.sort(rng.choice(d, size=max_features, replace=False))
    else:
        features = np.arange(d)
    sub = codes.take(idx, axis=0)  # two takes copy faster than one np.ix_ index
    if len(features) < d:
        sub = sub.take(features, axis=1)
    # a feature constant across the node's units cannot split it
    varies = (sub != sub[0]).any(axis=0)
    if not varies.all():
        features, sub = features[varies], sub[:, varies]
    if not features.size:
        return None
    y_node, m_node = y[idx], counts[idx]
    best, best_dec = None, 1e-12 * max(1.0, stats[2])
    step = max(1, SPLIT_CELLS // len(idx))
    for start in range(0, len(features), step):
        dec, column, boundary = _block_split(sub[:, start:start + step], y_node, m_node, sums,
                                             stats, K, min_leaf)
        if dec > best_dec:  # strict: ties go to the earlier block
            best_dec, best = dec, (start + column, boundary)
    if best is None:
        return None
    column, boundary = best  # units whose code is <= boundary go left
    f, codes_f = int(features[column]), sub[:, column]
    left = codes_f <= boundary
    threshold = float((uniques[f][boundary] + uniques[f][codes_f[~left].min()]) / 2.0)
    return f, threshold, left


def _block_split(codes, y, counts, sums, stats, K, min_leaf):
    """(decrease, column, boundary code) of the best cut of a node over the
    columns of codes, all in one pass: one bincount per (column, bin, class)
    of the units' row counts, the class-sum lookup on them, a cumsum along
    the bins and one flat argmax over every (column, cut). A bin is a code
    or, when the node's largest code reaches its unit count, a code's rank
    among the column's codes the node uses, so the arrays grow with the node
    and not with the columns. Bins no unit fills add exactly 0.0 to the
    cumsums, and argmax takes the first maximum in (column, cut) order, so
    the cut is the one a search column by column finds."""
    n, F = codes.shape
    key = codes.astype(np.intp)  # (unit, column) -> bin, then the count key
    U = int(key.max()) + 1
    ranked = U > n
    if ranked:
        offset = np.arange(F) * U
        key += offset
        present, key = np.unique(key, return_inverse=True)
        first = np.searchsorted(present, offset)
        key = key.reshape(n, F) - first
        U = int(np.diff(first, append=len(present)).max())
    key += np.arange(F) * U
    key *= K
    key += y[:, None]
    cw = np.bincount(key.ravel(), weights=np.repeat(counts.astype(float), F),
                     minlength=F * U * K).reshape(F, U, K)
    cnt, cw = cw.sum(axis=2), sums(cw)
    dec = _gini_decrease(np.cumsum(cw, axis=1), np.cumsum(cnt, axis=1), cnt > 0, stats,
                         min_leaf)
    best = int(np.argmax(dec))
    column, b = divmod(best, U)
    return dec.flat[best], column, int(np.unique(codes[:, column])[b]) if ranked else b


def _gini_decrease(cw: np.ndarray, cn: np.ndarray, present: np.ndarray,
                   stats: tuple[np.ndarray, int, float, float], min_leaf: int) -> np.ndarray:
    """The Gini decrease of a cut after each bin, given the cumulative class
    weights cw (..., bins, K) and unit counts cn (..., bins); -inf after a bin
    no unit fills or where a side gets fewer than min_leaf units, or none."""
    value, n_node, weight_node, gini = stats
    left_w = cw.sum(axis=-1)
    right_w = weight_node - left_w
    right_vals = value - cw
    with np.errstate(divide="ignore", invalid="ignore"):
        left_g = np.where(left_w > 0, left_w - (cw**2).sum(axis=-1) / left_w, 0.0)
        right_g = np.where(right_w > 0, right_w - (right_vals**2).sum(axis=-1) / right_w, 0.0)
    dec = gini - left_g - right_g
    right_n = n_node - cn
    dec[~(present & (cn >= min_leaf) & (right_n >= max(min_leaf, 1)))] = -np.inf
    return dec


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

@dataclass
class RandomForest:
    trees: list[DecisionTree] = field(default_factory=list)
    n_classes: int = 0

    @classmethod
    def fit(
        cls,
        X: Union[np.ndarray, RankedMatrix],
        y: np.ndarray,
        class_weight: Optional[np.ndarray] = None,
        n_classes: Optional[int] = None,
        n_trees: int = 100,
        min_leaf: int = 10,
        max_features: Optional[str] = "sqrt",
        seed: int = 0,
        pair_of: Optional[np.ndarray] = None,
    ) -> "RandomForest":
        """Fit n_trees trees, each on a bootstrap sample of the rows; X, y,
        class_weight and pair_of are as in DecisionTree.fit. A tree gets its
        sample as indices into X, so it fits on the multiplicities of the
        rows drawn."""
        ranked = rank_encode(X)  # once for all the trees
        d = ranked.shape[1]
        if pair_of is None:
            pair_of = np.arange(len(y))
        n = len(pair_of)
        K = int(n_classes if n_classes is not None else np.asarray(y)[pair_of].max() + 1)
        if max_features == "sqrt":
            m: Optional[int] = max(1, int(np.sqrt(d)))
        elif max_features is None:
            m = None
        else:
            m = int(max_features)
        seeds = np.random.SeedSequence(seed).spawn(n_trees)
        trees = []
        for child in seeds:
            rng = np.random.default_rng(child)
            boot = rng.integers(0, n, size=n)
            trees.append(
                DecisionTree.fit(
                    ranked,
                    y,
                    class_weight=class_weight,
                    n_classes=K,
                    min_leaf=min_leaf,
                    max_features=m,
                    rng=rng,
                    pair_of=pair_of[boot],
                )
            )
        return cls(trees=trees, n_classes=K)

    def predict(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros((X.shape[0], self.n_classes), dtype=np.int64)
        rows = np.arange(X.shape[0])
        for tree in self.trees:
            votes[rows, tree.predict(X)] += 1
        # argmax breaks ties toward the lowest class index (global class order)
        return np.argmax(votes, axis=1)

    def to_dict(self) -> dict:
        return {
            "kind": "forest",
            "n_classes": self.n_classes,
            "trees": [tree.to_dict() for tree in self.trees],
        }

    _FIELDS = {"kind": Param(None, choices=("forest",)), "n_classes": Param(int),
               "trees": Param(list, what="a non-empty list", ok=bool)}

    @classmethod
    def from_dict(cls, obj: dict) -> "RandomForest":
        fields = _fields(obj, cls._FIELDS)
        return cls(trees=[DecisionTree.from_dict(t) for t in fields["trees"]],
                   n_classes=fields["n_classes"])
