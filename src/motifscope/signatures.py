"""Cost-complexity pruning, per-leaf signature mining, and signature matching.

Pruning follows the minimal cost-complexity construction of Breiman et al.
(Classification and Regression Trees, 1984): repeatedly collapse the internal
node(s) with the smallest effective alpha
g(t) = (R(t) - R(T_t)) / (|leaves(T_t)| - 1) where R is the weighted-impurity
share of the root total. The path is a list of `CcpEntry`, computed on the
tree's preorder node arrays with one reverse-preorder pass per step that
treats the nodes collapsed so far as leaves; each entry keeps their ids and
builds its tree with `DecisionTree.collapsed`. Signatures are maximal
frequent feature itemsets (binarized presence) mined per leaf of the pruned
tree, and a signature's leaf id is its leaf's rank in preorder.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .ingest import Param, _fields, _strings
from .models import DecisionTree

log = logging.getLogger("motifscope.signatures")

SUPPORT_THRESHOLD = 0.8


# ---------------------------------------------------------------------------
# cost-complexity pruning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CcpEntry:
    """One point on the pruning path; the snapshot tree is rebuilt on demand."""

    alpha: float
    leaf_count: int
    pruned_ids: frozenset
    source: DecisionTree = field(repr=False)

    @property
    def tree(self) -> DecisionTree:
        return self.source.collapsed(self.pruned_ids)


def ccp_path(tree: DecisionTree) -> list[CcpEntry]:
    """Weakest-link pruning path from the unpruned tree down to the root leaf.

    Ties (several nodes sharing the minimal g) collapse together; alphas on
    the returned path are strictly increasing and leaf counts strictly
    decreasing, starting from the alpha = 0 unpruned entry.
    """
    left, right = tree.left.tolist(), tree.right.tolist()  # preorder
    n = len(left)
    R = (tree.gini / tree.total_weight if tree.total_weight > 0 else np.zeros(n)).tolist()
    end = list(range(1, n + 1))  # node i's subtree is the nodes i .. end[i] - 1
    for i in range(n - 1, -1, -1):
        if left[i] >= 0:
            end[i] = end[right[i]]
    path: list[CcpEntry] = []
    pruned: set[int] = set()
    alpha = 0.0
    while True:
        leaves, R_sub, g = [1] * n, R[:], [math.inf] * n
        for i in range(n - 1, -1, -1):  # reverse preorder = children first
            l, r = left[i], right[i]
            if l >= 0 and i not in pruned:  # a pruned node is a leaf
                leaves[i] = leaves[l] + leaves[r]
                R_sub[i] = R_sub[l] + R_sub[r]
                g[i] = (R[i] - R_sub[i]) / (leaves[i] - 1)
        for i in pruned:  # the nodes below a pruned node are gone
            g[i + 1:end[i]] = [math.inf] * (end[i] - i - 1)
        if path and alpha <= path[-1].alpha + 1e-15 * (1.0 + abs(path[-1].alpha)):
            alpha = path.pop().alpha  # same alpha (floating ties): extend the previous snapshot
        path.append(CcpEntry(alpha, leaves[0], frozenset(pruned), tree))
        if leaves[0] == 1:
            return path
        alpha = min(g)
        pruned.update(i for i, gi in enumerate(g) if gi <= alpha + 1e-15 * (1.0 + abs(alpha)))


def select_pruned(
    path: list[CcpEntry],
    target_leaves: Optional[int] = None,
    alpha: Optional[float] = None,
) -> tuple[DecisionTree, CcpEntry]:
    """Pick a snapshot by leaf-count budget or by alpha.

    Leaf-count selection takes the smallest-alpha entry with leaf_count <=
    target; alpha selection takes the largest path alpha <= the given value.
    An unreachable exact target selects the nearest achievable level with a
    warning.
    """
    if (target_leaves is None) == (alpha is None):
        raise ValueError("specify exactly one of target_leaves or alpha")
    if not path:
        raise ValueError("empty pruning path")
    if target_leaves is not None:
        if target_leaves < 1:
            raise ValueError("target_leaves must be >= 1")
        chosen = next(e for e in path if e.leaf_count <= target_leaves)  # ascending alpha
        if chosen.leaf_count != target_leaves:
            warnings.warn(
                f"no pruning level with exactly {target_leaves} leaves; "
                f"selected {chosen.leaf_count} leaves (alpha={chosen.alpha:.6g})"
            )
    else:
        if not alpha >= 0:
            raise ValueError("alpha must be a nonnegative number")
        chosen = path[0]
        for entry in path[1:]:
            if entry.alpha <= alpha:
                chosen = entry
    return chosen.tree, chosen


# ---------------------------------------------------------------------------
# per-leaf signature mining
# ---------------------------------------------------------------------------

@dataclass
class LeafSignature:
    leaf_id: int
    group: str
    probability: float
    samples: int
    items: list[str]
    item_supports: dict[str, float]
    support: float

    def to_json(self) -> dict:
        return {
            "leaf": self.leaf_id,
            "group": self.group,
            "probability": round(self.probability, 6),
            "samples": self.samples,
            "items": self.items,
            "item_supports": {k: round(v, 6) for k, v in self.item_supports.items()},
            "support": round(self.support, 6),
        }

    _FIELDS = {"leaf": Param(int), "group": Param(str), "samples": Param(int, 0),
               "probability": Param(float, 0.0), "support": Param(float, 0.0),
               "items": Param(list, what="a list of strings", ok=_strings),
               "item_supports": Param(dict, {}, "an object of numbers",
                                      lambda v: all(type(x) in (int, float) for x in v.values()))}

    @classmethod
    def from_json(cls, obj, where: str = "") -> "LeafSignature":
        """The signature of a to_json() object, read by _fields(obj, _FIELDS, where)."""
        fields = _fields(obj, cls._FIELDS, where)
        return cls(fields["leaf"], fields["group"], fields["probability"], fields["samples"],
                   fields["items"], dict(fields["item_supports"]), fields["support"])


def _supports(presence: np.ndarray, counts: Optional[np.ndarray]):
    """(row counts, their total, each item's share of the rows): row r of
    presence stands for counts[r] rows, one each when counts is None. Shares
    are integer sums divided once, so they do not depend on how rows repeat."""
    if counts is None:
        counts = np.ones(presence.shape[0], dtype=np.int64)
    n = counts.sum()
    return counts, n, (counts @ presence) / n


def greedy_itemset(
    presence: np.ndarray,
    keys: Sequence[str],
    threshold: float = SUPPORT_THRESHOLD,
    counts: Optional[np.ndarray] = None,
) -> tuple[list[int], float]:
    """Grow an itemset greedily in descending single-item support.

    An item is added only while the joint support stays strictly above the
    threshold. Because support is monotone non-increasing under growth, an
    item rejected once can never be added later, so the single pass already
    yields a maximal set. Row r of presence stands for counts[r] rows.
    """
    counts, n, singles = _supports(presence, counts)
    candidates = [j for j in range(presence.shape[1]) if singles[j] > threshold]
    candidates.sort(key=lambda j: (-singles[j], keys[j]))
    mask = np.ones(presence.shape[0], dtype=bool)
    chosen: list[int] = []
    for j in candidates:
        grown = mask & presence[:, j]
        if counts[grown].sum() / n > threshold:
            chosen.append(j)
            mask = grown
    support = counts[mask].sum() / n if chosen else 0.0
    return chosen, float(support)


def exhaustive_maximal_itemsets(
    presence: np.ndarray,
    threshold: float = SUPPORT_THRESHOLD,
    max_items: int = 15,
    counts: Optional[np.ndarray] = None,
) -> list[tuple[frozenset[int], float]]:
    """All maximal frequent itemsets by bitmask enumeration.

    The universe is restricted to items whose single support exceeds the
    threshold — any other item is provably absent from every frequent set by
    support monotonicity. Only usable when that universe has <= max_items
    members. Row r of presence stands for counts[r] rows.
    """
    counts, n, singles = _supports(presence, counts)
    universe = [j for j in range(presence.shape[1]) if singles[j] > threshold]
    if len(universe) > max_items:
        raise ValueError(f"{len(universe)} candidate items exceed the exhaustive limit {max_items}")
    u = len(universe)
    if u == 0:
        return []
    # encode each row as a bitmask over the candidate universe
    bits = np.zeros(presence.shape[0], dtype=np.int64)
    for pos, j in enumerate(universe):
        bits |= presence[:, j].astype(np.int64) << pos
    patterns, inverse = np.unique(bits, return_inverse=True)
    rows = np.zeros(len(patterns), dtype=np.int64)  # the rows of each pattern
    np.add.at(rows, inverse, counts)
    frequent: dict[int, float] = {}
    for s in range(1, 1 << u):
        sup = rows[(patterns & s) == s].sum() / n
        if sup > threshold:
            frequent[s] = float(sup)
    maximal = []
    for s, sup in frequent.items():
        if any(t != s and (t & s) == s for t in frequent):
            continue
        items = frozenset(universe[pos] for pos in range(u) if s >> pos & 1)
        maximal.append((items, sup))
    return maximal


def mine_leaf_itemset(
    presence: np.ndarray,
    keys: Sequence[str],
    threshold: float = SUPPORT_THRESHOLD,
    method: str = "greedy",
    verify_limit: int = 15,
    counts: Optional[np.ndarray] = None,
) -> tuple[list[int], float, list[str]]:
    """Mine one leaf; returns (column indices, joint support, discrepancy log).

    With the default greedy method, leaves whose candidate universe fits the
    exhaustive limit are cross-checked; a greedy set shorter than the longest
    exhaustive maximal itemset is reported (not silently accepted). The
    exhaustive method raises ValueError when the universe exceeds the limit.
    Row r of presence stands for counts[r] rows.
    """
    discrepancies: list[str] = []
    chosen, support = greedy_itemset(presence, keys, threshold, counts)
    n_candidates = int((_supports(presence, counts)[2] > threshold).sum())
    if method == "exhaustive" or n_candidates <= verify_limit:
        # no candidates: no maximal itemsets, and greedy's ([], 0.0) stands
        maximal = exhaustive_maximal_itemsets(presence, threshold, max_items=verify_limit,
                                              counts=counts)
        if maximal:
            best_len = max(len(m) for m, _ in maximal)
            if method == "exhaustive":
                # longest; ties by higher support then lexicographic key order
                best = sorted(
                    (m for m in maximal if len(m[0]) == best_len),
                    key=lambda m: (-m[1], sorted(keys[j] for j in m[0])),
                )[0]
                chosen, support = sorted(best[0]), best[1]
            elif len(chosen) < best_len:
                msg = (
                    f"greedy itemset of length {len(chosen)} shorter than exhaustive maximum {best_len}"
                )
                log.warning(msg)
                discrepancies.append(msg)
    return list(chosen), support, discrepancies


def _majority(tree: DecisionTree, node: int) -> tuple[int, float]:
    """A node's predicted class (the lowest on ties) and its weight share."""
    value, weight = tree.value[node], tree.weight[node]
    prediction = int(np.argmax(value))
    return prediction, float(value[prediction] / weight) if weight > 0 else 0.0


def mine_signatures(
    tree: DecisionTree,
    X: np.ndarray,
    vocabulary: Sequence[str],
    classes: Sequence[str],
    threshold: float = SUPPORT_THRESHOLD,
    method: str = "greedy",
    counts: Optional[np.ndarray] = None,
) -> tuple[list[LeafSignature], list[str]]:
    """Mine a signature for every leaf of the (pruned) tree over its own rows.

    Row r of X stands for counts[r] rows (one each when counts is None), so
    a dataset's pairs and their counts give the signatures of its rows:
    supports are integer row counts divided once.
    """
    if method not in ("greedy", "exhaustive"):
        raise ValueError(f"unknown mining method {method!r}")
    counts = np.ones(X.shape[0], dtype=np.int64) if counts is None else counts
    leaf_of_row = tree.apply(X)
    signatures = []
    all_discrepancies: list[str] = []
    for leaf_id, node in enumerate(tree.leaves().tolist()):
        rows = np.flatnonzero(leaf_of_row == leaf_id)
        if rows.size == 0:
            continue
        presence = X[rows] > 0
        singles = _supports(presence, counts[rows])[2]
        cols, support, notes = mine_leaf_itemset(presence, vocabulary, threshold, method,
                                                 counts=counts[rows])
        for note in notes:
            all_discrepancies.append(f"leaf {leaf_id}: {note}")
        items = sorted(vocabulary[j] for j in cols)
        prediction, prob = _majority(tree, node)
        signatures.append(
            LeafSignature(
                leaf_id=leaf_id,
                group=classes[prediction],
                probability=prob,
                samples=int(counts[rows].sum()),
                items=items,
                item_supports={vocabulary[j]: float(singles[j]) for j in cols},
                support=support,
            )
        )
    return signatures, all_discrepancies


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def match_signatures(features: dict[str, float], signatures: Iterable[LeafSignature]) -> tuple[list[int], list[str]]:
    """Leaves whose full itemset is present; empty signatures never match."""
    present = {key for key, count in features.items() if count > 0}
    hits = sorted((sig.leaf_id, sig.group) for sig in signatures
                  if sig.items and present.issuperset(sig.items))
    return [leaf for leaf, _ in hits], sorted({group for _, group in hits})


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def tree_to_dot(tree: DecisionTree, vocabulary: Sequence[str], classes: Sequence[str]) -> str:
    lines, edges = ["digraph pruned_tree {", "  node [fontname=\"Helvetica\"];"], []
    leaf_ids = iter(range(tree.n_leaves))
    splits = (a.tolist() for a in (tree.feature, tree.threshold, tree.left, tree.right))
    for i, (f, t, l, r) in enumerate(zip(*splits)):
        if l < 0:
            prediction, prob = _majority(tree, i)
            label = (f"leaf {next(leaf_ids)}\\n{classes[prediction]}\\n"
                     f"n={tree.n_samples[i]} p={prob:.2f}")
            lines.append(f'  n{i} [shape=box, style=rounded, label="{label}"];')
        else:
            key = vocabulary[f] if f < len(vocabulary) else f"f{f}"
            key = key.replace('"', '\\"')
            lines.append(f'  n{i} [shape=ellipse, label="{key}\\n<= {t:g}"];')
            edges += [f'  n{i} -> n{l} [label="yes"];', f'  n{i} -> n{r} [label="no"];']
    return "\n".join(lines + edges + ["}"]) + "\n"
