"""Cost-complexity pruning, per-leaf signature mining, and signature matching.

Pruning follows the standard minimal cost-complexity construction: repeatedly
collapse the internal node(s) with the smallest effective alpha
g(t) = (R(t) - R(T_t)) / (|leaves(T_t)| - 1) where R is the weighted-impurity
share of the root total. The path is computed on the tree's preorder node
arrays; each entry keeps the ids of the nodes collapsed so far and builds its
tree with `DecisionTree.collapsed`. Signatures are maximal frequent feature
itemsets (binarized presence) mined per leaf of the pruned tree, and a
signature's leaf id is its leaf's rank in preorder.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .models import DecisionTree

log = logging.getLogger("motifscope.signatures")

SUPPORT_THRESHOLD = 0.8


# ---------------------------------------------------------------------------
# cost-complexity pruning
# ---------------------------------------------------------------------------

class CcpEntry:
    """One point on the pruning path; the snapshot tree is rebuilt on demand."""

    __slots__ = ("alpha", "leaf_count", "pruned_ids", "_source")

    def __init__(self, alpha: float, leaf_count: int, pruned_ids: frozenset, source: DecisionTree):
        self.alpha = alpha
        self.leaf_count = leaf_count
        self.pruned_ids = pruned_ids
        self._source = source

    @property
    def tree(self) -> DecisionTree:
        return self._source.collapsed(self.pruned_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CcpEntry(alpha={self.alpha:.6g}, leaves={self.leaf_count})"


@dataclass
class CcpPath:
    entries: list[CcpEntry] = field(default_factory=list)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def alphas(self) -> list[float]:
        return [e.alpha for e in self.entries]


def ccp_path(tree: DecisionTree) -> CcpPath:
    """Weakest-link pruning path from the unpruned tree down to the root leaf.

    Ties (several nodes sharing the minimal g) collapse together; alphas on
    the returned path are strictly increasing and leaf counts strictly
    decreasing, starting from the alpha = 0 unpruned entry.
    """
    left, right = tree.left, tree.right  # preorder, same indexing as to_dict()
    n = len(left)
    R = tree.gini / tree.total_weight if tree.total_weight > 0 else np.zeros(n)
    parent = np.full(n, -1, dtype=np.int64)
    inner = np.flatnonzero(left >= 0)
    parent[left[inner]] = inner
    parent[right[inner]] = inner

    pruned: set[int] = set()
    path = CcpPath([CcpEntry(0.0, tree.n_leaves, frozenset(), tree)])
    if n == 1:
        return path
    while True:
        hidden = np.zeros(n, dtype=bool)
        for i in range(n):  # preorder: parents precede children
            if left[i] == -1:
                continue
            if hidden[i] or i in pruned:
                hidden[left[i]] = True
                hidden[right[i]] = True
        leaves_cnt = np.zeros(n, dtype=np.int64)
        R_sub = np.zeros(n)
        g = np.full(n, np.inf)
        for i in range(n - 1, -1, -1):  # reverse preorder = children first
            if hidden[i]:
                continue
            if left[i] == -1 or i in pruned:
                leaves_cnt[i] = 1
                R_sub[i] = R[i]
                continue
            leaves_cnt[i] = leaves_cnt[left[i]] + leaves_cnt[right[i]]
            R_sub[i] = R_sub[left[i]] + R_sub[right[i]]
            g[i] = (R[i] - R_sub[i]) / (leaves_cnt[i] - 1)
        if leaves_cnt[0] == 1:
            break
        g_min = g.min()
        cut_set = {int(i) for i in np.flatnonzero(g <= g_min + 1e-15 * (1.0 + abs(g_min)))}
        pruned.update(cut_set)
        # leaf count after the collapse: only topmost cut nodes remove leaves
        removed = 0
        for i in cut_set:
            j = int(parent[i])
            while j != -1 and j not in cut_set:
                j = int(parent[j])
            if j == -1 and not hidden[i]:
                removed += leaves_cnt[i] - 1
        new_count = int(leaves_cnt[0] - removed)
        last = path.entries[-1]
        if g_min <= last.alpha + 1e-15 * (1.0 + abs(last.alpha)):
            # same alpha (floating ties): extend the previous snapshot
            path.entries[-1] = CcpEntry(last.alpha, new_count, frozenset(pruned), tree)
        else:
            path.entries.append(CcpEntry(float(g_min), new_count, frozenset(pruned), tree))
        if new_count == 1:
            break
    return path


def select_pruned(
    path: CcpPath,
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
    if not path.entries:
        raise ValueError("empty pruning path")
    if target_leaves is not None:
        if target_leaves < 1:
            raise ValueError("target_leaves must be >= 1")
        chosen = None
        for entry in path.entries:  # ascending alpha
            if entry.leaf_count <= target_leaves:
                chosen = entry
                break
        if chosen is None:  # pragma: no cover - last entry always has 1 leaf
            chosen = path.entries[-1]
        if chosen.leaf_count != target_leaves:
            warnings.warn(
                f"no pruning level with exactly {target_leaves} leaves; "
                f"selected {chosen.leaf_count} leaves (alpha={chosen.alpha:.6g})"
            )
    else:
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        chosen = path.entries[0]
        for entry in path.entries[1:]:
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

    @classmethod
    def from_json(cls, obj: dict) -> "LeafSignature":
        """The signature of a to_json() object; TypeError unless its group
        and items are strings."""
        if type(obj["group"]) is not str or not {*map(type, obj["items"])} <= {str}:
            raise TypeError("a signature's group and items must be strings")
        return cls(
            leaf_id=int(obj["leaf"]), group=obj["group"],
            probability=float(obj.get("probability", 0.0)), samples=int(obj.get("samples", 0)),
            items=list(obj["items"]),
            item_supports={k: float(v) for k, v in obj.get("item_supports", {}).items()},
            support=float(obj.get("support", 0.0)),
        )


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
