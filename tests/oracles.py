"""Independent brute-force reference implementations used by the tests.

Everything here recomputes results along a different algorithmic path than
the package (subset enumeration instead of closed-form combinatorics,
per-point loops instead of vectorized sums, full powerset search instead of
a restricted candidate universe), so agreement between the two is meaningful
evidence rather than the same code run twice.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import re
import string
from collections import Counter

import numpy as np

from motifscope import ingest, motif, storage
from motifscope.etn import EgoTransferNetwork, build_etn
from motifscope.motif import IN, OUT, RECIP

SAMPLE_CATEGORIES = ("Cryptocurrency", "Stablecoin", "Synthetic", "Marketplace", "Unlabeled")


# ---------------------------------------------------------------------------
# random stored transactions (drive the motif equivalence tests)
# ---------------------------------------------------------------------------

def random_tx(rng: np.random.Generator, n_counterparts: int | None = None) -> tuple:
    """A random stored (tx_hash, ego, method group, rows) transaction: 1-11
    counterparts, random types, directions, parallel transfers and row order."""
    if n_counterparts is None:
        n_counterparts = int(rng.integers(1, 12))
    ego = "0xe90"
    rows: list[list] = []
    for i in range(n_counterparts):
        node = f"0xc{i:03d}"
        ntype = str(rng.choice(("A", "C", "N")))
        state = int(rng.integers(0, 3))
        directions = []
        if state in (0, 2):
            directions.append((ego, node, "E", ntype))
        if state in (1, 2):
            directions.append((node, ego, ntype, "E"))
        for src, dst, src_type, dst_type in directions:
            for _ in range(int(rng.integers(1, 3))):
                category = str(rng.choice(SAMPLE_CATEGORIES))
                rows.append([src, dst, src_type, dst_type, "0xt", "TOK", category, 1.0, 1])
    order = rng.permutation(len(rows))
    return "0xtx", ego, None, [rows[int(i)] for i in order]


# ---------------------------------------------------------------------------
# motif counting by explicit subset enumeration
# ---------------------------------------------------------------------------

def role_edges(states: tuple[int, ...]) -> list[tuple[str, str]]:
    """The (source, target) edges of a catalog shape over its roles: the ego
    E and the neighbor roles i and j, which carry states[0] and states[1].
    OUT is an edge E -> role, IN role -> E, RECIP both."""
    edges = []
    for role, state in zip("ij", states):
        out, into = ("E", role), (role, "E")
        edges += {OUT: [out], IN: [into], RECIP: [out, into]}[state]
    return edges


def catalog_json(catalog) -> list[dict]:
    """A catalog's items as the [{id, nodes, edges}] entries of a catalog file."""
    return [{"id": sid, "nodes": ["E", *"ij"[:len(states)]], "edges": role_edges(states)}
            for states, sid in catalog.items()]


def _typed_key(sid: str, states: tuple[int, ...], types: tuple[str, ...]) -> str:
    # re-derives the documented key format: symmetric shapes sort the types
    if len(types) == 2 and states[0] == states[1]:
        types = tuple(sorted(types))
    return f"{sid}(E,{','.join(types)})"


def simple_view(etn: EgoTransferNetwork) -> set[tuple[str, str]]:
    """The ETN's (source, target) pairs, its parallel edges collapsed."""
    return {(src, dst) for src, dst, _ in etn.edges}


def counterparts(etn: EgoTransferNetwork) -> list[str]:
    """The ETN's nodes other than its ego, in first-seen order."""
    return [n for n in etn.node_types if n != etn.ego]


def _matched_subsets(etn: EgoTransferNetwork, catalog, sizes=(1, 2)):
    """Yield (motif id, shape states, role types, subset) for every
    counterpart subset whose induced simple-view subgraph matches a catalog
    shape, the (states, id) items of the catalog.

    Each subset's induced subgraph is matched against every catalog shape by
    trying all role bijections and comparing edge sets.
    """
    nodes = sorted(counterparts(etn))
    types = etn.node_types
    simple = simple_view(etn)
    for r in sizes:
        for subset in itertools.combinations(nodes, r):
            keep = set(subset) | {etn.ego}
            induced = {(s, d) for s, d in simple if s in keep and d in keep}
            for states, sid in catalog.items():
                if len(states) != r:
                    continue
                roles = "ij"[:r]
                for perm in itertools.permutations(subset):
                    assignment = dict(zip(roles, perm))
                    assignment["E"] = etn.ego
                    expected = {(assignment[a], assignment[b]) for a, b in role_edges(states)}
                    if expected == induced:
                        yield sid, states, tuple(types[n] for n in perm), subset
                        break


def brute_force_motifs(etn: EgoTransferNetwork, catalog) -> dict[str, int]:
    """Typed induced motif counts via 1-/2-subset enumeration."""
    counts: dict[str, int] = {}
    for sid, states, matched, _ in _matched_subsets(etn, catalog):
        key = _typed_key(sid, states, matched)
        counts[key] = counts.get(key, 0) + 1
    return counts


def brute_force_motif_edge_features(
    etn: EgoTransferNetwork, catalog, max_nodes: int = 500
) -> dict[str, int]:
    """MxE keys by enumerating counterparts and counterpart pairs directly.

    Every matched instance contributes its typed key + "|" + the labels of
    all edges between the ego and its members, sorted and joined by "+".
    Above max_nodes counterparts only single counterparts are enumerated
    and "__oversize__" is set.
    """
    types = etn.node_types
    oversize = len(counterparts(etn)) > max_nodes
    counts: dict[str, int] = {}
    for sid, states, matched, subset in _matched_subsets(etn, catalog, (1,) if oversize else (1, 2)):
        labels = sorted(
            f"({types[src]},{types[dst]}){category}"
            for src, dst, category in etn.edges
            if src in subset or dst in subset
        )
        key = f"{_typed_key(sid, states, matched)}|{'+'.join(labels)}"
        counts[key] = counts.get(key, 0) + 1
    if oversize:
        counts["__oversize__"] = 1
    return counts


def brute_force_edge_features(etn: EgoTransferNetwork) -> dict[str, int]:
    """Edge-list counts: one "(S,T)category" label per edge, parallels included."""
    return dict(Counter(f"({etn.node_types[src]},{etn.node_types[dst]}){category}"
                        for src, dst, category in etn.edges))


def brute_force_motifs_untyped(etn: EgoTransferNetwork, catalog) -> dict[str, int]:
    """Per-shape counts from the same subset enumeration, types ignored."""
    counts: dict[str, int] = {}
    for key, n in brute_force_motifs(etn, catalog).items():
        sid = key.split("(", 1)[0]
        counts[sid] = counts.get(sid, 0) + n
    return counts


def count_motifs_untyped(tx: tuple, catalog) -> dict[str, int]:
    """Per-shape counts ignoring account types (shape id -> count), from its
    own pass over the stored rows: the reference typed counts marginalize to."""
    _, ego, _, rows = tx
    outs = {dst for src, dst, *_ in rows if src == ego}
    ins = {src for src, dst, *_ in rows if dst == ego}
    per_state = Counter(RECIP if n in outs and n in ins else OUT if n in outs else IN
                   for n in outs | ins)
    counts = {}
    for states, sid in catalog.items():
        if len(states) == 1:
            matched = per_state[states[0]]
        elif states[0] == states[1]:
            matched = per_state[states[0]] * (per_state[states[0]] - 1) // 2
        else:
            matched = per_state[states[0]] * per_state[states[1]]
        if matched:
            counts[sid] = matched
    return counts


# ---------------------------------------------------------------------------
# silhouette by per-point loops
# ---------------------------------------------------------------------------

def canonical_labels(labels) -> np.ndarray:
    """Relabel clusters by first appearance, for permutation-invariant tests."""
    mapping: dict[int, int] = {}
    out = np.empty(len(labels), dtype=np.int64)
    for i, lab in enumerate(labels):
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out


def brute_force_silhouette(X: np.ndarray, labels) -> float:
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    n = len(X)
    clusters = sorted(set(labels.tolist()))

    def dist(i: int, j: int) -> float:
        return float(np.sqrt(((X[i] - X[j]) ** 2).sum()))

    scores = []
    for i in range(n):
        same = [j for j in range(n) if j != i and labels[j] == labels[i]]
        if not same:
            scores.append(0.0)  # singleton cluster
            continue
        a = sum(dist(i, j) for j in same) / len(same)
        b = min(
            sum(dist(i, j) for j in range(n) if labels[j] == c)
            / int((labels == c).sum())
            for c in clusters
            if c != labels[i]
        )
        denom = max(a, b)
        scores.append(0.0 if denom == 0.0 else (b - a) / denom)
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# maximal frequent itemsets by full powerset search
# ---------------------------------------------------------------------------

def brute_force_maximal_itemsets(presence: np.ndarray, threshold: float):
    """All maximal itemsets with support strictly above threshold.

    Enumerates every subset of every present column (no candidate pruning),
    so it independently validates the package's qualifying-singleton
    restriction. Exponential: keep the column count small.
    """
    presence = np.asarray(presence, dtype=bool)
    cols = [j for j in range(presence.shape[1]) if presence[:, j].any()]
    frequent: dict[frozenset, float] = {}
    for r in range(1, len(cols) + 1):
        for combo in itertools.combinations(cols, r):
            support = float(presence[:, combo].all(axis=1).mean())
            if support > threshold:
                frequent[frozenset(combo)] = support
    return [
        (items, sup)
        for items, sup in frequent.items()
        if not any(items < other for other in frequent)
    ]


# ---------------------------------------------------------------------------
# stratified folds with units grouped through a dict
# ---------------------------------------------------------------------------

def reference_stratified_kfold(y, k=10, seed=0, groups=None):
    """learn.stratified_kfold as a dict of group -> rows in first-seen order,
    one index array per unit and a concatenation per fold."""
    n = len(y)
    if groups is None:
        unit_rows = [np.array([i]) for i in range(n)]
        unit_labels = np.asarray(y)
    else:
        by_group: dict[str, list[int]] = {}
        for i, g in enumerate(groups):
            by_group.setdefault(g, []).append(i)
        unit_rows = [np.array(rows) for rows in by_group.values()]
        unit_labels = np.array([y[rows[0]] for rows in unit_rows])
    rng = np.random.default_rng(seed)
    fold_units: list[list[int]] = [[] for _ in range(k)]
    for ci in np.unique(unit_labels):
        members = np.flatnonzero(unit_labels == ci)
        members = members[rng.permutation(len(members))]
        sizes = [len(members) // k + (1 if f < len(members) % k else 0) for f in range(k)]
        rot = int(ci) % k
        sizes = sizes[-rot:] + sizes[:-rot] if rot else sizes
        start = 0
        for f, size in enumerate(sizes):
            fold_units[f].extend(members[start : start + size])
            start += size
    folds = []
    for f in range(k):
        test = np.sort(np.concatenate([unit_rows[u] for u in fold_units[f]]))
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        folds.append((np.flatnonzero(mask), test))
    return folds


# ---------------------------------------------------------------------------
# a random forest fitted on its bootstrap rows
# ---------------------------------------------------------------------------

def reference_forest(X, y, class_weight, n_classes, n_trees, min_leaf, max_features, seed):
    """models.RandomForest.fit's trees, each fitted on the float rows of its
    bootstrap sample (X[boot], y[boot]) with the same draws; max_features is
    a number of features or None."""
    from motifscope.models import DecisionTree, RandomForest

    trees = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, len(y), size=len(y))
        trees.append(DecisionTree.fit(X[boot], y[boot], class_weight, n_classes=n_classes,
                                      min_leaf=min_leaf, max_features=max_features, rng=rng))
    return RandomForest(trees=trees, n_classes=n_classes)


# ---------------------------------------------------------------------------
# split search feature by feature over the column's codes
# ---------------------------------------------------------------------------

def reference_best_split(codes, uniques, y, counts, sums, idx, stats, K, min_leaf,
                         max_features, rng):
    """models._best_split by a loop over the features, each searched with a
    bin per code of the whole column (used or not in the node) and a cut
    after each code present in the node; a feature's best cut replaces the
    best so far only if it is strictly larger. Same arguments and result."""
    d = codes.shape[1]
    if max_features is not None and max_features < d:
        features = np.sort(rng.choice(d, size=max_features, replace=False))
    else:
        features = np.arange(d)
    y_node, m_node = y[idx], counts[idx]
    value, n_node, weight_node, gini = stats
    best_dec = 1e-12 * max(1.0, weight_node)
    best = None
    for f in features:
        codes_f = codes[idx, f].astype(np.intp)
        uf = len(uniques[f])
        cnt = np.bincount(codes_f, weights=m_node, minlength=uf).astype(np.int64)
        present = np.flatnonzero(cnt)
        if present.size < 2:
            continue
        mat = sums(np.bincount(codes_f * K + y_node, weights=m_node,
                               minlength=uf * K).reshape(uf, K))
        cw = np.cumsum(mat, axis=0)
        cn = np.cumsum(cnt)
        pos = present[:-1]
        left_n = cn[pos]
        right_n = n_node - left_n
        valid = (left_n >= min_leaf) & (right_n >= min_leaf)
        if not valid.any():
            continue
        left_vals = cw[pos]
        left_w = left_vals.sum(axis=1)
        right_vals = value - left_vals
        right_w = weight_node - left_w
        with np.errstate(divide="ignore", invalid="ignore"):
            left_g = np.where(left_w > 0, left_w - (left_vals**2).sum(axis=1) / left_w, 0.0)
            right_g = np.where(right_w > 0, right_w - (right_vals**2).sum(axis=1) / right_w, 0.0)
        dec = gini - left_g - right_g
        dec[~valid] = -np.inf
        j = int(np.argmax(dec))
        if dec[j] > best_dec:
            best_dec = dec[j]
            best = (int(f), codes_f, pos[j])
    if best is None:
        return None
    f, codes_f, boundary = best
    present = np.flatnonzero(np.bincount(codes_f, minlength=len(uniques[f])))
    nxt = present[np.searchsorted(present, boundary) + 1]
    threshold = float((uniques[f][boundary] + uniques[f][nxt]) / 2.0)
    return f, threshold, codes_f <= boundary


# ---------------------------------------------------------------------------
# a pruned tree by a recursive walk over its to_dict() rows
# ---------------------------------------------------------------------------

def reference_collapse(obj: dict, pruned_ids) -> dict:
    """A tree's to_dict() object with each node of pruned_ids made a leaf:
    a recursive walk from the root keeps the nodes that no pruned node lies
    above, and their rows are renumbered in the order the walk meets them."""
    rows = obj["nodes"]
    order: list[int] = []

    def walk(i: int) -> None:
        order.append(i)
        if rows[i]["feature"] is not None and i not in pruned_ids:
            walk(rows[i]["left"])
            walk(rows[i]["right"])

    walk(0)
    renumber = {old: new for new, old in enumerate(order)}
    out = []
    for i in order:
        row = dict(rows[i])
        if i in pruned_ids or row["feature"] is None:
            row.update(feature=None, threshold=None, left=None, right=None)
        else:
            row.update(left=renumber[row["left"]], right=renumber[row["right"]])
        out.append(row)
    return {**obj, "nodes": out}


# ---------------------------------------------------------------------------
# the weakest-link pruning path with explicit hidden nodes and a parent walk
# ---------------------------------------------------------------------------

def reference_ccp_path(tree) -> list[tuple[float, int, frozenset]]:
    """(alpha, leaf count, pruned node ids) of each entry on a tree's
    weakest-link pruning path. Each step marks the nodes hidden below a
    pruned node in a forward pass, computes g on the visible nodes in a
    reverse pass, and counts the leaves a cut removes by walking up a parent
    array from each cut node."""
    left, right = tree.left, tree.right  # preorder, same indexing as to_dict()
    n = len(left)
    R = tree.gini / tree.total_weight if tree.total_weight > 0 else np.zeros(n)
    parent = np.full(n, -1, dtype=np.int64)
    inner = np.flatnonzero(left >= 0)
    parent[left[inner]] = inner
    parent[right[inner]] = inner

    pruned: set[int] = set()
    path = [(0.0, tree.n_leaves, frozenset())]
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
        last = path[-1][0]
        if g_min <= last + 1e-15 * (1.0 + abs(last)):
            # same alpha (floating ties): extend the previous snapshot
            path[-1] = (last, new_count, frozenset(pruned))
        else:
            path.append((float(g_min), new_count, frozenset(pruned)))
        if new_count == 1:
            break
    return path


# ---------------------------------------------------------------------------
# signature matching by a per-signature subset test
# ---------------------------------------------------------------------------

def brute_force_match(features: dict, signatures) -> tuple[list, list]:
    """Leaves of the non-empty signatures whose every item has a positive
    count, sorted, and the sorted unique groups of those leaves."""
    leaves, groups = [], []
    for sig in signatures:
        if sig.items and all(features.get(item, 0) > 0 for item in sig.items):
            leaves.append(sig.leaf_id)
            if sig.group not in groups:
                groups.append(sig.group)
    return sorted(leaves), sorted(groups)


# ---------------------------------------------------------------------------
# a batch's transactions and a table's rows expanded, a table of string
# columns, and a dataset by one dict lookup per feature
# ---------------------------------------------------------------------------

def batch_of(transactions) -> "ingest.TransferBatch":
    """The batch of (tx_hash, ego, method group or None, rows) tuples with
    9-field store rows: their store lines, read by storage.decode_lines."""
    lines = [storage.dumps({"tx": tx_hash, "ego": ego, "mg": group, "tr": rows}) + "\n"
             for tx_hash, ego, group, rows in transactions]
    return storage.decode_lines("<transactions>", 1, lines)


def reference_etn(tx) -> EgoTransferNetwork:
    """The ETN of one (tx_hash, ego, method group or None, rows) tuple, built
    row by row from the tuple's strings: a counterpart keeps its first type."""
    _, ego, _, rows = tx
    network = EgoTransferNetwork(ego=ego, node_types={ego: "E"}, edges=[])
    for src, dst, src_type, dst_type, _, _, category, _, _ in rows:
        if ego not in (src, dst):
            network.rejected.append((src, dst))
            continue
        network.node_types.setdefault(src, src_type)
        network.node_types.setdefault(dst, dst_type)
        network.edges.append((src, dst, category))
    return network


def reference_stats(transactions) -> dict:
    """The `stats` report of (tx_hash, ego, method group or None, rows)
    tuples, tallied one tuple at a time."""
    per_account: dict[str, dict] = {}
    histogram: Counter = Counter()
    for _, ego, group, rows in transactions:
        histogram[len(rows)] += 1
        acc = per_account.setdefault(ego, {"transactions": 0, "tokens": set(), "unlabeled": 0})
        acc["transactions"] += 1
        acc["unlabeled"] += group in (None, "Unknown")
        acc["tokens"].update(row[4] or row[5] for row in rows)
    total = len(transactions)
    return {
        "transactions": total,
        "accounts": {ego: {"transactions": acc["transactions"], "tokens": len(acc["tokens"]),
                           "fraction_unlabeled": round(acc["unlabeled"] / acc["transactions"], 6)}
                     for ego, acc in sorted(per_account.items())},
        "transfers_per_transaction": {str(k): v for k, v in sorted(histogram.items())},
        "single_transfer_fraction": round(histogram[1] / total, 6) if total else 0.0,
    }


def etn_of(tx) -> EgoTransferNetwork:
    """The ETN of one (tx_hash, ego, method group or None, rows) tuple."""
    return build_etn(batch_of([tx]), 0)


def transaction_features(tx, catalog, mode, max_nodes=motif.DEFAULT_MAX_NODES):
    """(feature map, rows touching no ego) of one transaction tuple: the map
    of the shape that motif.batch_shapes finds in its batch."""
    shape, rejected = next(motif.batch_shapes(batch_of([tx]), mode, max_nodes))
    return motif.shape_features(catalog, shape), rejected


def stored_transactions(store_dir) -> list[tuple]:
    """transactions_of each batch that storage.read_store reads from a store."""
    return [tx for batch in storage.read_store(store_dir) for tx in transactions_of(batch)]


def transactions_of(batch) -> list[tuple]:
    """The (tx_hash, ego, method group or None, rows) tuples of a
    TransferBatch, each row the store's 9-field list, looked up column by
    column: the tuples that batch_of makes the batch of again."""
    strings, kinds, categories = batch.strings, batch.kinds, batch.categories
    columns = (batch.src, batch.dst, batch.src_kind, batch.dst_kind, batch.contract,
               batch.symbol, batch.category, batch.amount, batch.block)
    tables = (strings, strings, kinds, kinds, strings, strings, categories, None, None)
    rows = [[value if table is None else table[value] for table, value in zip(tables, row)]
            for row in zip(*(column.tolist() for column in columns))]
    offsets = batch.offsets.tolist()
    groups = [None if code < 0 else batch.groups[code] for code in batch.group.tolist()]
    return [(tx_hash, strings[ego], group, rows[start:stop])
            for tx_hash, ego, group, start, stop in zip(
                batch.tx_hashes.tolist(), batch.ego.tolist(), groups, offsets, offsets[1:])]


def feature_table(tx_hashes, egos, feature_maps, map_of=None):
    """FeatureTable.build of rows whose tx hashes and egos are strings: the
    egos numbered in order of first appearance."""
    from motifscope.table import FeatureTable, Strings

    index: dict[str, int] = {}
    ids = np.array([index.setdefault(ego, len(index)) for ego in egos], dtype=np.int32)
    return FeatureTable.build(Strings.pack(list(tx_hashes)), Strings.pack(list(index)), ids,
                              feature_maps, map_of)


def table_rows(table):
    """(tx_hash, ego, features) per row of a FeatureTable, keys in vocabulary order."""
    maps = table.distinct_rows()
    for tx_hash, ego, row in zip(table.tx_hashes.tolist(), table.egos(), table.row_of.tolist()):
        yield tx_hash, ego, dict(maps[row])


def reference_dataset(rows, classes=None, vocabulary=None):
    """(X, y, classes, vocabulary) of (tx_hash, ego, features, label) rows:
    the vocabulary defaults to the sorted keys plus the OOV key, and each
    count is added to its column, or to the OOV column, row by row."""
    from motifscope.motif import OOV_KEY

    if classes is None:
        classes = sorted({label for *_, label in rows})
    if vocabulary is None:
        keys = {key for _, _, feats, _ in rows for key in feats}
        vocabulary = sorted(keys - {OOV_KEY}) + [OOV_KEY]
    X = np.zeros((len(rows), len(vocabulary)))
    for i, (_, _, feats, _) in enumerate(rows):
        for key, count in feats.items():
            col = vocabulary.index(key) if key in vocabulary else vocabulary.index(OOV_KEY)
            X[i, col] += count
    y = np.array([classes.index(label) for *_, label in rows], dtype=np.int64)
    return X, y, classes, vocabulary


# ---------------------------------------------------------------------------
# ingest by one record per transfer and a pass per step
# ---------------------------------------------------------------------------

def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _type_of(accounts, address, ego):
    """The reference's account type: E for the transaction's ego, else the registry kind."""
    return "E" if address == ego else accounts.kind_of(address)


# the characters of an amount float() reads that has no padding, no
# digit-group underscore and no non-ASCII digit
_AMOUNT_CHARS = set(string.digits + string.ascii_letters + "+-.")


def _reference_load_transfers(path, registry, accounts):
    """A (tx_hash, ego, store row) record per valid row, registries consulted
    row by row."""
    transfers, rejects = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 8:
                rejects.append((lineno, "malformed_row"))
                continue
            tx_hash, ego, src, dst, contract, symbol, amount_s, block_s = row
            if not tx_hash:
                rejects.append((lineno, "missing_tx_hash"))
                continue
            if not src or not dst or not ego:
                rejects.append((lineno, "missing_account"))
                continue
            if src == dst:
                rejects.append((lineno, "self_transfer"))
                continue
            try:
                if not set(amount_s) <= _AMOUNT_CHARS:
                    raise ValueError(f"not an ASCII number: {amount_s!r}")
                amount = float(amount_s)
            except ValueError:
                rejects.append((lineno, "bad_amount"))
                continue
            if amount < 0 or amount != amount:
                rejects.append((lineno, "negative_amount"))
                continue
            if math.isinf(amount):
                rejects.append((lineno, "bad_amount"))
                continue
            if not re.fullmatch(r"[0-9]+", block_s) or len(block_s) > 4300:  # int()'s limit
                rejects.append((lineno, "bad_block"))
                continue
            block = int(block_s)
            transfers.append((tx_hash, ego, [
                src, dst, _type_of(accounts, src, ego), _type_of(accounts, dst, ego), contract,
                symbol, registry.resolve(contract, symbol)[0], amount, block,
            ]))
    return transfers, rejects


def reference_ingest(transfers, tokens, accounts, methods, method_groups, out) -> dict:
    """Ingest as separate passes over per-transfer records: load, group by
    (tx_hash, ego), drop spam-touched transactions, join method groups, then
    write each transaction's store line. Writes the same three files as
    `cli.ingest_to_store`."""
    registry = ingest.TokenRegistry.from_file(tokens)
    loaded, rejects = _reference_load_transfers(
        transfers, registry, ingest.AccountRegistry.from_file(accounts))
    buckets: dict[tuple[str, str], list[list]] = {}
    for tx_hash, ego, row in loaded:
        buckets.setdefault((tx_hash, ego), []).append(row)
    kept = {key: rows for key, rows in buckets.items()
            if not any(registry.resolve(row[4], row[5])[1] for row in rows)}
    mapping = ingest.load_method_mapping(method_groups)
    by_hash = {}  # methods.csv in its own csv.reader pass: the later row of a hash wins
    with open(methods, encoding="utf-8", newline="") as fh:
        for tx_hash, raw_method, *_ in itertools.islice(filter(None, csv.reader(fh)), 1, None):
            group = mapping.get(raw_method.strip().casefold())
            by_hash[tx_hash] = group if group in ingest.METHOD_GROUPS else ingest.UNKNOWN
    label_counts = Counter(by_hash[tx_hash] for tx_hash, _ in kept if by_hash.get(tx_hash))
    report = {
        "transfers_read": len(loaded) + len(rejects),
        "transfers_kept": len(loaded),
        "rejected": dict(Counter(reason for _, reason in rejects)),
        "transactions": len(kept),
        "transactions_spam_filtered": len(buckets) - len(kept),
        "labeled": dict(sorted(label_counts.items())),
    }
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "transactions.jsonl"), "w", encoding="utf-8") as fh, \
            open(os.path.join(out, "labels.csv"), "w", encoding="utf-8", newline="") as lfh:
        writer = csv.writer(lfh)
        writer.writerow(["tx_hash", "ego", "method_group"])
        for (tx_hash, ego), rows in kept.items():
            group = by_hash.get(tx_hash)
            fh.write(_dumps({"tx": tx_hash, "ego": ego, "mg": group, "tr": rows}) + "\n")
            if group is not None:
                writer.writerow([tx_hash, ego, group])
    with open(os.path.join(out, "ingest_report.json"), "w", encoding="utf-8") as fh:
        fh.write(_dumps(report) + "\n")
    return report


# ---------------------------------------------------------------------------
# logistic regression on the expanded rows
# ---------------------------------------------------------------------------

def reference_logistic_fit(X, y, sample_weight, n_classes, l2=1.0, max_iter=500):
    """(weights, biases) of one-vs-rest logistic regression fitted on every
    row of X, row i weighted sample_weight[i]: one loss term per row, not
    per distinct (row, class) pair."""
    from scipy.optimize import minimize

    from motifscope.models import logistic_loss_grad

    d = X.shape[1]
    weights, biases = np.zeros((n_classes, d)), np.zeros(n_classes)
    for k in range(n_classes):
        t = (y == k).astype(float)
        res = minimize(logistic_loss_grad, np.zeros(d + 1), args=(X, t, sample_weight, l2),
                       method="L-BFGS-B", jac=True, options={"maxiter": max_iter})
        weights[k], biases[k] = res.x[:-1], res.x[-1]
    return weights, biases


# ---------------------------------------------------------------------------
# finite-difference gradients
# ---------------------------------------------------------------------------

def central_difference(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad
