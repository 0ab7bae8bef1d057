"""Account signature-usage profiles and hierarchical clustering.

Profiles count matched transactions per (account, leaf signature), normalize
rows to proportions, then z-score columns across accounts. The pipeline builds
them from the match stage's in-memory (account, leaves) results. Clustering
runs scipy's agglomerative linkage over the z-scored rows with Euclidean
distance; the number of clusters is chosen by maximizing the silhouette
(Rousseeuw 1987) over flat cuts. Every cut's clusters are runs in the
dendrogram's leaf order, so the silhouettes of all cuts come from one pass
over row blocks of distances, with no n x n matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.cluster.hierarchy import fcluster, leaves_list, linkage
from scipy.spatial.distance import cdist, pdist, squareform

from . import storage
from .ingest import _bad_line, _csv_rows

LINKAGES = ("ward", "complete", "average")
DEFAULT_MIN_MATCHES = 10
K_CAP = 15
# The most accounts the CLI clusters. scipy's linkage holds all n(n-1)/2 pair
# distances as doubles, and about twice that at its peak: 122 MB measured at
# 4,000 accounts, about 0.8 GB at this cap and more than 3 GB at 28,000.
MAX_CLUSTER_ACCOUNTS = 10_000


@dataclass
class Profiles:
    accounts: list[str]
    leaf_ids: list[int]
    raw: np.ndarray  # (n_accounts, n_leaves) match counts

    @property
    def totals(self) -> np.ndarray:
        return self.raw.sum(axis=1)

    @property
    def normalized(self) -> np.ndarray:
        totals = self.totals.astype(float)
        out = np.zeros_like(self.raw, dtype=float)
        nz = totals > 0
        out[nz] = self.raw[nz] / totals[nz, None]
        return out

    @property
    def zscored(self) -> np.ndarray:
        return zscore_columns(self.normalized)


def zscore_columns(M: np.ndarray) -> np.ndarray:
    """Column z-scores with sample sd (ddof=1); constant columns become 0."""
    M = np.asarray(M, dtype=float)
    mean = M.mean(axis=0)
    if M.shape[0] > 1:
        sd = M.std(axis=0, ddof=1)
    else:
        sd = np.zeros(M.shape[1])
    out = np.zeros_like(M)
    nz = sd > 0
    out[:, nz] = (M[:, nz] - mean[nz]) / sd[nz]
    return out


def build_profiles(matches: Iterable[tuple[str, Sequence[int]]]) -> Profiles:
    """Aggregate (account, matched leaf ids) events into count profiles.

    A transaction matching several signatures counts once per matched leaf;
    accounts with no match have no row.
    """
    counts: dict[str, dict[int, int]] = {}
    for account, leaf_ids in matches:
        if not leaf_ids:
            continue
        row = counts.setdefault(account, {})
        for leaf in leaf_ids:
            row[leaf] = row.get(leaf, 0) + 1
    names = sorted(counts)
    leaf_ids = sorted({leaf for row in counts.values() for leaf in row})
    col = {leaf: j for j, leaf in enumerate(leaf_ids)}
    raw = np.zeros((len(names), len(leaf_ids)), dtype=np.int64)
    for i, name in enumerate(names):
        for leaf, c in counts[name].items():
            raw[i, col[leaf]] = c
    return Profiles(accounts=names, leaf_ids=leaf_ids, raw=raw)


def filter_min_matches(profiles: Profiles, min_matches: int = DEFAULT_MIN_MATCHES) -> Profiles:
    keep = np.flatnonzero(profiles.totals >= min_matches)
    dropped = len(profiles.accounts) - keep.size
    if dropped:
        warnings.warn(
            f"excluded {dropped} account(s) with fewer than {min_matches} matched transactions"
        )
    return Profiles(
        accounts=[profiles.accounts[i] for i in keep],
        leaf_ids=list(profiles.leaf_ids),
        raw=profiles.raw[keep],
    )


def write_profiles_csv(profiles: Profiles, path) -> None:
    """account,total,leaf_<id>... with one row of match counts per account."""
    storage.write_csv(path, ["account", "total"] + [f"leaf_{j}" for j in profiles.leaf_ids], (
        [account, total] + counts for account, total, counts in zip(
            profiles.accounts, profiles.totals.tolist(), profiles.raw.tolist())))


def read_profiles_csv(path) -> Profiles:
    """Profiles from a write_profiles_csv file. A row whose counts are not
    integers from 0 to 2^63 - 1, or whose total is not their sum, raises
    InputError naming the file and line."""
    rows = _csv_rows(path, "profiles")
    header = next(rows, None)
    if not header or header[:2] != ["account", "total"] or not all(
        h.startswith("leaf_") and h[5:].isdigit() for h in header[2:]
    ):
        raise _bad_line("profiles", path, 1, "header must be account,total,leaf_<id>...")
    leaf_ids = [int(h[5:]) for h in header[2:]]
    accounts, counts = [], []
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise _bad_line("profiles", path, lineno, f"{len(row)} fields, expected {len(header)}")
        try:
            total, values = int(row[1]), [int(v) for v in row[2:]]
            if not all(0 <= v < storage._INT64 for v in values):
                raise ValueError("a count is negative or outside the 64-bit integers")
            if total != sum(values):
                raise ValueError(f"total {total} is not the sum of the row's counts, {sum(values)}")
            if total >= storage._INT64:
                raise ValueError("the counts sum beyond the 64-bit integers")
        except ValueError as exc:
            raise _bad_line("profiles", path, lineno, exc) from exc
        counts.append(values)
        accounts.append(row[0])
    raw = np.array(counts, dtype=np.int64) if counts else np.zeros((0, len(leaf_ids)), dtype=np.int64)
    return Profiles(accounts=accounts, leaf_ids=leaf_ids, raw=raw)


# ---------------------------------------------------------------------------
# silhouette + clustering
# ---------------------------------------------------------------------------

def pairwise_distances(X: np.ndarray) -> np.ndarray:
    """The square n x n distance matrix; clustering itself never builds it."""
    # pdist computes sqrt(sum((a-b)^2)) on the differences directly; the
    # gram-matrix shortcut loses ~1e-8 to cancellation on close points.
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 2:
        return np.zeros((X.shape[0], X.shape[0]))
    return squareform(pdist(X))


def _distance_sums(X: np.ndarray, order: np.ndarray, cuts: Sequence[np.ndarray],
                   block_bytes: int = 1 << 23) -> tuple[list[np.ndarray], float]:
    """Each point's total distance to every cluster of each cut, and the
    largest distance, from one pass over blocks of cdist(X[order], X[block]).

    A cluster's sum runs over the runs of its label in `order`: one slice
    when the cluster is one run (every cluster of every cut, when `order` is
    the dendrogram's leaf order), run by run when it is split. Slices are
    summed down their rows, one distance after another in `order`, as numpy
    sums the columns of D[:, labels == c]. Columns of each (n, k) sum follow
    the sorted labels. Peak memory is one block, not n x n.
    """
    n = X.shape[0]
    Xo = X[order]
    sums, plans = [], []
    for labels in cuts:
        ordered = np.asarray(labels)[order]
        uniq = np.unique(ordered)
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        cols = np.searchsorted(uniq, ordered[starts])
        plans.append(list(zip(starts.tolist(), np.r_[starts[1:], n].tolist(), cols.tolist())))
        sums.append(np.zeros((n, uniq.size)))
    top = 0.0
    step = max(1, block_bytes // (8 * n))
    for lo in range(0, n, step):
        D = cdist(Xo, X[lo:lo + step])  # bitwise equal to squareform(pdist(X))[order, block]
        top = np.maximum(top, D.max())
        for out, runs in zip(sums, plans):
            rows = out[lo:lo + step]
            for start, end, col in runs:
                rows[:, col] += D[start:end].sum(axis=0)
    return sums, float(top)


def silhouette_score(X: np.ndarray, labels: np.ndarray, sums: Optional[np.ndarray] = None) -> float:
    """Mean silhouette over points; singleton-cluster points score 0.

    sums, if given, is each point's (n, k) total distance to every cluster,
    columns in sorted label order, so callers scoring several cuts of the
    same rows compute all of them in one pass (see hcluster).
    """
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if uniq.size < 2 or uniq.size > len(labels) - 1:
        raise ValueError("silhouette needs 2 <= k <= n-1 clusters")
    if sums is None:
        # stable order keeps each cluster's columns in index order
        (sums,), _ = _distance_sums(np.asarray(X, dtype=float),
                                    np.argsort(labels, kind="stable"), [labels])
    rows = np.arange(len(labels))
    own = np.searchsorted(uniq, labels)
    sizes = np.bincount(own, minlength=uniq.size)
    size_own = sizes[own]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[rows, own] / (size_own - 1)
        other = sums / sizes
        other[rows, own] = np.inf
        b = other.min(axis=1)
        denom = np.maximum(a, b)
        s = (b - a) / denom
    # singletons score 0 by convention, and so do points with a = b = 0
    s[(size_own <= 1) | (denom == 0)] = 0.0
    return float(s.mean())


@dataclass
class ClusteringResult:
    linkage_matrix: np.ndarray
    assignments: dict[int, np.ndarray]  # k -> labels
    silhouettes: dict[int, float]
    chosen_k: int
    notes: list[str] = field(default_factory=list)

    def chosen_labels(self) -> np.ndarray:
        return self.assignments[self.chosen_k]

    def to_json(self, accounts: Sequence[str]) -> dict:
        return {
            "chosen_k": self.chosen_k,
            "silhouettes": {str(k): round(v, 6) for k, v in sorted(self.silhouettes.items())},
            "assignments": {
                account: int(label) for account, label in zip(accounts, self.chosen_labels())
            },
            "merges": np.round(self.linkage_matrix, 9).tolist(),
            "notes": self.notes,
        }


def hcluster(Z_rows: np.ndarray, method: str = "ward") -> ClusteringResult:
    """Agglomerative clustering over z-scored rows; k chosen by silhouette.

    Flat cuts are evaluated for k in [2, min(15, n-1)]; silhouette ties break
    toward the smaller k. Degenerate inputs (n < 3 or all-identical rows) fall
    back to a single k = 2 cut with a note.
    """
    if method not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}")
    X = np.asarray(Z_rows, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ValueError("clustering needs at least 2 profiles")
    notes: list[str] = []
    Zm = linkage(X, method=method)
    if n < 3:
        notes.append("fewer than 3 accounts: silhouette undefined, reporting the single k=2 cut")
        warnings.warn(notes[-1])
        labels = fcluster(Zm, t=2, criterion="maxclust")
        return ClusteringResult(Zm, {2: labels}, {}, 2, notes)
    assignments: dict[int, np.ndarray] = {}
    for k in range(2, min(K_CAP, n - 1) + 1):
        labels = fcluster(Zm, t=k, criterion="maxclust")
        if np.unique(labels).size >= 2:  # a collapsed cut (duplicate heights) has no silhouette
            assignments[k] = labels
    # every flat cut's clusters are dendrogram subtrees: runs in the leaf order
    sums, top = _distance_sums(X, leaves_list(Zm), list(assignments.values()))
    if top <= 1e-8:
        notes.append("all profiles identical: silhouette set to 0, reporting k=2")
        warnings.warn(notes[-1])
        labels = fcluster(Zm, t=2, criterion="maxclust")
        return ClusteringResult(Zm, {2: labels}, {2: 0.0}, 2, notes)
    silhouettes = {k: silhouette_score(X, labels, cut_sums)
                   for (k, labels), cut_sums in zip(assignments.items(), sums)}
    chosen = max(sorted(silhouettes), key=lambda k: silhouettes[k])
    return ClusteringResult(Zm, assignments, silhouettes, chosen, notes)


# ---------------------------------------------------------------------------
# plot-data export
# ---------------------------------------------------------------------------

def emit_clustermap_data(result: ClusteringResult, profiles: Profiles) -> dict:
    """Row/column dendrogram orders, z-matrix, and labels for external plotting."""
    Z = profiles.zscored
    row_order = [int(i) for i in leaves_list(result.linkage_matrix)]
    if Z.shape[1] > 1:
        col_link = linkage(Z.T, method="average")
        col_order = [int(j) for j in leaves_list(col_link)]
    else:
        col_order = list(range(Z.shape[1]))
    labels = result.chosen_labels()
    return {
        "row_order": [profiles.accounts[i] for i in row_order],
        "col_order": [int(profiles.leaf_ids[j]) for j in col_order],
        "zscores": [
            [round(float(Z[i, j]), 9) for j in col_order] for i in row_order
        ],
        "clusters": {profiles.accounts[i]: int(labels[i]) for i in range(len(profiles.accounts))},
        "chosen_k": result.chosen_k,
    }
