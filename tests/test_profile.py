"""Account profiles, silhouette vs brute force, hierarchical clustering."""

import numpy as np
import pytest

from motifscope import profile as prof
from motifscope.profile import (
    Profiles,
    build_profiles,
    emit_clustermap_data,
    filter_min_matches,
    hcluster,
    pairwise_distances,
    silhouette_score,
    zscore_columns,
)

from oracles import brute_force_silhouette, canonical_labels


def profile_blobs(rng, n_per=20, k=3, d=4, spread=0.05):
    """Row-profiles concentrated around k distinct corners."""
    rows = []
    for c in range(k):
        center = np.zeros(d)
        center[c % d] = 1.0
        rows.append(center + rng.normal(0, spread, size=(n_per, d)))
    return np.vstack(rows), np.repeat(np.arange(k), n_per)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_build_profiles_counts_events_per_leaf():
    matches = [
        ("acct1", [0, 2]),
        ("acct1", [2]),
        ("acct2", [5]),
        ("acct2", []),  # no matched signature: not an event
    ]
    profiles = build_profiles(matches)
    assert profiles.accounts == ["acct1", "acct2"]
    assert profiles.leaf_ids == [0, 2, 5]
    assert profiles.raw.tolist() == [[1, 2, 0], [0, 0, 1]]
    assert profiles.totals.tolist() == [3, 1]


def test_normalized_rows_sum_to_one():
    profiles = build_profiles([("a", [0]), ("a", [1]), ("b", [1])])
    N = profiles.normalized
    assert N.sum(axis=1) == pytest.approx(np.ones(2))
    assert N[0].tolist() == [0.5, 0.5]


def test_zscore_columns_ddof1_and_constant_to_zero():
    M = np.array([[1.0, 7.0], [3.0, 7.0], [5.0, 7.0]])
    Z = zscore_columns(M)
    col = M[:, 0]
    expected = (col - col.mean()) / col.std(ddof=1)
    assert Z[:, 0] == pytest.approx(expected)
    assert Z[:, 1].tolist() == [0.0, 0.0, 0.0]  # constant column
    assert Z[:, 0].mean() == pytest.approx(0.0, abs=1e-12)
    assert Z[:, 0].std(ddof=1) == pytest.approx(1.0)


def test_filter_min_matches_drops_sparse_accounts():
    profiles = build_profiles([("a", [0])] * 12 + [("b", [0])] * 3)
    with pytest.warns(UserWarning, match="fewer than 10"):
        kept = filter_min_matches(profiles, 10)
    assert kept.accounts == ["a"]
    assert kept.raw.tolist() == [[12]]


# ---------------------------------------------------------------------------
# silhouette
# ---------------------------------------------------------------------------

def test_pairwise_distances_match_direct(rng):
    X = rng.normal(size=(12, 3))
    D = pairwise_distances(X)
    for i in range(12):
        for j in range(12):
            assert D[i, j] == pytest.approx(float(np.linalg.norm(X[i] - X[j])), abs=1e-10)


def test_silhouette_matches_brute_force(rng):
    for _ in range(20):
        n = int(rng.integers(4, 50))
        k = int(rng.integers(2, min(6, n - 1) + 1))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        labels = rng.integers(0, k, size=n)
        if np.unique(labels).size < 2:
            continue
        fast = silhouette_score(X, labels)
        slow = brute_force_silhouette(X, labels)
        assert abs(fast - slow) < 1e-9


def test_silhouette_singletons_score_zero():
    X = np.array([[0.0], [0.1], [5.0]])
    labels = np.array([0, 0, 1])  # cluster 1 is a singleton
    score = silhouette_score(X, labels)
    assert score == pytest.approx(brute_force_silhouette(X, labels), abs=1e-12)


def test_silhouette_guards():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        silhouette_score(X, np.zeros(4, dtype=int))  # k=1
    with pytest.raises(ValueError):
        silhouette_score(X, np.arange(4))  # k=n


def test_silhouette_well_separated_blobs(rng):
    X, labels = profile_blobs(rng)
    assert silhouette_score(X, labels) > 0.8


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def test_hcluster_recovers_three_blobs(rng):
    X, truth = profile_blobs(rng)
    result = hcluster(X, method="ward")
    assert result.chosen_k == 3
    assert result.silhouettes[3] > 0.5
    assert (canonical_labels(result.chosen_labels()) == canonical_labels(truth)).all()


def test_hcluster_silhouettes_match_brute_force(rng):
    # hcluster shares one distance matrix across its candidate cuts
    X, _ = profile_blobs(rng, n_per=6, spread=0.3)
    result = hcluster(X, method="average")
    assert len(result.silhouettes) > 5
    for k, score in result.silhouettes.items():
        labels = result.assignments[k]
        assert score == pytest.approx(silhouette_score(X, labels), abs=1e-12)
        assert score == pytest.approx(brute_force_silhouette(X, labels), abs=1e-9)


@pytest.mark.parametrize("method", ["ward", "complete", "average"])
def test_hcluster_silhouettes_with_duplicate_rows_match_brute_force(rng, method):
    X, _ = profile_blobs(rng, n_per=8, spread=0.3)
    X = np.vstack([X, X[::3], X[:2]])  # duplicates, some of them twice
    result = hcluster(X, method=method)
    assert len(result.silhouettes) > 5
    for k, score in result.silhouettes.items():
        assert score == pytest.approx(brute_force_silhouette(X, result.assignments[k]), abs=1e-9)


def test_silhouette_sums_equal_distance_matrix_gather(rng):
    # the blocked pass adds each cluster's distances in index order, as a
    # gather of the cluster's columns from the full matrix does
    for _ in range(10):
        n = int(rng.integers(4, 300))
        X = np.round(rng.normal(size=(n, 3)), 1)
        labels = rng.integers(0, 4, size=n)
        if np.unique(labels).size < 2:
            continue
        D = pairwise_distances(X)
        uniq = np.unique(labels)
        sums = np.stack([D[:, labels == c].sum(axis=1) for c in uniq], axis=1)
        assert silhouette_score(X, labels) == silhouette_score(X, labels, sums)


def test_distance_sums_accumulate_split_clusters(rng):
    X = rng.normal(size=(50, 3))
    cuts = [np.arange(50) % 3, np.repeat([4, 9], 25)]  # the first: every cluster split into runs
    sums, top = prof._distance_sums(X, np.arange(50), cuts, block_bytes=8 * 50 * 7)
    D = pairwise_distances(X)
    assert top == D.max()
    for labels, got in zip(cuts, sums):
        want = np.stack([D[:, labels == c].sum(axis=1) for c in np.unique(labels)], axis=1)
        assert got == pytest.approx(want, abs=1e-12)


def test_hcluster_ties_choose_smaller_k(monkeypatch, rng):
    X, _ = profile_blobs(rng, n_per=10)
    monkeypatch.setattr(prof, "silhouette_score", lambda X_, labels, D=None: 0.5)
    result = hcluster(X)
    assert result.chosen_k == 2  # all cuts tie at 0.5


def test_hcluster_permutation_invariant(rng):
    X, _ = profile_blobs(rng)
    perm = rng.permutation(len(X))
    a = hcluster(X)
    b = hcluster(X[perm])
    assert a.chosen_k == b.chosen_k
    la = canonical_labels(a.chosen_labels())[perm]
    lb = canonical_labels(b.chosen_labels())
    assert (canonical_labels(la) == canonical_labels(lb)).all()


def test_hcluster_merge_heights_non_decreasing(rng):
    X, _ = profile_blobs(rng, n_per=8)
    for method in ("ward", "complete", "average"):
        Zm = hcluster(X, method=method).linkage_matrix
        heights = Zm[:, 2]
        assert (np.diff(heights) >= -1e-12).all()


def test_hcluster_two_profiles_single_cut():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.warns(UserWarning, match="fewer than 3"):
        result = hcluster(X)
    assert result.chosen_k == 2
    assert result.silhouettes == {}
    assert sorted(canonical_labels(result.chosen_labels()).tolist()) == [0, 1]
    assert result.notes


def test_hcluster_identical_profiles():
    X = np.ones((6, 3))
    with pytest.warns(UserWarning, match="identical"):
        result = hcluster(X)
    assert result.chosen_k == 2
    assert result.silhouettes == {2: 0.0}
    assert result.notes


def test_hcluster_near_identical_profiles():
    X = np.ones((6, 3))
    X[::2, 0] += 4e-9  # every distance is at most 1e-8
    with pytest.warns(UserWarning, match="identical"):
        result = hcluster(X)
    assert result.chosen_k == 2
    assert result.silhouettes == {2: 0.0}


def test_hcluster_validates_inputs():
    with pytest.raises(ValueError):
        hcluster(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        hcluster(np.zeros((5, 2)), method="single")


def test_hcluster_k_cap(rng):
    X = rng.normal(size=(40, 3))
    result = hcluster(X)
    assert max(result.assignments) <= 15
    assert min(result.assignments) >= 2


def test_clustering_result_to_json(rng):
    X, _ = profile_blobs(rng, n_per=5)
    result = hcluster(X)
    obj = result.to_json([f"acct{i}" for i in range(len(X))])
    assert obj["chosen_k"] == result.chosen_k
    assert len(obj["assignments"]) == len(X)
    assert len(obj["merges"]) == len(X) - 1
    assert set(obj["silhouettes"]) == {str(k) for k in result.silhouettes}


def test_emit_clustermap_data_orders(rng):
    raw = rng.integers(0, 30, size=(12, 4))
    raw[:, 0] += 1  # no all-zero rows
    profiles = Profiles(
        accounts=[f"a{i:02d}" for i in range(12)], leaf_ids=[1, 3, 5, 9], raw=raw
    )
    result = hcluster(profiles.zscored)
    data = emit_clustermap_data(result, profiles)
    assert sorted(data["row_order"]) == sorted(profiles.accounts)
    assert sorted(data["col_order"]) == [1, 3, 5, 9]
    assert len(data["zscores"]) == 12
    assert len(data["zscores"][0]) == 4
    assert data["chosen_k"] == result.chosen_k
    assert set(data["clusters"]) == set(profiles.accounts)
    # the z matrix is permuted consistently with the two orders
    col_pos = {leaf: j for j, leaf in enumerate(profiles.leaf_ids)}
    row_pos = {a: i for i, a in enumerate(profiles.accounts)}
    Z = profiles.zscored
    for i, account in enumerate(data["row_order"]):
        for j, leaf in enumerate(data["col_order"]):
            assert data["zscores"][i][j] == pytest.approx(
                Z[row_pos[account], col_pos[leaf]], abs=1e-9
            )
