"""Release acceptance gate: eleven criteria, one [PASS]/[FAIL] line each.

The heavy corpora are built once in module fixtures and shared. Every
decision tree trained in this module goes through fit_tree(), which records
cost-complexity path violations; criterion 6 reports the aggregate after all
tree-producing fixtures have materialized.
"""

import filecmp
import json
import time

import numpy as np
import pytest

from motifscope import etn as etn_mod, ingest, motif, storage, synth
from motifscope.cli import PACKAGED_METHOD_GROUPS, PipelineConfig, run_pipeline
from motifscope.featurize import featurize_store
from motifscope.learn import (
    build_dataset,
    class_weights,
    confusion_matrix,
    macro_scores,
    stratified_kfold,
)
from motifscope.models import DecisionTree, logistic_loss_grad
from motifscope.profile import (
    build_profiles,
    filter_min_matches,
    hcluster,
    silhouette_score,
)
from motifscope.signatures import (
    SUPPORT_THRESHOLD,
    ccp_path,
    match_signatures,
    mine_leaf_itemset,
    mine_signatures,
)

from oracles import (
    brute_force_maximal_itemsets,
    brute_force_motifs,
    brute_force_silhouette,
    canonical_labels,
    central_difference,
    count_motifs_untyped,
    random_tx,
    table_rows,
)

CATALOG = motif.enumerate_catalog()

# Every tree trained in this module is path-checked at fit time.
CCP_CHECKED = [0]
CCP_VIOLATIONS: list[str] = []


def _report(capsys, criterion: int, ok: bool, text: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:2d}: {text}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def check_ccp_invariants(tree: DecisionTree) -> None:
    entries = ccp_path(tree)
    alphas = [e.alpha for e in entries]
    counts = [e.leaf_count for e in entries]
    if alphas[0] != 0.0:
        CCP_VIOLATIONS.append(f"first alpha {alphas[0]} != 0")
    if entries[0].tree.to_dict() != tree.to_dict():
        CCP_VIOLATIONS.append("alpha=0 entry differs from the unpruned tree")
    if any(a >= b for a, b in zip(alphas, alphas[1:])):
        CCP_VIOLATIONS.append(f"alphas not strictly increasing: {alphas}")
    if any(a <= b for a, b in zip(counts, counts[1:])):
        CCP_VIOLATIONS.append(f"leaf counts not strictly decreasing: {counts}")
    if counts[0] != tree.n_leaves or counts[-1] != 1:
        CCP_VIOLATIONS.append(f"endpoint leaf counts wrong: {counts}")
    for e in entries:
        if e.tree.n_leaves != e.leaf_count:
            CCP_VIOLATIONS.append(f"entry says {e.leaf_count} leaves, tree has {e.tree.n_leaves}")
    CCP_CHECKED[0] += 1


def fit_tree(X, y, n_classes, min_leaf=10) -> DecisionTree:
    tree = DecisionTree.fit(X, y, class_weights(y, n_classes), n_classes=n_classes,
                            min_leaf=min_leaf)
    check_ccp_invariants(tree)
    return tree


# ---------------------------------------------------------------------------
# corpus plumbing
# ---------------------------------------------------------------------------

def make_raw(out, n, seed, skew="table2", noise=None, n_egos=None, mixes=None):
    cfg = synth.load_config()
    if noise is not None:
        cfg = synth.SynthConfig(archetypes=cfg.archetypes, noise=noise)
    return synth.generate(cfg, n, seed, out, skew=skew, n_egos=n_egos, mixes=mixes)


def ingest_raw(raw, store):
    tokens = ingest.TokenRegistry.from_file(raw / "tokens.json")
    accounts = ingest.AccountRegistry.from_file(raw / "accounts.json")
    mapping = ingest.load_method_mapping(PACKAGED_METHOD_GROUPS)
    method_of = ingest.load_method_labels(raw / "methods.csv", mapping)
    transactions, report = ingest.read_transfers(raw / "transfers.csv", tokens, accounts, method_of)
    assert report["rejected"] == {}
    storage.write_store(store, transactions)


def build_corpus(root, n, seed, **kwargs):
    result = make_raw(root, n, seed, **kwargs)
    store = root / "store"
    ingest_raw(root, store)
    features = root / "features.jsonl"
    featurize_store(store, "M+E", features)
    return result, store, features


def labeled_dataset(store, features):
    labels = storage.read_labels(store / "labels.csv")
    table = storage.read_features(features)
    return build_dataset(table, [labels[key] for key in zip(table.tx_hashes.tolist(), table.egos())])


def template_features(arch: synth.Archetype) -> frozenset:
    """M+E feature set of a noise-free instance of one generating archetype."""
    resolved: dict[str, tuple[str, str]] = {}
    counter = [0]

    def node(slot):
        kind = slot.split(":")[0]
        if slot not in resolved:
            if kind == "ego":
                resolved[slot] = ("0xego", "E")
            elif kind == "null":
                resolved[slot] = ("0x" + "0" * 40, "N")
            else:
                counter[0] += 1
                resolved[slot] = (f"0xs{counter[0]}", "A" if kind == "address" else "C")
        return resolved[slot]

    rows = []
    for src, dst, category in arch.edges:
        (sa, st), (da, dt) = node(src), node(dst)
        rows.append([sa, da, st, dt, "0xt", "X", category, 1.0, 1])
    tx = ("t", "0xego", None, rows)
    return frozenset(motif.transaction_features(tx, CATALOG, "M+E")[0])


@pytest.fixture(scope="module")
def corpus50k(tmp_path_factory):
    """50,000-transaction table2-skew corpus at noise 0.05: dataset, 10-fold
    CV F1, full-data tree, greedy signatures (criteria 6/7/8)."""
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("accept50k")
    result, store, features = build_corpus(root, 50_000, seed=88)
    ds = labeled_dataset(store, features)
    K = len(ds.classes)
    folds = stratified_kfold(ds.y, k=10, seed=0, groups=ds.tx_hashes)
    fold_f1 = []
    for tr, te in folds:
        tree = fit_tree(ds.X[tr], ds.y[tr], K)
        cm = confusion_matrix(ds.y[te], tree.predict(ds.X[te]), K)
        fold_f1.append(macro_scores(cm)["f1"])
    tree = fit_tree(ds.X, ds.y, K)
    signatures, discrepancies = mine_signatures(
        tree, ds.X, ds.vocabulary, ds.classes, threshold=SUPPORT_THRESHOLD, method="greedy"
    )
    return {
        "result": result, "dataset": ds, "tree": tree, "signatures": signatures,
        "discrepancies": discrepancies, "cv_f1": float(np.mean(fold_f1)),
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def mixcorpus(tmp_path_factory):
    """60 ego accounts drawn from 3 disjoint activity mixes, noise-free
    (criteria 6/7/9): tree, signatures, matched per-account profiles."""
    root = tmp_path_factory.mktemp("acceptmix")
    mixes = [
        synth.Mix(name="mover", weight=1.0, methods={"Transfer": 0.6, "Swap": 0.4}),
        synth.Mix(name="farmer", weight=1.0,
                  methods={"Deposit": 0.5, "Withdraw": 0.3, "ClaimReward": 0.2}),
        synth.Mix(name="leverager", weight=1.0,
                  methods={"Borrow": 0.4, "Repay": 0.4, "Mint": 0.2}),
    ]
    _, store, features = build_corpus(root, 6_000, seed=777, noise=0.0, n_egos=60, mixes=mixes)
    ds = labeled_dataset(store, features)
    K = len(ds.classes)
    tree = fit_tree(ds.X, ds.y, K)
    signatures, discrepancies = mine_signatures(
        tree, ds.X, ds.vocabulary, ds.classes, threshold=SUPPORT_THRESHOLD, method="greedy"
    )
    events: dict[str, list[int]] = {}
    for tx, ego, feats in table_rows(storage.read_features(features)):
        leaves, _ = match_signatures(feats, signatures)
        events.setdefault(ego, []).extend(leaves)
    profiles = filter_min_matches(build_profiles(sorted(events.items())), 10)
    mix_of_ego = json.loads((root / "account_mixes.json").read_text(encoding="utf-8"))
    mix_names = [m.name for m in mixes]
    truth = np.array([mix_names.index(mix_of_ego[a]) for a in profiles.accounts])
    return {"dataset": ds, "tree": tree, "signatures": signatures,
            "discrepancies": discrepancies, "profiles": profiles, "truth": truth}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_motif_oracle_equivalence(capsys):
    rng = np.random.default_rng(20260814)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        tx = random_tx(rng)
        typed = motif.transaction_features(tx, CATALOG, "M")[0]
        if typed != brute_force_motifs(etn_mod.build_etn(tx), CATALOG):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _report(capsys, 1, ok,
            f"typed motif counts equal the brute-force subset enumerator on 1000 random "
            f"ETNs (2-12 nodes), {mismatches} mismatches, {elapsed:.2f}s < 10s")


def test_criterion_02_closed_form_stars(capsys):
    bad = []
    for n in range(1, 51):
        ego = "0xe"
        rows = [[ego, f"0xa{i}", "E", "A", "0xt", "X", "Cryptocurrency", 1.0, 1] for i in range(n)]
        star = ("t", ego, None, rows)
        expected = {"m1(E,A)": n}
        if n >= 2:
            expected["m4(E,A,A)"] = n * (n - 1) // 2
        if motif.transaction_features(star, CATALOG, "M")[0] != expected:
            bad.append(n)
    _report(capsys, 2, not bad,
            f"all-out stars n=1..50 count exactly n two-node-out and n(n-1)/2 "
            f"out-out motifs, nothing else (violations: {bad})")


def test_criterion_03_type_marginalization(capsys):
    rng = np.random.default_rng(30303)
    mismatches = 0
    for _ in range(1000):
        tx = random_tx(rng)
        typed = motif.transaction_features(tx, CATALOG, "M")[0]
        by_shape: dict[str, int] = {}
        for key, count in typed.items():
            shape = key.split("(")[0]
            by_shape[shape] = by_shape.get(shape, 0) + count
        if by_shape != count_motifs_untyped(tx, CATALOG):
            mismatches += 1
    _report(capsys, 3, mismatches == 0,
            f"typed counts marginalize exactly to untyped per-shape counts on 1000 "
            f"random ETNs ({mismatches} mismatches)")


def test_criterion_04_lr_gradient(capsys):
    rng = np.random.default_rng(40404)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 11))
        X = rng.normal(size=(n, d))
        t = rng.integers(0, 2, n).astype(float)
        sw = rng.uniform(0.5, 2.0, n)
        l2 = float(rng.choice([0.0, 0.1, 1.0]))
        params = rng.normal(size=d + 1)
        _, grad = logistic_loss_grad(params, X, t, sw, l2)
        fd = central_difference(lambda p: logistic_loss_grad(p, X, t, sw, l2)[0], params)
        rel = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12))
        worst = max(worst, rel)
    _report(capsys, 4, worst < 1e-5,
            f"analytic LR gradient matches central differences on 20 random instances "
            f"(worst relative error {worst:.2e} < 1e-5)")


def test_criterion_05_stratified_cv(capsys):
    rng = np.random.default_rng(50505)
    violations = 0
    for _ in range(50):
        n_classes = int(rng.integers(2, 7))
        sizes = [int(10 ** rng.uniform(1.0, 3.0)) for _ in range(n_classes)]
        y = rng.permutation(np.repeat(np.arange(n_classes), sizes))
        folds = stratified_kfold(y, k=10, seed=int(rng.integers(1_000_000)))
        seen = np.concatenate([test for _, test in folds])
        if not np.array_equal(np.sort(seen), np.arange(len(y))):
            violations += 1
            continue
        for train, test in folds:
            if not np.array_equal(np.sort(np.concatenate([train, test])), np.arange(len(y))):
                violations += 1
            for c in range(n_classes):
                if abs(int((y[test] == c).sum()) - sizes[c] / 10) > 1:
                    violations += 1
    _report(capsys, 5, violations == 0,
            f"stratified 10-fold CV keeps per-fold class counts within +/-1 of n_c/10 "
            f"on 50 random skewed datasets ({violations} violations)")


def test_criterion_06_ccp_path_invariants(corpus50k, mixcorpus, small_tree, capsys):
    check_ccp_invariants(small_tree)
    rng = np.random.default_rng(60606)
    for _ in range(25):
        n = int(rng.integers(40, 300))
        d = int(rng.integers(2, 8))
        K = int(rng.integers(2, 5))
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        y = rng.integers(0, K, n)
        y[:K] = np.arange(K)
        fit_tree(X, y, K, min_leaf=int(rng.integers(1, 10)))
    ok = not CCP_VIOLATIONS and CCP_CHECKED[0] >= 38
    _report(capsys, 6, ok,
            f"pruning paths on all {CCP_CHECKED[0]} trees trained in this suite have "
            f"strictly increasing alphas, strictly decreasing leaf counts, and alpha=0 "
            f"equal to the unpruned tree ({len(CCP_VIOLATIONS)} violations)")


def test_criterion_07_itemset_oracle(corpus50k, mixcorpus, capsys):
    length_discrepancies = list(corpus50k["discrepancies"]) + list(mixcorpus["discrepancies"])
    problems = []
    checked = 0
    for corpus in (corpus50k, mixcorpus):
        ds, tree = corpus["dataset"], corpus["tree"]
        leaf_of_row = tree.apply(ds.X)
        presence = ds.X > 0
        for leaf in np.unique(leaf_of_row):
            rows = presence[leaf_of_row == leaf]
            cols = np.flatnonzero(rows.any(axis=0))
            if cols.size == 0 or cols.size > 15:
                continue
            sub = rows[:, cols]
            keys = [ds.vocabulary[j] for j in cols]
            items, support, _ = mine_leaf_itemset(sub, keys, SUPPORT_THRESHOLD, "greedy")
            maximal = brute_force_maximal_itemsets(sub, SUPPORT_THRESHOLD)
            checked += 1
            if not maximal:
                if items or support != 0.0:
                    problems.append(f"leaf {leaf}: greedy found {items} on empty optimum")
                continue
            best_len = max(len(s) for s, _ in maximal)
            best_support = max(sup for s, sup in maximal if len(s) == best_len)
            if len(items) != best_len or abs(support - best_support) > 1e-12:
                problems.append(
                    f"leaf {leaf}: greedy ({len(items)} items, {support:.6f}) vs "
                    f"exhaustive ({best_len} items, {best_support:.6f})"
                )
            elif frozenset(items) not in {s for s, _ in maximal}:
                problems.append(f"leaf {leaf}: greedy set is not a maximal frequent itemset")
    ok = checked >= 1 and not problems and not length_discrepancies
    _report(capsys, 7, ok,
            f"greedy per-leaf signatures equal the exhaustive maximal-frequent-itemset "
            f"optimum on all {checked} leaves with <=15 present features; "
            f"{len(length_discrepancies)} length discrepancies logged on the archetype corpora")


def test_criterion_08_synthetic_end_to_end(corpus50k, tmp_path_factory, capsys):
    t0 = time.perf_counter()
    templates = {a.name: template_features(a) for a in synth.load_config().archetypes}
    signatures = corpus50k["signatures"]
    recovered = {s.group for s in signatures
                 if s.items and frozenset(s.items) == templates[s.group]}

    held_root = tmp_path_factory.mktemp("acceptheld")
    _, held_store, held_features = build_corpus(held_root, 50_000, seed=99)
    held_labels = storage.read_labels(held_store / "labels.csv")
    only = total = 0
    for tx, ego, feats in table_rows(storage.read_features(held_features)):
        _, groups = match_signatures(feats, signatures)
        total += 1
        only += groups == [held_labels[(tx, ego)]]
    only_rate = only / total
    elapsed = corpus50k["elapsed"] + (time.perf_counter() - t0)
    cv_f1 = corpus50k["cv_f1"]
    ok = (cv_f1 >= 0.90 and len(recovered) >= 7 and only_rate >= 0.95
          and elapsed < 300.0)
    _report(capsys, 8, ok,
            f"50k-transaction corpus: DT M+E macro F1 {cv_f1:.4f} >= 0.90 (10-fold CV), "
            f"signatures reproduce {len(recovered)}/8 generating templates (>=7), "
            f"{only_rate:.4f} of held-out transactions match their generating archetype "
            f"only (>=0.95), {elapsed:.0f}s < 300s")


def test_criterion_09_clustering_recovery(mixcorpus, capsys):
    profiles = mixcorpus["profiles"]
    result = hcluster(profiles.zscored, method="ward")
    sil = result.silhouettes.get(result.chosen_k, 0.0)
    aligned = bool(np.array_equal(canonical_labels(result.chosen_labels()),
                                  canonical_labels(mixcorpus["truth"])))
    rng = np.random.default_rng(90909)
    worst = 0.0
    for _ in range(12):
        n = int(rng.integers(6, 51))
        k = int(rng.integers(2, 5))
        pts = rng.normal(size=(n, 3))
        labels = rng.integers(0, k, n)
        labels[:k] = np.arange(k)
        worst = max(worst, abs(silhouette_score(pts, labels) - brute_force_silhouette(pts, labels)))
    ok = (result.chosen_k == 3 and sil > 0.5 and aligned
          and len(profiles.accounts) == 60 and worst <= 1e-9)
    _report(capsys, 9, ok,
            f"60 accounts from 3 activity mixes: chosen k={result.chosen_k} (=3), "
            f"silhouette {sil:.3f} > 0.5, clusters reproduce the generating mixes "
            f"({aligned}); silhouette matches its brute-force definition to "
            f"{worst:.1e} <= 1e-9 on <=50 points")


def test_criterion_10_featurize_throughput(tmp_path_factory, capsys):
    root = tmp_path_factory.mktemp("acceptbig")
    result = make_raw(root, 800_000, seed=2024)
    store = root / "store"
    ingest_raw(root, store)
    out8 = root / "m8.jsonl"
    t0 = time.perf_counter()
    stats = featurize_store(store, "M+E", out8, threads=8)
    rate = stats.transactions / (time.perf_counter() - t0)
    out1 = root / "m1.jsonl"
    featurize_store(store, "M+E", out1, threads=1)
    identical = filecmp.cmp(out8, out1, shallow=False)
    ok = result.n_transfers >= 1_000_000 and rate >= 50_000 and identical
    _report(capsys, 10, ok,
            f"M+E featurization of a {result.n_transfers:,}-transfer corpus "
            f"(>=1M) with 8 workers runs at {rate:,.0f} tx/s (>=50,000), "
            f"bit-identical to the single-threaded output ({identical})")


def test_criterion_11_reproducibility(tmp_path_factory, capsys):
    root = tmp_path_factory.mktemp("acceptrepro")
    raw = root / "raw"
    make_raw(raw, 2_000, seed=11, skew="uniform")
    manifests = []
    for run in ("run_a", "run_b"):
        cfg = PipelineConfig(
            transfers=str(raw / "transfers.csv"), tokens=str(raw / "tokens.json"),
            accounts=str(raw / "accounts.json"), methods=str(raw / "methods.csv"),
            out=str(root / run), model="dt", seed=17,
        )
        manifests.append(run_pipeline(cfg))
    a, b = manifests
    ok = (a["artifacts"] == b["artifacts"] and len(a["artifacts"]) >= 10
          and a["stages"] == b["stages"])
    _report(capsys, 11, ok,
            f"two pipeline runs with identical config and seed produce byte-identical "
            f"digests for all {len(a['artifacts'])} artifacts")
