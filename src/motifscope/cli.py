"""Command-line interface and pipeline orchestration.

Every tunable parameter is declared once, in PARAMS: its type, default,
choices or range, and help. The subcommand flags, the pipeline's flags,
PipelineConfig's defaults, fit_model's fallbacks and _check_params all read
it; main checks a subcommand's flags before the command runs, and
PipelineConfig.check the pipeline's config with its flags merged in.

Exit codes: 0 success, 2 unusable input (InputError), 3 stage failure.
Failures print a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional

import numpy as np

from . import __version__, etn as etn_mod, motif, storage
from .featurize import featurize_store
from .ingest import (
    AccountRegistry,
    InputError,
    METHOD_GROUPS,
    Param,
    TokenRegistry,
    TransferBatch,
    UNKNOWN,
    _check_params,
    _fields,
    _gc_paused,
    _schema,
    _strings,
    load_method_labels,
    load_method_mapping,
    read_transfers,
)
from .learn import (
    Dataset,
    build_dataset,
    class_weights,
    evaluate,
    stratified_kfold,
)
from .models import DecisionTree, LogisticModel, RandomForest
from .profile import (
    DEFAULT_MIN_MATCHES,
    LINKAGES,
    MAX_CLUSTER_ACCOUNTS,
    Profiles,
    build_profiles,
    emit_clustermap_data,
    filter_min_matches,
    hcluster,
    read_profiles_csv,
    write_profiles_csv,
)
from .signatures import (
    LeafSignature,
    SUPPORT_THRESHOLD,
    ccp_path,
    match_signatures,
    mine_signatures,
    select_pruned,
    tree_to_dot,
)
from .synth import generate, load_config, load_mixes
from .table import FeatureTable

PACKAGED_METHOD_GROUPS = Path(__file__).parent / "data" / "method_groups.json"


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _print(obj) -> None:
    sys.stdout.write(storage.dumps(obj) + "\n")


def _fail(stage: str, exc: BaseException, code: int) -> int:
    sys.stderr.write(
        storage.dumps({"error": {"stage": stage, "type": type(exc).__name__, "message": str(exc)}})
        + "\n"
    )
    return code


# ---------------------------------------------------------------------------
# parameters and the model (de)serialization envelope
# ---------------------------------------------------------------------------

_MODEL_KINDS = {"lr": LogisticModel, "dt": DecisionTree, "rf": RandomForest}


# every tunable parameter, declared once (see the module docstring)
PARAMS = {
    "mode": Param(None, "M+E", choices=tuple(motif.MODE_SPELLINGS)),
    "model": Param(None, "dt", choices=tuple(_MODEL_KINDS)),
    "seed": Param(int, 0, "an integer >= 0", lambda v: v >= 0, help="random seed (default 0)"),
    "threads": Param(int, 1, "an integer >= 1", lambda v: v >= 1,
                     help="worker processes (default 1)"),
    "folds": Param(int, 10, "an integer >= 2", lambda v: v >= 2),
    "min_leaf": Param(int, 10, "an integer >= 1", lambda v: v >= 1),
    "l2": Param(float, 1.0, "a finite number >= 0", lambda v: 0 <= v < math.inf),
    "trees": Param(int, 100, "an integer >= 1", lambda v: v >= 1),
    "max_features": Param(None, "sqrt", '"sqrt", null or an integer >= 1',
                          lambda v: v in ("sqrt", None) or type(v) is int and v >= 1),
    # the signature support threshold, a fraction of a leaf's rows
    "threshold": Param(float, SUPPORT_THRESHOLD, "a number >= 0 and < 1", lambda v: 0 <= v < 1),
    "target_leaves": Param(int, None, "at least 1", lambda v: v >= 1),
    "alpha": Param(float, None, "a number >= 0", lambda v: v >= 0),
    "min_matches": Param(int, DEFAULT_MIN_MATCHES, "an integer >= 0", lambda v: v >= 0),
    "linkage": Param(None, "ward", choices=LINKAGES),
    "max_nodes": Param(int, motif.DEFAULT_MAX_NODES, "an integer >= 1", lambda v: v >= 1),
}
# the parameters of a fit, which a model file keeps and eval and prune-CV read back
FIT_PARAMS = ("min_leaf", "trees", "l2", "max_features")
# the fields of a model file, of its params (its fit's and prune's level) and of a signatures file
_MODEL_FIELDS = {"format": Param(None, choices=("motifscope-model",)),
                 "kind": Param(None, choices=tuple(_MODEL_KINDS)),
                 "mode": Param(None, choices=motif.MODES),
                 "classes": Param(list, what="a list of strings", ok=_strings),
                 "vocabulary": Param(list, what="a list of strings", ok=_strings),
                 "params": Param(dict), "model": Param(dict)}
_MODEL_PARAMS = {**{key: PARAMS[key] for key in FIT_PARAMS},
                 "pruned_alpha": PARAMS["alpha"], "pruned_leaves": PARAMS["target_leaves"]}
_SIGNATURES_FIELDS = {"format": Param(None, choices=("motifscope-signatures",)),
                      "mode": Param(None, None, choices=motif.MODES),
                      "threshold": PARAMS["threshold"], "signatures": Param(list, []),
                      "classes": Param(list, [], "a list of strings", _strings),
                      "discrepancies": Param(list, [], "a list of strings", _strings)}


def _flag(key: str) -> str:
    """The flag of a parameter or config key."""
    return "--" + key.replace("_", "-")


def _add_flags(parser, *keys: str, **settings) -> None:
    """Add the flag of each key, whose type, default, choices and help its
    PARAMS entry gives unless `settings` does. The keys join the parser's
    `params` default: main checks the values of those flags."""
    for key in keys:
        param = PARAMS.get(key, Param(None, None))
        parser.add_argument(_flag(key), **{
            "type": param.type, "default": param.default, "choices": param.choices or None,
            "help": param.help, **settings})
    parser.set_defaults(params=[*(parser.get_default("params") or ()), *keys])


@dataclass
class ModelSpec:
    """A fitted model with what scoring it needs: feature mode, class and
    vocabulary order, and the fit parameters."""

    kind: str
    mode: str
    classes: list[str]
    vocabulary: list[str]
    params: dict
    instance: object

    def save(self, path) -> None:
        storage.write_json(path, {
            "format": "motifscope-model",
            "kind": self.kind,
            "mode": self.mode,
            "classes": list(self.classes),
            "vocabulary": list(self.vocabulary),
            "params": self.params,
            "model": self.instance.to_dict(),
        })


def load_model(path) -> ModelSpec:
    with _schema("model file", path) as obj:
        fields = _fields(obj, _MODEL_FIELDS)
        _fields(fields["params"], _MODEL_PARAMS, "params")
        return ModelSpec(fields["kind"], fields["mode"], fields["classes"], fields["vocabulary"],
                         fields["params"], _MODEL_KINDS[fields["kind"]].from_dict(fields["model"]))


def labelled_dataset(table: FeatureTable, labels: Iterable[Optional[str]], classes=None,
                     vocabulary=None) -> Dataset:
    """The table's rows whose label, one per row in row order, is a retained
    method group, as a Dataset."""
    groups = [group if group in METHOD_GROUPS else None for group in labels]
    if not any(groups):
        raise InputError("no feature rows with labels in the retained method groups")
    return build_dataset(table, groups, classes=classes, vocabulary=vocabulary)


def load_dataset(table: FeatureTable, labels: Mapping[tuple[str, str], str], classes=None,
                 vocabulary=None) -> Dataset:
    """labelled_dataset with each row's label looked up in `labels`, as
    storage.read_labels reads labels.csv, by (tx_hash, ego)."""
    return labelled_dataset(table, map(labels.get, zip(table.tx_hashes.tolist(), table.egos())),
                            classes, vocabulary)


def fit_model(kind: str, dataset: Dataset, rows, params: dict, seed: int):
    """Fit one class-weighted model of `kind` on dataset's `rows` (the single
    fit dispatch). Every kind fits on the dataset's pairs and the rows' pair
    indices; trees take the pairs through their one rank encoding."""
    n_classes = len(dataset.classes)
    shared = dict(class_weight=class_weights(dataset.y[rows], n_classes), n_classes=n_classes,
                  pair_of=dataset.pair_of[rows])
    params = {**{key: PARAMS[key].default for key in FIT_PARAMS}, **params}
    if kind == "lr":
        return LogisticModel.fit(dataset.pairs, dataset.pair_y, l2=params["l2"], **shared)
    if kind == "dt":
        return DecisionTree.fit(dataset.ranked, dataset.pair_y, min_leaf=params["min_leaf"], **shared)
    if kind == "rf":
        return RandomForest.fit(dataset.ranked, dataset.pair_y, n_trees=params["trees"],
                                min_leaf=params["min_leaf"],
                                max_features=params["max_features"], seed=seed, **shared)
    raise InputError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# stages: in-memory inputs, artifacts written, results returned
# ---------------------------------------------------------------------------

def ingest_to_store(transfers, tokens, accounts, methods, method_groups, out,
                    write=storage._now,
                    ) -> tuple[dict, TransferBatch, Optional[list[Optional[str]]]]:
    """Write the store through `write`; returns the ingest report, the
    stored TransferBatch and its method groups, one per transaction in
    order (None where a transaction has none), or None without `methods`.

    The method-group table is read first and methods.csv after transfers.csv,
    so when both CSV files are bad, the transfers error is the one raised.
    methods.csv is joined by read_transfers through the dict of tx hashes it
    already holds, before it packs them, so no second copy of them is built."""
    mapping = load_method_mapping(method_groups or PACKAGED_METHOD_GROUPS) if methods else None
    batch, report = read_transfers(transfers, TokenRegistry.from_file(tokens),
                                   AccountRegistry.from_file(accounts),
                                   functools.partial(load_method_labels, methods, mapping)
                                   if methods else None)
    # all of the above first: once a writer is forked, a write here copies a shared page
    write(storage.write_store, out, batch, report)
    return report, batch, batch.method_groups() if methods else None


def train_model(dataset: Dataset, kind: str, mode: str, params: dict, seed: int, out) -> ModelSpec:
    model = fit_model(kind, dataset, slice(None), params, seed)
    spec = ModelSpec(kind, mode, dataset.classes, dataset.vocabulary, params, model)
    spec.save(out)
    return spec


def cv_folds(dataset: Dataset, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The dataset's k stratified folds, a transaction's rows in one fold;
    InputError names a class with fewer transactions than k."""
    return stratified_kfold(dataset.y, k=k, seed=seed, groups=dataset.units,
                            classes=dataset.classes)


def cross_validate(spec: ModelSpec, dataset: Dataset, folds, seed: int, out):
    """CV of spec's model kind over folds; writes the report and returns
    it, holding the fold models."""
    report = evaluate(
        dataset, folds, lambda rows: fit_model(spec.kind, dataset, rows, spec.params, seed)
    )
    storage.write_json(out, report.to_json())
    return report


def _ccp_cv_rows(path, params: dict, dataset: Dataset, folds, fold_trees=None):
    """Cross-validated macro metrics at each pruning alpha (Fig. 6a analogue).

    fold_trees are decision trees already fitted on each fold's train rows,
    as eval fits them for a dt model; when None they are fitted here.
    """
    from .learn import confusion_matrix, macro_scores

    K = len(dataset.classes)
    pooled = [np.zeros((K, K), dtype=np.int64) for _ in path]
    for f, (train_idx, test_idx) in enumerate(folds):
        if fold_trees is None:
            tree = fit_model("dt", dataset, train_idx, params, seed=0)
        else:
            tree = fold_trees[f]
        fold_path = ccp_path(tree)
        for ai, entry in enumerate(path):
            sub, _ = select_pruned(fold_path, alpha=entry.alpha)
            pooled[ai] += confusion_matrix(dataset.y[test_idx], dataset.predict(sub, test_idx), K)
    return [macro_scores(cm) for cm in pooled]


def _check_pruning_target(target_leaves, alpha, name) -> None:
    """Raise InputError when both target_leaves and alpha are set; name(key)
    says where a value came from."""
    if target_leaves is not None and alpha is not None:
        raise InputError(f"{name('target_leaves')} and {name('alpha')} exclude each other; "
                         f"set one")


def prune_model(spec: ModelSpec, target_leaves, alpha, out, path_csv=None, dot=None, cv=None):
    """Prune spec's tree along its cost-complexity path and write the pruned
    model, plus the alpha/leaves table and the pruned tree as DOT when asked.

    cv = (dataset, folds, fold_trees or None) fills the table's CV columns.
    Returns (pruned spec, chosen path entry, path).
    """
    if spec.kind != "dt":
        raise InputError("prune requires a decision-tree model")
    if target_leaves is None and alpha is None:
        raise InputError("pass --target-leaves or --alpha")
    _check_pruning_target(target_leaves, alpha, _flag)
    _check_params({"target_leaves": target_leaves, "alpha": alpha}, PARAMS, _flag)
    path = ccp_path(spec.instance)
    tree, entry = select_pruned(path, target_leaves=target_leaves, alpha=alpha)
    params = {**spec.params, "pruned_alpha": entry.alpha, "pruned_leaves": entry.leaf_count}
    pruned = ModelSpec("dt", spec.mode, spec.classes, spec.vocabulary, params, tree)
    pruned.save(out)
    if path_csv:
        metric_rows = _ccp_cv_rows(path, spec.params, *cv) if cv else [{}] * len(path)
        storage.write_csv(path_csv, ["alpha", "leaves", "precision", "recall", "f1"], (
            [f"{e.alpha:.12g}", e.leaf_count,
             *(f"{metrics[k]:.6f}" if metrics else "" for k in ("precision", "recall", "f1"))]
            for e, metrics in zip(path, metric_rows)))
    if dot:
        storage.write_text(dot, tree_to_dot(tree, spec.vocabulary, spec.classes))
    return pruned, entry, path


def write_signatures(spec: ModelSpec, dataset: Dataset, threshold: float, method: str, out):
    """Mine per-leaf signatures of a (pruned) tree; returns (signatures, discrepancies)."""
    if spec.kind != "dt":
        raise InputError("signature mining requires a decision-tree model")
    signatures, discrepancies = mine_signatures(
        spec.instance, dataset.pairs, spec.vocabulary, spec.classes, threshold=threshold,
        method=method, counts=dataset.counts,
    )
    storage.write_json(out, {
        "format": "motifscope-signatures",
        "mode": spec.mode,
        "threshold": threshold,
        "classes": spec.classes,
        "signatures": [sig.to_json() for sig in signatures],
        "discrepancies": discrepancies,
    })
    return signatures, discrepancies


def load_signatures(path, mode: Optional[str]) -> list[LeafSignature]:
    """The signatures of a signatures file, which must have been mined in
    the features mode `mode` when the file and `mode` both name one, with
    distinct leaf ids."""
    with _schema("signatures file", path) as obj:
        fields = _fields(obj, _SIGNATURES_FIELDS)
        _check_mode("features mode", mode, "signatures file", fields["mode"])
        signatures = [LeafSignature.from_json(s, f"signature {i}")
                      for i, s in enumerate(fields["signatures"])]
        leaves = Counter(s.leaf_id for s in signatures)
        if repeated := sorted(leaf for leaf, n in leaves.items() if n > 1):
            raise ValueError(f"leaves {repeated} have more than one signature")
        return signatures


def match_features(table: FeatureTable, signatures: list[LeafSignature], out,
                   write=storage._now) -> list[tuple[str, tuple[int, ...]]]:
    """Match every row of the table against the signatures into matches
    JSONL, written through `write`; returns the (ego, leaves) of every line,
    in row order. Each distinct row of the table is matched once."""
    results = [match_signatures(feats, signatures) for feats in table.distinct_rows()]
    write(storage.write_rows, out, table, [{"groups": groups, "leaves": leaves}
                                           for leaves, groups in results])
    leaves = [tuple(hit) for hit, _ in results]
    return list(zip(table.egos(), map(leaves.__getitem__, table.row_of.tolist())))


def write_profiles(matches, out) -> Profiles:
    """Profiles from (ego, leaves) pairs, written to profiles.csv."""
    profiles = build_profiles(matches)
    write_profiles_csv(profiles, out)
    return profiles


def cluster_profiles(profiles: Profiles, linkage: str, out, plotdata=None):
    """Cluster already-filtered profiles, 2 to MAX_CLUSTER_ACCOUNTS accounts;
    writes the assignments and plot data."""
    if len(profiles.accounts) < 2:
        raise InputError("clustering needs at least 2 accounts after filtering")
    if len(profiles.accounts) > MAX_CLUSTER_ACCOUNTS:
        raise InputError(f"clustering {len(profiles.accounts)} accounts exceeds the cap of "
                         f"{MAX_CLUSTER_ACCOUNTS} accounts")
    result = hcluster(profiles.zscored, method=linkage)
    storage.write_json(out, result.to_json(profiles.accounts))
    if plotdata:
        _write_plotdata(plotdata, result, profiles)
    return result


def _write_plotdata(outdir, result, profiles: Profiles) -> None:
    data = emit_clustermap_data(result, profiles)
    os.makedirs(outdir, exist_ok=True)
    storage.write_json(os.path.join(outdir, "clustermap.json"), data)
    storage.write_csv(os.path.join(outdir, "zscores.csv"),
                      ["account"] + [f"leaf_{j}" for j in data["col_order"]],
                      ([account] + [f"{v:.9f}" for v in zrow]
                       for account, zrow in zip(data["row_order"], data["zscores"])))
    storage.write_csv(os.path.join(outdir, "clusters.csv"), ["account", "cluster"],
                      ([account, data["clusters"][account]] for account in sorted(data["clusters"])))


# ---------------------------------------------------------------------------
# subcommands: load, call the stage, save, print
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    _print(ingest_to_store(args.transfers, args.tokens, args.accounts, args.methods,
                           args.method_groups, args.out)[0])
    return 0


def cmd_stats(args) -> int:
    per_account: dict[str, dict] = {}
    histogram: Counter = Counter()
    for batch in storage.read_store(args.store):
        strings, offsets = batch.strings, batch.offsets.tolist()
        tokens = [strings[contract] or strings[symbol]
                  for contract, symbol in zip(batch.contract.tolist(), batch.symbol.tolist())]
        for ego, group, start, stop in zip(batch.ego.tolist(), batch.method_groups(),
                                           offsets, offsets[1:]):
            histogram[stop - start] += 1
            acc = per_account.setdefault(strings[ego],
                                         {"transactions": 0, "tokens": set(), "unlabeled": 0})
            acc["transactions"] += 1
            acc["unlabeled"] += int(group in (None, UNKNOWN))
            acc["tokens"].update(tokens[start:stop])
    total = sum(histogram.values())
    report = {
        "transactions": total,
        "accounts": {
            ego: {
                "transactions": acc["transactions"],
                "tokens": len(acc["tokens"]),
                "fraction_unlabeled": round(acc["unlabeled"] / acc["transactions"], 6),
            }
            for ego, acc in sorted(per_account.items())
        },
        "transfers_per_transaction": {str(k): v for k, v in sorted(histogram.items())},
        "single_transfer_fraction": round(histogram.get(1, 0) / total, 6) if total else 0.0,
    }
    if args.out:
        storage.write_json(args.out, report)
    _print(report)
    return 0


def cmd_etn(args) -> int:
    hits = [(batch, i, batch.strings[ego]) for batch in storage.read_store(args.store)
            for i, (tx_hash, ego) in enumerate(zip(batch.tx_hashes.tolist(), batch.ego.tolist()))
            if tx_hash == args.tx and (not args.ego or batch.strings[ego] == args.ego)]
    if not hits:
        raise InputError(f"transaction {args.tx} not found in store {args.store}")
    if len(hits) > 1:
        egos = ", ".join(ego for _, _, ego in hits)
        raise InputError(f"transaction {args.tx} has several egos ({egos}); pass --ego")
    batch, i, ego = hits[0]
    network = etn_mod.build_etn(batch, i)
    storage.write_text(args.dot, etn_mod.to_dot(network))
    _print({"tx_hash": args.tx, "ego": ego, "nodes": len(network.node_types),
            "edges": len(network.edges), "dot": args.dot})
    return 0


def cmd_featurize(args) -> int:
    catalog = motif.load_catalog(args.catalog) if args.catalog else None
    stats = featurize_store(
        args.store, args.mode, args.out,
        threads=args.threads, catalog=catalog, max_nodes=args.max_nodes,
    )
    _print({
        "transactions": stats.transactions,
        "distinct_rows": stats.table.n_distinct,
        "oversize": stats.oversize,
        "rejected_transfers": stats.rejected_transfers,
        "out": args.out,
    })
    return 0


def _check_mode(name: str, mode: Optional[str], other: str, other_mode: Optional[str]) -> None:
    """InputError naming both feature modes when both are known and differ."""
    if mode and other_mode and mode != other_mode:
        raise InputError(f"{name} {mode} does not match the {other} mode {other_mode}")


def _read_dataset(args, spec: Optional[ModelSpec] = None) -> Dataset:
    """load_dataset on --features and --labels, over the model's classes and
    vocabulary when a model is given, whose mode must be the features file's."""
    dataset = load_dataset(storage.read_features(args.features), storage.read_labels(args.labels),
                           *((spec.classes, spec.vocabulary) if spec else ()))
    if spec:
        _check_mode("model mode", spec.mode, "features file", storage.features_mode(args.features))
    return dataset


def cmd_train(args) -> int:
    params = {key: getattr(args, key) for key in FIT_PARAMS}
    params["max_features"] = None if args.max_features == "all" else args.max_features
    dataset = _read_dataset(args)
    file_mode = storage.features_mode(args.features)
    mode = motif.normalize_mode(args.mode) if args.mode else (file_mode or PARAMS["mode"].default)
    _check_mode("--mode", mode, "features file", file_mode)
    train_model(dataset, args.model, mode, params, args.seed, args.out)
    _print({"model": args.model, "rows": dataset.n_rows, "classes": dataset.classes,
            "features": len(dataset.vocabulary), "out": args.out})
    return 0


def cmd_eval(args) -> int:
    spec = load_model(args.model)
    dataset = _read_dataset(args, spec)
    report = cross_validate(spec, dataset, cv_folds(dataset, args.folds, args.seed), args.seed,
                            args.report)
    _print({"model": spec.kind, "folds": args.folds, "averages": report.averages,
            "report": args.report})
    return 0


def cmd_prune(args) -> int:
    if args.features or args.labels:
        flags = {"--path": args.path, "--features": args.features, "--labels": args.labels}
        if missing := [flag for flag, value in flags.items() if not value]:
            raise InputError(f"prune --features and --labels fill the CV columns of --path; "
                             f"missing {' and '.join(missing)}")
    spec = load_model(args.model)
    cv = None
    if args.path and args.features:
        dataset = _read_dataset(args, spec)
        cv = (dataset, cv_folds(dataset, args.folds, args.seed), None)
    _, entry, path = prune_model(spec, args.target_leaves, args.alpha, args.out,
                                 path_csv=args.path, dot=args.dot, cv=cv)
    _print({"alpha": entry.alpha, "leaves": entry.leaf_count, "path_entries": len(path),
            "out": args.out})
    return 0


def cmd_signatures(args) -> int:
    spec = load_model(args.model)
    dataset = _read_dataset(args, spec)
    signatures, discrepancies = write_signatures(spec, dataset, args.threshold, args.method,
                                                 args.out)
    _print({"leaves": len(signatures),
            "usable": sum(1 for s in signatures if s.items),
            "discrepancies": len(discrepancies), "out": args.out})
    return 0


def cmd_match(args) -> int:
    table = storage.read_features(args.features)
    signatures = load_signatures(args.signatures, storage.features_mode(args.features))
    pairs = match_features(table, signatures, args.out)
    _print({"transactions": len(pairs), "matched": sum(1 for _, leaves in pairs if leaves),
            "out": args.out})
    return 0


def cmd_profile(args) -> int:
    profiles = write_profiles(storage.read_matches(args.matches), args.out)
    _print({"accounts": len(profiles.accounts), "signatures": len(profiles.leaf_ids),
            "out": args.out})
    return 0


def cmd_cluster(args) -> int:
    profiles = filter_min_matches(read_profiles_csv(args.profiles), args.min_matches)
    result = cluster_profiles(profiles, args.linkage, args.out, args.plotdata)
    _print({"accounts": len(profiles.accounts), "chosen_k": result.chosen_k,
            "silhouette": result.silhouettes.get(result.chosen_k), "out": args.out})
    return 0


def cmd_synth(args) -> int:
    config = load_config(args.config)
    mixes = load_mixes(args.mixes) if args.mixes else None
    result = generate(
        config, args.n, args.seed, args.out, skew=args.skew,
        n_egos=args.egos, pool_size=args.pool, mixes=mixes,
    )
    _print({"transactions": result.n_transactions, "transfers": result.n_transfers,
            "groups": dict(sorted(result.group_counts.items())), "out": str(result.out_dir)})
    return 0


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineConfig:
    """A pipeline run's paths and PARAMS, in the order of the pipeline's flags."""

    seed: int = PARAMS["seed"].default
    threads: int = PARAMS["threads"].default
    transfers: Optional[str] = None
    tokens: Optional[str] = None
    accounts: Optional[str] = None
    methods: Optional[str] = None
    method_groups: Optional[str] = None
    signatures: Optional[str] = field(
        default=None, metadata={"help": "pre-mined signatures for match-only runs"})
    out: Optional[str] = None
    mode: str = PARAMS["mode"].default
    model: str = PARAMS["model"].default
    folds: int = PARAMS["folds"].default
    min_leaf: int = PARAMS["min_leaf"].default
    l2: float = PARAMS["l2"].default
    trees: int = PARAMS["trees"].default
    threshold: float = PARAMS["threshold"].default
    target_leaves: Optional[int] = PARAMS["target_leaves"].default
    alpha: Optional[float] = PARAMS["alpha"].default
    min_matches: int = PARAMS["min_matches"].default
    linkage: str = PARAMS["linkage"].default
    catalog: Optional[str] = None
    max_nodes: int = PARAMS["max_nodes"].default

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise InputError(f"unknown pipeline config keys: {sorted(unknown)}")
        return cls(**obj)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """The config in a JSON file; an unknown key or a value that check()
        rejects raises InputError naming the file (the required paths may
        come from flags)."""
        with _schema("pipeline config", path) as obj:
            cfg = cls.from_json(obj)
            cfg.check(required=())
        return cfg

    def check(self, required=("transfers", "tokens", "accounts", "out")) -> None:
        """Raise InputError for a missing required path, a path that is not a
        string, a parameter that its PARAMS entry refuses, or two pruning
        targets."""
        name = "pipeline config {!r}".format
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in required and not value:
                raise InputError(f"pipeline config is missing {f.name!r}")
            if f.name not in PARAMS and not (value is None or type(value) is str):
                raise InputError(f"{name(f.name)} must be str, got {type(value).__name__} {value!r}")
        _check_params(vars(self), PARAMS, name)
        _check_pruning_target(self.target_leaves, self.alpha, name)


def _peak_rss_mb() -> float:
    """The RSS high-water mark of this process and of its finished workers."""
    usage = max(resource.getrusage(who).ru_maxrss
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return round(usage / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)


def _stage(manifest: dict, name: str, fn):
    """Run one pipeline stage: record its name, wall seconds and the RSS
    high-water mark at its end, and tag errors with the stage (InputError
    keeps exit 2, others become StageError)."""
    start = time.perf_counter()
    try:
        out = fn()
    except InputError as exc:
        exc.stage = name
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    manifest["stages"].append(name)
    manifest["timings"][name] = round(time.perf_counter() - start, 6)
    manifest["peak_rss_mb"][name] = _peak_rss_mb()
    return out


@_gc_paused()
def run_pipeline(cfg: PipelineConfig) -> dict:
    """ingest -> featurize -> train/eval -> prune -> signatures -> match ->
    profile -> cluster, with a manifest of versions, seeds, timings, RSS,
    counters and digests. `rss_mb_start` is the RSS high-water mark before
    the first stage, and `peak_rss_mb` the mark at the end of each stage.
    `out` holds one run: one that exists and is not an empty directory
    raises InputError before any file is read or written.

    Stages hand each other in-memory objects: featurize works on ingest's
    transactions, and train and match on featurize's FeatureTable, so no
    stage reads back the store or features.jsonl. Featurize keeps ingest's
    order, so table row i is transaction i, and its label is ingest's group
    i: the labelled rows become one Dataset by position, with no lookup by
    (tx_hash, ego). Eval's folds are reused by prune-CV, and so are eval's
    fold trees when the model is a decision tree. Profiles are built from
    the match stage's (ego, leaves), not from matches.jsonl.

    With `threads` >= 2 the store, features.jsonl and matches.jsonl are
    written by forked writer processes (storage.Writer) while the stages
    after the one that submitted them run; every write is waited for before
    the artifacts are hashed. A writer process hashes the files it wrote, so
    only the files written in this process are read back for their digests.
    The manifest's `writes` lists each write's
    stage, seconds and whether it ran inline. A failed stage, or a failed
    write, which fails the stage that submitted it, leaves a manifest naming
    it, the error and the stages completed before it.

    The whole run, writes included, runs with the cyclic garbage collector
    paused, and the caller's collector state is restored when it ends. The
    run builds many small objects, ingest's rows above all, and no cycles
    among them, so a collection would only walk them.
    """
    cfg.check()
    out = Path(cfg.out)
    if out.exists() and not (out.is_dir() and next(out.iterdir(), None) is None):
        raise InputError(f"pipeline out {out} exists and is not an empty directory")
    import scipy

    start = time.perf_counter()
    manifest: dict = {
        "tool": "motifscope",
        "version": __version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": cfg.seed,
        "config": cfg.to_json(),
        "inputs": {},
        "stages": [],
        "timings": {},
        "peak_rss_mb": {},
        "rss_mb_start": _peak_rss_mb(),  # the mark the run inherits: imports, and a caller's data
        "counters": {},
        "artifacts": {},
        "notes": [],
    }
    writer = storage.Writer(background=cfg.threads >= 2)
    manifest["writes"] = writer.records
    for name in ("transfers", "tokens", "accounts", "methods", "method_groups", "signatures", "catalog"):
        path = getattr(cfg, name)
        if path:
            try:
                manifest["inputs"][name] = storage.sha256_file(path)
            except OSError as exc:
                raise InputError(f"cannot read {name} file {path}: {exc}") from exc
    out.mkdir(parents=True, exist_ok=True)
    try:
        with writer:  # leaving the block waits for every write
            _run_stages(cfg, out, manifest, writer)
    except Exception as exc:
        if writer.failed is not None:  # the earliest stage to fail: a write's precedes what raised here
            exc = StageError(*writer.failed)
            stages = manifest["stages"]
            if exc.stage in stages:
                del stages[stages.index(exc.stage):]
            for key in ("timings", "peak_rss_mb"):
                manifest[key] = {stage: manifest[key][stage] for stage in stages}
        cause = exc.cause if isinstance(exc, StageError) else exc
        manifest["failed_stage"] = getattr(exc, "stage", "pipeline")
        manifest["error"] = {"type": type(cause).__name__, "message": str(cause)}
        storage.write_json(out / "manifest.json", manifest)
        raise exc
    for path in sorted(out.rglob("*")):  # what a writer process wrote, it has hashed
        if path.is_file() and path.name != "manifest.json":
            digest = writer.digests.get(os.path.abspath(path)) or storage.sha256_file(path)
            manifest["artifacts"][path.relative_to(out).as_posix()] = digest
    manifest["timings"]["total"] = round(time.perf_counter() - start, 6)
    storage.write_json(out / "manifest.json", manifest)
    return manifest


def _run_stages(cfg: PipelineConfig, out: Path, manifest: dict, writer: storage.Writer) -> None:
    mode = motif.normalize_mode(cfg.mode)
    signatures = None
    if cfg.methods is None:  # match-only: the signatures and their mode are checked before ingest
        if not cfg.signatures:
            raise InputError("no methods file and no pre-mined signatures: nothing to match")
        signatures = load_signatures(cfg.signatures, mode)
    store_dir = out / "store"
    report, batch, labels = _stage(manifest, "ingest", lambda: ingest_to_store(
        cfg.transfers, cfg.tokens, cfg.accounts, cfg.methods, cfg.method_groups, store_dir,
        functools.partial(writer.submit, "ingest"),
    ))
    manifest["counters"]["ingest"] = {
        "transactions": report["transactions"], "kept": report["transfers_kept"],
        "rejected": report["rejected"], "spam_filtered": report["transactions_spam_filtered"]}
    # the table keeps the batch's packed tx hashes; it is dropped after match
    stats = _stage(manifest, "featurize", lambda: featurize_store(
        batch, cfg.mode, str(out / "features.jsonl"),
        catalog=motif.load_catalog(cfg.catalog) if cfg.catalog else None, max_nodes=cfg.max_nodes,
        write=functools.partial(writer.submit, "featurize"),
    ))
    del batch
    table = stats.table
    manifest["counters"]["featurize"] = {
        "rows": table.n_rows, "distinct_rows": table.n_distinct, "oversize": stats.oversize,
        "rejected_transfers": stats.rejected_transfers}
    del stats  # so that `del table` frees the table

    if cfg.methods is not None:
        params = {key: getattr(cfg, key, PARAMS[key].default) for key in FIT_PARAMS}

        def train():
            dataset = labelled_dataset(table, labels)
            folds = cv_folds(dataset, cfg.folds, cfg.seed)  # before a fit: every class fills them
            return dataset, folds, train_model(dataset, cfg.model, mode, params, cfg.seed,
                                               out / "model.json")

        dataset, folds, spec = _stage(manifest, "train", train)
        manifest["counters"]["train"] = {"rows": dataset.n_rows, "distinct_pairs": dataset.n_pairs}
        report = _stage(manifest, "eval", lambda: cross_validate(
            spec, dataset, folds, cfg.seed, out / "eval_report.json"))
        # prune-CV reuses eval's fold models when they are the trees it needs
        fold_trees = report.models if cfg.model == "dt" else None
        # the signature flow always runs on a decision tree (the paper's Fig. 6)
        if cfg.model != "dt":
            spec = _stage(manifest, "train_dt", lambda: train_model(
                dataset, "dt", mode, params, cfg.seed, out / "model_dt.json"))
        target, alpha = cfg.target_leaves, cfg.alpha
        if target is None and alpha is None:
            alpha = 0.0  # unpruned by default; configure target_leaves to prune
            manifest["notes"].append("no pruning target configured; using alpha=0 (unpruned)")
        pruned, _, _ = _stage(manifest, "prune", lambda: prune_model(
            spec, target, alpha, out / "pruned.json", path_csv=out / "ccp_path.csv",
            dot=out / "pruned_tree.dot", cv=(dataset, folds, fold_trees)))
        signatures, _ = _stage(manifest, "signatures", lambda: write_signatures(
            pruned, dataset, cfg.threshold, "greedy", out / "signatures.json"))
    else:
        manifest["notes"].append("match-only run: no labels; using provided signatures")

    matches = _stage(manifest, "match", lambda: match_features(
        table, signatures, out / "matches.jsonl", functools.partial(writer.submit, "match")))
    del table
    profiles = _stage(manifest, "profile", lambda: write_profiles(matches, out / "profiles.csv"))
    del matches
    profiles = filter_min_matches(profiles, cfg.min_matches)
    if 2 <= len(profiles.accounts) <= MAX_CLUSTER_ACCOUNTS:
        _stage(manifest, "cluster", lambda: cluster_profiles(
            profiles, cfg.linkage, out / "clusters.json", out / "plotdata"))
    else:
        manifest["notes"].append(
            f"clustering skipped: {len(profiles.accounts)} account(s) after the "
            f"min-matches filter (need 2 to {MAX_CLUSTER_ACCOUNTS})"
        )


def cmd_pipeline(args) -> int:
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    # every config field has a flag defaulting to None: only flags passed override
    for f in dataclasses.fields(cfg):
        if getattr(args, f.name) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
    manifest = run_pipeline(cfg)
    _print({"out": cfg.out, "stages": manifest["stages"],
            "artifacts": len(manifest["artifacts"])})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motifscope",
        description="Ego transfer network motifs: featurize, classify, mine signatures, profile accounts.",
    )
    parser.add_argument("--version", action="version", version=f"motifscope {__version__}")
    seeded = argparse.ArgumentParser(add_help=False)
    _add_flags(seeded, "seed")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ingest", help="load and validate raw files into a store")
    p.add_argument("--transfers", required=True)
    p.add_argument("--tokens", required=True)
    p.add_argument("--accounts", required=True)
    p.add_argument("--methods", default=None)
    p.add_argument("--method-groups", dest="method_groups", default=None)
    p.add_argument("--out", required=True, help="store directory")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--store", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("etn", help="export one ETN as DOT")
    p.add_argument("--store", required=True)
    p.add_argument("--tx", required=True)
    p.add_argument("--ego", default=None)
    p.add_argument("--dot", required=True)
    p.set_defaults(func=cmd_etn)

    p = sub.add_parser("featurize", help="extract motif/edge features")
    p.add_argument("--store", required=True)
    _add_flags(p, "mode")
    p.add_argument("--out", required=True)
    p.add_argument("--catalog", default=None, help="motif catalog JSON override")
    _add_flags(p, "max_nodes", "threads")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", parents=[seeded], help="fit a classifier on labeled features")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    _add_flags(p, "model", required=True, default=None)
    _add_flags(p, "mode", default=None)
    _add_flags(p, "l2", "min_leaf", "trees")
    # argparse checks the flag's own choices; "all" is null
    p.add_argument("--max-features", default=PARAMS["max_features"].default,
                   choices=["sqrt", "all"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[seeded], help="stratified cross-validation report")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    _add_flags(p, "folds")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("prune", parents=[seeded], help="cost-complexity pruning")
    p.add_argument("--model", required=True, help="trained dt model JSON")
    _add_flags(p, "target_leaves", "alpha")
    p.add_argument("--out", required=True)
    p.add_argument("--path", default=None, help="write the alpha/leaves/CV-metric table (CSV)")
    p.add_argument("--features", default=None, help="features for the CV columns of --path")
    p.add_argument("--labels", default=None)
    _add_flags(p, "folds")
    p.add_argument("--dot", default=None, help="write pruned tree in DOT format")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("signatures", help="mine per-leaf signatures")
    p.add_argument("--model", required=True, help="pruned dt model JSON")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    _add_flags(p, "threshold")
    p.add_argument("--method", default="greedy", choices=["greedy", "exhaustive"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_signatures)

    p = sub.add_parser("match", help="match signatures against features")
    p.add_argument("--signatures", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("profile", help="account signature-usage profiles")
    p.add_argument("--matches", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("cluster", help="hierarchical clustering of profiles")
    p.add_argument("--profiles", required=True)
    _add_flags(p, "linkage", "min_matches")
    p.add_argument("--out", required=True)
    p.add_argument("--plotdata", default=None)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("synth", parents=[seeded], help="generate a synthetic corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--skew", default="table2", choices=["table2", "uniform"])
    p.add_argument("--egos", type=int, default=None)
    p.add_argument("--pool", type=int, default=None)
    p.add_argument("--mixes", default=None, help="account activity mixes JSON")
    p.add_argument("--config", default=None, help="archetype config JSON")
    p.set_defaults(func=cmd_synth)

    # a flag per config field, each defaulting to None so that only the flags passed
    # override a config file; --config follows the run-wide --seed and --threads.
    # main checks none of them: run_pipeline checks the config they override.
    p = sub.add_parser("pipeline", help="run all stages end to end")
    for f in dataclasses.fields(PipelineConfig):
        if f.name == "transfers":
            p.add_argument("--config", default=None, help="pipeline config JSON")
        _add_flags(p, f.name, default=None, help=f.metadata.get("help"))
    p.set_defaults(func=cmd_pipeline, params=())
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the PARAMS flags passed, before any work; a flag left at None is unset
        _check_params({key: value for key, value in vars(args).items() if value is not None},
                      {key: PARAMS[key] for key in getattr(args, "params", ())}, _flag)
        return args.func(args)
    except InputError as exc:
        return _fail(getattr(exc, "stage", args.cmd), exc, 2)
    except StageError as exc:
        return _fail(exc.stage, exc.cause, 3)
    except Exception as exc:  # stage failure inside a single command
        return _fail(args.cmd, exc, 3)


if __name__ == "__main__":
    sys.exit(main())
