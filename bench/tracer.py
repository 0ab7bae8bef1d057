"""Outside-in tracing of a motifscope pipeline run, for the benchmark's traced runs.

The program is not edited: `install` replaces functions on the motifscope
modules (and on the model classes) with wrappers that record spans and
counters in memory. A span is `(name, start, end, parent)`; a layer's self
time is its span's duration minus what its child spans cover. Time spent in
the tracer's own counter hooks (argument hashing, file sizes) is kept out of
every span's time, self and total. Calls beyond
`SPAN_CAP` per name are folded into a per-name tally so that per-row
functions (one call per transaction) keep memory bounded; a tally's time is
still subtracted from the enclosing span.

Wrap targets that a later refactor removes are skipped and listed in
`Tracer.missing`, so the traced run keeps working and says what it lost.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import resource
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

SPAN_CAP = 2000

STAGES = ("ingest", "featurize", "train", "train_dt", "eval", "prune",
          "signatures", "match", "profile", "cluster")

# Per-row serializers stay unwrapped: their cost remains in the caller's self time.
_STORAGE_SKIP = {"dumps", "tx_to_line", "line_to_tx", "feature_line"}

# metric -> span names whose self time it sums
SELF_TIME = {
    "ingest.load_transfers.s": ["ingest.load_transfers"],
    "ingest.group.s": ["ingest.group_transactions", "ingest.filter_spam"],
    "ingest.methods.s": ["ingest.load_method_mapping", "ingest.load_method_labels",
                         "ingest.group_methods", "ingest.attach_methods"],
    "storage.write_store.s": ["storage.write_store"],
    "storage.iter_features.s": ["storage.iter_features"],
    "storage.sha256.s": ["storage.sha256_file"],
    "featurize.s": ["featurize.featurize_store"],
    "learn.build_dataset.s": ["learn.build_dataset"],
    "learn.evaluate.s": ["learn.evaluate"],
    "models.tree_fit.s": ["models.DecisionTree.fit"],
    "models.forest_fit.s": ["models.RandomForest.fit"],
    "models.lr_fit.s": ["models.LogisticModel.fit"],
    "models.predict.s": ["models.DecisionTree.predict", "models.RandomForest.predict",
                         "models.LogisticModel.predict"],
    "signatures.ccp_path.s": ["signatures.ccp_path"],
    "signatures.mine.s": ["signatures.mine_signatures"],
    "signatures.match.s": ["signatures.match_signatures"],
    "profile.build.s": ["profile.build_profiles"],
    "profile.hcluster.s": ["profile.hcluster"],
    "profile.silhouette.s": ["profile.silhouette_score"],
    "profile.pdist.s": ["profile.pairwise_distances", "profile.pdist"],
}

# metric -> span names whose calls it counts
CALLS = {
    "storage.read_labels.calls": ["storage.read_labels"],
    "learn.build_dataset.calls": ["learn.build_dataset"],
    "models.tree_fit.calls": ["models.DecisionTree.fit"],
    "models.forest_fit.calls": ["models.RandomForest.fit"],
    "signatures.ccp_path.calls": ["signatures.ccp_path"],
    "signatures.match.calls": ["signatures.match_signatures"],
    "profile.silhouette.calls": ["profile.silhouette_score"],
    "profile.pdist.calls": ["profile.pdist"],
}


def _rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _path_mb(path) -> float:
    path = os.fspath(path)
    if os.path.isfile(path):
        return os.path.getsize(path) / 1e6
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total / 1e6


def _array_mb(x) -> float:
    if hasattr(x, "tocsr"):  # scipy.sparse
        x = x.tocsr()
        return (x.data.nbytes + x.indices.nbytes + x.indptr.nbytes) / 1e6
    return np.asarray(x).nbytes / 1e6


def _feed(digest, value) -> None:
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        digest.update(f"{arr.dtype}{arr.shape}".encode())
        digest.update(arr.view(np.uint8).reshape(-1))
    elif hasattr(value, "tocsr"):
        for part in ("data", "indices", "indptr"):
            _feed(digest, getattr(value.tocsr(), part))
    elif isinstance(value, np.random.Generator):
        digest.update(repr(value.bit_generator.state).encode())
    else:
        digest.update(repr(value).encode())


class Tracer:
    """Spans, tallies and counters of one process, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # [name, start, end, parent index or None, charged, hooks]: `charged` is
        # time outside child spans to take off the self time (tallies, hooks run
        # directly under this span); `hooks` is hook time anywhere beneath it.
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.span_counts: Counter = Counter()
        self.tallies: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.counters: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.fit_digests: set[str] = set()
        self.hooks_s = 0.0  # counter hooks (argument hashing, file sizes)
        self.missing: list[str] = []
        self.notes: list[str] = []

    # -- recording ---------------------------------------------------------

    def _charge(self, seconds: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]][4] += seconds

    @contextmanager
    def span(self, name: str):
        if self.span_counts[name] >= SPAN_CAP:
            start = self.clock()
            try:
                yield
            finally:
                elapsed = self.clock() - start
                tally = self.tallies[name]
                tally[0] += 1
                tally[1] += elapsed
                self._charge(elapsed)
            return
        self.span_counts[name] += 1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, self.stack[-1] if self.stack else None,
                           0.0, 0.0])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = self.clock()

    def gauge_max(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, value), value)

    # -- derived numbers ---------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] - charged
                for i, (_, start, end, _, charged, _) in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()
        by_name: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        cli_self = 0.0
        for (name, start, end, _, _, hooks), s in zip(self.spans, own):
            by_name[name] += s
            total[name] += end - start - hooks
            if name.startswith("cli."):
                cli_self += s
        for name, (_, seconds) in self.tallies.items():
            by_name[name] += seconds
            total[name] += seconds

        def calls(name):
            tally = self.tallies.get(name)
            return self.span_counts[name] + (tally[0] if tally else 0)

        out: dict[str, float] = {}
        for stage in STAGES:
            out[f"cli.stage.{stage}.s"] = total.get(f"cli.stage.{stage}", 0.0)
            out[f"cli.stage.{stage}.rss_mb"] = self.gauges.get(f"cli.stage.{stage}.rss_mb", 0.0)
        out["cli.self.s"] = cli_self
        for metric, names in SELF_TIME.items():
            out[metric] = sum(by_name.get(n, 0.0) for n in names)
        for metric, names in CALLS.items():
            out[metric] = float(sum(calls(n) for n in names))
        c, g = self.counters, self.gauges
        featurize_s = total.get("featurize.featurize_store", 0.0)
        fits = calls("models.DecisionTree.fit")
        leaves = c["signatures.leaves"]
        matches = calls("signatures.match_signatures")
        out.update({
            "ingest.rows_read": float(c["ingest.rows_read"]),
            "ingest.rows_rejected": float(c["ingest.rows_rejected"]),
            "ingest.transactions": float(c["ingest.transactions"]),
            "storage.store_mb": g.get("storage.store_mb", 0.0),
            "storage.iter_features.passes": float(c["storage.iter_features.passes"]),
            "featurize.tx_per_s": c["featurize.transactions"] / featurize_s if featurize_s else 0.0,
            "featurize.out_mb": g.get("featurize.out_mb", 0.0),
            "featurize.oversize": float(c["featurize.oversize"]),
            "featurize.rejected_transfers": float(c["featurize.rejected_transfers"]),
            "learn.x_mb": g.get("learn.x_mb", 0.0),
            "learn.vocab": g.get("learn.vocab", 0.0),
            "models.tree_fit.rows": float(c["models.tree_fit.rows"]),
            "models.tree_fit.repeat_share": c["models.tree_fit.repeats"] / fits if fits else 0.0,
            "signatures.usable_share": c["signatures.usable"] / leaves if leaves else 0.0,
            "signatures.matched_share": c["signatures.matched"] / matches if matches else 0.0,
            "profile.accounts": g.get("profile.accounts", 0.0),
            "trace.spans": float(len(self.spans)),
            "trace.hooks_s": self.hooks_s,
        })
        return out

    def dump(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "hooks_s": h}
                      for n, s, e, p, _, h in self.spans],
            "tallies": {n: {"calls": k, "seconds": t} for n, (k, t) in self.tallies.items()},
            "hooks_s": self.hooks_s,
            "missing": self.missing,
            "notes": self.notes,
        }

    # -- wrappers ----------------------------------------------------------

    def _observe(self, observer, *args) -> None:
        """Run a counter hook; its time is tracer overhead, kept out of every span's time."""
        start = self.clock()
        try:
            observer(self, *args)
        except (AttributeError, TypeError, KeyError, IndexError, ValueError, OSError) as exc:
            self.notes.append(f"{observer.__name__}: {type(exc).__name__}: {exc}")
        spent = self.clock() - start
        self.hooks_s += spent
        self._charge(spent)
        for index in self.stack:
            self.spans[index][5] += spent

    def wrap(self, fn, name: str, before=None, after=None):
        """A function that records a span named `name` around each call of fn."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                tracer._observe(before, fn, args, kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                tracer._observe(after, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_generator(self, fn, name: str):
        """Time each step of a generator as a tally; count passes run to the end."""
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            tally = tracer.tallies[name]
            tally[0] += 1
            try:
                while True:
                    start = tracer.clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer.counters[f"{name}.passes"] += 1
                        return
                    finally:
                        elapsed = tracer.clock() - start
                        tally[1] += elapsed
                        tracer._charge(elapsed)
                    yield item
            finally:
                inner.close()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        raw = inspect.getattr_static(owner, attr, None)
        if raw is None:
            self.missing.append(label)
            return
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, before, after)))
        elif callable(raw):
            setattr(owner, attr, self.wrap(raw, name, before, after))
        else:
            self.missing.append(label)


# -- observers: counters read from arguments and results ---------------------

def _after_load_transfers(tracer, args, kwargs, result):
    tracer.counters["ingest.rows_read"] += len(result.transfers) + len(result.rejects)
    tracer.counters["ingest.rows_rejected"] += len(result.rejects)


def _after_group_transactions(tracer, args, kwargs, result):
    tracer.counters["ingest.transactions"] += len(result)


def _after_write_store(tracer, args, kwargs, result):
    tracer.gauge_max("storage.store_mb", _path_mb(os.path.dirname(os.fspath(result))))


def _after_featurize(tracer, args, kwargs, result):
    tracer.counters["featurize.transactions"] += result.transactions
    tracer.counters["featurize.oversize"] += result.oversize
    tracer.counters["featurize.rejected_transfers"] += result.rejected_transfers
    out_path = kwargs.get("out_path", args[2] if len(args) > 2 else None)
    tracer.gauge_max("featurize.out_mb", _path_mb(out_path))


def _after_build_dataset(tracer, args, kwargs, result):
    tracer.gauge_max("learn.x_mb", _array_mb(result.X))
    tracer.gauge_max("learn.vocab", float(len(result.vocabulary)))


def _before_tree_fit(tracer, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    digest = hashlib.sha256()
    for key, value in bound.arguments.items():
        if key != "cls":
            digest.update(key.encode())
            _feed(digest, value)
    key = digest.hexdigest()
    tracer.counters["models.tree_fit.repeats"] += key in tracer.fit_digests
    tracer.fit_digests.add(key)
    tracer.counters["models.tree_fit.rows"] += int(bound.arguments["X"].shape[0])


def _after_mine(tracer, args, kwargs, result):
    signatures = result[0]
    tracer.counters["signatures.leaves"] += len(signatures)
    tracer.counters["signatures.usable"] += sum(1 for s in signatures if s.items)


def _after_match(tracer, args, kwargs, result):
    tracer.counters["signatures.matched"] += bool(result[0])


def _after_build_profiles(tracer, args, kwargs, result):
    tracer.gauge_max("profile.accounts", float(len(result.accounts)))


def _after_stage(tracer, args, kwargs, result):
    tracer.gauge_max(f"cli.stage.{args[1]}.rss_mb", _rss_mb())


_AFTER = {
    "ingest.load_transfers": _after_load_transfers,
    "ingest.group_transactions": _after_group_transactions,
    "storage.write_store": _after_write_store,
    "featurize.featurize_store": _after_featurize,
    "learn.build_dataset": _after_build_dataset,
    "signatures.mine_signatures": _after_mine,
    "signatures.match_signatures": _after_match,
    "profile.build_profiles": _after_build_profiles,
}


def install(tracer: Tracer) -> None:
    """Wrap the pipeline's layer boundaries: cli commands and stages, the
    library functions cli imports, storage and profile module functions, and
    the model classes' fit/predict."""
    from motifscope import cli, models, profile, storage

    stage = inspect.getattr_static(cli, "_stage", None)
    if stage is None:
        tracer.missing.append("cli._stage")
    else:
        # the span is named after the stage argument, which Tracer.wrap's fixed names cannot do
        def traced_stage(manifest, name, fn, *rest, **kwargs):
            with tracer.span(f"cli.stage.{name}"):
                result = stage(manifest, name, fn, *rest, **kwargs)
            tracer._observe(_after_stage, (manifest, name), kwargs, result)
            return result

        cli._stage = traced_stage
    for attr, value in list(vars(cli).items()):
        if not inspect.isfunction(value):
            continue
        module = value.__module__ or ""
        if attr.startswith("cmd_") and module == cli.__name__:
            tracer.patch(cli, attr, f"cli.{attr}")
        elif module.startswith("motifscope.") and module != cli.__name__:
            name = f"{module.split('.', 1)[1]}.{value.__name__}"
            tracer.patch(cli, attr, name, after=_AFTER.get(name))
    for attr, value in list(vars(storage).items()):
        if inspect.isfunction(value) and value.__module__ == storage.__name__ \
                and not attr.startswith("_") and attr not in _STORAGE_SKIP:
            tracer.patch(storage, attr, f"storage.{attr}", after=_AFTER.get(f"storage.{attr}"))
    for attr in ("silhouette_score", "pairwise_distances", "pdist"):
        tracer.patch(profile, attr, f"profile.{attr}")
    for cls in ("DecisionTree", "RandomForest", "LogisticModel"):
        owner = getattr(models, cls, None)
        if owner is None:
            tracer.missing.append(f"models.{cls}")
            continue
        tracer.patch(owner, "fit", f"models.{cls}.fit",
                     before=_before_tree_fit if cls == "DecisionTree" else None)
        tracer.patch(owner, "predict", f"models.{cls}.predict")
