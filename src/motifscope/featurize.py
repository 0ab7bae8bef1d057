"""Bulk feature extraction over a transaction store.

This is the throughput-critical stage. Each line is decoded by
storage.line_to_tx, featurized by motif.transaction_features (the one
per-transaction featurizer, which the library calls too) and encoded by
storage.dumps. The store is sharded across worker processes in chunks;
workers are pure and chunks are merged in input order, so results are
bit-identical regardless of worker count. test_motif.py checks this path
against the brute-force oracles.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass
from functools import partial
from itertools import islice

from . import motif, storage
from .ingest import _open
from .motif import DEFAULT_MAX_NODES, OVERSIZE_KEY, MotifCatalog

CHUNK_LINES = 8192

def _process_chunk(path: str, catalog: MotifCatalog, mode: str, max_nodes: int,
                   chunk: tuple[int, list[str]]) -> tuple[str, int, int, int]:
    """Featurize one chunk (first line number, lines) of the store at path into
    (joined output, n_txs, oversize, rejected); a bad line raises InputError."""
    first, lines = chunk
    out = []
    oversize = 0
    rejected = 0
    decode = storage.line_to_tx
    features = motif.transaction_features
    dumps = storage.dumps
    for lineno, line in enumerate(lines, first):
        if not line.strip():
            continue
        tx = decode(line, path, lineno)
        feats, rej = features(tx, catalog, mode, max_nodes)
        rejected += rej
        if OVERSIZE_KEY in feats:
            oversize += 1
        out.append(dumps({"tx_hash": tx[0], "ego": tx[1], "mode": mode, "features": feats}))
    return "\n".join(out), len(out), oversize, rejected


@dataclass
class FeaturizeStats:
    transactions: int
    oversize: int
    rejected_transfers: int


def _iter_chunks(path, chunk_lines: int):
    """Yield (line number of the first line, lines) in chunk_lines slices."""
    with _open(path, "store") as fh:
        first = 1
        while chunk := list(islice(fh, chunk_lines)):
            yield first, chunk
            first += len(chunk)


def featurize_store(
    store_dir,
    mode: str,
    out_path,
    threads: int = 1,
    catalog: MotifCatalog | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> FeaturizeStats:
    """Featurize every stored transaction into out_path (JSONL).

    The output is written to a temporary file next to out_path and moved
    into place only when every line featurized; a malformed store line
    raises InputError naming the store path and line number.
    """
    mode = motif.normalize_mode(mode)
    if catalog is None:
        catalog = motif.enumerate_catalog()
    path = storage.store_path(store_dir)
    work = partial(_process_chunk, path, catalog, mode, max_nodes)
    chunks = _iter_chunks(path, CHUNK_LINES)
    with storage.replacing(out_path) as (tmp_path,), open(tmp_path, "w", encoding="utf-8") as out:
        if threads <= 1:
            stats = _write_results(out, map(work, chunks))
        else:
            ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
            with ctx.Pool(threads) as pool:
                stats = _write_results(out, pool.imap(work, chunks, chunksize=1))
    return stats


def _write_results(out, results) -> FeaturizeStats:
    total = oversize = rejected = 0
    for text, n, ov, rej in results:
        if text:
            out.write(text)
            out.write("\n")
        total += n
        oversize += ov
        rejected += rej
    return FeaturizeStats(transactions=total, oversize=oversize, rejected_transfers=rejected)
