"""Bulk feature extraction over a transaction store.

This is the throughput-critical stage. It runs the two halves of
motif.transaction_features, the one per-transaction featurizer: every
transaction is reduced to its shape (motif.transaction_shape), the canonical
form of its typed ego network up to what the features see, and the map is
built (motif.shape_features) once per distinct shape in a chunk. Shapes
repeat heavily (200,000 transactions of a scoring corpus hold a few
hundred), so only the tally is per-row work. A chunk returns its maps and
each row's index among them; the parent appends them in chunk order and
builds the FeatureTable once. features.jsonl is written from that table by
storage.write_rows, which encodes each distinct row once.

The transactions come either from the store on disk, whose lines
storage.line_to_tx decodes one chunk at a time, or from the list that ingest
holds in memory. A store's chunks are spread across worker processes, since
decoding its lines is most of their cost; workers are pure and chunks are
merged in input order, so the FeatureTable and its lines are bit-identical
regardless of worker count. The in-memory list is featurized in this
process, with no fork: a pool is no faster there. Both feed one chunk
function. test_featurize.py checks this path against the plain featurizer
and the brute-force oracles.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from . import motif, storage
from .ingest import _open
from .motif import DEFAULT_MAX_NODES, MotifCatalog
from .table import FeatureTable

CHUNK_LINES = 8192


def _chunk_transactions(chunk) -> list:
    """A chunk's stored tuples: a list of in-memory transactions, or (store
    path, first line number, lines) decoded by storage.line_to_tx."""
    if isinstance(chunk, list):
        return chunk
    path, first, lines = chunk
    decode = storage.line_to_tx
    return [decode(line, path, lineno) for lineno, line in enumerate(lines, first) if line.strip()]


def _process_chunk(catalog: MotifCatalog, mode: str, max_nodes: int, chunk) -> tuple:
    """Featurize one chunk into (oversize, rejected, maps, map_of, names): row
    i's features are maps[map_of[i]], the maps in the order of their first
    use. names is the rows' (tx hashes, egos) for a chunk decoded from a
    store, and None for a list of in-memory transactions, which the caller
    holds. A bad store line raises InputError.

    Each row is reduced to its shape (motif.transaction_shape), which is all
    its feature map depends on. A memo maps each of the chunk's shapes to its
    index among the chunk's maps, so motif counting runs once per distinct
    shape. The memo lives for one chunk, so it holds at most CHUNK_LINES
    shapes.
    """
    memo: dict[motif.Shape, int] = {}
    maps, map_of = [], []
    oversize = rejected = 0
    tally = motif.transaction_shape
    txs = _chunk_transactions(chunk)
    for tx in txs:
        shape, rej = tally(tx, mode, max_nodes)
        rejected += rej
        oversize += shape[2]
        index = memo.setdefault(shape, len(maps))
        if index == len(maps):
            maps.append(motif.shape_features(catalog, shape))
        map_of.append(index)
    names = None if isinstance(chunk, list) else ([tx[0] for tx in txs], [tx[1] for tx in txs])
    return oversize, rejected, maps, np.array(map_of, dtype=np.int32), names


@dataclass
class FeaturizeStats:
    transactions: int
    oversize: int
    rejected_transfers: int
    table: FeatureTable


def _store_chunks(path, chunk_lines: int):
    """Yield (path, line number of the first line, lines) in chunk_lines slices."""
    with _open(path, "store") as fh:
        first = 1
        while chunk := list(islice(fh, chunk_lines)):
            yield path, first, chunk
            first += len(chunk)


def featurize_store(
    store,
    mode: str,
    out_path,
    threads: int = 1,
    catalog: MotifCatalog | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
    write=storage._now,
) -> FeaturizeStats:
    """Featurize every transaction of `store`, write the FeatureTable's rows
    to out_path (JSONL, by storage.write_rows, through `write`) and return
    it with the counts.

    store is a store directory, whose chunks `threads` worker processes
    featurize, or the list of (tx_hash, ego, method group, rows) tuples that
    was written to one, which this process featurizes. Such a list is
    consumed: each chunk's entries are set to None once it is featurized, so
    only the chunks still to come are held whole. out_path is written only
    when every transaction featurized; a malformed store line raises
    InputError naming the store path and line number.
    """
    mode = motif.normalize_mode(mode)
    if catalog is None:
        catalog = motif.enumerate_catalog()
    work = partial(_process_chunk, catalog, mode, max_nodes)
    if not isinstance(store, (str, os.PathLike)):
        chunks = (store[start:start + CHUNK_LINES] for start in range(0, len(store), CHUNK_LINES))
        stats = _collect(map(work, chunks), store)
    elif threads <= 1:
        stats = _collect(map(work, _store_chunks(storage.store_path(store), CHUNK_LINES)))
    else:
        chunks = _store_chunks(storage.store_path(store), CHUNK_LINES)
        ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
        with ctx.Pool(threads) as pool:
            stats = _collect(pool.imap(work, chunks, chunksize=1))
    write(storage.write_rows, out_path, stats.table,
          [{"features": feats, "mode": mode} for feats in stats.table.distinct_rows()])
    return stats


def _collect(results, transactions: list | None = None) -> FeaturizeStats:
    """Sum the chunks' counts, append their maps and rows in order and build
    the table once. The rows of an in-memory chunk take their tx hash and
    ego from `transactions`, whose entries are then released."""
    maps, map_of, hashes, egos = [], [], [], []
    oversize = rejected = 0
    for ov, rej, chunk_maps, chunk_map_of, names in results:
        oversize += ov
        rejected += rej
        map_of.append(chunk_map_of + len(maps))
        maps += chunk_maps
        if names is None:
            start = len(hashes)
            txs = transactions[start:start + len(chunk_map_of)]
            transactions[start:start + len(txs)] = [None] * len(txs)
            names = [tx[0] for tx in txs], [tx[1] for tx in txs]
        hashes += names[0]
        egos += names[1]
    table = FeatureTable.build(hashes, egos, maps, np.concatenate([np.empty(0, np.int32), *map_of]))
    return FeaturizeStats(transactions=len(hashes), oversize=oversize,
                          rejected_transfers=rejected, table=table)
