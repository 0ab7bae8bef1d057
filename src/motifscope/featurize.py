"""Bulk feature extraction over a transaction store.

This is the throughput-critical stage. It runs the two halves of
motif.transaction_features, the one per-transaction featurizer: every
transaction is reduced to its shape (motif.transaction_shape), the canonical
form of its typed ego network up to what the features see, and the map is
built (motif.shape_features) once per distinct shape of a pass. Shapes
repeat heavily (200,000 transactions of a scoring corpus hold a few
hundred), so only the tally is per-row work. `_featurize` is that pass, the
one per-transaction loop: it returns the maps and each row's index among
them, and the FeatureTable is built from them once. features.jsonl is written
from that table by storage.write_rows, which encodes each distinct row once.

The transactions come from the list that ingest holds in memory, which one
pass in this process reads and releases entry by entry, or from the store on
disk. A store is read in one pass over storage.iter_store, or with `threads`
>= 2 in CHUNK_LINES slices that worker processes decode and featurize, since
decoding its lines is most of their cost. Workers are pure and their results
are merged in input order, so the FeatureTable and its lines are
bit-identical regardless of worker count. test_featurize.py checks the pass
against the plain featurizer and the brute-force oracles.
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
from .motif import DEFAULT_MAX_NODES, Catalog
from .table import FeatureTable, Strings

CHUNK_LINES = 8192
PACK_HASHES = 4096


def _featurize(catalog: Catalog, mode: str, max_nodes: int, transactions) -> tuple:
    """Featurize stored tuples into (oversize, rejected, maps, map_of, hashes,
    egos): row i's tx hash and ego are hashes[i] and egos[i], and its
    features maps[map_of[i]], the maps in the order of their first use.

    Each row is reduced to its shape (motif.transaction_shape), which is all
    its feature map depends on. A memo maps each shape of the pass to its
    index among the maps, so motif counting runs once per distinct shape.
    The hashes are packed into Strings every PACK_HASHES rows, so the pass
    keeps no hash string alive that its transaction would release.
    """
    memo: dict[motif.Shape, int] = {}
    maps, map_of, hashes, packed, egos = [], [], [], [], []
    oversize = rejected = 0
    tally = motif.transaction_shape
    for tx in transactions:
        shape, rej = tally(tx, mode, max_nodes)
        rejected += rej
        oversize += shape[2]
        index = memo.setdefault(shape, len(maps))
        if index == len(maps):
            maps.append(motif.shape_features(catalog, shape))
        map_of.append(index)
        hashes.append(tx[0])
        egos.append(tx[1])
        if len(hashes) == PACK_HASHES:
            packed.append(Strings.pack(hashes))
            hashes.clear()
    packed.append(Strings.pack(hashes))
    return oversize, rejected, maps, np.array(map_of, dtype=np.int32), Strings.join(packed), egos


def _featurize_lines(catalog: Catalog, mode: str, max_nodes: int, chunk) -> tuple:
    """A pool worker: _featurize a (store path, first line number, lines) chunk."""
    path, first, lines = chunk
    return _featurize(catalog, mode, max_nodes, storage._decode(lines, path, first))


def _released(transactions: list):
    """Each entry of the list, which is set to None as it is handed out."""
    for i, tx in enumerate(transactions):
        transactions[i] = None
        yield tx


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
    catalog: Catalog | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
    write=storage._now,
) -> FeaturizeStats:
    """Featurize every transaction of `store`, write the FeatureTable's rows
    to out_path (JSONL, by storage.write_rows, through `write`) and return
    it with the counts.

    store is a store directory, which this process reads in one pass or
    `threads` >= 2 worker processes featurize in CHUNK_LINES slices, or the
    list of (tx_hash, ego, method group, rows) tuples that was written to
    one, which this process featurizes in one pass. Such a list is consumed:
    each entry is set to None as it is read.
    out_path is written only when every transaction featurized; a malformed
    store line raises InputError naming the store path and line number.
    """
    mode = motif.normalize_mode(mode)
    if catalog is None:
        catalog = motif.enumerate_catalog()
    if not isinstance(store, (str, os.PathLike)):
        stats = _collect([_featurize(catalog, mode, max_nodes, _released(store))])
    elif threads <= 1:
        stats = _collect([_featurize(catalog, mode, max_nodes, storage.iter_store(store))])
    else:
        work = partial(_featurize_lines, catalog, mode, max_nodes)
        chunks = _store_chunks(storage.store_path(store), CHUNK_LINES)
        ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
        with ctx.Pool(threads) as pool:
            stats = _collect(pool.imap(work, chunks, chunksize=1))
    write(storage.write_rows, out_path, stats.table,
          [{"features": feats, "mode": mode} for feats in stats.table.distinct_rows()])
    return stats


def _collect(results) -> FeaturizeStats:
    """Sum the results' counts, append their maps and rows in order and build
    the table once."""
    maps, map_of, packed, egos = [], [], [], []
    oversize = rejected = 0
    for ov, rej, part_maps, part_map_of, part_hashes, part_egos in results:
        oversize += ov
        rejected += rej
        map_of.append(part_map_of + len(maps))
        maps += part_maps
        packed.append(part_hashes)
        egos += part_egos
    hashes = Strings.join(packed)
    table = FeatureTable.build(hashes, egos, maps, np.concatenate([np.empty(0, np.int32), *map_of]))
    return FeaturizeStats(transactions=len(hashes), oversize=oversize,
                          rejected_transfers=rejected, table=table)
