"""Bulk feature extraction over a transaction batch or store.

This is the throughput-critical stage. Every transaction of a
`TransferBatch` is reduced to its shape (motif.batch_shapes, the one loop
over transfer rows), the canonical form of its typed ego network up to what
the features see, and the map is built (motif.shape_features) once per
distinct shape of the input. Shapes repeat heavily (200,000 transactions of
a scoring corpus hold a few hundred), so only the tally is per-row work.
`_featurize` reduces one batch to its distinct shapes and each row's index
among them; `_collect` merges the batches' results in input order through
one memo of shapes, so each shape of the whole input is counted once, and
builds the FeatureTable once, taking the batches' packed tx hashes as they
are. features.jsonl is written from that table by storage.write_rows, which
encodes each distinct row once.

The transactions come from the batch that ingest holds in memory, or from
the store on disk, read in storage.store_slices' CHUNK_LINES slices, each
decoded into a batch by storage.decode_lines: in this process, or with
`threads` >= 2 in worker processes, since decoding the lines is most of
their cost. Workers are pure and their results are merged in input order,
so the FeatureTable and its lines are bit-identical regardless of worker
count. test_featurize.py checks the pass against a per-transaction
featurizer and the brute-force oracles.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import motif, storage
from .ingest import TransferBatch
from .motif import DEFAULT_MAX_NODES, Catalog
from .table import FeatureTable, Strings


def _featurize(mode: str, max_nodes: int, batch: TransferBatch) -> tuple:
    """Reduce a batch to (oversize, rejected, shapes, shape_of, hashes, ego
    names, ego ids): row i's tx hash is hashes[i], the batch's own, its ego
    ego_names[ego_ids[i]] and its shape shapes[shape_of[i]], the shapes in
    the order of their first use (motif.batch_shapes)."""
    memo: dict[motif.Shape, int] = {}
    shape_of = np.empty(len(batch), dtype=np.int32)
    oversize = rejected = 0
    for i, (shape, rej) in enumerate(motif.batch_shapes(batch, mode, max_nodes)):
        rejected += rej
        oversize += shape[2]
        shape_of[i] = memo.setdefault(shape, len(memo))
    return oversize, rejected, list(memo), shape_of, batch.tx_hashes, *batch.ego_table()


def _featurize_lines(mode: str, max_nodes: int, chunk) -> tuple:
    """_featurize the batch of a storage.store_slices chunk."""
    return _featurize(mode, max_nodes, storage.decode_lines(*chunk))


@dataclass
class FeaturizeStats:
    transactions: int
    oversize: int
    rejected_transfers: int
    table: FeatureTable


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

    store is a TransferBatch, such as ingest holds, which this process
    featurizes in one pass, or a store directory, whose storage.CHUNK_LINES
    slices are featurized in this process or, with `threads` >= 2, by that
    many worker processes. out_path is written only when every transaction
    featurized; a malformed store line raises InputError naming the store
    path and line number.
    """
    mode = motif.normalize_mode(mode)
    if catalog is None:
        catalog = motif.enumerate_catalog()
    if isinstance(store, TransferBatch):
        stats = _collect(catalog, [_featurize(mode, max_nodes, store)])
    else:
        work = partial(_featurize_lines, mode, max_nodes)
        chunks = storage.store_slices(storage.store_path(store))
        if threads <= 1:
            stats = _collect(catalog, map(work, chunks))
        else:
            ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
            with ctx.Pool(threads) as pool:
                stats = _collect(catalog, pool.imap(work, chunks, chunksize=1))
    write(storage.write_rows, out_path, stats.table,
          [{"features": feats, "mode": mode} for feats in stats.table.distinct_rows()])
    return stats


def _collect(catalog: Catalog, results) -> FeaturizeStats:
    """Sum the results' counts, append their rows in order, number their
    shapes and egos in order of first appearance and build the table once.

    One memo maps each shape of the input to its index among the maps, so
    motif counting runs once per distinct shape, however many batches or
    workers the shape recurs in."""
    memo: dict[motif.Shape, int] = {}
    maps, map_of, hashes, ego_ids = [], [], [], []
    ego_index: dict[str, int] = {}
    oversize = rejected = 0
    for ov, rej, part_shapes, part_shape_of, part_hashes, part_egos, part_ego_ids in results:
        oversize += ov
        rejected += rej
        ids = []
        for shape in part_shapes:
            index = memo.setdefault(shape, len(maps))
            if index == len(maps):
                maps.append(motif.shape_features(catalog, shape))
            ids.append(index)
        map_of.append(np.array(ids, dtype=np.int32)[part_shape_of])
        hashes.append(part_hashes)
        ids = [ego_index.setdefault(ego, len(ego_index)) for ego in part_egos]
        ego_ids.append(np.array(ids, dtype=np.int32)[part_ego_ids])
    table = FeatureTable.build(Strings.join(hashes), Strings.pack(list(ego_index)),
                               np.concatenate([np.empty(0, np.int32), *ego_ids]), maps,
                               np.concatenate([np.empty(0, np.int32), *map_of]))
    return FeaturizeStats(transactions=table.n_rows, oversize=oversize,
                          rejected_transfers=rejected, table=table)
