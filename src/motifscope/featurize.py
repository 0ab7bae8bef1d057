"""Bulk feature extraction over a transaction store.

This is the throughput-critical stage. It decodes store lines through
storage.line_to_tx (no ETN objects), derives each transaction's counterpart
flags, first-seen types and edge labels, and hands them to the same kernel
as the ETN path (motif.group_counterparts and motif.count_from_groups). The
store is sharded across worker processes in chunks; workers are pure and
chunks are merged in input order, so results are bit-identical regardless
of worker count. test_motif.py cross-checks this path against the ETN path.
"""

from __future__ import annotations

import json
import multiprocessing as mp
from dataclasses import dataclass
from itertools import islice

from . import motif, storage
from .ingest import _open
from .motif import DEFAULT_MAX_NODES, OVERSIZE_KEY, MotifCatalog

CHUNK_LINES = 8192

# Per-worker state: (store path, catalog, mode, max_nodes, edge-label cache).
_STATE = None


def _init_worker(path: str, catalog: MotifCatalog, mode: str, max_nodes: int) -> None:
    global _STATE
    _STATE = (path, catalog, mode, max_nodes, {})


def _process_chunk(chunk: tuple[int, list[str]]) -> tuple[str, int, int, int]:
    """Featurize one chunk (first line number, lines); returns (joined
    output, n_txs, oversize, rejected). A malformed line raises InputError."""
    path, catalog, mode, max_nodes, ekeys = _STATE
    first, lines = chunk
    want_m = mode in ("M", "M+E")
    want_e = mode in ("E", "M+E")
    want_mxe = mode == "MxE"
    out = []
    oversize = 0
    rejected = 0
    decode = storage.line_to_tx
    dumps = json.dumps
    for lineno, line in enumerate(lines, first):
        if not line.strip():
            continue
        tx, ego, _, rows = decode(line, path, lineno)
        feats: dict[str, int] = {}
        flags: dict[str, int] = {}
        types: dict[str, str] = {}
        labels: dict[str, list[str]] = {}
        for src, dst, src_type, dst_type, _, _, category, _, _ in rows:
            if src == ego:
                other, otype, bit = dst, dst_type, 1
            elif dst == ego:
                other, otype, bit = src, src_type, 2
            else:
                rejected += 1
                continue
            # a counterpart keeps its first-seen type, as in etn.build_etn
            otype = types.setdefault(other, otype)
            flags[other] = flags.get(other, 0) | bit
            ek = ("E", otype, category) if bit == 1 else (otype, "E", category)
            label = ekeys.get(ek)
            if label is None:
                label = f"({ek[0]},{ek[1]}){ek[2]}"
                ekeys[ek] = label
            if want_e:
                feats[label] = feats.get(label, 0) + 1
            if want_mxe:
                labels.setdefault(other, []).append(label)
        if want_m:
            feats.update(motif.count_from_groups(catalog, motif.group_counterparts(flags, types)))
        if want_mxe:
            groups = motif.group_counterparts(flags, types, labels)
            feats = motif.count_from_groups(catalog, groups, oversize=len(flags) > max_nodes)
            if OVERSIZE_KEY in feats:
                oversize += 1
        out.append(dumps({"tx_hash": tx, "ego": ego, "mode": mode, "features": feats},
                         sort_keys=True, separators=(",", ":")))
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
    state = (path, catalog, mode, max_nodes)
    chunks = _iter_chunks(path, CHUNK_LINES)
    with storage.replacing(out_path) as (tmp_path,), open(tmp_path, "w", encoding="utf-8") as out:
        if threads <= 1:
            _init_worker(*state)
            stats = _write_results(out, map(_process_chunk, chunks))
        else:
            ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
            with ctx.Pool(threads, initializer=_init_worker, initargs=state) as pool:
                stats = _write_results(out, pool.imap(_process_chunk, chunks, chunksize=1))
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
