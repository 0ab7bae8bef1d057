"""Featurize's shape memo: a pass, or the pool's chunks, featurized once per
distinct shape write the lines and tables of the plain per-row featurizer,
and the oracles' maps; the pure-Python JSON encoder writes the same bytes as
the C one."""

import json

import numpy as np
import pytest

from motifscope import cli, featurize, motif, storage
from motifscope.signatures import LeafSignature
from motifscope.table import FeatureTable

from oracles import random_tx
from test_motif import oracle_features
from test_table import assert_same_table

MAX_NODES = 4  # small, so that MxE has oversize transactions


def renamed(tx, rng, tag):
    """tx under a new hash, ego and counterpart names, its rows permuted:
    another transaction of the same shape. The names need JSON escapes."""
    _, ego, group, rows = tx
    names = {ego: f'0xé{tag}"e'}

    def name(account):
        return names.setdefault(account, f"0x{tag}.{len(names)}")

    rows = [[name(r[0]), name(r[1]), *r[2:]] for r in rows]
    order = rng.permutation(len(rows)).tolist()
    return f"tx{tag}\t\\ü", names[ego], group, [rows[i] for i in order]


def random_transactions(rng, n):
    """n random stored transactions whose shapes recur: about half are an
    earlier one renamed, and about a fifth of the others carry a row that
    does not touch the ego."""
    txs = []
    for i in range(n):
        if txs and rng.random() < 0.5:
            tx = renamed(txs[int(rng.integers(len(txs)))], rng, i)
        else:
            tx = renamed(random_tx(rng), rng, i)
            if rng.random() < 0.2:
                tx[3].append(["0xs1", "0xs2", "A", "C", "0xt", "TOK", "Stablecoin", 1.0, 1])
        txs.append(tx)
    return txs


def plain_lines(txs, catalog, mode, max_nodes=MAX_NODES):
    """(lines, feature maps, oversize, rejected) by transaction_features and
    storage.dumps, one row at a time."""
    results = [motif.transaction_features(tx, catalog, mode, max_nodes) for tx in txs]
    lines = [storage.dumps({"tx_hash": tx[0], "ego": tx[1], "mode": mode, "features": feats})
             for tx, (feats, _) in zip(txs, results)]
    maps = [feats for feats, _ in results]
    return (lines, maps, sum(motif.OVERSIZE_KEY in feats for feats in maps),
            sum(rejected for _, rejected in results))


def written_lines(table, mode, path):
    """The lines storage.write_rows writes for a featurize table."""
    storage.write_rows(path, table, [{"features": feats, "mode": mode}
                                     for feats in table.distinct_rows()])
    return path.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("mode", motif.MODES)
def test_memoized_chunks_equal_plain_featurizer_and_oracles(rng, tmp_path, mode):
    """A pass over the whole list, and passes over its chunks as pool
    workers make, give the plain featurizer's maps, table and lines."""
    catalog = motif.enumerate_catalog()
    txs = random_transactions(rng, 400)
    lines, maps, oversize, rejected = plain_lines(txs, catalog, mode)
    assert maps == [oracle_features(tx, catalog, mode, MAX_NODES) for tx in txs]
    assert rejected > 0 and (oversize > 0) == (mode == "MxE")
    for size in (64, len(txs)):
        chunks = [range(i, min(i + size, len(txs))) for i in range(0, len(txs), size)]
        results = [featurize._featurize(catalog, mode, MAX_NODES, txs[chunk.start:chunk.stop])
                   for chunk in chunks]
        assert [sum(r[0] for r in results), sum(r[1] for r in results),
                sum(len(r[3]) for r in results)] == [oversize, rejected, len(txs)]
        for chunk, (_, _, chunk_maps, map_of, hashes, egos) in zip(chunks, results):
            assert map_of.dtype == np.int32
            assert (hashes, egos) == ([txs[i][0] for i in chunk], [txs[i][1] for i in chunk])
            # the chunk's maps in the order of their first use, each used
            assert list(dict.fromkeys(map_of.tolist())) == list(range(len(chunk_maps)))
            assert [chunk_maps[i] for i in map_of.tolist()] == maps[chunk.start:chunk.stop]
            table = FeatureTable.build(hashes, egos, chunk_maps, map_of)
            assert_same_table(table, FeatureTable.build(hashes, egos, maps[chunk.start:chunk.stop]))
            assert written_lines(table, mode, tmp_path / "chunk.jsonl") == lines[chunk.start:chunk.stop]


def counting_shapes(monkeypatch) -> list:
    """The shapes motif.shape_features is called with from now on."""
    shapes = []
    real = motif.shape_features
    monkeypatch.setattr(motif, "shape_features",
                        lambda catalog, shape: shapes.append(shape) or real(catalog, shape))
    return shapes


@pytest.mark.parametrize("mode", motif.MODES)
def test_one_shape_in_any_row_order_takes_one_memo_entry(rng, tmp_path, mode, monkeypatch):
    catalog = motif.enumerate_catalog()
    copies = [renamed(random_tx(rng, 9), rng, 0)]
    copies += [renamed(copies[0], rng, i) for i in range(1, 40)]
    assert len({tuple(map(tuple, tx[3])) for tx in copies}) > 1  # the rows come in other orders
    shapes = counting_shapes(monkeypatch)
    _, _, maps, map_of, hashes, egos = featurize._featurize(catalog, mode, MAX_NODES, copies)
    assert len(shapes) == len(maps) == 1 and map_of.tolist() == [0] * 40
    assert (hashes, egos) == ([tx[0] for tx in copies], [tx[1] for tx in copies])
    table = FeatureTable.build(hashes, egos, maps, map_of)
    assert written_lines(table, mode, tmp_path / "f.jsonl") == plain_lines(copies, catalog, mode)[0]


def test_one_pass_counts_each_shape_of_the_input_once(rng, tmp_path, monkeypatch):
    """The in-memory list and a store read by one process are each one pass:
    a shape recurring across CHUNK_LINES slices is counted once."""
    catalog = motif.enumerate_catalog()
    txs = random_transactions(rng, 300)
    storage.write_store(tmp_path / "store", txs)
    distinct = {motif.transaction_shape(tx, "MxE")[0] for tx in txs}
    monkeypatch.setattr(featurize, "CHUNK_LINES", 32)
    shapes = counting_shapes(monkeypatch)
    for source in (list(txs), tmp_path / "store"):
        shapes.clear()
        featurize.featurize_store(source, "MxE", tmp_path / "features.jsonl", catalog=catalog)
        assert len(shapes) == len(distinct) and set(shapes) == distinct


def test_store_chunk_equals_a_pass_over_the_list(rng, tmp_path):
    """A pool worker's chunk decoded from a store gives what a pass over the
    stored tuples gives."""
    catalog = motif.enumerate_catalog()
    txs = random_transactions(rng, 60)
    result = featurize._featurize(catalog, "M+E", MAX_NODES, list(txs))
    storage.write_store(tmp_path / "store", txs)
    chunk = next(featurize._store_chunks(storage.store_path(tmp_path / "store"), len(txs)))
    *counts, maps, map_of, hashes, egos = featurize._featurize_lines(catalog, "M+E", MAX_NODES, chunk)
    assert (counts, maps, map_of.tolist()) == (list(result[:2]), result[2], result[3].tolist())
    assert (hashes, egos) == (result[4], result[5]) == ([tx[0] for tx in txs], [tx[1] for tx in txs])


@pytest.mark.parametrize("threads", [1, 2])
def test_shapes_recurring_across_chunks(rng, tmp_path, monkeypatch, threads):
    """A shape seen in several CHUNK_LINES slices gets one distinct row in the
    joined table, read in one pass at threads 1 or in the pool's chunks."""
    catalog = motif.enumerate_catalog()
    txs = random_transactions(rng, 300)
    lines, maps, _, _ = plain_lines(txs, catalog, "MxE", motif.DEFAULT_MAX_NODES)
    storage.write_store(tmp_path / "store", txs)
    monkeypatch.setattr(featurize, "CHUNK_LINES", 32)
    out = tmp_path / "features.jsonl"
    stats = featurize.featurize_store(tmp_path / "store", "MxE", out, threads=threads, catalog=catalog)
    assert out.read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)
    table = stats.table
    assert_same_table(table, FeatureTable.build([tx[0] for tx in txs], [tx[1] for tx in txs], maps))
    chunks_of_row = {(int(row), i // 32) for i, row in enumerate(table.row_of)}
    assert len(chunks_of_row) > table.n_distinct


@pytest.mark.parametrize("pure", [False, True], ids=["no-cached-encoder", "pure-python"])
def test_encoder_fallback_writes_the_same_bytes(rng, tmp_path, monkeypatch, pure):
    """featurize_store, from a store or from memory, and match_features write
    the same bytes without storage's cached C encoder, and with no C
    accelerator at all; the names need \\u and backslash escapes."""
    txs = random_transactions(rng, 200)
    storage.write_store(tmp_path / "store", txs)

    def write_all(tag):
        paths = [tmp_path / f"{tag}.{name}.jsonl" for name in ("store", "memory", "matches")]
        stats = featurize.featurize_store(tmp_path / "store", "M+E", paths[0])
        featurize.featurize_store(list(txs), "M+E", paths[1])
        key, other = list(stats.table.distinct_rows()[0])[:2]
        signatures = [LeafSignature(1, 'Sw"ép', 1.0, 5, [key], {key: 1.0}, 1.0),
                      LeafSignature(4, "Mint", 1.0, 5, [key, other], {key: 1.0, other: 1.0}, 1.0)]
        cli.match_features(stats.table, signatures, paths[2])
        return [path.read_bytes() for path in paths]

    expected = write_all("c")
    assert b"\\u00e9" in expected[0] and b"\\t\\\\" in expected[0] and b'\\"e' in expected[2]
    assert b'"leaves":[1,4]' in expected[2] and b'"leaves":[]' in expected[2]
    monkeypatch.setattr(storage, "_C_ENCODE", None)
    if pure:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        monkeypatch.setattr(json.encoder, "encode_basestring_ascii",
                            json.encoder.py_encode_basestring_ascii)
        monkeypatch.setattr(storage, "dumps_str", json.encoder.py_encode_basestring_ascii)
    assert write_all("fallback") == expected
