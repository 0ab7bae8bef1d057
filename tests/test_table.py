"""The feature table: featurize's in-memory hand-off, checked against the
table read back from features.jsonl, a brute-force dataset and the store codec."""

import csv
import json
import random
import re

import numpy as np
import pytest

from motifscope import cli, featurize, ingest, motif, storage
from motifscope.motif import OOV_KEY
from motifscope.table import FeatureTable

from oracles import reference_dataset
from test_motif import wide_store

MODES = ["M", "E", "M+E", "MxE"]


def assert_same_table(a: FeatureTable, b: FeatureTable) -> None:
    assert (a.tx_hashes.text, a.ego_names.text, a.vocabulary) == (
        b.tx_hashes.text, b.ego_names.text, b.vocabulary)

    def arrays(t):
        return (t.tx_hashes.ends, t.ego_names.ends, t.ego_ids, t.row_of, t.indptr, t.indices,
                t.counts)

    for x, y in zip(arrays(a), arrays(b)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("mode", MODES)
def test_featurize_table_equals_table_read_back(small_corpus, tmp_path, monkeypatch, mode):
    wide_store(tmp_path / "wide")
    for store, max_nodes in ((small_corpus["store"], motif.DEFAULT_MAX_NODES),
                             (tmp_path / "wide", 4)):
        tables, texts = [], []
        # several chunks to concatenate, and one
        for chunk_lines in (300, featurize.CHUNK_LINES):
            monkeypatch.setattr(featurize, "CHUNK_LINES", chunk_lines)
            for threads in (1, 2):
                out = tmp_path / f"features{threads}.jsonl"
                stats = featurize.featurize_store(store, mode, out, threads=threads,
                                                  max_nodes=max_nodes)
                assert stats.transactions == stats.table.n_rows
                assert_same_table(stats.table, storage.read_features(out))
                tables.append(stats.table)
                texts.append(out.read_bytes())
        for table, text in zip(tables[1:], texts[1:]):
            assert_same_table(table, tables[0])
            assert text == texts[0]
        # rows come back with sorted keys, as the lines carry them
        lines = texts[0].decode("utf-8").splitlines()
        assert len(lines) == tables[0].n_rows
        for line, (tx_hash, ego, feats) in zip(lines, tables[0].rows()):
            assert list(feats) == sorted(feats)
            assert json.loads(line)["features"] == feats
        rows = [tuple(feats.items()) for _, _, feats in tables[0].rows()]
        assert tables[0].n_distinct == len(set(rows))


@pytest.mark.parametrize("threads", [1, 2])
def test_featurize_from_ingest_memory_equals_store(small_corpus, tmp_path, monkeypatch, threads):
    """The pipeline's path: ingest's own tuples, featurized without a store decode."""
    monkeypatch.setattr(featurize, "CHUNK_LINES", 300)
    inputs = [small_corpus[k] for k in ("transfers", "tokens", "accounts", "methods")]
    _, transactions, _ = cli.ingest_to_store(*inputs, None, tmp_path / "store")
    n = len(transactions)
    from_store = featurize.featurize_store(tmp_path / "store", "MxE", tmp_path / "store.jsonl")

    def refuse(*args):
        raise AssertionError("a store line was decoded")

    monkeypatch.setattr(storage, "line_to_tx", refuse)
    in_memory = featurize.featurize_store(transactions, "MxE", tmp_path / "memory.jsonl",
                                          threads=threads)
    assert (tmp_path / "memory.jsonl").read_bytes() == (tmp_path / "store.jsonl").read_bytes()
    assert_same_table(in_memory.table, from_store.table)
    assert (in_memory.transactions, in_memory.oversize, in_memory.rejected_transfers) == (
        from_store.transactions, from_store.oversize, from_store.rejected_transfers)
    # the list is released chunk by chunk as its lines are written
    assert transactions == [None] * n
    assert featurize._TRANSACTIONS == ()


@pytest.mark.parametrize("threads", [1, 2])
def test_featurize_subcommand_writes_and_prints_what_featurize_store_does(
        small_corpus, tmp_path, monkeypatch, capsys, threads):
    """The featurize subcommand writes the bytes of featurize_store and prints
    its counts, the table's distinct rows among them."""
    monkeypatch.setattr(featurize, "CHUNK_LINES", 300)
    stats = featurize.featurize_store(small_corpus["store"], "MxE", tmp_path / "table.jsonl",
                                      threads=threads)
    assert stats.table.n_rows == stats.transactions == 2000
    out = tmp_path / "features.jsonl"
    assert cli.main(["featurize", "--store", str(small_corpus["store"]), "--mode", "MxE",
                     "--out", str(out), "--threads", str(threads)]) == 0
    assert out.read_bytes() == (tmp_path / "table.jsonl").read_bytes()
    printed = json.loads(capsys.readouterr().out)
    assert printed == {"transactions": stats.transactions, "distinct_rows": stats.table.n_distinct,
                       "oversize": stats.oversize, "rejected_transfers": stats.rejected_transfers,
                       "out": str(out)}
    assert 1 < printed["distinct_rows"] == storage.read_features(out).n_distinct < 2000


def _write_features(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for tx_hash, ego, feats in rows:
            fh.write(json.dumps({"tx_hash": tx_hash, "ego": ego, "mode": "M+E",
                                 "features": feats}) + "\n")


def _check_dataset(table, labels_path, parsed, classes=None, vocabulary=None):
    labels = storage.read_labels(labels_path)
    rows = [(tx, ego, feats, labels[(tx, ego)]) for tx, ego, feats in parsed
            if labels.get((tx, ego)) in ingest.METHOD_GROUPS]
    ds = cli.load_dataset(table, labels, classes, vocabulary)
    X, y, ref_classes, ref_vocabulary = reference_dataset(rows, classes, vocabulary)
    assert ds.X.dtype == X.dtype and ds.X.shape == X.shape
    assert ds.X.tobytes() == X.tobytes()
    assert ds.y.tolist() == y.tolist()
    assert (ds.classes, ds.vocabulary) == (ref_classes, ref_vocabulary)
    assert ds.tx_hashes == [r[0] for r in rows]
    return ds


def test_load_dataset_equals_reference_over_parsed_rows(tmp_path):
    rows = [
        ("t1", "e1", {"b": 2, "a": 1}),                 # keys out of order
        ("t2", "e2", {"a": 0, "c": 4}),                 # a zero count
        ("t3", "e1", {}),                                # no features
        ("t4", "e1", {"z": 3, OOV_KEY: 2, "q": 5}),      # the OOV key itself
        ("t5", "e3", {"a": 7}),                          # unlabelled
        ("t6", "e3", {"b": 1, "y": 2}),                  # labelled Unknown
        ("t7", "é2", {"c": 9, "b": 1}),
    ]
    path = tmp_path / "features.jsonl"
    _write_features(path, rows)
    labels = tmp_path / "labels.csv"
    with open(labels, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("tx_hash", "ego", "method_group"), ("t1", "e1", "Swap"),
                                  ("t2", "e2", "Mint"), ("t3", "e1", "Swap"),
                                  ("t4", "e1", "Borrow"), ("t6", "e3", "Unknown"),
                                  ("t7", "é2", "Mint")])
    table = storage.read_features(path)
    ds = _check_dataset(table, labels, rows)
    assert ds.vocabulary == ["a", "b", "c", "q", "z", OOV_KEY]
    # a fixed vocabulary: unseen keys, and the OOV key, sum into the OOV column
    ds = _check_dataset(table, labels, rows, classes=["Borrow", "Mint", "Swap", "Transfer"],
                        vocabulary=["b", "c", OOV_KEY])
    assert ds.X[ds.tx_hashes.index("t4"), 2] == 3 + 2 + 5


def test_load_dataset_equals_reference_on_featurized_corpus(small_corpus):
    table = storage.read_features(small_corpus["features"])
    parsed = [(obj["tx_hash"], obj["ego"], obj["features"])
              for obj in map(json.loads, small_corpus["features"].read_text("utf-8").splitlines())]
    ds = _check_dataset(table, small_corpus["labels"], parsed)
    half = ds.vocabulary[::2] + ([] if OOV_KEY in ds.vocabulary[::2] else [OOV_KEY])
    _check_dataset(table, small_corpus["labels"], parsed, classes=ds.classes, vocabulary=half)


_ACCOUNTS = ["0xe1", "0xE1", "0xa1", "0xc1", "0x0000", "0xaé2", "0x\"q,uote", "0xline\nbreak", ""]
_AMOUNTS = ["1", "0.1", "2.5e-7", "3.141592653589793", "-0", "0", "inf", "1e400", "nan", "-1",
            "x", "", "12345678901234567890", " 7 ", "1_000"]
_BLOCKS = ["1", "0", "-3", "x", "99999999999999999999", "", "12"]


def test_ingest_transactions_survive_the_store_codec(tmp_path):
    """What lets the pipeline skip the store decode: every tuple ingest holds
    comes back unchanged from storage.dumps -> line_to_tx, random rejected
    rows and awkward strings included."""
    rng = random.Random(20)
    tokens = ingest.TokenRegistry()
    tokens.add("0xt1", "USDC", "Stablecoin", False)
    tokens.add("0xspam", "SPAM", "Unlabeled", True)
    accounts = ingest.AccountRegistry()
    accounts.add("0xc1", "contract")
    rejected = compared = 0
    for trial in range(30):
        path = tmp_path / f"transfers{trial}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(ingest.TRANSFER_COLUMNS)
            for _ in range(40):
                row = [rng.choice(["t1", "t2", "té3", "t,4", ""]), rng.choice(_ACCOUNTS[:3]),
                       rng.choice(_ACCOUNTS), rng.choice(_ACCOUNTS),
                       rng.choice(["0xt1", "0XT1", "0xspam", "0xnew", ""]),
                       rng.choice(["USDC", "SPAM", "NÉW", ""]),
                       rng.choice(_AMOUNTS), rng.choice(_BLOCKS)]
                writer.writerow(row if rng.random() > 0.05 else row[:-1])
        loaded = ingest.read_transfers(path, tokens, accounts)
        rejected += len(loaded.rejects)
        method_of = {"t1": "Swap", "t,4": "Unknown"}
        for tx in loaded.transactions(method_of):
            line = storage.dumps({"tx": tx[0], "ego": tx[1], "mg": tx[2], "tr": tx[3]})
            back = storage.line_to_tx(line, path, 1)
            assert repr(back) == repr((tx[0], tx[1], tx[2], [list(r) for r in tx[3]]))
            compared += 1
    assert rejected > 100 and compared > 100


@pytest.mark.parametrize("features,problem", [
    ('{"m1(E,A)":"x"}', "count 'x' of 'm1(E,A)' is not a 64-bit integer"),
    ('{"a":1,"b":true}', "count True of 'b'"),
    ('{"a":1.5}', "count 1.5 of 'a'"),
    ('{"a":null}', "count None of 'a'"),
    ('{"a":9223372036854775808}', "count 9223372036854775808 of 'a'"),
    ('{"a":[1]}', "count [1] of 'a'"),
])
def test_read_features_rejects_non_integer_counts(tmp_path, features, problem):
    path = tmp_path / "features.jsonl"
    path.write_text('{"tx_hash":"t0","ego":"e","features":{"a":-9223372036854775808}}\n'
                    '{"tx_hash":"t1","ego":"e","features":%s}\n' % features, encoding="utf-8")
    with pytest.raises(ingest.InputError, match=re.escape(f"bad features file {path}:2: TypeError: ")) as err:
        storage.read_features(path)
    assert problem in str(err.value)


def test_read_features_rejects_non_string_hash(tmp_path):
    path = tmp_path / "features.jsonl"
    path.write_text('{"tx_hash":7,"ego":"e","features":{}}\n', encoding="utf-8")
    with pytest.raises(ingest.InputError, match=re.escape(f"bad features file {path}:1: ")):
        storage.read_features(path)


def _random_map(rng, keys):
    """A feature map in random key order, with zero counts and empty maps."""
    chosen = rng.sample(keys, rng.randint(0, 4))
    return {key: rng.choice([0, 1, 2, 7, -3, 2 ** 40]) for key in chosen}


def _chunk_maps(chunks):
    """The maps and map_of that featurize builds its table from: each chunk's
    maps, in first-use order and without a repeat in the same key order,
    one chunk after another, with each chunk's map indices shifted by the
    maps before it."""
    maps, map_of = [], []
    for chunk in chunks:
        memo: dict = {}
        map_of += [len(maps) + memo.setdefault(tuple(feats.items()), len(memo))
                   for _, _, feats in chunk]
        maps += [dict(items) for items in memo]
    return maps, map_of


def test_table_equals_per_row_oracle():
    """build from chunk-ordered maps and rows() against per-row dicts:
    equal maps, whatever their key order, share one distinct row, also
    across chunks."""
    rng = random.Random(11)
    keys = ["m1(E,A)", "m2(A,C)", "(A,E)Stablecoin", "b", "a", OOV_KEY]
    crossed = 0  # trials where a map repeats across chunks in another key order
    for trial in range(40):
        shared = _random_map(rng, keys)  # repeated in every chunk
        chunks = []
        for c in range(rng.randint(1, 4)):
            maps = [_random_map(rng, keys) for _ in range(rng.randint(0, 12))]
            maps += [dict(reversed(list(shared.items()))), dict(shared)]
            rng.shuffle(maps)
            # a few repeats of earlier maps, in another key order
            maps += [dict(rng.sample(list(m.items()), len(m))) for m in rng.choices(maps, k=3)]
            hashes = [f"t{trial}.{c}.{i}" for i in range(len(maps))]
            egos = [f"e{rng.randint(0, 3)}" for _ in maps]
            chunks.append(list(zip(hashes, egos, maps)))
        oracle = [row for chunk in chunks for row in chunk]
        tables = [FeatureTable.build(*zip(*chunk)) for chunk in chunks]
        maps, map_of = _chunk_maps(chunks)
        # the shared map comes once per chunk and key order: build merges them
        assert sum(m == shared for m in maps) >= len(chunks) * min(len(shared), 2)
        crossed += len(chunks) > 1 and len(shared) > 1
        table = FeatureTable.build([r[0] for r in oracle], [r[1] for r in oracle], maps, map_of)
        assert_same_table(table, FeatureTable.build(*zip(*oracle)))
        for t, rows in [(table, oracle)] + list(zip(tables, chunks)):
            got = list(t.rows())
            assert got == rows
            for _, _, feats in got:
                assert list(feats) == sorted(feats)
            distinct = {tuple(sorted(feats.items())) for _, _, feats in rows}
            assert t.n_distinct == len(distinct)
            assert len(t.row_of) == t.n_rows and t.row_of.dtype == np.int32
            # a distinct row is stored once: the shared map has one row id
            ids = {int(t.row_of[i]) for i, (_, _, feats) in enumerate(rows) if feats == shared}
            assert len(ids) == 1
    assert crossed > 5


def test_take_keeps_only_the_distinct_rows_it_uses(tmp_path):
    """A key seen only in unlabelled rows stays out of the dataset's vocabulary."""
    rows = [("t1", "e1", {"a": 1}), ("t2", "e1", {"unlabelled_only": 4}),
            ("t3", "e2", {"a": 1, "b": 2}), ("t4", "e2", {"a": 1})]
    table = FeatureTable.build(*zip(*rows))
    labels = tmp_path / "labels.csv"
    labels.write_text("tx_hash,ego,method_group\nt1,e1,Swap\nt3,e2,Mint\nt4,e2,Swap\n",
                      encoding="utf-8")
    ds = cli.load_dataset(table, storage.read_labels(labels))
    assert ds.vocabulary == ["a", "b", OOV_KEY]
    assert ds.X.tolist() == [[1, 0, 0], [1, 2, 0], [1, 0, 0]]


def test_table_take_and_rows():
    table = FeatureTable.build(["t1", "t2", "t3"], ["e2", "e1", "e2"],
                               [{"b": 1, "a": 2}, {}, {"c": 0}])
    assert list(table.rows()) == [("t1", "e2", {"b": 1, "a": 2}), ("t2", "e1", {}),
                                  ("t3", "e2", {"c": 0})]
    assert table.vocabulary == ["a", "b", "c"]
    for empty in (FeatureTable.build([], [], []), FeatureTable.build([], [], [], [])):
        assert empty.n_rows == empty.n_distinct == 0 and list(empty.rows()) == []
        assert empty.vocabulary == [] and empty.row_of.dtype == np.int32
    # two chunks' distinct rows, the second's row_of shifted, build the whole table
    parts = [FeatureTable.build(["t1"], ["e2"], [{"b": 1, "a": 2}]),
             FeatureTable.build(["t2", "t3"], ["e1", "e2"], [{}, {"c": 0}])]
    assert_same_table(FeatureTable.build(
        ["t1", "t2", "t3"], ["e2", "e1", "e2"], [m for p in parts for m in p.distinct_rows()],
        np.concatenate([parts[0].row_of, parts[1].row_of + parts[0].n_distinct])), table)


def test_dumps_equals_json_dumps():
    """storage.dumps reuses one C encoder; its text is json.dumps' with sorted keys."""
    objects = ["é \"\\\n ", 7, -0.0, 2.5e-7, 1e400, -1e400, float("nan"), 2 ** 70, True,
               None, [], {}, {"b": [1, 2.5, {"z": None, "a": "x"}], "a": (1, 2), "c": {}},
               {"tx": "t", "ego": "e", "mg": None, "tr": [["a", "b", "A", "E", "0x", "S", "C",
                                                          1.0, 12]] * 3}]
    for obj in objects:
        assert storage.dumps(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    with pytest.raises(TypeError):
        storage.dumps({"a": object()})
