"""Motif catalog, typed counting vs brute force, edge and MxE features."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from motifscope import motif, storage
from motifscope.ingest import InputError

from oracles import (
    batch_of,
    brute_force_edge_features,
    brute_force_motif_edge_features,
    brute_force_motifs,
    brute_force_motifs_untyped,
    catalog_json,
    count_motifs_untyped,
    random_tx,
    reference_etn,
    stored_transactions,
    table_rows,
    transaction_features,
)


def row(src, dst, src_type, dst_type, category="Cryptocurrency"):
    """One stored transfer row."""
    return [src, dst, src_type, dst_type, "0xt", "TOK", category, 1.0, 1]


def star_tx(n, direction="out", ntype="A"):
    ego = "0xe"
    rows = [row(ego, f"0xa{i}", "E", ntype) if direction == "out"
            else row(f"0xa{i}", ego, ntype, "E") for i in range(n)]
    return "0xstar", ego, None, rows


def features(tx, catalog, mode="M", max_nodes=motif.DEFAULT_MAX_NODES):
    """transaction_features' feature map, without the rejected-row count."""
    return transaction_features(tx, catalog, mode, max_nodes)[0]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_enumerated_catalog_has_nine_shapes():
    catalog = motif.enumerate_catalog()
    assert list(catalog.values()) == [f"m{i}" for i in range(1, 10)]
    assert [len(states) for states in catalog] == [1, 1, 1, 2, 2, 2, 2, 2, 2]
    assert all(list(states) == sorted(states) for states in catalog)
    assert catalog[(motif.OUT, motif.OUT)] == "m4"
    assert catalog[(motif.OUT, motif.IN)] == "m5"


def write_catalog(path, entries):
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


def rejected_catalog(tmp_path, entries) -> str:
    """The problem load_catalog reports for a catalog file of `entries`."""
    path = write_catalog(tmp_path / "catalog.json", entries)
    with pytest.raises(InputError, match=f"^bad motif catalog {path}: ValueError: ") as err:
        motif.load_catalog(path)
    return str(err.value).split("ValueError: ", 1)[1]


def test_catalog_rejects_isomorphic_duplicates(tmp_path):
    entries = [{"id": "a", "nodes": ["E", "i", "j"], "edges": [["E", "i"], ["j", "E"]]},
               {"id": "b", "nodes": ["E", "i", "j"], "edges": [["i", "E"], ["E", "j"]]}]
    assert rejected_catalog(tmp_path, entries) == "motif b is isomorphic to an earlier catalog entry"


def test_catalog_rejects_duplicate_ids(tmp_path):
    entries = [{"id": "a", "nodes": ["E", "i"], "edges": [["E", "i"]]},
               {"id": "a", "nodes": ["E", "i"], "edges": [["i", "E"]]}]
    assert rejected_catalog(tmp_path, entries) == "duplicate motif ids in catalog"


def test_catalog_json_round_trip(tmp_path):
    catalog = motif.enumerate_catalog()
    path = write_catalog(tmp_path / "catalog.json", catalog_json(catalog))
    assert motif.load_catalog(path) == catalog


def test_catalog_roles_in_any_order(tmp_path):
    # each pair's roles listed with the larger state first: the loaded catalog,
    # and with it the order of the types in every pair key, is the same
    catalog = motif.enumerate_catalog()
    reversed_roles = catalog_json({states[::-1]: sid for states, sid in catalog.items()})
    assert motif.load_catalog(write_catalog(tmp_path / "catalog.json", reversed_roles)) == catalog


@pytest.mark.parametrize(
    "entry",
    [
        {"id": "x", "nodes": ["i", "j"], "edges": [["i", "j"]]},  # no ego role
        {"id": "x", "nodes": ["E", "i"], "edges": [["E", "i"], ["E", "i"]]},  # duplicate edge
        {"id": "x", "nodes": ["E", "i", "j"], "edges": [["E", "i"], ["i", "j"]]},  # edge misses E
        {"id": "x", "nodes": ["E", "i", "j"], "edges": [["E", "i"]]},  # j unconnected
        {"id": "x", "nodes": ["E", "i", "j", "k"], "edges": [["E", "i"], ["E", "j"], ["E", "k"]]},
        {"id": "x", "nodes": ["E", "i"], "edges": [["E", "E"]]},  # self loop
    ],
)
def test_load_catalog_validation(tmp_path, entry):
    path = write_catalog(tmp_path / "catalog.json", [entry])
    with pytest.raises(InputError):
        motif.load_catalog(path)


# ---------------------------------------------------------------------------
# counting vs the subset-enumeration oracle
# ---------------------------------------------------------------------------

def test_count_motifs_matches_brute_force_sample(rng):
    catalog = motif.enumerate_catalog()
    for _ in range(200):
        tx = random_tx(rng)
        assert features(tx, catalog) == brute_force_motifs(reference_etn(tx), catalog)


def test_untyped_counts_match_brute_force(rng):
    catalog = motif.enumerate_catalog()
    for _ in range(50):
        tx = random_tx(rng)
        expected = brute_force_motifs_untyped(reference_etn(tx), catalog)
        assert count_motifs_untyped(tx, catalog) == expected


def test_typed_counts_marginalize_to_untyped(rng):
    catalog = motif.enumerate_catalog()
    for _ in range(50):
        tx = random_tx(rng)
        typed = features(tx, catalog)
        by_shape: dict[str, int] = {}
        for key, count in typed.items():
            sid = key.split("(", 1)[0]
            by_shape[sid] = by_shape.get(sid, 0) + count
        assert by_shape == count_motifs_untyped(tx, catalog)


def test_all_out_star_closed_form():
    catalog = motif.enumerate_catalog()
    for n in range(1, 51):
        counts = features(star_tx(n), catalog)
        expected = {"m1(E,A)": n}
        if n >= 2:
            expected["m4(E,A,A)"] = n * (n - 1) // 2
        assert counts == expected


def test_all_in_star_closed_form():
    catalog = motif.enumerate_catalog()
    counts = features(star_tx(7, direction="in"), catalog)
    assert counts == {"m2(E,A)": 7, "m7(E,A,A)": 21}


def test_mixed_type_pairs_sorted_for_symmetric_shapes():
    ego = "0xe"
    tx = ("t", ego, None, [row(ego, "0xa", "E", "A", "Stablecoin"),
                           row(ego, "0xc", "E", "C", "Stablecoin")])
    counts = features(tx, motif.enumerate_catalog())
    assert counts == {"m1(E,A)": 1, "m1(E,C)": 1, "m4(E,A,C)": 1}
    assert "m4(E,C,A)" not in counts


def test_asymmetric_pair_types_in_role_order():
    # counterpart A receives from ego (out), counterpart C sends to ego (in):
    # the (out, in) shape m5 lists the out role first
    ego = "0xe"
    tx = ("t", ego, None, [row(ego, "0xa", "E", "A", "Stablecoin"),
                           row("0xc", ego, "C", "E", "Stablecoin")])
    counts = features(tx, motif.enumerate_catalog())
    assert counts["m5(E,A,C)"] == 1
    assert "m5(E,C,A)" not in counts


# ---------------------------------------------------------------------------
# edge-list and MxE features
# ---------------------------------------------------------------------------

def test_edge_features_count_parallel_edges():
    ego = "0xe"
    tx = ("t", ego, None, [
        row(ego, "0xc", "E", "C", "Stablecoin"),
        row(ego, "0xc", "E", "C", "Stablecoin"),
        row("0xc", ego, "C", "E", "Cryptocurrency"),
        row("0xn", ego, "N", "E", "Synthetic"),
    ])
    assert features(tx, motif.enumerate_catalog(), "E") == {
        "(E,C)Stablecoin": 2,
        "(C,E)Cryptocurrency": 1,
        "(N,E)Synthetic": 1,
    }


def test_motif_edge_features_keys_and_merge():
    ego = "0xe"
    tx = ("t", ego, None, [row(ego, "0xa", "E", "A", "Stablecoin"),
                           row(ego, "0xc", "E", "C", "Cryptocurrency")])
    feats = features(tx, motif.enumerate_catalog(), "MxE")
    assert feats == {
        "m1(E,A)|(E,A)Stablecoin": 1,
        "m1(E,C)|(E,C)Cryptocurrency": 1,
        # pair instance merges both members' labels in sorted order
        "m4(E,A,C)|(E,A)Stablecoin+(E,C)Cryptocurrency": 1,
    }


def test_motif_edge_features_oversize_flag():
    tx = star_tx(6)
    feats = features(tx, motif.enumerate_catalog(), "MxE", max_nodes=5)
    assert feats[motif.OVERSIZE_KEY] == 1
    assert all("|" not in k or k.startswith("m1") for k in feats)
    assert not any(k.startswith("m4") for k in feats)  # pair space skipped
    # under the limit the pair features come back
    feats = features(tx, motif.enumerate_catalog(), "MxE", max_nodes=6)
    assert motif.OVERSIZE_KEY not in feats
    assert sum(v for k, v in feats.items() if k.startswith("m4")) == 15


@pytest.mark.parametrize("max_nodes", [motif.DEFAULT_MAX_NODES, 4])
def test_motif_edge_features_match_brute_force(rng, max_nodes):
    catalog = motif.enumerate_catalog()
    oversized = 0
    for _ in range(500):
        tx = random_tx(rng)
        expected = brute_force_motif_edge_features(reference_etn(tx), catalog, max_nodes)
        assert features(tx, catalog, "MxE", max_nodes) == expected
        oversized += motif.OVERSIZE_KEY in expected
    assert oversized > 0 if max_nodes == 4 else oversized == 0


def test_transaction_features_mode_dispatch(rng):
    catalog = motif.enumerate_catalog()
    tx = random_tx(rng)
    m = features(tx, catalog, "M")
    e = features(tx, catalog, "E")
    both = features(tx, catalog, "M+E")
    assert both == {**m, **e}
    network = reference_etn(tx)
    assert features(tx, catalog, "MxE") == brute_force_motif_edge_features(network, catalog)
    with pytest.raises(ValueError):
        next(motif.batch_shapes(batch_of([tx]), "Q"))


def test_transaction_features_counts_rows_off_the_ego():
    ego = "0xe"
    tx = ("t", ego, None, [row(ego, "0xa", "E", "A"), row("0xa", "0xb", "A", "A"),
                           row("0xb", "0xc", "A", "C")])
    for mode in motif.MODES:
        assert transaction_features(tx, motif.enumerate_catalog(), mode)[1] == 2


def test_motif_does_not_import_etn():
    code = "import sys, motifscope.motif; sys.exit('motifscope.etn' in sys.modules)"
    src = str(Path(motif.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src)


def test_normalize_mode_aliases():
    assert motif.normalize_mode("ME") == "M+E"
    assert motif.normalize_mode("M+E") == "M+E"
    assert motif.normalize_mode("MxE") == "MxE"
    assert motif.normalize_mode("mxe") == "MxE"
    assert motif.normalize_mode("M") == "M"
    with pytest.raises(ValueError):
        motif.normalize_mode("EM")


# ---------------------------------------------------------------------------
# featurize_store agrees with the brute-force oracles
# ---------------------------------------------------------------------------

def wide_store(store_dir):
    """A hand-written store: an airdrop-style transaction to 12 counterparts
    (one of them also paying back, plus a row that does not touch the ego),
    a small mixed transaction with a counterpart typed C in one row and A in
    the next, and an all-in one."""
    ego = "0xe"
    categories = ("Stablecoin", "Cryptocurrency", "Synthetic")
    airdrop = [row(ego, f"0xa{i:02d}", "E", "ACN"[i % 3], categories[i % 2])
               for i in range(12)]
    airdrop += [row("0xa03", ego, "A", "E", "Synthetic"),
                row("0xa01", "0xa02", "C", "N", "Stablecoin")]
    mixed = [row(ego, "0xc1", "E", "C", "Stablecoin"),
             row(ego, "0xc1", "E", "C", "Stablecoin"),
             row("0xc1", ego, "C", "E", "Cryptocurrency"),
             row("0xn1", ego, "N", "E", "Synthetic"),
             row(ego, "0xa1", "E", "A", "Marketplace"),
             row("0xd1", ego, "C", "E", "Stablecoin"),  # 0xd1 keeps its first type, C
             row(ego, "0xd1", "E", "A", "Cryptocurrency")]
    all_in = [row(f"0xs{i}", ego, "A", "E", categories[i % 3]) for i in range(4)]
    storage.write_store(store_dir, batch_of(
        [(h, ego, None, rows) for h, rows in (("0xwide", airdrop), ("0xmix", mixed),
                                              ("0xin", all_in))]))


def oracle_features(tx, catalog, mode, max_nodes=motif.DEFAULT_MAX_NODES):
    """A stored transaction's features from the brute-force oracles over its
    ETN: M+E is the union of M and E."""
    network = reference_etn(tx)
    if mode == "MxE":
        return brute_force_motif_edge_features(network, catalog, max_nodes)
    feats = brute_force_motifs(network, catalog) if mode != "E" else {}
    if mode != "M":
        feats.update(brute_force_edge_features(network))
    return feats


def _reference_features(store_dir, catalog, mode, max_nodes=motif.DEFAULT_MAX_NODES):
    """Each stored transaction's oracle_features, by (tx_hash, ego)."""
    return {(tx[0], tx[1]): oracle_features(tx, catalog, mode, max_nodes)
            for tx in stored_transactions(store_dir)}


@pytest.mark.parametrize("mode", ["M", "E", "M+E", "MxE"])
def test_featurize_store_matches_reference(small_corpus, tmp_path, mode):
    from motifscope.featurize import featurize_store

    out = tmp_path / "features.jsonl"
    stats = featurize_store(small_corpus["store"], mode, out)
    expected = _reference_features(small_corpus["store"], motif.enumerate_catalog(), mode)
    got = {(tx, ego): feats for tx, ego, feats in table_rows(storage.read_features(out))}
    assert stats.transactions == len(expected)
    assert got == expected

    # wide transactions, a small max_nodes, a catalog subset and two workers
    wide_store(tmp_path / "wide")
    subset = [e for e in catalog_json(motif.enumerate_catalog())
              if e["id"] in ("m1", "m3", "m4", "m5", "m7")]
    (tmp_path / "catalog.json").write_text(json.dumps(subset), encoding="utf-8")
    catalog = motif.load_catalog(tmp_path / "catalog.json")
    stats = featurize_store(tmp_path / "wide", mode, out, threads=2, catalog=catalog, max_nodes=4)
    expected = _reference_features(tmp_path / "wide", catalog, mode, max_nodes=4)
    got = {(tx, ego): feats for tx, ego, feats in table_rows(storage.read_features(out))}
    assert got == expected
    assert (stats.transactions, stats.rejected_transfers) == (3, 1)  # 0xa01 -> 0xa02
    assert stats.oversize == (1 if mode == "MxE" else 0)
    if mode == "MxE":
        assert got[("0xwide", "0xe")][motif.OVERSIZE_KEY] == 1
        assert any(k.startswith("m5(") for k in got[("0xmix", "0xe")])
