"""Synthetic corpus generation: determinism, fidelity, round trips."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from motifscope import ingest, storage, synth
from motifscope.cli import PACKAGED_METHOD_GROUPS

from oracles import stored_transactions, table_rows, transactions_of

SLOT_TYPES = {"ego": "E", "null": "N", "address": "A", "contract": "C"}


def template_edge_keys(arch: synth.Archetype) -> set[str]:
    keys = set()
    for src, dst, category in arch.edges:
        s = SLOT_TYPES[src.split(":")[0]]
        d = SLOT_TYPES[dst.split(":")[0]]
        keys.add(f"({s},{d}){category}")
    return keys


def corpus_files(out):
    return [out / name for name in ("transfers.csv", "methods.csv", "tokens.json", "accounts.json")]


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_default_config_covers_all_groups():
    cfg = synth.load_config()
    assert cfg.noise == 0.05
    names = [a.name for a in cfg.archetypes]
    assert sorted(names) == sorted(ingest.METHOD_GROUPS)
    for arch in cfg.archetypes:
        assert arch.table2_count > 0
        assert template_edge_keys(arch)  # every template yields edge features


@pytest.mark.parametrize(
    "entry",
    [
        {"name": "Teleport", "table2_count": 1, "edges": [["ego", "address:x", "Stablecoin"]]},
        {"name": "Swap", "table2_count": 1, "edges": []},
        {"name": "Swap", "table2_count": 1, "edges": [["address:a", "contract:b", "Stablecoin"]]},
        {"name": "Swap", "table2_count": 1, "edges": [["ego", "ego", "Stablecoin"]]},
        {"name": "Swap", "table2_count": 1, "edges": [["ego", "address:x", "Doubloons"]]},
        {"name": "Swap", "table2_count": 1, "edges": [["ego", "wizard:x", "Stablecoin"]]},
    ],
)
def test_archetype_validation(tmp_path, entry):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps({"noise": 0.0, "archetypes": [entry]}), encoding="utf-8")
    with pytest.raises(ingest.InputError):
        synth.load_config(path)


def test_config_noise_bounds(tmp_path):
    path = tmp_path / "arch.json"
    base = json.loads(synth.PACKAGED_ARCHETYPES.read_text(encoding="utf-8"))
    base["noise"] = 1.5
    path.write_text(json.dumps(base), encoding="utf-8")
    with pytest.raises(ingest.InputError):
        synth.load_config(path)


def test_load_mixes_validation(tmp_path):
    path = tmp_path / "mixes.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(ingest.InputError):
        synth.load_mixes(path)
    path.write_text(json.dumps([{"name": "m", "methods": {"Swap": -1.0}}]), encoding="utf-8")
    with pytest.raises(ingest.InputError):
        synth.load_mixes(path)
    path.write_text(
        json.dumps([{"name": "m", "weight": 2.0, "methods": {"Swap": 1.0, "Mint": 3.0}}]),
        encoding="utf-8",
    )
    mixes = synth.load_mixes(path)
    assert mixes[0].name == "m" and mixes[0].weight == 2.0


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generate_validations(tmp_path):
    cfg = synth.load_config()
    with pytest.raises(ingest.InputError):
        synth.generate(cfg, -1, 0, tmp_path / "x")
    with pytest.raises(ingest.InputError):
        synth.generate(cfg, 10, 0, tmp_path / "x", skew="zipf")
    with pytest.raises(ingest.InputError):
        synth.generate(cfg, 10, 0, tmp_path / "x", n_egos=0)


def test_generate_empty_corpus_is_schema_valid(tmp_path):
    cfg = synth.load_config()
    result = synth.generate(cfg, 0, 0, tmp_path / "empty")
    assert result.n_transactions == 0 and result.n_transfers == 0
    for path in corpus_files(tmp_path / "empty"):
        assert path.exists()
    tokens = ingest.TokenRegistry.from_file(tmp_path / "empty" / "tokens.json")
    accounts = ingest.AccountRegistry.from_file(tmp_path / "empty" / "accounts.json")
    batch, report = ingest.read_transfers(tmp_path / "empty" / "transfers.csv", tokens, accounts)
    assert transactions_of(batch) == [] and report["transfers_read"] == 0
    assert report["rejected"] == {}
    assert ingest.load_method_labels(tmp_path / "empty" / "methods.csv", {}) == {}


def test_generate_deterministic_bytes(tmp_path):
    cfg = synth.load_config()
    synth.generate(cfg, 300, 42, tmp_path / "a")
    synth.generate(cfg, 300, 42, tmp_path / "b")
    synth.generate(cfg, 300, 43, tmp_path / "c")
    for fa, fb, fc in zip(*(corpus_files(tmp_path / d) for d in "abc")):
        assert fa.read_bytes() == fb.read_bytes()
    assert (tmp_path / "a" / "transfers.csv").read_bytes() != (
        tmp_path / "c" / "transfers.csv"
    ).read_bytes()


def test_skews(tmp_path):
    cfg = synth.load_config()
    uniform = synth.generate(cfg, 800, 1, tmp_path / "u", skew="uniform")
    assert set(uniform.group_counts) == set(ingest.METHOD_GROUPS)
    assert min(uniform.group_counts.values()) > 50  # ~100 each
    table2 = synth.generate(cfg, 800, 1, tmp_path / "t", skew="table2")
    assert table2.group_counts["Transfer"] > 0.5 * 800  # dominant group


def test_round_trip_zero_rejections(small_corpus):
    report = storage.read_json(small_corpus["store"] / "ingest_report.json")
    assert report["rejected"] == {}
    assert report["transfers_kept"] == report["transfers_read"]
    assert report["transactions_spam_filtered"] == 0
    assert report["transactions"] == 2000
    # every transaction carries a retained-group label
    assert sum(report["labeled"].values()) == 2000
    assert set(report["labeled"]) <= set(ingest.METHOD_GROUPS)


def test_label_fidelity(small_corpus):
    """Store labels reproduce methods.csv through the packaged mapping."""
    mapping = ingest.load_method_mapping(PACKAGED_METHOD_GROUPS)
    by_hash = ingest.load_method_labels(small_corpus["methods"], mapping)
    labels = storage.read_labels(small_corpus["labels"])
    assert len(labels) == 2000
    for (tx_hash, _ego), group in labels.items():
        assert group == by_hash[tx_hash]


def test_template_edges_present_in_features(small_corpus):
    """Noise can only add features: every tx retains its template's edge keys."""
    cfg = synth.load_config()
    expected = {arch.name: template_edge_keys(arch) for arch in cfg.archetypes}
    labels = storage.read_labels(small_corpus["labels"])
    checked = 0
    for tx_hash, ego, feats in table_rows(storage.read_features(small_corpus["features"])):
        group = labels[(tx_hash, ego)]
        assert expected[group] <= set(feats), f"{group} template missing from {tx_hash}"
        checked += 1
    assert checked == 2000


def test_noise_fraction_plausible(small_corpus):
    """Noise adds one transfer to ~5% of transactions (uniform skew: all
    templates have a fixed edge count, so extras are exactly the noise)."""
    cfg = synth.load_config()
    base_edges = {a.name: len(a.edges) for a in cfg.archetypes}
    labels = storage.read_labels(small_corpus["labels"])
    noisy = 0
    for tx_hash, ego, _, rows in stored_transactions(small_corpus["store"]):
        extra = len(rows) - base_edges[labels[(tx_hash, ego)]]
        assert extra in (0, 1)
        noisy += extra
    assert 40 <= noisy <= 180  # ~100 expected at p=0.05, n=2000


def test_mixes_drive_per_ego_methods(tmp_path):
    cfg = synth.load_config()
    mixes = [
        synth.Mix(name="trader", weight=1.0, methods={"Swap": 0.7, "Transfer": 0.3}),
        synth.Mix(name="farmer", weight=1.0, methods={"Deposit": 0.5, "Withdraw": 0.5}),
    ]
    out = tmp_path / "mixed"
    result = synth.generate(cfg, 600, 7, out, n_egos=12, mixes=mixes)
    assert result.n_transactions == 600
    mix_of_ego = json.loads((out / "account_mixes.json").read_text())
    assert len(mix_of_ego) == 12
    assert set(mix_of_ego.values()) <= {"trader", "farmer"}
    # join methods back to egos through the transfers file
    mapping = ingest.load_method_mapping(PACKAGED_METHOD_GROUPS)
    group_of_tx = ingest.load_method_labels(out / "methods.csv", mapping)
    tokens = ingest.TokenRegistry.from_file(out / "tokens.json")
    accounts = ingest.AccountRegistry.from_file(out / "accounts.json")
    batch, report = ingest.read_transfers(out / "transfers.csv", tokens, accounts)
    assert report["transactions_spam_filtered"] == 0
    allowed = {"trader": {"Swap", "Transfer"}, "farmer": {"Deposit", "Withdraw"}}
    for tx_hash, ego, _, _ in transactions_of(batch):
        assert group_of_tx[tx_hash] in allowed[mix_of_ego[ego]]


def test_generated_accounts_cover_all_counterparties(small_corpus):
    """Every address in transfers.csv resolves to a non-default type."""
    registry = ingest.AccountRegistry.from_file(small_corpus["accounts"])
    known = {e["address"] for e in json.loads(small_corpus["accounts"].read_text())}
    tokens = ingest.TokenRegistry.from_file(small_corpus["tokens"])
    batch, report = ingest.read_transfers(small_corpus["transfers"], tokens, registry)
    assert report["transactions_spam_filtered"] == 0
    for _, _, _, rows in transactions_of(batch):
        for row in rows:
            assert row[0] in known  # from
            assert row[1] in known  # to


def test_generating_a_corpus_imports_no_numpy(tmp_path):
    """synth reads its config through `schema`, not `ingest`, so a process
    that only generates corpora, such as a benchmark harness, loads no numpy."""
    code = ("import sys\nfrom motifscope import synth\n"
            "synth.generate(synth.load_config(), 20, 1, sys.argv[1])\n"
            "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)")
    src = str(Path(synth.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "corpus")],
                          capture_output=True, text=True, cwd=src)
    assert proc.returncode == 0, proc.stderr
