"""Ingestion: validation, reject reasons, registries, method grouping."""

import csv
import filecmp
import gc
import io
import json
import random
import re

import numpy as np
import pytest

from motifscope import ingest, storage
from motifscope.cli import PACKAGED_METHOD_GROUPS, ingest_to_store, main

from oracles import batch_of, reference_ingest, stored_transactions, transactions_of

HEADER = "tx_hash,ego,from,to,token_contract,token_symbol,amount,block_number"


def write_transfers(path, rows):
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def registry():
    reg = ingest.TokenRegistry()
    reg.add("0xtok1", "USDC", "Stablecoin", False)
    reg.add("0xtok2", "WETH", "Cryptocurrency", False)
    reg.add("0xspam", "FREE", "", True)
    return reg


@pytest.fixture()
def accounts():
    return ingest.AccountRegistry()


def store_rows(batch):
    """The store rows of every transaction of a batch, in order."""
    return [row for _, _, _, rows in transactions_of(batch) for row in rows]


def test_header_is_validated(tmp_path, registry, accounts):
    bad = tmp_path / "t.csv"
    bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ingest.InputError):
        ingest.read_transfers(bad, registry, accounts)


def test_missing_file_is_input_error(tmp_path, registry, accounts):
    with pytest.raises(ingest.InputError):
        ingest.read_transfers(tmp_path / "nope.csv", registry, accounts)


def test_reject_reasons(tmp_path, registry, accounts):
    rows = [
        "tx1,0xe,0xa,0xe,0xtok1,USDC,1.0,100",  # good
        "tx2,0xe,0xa,0xe,0xtok1,USDC,1.0",  # malformed_row
        ",0xe,0xa,0xe,0xtok1,USDC,1.0,100",  # missing_tx_hash
        "tx4,0xe,,0xe,0xtok1,USDC,1.0,100",  # missing_account
        "tx5,0xe,0xa,0xa,0xtok1,USDC,1.0,100",  # self_transfer
        "tx6,0xe,0xa,0xe,0xtok1,USDC,abc,100",  # bad_amount
        "tx6,0xe,0xa,0xe,0xtok1,USDC,inf,100",  # bad_amount (infinite)
        "tx6,0xe,0xa,0xe,0xtok1,USDC,1e400,100",  # bad_amount (overflows to infinity)
        "tx7,0xe,0xa,0xe,0xtok1,USDC,-3,100",  # negative_amount
        "tx8,0xe,0xa,0xe,0xtok1,USDC,nan,100",  # negative_amount (NaN)
        "tx9,0xe,0xa,0xe,0xtok1,USDC,1.0,xyz",  # bad_block
        "tx10,0xe,0xa,0xe,0xtok1,USDC,1.0,-5",  # bad_block
        # float() and int() would read these as 1000.0, 5.0 and -5.0, blocks 10, 3 and 7
        "tx11,0xe,0xa,0xe,0xtok1,USDC,1_000,1_0",  # bad_amount (digit-group underscore)
        "tx12,0xe,0xa,0xe,0xtok1,USDC, 5 ,\u0663",  # bad_amount (padding)
        "tx13,0xe,0xa,0xe,0xtok1,USDC,\u0665,100",  # bad_amount (a non-ASCII digit)
        "tx14,0xe,0xa,0xe,0xtok1,USDC, -5,100",  # bad_amount (padding), not negative_amount
        "tx15,0xe,0xa,0xe,0xtok1,USDC,1.0,1_0",  # bad_block (digit-group underscore)
        "tx16,0xe,0xa,0xe,0xtok1,USDC,1.0,\u0663",  # bad_block (a non-ASCII digit)
        "tx17,0xe,0xa,0xe,0xtok1,USDC,1.0,+7",  # bad_block (a sign)
        "tx18,0xe,0xa,0xe,0xtok1,USDC,1.0, 7",  # bad_block (padding)
        "tx19,0xe,0xa,0xe,0xtok1,USDC,1.0," + "9" * 5000,  # bad_block (int() refuses it)
    ]
    batch, report = ingest.read_transfers(write_transfers(tmp_path / "t.csv", rows),
                                          registry, accounts)
    assert report["transfers_kept"] == 1 and report["transfers_read"] == len(rows)
    assert [(tx_hash, ego) for tx_hash, ego, _, _ in transactions_of(batch)] == [("tx1", "0xe")]
    assert report["rejected"] == {
        "malformed_row": 1,
        "missing_tx_hash": 1,
        "missing_account": 1,
        "self_transfer": 1,
        "bad_amount": 7,
        "negative_amount": 2,
        "bad_block": 7,
    }
    # reasons in the order they first appear
    assert list(report["rejected"])[:2] == ["malformed_row", "missing_tx_hash"]


def test_category_resolution_and_fallback(tmp_path, registry, accounts):
    rows = [
        "tx1,0xe,0xa,0xe,0xtok1,USDC,1.0,100",
        "tx2,0xe,0xa,0xe,,WETH,1.0,100",  # symbol fallback
        "tx3,0xe,0xa,0xe,0xunknown,ZZZ,1.0,100",  # not in registry
    ]
    transactions, _ = ingest.read_transfers(write_transfers(tmp_path / "t.csv", rows), registry,
                                            accounts)
    cats = [row[6] for row in store_rows(transactions)]
    assert cats == ["Stablecoin", "Cryptocurrency", "Unlabeled"]


def test_contract_lookup_wins_over_symbol(registry):
    registry.add("0xtok3", "USDC", "Marketplace", False)  # same symbol, new contract
    assert registry.resolve("0xtok3", "USDC")[0] == "Marketplace"
    assert registry.resolve("", "USDC")[0] in ("Stablecoin", "Marketplace")


def test_unknown_category_rejected():
    reg = ingest.TokenRegistry()
    with pytest.raises(ingest.InputError):
        reg.add("0x1", "ABC", "NotACategory", False)


@pytest.mark.parametrize("entry,problem", [
    ({"contract": "0x1", "is_spam": "false"}, "entry 0 'is_spam' must be bool, got str 'false'"),
    ({"symbol": "ABC", "is_spam": 0}, "entry 0 'is_spam' must be bool, got int 0"),
    ({"contract": 7, "symbol": "ABC"}, "entry 0 'contract' must be str, got int 7"),
    ({"contract": "0x1", "symbol": None}, "entry 0 'symbol' must be str, got NoneType None"),
], ids=["spam string", "spam number", "contract number", "symbol null"])
def test_token_registry_field_types(tmp_path, entry, problem):
    path = tmp_path / "tokens.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    message = f"bad token registry {path}: {problem}"
    with pytest.raises(ingest.InputError, match=f"^{re.escape(message)}$"):
        ingest.TokenRegistry.from_file(path)
    path.write_text(json.dumps([{"contract": "0x1", "symbol": "ABC", "is_spam": False},
                                {"contract": "0x2", "is_spam": True}]), encoding="utf-8")
    reg = ingest.TokenRegistry.from_file(path)
    assert (reg.resolve("0x1", ""), reg.resolve("0x2", "")) == (("Unlabeled", False), (None, True))


@pytest.mark.parametrize("cls, entry", [
    (ingest.AccountRegistry, {"adress": "0xc0", "type": "contract"}),
    (ingest.AccountRegistry, {"address": "", "type": "null"}),
    (ingest.AccountRegistry, {"address": 7}),
    (ingest.TokenRegistry, {"category": "Stablecoin"}),
    (ingest.TokenRegistry, {"contract": "", "symbol": "", "is_spam": True}),
], ids=["misspelt address", "empty address", "address number", "no token", "empty token"])
def test_registry_refuses_entry_that_registers_nothing(tmp_path, cls, entry):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    what = "account" if cls is ingest.AccountRegistry else "token"
    with pytest.raises(ingest.InputError, match=f"^bad {what} registry {re.escape(str(path))}: "):
        cls.from_file(path)


def test_account_types_are_ego_relative(tmp_path):
    reg = ingest.AccountRegistry()
    reg.add("0xego1", "ego")
    reg.add("0xego2", "ego")
    reg.add("0xc1", "contract")
    reg.add("0xn1", "null")
    # a registered ego is a plain address: read_transfers types only the row's ego E
    assert reg.kind_of("0xego1") == "A"
    assert reg.kind_of("0xego2") == "A"
    assert reg.kind_of("0xc1") == "C"
    assert reg.kind_of("0xn1") == "N"
    assert reg.kind_of("0xsomeone") == "A"


def test_null_address_precedence():
    reg = ingest.AccountRegistry()
    null = "0x" + "0" * 40
    reg.add(null, "contract")  # registry says contract; null still wins
    assert reg.kind_of(null) == "N"
    assert ingest.is_null_address("0x0000")
    assert ingest.is_null_address("0" * 12)
    assert not ingest.is_null_address("0x")
    assert not ingest.is_null_address("0x01")


def test_account_registry_rejects_unknown_type(tmp_path):
    path = tmp_path / "accounts.json"
    path.write_text(json.dumps([{"address": "0x1", "type": "weird"}]), encoding="utf-8")
    with pytest.raises(ingest.InputError):
        ingest.AccountRegistry.from_file(path)


def test_group_transactions_partitions_by_hash_and_ego(tmp_path, registry, accounts):
    """Rows group by (tx_hash, ego) in first-appearance order when one hash's
    egos interleave, spam drops only the ego it touched, and a hash's egos
    share one hash string; order, rows and report are reference_ingest's."""
    rows = [
        "tx1,0xe1,0xa,0xe1,0xtok1,USDC,1.0,100",
        "tx1,0xe2,0xa,0xe2,0xtok1,USDC,1.0,100",  # same hash, other ego
        "tx1,0xe1,0xe1,0xb,0xtok1,USDC,2.0,100",  # the first ego again: A, B, A
        "tx2,0xe1,0xa,0xe1,0xtok1,USDC,1.0,101",
        "tx3,0xe1,0xb,0xe1,0xspam,FREE,9.0,102",  # spam on tx3's first ego only
        "tx3,0xe2,0xa,0xe2,0xtok2,WETH,3.0,102",
        "tx3,0xe1,0xa,0xe1,0xtok1,USDC,1.0,102",
        "tx3,0xe2,0xe2,0xb,0xtok1,USDC,4.0,102",
    ]
    transfers = write_transfers(tmp_path / "t.csv", rows)
    batch, report = ingest.read_transfers(transfers, registry, accounts)
    keys = [(tx_hash, ego, len(rows)) for tx_hash, ego, _, rows in transactions_of(batch)]
    assert keys == [("tx1", "0xe1", 2), ("tx1", "0xe2", 1), ("tx2", "0xe1", 1), ("tx3", "0xe2", 2)]
    assert batch.tx_hashes.text == "tx1tx1tx2tx3" and batch.offsets.tolist() == [0, 2, 3, 4, 6]
    assert report["transactions_spam_filtered"] == 1
    (tmp_path / "tokens.json").write_text(json.dumps([
        {"contract": "0xtok1", "symbol": "USDC", "category": "Stablecoin"},
        {"contract": "0xtok2", "symbol": "WETH", "category": "Cryptocurrency"},
        {"contract": "0xspam", "symbol": "FREE", "is_spam": True},
    ]), encoding="utf-8")
    (tmp_path / "accounts.json").write_text("[]", encoding="utf-8")
    (tmp_path / "methods.csv").write_text("tx_hash,raw_method\n", encoding="utf-8")
    assert report == reference_ingest(transfers, tmp_path / "tokens.json",
                                      tmp_path / "accounts.json", tmp_path / "methods.csv",
                                      PACKAGED_METHOD_GROUPS, tmp_path / "reference")
    storage.write_store(tmp_path / "read", batch)
    assert filecmp.cmp(tmp_path / "read" / storage.STORE_FILE,
                       tmp_path / "reference" / storage.STORE_FILE, shallow=False)


def test_spam_filter_drops_whole_transaction(tmp_path, registry, accounts):
    rows = [
        "tx1,0xe,0xa,0xe,0xtok1,USDC,1.0,100",
        "tx1,0xe,0xb,0xe,0xspam,FREE,9.0,100",  # spam transfer taints tx1
        "tx2,0xe,0xa,0xe,0xtok1,USDC,1.0,101",
    ]
    batch, report = ingest.read_transfers(write_transfers(tmp_path / "t.csv", rows),
                                          registry, accounts)
    assert [tx_hash for tx_hash, _, _, _ in transactions_of(batch)] == ["tx2"]
    assert report["transactions"] == 1 and report["transactions_spam_filtered"] == 1
    assert report["transfers_kept"] == 3


@pytest.mark.parametrize("caller_gc", [True, False], ids=["gc-on", "gc-off"])
def test_ingest_pauses_the_collector_and_restores_it(tmp_path, registry, caller_gc):
    """read_transfers builds its rows and joins the method groups with the
    cyclic GC paused, and leaves it as the caller had it: after a read,
    after a read that raises InputError, and when the caller had it off."""
    seen = []

    class Accounts(ingest.AccountRegistry):
        def kind_of(self, address):
            seen.append(gc.isenabled())
            return super().kind_of(address)

    class Methods(dict):
        def get(self, key, default=None):
            seen.append(gc.isenabled())
            return super().get(key, default)

    rows = ["tx1,0xe,0xa,0xe,0xtok1,USDC,1.0,100", "tx2,0xe,0xe,0xb,0xtok1,USDC,2.0,101"]
    was = gc.isenabled()
    (gc.enable if caller_gc else gc.disable)()
    try:
        batch, report = ingest.read_transfers(write_transfers(tmp_path / "t.csv", rows),
                                              registry, Accounts(), lambda _: Methods(tx1="Swap"))
        assert len(batch) == 2 and batch.method_groups() == ["Swap", None]
        assert gc.isenabled() is caller_gc
        bad = tmp_path / "bad.csv"
        bad.write_text("tx_hash,ego\n", encoding="utf-8")
        with pytest.raises(ingest.InputError):
            ingest.read_transfers(bad, registry, Accounts())
        assert gc.isenabled() is caller_gc
    finally:
        (gc.enable if was else gc.disable)()
    assert len(seen) == 5 and not any(seen)  # 3 accounts looked up, 2 method joins


def test_method_mapping_aliases_and_exclusions(tmp_path):
    path = tmp_path / "groups.json"
    path.write_text(
        json.dumps(
            {
                "transfer": "Transfer",
                "swapExactTokens": "Exchange",
                "redeemAll": "Redeem",
                "getReward": "Claim Reward",
                "exitPool": "Exit",
            }
        ),
        encoding="utf-8",
    )
    mapping = ingest.load_method_mapping(path)
    assert mapping["swapexacttokens"] == "Swap"
    assert mapping["redeemall"] == "Withdraw"
    assert mapping["getreward"] == "ClaimReward"
    assert mapping["exitpool"] == "Exit"

    methods = tmp_path / "methods.csv"
    methods.write_text("tx_hash,raw_method\n"
                       "t1,Transfer\n"
                       "t2,SWAPEXACTTOKENS\n"  # case-insensitive
                       "t3,exitPool\n"  # excluded group
                       "t4,someNewMethod\n",  # unmapped
                       encoding="utf-8")
    labels = ingest.load_method_labels(methods, mapping)
    assert [labels[t] for t in ("t1", "t2", "t3", "t4")] == [
        "Transfer", "Swap", ingest.UNKNOWN, ingest.UNKNOWN]


def test_method_mapping_conflict_is_fatal(tmp_path):
    path = tmp_path / "groups.json"
    path.write_text(json.dumps({"Mint": "Mint", "mint": "Transfer"}), encoding="utf-8")
    with pytest.raises(ingest.InputError):
        ingest.load_method_mapping(path)


def test_method_mapping_unknown_group_is_fatal(tmp_path):
    path = tmp_path / "groups.json"
    path.write_text(json.dumps({"foo": "Teleport"}), encoding="utf-8")
    with pytest.raises(ingest.InputError):
        ingest.load_method_mapping(path)


def test_attach_methods_joins_on_hash(tmp_path, registry, accounts):
    rows = [
        "tx1,0xe,0xa,0xe,0xtok1,USDC,1.0,100",
        "tx2,0xe,0xa,0xe,0xtok1,USDC,1.0,101",
    ]
    path = write_transfers(tmp_path / "t.csv", rows)
    batch, report = ingest.read_transfers(path, registry, accounts)
    assert batch.method_groups() == [None, None] and report["labeled"] == {}
    batch, report = ingest.read_transfers(path, registry, accounts, lambda _: {"tx1": "Transfer"})
    assert batch.method_groups() == ["Transfer", None]
    assert [tx[2] for tx in transactions_of(batch)] == ["Transfer", None]
    assert report["labeled"] == {"Transfer": 1}


def test_methods_csv_header_validated(tmp_path):
    bad = tmp_path / "methods.csv"
    bad.write_text("hash,name\nx,y\n", encoding="utf-8")
    with pytest.raises(ingest.InputError):
        ingest.load_method_labels(bad, {})


def test_node_types_resolved_at_load(tmp_path, registry):
    accounts = ingest.AccountRegistry()
    accounts.add("0xc1", "contract")
    rows = ["tx1,0xe,0xc1,0xe,0xtok1,USDC,1.0,100"]
    transactions, _ = ingest.read_transfers(write_transfers(tmp_path / "t.csv", rows), registry,
                                            accounts)
    row = store_rows(transactions)[0]
    assert (row[2], row[3]) == ("C", "E")


# ---------------------------------------------------------------------------
# the streamed store against the per-transfer reference path
# ---------------------------------------------------------------------------

TRICKY_TRANSFERS = [
    "t1,0xe1,0xa1,0xe1,0xC1,USDC,1.5,10",  # contract 0xC1 here, 0xc1 in the registry
    "t2,0xe1,0xe1,0xb1,0xc1,USDC,2.0,10",  # t1 and t2 interleave; same contract, other case
    "t1,0xe1,0xe1,0x0000000000,,WETH,3.0,10",  # null address; symbol fallback
    "t2,0xe1,0X00000000,0xe1,,USDC,1e-3,11",  # null address in mixed case; other symbol
    "t3,0xe1,0xE1,0xe1,0xtok2,WETH,1.0,12",  # the ego but for case: not E
    "t3,0xe2,0xe1,0xe2,0xtok2,WETH,1.0,12",  # t3 under a second ego, where 0xe1 is not E
    "t1,0xe1,0xNUL1,0xe1,0xtok2,WETH,1.0,10",  # registered null, other case
    "t4,0xe2,0xa1,0xe2,0xspam,FREE,9,13",  # spam taints t4
    "t4,0xe2,0xe2,0xa1,0xtok2,WETH,1,13",
    "t5,0xe2,0xC2,0xe2,0xunknown,ZZZ,0.25,14",  # unregistered token; registered contract
    "",
    "t6,0xe1,0xa1,0xe1,0xc1,USDC,1.0",  # malformed_row
    ",0xe1,0xa1,0xe1,0xc1,USDC,1.0,10",  # missing_tx_hash
    "t6,,0xa1,0xe1,0xc1,USDC,1.0,10",  # missing_account
    "t6,0xe1,0xe1,0xe1,0xc1,USDC,1.0,10",  # self_transfer
    "t6,0xe1,0xa1,0xe1,0xc1,USDC,lots,10",  # bad_amount
    "t6,0xe1,0xa1,0xe1,0xc1,USDC,Infinity,10",  # bad_amount: no JSON number holds it
    "t6,0xe1,0xa1,0xe1,0xc1,USDC,-1,10",  # negative_amount
    "t6,0xe1,0xa1,0xe1,0xc1,USDC,1.0,-2",  # bad_block
    "t6,0xe1,0xa1,0xe1,0xc1,USDC,1_000,1_0",  # bad_amount: a digit-group underscore
    "t6,0xe1,0xa1,0xe1,0xc1,USDC, 5 ,\u0663",  # bad_amount: padding
    "t6,0xe1,0xa1,0xe1,0xc1,USDC,1.0,+7",  # bad_block: a sign
    '"t7,x",0xe1,0xa1,0xe1,0xc1,USDC,1.0,15',  # a comma in a tx hash: csv.reader from here on
    't8,0xe1,"0xa""1",0xe1,0xc1,USDC,2.0,15',  # a doubled quote in an account
    "t5,0xe2,0xe2,0xa2,0xtok2,USDC,7,14",  # the contract wins over the symbol
    "t5,0xe2,0xa2,0xe2,0xunknown,WETH,2,14",  # unregistered contract: the symbol decides
]


def write_tricky_corpus(root):
    root.mkdir(parents=True)
    write_transfers(root / "transfers.csv", TRICKY_TRANSFERS)
    (root / "tokens.json").write_text(json.dumps([
        {"contract": "0xc1", "symbol": "USDC", "category": "Stablecoin"},
        {"contract": "0xtok2", "symbol": "WETH", "category": "Cryptocurrency"},
        {"contract": "0xspam", "symbol": "FREE", "is_spam": True},
    ]), encoding="utf-8")
    (root / "accounts.json").write_text(json.dumps([
        {"address": "0xE1", "type": "ego"}, {"address": "0xe2", "type": "ego"},
        {"address": "0xb1", "type": "contract"}, {"address": "0xc2", "type": "contract"},
        {"address": "0xnul1", "type": "null"},
    ]), encoding="utf-8")
    (root / "methods.csv").write_text(
        'tx_hash,raw_method\nt1,Transfer\n"t7,x",Swap\nt2,Swap\nt3,frobnicate\nt4,Transfer\n'
        't2,Deposit\n',
        encoding="utf-8")
    return root


@pytest.mark.parametrize("corpus", ["synth", "handwritten"])
def test_streamed_store_matches_reference(small_corpus, tmp_path, corpus):
    raw = small_corpus["raw"] if corpus == "synth" else write_tricky_corpus(tmp_path / "raw")
    inputs = (raw / "transfers.csv", raw / "tokens.json", raw / "accounts.json",
              raw / "methods.csv", PACKAGED_METHOD_GROUPS)
    report, batch, groups = ingest_to_store(*inputs, tmp_path / "streamed")
    assert report == reference_ingest(*inputs, tmp_path / "reference")
    transactions = transactions_of(batch)
    assert groups == [group for _, _, group, _ in transactions]
    labels = {(tx_hash, ego): group for tx_hash, ego, group, _ in transactions if group}
    assert labels == storage.read_labels(tmp_path / "streamed" / storage.LABELS_FILE)
    for name in (storage.STORE_FILE, storage.LABELS_FILE, storage.REPORT_FILE):
        assert filecmp.cmp(tmp_path / "streamed" / name, tmp_path / "reference" / name,
                           shallow=False), name
    if corpus == "handwritten":
        assert report["rejected"] == {
            "malformed_row": 1, "missing_tx_hash": 1, "missing_account": 1, "self_transfer": 1,
            "bad_amount": 4, "negative_amount": 1, "bad_block": 2}
        assert report["transactions"] == 7 and report["transactions_spam_filtered"] == 1
        assert labels[("t7,x", "0xe1")] == "Swap"
        types = {(tx_hash, ego): [(row[2], row[3]) for row in rows]
                 for tx_hash, ego, _, rows in stored_transactions(tmp_path / "streamed")}
        assert types[("t3", "0xe1")] == [("A", "E")]
        assert types[("t3", "0xe2")] == [("A", "E")]


@pytest.mark.parametrize("fault", ["undecodable byte", "oversized field"])
@pytest.mark.parametrize("which", ["transfers", "methods"])
def test_unreadable_csv_names_file_and_line(tmp_path, capsys, which, fault):
    """The fault on line 4 and on the last line: methods.csv switches to
    csv.reader at its quoted line 3, transfers.csv at its quoted rows before
    the last line."""
    raw = write_tricky_corpus(tmp_path / "raw")
    path = raw / f"{which}.csv"
    original = path.read_bytes().splitlines(keepends=True)
    junk = b"\xff" if fault == "undecodable byte" else b"x" * 200_000
    inputs = ["--transfers", str(raw / "transfers.csv"), "--tokens", str(raw / "tokens.json"),
              "--accounts", str(raw / "accounts.json"), "--methods", str(raw / "methods.csv")]
    for index in (3, len(original) - 1):
        lines = list(original)
        lines[index] = lines[index].replace(b",", b"," + junk, 1)
        path.write_bytes(b"".join(lines))
        for command, store in (("ingest", tmp_path / f"store{index}"),
                               ("pipeline", tmp_path / f"run{index}" / "store")):
            out = store.parent if command == "pipeline" else store
            assert main([command, *inputs, "--out", str(out)]) == 2
            error = json.loads(capsys.readouterr().err)["error"]
            assert error["stage"] == "ingest" and error["type"] == "InputError"
            assert error["message"].startswith(f"bad {which} file {path}:{index + 1}: "), \
                error["message"]
            assert not (store / storage.STORE_FILE).exists()


def test_failed_store_write_leaves_previous_store(tmp_path, monkeypatch):
    raw = write_tricky_corpus(tmp_path / "raw")
    inputs = (raw / "transfers.csv", raw / "tokens.json", raw / "accounts.json",
              raw / "methods.csv", PACKAGED_METHOD_GROUPS)
    out = tmp_path / "store"
    ingest_to_store(*inputs, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    csv_field, calls = storage._csv_field, []

    def failing_csv_field(text):
        """storage._csv_field, failing on its fourth call, after a labels.csv
        line and two store lines are out."""
        calls.append(text)
        if len(calls) == 4:
            raise RuntimeError("disk full")
        return csv_field(text)

    monkeypatch.setattr(storage, "_csv_field", failing_csv_field)
    with pytest.raises(RuntimeError, match="disk full"):
        ingest_to_store(*inputs, out)
    # the previous store is as it was, and no temporary file is left
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_methods_join_after_reading(tmp_path, capsys):
    """methods.csv joins into the transactions read from transfers.csv: a
    later row wins, both egos of a tx hash take its group, transactions that
    no row names keep None, and the join fills the dict of the transactions'
    own hashes that read_transfers hands it. A row whose hash is not in
    transfers.csv is still checked."""
    raw = write_tricky_corpus(tmp_path / "raw")
    inputs = (raw / "transfers.csv", raw / "tokens.json", raw / "accounts.json",
              raw / "methods.csv", PACKAGED_METHOD_GROUPS)
    report, batch, groups = ingest_to_store(*inputs, tmp_path / "store")
    transactions = transactions_of(batch)
    got = {(tx_hash, ego): group for tx_hash, ego, group, _ in transactions}
    assert got == {("t1", "0xe1"): "Transfer", ("t2", "0xe1"): "Deposit",  # t2's later row
                   ("t3", "0xe1"): "Unknown", ("t3", "0xe2"): "Unknown",  # two egos
                   ("t5", "0xe2"): None, ("t7,x", "0xe1"): "Swap", ("t8", "0xe1"): None}
    assert groups == [group for _, _, group, _ in transactions]
    assert report["labeled"] == {"Deposit": 1, "Swap": 1, "Transfer": 1, "Unknown": 2}

    given = []

    def methods(keys):
        given.append(dict(keys))
        joined = ingest.load_method_labels(raw / "methods.csv",
                                           ingest.load_method_mapping(PACKAGED_METHOD_GROUPS), keys)
        assert joined is keys
        return joined

    tokens, accounts = ingest.TokenRegistry.from_file(inputs[1]), ingest.AccountRegistry.from_file(
        inputs[2])
    assert ingest.read_transfers(inputs[0], tokens, accounts, methods)[0].method_groups() == groups
    # every hash that transfers.csv names, spam-touched t4 too, in first-seen order
    assert given == [dict.fromkeys(["t1", "t2", "t3", "t4", "t5", "t7,x", "t8"])]

    methods = raw / "methods.csv"
    # "ghost" names no transfer, and its quoted field spans lines 8 and 9
    methods.write_text(methods.read_text(encoding="utf-8") + '"gho\nst",Swap\nghost\n',
                       encoding="utf-8")
    argv = ["ingest", "--transfers", str(inputs[0]), "--tokens", str(inputs[1]),
            "--accounts", str(inputs[2]), "--methods", str(methods), "--out", str(tmp_path / "s")]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["message"] == f"bad methods file {methods}:10: 1 field, expected 2 or more"
    assert not (tmp_path / "s").exists()


def test_transfers_error_is_reported_before_methods_error(tmp_path, capsys):
    """methods.csv is read after transfers.csv: when both are bad, the
    transfers error is the one reported."""
    raw = write_tricky_corpus(tmp_path / "raw")
    (raw / "transfers.csv").write_text("tx_hash,ego\n", encoding="utf-8")
    (raw / "methods.csv").write_text("tx_hash,raw_method\nt1\n", encoding="utf-8")
    argv = ["ingest", "--transfers", str(raw / "transfers.csv"), "--tokens", str(raw / "tokens.json"),
            "--accounts", str(raw / "accounts.json"), "--methods", str(raw / "methods.csv"),
            "--out", str(tmp_path / "s")]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["message"].startswith(f"bad transfers file {raw / 'transfers.csv'}:1: ")
    (raw / "transfers.csv").write_text(HEADER + "\n", encoding="utf-8")
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["message"].startswith(f"bad methods file {raw / 'methods.csv'}:2: ")


@pytest.mark.parametrize("row", ["tx2,0xe1", "tx2,0xe1,Swap,extra"])
def test_read_labels_rejects_malformed_row(tmp_path, row):
    path = tmp_path / "labels.csv"
    path.write_text(f"tx_hash,ego,method_group\ntx1,0xe1,Swap\n\n{row}\n", encoding="utf-8")
    with pytest.raises(ingest.InputError, match=f"^bad labels file {path}:4: "):
        storage.read_labels(path)
    path.write_text("tx_hash,ego,method_group\ntx1,0xe1,Swap\n\ntx2,0xe1,Mint\n", encoding="utf-8")
    assert storage.read_labels(path) == {("tx1", "0xe1"): "Swap", ("tx2", "0xe1"): "Mint"}


def test_labels_csv_reads_back_as_written(tmp_path):
    """labels.csv holds csv.writer's bytes and round-trips fields with
    commas, quotes, CR, LF, empty strings, spaces, tabs, backslashes,
    Unicode line breaks and non-ASCII text."""
    fields = ["tx", "", "a,b", 'say "hi"', "line\nbreak", "cr\rhere", "crlf\r\n", " pad ",
              '"', ",", "ünï", "x" * 70, '""', "\r", "tab\there", "back\\slash", "'single'",
              "\u2028\x85\x0c", '"lead', "trail,", "€😀"]
    rows = [(tx, ego, group) for tx in fields for ego in fields[:4] for group in fields[::3]]
    storage.write_store(tmp_path, batch_of(
        [(tx, ego, group, []) for tx, ego, group in rows] + [("tx-unlabelled", "0xe", None, [])]))
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows([("tx_hash", "ego", "method_group"), *rows])
    assert (tmp_path / storage.LABELS_FILE).read_bytes() == expected.getvalue().encode("utf-8")
    assert storage.read_labels(tmp_path / storage.LABELS_FILE) == {
        (tx, ego): group for tx, ego, group in rows}


def test_store_lines_are_dumps_of_their_objects(tmp_path, monkeypatch):
    """Each store line is storage.dumps of its {tx, ego, mg, tr} object, with
    json's C encoder and with the pure-Python one."""
    texts = ["t", "", 'q"uote', "back\\slash", "ctl\x00\x1f\t\n\r", "ünï€😀", "\u2028/"]
    amounts = (1e-07, 0.1, 1e+16, 0.0, 1.0, 123456789.125, 5e-324, 1.7976931348623157e308)
    rows = [("0xa", "0xb", "E", "A", "0xc", symbol, "Stablecoin", amount, 12 + i)
            for i, (symbol, amount) in enumerate(zip(texts + texts, amounts))]
    transactions = [(tx, ego, group, tr) for tx in texts for ego in texts[:3]
                    for group in (None, *texts[1:4]) for tr in ([], rows, [list(rows[0])])]
    expected = "".join(storage.dumps({"tx": tx, "ego": ego, "mg": group, "tr": tr}) + "\n"
                       for tx, ego, group, tr in transactions).encode("utf-8")
    assert expected.isascii()
    for c_encode in (storage._C_ENCODE, None):
        monkeypatch.setattr(storage, "_C_ENCODE", c_encode)
        storage.write_store(tmp_path, batch_of(transactions))
        assert (tmp_path / storage.STORE_FILE).read_bytes() == expected
    assert stored_transactions(tmp_path) == [
        (tx, ego, group, [list(row) for row in tr]) for tx, ego, group, tr in transactions]


# ---------------------------------------------------------------------------
# the CSV reader: split lines, then csv.reader from the first other line
# ---------------------------------------------------------------------------

_PLAIN = ["a", "b", "7", " ", "é", "€", "x" * 30]
_ANY = _PLAIN + [",", '"', "\r", "\n", "\0", '""']


def _random_csv(rng, plain_lines: int) -> str:
    """CSV text of `plain_lines` quote-free lines and then 40 lines of every
    kind: quote-free, blank, quoted fields holding any of _ANY (which may span
    lines), and unquoted text holding any of _ANY. Lines end in LF, CRLF or
    CR; the last sometimes has no ending."""
    def field(pieces):
        return "".join(pieces[i] for i in rng.integers(len(pieces), size=rng.integers(0, 4)))

    lines = []
    for i in range(plain_lines + 40):
        kind = 0 if i < plain_lines else rng.integers(4)
        fields = range(rng.integers(1, 6))
        if kind == 0:
            text = ",".join(field(_PLAIN) for _ in fields)
        elif kind == 1:
            text = ""
        elif kind == 2:
            text = ",".join('"' + field(_ANY).replace('"', '""') + '"' if rng.random() < 0.5
                            else field(_PLAIN) for _ in fields)
        else:
            text = field(_ANY)
        lines.append(text + ("\n", "\r\n", "\r")[rng.integers(3)])
    if rng.random() < 0.5:
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


def _reader_outcome(path):
    """((line the row starts on, row) pairs, error message or None) of
    csv.reader over the file."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        start = 1
        try:
            for row in reader:
                rows.append((start, row))
                start = reader.line_num + 1
        except csv.Error as exc:
            return rows, f"bad test file {path}:{reader.line_num}: csv.Error: {exc}"
    return rows, None


def _csv_rows_outcome(path):
    """((line, row) pairs, error message or None) of ingest._csv_rows over the file."""
    rows = []
    try:
        rows.extend(ingest._csv_rows(path, "test"))
    except ingest.InputError as exc:
        return rows, str(exc)
    return rows, None


@pytest.mark.parametrize("limit", [None, 40], ids=["default limit", "limit 40"])
@pytest.mark.parametrize("seed", range(8))
def test_csv_rows_match_csv_reader(tmp_path, seed, limit):
    """_csv_rows yields csv.reader's rows, each with the line it starts on by
    csv.reader's line_num, and a CSV error, such as a field over
    csv.field_size_limit(), names the line csv.reader's line_num gives."""
    rng = np.random.default_rng(seed)
    path = tmp_path / "t.csv"
    path.write_text(_random_csv(rng, plain_lines=int(rng.integers(0, 30))), encoding="utf-8",
                    newline="")
    old = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        expected = _reader_outcome(path)
        assert _csv_rows_outcome(path) == expected
    finally:
        csv.field_size_limit(old)
    assert limit is None or expected[1] is None or "field larger than field limit" in expected[1]


def test_quoting_does_not_change_the_store(small_corpus, tmp_path):
    """The corpus written with every field quoted, which csv.reader reads
    line by line, and with minimal quoting, whose lines are split, gives the
    store of the corpus as synth wrote it."""
    raw = small_corpus["raw"]
    stores = [tmp_path / "as written"]
    ingest_to_store(raw / "transfers.csv", raw / "tokens.json", raw / "accounts.json",
                    raw / "methods.csv", PACKAGED_METHOD_GROUPS, stores[0])
    for quoting in (csv.QUOTE_ALL, csv.QUOTE_MINIMAL):
        copy = tmp_path / f"quoting {quoting}"
        copy.mkdir()
        for name in ("transfers.csv", "methods.csv"):
            with open(raw / name, encoding="utf-8", newline="") as src, \
                    open(copy / name, "w", encoding="utf-8", newline="") as dst:
                csv.writer(dst, quoting=quoting).writerows(csv.reader(src))
        stores.append(copy / "store")
        ingest_to_store(copy / "transfers.csv", raw / "tokens.json", raw / "accounts.json",
                        copy / "methods.csv", PACKAGED_METHOD_GROUPS, stores[-1])
    assert (tmp_path / f"quoting {csv.QUOTE_ALL}" / "transfers.csv").read_text(
        encoding="utf-8").startswith('"tx_hash","ego",')
    for name in (storage.STORE_FILE, storage.LABELS_FILE, storage.REPORT_FILE):
        for store in stores[1:]:
            assert filecmp.cmp(stores[0] / name, store / name, shallow=False), (store, name)


# ---------------------------------------------------------------------------
# the transfer batch on shuffled inputs, against the oracles
# ---------------------------------------------------------------------------

# one hash under three egos, spam on the second; a block that no int64 holds;
# then a row for each reject reason
_EXTRA_TRANSFERS = [
    "multi,{e1},{e1},{a},{c},{s},1.5,7", "multi,{e2},{a},{e2},{c},{s},2.5,7",
    "multi,{e3},{e3},{b},{c},{s},3.5,7", "multi,{e1},{b},{e1},{c},{s},4.5,7",
    "multi,{e2},{e2},{b},0xspam,FREE,9,7", "multi,{e3},{a},{e3},{c},{s},5.5,7",
    "huge,{e1},{e1},{a},{c},{s},1.0,99999999999999999999",
    "longest,{e2},{e2},{a},{c},{s},1.0," + "9" * ingest.MAX_BLOCK_DIGITS,
    "bad7,{e1},{a},{e1},{c},{s},1.0," + "9" * (ingest.MAX_BLOCK_DIGITS + 1),  # bad_block
    "bad1,{e1},{a},{e1},{c},{s},1.0",  # malformed_row
    ",{e1},{a},{e1},{c},{s},1.0,7",  # missing_tx_hash
    "bad2,{e1},,{e1},{c},{s},1.0,7",  # missing_account
    "bad3,{e1},{a},{a},{c},{s},1.0,7",  # self_transfer
    "bad4,{e1},{a},{e1},{c},{s},1_0,7",  # bad_amount
    "bad5,{e1},{a},{e1},{c},{s},-2,7",  # negative_amount
    "bad6,{e1},{a},{e1},{c},{s},1.0,+7",  # bad_block
]


def shuffled_corpus(raw, out, seed: int):
    """Write to `out` the synth corpus in `raw` with _EXTRA_TRANSFERS added
    and every data row shuffled, so that transactions interleave; the spam
    token joins the token registry. Returns the names _EXTRA_TRANSFERS took."""
    out.mkdir()
    header, *lines = (raw / "transfers.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines]
    egos = list(dict.fromkeys(row[1] for row in rows))[:3]
    a, b = list(dict.fromkeys(x for row in rows for x in row[2:4] if x not in egos))[:2]
    names = dict(e1=egos[0], e2=egos[1], e3=egos[2], a=a, b=b, c=rows[0][4], s=rows[0][5])
    lines += [line.format(**names) for line in _EXTRA_TRANSFERS]
    random.Random(seed).shuffle(lines)
    (out / "transfers.csv").write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    tokens = json.loads((raw / "tokens.json").read_text(encoding="utf-8"))
    tokens.append({"contract": "0xspam", "symbol": "FREE", "is_spam": True})
    (out / "tokens.json").write_text(json.dumps(tokens), encoding="utf-8")
    for name in ("accounts.json", "methods.csv"):
        (out / name).write_bytes((raw / name).read_bytes())
    return names


@pytest.mark.parametrize("seed", [3, 4])
def test_batch_of_shuffled_rows_equals_the_oracles(tmp_path, seed):
    """Rows of a synth corpus shuffled so that groups interleave, with one
    hash under three egos (spam on one), blocks beyond int64, one of the
    most digits a block may have, and every reject reason: the store
    and report are reference_ingest's, and every transaction's features in
    every mode, from ingest's batch and from the store at threads 1 and 2,
    are the brute-force oracles'."""
    from motifscope import featurize, motif, synth
    from oracles import table_rows
    from test_motif import oracle_features

    synth.generate(synth.load_config(), 300, seed, tmp_path / "synth", skew="uniform")
    raw = tmp_path / "raw"
    names = shuffled_corpus(tmp_path / "synth", raw, seed)
    inputs = (raw / "transfers.csv", raw / "tokens.json", raw / "accounts.json",
              raw / "methods.csv", PACKAGED_METHOD_GROUPS)
    report, batch, _ = ingest_to_store(*inputs, tmp_path / "store")
    assert report == reference_ingest(*inputs, tmp_path / "reference")
    assert len(report["rejected"]) == 7 and report["transactions_spam_filtered"] == 1
    for name in (storage.STORE_FILE, storage.LABELS_FILE, storage.REPORT_FILE):
        assert filecmp.cmp(tmp_path / "store" / name, tmp_path / "reference" / name,
                           shallow=False), name
    stored = stored_transactions(tmp_path / "store")
    assert stored == transactions_of(batch)
    assert [row[8] for tx in stored if tx[0] == "huge" for row in tx[3]] == [10 ** 20 - 1]
    assert [row[8] for tx in stored if tx[0] == "longest" for row in tx[3]] == [
        10 ** ingest.MAX_BLOCK_DIGITS - 1]
    # the spam-touched ego's transaction is dropped
    assert sorted(ego for tx, ego, _, _ in stored if tx == "multi") == sorted(
        [names["e1"], names["e3"]])
    catalog = motif.enumerate_catalog()
    for mode in motif.MODES:
        expected = [(tx[0], tx[1], oracle_features(tx, catalog, mode)) for tx in stored]
        tables = [featurize.featurize_store(batch, mode, tmp_path / "f.jsonl").table]
        tables += [featurize.featurize_store(tmp_path / "store", mode, tmp_path / "f.jsonl",
                                             threads=threads).table for threads in (1, 2)]
        for table in tables:
            assert list(table_rows(table)) == expected, mode


def test_batch_holds_columns_of_under_100_bytes_a_row(small_corpus):
    """After read_transfers, every per-row and per-transaction field of the
    batch is a numpy array, the tx hashes one packed string, and together
    they take at most 100 bytes per kept row."""
    batch, report = ingest.read_transfers(
        small_corpus["transfers"], ingest.TokenRegistry.from_file(small_corpus["tokens"]),
        ingest.AccountRegistry.from_file(small_corpus["accounts"]))
    arrays = [getattr(batch, name) for name in (
        "src", "dst", "contract", "symbol", "src_kind", "dst_kind", "category", "amount",
        "block", "ego", "group", "offsets")]
    assert all(type(array) is np.ndarray for array in arrays)
    assert type(batch.tx_hashes.text) is str and type(batch.tx_hashes.ends) is np.ndarray
    assert [array.dtype for array in arrays] == [
        np.int32, np.int32, np.int32, np.int32, np.int8, np.int8, np.int8, np.float64, np.int64,
        np.int32, np.int8, np.int64]
    held = sum(array.nbytes for array in arrays) + batch.tx_hashes.ends.nbytes + len(
        batch.tx_hashes.text.encode("utf-8"))
    assert held <= 100 * report["transfers_kept"]
    assert len(batch.strings) < report["transfers_kept"] // 2  # a table of distinct strings
