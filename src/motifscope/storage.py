"""On-disk formats: transaction store, feature files, labels, digests.

Large intermediates are JSON-lines (streamable, diff-able); tabular exports
are CSV. All writers are deterministic: sorted keys, fixed separators, no
timestamps, so identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from typing import Iterable, Iterator, Optional

from .ingest import InputError, TokenTransfer, Transaction

STORE_FILE = "transactions.jsonl"
REPORT_FILE = "ingest_report.json"
LABELS_FILE = "labels.csv"

# One store line: {"tx": hash, "ego": account, "mg": group-or-null,
# "tr": [[from, to, from_type, to_type, contract, symbol, category, amount, block], ...]}
# Transfer rows are arrays, not objects: the store is read once per
# featurize pass over potentially millions of lines.


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tx_to_line(tx: Transaction) -> str:
    rows = [
        [
            tr.from_account,
            tr.to_account,
            tr.from_type,
            tr.to_type,
            tr.token_contract,
            tr.token_symbol,
            tr.category,
            tr.amount,
            tr.block_number,
        ]
        for tr in tx.transfers
    ]
    return dumps({"tx": tx.tx_hash, "ego": tx.ego_account, "mg": tx.method_group, "tr": rows})


def line_to_tx(line: str) -> Transaction:
    obj = json.loads(line)
    transfers = [
        TokenTransfer(
            tx_hash=obj["tx"],
            from_account=row[0],
            to_account=row[1],
            from_type=row[2],
            to_type=row[3],
            token_contract=row[4],
            token_symbol=row[5],
            category=row[6],
            amount=row[7],
            block_number=row[8],
            ego_account=obj["ego"],
        )
        for row in obj["tr"]
    ]
    return Transaction(
        tx_hash=obj["tx"], ego_account=obj["ego"], transfers=transfers, method_group=obj["mg"]
    )


def write_store(store_dir, transactions: Iterable[Transaction], report: Optional[dict] = None) -> str:
    """Write the normalized transaction store; returns the JSONL path."""
    os.makedirs(store_dir, exist_ok=True)
    store_path = os.path.join(store_dir, STORE_FILE)
    labels_path = os.path.join(store_dir, LABELS_FILE)
    with open(store_path, "w", encoding="utf-8") as fh, open(
        labels_path, "w", encoding="utf-8", newline=""
    ) as lfh:
        writer = csv.writer(lfh)
        writer.writerow(["tx_hash", "ego", "method_group"])
        for tx in transactions:
            fh.write(tx_to_line(tx))
            fh.write("\n")
            if tx.method_group is not None:
                writer.writerow([tx.tx_hash, tx.ego_account, tx.method_group])
    if report is not None:
        write_json(os.path.join(store_dir, REPORT_FILE), report)
    return store_path


def store_path(store_dir) -> str:
    path = os.path.join(store_dir, STORE_FILE)
    if not os.path.exists(path):
        raise InputError(f"no transaction store at {path}")
    return path


def iter_store(store_dir) -> Iterator[Transaction]:
    with open(store_path(store_dir), encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield line_to_tx(line)


def read_labels(path) -> dict[tuple[str, str], str]:
    """labels.csv (tx_hash,ego,method_group) -> {(tx_hash, ego): group}."""
    labels: dict[tuple[str, str], str] = {}
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot read labels file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["tx_hash", "ego", "method_group"]:
            raise InputError(f"labels file {path} must have header tx_hash,ego,method_group")
        for row in reader:
            if len(row) == 3 and row[0]:
                labels[(row[0], row[1])] = row[2]
    return labels


def iter_features(path) -> Iterator[tuple[str, str, dict[str, int]]]:
    """Yield (tx_hash, ego, features) from a features.jsonl file."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read features file {path}: {exc}") from exc
    with fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            yield obj["tx_hash"], obj.get("ego", ""), obj["features"]


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
