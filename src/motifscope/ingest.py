"""File ingestion: transfer records, token/account registries, method labels.

All inputs are local files (CSV for transfers and labels, JSON for
registries). This module owns reading: every input file and artifact is
opened and decoded by one of three readers, `read_json` for JSON documents
(kept in `schema`, with the vocabularies and the field tables, so that
`synth` imports no numpy, and re-exported here), `_jsonl_rows` for JSON
lines and `_csv_rows` for CSV. A file that cannot be
opened or decoded raises InputError naming the file, and the line for the
two line-oriented formats. `_csv_rows` splits each line that has no quote and
no NUL on its commas, and hands the rest of the file to csv.reader from the
first line that has one; both give the same rows and lines. Each JSON object
kind declares its fields as `Param`s, which `_fields` reads. `storage` owns writing.
Rows that fail validation are rejected with a reason code and counted, never
silently dropped.
`read_transfers` reads transfers.csv in one streaming pass into a
`TransferBatch`, and returns it with the object of ingest_report.json, which
no other module builds. A batch holds its transactions as numpy columns:
int32 codes into one string table for the accounts and tokens, small-int
codes for the account kinds and the category, float64 amounts, int64 blocks
(Python ints in an object column only if a block does not fit), and per
transaction its packed tx hash, ego code, method-group code and row offsets,
so it holds no Python object per row. The pass appends a tuple of
codes per row, moved into numpy blocks every few thousand rows; it finds a
row's transaction by its tx hash alone, and only a later ego of a hash by
(tx_hash, ego), so it keeps no key per transaction. One stable argsort of
each row's transaction index then puts the rows of groups that interleave
in order. methods.csv is read after transfers.csv, by `load_method_labels`,
into the dict of tx hashes that the pass already holds, so a labelled run
holds each hash once, and the hashes are packed after that join.
`storage.write_store` encodes a batch, `storage.decode_lines` decodes store
lines into one, and `motif.batch_shapes` reduces it to shapes.
The pass runs with the cyclic garbage collector paused, as
`cli.run_pipeline` does for its whole run: it builds no cycles, and a
collection would walk every object built so far.
"""

from __future__ import annotations

import csv
import functools
import gc
import itertools
import json
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional

import numpy as np

# re-exported: the other modules import these from ingest
from .schema import (CATEGORIES, EXCLUDED_GROUPS, GROUP_ALIASES, METHOD_GROUPS, UNKNOWN,
                     InputError, Param, _check_params, _fields, _schema, _strings, read_json)
from .table import Strings

TRANSFER_COLUMNS = (
    "tx_hash",
    "ego",
    "from",
    "to",
    "token_contract",
    "token_symbol",
    "amount",
    "block_number",
)


def is_null_address(addr: str) -> bool:
    """The all-zero address (any length, with or without 0x prefix)."""
    body = addr[2:] if addr.startswith(("0x", "0X")) else addr
    return len(body) > 0 and set(body) == {"0"}


class TokenRegistry:
    """Token -> (category, spam flag), keyed by contract with symbol fallback."""

    def __init__(self):
        self._by_contract: dict[str, tuple[Optional[str], bool]] = {}
        self._by_symbol: dict[str, tuple[Optional[str], bool]] = {}

    _FIELDS = {"contract": Param(str, ""), "symbol": Param(str, ""),
               "category": Param(str, "Unlabeled"), "is_spam": Param(bool, False)}

    @classmethod
    def from_file(cls, path) -> "TokenRegistry":
        """The registry of a JSON list of _FIELDS objects; add checks each category."""
        reg = cls()
        with _schema("token registry", path) as entries:
            for i, entry in enumerate(entries):
                reg.add(**_fields(entry, cls._FIELDS, f"entry {i}"))
        return reg

    def add(self, contract: str, symbol: str, category: str, is_spam: bool) -> None:
        if not contract and not symbol:
            raise InputError("a token needs a contract or a symbol")
        if is_spam:
            record = (None, True)  # spam tokens carry no category
        else:
            if category not in CATEGORIES:
                raise InputError(f"unknown token category {category!r} for {symbol or contract}")
            record = (category, False)
        if contract:
            self._by_contract[contract.lower()] = record
        if symbol:
            self._by_symbol[symbol] = record

    def resolve(self, contract: str, symbol: str) -> tuple[Optional[str], bool]:
        """(category, is_spam): by contract in any case, else by symbol; a
        token absent from the registry is Unlabeled, a spam token has no category."""
        rec = self._by_contract.get(contract.lower()) if contract else None
        if rec is None and symbol:
            rec = self._by_symbol.get(symbol)
        return rec if rec is not None else ("Unlabeled", False)


class AccountRegistry:
    """Account -> type code: E (ego), A (address), C (contract), N (null).

    Types are ego-relative: only the transaction's own ego is E; other
    accounts registered as egos are plain addresses in that network. The
    all-zero address is always N, taking precedence over registry entries.
    """

    def __init__(self):
        self._contracts: set[str] = set()
        self._nulls: set[str] = set()

    _FIELDS = {"address": Param(str, what="a non-empty string", ok=bool),
               "type": Param(str, "address", "ego, address, contract or null in any case",
                             lambda v: v.lower() in ("ego", "address", "contract", "null"))}

    @classmethod
    def from_file(cls, path) -> "AccountRegistry":
        """The registry of a JSON list of _FIELDS objects."""
        reg = cls()
        with _schema("account registry", path) as entries:
            for i, entry in enumerate(entries):
                fields = _fields(entry, cls._FIELDS, f"entry {i}")
                reg.add(fields["address"], fields["type"].lower())
        return reg

    def add(self, address: str, kind: str) -> None:
        addr = address.lower()
        if kind == "contract":
            self._contracts.add(addr)
        elif kind == "null":
            self._nulls.add(addr)

    def kind_of(self, address: str) -> str:
        """The type of an address that is not the ego: N, C or A."""
        addr = address.lower()
        if is_null_address(address) or addr in self._nulls:
            return "N"
        if addr in self._contracts:
            return "C"
        return "A"


@contextmanager
def _open(path, what: str, newline=None):
    """`path` opened as UTF-8 text for reading. A file that cannot be opened,
    and a byte that does not decode, raise InputError naming the file (and
    the line of the byte)."""
    try:
        fh = open(path, encoding="utf-8", newline=newline)
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise _undecodable(what, path) from exc


def _bad_line(what: str, path, lineno: int, problem) -> InputError:
    """The error for line `lineno`; `problem` is an exception or a description."""
    if isinstance(problem, Exception):
        kind = "csv.Error" if isinstance(problem, csv.Error) else type(problem).__name__
        problem = f"{kind}: {problem}"
    return InputError(f"bad {what} file {path}:{lineno}: {problem}")


def _undecodable(what: str, path) -> InputError:
    """The error for the first line of `path` that is not UTF-8. The text
    layer decodes ahead in blocks, so the failing read does not know its line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return _bad_line(what, path, lineno, exc)
    raise AssertionError(f"{path} decodes line by line")  # pragma: no cover


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring the caller's state after."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _jsonl_rows(path, what: str) -> Iterator[tuple[int, object]]:
    """(line number, decoded object) for each non-blank line of a UTF-8
    JSON-lines file. A line that is not UTF-8 or not JSON raises InputError
    naming the file and line."""
    with _open(path, what) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    obj = json.loads(line)
                except ValueError as exc:
                    raise _bad_line(what, path, lineno, exc) from exc
                yield lineno, obj


def _csv_rows(path, what: str) -> Iterator[tuple[int, list[str]]]:
    """(line it starts on, row) for each row of a UTF-8 CSV file, as csv.reader
    yields it. Bytes that do not decode and CSV syntax errors raise InputError
    naming the file and line.

    A line with no quote, no NUL and no more characters than
    csv.field_size_limit() is split on its commas ([] for a blank line),
    which is what csv.reader makes of it. From the first other line on,
    csv.reader reads the rest of the file, since a quoted field may span
    lines; the lines split before it count towards its line numbers. NUL
    takes the reader's path because Python 3.10's reader refuses it."""
    limit = csv.field_size_limit()
    with _open(path, what, newline="") as fh:
        split = 0  # lines split before the switch to csv.reader
        for line in fh:
            if '"' in line or "\0" in line or len(line) > limit:
                break
            split += 1
            text = line.rstrip("\r\n")
            yield split, text.split(",") if text else []
        else:
            return
        reader = csv.reader(itertools.chain([line], fh))
        start = split + 1
        try:
            for row in reader:
                yield start, row
                start = split + reader.line_num + 1
        except csv.Error as exc:
            raise _bad_line(what, path, split + reader.line_num, exc) from exc


KINDS = ("E", "A", "C", "N")  # account kinds: the ego, address, contract, null
_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
CHUNK = 4096  # rows or transactions moved between Python lists and numpy columns at a time
# The most digits a block may have: Python's default limit on int() of a
# string, fixed so that every Python version writes the same store and
# json.loads reads back every block it holds.
MAX_BLOCK_DIGITS = 4300


def _small_codes(n: int):
    """The dtype of codes into a vocabulary of n values, and -1."""
    return np.int8 if n < 128 else np.int32


@dataclass
class TransferBatch:
    """Transactions held as columns, the one form a transaction takes in
    memory: what `read_transfers` builds and `storage.decode_lines` decodes a
    store slice into, what `storage.write_store` encodes and what
    `motif.batch_shapes` reduces.

    Row j is a transfer: strings[src[j]] sends to strings[dst[j]], whose
    kinds are kinds[src_kind[j]] and kinds[dst_kind[j]], the token
    strings[contract[j]] and strings[symbol[j]] of category
    categories[category[j]], amount[j] and block[j]. Transaction i is
    tx_hashes[i] seen from the ego strings[ego[i]], with method group
    groups[group[i]] (-1 for none) and rows offsets[i]:offsets[i + 1], in
    input order. So a batch holds no object per row or per transaction.
    """

    strings: list[str]  # the string table: accounts, contracts, symbols
    src: np.ndarray  # int32 into strings, one per row
    dst: np.ndarray
    contract: np.ndarray
    symbol: np.ndarray
    src_kind: np.ndarray  # small ints into kinds
    dst_kind: np.ndarray
    category: np.ndarray  # small ints into categories
    amount: np.ndarray  # float64
    block: np.ndarray  # int64, or Python ints (dtype object) if one does not fit
    tx_hashes: Strings  # one per transaction
    ego: np.ndarray  # int32 into strings, one per transaction
    group: np.ndarray  # small ints into groups, -1 for none
    offsets: np.ndarray  # int64, one more than the transactions
    kinds: tuple[str, ...] = KINDS
    categories: tuple[str, ...] = CATEGORIES
    groups: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.ego)

    def method_groups(self) -> list[Optional[str]]:
        """Each transaction's method group, None where it has none."""
        names = (*self.groups, None)  # code -1 is the last
        return [names[code] for code in self.group.tolist()]

    def ego_table(self) -> tuple[list[str], np.ndarray]:
        """The distinct egos in first-seen order, and each transaction's
        index among them (int32)."""
        codes, first, inverse = np.unique(self.ego, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty(len(order), np.int32)
        rank[order] = np.arange(len(order), dtype=np.int32)
        return [self.strings[code] for code in codes[order].tolist()], rank[inverse.reshape(-1)]


def _block_column(blocks: list) -> np.ndarray:
    """The blocks as int64, or as Python ints (dtype object) if one does not fit."""
    try:
        return np.array(blocks, dtype=np.int64)
    except OverflowError:
        return np.array(blocks, dtype=object)


def _row_columns(rows: list[tuple]) -> list[np.ndarray]:
    """read_transfers' (transaction, src, dst, token, amount, block) rows as six columns."""
    cols = list(zip(*rows)) or [()] * 6
    return [*(np.array(c, np.int32) for c in cols[:4]), np.array(cols[4], np.float64),
            _block_column(cols[5])]


@_gc_paused()
def read_transfers(path, tokens: TokenRegistry, accounts: AccountRegistry,
                   methods: Optional[Callable[[dict], Mapping[str, Optional[str]]]] = None,
                   ) -> tuple[TransferBatch, dict]:
    """Read transfers.csv in one streaming pass: validate each row, resolve
    its token category and account types, and group it by (tx_hash, ego).

    Returns (batch, report). The batch holds each group that no spam token
    touched, in the order in which its key first appears, and its rows in
    input order; rows whose groups interleave are put in order by one stable
    argsort of each row's transaction index. A row's transaction is found by
    its tx hash; only a hash's later egos are found by (tx_hash, ego). The
    report is the store's ingest_report.json.

    Given `methods`, it is called once transfers.csv is read, with a dict
    keyed by the transactions' own hash strings (the values None), and
    returns {tx hash: method group}, such as `load_method_labels` with its
    path and mapping bound, which fills the dict it is given. Each
    transaction takes its hash's group, and report["labeled"] counts the
    groups; without `methods` no transaction has one and "labeled" is empty.

    Rejected rows are counted by reason, in first-seen order: malformed_row,
    missing_tx_hash, missing_account, self_transfer, bad_amount (not a
    number in ASCII without padding or digit-group underscores, or infinite,
    which no JSON number holds), negative_amount (negative or NaN), bad_block
    (not ASCII digits, or more than MAX_BLOCK_DIGITS of them). Each distinct
    (contract, symbol) is looked up in the token registry once, its category
    code kept with its codes, and each distinct address in the account
    registry once; an address is E only where it equals the row's ego.
    """
    strings: list[str] = []
    kind_of: list[int] = []  # the account kind code of each string, 0 for a token's

    def new_string(text: str, kind: int = 0) -> int:
        strings.append(text)
        kind_of.append(kind)
        return len(strings) - 1

    token_codes: list[tuple[int, int, int]] = []  # (contract, symbol, category) per token

    def new_token(contract: str, symbol: str) -> tuple[int, bool]:
        category, is_spam = tokens.resolve(contract, symbol)
        code = 0 if is_spam else CATEGORIES.index(category)  # a spam token's rows are dropped
        token_codes.append((new_string(contract), new_string(symbol), code))
        return len(token_codes) - 1, is_spam

    account = functools.cache(lambda addr: new_string(addr, _KIND_CODE[accounts.kind_of(addr)]))
    token = functools.cache(new_token)
    hashes: list[str] = []  # per transaction
    egos: list[int] = []  # per transaction
    first: dict[str, int] = {}  # tx hash -> the transaction of its first ego
    later: dict[tuple[str, int], int] = {}  # (tx hash, ego) -> the transaction of a later ego
    spam: set[int] = set()  # spam-touched transactions
    pending: list[tuple] = []  # (transaction, src, dst, token, amount, block) per row
    blocks: list[list[np.ndarray]] = []  # the pending rows as columns, every CHUNK rows
    flush = CHUNK
    rejected: Counter[str] = Counter()
    rows = _csv_rows(path, "transfers")
    _, header = next(rows, (1, None))
    if header is None or [h.strip() for h in header] != list(TRANSFER_COLUMNS):
        raise _bad_line("transfers", path, 1, f"header must be {','.join(TRANSFER_COLUMNS)}")
    for _, row in rows:
        if not row:
            continue
        if len(row) != len(TRANSFER_COLUMNS):
            rejected["malformed_row"] += 1
            continue
        tx_hash, ego, src, dst, contract, symbol, amount_s, block_s = row
        if not tx_hash:
            rejected["missing_tx_hash"] += 1
            continue
        if not src or not dst or not ego:
            rejected["missing_account"] += 1
            continue
        if src == dst:
            rejected["self_transfer"] += 1
            continue
        # float() would also take "1_000", " 5 " and non-ASCII digits
        if "_" in amount_s or not amount_s.isascii() or amount_s != amount_s.strip():
            rejected["bad_amount"] += 1
            continue
        try:
            amount = float(amount_s)
        except ValueError:
            rejected["bad_amount"] += 1
            continue
        if amount < 0 or amount != amount:
            rejected["negative_amount"] += 1
            continue
        if amount == math.inf:  # "inf", "Infinity" and overflows such as 1e400
            rejected["bad_amount"] += 1
            continue
        if not (block_s.isascii() and block_s.isdigit()) or len(block_s) > MAX_BLOCK_DIGITS:
            rejected["bad_block"] += 1
            continue
        ego = account(ego)
        tok, is_spam = token(contract, symbol)
        t = first.get(tx_hash)
        if t is None:
            first[tx_hash] = t = len(hashes)
            hashes.append(tx_hash)
            egos.append(ego)
        elif egos[t] != ego:
            key = (hashes[t], ego)
            t = later.get(key)
            if t is None:  # a later ego's transaction shares the first one's hash string
                later[key] = t = len(hashes)
                hashes.append(key[0])
                egos.append(ego)
        if is_spam:
            spam.add(t)
        pending.append((t, account(src), account(dst), tok, amount, int(block_s)))
        if len(pending) == flush:
            blocks.append(_row_columns(pending))
            pending.clear()
    blocks.append(_row_columns(pending))
    del pending, later, account, token
    tx_of, src, dst, tok, amount, block = map(np.concatenate, zip(*blocks))
    del blocks
    kept = len(tx_of)
    sizes = np.bincount(tx_of, minlength=len(hashes))
    keep = np.ones(len(hashes), dtype=bool)
    keep[list(spam)] = False
    order = np.argsort(tx_of, kind="stable")  # rows by transaction, each in input order
    del tx_of
    if spam:
        order = order[np.repeat(keep, sizes)]
        hashes = list(itertools.compress(hashes, keep.tolist()))
    ego, sizes = np.array(egos, dtype=np.int32)[keep], sizes[keep]
    group = np.full(len(ego), -1, dtype=np.int8)
    labeled: Counter[str] = Counter()
    names: tuple[str, ...] = ()
    if methods is not None:
        for tx_hash in first:
            first[tx_hash] = None
        group_of = methods(first)
        found = list(map(group_of.get, hashes))
        labeled.update(filter(None, found))
        names = tuple(dict.fromkeys(g for g in found if g is not None))
        index = dict(zip(names, range(len(names))))
        index[None] = -1
        group = np.fromiter(map(index.__getitem__, found), _small_codes(len(names)), len(found))
        del found, group_of
    del first
    tx_hashes = Strings.pack(hashes)
    del hashes
    src, dst, tok = src[order], dst[order], tok[order]
    amount, block = amount[order], block[order]
    del order
    tokens_of = np.array(token_codes, dtype=np.int32).reshape(-1, 3)
    row_ego = np.repeat(ego, sizes)
    kinds = np.array(kind_of, dtype=np.int8)
    batch = TransferBatch(
        strings=strings, src=src, dst=dst, contract=tokens_of[tok, 0], symbol=tokens_of[tok, 1],
        src_kind=np.where(src == row_ego, _KIND_CODE["E"], kinds[src]).astype(np.int8),
        dst_kind=np.where(dst == row_ego, _KIND_CODE["E"], kinds[dst]).astype(np.int8),
        category=tokens_of[tok, 2].astype(np.int8), amount=amount, block=block,
        tx_hashes=tx_hashes, ego=ego, group=group,
        offsets=np.concatenate(([0], np.cumsum(sizes))), groups=names,
    )
    report = {
        "transfers_read": kept + sum(rejected.values()),
        "transfers_kept": kept,
        "rejected": dict(rejected),
        "transactions": len(batch),
        "transactions_spam_filtered": len(spam),
        "labeled": dict(sorted(labeled.items())),
    }
    return batch, report


def load_method_mapping(path) -> dict[str, str]:
    """Read {raw method name -> group}. Conflicting duplicates are fatal.

    Lookup is case-insensitive: keys are normalized with casefold, and two
    raw names that collide after normalization must agree on the group.
    """
    mapping: dict[str, str] = {}
    with _schema("method mapping", path) as obj:
        for name, group in obj.items():
            key = name.strip().casefold()
            resolved = GROUP_ALIASES.get(group, group)
            if resolved not in METHOD_GROUPS and resolved not in EXCLUDED_GROUPS:
                raise InputError(f"unknown group {group!r} for {name!r}")
            if key in mapping and mapping[key] != resolved:
                raise InputError(f"conflicting groups for {name!r} ({mapping[key]} vs {resolved})")
            mapping[key] = resolved
    return mapping


def load_method_labels(path, mapping: dict[str, str],
                       groups: Optional[dict[str, Optional[str]]] = None) -> dict:
    """Read methods.csv (tx_hash,raw_method) into {tx_hash: method group}.

    Raw names resolve through `mapping` (from load_method_mapping), so merged
    groups arrive through their alias; excluded groups (Exit, Burn, Stake)
    and unmapped names resolve to Unknown. A later row for the same hash wins.
    Blank lines are skipped; a row with one field or an empty tx_hash raises
    InputError naming the file and line.

    Given `groups`, such as the dict of tx hashes that read_transfers hands
    its `methods`, the rows are read into it and it is returned: only the
    hashes already among its keys take a group, so it keeps its own key
    strings, and every row is still checked.
    """
    rows = _csv_rows(path, "methods")
    _, header = next(rows, (1, None))
    if header is None or [h.strip() for h in header][:2] != ["tx_hash", "raw_method"]:
        raise _bad_line("methods", path, 1, "header must start tx_hash,raw_method")
    labels = {} if groups is None else groups
    for lineno, row in rows:
        if len(row) >= 2 and row[0]:
            if groups is None or row[0] in groups:
                group = mapping.get(row[1].strip().casefold())
                labels[row[0]] = UNKNOWN if group is None or group in EXCLUDED_GROUPS else group
        elif row:
            raise _bad_line("methods", path, lineno,
                            "empty tx_hash" if len(row) >= 2 else "1 field, expected 2 or more")
    return labels
