"""File ingestion: transfer records, token/account registries, method labels.

All inputs are local files (CSV for transfers and labels, JSON for
registries). This module owns reading: every input file and artifact is
opened and decoded by one of three readers, `read_json` for JSON documents,
`_jsonl_rows` for JSON lines and `_csv_rows` for CSV. A file that cannot be
opened or decoded raises InputError naming the file, and the line for the
two line-oriented formats. `_csv_rows` splits each line that has no quote and
no NUL on its commas, and hands the rest of the file to csv.reader from the
first line that has one; both give the same rows and lines. Each JSON object
kind declares its fields as `Param`s, which `_fields` reads. `storage` owns writing.
Rows that fail validation are rejected with a reason code and counted, never
silently dropped.
`read_transfers` reads transfers.csv in one streaming pass straight into the
store's compact transfer rows, grouped by (tx_hash, ego), and returns the
transactions with the object of ingest_report.json, which no other module
builds. A transaction is the tuple (tx_hash, ego, method group or None,
rows) throughout: `read_transfers` lists it, `storage.write_store` writes it
and `storage.iter_store` reads it back. `read_transfers` builds its rows
with the cyclic garbage collector paused, as `cli.run_pipeline` does for its
whole run: the rows hold no cycles, and a collection walks every row built
so far.
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
from typing import Callable, Iterator, Mapping, NamedTuple, Optional

# Token categories (closed vocabulary; Unlabeled covers unknown tokens).
CATEGORIES = (
    "Cryptocurrency",
    "Stablecoin",
    "Marketplace",
    "Other",
    "NFT & Metaverse",
    "Network",
    "Financial Service",
    "Synthetic",
    "Bridge",
    "Unlabeled",
)

# The eight method groups retained for classification.
METHOD_GROUPS = (
    "Transfer",
    "Swap",
    "Withdraw",
    "Deposit",
    "ClaimReward",
    "Borrow",
    "Repay",
    "Mint",
)

# Groups merged into a retained group.
GROUP_ALIASES = {"Exchange": "Swap", "Redeem": "Withdraw", "Claim Reward": "ClaimReward"}

# Groups that exist in the raw data but fall below the sample-size cutoff.
EXCLUDED_GROUPS = ("Exit", "Burn", "Stake")

UNKNOWN = "Unknown"

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


class InputError(ValueError):
    """Unusable input file or configuration (CLI exit code 2)."""


class Param(NamedTuple):
    """A parameter or JSON field: type (str, bool, int, float, list or dict; an
    int is also a float, a bool neither; None: choices or rule decide), default
    (... if required; None allows null), rule (what, test ok), choices, help."""

    type: Optional[type]
    default: object = ...
    what: Optional[str] = None
    ok: Optional[Callable] = None
    choices: tuple = ()
    help: Optional[str] = None


def _check_params(values: Mapping, params: Mapping[str, Param], name) -> None:
    """Raise InputError for the first key of `params` whose value in `values`
    its Param refuses; a key missing from `values`, or None where the default
    is None, is unset. name(key) says where the value came from."""
    for key, param in params.items():
        value = values.get(key)
        if key not in values or value is None and param.default is None:
            continue
        if param.type and type(value) not in (param.type, int if param.type is float else None):
            raise InputError(f"{name(key)} must be {param.type.__name__}, "
                             f"got {type(value).__name__} {value!r}")
        if param.choices and value not in param.choices:
            raise InputError(f"{name(key)} must be one of {list(param.choices)}, got {value!r}")
        if param.ok and not param.ok(value):
            raise InputError(f"{name(key)} must be {param.what}, got {value!r}")


def _fields(obj, fields: Mapping[str, Param], where: str = "") -> dict:
    """The values of JSON object `obj` by its table `fields`, defaults filled
    in. A non-object, a value that _check_params refuses, an unknown key and a
    missing required key, in that order, raise InputError starting `where`."""
    prefix = f"{where} " if where else ""
    if type(obj) is not dict:
        raise InputError(f"{where or 'the document'} must be an object, got {type(obj).__name__}")
    _check_params(obj, fields, lambda key: f"{prefix}{key!r}")
    if unknown := [key for key in obj if key not in fields]:
        raise InputError(f"{prefix}{unknown[0]!r} is not one of the keys {list(fields)}")
    if missing := [key for key, p in fields.items() if p.default is ... and key not in obj]:
        raise InputError(f"{prefix}{missing[0]!r} is missing")
    return {key: obj.get(key, param.default) for key, param in fields.items()}


def _strings(v, n=None) -> bool:
    return type(v) is list and n in (None, len(v)) and all(type(s) is str for s in v)


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


def read_json(path, what: str = "JSON file"):
    """The JSON document in `path`; a file that cannot be opened, is not
    UTF-8 or is not JSON raises InputError naming `what` and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


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


@contextmanager
def _schema(what: str, path):
    """The JSON document in `path`; the block's errors become InputError naming the file."""
    doc = read_json(path, what)
    try:
        yield doc
    except InputError as exc:
        raise InputError(f"bad {what} {path}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what} {path}: {type(exc).__name__}: {exc}") from exc


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


@_gc_paused()
def read_transfers(path, tokens: TokenRegistry, accounts: AccountRegistry,
                   method_of: Optional[dict[str, str]] = None) -> tuple[list, dict]:
    """Read transfers.csv in one streaming pass: validate each row, resolve
    its token category and account types, and group it by (tx_hash, ego).

    Returns (transactions, report). A transaction is (tx_hash, ego, method
    group or None, rows) for each group no spam token touched, in the order
    in which its key first appears, with method groups joined on tx_hash
    from `method_of`. A row is the store's transfer row: (from, to,
    from_type, to_type, contract, symbol, category, amount, block), in input
    order within its group. The report is the store's ingest_report.json.

    Rejected rows are counted by reason, in first-seen order: malformed_row,
    missing_tx_hash, missing_account, self_transfer, bad_amount (not a
    number in ASCII without padding or digit-group underscores, or infinite,
    which no JSON number holds), negative_amount (negative or NaN), bad_block
    (not ASCII digits). Each distinct (contract, symbol) is looked up
    in the token registry once and each distinct address in the account
    registry once; an address is E only where it equals the row's ego, and
    repeated strings share one object.
    """
    groups: dict[tuple[str, str], list[tuple]] = {}
    spam: set[tuple[str, str]] = set()  # groups with a spam-token transfer
    rejected: Counter[str] = Counter()
    kept = 0
    # (canonical string, kind) per address and (contract, symbol, category, spam) per token
    account = functools.cache(lambda addr: (addr, accounts.kind_of(addr)))
    token = functools.cache(lambda contract, symbol: (contract, symbol, *tokens.resolve(contract, symbol)))
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
        if not (block_s.isascii() and block_s.isdigit()):
            rejected["bad_block"] += 1
            continue
        block = int(block_s)
        kept += 1
        ego = account(ego)[0]
        src, src_kind = account(src)
        dst, dst_kind = account(dst)
        contract, symbol, category, is_spam = token(contract, symbol)
        key = (tx_hash, ego)
        if is_spam:
            spam.add(key)
        tr = (src, dst, "E" if src == ego else src_kind, "E" if dst == ego else dst_kind,
              contract, symbol, category, amount, block)
        group = groups.get(key)
        if group is None:
            groups[key] = [tr]
        else:
            group.append(tr)
    method_of = method_of or {}
    transactions = [(tx_hash, ego, method_of.get(tx_hash), group)
                    for (tx_hash, ego), group in groups.items() if (tx_hash, ego) not in spam]
    labeled = Counter(group for _, _, group, _ in transactions if group)
    report = {
        "transfers_read": kept + sum(rejected.values()),
        "transfers_kept": kept,
        "rejected": dict(rejected),
        "transactions": len(transactions),
        "transactions_spam_filtered": len(spam),
        "labeled": dict(sorted(labeled.items())),
    }
    return transactions, report


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


def load_method_labels(path, mapping: dict[str, str]) -> dict[str, str]:
    """Read methods.csv (tx_hash,raw_method) into {tx_hash: method group}.

    Raw names resolve through `mapping` (from load_method_mapping), so merged
    groups arrive through their alias; excluded groups (Exit, Burn, Stake)
    and unmapped names resolve to Unknown. A later row for the same hash wins.
    Blank lines are skipped; a row with one field or an empty tx_hash raises
    InputError naming the file and line.
    """
    rows = _csv_rows(path, "methods")
    _, header = next(rows, (1, None))
    if header is None or [h.strip() for h in header][:2] != ["tx_hash", "raw_method"]:
        raise _bad_line("methods", path, 1, "header must start tx_hash,raw_method")
    groups: dict[str, str] = {}
    for lineno, row in rows:
        if len(row) >= 2 and row[0]:
            group = mapping.get(row[1].strip().casefold())
            groups[row[0]] = UNKNOWN if group is None or group in EXCLUDED_GROUPS else group
        elif row:
            raise _bad_line("methods", path, lineno,
                            "empty tx_hash" if len(row) >= 2 else "1 field, expected 2 or more")
    return groups
