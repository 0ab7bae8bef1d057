"""On-disk formats: transaction store, feature files, labels, digests.

Large intermediates are JSON-lines (streamable, diff-able); tabular exports
are CSV. This module owns writing: every artifact is written through
`replacing`, by `write_text`, `write_csv`, `write_json`, `write_rows` or
`write_store`, so a failed write leaves the previous file. A pipeline stage
hands such a write to a `Writer`, which runs it at once or in a forked writer
process while the stage's caller goes on computing. Files are read
through the readers in `ingest`. All writers are deterministic: sorted keys,
fixed separators, no timestamps, so identical inputs produce byte-identical
artifacts. The store holds one transaction per line; `line_to_tx` is its
only decoder, and it returns the (tx_hash, ego, method group or None, rows)
tuple that `write_store` takes. `write_store` writes a store line's keys by
hand, in sorted order, around one `dumps` of its rows, which gives the bytes
of `dumps` of the whole object; it joins a labels.csv line from fields quoted
as csv.writer quotes them. features.jsonl and matches.jsonl hold one
line per row of a `table.FeatureTable`, and `write_rows` is their one
writer; `read_features` (with `features_mode`) and `read_matches` read
them back, `read_features` with one `FeatureTable.build`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import multiprocessing as mp
import os
import pickle
import signal
import sys
import time
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Sequence

# read_json is re-exported: artifacts are read back as storage.read_json
from .ingest import InputError, _bad_line, _csv_rows, _jsonl_rows, _open, read_json
from .motif import MODES
from .table import FeatureTable

STORE_FILE = "transactions.jsonl"
REPORT_FILE = "ingest_report.json"
LABELS_FILE = "labels.csv"
_INT64 = 1 << 63

# One store line: {"tx": hash, "ego": account, "mg": group-or-null,
# "tr": [[from, to, from_type, to_type, contract, symbol, category, amount, block], ...]}
# Transfer rows are arrays, not objects: the store is read once per
# featurize pass over potentially millions of lines.

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# The C encoder that _ENCODER.encode builds on every call, built once here and
# without its circular-reference check (an artifact is a tree): the same text,
# at about half the cost per featurize line. None without json's C accelerator.
_C_ENCODE = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _ENCODER.default, json.encoder.encode_basestring_ascii, None,
    _ENCODER.key_separator, _ENCODER.item_separator, True, False, True)


# A string's JSON text, the same as dumps(string) but with no per-call set-up:
# write_rows encodes each line's tx hash through it.
dumps_str = json.encoder.encode_basestring_ascii


def dumps(obj) -> str:
    if _C_ENCODE is None:
        return _ENCODER.encode(obj)
    return "".join(_C_ENCODE(obj, 0))


@contextmanager
def replacing(*paths):
    """Yield a `<path>.tmp` for each path. They are moved into place when
    the block finishes and removed when it raises, so a failed write leaves
    the previous files as they were."""
    tmps = [f"{os.fspath(path)}.tmp" for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


def _now(write, *args) -> None:
    """Run a write at once: the default `write` of a stage that writes an artifact."""
    write(*args)


class Writer:
    """Runs a pipeline's artifact writes: submit(stage, write, *args) calls
    write(*args), a writer of this module.

    In the background, where "fork" is a start method, each write runs in a
    child forked from this process. The child inherits the write's
    arguments, so nothing is pickled, and the collector's state, which
    `cli.run_pipeline` pauses for its whole run; the caller goes on
    computing while the child encodes. Otherwise a write runs at once. Leaving the `with`
    block waits for every write, in the order they were submitted; a block
    left by an interrupt terminates the writes still running. `failed` is
    then (stage, exception) of the first write that raised, which leaving a
    block that raised nothing raises. `records` holds each finished write's
    stage, seconds and whether it ran inline.
    """

    def __init__(self, background: bool):
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork") if background and "fork" in methods else None
        self._running: list = []  # (stage, process, connection) per write in the background
        self.failed: Optional[tuple[str, BaseException]] = None
        self.records: list[dict] = []

    def submit(self, stage: str, write, *args) -> None:
        if self._ctx is None:
            start = time.perf_counter()
            write(*args)
            self._record(stage, time.perf_counter() - start, inline=True)
            return
        conn, child_conn = self._ctx.Pipe(duplex=False)
        child = self._ctx.Process(target=_write_in_child, args=(child_conn, write, args))
        child.start()
        child_conn.close()
        self._running.append((stage, child, conn))

    def _record(self, stage: str, seconds: float, inline: bool) -> None:
        self.records.append({"stage": stage, "seconds": round(seconds, 6), "inline": inline})

    def __enter__(self) -> "Writer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and not issubclass(exc_type, Exception):
            self._stop()
        try:
            while self._running:
                stage, child, conn = self._running[0]
                try:
                    seconds, error = conn.recv()
                except EOFError:  # the child ended before it could answer: it was killed
                    seconds, error = None, None
                child.join()
                if seconds is None:
                    error = RuntimeError(f"the writer process exited with code {child.exitcode}")
                else:
                    self._record(stage, seconds, inline=False)
                del self._running[0]
                child.close()
                conn.close()
                if error is not None and self.failed is None:
                    self.failed = stage, error
        finally:
            self._stop()  # an interrupt while waiting
        if exc_type is None and self.failed is not None:
            raise self.failed[1]

    def _stop(self) -> None:
        """Terminate the writes still running and wait for them to end."""
        for _, child, conn in self._running:
            child.terminate()
            child.join()
            child.close()
            conn.close()
        self._running.clear()


def _write_in_child(conn, write, args) -> None:
    """A writer process: run the write and send back (seconds, None) or
    (seconds, the exception), with the collector as the fork left it. A
    terminated write exits through `replacing`, which removes its .tmp
    files."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.perf_counter()
    error = None
    try:
        write(*args)
    except Exception as exc:
        error = exc
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # an exception that does not survive the pipe is sent as text
            error = RuntimeError(f"{type(exc).__name__}: {exc}")
    conn.send((time.perf_counter() - start, error))
    conn.close()


def write_text(path, text: str) -> None:
    with replacing(path) as (tmp,), open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_csv(path, header: list, rows: Iterable[list]) -> None:
    with replacing(path) as (tmp,), open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj) -> None:
    write_text(path, dumps(obj) + "\n")


def write_rows(path, table: FeatureTable, fields: Sequence[dict]) -> None:
    """Write one JSON line per table row, in row order: the object of the
    row's ego, its tx hash and fields[row_of[i]], whose keys must sort
    between "ego" and "tx_hash". The lines are the bytes of dumps of each
    whole object, but each distinct row's fields and each distinct ego are
    encoded once, and a line adds only its tx hash."""
    enc = dumps_str
    middles = [f",{dumps(obj)[1:-1]},\"tx_hash\":" for obj in fields]
    heads = [f'{{"ego":{enc(ego)}' for ego in table.ego_names.tolist()]
    rows = zip(table.tx_hashes.tolist(), table.ego_ids.tolist(), table.row_of.tolist())
    with replacing(path) as (tmp,), open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(f"{heads[ego]}{middles[row]}{enc(tx_hash)}}}\n" for tx_hash, ego, row in rows)


def line_to_tx(line: str, path, lineno: int) -> tuple[str, str, Optional[str], list[list]]:
    """Decode store line `lineno` of `path` into (tx_hash, ego, method group
    or None, rows).

    A valid line is a JSON object with string "tx" and "ego", an optional
    "mg" that is a string or null, and "tr", a list of 9-field transfer rows
    whose first seven fields (accounts, types, token, category) are strings
    and whose accounts differ. Anything else raises InputError naming the
    path and line.
    """
    try:
        obj = json.loads(line)
        tx, ego, rows, group = obj["tx"], obj["ego"], obj["tr"], obj.get("mg")
        if not (type(tx) is type(ego) is str and type(rows) is list
                and (group is None or type(group) is str)):
            raise TypeError("tx and ego must be strings, mg a string or null and tr a list")
        for row in rows:
            if type(row) is not list or len(row) != 9:
                raise ValueError(f"transfer row {row!r} does not have 9 fields")
            src, dst, src_type, dst_type, contract, symbol, category, _, _ = row
            if not (type(src) is type(dst) is type(src_type) is type(dst_type) is type(contract)
                    is type(symbol) is type(category) is str):
                raise TypeError(f"transfer row {row!r} has a non-string in its first seven fields")
            if src == dst:
                raise ValueError(f"transfer row {row!r} is a self-transfer")
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad store line {path}:{lineno}: {type(exc).__name__}: {exc}") from exc
    return tx, ego, group, rows


def write_store(store_dir, transactions: Iterable[tuple[str, str, Optional[str], list]],
                report: Optional[dict] = None) -> str:
    """Write the transaction store from (tx_hash, ego, method group or None,
    transfer rows) tuples; returns the JSONL path. The files appear only
    once all of them are written. Both files are written line by line."""
    os.makedirs(store_dir, exist_ok=True)
    store_path = os.path.join(store_dir, STORE_FILE)
    paths = [store_path, os.path.join(store_dir, LABELS_FILE)]
    if report is not None:
        paths.append(os.path.join(store_dir, REPORT_FILE))
    enc = dumps_str
    with replacing(*paths) as tmps:
        with open(tmps[0], "w", encoding="utf-8") as fh, open(
            tmps[1], "w", encoding="utf-8", newline=""
        ) as lfh:
            lfh.write("tx_hash,ego,method_group\r\n")
            for tx_hash, ego, group, rows in transactions:
                mg = "null" if group is None else enc(group)
                fh.write(f'{{"ego":{enc(ego)},"mg":{mg},"tr":{dumps(rows)},"tx":{enc(tx_hash)}}}\n')
                if group is not None:
                    lfh.write(f"{_csv_field(tx_hash)},{_csv_field(ego)},{_csv_field(group)}\r\n")
        if report is not None:
            write_json(tmps[2], report)
    return store_path


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes a field in the excel dialect: quoted, with
    its quotes doubled, when it holds a comma, a quote, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def store_path(store_dir) -> str:
    path = os.path.join(store_dir, STORE_FILE)
    if not os.path.exists(path):
        raise InputError(f"no transaction store at {path}")
    return path


def iter_store(store_dir) -> Iterator[tuple[str, str, Optional[str], list[list]]]:
    """Every stored transaction as line_to_tx decodes it, in store order."""
    path = store_path(store_dir)
    with _open(path, "store") as fh:
        yield from _decode(fh, path)


def _decode(lines: Iterable[str], path, first: int = 1) -> Iterator[tuple]:
    """line_to_tx of each non-blank line of `lines`, which start at line
    `first` of the store at `path`."""
    for lineno, line in enumerate(lines, first):
        if line.strip():
            yield line_to_tx(line, path, lineno)


def read_labels(path) -> dict[tuple[str, str], str]:
    """labels.csv (tx_hash,ego,method_group) -> {(tx_hash, ego): group}.
    Blank lines are skipped; a row without three fields raises InputError."""
    labels: dict[tuple[str, str], str] = {}
    rows = _csv_rows(path, "labels")
    _, header = next(rows, (1, None))
    if header is None or [h.strip() for h in header] != ["tx_hash", "ego", "method_group"]:
        raise _bad_line("labels", path, 1, "header must be tx_hash,ego,method_group")
    for lineno, row in rows:
        if len(row) == 3:
            labels[(row[0], row[1])] = row[2]
        elif row:
            raise _bad_line("labels", path, lineno, f"{len(row)} fields, expected 3")
    return labels


def read_features(path) -> FeatureTable:
    """features.jsonl as a FeatureTable, rows in file order; a row's keys
    come back in vocabulary order, not file order. A line that is not an
    object with a string tx_hash, a string ego (default ""), and a features
    object of int64 integer counts raises InputError naming the file and line,
    and so does a line whose mode is not one of motif.MODES or is not the
    first line's; an absent mode counts as one value. Each map is kept once
    per key order it comes in, and the table is built once from the kept maps."""
    memo: dict[tuple, int] = {}
    maps, map_of, hashes, egos = [], [], [], []
    first_mode = None
    for lineno, obj in _jsonl_rows(path, "features"):
        try:
            tx_hash, ego, feats = obj["tx_hash"], obj.get("ego", ""), obj["features"]
            mode = obj.get("mode")
            if not (type(tx_hash) is type(ego) is str):
                raise TypeError("tx_hash and ego must be strings")
            if type(feats) is not dict:
                raise TypeError("features must be an object")
            counts = feats.values()
            if counts and not ({*map(type, counts)} == {int}
                               and -_INT64 <= min(counts) and max(counts) < _INT64):
                key, count = next((k, c) for k, c in feats.items()
                                  if type(c) is not int or not -_INT64 <= c < _INT64)
                raise TypeError(f"count {count!r} of {key!r} is not a 64-bit integer")
        except (AttributeError, KeyError, TypeError) as exc:
            raise _bad_line("features", path, lineno, exc) from exc
        if mode is not None and mode not in MODES:
            raise _bad_line("features", path, lineno,
                            f"mode {mode!r} is not one of {', '.join(MODES)}")
        if not hashes:
            first_mode = mode
        elif mode != first_mode:
            raise _bad_line("features", path, lineno,
                            f"mode {mode!r} differs from the first line's {first_mode!r}")
        hashes.append(tx_hash)
        egos.append(ego)
        index = memo.setdefault(tuple(feats.items()), len(maps))
        if index == len(maps):
            maps.append(feats)
        map_of.append(index)
    return FeatureTable.build(hashes, egos, maps, map_of)


def features_mode(path) -> Optional[str]:
    """The mode recorded on the first line of a features file (None if empty
    or absent), which read_features checks every line to share."""
    for _, obj in _jsonl_rows(path, "features"):
        return obj.get("mode")
    return None


def read_matches(path) -> Iterator[tuple[str, list[int]]]:
    """(ego, leaves) per line of a matches file, for the profile subcommand.
    A line that is not an object with a string ego and a list of integer
    leaves raises InputError naming the file and line."""
    for lineno, obj in _jsonl_rows(path, "matches"):
        try:
            ego, leaves = obj["ego"], obj.get("leaves", [])
            if type(ego) is not str:
                raise TypeError("ego must be a string")
            if type(leaves) is not list or not {*map(type, leaves)} <= {int}:
                raise TypeError("leaves must be a list of integers")
        except (AttributeError, KeyError, TypeError) as exc:
            raise _bad_line("matches", path, lineno, exc) from exc
        yield ego, leaves


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
