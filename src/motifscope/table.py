"""The feature table: featurize's hand-off to train and match.

A FeatureTable holds one row per featurized transaction: its tx hash, its
ego, and its feature counts as CSR arrays over a sorted vocabulary. The
featurize workers build one table per chunk and `concat` joins them in chunk
order, so the table does not depend on the worker count; `storage.
read_features` builds the same table from a features.jsonl file.

Tx hashes and the distinct egos are each packed into one string with end
offsets, so a table costs no object per row and keeps alive none of the
strings it was built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np


@dataclass
class Strings:
    """A sequence of strings packed into one: string i is text[ends[i - 1]:ends[i]]."""

    text: str
    ends: np.ndarray  # int64

    @classmethod
    def pack(cls, strings: Sequence[str]) -> "Strings":
        return cls("".join(strings), np.cumsum(np.fromiter(map(len, strings), np.int64, len(strings))))

    @classmethod
    def concat(cls, parts: Sequence["Strings"]) -> "Strings":
        offsets = np.cumsum([0] + [len(p.text) for p in parts[:-1]])
        return cls("".join(p.text for p in parts),
                   np.concatenate([p.ends + off for p, off in zip(parts, offsets)]))

    def __len__(self) -> int:
        return len(self.ends)

    def tolist(self) -> list[str]:
        text, ends = self.text, self.ends.tolist()
        return [text[start:end] for start, end in zip([0] + ends, ends)]


@dataclass
class FeatureTable:
    tx_hashes: Strings  # one per row
    ego_names: Strings  # the distinct egos, in first-seen order
    ego_ids: np.ndarray  # int32: row i's ego is ego_names[ego_ids[i]]
    vocabulary: list[str]  # sorted feature keys
    indptr: np.ndarray  # int64: row i's entries are indptr[i]:indptr[i + 1]
    indices: np.ndarray  # int32 into vocabulary; a row keeps the order of its keys
    counts: np.ndarray  # int64

    @property
    def n_rows(self) -> int:
        return len(self.tx_hashes)

    @classmethod
    def build(cls, tx_hashes: Sequence[str], egos: Sequence[str],
              feature_maps: Sequence[dict[str, int]], sort_keys: bool = False) -> "FeatureTable":
        """The table of rows given as columns. A row's entries keep its
        map's order, or key order with sort_keys."""
        keys = list(chain.from_iterable(feature_maps))
        vocabulary = sorted(set(keys))
        position = {key: i for i, key in enumerate(vocabulary)}
        indices = np.fromiter(map(position.__getitem__, keys), np.int32, len(keys))
        counts = np.fromiter(chain.from_iterable(map(dict.values, feature_maps)), np.int64, len(keys))
        lengths = np.fromiter(map(len, feature_maps), np.int64, len(feature_maps))
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        if sort_keys:
            rows = np.repeat(np.arange(len(lengths)) * len(vocabulary), lengths)
            order = np.argsort(rows + indices, kind="stable")
            indices, counts = indices[order], counts[order]
        ego_index = {ego: i for i, ego in enumerate(dict.fromkeys(egos))}
        return cls(
            tx_hashes=Strings.pack(tx_hashes),
            ego_names=Strings.pack(list(ego_index)),
            ego_ids=np.fromiter(map(ego_index.__getitem__, egos), np.int32, len(egos)),
            vocabulary=vocabulary, indptr=indptr, indices=indices, counts=counts,
        )

    @classmethod
    def concat(cls, tables: Sequence["FeatureTable"]) -> "FeatureTable":
        """The rows of every table, in order, over the union vocabulary."""
        if not tables:
            return cls.build([], [], [])
        vocabulary = sorted(set().union(*(t.vocabulary for t in tables)))
        position = {key: i for i, key in enumerate(vocabulary)}
        ego_names = [t.ego_names.tolist() for t in tables]
        ego_index = {ego: i for i, ego in enumerate(dict.fromkeys(chain.from_iterable(ego_names)))}
        entry_offsets = np.cumsum([0] + [len(t.indices) for t in tables[:-1]])
        return cls(
            tx_hashes=Strings.concat([t.tx_hashes for t in tables]),
            ego_names=Strings.pack(list(ego_index)),
            ego_ids=np.concatenate([
                np.array([ego_index[e] for e in names], dtype=np.int32)[t.ego_ids]
                for t, names in zip(tables, ego_names)]),
            vocabulary=vocabulary,
            indptr=np.concatenate([np.zeros(1, np.int64)] + [
                t.indptr[1:] + off for t, off in zip(tables, entry_offsets)]),
            indices=np.concatenate([
                np.array([position[k] for k in t.vocabulary], dtype=np.int32)[t.indices]
                for t in tables]),
            counts=np.concatenate([t.counts for t in tables]),
        )

    def egos(self) -> list[str]:
        names = self.ego_names.tolist()
        return [names[i] for i in self.ego_ids.tolist()]

    def rows(self) -> Iterator[tuple[str, str, dict[str, int]]]:
        """(tx_hash, ego, features) per row, keys in the row's order."""
        vocab, indptr = self.vocabulary, self.indptr.tolist()
        indices, counts = self.indices.tolist(), self.counts.tolist()
        for i, (tx_hash, ego) in enumerate(zip(self.tx_hashes.tolist(), self.egos())):
            start, stop = indptr[i], indptr[i + 1]
            yield tx_hash, ego, {vocab[c]: n for c, n in zip(indices[start:stop], counts[start:stop])}

    def take(self, rows: Sequence[int]) -> "FeatureTable":
        """The given rows, in the given order, over the same vocabulary and egos."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        entries = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        hashes = self.tx_hashes.tolist()
        return FeatureTable(
            tx_hashes=Strings.pack([hashes[i] for i in rows.tolist()]),
            ego_names=self.ego_names, ego_ids=self.ego_ids[rows],
            vocabulary=self.vocabulary, indptr=indptr,
            indices=self.indices[entries], counts=self.counts[entries],
        )
