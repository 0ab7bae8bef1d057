"""The feature table: featurize's hand-off to train and match.

A FeatureTable holds one row per featurized transaction: its tx hash, its
ego, and `row_of`, its index among the distinct feature rows. Rows repeat
heavily, so only the distinct rows are stored: CSR arrays over a sorted
vocabulary, in first-seen order, each row's entries in vocabulary order.
A table is built once, by `build`, from each row's tx hash and ego, a list
of feature maps and each row's index among them. Featurize gives it the maps
of its pass, or of its workers' slices in order, and
`storage.read_features` the maps of a features.jsonl file; a map that
repeats, in any key order, becomes one distinct row, so the table does not
depend on the worker count or slice size. features.jsonl and matches.jsonl are written from a table, one line
per row, by `storage.write_rows`.

Tx hashes and the distinct egos are each packed into one string with end
offsets, so a table costs no object per row and keeps alive none of the
strings it was built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np


@dataclass
class Strings:
    """A sequence of strings packed into one: string i is text[ends[i - 1]:ends[i]]."""

    text: str
    ends: np.ndarray  # int64

    @classmethod
    def pack(cls, strings: Sequence[str]) -> "Strings":
        return cls("".join(strings), np.cumsum(np.fromiter(map(len, strings), np.int64, len(strings))))

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
    row_of: np.ndarray  # int32: row i's features are distinct row row_of[i]
    indptr: np.ndarray  # int64: distinct row j's entries are indptr[j]:indptr[j + 1]
    indices: np.ndarray  # int32 into vocabulary, ascending within a distinct row
    counts: np.ndarray  # int64

    @property
    def n_rows(self) -> int:
        return len(self.tx_hashes)

    @property
    def n_distinct(self) -> int:
        return len(self.indptr) - 1

    @classmethod
    def build(cls, tx_hashes: Sequence[str], egos: Sequence[str],
              feature_maps: Sequence[dict[str, int]],
              map_of: Optional[Sequence[int]] = None) -> "FeatureTable":
        """The table of rows given as columns: row i's features are
        feature_maps[i], or feature_maps[map_of[i]] when map_of is given.
        Then each map is flattened, sorted and deduplicated once however many
        rows share it, and the maps must come in the order of their first use.
        Equal maps, in any key order, become one distinct row, so the maps
        may repeat: several slices' maps, one slice after another, with each
        slice's map_of shifted by the maps before it, give the table of all
        the slices' rows."""
        keys = list(chain.from_iterable(feature_maps))
        vocabulary = sorted(set(keys))
        position = {key: i for i, key in enumerate(vocabulary)}
        indices = np.fromiter(map(position.__getitem__, keys), np.int32, len(keys))
        counts = np.fromiter(chain.from_iterable(map(dict.values, feature_maps)), np.int64, len(keys))
        lengths = np.fromiter(map(len, feature_maps), np.int64, len(feature_maps))
        # each row's entries in vocabulary order, so that equal maps have equal entries
        order = np.argsort(np.repeat(np.arange(len(lengths)) * len(vocabulary), lengths) + indices,
                           kind="stable")
        distinct = _distinct(lengths, indices[order], counts[order])
        if map_of is not None:
            distinct["row_of"] = distinct["row_of"][np.asarray(map_of, dtype=np.intp)]
        ego_index = {ego: i for i, ego in enumerate(dict.fromkeys(egos))}
        return cls(
            tx_hashes=Strings.pack(tx_hashes),
            ego_names=Strings.pack(list(ego_index)),
            ego_ids=np.fromiter(map(ego_index.__getitem__, egos), np.int32, len(egos)),
            vocabulary=vocabulary, **distinct,
        )

    def egos(self) -> list[str]:
        names = self.ego_names.tolist()
        return [names[i] for i in self.ego_ids.tolist()]

    def distinct_rows(self) -> list[dict[str, int]]:
        """Each distinct row's features, keys in vocabulary order."""
        vocab, indptr = self.vocabulary, self.indptr.tolist()
        indices, counts = self.indices.tolist(), self.counts.tolist()
        return [{vocab[c]: n for c, n in zip(indices[start:stop], counts[start:stop])}
                for start, stop in zip(indptr, indptr[1:])]


_ENTRY_BYTES = 16  # an entry as two int64: index, count


def _distinct(lengths: np.ndarray, indices: np.ndarray, counts: np.ndarray) -> dict:
    """row_of and the CSR of the distinct rows, in first-seen order, of the
    rows with the given lengths and entries; rows are equal when their
    entries' bytes are."""
    data = np.stack([indices.astype(np.int64), counts], axis=1).tobytes()
    bounds = np.concatenate(([0], np.cumsum(lengths) * _ENTRY_BYTES)).tolist()
    first: dict[bytes, int] = {}
    row_of = np.fromiter((first.setdefault(data[a:b], len(first)) for a, b in zip(bounds, bounds[1:])),
                         np.int32, len(lengths))
    distinct = np.frombuffer(b"".join(first), dtype=np.int64).reshape(-1, 2)
    ends = np.cumsum(np.fromiter(map(len, first), np.int64, len(first))) // _ENTRY_BYTES
    return {"row_of": row_of, "indptr": np.concatenate(([0], ends)),
            "indices": distinct[:, 0].astype(np.int32), "counts": distinct[:, 1].copy()}
