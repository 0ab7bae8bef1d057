"""Ego motif catalog, typed motif counting, and edge-list features.

Counting sees an ETN with its parallel edges collapsed. Because every edge
touches the ego, each counterpart sits in exactly one of three states
(ego sends to it, it sends to ego, or both), so induced 2- and 3-node
subgraph counts reduce to combinatorics over (state, account type) groups.
This makes counts exact in O(counterparts) regardless of network size; the
all-out star is just the special case with a single group. count_from_groups
is that kernel. batch_shapes reduces each transaction of an
`ingest.TransferBatch`, with no ETN object, to its shape: the groups and
edge-label counts that its feature map depends on, sorted, so that neither
accounts nor row order show. It is the one loop over transfer rows, over the
batch's code columns. shape_features builds the map from a shape, and
featurize.py calls the two on a whole batch so that the transactions of one
shape share one map.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from .ingest import CHUNK, Param, TransferBatch, _fields, _schema, _strings

# Counterpart states relative to the ego.
OUT, IN, RECIP = 0, 1, 2

MODES = ("M", "E", "M+E", "MxE")
# the spelling of each mode that the --mode flags and a config accept -> the mode;
# normalize_mode, for library callers, also accepts them in any case
MODE_SPELLINGS = {"M": "M", "E": "E", "ME": "M+E", "M+E": "M+E", "MxE": "MxE"}
OOV_KEY = "__oov__"
OVERSIZE_KEY = "__oversize__"
DEFAULT_MAX_NODES = 500

# A motif catalog: each ego-rooted shape's neighbor-role edge states, in
# ascending order, -> its motif id. (OUT,) is the ego sending to one
# neighbor; (IN, RECIP) a pair, one sending to the ego, one in both directions.
Catalog = dict[tuple[int, ...], str]
_CATALOG_FIELDS = {"id": Param(str), "nodes": Param(list, what="a list of strings", ok=_strings),
                   "edges": Param(list, what="a list of [role, role] pairs",
                                  ok=lambda v: all(_strings(e, 2) for e in v))}


def enumerate_catalog() -> Catalog:
    """All non-isomorphic ego-rooted shapes on 2 and 3 nodes.

    Every neighbor carries one of {out, in, reciprocal}; 3-node shapes are
    deduplicated under the neighbor swap. Yields 3 + 6 = 9 shapes, m1-m9,
    two-node first, states ascending.
    """
    states = [(s,) for s in (OUT, IN, RECIP)]
    states += [(s1, s2) for s1 in (OUT, IN, RECIP) for s2 in (OUT, IN, RECIP) if s1 <= s2]
    return {shape: f"m{n}" for n, shape in enumerate(states, start=1)}


def load_catalog(path) -> Catalog:
    """Load a catalog override from JSON: [{id, nodes, edges:[[role,role]]}].
    A catalog that does not describe valid, non-isomorphic ego motifs with
    distinct ids raises InputError."""
    with _schema("motif catalog", path) as entries:
        catalog: Catalog = {}
        for sid, states in [_catalog_shape(entry, f"entry {i}") for i, entry in enumerate(entries)]:
            if states in catalog:
                raise ValueError(f"motif {sid} is isomorphic to an earlier catalog entry")
            catalog[states] = sid
        if len(set(catalog.values())) != len(catalog):
            raise ValueError("duplicate motif ids in catalog")
        return catalog


def _catalog_shape(entry, where: str) -> tuple[str, tuple[int, ...]]:
    """(id, role states in ascending order) of one catalog file entry."""
    fields = _fields(entry, _CATALOG_FIELDS, where)
    sid, nodes = fields["id"], fields["nodes"]
    edges = [tuple(e) for e in fields["edges"]]
    if "E" not in nodes:
        raise ValueError(f"motif {sid}: no ego role E")
    roles = [r for r in nodes if r != "E"]
    if len(nodes) != len(set(nodes)) or not 1 <= len(roles) <= 2:
        raise ValueError(f"motif {sid}: needs 1 or 2 distinct neighbor roles")
    if len(edges) != len(set(edges)):
        raise ValueError(f"motif {sid}: duplicate edges")
    states = []
    for role in roles:
        has_out = ("E", role) in edges
        has_in = (role, "E") in edges
        if not has_out and not has_in:
            raise ValueError(f"motif {sid}: role {role} not connected to E")
        states.append(RECIP if has_out and has_in else OUT if has_out else IN)
    for a, b in edges:
        if "E" not in (a, b):
            raise ValueError(f"motif {sid}: edge ({a},{b}) does not touch E")
        if a == b or {a, b} - set(nodes):
            raise ValueError(f"motif {sid}: bad edge ({a},{b})")
    return sid, tuple(sorted(states))


def count_from_groups(
    catalog: Catalog,
    groups: Sequence[tuple[tuple[int, str, tuple[str, ...]], int]],
    oversize: bool = False,
) -> dict[str, int]:
    """Typed motif counts from the ((state, type, labels), size) items of
    counterpart groups, in sorted order: the groups of a batch_shapes shape.

    Induced matching: a counterpart pair matches the 3-node shape whose
    states equal the pair's states, and nothing else, so subset counts are
    products / within-group pair counts over the groups. A pair key lists its
    types in the order of their states, sorted when the states are equal.
    Non-empty labels (MxE) append "|" and the instance's edge labels joined
    in sorted order to each key. With oversize set, only 2-node keys are
    counted and OVERSIZE_KEY is set instead of the pair keys.
    """
    counts: dict[str, int] = {}
    for (state, ntype, labels), n in groups:
        sid = catalog.get((state,))
        if sid is not None:
            key = f"{sid}(E,{ntype})"
            counts[f"{key}|{'+'.join(labels)}" if labels else key] = n
    if oversize:
        counts[OVERSIZE_KEY] = 1
        return counts
    for i, ((s1, t1, l1), n1) in enumerate(groups):
        sid = catalog.get((s1, s1))
        if sid is not None and n1 >= 2:
            key = _pair_key(sid, t1, t1, l1 + l1)
            counts[key] = counts.get(key, 0) + n1 * (n1 - 1) // 2
        # the groups are sorted, so s1 <= s2, and t1 <= t2 when s1 == s2
        for (s2, t2, l2), n2 in groups[i + 1 :]:
            sid = catalog.get((s1, s2))
            if sid is not None:
                key = _pair_key(sid, t1, t2, l1 + l2)
                counts[key] = counts.get(key, 0) + n1 * n2
    return counts


def _pair_key(sid: str, ta: str, tb: str, labels: tuple[str, ...]) -> str:
    key = f"{sid}(E,{ta},{tb})"
    return f"{key}|{'+'.join(sorted(labels))}" if labels else key


# A transaction's shape: (the sorted ((state, type, labels), size) counterpart
# groups, empty under E; the sorted edge-label counts, empty unless E or M+E;
# oversize).
Shape = tuple[tuple, tuple, bool]


def batch_shapes(batch: TransferBatch, mode: str,
                 max_nodes: int = DEFAULT_MAX_NODES) -> Iterator[tuple[Shape, int]]:
    """(shape, rows touching no ego) of each transaction of `batch`, in order.

    The shape is a canonical form of the typed ego network up to what the
    features of `mode` can see: the counterpart groups and the edge-label
    counts, each sorted, and the oversize flag. A counterpart's group is its
    state (ego sends to it, it sends to ego, or both), its type and, under
    MxE, its edge labels in sorted order (() otherwise). Transactions with
    equal shapes have equal feature maps (shape_features), whatever their
    accounts, hashes and row order. A counterpart keeps the type of the
    first row it appears in; edge labels are "(S,T)category".

    This is the one loop over transfer rows: numpy finds each row's
    counterpart, direction and counterpart type from the code columns, a
    CHUNK of transactions at a time, and the loop tallies them.
    """
    if mode not in MODES:
        raise ValueError(f"unknown feature mode {mode!r} (expected one of {MODES})")
    want_e, mxe = mode in ("E", "M+E"), mode == "MxE"
    kinds, offsets = batch.kinds, batch.offsets
    # label[bit][type][category]: the edge label of a row sending to (bit 1) or from (bit 2) the ego
    label = [None, [[f"(E,{k}){c}" for c in batch.categories] for k in kinds],
             [[f"({k},E){c}" for c in batch.categories] for k in kinds]]
    for first in range(0, len(batch), CHUNK):
        last = min(first + CHUNK, len(batch))
        lo, hi = offsets[first], offsets[last]
        sizes = np.diff(offsets[first:last + 1])
        ego = np.repeat(batch.ego[first:last], sizes)
        src, dst = batch.src[lo:hi], batch.dst[lo:hi]
        out = src == ego
        bit = np.where(out, 1, 2 * (dst == ego))  # 0: the row touches no ego
        other = np.where(out, dst, src).tolist()
        otype = np.where(out, batch.dst_kind[lo:hi], batch.src_kind[lo:hi]).tolist()
        rows = zip(other, bit.tolist(), otype, batch.category[lo:hi].tolist())
        for n in sizes.tolist():
            flags: dict[int, int] = {}
            types: dict[int, int] = {}
            edges: dict[str, int] = {}
            labels: dict[int, list[str]] = {}
            rejected = 0
            for node, f, ntype, category in itertools.islice(rows, n):
                if not f:
                    rejected += 1
                    continue
                ntype = types.setdefault(node, ntype)
                flags[node] = flags.get(node, 0) | f
                edge = label[f][ntype][category]
                if want_e:
                    edges[edge] = edges.get(edge, 0) + 1
                if mxe:
                    labels.setdefault(node, []).append(edge)
            edge_counts = tuple(sorted(edges.items()))
            if mode == "E":
                yield ((), edge_counts, False), rejected
                continue
            groups: dict[tuple[int, str, tuple[str, ...]], int] = {}
            for node, f in flags.items():  # f is state + 1: 1 out, 2 in, 3 both
                key = (f - 1, kinds[types[node]], tuple(sorted(labels[node])) if mxe else ())
                groups[key] = groups.get(key, 0) + 1
            oversize = mxe and len(flags) > max_nodes
            yield (tuple(sorted(groups.items())), edge_counts, oversize), rejected


def shape_features(catalog: Catalog, shape: Shape) -> dict[str, int]:
    """The sparse feature map of a shape from batch_shapes: the motif keys of
    count_from_groups, then the edge labels in sorted order.

    M counts typed motifs, E the edge labels "(S,T)category" (parallel edges
    included), M+E both, and MxE each motif instance keyed with its edge
    labels; above max_nodes counterparts MxE keeps only the 2-node keys and
    sets OVERSIZE_KEY, as the pair key space degenerates on airdrops."""
    groups, edges, oversize = shape
    feats = count_from_groups(catalog, groups, oversize)
    feats.update(edges)
    return feats


def normalize_mode(mode: str) -> str:
    """Canonicalize CLI spellings in any case: ME -> M+E, MxE/MXE -> MxE."""
    canon = {spelling.upper(): m for spelling, m in MODE_SPELLINGS.items()}.get(mode.upper())
    if canon is None:
        raise ValueError(f"unknown feature mode {mode!r} (expected one of M, E, ME, MxE)")
    return canon
