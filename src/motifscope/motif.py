"""Ego motif catalog, typed motif counting, and edge-list features.

Counting works on the collapsed simple view of an ETN. Because every edge
touches the ego, each counterpart sits in exactly one of three states
(ego sends to it, it sends to ego, or both), so induced 2- and 3-node
subgraph counts reduce to combinatorics over (state, account type) groups.
This makes counts exact in O(counterparts) regardless of network size; the
all-out star is just the special case with a single group. count_from_groups
is that kernel. transaction_shape reduces a stored transaction, with no ETN
object, to its shape: the groups and edge-label counts that its feature map
depends on, sorted, so that neither accounts nor row order show. shape_features
builds the map from the shape; transaction_features, the one featurizer, is
the two composed, and featurize.py calls the two halves so that the
transactions of one shape share one map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .ingest import _schema, read_json

# Counterpart states relative to the ego.
OUT, IN, RECIP = 0, 1, 2

MODES = ("M", "E", "M+E", "MxE")
# the spelling of each mode that the --mode flags accept -> the mode; any case is accepted
MODE_SPELLINGS = {"M": "M", "E": "E", "ME": "M+E", "M+E": "M+E", "MxE": "MxE"}
OOV_KEY = "__oov__"
OVERSIZE_KEY = "__oversize__"
DEFAULT_MAX_NODES = 500

# (source type, target type, category) -> "(S,T)category": closed vocabularies, so it stays small
_EDGE_LABELS: dict[tuple[str, str, str], str] = {}


@dataclass(frozen=True)
class MotifShape:
    """One ego-rooted shape: the ego plus one or two neighbor roles.

    states holds the neighbor roles' edge states in role order; a 3-node
    shape is symmetric (automorphism 2) when both roles share a state.
    """

    id: str
    states: tuple[int, ...]

    @property
    def size(self) -> int:
        return 1 + len(self.states)

    @property
    def symmetric(self) -> bool:
        return len(self.states) == 2 and self.states[0] == self.states[1]

    def role_edges(self) -> list[tuple[str, str]]:
        edges = []
        for role, state in zip("ij", self.states):
            if state in (OUT, RECIP):
                edges.append(("E", role))
            if state in (IN, RECIP):
                edges.append((role, "E"))
        return edges


class MotifCatalog:
    """Ordered, non-isomorphic collection of ego motif shapes."""

    def __init__(self, shapes: list[MotifShape]):
        self.shapes = list(shapes)
        self.by_id = {s.id: s for s in self.shapes}
        self.two_node: dict[int, MotifShape] = {}
        self.three_node: dict[tuple[int, int], MotifShape] = {}
        seen: set[tuple[int, ...]] = set()
        for shape in self.shapes:
            if len(shape.states) not in (1, 2):
                raise ValueError(f"motif {shape.id}: only 2- and 3-node shapes are allowed")
            canon = tuple(sorted(shape.states))
            if canon in seen:
                raise ValueError(f"motif {shape.id} is isomorphic to an earlier catalog entry")
            seen.add(canon)
            if len(shape.states) == 1:
                self.two_node[shape.states[0]] = shape
            else:
                self.three_node[canon] = shape
        if len(self.by_id) != len(self.shapes):
            raise ValueError("duplicate motif ids in catalog")

    def __len__(self) -> int:
        return len(self.shapes)

    def __iter__(self):
        return iter(self.shapes)

    def to_json(self) -> list[dict]:
        out = []
        for shape in self.shapes:
            nodes = ["E"] + list("ij"[: len(shape.states)])
            out.append({"id": shape.id, "nodes": nodes, "edges": shape.role_edges()})
        return out


def enumerate_catalog() -> MotifCatalog:
    """All non-isomorphic ego-rooted shapes on 2 and 3 nodes.

    Every neighbor carries one of {out, in, reciprocal}; 3-node shapes are
    deduplicated under the neighbor swap. Yields 3 + 6 = 9 shapes, ordered
    two-node first, states ascending.
    """
    shapes = []
    n = 0
    for state in (OUT, IN, RECIP):
        n += 1
        shapes.append(MotifShape(id=f"m{n}", states=(state,)))
    for s1 in (OUT, IN, RECIP):
        for s2 in (OUT, IN, RECIP):
            if s2 < s1:
                continue
            n += 1
            shapes.append(MotifShape(id=f"m{n}", states=(s1, s2)))
    return MotifCatalog(shapes)


def load_catalog(path) -> MotifCatalog:
    """Load a catalog override from JSON: [{id, nodes, edges:[[role,role]]}].
    A catalog that does not describe valid ego motifs raises InputError."""
    with _schema("motif catalog", path):
        return MotifCatalog([_catalog_shape(entry) for entry in read_json(path, "motif catalog")])


def _catalog_shape(entry: dict) -> MotifShape:
    sid = entry["id"]
    nodes = entry["nodes"]
    edges = [tuple(e) for e in entry["edges"]]
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
    return MotifShape(id=sid, states=tuple(states))


def group_counterparts(
    flags: dict[str, int],
    types: dict[str, str],
    labels: dict[str, list[str]] | None = None,
) -> dict[tuple[int, str, tuple[str, ...]], int]:
    """Counterparts grouped by (state, type, labels) for count_from_groups.

    flags maps a counterpart to 1 (ego sends to it), 2 (it sends to ego) or
    3 (both), i.e. state + 1. labels, given under MxE, maps it to its edge
    labels; the group key holds them as a sorted tuple, and () otherwise.
    """
    groups: dict[tuple[int, str, tuple[str, ...]], int] = {}
    for node, f in flags.items():
        key = (f - 1, types[node], tuple(sorted(labels[node])) if labels is not None else ())
        groups[key] = groups.get(key, 0) + 1
    return groups


def count_from_groups(
    catalog: MotifCatalog,
    groups: Sequence[tuple[tuple[int, str, tuple[str, ...]], int]],
    oversize: bool = False,
) -> dict[str, int]:
    """Typed motif counts from the ((state, type, labels), size) items of
    group_counterparts, in sorted order.

    Induced matching: a counterpart pair matches the 3-node shape whose
    states equal the pair's states, and nothing else, so subset counts are
    products / within-group pair counts over the groups. Non-empty labels
    (MxE) append "|" and the instance's edge labels joined in sorted order
    to each key. With oversize set, only 2-node keys are counted and
    OVERSIZE_KEY is set instead of the pair keys.
    """
    counts: dict[str, int] = {}
    two_node = catalog.two_node
    three_node = catalog.three_node
    for (state, ntype, labels), n in groups:
        shape = two_node.get(state)
        if shape is not None:
            key = f"{shape.id}(E,{ntype})"
            counts[f"{key}|{'+'.join(labels)}" if labels else key] = n
    if oversize:
        counts[OVERSIZE_KEY] = 1
        return counts
    for i, ((s1, t1, l1), n1) in enumerate(groups):
        shape = three_node.get((s1, s1))
        if shape is not None and n1 >= 2:
            key = _pair_key(shape.id, t1, t1, l1 + l1)
            counts[key] = counts.get(key, 0) + n1 * (n1 - 1) // 2
        for (s2, t2, l2), n2 in groups[i + 1 :]:
            canon = (s1, s2) if s1 <= s2 else (s2, s1)
            shape = three_node.get(canon)
            if shape is None:
                continue
            if s1 == s2:
                ta, tb = (t1, t2) if t1 <= t2 else (t2, t1)
            else:
                # role order: the catalog's first role carries canon[0]
                ta, tb = (t1, t2) if s1 == canon[0] else (t2, t1)
            key = _pair_key(shape.id, ta, tb, l1 + l2)
            counts[key] = counts.get(key, 0) + n1 * n2
    return counts


def _pair_key(sid: str, ta: str, tb: str, labels: tuple[str, ...]) -> str:
    key = f"{sid}(E,{ta},{tb})"
    return f"{key}|{'+'.join(sorted(labels))}" if labels else key


# A transaction's shape: (the sorted group_counterparts items, empty under E;
# the sorted edge-label counts, empty unless E or M+E; oversize).
Shape = tuple[tuple, tuple, bool]


def transaction_shape(tx: tuple[str, str, Optional[str], list], mode: str,
                      max_nodes: int = DEFAULT_MAX_NODES) -> tuple[Shape, int]:
    """(shape, rows touching no ego) of one stored transaction.

    The shape is a canonical form of the typed ego network up to what the
    features of `mode` can see: the counterpart groups and the edge-label
    counts, each sorted, and the oversize flag. Transactions with
    equal shapes have equal feature maps (shape_features), whatever their
    accounts, hashes and row order. A counterpart keeps the type of the
    first row it appears in; edge labels are "(S,T)category".
    """
    if mode not in MODES:
        raise ValueError(f"unknown feature mode {mode!r} (expected one of {MODES})")
    _, ego, _, rows = tx
    want_e = mode in ("E", "M+E")
    labels: Optional[dict[str, list[str]]] = {} if mode == "MxE" else None
    edges: dict[str, int] = {}
    flags: dict[str, int] = {}
    types: dict[str, str] = {}
    rejected = 0
    for src, dst, src_type, dst_type, _, _, category, _, _ in rows:
        if src == ego:
            other, otype, bit = dst, dst_type, 1
        elif dst == ego:
            other, otype, bit = src, src_type, 2
        else:
            rejected += 1
            continue
        otype = types.setdefault(other, otype)
        flags[other] = flags.get(other, 0) | bit
        ek = ("E", otype, category) if bit == 1 else (otype, "E", category)
        label = _EDGE_LABELS.get(ek)
        if label is None:
            label = _EDGE_LABELS[ek] = f"({ek[0]},{ek[1]}){ek[2]}"
        if want_e:
            edges[label] = edges.get(label, 0) + 1
        if labels is not None:
            labels.setdefault(other, []).append(label)
    edge_counts = tuple(sorted(edges.items()))
    if mode == "E":
        return ((), edge_counts, False), rejected
    oversize = labels is not None and len(flags) > max_nodes
    return (tuple(sorted(group_counterparts(flags, types, labels).items())), edge_counts,
            oversize), rejected


def shape_features(catalog: MotifCatalog, shape: Shape) -> dict[str, int]:
    """The sparse feature map of a transaction_shape: the motif keys of
    count_from_groups, then the edge labels in sorted order."""
    groups, edges, oversize = shape
    feats = count_from_groups(catalog, groups, oversize)
    feats.update(edges)
    return feats


def transaction_features(tx: tuple[str, str, Optional[str], list], catalog: MotifCatalog,
                         mode: str, max_nodes: int = DEFAULT_MAX_NODES) -> tuple[dict[str, int], int]:
    """(sparse feature map, rows touching no ego) of one stored transaction:
    shape_features of its transaction_shape.

    M counts typed motifs, E the edge labels "(S,T)category" (parallel edges
    included), M+E both, and MxE each motif instance keyed with its edge
    labels; above max_nodes counterparts MxE keeps only the 2-node keys and
    sets OVERSIZE_KEY, as the pair key space degenerates on airdrops.
    """
    shape, rejected = transaction_shape(tx, mode, max_nodes)
    return shape_features(catalog, shape), rejected


def normalize_mode(mode: str) -> str:
    """Canonicalize CLI spellings in any case: ME -> M+E, MxE/MXE -> MxE."""
    canon = {spelling.upper(): m for spelling, m in MODE_SPELLINGS.items()}.get(mode.upper())
    if canon is None:
        raise ValueError(f"unknown feature mode {mode!r} (expected one of M, E, ME, MxE)")
    return canon
