"""Ego motif catalog, typed motif counting, and edge-list features.

Counting works on the collapsed simple view of an ETN. Because every edge
touches the ego, each counterpart sits in exactly one of three states
(ego sends to it, it sends to ego, or both), so induced 2- and 3-node
subgraph counts reduce to combinatorics over (state, account type) groups.
This makes counts exact in O(counterparts) regardless of network size; the
all-out star is just the special case with a single group. count_from_groups
is that kernel, for M and MxE keys alike; the ETN functions here and the
store-line path in featurize.py both call it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .etn import EgoTransferNetwork
from .ingest import InputError, read_json

# Counterpart states relative to the ego.
OUT, IN, RECIP = 0, 1, 2
STATE_NAMES = ("out", "in", "recip")

MODES = ("M", "E", "M+E", "MxE")
OOV_KEY = "__oov__"
OVERSIZE_KEY = "__oversize__"
DEFAULT_MAX_NODES = 500


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

    @property
    def automorphisms(self) -> int:
        return 2 if self.symmetric else 1

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
    entries = read_json(path, "motif catalog")
    try:
        return MotifCatalog([_catalog_shape(entry) for entry in entries])
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad motif catalog {path}: {type(exc).__name__}: {exc}") from exc


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


def motif_key(shape: MotifShape, types: tuple[str, ...]) -> str:
    """Typed key "mK(E,t)" or "mK(E,ti,tj)"; symmetric shapes sort the types."""
    if len(types) == 2 and shape.symmetric and types[0] > types[1]:
        types = (types[1], types[0])
    return f"{shape.id}(E,{','.join(types)})"


def _edge_flags(etn: EgoTransferNetwork):
    """Counterpart -> flags (1 out, 2 in, 3 both), and counterpart -> edge labels."""
    ego = etn.ego
    types = etn.node_types
    flags: dict[str, int] = {}
    labels: dict[str, list[str]] = {}
    for src, dst, category in etn.edges:
        other, bit = (dst, 1) if src == ego else (src, 2)
        flags[other] = flags.get(other, 0) | bit
        labels.setdefault(other, []).append(f"({types[src]},{types[dst]}){category}")
    return flags, labels


def neighbor_states(etn: EgoTransferNetwork) -> dict[str, int]:
    """Counterpart -> state (OUT, IN or RECIP) over its edges to and from the ego."""
    return {node: f - 1 for node, f in _edge_flags(etn)[0].items()}


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
    groups: dict[tuple[int, str, tuple[str, ...]], int],
    oversize: bool = False,
) -> dict[str, int]:
    """Typed motif counts from (state, type, labels) group sizes.

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
    items = sorted(groups.items())
    for (state, ntype, labels), n in items:
        shape = two_node.get(state)
        if shape is not None:
            key = f"{shape.id}(E,{ntype})"
            counts[f"{key}|{'+'.join(labels)}" if labels else key] = n
    if oversize:
        counts[OVERSIZE_KEY] = 1
        return counts
    for i, ((s1, t1, l1), n1) in enumerate(items):
        shape = three_node.get((s1, s1))
        if shape is not None and n1 >= 2:
            key = _pair_key(shape.id, t1, t1, l1 + l1)
            counts[key] = counts.get(key, 0) + n1 * (n1 - 1) // 2
        for (s2, t2, l2), n2 in items[i + 1 :]:
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


def count_motifs(etn: EgoTransferNetwork, catalog: MotifCatalog) -> dict[str, int]:
    """Typed induced motif counts over the ETN's simple view."""
    flags, _ = _edge_flags(etn)
    return count_from_groups(catalog, group_counterparts(flags, etn.node_types))


def count_motifs_untyped(etn: EgoTransferNetwork, catalog: MotifCatalog) -> dict[str, int]:
    """Per-shape counts ignoring account types (shape id -> count)."""
    states: dict[int, int] = {}
    for state in neighbor_states(etn).values():
        states[state] = states.get(state, 0) + 1
    counts: dict[str, int] = {}
    for state, n in sorted(states.items()):
        shape = catalog.two_node.get(state)
        if shape is not None:
            counts[shape.id] = n
        shape = catalog.three_node.get((state, state))
        if shape is not None and n >= 2:
            counts[shape.id] = n * (n - 1) // 2
    state_items = sorted(states.items())
    for i, (s1, n1) in enumerate(state_items):
        for s2, n2 in state_items[i + 1 :]:
            shape = catalog.three_node.get((s1, s2))
            if shape is not None:
                counts[shape.id] = counts.get(shape.id, 0) + n1 * n2
    return counts


def edge_features(etn: EgoTransferNetwork) -> dict[str, int]:
    """Edge-list counts keyed "(S,T)category", parallel edges included."""
    counts: dict[str, int] = {}
    types = etn.node_types
    for src, dst, category in etn.edges:
        key = f"({types[src]},{types[dst]}){category}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def motif_edge_features(
    etn: EgoTransferNetwork, catalog: MotifCatalog, max_nodes: int = DEFAULT_MAX_NODES
) -> dict[str, int]:
    """Combined M x E keys: one per matched motif instance and its edge labels.

    Key = typed motif key + "|" + the instance's edge labels (parallel
    edges included) joined in sorted order. Above max_nodes counterparts,
    3-node combinations are skipped and an oversize flag is set instead:
    the pair key space degenerates on airdrop-style transactions.
    """
    flags, labels = _edge_flags(etn)
    groups = group_counterparts(flags, etn.node_types, labels)
    return count_from_groups(catalog, groups, oversize=len(etn.node_types) - 1 > max_nodes)


def transaction_features(
    etn: EgoTransferNetwork,
    catalog: MotifCatalog,
    mode: str,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> dict[str, int]:
    """Sparse feature map for one ETN under the given mode."""
    if mode == "M":
        return count_motifs(etn, catalog)
    if mode == "E":
        return edge_features(etn)
    if mode == "M+E":
        feats = count_motifs(etn, catalog)
        feats.update(edge_features(etn))
        return feats
    if mode == "MxE":
        return motif_edge_features(etn, catalog, max_nodes)
    raise ValueError(f"unknown feature mode {mode!r} (expected one of {MODES})")


def normalize_mode(mode: str) -> str:
    """Canonicalize CLI spellings: ME -> M+E, MxE/MXE -> MxE."""
    aliases = {"M": "M", "E": "E", "ME": "M+E", "M+E": "M+E", "MXE": "MxE", "MxE": "MxE"}
    canon = aliases.get(mode) or aliases.get(mode.upper())
    if canon is None:
        raise ValueError(f"unknown feature mode {mode!r} (expected one of M, E, ME, MxE)")
    return canon
