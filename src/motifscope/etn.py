"""Ego transfer network: per-transaction directed, typed, multi-edge graph.

Built from transaction i of an `ingest.TransferBatch`, such as
`storage.read_store` yields, whose rows already carry resolved account
types and token categories. Every edge touches the ego account. Parallel
edges are kept: they feed the edge-list features, while motif counting
(motif.batch_shapes) sees only whether an edge runs each way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ingest import TransferBatch


@dataclass
class EgoTransferNetwork:
    ego: str
    node_types: dict[str, str]  # node id -> E/A/C/N; exactly one E
    edges: list[tuple[str, str, str]]  # (source, target, token category), parallel allowed
    rejected: list[tuple[str, str]] = field(default_factory=list)  # (from, to) not touching ego


def build_etn(batch: TransferBatch, i: int) -> EgoTransferNetwork:
    """Build the ETN of transaction i of `batch`.

    A counterpart keeps the type of the first row it appears in. Transfers
    touching neither endpoint of the ego are rejected and reported, not
    raised.
    """
    strings, kinds = batch.strings, batch.kinds
    ego = strings[batch.ego[i]]
    node_types: dict[str, str] = {ego: "E"}
    edges: list[tuple[str, str, str]] = []
    rejected: list[tuple[str, str]] = []
    lo, hi = batch.offsets[i], batch.offsets[i + 1]
    for src, dst, src_kind, dst_kind, category in zip(*(column[lo:hi].tolist() for column in (
            batch.src, batch.dst, batch.src_kind, batch.dst_kind, batch.category))):
        src, dst = strings[src], strings[dst]
        if src != ego and dst != ego:
            rejected.append((src, dst))
            continue
        node_types.setdefault(src, kinds[src_kind])
        node_types.setdefault(dst, kinds[dst_kind])
        edges.append((src, dst, batch.categories[category]))
    return EgoTransferNetwork(ego=ego, node_types=node_types, edges=edges, rejected=rejected)


_DOT_SHAPES = {"E": "doublecircle", "A": "ellipse", "C": "box", "N": "diamond"}


def to_dot(etn: EgoTransferNetwork) -> str:
    """Render one ETN in DOT format (node shape by type, edge label = category)."""
    lines = ["digraph etn {"]
    for node in sorted(etn.node_types):
        ntype = etn.node_types[node]
        shape = _DOT_SHAPES.get(ntype, "ellipse")
        lines.append(f'  "{node}" [shape={shape}, label="{node}\\n({ntype})"];')
    for src, dst, category in etn.edges:
        lines.append(f'  "{src}" -> "{dst}" [label="{category}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
