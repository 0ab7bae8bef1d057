"""Ego transfer network: per-transaction directed, typed, multi-edge graph.

Built from a stored transaction, the (tx_hash, ego, method group, rows)
tuple that `storage.iter_store` yields, whose rows already carry resolved
account types and token categories. Every edge touches the ego account.
Parallel edges are kept: they feed the edge-list features, while motif
counting (motif.batch_shapes) sees only whether an edge runs each way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class EgoTransferNetwork:
    ego: str
    node_types: dict[str, str]  # node id -> E/A/C/N; exactly one E
    edges: list[tuple[str, str, str]]  # (source, target, token category), parallel allowed
    rejected: list[tuple[str, str]] = field(default_factory=list)  # (from, to) not touching ego


def build_etn(tx: tuple[str, str, Optional[str], list]) -> EgoTransferNetwork:
    """Build the ETN of one stored transaction.

    A counterpart keeps the type of the first row it appears in. Transfers
    touching neither endpoint of the ego are rejected and reported, not
    raised.
    """
    _, ego, _, rows = tx
    node_types: dict[str, str] = {ego: "E"}
    edges: list[tuple[str, str, str]] = []
    rejected: list[tuple[str, str]] = []
    for row in rows:
        src, dst, src_type, dst_type, _, _, category, _, _ = row
        if src != ego and dst != ego:
            rejected.append((src, dst))
            continue
        node_types.setdefault(src, src_type)
        node_types.setdefault(dst, dst_type)
        edges.append((src, dst, category))
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
