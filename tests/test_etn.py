"""Ego transfer network construction and DOT export."""

from motifscope import etn as etn_mod

from oracles import counterparts, simple_view


def make_tx(transfers, ego="0xe", tx_hash="tx1"):
    """A stored transaction: (tx_hash, ego, method group, rows)."""
    return (tx_hash, ego, None, transfers)


def make_transfer(src, dst, category="Stablecoin", src_type="A", dst_type="A", ego="0xe"):
    """A store row: (from, to, from_type, to_type, contract, symbol, category, amount, block)."""
    return [src, dst, "E" if src == ego else src_type, "E" if dst == ego else dst_type,
            "0xtok", "USDC", category, 1.0, 1]


def test_build_etn_types_edges_and_simple_view():
    tx = make_tx(
        [
            make_transfer("0xa", "0xe", "Cryptocurrency", src_type="A"),
            make_transfer("0xe", "0xc", "Stablecoin", dst_type="C"),
            make_transfer("0xe", "0xc", "Synthetic", dst_type="C"),  # parallel edge
            make_transfer("0xc", "0xe", "Stablecoin", src_type="C"),  # reciprocal
        ]
    )
    network = etn_mod.build_etn(tx)
    assert network.ego == "0xe"
    assert network.node_types == {"0xe": "E", "0xa": "A", "0xc": "C"}
    assert len(network.edges) == 4
    assert simple_view(network) == {("0xa", "0xe"), ("0xe", "0xc"), ("0xc", "0xe")}
    assert sorted(counterparts(network)) == ["0xa", "0xc"]
    assert network.rejected == []


def test_non_ego_transfers_rejected_not_raised():
    tx = make_tx(
        [
            make_transfer("0xa", "0xe"),
            make_transfer("0xa", "0xb"),  # touches neither side of the ego
        ]
    )
    network = etn_mod.build_etn(tx)
    assert network.rejected == [("0xa", "0xb")]
    assert len(network.edges) == 1
    assert "0xb" not in network.node_types


def test_first_seen_type_wins():
    # the same counterpart in two transfers keeps its first resolved type
    tx = make_tx(
        [
            make_transfer("0xa", "0xe", src_type="C"),
            make_transfer("0xe", "0xa", dst_type="A"),
        ]
    )
    network = etn_mod.build_etn(tx)
    assert network.node_types["0xa"] == "C"


def test_to_dot_shapes_and_labels():
    tx = make_tx(
        [
            make_transfer("0xa", "0xe", "Cryptocurrency", src_type="A"),
            make_transfer("0xe", "0xc", "Stablecoin", dst_type="C"),
            make_transfer("0xn", "0xe", "Synthetic", src_type="N"),
        ]
    )
    dot = etn_mod.to_dot(etn_mod.build_etn(tx))
    assert dot.startswith("digraph etn {")
    assert dot.rstrip().endswith("}")
    assert 'shape=doublecircle' in dot  # ego
    assert 'shape=ellipse' in dot  # address
    assert 'shape=box' in dot  # contract
    assert 'shape=diamond' in dot  # null
    assert 'label="Stablecoin"' in dot
    assert '"0xe" -> "0xc"' in dot
