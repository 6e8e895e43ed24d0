"""Dependency graph: edges, classification, fan-in, and oracle agreement."""

import pytest
from hypothesis import given

from svaport import corpus
from svaport.errors import UnknownSignalError
from svaport.graph import Relation, build_graph, classify, fanin, to_dot
from svaport.rtl_parser import parse_design

from . import gen, oracles


@pytest.fixture(scope="module")
def irq_logic():
    return parse_design(corpus.golden_path("irq_ctrl.sv").read_text())


def test_edges_from_drivers(irq_logic):
    g = build_graph(irq_logic)
    assert "irq_enabled" in g.reads_of("handle_irq")
    assert "csr_mstatus_mie_i" in g.reads_of("irq_enabled")
    assert "priv_mode_i" in g.reads_of("irq_enabled")
    # named constants are values, not nodes
    assert not g.has_node("PRIV_LVL_U")
    assert "PRIV_LVL_U" not in g.reads_of("irq_enabled")


def test_classify_direct_and_indirect(irq_logic):
    g = build_graph(irq_logic)
    direct = classify(g, "handle_irq", "irq_enabled")
    assert (direct.kind, direct.depth) == (Relation.DIRECT, 1)
    assert direct.witness_path == ("handle_irq", "irq_enabled")
    indirect = classify(g, "handle_irq", "csr_mstatus_mie_i")
    assert (indirect.kind, indirect.depth) == (Relation.INDIRECT, 2)
    assert indirect.witness_path == ("handle_irq", "irq_enabled", "csr_mstatus_mie_i")
    assert classify(g, "irq_enabled", "debug_mode_q").kind is Relation.UNRELATED


def test_fanin_matches_reachability_oracle(irq_logic):
    g = build_graph(irq_logic)
    assert fanin(g, "handle_irq") == oracles.reachable_from(irq_logic, "handle_irq")


def test_fanin_of_inputs_is_empty(irq_logic):
    g = build_graph(irq_logic)
    assert fanin(g, "csr_mstatus_mie_i") == {}


def test_unknown_signal_raises(irq_logic):
    g = build_graph(irq_logic)
    with pytest.raises(UnknownSignalError):
        fanin(g, "no_such_net")
    with pytest.raises(UnknownSignalError):
        classify(g, "handle_irq", "no_such_net")


def test_corpus_agrees_with_oracle(corpus_designs):
    for name, nl in corpus_designs.items():
        g = build_graph(nl)
        dist = oracles.shortest_distances(nl)
        for reader in nl.nets:
            assert fanin(g, reader) == {
                b: d for (a, b), d in dist.items() if a == reader}, name
            for source in nl.nets:
                rel = classify(g, reader, source)
                expect = dist.get((reader, source))
                if source in g.reads_of(reader):
                    assert (rel.kind, rel.depth) == (Relation.DIRECT, 1)
                elif expect is None or reader == source:
                    assert rel.kind is Relation.UNRELATED
                else:
                    assert (rel.kind, rel.depth) == (Relation.INDIRECT, expect)


def test_witness_paths_walk_real_edges(corpus_designs):
    for nl in corpus_designs.values():
        g = build_graph(nl)
        for reader in nl.nets:
            for source in nl.nets:
                rel = classify(g, reader, source)
                if rel.kind is Relation.UNRELATED:
                    assert rel.witness_path == ()
                    continue
                path = rel.witness_path
                assert path[0] == reader and path[-1] == source
                assert len(path) - 1 == rel.depth
                for a, b in zip(path, path[1:]):
                    assert b in g.reads_of(a)


def test_exactly_one_relation_per_pair(corpus_designs):
    nl = corpus_designs["irq_unit"]
    g = build_graph(nl)
    counts = {Relation.DIRECT: 0, Relation.INDIRECT: 0, Relation.UNRELATED: 0}
    for reader in nl.nets:
        for source in nl.nets:
            counts[classify(g, reader, source).kind] += 1
    assert sum(counts.values()) == len(nl.nets) ** 2
    assert all(v > 0 for v in counts.values())


def test_to_dot_lists_nodes_and_edge_styles(irq_logic):
    dot = to_dot(build_graph(irq_logic))
    assert '"handle_irq" -> "irq_enabled" [style=solid];' in dot
    assert dot.startswith("digraph")
    nl = parse_design(corpus.design_path("debug_unit").read_text())
    dot = to_dot(build_graph(nl))
    assert "[style=dashed]" in dot  # register feedback edge
