"""Dependency graph: edges, classification, fan-in, and oracle agreement."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svaport import corpus
from svaport import expr as ex
from svaport.errors import CombinationalLoopError, UnknownSignalError
from svaport.graph import Relation, build_graph, classify, fanin
from svaport.netlist import (Assign, Net, NetKind, Netlist,
                             combinational_closure)
from svaport.rtl_parser import parse_design
from svaport.search import input_cone
from svaport.sim import fanin_cone

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


@st.composite
def _relabelled_designs(draw):
    """``tests/gen`` designs with the assign-driven nets renamed by a drawn
    permutation, so a net may read one with a larger name, and up to three
    assigns made to also read an assign-driven net, which may close
    combinational loops."""
    nl = draw(gen.designs(max_assigns=6))
    assigns = [a.lhs for a in nl.assigns]
    table = dict(zip(assigns, draw(st.permutations(assigns))))
    nets = {table.get(n, n): Net(table.get(n, n), net.width, net.kind)
            for n, net in nl.nets.items()}
    rhs = [ex.rename(a.rhs, table) for a in nl.assigns]
    for i, read in draw(st.lists(st.tuples(
            st.integers(0, len(rhs) - 1), st.sampled_from(assigns)),
            max_size=3)):
        rhs[i] = ex.Binary("|", rhs[i], ex.Ident(table[read]))
    return Netlist(
        nl.name, tuple(table.get(p, p) for p in nl.ports), nets, nl.params,
        [Assign(table[a.lhs], r) for a, r in zip(nl.assigns, rhs)],
        [replace(r, next=ex.rename(r.next, table)) for r in nl.registers])


@settings(max_examples=150)
@given(_relabelled_designs(), st.data())
def test_every_walk_derived_from_the_map_matches_the_oracles(nl, data):
    edges = {(reader, read, label) for reader, es in nl.edges.items()
             for read, label in es}
    assert {(r, n) for r, n, label in edges if label != "reset"} \
        == oracles.edge_list(nl)
    assert {(r, n) for r, n, label in edges if label == "reset"} \
        == {(r.target, r.reset.net) for r in nl.registers
            if r.reset is not None}
    drivers = {a.lhs: "assign" for a in nl.assigns}
    drivers.update({r.target: "register" for r in nl.registers})
    assert all(label in ("reset", drivers[r]) for r, _, label in edges)

    g = build_graph(nl)
    assert {(r, n) for r in g.nodes for n in g.reads_of(r)} \
        == oracles.edge_list(nl)
    assert {(r, n) for n in g.nodes for r in g.readers[n]} \
        == oracles.edge_list(nl)

    nets = sorted(nl.nets)
    keep = data.draw(st.sets(st.sampled_from(nets), min_size=1))
    assert fanin_cone(nl, keep) == oracles.fanin_cone(nl, keep)
    signals = keep | data.draw(st.sets(st.sampled_from(["MAGIC", "ghost"])))
    assert input_cone(nl, g, signals) == sorted(
        n for n in oracles.fanin_cone(nl, keep, resets=False)
        if nl.nets[n].kind is NetKind.INPUT and n not in nl.clock_nets())

    order, loop = oracles.assign_order(nl)
    if loop is None:
        assert [a.lhs for a in combinational_closure(nl)] == order
        assert [a.lhs for a in nl.assign_order] == order
    else:
        for ordering in (combinational_closure, lambda nl: nl.assign_order):
            with pytest.raises(CombinationalLoopError) as err:
                ordering(nl)
            assert err.value.cycle == loop
