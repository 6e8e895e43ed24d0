"""Signal dependency graph over an elaborated netlist.

Nodes are net names.  The edges are the ``assign`` and ``register`` edges
of the netlist's dependency map (``Netlist.edges``): (reader, read) when
*read* appears in the expression driving *reader*.  Named constants are
values, not signals, so they never become nodes or edges.  The map's
``reset`` edges, from a register to its reset net, are left out: kernel
slicing follows them, but a reset net is not a register's source.  The
map, built once per netlist, holds because no netlist is mutated after
``parse_design`` or ``trojan.inject`` returns it.

classify() reproduces the reader/source relationship used when linking
assertion signals: Direct for a one-edge dependency, Indirect for a longer
chain, Unrelated when no path exists.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import UnknownSignalError
from .netlist import Netlist


class Relation(enum.Enum):
    DIRECT = "direct"
    INDIRECT = "indirect"
    UNRELATED = "unrelated"


@dataclass(eq=True)
class Relationship:
    kind: Relation
    depth: int | None = None
    witness_path: tuple[str, ...] = ()


@dataclass
class DependencyGraph:
    nodes: tuple[str, ...]
    # reader -> sorted tuple of nets it reads
    reads: dict[str, tuple[str, ...]] = field(default_factory=dict)
    readers: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def has_node(self, name: str) -> bool:
        return name in self.reads

    def reads_of(self, name: str) -> tuple[str, ...]:
        return self.reads[name]


def build_graph(netlist: Netlist) -> DependencyGraph:
    """The graph of the netlist's assign and register edges."""
    reads: dict[str, tuple[str, ...]] = {n: () for n in netlist.nets}
    readers: dict[str, list[str]] = {n: [] for n in netlist.nets}
    for reader, es in netlist.edges.items():
        reads[reader] = tuple(read for read, label in es if label != "reset")
        for read in reads[reader]:
            readers[read].append(reader)
    return DependencyGraph(tuple(netlist.nets), reads,
                           {n: tuple(sorted(r)) for n, r in readers.items()})


def _require(graph: DependencyGraph, name: str) -> None:
    if not graph.has_node(name):
        raise UnknownSignalError(f"{name} is not a net in this design")


def _depths(edges: dict[str, tuple[str, ...]], start: str) -> dict[str, int]:
    """Shortest edge count from *start* to every node it reaches over
    *edges* (breadth first); *start* itself only through a cycle."""
    depths: dict[str, int] = {}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt: list[str] = []
        for node in frontier:
            for n in edges[node]:
                if n not in depths:
                    depths[n] = depth
                    nxt.append(n)
        frontier = sorted(nxt)
    return depths


def fanin(graph: DependencyGraph, signal: str) -> dict[str, int]:
    """Transitive sources of *signal* with their shortest edge distance.

    The signal itself is excluded unless it reaches itself through a cycle.
    """
    _require(graph, signal)
    return _depths(graph.reads, signal)


def classify(graph: DependencyGraph, reader: str, source: str) -> Relationship:
    """How *reader* depends on *source*: Direct (one edge), Indirect
    (shortest chain of length >= 2, with a deterministic witness path), or
    Unrelated."""
    _require(graph, reader)
    _require(graph, source)
    if source in graph.reads_of(reader):
        return Relationship(Relation.DIRECT, 1, (reader, source))
    if reader == source:
        # only a literal self-edge counts; longer cycles back to the same
        # net do not make a signal its own source
        return Relationship(Relation.UNRELATED)
    # shortest edge count from every node down to source, walking reader
    # edges backward from it
    dist = {**_depths(graph.readers, source), source: 0}
    if reader not in dist:
        return Relationship(Relation.UNRELATED)
    # walk from reader toward source, always taking the lexicographically
    # smallest neighbor that still lies on a shortest path
    path = [reader]
    node = reader
    while node != source:
        step = dist[node] - 1
        node = min(n for n in graph.reads_of(node) if dist.get(n) == step)
        path.append(node)
    return Relationship(Relation.INDIRECT, len(path) - 1, tuple(path))
