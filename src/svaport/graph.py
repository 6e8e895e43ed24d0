"""Signal dependency graph over an elaborated netlist.

Nodes are net names.  An edge (reader, read) exists when *read* appears in
the expression driving *reader* — the right-hand side of its assign, or the
next-value expression of its register.  Named constants are values, not
signals, so they never become nodes or edges.

classify() reproduces the reader/source relationship used when linking
assertion signals: Direct for a one-edge dependency, Indirect for a longer
chain, Unrelated when no path exists.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import expr as ex
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
    # reader -> sorted tuple of nets it reads; labels maps the edge to its source
    reads: dict[str, tuple[str, ...]] = field(default_factory=dict)
    labels: dict[tuple[str, str], str] = field(default_factory=dict)
    readers: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def has_node(self, name: str) -> bool:
        return name in self.reads

    def reads_of(self, name: str) -> tuple[str, ...]:
        return self.reads[name]

    def readers_of(self, name: str) -> tuple[str, ...]:
        return self.readers[name]


def build_graph(netlist: Netlist) -> DependencyGraph:
    nodes = tuple(netlist.nets)
    reads: dict[str, set[str]] = {n: set() for n in nodes}
    labels: dict[tuple[str, str], str] = {}
    for a in netlist.assigns:
        for name in ex.idents_of(a.rhs):
            if name in netlist.nets:
                reads[a.lhs].add(name)
                labels[(a.lhs, name)] = "assign"
    for r in netlist.registers:
        for name in ex.idents_of(r.next):
            if name in netlist.nets:
                reads[r.target].add(name)
                labels[(r.target, name)] = "register"
    readers: dict[str, set[str]] = {n: set() for n in nodes}
    for reader, read_set in reads.items():
        for read in read_set:
            readers[read].add(reader)
    return DependencyGraph(
        nodes,
        {n: tuple(sorted(s)) for n, s in reads.items()},
        labels,
        {n: tuple(sorted(s)) for n, s in readers.items()},
    )


def _require(graph: DependencyGraph, name: str) -> None:
    if not graph.has_node(name):
        raise UnknownSignalError(f"{name} is not a net in this design")


def _distance_to(graph: DependencyGraph, target: str) -> dict[str, int]:
    """Shortest edge count from every node down to *target*, following read
    edges forward (computed by walking reader edges backward from target)."""
    dist = {target: 0}
    frontier = [target]
    while frontier:
        nxt: list[str] = []
        for node in frontier:
            for reader in graph.readers_of(node):
                if reader not in dist:
                    dist[reader] = dist[node] + 1
                    nxt.append(reader)
        frontier = sorted(set(nxt))
    return dist


def fanin(graph: DependencyGraph, signal: str) -> dict[str, int]:
    """Transitive sources of *signal* with their shortest edge distance.

    The signal itself is excluded unless it reaches itself through a cycle.
    """
    _require(graph, signal)
    depths: dict[str, int] = {}
    frontier = [signal]
    depth = 0
    while frontier:
        depth += 1
        nxt: list[str] = []
        for node in frontier:
            for read in graph.reads_of(node):
                if read not in depths:
                    depths[read] = depth
                    nxt.append(read)
        frontier = sorted(set(nxt))
    return depths


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
    dist = _distance_to(graph, source)
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


def to_dot(graph: DependencyGraph, name: str = "deps") -> str:
    """GraphViz text dump; assign edges solid, register edges dashed."""
    lines = [f"digraph {name} {{"]
    for node in sorted(graph.nodes):
        lines.append(f'  "{node}";')
    for reader in sorted(graph.reads):
        for read in graph.reads_of(reader):
            style = "dashed" if graph.labels[(reader, read)] == "register" else "solid"
            lines.append(f'  "{reader}" -> "{read}" [style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
