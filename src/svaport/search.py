"""Stimulus search shared by test-case generation and trojan activation.

The strategy is deliberately simple and fully deterministic: candidate
stimuli hold each primary input at a constant value (with an optional
warm-up prefix that differs, to let registered state build up before the
interesting vector applies).  Candidates over the free input bits are
enumerated exhaustively when the free space is small enough, otherwise
sampled from a seeded stream, one caller-given set of free inputs after
another.  Candidates are simulated in numpy batches,
a caller-supplied objective decides every batch with arrays, and a scalar
check confirms the winner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import expr as ex
from .graph import DependencyGraph, fanin
from .netlist import Netlist, NetKind
from .sim import SimKernel, Stimulus

_CHUNK = 8192
_WORD = 63  # random bits per drawn code word (the draw keeps the sign bit clear)
_EXHAUSTIVE_BITS = 20    # enumerate the free bits when they fit
_RANDOM_VECTORS = 10000  # otherwise draw this many candidates
_WARMUP = 4              # prefix length for two-phase candidates


@dataclass
class SearchStats:
    candidates: int = 0
    schedules_tried: list[str] = field(default_factory=list)


def input_cone(netlist: Netlist, graph: DependencyGraph,
               signals: set[str]) -> list[str]:
    """Primary inputs that can influence any of *signals* (clock excluded,
    an input signal is its own cone)."""
    inputs: set[str] = set()
    clocks = netlist.clock_nets()
    for s in sorted(signals):
        if s not in netlist.nets:
            continue
        if netlist.nets[s].kind is NetKind.INPUT:
            inputs.add(s)
        for name in fanin(graph, s):
            if netlist.nets[name].kind is NetKind.INPUT:
                inputs.add(name)
    return sorted(inputs - clocks)


def _vectors(netlist: Netlist, inputs: list[str],
             forced: dict[tuple[str, int], int],
             rng: np.random.Generator) -> Iterator[dict[str, np.ndarray]]:
    """Yield batches of constant input vectors (dict name -> (rows,) uint64)
    honoring the forced bits.  Exhaustive in integer order when the free
    space fits, else seeded random."""
    free = [(name, bit) for name in inputs
            for bit in range(netlist.nets[name].width)
            if (name, bit) not in forced]
    base = {name: np.uint64(0) for name in inputs}
    for (name, bit), val in forced.items():
        if name in base and val:
            base[name] |= np.uint64(1 << bit)

    def expand(words: list[np.ndarray]) -> dict[str, np.ndarray]:
        """Free bit i is bit i % _WORD of code word i // _WORD."""
        rows = words[0].shape[0]
        out = {name: np.full(rows, base[name], dtype=np.uint64) for name in inputs}
        for i, (name, bit) in enumerate(free):
            word, shift = divmod(i, _WORD)
            bits = (words[word] >> np.uint64(shift)) & np.uint64(1)
            out[name] |= bits << np.uint64(bit)
        return out

    n = len(free)
    if n <= _EXHAUSTIVE_BITS:
        total = 1 << n
        for start in range(0, total, _CHUNK):
            stop = min(start + _CHUNK, total)
            yield expand([np.arange(start, stop, dtype=np.uint64)])
    else:
        # one word per _WORD free bits, the last masked to the bits left
        sizes = [min(_WORD, n - lo) for lo in range(0, n, _WORD)]
        remaining = _RANDOM_VECTORS
        while remaining > 0:
            take = min(_CHUNK, remaining)
            remaining -= take
            yield expand([rng.integers(0, 1 << 63, size=take, dtype=np.uint64)
                          & np.uint64(ex.mask(size)) for size in sizes])


def _schedules(netlist: Netlist, forced: dict[tuple[str, int], int]):
    """Ways to turn a constant vector into a full stimulus.  'constant'
    applies it from cycle 0; the warm-up variants run a different prefix
    first so sequential state can settle before the vector (and with it any
    forced trigger bits) applies."""
    def constant(values: dict[str, np.ndarray], cycles: int):
        return {n: v for n, v in values.items()}

    def flipped_prefix(values: dict[str, np.ndarray], cycles: int):
        out = {}
        for n, v in values.items():
            arr = np.repeat(v[:, None], cycles, axis=1)
            pre = v.copy()
            for (name, bit), _ in forced.items():
                if name == n:
                    pre ^= np.uint64(1 << bit)
            arr[:, :_WARMUP] = pre[:, None]
            out[n] = arr
        return out

    def zero_prefix(values: dict[str, np.ndarray], cycles: int):
        out = {}
        for n, v in values.items():
            arr = np.repeat(v[:, None], cycles, axis=1)
            arr[:, :_WARMUP] = 0
            out[n] = arr
        return out

    schedules = [("constant", constant)]
    if netlist.registers:
        if forced:
            schedules.append(("flipped_prefix", flipped_prefix))
        schedules.append(("zero_prefix", zero_prefix))
    return schedules


def search_stimulus(
    netlist: Netlist,
    input_sets: list[list[str]],
    forced: dict[tuple[str, int], int],
    objective: Callable[[dict[str, np.ndarray], dict[str, np.ndarray]],
                        np.ndarray],
    accept: Callable[[Stimulus], bool],
    rng: np.random.Generator,
    horizon: int,
    kernel: SimKernel | None = None,
) -> tuple[Stimulus | None, SearchStats]:
    """Find a *horizon*-cycle stimulus that meets the caller's objective.

    *input_sets* are searched in order until one yields a stimulus, each
    with its inputs free and the rest at zero; a set already searched,
    resets aside, is skipped.  The batch mask is the objective.  *objective*
    receives the batch-simulated net arrays (rows x cycles) and the raw
    input arrays that produced them (so it can co-simulate another kernel
    on the same candidates), decides the full objective with arrays over
    every row of the batch, and returns every row that meets it in
    ascending order.  *accept* only confirms: the first returned row is
    materialized and re-checked with a scalar run (single-run semantics,
    monitors, ...); should it disagree, the next row is tried.  With an
    exhaustive enumeration, every candidate that meets the objective is
    therefore reached.
    Deterministic: candidate order is fixed by the set order, the
    enumeration and the seeded stream.
    """
    kernel = kernel or SimKernel(netlist)
    stats = SearchStats()
    resets = netlist.idle_resets()
    searched: list[list[str]] = []
    for input_set in input_sets:
        # reset is pinned inactive below, never enumerated
        relevant = [n for n in input_set if n not in resets]
        if relevant in searched:
            continue
        searched.append(relevant)
        for sched_name, schedule in _schedules(netlist, forced):
            stats.schedules_tried.append(sched_name)
            for values in _vectors(netlist, relevant, forced, rng):
                rows = next(iter(values.values())).shape[0] if values else 1
                stats.candidates += rows
                inputs = schedule(values, horizon)
                # searches never toggle reset: pin it at the inactive level
                for name, lvl in resets.items():
                    inputs[name] = np.full(rows, lvl, dtype=np.uint64)
                arrays = kernel.run_batch(inputs, horizon)
                for row in objective(arrays, inputs):
                    stim = _materialize(netlist, inputs, int(row), horizon)
                    if accept(stim):
                        return stim, stats
    return None, stats


def take_rows(arrays: dict[str, np.ndarray],
              rows: np.ndarray) -> dict[str, np.ndarray]:
    """The given rows of every array, (rows,) and (rows, cycles) alike.

    *rows* ascend without repeats, so as many rows as the arrays have are
    all of them: the arrays are then returned as they are, not copied.
    """
    if all(arr.shape[0] == rows.size for arr in arrays.values()):
        return arrays
    return {name: arr[rows] for name, arr in arrays.items()}


def _materialize(netlist: Netlist, inputs: dict[str, np.ndarray], row: int,
                 cycles: int) -> Stimulus:
    maps = []
    for t in range(cycles):
        m: dict[str, int] = {}
        for name, arr in inputs.items():
            m[name] = int(arr[row] if arr.ndim == 1 else arr[row, t])
        maps.append(m)
    return Stimulus.for_design(netlist, maps)
