"""Constructive procedures that output certified k-independent sets.

Every entry point is deterministic: ties in vertex selection always
break toward the smallest index, move targets toward the smallest class
index, so identical inputs give identical outputs and traces.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import NamedTuple

from .bounds import frac_str, potential_f, residue_t
from .graph import (CertificateError, Graph, GraphError, WitnessSet, induced_subgraph,
                    verify_k_independent)


class RunTrace:
    """Step log plus exact potential snapshots for one algorithm run.

    DEL steps name vertices of the input graph, MOVE steps vertices of the
    partitioned graph: in Algorithms 1 and 2 that is the graph left after
    the deletions, so a MOVE names a survivor by its rank among them.  A
    MOVE step stores no potential of its own: MOVE number i (from 0) is
    followed by `potential_values[i + 1]`.  That holds for every trace,
    because greedy traces have no MOVEs and Algorithms 1 and 2 take their
    potentials only from the partition, which records its start value and
    then one value per move.
    """

    def __init__(self) -> None:
        self.steps: list[tuple] = []
        self.potential_values: list[Fraction] = []

    def to_log(self) -> str:
        lines = []
        phis = iter(self.potential_values[1:])
        for step in self.steps:
            tag = step[0]
            if tag == "DEL":
                lines.append(f"DEL {step[1]} deg={step[2]}")
            elif tag == "MOVE":
                lines.append(
                    f"MOVE {step[1]} {step[2]}->{step[3]} phi={frac_str(next(phis))}"
                )
            elif tag == "RESTART":
                lines.append(f"RESTART d={step[1]} t={step[2]} q={step[3]}")
            elif tag == "PARTITION":
                lines.append(f"PARTITION t={step[1]}")
            else:
                raise ValueError(f"unknown trace step {step!r}")
        return "\n".join(lines) + ("\n" if lines else "")


class Partition(NamedTuple):
    """Disjoint sorted vertex classes covering V(G), each with a degree capacity."""

    classes: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]

    def largest_class(self) -> tuple[int, ...]:
        """The lowest-index class among the largest."""
        return max(self.classes, key=len)


def _peel(g: Graph):
    """The max-degree deletion order of G, smallest index on ties.

    For the state just before each deletion, yields (v, deg, n_alive,
    sum_deg, live_deg): the vertex deleted next, its live degree, the live
    vertex count and degree sum, and the live degree list.  live_deg is
    updated in place; deleted vertices read -1 in it.

    Bucket d lists the vertices that reached live degree d, each at most
    once, since degrees only fall.  Levels are scanned from the maximum
    down, and each level's bucket is dropped once taken.  While level d is
    scanned, every live degree is at most d: a vertex above d sat in a
    higher bucket and was deleted or fell below that level while it was
    scanned.  As degrees only fall, no vertex enters degree d during the
    scan, so the live degree-d vertices are those of the level's sorted
    list that still read d, and the next of them in the scan is the live
    max-degree vertex with the smallest index.  A neighbour whose degree
    drops to d' joins bucket d'.  The buckets take at most n + m entries
    in all, so the order costs O(n + m) plus the sort of each level.
    """
    deg = g.degrees()
    n_alive, sum_deg = g.n, sum(deg)
    bucket = [[] for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        bucket[d].append(v)
    while bucket:
        d = len(bucket) - 1
        for v in sorted([u for u in bucket.pop() if deg[u] == d]):
            if deg[v] != d:
                continue
            yield v, d, n_alive, sum_deg, deg
            n_alive -= 1
            sum_deg -= 2 * d
            deg[v] = -1
            if d:  # else every neighbour of v is already deleted
                for u in g.neighbors(v):
                    if deg[u] >= 0:
                        deg[u] -= 1
                        bucket[deg[u]].append(u)


def lovasz_partition(
    g: Graph, capacities: list[int] | tuple[int, ...]
) -> tuple[Partition, RunTrace]:
    """Partition V(G) into classes with induced max degree <= capacity.

    Requires sum(k_i + 1) >= max_degree + 1.  Local search: start from the
    round-robin assignment by vertex index; while some vertex exceeds its
    class capacity, move the smallest such vertex to the class minimizing
    deg_class(v)/(k_class + 1).  The potential sum of e(class)/(k_class+1)
    drops by at least 1/lcm(k_i+1) per move, so the loop terminates.
    """
    caps = tuple(int(c) for c in capacities)
    if any(c < 0 for c in caps) or not caps:
        raise GraphError(f"capacities must be nonnegative and nonempty: {caps}")
    if sum(c + 1 for c in caps) < g.max_degree() + 1:
        raise GraphError(
            f"capacity sum {sum(c + 1 for c in caps)} below max degree + 1 "
            f"= {g.max_degree() + 1}"
        )
    t = len(caps)
    cls = [v % t for v in range(g.n)]
    deg_in = [[0] * t for _ in range(g.n)]
    for v in range(g.n):
        row = deg_in[v]
        for u in g.neighbors(v):
            row[cls[u]] += 1
    scale = math.lcm(*(c + 1 for c in caps))
    weight = [scale // (c + 1) for c in caps]
    phi = sum(deg_in[v][cls[v]] * weight[cls[v]] for v in range(g.n)) // 2

    trace = RunTrace()
    trace.potential_values.append(Fraction(phi, scale))
    # A heap that may hold stale entries: every violating vertex has one, so
    # the first popped entry that still violates is the smallest violator.
    heap = [v for v in range(g.n) if deg_in[v][cls[v]] > caps[cls[v]]]
    while heap:
        v = heapq.heappop(heap)
        i = cls[v]
        if deg_in[v][i] <= caps[i]:
            continue
        j = min(range(t), key=lambda c: deg_in[v][c] * weight[c])
        # Pigeonhole step: a strictly better class always exists.
        if deg_in[v][j] * weight[j] >= deg_in[v][i] * weight[i]:
            raise CertificateError(f"no strictly better class for vertex {v}")
        phi += deg_in[v][j] * weight[j] - deg_in[v][i] * weight[i]
        cls[v] = j
        for u in g.neighbors(v):
            deg_in[u][i] -= 1
            deg_in[u][j] += 1
            if deg_in[u][cls[u]] > caps[cls[u]]:
                heapq.heappush(heap, u)
        # v itself now meets capacity k_j, so it needs no entry: as
        # deg(v) < sum(k_c + 1), some class c has deg_c(v) / (k_c + 1) < 1,
        # and j minimizes that ratio.
        trace.steps.append(("MOVE", v, i, j))
        trace.potential_values.append(Fraction(phi, scale))

    classes = [[] for _ in range(t)]
    for v in range(g.n):
        classes[cls[v]].append(v)
    part = Partition(tuple(tuple(c) for c in classes), caps)
    for c, cap in zip(part.classes, part.capacities):
        if not verify_k_independent(g, c, cap):
            raise CertificateError(f"a partition class exceeds its capacity {cap}")
    return part, trace


def _partition_step(g: Graph, k: int, trace: RunTrace) -> WitnessSet:
    """Merge `lovasz_largest_class` of the graph left after the trace's DEL
    steps into the trace (MOVEs name survivors by rank); map its class to G."""
    gone = {step[1] for step in trace.steps if step[0] == "DEL"}
    sub, mapping = induced_subgraph(g, (v for v in range(g.n) if v not in gone))
    largest, sub_trace = lovasz_largest_class(sub, k)
    trace.steps.extend(sub_trace.steps)
    trace.potential_values.extend(sub_trace.potential_values)
    return WitnessSet(tuple(mapping[v] for v in largest.vertices), k)


def lovasz_largest_class(g: Graph, k: int) -> tuple[WitnessSet, RunTrace]:
    """Largest class of the partition of G into t = ceil((max_degree+1)/(k+1))
    classes of capacity k, which holds at least n / t vertices."""
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    if g.n == 0:
        return WitnessSet((), k), RunTrace()
    part, trace = lovasz_partition(g, [k] * -((g.max_degree() + 1) // -(k + 1)))
    trace.steps.append(("PARTITION", len(part.classes)))
    return WitnessSet(part.largest_class(), k), trace


def caro_tuza_greedy(g: Graph, k: int) -> tuple[WitnessSet, RunTrace]:
    """Delete max-degree vertices until the rest induces max degree <= k.

    The returned set B satisfies |B| >= ceil(sum of f_k over the degree
    sequence); the trace records s(B) after every deletion and the run
    checks it never drops.
    """
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    trace = RunTrace()
    if g.n == 0:
        return WitnessSet((), k), trace

    # Exact potentials over a common denominator: w[d] = f_k(d) * scale.
    values = [potential_f(k, d) for d in range(g.max_degree() + 1)]
    scale = math.lcm(*(v.denominator for v in values))
    w = [int(v * scale) for v in values]
    s = sum(w[d] for d in g.degrees())
    trace.potential_values.append(Fraction(s, scale))

    for v, d, _, _, deg in _peel(g):
        if d <= k:
            break
        s_new = s - w[d]
        for u in g.neighbors(v):
            if deg[u] >= 0:
                s_new += w[deg[u] - 1] - w[deg[u]]
        if s_new < s:
            raise CertificateError("deletion potential decreased")
        s = s_new
        trace.steps.append(("DEL", v, d))
        trace.potential_values.append(Fraction(s, scale))
    return WitnessSet(tuple(u for u, du in enumerate(deg) if du >= 0), k), trace


def algorithm1(g: Graph, k: int) -> tuple[WitnessSet, RunTrace]:
    """Delete max-degree vertices until max degree <= ceil(avg degree) + k,
    then partition and keep the largest class.

    The output size strictly exceeds (k+1) n / (d(G) + 2k + 2).
    """
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    trace = RunTrace()
    for v, d, n_alive, sum_deg, _ in _peel(g):
        if d <= -(-sum_deg // n_alive) + k:
            break
        trace.steps.append(("DEL", v, d))
    return _partition_step(g, k, trace), trace


def algorithm2(g: Graph, k: int) -> tuple[WitnessSet, RunTrace]:
    """Max-degree deletion trajectory, partitioned at its best state.

    One pass over the deletion order (repeatedly removing the max-degree
    vertex, smallest index on ties) records every intermediate graph and
    predicts there the class size ceil(n'/t') that the equal-capacity
    partition guarantees, with t' = ceil((max_degree'+1)/(k+1)).  The
    earliest state with the best prediction is partitioned; the deletions
    before it are logged.  Restart records are emitted whenever ceil(avg
    degree) drops below the value frozen at the previous record, so at most
    ceil(d(G))+1 rounds appear in the trace.

    The output size is at least ceil((k+1) n / (ceil(d(G))+k+1)).  It also
    never falls below the deletion greedy's certificate: the greedy's
    stopping state lies on the same trajectory and predicts exactly its
    own set size there.
    """
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    trace = RunTrace()
    if g.n == 0:
        return WitnessSet((), k), trace

    states = [(v, d, n_alive, sum_deg) for v, d, n_alive, sum_deg, _ in _peel(g)]
    predicted = [-(-n_alive // -((d + 1) // -(k + 1))) for _, d, n_alive, _ in states]
    best = predicted.index(max(predicted))
    round_d: int | None = None
    for i, (v, deg, n_alive, sum_deg) in enumerate(states[: best + 1]):
        d = -(-sum_deg // n_alive)
        if round_d is None or d < round_d:
            round_d = d
            t = residue_t(k, d)
            trace.steps.append(("RESTART", d, t, -(-n_alive // (d + 2 * t + 1))))
        if i < best:
            trace.steps.append(("DEL", v, deg))
    return _partition_step(g, k, trace), trace
