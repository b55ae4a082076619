"""Constructive procedures that output certified k-independent sets.

Every entry point is deterministic: ties in vertex selection always
break toward the smallest index, move targets toward the smallest class
index, so identical inputs give identical outputs and traces.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from .bounds import potential_f, residue_t
from .graph import (CertificateError, Graph, GraphError, WitnessSet, _check_k, _peel,
                    verify_k_independent)


class RunTrace:
    """Step log plus exact potential snapshots for one algorithm run, kept as
    integer `numerators` over one `scale`: `potential_values` makes them
    Fractions only when read.

    DEL steps name vertices of the input graph.  A MOVE names the moved
    vertex by its rank among the vertices partitioned, found by bisection in
    their sorted list: in Algorithms 1 and 2 those are the survivors of the
    deletions, elsewhere all of G, where rank and vertex agree.  A MOVE
    stores no potential of its own: MOVE number i (from 0) is followed by
    `potential_values[i + 1]`.  That holds for every trace, because greedy
    traces have no MOVEs and Algorithms 1 and 2 take their potentials only
    from the partition, which records its start value and then one value
    per move.
    """

    def __init__(self) -> None:
        self.steps: list[tuple] = []
        self.scale = 1
        self.numerators: list[int] = []

    @property
    def potential_values(self) -> list[Fraction]:
        return [Fraction(x, self.scale) for x in self.numerators]

    def to_log(self) -> str:
        lines = []
        phis = iter(self.numerators[1:])
        for step in self.steps:
            tag = step[0]
            if tag == "DEL":
                lines.append(f"DEL {step[1]} deg={step[2]}")
            elif tag == "MOVE":
                phi = next(phis)
                r = math.gcd(phi, self.scale)
                lines.append(f"MOVE {step[1]} {step[2]}->{step[3]} phi={phi // r}/{self.scale // r}")
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


def _partition(adj, members, caps: tuple[int, ...],
               trace: RunTrace) -> tuple[tuple[int, ...], ...]:
    """Lovász's local search on the subgraph of the sorted neighbour lists
    `adj` induced by `members`, a sorted sequence of vertices, given
    sum(k_i + 1) > every degree there: start from the round-robin
    assignment by rank, members[r] in class r mod t; while some vertex
    exceeds its class capacity, move the smallest such vertex (also the
    smallest rank) to the class minimizing deg_class(v)/(k_class + 1), the
    lowest on ties.  The potential sum of e(class)/(k_class+1) drops by at
    least 1/lcm(k_i+1) per move, so the loop ends.  cls[u] is -1 for u
    outside `members`, which a move's row counts in a spare last slot.
    own[v] counts v's neighbours in its own class; a vertex about to move
    counts them in every class.  `trace` holds no potentials yet: the
    search sets its scale, then logs the start potential and each MOVE,
    named by v's rank, with its own.  The classes are in `adj`'s vertices.
    """
    t = len(caps)
    cls = [-1] * len(adj)
    for r, v in enumerate(members):
        cls[v] = r % t
    trace.scale = math.lcm(*(c + 1 for c in caps))
    weight = [trace.scale // (c + 1) for c in caps]
    # A heap that may hold stale entries: every violating vertex has one, so
    # the first popped entry that still violates is the smallest violator.
    own, heap, phi = [0] * len(adj), [], 0
    for v in members:
        c, x = cls[v], 0
        for u in adj[v]:
            if cls[u] == c:
                x += 1
        own[v] = x
        phi += x * weight[c]
        if x > caps[c]:
            heap.append(v)
    phi //= 2
    trace.numerators.append(phi)
    while heap:
        v = heapq.heappop(heap)
        i = cls[v]
        if own[v] <= caps[i]:
            continue
        row = [0] * (t + 1)
        for u in adj[v]:
            row[cls[u]] += 1
        scaled = [r * w for r, w in zip(row, weight)]
        j = scaled.index(min(scaled))
        # Pigeonhole step: a strictly better class always exists.
        if scaled[j] >= scaled[i]:
            raise CertificateError(f"no strictly better class for vertex {v}")
        phi += scaled[j] - scaled[i]
        cls[v], own[v] = j, row[j]
        # Only neighbours in classes i and j change count; one in i violates
        # only if it did before, so it has an entry.  v now meets k_j: as
        # deg(v) < sum(k_c + 1), some class c has deg_c(v) / (k_c + 1) < 1,
        # and j minimizes that ratio.
        for u in adj[v]:
            c = cls[u]
            if c == i:
                own[u] -= 1
            elif c == j:
                own[u] += 1
                if own[u] > caps[j]:
                    heapq.heappush(heap, u)
        trace.steps.append(("MOVE", bisect_left(members, v), i, j))
        trace.numerators.append(phi)

    classes = [[] for _ in range(t)]
    for v in members:
        classes[cls[v]].append(v)
    return tuple(map(tuple, classes))


def _check_classes(g: Graph, classes, caps) -> None:
    for c, cap in zip(classes, caps):
        if not verify_k_independent(g, c, cap):
            raise CertificateError(f"a partition class exceeds its capacity {cap}")


def lovasz_partition(
    g: Graph, capacities: list[int] | tuple[int, ...]
) -> tuple[Partition, RunTrace]:
    """Partition V(G) into classes with induced max degree <= capacity by
    `_partition`; requires sum(k_i + 1) >= max_degree + 1."""
    caps = tuple(_check_k(c, "capacity") for c in capacities)
    if not caps:
        raise GraphError("capacities must be nonempty")
    if sum(c + 1 for c in caps) < g.max_degree() + 1:
        raise GraphError(
            f"capacity sum {sum(c + 1 for c in caps)} below max degree + 1 "
            f"= {g.max_degree() + 1}"
        )
    trace = RunTrace()
    classes = _partition(g._adj, range(g.n), caps, trace)
    _check_classes(g, classes, caps)
    return Partition(classes, caps), trace


def _partition_step(g: Graph, k: int, survivors, d: int, trace: RunTrace) -> WitnessSet:
    """Partition `survivors`, vertices of G inducing max degree d, into
    ceil((d+1)/(k+1)) classes of capacity k, ranked in index order; log it
    in the trace, check each class on G and return the largest."""
    caps = (k,) * -((d + 1) // -(k + 1))
    classes = _partition(g._adj, sorted(survivors), caps, trace)
    _check_classes(g, classes, caps)
    trace.steps.append(("PARTITION", len(caps)))
    return WitnessSet(max(classes, key=len), k)


def lovasz_largest_class(g: Graph, k: int) -> tuple[WitnessSet, RunTrace]:
    """Largest class of the partition of G into t = ceil((max_degree+1)/(k+1))
    classes of capacity k, which holds at least n / t vertices."""
    _check_k(k)
    trace = RunTrace()
    if g.n == 0:
        return WitnessSet((), k), trace
    return _partition_step(g, k, range(g.n), g.max_degree(), trace), trace


def caro_tuza_greedy(g: Graph, k: int) -> tuple[WitnessSet, RunTrace]:
    """Delete max-degree vertices until the rest induces max degree <= k.

    The returned set B satisfies |B| >= ceil(sum of f_k over the degree
    sequence); the trace records s(B) after every deletion and the run
    checks it never drops.  The live degrees behind s(B) are replayed along
    the shared deletion order, and a deleted vertex whose replayed degree
    is not the one the order records raises CertificateError.
    """
    _check_k(k)
    trace = RunTrace()
    if g.n == 0:
        return WitnessSet((), k), trace

    # Exact potentials over a common denominator: w[d] = f_k(d) * scale.  A
    # live neighbour of degree x adds drop[x] = w[x-1] - w[x] when it loses
    # a neighbour.
    values = [potential_f(k, d) for d in range(g.max_degree() + 1)]
    trace.scale = math.lcm(*(v.denominator for v in values))
    w = [int(v * trace.scale) for v in values]
    drop = [0] + [a - b for a, b in zip(w, w[1:])]
    deg = g.degrees()
    s = sum(map(w.__getitem__, deg))
    trace.numerators.append(s)

    for v, d in zip(*_peel(g)):
        if d <= k:
            break
        if deg[v] != d:
            raise CertificateError(f"vertex {v} has live degree {deg[v]}, the order says {d}")
        deg[v] = -1
        s_new = s - w[d]
        for u in g.neighbors(v):
            x = deg[u]
            if x >= 0:
                s_new += drop[x]
                deg[u] = x - 1
        if s_new < s:
            raise CertificateError("deletion potential decreased")
        s = s_new
        trace.steps.append(("DEL", v, d))
        trace.numerators.append(s)
    return WitnessSet(tuple(u for u, du in enumerate(deg) if du >= 0), k), trace


def algorithm1(g: Graph, k: int) -> tuple[WitnessSet, RunTrace]:
    """Delete max-degree vertices until max degree <= ceil(avg degree) + k,
    then partition and keep the largest class.

    The output size strictly exceeds (k+1) n / (d(G) + 2k + 2).
    """
    _check_k(k)
    trace = RunTrace()
    order, degs = _peel(g)
    n_alive, sum_deg = g.n, 2 * g.edge_count()
    for i, (v, d) in enumerate(zip(order, degs)):
        if d <= -(-sum_deg // n_alive) + k:
            return _partition_step(g, k, order[i:], d, trace), trace
        trace.steps.append(("DEL", v, d))
        n_alive -= 1
        sum_deg -= 2 * d
    return WitnessSet((), k), trace


def algorithm2(g: Graph, k: int) -> tuple[WitnessSet, RunTrace]:
    """Max-degree deletion trajectory, partitioned at its best state.

    One pass over the deletion order (repeatedly removing the max-degree
    vertex, smallest index on ties) predicts at each state the class size
    ceil(n'/t') that the equal-capacity partition guarantees, with t' =
    ceil((max_degree'+1)/(k+1)), and logs the state's RESTART, if any, then
    its DEL.  A RESTART is logged whenever ceil(avg degree) drops below the
    previous one's, so at most ceil(d(G))+1 appear.  The earliest state with
    the best prediction is partitioned, and the log is cut after its
    RESTART: as each step depends only on the states up to its own, that is
    the log of a second pass up to the best state, without its DEL.

    The pass stops at the first state with max_degree' <= k, where the
    greedy stops too.  There and at every later state max_degree' <= k (it
    never rises), so t' = 1 and the prediction is n', which falls by one
    per deletion: no later state predicts as much, and the earliest best
    state lies at or before the stop.

    The output size is at least ceil((k+1) n / (ceil(d(G))+k+1)).  It also
    never falls below the deletion greedy's certificate: the greedy's
    stopping state lies on the same trajectory and predicts exactly its
    own set size there.
    """
    _check_k(k)
    trace = RunTrace()
    if g.n == 0:
        return WitnessSet((), k), trace

    best = cut = best_i = 0
    round_d: int | None = None
    order, degs = _peel(g)
    n_alive, sum_deg = g.n, 2 * g.edge_count()
    for i, (v, deg) in enumerate(zip(order, degs)):
        d = -(-sum_deg // n_alive)
        if round_d is None or d < round_d:
            round_d = d
            t = residue_t(k, d)
            trace.steps.append(("RESTART", d, t, -(-n_alive // (d + 2 * t + 1))))
        predicted = -(-n_alive // -((deg + 1) // -(k + 1)))
        if predicted > best:
            best, cut, best_i = predicted, len(trace.steps), i
        if deg <= k:
            break
        trace.steps.append(("DEL", v, deg))
        n_alive -= 1
        sum_deg -= 2 * deg
    del trace.steps[cut:]
    return _partition_step(g, k, order[best_i:], degs[best_i], trace), trace
