"""Simple undirected graphs on dense 0-based vertex indices.

Graphs are value-semantic: every construction returns a new Graph and the
adjacency structure is never mutated after construction.  All rational
quantities (average degree in particular) are exact `fractions.Fraction`
values; no floats appear anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """A construction or query violated the simple-graph contract."""


class CertificateError(Exception):
    """A result failed its own certificate check: an implementation bug,
    not bad input, so it is deliberately not a ValueError."""


class Graph:
    """Immutable simple undirected graph.

    Vertices are the integers ``0..n-1``.  Adjacency is stored per vertex;
    `neighbors` iterates in increasing index order so that tie-breaking in
    the algorithms built on top is reproducible.
    """

    __slots__ = ("n", "_adj", "_nbr_sorted")

    def __init__(self, n: int, adjacency: Sequence[frozenset[int]]):
        self.n = n
        self._adj = tuple(adjacency)
        self._nbr_sorted = tuple(tuple(sorted(s)) for s in self._adj)

    # -- queries ---------------------------------------------------------

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in increasing index order."""
        return self._nbr_sorted[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(s) for s in self._adj]

    def max_degree(self) -> int:
        return max((len(s) for s in self._adj), default=0)

    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def avg_degree(self) -> Fraction:
        """Average degree 2e/n as an exact rational; undefined for n=0."""
        if self.n == 0:
            raise GraphError("average degree is undefined on the empty graph")
        return Fraction(sum(len(s) for s in self._adj), self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self._nbr_sorted[u]:
                if u < v:
                    yield (u, v)

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self.edge_count()})"


@dataclass(frozen=True)
class WitnessSet:
    """A vertex set together with the k it certifies."""

    vertices: tuple[int, ...]
    k: int

    @property
    def size(self) -> int:
        return len(self.vertices)


def build(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from a vertex count and an edge list.

    Duplicate edges collapse; self-loops and out-of-range indices raise
    GraphError.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, [frozenset(s) for s in adj])


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by `keep`, re-indexed densely.

    Returns the new graph together with the mapping from new index to old
    index (a sorted tuple).
    """
    kept = sorted(set(keep))
    for v in kept:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} not in graph of order {g.n}")
    pos = {old: new for new, old in enumerate(kept)}
    adj = [frozenset(pos[u] for u in g.neighbor_set(old) if u in pos) for old in kept]
    return Graph(len(kept), adj), tuple(kept)


def remove_vertex(g: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Graph without vertex v and its incident edges, plus the index map."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} not in graph of order {g.n}")
    return induced_subgraph(g, (u for u in range(g.n) if u != v))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """One copy of g followed by one copy of h (h's indices shifted by n(g))."""
    off = g.n
    adj = list(g._adj) + [frozenset(u + off for u in s) for s in h._adj]
    return Graph(g.n + h.n, adj)


def copies(q: int, g: Graph) -> Graph:
    """Disjoint union of q copies of g."""
    if q < 1:
        raise GraphError(f"number of copies must be positive, got {q}")
    adj: list[frozenset[int]] = []
    for i in range(q):
        off = i * g.n
        adj.extend(frozenset(u + off for u in s) for s in g._adj)
    return Graph(q * g.n, adj)


def complement(g: Graph) -> Graph:
    full = frozenset(range(g.n))
    adj = [full - g.neighbor_set(v) - {v} for v in range(g.n)]
    return Graph(g.n, adj)


def remove_edges_of(g: Graph, edges: Iterable[tuple[int, int]]) -> Graph:
    """Remove the given edges; every edge must be present in g."""
    adj = [set(s) for s in g._adj]
    for u, v in edges:
        if not (0 <= u < g.n and 0 <= v < g.n) or v not in adj[u]:
            raise GraphError(f"edge ({u}, {v}) not present")
        adj[u].discard(v)
        adj[v].discard(u)
    return Graph(g.n, [frozenset(s) for s in adj])


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or math.inf for forests.

    BFS from every vertex; a non-tree edge seen at depths d(u), d(w) closes
    a walk of length d(u)+d(w)+1 which contains a cycle no longer than that,
    and for a shortest cycle the BFS rooted on it reports its exact length.
    """
    best: int | float = math.inf
    for s in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[s] = 0
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if 2 * dist[u] >= best:
                continue
            for w in g.neighbors(u):
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
    return best


def verify_k_independent(g: Graph, s: Iterable[int], k: int) -> bool:
    """True iff the set induces maximum degree at most k.

    Runs in O(sum of degrees over the set).
    """
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    sset = set(s)
    for v in sset:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} not in graph of order {g.n}")
    for v in sset:
        inside = 0
        for u in g.neighbor_set(v):
            if u in sset:
                inside += 1
                if inside > k:
                    return False
    return True
