"""Simple undirected graphs on dense 0-based vertex indices.

Graphs are value-semantic: every construction returns a new Graph and the
adjacency structure is never mutated after construction.  All rational
quantities (average degree in particular) are exact `fractions.Fraction`
values; no floats appear anywhere.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction


class GraphError(ValueError):
    """A construction or query violated the simple-graph contract."""


class CertificateError(Exception):
    """A result failed its own certificate check: an implementation bug,
    not bad input, so it is deliberately not a ValueError."""


class Graph:
    """Immutable simple undirected graph.

    Vertices are ``0..n-1``, n the adjacency's length.  Adjacency is stored
    once, as one sorted tuple of neighbors per vertex, so `neighbors`
    iterates in increasing index order and tie-breaking in the algorithms
    built on top is reproducible.  `neighbor_set` builds a fresh frozenset
    on every call.  The max-degree deletion order is computed on first use
    and kept with the graph (see `_peel`).  The constructor trusts its
    input, so `Graph([[5]])` builds; `build` is the checked constructor.
    """

    __slots__ = ("n", "_adj", "_order")

    def __init__(self, adjacency: Iterable[Iterable[int]]):
        self._adj = tuple(tuple(sorted(s)) for s in adjacency)
        self.n = len(self._adj)
        self._order: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    # -- queries ---------------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in increasing index order."""
        return self._adj[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        return frozenset(self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return list(map(len, self._adj))

    def max_degree(self) -> int:
        return max(map(len, self._adj), default=0)

    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    def avg_degree(self) -> Fraction:
        """Average degree 2e/n as an exact rational; undefined for n=0."""
        from fractions import Fraction  # not at the top: verify and exact make no Fraction

        if self.n == 0:
            raise GraphError("average degree is undefined on the empty graph")
        return Fraction(sum(map(len, self._adj)), self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self._adj[u]:
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


class WitnessSet(NamedTuple):
    """A vertex set together with the k it certifies."""

    vertices: tuple[int, ...]
    k: int

    @property
    def size(self) -> int:
        return len(self.vertices)


def build(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from a vertex count and an edge list.

    Adjacency is one list per vertex, each edge checked once as it is added.
    Duplicate edges collapse.  A self-loop, an endpoint out of range or not
    an integer, or a vertex count not a nonnegative integer raises GraphError.
    """
    n = _check_k(n, "vertex count")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        try:
            # A list index would wrap a negative endpoint; one past n - 1 raises itself.
            if u == v or u < 0 or v < 0:
                raise IndexError
            adj[u].append(v)
            adj[v].append(u)
        except (IndexError, TypeError):  # a TypeError: some endpoint is no integer
            u, v = _check_int(u, "endpoint"), _check_int(v, "endpoint")
            raise GraphError(f"self-loop at vertex {u}" if u == v
                             else f"edge ({u}, {v}) out of range for n={n}") from None
    g = Graph(adj)
    # Each neighbour tuple is sorted, so a repeated edge shows as equal neighbours.
    if any(any(map(operator.eq, s, s[1:])) for s in g._adj):
        g = Graph(map(set, g._adj))
    return g


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, left to right, each one's indices shifted
    by the orders of those before it."""
    adj: list[list[int]] = []
    for g in graphs:
        off = len(adj)
        adj.extend([u + off for u in s] for s in g._adj)
    return Graph(adj)


def copies(q: int, g: Graph) -> Graph:
    """Disjoint union of q copies of g."""
    if _check_int(q, "q") < 1:
        raise GraphError(f"number of copies must be positive, got {q}")
    return disjoint_union(*[g] * q)


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or math.inf for forests.

    The BFS from root s searches only G[>= s], the subgraph on vertices
    s..n-1.  A non-tree edge (u, w) seen at depths d(u), d(w) closes the
    walk s..u, w..s of length d(u)+d(w)+1; that walk uses the edge once, so
    it contains a cycle and no reported value is below the girth.  A
    shortest cycle C of G whose smallest vertex is s lies entirely in
    G[>= s] and is a shortest cycle there, so the BFS from s reports exactly
    |C|.  Hence the minimum over all roots is the girth.

    The sweep stops once 3 is found, since no simple graph has a shorter
    cycle.  A root's BFS ends at the first u with 2 d(u) >= best: the queue
    is in depth order, and every later edge closes a walk of length at
    least 2 d(u).  `dist` and `parent` are allocated once, and only the
    `dist` entries a root's queue touched are reset, so a root costs
    O(visited) rather than O(n).  The worst case (no cycle shorter than
    about n/2, such as a long cycle) is still O(n (n + m)).
    """
    n = g.n
    dist = [-1] * n
    parent = [-1] * n
    best: int | float = math.inf
    for s in range(n):
        if best == 3:
            break
        dist[s] = 0
        queue = [s]
        for u in queue:  # the loop also visits vertices appended below
            du = dist[u]
            if 2 * du >= best:
                break
            pu = parent[u]
            for w in g.neighbors(u):
                if w < s:
                    continue
                if dist[w] < 0:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif w != pu:
                    cand = du + dist[w] + 1
                    if cand < best:
                        best = cand
        # parent needs no reset: every u after s got its parent from this
        # root, and while s is scanned all its neighbors are new, so the
        # `elif` never reads a stale parent[s].
        for v in queue:
            dist[v] = -1
    return best


def _check_int(x: int, name: str) -> int:
    """x as an int; GraphError unless it is an integer or int-like
    (anything `operator.index` accepts)."""
    try:
        return operator.index(x)
    except TypeError:
        raise GraphError(f"{name} must be an integer, got {x!r}") from None


def _check_k(k: int, name: str = "k") -> int:
    """k as an int; GraphError unless `_check_int` accepts it and it is
    nonnegative."""
    k = _check_int(k, name)
    if k < 0:
        raise GraphError(f"{name} must be nonnegative, got {k}")
    return k


def verify_k_independent(g: Graph, s: Iterable[int], k: int) -> bool:
    """True iff the set induces maximum degree at most k.

    The check is on the set of the given vertices: one listed twice counts
    once, so `verify_k_independent(g, [0, 0], 0)` is True.  A vertex not in
    0..n-1, or not an integer and reached by the scan, raises GraphError.
    Runs in O(sum of degrees over the set).
    """
    _check_k(k)
    sset = set(s)
    try:
        for v in sset:
            if not 0 <= v < g.n:
                raise GraphError(f"vertex {v} not in graph of order {g.n}")
        for v in sset:
            inside = 0
            for u in g.neighbors(v):
                if u in sset:
                    inside += 1
                    if inside > k:
                        return False
    except TypeError:  # some vertex is no integer: name it
        for v in sset:
            _check_int(v, "vertex")
        raise
    return True


def _peel(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The max-degree deletion order of G, smallest index on ties, as
    (order, degs): the vertices in the order they are deleted down to the
    empty graph, and each one's live degree when it was deleted.

    The first call walks the buckets below and keeps the two tuples on G;
    later calls return the same tuples.  They are immutable and the same
    for every k, since the walk runs to the empty graph and each algorithm
    stops at its own point, and they take no part in equality or hashing.
    They cost two tuples of n entries for as long as G lives.

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
    if g._order is not None:
        return g._order
    deg = g.degrees()
    order: list[int] = []
    degs: list[int] = []
    bucket = [[] for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        bucket[d].append(v)
    while bucket:
        d = len(bucket) - 1
        for v in sorted([u for u in bucket.pop() if deg[u] == d]):
            if deg[v] != d:
                continue
            order.append(v)
            degs.append(d)
            deg[v] = -1
            if d:  # else every neighbour of v is already deleted
                for u in g._adj[v]:
                    if deg[u] >= 0:
                        deg[u] -= 1
                        bucket[deg[u]].append(u)
    g._order = (tuple(order), tuple(degs))
    return g._order
