"""Shared corpora and helpers for the test suite.

`alpha_k_bruteforce` and `induced_subgraph` are test references, not part of
the package; the brute force builds its own neighbour masks, so it shares no
code with the search it checks.

The random corpora are fully seeded: instance i uses seed base+i, order
n cycles through 1..max_n and the target density cycles through 0, 0.1,
..., 1.0 of n^2/4 edges, so average degrees span 0 to about n/2.
"""

from __future__ import annotations

from typing import Iterable

import pytest

from kindep.generators import random_gnm
from kindep.graph import Graph, GraphError, build
from kindep.oracle import OracleLimitError

BRUTEFORCE_CAP = 18


def gnm_corpus(count: int, max_n: int, seed_base: int) -> list[Graph]:
    graphs = []
    for i in range(count):
        n = (i % max_n) + 1
        frac = (i % 11) / 10
        m = min(n * (n - 1) // 2, round(frac * n * n / 4))
        graphs.append(random_gnm(n, m, seed_base + i))
    return graphs


# alpha_k_exact(random_gnm(n, m, 3), k) for (n, m, k), recorded with the
# search that kept a memo and had no forced-set bounds; (60, 120, 1) with
# the forced-set search before its star-packing bound.
LARGE_PINNED = {
    (40, 80, 1): (24, (1, 2, 6, 7, 10, 11, 13, 16, 18, 19, 20, 21, 22, 23, 27, 28, 30, 31,
                       33, 35, 36, 37, 38, 39)),
    (40, 200, 2): (19, (1, 2, 5, 9, 12, 16, 17, 20, 22, 23, 26, 28, 30, 31, 33, 34, 35, 37,
                        39)),
    (50, 100, 0): (23, (1, 4, 6, 7, 9, 12, 14, 15, 16, 18, 20, 22, 23, 26, 27, 30, 32, 33,
                        34, 38, 41, 42, 49)),
    (50, 100, 1): (29, (0, 1, 2, 4, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 21, 23, 27,
                        30, 31, 37, 40, 41, 42, 44, 46, 47, 48)),
    (60, 120, 1): (36, (2, 4, 5, 6, 7, 9, 13, 15, 18, 20, 22, 23, 25, 26, 28, 29, 33, 35, 36,
                        37, 39, 40, 42, 43, 44, 45, 47, 48, 49, 51, 52, 53, 54, 55, 57, 59)),
}


@pytest.fixture(scope="session")
def corpus500() -> list[Graph]:
    return gnm_corpus(500, 40, 1000)


@pytest.fixture(scope="session")
def corpus200() -> list[Graph]:
    return gnm_corpus(200, 12, 2000)


@pytest.fixture(scope="session")
def corpus100() -> list[Graph]:
    return gnm_corpus(100, 10, 3000)


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build(10, edges)


def cycle(n: int) -> Graph:
    return build(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return build(n, [(i, i + 1) for i in range(n - 1)])


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by `keep`, re-indexed densely, with the sorted
    tuple mapping each new index to its old one."""
    kept = sorted(set(keep))
    for v in kept:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} not in graph of order {g.n}")
    pos = {old: new for new, old in enumerate(kept)}
    adj = [[pos[u] for u in g.neighbors(old) if u in pos] for old in kept]
    return Graph(adj), tuple(kept)


def alpha_k_bruteforce(g: Graph, k: int) -> int:
    """alpha_k by checking all 2^n subsets, on neighbour masks of its own."""
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    if g.n > BRUTEFORCE_CAP:
        raise OracleLimitError(f"order n={g.n} exceeds enumeration cap {BRUTEFORCE_CAP}")
    masks = [sum(1 << u for u in g.neighbors(v)) for v in range(g.n)]
    best = 0
    for subset in range(1 << g.n):
        size = subset.bit_count()
        if size <= best:
            continue
        m = subset
        ok = True
        while m:
            bit = m & -m
            m ^= bit
            if (masks[bit.bit_length() - 1] & subset).bit_count() > k:
                ok = False
                break
        if ok:
            best = size
    return best
