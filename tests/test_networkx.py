"""Differential tests against networkx, an independent implementation.

networkx is a test-only dependency (the `test` extra in pyproject.toml).
"""

import random

import pytest

from kindep import oracle
from kindep.generators import complete, random_gnm, star, wagner_r8
from kindep.graph import build, disjoint_union, girth

from conftest import cycle, induced_subgraph, path, petersen

nx = pytest.importorskip("networkx")


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def random_tree(n, seed):
    rnd = random.Random(seed)
    return build(n, [(v, rnd.randrange(v)) for v in range(1, n)])


def random_bipartite(a, b, m, seed):
    rnd = random.Random(seed)
    return build(a + b, [(rnd.randrange(a), a + rnd.randrange(b)) for _ in range(m)])


class TestGirth:
    def test_corpus(self, corpus500):
        for g in corpus500:
            assert girth(g) == nx.girth(to_nx(g))

    def test_sparse_gnm(self):
        # m < n: mostly forests, some with a few long cycles.
        for i in range(60):
            n = 10 + 5 * i
            g = random_gnm(n, n // 2 + i % (n // 2), 8000 + i)
            assert girth(g) == nx.girth(to_nx(g))

    def test_trees(self):
        for i in range(20):
            g = random_tree(1 + 15 * i, 8100 + i)
            assert girth(g) == nx.girth(to_nx(g))

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 31, 100])
    def test_cycles(self, n):
        assert girth(cycle(n)) == nx.girth(to_nx(cycle(n))) == n

    def test_bipartite(self):
        for i in range(30):
            g = random_bipartite(3 + i, 5 + 2 * i, 4 * i + 3, 8200 + i)
            assert girth(g) == nx.girth(to_nx(g))

    def test_families(self):
        for g in (petersen(), wagner_r8(), complete(5), star(6), path(7),
                  disjoint_union(cycle(9), cycle(4))):
            assert girth(g) == nx.girth(to_nx(g))


class TestConstructions:
    def test_induced_subgraph(self, corpus200):
        rnd = random.Random(8300)
        for g in corpus200:
            keep = [v for v in range(g.n) if rnd.random() < 0.6]
            sub, mapping = induced_subgraph(g, keep)
            assert mapping == tuple(sorted(keep))
            mapped = {frozenset((mapping[u], mapping[v])) for u, v in sub.edges()}
            assert mapped == {frozenset(e) for e in to_nx(g).subgraph(keep).edges()}

    def test_components(self, corpus200):
        for g in corpus200:
            ours = {frozenset(c) for c in oracle._components(oracle._adjacency_masks(g))}
            assert ours == {frozenset(c) for c in nx.connected_components(to_nx(g))}
