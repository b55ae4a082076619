import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kindep.formats import (
    GraphFormatError,
    dumps_edge_list,
    load_graph,
    read_dimacs,
    read_edge_list,
)
from kindep.graph import (
    GraphError,
    build,
    complement,
    copies,
    disjoint_union,
    girth,
    induced_subgraph,
    remove_edges_of,
    remove_vertex,
    verify_k_independent,
)
from kindep.generators import complete, j_graph, star

from conftest import cycle, path


def random_graphs():
    """Hypothesis strategy: small graphs as (n, edge subset)."""

    def make(n, picks):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return build(n, [p for p, keep in zip(pairs, picks) if keep])

    return st.integers(min_value=0, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                                 max_size=n * (n - 1) // 2)
        ).map(lambda t: make(*t))
    )


class TestBuild:
    def test_path_on_three(self):
        g = build(3, [(0, 1), (1, 2)])
        assert g.edge_count() == 2
        assert g.degrees() == [1, 2, 1]

    def test_single_vertex(self):
        g = build(1, [])
        assert g.n == 1 and g.max_degree() == 0

    def test_duplicate_edges_collapse(self):
        g = build(4, [(0, 1), (0, 1)])
        assert g.edge_count() == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            build(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            build(3, [(0, 3)])

    def test_negative_order_rejected(self):
        with pytest.raises(GraphError):
            build(-1, [])


class TestDegrees:
    def test_complete_graph_average(self):
        assert complete(4).avg_degree() == 3

    def test_star_average(self):
        g = star(3)
        assert sorted(g.degrees()) == [1, 1, 1, 3]
        assert g.avg_degree() == Fraction(3, 2)

    def test_one_factor_removed_average(self):
        assert j_graph(6).avg_degree() == 4

    def test_avg_degree_empty_graph_error(self):
        with pytest.raises(GraphError):
            build(0, []).avg_degree()


class TestSubgraphs:
    def test_induced_triangle_from_k4(self):
        sub, mapping = induced_subgraph(complete(4), {0, 1, 2})
        assert sub == complete(3)
        assert mapping == (0, 1, 2)

    def test_remove_star_center(self):
        sub, mapping = remove_vertex(star(3), 0)
        assert sub.n == 3 and sub.edge_count() == 0
        assert mapping == (1, 2, 3)

    def test_remove_cycle_vertex_gives_path(self):
        sub, _ = remove_vertex(cycle(5), 2)
        assert sorted(sub.degrees()) == [1, 1, 2, 2]

    def test_not_a_subset(self):
        with pytest.raises(GraphError):
            induced_subgraph(complete(3), {0, 5})


class TestConstructions:
    def test_copies_of_an_edge(self):
        g = copies(3, complete(2))
        assert g.n == 6 and g.edge_count() == 3

    def test_copies_needs_positive_count(self):
        with pytest.raises(GraphError):
            copies(0, complete(2))

    def test_complement_of_triangle(self):
        assert complement(complete(3)).edge_count() == 0

    def test_union_is_additive(self):
        g = disjoint_union(complete(3), star(2))
        assert g.n == 6 and g.edge_count() == 5

    def test_remove_missing_edge_rejected(self):
        with pytest.raises(GraphError):
            remove_edges_of(path(3), [(0, 2)])

    def test_girth_of_cycle(self):
        assert girth(cycle(5)) == 5

    def test_girth_of_tree_is_infinite(self):
        assert girth(path(4)) == math.inf
        assert girth(build(0, [])) == math.inf

    def test_girth_of_dense_graph(self):
        assert girth(complete(4)) == 3


class TestVerify:
    def test_pair_in_clique(self):
        assert verify_k_independent(complete(4), {0, 1}, 1)

    def test_triple_in_clique(self):
        assert not verify_k_independent(complete(4), {0, 1, 2}, 1)

    def test_star_leaves_plus_isolated(self):
        for k in range(4):
            g = disjoint_union(star(k + 1), build(k, []))
            s = set(range(1, g.n))
            assert len(s) == 2 * k + 1
            assert verify_k_independent(g, s, k)

    def test_rejects_foreign_vertices(self):
        with pytest.raises(GraphError):
            verify_k_independent(complete(3), {7}, 0)

    def test_rejects_negative_k(self):
        with pytest.raises(GraphError):
            verify_k_independent(complete(3), {0}, -1)


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_adjacency_is_symmetric_and_loopless(g):
    for v in range(g.n):
        assert v not in g.neighbor_set(v)
        for u in g.neighbor_set(v):
            assert v in g.neighbor_set(u)


@settings(max_examples=100, deadline=None)
@given(random_graphs(), random_graphs())
def test_union_counts_are_additive(g, h):
    u = disjoint_union(g, h)
    assert u.n == g.n + h.n
    assert u.edge_count() == g.edge_count() + h.edge_count()


@settings(max_examples=100, deadline=None)
@given(random_graphs())
def test_complement_is_an_involution(g):
    assert complement(complement(g)) == g


@settings(max_examples=60, deadline=None)
@given(random_graphs(), st.integers(min_value=1, max_value=4))
def test_copies_preserve_average_degree(g, q):
    if g.n == 0:
        return
    assert copies(q, g).avg_degree() == g.avg_degree()


@settings(max_examples=100, deadline=None)
@given(random_graphs(), st.integers(min_value=0, max_value=3), st.randoms())
def test_verify_matches_induced_max_degree(g, k, rnd):
    s = [v for v in range(g.n) if rnd.random() < 0.5]
    sub, _ = induced_subgraph(g, s)
    assert verify_k_independent(g, s, k) == (sub.max_degree() <= k)


@settings(max_examples=80, deadline=None)
@given(random_graphs())
def test_girth_matches_edge_removal_search(g):
    # Independent method: shortest cycle through an edge (u,v) is 1 plus the
    # u-v distance with that edge removed; minimize over edges.
    best = math.inf
    for u, v in g.edges():
        dist = {u: 0}
        queue = [u]
        while queue:
            x = queue.pop(0)
            for w in g.neighbor_set(x):
                if (x, w) in ((u, v), (v, u)):
                    continue
                if w not in dist:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        if v in dist:
            best = min(best, dist[v] + 1)
    assert girth(g) == best


class TestFormats:
    def test_edge_list_round_trip(self):
        g = j_graph(6)
        assert read_edge_list(io.StringIO(dumps_edge_list(g))) == g

    def test_edge_list_comments_ignored(self):
        text = "# a comment\n3 1\n# another\n0 2\n"
        g = read_edge_list(io.StringIO(text))
        assert g.n == 3 and g.adjacent(0, 2)

    def test_edge_list_bad_header(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            read_edge_list(io.StringIO("banana\n"))

    def test_edge_list_bad_edge_line(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            read_edge_list(io.StringIO("3 1\n0 1\n0 x\n"))

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="announced"):
            read_edge_list(io.StringIO("3 2\n0 1\n"))

    def test_edge_list_duplicate_edge_counts_as_announced(self):
        with pytest.raises(GraphFormatError, match="announced 5 edges, file has 2"):
            read_edge_list(io.StringIO("3 5\n0 1\n0 1\n"))

    def test_dimacs_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="announced 5 edges, file has 2"):
            read_dimacs(io.StringIO("p edge 3 5\ne 1 2\ne 1 2\n"))

    def test_dimacs_non_integer_edge_count(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            read_dimacs(io.StringIO("p edge 3 x\ne 1 2\n"))

    def test_dimacs_one_based(self):
        text = "c sample\np edge 3 2\ne 1 2\ne 2 3\n"
        g = read_dimacs(io.StringIO(text))
        assert g.adjacent(0, 1) and g.adjacent(1, 2) and not g.adjacent(0, 2)

    def test_dimacs_bad_record(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            read_dimacs(io.StringIO("p edge 2 1\nz 1 2\n"))

    def test_load_sniffs_format(self, tmp_path):
        e = tmp_path / "g.txt"
        e.write_text(dumps_edge_list(complete(3)))
        assert load_graph(e) == complete(3)
        d = tmp_path / "g.col"
        d.write_text("c comment\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert load_graph(d) == complete(3)
