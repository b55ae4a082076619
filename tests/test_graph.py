import io
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kindep import formats
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
    copies,
    disjoint_union,
    girth,
    verify_k_independent,
)
from kindep.generators import complete, j_graph, random_gnm, star

from conftest import cycle, induced_subgraph, path


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
        with pytest.raises(GraphError, match=r"^vertex count must be nonnegative, got -1$"):
            build(-1, [])

    def test_non_integer_order_rejected(self):
        # It used to die in a TypeError from range().
        with pytest.raises(GraphError, match=r"^vertex count must be an integer, got 2\.5$"):
            build(2.5, [])

    @pytest.mark.parametrize("edges,message", [
        ([(-1, 0)], "edge (-1, 0) out of range for n=3"),
        ([(3, -1)], "edge (3, -1) out of range for n=3"),
        ([(-4, -4)], "self-loop at vertex -4"),
        ([(0, 9), (2, 2)], "edge (0, 9) out of range for n=3"),
        ([(0, 1), (2, 2), (0, 9)], "self-loop at vertex 2"),
    ])
    @pytest.mark.parametrize("wrap", [list, iter])
    def test_first_bad_edge_names_the_error(self, edges, message, wrap):
        # The list adjacency wraps a negative index, so `build` must test
        # the sign itself; the message is that of the first bad edge.
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            build(3, wrap(edges))


def _build_reference(n, edges):
    """`build` as one set per vertex, each edge checked before it is added."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            return f"self-loop at vertex {u}"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) out of range for n={n}"
        adj[u].add(v)
        adj[v].add(u)
    return tuple(tuple(sorted(s)) for s in adj)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)), max_size=40))))
def test_build_agrees_with_a_set_reference(case):
    # Endpoints range over -2..n+1, so pairs repeat, come in both orientations
    # and sometimes leave 0..n-1 or close a loop.
    n, edges = case
    expected = _build_reference(n, edges)
    for wrap in (list, iter):
        try:
            got = tuple(map(build(n, wrap(edges)).neighbors, range(n)))
        except GraphError as exc:
            got = str(exc)
        assert got == expected


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

    def test_union_is_additive(self):
        g = disjoint_union(complete(3), star(2))
        assert g.n == 6 and g.edge_count() == 5

    def test_girth_of_cycle(self):
        assert girth(cycle(5)) == 5

    def test_girth_of_tree_is_infinite(self):
        assert girth(path(4)) == math.inf
        assert girth(build(0, [])) == math.inf

    def test_girth_of_dense_graph(self):
        assert girth(complete(4)) == 3

    def test_girth_shortest_cycle_on_high_vertices(self):
        # The only 4-cycle uses vertices 9..12; roots 0..8 see only the 9-cycle.
        assert girth(disjoint_union(cycle(9), cycle(4))) == 4
        assert girth(disjoint_union(cycle(4), cycle(9))) == 4

    def test_girth_triangle_after_long_path(self):
        # A path 0..49 with the chord (47, 49): the roots of the path reset
        # their BFS arrays before root 47 finds the triangle.
        n = 50
        edges = [(i, i + 1) for i in range(n - 1)] + [(n - 3, n - 1)]
        assert girth(build(n, edges)) == 3

    def test_girth_long_cycle_behind_low_vertices(self):
        # A 5-cycle on 9..13 hangs off the 9-cycle by the edge (0, 9).
        g = build(14, [*disjoint_union(cycle(9), cycle(5)).edges(), (0, 9)])
        assert girth(g) == 5


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

    def test_repeated_vertex_counts_once(self):
        # The check is on the set of the listed vertices: a vertex listed
        # twice is one member, not adjacent to itself.
        assert verify_k_independent(complete(2), [0, 0], 0)
        assert not verify_k_independent(complete(2), [0, 0, 1], 0)
        assert verify_k_independent(complete(3), [2, 0, 2, 0], 1)


class TestValueSemantics:
    def test_equality_with_another_type(self):
        g = complete(3)
        assert g.__eq__((3, g._adj)) is NotImplemented
        assert g != (3, g._adj) and not g == 3

    def test_repr(self):
        assert repr(complete(4)) == "Graph(n=4, e=6)"
        assert repr(build(0, [])) == "Graph(n=0, e=0)"


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_adjacency_is_symmetric_and_loopless(g):
    for v in range(g.n):
        assert v not in g.neighbor_set(v)
        for u in g.neighbor_set(v):
            assert v in g.neighbor_set(u)


@settings(max_examples=100, deadline=None)
@given(random_graphs(), random_graphs(), random_graphs())
def test_union_counts_are_additive(g, h, c):
    u = disjoint_union(g, h)
    assert u.n == g.n + h.n
    assert u.edge_count() == g.edge_count() + h.edge_count()
    assert disjoint_union(g, h, c) == disjoint_union(u, c)


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


def assert_canonical(h, label):
    """h equals `build` on its own edges, hashes alike, and lists each
    neighborhood in strictly increasing order."""
    again = build(h.n, h.edges())
    assert h == again and hash(h) == hash(again), label
    for v in range(h.n):
        nbrs = h.neighbors(v)
        assert all(a < b for a, b in zip(nbrs, nbrs[1:])), (label, v)


def test_constructors_are_canonical(corpus100):
    for g, h in zip(corpus100, corpus100[1:] + corpus100[:1]):
        assert_canonical(induced_subgraph(g, range(0, g.n, 2))[0], "induced_subgraph")
        assert_canonical(disjoint_union(g, h), "disjoint_union")
        assert_canonical(copies(3, g), "copies")


class TestFormats:
    def test_edge_list_round_trip(self):
        g = j_graph(6)
        assert read_edge_list(io.StringIO(dumps_edge_list(g))) == g

    def test_edge_list_comments_ignored(self):
        text = "# a comment\n3 1\n# another\n0 2\n"
        g = read_edge_list(io.StringIO(text))
        assert g.n == 3 and 2 in g.neighbors(0)

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
        assert 1 in g.neighbors(0) and 2 in g.neighbors(1) and 2 not in g.neighbors(0)

    def test_dimacs_bad_record(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            read_dimacs(io.StringIO("p edge 2 1\nz 1 2\n"))

    @pytest.mark.parametrize("reader,text,message", [
        (read_edge_list, "# c\n3 2\n0 1\n2 2\n", "line 4: self-loop at vertex 2"),
        (read_edge_list, "3 2\n0 1\n\n1 3\n", r"line 4: edge \(1, 3\) out of range 0\.\.2"),
        (read_edge_list, "3 1\n-1 0\n", r"line 2: edge \(-1, 0\) out of range 0\.\.2"),
        (read_dimacs, "c c\np edge 3 2\ne 1 2\ne 3 3\n", "line 4: self-loop at vertex 3"),
        (read_dimacs, "p edge 3 2\ne 1 4\ne 1 2\n", r"line 2: edge \(1, 4\) out of range 1\.\.3"),
        (read_dimacs, "p edge 3 2\ne 1 2\nc c\ne 0 1\n", r"line 4: edge \(0, 1\) out of range 1\.\.3"),
        (read_edge_list, "-1 0\n", "line 1: vertex count must be nonnegative, got -1"),
        (read_dimacs, "c c\np edge -2 0\n", "line 2: vertex count must be nonnegative, got -2"),
        (read_edge_list, "# c\n3 -1\n", "line 2: edge count must be nonnegative, got -1"),
        (read_dimacs, "c c\np edge 3 -1\n", "line 2: edge count must be nonnegative, got -1"),
        (read_edge_list, "# c\n3 5\n0 1\n0 1\n", "line 2: header announced 5 edges, file has 2"),
        (read_dimacs, "c c\np edge 3 5\ne 1 2\n", "line 2: header announced 5 edges, file has 1"),
        (read_dimacs, "c no problem line\n", "line 1: missing 'p edge n m' line"),
        (read_dimacs, "p edge 3 0\np edge 3 0\n", "line 2: duplicate problem line"),
        (read_dimacs, "p edge 3\n", "line 1: expected 'p edge n m'"),
        (read_dimacs, "p graph 3 1\ne 1 2\n", "line 1: expected 'p edge n m'"),
        (read_dimacs, "e 1 2\np edge 3 1\n", "line 1: edge before problem line"),
        (read_edge_list, "", "line 1: missing 'n m' header"),
        (read_edge_list, "# only\n# comments\n", "line 1: missing 'n m' header"),
        (read_edge_list, "3 x\n", "line 1: non-integer header"),
        (read_edge_list, "3 1 2\n0 1\n", "line 1: expected header 'n m'"),
        (read_edge_list, "3 1\n0 1 2\n", "line 2: expected edge 'u v'"),
        (read_dimacs, "p edge 3 1\ne 1 2 3\n", "line 2: expected 'e u v'"),
        (read_dimacs, "p edge 3 1\nx 1 2\n", "line 2: unknown record 'x'"),
        # More digits than int() converts: the block path gives up, the line loop reports it.
        (read_edge_list, f"3 1\n{'1' * 5000} 0\n", "line 2: non-integer edge"),
        (read_dimacs, f"p edge 3 1\ne {'1' * 5000} 1\n", "line 2: non-integer edge"),
    ], ids=["edge-loop", "edge-range", "edge-negative", "dimacs-loop", "dimacs-range",
            "dimacs-zero", "edge-negative-order", "dimacs-negative-order", "edge-negative-size",
            "dimacs-negative-size", "edge-count", "dimacs-count", "dimacs-missing-header",
            "dimacs-duplicate-header", "dimacs-short-header", "dimacs-not-edge",
            "dimacs-edge-first", "edge-empty", "edge-only-comments", "edge-non-integer-header",
            "edge-long-header", "edge-long-line", "dimacs-long-line", "dimacs-unknown-record",
            "edge-huge-endpoint", "dimacs-huge-endpoint"])
    def test_bad_edge_names_its_line(self, reader, text, message):
        # Endpoints are reported as the file counts them, 0- or 1-based.
        with pytest.raises(GraphFormatError, match=f"^{message}$"):
            reader(io.StringIO(text))

    def test_load_sniffs_format(self, tmp_path):
        e = tmp_path / "g.txt"
        e.write_text(dumps_edge_list(complete(3)))
        assert load_graph(e) == complete(3)
        d = tmp_path / "g.col"
        d.write_text("c comment\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert load_graph(d) == complete(3)

    @pytest.mark.parametrize("text", [
        "c\tmade by hand\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
        "p\tedge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
        "comment without a blank after its c\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
    ], ids=["comment-tab", "problem-tab", "comment-word"])
    def test_load_sniffs_dimacs_by_the_readers_first_token(self, tmp_path, text):
        # `read_dimacs` splits on any blank and takes any token starting with c
        # for a comment, so its first token alone says the file is DIMACS.
        f = tmp_path / "g.col"
        f.write_text(text)
        assert read_dimacs(io.StringIO(text)) == complete(3)
        assert load_graph(f) == complete(3)

    @pytest.mark.parametrize("reader,text,expected", [
        # A digit glued to the e leaves the same separators as `e u v`.
        (read_dimacs, "p edge 3 1\n5e 1 2\n", "GraphFormatError: line 2: unknown record '5e'"),
        (read_dimacs, "p edge 3 1\ne5 1 2\n", "GraphFormatError: line 2: unknown record 'e5'"),
        # Two wrong lines that together hold the right number of tokens.
        (read_dimacs, "p edge 3 2\ne5 1 2\ne 3 \n",
         "GraphFormatError: line 2: unknown record 'e5'"),
        # No e at all: the separators of no edge line, but not an empty body.
        (read_dimacs, "p edge 3 0\n12", "GraphFormatError: line 2: unknown record '12'"),
        # JSON reads these; the range checks hand them to the line loop.
        (read_dimacs, "p edge 3 1\ne 0 1\n",
         "GraphFormatError: line 2: edge (0, 1) out of range 1..3"),
        (read_edge_list, "3 1\n0 3\n", "GraphFormatError: line 2: edge (0, 3) out of range 0..2"),
        # An edge count no file can hold: the gate must not build m separators first.
        (read_edge_list, f"3 {10**30}\n0 1\n",
         f"GraphFormatError: line 1: header announced {10**30} edges, file has 1"),
        (read_dimacs, f"p edge 3 {10**30}\ne 1 2\n",
         f"GraphFormatError: line 1: header announced {10**30} edges, file has 1"),
        # Self-loops in the canonical shape: `build` rejects them for the gate.
        (read_edge_list, "3 1\n1 1\n", "GraphFormatError: line 2: self-loop at vertex 1"),
        (read_dimacs, "p edge 3 1\ne 2 2\n", "GraphFormatError: line 2: self-loop at vertex 2"),
        (read_edge_list, "3 1\n 2\n", "GraphFormatError: line 2: expected edge 'u v'"),
        (read_edge_list, "3 1\n2 \n", "GraphFormatError: line 2: expected edge 'u v'"),
        # Valid, but JSON rejects the leading zero, so the line loop reads it.
        (read_edge_list, "3 1\n01 2\n", build(3, [(1, 2)])),
        (read_edge_list, "3 0\n", build(3, [])),
        (read_edge_list, "3 2\n0\t1\n1\t2\n", build(3, [(0, 1), (1, 2)])),
        (read_dimacs, "p edge 3 2\ne\t1\t2\ne\t2\t3\n", build(3, [(0, 1), (1, 2)])),
    ], ids=["dimacs-digit-before-e", "dimacs-digit-after-e", "dimacs-compensating-lines",
            "dimacs-no-edge-line", "dimacs-zero-endpoint", "edge-past-n", "edge-huge-count",
            "dimacs-huge-count", "edge-self-loop", "dimacs-self-loop", "edge-leading-blank",
            "edge-trailing-blank", "edge-leading-zero", "edge-empty", "edge-tabs", "dimacs-tabs"])
    def test_block_gate_agrees_with_the_line_loop(self, reader, text, expected):
        fast = _outcome(reader, text)
        with mock.patch.object(formats, "_edge_block", return_value=None):
            assert _outcome(reader, text) == fast == expected

    def test_load_graph_parses_large_files_as_one_block(self, tmp_path, monkeypatch):
        # `_edge` is the line loop's per-edge check.  A reader that fell back to
        # the loop on valid files would stay correct, only slower; this fails it.
        def line_loop(*args):
            raise AssertionError("the line loop read an edge of a valid file")

        monkeypatch.setattr(formats, "_edge", line_loop)
        g = random_gnm(2000, 20000, 1)
        dimacs = f"c leading comment\np edge {g.n} {g.edge_count()}\n" + "".join(
            f"e {u + 1} {v + 1}\n" for u, v in g.edges())
        for name, text in (("g.txt", dumps_edge_list(g)), ("g.col", dimacs)):
            for sep in (" ", "\t"):
                f = tmp_path / name
                f.write_text(text.replace(" ", sep))
                assert load_graph(f) == g, (name, repr(sep))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=30).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n * (n - 1) // 2),
                        st.integers(min_value=0, max_value=2**32))))
def test_gnm_round_trips_through_both_formats(params):
    n, m, seed = params
    g = random_gnm(n, m, seed)
    dimacs = f"p edge {n} {m}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in g.edges())
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (("g.txt", dumps_edge_list(g)), ("g.col", dimacs)):
            file = Path(tmp) / name
            file.write_text(text)
            assert load_graph(file) == g


_UNICODE_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                              "\u0665\u0666\u0667\u0668\u0669")
_TOKEN_MUTATIONS = {
    "zeros": lambda tok: "00" + tok,
    "plus": lambda tok: "+" + tok,
    "unicode": lambda tok: tok.translate(_UNICODE_DIGITS),
    "huge": lambda tok: "1" + "0" * 19,
    "negative": lambda tok: "-1",
    "zero": lambda tok: "0",
    "third": lambda tok: tok + " 7",
}


@st.composite
def graph_files(draw, mutate: bool):
    """(reader, file text, graph it holds, canonical) for a random edge
    sequence with repeated edges, spaces and tabs, LF or CRLF line ends and
    an optional final newline.  A canonical file has one separator, a space
    or a tab, no blanks around its fields and LF line ends, the last one
    included: the files `_edge_block` reads.  With `mutate`, one token, line
    or the edge count is then changed, and the graph is None."""
    dimacs = draw(st.booleans())
    n = draw(st.integers(min_value=2, max_value=12))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          min_size=int(mutate), max_size=20))
    canonical = draw(st.booleans())
    blank, sep = st.sampled_from(["", " ", "\t", " \t"]), st.sampled_from([" ", "\t", "  "])
    if canonical:
        blank, sep = st.just(""), st.just(draw(st.sampled_from([" ", "\t"])))
    base, comment = (1, "c") if dimacs else (0, "#")
    rows = [["e"] * dimacs + [str(u + base), str(v + base)] for u, v in edges]
    m = len(edges)
    kinds = [*_TOKEN_MUTATIONS, "loop", "blank", "comment", "count"]
    kind = draw(st.sampled_from(kinds)) if mutate else None
    row = draw(st.integers(min_value=0, max_value=m - 1)) if mutate else None
    if kind == "loop":
        rows[row][-1] = rows[row][-2]
    elif kind in _TOKEN_MUTATIONS:
        col = draw(st.integers(min_value=dimacs, max_value=dimacs + 1))
        rows[row][col] = _TOKEN_MUTATIONS[kind](rows[row][col])
    elif kind == "count":
        m += draw(st.sampled_from([-1, 1]))
    body = [draw(blank) + draw(sep).join(r) + draw(blank) for r in rows]
    if kind == "blank":
        body.insert(row, draw(blank))
    elif kind == "comment":
        body.insert(row, f"{comment} among the edges")
    lines = [f"{comment} a comment"] * draw(st.integers(min_value=0, max_value=2))
    lines.append(f"p edge {n} {m}" if dimacs else f"{n} {m}")
    end = "\n" if canonical else draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines + body) + (end if canonical else draw(st.sampled_from([end, ""])))
    reader = read_dimacs if dimacs else read_edge_list
    return reader, text, None if mutate else build(n, edges), canonical


def _outcome(reader, text):
    try:
        return reader(io.StringIO(text))
    except GraphFormatError as exc:
        return f"GraphFormatError: {exc}"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.booleans().flatmap(graph_files))
def test_block_path_agrees_with_the_line_loop(case):
    # With `_edge_block` answering None every file goes through the line loop,
    # which defines what is valid and every error message.
    reader, text, graph, canonical = case
    fast = _outcome(reader, text)
    with mock.patch.object(formats, "_edge_block", return_value=None):
        slow = _outcome(reader, text)
    assert fast == slow
    if graph is not None:
        assert fast == graph
        if canonical:  # `_edge` is the line loop's per-edge check; the block path skips it
            with mock.patch.object(formats, "_edge", side_effect=AssertionError("line loop")):
                assert reader(io.StringIO(text)) == graph
