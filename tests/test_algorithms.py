import math
import re
from fractions import Fraction

import pytest

from kindep.algorithms import (
    Partition,
    RunTrace,
    algorithm1,
    algorithm2,
    caro_tuza_greedy,
    lovasz_equal,
    lovasz_largest_class,
    lovasz_partition,
)
from kindep.bounds import caro_tuza_sum, main_bound, thm_first_approach_bound
from kindep.generators import complete, j_graph, star, thm12_2
from kindep.graph import (
    GraphError,
    build,
    copies,
    disjoint_union,
    induced_subgraph,
    verify_k_independent,
)
from kindep.oracle import alpha_k_exact

from conftest import cycle, petersen


def class_degrees_ok(g, part: Partition) -> bool:
    for members, cap in zip(part.classes, part.capacities):
        mset = set(members)
        for v in members:
            if sum(1 for u in g.neighbor_set(v) if u in mset) > cap:
                return False
    return True


def covers_vertices(g, part: Partition) -> bool:
    seen = [v for c in part.classes for v in c]
    return sorted(seen) == list(range(g.n))


class TestLovaszPartition:
    def test_k4_into_two_pairs(self):
        part, trace = lovasz_partition(complete(4), [1, 1])
        assert sorted(len(c) for c in part.classes) == [2, 2]
        assert class_degrees_ok(complete(4), part)

    def test_five_cycle_two_classes(self):
        g = cycle(5)
        part, trace = lovasz_partition(g, [1, 1])
        assert covers_vertices(g, part) and class_degrees_ok(g, part)

    def test_single_class_identity(self):
        g = petersen()
        part, trace = lovasz_partition(g, [g.max_degree()])
        assert part.classes == (tuple(range(10)),)
        assert trace.steps == []

    def test_capacity_sum_too_small(self):
        with pytest.raises(GraphError):
            lovasz_partition(complete(4), [1, 0])

    def test_unequal_capacities(self):
        g = petersen()
        part, trace = lovasz_partition(g, [0, 1, 1])
        assert covers_vertices(g, part) and class_degrees_ok(g, part)

    def test_potential_strictly_decreases(self):
        g = petersen()
        for caps in ([0, 0, 0, 0], [1, 1], [0, 1, 1], [0, 0, 1]):
            part, trace = lovasz_partition(g, caps)
            vals = trace.potential_values
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert class_degrees_ok(g, part)

    def test_move_lines_carry_exact_potentials(self):
        g = complete(6)
        part, trace = lovasz_partition(g, [1, 1, 1])
        log = trace.to_log()
        for line in log.splitlines():
            assert re.fullmatch(r"MOVE \d+ \d+->\d+ phi=-?\d+/\d+", line)


class TestLovaszEqual:
    def test_k4_two_classes(self):
        part = lovasz_equal(complete(4), 1)
        assert len(part.classes) == 2
        assert len(part.largest_class()) == 2

    def test_cubic_two_classes(self):
        g = petersen()
        part = lovasz_equal(g, 1)
        assert len(part.classes) == 2
        assert len(part.largest_class()) >= 5
        assert class_degrees_ok(g, part)

    def test_edgeless_single_class(self):
        part = lovasz_equal(build(7, []), 0)
        assert part.classes == (tuple(range(7)),)

    def test_class_count_formula(self, corpus200):
        for g in corpus200[:40]:
            for k in (0, 1, 2):
                part = lovasz_equal(g, k)
                t = -((g.max_degree() + 1) // -(k + 1))
                assert len(part.classes) == t
                assert len(part.largest_class()) >= -(-g.n // t)
                assert class_degrees_ok(g, part) and covers_vertices(g, part)


class TestDeletionGreedy:
    def test_k4(self):
        ws, trace = caro_tuza_greedy(complete(4), 1)
        assert ws.size == 2 >= math.ceil(Fraction(3, 2))

    def test_edgeless(self):
        ws, trace = caro_tuza_greedy(build(5, []), 2)
        assert ws.vertices == (0, 1, 2, 3, 4)
        assert trace.steps == []

    def test_star_center_removed_first(self):
        g = star(5)
        ws, trace = caro_tuza_greedy(g, 0)
        assert trace.steps == [("DEL", 0, 5)]
        assert ws.vertices == (1, 2, 3, 4, 5)
        assert ws.size >= math.ceil(caro_tuza_sum(g, 0)) == 3
        alpha, _ = alpha_k_exact(g, 0)
        assert alpha == 5

    def test_potential_never_drops(self, corpus200):
        for g in corpus200[:60]:
            for k in (0, 1, 2):
                ws, trace = caro_tuza_greedy(g, k)
                vals = trace.potential_values
                assert all(a <= b for a, b in zip(vals, vals[1:]))
                assert vals[0] == caro_tuza_sum(g, k)

    def test_certificate_and_validity(self, corpus200):
        for g in corpus200[:60]:
            for k in (0, 1, 2, 3):
                ws, trace = caro_tuza_greedy(g, k)
                assert verify_k_independent(g, ws.vertices, k)
                assert ws.size >= math.ceil(caro_tuza_sum(g, k))

    def test_deleted_vertices_had_max_degree(self):
        g = petersen()
        ws, trace = caro_tuza_greedy(g, 1)
        alive = set(range(g.n))
        for _, v, deg in trace.steps:
            sub, mapping = induced_subgraph(g, alive)
            assert deg == sub.max_degree()
            assert deg >= 2
            back = {orig: new for new, orig in enumerate(mapping)}
            assert sub.degree(back[v]) == deg
            assert v == min(
                mapping[w] for w in range(sub.n) if sub.degree(w) == deg
            )
            alive.discard(v)

    def test_log_format(self):
        _, trace = caro_tuza_greedy(star(5), 0)
        assert trace.to_log() == "DEL 0 deg=5\n"


class TestAlgorithm1:
    def test_one_factor_graph(self):
        g = j_graph(6)
        ws, trace = algorithm1(g, 1)
        assert verify_k_independent(g, ws.vertices, 1)
        assert ws.size >= 2
        assert ws.size > thm_first_approach_bound(g, 1) == Fraction(3, 2)
        assert not any(s[0] == "DEL" for s in trace.steps)

    def test_star_with_isolated(self):
        g = disjoint_union(star(9), build(5, []))
        ws, trace = algorithm1(g, 0)
        assert ws.size == 14 and 0 not in ws.vertices
        assert trace.steps[0] == ("DEL", 0, 9)

    def test_single_vertex(self):
        ws, _ = algorithm1(complete(1), 3)
        assert ws.vertices == (0,)

    def test_empty_graph(self):
        ws, _ = algorithm1(build(0, []), 1)
        assert ws.vertices == ()

    def test_strict_bound_on_corpus(self, corpus500):
        for g in corpus500[::5]:
            for k in (0, 1, 2, 3):
                ws, _ = algorithm1(g, k)
                assert verify_k_independent(g, ws.vertices, k)
                assert ws.size > thm_first_approach_bound(g, k)


class TestAlgorithm2:
    def test_one_factor_tightness(self):
        for d in (2, 4, 6, 8):
            g = j_graph(d + 2)
            ws, trace = algorithm2(g, 1)
            assert ws.size == 2 == math.ceil(main_bound(g, 1))

    def test_star_plus_isolated(self):
        g = thm12_2(2)
        ws, trace = algorithm2(g, 2)
        assert ws.size == 5 == math.ceil(main_bound(g, 2))
        alpha, _ = alpha_k_exact(g, 2)
        assert alpha == 5

    def test_certified_bound_on_corpus(self, corpus500):
        for g in corpus500[::3]:
            for k in (0, 1, 2, 3):
                ws, trace = algorithm2(g, k)
                assert verify_k_independent(g, ws.vertices, k)
                assert ws.size >= math.ceil(main_bound(g, k))

    def test_restart_records_decrease(self, corpus500):
        for g in corpus500[:40]:
            ws, trace = algorithm2(g, 1)
            restarts = [s for s in trace.steps if s[0] == "RESTART"]
            ds = [s[1] for s in restarts]
            assert all(a > b for a, b in zip(ds, ds[1:]))
            assert len(restarts) <= math.ceil(g.avg_degree()) + 1
            assert trace.steps[-1][0] == "PARTITION"

    def test_empty_graph(self):
        ws, trace = algorithm2(build(0, []), 2)
        assert ws.vertices == () and trace.steps == []

    def test_golden_trace_on_tight_instance(self):
        _, trace = algorithm2(j_graph(6), 1)
        assert trace.to_log() == "RESTART d=4 t=2 q=1\nPARTITION t=3\n"

    def test_log_grammar(self):
        g = disjoint_union(star(9), cycle(5))
        _, trace = algorithm2(g, 1)
        pattern = re.compile(
            r"(DEL \d+ deg=\d+|MOVE \d+ \d+->\d+ phi=-?\d+/\d+"
            r"|RESTART d=\d+ t=\d+ q=\d+|PARTITION t=\d+)"
        )
        for line in trace.to_log().splitlines():
            assert pattern.fullmatch(line), line


class TestDeterminism:
    def test_identical_runs(self, corpus200):
        for g in corpus200[:25]:
            for algo in (caro_tuza_greedy, algorithm1, algorithm2):
                w1, t1 = algo(g, 2)
                w2, t2 = algo(g, 2)
                assert w1 == w2
                assert t1.to_log() == t2.to_log()
                assert t1.potential_values == t2.potential_values

    def test_outputs_never_beat_oracle(self, corpus200):
        for g in corpus200[:40]:
            for k in (0, 1, 2):
                alpha, _ = alpha_k_exact(g, k)
                for algo in (caro_tuza_greedy, algorithm1, algorithm2):
                    ws, _ = algo(g, k)
                    assert ws.size <= alpha


def naive_deletion_order(g) -> list[tuple[int, int]]:
    """(vertex, live degree) pairs of the max-degree deletion order, found by
    rescanning every live vertex at each step, smallest index on ties."""
    deg = g.degrees()
    alive = [True] * g.n
    order = []
    for _ in range(g.n):
        v = max((u for u in range(g.n) if alive[u]), key=lambda u: (deg[u], -u))
        order.append((v, deg[v]))
        alive[v] = False
        for u in g.neighbors(v):
            deg[u] -= 1
    return order


class TestDeletionOrder:
    @staticmethod
    def assert_prefixes(g, k):
        order = naive_deletion_order(g)
        for algo in (caro_tuza_greedy, algorithm1, algorithm2):
            _, trace = algo(g, k)
            dels = [(s[1], s[2]) for s in trace.steps if s[0] == "DEL"]
            assert dels == order[: len(dels)], (algo.__name__, g, k)

    def test_prefix_of_reference_on_corpus(self, corpus200):
        for g in corpus200:
            for k in range(4):
                self.assert_prefixes(g, k)

    @pytest.mark.parametrize(
        "g",
        [complete(7), star(9), j_graph(10), copies(3, petersen())],
        ids=["complete7", "star9", "j10", "3petersen"],
    )
    def test_prefix_of_reference_on_ties(self, g):
        for k in range(4):
            self.assert_prefixes(g, k)


class TestLovaszLargestClass:
    def test_largest_class_of_equal_partition(self):
        g = petersen()
        witness, trace = lovasz_largest_class(g, 1)
        part = lovasz_equal(g, 1)
        assert witness.vertices == tuple(sorted(part.largest_class()))
        assert witness.k == 1 and verify_k_independent(g, witness.vertices, 1)
        assert trace.steps[-1] == ("PARTITION", len(part.classes))

    def test_empty_graph(self):
        witness, trace = lovasz_largest_class(build(0, []), 2)
        assert witness.vertices == () and trace.to_log() == ""

    def test_negative_k(self):
        with pytest.raises(GraphError):
            lovasz_largest_class(petersen(), -1)
