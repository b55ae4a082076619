import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kindep.algorithms as algorithms_module
from kindep.algorithms import (
    Partition,
    RunTrace,
    algorithm1,
    algorithm2,
    caro_tuza_greedy,
    lovasz_largest_class,
    lovasz_partition,
)
from kindep.bounds import (caro_tuza_sum, frac_str, main_bound, potential_f, residue_t,
                           thm_first_approach_bound)
from kindep.generators import complete, j_graph, random_gnm, star, thm12_2, thm14_5
from kindep.graph import (
    CertificateError,
    GraphError,
    WitnessSet,
    _peel,
    build,
    copies,
    disjoint_union,
    verify_k_independent,
)
from kindep.oracle import _adjacency_masks, _components, alpha_k_exact

from conftest import cycle, induced_subgraph, petersen


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

    @pytest.mark.parametrize("caps", [[1.5] * 4, ["2"] * 3, [1, -1, 2], []])
    def test_capacities_are_nonnegative_integers(self, caps):
        with pytest.raises(GraphError, match="^capacit"):
            lovasz_partition(petersen(), caps)

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


def frozen_violator_set_partition(g, caps):
    """The partition loop as it stood before the violator heap: a set of
    violators and a min() over it per move, a row of t class counts per
    vertex and one Fraction per move.  Returns the Partition, the steps and
    the potentials that `lovasz_partition` must reproduce."""
    caps = tuple(caps)
    t = len(caps)
    cls = [v % t for v in range(g.n)]
    deg_in = [[0] * t for _ in range(g.n)]
    for v in range(g.n):
        for u in g.neighbors(v):
            deg_in[v][cls[u]] += 1
    scale = math.lcm(*(c + 1 for c in caps))
    weight = [scale // (c + 1) for c in caps]
    phi = sum(deg_in[v][cls[v]] * weight[cls[v]] for v in range(g.n)) // 2
    steps, values = [], [Fraction(phi, scale)]
    violating = {v for v in range(g.n) if deg_in[v][cls[v]] > caps[cls[v]]}
    while violating:
        v = min(violating)
        i = cls[v]
        j = min(range(t), key=lambda c: (deg_in[v][c] * weight[c], c))
        phi += deg_in[v][j] * weight[j] - deg_in[v][i] * weight[i]
        cls[v] = j
        for u in g.neighbors(v):
            deg_in[u][i] -= 1
            deg_in[u][j] += 1
            if deg_in[u][cls[u]] > caps[cls[u]]:
                violating.add(u)
            else:
                violating.discard(u)
        if deg_in[v][j] > caps[j]:
            violating.add(v)
        else:
            violating.discard(v)
        steps.append(("MOVE", v, i, j))
        values.append(Fraction(phi, scale))
    classes = tuple(tuple(v for v in range(g.n) if cls[v] == c) for c in range(t))
    return Partition(classes, caps), steps, values


def frozen_log(steps, values) -> str:
    """`RunTrace.to_log` as it stood when the trace held Fractions."""
    lines = []
    phis = iter(values[1:])
    for step in steps:
        tag = step[0]
        if tag == "DEL":
            lines.append(f"DEL {step[1]} deg={step[2]}")
        elif tag == "MOVE":
            lines.append(f"MOVE {step[1]} {step[2]}->{step[3]} phi={frac_str(next(phis))}")
        elif tag == "RESTART":
            lines.append(f"RESTART d={step[1]} t={step[2]} q={step[3]}")
        else:
            lines.append(f"PARTITION t={step[1]}")
    return "\n".join(lines) + ("\n" if lines else "")


def assert_same_run(got, want):
    (out, trace), (want_out, want_steps, want_values) = got, want
    assert out == want_out
    assert trace.steps == want_steps
    assert trace.potential_values == want_values
    assert trace.to_log() == frozen_log(want_steps, want_values)


class TestAgainstFrozenPartition:
    def assert_same(self, g, caps):
        assert_same_run(lovasz_partition(g, caps), frozen_violator_set_partition(g, caps))

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_equal_capacities(self, corpus200, k):
        for g in corpus200:
            self.assert_same(g, [k] * -((g.max_degree() + 1) // -(k + 1)))

    def test_unequal_capacities(self, corpus200):
        for index, g in enumerate(corpus200):
            # Capacities cycle through 0, 1, 2 from a per-graph offset until
            # their sum(cap + 1) reaches max degree + 1.
            caps = []
            while sum(c + 1 for c in caps) < g.max_degree() + 1:
                caps.append((index + len(caps)) % 3)
            self.assert_same(g, caps)

    @pytest.mark.parametrize("n", [100, 400, 1600])
    def test_larger_gnm(self, n):
        for seed in range(3):
            g = random_gnm(n, 3 * n, seed)
            for k in range(3):
                self.assert_same(g, [k] * -((g.max_degree() + 1) // -(k + 1)))


def largest_class_and_t(g, k):
    """`lovasz_largest_class`'s set and the class count t of its PARTITION step."""
    witness, trace = lovasz_largest_class(g, k)
    tag, t = trace.steps[-1]
    assert tag == "PARTITION"
    return witness, t


class TestLovaszEqual:
    """The equal-capacity partition: t = ceil((max_degree+1)/(k+1)) classes of capacity k."""

    def test_k4_two_classes(self):
        witness, t = largest_class_and_t(complete(4), 1)
        assert t == 2 and witness.size == 2
        assert verify_k_independent(complete(4), witness.vertices, 1)
        part, _ = lovasz_partition(complete(4), [1] * 2)
        assert len(part.classes) == 2 and covers_vertices(complete(4), part)

    def test_cubic_two_classes(self):
        g = petersen()
        witness, t = largest_class_and_t(g, 1)
        assert t == 2 and witness.size >= 5
        assert verify_k_independent(g, witness.vertices, 1)
        part, _ = lovasz_partition(g, [1] * 2)
        assert len(part.classes) == 2
        assert class_degrees_ok(g, part) and covers_vertices(g, part)

    def test_edgeless_single_class(self):
        witness, t = largest_class_and_t(build(7, []), 0)
        assert t == 1 and witness.vertices == tuple(range(7))
        part, _ = lovasz_partition(build(7, []), [0] * 1)
        assert part.classes == (tuple(range(7)),)

    def test_class_count_formula(self, corpus200):
        for g in corpus200[:40]:
            for k in (0, 1, 2):
                t = -((g.max_degree() + 1) // -(k + 1))
                witness, logged_t = largest_class_and_t(g, k)
                assert logged_t == t
                assert witness.size >= -(-g.n // t)
                assert verify_k_independent(g, witness.vertices, k)
                part, _ = lovasz_partition(g, [k] * t)
                assert len(part.classes) == t
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

    def test_restriction_to_a_component(self):
        # The greedy's set on G, restricted to a component, is its set on that
        # component alone, so alpha_k_exact's first record on each component,
        # the greedy's set on that component, is the greedy's set on G there.
        for n in range(8, 20):
            for c in (1, 2, 3):
                g = disjoint_union(random_gnm(n, c * n // 2, 50 + n), random_gnm(n, c * n, 90 + n))
                for k in range(4):
                    whole = set(caro_tuza_greedy(g, k)[0].vertices)
                    for comp in _components(_adjacency_masks(g)):
                        sub, mapping = induced_subgraph(g, comp)
                        alone = [mapping[v] for v in caro_tuza_greedy(sub, k)[0].vertices]
                        assert sorted(whole.intersection(comp)) == alone, (n, c, k)


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


class TestMoveIndexSpace:
    """In Algorithm 1 and 2 traces, DEL lines name input vertices and MOVE
    lines name ranks among the vertices left after the deletions."""

    @pytest.mark.parametrize("algo", [algorithm1, algorithm2])
    def test_tail_is_the_survivors_partition_log(self, corpus200, algo):
        for g in corpus200:
            for k in range(3):
                witness, trace = algo(g, k)
                lines = trace.to_log().splitlines(keepends=True)
                deleted = {int(line.split()[1]) for line in lines if line.startswith("DEL ")}
                assert deleted.isdisjoint(witness.vertices)
                tail = max((i + 1 for i, line in enumerate(lines)
                            if line.startswith(("DEL ", "RESTART "))), default=0)
                sub, _ = induced_subgraph(g, set(range(g.n)) - deleted)
                _, sub_trace = lovasz_largest_class(sub, k)
                assert "".join(lines[tail:]) == sub_trace.to_log()

    def test_move_names_a_survivor_rank(self):
        g = random_gnm(30, 120, 3)
        _, trace = algorithm1(g, 1)
        deleted = {step[1] for step in trace.steps if step[0] == "DEL"}
        survivors = [v for v in range(g.n) if v not in deleted]
        assert ("MOVE", 3, 0, 1) in trace.steps and survivors[3] == 4


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


def naive_deletion_order(g):
    """`_peel`'s states (v, deg, n_alive, sum_deg, live_deg), found by
    rescanning every vertex at each step for the first of largest live
    degree; live_deg is updated in place and reads -1 at deleted vertices."""
    deg = g.degrees()
    n_alive, sum_deg = g.n, sum(deg)
    while n_alive:
        d = max(deg)
        v = deg.index(d)
        yield v, d, n_alive, sum_deg, deg
        n_alive -= 1
        sum_deg -= 2 * d
        deg[v] = -1
        for u in g.neighbors(v):
            if deg[u] >= 0:
                deg[u] -= 1


class TestDeletionOrder:
    @staticmethod
    def assert_prefixes(g, k):
        order = [state[:2] for state in naive_deletion_order(g)]
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


def naive_order(g) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`naive_deletion_order`'s (v, deg) sequence in `_peel`'s shape."""
    pairs = [state[:2] for state in naive_deletion_order(g)]
    return tuple(v for v, _ in pairs), tuple(d for _, d in pairs)


def stopping_live_deg(g, k) -> list[int]:
    """live_deg of `naive_deletion_order` where the greedy stops, at the
    first state of degree <= k (the last vertex has degree 0, so only the
    empty graph has none)."""
    return next((list(deg) for _, d, _, _, deg in naive_deletion_order(g) if d <= k), [])


def deletions_above(g, k) -> list[int]:
    """The vertices `_peel` deletes before its first of degree <= k."""
    order, degs = _peel(g)
    return list(order[:next((i for i, d in enumerate(degs) if d <= k), len(degs))])


# (n, m, seed) of a random gnm graph with n up to 30.
gnm_cases = st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n * (n - 1) // 2), st.integers(0, 2**16)))


class TestPeelTrajectory:
    @staticmethod
    def assert_same(g):
        assert _peel(g) == naive_order(g), g

    def test_corpus(self, corpus500):
        for g in corpus500:
            self.assert_same(g)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_edgeless(self, n):
        g = build(n, [])
        self.assert_same(g)
        assert _peel(g) == (tuple(range(n)), (0,) * n)

    @pytest.mark.parametrize(
        "g",
        [complete(9), star(12), j_graph(10), copies(4, petersen()), thm14_5(4, 2)],
        ids=["complete9", "star12", "j10", "4petersen", "thm14_5"],
    )
    def test_ties(self, g):
        self.assert_same(g)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(gnm_cases)
    def test_random_gnm(self, case):
        self.assert_same(random_gnm(*case))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(gnm_cases, min_size=1, max_size=4), st.integers(0, 3))
    def test_deletions_restrict_to_each_component(self, cases, k):
        # The whole graph's deletions of degree > k that fall in a component
        # are the component's own: alpha_k_exact's promise that its first
        # record on a component is the greedy's set on G there relies on it.
        g = disjoint_union(*(random_gnm(*case) for case in cases))
        whole = deletions_above(g, k)
        for comp in _components(_adjacency_masks(g)):
            sub, mapping = induced_subgraph(g, comp)
            inside = set(comp)
            assert [v for v in whole if v in inside] == \
                [mapping[v] for v in deletions_above(sub, k)], (cases, k)

    def test_greedy_set_is_live_part_of_stopping_state(self, corpus200):
        for g in corpus200:
            for k in range(4):
                live = stopping_live_deg(g, k)
                witness, _ = caro_tuza_greedy(g, k)
                assert witness.vertices == tuple(v for v, d in enumerate(live) if d >= 0)


class TestSharedOrder:
    """One `Graph` walks its deletion order once, whichever deletion
    algorithms and k read it, and a run reads the same as on a fresh graph."""

    @pytest.mark.parametrize("make", [lambda: random_gnm(60, 240, 5),
                                      lambda: copies(3, petersen())], ids=["gnm", "3petersen"])
    def test_one_walk_for_mixed_calls(self, make):
        calls = [(algo, k) for k in range(4) for algo in (caro_tuza_greedy, algorithm1, algorithm2)]
        random.Random(3).shuffle(calls)
        g, walks = make(), []

        def watching_peel(graph):
            walks.append(graph._order is None)
            return _peel(graph)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algorithms_module, "_peel", watching_peel)
            runs = [algo(g, k) for algo, k in calls]
        assert walks == [True] + [False] * (len(calls) - 1)
        for (algo, k), (witness, trace) in zip(calls, runs):
            fresh_witness, fresh_trace = algo(make(), k)
            assert witness == fresh_witness, (algo.__name__, k)
            assert trace.steps == fresh_trace.steps
            assert trace.potential_values == fresh_trace.potential_values
            assert trace.to_log() == fresh_trace.to_log()
        fresh = make()
        assert fresh._order is None and g == fresh and hash(g) == hash(fresh)

    def test_cached_tuples_are_returned_again(self):
        g = random_gnm(30, 60, 1)
        order = _peel(g)
        assert type(order[0]) is type(order[1]) is tuple
        assert _peel(g) is order and g._order is order

    def test_greedy_checks_the_cached_degrees(self):
        # A cached degree that the greedy's own replay does not reach is a
        # CertificateError, not a wrong witness.
        g = star(5)
        order, degs = _peel(g)
        g._order = (order, (degs[0] - 1,) + degs[1:])
        with pytest.raises(CertificateError, match="^vertex 0 has live degree 5, the order says 4$"):
            caro_tuza_greedy(g, 0)


def frozen_partition_step(g, k, steps):
    """`_partition_step` as it stood before the rank-space core: the
    survivors of the DEL steps copied by `induced_subgraph`, then partitioned
    by `frozen_violator_set_partition`.  With no steps it is `lovasz_largest_class`."""
    gone = {step[1] for step in steps if step[0] == "DEL"}
    sub, mapping = induced_subgraph(g, (v for v in range(g.n) if v not in gone))
    if sub.n == 0:
        return WitnessSet((), k), list(steps), []
    part, moves, values = frozen_violator_set_partition(
        sub, [k] * -((sub.max_degree() + 1) // -(k + 1)))
    witness = WitnessSet(tuple(mapping[v] for v in part.largest_class()), k)
    return witness, steps + moves + [("PARTITION", len(part.classes))], values


def frozen_caro_tuza_greedy(g, k):
    """The greedy as it stood before integer potentials: a second walk over
    the deleted vertex's neighbours, one Fraction per deletion."""
    if g.n == 0:
        return WitnessSet((), k), [], []
    values = [potential_f(k, d) for d in range(g.max_degree() + 1)]
    scale = math.lcm(*(v.denominator for v in values))
    w = [int(v * scale) for v in values]
    s = sum(w[d] for d in g.degrees())
    steps, potentials = [], [Fraction(s, scale)]
    for v, d, _, _, deg in naive_deletion_order(g):
        if d <= k:
            break
        for u in g.neighbors(v):
            if deg[u] >= 0:
                s += w[deg[u] - 1] - w[deg[u]]
        s -= w[d]
        steps.append(("DEL", v, d))
        potentials.append(Fraction(s, scale))
    return WitnessSet(tuple(u for u, du in enumerate(deg) if du >= 0), k), steps, potentials


def frozen_algorithm1(g, k):
    steps = []
    for v, d, n_alive, sum_deg, _ in naive_deletion_order(g):
        if d <= -(-sum_deg // n_alive) + k:
            break
        steps.append(("DEL", v, d))
    return frozen_partition_step(g, k, steps)


def frozen_algorithm2(g, k):
    """`algorithm2` as it stood before its early stop and its one pass: it
    records the whole deletion trajectory down to the empty graph, then logs
    the states up to the best one in a second pass."""
    if g.n == 0:
        return WitnessSet((), k), [], []
    states = [(v, d, n_alive, sum_deg) for v, d, n_alive, sum_deg, _ in naive_deletion_order(g)]
    predicted = [-(-n_alive // -((d + 1) // -(k + 1))) for _, d, n_alive, _ in states]
    best = predicted.index(max(predicted))
    steps, round_d = [], None
    for i, (v, deg, n_alive, sum_deg) in enumerate(states[: best + 1]):
        d = -(-sum_deg // n_alive)
        if round_d is None or d < round_d:
            round_d = d
            t = residue_t(k, d)
            steps.append(("RESTART", d, t, -(-n_alive // (d + 2 * t + 1))))
        if i < best:
            steps.append(("DEL", v, deg))
    return frozen_partition_step(g, k, steps)


class ReadCounter:
    """An iterable over `items` that counts the items it hands out.  A reader
    has to walk it from the front: an index or a slice must start at an
    item already walked, and is not counted, so the survivors' slice that
    starts where the walk stopped is allowed, but no read starts past it."""

    def __init__(self, items):
        self.items, self.read = items, 0

    def __iter__(self):
        for x in self.items:
            self.read += 1
            yield x

    def __getitem__(self, key):
        start = key.start or 0 if isinstance(key, slice) else key
        assert 0 <= start < self.read, f"read from {start} after walking {self.read}"
        return self.items[key]


def states_taken(algo, g, k):
    """`algo(g, k)` and the number of deletion states it read from `_peel`."""
    counters = []

    def counting_peel(graph):
        counters[:] = map(ReadCounter, _peel(graph))
        return tuple(counters)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms_module, "_peel", counting_peel)
        result = algo(g, k)
    return result, max((c.read for c in counters), default=0)


def assert_algorithm2_same(g, k):
    got, states = states_taken(algorithm2, g, k)
    assert_same_run(got, frozen_algorithm2(g, k))
    assert states <= len(caro_tuza_greedy(g, k)[1].steps) + 1


@st.composite
def gnm_with_caps(draw):
    """A random gnm graph and capacities whose sum(cap + 1) is max degree + 1
    plus 0..3."""
    n = draw(st.integers(1, 30))
    g = random_gnm(n, draw(st.integers(0, n * (n - 1) // 2)), draw(st.integers(0, 2**16)))
    target = g.max_degree() + 1 + draw(st.integers(0, 3))
    caps = []
    while sum(c + 1 for c in caps) < target:
        caps.append(min(draw(st.integers(0, 4)), target - sum(c + 1 for c in caps) - 1))
    return g, caps


class TestAgainstFrozenEntryPoints:
    """Every entry point gives the same witness or partition, steps,
    potentials and log as the frozen copies above."""

    @staticmethod
    def assert_same(g, k):
        caps = [k] * -((g.max_degree() + 1) // -(k + 1))
        assert_same_run(lovasz_partition(g, caps), frozen_violator_set_partition(g, caps))
        assert_same_run(lovasz_largest_class(g, k), frozen_partition_step(g, k, []))
        assert_same_run(caro_tuza_greedy(g, k), frozen_caro_tuza_greedy(g, k))
        assert_same_run(algorithm1(g, k), frozen_algorithm1(g, k))
        assert_algorithm2_same(g, k)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_corpus(self, corpus500, k):
        for g in corpus500:
            self.assert_same(g, k)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_edgeless(self, n):
        for k in range(4):
            self.assert_same(build(n, []), k)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(gnm_with_caps())
    def test_unequal_capacities(self, case):
        g, caps = case
        assert_same_run(lovasz_partition(g, caps), frozen_violator_set_partition(g, caps))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(gnm_cases, st.integers(0, 3))
    def test_algorithm2_early_stop(self, case, k):
        assert_algorithm2_same(random_gnm(*case), k)


class TestRunTrace:
    def test_potentials_are_reduced_when_read(self):
        trace = RunTrace()
        trace.scale, trace.numerators = 6, [12, 3, 0]
        trace.steps = [("MOVE", 4, 0, 1), ("MOVE", 2, 1, 0)]
        assert trace.to_log() == "MOVE 4 0->1 phi=1/2\nMOVE 2 1->0 phi=0/1\n"
        assert trace.potential_values == [2, Fraction(1, 2), 0]
        assert all(type(x) is Fraction for x in trace.potential_values)


class TestLovaszLargestClass:
    def test_largest_class_of_equal_partition(self):
        g = petersen()
        witness, trace = lovasz_largest_class(g, 1)
        part, part_trace = lovasz_partition(g, [1] * 2)
        assert witness.vertices == part.largest_class()
        assert witness.k == 1 and verify_k_independent(g, witness.vertices, 1)
        assert trace.steps == part_trace.steps + [("PARTITION", 2)]
        assert trace.potential_values == part_trace.potential_values

    def test_empty_graph(self):
        witness, trace = lovasz_largest_class(build(0, []), 2)
        assert witness.vertices == () and trace.to_log() == ""

    def test_negative_k(self):
        with pytest.raises(GraphError):
            lovasz_largest_class(petersen(), -1)
