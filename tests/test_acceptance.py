"""Acceptance suite: one test per criterion, each timed against its budget
and printing a PASS line (run with `pytest tests/test_acceptance.py -s` to
see the lines as they complete)."""

import math
import time
from fractions import Fraction

import pytest

from kindep.algorithms import algorithm2, caro_tuza_greedy, lovasz_partition
from kindep.bounds import (
    caro_tuza_sum,
    f1_exact,
    main_bound,
    potential_f,
    table_f2,
    thm_first_approach_bound,
)
from kindep.cli import main
from kindep.generators import complete, j_graph, star, thm12_2, thm14_5, thm14_6, wagner_r8
from kindep.graph import build, copies, disjoint_union, verify_k_independent
from kindep.oracle import alpha_k_exact

from conftest import alpha_k_bruteforce


class Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.criterion}: {elapsed:.2f}s exceeded {self.seconds}s budget"
            )
            print(f"ACCEPTANCE {self.criterion}: PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.criterion}: FAIL ({elapsed:.2f}s)")
        return False


def test_criterion_1_potential_properties():
    with Budget("1 potential-properties", 1.0):
        for k in range(11):
            horizon = 3 * (k + 2)
            grid = [Fraction(i, 2) for i in range(2 * horizon + 1)]
            vals = [potential_f(k, x) for x in grid]
            # (P1) strictly decreasing, midpoint convex on the grid
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert all(
                vals[i - 1] + vals[i + 1] >= 2 * vals[i]
                for i in range(1, len(vals) - 1)
            )
            ints = [potential_f(k, i) for i in range(horizon + 2)]
            # (P2) differences shrink as the argument grows
            diffs = [a - b for a, b in zip(ints, ints[1:])]
            assert all(
                diffs[i] >= diffs[j]
                for i in range(len(diffs))
                for j in range(i, len(diffs))
            )
            # (P3) the recurrence on the decay branch
            for i in range(k + 1, horizon + 1):
                assert i * potential_f(k, i - 1) == (i + 1) * potential_f(k, i)
            # (P4) anchor values
            assert potential_f(k, 0) == 1
            assert potential_f(k, k + 1) == Fraction(1, 2)


def test_criterion_2_greedy_certificates(corpus500):
    with Budget("2 greedy-certificates", 30.0):
        for g in corpus500:
            for k in (0, 1, 2, 3):
                ws, trace = caro_tuza_greedy(g, k)
                assert verify_k_independent(g, ws.vertices, k)
                assert ws.size >= math.ceil(caro_tuza_sum(g, k))
                vals = trace.potential_values
                assert all(a <= b for a, b in zip(vals, vals[1:]))


def capacity_vectors(max_degree: int):
    vectors = [(0,) * (max_degree + 1)]
    for k in (1, 2, 3):
        if (max_degree + 1) % (k + 1) == 0:
            vectors.append((k,) * ((max_degree + 1) // (k + 1)))
    if max_degree >= 1:
        a = (max_degree - 1) // 2
        vectors.append((a, max_degree - 1 - a))
    if max_degree >= 2:
        a = (max_degree - 2) // 2
        vectors.append((0, a, max_degree - 2 - a))
    return vectors


def test_criterion_3_partitions(corpus500):
    with Budget("3 lovasz-partitions", 30.0):
        for g in corpus500:
            for caps in capacity_vectors(g.max_degree()):
                assert sum(c + 1 for c in caps) == g.max_degree() + 1
                part, trace = lovasz_partition(g, caps)
                assert sorted(v for c in part.classes for v in c) == list(range(g.n))
                for members, cap in zip(part.classes, caps):
                    mset = set(members)
                    assert all(
                        sum(1 for u in g.neighbor_set(v) if u in mset) <= cap
                        for v in members
                    )
                vals = trace.potential_values
                assert all(a > b for a, b in zip(vals, vals[1:]))


def test_criterion_4_main_theorem(corpus500):
    with Budget("4 main-theorem-algorithm", 60.0):
        for g in corpus500:
            for k in (0, 1, 2, 3):
                ws, _ = algorithm2(g, k)
                assert verify_k_independent(g, ws.vertices, k)
                assert ws.size >= math.ceil(main_bound(g, k))
        for d in (2, 4, 6, 8):
            g = j_graph(d + 2)
            ws, _ = algorithm2(g, 1)
            bound = main_bound(g, 1)
            assert bound == 2 and ws.size == 2


def test_criterion_5_first_approach_strict(corpus200):
    with Budget("5 first-approach-strict", 60.0):
        for g in corpus200:
            for k in (0, 1, 2, 3):
                alpha, _ = alpha_k_exact(g, k)
                assert alpha > thm_first_approach_bound(g, k)


def test_criterion_6_f1_exact_values():
    with Budget("6 f1-exact-extremal", 60.0):
        for d in (0, 2, 4, 6):
            g = j_graph(d + 2)
            alpha, _ = alpha_k_exact(g, 1)
            assert Fraction(alpha, g.n) == f1_exact(d)
        for d in (1, 3, 5):
            ja, jb = j_graph(d + 1), j_graph(d + 3)
            alpha_a, _ = alpha_k_exact(ja, 1)
            alpha_b, _ = alpha_k_exact(jb, 1)
            union = disjoint_union(copies(d + 3, ja), copies(d + 1, jb))
            # additivity over disjoint copies, cross-checked by enumeration
            # where the union is small enough and by branch-and-bound always
            alpha_union, _ = alpha_k_exact(union, 1, limit=100)
            assert alpha_union == (d + 3) * alpha_a + (d + 1) * alpha_b
            if union.n <= 16:
                assert alpha_union == alpha_k_bruteforce(union, 1)
            assert Fraction(alpha_union, union.n) == f1_exact(d)


def test_criterion_7_table_reproduction():
    with Budget("7 table-f2", 120.0):
        printed_lower = {
            0: Fraction(1), 1: Fraction(5, 6), 2: Fraction(2, 3),
            3: Fraction(1, 2), 4: Fraction(4, 9), 5: Fraction(7, 18),
            6: Fraction(1, 3), 7: Fraction(11, 36), 9: Fraction(1, 4),
            10: Fraction(7, 30),
        }
        printed_upper = {
            1: Fraction(5, 6), 2: Fraction(9, 13), 3: Fraction(3, 5),
            4: Fraction(1, 2), 5: Fraction(6, 13), 6: Fraction(2, 5),
            7: Fraction(6, 17), 8: Fraction(6, 19), 9: Fraction(2, 7),
            10: Fraction(6, 23),
        }
        rows = {r.d: r for r in table_f2()}
        for d, lower in printed_lower.items():
            assert rows[d].lower == lower, d
        for d, upper in printed_upper.items():
            assert rows[d].upper == upper, d
        assert rows[8].lower == Fraction(5, 18)
        assert rows[8].discrepancy and "5/13" in rows[8].discrepancy
        assert "5/18" in rows[8].discrepancy
        assert (rows[2].alpha, rows[2].n) == (9, 13)
        assert (rows[3].alpha, rows[3].n) == (3, 5)
        assert (rows[5].alpha, rows[5].n) == (6, 13)
        # upper bounds independently: closed formula on one side (already
        # cross-checked inside table_f2), direct oracle witness on the other
        for d in range(1, 11):
            assert rows[d].discrepancy is None or d == 8


def test_criterion_8_r8_example():
    with Budget("8 r8-union-example", 10.0):
        g = disjoint_union(wagner_r8(), copies(4, star(3)))
        alpha, ws = alpha_k_exact(g, 2)
        assert alpha == 17 and g.n == 24 and g.max_degree() == 3
        assert Fraction(alpha, g.n) == Fraction(17, 24)
        assert verify_k_independent(g, ws.vertices, 2)


def test_criterion_9_ratio_theorem(corpus200):
    with Budget("9 ratio-theorem", 120.0):
        for g in corpus200:
            alphas = [alpha_k_exact(g, k)[0] for k in range(4)]
            for p in range(4):
                for q in range(p, 4):
                    ratio = -((q + 1) // -(p + 1))
                    assert alphas[q] <= ratio * alphas[p]


def test_criterion_10_oracle_self_consistency(corpus100):
    with Budget("10 oracle-cross-check", 60.0):
        for g in corpus100:
            for k in (0, 1, 2, 3):
                bb, ws = alpha_k_exact(g, k)
                assert bb == alpha_k_bruteforce(g, k)
                assert verify_k_independent(g, ws.vertices, k)


def test_criterion_11_determinism(tmp_path, capsys):
    with Budget("11 determinism", 60.0):
        set_file = tmp_path / "set.txt"
        set_file.write_text("0 1\n")
        commands = [
            ["gen", "--family", "gnm:n=18,m=40,seed=9"],
            ["bound", "--family", "gnm:n=18,m=40,seed=9", "--k", "2",
             "--format", "json"],
            ["run", "--family", "gnm:n=18,m=40,seed=9", "--k", "2",
             "--algo", "alg2", "--format", "json"],
            ["run", "--family", "gnm:n=18,m=40,seed=9", "--k", "1",
             "--algo", "greedy", "--format", "csv"],
            ["exact", "--family", "gnm:n=14,m=30,seed=4", "--k", "2",
             "--format", "json"],
            ["verify", "--family", "complete:4", "--k", "1",
             "--set", str(set_file), "--format", "json"],
            ["table", "--format", "json"],
            ["table", "--format", "csv"],
            ["bench", "--family", "gnm:n=12,m=20", "--k", "1", "--reps", "6",
             "--seed", "21"],
            ["bench", "--family", "gnm:n=12,m=20", "--k", "1", "--reps", "6",
             "--seed", "21", "--format", "json"],
        ]
        for argv in commands:
            outputs = []
            for _ in range(2):
                code = main(list(argv))
                captured = capsys.readouterr()
                assert code == 0, argv
                outputs.append(captured.out.encode())
            assert outputs[0] == outputs[1], argv
