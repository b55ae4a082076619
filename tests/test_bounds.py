import hashlib
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kindep.bounds import (
    bound_report,
    caro_tuza_sum,
    corollary_avg,
    corollary_halfbound,
    f1_exact,
    f_lower,
    f_upper_catalog,
    frac_str,
    hopkins_staton,
    main_bound,
    potential_f,
    residue_t,
    table_f2,
    theorem6_check,
    thm_first_approach_bound,
    witness_ratio,
)
from kindep.generators import (
    complete,
    j_graph,
    random_gnm,
    star,
    thm12_2,
    thm14_5,
    thm14_6,
    wagner_r8,
)
from kindep.graph import GraphError, build, copies, disjoint_union
from kindep.oracle import DEFAULT_ALPHA_LIMIT, OracleLimitError, alpha_k_exact

from conftest import alpha_k_bruteforce, cycle, petersen


class TestPotential:
    @pytest.mark.parametrize("k", range(6))
    def test_value_at_zero(self, k):
        assert potential_f(k, 0) == 1

    @pytest.mark.parametrize("k", range(6))
    def test_value_at_breakpoint(self, k):
        assert potential_f(k, k + 1) == Fraction(1, 2)
        low = 1 - Fraction(k + 1, 2 * (k + 1))
        high = Fraction(k + 2, 2 * (k + 2))
        assert low == high == Fraction(1, 2)

    def test_caro_wei_term(self):
        assert potential_f(0, 3) == Fraction(1, 4)

    def test_rational_argument(self):
        assert potential_f(1, Fraction(12, 7)) == 1 - Fraction(12, 7) / 4

    def test_negative_rejected(self):
        with pytest.raises(GraphError, match=r"^potential undefined for negative x=-1$"):
            potential_f(2, -1)
        with pytest.raises(GraphError):
            potential_f(-1, 2)


class TestDegreeSequenceBound:
    def test_clique(self):
        assert caro_tuza_sum(complete(4), 1) == Fraction(3, 2)

    def test_edgeless(self):
        for n in (1, 5, 9):
            assert caro_tuza_sum(build(n, []), 3) == n

    def test_five_cycle(self):
        assert caro_tuza_sum(cycle(5), 0) == Fraction(5, 3)
        assert alpha_k_bruteforce(cycle(5), 0) == 2

    def test_average_degree_corollaries(self):
        assert corollary_avg(complete(4), 0) == 1
        assert corollary_halfbound(complete(4), 1) == Fraction(3, 2)

    def test_halfbound_applicability_flag(self):
        report = bound_report(star(2), 3)
        row = next(r for r in report.rows if r.name == "corollary_halfbound")
        assert not row.applicable

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 40), st.integers(0, 3),
           st.integers(0, 2**32))
    def test_degree_sum_dominates_average_form(self, n, m, k, seed):
        g = random_gnm(n, min(m, n * (n - 1) // 2), seed)
        assert caro_tuza_sum(g, k) >= corollary_avg(g, k)


class TestHopkinsStaton:
    def test_cubic_graph(self):
        assert hopkins_staton(petersen(), 1) == 5

    @pytest.mark.parametrize("d,k", [(3, 1), (5, 2), (7, 3)])
    def test_clique_divisible(self, d, k):
        if (d + 1) % (k + 1) == 0:
            assert hopkins_staton(complete(d + 1), k) == k + 1

    def test_five_cycle(self):
        assert hopkins_staton(cycle(5), 1) == Fraction(5, 2)
        alpha, _ = alpha_k_exact(cycle(5), 1)
        assert alpha == 3


class TestRatioTheorem:
    def test_five_cycle(self):
        assert theorem6_check(cycle(5), 0, 1)

    def test_equal_parameters(self):
        assert theorem6_check(wagner_r8(), 2, 2)

    def test_small_sweep(self):
        for i in range(20):
            g = random_gnm(4 + i % 8, (i * 3) % 12, 4200 + i)
            for p in range(3):
                for q in range(p, 4):
                    assert theorem6_check(g, p, q)

    def test_rejects_bad_order(self):
        with pytest.raises(GraphError, match=r"^need 0 <= p <= q, got p=2, q=1$"):
            theorem6_check(cycle(5), 2, 1)


class TestClosedFormBounds:
    def test_first_approach_examples(self):
        assert thm_first_approach_bound(complete(2), 0) == Fraction(2, 3)
        assert thm_first_approach_bound(build(6, []), 2) == 3
        assert thm_first_approach_bound(j_graph(6), 1) == Fraction(3, 2)

    def test_main_bound_examples(self):
        assert main_bound(j_graph(6), 1) == 2
        for d, k in [(3, 1), (4, 2), (6, 2)]:
            g = complete(d + 1)
            alpha, _ = alpha_k_exact(g, k)
            assert alpha >= main_bound(g, k)

    def test_degree_sum_checks_k_on_the_empty_graph(self):
        # The empty sum calls no potential_f, so it used to answer 0.
        with pytest.raises(GraphError, match=r"^k must be nonnegative, got -1$"):
            caro_tuza_sum(build(0, []), -1)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 14), st.integers(0, 50), st.integers(0, 3),
           st.integers(0, 2**32))
    def test_main_dominates_first_approach(self, n, m, k, seed):
        g = random_gnm(n, min(m, n * (n - 1) // 2), seed)
        assert main_bound(g, k) >= thm_first_approach_bound(g, k)

    def test_residue_examples(self):
        assert residue_t(2, 2) == 1
        assert residue_t(2, 6) == 3
        for k in range(6):
            assert residue_t(k, 0) == k + 1

    def test_residue_defining_congruence(self):
        for k in range(8):
            for d in range(30):
                t = residue_t(k, d)
                assert 1 <= t <= k + 1
                assert (d - (k + 1 - t)) % (k + 1) == 0

    def test_f_lower_values(self):
        assert f_lower(2, 2) == Fraction(2, 3)
        assert f_lower(2, 7) == Fraction(11, 36)
        assert f_lower(2, 8) == Fraction(5, 18)
        for k in range(1, 8):
            assert f_lower(k, 1) == Fraction(2 * k + 1, 2 * k + 2)

    def test_f_lower_weak_form(self):
        for k in range(31):
            for d in range(31):
                assert f_lower(k, d) >= Fraction(k + 1, d + k + 1)

    def test_f_lower_small_degree_specialization(self):
        for k in range(12):
            for d in range(k + 1):
                assert f_lower(k, d) == Fraction(2 * k + 2 - d, 2 * k + 2)

    def test_f1_values(self):
        assert f1_exact(0) == 1
        assert f1_exact(1) == Fraction(3, 4)
        assert f1_exact(4) == Fraction(1, 3)
        alpha, _ = alpha_k_exact(j_graph(6), 1)
        assert Fraction(alpha, 6) == f1_exact(4)

    def test_f1_convexity(self):
        for d in range(21):
            for t in range(d + 1):
                assert 2 * f1_exact(d) <= f1_exact(d - t) + f1_exact(d + t)

    def test_f1_rejects_negative_d(self):
        with pytest.raises(GraphError, match=r"^d must be nonnegative, got -1$"):
            f1_exact(-1)

    def test_f1_even_floor(self):
        for d in range(25):
            assert f1_exact(d) >= Fraction(2, d + 2)


class TestUpperCatalog:
    def test_k2_d3_chain(self):
        catalog = f_upper_catalog(2, 3)
        row = next(r for r in catalog if r.name == "item5_k2_chain")
        assert row.applicable and row.value == Fraction(3, 5) and "q=0" in row.note

    def test_k2_d2_sparse(self):
        catalog = f_upper_catalog(2, 2)
        row = next(r for r in catalog if r.name == "item6_d2")
        assert row.applicable and row.value == Fraction(9, 13)

    def test_one_factor_item_matches_exact_value(self):
        catalog = f_upper_catalog(1, 2)
        row = next(r for r in catalog if r.name == "item2_minus_1factor")
        assert row.applicable and row.value == Fraction(1, 2) == f1_exact(2)

    def test_asymptotic_item_has_no_value(self):
        for k, d in [(3, 5), (6, 100)]:
            catalog = f_upper_catalog(k, d)
            row = next(r for r in catalog if r.name == "item7_asymptotic")
            assert row.applicable and row.value is None
        row = next(
            r for r in f_upper_catalog(2, 5) if r.name == "item7_asymptotic"
        )
        assert not row.applicable

    def test_high_girth_item_threshold(self):
        # Item 4 first applies at d = 2 h(k) - k - 1: h(3) = 64, h(4) = 1093.
        for k, d, value in [(3, 122, Fraction(5, 126)), (4, 2181, Fraction(3, 1093))]:
            ok = next(r for r in f_upper_catalog(k, d) if r.name == "item4_high_girth")
            assert ok.applicable and ok.value == value
            edge = next(r for r in f_upper_catalog(k, d - 1) if r.name == "item4_high_girth")
            assert not edge.applicable and edge.value is None

    def test_high_girth_item_for_huge_k(self):
        # h(k) has about k log k digits; the check stops adding its terms
        # once they pass d, so a k of ten million costs a few steps.
        start = time.perf_counter()
        row = next(r for r in f_upper_catalog(10**7, 5) if r.name == "item4_high_girth")
        assert time.perf_counter() - start < 1
        assert not row.applicable and row.value is None

    def test_catalogue_digest(self):
        # The rows for k = 0..7 and d = 0..300, item 4's first threshold
        # (3, 122) among them, frozen before the catalogue became one table.
        digest = hashlib.sha256()
        for k in range(8):
            for d in range(301):
                digest.update(repr(f_upper_catalog(k, d)).encode())
        assert digest.hexdigest() == (
            "635ab66ebaaf9eb124a3f53b0b7c963ed7b22bff46095f1ba6a6f88e5c0d85cc")

    def test_sandwich_against_lower(self):
        for k in range(7):
            for d in range(21):
                lower = f_lower(k, d)
                for row in f_upper_catalog(k, d):
                    if row.applicable and row.value is not None:
                        assert lower <= row.value, (k, d, row.name)


class TestWitnessRatio:
    def test_r8_with_stars(self):
        g = disjoint_union(wagner_r8(), copies(4, star(3)))
        wr = witness_ratio(g, 2, 2)
        assert wr.value == Fraction(17, 24) and wr.max_degree == 3

    def test_sparse_witness(self):
        wr = witness_ratio(thm14_6(2), 2, 2)
        assert wr.value == Fraction(9, 13)

    @pytest.mark.parametrize("d,k", [(2, 0), (3, 1), (5, 2)])
    def test_clique_witness(self, d, k):
        wr = witness_ratio(complete(d + 1), k, d)
        assert wr.value == Fraction(k + 1, d + 1)

    def test_degree_precondition(self):
        with pytest.raises(GraphError):
            witness_ratio(complete(5), 1, 3)

    def test_witness_over_oracle_cap(self):
        with pytest.raises(OracleLimitError):
            witness_ratio(build(DEFAULT_ALPHA_LIMIT + 1, []), 0, 0)


@pytest.fixture(scope="module")
def rows():
    return table_f2()


class TestTable:

    def test_row_d4(self, rows):
        assert rows[4].lower == Fraction(4, 9) and rows[4].upper == Fraction(1, 2)

    def test_row_d10(self, rows):
        assert rows[10].lower == Fraction(7, 30) and rows[10].upper == Fraction(6, 23)

    def test_row_d8_flagged(self, rows):
        assert rows[8].lower == Fraction(5, 18)
        assert rows[8].discrepancy and "5/13" in rows[8].discrepancy
        assert all(r.discrepancy is None for r in rows if r.d != 8)

    def test_named_witness_values(self, rows):
        assert (rows[2].alpha, rows[2].n) == (9, 13)
        assert (rows[3].alpha, rows[3].n) == (3, 5)
        assert (rows[5].alpha, rows[5].n) == (6, 13)


class TestReportSerialization:
    def test_json_fractions_are_strings(self):
        doc = bound_report(j_graph(6), 1).to_json_dict()
        assert doc["inputs"]["avg_degree"] == "4/1"
        for row in doc["rows"]:
            if row["value"] is not None:
                num, den = row["value"].split("/")
                int(num), int(den)

    def test_no_floats_anywhere(self):
        text = bound_report(cycle(5), 1).to_json()
        assert not any(
            isinstance(v, float) for v in json.loads(text)["rows"][0].values()
        )

    def test_text_contains_ceilings(self):
        text = bound_report(j_graph(6), 1).to_text()
        assert "main_bound" in text and "ceil=2" in text

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError, match="^bounds are undefined on the empty graph$"):
            bound_report(build(0, []), 1)

    def test_frac_str(self):
        assert frac_str(Fraction(3, 2)) == "3/2"
        assert frac_str(Fraction(4)) == "4/1"


def test_oracle_dominates_all_lower_bounds(corpus200):
    for g in corpus200:
        for k in (0, 1, 2, 3):
            alpha, _ = alpha_k_exact(g, k)
            assert alpha >= caro_tuza_sum(g, k)
            assert alpha >= hopkins_staton(g, k)
            assert alpha >= main_bound(g, k)
