import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kindep import generators
from kindep.formats import dumps_edge_list
from kindep.generators import (
    FamilySpec,
    blend,
    complete,
    complete_minus_clique,
    complete_minus_cycle,
    j_graph,
    make_graph,
    parse_family,
    random_gnm,
    star,
    thm10_odd,
    thm12_2,
    thm14_5,
    thm14_6,
    wagner_r8,
)
from kindep.graph import GraphError, build, disjoint_union, girth
from kindep.oracle import alpha_k_exact

from conftest import alpha_k_bruteforce


class TestBasicFamilies:
    def test_complete_single_vertex(self):
        g = complete(1)
        assert g.n == 1 and g.edge_count() == 0

    def test_complete_four(self):
        g = complete(4)
        assert g.edge_count() == 6 and set(g.degrees()) == {3}

    @pytest.mark.parametrize("d,k", [(2, 0), (3, 1), (4, 2), (5, 3), (8, 2)])
    def test_clique_k_independence(self, d, k):
        alpha, _ = alpha_k_exact(complete(d + 1), k)
        assert alpha == k + 1

    def test_j4_is_a_four_cycle(self):
        g = j_graph(4)
        assert set(g.edges()) == {(0, 2), (0, 3), (1, 2), (1, 3)}
        assert girth(g) == 4

    def test_j6_values(self):
        g = j_graph(6)
        assert g.avg_degree() == 4
        alpha, _ = alpha_k_exact(g, 1)
        assert alpha == 2

    def test_j2_is_edgeless(self):
        g = j_graph(2)
        assert g.n == 2 and g.edge_count() == 0

    def test_j_rejects_odd_order(self):
        with pytest.raises(GraphError):
            j_graph(5)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_j_regularity(self, n):
        assert set(j_graph(n).degrees()) == {n - 2}

    def test_clique_removal_degrees(self):
        g = complete_minus_clique(5, 3)
        assert sorted(g.degrees()) == [2, 2, 2, 4, 4]
        assert g.edge_count() == 7
        assert g.avg_degree() == Fraction(14, 5)

    @pytest.mark.parametrize("n", [4, 5, 6, 8])
    def test_cycle_removal_regularity(self, n):
        assert set(complete_minus_cycle(n).degrees()) == {n - 3}

    def test_star_center_degree(self):
        assert star(3).degree(0) == 3

    def test_parameter_validation(self):
        with pytest.raises(GraphError):
            complete_minus_clique(3, 4)
        with pytest.raises(GraphError):
            complete_minus_cycle(2)
        with pytest.raises(GraphError):
            star(-1)
        with pytest.raises(GraphError, match=r"^n must be nonnegative, got -1$"):
            complete(-1)

    @pytest.mark.parametrize("call,message", [
        (lambda: complete(1.5), r"^n must be an integer, got 1\.5$"),
        (lambda: random_gnm(3.5, 1, 1), r"^n must be an integer, got 3\.5$"),
        (lambda: random_gnm(3, 1.5, 1), r"^m must be an integer, got 1\.5$"),
        (lambda: random_gnm(3, 1, 1.5), r"^seed must be an integer, got 1\.5$"),
    ], ids=["complete", "gnm-n", "gnm-m", "gnm-seed"])
    def test_integer_parameters(self, call, message):
        # Each used to die in a TypeError from range() or the PRNG.
        with pytest.raises(GraphError, match=message):
            call()


class TestWagnerR8:
    def test_shape(self):
        g = wagner_r8()
        assert g.n == 8 and g.edge_count() == 12
        assert set(g.degrees()) == {3}

    def test_girth_matches_exhaustive_search(self):
        from itertools import combinations

        g = wagner_r8()
        triangle = any(
            b in g.neighbors(a) and c in g.neighbors(b) and c in g.neighbors(a)
            for a, b, c in combinations(range(8), 3)
        )
        # A non-adjacent pair with two common neighbors closes a 4-cycle.
        square = any(
            c not in g.neighbors(a)
            and len(g.neighbor_set(a) & g.neighbor_set(c)) >= 2
            for a, c in combinations(range(8), 2)
        )
        assert not triangle and square
        assert girth(g) == 4

    def test_two_independence_number(self):
        assert alpha_k_bruteforce(wagner_r8(), 2) == 5
        alpha, _ = alpha_k_exact(wagner_r8(), 2)
        assert alpha == 5

    def test_union_with_stars(self):
        g = disjoint_union(wagner_r8(), build(16, [(4 * i, 4 * i + j) for i in range(4) for j in (1, 2, 3)]))
        alpha, _ = alpha_k_exact(g, 2)
        assert alpha == 17 and g.n == 24 and g.max_degree() == 3


class TestChainFamilies:
    def test_smallest_chain_is_a_star(self):
        g = thm14_5(2, 0)
        assert sorted(g.degrees()) == [1, 1, 1, 3]
        alpha, _ = alpha_k_exact(g, 2)
        assert Fraction(alpha, g.n) == Fraction(3, 4)

    def test_chain_d3(self):
        g = thm14_5(3, 0)
        alpha, _ = alpha_k_exact(g, 2)
        assert alpha == 3 and g.n == 5

    def test_chain_d5_two_blocks(self):
        g = thm14_5(5, 1)
        assert g.n == 13
        alpha, _ = alpha_k_exact(g, 2)
        assert alpha == 6

    def test_applicability_window(self):
        with pytest.raises(GraphError):
            thm14_5(5, 0)
        with pytest.raises(GraphError):
            thm14_5(11, 1)
        with pytest.raises(GraphError):
            thm14_5(1, 0)
        with pytest.raises(GraphError, match=r"^thm14_5 needs q >= 0, got -1$"):
            thm14_5(3, -1)

    @pytest.mark.parametrize("d,q", [(2, 0), (3, 0), (4, 0), (5, 1), (8, 1), (10, 1), (16, 2)])
    def test_average_degree_at_most_d(self, d, q):
        assert thm14_5(d, q).avg_degree() <= d

    def test_sparse_family_counts(self):
        g = thm14_6(2)
        assert g.n == 13 and g.avg_degree() == 2
        alpha, _ = alpha_k_exact(g, 2)
        assert alpha == 9

    def test_sparse_family_alpha_square(self):
        g = thm14_6(3)
        assert g.n == 21
        alpha, _ = alpha_k_exact(g, 3)
        assert alpha == 16

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sparse_family_average_degree(self, k):
        assert thm14_6(k).avg_degree() == 2

    def test_sparse_family_needs_k_at_least_two(self):
        with pytest.raises(GraphError):
            thm14_6(1)


class TestMatchingFamilies:
    def test_star_plus_isolated(self):
        g = thm12_2(2)
        assert g.n == 6 and g.avg_degree() == 1
        alpha, _ = alpha_k_exact(g, 2)
        assert alpha == 5

    def test_odd_blend_d1(self):
        g = thm10_odd(1)
        assert g.n == 16
        alpha, _ = alpha_k_exact(g, 1)
        assert alpha == 12 == alpha_k_bruteforce(g, 1)
        assert Fraction(alpha, g.n) == Fraction(3, 4)

    def test_odd_blend_d3_ratio(self):
        g = thm10_odd(3)
        alpha, _ = alpha_k_exact(g, 1, limit=50)
        assert Fraction(alpha, g.n) == Fraction(5, 12)

    @pytest.mark.parametrize("d", [1, 3])
    def test_odd_blend_alpha_formula(self, d):
        g = thm10_odd(d)
        alpha, _ = alpha_k_exact(g, 1, limit=50)
        assert alpha == 4 * (d + 2)

    def test_even_d_rejected(self):
        with pytest.raises(GraphError):
            thm10_odd(2)


def frozen_complete_minus(n, removed):
    """complete(n) with the removed edges taken out, each of which must be
    an edge of complete(n): the generators' former construction."""
    drop = {frozenset(e) for e in removed}
    assert all(len(e) == 2 and e <= set(range(n)) for e in drop)
    return build(n, [e for e in complete(n).edges() if frozenset(e) not in drop])


def frozen_side_by_side(*graphs):
    """The graphs on consecutive index blocks, built from their edges."""
    edges, off = [], 0
    for g in graphs:
        edges += [(u + off, v + off) for u, v in g.edges()]
        off += g.n
    return build(off, edges)


class TestAgainstFrozenConstructions:
    @pytest.mark.parametrize("n", range(2, 17, 2))
    def test_j_graph(self, n):
        assert j_graph(n) == frozen_complete_minus(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])

    @pytest.mark.parametrize("n", range(11))
    def test_complete_minus_clique(self, n):
        for q in range(n + 1):
            clique = [(u, v) for u in range(q) for v in range(u + 1, q)]
            assert complete_minus_clique(n, q) == frozen_complete_minus(n, clique)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_complete_minus_cycle(self, n):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        assert complete_minus_cycle(n) == frozen_complete_minus(n, cycle)

    @pytest.mark.parametrize("k", range(7))
    def test_thm12_2(self, k):
        assert thm12_2(k) == frozen_side_by_side(star(k + 1), build(k, []))

    def test_thm14_5(self):
        checked = 0
        for d in range(2, 11):
            for q in range(4):
                if d > 4 + 6 * q:
                    continue
                block = frozen_complete_minus(d + 1, [(0, 1), (0, 2), (1, 2)])
                first = frozen_complete_minus(d + 2, [(0, 1), (0, 2), (1, 2)])
                assert thm14_5(d, q) == frozen_side_by_side(first, *[block] * q), (d, q)
                checked += 1
        assert checked == 30


class TestBlend:
    def test_symmetric_blend(self):
        g = blend(complete(2), complete(2))
        assert g.n == 8 and g.edge_count() == 4

    def test_mixed_blend(self):
        g = blend(complete(1), complete(3))
        assert g.n == 6 and g.avg_degree() == 1

    def test_empty_inputs_rejected(self):
        with pytest.raises(GraphError):
            blend(build(0, []), complete(2))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10), st.integers(1, 6), st.integers(0, 10),
           st.integers(0, 2**32))
    def test_blend_averages_degrees(self, n1, m1, n2, m2, seed):
        g1 = random_gnm(n1, min(m1, n1 * (n1 - 1) // 2), seed)
        g2 = random_gnm(n2, min(m2, n2 * (n2 - 1) // 2), seed + 1)
        g = blend(g1, g2)
        assert g.avg_degree() == (g1.avg_degree() + g2.avg_degree()) / 2


class TestRandomGnm:
    def test_zero_edges(self):
        assert random_gnm(10, 0, 42).edge_count() == 0

    def test_forced_complete(self):
        assert random_gnm(5, 10, 99) == complete(5)

    def test_determinism(self):
        a = random_gnm(30, 60, 7)
        b = random_gnm(30, 60, 7)
        assert a == b

    def test_seeds_differ(self):
        assert random_gnm(12, 20, 1) != random_gnm(12, 20, 2)

    def test_exact_edge_count(self):
        for m in (1, 17, 40):
            assert random_gnm(15, m, 5).edge_count() == m

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            random_gnm(4, 7, 0)

    def test_more_pairs_than_draws_rejected(self):
        # The least n with n(n-1)/2 > 2**64: every rejection limit would be
        # 0, so no draw would ever be kept.
        with pytest.raises(GraphError, match=r"n=6074001001 .*2\*\*64"):
            random_gnm(6_074_001_001, 1, 1)


def frozen_random_gnm(n, m, seed):
    """random_gnm's former construction: a class-style splitmix64, a
    rejection limit computed for every draw, Floyd's loop, and each rank
    decoded by isqrt in set order."""
    mask = (1 << 64) - 1

    class SplitMix64:
        def __init__(self, seed):
            self.state = seed & mask

        def next_u64(self):
            self.state = (self.state + 0x9E3779B97F4A7C15) & mask
            z = self.state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        def below(self, bound):
            limit = (1 << 64) - ((1 << 64) % bound)
            while True:
                r = self.next_u64()
                if r < limit:
                    return r % bound

    def decode(p):
        v = (1 + math.isqrt(1 + 8 * p)) // 2
        return p - v * (v - 1) // 2, v

    rng, total, chosen = SplitMix64(seed), n * (n - 1) // 2, set()
    for j in range(total - m, total):
        t = rng.below(j + 1)
        chosen.add(t if t not in chosen else j)
    return build(n, [decode(p) for p in chosen])


@st.composite
def gnm_arguments(draw):
    n = draw(st.integers(0, 40))
    return n, draw(st.integers(0, n * (n - 1) // 2)), draw(st.integers(-2**70, 2**70))


class TestRandomGnmAgainstFrozen:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(gnm_arguments())
    def test_same_graph(self, args):
        assert random_gnm(*args) == frozen_random_gnm(*args)

    @pytest.mark.parametrize("args,digest", [
        ((4000, 12000, 1), "ba448df960c243fe"),
        ((2000, 20000, 1), "be7cffa14fd16dc9"),
        ((30, 60, 7), "ba1443ab67aacd61"),
        ((12, 20, -5), "595c6c18bbae2594"),
        ((10, 45, 2**70 + 1), "1df85460ce06d8c5"),
    ])
    def test_pinned_digest(self, args, digest):
        text = dumps_edge_list(random_gnm(*args))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    # random_gnm(3, 1, .) makes one draw for j = 2: pair ranks 0, 1, 2 are the
    # edges (0, 1), (0, 2), (1, 2).  2**64 % 3 == 1, so the rejection limit is
    # 2**64 - 1 and sure is 2**64 - 3.  No real seed is known to reach either
    # case, so the stream is crafted.
    @pytest.mark.parametrize("stream,edge", [
        ((2**64 - 1, 5), (1, 2)),  # at the limit: skipped, 5 % 3 = 2 kept
        ((2**64 - 2, 3), (1, 2)),  # above sure, below the limit: kept
    ])
    def test_rejection(self, monkeypatch, stream, edge):
        monkeypatch.setattr(generators, "_splitmix64", lambda seed: iter(stream))
        assert list(random_gnm(3, 1, 0).edges()) == [edge]


@pytest.mark.parametrize(
    "text",
    ["complete:6", "j:8", "complete_minus_clique:7,3", "complete_minus_cycle:6",
     "star:5", "r8", "thm14_5:d=4,q=0", "thm14_6:3", "thm12_2:3", "thm10_odd:3",
     "blend:j:4+star:2", "gnm:n=15,m=30,seed=3"],
)
def test_every_family_output_is_a_valid_simple_graph(text):
    g = make_graph(parse_family(text))
    for v in range(g.n):
        assert v not in g.neighbor_set(v)
        for u in g.neighbor_set(v):
            assert 0 <= u < g.n and v in g.neighbor_set(u)
    assert sum(g.degrees()) % 2 == 0


class TestFamilySpec:
    @pytest.mark.parametrize(
        "text,n,e",
        [
            ("j:6", 6, 12),
            ("thm14_5:d=3,q=0", 5, 7),
            ("thm14_6:2", 13, 13),
            ("complete:5", 5, 10),
            ("r8", 8, 12),
            ("star:4", 5, 4),
            ("thm12_2:k=2", 6, 3),
            ("gnm:n=30,m=60,seed=7", 30, 60),
            ("blend:j:4+complete:3", 24, 24),
        ],
    )
    def test_parse_and_build(self, text, n, e):
        g = make_graph(parse_family(text))
        assert (g.n, g.edge_count()) == (n, e)

    def test_default_seed_fallback(self):
        spec = parse_family("gnm:n=10,m=5")
        assert make_graph(spec, default_seed=3) == random_gnm(10, 5, 3)
        with pytest.raises(GraphError):
            make_graph(spec)

    def test_unknown_family(self):
        with pytest.raises(GraphError):
            parse_family("moebius:8")

    def test_unknown_parameter(self):
        with pytest.raises(GraphError):
            parse_family("j:n=6,w=2")

    def test_missing_parameter(self):
        with pytest.raises(GraphError):
            parse_family("thm14_5:d=3")

    @pytest.mark.parametrize("text,family,param", [
        ("j:4,n=6", "j", "n"),
        ("j:n=6,4", "j", "n"),
        ("j:n=6,n=6", "j", "n"),
        ("gnm:n=5,n=6,m=3,seed=1", "gnm", "n"),
        ("gnm:n=5,m=3,seed=1,seed=2", "gnm", "seed"),
        ("thm14_5:3,0,q=1", "thm14_5", "q"),
        ("blend:j:4+complete:3,n=5", "complete", "n"),
    ])
    def test_parameter_given_twice(self, text, family, param):
        with pytest.raises(GraphError, match=f"family '{family}' gets parameter '{param}' twice"):
            parse_family(text)

    def test_blend_takes_two_specs(self):
        with pytest.raises(GraphError, match="^blend takes exactly two '\\+'-separated specs$"):
            parse_family("blend:j:4+complete:3+star:2")

    def test_non_integer_parameter(self):
        with pytest.raises(GraphError, match=r"^non-integer parameter '2\.5'$"):
            parse_family("complete:2.5")

    @pytest.mark.parametrize("text", ["j:6,7", "gnm:30,60,7"])
    def test_too_many_parameters(self, text):
        # A seed is given only as seed=... (or --seed), never positionally.
        with pytest.raises(GraphError, match="too many parameters"):
            parse_family(text)
