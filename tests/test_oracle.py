import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kindep import oracle
from kindep.algorithms import caro_tuza_greedy
from kindep.generators import complete, j_graph, random_gnm, star, thm14_6, wagner_r8
from kindep.graph import GraphError, build, copies, disjoint_union, verify_k_independent
from kindep.oracle import (
    OracleLimitError,
    WitnessSet,
    alpha_k_exact,
    chi_k_exact,
)

from conftest import LARGE_PINNED, alpha_k_bruteforce, cycle, induced_subgraph


class TestAlphaExact:
    @pytest.mark.parametrize("d,k", [(1, 0), (3, 1), (5, 2), (8, 3), (8, 0)])
    def test_cliques(self, d, k):
        alpha, ws = alpha_k_exact(complete(d + 1), k)
        assert alpha == k + 1
        assert verify_k_independent(complete(d + 1), ws.vertices, k)

    def test_one_factor_graph(self):
        alpha, _ = alpha_k_exact(j_graph(6), 1)
        assert alpha == 2

    def test_r8_with_stars(self):
        g = disjoint_union(wagner_r8(), copies(4, star(3)))
        alpha, ws = alpha_k_exact(g, 2)
        assert alpha == 17
        assert verify_k_independent(g, ws.vertices, 2)

    def test_sparse_family(self):
        alpha, _ = alpha_k_exact(thm14_6(2), 2)
        assert alpha == 9

    def test_empty_graph(self):
        alpha, ws = alpha_k_exact(build(0, []), 1)
        assert alpha == 0 and ws.vertices == ()

    @pytest.mark.parametrize("edges,expected", [
        ([], 2000),
        ([(2 * i, 2 * i + 1) for i in range(1000)], 1000),
    ], ids=["edgeless", "matching"])
    def test_many_components(self, edges, expected):
        # 2000 and 1000 components: each search walks only its own vertices.
        g = build(2000, edges)
        alpha, ws = alpha_k_exact(g, 0, limit=2000)
        assert alpha == ws.size == expected
        assert verify_k_independent(g, ws.vertices, 0)

    def test_monotone_in_k(self, corpus100):
        for g in corpus100[:30]:
            values = [alpha_k_exact(g, k)[0] for k in range(4)]
            assert values == sorted(values)

    def test_deletion_stability(self, corpus100):
        for g in corpus100[10:30]:
            if g.n < 2:
                continue
            alpha, _ = alpha_k_exact(g, 1)
            for v in (0, g.n // 2, g.n - 1):
                sub, _ = induced_subgraph(g, (u for u in range(g.n) if u != v))
                alpha_sub, _ = alpha_k_exact(sub, 1)
                assert alpha - 1 <= alpha_sub <= alpha

    def test_limit_enforced(self):
        with pytest.raises(OracleLimitError, match="40"):
            alpha_k_exact(build(41, []), 0)
        with pytest.raises(OracleLimitError, match="12"):
            alpha_k_exact(build(13, []), 0, limit=12)
        alpha, _ = alpha_k_exact(build(41, []), 0, limit=50)
        assert alpha == 41

    def test_huge_k(self):
        g = random_gnm(12, 30, 4)
        alpha, ws = alpha_k_exact(g, 10**20)
        assert alpha == 12 and ws.vertices == tuple(range(12)) and ws.k == 10**20

    def test_negative_k_rejected(self):
        with pytest.raises(GraphError):
            alpha_k_exact(complete(3), -1)


class TestBruteforce:
    def test_matches_branch_and_bound_small(self, corpus100):
        for g in corpus100[:25]:
            for k in range(3):
                assert alpha_k_bruteforce(g, k) == alpha_k_exact(g, k)[0]

    def test_cap(self):
        with pytest.raises(OracleLimitError):
            alpha_k_bruteforce(build(19, []), 0)


class TestWitness:
    def test_witness_is_sorted_and_valid(self, corpus100):
        for g in corpus100[:20]:
            alpha, ws = alpha_k_exact(g, 1)
            assert list(ws.vertices) == sorted(ws.vertices)
            assert ws.size == alpha == len(ws.vertices)
            assert isinstance(ws, WitnessSet) and ws.k == 1


def gnm_args(min_n, max_n):
    """(n, m, seed) arguments of random_gnm with min_n <= n <= max_n."""
    return st.integers(min_n, max_n).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n * (n - 1) // 2), st.integers(0, 2**16)))


def assert_components(g):
    """_components on g's masks: sorted lists in increasing order of least
    vertex that partition range(n), each connected, no edge between two."""
    comps = oracle._components(oracle._adjacency_masks(g))
    least = [c[0] for c in comps]
    assert all(c == sorted(c) for c in comps)
    assert least == sorted(set(least))
    assert sorted(v for c in comps for v in c) == list(range(g.n))
    label = {v: i for i, c in enumerate(comps) for v in c}
    assert all(label[u] == label[v] for u, v in g.edges())
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges():
        root[find(u)] = find(v)
    assert all(len({find(v) for v in c}) == 1 for c in comps)


class TestComponents:
    def test_corpus(self, corpus200):
        for g in corpus200:
            assert_components(g)

    def test_many_components(self):
        assert_components(disjoint_union(random_gnm(9, 4, 1), build(3, []), cycle(5)))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(gnm_args(0, 40))
    def test_random_gnm_sweep(self, args):
        assert_components(random_gnm(*args))


class TestChiExact:
    def test_k4_pairs(self):
        assert chi_k_exact(complete(4), 1) == 2

    def test_edgeless(self):
        assert chi_k_exact(build(6, []), 0) == 1
        assert chi_k_exact(build(0, []), 0) == 0

    def test_odd_cycle_proper(self):
        assert chi_k_exact(cycle(5), 0) == 3

    def test_cycle_defective(self):
        assert chi_k_exact(cycle(5), 1) == 2
        assert chi_k_exact(cycle(5), 2) == 1

    def test_equal_partition_upper_bound(self, corpus100):
        for g in corpus100[:40]:
            for k in range(3):
                chi = chi_k_exact(g, k)
                assert chi <= -((g.max_degree() + 1) // -(k + 1))

    def test_consistency_with_alpha(self, corpus100):
        # t classes covering n vertices force a class of size >= n/t.
        for g in corpus100[:20]:
            if g.n == 0:
                continue
            chi = chi_k_exact(g, 1)
            alpha, _ = alpha_k_exact(g, 1)
            assert alpha * chi >= g.n

    def test_limit(self):
        with pytest.raises(OracleLimitError, match="20"):
            chi_k_exact(build(21, []), 0)

    def test_matches_exhaustive_assignment_search(self):
        def feasible_by_enumeration(g, k, t):
            if g.n == 0:
                return t >= 0
            for code in range(t**g.n):
                cls = []
                c = code
                for _ in range(g.n):
                    cls.append(c % t)
                    c //= t
                ok = True
                for v in range(g.n):
                    inside = sum(1 for u in g.neighbor_set(v) if cls[u] == cls[v])
                    if inside > k:
                        ok = False
                        break
                if ok:
                    return True
            return False

        for i in range(8):
            g = random_gnm(7, 8 + i, 5000 + i)
            for k in (0, 1):
                chi = chi_k_exact(g, k)
                assert feasible_by_enumeration(g, k, chi)
                if chi > 1:
                    assert not feasible_by_enumeration(g, k, chi - 1)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_complete_graphs(self, k):
        for n in range(1, 16):
            assert chi_k_exact(complete(n), k) == -(n // -(k + 1))

    def test_large_clique(self):
        # Starts at the clique bound, so no class count below 300 is tried.
        assert chi_k_exact(complete(300), 0, limit=300) == 300
        assert chi_k_exact(complete(300), 1, limit=300) == 150

    def test_clique_deeper_than_recursion_limit(self):
        # One placement per vertex, far past the interpreter's recursion limit.
        assert chi_k_exact(complete(1200), 1, limit=2000) == 600

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_count_from_one(self, corpus100, k):
        for g in corpus100:
            assert chi_k_exact(g, k) == _frozen_chi_k(g, k)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(gnm_args(0, 10), gnm_args(0, 10), st.integers(0, 2))
    def test_disjoint_union_takes_the_max(self, left, right, k):
        # A class of G + H is a class of G beside a class of H.
        g, h = random_gnm(*left), random_gnm(*right)
        assert chi_k_exact(disjoint_union(g, h), k) == max(chi_k_exact(g, k), chi_k_exact(h, k))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(gnm_args(0, 16), st.integers(0, 2))
    def test_monotone_in_k(self, case, k):
        g = random_gnm(*case)
        assert chi_k_exact(g, k + 1) <= chi_k_exact(g, k)


def _frozen_chi_k(g, k):
    """chi_k_exact as it was before the clique start bound: tries every
    class count from 1 upward."""
    if g.n == 0:
        return 0
    cap = -((g.max_degree() + 1) // -(k + 1))
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    cls = [-1] * g.n
    own = [0] * g.n

    def place(pos, t, used):
        if pos == g.n:
            return True
        v = order[pos]
        for c in range(min(used + 1, t)):
            cnt = 0
            blocked = False
            for u in g.neighbor_set(v):
                if cls[u] == c:
                    cnt += 1
                    if cnt > k or own[u] >= k:
                        blocked = True
                        break
            if blocked:
                continue
            cls[v] = c
            own[v] = cnt
            for u in g.neighbor_set(v):
                if cls[u] == c:
                    own[u] += 1
            if place(pos + 1, t, max(used, c + 1)):
                return True
            for u in g.neighbor_set(v):
                if cls[u] == c:
                    own[u] -= 1
            cls[v] = -1
        return False

    for t in range(1, cap + 1):
        for v in range(g.n):
            cls[v] = -1
            own[v] = 0
        if place(0, t, 0):
            return t
    raise AssertionError("equal-capacity partition bound violated")


class _FrozenBranchAndBound:
    """The recursive search as it was before the degree-sum bound, kept as
    the reference for witnesses and for node counts."""

    def __init__(self, masks, k):
        self.masks = masks
        self.k = k
        self.best_size = -1
        self.best_mask = 0
        self.visited = set()
        self.nodes = 0

    def search(self, candidates):
        self.nodes += 1
        if candidates in self.visited:
            return
        self.visited.add(candidates)
        size = candidates.bit_count()
        if size <= self.best_size:
            return
        worst_v, worst_d = -1, self.k
        m = candidates
        while m:
            bit = m & -m
            m ^= bit
            dv = (self.masks[bit.bit_length() - 1] & candidates).bit_count()
            if dv > worst_d:
                worst_v, worst_d = bit.bit_length() - 1, dv
        if worst_v < 0:
            self.best_size = size
            self.best_mask = candidates
            return
        self.search(candidates & ~(1 << worst_v))
        nbrs = self.masks[worst_v] & candidates
        for _ in range(self.k + 1):
            bit = nbrs & -nbrs
            nbrs ^= bit
            self.search(candidates & ~bit)


class _FrozenForcedSearch:
    """_BranchAndBound as it was before the star packing, with its partition
    bound after the degree pass and its degree-sum tests at every node, kept
    as the reference for popped states, node counts and records."""

    def __init__(self, masks, k):
        self.masks = masks
        self.k = k
        self.best_size = -1
        self.best_mask = 0
        self.nodes = 0
        self.stack = []

    def search(self, root):
        masks, k, stack = self.masks, self.k, self.stack
        verts = [v for v in range(root.bit_length()) if root >> v & 1]
        stack.append((root, 0))
        while stack:
            candidates, forced = stack.pop()
            self.nodes += 1
            size = candidates.bit_count()
            if size <= self.best_size:
                continue
            room = {}
            blocked = 0
            rest = forced
            while rest:
                bit = rest & -rest
                rest ^= bit
                p = bit.bit_length() - 1
                room[p] = spare = k - (masks[p] & forced).bit_count()
                if spare == 0:
                    blocked |= masks[p]
            if room and min(room.values()) < 0:
                continue
            degrees = []
            worst_v, worst_d = -1, k
            shut = 0
            groups = {}
            free = 0
            for v in verts:
                if candidates >> v & 1:
                    dv = (masks[v] & candidates).bit_count()
                    degrees.append(dv)
                    if dv > worst_d:
                        worst_v, worst_d = v, dv
                    if forced >> v & 1:
                        continue
                    nbrs = masks[v] & forced
                    if blocked >> v & 1 or nbrs.bit_count() > k:
                        shut |= 1 << v
                    elif nbrs:
                        p = (nbrs & -nbrs).bit_length() - 1
                        groups[p] = groups.get(p, 0) + 1
                    else:
                        free += 1
            if worst_v < 0:
                self.best_size = size
                self.best_mask = candidates
                continue
            need = self.best_size + 1
            bound = forced.bit_count() + free
            for p, count in groups.items():
                bound += min(count, room[p])
            if bound < need:
                continue
            if shut:
                inside = candidates & ~shut
                degrees = [(masks[v] & inside).bit_count() for v in verts if inside >> v & 1]
            degrees.sort()
            if degrees[need - 1] > k + len(degrees) - need:
                continue
            low = degrees[:need]
            if sum(low) + sum(d - k for d in low if d > k) > sum(degrees):
                continue
            nbrs = masks[worst_v] & candidates
            children = []
            if not forced >> worst_v & 1:
                children.append((candidates & ~(1 << worst_v), forced))
            forced |= 1 << worst_v
            for _ in range(k + 1):
                bit = nbrs & -nbrs
                nbrs ^= bit
                if not forced & bit:
                    children.append((candidates & ~bit, forced))
                forced |= bit
            stack.extend(reversed(children))


def _seed(bb, mask):
    """Start a search with the k-independent set `mask` as its best record."""
    bb.best_size = mask.bit_count()
    bb.best_mask = mask


def greedy_mask(g, comp, k):
    """The greedy's set on the subgraph induced by comp, as a mask of g."""
    sub, mapping = induced_subgraph(g, comp)
    seed_set, _ = caro_tuza_greedy(sub, k)
    return sum(1 << mapping[v] for v in seed_set.vertices)


def run(bb, verts):
    """Search one component as alpha_k_exact does; the frozen searches
    take its mask."""
    if isinstance(bb, oracle._BranchAndBound):
        bb.search(verts)
    else:
        bb.search(sum(1 << v for v in verts))


def solve_with(make_search, g, k):
    """alpha_k_exact's driver around a given search, each component seeded
    with the greedy's set on it: (alpha, witness, nodes).  A seed changes no
    witness (the unseeded search's first record is that set) but fixes the
    node counts recorded below.  make_search(masks, k) builds the search of
    one component."""
    masks = oracle._adjacency_masks(g)
    chosen, nodes = [], 0
    for verts in oracle._components(masks):
        bb = make_search(masks, k)
        _seed(bb, greedy_mask(g, verts, k))
        run(bb, verts)
        nodes += bb.nodes
        chosen += [v for v in verts if bb.best_mask >> v & 1]
    return len(chosen), tuple(sorted(chosen)), nodes


def gnm_cells():
    return [(random_gnm(n, c * n, 7000 + 10 * n + c), k)
            for n in range(16, 21) for c in (2, 4, 6) for k in range(4)]


class _LoggingStack(list):
    """A search stack that logs every state popped, (candidates, forced)."""

    def __init__(self, popped):
        super().__init__()
        self.popped = popped

    def pop(self):
        state = super().pop()
        self.popped.append(state)
        return state


def logged(search_class, popped):
    """make_search for solve_with: search_class logging its pops to popped."""
    def make_search(masks, k):
        bb = search_class(masks, k)
        bb.stack = _LoggingStack(popped)
        return bb
    return make_search


def unseeded_runs(search_class, g, k):
    """Per component of g, as alpha_k_exact searches it with no incumbent:
    (popped states, nodes, best_size, best_mask)."""
    masks = oracle._adjacency_masks(g)
    runs = []
    for verts in oracle._components(masks):
        popped = []
        bb = logged(search_class, popped)(masks, k)
        run(bb, verts)
        runs.append((popped, bb.nodes, bb.best_size, bb.best_mask))
    return runs


def multi_component_graphs(corpus100):
    graphs = [disjoint_union(g, h) for g, h in zip(corpus100[::2], corpus100[1::2])]
    graphs += [copies(3, random_gnm(n, n, 400 + n)) for n in range(3, 8)]
    graphs += [disjoint_union(random_gnm(n, 3 * n, n), star(4)) for n in range(8, 16)]
    return graphs


class TestAgainstFrozenSearch:
    def test_corpus_witnesses_identical(self, corpus100):
        for g in corpus100:
            for k in range(4):
                alpha, ws = alpha_k_exact(g, k)
                assert (alpha, ws.vertices) == solve_with(_FrozenBranchAndBound, g, k)[:2]

    def test_gnm_witnesses_identical(self):
        for g, k in gnm_cells():
            alpha, ws = alpha_k_exact(g, k)
            assert (alpha, ws.vertices) == solve_with(_FrozenBranchAndBound, g, k)[:2]

    def test_multi_component_witnesses_identical(self, corpus100):
        # solve_with seeds each component from the greedy on its own
        # induced subgraph; alpha_k_exact searches each one unseeded.
        for g in multi_component_graphs(corpus100):
            for k in range(4):
                alpha, ws = alpha_k_exact(g, k)
                assert (alpha, ws.vertices) == solve_with(_FrozenBranchAndBound, g, k)[:2]

    def test_bound_halves_nodes(self):
        # 76 nodes against 48,097 when this was written.
        g = random_gnm(20, 120, 3)
        new = solve_with(oracle._BranchAndBound, g, 2)
        old = solve_with(_FrozenBranchAndBound, g, 2)
        assert new[:2] == old[:2]
        assert 100 * new[2] < old[2]


small_gnm = gnm_args(1, 26)


def is_subsequence(short, long):
    """Whether short is long with some items left out, order kept."""
    rest = iter(long)
    return all(item in rest for item in short)


class TestAgainstFrozenForcedSearch:
    """Unseeded, the search's first record is the greedy's set; seeded, it
    starts from that set.  Either way it ends with the frozen one's best
    set and pops an in-order subsequence of its states: its bounds prune
    more states, but only ones holding no set that beats the best."""

    @staticmethod
    def assert_prunes_more(g, k):
        now = unseeded_runs(oracle._BranchAndBound, g, k)
        then = unseeded_runs(_FrozenForcedSearch, g, k)
        assert len(now) == len(then)
        for (popped, nodes, size, mask), (popped0, nodes0, size0, mask0) in zip(now, then):
            assert (size, mask) == (size0, mask0)
            assert is_subsequence(popped, popped0)
            assert nodes <= nodes0

    def test_corpus(self, corpus100):
        for g in corpus100:
            for k in range(4):
                self.assert_prunes_more(g, k)

    def test_gnm_cells(self):
        for g, k in gnm_cells():
            self.assert_prunes_more(g, k)

    def test_multi_component(self, corpus100):
        for g in multi_component_graphs(corpus100):
            for k in range(4):
                self.assert_prunes_more(g, k)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(small_gnm, st.integers(0, 3))
    def test_random_gnm(self, case, k):
        self.assert_prunes_more(random_gnm(*case), k)

    def test_seeded(self, corpus100):
        cases = [(g, k) for g in corpus100 for k in range(4)] + gnm_cells()
        for g, k in cases:
            now, then = [], []
            alpha, witness, nodes = solve_with(logged(oracle._BranchAndBound, now), g, k)
            alpha0, witness0, nodes0 = solve_with(logged(_FrozenForcedSearch, then), g, k)
            assert (alpha, witness) == (alpha0, witness0)
            assert is_subsequence(now, then)
            assert nodes <= nodes0


class TestTightIncumbent:
    def test_search_reaches_alpha(self):
        # Seeded one below alpha, need is alpha itself: every bound runs at
        # its tightest and may prune no state holding a maximum set.
        # Connected graphs, so the one component is the whole graph.
        for n in range(6, 15):
            for m in (n, 2 * n, 3 * n):
                if m > n * (n - 1) // 2:
                    continue
                for seed in range(7):
                    g = random_gnm(n, m, seed)
                    masks = oracle._adjacency_masks(g)
                    if len(oracle._components(masks)) > 1:
                        continue
                    for k in range(3):
                        alpha = alpha_k_bruteforce(g, k)
                        bb = oracle._BranchAndBound(masks, k)
                        bb.best_size = alpha - 1
                        bb.search(list(range(n)))
                        assert bb.best_size == alpha, (n, m, seed, k)
                        chosen = [v for v in range(n) if bb.best_mask >> v & 1]
                        assert verify_k_independent(g, chosen, k)


class _RecordStack(list):
    """A search stack that notes the search's best mask at the first pop
    after its first record."""

    def __init__(self, search):
        super().__init__()
        self.search = search
        self.first = None

    def pop(self):
        if self.first is None and self.search.best_size >= 0:
            self.first = self.search.best_mask
        return super().pop()


class TestSearchStates:
    def test_no_state_popped_twice(self, corpus100):
        cases = [(g, k) for g in corpus100 for k in range(4)] + gnm_cells()
        for g, k in cases:
            popped = []
            nodes = solve_with(logged(oracle._BranchAndBound, popped), g, k)[2]
            assert len(popped) == len({c for c, _ in popped}) == nodes

    def test_no_state_popped_twice_unseeded(self, corpus100):
        cases = [(g, k) for g in corpus100 for k in range(4)] + gnm_cells()
        for g, k in cases:
            for popped, nodes, _, _ in unseeded_runs(oracle._BranchAndBound, g, k):
                assert len(popped) == len({c for c, _ in popped}) == nodes

    def test_first_record_is_greedy_set(self, corpus100):
        # alpha_k_exact's docstring and the README promise this; it also
        # pins the search's branching tie-break to the greedy's.
        for g in corpus100:
            masks = oracle._adjacency_masks(g)
            for k in range(4):
                for verts in oracle._components(masks):
                    bb = oracle._BranchAndBound(masks, k)
                    bb.stack = _RecordStack(bb)
                    bb.search(verts)
                    first = bb.best_mask if bb.stack.first is None else bb.stack.first
                    assert first == greedy_mask(g, verts, k)

    def test_node_counts_do_not_grow(self):
        # Node sums for k = 0..3 since the star-packing bound (1136, 2792,
        # 2992, 2693 before it): a weaker bound keeps every witness but
        # shows up here.
        nodes = [0] * 4
        for n in (15, 16, 17):
            for seed in range(20):
                g = random_gnm(n, 3 * n, seed)
                for k in range(4):
                    nodes[k] += solve_with(oracle._BranchAndBound, g, k)[2]
        assert all(now <= then for now, then in zip(nodes, [1035, 1861, 2160, 2483])), nodes

    def test_unseeded_node_counts_do_not_grow(self):
        # The same grid searched as alpha_k_exact does, with no incumbent:
        # node sums since the star-packing bound (1540, 3128, 3360, 3118
        # before it).
        nodes = [0] * 4
        for n in (15, 16, 17):
            for seed in range(20):
                g = random_gnm(n, 3 * n, seed)
                for k in range(4):
                    nodes[k] += sum(run[1] for run in unseeded_runs(oracle._BranchAndBound, g, k))
        assert all(now <= then for now, then in zip(nodes, [1507, 2293, 2592, 2943])), nodes

    def test_sparse_instance_node_count(self):
        # 10,918 nodes before the star-packing bound, 2,634 with it.
        runs = unseeded_runs(oracle._BranchAndBound, random_gnm(50, 100, 3), 1)
        assert sum(run[1] for run in runs) <= 4000


@pytest.mark.parametrize("n,m,k", sorted(LARGE_PINNED))
def test_large_instance_witness_pinned(n, m, k):
    alpha, ws = alpha_k_exact(random_gnm(n, m, 3), k, limit=60)
    assert (alpha, ws.vertices) == LARGE_PINNED[n, m, k]
