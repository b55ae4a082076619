"""Differential tests of alpha_k and chi_k against MILPs solved by HiGHS,
an exact method that shares nothing with the oracle's searches.

The alpha_k model is the k-plex integer program of Balasundaram, Butenko &
Hicks (Oper. Res. 59(1), 2011) written on the complement: x_v in {0, 1},
and for each v of degree d > k, sum over v's neighbours x_u + (d - k) x_v
<= d, so a kept v keeps at most k neighbours.  The chi_k model puts that
row on each of t classes: x_{v,c} in {0, 1} with sum_c x_{v,c} = 1, and
for each v of degree d > k and each class c, sum over v's neighbours
x_{u,c} + (d - k) x_{v,c} <= d.  Rounded solutions are checked with
`verify_k_independent`, so no float answer is trusted alone.  HiGHS may
print to stdout, so nothing here reads it.

scipy is a test-only dependency (the `test` extra in pyproject.toml).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kindep.bounds import table_f2
from kindep.generators import make_graph, parse_family, random_gnm
from kindep.graph import verify_k_independent
from kindep.oracle import alpha_k_exact, chi_k_exact

from conftest import LARGE_PINNED

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")


def milp_alpha(g, k):
    """alpha_k(g) by HiGHS, after checking its rounded set."""
    rows, caps = [], []
    for v in range(g.n):
        d = g.degree(v)
        if d > k:
            row = np.zeros(g.n)
            row[list(g.neighbors(v))] = 1
            row[v] = d - k
            rows.append(row)
            caps.append(d)
    constraints = [optimize.LinearConstraint(np.array(rows), -np.inf, caps)] if rows else []
    res = optimize.milp(-np.ones(g.n), constraints=constraints, integrality=np.ones(g.n),
                        bounds=optimize.Bounds(0, 1))
    assert res.status == 0, res.message
    chosen = [v for v in range(g.n) if res.x[v] > 0.5]
    assert verify_k_independent(g, chosen, k)
    return len(chosen)


@pytest.mark.parametrize("n,m,k", sorted(LARGE_PINNED))
def test_large_pinned(n, m, k):
    assert milp_alpha(random_gnm(n, m, 3), k) == LARGE_PINNED[n, m, k][0]


def check_ensemble_cells(orders, seed_base):
    # Graphs of the exact_ensemble shape: m in {2n, 4n, 6n} and k 0..2 for
    # each n in orders.  A solve takes 20-100 ms on a 2-vCPU machine.
    cells = itertools.product(orders, (2, 4, 6), range(3))
    for i, (n, c, k) in enumerate(cells):
        g = random_gnm(n, c * n, seed_base + i)
        assert milp_alpha(g, k) == alpha_k_exact(g, k)[0], (n, c, k)


def test_ensemble_cells():
    check_ensemble_cells((16, 20), 9000)


def test_inner_ensemble_cells():
    # The other 27 cells of the 45-cell grid, on seeds of their own.
    check_ensemble_cells((17, 18, 19), 9100)


def test_table_f2_witnesses():
    # Each row's witness, rebuilt from its spec string, has row.n vertices
    # and alpha_2 = row.alpha by HiGHS: 11 graphs with n <= 23.
    for row in table_f2():
        g = make_graph(parse_family(row.witness))
        assert (g.n, milp_alpha(g, 2)) == (row.n, row.alpha), row.witness


@st.composite
def sparse_gnm(draw):
    n = draw(st.integers(1, 30))
    return n, draw(st.integers(0, min(3 * n, n * (n - 1) // 2))), draw(st.integers(0, 2**16))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sparse_gnm(), st.integers(0, 2))
def test_random_gnm_sweep(case, k):
    g = random_gnm(*case)
    assert milp_alpha(g, k) == alpha_k_exact(g, k)[0]


def milp_classes(g, k, t):
    """t classes of g each inducing max degree <= k found by HiGHS, after
    checking each rounded class, or None if HiGHS proves there are none."""
    size = g.n * t
    rows, lows, caps = [], [], []
    for v in range(g.n):
        row = np.zeros(size)
        row[v * t:(v + 1) * t] = 1
        rows.append(row)
        lows.append(1)
        caps.append(1)
        d = g.degree(v)
        if d > k:
            for c in range(t):
                row = np.zeros(size)
                row[[u * t + c for u in g.neighbors(v)]] = 1
                row[v * t + c] = d - k
                rows.append(row)
                lows.append(-np.inf)
                caps.append(d)
    res = optimize.milp(np.zeros(size), integrality=np.ones(size), bounds=optimize.Bounds(0, 1),
                        constraints=[optimize.LinearConstraint(np.array(rows), lows, caps)])
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    classes = [[v for v in range(g.n) if res.x[v * t + c] > 0.5] for c in range(t)]
    assert sorted(v for cls in classes for v in cls) == list(range(g.n))
    assert all(verify_k_independent(g, cls, k) for cls in classes)
    return classes


def test_chi_against_highs():
    # chi classes are feasible and, unless chi = 1, chi - 1 are not.
    shapes = itertools.product(((14, 28), (12, 30), (16, 40)), range(9200, 9205), range(3))
    for (n, m), seed, k in shapes:
        g = random_gnm(n, m, seed)
        chi = chi_k_exact(g, k)
        assert milp_classes(g, k, chi) is not None, (n, m, seed, k)
        if chi > 1:
            assert milp_classes(g, k, chi - 1) is None, (n, m, seed, k)
