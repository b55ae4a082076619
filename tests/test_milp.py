"""Differential tests of alpha_k against a MILP solved by HiGHS, an exact
method that shares nothing with the oracle's search.

The model is the k-plex integer program of Balasundaram, Butenko & Hicks
(Oper. Res. 59(1), 2011) written on the complement: x_v in {0, 1}, and for
each v of degree d > k, sum over v's neighbours x_u + (d - k) x_v <= d, so
a kept v keeps at most k neighbours.  The rounded solution is checked with
`verify_k_independent`, so no float answer is trusted alone.  HiGHS may
print to stdout, so nothing here reads it.

scipy is a test-only dependency (the `test` extra in pyproject.toml).
"""

import itertools

import pytest

from kindep.bounds import table_f2
from kindep.generators import make_graph, parse_family, random_gnm
from kindep.graph import verify_k_independent
from kindep.oracle import alpha_k_exact

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
