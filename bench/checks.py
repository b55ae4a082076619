"""Output checks written without kindep's code: a graph-file parser, the bound
formulas, a degree-count k-independence test and a networkx cross-check."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Expected:
    """One input graph as the benchmark reads it, with its certified bounds,
    plus the answers seen for it that networkx checks after the timed loop."""

    n: int
    adj: list[set[int]]
    k: int
    girth: object = None
    alpha: int | None = None
    _bounds: dict = field(default_factory=dict, repr=False)

    def bounds(self, k: int | None = None) -> dict[str, Fraction]:
        k = self.k if k is None else k
        if k not in self._bounds:
            self._bounds[k] = self._compute_bounds(k)
        return self._bounds[k]

    def _compute_bounds(self, k: int) -> dict[str, Fraction]:
        n = self.n
        degs = [len(s) for s in self.adj]
        d = Fraction(sum(degs), n)
        return {
            "caro_tuza_sum": sum((potential(k, x) for x in degs), Fraction(0)),
            "corollary_avg": n * potential(k, d),
            "hopkins_staton": Fraction(n, self.lovasz_classes(k)),
            "first_approach": Fraction((k + 1) * n) / (d + 2 * k + 2),
            "main_bound": Fraction((k + 1) * n, math.ceil(d) + k + 1),
        }

    def lovasz_classes(self, k: int | None = None) -> int:
        """ceil((max degree + 1) / (k + 1)) classes suffice (Lovasz)."""
        k = self.k if k is None else k
        return -((max(len(s) for s in self.adj) + 1) // -(k + 1))


def potential(k: int, x) -> Fraction:
    x = Fraction(x)
    if x <= k + 1:
        return 1 - x / (2 * (k + 1))
    return Fraction(k + 2, 2) / (x + 1)


def parse_graph(text: str, k: int) -> Expected:
    """Edge list (``n m`` header, 0-based) or DIMACS (``p edge n m``, 1-based)."""
    lines = [ln.split() for ln in text.splitlines()
             if ln.strip() and not ln.startswith(("#", "c"))]
    if lines[0][0] == "p":
        n, edges = int(lines[0][2]), [(int(u) - 1, int(v) - 1) for _, u, v in lines[1:]]
    else:
        n, edges = int(lines[0][0]), [(int(u), int(v)) for u, v in lines[1:]]
        if len(edges) != int(lines[0][1]):
            raise ValueError("edge count differs from the header")
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u == v or v in adj[u]:
            raise ValueError(f"self-loop or repeated edge {u} {v}")
        adj[u].add(v)
        adj[v].add(u)
    return Expected(n, adj, k)


def dimacs(text: str) -> str:
    """Rewrite an edge-list file as DIMACS."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    out = [f"p edge {rows[0][0]} {rows[0][1]}"]
    out += [f"e {int(u) + 1} {int(v) + 1}" for u, v in rows[1:]]
    return "\n".join(out) + "\n"


def k_independent(exp: Expected, vertices, k: int | None = None) -> bool:
    """Every vertex of the set has at most k neighbours inside it."""
    k = exp.k if k is None else k
    s = set(vertices)
    if len(s) != len(vertices) or not all(0 <= v < exp.n for v in s):
        return False
    return all(len(exp.adj[v] & s) <= k for v in s)


def certificate_floor(exp: Expected, k: int | None = None) -> int:
    """ceil(Caro-Tuza sum): every maximum k-independent set is at least this."""
    return math.ceil(exp.bounds(k)["caro_tuza_sum"])


def certificate(algo: str, size: int, b: dict[str, Fraction]) -> bool:
    """The size each algorithm guarantees: greedy >= ceil(Caro-Tuza sum),
    alg1 > first approach, alg2 >= ceil(main bound), Lovasz largest class
    >= ceil(Hopkins-Staton)."""
    if algo == "greedy":
        return size >= math.ceil(b["caro_tuza_sum"])
    if algo == "alg1":
        return size > b["first_approach"]
    if algo == "alg2":
        return size >= math.ceil(b["main_bound"])
    if algo == "lovasz":
        return size >= math.ceil(b["hopkins_staton"])
    raise ValueError(algo)


def alpha0_networkx(exp: Expected) -> int:
    """Independence number as the maximum clique of the complement."""
    import networkx as nx

    return nx.max_weight_clique(nx.complement(_nx_graph(exp)), weight=None)[1]


def girth_networkx(exp: Expected):
    import networkx as nx

    return nx.girth(_nx_graph(exp))


def _nx_graph(exp: Expected):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(exp.n))
    g.add_edges_from((u, v) for u in range(exp.n) for v in exp.adj[u] if u < v)
    return g
