"""Closed-form bounds on the k-independence number, in exact arithmetic.

Everything here returns `fractions.Fraction`; comparisons between bounds,
tightness checks and the f(2,d) table reproduction all rely on exact
equality, so no floats are allowed anywhere in this module.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .graph import Graph, GraphError, _check_int, _check_k

Rat = int | Fraction


def frac_str(x: Fraction) -> str:
    """Render a rational as 'p/q' (denominator always explicit)."""
    return f"{x.numerator}/{x.denominator}"


def potential_f(k: int, x: Rat) -> Fraction:
    """The degree potential: 1 - x/(2(k+1)) up to x=k+1, then (k+2)/(2(x+1)).

    Both branches agree at x = k+1 with value 1/2.  x is an int or a Fraction.
    """
    k = _check_k(k)
    x = x if isinstance(x, Fraction) else Fraction(_check_int(x, "non-Fraction x"))
    if x < 0:
        raise GraphError(f"potential undefined for negative x={x}")
    if x <= k + 1:
        return 1 - x / (2 * (k + 1))
    return Fraction(k + 2, 2) / (x + 1)


def caro_tuza_sum(g: Graph, k: int) -> Fraction:
    """Degree-sequence lower bound on alpha_k: the sum of f_k over degrees."""
    k = _check_k(k)
    return sum((c * potential_f(k, d) for d, c in Counter(g.degrees()).items()), Fraction(0))


def corollary_avg(g: Graph, k: int) -> Fraction:
    """n * f_k(average degree); the convexity consequence of the degree sum."""
    return g.n * potential_f(k, g.avg_degree())


def corollary_halfbound(g: Graph, k: int) -> Fraction:
    """(k+2) n / (2(d+1)).  Valid as a bound only when d(G) >= k+1; the
    caller flags applicability, this just evaluates the formula."""
    k = _check_k(k)
    return Fraction(k + 2) * g.n / (2 * (g.avg_degree() + 1))


def hopkins_staton(g: Graph, k: int) -> Fraction:
    """n divided by ceil((max degree + 1)/(k+1))."""
    k = _check_k(k)
    if g.n == 0:
        raise GraphError("bound undefined on the empty graph")
    t = -((g.max_degree() + 1) // -(k + 1))
    return Fraction(g.n, t)


def thm_first_approach_bound(g: Graph, k: int) -> Fraction:
    """(k+1) n / (d + 2k + 2); alpha_k strictly exceeds this."""
    k = _check_k(k)
    return Fraction(k + 1) * g.n / (g.avg_degree() + 2 * k + 2)


def main_bound(g: Graph, k: int) -> Fraction:
    """(k+1) n / (ceil(d) + k + 1), the strongest general lower bound here."""
    k = _check_k(k)
    d_up = math.ceil(g.avg_degree())
    return Fraction((k + 1) * g.n, d_up + k + 1)


def theorem6_check(g: Graph, p: int, q: int) -> bool:
    """Check alpha_q <= ceil((q+1)/(p+1)) * alpha_p with oracle-exact values."""
    if not 0 <= _check_int(p, "p") <= _check_int(q, "q"):
        raise GraphError(f"need 0 <= p <= q, got p={p}, q={q}")
    from .oracle import alpha_k_exact

    alpha_p, _ = alpha_k_exact(g, p)
    alpha_q, _ = alpha_k_exact(g, q)
    ratio = -((q + 1) // -(p + 1))
    return alpha_q <= ratio * alpha_p


def residue_t(k: int, d: int) -> int:
    """The unique t in [1, k+1] with d = k+1-t (mod k+1)."""
    k, d = _check_k(k), _check_k(d, "d")
    return k + 1 - d % (k + 1)


def f_lower(k: int, d: int) -> Fraction:
    """(k+1)(d+2t) / ((d+k+t+1)(d+t)) with t the residue parameter."""
    t = residue_t(k, d)
    return Fraction((k + 1) * (d + 2 * t), (d + k + t + 1) * (d + t))


def f1_exact(d: int) -> Fraction:
    """Exact infimum ratio for 1-independence at average degree up to d."""
    d = _check_k(d, "d")
    if d % 2 == 0:
        return Fraction(2, d + 2)
    return Fraction(2 * (d + 2), (d + 1) * (d + 3))


# -- reports -----------------------------------------------------------------


class BoundRow(NamedTuple):
    name: str
    value: Fraction | None
    applicable: bool
    note: str = ""


class BoundReport(NamedTuple):
    """Named bound rows for one graph, plus the inputs they were computed from."""

    k: int
    rows: tuple[BoundRow, ...]
    n: int
    edge_count: int
    max_degree: int
    avg_degree: Fraction

    def to_json_dict(self) -> dict:
        return {
            "inputs": {
                "k": self.k,
                "n": self.n,
                "edges": self.edge_count,
                "max_degree": self.max_degree,
                "avg_degree": frac_str(self.avg_degree),
            },
            "rows": [
                {
                    "name": r.name,
                    "value": frac_str(r.value),
                    "ceil": math.ceil(r.value),
                    "applicable": r.applicable,
                    "note": r.note,
                }
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"n={self.n} e={self.edge_count} max_deg={self.max_degree} "
            f"avg_deg={frac_str(self.avg_degree)} k={self.k}"
        ]
        width = max((len(r.name) for r in self.rows), default=0)
        for r in self.rows:
            flag = "" if r.applicable else "  [not applicable]"
            ceil = f"  ceil={math.ceil(r.value)}" if r.applicable else ""
            note = f"  ({r.note})" if r.note else ""
            lines.append(f"{r.name:<{width}}  {frac_str(r.value)}{ceil}{flag}{note}")
        return "\n".join(lines)


def bound_report(g: Graph, k: int) -> BoundReport:
    """All lower bounds on alpha_k(G) applicable to one graph."""
    if g.n == 0:
        raise GraphError("bounds are undefined on the empty graph")
    d = g.avg_degree()
    half_ok = d >= _check_k(k) + 1
    rows = (
        BoundRow("caro_tuza_sum", caro_tuza_sum(g, k), True),
        BoundRow("corollary_avg", corollary_avg(g, k), True),
        BoundRow(
            "corollary_halfbound",
            corollary_halfbound(g, k),
            half_ok,
            "" if half_ok else "needs avg degree >= k+1",
        ),
        BoundRow("hopkins_staton", hopkins_staton(g, k), True),
        BoundRow("first_approach", thm_first_approach_bound(g, k), True, "strict"),
        BoundRow("main_bound", main_bound(g, k), True),
    )
    return BoundReport(
        k=k,
        rows=rows,
        n=g.n,
        edge_count=g.edge_count(),
        max_degree=g.max_degree(),
        avg_degree=d,
    )


def _h_at_most(k: int, bound: int) -> bool:
    """Whether h(k) = ((k-1)^{k+3} - 1) / (k-2), the girth threshold helper,
    is at most `bound`, for k >= 3.  h(k) is the sum of (k-1)^i for
    i = 0..k+2; the terms at least double, so the sum passes `bound` within
    O(log bound) of them and is never built in full for a large k."""
    total, term = 0, 1
    for _ in range(k + 3):
        total += term
        if total > bound:
            return False
        term *= k - 1
    return True


def _chain_q(d: int) -> int:
    """The thm14_5 chain parameter max(0, ceil((d-4)/6)) for degree d."""
    return max(0, -((d - 4) // -6))


def f_upper_catalog(k: int, d: int) -> tuple[BoundRow, ...]:
    """The seven catalogued upper bounds on f(k,d), with applicability flags.

    A row that does not apply has no value.  Items 4 and 7 come from a
    non-constructive existence argument for high-girth regular graphs, so
    they carry no witness; item 7 only has an existential constant and
    therefore reports no numeric value at all.
    """
    k, d = _check_k(k), _check_k(d, "d")
    q = _chain_q(d)
    ok5 = k == 2 and d >= 2
    # Every denominator is at least 1 for k, d >= 0, so each value is safe
    # to compute whether or not its row applies.
    table = (
        ("item1_complete", d >= k, Fraction(k + 1, d + 1), "witness K_{d+1}"),
        ("item2_minus_1factor", d > k and d % 2 == 0 and k % 2 == 1,
         Fraction(k + 1, d + 2), "witness J_{d+2}"),
        ("item3_minus_cycle", d > k, Fraction(k + 2, d + 3), "witness K_{d+3} - E(C_{d+3})"),
        ("item4_high_girth",
         k >= 3 and (d + k + 1) % 2 == 0 and _h_at_most(k, (d + k + 1) // 2),
         Fraction(k + 2, d + k + 1), "non-constructive witness (high-girth regular graph)"),
        ("item5_k2_chain", ok5, Fraction(3 * (q + 1), (q + 1) * d + q + 2),
         f"witness thm14_5 with q={q}" if ok5 else "needs k=2 and d >= 2"),
        ("item6_d2", k >= 2 and d == 2, Fraction((k + 1) ** 2, k * k + 3 * k + 3),
         "witness thm14_6"),
        ("item7_asymptotic", k >= 3, None,
         "f(k,d) < (k+2)/(d + c(d/2)^(1/(k+2)) + 1) for an existential c > 0"),
    )
    return tuple(BoundRow(name, value if applies else None, applies, note)
                 for name, applies, value, note in table)


class WitnessRatio(NamedTuple):
    value: Fraction
    alpha: int
    n: int
    max_degree: int


def witness_ratio(g: Graph, k: int, d: int) -> WitnessRatio:
    """Certified upper bound alpha_k(G)/n(G) on f(k,d) from a witness graph.

    Requires d(G) <= d.  alpha_k(G) comes from the exact oracle at its
    default cap, so a larger witness raises `OracleLimitError`.  The result
    also reports the maximum degree, so the same value certifies the
    degree-capped variant.
    """
    if g.n == 0:
        raise GraphError("witness graph must be nonempty")
    if g.avg_degree() > _check_k(d, "d"):
        raise GraphError(
            f"witness has average degree {frac_str(g.avg_degree())} > d={d}"
        )
    from .oracle import alpha_k_exact

    alpha, _ = alpha_k_exact(g, k)
    return WitnessRatio(Fraction(alpha, g.n), alpha, g.n, g.max_degree())


class TableRow(NamedTuple):
    d: int
    lower: Fraction
    upper: Fraction
    witness: str
    alpha: int
    n: int
    discrepancy: str | None = None


# Reference printed values for the f(2,d) table (lower, upper) by d.  The
# d=8 lower entry 5/13 is a known misprint: the defining formula yields 5/18
# and 5/13 would break monotonicity in d.
_PRINTED_F2 = {
    0: (Fraction(1), Fraction(1)),
    1: (Fraction(5, 6), Fraction(5, 6)),
    2: (Fraction(2, 3), Fraction(9, 13)),
    3: (Fraction(1, 2), Fraction(3, 5)),
    4: (Fraction(4, 9), Fraction(1, 2)),
    5: (Fraction(7, 18), Fraction(6, 13)),
    6: (Fraction(1, 3), Fraction(2, 5)),
    7: (Fraction(11, 36), Fraction(6, 17)),
    8: (Fraction(5, 13), Fraction(6, 19)),
    9: (Fraction(1, 4), Fraction(2, 7)),
    10: (Fraction(7, 30), Fraction(6, 23)),
}


def _table_witness(d: int) -> tuple[Graph, str]:
    from . import generators

    if d == 0:
        return generators.complete(1), "complete:1"
    if d == 1:
        return generators.thm12_2(2), "thm12_2:2"
    if d == 2:
        return generators.thm14_6(2), "thm14_6:2"
    q = _chain_q(d)
    return generators.thm14_5(d, q), f"thm14_5:d={d},q={q}"


def table_f2() -> list[TableRow]:
    """Recompute the table of bounds on f(2,d) for d = 0..10.

    Lower bounds come from the residue formula; upper bounds from witness
    graphs with oracle-verified alpha_2, cross-checked against the closed
    formulas.  Rows that disagree with the reference printed values are
    flagged in `discrepancy` instead of silently adopting either side.
    """
    rows = []
    for d in range(11):
        lower = f_lower(2, d)
        g, witness_name = _table_witness(d)
        wr = witness_ratio(g, 2, d)
        formula_vals = [r.value for r in f_upper_catalog(2, d) if r.value is not None]
        best_formula = min(formula_vals) if formula_vals else None
        notes = []
        printed_lower, printed_upper = _PRINTED_F2[d]
        if lower != printed_lower:
            notes.append(
                f"recomputed lower {frac_str(lower)}; printed reference value "
                f"{frac_str(printed_lower)} appears to be a typo"
            )
        if wr.value != printed_upper:
            notes.append(
                f"recomputed upper {frac_str(wr.value)} differs from printed "
                f"{frac_str(printed_upper)}"
            )
        if d >= 2 and best_formula is not None and best_formula != wr.value:
            notes.append(
                f"witness ratio {frac_str(wr.value)} differs from catalogue "
                f"formula {frac_str(best_formula)}"
            )
        rows.append(
            TableRow(
                d=d,
                lower=lower,
                upper=wr.value,
                witness=witness_name,
                alpha=wr.alpha,
                n=wr.n,
                discrepancy="; ".join(notes) if notes else None,
            )
        )
    return rows
