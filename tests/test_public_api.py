"""The package's public surface: lazily loaded names and immutable records."""

import importlib
import inspect
import re
from fractions import Fraction

import pytest

import kindep
from kindep import BoundReport, BoundRow, Partition, WitnessSet
from kindep.bounds import TableRow, WitnessRatio

PUBLIC_NAMES = [
    "BoundReport", "BoundRow", "CertificateError", "FamilySpec", "Graph", "GraphError",
    "OracleLimitError", "Partition", "RunTrace", "WitnessSet", "algorithm1", "algorithm2",
    "algorithms", "alpha_k_exact", "blend", "bound_report", "bounds",
    "build", "caro_tuza_greedy", "caro_tuza_sum", "chi_k_exact", "complete",
    "complete_minus_clique", "complete_minus_cycle", "copies", "corollary_avg",
    "corollary_halfbound", "disjoint_union", "f1_exact", "f_lower", "f_upper_catalog",
    "frac_str", "generators", "girth", "graph", "hopkins_staton", "j_graph",
    "lovasz_largest_class", "lovasz_partition", "main_bound", "make_graph",
    "oracle", "parse_family", "potential_f", "random_gnm", "residue_t",
    "star", "table_f2", "theorem6_check", "thm10_odd", "thm12_2", "thm14_5", "thm14_6",
    "thm_first_approach_bound", "verify_k_independent", "wagner_r8", "witness_ratio",
]
SUBMODULES = {"algorithms", "bounds", "generators", "graph", "oracle"}


def test_all_is_pinned():
    assert sorted(kindep.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_export_is_the_defining_modules_object(name):
    obj = getattr(kindep, name)
    if name in SUBMODULES:
        assert obj is importlib.import_module(f"kindep.{name}")
    else:
        assert obj.__module__.startswith("kindep.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import():
    namespace = {}
    exec("from kindep import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        kindep.no_such_name


RECORDS = {
    "WitnessSet(vertices=(0, 2), k=1)": WitnessSet((0, 2), 1),
    "Partition(classes=((0,), (1, 2)), capacities=(0, 1))": Partition(((0,), (1, 2)), (0, 1)),
    "BoundRow(name='caro_tuza_sum', value=Fraction(3, 2), applicable=True, note='')":
        BoundRow("caro_tuza_sum", Fraction(3, 2), True),
    "BoundReport(k=1, rows=(BoundRow(name='main_bound', value=Fraction(2, 1), "
    "applicable=True, note=''),), n=4, edge_count=3, max_degree=2, "
    "avg_degree=Fraction(3, 2))":
        BoundReport(1, (BoundRow("main_bound", Fraction(2), True),), 4, 3, 2, Fraction(3, 2)),
    "WitnessRatio(value=Fraction(2, 3), alpha=2, n=3, max_degree=2)":
        WitnessRatio(Fraction(2, 3), 2, 3, 2),
    "TableRow(d=0, lower=Fraction(1, 1), upper=Fraction(1, 1), witness='complete:1', "
    "alpha=1, n=1, discrepancy=None)":
        TableRow(0, Fraction(1), Fraction(1), "complete:1", 1, 1),
    "FamilySpec(family='blend', parameters=(), seed=None, sub_specs=(FamilySpec(family='j', "
    "parameters=(4,), seed=None, sub_specs=()), FamilySpec(family='gnm', parameters=(5, 3), "
    "seed=2, sub_specs=())))":
        kindep.parse_family("blend:j:4+gnm:n=5,m=3,seed=2"),
}


@pytest.mark.parametrize("text", sorted(RECORDS))
def test_record_repr(text):
    assert repr(RECORDS[text]) == text


@pytest.mark.parametrize("text", sorted(RECORDS))
def test_record_is_immutable(text):
    record = RECORDS[text]
    for field in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


# The argument contract.  Every integer parameter of every public callable
# goes through `graph._check_int` or `graph._check_k`: 1.5, "3" and None
# each raise GraphError naming the parameter, and so does -1 wherever -1 is
# outside the parameter's domain.  Every name in `kindep.__all__` is either
# in INTEGER_PARAMETERS or in EXEMPT with its reason.


def _nonnegative(label):
    return f"{label} must be nonnegative, got -1"


# The row of a callable (g, k).
K_ROW = ("k", "k", lambda g, x: (g, x), _nonnegative("k"))


# public name -> rows of (parameter, the name its messages use, the call's
# arguments on graph g with x in that parameter, the message -1 gets or
# None where -1 is a valid value).
INTEGER_PARAMETERS = {
    "algorithm1": [K_ROW],
    "algorithm2": [K_ROW],
    "alpha_k_exact": [K_ROW,
                      ("limit", "limit", lambda g, x: (g, 0, x), _nonnegative("limit"))],
    "bound_report": [K_ROW],
    "build": [("n", "vertex count", lambda g, x: (x, []), _nonnegative("vertex count")),
              ("edges", "endpoint", lambda g, x: (3, [(0, x)]),
               "edge (0, -1) out of range for n=3")],
    "caro_tuza_greedy": [K_ROW],
    "caro_tuza_sum": [K_ROW],
    "chi_k_exact": [K_ROW, ("limit", "limit", lambda g, x: (g, 0, x), _nonnegative("limit"))],
    "complete": [("n", "n", lambda g, x: (x,), _nonnegative("n"))],
    "complete_minus_clique": [
        ("n", "n", lambda g, x: (x, 1), "need 0 <= q <= n, got q=1, n=-1"),
        ("q", "q", lambda g, x: (4, x), "need 0 <= q <= n, got q=-1, n=4")],
    "complete_minus_cycle": [("n", "n", lambda g, x: (x,), "cycle removal needs n >= 3, got -1")],
    "copies": [("q", "q", lambda g, x: (x, g), "number of copies must be positive, got -1")],
    "corollary_avg": [K_ROW],
    "corollary_halfbound": [K_ROW],
    "f1_exact": [("d", "d", lambda g, x: (x,), _nonnegative("d"))],
    "f_lower": [("k", "k", lambda g, x: (x, 3), _nonnegative("k")),
                ("d", "d", lambda g, x: (2, x), _nonnegative("d"))],
    "f_upper_catalog": [("k", "k", lambda g, x: (x, 3), _nonnegative("k")),
                        ("d", "d", lambda g, x: (2, x), _nonnegative("d"))],
    "hopkins_staton": [K_ROW],
    "j_graph": [("n", "n", lambda g, x: (x,), "j_graph needs an even n >= 2, got -1")],
    "lovasz_largest_class": [K_ROW],
    "lovasz_partition": [("capacities", "capacity", lambda g, x: (g, [x]),
                          _nonnegative("capacity"))],
    "main_bound": [K_ROW],
    "make_graph": [("default_seed", "seed", lambda g, x: (kindep.FamilySpec("gnm", (5, 3)), x),
                    None)],
    "potential_f": [("k", "k", lambda g, x: (x, 1), _nonnegative("k")),
                    ("x", "non-Fraction x", lambda g, x: (1, x),
                     "potential undefined for negative x=-1")],
    "random_gnm": [("n", "n", lambda g, x: (x, 1, 1), _nonnegative("n")),
                   ("m", "m", lambda g, x: (3, x, 1), "m=-1 out of range [0, 3] for n=3"),
                   ("seed", "seed", lambda g, x: (3, 1, x), None)],
    "residue_t": [("k", "k", lambda g, x: (x, 3), _nonnegative("k")),
                  ("d", "d", lambda g, x: (1, x), _nonnegative("d"))],
    "star": [("m", "m", lambda g, x: (x,), _nonnegative("m"))],
    "theorem6_check": [("p", "p", lambda g, x: (g, x, 1), "need 0 <= p <= q, got p=-1, q=1"),
                       ("q", "q", lambda g, x: (g, 0, x), "need 0 <= p <= q, got p=0, q=-1")],
    "thm10_odd": [("d", "d", lambda g, x: (x,), "thm10_odd needs odd d >= 1, got -1")],
    "thm12_2": [("k", "k", lambda g, x: (x,), _nonnegative("k"))],
    "thm14_5": [("d", "d", lambda g, x: (x, 0), "thm14_5 needs 2 <= d <= 4+6q, got d=-1, q=0"),
                ("q", "q", lambda g, x: (3, x), "thm14_5 needs q >= 0, got -1")],
    "thm14_6": [("k", "k", lambda g, x: (x,), "thm14_6 needs k >= 2, got -1")],
    "thm_first_approach_bound": [K_ROW],
    "verify_k_independent": [
        ("k", "k", lambda g, x: (g, [g.n], x), _nonnegative("k")),
        ("s", "vertex", lambda g, x: (g, [x], 0), "vertex -1 not in graph of order 3")],
    "witness_ratio": [("k", "k", lambda g, x: (g, x, 3), _nonnegative("k")),
                      ("d", "d", lambda g, x: (g, 1, x), _nonnegative("d"))],
}
# None is the documented default of these: it selects the default cap, or
# no seed, so None is a valid value here.
NONE_ALLOWED = {("alpha_k_exact", "limit"), ("chi_k_exact", "limit"), ("make_graph", "default_seed")}
EXEMPT = {
    **dict.fromkeys(SUBMODULES, "a submodule"),
    **dict.fromkeys(["BoundReport", "BoundRow", "FamilySpec", "Partition", "WitnessSet"],
                    "an immutable record: it stores what it is given"),
    **dict.fromkeys(["CertificateError", "GraphError", "OracleLimitError"],
                    "an exception class: it takes a message"),
    "Graph": "trusts its adjacency; `build` is the checked constructor",
    "RunTrace": "takes no arguments",
    "blend": "takes graphs only",
    "disjoint_union": "takes graphs only",
    "girth": "takes a graph only",
    "frac_str": "renders a rational; no integer parameter",
    "parse_family": "takes a string only",
    "table_f2": "takes no arguments",
    "wagner_r8": "takes no arguments",
}
ROWS = [(name, *row) for name, rows in INTEGER_PARAMETERS.items() for row in rows]
NON_INTEGERS = [(*row, bad) for row in ROWS for bad in (1.5, "3", None)
                if bad is not None or row[:2] not in NONE_ALLOWED]
G3 = kindep.complete(3)


def test_contract_table_covers_every_export():
    # A new export fails here until it gets rows or an exemption.
    assert set(INTEGER_PARAMETERS).isdisjoint(EXEMPT)
    assert sorted([*INTEGER_PARAMETERS, *EXEMPT]) == sorted(kindep.__all__)


@pytest.mark.parametrize("name", sorted(INTEGER_PARAMETERS))
def test_contract_table_lists_every_integer_parameter(name):
    # An annotation naming int (`int`, `int | None`, `Iterable[int]`, ...)
    # marks an integer parameter; the table may list more, such as
    # potential_f's x.
    params = inspect.signature(getattr(kindep, name)).parameters
    annotated = {p for p, param in params.items() if "int" in str(param.annotation)}
    assert annotated <= {row[0] for row in INTEGER_PARAMETERS[name]}


@pytest.mark.parametrize("name,param,label,args,minus_one,bad", NON_INTEGERS,
                         ids=[f"{row[0]}-{row[1]}-{row[5]!r}" for row in NON_INTEGERS])
def test_non_integer_argument_refused(name, param, label, args, minus_one, bad):
    message = f"^{re.escape(label)} must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(kindep.GraphError, match=message):
        getattr(kindep, name)(*args(G3, bad))


@pytest.mark.parametrize("name,param,label,args,minus_one",
                         [row for row in ROWS if row[4] is not None],
                         ids=[f"{row[0]}-{row[1]}" for row in ROWS if row[4] is not None])
def test_negative_argument_refused(name, param, label, args, minus_one):
    with pytest.raises(kindep.GraphError, match=f"^{re.escape(minus_one)}$"):
        getattr(kindep, name)(*args(G3, -1))


@pytest.mark.parametrize("call,message", [
    (lambda: kindep.thm10_odd(3.0), "d must be an integer, got 3.0"),
    (lambda: kindep.build(3, [(1.5, 1.5)]), "endpoint must be an integer, got 1.5"),
    (lambda: kindep.make_graph(kindep.FamilySpec("gnm", (3,)), 1),
     "family 'gnm' takes ('n', 'm'), got (3,)"),
    (lambda: kindep.make_graph(kindep.FamilySpec("star")), "family 'star' takes ('m',), got ()"),
    (lambda: kindep.make_graph(kindep.FamilySpec("blend")),
     "blend takes exactly two '+'-separated specs"),
], ids=["integral-float", "float-self-loop", "gnm-one-parameter", "star-no-parameter",
        "blend-no-specs"])
def test_cases_the_table_cannot_state(call, message):
    # An integral float passes a range or parity test; a loop on a float
    # takes build's self-loop branch; a hand-built FamilySpec can carry any
    # number of parameters or sub-specs.
    with pytest.raises(kindep.GraphError, match=f"^{re.escape(message)}$"):
        call()


# The callables (g, k, ...) in the table.  On a 41-vertex graph, past both
# oracle limits, with vertex 41 outside it, a check made before the k
# check would say so instead.
K_TAKERS = sorted(name for name, rows in INTEGER_PARAMETERS.items()
                  if rows[0][0] == "k" and next(iter(inspect.signature(
                      getattr(kindep, name)).parameters)) == "g")
_K_ARGS = {name: INTEGER_PARAMETERS[name][0][2] for name in K_TAKERS}


@pytest.mark.parametrize("name", K_TAKERS)
def test_negative_k_checked_first(name):
    g = kindep.build(41, [(0, 1)])
    with pytest.raises(kindep.GraphError, match=r"^k must be nonnegative, got -1$"):
        getattr(kindep, name)(*_K_ARGS[name](g, -1))


@pytest.mark.parametrize("name", K_TAKERS)
def test_integer_k_checked_first(name):
    g = kindep.build(41, [(0, 1)])
    with pytest.raises(kindep.GraphError, match=r"^k must be an integer, got 1\.5$"):
        getattr(kindep, name)(*_K_ARGS[name](g, 1.5))
