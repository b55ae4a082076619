"""The package's public surface: lazily loaded names and immutable records."""

import importlib
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


K_TAKERS = ["verify_k_independent", "caro_tuza_greedy", "algorithm1", "algorithm2",
            "lovasz_largest_class", "alpha_k_exact", "chi_k_exact", "caro_tuza_sum",
            "corollary_avg", "corollary_halfbound", "hopkins_staton", "thm_first_approach_bound",
            "main_bound", "bound_report"]


@pytest.mark.parametrize("name", K_TAKERS)
def test_negative_k_checked_first(name):
    # 41 vertices exceed both oracle limits and vertex 41 is not in the
    # graph, so a check made before the k check would say so instead.
    g = kindep.build(41, [(0, 1)])
    args = (g, [41], -1) if name == "verify_k_independent" else (g, -1)
    with pytest.raises(kindep.GraphError, match=r"^k must be nonnegative, got -1$"):
        getattr(kindep, name)(*args)


@pytest.mark.parametrize("name", K_TAKERS)
def test_integer_k_checked_first(name):
    g = kindep.build(41, [(0, 1)])
    args = (g, [41], 1.5) if name == "verify_k_independent" else (g, 1.5)
    with pytest.raises(kindep.GraphError, match=r"^k must be an integer, got 1\.5$"):
        getattr(kindep, name)(*args)
