"""Checks on the package source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kindep import CertificateError, GraphError

SRC = Path(__file__).resolve().parents[1] / "src" / "kindep"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts; certificate checks raise CertificateError.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def test_certificate_error_is_not_a_config_error():
    # The CLI maps ValueError (and so GraphError) to exit 2, CertificateError to 3.
    assert not issubclass(CertificateError, (ValueError, GraphError))


# A blend spec has exactly two "+" halves, so a half can never be a blend
# itself (it would need a "+" of its own): parsed blends cannot nest, and
# these two recurse at most one level deep.
_BOUNDED_RECURSION = {("generators.py", "parse_family"), ("generators.py", "make_graph")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    # Deep inputs must cost heap, not interpreter stack: searches use explicit stacks.
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (path.name, fn.name) in _BOUNDED_RECURSION:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name == fn.name:
                    found.append(f"{fn.name} (line {node.lineno})")
    assert found == [], f"{path.name} has self-calls: {found}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_neighbor_set_calls(path):
    # neighbor_set copies a neighbor tuple into a new frozenset on every call;
    # the package reads `neighbors` and leaves neighbor_set to callers outside.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "neighbor_set"]
    assert lines == [], f"{path.name} calls neighbor_set on lines {lines}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    # dataclasses pulls in inspect, ast, dis and tokenize: about 10 ms of
    # every CLI call.  Records are NamedTuples or plain classes.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert lines == [], f"{path.name} imports dataclasses on lines {lines}"


def _called_names(node):
    return {getattr(call.func, "attr", getattr(call.func, "id", None))
            for call in ast.walk(node) if isinstance(call, ast.Call)}


def test_one_adjacency_builder():
    # graph.build is the one place an edge list becomes adjacency: only
    # graph.py calls Graph(...), formats.py defines no builder of its own,
    # and both readers, line loop and block path alike, call build.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in SRC.glob("*.py")}
    calling = sorted(name for name, tree in trees.items() if "Graph" in _called_names(tree))
    functions = {node.name: node for node in ast.walk(trees["formats.py"])
                 if isinstance(node, ast.FunctionDef)}
    assert calling == ["graph.py"], f"Graph(...) is called in {calling}"
    assert "_graph" not in functions
    assert "build" in _called_names(functions["_edge_block"])
    for reader in ("read_edge_list", "read_dimacs"):
        assert {"build", "_edge_block"} <= _called_names(functions[reader]), reader


def test_one_prng_definition():
    # random_gnm draws from the one splitmix64 generator, whose increment is
    # the only copy of the constant in the package.
    count = sum(path.read_text().count("0x9E3779B97F4A7C15") for path in SRC.glob("*.py"))
    tree = ast.parse((SRC / "generators.py").read_text(), filename="generators.py")
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert count == 1
    assert names & {"SplitMix64", "_pair_decode"} == set()


def _is_adjacency(node, names):
    return (isinstance(node, ast.Attribute) and node.attr == "_adj"
            or isinstance(node, ast.Name) and node.id in names)


def _reads_adjacency(node, names):
    """Whether `node` is the adjacency, or reads a neighbour tuple of it or
    through neighbors(); `names` are the local names bound to it."""
    return _is_adjacency(node, names) or any(
        isinstance(sub, ast.Subscript) and _is_adjacency(sub.value, names)
        or isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) == "neighbors"
        for sub in ast.walk(node))


def test_algorithms_partition_without_copying():
    # Algorithms 1 and 2 partition their survivors on the input graph's own
    # adjacency, so nothing in algorithms.py builds a new graph, through
    # Graph(...) or build(...), or a list, set or tuple from neighbour
    # tuples: no comprehension or list/tuple/set/sorted/map call reads
    # `_adj`, `neighbors` or a name bound to them.  `_partition_step` takes
    # its survivors from the caller: it uses the trace's `steps` only to
    # append the PARTITION step.
    tree = ast.parse((SRC / "algorithms.py").read_text(), filename="algorithms.py")
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("Graph", "build")]
    copies = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        aliases = {"adj"} | {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                             and _is_adjacency(node.value, ()) for target in node.targets
                             if isinstance(target, ast.Name)}
        for node in ast.walk(fn):
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                sources = [gen.iter for gen in node.generators]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                    "list", "tuple", "set", "sorted", "map"):
                sources = node.args
            else:
                continue
            if any(_reads_adjacency(src, aliases) for src in sources):
                copies.append(f"{fn.name} (line {node.lineno})")
    step = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_partition_step")
    steps = {id(node) for node in ast.walk(step)
             if isinstance(node, ast.Attribute) and node.attr == "steps"}
    appended = {id(call.func.value) for call in ast.walk(step) if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute) and call.func.attr == "append"}
    assert calls == [], f"algorithms.py builds a Graph on lines {calls}"
    assert copies == [], f"neighbour tuples copied in {copies}"
    assert steps and steps <= appended, "_partition_step reads the trace's steps"


def test_one_max_degree_deletion_order():
    # The greedy and Algorithms 1 and 2 read one deletion order: graph.py
    # defines `_peel`, the only bucket walk, which returns the order whole
    # and keeps it on the Graph, and algorithms.py imports it.  Algorithms 1 and 2 read only the
    # order and integers, no neighbour tuple.  The oracle's search makes the
    # same deletions up to its first record by its own branching rule, so it
    # neither imports `_peel` nor keeps a degree list like it.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in SRC.glob("*.py")}
    defining = sorted(name for name, tree in trees.items() for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef) and node.name == "_peel")
    importing = sorted(name for name, tree in trees.items() for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.level == 1
                       and node.module == "graph" and any(a.name == "_peel" for a in node.names))
    peel = next(node for node in trees["graph.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "_peel")
    walks = sorted(fn.name for tree in trees.values() for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
                   if isinstance(node, ast.Name) and "bucket" in node.id
                   and isinstance(node.ctx, ast.Store))
    functions = {node.name: node for node in trees["algorithms.py"].body
                 if isinstance(node, ast.FunctionDef)}
    reads = [(name, node.lineno) for name in ("algorithm1", "algorithm2")
             for node in ast.walk(functions[name]) if isinstance(node, ast.Attribute)
             and node.attr in ("neighbors", "_adj")]
    search = next(fn for cls in ast.walk(trees["oracle.py"])
                  if isinstance(cls, ast.ClassDef) and cls.name == "_BranchAndBound"
                  for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "search")
    deg = [node.lineno for node in ast.walk(search)
           if isinstance(node, ast.Name) and node.id == "deg" and isinstance(node.ctx, ast.Store)]
    assert defining == ["graph.py"] and importing == ["algorithms.py"]
    assert walks == ["_peel"], f"bucket walks in {walks}"
    assert not any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(peel))
    assert reads == [], f"Algorithms 1 and 2 read neighbour tuples at {reads}"
    assert deg == [], f"_BranchAndBound.search assigns deg on lines {deg}"


def test_chi_search_on_class_masks():
    # chi_k_exact searches on the adjacency masks the alpha search builds,
    # over immutable tuples of class masks: it reads no neighbour tuples
    # and keeps no closure of placement options beside the masks.
    tree = ast.parse((SRC / "oracle.py").read_text(), filename="oracle.py")
    chi = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "chi_k_exact")
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_adjacency_masks" in _called_names(chi)
    assert "neighbors" not in _called_names(chi)
    assert "options" not in defined


def test_oracle_reads_neighbours_only_into_masks():
    # The component split and both searches read the adjacency masks: only
    # _adjacency_masks reads neighbour tuples, and _components takes the
    # masks, not a Graph.
    tree = ast.parse((SRC / "oracle.py").read_text(), filename="oracle.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def neighbor_calls(node):
        return [call.lineno for call in ast.walk(node) if isinstance(call, ast.Call)
                and getattr(call.func, "attr", getattr(call.func, "id", None)) == "neighbors"]

    inside = neighbor_calls(functions["_adjacency_masks"])
    assert inside and neighbor_calls(tree) == inside
    params = [(a.arg, ast.unparse(a.annotation)) for a in functions["_components"].args.args]
    assert params == [("masks", "list[int]")]


def test_algorithm2_makes_one_pass():
    # algorithm2 logs as it walks `_peel` and cuts the log at the best state,
    # so it keeps no list of states to walk a second time.
    tree = ast.parse((SRC / "algorithms.py").read_text(), filename="algorithms.py")
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "algorithm2")
    loops = [type(node).__name__ for node in ast.walk(fn)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert loops == ["For"], f"algorithm2 has loops {loops}"


def test_one_trace_per_run():
    # Each public entry point makes its run's one RunTrace; the partition
    # core and step write into the trace they are given.
    tree = ast.parse((SRC / "algorithms.py").read_text(), filename="algorithms.py")
    makers = sorted(fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                    for node in ast.walk(fn) if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "RunTrace")
    assert makers == ["algorithm1", "algorithm2", "caro_tuza_greedy", "lovasz_largest_class",
                      "lovasz_partition"]


def test_bounds_raise_graph_errors():
    # Bad input to a bound is a GraphError, like bad input to a graph or an
    # algorithm, never a bare ValueError.
    tree = ast.parse((SRC / "bounds.py").read_text(), filename="bounds.py")
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)
             and "ValueError" in ast.unparse(node.exc)]
    assert lines == [], f"bounds.py raises ValueError on lines {lines}"


def test_bound_catalogue_is_one_table():
    # f_upper_catalog builds every row through one BoundRow(...) call, the
    # thm14_5 chain parameter is written once, and bound_report's rows all
    # have values, so no BoundReport method tests for a missing one.
    text = (SRC / "bounds.py").read_text()
    tree = ast.parse(text, filename="bounds.py")
    catalog = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "f_upper_catalog")
    report = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "BoundReport")
    row_calls = [call for call in ast.walk(catalog) if isinstance(call, ast.Call)
                 and getattr(call.func, "id", None) == "BoundRow"]
    none_tests = [node.lineno for node in ast.walk(report) if isinstance(node, ast.Compare)
                  and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)]
    assert len(row_calls) == 1
    assert text.count("// -6") == 1
    assert none_tests == [], f"BoundReport tests is None on lines {none_tests}"


# The README's module table, bottom layer first: each module imports only
# modules listed before it, inside functions too.  `kindep/__init__` imports
# no submodule.
_LAYERS = ("__init__", "graph", "formats", "generators", "oracle", "bounds", "algorithms",
           "cli", "__main__")


def test_readme_module_table_follows_the_layers():
    # The table lists the library modules; the package root and the CLI are not in it.
    readme = (SRC.parents[1] / "README.md").read_text()
    table = re.findall(r"^\| `kindep\.(\w+)` \|", readme, re.M)
    assert table == [m for m in _LAYERS if m not in ("__init__", "cli", "__main__")]


def test_readme_module_rows_name_every_export():
    # Each `kindep.X` row names, in backticks, every name X exports in kindep._NAMES.
    import kindep

    readme = (SRC.parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `kindep\.(\w+)` \|(.*)$", readme, re.M))
    missing = {}
    for module, names in kindep._NAMES.items():
        named = {word for code in re.findall(r"`([^`]*)`", rows[module])
                 for word in re.findall(r"\w+", code)}
        missing[module] = sorted(set(names.split()) - named)
    assert missing == {module: [] for module in kindep._NAMES}


def test_imports_follow_the_readme_layering():
    rank = {m: i for i, m in enumerate(_LAYERS)}
    assert {p.stem for p in SRC.glob("*.py")} == set(rank)
    edges, upward = set(), []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            targets = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
            for target in targets:
                edge = (path.stem, target)
                edges.add(edge)
                if rank[target] >= rank[path.stem]:
                    upward.append(f"{path.name}:{node.lineno} imports {target}")
    assert upward == []
    # No cycles: peel off modules that import nothing still left until none remain.
    left = set(rank)
    while leaves := {m for m in left if not any(a == m and b in left for a, b in edges)}:
        left -= leaves
    assert left == set(), f"modules on or above an import cycle: {sorted(left)}"


# Runs kindep.cli.main on argv, then prints the loaded module names.
_PROBE = (
    "import sys; from kindep.cli import main; code = main(sys.argv[1:]); "
    "print(' '.join(sorted(sys.modules))); sys.exit(code)"
)
_HEAVY = {"kindep.algorithms", "kindep.bounds", "kindep.generators", "kindep.oracle"}


@pytest.mark.parametrize("argv,unloaded", [
    (["verify", "--set", "{set}"], _HEAVY | {"fractions"}),
    (["exact"], _HEAVY - {"kindep.oracle"} | {"fractions"}),
    (["run", "--algo", "alg2"], set()),
    (["bound"], _HEAVY - {"kindep.bounds"}),
])
def test_subcommand_loads_only_what_it_runs(tmp_path, argv, unloaded):
    graph_file, set_file = tmp_path / "g.txt", tmp_path / "s.txt"
    graph_file.write_text("4 3\n0 1\n1 2\n2 3\n")
    set_file.write_text("0 3\n")
    argv = [a.format(set=set_file) for a in argv] + ["--file", str(graph_file), "--k", "1"]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "kindep.cli" in loaded
    assert loaded & (unloaded | {"dataclasses"}) == set()
