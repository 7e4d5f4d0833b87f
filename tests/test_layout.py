"""Package layout: every top-level function and class in `src/coverdepth`
has a caller in the program itself, so library code that only tests or the
benchmark call does not build up in `src/`.

A name counts as referenced when it appears, outside its own definition, in
`src/coverdepth/*.py` as a variable name or as an attribute of a module
name (`homology.depth_symbolic_cover`); a method of the same name
(`profile.largest_stable_s()`) does not count. String constants do not
count, and neither does `bench/`: a name that only the benchmark runs stays
in `src/` only through `BENCH_ONLY`, with its reason.

The same scan checks that the Taylor Betti oracle stays independent of the
Hochster engine it cross-checks, and that verification outcomes are built
and verifiers dispatched in one place each.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "coverdepth").glob("*.py"))
MODULES = {path.stem for path in SRC}

# Definitions with no caller in `src/` that stay because the benchmark runs
# them, with why. `bench/tracer.py` looks each name in its `LAYER_FUNCTIONS`
# up and fails on a missing one.
BENCH_ONLY: dict[str, str] = {
    "graphs.s_ordered_matching_number": "a span in bench/tracer.py's LAYER_FUNCTIONS",
    "graphs.enumerate_graphs": "a span in bench/tracer.py's LAYER_FUNCTIONS",
    "graphs.isomorphism_representatives": "a span in bench/tracer.py's LAYER_FUNCTIONS",
    "graphs.largest_stable_s": "a span in bench/tracer.py's LAYER_FUNCTIONS",
    "layered.as_plain_graph": "a span in bench/tracer.py's LAYER_FUNCTIONS",
    "homology.betti_table_squarefree": "the betti_generic workload's Betti tables",
    "homology.taylor_betti_oracle": "the betti_generic workload's cross-check",
    "homology.reg_edge_ideal": "the regsweep6 workload's regularity",
}


def _names(node: ast.AST) -> Counter[str]:
    """Variable names and attributes under `node`."""
    out: Counter[str] = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _uses(node: ast.AST) -> Counter[str]:
    """Variable names under `node`, and attributes of a coverdepth module
    name: `graphs.largest_stable_s` counts, `profile.largest_stable_s` not."""
    out: Counter[str] = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in MODULES):
            out[sub.attr] += 1
    return out


def _source_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in SRC}


def _unreferenced(trees: dict[str, ast.Module]) -> set[str]:
    """`module.name` of each top-level definition in `trees` that no name
    or module attribute outside the definition itself refers to."""
    total: Counter[str] = Counter()
    definitions = []
    for module, tree in trees.items():
        total += _uses(tree)
        definitions += [(module, node, _uses(node)) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return {f"{module}.{node.name}" for module, node, inside in definitions
            if total[node.name] == inside[node.name]}


def _check_callers(trees: dict[str, ast.Module]) -> None:
    unreferenced = _unreferenced(trees)
    missing = sorted(unreferenced - BENCH_ONLY.keys())
    assert missing == [], f"nothing in src/ calls {missing}; delete them or call them"
    called = sorted(BENCH_ONLY.keys() - unreferenced)
    assert called == [], f"src/ now calls {called}; drop them from BENCH_ONLY"


def test_every_library_definition_has_a_caller_in_the_program():
    assert SRC and all(BENCH_ONLY.values())
    _check_callers(_source_trees())


def _plant(trees: dict[str, ast.Module], module: str, source: str) -> None:
    trees[module].body += ast.parse(source).body


def test_the_caller_scan_counts_only_names_in_src():
    # a definition named only by a string constant in src/ is flagged
    trees = _source_trees()
    _plant(trees, "cli", "def _orphan():\n    pass\nLOOKUP = '_orphan'")
    assert "cli._orphan" in _unreferenced(trees)
    with pytest.raises(AssertionError):
        _check_callers(trees)
    # the benchmark calls reg_edge_ideal, and the scan still flags it
    workloads = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    assert _names(workloads)["reg_edge_ideal"] > 0
    assert "homology.reg_edge_ideal" in _unreferenced(_source_trees())
    # a BENCH_ONLY name that gains a caller in src/ fails the test
    for name in BENCH_ONLY:
        module, function = name.split(".")
        trees = _source_trees()
        _plant(trees, "cli", f"HELD = {module}.{function}")
        assert name not in _unreferenced(trees)
        with pytest.raises(AssertionError):
            _check_callers(trees)


def test_the_caller_scan_tells_a_module_function_from_a_method():
    # a method of the same name does not call graphs.largest_stable_s
    trees = _source_trees()
    _plant(trees, "cli", "HELD = obj.largest_stable_s()")
    _check_callers(trees)
    # the module function called through its module does
    trees = _source_trees()
    _plant(trees, "cli", "HELD = graphs.largest_stable_s(g)")
    assert "graphs.largest_stable_s" not in _unreferenced(trees)
    with pytest.raises(AssertionError, match="drop them from BENCH_ONLY"):
        _check_callers(trees)


# The Hochster engine that `homology.taylor_betti_oracle` cross-checks. The
# oracle shares only `rank` with it, so a fault in any of these cannot make
# both sides agree on a wrong table.
ENGINE = {"_faces_by_dim", "_dims_from_faces", "_ind_dims", "_component_dims",
          "_adjacency", "betti_table_squarefree", "polarize", "alexander_dual"}


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring constants of the module, classes and functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _references(node: ast.AST, docs: set[int]) -> Counter[str]:
    """Names, attributes and string constants under `node`, docstrings
    (the constants whose ids are in `docs`) left out: a string could look
    an engine function up by name."""
    out = _names(node)
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                and id(sub) not in docs):
            out[sub.value] += 1
    return out


def _engine_names(oracle: ast.FunctionDef, tree: ast.Module) -> set[str]:
    """Engine names under `oracle` and under each top-level function of its
    module that it reaches by name, transitively."""
    local = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo, found = {oracle.name}, [oracle], set()
    while todo:
        names = set(_references(todo.pop(), _docstrings(tree)))
        found |= names & ENGINE
        for name in names & local.keys() - seen:
            seen.add(name)
            todo.append(local[name])
    return found


def _taylor_oracle() -> tuple[ast.FunctionDef, ast.Module]:
    tree = ast.parse((ROOT / "src" / "coverdepth" / "homology.py").read_text())
    oracle = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "taylor_betti_oracle")
    return oracle, tree


def test_taylor_oracle_is_independent_of_the_hochster_engine():
    oracle, tree = _taylor_oracle()
    assert _engine_names(oracle, tree) == set()
    # the scan sees an engine name planted in the oracle's body
    for name in sorted(ENGINE):
        planted, planted_tree = _taylor_oracle()
        planted.body.append(ast.parse(f"{name}(gens)").body[0])
        assert name in _engine_names(planted, planted_tree)


# Call name -> the one definition in `src/coverdepth` allowed to make it:
# every outcome comes from `_outcome`, and every registry entry is called by
# `_run_item`, which corpus and single-graph runs both reach through
# `run_items`.
SOLE_CALLERS = {"VerificationOutcome": "theorems._outcome", "call": "theorems._run_item"}


def _callers(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """For each name in SOLE_CALLERS, the `module.definition` of every
    top-level definition (`module.<module>` for module-level code) that
    calls it, as `name(...)` or `x.name(...)`."""
    found: dict[str, set[str]] = {name: set() for name in SOLE_CALLERS}
    for module, tree in trees.items():
        for node in tree.body:
            owner = f"{module}.{getattr(node, 'name', '<module>')}"
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    name = getattr(sub.func, "attr", getattr(sub.func, "id", None))
                    if name in found:
                        found[name].add(owner)
    return found


def test_one_outcome_builder_and_one_dispatcher():
    assert _callers(_source_trees()) == {
        name: {owner} for name, owner in SOLE_CALLERS.items()
    }
    # the scan sees either call planted in another verifier or in the CLI
    plants = {"VerificationOutcome": "VerificationOutcome('main', {}, 'passed', {})",
              "call": "VERIFIERS['main'].call(g, None, 3, field, None)"}
    for module, function in [("theorems", "verify_main"), ("cli", "_verify_single")]:
        for name, statement in plants.items():
            trees = _source_trees()
            target = next(node for node in trees[module].body
                          if getattr(node, "name", None) == function)
            target.body.insert(0, ast.parse(statement).body[0])
            assert f"{module}.{function}" in _callers(trees)[name]
