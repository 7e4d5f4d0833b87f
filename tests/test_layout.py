"""Package layout: every top-level function and class in `src/coverdepth`
has a caller in the program itself, so library code that only tests call
does not build up in `src/`.

A name counts as referenced when it appears, outside its own definition, in
`src/coverdepth/*.py` or `bench/*.py` as a variable name, an attribute, or a
string constant (the tracer looks its layer functions up by name).
Docstrings do not count.

The same scan checks that the Taylor Betti oracle stays independent of the
Hochster engine it cross-checks, and that verification outcomes are built
and verifiers dispatched in one place each.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "coverdepth").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# Names a test checks directly that have no caller in the program, with why
# they stay in `src/`. Empty: a check only tests run lives in the tests
# (`tests/_oracles.py`).
TEST_CHECKED: dict[str, str] = {}


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
    (the constants whose ids are in `docs`) left out."""
    out: Counter[str] = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in docs):
            out[sub.value] += 1
    return out


def _unreferenced() -> list[str]:
    """`module.name` of each top-level definition in `src/coverdepth` that
    nothing outside the definition itself refers to."""
    total: Counter[str] = Counter()
    definitions = []
    for path in SRC + BENCH:
        tree = ast.parse(path.read_text())
        docs = _docstrings(tree)
        total += _references(tree, docs)
        if path in SRC:
            definitions += [
                (path.stem, node, _references(node, docs)) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            ]
    return [f"{module}.{node.name}" for module, node, inside in definitions
            if total[node.name] == inside[node.name]]


def test_every_library_definition_has_a_caller_in_the_program():
    assert SRC and BENCH
    unreferenced = _unreferenced()
    missing = [name for name in unreferenced if name not in TEST_CHECKED]
    assert missing == [], f"only tests call {missing}; delete them or call them"
    # an exemption goes once its name gains a caller
    assert sorted(unreferenced) == sorted(TEST_CHECKED)


# The Hochster engine that `homology.taylor_betti_oracle` cross-checks. The
# oracle shares only `rank` with it, so a fault in any of these cannot make
# both sides agree on a wrong table.
ENGINE = {"_faces_by_dim", "_dims_from_faces", "_ind_dims", "_component_dims",
          "_adjacency", "betti_table_squarefree", "polarize", "alexander_dual"}


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


def _source_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in SRC}


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
