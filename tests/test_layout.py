"""Package layout: every top-level function and class in `src/coverdepth`
has a caller in the program itself, so library code that only tests call
does not build up in `src/`.

A name counts as referenced when it appears, outside its own definition, in
`src/coverdepth/*.py` or `bench/*.py` as a variable name, an attribute, or a
string constant (the tracer looks its layer functions up by name).
Docstrings do not count.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "coverdepth").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# Names a test checks directly that have no caller in the program, with why
# they stay in `src/`.
TEST_CHECKED = {
    "layered.check_polarization_identity": "acceptance criterion 1 checks "
    "the polarization identity itself, each side computed on its own",
}


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
