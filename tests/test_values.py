"""Value classes: the nine `Frozen` subclasses compare, hash, print, pickle
and refuse mutation as frozen value types, and README's library example
runs as written."""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from coverdepth.graphs import Graph, OrderedProfile, isolated_vertices
from coverdepth.homology import BettiTable, FieldChoice
from coverdepth.ideals import MonomialIdeal, Ring
from coverdepth.layered import LayeredGraph
from coverdepth.theorems import VerificationOutcome, Verifier, verify_main

ROOT = Path(__file__).resolve().parent.parent

# class name -> (a factory of one instance, its fields in constructor order,
# whether it hashes: a dict field makes an outcome unhashable)
CASES = {
    "Graph": (lambda: Graph(3, ((1, 2), (2, 3))), ("n", "edges"), True),
    "OrderedProfile": (lambda: OrderedProfile((1,), (None,), (0, None)),
                       ("sizes", "certs", "b_independent"), True),
    "FieldChoice": (lambda: FieldChoice(2), ("char",), True),
    "BettiTable": (lambda: BettiTable(2, ((0, 0, 1), (1, 2, 1))),
                   ("num_vars", "entries"), True),
    "Ring": (lambda: Ring((1, 2)), ("labels",), True),
    "MonomialIdeal": (lambda: MonomialIdeal(Ring((1, 2)), frozenset({(1, 1)})),
                      ("ring", "gens"), True),
    "LayeredGraph": (lambda: LayeredGraph(1, 2, (2, 1)), ("base_n", "k", "adj"), True),
    "VerificationOutcome": (
        lambda: VerificationOutcome("main", {"n": 1}, "skipped", {"reason": "r"}),
        ("theorem_id", "instance", "status", "details"), False),
    "Verifier": (lambda: Verifier(verify_main, True, isolated_vertices),
                 ("call", "takes_partition", "accepts"), True),
}


@pytest.mark.parametrize("name", list(CASES))
def test_value_semantics(name):
    make, fields, hashable = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == b and not a != b and a is not b
    assert type(a)(**{f: getattr(a, f) for f in fields}) == a
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)

    other = next(m() for n, (m, _, _) in CASES.items() if n != name)
    assert a != other and a.__eq__(other) is NotImplemented
    assert a.__eq__(getattr(a, fields[0])) is NotImplemented

    for attr in (fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
    with pytest.raises(AttributeError):
        delattr(a, fields[0])
    assert a == b

    args = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
    assert repr(a) == f"{name}({args})"

    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and vars(copy) == vars(a)


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "Graph(4, ((1, 2), (2, 3), (3, 4)))" in code
    exec(compile(code, "README.md", "exec"), {})
