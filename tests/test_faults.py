"""Fault table: which planted faults of the shared homology kernel a run
catches, and which it lets through.

Each row is a fault, a command and the exit code the command must give
under it. A fault is a monkeypatch on one private function; the homology
memos are cleared before and after, so no faulty entry outlives its row.
A row that a run is known to miss is a strict xfail naming the hole, so
closing the hole forces the row to be updated.
"""

from __future__ import annotations

import pytest

from coverdepth import cli, homology
from coverdepth.errors import GUARD_OVERRIDE_ENV

C5_TEXT = "n 5\n1 2\n2 3\n3 4\n4 5\n1 5\n"

# commands by name; "{C5}" stands for a C5 graph file
COMMANDS = {
    "lifted verify all n5": [
        "verify", "all", "--max-vertices", "5", "--hochster-guard", "24",
        "--format", "json",
    ],
    "verify regupper C5": ["verify", "regupper", "--graph", "{C5}"],
}


def _shift(inner):
    """On complexes of dimension >= 1, each degree d >= 0 is reported as
    d - 1."""

    def shifted(faces, char):
        dims = inner(faces, char)
        if max(faces) < 1:
            return dims
        return {d - 1 if d >= 0 else d: c for d, c in dims.items()}

    return shifted


# fault name -> (the homology function it replaces, its wrapper of that function)
FAULTS = {"shift": ("_dims_from_faces", _shift)}


def _clear_memos() -> None:
    homology._COMPONENT_DIMS.clear()
    homology._KOSZUL_DIMS.clear()


def _run(command: str, tmp_path, monkeypatch) -> int:
    graph = tmp_path / "c5.txt"
    graph.write_text(C5_TEXT)
    argv = [arg.replace("{C5}", str(graph)) for arg in COMMANDS[command]]
    monkeypatch.setenv(GUARD_OVERRIDE_ENV, "1")
    return cli.main([*argv, "--output", str(tmp_path / "report.out")])


@pytest.fixture
def clean_memos():
    _clear_memos()
    yield
    _clear_memos()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_commands_pass_without_a_fault(command, tmp_path, monkeypatch, clean_memos):
    assert _run(command, tmp_path, monkeypatch) == 0


@pytest.mark.parametrize(
    "fault, command, exit_code",
    [
        pytest.param("shift", "lifted verify all n5", 5, id="shift-verify-all-n5"),
        pytest.param(
            "shift", "verify regupper C5", 5, id="shift-regupper-C5",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="ROADMAP item 2's hole: both depth routes read homology "
                "through _dims_from_faces, so at k = 1 they agree on reg 2 for C5 "
                "(true 3), which still lies between ind + 1 = 2 and t + 1 = 3",
            ),
        ),
    ],
)
def test_fault_table(fault, command, exit_code, tmp_path, monkeypatch, clean_memos):
    target, wrap = FAULTS[fault]
    monkeypatch.setattr(homology, target, wrap(getattr(homology, target)))
    assert _run(command, tmp_path, monkeypatch) == exit_code
