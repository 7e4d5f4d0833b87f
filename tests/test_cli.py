"""Command-line interface: file formats, frozen outputs, exit codes."""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

from coverdepth.cli import (
    build_parser,
    format_layered_text,
    main,
    parse_graph_text,
    parse_partition_text,
)
from coverdepth import cli
from coverdepth.errors import ParseError
from coverdepth.graphs import Graph
from coverdepth.layered import build_gk
from coverdepth.theorems import report_to_json, run_corpus

P4_TEXT = "n 4\n1 2\n2 3\n3 4\n"
K2_TEXT = "n 2\n1 2\n"
K3_TEXT = "n 3\n1 2\n1 3\n2 3\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("p4", P4_TEXT), ("k2", K2_TEXT), ("k3", K3_TEXT)]:
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_graph_text_round_trip():
    assert parse_graph_text(P4_TEXT) == Graph(4, ((1, 2), (2, 3), (3, 4)))
    # blank lines and surrounding spaces are ignored, edges kept as a set
    assert parse_graph_text("\n n 4 \n3 4\n1 2\n\n2 3\n1 2\n") == parse_graph_text(P4_TEXT)
    assert parse_graph_text("n 1\n") == Graph(1, ())


@pytest.mark.parametrize(
    "text",
    ["", "m 3\n", "n x\n", "n 3\n1\n", "n 3\n2 1\n", "n 3\n1 1\n", "n 3\n1 4\n"],
)
def test_graph_text_parse_errors(text):
    with pytest.raises(ParseError):
        parse_graph_text(text)


def test_partition_text():
    assert parse_partition_text("1 2\n3\n") == [(1, 2), (3,)]
    with pytest.raises(ParseError):
        parse_partition_text("")
    with pytest.raises(ParseError):
        parse_partition_text("1 a\n")


def test_layered_text_round_trip():
    gk = build_gk(Graph(3, ((1, 2), (1, 3))), 2)
    assert format_layered_text(gk) == (
        "n 3 k 2\n1_1 2_1\n1_1 2_2\n1_1 3_1\n1_1 3_2\n1_2 2_1\n1_2 3_1\n"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_invariants_text_frozen(files, capsys):
    assert main(["invariants", files["p4"]]) == 0
    assert capsys.readouterr().out == (
        "n 4\n"
        "alpha 2\n"
        "ind_match 1\n"
        "ord_match 2\n"
        "s_ord_match s=1 2\n"
        "s_ord_match s=2 2\n"
        "s_ord_match s=3 -inf\n"
        "largest_stable_s 2\n"
        "certificate 1,2 4,3\n"
    )


def test_invariants_k2_and_k3(files, capsys):
    assert main(["invariants", files["k2"], "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["alpha"] == rep["ind_match"] == rep["ord_match"] == 1
    assert rep["s_ord_match"] == {"1": 1, "2": "-inf"}

    assert main(["invariants", files["k3"]]) == 0
    out = capsys.readouterr().out
    assert "s_ord_match s=2 -inf\n" in out
    assert "largest_stable_s 1\n" in out


def test_invariants_errors(files, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("hello\n")
    assert main(["invariants", str(bad)]) == 2
    big = tmp_path / "big.txt"
    big.write_text("n 8\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 8)))
    assert main(["invariants", str(big)]) == 3
    assert main(["invariants", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


def test_ideal_examples(files, capsys):
    assert main(["ideal", "cover", files["k3"]]) == 0
    assert capsys.readouterr().out == "(x1 x2, x1 x3, x2 x3)\n"

    assert main(["ideal", "sympow", files["k2"], "2"]) == 0
    assert capsys.readouterr().out == "(x1^2, x1 x2, x2^2)\n"

    assert main(["ideal", "edge", files["p4"]]) == 0
    assert capsys.readouterr().out == "(x1 x2, x2 x3, x3 x4)\n"


def test_ideal_pipeline(files, tmp_path, capsys):
    sympow = tmp_path / "sympow.txt"
    assert main(["ideal", "sympow", files["k2"], "2", "--output", str(sympow)]) == 0
    assert sympow.read_text() == "(x1^2, x1 x2, x2^2)\n"

    assert main(["ideal", "polarize", str(sympow)]) == 0
    assert capsys.readouterr().out == "(x1_1 x1_2, x1_1 x2_1, x2_1 x2_2)\n"

    edge = tmp_path / "edge.txt"
    assert main(["ideal", "edge", files["p4"], "--output", str(edge)]) == 0
    assert main(["ideal", "dual", str(edge)]) == 0
    assert capsys.readouterr().out == "(x1 x3, x2 x3, x2 x4)\n"

    cover = tmp_path / "cover.txt"
    assert main(["ideal", "cover", files["p4"], "--output", str(cover)]) == 0
    assert main(["ideal", "intersect", str(edge), str(cover)]) == 0
    assert capsys.readouterr().out == "(x2 x3, x1 x2 x4, x1 x3 x4)\n"

    assert main(["ideal", "pow", str(edge), "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(x1^2 x2^2, ")

    # Alexander dual needs a squarefree ideal
    assert main(["ideal", "dual", str(sympow)]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("literal", ["(x0)", "(x0 x1)", "(x1_0)", "(x0_1)"])
def test_ideal_literal_with_index_zero_is_a_parse_error(tmp_path, capsys, literal):
    path = tmp_path / "ideal.txt"
    path.write_text(literal + "\n")
    assert main(["ideal", "polarize", str(path)]) == 2
    assert "needs indices >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("op", ["pow", "polarize"])
@pytest.mark.parametrize("literal", ["(x1^0)", "(x1 x2^0)", "(x1^00)", "(x1_1^0)"])
def test_ideal_literal_with_exponent_zero_is_a_parse_error(tmp_path, capsys, op, literal):
    """`(x1^0)` is not read as the unit ideal, nor `(x1 x2^0)` as `(x1)`."""
    path = tmp_path / "ideal.txt"
    path.write_text(literal + "\n")
    assert main(["ideal", op, str(path), *(["2"] if op == "pow" else [])]) == 2
    captured = capsys.readouterr()
    assert "needs an exponent >= 1" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    ("a", "b", "want"),
    [("(x1)", "(x2)", "(x1 x2)"),
     ("(x2)", "(x1^2, x3)", "(x2 x3, x1^2 x2)"),
     ("(x1_1)", "(x2_1)", "(x1_1 x2_1)"),
     ("(x1_2)", "(x1_1, x2_1)", "(x1_1 x1_2, x1_2 x2_1)")],
)
def test_ideal_intersect_reads_both_literals_in_one_ring(tmp_path, capsys, a, b, want):
    """Each literal alone would infer its own ring from its labels."""
    (tmp_path / "a.txt").write_text(a + "\n")
    (tmp_path / "b.txt").write_text(b + "\n")
    assert main(["ideal", "intersect", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]) == 0
    assert capsys.readouterr().out == want + "\n"


def test_ideal_intersect_rejects_base_with_layered(tmp_path, capsys):
    (tmp_path / "a.txt").write_text("(x1)\n")
    (tmp_path / "b.txt").write_text("(x1_1)\n")
    assert main(["ideal", "intersect", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]) == 4
    assert "ideals live in different rings" in capsys.readouterr().err


def test_ideal_json_round_trip(files, capsys):
    assert main(["ideal", "cover", files["k3"], "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"vars": [1, 2, 3], "gens": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]}


# `ideal` parsers are generated from `cli.IDEAL_OPS`; this is their help at
# 80 columns, as the hand-written parsers printed it.
IDEAL_HELP = """\
usage: coverdepth ideal [-h]
                        {cover,edge,sympow,pow,polarize,dual,intersect} ...

positional arguments:
  {cover,edge,sympow,pow,polarize,dual,intersect}

options:
  -h, --help            show this help message and exit
"""

IDEAL_OP_HELP = {
    "cover": """\
usage: coverdepth ideal cover [-h] [--format {text,json}] [--output OUTPUT]
                              graph

positional arguments:
  graph

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --output OUTPUT
""",
    "edge": """\
usage: coverdepth ideal edge [-h] [--format {text,json}] [--output OUTPUT]
                             graph

positional arguments:
  graph

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --output OUTPUT
""",
    "sympow": """\
usage: coverdepth ideal sympow [-h] [--format {text,json}] [--output OUTPUT]
                               graph k

positional arguments:
  graph
  k

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --output OUTPUT
""",
    "pow": """\
usage: coverdepth ideal pow [-h] [--format {text,json}] [--output OUTPUT]
                            ideal k

positional arguments:
  ideal
  k

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --output OUTPUT
""",
    "polarize": """\
usage: coverdepth ideal polarize [-h] [--format {text,json}] [--output OUTPUT]
                                 ideal

positional arguments:
  ideal

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --output OUTPUT
""",
    "dual": """\
usage: coverdepth ideal dual [-h] [--format {text,json}] [--output OUTPUT]
                             ideal

positional arguments:
  ideal

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --output OUTPUT
""",
    "intersect": """\
usage: coverdepth ideal intersect [-h] [--format {text,json}]
                                  [--output OUTPUT]
                                  ideal_a ideal_b

positional arguments:
  ideal_a
  ideal_b

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --output OUTPUT
""",
}


def test_ideal_parser_help_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    ideal = next(a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices["ideal"]
    assert ideal.format_help() == IDEAL_HELP
    ops = {path[0]: p for path, p in _leaf_parsers(ideal)}
    assert list(ops) == list(IDEAL_OP_HELP)
    for op, p in ops.items():
        assert p.format_help() == IDEAL_OP_HELP[op]
        assert p.format_usage() == IDEAL_OP_HELP[op].split("\n\n")[0] + "\n"


# (op and arguments, text output, JSON output); file names are keys of the
# `files` fixture or of IDEAL_FILES
IDEAL_FILES = {
    "edge": "(x1 x2, x2 x3, x3 x4)\n",
    "cover": "(x1 x3, x2 x3, x2 x4)\n",
    "sympow": "(x1^2, x1 x2, x2^2)\n",
}
IDEAL_OUTPUTS = [
    (["cover", "p4"], "(x1 x3, x2 x3, x2 x4)",
     {"vars": [1, 2, 3, 4], "gens": [[1, 0, 1, 0], [0, 1, 1, 0], [0, 1, 0, 1]]}),
    (["edge", "p4"], "(x1 x2, x2 x3, x3 x4)",
     {"vars": [1, 2, 3, 4], "gens": [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]}),
    (["sympow", "k2", "2"], "(x1^2, x1 x2, x2^2)",
     {"vars": [1, 2], "gens": [[2, 0], [1, 1], [0, 2]]}),
    (["pow", "edge", "2"],
     "(x1^2 x2^2, x1 x2^2 x3, x1 x2 x3 x4, x2^2 x3^2, x2 x3^2 x4, x3^2 x4^2)",
     {"vars": [1, 2, 3, 4], "gens": [[2, 2, 0, 0], [1, 2, 1, 0], [1, 1, 1, 1],
                                     [0, 2, 2, 0], [0, 1, 2, 1], [0, 0, 2, 2]]}),
    (["polarize", "sympow"], "(x1_1 x1_2, x1_1 x2_1, x2_1 x2_2)",
     {"vars": [[1, 1], [1, 2], [2, 1], [2, 2]],
      "gens": [[1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1]]}),
    (["dual", "edge"], "(x1 x3, x2 x3, x2 x4)",
     {"vars": [1, 2, 3, 4], "gens": [[1, 0, 1, 0], [0, 1, 1, 0], [0, 1, 0, 1]]}),
    (["intersect", "edge", "cover"], "(x2 x3, x1 x2 x4, x1 x3 x4)",
     {"vars": [1, 2, 3, 4], "gens": [[0, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1]]}),
]


def test_ideal_op_outputs_pinned(files, capsys):
    """Every `ideal` op's text and JSON output on P4, K2 and ideals built
    from them, byte for byte; a non-integer exponent is a usage error."""
    for name, text in IDEAL_FILES.items():
        (files["dir"] / f"{name}.txt").write_text(text)
        files[name] = str(files["dir"] / f"{name}.txt")
    assert [argv[0] for argv, _, _ in IDEAL_OUTPUTS] == list(IDEAL_OP_HELP)
    for argv, text, data in IDEAL_OUTPUTS:
        argv = ["ideal", argv[0], *(files.get(a, a) for a in argv[1:])]
        assert main(argv) == 0
        assert capsys.readouterr().out == text + "\n"
        assert main([*argv, "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(data, indent=2, sort_keys=True) + "\n"
    for argv in (["sympow", files["p4"], "x"], ["pow", files["edge"], "x"]):
        with pytest.raises(SystemExit) as exc:
            main(["ideal", *argv])
        assert exc.value.code == 2
        assert "argument k: invalid int value: 'x'" in capsys.readouterr().err


def test_gk_output(files, capsys):
    assert main(["gk", files["k2"], "2"]) == 0
    assert capsys.readouterr().out == "n 2 k 2\n1_1 2_1\n1_1 2_2\n1_2 2_1\n"

    assert main(["gk", files["k2"], "1"]) == 0
    assert capsys.readouterr().out == "n 2 k 1\n1_1 2_1\n"

    assert main(["gk", files["k2"], "0"]) == 4
    capsys.readouterr()

    assert main(["gk", files["p4"], "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 4 and data["k"] == 2 and len(data["edges"]) == 9


def test_depth_output(files, capsys):
    assert main(["depth", files["k2"], "5"]) == 0
    assert capsys.readouterr().out == (
        "depth 0\nroutes upper-koszul layered-regularity agree\n"
    )
    assert main(["depth", files["p4"], "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"depth": 1, "field": "q", "k": 2, "n": 4, "routes_agree": True}
    assert main(["depth", files["k3"], "2", "--field", "f2"]) == 0
    assert capsys.readouterr().out.startswith("depth 1\n")


def test_depth_guard_and_override(files, capsys, monkeypatch):
    assert main(["depth", files["p4"], "5"]) == 3
    assert main(["depth", files["p4"], "2", "--hochster-guard", "30"]) == 4
    monkeypatch.setenv("COVERDEPTH_GUARD_OVERRIDE", "1")
    assert main(["depth", files["p4"], "5", "--hochster-guard", "30"]) == 0
    capsys.readouterr()


def test_verify_single_graph(files, capsys):
    assert main(["verify", "regupper", "--graph", files["p4"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("regupper passed n=4 ")
    assert lines[1] == "passed 1 failed 0 skipped 0"

    assert main(["verify", "all", "--graph", files["p4"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "passed 5 failed 0 skipped 0"

    iso = files["dir"] / "iso.txt"
    iso.write_text("n 3\n1 2\n")
    assert main(["verify", "main", "--graph", str(iso)]) == 2
    capsys.readouterr()

    # under `all`, the verifiers that reject isolated vertices are left out
    # (main, regind, bipartite, proofmatch), as in the corpus sweep
    assert main(["verify", "all", "--graph", str(iso)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == ["regupper"]
    assert lines[-1] == "passed 1 failed 0 skipped 0"
    pi = files["dir"] / "pi.txt"
    pi.write_text("1 2\n3\n")
    assert main(["verify", "all", "--graph", str(iso), "--partition", str(pi)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == ["whisker", "regupper"]


def test_verify_all_single_graph_skips_an_edgeless_graph(files, capsys):
    """Every verifier's `accepts` covers its preconditions, so `verify all`
    on an edgeless graph runs none of them and exits 0 with an empty
    report, while asking for `regupper` by name is still a usage error."""
    empty = files["dir"] / "empty.txt"
    empty.write_text("n 2\n")
    assert main(["verify", "all", "--graph", str(empty), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == []
    assert main(["verify", "regupper", "--graph", str(empty)]) == 2
    assert "needs a graph with at least one edge" in capsys.readouterr().err


def test_verify_whisker_single(files, capsys):
    pi = files["dir"] / "pi.txt"
    pi.write_text("1 2\n")
    assert main(
        ["verify", "whisker", "--graph", files["k2"], "--partition", str(pi)]
    ) == 0
    assert main(["verify", "whisker", "--graph", files["k2"]]) == 2
    capsys.readouterr()


def test_verify_single_graph_matches_corpus(tmp_path, capsys):
    """`verify all --graph` gives each graph of the <=3-vertex corpus the
    same outcomes as the corpus sweep, whisker included when a partition
    is given."""
    corpus = json.loads(report_to_json(run_corpus(max_vertices=3, k_max=3)))
    graph_file = tmp_path / "g.txt"
    pi_file = tmp_path / "pi.txt"
    pi_file.write_text("1 2\n3\n")

    def check(graph, partition=None):
        graph_file.write_text(
            f"n {graph['n']}\n" + "".join(f"{u} {v}\n" for u, v in graph["edges"])
        )
        argv = ["verify", "all", "--graph", str(graph_file), "--format", "json"]
        if partition is not None:
            argv += ["--partition", str(pi_file)]
        assert main(argv) == 0
        expected = [
            o for o in corpus
            if o["instance"]["graph"] == graph
            and o["instance"].get("partition", partition) == partition
        ]
        assert json.loads(capsys.readouterr().out) == expected

    graphs = [o["instance"]["graph"] for o in corpus if o["theorem_id"] == "main"]
    assert len(graphs) == 3
    for graph in graphs:
        check(graph)
    check({"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}, partition=[[1, 2], [3]])


def test_verify_mode_flags_are_usage_errors_in_the_other_mode(files, capsys):
    """`--max-vertices` bounds a corpus run and `--partition` belongs to a
    single-graph run; either in the other mode is a usage error (exit 2),
    not a flag silently ignored."""
    argv = ["verify", "all", "--graph", files["k2"], "--max-vertices", "7"]
    assert main(argv) == 2
    assert "--max-vertices bounds a corpus run" in capsys.readouterr().err
    pi = files["dir"] / "pi.txt"
    pi.write_text("1 2\n")
    assert main(["verify", "whisker", "--partition", str(pi)]) == 2
    assert "--partition needs --graph" in capsys.readouterr().err


def test_verify_single_graph_deterministic_across_jobs(files, monkeypatch, capsys):
    """A single-graph run hands `--jobs` to the runner, and its report is
    byte-identical at one and two worker processes."""
    seen = []
    run_items = cli.run_items

    def recording(items, jobs=1):
        seen.append(jobs)
        return run_items(items, jobs)

    monkeypatch.setattr(cli, "run_items", recording)
    base = ["verify", "all", "--graph", files["p4"], "--format", "json"]
    r1 = files["dir"] / "r1.json"
    r2 = files["dir"] / "r2.json"
    assert main([*base, "--jobs", "1", "--output", str(r1)]) == 0
    assert main([*base, "--jobs", "2", "--output", str(r2)]) == 0
    assert seen == [1, 2]
    assert r1.read_bytes() == r2.read_bytes()
    capsys.readouterr()


def test_verify_corpus_small(files, capsys):
    assert main(["verify", "all", "--max-vertices", "3", "--max-k", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "passed 28 failed 0 skipped 1"


def test_verify_corpus_deterministic_across_jobs(files, capsys):
    base = ["verify", "all", "--max-vertices", "3", "--max-k", "2", "--format", "json"]
    r1 = files["dir"] / "r1.json"
    r2 = files["dir"] / "r2.json"
    assert main([*base, "--output", str(r1)]) == 0
    assert main([*base, "--jobs", "2", "--output", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    capsys.readouterr()


def test_verify_all_report_pinned(tmp_path, capsys):
    """The JSON report of the <=5-vertex corpus, byte for byte. A change that
    alters the report on purpose updates this digest and says why."""
    out = tmp_path / "report.json"
    argv = ["verify", "all", "--max-vertices", "5", "--max-k", "3",
            "--jobs", "1", "--format", "json", "--output", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "95fc5350b57fb8f6ad67ea10e498fa6cbaa255aa05d83714eba6a96b2b390f54"
    )
    capsys.readouterr()


def test_verify_all_enumeration_guard_fires_before_any_work(capsys):
    """Past the enumeration guard (7 vertices) the corpus run is refused
    with exit 3 before any graph class is built."""
    start = time.perf_counter()
    assert main(["verify", "all", "--max-vertices", "8"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "enumeration of 8-vertex graphs exceeds guard 7" in capsys.readouterr().err


def test_verify_csv_format(files, capsys):
    assert main(
        ["verify", "regupper", "--max-vertices", "3", "--format", "csv"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theorem_id,n,instance_hash,status"
    assert all(ln.startswith("regupper,") for ln in lines[1:])


def test_config_validation(files, capsys):
    assert main(["verify", "all", "--jobs", "0"]) == 4
    assert main(["depth", files["k2"], "1", "--hochster-guard", "0"]) == 4
    capsys.readouterr()


LEAF_FLAGS = {
    ("invariants",): {"--format", "--output"},
    **{("ideal", op): {"--format", "--output"}
       for op in ("cover", "edge", "sympow", "pow", "polarize", "dual", "intersect")},
    ("gk",): {"--format", "--output"},
    ("depth",): {"--format", "--output", "--field", "--hochster-guard"},
    ("verify",): {"--format", "--output", "--field", "--hochster-guard", "--max-k",
                  "--max-vertices", "--jobs", "--graph", "--partition"},
}


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, (*path, name))


def test_each_command_takes_only_the_flags_it_reads():
    leaves = {
        path: {s for a in p._actions if a.dest != "help" for s in a.option_strings}
        for path, p in _leaf_parsers(build_parser())
    }
    assert leaves == LEAF_FLAGS


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "g.txt", "--format", "csv"],
        ["ideal", "cover", "g.txt", "--jobs", "2"],
        ["invariants", "g.txt", "--hochster-guard", "30"],
        ["depth", "g.txt", "1", "--max-k", "0"],
    ],
    ids=["invariants-csv", "ideal-jobs", "invariants-guard", "depth-max-k"],
)
def test_flags_a_command_does_not_take(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def test_benchmark_argv_parses(monkeypatch):
    """The benchmark drives `verify all` through this parser; its corpus5
    argv, and the same argv with the guard raised as `bench/freeze.py` does,
    must still parse."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    workloads_py = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", workloads_py)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argv, _report = workloads.setup("corpus5", 1, False, Path("unused"))
    for extra in ([], ["--hochster-guard", "24"]):
        args = build_parser().parse_args([*argv, *extra])
        assert (args.command, args.theorem, args.format) == ("verify", "all", "json")


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["depth"])
    assert exc.value.code == 2
