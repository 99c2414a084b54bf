"""Command-line verbs: golden outputs, JSON mode, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lambdacol import GraphParseError, parse_colouring, parse_graph
from lambdacol.solver import FAR_PAIR_LIMIT
from lambdacol.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def g3_file(tmp_path):
    p = tmp_path / "g3.txt"
    p.write_text("p 4 3\ne 0 2\ne 0 3\ne 1 3\n")
    return str(p)


@pytest.fixture
def p3_file(tmp_path):
    p = tmp_path / "p3.txt"
    p.write_text("p 3 2\ne 0 1\ne 1 2\n")
    return str(p)


LAMBDA_G3 = "lambda 3\nc 0 0\nc 1 1\nc 2 2\nc 3 3\nholes none\n"


def write_colouring(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------

def test_construct_gn_golden(capsys):
    code, out, _ = run(capsys, "construct", "gn", "3")
    assert code == 0
    assert out == "p 4 3\ne 0 2\ne 0 3\ne 1 3\n"


def test_construct_gtl_golden(capsys):
    code, out, _ = run(capsys, "construct", "gtl", "3", "1")
    assert code == 0
    assert out.startswith("p 4 3\n")
    assert "v 0 0\nv 1 1\nv 2 2\nv 3 3\n" in out


def test_lambda_golden(capsys, g3_file):
    code, out, _ = run(capsys, "lambda", g3_file)
    assert code == 0
    assert out == LAMBDA_G3


def test_check_valid_and_invalid(capsys, g3_file, tmp_path):
    good = write_colouring(tmp_path, "good.txt", "c 0 0\nc 1 1\nc 2 2\nc 3 3\n")
    code, out, _ = run(capsys, "check", g3_file, good)
    assert code == 0 and out == "valid span=3\n"
    bad = write_colouring(tmp_path, "bad.txt", "c 0 0\nc 1 2\nc 2 0\nc 3 2\n")
    code, out, _ = run(capsys, "check", g3_file, bad)
    assert code == 0
    assert out.startswith("invalid: vertices 0 and 2 at distance 1")


def test_shape_functional_verbs(capsys):
    code, out, _ = run(capsys, "shape-m", "3,2,1,3")
    assert code == 0 and out == "6\n"
    code, out, _ = run(capsys, "shape-k", "2,2,2,2")
    assert code == 0 and out == "3\n"


def test_maxedges_golden(capsys):
    code, out, _ = run(capsys, "maxedges", "8", "4")
    assert code == 0
    assert out == "9\n2,1,2,1,2\n"
    code, out, _ = run(capsys, "maxedges", "9", "3")
    lines = out.splitlines()
    assert lines[0] == "6" and len(lines) == 11
    assert lines[1:] == sorted(lines[1:])
    code, out, _ = run(capsys, "maxedges", "200", "3")
    assert code == 0
    assert out == "150\n50,50,50,50\n"


def test_verify_golden(capsys):
    code, out, _ = run(capsys, "verify", "9", "3")
    assert code == 0
    assert out == (
        "n=9 t=3 PASS max=6 attaining=10 census=skip inner=FAIL outer=PASS\n"
    )


def test_census_golden(capsys):
    code, out, _ = run(capsys, "census", "4")
    assert code == 0
    assert out == "0 0\n2 2\n3 3\n4 4\n5 5\n6 6\n"


def test_readme_examples_print_what_the_readme_shows(capsys):
    # each `$ lambdacol ...` line of the README's Examples block, run
    # through main, prints the lines under it
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ lambdacol "):
            examples.append((line.split()[2:], ""))
        else:
            argv, want = examples[-1]
            examples[-1] = (argv, want + line + "\n")
    assert [argv for argv, _ in examples] == [
        ["construct", "gn", "3"], ["maxedges", "8", "4"], ["verify", "9", "3"]]
    for argv, want in examples:
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, want), argv


def test_pathcover_golden(capsys, g3_file):
    code, out, _ = run(capsys, "pathcover", g3_file)
    assert code == 0
    assert out == "path_cover=1 exact=no value=3\n"


def test_classify_golden(capsys, g3_file):
    code, out, _ = run(capsys, "classify", g3_file)
    assert code == 0
    assert out == (
        "case=DIVISIBLE max_edges=3 witness_shape=1,1,1,1 "
        "type=EQUITABLE dual=no\n"
    )


def test_embed_golden(capsys, p3_file, tmp_path):
    col = write_colouring(tmp_path, "c.txt", "c 0 2\nc 1 0\nc 2 3\n")
    code, out, _ = run(capsys, "embed", p3_file, col)
    assert code == 0
    assert out == (
        "p 4 3\ne 0 1\ne 1 2\ne 2 3\n"
        "v 0 2\nv 1 0\nv 2 3\nv 3 1\n"
        "map 0 0\nmap 1 1\nmap 2 2\n"
    )


def test_standardise_golden(capsys, p3_file, tmp_path):
    col = write_colouring(tmp_path, "c.txt", "c 0 2\nc 1 0\nc 2 3\n")
    code, out, _ = run(capsys, "standardise", p3_file, col)
    assert code == 0
    assert out == (
        "shape 1,0,1,1\n"
        "p 3 2\ne 0 1\ne 0 2\n"
        "map 0 1\nmap 1 0\nmap 2 2\n"
    )


# ---------------------------------------------------------------------------
# json mode
# ---------------------------------------------------------------------------

def test_json_outputs_parse(capsys, g3_file):
    code, out, _ = run(capsys, "lambda", g3_file, "--json")
    assert code == 0
    assert json.loads(out) == {
        "lambda": 3, "witness": [0, 1, 2, 3], "holes": [],
    }
    code, out, _ = run(capsys, "maxedges", "8", "4", "--json")
    assert json.loads(out) == {"max_edges": 9, "shapes": [[2, 1, 2, 1, 2]]}
    code, out, _ = run(capsys, "verify", "9", "3", "--json")
    d = json.loads(out)
    assert d["passed"] is True and d["inner_ok"] is False
    code, out, _ = run(capsys, "census", "4", "--json")
    assert json.loads(out)["table"] == [[0, 0], [2, 2], [3, 3], [4, 4], [5, 5], [6, 6]]
    code, out, _ = run(capsys, "classify", g3_file, "--json")
    d = json.loads(out)
    assert d["case"] == "DIVISIBLE" and d["stationary"]["tag"] == "EQUITABLE"


def test_json_outputs_of_the_other_verbs(capsys, g3_file, p3_file, tmp_path):
    good = write_colouring(tmp_path, "good.txt", "c 0 0\nc 1 1\nc 2 2\nc 3 3\n")
    bad = write_colouring(tmp_path, "bad.txt", "c 0 0\nc 1 2\nc 2 0\nc 3 2\n")
    col = write_colouring(tmp_path, "c.txt", "c 0 2\nc 1 0\nc 2 3\n")
    cases = [
        (["check", g3_file, good], {"valid": True, "span": 3}),
        (["check", g3_file, bad],
         {"valid": False, "vertices": [0, 2], "distance": 1}),
        (["construct", "gn", "3"],
         {"n": 4, "edges": [[0, 2], [0, 3], [1, 3]]}),
        (["construct", "gtl", "3", "2"],
         {"n": 8, "edges": [[0, 4], [0, 6], [1, 5], [1, 7], [2, 6], [3, 7]],
          "classes": [0, 0, 1, 1, 2, 2, 3, 3]}),
        (["embed", p3_file, col],
         {"host": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
          "classes": [2, 0, 3, 1], "injection": [0, 1, 2]}),
        (["standardise", p3_file, col],
         {"shape": [1, 0, 1, 1], "graph": {"n": 3, "edges": [[0, 1], [0, 2]]},
          "map": [1, 0, 2]}),
        (["shape-m", "3,2,1,3"], {"value": 6}),
        (["shape-k", "2,2,1,2"], {"value": 1}),
        (["pathcover", g3_file],
         {"path_cover": 1, "exact": False, "value": 3}),
    ]
    for argv, want in cases:
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, ""), argv
        assert out == json.dumps(want, sort_keys=True) + "\n", argv


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_domain_errors_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 2 1\ne 0 5\n")
    code, out, err = run(capsys, "lambda", str(bad))
    assert code == 1 and out == "" and "error:" in err
    code, _, err = run(capsys, "lambda", str(tmp_path / "missing.txt"))
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "shape-m", "3,2")
    assert code == 1 and "at least 4" in err
    code, _, err = run(capsys, "maxedges", "3", "3")
    assert code == 1
    code, _, err = run(capsys, "census", "9")
    assert code == 1 and "census" in err
    code, _, err = run(capsys, "maxedges", "5000", "20")
    assert code == 1 and "error:" in err and "cap" in err
    # one past each fixed cap
    code, out, err = run(capsys, "maxedges", "13", "12")  # 20,726,199 steps
    assert code == 1 and out == "" and "cap 20000000" in err
    edgeless = tmp_path / "edgeless.txt"
    edgeless.write_text("p 25 0\n")
    code, out, err = run(capsys, "pathcover", str(edgeless))
    assert code == 1 and out == ""
    assert "exact searches limited to n <= 24" in err
    edgeless.write_text("p 25 0\n")
    for verb in ("lambda", "classify"):
        code, out, err = run(capsys, verb, str(edgeless))
        assert code == 1 and out == ""
        assert "exact searches limited to n <= 24" in err


def test_classification_errors_exit_one(capsys, g3_file, monkeypatch):
    # a graph above the shape maximum is reported, not asserted
    monkeypatch.setattr("lambdacol.extremal.max_edges",
                        lambda n, t: (0, frozenset()))
    code, out, err = run(capsys, "classify", g3_file)
    assert code == 1 and out == ""
    assert "error:" in err and "exceed the maximum" in err


def test_oversized_constructions_exit_one(capsys):
    # refused from the arguments alone: building gn 3000 takes half a minute
    code, out, err = run(capsys, "construct", "gn", "3000")
    assert code == 1 and out == ""
    assert "error:" in err and "constructions limited" in err
    code, out, err = run(capsys, "construct", "gtl", "2000", "30")
    assert code == 1 and out == ""
    assert "error:" in err and "constructions limited" in err


# inputs of a few bytes that name huge sizes: refused or answered at once

def run_timed(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    return code, out, err, time.perf_counter() - start


def graph_and_colouring(tmp_path, graph, colouring):
    (tmp_path / "g.txt").write_text(graph)
    (tmp_path / "c.txt").write_text(colouring)
    return str(tmp_path / "g.txt"), str(tmp_path / "c.txt")


def test_missing_vertices_of_a_huge_header_exit_one(capsys, tmp_path):
    # the unlabelled vertices are counted, not listed
    g, c = graph_and_colouring(tmp_path, "p 1000000000 0\n", "c 0 0\n")
    code, out, err, secs = run_timed(capsys, "check", g, c)
    assert code == 1 and out == "" and secs < 1.0
    assert err == ("error: 999999999 of 1000000000 vertices unlabelled, "
                   "the first is 1\n")


def test_huge_span_on_two_vertices_is_refused_before_building(capsys, tmp_path):
    # span 20,000: about 2 * 10^8 class pairs for standardise and as many
    # host edges for embed; check needs neither.  Span 400,000 is under the
    # cap on colour classes, so the partition is built, holes and all
    for span in (20_000, 400_000):
        g, c = graph_and_colouring(tmp_path, "p 2 0\n", f"c 0 0\nc 1 {span}\n")
        assert run(capsys, "check", g, c)[:2] == (0, f"valid span={span}\n")
        for verb in ("standardise", "embed"):
            code, out, err, secs = run_timed(capsys, verb, g, c)
            assert code == 1 and out == "" and secs < 1.0
            assert "error:" in err and "constructions limited" in err


def test_standardise_refuses_many_edges_before_building(capsys, tmp_path):
    # 1,000 classes of 5: 498,501 class pairs, under the cap, but 2,492,505
    # edges in the standardised graph
    n = 5000
    g, c = graph_and_colouring(
        tmp_path, f"p {n} 0\n",
        "".join(f"c {v} {v % 1000}\n" for v in range(n)),
    )
    code, out, err, secs = run_timed(capsys, "standardise", g, c)
    assert code == 1 and out == "" and secs < 1.0
    assert err == ("error: constructions limited to 500000 vertices plus "
                   "edges, got 5000 + 2492505\n")


def test_check_on_a_long_path_reads_only_pairs_within_distance_two(
        capsys, tmp_path):
    # 2 * 10^8 vertex pairs, of which about 4 * 10^4 are within distance two
    n = 20_000
    g, c = graph_and_colouring(
        tmp_path,
        f"p {n} {n - 1}\n" + "".join(f"e {v} {v + 1}\n" for v in range(n - 1)),
        "".join(f"c {v} {2 * (v % 3)}\n" for v in range(n)),
    )
    code, out, _, secs = run_timed(capsys, "check", g, c)
    assert (code, out) == (0, "valid span=4\n")
    assert secs < 10.0


def test_coloured_verbs_on_a_long_path_build_no_mask(capsys, tmp_path):
    # the check and the embedding read the edge list: Graph.adj_masks
    # refuses a graph of this size, so a verb that read the masks would
    # fail here
    n = 30_000
    g, c = graph_and_colouring(
        tmp_path,
        f"p {n} {n - 1}\n" + "".join(f"e {v} {v + 1}\n" for v in range(n - 1)),
        "".join(f"c {v} {2 * v % 5}\n" for v in range(n)),
    )
    assert run(capsys, "check", g, c)[:2] == (0, "valid span=4\n")
    code, out, _ = run(capsys, "standardise", g, c)
    assert code == 0 and out.startswith("shape 6000,6000,6000,6000,6000\n")
    code, out, _ = run(capsys, "embed", g, c)
    assert code == 0 and out.startswith("p 30000 36000\n")


def test_check_on_a_large_star_is_linear_in_its_edges(capsys, tmp_path):
    # 3 * 10^8 pairs within distance two, all through the centre
    n = 25_000
    g, c = graph_and_colouring(
        tmp_path,
        f"p {n} {n - 1}\n" + "".join(f"e 0 {v}\n" for v in range(1, n)),
        "c 0 0\n" + "".join(f"c {v} {v + 1}\n" for v in range(1, n)),
    )
    code, out, _, secs = run_timed(capsys, "check", g, c)
    assert (code, out) == (0, f"valid span={n}\n")
    assert secs < 5.0


def test_solver_fault_exits_one(capsys, tmp_path, monkeypatch):
    # a search that never succeeds runs up to the trivial upper bound,
    # 2n - 2; the path on 7 vertices has 10 far pairs, too many for the
    # partition route, so the DFS decides it
    p7 = tmp_path / "p7.txt"
    p7.write_text("p 7 6\n" + "".join(f"e {v} {v + 1}\n" for v in range(6)))
    assert FAR_PAIR_LIMIT < 10
    monkeypatch.setattr("lambdacol.solver._search_masks", lambda *a: None)
    code, out, err = run(capsys, "lambda", str(p7))
    assert code == 1 and out == ""
    assert err == "error: no colouring of span at most 12 found\n"


def test_embedding_fault_exits_one(capsys, tmp_path, monkeypatch):
    # with partition_of's validity check skipped, a colouring that gives
    # vertex 0 both its neighbours in class 3 leaves classes 0 and 3
    # unmatched sets of different sizes
    monkeypatch.setattr("lambdacol.standardise.is_lambda_colouring",
                        lambda g, c: True)
    star = write_colouring(tmp_path, "star.txt", "p 3 2\ne 0 1\ne 0 2\n")
    col = write_colouring(tmp_path, "col.txt", "c 0 0\nc 1 3\nc 2 3\n")
    code, out, err = run(capsys, "embed", star, col)
    assert (code, out) == (1, "")
    assert err == ("error: unmatched sets of classes 0 and 3 differ in size: "
                   "1 vs 0\n")


def test_failing_label_order_probes_exit_one(capsys, tmp_path, monkeypatch):
    # the path on 4 vertices has one far pair, so the partition route
    # decides it and its witness rests on the probes alone
    p4 = tmp_path / "p4.txt"
    p4.write_text("p 4 3\ne 0 1\ne 1 2\ne 2 3\n")
    monkeypatch.setattr("lambdacol.solver._probe_in_label_order",
                        lambda *a: None)
    code, out, err = run(capsys, "lambda", str(p4))
    assert code == 1 and out == ""
    assert "error:" in err


def test_optimised_interpreter_keeps_errors_and_answers(g3_file):
    # under -O every assert is gone, so no answer or error may rest on one
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-O", "-m", "lambdacol.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    res = cli("maxedges", "5000", "20")
    assert res.returncode == 1
    assert "error:" in res.stderr and "Traceback" not in res.stderr
    res = cli("lambda", g3_file)
    assert res.returncode == 0
    assert res.stdout == LAMBDA_G3
    res = cli("maxedges", "200", "3")
    assert res.returncode == 0 and res.stdout == "150\n50,50,50,50\n"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["lambda"])
    assert exc.value.code == 2
    code, _, err = run(capsys, "construct", "gn")
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, "construct", "gn", "x")
    assert code == 2
    # the caps are fixed: no verb takes a flag to raise one
    for argv in (["lambda", "g", "--max-n", "30"],
                 ["classify", "g", "--max-n", "30"],
                 ["census", "8", "--max-n", "8"],
                 ["pathcover", "g", "--max-n", "28"],
                 ["maxedges", "13", "12", "--max-shapes", "10"],
                 ["classify", "g", "--max-shapes", "10"],
                 ["verify", "8", "3", "--max-shapes", "10"],
                 ["verify", "8", "3", "--census-limit", "7"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def _fuzz_corpus(tmp_path):
    """Hostile invocations of every verb: bad files, bad arguments, caps."""
    def put(name, data):
        (tmp_path / name).write_bytes(data.encode() if isinstance(data, str)
                                      else data)
        return str(tmp_path / name)

    # the first five parse, so only they meet every colouring
    graphs = [put(f"g{i}", text) for i, text in enumerate([
        "p 4 3\ne 0 2\ne 0 3\ne 1 3\n", "p 2 0\n", "p 4\ne 0 2\n",
        "p 1000000000 0\n", "p 25 0\n", "p 3 -1\n", "p x y\n",
        "hello world\n", "", "p 2 1\ne 0 5\n", "p 3 1\ne 1 1\n",
        "p 3 1\ne 0 x\n", b"\xff\xfe p 3",
    ])] + [str(tmp_path / "missing"), str(tmp_path)]
    colourings = [put(f"c{i}", text) for i, text in enumerate([
        "c 0 0\nc 1 1\nc 2 2\nc 3 3\n", "c 0 0\nc 1 2\nc 2 0\nc 3 2\n",
        "c 0 1\nc 1 3\nc 2 5\nc 3 7\n", "c 0 0\nc 1 400000\n", "c 0 0\n",
        "c 0 0\nc 0 1\n", "c 0 -1\nc 1 0\n", "c a b\n", "c 9 0\n", "what\n",
    ])] + [str(tmp_path / "missing")]
    argvs = [["construct", *params] for params in (
        ["gn", "3"], ["gn", "3000"], ["gn", "-1"], ["gn", "x"], ["gn"],
        ["gtl", "3", "2"], ["gtl", "2000", "30"], ["gtl", "1", "1"],
        ["gtl", "-2000", "1"], ["gtl", "3", "y"], ["gtl", "3"],
        ["gtl", "1", "2", "3"], ["bogus"])]
    for i, g in enumerate(graphs):
        argvs += [[verb, g] for verb in ("lambda", "classify", "pathcover")]
        paired = colourings if i < 5 else colourings[:1]
        argvs += [[verb, g, c] for c in paired
                  for verb in ("check", "embed", "standardise")]
    for shape in ("", "1,,2", "-1,2,3,4", "3,2,1,3", "3,2", "a,b,c,d",
                  "100,100,100,100"):
        argvs += [["shape-m", shape], ["shape-k", shape]]
    for n, t in [("8", "4"), ("13", "12"), ("5000", "20"), ("3", "3"),
                 ("1000000000", "1000000000"), ("-1", "3"), ("x", "3")]:
        argvs += [["maxedges", n, t], ["verify", n, t]]
    argvs += [["census", n]
              for n in ("4", "8", "13", "5000", "1000000000", "-1", "0", "x")]
    argvs += [[verb] for verb in ("lambda", "check", "construct", "embed",
                                  "standardise", "shape-m", "shape-k",
                                  "maxedges", "classify", "verify", "census",
                                  "pathcover", "bogus")]
    return argvs + [argv + ["--json"] for argv in argvs]


def _parsed(path, parse, *args):
    """``(value, None)`` when the file parses, else ``(None, message)``.

    The message is that of a read error (missing file, directory, bad UTF-8)
    or of a :class:`GraphParseError`; any other exception escapes, since the
    parsers raise nothing but typed errors.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return None, str(exc)
    try:
        return parse(text, *args), None
    except GraphParseError as exc:
        return None, str(exc)


_GRAPH_VERBS = ("lambda", "classify", "pathcover")
_COLOURED_VERBS = ("check", "embed", "standardise")


def _expected_read_error(argv):
    """The error a verb's file arguments make it print, or ``None``."""
    files = [a for a in argv[1:] if a != "--json"]
    if argv[0] not in _GRAPH_VERBS + _COLOURED_VERBS or not files:
        return None
    g, error = _parsed(files[0], parse_graph)
    if error is None and argv[0] in _COLOURED_VERBS and len(files) > 1:
        _, error = _parsed(files[1], parse_colouring, g.n)
    return error


def test_hostile_invocations_fail_cleanly(capsys, tmp_path):
    # Every verb, text and JSON: exit 0, 1 or 2 and never a traceback (an
    # exception escaping main), and nothing on stdout unless it succeeded.
    # A graph or colouring file that does not parse fails with the parser's
    # typed error, word for word.
    for argv in _fuzz_corpus(tmp_path):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert code == 0 or out == "", argv
        expected = _expected_read_error(argv)
        if expected is not None:
            assert (code, err) == (1, f"error: {expected}\n"), argv


@pytest.mark.parametrize("script", ["census_table.py", "classification_sweep.py"])
def test_scripts_print_their_help(script):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(root / "scripts" / script), "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert res.returncode == 0 and res.stdout.startswith("usage:")


def test_lenient_header_via_cli(capsys, tmp_path):
    p = tmp_path / "len.txt"
    p.write_text("p 4\ne 0 2\ne 0 3\ne 1 3\n")
    code, out, _ = run(capsys, "lambda", str(p))
    assert code == 0 and out.startswith("lambda 3\n")
