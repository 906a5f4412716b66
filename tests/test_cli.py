import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import reference_routes as ref
from baxt import cli, families, oracle
from baxt.cli import run
from baxt.monoid import canonical, element_to_json_obj
from baxt.represent import TupleElement, phi2
from baxt.semiring import matrix_to_json
from baxt.words import parse_aword


def out_of(capsys):
    return capsys.readouterr().out


def test_canon_json_roundtrip(capsys):
    code = run(["canon", "36131512665", "--n", "6", "--format", "json"])
    obj = json.loads(out_of(capsys))
    assert code == 0
    assert obj == element_to_json_obj(canonical(parse_aword("36131512665", 6)))
    assert obj["rpi"] == [[2, 1, 1], [5, 2, 1], [5, 3, 2]]
    assert obj["lpi"] == [[1, 2, 3], [3, 5, 2], [3, 6, 1]]


def test_canon_text(capsys):
    assert run(["canon", "12", "--n", "2"]) == 0
    assert "lpi: [(1, 2, 1)]" in out_of(capsys)


def test_equiv_exit_codes(capsys):
    assert run(["equiv", "2121", "2211", "--n", "2"]) == 0
    assert run(["equiv", "12", "21", "--n", "2"]) == 1


def test_sharp(capsys):
    assert run(["sharp", "112", "--n", "2"]) == 0
    assert out_of(capsys).strip() == "122"


def test_trees_dot(capsys):
    assert run(["trees", "2121", "--n", "2", "--format", "dot"]) == 0
    text = out_of(capsys)
    assert text.startswith("digraph left_strict {")
    assert "digraph right_strict {" in text
    # byte-reproducible
    run(["trees", "2121", "--n", "2", "--format", "dot"])
    assert out_of(capsys) == text


def test_trees_json(capsys):
    assert run(["trees", "36131512665", "--n", "6", "--format", "json"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj["right"]["label"] == 5
    assert obj["left"]["label"] == 3


def test_repr_small_rank(capsys):
    assert run(["repr", "21", "--n", "2", "--format", "json"]) == 0
    assert out_of(capsys).strip() == matrix_to_json(phi2(parse_aword("21", 2)))


def test_repr_tuple(capsys):
    assert run(["repr", "1234", "--n", "4", "--format", "json"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj["n"] == 4 and len(obj["coords"]) == 6
    assert run(["repr", "1234", "--n", "4", "--materialize", "--format",
                "json"]) == 0
    assert json.loads(out_of(capsys))["dim"] == 180


# `repr` output recorded before the block-diagonal matrix rewrite; large
# outputs are kept as a sha256 digest of the UTF-8 bytes.
GOLDEN = json.loads((Path(__file__).parent / "data" / "repr_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"][1:]))
def test_repr_golden_output(capsys, case):
    assert run(case["argv"]) == 0
    out = out_of(capsys)
    if "stdout" in case:
        assert out == case["stdout"]
    else:
        data = out.encode()
        assert len(data) == case["bytes"]
        assert hashlib.sha256(data).hexdigest() == case["sha256"]


# `trees` output in every format, recorded from the recursive nested trees
# before the trees became flat arrays; outputs over 1,000 bytes are kept as
# a sha256 digest of the UTF-8 bytes.
TREES_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "trees_golden.json").read_text())


@pytest.mark.parametrize("case", TREES_GOLDEN,
                         ids=lambda c: " ".join(c["argv"][1:])[:40])
def test_trees_golden_output(capsys, case):
    assert run(case["argv"]) == 0
    out = out_of(capsys)
    if "stdout" in case:
        assert out == case["stdout"]
    else:
        data = out.encode()
        assert len(data) == case["bytes"]
        assert hashlib.sha256(data).hexdigest() == case["sha256"]


def test_trees_of_a_long_run_of_one_letter(capsys):
    # 50,000 equal letters: the left strict tree is a chain of right
    # children, the right strict tree a chain of left children
    m = 50_000

    def chains(head, mid, null):
        """Both trees as nested text: each node reads head, left, mid,
        right, "}"."""
        return ((head + null + mid) * m + null + "}" * m,
                head * m + null + (mid + null + "}") * m)

    assert run(["trees", "1" * m, "--n", "1", "--format", "json"]) == 0
    left, right = chains('{"label":1,"left":', ',"right":', "null")
    assert out_of(capsys) == f'{{"left":{left},"right":{right}}}\n'
    assert run(["trees", "1" * m, "--n", "1"]) == 0
    left, right = chains("{'label': 1, 'left': ", ", 'right': ", "None")
    assert out_of(capsys) == f"left strict:  {left}\nright strict: {right}\n"
    assert run(["trees", "1" * m, "--n", "1", "--format", "dot"]) == 0
    for tag, graph in zip("RL", out_of(capsys).split("}\n")[:2]):
        lines = graph.splitlines()
        assert len(lines) == 1 + m + (m - 1)
        assert lines[-2:] == [f'  n{m - 2} -> n{m - 1} [label="{tag}"];',
                              f'  n{m - 1} [label="1"];']


@pytest.fixture(scope="module")
def deep_rank3_reference():
    """A random rank-3 word of 3,000 letters, whose twin trees are over
    1,000 levels deep, and its `trees` output in each format from the
    recursive nested trees, built under a raised recursion limit."""
    rng = random.Random(3)
    text = "".join(rng.choice("123") for _ in range(3000))
    w = parse_aword(text, 3)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        left, right = ref.p_sylv_sharp(w), ref.p_sylv(w)
        return text, {
            "text": f"left strict:  {asdict(left)}\n"
                    f"right strict: {asdict(right)}\n",
            "json": json.dumps({"left": asdict(left), "right": asdict(right)},
                               separators=(",", ":")) + "\n",
            "dot": ref.to_dot(left, "left_strict") + ref.to_dot(right, "right_strict"),
        }
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_trees_of_a_deep_rank3_word(capsys, deep_rank3_reference, fmt):
    text, expected = deep_rank3_reference
    assert run(["trees", text, "--n", "3", "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == expected[fmt]


# `--help` output of baxt and of every subcommand at 80 columns, recorded
# before the subcommands bound their handlers in the parser.
HELP_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_help_golden.json").read_text())


def test_help_golden_output(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for case in HELP_GOLDEN:
        assert run(case["argv"]) == 0
        assert out_of(capsys) == case["stdout"], case["argv"]


def test_check_id(capsys):
    assert run(["check-id", "x y ~= y x", "--n", "4", "--format", "json"]) == 1
    obj = json.loads(out_of(capsys))
    assert obj["verdict"] == "NO" and obj["violated"] == "OccLR"
    assert run(["check-id", "x y ~= y x", "--n", "1"]) == 0


def test_check_id_flattens_terms(capsys):
    assert run(["check-id", "x(x*)* ~= x x", "--n", "4"]) == 0
    assert out_of(capsys).strip() == "YES"


def test_family_pipes_into_check_id(capsys):
    assert run(["family", "pkqk", "--k", "2"]) == 0
    fam = out_of(capsys)
    assert run(["check-id", "--n", "3"], stdin_text=fam) == 0
    assert out_of(capsys).strip() == "YES"
    assert run(["check-id", "--n", "4"], stdin_text=fam) == 1
    out_of(capsys)
    assert run(["family", "basis2"]) == 0
    b2 = out_of(capsys)
    assert len(b2.splitlines()) == 44
    assert run(["check-id", "--n", "2"], stdin_text=b2) == 0


def test_family_k_is_for_pkqk_only(capsys):
    # pk_qk needs k >= 2, so argparse refuses a smaller k
    assert run(["family", "pkqk", "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ") and "must be >= 2" in captured.err
    for name in ("basis2", "basis4", "reverses"):
        assert run(["family", name, "--k", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --k applies to pkqk only, not to {name}\n"
        # the default k, spelled out, changes nothing
        assert run(["family", name, "--k", "2"]) == 0
        spelled = out_of(capsys)
        assert run(["family", name]) == 0
        assert out_of(capsys) == spelled != ""


def test_family_reverses(capsys):
    assert run(["family", "reverses"]) == 0
    assert len(out_of(capsys).splitlines()) == 22


def test_plain_mode(capsys):
    assert run(["check-id", "x h y k x y s x t y ~= x h y k y x s x t y",
                "--n", "4", "--mode", "plain"]) == 0
    assert run(["check-id", "x x* ~= x* x", "--n", "2", "--mode", "plain"]) == 2


def test_oracle_cmd(capsys):
    assert run(["oracle", "x y ~= y x", "--n", "2", "--max-len", "1",
                "--format", "json"]) == 1
    obj = json.loads(out_of(capsys))
    assert obj["refuted"] and obj["witness"]["assignment"] == {"x": "1", "y": "2"}
    assert run(["oracle", "x ~= x", "--n", "2", "--max-len", "1"]) == 0


def test_oracle_sampled_deterministic(capsys):
    args = ["oracle", "x y x* ~= x* y x", "--n", "3", "--max-len", "2",
            "--samples", "40", "--seed", "9", "--format", "json"]
    assert run(args) in (0, 1)
    first = out_of(capsys)
    run(args)
    assert out_of(capsys) == first


def test_isoterm_cmd(capsys):
    assert run(["isoterm", "x x* y y*", "--n", "2"]) == 0
    assert out_of(capsys).strip() == "isoterm"
    assert run(["isoterm", "x h y k x y s x t y", "--n", "4"]) == 1


def test_isoterm_finds_a_rank3_partner_no_swap_reaches(capsys):
    assert run(["isoterm", "x x* y x y x* x x* y*", "--n", "3"]) == 1
    assert out_of(capsys) == "x x* y x* y x x x* y*\n"


def test_isoterm_reads_the_term_grammar(capsys):
    def word_of(text):
        assert run(["isoterm", text, "--n", "2", "--format", "json"]) in (0, 1)
        return json.loads(out_of(capsys))["word"]
    assert word_of("x y**") == "x y"
    assert word_of("(x y*)*") == "y x*"
    # blank text is the empty word, an isoterm
    assert run(["isoterm", "  ", "--n", "2"]) == 0
    assert out_of(capsys) == "isoterm\n"


@pytest.mark.parametrize("word", ["x (y", "x 2", "x,y", "x y)", "* x"])
def test_isoterm_rejects_malformed_words(capsys, word):
    assert run(["isoterm", word, "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_stdin_batch_errors_name_the_line_as_typed(capsys):
    # blank lines are skipped but counted; the position indexes the line
    # as typed, leading blanks included
    assert run(["check-id", "--n", "2"], stdin_text="x ~= x\n\n  x ~= y $\n") == 2
    captured = capsys.readouterr()
    assert captured.out == "YES\n"
    assert captured.err == "error: stdin line 3: bad character '$' at position 9\n"
    assert run(["check-id", "--n", "2"], stdin_text="  x ~= y $\n") == 2
    assert "stdin line 1:" in capsys.readouterr().err


def test_stdin_batch_errors_in_deciding_name_the_line(capsys, monkeypatch):
    argv = ["check-id", "--n", "2", "--mode", "plain"]
    assert run(argv, stdin_text="x ~= x\n\nx* ~= x*\n") == 2
    captured = capsys.readouterr()
    assert captured.out == "YES\n"
    assert captured.err == ("error: stdin line 3: starred letter present; "
                            "use the involution checker\n")
    # the oracle's budget, refused before any enumeration
    monkeypatch.setattr(oracle, "enumerate_classes", _no_enumeration)
    argv = ["oracle", "--n", "60", "--max-len", "3"]
    assert run(argv, stdin_text="\nx y ~= y x\n") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: stdin line 2: at least ")


def _no_enumeration(n, max_len):
    raise AssertionError("an over-budget grid was enumerated")


def test_over_budget_oracle_exits_2_before_enumerating(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "enumerate_classes", _no_enumeration)
    assert run(["oracle", "x y ~= y x", "--n", "60", "--max-len", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: at least ")
    assert "exceed the budget" in captured.err


HUGE = "99999999999999999999"


def _nothing_built(*args):
    raise AssertionError("an over-budget rank was built")


@pytest.mark.parametrize("argv, message", [
    (["canon", "10,1", "--n", HUGE],
     f"the {HUGE} entries of a rank-{HUGE} evaluation vector exceed the budget"),
    (["equiv", "1", "1", "--n", HUGE, "--format", "json"],
     f"the {HUGE} entries of a rank-{HUGE} evaluation vector exceed the budget"),
    (["repr", "1", "--n", HUGE], "4999999999999999999850000000000000000001 "
     "components of 100000000000000000000 steps each) exceed the budget"),
    # C(272, 2) components of 273 steps each: the first rank over the budget
    (["repr", "1", "--n", "272"], "10061688 steps (36856 components of 273 "),
    (["repr", "1,2,3,4", "--n", "20", "--materialize", "--format", "json"],
     "the 32490000 entries of a 5700x5700 matrix exceed the budget"),
    (["oracle", "x ~= x", "--n", "200", "--max-len", "3"],
     "1608040200 class table entries "),
    (["oracle", "x y ~= y x", "--n", "60", "--max-len", "3", "--samples", "1"],
     "13179660 class table entries "),
    (["oracle", "x ~= x", "--n", "2", "--samples", "100000000000"],
     "error: 100000000000 samples exceed the budget of 10000000\n"),
    (["family", "pkqk", "--k", HUGE],
     f"error: the 1200000000000000000000 letters of p_{HUGE} ~= q_{HUGE} "
     "exceed the budget of 10000000\n"),
], ids=["canon", "equiv", "repr", "repr-272", "materialize", "oracle-table",
        "oracle-samples", "oracle-sample-count", "family-pkqk"])
def test_over_budget_ranks_exit_2_before_building(capsys, monkeypatch, argv,
                                                  message):
    for name in ("canonical", "equivalent", "phi_n", "materialize"):
        monkeypatch.setattr(cli, name, _nothing_built)
    monkeypatch.setattr(oracle, "enumerate_classes", _no_enumeration)
    monkeypatch.setattr(families, "pk_qk", _nothing_built)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err and "internal" not in captured.err


def test_ranks_within_the_budget_are_built(capsys, monkeypatch):
    # the rank just below the first refused one reaches phi_n (stubbed:
    # building its 36,585 components takes seconds)
    monkeypatch.setattr(cli, "phi_n", lambda w: TupleElement(w.rank, ()))
    assert run(["repr", "1", "--n", "271", "--format", "json"]) == 0
    assert out_of(capsys) == '{"n":271,"coords":[]}\n'


def _subprocess_env():
    """The environment for a child process that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_closed_stdout_ends_the_output_with_exit_2(tmp_path):
    # the reader stops after one line of a long batch: the lines never
    # decided must not read as YES (0) or as a NO (1), and no traceback or
    # error line follows
    batch = tmp_path / "batch.txt"
    batch.write_text("x y ~= x y\n" * 50000)
    with batch.open() as stdin, subprocess.Popen(
            [sys.executable, "-m", "baxt.cli", "check-id", "--n", "2"],
            stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_subprocess_env()) as proc:
        assert proc.stdout.readline() == b"YES\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert err == b""


def test_error_exits(capsys):
    assert run(["canon", "444", "--n", "3"]) == 2
    assert "letter 4" in capsys.readouterr().err
    assert run(["check-id", "x y", "--n", "2"]) == 2
    assert run(["bogus"]) == 2
    capsys.readouterr()
    for extra in (["--samples", "5", "--jobs", "4"],
                  # a seed steers only sampling, so the full scan refuses it
                  ["--max-len", "1", "--seed", "7"]):
        assert run(["oracle", "x y ~= y x", "--n", "2", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_materialize_below_rank_4_is_refused(capsys):
    # ranks 1-3 have matrices and no tuple, so the flag has nothing to do
    for n in ("1", "2", "3"):
        assert run(["repr", "12"[:int(n)], "--n", n, "--materialize"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --materialize applies to rank >= 4, " \
            "not to ranks 1-3\n"
    assert run(["repr", "12", "--n", "4", "--materialize", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 180


@pytest.mark.parametrize("argv", [
    ["oracle", "x ~= x", "--n", "2", "--max-len", "-1"],
    ["oracle", "x ~= x", "--n", "2", "--jobs", "0"],
    ["oracle", "x ~= x", "--n", "2", "--samples", "0"],
    ["family", "pkqk", "--k", "0"],
    ["isoterm", "x", "--n", "0"],
    ["check-id", "x ~= x", "--n", "0", "--mode", "plain"],
    ["canon", "", "--n", "-1"],
], ids=["max-len", "jobs", "samples", "k", "isoterm-n", "plain-n", "canon-n"])
def test_invalid_bounds_are_usage_errors(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --" in captured.err and "must be >=" in captured.err


def test_unexpected_errors_exit_2_without_traceback(capsys, monkeypatch):
    def overflow(w):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "p_baxt", overflow)
    assert run(["trees", "1" * 1500, "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_smallest_valid_bounds(capsys):
    assert run(["oracle", "x ~= x", "--n", "2", "--max-len", "0"]) == 0
    assert run(["oracle", "x ~= x", "--n", "2", "--samples", "1", "--jobs", "1"]) == 0
    assert run(["family", "pkqk", "--k", "2"]) == 0


def test_deeply_nested_term(capsys):
    depth = 3000
    deep = "(" * depth + "x y" + ")" * depth
    assert run(["check-id", f"{deep} ~= x y", "--n", "4"]) == 0
    assert out_of(capsys).strip() == "YES"
    assert run(["check-id", f"{deep} ~= y x", "--n", "4", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["violated"] == "OccLR"
    assert "Traceback" not in captured.err


# Subcommands, formats, a stdin batch, input errors, argparse usage errors
# and help texts, in an order where every kind of call follows the others.
REUSE_CALLS = [
    (["check-id", "x y ~= y x", "--n", "4", "--format", "json"], None),
    (["canon", "444", "--n", "3"], None),
    (["check-id", "--n", "3", "--mode", "plain"], "x y ~= y x\nx ~= x\n"),
    (["oracle", "--help"], None),
    (["check-id", "x (y ~= x", "--n", "2"], None),
    (["trees", "2121", "--n", "2", "--format", "dot"], None),
    (["oracle", "x ~= x", "--n", "2", "--jobs", "0"], None),
    (["--help"], None),
    (["canon", "12", "--n", "2"], None),
    (["bogus"], None),
    (["family", "pkqk", "--k", "2"], None),
    ([], None),
    (["isoterm", "x y*", "--n", "2", "--format", "json"], None),
    (["repr", "21", "--n", "2"], None),
    (["equiv", "12", "21", "--n", "2", "--format", "json"], None),
    (["check-id", "--help"], None),
    (["sharp", "112", "--n", "2"], None),
]


def _outcomes(capsys):
    outcomes = []
    for argv, stdin_text in REUSE_CALLS:
        code = run(argv, stdin_text)
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_reused_parser_answers_as_a_fresh_parser_per_call(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    reused = _outcomes(capsys)
    # the same calls, each parsed by its own build_parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = _outcomes(capsys)
    assert reused == fresh
    assert {code for code, _, _ in fresh} == {0, 1, 2}


def test_run_parses_with_one_parser(capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    assert run(["sharp", "112", "--n", "2"]) == 0
    assert run(["check-id", "x ~= x", "--n", "2"]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    # any other caller still gets a parser of its own
    assert cli.build_parser() is not parsers[0]


def test_importing_the_cli_builds_no_parser():
    # the benchmark imports the package afresh for every workload
    code = "import baxt.cli; print(baxt.cli._parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_subprocess_env(), check=True).stdout
    assert out == "0\n"
