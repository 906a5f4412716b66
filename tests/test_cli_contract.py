"""The CLI contract under drawn input, in process.

argv and stdin come from a grammar weighted toward valid input: every
subcommand, valid and garbage words and identities, and bounds.  Whatever is
drawn, the exit code is 0, 1 or 2; a 1 comes only with a printed NO,
`refuted`, `distinct` or isoterm partner; a 2 comes with exactly one
`error:` line or argparse usage, never `error: internal`.

Ranks stay at most 12, except for drawn huge ranks, which the commands that
would build something of that size must refuse; `family pkqk` must refuse a
drawn huge k.  max_len stays at most 2 and words at most 30 letters;
`tests/test_cli.py` runs `trees` on deep words.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from baxt.cli import run

HUGE = ("99999999999999999999", "10000001")
# commands that build an n-entry vector or C(n, 2) components for any word,
# and so refuse a huge rank before anything else; the oracle builds its
# class table for each identity with variables, and refuses it there
BUILDS_BY_RANK = {"canon", "equiv", "repr"}

bad_ranks = st.sampled_from(["0", "-1", "x", "", "1.5"])
garbage = st.sampled_from(["", " ", "(", "x ~=", "~= x", "1,,2", "$", "x (y",
                           "x y)", "* x", "x**", "12a", "٣", "\t"])


def one_in(k):
    """True about once in k draws; False is the simplest example."""
    return st.sampled_from([False] * (k - 1) + [True])


def letters(n):
    return st.lists(st.integers(1, n), max_size=30)


@st.composite
def awords(draw, n):
    """A word at rank n in digit or comma form, or garbage."""
    kind = draw(st.sampled_from(["word", "word", "word", "outside", "garbage"]))
    if kind == "garbage":
        return draw(garbage)
    syms = draw(letters(n))
    if kind == "outside":
        syms = syms + [n + 1]
    if n <= 9 and draw(st.booleans()):
        return "".join(map(str, syms))
    return draw(st.sampled_from([",", " ", ", "])).join(map(str, syms))


@st.composite
def sides(draw, bases="xyz", max_size=8):
    """A letter sequence, or now and then a term with stars and parens."""
    ivar = st.builds(lambda b, s: b + ("*" if s else ""),
                     st.sampled_from(bases), st.booleans())
    toks = draw(st.lists(ivar, max_size=max_size))
    if toks and draw(one_in(4)):
        cut = draw(st.integers(0, len(toks) - 1))
        toks = toks[:cut] + ["(" + " ".join(toks[cut:]) + ")*"]
    return " ".join(toks)


@st.composite
def identities(draw, bases="xyz", max_size=8):
    if draw(one_in(6)):
        return draw(garbage)
    lhs = draw(sides(bases, max_size))
    if draw(st.booleans()):
        # a rearrangement: the identities that can hold
        rhs = " ".join(draw(st.permutations(lhs.replace("(", "").replace(
            ")*", "").split())))
    else:
        rhs = draw(sides(bases, max_size))
    return f"{lhs} {draw(st.sampled_from(['~=', '≈']))} {rhs}"


@st.composite
def invocations(draw):
    """(argv, stdin text or None, rank text)."""
    cmd = draw(st.sampled_from(["canon", "equiv", "sharp", "trees", "repr",
                                "check-id", "oracle", "family", "isoterm",
                                "bogus"]))
    if cmd == "bogus":
        return [cmd], None, None
    if cmd == "family":
        name = draw(st.sampled_from(["basis2", "basis4", "pkqk", "reverses",
                                     "nope"]))
        k = draw(st.one_of(st.integers(1, 4).map(str), bad_ranks,
                           st.sampled_from(HUGE)))
        return [cmd, name, "--k", k], None, k
    choice = draw(st.sampled_from(["valid"] * 18 + ["huge", "bad"]))
    materialize = cmd == "repr" and draw(one_in(4))
    oracle_scan = cmd == "oracle" and draw(st.booleans())
    # the oracle scans and the materialized matrices stay small
    n = draw(st.integers(1, 5 if materialize else 4 if oracle_scan else 12))
    rank = (draw(st.sampled_from(HUGE)) if choice == "huge"
            else draw(bad_ranks) if choice == "bad" else str(n))
    stdin = None
    if cmd in ("canon", "sharp", "trees", "repr"):
        argv = [cmd, draw(awords(n))]
    elif cmd == "equiv":
        argv = [cmd, draw(awords(n)), draw(awords(n))]
    elif cmd == "isoterm":
        argv = [cmd, draw(st.one_of(sides(max_size=12), garbage))]
    else:
        # at most two bases in the oracle keeps its grid small
        bases, size = ("xy", 6) if cmd == "oracle" else ("xyz", 8)
        if draw(st.booleans()):
            argv = [cmd, draw(identities(bases, size))]
        else:
            argv = [cmd]
            lines = draw(st.lists(st.one_of(identities(bases, size),
                                            st.just("")), max_size=4))
            stdin = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    argv += ["--n", rank]
    if materialize:
        argv.append("--materialize")
    if cmd == "check-id" and draw(st.booleans()):
        argv += ["--mode", draw(st.sampled_from(["plain", "involution", "?"]))]
    if cmd == "oracle":
        argv += ["--max-len", str(draw(st.integers(0, 2)))]
        if not oracle_scan:
            argv += ["--samples", str(draw(st.integers(1, 20))),
                     "--seed", str(draw(st.integers(0, 3)))]
        elif draw(one_in(6)):
            argv += ["--jobs", draw(st.sampled_from(["1", "0"]))]
    formats = ["text", "json", "dot"] if cmd == "trees" else ["text", "json"]
    if draw(one_in(10)):
        formats = ["dot", "yaml"]
    argv += ["--format", draw(st.sampled_from(formats))]
    return argv, stdin, rank


def _says_no(cmd, out):
    """Does stdout carry a NO, `refuted`, `distinct` or isoterm partner?"""
    lines = out.splitlines()
    if cmd == "check-id":
        return any(line.startswith("NO") or line.startswith("{") and
                   json.loads(line)["verdict"] == "NO" for line in lines)
    if cmd == "oracle":
        return any(line.startswith("refuted by ") or line.startswith("{") and
                   json.loads(line)["refuted"] for line in lines)
    if cmd == "equiv":
        return out in ("distinct\n", '{"equivalent": false}\n')
    if cmd == "isoterm":
        if out.startswith("{"):
            return json.loads(out)["partners"] != []
        return lines != [] and "isoterm" not in lines
    return False


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_exit_codes_keep_the_contract(invocation):
    argv, stdin, rank = invocation
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv, stdin_text=stdin)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code != 2:
        assert err == "", (argv, err)
    if code == 1:
        assert _says_no(argv[0], out), (argv, out)
    if code == 2:
        assert "internal" not in err, (argv, err)
        if err.startswith("usage: "):
            assert err.count(": error: ") == 1, (argv, err)
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    if rank in HUGE and not err.startswith("usage: "):
        if argv[0] in BUILDS_BY_RANK or argv[:2] == ["family", "pkqk"]:
            assert code == 2 and out == "", (argv, out)
        if argv[0] == "oracle":
            assert code != 1 and "refuted" not in out, (argv, out)
