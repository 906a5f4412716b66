"""Command line front end.

Each subcommand binds its handler, a `_cmd_*(args, stdin_text)` function,
in the parser, and `run` parses the arguments and calls that handler.
Every subcommand but `family` has a machine-readable JSON mode next to the
human-readable text mode.  Exit codes: 0 for YES/success, 1 for NO/refuted,
2 for usage or input errors (a rank --n below 1 included), for any
unexpected internal error, which never ends in a traceback, and for a
stdout closed before the output ends.  An error on a line of a stdin batch
names the line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import checker, families, oracle
from .monoid import canonical, element_to_json_obj, equivalent, sharp_word
from .represent import (materialize, phi1, phi2, phi3, phi_n,
                        tuple_to_json_obj)
from .semiring import matrix_to_json
from .trees import p_baxt, to_dot, to_json, to_text
from .words import format_iword, iword, parse_aword, parse_identity


def _at_least(lo: int):
    """argparse type: an integer no smaller than lo; anything else is a
    usage error (exit 2), never a silently empty search."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="baxt",
        description="Baxter monoids with involution: canonical forms, twin "
                    "trees, tropical representations, identity checking.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, handler, help, positionals, options=None,
                formats=("text", "json")):
        """A subcommand bound to its handler.  Its arguments, each a name
        mapped to add_argument keywords, come in usage order: positionals,
        --n, further options, --format."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for arg, kwargs in positionals.items():
            p.add_argument(arg, **kwargs)
        p.add_argument("--n", type=_at_least(1), required=True)
        for arg, kwargs in (options or {}).items():
            p.add_argument(arg, **kwargs)
        p.add_argument("--format", choices=formats, default="text")

    word = {"word": {}}
    identity = {"identity": {"nargs": "?"}}
    command("canon", _cmd_canon, "canonical invariants of a word", word)
    command("equiv", _cmd_equiv, "are two words congruent?",
            {"word1": {}, "word2": {}})
    command("sharp", _cmd_sharp, "order-reversing involution of a word", word)
    command("trees", _cmd_trees, "twin insertion trees of a word", word,
            formats=("text", "json", "dot"))
    command("repr", _cmd_repr, "tropical matrix / tuple representation", word, {
        "--materialize": {"action": "store_true", "help": "for rank >= 4, "
                          "emit the block matrix instead of the tuple"}})
    command("check-id", _cmd_check_id, "decide an identity (stdin if omitted)",
            identity, {"--mode": {"choices": ("involution", "plain"),
                                  "default": "involution"}})
    command("oracle", _cmd_oracle, "bounded refutation search (stdin if omitted)",
            identity, {
                "--max-len": {"type": _at_least(0), "default": None},
                "--samples": {"type": _at_least(1), "default": None, "help":
                              "sample the grid instead of scanning all of it"},
                "--seed": {"type": int, "default": None},
                "--jobs": {"type": _at_least(1), "default": 1}})

    p = sub.add_parser("family", help="emit a named identity family")
    p.set_defaults(handler=_cmd_family)
    p.add_argument("name", choices=tuple(_FAMILIES))
    p.add_argument("--k", type=_at_least(2), default=_DEFAULT_K)

    command("isoterm", _cmd_isoterm, "search for identity partners of a word",
            {"word": {"help": "involution word, e.g. 'x x* y y*'"}})
    return ap


# One parser per process, built on first use (not at import): it holds no
# per-call state, since each parse_args fills a fresh Namespace and the help
# formatter reads the terminal width whenever it formats.
_parser = functools.cache(build_parser)


def _decide_each(args, stdin_text, decide) -> int:
    """Run decide on the identity argument, or else on each nonblank stdin
    line, and return the worst exit code.  An input error on a stdin line,
    in parsing or in deciding it, names the line."""
    if args.identity is not None:
        return decide(parse_identity(args.identity))
    text = stdin_text if stdin_text is not None else sys.stdin.read()
    worst = 0
    for number, line in enumerate(text.splitlines(), 1):
        if line.strip():
            # parsed as typed, so an error position indexes the line shown
            try:
                worst = max(worst, decide(parse_identity(line)))
            except ValueError as exc:
                raise ValueError(f"stdin line {number}: {exc}") from None
    return worst


def _check_vector(n: int):
    """Refuse a rank whose n-entry evaluation vector is over the budget."""
    oracle.check_budget(n, f"the {n} entries of a rank-{n} evaluation vector")


def _cmd_canon(args, stdin_text):
    _check_vector(args.n)
    w = parse_aword(args.word, args.n)
    e = canonical(w)
    if args.format == "json":
        print(json.dumps(element_to_json_obj(e), separators=(",", ":")))
    else:
        ev, lp, rp = e.key
        print(f"word: {w}")
        print(f"ev:  {list(ev)}")
        print(f"lpi: {sorted(lp)}")
        print(f"rpi: {sorted(rp)}")
    return 0


def _cmd_equiv(args, stdin_text):
    _check_vector(args.n)
    u = parse_aword(args.word1, args.n)
    w = parse_aword(args.word2, args.n)
    same = equivalent(u, w)
    if args.format == "json":
        print(json.dumps({"equivalent": same}))
    else:
        print("equivalent" if same else "distinct")
    return 0 if same else 1


def _cmd_sharp(args, stdin_text):
    w = parse_aword(args.word, args.n)
    out = sharp_word(w)
    print(json.dumps({"sharp": str(out)}) if args.format == "json" else str(out))
    return 0


def _cmd_trees(args, stdin_text):
    w = parse_aword(args.word, args.n)
    pair = p_baxt(w)
    if args.format == "dot":
        print(to_dot(pair.left, "left_strict"), end="")
        print(to_dot(pair.right, "right_strict"), end="")
    elif args.format == "json":
        print(f'{{"left":{to_json(pair.left)},"right":{to_json(pair.right)}}}')
    else:
        print(f"left strict:  {to_text(pair.left)}")
        print(f"right strict: {to_text(pair.right)}")
    return 0


def _check_tuple(n: int, length: int, materialized: bool):
    """Refuse a rank-n image of a word of the given length that is over the
    budget: C(n, 2) components of O(n + length) steps each, and when
    materialized, the entries of a matrix of dimension 30 C(n, 2)."""
    pairs, steps = n * (n - 1) // 2, n + length
    oracle.check_budget(pairs * steps, f"{pairs * steps} steps ({pairs} "
                        f"components of {steps} steps each)")
    if materialized:
        dim = 30 * pairs
        oracle.check_budget(dim * dim, f"the {dim * dim} entries of a "
                            f"{dim}x{dim} matrix")


def _cmd_repr(args, stdin_text):
    if args.materialize and args.n < 4:
        raise ValueError("--materialize applies to rank >= 4, not to ranks 1-3")
    w = parse_aword(args.word, args.n)
    if args.n >= 4:
        _check_tuple(args.n, len(w), args.materialize)
    if args.n <= 3:
        mat = (phi1, phi2, phi3)[args.n - 1](w)
    elif args.materialize:
        mat = materialize(phi_n(w))
    else:
        t = phi_n(w)
        if args.format == "json":
            print(json.dumps(tuple_to_json_obj(t), separators=(",", ":")))
        else:
            for (i, j), p in t.coords:
                print(f"({i},{j}): {p.first} , {p.second}")
        return 0
    print(matrix_to_json(mat) if args.format == "json" else str(mat))
    return 0


def _cmd_check_id(args, stdin_text):
    def decide(ident):
        report = checker.check(ident, args.n, args.mode)
        if args.format == "json":
            print(report.to_json())
        else:
            tail = "" if report.verdict else f"  (violated: {report.violated})"
            print(("YES" if report.verdict else "NO") + tail)
        return 0 if report.verdict else 1
    return _decide_each(args, stdin_text, decide)


def _cmd_oracle(args, stdin_text):
    if args.samples is not None and args.jobs > 1:
        raise ValueError("--jobs applies to the full scan, not to --samples")
    if args.samples is None and args.seed is not None:
        raise ValueError("--seed applies to --samples, not to the full scan")

    def decide(ident):
        if args.samples is not None:
            max_len = args.max_len if args.max_len is not None else 2
            res = oracle.sample_check(ident, args.n, max_len, args.samples,
                                      args.seed or 0)
        else:
            res = oracle.brute_force_check(ident, args.n, args.max_len,
                                           jobs=args.jobs)
        obj = {
            "refuted": res.refuted,
            "evaluations": res.evaluations,
            "max_len": res.max_len,
            "exhaustive": res.exhaustive,
            "witness": oracle.witness_to_json_obj(ident, res),
        }
        if args.format == "json":
            print(json.dumps(obj, separators=(",", ":")))
        elif res.refuted:
            print(f"refuted by {obj['witness']['assignment']}")
        else:
            scope = "exhaustively" if res.exhaustive else "by sampling"
            print(f"no counterexample within length {res.max_len} ({scope})")
        return 1 if res.refuted else 0
    return _decide_each(args, stdin_text, decide)


_FAMILIES = {
    "basis2": lambda k: families.basis2(),
    "basis4": lambda k: families.basis4(),
    "pkqk": lambda k: [families.pk_qk(k)],
    "reverses": lambda k: families.basis2_reverses(),
}
_DEFAULT_K = 2


def _cmd_family(args, stdin_text):
    # only pkqk has a k; the others take just the default, spelled out or not
    if args.name != "pkqk" and args.k != _DEFAULT_K:
        raise ValueError(f"--k applies to pkqk only, not to {args.name}")
    if args.name == "pkqk":
        letters = 12 * args.k + 12  # 6k + 6 a side
        oracle.check_budget(letters, f"the {letters} letters of "
                                     f"p_{args.k} ~= q_{args.k}")
    for ident in _FAMILIES[args.name](args.k):
        print(f"{format_iword(ident.lhs)} ~= {format_iword(ident.rhs)}")
    return 0


def _cmd_isoterm(args, stdin_text):
    # a side of a check-id identity; blank text is the empty word
    u = iword(args.word)
    partners = families.isoterm_search(u, args.n)
    if args.format == "json":
        print(json.dumps({"word": format_iword(u), "isoterm": not partners,
                          "partners": [format_iword(p) for p in partners]},
                         separators=(",", ":")))
    elif partners:
        for p in partners:
            print(format_iword(p))
    else:
        print("isoterm")
    return 0 if not partners else 1


def run(argv, stdin_text=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.handler(args, stdin_text)
    except BrokenPipeError:
        raise  # the reader has gone: main ends the output
    except ValueError as exc:
        # every input error is a ValueError: parse, range, mode, budget
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means NO, so an unexpected failure must never end with it
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early.  Exit 2, as neither 0 nor 1 may stand for
        # lines that were never decided; the interpreter's last flush goes
        # to devnull, so nothing more is written.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
