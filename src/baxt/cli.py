"""Command line front end.

Every subcommand has a machine-readable JSON mode next to the human-readable
text mode.  Exit codes: 0 for YES/success, 1 for NO/refuted, 2 for usage or
input errors (a rank --n below 1 included) and for any unexpected internal
error, which never ends in a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checker, families, oracle
from .monoid import canonical, element_to_json_obj, equivalent, sharp_word
from .represent import (materialize, phi1, phi2, phi3, phi_n,
                        tuple_to_json_obj)
from .semiring import matrix_to_json
from .trees import p_baxt, to_dot, to_json_obj
from .words import (ParseError, RangeError, format_iword, iword,
                    parse_aword, parse_identity)


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

    def fmt(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("canon", help="canonical invariants of a word")
    p.add_argument("word")
    p.add_argument("--n", type=_at_least(1), required=True)
    fmt(p)

    p = sub.add_parser("equiv", help="are two words congruent?")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--n", type=_at_least(1), required=True)
    fmt(p)

    p = sub.add_parser("sharp", help="order-reversing involution of a word")
    p.add_argument("word")
    p.add_argument("--n", type=_at_least(1), required=True)
    fmt(p)

    p = sub.add_parser("trees", help="twin insertion trees of a word")
    p.add_argument("word")
    p.add_argument("--n", type=_at_least(1), required=True)
    fmt(p, ("text", "json", "dot"))

    p = sub.add_parser("repr", help="tropical matrix / tuple representation")
    p.add_argument("word")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--materialize", action="store_true",
                   help="for rank >= 4, emit the block matrix instead of the tuple")
    fmt(p)

    p = sub.add_parser("check-id", help="decide an identity (stdin if omitted)")
    p.add_argument("identity", nargs="?")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--mode", choices=("involution", "plain"), default="involution")
    fmt(p)

    p = sub.add_parser("oracle", help="bounded refutation search (stdin if omitted)")
    p.add_argument("identity", nargs="?")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--max-len", type=_at_least(0), default=None)
    p.add_argument("--samples", type=_at_least(1), default=None,
                   help="sample the grid instead of scanning all of it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_at_least(1), default=1)
    fmt(p)

    p = sub.add_parser("family", help="emit a named identity family")
    p.add_argument("name", choices=("basis2", "basis4", "pkqk", "reverses"))
    p.add_argument("--k", type=_at_least(1), default=2)

    p = sub.add_parser("isoterm", help="search for identity partners of a word")
    p.add_argument("word", help="involution word, e.g. 'x x* y y*'")
    p.add_argument("--n", type=_at_least(1), required=True)
    fmt(p)

    return ap


def _iter_identities(args, stdin_text):
    if args.identity is not None:
        yield parse_identity(args.identity)
        return
    text = stdin_text if stdin_text is not None else sys.stdin.read()
    for line in text.splitlines():
        line = line.strip()
        if line:
            yield parse_identity(line)


def _cmd_canon(args):
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


def _cmd_equiv(args):
    u = parse_aword(args.word1, args.n)
    w = parse_aword(args.word2, args.n)
    same = equivalent(u, w)
    if args.format == "json":
        print(json.dumps({"equivalent": same}))
    else:
        print("equivalent" if same else "distinct")
    return 0 if same else 1


def _cmd_sharp(args):
    w = parse_aword(args.word, args.n)
    out = sharp_word(w)
    print(json.dumps({"sharp": str(out)}) if args.format == "json" else str(out))
    return 0


def _cmd_trees(args):
    w = parse_aword(args.word, args.n)
    pair = p_baxt(w)
    if args.format == "dot":
        print(to_dot(pair.left, "left_strict"), end="")
        print(to_dot(pair.right, "right_strict"), end="")
    elif args.format == "json":
        print(json.dumps({"left": to_json_obj(pair.left),
                          "right": to_json_obj(pair.right)},
                         separators=(",", ":")))
    else:
        print(f"left strict:  {to_json_obj(pair.left)}")
        print(f"right strict: {to_json_obj(pair.right)}")
    return 0


def _cmd_repr(args):
    w = parse_aword(args.word, args.n)
    if args.n <= 3:
        mat = (phi1, phi2, phi3)[args.n - 1](w)
        print(matrix_to_json(mat) if args.format == "json" else str(mat))
        return 0
    t = phi_n(w)
    if args.materialize:
        mat = materialize(t)
        print(matrix_to_json(mat) if args.format == "json" else str(mat))
    else:
        obj = tuple_to_json_obj(t)
        if args.format == "json":
            print(json.dumps(obj, separators=(",", ":")))
        else:
            for c in obj["coords"]:
                print(f"({c['i']},{c['j']}): "
                      f"[{c['first']['representative']}] , "
                      f"[{c['second']['representative']}]")
    return 0


def _cmd_check_id(args, stdin_text):
    worst = 0
    for ident in _iter_identities(args, stdin_text):
        report = checker.check(ident, args.n, args.mode)
        if args.format == "json":
            print(report.to_json())
        else:
            tail = "" if report.verdict else f"  (violated: {report.violated})"
            print(("YES" if report.verdict else "NO") + tail)
        if not report.verdict:
            worst = 1
    return worst


def _cmd_oracle(args, stdin_text):
    worst = 0
    for ident in _iter_identities(args, stdin_text):
        if args.samples is not None:
            max_len = args.max_len if args.max_len is not None else 2
            res = oracle.sample_check(ident, args.n, max_len, args.samples,
                                      args.seed)
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
        if res.refuted:
            worst = 1
    return worst


def _cmd_family(args):
    if args.name == "basis2":
        idents = families.basis2()
    elif args.name == "basis4":
        idents = families.basis4()
    elif args.name == "reverses":
        idents = families.basis2_reverses()
    else:
        idents = [families.pk_qk(args.k)]
    for ident in idents:
        print(f"{format_iword(ident.lhs)} ~= {format_iword(ident.rhs)}")
    return 0


def _cmd_isoterm(args):
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
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.command == "canon":
            return _cmd_canon(args)
        if args.command == "equiv":
            return _cmd_equiv(args)
        if args.command == "sharp":
            return _cmd_sharp(args)
        if args.command == "trees":
            return _cmd_trees(args)
        if args.command == "repr":
            return _cmd_repr(args)
        if args.command == "check-id":
            return _cmd_check_id(args, stdin_text)
        if args.command == "oracle":
            return _cmd_oracle(args, stdin_text)
        if args.command == "family":
            return _cmd_family(args)
        if args.command == "isoterm":
            return _cmd_isoterm(args)
        raise AssertionError(args.command)
    except (ParseError, RangeError, checker.PlainModeError,
            oracle.BudgetExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means NO, so an unexpected failure must never end with it
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
