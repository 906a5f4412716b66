"""Check reports over named corpora of identities, and the golden that pins
them.

Each corpus yields one ``check(...).to_json()`` line per run: every identity
at ranks 1-5, with and without the witness, and in plain mode at ranks 2 and
3 when it has no starred letter.  ``tests/data/reports_golden.json`` holds,
per corpus, the line count, the sha256 of the newline-joined lines and every
``every``-th line, so a changed report shows up as a line, not only as a
digest.

    PYTHONPATH=src python tests/report_corpus.py            # count and sha256
    PYTHONPATH=src python tests/report_corpus.py --write    # regenerate the golden
    PYTHONPATH=src python tests/report_corpus.py --compare OTHER_SRC

``--compare`` computes every corpus's lines twice, in two subprocesses under
one ``PYTHONHASHSEED``: once importing ``baxt`` from this tree's ``src`` and
once from ``OTHER_SRC``.  It prints ``same`` per corpus, or the first line
that differs with its run, and exits 1 on any difference.

A change that means to change reports regenerates the golden with it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from baxt.checker import check
from baxt.words import Identity, IVar
from test_fast_paths import (corpus, false_core, far_apart, iv_family, late_letters,
                             swapped_first, window_pairs)

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "data" / "reports_golden.json"


def _variables(k):
    return [IVar(f"v{i:04}") for i in range(k)]


def swapped_around_fresh(k):
    """P x Z y P ~= P y Z x P over k plain variables, k even and >= 4: P the
    k/2 that sort first, Z the next k/2 - 2 as fresh letters, x and y the
    last two.  At ranks 2 and 3 the witness is the subset [z1, x] ([x, y]
    when Z is empty), which sorts after every pair of a base of P with one
    of Z."""
    vs = _variables(k)
    p, z, (x, y) = tuple(vs[:k // 2]), tuple(vs[k // 2:-2]), vs[-2:]
    return Identity(p + (x,) + z + (y,) + p, p + (y,) + z + (x,) + p)


def gadgets_then_swap(k):
    """k/2 - 1 copies of x x* x y x x* ~= x x* y x x x* over disjoint pairs
    of the k variables, k even and >= 4, then z1 z2 ~= z2 z1 over the last
    two.  A copy holds at rank 2 and fails from rank 3 up, and at ranks 2
    and 3 the witness is the subset [z1, z2], which sorts after every pair
    of the copies' bases."""
    vs = _variables(k)
    lhs, rhs = [], []
    for x, y in zip(vs[:-2:2], vs[1:-2:2]):
        lhs += [x, x.star(), x, y, x, x.star()]
        rhs += [x, x.star(), y, x, x, x.star()]
    z1, z2 = vs[-2:]
    return Identity(tuple(lhs + [z1, z2]), tuple(rhs + [z2, z1]))


def _shape(shape):
    rng = random.Random(35)
    return [shape(rng, k, stars) for k in range(2, 13) for stars in (False, True)]


#: name -> the identities of the corpus, in order
CORPORA = {
    "fast_paths": lambda: [idn for idn, _ in corpus(size=150)],
    "window_pairs": lambda: [idn for idn, _ in window_pairs(random.Random(19), 150)],
    "iv_family": lambda: [iv_family(k) for k in range(1, 9)],
    "late_letters": lambda: [late_letters(k) for k in range(1, 9)],
    "swapped_first": lambda: _shape(swapped_first),
    "false_core": lambda: _shape(false_core),
    "far_apart": lambda: _shape(far_apart),
    "swapped_around_fresh": lambda: [swapped_around_fresh(k) for k in range(4, 17, 2)],
    "gadgets_then_swap": lambda: [gadgets_then_swap(k) for k in range(4, 17, 2)],
}

#: the golden keeps at most this many lines of each corpus
SLICE = 250

INVOLUTION_RUNS = [(n, "involution", witness) for n in range(1, 6)
                   for witness in (True, False)]
PLAIN_RUNS = [(n, "plain", witness) for n in (2, 3) for witness in (True, False)]


def runs(name):
    """(identity, n, mode, witness) for every line of the corpus, in order."""
    for idn in CORPORA[name]():
        star_free = not any(x.starred for x in idn.lhs + idn.rhs)
        for n, mode, witness in INVOLUTION_RUNS + (PLAIN_RUNS if star_free else []):
            yield idn, n, mode, witness


def report_lines(name) -> list[str]:
    return [check(idn, n, mode, witness).to_json()
            for idn, n, mode, witness in runs(name)]


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def compare(other_src) -> int:
    """Print, per corpus, `same` or the first line that differs between the
    reports of this tree's src and of other_src; 1 if any differs."""
    seed = os.environ.get("PYTHONHASHSEED", "0")
    code = ("import json, report_corpus as rc; "
            "print(json.dumps({name: rc.report_lines(name) for name in rc.CORPORA}))")
    procs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True, env=dict(os.environ, PYTHONHASHSEED=seed,
                                                  PYTHONPATH=os.pathsep.join(
                                                      [str(src), str(TESTS)])))
             for src in (TESTS.parent / "src", Path(other_src).resolve())]
    outs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        sys.exit("a report run failed")
    ours, theirs = (json.loads(out) for out in outs)
    status = 0
    for name in CORPORA:
        a, b = ours[name], theirs[name]
        if a == b:
            print(name, "same")
            continue
        status = 1
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        idn, n, mode, witness = list(runs(name))[i]
        print(f"{name} line {i}: {idn} at n={n} {mode} witness={witness}")
        print("  this tree:", a[i] if i < len(a) else "(no line)")
        print(f"  {other_src}:", b[i] if i < len(b) else "(no line)")
    return status


def main(argv) -> None:
    if len(argv) == 2 and argv[0] == "--compare":
        sys.exit(compare(argv[1]))
    if argv not in ([], ["--write"]):
        sys.exit("usage: report_corpus.py [--write | --compare OTHER_SRC]")
    golden = {}
    for name in CORPORA:
        lines = report_lines(name)
        every = -(-len(lines) // SLICE)
        golden[name] = {"count": len(lines), "sha256": digest(lines), "every": every,
                        "lines": lines[::every]}
        print(name, len(lines), golden[name]["sha256"])
    if argv:
        GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
