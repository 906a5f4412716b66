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

A change that means to change reports regenerates the golden with it.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from baxt.checker import check
from test_fast_paths import corpus, iv_family, late_letters, window_pairs

GOLDEN = Path(__file__).resolve().parent / "data" / "reports_golden.json"

#: name -> the identities of the corpus, in order
CORPORA = {
    "fast_paths": lambda: [idn for idn, _ in corpus(size=150)],
    "window_pairs": lambda: [idn for idn, _ in window_pairs(random.Random(19), 150)],
    "iv_family": lambda: [iv_family(k) for k in range(1, 9)],
    "late_letters": lambda: [late_letters(k) for k in range(1, 9)],
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


def main(argv) -> None:
    if argv not in ([], ["--write"]):
        sys.exit("usage: report_corpus.py [--write]")
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
