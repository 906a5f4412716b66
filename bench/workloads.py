"""The four workloads: what one op calls, and how its output is checked.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  ``run`` is the only timed part and calls into the
package; ``verify`` checks the output against a reference from
``reference.py`` or fixed by construction in ``corpus.py``.  ``m`` is a
namespace holding the package's modules, looked up at call time so that the
traced run sees its wrappers.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from contextlib import redirect_stdout
from time import perf_counter

import reference as ref


class Workload:
    name = ""
    #: rounds generated at set-up; a run longer than this repeats them
    corpus_rounds = 8
    #: rounds a traced run executes, once untraced and once traced
    trace_rounds = 2
    #: ops of the first round run (untimed) as warm-up
    warmup_ops = 1
    #: seconds spent in closed-form references (reported as represent.closed_s)
    closed_s = 0.0

    def __init__(self):
        #: NO verdicts the reference called YES and the oracle refuted
        self.disputes = []

    def prepare(self, m, op):
        """Per-op input objects built at set-up, outside the timed call."""
        return op

    def warmup(self, m, rounds):
        for op in rounds[0][:self.warmup_ops]:
            try:
                self.run(m, op)
            except Exception:  # the timed loop runs, checks and counts the same op
                pass

    def run(self, m, op):
        raise NotImplementedError

    def verify(self, m, op, out) -> bool:
        raise NotImplementedError


class CheckWide(Workload):
    name = "check-wide"

    def run(self, m, op):
        return m.checker.check(m.words.parse_identity(op["text"]), op["n"], op["mode"])

    def verify(self, m, op, out):
        return out.verdict == op["expect"]


class CliSmall(Workload):
    name = "cli-small"
    corpus_rounds = 300
    trace_rounds = 40
    warmup_ops = 23

    def run(self, m, op):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = m.cli.run(op["argv"], op["stdin"])
        return code, buf.getvalue()

    def verify(self, m, op, out):
        code, stdout = out
        kind = op["kind"]
        if kind == "single":
            line = stdout.strip()
            word = json.loads(line)["verdict"] if op["json"] else line.split()[0]
            verdict = word == "YES"
            return (word in ("YES", "NO") and code == (0 if verdict else 1)
                    and self._agrees(m, ref.identity(m, op["text"]), op["n"],
                                     op["mode"], verdict))
        if kind == "batch":
            got = [line.split()[0] == "YES" for line in stdout.splitlines()]
            return got == op["expect"] and code == (0 if all(op["expect"]) else 1)
        if kind == "family":
            return code == 0 and stdout.splitlines() == op["expect"]
        word = ref.ivars(m, op["word"])
        expect = ref.isoterm_partners(m, word, op["n"])
        obj = json.loads(stdout)
        got = {ref.ivars(m, p.split()) for p in obj["partners"]}
        return (got <= expect and obj["isoterm"] == (not got)
                and code == (1 if got else 0)
                and all(self._agrees(m, m.words.Identity(word, v), op["n"],
                                     "involution", False) for v in expect - got))

    def _agrees(self, m, idn, n, mode, verdict):
        if verdict == ref.holds(m, idn, n, mode):
            return True
        if verdict or not ref.refuted(m, idn, n):
            return False
        self.disputes.append(f"{idn} at rank {n}")
        return True


class OracleGrid(Workload):
    name = "oracle-grid"
    corpus_rounds = 10
    trace_rounds = 4

    def prepare(self, m, op):
        return dict(op, idn=ref.identity(m, op["text"]))

    def warmup(self, m, rounds):
        for n, max_len in sorted({(op["n"], op["max_len"]) for op in rounds[0]}):
            m.oracle.enumerate_classes(n, max_len)
        super().warmup(m, rounds)

    def run(self, m, op):
        if op["search"] == "exhaustive":
            return m.oracle.brute_force_check(op["idn"], op["n"], op["max_len"], jobs=1)
        return m.oracle.sample_check(op["idn"], op["n"], op["max_len"],
                                     op["samples"], op["sample_seed"])

    def verify(self, m, op, out):
        if op["expect"]:
            return out.witness is None
        if out.witness is None:
            return op["search"] == "sample"  # a sample may miss every witness
        return ref.refutes(m, op["idn"], out.witness, op["n"])


class CanonLong(Workload):
    name = "canon-long"

    def prepare(self, m, op):
        return dict(op, w=m.words.AWord(tuple(op["word"]), op["n"]),
                    v=m.words.AWord(tuple(op["partner"]), op["n"]))

    def run(self, m, op):
        w, kind = op["w"], op["image"]
        element = m.monoid.canonical(w)
        same = m.monoid.equivalent(w, op["v"])
        twins = m.trees.p_baxt(w)
        image = None
        if kind == "fold":
            image = (m.represent.phi1, m.represent.phi2, m.represent.phi3)[w.rank - 1](w)
        elif kind == "phi_n":
            image = m.represent.phi_n(w)
        elif kind == "materialize":
            t = m.represent.phi_n(w)
            image = (t, m.represent.materialize(t))
        return element, same, twins, image

    def verify(self, m, op, out):
        element, same, twins, image = out
        w, v, n, kind = op["w"], op["v"], op["n"], op["image"]
        counts = Counter(w.symbols)
        if element.key[0] != tuple(counts[a] for a in range(1, n + 1)):
            return False
        congruent = ref.twin_pairs_equal(m, twins, m.trees.p_baxt(v))
        if same != congruent or (op["congruent"] and not congruent):
            return False
        if kind == "fold":
            return self._entries(m, image) == self._closed(m, w)
        if kind == "phi_n":
            return m.represent.tuple_equal(image, m.represent.phi_n(v)) == congruent
        if kind == "materialize":
            t, mat = image
            return (m.represent.tuple_equal(t, m.represent.phi_n(v)) == congruent
                    and self._blocks_match(m, t, mat))
        return True

    @staticmethod
    def _entries(m, mat):
        return json.loads(m.semiring.matrix_to_json(mat))["entries"]

    def _closed(self, m, w):
        """Entries of phi1..phi3 from the invariants, not from a product."""
        t0 = perf_counter()
        if w.rank == 1:
            # phi1 sends the generator to diag(1, 1), so w goes to diag(|w|, |w|)
            entries = [[len(w), "-inf"], ["-inf", len(w)]]
        else:
            closed = (m.represent.phi2_closed, m.represent.phi3_closed)[w.rank - 2]
            entries = self._entries(m, closed(w))
        self.closed_s += perf_counter() - t0
        return entries

    def _blocks_match(self, m, t, mat):
        """The materialised matrix is block diagonal: first components in
        (i, j) order, then second components in reverse order, each block
        the closed form of that rank-3 element."""
        comps = ([p.first for _, p in t.coords]
                 + [p.second for _, p in reversed(t.coords)])
        rows = self._entries(m, mat)
        if len(rows) != 15 * len(comps):
            return False
        for b, e in enumerate(comps):
            lo, hi = 15 * b, 15 * b + 15
            for row, block_row in zip(rows[lo:hi], self._closed(m, e.representative)):
                if (row[lo:hi] != block_row
                        or any(x != "-inf" for x in row[:lo])
                        or any(x != "-inf" for x in row[hi:])):
                    return False
        return True


WORKLOADS = {wl.name: wl for wl in (CheckWide, CliSmall, OracleGrid, CanonLong)}
