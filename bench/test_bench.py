"""Self-tests of the benchmark: corpus determinism, references, tracer and
the names in BENCHMARK.json.  Run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import corpus
import reference as ref
import run
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def m():
    return run.fresh_import()


# tiny strata per workload, in each ladder's stratum format
TINY = {
    "check-wide": [(1, 3, 40, "basis2", True), (1, 3, 40, "unbalanced", False),
                   (2, 4, 40, "basis2", True), (2, 4, 40, "pkqk", True),
                   (3, 4, 40, "basis4", True), (4, 5, 40, "uu", True),
                   ("plain", 5, 40, "basis4", True), (2, 4, 40, "xxs", False),
                   (3, 4, 40, "xy", False), (4, 4, 40, "pkqk", False),
                   ("plain", 4, 40, "xy", False)],
    "oracle-grid": [("exhaustive", "uu", 2, 2, 2, 0), ("exhaustive", "basis4", 3, 3, 1, 0),
                    ("exhaustive", "pkqk-row", 5, 2, 1, 0), ("exhaustive", "xy", 3, 2, 1, 0),
                    ("exhaustive", "xxs", 3, 3, 1, 0), ("sample", "basis4-row", 6, 2, 1, 200),
                    ("sample", "xxs", 3, 4, 1, 200)],
    "canon-long": [(1, 30, "fold", True), (2, 30, "fold", False), (3, 30, "fold", True),
                   (3, 30, "fold", False), (4, 12, "materialize", True),
                   (5, 20, "phi_n", False), (40, 60, None, True)],
    "cli-small": list(corpus._cli_strata()),
}
_OP = {"check-wide": corpus._wide_op, "oracle-grid": corpus._grid_op,
       "canon-long": corpus._canon_op, "cli-small": corpus._cli_op}


def tiny_ops(name, m, seed=0):
    wl = WORKLOADS[name]()
    return wl, [wl.prepare(m, _OP[name](random.Random(f"{seed}:{j}"), s))
                for j, s in enumerate(TINY[name])]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_corpus(name):
    a = json.dumps(corpus.make_corpus(name, 7, 2), sort_keys=True)
    assert a == json.dumps(corpus.make_corpus(name, 7, 2), sort_keys=True)
    assert a != json.dumps(corpus.make_corpus(name, 8, 2), sort_keys=True)
    # a longer corpus extends a shorter one
    assert corpus.make_corpus(name, 7, 3)[:2] == corpus.make_corpus(name, 7, 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_references_agree_with_the_program(name, m):
    for seed in range(3):
        wl, ops = tiny_ops(name, m, seed)
        for op in ops:
            assert wl.verify(m, op, wl.run(m, op)), op


def test_construction_agrees_with_the_references(m):
    wl, ops = tiny_ops("check-wide", m)
    assert {op["expect"] for op in ops} == {True, False}
    for op in ops:
        report = wl.run(m, op)
        assert not wl.verify(m, op, replace(report, verdict=not report.verdict))
        idn = ref.identity(m, op["text"])
        assert ref.holds(m, idn, op["n"], op["mode"]) == op["expect"]
    rng = random.Random(0)
    for core, (_, _, lowest) in corpus.CORES.items():
        idn = ref.identity(m, corpus.text(*corpus.no_instance(rng, core, 3, 12, True)))
        assert not any(ref.holds(m, idn, n) for n in range(lowest, 6))
        if lowest > 1:
            assert ref.holds(m, idn, 1)


def test_references_reject_wrong_outputs(m):
    wl, ops = tiny_ops("canon-long", m)
    for op in ops:
        element, same, twins, image = wl.run(m, op)
        assert not wl.verify(m, op, (element, not same, twins, image))
    wl, ops = tiny_ops("oracle-grid", m)
    for op in ops:
        res = wl.run(m, op)
        if op["search"] == "exhaustive":
            assert res.refuted != op["expect"]
            empty = {b: m.oracle.enumerate_classes(op["n"], 1)[0]
                     for b in m.oracle.identity_bases(op["idn"])}
            assert not ref.refutes(m, op["idn"], empty, op["n"])
            assert not wl.verify(m, op, replace(res, witness=None if res.witness else empty))
    wl, ops = tiny_ops("cli-small", m)
    for op in ops:
        code, stdout = wl.run(m, op)
        assert not wl.verify(m, op, (1 - code, stdout))


def test_a_no_the_conditions_miss_is_settled_by_the_oracle(m):
    text = "y x* x* y* y* y y* ~= y x* y* x* y* y y*"
    idn = ref.identity(m, text)
    assert m.checker.conditions_baxt2(idn) and not m.checker.check(idn, 2).verdict
    wl = WORKLOADS["cli-small"]()
    op = {"kind": "single", "argv": ["check-id", text, "--n", "2"], "stdin": None,
          "text": text, "n": 2, "mode": "involution", "json": False}
    assert wl.verify(m, op, wl.run(m, op)) and len(wl.disputes) == 1
    assert not wl.verify(m, op, (0, "NO\n"))


def test_deep_tree_failure_is_counted_not_hidden(m):
    wl = WORKLOADS["canon-long"]()
    rounds = [[wl.prepare(m, op) for op in ops]
              for ops in corpus.make_corpus("canon-long", 0, 1)]
    deep = [op for op in rounds[0] if op["n"] == 1 and op["letters"] == 2000]
    tally = run.Tally()
    run.run_rounds(wl, m, [deep], tally, count=1)
    assert tally.errors == {"RecursionError": 1} and tally.wrong == 0


def test_tracer_wraps_aliases_and_skips_recursion(m):
    tracer = spans.Tracer([mod for name, mod in sorted(sys.modules.items())
                           if name == "baxt" or name.startswith("baxt.")])
    original = m.monoid.key_of
    tracer.install()
    try:
        assert m.oracle.key_of is m.monoid.key_of is not original
        assert m.represent.mat_mul is m.semiring.mat_mul
        w = m.words.AWord((1,) * 600, 1)   # 600 deep: recursion stays direct
        m.trees.p_baxt(w)
        m.oracle.brute_force_check(m.words.ident("x y", "y x"), 2, 1)
    finally:
        tracer.remove()
    assert m.monoid.key_of is original
    assert tracer.spans["trees.insert_left_strict", "trees.p_sylv_sharp"][0] == 600
    metrics = tracer.metrics(0.0, [0.1], [0.2])
    assert list(metrics) == list(spans.PER_LAYER)
    assert metrics["trees.nodes"] == 1200
    assert metrics["oracle.witness_ratio"] == 1.0
    assert metrics["trace.overhead_ratio"] == pytest.approx(2.0)
    layers = tracer.layers
    assert layers["trees"][1] == pytest.approx(tracer.spans["trees.p_baxt", "op"][1])
    assert layers["oracle"][2] < layers["oracle"][1]  # key_of time is monoid's


def test_subsets_examined_follows_the_sorted_loop_order():
    names = ["a", "b", "c", "d"]
    order = sorted([(x,) for x in names]
                   + [(x, y) for i, x in enumerate(names) for y in names[i + 1:]])

    class Report:
        verdict, violated = False, "II"

    for pos, pair in enumerate(order):
        Report.witness = {"pair": list(pair)}
        assert spans._subsets_examined(names, Report) == pos + 1


def test_exponent_fit_recovers_a_power_law():
    rng = random.Random(0)
    rows = []
    for _ in range(200):
        k, size = rng.randint(10, 300), rng.randint(100, 10000)
        rows.append((k, size, 3e-7 * k ** 2 * size ** 0.5 * rng.uniform(0.95, 1.05)))
    assert spans._exponent(rows) == pytest.approx(2.0, abs=0.05)
    assert spans._exponent(rows[:2]) == 0.0


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in BENCHMARK["workloads"])
    e2e = {e["name"]: e for e in BENCHMARK["end_to_end"]}
    assert {n: e["unit"] for n, e in e2e.items()} == run.END_TO_END
    assert all(0 < e["bound"] <= 0.25 for e in e2e.values())
    assert e2e["setup_s"]["bound"] == max(e["bound"] for e in e2e.values())
    assert {p["name"]: p["unit"] for p in BENCHMARK["per_layer"]} == spans.PER_LAYER
    assert BENCHMARK["command"][1].startswith(BENCHMARK["paths"][0] + "/")


def test_run_refuses_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-small",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and "correct" not in out.stdout
