import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import report_corpus as rc

GOLDEN = json.loads(rc.GOLDEN.read_text())
TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", list(rc.CORPORA))
def test_reports_match_the_golden(name):
    # the kept lines first, so a changed report is shown with its run
    want = GOLDEN[name]
    lines = rc.report_lines(name)
    every = want["every"]
    kept = list(rc.runs(name))[::every]
    for i, (line, expected, run) in enumerate(zip(lines[::every], want["lines"], kept)):
        idn, n, mode, witness = run
        assert line == expected, (f"line {i * every}: {idn} at n={n} {mode} "
                                  f"witness={witness}")
    assert (len(lines), rc.digest(lines)) == (want["count"], want["sha256"])


ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")])))


def test_reports_do_not_depend_on_the_hash_seed():
    procs = [subprocess.Popen([sys.executable, str(TESTS / "report_corpus.py")],
                              env=dict(ENV, PYTHONHASHSEED=seed),
                              stdout=subprocess.PIPE, text=True)
             for seed in ("1", "2")]
    outs = [p.communicate(timeout=60)[0] for p in procs]
    assert all(p.returncode == 0 for p in procs)
    assert outs[0] == outs[1] == "".join(f"{name} {g['count']} {g['sha256']}\n"
                                         for name, g in GOLDEN.items())


def _compare(other_src):
    return subprocess.run([sys.executable, str(TESTS / "report_corpus.py"), "--compare",
                           str(other_src)], env=ENV, capture_output=True, text=True,
                          timeout=120)


def test_compare_shows_the_first_line_that_differs(tmp_path):
    src = TESTS.parent / "src"
    same = _compare(src)
    assert same.returncode == 0, same.stderr
    assert same.stdout == "".join(f"{name} same\n" for name in rc.CORPORA)
    # one witness key renamed in a copy: every Balanced NO line differs
    other = tmp_path / "src"
    shutil.copytree(src, other, ignore=shutil.ignore_patterns("__pycache__"))
    checker = other / "baxt" / "checker.py"
    text = checker.read_text()
    assert text.count('"lhs": cu[x]') == 1
    checker.write_text(text.replace('"lhs": cu[x]', '"left": cu[x]'))
    changed = _compare(other)
    assert changed.returncode == 1, changed.stderr
    out = changed.stdout.splitlines()
    assert "fast_paths same" not in out
    i = next(i for i, line in enumerate(out) if line.startswith("fast_paths line "))
    assert " at n=" in out[i] and out[i].endswith(" witness=True")
    ours, theirs = out[i + 1], out[i + 2]
    assert ours.startswith("  this tree: ") and theirs.startswith(f"  {other}: ")
    assert ours.replace('"lhs":', '"left":').split(": ", 1)[1] == theirs.split(": ", 1)[1]
