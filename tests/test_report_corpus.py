import json
import os
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


def test_reports_do_not_depend_on_the_hash_seed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")])))
    procs = [subprocess.Popen([sys.executable, str(TESTS / "report_corpus.py")],
                              env=dict(env, PYTHONHASHSEED=seed),
                              stdout=subprocess.PIPE, text=True)
             for seed in ("1", "2")]
    outs = [p.communicate(timeout=60)[0] for p in procs]
    assert all(p.returncode == 0 for p in procs)
    assert outs[0] == outs[1] == "".join(f"{name} {g['count']} {g['sha256']}\n"
                                         for name, g in GOLDEN.items())
