"""Benchmark entry point: one workload per process, closed loop, one client.

    python3 bench/run.py --workload check-wide --seed 1 --seconds 30 --trace 0

Imports the package from ``src/`` next to this directory, and exits with
code 2 if it is not there.  Set-up (a fresh import of the package, the
seeded corpus and a warm-up) runs five times and ``setup_s`` is the median.
The timed loop then runs whole rounds of the corpus until the next round
would end after ``--seconds``, so every run has the same mix of op sizes.

Timings are scaled to a reference machine speed: a fixed pure-Python
calibration loop is timed right before and right after every op and every
set-up, and a time t counts as ``t * CALIBRATION_S / c`` with c the mean of
the two calibrations.  On a shared machine whose speed drifts by tens of
percent between runs, this removes about half of the drift; the unscaled
figures are printed too.  ``ops_per_s`` is ops over the sum of their scaled
latencies, and the latency percentiles are taken over every op of the run.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
a fixed number of rounds runs untraced and then traced (so counts repeat
exactly for a seed), and the metrics are the per-layer ones plus the
tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from bisect import bisect_left
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from corpus import make_corpus
from spans import LAYERS, PER_LAYER, Tracer
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
SETUPS = 5
#: a timed run completes at least this many ops, so that ten lie beyond p90
MIN_OPS = 100

#: The calibration loop's fastest time on an unloaded 2-vCPU Intel Xeon VM
#: under CPython 3.11.7, so scaled times read as seconds on that machine.
CALIBRATION_S = 3.0e-4

#: End-to-end metrics: name -> unit.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MB"}


_CALIBRATION_WORD = tuple(i * 7919 % 13 + 1 for i in range(40))


def calibration_time():
    """Fastest of two runs of a fixed loop shaped like the package's inner
    loops: position lists in a dict, a nested scan, bisect, a sorted set."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        for _ in range(12):
            pos = {}
            for i, a in enumerate(_CALIBRATION_WORD):
                pos.setdefault(a, []).append(i)
            found = set()
            for a, pa in pos.items():
                for c, pc in pos.items():
                    if c > a and pc[-1] > pa[-1]:
                        found.add((a, c, bisect_left(pc, pa[0])))
            tuple(sorted(found))
        best = min(best, perf_counter() - t0)
    return best


def fresh_import():
    """Import the package anew from src/, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "baxt" or n.startswith("baxt.")]:
        del sys.modules[name]
    pkg = importlib.import_module("baxt")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"baxt imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"baxt.{name}")
                              for name in LAYERS})


def set_up(workload, seed):
    """Returns (seconds, scale, modules, prepared rounds)."""
    before = calibration_time()
    t0 = perf_counter()
    m = fresh_import()
    rounds = [[workload.prepare(m, op) for op in ops]
              for ops in make_corpus(workload.name, seed, workload.corpus_rounds)]
    workload.warmup(m, rounds)
    seconds = perf_counter() - t0
    return seconds, 2 * CALIBRATION_S / (before + calibration_time()), m, rounds


class Tally:
    """Latencies and outcomes of every op attempted."""

    def __init__(self):
        self.latencies = []       # every op, in order, unscaled
        self.scaled = []          # the same, scaled to the reference speed
        self.errors = Counter()   # exception type -> ops that raised
        self.wrong = 0            # ops whose output disagrees with the reference
        self.unverifiable = Counter()  # reference raised -> counted as wrong
        self.rounds = 0

    @property
    def failed(self):
        return sum(self.errors.values()) + self.wrong


def run_rounds(workload, m, rounds, tally, seconds=None, count=None, tracer=None):
    """Run whole rounds: ``count`` of them, or until the next one would end
    after ``seconds`` and at least MIN_OPS ops have run.  Only the call into
    the package is timed."""
    start = perf_counter()
    done = 0
    min_rounds = -(-MIN_OPS // len(rounds[0]))
    while True:
        for op in rounds[done % len(rounds)]:
            before = calibration_time()
            if tracer:
                tracer.install()
            t0 = perf_counter()
            try:
                out, error = workload.run(m, op), None
            except Exception as exc:  # counted in `failed`, never hidden
                error = type(exc).__name__
            dt = perf_counter() - t0
            if tracer:
                tracer.remove()
            scale = 2 * CALIBRATION_S / (before + calibration_time())
            tally.latencies.append(dt)
            tally.scaled.append(dt * scale)
            if error:
                tally.errors[error] += 1
            else:
                try:
                    ok = workload.verify(m, op, out)
                except Exception as exc:  # an output that cannot be checked
                    tally.unverifiable[type(exc).__name__] += 1
                    ok = False
                tally.wrong += not ok
        done += 1
        elapsed = perf_counter() - start
        if count is not None and done >= count:
            break
        if count is None and done >= min_rounds and elapsed * (done + 1) / done > seconds:
            break
    tally.rounds += done


def end_to_end(setups, latencies, tally):
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    attempted = len(latencies)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": attempted / sum(latencies),
        "latency_p50_ms": cuts[4] * 1e3,
        "latency_p90_ms": cuts[8] * 1e3,
        "ok_ratio": (attempted - tally.failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "baxt" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        m = rounds = None
        gc.collect()  # every set-up starts from the same heap
        seconds, scale, m, rounds = set_up(workload, args.seed)
        setups.append(seconds * scale)
        raw_setups.append(seconds)

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}; 1 closed-loop client")
    print(f"# {platform.platform()}, {os.cpu_count()} cpus, "
          f"{platform.python_implementation()} {platform.python_version()}")
    tally = Tally()
    if args.trace:
        units = PER_LAYER
        run_rounds(workload, m, rounds, tally, count=workload.trace_rounds)
        untraced = list(tally.scaled)
        tracer = Tracer([mod for name, mod in sorted(sys.modules.items())
                         if name == "baxt" or name.startswith("baxt.")])
        clear = getattr(m.oracle.enumerate_classes, "cache_clear", None)
        if clear:
            clear()  # so the traced run measures enumeration too
        closed_before = workload.closed_s
        run_rounds(workload, m, rounds, tally, count=workload.trace_rounds,
                   tracer=tracer)
        metrics = tracer.metrics(workload.closed_s - closed_before,
                                 untraced, tally.scaled[len(untraced):])
        for line in tracer.table():
            print("# " + line)
        for name, count in sorted(tracer.hook_errors.items()):
            print(f"# hook error {name} x{count}")
    else:
        units = END_TO_END
        run_rounds(workload, m, rounds, tally, seconds=args.seconds)
        metrics = end_to_end(setups, tally.scaled, tally)
        unscaled = end_to_end(raw_setups, tally.latencies, tally)
        print("# unscaled: " + ", ".join(f"{name} {unscaled[name]:.6g}"
                                         for name in END_TO_END))

    attempted = len(tally.latencies)
    print(f"# ops {attempted} in {tally.rounds} rounds of {len(rounds[0])} strata, "
          f"failed {tally.failed} (fail_ratio {tally.failed / attempted:.4f}), "
          f"wrong answers {tally.wrong}, errors {dict(tally.errors)}, "
          f"unverifiable {dict(tally.unverifiable)}, "
          f"scaled set-ups {[round(s, 4) for s in setups]}")
    for dispute in sorted(set(workload.disputes)):
        print(f"# reference said YES, oracle refuted: {dispute}")
    for name, value in metrics.items():
        print(f"{name:<34} {value:>16.6f} {units[name]}")
    print(json.dumps({"correct": tally.wrong == 0, "attempted": attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
