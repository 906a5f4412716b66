"""Span tracer that wraps the package's public functions from outside it.

Every public module-level function of a ``baxt`` module is wrapped at each
attribute it is looked up through: ``baxt.oracle.key_of`` as well as
``baxt.monoid.key_of``, ``baxt.represent.mat_mul`` as well as
``baxt.semiring.mat_mul``.  A span's layer is the module that defines the
function.  While a wrapped function runs, its own module attribute points
back at the original, so recursive self-calls add neither a span nor a
stack frame.

Spans are aggregated per (name, parent) so memory stays bounded however many
calls an op makes.  A layer's busy time is the time covered by its outermost
spans, its self time the span time not covered by child spans.  Hooks add
counts computed from each call's inputs and result, and (size, seconds)
samples for the scaling fits.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from math import factorial, log
from time import perf_counter

LAYERS = ("words", "checker", "monoid", "trees", "semiring", "represent",
          "oracle", "families", "cli")

#: Per-layer metrics beyond <layer>.calls / .busy_s / .self_s: name -> unit.
EXTRA = {
    "words.letters": "count",
    "checker.rank1_s": "s", "checker.rank2_s": "s", "checker.rank3_s": "s",
    "checker.rank4_s": "s", "checker.plain_s": "s", "checker.pairs": "count",
    "checker.no_ratio": "ratio", "checker.k_exponent": "exponent",
    "monoid.key_of_calls": "count", "monoid.key_letters": "count",
    "monoid.key_of_s": "s", "monoid.n_exponent": "exponent",
    "trees.nodes": "count", "trees.len_exponent": "exponent",
    "semiring.mat_mul_calls": "count", "semiring.mat_mul_s": "s",
    "semiring.mul_adds": "count",
    "represent.fold_s": "s", "represent.closed_s": "s", "represent.phi_n_s": "s",
    "represent.materialize_s": "s", "represent.materialized_entries": "count",
    "oracle.evals": "count", "oracle.evals_per_s": "1/s", "oracle.classes": "count",
    "oracle.enumerate_s": "s", "oracle.witness_ratio": "ratio",
    "oracle.evals_per_witness": "count",
    "families.candidates": "count", "families.partner_ratio": "ratio",
    "cli.invocations": "count",
    "trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}

#: Every per-layer metric name with its unit, in report order.
PER_LAYER = {f"{layer}.{kind}": unit for layer in LAYERS
             for kind, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))}
PER_LAYER.update(EXTRA)

_SAMPLE_CAP = 20000


class Tracer:
    def __init__(self, modules):
        self.stack = []                          # open spans: [name, child seconds]
        self.open = Counter()                    # open spans per layer
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])   # (name, parent) -> calls, s, self s
        self.layers = defaultdict(lambda: [0, 0.0, 0.0])  # layer -> calls, busy s, self s
        self.counters = Counter()
        self.samples = defaultdict(list)
        self.grids = set()
        self.hook_errors = Counter()
        wrappers = {}
        self._patches = []
        for mod in modules:
            for attr, f in list(vars(mod).items()):
                home = getattr(f, "__module__", None) or ""
                if (attr.startswith("_") or isinstance(f, type) or not callable(f)
                        or not home.startswith("baxt.")):
                    continue
                if id(f) not in wrappers:
                    wrappers[id(f)] = self._wrap(f, sys.modules[home])
                self._patches.append((mod, attr, f, wrappers[id(f)]))

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, f, _ in self._patches:
            setattr(mod, attr, f)

    def _wrap(self, f, home):
        layer = home.__name__.rsplit(".", 1)[-1]
        attr = f.__name__
        name = f"{layer}.{attr}"
        swap = vars(home).get(attr) is f
        hook = HOOKS.get(name)
        stack, open_, spans, layers = self.stack, self.open, self.spans, self.layers

        def wrapper(*args, **kwargs):
            if swap:
                setattr(home, attr, f)
            parent = stack[-1][0] if stack else "op"
            frame = [name, 0.0]
            stack.append(frame)
            open_[layer] += 1
            t0 = perf_counter()
            try:
                result = f(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                open_[layer] -= 1
                if swap:
                    setattr(home, attr, wrapper)
                if stack:
                    stack[-1][1] += dt
                span = spans[name, parent]
                span[0] += 1
                span[1] += dt
                span[2] += dt - frame[1]
                agg = layers[layer]
                agg[0] += 1
                agg[2] += dt - frame[1]
                if not open_[layer]:
                    agg[1] += dt
            if hook is not None:
                try:
                    hook(self, args, result, dt)
                except Exception as exc:  # a stale hook must not fail the op
                    self.hook_errors[f"{name}: {type(exc).__name__}"] += 1
            return result

        return wrapper

    def sample(self, key, row):
        if len(self.samples[key]) < _SAMPLE_CAP:
            self.samples[key].append(row)

    def metrics(self, closed_s: float, untraced: list, traced: list) -> dict:
        """Every PER_LAYER metric, from the spans, counters and samples."""
        c = self.counters
        out = {}
        for layer in LAYERS:
            calls, busy, own = self.layers.get(layer, (0, 0.0, 0.0))
            out.update({f"{layer}.calls": calls, f"{layer}.busy_s": busy,
                        f"{layer}.self_s": own})
        for name in EXTRA:
            out[name] = c[name]
        out["checker.no_ratio"] = _ratio(c["checker.no"], c["checker.checks"])
        out["checker.k_exponent"] = _exponent(self.samples["checker"])
        out["monoid.n_exponent"] = _exponent(self.samples["monoid"])
        out["trees.len_exponent"] = _exponent(self.samples["trees"])
        out["represent.closed_s"] = closed_s
        out["oracle.evals_per_s"] = _ratio(c["oracle.evals"], c["oracle.search_s"])
        out["oracle.witness_ratio"] = _ratio(c["oracle.witnesses"], c["oracle.searches"])
        out["oracle.evals_per_witness"] = _ratio(c["oracle.witness_evals"],
                                                 c["oracle.witnesses"])
        out["families.partner_ratio"] = _ratio(c["families.accepted"],
                                               c["families.candidates"])
        out["trace.untraced_ops_per_s"] = _ratio(len(untraced), sum(untraced))
        out["trace.traced_ops_per_s"] = _ratio(len(traced), sum(traced))
        out["trace.overhead_ratio"] = _ratio(sum(traced), sum(untraced))
        return out

    def table(self, limit: int = 25) -> list[str]:
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][2])[:limit]
        lines = [f"{'span':<34} {'parent':<30} {'calls':>9} {'total_s':>9} {'self_s':>9}"]
        for (name, parent), (calls, total, own) in rows:
            lines.append(f"{name:<34} {parent:<30} {calls:>9} {total:>9.4f} {own:>9.4f}")
        return lines


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _exponent(rows) -> float:
    """Least-squares coefficient of log(first size) in
    log(seconds) ~ 1 + log(size_1) + log(size_2) + flag..., where each row is
    (size_1, size_2, [flag, ...], seconds).  0.0 without enough spread."""
    xs = [[1.0, log(r[0]), log(r[1]), *map(float, r[2:-1])] for r in rows]
    ys = [log(r[-1]) for r in rows]
    p = len(xs[0]) if xs else 0
    if len(xs) <= p:
        return 0.0
    a = [[sum(x[i] * x[j] for x in xs) for j in range(p)]
         + [sum(x[i] * y for x, y in zip(xs, ys))] for i in range(p)]
    for col in range(p):
        pivot = max(range(col, p), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-9:
            return 0.0
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(p):
            if r != col:
                f = a[r][col] / a[col][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return a[1][p] / a[1][1]


# ---------------------------------------------------------------------------
# Hooks: hook(tracer, args, result, seconds), keyed by "<layer>.<function>"
# ---------------------------------------------------------------------------

def _identity_letters(t, args, r, dt):
    t.counters["words.letters"] += len(r.lhs) + len(r.rhs)


def _word_letters(t, args, r, dt):
    t.counters["words.letters"] += len(r)


def _subsets_examined(names, report) -> int:
    """Base subsets the rank-2/3 loop visits, in its sorted order: all of them
    for a YES or a rank-3 count failure, up to the failing one otherwise."""
    k = len(names)
    if report.violated == "Balanced":
        return 0
    pair = (report.witness or {}).get("pair")
    if report.verdict or not pair:
        return k * (k + 1) // 2
    i = names.index(pair[0])
    start = i * k - i * (i - 1) // 2   # subsets that sort before (names[i],)
    return start + (names.index(pair[1]) - i if len(pair) > 1 else 0) + 1


def _check_hook(key):
    def hook(t, args, report, dt):
        idn = args[0]
        t.counters[f"checker.{key}_s"] += dt
        t.counters["checker.checks"] += 1
        t.counters["checker.no"] += not report.verdict
        if key in ("rank2", "rank3"):
            names = sorted({x.base for x in idn.lhs})
            t.counters["checker.pairs"] += _subsets_examined(names, report)
            if report.verdict:
                t.sample("checker", (len(names), len(idn.lhs), key == "rank3", dt))
    return hook


def _key_of(t, args, r, dt):
    symbols = args[0]
    t.counters["monoid.key_of_calls"] += 1
    t.counters["monoid.key_letters"] += len(symbols)
    t.counters["monoid.key_of_s"] += dt
    if len(symbols) >= 64:
        t.sample("monoid", (len(set(symbols)), len(symbols), dt))


def _p_baxt(t, args, r, dt):
    symbols = args[0].symbols
    t.counters["trees.nodes"] += 2 * len(symbols)
    t.sample("trees", (len(symbols), len(set(symbols)), dt))


def _mat_mul(t, args, r, dt):
    d = args[0].dim
    t.counters["semiring.mat_mul_calls"] += 1
    t.counters["semiring.mat_mul_s"] += dt
    t.counters["semiring.mul_adds"] += d * (d + 1) * (d + 2) // 6


def _seconds(key):
    def hook(t, args, r, dt):
        t.counters[key] += dt
    return hook


def _materialize(t, args, r, dt):
    t.counters["represent.materialize_s"] += dt
    t.counters["represent.materialized_entries"] += r.dim * r.dim


def _search(t, args, r, dt):
    t.counters["oracle.searches"] += 1
    t.counters["oracle.search_s"] += dt
    t.counters["oracle.evals"] += r.evaluations
    if r.witness is not None:
        t.counters["oracle.witnesses"] += 1
        t.counters["oracle.witness_evals"] += r.evaluations


def _enumerate(t, args, r, dt):
    t.counters["oracle.enumerate_s"] += dt
    if args[:2] not in t.grids:
        t.grids.add(args[:2])
        t.counters["oracle.classes"] += len(r)


def _isoterm(t, args, r, dt):
    word = args[0]
    arrangements = factorial(len(word))
    for count in Counter(word).values():
        arrangements //= factorial(count)
    t.counters["families.candidates"] += arrangements - 1
    t.counters["families.accepted"] += len(r)


def _invocation(t, args, r, dt):
    t.counters["cli.invocations"] += 1


HOOKS = {
    "words.parse_identity": _identity_letters, "words.parse_aword": _word_letters,
    "words.iword": _word_letters,
    "checker.check_baxt1": _check_hook("rank1"), "checker.check_baxt2": _check_hook("rank2"),
    "checker.check_baxt3": _check_hook("rank3"),
    "checker.check_baxt4plus": _check_hook("rank4"),
    "checker.check_plain": _check_hook("plain"),
    "monoid.key_of": _key_of,
    "trees.p_baxt": _p_baxt,
    "semiring.mat_mul": _mat_mul,
    "represent.phi1": _seconds("represent.fold_s"),
    "represent.phi2": _seconds("represent.fold_s"),
    "represent.phi3": _seconds("represent.fold_s"),
    "represent.phi_n": _seconds("represent.phi_n_s"),
    "represent.materialize": _materialize,
    "oracle.brute_force_check": _search, "oracle.sample_check": _search,
    "oracle.enumerate_classes": _enumerate,
    "families.isoterm_search": _isoterm,
    "cli.run": _invocation,
}
