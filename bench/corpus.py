"""Seeded corpus generator for the benchmark workloads.

Standard library only and independent of the package under test, so the
same seed gives a byte-identical corpus whatever the package does.  Every op
is a plain dict that ``json`` can serialise.  A corpus is a list of rounds;
each round holds one op per stratum of the workload's size ladder, so any
number of whole rounds has the same mix of sizes and ranks.  Only the
content (letters, variable names, templates, partners) depends on the seed.

Identity verdicts are fixed here by construction wherever they can be:

* YES: ``u ~= u`` and substitution instances of the rank->=4 basis rows
  (true at every rank), of p_k ~= q_k (true at ranks <= 3) and of the rank-2
  basis rows (true at ranks <= 2).  Each template variable maps to a random
  word over fresh variables and ``x*`` to the starred word.
* NO: a known-false core embedded among fresh variables, the same fresh
  pieces on both sides: ``x y ~= y x`` or ``x x* ~= x* x`` at ranks >= 2,
  p_k ~= q_k at ranks >= 4, an unbalanced pair at rank 1.  Sending every
  fresh variable to the empty word recovers the core, so the whole identity
  fails wherever the core does.
"""

from __future__ import annotations

import random

# ---------------------------------------------------------------------------
# Identity templates, as token lists ("x", "x*", ...)
# ---------------------------------------------------------------------------


def _frame(p1, p2, p3, p4, mid):
    return f"{p1} h {p2} k {mid} s {p3} t {p4}".split()


#: The two plain rows that are a basis for every rank >= 4.
BASIS4 = [(_frame("x", "y", "x", "y", "x y"), _frame("x", "y", "x", "y", "y x")),
          (_frame("x", "y", "y", "x", "x y"), _frame("x", "y", "y", "x", "y x"))]

# Slot letters (p1, p2, p3, p4) of the displayed rank-2 basis rows.
_BASIS2_SLOTS = [
    ("x*", "x", "x*", "x"), ("x*", "x", "x", "x*"), ("x", "x*", "x*", "x"),
    ("x", "x*", "x", "x*"), ("x*", "x", "y*", "y"), ("x*", "x", "y", "y*"),
    ("x", "x*", "y*", "y"), ("x", "x*", "y", "y*"), ("x", "y", "x", "y"),
    ("x", "y", "y", "x"), ("x", "y", "x*", "y*"), ("x", "y", "y*", "x*"),
    ("x*", "y*", "x*", "y*"), ("x*", "y*", "y*", "x*"), ("x*", "x", "x", "y"),
    ("x*", "x", "y", "x"), ("x", "x*", "x", "y"), ("x", "x*", "y", "x"),
    ("x*", "x", "x*", "y*"), ("x*", "x", "y*", "x*"), ("x", "x*", "x*", "y*"),
    ("x", "x*", "y*", "x*"),
]
_BASIS2_ROWS = [(_frame(*s, "x y"), _frame(*s, "y x")) for s in _BASIS2_SLOTS]
#: The rank-2 basis: every displayed row, then the reverse of every row.
BASIS2 = _BASIS2_ROWS + [(l[::-1], r[::-1]) for l, r in _BASIS2_ROWS]


def pk_qk(k: int):
    """p_k ~= q_k: true at ranks <= 3, false from rank 4 up."""
    xi = [f"x{i}" for i in range(1, 2 * k + 1)]
    head = [t + "*" for t in xi]
    tail = [t + "*" for t in xi[0::2]] + [t + "*" for t in xi[1::2]]
    p = head + ["x", "x*", "x*"] + xi + ["x", "x*", "x"] + tail
    q = head + ["x", "x*", "x"] + xi + ["x*", "x*", "x"] + tail
    return p, q


#: Highest involution rank at which each YES template holds (None: every rank).
TEMPLATE_MAX_RANK = {"uu": None, "basis4": None, "basis2": 2, "pkqk": 3}

#: Known-false cores and the lowest rank at which each fails.
CORES = {
    "xy": ("x y".split(), "y x".split(), 2),
    "xxs": ("x x*".split(), "x* x".split(), 2),
    "pkqk": (*pk_qk(2), 4),
    "unbalanced": ("x x y".split(), "x y".split(), 1),
}


def family_lines(name: str, k: int = 2) -> list[str]:
    """The text the ``family`` subcommand prints, one identity per line."""
    rows = {"basis2": BASIS2, "basis4": BASIS4}.get(name) or [pk_qk(k)]
    return [f"{' '.join(l)} ~= {' '.join(r)}" for l, r in rows]


def holds(template: str, n, mode: str = "involution") -> bool:
    """Truth of a YES template at rank n (plain mode: every rank >= 1)."""
    top = TEMPLATE_MAX_RANK[template]
    return mode == "plain" or top is None or n <= top


# ---------------------------------------------------------------------------
# Words over variables
# ---------------------------------------------------------------------------

def _star(token: str) -> str:
    return token[:-1] if token.endswith("*") else token + "*"


def star_word(word):
    return [_star(t) for t in reversed(word)]


def _base(token: str) -> str:
    return token.rstrip("*")


def _names(rng, count: int, prefix: str = "v") -> list[str]:
    """Distinct variable names in random sort order."""
    return [f"{prefix}{i}" for i in rng.sample(range(10 * count + 10), count)]


def _pool(names, stars: bool):
    return names + [x + "*" for x in names] if stars else list(names)


def _substitute(side, images):
    out = []
    for t in side:
        img = images[_base(t)]
        out.extend(star_word(img) if t.endswith("*") else img)
    return out


def _rename(side, mapping):
    return [mapping[_base(t)] + ("*" if t.endswith("*") else "") for t in side]


def yes_instance(rng, template: str, k: int, letters: int, stars: bool):
    """A substitution instance of a true template over k fresh variables,
    about ``letters`` letters per side."""
    pool = _pool(_names(rng, k), stars)
    if template == "uu":
        u = rng.choices(pool, k=letters)
        return u, list(u)
    if template == "basis4":
        lhs, rhs = BASIS4[rng.randrange(2)]
    elif template == "basis2":
        lhs, rhs = BASIS2[rng.randrange(len(BASIS2))]
    else:
        lhs, rhs = pk_qk(2)
    per = max(1, letters // len(lhs))
    images = {b: rng.choices(pool, k=per) for b in {_base(t) for t in lhs}}
    return _substitute(lhs, images), _substitute(rhs, images)


def no_instance(rng, core: str, k: int, letters: int, stars: bool):
    """A known-false core among k fresh variables, same fresh pieces on both
    sides, about ``letters`` letters per side."""
    c_lhs, c_rhs, _ = CORES[core]
    core_vars = sorted({_base(t) for t in c_lhs + c_rhs})
    # the core takes the middle of the sorted names, so a checker that scans
    # variables in sorted order meets it after the same share of its work
    names = sorted(_names(rng, k + len(core_vars)))
    mid = k // 2
    mapping = dict(zip(core_vars, names[mid:]))
    pool = _pool(names[:mid] + names[mid + len(core_vars):], stars)
    slots = max(len(c_lhs), len(c_rhs)) + 1
    pieces = [rng.choices(pool, k=max(1, letters // slots)) for _ in range(slots)]

    def embed(core_side):
        out = list(pieces[0])
        for i, t in enumerate(_rename(core_side, mapping)):
            out += [t] + pieces[i + 1]
        for p in pieces[len(core_side) + 1:]:
            out += p
        return out

    return embed(c_lhs), embed(c_rhs)


def text(lhs, rhs) -> str:
    return f"{' '.join(lhs)} ~= {' '.join(rhs)}"


# ---------------------------------------------------------------------------
# Workload ladders.  Each returns the ops of one round from a seeded rng per op.
# ---------------------------------------------------------------------------

# check-wide: rank (or plain) -> variable counts of the YES strata.  Ranks 2
# and 3 run the O(k^2) base-pair loop, so their ladder stops lower.
_WIDE_K = {2: (25, 40, 60, 90, 130), 3: (25, 40, 60, 90, 130),
           4: (25, 50, 90, 140, 200), "plain": (25, 50, 90, 140, 200)}
_WIDE_LETTERS = (2000, 3000, 4500, 7000, 10000)
_WIDE_TEMPLATES = {2: ("uu", "basis4", "basis2", "pkqk"), 3: ("uu", "basis4", "pkqk"),
                   4: ("uu", "basis4"), "plain": ("uu", "basis4")}
# NO strata: (rank, variables, letters, core)
_WIDE_NO = ((2, 70, 4000, "xxs"), (3, 70, 4000, "xy"), (3, 100, 6000, "xxs"),
            (4, 70, 4000, "pkqk"), ("plain", 70, 4000, "xy"))


def _wide_strata():
    for ri, rank in enumerate(_WIDE_K):
        templates = _WIDE_TEMPLATES[rank]
        for j, k in enumerate(_WIDE_K[rank]):
            yield (rank, k, _WIDE_LETTERS[(j + ri) % 5], templates[j % len(templates)], True)
    for rank, k, letters, core in _WIDE_NO:
        yield (rank, k, letters, core, False)


def _wide_op(rng, stratum):
    rank, k, letters, template, expect = stratum
    plain = rank == "plain"
    make = yes_instance if expect else no_instance
    lhs, rhs = make(rng, template, k, letters, stars=not plain)
    return {"text": text(lhs, rhs), "n": 3 if plain else rank,
            "mode": "plain" if plain else "involution",
            "expect": expect, "k": k, "letters": letters, "template": template}


# oracle-grid: (search, template, variables, n, max_len, samples).  Full
# grids for known-true identities, early witnesses for known-false ones.
_GRID_STRATA = (
    ("exhaustive", "uu", 2, 2, 3, 0),
    ("exhaustive", "uu", 2, 4, 3, 0),
    ("exhaustive", "basis4", 3, 3, 2, 0),
    ("exhaustive", "basis4", 3, 4, 2, 0),
    ("exhaustive", "basis4-row", 6, 2, 1, 0),
    ("exhaustive", "basis4-row", 6, 3, 1, 0),
    ("exhaustive", "basis4-row", 6, 4, 1, 0),
    ("exhaustive", "basis2-row", 6, 2, 1, 0),
    ("exhaustive", "pkqk-row", 5, 3, 1, 0),
    ("exhaustive", "pkqk-row", 5, 2, 2, 0),
    ("exhaustive", "xy", 4, 2, 2, 0),
    ("exhaustive", "xxs", 3, 3, 3, 0),
    ("exhaustive", "xy", 6, 4, 1, 0),
    ("sample", "basis4-row", 6, 3, 2, 2000),
    ("sample", "uu", 3, 4, 3, 1000),
    ("sample", "xxs", 3, 4, 2, 2000),
)


def _small_instance(rng, template, nvars):
    """An identity over exactly ``nvars`` variable bases."""
    if template.endswith("-row"):
        name = template[:-4]
        rows = {"basis4": BASIS4, "basis2": BASIS2}.get(name) or [pk_qk(2)]
        return rows[rng.randrange(len(rows))], True
    if template in CORES:
        core_vars = {_base(t) for t in CORES[template][0]}
        fresh = nvars - len(core_vars)
        while True:
            lhs, rhs = no_instance(rng, template, fresh, 2 * fresh, stars=True)
            if len({_base(t) for t in lhs}) == nvars:
                return (lhs, rhs), False
    while True:
        lhs, rhs = yes_instance(rng, template, nvars, 2 * nvars, stars=True)
        if len({_base(t) for t in lhs}) == nvars:
            return (lhs, rhs), True


def _grid_op(rng, stratum):
    search, template, nvars, n, max_len, samples = stratum
    (lhs, rhs), expect = _small_instance(rng, template, nvars)
    return {"text": text(lhs, rhs), "n": n, "max_len": max_len,
            "search": search, "samples": samples,
            "sample_seed": rng.randrange(2 ** 31), "expect": expect,
            "template": template}


# canon-long: (rank, letters, image); every other stratum pairs its word with
# a congruent partner.  The (1, 2000) stratum builds a tree deeper than the
# interpreter's recursion limit.
_CANON_STRATA = (
    (1, 100, "fold"), (1, 200, "fold"), (1, 2000, "fold"),
    (2, 80, "fold"), (2, 150, "fold"), (2, 300, "fold"), (3, 200, "fold"),
    (3, 400, "fold"), (4, 100, "materialize"), (5, 300, "phi_n"),
    (6, 150, "phi_n"), (7, 500, "phi_n"), (10, 500, "phi_n"), (15, 300, None),
    (20, 500, None), (30, 800, None), (50, 200, None), (60, 1000, None),
    (100, 1500, None), (200, 300, None), (300, 1500, None), (400, 800, None),
    (800, 500, None), (1000, 2000, None), (1000, 10000, None),
)


def _canon_strata():
    for i, (n, letters, image) in enumerate(_CANON_STRATA):
        yield (n, letters, image, i % 2 == 0)


def _canon_op(rng, stratum):
    n, letters, image, congruent = stratum
    if congruent:
        # a rank-4 basis row holds at every rank: its two sides, under any
        # substitution, are congruent words
        lhs, rhs = BASIS4[rng.randrange(2)]
        short = max(1, letters // 20)
        rest = max(1, (letters - 6 * short) // 4)
        images = {b: [rng.randint(1, n) for _ in range(short if b in "xy" else rest)]
                  for b in "hkstxy"}
        word, partner = _substitute(lhs, images), _substitute(rhs, images)
    else:
        word = [rng.randint(1, n) for _ in range(letters)]
        partner = rng.sample(word, len(word))  # congruent or not: the trees decide
    return {"n": n, "word": word, "partner": partner, "congruent": congruent,
            "image": image, "letters": letters}


# cli-small: many tiny calls through the command line front end.
_CLI_SINGLE = (1, 2, 3, 4, "plain") * 2
_CLI_BATCH = (("basis2", 2, 2), ("basis2", 2, 1), ("basis4", 2, 5),
              ("basis4", 2, "plain"), ("pkqk", 2, 3), ("pkqk", 3, 2),
              ("pkqk", 4, 4), ("pkqk", 5, 6))
_CLI_FAMILY = (("basis2", 2), ("pkqk", 3))
_CLI_ISOTERM = (2, 3, 4)


def _cli_strata():
    for i, n in enumerate(_CLI_SINGLE):
        yield ("single", n, i % 2)
    for s in _CLI_BATCH:
        yield ("batch",) + s
    for s in _CLI_FAMILY:
        yield ("family",) + s
    for n in _CLI_ISOTERM:
        yield ("isoterm", n)


def _small_word(rng, names, length, stars):
    return rng.choices(_pool(names, stars), k=length)


def _cli_op(rng, stratum):
    kind = stratum[0]
    if kind == "single":
        _, n, as_json = stratum
        plain = n == "plain"
        names = ["x", "y", "z"][:rng.randint(1, 3)]
        lhs = _small_word(rng, names, rng.randint(2, 8), not plain)
        rhs = (rng.sample(lhs, len(lhs)) if rng.random() < 0.75
               else _small_word(rng, names, rng.randint(2, 8), not plain))
        rank, mode = (2, "plain") if plain else (n, "involution")
        argv = ["check-id", text(lhs, rhs), "--n", str(rank), "--mode", mode]
        if as_json:
            argv += ["--format", "json"]
        return {"kind": kind, "argv": argv, "stdin": None, "text": text(lhs, rhs),
                "n": rank, "mode": mode, "json": bool(as_json)}
    if kind == "batch":
        _, name, k, n = stratum
        argv = ["check-id", "--n", "3" if n == "plain" else str(n)]
        if n == "plain":
            argv += ["--mode", "plain"]
        lines = family_lines(name, k)
        verdict = holds(name, n, "plain" if n == "plain" else "involution")
        return {"kind": kind, "argv": argv, "stdin": "\n".join(lines) + "\n",
                "expect": [verdict] * len(lines)}
    if kind == "family":
        _, name, k = stratum
        return {"kind": kind, "argv": ["family", name, "--k", str(k)],
                "stdin": None, "expect": family_lines(name, k)}
    _, n = stratum
    word = _small_word(rng, ["x", "y"], rng.randint(3, 5), True)
    return {"kind": kind, "argv": ["isoterm", " ".join(word), "--n", str(n),
                                   "--format", "json"],
            "stdin": None, "word": word, "n": n}


_LADDERS = {
    "check-wide": (lambda: list(_wide_strata()), _wide_op),
    "cli-small": (lambda: list(_cli_strata()), _cli_op),
    "oracle-grid": (lambda: list(_GRID_STRATA), _grid_op),
    "canon-long": (lambda: list(_canon_strata()), _canon_op),
}


def make_corpus(workload: str, seed: int, rounds: int) -> list[list[dict]]:
    """``rounds`` rounds of ops for a workload; op j of round r draws from
    its own rng, so a longer corpus extends a shorter one."""
    strata_fn, op_fn = _LADDERS[workload]
    strata = strata_fn()
    return [[op_fn(random.Random(f"{workload}:{seed}:{r}:{j}"), s)
             for j, s in enumerate(strata)]
            for r in range(rounds)]
