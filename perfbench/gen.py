"""Seeded inputs for the critalg benchmark.

Everything here depends on the seed alone.  Orders, Hasse reductions and
``.alg`` text are built by this file, never by ``critalg.randgen``, so a
change to the program cannot change the inputs it is measured on.  The only
inputs taken from the program are the catalogue templates, which setup
writes with ``critalg templates --emit``.

An op is a pair ``(op_id, argv)``: ``argv`` is handed to
``critalg.cli.main`` with ``{dir}`` replaced by the work directory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Why each workload exists; BENCHMARK.json carries the same one-liners.
WHY = {
    "scan": ("criterion, guided critical, compare and iz at or under the size cap: subset "
             "enumeration, pd screen, tiny cached resolutions, minimality, classification"),
    "engine": ("gldim on 30-150 vertex chains, sparse orders and grids past the size cap: a few "
               "large exact resolutions in homology and linalg, no subset scan"),
    "gate": ("validate on diamonds, grids and long chains, and random n=14-20: path and contour "
             "enumeration of the certification gate, alone and as a rejection filter"),
}

# Catalogue templates with at most 12 vertices, except A_9: its criterion
# scan alone (502 critical subsets, 4 s) would take a quarter of a pass.
TEMPLATES = ([("A", p) for p in range(1, 9)] + [("B", 1), ("B", 3), ("B", 4), ("B", 5)]
             + [("Q", p) for p in range(2, 6)])


def template_size(kind: str, param: int) -> int:
    return {"A": param + 3, "B": 6 if param == 1 else 2 * param + 1, "Q": 2 * param + 2}[kind]


@dataclass(frozen=True)
class Input:
    """One generated description file."""

    name: str
    n: int
    text: str  # "" for templates, which setup emits through the CLI
    template: tuple[str, int] | None = None

    @property
    def file(self) -> str:
        return "{dir}/" + self.name + ".alg"


# -- orders and their Hasse quivers ---------------------------------------------


def random_order(rng: random.Random, n: int, density: float) -> list[int]:
    """Strict down-sets of a random order on 0..n-1 (i > j only if i < j as
    integers): each pair is related with the given density, then closed."""
    below = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                below[i] |= 1 << j
    for i in range(n - 1, -1, -1):
        acc = below[i]
        for j in _bits(below[i]):
            acc |= below[j]
        below[i] = acc
    return below


def hasse_arrows(below: list[int]) -> list[tuple[int, int]]:
    """Cover relations of a closed order: i -> j unless some k lies between."""
    arrows = []
    for i, row in enumerate(below):
        for j in _bits(row):
            if not any(below[k] >> j & 1 for k in _bits(row & ~(1 << j))):
                arrows.append((i, j))
    return arrows


def long_pairs(below: list[int], arrows: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Comparable pairs with no arrow between them: the legal zero pairs."""
    arrow_set = set(arrows)
    return [(i, j) for i, row in enumerate(below) for j in _bits(row) if (i, j) not in arrow_set]


def alg_text(label: str, n: int, arrows, zeros=()) -> str:
    lines = [f"algebra {label}", "vertices " + " ".join(str(v + 1) for v in range(n))]
    if arrows:
        lines.append("arrows " + " ".join(f"{s + 1}->{t + 1}" for s, t in arrows))
    lines += [f"zero {s + 1} ~> {t + 1}" for s, t in zeros]
    return "\n".join(lines) + "\n"


def random_input(rng: random.Random, name: str, n: int, density: float, zero_rate: float) -> Input:
    below = random_order(rng, n, density)
    arrows = hasse_arrows(below)
    zeros = [p for p in long_pairs(below, arrows) if rng.random() < zero_rate]
    return Input(name, n, alg_text(name, n, arrows, zeros))


# -- fixed shapes -------------------------------------------------------------------


def chain_input(name: str, n: int, zeros) -> Input:
    return Input(name, n, alg_text(name, n, [(v, v + 1) for v in range(n - 1)], zeros))


def grid_arrows(a: int, b: int) -> list[tuple[int, int]]:
    """The product of an a-chain and a b-chain; vertex r*b + c."""
    arrows = []
    for r in range(a):
        for c in range(b):
            v = r * b + c
            if c + 1 < b:
                arrows.append((v, v + 1))
            if r + 1 < a:
                arrows.append((v, v + b))
    return arrows


def diamonds_arrows(k: int) -> list[tuple[int, int]]:
    """k diamonds stacked tip to tip: joints 0, 3, 6, .., 3k and two sides each."""
    arrows = []
    for d in range(k):
        top = 3 * d
        arrows += [(top, top + 1), (top, top + 2), (top + 1, top + 3), (top + 2, top + 3)]
    return arrows


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- workloads ------------------------------------------------------------------------


def scan_ops(seed: int):
    rng = random.Random(f"scan-{seed}")
    inputs = [random_input(rng, f"r{n}d{int(density * 100)}{v}", n, density, 0.25)
              for n in range(9, 14) for density in (0.25, 0.4) for v in ("ab" if n < 13 else "a")]
    pure = [random_input(rng, f"p{n}{v}", n, 0.35, 0.0) for n in range(9, 12) for v in "ab"]
    templates = [Input(f"{k}_{p}", template_size(k, p), "", (k, p)) for k, p in TEMPLATES]
    every = inputs + templates + pure
    ops = [(f"criterion:{inp.name}", ["criterion", "--json", inp.file]) for inp in every]
    # guided search on A_8 and compare above 9 vertices repeat the work of
    # criterion on the same inputs; they are left out so that two passes fit
    # in a run
    ops += [(f"critical:{inp.name}", ["critical", "--strategy", "guided", inp.file])
            for inp in every if inp.name != "A_8"]
    ops += [(f"compare:{inp.name}", ["compare", inp.file]) for inp in every if inp.n <= 9]
    ops += [(f"iz:{inp.name}", ["iz", inp.file]) for inp in pure]
    return every, ops


def engine_ops(seed: int):
    rng = random.Random(f"engine-{seed}")
    inputs = []
    for n in (60, 90, 120, 150):
        phase = rng.randrange(5)
        zeros = [(v, v + 3) for v in range(phase, n - 3, 5)]
        inputs.append(chain_input(f"chain{n}", n, zeros))
    for n, density, count in ((30, 0.15, 32), (40, 0.1, 26), (50, 0.08, 18), (60, 0.05, 14)):
        inputs += [random_input(rng, f"sparse{n}_{v}", n, density, 0.1) for v in range(count)]
    for a, b in ((4, 4), (4, 6), (5, 6), (4, 8), (5, 8), (4, 10)):
        inputs.append(Input(f"grid{a}x{b}", a * b, alg_text(f"grid{a}x{b}", a * b, grid_arrows(a, b))))
    ops = [(f"gldim:{inp.name}", ["gldim", "--json", inp.file]) for inp in inputs]
    return inputs, ops


def gate_ops(seed: int):
    rng = random.Random(f"gate-{seed}")
    inputs = []
    for k in range(2, 6):
        for v in "abcd":
            d = rng.randrange(k)  # the diamond the zero pair crosses
            name, n = f"diamonds{k}{v}", 3 * k + 1
            inputs.append(Input(name, n, alg_text(name, n, diamonds_arrows(k), [(3 * d, 3 * d + 3)])))
    for a, b in ((3, 3), (3, 4), (4, 4), (4, 5)):
        arrows = grid_arrows(a, b)
        below = [0] * (a * b)
        for s, t in sorted(arrows, reverse=True):
            below[s] |= (1 << t) | below[t]
        for v in "abcd":
            name, zero = f"grid{a}x{b}{v}", rng.choice(long_pairs(below, arrows))
            inputs.append(Input(name, a * b, alg_text(name, a * b, arrows, [zero])))
    for n in (100, 200, 300, 400):
        period = rng.randrange(5, 11)
        zeros = [(v, v + 2) for v in range(rng.randrange(period), n - 2, period)]
        inputs.append(chain_input(f"chain{n}", n, zeros))
    ops = [(f"validate:{inp.name}", ["validate", "--json", inp.file]) for inp in inputs]
    # a random op retries the gate a geometric number of times, so its cost
    # varies most from seed to seed at the largest n: one op each there
    for n in range(14, 21):
        for v in range(16 if n < 18 else 1):
            s = rng.randrange(1 << 30)
            ops.append((f"random:n{n}_{v}", ["random", "--seed", str(s), "--n", str(n), "--density", "0.3"]))
    return inputs, ops


WORKLOADS = {"scan": scan_ops, "engine": engine_ops, "gate": gate_ops}


# Ops that fail at the seed commit, kept out of the workloads (whose ops must
# not fail) and run by ``run.py --known-defects``: validate on a 1200-chain
# with the zero pair 1 ~> 1200 ends in RecursionError (exit 4) after about
# 30 s and 1.4 GB, in the recursive path enumeration of the gate.
_CHAIN1200 = chain_input("chain1200", 1200, [(0, 1199)])
KNOWN_DEFECTS = [(_CHAIN1200, ["validate", "--json", _CHAIN1200.file])]
