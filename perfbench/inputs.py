"""Seeded quiver inputs for the benchmark workloads.

The diagrams below are the benchmark's own copy of the Dynkin tables, so
neither the inputs nor the references in ``gate.py`` come from the program
under test.  An input is a diagram, one orientation (bit ``i`` of ``flips``
reverses edge ``i``) and one vertex relabelling (``perm[c - 1]`` is the
file label of diagram vertex ``c``); the same seed always gives the same
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

Valuation = tuple[int, int]
Edge = tuple[int, int, Valuation]  # (x, y, (val(x, y), val(y, x)))

WORKLOADS = ("exceptional-sweep", "classical-ladder", "oracle-check")

EXCEPTIONAL = (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))
LADDER_RANKS = (8, 16, 24, 32)
CHECK_CLASSICAL = (("A", 24), ("B", 20), ("C", 20), ("D", 20))
CHECK_E8_ORIENTATIONS = 8


def diagram(family: str, rank: int) -> list[Edge]:
    """Valued edges of the Dynkin diagram, Bourbaki numbering.

    Family names follow the program's convention: in ``B`` the end vertex of
    the double edge has valuation 1 towards its neighbour and the neighbour
    2 towards it; ``C`` is the reverse.
    """
    n = rank
    chain = [(i, i + 1, (1, 1)) for i in range(1, n - 1)]
    if family == "A":
        return [(i, i + 1, (1, 1)) for i in range(1, n)]
    if family == "B":
        return chain + [(n - 1, n, (2, 1))]
    if family == "C":
        return chain + [(n - 1, n, (1, 2))]
    if family == "D":
        return chain + [(n - 2, n, (1, 1))]
    if family == "E":
        return [(1, 3, (1, 1)), (2, 4, (1, 1))] + [(i, i + 1, (1, 1)) for i in range(3, n)]
    if family == "F":
        return [(1, 2, (1, 1)), (2, 3, (1, 2)), (3, 4, (1, 1))]
    if family == "G":
        return [(1, 2, (1, 3))]
    raise ValueError(f"no diagram {family}{rank}")


def coxeter_number(family: str, rank: int) -> int:
    """Coxeter number h (Bourbaki, Lie Groups ch. VI, Planches)."""
    if family == "A":
        return rank + 1
    if family in ("B", "C"):
        return 2 * rank
    if family == "D":
        return 2 * rank - 2
    return {("E", 6): 12, ("E", 7): 18, ("E", 8): 30, ("F", 4): 12, ("G", 2): 6}[
        (family, rank)
    ]


@dataclass(frozen=True)
class Input:
    id: str
    command: str  # "build" or "check"
    family: str
    rank: int
    flips: int
    perm: tuple[int, ...]

    def arrows(self) -> list[tuple[int, int, Valuation]]:
        """Arrows in file labels: (src, dst, valuation)."""
        out = []
        for i, (x, y, (a, b)) in enumerate(diagram(self.family, self.rank)):
            if self.flips >> i & 1:
                x, y, a, b = y, x, b, a
            out.append((self.perm[x - 1], self.perm[y - 1], (a, b)))
        return out

    def text(self) -> str:
        lines = [f"# {self.family}{self.rank} flips={self.flips:#x}", f"n {self.rank}"]
        for src, dst, val in self.arrows():
            suffix = "" if val == (1, 1) else f" {val[0]} {val[1]}"
            lines.append(f"arrow {src} {dst}{suffix}")
        return "\n".join(lines) + "\n"

    def manifest(self) -> dict:
        return {
            "id": self.id,
            "command": self.command,
            "family": self.family,
            "rank": self.rank,
            "flips": self.flips,
            "perm": list(self.perm),
        }


def _perm(rng: Random, n: int) -> tuple[int, ...]:
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return tuple(labels)


def _make(rng: Random, command: str, family: str, rank: int, flips: int, seen: set) -> Input:
    """An input whose labelled quiver differs from every one in ``seen``."""
    while True:
        inp = Input(f"{family}{rank}-{flips:x}", command, family, rank, flips, _perm(rng, rank))
        key = frozenset(inp.arrows())
        if key not in seen:
            seen.add(key)
            return inp


def workload_inputs(workload: str, seed: int) -> list[Input]:
    rng = Random(f"{workload}:{seed}")
    seen: set = set()
    if workload == "exceptional-sweep":
        return [
            _make(rng, "build", f, r, flips, seen)
            for f, r in EXCEPTIONAL
            for flips in range(1 << (r - 1))
        ]
    if workload == "classical-ladder":
        return [
            _make(rng, "build", f, r, rng.getrandbits(r - 1), seen)
            for f in "ABCD"
            for r in LADDER_RANKS
        ]
    if workload == "oracle-check":
        classical = [
            _make(rng, "check", f, r, rng.getrandbits(r - 1), seen)
            for f, r in CHECK_CLASSICAL
        ]
        e8 = [
            _make(rng, "check", "E", 8, flips, seen)
            for flips in sorted(rng.sample(range(1 << 7), CHECK_E8_ORIENTATIONS))
        ]
        return classical + e8
    raise ValueError(f"unknown workload {workload!r}")
