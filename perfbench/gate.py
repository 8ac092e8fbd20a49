"""Correctness gate: checks each output against references computed here.

Nothing in this module calls the program under test.  The references are
the Coxeter number from the Bourbaki table, the counting identities that
follow from it, and the positive roots of the valued graph, found by
closing the simple roots under simple reflections.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from functools import lru_cache

from inputs import Input, coxeter_number, diagram

Root = tuple[int, ...]


@lru_cache(maxsize=None)
def positive_roots(family: str, rank: int) -> frozenset[Root]:
    """Positive roots in diagram labels.

    The reflection at ``i`` is ``x_i -> -x_i + sum_j val(j, i) * x_j``, the
    convention under which dimension vectors of indecomposables are roots
    (B3: the end vertex of the double edge reaches coefficient 2).
    """
    n = rank
    into: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, n + 1)}
    for x, y, (a, b) in diagram(family, rank):
        into[y].append((x, a))  # val(x, y) = a
        into[x].append((y, b))  # val(y, x) = b
    simple = [tuple(int(j == i) for j in range(1, n + 1)) for i in range(1, n + 1)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i in range(1, n + 1):
            coeff = -beta[i - 1] + sum(v * beta[j - 1] for j, v in into[i])
            image = beta[: i - 1] + (coeff,) + beta[i:]
            if coeff >= 0 and image not in roots and any(image):
                roots.add(image)
                frontier.append(image)
    return frozenset(roots)


def input_roots(inp: Input) -> Counter:
    """Positive roots in the input's file labels, as a multiset."""
    out = Counter()
    for root in positive_roots(inp.family, inp.rank):
        relabelled = [0] * inp.rank
        for c, value in enumerate(root, start=1):
            relabelled[inp.perm[c - 1] - 1] = value
        out[tuple(relabelled)] += 1
    return out


def check_build(inp: Input, report_text: str, dot_text: str) -> str | None:
    """``None`` when the JSON report and DOT drawing are right, else why not."""
    try:
        report = json.loads(report_text)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    n, h = inp.rank, coxeter_number(inp.family, inp.rank)
    try:
        dynkin = report["dynkin"]
        if (dynkin["family"], dynkin["rank"]) != (inp.family, n):
            return f"classified as {dynkin['family']}{dynkin['rank']}"
        if report["coxeter_order"] != h:
            return f"coxeter order {report['coxeter_order']} != h = {h}"
        expected = {
            ("counts", "indecomposables"): n * h // 2,
            ("counts", "cluster"): n * (h + 2) // 2,
            ("nilpotency", "module"): h - 1,
            ("nilpotency", "derived"): h - 1,
            ("nilpotency", "cluster"): h - 1,
        }
        for (group, key), value in expected.items():
            if report[group][key] != value:
                return f"{group}.{key} = {report[group][key]}, expected {value}"
        m, rho = report["m"], report["rho"]
        if sorted(rho) != list(range(1, n + 1)) or len(m) != n:
            return "rho is not a permutation of the vertices"
        for i in range(1, n + 1):
            if rho[rho[i - 1] - 1] != i:
                return "rho is not an involution"
            if m[i - 1] + m[rho[i - 1] - 1] + 2 != h:
                return f"m({i}) + m(rho({i})) + 2 != h"
        positions = sorted((v["i"], v["r"]) for v in report["vertices"])
        if positions != [(i, r) for i in range(1, n + 1) for r in range(m[i - 1] + 1)]:
            return "vertex positions are not {(r, i) : 0 <= r <= m(i)}"
        dims = Counter(tuple(v["dim"]) for v in report["vertices"])
        if dims != input_roots(inp):
            return "dimension vectors are not the positive roots"
        arrows = len(report["arrows"])
    except (KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {exc!r}"
    nodes = len(re.findall(r"shape=", dot_text))
    edges = len(re.findall(r" -> ", dot_text))
    if (nodes, edges) != (n * h // 2, arrows):
        return f"DOT has {nodes} nodes and {edges} edges"
    return None


def check_check(stdout: str) -> str | None:
    """``None`` when ``check`` printed at least one line and all say PASS."""
    lines = stdout.splitlines()
    if not lines:
        return "no checks printed"
    bad = next((line for line in lines if not line.endswith(": PASS")), None)
    return None if bad is None else f"check not passed: {bad}"
