"""Translation plane: mesh table, covering map, sections, closed forms."""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from arquiver import ZVertex, reduced_walk, validate
from arquiver.dynkin import canonical_diagram, random_orientation
from arquiver.quiver import Step
from arquiver.repetitive import mesh_inputs, path_length
from conftest import a3_linear, all_diagrams, e6_example, g2_quiver
from plane import (
    ZPath,
    covering_map,
    in_arrows,
    is_sectional,
    is_successor,
    out_arrows,
    plain_arrow,
    seed_section,
    star_arrow,
    window_paths,
)


def test_in_arrows_g2_star():
    qop = g2_quiver().opposite()  # arrow 2 -> 1 with (3, 1)
    arrows = in_arrows(qop, ZVertex(1, 2))
    assert len(arrows) == 1
    assert arrows[0].src == ZVertex(0, 1) and arrows[0].star
    assert arrows[0].val == (1, 3)


def test_in_arrows_a3_plain():
    qop = a3_linear().opposite()
    arrows = in_arrows(qop, ZVertex(1, 1))
    assert len(arrows) == 1
    assert arrows[0].src == ZVertex(1, 2) and not arrows[0].star
    assert arrows[0].val == (1, 1)


@pytest.mark.parametrize("family,rank", all_diagrams())
def test_mesh_inputs_read_the_plane_in_arrows(family, rank):
    rng = random.Random(f"{family}{rank}")
    qop = random_orientation(canonical_diagram(family, rank), rng).opposite()
    meshes = mesh_inputs(qop)
    for s in (0, 3):
        for x in qop.vertices():
            assert meshes[x] == tuple(
                (za.src.level - s, za.src.base, za.val[1])
                for za in in_arrows(qop, ZVertex(s, x))
            )


def test_in_arrows_isolated_vertex():
    q = validate(1, [])
    assert in_arrows(q, ZVertex(5, 1)) == []


def test_covering_map_trivial():
    w = covering_map(ZPath(ZVertex(3, 2)))
    assert w.start == 2 and len(w) == 0


def test_covering_map_star_is_backward_step():
    qop = g2_quiver().opposite()
    alpha = qop.arrows[0]  # 2 -> 1
    path = ZPath(ZVertex(0, 1), (star_arrow(0, alpha),))
    walk = covering_map(path)
    assert walk.steps == (Step(alpha, False),)


def test_covering_map_composes_and_preserves_length():
    qop = a3_linear().opposite()
    a32, a21 = [a for a in qop.arrows if a.src == 3][0], [a for a in qop.arrows if a.src == 2][0]
    path = ZPath(ZVertex(0, 1), (star_arrow(0, a21), star_arrow(1, a32)))
    walk = covering_map(path)
    assert len(walk) == len(path) == 2
    assert all(not s.forward for s in walk.steps)


def test_sectional_examples():
    qop = a3_linear().opposite()
    a21 = [a for a in qop.arrows if a.src == 2][0]
    a32 = [a for a in qop.arrows if a.src == 3][0]
    assert is_sectional(ZPath(ZVertex(0, 2)))
    good = ZPath(ZVertex(0, 1), (star_arrow(0, a21), star_arrow(1, a32)))
    assert is_sectional(good)
    hook = ZPath(ZVertex(0, 1), (star_arrow(0, a21), plain_arrow(1, a21)))
    assert hook.end == ZVertex(1, 1)
    assert not is_sectional(hook)


def test_source_section_e6_levels_are_walk_arrow_counts():
    q = e6_example()
    levels = {v.base: v.level for v in seed_section(q.opposite(), 1)}
    for j in q.vertices():
        assert levels[j] == sum(step.forward for step in reduced_walk(q, 1, j).steps)


def test_source_section_meets_every_orbit_once_and_is_convex():
    rng = random.Random(3)
    for family, rank in [("A", 4), ("D", 4), ("B", 3), ("G", 2)]:
        qop = random_orientation(canonical_diagram(family, rank), rng).opposite()
        members = set(seed_section(qop, 1))
        assert sorted(v.base for v in members) == list(qop.vertices())
        # One connecting arrow per base edge, inside the section.
        inner = [za for v in members for za in out_arrows(qop, v) if za.dst in members]
        assert len(inner) == len(qop.arrows)
        # Convexity: a path between section vertices stays inside.
        for start in members:
            for path in window_paths(qop, start, -1, 5, 8):
                if path.end in members:
                    assert all(a.src in members for a in path.arrows)


def test_paths_project_to_unique_walks():
    # Equal covering image plus equal start (or equal end) force equal paths.
    rng = random.Random(11)
    for family, rank in [("A", 3), ("G", 2), ("D", 4)]:
        qop = random_orientation(canonical_diagram(family, rank), rng).opposite()
        by_start: dict[tuple, ZPath] = {}
        by_end: dict[tuple, ZPath] = {}
        for base in qop.vertices():
            start = ZVertex(0, base)
            for path in window_paths(qop, start, 0, 3, 6):
                image = tuple(covering_map(path).steps)
                for seen, key in ((by_start, (start, image)), (by_end, (path.end, image))):
                    assert key not in seen or seen[key] == path
                    seen[key] = path


def test_parallel_paths_equal_length_and_sectional_unique_in_windows():
    rng = random.Random(23)
    cases = [("A", 4), ("B", 3), ("C", 3), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]
    for family, rank in cases:
        qop = random_orientation(canonical_diagram(family, rank), rng).opposite()
        for base in qop.vertices():
            start = ZVertex(0, base)
            by_end = defaultdict(list)
            for path in window_paths(qop, start, 0, 2, 8):
                by_end[path.end].append(path)
            for end, paths in by_end.items():
                lengths = {len(p) for p in paths}
                assert len(lengths) == 1
                assert path_length(qop, start, end) == lengths.pop()
                if any(is_sectional(p) for p in paths):
                    assert len(paths) == 1


def test_path_length_agrees_with_reachability():
    qop = e6_example().opposite()
    for u in [ZVertex(0, 1), ZVertex(1, 4), ZVertex(2, 6)]:
        for level in range(0, 4):
            for base in qop.vertices():
                w = ZVertex(level, base)
                assert (path_length(qop, u, w) is not None) == is_successor(qop, u, w)
