"""Classical families far past the exceptional Coxeter numbers.

The Coxeter number grows with the rank in A-D (n + 1, 2n, 2n - 2), so
every bound must come from the type.  Only the build, the Coxeter
solve and the hammock tables run here; the oracle suite at large rank
runs in test_oracle.py.
"""

from __future__ import annotations

import pytest

from arquiver import (
    build,
    closed_form_rho_m,
    cluster_count,
    counts_and_nilpotency,
    coxeter_matrix,
    derived_nilpotency,
    hammocks,
    table_order,
    validate,
)
from arquiver.cli import main
from arquiver.dynkin import canonical_diagram
from conftest import orient
from plane import reference_arrows, reference_knit, seed_section, table_of

LARGE = [("A", 60), ("A", 64), ("B", 31), ("C", 32), ("D", 32), ("D", 40)]


def _fixed_orientation(family: str, rank: int):
    # Flip edges in a 1, 1, 0 pattern: sources, sinks and straight runs.
    flips = int("110" * rank, 2) & ((1 << (rank - 1)) - 1)
    return orient(canonical_diagram(family, rank), flips)


@pytest.mark.parametrize("family,rank", LARGE)
def test_large_rank_builds_with_tabled_order(family, rank):
    q = _fixed_orientation(family, rank)
    arq = build(q)
    h = table_order(arq.dynkin)
    assert (arq.dynkin.family, arq.dynkin.rank) == (family, rank)
    assert coxeter_matrix(arq).order == h
    assert 2 * len(arq.vertices) == rank * h
    assert closed_form_rho_m(q) == (arq.m, arq.rho)
    # coxeter, cluster and hammock read no arrow: the view stays unbuilt.
    cluster_count(arq, h)
    derived_nilpotency(arq, h)
    counts_and_nilpotency(arq, h)
    hammocks(arq)
    assert "arrows" not in vars(arq)
    assert arq.arrows == reference_arrows(arq.quiver, arq.m)


def test_cli_build_b32_exits_zero(tmp_path, capsys):
    q = _fixed_orientation("B", 32)
    lines = [f"n {q.n}"]
    lines += [f"arrow {a.src} {a.dst} {a.val[0]} {a.val[1]}" for a in q.arrows]
    path = tmp_path / "b32.q"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["build", str(path), "--json", str(tmp_path / "b32.json")]) == 0
    assert capsys.readouterr().err == ""


def _flipped(start: int) -> list[tuple[int, int]]:
    """Edges ``i -- i + 1`` up to 64, every third one reversed."""
    return [(i, i + 1) if i % 3 else (i + 1, i) for i in range(start, 64)]


# The large inputs of CI's smoke step.  With h up to 151, a hammock's tail
# past the quiver and its ties at path length h reach far beyond rank 8.
CI_LARGE = {
    "A150": lambda: validate(150, [(i, i + 1) for i in range(1, 150)]),
    "B64": lambda: validate(64, [(2, 1, (2, 1)), *_flipped(2)]),
    "C64": lambda: validate(64, [(2, 1, (1, 2)), *_flipped(2)]),
    "D64": lambda: validate(64, [(1, 3), (3, 2), *_flipped(3)]),
}


@pytest.mark.parametrize("name", sorted(CI_LARGE))
def test_large_rank_hammocks_match_the_heap_knit(name):
    q = CI_LARGE[name]()
    arq = build(q)
    qop, bound = q.opposite(), table_order(arq.dynkin) + 1
    read = hammocks(arq)
    for k in (1, q.n // 2, q.n):
        table, terminator = reference_knit(qop, k, seed_section(qop, k), bound)
        assert table_of(read[k - 1]) == table, k
        assert read[k - 1].terminator == terminator, k
