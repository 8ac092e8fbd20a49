"""Classical families far past the exceptional Coxeter numbers.

The Coxeter number grows with the rank in A-D (n + 1, 2n, 2n - 2), so
every bound must come from the type.  Only the build and the Coxeter
solve run here; the oracle suite at large rank runs in test_oracle.py.
"""

from __future__ import annotations

import pytest

from arquiver import build, closed_form_rho_m, coxeter_matrix, table_order
from arquiver.cli import main
from arquiver.dynkin import canonical_diagram, orient

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


def test_cli_build_b32_exits_zero(tmp_path, capsys):
    q = _fixed_orientation("B", 32)
    lines = [f"n {q.n}"]
    lines += [f"arrow {a.src} {a.dst} {a.val[0]} {a.val[1]}" for a in q.arrows]
    path = tmp_path / "b32.q"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["build", str(path), "--json", str(tmp_path / "b32.json")]) == 0
    assert capsys.readouterr().err == ""
