"""Tests of the benchmark itself: inputs, correctness gate, failure counting.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import pytest

import gate
import run
from inputs import Input, WORKLOADS, coxeter_number, workload_inputs

sys.path.insert(0, str(run.SRC))

from arquiver import build, build_report, coxeter_matrix, parse_quiver, report_to_json, to_dot  # noqa: E402
from arquiver.cli import main as cli_main  # noqa: E402

import worker  # noqa: E402


def deadline() -> float:
    return perf_counter() + 120


def outputs(inp: Input) -> tuple[str, str]:
    arq = build(parse_quiver(inp.text()))
    return report_to_json(build_report(arq, coxeter_matrix(arq).order)), to_dot(arq)


@pytest.mark.parametrize(
    "family,rank", [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]
)
def test_gate_accepts_program_output(family, rank):
    inp = Input("x", "build", family, rank, 0b1011 % (1 << (rank - 1)), tuple(range(rank, 0, -1)))
    assert gate.check_build(inp, *outputs(inp)) is None


def test_root_closure_has_n_h_over_2_roots():
    for workload in WORKLOADS:
        for inp in workload_inputs(workload, 0):
            h = coxeter_number(inp.family, inp.rank)
            assert len(gate.positive_roots(inp.family, inp.rank)) == inp.rank * h // 2


def test_gate_rejects_changed_dimension_vector():
    inp = workload_inputs("exceptional-sweep", 3)[40]
    text, dot = outputs(inp)
    report = json.loads(text)
    report["vertices"][5]["dim"][0] += 1
    assert "positive roots" in gate.check_build(inp, json.dumps(report), dot)


def test_gate_rejects_wrong_order():
    inp = workload_inputs("classical-ladder", 3)[0]
    text, dot = outputs(inp)
    report = json.loads(text)
    report["coxeter_order"] += 1
    assert "coxeter order" in gate.check_build(inp, json.dumps(report), dot)


def test_gate_rejects_failed_check_line():
    assert gate.check_check("mesh-additivity: PASS\n") is None
    assert gate.check_check("mesh-additivity: PASS\ncount-identity: FAIL (x)\n")
    assert gate.check_check("")


def test_same_seed_same_inputs_other_seed_other_relabelling():
    for workload in WORKLOADS:
        first = [i.text() for i in workload_inputs(workload, 7)]
        assert first == [i.text() for i in workload_inputs(workload, 7)]
        other = workload_inputs(workload, 8)
        assert [i.perm for i in workload_inputs(workload, 7)] != [i.perm for i in other]


def test_exceptional_sweep_inputs_are_distinct():
    inputs = workload_inputs("exceptional-sweep", 0)
    assert len(inputs) == 234
    assert len({frozenset(i.arrows()) for i in inputs}) == 234


def test_exit_one_input_is_counted():
    b32 = next(i for i in workload_inputs("classical-ladder", 0) if i.id.startswith("B32"))
    a8 = next(i for i in workload_inputs("classical-ladder", 0) if i.id.startswith("A8"))
    base, commands = run.write_inputs("selftest", [b32, a8])
    tally = run.Tally()
    result = run.judged_pass(base, "cli", commands, {b32.id: b32, a8.id: a8}, deadline(), tally)
    assert [c["exit"] for c in result["commands"]] == [1, 0]
    assert "no identity power" in result["commands"][0]["stderr"]
    assert (tally.attempted, tally.outcomes) == (2, {"exit": 1, "exception": 0, "wrong": 0})


def test_uncaught_exception_is_counted_and_the_pass_goes_on():
    inputs = workload_inputs("oracle-check", 0)[-2:]
    _, commands = run.write_inputs("selftest", inputs)

    def flaky_main(argv):
        if argv[1] == commands[0]["file"]:
            raise RuntimeError("boom")
        return cli_main(argv)

    result = worker.run_cli_pass(commands, flaky_main)
    first, second = result["commands"]
    assert first["exception"] == "RuntimeError: boom" and first["exit"] is None
    assert second["exit"] == 0
    by_id = {i.id: i for i in inputs}
    assert run.judge(by_id, {}, first) == "exception"
    assert run.judge(by_id, {}, second) is None


@pytest.mark.parametrize(
    "body", ["import sys\nsys.exit(3)\n", "import time\ntime.sleep(60)\n"], ids=["dies", "hangs"]
)
def test_dead_or_hung_worker_fails_every_command(monkeypatch, body):
    inputs = workload_inputs("exceptional-sweep", 0)[:3]
    base, commands = run.write_inputs("selftest", inputs)
    dead = base / "dead_worker.py"
    dead.write_text(body, encoding="utf-8")
    monkeypatch.setattr(run, "WORKER", dead)
    tally = run.Tally()
    t0 = perf_counter()
    run.judged_pass(base, "cli", commands, {i.id: i for i in inputs}, t0 + 2, tally)
    assert (tally.attempted, tally.failed) == (3, 3)
    assert perf_counter() - t0 < 30


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
