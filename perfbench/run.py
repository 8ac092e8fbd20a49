#!/usr/bin/env python3
"""Outside-in benchmark of arquiver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's quiver files are generated
from the seed; each pass runs every command once in a fresh worker process
(one worker at a time), and passes repeat until ``--seconds`` have gone.
Every output is checked by ``gate.py``; a failed, crashed or rejected
command is counted, never allowed to stop the run.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` one untraced pass plus traced passes
and the per-layer metrics.  ``--workload all`` runs the three workloads in
turn.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import gate
from inputs import WORKLOADS, Input, workload_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 9
RUN_BUDGET_S = 160  # a run must end within 180 s, however slow the program

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cmd_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "build_scaling_exp": "exponent",
}

# Span name -> per-layer time metric (sum of self time over one pass).
LAYER_TIMES = {
    "report.parse": "report.parse_s",
    "quiver.walk_table": "quiver.walk_table_s",
    "dynkin.classify": "dynkin.classify_s",
    "hammock.knit": "hammock.knit_s",
    "ar_quiver.build": "ar_quiver.build_s",
    "ar_quiver.counts": "ar_quiver.counts_s",
    "coxeter.solve": "coxeter.solve_s",
    "derived.stats": "derived.stats_s",
    "report.build_report": "report.build_report_s",
    "report.json": "report.json_s",
    "report.dot": "report.dot_s",
    "oracle.mesh": "oracle.mesh_s",
    "oracle.audit": "oracle.audit_s",
    "oracle.run_all": "oracle.run_all_s",
}
LAYER_COUNTERS = {
    "hammock.table_entries": "count",
    "hammock.max_terminator_level": "count",
    "ar_quiver.vertices": "count",
    "ar_quiver.arrows": "count",
    "ar_quiver.dim_entries": "count",
    "coxeter.order": "count",
    "report.json_bytes": "bytes",
    "report.dot_bytes": "bytes",
    "oracle.audit_peak_mb": "MB",
    "oracle.checks": "count",
    "oracle.checks_failed": "count",
}
MODULES = ("report", "quiver", "dynkin", "hammock", "ar_quiver", "coxeter", "derived", "oracle")
PER_LAYER = {
    **{metric: "s" for metric in LAYER_TIMES.values()},
    "ar_quiver.assemble_s": "s",
    **LAYER_COUNTERS,
    "hammock.useful_ratio": "ratio",
    **{f"{module}.errors": "count" for module in MODULES},
    "cli.cmd_ms_p95": "ms",
    "cli.fail_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_times(probes: int) -> list[float]:
    """Calibrated wall times of fresh interpreters that import ``arquiver.cli``.

    One unmeasured probe first, so every measured one finds bytecode cached.
    """
    times, loops = [], []
    for i in range(probes + 1):
        if i:
            loops.append(calibrate.loop_seconds())
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import arquiver.cli"],
            cwd=ROOT,
            env=worker_env(),
            check=True,
            capture_output=True,
        )
        if i:
            times.append(perf_counter() - t0)
    loops.append(calibrate.loop_seconds())
    return [t * f for t, f in zip(times, calibrate.factors(loops, [[] for _ in times]))]


def write_inputs(workload: str, inputs: list[Input]) -> tuple[Path, list[dict]]:
    base = WORK / workload
    shutil.rmtree(base, ignore_errors=True)
    (base / "in").mkdir(parents=True)
    (base / "out").mkdir()
    commands = []
    for inp in inputs:
        path = base / "in" / f"{inp.id}.txt"
        path.write_text(inp.text(), encoding="utf-8")
        commands.append(
            {
                "id": inp.id,
                "command": inp.command,
                "file": str(path),
                "json": str(base / "out" / f"{inp.id}.json"),
                "dot": str(base / "out" / f"{inp.id}.dot"),
            }
        )
    return base, commands


def run_pass(base: Path, mode: str, commands: list[dict], deadline: float) -> dict:
    """One pass in a fresh worker; a worker that dies or is still running at
    ``deadline`` (a ``perf_counter`` time) fails all its commands.

    Each command record gains its calibration ``factor`` and its time at
    the reference speed, ``t``.
    """
    shutil.rmtree(base / "out")
    (base / "out").mkdir()
    job, result = base / "job.json", base / "result.json"
    job.write_text(json.dumps({"mode": mode, "commands": commands}), encoding="utf-8")
    result.unlink(missing_ok=True)
    t0 = perf_counter()
    timeout = max(1.0, deadline - t0)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(job), str(result)],
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        why = f"worker exited {proc.returncode}: {proc.stderr[-300:]}"
    except subprocess.TimeoutExpired:
        why = f"worker stopped after {timeout:.0f} s, the rest of the run's time budget"
    if result.exists():
        outcome = json.loads(result.read_text(encoding="utf-8"))
    else:
        wall = perf_counter() - t0
        outcome = {
            "wall_s": wall,
            "peak_rss_mb": None,
            "loops": [calibrate.REF_S] * (len(commands) + 1),
            "commands": [
                {
                    "id": c["id"],
                    "s": wall / len(commands),
                    "during": [],
                    "exit": None,
                    "exception": why,
                    "stdout": "",
                }
                for c in commands
            ],
        }
    during = [record["during"] for record in outcome["commands"]]
    for record, factor in zip(outcome["commands"], calibrate.factors(outcome["loops"], during)):
        record["factor"] = factor
        record["t"] = record["s"] * factor
    return outcome


def judge(by_id: dict[str, Input], commands: dict[str, dict], record: dict) -> str | None:
    """``None`` for a correct command, else ``exception``, ``exit`` or ``wrong``."""
    if record["exception"] is not None:
        return "exception"
    if record["exit"] != 0:
        return "exit"
    inp = by_id[record["id"]]
    if inp.command == "check":
        why = gate.check_check(record["stdout"])
    else:
        cmd = commands[record["id"]]
        try:
            why = gate.check_build(
                inp,
                Path(cmd["json"]).read_text(encoding="utf-8"),
                Path(cmd["dot"]).read_text(encoding="utf-8"),
            )
        except OSError as exc:
            why = f"output missing: {exc}"
    if why is not None:
        print(f"gate rejected {record['id']}: {why}", file=sys.stderr)
        return "wrong"
    return None


class Tally:
    """Outcome counts over every command of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.outcomes = {"exit": 0, "exception": 0, "wrong": 0}

    def add(self, outcome: str | None) -> None:
        self.attempted += 1
        if outcome is not None:
            self.outcomes[outcome] += 1

    @property
    def failed(self) -> int:
        return sum(self.outcomes.values())


def judged_pass(base, mode, commands, by_id, deadline, *tallies: Tally) -> dict:
    result = run_pass(base, mode, commands, deadline)
    by_cmd = {c["id"]: c for c in commands}
    for record in result["commands"]:
        outcome = judge(by_id, by_cmd, record)
        for tally in tallies:
            tally.add(outcome)
    return result


def scaling_exponent(ranks: list[int], seconds: list[float]) -> float:
    """Least-squares slope of log(seconds) against log(rank)."""
    xs = [math.log(r) for r in ranks]
    ys = [math.log(s) for s in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def end_to_end(passes: list[dict], inputs: list[Input], tally: Tally, setup: list[float]) -> dict:
    # Every pass lists the commands in input order.
    per_input = [
        statistics.median(c["t"] for c in runs) for runs in zip(*(p["commands"] for p in passes))
    ]
    rss = [p["peak_rss_mb"] for p in passes if p["peak_rss_mb"] is not None]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(
            len(p["commands"]) / sum(c["t"] for c in p["commands"]) for p in passes
        ),
        "cmd_ms_p50": 1000 * statistics.median(per_input),
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "ok_ratio": 1 - tally.failed / tally.attempted,
        "build_scaling_exp": scaling_exponent([inp.rank for inp in inputs], per_input),
    }


def layer_metrics(traced: dict) -> dict:
    """Per-layer numbers of one traced pass."""
    spans = traced["spans"]
    factor = {c["id"]: c["factor"] for c in traced["commands"]}
    child_time = [0.0] * len(spans)
    has_failed_child = [False] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
            has_failed_child[s["parent"]] |= s["error"] is not None
    out = {metric: 0.0 for metric in PER_LAYER}
    per_input: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        if s["name"] == "cmd":
            continue
        self_time = (s["end"] - s["start"] - child_time[i]) * factor[s["input"]]
        out[LAYER_TIMES[s["name"]]] += self_time
        if s["error"] is not None and not has_failed_child[i]:
            out[s["name"].split(".")[0] + ".errors"] += 1
        if s["error"] is None:
            slot = per_input.setdefault(s["input"], {})
            slot[s["name"]] = slot.get(s["name"], 0.0) + self_time
    out["ar_quiver.assemble_s"] = sum(
        t["ar_quiver.build"] - t.get("dynkin.classify", 0.0) - t.get("hammock.knit", 0.0)
        for t in per_input.values()
        if "ar_quiver.build" in t
    )
    counters = traced["counters"]
    for name in LAYER_COUNTERS:
        out[name] = float(counters.get(name, 0))
    if counters.get("hammock.table_entries"):
        out["hammock.useful_ratio"] = counters["hammock.vertices"] / counters["hammock.table_entries"]
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    inputs = workload_inputs(workload, seed)
    print(json.dumps({"workload": workload, "seed": seed, "inputs": [i.manifest() for i in inputs]}))
    deadline = perf_counter() + RUN_BUDGET_S
    base, commands = write_inputs(workload, inputs)
    by_id = {inp.id: inp for inp in inputs}
    tally = Tally()
    # A traced run makes only the unmeasured probe, which checks the import.
    setup = setup_times(0 if trace else SETUP_PROBES)
    if trace:
        cli_tally = Tally()
        untraced = judged_pass(base, "cli", commands, by_id, deadline, tally, cli_tally)
    passes = []
    t0 = perf_counter()
    while not passes or (perf_counter() - t0 < seconds and perf_counter() < deadline):
        passes.append(
            judged_pass(base, "traced" if trace else "cli", commands, by_id, deadline, tally)
        )
        loop_ms = 1000 * statistics.median(passes[-1]["loops"])
        print(
            f"pass {len(passes)}: {len(commands)} commands in {passes[-1]['wall_s']:.3f} s wall, "
            f"calibration loop {loop_ms:.3f} ms (reference {1000 * calibrate.REF_S:g} ms)",
            file=sys.stderr,
        )

    if not trace:
        return tally, end_to_end(passes, inputs, tally, setup)
    per_pass = [layer_metrics(p) for p in passes]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in PER_LAYER}
    times = [c["t"] for c in untraced["commands"]]
    metrics["cli.cmd_ms_p95"] = 1000 * percentile(times, 0.95)
    metrics["cli.fail_ratio"] = cli_tally.failed / cli_tally.attempted
    metrics["trace.overhead_ratio"] = statistics.median(
        sum(c["t"] for c in p["commands"]) for p in passes
    ) / sum(times)
    (base / "spans.json").write_text(json.dumps(passes[-1]["spans"]), encoding="utf-8")
    return tally, metrics


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arquiver" / "cli.py").is_file():
        print(f"perfbench: no arquiver sources at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    units = PER_LAYER if args.trace else END_TO_END
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    total, combined, correct = Tally(), {}, True
    try:
        for workload in workloads:
            tally, metrics = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print_table(f"{workload} (seed {args.seed}, failed {tally.failed}/{tally.attempted})", metrics, units)
            total.attempted += tally.attempted
            for key, count in tally.outcomes.items():
                total.outcomes[key] += count
            correct &= tally.outcomes["wrong"] == 0
            prefix = "" if len(workloads) == 1 else f"{workload}:"
            for name, value in metrics.items():
                combined[prefix + name] = {"value": value, "unit": units[name]}
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: importing arquiver.cli failed:\n{exc.stderr.decode()}", file=sys.stderr)
        return 2
    result = {"correct": correct, "attempted": total.attempted, "failed": total.failed}
    print(json.dumps({**result, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
