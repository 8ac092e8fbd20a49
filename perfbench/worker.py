"""One benchmark pass, run in a fresh interpreter.

    python3 perfbench/worker.py JOB.json RESULT.json

``JOB.json`` holds ``{"mode": "cli" | "traced", "commands": [...]}``; each
command has an ``id``, a ``command`` (``build`` or ``check``) and the paths
of its input ``file`` and of the ``json``/``dot`` outputs.  The ``cli`` mode
calls ``arquiver.cli.main`` exactly as ``arquiver build|check FILE`` would.
The ``traced`` mode calls the public function of each module in turn and
records a span around each call.  Either way the result holds, per command,
its exit code or uncaught exception, its wall time less the calibration
samples taken while it ran, those samples, and the calibration loop times
taken before the first command and after each one (see ``calibrate.py``),
plus the process's peak resident set size.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

from arquiver import (
    audit_paths,
    build,
    build_report,
    cluster_count,
    counts_and_nilpotency,
    coxeter_matrix,
    derived_nilpotency,
    hammock_vertices,
    knit_hammock,
    parse_quiver,
    reduced_walk,
    report_to_json,
    to_dot,
    verify_mesh,
)
from arquiver.cli import main as cli_main
from arquiver.dynkin import classify_quiver
from arquiver.oracle import run_all
from calibrate import Sampler, loop_seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cli_argv(cmd: dict) -> list[str]:
    if cmd["command"] == "build":
        return ["build", cmd["file"], "--json", cmd["json"], "--dot", cmd["dot"]]
    return ["check", cmd["file"]]


def run_cli_pass(commands: list[dict], main) -> dict:
    """Run every command through ``main``; nothing a command does stops the pass."""
    records = []
    loops = [loop_seconds()]
    start = perf_counter()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        code, exc = None, None
        with Sampler() as sampler:
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(cli_argv(cmd))
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else 2
            except Exception as error:  # counted as a failed command
                exc = f"{type(error).__name__}: {error}"
            elapsed = perf_counter() - t0
        records.append(
            {
                "id": cmd["id"],
                "s": elapsed - sum(sampler.samples),
                "during": sampler.samples,
                "exit": code,
                "exception": exc,
                "stdout": out.getvalue() if cmd["command"] == "check" else "",
                "stderr": err.getvalue()[-500:],
            }
        )
        loops.append(loop_seconds())
    return {
        "wall_s": perf_counter() - start,
        "commands": records,
        "loops": loops,
        "peak_rss_mb": peak_rss_mb(),
    }


class Tracer:
    """Spans and counters kept in memory until the pass ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, input_id: str):
        record = {
            "name": name,
            "input": input_id,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
            "error": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except Exception as error:
            record["error"] = type(error).__name__
            raise
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)


def traced_command(tr: Tracer, cmd: dict) -> dict:
    """Run one command layer by layer, each public call inside a span."""
    cid = cmd["id"]
    text = Path(cmd["file"]).read_text(encoding="utf-8")
    with tr.span("report.parse", cid):
        q = parse_quiver(text)
    with tr.span("quiver.walk_table", cid):
        reduced_walk(q, 1, 1)
        reduced_walk(q.opposite(), 1, 1)
    with tr.span("dynkin.classify", cid):
        classify_quiver(q)
    for k in q.vertices():
        with tr.span("hammock.knit", cid):
            res = knit_hammock(q, k)
        tr.add("hammock.table_entries", len(res.table))
        tr.add("hammock.vertices", len(hammock_vertices(res)))
        tr.maximum("hammock.max_terminator_level", res.terminator.level)
    with tr.span("ar_quiver.build", cid):
        arq = build(q)
    tr.add("ar_quiver.vertices", len(arq.vertices))
    tr.add("ar_quiver.arrows", len(arq.arrows))
    tr.add("ar_quiver.dim_entries", len(arq.vertices) * arq.n)
    with tr.span("coxeter.solve", cid):
        cd = coxeter_matrix(arq)
    tr.add("coxeter.order", cd.order)
    with tr.span("ar_quiver.counts", cid):
        counts_and_nilpotency(arq, cd.order)
    with tr.span("derived.stats", cid):
        derived_nilpotency(arq, cd.order)
        cluster_count(arq, cd.order)
    if cmd["command"] == "build":
        with tr.span("report.build_report", cid):
            report = build_report(arq, cd.order)
        with tr.span("report.json", cid):
            report_text = report_to_json(report)
        with tr.span("report.dot", cid):
            dot_text = to_dot(arq)
        tr.add("report.json_bytes", len(report_text.encode()))
        tr.add("report.dot_bytes", len(dot_text.encode()))
        Path(cmd["json"]).write_text(report_text, encoding="utf-8")
        Path(cmd["dot"]).write_text(dot_text, encoding="utf-8")
        return {"stdout": ""}
    with tr.span("oracle.mesh", cid):
        verify_mesh(arq)
    with tr.span("oracle.audit", cid):
        audit_paths(arq)
    with tr.span("oracle.run_all", cid):
        checks = run_all(arq, cd.order).checks
    tr.add("oracle.checks", len(checks))
    tr.add("oracle.checks_failed", sum(not c.passed for c in checks))
    # Memory of the audit alone, outside every span: tracemalloc slows it.
    tracemalloc.start()
    try:
        audit_paths(arq)
        tr.maximum("oracle.audit_peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()
    return {"stdout": "".join(c.line() + "\n" for c in checks)}


def run_traced_pass(commands: list[dict]) -> dict:
    tr = Tracer()
    records = []
    loops = [loop_seconds()]
    start = perf_counter()
    for cmd in commands:
        record = {"id": cmd["id"], "exit": 0, "exception": None, "stdout": "", "stderr": ""}
        t0 = perf_counter()
        try:
            with tr.span("cmd", cmd["id"]):
                record.update(traced_command(tr, cmd))
        except Exception as error:  # counted against the layer that raised it
            record["exit"] = None
            record["exception"] = f"{type(error).__name__}: {error}"
        # No sampler here: its ticks would land inside the spans.
        record["s"] = perf_counter() - t0
        record["during"] = []
        records.append(record)
        loops.append(loop_seconds())
    return {
        "wall_s": perf_counter() - start,
        "commands": records,
        "loops": loops,
        "peak_rss_mb": peak_rss_mb(),
        "spans": tr.spans,
        "counters": tr.counters,
    }


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    if job["mode"] == "cli":
        result = run_cli_pass(job["commands"], cli_main)
    else:
        result = run_traced_pass(job["commands"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
