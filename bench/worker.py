"""The workload process: runs one workload's commands through
`evoreg.cli.main` in process until the time is up, checks every command's
outputs, and writes the raw measurements as JSON.

Usage: python3 bench/worker.py SPEC.json   (run.py writes the spec and
starts this process with PYTHONPATH and the BLAS thread settings)
"""

from __future__ import annotations

import gzip
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from evoreg import cli

import calibrate
import checks
import tracing

# a run stops starting commands after this long, even below its minimum, so
# that one benchmark run always ends within three minutes
HARD_STOP_S = 120.0


def call_main(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1


class Worker:
    def __init__(self, spec: dict):
        self.spec = spec
        self.probe = tracing.Probe()
        self.tracer = tracing.Tracer() if spec["trace"] else None
        self.oracle = checks.Oracle(spec["topology"], spec["activity"],
                                    spec.get("table"))
        self.digests: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.speed = calibrate.Speedometer()
        # per-command (per-generation for gen_ms) times: as measured, and
        # scaled to the nominal machine speed
        self.raw = {k: [] for k in ("wall_s", "cpu_s", "setup_s", "gen_ms")}
        self.scaled = {k: [] for k in self.raw}
        self.best_r2: list[float] = []
        self.traced_wall_s: list[float] = []

    def run(self) -> dict:
        spec = self.spec
        invocations = spec["invocations"]
        # untraced runs cover the whole cycle (best_r2 is its median) and
        # enough commands for a setup_s median; traced runs need one pair
        minimum = 1 if self.tracer else max(
            len(invocations), spec.get("min_invocations", 0))
        self.probe.install()
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= spec["seconds"] and (i >= minimum
                                               or elapsed >= HARD_STOP_S):
                break
            inv = invocations[i % len(invocations)]
            self.command(inv, traced=False, first_cycle=i < len(invocations))
            if self.tracer is not None:
                self.command(inv, traced=True, first_cycle=False)
            i += 1
        self.probe.uninstall()
        return self.result()

    def command(self, inv: dict, traced: bool, first_cycle: bool) -> None:
        probe, tracer, speed = self.probe, self.tracer, self.speed
        probe.begin()
        argv = inv["argv"]
        speed.read()
        if traced:
            first_run = len(tracer.runs)
            tracer.install()
            try:
                t0 = time.perf_counter_ns()
                rc = tracer.command(call_main, argv)
                t1 = time.perf_counter_ns()
            finally:
                tracer.uninstall()
            speed.read()
            self.traced_wall_s.append(speed.wall_s(t0, t1)[1])
        else:
            probe.speed = speed
            c0 = time.process_time_ns()
            t0 = time.perf_counter_ns()
            rc = call_main(argv)
            t1 = time.perf_counter_ns()
            c1 = time.process_time_ns()
            probe.speed = None
            speed.read()
            self.record("wall_s", *speed.wall_s(t0, t1))
            self.record("cpu_s", *speed.cpu_s(t0, t1, c1 - c0))
            if probe.first_gen_ns is not None:
                self.record("setup_s", *speed.wall_s(t0, probe.first_gen_ns))
            for g0, g1 in probe.generations:
                raw = (g1 - g0) / 1e6
                self.record("gen_ms", raw, raw * speed.factor(g0, g1))
            if first_cycle:
                self.best_r2.extend(
                    r.best_model.r2 if r.best_model else 0.0
                    for r in probe.results
                )
        self.judge(inv, rc)
        if traced and rc == 0:
            tracing.reconcile(tracer.runs[first_run:], self.logged_valid(inv),
                              self.spec)

    def record(self, name: str, raw: float, scaled: float) -> None:
        self.scaled[name].append(scaled)
        self.raw[name].append(raw)

    def logged_valid(self, inv) -> list[list[int]]:
        """valid= fields of the run logs of the command just run."""
        if self.spec["kind"] == "run":
            text = (Path(inv["out"]) / "run_log.tsv").read_text()
            return [checks.parse_run_log(text)[2]]
        return [checks.parse_run_log(r.log_text())[2]
                for r in self.probe.results]

    def judge(self, inv: dict, rc: int) -> None:
        """Count the command's runs and the ones whose outputs fail a check."""
        spec = self.spec
        grid = spec["kind"] == "grid"
        runs = 9 * spec["runs_per_cell"] if grid else 1
        self.attempted += runs
        out = Path(inv["out"])
        if rc != 0:
            self.fail(runs, f"{' '.join(inv['argv'])}: exit code {rc}")
            return
        try:
            problems = checks.grid_problems(out, self.probe.grids[-1]) if grid \
                else checks.run_problems(out, spec, inv, self.oracle)
            digest = checks.digest(out)
            if self.digests.setdefault(inv["out"], digest) != digest:
                problems.append("outputs differ from the first identical command")
            failed = runs if problems else 0
            if grid and not problems:
                for cell in self.probe.grids[-1].cells.values():
                    if cell.error is not None:
                        failed += spec["runs_per_cell"] - cell.runs
                        problems.append(f"cell failed: {cell.error}")
                for result in self.probe.results:
                    found = checks.result_problems(result, spec, inv,
                                                   self.oracle)
                    failed += bool(found)
                    problems += found
        except Exception as exc:  # a crashing check is a failed check
            failed, problems = runs, [f"check raised {exc!r}"]
        if failed:
            self.fail(failed, f"{out.name}: {'; '.join(problems)}")

    def fail(self, runs: int, problem: str) -> None:
        self.failed += runs
        if len(self.problems) < 20:
            self.problems.append(problem)

    def result(self) -> dict:
        result = {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "scaled": self.scaled,
            "raw": self.raw,
            "kernel_ms": self.speed.ms,
            "best_r2": self.best_r2,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            * 1024 / 1e6,
        }
        if self.tracer is not None:
            t = self.tracer
            result["traced_wall_s"] = self.traced_wall_s
            result["layers"] = tracing.layer_metrics(t)
            result["traced_generations"] = sum(len(r["generations"])
                                               for r in t.runs)
            result["spans"] = len(t.spans)
            result["spans_dropped"] = t.spans_dropped
            with gzip.open(self.spec["spans_path"], "wt") as fh:
                json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                           "spans": t.spans,
                           "aggregates": {"fields": ["calls", "total_ns",
                                                     "self_ns"],
                                          **t.agg},
                           "counts": dict(t.counts)}, fh)
        return result


def main(argv) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    try:
        result = Worker(spec).run()
    except tracing.InstrumentError as exc:
        result = {"error": f"trace reconciliation failed: {exc}"}
    except Exception:
        result = {"error": traceback.format_exc()}
    Path(spec["result_path"]).write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
