"""evoreg benchmark.

One run:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
builds the workload's inputs from the seed, starts one fresh workload
process (bench/worker.py) that repeats the workload's `evoreg` commands in
process for S seconds, and prints every metric by name with its unit. The
last stdout line is the JSON result. With --trace 0 it holds the end-to-end
metrics; with --trace 1 the per-layer metrics of a traced run, which also
times untraced commands alternately to report the tracing overhead.

All workloads, untraced and traced:
    python3 bench/run.py --all [--seed N] [--seconds S]

Run from the repository root or anywhere else; only files under the
repository's .bench_work/ are written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("grid-desk", "sweep-n3", "screened-wide")
WORKER_TIMEOUT_S = 165.0
# the workload process runs single-threaded, BLAS included
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# name -> unit; directions and bounds live in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "gen_ms_p50": "ms",
    "gen_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "best_r2": "r2",
}


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "blas_threads": THREAD_ENV,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(times: dict) -> dict:
    return {
        "setup_s": statistics.median(times["setup_s"]),
        "wall_s": statistics.median(times["wall_s"]),
        "cpu_s": statistics.median(times["cpu_s"]),
        "gen_ms_p50": percentile(times["gen_ms"], 50),
        "gen_ms_p90": percentile(times["gen_ms"], 90),
    }


def end_to_end(raw: dict) -> tuple[dict, dict]:
    """(metrics, notes) from the worker's measurements. Times are scaled to
    the nominal machine speed (bench/calibrate.py); the notes give them as
    measured, with their sample counts."""
    values = summarize(raw["scaled"])
    values["peak_rss_mb"] = raw["peak_rss_mb"]
    values["best_r2"] = statistics.median(raw["best_r2"])
    measured = summarize(raw["raw"])
    commands = len(raw["raw"]["wall_s"])
    counts = {
        "setup_s": f"median of {len(raw['raw']['setup_s'])} commands",
        "wall_s": f"median of {commands} commands",
        "cpu_s": f"median of {commands} commands",
        "gen_ms_p50": f"{len(raw['raw']['gen_ms'])} generations",
        "gen_ms_p90": f"{len(raw['raw']['gen_ms'])} generations",
    }
    notes = {name: f"{counts[name]}; as measured {measured[name]:.6g}"
             for name in counts}
    notes["peak_rss_mb"] = "workload process"
    notes["best_r2"] = f"median of {len(raw['best_r2'])} runs"
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return metrics, notes


def per_layer(raw: dict) -> dict:
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in raw["layers"].items()}
    traced = statistics.median(raw["traced_wall_s"])
    untraced = statistics.median(raw["scaled"]["wall_s"])
    metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced - untraced) / untraced, "unit": "%"}
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Build inputs, run the workload process, and return its result."""
    import calibrate
    import workloads

    facts = machine_facts()
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    stem = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}"
    try:
        spec = workloads.build(workload, seed, run_dir / "inputs")
        spec.update(seconds=seconds, trace=trace,
                    result_path=str(run_dir / "raw.json"),
                    spans_path=str(stem) + ".spans.json.gz")
        (run_dir / "spec.json").write_text(json.dumps(spec))
        env = dict(os.environ, **THREAD_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        log_path = run_dir / "worker.log"
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(ROOT / "bench" / "worker.py"),
                 str(run_dir / "spec.json")],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=run_dir,
            )
            try:
                proc.wait(timeout=WORKER_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        raw_path = run_dir / "raw.json"
        raw = json.loads(raw_path.read_text()) if raw_path.exists() else {
            "error": f"workload process exited {proc.returncode}"}
        if "error" in raw:
            tail = log_path.read_text(errors="replace")[-4000:]
            raw["error"] += "\n" + tail
        if "kernel_ms" in raw:
            facts["kernel_ms_median"] = statistics.median(raw["kernel_ms"])
            facts["kernel_nominal_ms"] = calibrate.NOMINAL_MS
        raw["facts"] = facts
        stem.with_suffix(".json").write_text(json.dumps(raw))
        return raw
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report(workload: str, seed: int, trace: bool, raw: dict) -> dict:
    """Print every metric by name with its unit; return the result line."""
    if trace:
        metrics = per_layer(raw)
        notes = {}
        header = (f"{raw['traced_generations']} traced generations, "
                  f"{len(raw['traced_wall_s'])} traced and "
                  f"{len(raw['raw']['wall_s'])} untraced commands, "
                  f"{raw['spans']} spans")
    else:
        metrics, notes = end_to_end(raw)
        header = f"{len(raw['raw']['wall_s'])} commands"
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  ({header}, "
          f"{raw['attempted']} runs attempted, {raw['failed']} failed)")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}{note}")
    for problem in raw["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print("  facts: " + json.dumps(raw["facts"], sort_keys=True))
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")
    if not (SRC / "evoreg" / "cli.py").is_file():
        print(f"error: no evoreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    runs = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.all
            else [(args.workload, bool(args.trace))])
    lines = []
    for workload, trace in runs:
        raw = run_workload(workload, args.seed, args.seconds, trace)
        if "error" in raw:
            print(f"error: {workload}: {raw['error']}", file=sys.stderr)
            return 1
        lines.append((workload, report(workload, args.seed, trace, raw)))
    if args.all:
        print("tracing overhead (traced minus untraced wall_s per command):")
        for workload, line in lines:
            m = line["metrics"]
            if "trace.overhead_s" in m:
                print(f"  {workload:14s} {m['trace.overhead_s']['value']:+.4f} s"
                      f" ({m['trace.overhead_pct']['value']:+.1f}%)")
        print(json.dumps({
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{w}/{name}": m for w, line in lines
                        for name, m in line["metrics"].items()},
        }))
    else:
        print(json.dumps(lines[0][1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
