"""Workload definitions: seeded input files and the commands a run repeats.

Every input (topologies, activity CSV, descriptor table, configs, manifests)
is written here from the benchmark seed, before any clock starts; the program
only ever sees the generated files. A workload is a list of command
invocations (a "cycle"); a run repeats the cycle until its time is up.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

from evoreg import cli

ACTIVITY_SD = 0.83076            # gen-data's default activity sd
PLANTED_COUNT = 32
# noise_frac 0.28 of tests/conftest.py::planted_provider, against the sd the
# activity is drawn with
PLANTED_NOISE = 0.28 * ACTIVITY_SD


def _topology_text(n_genes: int) -> str:
    return "".join(f"gene g{i} : a b\n" for i in range(n_genes))


def _evolution_text(p: int, n: int, k: int, generations: int,
                    viability: str = "") -> str:
    # the planted config of tests/conftest.py::planted_config
    return (
        "[evolution]\n"
        f"sample_size = {p}\nmultiplicity = {n}\npairs = {k}\n"
        "parent_mutation = 0.1\nchild_mutation = 0.1\nkeep_best = true\n"
        f"max_generations = {generations}\nalpha = 0.25\n"
        "selection_aggregate = max\n"
        "[objective]\nkind = r2\ns = 1\n"
        "[selection]\nmethod = tournament\n"
        "[survival]\nmethod = proportional\n" + viability
    )


def _synthetic(seed: int, planted_seed: int) -> dict:
    return {"seed": seed, "planted_count": PLANTED_COUNT,
            "planted_noise": PLANTED_NOISE, "planted_seed": planted_seed}


def _manifest_text(topology: str, activity: str, evolution: str, output: str,
                   run_seed: int, descriptors: str | None = None,
                   synthetic: dict | None = None) -> str:
    text = (
        "[paths]\n"
        f"topology = {topology}\nactivity = {activity}\n"
        f"evolution = {evolution}\noutput = {output}\n"
    )
    if descriptors is not None:
        text += f"descriptors = {descriptors}\n"
    text += f"[run]\nseed = {run_seed}\n"
    if synthetic is not None:
        text += "[synthetic]\n" + "".join(
            f"{key} = {value!r}\n" for key, value in synthetic.items()
        )
    return text


def _gen_data(*argv: str) -> None:
    """Run `evoreg gen-data` in process, keeping its chatter off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["gen-data", *argv])
    if rc != 0:
        raise RuntimeError(f"gen-data {' '.join(argv)} exited {rc}")


def _grid_desk(seed: int, d: Path) -> dict:
    rng = random.Random(f"grid-desk:{seed}")
    p, n, k, generations, runs_per_cell = 20, 2, 3, 20, 5
    (d / "topology.cgt").write_text(_topology_text(10))
    _gen_data("--seed", str(rng.randrange(2**31)),
              "--activity-out", str(d / "activity.csv"))
    (d / "evolution.cfg").write_text(_evolution_text(p, n, k, generations))
    synthetic = _synthetic(rng.randrange(2**31), rng.randrange(2**31))
    (d / "manifest.ini").write_text(_manifest_text(
        "topology.cgt", "activity.csv", "evolution.cfg", "out",
        rng.randrange(2**31), synthetic=synthetic,
    ))
    return {
        "kind": "grid", "p": p, "n": n, "k": k, "generations": generations,
        "runs_per_cell": runs_per_cell,
        "topology": str(d / "topology.cgt"),
        "activity": str(d / "activity.csv"),
        "invocations": [{
            "argv": ["grid", "--manifest", str(d / "manifest.ini"),
                     "--runs-per-cell", str(runs_per_cell),
                     "--threshold", "3"],
            "out": str(d / "out"),
            "synthetic": synthetic,
        }],
        # one grid command is short; repeat it so setup_s has a median
        "min_invocations": 3,
    }


def _sweep_n3(seed: int, d: Path) -> dict:
    rng = random.Random(f"sweep-n3:{seed}")
    p, n, k, generations, runs = 30, 3, 3, 20, 4
    (d / "topology.cgt").write_text(_topology_text(12))
    _gen_data("--seed", str(rng.randrange(2**31)),
              "--activity-out", str(d / "activity.csv"),
              "--descriptors-out", str(d / "descriptors.csv"),
              "--topology", str(d / "topology.cgt"),
              "--table-seed", str(rng.randrange(2**31)),
              # 1 in 16 rows planted, so every run meets planted rows early
              "--planted-count", "256",
              "--planted-noise", repr(PLANTED_NOISE),
              "--planted-seed", str(rng.randrange(2**31)))
    (d / "evolution.cfg").write_text(_evolution_text(p, n, k, generations))
    invocations = []
    # several run seeds, so the median command is not one seed's luck
    for i in range(runs):
        name = f"manifest{i}.ini"
        (d / name).write_text(_manifest_text(
            "topology.cgt", "activity.csv", "evolution.cfg", f"out{i}",
            rng.randrange(2**31), descriptors="descriptors.csv",
        ))
        invocations.append({"argv": ["run", "--manifest", str(d / name)],
                            "out": str(d / f"out{i}")})
    return {
        "kind": "run", "p": p, "n": n, "k": k, "generations": generations,
        "topology": str(d / "topology.cgt"),
        "activity": str(d / "activity.csv"),
        "table": str(d / "descriptors.csv"),
        "invocations": invocations,
    }


def _screened_wide(seed: int, d: Path) -> dict:
    rng = random.Random(f"screened-wide:{seed}")
    p, n, k, generations, runs = 24, 1, 12, 50, 64
    (d / "topology.cgt").write_text(_topology_text(24))
    _gen_data("--seed", str(rng.randrange(2**31)),
              "--activity-out", str(d / "activity.csv"))
    (d / "evolution.cfg").write_text(_evolution_text(
        p, n, k, generations,
        "[viability]\nmin_cv = 0.1\nmin_simple_r2 = 0.0005\n",
    ))
    invocations = []
    # many short runs, each with its own provider seed: the best single
    # descriptor of one run is an extreme value, so best_r2 needs a median
    # over many runs to be steady across benchmark seeds
    for i in range(runs):
        name = f"manifest{i}.ini"
        synthetic = _synthetic(rng.randrange(2**31), rng.randrange(2**31))
        (d / name).write_text(_manifest_text(
            "topology.cgt", "activity.csv", "evolution.cfg", f"out{i}",
            rng.randrange(2**31), synthetic=synthetic,
        ))
        invocations.append({"argv": ["run", "--manifest", str(d / name)],
                            "out": str(d / f"out{i}"),
                            "synthetic": synthetic})
    return {
        "kind": "run", "p": p, "n": n, "k": k, "generations": generations,
        "topology": str(d / "topology.cgt"),
        "activity": str(d / "activity.csv"),
        "invocations": invocations,
    }


BUILDERS = {
    "grid-desk": _grid_desk,
    "sweep-n3": _sweep_n3,
    "screened-wide": _screened_wide,
}


def build(name: str, seed: int, directory: Path) -> dict:
    """Write the inputs of workload `name` for `seed` into `directory` and
    return the run spec the worker executes."""
    directory.mkdir(parents=True, exist_ok=True)
    spec = BUILDERS[name](seed, directory)
    spec["workload"] = name
    spec["seed"] = seed
    return spec
