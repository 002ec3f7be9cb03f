"""Command-line surface: config parsing, data generation, runs, grids, and
chi-square reports.

Exit codes: 0 success, 1 usage error, 2 config/data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import descriptors as dsc
from . import engine, experiment, stats
from .genome import GeneticTopology, TopologyError, genome_size, load_topology
from .regress import search_space_size
from .scores import ObjectiveSpec
from .strategy import StrategySpec

__all__ = ["main", "RunManifest", "ConfigError"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    """Raised for malformed manifests or evolution config files."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# --- config files -------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int = 0
    low: float = 0.0
    high: float = 1.0
    planted_count: int = 0
    planted_slope: float = 1.0
    planted_intercept: float = 0.0
    planted_noise: float = 0.0
    planted_seed: int = 1

    def __post_init__(self):
        for key in ("low", "high", "planted_slope", "planted_intercept",
                    "planted_noise"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite")
        if not self.low < self.high or self.planted_noise < 0.0:
            raise ConfigError("need low < high and planted_noise >= 0")


# [synthetic] keys: the SyntheticSpec fields, each parsed by its default's type
_SYNTHETIC_TYPES = {f.name: type(f.default) for f in fields(SyntheticSpec)}


@dataclass(frozen=True)
class RunManifest:
    topology_path: Path
    activity_path: Path
    evolution_path: Path
    output_dir: Path
    seed: int
    descriptors_path: Path | None = None
    synthetic: SyntheticSpec | None = None


def _read_ini(path: Path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cp


def _check_keys(cp, section: str, known: set[str], path: Path) -> None:
    if not cp.has_section(section):
        return
    unknown = set(cp.options(section)) - known
    if unknown:
        raise ConfigError(
            f"{path}: unknown keys in [{section}]: {', '.join(sorted(unknown))}"
        )


def _get(cp, section, key, default=None):
    if cp.has_option(section, key):
        value = cp.get(section, key).strip()
        if value != "":
            return value
    return default


def load_manifest(path) -> RunManifest:
    path = Path(path)
    cp = _read_ini(path)
    _check_keys(
        cp, "paths",
        {"topology", "activity", "descriptors", "evolution", "output"}, path,
    )
    _check_keys(cp, "run", {"seed"}, path)
    _check_keys(cp, "synthetic", set(_SYNTHETIC_TYPES), path)
    if not cp.has_section("paths"):
        raise ConfigError(f"{path}: missing [paths] section")
    base = path.parent

    def need(key) -> Path:
        value = _get(cp, "paths", key)
        if value is None:
            raise ConfigError(f"{path}: missing paths.{key}")
        return (base / value).resolve()

    topology = need("topology")
    activity = need("activity")
    evolution = need("evolution")
    output = need("output")
    descriptors = _get(cp, "paths", "descriptors")
    descriptors = (base / descriptors).resolve() if descriptors else None

    for p, label in ((topology, "topology"), (activity, "activity"),
                     (evolution, "evolution")):
        if not p.exists():
            raise ConfigError(f"{path}: {label} file not found: {p}")
    if descriptors is not None and not descriptors.exists():
        raise ConfigError(f"{path}: descriptors file not found: {descriptors}")

    seed = _get(cp, "run", "seed")
    if seed is None:
        raise ConfigError(f"{path}: missing run.seed")
    try:
        seed = int(seed)
    except ValueError:
        raise ConfigError(f"{path}: run.seed must be an integer") from None

    synthetic = None
    if cp.has_section("synthetic"):
        try:
            synthetic = SyntheticSpec(**{
                key: kind(value) for key, kind in _SYNTHETIC_TYPES.items()
                if (value := _get(cp, "synthetic", key)) is not None
            })
        except ValueError as exc:
            raise ConfigError(f"{path}: bad [synthetic] value: {exc}") from None
    if descriptors is None and synthetic is None:
        raise ConfigError(
            f"{path}: need either paths.descriptors or a [synthetic] section"
        )
    return RunManifest(
        topology_path=topology,
        activity_path=activity,
        evolution_path=evolution,
        output_dir=output,
        seed=seed,
        descriptors_path=descriptors,
        synthetic=synthetic,
    )


_EVOLUTION_KEYS = {
    "sample_size", "multiplicity", "pairs", "parent_mutation",
    "child_mutation", "keep_best", "max_generations", "alpha",
    "target_objective", "intercept_mode", "mutation_mode", "q", "r",
    "selection_aggregate",
}
_STRATEGY_KEYS = {"method", "use_ranks", "normalize", "significant_digits"}


def _parse_strategy(cp, section: str, path: Path) -> StrategySpec:
    _check_keys(cp, section, _STRATEGY_KEYS, path)
    if not cp.has_section(section):
        raise ConfigError(f"{path}: missing [{section}] section")
    method = _get(cp, section, "method")
    if method is None:
        raise ConfigError(f"{path}: missing {section}.method")
    normalize = _get(cp, section, "normalize")
    bounds = None
    if normalize is not None:
        try:
            lo, hi = normalize.split(":")
            bounds = (float(lo), float(hi))
        except ValueError:
            raise ConfigError(
                f"{path}: {section}.normalize must look like '0:1'"
            ) from None
    digits = _get(cp, section, "significant_digits")
    try:
        return StrategySpec(
            method=method,
            use_ranks=cp.getboolean(section, "use_ranks", fallback=False),
            normalization=bounds,
            significant_digits=int(digits) if digits is not None else None,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: [{section}]: {exc}") from None


def load_evolution_config(path, seed: int) -> engine.EvolutionConfig:
    path = Path(path)
    cp = _read_ini(path)
    _check_keys(cp, "evolution", _EVOLUTION_KEYS, path)
    _check_keys(cp, "objective", {"kind", "s"}, path)
    _check_keys(cp, "viability", {"min_cv", "jb_alpha", "min_simple_r2"}, path)
    if not cp.has_section("evolution"):
        raise ConfigError(f"{path}: missing [evolution] section")

    def ev(key, default=None):
        return _get(cp, "evolution", key, default)

    try:
        objective = ObjectiveSpec(
            kind=_get(cp, "objective", "kind", "r2"),
            s=float(_get(cp, "objective", "s"))
            if _get(cp, "objective", "s") is not None
            else None,
        )
        target = ev("target_objective")
        viability = dsc.ViabilityPolicy(
            min_cv=_opt_float(cp, "viability", "min_cv"),
            jb_alpha=_opt_float(cp, "viability", "jb_alpha"),
            min_simple_r2=_opt_float(cp, "viability", "min_simple_r2"),
        )
        return engine.EvolutionConfig(
            p=int(ev("sample_size")),
            n=int(ev("multiplicity")),
            k=int(ev("pairs")),
            pp=float(ev("parent_mutation", "0.05")),
            cp=float(ev("child_mutation", "0.05")),
            keep_best=cp.getboolean("evolution", "keep_best", fallback=True),
            objective=objective,
            selection=_parse_strategy(cp, "selection", path),
            survival=_parse_strategy(cp, "survival", path),
            selection_aggregate=ev("selection_aggregate", "nalive"),
            q=float(ev("q", "1.0")),
            r=float(ev("r", "1.0")),
            alpha=float(ev("alpha", "0.05")),
            viability=viability,
            max_generations=int(ev("max_generations", "100")),
            target_objective=float(target) if target is not None else None,
            seed=seed,
            intercept_mode=ev("intercept_mode", "fallback"),
            mutation_mode=ev("mutation_mode", "genotype"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _opt_float(cp, section, key) -> float | None:
    value = _get(cp, section, key)
    return float(value) if value is not None else None


def _synthetic_provider(spec: SyntheticSpec, topology: GeneticTopology,
                        ds: dsc.Dataset) -> dsc.SyntheticProvider:
    planted = {}
    if spec.planted_count > 0:
        keys = dsc.pick_planted_genotypes(
            topology, spec.planted_count, spec.planted_seed
        )
        signal = dsc.PlantedSignal(
            slope=spec.planted_slope,
            intercept=spec.planted_intercept,
            noise_sd=spec.planted_noise,
        )
        planted = {key: signal for key in keys}
    return dsc.SyntheticProvider(
        topology, ds, spec.seed, spec.low, spec.high, planted
    )


def _build_provider(manifest: RunManifest, topology: GeneticTopology,
                    ds: dsc.Dataset):
    if manifest.descriptors_path is not None:
        return dsc.load_descriptor_table(manifest.descriptors_path, topology, ds)
    return _synthetic_provider(manifest.synthetic, topology, ds)


def _load_run_inputs(manifest: RunManifest):
    topology = load_topology(manifest.topology_path)
    ds = dsc.load_activity(manifest.activity_path)
    cfg = load_evolution_config(manifest.evolution_path, manifest.seed)
    return topology, ds, cfg


# --- commands -------------------------------------------------------------


def _cmd_space_size(args) -> int:
    if (args.N is None) == (args.topology is None):
        raise ConfigError("give exactly one of --N or --topology")
    if args.N is not None:
        n_genotypes = args.N
    else:
        n_genotypes = genome_size(load_topology(args.topology))
    if (args.n is None) == (args.n_max is None):
        raise ConfigError("give exactly one of --n or --n-max")
    if args.n is not None:
        print(search_space_size(n_genotypes, args.n, args.both_forms))
        return EXIT_OK
    rows = [
        (n, search_space_size(n_genotypes, n, args.both_forms))
        for n in range(1, args.n_max + 1)
    ]
    if args.csv:
        print("n,size")
        for n, size in rows:
            print(f"{n},{size}")
    else:
        print(f"N = {n_genotypes}")
        for n, size in rows:
            print(f"n = {n}: {size}")
    return EXIT_OK


def _cmd_run(args) -> int:
    manifest = load_manifest(args.manifest)
    topology, ds, cfg = _load_run_inputs(manifest)
    provider = _build_provider(manifest, topology, ds)
    result = engine.run(cfg, topology, provider, ds)
    out = manifest.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_log.tsv").write_text(result.log_text(), encoding="utf-8")
    (out / "summary.json").write_text(
        json.dumps(result.summary_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    best = result.best_objective
    print(f"generations: {result.generations}")
    print(f"best objective: {best:.6g}")
    print(f"best genotypes: {','.join(result.best_genotypes) or '-'}")
    print(f"outputs: {out / 'run_log.tsv'}, {out / 'summary.json'}")
    return EXIT_OK


def _cmd_grid(args) -> int:
    manifest = load_manifest(args.manifest)
    topology, ds, cfg = _load_run_inputs(manifest)
    provider = _build_provider(manifest, topology, ds)
    agg = experiment.run_grid(
        cfg, topology, provider, ds,
        runs_per_cell=args.runs_per_cell,
        master_seed=manifest.seed,
        threshold=args.threshold,
    )
    out = manifest.output_dir
    out.mkdir(parents=True, exist_ok=True)
    report = experiment.render_grid_report(agg, alpha=args.alpha)
    (out / "grid_report.txt").write_text(report, encoding="utf-8")
    for measure in experiment.MEASURES:
        try:
            table = agg.contingency(measure)
        except ValueError:
            continue
        stats.write_contingency_csv(table, out / f"grid_{measure}.csv")
    print(report, end="")
    print(f"outputs written to {out}")
    return EXIT_OK


def _cmd_stats_chi2(args) -> int:
    table = stats.load_contingency_csv(args.table)
    report = stats.chi2_homogeneity(table, alpha=args.alpha)
    print(stats.format_report(report), end="")
    return EXIT_OK


def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec(
        seed=args.table_seed,
        low=args.low,
        high=args.high,
        planted_count=args.planted_count,
        planted_slope=args.planted_slope,
        planted_intercept=args.planted_intercept,
        planted_noise=args.planted_noise,
        planted_seed=args.planted_seed,
    )
    rng = np.random.default_rng(args.seed)
    ids = tuple(f"mol{i + 1}" for i in range(args.molecules))
    activity = rng.normal(args.mean, args.sd, args.molecules)
    ds = dsc.Dataset(ids, activity)
    dsc.write_activity(ds, args.activity_out)
    print(f"wrote {args.activity_out} ({args.molecules} molecules)")
    if args.descriptors_out is None:
        return EXIT_OK
    if args.topology is None:
        raise ConfigError("--descriptors-out needs --topology")
    topology = load_topology(args.topology)
    size = genome_size(topology)
    if size > args.max_rows:
        raise ConfigError(
            f"topology spans {size} genotypes; refusing to materialize more "
            f"than {args.max_rows} rows (raise --max-rows to override)"
        )
    provider = _synthetic_provider(spec, topology, ds)
    for key in provider.planted:
        print(f"planted {key}")
    rows = {
        g.render(): provider.provide(g).values for g in topology.all_genotypes()
    }
    dsc.write_descriptor_table(args.descriptors_out, ds, rows)
    print(f"wrote {args.descriptors_out} ({size} genotypes)")
    return EXIT_OK


def _cmd_validate(args) -> int:
    manifest = load_manifest(args.manifest)
    topology, ds, cfg = _load_run_inputs(manifest)
    provider = _build_provider(manifest, topology, ds)
    print(f"manifest: {args.manifest}")
    print(f"topology: {manifest.topology_path} "
          f"({topology.gene_count} genes, {genome_size(topology)} genotypes)")
    print(f"activity: {manifest.activity_path} ({ds.size} molecules)")
    source = (
        f"table {manifest.descriptors_path} ({len(provider)} genotypes)"
        if manifest.descriptors_path is not None
        else "synthetic"
    )
    print(f"descriptors: {source}")
    print(f"seed: {manifest.seed}")
    print(f"config fingerprint: {cfg.fingerprint()}")
    for key, value in sorted(engine._config_dict(cfg).items()):
        print(f"  {key} = {value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="evoreg",
        description="Evolutionary search for best-subset linear regressions "
        "over descriptor families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space-size", help="size of the n-subset search space")
    p.add_argument("--N", type=int, help="number of genotypes")
    p.add_argument("--topology", help="topology file to take N from")
    p.add_argument("--n", type=int, help="subset size")
    p.add_argument("--n-max", type=int, help="print sizes for n = 1..n_max")
    p.add_argument("--both-forms", action="store_true",
                   help="double for searching both regression forms")
    p.add_argument("--csv", action="store_true", help="emit CSV")
    p.set_defaults(func=_cmd_space_size)

    p = sub.add_parser("run", help="one evolution run from a manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("grid", help="3x3 selection/survival strategy grid")
    p.add_argument("--manifest", required=True)
    p.add_argument("--runs-per-cell", type=int, default=46)
    p.add_argument("--threshold", type=int, default=23,
                   help="occurrence threshold for the top subtable")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("stats", help="statistical utilities")
    stats_sub = p.add_subparsers(dest="stats_command", required=True)
    p2 = stats_sub.add_parser("chi2", help="chi-square homogeneity of a "
                              "labeled contingency CSV")
    p2.add_argument("--table", required=True)
    p2.add_argument("--alpha", type=float, default=0.05)
    p2.set_defaults(func=_cmd_stats_chi2)

    p = sub.add_parser("gen-data", help="generate synthetic activity and "
                       "descriptor files")
    p.add_argument("--molecules", type=int, default=206)
    p.add_argument("--mean", type=float, default=6.4806)
    p.add_argument("--sd", type=float, default=0.83076)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--activity-out", required=True)
    p.add_argument("--descriptors-out")
    p.add_argument("--topology")
    p.add_argument("--table-seed", type=int, default=SyntheticSpec.seed)
    p.add_argument("--low", type=float, default=SyntheticSpec.low)
    p.add_argument("--high", type=float, default=SyntheticSpec.high)
    p.add_argument("--planted-count", type=int,
                   default=SyntheticSpec.planted_count)
    p.add_argument("--planted-slope", type=float,
                   default=SyntheticSpec.planted_slope)
    p.add_argument("--planted-intercept", type=float,
                   default=SyntheticSpec.planted_intercept)
    p.add_argument("--planted-noise", type=float,
                   default=SyntheticSpec.planted_noise)
    p.add_argument("--planted-seed", type=int,
                   default=SyntheticSpec.planted_seed)
    p.add_argument("--max-rows", type=int, default=100000)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("validate", help="parse all configs and print the "
                       "normalized forms")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, dsc.DescriptorDataError, TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # engine and other runtime failures
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
