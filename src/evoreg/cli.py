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
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import descriptors as dsc
from . import engine, experiment, stats
from .genome import GeneticTopology, genome_size, load_topology
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
        if self.planted_count < 0:
            raise ConfigError("planted_count must be nonnegative")


@dataclass(frozen=True)
class RunManifest:
    topology_path: Path
    activity_path: Path
    evolution_path: Path
    output_dir: Path
    seed: int
    descriptors_path: Path | None = None
    synthetic: SyntheticSpec | None = None


def _read_ini(path: Path, sections: tuple) -> configparser.ConfigParser:
    """The INI file at `path`, which may hold only the named sections. A
    value is read as written: `%` is a plain character (no interpolation)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    if not path.is_file():
        raise ConfigError(f"not a file: {path}" if path.exists()
                          else f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if unknown := set(cp.sections()) - set(sections):
        raise ConfigError(
            f"{path}: unknown sections: {', '.join(sorted(unknown))}")
    return cp


def load_manifest(path) -> RunManifest:
    """The manifest at `path`: its [paths] resolved against its directory
    (every input must exist), its [run] seed, and its [synthetic] spec."""
    path = Path(path)
    cp = _read_ini(path, ("paths", "run", "synthetic"))

    def located(text: str) -> Path:
        return (path.parent / text).resolve()

    def existing(text: str) -> Path:
        found = located(text)
        if not found.is_file():
            raise ValueError(f"not a file: {found}" if found.exists()
                             else f"file not found: {found}")
        return found

    def directory(text: str) -> Path:
        # the nearest path at or above it that exists must be a directory
        found = located(text)
        there = next(p for p in (found, *found.parents) if p.exists())
        if not there.is_dir():
            raise ValueError(f"not a directory: {there}")
        return found

    paths = _section_values(cp, path, "paths", RunManifest, {
        "topology": ("topology_path", existing),
        "activity": ("activity_path", existing),
        "evolution": ("evolution_path", existing),
        "descriptors": ("descriptors_path", existing),
        "output": ("output_dir", directory)})
    run = _section_values(cp, path, "run", RunManifest, {"seed": ("seed", int)})
    synthetic = (_load_section(cp, path, "synthetic", SyntheticSpec,
                               _SYNTHETIC)
                 if cp.has_section("synthetic") else None)
    if "descriptors_path" not in paths and synthetic is None:
        raise ConfigError(
            f"{path}: need either paths.descriptors or a [synthetic] section"
        )
    return RunManifest(**paths, **run, synthetic=synthetic)


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _bounds(text: str) -> tuple[float, float]:
    try:
        n0, n1 = map(float, text.split(":"))
    except ValueError:
        raise ValueError("must look like '0:1'") from None
    return n0, n1


def _same(**parsers):  # INI keys named as their fields
    return {key: (key, parse) for key, parse in parsers.items()}


# Each INI section's keys: key -> (dataclass field, parser of its text).
_EVOLUTION = {
    "sample_size": ("p", int), "multiplicity": ("n", int), "pairs": ("k", int),
    "parent_mutation": ("pp", float), "child_mutation": ("cp", float),
    **_same(keep_best=_boolean, max_generations=int, alpha=float,
            target_objective=float, intercept_mode=str, mutation_mode=str,
            q=float, r=float, selection_aggregate=str),
}
_OBJECTIVE = _same(kind=str, s=float)
_STRATEGY = {**_same(method=str, use_ranks=_boolean, significant_digits=int),
             "normalize": ("normalization", _bounds)}
_VIABILITY = _same(min_cv=float, jb_alpha=float, min_simple_r2=float)
_SYNTHETIC = _same(**{f.name: type(f.default) for f in fields(SyntheticSpec)})


def _section_values(cp, path: Path, section: str, cls, keys: dict) -> dict:
    """One INI section's values by `cls` field name. An absent or empty key
    keeps its field's dataclass default; a field without one is a required
    key."""
    unknown = cp.has_section(section) and set(cp.options(section)) - set(keys)
    if unknown:
        raise ConfigError(f"{path}: unknown keys in [{section}]: "
                          f"{', '.join(sorted(unknown))}")
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    values = {}
    for key, (name, parse) in keys.items():
        text = cp.get(section, key) if cp.has_option(section, key) else ""
        text = text.strip()
        if not text:
            if name in required:
                raise ConfigError(f"{path}: missing {section}.{key}")
            continue
        try:
            values[name] = parse(text)
        except ValueError as exc:
            raise ConfigError(
                f"{path}: bad [{section}] value: {key}: {exc}") from None
    return values


def _load_section(cp, path: Path, section: str, cls, keys: dict, **given):
    """Build `cls` from one INI section's values and the fields `given`."""
    values = _section_values(cp, path, section, cls, keys)
    try:
        return cls(**given, **values)
    except ValueError as exc:
        raise ConfigError(f"{path}: bad [{section}] value: {exc}") from None


def load_evolution_config(path, seed: int) -> engine.EvolutionConfig:
    path = Path(path)
    cp = _read_ini(path, ("evolution", "objective", "selection", "survival",
                          "viability"))
    return _load_section(
        cp, path, "evolution", engine.EvolutionConfig, _EVOLUTION,
        objective=_load_section(cp, path, "objective", ObjectiveSpec,
                                _OBJECTIVE),
        selection=_load_section(cp, path, "selection", StrategySpec, _STRATEGY),
        survival=_load_section(cp, path, "survival", StrategySpec, _STRATEGY),
        viability=_load_section(cp, path, "viability", dsc.ViabilityPolicy,
                                _VIABILITY),
        seed=seed,
    )


def _synthetic_provider(spec: SyntheticSpec, topology: GeneticTopology,
                        ds: dsc.Dataset) -> dsc.SyntheticProvider:
    signal = dsc.PlantedSignal(slope=spec.planted_slope,
                               intercept=spec.planted_intercept,
                               noise_sd=spec.planted_noise)
    keys = dsc.pick_planted_genotypes(topology, spec.planted_count,
                                      spec.planted_seed)
    return dsc.SyntheticProvider(topology, ds, spec.seed, spec.low, spec.high,
                                 dict.fromkeys(keys, signal))


def _load_run(path):
    """The manifest at `path` and what it names, loaded for `run`, `grid`
    and `validate`: (manifest, topology, dataset, config, provider)."""
    manifest = load_manifest(path)
    topology = load_topology(manifest.topology_path)
    ds = dsc.load_activity(manifest.activity_path)
    cfg = load_evolution_config(manifest.evolution_path, manifest.seed)
    if manifest.descriptors_path is not None:
        provider = dsc.load_descriptor_table(manifest.descriptors_path,
                                             topology, ds)
    else:
        provider = _synthetic_provider(manifest.synthetic, topology, ds)
    return manifest, topology, ds, cfg, provider


# --- commands -------------------------------------------------------------


def _cmd_space_size(args) -> int:
    if args.N is not None:
        n_genotypes = args.N
    else:
        n_genotypes = genome_size(load_topology(args.topology))
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
    manifest, topology, ds, cfg, provider = _load_run(args.manifest)
    result = engine.run(cfg, topology, provider, ds)
    log = result.log_text()
    summary = json.dumps(result.summary_dict(), indent=2, sort_keys=True,
                         allow_nan=False) + "\n"
    out = manifest.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_log.tsv").write_text(log, encoding="utf-8")
    (out / "summary.json").write_text(summary, encoding="utf-8")
    best = result.best_objective
    print(f"generations: {result.generations}")
    print(f"best objective: {best:.6g}")
    print(f"best genotypes: {','.join(result.best_genotypes) or '-'}")
    print(f"outputs: {out / 'run_log.tsv'}, {out / 'summary.json'}")
    return EXIT_OK


def _cmd_grid(args) -> int:
    manifest, topology, ds, cfg, provider = _load_run(args.manifest)
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
        csv_path = out / f"grid_{measure}.csv"
        try:
            table = agg.contingency(measure)
        except ValueError:
            # not testable: leave no earlier grid's counts to re-test
            csv_path.unlink(missing_ok=True)
            continue
        stats.write_contingency_csv(table, csv_path)
    print(report, end="")
    print(f"outputs written to {out}")
    if not any(cell.runs for cell in agg.cells.values()):
        raise RuntimeError("no run of any cell completed")
    return EXIT_OK


def _cmd_stats_chi2(args) -> int:
    table = stats.load_contingency_csv(args.table)
    try:
        report = stats.chi2_homogeneity(table, alpha=args.alpha)
    except ValueError as exc:
        raise ValueError(f"{args.table}: {exc}") from None
    print(stats.format_report(report), end="")
    return EXIT_OK


def _synthetic_flag(name: str) -> str:
    """gen-data's dest for a [synthetic] key: --seed seeds the activity."""
    return "table_seed" if name == "seed" else name


def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec(**{f.name: getattr(args, _synthetic_flag(f.name))
                            for f in fields(SyntheticSpec)})
    rng = np.random.default_rng(args.seed)
    ids = tuple(f"mol{i + 1}" for i in range(args.molecules))
    activity = rng.normal(args.mean, args.sd, args.molecules)
    ds = dsc.Dataset(ids, activity)
    provider = None
    if args.descriptors_out is not None:
        # every data error is raised before a file is written
        if args.topology is None:
            raise ConfigError("--descriptors-out needs --topology")
        topology = load_topology(args.topology)
        size = genome_size(topology)
        if size > args.max_rows:
            raise ConfigError(
                f"topology spans {size} genotypes; refusing to materialize "
                f"more than {args.max_rows} rows (raise --max-rows to "
                f"override)"
            )
        provider = _synthetic_provider(spec, topology, ds)
    dsc.write_activity(ds, args.activity_out)
    print(f"wrote {args.activity_out} ({args.molecules} molecules)")
    if provider is None:
        return EXIT_OK
    for key in provider.planted:
        print(f"planted {key}")
    rows = ((g.render(), provider.provide(g).values)
            for g in topology.all_genotypes())
    written = dsc.write_descriptor_table(args.descriptors_out, ds, rows)
    print(f"wrote {args.descriptors_out} ({written} genotypes)")
    return EXIT_OK


def _cmd_validate(args) -> int:
    manifest, topology, ds, cfg, provider = _load_run(args.manifest)
    # a table splits a row when it is provided: check every width and cell
    for key in provider.known_keys() or ():
        provider.provide(topology.parse(key))
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
    for key, value in sorted(asdict(cfg).items()):
        print(f"  {key} = {value}")
    return EXIT_OK


def _bounded(parse, inside, rule: str):
    """An argparse type: the value `parse` reads from the text, if `inside`
    holds for it; otherwise a usage error saying that the value must
    `rule`."""
    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not inside(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {text!r}")
        return value
    return check


_alpha = _bounded(float, lambda a: 0.0 < a < 1.0, "lie in (0, 1)")
_positive = _bounded(int, lambda n: n >= 1, "be a positive integer")
_nonnegative = _bounded(int, lambda n: n >= 0, "be a nonnegative integer")
# a Dataset needs three molecules
_molecules = _bounded(int, lambda n: n >= 3, "be an integer of at least 3")
_spread = _bounded(float, lambda x: 0.0 < x < math.inf,
                   "be positive and finite")


def _space_size_arguments(p) -> None:
    space = p.add_mutually_exclusive_group(required=True)
    space.add_argument("--N", type=_positive, help="number of genotypes")
    space.add_argument("--topology", help="topology file to take N from")
    subset = p.add_mutually_exclusive_group(required=True)
    subset.add_argument("--n", type=_nonnegative, help="subset size")
    subset.add_argument("--n-max", type=_positive,
                        help="print sizes for n = 1..n_max")
    p.add_argument("--both-forms", action="store_true",
                   help="double for searching both regression forms")
    p.add_argument("--csv", action="store_true", help="emit CSV")
    p.set_defaults(func=_cmd_space_size)


def _run_arguments(p) -> None:
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_run)


def _grid_arguments(p) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--runs-per-cell", type=_positive, default=46)
    p.add_argument("--threshold", type=_positive, default=23,
                   help="occurrence threshold for the top subtable")
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.set_defaults(func=_cmd_grid)


def _stats_arguments(p) -> None:
    stats_sub = p.add_subparsers(dest="stats_command", required=True)
    p2 = stats_sub.add_parser("chi2", help="chi-square homogeneity of a "
                              "labeled contingency CSV")
    p2.add_argument("--table", required=True)
    p2.add_argument("--alpha", type=_alpha, default=0.05)
    p2.set_defaults(func=_cmd_stats_chi2)


def _gen_data_arguments(p) -> None:
    p.add_argument("--molecules", type=_molecules, default=206)
    p.add_argument("--mean", type=float, default=6.4806)
    p.add_argument("--sd", type=_spread, default=0.83076)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--activity-out", required=True)
    p.add_argument("--descriptors-out")
    p.add_argument("--topology")
    for f in fields(SyntheticSpec):
        p.add_argument("--" + _synthetic_flag(f.name).replace("_", "-"),
                       type=type(f.default), default=f.default)
    p.add_argument("--max-rows", type=_positive, default=100000)
    p.set_defaults(func=_cmd_gen_data)


def _validate_arguments(p) -> None:
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_validate)


# subcommand -> (its line in the top-level help, what adds its arguments)
_COMMANDS = {
    "space-size": ("size of the n-subset search space", _space_size_arguments),
    "run": ("one evolution run from a manifest", _run_arguments),
    "grid": ("3x3 selection/survival strategy grid", _grid_arguments),
    "stats": ("statistical utilities", _stats_arguments),
    "gen-data": ("generate synthetic activity and descriptor files",
                 _gen_data_arguments),
    "validate": ("parse all configs and data files (every table cell) and "
                 "print the normalized forms", _validate_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. Given the name of a subcommand, it holds that one
    alone, which parses its command line as the full parser does; given
    anything else, it holds all of them."""
    parser = _Parser(
        prog="evoreg",
        description="Evolutionary search for best-subset linear regressions "
        "over descriptor families",
    )
    one = command in _COMMANDS
    # a usage error after the subcommand prints the top-level usage, which
    # lists every subcommand however many are registered; only the full
    # parser reports an unknown or missing one, naming the metavar if set
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if one else None)
    for name in [command] if one else _COMMANDS:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    # a command builds only its own parser: all six cost about 1 ms
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # engine and other runtime failures
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
