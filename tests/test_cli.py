import json
import runpy
import sys
import tracemalloc
import warnings
from dataclasses import fields

import pytest

from evoreg import EvolutionConfig, StrategySpec, cli
from evoreg import descriptors as dsc
from evoreg import experiment
from evoreg.cli import ConfigError, SyntheticSpec, load_manifest, main
from evoreg.descriptors import load_activity

TOPOLOGY = "\n".join(
    f"gene g{i} : a b" for i in range(10)
) + "\n"

# alphabet sizes 2,2,4,8,6,5,4,3,2 -> 92160 genotypes
BIG_TOPOLOGY = "\n".join(
    f"gene g{i} : " + " ".join(f"s{i}x{j}" for j in range(size))
    for i, size in enumerate((2, 2, 4, 8, 6, 5, 4, 3, 2))
) + "\n"

EVOLUTION = """\
[evolution]
sample_size = 10
multiplicity = 2
pairs = 2
parent_mutation = 0.1
child_mutation = 0.1
keep_best = true
max_generations = {gens}
alpha = 0.25
selection_aggregate = max

[objective]
kind = r2
s = 1

[selection]
method = tournament

[survival]
method = proportional
"""


def write_world(tmp_path, gens=3, planted=8):
    (tmp_path / "topology.cgt").write_text(TOPOLOGY)
    (tmp_path / "evolution.cfg").write_text(EVOLUTION.format(gens=gens))
    code = main([
        "gen-data", "--molecules", "60", "--seed", "3",
        "--activity-out", str(tmp_path / "activity.csv"),
    ])
    assert code == 0
    (tmp_path / "manifest.cfg").write_text(
        "[paths]\n"
        "topology = topology.cgt\n"
        "activity = activity.csv\n"
        "evolution = evolution.cfg\n"
        "output = out\n"
        "[run]\n"
        "seed = 11\n"
        "[synthetic]\n"
        "seed = 5\n"
        f"planted_count = {planted}\n"
        "planted_noise = 0.25\n"
        "planted_seed = 2\n"
    )
    return tmp_path / "manifest.cfg"


def test_space_size_single(capsys):
    assert main(["space-size", "--N", "5", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_space_size_n_zero(capsys):
    assert main(["space-size", "--N", "5", "--n", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_space_size_from_topology(tmp_path, capsys):
    path = tmp_path / "big.cgt"
    path.write_text(BIG_TOPOLOGY)
    assert main(["space-size", "--topology", str(path), "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "92160"


def test_space_size_table_csv(capsys):
    assert main(["space-size", "--N", "100", "--n-max", "3", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,size"
    assert lines[1] == "1,100"
    assert lines[2] == "2,4950"
    assert lines[3] == "3,161700"


def test_space_size_both_forms(capsys):
    assert main(["space-size", "--N", "5", "--n", "2", "--both-forms"]) == 0
    assert capsys.readouterr().out.strip() == "20"


def test_space_size_usage_errors(capsys):
    """Neither or both of --N and --topology, neither or both of --n and
    --n-max, and a negative --n are usage errors; a subset larger than the
    space is a data error."""
    for argv in (["--n", "2"], ["--N", "5", "--topology", "t.cgt", "--n", "1"],
                 ["--N", "5"], ["--N", "5", "--n", "1", "--n-max", "2"]):
        with pytest.raises(SystemExit) as err:
            main(["space-size", *argv])
        assert err.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["space-size", "--N", "5", "--n", "-1"])
    assert err.value.code == 1
    assert ("--n: must be a nonnegative integer, got '-1'"
            in capsys.readouterr().err)
    assert main(["space-size", "--N", "5", "--n", "9"]) == 2  # n > N
    assert capsys.readouterr().out == ""


def test_module_runs_as_the_command(monkeypatch, capsys):
    """`python -m evoreg.cli` runs `main` on its arguments and exits with
    its code."""
    monkeypatch.delitem(sys.modules, "evoreg.cli")  # runpy runs it afresh
    monkeypatch.setattr(sys, "argv",
                        ["evoreg", "space-size", "--N", "5", "--n", "2"])
    with pytest.raises(SystemExit) as err:
        runpy.run_module("evoreg.cli", run_name="__main__")
    assert err.value.code == 0
    assert capsys.readouterr().out == "10\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["space-size", "--N", "not-a-number", "--n", "1"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 1


# per subcommand, a command line that parses, with options of each kind
PARSED = [
    ["space-size", "--N", "5", "--n-max", "3", "--both-forms", "--csv"],
    ["run", "--manifest", "m.cfg"],
    ["grid", "--manifest", "m.cfg", "--runs-per-cell", "2", "--threshold",
     "4", "--alpha", "0.1"],
    ["stats", "chi2", "--table", "t.csv", "--alpha", "0.01"],
    ["gen-data", "--activity-out", "a.csv", "--molecules", "9", "--sd",
     "0.5", "--table-seed", "3", "--planted-count", "2", "--max-rows", "10"],
    ["validate", "--manifest", "m.cfg"],
]


def test_a_command_parser_parses_as_the_full_one():
    """`build_parser(cmd)` holds subcommand `cmd` alone and gives its
    command lines the namespace the full parser gives them."""
    assert [argv[0] for argv in PARSED] == list(cli._COMMANDS)
    for argv in PARSED:
        assert (vars(cli.build_parser(argv[0]).parse_args(argv))
                == vars(cli.build_parser().parse_args(argv)))
    with pytest.raises(SystemExit):
        cli.build_parser("run").parse_args(PARSED[2])


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["no-such-command"], ["--manifest", "m.cfg"],
    *([name, "--help"] for name in cli._COMMANDS), ["stats", "chi2", "-h"],
    *([name] for name in cli._COMMANDS), ["stats", "chi3"],
    ["run", "--manifest", "m.cfg", "--extra"], ["grid", "--manifest", "m.cfg",
                                                "--alpha", "1"],
    ["stats", "chi2", "--table", "t.csv", "extra"],
])
def test_main_prints_what_the_full_parser_prints(argv, capsys):
    """Help, usage errors and their exit codes are the full parser's, with
    no arguments, an unknown command and a usage error that the top-level
    parser reports after a command's own arguments."""
    with pytest.raises(SystemExit) as err:
        cli.build_parser().parse_args(argv)
    expected = err.value.code, capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert (err.value.code, capsys.readouterr()) == expected


def test_gen_data_defaults_recover_distribution(tmp_path, capsys):
    out = tmp_path / "activity.csv"
    assert main(["gen-data", "--seed", "1", "--activity-out", str(out)]) == 0
    ds = load_activity(out)
    assert ds.size == 206
    mean, sd = ds.activity.mean(), ds.activity.std()
    assert abs(mean - 6.4806) < 0.2
    assert abs(sd - 0.83076) < 0.2


def test_gen_data_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["gen-data", "--molecules", "50", "--seed", "9",
          "--activity-out", str(a)])
    main(["gen-data", "--molecules", "50", "--seed", "9",
          "--activity-out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_descriptor_table(tmp_path, capsys):
    topo_path = tmp_path / "small.cgt"
    topo_path.write_text("gene g0 : a b\ngene g1 : c d\ngene g2 : e f\n")
    act = tmp_path / "activity.csv"
    table = tmp_path / "table.csv"
    code = main([
        "gen-data", "--molecules", "30", "--seed", "2",
        "--activity-out", str(act),
        "--descriptors-out", str(table), "--topology", str(topo_path),
        "--planted-count", "2", "--planted-noise", "0.1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("planted ") == 2
    lines = table.read_text().splitlines()
    assert len(lines) == 1 + 8  # header + full genotype space
    assert lines[0].startswith("genotype,mol1,")


def test_gen_data_streams_its_table(tmp_path, monkeypatch, capsys):
    """gen-data writes each row as it is drawn: its peak memory stays below
    the table's float payload (2048 x 206 values). The synthetic
    provider's own cache is shrunk, so what is measured is the table."""
    monkeypatch.setattr(dsc, "CACHE_PHENOTYPES", 64)
    topo_path = tmp_path / "binary.cgt"
    topo_path.write_text("".join(f"gene g{i} : a b\n" for i in range(11)))
    table = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        code = main(["gen-data", "--seed", "2",
                     "--activity-out", str(tmp_path / "activity.csv"),
                     "--descriptors-out", str(table),
                     "--topology", str(topo_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert f"wrote {table} (2048 genotypes)" in capsys.readouterr().out
    assert peak < 2048 * 206 * 8


def test_ambiguous_alleles_exit_2(tmp_path, capsys):
    """In `gene g0 : a ab` / `gene g1 : bc c`, genotypes (0, 0) and (1, 1)
    would share the key `abc`: validate and gen-data refuse the topology,
    naming the gene, and gen-data writes no file."""
    manifest = write_world(tmp_path)
    topo_path = tmp_path / "topology.cgt"
    topo_path.write_text("gene g0 : a ab\ngene g1 : bc c\n")
    assert main(["validate", "--manifest", str(manifest)]) == 2
    assert "'a' is a prefix of 'ab' in gene 'g0'" in capsys.readouterr().err
    table = tmp_path / "table.csv"
    assert main(["gen-data", "--activity-out", str(tmp_path / "a.csv"),
                 "--descriptors-out", str(table),
                 "--topology", str(topo_path)]) == 2
    assert "'g0'" in capsys.readouterr().err
    assert not table.exists()
    assert not (tmp_path / "a.csv").exists()


def test_gen_data_descriptor_table_needs_a_topology(tmp_path, capsys):
    activity, table = tmp_path / "activity.csv", tmp_path / "table.csv"
    assert main(["gen-data", "--activity-out", str(activity),
                 "--descriptors-out", str(table)]) == 2
    assert capsys.readouterr().err == \
        "error: --descriptors-out needs --topology\n"
    assert not activity.exists() and not table.exists()


def test_gen_data_refuses_huge_table(tmp_path, capsys):
    """Over --max-rows, gen-data exits 2 and writes neither file."""
    topo_path = tmp_path / "big.cgt"
    topo_path.write_text(BIG_TOPOLOGY)
    code = main([
        "gen-data", "--molecules", "30", "--seed", "2",
        "--activity-out", str(tmp_path / "a.csv"),
        "--descriptors-out", str(tmp_path / "t.csv"),
        "--topology", str(topo_path), "--max-rows", "1000",
    ])
    assert code == 2
    assert not (tmp_path / "a.csv").exists()
    assert not (tmp_path / "t.csv").exists()


def test_gen_data_refuses_more_planted_than_the_space(tmp_path, capsys):
    """Planting more genotypes than a 2-gene topology holds is a data
    error: gen-data exits 2 and writes neither file."""
    topo_path = tmp_path / "small.cgt"
    topo_path.write_text("gene g0 : a b\ngene g1 : c d\n")
    assert main(["gen-data", "--activity-out", str(tmp_path / "a.csv"),
                 "--descriptors-out", str(tmp_path / "t.csv"),
                 "--topology", str(topo_path), "--planted-count", "9"]) == 2
    assert "cannot plant more genotypes than the space holds" in \
        capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()
    assert not (tmp_path / "t.csv").exists()


def test_run_command(tmp_path, capsys):
    manifest = write_world(tmp_path, gens=3)
    assert main(["run", "--manifest", str(manifest)]) == 0
    out_dir = tmp_path / "out"
    log = (out_dir / "run_log.tsv").read_text()
    assert log.startswith("# config=")
    assert len(log.splitlines()) == 1 + 3
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["generations"] == 3
    assert summary["seed"] == 11


def _exact_fit_world(tmp_path, aggregate):
    """`write_world` with the mt objective, noiseless planted genotypes and
    `selection_aggregate` set to `aggregate`: a planted pair fits exactly,
    and an exact fit scores inf."""
    manifest = write_world(tmp_path)
    evo = tmp_path / "evolution.cfg"
    evo.write_text(evo.read_text().replace("kind = r2", "kind = mt").replace(
        "selection_aggregate = max", f"selection_aggregate = {aggregate}"))
    manifest.write_text(manifest.read_text().replace(
        "planted_noise = 0.25", "planted_noise = 0"))
    return manifest


def _no_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_run_with_an_infinite_best_objective(tmp_path, capsys):
    """An exact mt fit is the best model and scores inf: the run writes
    both outputs, the summary as strict JSON with `best_objective` null
    (its `best_r2` and `best_genotypes` tell it from a run with no model),
    and the log's best column reads inf."""
    manifest = _exact_fit_world(tmp_path, "nalive")
    assert main(["run", "--manifest", str(manifest)]) == 0
    out_dir = tmp_path / "out"
    summary = json.loads((out_dir / "summary.json").read_text(),
                         parse_constant=_no_constant)
    assert summary["best_objective"] is None
    assert summary["best_r2"] > 0.999 and summary["best_genotypes"]
    log = (out_dir / "run_log.tsv").read_text().splitlines()
    assert log[-1].split("\t")[2] == "inf"
    assert "best objective: inf" in capsys.readouterr().out


@pytest.mark.parametrize("aggregate", ["min", "max", "avg"])
def test_run_selects_on_an_infinite_objective(tmp_path, aggregate):
    """The same exact-fit world under a selection aggregate that scores a
    slot by its models' objectives hands inf to `transform_scores`, which
    clips it to the largest finite score, so the run completes."""
    manifest = _exact_fit_world(tmp_path, aggregate)
    assert main(["run", "--manifest", str(manifest)]) == 0


def test_constant_activity_is_a_data_error(tmp_path, capsys):
    """An activity file whose values are all equal, on which every fit is
    exact, stops validate and run at load (exit 2) with an error naming
    the file and the rule, and run writes nothing."""
    manifest = write_world(tmp_path)
    activity = tmp_path / "activity.csv"
    activity.write_text("molecule,activity\n" + "".join(
        f"mol{i + 1},6.0\n" for i in range(60)))
    for command in ("validate", "run"):
        assert main([command, "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert f"{activity}: activity values are all equal" in err
    assert not (tmp_path / "out").exists()


def test_run_missing_activity_names_path(tmp_path, capsys):
    manifest = write_world(tmp_path)
    (tmp_path / "activity.csv").unlink()
    assert main(["run", "--manifest", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert "activity" in err


@pytest.mark.parametrize("edit, message", [
    (lambda t: t[t.index("[run]"):], "missing paths.topology"),
    (lambda t: t.replace("evolution = evolution.cfg\n", ""),
     "missing paths.evolution"),
    (lambda t: t.replace("output = out\n", "output =\n"),
     "missing paths.output"),
    (lambda t: t.replace("activity.csv", "absent.csv"),
     "bad [paths] value: activity: file not found: "),
    (lambda t: t.replace("seed = 11\n", ""), "missing run.seed"),
    (lambda t: t.replace("seed = 11\n", "seed = 1.5\n"),
     "bad [run] value: seed: "),
    (lambda t: t.replace("output = out\n", "output = out\ncolour = red\n"),
     "unknown keys in [paths]: colour"),
    (lambda t: t[:t.index("[synthetic]")],
     "need either paths.descriptors or a [synthetic] section"),
    (lambda t: t.replace("[synthetic]", "[synthetc]"),
     "unknown sections: synthetc"),
])
def test_manifest_errors_name_section_and_key(tmp_path, capsys, edit,
                                              message):
    """Each manifest fault exits 2 with an error naming its section and
    key, and writes nothing."""
    manifest = write_world(tmp_path)
    text = manifest.read_text()
    assert edit(text) != text
    manifest.write_text(edit(text))
    for command in ("validate", "run"):
        assert main([command, "--manifest", str(manifest)]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("output", ["out", "out/run"])
def test_manifest_output_under_a_file_is_refused_at_load(tmp_path, capsys,
                                                        output):
    """An output path that is, or lies under, an existing file exits 2 when
    the manifest loads, naming the file, before a data file is read: the
    unreadable activity file here is never reached."""
    manifest = write_world(tmp_path)
    manifest.write_text(manifest.read_text().replace(
        "output = out\n", f"output = {output}\n"))
    (tmp_path / "out").write_text("not a directory\n")
    (tmp_path / "activity.csv").write_text("no,such,header\n")
    for argv in (["validate"], ["run"], ["grid", "--runs-per-cell", "1"]):
        assert main([*argv, "--manifest", str(manifest)]) == 2
        assert ("bad [paths] value: output: not a directory: "
                f"{(tmp_path / 'out').resolve()}\n"
                in capsys.readouterr().err)
    assert (tmp_path / "out").read_text() == "not a directory\n"


def test_run_deterministic_outputs(tmp_path, capsys):
    manifest = write_world(tmp_path, gens=4)
    main(["run", "--manifest", str(manifest)])
    first_log = (tmp_path / "out" / "run_log.tsv").read_bytes()
    first_summary = (tmp_path / "out" / "summary.json").read_bytes()
    main(["run", "--manifest", str(manifest)])
    assert (tmp_path / "out" / "run_log.tsv").read_bytes() == first_log
    assert (tmp_path / "out" / "summary.json").read_bytes() == first_summary


def write_table_world(tmp_path):
    """A world whose descriptors come from a 64-row table (6 binary genes):
    its manifest (outputs in `out2`) and the table's path."""
    act = tmp_path / "activity.csv"
    table = tmp_path / "table.csv"
    # small table: enumerate a sub-space via a 6-gene topology
    small = tmp_path / "small.cgt"
    small.write_text("\n".join(f"gene g{i} : a b" for i in range(6)) + "\n")
    assert main(["gen-data", "--molecules", "40", "--seed", "4",
                 "--activity-out", str(act),
                 "--descriptors-out", str(table), "--topology", str(small),
                 "--planted-count", "4", "--planted-noise", "0.3"]) == 0
    (tmp_path / "evolution.cfg").write_text(EVOLUTION.format(gens=2))
    manifest = tmp_path / "manifest.cfg"
    manifest.write_text(
        "[paths]\n"
        f"topology = {small.name}\n"
        "activity = activity.csv\n"
        "descriptors = table.csv\n"
        "evolution = evolution.cfg\n"
        "output = out2\n"
        "[run]\nseed = 3\n"
    )
    return manifest, table


def test_run_with_table_provider(tmp_path, capsys):
    manifest, _ = write_table_world(tmp_path)
    assert main(["run", "--manifest", str(manifest)]) == 0
    assert (tmp_path / "out2" / "summary.json").exists()


def _provided_keys(monkeypatch, argv) -> list[str]:
    """The table rows `main(argv)` provides, in the order first provided;
    the command must succeed."""
    seen: dict[str, None] = {}
    provide = dsc.TableProvider.provide

    def spy(self, genotype):
        seen.setdefault(genotype.render())
        return provide(self, genotype)

    with monkeypatch.context() as m:
        m.setattr(dsc.TableProvider, "provide", spy)
        assert main(argv) == 0
    return list(seen)


def _spoil_row(table, clean: bytes, key: str) -> None:
    """Rewrite `table` from `clean` with row `key`'s first value unparsable."""
    lines = clean.decode().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(key + ","))
    cells = lines[i].split(",")
    cells[1] = "oops"
    lines[i] = ",".join(cells)
    table.write_text("".join(lines), newline="")


def test_table_rows_are_checked_when_provided(tmp_path, monkeypatch, capsys):
    """A non-numeric cell fails `validate`, which provides every row. `run`
    and `grid` exit 2 when they first provide its row, and a run that never
    provides it succeeds with the outputs of a clean table."""
    manifest, table = write_table_world(tmp_path)
    run = ["run", "--manifest", str(manifest)]
    grid = ["grid", "--manifest", str(manifest), "--runs-per-cell", "1"]
    ran = _provided_keys(monkeypatch, run)
    log = (tmp_path / "out2" / "run_log.tsv").read_bytes()
    in_grid = _provided_keys(monkeypatch, grid)
    clean = table.read_bytes()
    keys = [line.split(",")[0] for line in clean.decode().splitlines()[1:]]
    unread = next(k for k in keys if k not in ran)

    _spoil_row(table, clean, unread)
    capsys.readouterr()
    assert main(["validate", "--manifest", str(manifest)]) == 2
    assert f"non-numeric value in row {unread!r}" in capsys.readouterr().err
    assert main(run) == 0
    assert (tmp_path / "out2" / "run_log.tsv").read_bytes() == log
    for argv, key in ((run, ran[-1]), (grid, in_grid[-1])):
        _spoil_row(table, clean, key)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            f"error: {table}: non-numeric value in row {key!r}\n"


def _shorten_rows(table, clean: bytes, keys) -> None:
    """Rewrite `table` from `clean` with the last cell of each row in
    `keys` dropped."""
    lines = clean.decode().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.split(",", 1)[0] in keys:
            lines[i] = line.rstrip("\r\n").rpartition(",")[0] + "\n"
    table.write_text("".join(lines), newline="")


def test_table_row_widths_are_checked_when_provided(tmp_path, capsys):
    """A row with a cell missing loads, and fails where its cells are
    split: `validate`, which provides every row, exits 2 naming it, and a
    run on a table whose rows are all short exits 2 and writes no file."""
    manifest, table = write_table_world(tmp_path)
    clean = table.read_bytes()
    keys = [line.split(",")[0] for line in clean.decode().splitlines()[1:]]
    _shorten_rows(table, clean, {keys[1]})
    capsys.readouterr()
    assert main(["validate", "--manifest", str(manifest)]) == 2
    assert capsys.readouterr().err == \
        f"error: {table}: row {keys[1]!r} has wrong width\n"

    _shorten_rows(table, clean, set(keys))
    assert main(["run", "--manifest", str(manifest)]) == 2
    assert "has wrong width\n" in capsys.readouterr().err
    assert not (tmp_path / "out2").exists()


def test_grid_command_and_chi2_round_trip(tmp_path, capsys):
    manifest = write_world(tmp_path, gens=8)
    assert main([
        "grid", "--manifest", str(manifest),
        "--runs-per-cell", "1", "--threshold", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert out.count(":") >= 9  # nine cells reported
    report_text = (tmp_path / "out" / "grid_report.txt").read_text()
    assert "P:P" in report_text and "D:D" in report_text

    csv_path = tmp_path / "out" / "grid_num.csv"
    assert csv_path.exists()
    # totals equal the sum of per-cell counts
    rows = csv_path.read_text().strip().splitlines()[1:]
    total = sum(int(v) for row in rows for v in row.split(",")[1:])
    import re
    nums = [int(v) for v in re.findall(
        r"^[PTD]:[PTD]\s+\d+\s+(\d+)", report_text, re.M
    )]
    assert total == sum(nums)

    assert main(["stats", "chi2", "--table", str(csv_path)]) == 0
    chi_out = capsys.readouterr().out
    assert "X^2(.,.)" in chi_out
    for line in report_text.splitlines():
        if line.startswith("X^2(.,.)"):
            assert line in chi_out
            break


def test_grid_removes_the_csv_of_an_untestable_measure(tmp_path, capsys):
    """A measure that is not testable gets no contingency CSV, and a grid
    removes the one an earlier grid wrote into the same directory, so
    `stats chi2` cannot re-test stale counts."""
    manifest = write_world(tmp_path, gens=8)
    out = tmp_path / "out"
    grid = ["grid", "--manifest", str(manifest), "--runs-per-cell"]
    assert main(grid + ["2", "--threshold", "2"]) == 0
    assert sorted(p.name for p in out.glob("grid_top_*.csv")) == [
        "grid_top_num.csv", "grid_top_occ.csv", "grid_top_par.csv"]
    assert main(grid + ["1", "--threshold", "500"]) == 0
    capsys.readouterr()
    assert (out / "grid_report.txt").read_text().count("not testable") == 3
    assert sorted(p.name for p in out.glob("grid_*.csv")) == [
        "grid_num.csv", "grid_occ.csv", "grid_par.csv"]


def test_stats_chi2_reference_table(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    csv_path.write_text(
        ",P,T,D\n"
        "P,6760,7466,8070\n"
        "T,6537,7529,7964\n"
        "D,3922,4965,4385\n"
    )
    assert main(["stats", "chi2", "--table", str(csv_path)]) == 0
    out = capsys.readouterr().out
    total_line = [l for l in out.splitlines() if l.startswith("X^2(.,.)")][0]
    value = float(total_line.split("=")[1].split()[0])
    assert value == pytest.approx(69.9, abs=0.2)
    assert total_line.rstrip().endswith("No")


def test_stats_chi2_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(",P,T\nP,1\n")
    assert main(["stats", "chi2", "--table", str(bad)]) == 2


@pytest.mark.parametrize("rows,message", [
    ("r1,0,0\nr2,3,4\n", "every row and column margin must be positive"),
    ("r1,1,2\nr2,3,1e308\nr3,1e308,5\n",
     "margins and expected counts must be finite"),
    ("r1,1e-200,1e-200\nr2,1e-200,1e-200\n",
     "every expected count (row margin x column margin / total) must be "
     "positive"),
])
def test_stats_chi2_untestable_table_names_the_file(tmp_path, capsys, rows,
                                                    message):
    """A table the test cannot use exits 2 with an error that starts with
    the file's path, as the loader's errors do, and no RuntimeWarning."""
    table = tmp_path / "z.csv"
    table.write_text(",P,T\n" + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["stats", "chi2", "--table", str(table)]) == 2
    assert capsys.readouterr().err == f"error: {table}: {message}\n"


def test_validate_command(tmp_path, capsys):
    manifest = write_world(tmp_path)
    assert main(["validate", "--manifest", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "config fingerprint" in out
    assert "1024 genotypes" in out


def test_validate_reports_a_table_manifest(tmp_path, capsys):
    manifest, table = write_table_world(tmp_path)
    capsys.readouterr()
    assert main(["validate", "--manifest", str(manifest)]) == 0
    assert f"descriptors: table {table} (64 genotypes)\n" in \
        capsys.readouterr().out


def test_missing_or_malformed_config_file_is_a_data_error(tmp_path, capsys):
    missing = tmp_path / "missing.ini"
    assert main(["run", "--manifest", str(missing)]) == 2
    assert capsys.readouterr().err == \
        f"error: config file not found: {missing}\n"
    malformed = tmp_path / "malformed.ini"
    malformed.write_text("seed = 1\n")     # a key before any section
    assert main(["run", "--manifest", str(malformed)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {malformed}: ")


@pytest.mark.parametrize("argv, message", [
    (lambda m, d: ["run", "--manifest", str(d)], lambda d: f"not a file: {d}"),
    (lambda m, d: ["validate", "--manifest", str(m)],
     lambda d: f"bad [paths] value: descriptors: not a file: {d.resolve()}"),
    (lambda m, d: ["stats", "chi2", "--table", str(d)],
     lambda d: f"Is a directory: '{d}'"),
    (lambda m, d: ["space-size", "--topology", str(d), "--n", "1"],
     lambda d: f"Is a directory: '{d}'"),
], ids=["manifest", "descriptors", "chi2-table", "topology"])
def test_a_directory_named_as_an_input_file_is_a_data_error(
        tmp_path, capsys, argv, message):
    """A directory where a command reads a file exits 2, as a missing file
    does, and not 3 as a runtime failure: the manifest itself, a manifest's
    descriptors (named under its [paths] key), `stats chi2 --table` and
    `space-size --topology`."""
    manifest, _ = write_table_world(tmp_path)
    folder = tmp_path / "folder"
    folder.mkdir()
    manifest.write_text(manifest.read_text().replace(
        "descriptors = table.csv", "descriptors = folder"))
    capsys.readouterr()
    assert main(argv(manifest, folder)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message(folder) in err, err
    assert not (tmp_path / "out2").exists()


def test_a_world_without_viable_genotypes_is_a_runtime_failure(tmp_path,
                                                               capsys):
    """A table whose every row is constant has no viable genotype: `run`
    exits 3, and so does `grid`, after it reports each of its nine cells as
    failed and each of its six measures as not testable."""
    manifest, table = write_table_world(tmp_path)
    header, *rows = table.read_text().splitlines()
    width = header.count(",")
    table.write_text(header + "\n" + "".join(
        row.split(",", 1)[0] + ",1.0" * width + "\n" for row in rows))
    capsys.readouterr()
    assert main(["run", "--manifest", str(manifest)]) == 3
    assert capsys.readouterr().err.startswith(
        "runtime failure: found 0 of 10 viable distinct genotypes")
    assert main(["grid", "--manifest", str(manifest),
                 "--runs-per-cell", "1"]) == 3
    out, err = capsys.readouterr()
    assert err == "runtime failure: no run of any cell completed\n"
    assert out.count("      FAILED: run seed=") == 9
    assert out.count("not testable: cell P:P failed: ") == 6
    assert not list((tmp_path / "out2").glob("grid_*.csv"))


def test_a_grid_with_some_completed_runs_exits_0(tmp_path, capsys,
                                                 monkeypatch):
    """A grid exits 3 only when no run of any cell completed: with the
    tournament-selection cells failing and the other six complete, it
    exits 0 and reports the three failures."""
    manifest = write_world(tmp_path, gens=3)
    run = experiment.run

    def failing_run(cfg, *args):
        if cfg.selection.method == "tournament":
            raise RuntimeError("tournament refused")
        return run(cfg, *args)

    monkeypatch.setattr(experiment, "run", failing_run)
    assert main(["grid", "--manifest", str(manifest),
                 "--runs-per-cell", "1"]) == 0
    out, err = capsys.readouterr()
    assert out.count("      FAILED: run seed=") == 3
    assert "runtime failure" not in err


def test_a_percent_sign_is_a_plain_character(tmp_path, capsys):
    """Config values are read as written, with no interpolation: an output
    directory named `out%x` validates and runs, writing into `out%x`, and a
    `%` inside a numeric value is a bad value (exit 2), not a crash."""
    manifest = write_world(tmp_path, gens=2)
    manifest.write_text(manifest.read_text().replace(
        "output = out\n", "output = out%x\n"))
    assert main(["validate", "--manifest", str(manifest)]) == 0
    assert main(["run", "--manifest", str(manifest)]) == 0
    assert (tmp_path / "out%x" / "run_log.tsv").exists()
    assert not (tmp_path / "out").exists()
    capsys.readouterr()
    evo = tmp_path / "evolution.cfg"
    evo.write_text(evo.read_text().replace("pairs = 2\n", "pairs = 2%\n"))
    assert main(["validate", "--manifest", str(manifest)]) == 2
    assert "bad [evolution] value: pairs: " in capsys.readouterr().err


def test_validate_rejects_unknown_keys(tmp_path, capsys):
    manifest = write_world(tmp_path)
    evo = tmp_path / "evolution.cfg"
    evo.write_text(evo.read_text() + "\ntypo_key = 3\n")
    assert main(["validate", "--manifest", str(manifest)]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_validate_rejects_bad_values(tmp_path, capsys):
    manifest = write_world(tmp_path)
    evo = tmp_path / "evolution.cfg"
    evo.write_text(evo.read_text().replace("pairs = 2", "pairs = 9"))
    assert main(["validate", "--manifest", str(manifest)]) == 2


def test_run_rejects_nan_config_values(tmp_path, capsys):
    """A NaN in the evolution config stops `run` at load, naming the field,
    instead of failing or stopping silently generations later."""
    manifest = write_world(tmp_path)
    evo = tmp_path / "evolution.cfg"
    text = evo.read_text()
    for field, edited in (
        ("q", text.replace("pairs = 2\n", "pairs = 2\nq = nan\n")),
        ("target_objective", text.replace(
            "pairs = 2\n", "pairs = 2\ntarget_objective = nan\n")),
        ("exponent s", text.replace("\ns = 1\n", "\ns = nan\n")),
        ("min_cv", text + "\n[viability]\nmin_cv = nan\n"),
    ):
        assert edited != text
        evo.write_text(edited)
        assert main(["run", "--manifest", str(manifest)]) == 2
        assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synthetic_defaults_come_from_the_spec(tmp_path, monkeypatch, capsys):
    """An empty [synthetic] section and a bare gen-data both give
    SyntheticSpec(); a present key is parsed by its field's type."""
    manifest = write_world(tmp_path)
    text = manifest.read_text()
    head = text[: text.index("[synthetic]")] + "[synthetic]\n"
    manifest.write_text(head)
    assert load_manifest(manifest).synthetic == SyntheticSpec()
    manifest.write_text(head + "seed = 4\nhigh = 2\n")
    spec = load_manifest(manifest).synthetic
    assert spec == SyntheticSpec(seed=4, high=2.0)
    assert type(spec.seed) is int and type(spec.high) is float
    for bad, message in (("seed = 1.5", "bad [synthetic] value"),
                         ("planted_cnt = 2", "unknown keys in [synthetic]")):
        manifest.write_text(head + bad + "\n")
        assert main(["validate", "--manifest", str(manifest)]) == 2
        assert message in capsys.readouterr().err

    specs = []
    build = cli._synthetic_provider
    monkeypatch.setattr(cli, "_synthetic_provider", lambda spec, *rest: (
        specs.append(spec) or build(spec, *rest)))
    topo_path = tmp_path / "small.cgt"
    topo_path.write_text("gene g0 : a b\ngene g1 : c d\n")
    assert main(["gen-data", "--activity-out", str(tmp_path / "a.csv"),
                 "--descriptors-out", str(tmp_path / "t.csv"),
                 "--topology", str(topo_path)]) == 0
    assert specs == [SyntheticSpec()]


def test_planted_keys_without_planted_genotypes_change_nothing(tmp_path,
                                                               capsys):
    """At planted_count = 0 the planted slope, intercept and noise are
    checked and plant nothing: the run's log and summary are byte-identical
    to those of the same manifest without the keys."""
    manifest = write_world(tmp_path, gens=4, planted=0)
    text = manifest.read_text()
    head = (text[: text.index("[synthetic]")]
            + "[synthetic]\nseed = 5\nplanted_count = 0\n")
    outputs = []
    for keys in ("", "planted_slope = -2.5\nplanted_intercept = 7\n"
                     "planted_noise = 0.75\n"):
        manifest.write_text(head + keys)
        assert main(["validate", "--manifest", str(manifest)]) == 0
        assert main(["run", "--manifest", str(manifest)]) == 0
        outputs.append([(tmp_path / "out" / name).read_bytes()
                        for name in ("run_log.tsv", "summary.json")])
    assert outputs[0] == outputs[1]
    assert load_manifest(manifest).synthetic.planted_slope == -2.5


def test_synthetic_values_must_be_finite(tmp_path, capsys):
    """A non-finite planted value or interval bound, a negative
    planted_noise or planted_count, or low >= high is a ConfigError naming
    the key, from a manifest at load and from gen-data before it writes
    anything."""
    manifest = write_world(tmp_path)
    text = manifest.read_text()
    head = text[: text.index("[synthetic]")] + "[synthetic]\n"
    cases = (("planted_noise", "nan"), ("planted_noise", "-0.25"),
             ("planted_slope", "nan"), ("planted_intercept", "inf"),
             ("low", "-inf"), ("high", "inf"), ("high", "nan"), ("low", "2"),
             ("planted_count", "-3"))
    for key, value in cases:
        keys = {"planted_count": "8", key: value}
        manifest.write_text(head + "".join(
            f"{k} = {v}\n" for k, v in keys.items()))
        with pytest.raises(ConfigError, match=key):
            load_manifest(manifest)
        assert main(["run", "--manifest", str(manifest)]) == 2
        assert key in capsys.readouterr().err
        topo_path = tmp_path / "topology.cgt"
        out = tmp_path / f"gen-{key}-{value}"
        assert main(["gen-data", "--activity-out", str(out / "a.csv"),
                     "--descriptors-out", str(out / "t.csv"),
                     "--topology", str(topo_path),
                     f"--{key.replace('_', '-')}={value}"]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()
    assert not (tmp_path / "out").exists()


def test_run_rejects_infinite_normalize_bounds(tmp_path, capsys):
    """normalize bounds must be finite: `run` stops at load, before any
    generation, naming the setting."""
    manifest = write_world(tmp_path)
    evo = tmp_path / "evolution.cfg"
    text = evo.read_text()
    for bounds in ("0:inf", "-inf:1", "0:nan"):
        evo.write_text(text.replace(
            "method = tournament\n",
            f"method = tournament\nnormalize = {bounds}\n"))
        with pytest.raises(ConfigError, match="normalization bounds"):
            cli.load_evolution_config(evo, 11)
        assert main(["run", "--manifest", str(manifest)]) == 2
        assert "normalization bounds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# The accepted keys of each evolution-config section.
EVOLUTION_KEYS = {
    "evolution": ("sample_size", "multiplicity", "pairs", "parent_mutation",
                  "child_mutation", "keep_best", "max_generations", "alpha",
                  "target_objective", "intercept_mode", "mutation_mode", "q",
                  "r", "selection_aggregate"),
    "objective": ("kind", "s"),
    "selection": ("method", "use_ranks", "normalize", "significant_digits"),
    "survival": ("method", "use_ranks", "normalize", "significant_digits"),
    "viability": ("min_cv", "jb_alpha", "min_simple_r2"),
}
MINIMAL_EVOLUTION = {
    "evolution": {"sample_size": "10", "multiplicity": "2", "pairs": "2"},
    "selection": {"method": "tournament"},
    "survival": {"method": "deterministic"},
}


def write_ini(path, sections):
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()))


def test_unset_config_keys_take_the_dataclass_defaults(tmp_path):
    """Only the required keys load to the dataclass defaults, and so does
    every other key given with an empty value, booleans included."""
    expected = EvolutionConfig(10, 2, 2,
                               selection=StrategySpec("tournament"),
                               survival=StrategySpec("deterministic"),
                               seed=7)
    path = tmp_path / "evolution.cfg"
    write_ini(path, MINIMAL_EVOLUTION)
    cfg = cli.load_evolution_config(path, 7)
    assert cfg == expected
    assert cfg.fingerprint() == expected.fingerprint()
    empty = {name: {key: MINIMAL_EVOLUTION.get(name, {}).get(key, "")
                    for key in keys}
             for name, keys in EVOLUTION_KEYS.items()}
    write_ini(path, empty)
    cfg = cli.load_evolution_config(path, 7)
    assert cfg == expected
    assert cfg.fingerprint() == expected.fingerprint()


@pytest.mark.parametrize("extra, names", [
    ("[objectve]\nkind = se\n", "objectve"),
    ("[viabilty]\nmin_cv = 5\n", "viabilty"),
    ("[Objective]\n[zeta]\n[alpha]\n", "Objective, alpha, zeta"),
])
def test_an_unknown_config_section_is_refused(tmp_path, capsys, extra,
                                              names):
    """An evolution config section that no loader reads, a misspelt
    `[objective]` or `[viability]` among them, exits 2 naming every such
    section, sorted, before any run; it is never read as no section."""
    manifest = write_world(tmp_path)
    evo = tmp_path / "evolution.cfg"
    evo.write_text(evo.read_text() + extra)
    with pytest.raises(ConfigError) as err:
        cli.load_evolution_config(evo, 7)
    assert str(err.value) == f"{evo}: unknown sections: {names}"
    capsys.readouterr()
    for command in ("validate", "run"):
        assert main([command, "--manifest", str(manifest)]) == 2
        assert capsys.readouterr().err == (
            f"error: {evo.resolve()}: unknown sections: {names}\n")
    assert not (tmp_path / "out").exists()


def test_config_errors_name_section_and_key(tmp_path):
    path = tmp_path / "evolution.cfg"

    def error(**edits):
        sections = {name: dict(keys) for name, keys in
                    MINIMAL_EVOLUTION.items()}
        for name, keys in edits.items():
            if keys is None:
                del sections[name]
            else:
                sections.setdefault(name, {}).update(keys)
        write_ini(path, sections)
        with pytest.raises(ConfigError) as err:
            cli.load_evolution_config(path, 7)
        return str(err.value)

    assert error(evolution=None).endswith("missing evolution.sample_size")
    assert error(evolution={"pairs": ""}).endswith("missing evolution.pairs")
    assert error(selection=None).endswith("missing selection.method")
    assert error(survival={"method": ""}).endswith("missing survival.method")
    for section, key, value in (
        ("evolution", "sample_size", "ten"),
        ("evolution", "keep_best", "maybe"),
        ("objective", "s", "x"),
        ("selection", "normalize", "1"),
        ("survival", "use_ranks", "2"),
        ("viability", "min_cv", "low"),
    ):
        message = error(**{section: {key: value}})
        assert f"bad [{section}] value: {key}: " in message
    assert "unknown keys in [objective]: exponent" in error(
        objective={"exponent": "2"})
    assert "bad [evolution] value: need 1 <= k" in error(
        evolution={"pairs": "6"})
    assert "bad [evolution] value: alpha must be in [1e-10, 1)" in error(
        evolution={"alpha": "1e-11"})


def test_gen_data_flags_are_the_synthetic_keys(tmp_path, monkeypatch,
                                               capsys):
    """gen-data has one flag per [synthetic] key, seed as --table-seed,
    and each flag sets its key."""
    values = {"seed": "3", "low": "-2", "high": "5", "planted_count": "2",
              "planted_slope": "0.5", "planted_intercept": "1",
              "planted_noise": "0.1", "planted_seed": "9"}
    assert set(values) == {f.name for f in fields(SyntheticSpec)}
    topo_path = tmp_path / "small.cgt"
    topo_path.write_text("gene g0 : a b\ngene g1 : c d\ngene g2 : e f\n")
    argv = ["gen-data", "--activity-out", str(tmp_path / "a.csv"),
            "--descriptors-out", str(tmp_path / "t.csv"),
            "--topology", str(topo_path)]
    for name, value in values.items():
        flag = "table-seed" if name == "seed" else name.replace("_", "-")
        argv += [f"--{flag}", value]
    specs = []
    build = cli._synthetic_provider
    monkeypatch.setattr(cli, "_synthetic_provider", lambda spec, *rest: (
        specs.append(spec) or build(spec, *rest)))
    assert main(argv) == 0
    assert specs == [SyntheticSpec(
        seed=3, low=-2.0, high=5.0, planted_count=2, planted_slope=0.5,
        planted_intercept=1.0, planted_noise=0.1, planted_seed=9)]


def test_summary_is_strict_json_without_a_valid_model(tmp_path, capsys):
    """A run whose generations never find a valid regression writes
    best_objective as null: summary.json holds no NaN."""
    manifest = write_world(tmp_path, planted=0)
    manifest.write_text(manifest.read_text() + "low = -1\nhigh = 1\n")
    evo = tmp_path / "evolution.cfg"
    evo.write_text(evo.read_text().replace("alpha = 0.25", "alpha = 1e-10"))
    assert main(["run", "--manifest", str(manifest)]) == 0
    assert "best objective: nan" in capsys.readouterr().out

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                         parse_constant=reject)
    assert summary["best_objective"] is None
    assert summary["best_genotypes"] == [] and summary["best_r2"] is None


@pytest.mark.parametrize("value", ["0", "-5", "1.5", "x"])
def test_count_not_a_positive_integer_is_a_usage_error(tmp_path, capsys, value):
    """grid --threshold and --runs-per-cell, space-size --N and --n-max and
    gen-data --max-rows reject a value that is not an integer of at least 1
    when the arguments are parsed, before reading a file, running a grid,
    printing a size or writing a file."""
    manifest = write_world(tmp_path)
    capsys.readouterr()
    activity = tmp_path / "generated.csv"
    table = tmp_path / "table.csv"
    for argv in (["grid", "--manifest", str(manifest), "--runs-per-cell",
                  "1", "--threshold", value],
                 ["grid", "--manifest", str(manifest), "--runs-per-cell",
                  value],
                 ["space-size", "--N", "5", "--n-max", value],
                 ["space-size", "--n", "2", "--N", value],
                 ["gen-data", "--activity-out", str(activity),
                  "--descriptors-out", str(table), "--topology",
                  str(tmp_path / "topology.cgt"), "--max-rows", value]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert f"{argv[-2]}: must be a positive integer" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "out").exists()
    assert not activity.exists() and not table.exists()
    assert main(["space-size", "--N", "5", "--n-max", "1"]) == 0


@pytest.mark.parametrize("value", ["0", "1", "2", "-5", "2.5", "x"])
def test_gen_data_molecules_below_three_is_a_usage_error(tmp_path, capsys,
                                                         value):
    """gen-data --molecules must be an integer of at least 3, the fewest a
    dataset holds: anything else, 1 and 2 included, is a usage error
    (exit 1) naming the flag, and no file is written."""
    activity = tmp_path / "generated.csv"
    table = tmp_path / "table.csv"
    (tmp_path / "topology.cgt").write_text(TOPOLOGY)
    for extra in ([], ["--descriptors-out", str(table), "--topology",
                       str(tmp_path / "topology.cgt")]):
        with pytest.raises(SystemExit) as err:
            main(["gen-data", "--activity-out", str(activity), *extra,
                  "--molecules", value])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert (f"--molecules: must be an integer of at least 3, "
                f"got {value!r}") in captured.err
        assert captured.out == ""
        assert not activity.exists() and not table.exists()
    assert main(["gen-data", "--activity-out", str(activity),
                 "--molecules", "3"]) == 0
    assert len(activity.read_text().splitlines()) == 4


@pytest.mark.parametrize("sd", ["-1", "-0.5", "nan", "inf", "-inf", "x",
                                "0", "-0.0"])
def test_gen_data_sd_outside_zero_to_inf_is_a_usage_error(tmp_path, capsys,
                                                          sd):
    """gen-data --sd must be positive and finite: anything else, 0 (a
    constant activity) included, is a usage error naming the flag, before
    the activity file is written."""
    activity = tmp_path / "generated.csv"
    with pytest.raises(SystemExit) as err:
        main(["gen-data", "--activity-out", str(activity), f"--sd={sd}"])
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert f"--sd: must be positive and finite, got {sd!r}" in captured.err
    assert captured.out == ""
    assert not activity.exists()
    assert main(["gen-data", "--activity-out", str(activity), "--sd", "0.5",
                 "--molecules", "3"]) == 0
    assert len(activity.read_text().splitlines()) == 4


@pytest.mark.parametrize("alpha", ["7", "1", "0", "-1", "nan", "inf", "x"])
def test_alpha_outside_unit_interval_is_a_usage_error(tmp_path, capsys,
                                                      alpha):
    """stats chi2 and grid reject --alpha outside (0, 1) when the
    arguments are parsed, before reading a table or running a grid."""
    table = tmp_path / "table.csv"
    table.write_text(",P,T,D\na,1,1,1\nb,1,1,1\n")
    manifest = write_world(tmp_path)
    for argv in (["stats", "chi2", "--table", str(table)],
                 ["grid", "--manifest", str(manifest),
                  "--runs-per-cell", "1"]):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--alpha", alpha])
        assert err.value.code == 1
        assert "--alpha: must lie in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["stats", "chi2", "--table", str(table),
                 "--alpha", "0.5"]) == 0
