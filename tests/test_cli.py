import json

import pytest

from evoreg import cli
from evoreg.cli import SyntheticSpec, load_manifest, main
from evoreg.descriptors import load_activity
from evoreg.stats import normal_mle

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
    assert main(["space-size", "--n", "2"]) == 2  # neither N nor topology
    assert main(["space-size", "--N", "5", "--n", "9"]) == 2  # n > N


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["space-size", "--N", "not-a-number", "--n", "1"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 1


def test_gen_data_defaults_recover_distribution(tmp_path, capsys):
    out = tmp_path / "activity.csv"
    assert main(["gen-data", "--seed", "1", "--activity-out", str(out)]) == 0
    ds = load_activity(out)
    assert ds.size == 206
    mean, sd = normal_mle(ds.activity)
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


def test_gen_data_refuses_huge_table(tmp_path, capsys):
    topo_path = tmp_path / "big.cgt"
    topo_path.write_text(BIG_TOPOLOGY)
    code = main([
        "gen-data", "--molecules", "30", "--seed", "2",
        "--activity-out", str(tmp_path / "a.csv"),
        "--descriptors-out", str(tmp_path / "t.csv"),
        "--topology", str(topo_path), "--max-rows", "1000",
    ])
    assert code == 2


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


def test_run_missing_activity_names_path(tmp_path, capsys):
    manifest = write_world(tmp_path)
    (tmp_path / "activity.csv").unlink()
    assert main(["run", "--manifest", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert "activity" in err


def test_run_deterministic_outputs(tmp_path, capsys):
    manifest = write_world(tmp_path, gens=4)
    main(["run", "--manifest", str(manifest)])
    first_log = (tmp_path / "out" / "run_log.tsv").read_bytes()
    first_summary = (tmp_path / "out" / "summary.json").read_bytes()
    main(["run", "--manifest", str(manifest)])
    assert (tmp_path / "out" / "run_log.tsv").read_bytes() == first_log
    assert (tmp_path / "out" / "summary.json").read_bytes() == first_summary


def test_run_with_table_provider(tmp_path, capsys):
    topo_path = tmp_path / "topology.cgt"
    topo_path.write_text(TOPOLOGY)
    act = tmp_path / "activity.csv"
    table = tmp_path / "table.csv"
    main(["gen-data", "--molecules", "40", "--seed", "4",
          "--activity-out", str(act)])
    # small table: enumerate a sub-space via a 6-gene topology instead
    small = tmp_path / "small.cgt"
    small.write_text("\n".join(f"gene g{i} : a b" for i in range(6)) + "\n")
    main(["gen-data", "--molecules", "40", "--seed", "4",
          "--activity-out", str(act),
          "--descriptors-out", str(table), "--topology", str(small),
          "--planted-count", "4", "--planted-noise", "0.3"])
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
    assert main(["run", "--manifest", str(manifest)]) == 0
    assert (tmp_path / "out2" / "summary.json").exists()


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


def test_validate_command(tmp_path, capsys):
    manifest = write_world(tmp_path)
    assert main(["validate", "--manifest", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "config fingerprint" in out
    assert "1024 genotypes" in out


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
