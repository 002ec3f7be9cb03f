"""The README quick-start configs load with the current schema."""

import re
from pathlib import Path

import numpy as np

from evoreg.cli import load_evolution_config, load_manifest
from evoreg.descriptors import Dataset, write_activity

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_files() -> dict[str, str]:
    """The README's `cat > <name> <<'EOF'` heredocs, by file name."""
    found = re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$",
                       README.read_text(encoding="utf-8"), re.M | re.S)
    return dict(found)


def test_quickstart_configs_load(tmp_path):
    files = quickstart_files()
    assert set(files) == {"evolution.cfg", "manifest.cfg"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "topology.cgt").write_text(
        "".join(f"gene g{i} : a b\n" for i in range(10)))
    write_activity(Dataset(("m1", "m2", "m3"), np.array([6.1, 6.9, 5.8])),
                   tmp_path / "activity.csv")
    manifest = load_manifest(tmp_path / "manifest.cfg")
    assert manifest.synthetic is not None
    cfg = load_evolution_config(manifest.evolution_path, manifest.seed)
    assert (cfg.p, cfg.n, cfg.k, cfg.seed) == (20, 2, 3, manifest.seed)
