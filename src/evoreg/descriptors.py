"""Phenotype providers and the viability filter.

A provider maps genotypes to phenotypes (one descriptor value per molecule).
Two implementations: an exact-lookup table indexed from CSV, a row parsed
each time it is provided, and a seeded synthetic generator whose cells are
uniform on an interval, with an optional planted mode where designated
genotypes track the activity linearly.
"""

from __future__ import annotations

import hashlib
import math
import random
import weakref
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Protocol

import numpy as np

from .genome import GeneticTopology, Genotype, genome_size, random_genotype
from . import stats

__all__ = [
    "Dataset",
    "Phenotype",
    "ViabilityPolicy",
    "PlantedSignal",
    "Provider",
    "TableProvider",
    "SyntheticProvider",
    "check_viability",
    "screen_viability",
    "load_activity",
    "write_activity",
    "load_descriptor_table",
    "write_descriptor_table",
    "DescriptorDataError",
]


# the viability criteria, in the order a verdict lists the failed ones
CRITERIA = ("finite", "non_constant", "cv", "jarque_bera", "simple_r2")

# phenotypes a SyntheticProvider keeps, least recently used evicted first; a
# value depends only on its key, so eviction changes no output
CACHE_PHENOTYPES = 8192


class DescriptorDataError(ValueError):
    """Raised for malformed activity or descriptor files."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """The molecule set and its observed activity vector."""

    molecule_ids: tuple[str, ...]
    activity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "activity", _readonly(self.activity))
        m = len(self.molecule_ids)
        if m < 3:
            raise ValueError("dataset needs at least 3 molecules")
        if self.activity.shape != (m,):
            raise ValueError("activity length does not match molecule count")
        if not np.all(np.isfinite(self.activity)):
            raise ValueError("activity values must be finite")
        stats.check_labels(self.molecule_ids, "molecule id")

    @property
    def size(self) -> int:
        return len(self.molecule_ids)

    @cached_property
    def centred_activity(self) -> tuple[np.ndarray, float]:
        """The activity minus its mean, and that vector's sum of squares."""
        dy = self.activity - self.activity.mean()
        dy.flags.writeable = False
        return dy, float(dy @ dy)


@dataclass(frozen=True)
class Phenotype:
    """Realized descriptor values of a genotype over the molecule set."""

    values: np.ndarray
    source_genotype: Genotype

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))


@dataclass(frozen=True)
class ViabilityPolicy:
    """Optional extra screens on top of the finite/non-constant core rules."""

    min_cv: float | None = None
    jb_alpha: float | None = None
    min_simple_r2: float | None = None

    def __post_init__(self):
        if self.min_cv is not None and not 0.0 <= self.min_cv < math.inf:
            raise ValueError("min_cv must be nonnegative and finite")
        for name in ("jb_alpha", "min_simple_r2"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


def screen_viability(rows, ds: Dataset,
                     policy: ViabilityPolicy) -> list[tuple[str, ...]]:
    """Apply the viability rules to `rows`, each the values of one phenotype:
    finite, not all identical, and the optional screens the policy sets.
    Returns each row's verdict, the criteria it fails in `CRITERIA` order
    (() if viable); no optional screen fails a row that is not finite, and
    none that the policy leaves out fails any. Each row gets the bits it
    gets alone. The cv compares the population sd (pairwise sums, as
    numpy's std) with the mean; the simple r2 is the squared Pearson
    correlation with the activity (0 when either side has no variance).
    Overflowing squares give cv = inf, which passes, and fail the r2, as an
    underflowing r2 denominator does; an overflowing sum fails cv and r2."""
    m = ds.size
    if any(v.shape != (m,) for v in rows):
        raise ValueError("phenotype length does not match dataset")
    v = np.array(rows, dtype=float).reshape(-1, m)
    failed = np.zeros((len(v), len(CRITERIA)), dtype=bool)
    finite = np.isfinite(v).all(axis=1)
    non_constant = finite & (v != v[:, :1]).any(axis=1)
    failed[:, 0], failed[:, 1] = ~finite, ~non_constant
    if (alpha := policy.jb_alpha) is not None:
        # a constant row, or one too short for the moments, fails
        failed[:, 3] = finite
        for i in np.flatnonzero(non_constant & (m >= 4)).tolist():
            failed[i, 3] = stats.jarque_bera(v[i])[1] < alpha
    if policy.min_cv is not None or policy.min_simple_r2 is not None:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mean = v.sum(axis=1) / m
            d = v - mean[:, None]
            if policy.min_cv is not None:
                # zero mean with any spread is maximally variable: cv = inf
                sd = np.sqrt((d * d).sum(axis=1) / m)
                failed[:, 2] = finite & ~(np.abs(sd / mean) >= policy.min_cv)
            if (floor := policy.min_simple_r2) is not None:
                # np.vecdot takes row dot products as BLAS ddot does, to the
                # bits of one row's d @ dy; (d * dy).sum(axis=1) would not
                dy, syy = ds.centred_activity
                sxx, sxy = np.vecdot(d, d), np.vecdot(d, dy)
                r2 = sxy * sxy / (sxx * syy)
                r2[(sxx == 0.0) | (syy == 0.0)] = 0.0
                failed[:, 4] = finite & ~(np.isfinite(r2) & (r2 >= floor))
    return [tuple(compress(CRITERIA, row)) for row in failed.tolist()]


def check_viability(p: Phenotype, ds: Dataset,
                    policy: ViabilityPolicy) -> tuple[str, ...]:
    """The verdict of `screen_viability` on one phenotype."""
    return screen_viability([p.values], ds, policy)[0]


# --- providers ---------------------------------------------------------------


class TableProvider:
    """Exact lookup in a descriptor table keyed by rendered genotype string.

    `table` maps each key to its values: a dict, or the rows of a CSV file
    that `load_descriptor_table` parses on each read. Every key is checked
    against the topology's key pattern here; `known_keys` hands them out as
    text, for the caller to parse those it uses. `provide` only looks a key
    up: the table owns its values, and a `Phenotype` makes them read-only."""

    def __init__(self, topology: GeneticTopology,
                 table: Mapping[str, np.ndarray]):
        self.topology = topology
        self._table = table
        self._keys = keys = tuple(table)
        # one match checks every key; when it fails, or a key holds a line
        # feed, a scan in table order names the first bad key
        text = "\n".join(keys) + "\n"
        if (text.count("\n") != len(keys)
                or topology.keys_pattern.fullmatch(text) is None):
            is_key = topology.key_pattern.fullmatch
            bad = next((k for k in keys if is_key(k) is None), None)
            if bad is not None:
                raise DescriptorDataError(f"malformed genotype {bad!r}")

    def provide(self, genotype: Genotype) -> Phenotype | None:
        values = self._table.get(genotype.render())
        return None if values is None else Phenotype(values, genotype)

    def known_keys(self) -> tuple[str, ...]:
        return self._keys

    def __len__(self) -> int:
        return len(self._table)


class Provider(Protocol):
    """What the engine asks of a phenotype source: a genotype's phenotype
    (None if it has none), and the key of every genotype that has one, in a
    fixed order (None for all)."""

    def provide(self, genotype: Genotype) -> Phenotype | None: ...
    def known_keys(self) -> tuple[str, ...] | None: ...


@dataclass(frozen=True)
class PlantedSignal:
    """Linear-in-activity cell: value = intercept + slope*Y + noise_sd*e."""

    slope: float = 1.0
    intercept: float = 0.0
    noise_sd: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)
                and 0.0 <= self.noise_sd < math.inf):
            raise ValueError("need finite slope, intercept and noise_sd >= 0")


class SyntheticProvider:
    """Deterministic synthetic descriptors for any genotype of the topology.

    Each genotype gets its own counter-based stream keyed by a hash of
    (seed, rendered genotype), so a cell's value depends only on the seed,
    the genotype, and the molecule index. Non-planted cells are uniform on
    [low, high); planted genotypes produce a linear function of the activity
    plus seeded gaussian noise. One Philox generator serves every key: it is
    re-keyed to the state a fresh `Philox(key=...)` starts in, which draws
    the same values without building a generator per genotype.
    """

    _ZERO_WORDS = np.zeros(4, dtype=np.uint64)
    _ZERO_WORDS.flags.writeable = False

    def __init__(
        self,
        topology: GeneticTopology,
        dataset: Dataset,
        seed: int,
        low: float = 0.0,
        high: float = 1.0,
        planted: dict[str, PlantedSignal] | None = None,
    ):
        if not -math.inf < low < high < math.inf:
            raise ValueError("need finite low < high for the uniform interval")
        self.topology = topology
        self.dataset = dataset
        self.seed = int(seed)
        self.low = float(low)
        self.high = float(high)
        self.planted = dict(planted or {})
        self._cache: OrderedDict[str, Phenotype] = OrderedDict()
        self._rng = np.random.Generator(np.random.Philox(0))

    def _stream(self, key: str) -> np.random.Generator:
        digest = hashlib.blake2b(
            f"{self.seed}|{key}".encode(), digest_size=16
        ).digest()
        zeros = self._ZERO_WORDS
        self._rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros,
                      "key": np.frombuffer(digest, dtype=np.uint64)},
            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return self._rng

    def provide(self, genotype: Genotype) -> Phenotype:
        key = genotype.render()
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            return Phenotype(cached.values, genotype)
        rng = self._stream(key)
        m = self.dataset.size
        signal = self.planted.get(key)
        if signal is None:
            values = rng.uniform(self.low, self.high, m)
        else:
            values = signal.intercept + signal.slope * self.dataset.activity
            if signal.noise_sd > 0.0:
                values = values + signal.noise_sd * rng.standard_normal(m)
        ph = Phenotype(values, genotype)
        self._cache[key] = ph
        if len(self._cache) > CACHE_PHENOTYPES:
            self._cache.popitem(last=False)
        return ph

    def known_keys(self) -> None:
        return None  # defined on the whole space


def pick_planted_genotypes(
    topology: GeneticTopology, count: int, seed: int
) -> list[str]:
    """Deterministically designate `count` distinct genotypes for planting,
    in the order they are first drawn."""
    if count > genome_size(topology):
        raise ValueError("cannot plant more genotypes than the space holds")
    rng = random.Random(seed)
    chosen: dict[str, None] = {}    # one key per genotype
    while len(chosen) < count:
        chosen[random_genotype(topology, rng).render()] = None
    return list(chosen)


# --- file formats -------------------------------------------------------------
#
# Both are labelled-row CSVs: `stats.read_labelled_rows` and
# `stats.write_labelled_rows` own the rules they share.
# activity CSV:    header "molecule,activity", one molecule per row
# descriptor CSV:  header "genotype,<mol_1>,...,<mol_m>", one genotype per row


def load_activity(path) -> Dataset:
    ids, cells = [], []
    with open(path, "rb") as fh:
        rows = stats.read_labelled_rows(fh, "molecule", DescriptorDataError,
                                        lines=True)
        if next(rows) != ["activity"]:
            raise DescriptorDataError(
                f"{path}: expected header 'molecule,activity'")
        try:
            for mol, line in (row for block in rows for row in block):
                cells += stats.row_cells(path, mol, line, 1, DescriptorDataError)
                ids.append(mol)
        except DescriptorDataError:
            # a non-numeric cell in an earlier row is the first fault
            stats.numbers(path, ids, cells, DescriptorDataError)
            raise
    activity = stats.numbers(path, ids, cells, DescriptorDataError)
    try:
        ds = Dataset(tuple(ids), activity)
        # every fit is exact, and its slopes' t are rounding residue
        if activity.min() == activity.max():
            raise ValueError("activity values are all equal")
    except ValueError as exc:
        raise DescriptorDataError(f"{path}: {exc}") from exc
    return ds


def _float_cell(v) -> str:
    return repr(float(v))


def write_activity(ds: Dataset, path) -> None:
    stats.write_labelled_rows(path, "molecule", ["activity"],
                              zip(ds.molecule_ids, ds.activity[:, None]),
                              _float_cell)


class _TableRows(Mapping):
    """A descriptor CSV's rows by genotype key. Building the mapping opens
    `path` and indexes it in one pass: the header must list `columns`, and
    a key appears once. Each read splits a row from its line, at its byte
    offset, and checks its width and its numbers; no row is kept. The
    file stays open for the mapping's lifetime and is closed when the
    mapping is collected, as is one whose indexing failed."""

    def __init__(self, path, columns: tuple[str, ...]):
        self._fh = fh = open(path, "rb")
        weakref.finalize(self, fh.close)
        self._offsets: dict[str, int] = {}
        rows = stats.read_labelled_rows(fh, "genotype", DescriptorDataError)
        if tuple(next(rows)) != columns:
            raise DescriptorDataError(
                f"{path}: molecule columns do not match the activity file")
        self._columns = len(columns)
        for block in rows:
            for key, offset in block:
                if self._offsets.setdefault(key, offset) != offset:
                    raise DescriptorDataError(
                        f"{path}: duplicate genotype {key!r}")

    def __getitem__(self, key: str) -> np.ndarray:
        self._fh.seek(self._offsets[key])
        cells = stats.row_cells(self._fh.name, key, self._fh.readline(),
                                self._columns, DescriptorDataError)
        return stats.numbers(self._fh.name, key, cells, DescriptorDataError)

    def __iter__(self):
        return iter(self._offsets)

    def __len__(self) -> int:
        return len(self._offsets)


def load_descriptor_table(path, topology: GeneticTopology, ds: Dataset) -> TableProvider:
    """Index a wide descriptor CSV and validate it against the dataset.

    Columns must agree with the dataset's molecule ids (same order), and a
    genotype appears once and matches the topology's key pattern: one pass
    over the file checks these and keeps each row's byte offset. A row's
    cells are split and parsed each time the provider provides it, so a
    row that is not as wide as the header, or holds a non-numeric cell,
    raises there (`evoreg validate` provides every row). NaN/Inf cells are
    left to the viability filter.
    """
    table = _TableRows(path, ds.molecule_ids)
    try:
        return TableProvider(topology, table)
    except DescriptorDataError as exc:
        raise DescriptorDataError(f"{path}: {exc}") from None


def write_descriptor_table(
    path, ds: Dataset, rows: Iterable[tuple[str, np.ndarray]]
) -> int:
    """Write (genotype key, values) pairs as they come; returns how many."""
    return stats.write_labelled_rows(path, "genotype", ds.molecule_ids, rows,
                                     _float_cell)
