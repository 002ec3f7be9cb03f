"""Phenotype providers and the viability filter.

A provider maps genotypes to phenotypes (one descriptor value per molecule).
Two implementations: an exact-lookup table loaded from CSV, and a seeded
synthetic generator whose cells are uniform on an interval, with an optional
planted mode where designated genotypes track the activity linearly.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import Counter, OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Protocol

import numpy as np

from .genome import GeneticTopology, Genotype
from . import stats

__all__ = [
    "Dataset",
    "Phenotype",
    "ViabilityPolicy",
    "ViabilityReport",
    "PlantedSignal",
    "Provider",
    "TableProvider",
    "SyntheticProvider",
    "check_viability",
    "load_activity",
    "write_activity",
    "load_descriptor_table",
    "write_descriptor_table",
    "DescriptorDataError",
]


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
        if len(set(self.molecule_ids)) != m:
            repeated = next(k for k, c in Counter(self.molecule_ids).items()
                            if c > 1)
            raise ValueError(f"molecule id {repeated!r} is repeated")

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


@dataclass(frozen=True)
class ViabilityReport:
    """Per-criterion outcome; None marks a criterion that was not applied."""

    finite: bool
    non_constant: bool
    cv_ok: bool | None
    jb_ok: bool | None
    simple_r2_ok: bool | None

    @property
    def viable(self) -> bool:
        checks = (self.finite, self.non_constant, self.cv_ok, self.jb_ok,
                  self.simple_r2_ok)
        return all(c is not False for c in checks)

    def failed_criteria(self) -> tuple[str, ...]:
        names = ("finite", "non_constant", "cv", "jarque_bera", "simple_r2")
        flags = (self.finite, self.non_constant, self.cv_ok, self.jb_ok,
                 self.simple_r2_ok)
        return tuple(n for n, f in zip(names, flags) if f is False)


def check_viability(
    p: Phenotype, ds: Dataset, policy: ViabilityPolicy
) -> ViabilityReport:
    """Apply the viability rules: finite everywhere, not all identical, and
    any configured optional screens.

    The screens work on one centred copy of the values: the cv compares the
    population sd (pairwise sums, as numpy's mean and std take them) with
    the mean; the simple r2 floor compares the squared Pearson correlation
    with the activity (0 when either side has no variance)."""
    v = p.values
    if v.shape != ds.activity.shape:
        raise ValueError("phenotype length does not match dataset")
    m = v.size
    total = v.sum()
    # a finite sum proves every value finite; an overflowed one proves nothing
    finite = math.isfinite(total) or bool(np.isfinite(v).all())
    non_constant = finite and bool((v != v[0]).any())
    cv_ok = jb_ok = r2_ok = None
    if finite:
        if policy.min_cv is not None or policy.min_simple_r2 is not None:
            mean = total / m
            d = v - mean
        if policy.min_cv is not None:
            sd = math.sqrt((d * d).sum() / m)
            if mean == 0.0:
                # zero mean with any spread is maximally variable
                cv_ok = sd > 0.0
            else:
                cv_ok = abs(sd / float(mean)) >= policy.min_cv
        if policy.jb_alpha is not None:
            if non_constant and m >= 4:
                _, pval = stats.jarque_bera(v)
                jb_ok = pval >= policy.jb_alpha
            else:
                jb_ok = False
        if policy.min_simple_r2 is not None:
            dy, syy = ds.centred_activity
            sxx = float(d @ d)
            r2 = 0.0
            if sxx != 0.0 and syy != 0.0:
                sxy = float(d @ dy)
                r2 = min(1.0, sxy * sxy / (sxx * syy))
            r2_ok = r2 >= policy.min_simple_r2
    return ViabilityReport(finite, non_constant, cv_ok, jb_ok, r2_ok)


# --- providers ---------------------------------------------------------------


class TableProvider:
    """Exact lookup in a descriptor table keyed by rendered genotype string."""

    def __init__(self, topology: GeneticTopology, table: dict[str, np.ndarray]):
        self.topology = topology
        self._table = {k: _readonly(v) for k, v in table.items()}
        self._genotypes: list[Genotype] = []
        for key in self._table:
            try:
                self._genotypes.append(topology.parse(key))
            except ValueError:
                raise DescriptorDataError(f"malformed genotype {key!r}") from None

    def provide(self, genotype: Genotype) -> Phenotype | None:
        values = self._table.get(genotype.render())
        if values is None:
            return None
        return Phenotype(values, genotype)

    def known_genotypes(self) -> list[Genotype]:
        return list(self._genotypes)

    def __len__(self) -> int:
        return len(self._table)


class Provider(Protocol):
    """What the engine asks of a phenotype source: a genotype's phenotype
    (None if it has none), and every genotype that has one (None for all)."""

    def provide(self, genotype: Genotype) -> Phenotype | None: ...
    def known_genotypes(self) -> Iterable[Genotype] | None: ...


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

    def known_genotypes(self) -> None:
        return None  # defined on the whole space


def pick_planted_genotypes(
    topology: GeneticTopology, count: int, seed: int
) -> list[str]:
    """Deterministically designate `count` distinct genotypes for planting."""
    import random as _random

    from .genome import genome_size, random_genotype

    if count > genome_size(topology):
        raise ValueError("cannot plant more genotypes than the space holds")
    rng = _random.Random(seed)
    chosen: list[str] = []
    seen: set[str] = set()
    while len(chosen) < count:
        key = random_genotype(topology, rng).render()
        if key not in seen:
            seen.add(key)
            chosen.append(key)
    return chosen


# --- file formats -------------------------------------------------------------
#
# activity CSV:    header "molecule,activity", one molecule per row
# descriptor CSV:  header "genotype,<mol_1>,...,<mol_m>", one genotype per row


def load_activity(path) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != ["molecule", "activity"]:
        raise DescriptorDataError(f"{path}: expected header 'molecule,activity'")
    ids = []
    values = []
    for r in rows[1:]:
        if not r or not any(x.strip() for x in r):
            continue
        if len(r) != 2:
            raise DescriptorDataError(f"{path}: malformed row {r!r}")
        ids.append(r[0].strip())
        try:
            values.append(float(r[1]))
        except ValueError as exc:
            raise DescriptorDataError(
                f"{path}: non-numeric activity for {r[0]!r}"
            ) from exc
    try:
        return Dataset(tuple(ids), np.array(values))
    except ValueError as exc:
        raise DescriptorDataError(f"{path}: {exc}") from exc


def write_activity(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["molecule", "activity"])
        for mol, y in zip(ds.molecule_ids, ds.activity):
            w.writerow([mol, repr(float(y))])


def load_descriptor_table(path, topology: GeneticTopology, ds: Dataset) -> TableProvider:
    """Load a wide descriptor CSV and validate it against the dataset.

    Columns must agree with the dataset's molecule ids (same order). A cell
    is anything `float()` parses; NaN/Inf tokens are left to the viability
    filter. Rows are read one at a time, so memory stays near the values' size.
    """
    table: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None:
            raise DescriptorDataError(f"{path}: empty descriptor table")
        header = [c.strip() for c in header]
        if not header or header[0] != "genotype":
            raise DescriptorDataError(
                f"{path}: first header column must be 'genotype'"
            )
        if tuple(header[1:]) != ds.molecule_ids:
            raise DescriptorDataError(
                f"{path}: molecule columns do not match the activity file"
            )
        for r in rows:
            if not any(x.strip() for x in r):
                continue
            key = r[0].strip()
            if len(r) != len(header):
                raise DescriptorDataError(f"{path}: row {key!r} has wrong width")
            if key in table:
                raise DescriptorDataError(f"{path}: duplicate genotype {key!r}")
            try:
                table[key] = np.array(r[1:], dtype=float)
            except ValueError as exc:
                raise DescriptorDataError(
                    f"{path}: non-numeric value in row {key!r}"
                ) from exc
    try:
        return TableProvider(topology, table)
    except DescriptorDataError as exc:
        raise DescriptorDataError(f"{path}: {exc}") from None


def write_descriptor_table(
    path, ds: Dataset, rows: dict[str, np.ndarray]
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["genotype"] + list(ds.molecule_ids))
        for key, values in rows.items():
            w.writerow([key] + [repr(float(v)) for v in values])
