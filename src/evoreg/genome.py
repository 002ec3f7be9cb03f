"""Genetic topologies, genotypes, and the operators acting on them.

A topology is an ordered list of genes, each carrying an ordered alphabet of
allele symbols. A genotype picks one allele per gene; its rendered form is the
concatenation of the chosen symbols. No allele is a prefix of another in its
gene, so a rendering names exactly one genotype. Alleles are opaque: nothing
here knows what a symbol means.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import getitem

import numpy as np

__all__ = [
    "Gene",
    "GeneticTopology",
    "Genotype",
    "TopologyError",
    "genome_size",
    "random_genotype",
    "crossover",
    "mutate",
    "mutate_per_gene",
    "parse_topology",
    "load_topology",
]


class TopologyError(ValueError):
    """Raised for malformed topologies or topology files."""


@dataclass(frozen=True)
class Gene:
    """One position of the encoding: a name and its allele alphabet."""

    name: str
    alleles: tuple[str, ...]

    def __post_init__(self):
        if not self.name or any(c.isspace() for c in self.name) or ":" in self.name:
            raise TopologyError(f"invalid gene name {self.name!r}")
        if len(self.alleles) < 2:
            raise TopologyError(f"gene {self.name!r} needs at least 2 alleles")
        for a in self.alleles:
            if not a or any(c.isspace() for c in a):
                raise TopologyError(f"invalid allele {a!r} in gene {self.name!r}")
        # a key names one genotype only if no allele prefixes another in its
        # gene; sorted, an allele's extensions follow it
        ordered = sorted(self.alleles)
        for a, b in zip(ordered, ordered[1:]):
            if b.startswith(a):
                clash = "is repeated" if a == b else f"is a prefix of {b!r}"
                raise TopologyError(
                    f"allele {a!r} {clash} in gene {self.name!r}")


@dataclass(frozen=True)
class GeneticTopology:
    """Ordered genes; defines the genotype space."""

    genes: tuple[Gene, ...]

    def __post_init__(self):
        if not self.genes:
            raise TopologyError("topology needs at least one gene")
        names = [g.name for g in self.genes]
        if len(set(names)) != len(names):
            raise TopologyError("duplicate gene names")

    @property
    def gene_count(self) -> int:
        return len(self.genes)

    @cached_property
    def key_pattern(self) -> re.Pattern:
        """Matches exactly the renderings of the space's genotypes: one
        group per gene, the alternation of its alleles. Alphabets are
        prefix-free, so at most one allele of a gene fits where the
        previous gene ended, and the groups read back each gene's allele."""
        return re.compile("".join(
            "(" + "|".join(map(re.escape, g.alleles)) + ")" for g in self.genes))

    @cached_property
    def keys_pattern(self) -> re.Pattern:
        """Matches keys that each end in a line feed: many keys checked in
        one match, `key_pattern` repeated with its groups not capturing."""
        return re.compile("(?:%s\n)*" % "".join(
            "(?:" + "|".join(map(re.escape, g.alleles)) + ")"
            for g in self.genes))

    @cached_property
    def alphabets(self) -> tuple[tuple[str, ...], ...]:
        """Each gene's alleles, in gene order."""
        return tuple(g.alleles for g in self.genes)

    @cached_property
    def allele_offsets(self) -> np.ndarray:
        """Where each gene's alleles start in a row of all alleles, then its
        width."""
        return np.cumsum([0, *map(len, self.alphabets)])

    def parse(self, text: str) -> "Genotype":
        """Inverse of Genotype.render."""
        match = self.key_pattern.fullmatch(text)
        if match is None:
            raise ValueError(f"cannot parse {text!r} against topology")
        return Genotype(self, tuple(
            g.alleles.index(a) for g, a in zip(self.genes, match.groups())))

    def all_genotypes(self):
        """Iterate the whole space in lexicographic allele-index order."""
        ranges = map(range, map(len, self.alphabets))
        return (Genotype(self, idx) for idx in itertools.product(*ranges))


@dataclass(frozen=True)
class Genotype:
    """One allele choice per gene (0-based indices into the alphabets).

    `key` is the rendering, built once as the indices are checked; equality
    and hashing compare only the two fields."""

    topology: GeneticTopology
    allele_index: tuple[int, ...]
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alphabets, idx = self.topology.alphabets, self.allele_index
        if len(idx) != len(alphabets):
            raise TopologyError(
                f"expected {len(alphabets)} gene values, got {len(idx)}")
        try:
            if min(idx) < 0:  # would count from an alphabet's end
                raise IndexError
            key = "".join(map(getitem, alphabets, idx))
        except IndexError:
            gene, i = next((g, i) for g, i in zip(self.topology.genes, idx)
                           if not 0 <= i < len(g.alleles))
            raise TopologyError(f"allele index {i} out of range for gene "
                                f"{gene.name!r}") from None
        object.__setattr__(self, "key", key)

    def render(self) -> str:
        return self.key


def genome_size(topology: GeneticTopology) -> int:
    """Number of genotypes in the space: the product of alphabet sizes."""
    return math.prod(map(len, topology.alphabets))


def random_genotype(topology: GeneticTopology, rng: random.Random) -> Genotype:
    """Uniform draw over the genotype space."""
    return Genotype(topology, tuple(map(rng.randrange,
                                        map(len, topology.alphabets))))


def crossover(
    a: Genotype, b: Genotype, rng: random.Random
) -> tuple[Genotype, Genotype]:
    """Exchange a contiguous gene range between two genotypes.

    The range [i, j] is uniform over all start <= end pairs, so segment
    lengths from one gene up to the whole chromosome are all possible.
    Both genotypes share one topology, as every genotype of a run does.
    """
    nc = a.topology.gene_count
    pairs = nc * (nc + 1) // 2
    k = rng.randrange(pairs)
    # rows i..nc-1 hold w(w + 1)/2 of the pairs, w = nc - i: pair k is in
    # the last row i whose rows hold more than the pairs - 1 - k after k
    w = (math.isqrt(8 * (pairs - 1 - k) + 1) + 1) // 2
    i = nc - w
    j = i + k - pairs + w * (w + 1) // 2
    ai = list(a.allele_index)
    bi = list(b.allele_index)
    ai[i : j + 1], bi[i : j + 1] = bi[i : j + 1], ai[i : j + 1]
    return Genotype(a.topology, tuple(ai)), Genotype(b.topology, tuple(bi))


def mutate(g: Genotype, prob: float, rng: random.Random) -> Genotype:
    """With probability prob, set one uniformly chosen gene to a different
    allele; otherwise return the genotype unchanged."""
    if rng.random() >= prob:
        return g
    pos = rng.randrange(g.topology.gene_count)
    alleles = g.topology.genes[pos].alleles
    shift = rng.randrange(len(alleles) - 1) + 1
    idx = list(g.allele_index)
    idx[pos] = (idx[pos] + shift) % len(alleles)
    return Genotype(g.topology, tuple(idx))


def mutate_per_gene(g: Genotype, prob: float, rng: random.Random) -> Genotype:
    """Alternative mutation mode: every gene flips independently with
    probability prob."""
    idx = list(g.allele_index)
    changed = False
    for pos, gene in enumerate(g.topology.genes):
        if rng.random() < prob:
            shift = rng.randrange(len(gene.alleles) - 1) + 1
            idx[pos] = (idx[pos] + shift) % len(gene.alleles)
            changed = True
    return Genotype(g.topology, tuple(idx)) if changed else g


# --- topology file format -------------------------------------------------
#
# One line per gene, order significant:
#   gene <name> : <allele> <allele> ...
# '#' starts a comment; blank lines ignored.


def parse_topology(text: str) -> GeneticTopology:
    genes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] != "gene" or len(fields) < 3 or ":" not in fields:
            raise TopologyError(f"line {lineno}: expected 'gene <name> : <alleles>'")
        if fields.index(":") != 2:
            raise TopologyError(f"line {lineno}: expected single-token gene name")
        genes.append(Gene(fields[1], tuple(fields[3:])))
    return GeneticTopology(tuple(genes))


def load_topology(path) -> GeneticTopology:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())
