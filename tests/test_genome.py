import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoreg.genome import (
    Gene,
    GeneticTopology,
    Genotype,
    TopologyError,
    crossover,
    genome_size,
    load_topology,
    mutate,
    mutate_per_gene,
    parse_topology,
    random_genotype,
)
from tests.conftest import ncd, parse_oracle


class ScriptedRng:
    """Feeds predetermined values to randrange/random calls."""

    def __init__(self, randrange_values=(), random_values=()):
        self.randrange_values = list(randrange_values)
        self.random_values = list(random_values)

    def randrange(self, *args):
        return self.randrange_values.pop(0)

    def random(self):
        return self.random_values.pop(0)


def binary_topology(n_genes):
    return GeneticTopology(
        tuple(Gene(f"g{i}", ("a", "b")) for i in range(n_genes))
    )


@pytest.fixture
def topo232():
    return GeneticTopology(
        (
            Gene("first", ("a", "b")),
            Gene("second", ("x", "y", "z")),
            Gene("third", ("0", "1")),
        )
    )


def test_genome_size_product(topo232):
    assert genome_size(topo232) == 12


def test_genome_size_single_gene():
    topo = GeneticTopology((Gene("only", ("a", "b")),))
    assert genome_size(topo) == 2


def test_genome_size_large_alphabet_product():
    # alphabet sizes 2,2,4,8,6,5,4,3,2 multiply out to 92160
    sizes = (2, 2, 4, 8, 6, 5, 4, 3, 2)
    genes = tuple(
        Gene(f"g{i}", tuple(f"s{i}_{j}" for j in range(size)))
        for i, size in enumerate(sizes)
    )
    assert genome_size(GeneticTopology(genes)) == 92160


def test_invalid_topologies():
    with pytest.raises(TopologyError):
        Gene("g", ("a",))  # too few alleles
    with pytest.raises(TopologyError):
        Gene("g", ("a", "a"))  # duplicate alleles
    for name, alleles in (("g 1", ("a", "b")), ("g", ("a", "b c"))):
        with pytest.raises(TopologyError, match="invalid"):
            Gene(name, alleles)  # whitespace in a name or an allele
    with pytest.raises(TopologyError):
        GeneticTopology(())  # no genes
    with pytest.raises(TopologyError):
        GeneticTopology((Gene("g", ("a", "b")), Gene("g", ("c", "d"))))


def test_genotype_validation(topo232):
    with pytest.raises(TopologyError):
        Genotype(topo232, (0, 0))  # wrong length
    with pytest.raises(TopologyError):
        Genotype(topo232, (0, 3, 0))  # index out of range


def test_genotype_error_messages_and_index_types(topo232):
    """A wrong length, a negative index and one past the alphabet each
    raise their message, naming the first gene at fault; numpy integers
    and bools are indices, rendered as the ints they equal."""
    cases = (((0, 0), "expected 3 gene values, got 2"),
             ((0, 1, 0, 1), "expected 3 gene values, got 4"),
             ((0, -1, 0), "allele index -1 out of range for gene 'second'"),
             ((0, 3, -1), "allele index 3 out of range for gene 'second'"),
             ((2, 0, -1), "allele index 2 out of range for gene 'first'"),
             ((0, 0, -2), "allele index -2 out of range for gene 'third'"),
             ((0, 2, 2), "allele index 2 out of range for gene 'third'"))
    for idx, message in cases:
        with pytest.raises(TopologyError) as info:
            Genotype(topo232, idx)
        assert str(info.value) == message
    g = Genotype(topo232, (np.int64(1), np.int64(2), True))
    assert g.key == "bz1"
    assert g == Genotype(topo232, (1, 2, 1))
    assert Genotype(topo232, (False, np.int64(0), np.intp(0))).key == "ax0"
    with pytest.raises(TopologyError, match="index -1 out of range for gene "
                       "'first'"):
        Genotype(topo232, (np.int64(-1), 0, 0))


def test_random_genotype_uniform():
    topo = binary_topology(1)
    rng = random.Random(42)
    n = 100_000
    ones = sum(random_genotype(topo, rng).allele_index[0] for _ in range(n))
    assert abs(ones / n - 0.5) < 0.01


def test_random_genotype_deterministic(topo232):
    a = random_genotype(topo232, random.Random(7))
    b = random_genotype(topo232, random.Random(7))
    assert a == b


def test_rendered_length():
    topo = binary_topology(7)
    g = random_genotype(topo, random.Random(0))
    assert len(g.render()) == 7


def test_crossover_full_swap():
    topo = binary_topology(4)
    a = Genotype(topo, (0, 0, 0, 0))
    b = Genotype(topo, (1, 1, 1, 1))
    # segment (0, 3) is the (nc-1)-th pair in lexicographic (start, end) order
    c1, c2 = crossover(a, b, ScriptedRng(randrange_values=[3]))
    assert c1 == b and c2 == a


def walked_segment(nc, k):
    """The (i, j) of pair k, pairs in (start, end) order, found by walking
    the rows of pairs that start at each gene: the oracle for the closed
    form in `crossover`."""
    i, row = 0, nc  # number of (i, j) pairs starting at i
    while k >= row:
        k -= row
        row -= 1
        i += 1
    return i, i + k


def test_crossover_segment_matches_row_walk():
    for nc in range(1, 41):
        topo = binary_topology(nc)
        a, b = Genotype(topo, (0,) * nc), Genotype(topo, (1,) * nc)
        for k in range(nc * (nc + 1) // 2):
            i, j = walked_segment(nc, k)
            c1, c2 = crossover(a, b, ScriptedRng(randrange_values=[k]))
            assert c1.allele_index == (0,) * i + (1,) * (j + 1 - i) \
                + (0,) * (nc - 1 - j)
            assert c2.allele_index == tuple(1 - x for x in c1.allele_index)


def test_crossover_identity():
    topo = binary_topology(5)
    a = Genotype(topo, (0, 1, 0, 1, 0))
    c1, c2 = crossover(a, a, random.Random(3))
    assert c1 == a and c2 == a


def test_crossover_inner_segment():
    topo = binary_topology(4)
    a = Genotype(topo, (0, 0, 0, 0))
    b = Genotype(topo, (1, 1, 1, 1))
    # pair index 5 maps to the segment covering genes 1..2
    c1, c2 = crossover(a, b, ScriptedRng(randrange_values=[5]))
    assert c1.allele_index == (0, 1, 1, 0)
    assert c2.allele_index == (1, 0, 0, 1)


def test_crossover_involution():
    topo = GeneticTopology(
        tuple(Gene(f"g{i}", ("a", "b", "c")) for i in range(6))
    )
    rng = random.Random(11)
    n_pairs = 6 * 7 // 2
    for _ in range(50):
        a = random_genotype(topo, rng)
        b = random_genotype(topo, rng)
        k = rng.randrange(n_pairs)
        c1, c2 = crossover(a, b, ScriptedRng(randrange_values=[k]))
        d1, d2 = crossover(c1, c2, ScriptedRng(randrange_values=[k]))
        assert d1 == a and d2 == b


def test_crossover_conserves_alleles_per_position():
    topo = GeneticTopology(
        tuple(Gene(f"g{i}", ("a", "b", "c", "d")) for i in range(5))
    )
    rng = random.Random(13)
    for _ in range(100):
        a = random_genotype(topo, rng)
        b = random_genotype(topo, rng)
        c1, c2 = crossover(a, b, rng)
        for pos in range(5):
            before = {a.allele_index[pos], b.allele_index[pos]}
            after = {c1.allele_index[pos], c2.allele_index[pos]}
            assert before == after


def test_crossover_topology_mismatch():
    """Genotypes with different gene counts make a child that `Genotype`
    refuses, whichever segment is drawn: one too short or too long, or
    one with allele 2 of a two-allele gene."""
    a = Genotype(binary_topology(4), (0, 1, 0, 1))
    three = GeneticTopology(
        tuple(Gene(f"g{i}", ("a", "b", "c")) for i in range(3)))
    b = Genotype(three, (2, 2, 2))
    for seed in range(40):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(TopologyError):
                crossover(x, y, random.Random(seed))


def test_mutate_prob_zero():
    topo = binary_topology(6)
    rng = random.Random(5)
    for _ in range(200):
        g = random_genotype(topo, rng)
        assert mutate(g, 0.0, rng) == g


def test_mutate_prob_one_changes_exactly_one_gene():
    topo = GeneticTopology(
        tuple(Gene(f"g{i}", ("a", "b", "c")) for i in range(5))
    )
    rng = random.Random(9)
    for _ in range(200):
        g = random_genotype(topo, rng)
        mutated = mutate(g, 1.0, rng)
        assert ncd(g, mutated) == 1


def test_mutate_value_semantics():
    topo = binary_topology(4)
    g = Genotype(topo, (0, 1, 0, 1))
    mutate(g, 1.0, random.Random(2))
    assert g.allele_index == (0, 1, 0, 1)


def test_mutate_frequency():
    topo = binary_topology(8)
    rng = random.Random(21)
    g = random_genotype(topo, rng)
    n = 100_000
    changed = sum(mutate(g, 0.25, rng) != g for _ in range(n))
    assert abs(changed / n - 0.25) < 0.01


def test_mutate_targets_other_alleles_uniformly():
    topo = GeneticTopology((Gene("g", ("a", "b", "c", "d")),))
    g = Genotype(topo, (0,))
    rng = random.Random(33)
    n = 60_000
    counts = [0, 0, 0, 0]
    for _ in range(n):
        counts[mutate(g, 1.0, rng).allele_index[0]] += 1
    assert counts[0] == 0
    for c in counts[1:]:
        assert abs(c / n - 1 / 3) < 0.01


def test_mutate_per_gene_flips_independently():
    topo = binary_topology(10)
    g = Genotype(topo, (0,) * 10)
    rng = random.Random(17)
    n = 20_000
    flips = 0
    for _ in range(n):
        flips += ncd(g, mutate_per_gene(g, 0.3, rng))
    assert abs(flips / (n * 10) - 0.3) < 0.01


def test_ncd_basics(topo232):
    a = Genotype(topo232, (0, 1, 0))
    assert ncd(a, a) == 0
    b = Genotype(topo232, (0, 2, 0))
    assert ncd(a, b) == 1


def test_ncd_complementary_binary():
    topo = binary_topology(7)
    a = Genotype(topo, (0,) * 7)
    b = Genotype(topo, (1,) * 7)
    assert ncd(a, b) == 7


def test_ncd_is_a_metric():
    topo = binary_topology(3)
    gs = list(topo.all_genotypes())
    assert len(gs) == 8
    for a in gs:
        for b in gs:
            assert ncd(a, b) == ncd(b, a)
            assert (ncd(a, b) == 0) == (a == b)
            for c in gs:
                assert ncd(a, c) <= ncd(a, b) + ncd(b, c)


# --- topology file format ---------------------------------------------------

TOPOLOGY_TEXT = """\
# demo topology
gene metric : R D
gene kind : T G   # trailing comment
gene op : M E C Q
"""


def test_parse_topology():
    topo = parse_topology(TOPOLOGY_TEXT)
    assert [g.name for g in topo.genes] == ["metric", "kind", "op"]
    assert topo.genes[2].alleles == ("M", "E", "C", "Q")


def test_load_topology(tmp_path):
    path = tmp_path / "demo.cgt"
    path.write_text(TOPOLOGY_TEXT)
    assert load_topology(path) == parse_topology(TOPOLOGY_TEXT)


def test_parse_topology_errors():
    with pytest.raises(TopologyError):
        parse_topology("gene broken\n")
    with pytest.raises(TopologyError):
        parse_topology("gene g : a a\n")
    with pytest.raises(TopologyError):
        parse_topology("allele g : a b\n")
    with pytest.raises(TopologyError, match="line 2: expected single-token"):
        parse_topology("gene g : a b\ngene two words : a b\n")


def test_parse_render_inverse_single_char(topo232):
    for g in topo232.all_genotypes():
        assert topo232.parse(g.render()) == g


def _prefix_free(words):
    """The words, in order, that neither prefix nor extend an earlier one."""
    kept = []
    for w in words:
        if not any(w.startswith(k) or k.startswith(w) for k in kept):
            kept.append(w)
    return tuple(kept[:4])


# 2-5 genes, each of 2-4 alleles of 1-3 characters over one shared small
# alphabet, so that one gene's allele often begins another gene's
_topologies = st.lists(
    st.lists(st.text("abc", min_size=1, max_size=3), min_size=2, max_size=8)
    .map(_prefix_free).filter(lambda alleles: len(alleles) >= 2),
    min_size=2, max_size=5,
).map(lambda alphabets: GeneticTopology(tuple(
    Gene(f"g{i}", alleles) for i, alleles in enumerate(alphabets))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_topologies)
def test_prefix_free_keys_name_one_genotype(topo):
    """Every key of the space parses back to its genotype, and no two
    genotypes share a key."""
    keys = set()
    for g in topo.all_genotypes():
        key = g.render()
        assert topo.parse(key) == g
        keys.add(key)
    assert len(keys) == genome_size(topo)


# every regular-expression metacharacter the key pattern must escape
_METACHARACTERS = "ab.*+?()[]\\|^$"

_metacharacter_topologies = st.lists(
    st.lists(st.text(_METACHARACTERS, min_size=1, max_size=3), min_size=2,
             max_size=8)
    .map(_prefix_free).filter(lambda alleles: len(alleles) >= 2),
    min_size=1, max_size=4,
).map(lambda alphabets: GeneticTopology(tuple(
    Gene(f"g{i}", alleles) for i, alleles in enumerate(alphabets))))


@st.composite
def _keys_and_near_keys(draw):
    """A topology over metacharacter alleles and a text: one of its keys,
    that key with one character deleted, inserted or replaced, cut short
    or extended, or any short text over the same characters."""
    topo = draw(_metacharacter_topologies)
    key = Genotype(topo, tuple(draw(st.integers(0, len(g.alleles) - 1))
                               for g in topo.genes)).render()
    i = draw(st.integers(0, len(key)))
    c = draw(st.sampled_from(_METACHARACTERS))
    text = draw(st.sampled_from([
        key, key[:i] + key[i + 1:], key[:i] + c + key[i:],
        key[:i] + c + key[i + 1:], key[:i], key + c,
        draw(st.text(_METACHARACTERS, max_size=8)),
    ]))
    return topo, text


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_keys_and_near_keys())
def test_key_pattern_agrees_with_the_left_to_right_parser(case):
    """The compiled key pattern accepts exactly the texts that the
    left-to-right parser reads, and parse returns the same alleles."""
    topo, text = case
    expected = parse_oracle(topo, text)
    assert (topo.key_pattern.fullmatch(text) is not None) == \
        (expected is not None)
    if expected is None:
        with pytest.raises(ValueError, match="cannot parse"):
            topo.parse(text)
    else:
        assert topo.parse(text).allele_index == expected


def test_parse_has_no_depth_limit():
    """parse is one match of a pattern with a group per gene: a topology far
    deeper than the interpreter's recursion limit parses."""
    topo = GeneticTopology(tuple(
        Gene(f"g{i}", ("a", "ba", "bb")) for i in range(1200)))
    g = random_genotype(topo, random.Random(5))
    assert topo.parse(g.render()) == g


def test_allele_prefix_of_another_is_rejected():
    """With `a` and `ab` in one gene, `a`+`bc` and `ab`+`c` would both
    render `abc`: such a gene is refused, by name, wherever it is built."""
    with pytest.raises(TopologyError, match="'a' is a prefix of 'ab'.*'g0'"):
        Gene("g0", ("ab", "a"))
    with pytest.raises(TopologyError, match="'a' is repeated.*'g0'"):
        Gene("g0", ("a", "b", "a"))
    with pytest.raises(TopologyError, match="'g0'"):
        parse_topology("gene g0 : a ab\ngene g1 : bc c\n")
    # one allele extending another across genes is fine
    topo = parse_topology("gene g0 : a b\ngene g1 : ab c\n")
    assert topo.parse("aab") == Genotype(topo, (0, 0))


def test_parse_render_inverse_multichar_unambiguous():
    # distinct first characters keep concatenation parseable without separator
    topo = GeneticTopology(
        (Gene("g0", ("ab", "cd")), Gene("g1", ("x", "yz")))
    )
    for g in topo.all_genotypes():
        assert topo.parse(g.render()) == g


def test_genotype_key_is_not_part_of_its_value():
    """The rendering is built with the genotype and kept as its key;
    equality, hashing, copies and pickles see only the topology and the
    alleles, and a clone keeps the original's key."""
    topo = GeneticTopology(
        (Gene("g0", ("ab", "cd")), Gene("g1", ("x", "yz", "w")))
    )
    g = Genotype(topo, (1, 1))
    other = Genotype(topo, (1, 1))
    assert g.key == "cdyz" and g.render() is g.key
    assert g == other and hash(g) == hash(other)
    assert g != Genotype(topo, (1, 2))
    assert "key" not in repr(g)
    # a different key does not change what the genotype is equal to
    object.__setattr__(other, "key", "elsewhere")
    assert g == other and hash(g) == hash(other)
    for clone in (copy.copy(g), copy.deepcopy(g),
                  pickle.loads(pickle.dumps(g))):
        assert clone == g and hash(clone) == hash(g)
        assert clone.key == g.key == "cdyz"
    assert {g: 1}[other] == 1


def test_parse_rejects_garbage(topo232):
    with pytest.raises(ValueError):
        topo232.parse("wrong")
