import collections
import hashlib
import itertools
import random
from math import factorial

import pytest

from cyclecreate.formats import format_matchings
from cyclecreate.graphs import (
    HamPath,
    PerfectMatching,
    is_creating,
    verify_pairwise_creating,
)
from cyclecreate.reduction import (
    AssociatedTriple,
    associated_triple,
    fixed_graph,
    ground_set_reduce,
    pigeonhole_largest_class,
    strip_to_matchings,
    triple_count,
    verify_fixed_edges_unused,
)
from cyclecreate.search import enumerate_perfect_matchings

IDENTITY_12 = HamPath(range(1, 13))
# Same block classes as the identity path: the two middle-class blocks swap slots.
SWAPPED_MIDDLE_12 = HamPath((1, 2, 9, 10, 5, 6, 7, 8, 3, 4, 11, 12))
# Same block classes again, but the first-class swap moves the path endpoints.
SWAPPED_FIRST_12 = HamPath((7, 8, 3, 4, 5, 6, 1, 2, 9, 10, 11, 12))


def relabelled_path(n, rng):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return HamPath(order)


def sharing_arrangements(base, k, rng, count):
    """`count` paths sharing base's associated triple: each class's blocks are
    shuffled among that class's slots, directions kept.  An arrangement whose
    canonical orientation reverses it has another triple and is drawn again."""
    blocks = [base.order[i:i + k] for i in range(0, base.n, k)]
    triple = associated_triple(base, k)
    out = []
    while len(out) < count:
        slots = [blocks[c::3] for c in range(3)]
        for cls in slots:
            rng.shuffle(cls)
        h = HamPath(v for i in range(len(blocks)) for v in slots[i % 3][i // 3])
        if associated_triple(h, k) == triple:
            out.append(h)
    return out


def random_sharing_pair(rng):
    h1 = relabelled_path(12, rng)
    return h1, sharing_arrangements(h1, 2, rng, 1)[0]


# ------------------------------------------------------------
# associated triples
# ------------------------------------------------------------

def test_associated_triple_identity_path():
    triple = associated_triple(IDENTITY_12, 2)
    assert triple.n == 12 and triple.k == 2
    assert triple.classes == (
        ((1, 2), (7, 8)),
        ((3, 4), (9, 10)),
        ((5, 6), (11, 12)),
    )
    assert {v for block in triple.classes[0] for v in block} == {1, 2, 7, 8}


def test_associated_triple_validation():
    with pytest.raises(ValueError, match="multiple of 3k"):
        associated_triple(HamPath(range(1, 11)), 2)
    with pytest.raises(ValueError, match="at least 2"):
        associated_triple(IDENTITY_12, 1)


def test_associated_triple_is_orientation_sensitive():
    flipped_block = HamPath((2, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12))
    assert associated_triple(flipped_block, 2) != associated_triple(IDENTITY_12, 2)


def test_associated_triple_same_for_reversed_input():
    # reversal canonicalizes back to the identical stored orientation
    assert HamPath(range(12, 0, -1)) == IDENTITY_12
    assert associated_triple(HamPath(range(12, 0, -1)), 2) == associated_triple(IDENTITY_12, 2)


def test_block_swaps_preserve_the_triple():
    base = associated_triple(IDENTITY_12, 2)
    assert associated_triple(SWAPPED_MIDDLE_12, 2) == base
    assert associated_triple(SWAPPED_FIRST_12, 2) == base


def test_fixed_graph_shape():
    triple = associated_triple(IDENTITY_12, 2)
    fg = fixed_graph(triple)
    assert fg.n == 12
    assert fg.edges == frozenset({(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)})
    nine = associated_triple(HamPath(range(1, 10)), 3)
    assert fixed_graph(nine).edges == frozenset(
        {(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9)}
    )


# ------------------------------------------------------------
# triple counting
# ------------------------------------------------------------

def test_triple_count_small_case_by_enumeration():
    # n = 6, k = 2: one directed block per class, so every arrangement of the
    # six vertices into three ordered directed pairs is its own triple.
    distinct = set()
    for perm in itertools.permutations(range(1, 7)):
        distinct.add(
            AssociatedTriple(
                6, 2, (((perm[0], perm[1]),), ((perm[2], perm[3]),), ((perm[4], perm[5]),))
            )
        )
    assert len(distinct) == 720
    assert triple_count(6, 2) == 720


def test_triple_count_closed_form_identity():
    for n, k in ((6, 2), (12, 2), (18, 2), (9, 3), (18, 3), (24, 4)):
        per_class = n // (3 * k)
        assert triple_count(n, k) == factorial(n) // factorial(per_class) ** 3, (n, k)
    assert triple_count(12, 2) == 59875200


def test_triple_count_validation():
    with pytest.raises(ValueError, match="multiple of 3k"):
        triple_count(10, 2)
    with pytest.raises(ValueError, match="at least 2"):
        triple_count(6, 1)


def test_triples_from_paths_land_in_the_counted_set():
    rng = random.Random(31001)
    count = triple_count(6, 2)
    seen = set()
    for _ in range(300):
        order = list(range(1, 7))
        rng.shuffle(order)
        seen.add(associated_triple(HamPath(order), 2))
    assert len(seen) <= count


# ------------------------------------------------------------
# pigeonholing
# ------------------------------------------------------------

def test_pigeonhole_finds_largest_class():
    extras = [
        HamPath((1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 2)),
        HamPath((1, 3, 5, 7, 9, 11, 2, 4, 6, 8, 10, 12)),
    ]
    family = [extras[0], IDENTITY_12, extras[1], SWAPPED_MIDDLE_12]
    subfamily, triple = pigeonhole_largest_class(family, 2)
    assert subfamily == [IDENTITY_12, SWAPPED_MIDDLE_12]
    assert triple == associated_triple(IDENTITY_12, 2)


def test_pigeonhole_tie_breaks_by_smallest_encoding():
    shifted = HamPath((3, 4, 1, 2, 5, 6, 7, 8, 9, 10, 11, 12))
    subfamily, triple = pigeonhole_largest_class([shifted, IDENTITY_12], 2)
    assert subfamily == [IDENTITY_12]
    assert triple == associated_triple(IDENTITY_12, 2)


def test_pigeonhole_empty_family():
    with pytest.raises(ValueError):
        pigeonhole_largest_class([], 2)


# ------------------------------------------------------------
# stripping to matchings
# ------------------------------------------------------------

def test_strip_to_matchings_two_member_class():
    stripped = strip_to_matchings([IDENTITY_12, SWAPPED_MIDDLE_12], 2)
    assert stripped.kept_indices == (0, 1)
    assert stripped.removed == (1, 12)
    assert stripped.label_map == tuple((v, v - 1) for v in range(2, 12))
    assert [tuple(sorted(m.edges)) for m in stripped.matchings] == [
        ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10)),
        ((1, 8), (2, 7), (3, 10), (4, 9), (5, 6)),
    ]
    assert all(m.n == 10 for m in stripped.matchings)
    assert verify_pairwise_creating(stripped.matchings, 4).passed


def test_strip_to_matchings_reconstructs_the_originals():
    stripped = strip_to_matchings([IDENTITY_12, SWAPPED_MIDDLE_12], 2)
    back = {new: old for old, new in stripped.label_map}
    fixed = fixed_graph(associated_triple(IDENTITY_12, 2)).edges
    for member, original in zip(stripped.matchings, (IDENTITY_12, SWAPPED_MIDDLE_12)):
        restored = {tuple(sorted((back[u], back[v]))) for u, v in member.edges}
        assert restored | fixed == original.edges


def test_strip_to_matchings_splits_on_uncovered_pair():
    stripped = strip_to_matchings([IDENTITY_12, SWAPPED_FIRST_12], 2)
    assert stripped.kept_indices == (0,)
    assert stripped.removed == (1, 12)
    assert len(stripped.matchings) == 1


def test_strip_to_matchings_requires_shared_triple():
    with pytest.raises(ValueError, match="share"):
        strip_to_matchings([IDENTITY_12, HamPath((1, 3, 5, 7, 9, 11, 2, 4, 6, 8, 10, 12))], 2)
    with pytest.raises(ValueError):
        strip_to_matchings([], 2)


def test_strip_to_matchings_random_sharing_pairs():
    rng = random.Random(31002)
    for _ in range(200):
        h1, h2 = random_sharing_pair(rng)
        stripped = strip_to_matchings([h1, h2], 2)
        assert len(stripped.matchings) in (1, 2)
        assert all(m.n == 10 for m in stripped.matchings)
        if h1 != h2 and len(stripped.matchings) == 2:
            assert verify_pairwise_creating(stripped.matchings, 4).passed


# With two blocks per class and k = 4, no two triple-sharing paths create a
# C_8 (all six arrangements of the identity path checked), so that case only
# sees the "neither creates" side.
@pytest.mark.parametrize("n, k, creates", [(12, 2, True), (18, 2, True), (27, 3, True), (24, 4, False)])
def test_strip_to_matchings_any_k(n, k, creates):
    # stripping leaves perfect matchings on the 2n/k - 2 block ends, and a
    # kept pair creates a 2k-cycle exactly when its two paths do
    rng = random.Random(31004 + n)
    family = sharing_arrangements(relabelled_path(n, rng), k, rng, 12)
    stripped = strip_to_matchings(family, k)
    fixed = fixed_graph(associated_triple(family[0], k)).edges
    back = {new: old for old, new in stripped.label_map}
    kept = list(zip(stripped.kept_indices, stripped.matchings))
    for i, m in kept:
        assert m.n == 2 * n // k - 2
        assert {tuple(sorted((back[u], back[v]))) for u, v in m.edges} | fixed == family[i].edges
    creating = 0
    for (i, m1), (j, m2) in itertools.combinations(kept, 2):
        h1, h2 = family[i], family[j]
        creating += is_creating(h1, h2, 2 * k)
        assert is_creating(h1, h2, 2 * k) == is_creating(m1, m2, 2 * k), (h1.order, h2.order)
        assert verify_fixed_edges_unused(h1, h2, k)
    assert (creating > 0) == creates


# ------------------------------------------------------------
# shared blocks stay out of created cycles
# ------------------------------------------------------------

def test_fixed_edges_unused_on_designed_pairs():
    assert verify_fixed_edges_unused(IDENTITY_12, SWAPPED_MIDDLE_12, 2)
    assert verify_fixed_edges_unused(IDENTITY_12, SWAPPED_FIRST_12, 2)
    assert verify_fixed_edges_unused(IDENTITY_12, IDENTITY_12, 2)


def test_fixed_edges_unused_requires_shared_triple():
    with pytest.raises(ValueError, match="share"):
        verify_fixed_edges_unused(
            IDENTITY_12, HamPath((1, 3, 5, 7, 9, 11, 2, 4, 6, 8, 10, 12)), 2
        )


def test_fixed_edges_unused_random_trials():
    rng = random.Random(31003)
    for _ in range(1000):
        h1, h2 = random_sharing_pair(rng)
        assert verify_fixed_edges_unused(h1, h2, 2), (h1.order, h2.order)


# ------------------------------------------------------------
# ground set reduction
# ------------------------------------------------------------

def test_ground_set_reduce_complete_graph_triple():
    family = [
        PerfectMatching([(1, 2), (3, 4)]),
        PerfectMatching([(1, 3), (2, 4)]),
        PerfectMatching([(1, 4), (2, 3)]),
    ]
    reduced = ground_set_reduce(family)
    assert reduced.removed == (1, 2)
    assert reduced.kept_indices == (0,)
    assert reduced.label_map == ((3, 1), (4, 2))
    assert [tuple(sorted(m.edges)) for m in reduced.matchings] == [((1, 2),)]


def test_ground_set_reduce_keeps_agreeing_members():
    family = [
        PerfectMatching([(1, 2), (3, 4), (5, 6)]),
        PerfectMatching([(1, 2), (3, 5), (4, 6)]),
        PerfectMatching([(1, 3), (2, 4), (5, 6)]),
    ]
    reduced = ground_set_reduce(family)
    assert reduced.removed == (1, 2)
    assert reduced.kept_indices == (0, 1)
    assert all(m.n == 4 for m in reduced.matchings)
    assert is_creating(reduced.matchings[0], reduced.matchings[1], 4)


def test_ground_set_reduce_validation():
    with pytest.raises(ValueError):
        ground_set_reduce([])
    with pytest.raises(ValueError, match="different ground sets"):
        ground_set_reduce(
            [PerfectMatching([(1, 2), (3, 4)]), PerfectMatching([(1, 2), (3, 4), (5, 6)])]
        )
    with pytest.raises(ValueError, match="at least 4"):
        ground_set_reduce([PerfectMatching([(1, 2)])])


# ------------------------------------------------------------
# golden reductions: the tie-breaks, pinned on seeded corpora
# ------------------------------------------------------------

def strip_corpus(n, rng):
    """k = 2 families: arrangements of one or two relabelled base paths plus
    unrelated paths, shuffled, so triples and uncovered pairs tie."""
    for _ in range(30):
        family = []
        for _ in range(rng.randint(1, 2)):
            family += sharing_arrangements(relabelled_path(n, rng), 2, rng, rng.randint(1, 4))
        family += [relabelled_path(n, rng) for _ in range(rng.randint(0, 3))]
        rng.shuffle(family)
        yield family


def record(reduced):
    return (format_matchings(reduced.matchings), reduced.kept_indices, reduced.removed, reduced.label_map)


def digest(records):
    return hashlib.sha256(repr(records).encode()).hexdigest()


def tied(keys):
    counts = sorted(collections.Counter(keys).values())
    return len(counts) > 1 and counts[-1] == counts[-2]


GOLDEN_STRIP = {
    6: "5dcc34bff8e22d9ce5270688dce299775858fc6fb1408bd7a6785695f8c95247",
    12: "5e21008f492bc720a81c224e5ac5985875ca57512eb18fe6c423ccc1f5aba7c3",
    18: "e44df32bfd929669eac15b1ac1b1974ea8caff04cbadbebd36ee4eedd60c7b12",
}
GOLDEN_SHRINK = "4e6c11851390be4577574ca93315d3cb565366ce14692a28ef5d2f82add32262"


def test_strip_golden_corpus():
    triple_ties = end_ties = 0
    for n, expected in GOLDEN_STRIP.items():
        records = []
        for family in strip_corpus(n, random.Random(31100 + n)):
            subfamily, triple = pigeonhole_largest_class(family, 2)
            triple_ties += tied(associated_triple(h, 2) for h in family)
            end_ties += tied((h.order[0], h.order[-1]) for h in subfamily)
            records.append((triple.classes, record(strip_to_matchings(subfamily, 2))))
        assert digest(records) == expected, n
    assert triple_ties > 0 and end_ties > 0


def test_shrink_golden_corpus():
    rng = random.Random(31200)
    m8 = enumerate_perfect_matchings(8)
    families = [rng.sample(m8, rng.randint(1, 20)) for _ in range(100)]
    assert digest([record(ground_set_reduce(f)) for f in families]) == GOLDEN_SHRINK
    assert sum(tied(m.adjacency[1] for m in f) for f in families) > 0
