"""Graph primitives: cliques, colorability, partitions, and the balance
band.  Small-n behavior is pinned by exhaustive enumeration."""

import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfreelab import census
from kfreelab import (
    DomainError,
    LabeledGraph,
    Partition,
    SizeError,
    contains_clique,
    enumerate_partitions,
    is_r_colorable,
    miscolored_edges,
    pair_sum,
)
from kfreelab.graph_core import _colorable

PETERSEN = LabeledGraph.from_edge_list(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
])


def mycielski(g):
    """Mycielski's construction: vertex i gets a shadow n + i joined to the
    neighbours of i, and every shadow is joined to a new apex 2n.  It keeps
    the graph triangle-free and raises the chromatic number by one."""
    n = g.n
    pairs = list(g.edge_list())
    pairs += [(u, n + v) for a, b in g.edge_list() for u, v in ((a, b), (b, a))]
    pairs += [(n + i, 2 * n) for i in range(n)]
    return LabeledGraph.from_edge_list(2 * n + 1, pairs)


GROTZSCH = mycielski(mycielski(LabeledGraph.complete(2)))  # n = 11, chi = 4
M5 = mycielski(GROTZSCH)  # n = 23, chi = 5


def all_graphs(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        yield LabeledGraph(n, mask)


# -- cliques ----------------------------------------------------------------


def test_contains_clique_fixtures():
    k4 = LabeledGraph.complete(4)
    assert contains_clique(k4, 4) and not contains_clique(k4, 5)
    assert contains_clique(LabeledGraph.complete(5), 5)
    assert not contains_clique(PETERSEN, 3)
    assert contains_clique(k4, 0)  # empty clique always present


def test_contains_iff_count_positive_exhaustive_n5():
    for g in all_graphs(5):
        for k in range(2, 6):
            brute = any(
                all(g.has_edge(u, v) for u, v in combinations(vs, 2))
                for vs in combinations(range(5), k)
            )
            assert contains_clique(g, k) == brute


# -- colorability -----------------------------------------------------------


def test_c5_colorability():
    c5 = LabeledGraph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert is_r_colorable(c5, 2) is False
    assert is_r_colorable(c5, 3) is True


def test_petersen_three_colorable_not_two():
    assert is_r_colorable(PETERSEN, 2) is False
    assert is_r_colorable(PETERSEN, 3) is True


def test_colorable_iff_min_miscolored_zero_exhaustive_n5():
    for g in all_graphs(5):
        for r in (1, 2, 3):
            cost = min(
                miscolored_edges(g, Partition(5, r, c))
                for c in product(range(r), repeat=5)
            )
            assert is_r_colorable(g, r) is (cost == 0)


@pytest.mark.parametrize("g,chi", [(GROTZSCH, 4), (M5, 5)], ids=["grotzsch", "m5"])
def test_mycielski_graphs_need_chi_colours(g, chi):
    assert not contains_clique(g, 3)
    assert is_r_colorable(g, chi - 1) is False
    assert is_r_colorable(g, chi) is True
    assert is_r_colorable(g, 10**8) is True


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_colorable_matches_census_plane_exhaustive_n6(r):
    # the census reads r-colorability off the partition-cover plane, an
    # independent route to the same predicate
    nslots = 15
    tmp = np.empty((2, census._words(nslots)), dtype=np.uint64)
    plane = census._partition_planes(
        census._partition_cross_masks(6, r), nslots, 0, tmp
    )[0]
    masks = np.arange(1 << nslots, dtype=np.int64)
    covered = census._bits(plane, masks)
    for mask in range(1 << nslots):
        assert is_r_colorable(LabeledGraph(6, mask), r) == bool(covered[mask])


def test_huge_r_answers_as_r_equals_n():
    # n colours always suffice, so any r >= n gives the r = n answer; the
    # decider must not size its colour masks by a huge r
    rnd = random.Random(14)
    for _ in range(60):
        n = rnd.randint(1, 8)
        density = rnd.random()
        g = LabeledGraph.from_edge_list(
            n, [e for e in combinations(range(n), 2) if rnd.random() < density]
        )
        assert is_r_colorable(g, 10**8) == is_r_colorable(g, g.n)


def bfs_bipartition_reference(adj, n):
    """Per-edge BFS 2-coloring, the reference for the bitset kernel: True
    iff the graph is bipartite."""
    color = [-1] * n
    for s in range(n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for v in range(n):
                if adj[u] >> v & 1:
                    if color[v] == -1:
                        color[v] = 1 - color[u]
                        queue.append(v)
                    elif color[v] == color[u]:
                        return False
    return True


@st.composite
def two_coloring_cases(draw):
    """Labeled graphs on up to 32 vertices: sparse random graphs (often
    disconnected, with isolated vertices), odd cycles of length 3..31 and
    complete bipartite graphs, each with a few random extra edges."""
    n = draw(st.sampled_from(range(1, 33)))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sparse", "odd_cycle", "complete_bipartite"]))
    edges = set()
    if kind == "odd_cycle" and n >= 3:
        length = draw(st.sampled_from(range(3, n + 1, 2)))
        cyc = rnd.sample(range(n), length)
        edges |= {(cyc[i], cyc[(i + 1) % length]) for i in range(length)}
    elif kind == "complete_bipartite":
        side = [rnd.randrange(3) for _ in range(n)]  # class 2: isolated
        edges |= {(u, v) for u, v in combinations(range(n), 2)
                  if {side[u], side[v]} == {0, 1}}
    extra = [0.03, 0.06, 0.12] if kind == "sparse" else [0.0, 0.01]
    density = draw(st.sampled_from(extra))
    edges |= {(u, v) for u, v in combinations(range(n), 2) if rnd.random() < density}
    return LabeledGraph.from_edge_list(n, sorted({tuple(sorted(e)) for e in edges}))


@settings(max_examples=200, deadline=None)
@given(two_coloring_cases())
def test_bipartition_matches_bfs_reference(g):
    ref = bfs_bipartition_reference(g.adjacency(), g.n)
    assert _colorable(g.adjacency(), g.n, 2) is ref
    assert is_r_colorable(g, 2) is ref


# -- partitions -------------------------------------------------------------


def test_partition_counts():
    assert sum(1 for _ in enumerate_partitions(3, 2)) == 4
    assert sum(1 for _ in enumerate_partitions(4, 4)) == 15  # Bell(4)
    # S(5,1)+S(5,2)+S(5,3) = 1+15+25
    assert sum(1 for _ in enumerate_partitions(5, 3)) == 41


def test_partitions_are_canonical_and_distinct():
    seen = set()
    for p in enumerate_partitions(5, 3):
        assert p.class_of[0] == 0
        # restricted growth: class c appears only after all classes < c
        first = {}
        for v, c in enumerate(p.class_of):
            first.setdefault(c, v)
        assert sorted(first, key=first.get) == sorted(first)
        seen.add(p.class_of)
    assert len(seen) == 41


def test_enumerate_partitions_guard():
    with pytest.raises(SizeError):
        list(enumerate_partitions(30, 4))
    with pytest.raises(SizeError):  # decided without building 2**n
        list(enumerate_partitions(10**400, 2))
    assert len(list(enumerate_partitions(27, 1))) == 1  # 1**n never trips it
    # r > n uses at most n classes, so it scans like r = n: Bell(8) partitions
    assert len(list(enumerate_partitions(8, 11))) == 4140
    # and labels at most n of them, so a huge r is no larger a scan
    for n, r, bell in [(2, 10**9, 2), (1, 10**9, 1), (8, 10**8, 4140)]:
        parts = list(enumerate_partitions(n, r))
        assert len(parts) == bell and {p.r for p in parts} == {n}


def test_cross_plus_within_is_all_pairs():
    k6 = LabeledGraph.complete(6)
    for p in enumerate_partitions(6, 3):
        cross = p.cross_edge_mask().bit_count()
        assert cross == (36 - sum(s * s for s in p.class_sizes)) // 2
        assert cross + miscolored_edges(k6, p) == 15


def test_miscolored_is_within_class_edges():
    g = LabeledGraph.from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    p = Partition(4, 2, (0, 0, 1, 1))
    assert miscolored_edges(g, p) == 2  # edges (0,1) and (2,3)
    assert (g.edges & p.cross_edge_mask()).bit_count() == g.edge_count - 2


# -- balance ----------------------------------------------------------------


def test_balance_band_is_inclusive():
    # n=10, r=2, gamma=0.1: the band is 4..6, so the C(10,4) = 210 splits
    # (4,6) and the C(10,5)/2 = 126 splits (5,5) count and (3,7) does not
    assert pair_sum(10, 2, 0, 0.1) == 210 + 126
    # five classes on four vertices leave one empty, below the band
    assert pair_sum(4, 5, 0, 0.1) == 0


def test_balance_rejects_gamma_at_least_one_over_r():
    with pytest.raises(DomainError, match="gamma"):
        pair_sum(4, 2, 0, 0.5)
    with pytest.raises(DomainError, match="gamma"):
        pair_sum(4, 2, 0, 1.0)
    with pytest.raises(DomainError, match="gamma"):
        pair_sum(8, 47, 0, 0.1)  # 0.1 >= 1/47, although r > n
    with pytest.raises(DomainError, match="r=0"):
        pair_sum(4, 0, 0, 0.1)  # not a division by zero


@pytest.mark.parametrize("r,gamma", [(2, 0.05), (2, 0.1), (3, 0.05), (3, 0.1)])
def test_unbalanced_partitions_lose_cross_pairs(r, gamma):
    # any partition with a class outside the band satisfies
    #   cross(P) <= (1 - 1/r) n^2/2 - gamma^2 r / (2(r-1)) * n^2
    for n in (20, 41, 60):
        cap = (1 - 1 / r) * n * n / 2 - gamma**2 * r / (2 * (r - 1)) * n * n
        lo, hi = (Fraction(1, r) - Fraction(gamma)) * n, (
            Fraction(1, r) + Fraction(gamma)
        ) * n
        for sizes in combinations(range(1, n), r - 1):
            parts = [sizes[0]] + [
                b - a for a, b in zip(sizes, sizes[1:])
            ] + [n - sizes[-1]]
            if all(lo <= s <= hi for s in parts):
                continue
            cross = (n * n - sum(s * s for s in parts)) // 2
            assert cross <= cap + 1e-9


# -- graph type -------------------------------------------------------------


def test_labeled_graph_validation():
    with pytest.raises(DomainError):
        LabeledGraph(33, 0)
    with pytest.raises(DomainError):
        LabeledGraph(3, 1 << 3)  # mask beyond C(3,2) bits
    with pytest.raises(DomainError):
        LabeledGraph.from_edge_list(3, [(0, 1), (1, 0)])


def test_adjacency_and_degree():
    g = LabeledGraph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    assert g.adjacency()[0] == 0b1110
    assert [a.bit_count() for a in g.adjacency()] == [3, 1, 1, 1]
    assert sorted(g.edge_list()) == [(0, 1), (0, 2), (0, 3)]


def test_partition_validation():
    with pytest.raises(DomainError):
        Partition(3, 2, (0, 0))  # wrong length
    with pytest.raises(DomainError):
        Partition(3, 2, (0, 2, 0))  # class out of range
    p = Partition(5, 3, (0, 1, 0, 2, 1))
    assert p.class_sizes == (2, 2, 1)
