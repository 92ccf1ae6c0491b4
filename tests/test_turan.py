"""Extremal numbers: classical and multipartite, formula vs brute force."""

import math
from itertools import combinations_with_replacement

import pytest

from kfreelab import (
    DomainError,
    LabeledGraph,
    MultipartiteHost,
    SizeError,
    balanced_sizes,
    brute_force_ex,
    contains_clique,
    ex_multipartite,
    ex_turan,
    extremal_multipartite_graph,
    turan_graph,
)


def test_mantel():
    for n in range(2, 41):
        assert ex_turan(n, 3) == n * n // 4


def test_ex_turan_small_fixtures():
    assert ex_turan(5, 3) == 6
    assert ex_turan(7, 4) == 16
    assert ex_turan(4, 5) == 6  # k > n: nothing to forbid


def test_ex_turan_closed_form_matches_class_sizes():
    for n in range(41):
        for k in range(2, 46):
            sizes = balanced_sizes(n, k - 1)
            assert ex_turan(n, k) == math.comb(n, 2) - sum(math.comb(s, 2) for s in sizes)


def test_ex_turan_cost_does_not_grow_with_k():
    assert ex_turan(10, 10**400) == 45  # k - 1 classes are never built


def test_ex_turan_errors():
    with pytest.raises(DomainError):
        ex_turan(10, 1)
    with pytest.raises(DomainError):
        ex_turan(-1, 3)


@pytest.mark.parametrize("n,r", [(5, 2), (7, 3), (10, 4), (6, 6), (3, 5)])
def test_turan_graph_is_extremal_witness(n, r):
    t = turan_graph(n, r)
    assert t.edge_count == ex_turan(n, r + 1)
    assert not contains_clique(t, r + 1)
    if r <= n:
        assert contains_clique(t, r)


def test_balanced_sizes():
    assert tuple(balanced_sizes(7, 3)) == (3, 2, 2)
    assert tuple(balanced_sizes(6, 3)) == (2, 2, 2)
    assert sum(balanced_sizes(23, 5)) == 23


def test_host_sorts_and_validates():
    h = MultipartiteHost((3, 1, 2))
    assert h.sizes == (1, 2, 3)
    assert h.r == 3
    assert h.total_vertices() == 6
    assert h.edge_count() == 1 * 2 + 1 * 3 + 2 * 3
    with pytest.raises(DomainError):
        MultipartiteHost((2,))
    with pytest.raises(DomainError):
        MultipartiteHost((0, 2))


def test_ex_multipartite_fixtures():
    assert ex_multipartite(MultipartiteHost((2, 2, 2))) == 8
    assert ex_multipartite(MultipartiteHost((1, 2, 3))) == 9
    assert ex_multipartite(MultipartiteHost((1, 1))) == 0
    assert ex_multipartite(MultipartiteHost((4, 4))) == 0


@pytest.mark.parametrize("sizes", [(1, 1), (2, 2), (1, 2, 3), (2, 2, 2), (2, 2, 3)])
def test_extremal_construction_achieves_the_bound(sizes):
    h = MultipartiteHost(sizes)
    g = extremal_multipartite_graph(h)
    assert g.edge_count == ex_multipartite(h)
    assert not contains_clique(g, h.r)
    # subgraph of the complete host
    assert g.edges & ~h.complete_graph().edges == 0


def test_brute_force_small_hosts():
    for sizes in [(1, 1), (2, 2), (1, 1, 1), (2, 2, 2), (1, 2, 3)]:
        h = MultipartiteHost(sizes)
        assert brute_force_ex(h.complete_graph(), h.r) == ex_multipartite(h)


def test_brute_force_exhaustive_flag_agrees():
    for sizes in [(2, 2), (1, 1, 2), (2, 2, 2), (1, 2, 3)]:
        h = MultipartiteHost(sizes)
        g = h.complete_graph()
        if g.edge_count <= 13:
            assert brute_force_ex(g, h.r, exhaustive=True) == brute_force_ex(g, h.r)


def test_brute_force_on_plain_graphs():
    # max triangle-free subgraph of K_5 has ex(5,3)=6 edges
    assert brute_force_ex(LabeledGraph.complete(5), 3) == 6
    assert brute_force_ex(LabeledGraph.complete(5), 3, exhaustive=True) == 6


def test_brute_force_budgets():
    with pytest.raises(SizeError):
        brute_force_ex(LabeledGraph.complete(8), 3)  # 28 edges > 24
    with pytest.raises(SizeError):
        brute_force_ex(LabeledGraph.complete(6), 3, exhaustive=True)  # 15 > 13


def test_all_sorted_vectors_up_to_12_cross_pairs():
    # quick version of the full acceptance sweep
    seen = 0
    for r in (2, 3, 4):
        for sizes in combinations_with_replacement(range(1, 5), r):
            h = MultipartiteHost(sizes)
            if h.edge_count() <= 12:
                assert brute_force_ex(h.complete_graph(), h.r) == ex_multipartite(h)
                seen += 1
    assert seen >= 10
