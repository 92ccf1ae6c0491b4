"""Exact Turán numbers, Turán graphs, and the multipartite variant.

For a complete r-partite host K(n_1,...,n_r) with sorted class sizes, the
maximum number of edges of a K_r-free subgraph is e(host) - n_1*n_2, and
an extremal subgraph is the host minus all edges between the two smallest
classes.  A branch-and-bound brute-force oracle over edge subsets is kept
alongside for verification on hosts with few edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import DomainError, SizeError
from .graph_core import LabeledGraph, Partition, contains_clique
from .graph_core import _clique_in_mask  # shared clique-in-mask kernel

__all__ = [
    "MultipartiteHost",
    "ex_turan",
    "turan_graph",
    "ex_multipartite",
    "extremal_multipartite_graph",
    "brute_force_ex",
]

_BRUTE_EDGE_BUDGET = 24
_EXHAUSTIVE_EDGE_BUDGET = 13


def balanced_sizes(n: int, r: int) -> Tuple[int, ...]:
    """Class sizes of the balanced complete r-partite graph on n vertices
    (n mod r classes of size ceil(n/r), the rest floor(n/r))."""
    if r < 1:
        raise DomainError(f"r={r}: need at least one class")
    q, rem = divmod(n, r)
    return tuple([q + 1] * rem + [q] * (r - rem))


def ex_turan(n: int, k: int) -> int:
    """Max edges of a K_k-free graph on n vertices: e of the balanced
    complete (k-1)-partite graph, in closed form over its rem classes of
    size q+1 and k-1-rem of size q."""
    if k < 2:
        raise DomainError(f"k={k}: the forbidden clique K_k needs k >= 2")
    if n < 0:
        raise DomainError(f"n={n}: vertex count cannot be negative")
    q, rem = divmod(n, k - 1)
    return math.comb(n, 2) - rem * math.comb(q + 1, 2) - (k - 1 - rem) * math.comb(q, 2)


def _complete_multipartite(class_of: Sequence[int]) -> LabeledGraph:
    """The complete multipartite graph with vertex v in class class_of[v]."""
    n = len(class_of)
    return LabeledGraph(n, Partition(n, max(class_of) + 1, tuple(class_of)).cross_edge_mask())


def _blocks(sizes: Sequence[int]) -> List[int]:
    """Class index of each vertex when the classes are consecutive blocks."""
    return [i for i, s in enumerate(sizes) for _ in range(s)]


def turan_graph(n: int, r: int) -> LabeledGraph:
    """The balanced complete r-partite graph, vertex v in class v mod r."""
    if r < 1:
        raise DomainError(f"r={r}: need at least one class")
    if n < 1:
        raise DomainError(f"n={n}: need at least one vertex")
    return _complete_multipartite([v % r for v in range(n)])


@dataclass(frozen=True)
class MultipartiteHost:
    """Class sizes of a complete r-partite host, sorted ascending on entry."""

    sizes: Tuple[int, ...]

    def __init__(self, sizes):
        object.__setattr__(self, "sizes", tuple(sorted(sizes)))
        if len(self.sizes) < 2:
            raise DomainError(f"sizes={self.sizes}: need r >= 2 classes")
        if any(s < 1 for s in self.sizes):
            raise DomainError(f"sizes={self.sizes}: every class needs >= 1 vertex")

    @property
    def r(self) -> int:
        return len(self.sizes)

    def total_vertices(self) -> int:
        return sum(self.sizes)

    def edge_count(self) -> int:
        s = self.sizes
        return sum(s[i] * s[j] for i in range(len(s)) for j in range(i + 1, len(s)))

    def complete_graph(self) -> LabeledGraph:
        """The complete r-partite host itself, classes as consecutive blocks."""
        return _complete_multipartite(_blocks(self.sizes))


def ex_multipartite(host: MultipartiteHost) -> int:
    """Max edges of a K_r-free subgraph of the complete r-partite host:
    e(host) - n_1*n_2 with n_1 <= n_2 the two smallest classes."""
    return host.edge_count() - host.sizes[0] * host.sizes[1]


def extremal_multipartite_graph(host: MultipartiteHost) -> LabeledGraph:
    """Complete r-partite host minus every edge between the two smallest
    classes, that is, the complete (r-1)-partite graph with those two
    classes merged; K_r-free with exactly ex_multipartite(host) edges."""
    g = _complete_multipartite([max(c - 1, 0) for c in _blocks(host.sizes)])
    assert g.edge_count == ex_multipartite(host)
    return g


def brute_force_ex(host_graph: LabeledGraph, k: int, exhaustive: bool = False) -> int:
    """Maximum edge count of a K_k-free subgraph of host_graph.

    Depth-first over edge subsets with branch-and-bound (include-branch
    first so the incumbent rises quickly; prune when the remaining edges
    cannot beat it).  With exhaustive=True every subset is scanned instead,
    which is only allowed for hosts with at most 13 edges.
    """
    if k < 2:
        raise DomainError(f"k={k}: the forbidden clique K_k needs k >= 2")
    edges = host_graph.edge_list()
    budget = _EXHAUSTIVE_EDGE_BUDGET if exhaustive else _BRUTE_EDGE_BUDGET
    if len(edges) > budget:
        raise SizeError(
            f"host has {len(edges)} edges, over the budget {budget}"
            f"{' (exhaustive mode)' if exhaustive else ''}"
        )
    n = host_graph.n

    if exhaustive:
        best = 0
        for sub in range(1 << len(edges)):
            if sub.bit_count() <= best:
                continue
            g = LabeledGraph.from_edge_list(
                n, [e for i, e in enumerate(edges) if sub >> i & 1]
            )
            if not contains_clique(g, k):
                best = sub.bit_count()
        return best

    adj = [0] * n  # adjacency of the chosen subgraph, mutated along the DFS
    best = 0

    def dfs(i: int, chosen: int) -> None:
        nonlocal best
        if chosen + (len(edges) - i) <= best:
            return
        if i == len(edges):
            best = chosen
            return
        u, v = edges[i]
        # adding u-v creates a K_k iff their common neighbors hold a K_{k-2}
        if not _clique_in_mask(adj, adj[u] & adj[v], k - 2):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            dfs(i + 1, chosen + 1)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        dfs(i + 1, chosen)

    dfs(0, 0)
    return best
