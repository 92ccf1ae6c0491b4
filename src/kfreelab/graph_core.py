"""Labeled graphs on a fixed vertex set, cliques, r-colorability, and partitions.

Graphs live on vertices 0..n-1 with n <= 32, stored as a single integer
bitmask over the C(n,2) vertex pairs in canonical order
(0,1),(0,2),...,(0,n-1),(1,2),...,(n-2,n-1), so neighbor sets fit in one
machine word and clique tests are bit-parallel.

A Partition assigns each vertex a class index in 0..r-1.  Viewing a
partition Pi as a complete r-partite graph, e(Pi) counts its cross pairs
and e(Pi^c) the within-class pairs; the two always add up to C(n,2).

All values are immutable after construction and every operation is a pure
function, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import DomainError, SizeError

__all__ = [
    "MAX_VERTICES",
    "LabeledGraph",
    "Partition",
    "pair_index",
    "pair_table",
    "contains_clique",
    "is_r_colorable",
    "miscolored_edges",
    "enumerate_partitions",
]

MAX_VERTICES = 32

_ENUM_GUARD = 10**8  # cap on min(r, n)**n for partition scans


def pair_table(n: int) -> Tuple[Tuple[int, int], ...]:
    """All vertex pairs (i, j), i < j, in canonical slot order."""
    return tuple((i, j) for i in range(n - 1) for j in range(i + 1, n))


def pair_index(n: int, u: int, v: int) -> int:
    """Slot index of the pair {u, v} in the canonical order."""
    if u == v:
        raise DomainError(f"pair ({u},{v}): self-loops have no slot")
    if u > v:
        u, v = v, u
    if not (0 <= u and v < n):
        raise DomainError(f"pair ({u},{v}): vertex out of range for n={n}")
    # slots for pairs starting at i occupy a block of length n-1-i
    return u * n - u * (u + 1) // 2 + (v - u - 1)


class LabeledGraph:
    """An undirected labeled graph as an edge bitmask; immutable."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: int = 0):
        if not (1 <= n <= MAX_VERTICES):
            raise DomainError(f"n={n}: vertex count must be in 1..{MAX_VERTICES}")
        nslots = n * (n - 1) // 2
        if edges < 0 or edges >> nslots:
            raise DomainError(f"edges=0x{edges:x}: bitmask has bits beyond slot {nslots - 1}")
        self.n = n
        self.edges = edges
        self._adj: Optional[Tuple[int, ...]] = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_edge_list(cls, n: int, pairs: Sequence[Tuple[int, int]]) -> "LabeledGraph":
        mask = 0
        for u, v in pairs:
            bit = 1 << pair_index(n, u, v)
            if mask & bit:
                raise DomainError(f"edge ({u},{v}): duplicate edge")
            mask |= bit
        return cls(n, mask)

    @classmethod
    def complete(cls, n: int) -> "LabeledGraph":
        return cls(n, (1 << (n * (n - 1) // 2)) - 1)

    # -- basic queries ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self.edges.bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.edges >> pair_index(self.n, u, v) & 1)

    def edge_list(self) -> List[Tuple[int, int]]:
        pt = pair_table(self.n)
        mask = self.edges
        out = []
        while mask:
            low = mask & -mask
            out.append(pt[low.bit_length() - 1])
            mask ^= low
        return out

    def adjacency(self) -> Tuple[int, ...]:
        """Per-vertex neighbor bitmasks (cached after first call)."""
        if self._adj is None:
            adj = [0] * self.n
            for u, v in self.edge_list():
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            self._adj = tuple(adj)
        return self._adj

    # -- dunder plumbing --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LabeledGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"LabeledGraph({self.n}, edges=0x{self.edges:x})"


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """An assignment of n vertices to r classes (classes may be empty)."""

    n: int
    r: int
    class_of: Tuple[int, ...]
    class_sizes: Tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.r < 1:
            raise DomainError(f"r={self.r}: need at least one class")
        if len(self.class_of) != self.n:
            raise DomainError(
                f"class_of has {len(self.class_of)} entries for n={self.n} vertices"
            )
        sizes = [0] * self.r
        for v, c in enumerate(self.class_of):
            if not (0 <= c < self.r):
                raise DomainError(f"vertex {v}: class index {c} outside 0..{self.r - 1}")
            sizes[c] += 1
        object.__setattr__(self, "class_sizes", tuple(sizes))

    def cross_edge_mask(self) -> int:
        """Edge bitmask of the complete multipartite graph Pi."""
        mask = 0
        slot = 0
        co = self.class_of
        for i in range(self.n - 1):
            ci = co[i]
            for j in range(i + 1, self.n):
                if ci != co[j]:
                    mask |= 1 << slot
                slot += 1
        return mask


def enumerate_partitions(n: int, r: int) -> Iterator[Partition]:
    """Every set-partition of [n] into at most r classes, exactly once.

    Classes are labeled 0..min(r, n)-1, since n vertices fill at most n
    classes, and each Partition has r = min(r, n).  Canonical
    representative: vertex 0 in class 0, and each new class first used in
    increasing order (restricted-growth strings).  The number of
    partitions yielded equals sum_{k<=r} Stirling2(n, k).
    """
    if n < 1:
        raise DomainError(f"n={n}: need at least one vertex")
    if r < 1:
        raise DomainError(f"r={r}: need at least one class")
    k = min(r, n)
    # 2^n > guard once n reaches its bit length, so no power of a huge n is built
    if (k > 1 and n >= _ENUM_GUARD.bit_length()) or k**n > _ENUM_GUARD:
        raise SizeError(f"n={n}, r={r}: min(r, n)^n exceeds {_ENUM_GUARD}")
    a = [0] * n
    mx = [0] * n  # mx[i] = max(a[0..i])
    while True:
        yield Partition(n, k, tuple(a))
        i = n - 1
        while i > 0 and not (a[i] <= mx[i - 1] and a[i] < k - 1):
            i -= 1
        if i == 0:
            return
        a[i] += 1
        mx[i] = max(mx[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            mx[j] = mx[i]


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------


def _clique_in_mask(adj: Sequence[int], cand: int, k: int) -> bool:
    # Does the subgraph induced on the vertex mask cand contain K_k?
    # Recursive neighbor-mask intersection, candidates restricted to vertices
    # above the last one picked so each clique is visited once.
    if k <= 1:
        return k <= 0 or cand != 0
    while cand:
        if cand.bit_count() < k:
            return False
        low = cand & -cand
        cand ^= low
        if _clique_in_mask(adj, cand & adj[low.bit_length() - 1], k - 1):
            return True
    return False


def contains_clique(g: LabeledGraph, k: int) -> bool:
    """True iff g has k pairwise-adjacent vertices.

    k > n returns False (no clique possible); k <= 0 is vacuously True.
    """
    if k <= 0:
        return True
    if k > g.n:
        return False
    return _clique_in_mask(g.adjacency(), (1 << g.n) - 1, k)


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------


def _bipartite(adj: Sequence[int], n: int) -> bool:
    # Frontier-bitset BFS from the lowest unseen vertex of each component.
    # BFS layers only have edges within a layer or between adjacent layers,
    # so the graph is bipartite iff no vertex has a neighbor in its own layer.
    unseen = (1 << n) - 1
    while unseen:
        frontier = unseen & -unseen
        while frontier:
            unseen ^= frontier
            reach = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nb = adj[low.bit_length() - 1]
                if nb & frontier:
                    return False
                reach |= nb
            frontier = reach & unseen
    return True


def _extendable(adj: Sequence[int], n: int, r: int) -> bool:
    # Backtracking over colour classes, each held as the mask of the vertices
    # with a neighbour in it.  The next vertex has neighbours in the most classes,
    # then the higher degree, then the lower index.  It joins each class it
    # may, then opens one new class while fewer than r are open: unopened
    # colours are interchangeable, so no colouring is tried again under a
    # renaming, and at most n classes ever open.
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))

    def rec(undecided: int, classes: Tuple[int, ...]) -> bool:
        if undecided == 0:
            return True
        # at_least[j]: the undecided vertices with neighbours in >= j classes
        at_least = [undecided]
        for c in classes:
            at_least.append(at_least[-1] & c)
            for j in range(len(at_least) - 2, 0, -1):
                at_least[j] |= at_least[j - 1] & c
        while not at_least[-1]:
            at_least.pop()
        if len(at_least) > r:
            return False  # a vertex has neighbours in all r classes
        most = at_least[-1]
        for v in order:
            if most >> v & 1:
                break
        bit, nb = 1 << v, adj[v]
        rest = undecided ^ bit
        for i, c in enumerate(classes):
            if not c & bit and rec(rest, classes[:i] + (c | nb,) + classes[i + 1:]):
                return True
        return len(classes) < r and rec(rest, classes + (nb,))

    return rec((1 << n) - 1, ())


def _colorable(adj: Sequence[int], n: int, r: int) -> bool:
    # Decision-only r-colorability of the graph with neighbor masks adj.
    return _bipartite(adj, n) if r == 2 else _extendable(adj, n, r)


def is_r_colorable(g: LabeledGraph, r: int) -> bool:
    """True iff g has a proper coloring with r colors."""
    if r < 1:
        raise DomainError(f"r={r}: need at least one color")
    return _colorable(g.adjacency(), g.n, r)


def miscolored_edges(g: LabeledGraph, p: Partition) -> int:
    """Number of edges of g with both endpoints in one class of p."""
    if p.n != g.n:
        raise DomainError(f"partition is over n={p.n} vertices, graph has n={g.n}")
    return (g.edges & ~p.cross_edge_mask()).bit_count()
