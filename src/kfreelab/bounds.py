"""Probability bounds for clique-avoidance events in random edge subsets.

The central object is a ForbiddenFamily: subsets B_i of a ground set of N
edge slots.  Draw a uniformly random m-subset R of the slots and let the
avoidance event be "no B_i is fully inside R".  With p = m/N,

    mu    = sum_i p^|B_i|,
    Delta = sum over ordered pairs i != j with B_i meet B_j nonempty
            of p^|B_i union B_j|,

the hypergeometric Janson inequality gives, for any q in [0,1],
Pr(avoid) <= 2*exp(-q*mu + q^2*Delta/2); we evaluate it at the exponent's
unconstrained minimizer q = mu/Delta clamped into [0,1].  The matching
hypergeometric FKG lower bound (valid for m <= floor(N/2)) is

    Pr(avoid) >= prod_i (1 - ((1+eta)m/N)^|B_i|) - exp(-eta^2*m/4).

Both are sandwich-tested against an exact inclusion-exclusion oracle.

The module also provides the forbidden families arising from a fixed
r-partition (near-clique completions of a missing within-class edge),
closed-form mu/Delta bounds for those families, the d-sets tail bound
with its tau recipe, a one-sided hypergeometric Hoeffding bound, the
stepwise hypergraph regularization procedure with usefulness flags, and
the back-of-envelope criticality probe P*m for the colorability
threshold.

All probability outputs are clamped to [0,1] at the API boundary; the
exact-rational mode (Fraction arithmetic) is available where sandwich
tests need it.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, islice, product
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, SizeError
from .graph_core import LabeledGraph, Partition, pair_table
from .turan import ex_turan

__all__ = [
    "ForbiddenFamily",
    "MuDelta",
    "RegularizationParams",
    "DsetsBound",
    "mu_delta_exact",
    "janson_upper",
    "fkg_lower",
    "avoidance_probability_exact",
    "krminus_family",
    "mu_delta_closed_form",
    "dsets_tail_bound",
    "hypergeom_hoeffding",
    "construct_regularized_hypergraph",
    "heuristic_threshold_probe",
    "family_to_json",
    "family_from_json",
]

Number = Union[float, Fraction]

_IE_TERM_GUARD = 1 << 20
_ENUM_GUARD = 10**7
# math.comb(n, k) of b bits took (b**1.6 + 2*k*k) * 3e-11 s within 0.5-1.3x from 5e4
# to 1.3e7 bits (Python 3.11, 2-core x86 host): the exact oracle's budget is ~3 s
_BINOMIAL_WORK_BUDGET = 10**11
_ENUM_CHUNK_WORDS = 1 << 14  # 128 KiB: the largest array the enumeration builds
_WORD = (1 << 64) - 1


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class ForbiddenFamily:
    """A multiset of nonempty subsets of an N-slot ground set.

    When the family arises from a partition, slot_edges maps each slot
    index to its vertex pair.
    """

    ground_size: int
    sets: Tuple[Tuple[int, ...], ...]
    slot_edges: Optional[Tuple[Tuple[int, int], ...]] = None

    def __post_init__(self) -> None:
        if not _is_int(self.ground_size):
            raise DomainError(f"ground_size={self.ground_size!r}: must be an integer")
        if self.ground_size < 0:
            raise DomainError(f"ground_size={self.ground_size}: cannot be negative")
        canon = []
        for b in self.sets:
            if len(b) == 0:
                raise DomainError("empty forbidden set: the avoidance event would be void")
            if not all(_is_int(i) for i in b):
                raise DomainError(f"set {b}: slot indices must be integers")
            if any(not 0 <= i < self.ground_size for i in b):
                raise DomainError(
                    f"set {b}: slot index outside 0..{self.ground_size - 1}"
                )
            if len(set(b)) != len(b):
                raise DomainError(f"set {b}: repeated slot index")
            canon.append(tuple(sorted(b)))
        object.__setattr__(self, "sets", tuple(canon))

    def masks(self) -> List[int]:
        out = []
        for b in self.sets:
            m = 0
            for i in b:
                m |= 1 << i
            out.append(m)
        return out

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class MuDelta:
    """First and second moment-type quantities at slot density p."""

    mu: Number
    delta: Number
    p: Number

    def __post_init__(self) -> None:
        if self.mu < 0 or self.delta < 0:
            raise DomainError(
                f"mu={self.mu}, delta={self.delta}: both must be nonnegative"
            )


@dataclass(frozen=True)
class RegularizationParams:
    """Knobs of the stepwise hypergraph regularization.

    c2 is the degree-cap multiplier, dstar the per-class neighborhood
    size, lam the usefulness budget (the canonical choice is 2^-(r+1)).
    """

    c2: float
    dstar: int
    lam: float

    def __post_init__(self) -> None:
        if self.c2 <= 0:
            raise DomainError(f"c2={self.c2}: must be positive")
        if self.dstar < 1:
            raise DomainError(f"dstar={self.dstar}: must be a positive integer")
        if not 0 < self.lam < 1:
            raise DomainError(f"lam={self.lam}: must lie in (0,1)")


# ---------------------------------------------------------------------------
# exact and bounding machinery on families
# ---------------------------------------------------------------------------


def mu_delta_exact(fam: ForbiddenFamily, m: int, *, exact: bool = False) -> MuDelta:
    """mu and Delta by exhaustive ordered-pair enumeration at p = m/N.

    With exact=True all arithmetic is rational (Fraction), for sandwich
    tests that must not be confounded by rounding.
    """
    n = fam.ground_size
    if n < 1:
        raise DomainError(f"ground_size={n}: the density p = m/N needs N >= 1")
    if not 0 <= m <= n:
        raise DomainError(f"m={m}: must lie in 0..{n} (ground_size)")
    p: Number = Fraction(m, n) if exact else m / n
    mu = sum(p ** len(b) for b in fam.sets)
    masks = fam.masks()
    union_counts: Counter = Counter()
    for i in range(len(masks)):
        mi = masks[i]
        for j in range(i + 1, len(masks)):
            if mi & masks[j]:
                union_counts[(mi | masks[j]).bit_count()] += 2  # ordered pairs
    delta = sum(cnt * p**e for e, cnt in union_counts.items())
    zero = Fraction(0) if exact else 0.0
    return MuDelta(mu=mu + zero, delta=delta + zero, p=p)


def janson_upper(md: MuDelta) -> float:
    """2*exp(-q*mu + q^2*Delta/2) at q = min(1, mu/Delta), clamped to [0,1].

    Delta = 0 uses q = 1 (the exponent is then linear in q).
    """
    mu = float(md.mu)
    delta = float(md.delta)
    q = 1.0 if delta == 0 else min(1.0, mu / delta)
    return min(1.0, 2.0 * math.exp(-q * mu + q * q * delta / 2))


def fkg_lower(fam: ForbiddenFamily, m: int, eta: float) -> float:
    """Correlation lower bound on the avoidance probability, floored at 0.

    Hypotheses enforced, never extrapolated: m <= floor(N/2) and
    (1+eta)m/N <= 1, with eta in (0,1).
    """
    n = fam.ground_size
    if n < 1:
        raise DomainError(f"ground_size={n}: the density (1+eta)m/N needs N >= 1")
    if not 0 < eta < 1:
        raise DomainError(f"eta={eta}: must lie in (0,1)")
    if m < 0 or m > n // 2:
        raise DomainError(f"m={m}: the bound requires 0 <= m <= floor(N/2) = {n // 2}")
    q = (1 + eta) * m / n
    if q > 1:
        raise DomainError(f"eta={eta}, m={m}: (1+eta)m/N = {q} exceeds 1")
    prod = 1.0
    for b in fam.sets:
        prod *= 1 - q ** len(b)
    return max(0.0, prod - math.exp(-eta * eta * m / 4))


def avoidance_probability_exact(fam: ForbiddenFamily, m: int) -> Fraction:
    """Exact fraction of m-subsets of the ground set containing no B_i.

    Inclusion-exclusion over an antichain reduction of the family (equal
    sets deduplicated, supersets of another set dropped — neither changes
    the avoidance event).  Falls back to direct enumeration when the
    family is too large for IE but C(N,m) is small; it tests the subsets in
    numpy chunks of bounded memory, whatever C(N,m) and N are.  SizeError,
    before any binomial is built, when they would pass _BINOMIAL_WORK_BUDGET.
    """
    n = fam.ground_size
    if not 0 <= m <= n:
        raise DomainError(f"m={m}: must lie in 0..{n} (ground_size)")
    masks = sorted(set(fam.masks()), key=lambda x: x.bit_count())
    antichain: List[int] = []
    for mk in masks:
        if not any(mk & a == a for a in antichain):
            antichain.append(mk)
    f = len(antichain)
    terms: List[Tuple[int, int]] = []
    if 1 << f <= _IE_TERM_GUARD:
        # C(n - u, m - u) depends on u = |union of S| alone, so IE needs one
        # binomial per u: coef[u] sums (-1)^(|S|+1) over the nonempty S
        coef = [0] * (min(m, reduce(int.__or__, antichain, 0).bit_count()) + 1)

        def walk(start: int, union: int, sign: int) -> None:
            # S = the sets behind union, each extended by one later set j
            for j in range(start, f):
                v = union | antichain[j]
                u = v.bit_count()
                if u <= m:  # else every superset's union is even larger
                    coef[u] += sign
                    walk(j + 1, v, -sign)

        walk(0, 0, 1)
        terms = [(u, c) for u, c in enumerate(coef) if c]
    # log2 C(n, m), the largest binomial, before any is built (past 2^52,
    # lgamma(n + 1) cancels away, and C(n, k) <= n^k / k! is tight for k << n)
    k = min(m, n - m)
    ln_c = math.lgamma(n + 1) - math.lgamma(n - k + 1) if n < 1 << 52 else k * math.log(n)
    bits = max(0.0, ln_c - math.lgamma(k + 1)) / math.log(2)
    if (1 + len(terms)) * (bits**1.6 + 2.0 * k * k) > _BINOMIAL_WORK_BUDGET:
        raise SizeError(f"C({n},{m}) of about {bits:.0f} bits: over the exact oracle's budget")
    total = math.comb(n, m)
    if 1 << f <= _IE_TERM_GUARD:
        containing = sum(c * math.comb(n - u, m - u) for u, c in terms)
        return Fraction(total - containing, total)

    if total <= _ENUM_GUARD:
        # Walk the m-subsets, or their complements when shorter, `rows` at a
        # time.  Row i of `out` holds word used[i] (slots 64w..64w+63) of the
        # slots each subset leaves out; no array outgrows _ENUM_CHUNK_WORDS.
        split = [{w: x for w in range(b.bit_length() + 63 >> 6) if (x := b >> 64 * w & _WORD)}
                 for b in antichain]
        used = sorted(set().union(*split))
        row = {w: i for i, w in enumerate(used)}
        sets = [[(row[w], np.uint64(x)) for w, x in parts.items()] for parts in split]
        cols = min(m, n - m)
        rows = max(1, _ENUM_CHUNK_WORDS // max(cols, len(used)))
        subsets = combinations(range(n), cols)
        good = 0
        for start in range(0, total, rows):
            k = min(rows, total - start)
            slot = np.fromiter(
                chain.from_iterable(islice(subsets, k)), dtype=np.uint64, count=k * cols
            ).reshape(k, cols)
            out = np.zeros((len(used), k), dtype=np.uint64)
            for col in slot.T:
                for i, w in enumerate(used):
                    # slots outside word w wrap to shifts of 64 or more, which give 0
                    out[i] |= np.uint64(1) << (col - np.uint64(64 * w))
            if cols == m:
                np.invert(out, out=out)  # from the slots a subset holds to those it leaves out
            free = np.full(k, _WORD, dtype=np.uint64)
            for parts in sets:
                # nonzero iff the subset leaves out a slot of this set
                miss = reduce(np.bitwise_or, [out[i] & x for i, x in parts])
                np.minimum(free, miss, out=free)  # stays nonzero while every set is missed
            good += int(np.count_nonzero(free))
        return Fraction(good, total)

    raise SizeError(
        f"family of {f} minimal sets with C({n},{m}) > {_ENUM_GUARD} subsets: "
        f"both exact strategies exceed their guards"
    )


# ---------------------------------------------------------------------------
# families induced by a partition
# ---------------------------------------------------------------------------


def _cross_slots(p: Partition) -> Tuple[Tuple[Tuple[int, int], ...], Dict[Tuple[int, int], int]]:
    """Cross pairs of the partition in canonical pair order, with slot ranks."""
    edges = []
    index = {}
    for u, v in pair_table(p.n):
        if p.class_of[u] != p.class_of[v]:
            index[(u, v)] = len(edges)
            edges.append((u, v))
    return tuple(edges), index


def _slot_of(index: Dict[Tuple[int, int], int], u: int, v: int) -> int:
    return index[(u, v) if u < v else (v, u)]


def krminus_family(p: Partition, missing_edge: Tuple[int, int]) -> ForbiddenFamily:
    """Near-clique completions of one within-class vertex pair.

    For a pair {v,w} inside class i, each choice of one vertex per other
    class spans a clique on r+1 vertices whose edges, minus the missing
    pair itself, all cross the partition: a forbidden set of C(r+1,2)-1
    cross slots.  Family size is the product of the other class sizes.
    """
    v, w = missing_edge
    if v == w:
        raise DomainError(f"missing_edge=({v},{w}): endpoints must differ")
    ci = p.class_of[v]
    if p.class_of[w] != ci:
        raise DomainError(
            f"missing_edge=({v},{w}): endpoints lie in classes "
            f"{p.class_of[v]} and {p.class_of[w]}, not one class"
        )
    slot_edges, index = _cross_slots(p)
    members = [
        [x for x in range(p.n) if p.class_of[x] == c]
        for c in range(p.r)
        if c != ci
    ]
    sets = []
    for chosen in product(*members):
        verts = [v, w, *chosen]
        slots = [
            _slot_of(index, a, b)
            for a, b in combinations(verts, 2)
            if {a, b} != {v, w}
        ]
        sets.append(tuple(sorted(slots)))
    return ForbiddenFamily(ground_size=len(slot_edges), sets=tuple(sets), slot_edges=slot_edges)


# ---------------------------------------------------------------------------
# closed-form mu / Delta for the near-clique family of a monochromatic U
# ---------------------------------------------------------------------------


def mu_delta_closed_form(
    p_partition: Partition,
    u_graph: LabeledGraph,
    p: Number,
    *,
    exact: bool = False,
) -> MuDelta:
    """Closed-form mu lower bound and Delta upper bound for the union of
    near-clique families over every edge of u_graph (all within-class).

    Writing N_s for the maximum product of s class sizes and c=C(r+1,2),
    the per-pair-of-missing-edges contributions are bounded by

      D1 (same class, disjoint)        sum_{s=2}^{r-1} C(r-1,s) N_s N_{r-s-1}^2 p^(2c-C(s,2)-2)
      D2 (same class, shared endpoint) sum_{s=1}^{r-1} C(r-1,s) N_s N_{r-s-1}^2 p^(2c-C(s+1,2)-2)
      D3 (identical missing edge)      sum_{s=1}^{r-2} C(r-1,s) N_s N_{r-s-1}^2 p^(2c-C(s+2,2)-1)
      D4 (different classes)           sum_{s=2}^{r-2} C(r-2,s) N_s N_{r-s-1}^2 p^(2c-C(s,2)-2)
                                     + 4 sum_{s=1}^{r-2} C(r-2,s) N_s N_{r-s-1} N_{r-s-2} p^(2c-C(s+1,2)-2)
                                     + 4 sum_{s=0}^{r-2} C(r-2,s) N_s N_{r-s-2}^2 p^(2c-C(s+2,2)-2)

    (s counts shared vertices outside the class(es) holding the missing
    edges; D3 vanishes for r < 3).  Every sum is kept in full — no
    asymptotic truncation — so the upper-bound direction survives at any
    finite size.

    Delta multiplies each D_k by the exact number of ordered missing-edge
    pairs of its type in u_graph, which is what makes a single missing
    edge give Delta = 0 when r = 2.
    mu_lower = e(U) * (min class size)^(r-1) * p^(c-1).

    exact=True keeps everything rational; p must then be Fraction-convertible.
    """
    r = p_partition.r
    if r < 2:
        raise DomainError(f"r={r}: need at least two classes")
    if u_graph.n != p_partition.n:
        raise DomainError(
            f"graph has n={u_graph.n} but partition covers n={p_partition.n}"
        )
    pv: Number = Fraction(p) if exact else float(p)
    if pv < 0 or pv > 1:
        raise DomainError(f"p={p}: slot density must lie in [0,1]")
    edges = u_graph.edge_list()
    cls = p_partition.class_of
    for u, v in edges:
        if cls[u] != cls[v]:
            raise DomainError(
                f"edge ({u},{v}) crosses classes {cls[u]} and {cls[v]}: "
                f"u_graph must be monochromatic"
            )
    e_u = len(edges)
    c = math.comb(r + 1, 2)
    sizes = p_partition.class_sizes

    desc = sorted(sizes, reverse=True)
    big_n = [1] * (r + 1)  # big_n[s] = max product of s class sizes
    for s in range(1, r + 1):
        big_n[s] = big_n[s - 1] * desc[s - 1]

    def pw(e: int) -> Number:
        return pv**e

    two_c = 2 * c
    d1 = sum(
        math.comb(r - 1, s) * big_n[s] * big_n[r - s - 1] ** 2 * pw(two_c - math.comb(s, 2) - 2)
        for s in range(2, r)
    )
    d2 = sum(
        math.comb(r - 1, s) * big_n[s] * big_n[r - s - 1] ** 2 * pw(two_c - math.comb(s + 1, 2) - 2)
        for s in range(1, r)
    )
    d3 = sum(
        math.comb(r - 1, s) * big_n[s] * big_n[r - s - 1] ** 2 * pw(two_c - math.comb(s + 2, 2) - 1)
        for s in range(1, r - 1)
    )
    d4 = (
        sum(
            math.comb(r - 2, s) * big_n[s] * big_n[r - s - 1] ** 2 * pw(two_c - math.comb(s, 2) - 2)
            for s in range(2, r - 1)
        )
        + 4
        * sum(
            math.comb(r - 2, s)
            * big_n[s]
            * big_n[r - s - 1]
            * big_n[r - s - 2]
            * pw(two_c - math.comb(s + 1, 2) - 2)
            for s in range(1, r - 1)
        )
        + 4
        * sum(
            math.comb(r - 2, s) * big_n[s] * big_n[r - s - 2] ** 2 * pw(two_c - math.comb(s + 2, 2) - 2)
            for s in range(0, r - 1)
        )
    )

    zero: Number = Fraction(0) if exact else 0.0
    deg: Counter = Counter()
    class_edges: Counter = Counter()
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        class_edges[cls[u]] += 1
    shared = sum(d * (d - 1) for d in deg.values())
    same_cls = sum(e * (e - 1) for e in class_edges.values())
    diff_cls = e_u * e_u - sum(e * e for e in class_edges.values())
    delta = (same_cls - shared) * d1 + shared * d2 + e_u * d3 + diff_cls * d4

    mu_lower = e_u * min(sizes) ** (r - 1) * pw(c - 1)
    return MuDelta(mu=mu_lower + zero, delta=delta + zero, p=pv)


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------


class DsetsBound(NamedTuple):
    bound: float  # probability bound on the bad event, clamped to [0,1]
    tau: float  # the accompanying small-constant recipe


def dsets_tail_bound(
    k: int, alpha: float, lam: float, class_sizes: Sequence[int], d: int
) -> DsetsBound:
    """Probability that random d-subsets W_i of the classes catch more than
    k*lam*d^k tuples of a hypergraph of density at most (alpha*lam)^k:
    at most (d^k - 1)*(2*alpha^lam)^d, clamped to [0,1].

    Also reports tau = (alpha/2)^(k^2/lam) * lam^k * d^(-k^3/(d*lam)).
    """
    if k < 1:
        raise DomainError(f"k={k}: need at least one class")
    if len(class_sizes) != k:
        raise DomainError(
            f"class_sizes has {len(class_sizes)} entries, expected k={k}"
        )
    if not 2 <= d <= min(class_sizes):
        raise DomainError(
            f"d={d}: need 2 <= d <= min class size ({min(class_sizes)})"
        )
    # the Hoeffding factor checks alpha and lam; clamping it first changes
    # nothing, since d^k - 1 >= 1
    bound = min(1.0, (d**k - 1) * hypergeom_hoeffding(alpha, lam, d))
    tau = (alpha / 2) ** (k * k / lam) * lam**k * d ** (-(k**3) / (d * lam))
    return DsetsBound(bound=bound, tau=tau)


def hypergeom_hoeffding(alpha: float, lam: float, d: int) -> float:
    """One-sided Hoeffding bound (2*alpha^lam)^d for the initial-segment
    overlap of a random d-subset, clamped to [0,1]; d=0 gives 1."""
    if d < 0:
        raise DomainError(f"d={d}: cannot be negative")
    if not 0 < alpha < 1:
        raise DomainError(f"alpha={alpha}: must lie in (0,1)")
    if not 0 < lam < 1:
        raise DomainError(f"lam={lam}: must lie in (0,1)")
    return min(1.0, (2 * alpha**lam) ** d)


# ---------------------------------------------------------------------------
# stepwise hypergraph regularization
# ---------------------------------------------------------------------------


def construct_regularized_hypergraph(
    w_lists: Sequence[Sequence[Sequence[int]]],
    params: RegularizationParams,
    class_sizes: Sequence[int],
) -> Tuple[List[Tuple[int, ...]], List[bool]]:
    """Grow an r-partite hypergraph one vertex step at a time, capping
    every sub-tuple codegree.

    Each entry of w_lists supplies, for one processed vertex, r lists of
    dstar distinct vertex ids (one list per class; ids are class-local,
    0-based).  At step l, for every index set I with 2 <= |I| <= r-1, the
    saturated sub-tuples are those with codegree strictly above
    (c2/2) * e(H)/n^|I| in the hypergraph built so far (n = total vertex
    count); the full tuples already present play the same role for
    I = [r].  Every tuple of the step's W-product containing no saturated
    sub-tuple is added.  The vertex is flagged useful when, for every I,
    at most lam * dstar^|I| sub-tuples of its W-product are saturated —
    in which case the step adds at least (1 - 2^r*lam)*dstar^r tuples,
    which is dstar^r/2 at the canonical lam = 2^-(r+1).

    Returns the tuple list in insertion order and the per-vertex flags.
    """
    r = len(class_sizes)
    if r < 2:
        raise DomainError(f"class_sizes has {r} entries: need r >= 2")
    if any(s < 1 for s in class_sizes):
        raise DomainError(f"class_sizes={tuple(class_sizes)}: sizes must be positive")
    n = sum(class_sizes)
    dstar = params.dstar
    for ell, wv in enumerate(w_lists):
        if len(wv) != r:
            raise DomainError(
                f"W[{ell}] has {len(wv)} class lists, expected r={r}"
            )
        for j, lst in enumerate(wv):
            if len(lst) != dstar or len(set(lst)) != dstar:
                raise DomainError(
                    f"W[{ell}][{j}]: need exactly dstar={dstar} distinct vertices"
                )
            if any(not 0 <= x < class_sizes[j] for x in lst):
                raise DomainError(
                    f"W[{ell}][{j}]: vertex id outside 0..{class_sizes[j] - 1}"
                )

    mid_index_sets = [
        idx
        for size in range(2, r)
        for idx in combinations(range(r), size)
    ]
    codeg: Dict[Tuple[int, ...], Counter] = {idx: Counter() for idx in mid_index_sets}
    hyperedges: List[Tuple[int, ...]] = []
    edge_set: set = set()
    flags: List[bool] = []

    for wv in w_lists:
        e_h = len(hyperedges)
        thresholds = {
            idx: (params.c2 / 2) * e_h / n ** len(idx) for idx in mid_index_sets
        }

        useful = True
        for idx in mid_index_sets:
            budget = params.lam * dstar ** len(idx)
            saturated = sum(
                1
                for sub in product(*(wv[j] for j in idx))
                if codeg[idx][sub] > thresholds[idx]
            )
            if saturated > budget:
                useful = False
                break
        if useful:
            present = sum(1 for t in product(*wv) if t in edge_set)
            if present > params.lam * dstar**r:
                useful = False
        flags.append(useful)

        added = []
        for t in product(*wv):
            if t in edge_set:
                continue
            if any(
                codeg[idx][tuple(t[j] for j in idx)] > thresholds[idx]
                for idx in mid_index_sets
            ):
                continue
            added.append(t)
        for t in added:
            hyperedges.append(t)
            edge_set.add(t)
            for idx in mid_index_sets:
                codeg[idx][tuple(t[j] for j in idx)] += 1

    return hyperedges, flags


# ---------------------------------------------------------------------------
# threshold criticality probe
# ---------------------------------------------------------------------------


def heuristic_threshold_probe(n: int, r: int, m: float) -> float:
    """P*m where P = (1 - (m/e(Pi))^(C(r+1,2)-1))^K for the balanced
    r-partition, K the product of the other r-1 class sizes.

    P approximates the probability that a graph drawn by sprinkling m
    random cross edges leaves some fixed within-class pair completable;
    P*m is the expected number of critical pairs and sits at Theta(1)
    when m is near the colorability threshold.  Evaluated in log-space;
    m >= e(Pi) returns 0.
    """
    if r < 2:
        raise DomainError(f"r={r}: need at least two classes")
    if n < r:
        raise DomainError(f"n={n}: need at least r={r} vertices")
    if not m > 0:  # also rejects nan
        raise DomainError(f"m={m}: the probe needs a positive edge count")
    e_pi = ex_turan(n, r + 1)
    c = math.comb(r + 1, 2)
    # clamp at 0 so m far above e(Pi) gives x = 1, not an overflow
    x = math.exp(min(0.0, (c - 1) * (math.log(m) - math.log(e_pi))))
    if x >= 1:
        return 0.0
    q, rem = divmod(n, r)  # K = (q+1)^a * q^b: the balanced classes but a largest one
    a, b = (rem - 1, r - rem) if rem else (0, r - 1)
    if a * math.log2(q + 1) + b * math.log2(q) > 1100:  # K alone is past float range
        raise OverflowError(f"n={n}, r={r}: K = {q + 1}^{a} * {q}^{b} is beyond float range")
    log_p = (q + 1) ** a * q**b * math.log1p(-x)
    return math.exp(log_p + math.log(m))


# ---------------------------------------------------------------------------
# interchange format
# ---------------------------------------------------------------------------


def family_to_json(fam: ForbiddenFamily) -> str:
    """Serialize ground_size and sets (slot_edges is not persisted)."""
    return json.dumps(
        {"ground_size": fam.ground_size, "sets": [list(b) for b in fam.sets]}
    )


def family_from_json(text: str) -> ForbiddenFamily:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"family JSON: {exc}") from None
    if not isinstance(obj, dict) or "ground_size" not in obj or "sets" not in obj:
        raise DomainError("family JSON: need an object with ground_size and sets")
    sets = obj["sets"]
    if not isinstance(sets, list) or not all(isinstance(b, list) for b in sets):
        raise DomainError("family JSON: sets must be a list of lists of slot indices")
    return ForbiddenFamily(ground_size=obj["ground_size"], sets=tuple(tuple(b) for b in sets))
