"""Edge-swap Metropolis sampler for uniform K_{r+1}-free graphs.

State space: all labeled graphs on n vertices with exactly m edges and no
clique on r+1 vertices.  A move picks one present edge and one absent
vertex pair uniformly at random and swaps them; the proposal is accepted
iff the swapped graph is still clique-free.  The proposal kernel is
symmetric and acceptance is a 0/1 symmetric constraint, so the chain is
reversible and its stationary distribution is uniform on each connected
component of the swap graph, which can split even below 0.9 ex.  At n <= 7
it splits at (n, m) = (4,4), (5,6), (6,8), (6,9), (7,10), (7,11), (7,12)
for r=2 and (6,12), (7,16) for r=3, and nowhere else.  tv_diagnostic does
not see it: at n=6, m=8 four chains visit 9 of 105 states, none of the 15
K_{2,4} labelings, and their summary-law TV still passes.  Randomized
starts soften this; they do not make the estimate uniform.

Chains start from a uniformly random m-subset of the edges of the
r-partite extremal (complete multipartite) graph, which is clique-free by
construction.  Randomness comes from numpy's Philox generator seeded
through SeedSequence so that multi-chain runs are reproducible and
streams never collide.  run_steps draws the proposal indices for _BLOCK
moves in one rng call per pool and runs the swap loop, with the state
bound to locals, straight to the next retained sample, so the per-move
work has no callback and no test of the recording schedule.  With r=2
the accept test needs no call: a triangle through the new pair exists iff
its endpoints share a neighbour, so the common-neighbour mask is the test.

run_chains is the one place chains run.  It returns one immutable
ChainRecord per chain (the sorted (r-colorable?, triangles) counts at the
retained steps, accepted moves, steps, and one row per retained step when
traced) and is memoised for its last arguments, so "estimate, then tv on
the same config" runs the chains once.  estimate_rpartite, tv_diagnostic
and the `kfree sample --dump` trace only read records.

The between-chain standard error reported by estimate_rpartite is the
sample standard deviation of per-chain means divided by sqrt(chains);
tv_diagnostic compares the empirical joint law of (r-colorable?, number
of triangles) against the exact census distribution, which keeps it
honest even when the indicator of interest is nearly constant.
"""

from __future__ import annotations

import functools
import hashlib
from collections import Counter
from dataclasses import dataclass, field
from math import sqrt
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import census
from .census import MAX_SUMMARY_VERTICES  # the exact law's reach
from .errors import DomainError, InfeasibleError
from .graph_core import MAX_VERTICES, LabeledGraph, pair_table
from .graph_core import _clique_in_mask, _colorable  # shared kernels
from .turan import ex_turan, turan_graph

__all__ = [
    "ChainConfig",
    "ChainState",
    "ChainRecord",
    "EstimateResult",
    "init_chain",
    "run_steps",
    "retained_samples",
    "run_chains",
    "estimate_from",
    "estimate_rpartite",
    "tv_diagnostic",
]

_BLOCK = 1 << 14


@dataclass(frozen=True)
class ChainConfig:
    n: int
    r: int
    m: int
    seed: int = 0
    burn_in: int = 0
    thin: int = 1
    chains: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise DomainError(f"n={self.n}: must lie in 1..{MAX_VERTICES}")
        if self.r < 2:
            raise DomainError(f"r={self.r}: need r >= 2")
        if self.m < 0:
            raise DomainError(f"m={self.m}: edge count cannot be negative")
        if self.seed < 0:
            raise DomainError(f"seed={self.seed}: cannot be negative")
        cap = ex_turan(self.n, self.r + 1)
        if self.m > cap:
            raise InfeasibleError(
                f"m={self.m}: no clique-free graph on n={self.n} vertices has "
                f"more than {cap} edges"
            )
        if self.burn_in < 0:
            raise DomainError(f"burn_in={self.burn_in}: cannot be negative")
        if self.thin < 1:
            raise DomainError(f"thin={self.thin}: must be at least 1")
        if self.chains < 1:
            raise DomainError(f"chains={self.chains}: must be at least 1")


@dataclass(eq=False, slots=True)
class ChainState:
    """Mutable chain state: adjacency masks plus the present/absent slot
    pools, swapped in place so each move is O(1) bookkeeping."""

    cfg: ChainConfig
    pairs: Tuple[Tuple[int, int], ...]
    adj: List[int]
    present: List[int]
    absent: List[int]
    rng: np.random.Generator
    steps_taken: int = field(default=0, init=False)
    accepted_moves: int = field(default=0, init=False)

    def current_graph(self) -> LabeledGraph:
        return LabeledGraph(self.cfg.n, sum(1 << s for s in self.present))

    def edges_digest(self) -> str:
        data = ",".join(str(s) for s in sorted(self.present)).encode("ascii")
        return hashlib.sha256(data).hexdigest()[:16]

    def triangle_count(self) -> int:
        total = 0
        for s in self.present:
            u, v = self.pairs[s]
            total += (self.adj[u] & self.adj[v]).bit_count()
        return total // 3

    def is_r_colorable(self) -> bool:
        return _colorable(self.adj, self.cfg.n, self.cfg.r)


def init_chain(cfg: ChainConfig, chain_index: int = 0) -> ChainState:
    """Fresh chain at a uniformly random m-subset of the extremal graph's
    edges.  chain_index selects one of cfg.chains seed streams: the stream
    SeedSequence(cfg.seed).spawn(cfg.chains)[chain_index], built directly
    from its spawn key so that each chain's set-up takes constant time."""
    if not 0 <= chain_index < cfg.chains:
        raise DomainError(
            f"chain_index={chain_index}: must lie in 0..{cfg.chains - 1}"
        )
    seed = np.random.SeedSequence(cfg.seed, spawn_key=(chain_index,))
    rng = np.random.Generator(np.random.Philox(seed))
    pt = pair_table(cfg.n)
    host = turan_graph(cfg.n, cfg.r)
    host_slots = [i for i in range(len(pt)) if host.edges >> i & 1]
    chosen = rng.choice(len(host_slots), size=cfg.m, replace=False) if cfg.m else []
    present = sorted(host_slots[int(i)] for i in chosen)
    g = LabeledGraph(cfg.n, sum(1 << s for s in present))
    absent = [i for i in range(len(pt)) if not g.edges >> i & 1]
    return ChainState(cfg, pt, list(g.adjacency()), present, absent, rng)


def run_steps(
    state: ChainState,
    nsteps: int,
    *,
    on_sample: Optional[Callable[[ChainState], None]] = None,
) -> None:
    """Advance the chain nsteps moves.  on_sample fires at every step s with
    s > burn_in and (s - burn_in) % thin == 0, counting steps from the
    chain's creation, with steps_taken and accepted_moves current.  The
    swap loop runs straight from one such step to the next inside each
    block of drawn proposals.  When either pool is empty the state space
    is a single graph and every move is a counted self-loop."""
    burn_in = state.cfg.burn_in
    thin = state.cfg.thin
    k = state.cfg.r - 1
    k1 = k <= 1
    adj = state.adj
    present = state.present
    absent = state.absent
    pairs = state.pairs
    accepted = state.accepted_moves
    s = state.steps_taken
    end = s + nsteps
    # the next retained step after s; past the end when nothing is recorded
    if on_sample is None:
        nxt = end + 1
    else:
        nxt = burn_in + thin * (max(s - burn_in, 0) // thin + 1)
    while s < end:
        start = s
        stop_block = min(s + _BLOCK, end)
        # this draw layout fixes every artifact: one call per pool per block;
        # with an empty pool no draw is made and every move is a self-loop
        ii = []
        jj = []
        if present and absent:
            ii = state.rng.integers(0, len(present), size=stop_block - start).tolist()
            jj = state.rng.integers(0, len(absent), size=stop_block - start).tolist()
        while s < stop_block:
            stop = min(nxt, stop_block)
            for i, j in zip(ii[s - start : stop - start], jj[s - start : stop - start]):
                e = present[i]
                f = absent[j]
                ue, ve = pairs[e]
                uf, vf = pairs[f]
                adj[ue] ^= 1 << ve
                adj[ve] ^= 1 << ue
                # a new clique on r+1 vertices through (uf,vf) needs K_{r-1}
                # among their common neighbors; K_1 is any common neighbor
                cand = adj[uf] & adj[vf]
                if cand if k1 else _clique_in_mask(adj, cand, k):
                    adj[ue] |= 1 << ve
                    adj[ve] |= 1 << ue
                else:
                    adj[uf] |= 1 << vf
                    adj[vf] |= 1 << uf
                    present[i] = f
                    absent[j] = e
                    accepted += 1
            s = stop
            state.steps_taken = s
            state.accepted_moves = accepted
            if s == nxt:
                on_sample(state)
                nxt += thin


class ChainRecord(NamedTuple):
    """One chain's run: the sorted ((r-colorable?, triangles), count) pairs
    at its retained steps, its accepted moves and steps taken, and, when
    traced, one (step, is_rcol, triangles, edges_hash) row per retained step."""

    counts: Tuple[Tuple[Tuple[bool, int], int], ...]
    accepted: int
    steps: int
    trace: Tuple[Tuple[int, int, int, str], ...] = ()


class EstimateResult(NamedTuple):
    estimate: float
    stderr: float
    acceptance_rate: float


def retained_samples(cfg: ChainConfig, total_steps: int) -> int:
    """How many samples estimate_rpartite will keep for this budget."""
    return cfg.chains * (max(total_steps // cfg.chains - cfg.burn_in, 0) // cfg.thin)


@functools.lru_cache(maxsize=1)
def run_chains(cfg: ChainConfig, total_steps: int, trace: bool = False) -> Tuple[ChainRecord, ...]:
    """Run each of cfg.chains chains total_steps // chains moves and return
    their records in chain order; DomainError, before any chain runs, when
    none would retain a sample.  Memoised for the last argument tuple.
    Triangles are counted where read: into counts for r >= 3 at n <=
    MAX_SUMMARY_VERTICES (every r=2 state is triangle-free, and elsewhere
    the count is 0), into a trace for r >= 3 at every n."""
    if retained_samples(cfg, total_steps) == 0:  # every chain runs the same moves
        raise DomainError(
            f"total_steps={total_steps}, chains={cfg.chains}, burn_in={cfg.burn_in}, "
            f"thin={cfg.thin}: no chain retains a sample"
        )
    keyed = cfg.r >= 3 and cfg.n <= MAX_SUMMARY_VERTICES
    counted = keyed or (trace and cfg.r >= 3)
    records = []
    for ci in range(cfg.chains):
        state = init_chain(cfg, ci)
        hist: Dict[Tuple[bool, int], int] = {}
        rows: List[Tuple[int, int, int, str]] = []

        def record(st: ChainState, _hist: Dict = hist, _rows: List = rows) -> None:
            rcol = st.is_r_colorable()
            tri = st.triangle_count() if counted else 0
            key = (rcol, tri if keyed else 0)
            _hist[key] = _hist.get(key, 0) + 1
            if trace:
                _rows.append((st.steps_taken, int(rcol), tri, st.edges_digest()))

        run_steps(state, total_steps // cfg.chains, on_sample=record)
        records.append(ChainRecord(tuple(sorted(hist.items())), state.accepted_moves,
                                   state.steps_taken, tuple(rows)))
    return tuple(records)


def estimate_from(records: Tuple[ChainRecord, ...]) -> EstimateResult:
    """The r-colorable fraction of the retained samples, averaged over
    chains, with the between-chain standard error (0.0 for one chain) and
    the pooled acceptance rate."""
    chain_means = [
        sum(c for (ok, _), c in rec.counts if ok) / sum(c for _, c in rec.counts)
        for rec in records
    ]
    k = len(chain_means)
    estimate = sum(chain_means) / k
    var = sum((x - estimate) ** 2 for x in chain_means) / (k - 1) if k > 1 else 0.0
    accepted = sum(rec.accepted for rec in records)
    return EstimateResult(estimate, sqrt(var / k), accepted / sum(rec.steps for rec in records))


def estimate_rpartite(cfg: ChainConfig, total_steps: int) -> EstimateResult:
    """Monte Carlo estimate of the fraction of clique-free (n, m) graphs
    that are r-colorable: estimate_from(run_chains(cfg, total_steps))."""
    return estimate_from(run_chains(cfg, total_steps))


def tv_diagnostic(cfg: ChainConfig, total_steps: int) -> float:
    """Total-variation distance between the sampler's empirical law of
    (r-colorable?, triangle count) over run_chains(cfg, total_steps) and
    the exact census law at (n, r, m).

    Needs the exact joint distribution: beyond n = MAX_SUMMARY_VERTICES,
    census.summary_counts raises SizeError before any chain runs.  The law
    is never empty: ChainConfig admits only m <= ex(n, r+1)."""
    exact_counts = census.summary_counts(cfg.n, cfg.r, cfg.m)
    total_exact = sum(exact_counts.values())
    empirical: Counter = Counter()
    for rec in run_chains(cfg, total_steps):
        empirical.update(dict(rec.counts))
    samples = sum(empirical.values())
    return 0.5 * sum(
        abs(empirical[k] / samples - exact_counts.get(k, 0) / total_exact)
        for k in set(empirical) | set(exact_counts)
    )
