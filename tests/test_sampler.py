"""Edge-swap chain: invariants, determinism, uniformity on a connected
instance, and agreement with the exact census."""

import math
from collections import Counter

import numpy as np
import pytest

from kfreelab import sampler
from kfreelab.census import summary_counts
from kfreelab import (
    ChainConfig,
    DomainError,
    InfeasibleError,
    contains_clique,
    estimate_rpartite,
    ex_turan,
    fraction_rpartite,
    init_chain,
    retained_samples,
    run_census,
    run_steps,
    turan_graph,
    tv_diagnostic,
)


def test_config_validation():
    with pytest.raises(InfeasibleError, match="m="):
        ChainConfig(n=5, r=2, m=7)  # ex_turan(5,3)=6
    with pytest.raises(DomainError):
        ChainConfig(n=33, r=2, m=1)
    with pytest.raises(DomainError, match="thin"):
        ChainConfig(n=5, r=2, m=3, thin=0)
    with pytest.raises(DomainError):
        ChainConfig(n=5, r=2, m=3, chains=0)


def test_init_is_deterministic_and_clique_free():
    cfg = ChainConfig(n=10, r=3, m=20, seed=42)
    a, b = init_chain(cfg), init_chain(cfg)
    assert a.present == b.present
    assert not contains_clique(a.current_graph(), 4)
    assert a.current_graph().edge_count == 20


def test_init_at_extremal_is_the_turan_graph():
    cfg = ChainConfig(n=6, r=2, m=9, seed=5)
    st = init_chain(cfg)
    assert st.current_graph().edges == turan_graph(6, 2).edges


@pytest.mark.parametrize("chains,index", [(1, 0), (4, 3), (37, 0), (37, 18), (37, 36)])
def test_chain_stream_is_the_spawned_seed(chains, index):
    ref = np.random.SeedSequence(9).spawn(chains)[index]
    want = np.random.Generator(np.random.Philox(ref)).integers(0, 1 << 62, size=8)
    st = init_chain(ChainConfig(n=6, r=2, m=0, seed=9, chains=chains), index)
    assert st.rng.integers(0, 1 << 62, size=8).tolist() == want.tolist()


def test_chain_setup_spawns_no_sibling_streams(monkeypatch):
    # one chain's set-up must not build the seed streams of all cfg.chains
    class NoSpawn(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError(f"spawned {n_children} seed streams for one chain")

    monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
    st = init_chain(ChainConfig(n=6, r=2, m=3, seed=9, chains=10**9), 10**9 - 1)
    assert len(st.present) == 3 and len(st.absent) == 12


def test_init_empty():
    st = init_chain(ChainConfig(n=5, r=2, m=0))
    assert st.current_graph().edge_count == 0
    # no present edge: steps are counted self-loops
    run_steps(st, 1)
    assert st.steps_taken == 1 and st.accepted_moves == 0


def test_no_absent_pair_self_loop():
    # r+1 > n: the complete graph is feasible and is the only state
    st = init_chain(ChainConfig(n=3, r=3, m=3))
    run_steps(st, 1)
    assert st.steps_taken == 1 and st.accepted_moves == 0


@pytest.mark.parametrize("burn_in", [0, 7])
@pytest.mark.parametrize("thin", [1, 3, 10])
@pytest.mark.parametrize("n,r,m", [(8, 2, 10), (5, 2, 0), (3, 3, 3)])
def test_recording_schedule(n, r, m, burn_in, thin):
    # (5,2,0) and (3,3,3) are the two single-state self-loop cases
    cfg = ChainConfig(n=n, r=r, m=m, seed=4, burn_in=burn_in, thin=thin)
    nsteps = sampler._BLOCK + 37  # crosses a proposal block boundary
    st, twin = init_chain(cfg), init_chain(cfg)
    for chain in (st, twin):
        run_steps(chain, 11)  # resume from a step not aligned to thin
    s0 = st.steps_taken
    seen = []

    def record(x):
        assert x.current_graph().adjacency() == tuple(x.adj)
        seen.append((x.steps_taken, x.accepted_moves, tuple(x.present)))

    run_steps(st, nsteps, on_sample=record)
    run_steps(twin, nsteps)
    assert [s for s, _, _ in seen] == [
        s for s in range(s0 + 1, s0 + nsteps + 1)
        if s > burn_in and (s - burn_in) % thin == 0
    ]
    # recording never changes the chain
    assert (st.present, st.accepted_moves, st.steps_taken) == (
        twin.present, twin.accepted_moves, twin.steps_taken)
    if thin == 1:  # a sample at every step: accepted_moves is current at each
        for (_, a0, p0), (_, a1, p1) in zip(seen, seen[1:]):
            assert a1 - a0 == (p0 != p1)
        assert seen[-1][1] == st.accepted_moves


def test_invariants_hold_along_the_run():
    # r=3 runs the accept test's clique search at k=2, not only k=1
    for cfg in (ChainConfig(n=8, r=2, m=12, seed=9),
                ChainConfig(n=8, r=3, m=18, seed=9)):
        st = init_chain(cfg)
        for _ in range(25):
            run_steps(st, 1 << 12)
            g = st.current_graph()
            assert g.edge_count == cfg.m
            assert not contains_clique(g, cfg.r + 1)
            assert len(st.present) + len(st.absent) == 28


def test_uniform_on_connected_instance():
    # n=4, r=2, m=3: the 16 spanning trees of K_4, connected under swaps
    cfg = ChainConfig(n=4, r=2, m=3, seed=12, burn_in=500, thin=15)
    st = init_chain(cfg)
    visits = Counter()

    def note(state):
        visits[tuple(sorted(state.present))] += 1

    run_steps(st, 500 + 15 * 20000, on_sample=note)
    assert len(visits) == 16
    total = sum(visits.values())
    p = 1 / 16
    sigma = math.sqrt(p * (1 - p) / total)
    for cnt in visits.values():
        assert abs(cnt / total - p) < 6 * sigma  # thinned, near-independent


def test_three_state_instance_is_frozen():
    # documented reducibility witness: at n=4, m=4=ex every swap out of a
    # 4-cycle creates a triangle, so the chain never leaves its start
    cfg = ChainConfig(n=4, r=2, m=4, seed=3)
    st = init_chain(cfg)
    start = tuple(st.present)
    run_steps(st, 2000)
    assert tuple(st.present) == start
    assert st.accepted_moves == 0
    # the estimate is still exact here: all three 4-cycles are bipartite
    res = estimate_rpartite(ChainConfig(n=4, r=2, m=4, burn_in=10), 1000)
    assert res.estimate == 1.0


def test_estimate_single_state_instances():
    assert estimate_rpartite(ChainConfig(n=5, r=2, m=6, burn_in=10), 2000).estimate == 1.0
    assert estimate_rpartite(ChainConfig(n=6, r=2, m=9, burn_in=10), 2000).estimate == 1.0


def test_estimate_matches_census_midrange():
    table = run_census(6, 2)
    exact = float(fraction_rpartite(table, 6))
    cfg = ChainConfig(n=6, r=2, m=6, seed=77, burn_in=2000, thin=10, chains=4)
    res = estimate_rpartite(cfg, 400000)
    assert abs(res.estimate - exact) < 0.05
    assert res.stderr < 0.05
    assert 0 < res.acceptance_rate < 1


def test_estimate_determinism():
    cfg = ChainConfig(n=7, r=2, m=8, seed=31, burn_in=100, thin=5, chains=3)
    first = estimate_rpartite(cfg, 9000)
    sampler.run_chains.cache_clear()  # the second call must run its own chains
    assert first == estimate_rpartite(cfg, 9000)


@pytest.mark.parametrize("n,r", [(5, 2), (5, 3), (6, 2), (6, 3)])
def test_shared_pass_matches_separate_runs(n, r):
    for m in range(ex_turan(n, r + 1) + 1):
        cfg = ChainConfig(n=n, r=r, m=m, seed=5 * m + n, burn_in=20, thin=3, chains=2)
        sampler.run_chains.cache_clear()
        est_alone = estimate_rpartite(cfg, 4000)
        sampler.run_chains.cache_clear()
        tv_alone = tv_diagnostic(cfg, 4000)
        sampler.run_chains.cache_clear()
        assert estimate_rpartite(cfg, 4000) == est_alone, m
        assert tv_diagnostic(cfg, 4000) == tv_alone, m


def test_shared_pass_runs_each_chain_once(monkeypatch):
    calls = []
    original = sampler.run_steps

    def counted(state, nsteps, **kwargs):
        calls.append(nsteps)
        original(state, nsteps, **kwargs)

    monkeypatch.setattr(sampler, "run_steps", counted)
    sampler.run_chains.cache_clear()
    cfg = ChainConfig(n=6, r=3, m=9, seed=8, burn_in=10, thin=4, chains=3)
    estimate_rpartite(cfg, 3000)
    tv_diagnostic(cfg, 3000)
    assert calls == [1000] * 3
    sampler.run_chains(cfg, 3000, trace=True)  # a traced run steps its own chains
    assert len(calls) == 6
    other = ChainConfig(n=6, r=3, m=10, seed=8, burn_in=10, thin=4, chains=3)
    tv_diagnostic(other, 3000)
    assert len(calls) == 9
    estimate_rpartite(cfg, 3000)  # evicted by the other config: runs again
    assert len(calls) == 12


@pytest.mark.parametrize("n,r,m", [(6, 2, 7), (6, 3, 11), (10, 3, 25)])
def test_traced_run_equals_untraced(n, r, m):
    cfg = ChainConfig(n=n, r=r, m=m, seed=13, burn_in=30, thin=7, chains=3)
    sampler.run_chains.cache_clear()
    plain = sampler.run_chains(cfg, 6000)
    traced = sampler.run_chains(cfg, 6000, trace=True)
    assert all(rec.trace == () for rec in plain)
    assert [rec._replace(trace=()) for rec in traced] == list(plain)
    for rec in traced:
        assert len(rec.trace) == sum(c for _, c in rec.counts)
        assert Counter((bool(t[1]), t[2] if n <= 7 else 0) for t in rec.trace) == dict(rec.counts)
    if n > 7:
        return
    # tv_diagnostic reads the untraced records; the trace is an independent record
    emp = Counter((bool(row[1]), row[2]) for rec in traced for row in rec.trace)
    exact = summary_counts(n, r, m)
    total, samples = sum(exact.values()), sum(emp.values())
    want = 0.5 * sum(
        abs(emp[k] / samples - exact.get(k, 0) / total) for k in set(emp) | set(exact)
    )
    assert tv_diagnostic(cfg, 6000) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("chains,total_steps", [(1, 1000), (3, 6001), (4, 4076)])
def test_records_count_every_retained_sample(chains, total_steps):
    cfg = ChainConfig(n=6, r=3, m=9, seed=21, burn_in=100, thin=10, chains=chains)
    records = sampler.run_chains(cfg, total_steps)
    assert len(records) == chains
    for rec in records:
        assert rec.steps == total_steps // chains
        assert sum(c for _, c in rec.counts) == retained_samples(cfg, total_steps) // chains
        assert list(rec.counts) == sorted(rec.counts) and 0 <= rec.accepted <= rec.steps
    with pytest.raises(AttributeError):
        records[0].steps = 0  # records are immutable, so the memo can be shared


def test_estimate_budget_errors():
    cfg = ChainConfig(n=5, r=2, m=3, burn_in=5000, chains=2)
    with pytest.raises(DomainError, match="burn_in"):
        estimate_rpartite(cfg, 1000)
    assert retained_samples(cfg, 1000) == 0
    cfg2 = ChainConfig(n=5, r=2, m=3, burn_in=0, thin=7, chains=2)
    assert retained_samples(cfg2, 1000) == 2 * (500 // 7)


@pytest.mark.parametrize(
    "cfg, total_steps",
    [
        # each chain runs 2_000_000 moves, all of them burn-in
        (ChainConfig(n=6, r=2, m=7, seed=1, burn_in=2_000_000, thin=10, chains=4), 8_000_000),
        # each runs 9 moves past burn-in, short of the first retained one
        (ChainConfig(n=6, r=2, m=7, seed=1, burn_in=1000, thin=10, chains=4), 4036),
        (ChainConfig(n=6, r=2, m=7, seed=1, chains=2), 1),
    ],
)
def test_budget_without_samples_runs_no_chain(monkeypatch, cfg, total_steps):
    assert retained_samples(cfg, total_steps) == 0
    calls = []
    monkeypatch.setattr(sampler, "run_steps", lambda *a, **k: calls.append(a))
    for fn in (estimate_rpartite, tv_diagnostic):
        with pytest.raises(DomainError) as err:
            fn(cfg, total_steps)
        for field in ("total_steps", "chains", "burn_in", "thin"):
            assert field in str(err.value)
    assert calls == []


def test_trace_rows():
    cfg = ChainConfig(n=5, r=2, m=4, seed=2, burn_in=50, thin=25, chains=2)
    rows = [row for rec in sampler.run_chains(cfg, 1000, trace=True) for row in rec.trace]
    assert len(rows) == retained_samples(cfg, 1000)
    step, is_rcol, triangles, edges_hash = rows[0]
    assert step == 75 and is_rcol in (0, 1)
    assert triangles == 0  # triangle-free by construction when r=2
    assert len(edges_hash) == 16


def test_tv_zero_at_extremal():
    cfg = ChainConfig(n=5, r=2, m=6, burn_in=10, thin=5)
    assert tv_diagnostic(cfg, 2000) == 0.0


def test_tv_small_and_consistent_under_doubling():
    cfg = ChainConfig(n=6, r=2, m=6, seed=4, burn_in=2000, thin=10, chains=4)
    tv1 = tv_diagnostic(cfg, 100000)
    tv2 = tv_diagnostic(cfg, 200000)
    assert tv1 < 0.05
    n1 = retained_samples(cfg, 100000)
    assert tv2 <= tv1 + 3 * math.sqrt(2 / (4 * n1))  # 2 summary buckets here


def test_tv_guard():
    with pytest.raises(Exception, match="n=8"):
        tv_diagnostic(ChainConfig(n=8, r=2, m=5), 1000)
