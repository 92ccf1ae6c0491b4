"""Acceptance gate: ten hard criteria, one test each, each printing a
single [criterion NN] PASS/FAIL line with the measured numbers.

These encode the package's external contract -- exact-oracle equivalence,
inequality sandwiches, endpoint identities, and the pinned constants --
together with wall-clock budgets on this class of hardware.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from kfreelab import (
    ChainConfig,
    ForbiddenFamily,
    LabeledGraph,
    MultipartiteHost,
    Partition,
    RegularizationParams,
    avoidance_probability_exact,
    brute_force_ex,
    census,
    construct_regularized_hypergraph,
    contains_clique,
    dsets_tail_bound,
    estimate_rpartite,
    ex_multipartite,
    ex_turan,
    extremal_multipartite_graph,
    fkg_lower,
    heuristic_threshold_probe,
    hypergeom_hoeffding,
    janson_upper,
    krminus_family,
    m_r,
    mu_delta_closed_form,
    mu_delta_exact,
    p_r,
    run_chains,
    theta,
    tv_diagnostic,
)


def report(num, ok, detail, elapsed, budget):
    ok = ok and elapsed < budget
    line = (
        f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail} "
        f"({elapsed:.2f}s / budget {budget:.0f}s)"
    )
    print(line)
    assert ok, line


def test_criterion_01_threshold_constants():
    t0 = time.monotonic()
    err_theta = abs(theta(2) - math.sqrt(3) / 4)
    worst = 0.0
    for n in (10**3, 10**4, 10**5):
        for r in (2, 3, 4, 5):
            lhs = m_r(n, r)
            rhs = (1 - 1 / r) * (n * n / 2) * p_r(n, r)
            worst = max(worst, abs(lhs - rhs) / rhs)
    ok = err_theta <= 1e-12 and worst <= 1e-12
    report(
        1, ok,
        f"theta(2) off sqrt(3)/4 by {err_theta:.2e}; "
        f"identity worst rel err {worst:.2e} over 12 (n,r) pairs",
        time.monotonic() - t0, 1.0,
    )


def test_criterion_02_census(tmp_path):
    t0 = time.monotonic()
    t4 = census.run_census(4, 2)
    t5 = census.run_census(5, 2)
    fixtures = (
        t4.rows[3].free == 16 and t4.rows[3].free_rcol == 16
        and t5.rows[6].free == 10 and t5.rows[6].free_rcol == 10
    )

    endpoints = True
    for n in (4, 5, 6, 7):
        table = census.run_census(n, 2)
        endpoints &= census.fraction_rpartite(table, ex_turan(n, 3)) == 1
        if n == 6:
            six_elapsed = time.monotonic() - t0

    t1 = time.monotonic()
    census.run_census(6, 2)
    six_alone = time.monotonic() - t1

    a, b = tmp_path / "s1.txt", tmp_path / "s16.txt"
    census.save_census(census.run_census(6, 2, shards=1), a)
    census.save_census(census.run_census(6, 2, shards=16), b)
    shard_ok = a.read_bytes() == b.read_bytes()

    elapsed = time.monotonic() - t0
    ok = fixtures and endpoints and shard_ok and six_alone < 5.0
    report(
        2, ok,
        f"fixtures {'ok' if fixtures else 'BAD'}; fraction 1 at extremal m for "
        f"n in 4..7 {'ok' if endpoints else 'BAD'}; n=6 alone {six_alone:.2f}s; "
        f"1 vs 16 shards byte-identical {'ok' if shard_ok else 'BAD'}",
        elapsed, 300.0,
    )


def _size_vectors(max_cross):
    out = []
    stack = [((), 0)]
    while stack:
        sizes, cross = stack.pop()
        if len(sizes) >= 2:
            out.append(sizes)
        lo = sizes[-1] if sizes else 1
        s = lo
        while True:
            added = s * sum(sizes)
            if sizes and cross + added > max_cross:
                break
            if not sizes and s > max_cross:
                break
            stack.append((sizes + (s,), cross + added))
            s += 1
    return out


def test_criterion_03_multipartite_turan():
    t0 = time.monotonic()
    vectors = [v for v in _size_vectors(24)]
    assert (2, 2, 2) in vectors
    checked = 0
    for sizes in vectors:
        host = MultipartiteHost(sizes)
        formula = ex_multipartite(host)
        brute = brute_force_ex(host.complete_graph(), host.r)
        assert formula == brute, f"{sizes}: formula {formula} != brute {brute}"
        g = extremal_multipartite_graph(host)
        assert g.edge_count == formula and not contains_clique(g, host.r)
        checked += 1
    assert ex_multipartite(MultipartiteHost((2, 2, 2))) == 8
    report(
        3, True,
        f"formula == branch-and-bound on all {checked} sorted size vectors "
        f"with cross <= 24; extremal graphs clique-free",
        time.monotonic() - t0, 120.0,
    )


def test_criterion_04_sandwich():
    t0 = time.monotonic()
    rnd = random.Random(20260816)
    checked = 0
    while checked < 500:
        n = rnd.randint(4, 20)
        ms = [m for m in range(n + 1) if math.comb(n, m) <= 10**5]
        m = rnd.choice(ms)
        sets = tuple(
            tuple(rnd.sample(range(n), rnd.randint(1, 4)))
            for _ in range(rnd.randint(2, 6))
        )
        fam = ForbiddenFamily(n, sets)
        exact = float(avoidance_probability_exact(fam, m))
        upper = janson_upper(mu_delta_exact(fam, m))
        lower = fkg_lower(fam, m, rnd.uniform(0.1, 0.9)) if m <= n // 2 else 0.0
        assert lower <= exact + 1e-12, f"fkg {lower} > exact {exact} on {fam}, m={m}"
        assert exact <= upper + 1e-12, f"exact {exact} > janson {upper} on {fam}, m={m}"
        checked += 1
    report(
        4, True,
        f"fkg_lower <= exact <= janson_upper on {checked} random instances, "
        f"zero violations",
        time.monotonic() - t0, 120.0,
    )


def _canonical_placement(sizes, edges_local):
    pats = []
    for c, s in enumerate(sizes):
        es = tuple(e for cc, e in edges_local if cc == c)
        best = min(
            tuple(sorted(tuple(sorted((pm[u], pm[v]))) for u, v in es))
            for pm in permutations(range(s))
        )
        pats.append((s, best))
    return tuple(sorted(pats))


def test_criterion_05_closed_form_mu_delta():
    t0 = time.monotonic()
    hosts = []
    for r in (2, 3):
        for sizes in combinations([1, 2, 3, 4] * r, r):
            hosts.append(tuple(sorted(sizes)))
    checked = 0
    for sizes in sorted(set(hosts)):
        r = len(sizes)
        class_of = []
        for c, s in enumerate(sizes):
            class_of += [c] * s
        part = Partition(sum(sizes), r, tuple(class_of))
        first = [sum(sizes[:c]) for c in range(r)]
        within = [
            (u, v)
            for u in range(part.n)
            for v in range(u + 1, part.n)
            if part.class_of[u] == part.class_of[v]
        ]
        if not within:
            continue
        seen = set()
        for k in (1, 2, 3):
            for edges in combinations(within, k):
                local = tuple(
                    (part.class_of[u], (u - first[part.class_of[u]],
                                        v - first[part.class_of[v]]))
                    for u, v in edges
                )
                key = _canonical_placement(sizes, local)
                if key in seen:
                    continue
                seen.add(key)
                fams = [krminus_family(part, e) for e in edges]
                fam = ForbiddenFamily(
                    fams[0].ground_size,
                    tuple(s for f in fams for s in f.sets),
                )
                u_graph = LabeledGraph.from_edge_list(part.n, list(edges))
                ground = fam.ground_size
                for m in sorted({1, ground // 3, ground // 2, (2 * ground) // 3}):
                    if not 1 <= m <= ground:
                        continue
                    ex = mu_delta_exact(fam, m, exact=True)
                    cf = mu_delta_closed_form(
                        part, u_graph, Fraction(m, ground), exact=True
                    )
                    assert cf.mu <= ex.mu, (sizes, edges, m)
                    assert cf.delta >= ex.delta, (sizes, edges, m)
                    checked += 1
    report(
        5, True,
        f"mu_lower <= mu_exact and delta_upper >= delta_exact on {checked} "
        f"(host, placement, m) cases in exact rationals, zero violations",
        time.monotonic() - t0, 300.0,
    )


def test_criterion_06_hoeffding_tail():
    t0 = time.monotonic()
    points = 0
    worst_gap = -1.0
    for i in range(1, 11):  # alpha = 0.05 .. 0.50
        alpha = Fraction(5 * i, 100)
        for lam in (Fraction(20, 100), Fraction(35, 100), Fraction(50, 100),
                    Fraction(65, 100), Fraction(80, 100)):
            for n, d in ((50, 10), (100, 20), (150, 30), (200, 40)):
                K = math.floor(alpha * lam * n)
                jmin = math.ceil(lam * d)
                tail = Fraction(
                    sum(
                        math.comb(K, j) * math.comb(n - K, d - j)
                        for j in range(jmin, min(K, d) + 1)
                    ),
                    math.comb(n, d),
                )
                bound = hypergeom_hoeffding(float(alpha), float(lam), d)
                assert float(tail) <= bound + 1e-12, (alpha, lam, n, d)
                worst_gap = max(worst_gap, float(tail) - bound)
                points += 1
    report(
        6, points == 200,
        f"exact hypergeometric tail <= (2 alpha^lam)^d at all {points} grid "
        f"points (worst tail-bound gap {worst_gap:.2e})",
        time.monotonic() - t0, 30.0,
    )


def test_criterion_07_dsets_monte_carlo():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    trials = 10**5
    alpha, lam, nclass = 0.05, 0.5, 100
    lines = []
    for k in (2, 3):
        for d in range(3, 9):
            res = dsets_tail_bound(k, alpha, lam, [nclass] * k, d)
            a = math.floor(alpha * lam * nclass)
            counts = rng.hypergeometric(a, nclass - a, d, size=(trials, k))
            caught = np.prod(counts, axis=1)
            freq = float(np.mean(caught > k * lam * d**k))
            margin = 2.326 * math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
            assert freq <= res.bound + margin, (k, d, freq, res.bound)
            lines.append(f"k={k},d={d}:{freq:.4f}<={res.bound:.3f}")
    report(
        7, True,
        "MC bad-tuple frequency within the bound at 99% one-sided confidence "
        "on all 12 points (" + " ".join(lines[:3]) + " ...)",
        time.monotonic() - t0, 180.0,
    )


def test_criterion_08_regularization():
    t0 = time.monotonic()
    rnd = random.Random(31337)
    runs = 0
    for _ in range(100):
        r = rnd.choice([2, 3])
        dstar = rnd.randint(3, 6)
        sizes = [rnd.randint(dstar + 2, 14) for _ in range(r)]
        n = sum(sizes)
        params = RegularizationParams(
            c2=rnd.choice([10.0, 50.0, 200.0, 1000.0]),
            dstar=dstar,
            lam=2.0 ** -(r + 1),
        )
        steps = rnd.randint(1, 10)
        w = [
            [rnd.sample(range(sizes[j]), dstar) for j in range(r)]
            for _ in range(steps)
        ]
        h, flags = construct_regularized_hypergraph(w, params, sizes)
        for s in range(2, r):
            for idx in combinations(range(r), s):
                codeg = {}
                for t in h:
                    key = tuple(t[j] for j in idx)
                    codeg[key] = codeg.get(key, 0) + 1
                cap = (params.c2 / 2) * len(h) / n**s + dstar ** (r - s)
                assert all(v <= cap for v in codeg.values()), (sizes, s)
        prefix = [
            len(construct_regularized_hypergraph(w[:i], params, sizes)[0])
            for i in range(steps + 1)
        ]
        for i, fl in enumerate(flags):
            if fl:
                assert prefix[i + 1] - prefix[i] >= dstar**r / 2, (sizes, i)
        runs += 1
    report(
        8, runs == 100,
        f"degree caps and useful-step gain >= (D*)^r/2 held on all {runs} "
        f"randomized inputs at lam = 2^-(r+1)",
        time.monotonic() - t0, 60.0,
    )


def test_criterion_09_sampler_validity():
    t0 = time.monotonic()
    steps = 10**6
    worst = 0.0
    worst_tv = 0.0
    for n in (5, 6):
        table = census.run_census(n, 2)
        for m in range(ex_turan(n, 3) + 1):
            cfg = ChainConfig(n=n, r=2, m=m, seed=2 * m + n, burn_in=1000,
                              thin=10, chains=4)
            res = estimate_rpartite(cfg, steps)
            frac = float(census.fraction_rpartite(table, m))
            worst = max(worst, abs(res.estimate - frac))
            assert abs(res.estimate - frac) <= 0.02, (n, m, res.estimate, frac)
            tv = tv_diagnostic(cfg, steps)
            worst_tv = max(worst_tv, tv)
            assert tv <= 0.02, (n, m, tv)

    cfg = ChainConfig(n=6, r=2, m=7, seed=99, burn_in=500, thin=10, chains=4)
    ra = run_chains(cfg, 10**5, trace=True)
    run_chains.cache_clear()  # the second traced run steps its own chains
    rb = run_chains(cfg, 10**5, trace=True)
    determinism = ra == rb and all(rec.trace for rec in ra)
    report(
        9, determinism,
        f"estimate within 0.02 of census on every feasible m for n=5,6 "
        f"(worst gap {worst:.4f}); tv_diagnostic <= 0.02 (worst {worst_tv:.4f}); "
        f"seed determinism {'byte-exact' if determinism else 'BROKEN'}",
        time.monotonic() - t0, 180.0,
    )


def test_criterion_10_heuristic_criticality():
    t0 = time.monotonic()
    vals = {}
    ok = True
    for n in (10**4, 10**5):
        at = heuristic_threshold_probe(n, 2, m_r(n, 2))
        above = heuristic_threshold_probe(n, 2, 2 * m_r(n, 2))
        below = heuristic_threshold_probe(n, 2, m_r(n, 2) / 2)
        vals[n] = (below, at, above)
        ok &= 0.1 <= at <= 10 and above < 0.01 and below > 100
    report(
        10, ok,
        f"P*m at m_r: {vals[10**4][1]:.3f} (n=1e4), {vals[10**5][1]:.3f} (n=1e5); "
        f"2*m_r: {vals[10**4][2]:.1e}, {vals[10**5][2]:.1e}; "
        f"m_r/2: {vals[10**4][0]:.0f}, {vals[10**5][0]:.0f}",
        time.monotonic() - t0, 1.0,
    )
