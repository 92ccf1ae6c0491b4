"""Exact census vs an independent per-graph enumeration oracle, plus
persistence framing and the partition pair-sum."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from kfreelab import (
    CacheError,
    DomainError,
    LabeledGraph,
    Partition,
    SizeError,
    UndefinedFractionError,
    contains_clique,
    enumerate_partitions,
    ex_turan,
    fraction_rpartite,
    load_census,
    miscolored_edges,
    pair_sum,
    run_census,
    save_census,
)
from kfreelab.census import MAX_CENSUS_VERTICES, summary_counts
from kfreelab.cli import main


def oracle_rows(n, r):
    """Slow route: classify every graph one at a time with the public
    graph predicates.  It shares no code with the census planes; its cover
    test reads the same Partition.cross_edge_mask, which
    test_colorable_iff_min_miscolored_zero_exhaustive_n5 checks against the
    colouring decider."""
    nbits = n * (n - 1) // 2
    parts = list(enumerate_partitions(n, r))
    rows = [[0, 0, 0, 0, 0] for _ in range(nbits + 1)]
    for mask in range(1 << nbits):
        g = LabeledGraph(n, mask)
        m = g.edge_count
        free = not contains_clique(g, r + 1)
        ncol = sum(1 for p in parts if miscolored_edges(g, p) == 0)
        row = rows[m]
        row[0] += free
        row[1] += free and ncol > 0
        row[2] += ncol > 0
        row[3] += ncol == 1
    for m in range(nbits + 1):
        rows[m][4] = sum(math.comb(p.cross_edge_mask().bit_count(), m) for p in parts)
    return rows


@pytest.mark.parametrize(
    "n,r",
    # n <= 3 leaves fewer than 64 masks: a partial plane word
    [(n, r) for n in (1, 2, 3) for r in (1, 2, 3, 4)]
    + [(4, 2), (4, 3), (5, 2), (5, 3)],
)
def test_census_matches_per_graph_oracle(n, r):
    table = run_census(n, r)
    expected = oracle_rows(n, r)
    for m, row in enumerate(table.rows):
        assert [row.free, row.free_rcol, row.rcol, row.unique_rcol, row.pair_sum] == [
            expected[m][0],
            expected[m][1],
            expected[m][2],
            expected[m][3],
            expected[m][4],
        ], f"m={m}"


# Closed forms for n = 6, 7, where the per-graph oracle is too slow.  They
# share no code with the census engine or with enumerate_partitions.


def size_profiles(n, most, largest=None):
    """Integer partitions of n into at most `most` parts, largest first."""
    if n == 0:
        yield ()
        return
    for a in range(min(n, largest or n), 0, -1):
        if most:
            for rest in size_profiles(n - a, most - 1, a):
                yield (a,) + rest


def closed_pair_sum(n, r, m):
    """Sum over size profiles of (set partitions with that profile) times
    C(cross pairs, m)."""
    total = 0
    for sizes in size_profiles(n, r):
        count = math.factorial(n)
        for a in sizes:
            count //= math.factorial(a)
        for a in set(sizes):
            count //= math.factorial(sizes.count(a))
        cross = math.comb(n, 2) - sum(math.comb(a, 2) for a in sizes)
        total += count * math.comb(cross, m)
    return total


def bipartite_by_edges(n_max):
    """b[n][m]: labeled bipartite graphs on n vertices with m edges, from
    B(x, y)^2 = A(x, y) = sum_n x^n/n! sum_k C(n, k) (1+y)^(k(n-k)); a
    connected bipartite graph has exactly two proper 2-colourings."""
    a = []
    for n in range(n_max + 1):
        poly = [0] * (n * n // 4 + 1)
        for k in range(n + 1):
            for j in range(k * (n - k) + 1):
                poly[j] += math.comb(n, k) * math.comb(k * (n - k), j)
        a.append(poly)
    b = [[1]]
    for n in range(1, n_max + 1):
        twice = list(a[n])  # B^2 = A, coefficient of x^n/n!, holds 2*b_n
        for i in range(1, n):
            for j, x in enumerate(b[i]):
                for l, y in enumerate(b[n - i]):
                    twice[j + l] -= math.comb(n, i) * x * y
        assert all(c % 2 == 0 for c in twice)
        b.append([c // 2 for c in twice])
    return b


def free_by_vertex_extension(n, r):
    """free[m], the K_{r+1}-free graphs on n vertices with m edges.  G + v is
    K_{r+1}-free iff G is and the neighbourhood S of v spans no K_r, so each
    pair (G, S) over the graphs G on n - 1 vertices counts at m = e(G) + |S|.
    Cliques are tested on every mask of G at once with numpy; no census
    plane and no enumerate_partitions."""
    k = n - 1
    masks = np.arange(1 << (k * (k - 1) // 2), dtype=np.int64)
    spans = {}  # vertex set -> does each G hold every pair inside it

    def spanned(vs):
        if vs not in spans:
            t = sum(1 << (u * (2 * k - u - 1) // 2 + (v - u - 1)) for u, v in combinations(vs, 2))
            spans[vs] = (masks & t) == t
        return spans[vs]

    free_g = ~np.logical_or.reduce([spanned(vs) for vs in combinations(range(k), r + 1)])
    edges = np.bitwise_count(masks).astype(np.int64)
    free = np.zeros(n * (n - 1) // 2 + 1, dtype=np.int64)
    for s in range(1 << k):
        inside = [v for v in range(k) if s >> v & 1]
        hit = [spanned(vs) for vs in combinations(inside, r)]
        ok = free_g & ~np.logical_or.reduce(hit) if hit else free_g
        free += np.bincount(edges[ok] + len(inside), minlength=free.size)
    return free


@pytest.mark.parametrize("n,r", [(6, 2), (6, 3), (7, 2), (7, 3)])
def test_free_column_matches_vertex_extension(n, r):
    free = free_by_vertex_extension(n, r)
    assert [row.free for row in run_census(n, r).rows] == free.tolist()


def colourings_by_cover_counts(n, r):
    """rcol[m] and unique_rcol[m]: the m-edge graphs inside the cross pairs
    of at least one, and of exactly one, set partition of [n] into at most r
    classes.  The partitions are restricted-growth strings built here (vertex
    0 in class 0, each vertex in a used class or the next new one), not
    enumerate_partitions; one vectorised test per partition marks every
    mask inside its cross pairs.  No census plane is read."""
    strings = [(0,)]
    for _ in range(n - 1):
        strings = [a + (c,) for a in strings for c in range(min(max(a) + 2, r))]
    pairs = list(combinations(range(n), 2))  # slot order u(2n-u-1)/2 + (v-u-1)
    masks = np.arange(1 << len(pairs), dtype=np.uint32)
    covers = np.zeros(masks.size, dtype=np.uint16)
    inside = np.empty_like(masks)
    for a in strings:
        within = sum(1 << s for s, (u, v) in enumerate(pairs) if a[u] == a[v])
        np.bitwise_and(masks, np.uint32(within), out=inside)
        covers += inside == 0
    edges = np.bitwise_count(masks).astype(np.int64)
    count = lambda keep: np.bincount(edges[keep], minlength=len(pairs) + 1).tolist()
    return count(covers >= 1), count(covers == 1)


@pytest.mark.parametrize("n,r", [(n, r) for n in (6, 7) for r in (2, 3, 4)])
def test_colouring_columns_match_cover_counts(n, r):
    rows = run_census(n, r).rows
    rcol, unique = colourings_by_cover_counts(n, r)
    assert [row.rcol for row in rows] == rcol
    assert [row.unique_rcol for row in rows] == unique


@pytest.mark.parametrize("n,r", [(n, r) for n in (6, 7) for r in (2, 3, 4)])
def test_census_matches_closed_forms(n, r):
    table = run_census(n, r)
    bipartite = bipartite_by_edges(n)[n]
    for row in table.rows:
        assert row.pair_sum == closed_pair_sum(n, r, row.m), f"m={row.m}"
        if r == 2:
            # the r=2 `free` column (labeled triangle-free graphs, OEIS
            # A006785) has no closed form here and is not pinned
            want = bipartite[row.m] if row.m < len(bipartite) else 0
            assert row.rcol == row.free_rcol == want, f"m={row.m}"


def test_spec_fixture_rows():
    t4 = run_census(4, 2)
    assert (t4.rows[3].free, t4.rows[3].free_rcol) == (16, 16)
    t5 = run_census(5, 2)
    assert (t5.rows[6].free, t5.rows[6].free_rcol) == (10, 10)
    assert t4.rows[5].free == 0  # beyond ex_turan(4,3)=4


def test_few_edges_cannot_contain_triangle():
    t = run_census(6, 2)
    for m in range(3):
        assert t.rows[m].free == math.comb(15, m)


def test_extremal_row_counts_turan_labelings():
    # at m = ex the only free graphs are the extremal ones: K_{3,3} has
    # C(6,3)/2 = 10 labelings
    t = run_census(6, 2)
    assert t.rows[9].free == 10
    assert fraction_rpartite(t, 9) == 1


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_fraction_is_one_at_extremal(n):
    t = run_census(n, 2)
    assert fraction_rpartite(t, ex_turan(n, 3)) == Fraction(1)


def test_fraction_errors():
    t = run_census(4, 2)
    with pytest.raises(DomainError):
        fraction_rpartite(t, 7)
    with pytest.raises(UndefinedFractionError, match="m=5"):
        fraction_rpartite(t, 5)


def test_shard_independence():
    base = run_census(6, 2)
    assert run_census(6, 2, shards=4).rows == base.rows
    assert run_census(6, 2, shards=16).rows == base.rows
    # n=4 has 6 edge slots: 64 shards leave one mask (no low bits) each
    for r in (2, 3):
        base = run_census(4, r)
        for shard_bits in range(7):
            assert run_census(4, r, shards=1 << shard_bits).rows == base.rows


def test_shard_validation():
    with pytest.raises(DomainError):
        run_census(5, 2, shards=3)  # not a power of two
    with pytest.raises(SizeError):
        run_census(MAX_CENSUS_VERTICES + 1, 2)
    with pytest.raises(DomainError):
        run_census(0, 2)


def test_save_load_roundtrip(tmp_path):
    t = run_census(5, 2)
    path = tmp_path / "c.txt"
    save_census(t, path)
    assert load_census(path).rows == t.rows
    # byte determinism of the file itself
    raw = path.read_bytes()
    save_census(t, path)
    assert path.read_bytes() == raw


def test_load_rejects_corruption(tmp_path, capsys):
    t = run_census(4, 2)
    path = tmp_path / "c.txt"
    save_census(t, path)
    raw = path.read_bytes()

    path.write_bytes(raw.replace(b"16", b"61", 1))
    with pytest.raises(CacheError, match="checksum"):
        load_census(path)

    path.write_bytes(raw[: raw.index(b"checksum=")])
    with pytest.raises(CacheError, match="truncated"):
        load_census(path)

    tampered = raw.replace(b"KFREE-CENSUS v1", b"KFREE-CENSUS v9")
    path.write_bytes(tampered)
    with pytest.raises(CacheError):
        load_census(path)

    # a header n far beyond the rows, under a valid checksum: rejected from
    # the row count, before the header's C(n,2)+1 sizes anything
    payload = raw[: raw.index(b"checksum=")].replace(b" n=4 ", b" n=10000000 ", 1)
    path = tmp_path / "census_n8_r2.txt"
    path.write_bytes(payload + b"checksum=%s\n" % hashlib.sha256(payload).hexdigest().encode())
    with pytest.raises(CacheError, match="do not cover"):
        load_census(path)
    assert main(["census", "--n", "8", "--r", "2", "--cache-dir", str(tmp_path)]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_pair_sum_micro():
    # partitions of [2] into <= 2 classes: one with 0 cross pairs, one with 1
    assert pair_sum(2, 2, 0) == 2
    assert pair_sum(2, 2, 1) == 1
    with pytest.raises(DomainError):
        pair_sum(3, 2, -1)


def reference_cross_counts(n, r, gamma=None):
    """The walk over set partitions: enumerate_partitions and the popcount
    of each partition's cross-pair mask, with the band applied class by
    class (an empty class is below it)."""
    parts = enumerate_partitions(n, r)
    if gamma is not None:
        lo, hi = (Fraction(1, r) - Fraction(gamma)) * n, (Fraction(1, r) + Fraction(gamma)) * n
        parts = [p for p in parts if p.r == r and all(lo <= s <= hi for s in p.class_sizes)]
    return [p.cross_edge_mask().bit_count() for p in parts]


@pytest.mark.parametrize("n", range(1, 8))
def test_pair_sum_matches_set_partition_walk(n):
    for r in range(1, n + 2):
        for gamma in (None, 0.05, 0.1, 0.2, 0.25):  # 0.25 puts band ends on integers
            if gamma is not None and Fraction(gamma) >= Fraction(1, r):
                with pytest.raises(DomainError, match="gamma"):
                    pair_sum(n, r, 0, gamma)
                continue
            cross = reference_cross_counts(n, r, gamma)
            for m in range(n * (n - 1) // 2 + 2):
                want = sum(math.comb(e, m) for e in cross)
                assert pair_sum(n, r, m, gamma) == want, (n, r, m, gamma)


@pytest.mark.parametrize("n", [16, 40])
def test_pair_sum_r2_matches_bipartition_closed_form(n):
    # past the walk's reach: a partition into at most two classes is {A, [n] - A},
    # C(n, a) of them with |A| = a < n/2, half as many at a = n/2
    for m in range(n * n // 4 + 2):
        want = sum(
            math.comb(n, a) // (2 if 2 * a == n else 1) * math.comb(a * (n - a), m)
            for a in range(n // 2 + 1)
        )
        assert pair_sum(n, 2, m) == want, f"m={m}"


def test_pair_sum_work_guard():
    # the profile walk and its binomials are costed before any big integer
    with pytest.raises(SizeError, match="work budget"):
        pair_sum(200, 4, 10000)
    with pytest.raises(SizeError, match="work budget"):
        pair_sum(2000, 10**8, 3)  # refused before the walk could recurse 2000 deep
    assert pair_sum(10**300, 1, 0) == 1  # one profile, however large n


def test_pair_sum_dominates_colorable_count():
    t = run_census(5, 2)
    for m in range(11):
        assert pair_sum(5, 2, m) >= t.rows[m].rcol
        assert t.rows[m].pair_sum == pair_sum(5, 2, m)


def test_pair_sum_gamma_filter():
    # n=6, r=2, only the 3+3 splits stay inside a tight band
    full = pair_sum(6, 2, 1)
    tight = pair_sum(6, 2, 1, gamma=0.05)
    balanced = [
        p
        for p in enumerate_partitions(6, 2)
        if tuple(sorted(p.class_sizes)) == (3, 3)
    ]
    assert tight == sum(p.cross_edge_mask().bit_count() for p in balanced)
    assert tight < full


def test_unique_share_grows_toward_extremal():
    t = run_census(7, 2)
    ex = ex_turan(7, 3)
    share_ex = Fraction(t.rows[ex].unique_rcol, t.rows[ex].rcol)
    share_mid = Fraction(t.rows[7].unique_rcol, t.rows[7].rcol)
    assert share_ex > share_mid


def summary_oracle(n, r):
    """Joint law of (r-colorable, triangle count) among K_{r+1}-free graphs,
    per edge count m, by classifying every graph."""
    nbits = n * (n - 1) // 2
    parts = list(enumerate_partitions(n, r))
    expected = {m: {} for m in range(nbits + 1)}
    for mask in range(1 << nbits):
        g = LabeledGraph(n, mask)
        if contains_clique(g, r + 1):
            continue
        key = (
            any(miscolored_edges(g, p) == 0 for p in parts),
            sum(
                1
                for a in range(n)
                for b in range(a + 1, n)
                for c in range(b + 1, n)
                if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
            ),
        )
        law = expected[g.edge_count]
        law[key] = law.get(key, 0) + 1
    return expected


def test_summary_counts_against_oracle():
    # n = 2, 3 leave fewer than 64 masks: a partial plane word
    for n in (2, 3, 4, 5):
        for r in (2, 3):
            for m, law in summary_oracle(n, r).items():
                assert summary_counts(n, r, m) == law, (n, r, m)


def test_summary_counts_guard():
    with pytest.raises(SizeError):
        summary_counts(8, 2, 3)


def test_huge_r_answers_as_r_equals_n_in_bounded_memory():
    # every graph on n <= r vertices is K_{r+1}-free and r-colorable, and
    # neither the partitions nor the clique masks may be sized by r.  A
    # child process, so that the peak resident set is this work's alone.
    code = (
        "import json, resource\n"
        "from kfreelab import census\n"
        "rows = [list(w) for w in census.run_census(8, 10**8).rows]\n"
        "summary = sorted([list(k), c] for k, c in census.summary_counts(6, 10**8, 3).items())\n"
        "kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(json.dumps([rows, summary, kib]))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    rows, summary, kib = json.loads(done.stdout)
    for m, row in enumerate(rows):
        every = math.comb(28, m)  # only K_8 has a unique colouring
        assert row == [m, every, every, every, int(m == 28), closed_pair_sum(8, 8, m)]
    assert summary == sorted([list(k), c] for k, c in summary_counts(6, 6, 3).items())
    assert kib < 200 * 1024
