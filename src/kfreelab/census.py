"""Exact census of all labeled graphs on n <= 8 vertices.

For every edge count m the table records how many graphs avoid K_{r+1}
(free), how many are r-colorable, how many are both (always the
r-colorable ones: r classes cannot hold an (r+1)-clique), how many have a
unique proper r-coloring (counted over set-partitions, not color-vector
labelings, so permuting color names does not inflate the count), and the
partition pair-sum  sum_{Pi} C(e(Pi), m)  over all partitions of [n] into
at most r classes.

Engine: rather than classifying the 2^C(n,2) edge masks one by one, two
bitwise lattice transforms over the mask space decide for *every* mask
simultaneously (a) whether it contains an (r+1)-clique edge set (an OR
subset-zeta over the clique indicator) and (b) whether 0, 1 or at least 2
set-partitions have a complete multipartite graph containing it (a
superset-zeta over the partition-mask indicator, with counts saturating
at 2).  A mask is free iff (a) is false and r-colorable iff (b) is
positive; the census needs no count beyond that.  Each answer is a plane
of packed bits, one uint64 word per 64 masks, and (b) is the pair of
planes ">= 1" and ">= 2".  Passes over the low 6 mask bits shift and mask
within words; passes over higher bits combine whole words.  The mask
space is sharded on high-order mask bits; each shard runs the transforms
over its low bits only and the per-m tallies (popcounts of the planes)
merge by plain integer addition, so results are byte-identical for any
shard count.  The shards run one after another in this process.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import CacheError, DomainError, SizeError, UndefinedFractionError
from .graph_core import enumerate_partitions, pair_index
from .turan import ex_turan

__all__ = [
    "CensusRow",
    "CensusTable",
    "run_census",
    "fraction_rpartite",
    "pair_sum",
    "save_census",
    "load_census",
    "summary_counts",
    "CENSUS_FORMAT_VERSION",
]

MAX_CENSUS_VERTICES = 8
MAX_SUMMARY_VERTICES = 7  # summary_counts, and so the sampler's exact law
CENSUS_FORMAT_VERSION = "KFREE-CENSUS v1"


class CensusRow(NamedTuple):
    m: int
    free: int
    free_rcol: int
    rcol: int
    unique_rcol: int
    pair_sum: int


@dataclass(frozen=True)
class CensusTable:
    n: int
    r: int
    rows: Tuple[CensusRow, ...]


# ---------------------------------------------------------------------------
# packed bit-plane engine
# ---------------------------------------------------------------------------

# A plane holds one bit per mask of a shard: the mask whose low bits are x
# sits at bit x & 63 of word x >> 6.  With fewer than 6 low bits only the
# first 2^low_bits lanes of the single word are masks.  _HIGH[i] marks the
# in-word lanes whose bit i is set, _POPK[k] the lanes of popcount k.
_HIGH = tuple(
    np.uint64(sum(1 << p for p in range(64) if p >> i & 1)) for i in range(6)
)
_POPK = np.array(
    [sum(1 << p for p in range(64) if p.bit_count() == k) for k in range(7)],
    dtype=np.uint64,
)


def _words(low_bits: int) -> int:
    return max(1, (1 << low_bits) >> 6)


def _plane(low_bits: int, lanes) -> np.ndarray:
    """A plane with exactly the given lanes set."""
    a = np.zeros(_words(low_bits), dtype=np.uint64)
    lanes = np.asarray(lanes, dtype=np.int64)
    np.bitwise_or.at(a, lanes >> 6, np.uint64(1) << (lanes & 63).astype(np.uint64))
    return a


def _bits(plane: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """The bit of each lane, as 0 or 1."""
    return plane[lanes >> 6] >> (lanes & 63).astype(np.uint64) & np.uint64(1)


def _clique_edge_masks(n: int, k: int) -> List[int]:
    """Edge bitmask of every k-clique on vertex subsets of [n]; none when
    k > n, which combinations would learn only after allocating k slots."""
    if k > n:
        return []
    return [sum(1 << pair_index(n, a, b) for a, b in combinations(vs, 2))
            for vs in combinations(range(n), k)]


def _partition_cross_masks(n: int, r: int) -> List[int]:
    return [p.cross_edge_mask() for p in enumerate_partitions(n, r)]


# The passes below write their intermediates into ``tmp``, two scratch
# planes of shape (2, words): a fresh temporary per operation would cost
# more than the operation itself.


def _clique_plane(
    n: int, k: int, low_bits: int, shard_value: int, tmp: np.ndarray
) -> np.ndarray:
    """Bit x is set iff the shard's mask with low bits x contains a k-clique:
    an OR subset-zeta over the clique indicator."""
    low_mask = (1 << low_bits) - 1
    a = _plane(
        low_bits,
        [cm & low_mask for cm in _clique_edge_masks(n, k)
         if cm >> low_bits & ~shard_value == 0],  # high part within the shard
    )
    for i in range(low_bits):
        if i < 6:
            np.left_shift(a, np.uint64(1 << i), out=tmp[0])
            tmp[0] &= _HIGH[i]
            a |= tmp[0]
        else:
            step = 1 << (i - 6)
            v = a.reshape(-1, 2 * step)
            v[:, step:] |= v[:, :step]
    return a


def _partition_planes(
    part_masks: List[int], low_bits: int, shard_value: int, tmp: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Planes (g1, g2): bit x of g1 (g2) is set iff at least one (two) of
    part_masks, the partitions' cross pairs, cover the shard's mask with low
    bits x.  A superset-zeta of the partition-mask counts, saturated at 2:
    adding the count pair (hi1, hi2) into (lo1, lo2) is
    lo2 |= hi2 | lo1 & hi1;  lo1 |= hi1."""
    low_mask = (1 << low_bits) - 1
    lanes, mult = np.unique(
        np.array(
            [pm & low_mask for pm in part_masks
             if pm >> low_bits & shard_value == shard_value],  # covers shard
            dtype=np.int64,
        ),
        return_counts=True,
    )
    g1 = _plane(low_bits, lanes)
    g2 = _plane(low_bits, lanes[mult > 1])
    hi, both = tmp
    for i in range(low_bits):
        if i < 6:
            s, low_lanes = np.uint64(1 << i), ~_HIGH[i]
            np.right_shift(g1, s, out=hi)
            hi &= low_lanes
            np.bitwise_and(g1, hi, out=both)
            g1 |= hi
            np.right_shift(g2, s, out=hi)
            hi &= low_lanes
            g2 |= hi
            g2 |= both
        else:
            step = 1 << (i - 6)
            v1, v2 = g1.reshape(-1, 2 * step), g2.reshape(-1, 2 * step)
            t = both[: g1.size // 2].reshape(-1, step)
            np.bitwise_and(v1[:, :step], v1[:, step:], out=t)
            t |= v2[:, step:]
            v2[:, :step] |= t
            v1[:, :step] |= v1[:, step:]
    return g1, g2


def _census_shard(args: Tuple) -> Tuple[np.ndarray, ...]:
    """Tally one shard: all masks whose top bits equal the shard value.
    args is (n, r, low_bits, shard_value, cross masks of the partitions):
    one tuple, so that a tracer wrapping this function can read args[2]."""
    n, r, low_bits, shard_value, part_masks = args
    nslots = n * (n - 1) // 2
    shard_pop = int(shard_value).bit_count()
    words = _words(low_bits)
    tmp = np.empty((2, words), dtype=np.uint64)
    clq = _clique_plane(n, r + 1, low_bits, shard_value, tmp)
    g1, g2 = _partition_planes(part_masks, low_bits, shard_value, tmp)

    # A lane's popcount is its word index's popcount plus its popcount
    # within the word.  Words sorted by the first make each class of the
    # first one segment; _POPK, cut to the valid lanes, splits the second.
    word_pop = np.bitwise_count(np.arange(words, dtype=np.uint64))
    order = np.argsort(word_pop, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(word_pop))[:-1]))
    popk = _POPK & np.uint64((1 << (1 << min(low_bits, 6))) - 1)
    counts = np.empty(words, dtype=np.uint8)

    def tally(plane: np.ndarray) -> np.ndarray:
        np.take(plane, order, out=tmp[0])
        out = np.zeros(nslots + 1, dtype=np.int64)
        for k in range(min(low_bits, 6) + 1):
            np.bitwise_and(tmp[0], popk[k], out=tmp[1])
            np.bitwise_count(tmp[1], out=counts)
            bc = np.add.reduceat(counts, starts, dtype=np.int64)
            out[shard_pop + k : shard_pop + k + bc.size] += bc
        return out

    np.invert(clq, out=clq)  # K_{r+1}-free
    g2 ^= g1  # g2 lies within g1: now exactly one covering partition
    return tally(clq), tally(g1), tally(g2)


def shard_count(n: int) -> int:
    """The default shard count of run_census, and the one the command line
    always uses: 1 below n=8 and 16 at n=8."""
    return 16 if n * (n - 1) // 2 > 24 else 1


def run_census(n: int, r: int, *, shards: Optional[int] = None) -> CensusTable:
    """Exact per-m counts over every one of the 2^C(n,2) labeled graphs.

    shards must be a power of two (default: shard_count(n)); the result
    is independent of it, which the tests check.
    """
    if n > MAX_CENSUS_VERTICES:
        raise SizeError(
            f"n={n}: exact census is capped at n <= {MAX_CENSUS_VERTICES} "
            f"(2^28 graphs); use the sampler for larger n"
        )
    if n < 1:
        raise DomainError(f"n={n}: need at least one vertex")
    if r < 1:
        raise DomainError(f"r={r}: need at least one color class")
    nslots = n * (n - 1) // 2
    shards = shard_count(n) if shards is None else shards
    if shards < 1 or shards & (shards - 1):
        raise DomainError(f"shards={shards}: must be a power of two")
    shard_bits = shards.bit_length() - 1
    if shard_bits > nslots:
        raise DomainError(f"shards={shards}: more than 2^{nslots} masks exist")
    low_bits = nslots - shard_bits

    part_masks = _partition_cross_masks(n, r)
    free = np.zeros(nslots + 1, dtype=np.int64)
    rcol = np.zeros(nslots + 1, dtype=np.int64)
    unique = np.zeros(nslots + 1, dtype=np.int64)
    for h in range(shards):
        f, c, u = _census_shard((n, r, low_bits, h, part_masks))
        free += f
        rcol += c
        unique += u

    # pair-sum column: aggregate partitions by their cross-pair count first,
    # then one binomial per distinct value per row
    cross_counts = Counter(pm.bit_count() for pm in part_masks)
    rows = tuple(
        CensusRow(
            m=m,
            free=int(free[m]),
            free_rcol=int(rcol[m]),  # r-colorable implies K_{r+1}-free
            rcol=int(rcol[m]),
            unique_rcol=int(unique[m]),
            pair_sum=sum(cnt * math.comb(e, m) for e, cnt in cross_counts.items()),
        )
        for m in range(nslots + 1)
    )
    return CensusTable(n=n, r=r, rows=rows)


def fraction_rpartite(table: CensusTable, m: int) -> Fraction:
    """Exact fraction of K_{r+1}-free m-edge graphs that are r-colorable."""
    if not 0 <= m < len(table.rows):
        raise DomainError(f"m={m}: table rows cover 0..{len(table.rows) - 1}")
    row = table.rows[m]
    if row.free == 0:
        raise UndefinedFractionError(
            f"m={m}: no K_{table.r + 1}-free graphs at this edge count "
            f"(ex = {ex_turan(table.n, table.r + 1)})"
        )
    return Fraction(row.free_rcol, row.free)


# units of about 1 ns on one x86 core: b**1.5 per b-bit product or binomial
_PAIR_SUM_BUDGET = 2 * 10**9


def pair_sum(n: int, r: int, m: int, gamma: Optional[float] = None) -> int:
    """sum over partitions Pi of [n] into at most r classes of C(e(Pi), m),
    exact: over size profiles a_1 >= ... >= a_k of n, k <= min(r, n), the sum
    of n!/(prod a_i! prod mult!) * C(C(n,2) - sum C(a_i,2), m), one binomial
    per distinct e(Pi).  gamma keeps profiles of exactly r parts in the band
    (1/r - gamma)n .. (1/r + gamma)n, ends included.  SizeError before any big
    binomial when the work passes _PAIR_SUM_BUDGET (n=200, r=4, m=10000; n=2000
    at r >= 2); n=16, r=4 and n=40, r=2 now answer.  n past float: OverflowError."""
    if m < 0 or n < 1 or r < 1:
        raise DomainError(f"n={n}, r={r}, m={m}: need n >= 1, r >= 1 and m >= 0")
    if gamma is not None:
        if not 0 < gamma < 1 or Fraction(gamma) >= Fraction(1, r):
            raise DomainError(f"gamma={gamma}: need 0 < gamma < 1/r = 1/{r}")
        lo, hi = (Fraction(1, r) - Fraction(gamma)) * n, (Fraction(1, r) + Fraction(gamma)) * n
    k = min(r, n)
    if k > 1 and n * n // 2 > _PAIR_SUM_BUDGET:  # n // 2 + 1 profiles of n-bit weights
        raise SizeError(f"n={n}, r={r}, m={m}: over the pair-sum work budget")
    top = ex_turan(n, k + 1)  # the most cross pairs of any profile
    lg = math.lgamma(top + 1) - math.lgamma(m + 1) - math.lgamma(top - m + 1) if top >= m else 0
    per_binomial = (lg / math.log(2)) ** 1.5  # one per distinct e(Pi) >= m
    per_profile = 5000 + (n * math.log2(k)) ** 1.5  # a visit, and <= n log2 k weight bits
    count = [1] * (n + 1 if k > 1 else 1)  # partitions of j into parts <= i; grows with i
    for i in range(2, k + 1):
        for j in range(i, n + 1):
            count[j] += count[j - i]
        if count[n] * per_profile + min(count[n], top - m + 1) * per_binomial > _PAIR_SUM_BUDGET:
            raise SizeError(f"n={n}, r={r}, m={m}: over the pair-sum work budget")
    by_cross: Counter = Counter()

    def walk(rest, most, largest, copies, sizes, ways):
        if rest == 0 and (gamma is None or len(sizes) == r and lo <= sizes[-1] <= sizes[0] <= hi):
            by_cross[n * (n - 1) // 2 - sum(a * (a - 1) // 2 for a in sizes)] += ways
        for a in range(min(rest, largest), 0, -1):
            if a * most < rest:  # at most `most` parts of size <= a
                break
            c = copies + 1 if a == largest else 1  # copies of a: ways counts set partitions
            walk(rest - a, most - 1, a, c, sizes + (a,), ways * math.comb(rest, a) // c)

    walk(n, k, n, 0, (), 1)
    return sum(ways * math.comb(e, m) for e, ways in by_cross.items())


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def write_atomic(path, data: bytes) -> None:
    """Write data to a temporary file in path's directory and rename it
    into place, so a crashed or concurrent writer never leaves a truncated
    file at path."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_census(table: CensusTable, path) -> None:
    """Versioned line-oriented text file with a trailing SHA-256 checksum,
    written with write_atomic."""
    body = f"{CENSUS_FORMAT_VERSION} n={table.n} r={table.r}\n"
    for row in table.rows:
        body += (
            f"{row.m},{row.free},{row.free_rcol},{row.rcol},"
            f"{row.unique_rcol},{row.pair_sum}\n"
        )
    payload = body.encode("ascii")
    digest = hashlib.sha256(payload).hexdigest()
    write_atomic(path, payload + f"checksum={digest}\n".encode("ascii"))


def load_census(path) -> CensusTable:
    """Round-trip partner of save_census; never reinterprets silently."""
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if not lines or not lines[-1].startswith(b"checksum="):
        raise CacheError(f"{path}: truncated census file (no checksum line)")
    stated = lines[-1][len(b"checksum=") :].decode("ascii", "replace")
    payload = b"\n".join(lines[:-1]) + b"\n"
    actual = hashlib.sha256(payload).hexdigest()
    if stated != actual:
        raise CacheError(f"{path}: corrupt census file (checksum mismatch)")
    header = lines[0].decode("ascii", "replace").split()
    if len(header) != 4 or " ".join(header[:2]) != CENSUS_FORMAT_VERSION:
        raise CacheError(
            f"{path}: schema-version mismatch (expected '{CENSUS_FORMAT_VERSION}', "
            f"got {lines[0].decode('ascii', 'replace')!r})"
        )
    try:
        n = int(header[2].removeprefix("n="))
        r = int(header[3].removeprefix("r="))
    except ValueError:
        raise CacheError(f"{path}: malformed census header") from None
    nslots = n * (n - 1) // 2
    rows = []
    for line in lines[1:-1]:
        fields = line.decode("ascii", "replace").split(",")
        if len(fields) != 6:
            raise CacheError(f"{path}: malformed census row {line!r}")
        try:
            rows.append(CensusRow(*(int(x) for x in fields)))
        except ValueError:
            raise CacheError(f"{path}: non-integer census row {line!r}") from None
    # the length first: the header's n sizes the range, and may be anything
    if len(rows) != nslots + 1 or any(row.m != m for m, row in enumerate(rows)):
        raise CacheError(f"{path}: census rows do not cover m=0..{nslots}")
    return CensusTable(n=n, r=r, rows=tuple(rows))


# ---------------------------------------------------------------------------
# summary statistic distribution (for sampler convergence diagnostics)
# ---------------------------------------------------------------------------


def summary_counts(n: int, r: int, m: int) -> Dict[Tuple[bool, int], int]:
    """Joint counts of (is r-colorable, triangle count) over all
    K_{r+1}-free graphs with exactly m edges; n <= MAX_SUMMARY_VERTICES."""
    if n > MAX_SUMMARY_VERTICES:
        raise SizeError(f"n={n}: summary distribution is capped at n <= {MAX_SUMMARY_VERTICES}")
    if n < 1:
        raise DomainError(f"n={n}: need at least one vertex")
    nslots = n * (n - 1) // 2
    if not 0 <= m <= nslots:
        raise DomainError(f"m={m}: edge count outside 0..{nslots}")
    masks = np.arange(1 << nslots, dtype=np.int64)
    masks = masks[np.bitwise_count(masks) == m]
    tmp = np.empty((2, _words(nslots)), dtype=np.uint64)
    masks = masks[_bits(_clique_plane(n, r + 1, nslots, 0, tmp), masks) == 0]
    g1 = _partition_planes(_partition_cross_masks(n, r), nslots, 0, tmp)[0]
    rcol = _bits(g1, masks).astype(np.int64)
    tri = np.zeros(masks.size, dtype=np.int64)
    for t in _clique_edge_masks(n, 3):
        tri += (masks & t) == t
    values, counts = np.unique(rcol * 1024 + tri, return_counts=True)
    return {
        (bool(k // 1024), int(k % 1024)): int(c) for k, c in zip(values, counts)
    }
