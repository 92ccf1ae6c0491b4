"""Exact census of all labeled graphs on n <= 8 vertices.

For every edge count m the table records how many graphs avoid K_{r+1}
(free), how many are r-colorable, how many are both (always the
r-colorable ones: r classes cannot hold an (r+1)-clique), how many have a
unique proper r-coloring (counted over set-partitions, not color-vector
labelings, so permuting color names does not inflate the count), and the
partition pair-sum  sum_{Pi} C(e(Pi), m)  over all partitions of [n] into
at most r classes.

Engine: rather than classifying the 2^C(n,2) edge masks one by one, two
bitwise lattice transforms over the mask space compute for *every* mask
simultaneously (a) the number of (r+1)-clique edge sets it contains
(subset-sum transform over the clique indicator) and (b) the number of
set-partitions whose complete multipartite graph contains it
(superset-sum transform over the partition-mask indicator).  A mask is
free iff (a) is zero and r-colorable iff (b) is positive.  The mask space
is sharded on high-order mask bits; each shard runs the transforms over
its low bits only and the per-m tallies merge by plain integer addition,
so results are byte-identical for any shard count and any worker count.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import CacheError, DomainError, SizeError, UndefinedFractionError
from .graph_core import BalanceSpec, enumerate_partitions, is_balanced, pair_index
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
# transform engine
# ---------------------------------------------------------------------------


def _subset_zeta_inplace(a: np.ndarray) -> None:
    # a[x] <- sum over y subseteq x of a[y]
    size = a.size
    step = 1
    while step < size:
        v = a.reshape(-1, 2 * step)
        v[:, step:] += v[:, :step]
        step <<= 1


def _superset_zeta_inplace(a: np.ndarray) -> None:
    # a[x] <- sum over y supseteq x of a[y]
    size = a.size
    step = 1
    while step < size:
        v = a.reshape(-1, 2 * step)
        v[:, :step] += v[:, step:]
        step <<= 1


def _popcount_array(bits: int) -> np.ndarray:
    pc = np.zeros(1, dtype=np.uint8)
    for _ in range(bits):
        pc = np.concatenate([pc, pc + 1])
    return pc


def _clique_edge_masks(n: int, k: int) -> List[int]:
    """Edge bitmask of every k-clique on vertex subsets of [n]."""
    from itertools import combinations

    out = []
    for vs in combinations(range(n), k):
        mask = 0
        for a in range(k - 1):
            for b in range(a + 1, k):
                mask |= 1 << pair_index(n, vs[a], vs[b])
        out.append(mask)
    return out


def _partition_cross_masks(n: int, r: int) -> List[int]:
    return [p.cross_edge_mask() for p in enumerate_partitions(n, r)]


def _clique_layer(n: int, k: int, low_bits: int, shard_value: int) -> np.ndarray:
    """For every mask of the shard (indexed by its low bits), the number of
    k-clique edge sets it contains."""
    size = 1 << low_bits
    low_mask = size - 1
    a = np.zeros(size, dtype=np.uint8)
    for cm in _clique_edge_masks(n, k):
        if cm >> low_bits & ~shard_value == 0:  # high part within the shard
            a[cm & low_mask] += 1
    _subset_zeta_inplace(a)
    return a


def _partition_layer(n: int, r: int, low_bits: int, shard_value: int) -> np.ndarray:
    """For every mask of the shard (indexed by its low bits), the number of
    partitions into at most r classes whose cross pairs cover it."""
    size = 1 << low_bits
    low_mask = size - 1
    a = np.zeros(size, dtype=np.uint16)
    for pm in _partition_cross_masks(n, r):
        if pm >> low_bits & shard_value == shard_value:  # high part covers shard
            a[pm & low_mask] += 1
    _superset_zeta_inplace(a)
    return a


def _census_shard(args: Tuple[int, int, int, int]) -> Tuple[np.ndarray, ...]:
    """Tally one shard: all masks whose top bits equal the shard value."""
    n, r, low_bits, shard_value = args
    nslots = n * (n - 1) // 2
    shard_pop = int(shard_value).bit_count()
    nclq = _clique_layer(n, r + 1, low_bits, shard_value)
    ncol = _partition_layer(n, r, low_bits, shard_value)
    pop = _popcount_array(low_bits)

    def tally(sel: np.ndarray) -> np.ndarray:
        bc = np.bincount(pop[sel], minlength=low_bits + 1)
        out = np.zeros(nslots + 1, dtype=np.int64)
        out[shard_pop : shard_pop + bc.size] = bc
        return out

    return tally(nclq == 0), tally(ncol > 0), tally(ncol == 1)


def shard_count(n: int, shards: Optional[int] = None) -> int:
    """The shard count run_census uses: shards if given, else 1 below n=8
    and 16 at n=8."""
    if shards is not None:
        return shards
    return 16 if n * (n - 1) // 2 > 24 else 1


def run_census(
    n: int, r: int, *, shards: Optional[int] = None, jobs: int = 1
) -> CensusTable:
    """Exact per-m counts over every one of the 2^C(n,2) labeled graphs.

    shards must be a power of two (default: 1 below n=8, 16 at n=8); the
    result is independent of both shards and jobs.
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
    shards = shard_count(n, shards)
    if shards < 1 or shards & (shards - 1):
        raise DomainError(f"shards={shards}: must be a power of two")
    shard_bits = shards.bit_length() - 1
    if shard_bits > nslots:
        raise DomainError(f"shards={shards}: more than 2^{nslots} masks exist")
    if jobs < 1:
        raise DomainError(f"jobs={jobs}: need at least one worker")
    low_bits = nslots - shard_bits

    work = [(n, r, low_bits, h) for h in range(shards)]
    if jobs > 1 and shards > 1:
        with Pool(min(jobs, shards)) as pool:
            parts = pool.map(_census_shard, work)
    else:
        parts = [_census_shard(w) for w in work]

    free = np.zeros(nslots + 1, dtype=np.int64)
    rcol = np.zeros(nslots + 1, dtype=np.int64)
    unique = np.zeros(nslots + 1, dtype=np.int64)
    for f, c, u in parts:
        free += f
        rcol += c
        unique += u

    # pair-sum column: aggregate partitions by their cross-pair count first,
    # then one binomial per distinct value per row
    cross_counts = Counter(p.cross_pair_count() for p in enumerate_partitions(n, r))
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


def pair_sum(n: int, r: int, m: int, gamma: Optional[float] = None) -> int:
    """sum over partitions Pi of [n] into at most r classes of C(e(Pi), m),
    optionally restricted to the gamma-balanced band; exact big integer."""
    if m < 0:
        raise DomainError(f"m={m}: edge count cannot be negative")
    spec = BalanceSpec(gamma) if gamma is not None else None
    total = 0
    for p in enumerate_partitions(n, r):
        if spec is None or is_balanced(p, spec):
            total += math.comb(p.cross_pair_count(), m)
    return total


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_census(table: CensusTable, path) -> None:
    """Versioned line-oriented text file with a trailing SHA-256 checksum.

    Written to a temporary file in the same directory and renamed into
    place, so a crashed or concurrent writer never leaves a truncated file
    at path."""
    body = f"{CENSUS_FORMAT_VERSION} n={table.n} r={table.r}\n"
    for row in table.rows:
        body += (
            f"{row.m},{row.free},{row.free_rcol},{row.rcol},"
            f"{row.unique_rcol},{row.pair_sum}\n"
        )
    payload = body.encode("ascii")
    digest = hashlib.sha256(payload).hexdigest()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.write(f"checksum={digest}\n".encode("ascii"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    if [row.m for row in rows] != list(range(nslots + 1)):
        raise CacheError(f"{path}: census rows do not cover m=0..{nslots}")
    return CensusTable(n=n, r=r, rows=tuple(rows))


# ---------------------------------------------------------------------------
# summary statistic distribution (for sampler convergence diagnostics)
# ---------------------------------------------------------------------------


def summary_counts(n: int, r: int, m: int) -> Dict[Tuple[bool, int], int]:
    """Joint counts of (is r-colorable, triangle count) over all
    K_{r+1}-free graphs with exactly m edges; n <= 7 (single shard)."""
    if n > 7:
        raise SizeError(f"n={n}: summary distribution is capped at n <= 7")
    if n < 1:
        raise DomainError(f"n={n}: need at least one vertex")
    nslots = n * (n - 1) // 2
    if not 0 <= m <= nslots:
        raise DomainError(f"m={m}: edge count outside 0..{nslots}")
    nclq = _clique_layer(n, r + 1, nslots, 0)
    ntri = _clique_layer(n, 3, nslots, 0)
    ncol = _partition_layer(n, r, nslots, 0)
    pop = _popcount_array(nslots)
    sel = (nclq == 0) & (pop == m)
    rcol = (ncol[sel] > 0).astype(np.int64)
    tri = ntri[sel].astype(np.int64)
    key = rcol * 1024 + tri
    values, counts = np.unique(key, return_counts=True)
    return {
        (bool(k // 1024), int(k % 1024)): int(c) for k, c in zip(values, counts)
    }
