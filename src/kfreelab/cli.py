"""kfree: command line front end.

Subcommands: thresholds, census, sweep, sample, and a bounds group
(janson, fkg, exact, hoeffding, dsets, probe, pairsum).  Each returns its
table (header, rows, meta) and main writes it with _emit, the one writer,
which also writes the `sample --dump` trace.  Every artifact — stdout,
--out or --dump file — begins with the same reproducibility stanza
(package version, seed, RNG id, shard count) and nothing time- or
host-dependent, so identical invocations produce byte-identical output.
The census always runs census.shard_count(n) shards, so a table loaded
from the cache prints the same stanza as a computed one.

Exit codes: 0 success, 2 domain error (also an integer flag too large for
its computation), 3 size guard, 4 I/O; error messages name the offending
parameter.  KFREE_CACHE_DIR provides the default for --cache-dir; cached
censuses are stored in the checksummed native format and verified on load.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__, bounds, census, sampler, thresholds
from .errors import CacheError, DomainError, KfreeError, SizeError
from .turan import ex_turan

_RNG_ID = "philox4x64"
_QUANTITY = ("quantity", "value")
TRACE_COLUMNS = ("step", "is_rcol", "triangles", "edges_hash")

Rows = List[Tuple[str, ...]]
Table = Tuple[Tuple[str, ...], Rows, Dict[str, object]]  # header, rows, meta


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _make_meta(seed: Optional[int] = None, shards: Optional[int] = None) -> Dict[str, object]:
    """The reproducibility stanza: a seeded run draws from Philox."""
    return {
        "version": __version__,
        "seed": "-" if seed is None else seed,
        "rng": "none" if seed is None else _RNG_ID,
        "shards": "-" if shards is None else shards,
    }


def _emit(
    header: Tuple[str, ...],
    rows: Rows,
    meta: Dict[str, object],
    fmt: str,
    out: Optional[str],
) -> None:
    """Write one artifact, stanza first, to out or stdout.  rows are
    pre-stringified; JSON re-parses numeric strings so the three formats
    carry identical values."""
    if fmt in ("text", "csv"):
        sep = "," if fmt == "csv" else "  "
        stanza = "# kfree {version} seed={seed} rng={rng} shards={shards}".format(**meta)
        payload = "\n".join([stanza, sep.join(header), *(sep.join(row) for row in rows)]) + "\n"
    elif fmt == "json":
        def decode(s: str) -> object:
            try:
                return json.loads(s)
            except json.JSONDecodeError:
                return s

        payload = (
            json.dumps(
                {
                    "meta": meta,
                    "columns": list(header),
                    "rows": [[decode(c) for c in row] for row in rows],
                },
                indent=2,
            )
            + "\n"
        )
    else:
        raise DomainError(f"format={fmt}: expected text, csv, or json")
    if out:
        census.write_atomic(out, payload.encode("ascii"))
    else:
        sys.stdout.write(payload)


def _fnum(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_thresholds(args: argparse.Namespace) -> Table:
    n, r = args.n, args.r
    rows = [
        ("theta", _fnum(thresholds.theta(r))),
        ("m_r", _fnum(thresholds.m_r(n, r))),
        ("p_r", _fnum(thresholds.p_r(n, r))),
        ("ex_turan", str(ex_turan(n, r + 1))),
    ]
    if args.ell is not None:
        rows.append(("t_ell", _fnum(thresholds.t_ell(n, args.ell))))
    return _QUANTITY, rows, _make_meta()


def _cached_census(args: argparse.Namespace) -> census.CensusTable:
    """Load from --cache-dir when a valid cache exists, else compute (and
    cache when a directory is configured).  The request is checked first,
    so a cache answers only what run_census would.  A cached table for
    another (n, r) than its file name states is a cache error.  A load is
    reported on stderr, so the artifact stays that of the computed run."""
    n, r = args.n, args.r
    census._check_request(n, r)
    cache_dir = args.cache_dir or os.environ.get("KFREE_CACHE_DIR")
    path = os.path.join(cache_dir, f"census_n{n}_r{r}.txt") if cache_dir else None
    if path and os.path.exists(path):
        table = census.load_census(path)
        if (table.n, table.r) != (n, r):
            raise CacheError(
                f"{path}: holds the census for n={table.n}, r={table.r}, "
                f"but n={n}, r={r} was requested"
            )
        print(f"kfree: census n={n} r={r} loaded from {path}", file=sys.stderr)
        return table
    table = census.run_census(n, r)
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        census.save_census(table, path)
    return table


def cmd_census(args: argparse.Namespace) -> Table:
    table = _cached_census(args)
    rows = [
        (str(w.m), str(w.free), str(w.free_rcol), str(w.rcol), str(w.unique_rcol), str(w.pair_sum))
        for w in table.rows
    ]
    header = ("m", "free", "free_rcol", "rcol", "unique_rcol", "pair_sum")
    return header, rows, _make_meta(shards=census.shard_count(args.n))


def _parse_grid(spec: str, n: int, r: int) -> List[int]:
    cap = ex_turan(n, r + 1)
    if spec == "auto":
        lo = min(n, cap)
        pts = {lo, cap}
        if cap > lo:
            steps = 12
            for i in range(1, steps):
                pts.add(
                    round(math.exp(math.log(lo) + (math.log(cap) - math.log(lo)) * i / steps))
                )
            forced = round(thresholds.m_r(n, r))
            if lo <= forced <= cap:
                pts.add(forced)
        return sorted(pts)
    try:
        grid = sorted({int(tok) for tok in spec.split(",") if tok.strip()})
    except ValueError:
        raise DomainError(f"m={spec!r}: expected 'auto' or comma-separated integers") from None
    if not grid:
        raise DomainError(f"m={spec!r}: empty grid")
    for m in grid:
        if not 0 <= m <= cap:
            raise DomainError(f"m={m}: grid values must lie in 0..ex_turan = {cap}")
    return grid


def _chain_config(args: argparse.Namespace, m: int, seed: int) -> sampler.ChainConfig:
    """The chain of `sweep --engine sampler` and `sample` at (m, seed)."""
    return sampler.ChainConfig(
        n=args.n, r=args.r, m=m, seed=seed,
        burn_in=args.burn_in, thin=args.thin, chains=args.chains,
    )


def cmd_sweep(args: argparse.Namespace) -> Table:
    n, r = args.n, args.r
    grid = _parse_grid(args.m, n, r)
    cap = ex_turan(n, r + 1)
    header = ("n", "r", "m", "engine", "fraction_or_estimate", "stderr", "samples", "caveat")
    rows = []
    if args.engine == "census":
        if n > census.MAX_CENSUS_VERTICES:
            raise SizeError(
                f"n={n}: the census engine is capped at n <= "
                f"{census.MAX_CENSUS_VERTICES}; use --engine sampler"
            )
        table = _cached_census(args)
        for m in grid:
            frac = census.fraction_rpartite(table, m)
            rows.append(
                (str(n), str(r), str(m), "census", _fnum(float(frac)), _fnum(0.0),
                 str(table.rows[m].free), "0")
            )
        meta = _make_meta(shards=census.shard_count(n))
    else:
        for idx, m in enumerate(grid):
            cfg = _chain_config(args, m, args.seed + 1000003 * idx)
            res = sampler.estimate_rpartite(cfg, args.steps)
            caveat = "1" if m > 0.9 * cap else "0"
            rows.append(
                (str(n), str(r), str(m), "sampler", _fnum(res.estimate),
                 _fnum(res.stderr), str(sampler.retained_samples(cfg, args.steps)),
                 caveat)
            )
        meta = _make_meta(args.seed)
    return header, rows, meta


def cmd_sample(args: argparse.Namespace) -> Table:
    cfg = _chain_config(args, args.m, args.seed)
    records = sampler.run_chains(cfg, args.steps, bool(args.dump))
    res = sampler.estimate_from(records)
    meta = _make_meta(args.seed)
    if args.dump:
        trace = [tuple(map(str, row)) for rec in records for row in rec.trace]
        _emit(TRACE_COLUMNS, trace, meta, "csv", args.dump)
    rows = [
        ("estimate", _fnum(res.estimate)),
        ("stderr", _fnum(res.stderr)),
        ("samples", str(sampler.retained_samples(cfg, args.steps))),
        ("acceptance_rate", _fnum(res.acceptance_rate)),
    ]
    return _QUANTITY, rows, meta


def _load_family(path: str) -> bounds.ForbiddenFamily:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"family={path}: not ASCII text (byte {exc.start})") from None
    return bounds.family_from_json(text)


# row builders of the bounds group; build_parser binds each to its subparser


def bound_janson(args: argparse.Namespace) -> Rows:
    md = bounds.mu_delta_exact(_load_family(args.family), args.m)
    return [
        ("mu", _fnum(md.mu)),
        ("delta", _fnum(md.delta)),
        ("janson_upper", _fnum(bounds.janson_upper(md))),
    ]


def bound_fkg(args: argparse.Namespace) -> Rows:
    return [("fkg_lower", _fnum(bounds.fkg_lower(_load_family(args.family), args.m, args.eta)))]


def bound_exact(args: argparse.Namespace) -> Rows:
    prob = bounds.avoidance_probability_exact(_load_family(args.family), args.m)
    return [
        ("avoidance_exact", f"{prob.numerator}/{prob.denominator}"),
        ("avoidance_float", _fnum(float(prob))),
    ]


def bound_hoeffding(args: argparse.Namespace) -> Rows:
    return [("hoeffding", _fnum(bounds.hypergeom_hoeffding(args.alpha, args.lam, args.d)))]


def bound_dsets(args: argparse.Namespace) -> Rows:
    try:
        sizes = [int(t) for t in args.sizes.split(",") if t.strip()]
    except ValueError:
        raise DomainError(f"sizes={args.sizes!r}: expected comma-separated integers") from None
    res = bounds.dsets_tail_bound(args.k, args.alpha, args.lam, sizes, args.d)
    return [("dsets_bound", _fnum(res.bound)), ("tau", _fnum(res.tau))]


def bound_probe(args: argparse.Namespace) -> Rows:
    return [("probe", _fnum(bounds.heuristic_threshold_probe(args.n, args.r, args.m)))]


def bound_pairsum(args: argparse.Namespace) -> Rows:
    return [("pair_sum", str(census.pair_sum(args.n, args.r, args.m, args.gamma)))]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", help="write the artifact to this path instead of stdout")


def _add_chain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=100000)
    p.add_argument("--burn-in", type=int, default=1000, dest="burn_in")
    p.add_argument("--thin", type=int, default=10)
    p.add_argument("--chains", type=int, default=4)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kfree",
        description="census, sampling, thresholds, and probability bounds "
        "for clique-free graphs",
    )
    top.add_argument("--version", action="version", version=f"kfree {__version__}")
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("thresholds", help="closed-form threshold quantities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ell", type=int, default=None)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_thresholds)

    p = subs.add_parser("census", help="exact labeled census (n <= 8)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--cache-dir", dest="cache_dir", default=None)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_census)

    p = subs.add_parser("sweep", help="fraction-vs-m sweep over an edge-count grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--m",
        default="auto",
        help="comma-separated edge counts, or 'auto' for a geometric grid "
        "from n to ex_turan with the m_r point forced in",
    )
    p.add_argument("--engine", choices=("census", "sampler"), default="census")
    p.add_argument("--cache-dir", dest="cache_dir", default=None)
    _add_chain_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_sweep)

    p = subs.add_parser("sample", help="MCMC estimate of the r-colorable fraction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_chain_flags(p)
    p.add_argument("--dump", help="write one CSV row per retained sample to this path")
    _add_output_flags(p)
    p.set_defaults(fn=cmd_sample)

    p = subs.add_parser("bounds", help="probability bound evaluations")
    bsubs = p.add_subparsers(dest="bound", required=True)

    def bound_parser(name: str, help_text: str, build,
                     family: bool = False) -> argparse.ArgumentParser:
        bp = bsubs.add_parser(name, help=help_text)
        _add_output_flags(bp)
        if family:
            bp.add_argument("--family", required=True, help="family JSON file")
            bp.add_argument("--m", type=int, required=True)
        bp.set_defaults(fn=lambda args: (_QUANTITY, build(args), _make_meta()))
        return bp

    bound_parser("janson", "mu, Delta, and the Janson-type upper bound", bound_janson,
                 family=True)
    bp = bound_parser("fkg", "correlation lower bound", bound_fkg, family=True)
    bp.add_argument("--eta", type=float, required=True)
    bound_parser("exact", "exact avoidance probability (inclusion-exclusion, or "
                 "enumeration of the m-subsets past 20 minimal sets)", bound_exact, family=True)

    bp = bound_parser("hoeffding", "one-sided hypergeometric Hoeffding bound", bound_hoeffding)
    bp.add_argument("--alpha", type=float, required=True)
    bp.add_argument("--lam", type=float, required=True)
    bp.add_argument("--d", type=int, required=True)

    bp = bound_parser("dsets", "random d-subsets tail bound and tau recipe", bound_dsets)
    bp.add_argument("--k", type=int, required=True)
    bp.add_argument("--alpha", type=float, required=True)
    bp.add_argument("--lam", type=float, required=True)
    bp.add_argument("--d", type=int, required=True)
    bp.add_argument("--sizes", required=True, help="comma-separated class sizes")

    bp = bound_parser("probe", "P*m criticality probe at edge count m", bound_probe)
    bp.add_argument("--n", type=int, required=True)
    bp.add_argument("--r", type=int, required=True)
    bp.add_argument("--m", type=float, required=True)

    bp = bound_parser("pairsum", "partition pair-count sum, optionally gamma-balanced",
                      bound_pairsum)
    bp.add_argument("--n", type=int, required=True)
    bp.add_argument("--r", type=int, required=True)
    bp.add_argument("--m", type=int, required=True)
    bp.add_argument("--gamma", type=float, default=None)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        header, rows, meta = args.fn(args)
        _emit(header, rows, meta, args.format, args.out)
        return 0
    except SizeError as exc:
        print(f"kfree: size guard: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"kfree: domain error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        # an integer flag beyond double range, or one that drives a float
        # formula past it: name the outsized flags, else every integer flag
        ints = {k: v for k, v in vars(args).items() if type(v) is int}
        big = {k: v for k, v in ints.items() if abs(v) > sys.float_info.max} or ints
        fields = ", ".join(f"{k}={v}" for k, v in big.items())
        print(f"kfree: domain error: {fields}: beyond numeric range", file=sys.stderr)
        return 2
    except (CacheError, OSError) as exc:
        print(f"kfree: i/o error: {exc}", file=sys.stderr)
        return 4
    except KfreeError as exc:  # pragma: no cover - defensive catch-all
        print(f"kfree: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
