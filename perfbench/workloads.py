"""The benchmark's workloads.

Each workload is built from the seed by ``prepare`` (pure: no files, no
clock) and then runs one fixed unit of work per ``run`` call.  Every
operation in a unit runs through ``ops.check``, which takes the problems
it finds in its own output; an operation with any problem, or one that
raises, counts as failed.
The kfreelab modules are always reached through module attributes, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import shutil
import tempfile
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from kfreelab import bounds, census, cli, sampler
from kfreelab.graph_core import LabeledGraph, Partition
from kfreelab.turan import balanced_sizes, ex_turan

CHAIN = {"chains": 4, "burn_in": 1000, "thin": 10}  # the CLI's defaults, used by every chain here
TOLERANCE = 0.02  # criterion 09: gap to the census and TV distance
SLACK = 1e-12  # criterion 04: float slack of the FKG <= exact <= Janson sandwich


class Ops:
    """Counts checked operations; ``attempted`` is also the id of the one
    in progress."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, op: Callable[[], Sequence[str]]) -> None:
        """Run one operation, which returns the problems it found; an
        exception it raises is a problem too."""
        try:
            problems = op()
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _cli(argv: Sequence[str]) -> Tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def _table_rows(text: str, fmt: str) -> List[List[str]]:
    """Data rows of a kfree artifact, as strings, in any of its formats."""
    if fmt == "json":
        return [[str(c) for c in row] for row in json.loads(text)["rows"]]
    sep = "," if fmt == "csv" else None
    return [line.split(sep) for line in text.splitlines()[2:]]


class CensusN:
    """``kfree census --n N --r 2`` twice on a fresh cache directory: one
    computing run, then one cache-hit run.  The seed picks the output
    format; each format's SHA-256 was recorded from kfreelab 0.1.0 (commit bf1ad17)."""

    def __init__(self, n: int, digests: Dict[str, str]) -> None:
        self.n = n
        self.digests = digests
        self.items = 2 ** (n * (n - 1) // 2)  # labeled graphs classified per unit
        self.sampler_points: List[Tuple[int, int]] = []

    def prepare(self, seed: int) -> dict:
        fmt = ("text", "csv", "json")[seed % 3]
        argv = ["census", "--n", str(self.n), "--r", "2", "--format", fmt]
        return {"fmt": fmt, "argv": argv, "ex": ex_turan(self.n, 3)}

    def run(self, inp: dict, ops: Ops, work_dir: str) -> None:
        cache = tempfile.mkdtemp(dir=work_dir)
        try:
            argv = inp["argv"] + ["--cache-dir", cache]
            computed: List[str] = []
            ops.check(functools.partial(self.check_computed, argv, inp, computed))
            ops.check(functools.partial(self.check_cached, argv, computed))
        finally:
            shutil.rmtree(cache)

    def check_computed(self, argv: List[str], inp: dict, computed: List[str]) -> List[str]:
        rc, text = _cli(argv)
        computed.append(text)
        if rc != 0:
            return [f"census exit {rc}"]
        problems = []
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        if digest != self.digests[inp["fmt"]]:
            problems.append(f"census {inp['fmt']} artifact sha256 {digest} differs from the recorded one")
        top = {int(r[0]): r for r in _table_rows(text, inp["fmt"])}.get(inp["ex"])
        if top is None or int(top[1]) == 0 or int(top[2]) != int(top[1]):
            problems.append(f"census fraction at m=ex={inp['ex']} is not 1: {top}")
        return problems

    def check_cached(self, argv: List[str], computed: List[str]) -> List[str]:
        rc, cached = _cli(argv)
        return [] if rc == 0 and [cached] == computed else ["cache-hit artifact differs from the computed one"]


class Sweep:
    """``kfree sweep --engine sampler`` on the auto grid, one seeded call.
    The grid read back from the artifact becomes ``sampler_points``, the
    (n, m) points the traced run calibrates the chain kernel at."""

    def __init__(self, n: int, steps: int, rows: int) -> None:
        self.n = n
        self.steps = steps
        self.rows = rows
        self.items = rows * (steps // CHAIN["chains"]) * CHAIN["chains"]  # chain steps per unit
        self.sampler_points: List[Tuple[int, int]] = []

    def prepare(self, seed: int) -> dict:
        rng = random.Random(seed)
        argv = [
            "sweep", "--n", str(self.n), "--r", "2", "--engine", "sampler", "--m", "auto",
            "--steps", str(self.steps), "--seed", str(rng.randrange(2**31)),
            "--chains", str(CHAIN["chains"]), "--burn-in", str(CHAIN["burn_in"]),
            "--thin", str(CHAIN["thin"]), "--format", "csv",
        ]
        cfg = sampler.ChainConfig(n=self.n, r=2, m=0, **CHAIN)
        return {"argv": argv, "ex": ex_turan(self.n, 3),
                "samples": sampler.retained_samples(cfg, self.steps)}

    def run(self, inp: dict, ops: Ops, work_dir: str) -> None:
        ops.check(functools.partial(self.check_sweep, inp))

    def check_sweep(self, inp: dict) -> List[str]:
        rc, text = _cli(inp["argv"])
        if rc != 0:
            return [f"sweep exit {rc}"]
        lines = text.splitlines()
        if len(lines) != self.rows + 2 or not lines[0].startswith("# kfree "):
            return [f"sweep CSV has {len(lines)} lines, expected stanza, header and {self.rows} rows"]
        if lines[1] != "n,r,m,engine,fraction_or_estimate,stderr,samples,caveat":
            return [f"sweep CSV header {lines[1]!r}"]
        problems = []
        ms = []
        for line in lines[2:]:
            f = line.split(",")
            try:
                n, r, m, engine, est, err, samples, caveat = f
                n, r, m, est, err, samples = int(n), int(r), int(m), float(est), float(err), int(samples)
            except ValueError:
                problems.append(f"malformed sweep row {line!r}")
                continue
            ms.append(m)
            if (n, r, engine) != (self.n, 2, "sampler") or caveat not in ("0", "1") or not err >= 0:
                problems.append(f"sweep row {line!r} is inconsistent")
            if not 0.0 <= est <= 1.0:
                problems.append(f"estimate {est} at m={m} outside [0,1]")
            if samples != inp["samples"]:
                problems.append(f"samples {samples} at m={m}, retained_samples gives {inp['samples']}")
            if m == inp["ex"] and est != 1.0:
                problems.append(f"estimate {est} at m=ex={m} is not exactly 1.0")
        if ms != sorted(set(ms)) or not ms or ms[-1] != inp["ex"]:
            problems.append(f"sweep grid {ms} does not rise to ex={inp['ex']}")
        self.sampler_points = [(self.n, m) for m in ms]
        return problems


class Verify:
    """Criterion 09's shape: for every feasible m at each n, estimate_rpartite
    and tv_diagnostic against the exact census, both within 0.02."""

    def __init__(self, ns: Sequence[int], steps: int) -> None:
        self.ns = tuple(ns)
        self.steps = steps
        self.sampler_points = [(n, m) for n in self.ns for m in range(ex_turan(n, 3) + 1)]
        self.items = 2 * len(self.sampler_points) * (steps // CHAIN["chains"]) * CHAIN["chains"]

    def prepare(self, seed: int) -> dict:
        rng = random.Random(seed)
        tables = {n: census.run_census(n, 2) for n in self.ns}
        points = []
        for n, m in self.sampler_points:
            cfg = sampler.ChainConfig(n=n, r=2, m=m, seed=rng.getrandbits(63), **CHAIN)
            points.append((cfg, float(census.fraction_rpartite(tables[n], m))))
        return {"points": points}

    def run(self, inp: dict, ops: Ops, work_dir: str) -> None:
        for cfg, exact in inp["points"]:
            ops.check(functools.partial(self.check_point, cfg, exact))

    def check_point(self, cfg: sampler.ChainConfig, exact: float) -> List[str]:
        est = sampler.estimate_rpartite(cfg, self.steps).estimate
        tv = sampler.tv_diagnostic(cfg, self.steps)
        problems = []
        if not abs(est - exact) <= TOLERANCE:
            problems.append(f"n={cfg.n} m={cfg.m}: estimate {est} vs census {exact}")
        if not tv <= TOLERANCE:
            problems.append(f"n={cfg.n} m={cfg.m}: tv {tv}")
        return problems


def build_family(part: Partition, edges: Sequence[Tuple[int, int]]) -> bounds.ForbiddenFamily:
    """Union of the near-clique families of several missing within-class edges."""
    fams = [bounds.krminus_family(part, e) for e in edges]
    return bounds.ForbiddenFamily(fams[0].ground_size, tuple(s for f in fams for s in f.sets))


# (n, r, missing edges, m) per bound instance, on balanced hosts with equal
# class sizes, so each template's minimal-set count, and with it the exact
# oracle's strategy, is fixed: up to 20 sets go to inclusion-exclusion,
# more fall through to direct enumeration of the C(N, m) edge subsets.
IE_TEMPLATES = (
    [(6, 2, k, m) for k in (1, 2, 3) for m in (2, 3, 4)]
    + [(8, 2, k, m) for k in (1, 2, 3, 4, 5) for m in (4, 6, 8)]
    + [(10, 2, k, m) for k in (1, 2, 3, 4) for m in (6, 9, 12)]
    + [(6, 3, k, m) for k in (1, 2, 3) for m in (3, 6)]
    + [(9, 3, k, m) for k in (1, 2) for m in (6, 9, 13)]
    + [(8, 4, k, m) for k in (1, 2) for m in (6, 9, 12)]
)
ENUM_TEMPLATES = [(8, 2, 6, 8), (8, 2, 8, 6), (10, 2, 5, 6), (9, 3, 3, 6), (8, 4, 3, 6)]
BOUND_TEMPLATES = IE_TEMPLATES + ENUM_TEMPLATES


class BoundsExact:
    """Seeded near-clique family unions; each instance runs the exact
    avoidance oracle, mu_delta_exact with Janson, FKG and the closed form."""

    def __init__(self, templates: Sequence[Tuple[int, int, int, int]]) -> None:
        self.templates = tuple(templates)
        self.items = len(self.templates)  # bound instances per unit
        self.sampler_points: List[Tuple[int, int]] = []

    def prepare(self, seed: int) -> dict:
        rng = random.Random(seed)
        instances = []
        for n, r, k, m in self.templates:
            sizes = balanced_sizes(n, r)
            part = Partition(n, r, tuple(c for c, s in enumerate(sizes) for _ in range(s)))
            within = [(u, v) for u in range(n) for v in range(u + 1, n)
                      if part.class_of[u] == part.class_of[v]]
            instances.append((part, tuple(rng.sample(within, k)), m, rng.uniform(0.1, 0.9)))
        return {"instances": instances}

    def run(self, inp: dict, ops: Ops, work_dir: str) -> None:
        for instance in inp["instances"]:
            ops.check(functools.partial(self.check_instance, *instance))

    def check_instance(self, part: Partition, edges: Tuple[Tuple[int, int], ...], m: int,
                       eta: float) -> List[str]:
        fam = build_family(part, edges)
        exact = float(bounds.avoidance_probability_exact(fam, m))
        md = bounds.mu_delta_exact(fam, m, exact=True)
        upper = bounds.janson_upper(md)
        lower = bounds.fkg_lower(fam, m, eta)
        cf = bounds.mu_delta_closed_form(
            part, LabeledGraph.from_edge_list(part.n, list(edges)),
            Fraction(m, fam.ground_size), exact=True,
        )
        where = f"host {part.class_sizes} missing {edges} m={m}"
        problems = []
        if not lower <= exact + SLACK:
            problems.append(f"{where}: fkg {lower} > exact {exact}")
        if not exact <= upper + SLACK:
            problems.append(f"{where}: exact {exact} > janson {upper}")
        if not cf.mu <= md.mu:
            problems.append(f"{where}: closed-form mu {cf.mu} > exact {md.mu}")
        if not cf.delta >= md.delta:
            problems.append(f"{where}: closed-form delta {cf.delta} < exact {md.delta}")
        return problems


CENSUS_N8_SHA256 = {
    "text": "e25ce60d4cdc5586929ea7366ecfa4844de6d877b2ad9a8d393cf9327db5ea11",
    "csv": "271bad1ccf9607ece6cc2b5f23ca0bb8a2756322a5fa9421c95fba518436925b",
    "json": "91c20bf13839fd47cd9f8dc5fd7210bf24a23998723d3d32eab8882f88778319",
}

WORKLOADS = {
    "census-n8": lambda: CensusN(8, CENSUS_N8_SHA256),
    "sweep-n24": lambda: Sweep(24, steps=100_000, rows=14),  # the CLI's default --steps
    "verify-n6": lambda: Verify((5, 6), steps=125_000),  # an eighth of criterion 09's 10^6
    "bounds-exact": lambda: BoundsExact(BOUND_TEMPLATES),
}
