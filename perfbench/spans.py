"""Span tracer for the benchmark's traced runs.

The tracer replaces the public functions of each kfreelab module at the
places where calling modules look them up (module attributes, names
imported into other modules, ChainState methods), so nothing under src/
changes.  Each call becomes a span: name, start, end, parent span and the
id of the benchmark operation that was running.  Spans stay in memory as
flat arrays; per-layer metrics are computed from them when the run ends,
and the raw spans can be saved with ``save``.

A layer's self time is its span time minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

import numpy as np

# Public functions wrapped per module; the span name is "<module>.<function>"
# unless renamed here.
WRAPPED = {
    "cli": ("main",),
    "census": ("run_census", "save_census", "load_census", "summary_counts", "_census_shard"),
    "sampler": ("estimate_rpartite", "init_chain", "run_steps", "tv_diagnostic"),
    "bounds": ("mu_delta_exact", "mu_delta_closed_form", "janson_upper", "fkg_lower",
               "krminus_family"),
}
RENAMED = {
    "bounds.mu_delta_closed_form": "bounds.closed_form",
    "bounds.janson_upper": "bounds.janson",
    "bounds.fkg_lower": "bounds.fkg",
}


class Tracer:
    """In-memory span recorder.  ``op_id`` returns the id of the benchmark
    operation in progress, stored with every span."""

    def __init__(self, op_id: Callable[[], int]) -> None:
        self.op_id = op_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: List[int] = []
        self.counters: Counter = Counter()
        self.maxima: Dict[str, float] = {}

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id())
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def rename(self, idx: int, name: str) -> None:
        """Give span ``idx`` a name learnt only once it has run."""
        self.name[idx] = self._name_id(name)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def layer_times(self) -> Dict[str, Tuple[int, float, float, np.ndarray]]:
        """name -> (calls, total seconds, self seconds, per-call durations)."""
        if not self.start:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()), dur[sel])
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


class Instrumentation:
    """Installs a tracer's wrappers into the kfreelab modules; ``remove``
    puts every original back.  ``kf`` names the program's modules as
    attributes and lists in ``kf.modules`` every module whose lookups are
    redirected; ``extra`` adds (function, span name) pairs of the
    benchmark's own that stand for one layer."""

    def __init__(self, tracer: Tracer, kf, extra: Tuple[Tuple[Callable, str], ...] = ()) -> None:
        self.tracer = tracer
        self.kf = kf
        self.extra = extra
        self._saved: List[Tuple[object, str, object]] = []

    def _replace(self, original: Callable, replacement: Callable) -> None:
        # every module attribute bound to the original, wherever imported
        for mod in self.kf.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        tr, kf = self.tracer, self.kf
        for modname, fnames in WRAPPED.items():
            mod = getattr(kf, modname)
            for fname in fnames:
                label = f"{modname}.{fname}"
                self._replace(getattr(mod, fname), tr.wrap(getattr(mod, fname), RENAMED.get(label, label)))
        for modname in ("turan", "thresholds"):
            mod = getattr(kf, modname)
            for fname, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not fname.startswith("_"):
                    self._replace(fn, tr.wrap(fn, f"{modname}.{fname}"))
        for fn, label in self.extra:
            self._replace(fn, tr.wrap(fn, label))

        run_steps = kf.sampler.run_steps  # already wrapped above

        def counted_run_steps(state, nsteps, **kwargs):
            s0, a0 = state.steps_taken, state.accepted_moves
            run_steps(state, nsteps, **kwargs)
            tr.counters["sampler.steps"] += state.steps_taken - s0
            tr.counters["sampler.accepted"] += state.accepted_moves - a0

        self._replace(run_steps, counted_run_steps)

        shard = kf.census._census_shard  # already wrapped above

        def sized_shard(args):
            low_bits = args[2]
            # one uint8 clique-count and one uint16 colouring-count array per shard
            tr.maxima["census.zeta_bytes"] = max(tr.maxima.get("census.zeta_bytes", 0), 3 << low_bits)
            return shard(args)

        self._replace(shard, sized_shard)

        partitions = kf.graph_core.enumerate_partitions

        def listed_partitions(n, r):
            with tr.span("graph_core.enumerate_partitions"):
                items = list(partitions(n, r))
            return iter(items)

        self._replace(partitions, listed_partitions)

        # The exact oracle's direct enumeration walks itertools.combinations
        # of the ground set and its inclusion-exclusion never does, so a
        # call is labelled by whether bounds.combinations ran inside it.
        exact = kf.bounds.avoidance_probability_exact
        combinations = kf.bounds.combinations
        combos = [0]

        def counted_combinations(*args):
            combos[0] += 1
            return combinations(*args)

        self._saved.append((kf.bounds, "combinations", combinations))
        kf.bounds.combinations = counted_combinations

        def split_exact(fam, m):
            before = combos[0]
            idx = tr.open("bounds.exact")
            try:
                return exact(fam, m)
            finally:
                tr.close(idx)
                tr.rename(idx, "bounds.exact_enum" if combos[0] > before else "bounds.exact_ie")

        self._replace(exact, split_exact)

        cls = kf.sampler.ChainState
        for attr, label in (("is_r_colorable", "sampler.classify"),
                            ("triangle_count", "sampler.triangle_count")):
            self._saved.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, tr.wrap(vars(cls)[attr], label))

    def remove(self) -> None:
        for obj, attr, value in reversed(self._saved):
            setattr(obj, attr, value)
        self._saved.clear()


# (metric, unit, better) for every per-layer number, in report order.
LAYER_METRICS = (
    ("cli.self_s", "s", "lower"),
    ("census.run_census_s", "s", "lower"),
    ("census.zeta_bytes", "bytes", "lower"),
    ("census.save_s", "s", "lower"),
    ("census.load_s", "s", "lower"),
    ("census.summary_counts_s", "s", "lower"),
    ("graph_core.enumerate_partitions_calls", "count", "lower"),
    ("graph_core.enumerate_partitions_s", "s", "lower"),
    ("sampler.init_chain_s", "s", "lower"),
    ("sampler.run_steps_self_s", "s", "lower"),
    ("sampler.classify_calls", "count", "lower"),
    ("sampler.classify_us", "us", "lower"),
    ("sampler.triangle_count_s", "s", "lower"),
    ("sampler.tv_diagnostic_s", "s", "lower"),
    ("sampler.estimate_s_p50", "s", "lower"),
    ("sampler.estimate_s_max", "s", "lower"),
    ("sampler.steps", "count", "higher"),
    ("sampler.accepted", "count", "higher"),
    ("sampler.acceptance_ratio", "ratio", "higher"),
    ("sampler.kernel_steps_per_s", "1/s", "higher"),
    ("sampler.record_ns_per_step", "ns", "lower"),
    ("bounds.exact_ie_s", "s", "lower"),
    ("bounds.exact_ie_calls", "count", "lower"),
    ("bounds.exact_enum_s", "s", "lower"),
    ("bounds.exact_enum_calls", "count", "lower"),
    ("bounds.family_s", "s", "lower"),
    ("bounds.mu_delta_exact_s", "s", "lower"),
    ("bounds.closed_form_s", "s", "lower"),
    ("bounds.janson_s", "s", "lower"),
    ("bounds.fkg_s", "s", "lower"),
    ("turan.s", "s", "lower"),
    ("thresholds.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(tracer: Tracer, units: int) -> Dict[str, float]:
    """Per-layer numbers per traced unit, from the recorded spans.  ``_s``
    is a layer's total span time, ``_self_s`` its self time; layers a
    workload never calls read 0."""
    times = tracer.layer_times()
    empty = (0, 0.0, 0.0, np.zeros(0))

    def calls(name):
        return times.get(name, empty)[0] / units

    def total(name):
        return times.get(name, empty)[1] / units

    def self_time(prefix):
        return sum(v[2] for k, v in times.items() if k.startswith(prefix)) / units

    classify = times.get("sampler.classify", empty)
    estimates = times.get("sampler.estimate_rpartite", empty)[3]
    steps = tracer.counters["sampler.steps"]
    return {
        "cli.self_s": self_time("cli.main"),
        "census.run_census_s": total("census.run_census"),
        "census.zeta_bytes": tracer.maxima.get("census.zeta_bytes", 0),
        "census.save_s": total("census.save_census"),
        "census.load_s": total("census.load_census"),
        "census.summary_counts_s": total("census.summary_counts"),
        "graph_core.enumerate_partitions_calls": calls("graph_core.enumerate_partitions"),
        "graph_core.enumerate_partitions_s": total("graph_core.enumerate_partitions"),
        "sampler.init_chain_s": total("sampler.init_chain"),
        "sampler.run_steps_self_s": self_time("sampler.run_steps"),
        "sampler.classify_calls": classify[0] / units,
        "sampler.classify_us": 1e6 * classify[1] / classify[0] if classify[0] else 0.0,
        "sampler.triangle_count_s": total("sampler.triangle_count"),
        "sampler.tv_diagnostic_s": total("sampler.tv_diagnostic"),
        "sampler.estimate_s_p50": float(np.median(estimates)) if estimates.size else 0.0,
        "sampler.estimate_s_max": float(estimates.max()) if estimates.size else 0.0,
        "sampler.steps": steps / units,
        "sampler.accepted": tracer.counters["sampler.accepted"] / units,
        "sampler.acceptance_ratio": tracer.counters["sampler.accepted"] / steps if steps else 0.0,
        "bounds.exact_ie_s": total("bounds.exact_ie"),
        "bounds.exact_ie_calls": calls("bounds.exact_ie"),
        "bounds.exact_enum_s": total("bounds.exact_enum"),
        "bounds.exact_enum_calls": calls("bounds.exact_enum"),
        "bounds.family_s": total("bounds.family"),
        "bounds.mu_delta_exact_s": total("bounds.mu_delta_exact"),
        "bounds.closed_form_s": total("bounds.closed_form"),
        "bounds.janson_s": total("bounds.janson"),
        "bounds.fkg_s": total("bounds.fkg"),
        "turan.s": self_time("turan."),
        "thresholds.s": self_time("thresholds."),
    }
