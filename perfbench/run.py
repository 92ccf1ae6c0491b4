"""kfreelab benchmark.

    python3 perfbench/run.py --workload census-n8 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; kfreelab is imported from its src/.  One
client runs the workload's fixed unit of work in a closed loop, one unit
after another, until the next unit would end after --seconds (at least
one unit).  The set-up probes and the calibration count against
--seconds too.  --trace 0 measures the end-to-end metrics with tracing off;
--trace 1 alternates untraced and traced units, reports the per-layer
metrics of the traced ones, the tracing overhead (median traced minus
untraced time over adjacent pairs) and the sampler calibration, and
saves the raw spans under perfbench/.work/.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it holds every number measured, the unit
times and a machine stanza.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types

from spans import LAYER_METRICS, Instrumentation, Tracer, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "perfbench", ".work")
SETUP_PROBES = 8  # spread over the run
CALIBRATION_STEPS = 50_000  # per (n, m) point and mode
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "items_per_s": "1/s",
    **{name: unit for name, unit, _ in LAYER_METRICS},
}
RATE_NAMES = {
    "census-n8": "graphs_per_s",
    "sweep-n24": "chain_steps_per_s",
    "verify-n6": "chain_steps_per_s",
    "bounds-exact": "bound_evals_per_s",
}
NAMES = tuple(RATE_NAMES)


def import_program():
    """Import kfreelab from this checkout's src/, and the workloads with it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "kfreelab", "__init__.py")):
        sys.exit(f"perfbench: no kfreelab sources under {src}")
    for path in (src, os.path.dirname(os.path.abspath(__file__))):
        if path not in sys.path:
            sys.path.insert(0, path)
    import kfreelab
    from kfreelab import bounds, census, cli, graph_core, sampler, thresholds, turan

    import workloads

    mods = dict(cli=cli, census=census, graph_core=graph_core, sampler=sampler,
                bounds=bounds, turan=turan, thresholds=thresholds)
    return types.SimpleNamespace(**mods, modules=[kfreelab, workloads, *mods.values()]), workloads


def machine_stanza() -> dict:
    import numpy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, entry, key)) as fh:
                    fields[key] = fh.read().strip()
            if fields["type"] != "Instruction":
                size = fields["size"]
                scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
                caches[f"l{fields['level']}_bytes"] = int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_bytes": caches.get("l2_bytes"),
        "l3_bytes": caches.get("l3_bytes"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until this workload's
    imports are done and its inputs are built."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--seconds", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: set-up probe failed with exit {child.returncode}")
    return elapsed


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def calibrate(sampler, chain: dict, points, seed: int, steps: int):
    """Bare run_steps throughput and the per-step cost of a no-op
    on_sample, on twin chains at each (n, m) point."""
    times = {False: 0.0, True: 0.0}
    for i, (n, m) in enumerate(points):
        cfg = sampler.ChainConfig(n=n, r=2, m=m, seed=seed % (1 << 63) + i, **chain)
        twins = {False: sampler.init_chain(cfg), True: sampler.init_chain(cfg)}
        for hooked in (i % 2 == 1, i % 2 == 0):  # alternate which twin runs first
            hook = (lambda st: None) if hooked else None
            times[hooked] += timed(lambda: sampler.run_steps(twins[hooked], steps, on_sample=hook))
    total = steps * len(points)
    return total / times[False], 1e9 * (times[True] - times[False]) / total


def run(name: str, seed: int, seconds: float, trace: bool, setup_probes: int = SETUP_PROBES,
        workload=None) -> tuple:
    """Measure one workload; returns (detail, result).  ``workload``
    replaces the named workload's full-size definition (the self-test
    passes tiny ones)."""
    start = time.perf_counter()
    kf, wl = import_program()
    # setup_s is an end-to-end metric, so traced runs spend no time on it
    probes = 0 if trace else setup_probes
    setup = [probe_setup(name, seed) for _ in range(min(probes, 1))]
    os.environ.pop("KFREE_CACHE_DIR", None)
    os.makedirs(WORK, exist_ok=True)
    workload = workload or wl.WORKLOADS[name]()
    inp = workload.prepare(seed)
    ops = wl.Ops()

    def unit():
        workload.run(inp, ops, WORK)

    plain, traced = [], []
    tracer = Tracer(lambda: ops.attempted)
    inst = Instrumentation(tracer, kf, extra=((wl.build_family, "bounds.family"),))

    def traced_unit():
        inst.install()
        try:
            unit()
        finally:
            inst.remove()

    kernel = record = 0.0
    while True:
        plain.append(timed(unit))
        if trace:
            traced.append(timed(traced_unit))
            if len(traced) == 1 and workload.sampler_points:
                # after one unit, as the sweep learns its grid from its output
                kernel, record = calibrate(kf.sampler, wl.CHAIN, workload.sampler_points,
                                           seed, CALIBRATION_STEPS)
        # spread the probes over the run, so that one slow phase of the
        # host cannot hold all of them
        while len(setup) < probes and time.perf_counter() - start >= len(setup) * seconds / probes:
            setup.append(probe_setup(name, seed))
        ahead = statistics.median(plain) + (statistics.median(traced) if trace else 0.0)
        # the probes still to come, at the slowest rate seen so far
        tail = (probes - len(setup)) * max(setup, default=0.0)
        if time.perf_counter() - start + ahead + tail > seconds:
            break
    setup += [probe_setup(name, seed) for _ in range(probes - len(setup))]

    wall = statistics.median(plain)
    end_to_end = {
        # start-up cost has a floor that host noise only adds to
        "setup_s": min(setup, default=None),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items_per_s": workload.items / wall,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "units": len(plain),
        "unit_wall_s": plain,
        "setup_probe_s": setup,
        RATE_NAMES[name]: end_to_end["items_per_s"],
        "error_rate": ops.failed / max(ops.attempted, 1),
        "problems": ops.problems[:10],
        "machine": machine_stanza(),
    }
    metrics = end_to_end
    if trace:
        metrics = layer_metrics(tracer, len(traced))
        # each traced unit runs right after an untraced one; pairing them
        # keeps slow drift in host speed out of the difference
        metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
        metrics["sampler.kernel_steps_per_s"] = kernel
        metrics["sampler.record_ns_per_step"] = record
        detail["traced_unit_wall_s"] = traced
        detail["machine"]["census_zeta_bytes_computed"] = metrics["census.zeta_bytes"]
        detail["end_to_end"] = end_to_end
        spans = os.path.join(WORK, f"spans-{name}.npz")
        tracer.save(spans)
        detail["spans"] = os.path.relpath(spans, ROOT)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    return detail, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        _, wl = import_program()
        wl.WORKLOADS[args.workload]().prepare(args.seed)
        print("ready", flush=True)
        return 0
    detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
