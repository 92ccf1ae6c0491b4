"""The benchmark's span tracer must still find every function it hooks.

perfbench/spans.py wraps named kfreelab functions to time each layer; a
change that deletes or renames one of them would otherwise show only in
the benchmark's traced runs.  This installs the tracer exactly as
perfbench/run.py does, runs one small call per layer and checks that the
layers' spans were recorded.  Nothing under perfbench/ is modified.
"""

import importlib.util
import itertools
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def test_tracer_hooks_record_each_layer(monkeypatch):
    monkeypatch.setattr(sys, "path", [PERFBENCH, *sys.path])  # run.py imports spans
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(PERFBENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    kf, _ = run.import_program()
    tracer = run.Tracer(lambda: 0)
    inst = run.Instrumentation(tracer, kf)
    kf.sampler.run_chains.cache_clear()  # a memoised run would step no chain
    inst.install()
    try:
        kf.census.run_census(4, 2)
        cfg = kf.sampler.ChainConfig(n=5, r=2, m=4, seed=3, burn_in=10, thin=2, chains=2)
        kf.sampler.estimate_rpartite(cfg, 200)
        fam = kf.bounds.ForbiddenFamily(6, ((0, 1), (2, 3)))
        kf.bounds.avoidance_probability_exact(fam, 2)
        # 21 minimal sets pass inclusion-exclusion's guard: direct enumeration
        fam = kf.bounds.ForbiddenFamily(8, tuple(itertools.combinations(range(7), 2)))
        kf.bounds.avoidance_probability_exact(fam, 3)
    finally:
        inst.remove()
    assert {
        "census._census_shard",
        "sampler.run_steps",
        "sampler.classify",
        "graph_core.enumerate_partitions",
        "bounds.exact_ie",
        "bounds.exact_enum",
    } <= set(tracer.names)
