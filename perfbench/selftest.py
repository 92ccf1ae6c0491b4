"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload, at a tiny size: an untraced and a traced run must
pass their checks and emit exactly the metrics BENCHMARK.json names, with
their units; then a run with one program function made to give a wrong
answer, and one with a program function made to raise, must each end
with failed operations counted.  The traced bounds run must also split
its exact-oracle calls between the two strategies as the templates say.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys

import run

CENSUS_N5_SHA256 = {
    "text": "2037d55cd36c43814e8d91c2b391fc19c1c1853331849b468c1317f834c10e2d",
    "csv": "83b28c542382559ad96badb217ba405938007543777bff4a411e19ce60bf8b81",
    "json": "91b88b2c41129bba881b36ff3a7efba103fbc5d92bcb08ba63f5afd81b35b884",
}


@contextlib.contextmanager
def replaced(module, attr, make_wrong):
    original = getattr(module, attr)
    setattr(module, attr, make_wrong(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def wrong_census(run_census):
    def wrong(*args, **kwargs):
        table = run_census(*args, **kwargs)
        rows = list(table.rows)
        top = max(i for i, row in enumerate(rows) if row.free)
        rows[top] = rows[top]._replace(free_rcol=rows[top].free_rcol - 1)
        return type(table)(table.n, table.r, tuple(rows))

    return wrong


def raising(exc_type):
    def make(_original):
        def broken(*args, **kwargs):
            raise exc_type("deliberate breakage")

        return broken

    return make


def garbage_cli(_main):
    def main(argv):
        print("# kfree census\nm,graphs,free_rcol\nnot,a,row")
        return 0

    return main


def main() -> int:
    kf, wl = run.import_program()
    ie, enum = wl.IE_TEMPLATES[:10], wl.ENUM_TEMPLATES[:2]
    tiny = {
        "census-n8": (lambda: wl.CensusN(5, CENSUS_N5_SHA256), [
            lambda: replaced(kf.census, "run_census", wrong_census),
            lambda: replaced(kf.cli, "main", garbage_cli),
        ]),
        "sweep-n24": (lambda: wl.Sweep(8, steps=20_000, rows=9), [
            lambda: replaced(kf.sampler, "estimate_rpartite",
                             lambda f: lambda cfg, steps, **kw: f(cfg, steps, **kw)._replace(estimate=1.5)),
            lambda: replaced(kf.sampler, "estimate_rpartite", raising(RuntimeError)),
        ]),
        "verify-n6": (lambda: wl.Verify((5,), steps=100_000), [
            lambda: replaced(kf.sampler, "tv_diagnostic", lambda f: lambda *a, **kw: 0.5),
            lambda: replaced(kf.sampler, "tv_diagnostic", raising(RuntimeError)),
        ]),
        "bounds-exact": (lambda: wl.BoundsExact(ie + enum), [
            lambda: replaced(kf.bounds, "janson_upper", lambda f: lambda md: 0.0),
            lambda: replaced(kf.bounds, "mu_delta_closed_form", raising(kf.bounds.DomainError)),
        ]),
    }
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES) == list(wl.WORKLOADS) == list(tiny)

    for name, (make, sabotages) in tiny.items():
        for trace in (0, 1):
            detail, result = run.run(name, 1, 0, bool(trace), setup_probes=1, workload=make())
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (name, detail["problems"])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units[trace], (name, trace, set(got) ^ set(units[trace]))
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), (name, k, v)
            print(f"{name} trace={trace}: {result['attempted']} operations passed, metrics and units match")
        # the tracer labels each exact-oracle call by the strategy it took
        split = {k: result["metrics"][f"bounds.exact_{k}_calls"]["value"] for k in ("ie", "enum")}
        expected = {"ie": len(ie), "enum": len(enum)} if name == "bounds-exact" else {"ie": 0, "enum": 0}
        assert split == expected, (name, split, expected)
        for sabotage in sabotages:
            with sabotage():
                detail, result = run.run(name, 1, 0, False, setup_probes=1, workload=make())
            assert result["failed"] > 0 and not result["correct"], (name, result["attempted"], result["failed"])
            print(f"{name}: a breakage failed {result['failed']} of {result['attempted']} operations:"
                  f" {detail['problems'][0][:70]}")
    print("perfbench self-test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
