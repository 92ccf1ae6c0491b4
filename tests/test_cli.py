"""End-to-end checks of the ``kfree`` command line: exit codes, output
formats, the reproducibility stanza, and cache behaviour."""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from kfreelab import bounds, census, sampler, thresholds
from kfreelab.cli import main
from test_census import bipartite_by_edges, closed_pair_sum, free_by_vertex_extension


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def body_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def csv_rows(text):
    lines = body_lines(text)
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# -- thresholds ---------------------------------------------------------------


def test_thresholds_text_output(capsys):
    rc, out, err = run(capsys, "thresholds", "--n", "10000", "--r", "2")
    assert rc == 0 and err == ""
    assert out.splitlines()[0].startswith("# kfree 0.1.0 seed=- rng=none shards=-")
    assert "0.4330127018922193" in out
    assert "ex_turan" in out and "25000000" in out


def test_thresholds_ell_row(capsys):
    rc, out, _ = run(capsys, "thresholds", "--n", "100", "--r", "2", "--ell", "2")
    assert rc == 0
    assert "t_ell" in out
    assert repr(2 * 2500.0 * math.log(100.0)) in out


def test_thresholds_small_n_is_domain_error(capsys):
    rc, out, err = run(capsys, "thresholds", "--n", "2", "--r", "2")
    assert rc == 2 and out == ""
    assert "log" in err


def test_formats_agree(capsys):
    rc, text, _ = run(capsys, "thresholds", "--n", "1000", "--r", "3")
    rc2, csvtext, _ = run(capsys, "thresholds", "--n", "1000", "--r", "3",
                          "--format", "csv")
    rc3, jtext, _ = run(capsys, "thresholds", "--n", "1000", "--r", "3",
                        "--format", "json")
    assert rc == rc2 == rc3 == 0
    header, rows = csv_rows(csvtext)
    assert header == ["quantity", "value"]
    doc = json.loads(jtext)
    assert set(doc) == {"meta", "columns", "rows"}
    assert doc["columns"] == ["quantity", "value"]
    assert [[str(c) for c in row] for row in doc["rows"]] == rows
    for quantity, value in rows:
        assert value in text


# -- census -------------------------------------------------------------------


def test_census_matches_library(capsys):
    rc, out, _ = run(capsys, "census", "--n", "5", "--r", "2", "--format", "csv")
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["m", "free", "free_rcol", "rcol", "unique_rcol", "pair_sum"]
    table = census.run_census(5, 2)
    assert len(rows) == len(table.rows) == 11
    for got, w in zip(rows, table.rows):
        assert got == [str(w.m), str(w.free), str(w.free_rcol), str(w.rcol),
                       str(w.unique_rcol), str(w.pair_sum)]


def test_census_cache_roundtrip(tmp_path, capsys):
    args = ("census", "--n", "5", "--r", "2", "--cache-dir", str(tmp_path))
    rc1, out1, err1 = run(capsys, *args)
    cache = tmp_path / "census_n5_r2.txt"
    assert rc1 == 0 and cache.exists() and err1 == ""
    rc2, out2, err2 = run(capsys, *args)
    assert rc2 == 0 and out2 == out1
    assert err2 == f"kfree: census n=5 r=2 loaded from {cache}\n"
    rc3, out3, err3 = run(capsys, "sweep", "--n", "5", "--r", "2", "--cache-dir", str(tmp_path))
    assert rc3 == 0 and err3 == err2
    assert out3 == run(capsys, "sweep", "--n", "5", "--r", "2")[1]


def test_census_takes_no_shards_or_jobs(capsys):
    # the census always runs census.shard_count(n) shards in one process
    for cmd in ("census", "sweep"):
        for flag in ("--shards", "--jobs"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--n", "5", "--r", "2", flag, "1"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_census_corrupt_cache_is_io_error(tmp_path, capsys):
    args = ("census", "--n", "4", "--r", "2", "--cache-dir", str(tmp_path))
    run(capsys, *args)
    cache = tmp_path / "census_n4_r2.txt"
    cache.write_text(cache.read_text().replace("checksum", "chequesum"))
    rc, _, err = run(capsys, *args)
    assert rc == 4 and "i/o error" in err


def test_census_cache_for_other_n_is_io_error(tmp_path, capsys):
    run(capsys, "census", "--n", "5", "--r", "2", "--cache-dir", str(tmp_path))
    copied = tmp_path / "census_n6_r2.txt"
    copied.write_bytes((tmp_path / "census_n5_r2.txt").read_bytes())
    for cmd in ("census", "sweep"):
        rc, out, err = run(capsys, cmd, "--n", "6", "--r", "2",
                           "--cache-dir", str(tmp_path))
        assert rc == 4 and out == ""
        assert str(copied) in err and "n=5, r=2" in err and "n=6, r=2" in err


@pytest.mark.parametrize("n,r,code", [(9, 2, 3), (4, 0, 2)])
def test_census_cache_never_answers_a_refused_request(tmp_path, capsys, n, r, code):
    # a well-formed cache file must not let through what the engine refuses
    rows = tuple(census.CensusRow(m, 0, 0, 0, 0, 0) for m in range(n * (n - 1) // 2 + 1))
    census.save_census(census.CensusTable(n, r, rows), tmp_path / f"census_n{n}_r{r}.txt")
    args = ("census", "--n", str(n), "--r", str(r))
    uncached = run(capsys, *args)
    assert uncached[0] == code
    assert run(capsys, *args, "--cache-dir", str(tmp_path)) == uncached


def test_census_save_leaves_no_temp_file(tmp_path):
    table = census.run_census(4, 2)
    path = tmp_path / "census_n4_r2.txt"
    census.save_census(table, path)
    census.save_census(table, path)  # replaces an existing file too
    assert os.listdir(tmp_path) == ["census_n4_r2.txt"]
    assert census.load_census(path) == table


def test_census_too_large(capsys):
    rc, _, err = run(capsys, "census", "--n", "9", "--r", "2")
    assert rc == 3 and "size guard" in err


@pytest.mark.parametrize(
    "argv, digest",
    [
        # the digest of `kfree census --n 8 --r 8 --format csv`
        (("census", "--n", "8", "--r", "100000000", "--format", "csv"),
         "6aaa029346fddcc5998f301a75a6b1452db7fe959784239c3a1862287445ff13"),
        # the digest of `kfree bounds pairsum --n 2 --r 2 --m 1`: pair_sum 1
        (("bounds", "pairsum", "--n", "2", "--r", "1000000000", "--m", "1"),
         "fb7fb2a07d2f9b0777257a2331fc251bd273820bc33b7e9cd71e3b8520fdca95"),
    ],
    ids=["census", "pairsum"],
)
def test_huge_r_answers_as_r_equals_n(capsys, argv, digest):
    # a partition of [n] has at most n classes and K_{r+1} needs r+1
    # vertices, so every r >= n answers as r = n
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


HUGE_R = "100000000"


@pytest.mark.parametrize(
    "argv, code",
    [
        (("thresholds", "--n", "6", "--r", HUGE_R), 2),
        (("census", "--n", "6", "--r", HUGE_R), 0),
        (("sweep", "--n", "6", "--r", HUGE_R), 0),
        (("sweep", "--n", "6", "--r", HUGE_R, "--engine", "sampler", "--m", "auto",
          "--steps", "20000", "--seed", "1"), 0),
        (("sample", "--n", "6", "--r", HUGE_R, "--m", "3", "--steps", "20000", "--seed", "1"), 0),
        (("bounds", "probe", "--n", "6", "--r", HUGE_R, "--m", "3"), 2),
        # K, the product of r - 1 class sizes, is past float range: refused
        # before it is built (at r = 3e5 the unguarded probe took 33 s)
        (("bounds", "probe", "--n", "1000000000000", "--r", "300000", "--m", "1e20"), 2),
        (("bounds", "probe", "--n", "1000000000000", "--r", HUGE_R, "--m", "1e20"), 2),
        (("bounds", "pairsum", "--n", "6", "--r", HUGE_R, "--m", "3"), 0),
        # over the pair-sum work budget, refused before a 2000-deep profile walk
        (("bounds", "pairsum", "--n", "2000", "--r", HUGE_R, "--m", "3"), 3),
        (("bounds", "pairsum", "--n", "16", "--r", "4", "--m", "30"), 0),
    ],
    ids=["thresholds", "census", "sweep-census", "sweep-sampler", "sample", "probe",
         "probe-n1e12-r3e5", "probe-n1e12-r1e8", "pairsum", "pairsum-n2000", "pairsum-n16-r4"],
)
def test_huge_r_ends_with_a_defined_exit(argv, code):
    # a child process, so that a hang fails at the timeout instead of
    # stalling the suite
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "kfreelab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr


# -- sweep --------------------------------------------------------------------


def test_sweep_census_rows(capsys):
    rc, out, _ = run(capsys, "sweep", "--n", "6", "--r", "2", "--m", "6,9",
                     "--format", "csv")
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["n", "r", "m", "engine", "fraction_or_estimate",
                      "stderr", "samples", "caveat"]
    assert rows[0] == ["6", "2", "6", "census", "0.7692307692307693", "0.0",
                       "1560", "0"]
    assert rows[1] == ["6", "2", "9", "census", "1.0", "0.0", "10", "0"]


def test_sweep_auto_grid_hits_extremal(capsys):
    rc, out, _ = run(capsys, "sweep", "--n", "6", "--r", "2", "--format", "csv")
    assert rc == 0
    _, rows = csv_rows(out)
    ms = [int(row[2]) for row in rows]
    assert ms == sorted(ms)
    assert ms[0] == 6 and ms[-1] == 9
    assert rows[-1][4] == "1.0"


def test_sweep_sampler_caveat_and_determinism(tmp_path, capsys):
    args = ("sweep", "--n", "6", "--r", "2", "--m", "4,9", "--engine", "sampler",
            "--steps", "4000", "--burn-in", "100", "--seed", "7",
            "--format", "csv")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1, _, _ = run(capsys, *args, "--out", str(a))
    rc2, _, _ = run(capsys, *args, "--out", str(b))
    assert rc1 == rc2 == 0
    assert a.read_bytes() == b.read_bytes()
    _, rows = csv_rows(a.read_text())
    by_m = {row[2]: row for row in rows}
    assert by_m["4"][3] == "sampler" and by_m["4"][7] == "0"
    assert by_m["9"][7] == "1"  # 9 > 0.9 * ex_turan(6, 3)
    expected = sampler.retained_samples(
        sampler.ChainConfig(n=6, r=2, m=4, seed=7, burn_in=100, thin=10, chains=4),
        4000,
    )
    assert by_m["4"][6] == str(expected)


def test_sweep_census_too_large(capsys):
    rc, _, err = run(capsys, "sweep", "--n", "9", "--r", "2")
    assert rc == 3 and "sampler" in err


def test_sweep_grid_validation(capsys):
    rc, _, err = run(capsys, "sweep", "--n", "6", "--r", "2", "--m", "10")
    assert rc == 2 and "ex_turan" in err
    rc, _, err = run(capsys, "sweep", "--n", "6", "--r", "2", "--m", "3,x")
    assert rc == 2 and "comma-separated" in err
    rc, _, err = run(capsys, "sweep", "--n", "6", "--r", "2", "--m", " , ")
    assert rc == 2 and "empty" in err


# -- sample -------------------------------------------------------------------


def test_sample_dump_format(tmp_path, capsys):
    dump = tmp_path / "trace.csv"
    rc, out, _ = run(capsys, "sample", "--n", "6", "--r", "2", "--m", "5",
                     "--steps", "3000", "--burn-in", "200", "--thin", "50",
                     "--chains", "2", "--seed", "5", "--dump", str(dump))
    assert rc == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "# kfree 0.1.0 seed=5 rng=philox4x64 shards=-"
    assert lines[1] == "step,is_rcol,triangles,edges_hash"
    cfg = sampler.ChainConfig(n=6, r=2, m=5, seed=5, burn_in=200, thin=50, chains=2)
    assert len(lines) - 2 == sampler.retained_samples(cfg, 3000)
    for ln in lines[2:]:
        step, is_rcol, tri, digest = ln.split(",")
        assert int(step) > 200 and is_rcol in ("0", "1")
        assert int(tri) == 0 and len(digest) == 16
    assert "estimate" in out and "acceptance_rate" in out


# Artifact digests pinned at the commit before the sampler's inner loops were
# rewritten: the swap kernel and the classifier must keep every random draw,
# accept decision and classification, so these bytes may never change.
_GOLDEN_SAMPLE = {
    ("12", "2", "20"): (
        "e0736501b9d5bc64f4d00a8e8864da8cbe33129837e7425783c031e42f53ad57",
        "f4369a25323a04af61ff4c7808791944946bc23e646a78642e9f60d2439bc799",
    ),
    ("10", "3", "25"): (
        "970a25b7af3e8c0ae815f8d7bd72b98c58fd5b278587eeb1bf3b1e69df5820f2",
        "99a86cd72ac36fc15cd61accb4214844bcbad8ce3b8e736a338d4ba684c919b7",
    ),
    # m = 36 keeps both colourable and non-colourable samples in the trace
    ("12", "4", "36"): (
        "739b889fc874e67a247c63a730f69ca31dd78a873599db090d26ff2b1d20383d",
        "95e61d825dffdf6ba670621dc9358eddd6165bb5bbd6e2540a27d4ae72448c91",
    ),
}
_GOLDEN_SWEEP = "d9092270fc9c5a7a837c9a43dcee60f70e43ec4cd8a14352f8d09e2c3ac7fed6"


# `kfree census --n 8 --format csv` digests: r=2 as recorded from kfreelab
# 0.1.0, r=3 from the integer-count census engine the packed planes replaced.
_GOLDEN_CENSUS_N8 = {
    "2": "271bad1ccf9607ece6cc2b5f23ca0bb8a2756322a5fa9421c95fba518436925b",
    "3": "4e35d95c2b59e681f8b3b3d2951e186ae1efc44eab187010d406197c327aa339",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("r", sorted(_GOLDEN_CENSUS_N8))
def test_census_n8_artifacts_are_pinned(capsys, r):
    rc, out, _ = run(capsys, "census", "--n", "8", "--r", r, "--format", "csv")
    assert rc == 0
    assert _sha256(out.encode()) == _GOLDEN_CENSUS_N8[r]
    # independent of the engine: the closed forms and the vertex-extension
    # count of tests/test_census.py
    header, rows = csv_rows(out)
    free = free_by_vertex_extension(8, int(r)).tolist()
    assert [int(row[header.index("free")]) for row in rows] == free
    bipartite = bipartite_by_edges(8)[8]
    for row in rows:
        w = dict(zip(header, map(int, row)))
        assert w["pair_sum"] == closed_pair_sum(8, int(r), w["m"]), f"m={w['m']}"
        if r == "2":
            want = bipartite[w["m"]] if w["m"] < len(bipartite) else 0
            assert w["rcol"] == w["free_rcol"] == want, f"m={w['m']}"


@pytest.mark.parametrize("n,r,m", sorted(_GOLDEN_SAMPLE))
def test_sample_artifacts_are_pinned(tmp_path, capsys, n, r, m):
    dump = tmp_path / "dump.csv"
    argv = ("sample", "--n", n, "--r", r, "--m", m, "--seed", "7", "--steps", "20000")
    rc, out, _ = run(capsys, *argv, "--dump", str(dump))
    assert rc == 0
    assert (_sha256(out.encode()), _sha256(dump.read_bytes())) == _GOLDEN_SAMPLE[n, r, m]
    assert run(capsys, *argv) == (0, out, "")  # the trace changes nothing printed


def test_sweep_sampler_artifact_is_pinned(capsys):
    rc, out, _ = run(capsys, "sweep", "--n", "12", "--r", "2", "--engine", "sampler",
                     "--m", "auto", "--steps", "20000", "--seed", "7", "--format", "csv")
    assert rc == 0
    assert _sha256(out.encode()) == _GOLDEN_SWEEP


def test_sample_infeasible_m(capsys):
    rc, _, err = run(capsys, "sample", "--n", "5", "--r", "2", "--m", "7")
    assert rc == 2 and "more than 6 edges" in err


# -- bounds -------------------------------------------------------------------


EMPTY_FAMILY = b'{"ground_size": 0, "sets": []}'


@pytest.fixture
def family_file(tmp_path):
    fam = bounds.ForbiddenFamily(6, ((0, 1), (2, 3)))
    path = tmp_path / "fam.json"
    path.write_text(bounds.family_to_json(fam))
    return str(path)


def test_bounds_janson(family_file, capsys):
    rc, out, _ = run(capsys, "bounds", "janson", "--family", family_file,
                     "--m", "2", "--format", "csv")
    assert rc == 0
    _, rows = csv_rows(out)
    got = dict(rows)
    fam = bounds.ForbiddenFamily(6, ((0, 1), (2, 3)))
    md = bounds.mu_delta_exact(fam, 2)
    assert got["mu"] == repr(md.mu)
    assert got["janson_upper"] == repr(bounds.janson_upper(md))


def test_bounds_exact_rational(family_file, capsys):
    rc, out, _ = run(capsys, "bounds", "exact", "--family", family_file, "--m", "2")
    assert rc == 0
    assert "13/15" in out
    assert repr(13 / 15) in out


def test_bounds_exact_empty_family(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_bytes(EMPTY_FAMILY)
    rc, out, _ = run(capsys, "bounds", "exact", "--family", str(path), "--m", "0")
    assert rc == 0 and "1/1" in out


def test_bounds_exact_past_both_guards_is_size_error(tmp_path, capsys):
    # 21 minimal sets exceed the inclusion-exclusion guard, and C(70, 10)
    # subsets the enumeration guard
    path = tmp_path / "wide.json"
    path.write_text(bounds.family_to_json(
        bounds.ForbiddenFamily(70, tuple((i, i + 1) for i in range(0, 42, 2)))
    ))
    rc, out, err = run(capsys, "bounds", "exact", "--family", str(path), "--m", "10")
    assert rc == 3 and out == "" and "both exact strategies exceed their guards" in err


@pytest.mark.parametrize("ground_size", [10**6, 10**7])
def test_bounds_exact_huge_binomial_is_size_error(tmp_path, ground_size):
    # C(N, N/2) is N bits; unguarded, N = 10^6 took 18 s and 10^7 did not
    # end within 120 s.  A child process, so that a hang fails at the timeout
    path = tmp_path / "pair.json"
    path.write_text(bounds.family_to_json(bounds.ForbiddenFamily(ground_size, ((0, 1),))))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-m", "kfreelab.cli", "bounds", "exact", "--family", str(path),
         "--m", str(ground_size // 2)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 3 and done.stdout == "", done.stderr
    assert "size guard" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "command, want",
    [
        ("janson", {"mu": repr(3 / 10**19), "delta": "0.0", "janson_upper": "1.0"}),
        ("exact", {"avoidance_exact": "9999999999999999997/10000000000000000000",
                   "avoidance_float": "1.0"}),
    ],
)
def test_bounds_huge_slot_index(tmp_path, capsys, command, want):
    # the slot index 10^18 must not become a 10^18-bit mask
    path = tmp_path / "far.json"
    path.write_text('{"ground_size": 10000000000000000000, "sets": [[1000000000000000000]]}')
    rc, out, err = run(capsys, "bounds", command, "--family", str(path), "--m", "3",
                       "--format", "csv")
    assert rc == 0 and err == ""
    assert dict(csv_rows(out)[1]) == want


def test_bounds_fkg_precondition_exit(family_file, capsys):
    rc, _, err = run(capsys, "bounds", "fkg", "--family", family_file,
                     "--m", "4", "--eta", "0.5")
    assert rc == 2 and "domain error" in err


def test_bounds_family_file_errors(tmp_path, capsys):
    rc, _, err = run(capsys, "bounds", "janson", "--family",
                     str(tmp_path / "missing.json"), "--m", "2")
    assert rc == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    rc, _, err = run(capsys, "bounds", "janson", "--family", str(bad), "--m", "2")
    assert rc == 2


JANSON = ("bounds", "janson", "--m", "2")
BIG = "1" + "0" * 400  # beyond double range, and beyond any list length


@pytest.mark.parametrize(
    "argv,family,field",
    [
        (("bounds", "dsets", "--k", "2", "--alpha", "0.2", "--lam", "0.5", "--d", "2",
          "--sizes", "3,x"), None, "sizes="),
        (JANSON, b'{"ground_size": 4, "sets": [[0, "1"]]}', "set (0, '1')"),
        (JANSON, b'{"ground_size": "4", "sets": [[0]]}', "ground_size="),
        (JANSON, b'{"ground_size": 4, "sets": [0, 1]}', "sets"),
        (JANSON, '{"ground_size": 4, "sets": [[0]], "note": "\u00e9"}'.encode(), "family="),
        (JANSON, b'{"ground_size": 4.5, "sets": [[0]]}', "ground_size="),
        (("bounds", "probe", "--n", "10", "--r", "2", "--m", "nan"), None, "m=nan"),
        (("thresholds", "--n", BIG, "--r", "2"), None, f"n={BIG}:"),
        (("thresholds", "--n", "10", "--r", BIG), None, f"r={BIG}:"),
        (("thresholds", "--n", "10", "--r", "2", "--ell", BIG), None, f"ell={BIG}:"),
        (("thresholds", "--n", "10", "--r", "1000"), None, "n=10, r=1000:"),
        (("bounds", "probe", "--n", BIG, "--r", "2", "--m", "5"), None, f"n={BIG}:"),
        (("bounds", "hoeffding", "--alpha", "0.2", "--lam", "0.5", "--d", BIG), None,
         f"d={BIG}:"),
        (("bounds", "dsets", "--k", "2", "--alpha", "0.2", "--lam", "0.5", "--d", BIG,
          "--sizes", f"{BIG},{BIG}"), None, f"d={BIG}:"),
        (("sweep", "--n", "6", "--r", BIG), None, f"r={BIG}:"),
        (("bounds", "pairsum", "--n", BIG, "--r", "1", "--m", "3"), None, f"n={BIG}:"),
        (("bounds", "janson", "--m", "0"), EMPTY_FAMILY, "ground_size=0:"),
        (("bounds", "fkg", "--m", "0", "--eta", "0.5"), EMPTY_FAMILY, "ground_size=0:"),
        (("sample", "--n", "6", "--r", "2", "--m", "3", "--steps", "20000", "--seed", "-1"),
         None, "seed=-1:"),
        (("sweep", "--n", "6", "--r", "2", "--engine", "sampler", "--steps", "20000",
          "--seed", "-3"), None, "seed=-3:"),
    ],
    ids=["sizes-token", "slot-string", "ground-size-string", "sets-flat", "non-ascii",
         "ground-size-float", "probe-m-nan", "thresholds-n-huge", "thresholds-r-huge",
         "thresholds-ell-huge", "thresholds-p-r-overflow", "probe-n-huge",
         "hoeffding-d-huge", "dsets-d-huge", "sweep-r-huge", "pairsum-n-huge",
         "janson-empty-family", "fkg-empty-family", "sample-seed-negative",
         "sweep-seed-negative"],
)
def test_malformed_input_is_domain_error(tmp_path, capsys, argv, family, field):
    if family is not None:
        path = tmp_path / "family.json"
        path.write_bytes(family)
        argv = argv + ("--family", str(path))
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert field in err


def test_bounds_scalar_subcommands(capsys):
    rc, out, _ = run(capsys, "bounds", "hoeffding", "--alpha", "0.2",
                     "--lam", "0.5", "--d", "6")
    assert rc == 0 and repr((2 * 0.2**0.5) ** 6) in out

    rc, out, _ = run(capsys, "bounds", "dsets", "--k", "2", "--alpha", "0.2",
                     "--lam", "0.5", "--sizes", "10,10", "--d", "4")
    assert rc == 0 and "tau" in out

    rc, out, _ = run(capsys, "bounds", "probe", "--n", "10000", "--r", "2",
                     "--m", str(thresholds.m_r(10**4, 2)))
    assert rc == 0
    want = bounds.heuristic_threshold_probe(10**4, 2, thresholds.m_r(10**4, 2))
    assert repr(want) in out

    rc, out, _ = run(capsys, "bounds", "probe", "--n", "5", "--r", "2", "--m", "1e308")
    assert rc == 0 and "probe  0.0\n" in out

    rc, out, _ = run(capsys, "bounds", "pairsum", "--n", "4", "--r", "2",
                     "--m", "2")
    assert rc == 0 and str(census.pair_sum(4, 2, 2)) in out


def test_bounds_pairsum_gamma(capsys):
    rc, out, _ = run(capsys, "bounds", "pairsum", "--n", "5", "--r", "2",
                     "--m", "2", "--gamma", "0.1")
    assert rc == 0
    assert str(census.pair_sum(5, 2, 2, 0.1)) in out


# -- output plumbing ----------------------------------------------------------


def test_out_file_suppresses_stdout(tmp_path, capsys):
    dest = tmp_path / "t.csv"
    rc, out, _ = run(capsys, "thresholds", "--n", "1000", "--r", "2",
                     "--format", "csv", "--out", str(dest))
    assert rc == 0 and out == ""
    assert "theta" in dest.read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ("thresholds", "--n", "1000", "--r", "2", "--out"),
        ("sample", "--n", "5", "--r", "2", "--m", "3", "--steps", "8000", "--seed", "1",
         "--dump"),
    ],
    ids=["out", "dump"],
)
def test_failed_write_leaves_the_old_file(tmp_path, capsys, monkeypatch, argv):
    # the artifact goes to a temporary file renamed into place, so a failed
    # rename leaves the old bytes and no temporary file behind
    dest = tmp_path / "f"
    dest.write_bytes(b"old")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    rc, _, err = run(capsys, *argv, str(dest))
    assert rc == 4 and "rename refused" in err
    assert dest.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["f"]


def test_unwritable_out_is_io_error(tmp_path, capsys):
    dest = os.path.join(str(tmp_path), "no", "such", "dir", "x.csv")
    rc, _, err = run(capsys, "thresholds", "--n", "1000", "--r", "2",
                     "--out", dest)
    assert rc == 4 and "i/o error" in err
