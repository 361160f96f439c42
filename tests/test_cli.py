from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wmub
import wmub.bases
import wmub.cli
import wmub.geometry
import wmub.hilbert
import wmub.zring
from wmub.bases import FactorFamily, OverlapCategory, build_wmub, duality_report
from wmub.cli import USAGE_ERROR, VERIFY_ERROR, main
from wmub.geometry import maximal_line_catalog, pair_census
from wmub.hilbert import prime_mub
from wmub.zring import CrtContext, crt_context

import record_digests
from test_bases import tampered_15

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"
TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def run_cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["lines", "--d1", "3", "--d2", "5"], "lines_3_5.txt"),
        (["wmub", "--d1", "3", "--d2", "5"], "bases_3_5.txt"),
        (["partitions", "--d1", "3", "--d2", "5", "--side", "lines"], "partitions_lines_3_5.txt"),
        (["partitions", "--d1", "3", "--d2", "5", "--side", "bases"], "partitions_bases_3_5.txt"),
    ],
)
def test_golden_files(capsys, argv, golden):
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


def test_every_frozen_output_matches_its_recorded_digest():
    # The manifest covers exactly the calls its writer lists, and each call
    # still gives its recorded exit code, stdout digest and stderr.
    manifest = json.loads(record_digests.MANIFEST.read_text())
    assert [entry["argv"] for entry in manifest] == record_digests.calls()
    for entry in manifest:
        assert record_digests.run(entry["argv"]) == entry


def test_reference_rows(capsys):
    _, out, _ = run_cli(capsys, ["lines", "--d1", "3", "--d2", "5"])
    rows = out.splitlines()
    assert rows[1] == "L_2 | L(6,5) | g(10,12|12,10) | L1(0,1) | L2(1,0)"
    assert rows[23] == "L_24 | L(1,8) | g(0,2|7,1) | L1(1,1) | L2(1,1)"
    _, out, _ = run_cli(capsys, ["wmub", "--d1", "3", "--d2", "5"])
    rows = out.splitlines()
    assert rows[0] == "B_1 | X(1,0|0,1) | X1 | X2"
    assert rows[3] == "B_4 | X(10,12|12,13) | X1 | X2(0,1|-1,-2)"
    assert rows[9] == "B_10 | X(0,2|7,0) | X1(0,1|-1,0) | X2(0,1|-1,0)"


def test_partition_columns(capsys):
    _, out, _ = run_cli(capsys, ["partitions", "--d1", "3", "--d2", "5"])
    rows = [line.split(" | ") for line in out.splitlines()]
    column = [row[0] for row in rows]
    assert column == ["S_0", "L_1", "L_10", "L_16", "L_22"]
    _, bases_out, _ = run_cli(capsys, ["partitions", "--d1", "3", "--d2", "5", "--side", "bases"])
    base_rows = [line.split(" | ") for line in bases_out.splitlines()]
    assert [row[5] for row in base_rows] == ["T_5", "B_6", "B_7", "B_15", "B_21"]
    # same index grid on both sides
    strip = lambda grid: [[cell.split("_")[1] for cell in row] for row in grid[1:]]
    assert strip(rows) == strip(base_rows)


def test_output_is_deterministic(capsys):
    for argv in (
        ["lines", "--d1", "3", "--d2", "7", "--format", "csv"],
        ["wmub", "--d1", "3", "--d2", "7", "--format", "json"],
        ["partitions", "--d1", "3", "--d2", "7", "--format", "table"],
    ):
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second


def test_json_schema_and_round_trip(capsys):
    for command in ("lines", "wmub"):
        _, out, _ = run_cli(capsys, [command, "--d1", "3", "--d2", "5", "--format", "json"])
        payload = json.loads(out)
        assert list(payload) == ["d", "d1", "d2", "kind", "rows"]
        assert (payload["d"], payload["d1"], payload["d2"]) == (15, 3, 5)
        assert len(payload["rows"]) == 24
    for side in ("lines", "bases"):
        _, out, _ = run_cli(
            capsys,
            ["partitions", "--d1", "3", "--d2", "5", "--side", side, "--format", "json"],
        )
        payload = json.loads(out)
        assert payload["kind"] == f"partitions-{side}"
        assert [len(row["members"]) for row in payload["rows"]] == [4] * 6
    # The row templates write JSON without escaping a cell, so every JSON
    # output must be what `json.dumps(payload, indent=2)` writes: the four
    # tables at every supported d, and `verify --json` passing and failing.
    for d1, d2 in SUPPORTED_DIMS:
        dims = ["--d1", str(d1), "--d2", str(d2)]
        calls = [[*command, *dims, "--format", "json"]
                 for command in (["lines"], ["wmub"], ["partitions", "--side", "lines"],
                                 ["partitions", "--side", "bases"])]
        calls += [["verify", *dims, "--json"], ["verify", *dims, "--json", "--tolerance", "1e-17"]]
        for argv in calls:
            code, out, _ = run_cli(capsys, argv)
            assert code == (1 if "1e-17" in argv else 0), argv
            assert json.dumps(json.loads(out), indent=2) + "\n" == out, argv


def test_csv_output(capsys):
    _, out, _ = run_cli(capsys, ["lines", "--d1", "3", "--d2", "5", "--format", "csv"])
    rows = out.splitlines()
    assert rows[0] == "index,generator,matrix,component1,component2"
    assert rows[2] == "L_2,L(6,5),g(10,12|12,10),L1(0,1),L2(1,0)"
    assert len(rows) == 25


def test_invalid_dims_exit_code(capsys):
    code, out, err = run_cli(capsys, ["lines", "--d1", "5", "--d2", "5"])
    assert code == 2 and out == ""
    assert err.strip() == "d1 and d2 must be distinct odd primes with d1<d2"
    code, _, _ = run_cli(capsys, ["verify", "--d1", "4", "--d2", "5"])
    assert code == 2


@pytest.mark.parametrize("command", ["lines", "wmub", "partitions", "verify"])
def test_dims_above_the_modulus_cap_exit_2_naming_the_cap(capsys, command):
    # 3 and 349529 are distinct odd primes; their product is above 2**20.
    code, out, err = run_cli(capsys, [command, "--d1", "3", "--d2", "349529"])
    assert code == 2 and out == ""
    assert err == "d1*d2 = 1048587 exceeds the supported cap 1048576\n"


def test_verify_success(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 0
    assert out.strip() == (
        "pairs: 276 | d1^{-1/2}:36 d2^{-1/2}:60 d^{-1/2}:180"
        " | duality: OK | redundancy: 1/2"
    )
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "7"])
    assert code == 0
    assert "d1^{-1/2}:48 d2^{-1/2}:112 d^{-1/2}:336" in out


def test_verify_over_tight_tolerance_fails_with_named_check(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5", "--tolerance", "1e-15"])
    assert code == 1
    assert out.startswith("FAIL ")
    named = out.split()[1].rstrip(":")
    assert named in {"unitarity", "conjugation", "overlap-census", "duality"}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--d1", "3", "--d2", "5", "--tolerance=nan"],
        ["verify", "--d1", "3", "--d2", "5", "--tolerance=inf"],
        ["verify", "--d1", "3", "--d2", "5", "--tolerance=-1"],
        ["verify", "--d1", "3", "--d2", "5", "--tolerance=0.5"],
        # 0.02 is above 1/(2*95), half the gap between squared overlaps 0 and 1/95
        ["verify", "--d1", "5", "--d2", "19", "--tolerance=0.02"],
        # d = 111 is above the Hilbert-space cap of 105, which only verify has
        ["verify", "--d1", "3", "--d2", "37"],
        ["wmub", "--d1", "7", "--d2", "5"],
        ["partitions", "--d1", "3", "--d2", "5", "--side", "points"],
        # above the 2**20 cap, rejected before the primality test
        ["lines", "--d1", "3", "--d2", "1000000000000000003"],
        ["verify", "--d1", "1000000000000000003", "--d2", "0"],
        # rejected by the argument parser
        ["verify", "--d1", "3", "--d2", "5", "--tolerance", "-1e-5"],
        ["verify", "--d2", "5"],
        ["verify", "--d1", "three", "--d2", "5"],
        ["transform", "--d1", "3", "--d2", "5"],
        ["lines", "--d1", "3", "--d2", "5", "--format", "xml"],
        [],
    ],
)
def test_usage_errors_exit_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["verify", "--help"])
    assert raised.value.code == 0
    assert capsys.readouterr().out.startswith("usage: wmub verify")


def test_geometry_side_is_not_capped_at_105(capsys):
    code, out, _ = run_cli(capsys, ["lines", "--d1", "3", "--d2", "37"])
    assert code == 0 and len(out.splitlines()) == 152


def test_basis_tables_are_not_capped_at_105(capsys):
    # Neither table builds a Hilbert-space object, so d = 111 is served.
    ctx = crt_context(3, 37)
    code, out, err = run_cli(capsys, ["wmub", "--d1", "3", "--d2", "37", "--format", "json"])
    assert (code, err) == (0, "")
    labels = [
        [int(entry) for entry in re.fullmatch(r"X\((\d+),(\d+)\|(\d+),(\d+)\)", row["label"]).groups()]
        for row in json.loads(out)["rows"]
    ]
    assert labels == build_wmub(maximal_line_catalog(ctx)).labels.tolist()
    grids = {}
    for side in ("lines", "bases"):
        code, out, err = run_cli(capsys, ["partitions", "--d1", "3", "--d2", "37", "--side", side])
        assert (code, err) == (0, "")
        grids[side] = out
    assert grids["bases"] == grids["lines"].replace("S_", "T_").replace("L_", "B_")


def test_verify_tolerance_ceiling_is_accepted(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5", f"--tolerance={1 / 30!r}"])
    assert code == 0 and "duality: OK" in out


def count_calls(monkeypatch, fn) -> list:
    """Wrap every binding of `fn` in the wmub modules; return the call log."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "wmub" or name.startswith("wmub."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_verify_classifies_each_pair_once(capsys, monkeypatch, cold_context_caches):
    # One array factorization of the 24 catalog lines, one array pass per
    # side over the 276 pairs (one block at d = 15), then one per side over
    # the 6 * 6 pairs of the partition groups alone, and no per-pair call.
    # The basis passes are the residual passes of the pair certificate.
    factorizations = count_calls(monkeypatch, wmub.geometry.factor_keys)
    line_passes = count_calls(monkeypatch, wmub.geometry._intersection_sizes)
    basis_passes = count_calls(monkeypatch, wmub.bases._residuals)
    single = count_calls(monkeypatch, wmub.bases.classify_pair)
    single += count_calls(monkeypatch, wmub.geometry.classify_line_pair)
    code, _, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 0
    assert [args[0].shape for args in factorizations] == [(24, 2)]
    assert [len(args[2]) for args in line_passes] == [len(args[1]) for args in basis_passes] == [276, 36]
    assert single == []


def test_verify_certifies_each_context_once_per_process(capsys, monkeypatch, cold_context_caches):
    # The catalog, its line pair classes, the CRT relabelling and the pair
    # certificate are facts of (d1, d2): a second call factorizes no line and
    # passes over none of the 276 pairs, nor the 36 pairs of the partition
    # groups, on either side.
    factorizations = count_calls(monkeypatch, wmub.geometry.factor_keys)
    line_passes = count_calls(monkeypatch, wmub.geometry._intersection_sizes)
    basis_passes = count_calls(monkeypatch, wmub.bases._residuals)
    first = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"]) == first and first[0] == 0
    assert [args[0].shape for args in factorizations] == [(24, 2)]
    assert [len(args[2]) for args in line_passes] == [len(args[1]) for args in basis_passes] == [276, 36]
    # (hits, misses): the kept pair certificate reads the kept catalog once,
    # and its conjugation bound, the relabelling once.
    assert wmub.cli.verified_pairs.cache_info()[:2] == (1, 1)
    assert wmub.cli.verified_catalog.cache_info()[:2] == (2, 1)
    assert wmub.hilbert.check_crt_relabelling.cache_info()[:2] == (0, 1)


def test_verify_keeps_the_certificate_of_rebuilt_families(capsys, monkeypatch, cold_context_caches):
    # Rebuilt factor families make a new set, which the kept certificate no
    # longer certifies: the first call after the rebuild certifies it and
    # keeps it in place of the old one, so later calls pass over no pair.
    basis_passes = count_calls(monkeypatch, wmub.bases._residuals)
    argv = ["verify", "--d1", "3", "--d2", "5"]
    first = run_cli(capsys, argv)
    assert run_cli(capsys, argv) == first and first[0] == 0
    wmub.bases.factor_family.cache_clear()
    for _ in range(3):
        assert run_cli(capsys, argv) == first
    assert [len(args[1]) for args in basis_passes] == [276, 36, 276, 36]
    assert wmub.cli.verified_pairs.cache_info().currsize == 1
    kept = wmub.cli.verified_pairs(crt_context(3, 5))
    assert kept.s.families == (wmub.bases.factor_family(3), wmub.bases.factor_family(5))


def test_verify_reads_the_tolerance_on_every_call(capsys, monkeypatch, cold_context_caches):
    # No cached certificate reads the tolerance: each call compares it with
    # the kept bounds and window.  With the context and both families warm,
    # a call at another tolerance inside the window passes over no pair, and
    # a failing tolerance fails the same gate as on a cold run.
    wmub.bases.factor_family.cache_clear()
    argv = ["verify", "--d1", "3", "--d2", "5", "--json"]
    cold = run_cli(capsys, [*argv, "--tolerance", "0"])
    assert cold[0] == 1 and json.loads(cold[1])["rows"][-1]["detail"].startswith("FAIL unitarity: ")
    assert run_cli(capsys, argv)[0] == 0
    basis_passes = count_calls(monkeypatch, wmub.bases._residuals)
    line_passes = count_calls(monkeypatch, wmub.geometry._intersection_sizes)
    w, e = wmub.cli.verified_pairs(crt_context(3, 5)).window
    assert w < 1e-12 and e > 1 / 30  # every tolerance that passes unitarity lies inside
    for tol in (1e-12, 1e-3, 1 / 30):
        assert run_cli(capsys, [*argv, f"--tolerance={tol!r}"])[0] == 0, tol
    assert basis_passes == line_passes == []
    assert run_cli(capsys, [*argv, "--tolerance", "0"]) == cold


def test_a_warm_catalog_cache_vouches_for_no_tampered_context(capsys, monkeypatch, cold_context_caches):
    # With s1 one off, map1_join no longer inverts map1_split.  The tampered
    # context is a key of its own and a failed check is not cached, so it
    # fails the catalog check by name on a cold cache, after the genuine
    # context is cached, and again; the genuine context passes after it.
    ctx = crt_context(3, 5)
    tampered = replace(ctx, s1=ctx.s1 + 1)
    passed = (0, "pairs: 276 | d1^{-1/2}:36 d2^{-1/2}:60 d^{-1/2}:180 | duality: OK | redundancy: 1/2\n", "")
    failed = (1, "FAIL catalog: CRT point map: map1_join does not invert map1_split\n", "")
    for context, expected in ((tampered, failed), (ctx, passed), (tampered, failed), (ctx, passed)):
        monkeypatch.setattr(wmub.cli, "crt_context", lambda d1, d2, context=context: context)
        assert run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"]) == expected
    assert wmub.cli.verified_catalog.cache_info().currsize == 1


def test_verify_checks_no_basis_index_it_generates(monkeypatch):
    # Only the one-pair entry points take basis indices from outside; the
    # pair passes of `verify` run on pairs they generate, unchecked.
    def refuse(*args):
        raise AssertionError("basis indices checked")

    monkeypatch.setattr(wmub.bases, "_check_indices", refuse)
    v = wmub.cli.run_verification(3, 5, 1e-9)
    assert [(row["check"], row["ok"]) for row in v.checks] == [(name, True) for name in wmub.cli.CHECKS]
    assert len(v.checks) == 8


def test_verify_runs_no_select_and_no_gcd_over_the_pairs(capsys, monkeypatch, cold_context_caches):
    # The pair passes read tables: at d = 95 no `numpy.gcd` argument is
    # longer than max(d, psi) = 120, against 7140 pairs, and `numpy.select`
    # never runs.
    calls = {"select": [], "gcd": []}
    for name, record in calls.items():
        real = getattr(np, name)

        def spy(*args, real=real, record=record, **kwargs):
            record.append(max(np.size(arg) for arg in args))
            return real(*args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    code, _, _ = run_cli(capsys, ["verify", "--d1", "5", "--d2", "19"])
    assert code == 0
    assert calls["select"] == []
    assert calls["gcd"] and max(calls["gcd"]) <= 120


def test_verify_builds_each_catalog_fact_once(capsys, monkeypatch, cold_context_caches):
    # The basis set reads its labels from the catalog's sweep table, and the
    # line census and the redundancy are each formed by one check per call.
    # The class counts the census reads are counted once, on the cold call,
    # and never by a `bincount`, which would cast the int8 classes to intp.
    sweeps = count_calls(monkeypatch, wmub.geometry.sweep_entries)
    censuses = count_calls(monkeypatch, wmub.geometry.pair_census)
    redundancies = count_calls(monkeypatch, wmub.geometry.redundancy)
    counts = {"count_nonzero": [], "bincount": []}
    for name, record in counts.items():
        real = getattr(np, name)

        def spy(*args, real=real, record=record, **kwargs):
            record.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    for calls in (1, 2):
        code, _, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
        assert code == 0
        assert len(sweeps) == 1 and len(censuses) == len(redundancies) == calls
        assert len(counts["count_nonzero"]) == 3 and counts["bincount"] == []


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["wmub"], ["partitions", "--side", "bases"]],
    ids=lambda argv: " ".join(argv),
)
def test_basis_commands_assemble_no_dense_basis(capsys, monkeypatch, argv):
    # Every gate and table reads the prime-dimension factor families.
    assembled = count_calls(monkeypatch, wmub.hilbert.assemble_tensor_basis)
    code, _, _ = run_cli(capsys, [argv[0], "--d1", "3", "--d2", "5", *argv[1:]])
    assert code == 0
    assert assembled == []


def test_verify_certifies_each_factor_family_in_one_call(capsys, monkeypatch):
    # One unitarity and one conjugation kernel call per factor family, each
    # on a stack; at d = 15 every factor slot carries one component label.
    # A cleared cache: an earlier test may have certified both families.
    wmub.bases.factor_family.cache_clear()
    unitarity = count_calls(monkeypatch, wmub.hilbert.unitarity_defect)
    conjugation = count_calls(monkeypatch, wmub.hilbert.conjugation_defect)
    code, _, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 0
    assert [args[0].shape for args in unitarity] == [(4, 3, 3), (6, 5, 5)]
    assert [args[1].shape for args in conjugation] == [(4, 3, 3), (6, 5, 5)]


def test_verify_certifies_each_prime_once_per_process(monkeypatch):
    # d = 21 shares p = 3 with d = 15, so only the p = 7 family is built and
    # certified; a repeat at d = 15 runs no factor-level kernel at all and
    # gives the same rows.
    wmub.bases.factor_family.cache_clear()
    first = wmub.cli.run_verification(3, 5, 1e-9)
    kernels = ("prime_mub", "unitarity_defect", "conjugation_defect")
    calls = {name: count_calls(monkeypatch, getattr(wmub.hilbert, name)) for name in kernels}
    calls["_factor_extrema"] = count_calls(monkeypatch, wmub.bases._factor_extrema)
    assert wmub.cli.run_verification(3, 7, 1e-9).ok
    assert calls["prime_mub"] == [(7,)]
    assert [args[0].shape for args in calls["unitarity_defect"]] == [(8, 7, 7)]
    assert [args[1].shape for args in calls["conjugation_defect"]] == [(8, 7, 7)]
    assert [args[0].shape for args in calls["_factor_extrema"]] == [(8, 7, 7)]
    for log in calls.values():
        log.clear()
    assert wmub.cli.run_verification(3, 5, 1e-9) == first
    assert calls == {name: [] for name in calls}


def test_threads_sharing_the_family_cache_agree_with_one_thread(cold_context_caches):
    # The family and context caches and each family's certificates are
    # filled without a lock: a race may build a family or a catalog, or
    # measure a certificate, twice, but must store and report what one
    # thread alone does.
    dims = [(3, 5), (3, 7), (5, 7), (3, 11)]
    caches = (
        wmub.bases.factor_family, wmub.cli.verified_catalog, wmub.hilbert.check_crt_relabelling,
        wmub.cli.verified_pairs, wmub.zring.crt_context, wmub.geometry.check_point_map,
    )
    wmub.bases.factor_family.cache_clear()
    want = [wmub.cli.run_verification(d1, d2, 1e-9) for d1, d2 in dims]
    residuals = {p: wmub.bases.factor_family(p).residuals for p in (3, 5, 7, 11)}
    for cache in caches:
        cache.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(wmub.cli.run_verification, d1, d2, 1e-9) for _ in range(4) for d1, d2 in dims]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 4
    for p, want_residuals in residuals.items():
        assert np.array_equal(wmub.bases.factor_family(p).residuals, want_residuals), p
    assert [cache.cache_info().currsize for cache in caches] == [4] * len(caches)


@pytest.mark.parametrize(
    "case,summary",
    [
        ("nan", "FAIL unitarity: max defect nan vs tolerance 1e-09"),
        ("generic", "FAIL conjugation: max residual 3.248e+00 vs tolerance 1e-09"),
        ("mixed", "FAIL conjugation: max residual 1.512e+00 vs tolerance 1e-09"),
    ],
)
def test_a_warm_cache_vouches_for_no_tampered_family(capsys, monkeypatch, case, summary):
    # A tampered family is a family of its own, so after a clean run has
    # certified both primes it fails the gate it fails on a cold cache, with
    # the same summary; the overlap pass reads its own extrema too, and some
    # pair fits no template, which the cached extrema would not give.
    summaries, codes = [], []
    for warm in (True, False):
        wmub.bases.factor_family.cache_clear()
        if warm:
            assert run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])[0] == 0
        tampered = tampered_15(case, build_wmub(maximal_line_catalog(crt_context(3, 5))))
        monkeypatch.setattr(wmub.cli, "build_wmub", lambda catalog: tampered)
        code, out, err = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
        assert (code, err) == (1, "")
        summaries.append(out.strip())
        with np.errstate(invalid="ignore"):
            codes.append(wmub.bases._match(tampered, *np.triu_indices(len(tampered), k=1), 1e-9)[0])
        monkeypatch.undo()
    assert summaries == [summary, summary]
    assert np.array_equal(*codes) and (codes[0] < 0).any()


def test_partitions_bases_builds_no_factor_family(capsys, monkeypatch):
    # The basis grid is the catalog layout's, so d is not capped at 105.
    # Counting `factor_family` lookups, with the cache cleared, sees a
    # family taken from the cache as well as one built.
    wmub.bases.factor_family.cache_clear()
    looked_up = count_calls(monkeypatch, wmub.bases.factor_family)
    built = count_calls(monkeypatch, wmub.hilbert.prime_mub)
    code, out, _ = run_cli(capsys, ["partitions", "--d1", "3", "--d2", "5", "--side", "bases"])
    assert code == 0 and out == (GOLDEN / "partitions_bases_3_5.txt").read_text()
    assert looked_up == built == []
    code, _, err = run_cli(capsys, ["partitions", "--d1", "3", "--d2", "37", "--side", "bases"])
    assert (code, err) == (0, "")
    assert looked_up == built == []


def test_wmub_table_builds_no_factor_family(capsys, monkeypatch):
    # The basis table reads only the labels, so d is not capped at 105.
    wmub.bases.factor_family.cache_clear()
    looked_up = count_calls(monkeypatch, wmub.bases.factor_family)
    built = count_calls(monkeypatch, wmub.hilbert.prime_mub)
    code, out, _ = run_cli(capsys, ["wmub", "--d1", "3", "--d2", "5"])
    assert code == 0 and out == (GOLDEN / "bases_3_5.txt").read_text()
    code, _, err = run_cli(capsys, ["wmub", "--d1", "3", "--d2", "37"])
    assert (code, err) == (0, "")
    assert looked_up == built == []


TABLES = [
    [command, "--format", fmt] for command in ("lines", "wmub") for fmt in ("table", "csv", "json")
] + [
    ["partitions", "--side", side, "--format", fmt]
    for side in ("lines", "bases") for fmt in ("table", "csv", "json")
]


@pytest.mark.parametrize("command", ["lines", "verify"])
def test_a_context_and_its_point_map_are_certified_once_per_process(capsys, cold_context_caches, command):
    # Both are facts of (d1, d2): a second call rebuilds neither.
    argv = [command, "--d1", "3", "--d2", "7"]
    first = run_cli(capsys, argv)
    assert run_cli(capsys, argv) == first and first[0] == 0
    for cache in (wmub.zring.crt_context, wmub.geometry.check_point_map):
        assert cache.cache_info().misses == 1, cache


def test_tables_fill_no_context_cache(capsys, cold_context_caches):
    # Only `verify` keeps a catalog: at the 2**20 cap a kept catalog would
    # hold about 89 MB, against the tables' 120 MB bound.
    for argv in TABLES:
        assert run_cli(capsys, [argv[0], "--d1", "3", "--d2", "5", *argv[1:]])[0] == 0
    for cache in (wmub.cli.verified_catalog, wmub.hilbert.check_crt_relabelling, wmub.cli.verified_pairs):
        assert cache.cache_info().currsize == 0


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("command,maker", [("lines", "catalog_rows"), ("wmub", "sweep_entries")])
def test_a_table_makes_no_block_past_its_last_row(capsys, monkeypatch, command, maker, fmt):
    # The 24 rows at d = 15 fill less than one block, so one block is made.
    blocks = count_calls(monkeypatch, getattr(wmub.geometry, maker))
    code, _, _ = run_cli(capsys, [command, "--d1", "3", "--d2", "5", "--format", fmt])
    assert code == 0 and len(blocks) == 1


@pytest.mark.parametrize("argv", [*TABLES, ["verify"], ["verify", "--json"]], ids=" ".join)
def test_partition_grid_is_built_only_where_it_is_read(capsys, monkeypatch, argv, cold_context_caches):
    # The lines and bases tables read the component array of the layout
    # alone; each partition table and the `partitions` check build the
    # grid once, the check on a cold call, in the pair certificate.
    ctx = crt_context(3, 5)
    components = wmub.geometry.catalog_layout(ctx)
    assert components.dtype.kind == "i" and components.shape == (24, 2)
    assert np.array_equal(components, maximal_line_catalog(ctx).components)
    grids = count_calls(monkeypatch, wmub.geometry.partition_lines)
    code, _, _ = run_cli(capsys, [argv[0], "--d1", "3", "--d2", "5", *argv[1:]])
    assert code == 0
    assert len(grids) == (0 if argv[0] in ("lines", "wmub") else 1)


def test_verify_json_goes_through_the_one_writer(capsys, monkeypatch):
    rendered = []
    render = wmub.cli.Document.render
    monkeypatch.setattr(
        wmub.cli.Document, "render", lambda doc, *args: rendered.append(doc.kind) or render(doc, *args)
    )
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5", "--json"])
    assert code == 0 and json.loads(out)["kind"] == "verify"
    assert rendered == ["verify"]


TABLE_CALLS = [
    [command, "--d1", str(d1), "--d2", str(d2), *side, "--format", fmt]
    for d1, d2 in ((3, 5), (5, 7))
    for command, *side in (["lines"], ["wmub"], ["partitions", "--side", "lines"],
                           ["partitions", "--side", "bases"])
    for fmt in ("table", "csv", "json")
] + [["verify", "--d1", "3", "--d2", "5", "--json"], ["verify", "--d1", "5", "--d2", "7", "--json"]]


@pytest.mark.parametrize("block", [1, 2, 5, 64])
def test_output_does_not_depend_on_the_block_size(capsys, monkeypatch, block):
    # The tier-1 tables all fit in one default block; small blocks put
    # every join between blocks to the test.  Blocks count values: up to 5,
    # every row is a block of its own; 64 holds several rows of each table.
    whole = [run_cli(capsys, argv) for argv in TABLE_CALLS]
    monkeypatch.setattr(wmub.cli, "BLOCK", block)
    for argv, expected in zip(TABLE_CALLS, whole):
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == expected and code == 0, argv
        if argv[-1] in ("json", "--json"):
            assert json.dumps(json.loads(out), indent=2) + "\n" == out, argv


def test_every_traced_name_resolves_in_the_package(monkeypatch):
    # The benchmark's per-layer metrics wrap these names; one the package
    # no longer defines would be reported absent instead of measured.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = []
    for module_name, qualname in tracing.TRACED:
        module = importlib.import_module(f"wmub.{module_name}")
        found = functools.reduce(lambda owner, part: getattr(owner, part, None), qualname.split("."), module)
        if not callable(found):
            unresolved.append(f"{module_name}.{qualname}")
    assert tracing.TRACED and unresolved == []


def test_every_function_the_package_exports_runs_on_some_command(capsys, cold_context_caches):
    # The package root exports the pipeline the commands run; a function
    # only the tests call is imported from its module.  Classes, exceptions
    # and constants are exempt.  Cleared caches make the lru-cached exports
    # run their own code again; `prime_mub` runs only where `verify` builds
    # a family that is not cached yet.
    wmub.bases.factor_family.cache_clear()
    exported = {}
    for name, value in vars(wmub).items():
        function = inspect.unwrap(value)
        if inspect.isfunction(function):
            exported[name] = function.__code__
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for d1, d2 in ((3, 5), (3, 7), (5, 7)):
            dims = ["--d1", str(d1), "--d2", str(d2)]
            for command, *side in (["lines"], ["wmub"], ["partitions", "--side", "lines"],
                                   ["partitions", "--side", "bases"]):
                for fmt in ("table", "csv", "json"):
                    main([command, *dims, *side, "--format", fmt])
            main(["verify", *dims])
            main(["verify", *dims, "--json"])
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    idle = sorted(name for name, code in exported.items() if code not in called)
    assert len(exported) > 10
    assert idle == [], f"exported, but run by no command: {', '.join(idle)}"


@pytest.mark.parametrize("command", ["lines", "verify"])
def test_catalog_commands_build_no_line_object(capsys, monkeypatch, command, cold_context_caches):
    # The catalog, the pair pass and the table read the catalog arrays.
    built = count_calls(monkeypatch, wmub.geometry.line)
    code, _, _ = run_cli(capsys, [command, "--d1", "5", "--d2", "7"])
    assert code == 0
    assert built == []


def test_verify_names_unitarity_on_a_nan_in_a_later_factor_basis(capsys, monkeypatch):
    # A NaN in any factor basis, not only the first of its family, fails
    # the unitarity gate by name.
    s = build_wmub(maximal_line_catalog(crt_context(3, 5)))
    family1, family2 = s.families
    broken = family1.stack.copy()
    broken[2, 0, 0] = math.nan
    tampered = replace(s, families=(FactorFamily(broken), family2))
    monkeypatch.setattr(wmub.cli, "build_wmub", lambda catalog: tampered)
    code, out, err = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1 and err == ""
    assert out.strip() == "FAIL unitarity: max defect nan vs tolerance 1e-09"


def relabel_pairs(monkeypatch, relabel: dict) -> None:
    """Make the basis pair residual pass, which the pair certificate and the
    pair pass both read, fit the given categories alone for some 1-based
    pairs; the pass reads its pairs 0-based."""
    real = wmub.bases._residuals
    categories = tuple(OverlapCategory)

    def patched(s, i, j):
        residuals = real(s, i, j)
        for (a, b), category in relabel.items():
            at = (i == a - 1) & (j == b - 1)
            residuals[:, at] = np.inf
            residuals[categories.index(category), at] = 0.0
        return residuals

    monkeypatch.setattr(wmub.bases, "_residuals", patched)


def test_verify_names_overlap_census_on_wrong_counts(capsys, monkeypatch, cold_context_caches):
    relabel_pairs(monkeypatch, {(3, 9): OverlapCategory.SUB_D1})
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1
    assert out.strip() == "FAIL overlap-census: (37, 60, 179) expected (36, 60, 180)"


def test_verify_names_duality_on_a_mismatch_under_right_counts(capsys, monkeypatch, cold_context_caches):
    # Swapping two categories keeps the census, so only the pairing is wrong.
    relabel_pairs(monkeypatch, {(1, 7): OverlapCategory.FULL, (3, 9): OverlapCategory.SUB_D1})
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1
    assert out.strip() == (
        "FAIL duality: pair (1, 7): intersection 5 against overlap class d^{-1/2}"
    )


def shifted_family(p: int, shift: float, spread: float) -> FactorFamily:
    """The family of `prime_mub(p)` with its stack intact and two of its kept
    overlap extrema moved: the largest entry of the slot 1-to-2 table raised
    by `shift` (the flat and d2**-0.5 templates of the pairs that read it
    then miss by up to `shift`), and the largest and smallest entries of the
    slot 1 self-table set to 1/p +- `spread` (the flat template then comes
    within `spread` / d1 of the d1**-0.5 pairs that read it, whose first
    factor table is flat at 1/d1)."""
    family = FactorFamily(prime_mub(p))
    extrema = family.extrema.copy()
    extrema[0, 1, 2] += shift
    extrema[0, 2, 1] += shift
    extrema[:2, 1, 1] = 1 / p + spread, 1 / p - spread
    extrema.setflags(write=False)
    family.__dict__["extrema"] = extrema
    return family


def window_oracle(catalog, s) -> tuple[float, float]:
    """(W, E) of a set against its catalog, pair by pair: the largest residual
    of a pair against its line class's template, and the smallest against a
    template tried before it (flat, then d1**-0.5, then d2**-0.5)."""
    ctx, first_fit = s.ctx, (2, 0, 1)
    own, earlier = [], []
    for k, (i, j) in enumerate(zip(*np.triu_indices(len(s), k=1))):
        (max1, min1, dmax1, dmin1, off1), (max2, min2, dmax2, dmin2, off2) = (
            family.extrema[:, s.slots[j, f], s.slots[i, f]] for f, family in enumerate(s.families)
        )
        residuals = (
            max(max1 * dmax2 - 1 / ctx.d1, 1 / ctx.d1 - min1 * dmin2, max1 * off2),
            max(dmax1 * max2 - 1 / ctx.d2, 1 / ctx.d2 - dmin1 * min2, off1 * max2),
            max(max1 * max2 - 1 / ctx.d, 1 / ctx.d - min1 * min2),
        )
        cls = int(catalog.pair_classes[k])
        own.append(residuals[cls])
        earlier += [residuals[t] for t in first_fit[: first_fit.index(cls)]]
    return max(own), min(earlier)


def test_a_kept_window_decides_as_the_pair_pass_at_its_edges(monkeypatch, cold_context_caches):
    # A d = 15 set whose p = 5 family keeps moved extrema, so both its
    # certificate and the basis set `verify` builds read that family: W is
    # about 1e-3 and E about 0.01, both legal tolerances above the unitarity
    # and conjugation bounds.  At each edge a warm call, a cold one and the
    # pair pass alone (an empty window) give the same rows; inside [W, E)
    # every check passes, and outside it the overlap census or the duality
    # fails.
    real = wmub.bases.factor_family
    moved = shifted_family(5, shift=1e-3, spread=0.03)
    monkeypatch.setattr(wmub.bases, "factor_family", lambda p: moved if p == 5 else real(p))
    catalog = wmub.cli.verified_catalog(crt_context(3, 5))
    w, e = wmub.cli.verified_pairs(crt_context(3, 5)).window
    assert (w, e) == window_oracle(catalog, build_wmub(catalog))
    assert 5e-4 < w < 2e-3 and 5e-3 < e < 1 / 30
    for tol, inside in ((w, True), (math.nextafter(w, 0.0), False), (math.nextafter(e, 0.0), True), (e, False)):
        wmub.cli.verified_pairs.cache_clear()
        cold = wmub.cli.run_verification(3, 5, tol)
        warm = wmub.cli.run_verification(3, 5, tol)
        with monkeypatch.context() as m:
            m.setattr(wmub.bases.PairCertificate, "window", (math.nan, math.nan))
            wmub.cli.verified_pairs.cache_clear()
            passed = wmub.cli.run_verification(3, 5, tol)
        assert warm == cold == passed, tol
        if inside:
            assert warm.ok, tol
        else:
            assert warm.checks[-1]["check"] in ("overlap-census", "duality") and not warm.ok, tol


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from([(3, 5), (5, 7)]),
    scale=st.one_of(st.just(0.0), st.floats(min_value=-16.0, max_value=0.0)),
    fmt=st.sampled_from([[], ["--json"]]),
)
def test_warm_verify_equals_cold_at_random_tolerances(dims, scale, fmt):
    # Legal tolerances from 1/(2d) down to 16 decades below it, where every
    # check but the catalog and the line census fails, and 0.
    d1, d2 = dims
    tol = 0.0 if scale == 0.0 else 10.0**scale / (2 * d1 * d2)
    argv = ["verify", "--d1", str(d1), "--d2", str(d2), f"--tolerance={tol!r}", *fmt]
    outputs = []
    for cache in (wmub.cli.verified_catalog, wmub.cli.verified_pairs, wmub.hilbert.check_crt_relabelling):
        cache.cache_clear()
    for _ in ("cold", "warm"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        outputs.append((code, out.getvalue()))
    assert outputs[0] == outputs[1]


def test_verify_names_conjugation_on_a_generic_basis(capsys, monkeypatch):
    # A generic unitary in place of a factor basis passes unitarity; the
    # conjugation check, on the factor against its component label, fails.
    s = build_wmub(maximal_line_catalog(crt_context(3, 5)))
    rng = np.random.default_rng(2024)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    family1, family2 = s.families
    generic = family2.stack.copy()
    generic[1] = q
    tampered = replace(s, families=(family1, FactorFamily(generic)))
    monkeypatch.setattr(wmub.cli, "build_wmub", lambda catalog: tampered)
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1
    assert out.startswith("FAIL conjugation: max residual ")


class ResidueRelabelled(CrtContext):
    """A context whose map2 splits n to n mod d1 (t1 = 1) on the first factor."""

    def map2_split(self, m):
        return m % self.d1, super().map2_split(m)[1]


def test_verify_names_conjugation_on_a_wrong_crt_relabelling(capsys, monkeypatch):
    # With t1 = 1 the index maps no longer turn X_d into X_d1^t1 (x) X_d2^t2
    # (t1 = 2 at d = 15); the factor checks alone would not see it.  Only
    # the basis set gets the wrong maps: the catalog keeps the real ones.
    real = wmub.cli.build_wmub
    monkeypatch.setattr(
        wmub.cli,
        "build_wmub",
        lambda catalog: replace(real(catalog), ctx=ResidueRelabelled(**vars(catalog.ctx))),
    )
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1
    assert out.strip() == "FAIL conjugation: CRT relabelling: X_d is not X_d1^t1 (x) X_d2^t2"


def test_verify_names_conjugation_on_a_label_without_unit_determinant(capsys, monkeypatch):
    # (2, 0 | 0, 2) has determinant 4 at d = 15: a unit mod 3 but not mod 5,
    # so it splits into no pair of factor slot labels.  Permuted slots under
    # the catalog's labels fail the same way, at the first basis moved.
    s = build_wmub(maximal_line_catalog(crt_context(3, 5)))
    labels = s.labels.copy()
    labels[7 - 1] = (2, 0, 0, 2)
    cases = {
        "B_7 label X(2,0|0,2)": replace(s, labels=labels),
        "B_1 label X(1,0|0,1)": replace(s, slots=s.slots[::-1]),
    }
    for named, tampered in cases.items():
        monkeypatch.setattr(wmub.cli, "build_wmub", lambda catalog: tampered)
        code, out, err = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
        assert code == 1 and err == ""
        assert out.strip() == f"FAIL conjugation: {named} does not split into its factor slots' labels"


def test_verify_names_catalog_on_a_failed_cross_check(capsys, monkeypatch, cold_context_caches):
    # Every entry generator splits into zero component generators, so the
    # product route fails on the first entry.
    monkeypatch.setattr(wmub.geometry, "split_generator", lambda generator, ctx: ((0, 0), (0, 0)))
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5", "--json"])
    assert code == 1
    rows = json.loads(out)["rows"]
    assert rows[0] == {
        "check": "catalog",
        "ok": False,
        "detail": "catalog entry 1: product route disagrees",
    }
    assert rows[-1]["detail"] == "FAIL catalog: catalog entry 1: product route disagrees"


def test_verify_names_catalog_on_a_wrong_component_generator(capsys, monkeypatch, cold_context_caches):
    # Entry 7 records the components L1(1,0) and L2(0,1) but its generator is
    # joined from L1(1,2): the matrix route would fail too, but the product
    # route runs first.
    real = wmub.geometry.product_generator

    def patched(comp1, comp2, ctx):
        a1, b1 = (column.copy() for column in comp1)
        assert (a1[7 - 1], b1[7 - 1], comp2[0][7 - 1], comp2[1][7 - 1]) == (1, 0, 0, 1)
        b1[7 - 1] = 2
        return real((a1, b1), comp2, ctx)

    monkeypatch.setattr(wmub.geometry, "product_generator", patched)
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1
    assert out.strip() == "FAIL catalog: catalog entry 7: product route disagrees"


def test_verify_names_catalog_on_a_wrong_crt_idempotent(capsys, monkeypatch):
    # With s1 = 11 instead of 10 at d = 15, map1_join no longer inverts
    # map1_split.  The sweep matrices lose their unit determinant on such a
    # context, so the catalog check must run before the basis set is built.
    ctx = crt_context(3, 5)
    monkeypatch.setattr(wmub.cli, "crt_context", lambda d1, d2: replace(ctx, s1=ctx.s1 + 1))
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1
    assert out.strip() == "FAIL catalog: CRT point map: map1_join does not invert map1_split"


def swap_members(sets):
    """Members 1 and 2 trade places between the first two sets."""
    sets = sets.copy()
    sets[0][sets[0] == 1], sets[1][sets[1] == 2] = 2, 1
    return np.sort(sets, axis=1)


def duplicate_member(sets):
    """The last member of the first set repeats the last of the second."""
    sets = sets.copy()
    sets[0, -1] = sets[1, -1]
    return sets


def drop_member(sets):
    """Every set is one member short."""
    return sets[:, :-1]


def halve_sets(sets):
    """Each set splits in two: the grid still covers every index once and
    each new set is still pairwise unbiased, so only its shape is wrong."""
    return sets.reshape(-1, sets.shape[1] // 2)


@pytest.mark.parametrize("grid", ["partition_lines", "partition_bases"])
@pytest.mark.parametrize("fault", [swap_members, duplicate_member, drop_member, halve_sets])
def test_verify_names_partitions_on_a_wrong_grid(capsys, monkeypatch, grid, fault):
    # Both sides share the one grid of `partition_lines`, which the check
    # reads: the fault goes into that grid, and each side's partition returns it.
    ctx = crt_context(3, 5)
    module, arg = {"partition_lines": (wmub.geometry, ctx),
                   "partition_bases": (wmub.bases, build_wmub(maximal_line_catalog(ctx)))}[grid]
    real = wmub.geometry.partition_lines
    wrong = fault(real(ctx))
    for bound in (wmub.geometry, wmub.bases):
        monkeypatch.setattr(bound, "partition_lines", lambda c: fault(real(c)))
    assert np.array_equal(getattr(module, grid)(arg), wrong)
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1
    assert out.strip() == "FAIL partitions: line and basis grids compared"


def test_verify_names_catalog_on_a_wrong_size(capsys, monkeypatch, cold_context_caches):
    # A layout one row short gives a catalog whose every entry passes both
    # routes; the catalog check is the one place that counts them.
    real = wmub.geometry.catalog_layout
    monkeypatch.setattr(
        wmub.geometry, "catalog_layout",
        lambda ctx: real(ctx)[:-1],
    )
    code, out, err = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert (code, out, err) == (1, "FAIL catalog: 23 maximal lines\n", "")


def test_lines_table_at_d_3007_is_pinned(capsys):
    code, out, _ = run_cli(capsys, ["lines", "--d1", "31", "--d2", "97"])
    assert code == 0 and len(out.splitlines()) == 32 * 98
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b0c3347c8d9b5a28da05908c7835f69f73e82f4afb31190300de54e30e018dd6"
    )


def test_verify_names_catalog_on_a_wrong_sweep_matrix(capsys, monkeypatch, cold_context_caches):
    # Entry 7 (components (0, None)) gets the identity, which keeps the
    # vertical line: the matrix route fails while the product route holds.
    real = wmub.geometry.sweep_entries

    def patched(ctx, components, start=0):
        entries = real(ctx, components, start).copy()
        assert components[7 - 1].tolist() == [1, 0]
        entries[7 - 1] = (1, 0, 0, 1)
        return entries

    monkeypatch.setattr(wmub.geometry, "sweep_entries", patched)
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1
    assert out.strip() == "FAIL catalog: catalog entry 7: matrix route disagrees"


def test_verify_names_catalog_on_a_sweep_matrix_without_unit_determinant(capsys, monkeypatch, cold_context_caches):
    # With t1 one off, the sweep matrices whose first component is swept
    # lose their unit determinant; entry 7 (components (1, 0)) is the first.
    real = wmub.geometry.sweep_entries
    monkeypatch.setattr(
        wmub.geometry, "sweep_entries", lambda ctx, *args: real(replace(ctx, t1=ctx.t1 + 1), *args)
    )
    code, out, err = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert (code, out, err) == (1, "FAIL catalog: sweep entry 7: det g(6,0|10,6) = 6 != 1 (mod 15)\n", "")


def fault_entry(monkeypatch, command: str, ctx: CrtContext, entry: int) -> str:
    """Make the cross-check of one table fail at the given 1-based entry, and
    return the pattern of its stderr line: `lines` gets a wrong product
    generator for that entry alone, `wmub` a wrong t1 from that entry on."""
    if command == "lines":
        real = wmub.geometry.product_generator
        k1, k2 = wmub.geometry.catalog_layout(ctx)[entry - 1]
        target = (*wmub.geometry.component_generators(ctx.d1, k1), *wmub.geometry.component_generators(ctx.d2, k2))

        def faulty(comp1, comp2, ctx):
            # The rows with the components of `entry` get b1 + 1: a wrong first component.
            hit = np.all([column == value for column, value in zip((*comp1, *comp2), target)], axis=0)
            return real((comp1[0], comp1[1] + hit), comp2, ctx)

        monkeypatch.setattr(wmub.geometry, "product_generator", faulty)
        return re.escape(f"wmub lines: catalog entry {entry}: product route disagrees\n")
    real = wmub.geometry.sweep_entries

    def faulty(ctx, components, start=0):
        k = min(max(0, entry - 1 - start), len(components))
        wrong = replace(ctx, t1=ctx.t1 + 1)
        return np.concatenate([real(ctx, components[:k], start), real(wrong, components[k:], start + k)])

    monkeypatch.setattr(wmub.cli, "sweep_entries", faulty)
    return rf"wmub wmub: sweep entry {entry}: det g\(\d+,\d+\|\d+,\d+\) = \d+ != 1 \(mod {ctx.d}\)\n"


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("command", ["lines", "wmub"])
def test_table_cross_check_failing_mid_stream_exits_1_with_one_line(capsys, monkeypatch, command, fmt):
    # Entry 20000 of the 40032 at d=3*10007 lies in a later block in every
    # format: stdout holds the whole blocks before it, and the one stderr
    # line names the entry by its number in the table, not in its block.
    ctx = crt_context(3, 10007)
    doc = getattr(wmub.cli, f"{command}_document")(3, 10007)
    head, row, glue, _ = doc.formats[fmt]
    rows = wmub.cli.BLOCK // row.count("%")
    written = (20000 - 1) // rows * rows
    assert written > 0
    expected = head + glue.join([row] * written) % tuple(doc.values(fmt, 0, written))
    message = fault_entry(monkeypatch, command, ctx, 20000)
    code, out, err = run_cli(capsys, [command, "--d1", "3", "--d2", "10007", "--format", fmt])
    assert code == 1 and out == expected
    assert re.fullmatch(message, err), err


@pytest.mark.parametrize("command", ["lines", "wmub"])
def test_catalog_tables_hold_only_the_layout_whole(monkeypatch, command):
    # Each block of rows is made, checked and written in turn.  Building
    # the layout peaks at 2.75 times its size; holding the whole catalog
    # (`lines`) or the whole label array (`wmub`) as well peaked at 9.5 and
    # 4.2 times.
    layout = wmub.geometry.catalog_layout(crt_context(3, 10007))
    monkeypatch.setattr(wmub.cli, "BLOCK", 1 << 10)
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main([command, "--d1", "3", "--d2", "10007"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 3.5 * layout.nbytes, peak / layout.nbytes


def test_verify_names_line_census_on_a_failed_cross_check(capsys, monkeypatch, cold_context_caches):
    # Every line claims the vertical components (key p for each factor), so
    # the component rule disagrees with the determinant route on the first pair.
    monkeypatch.setattr(
        wmub.geometry, "factor_keys",
        lambda generators, ctx: np.tile([ctx.d1, ctx.d2], (len(generators), 1)),
    )
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1
    assert out.startswith("FAIL line-census: component rule predicts 5 common points")


VALID_PAIRS = [(3, 5), (3, 7), (5, 7)]


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    dims=st.one_of(
        st.sampled_from(VALID_PAIRS), st.tuples(st.integers(-1, 5), st.integers(-1, 7))
    ),
    tol=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, 1e-15, 1e-9, 1 / 70, 0.02]),
    ),
)
def test_verify_exit_code_property(dims, tol):
    # d1 <= 5 and d2 <= 7, so VALID_PAIRS lists every valid pair (d <= 35).
    d1, d2 = dims
    code = main(["verify", f"--d1={d1}", f"--d2={d2}", f"--tolerance={tol!r}"])
    invalid = dims not in VALID_PAIRS or not (
        math.isfinite(tol) and 0 <= tol <= 1 / (2 * d1 * d2)
    )
    assert code in ((USAGE_ERROR,) if invalid else (0, VERIFY_ERROR))


def test_readme_session_runs(capsys):
    # The library example in the README runs against the current API.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out
    assert ": 36, " in out and out.endswith(" 1/2\n")


def test_readme_sample_rows_match_the_cli(capsys):
    # Each `$ wmub ...` line under "Sample rows", run in process, prints the
    # line the README shows under it, after its `sed -n Np` pick if any.
    block = re.search(r"Sample rows:\n\n```\n(.*?)```", README.read_text(), flags=re.DOTALL)[1]
    samples = re.findall(r"^\$ wmub (.*?)(?: \| sed -n (\d+)p)?\n(.*)$", block, flags=re.MULTILINE)
    assert len(samples) == 3
    for command, pick, shown in samples:
        code, out, err = run_cli(capsys, command.split())
        assert (code, err) == (0, "")
        assert (out.splitlines(keepends=True)[int(pick) - 1] if pick else out) == shown + "\n"


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "verify"
    checks = {row["check"]: row["ok"] for row in payload["rows"]}
    assert checks["duality"] and checks["summary"]
    assert json.dumps(payload, indent=2) + "\n" == out


def verify_rows(capsys, argv: list[str]) -> tuple[int, list[dict]]:
    code, out, _ = run_cli(capsys, ["verify", *argv, "--json"])
    return code, json.loads(out)["rows"]


def test_verify_json_rows_follow_the_ladder(capsys):
    # A passing run reports every check in ladder order, then the summary.
    code, rows = verify_rows(capsys, ["--d1", "3", "--d2", "5"])
    assert code == 0
    assert [row["check"] for row in rows] == [*wmub.cli.CHECKS, "summary"]
    # A failing run stops at its failing check: the rows are a prefix of
    # the ladder that ends there.
    code, rows = verify_rows(capsys, ["--d1", "3", "--d2", "5", "--tolerance", "1e-15"])
    assert code == 1
    assert [row["check"] for row in rows] == [
        "catalog", "line-census", "unitarity", "conjugation", "summary"
    ]
    assert [row["ok"] for row in rows] == [True, True, True, False, False]
    assert rows[3]["detail"] == "max residual 1.479e-15 vs tolerance 1e-15"
    # A negative zero is accepted as 0 and printed without its sign.
    code, rows = verify_rows(capsys, ["--d1", "3", "--d2", "5", "--tolerance=-0.0"])
    assert code == 1
    assert [row["check"] for row in rows] == ["catalog", "line-census", "unitarity", "summary"]
    assert rows[2]["detail"] == "max defect 4.883e-16 vs tolerance 0"


# The 16 d = d1*d2 up to the Hilbert cap of 105 that `verify` serves.
SUPPORTED_DIMS = [
    (3, 5), (3, 7), (3, 11), (3, 13), (3, 17), (3, 19), (3, 23), (3, 29), (3, 31),
    (5, 7), (5, 11), (5, 13), (5, 17), (5, 19), (7, 11), (7, 13),
]


@pytest.mark.parametrize("dims", SUPPORTED_DIMS, ids=lambda dims: f"d={dims[0] * dims[1]}")
def test_verify_json_pins_every_passing_row(capsys, dims):
    # Every detail from closed forms: psi = (d1+1)(d2+1) lines, of which
    # d1*psi/2, d2*psi/2 and d*psi/2 unordered pairs meet in d2, d1 and 1
    # points, and as many basis pairs overlap in d1^{-1/2}, d2^{-1/2} and
    # d^{-1/2}; redundancy psi/(d+1) - 1 = (d1+d2)/(d+1).  The two residuals
    # depend on BLAS, so only their format is pinned.
    d1, d2 = dims
    d, psi = d1 * d2, (d1 + 1) * (d2 + 1)
    a, b, c = d1 * psi // 2, d2 * psi // 2, d * psi // 2
    r = Fraction(d1 + d2, d + 1)
    residual = r"\d\.\d{3}e[-+]\d{2} vs tolerance 1e-09"
    expected = {
        "catalog": re.escape(f"{psi} maximal lines"),
        "line-census": re.escape(f"{a}/{b}/{c} by intersection {d2}/{d1}/1"),
        "unitarity": f"max defect {residual}",
        "conjugation": f"max residual {residual}",
        "overlap-census": re.escape(f"{(a, b, c)} expected {(a, b, c)}"),
        "duality": re.escape(f"{psi * (psi - 1) // 2} pairs matched"),
        "partitions": re.escape("line and basis grids compared"),
        "redundancy": re.escape(f"value {r}"),
        "summary": re.escape(
            f"pairs: {a + b + c} | d1^{{-1/2}}:{a} d2^{{-1/2}}:{b} d^{{-1/2}}:{c}"
            f" | duality: OK | redundancy: {r}"
        ),
    }
    code, rows = verify_rows(capsys, ["--d1", str(d1), "--d2", str(d2)])
    assert code == 0
    assert [row["check"] for row in rows] == list(expected)
    for row in rows:
        assert row["ok"] and re.fullmatch(expected[row["check"]], row["detail"]), row
    # The ladder reads both censuses in the order of their keys.
    catalog = maximal_line_catalog(crt_context(d1, d2))
    report = duality_report(catalog, build_wmub(catalog))
    assert list(pair_census(catalog)) == [d2, d1, 1]
    assert list(report.overlap_census) == list(OverlapCategory)


@pytest.mark.parametrize(
    "module,gate,check",
    [
        pytest.param(wmub.cli, "unitarity_bound", "unitarity", id="unitarity_bound-unitarity"),
        # The ladder's `partitions_hold` reads the certificate's partition facts.
        pytest.param(wmub.bases, "_intersection_sizes", "partitions", id="partitions_hold-partitions"),
    ],
)
def test_verify_names_the_check_whose_gate_raises(capsys, monkeypatch, module, gate, check, cold_context_caches):
    # Any cross-check error fails the check being run, with no traceback;
    # the partitions check reads the pair certificate, whose line pass over
    # the partition groups raises here.
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(module, gate, boom)
    code, out, err = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert (code, out, err) == (1, f"FAIL {check}: boom\n", "")


def small_mix() -> list[list[str]]:
    """Every subcommand and format at d = 15, 21, 33 and 35."""
    calls = []
    for d1, d2 in ((3, 5), (3, 7), (3, 11), (5, 7)):
        dims = ["--d1", str(d1), "--d2", str(d2)]
        for command in (["lines"], ["wmub"], ["partitions", "--side", "lines"],
                        ["partitions", "--side", "bases"]):
            for fmt in ([], ["--format", "csv"], ["--format", "json"]):
                calls.append([command[0], *dims, *command[1:], *fmt])
        calls += [["verify", *dims], ["verify", *dims, "--json"]]
    return calls


# Runs each argv list read from stdin in a forked child of a process that
# has imported the package but never called `main`, so each call meets the
# state of a fresh process.
FRESH_CALLS = """
import contextlib, io, json, os, sys
from wmub.cli import main
results = []
for argv in json.load(sys.stdin):
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        with os.fdopen(write, "w") as pipe:
            json.dump([code, out.getvalue(), err.getvalue()], pipe)
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        results.append(json.load(pipe))
    os.waitpid(pid, 0)
json.dump(results, sys.stdout)
"""


def test_one_parser_per_process_matches_fresh_processes(capsys):
    # The parser is built once per process and reused by every call; no call
    # may see what an earlier one parsed, whatever the order.
    edge = [
        ["verify", "--d1", "3", "--d2", "5", "--json"],
        ["verify", "--d1", "3", "--d2", "5"],
        ["partitions", "--d1", "3", "--d2", "7", "--side", "bases", "--format", "csv"],
        ["partitions", "--d1", "3", "--d2", "7", "--format", "csv"],
        ["verify", "--d1", "3"],
        ["lines", "--d1", "5", "--d2", "7", "--format", "json"],
        ["wmub", "--d1", "3", "--d2", "5", "--format", "jsn"],
        ["verify", "--d1", "3", "--d2", "7", "--tolerance", "1e-12"],
    ]
    mix = small_mix()
    calls = [argv for argv in mix if argv not in edge] + edge
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}  # no BLAS threads across fork
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_CALLS],
        input=json.dumps(calls), capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    fresh = {tuple(argv): tuple(result) for argv, result in zip(calls, json.loads(proc.stdout))}
    assert [fresh[tuple(argv)][0] for argv in edge] == [0, 0, 0, 0, 2, 0, 2, 0]
    for order in (mix + edge, edge + mix[::-1]):
        for argv in order:
            assert run_cli(capsys, argv) == fresh[tuple(argv)], argv


@pytest.mark.parametrize("argv", [argv for argv in small_mix() if "3" in argv and "5" in argv], ids=" ".join)
def test_main_parses_a_valid_argv_once(capsys, monkeypatch, argv):
    # The subcommand's own parser reads the argv; the top-level parser does
    # not parse it first.
    real = argparse.ArgumentParser.parse_known_args
    parses = []

    def counted(self, *args, **kwargs):
        parses.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run_cli(capsys, argv)[0] == 0
    assert parses == [f"wmub {argv[0]}"]


def parse_outcome(parse, argv: list[str]) -> tuple:
    """What `parse(argv)` gives: its namespace's attributes (by repr, so that
    a nan tolerance equals itself), its UsageError message, or its
    SystemExit code with what it printed."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "namespace", repr(sorted(vars(parse(argv)).items()))
    except wmub.cli.UsageError as err:
        return "usage", str(err)
    except SystemExit as exit:
        return "exit", exit.code, out.getvalue()


COMMANDS = ["lines", "wmub", "partitions", "verify"]
# Every option, with abbreviations and near misses, and values good and bad for each.
FLAGS = ["--d1", "--d2", "--side", "--format", "--tolerance", "--json", "--tol", "--d", "--fo", "--si", "--js",
         "-h", "--help", "--he", "--x", "-x"]
VALUES = ["3", "5", "19", "4", "-1", "three", "1e-9", "-1e-5", "nan", "lines", "bases", "points", "table", "csv",
          "json", "xml", "", "-", "--", "verify"]
TOKENS = st.one_of(
    st.sampled_from(FLAGS + VALUES + COMMANDS),
    st.builds("{}={}".format, st.sampled_from(FLAGS), st.sampled_from(VALUES)),
)
OPTION_PAIRS = st.lists(st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)), max_size=3)


@settings(max_examples=400, deadline=None)
@given(
    argv=st.one_of(
        st.lists(TOKENS, max_size=8),
        st.builds(lambda command, rest: [command, *rest], st.sampled_from(COMMANDS), st.lists(TOKENS, max_size=8)),
        # Mostly well formed: both dimensions and a few more options, in any order.
        st.builds(
            lambda command, pairs, tail: [command, *(token for pair in pairs for token in pair), *tail],
            st.sampled_from(COMMANDS),
            OPTION_PAIRS.flatmap(lambda extra: st.permutations([("--d1", "3"), ("--d2", "5"), *extra])),
            st.lists(TOKENS, max_size=2),
        ),
    )
)
@example(argv=["verify", "--d1", "3", "--d2", "5", "extra", "--x"])
@example(argv=["--", "verify", "--d1", "3", "--d2", "5"])
@example(argv=["verify", "--", "--d1", "3", "--d2", "5"])
@example(argv=["partitions", "--d1=3", "--d2", "5", "--si", "bases", "--fo=csv"])
@example(argv=["verify", "--tol", "1e-9", "--d1", "3", "--d2", "5", "--js"])
def test_parse_gives_what_the_top_level_parse_gives(argv):
    assert parse_outcome(wmub.cli.parse, argv) == parse_outcome(wmub.cli.build_parser().parse_args, argv)


def test_module_entry_point_matches_golden():
    proc = subprocess.run(
        [sys.executable, "-m", "wmub", "lines", "--d1", "3", "--d2", "5"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "lines_3_5.txt").read_text()


ENTRY_POINTS = pytest.mark.parametrize(
    "entry",
    [["-m", "wmub"], ["-c", "import sys; from wmub.__main__ import run; sys.exit(run())"]],
    ids=["python -m wmub", "wmub command"],
)


@ENTRY_POINTS
def test_entry_points_on_a_closed_pipe_exit_141_without_traceback(entry):
    # As `python -m wmub ... | head -3` when the reader exits before the
    # write: the read end is closed before the process starts.  The second
    # entry is what the `wmub` console script runs.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *entry, "partitions", "--d1", "3", "--d2", "5",
             "--side", "bases", "--format", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


@pytest.mark.parametrize("d2", [1009, 10007])
@ENTRY_POINTS
def test_entry_points_on_a_pipe_closed_mid_stream_exit_141_without_traceback(entry, d2):
    # As `wmub lines ... | head -1`: the reader takes the first row and
    # closes the pipe while most of the rows, far more than a pipe buffer
    # holds, are still to be written.  A write cut short by the close
    # returns without an error, so a later write has to raise: after the
    # one block of the 4040 rows at d2=1009, and between the blocks of the
    # 40032 rows at d2=10007.  A block holds BLOCK values, 11 per row.
    rows = wmub.cli.BLOCK // 11
    assert 4 * (1009 + 1) <= rows < 4 * (10007 + 1)
    proc = subprocess.Popen(
        [sys.executable, *entry, "lines", "--d1", "3", "--d2", str(d2)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first.startswith("L_1 | ") and err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv", [["verify", "--d1", "3", "--d2", "5"], ["lines", "--d1", "3", "--d2", "10007"]], ids=" ".join
)
@ENTRY_POINTS
def test_entry_points_on_a_failed_write_exit_74_with_one_line(entry, argv):
    # A write that fails for any reason but a closed pipe, here a full
    # device, is an I/O error (EX_IOERR), not a failed check.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, *entry, *argv], stdout=full, stderr=subprocess.PIPE, text=True, timeout=60
        )
    assert proc.returncode == 74
    assert proc.stderr == f"wmub: cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
