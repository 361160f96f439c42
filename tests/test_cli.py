from __future__ import annotations

import functools
import hashlib
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wmub.bases
import wmub.cli
import wmub.geometry
import wmub.hilbert
from wmub.bases import OverlapCategory, build_wmub
from wmub.cli import USAGE_ERROR, VERIFY_ERROR, main
from wmub.zring import crt_context

GOLDEN = Path(__file__).parent / "golden"
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
        assert json.dumps(payload, indent=2) + "\n" == out
    for side in ("lines", "bases"):
        _, out, _ = run_cli(
            capsys,
            ["partitions", "--d1", "3", "--d2", "5", "--side", side, "--format", "json"],
        )
        payload = json.loads(out)
        assert payload["kind"] == f"partitions-{side}"
        assert [len(row["members"]) for row in payload["rows"]] == [4] * 6
        assert json.dumps(payload, indent=2) + "\n" == out


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
        ["verify", "--d1", "3", "--d2", "37"],
        ["wmub", "--d1", "3", "--d2", "37"],
        ["partitions", "--d1", "3", "--d2", "37", "--side", "bases"],
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


def test_verify_classifies_each_pair_once(capsys, monkeypatch):
    # One array factorization of the 24 catalog lines, one array pass per
    # side, and no per-pair call.
    factorizations = count_calls(monkeypatch, wmub.geometry.factor_keys)
    line_passes = count_calls(monkeypatch, wmub.geometry._intersection_sizes)
    basis_passes = count_calls(monkeypatch, wmub.bases.pair_categories)
    single = count_calls(monkeypatch, wmub.bases.classify_pair)
    single += count_calls(monkeypatch, wmub.geometry.classify_line_pair)
    code, _, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 0
    assert [args[0].shape for args in factorizations] == [(24, 2)]
    assert len(line_passes) == len(basis_passes) == 1
    assert len(line_passes[0][1]) == len(basis_passes[0][1]) == 24 * 23 // 2
    assert single == []


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
    unitarity = count_calls(monkeypatch, wmub.hilbert.unitarity_defect)
    conjugation = count_calls(monkeypatch, wmub.hilbert.conjugation_defect)
    code, _, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 0
    assert [args[0].shape for args in unitarity] == [(4, 3, 3), (6, 5, 5)]
    assert [args[1].shape for args in conjugation] == [(4, 3, 3), (6, 5, 5)]


def test_partitions_bases_builds_no_factor_family(capsys, monkeypatch):
    # The basis grid is the catalog layout's; the cap still applies.
    built = count_calls(monkeypatch, wmub.hilbert.prime_mub)
    code, out, _ = run_cli(capsys, ["partitions", "--d1", "3", "--d2", "5", "--side", "bases"])
    assert code == 0 and out == (GOLDEN / "partitions_bases_3_5.txt").read_text()
    assert built == []
    code, _, err = run_cli(capsys, ["partitions", "--d1", "3", "--d2", "37", "--side", "bases"])
    assert code == USAGE_ERROR and "exceeds the Hilbert-space cap 105" in err
    assert built == []


def test_wmub_table_builds_no_factor_family(capsys, monkeypatch):
    # The basis table reads only the labels; the cap still applies.
    built = count_calls(monkeypatch, wmub.hilbert.prime_mub)
    code, out, _ = run_cli(capsys, ["wmub", "--d1", "3", "--d2", "5"])
    assert code == 0 and out == (GOLDEN / "bases_3_5.txt").read_text()
    code, _, err = run_cli(capsys, ["wmub", "--d1", "3", "--d2", "37"])
    assert code == USAGE_ERROR and "exceeds the Hilbert-space cap 105" in err
    assert built == []


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


@pytest.mark.parametrize("command", ["lines", "verify"])
def test_catalog_commands_build_no_line_object(capsys, monkeypatch, command):
    # The catalog, the pair pass and the table read the catalog arrays.
    built = count_calls(monkeypatch, wmub.geometry.line)
    code, _, _ = run_cli(capsys, [command, "--d1", "5", "--d2", "7"])
    assert code == 0
    assert built == []


def test_verify_names_unitarity_on_a_nan_in_a_later_factor_basis(capsys, monkeypatch):
    # A NaN in any factor basis, not only the first of its family, fails
    # the unitarity gate by name.
    s = build_wmub(crt_context(3, 5))
    stack1, stack2 = s.factor_stacks
    broken = stack1.copy()
    broken[2, 0, 0] = math.nan
    monkeypatch.setattr(wmub.cli, "build_wmub", lambda ctx: replace(s, factor_stacks=(broken, stack2)))
    code, out, err = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1 and err == ""
    assert out.strip() == "FAIL unitarity: max defect nan vs tolerance 1e-09"


def relabel_pairs(monkeypatch, relabel: dict) -> None:
    """Make the basis pair pass report the given categories for some pairs."""
    real = wmub.bases.pair_categories
    categories = tuple(OverlapCategory)

    def patched(s, i, j, tol=wmub.bases.OVERLAP_ATOL):
        codes = real(s, i, j, tol).copy()
        for (a, b), category in relabel.items():
            codes[(i == a) & (j == b)] = categories.index(category)
        return codes

    monkeypatch.setattr(wmub.bases, "pair_categories", patched)


def test_verify_names_overlap_census_on_wrong_counts(capsys, monkeypatch):
    relabel_pairs(monkeypatch, {(3, 9): OverlapCategory.SUB_D1})
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1
    assert out.strip() == "FAIL overlap-census: (37, 60, 179) expected (36, 60, 180)"


def test_verify_names_duality_on_a_mismatch_under_right_counts(capsys, monkeypatch):
    # Swapping two categories keeps the census, so only the pairing is wrong.
    relabel_pairs(monkeypatch, {(1, 7): OverlapCategory.FULL, (3, 9): OverlapCategory.SUB_D1})
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1
    assert out.strip() == (
        "FAIL duality: pair (1, 7): intersection 5 against overlap class d^{-1/2}"
    )


def test_verify_names_conjugation_on_a_generic_basis(capsys, monkeypatch):
    # A generic unitary in place of a factor basis passes unitarity; the
    # conjugation check, on the factor against its component label, fails.
    s = build_wmub(crt_context(3, 5))
    rng = np.random.default_rng(2024)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    stack1, stack2 = s.factor_stacks
    generic = stack2.copy()
    generic[1] = q
    tampered = replace(s, factor_stacks=(stack1, generic))
    monkeypatch.setattr(wmub.cli, "build_wmub", lambda ctx: tampered)
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1
    assert out.startswith("FAIL conjugation: max residual ")


def test_verify_names_conjugation_on_a_wrong_crt_relabelling(capsys, monkeypatch):
    # With t1 = 1 the index maps no longer turn X_d into X_d1^t1 (x) X_d2^t2
    # (t1 = 2 at d = 15); the factor checks alone would not see it.
    real = wmub.hilbert.crt_index_maps
    monkeypatch.setattr(
        wmub.hilbert, "crt_index_maps", lambda ctx: (np.arange(ctx.d) % ctx.d1, real(ctx)[1])
    )
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1
    assert out.strip() == "FAIL conjugation: CRT relabelling: X_d is not X_d1^t1 (x) X_d2^t2"


def test_verify_names_conjugation_on_a_label_without_unit_determinant(capsys, monkeypatch):
    # (2, 0 | 0, 2) has determinant 4 at d = 15: a unit mod 3 but not mod 5.
    s = build_wmub(crt_context(3, 5))
    labels = list(s.symplectic_labels)
    labels[7 - 1] = (2, 0, 0, 2)
    monkeypatch.setattr(wmub.cli, "build_wmub", lambda ctx: replace(s, symplectic_labels=tuple(labels)))
    code, out, err = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1 and err == ""
    assert out.strip() == "FAIL conjugation: B_7 label X(2,0|0,2): determinant is not 1 (mod 15)"


def test_verify_names_catalog_on_a_failed_cross_check(capsys, monkeypatch):
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


def test_verify_names_catalog_on_a_wrong_component_generator(capsys, monkeypatch):
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
    sets = [list(group) for group in sets]
    sets[0][sets[0].index(1)], sets[1][sets[1].index(2)] = 2, 1
    return [tuple(sorted(group)) for group in sets]


def duplicate_member(sets):
    """The last member of the first set repeats the last of the second."""
    sets = list(sets)
    sets[0] = (*sets[0][:-1], sets[1][-1])
    return sets


@pytest.mark.parametrize("grid", ["partition_lines", "partition_bases"])
@pytest.mark.parametrize("fault", [swap_members, duplicate_member])
def test_verify_names_partitions_on_a_wrong_grid(capsys, monkeypatch, grid, fault):
    real = getattr(wmub.bases, grid)
    monkeypatch.setattr(wmub.bases, grid, lambda arg: fault(real(arg)))
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1
    assert out.strip() == "FAIL partitions: line and basis grids compared"


def test_lines_table_at_d_3007_is_pinned(capsys):
    code, out, _ = run_cli(capsys, ["lines", "--d1", "31", "--d2", "97"])
    assert code == 0 and len(out.splitlines()) == 32 * 98
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b0c3347c8d9b5a28da05908c7835f69f73e82f4afb31190300de54e30e018dd6"
    )


def test_verify_names_catalog_on_a_wrong_sweep_matrix(capsys, monkeypatch):
    # Entry 7 (components (0, None)) gets the identity, which keeps the
    # vertical line: the matrix route fails while the product route holds.
    real = wmub.geometry.sweep_entries

    def patched(ctx, components):
        entries = real(ctx, components).copy()
        assert components[7 - 1].tolist() == [1, 0]
        entries[7 - 1] = (1, 0, 0, 1)
        return entries

    monkeypatch.setattr(wmub.geometry, "sweep_entries", patched)
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5"])
    assert code == 1
    assert out.strip() == "FAIL catalog: catalog entry 7: matrix route disagrees"


def test_verify_names_line_census_on_a_failed_cross_check(capsys, monkeypatch):
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


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--d1", "3", "--d2", "5", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "verify"
    checks = {row["check"]: row["ok"] for row in payload["rows"]}
    assert checks["duality"] and checks["summary"]
    assert json.dumps(payload, indent=2) + "\n" == out


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


def test_module_entry_point_matches_golden():
    proc = subprocess.run(
        [sys.executable, "-m", "wmub", "lines", "--d1", "3", "--d2", "5"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "lines_3_5.txt").read_text()


@pytest.mark.parametrize(
    "entry",
    [["-m", "wmub"], ["-c", "import sys; from wmub.__main__ import run; sys.exit(run())"]],
    ids=["python -m wmub", "wmub command"],
)
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
