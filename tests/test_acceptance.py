"""End-to-end acceptance suite.

Each test covers one numbered criterion, prints a PASS/FAIL line for it with
its elapsed time, and enforces the stated tolerance.  Only criteria 1-5
also assert a runtime budget: 1 s each for 1-3, 5 s for 4 and 30 s for 5.
Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from wmub.bases import (
    OverlapCategory,
    build_wmub,
    classify_pair,
    overlap_table,
    wmub_census,
)
from wmub.cli import main
from wmub.geometry import classify_line_pair, maximal_line_catalog, pair_census, redundancy
from wmub.hilbert import conjugation_defect, prime_mub
from wmub.zring import crt_context, dedekind_psi, is_prime, jordan_j2

from dense import overlaps, symplectic_label_defect, symplectic_unitary
from oracles import SymplecticMatrix, catalog_entries, lines_through_origin

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number:2d}: PASS  {description} ({elapsed:.2f}s)")


def timed_cli(capsys, argv: list[str]) -> tuple[str, float]:
    started = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    return out, elapsed


def test_criterion_01_lines_table(capsys):
    with criterion(1, "maximal-line table for d=15 matches its golden file"):
        out, elapsed = timed_cli(capsys, ["lines", "--d1", "3", "--d2", "5"])
        assert out == (GOLDEN / "lines_3_5.txt").read_text()
        assert elapsed < 1.0


def test_criterion_02_basis_table(capsys):
    with criterion(2, "basis table for d=15 matches its golden file"):
        out, elapsed = timed_cli(capsys, ["wmub", "--d1", "3", "--d2", "5"])
        assert out == (GOLDEN / "bases_3_5.txt").read_text()
        assert elapsed < 1.0


def test_criterion_03_partition_tables(capsys):
    with criterion(3, "partition grids match and carry identical index patterns"):
        lines_out, t1 = timed_cli(capsys, ["partitions", "--d1", "3", "--d2", "5", "--side", "lines"])
        bases_out, t2 = timed_cli(capsys, ["partitions", "--d1", "3", "--d2", "5", "--side", "bases"])
        assert lines_out == (GOLDEN / "partitions_lines_3_5.txt").read_text()
        assert bases_out == (GOLDEN / "partitions_bases_3_5.txt").read_text()
        strip = lambda text: [
            [cell.split("_")[1] for cell in row.split(" | ")]
            for row in text.splitlines()[1:]
        ]
        assert strip(lines_out) == strip(bases_out)
        assert t1 + t2 < 1.0


def test_criterion_04_overlap_census_d15():
    with criterion(4, "overlap census at d=15 is (36, 60, 180) within 1e-9"):
        started = time.perf_counter()
        ctx = crt_context(3, 5)
        s = build_wmub(ctx)
        census = wmub_census(s, tol=1e-9)
        assert (
            census[OverlapCategory.SUB_D1],
            census[OverlapCategory.SUB_D2],
            census[OverlapCategory.FULL],
        ) == (36, 60, 180)
        # every entry of every table sits within 1e-9 of its template value
        values = {
            OverlapCategory.SUB_D1: 1 / math.sqrt(3),
            OverlapCategory.SUB_D2: 1 / math.sqrt(5),
            OverlapCategory.FULL: 1 / math.sqrt(15),
        }
        for i in range(1, 25):
            for j in range(i + 1, 25):
                table = overlap_table(s, i, j)
                template = values[classify_pair(s, i, j).category]
                deviation = np.minimum(np.abs(table - template), table)
                assert float(deviation.max()) < 1e-9
        assert time.perf_counter() - started < 5.0


def test_criterion_05_line_census():
    with criterion(5, "line-pair census at d in {15, 21, 33} matches the closed forms"):
        started = time.perf_counter()
        for d1, d2 in ((3, 5), (3, 7), (3, 11)):
            ctx = crt_context(d1, d2)
            catalog = maximal_line_catalog(ctx)
            psi = dedekind_psi(ctx.d)
            counts = pair_census(ctx, catalog)
            assert counts == {
                ctx.d2: ctx.d1 * psi // 2,
                ctx.d1: ctx.d2 * psi // 2,
                1: ctx.d * psi // 2,
            }
            # classify_line_pair cross-checks the determinant route against
            # the component rule on every call, so the census above is already
            # pair-by-pair verified; spot-check the rule's direction too.
            entries = catalog_entries(catalog)
            for a in entries[:6]:
                for b in entries:
                    if a.index >= b.index:
                        continue
                    got = classify_line_pair(a.line, b.line, ctx)
                    if a.comp2 == b.comp2:
                        assert got.intersection_size == ctx.d2
                    elif a.comp1 == b.comp1:
                        assert got.intersection_size == ctx.d1
                    else:
                        assert got.intersection_size == 1
        assert time.perf_counter() - started < 30.0


def test_criterion_06_duality():
    with criterion(6, "pairwise duality dictionary holds at d in {15, 21, 33}"):
        for d1, d2 in ((3, 5), (3, 7), (3, 11)):
            ctx = crt_context(d1, d2)
            catalog = maximal_line_catalog(ctx)
            s = build_wmub(ctx)
            expected = {
                ctx.d2: OverlapCategory.SUB_D1,
                ctx.d1: OverlapCategory.SUB_D2,
                1: OverlapCategory.FULL,
            }
            count = len(s)
            entries = catalog_entries(catalog)
            for i in range(1, count + 1):
                for j in range(i + 1, count + 1):
                    lc = classify_line_pair(entries[i - 1].line, entries[j - 1].line, ctx)
                    oc = classify_pair(s, i, j)
                    assert oc.category is expected[lc.intersection_size]


def test_criterion_07_prime_mubs():
    with criterion(7, "p+1 bases with flat p**-0.5 overlaps for p in {3,5,7,11,13}"):
        for p in (3, 5, 7, 11, 13):
            bases = prime_mub(p)
            assert len(bases) == p + 1
            for i, a in enumerate(bases):
                for b in bases[i + 1:]:
                    assert np.abs(overlaps(a, b) - 1 / math.sqrt(p)).max() < 1e-10


def test_criterion_08_conjugation_contract():
    with criterion(8, "conjugation relations hold for all synthesized unitaries"):
        for p in (3, 5, 7, 11, 13):
            for lam in range(p):
                g = SymplecticMatrix(p, 0, 1, -1, -lam)
                assert conjugation_defect(p, symplectic_unitary(p, g), g.entries) < 1e-9
            quad = SymplecticMatrix(p, 1, 2, 0, 1)
            assert conjugation_defect(p, symplectic_unitary(p, quad), quad.entries) < 1e-9
        s = build_wmub(crt_context(3, 5))
        for j in range(1, len(s) + 1):
            assert symplectic_label_defect(s, j) < 1e-9


def test_criterion_09_symplectic_group_order():
    with criterion(9, "brute-force symplectic group orders equal d * J2(d)"):
        expected = {3: 24, 5: 120, 6: 144, 9: 648, 15: 2880}
        for d in (3, 5, 6, 9, 15):
            count = sum(
                1
                for k in range(d)
                for l in range(d)
                for m in range(d)
                for n in range(d)
                if (k * n - l * m) % d == 1
            )
            assert count == d * jordan_j2(d) == expected[d]


def test_criterion_10_redundancy():
    with criterion(10, "redundancy is exactly 1/2 at d=15 and 0 at primes"):
        assert redundancy(15) == Fraction(1, 2)
        for p in (2, 3, 5, 7, 11, 13):
            assert redundancy(p) == Fraction(0)


def test_criterion_11_unbiasedness_does_not_chain():
    with criterion(11, "two flat pairs with a common basis need not be flat together"):
        s = build_wmub(crt_context(3, 5))
        witness = None
        for a in range(1, 25):
            for b in range(a + 1, 25):
                if classify_pair(s, a, b).category is not OverlapCategory.FULL:
                    continue
                for c in range(b + 1, 25):
                    if (
                        classify_pair(s, a, c).category is OverlapCategory.FULL
                        and classify_pair(s, b, c).category is not OverlapCategory.FULL
                    ):
                        witness = (a, b, c)
                        break
                if witness:
                    break
            if witness:
                break
        assert witness is not None


def test_criterion_12_exhaustive_small_scale():
    with criterion(12, "line counts for d <= 60 and CRT bijections for d <= 1000"):
        for d in range(2, 61):
            groups = lines_through_origin(d)
            for size, group in groups.items():
                assert d % size == 0
                assert len(group) == dedekind_psi(size)
            assert len(groups[d]) == dedekind_psi(d)
        primes = [p for p in range(3, 334) if is_prime(p)]
        pairs = [(p, q) for p in primes for q in primes if p < q and p * q <= 1000]
        assert len(pairs) > 40
        for d1, d2 in pairs:
            ctx = crt_context(d1, d2)
            for m in range(ctx.d):
                assert ctx.map1_join(*ctx.map1_split(m)) == m
                assert ctx.map2_join(*ctx.map2_split(m)) == m
            assert len({ctx.map1_split(m) for m in range(ctx.d)}) == ctx.d
            assert len({ctx.map2_split(m) for m in range(ctx.d)}) == ctx.d
