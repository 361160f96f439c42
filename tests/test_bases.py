from __future__ import annotations

import math
import re
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

import wmub.bases
import wmub.geometry
import wmub.hilbert
from wmub.bases import (
    FactorFamily,
    NotWeaklyUnbiased,
    OverlapCategory,
    build_wmub,
    classify_pair,
    conjugation_bound,
    duality_report,
    overlap_table,
    partition_bases,
    unitarity_bound,
    wmub_census,
)
from wmub.bases import _census, _factor_extrema, _match
from wmub.cli import main
from wmub.geometry import (
    classify_line_pair,
    line,
    maximal_line_catalog,
    pair_census,
    partition_lines,
    split_entries,
    sweep_value,
)
from wmub.hilbert import MAX_DIM, conjugation_defect, prime_mub, unitarity_defect
from wmub.zring import crt_context, dedekind_psi, is_prime

from dense import assembled_basis, dense_conjugation_defect, overlaps, symplectic_label_defect
from oracles import SymplecticMatrix, catalog_entries, intersection, line_pairs, matrix_factorize, partitions_hold

# Symplectic labels of the d = 15 set in index order; same data as the
# second column of tests/golden/bases_3_5.txt.
LABELS_15 = [
    (1, 0, 0, 1),
    (10, 12, 12, 10), (10, 12, 12, 4), (10, 12, 12, 13), (10, 12, 12, 7), (10, 12, 12, 1),
    (6, 5, 10, 6), (6, 5, 10, 11), (6, 5, 10, 1),
    (0, 2, 7, 0), (0, 2, 7, 9), (0, 2, 7, 3), (0, 2, 7, 12), (0, 2, 7, 6),
    (0, 2, 7, 5), (0, 2, 7, 14), (0, 2, 7, 8), (0, 2, 7, 2), (0, 2, 7, 11),
    (0, 2, 7, 10), (0, 2, 7, 4), (0, 2, 7, 13), (0, 2, 7, 7), (0, 2, 7, 1),
]

FACTOR_LABELS_15 = [
    (None, None),
    (None, 0), (None, 1), (None, 2), (None, 3), (None, 4),
    (0, None), (1, None), (2, None),
    (0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 0), (1, 1), (1, 2), (1, 3), (1, 4),
    (2, 0), (2, 1), (2, 2), (2, 3), (2, 4),
]

PARTITION_15 = [
    [1, 10, 16, 22],
    [2, 11, 17, 23],
    [3, 12, 18, 24],
    [4, 9, 13, 19],
    [5, 8, 14, 20],
    [6, 7, 15, 21],
]


def test_build_reference_data(catalog15, wmub15):
    assert len(wmub15) == 24
    assert list(map(tuple, wmub15.labels.tolist())) == LABELS_15
    assert [tuple(map(sweep_value, slots)) for slots in wmub15.slots.tolist()] == FACTOR_LABELS_15
    assert tuple(map(sweep_value, wmub15.slots[4 - 1].tolist())) == (None, 2)
    assert wmub15.labels[10 - 1].tolist() == [0, 2, 7, 0]
    assert np.array_equal(assembled_basis(wmub15, 1), np.eye(15))
    # The set reads its slots and labels from the catalog; nothing is copied.
    assert wmub15.slots is catalog15.components and wmub15.labels is catalog15.matrices


def test_build_other_dimensions(wmub_sets):
    for d, s in wmub_sets.items():
        assert len(s) == dedekind_psi(d)


def test_overlap_table_identity_pair(wmub15):
    table = overlap_table(wmub15, 1, 1)
    assert np.abs(table - np.eye(15)).max() < 1e-12


def test_overlap_table_symmetry(wmub15):
    for i, j in ((1, 2), (4, 17), (7, 24)):
        assert np.allclose(overlap_table(wmub15, i, j), overlap_table(wmub15, j, i).T)


def test_overlap_table_congruence_pattern(wmub15):
    table = overlap_table(wmub15, 1, 2)
    for n in range(15):
        for m in range(15):
            expected = 1 / math.sqrt(5) if n % 3 == m % 3 else 0.0
            assert table[n, m] == pytest.approx(expected, abs=1e-12)
    flat = overlap_table(wmub15, 1, 10)
    assert np.abs(flat - 1 / math.sqrt(15)).max() < 1e-12


def test_overlap_table_index_range(wmub15):
    with pytest.raises(IndexError):
        overlap_table(wmub15, 0, 5)
    with pytest.raises(IndexError):
        overlap_table(wmub15, 1, 25)


def pair_codes(s, i, j, tol=1e-9):
    """The category position of each 0-based pair (i[k], j[k]), -1 where no
    template fits: the template match of the census, which raises on a -1
    instead."""
    return _match(s, i, j, tol)[0]


def test_classify_pair_examples(wmub15):
    assert classify_pair(wmub15, 1, 7) is OverlapCategory.SUB_D1
    assert classify_pair(wmub15, 1, 2) is OverlapCategory.SUB_D2
    assert classify_pair(wmub15, 1, 10) is OverlapCategory.FULL
    with pytest.raises(ValueError):
        classify_pair(wmub15, 3, 3)
    with pytest.raises(IndexError):
        classify_pair(wmub15, 0, 5)
    with pytest.raises(IndexError):
        classify_pair(wmub15, 1, 25)


def test_pair_census_checks_its_indices(wmub15):
    # The one-pair entry points take indices from outside the program and
    # check them; a pair of one basis is refused, not reported as fitting no
    # template.  The pair passes hand `_census` 0-based pairs unchecked.
    categories = tuple(OverlapCategory)
    codes = _census(wmub15, np.array([0, 0]), np.array([1, 9]), 1e-9)
    assert [categories[code] for code in codes] == [OverlapCategory.SUB_D2, OverlapCategory.FULL]
    with pytest.raises(ValueError, match=r"^pair classification needs two distinct bases, got \(2, 2\)$"):
        classify_pair(wmub15, 2, 2)
    for call in (classify_pair, overlap_table):
        with pytest.raises(IndexError, match=r"^basis indices \(3, 25\) out of range 1..24$"):
            call(wmub15, 3, 25)
        with pytest.raises(IndexError, match=r"^basis indices \(0, 3\) out of range 1..24$"):
            call(wmub15, np.int64(0), 3)


def test_pair_indices_must_be_integers(wmub15):
    # Floats, bools and arrays are refused before numpy reads them as
    # indices (a bool would classify the pair (1, 2)).
    with pytest.raises(TypeError, match=r"^basis indices must be integers, got dtype float64$"):
        classify_pair(wmub15, 2, 1.5)
    with pytest.raises(TypeError, match=r"^basis indices must be integers, got dtype float64$"):
        classify_pair(wmub15, 1.5, 2)
    with pytest.raises(TypeError, match=r"^basis indices must be integers, got dtype bool$"):
        classify_pair(wmub15, True, 2)
    with pytest.raises(TypeError, match=r"^basis indices must be integers, got dtype bool$"):
        overlap_table(wmub15, 1, np.True_)
    with pytest.raises(TypeError, match=r"^basis indices must be scalars, got shape \(1,\)$"):
        classify_pair(wmub15, [1], [2])


def test_classify_pair_rejects_impossible_tolerance(wmub15):
    with pytest.raises(NotWeaklyUnbiased):
        classify_pair(wmub15, 1, 2, tol=0.0)


def test_census(wmub_sets):
    expected = {
        15: (36, 60, 180),
        21: (48, 112, 336),
        33: (72, 264, 792),
    }
    for d, s in wmub_sets.items():
        census = wmub_census(s)
        got = (
            census[OverlapCategory.SUB_D1],
            census[OverlapCategory.SUB_D2],
            census[OverlapCategory.FULL],
        )
        assert got == expected[d]
        psi = dedekind_psi(d)
        assert sum(census.values()) == psi * (psi - 1) // 2


def test_row_normalization(wmub15):
    for i, j in ((1, 2), (1, 7), (1, 10), (5, 18), (9, 22)):
        sq = overlap_table(wmub15, i, j) ** 2
        assert np.abs(sq.sum(axis=1) - 1).max() < 1e-10
        assert np.abs(sq.sum(axis=0) - 1).max() < 1e-10


def test_factor_structure(wmub15):
    # The d1**-0.5 class shares the second factor, the d2**-0.5 class the
    # first, and flat pairs share neither; distinct prime-dimension factors
    # are unbiased (acceptance criterion 7).
    def shared(i, j):
        (a1, a2), (b1, b2) = wmub15.slots[[i - 1, j - 1]].tolist()
        return a1 == b1, a2 == b2

    assert classify_pair(wmub15, 1, 7) is OverlapCategory.SUB_D1
    assert shared(1, 7) == (False, True)
    assert classify_pair(wmub15, 2, 3) is OverlapCategory.SUB_D2
    assert shared(2, 3) == (True, False)
    assert classify_pair(wmub15, 10, 16) is OverlapCategory.FULL
    assert shared(10, 16) == (False, False)
    expected = {
        (False, True): OverlapCategory.SUB_D1,
        (True, False): OverlapCategory.SUB_D2,
        (False, False): OverlapCategory.FULL,
    }
    for i in range(1, 25):
        for j in range(i + 1, 25):
            assert classify_pair(wmub15, i, j) is expected[shared(i, j)]


def test_factor_stacks_are_read_only(catalog15):
    # Each family keeps its certificates, and `factor_family` keeps the
    # family for the process, so an in-place write to a factor stack would
    # leave the gates reading certificates of another stack; it must raise
    # instead, also on a family made from a stack of the caller's.
    s = build_wmub(catalog15)
    [family.extrema for family in s.families]
    own = FactorFamily(s.families[0].stack.copy())
    for stack in (*(family.stack for family in s.families), own.stack):
        with pytest.raises(ValueError, match="read-only"):
            stack[2] = 0


def test_cached_arrays_are_read_only(catalog15):
    # `duality_report` reads the cached factor extrema and the catalog's
    # pair classes, `conjugation_bound` the row norms and residuals, and
    # `partitions_hold` the partition grid; a write into any of them must
    # raise.  A fresh set: the fixtures are shared.
    s = build_wmub(catalog15)
    duality_report(catalog15, s)
    certificates = (array for f in s.families for array in (f.extrema, f.row_norms, f.residuals))
    for array in (*certificates, catalog15.pair_classes, partition_lines(s.ctx), partition_bases(s)):
        with pytest.raises(ValueError, match="read-only"):
            array[:] = 1


def test_partition_reference_grid(wmub15):
    assert partition_bases(wmub15).tolist() == PARTITION_15


def test_partitions_hold_reads_both_pair_passes(catalog15, wmub15, monkeypatch):
    # Lines 1 and 10 share a set of the grid; one wrong class for that pair,
    # on either side, fails the check: the basis pair pass putting the pair
    # off the flat template, or the line pair pass saying the lines meet in
    # 5 points.
    assert partitions_hold(catalog15, wmub15, 1e-9)
    real_residuals, real_sizes = wmub.bases._residuals, wmub.bases._intersection_sizes

    def residuals(s, i, j):
        got = real_residuals(s, i, j)
        got[2, (i == 0) & (j == 9)] = 1.0
        return got

    def sizes(generators, keys, i, j, ctx):
        return np.where((i == 0) & (j == 9), 5, real_sizes(generators, keys, i, j, ctx))

    for name, patched in (("_residuals", residuals), ("_intersection_sizes", sizes)):
        with monkeypatch.context() as m:
            m.setattr(wmub.bases, name, patched)
            assert not partitions_hold(catalog15, wmub15, 1e-9), name


def test_partition_sets_are_mutually_unbiased(wmub_sets):
    for d, s in wmub_sets.items():
        sets = partition_bases(s)
        assert len(sets) == s.ctx.d2 + 1
        for group in sets:
            assert len(group) == s.ctx.d1 + 1
            for a_pos, i in enumerate(group):
                for j in group[a_pos + 1:]:
                    assert classify_pair(s, i, j) is OverlapCategory.FULL


def test_flat_pairs_do_not_chain(wmub15):
    # Being unbiased with a common partner does not make two bases unbiased
    # with each other.
    assert classify_pair(wmub15, 1, 10) is OverlapCategory.FULL
    assert classify_pair(wmub15, 1, 15) is OverlapCategory.FULL
    assert classify_pair(wmub15, 10, 15) is not OverlapCategory.FULL


def test_symplectic_label_conjugation(wmub_sets):
    for s in wmub_sets.values():
        worst = max(symplectic_label_defect(s, j) for j in range(1, len(s) + 1))
        assert worst < 1e-9


def test_duality_report(catalogs, wmub_sets):
    for d in (15, 21, 33):
        report = duality_report(catalogs[d], wmub_sets[d])
        psi = dedekind_psi(d)
        assert len(catalogs[d].pair_classes) == psi * (psi - 1) // 2
        assert sum(report.overlap_census.values()) == psi * (psi - 1) // 2
        d1, d2 = catalogs[d].ctx.d1, catalogs[d].ctx.d2
        line_census = pair_census(catalogs[d])
        assert line_census == {d2: d1 * psi // 2, d1: d2 * psi // 2, 1: d * psi // 2}
        assert report.overlap_census[OverlapCategory.SUB_D1] == d1 * psi // 2
        assert report.overlap_census[OverlapCategory.SUB_D2] == d2 * psi // 2
        assert report.overlap_census[OverlapCategory.FULL] == d * psi // 2


def generic_unitary(dim: int, seed: int = 2024) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def test_generic_basis_fits_no_template(wmub15):
    # A generic d x d unitary in place of basis 2 overlaps basis 1 in no
    # template; a WmubSet holds only factor families, and a generic factor
    # basis is caught by `classify_pair` (below) and by the conjugation
    # check (tests/test_cli.py).
    generic = generic_unitary(15)
    sq = np.abs(generic.conj().T @ assembled_basis(wmub15, 1)) ** 2
    assert dense_classify(sq, wmub15.ctx, 1e-9) is None
    assert dense_classify(overlap_table(wmub15, 1, 2) ** 2, wmub15.ctx, 1e-9) is not None


def test_generic_factor_basis_fits_no_template(wmub15):
    # Basis 2 is position (x) the first swept basis of the second factor.
    tampered = tampered_factor(wmub15, 1, 1, generic_unitary(5))
    with pytest.raises(NotWeaklyUnbiased, match=r"bases \(1, 2\) fit no overlap template"):
        classify_pair(tampered, 1, 2)
    assert classify_pair(tampered, 1, 3) == classify_pair(wmub15, 1, 3)


def test_pair_pass_names_the_first_unfit_pair(catalogs, wmub15):
    # The tampered family of the test above: every pair with basis 2 as one
    # side and a basis of another second factor fits no template, and (1, 2)
    # is the first of them in row-major order.
    tampered = tampered_factor(wmub15, 1, 1, generic_unitary(5))
    with pytest.raises(NotWeaklyUnbiased, match=r"^bases \(1, 2\) fit no overlap template"):
        duality_report(catalogs[15], tampered)
    with pytest.raises(NotWeaklyUnbiased, match=r"^bases \(1, 2\) fit no overlap template"):
        wmub_census(tampered)
    codes = pair_codes(tampered, np.array([0, 1, 0]), np.array([1, 2, 2]))
    assert codes[:2].tolist() == [-1, -1] and codes[2] >= 0


def test_unfit_pair_message_is_the_same_from_every_entry_point(catalogs, wmub15):
    # Basis 3 is position (x) the second swept basis of the second factor;
    # with a generic unitary there, (1, 3) is the first pair that fits no
    # template.  The message is pinned whole, from each entry point.
    tampered = tampered_factor(wmub15, 1, 2, generic_unitary(5, seed=7))
    message = "bases {} fit no overlap template within {} (flat-template residual 6.299e-01)"
    calls = [
        (lambda: classify_pair(tampered, 1, 3), message.format("(1, 3)", "1e-09")),
        (lambda: wmub_census(tampered), message.format("(1, 3)", "1e-09")),
        (lambda: duality_report(catalogs[15], tampered), message.format("(1, 3)", "1e-09")),
        (lambda: classify_pair(tampered, np.int64(3), 1), message.format("(3, 1)", "1e-09")),
        (lambda: wmub_census(tampered, 1e-3), message.format("(1, 3)", "0.001")),
    ]
    for call, expected in calls:
        with pytest.raises(NotWeaklyUnbiased, match=f"^{re.escape(expected)}$"):
            call()


def test_pair_pass_words_the_first_unfit_pair_without_classify_pair(catalogs, wmub15, monkeypatch):
    # The pass words its error from the templates of the first unfit pair,
    # in the words `classify_pair` uses for that pair, without calling it.
    tampered = tampered_factor(wmub15, 1, 1, generic_unitary(5))
    with pytest.raises(NotWeaklyUnbiased) as single:
        classify_pair(tampered, 1, 2)
    calls = []
    monkeypatch.setattr(wmub.bases, "classify_pair", lambda *args: calls.append(args))
    with pytest.raises(NotWeaklyUnbiased) as passed:
        duality_report(catalogs[15], tampered)
    assert calls == []
    assert str(passed.value) == str(single.value)


def test_off_support_weight_fits_no_template(wmub15):
    # A second-factor position "basis" with unit but non-orthogonal columns:
    # pair (1, 7) keeps the on-support values of the d1**-0.5 template
    # (diagonal 1 in the second factor) but carries weight off the support.
    skewed = np.eye(5, dtype=complex)
    skewed[:2, 0] = math.cos(0.5), math.sin(0.5)
    tampered = tampered_factor(wmub15, 1, 0, skewed)
    ctx = wmub15.ctx
    b1, b7 = assembled_basis(tampered, 1), assembled_basis(tampered, 7)
    sq = np.abs(b7.conj().T @ b1) ** 2
    for tol in (1e-9, 0.5 / ctx.d):
        assert dense_classify(sq, ctx, tol) is None
        assert pair_codes(tampered, np.array([0]), np.array([6]), tol).tolist() == [-1]
        with pytest.raises(NotWeaklyUnbiased, match=r"bases \(1, 7\)"):
            classify_pair(tampered, 1, 7, tol)


def test_duality_violation_on_index_drift(catalogs, wmub15):
    # Move basis 2 and basis 7 together with their labels: every basis keeps
    # its own slots and label but sits at the index of the other line.
    slots, labels = wmub15.slots.copy(), wmub15.labels.copy()
    for rows in (slots, labels):
        rows[[1, 6]] = rows[[6, 1]]
    drifted = replace(wmub15, slots=slots, labels=labels)
    report = duality_report(catalogs[15], drifted)
    assert re.match(r"pair \(1, 2\)", report.mismatch)
    # The pass still counts every pair; a permutation keeps the census.
    clean = duality_report(catalogs[15], wmub15)
    assert clean.mismatch is None
    assert report.overlap_census == clean.overlap_census


def test_duality_rejects_mismatched_context(catalogs, wmub_sets):
    with pytest.raises(ValueError):
        duality_report(catalogs[21], wmub_sets[15])


def test_duality_pairwise_dictionary(catalogs, wmub_sets):
    catalog, s = catalogs[15], wmub_sets[15]
    i, j, sizes = line_pairs(catalog)
    by_pair = dict(zip(zip(i.tolist(), j.tolist()), sizes.tolist()))
    assert by_pair[(1, 7)] == 5
    entries = catalog_entries(catalog)
    # Lines 1 and 7 share their second component line, so they meet in d2 points.
    assert classify_line_pair(entries[0].line, entries[6].line, s.ctx) == s.ctx.d2
    assert classify_pair(s, 1, 7) is OverlapCategory.SUB_D1
    expected = {
        s.ctx.d2: OverlapCategory.SUB_D1,
        s.ctx.d1: OverlapCategory.SUB_D2,
        1: OverlapCategory.FULL,
    }
    for (i, j), size in by_pair.items():
        assert classify_pair(s, i, j) is expected[size]


# ---------------------------------------------------------------------------
# dense oracle: the template check on the full d x d table
# ---------------------------------------------------------------------------

SUPPORTED_DIMS = [
    (d1, d2)
    for d1 in range(3, MAX_DIM)
    for d2 in range(d1 + 2, MAX_DIM // d1 + 1)
    if is_prime(d1) and is_prime(d2)
]


# A set keeps only its factor stacks, so every supported set is kept for
# the tests that follow.
@lru_cache(maxsize=None)
def supported_set(d1: int, d2: int):
    return build_wmub(maximal_line_catalog(crt_context(d1, d2)))


def dense_classify(sq: np.ndarray, ctx, tol: float):
    """Match the squared d x d overlap table entry by entry against the
    three templates.  Returns (category, mean on-support magnitude, number
    of entries above `tol`) for the first template it fits, None for none."""
    idx = np.arange(ctx.d)

    def congruent(modulus: int) -> np.ndarray:
        return (idx[:, None] % modulus) == (idx[None, :] % modulus)

    templates = (
        (OverlapCategory.FULL, np.ones_like(sq, dtype=bool), 1.0 / ctx.d),
        (OverlapCategory.SUB_D1, congruent(ctx.d2), 1.0 / ctx.d1),
        (OverlapCategory.SUB_D2, congruent(ctx.d1), 1.0 / ctx.d2),
    )
    for category, mask, value in templates:
        if (np.abs(sq[mask] - value) <= tol).all() and (sq[~mask] <= tol).all():
            return category, float(np.sqrt(sq[mask].mean())), int(np.count_nonzero(sq > tol))
    return None


def factored_classify(s, i: int, j: int, tol: float) -> OverlapCategory | None:
    try:
        return classify_pair(s, i, j, tol)
    except NotWeaklyUnbiased:
        return None


def assert_routes_agree(s, pairs, tols) -> None:
    # Both factored routes, one pair at a time and the array pass, against
    # the dense oracle.  Each basis is assembled once and its dense tables
    # formed from that cache; `overlap_table` is compared on the first pair.
    # A dense match also has the template's on-support magnitude and its
    # support: d^2, d*d1 or d*d2 entries above `tol`.
    ctx = s.ctx
    template = {
        OverlapCategory.FULL: (ctx.d ** -0.5, ctx.d * ctx.d),
        OverlapCategory.SUB_D1: (ctx.d1 ** -0.5, ctx.d * ctx.d1),
        OverlapCategory.SUB_D2: (ctx.d2 ** -0.5, ctx.d * ctx.d2),
    }
    first, second = (np.array(side) for side in zip(*pairs))
    codes = {tol: pair_codes(s, first - 1, second - 1, tol) for tol in tols}
    categories = tuple(OverlapCategory)
    bases = {j: assembled_basis(s, j) for j in {*first.tolist(), *second.tolist()}}
    i, j = pairs[0]
    assert np.abs(overlap_table(s, i, j) - overlaps(bases[j], bases[i])).max() <= 1e-15
    for k, (i, j) in enumerate(pairs):
        sq = overlaps(bases[j], bases[i]) ** 2
        for tol in tols:
            dense, factored = dense_classify(sq, ctx, tol), factored_classify(s, i, j, tol)
            assert (dense is None) == (factored is None), (ctx.d, i, j, tol)
            assert (dense is None) == (codes[tol][k] == -1), (ctx.d, i, j, tol)
            if dense is not None:
                category, value, support = dense
                assert factored is category, (ctx.d, i, j, tol)
                assert categories[codes[tol][k]] is category, (ctx.d, i, j, tol)
                assert support == template[category][1], (ctx.d, i, j, tol)
                assert value == pytest.approx(template[category][0], abs=1e-12)


def dims_id(dims: tuple[int, int]) -> str:
    return f"d={dims[0] * dims[1]}"


def test_supported_dims_listed():
    assert len(SUPPORTED_DIMS) == 16


@pytest.mark.parametrize("dims", [(3, 5), (3, 7), (3, 11), (5, 7)], ids=dims_id)
def test_factored_route_matches_dense_oracle_on_every_pair(dims):
    # At tolerance 0 every route agrees that no pair fits: the array pass
    # finds none, and both other routes agree with it pair by pair.
    s = supported_set(*dims)
    pairs = [(i, j) for i in range(1, len(s) + 1) for j in range(i + 1, len(s) + 1)]
    assert_routes_agree(s, pairs, (1e-15, 1e-9, 0.5 / s.ctx.d, 0.0))
    first, second = (np.array(side) for side in zip(*pairs))
    assert (pair_codes(s, first - 1, second - 1, 0.0) == -1).all()


@pytest.mark.parametrize("dims", SUPPORTED_DIMS, ids=dims_id)
def test_factored_route_matches_dense_oracle_at_every_supported_d(dims):
    # Pairs with basis 1 or basis psi cover all three categories.
    s = supported_set(*dims)
    last = len(s)
    pairs = [(1, j) for j in range(2, last + 1)] + [(i, last) for i in range(2, last)]
    assert_routes_agree(s, pairs, (1e-9,))
    categories = {classify_pair(s, i, j) for i, j in pairs}
    assert categories == set(OverlapCategory)


def per_pair_extrema(stack: np.ndarray) -> np.ndarray:
    """The fields of `_factor_extrema`, [field, j, i], from one `overlaps`
    table per pair (j, i), reduced as the template test reads them."""
    diagonal = np.eye(stack.shape[-1], dtype=bool)
    fields = np.zeros((5, len(stack), len(stack)))
    for j, bj in enumerate(stack):
        for i, bi in enumerate(stack):
            sq = overlaps(bj, bi) ** 2
            diag = np.diagonal(sq)
            fields[:, j, i] = (sq.max(), sq.min(), diag.max(), diag.min(), sq[~diagonal].max())
    return fields


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_factor_extrema_match_a_per_pair_overlaps_loop(p):
    # The prime-dimension family, and a family of generic unitaries, whose
    # tables are far from the templates.
    generic = np.stack([generic_unitary(p, seed) for seed in range(4)])
    for stack in (prime_mub(p), generic):
        got, want = _factor_extrema(stack), per_pair_extrema(stack)
        assert got.shape == want.shape == (5, len(stack), len(stack))
        assert np.abs(got - want).max() <= 1e-14, p


@pytest.mark.parametrize("dims", SUPPORTED_DIMS, ids=dims_id)
def test_mirrored_extrema_classify_every_pair_as_the_full_tables_do(dims, monkeypatch):
    # `_factor_extrema` forms the tables j <= i and mirrors them; a set of
    # fresh families whose extrema come from one table per ordered pair must
    # give every ordered pair the same code, also at tolerances a few ulps wide.
    s = supported_set(*dims)
    for family in s.families:
        for field in family.extrema:
            assert np.array_equal(field, field.T)
    monkeypatch.setattr(wmub.bases, "_factor_extrema", per_pair_extrema)
    full = replace(s, families=tuple(FactorFamily(family.stack) for family in s.families))
    i, j = np.nonzero(~np.eye(len(s), dtype=bool))
    for tol in (1e-15, 2e-15, 3e-15, 1e-9):
        got, want = pair_codes(s, i, j, tol), pair_codes(full, i, j, tol)
        assert np.array_equal(got, want), (s.ctx.d, tol)


def three_template_match(s, i, j, tol):
    """The three-template first-fit rule, kept as the oracle of `_match`: all
    three templates on every 0-based pair, and the category position of the
    first one each pair fits (FULL, then SUB_D1, then SUB_D2), -1 for none;
    with the flat template's residual, the larger of its top's excess and
    its bottom's shortfall."""
    (max1, min1, dmax1, dmin1, off1), (max2, min2, dmax2, dmin2, off2) = (
        family.extrema[:, s.slots[j, f], s.slots[i, f]] for f, family in enumerate(s.families)
    )
    ctx = s.ctx
    templates = (
        (2, max1 * max2, min1 * min2, 0.0, 1.0 / ctx.d),
        (0, max1 * dmax2, min1 * dmin2, max1 * off2, 1.0 / ctx.d1),
        (1, dmax1 * max2, dmin1 * min2, off1 * max2, 1.0 / ctx.d2),
    )
    fits = [
        (top - value <= tol) & (value - bottom <= tol) & (off_top <= tol)
        for _, top, bottom, off_top, value in templates
    ]
    codes = np.select(fits, [code for code, *_ in templates], default=-1)
    _, top, bottom, _, value = templates[0]
    return codes, np.maximum(top - value, value - bottom)


def tampered_15(case: str, s):
    """The d = 15 set with one factor basis tampered: a generic unitary in the
    second factor, a NaN entry, or a mix of two bases in the first factor."""
    if case == "generic":
        return tampered_factor(s, 1, 2, generic_unitary(5, seed=7))
    first = s.families[0].stack
    if case == "nan":
        broken = first[2].copy()
        broken[0, 0] = math.nan
        return tampered_factor(s, 0, 2, broken)
    # P + e^{it} (1 - P), P the projector on the all-ones vector, cos t = -1/4:
    # the squared table of first-factor slots 0 and 1 is 4/9 on the diagonal
    # and 5/18 off it, so at tolerance 0.3 the pairs with those slots and one
    # second-factor slot fit both congruence templates, not the flat one.
    projector = np.full((3, 3), 1 / 3)
    mixed = projector + np.exp(1j * math.acos(-0.25)) * (np.eye(3) - projector)
    return tampered_factor(s, 0, 1, first[0] @ mixed)


@pytest.mark.parametrize(
    "case",
    [*SUPPORTED_DIMS, "generic", "nan", "mixed"],
    ids=lambda c: c if isinstance(c, str) else dims_id(c),
)
def test_flat_first_pass_equals_the_three_template_rule(case, wmub15):
    # At 0.3 the templates overlap, so the order of the first fit matters;
    # the generic and NaN sets have pairs that fit none.
    s = tampered_15(case, wmub15) if isinstance(case, str) else supported_set(*case)
    i, j = np.nonzero(~np.eye(len(s), dtype=bool))
    for tol in (-1e-9, 0.0, 1e-15, 1e-9, 1e-3, 0.5 / s.ctx.d, 0.3):
        codes, flat = _match(s, i, j, tol)
        want_codes, want_flat = three_template_match(s, i, j, tol)
        assert codes.dtype == want_codes.dtype and np.array_equal(codes, want_codes), (s.ctx.d, tol)
        assert np.array_equal(flat, want_flat, equal_nan=True), (s.ctx.d, tol)


@pytest.mark.parametrize("dims", [(3, 5), (5, 7), (5, 19)], ids=dims_id)
def test_residuals_equal_the_nine_product_formula(dims):
    # `_residuals` forms each template's products in its own iteration; the
    # residuals of every pair are bit for bit those of the formula that
    # forms all nine products first.
    s = supported_set(*dims)
    i, j = np.triu_indices(len(s), k=1)
    (max1, min1, dmax1, dmin1, off1), (max2, min2, dmax2, dmin2, off2) = (
        family.extrema[:, s.slots[j, f], s.slots[i, f]] for f, family in enumerate(s.families)
    )
    want = np.empty((3, len(i)))
    for code, top, bottom, off_top, value in (
        (0, max1 * dmax2, min1 * dmin2, max1 * off2, 1.0 / s.ctx.d1),
        (1, dmax1 * max2, dmin1 * min2, off1 * max2, 1.0 / s.ctx.d2),
        (2, max1 * max2, min1 * min2, None, 1.0 / s.ctx.d),
    ):
        np.maximum(top - value, value - bottom, out=want[code])
        if off_top is not None:
            np.maximum(want[code], off_top, out=want[code])
    assert np.array_equal(wmub.bases._residuals(s, i, j), want)


def test_library_entry_points_reject_a_tolerance_outside_the_gap(catalog15, wmub15):
    # At d = 15, 1/(2d) = 1/30: below 0 a correct set fits no template, and
    # above it the templates overlap; nan is refused too.  The bounds pass.
    ceiling = 0.5 / 15
    entry_points = (
        lambda tol: classify_pair(wmub15, 1, 2, tol),
        lambda tol: wmub_census(wmub15, tol),
        lambda tol: duality_report(catalog15, wmub15, tol),
        lambda tol: partitions_hold(catalog15, wmub15, tol),
    )
    for tol in (-1e-9, 0.3, math.nan, math.nextafter(ceiling, 1.0)):
        message = f"tolerance must lie in [0, 1/(2d)] = [0, 0.03333] at d=15, got {tol:g}"
        for call in entry_points:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
                call(tol)
            assert type(err.value) is ValueError
    assert classify_pair(wmub15, 1, 2, ceiling) is OverlapCategory.SUB_D2
    assert wmub_census(wmub15, ceiling) == duality_report(catalog15, wmub15, ceiling).overlap_census
    assert partitions_hold(catalog15, wmub15, ceiling)


def with_classes(catalog, changed: dict):
    """A copy of the catalog whose cached pair classes differ at the given
    row-major positions."""
    lines = replace(catalog)
    classes = catalog.pair_classes.copy()
    for at, value in changed.items():
        classes[at] = value
    classes.setflags(write=False)
    lines.__dict__["pair_classes"] = classes
    return lines


def block_results(dims):
    """Every result of the two pair passes on a fresh catalog and set, and the
    duality mismatch of a copy with two wrong line classes."""
    catalog = maximal_line_catalog(crt_context(*dims))
    s = build_wmub(catalog)
    report = duality_report(catalog, s)
    n = len(catalog) * (len(catalog) - 1) // 2
    wrong = with_classes(catalog, {k: (catalog.pair_classes[k] + 1) % 3 for k in (n // 3, n - 1)})
    return (
        catalog.pair_classes.tolist(), pair_census(catalog), wmub_census(s),
        report.overlap_census, report.mismatch, duality_report(wrong, s).mismatch,
        partitions_hold(catalog, s, 1e-9),
    )


@pytest.mark.parametrize("block", [1, 512])
@pytest.mark.parametrize("dims", [(3, 5), (3, 31)], ids=dims_id)
def test_pair_blocks_leave_every_result_unchanged(dims, block, monkeypatch):
    # d = 93 has 8128 pairs, the most of any supported d, and a block of 512
    # pairs holds 4 of its rows; a block of one pair holds one row.
    whole = block_results(dims)
    assert len(list(wmub.geometry._pair_blocks((dims[0] + 1) * (dims[1] + 1)))) == 1
    monkeypatch.setattr(wmub.geometry, "_PAIR_BLOCK", block)
    assert block_results(dims) == whole
    assert whole[4] is None and whole[5] is not None


def block_of(pair: tuple[int, int], n: int) -> int:
    """The block of `_pair_blocks(n)` that holds the 1-based pair."""
    for b, (_, i, j) in enumerate(wmub.geometry._pair_blocks(n)):
        if ((i + 1 == pair[0]) & (j + 1 == pair[1])).any():
            return b


def test_first_mismatch_is_named_across_blocks(monkeypatch):
    # Two wrong line classes in different later blocks of 512 pairs: the
    # report names the first in row-major order, not the last block's.
    catalog = maximal_line_catalog(crt_context(3, 31))
    s = build_wmub(catalog)
    i, j, _ = line_pairs(catalog)
    first, later = 3000, 7000
    wrong = with_classes(catalog, {k: (catalog.pair_classes[k] + 1) % 3 for k in (first, later)})
    monkeypatch.setattr(wmub.geometry, "_PAIR_BLOCK", 512)
    blocks = [block_of((i[k], j[k]), len(catalog)) for k in (first, later)]
    assert 0 < blocks[0] < blocks[1]
    assert re.match(rf"pair \({i[first]}, {j[first]}\): ", duality_report(wrong, s).mismatch)


@pytest.mark.parametrize("block", [None, 1, 512])
def test_first_disagreeing_line_pair_raises_across_blocks(block, monkeypatch):
    # Line 71, components (2, 5), claims the first component of line 98,
    # (3, 1).  Lines 34 to 36 and 67 to 97 carry component 2 or 3 first, so
    # the first disagreeing pair is (34, 71), predicted 1 point and meeting
    # in 3; later pairs such as (35, 71) and (71, 98) read 3 against 1.
    ctx = crt_context(3, 31)
    catalog = maximal_line_catalog(ctx)
    assert catalog.components[[70, 97]].tolist() == [[2, 5], [3, 1]]
    real = wmub.geometry.factor_keys

    def claimed(generators, ctx):
        keys = real(generators, ctx).copy()
        keys[71 - 1, 0] = keys[98 - 1, 0]
        return keys

    # The disagreeing pairs, from the component rule on the claimed keys
    # against the intersection sizes of the real catalog.
    i, j, sizes = line_pairs(catalog)
    keys = claimed(catalog.generators, ctx)
    predicted = np.where(keys[i - 1, 1] == keys[j - 1, 1], 31, np.where(keys[i - 1, 0] == keys[j - 1, 0], 3, 1))
    bad = np.flatnonzero(predicted != sizes)
    assert (i[bad[0]], j[bad[0]], predicted[bad[0]], sizes[bad[0]]) == (34, 71, 1, 3)
    assert {(a, b) for a, b in zip(i[bad], j[bad])} >= {(35, 71), (71, 98)}
    if block is not None:
        monkeypatch.setattr(wmub.geometry, "_PAIR_BLOCK", block)
        assert block_of((34, 71), len(catalog)) > 0
    monkeypatch.setattr(wmub.geometry, "factor_keys", claimed)
    with pytest.raises(RuntimeError, match=r"^component rule predicts 1 common points, determinant gives 3$"):
        maximal_line_catalog(ctx).pair_classes


@pytest.mark.parametrize("block", [None, 1, 512])
def test_first_unfit_basis_pair_raises_across_blocks(block, monkeypatch):
    # First-factor slot 3 holds a copy of slot 2, so bases whose first slots
    # are 2 and 3 and whose second slots agree overlap in an identity table:
    # the first such pair is (34, 35), slots (2, 0) and (3, 0).
    catalog = maximal_line_catalog(crt_context(3, 31))
    s = build_wmub(catalog)
    tampered = tampered_factor(s, 0, 3, s.families[0].stack[2])
    assert s.slots[[33, 34]].tolist() == [[2, 0], [3, 0]]
    if block is not None:
        monkeypatch.setattr(wmub.geometry, "_PAIR_BLOCK", block)
        assert block_of((34, 35), len(s)) > 0
    for call in (lambda: wmub_census(tampered), lambda: duality_report(catalog, tampered)):
        with pytest.raises(NotWeaklyUnbiased, match=r"^bases \(34, 35\) fit no overlap template within 1e-09 "):
            call()


@pytest.mark.parametrize("block", [1, 10 * 7 * 7])
def test_factor_extrema_blocks_leave_the_fields_unchanged(block, monkeypatch):
    # At p = 7 the default block holds all 36 tables.  A block of one float
    # holds one row, and one of 10 tables splits the rows 8 | 7 | 6 | 5+4 |
    # 3+2+1; both must give the fields bit for bit.
    stack = prime_mub(7)
    whole = _factor_extrema(stack)
    monkeypatch.setattr(wmub.bases, "_BLOCK_FLOATS", block)
    assert np.array_equal(_factor_extrema(stack), whole)


def test_factor_extrema_peak_memory_stays_near_one_row():
    # At p = 61 one row of 62 tables is 3.7 MB of products and 1.8 MB of
    # magnitudes; the whole triangle would be 58 MB of magnitudes.
    stack = prime_mub(61)
    tracemalloc.start()
    try:
        _factor_extrema(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# Above the `verify` cap of d = 105 the factored route is the only census
# route.  The factor tables at p = 101 take about 1.3 s and the dense route
# about 9 ms a pair at d = 303; d = 1067 stays out, at 0.24 s a pair.
LARGE_DIMS = [(3, 37), (11, 13), (7, 31), (17, 19), (3, 101)]
# Fixed before any result was read.
LARGE_SEED = 20120304


@pytest.mark.parametrize("dims", LARGE_DIMS, ids=dims_id)
def test_sampled_pairs_above_the_cap_match_the_dense_and_point_set_oracles(dims):
    # About 8 pairs per shared-slot stratum: the same first factor slot
    # (d2^{-1/2}, lines meeting in d1 points), the same second factor slot
    # (d1^{-1/2}, d2 points), or neither (flat, 1 point).
    catalog = maximal_line_catalog(crt_context(*dims))
    s = build_wmub(catalog)
    ctx, psi = s.ctx, len(s)
    rng = np.random.default_rng(LARGE_SEED + ctx.d)
    strata = {
        (True, False): (OverlapCategory.SUB_D2, ctx.d1),
        (False, True): (OverlapCategory.SUB_D1, ctx.d2),
        (False, False): (OverlapCategory.FULL, 1),
    }
    pairs, wanted = [], []
    for (first, second), want in strata.items():
        for a in rng.choice(psi, size=8, replace=False):
            same = s.slots == s.slots[a]
            partners = np.flatnonzero((same[:, 0] == first) & (same[:, 1] == second))
            b = rng.choice(partners)
            pairs.append((min(a, b) + 1, max(a, b) + 1))
            wanted.append(want)
    i, j = (np.array(side) for side in zip(*pairs))
    codes = pair_codes(s, i - 1, j - 1, 1e-9)
    # Row-major position of (i, j), i < j, in the catalog's pair pass.
    at = (i - 1) * psi - (i - 1) * i // 2 + (j - i - 1)
    sizes = np.array([ctx.d2, ctx.d1, 1])[catalog.pair_classes[at]]
    categories = tuple(OverlapCategory)
    for k, ((a, b), (category, size)) in enumerate(zip(pairs, wanted)):
        sq = overlaps(assembled_basis(s, b), assembled_basis(s, a)) ** 2
        dense = dense_classify(sq, ctx, 1e-9)
        assert dense is not None and dense[0] is category, (ctx.d, a, b)
        assert categories[codes[k]] is category, (ctx.d, a, b)
        lines = (line(ctx.d, *catalog.generators[n - 1].tolist()) for n in (a, b))
        assert sizes[k] == len(intersection(*lines)) == size, (ctx.d, a, b)


@pytest.mark.parametrize("dims", LARGE_DIMS, ids=dims_id)
def test_dense_residuals_above_the_cap_stay_under_the_bounds(dims, monkeypatch):
    # Three bases per d, drawn from a seed fixed before any result was read.
    # The dense routes check d against the Hilbert cap of `verify`, which
    # this test alone lifts to d.
    s = build_wmub(maximal_line_catalog(crt_context(*dims)))
    monkeypatch.setattr(wmub.hilbert, "MAX_DIM", s.ctx.d)
    rng = np.random.default_rng(12030861 + s.ctx.d)
    assert_bounds_hold(s, (rng.choice(len(s), size=3, replace=False) + 1).tolist())


@pytest.mark.parametrize("dims", SUPPORTED_DIMS, ids=dims_id)
def test_wmub_table_matches_the_set_built_from_the_catalog(dims, capsys):
    # The `wmub` table renders the labels and factors from the layout and
    # the sweep table; the set reads its labels and slots from the catalog.
    s = supported_set(*dims)
    assert main(["wmub", "--d1", str(dims[0]), "--d2", str(dims[1])]) == 0
    labels, slots = [], []
    for j, text in enumerate(capsys.readouterr().out.splitlines(), start=1):
        index, label, *factors = text.split(" | ")
        assert index == f"B_{j}"
        entries = re.fullmatch(r"X\((\d+),(\d+)\|(\d+),(\d+)\)", label).groups()
        labels.append([int(entry) for entry in entries])
        row = []
        for n, token in enumerate(factors, start=1):
            # X<n> is the position basis; X<n>(0,1|-1,-lam) the basis swept by lam.
            minus_lam = re.fullmatch(rf"X{n}(?:\(0,1\|-1,(-?\d+)\))?", token).group(1)
            row.append(0 if minus_lam is None else 1 - int(minus_lam))
        slots.append(row)
    assert labels == s.labels.tolist()
    assert slots == s.slots.tolist()


@pytest.mark.parametrize("dims", SUPPORTED_DIMS, ids=dims_id)
def test_label_split_matches_matrix_factorize(dims):
    # The array pass of `conjugation_bound` against the per-matrix route.
    s = supported_set(*dims)
    ctx = s.ctx
    comp1, comp2 = split_entries(s.labels.T, ctx)
    for j, label in enumerate(s.labels.tolist()):
        g1, g2 = matrix_factorize(SymplecticMatrix(ctx.d, *label), ctx)
        assert tuple(int(entry[j]) for entry in comp1) == g1.entries, (ctx.d, j)
        assert tuple(int(entry[j]) for entry in comp2) == g2.entries, (ctx.d, j)


# ---------------------------------------------------------------------------
# factored unitarity and conjugation bounds against the dense residuals
# ---------------------------------------------------------------------------

# The dense residuals sum d terms per entry where the factor residuals sum
# d1 or d2, so on exact bases they may exceed the bounds by rounding alone
# (by about 1e-15 at the supported d).
BOUND_SLACK = 1e-13


def tampered_factor(s, factor: int, slot: int, matrix: np.ndarray):
    """The set with factor basis `slot` of factor `factor` replaced by
    `matrix`, in a family of its own, certified afresh."""
    families = list(s.families)
    stack = families[factor].stack.copy()
    stack[slot] = matrix
    families[factor] = FactorFamily(stack)
    return replace(s, families=tuple(families))


def assert_bounds_hold(s, indices) -> None:
    # Each dense residual of the assembled bases, both conjugation routes.
    unitarity, conjugation = unitarity_bound(s), conjugation_bound(s)
    d = s.ctx.d
    for j in indices:
        u, label = assembled_basis(s, j), s.labels[j - 1]
        assert unitarity_defect(u) <= unitarity + BOUND_SLACK, (d, j)
        assert conjugation_defect(d, u, label) <= conjugation + BOUND_SLACK, (d, j)
        assert dense_conjugation_defect(d, u, label) <= conjugation + BOUND_SLACK, (d, j)


def using_slot(s, factor: int, slot: int) -> list[int]:
    """Indices of the bases whose factor `factor` is factor basis `slot`."""
    return [j + 1 for j in np.flatnonzero(s.slots[:, factor] == slot)]


@pytest.mark.parametrize("dims", SUPPORTED_DIMS, ids=dims_id)
def test_factored_bounds_hold_over_dense_residuals(dims):
    s = supported_set(*dims)
    assert unitarity_bound(s) < 1e-13 and conjugation_bound(s) < 1e-13
    assert_bounds_hold(s, range(1, len(s) + 1))


@pytest.mark.parametrize("dims", SUPPORTED_DIMS, ids=dims_id)
def test_factored_bounds_hold_under_small_factor_faults(dims):
    # Faults far above rounding, so the bounds are tested, not the slack:
    # small column phases on every factor basis, and every factor basis
    # scaled by 1.1, which makes the term e1*e2 of the unitarity bound tight.
    s = supported_set(*dims)
    rng = np.random.default_rng(s.ctx.d)
    phased, scaled = s, s
    for factor, family in enumerate(s.families):
        stack = family.stack
        dim = stack.shape[-1]
        for slot, b in enumerate(stack):
            phases = np.exp(1e-6j * (np.arange(dim) + rng.random(dim)))
            phased = tampered_factor(phased, factor, slot, b * phases)
            scaled = tampered_factor(scaled, factor, slot, 1.1 * b)
    assert conjugation_bound(phased) > 1e-8
    assert unitarity_bound(scaled) > 0.4
    indices = range(1, len(s) + 1, max(1, len(s) // 24))
    assert_bounds_hold(phased, indices)
    # The dense conjugation route bounds nothing for a non-unitary basis.
    for j in indices:
        assert unitarity_defect(assembled_basis(scaled, j)) <= unitarity_bound(scaled) + BOUND_SLACK


@pytest.mark.parametrize("dims", SUPPORTED_DIMS, ids=dims_id)
def test_factored_conjugation_rejects_factor_faults(dims):
    # Each fault in one factor basis lands above 1/(2d), the largest
    # tolerance `verify` admits, and still bounds the dense residuals of the
    # bases it touches.  Under random column phases those exceed
    # r1*c2 + c1*r2 at every d: the powers q_i in `conjugation_bound` are
    # needed.  A basis given its neighbour's label gets no bound: the label
    # does not split into the labels of its factor slots, which is named.
    s = supported_set(*dims)
    ceiling = 0.5 / s.ctx.d
    rng = np.random.default_rng(s.ctx.d)
    assert conjugation_bound(s) <= ceiling
    for factor, family in enumerate(s.families):
        u = family.stack[1]
        dim = len(u)
        faults = {
            "swapped columns": u[:, [1, 0, *range(2, dim)]],
            "column phases": u * np.exp(2j * np.pi * rng.random(dim)),
            "generic unitary": generic_unitary(dim, seed=s.ctx.d),
        }
        for name, matrix in faults.items():
            tampered = tampered_factor(s, factor, 1, matrix)
            assert conjugation_bound(tampered) > ceiling, (s.ctx.d, factor, name)
            assert_bounds_hold(tampered, using_slot(s, factor, 1)[:3])
    labels = s.labels.copy()
    for j in (2, len(s) - 1):
        labels[j - 1] = s.labels[j]
    k, l, m, n = s.labels[2].tolist()
    message = f"B_2 label X({k},{l}|{m},{n}) does not split into its factor slots' labels"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        conjugation_bound(replace(s, labels=labels))


@pytest.mark.parametrize("dims", [(3, 5), (5, 7), (7, 13)], ids=dims_id)
def test_conjugation_bound_keeps_distinct_labels_of_one_slot_apart(dims):
    # The last basis takes the label of an earlier basis with the same
    # second factor slot, so its second component label stays right and
    # its first is wrong.  An earlier basis shares its first factor slot
    # with the right component label; each component label is checked
    # against its own slot, so the last basis is named.
    s = supported_set(*dims)
    last = len(s)
    slot1, slot2 = s.slots[last - 1]
    donor = 1 + int(np.flatnonzero((s.slots[:, 1] == slot2) & (s.slots[:, 0] != slot1))[0])
    assert using_slot(s, 0, slot1)[0] < last
    labels = s.labels.copy()
    labels[last - 1] = s.labels[donor - 1]
    k, l, m, n = labels[last - 1].tolist()
    message = f"B_{last} label X({k},{l}|{m},{n}) does not split into its factor slots' labels"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        conjugation_bound(replace(s, labels=labels))
