from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from wmub.bases import (
    DualityViolation,
    NotWeaklyUnbiased,
    OverlapCategory,
    OverlapClass,
    build_wmub,
    classify_pair,
    conjugation_bound,
    duality_report,
    overlap_table,
    pair_categories,
    partition_bases,
    unitarity_bound,
    wmub_census,
)
from wmub.bases import _factor_extrema
from wmub.geometry import SharedComponent, classify_line_pair, split_entries
from wmub.hilbert import MAX_DIM, conjugation_defect, prime_mub, unitarity_defect
from wmub.zring import crt_context, dedekind_psi, is_prime

from dense import assembled_basis, dense_conjugation_defect, overlaps, symplectic_label_defect
from oracles import SymplecticMatrix, catalog_entries, matrix_factorize

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
    (1, 10, 16, 22),
    (2, 11, 17, 23),
    (3, 12, 18, 24),
    (4, 9, 13, 19),
    (5, 8, 14, 20),
    (6, 7, 15, 21),
]


def test_build_reference_data(wmub15):
    assert len(wmub15) == 24
    assert list(wmub15.symplectic_labels) == LABELS_15
    assert list(wmub15.factor_labels) == FACTOR_LABELS_15
    assert wmub15.factor_label(4) == (None, 2)
    assert wmub15.symplectic_label(10) == (0, 2, 7, 0)
    assert np.array_equal(assembled_basis(wmub15, 1), np.eye(15))


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


def test_classify_pair_examples(wmub15):
    got = classify_pair(wmub15, 1, 7)
    assert got.category is OverlapCategory.SUB_D1
    assert got.value == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    assert got.support_count == 45
    got = classify_pair(wmub15, 1, 2)
    assert got.category is OverlapCategory.SUB_D2
    assert got.value == pytest.approx(1 / math.sqrt(5), abs=1e-12)
    assert got.support_count == 75
    got = classify_pair(wmub15, 1, 10)
    assert got.category is OverlapCategory.FULL
    assert got.value == pytest.approx(1 / math.sqrt(15), abs=1e-12)
    assert got.support_count == 225
    with pytest.raises(ValueError):
        classify_pair(wmub15, 3, 3)
    with pytest.raises(IndexError):
        classify_pair(wmub15, 0, 5)
    with pytest.raises(IndexError):
        classify_pair(wmub15, 1, 25)
    with pytest.raises(IndexError):
        pair_categories(wmub15, np.array([1, 0]), np.array([2, 5]))
    with pytest.raises(IndexError):
        pair_categories(wmub15, np.array([1]), np.array([25]))


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
        (a1, a2), (b1, b2) = wmub15.factor_label(i), wmub15.factor_label(j)
        return a1 == b1, a2 == b2

    assert classify_pair(wmub15, 1, 7).category is OverlapCategory.SUB_D1
    assert shared(1, 7) == (False, True)
    assert classify_pair(wmub15, 2, 3).category is OverlapCategory.SUB_D2
    assert shared(2, 3) == (True, False)
    assert classify_pair(wmub15, 10, 16).category is OverlapCategory.FULL
    assert shared(10, 16) == (False, False)
    expected = {
        (False, True): OverlapCategory.SUB_D1,
        (True, False): OverlapCategory.SUB_D2,
        (False, False): OverlapCategory.FULL,
    }
    for i in range(1, 25):
        for j in range(i + 1, 25):
            assert classify_pair(wmub15, i, j).category is expected[shared(i, j)]


def test_partition_reference_grid(wmub15):
    assert partition_bases(wmub15) == PARTITION_15


def test_partition_sets_are_mutually_unbiased(wmub_sets):
    for d, s in wmub_sets.items():
        sets = partition_bases(s)
        assert len(sets) == s.ctx.d2 + 1
        for group in sets:
            assert len(group) == s.ctx.d1 + 1
            for a_pos, i in enumerate(group):
                for j in group[a_pos + 1:]:
                    assert classify_pair(s, i, j).category is OverlapCategory.FULL


def test_flat_pairs_do_not_chain(wmub15):
    # Being unbiased with a common partner does not make two bases unbiased
    # with each other.
    assert classify_pair(wmub15, 1, 10).category is OverlapCategory.FULL
    assert classify_pair(wmub15, 1, 15).category is OverlapCategory.FULL
    assert classify_pair(wmub15, 10, 15).category is not OverlapCategory.FULL


def test_symplectic_label_conjugation(wmub_sets):
    for s in wmub_sets.values():
        worst = max(symplectic_label_defect(s, j) for j in range(1, len(s) + 1))
        assert worst < 1e-9


def test_duality_report(catalogs, wmub_sets):
    for d in (15, 21, 33):
        report = duality_report(catalogs[d], wmub_sets[d])
        psi = dedekind_psi(d)
        assert len(catalogs[d].pair_classes.size) == psi * (psi - 1) // 2
        assert sum(report.overlap_census.values()) == psi * (psi - 1) // 2
        d1, d2 = report.ctx.d1, report.ctx.d2
        assert report.line_census == {d2: d1 * psi // 2, d1: d2 * psi // 2, 1: d * psi // 2}
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
    codes = pair_categories(tampered, np.array([1, 2, 1]), np.array([2, 3, 3]))
    assert codes[:2].tolist() == [-1, -1] and codes[2] >= 0


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
        assert pair_categories(tampered, np.array([1]), np.array([7]), tol).tolist() == [-1]
        with pytest.raises(NotWeaklyUnbiased, match=r"bases \(1, 7\)"):
            classify_pair(tampered, 1, 7, tol)


def test_duality_violation_on_index_drift(catalogs, wmub15):
    # Move basis 2 and basis 7 together with their labels: every basis keeps
    # its own labels but sits at the index of the other line.
    def swapped(values):
        values = list(values)
        values[1], values[6] = values[6], values[1]
        return tuple(values)

    drifted = replace(
        wmub15,
        factor_labels=swapped(wmub15.factor_labels),
        symplectic_labels=swapped(wmub15.symplectic_labels),
    )
    with pytest.raises(DualityViolation, match=r"pair \(1, 2\)") as raised:
        duality_report(catalogs[15], drifted)
    # The pass still counts every pair; a permutation keeps the census.
    assert raised.value.overlap_census == duality_report(catalogs[15], wmub15).overlap_census


def test_duality_rejects_mismatched_context(catalogs, wmub_sets):
    with pytest.raises(ValueError):
        duality_report(catalogs[21], wmub_sets[15])


def test_duality_pairwise_dictionary(catalogs, wmub_sets):
    catalog, s = catalogs[15], wmub_sets[15]
    pairs = catalog.pair_classes
    by_pair = dict(zip(zip(pairs.i.tolist(), pairs.j.tolist()), pairs.size.tolist()))
    assert by_pair[(1, 7)] == 5
    entries = catalog_entries(catalog)
    lc = classify_line_pair(entries[0].line, entries[6].line, s.ctx)
    assert lc.shared_component is SharedComponent.SECOND
    assert classify_pair(s, 1, 7).category is OverlapCategory.SUB_D1
    expected = {
        s.ctx.d2: OverlapCategory.SUB_D1,
        s.ctx.d1: OverlapCategory.SUB_D2,
        1: OverlapCategory.FULL,
    }
    for (i, j), size in by_pair.items():
        assert classify_pair(s, i, j).category is expected[size]


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
    return build_wmub(crt_context(d1, d2))


def dense_classify(sq: np.ndarray, ctx, tol: float) -> OverlapClass | None:
    """Match the squared d x d overlap table entry by entry against the
    three templates; None when it fits none."""
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
            return OverlapClass(
                category, float(np.sqrt(sq[mask].mean())), int(np.count_nonzero(sq > tol))
            )
    return None


def factored_classify(s, i: int, j: int, tol: float) -> OverlapClass | None:
    try:
        return classify_pair(s, i, j, tol)
    except NotWeaklyUnbiased:
        return None


def assert_routes_agree(s, pairs, tols) -> None:
    # Both factored routes, one pair at a time and the array pass, against
    # the dense oracle.
    first, second = (np.array(side) for side in zip(*pairs))
    codes = {tol: pair_categories(s, first, second, tol) for tol in tols}
    categories = tuple(OverlapCategory)
    for k, (i, j) in enumerate(pairs):
        sq = overlap_table(s, i, j) ** 2
        for tol in tols:
            dense, factored = dense_classify(sq, s.ctx, tol), factored_classify(s, i, j, tol)
            assert (dense is None) == (factored is None), (s.ctx.d, i, j, tol)
            assert (dense is None) == (codes[tol][k] == -1), (s.ctx.d, i, j, tol)
            if dense is not None:
                assert factored.category is dense.category, (s.ctx.d, i, j, tol)
                assert categories[codes[tol][k]] is dense.category, (s.ctx.d, i, j, tol)
                assert factored.support_count == dense.support_count, (s.ctx.d, i, j, tol)
                assert factored.value == pytest.approx(dense.value, abs=1e-12)


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
    assert (pair_categories(s, first, second, 0.0) == -1).all()


@pytest.mark.parametrize("dims", SUPPORTED_DIMS, ids=dims_id)
def test_factored_route_matches_dense_oracle_at_every_supported_d(dims):
    # Pairs with basis 1 or basis psi cover all three categories.
    s = supported_set(*dims)
    last = len(s)
    pairs = [(1, j) for j in range(2, last + 1)] + [(i, last) for i in range(2, last)]
    assert_routes_agree(s, pairs, (1e-9,))
    categories = {classify_pair(s, i, j).category for i, j in pairs}
    assert categories == set(OverlapCategory)


def per_pair_extrema(stack: np.ndarray) -> list[np.ndarray]:
    """The fields of `FactorExtrema`, flattened, from one `overlaps` table per
    pair (j, i), reduced as the template test reads them."""
    diagonal = np.eye(stack.shape[-1], dtype=bool)
    fields = np.zeros((7, len(stack), len(stack)))
    for j, bj in enumerate(stack):
        for i, bi in enumerate(stack):
            sq = overlaps(bj, bi) ** 2
            diag = np.diagonal(sq)
            fields[:, j, i] = (sq.max(), sq.min(), sq.mean(), diag.max(), diag.min(),
                               diag.mean(), sq[~diagonal].max())
    return list(fields)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_factor_extrema_match_a_per_pair_overlaps_loop(p):
    # The prime-dimension family, and a family of generic unitaries, whose
    # tables are far from the templates.  `take` gathers exactly the
    # entries [j, i] of every field.
    generic = np.stack([generic_unitary(p, seed) for seed in range(4)])
    rng = np.random.default_rng(p)
    for stack in (prime_mub(p), generic):
        got = _factor_extrema(stack)
        flat = [*got.whole, *got.diag, got.off_top]
        for field, want in zip(flat, per_pair_extrema(stack)):
            assert field.shape == want.shape
            assert np.abs(field - want).max() <= 1e-14, p
        j, i = rng.integers(len(stack), size=(2, 50))
        taken = got.take(j, i)
        for field, picked in zip(flat, [*taken.whole, *taken.diag, taken.off_top]):
            assert np.array_equal(picked, field[j, i]), p


@pytest.mark.parametrize("dims", SUPPORTED_DIMS, ids=dims_id)
def test_label_split_matches_matrix_factorize(dims):
    # The array pass of `conjugation_bound` against the per-matrix route.
    s = supported_set(*dims)
    ctx = s.ctx
    comp1, comp2 = split_entries(np.array(s.symplectic_labels).T, ctx)
    for j, label in enumerate(s.symplectic_labels):
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
    """The set with factor basis `slot` of factor `factor` replaced by `matrix`."""
    stacks = list(s.factor_stacks)
    stacks[factor] = stacks[factor].copy()
    stacks[factor][slot] = matrix
    return replace(s, factor_stacks=tuple(stacks))


def assert_bounds_hold(s, indices) -> None:
    # Each dense residual of the assembled bases, both conjugation routes.
    unitarity, conjugation = unitarity_bound(s), conjugation_bound(s)
    d = s.ctx.d
    for j in indices:
        u, label = assembled_basis(s, j), s.symplectic_label(j)
        assert unitarity_defect(u) <= unitarity + BOUND_SLACK, (d, j)
        assert conjugation_defect(d, u, label) <= conjugation + BOUND_SLACK, (d, j)
        assert dense_conjugation_defect(d, u, label) <= conjugation + BOUND_SLACK, (d, j)


def using_slot(s, factor: int, slot: int) -> list[int]:
    """Indices of the bases whose factor `factor` is factor basis `slot`."""
    return [j + 1 for j in np.flatnonzero(s.factor_slots[:, factor] == slot)]


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
    for factor, stack in enumerate(s.factor_stacks):
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
    # Each fault in one factor basis, or a basis checked against its
    # neighbour's label, lands above 1/(2d), the largest tolerance `verify`
    # admits, and still bounds the dense residuals of the bases it touches.
    # Under random column phases those exceed r1*c2 + c1*r2 at every d:
    # the powers q_i in `conjugation_bound` are needed.
    s = supported_set(*dims)
    ceiling = 0.5 / s.ctx.d
    rng = np.random.default_rng(s.ctx.d)
    assert conjugation_bound(s) <= ceiling
    for factor, stack in enumerate(s.factor_stacks):
        u = stack[1]
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
    labels = list(s.symplectic_labels)
    for j in (2, len(s) - 1):
        labels[j - 1] = s.symplectic_labels[j]
    neighbour = replace(s, symplectic_labels=tuple(labels))
    assert conjugation_bound(neighbour) > ceiling
    assert_bounds_hold(neighbour, (2, len(s) - 1))


@pytest.mark.parametrize("dims", [(3, 5), (5, 7), (7, 13)], ids=dims_id)
def test_conjugation_bound_keeps_distinct_labels_of_one_slot_apart(dims):
    # The last basis takes the label of an earlier basis with the same
    # second factor slot, so its second component label stays right and
    # its first is wrong.  An earlier basis shares its first factor slot
    # with the right component label; both (slot, label) rows must be
    # checked, so the fault reaches the bound.
    s = supported_set(*dims)
    last = len(s)
    slot1, slot2 = s.factor_slots[last - 1]
    donor = 1 + int(np.flatnonzero((s.factor_slots[:, 1] == slot2) & (s.factor_slots[:, 0] != slot1))[0])
    assert using_slot(s, 0, slot1)[0] < last
    labels = list(s.symplectic_labels)
    labels[last - 1] = s.symplectic_label(donor)
    tampered = replace(s, symplectic_labels=tuple(labels))
    assert conjugation_bound(tampered) > 0.5 / s.ctx.d
    assert_bounds_hold(tampered, (last,))
