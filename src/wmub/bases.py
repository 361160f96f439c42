"""The full set of weak mutually unbiased bases for d = d1*d2: construction
as tensor products of prime-dimension mutually unbiased bases, overlap
classification of every pair into the three admissible templates, the
census, the mutually-unbiased partition, and the pairwise duality report
against the maximal-line catalog."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .geometry import MaximalLineCatalog, catalog_layout, split_entries
from .hilbert import (
    assemble_tensor_basis,
    check_crt_relabelling,
    conjugation_defect,
    prime_mub,
    unitarity_defect,
)
from .zring import CrtContext

# Overlap templates are compared on squared magnitudes.  The closest two
# admissible squared values {0, 1/d, 1/d2, 1/d1} are 0 and 1/d, so a
# tolerance is unambiguous only up to half that gap, 1/(2d) (0.0053 at
# d = 95); `wmub verify` rejects anything larger.
OVERLAP_ATOL = 1e-9


class NotWeaklyUnbiased(ValueError):
    """An overlap table fits none of the three admissible templates."""


class OverlapCategory(Enum):
    """Which template the overlap table of a basis pair follows."""

    SUB_D1 = "d1^{-1/2}"   # value d1**-0.5 on n = m (mod d2), zero elsewhere
    SUB_D2 = "d2^{-1/2}"   # value d2**-0.5 on n = m (mod d1), zero elsewhere
    FULL = "d^{-1/2}"      # flat table, the mutually unbiased case


# The pair passes report a category as its position in this tuple.
_CATEGORIES = tuple(OverlapCategory)


# `_factor_extrema` reduces the magnitudes of consecutive rows together while
# they fit in this many floats (1 MB), so every family with p <= 19 is one
# block, and the buffer holds the larger of 1 MB and the first row's tables.
_BLOCK_FLOATS = 2**17


def _reduce_tables(mags: np.ndarray, out: np.ndarray) -> None:
    """Write the five `_factor_extrema` fields of each (p, p) table of
    magnitudes in `mags` to the columns of `out`, unsquared; zeroes the
    diagonals of `mags`."""
    flat = mags.reshape(len(mags), -1)  # [table, n*p + m]
    diag = flat[:, :: mags.shape[-1] + 1]
    out[:4] = flat.max(axis=1), flat.min(axis=1), diag.max(axis=1), diag.min(axis=1)
    # Entries are >= 0, so zeroing the diagonal leaves the off-diagonal maximum.
    diag[:] = 0.0
    out[4] = flat.max(axis=1)


def _factor_extrema(stack: np.ndarray) -> np.ndarray:
    """Extrema of the squared tables |b_j^dag b_i|^2 for every pair of the
    p+1 bases of a (p+1, p, p) stack, as one read-only (5, p+1, p+1) array
    indexed [field, j, i].  The fields are what the templates read: the
    largest and smallest entry, the largest and smallest diagonal entry, and
    the largest entry off the diagonal.

    The (i, j) table is the transpose of the (j, i) table, which keeps its
    diagonal, so only the triangle j <= i is formed, (p+1)(p+2)/2 tables:
    one stacked product b_j^dag [b_j, ..., b_p] per row j, its magnitudes
    written into a buffer that a block of consecutive rows shares
    (`_BLOCK_FLOATS`), and each block reduced at once.  Squaring is
    monotone, so the fields are the squared extrema of the magnitudes.
    """
    count, p, _ = stack.shape
    upper = ~np.tri(count, k=-1, dtype=bool)  # (j, i) with j <= i, row by row
    triangle = np.empty((5, count * (count + 1) // 2))
    buffer = np.empty((min(triangle.shape[1], max(_BLOCK_FLOATS // (p * p), count)), p, p))
    lo = hi = 0  # the triangle positions of the tables in the buffer
    for j in range(count):
        if hi - lo + count - j > len(buffer):  # row j does not fit: reduce the block
            _reduce_tables(buffer[: hi - lo], triangle[:, lo:hi])
            lo = hi
        np.abs(stack[j].conj().T @ stack[j:], out=buffer[hi - lo : hi - lo + count - j])
        hi += count - j
    _reduce_tables(buffer[: hi - lo], triangle[:, lo:hi])
    np.square(triangle, out=triangle)
    fields = np.empty((5, count, count))
    fields[:, upper] = triangle
    fields.swapaxes(1, 2)[:, upper] = triangle
    fields.setflags(write=False)
    return fields


@dataclass(frozen=True, eq=False)
class WmubSet:
    """The indexed family of weak mutually unbiased bases over C^d.

    Indexing is 1-based and follows `catalog_layout`: row j - 1 of each
    array belongs to basis j.  `factor_stacks` holds the two
    prime-dimension families the bases are tensor products of, each the
    (p+1, p, p) stack of `prime_mub`; `slots` holds the row of each factor
    basis in its stack, which is the catalog's component index (i1, i2);
    and `labels` holds the entries (kappa, lam, mu, nu) of the catalog's
    sweep matrix, which each basis must realize.  Every factor gate reads
    them.  No d x d basis is kept: `overlap_table` assembles the two it
    compares.
    """

    ctx: CrtContext
    slots: np.ndarray
    labels: np.ndarray
    factor_stacks: tuple[np.ndarray, np.ndarray]

    def __len__(self) -> int:
        return len(self.slots)

    @cached_property
    def factor_extrema(self) -> tuple[np.ndarray, np.ndarray]:
        """Per factor, the `_factor_extrema` of its prime-dimension family,
        computed once per set from the (d1+1)(d1+2)/2 + (d2+1)(d2+2)/2
        tables with j <= i, of at most d2 x d2; the others are mirrored."""
        return tuple(_factor_extrema(stack) for stack in self.factor_stacks)


def build_wmub(catalog: MaximalLineCatalog) -> WmubSet:
    """The dedekind_psi(d) weak mutually unbiased bases of the catalog's
    context, paired index by index with its lines: the catalog's component
    indices as slots, its sweep matrices as labels, and the two
    prime-dimension factor families; no d x d matrix is formed.

    `d` is not capped here; `prime_mub` caps each factor prime at MAX_DIM.
    """
    ctx = catalog.ctx
    stacks = (prime_mub(ctx.d1), prime_mub(ctx.d2))
    for stack in stacks:
        stack.setflags(write=False)
    return WmubSet(ctx, catalog.components, catalog.matrices, stacks)


def unitarity_bound(s: WmubSet) -> float:
    """Upper bound on the max-norm unitarity defect of every basis, from the
    factor families alone.

    B^dag B is the CRT relabelling of (I + E1) (x) (I + E2) for the factor
    defects E1 and E2, so with e_i the largest defect over the d_i+1 bases
    of factor i, every |B^dag B - I| entry is at most e1 + e2 + e1*e2.
    One `unitarity_defect` call per family; a NaN defect propagates.
    """
    e1, e2 = (float(np.max(unitarity_defect(stack))) for stack in s.factor_stacks)
    return e1 + e2 + e1 * e2


def conjugation_bound(s: WmubSet) -> float:
    """Upper bound on the `conjugation_defect` of every assembled d x d
    basis against its label, from the factor families alone.

    `check_crt_relabelling` certifies that the relabelling the bases are
    assembled with turns X_d into X_d1^t1 (x) X_d2^t2, Z_d into
    Z_d1 (x) Z_d2 and D_d(a, b) into D_d1(a, b*t1) (x) D_d2(a, b*t2).  So for
    B = U1 (x) U2 relabelled, B X - D B is the relabelling of
    (U1 X^t1 - D1^t1 U1) (x) U2 X^t2 + D1^t1 U1 (x) (U2 X^t2 - D2^t2 U2)
    with (D1, D2) the `split_entries` components of the label, and
    likewise for Z with power 1.  Row norms of a Kronecker product
    multiply, and D^s (U X - D U) X^k has the row norms of U X - D U, so
    with r_i the residual `conjugation_defect` of factor i against its
    component label and c_i the largest row norm of U_i, the residual of B
    is at most q1*r1*c2 + c1*q2*r2, where
    q_i = min(t_i, d_i - t_i) bounds the growth of the X residual from X to
    X^t_i (X^t is also X^-(d_i - t_i)).  Each (factor, factor basis,
    component label) is checked once, all of a factor in one
    `conjugation_defect` call on the gathered factor bases.

    All labels are split in one array pass.  Each component label must have
    determinant 1 mod d_i, which by the CRT is the unit determinant of the
    label itself.  Raises RuntimeError when the relabelling check fails or a
    label's determinant is not 1.
    """
    ctx = s.ctx
    check_crt_relabelling(ctx)
    powers = (min(ctx.t1, ctx.d1 - ctx.t1), min(ctx.t2, ctx.d2 - ctx.t2))
    factors = tuple(zip((ctx.d1, ctx.d2), split_entries(s.labels.T, ctx)))
    unit = [(k * n - l * m) % di == 1 for di, (k, l, m, n) in factors]
    bad = np.flatnonzero(~(unit[0] & unit[1]))
    if bad.size:
        j = int(bad[0]) + 1
        k, l, m, n = s.labels[j - 1].tolist()
        raise RuntimeError(f"B_{j} label X({k},{l}|{m},{n}): determinant is not 1 (mod {ctx.d})")
    terms = []
    for factor, (di, comp) in enumerate(factors):
        # Slots and component entries are < di + 1, so one mixed-radix
        # integer keys each distinct (slot, component label).
        slots = s.slots[:, factor]
        key = slots
        for entry in comp:
            key = key * (di + 1) + entry
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        stack = s.factor_stacks[factor][slots[first]]
        residuals = powers[factor] * conjugation_defect(di, stack, [entry[first] for entry in comp])
        norms = np.linalg.norm(stack, axis=2).max(axis=1)
        terms.append((residuals[inverse], norms[inverse]))
    (r1, c1), (r2, c2) = terms
    return float((r1 * c2 + c1 * r2).max())


def _check_indices(s: WmubSet, i, j) -> tuple[np.ndarray, np.ndarray]:
    """i and j, two ints or two integer sequences of one shape, as arrays of
    1-based basis indices; two empty sequences give two empty integer
    arrays.  Raises ValueError on unequal shapes, TypeError on indices that
    are not integers (bools included), and IndexError naming the first pair
    with an index out of range."""
    i, j = np.asarray(i), np.asarray(j)
    if i.shape != j.shape:
        raise ValueError(f"basis index arrays of unequal shapes {i.shape} and {j.shape}")
    if not i.size:
        return i.astype(np.intp), j.astype(np.intp)
    for side in (i, j):
        if side.dtype.kind not in "iu":
            raise TypeError(f"basis indices must be integers, got dtype {side.dtype}")
    bad = np.flatnonzero((i < 1) | (i > len(s)) | (j < 1) | (j > len(s)))
    if bad.size:
        k = bad[0]
        raise IndexError(f"basis indices ({i.flat[k]}, {j.flat[k]}) out of range 1..{len(s)}")
    return i, j


def overlap_table(s: WmubSet, i: int, j: int) -> np.ndarray:
    """Magnitudes |<B_j; n | B_i; m>| for the pair (i, j), as an (n, m) table.

    The dense d x d product of the two bases, each assembled from its factor
    slots; `classify_pair` does not read it, so it stands as the independent
    route for tests.
    """
    _check_indices(s, i, j)
    stack1, stack2 = s.factor_stacks
    bj, bi = (
        assemble_tensor_basis(stack1[slot1], stack2[slot2], s.ctx)
        for slot1, slot2 in s.slots[[j - 1, i - 1]]
    )
    return np.abs(bj.conj().T @ bi)


def _match(s: WmubSet, i, j, tol: float):
    """Match the pairs (i[k], j[k]) of distinct bases against the three
    templates at once (or the one pair (i, j), given two ints).

    Returns the templates, each (category, top, bottom, off_top, value) with
    arrays over the pairs, in matching order, and for each pair the
    position of the first template it fits, -1 if none.  Raises as
    `_check_indices`, and ValueError naming the first pair with i == j.
    """
    i, j = _check_indices(s, i, j)
    same = np.flatnonzero(i == j)
    if same.size:
        k = i.flat[same[0]]
        raise ValueError(f"pair classification needs two distinct bases, got ({k}, {k})")
    # Each factor's five fields at the pairs' slots, [field, pair], read
    # through one flat index into the square (p+1, p+1) fields.
    (max1, min1, dmax1, dmin1, off1), (max2, min2, dmax2, dmin2, off2) = (
        extrema.reshape(5, -1).take(s.slots[j - 1, f] * len(extrema[0]) + s.slots[i - 1, f], axis=1)
        for f, extrema in enumerate(s.factor_extrema)
    )
    ctx = s.ctx
    templates = (
        (OverlapCategory.FULL, max1 * max2, min1 * min2, 0.0, 1.0 / ctx.d),
        (OverlapCategory.SUB_D1, max1 * dmax2, min1 * dmin2, max1 * off2, 1.0 / ctx.d1),
        (OverlapCategory.SUB_D2, dmax1 * max2, dmin1 * min2, off1 * max2, 1.0 / ctx.d2),
    )
    fits = [
        (top - value <= tol) & (value - bottom <= tol) & (off_top <= tol)
        for _, top, bottom, off_top, value in templates
    ]
    return templates, np.select(fits, range(len(templates)), default=-1)


def classify_pair(s: WmubSet, i: int, j: int, tol: float = OVERLAP_ATOL) -> OverlapCategory:
    """The category of the template the overlap table of a pair fits.

    B_j^dag B_i is the CRT re-indexing of (b1_j^dag b1_i) (x) (b2_j^dag b2_i),
    and n = m (mod d2) exactly when the second residues agree (likewise for
    d1), so the squared table is T1[n1, m1] * T2[n2, m2] with the template
    support a product region.  Every entry-wise `<= tol` test of a template
    then reduces to products of factor-table extrema (`factor_extrema`):
    e.g. the d1**-0.5 template holds iff max T1 * max diag T2 - 1/d1,
    1/d1 - min T1 * min diag T2 and max T1 * max offdiag T2 are all <= tol.
    No d x d table is formed; `unitarity_bound` and `conjugation_bound`
    tie the same factor families to the labels.  `pair_categories`
    runs the same test on many pairs at once.

    A table fitting no template raises NotWeaklyUnbiased, which signals a
    construction bug rather than a user error.
    """
    templates, fit = _match(s, i, j, tol)
    if fit < 0:
        raise _unfit(templates, i, j, tol)
    return templates[fit][0]


def _unfit(templates, i: int, j: int, tol: float) -> NotWeaklyUnbiased:
    """The error naming the pair (i, j) that fits none of its `_match`
    templates, with how far its table lies from the flat template."""
    _, top, bottom, _, flat = templates[0]
    worst = max(top - flat, flat - bottom)
    return NotWeaklyUnbiased(
        f"bases ({i}, {j}) fit no overlap template within {tol} "
        f"(flat-template residual {worst:.3e})"
    )


def pair_categories(
    s: WmubSet, i: np.ndarray, j: np.ndarray, tol: float = OVERLAP_ATOL
) -> np.ndarray:
    """Category of each pair of distinct bases (i[k], j[k]), 1-based, as its
    position in `OverlapCategory` order, or -1 where no template fits.

    The template test of `classify_pair`, run on all pairs in one array
    pass, with the same index checks.
    """
    templates, fit = _match(s, i, j, tol)
    codes = [_CATEGORIES.index(category) for category, *_ in templates]
    return np.array([*codes, -1])[fit]  # fit -1 picks the trailing -1


def _census(s: WmubSet, i: np.ndarray, j: np.ndarray, tol: float):
    """Categories of the pairs (i[k], j[k]) and their counts per category.

    The first pair in the given order that fits no template raises
    NotWeaklyUnbiased with the message of `classify_pair`, worded from the
    templates of that one pair.
    """
    codes = pair_categories(s, i, j, tol)
    unfit = np.flatnonzero(codes < 0)
    if unfit.size:
        first = int(i[unfit[0]]), int(j[unfit[0]])
        raise _unfit(_match(s, *first, tol)[0], *first, tol)
    counts = np.bincount(codes, minlength=len(_CATEGORIES)).tolist()
    return codes, dict(zip(_CATEGORIES, counts))


def wmub_census(s: WmubSet, tol: float = OVERLAP_ATOL) -> dict[OverlapCategory, int]:
    """Count unordered basis pairs per overlap category."""
    i, j = np.triu_indices(len(s), k=1)
    return _census(s, i + 1, j + 1, tol)[1]


def partition_bases(s: WmubSet) -> list[tuple[int, ...]]:
    """Partition the set into d2+1 groups of d1+1 pairwise unbiased bases,
    as sorted indices: the sets of `catalog_layout`, as for the lines."""
    return catalog_layout(s.ctx).sets


@dataclass(frozen=True)
class DualityReport:
    """The overlap census, the category code of every basis pair in the
    row-major order of the catalog's `pair_classes` (as `pair_categories`),
    and `mismatch`, the first pair whose classes disagree (None if all agree)."""

    ctx: CrtContext
    overlap_census: dict[OverlapCategory, int]
    categories: np.ndarray = field(compare=False)
    mismatch: str | None = None


def duality_report(
    catalog: MaximalLineCatalog, s: WmubSet, tol: float = OVERLAP_ATOL
) -> DualityReport:
    """Certify the pairwise dictionary between lines and bases in one pass.

    Every basis pair is classified once, in one array pass over the
    catalog's pairs, and compared with the intersection size of the line
    pair with the same indices: size d2 must meet the d1**-0.5 overlap
    template, size d1 the d2**-0.5 template, and size 1 the flat template.
    The first pair in row-major order that fits no template raises
    NotWeaklyUnbiased; the first mismatched pair is named in `mismatch`,
    next to the census of every pair.
    """
    ctx = s.ctx
    if catalog.ctx != ctx:
        raise ValueError("catalog and basis set were built from different contexts")
    pairs = catalog.pair_classes
    codes, overlap_census = _census(s, pairs.i, pairs.j, tol)
    expected = {ctx.d2: OverlapCategory.SUB_D1, ctx.d1: OverlapCategory.SUB_D2, 1: OverlapCategory.FULL}
    want = np.select(
        [pairs.size == size for size in expected],
        [_CATEGORIES.index(category) for category in expected.values()],
    )
    mismatch = None
    mismatched = np.flatnonzero(codes != want)
    if mismatched.size:
        k = mismatched[0]
        mismatch = (
            f"pair ({pairs.i[k]}, {pairs.j[k]}): intersection {pairs.size[k]} "
            f"against overlap class {_CATEGORIES[codes[k]].value}"
        )
    codes.setflags(write=False)
    return DualityReport(ctx, overlap_census, codes, mismatch)


def partitions_hold(catalog: MaximalLineCatalog, report: DualityReport) -> bool:
    """What the paper claims of the one partition grid of `catalog_layout`,
    shared by both sides, read from the two pair passes: d2+1 groups of d1+1
    cover 1..psi exactly once, the lines of each group meet pairwise only at
    the origin, and the bases of each group are unbiased."""
    ctx = catalog.ctx
    psi = len(catalog)
    sets = catalog_layout(ctx).sets
    if [len(group) for group in sets] != [ctx.d1 + 1] * (ctx.d2 + 1):
        return False
    grid = np.sort(sets, axis=1)  # [group, member]
    if not np.array_equal(np.sort(grid, axis=None), np.arange(1, psi + 1)):
        return False
    first, second = np.triu_indices(ctx.d1 + 1, k=1)
    a, b = grid[:, first], grid[:, second]
    # (a, b) sits at this position in the row-major order of the pair passes.
    at = (a - 1) * psi - (a - 1) * a // 2 + (b - a - 1)
    full = _CATEGORIES.index(OverlapCategory.FULL)
    return bool((catalog.pair_classes.size[at] == 1).all() and (report.categories[at] == full).all())
