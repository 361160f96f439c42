"""The full set of weak mutually unbiased bases for d = d1*d2: construction
as tensor products of prime-dimension mutually unbiased bases, overlap
classification of every pair into the three admissible templates, the
census, the mutually-unbiased partition, and the pairwise duality report
against the maximal-line catalog."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import (
    MaximalLineCatalog,
    catalog_layout,
    component_index,
    partition_lines,
    redundancy,
    split_entries,
    sweep_entries,
    sweep_value,
)
from .hilbert import (
    MAX_DIM,
    DimTooLarge,
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


class DualityViolation(ValueError):
    """A line pair and its basis pair landed in mismatched classes.

    Raised after the whole pair pass, so `overlap_census` holds the counts
    over every basis pair.
    """

    def __init__(self, message: str, overlap_census: dict[OverlapCategory, int]):
        super().__init__(message)
        self.overlap_census = overlap_census


class OverlapCategory(Enum):
    """Which template the overlap table of a basis pair follows."""

    SUB_D1 = "d1^{-1/2}"   # value d1**-0.5 on n = m (mod d2), zero elsewhere
    SUB_D2 = "d2^{-1/2}"   # value d2**-0.5 on n = m (mod d1), zero elsewhere
    FULL = "d^{-1/2}"      # flat table, the mutually unbiased case


# The pair passes report a category as its position in this tuple.
_CATEGORIES = tuple(OverlapCategory)


@dataclass(frozen=True)
class OverlapClass:
    category: OverlapCategory
    value: float
    support_count: int


class Region(NamedTuple):
    """Largest, smallest and mean entry of squared factor tables over a
    region of their (n, m) positions."""

    top: np.ndarray
    bottom: np.ndarray
    mean: np.ndarray


class FactorExtrema(NamedTuple):
    """Squared prime-dimension overlap tables |b_j^dag b_i|^2, reduced to
    what the templates read: their whole range, their diagonal range, and
    their largest entry off the diagonal; each field is an array over pairs."""

    whole: Region
    diag: Region
    off_top: np.ndarray

    def take(self, j: np.ndarray, i: np.ndarray) -> FactorExtrema:
        """The extrema at positions [j[k], i[k]] of every field, each read
        through one flat index into the square (p+1, p+1) field."""
        flat = j * len(self.off_top) + i
        pick = lambda field: field.take(flat)
        return FactorExtrema(
            Region(*map(pick, self.whole)), Region(*map(pick, self.diag)), pick(self.off_top)
        )


def _factor_extrema(stack: np.ndarray) -> FactorExtrema:
    """FactorExtrema of |b_j^dag b_i|^2 for every pair of the p+1 bases of a
    (p+1, p, p) stack, fields indexed [j, i].

    One stacked product b_j^dag [b_0, ..., b_p] per row j, so at most p+1
    tables are alive at a time; each is read flat, its diagonal the slice
    ::p+1.
    """
    count, p, _ = stack.shape
    rows = []
    for bj in stack:
        sq = (np.abs(bj.conj().T @ stack) ** 2).reshape(count, p * p)  # [i, n*p + m]
        diag = sq[:, :: p + 1]
        row = [sq.max(axis=1), sq.min(axis=1), sq.mean(axis=1),
               diag.max(axis=1), diag.min(axis=1), diag.mean(axis=1)]
        # Entries are >= 0, so zeroing the diagonal leaves the off-diagonal maximum.
        diag[:] = 0.0
        rows.append((*row, sq.max(axis=1)))
    fields = [np.stack(column) for column in zip(*rows)]
    return FactorExtrema(Region(*fields[0:3]), Region(*fields[3:6]), fields[6])


@dataclass(frozen=True, eq=False)
class WmubSet:
    """The indexed family of weak mutually unbiased bases over C^d.

    Indexing is 1-based and follows `catalog_layout`.  `factor_labels`
    holds the sweep value of each factor (None for the position basis);
    the symplectic labels are the entries of the catalog's sweep matrix
    with the same index, which each basis must realize.  `factor_stacks`
    holds the two prime-dimension families the bases are tensor products
    of, each the (p+1, p, p) stack of `prime_mub`, indexed by slot; every
    factor gate reads them.  No d x d basis is kept: `overlap_table`
    assembles the two it compares.
    """

    ctx: CrtContext
    factor_labels: tuple[tuple[int | None, int | None], ...]
    symplectic_labels: tuple[tuple[int, int, int, int], ...]
    factor_stacks: tuple[np.ndarray, np.ndarray]

    def __len__(self) -> int:
        return len(self.factor_labels)

    def factor_label(self, j: int) -> tuple[int | None, int | None]:
        return self.factor_labels[j - 1]

    def symplectic_label(self, j: int) -> tuple[int, int, int, int]:
        return self.symplectic_labels[j - 1]

    @cached_property
    def factor_extrema(self) -> tuple[FactorExtrema, FactorExtrema]:
        """Per factor, the squared tables |b_j^dag b_i|^2 of its
        prime-dimension family, computed once per set and reduced to their
        extrema, indexed [j, i]; (d1+1)^2 + (d2+1)^2 tables of at most d2 x d2."""
        return tuple(_factor_extrema(stack) for stack in self.factor_stacks)

    @cached_property
    def factor_slots(self) -> np.ndarray:
        """[j - 1, factor]: the slot in `factor_stacks` of each factor of basis j."""
        return np.array([[component_index(lam) for lam in label] for label in self.factor_labels])


def check_hilbert_cap(ctx: CrtContext) -> None:
    """Raise DimTooLarge when d exceeds the Hilbert-space cap MAX_DIM."""
    if ctx.d > MAX_DIM:
        raise DimTooLarge(f"d1*d2 = {ctx.d} exceeds the Hilbert-space cap {MAX_DIM}")


def build_wmub(ctx: CrtContext) -> WmubSet:
    """The dedekind_psi(d) weak mutually unbiased bases, as their labels and
    the two prime-dimension factor families; no d x d matrix is formed.

    Raises DimTooLarge when d exceeds the Hilbert-space cap MAX_DIM.
    """
    check_hilbert_cap(ctx)
    components = catalog_layout(ctx).components
    labels = tuple(tuple(map(sweep_value, c)) for c in components.tolist())
    symps = tuple(map(tuple, sweep_entries(ctx, components).tolist()))
    return WmubSet(ctx, labels, symps, (prime_mub(ctx.d1), prime_mub(ctx.d2)))


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
    factors = tuple(zip((ctx.d1, ctx.d2), split_entries(np.array(s.symplectic_labels).T, ctx)))
    unit = [(k * n - l * m) % di == 1 for di, (k, l, m, n) in factors]
    bad = np.flatnonzero(~(unit[0] & unit[1]))
    if bad.size:
        j = int(bad[0]) + 1
        k, l, m, n = s.symplectic_label(j)
        raise RuntimeError(f"B_{j} label X({k},{l}|{m},{n}): determinant is not 1 (mod {ctx.d})")
    terms = []
    for factor, (di, comp) in enumerate(factors):
        # Slots and component entries are < di + 1, so one mixed-radix
        # integer keys each distinct (slot, component label).
        slots = s.factor_slots[:, factor]
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


def _check_indices(s: WmubSet, i: int, j: int) -> None:
    if not (1 <= i <= len(s) and 1 <= j <= len(s)):
        raise IndexError(f"basis indices ({i}, {j}) out of range 1..{len(s)}")


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
        for slot1, slot2 in s.factor_slots[[j - 1, i - 1]]
    )
    return np.abs(bj.conj().T @ bi)


def _match(s: WmubSet, i, j, tol: float):
    """Match the pairs (i[k], j[k]) against the three templates at once
    (or the one pair (i, j), given two ints).

    Returns the templates, each (category, on1, on2, off_top, value,
    support) with arrays over the pairs, in matching order, and for each
    pair the position of the first template it fits, -1 if none.
    """
    ctx = s.ctx
    slots = s.factor_slots
    table1, table2 = s.factor_extrema
    t1 = table1.take(slots[j - 1, 0], slots[i - 1, 0])
    t2 = table2.take(slots[j - 1, 1], slots[i - 1, 1])
    templates = (
        (OverlapCategory.FULL, t1.whole, t2.whole, 0.0, 1.0 / ctx.d, ctx.d * ctx.d),
        (OverlapCategory.SUB_D1, t1.whole, t2.diag, t1.whole.top * t2.off_top, 1.0 / ctx.d1, ctx.d * ctx.d1),
        (OverlapCategory.SUB_D2, t1.diag, t2.whole, t1.off_top * t2.whole.top, 1.0 / ctx.d2, ctx.d * ctx.d2),
    )
    fits = [
        (on1.top * on2.top - value <= tol)
        & (value - on1.bottom * on2.bottom <= tol)
        & (off_top <= tol)
        for _, on1, on2, off_top, value, _ in templates
    ]
    return templates, np.select(fits, range(len(templates)), default=-1)


def classify_pair(s: WmubSet, i: int, j: int, tol: float = OVERLAP_ATOL) -> OverlapClass:
    """Match the overlap table of a pair against the three templates.

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

    The matched category is returned with the on-support magnitude (from
    the factor means) and the template's support, d^2, d*d1 or d*d2 --
    the number of dense entries above `tol` for any tol < 1/(2d), since
    matched on-support entries are at least 1/d - tol and the rest at
    most tol.  A table fitting no template raises NotWeaklyUnbiased, which
    signals a construction bug rather than a user error.
    """
    _check_indices(s, i, j)
    if i == j:
        raise ValueError("pair classification needs two distinct bases")
    templates, fit = _match(s, i, j, tol)
    if fit >= 0:
        category, on1, on2, _, _, support = templates[fit]
        return OverlapClass(category, math.sqrt(on1.mean * on2.mean), support)
    _, whole1, whole2, _, flat, _ = templates[0]
    worst = max(whole1.top * whole2.top - flat, flat - whole1.bottom * whole2.bottom)
    raise NotWeaklyUnbiased(
        f"bases ({i}, {j}) fit no overlap template within {tol} "
        f"(flat-template residual {worst:.3e})"
    )


def pair_categories(
    s: WmubSet, i: np.ndarray, j: np.ndarray, tol: float = OVERLAP_ATOL
) -> np.ndarray:
    """Category of each pair of distinct bases (i[k], j[k]), 1-based, as its
    position in `OverlapCategory` order, or -1 where no template fits.

    The template test of `classify_pair`, run on all pairs in one array pass.
    """
    i, j = np.asarray(i), np.asarray(j)
    if i.size and not (1 <= min(i.min(), j.min()) and max(i.max(), j.max()) <= len(s)):
        raise IndexError(f"basis indices out of range 1..{len(s)}")
    templates, fit = _match(s, i, j, tol)
    codes = [_CATEGORIES.index(category) for category, *_ in templates]
    return np.array([*codes, -1])[fit]  # fit -1 picks the trailing -1


def _census(s: WmubSet, i: np.ndarray, j: np.ndarray, tol: float):
    """Categories of the pairs (i[k], j[k]) and their counts per category.

    The first pair in the given order that fits no template raises
    NotWeaklyUnbiased with the message of `classify_pair`.
    """
    codes = pair_categories(s, i, j, tol)
    unfit = np.flatnonzero(codes < 0)
    if unfit.size:
        k = unfit[0]
        classify_pair(s, int(i[k]), int(j[k]), tol)
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
    """The two censuses, and the category code of every basis pair in the
    row-major order of the catalog's `pair_classes` (as `pair_categories`)."""

    ctx: CrtContext
    line_census: dict[int, int]
    overlap_census: dict[OverlapCategory, int]
    redundancy: Fraction
    categories: np.ndarray = field(compare=False)


def duality_report(
    catalog: MaximalLineCatalog, s: WmubSet, tol: float = OVERLAP_ATOL
) -> DualityReport:
    """Certify the pairwise dictionary between lines and bases in one pass.

    Every basis pair is classified once, in one array pass over the
    catalog's pairs, and compared with the intersection size of the line
    pair with the same indices: size d2 must meet the d1**-0.5 overlap
    template, size d1 the d2**-0.5 template, and size 1 the flat template.
    The first pair in row-major order that fits no template raises
    NotWeaklyUnbiased; the first mismatch raises DualityViolation, carrying
    the census of every pair.
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
    mismatched = np.flatnonzero(codes != want)
    if mismatched.size:
        k = mismatched[0]
        raise DualityViolation(
            f"pair ({pairs.i[k]}, {pairs.j[k]}): intersection {pairs.size[k]} "
            f"against overlap class {_CATEGORIES[codes[k]].value}",
            overlap_census,
        )
    return DualityReport(ctx, pairs.census(ctx), overlap_census, redundancy(ctx.d), codes)


def partitions_hold(catalog: MaximalLineCatalog, s: WmubSet, report: DualityReport) -> bool:
    """What the paper claims of the partition grids, read from the two pair
    passes: each is d2+1 groups of d1+1 covering 1..psi exactly once, the
    lines of each set meet pairwise only at the origin, and the bases of
    each group are unbiased."""
    ctx = catalog.ctx
    psi = len(catalog)
    first, second = np.triu_indices(ctx.d1 + 1, k=1)
    for sets, fits in (
        (partition_lines(ctx), catalog.pair_classes.size == 1),
        (partition_bases(s), report.categories == _CATEGORIES.index(OverlapCategory.FULL)),
    ):
        if [len(group) for group in sets] != [ctx.d1 + 1] * (ctx.d2 + 1):
            return False
        grid = np.sort(sets, axis=1)  # [group, member]
        if not np.array_equal(np.sort(grid, axis=None), np.arange(1, psi + 1)):
            return False
        a, b = grid[:, first], grid[:, second]
        # (a, b) sits at this position in the row-major order of the pair passes.
        if not fits[(a - 1) * psi - (a - 1) * a // 2 + (b - a - 1)].all():
            return False
    return True
