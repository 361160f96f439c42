"""The full set of weak mutually unbiased bases for d = d1*d2: construction
as tensor products of prime-dimension mutually unbiased bases, overlap
classification of every pair into the three admissible templates, the
census, the mutually-unbiased partition, and the pairwise duality report
against the maximal-line catalog."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .geometry import MaximalLineCatalog, SharedComponent, catalog_index, redundancy, sweep_matrix
from .hilbert import (
    MAX_DIM,
    DimTooLarge,
    OrthonormalBasis,
    assemble_tensor_basis,
    conjugation_defect,
    prime_mub,
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


@dataclass(frozen=True)
class OverlapClass:
    category: OverlapCategory
    value: float
    support_count: int


@dataclass(frozen=True, eq=False)
class WmubSet:
    """The indexed family of weak mutually unbiased bases over C^d.

    Indexing is 1-based and identical to the maximal-line catalog layout:
    position (x) position first, then the second-factor sweep, the
    first-factor sweep, and the double sweep.  `factor_labels` holds the
    sweep value of each factor (None for the position basis); the
    symplectic labels are the entries of the catalog's sweep matrix with
    the same index, which each assembled basis must realize.
    """

    ctx: CrtContext
    bases: tuple[OrthonormalBasis, ...]
    factor_labels: tuple[tuple[int | None, int | None], ...]
    symplectic_labels: tuple[tuple[int, int, int, int], ...]

    def __len__(self) -> int:
        return len(self.bases)

    def basis(self, j: int) -> OrthonormalBasis:
        return self.bases[j - 1]

    def factor_label(self, j: int) -> tuple[int | None, int | None]:
        return self.factor_labels[j - 1]

    def symplectic_label(self, j: int) -> tuple[int, int, int, int]:
        return self.symplectic_labels[j - 1]


def build_wmub(ctx: CrtContext) -> WmubSet:
    """Assemble the dedekind_psi(d) weak mutually unbiased bases.

    Raises DimTooLarge when d exceeds the Hilbert-space cap MAX_DIM.
    """
    if ctx.d > MAX_DIM:
        raise DimTooLarge(f"d1*d2 = {ctx.d} exceeds the Hilbert-space cap {MAX_DIM}")
    mubs1 = tuple(prime_mub(ctx.d1))
    mubs2 = tuple(prime_mub(ctx.d2))

    def factor(mubs: tuple[OrthonormalBasis, ...], lam: int | None) -> OrthonormalBasis:
        return mubs[0] if lam is None else mubs[1 + lam]

    slots: list[tuple[OrthonormalBasis, tuple[int | None, int | None], tuple[int, int, int, int]] | None]
    slots = [None] * ((ctx.d1 + 1) * (ctx.d2 + 1))
    for i1, lam1 in enumerate((None, *range(ctx.d1))):
        for i2, lam2 in enumerate((None, *range(ctx.d2))):
            j = catalog_index(ctx, i1, i2)
            assembled = assemble_tensor_basis(factor(mubs1, lam1), factor(mubs2, lam2), ctx)
            slots[j - 1] = (assembled, (lam1, lam2), sweep_matrix(ctx, lam1, lam2).entries)
    bases, labels, symps = zip(*slots)
    return WmubSet(ctx, tuple(bases), tuple(labels), tuple(symps))


def overlap_table(s: WmubSet, i: int, j: int) -> np.ndarray:
    """Magnitudes |<B_j; n | B_i; m>| for the pair (i, j), as an (n, m) table."""
    size = len(s)
    if not (1 <= i <= size and 1 <= j <= size):
        raise IndexError(f"basis indices ({i}, {j}) out of range 1..{size}")
    return np.abs(s.basis(j).matrix.conj().T @ s.basis(i).matrix)


def _congruence_mask(d: int, modulus: int) -> np.ndarray:
    idx = np.arange(d)
    return (idx[:, None] % modulus) == (idx[None, :] % modulus)


def classify_pair(s: WmubSet, i: int, j: int, tol: float = OVERLAP_ATOL) -> OverlapClass:
    """Match the full overlap table of a pair against the three templates.

    Squared magnitudes are compared entry by entry; the matched category is
    returned with the measured on-support magnitude and the number of
    nonzero entries.  A table fitting no template raises NotWeaklyUnbiased,
    which signals a construction bug rather than a user error.
    """
    if i == j:
        raise ValueError("pair classification needs two distinct bases")
    ctx = s.ctx
    sq = overlap_table(s, i, j) ** 2
    templates = (
        (OverlapCategory.FULL, np.ones_like(sq, dtype=bool), 1.0 / ctx.d),
        (OverlapCategory.SUB_D1, _congruence_mask(ctx.d, ctx.d2), 1.0 / ctx.d1),
        (OverlapCategory.SUB_D2, _congruence_mask(ctx.d, ctx.d1), 1.0 / ctx.d2),
    )
    for category, mask, value in templates:
        on = np.abs(sq[mask] - value) <= tol
        off = sq[~mask] <= tol
        if on.all() and off.all():
            return OverlapClass(
                category=category,
                value=float(np.sqrt(sq[mask].mean())),
                support_count=int(np.count_nonzero(sq > tol)),
            )
    worst = float(np.abs(sq - 1.0 / ctx.d).max())
    raise NotWeaklyUnbiased(
        f"bases ({i}, {j}) fit no overlap template within {tol} "
        f"(flat-template residual {worst:.3e})"
    )


def wmub_census(s: WmubSet, tol: float = OVERLAP_ATOL) -> dict[OverlapCategory, int]:
    """Count unordered basis pairs per overlap category."""
    counts = {category: 0 for category in OverlapCategory}
    for i in range(1, len(s) + 1):
        for j in range(i + 1, len(s) + 1):
            counts[classify_pair(s, i, j, tol).category] += 1
    return counts


def partition_bases(s: WmubSet) -> list[tuple[int, ...]]:
    """Partition the set into d2+1 groups of d1+1 pairwise unbiased bases.

    Group l collects the bases with factor sweep indices (i, i+l), the
    second index cyclic over the d2+1 factor bases; same layout as the
    line partition.  Membership is resolved from the stored factor labels.
    """
    ctx = s.ctx
    by_label = {s.factor_label(j): j for j in range(1, len(s) + 1)}

    def label(i: int) -> int | None:
        return None if i == 0 else i - 1

    sets = []
    for l in range(ctx.d2 + 1):
        members = sorted(
            by_label[(label(i), label((i + l) % (ctx.d2 + 1)))]
            for i in range(ctx.d1 + 1)
        )
        sets.append(tuple(members))
    return sets


def symplectic_label_defect(s: WmubSet, j: int) -> float:
    """Conjugation residual of basis j against its d-dimensional label."""
    return conjugation_defect(s.ctx.d, s.basis(j).matrix, s.symplectic_label(j))


@dataclass(frozen=True)
class PairDuality:
    i: int
    j: int
    intersection_size: int
    shared_component: SharedComponent
    category: OverlapCategory


@dataclass(frozen=True)
class DualityReport:
    ctx: CrtContext
    pairs: tuple[PairDuality, ...]
    line_census: dict[int, int]
    overlap_census: dict[OverlapCategory, int]
    redundancy: Fraction


def duality_report(
    catalog: MaximalLineCatalog, s: WmubSet, tol: float = OVERLAP_ATOL
) -> DualityReport:
    """Certify the pairwise dictionary between lines and bases in one pass.

    Each basis pair is classified once and compared with the catalog's
    stored class of the line pair with the same indices: an intersection of
    size d2 must meet the d1**-0.5 overlap template, size d1 the d2**-0.5
    template, and size 1 the flat template.  A table that fits no template
    raises NotWeaklyUnbiased at once; the first mismatch raises
    DualityViolation once the pass has counted every pair.
    """
    ctx = s.ctx
    if catalog.ctx != ctx:
        raise ValueError("catalog and basis set were built from different contexts")
    expected = {ctx.d2: OverlapCategory.SUB_D1, ctx.d1: OverlapCategory.SUB_D2, 1: OverlapCategory.FULL}
    pairs = []
    line_census = {ctx.d2: 0, ctx.d1: 0, 1: 0}
    overlap_census = {category: 0 for category in OverlapCategory}
    mismatch = None
    for (i, j), lc in catalog.pair_classes:
        oc = classify_pair(s, i, j, tol)
        if mismatch is None and expected[lc.intersection_size] is not oc.category:
            mismatch = (
                f"pair ({i}, {j}): intersection {lc.intersection_size} "
                f"against overlap class {oc.category.value}"
            )
        line_census[lc.intersection_size] += 1
        overlap_census[oc.category] += 1
        pairs.append(PairDuality(i, j, lc.intersection_size, lc.shared_component, oc.category))
    if mismatch is not None:
        raise DualityViolation(mismatch, overlap_census)
    return DualityReport(ctx, tuple(pairs), line_census, overlap_census, redundancy(ctx.d))
