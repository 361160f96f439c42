"""The full set of weak mutually unbiased bases for d = d1*d2: construction
as tensor products of prime-dimension mutually unbiased bases, overlap
classification of every pair into the three admissible templates, the
census, the mutually-unbiased partition, and the pairwise duality report
against the maximal-line catalog."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property

import numpy as np

from .geometry import (
    MaximalLineCatalog, _intersection_sizes, _pair_blocks, partition_lines, prime_sweep_labels, split_entries
)
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
# d = 95); `_check_tolerance` rejects anything larger, and anything below 0.
OVERLAP_ATOL = 1e-9


def _check_tolerance(tol: float, d: int) -> None:
    if not 0 <= tol <= 0.5 / d:  # also rejects nan
        raise ValueError(f"tolerance must lie in [0, 1/(2d)] = [0, {0.5 / d:.4g}] at d={d}, got {tol:g}")


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
class FactorFamily:
    """A family of p+1 factor bases of C^p, as one read-only (p+1, p, p)
    stack, with the certificates the factor gates read of it.  Each is a
    fact about the stack alone, so it is computed on first use and kept on
    the family: `extrema`, `unitarity`, `row_norms` and `residuals`.  Row k
    of the stack is factor slot k, whose label is `prime_sweep_labels(p)[k]`.

    `factor_family(p)` keeps one family of `prime_mub(p)` per process.  A
    family made from any other stack is certified afresh, on its own; the
    family marks the stack it is given read-only.
    """

    stack: np.ndarray

    def __post_init__(self) -> None:
        self.stack.setflags(write=False)

    @cached_property
    def extrema(self) -> np.ndarray:
        """The `_factor_extrema` of the stack."""
        return _factor_extrema(self.stack)

    @cached_property
    def unitarity(self) -> float:
        """The largest `unitarity_defect` of the p+1 bases; NaN propagates."""
        return float(np.max(unitarity_defect(self.stack)))

    @cached_property
    def row_norms(self) -> np.ndarray:
        """The largest row 2-norm of each basis, by slot."""
        norms = np.linalg.norm(self.stack, axis=2).max(axis=1)
        norms.setflags(write=False)
        return norms

    @cached_property
    def residuals(self) -> np.ndarray:
        """The `conjugation_defect` residual of each basis against the label
        of its slot, by slot, from one kernel call on the whole stack."""
        p = self.stack.shape[-1]
        residuals = conjugation_defect(p, self.stack, tuple(prime_sweep_labels(p).T))
        residuals.setflags(write=False)
        return residuals


@cache
def factor_family(p: int) -> FactorFamily:
    """The `FactorFamily` of `prime_mub(p)`, built and certified once per
    process; `prime_mub` raises for p above MAX_DIM or not an odd prime."""
    return FactorFamily(prime_mub(p))


@dataclass(frozen=True, eq=False)
class WmubSet:
    """The indexed family of weak mutually unbiased bases over C^d.

    Indexing is 1-based and follows `catalog_layout`: row j - 1 of each
    array belongs to basis j.  `families` holds the two prime-dimension
    families the bases are tensor products of, each a `FactorFamily` of the
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
    families: tuple[FactorFamily, FactorFamily]

    def __len__(self) -> int:
        return len(self.slots)


def build_wmub(catalog: MaximalLineCatalog) -> WmubSet:
    """The dedekind_psi(d) weak mutually unbiased bases of the catalog's
    context, paired index by index with its lines: the catalog's component
    indices as slots, its sweep matrices as labels, and the two
    prime-dimension factor families of `factor_family`; no d x d matrix is
    formed.

    `d` is not capped here; `prime_mub` caps each factor prime at MAX_DIM.
    """
    ctx = catalog.ctx
    families = (factor_family(ctx.d1), factor_family(ctx.d2))
    return WmubSet(ctx, catalog.components, catalog.matrices, families)


def unitarity_bound(s: WmubSet) -> float:
    """Upper bound on the max-norm unitarity defect of every basis, from the
    factor families alone.

    B^dag B is the CRT relabelling of (I + E1) (x) (I + E2) for the factor
    defects E1 and E2, so with e_i the largest defect over the d_i+1 bases
    of factor i, every |B^dag B - I| entry is at most e1 + e2 + e1*e2.
    One `unitarity_defect` call per family, kept on the family; a NaN
    defect propagates.
    """
    e1, e2 = (family.unitarity for family in s.families)
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
    X^t_i (X^t is also X^-(d_i - t_i)).

    All labels are split in one array pass; each component label must equal
    the `prime_sweep_labels` row of its factor slot exactly, which by the CRT
    also gives the label determinant 1, so r_i is the residual of that slot,
    measured once per family (`FactorFamily.residuals`).  Raises RuntimeError
    when the relabelling check fails or a label does not split into the
    labels of its factor slots, naming the first such basis.
    """
    ctx = s.ctx
    check_crt_relabelling(ctx)
    powers = (min(ctx.t1, ctx.d1 - ctx.t1), min(ctx.t2, ctx.d2 - ctx.t2))
    fits = [
        (np.array(comp) == prime_sweep_labels(di)[slots].T).all(axis=0)
        for di, slots, comp in zip((ctx.d1, ctx.d2), s.slots.T, split_entries(s.labels.T, ctx))
    ]
    bad = np.flatnonzero(~(fits[0] & fits[1]))
    if bad.size:
        j = int(bad[0]) + 1
        k, l, m, n = s.labels[j - 1].tolist()
        raise RuntimeError(f"B_{j} label X({k},{l}|{m},{n}) does not split into its factor slots' labels")
    (r1, c1), (r2, c2) = (
        (power * family.residuals[slots], family.row_norms[slots])
        for power, family, slots in zip(powers, s.families, s.slots.T)
    )
    return float((r1 * c2 + c1 * r2).max())


def _check_indices(s: WmubSet, i, j) -> None:
    """Check one pair of basis indices taken from outside the program: two
    integer scalars (TypeError otherwise, bools included) in 1..psi (IndexError)."""
    for index in (i, j):
        if np.ndim(index):
            raise TypeError(f"basis indices must be scalars, got shape {np.shape(index)}")
        if np.asarray(index).dtype.kind not in "iu":
            raise TypeError(f"basis indices must be integers, got dtype {np.asarray(index).dtype}")
    if not (1 <= i <= len(s) and 1 <= j <= len(s)):
        raise IndexError(f"basis indices ({i}, {j}) out of range 1..{len(s)}")


def overlap_table(s: WmubSet, i: int, j: int) -> np.ndarray:
    """Magnitudes |<B_j; n | B_i; m>| for the pair (i, j), as an (n, m) table.

    The dense d x d product of the two bases, each assembled from its factor
    slots; `classify_pair` does not read it, so it stands as the independent
    route for tests.
    """
    _check_indices(s, i, j)
    stack1, stack2 = (family.stack for family in s.families)
    bj, bi = (
        assemble_tensor_basis(stack1[slot1], stack2[slot2], s.ctx)
        for slot1, slot2 in s.slots[[j - 1, i - 1]]
    )
    return np.abs(bj.conj().T @ bi)


def _residuals(s: WmubSet, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """How far the 0-based pairs (i[k], j[k]) of distinct bases, unchecked, are from
    each template, as one (3, len(i)) array in `_CATEGORIES` order: a pair fits a
    template within tol exactly when its residual there is <= tol.  None reads a
    tolerance, each is >= 0, and a NaN in a table's extrema stays NaN.

    The flat residual is max(top - 1/d, 1/d - bottom) with top = max1*max2 and
    bottom = min1*min2; the d1**-0.5 one is max(max1*dmax2 - 1/d1, 1/d1 -
    min1*dmin2, max1*off2), and the d2**-0.5 one its mirror (`classify_pair`).
    """
    # Each factor's fields at the pairs' slots, [field, pair], by flat index.
    (max1, min1, dmax1, dmin1, off1), (max2, min2, dmax2, dmin2, off2) = (
        family.extrema.reshape(5, -1).take(s.slots[j, f] * len(family.stack) + s.slots[i, f], axis=1)
        for f, family in enumerate(s.families)
    )
    ctx, residuals = s.ctx, np.empty((len(_CATEGORIES), len(i)))
    # Each template's products are formed in its own iteration, so only one
    # template's temporaries are alive at a time.
    for code, (top1, top2), (bottom1, bottom2), off, value in (
        (0, (max1, dmax2), (min1, dmin2), (max1, off2), 1.0 / ctx.d1),
        (1, (dmax1, max2), (dmin1, min2), (off1, max2), 1.0 / ctx.d2),
        (2, (max1, max2), (min1, min2), None, 1.0 / ctx.d),
    ):
        np.maximum(top1 * top2 - value, value - bottom1 * bottom2, out=residuals[code])
        if off is not None:
            np.maximum(residuals[code], off[0] * off[1], out=residuals[code])
    return residuals


# The order in which a pair's templates are tried, as positions in `_CATEGORIES`:
# flat first, then d1**-0.5, then d2**-0.5.
_FIRST_FIT = (2, 0, 1)


def _match(s: WmubSet, i: np.ndarray, j: np.ndarray, tol: float):
    """Match the 0-based pairs (i[k], j[k]) of distinct bases, unchecked, against the
    templates in `_FIRST_FIT` order.

    Returns each pair's category position in the first template whose
    `_residuals` entry is <= tol, -1 if none, and the flat residual of every pair.
    """
    residuals = _residuals(s, i, j)
    fits = residuals <= tol
    codes = np.full(len(i), -1)
    for code in reversed(_FIRST_FIT):
        codes[fits[code]] = code
    return codes, residuals[2]


def classify_pair(s: WmubSet, i: int, j: int, tol: float = OVERLAP_ATOL) -> OverlapCategory:
    """The category of the template the overlap table of a pair fits.

    B_j^dag B_i is the CRT re-indexing of (b1_j^dag b1_i) (x) (b2_j^dag b2_i),
    and n = m (mod d2) exactly when the second residues agree (likewise for
    d1), so the squared table is T1[n1, m1] * T2[n2, m2] with the template
    support a product region.  Every entry-wise `<= tol` test of a template
    then reduces to products of factor-table extrema (`FactorFamily.extrema`):
    e.g. the d1**-0.5 template holds iff max T1 * max diag T2 - 1/d1,
    1/d1 - min T1 * min diag T2 and max T1 * max offdiag T2 are all <= tol.
    No d x d table is formed; `unitarity_bound` and `conjugation_bound`
    tie the same factor families to the labels.  This is the census of
    the one pair.  A tolerance outside [0, 1/(2d)] or i == j raises
    ValueError, and bad indices raise as `_check_indices` says; a table
    fitting no template raises NotWeaklyUnbiased, which signals a
    construction bug rather than a user error.
    """
    _check_tolerance(tol, s.ctx.d)
    _check_indices(s, i, j)
    if i == j:
        raise ValueError(f"pair classification needs two distinct bases, got ({i}, {j})")
    return _CATEGORIES[_census(s, np.array([i - 1]), np.array([j - 1]), tol)[0]]


def _census(s: WmubSet, i: np.ndarray, j: np.ndarray, tol: float) -> np.ndarray:
    """The category positions of the pairs (i[k], j[k]), 0-based and unchecked, as `_match`
    reads them; the first unfit pair in the given order raises NotWeaklyUnbiased, naming
    the pair 1-based with its flat-template residual.  The caller checks the tolerance."""
    codes, flat = _match(s, i, j, tol)
    unfit = np.flatnonzero(codes < 0)
    if unfit.size:
        k = unfit[0]
        raise NotWeaklyUnbiased(
            f"bases ({i[k] + 1}, {j[k] + 1}) fit no overlap template within {tol} "
            f"(flat-template residual {flat[k]:.3e})"
        )
    return codes


def wmub_census(s: WmubSet, tol: float = OVERLAP_ATOL) -> dict[OverlapCategory, int]:
    """Count unordered basis pairs per overlap category, a block of
    `_pair_blocks` at a time; a tolerance outside [0, 1/(2d)] raises ValueError."""
    _check_tolerance(tol, s.ctx.d)
    codes = (_census(s, i, j, tol) for _, i, j in _pair_blocks(len(s)))
    counts = sum(np.bincount(block, minlength=len(_CATEGORIES)) for block in codes)
    return dict(zip(_CATEGORIES, counts.tolist()))


def partition_bases(s: WmubSet) -> np.ndarray:
    """Partition the set into d2+1 groups of d1+1 pairwise unbiased bases:
    the read-only (d2+1, d1+1) grid of `partition_lines`, as for the lines."""
    return partition_lines(s.ctx)


@dataclass(frozen=True)
class DualityReport:
    """The overlap census and `mismatch`, the first pair in row-major order
    whose classes disagree (None if all agree)."""

    overlap_census: dict[OverlapCategory, int]
    mismatch: str | None = None


def duality_report(catalog: MaximalLineCatalog, s: WmubSet, tol: float = OVERLAP_ATOL) -> DualityReport:
    """Certify the pairwise dictionary between lines and bases in one pass,
    a block of `_pair_blocks` at a time: the basis pairs of lines meeting in
    d2, d1 and 1 points (`pair_classes`) must fit the d1**-0.5, d2**-0.5 and
    flat templates.  A tolerance outside [0, 1/(2d)] raises ValueError, and
    the first pair in row-major order that fits no template
    NotWeaklyUnbiased; the first mismatched pair is named in `mismatch`."""
    ctx = s.ctx
    if catalog.ctx != ctx:
        raise ValueError("catalog and basis set were built from different contexts")
    _check_tolerance(tol, ctx.d)
    classes = catalog.pair_classes
    counts, mismatch = np.zeros(len(_CATEGORIES), dtype=np.int64), None
    for at, i, j in _pair_blocks(len(s)):
        codes = _census(s, i, j, tol)
        counts += np.bincount(codes, minlength=len(_CATEGORIES))
        mismatched = np.flatnonzero(codes != classes[at])
        if mismatch is None and mismatched.size:
            k = mismatched[0]
            size, category = (ctx.d2, ctx.d1, 1)[classes[at][k]], _CATEGORIES[codes[k]].value
            mismatch = f"pair ({i[k] + 1}, {j[k] + 1}): intersection {size} against overlap class {category}"
    return DualityReport(dict(zip(_CATEGORIES, counts.tolist())), mismatch)


def _window(classes: np.ndarray, residuals: np.ndarray) -> tuple[float, float]:
    """(W, E) of a block of pairs with line classes `classes` and `_residuals`:
    the largest residual of each pair against its own class's template, and
    the smallest against a template that comes before it in `_FIRST_FIT`.
    A NaN at any of these makes W or E NaN."""
    own = residuals[classes, np.arange(len(classes))]
    # The flat template comes before both others, d1**-0.5 before d2**-0.5.
    earlier = np.minimum(np.where(classes != 2, residuals[2], np.inf), np.where(classes == 1, residuals[0], np.inf))
    return float(own.max()), float(earlier.min())


@dataclass(frozen=True, eq=False)
class PairCertificate:
    """What `verify`'s pair checks read of a catalog and a basis set, none of
    it the tolerance, each fact computed on first use and kept on the
    certificate; a fact that raises is not kept.  Nothing per pair is kept.

    `window` is (W, E): every pair's code is its line class exactly at the
    tolerances W <= tol < E, since there its own template fits and no
    template tried before it does.  So inside the window the overlap census
    is the catalog's `class_counts` and no pair is mismatched or unfit;
    outside it some pair's code differs from its class, and `duality` runs
    the pass of `duality_report`, which words the failure.
    """

    catalog: MaximalLineCatalog
    s: WmubSet

    @classmethod
    def of(cls, catalog: MaximalLineCatalog) -> PairCertificate:
        """The certificate of the set that this module's `build_wmub` makes of
        the catalog, whatever another module binds to that name."""
        return cls(catalog, build_wmub(catalog))

    def certifies(self, catalog: MaximalLineCatalog, s: WmubSet) -> bool:
        """Whether this is the certificate of `s` against `catalog`: the same
        catalog, and the same context, slots, labels and families, each the
        same object."""
        own = self.s
        same = ((own.ctx, s.ctx), (own.slots, s.slots), (own.labels, s.labels), *zip(own.families, s.families))
        return self.catalog is catalog and all(a is b for a, b in same)

    @cached_property
    def conjugation(self) -> float:
        """The `conjugation_bound` of the set."""
        return conjugation_bound(self.s)

    @cached_property
    def window(self) -> tuple[float, float]:
        """(W, E) over every pair, from one `_residuals` pass per block of
        `_pair_blocks`; a set of another context raises ValueError."""
        if self.catalog.ctx != self.s.ctx:
            raise ValueError("catalog and basis set were built from different contexts")
        classes = self.catalog.pair_classes
        w, e = np.array([_window(classes[at], _residuals(self.s, i, j)) for at, i, j in _pair_blocks(len(self.s))]).T
        return float(w.max()), float(e.min())

    @cached_property
    def partitions(self) -> tuple[bool, float]:
        """Whether the one grid of `partition_lines`, shared by both sides, has
        d2+1 groups of d1+1 that cover 1..psi exactly once and whose lines meet
        pairwise only at the origin; and the largest flat residual of the
        basis pairs of a group.  Both pair passes run on the group pairs alone."""
        ctx = self.catalog.ctx
        grid = partition_lines(ctx) - 1  # [group, member], 0-based
        if grid.shape != (ctx.d2 + 1, ctx.d1 + 1):
            return False, math.nan
        if not np.array_equal(np.sort(grid, axis=None), np.arange(len(self.catalog))):
            return False, math.nan
        first, second = np.triu_indices(ctx.d1 + 1, k=1)
        a, b = grid[:, first].ravel(), grid[:, second].ravel()
        sizes = _intersection_sizes(self.catalog.generators, self.catalog._keys, a, b, ctx)
        return bool((sizes == 1).all()), float(_residuals(self.s, a, b)[2].max())

    def duality(self, tol: float) -> DualityReport:
        """`duality_report(catalog, s, tol)`, from the catalog's class counts
        inside the window and from its pass outside it."""
        _check_tolerance(tol, self.s.ctx.d)
        w, e = self.window
        if w <= tol < e:
            return DualityReport(dict(zip(_CATEGORIES, self.catalog.class_counts)))
        return duality_report(self.catalog, self.s, tol)

    def partitions_hold(self, tol: float) -> bool:
        """What the paper claims of the partition grid: the grid facts of
        `partitions` hold and the bases of each group are unbiased within tol."""
        _check_tolerance(tol, self.catalog.ctx.d)
        grid, flat = self.partitions
        return grid and flat <= tol
