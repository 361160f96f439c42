"""Lines through the origin of Z(d) x Z(d), the symplectic group acting on
them, and the combinatorics special to d = d1*d2 (distinct odd primes):
component-line factorization, the indexed catalog of maximal lines, pair
classification by intersection size, and the origin-only partition."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .zring import CrtContext, dedekind_psi, mod_inverse


class ModulusMismatch(ValueError):
    """Two objects living over different rings were combined."""


class NotMaximal(ValueError):
    """An operation defined only for maximal lines received a smaller one."""


class DetNotOne(ValueError):
    """A 2x2 matrix failed the unit-determinant requirement."""


@lru_cache(maxsize=None)
def units(d: int) -> tuple[int, ...]:
    return tuple(a for a in range(1, d) if math.gcd(a, d) == 1)


# ---------------------------------------------------------------------------
# lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Line:
    """The cyclic module {(a*nu, a*mu) : a in Z(d)}.

    Two generators give the same line exactly when they differ by a unit
    factor, so equality and hashing go through `canonical`, the
    lexicographically smallest unit multiple of the generator.
    """

    d: int
    generator: tuple[int, int]
    canonical: tuple[int, int]
    points: tuple[tuple[int, int], ...]

    @cached_property
    def point_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.points)

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def is_maximal(self) -> bool:
        return len(self.points) == self.d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Line):
            return NotImplemented
        return self.d == other.d and self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash((self.d, self.canonical))

    def __repr__(self) -> str:
        return f"Line(d={self.d}, generator={self.generator})"


def line(d: int, nu: int, mu: int) -> Line:
    """Materialize the line through the origin generated by (nu, mu).

    Coordinates are reduced to [0, d).  The point count is
    d / gcd(nu, mu, d); the all-zero generator yields the one-point line.
    """
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")
    nu %= d
    mu %= d
    pts = sorted({(nu * a % d, mu * a % d) for a in range(d)})
    canonical = min(((nu * u % d, mu * u % d) for u in units(d)))
    return Line(d, (nu, mu), canonical, tuple(pts))


class LineRelation(Enum):
    EQUAL = "equal"
    A_SUB_B = "a-inside-b"
    B_SUB_A = "b-inside-a"
    NEITHER = "neither"


def _same_modulus(a: Line, b: Line) -> None:
    if a.d != b.d:
        raise ModulusMismatch(f"lines over Z({a.d}) and Z({b.d})")


def line_relation(a: Line, b: Line) -> LineRelation:
    """Compare two lines over the same ring as point sets."""
    _same_modulus(a, b)
    if a.canonical == b.canonical:
        return LineRelation.EQUAL
    if a.point_set < b.point_set:
        return LineRelation.A_SUB_B
    if b.point_set < a.point_set:
        return LineRelation.B_SUB_A
    return LineRelation.NEITHER


def intersection(a: Line, b: Line) -> tuple[tuple[int, int], ...]:
    """Common points of two lines, sorted; always contains the origin."""
    _same_modulus(a, b)
    return tuple(sorted(a.point_set & b.point_set))


def lines_through_origin(d: int) -> dict[int, list[Line]]:
    """All lines through the origin with more than one point, keyed by size.

    Found by sweeping every generator and deduplicating on the canonical
    form.  For each divisor k > 1 of d there are dedekind_psi(k) lines of
    size k.
    """
    seen: dict[tuple[int, int], Line] = {}
    for nu in range(d):
        for mu in range(d):
            found = line(d, nu, mu)
            seen.setdefault(found.canonical, found)
    by_size: dict[int, list[Line]] = {}
    for found in seen.values():
        if found.size > 1:
            by_size.setdefault(found.size, []).append(found)
    return {
        size: sorted(group, key=lambda l: l.canonical)
        for size, group in sorted(by_size.items())
    }


# ---------------------------------------------------------------------------
# symplectic matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymplecticMatrix:
    """2x2 matrix (kappa, lam | mu, nu) over Z(d) with determinant 1."""

    d: int
    kappa: int
    lam: int
    mu: int
    nu: int

    def __post_init__(self) -> None:
        d = self.d
        if d < 2:
            raise ValueError(f"modulus must be >= 2, got {d}")
        for name in ("kappa", "lam", "mu", "nu"):
            object.__setattr__(self, name, getattr(self, name) % d)
        det = (self.kappa * self.nu - self.lam * self.mu) % d
        if det != 1:
            raise DetNotOne(f"det {self.token()} = {det} != 1 (mod {d})")

    @classmethod
    def identity(cls, d: int) -> SymplecticMatrix:
        return cls(d, 1, 0, 0, 1)

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return self.kappa, self.lam, self.mu, self.nu

    def compose(self, other: SymplecticMatrix) -> SymplecticMatrix:
        if self.d != other.d:
            raise ModulusMismatch(f"matrices over Z({self.d}) and Z({other.d})")
        return SymplecticMatrix(
            self.d,
            self.kappa * other.kappa + self.lam * other.mu,
            self.kappa * other.lam + self.lam * other.nu,
            self.mu * other.kappa + self.nu * other.mu,
            self.mu * other.lam + self.nu * other.nu,
        )

    def inverse(self) -> SymplecticMatrix:
        return SymplecticMatrix(self.d, self.nu, -self.lam, -self.mu, self.kappa)

    def act_point(self, point: tuple[int, int]) -> tuple[int, int]:
        x, y = point
        return (self.kappa * x + self.lam * y) % self.d, (self.mu * x + self.nu * y) % self.d

    def act_line(self, l: Line) -> Line:
        """Image line; same point count as the input (the action permutes lines)."""
        if l.d != self.d:
            raise ModulusMismatch(f"matrix over Z({self.d}), line over Z({l.d})")
        return line(self.d, *self.act_point(l.generator))

    def token(self) -> str:
        return f"g({self.kappa},{self.lam}|{self.mu},{self.nu})"


# ---------------------------------------------------------------------------
# factorization into component lines
# ---------------------------------------------------------------------------

def split_generator(
    generator: tuple[int, int], ctx: CrtContext
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Raw component generators: first coordinate by map1, second by map2."""
    nu, mu = generator
    nu1, nu2 = ctx.map1_split(nu)
    mu1, mu2 = ctx.map2_split(mu)
    return (nu1, mu1), (nu2, mu2)


def canonical_prime_generator(generator: tuple[int, int], p: int) -> tuple[int, int]:
    """Lexicographically smallest unit multiple of a generator over Z(p)."""
    a, b = generator[0] % p, generator[1] % p
    if a == 0:
        return (0, 0) if b == 0 else (0, 1)
    return 1, b * mod_inverse(a, p) % p


def factorize_line(l: Line, ctx: CrtContext) -> tuple[tuple[int, int], tuple[int, int]]:
    """Canonical component-line generators of a maximal line.

    The result does not depend on which generator of the line was stored:
    unit factors split into unit factors of both components, and the
    canonicalization removes them.
    """
    if l.d != ctx.d:
        raise ModulusMismatch(f"line over Z({l.d}), context for Z({ctx.d})")
    if not l.is_maximal:
        raise NotMaximal(f"line with {l.size} points cannot be factorized")
    raw1, raw2 = split_generator(l.generator, ctx)
    return canonical_prime_generator(raw1, ctx.d1), canonical_prime_generator(raw2, ctx.d2)


def product_generator(
    comp1: tuple[int, int], comp2: tuple[int, int], ctx: CrtContext
) -> tuple[int, int]:
    """Generator of the product line with the given component generators."""
    return ctx.map1_join(comp1[0], comp2[0]), ctx.map2_join(comp1[1], comp2[1])


def product_points(
    comp1: Line, comp2: Line, ctx: CrtContext
) -> frozenset[tuple[int, int]]:
    """Point set of the product of two component lines under the point map."""
    return frozenset(
        ctx.point_unmap(m1, m2, n1, n2)
        for (m1, n1) in comp1.points
        for (m2, n2) in comp2.points
    )


# ---------------------------------------------------------------------------
# the catalog of maximal lines
# ---------------------------------------------------------------------------

def component_generator(p: int, lam: int | None) -> tuple[int, int]:
    """Canonical generator of the lam-indexed line over the prime ring Z(p).

    `None` stands for the vertical line (0, 1); the value lam in Z(p) stands
    for its image under g(0,1|-1,-lam), which is generated by (1, -lam).
    """
    return (0, 1) if lam is None else (1, -lam % p)


def sweep_matrix(ctx: CrtContext, lam1: int | None, lam2: int | None) -> SymplecticMatrix:
    """Matrix over Z(d) whose action on the vertical line produces the
    catalog entry with component indices (lam1, lam2).

    The same matrix labels the basis with factor sweep values (lam1, lam2).
    """
    d, s1, s2, t1, t2 = ctx.d, ctx.s1, ctx.s2, ctx.t1, ctx.t2
    if lam1 is None and lam2 is None:
        return SymplecticMatrix.identity(d)
    if lam1 is None:
        return SymplecticMatrix(d, s1, t2 * s2, -ctx.d1, s1 - lam2 * s2)
    if lam2 is None:
        return SymplecticMatrix(d, s2, t1 * s1, -ctx.d2, s2 - lam1 * s1)
    eta = t1 * t1 * ctx.d2 + t2 * t2 * ctx.d1
    return SymplecticMatrix(d, 0, eta, -ctx.d1 - ctx.d2, -lam1 * s1 - lam2 * s2)


@dataclass(frozen=True)
class CatalogEntry:
    """One maximal line with its index, generating matrix, and components.

    `generator` is the display form: canonical component generators joined
    back through the two CRT maps, so it is the point of the line whose
    component coordinates are exactly the component generators.
    """

    index: int
    line: Line
    generator: tuple[int, int]
    matrix: SymplecticMatrix
    comp1: tuple[int, int]
    comp2: tuple[int, int]
    lambda1: int | None
    lambda2: int | None


@dataclass(frozen=True)
class MaximalLineCatalog:
    ctx: CrtContext
    entries: tuple[CatalogEntry, ...]

    def entry(self, index: int) -> CatalogEntry:
        """1-based lookup matching the printed index."""
        return self.entries[index - 1]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @cached_property
    def pair_classes(self) -> LinePairs:
        """Every unordered index pair i < j in row-major order with its
        intersection size, classified once per catalog in one array pass."""
        i, j = np.triu_indices(len(self.entries), k=1)
        sizes = _intersection_sizes([e.line for e in self.entries], i, j, self.ctx)
        return LinePairs(i + 1, j + 1, sizes)


def catalog_index(ctx: CrtContext, i1: int, i2: int) -> int:
    """1-based catalog index of the entry with component indices (i1, i2).

    Component index 0 means the vertical line, index k >= 1 the sweep value
    lam = k - 1.  The layout is: the all-vertical entry first, then the
    second-component sweep, then the first-component sweep, then the double
    sweep in row-major order.
    """
    d1, d2 = ctx.d1, ctx.d2
    if not (0 <= i1 <= d1 and 0 <= i2 <= d2):
        raise ValueError(f"component indices ({i1}, {i2}) out of range")
    if i1 == 0 and i2 == 0:
        return 1
    if i1 == 0:
        return 2 + (i2 - 1)
    if i2 == 0:
        return 2 + d2 + (i1 - 1)
    return 2 + d1 + d2 + (i2 - 1) + (i1 - 1) * d2


def maximal_line_catalog(ctx: CrtContext) -> MaximalLineCatalog:
    """Enumerate all dedekind_psi(d) maximal lines in the standard order.

    Every entry is verified on construction in both of its guises: the
    attached matrix must map the vertical line onto it, and its point set
    must equal the product of its component lines under the point map.
    The matrix route compares generators: over squarefree d two maximal
    lines are equal iff det[a; b] = 0 (mod d), and the image g*(0, 1) of the
    vertical line is maximal because g is invertible (the entry line is
    maximal once the product route matches its d points).
    """
    comp_lines = {
        1: {lam: line(ctx.d1, *component_generator(ctx.d1, lam)) for lam in (None, *range(ctx.d1))},
        2: {lam: line(ctx.d2, *component_generator(ctx.d2, lam)) for lam in (None, *range(ctx.d2))},
    }
    entries = []
    for i1, lam1 in enumerate((None, *range(ctx.d1))):
        for i2, lam2 in enumerate((None, *range(ctx.d2))):
            index = catalog_index(ctx, i1, i2)
            comp1 = component_generator(ctx.d1, lam1)
            comp2 = component_generator(ctx.d2, lam2)
            generator = product_generator(comp1, comp2, ctx)
            entry_line = line(ctx.d, *generator)
            matrix = sweep_matrix(ctx, lam1, lam2)
            (x, y), (nu, mu) = matrix.act_point((0, 1)), entry_line.generator
            if (x * mu - y * nu) % ctx.d:
                raise RuntimeError(f"catalog entry {index}: matrix route disagrees")
            if product_points(comp_lines[1][lam1], comp_lines[2][lam2], ctx) != entry_line.point_set:
                raise RuntimeError(f"catalog entry {index}: product route disagrees")
            entries.append(
                CatalogEntry(index, entry_line, generator, matrix, comp1, comp2, lam1, lam2)
            )
    entries.sort(key=lambda e: e.index)
    if len(entries) != dedekind_psi(ctx.d):
        raise RuntimeError("catalog size does not match the maximal-line count")
    return MaximalLineCatalog(ctx, tuple(entries))


# ---------------------------------------------------------------------------
# pair classification and counting
# ---------------------------------------------------------------------------

class SharedComponent(Enum):
    NONE = "none"
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class LinePairClass:
    intersection_size: int
    shared_component: SharedComponent


class LinePairs(NamedTuple):
    """Index pairs (i[k], j[k]), 1-based, of maximal lines sharing size[k] points."""

    i: np.ndarray
    j: np.ndarray
    size: np.ndarray

    def census(self, ctx: CrtContext) -> dict[int, int]:
        """Counts of the pairs keyed by intersection size: d2, d1 and 1."""
        return {size: int(np.count_nonzero(self.size == size)) for size in (ctx.d2, ctx.d1, 1)}


def _intersection_sizes(
    lines: list[Line], i: np.ndarray, j: np.ndarray, ctx: CrtContext
) -> np.ndarray:
    """Common-point counts of the distinct maximal lines lines[i[k]] and lines[j[k]].

    The size is computed twice, as gcd(det[a;b], d) of the two generators
    (squarefree d: the lines coincide modulo exactly the primes dividing the
    determinant) and by the component rule (d2 common points iff the second
    components coincide, d1 iff the first do, 1 otherwise), with one
    factorization per line; the first disagreeing pair means a bug and raises.
    """
    nu, mu = np.array([l.generator for l in lines], dtype=np.int64).T
    comps = np.array([factorize_line(l, ctx) for l in lines], dtype=np.int64)  # [line, factor, 2]
    sizes = np.gcd((nu[i] * mu[j] - mu[i] * nu[j]) % ctx.d, ctx.d)
    same = (comps[i] == comps[j]).all(axis=-1)
    expected = np.where(same[:, 1], ctx.d2, np.where(same[:, 0], ctx.d1, 1))
    wrong = np.flatnonzero(sizes != expected)
    if wrong.size:
        k = wrong[0]
        raise RuntimeError(
            f"component rule predicts {expected[k]} common points, determinant gives {sizes[k]}"
        )
    return sizes


def classify_line_pair(a: Line, b: Line, ctx: CrtContext) -> LinePairClass:
    """Classify a pair of distinct maximal lines by intersection size, with
    the two cross-checked routes of the catalog's pair pass."""
    if a.d != ctx.d or b.d != ctx.d:
        raise ModulusMismatch("lines and context use different moduli")
    if not (a.is_maximal and b.is_maximal):
        raise NotMaximal("pair classification needs two maximal lines")
    if a == b:
        raise ValueError("pair classification needs two distinct lines")
    size = int(_intersection_sizes([a, b], np.array([0]), np.array([1]), ctx)[0])
    shared = {ctx.d2: SharedComponent.SECOND, ctx.d1: SharedComponent.FIRST, 1: SharedComponent.NONE}
    return LinePairClass(size, shared[size])


def pair_census(ctx: CrtContext, catalog: MaximalLineCatalog | None = None) -> dict[int, int]:
    """Counts of unordered maximal-line pairs keyed by intersection size."""
    if catalog is None:
        catalog = maximal_line_catalog(ctx)
    return catalog.pair_classes.census(ctx)


def redundancy(d: int) -> Fraction:
    """dedekind_psi(d)/(d+1) - 1, exactly.

    Measures how far the geometry is from near-linear: 0 for prime d, where
    two lines meet in at most one point.
    """
    return Fraction(dedekind_psi(d), d + 1) - 1


# ---------------------------------------------------------------------------
# matrix factorization
# ---------------------------------------------------------------------------

def matrix_factorize(
    g: SymplecticMatrix, ctx: CrtContext
) -> tuple[SymplecticMatrix, SymplecticMatrix]:
    """Component matrices of g over Z(d1) and Z(d2).

    Diagonal entries and lam split by map1 (lam picking up a factor r_i),
    mu splits by map2.  The components act on component lines exactly as g
    acts on the product line.
    """
    if g.d != ctx.d:
        raise ModulusMismatch(f"matrix over Z({g.d}), context for Z({ctx.d})")
    k1, k2 = ctx.map1_split(g.kappa)
    l1, l2 = ctx.map1_split(g.lam)
    n1, n2 = ctx.map1_split(g.nu)
    m1, m2 = ctx.map2_split(g.mu)
    return (
        SymplecticMatrix(ctx.d1, k1, l1 * ctx.r1, m1, n1),
        SymplecticMatrix(ctx.d2, k2, l2 * ctx.r2, m2, n2),
    )


# ---------------------------------------------------------------------------
# origin-only partition
# ---------------------------------------------------------------------------

def partition_lines(
    ctx: CrtContext, catalog: MaximalLineCatalog | None = None
) -> list[tuple[int, ...]]:
    """Partition the catalog into d2+1 sets of d1+1 lines meeting only at 0.

    Set n collects the entries whose component indices are (i, i+n) with the
    second index cyclic over the d2+1 component lines; membership is found by
    matching component generators, and each set is reported as sorted
    catalog indices.
    """
    if catalog is None:
        catalog = maximal_line_catalog(ctx)
    by_components = {(e.comp1, e.comp2): e.index for e in catalog.entries}
    first = [component_generator(ctx.d1, lam) for lam in (None, *range(ctx.d1))]
    second = [component_generator(ctx.d2, lam) for lam in (None, *range(ctx.d2))]
    sets = []
    for n in range(ctx.d2 + 1):
        members = sorted(
            by_components[(first[i], second[(i + n) % (ctx.d2 + 1)])]
            for i in range(ctx.d1 + 1)
        )
        sets.append(tuple(members))
    return sets
