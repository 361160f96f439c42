"""Lines through the origin of Z(d) x Z(d) as generators, the symplectic
group acting on them, and the combinatorics special to d = d1*d2 (distinct
odd primes): component-line factorization, the one catalog layout and the
catalog of maximal lines, pair classification, and the partition."""

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
    """The cyclic module {(a*nu, a*mu) : a in Z(d)}, kept as its generator.

    It has d / gcd(nu, mu, d) points.  Two generators give the same line
    exactly when they differ by a unit factor, so equality and hashing go
    through `canonical`, the lexicographically smallest unit multiple of
    the generator, found on first use.
    """

    d: int
    generator: tuple[int, int]

    @cached_property
    def canonical(self) -> tuple[int, int]:
        nu, mu = self.generator
        return min((nu * u % self.d, mu * u % self.d) for u in units(self.d))

    @property
    def size(self) -> int:
        return self.d // math.gcd(*self.generator, self.d)

    @property
    def is_maximal(self) -> bool:
        return self.size == self.d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Line):
            return NotImplemented
        return self.d == other.d and self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash((self.d, self.canonical))


def line(d: int, nu: int, mu: int) -> Line:
    """The line through the origin generated by (nu, mu), with coordinates
    reduced to [0, d); the all-zero generator yields the one-point line."""
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")
    return Line(d, (nu % d, mu % d))


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

    def act_point(self, point: tuple[int, int]) -> tuple[int, int]:
        x, y = point
        return (self.kappa * x + self.lam * y) % self.d, (self.mu * x + self.nu * y) % self.d

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


def check_point_map(ctx: CrtContext) -> None:
    """Certify in one pass over Z(d) that each CRT join undoes its split
    (map1 on the first coordinate, map2 on the second), or raise RuntimeError.
    Both sides have d elements, so the linear point map is then an
    isomorphism Z(d)^2 -> Z(d1)^2 x Z(d2)^2: it sends the line of (nu, mu)
    onto the product of the component lines of `split_generator(nu, mu)`."""
    m = np.arange(ctx.d)
    for name, split, join in (("map1", ctx.map1_split, ctx.map1_join),
                              ("map2", ctx.map2_split, ctx.map2_join)):
        if not (join(*split(m)) == m).all():
            raise RuntimeError(f"CRT point map: {name}_join does not invert {name}_split")


def _same_prime_line(a: tuple[int, int], b: tuple[int, int], p: int) -> bool:
    """Whether a and b span the same line over Z(p): a zero determinant, and both or neither zero."""
    zero = lambda v: v[0] % p == 0 and v[1] % p == 0
    return (a[0] * b[1] - a[1] * b[0]) % p == 0 and zero(a) == zero(b)


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


class CatalogLayout(NamedTuple):
    """The one index layout of the catalog and the basis set.

    `components[index - 1]` holds the component indices (i1, i2) of each
    1-based index: the all-vertical entry first, then the second-component
    sweep, the first-component sweep, and the double sweep in row-major
    order.  `sets[n]` holds the sorted indices of the components
    (i, i+n mod d2+1) for i = 0..d1: the origin-only partition.
    """

    components: np.ndarray
    sets: list[tuple[int, ...]]


def catalog_layout(ctx: CrtContext) -> CatalogLayout:
    d1, d2 = ctx.d1, ctx.d2
    components = np.array(
        [(0, 0)]
        + [(0, k2) for k2 in range(1, d2 + 1)]
        + [(k1, 0) for k1 in range(1, d1 + 1)]
        + [(k1, k2) for k1 in range(1, d1 + 1) for k2 in range(1, d2 + 1)]
    )
    index = np.empty((d1 + 1, d2 + 1), dtype=np.int64)
    index[components[:, 0], components[:, 1]] = np.arange(1, len(components) + 1)
    i = np.arange(d1 + 1)
    grid = index[i, (i + np.arange(d2 + 1)[:, None]) % (d2 + 1)]  # [n, i]
    return CatalogLayout(components, [tuple(row) for row in np.sort(grid, axis=1).tolist()])


def partition_lines(ctx: CrtContext) -> list[tuple[int, ...]]:
    """Partition the catalog into d2+1 sets of d1+1 lines meeting only at 0,
    as sorted catalog indices: the sets of `catalog_layout`."""
    return catalog_layout(ctx).sets


def sweep_value(k: int) -> int | None:
    """Component index 0 is the vertical line (the position basis), index
    k >= 1 the sweep value k - 1 (also its position in `prime_mub` order)."""
    return None if k == 0 else k - 1


def component_index(lam: int | None) -> int:
    return 0 if lam is None else lam + 1


def maximal_line_catalog(ctx: CrtContext) -> MaximalLineCatalog:
    """Enumerate all dedekind_psi(d) maximal lines in `catalog_layout` order.

    Every entry is verified on construction in both of its guises, from
    generators alone.  Product route: with the point map certified once
    per context, the entry line is the product of its component lines iff
    its split generator spans comp1 over Z(d1) and comp2 over Z(d2), and
    gcd(nu, mu, d) = 1 makes it maximal.  Matrix route: the attached matrix
    must map the vertical line onto it; over squarefree d two maximal lines
    are equal iff det[a; b] = 0 (mod d).
    """
    check_point_map(ctx)
    entries = []
    for index, (i1, i2) in enumerate(catalog_layout(ctx).components.tolist(), start=1):
        lam1, lam2 = sweep_value(i1), sweep_value(i2)
        comp1, comp2 = component_generator(ctx.d1, lam1), component_generator(ctx.d2, lam2)
        nu, mu = generator = product_generator(comp1, comp2, ctx)
        raw1, raw2 = split_generator(generator, ctx)
        if math.gcd(nu, mu, ctx.d) != 1 or not (
            _same_prime_line(raw1, comp1, ctx.d1) and _same_prime_line(raw2, comp2, ctx.d2)
        ):
            raise RuntimeError(f"catalog entry {index}: product route disagrees")
        matrix = sweep_matrix(ctx, lam1, lam2)
        x, y = matrix.act_point((0, 1))
        if (x * mu - y * nu) % ctx.d:
            raise RuntimeError(f"catalog entry {index}: matrix route disagrees")
        entries.append(CatalogEntry(index, line(ctx.d, nu, mu), generator, matrix, comp1, comp2, lam1, lam2))
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


def pair_census(ctx: CrtContext, catalog: MaximalLineCatalog) -> dict[int, int]:
    """Counts of unordered maximal-line pairs keyed by intersection size."""
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

def split_entries(entries, ctx: CrtContext):
    """Component entries over Z(d1) and Z(d2) of (kappa, lam, mu, nu) over Z(d).

    Diagonal entries and lam split by map1 (lam picking up a factor r_i),
    mu splits by map2; each component entry is reduced mod its d_i.  The
    entries may be ints or integer arrays of equal shape (one label per
    position), so `matrix_factorize` and the label pass of
    `bases.conjugation_bound` share this one rule.
    """
    kappa, lam, mu, nu = entries
    k1, k2 = ctx.map1_split(kappa)
    l1, l2 = ctx.map1_split(lam)
    m1, m2 = ctx.map2_split(mu)
    n1, n2 = ctx.map1_split(nu)
    return (k1, l1 * ctx.r1 % ctx.d1, m1, n1), (k2, l2 * ctx.r2 % ctx.d2, m2, n2)


def matrix_factorize(
    g: SymplecticMatrix, ctx: CrtContext
) -> tuple[SymplecticMatrix, SymplecticMatrix]:
    """Component matrices of g over Z(d1) and Z(d2), split by `split_entries`.

    The components act on component lines exactly as g acts on the product
    line.
    """
    if g.d != ctx.d:
        raise ModulusMismatch(f"matrix over Z({g.d}), context for Z({ctx.d})")
    c1, c2 = split_entries(g.entries, ctx)
    return SymplecticMatrix(ctx.d1, *c1), SymplecticMatrix(ctx.d2, *c2)
