"""Lines through the origin of Z(d) x Z(d) as generators, the sweep
matrices of the symplectic group that produce them, and the combinatorics
special to d = d1*d2 (distinct odd primes): component-line factorization,
the one catalog layout and the catalog of maximal lines, pair
classification, and the partition."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache

import numpy as np

from .zring import CrtContext, dedekind_psi


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
# factorization into component lines
# ---------------------------------------------------------------------------

def split_generator(
    generator: tuple[int, int], ctx: CrtContext
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Raw component generators: first coordinate by map1, second by map2
    (ints, or integer arrays of equal shape)."""
    nu, mu = generator
    nu1, nu2 = ctx.map1_split(nu)
    mu1, mu2 = ctx.map2_split(mu)
    return (nu1, mu1), (nu2, mu2)


def _inverse_mod_prime(a, p: int):
    """a^(p-2) mod p by repeated squaring, elementwise: the inverse of every
    unit a of the prime ring Z(p) (Fermat), and 0 for a = 0."""
    result, base, e = 1, a % p, p - 2
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


def line_key(a, b, p: int):
    """One integer per line through the origin of Z(p) x Z(p), spanned by a
    nonzero (a, b): the slope b * a^-1 mod p, or p for the vertical line
    (a = 0).  Unit multiples of (a, b) get the same key.  Elementwise on
    integer arrays."""
    a, b = a % p, b % p
    return np.where(a == 0, p, b * _inverse_mod_prime(a, p) % p)


def factor_keys(generators: np.ndarray, ctx: CrtContext) -> np.ndarray:
    """Component-line keys [line, factor] of the maximal lines with the given
    (n, 2) generators, in one array pass: `split_generator`, then `line_key`
    over Z(d1) and over Z(d2)."""
    (a1, b1), (a2, b2) = split_generator(generators.T, ctx)
    return np.stack([line_key(a1, b1, ctx.d1), line_key(a2, b2, ctx.d2)], axis=-1)


def product_generator(
    comp1: tuple[int, int], comp2: tuple[int, int], ctx: CrtContext
) -> tuple[int, int]:
    """Generator of the product line with the given component generators
    (ints, or integer arrays of equal shape)."""
    return ctx.map1_join(comp1[0], comp2[0]), ctx.map2_join(comp1[1], comp2[1])


@cache
def check_point_map(ctx: CrtContext) -> None:
    """Certify in one pass over Z(d) that each CRT join undoes its split
    (map1 on the first coordinate, map2 on the second), or raise RuntimeError.
    Both sides have d elements, so the linear point map is then an
    isomorphism Z(d)^2 -> Z(d1)^2 x Z(d2)^2: it sends the line of (nu, mu)
    onto the product of the component lines of `split_generator(nu, mu)`.

    A fact of the context alone, so a context that passes is certified once
    per process, one entry per context; a raise is not cached, so a failing
    context fails on every call."""
    m = np.arange(ctx.d)
    for name, split, join in (("map1", ctx.map1_split, ctx.map1_join),
                              ("map2", ctx.map2_split, ctx.map2_join)):
        if not (join(*split(m)) == m).all():
            raise RuntimeError(f"CRT point map: {name}_join does not invert {name}_split")


def _same_prime_line(a, b, p: int):
    """Whether a and b span the same line over Z(p): a zero determinant, and
    both or neither zero.  Elementwise on integer arrays."""
    zero = lambda v: (v[0] % p == 0) & (v[1] % p == 0)
    return ((a[0] * b[1] - a[1] * b[0]) % p == 0) & (zero(a) == zero(b))


# ---------------------------------------------------------------------------
# the catalog of maximal lines
# ---------------------------------------------------------------------------

def component_generators(p: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical generators (a, b) over the prime ring Z(p) of the lines with
    component indices k, elementwise.

    Index 0 stands for the vertical line (0, 1); index k >= 1 for the image
    of the vertical line under g(0,1|-1,-lam), lam = k - 1, which is
    generated by (1, -lam).
    """
    return (k != 0).astype(np.int64), np.where(k == 0, 1, (1 - k) % p)


def sweep_entries(ctx: CrtContext, components: np.ndarray, start: int = 0) -> np.ndarray:
    """Sweep matrices of the rows (i1, i2) of component indices, as a
    (len, 4) array of entries (kappa, lam, mu, nu) reduced mod d.

    The sweep matrix is the matrix over Z(d) whose action on the vertical
    line produces the catalog entry with those components; the same matrix
    labels the basis with factor sweep values (i1 - 1, i2 - 1).  Raises
    DetNotOne naming the first row without unit determinant: entry start+row+1.
    """
    d, d1, d2, s1, s2, t1, t2 = ctx.d, ctx.d1, ctx.d2, ctx.s1, ctx.s2, ctx.t1, ctx.t2
    i1, i2 = np.asarray(components, dtype=np.int64).T
    eta = t1 * t1 * d2 + t2 * t2 * d1
    # One row per case: both components vertical, the first only, the
    # second only, neither; nu then loses lam_i * s_i for each swept
    # component i, with sweep value lam_i = i_i - 1.
    cases = np.array([[1, 0, 0, 1], [s1, t2 * s2, -d1, s1], [s2, t1 * s1, -d2, s2], [0, eta, -d1 - d2, 0]])
    entries = cases[2 * (i1 > 0) + (i2 > 0)]
    entries[:, 3] -= (i1 > 0) * (i1 - 1) * s1 + (i2 > 0) * (i2 - 1) * s2
    entries %= d
    kappa, lam, mu, nu = entries.T
    det = (kappa * nu - lam * mu) % d
    bad = np.flatnonzero(det != 1)
    if bad.size:
        row = int(bad[0])
        k, l, m, n = entries[row].tolist()
        raise DetNotOne(f"sweep entry {start + row + 1}: det g({k},{l}|{m},{n}) = {det[row]} != 1 (mod {d})")
    return entries


def prime_sweep_labels(p: int) -> np.ndarray:
    """The label (kappa, lam, mu, nu) of each factor slot over Z(p), reduced
    mod p, as a (p+1, 4) array: the identity at slot 0, and at slot k >= 1
    the sweep matrix (0, 1 | -1, -lam) with sweep value lam = k - 1."""
    labels = np.empty((p + 1, 4), dtype=np.int64)
    labels[0] = 1, 0, 0, 1
    labels[1:, :3] = 0, 1, p - 1
    labels[1:, 3] = -np.arange(p) % p
    return labels


@dataclass(frozen=True, eq=False)
class MaximalLineCatalog:
    """The maximal lines as integer arrays, row index - 1 for each 1-based
    index: `components` the component indices (i1, i2) of `catalog_layout`,
    `generators` the display generators (nu, mu), and `matrices` the sweep
    matrix entries (kappa, lam, mu, nu).  All three are read-only: the basis
    set of `bases.build_wmub` shares `components` and `matrices`."""

    ctx: CrtContext
    components: np.ndarray
    generators: np.ndarray
    matrices: np.ndarray

    def __len__(self) -> int:
        return len(self.generators)

    @cached_property
    def pair_classes(self) -> np.ndarray:
        """One read-only int8 per index pair i < j in row-major order: 0, 1 or 2 for
        lines meeting in d2, d1 or 1 points, the `bases.OverlapCategory` position
        the basis pair must fit; filled a block of `_pair_blocks` at a time."""
        n, ctx = len(self), self.ctx
        classes = np.empty(n * (n - 1) // 2, dtype=np.int8)
        for at, i, j in _pair_blocks(n):
            sizes = _intersection_sizes(self.generators, self._keys, i, j, ctx)
            classes[at] = np.where(sizes == ctx.d2, 0, np.where(sizes == ctx.d1, 1, 2))
        classes.setflags(write=False)
        return classes

    @cached_property
    def class_counts(self) -> tuple[int, int, int]:
        """How many entries of `pair_classes` hold 0, 1 and 2, counted a block of
        `_PAIR_BLOCK` at a time, so no temporary exceeds one block's bytes."""
        classes, counts = self.pair_classes, [0, 0, 0]
        for lo in range(0, len(classes), _PAIR_BLOCK):
            block = classes[lo : lo + _PAIR_BLOCK]
            for k in range(3):
                counts[k] += int(np.count_nonzero(block == k))
        return tuple(counts)

    @cached_property
    def _keys(self) -> np.ndarray:
        return factor_keys(self.generators, self.ctx)


def catalog_layout(ctx: CrtContext) -> np.ndarray:
    """The one index layout of the catalog and the basis set: row index - 1
    of the (psi, 2) array holds the component indices (i1, i2) of each
    1-based index, the all-vertical entry first, then the second-component
    sweep, the first-component sweep, and the double sweep in row-major
    order.  It is filled in place, one allocation of its own size."""
    d1, d2 = ctx.d1, ctx.d2
    components = np.zeros(((d1 + 1) * (d2 + 1), 2), dtype=np.int64)
    components[1 : d2 + 1, 1] = np.arange(1, d2 + 1)
    components[d2 + 1 : d1 + d2 + 1, 0] = np.arange(1, d1 + 1)
    sweep = components[d1 + d2 + 1 :].reshape(d1, d2, 2)  # a view: [k1-1, k2-1] -> (k1, k2)
    sweep[..., 0] = np.arange(1, d1 + 1)[:, None]
    sweep[..., 1] = np.arange(1, d2 + 1)
    return components


def partition_lines(ctx: CrtContext) -> np.ndarray:
    """Partition the catalog into d2+1 sets of d1+1 lines meeting only at 0,
    as one read-only (d2+1, d1+1) array whose row n holds the sorted catalog
    indices of set n: the components (i, i+n mod d2+1) for i = 0..d1.  The
    same sets group the bases into pairwise unbiased groups."""
    d1, d2 = ctx.d1, ctx.d2
    components = catalog_layout(ctx)
    index = np.empty((d1 + 1, d2 + 1), dtype=np.int64)
    index[components[:, 0], components[:, 1]] = np.arange(1, len(components) + 1)
    i = np.arange(d1 + 1)
    grid = index[i, (i + np.arange(d2 + 1)[:, None]) % (d2 + 1)]  # [n, i]
    grid.sort(axis=1)
    grid.setflags(write=False)
    return grid


def sweep_value(k: int) -> int | None:
    """Component index 0 is the vertical line (the position basis), index
    k >= 1 the sweep value k - 1 (also its position in `prime_mub` order)."""
    return None if k == 0 else k - 1


def catalog_rows(ctx: CrtContext, components: np.ndarray, start: int = 0):
    """Check the catalog entries whose component indices (i1, i2) are the
    rows of `components`, row 0 being entry `start` + 1, in both of their
    guises in one array pass; return the rows of their generators (nu, mu),
    sweep matrices and component generators (a, b) over Z(d1) and Z(d2).

    Product route: with the point map certified (`check_point_map`), the
    entry line is the product of its component lines iff its split
    generator spans comp1 over Z(d1) and comp2 over Z(d2), and
    gcd(nu, mu, d) = 1 makes it maximal.  Matrix route: the sweep matrix
    must map the vertical line onto it; over squarefree d two maximal lines
    are equal iff det[a; b] = 0 (mod d).  The first entry failing a route
    raises RuntimeError naming it, the product route first.
    """
    comp1 = component_generators(ctx.d1, components[:, 0])
    comp2 = component_generators(ctx.d2, components[:, 1])
    nu, mu = product_generator(comp1, comp2, ctx)
    raw1, raw2 = split_generator((nu, mu), ctx)
    product_fails = (np.gcd(np.gcd(nu, mu), ctx.d) != 1) | ~(
        _same_prime_line(raw1, comp1, ctx.d1) & _same_prime_line(raw2, comp2, ctx.d2)
    )
    matrices = sweep_entries(ctx, components, start)
    # The sweep matrix sends the vertical generator (0, 1) to (lam, nu).
    matrix_fails = (matrices[:, 1] * mu - matrices[:, 3] * nu) % ctx.d != 0
    bad = np.flatnonzero(product_fails | matrix_fails)
    if bad.size:
        row = int(bad[0])
        route = "product" if product_fails[row] else "matrix"
        raise RuntimeError(f"catalog entry {start + row + 1}: {route} route disagrees")
    return np.stack([nu, mu], axis=-1), matrices, np.stack(comp1, axis=-1), np.stack(comp2, axis=-1)


def maximal_line_catalog(ctx: CrtContext) -> MaximalLineCatalog:
    """All dedekind_psi(d) maximal lines in `catalog_layout` order, checked by
    `catalog_rows` as one block; the size is left to `verify`'s catalog check."""
    check_point_map(ctx)
    components = catalog_layout(ctx)
    generators, matrices, _, _ = catalog_rows(ctx, components)
    for array in (components, generators, matrices):
        array.setflags(write=False)
    return MaximalLineCatalog(ctx, components, generators, matrices)


# ---------------------------------------------------------------------------
# pair classification and counting
# ---------------------------------------------------------------------------

# Pairs per block of the pair passes: one block for every d that `verify` serves.
_PAIR_BLOCK = 2**17


def _pair_blocks(n: int):
    """The index pairs i < j of n items in row-major order, a block of whole rows at a time
    (at most `_PAIR_BLOCK` pairs, or one row): yields its slice of that order and 0-based (i, j)."""
    rows, start = max(1, _PAIR_BLOCK // max(1, n - 1)), 0
    for lo in range(0, n - 1, rows):
        row = np.arange(lo, min(lo + rows, n - 1))
        length = n - 1 - row  # row r pairs r with r + 1 .. n - 1
        i = np.repeat(row, length)
        j = np.arange(len(i)) + np.repeat(row + 1 + length - np.cumsum(length), length)
        yield slice(start, start + len(i)), i, j
        start += len(i)


def _intersection_sizes(
    generators: np.ndarray, keys: np.ndarray, i: np.ndarray, j: np.ndarray, ctx: CrtContext
) -> np.ndarray:
    """Common-point counts of the distinct maximal lines with generators
    generators[i[k]] and generators[j[k]], from an (n, 2) array and its
    `factor_keys`.

    The size is computed twice, as gcd(det[a;b], d) of the two generators
    (squarefree d: the lines coincide modulo exactly the primes dividing the
    determinant) and by the component rule (d2 common points iff the second
    components coincide, d1 iff the first do, 1 otherwise) on the keys;
    the first disagreeing pair means a bug and raises.
    """
    nu, mu = generators.T
    key1, key2 = keys.T
    sizes = np.gcd(np.arange(ctx.d), ctx.d)[(nu[i] * mu[j] - mu[i] * nu[j]) % ctx.d]
    expected = np.where(key2[i] == key2[j], ctx.d2, np.where(key1[i] == key1[j], ctx.d1, 1))
    wrong = np.flatnonzero(sizes != expected)
    if wrong.size:
        k = wrong[0]
        raise RuntimeError(
            f"component rule predicts {expected[k]} common points, determinant gives {sizes[k]}"
        )
    return sizes


def classify_line_pair(a: Line, b: Line, ctx: CrtContext) -> int:
    """The intersection size of a pair of distinct maximal lines: d2 when
    they share the second component line, d1 the first, 1 neither; from the
    two cross-checked routes of the catalog's pair pass."""
    if a.d != ctx.d or b.d != ctx.d:
        raise ModulusMismatch("lines and context use different moduli")
    if not (a.is_maximal and b.is_maximal):
        raise NotMaximal("pair classification needs two maximal lines")
    if a == b:
        raise ValueError("pair classification needs two distinct lines")
    generators = np.array([a.generator, b.generator], dtype=np.int64)
    return int(_intersection_sizes(generators, factor_keys(generators, ctx), [0], [1], ctx)[0])


def pair_census(catalog: MaximalLineCatalog) -> dict[int, int]:
    """Counts of unordered maximal-line pairs keyed by intersection size: d2, d1
    and 1, read from the catalog's `class_counts`."""
    ctx = catalog.ctx
    return dict(zip((ctx.d2, ctx.d1, 1), catalog.class_counts))


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
    position), so the label pass of `bases.conjugation_bound` splits every
    label at once.  The component matrices act on component lines exactly
    as the matrix over Z(d) acts on the product line; the sweep matrix of
    components (i1, i2) splits into the `prime_sweep_labels` of slot i1
    over Z(d1) and of slot i2 over Z(d2).
    """
    kappa, lam, mu, nu = entries
    k1, k2 = ctx.map1_split(kappa)
    l1, l2 = ctx.map1_split(lam)
    m1, m2 = ctx.map2_split(mu)
    n1, n2 = ctx.map1_split(nu)
    return (k1, l1 * ctx.r1 % ctx.d1, m1, n1), (k2, l2 * ctx.r2 % ctx.d2, m2, n2)
