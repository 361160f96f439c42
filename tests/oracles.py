"""Brute-force point-set oracles for the line geometry, the scalar
per-entry routes of the catalog, and the symplectic matrices with the
group operations and factorizations that only the tests use.

The library keeps a line as its generator, a matrix as four integers,
certifies everything else by arithmetic identities, and builds the catalog
in integer array passes; these helpers enumerate points and walk one entry
at a time instead, so the tests can compare the two routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from wmub.geometry import (
    DetNotOne,
    Line,
    MaximalLineCatalog,
    ModulusMismatch,
    NotMaximal,
    catalog_layout,
    component_index,
    factor_keys,
    line,
    product_generator,
    split_entries,
    sweep_entries,
    sweep_value,
)
from wmub.zring import CrtContext, mod_inverse


def points(l: Line) -> tuple[tuple[int, int], ...]:
    """The points {(a*nu, a*mu) : a in Z(d)} of a line, sorted."""
    nu, mu = l.generator
    return tuple(sorted({(nu * a % l.d, mu * a % l.d) for a in range(l.d)}))


def point_set(l: Line) -> frozenset[tuple[int, int]]:
    return frozenset(points(l))


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
    if point_set(a) < point_set(b):
        return LineRelation.A_SUB_B
    if point_set(b) < point_set(a):
        return LineRelation.B_SUB_A
    return LineRelation.NEITHER


def intersection(a: Line, b: Line) -> tuple[tuple[int, int], ...]:
    """Common points of two lines, sorted; always contains the origin."""
    _same_modulus(a, b)
    return tuple(sorted(point_set(a) & point_set(b)))


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


def compose(g: SymplecticMatrix, h: SymplecticMatrix) -> SymplecticMatrix:
    """The matrix product g*h."""
    if g.d != h.d:
        raise ModulusMismatch(f"matrices over Z({g.d}) and Z({h.d})")
    return SymplecticMatrix(
        g.d,
        g.kappa * h.kappa + g.lam * h.mu,
        g.kappa * h.lam + g.lam * h.nu,
        g.mu * h.kappa + g.nu * h.mu,
        g.mu * h.lam + g.nu * h.nu,
    )


def inverse(g: SymplecticMatrix) -> SymplecticMatrix:
    return SymplecticMatrix(g.d, g.nu, -g.lam, -g.mu, g.kappa)


def act_line(g: SymplecticMatrix, l: Line) -> Line:
    """Image line; same point count as the input (the action permutes lines)."""
    if l.d != g.d:
        raise ModulusMismatch(f"matrix over Z({g.d}), line over Z({l.d})")
    return line(g.d, *g.act_point(l.generator))


def point_map(ctx: CrtContext, m: int, n: int) -> tuple[int, int, int, int]:
    """Split a phase-plane point: first coordinate by map1, second by map2."""
    m1, m2 = ctx.map1_split(m)
    n1, n2 = ctx.map2_split(n)
    return m1, m2, n1, n2


def point_unmap(ctx: CrtContext, m1: int, m2: int, nbar1: int, nbar2: int) -> tuple[int, int]:
    return ctx.map1_join(m1, m2), ctx.map2_join(nbar1, nbar2)


def product_points(comp1: Line, comp2: Line, ctx: CrtContext) -> frozenset[tuple[int, int]]:
    """Point set of the product of two component lines under the point map."""
    return frozenset(
        point_unmap(ctx, m1, m2, n1, n2)
        for (m1, n1) in points(comp1)
        for (m2, n2) in points(comp2)
    )


def canonical_prime_generator(generator: tuple[int, int], p: int) -> tuple[int, int]:
    """Lexicographically smallest unit multiple of a generator over Z(p)."""
    a, b = generator[0] % p, generator[1] % p
    if a == 0:
        return (0, 0) if b == 0 else (0, 1)
    return 1, b * mod_inverse(a, p) % p


def component_generator(p: int, lam: int | None) -> tuple[int, int]:
    """Canonical generator of the lam-indexed line over the prime ring Z(p).

    `None` stands for the vertical line (0, 1); the value lam in Z(p) stands
    for its image under g(0,1|-1,-lam), which is generated by (1, -lam).
    """
    return (0, 1) if lam is None else (1, -lam % p)


def scalar_sweep_matrix(ctx: CrtContext, lam1: int | None, lam2: int | None) -> SymplecticMatrix:
    """The sweep matrix of one entry, case by case, over Z(d)."""
    d, s1, s2, t1, t2 = ctx.d, ctx.s1, ctx.s2, ctx.t1, ctx.t2
    if lam1 is None and lam2 is None:
        return SymplecticMatrix.identity(d)
    if lam1 is None:
        return SymplecticMatrix(d, s1, t2 * s2, -ctx.d1, s1 - lam2 * s2)
    if lam2 is None:
        return SymplecticMatrix(d, s2, t1 * s1, -ctx.d2, s2 - lam1 * s1)
    eta = t1 * t1 * ctx.d2 + t2 * t2 * ctx.d1
    return SymplecticMatrix(d, 0, eta, -ctx.d1 - ctx.d2, -lam1 * s1 - lam2 * s2)


def scalar_catalog_rows(ctx: CrtContext):
    """Per catalog index, in order: (generator, matrix entries, comp1, comp2),
    each entry built on its own from its sweep values."""
    rows = []
    for i1, i2 in catalog_layout(ctx).components.tolist():
        lam1, lam2 = sweep_value(i1), sweep_value(i2)
        comp1, comp2 = component_generator(ctx.d1, lam1), component_generator(ctx.d2, lam2)
        generator = product_generator(comp1, comp2, ctx)
        rows.append((generator, scalar_sweep_matrix(ctx, lam1, lam2).entries, comp1, comp2))
    return rows


def sweep_matrix(ctx: CrtContext, lam1: int | None, lam2: int | None) -> SymplecticMatrix:
    """The sweep matrix with factor sweep values (lam1, lam2): one row of
    `sweep_entries`."""
    row = sweep_entries(ctx, np.array([[component_index(lam1), component_index(lam2)]]))[0]
    return SymplecticMatrix(ctx.d, *row.tolist())


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


def factorize_line(l: Line, ctx: CrtContext) -> tuple[tuple[int, int], tuple[int, int]]:
    """Canonical component-line generators of a maximal line: (0, 1) for
    the vertical component, else (1, slope), read from `factor_keys`.

    The result does not depend on which generator of the line was stored:
    unit factors split into unit factors of both components, and the keys
    do not see them.
    """
    if l.d != ctx.d:
        raise ModulusMismatch(f"line over Z({l.d}), context for Z({ctx.d})")
    if not l.is_maximal:
        raise NotMaximal(f"line with {l.size} points cannot be factorized")
    keys = factor_keys(np.array([l.generator]), ctx)[0].tolist()
    return tuple((0, 1) if key == p else (1, key) for key, p in zip(keys, (ctx.d1, ctx.d2)))


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


def catalog_entries(catalog: MaximalLineCatalog) -> tuple[CatalogEntry, ...]:
    """The per-entry view of the catalog arrays, one `CatalogEntry` per row;
    the entry with 1-based index k sits at position k - 1."""
    d = catalog.ctx.d
    rows = zip(catalog.generators.tolist(), catalog.matrices.tolist(),
               catalog.comps.tolist(), catalog.components.tolist())
    return tuple(
        CatalogEntry(index, line(d, nu, mu), (nu, mu), SymplecticMatrix(d, *matrix),
                     tuple(comp1), tuple(comp2), sweep_value(i1), sweep_value(i2))
        for index, ((nu, mu), matrix, (comp1, comp2), (i1, i2)) in enumerate(rows, start=1)
    )
