"""Brute-force point-set oracles for the line geometry, and the group
operations on symplectic matrices that only the tests use.

The library keeps a line as its generator and certifies everything else
by arithmetic identities; these helpers enumerate points instead, so the
tests can compare the two routes.
"""

from __future__ import annotations

from enum import Enum

from wmub.geometry import Line, ModulusMismatch, SymplecticMatrix, line
from wmub.zring import CrtContext


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
