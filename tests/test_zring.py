from __future__ import annotations

import math

import pytest

from wmub.zring import (
    CrtContext,
    InvalidDims,
    NotAUnit,
    crt_context,
    dedekind_psi,
    euler_phi,
    is_prime,
    jordan_j2,
    mod_inverse,
    prime_factorization,
)

from oracles import point_map, point_unmap


def brute_force_unit_count(d: int) -> int:
    return sum(1 for a in range(d) if math.gcd(a, d) == 1)


def brute_force_maximal_line_count(d: int) -> int:
    # Count distinct point sets {(a*nu, a*mu)} of full size d, no library help.
    lines = set()
    for nu in range(d):
        for mu in range(d):
            pts = frozenset((a * nu % d, a * mu % d) for a in range(d))
            if len(pts) == d:
                lines.add(pts)
    return len(lines)


def valid_prime_pairs(limit: int) -> list[tuple[int, int]]:
    primes = [p for p in range(3, limit // 3 + 1) if is_prime(p)]
    return [(p, q) for p in primes for q in primes if p < q and p * q <= limit]


# ---------------------------------------------------------------------------
# factorization and totients
# ---------------------------------------------------------------------------

def test_prime_factorization():
    assert prime_factorization(15) == ((3, 1), (5, 1))
    assert prime_factorization(360) == ((2, 3), (3, 2), (5, 1))
    with pytest.raises(ValueError):
        prime_factorization(1)


@pytest.mark.parametrize("d,expected", [(15, 8), (3, 2), (9, 6)])
def test_euler_phi_examples(d, expected):
    assert euler_phi(d) == expected
    assert brute_force_unit_count(d) == expected


@pytest.mark.parametrize("d,expected", [(15, 24), (3, 4), (6, 12)])
def test_dedekind_psi_examples(d, expected):
    assert dedekind_psi(d) == expected


@pytest.mark.parametrize("d", [6, 9, 10, 15])
def test_dedekind_psi_counts_maximal_lines(d):
    assert dedekind_psi(d) == brute_force_maximal_line_count(d)


@pytest.mark.parametrize("d,expected", [(15, 192), (3, 8), (5, 24)])
def test_jordan_j2_examples(d, expected):
    assert jordan_j2(d) == expected


def test_totient_identities_up_to_200():
    for d in range(2, 201):
        assert jordan_j2(d) == dedekind_psi(d) * euler_phi(d)
        assert euler_phi(d) == brute_force_unit_count(d)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_mod_inverse():
    assert mod_inverse(2, 15) == 8
    assert mod_inverse(1, 7) == 1
    assert mod_inverse(1, 15) == 1
    with pytest.raises(NotAUnit):
        mod_inverse(3, 15)


# ---------------------------------------------------------------------------
# CRT contexts
# ---------------------------------------------------------------------------

def test_crt_context_3_5():
    ctx = crt_context(3, 5)
    assert (ctx.r1, ctx.r2) == (5, 3)
    assert (ctx.t1, ctx.t2) == (2, 2)
    assert (ctx.s1, ctx.s2) == (10, 6)
    assert (ctx.s1 + ctx.s2) % ctx.d == 1


def test_crt_context_3_7():
    ctx = crt_context(3, 7)
    assert ctx.t1 == 1 and ctx.s1 == 7
    assert ctx.t2 == 5 and ctx.s2 == 15
    assert (ctx.s1 + ctx.s2) % 21 == 1


@pytest.mark.parametrize("d1,d2", [(5, 3), (3, 3), (2, 5), (3, 9), (4, 5), (15, 7)])
def test_crt_context_rejects_bad_dims(d1, d2):
    with pytest.raises(InvalidDims):
        crt_context(d1, d2)


def test_map1_examples(ctx15: CrtContext):
    assert ctx15.map1_split(7) == (1, 2)
    assert ctx15.map1_join(1, 2) == 7
    assert ctx15.map1_split(0) == (0, 0)
    assert ctx15.map1_split(11) == (2, 1)
    assert ctx15.map1_join(2, 1) == 11


def test_map2_examples(ctx15: CrtContext):
    assert ctx15.map2_split(7) == (2, 4)
    assert ctx15.map2_join(2, 4) == 7
    assert ctx15.map2_split(0) == (0, 0)


def test_point_map_examples(ctx15: CrtContext):
    assert point_map(ctx15, 3, 7) == (0, 3, 2, 4)
    assert point_map(ctx15, 0, 0) == (0, 0, 0, 0)
    for m in range(15):
        for n in range(15):
            assert point_unmap(ctx15, *point_map(ctx15, m, n)) == (m, n)


def test_crt_maps_are_bijections_for_all_small_pairs():
    pairs = valid_prime_pairs(1000)
    assert (3, 5) in pairs and (29, 31) in pairs
    for d1, d2 in pairs:
        ctx = crt_context(d1, d2)
        seen1 = {ctx.map1_split(m) for m in range(ctx.d)}
        seen2 = {ctx.map2_split(m) for m in range(ctx.d)}
        assert len(seen1) == ctx.d and len(seen2) == ctx.d
        for m in range(ctx.d):
            assert ctx.map1_join(*ctx.map1_split(m)) == m
            assert ctx.map2_join(*ctx.map2_split(m)) == m


def test_map1_is_multiplicative(ctx15: CrtContext):
    for a in range(15):
        for b in range(15):
            a1, a2 = ctx15.map1_split(a)
            b1, b2 = ctx15.map1_split(b)
            assert ctx15.map1_split(a * b % 15) == (a1 * b1 % 3, a2 * b2 % 5)


def test_idempotents_orthogonal():
    for d1, d2 in valid_prime_pairs(1000):
        ctx = crt_context(d1, d2)
        assert ctx.s1 * ctx.s1 % ctx.d == ctx.s1
        assert ctx.s2 * ctx.s2 % ctx.d == ctx.s2
        assert ctx.s1 * ctx.s2 % ctx.d == 0
        assert (ctx.s1 + ctx.s2) % ctx.d == 1
        assert ctx.t1 * ctx.r1 % d1 == 1
        assert ctx.t2 * ctx.r2 % d2 == 1
