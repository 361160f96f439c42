"""Exact arithmetic over Z(d): totient-style counting functions, unit
inversion, and the two Chinese-remainder bijections Z(d) <-> Z(d1) x Z(d2)
used to factorize phase-plane coordinates and Hilbert-space labels."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

# All products of residues fit in 64-bit machine words below this cap.
MAX_MODULUS = 1 << 20


class NotAUnit(ValueError):
    """Inversion was requested for an element sharing a factor with the modulus."""


class InvalidDims(ValueError):
    """(d1, d2) is not a pair of distinct odd primes with d1 < d2."""


class ModulusTooLarge(InvalidDims):
    """d1, d2 or d1*d2 is above MAX_MODULUS."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


@lru_cache(maxsize=None)
def prime_factorization(d: int) -> tuple[tuple[int, int], ...]:
    """Factor d into (prime, exponent) pairs with primes strictly increasing."""
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")
    if d > MAX_MODULUS:
        raise ValueError(f"modulus {d} exceeds the supported cap {MAX_MODULUS}")
    factors = []
    n = d
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


@lru_cache(maxsize=None)
def euler_phi(d: int) -> int:
    """Number of units of Z(d): d * prod(1 - 1/p) over prime divisors."""
    n = d
    for p, _ in prime_factorization(d):
        n = n // p * (p - 1)
    return n


@lru_cache(maxsize=None)
def dedekind_psi(d: int) -> int:
    """d * prod(1 + 1/p) over prime divisors.

    Counts the maximal lines through the origin of Z(d) x Z(d), which is why
    it shows up as the size of every catalog built here.
    """
    n = d
    for p, _ in prime_factorization(d):
        n = n // p * (p + 1)
    return n


@lru_cache(maxsize=None)
def jordan_j2(d: int) -> int:
    """d^2 * prod(1 - 1/p^2); equals dedekind_psi(d) * euler_phi(d).

    d * jordan_j2(d) is the order of the group of unit-determinant 2x2
    matrices over Z(d).
    """
    n = d * d
    for p, _ in prime_factorization(d):
        n = n // (p * p) * (p * p - 1)
    return n


def mod_inverse(a: int, d: int) -> int:
    """Inverse of a modulo d; raises NotAUnit when gcd(a, d) > 1."""
    a %= d
    g = math.gcd(a, d)
    if g != 1:
        raise NotAUnit(f"{a} is not a unit mod {d} (gcd {g})")
    return pow(a, -1, d)


@dataclass(frozen=True)
class CrtContext:
    """Precomputed data for the two CRT bijections of Z(d), d = d1*d2.

    The first map sends m to its residues (m mod d1, m mod d2) and rebuilds
    with the orthogonal idempotents s1, s2.  The second map scales the
    residues by t_i = r_i^{-1} mod d_i and rebuilds with r1 = d2, r2 = d1.
    Positions and line slopes factor through the second map, momenta and
    line "x-coordinates" through the first.  Both also map integer arrays.
    """

    d1: int
    d2: int
    d: int
    r1: int
    r2: int
    t1: int
    t2: int
    s1: int
    s2: int

    def map1_split(self, m: int) -> tuple[int, int]:
        return m % self.d1, m % self.d2

    def map1_join(self, m1: int, m2: int) -> int:
        return (m1 * self.s1 + m2 * self.s2) % self.d

    def map2_split(self, m: int) -> tuple[int, int]:
        return (m * self.t1) % self.d1, (m * self.t2) % self.d2

    def map2_join(self, mbar1: int, mbar2: int) -> int:
        return (mbar1 * self.r1 + mbar2 * self.r2) % self.d


def crt_context(d1: int, d2: int) -> CrtContext:
    """Build the CRT context for d = d1*d2, distinct odd primes with d1 < d2."""
    # Trial division takes sqrt(x) steps, so each factor meets the cap
    # first; below it the primality test takes at most 1024 steps.
    for name, x in (("d1", d1), ("d2", d2)):
        if x > MAX_MODULUS:
            raise ModulusTooLarge(f"{name} = {x} exceeds the supported cap {MAX_MODULUS}")
    for x in (d1, d2):
        if x == 2 or not is_prime(x):
            raise InvalidDims(f"{x} is not an odd prime")
    if d1 >= d2:
        raise InvalidDims(f"need d1 < d2, got d1={d1}, d2={d2}")
    d = d1 * d2
    if d > MAX_MODULUS:
        raise ModulusTooLarge(f"d1*d2 = {d} exceeds the supported cap {MAX_MODULUS}")
    r1, r2 = d2, d1
    t1 = mod_inverse(r1, d1)
    t2 = mod_inverse(r2, d2)
    s1 = t1 * r1 % d
    s2 = t2 * r2 % d
    return CrtContext(d1, d2, d, r1, r2, t1, t2, s1, s2)
