"""Finite-dimensional Hilbert-space machinery: the discrete Fourier
transform, displacement operators, the symplectic unitaries generated by
quadratic phases, mutually unbiased bases in odd prime dimension, and
tensor assembly of bases along the CRT factorization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ModulusMismatch, SymplecticMatrix
from .zring import CrtContext, is_prime, mod_inverse

MAX_DIM = 105


class EvenDimension(ValueError):
    """The operation needs 2 to be invertible, so the dimension must be odd."""


class NotOddPrime(ValueError):
    """Mutually unbiased bases are built here for odd prime dimension only."""


class UnsupportedMatrix(ValueError):
    """No unitary is synthesized for this symplectic matrix."""


class DimMismatch(ValueError):
    """Dimensions or matrix shapes do not match: factors against the CRT
    context, two bases, or a matrix against its dimension."""


class DimTooLarge(ValueError):
    """A Hilbert-space dimension exceeds the supported cap MAX_DIM."""


def _check_dim(d: int) -> None:
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if d > MAX_DIM:
        raise DimTooLarge(f"dimension {d} exceeds the supported cap {MAX_DIM}")


def omega(d: int, k: int) -> complex:
    """exp(2*pi*i*k/d); periodic in k with period d."""
    return complex(np.exp(2j * np.pi * (k % d) / d))


def fourier(d: int) -> np.ndarray:
    """F[m, n] = d**-0.5 * omega(m*n); columns are the momentum states."""
    _check_dim(d)
    idx = np.arange(d)
    return np.exp(2j * np.pi * (np.outer(idx, idx) % d) / d) / np.sqrt(d)


def z_op(d: int, alpha: int = 1) -> np.ndarray:
    """Diagonal phase operator with entries omega(n*alpha)."""
    _check_dim(d)
    n = np.arange(d)
    return np.diag(np.exp(2j * np.pi * (n * (alpha % d) % d) / d))


def x_op(d: int, beta: int = 1) -> np.ndarray:
    """Cyclic position shift by beta: |n> -> |n + beta>."""
    _check_dim(d)
    m = np.zeros((d, d), dtype=complex)
    m[(np.arange(d) + beta) % d, np.arange(d)] = 1.0
    return m


def displacement(d: int, alpha: int, beta: int) -> np.ndarray:
    """Symmetrically ordered displacement Z^alpha X^beta omega(-2^-1 alpha beta)."""
    _check_dim(d)
    if d % 2 == 0:
        raise EvenDimension(f"displacement needs odd dimension, got {d}")
    half = mod_inverse(2, d)
    phase = omega(d, -half * alpha * beta)
    return phase * (z_op(d, alpha) @ x_op(d, beta))


def quadratic_phase(d: int, b: int) -> np.ndarray:
    """Diagonal unitary with entries omega(2^-1 * b * n^2).

    Conjugation sends the shift X to the displacement D(b, 1) and leaves Z
    fixed, i.e. this realizes the symplectic matrix (1, b | 0, 1).
    """
    _check_dim(d)
    if d % 2 == 0:
        raise EvenDimension(f"quadratic phase needs odd dimension, got {d}")
    half = mod_inverse(2, d)
    n = np.arange(d)
    return np.diag(np.exp(2j * np.pi * (half * (b % d) * n * n % d) / d))


def symplectic_unitary(d: int, g: SymplecticMatrix) -> np.ndarray:
    """Unitary U with U X U^dag = D(lam, kappa) and U Z U^dag = D(nu, mu).

    Synthesized for the identity, the quadratic-phase form (1, b | 0, 1),
    and the swept form (0, 1 | -1, -lam), which is built as the quadratic
    phase of lam composed with the Fourier transform.  Other matrices are
    rejected.
    """
    _check_dim(d)
    if g.d != d:
        raise ModulusMismatch(f"matrix over Z({g.d}) used in dimension {d}")
    k, l, m, n = g.entries
    if (k, l, m, n) == (1, 0, 0, 1):
        return np.eye(d, dtype=complex)
    if d % 2 == 0:
        raise EvenDimension(f"symplectic unitaries need odd dimension, got {d}")
    if (k, m, n) == (1, 0, 1):
        return quadratic_phase(d, l)
    if (k, l, m) == (0, 1, d - 1):
        lam = -n % d
        return quadratic_phase(d, lam) @ fourier(d)
    raise UnsupportedMatrix(f"no unitary synthesized for {g.token()}")


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-norm distance of U^dag U from the identity."""
    dim = matrix.shape[0]
    return float(np.abs(matrix.conj().T @ matrix - np.eye(dim)).max())


def conjugation_defect(d: int, matrix: np.ndarray, label: tuple[int, int, int, int]) -> float:
    """How far U is from realizing the symplectic matrix (k, l | m, n).

    Checks U X = D(l, k) U and U Z = D(n, m) U, the defining relations
    U X U^dag = D(l, k) and U Z U^dag = D(n, m) multiplied by U on the
    right, with no matrix product: X cycles the columns of U, Z scales
    column c by omega(c), and D(a, b) moves row r - b to row r and scales
    it by omega(a*r - 2^-1*a*b).  Returns the larger of the two largest row
    2-norms of U X - D U and U Z - D U.  Entry (r, c) of U X U^dag - D is
    the inner product of row r of U X - D U with row c of U, so for unitary
    U this bounds the max-norm residual of U X U^dag = D from above.
    Insensitive to a global phase of U but sensitive to column phases and
    ordering.
    """
    _check_dim(d)
    if d % 2 == 0:
        raise EvenDimension(f"conjugation needs odd dimension, got {d}")
    if matrix.shape != (d, d):
        raise DimMismatch(f"matrix of shape {matrix.shape} in dimension {d}")
    k, l, m, n = label
    half = mod_inverse(2, d)
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    rows = np.arange(d)

    def displaced(alpha: int, beta: int) -> np.ndarray:
        phases = roots[((alpha % d) * rows - half * alpha * beta % d) % d]
        return phases[:, None] * np.roll(matrix, beta, axis=0)

    dx = np.linalg.norm(np.roll(matrix, -1, axis=1) - displaced(l, k), axis=1).max()
    dz = np.linalg.norm(matrix * roots - displaced(n, m), axis=1).max()
    return float(max(dx, dz))


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """A basis of C^dim stored as the unitary whose columns are its vectors."""

    dim: int
    matrix: np.ndarray
    label: str


def overlaps(a: OrthonormalBasis, b: OrthonormalBasis) -> np.ndarray:
    """Magnitudes |<a_n|b_m>| as an (n, m) table."""
    if a.dim != b.dim:
        raise DimMismatch(f"bases of dimension {a.dim} and {b.dim}")
    return np.abs(a.matrix.conj().T @ b.matrix)


def prime_mub(p: int) -> list[OrthonormalBasis]:
    """The p+1 mutually unbiased bases of C^p for an odd prime p.

    Entry 0 is the position basis; entry 1+lam holds the columns of the
    unitary for the swept symplectic matrix (0, 1 | -1, -lam), the
    `symplectic_unitary` quadratic phase of lam times the Fourier matrix.
    All p swept bases are formed at once: row n of the Fourier matrix is
    scaled by omega(2^-1 * lam * n^2), read from one (lam, n) phase table.
    Every cross-basis overlap has magnitude p**-0.5.
    """
    if p == 2 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    f = fourier(p)
    n = np.arange(p)
    roots = np.exp(2j * np.pi * n / p)
    phases = roots[mod_inverse(2, p) * np.outer(n, n * n) % p]  # [lam, n]
    swept = phases[:, :, None] * f
    bases = [OrthonormalBasis(p, np.eye(p, dtype=complex), "X")]
    bases += [OrthonormalBasis(p, swept[lam], f"X(0,1|-1,{-lam})") for lam in range(p)]
    return bases


def crt_index_maps(ctx: CrtContext) -> tuple[np.ndarray, np.ndarray]:
    """The index maps n -> n*t1 mod d1 and n -> n*t2 mod d2 (map2) of
    C^d -> C^d1 (x) C^d2, as arrays over n in 0..d-1."""
    idx = np.arange(ctx.d)
    return idx * ctx.t1 % ctx.d1, idx * ctx.t2 % ctx.d2


def check_crt_relabelling(ctx: CrtContext) -> None:
    """Certify that the relabelling of `crt_index_maps` factorizes the
    displacement operators: X_d becomes X_d1^t1 (x) X_d2^t2, Z_d becomes
    Z_d1 (x) Z_d2, and the phase of D_d(a, b) splits, so that D_d(a, b)
    becomes D_d1(a, b*t1) (x) D_d2(a, b*t2), the split `matrix_factorize`
    encodes.

    Each identity is one O(d) integer check on exponents of roots of unity:
    omega_d^e = omega_d1^e1 * omega_d2^e2 exactly when e = e1*d2 + e2*d1
    (mod d).  The Z identity also makes the relabelling a bijection.
    Raises RuntimeError naming the first identity that fails.
    """
    d, d1, d2 = ctx.d, ctx.d1, ctx.d2
    n = np.arange(d)
    i1, i2 = crt_index_maps(ctx)

    def joined(e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
        return (e1 * d2 + e2 * d1) % d

    for i, di, ti in ((i1, d1, ctx.t1), (i2, d2, ctx.t2)):
        if not ((np.roll(i, -1) - i) % di == ti).all():
            raise RuntimeError("CRT relabelling: X_d is not X_d1^t1 (x) X_d2^t2")
    if not (joined(i1, i2) == n).all():
        raise RuntimeError("CRT relabelling: Z_d is not Z_d1 (x) Z_d2")
    # The phase of D(a, b) is omega(-2^-1*a*b); n runs over every value of a*b.
    halves = (-mod_inverse(2, d1) * n * ctx.t1 % d1, -mod_inverse(2, d2) * n * ctx.t2 % d2)
    if not (joined(*halves) == -mod_inverse(2, d) * n % d).all():
        raise RuntimeError("CRT relabelling: the phase of D_d does not split")


def assemble_tensor_basis(
    b1: OrthonormalBasis, b2: OrthonormalBasis, ctx: CrtContext
) -> OrthonormalBasis:
    """Tensor two factor bases into a basis of C^d, d = d1*d2.

    Row and column labels both split through `crt_index_maps`, so entry
    (n, m) is the product of the factor entries at the scaled residues of n
    and m.  The result is unitary whenever the factors are.
    """
    if b1.dim != ctx.d1 or b2.dim != ctx.d2:
        raise DimMismatch(
            f"factors of dimension {b1.dim}, {b2.dim} for d1={ctx.d1}, d2={ctx.d2}"
        )
    i1, i2 = crt_index_maps(ctx)
    matrix = b1.matrix[np.ix_(i1, i1)] * b2.matrix[np.ix_(i2, i2)]
    return OrthonormalBasis(ctx.d, matrix, f"[{b1.label}]x[{b2.label}]")
