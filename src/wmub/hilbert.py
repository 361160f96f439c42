"""Finite-dimensional Hilbert-space machinery: the discrete Fourier
transform, the stacked unitarity and conjugation kernels, the mutually
unbiased bases of an odd prime dimension as one stack, and tensor assembly
of bases along the CRT factorization.  The dense displacement operators and
symplectic unitaries the kernels are checked against live in tests/dense.py."""

from __future__ import annotations

import numpy as np

from .zring import CrtContext, is_prime, mod_inverse

MAX_DIM = 105


class EvenDimension(ValueError):
    """The operation needs 2 to be invertible, so the dimension must be odd."""


class NotOddPrime(ValueError):
    """Mutually unbiased bases are built here for odd prime dimension only."""


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


def fourier(d: int) -> np.ndarray:
    """F[m, n] = d**-0.5 * omega(m*n); columns are the momentum states."""
    _check_dim(d)
    idx = np.arange(d)
    return np.exp(2j * np.pi * (np.outer(idx, idx) % d) / d) / np.sqrt(d)


def unitarity_defect(matrix: np.ndarray) -> float | np.ndarray:
    """Max-norm distance of U^dag U from the identity.

    Given a stack of shape (K, d, d), returns the K defects as an array,
    from one batched product.
    """
    gram = np.swapaxes(matrix.conj(), -1, -2) @ matrix
    defects = np.abs(gram - np.eye(matrix.shape[-1])).max(axis=(-2, -1))
    return defects if matrix.ndim == 3 else float(defects)


def conjugation_defect(d: int, matrix: np.ndarray, label) -> float | np.ndarray:
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

    Given a stack of shape (K, d, d) and four integer arrays of length K
    as the label, returns the K residuals as an array, in one pass.
    """
    _check_dim(d)
    if d % 2 == 0:
        raise EvenDimension(f"conjugation needs odd dimension, got {d}")
    if matrix.ndim not in (2, 3) or matrix.shape[-2:] != (d, d):
        raise DimMismatch(f"matrix of shape {matrix.shape} in dimension {d}")
    stack = matrix if matrix.ndim == 3 else matrix[None]
    k, l, m, n = (np.atleast_1d(entry)[:, None] for entry in label)  # each [K, 1]
    counts = [len(k), len(l), len(m), len(n)]
    if counts != [len(stack)] * 4:
        raise DimMismatch(f"label entries of lengths {counts} for {len(stack)} matrices")
    half = mod_inverse(2, d)
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    rows = np.arange(d)
    matrices = np.arange(len(stack))[:, None]  # [K, 1]

    def displaced(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
        phases = roots[((alpha % d) * rows - half * alpha * beta % d) % d]  # [K, r]
        shifted = stack[matrices, (rows - beta) % d]  # row r of each matrix is its row r - beta
        return phases[:, :, None] * shifted

    dx = np.linalg.norm(np.roll(stack, -1, axis=2) - displaced(l, k), axis=2).max(axis=1)
    dz = np.linalg.norm(stack * roots - displaced(n, m), axis=2).max(axis=1)
    residuals = np.maximum(dx, dz)
    return residuals if matrix.ndim == 3 else float(residuals[0])


def prime_mub(p: int) -> np.ndarray:
    """The p+1 mutually unbiased bases of C^p for an odd prime p, as one
    (p+1, p, p) stack of unitaries whose columns are the basis vectors.

    Row 0 is the position basis; row 1+lam is the unitary of the swept
    symplectic matrix (0, 1 | -1, -lam): the Fourier matrix with row n
    scaled by omega(2^-1 * lam * n^2), all p of them read from one
    (lam, n) phase table.  Every cross-basis overlap has magnitude p**-0.5.
    """
    if p == 2 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    f = fourier(p)
    n = np.arange(p)
    roots = np.exp(2j * np.pi * n / p)
    phases = roots[mod_inverse(2, p) * np.outer(n, n * n) % p]  # [lam, n]
    return np.concatenate([np.eye(p)[None], phases[:, :, None] * f])


def check_crt_relabelling(ctx: CrtContext) -> None:
    """Certify that the relabelling of C^d as C^d1 (x) C^d2 by the index
    maps n -> (n*t1 mod d1, n*t2 mod d2), `ctx.map2_split`, factorizes the
    displacement operators: X_d becomes X_d1^t1 (x) X_d2^t2, Z_d becomes
    Z_d1 (x) Z_d2, and the phase of D_d(a, b) splits, so that D_d(a, b)
    becomes D_d1(a, b*t1) (x) D_d2(a, b*t2), the split `split_entries`
    encodes.

    Each identity is one O(d) integer check on exponents of roots of unity:
    omega_d^e = omega_d1^e1 * omega_d2^e2 exactly when e = e1*d2 + e2*d1
    (mod d).  The Z identity also makes the relabelling a bijection.
    Raises RuntimeError naming the first identity that fails.
    """
    d, d1, d2 = ctx.d, ctx.d1, ctx.d2
    n = np.arange(d)
    i1, i2 = ctx.map2_split(n)

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


def assemble_tensor_basis(b1: np.ndarray, b2: np.ndarray, ctx: CrtContext) -> np.ndarray:
    """Tensor two factor bases, given as d1 x d1 and d2 x d2 unitaries, into
    the d x d unitary of a basis of C^d, d = d1*d2.

    Row and column labels both split through `ctx.map2_split`, so entry
    (n, m) is the product of the factor entries at the scaled residues of n
    and m.  The result is unitary whenever the factors are.
    """
    if b1.shape != (ctx.d1, ctx.d1) or b2.shape != (ctx.d2, ctx.d2):
        raise DimMismatch(
            f"factors of shape {b1.shape}, {b2.shape} for d1={ctx.d1}, d2={ctx.d2}"
        )
    i1, i2 = ctx.map2_split(np.arange(ctx.d))
    return b1[np.ix_(i1, i1)] * b2[np.ix_(i2, i2)]
