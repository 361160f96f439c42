"""Dense Hilbert-space oracles: roots of unity, the shift, phase and
displacement operators, quadratic phases and the symplectic unitaries they
generate, all as d x d matrices, and the dense residuals of an assembled
basis.

The library certifies bases from the prime-dimension factor stacks with
row-norm kernels and integer identities; these helpers form the operators
and products instead, so the tests can compare the two routes.
"""

from __future__ import annotations

import numpy as np

from wmub.bases import WmubSet
from wmub.geometry import ModulusMismatch
from wmub.hilbert import (
    DimMismatch,
    EvenDimension,
    _check_dim,
    assemble_tensor_basis,
    conjugation_defect,
    fourier,
)
from wmub.zring import mod_inverse

from oracles import SymplecticMatrix


class UnsupportedMatrix(ValueError):
    """No unitary is synthesized for this symplectic matrix."""


def omega(d: int, k: int) -> complex:
    """exp(2*pi*i*k/d); periodic in k with period d."""
    return complex(np.exp(2j * np.pi * (k % d) / d))


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


def overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Magnitudes |<a_n|b_m>| as an (n, m) table, for two bases given as
    the unitaries whose columns are their vectors."""
    if a.shape != b.shape:
        raise DimMismatch(f"bases of shape {a.shape} and {b.shape}")
    return np.abs(a.conj().T @ b)


def dense_conjugation_defect(d: int, u: np.ndarray, label: tuple[int, int, int, int]) -> float:
    """Max-norm residual of U X U^dag = D(l, k) and U Z U^dag = D(n, m),
    from dense operators and matrix products."""
    k, l, m, n = label
    u_dag = u.conj().T
    dx = np.abs(u @ x_op(d) @ u_dag - displacement(d, l, k)).max()
    dz = np.abs(u @ z_op(d) @ u_dag - displacement(d, n, m)).max()
    return float(max(dx, dz))


def assembled_basis(s: WmubSet, j: int) -> np.ndarray:
    """The d x d unitary of basis j, assembled from its two factor slots."""
    (stack1, stack2), (slot1, slot2) = s.factor_stacks, s.factor_slots[j - 1]
    return assemble_tensor_basis(stack1[slot1], stack2[slot2], s.ctx)


def symplectic_label_defect(s: WmubSet, j: int) -> float:
    """Conjugation residual of the assembled basis j against its
    d-dimensional label; the dense route that `conjugation_bound` bounds."""
    return conjugation_defect(s.ctx.d, assembled_basis(s, j), s.symplectic_label(j))
