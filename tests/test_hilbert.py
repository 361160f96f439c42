from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest

import wmub.hilbert
from wmub.bases import build_wmub
from wmub.geometry import maximal_line_catalog, prime_sweep_labels
from wmub.hilbert import (
    DimMismatch,
    DimTooLarge,
    EvenDimension,
    NotOddPrime,
    assemble_tensor_basis,
    check_crt_relabelling,
    conjugation_defect,
    fourier,
    prime_mub,
    unitarity_defect,
)
from wmub.zring import CrtContext, crt_context, is_prime, mod_inverse

from dense import (
    UnsupportedMatrix,
    assembled_basis,
    dense_conjugation_defect,
    displacement,
    omega,
    overlaps,
    quadratic_phase,
    symplectic_unitary,
    x_op,
    z_op,
)
from oracles import SymplecticMatrix

# Tolerance of the exact constructions checked below.
ATOL = 1e-10


def test_omega():
    assert omega(4, 1) == pytest.approx(1j)
    for d in (2, 3, 15):
        assert omega(d, 0) == 1
        for k in range(d):
            assert omega(d, k + d) == pytest.approx(omega(d, k), abs=1e-15)
    assert omega(3, 1) + omega(3, 2) + 1 == pytest.approx(0, abs=1e-15)


def test_fourier_basics():
    f2 = fourier(2)
    assert np.allclose(np.abs(f2), 1 / math.sqrt(2))
    for d in (2, 3, 5, 15, 105):
        f = fourier(d)
        assert unitarity_defect(f) < ATOL
        assert np.abs(np.linalg.matrix_power(f, 4) - np.eye(d)).max() < 1e-9


@pytest.mark.parametrize("d", [3, 5, 15])
def test_fourier_conjugates_z_to_inverse_shift(d):
    f = fourier(d)
    lhs = f @ z_op(d) @ f.conj().T
    assert np.abs(lhs - x_op(d, -1)).max() < ATOL
    lhs = f @ x_op(d) @ f.conj().T
    assert np.abs(lhs - z_op(d)).max() < ATOL


@pytest.mark.parametrize("d", [3, 5, 15])
def test_weyl_commutation_all_labels(d):
    for alpha in range(d):
        for beta in range(d):
            lhs = x_op(d, beta) @ z_op(d, alpha)
            rhs = z_op(d, alpha) @ x_op(d, beta) * omega(d, -alpha * beta)
            assert np.abs(lhs - rhs).max() < ATOL
    assert np.abs(x_op(d, d) - np.eye(d)).max() < ATOL
    assert np.abs(z_op(d, d) - np.eye(d)).max() < ATOL


def test_displacement_examples():
    assert np.abs(displacement(15, 0, 0) - np.eye(15)).max() < ATOL
    lhs = x_op(3) @ z_op(3)
    rhs = z_op(3) @ x_op(3) * omega(3, -1)
    assert np.abs(lhs - rhs).max() < ATOL
    rng = random.Random(9)
    for _ in range(20):
        a, b = rng.randrange(15), rng.randrange(15)
        prod = displacement(15, a, b) @ displacement(15, -a, -b)
        assert np.abs(prod - np.eye(15)).max() < ATOL
    with pytest.raises(EvenDimension):
        displacement(4, 1, 1)


def test_displacement_power_law():
    d = 15
    rng = random.Random(13)
    for _ in range(10):
        a, b = rng.randrange(d), rng.randrange(d)
        k = rng.randrange(1, d)
        lhs = np.linalg.matrix_power(displacement(d, a, b), k)
        assert np.abs(lhs - displacement(d, k * a, k * b)).max() < 1e-9


def test_quadratic_phase_examples():
    assert np.abs(quadratic_phase(15, 0) - np.eye(15)).max() < ATOL
    q = quadratic_phase(5, 1)
    assert np.abs(q @ x_op(5) @ q.conj().T - displacement(5, 1, 1)).max() < ATOL
    assert np.abs(q @ z_op(5) @ q.conj().T - z_op(5)).max() < ATOL
    got = np.diag(quadratic_phase(3, 2))
    assert np.allclose(got, [1, omega(3, 1), omega(3, 1)], atol=1e-15)
    with pytest.raises(EvenDimension):
        quadratic_phase(6, 1)


def test_symplectic_unitary_forms():
    assert np.array_equal(symplectic_unitary(15, SymplecticMatrix.identity(15)), np.eye(15))
    f_form = symplectic_unitary(5, SymplecticMatrix(5, 0, 1, -1, 0))
    assert np.abs(f_form - fourier(5)).max() < ATOL
    with pytest.raises(UnsupportedMatrix):
        symplectic_unitary(5, SymplecticMatrix(5, 1, 0, 1, 1))


@pytest.mark.parametrize("d,lam", [(3, 1), (3, 2), (5, 3), (7, 6), (15, 4)])
def test_symplectic_unitary_conjugation_contract(d, lam):
    g = SymplecticMatrix(d, 0, 1, -1, -lam)
    u = symplectic_unitary(d, g)
    assert unitarity_defect(u) < ATOL
    assert conjugation_defect(d, u, g.entries) < 1e-12


ORACLE_PAIRS = ((3, 5), (3, 7), (3, 11), (5, 7))


@pytest.mark.parametrize("d1,d2", ORACLE_PAIRS)
def test_conjugation_routes_agree_on_every_basis(d1, d2):
    s = build_wmub(maximal_line_catalog(crt_context(d1, d2)))
    for j in range(1, len(s) + 1):
        u, label = assembled_basis(s, j), s.labels[j - 1]
        assert conjugation_defect(s.ctx.d, u, label) < 1e-12
        assert dense_conjugation_defect(s.ctx.d, u, label) < 1e-12


@pytest.mark.parametrize(
    "d1,d2,stride", [(d1, d2, 1) for d1, d2 in ORACLE_PAIRS] + [(7, 13, 7), (5, 19, 7)]
)
def test_conjugation_residual_bounds_the_dense_residual(d1, d2, stride):
    # For unitary U, entry (r, c) of U X U^dag - D is the inner product of
    # row r of U X - D U with row c of U, so the largest row 2-norm of
    # U X - D U bounds the dense max-norm residual.  A global phase passes;
    # swapped columns, random column phases, a generic unitary and a wrong
    # label all land above 1/(2d), the largest tolerance that `verify`
    # admits.  At d = 91 and 95 every 7th basis.
    s = build_wmub(maximal_line_catalog(crt_context(d1, d2)))
    d = s.ctx.d
    rng = np.random.default_rng(d)

    def random_complex(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    generic, _ = np.linalg.qr(random_complex(d, d))
    for j in range(1, len(s) + 1, stride):
        u, label = assembled_basis(s, j), s.labels[j - 1]
        near, _ = np.linalg.qr(np.eye(d) + 1e-6 * random_complex(d, d))
        phases = np.exp(2j * np.pi * rng.random(d))
        swapped = u[:, [1, 0, *range(2, d)]]
        inputs = [
            (u @ near, label, False),
            (omega(d, j) * u, label, False),
            (swapped, label, True),
            (u * phases, label, True),
            (generic, label, True),
        ]
        if j < len(s):
            inputs.append((u, s.labels[j], True))
        for matrix, lab, fails in inputs:
            structured = conjugation_defect(d, matrix, lab)
            assert dense_conjugation_defect(d, matrix, lab) <= structured * (1 + 1e-6) + 1e-12
            assert (structured > 0.5 / d) is fails


def test_conjugation_defect_rejects_even_dimension():
    with pytest.raises(EvenDimension):
        conjugation_defect(4, np.eye(4, dtype=complex), (1, 0, 0, 1))
    with pytest.raises(EvenDimension):
        conjugation_defect(4, np.zeros((2, 4, 4), dtype=complex), ([1, 1], [0, 0], [0, 0], [1, 1]))


def test_conjugation_defect_rejects_wrong_shape():
    for shape in ((14, 14), (15, 14), (225,)):
        with pytest.raises(DimMismatch):
            conjugation_defect(15, np.zeros(shape, dtype=complex), (1, 0, 0, 1))
    # Stacks of a wrong shape, then a stack of 5 matrices with 6 labels.
    labels = tuple(np.array([(1, 0, 0, 1)] * 6).T)
    for shape in ((6, 15, 14), (6, 14, 14), (6, 16, 15), (1, 6, 15, 15)):
        with pytest.raises(DimMismatch):
            conjugation_defect(15, np.zeros(shape, dtype=complex), labels)
    with pytest.raises(DimMismatch):
        conjugation_defect(15, np.zeros((5, 15, 15), dtype=complex), labels)
    # Each label entry must have one value per matrix: a length-1 n is not
    # broadcast over the stack, and a length-7 l is named, not a numpy error.
    k, l, m, n = labels
    stack = np.zeros((6, 15, 15), dtype=complex)
    with pytest.raises(DimMismatch, match=r"lengths \[6, 6, 6, 1\] for 6 matrices"):
        conjugation_defect(15, stack, (k, l, m, n[:1]))
    with pytest.raises(DimMismatch, match=r"lengths \[6, 7, 6, 6\] for 6 matrices"):
        conjugation_defect(15, stack, (k, np.append(l, 0), m, n))


def factor_labels(p: int) -> np.ndarray:
    """[slot, entry]: the label of each `prime_mub(p)` basis, the identity
    and then the swept matrices (0, 1 | -1, -lam)."""
    return np.array([(1, 0, 0, 1)] + [(0, 1, p - 1, -lam % p) for lam in range(p)])


def test_prime_sweep_labels_equal_the_factor_label_oracle():
    for p in filter(is_prime, range(3, 104)):
        labels = prime_sweep_labels(p)
        assert labels.dtype == np.int64 and np.array_equal(labels, factor_labels(p)), p


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_stacked_kernels_equal_the_per_matrix_loop(p):
    # One call on a (p+1, p, p) stack gives exactly what one call per
    # matrix gives, on the exact family and on faults that fail it.
    rng = np.random.default_rng(p)
    family = prime_mub(p)
    labels = factor_labels(p)
    generic = [np.linalg.qr(rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p)))[0]
               for _ in range(p + 1)]
    inputs = {
        "exact": (family, labels),
        "column phases": (family * np.exp(2j * np.pi * rng.random((p + 1, 1, p))), labels),
        "swapped columns": (family[:, :, [1, 0, *range(2, p)]], labels),
        "generic unitary": (np.stack(generic), labels),
        "wrong label": (family, np.roll(labels, 1, axis=0)),
    }
    for name, (stack, lab) in inputs.items():
        defects = unitarity_defect(stack)
        residuals = conjugation_defect(p, stack, tuple(lab.T))
        assert defects.shape == residuals.shape == (p + 1,)
        loop_defects = [unitarity_defect(u) for u in stack]
        loop_residuals = [conjugation_defect(p, u, tuple(map(int, row))) for u, row in zip(stack, lab)]
        assert all(isinstance(x, float) for x in loop_defects + loop_residuals)
        assert (defects == loop_defects).all(), (p, name)
        assert (residuals == loop_residuals).all(), (p, name)
        assert bool(residuals.max() > 0.5 / p) == (name != "exact"), (p, name)


def test_symplectic_unitary_closed_form_entries():
    d, lam = 5, 3
    u = symplectic_unitary(d, SymplecticMatrix(d, 0, 1, -1, -lam))
    half = mod_inverse(2, d)
    for n in range(d):
        for m in range(d):
            expected = omega(d, half * lam * n * n + m * n) / math.sqrt(d)
            assert u[n, m] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_prime_mub_overlaps_flat(p):
    bases = prime_mub(p)
    assert bases.shape == (p + 1, p, p)
    target = 1 / math.sqrt(p)
    for i, a in enumerate(bases):
        assert unitarity_defect(a) < ATOL
        for b in bases[i + 1:]:
            assert np.abs(overlaps(a, b) - target).max() < ATOL


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_prime_mub_matches_symplectic_unitary(p):
    # The one phase table against the reference route, one swept basis at a
    # time: row 0 of the stack is the position basis, row 1 + lam swept by lam.
    bases = prime_mub(p)
    assert np.array_equal(bases[0], np.eye(p))
    for lam in range(p):
        reference = symplectic_unitary(p, SymplecticMatrix(p, 0, 1, -1, -lam))
        assert np.abs(bases[1 + lam] - reference).max() <= 1e-12, (p, lam)


def test_prime_mub_rejects_non_odd_primes():
    for bad in (2, 4, 9, 15):
        with pytest.raises(NotOddPrime):
            prime_mub(bad)


def test_prime_mub_checks_the_cap_before_primality(monkeypatch):
    # Trial division takes sqrt(p) steps, over a second at 10**14 + 31, so
    # a number above the cap is refused before any.
    calls = []
    monkeypatch.setattr(wmub.hilbert, "is_prime", lambda n: calls.append(n) or True)
    with pytest.raises(DimTooLarge, match=r"^dimension 1000003 exceeds the supported cap 105$"):
        prime_mub(1_000_003)
    assert calls == []


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gauss_sum_magnitudes(p):
    # The scalar identity behind flat overlaps: quadratic character sums
    # have magnitude sqrt(p) for any nonzero quadratic coefficient.
    half = mod_inverse(2, p)
    for delta in range(1, p):
        for k in range(p):
            total = sum(omega(p, half * delta * n * n + k * n) for n in range(p))
            assert abs(total) == pytest.approx(math.sqrt(p), abs=1e-10)


def test_assemble_position_factors_give_position_basis():
    ctx = crt_context(3, 5)
    b1 = prime_mub(3)[0]
    b2 = prime_mub(5)[0]
    assembled = assemble_tensor_basis(b1, b2, ctx)
    assert np.array_equal(assembled, np.eye(15))


def test_assemble_fourier_factors_give_momentum_states():
    # Columns of the assembled double Fourier matrix are momentum states,
    # with the column label translated between the two CRT maps.
    ctx = crt_context(3, 5)
    assembled = assemble_tensor_basis(prime_mub(3)[1], prime_mub(5)[1], ctx)
    momenta = fourier(15)
    for m in range(15):
        q = ctx.map1_join(*ctx.map2_split(m))
        overlap = abs(np.vdot(momenta[:, q], assembled[:, m]))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_assemble_random_mub_factors_unitary():
    rng = random.Random(17)
    for d1, d2 in ((3, 5), (3, 7), (5, 7)):
        ctx = crt_context(d1, d2)
        mubs1, mubs2 = prime_mub(d1), prime_mub(d2)
        for _ in range(6):
            b1 = mubs1[rng.randrange(len(mubs1))]
            b2 = mubs2[rng.randrange(len(mubs2))]
            assembled = assemble_tensor_basis(b1, b2, ctx)
            assert unitarity_defect(assembled) < ATOL


@pytest.mark.parametrize("d1,d2", [(3, 5), (3, 7), (5, 19), (7, 13), (3, 31)])
def test_crt_index_maps_factorize_the_displacements(d1, d2):
    # The identities `check_crt_relabelling` certifies in O(d), against
    # dense operators: P X P^dag = X^t1 (x) X^t2 and P D(a, b) P^dag =
    # D(a, b*t1) (x) D(a, b*t2), with P|n> = |i1(n)> (x) |i2(n)>.
    ctx = crt_context(d1, d2)
    check_crt_relabelling(ctx)
    i1, i2 = ctx.map2_split(np.arange(ctx.d))
    p = np.zeros((ctx.d, ctx.d))
    p[i1 * d2 + i2, np.arange(ctx.d)] = 1.0
    x = np.kron(np.linalg.matrix_power(x_op(d1), ctx.t1), np.linalg.matrix_power(x_op(d2), ctx.t2))
    assert np.abs(p @ x_op(ctx.d) @ p.T - x).max() < ATOL
    for a, b in ((1, 0), (0, 1), (2, 3), (ctx.d - 1, 5)):
        split = np.kron(displacement(d1, a, b * ctx.t1), displacement(d2, a, b * ctx.t2))
        assert np.abs(p @ displacement(ctx.d, a, b) @ p.T - split).max() < ATOL


def test_crt_relabelling_check_names_the_broken_identity(monkeypatch, cold_context_caches):
    ctx = crt_context(3, 5)
    real_split, real_inverse = CrtContext.map2_split, wmub.hilbert.mod_inverse
    cases = [
        # n -> n mod d1 (t1 = 1) turns X_d into X_d1 (x) X_d2^t2
        (CrtContext, "map2_split", lambda c, n: (n % c.d1, real_split(c, n)[1]), "X_d is not"),
        # a shifted first map keeps the steps but not the Z phases
        (CrtContext, "map2_split",
         lambda c, n: ((real_split(c, n)[0] + 1) % c.d1, real_split(c, n)[1]), "Z_d is not"),
        # a wrong 2^-1 mod d in the D_d phase
        (wmub.hilbert, "mod_inverse", lambda a, m: real_inverse(a, m) + (m == ctx.d), "phase of D_d"),
    ]
    for target, name, fake, message in cases:
        with monkeypatch.context() as patch:
            patch.setattr(target, name, fake)
            with pytest.raises(RuntimeError, match=f"^CRT relabelling: .*{message}"):
                check_crt_relabelling(ctx)


def test_a_certified_relabelling_vouches_for_no_other_context(cold_context_caches):
    # A context that passes is certified once; one with another t1 is a key
    # of its own, and its failure is not cached, so it fails on every call.
    ctx = crt_context(3, 5)
    check_crt_relabelling(ctx)
    for _ in range(2):
        with pytest.raises(RuntimeError, match=r"^CRT relabelling: Z_d is not"):
            check_crt_relabelling(replace(ctx, t1=1))
    check_crt_relabelling(ctx)
    assert check_crt_relabelling.cache_info()[:4] == (1, 3, None, 1)  # hits, misses, maxsize, size


def test_assemble_rejects_wrong_dimensions():
    ctx = crt_context(3, 5)
    with pytest.raises(DimMismatch):
        assemble_tensor_basis(prime_mub(5)[0], prime_mub(3)[0], ctx)


def test_all_constructors_unitary_at_cap():
    d = 105
    for matrix in (fourier(d), z_op(d, 13), x_op(d, 31), displacement(d, 8, 9),
                   quadratic_phase(d, 11)):
        assert unitarity_defect(matrix) < ATOL


def test_dimension_cap():
    with pytest.raises(ValueError):
        fourier(150)
