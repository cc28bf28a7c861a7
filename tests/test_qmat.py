"""Linear-algebra kernel: eigendecomposition, unitary exponentials, tensors."""

import numpy as np
import pytest

from zenosim.errors import DimensionMismatch, InvalidDensityMatrix, NonHermitianInput
from zenosim.qmat import (
    apply_super,
    check_density_matrix,
    herm_eig,
    trace_sum_rule_defect,
    unitary_exp,
)

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


class TestHermEig:
    def test_identity(self):
        w, u = herm_eig(np.eye(2, dtype=complex))
        np.testing.assert_allclose(w, [1.0, 1.0])
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)

    def test_already_diagonal(self):
        w, _ = herm_eig(np.diag([-1.0, 1.0]).astype(complex))
        np.testing.assert_allclose(w, [-1.0, 1.0])

    def test_reconstruction_random_4x4(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 4)
        w, u = herm_eig(h)
        np.testing.assert_allclose(u @ np.diag(w) @ u.conj().T, h, atol=1e-10)

    def test_reconstruction_and_unitarity_100_trials(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dim = rng.integers(2, 9)
            h = random_hermitian(rng, dim)
            w, u = herm_eig(h)
            assert np.all(np.diff(w) >= -1e-12)
            assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-10
            assert np.abs(u @ np.diag(w) @ u.conj().T - h).max() < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            herm_eig(np.zeros((2, 3), dtype=complex))


class TestUnitaryExp:
    def test_zero_generator(self):
        np.testing.assert_allclose(unitary_exp(np.zeros((3, 3)), 5.0), np.eye(3),
                                   atol=1e-14)

    def test_diagonal_phases(self):
        u = unitary_exp(SIGMA3, np.pi / 2.0)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        np.testing.assert_allclose(u, expected, atol=1e-14)

    def test_sigma1_against_series_sum(self):
        theta = 0.3
        series = np.zeros((2, 2), dtype=complex)
        term = np.eye(2, dtype=complex)
        for k in range(1, 40):
            series += term
            term = term @ (-1j * theta * SIGMA1) / k
        u = unitary_exp(SIGMA1, theta)
        np.testing.assert_allclose(u, series, atol=1e-12)
        np.testing.assert_allclose(
            u, np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * SIGMA1, atol=1e-12)

    def test_output_unitary_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            dim = rng.integers(2, 9)
            u = unitary_exp(random_hermitian(rng, dim), rng.uniform(0.1, 3.0))
            assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            unitary_exp(np.array([[0.0, 2.0], [0.0, 0.0]]), 1.0)


class TestApplySuper:
    def test_identity_tensor(self):
        d = 3
        eye = np.eye(d)
        tensor = np.einsum("pn,rm->prnm", eye, eye).astype(complex)
        rng = np.random.default_rng(5)
        rho = random_density(rng, d)
        np.testing.assert_allclose(apply_super(tensor, rho), rho, atol=1e-14)

    def test_unitary_conjugation_tensor_preserves_trace(self):
        rng = np.random.default_rng(9)
        d = 4
        u = unitary_exp(random_hermitian(rng, d), 0.7)
        tensor = np.einsum("pn,rm->prnm", u, u.conj())
        assert trace_sum_rule_defect(tensor) < 1e-12
        for _ in range(100):
            rho = random_density(rng, d)
            out = apply_super(tensor, rho)
            assert abs(out.trace() - 1.0) < 1e-12
            np.testing.assert_allclose(out, u @ rho @ u.conj().T, atol=1e-12)

    def test_result_hermitian(self):
        rng = np.random.default_rng(13)
        tensor = rng.normal(size=(3, 3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3, 3))
        out = apply_super(tensor, random_density(rng, 3))
        assert np.abs(out - out.conj().T).max() < 1e-14

    def test_non_contiguous_view_matches_einsum(self):
        # the Liouville matvec against the index contraction it replaces, on
        # strided and transposed views that reshape has to copy
        rng = np.random.default_rng(17)
        base = rng.normal(size=(4, 4, 4, 8)) + 1j * rng.normal(size=(4, 4, 4, 8))
        rho = random_density(rng, 4)
        for tensor in (base[..., ::2], base[..., ::2].transpose(1, 0, 3, 2)):
            assert not tensor.flags.c_contiguous
            ref = np.einsum("prnm,nm->pr", tensor, rho)
            ref = 0.5 * (ref + ref.conj().T)
            assert np.abs(apply_super(tensor, rho) - ref).max() <= 1e-14

    def test_dimension_mismatch(self):
        tensor = np.zeros((3, 3, 3, 3), dtype=complex)
        with pytest.raises(DimensionMismatch):
            apply_super(tensor, np.eye(2) / 2.0)


class TestDensityChecks:
    def test_accepts_valid(self):
        check_density_matrix(np.eye(2) / 2.0)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidDensityMatrix):
            check_density_matrix(np.eye(2))

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(InvalidDensityMatrix):
            check_density_matrix(rho)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(InvalidDensityMatrix):
            check_density_matrix(rho)

    def test_tolerates_rounding_scale_negativity(self):
        rho = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        check_density_matrix(rho)
