"""System and detector descriptions."""

import dataclasses
import math

import numpy as np
import pytest

from zenosim.errors import DimensionMismatch, NonHermitianInput, ZeroStrength
from zenosim.model import (
    DetectorModel,
    SystemSpec,
    TwoLevelPreset,
    correlation,
    gaussian_detector,
    required_duration,
    strength,
)

SQRT_PI_OVER_2 = 1.2533141373155003


def fig1_detector():
    return gaussian_detector(sigma=1.0, lam=50.0, tau=0.1)


class TestCorrelation:
    def test_normalization_at_zero(self):
        assert correlation(fig1_detector(), 0.0) == 1.0

    def test_gaussian_values(self):
        det = gaussian_detector(sigma=1.0, lam=1.0, tau=1.0)
        assert correlation(det, 1.0) == pytest.approx(0.6065306597126334, rel=1e-12)
        assert correlation(det, 10.0) == pytest.approx(1.9287498479639178e-22, rel=1e-10)

    @pytest.mark.parametrize("nu", [1.7, np.array(-0.3),
                                    np.random.default_rng(5).normal(0.0, 4.0, (257, 257))],
                             ids=["scalar", "0-d", "257x257"])
    def test_gaussian_bits_of_the_plain_expression(self, nu):
        # the in-place argument keeps the bits of exp(-(nu^2) / (2 sigma^2))
        det = gaussian_detector(sigma=0.7, lam=1.0, tau=1.0)
        plain = np.exp(-(np.asarray(nu) ** 2) / (2.0 * det.sigma ** 2))
        value = correlation(det, nu)
        assert np.array_equal(np.real(value), plain) and np.all(np.imag(value) == 0.0)
        assert isinstance(value, complex) == (np.ndim(nu) == 0)


class TestStrength:
    def test_gaussian_c(self):
        s = strength(gaussian_detector(sigma=1.0, lam=1.0, tau=1.0))
        assert s.C == pytest.approx(SQRT_PI_OVER_2, rel=1e-12)

    def test_fig1_lambda(self):
        s = strength(fig1_detector())
        assert s.Lambda == pytest.approx(50.0 / SQRT_PI_OVER_2, rel=1e-12)
        assert s.Lambda == pytest.approx(39.89422804014327, rel=1e-10)

    def test_zero_coupling(self):
        s = strength(gaussian_detector(sigma=2.0, lam=0.0, tau=1.0))
        assert s.Lambda == 0.0

    def test_integral_consistency_with_correlation(self):
        # numerically integrating F over [-12 sigma, 12 sigma] reproduces 2C
        for sigma in (0.5, 1.0, 2.0):
            det = gaussian_detector(sigma=sigma, lam=3.0, tau=0.2)
            nu = np.linspace(-12 * sigma, 12 * sigma, 4001)
            integral = np.trapezoid(correlation(det, nu).real, nu)
            assert abs(integral - 2.0 * strength(det).C) < 1e-8


class TestRequiredDuration:
    def test_fig1_bound(self):
        det = fig1_detector()
        bound = required_duration(det, delta_e=2.0, hbar=1.0)
        assert bound == pytest.approx(0.012533141373155003, rel=1e-10)
        assert det.tau > bound  # Fig. 1's tau = 0.1 satisfies the bound

    def test_inverse_proportionality(self):
        det = fig1_detector()
        assert required_duration(det, 4.0, 1.0) == pytest.approx(
            required_duration(det, 2.0, 1.0) / 2.0)

    def test_unit_case(self):
        det = gaussian_detector(sigma=math.sqrt(2.0 / math.pi), lam=1.0, tau=1.0)
        # C = sigma sqrt(pi / 2) = 1, so hbar/(Lambda dE) = 1
        assert required_duration(det, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_strength(self):
        with pytest.raises(ZeroStrength):
            required_duration(gaussian_detector(1.0, 0.0, 1.0), 1.0, 1.0)

    @pytest.mark.parametrize("delta_e, hbar", [
        (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-2.0, 1.0),
        (2.0, math.nan), (2.0, math.inf), (2.0, 0.0), (2.0, -1.0)])
    def test_rejects_non_finite_or_non_positive_input(self, delta_e, hbar):
        # delta_e = nan returned NaN and hbar = 0 returned 0.0
        with pytest.raises(ValueError, match="must be finite and > 0"):
            required_duration(fig1_detector(), delta_e, hbar)


class TestDetectorValidation:
    def test_rejects_bad_tau(self):
        for tau in (0.0, -1.0):
            with pytest.raises(ValueError):
                gaussian_detector(sigma=1.0, lam=1.0, tau=tau)

    def test_sigma_is_required(self):
        with pytest.raises(TypeError):
            DetectorModel(lam=1.0, tau=1.0)
        assert [f.name for f in dataclasses.fields(DetectorModel)] == ["lam", "tau", "sigma"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, pytest.param(10 ** 400, id="huge_int")])
    @pytest.mark.parametrize("field", ["sigma", "lam", "tau"])
    def test_rejects_non_finite_parameter(self, field, bad):
        kwargs = {"sigma": 1.0, "lam": 1.0, "tau": 1.0, field: bad}
        with pytest.raises(ValueError):
            gaussian_detector(**kwargs)


class TestPointerStates:
    def test_pointer_overlap_equals_f(self):
        # overlap of detector states shifted by two level energies is
        # F(lambda tau w12); checked against the position-distribution rule
        from zenosim.superop import default_rule
        det = fig1_detector()
        rule = default_rule(det, 512)
        for w12 in (0.3, 1.0, 2.0):
            nu = det.lam * det.tau * w12
            overlap = np.sum(rule.weights * np.exp(1j * nu * rule.nodes))
            assert overlap == pytest.approx(correlation(det, nu), abs=1e-10)


class TestTwoLevelPreset:
    def test_expansion(self):
        preset = TwoLevelPreset(omega=2.0, v=1.0 + 0.5j, hbar=1.0)
        sys = preset.to_system()
        assert sys.levels == (-1.0, 1.0)
        v = sys.v_at(0.0)
        assert v[1, 0] == 1.0 + 0.5j
        assert v[0, 1] == 1.0 - 0.5j

    def test_rabi_frequency(self):
        assert TwoLevelPreset(2.0, 1.0).rabi_frequency == pytest.approx(
            math.sqrt(8.0), rel=1e-14)

    def test_zero_coupling(self):
        preset = TwoLevelPreset(omega=1.5, v=0.0)
        assert preset.rabi_frequency == pytest.approx(1.5)
        assert np.all(preset.v_matrix() == 0)


class TestSystemSpec:
    def test_flat_indexing_with_alpha(self):
        sys = SystemSpec(levels=(0.0, 2.0), alpha_energies=((0.0, 0.5), (0.0,)),
                         v=np.zeros((3, 3)))
        assert sys.dim == 3
        assert sys.flat_index(0, 1) == 1
        assert sys.flat_index(1, 0) == 2
        np.testing.assert_allclose(sys.e0, [0.0, 0.0, 2.0])
        np.testing.assert_allclose(sys.e1, [0.0, 0.5, 0.0])

    def test_omega_matrices(self):
        sys = SystemSpec(levels=(0.0, 2.0), alpha_energies=((0.0, 0.5), (0.0,)),
                         v=np.zeros((3, 3)), hbar=2.0)
        w_lvl = sys.omega_level()
        w_full = sys.omega_full()
        assert w_lvl[2, 0] == pytest.approx(1.0)
        assert w_lvl[1, 0] == 0.0  # same level, alpha ignored
        assert w_full[1, 0] == pytest.approx(0.25)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     pytest.param(10 ** 400, id="huge_int")])
    def test_rejects_non_finite_energies(self, bad):
        with pytest.raises(ValueError):
            SystemSpec(levels=(0.0, bad))
        with pytest.raises(ValueError):
            SystemSpec(levels=(0.0, 1.0), alpha_energies=((0.0,), (0.0, bad)))
        with pytest.raises(ValueError):
            SystemSpec(levels=(0.0, 1.0), hbar=bad)

    def test_requires_two_levels(self):
        with pytest.raises(ValueError):
            SystemSpec(levels=(1.0,))

    def test_rejects_non_hermitian_v(self):
        with pytest.raises(NonHermitianInput):
            SystemSpec(levels=(0.0, 1.0), v=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_accepts_a_strided_view_of_v(self):
        # the finiteness check viewed V as floats, which a view with a strided
        # last axis refused with "the last axis must be contiguous"
        blocks = np.zeros((2, 3, 2, 3), dtype=complex)
        blocks[0, 0, 1, 0], blocks[1, 0, 0, 0] = 0.5j, -0.5j
        sys = SystemSpec(levels=(0.0, 1.0), v=blocks[:, 0, :, 0])
        assert sys.v[0, 1] == 0.5j

    def test_rejects_non_hermitian_callable_sample(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NonHermitianInput):
            SystemSpec(levels=(0.0, 1.0), v=lambda t: bad)

    def test_rejects_wrong_v_dimension(self):
        with pytest.raises(DimensionMismatch):
            SystemSpec(levels=(0.0, 1.0), v=np.zeros((3, 3)))

    def test_constant_and_callable_v(self):
        vmat = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        s1 = SystemSpec(levels=(0.0, 1.0), v=vmat)
        assert s1.constant_v
        s2 = SystemSpec(levels=(0.0, 1.0), v=lambda t: np.cos(t) * vmat)
        assert not s2.constant_v
        np.testing.assert_allclose(s2.v_at(0.3), np.cos(0.3) * vmat)
