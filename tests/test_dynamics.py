"""Jump probabilities, rate equation, two-level references."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import line_shape_closed_form, spy_sized_rules, trapezoid_weights
from zenosim import dynamics, superop
from zenosim.errors import (NoTransitions, NotInZenoRegime, QuadratureNotConverged, ZeroFrequency,
                            ZeroStrength)
from zenosim.model import SystemSpec, TwoLevelPreset, correlation, gaussian_detector, strength
from zenosim.dynamics import (
    inhibition_time,
    jump_probability_general,
    jump_probability_strong,
    jump_table,
    measured_exponential,
    rabi_unmeasured,
    rate_matrix,
    two_level_inhibition_time,
)
from zenosim.superop import _v_samples, build_exact, build_second_order, repeat

FIG1_DET = gaussian_detector(sigma=1.0, lam=50.0, tau=0.1)
FIG1_SYS = TwoLevelPreset(omega=2.0, v=1.0).to_system()
FIG1_PRESET = TwoLevelPreset(omega=2.0, v=1.0)


def random_hermitian(rng, dim, scale):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (m + m.conj().T)


class TestJumpGeneral:
    def test_zero_perturbation(self):
        sys = TwoLevelPreset(omega=2.0, v=0.0).to_system()
        assert jump_probability_general(sys, FIG1_DET, 1, 0, 0, 0) == 0.0

    def test_weak_measurement_of_a_fast_transition(self):
        # 3e3 and 3e4 periods of e^{i w t} in tau, which the Filon rule integrates
        # exactly; a trapezoid ladder still moved by 3.5e-3 at 65537 points at
        # w = 2e4.  What is left is rounding, amplified by a sum that cancels to
        # 1/(w tau) of its terms
        det = gaussian_detector(sigma=1.0, lam=0.0, tau=1.0)
        for omega in (2e4, 2e5):
            w = jump_probability_general(TwoLevelPreset(omega=omega, v=1.0).to_system(),
                                         det, 1, 0, 0, 0)
            ref = 4.0 * math.sin(0.5 * omega) ** 2 / omega ** 2
            assert abs(w - ref) <= 1e-7 * ref

    def test_not_converged_carries_ladder_time_dependent(self):
        # the time ladder from 17 points on a V(t) with a kink between grid points,
        # where no Richardson step gains an order: it still moves by 9e-9 at 8193
        vmat = FIG1_SYS.v_at(0.0)
        kink = FIG1_DET.tau / math.sqrt(2.0)
        sys = SystemSpec(levels=(-1.0, 1.0), v=lambda t: abs(t - kink) * vmat)
        with pytest.raises(QuadratureNotConverged) as info:
            jump_probability_general(sys, FIG1_DET, 1, 0, 0, 0, rel_tol=1e-10)
        ladder = info.value.ladder
        assert [nt for nt, _ in ladder] == [(16 << k) + 1 for k in range(1, 10)]
        assert f"at 8193 time points still moving by {ladder[-1][1]:.2e}" in str(info.value)

    def test_matches_appendix_diagonal_fig1(self):
        w = jump_probability_general(FIG1_SYS, FIG1_DET, 1, 0, 0, 0, rel_tol=1e-9)
        pert = build_second_order(FIG1_SYS, FIG1_DET)
        w_s2 = pert.tensor[0, 0, 1, 1].real
        assert abs(w - w_s2) < 1e-8

    def test_appendix_consistency_random_systems(self):
        rng = np.random.default_rng(17)
        for dim in (2, 3, 4):
            levels = tuple(np.sort(rng.uniform(-2.0, 2.0, dim)))
            v = random_hermitian(rng, dim, 0.3)
            sys = SystemSpec(levels=levels, v=v)
            det = gaussian_detector(sigma=1.0, lam=10.0, tau=0.15)
            pert = build_second_order(sys, det)
            for f in range(dim - 1):
                w = jump_probability_general(sys, det, dim - 1, 0, f, 0, rel_tol=1e-9)
                assert abs(w - pert.tensor[f, f, dim - 1, dim - 1].real) < 1e-8

    def test_appendix_consistency_time_dependent(self):
        vmat = np.array([[0.0, 0.4], [0.4, 0.0]], dtype=complex)
        sys = SystemSpec(levels=(-1.0, 1.0), v=lambda t: np.cos(2.0 * t) * vmat)
        det = gaussian_detector(sigma=1.0, lam=10.0, tau=0.2)
        w = jump_probability_general(sys, det, 1, 0, 0, 0, t0=0.3, rel_tol=1e-9)
        pert = build_second_order(sys, det, t0=0.3)
        assert abs(w - pert.tensor[0, 0, 1, 1].real) < 1e-8

    def test_f_equal_one_first_order_oracle(self):
        # lambda = 0 makes F identically 1; constant V gives the textbook
        # second-order result |v|^2 * 4 sin^2(w tau / 2) / (hbar w)^2
        v = 0.25
        omega = 2.0
        tau = 0.4
        sys = TwoLevelPreset(omega=omega, v=v).to_system()
        det = gaussian_detector(sigma=1.0, lam=0.0, tau=tau)
        w = jump_probability_general(sys, det, 1, 0, 0, 0, rel_tol=1e-10)
        expected = (2.0 * v * math.sin(omega * tau / 2.0) / omega) ** 2
        assert w == pytest.approx(expected, rel=1e-7)

    def test_f_equal_one_time_dependent_oracle(self):
        # direct first-order Dyson amplitude |(1/hbar) int V_fi e^{i w t} dt|^2
        omega = 2.0
        tau = 0.4
        vmat = np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex)
        sys = SystemSpec(levels=(-omega / 2, omega / 2), v=lambda t: np.cos(5.0 * t) * vmat)
        det = gaussian_detector(sigma=1.0, lam=0.0, tau=tau)
        w = jump_probability_general(sys, det, 1, 0, 0, 0, rel_tol=1e-10)
        t = np.linspace(0.0, tau, 20001)
        amp = np.trapezoid(0.3 * np.cos(5.0 * t) * np.exp(1j * omega * t), t)
        assert w == pytest.approx(abs(amp) ** 2, rel=1e-6)


class TestJumpTimeIndependent:
    """A constant V takes the one-integral form of jump_probability_general."""

    def test_resonant_growth(self):
        # degenerate levels with F = 1: W = (v tau / hbar)^2
        v = np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex)
        sys = SystemSpec(levels=(1.0, 1.0), v=v)
        det = gaussian_detector(sigma=1.0, lam=5.0, tau=0.7)
        w = jump_probability_general(sys, det, 0, 0, 1, 0, rel_tol=1e-9)
        assert w == pytest.approx((0.3 * 0.7) ** 2, rel=1e-10)

    def test_matches_general_fig1(self):
        # the same V as a callable takes the node form of the double integral
        vmat = FIG1_SYS.v_at(0.0)
        timed = SystemSpec(levels=(-1.0, 1.0), v=lambda t: vmat)
        w1 = jump_probability_general(FIG1_SYS, FIG1_DET, 1, 0, 0, 0, rel_tol=1e-9)
        w2 = jump_probability_general(timed, FIG1_DET, 1, 0, 0, 0, rel_tol=1e-9)
        assert w1 == pytest.approx(w2, rel=1e-6)

    def test_matches_line_shape_convolution(self):
        # the single-integral form equals (2 pi tau / hbar^2) |V|^2 P(omega_E)
        from zenosim.decay import line_shape
        w = jump_probability_general(FIG1_SYS, FIG1_DET, 1, 0, 0, 0, rel_tol=1e-9)
        p0 = line_shape(0.0, 2.0, FIG1_DET)
        conv = 2.0 * math.pi * FIG1_DET.tau * 1.0 * p0
        assert abs(w - conv) < 1e-8

    def test_convolution_form_with_auxiliary_energy(self):
        # nonzero E1 difference shifts the evaluation point to
        # omega_E = (E1_f - E1_i) / hbar
        from zenosim.decay import line_shape
        v = np.zeros((2, 2), dtype=complex)
        v[0, 1] = v[1, 0] = 0.4
        sys = SystemSpec(levels=(-1.0, 1.0), alpha_energies=((0.7,), (0.2,)), v=v)
        det = gaussian_detector(sigma=1.0, lam=12.0, tau=0.3)
        w = jump_probability_general(sys, det, 1, 0, 0, 0, rel_tol=1e-9)
        omega_e = (0.7 - 0.2) / 1.0
        conv = 2.0 * math.pi * det.tau * 0.16 * line_shape(omega_e, 2.0, det)
        assert abs(w - conv) < 1e-8

    def test_vanishes_quadratically_with_tau(self):
        vals = []
        for tau in (2e-3, 1e-3):
            det = gaussian_detector(sigma=1.0, lam=50.0, tau=tau)
            vals.append(jump_probability_general(FIG1_SYS, det, 1, 0, 0, 0, rel_tol=1e-9))
        assert vals[0] / vals[1] == pytest.approx(4.0, rel=0.05)


class TestJumpStrong:
    def test_fig1_value(self):
        with pytest.warns(NotInZenoRegime):
            w = jump_probability_strong(FIG1_SYS, FIG1_DET, 1, 0, 0, 0)
        lam_big = strength(FIG1_DET).Lambda
        assert w == pytest.approx(2.0 * 0.1 / (lam_big * 2.0), rel=1e-12)
        assert w == pytest.approx(2.5066282746310007e-3, rel=1e-10)

    def test_doubling_lambda_halves(self):
        det2 = gaussian_detector(sigma=1.0, lam=100.0, tau=0.1)
        with pytest.warns(NotInZenoRegime):
            w1 = jump_probability_strong(FIG1_SYS, FIG1_DET, 1, 0, 0, 0)
        w2 = jump_probability_strong(FIG1_SYS, det2, 1, 0, 0, 0)
        assert w1 / w2 == pytest.approx(2.0, rel=1e-12)

    def test_agrees_with_full_integral_within_ten_percent(self):
        with pytest.warns(NotInZenoRegime):
            w_strong = jump_probability_strong(FIG1_SYS, FIG1_DET, 1, 0, 0, 0)
        w_full = jump_probability_general(FIG1_SYS, FIG1_DET, 1, 0, 0, 0, rel_tol=1e-9)
        assert abs(w_strong - w_full) / w_full < 0.10

    def test_zero_frequency_rejected(self):
        v = np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex)
        sys = SystemSpec(levels=(1.0, 1.0), v=v)
        with pytest.raises(ZeroFrequency):
            jump_probability_strong(sys, FIG1_DET, 0, 0, 1, 0)

    def test_zero_strength_rejected_before_any_work(self):
        # W ~ 1/Lambda: lambda = 0 divided by zero
        with mock.patch.object(dynamics, "_v2_integral") as spy, pytest.raises(ZeroStrength):
            jump_probability_strong(FIG1_SYS, gaussian_detector(1.0, 0.0, 0.1), 1, 0, 0, 0)
        spy.assert_not_called()

    def test_full_probability_approaches_it_as_one_over_theta(self):
        # the (tau - t) window leaves W / W_strong - 1 = -sqrt(2/pi) / theta,
        # theta = lambda tau |w| / sigma: W falls as 1/Lambda and stays > 0
        tau, omega = 0.3, 2.0
        for lam in (2e3, 2e5, 2e7):
            det = gaussian_detector(sigma=1.0, lam=lam, tau=tau)
            w = jump_probability_general(FIG1_SYS, det, 1, 0, 0, 0, rel_tol=1e-10)
            w_strong = jump_probability_strong(FIG1_SYS, det, 1, 0, 0, 0)
            assert w > 0.0
            assert (w / w_strong - 1.0) * lam * tau * omega == pytest.approx(
                -math.sqrt(2.0 / math.pi), rel=1e-3)

    def test_time_dependent_v_integral_samples_each_time_once(self):
        # the Romberg levels from 65 points nest, so a ladder that stops at
        # 4097 points samples each of them once
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        times = []
        sys = SystemSpec(levels=(-1.0, 1.0),
                         v=lambda t: times.append(t) or math.cos(1000.0 * t) * 0.4 * sx)
        times.clear()  # the check of V(0) when the system was built
        jump_probability_strong(sys, gaussian_detector(1.0, 50.0, 0.3), 1, 0, 0, 0)
        assert len(times) == len(set(times)) == 4097

    @pytest.mark.parametrize("omega", [5.0, 50.0, 200.0, 1000.0])
    def test_time_dependent_v_integral_matches_closed_form(self, omega):
        # int_0^tau |0.4 cos(omega (t0 + t))|^2 dt; a fixed 513-point
        # trapezoid was 2.6e-5 off at omega = 1000
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        sys = SystemSpec(levels=(-1.0, 1.0), v=lambda t: math.cos(omega * t) * 0.4 * sx)
        det = gaussian_detector(sigma=1.0, lam=50.0, tau=0.3)
        t0 = 0.3
        exact = 0.16 * (det.tau / 2.0 + (math.sin(2.0 * omega * (t0 + det.tau))
                                         - math.sin(2.0 * omega * t0)) / (4.0 * omega))
        w = jump_probability_strong(sys, det, 1, 0, 0, 0, t0=t0)
        integral = 0.5 * w * strength(det).Lambda * 2.0  # W = 2 I / (Lambda |w_if|), |w_if| = 2
        assert abs(integral - exact) <= 1e-9 * exact


class TestJumpTable:
    def test_two_level_table(self):
        table = jump_table(FIG1_SYS, FIG1_DET)
        assert table.w.shape == (2, 2)
        assert table.w[0, 0] == 0.0
        assert 0.0 < table.w[1, 0] < 1.0
        # Hermitian V drives both directions with the same strength here
        assert table.w[0, 1] == pytest.approx(table.w[1, 0], rel=1e-6)

    def test_constant_v_table_is_symmetric_one_call_per_pair(self):
        rng = np.random.default_rng(31)
        sys = SystemSpec(levels=(0.0, 1.0, 2.5), alpha_energies=((0.0, 0.3), (0.1,), (0.0,)),
                         v=random_hermitian(rng, 4, 0.3))
        det = gaussian_detector(sigma=1.0, lam=15.0, tau=0.1)
        with mock.patch.object(dynamics, "jump_probability_general",
                               wraps=jump_probability_general) as calls:
            w = jump_table(sys, det).w
        np.testing.assert_array_equal(w, w.T)
        assert calls.call_count == 5  # the pairs of states on different levels

    def test_probability_bounds_perturbative_regime(self):
        rng = np.random.default_rng(31)
        sys = SystemSpec(levels=(0.0, 1.0, 2.5), v=random_hermitian(rng, 3, 0.3))
        det = gaussian_detector(sigma=1.0, lam=15.0, tau=0.1)
        table = jump_table(sys, det)
        assert np.all(table.w >= -1e-10)
        assert np.all(table.w <= 1.0 + 1e-10)
        assert np.all(table.w.sum(axis=1) <= 1.0 + 1e-8)


def _dense_jump_level(sys, det, ii, ff, t0, nt):
    """One trapezoid level of the jump integral as the double sum over the
    nt x nt grid, its kernel tabulated on the 2 nt - 1 lags t2 - t1 and
    summed in blocks of rows: the oracle of the time-dependent evaluation."""
    t = np.linspace(0.0, det.tau, nt)
    w = trapezoid_weights(t)
    vs = _v_samples(sys, t0, t)
    u = np.arange(1 - nt, nt) * (det.tau / (nt - 1))  # t2 - t1
    kern = (correlation(det, det.lam * sys.omega_level()[ii, ff] * u)
            * np.exp(1j * sys.omega_full()[ii, ff] * u))
    x, y = w * vs[:, ff, ii], w * vs[:, ii, ff]
    rows, total = max(1, (1 << 20) // nt), 0.0
    for lo in range(0, nt, rows):
        t1 = np.arange(lo, min(lo + rows, nt))
        total += x[t1] @ kern[np.arange(nt) - t1[:, None] + nt - 1] @ y
    return float(total.real / sys.hbar ** 2)


def _dense_jump(sys, det, ii, ff, t0, first):
    """Richardson limit of `_dense_jump_level` from `first` + 1 points, to 1e-12."""
    return dynamics._romberg(lambda nt: _dense_jump_level(sys, det, ii, ff, t0, nt),
                             [(first << k) + 1 for k in range(7)], 1e-12,
                             "dense double sum at {} grid points", dynamics._relative)[0]


def _faddeeva_jump(sys, det, ii, ff):
    """(2 pi tau / hbar^2) |V_fi|^2 P(w_E) for a constant V and a Gaussian
    detector, w_E = (E1_f - E1_i) / hbar and P in closed form."""
    w_e = (sys.e1[ff] - sys.e1[ii]) / sys.hbar
    p = line_shape_closed_form(w_e, sys.omega_level()[ii, ff], det)
    return 2.0 * math.pi * det.tau * abs(sys.v_at(0.0)[ff, ii]) ** 2 * p / sys.hbar ** 2


class TestJumpLagSum:
    def test_constant_v_with_auxiliary_energies(self):
        # E1 differences make the phase frequency differ from the F frequency;
        # the one-integral form against the Richardson limit of the dense double sums
        rng = np.random.default_rng(41)
        sys = SystemSpec(levels=(-1.0, 0.5, 2.0), alpha_energies=((0.0, 0.7), (0.2,), (0.4,)),
                         v=random_hermitian(rng, 4, 0.3))
        det = gaussian_detector(sigma=1.0, lam=12.0, tau=0.3)
        w = dynamics.jump_probability_general(sys, det, 2, 0, 0, 1, rel_tol=1e-10)
        ref = _dense_jump(sys, det, 3, 1, 0.0, 64)
        assert abs(w - ref) <= 1e-10 * abs(ref)

    def test_time_dependent_v(self):
        # a phase of V that turns with t tells the lag t2 - t1 from t1 - t2,
        # so the amplitudes' e^{i w t} from e^{-i w t}
        def v(t):
            v10 = np.cos(2.0 * t) * 0.4 * np.exp(3j * t)
            return np.array([[0.0, np.conj(v10)], [v10, 0.0]])
        sys = SystemSpec(levels=(-1.0, 1.0), v=v)
        det = gaussian_detector(sigma=1.0, lam=10.0, tau=0.2)
        w = dynamics.jump_probability_general(sys, det, 1, 0, 0, 0, t0=0.3, rel_tol=1e-10)
        ref = _dense_jump(sys, det, 1, 0, 0.3, 64)
        assert abs(w - ref) <= 1e-12 * ref

    def test_jump_table_six_uniform_levels(self):
        rng = np.random.default_rng(7)
        v = random_hermitian(rng, 6, 0.2)
        np.fill_diagonal(v, 0.0)
        sys = SystemSpec(levels=tuple(np.linspace(-2.5, 2.5, 6)), v=v)
        det = gaussian_detector(sigma=1.0, lam=20.0, tau=0.1)
        table = dynamics.jump_table(sys, det, rel_tol=1e-10)
        ref = np.array([[_faddeeva_jump(sys, det, j, k) if j != k else 0.0 for k in range(6)]
                        for j in range(6)])
        assert np.all(np.abs(table.w - ref) <= 1e-10 * np.abs(ref))


class TestJumpEveryStrength:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(lam=st.one_of(st.just(0.0), st.floats(0.0, math.log10(2e7)).map(lambda x: 10.0 ** x)),
           auxiliary=st.booleans())
    def test_matches_faddeeva_form(self, lam, auxiliary):
        # from the weak measurement to theta ~ 1e7, where the lag-sum ladder
        # over all of [0, tau] never converged
        rng = np.random.default_rng(5)
        dim = 4 if auxiliary else 3
        v = random_hermitian(rng, dim, 0.3)
        np.fill_diagonal(v, 0.0)
        sys = SystemSpec(levels=(-1.0, 0.5, 2.0), v=v,
                         alpha_energies=((0.0, 0.7), (0.2,), (0.4,)) if auxiliary else None)
        det = gaussian_detector(sigma=1.0, lam=lam, tau=0.3)
        table = jump_table(sys, det, rel_tol=1e-10)
        for j in range(dim):
            for k in range(dim):
                if sys.state_level[j] != sys.state_level[k]:
                    ref = _faddeeva_jump(sys, det, j, k)
                    assert abs(table.w[j, k] - ref) <= 1e-9 * ref


def _turning_system():
    """The auxiliary-energy system of TestJumpEveryStrength under
    V(t) = cos(3t) v + sin(5t) u: no V_fi(t) is real up to a constant factor,
    so W tells e^{i w t} from e^{-i w t} in its amplitudes."""
    rng = np.random.default_rng(5)
    v, u = random_hermitian(rng, 4, 0.3), random_hermitian(rng, 4, 0.3)
    np.fill_diagonal(v, 0.0)
    np.fill_diagonal(u, 0.0)
    return SystemSpec(levels=(-1.0, 0.5, 2.0), alpha_energies=((0.0, 0.7), (0.2,), (0.4,)),
                      v=lambda t: np.cos(3.0 * t) * v + np.sin(5.0 * t) * u)


_TURNING_STATES = [(0, 0), (0, 1), (1, 0), (2, 0)]  # (level, alpha) of each flattened state
_TURNING_JUMPS = [(j, k) for j in range(4) for k in range(4)
                  if _TURNING_STATES[j][0] != _TURNING_STATES[k][0]]


def _gap_to_strong(sys, det, w, j, k):
    """1 - W / W_strong of the jump j -> k in units of sqrt(2/pi) / theta,
    theta = lambda tau |w_jk| / sigma: 1 for a constant V, where the (tau - t)
    window leaves W / W_strong - 1 = -sqrt(2/pi) / theta (TestJumpStrong)."""
    w_strong = jump_probability_strong(sys, det, *_TURNING_STATES[j], *_TURNING_STATES[k])
    theta = det.lam * det.tau * abs(sys.omega_level()[j, k]) / det.sigma
    return (1.0 - w / w_strong) * theta / math.sqrt(2.0 / math.pi)


class TestJumpTimeDependentEveryStrength:
    """A time-dependent V from a weak measurement into the Zeno regime, where
    W falls as 1/Lambda."""

    @pytest.mark.parametrize("lam", [50.0, 200.0])
    def test_matches_dense_double_sum(self, lam):
        sys = _turning_system()
        det = gaussian_detector(sigma=1.0, lam=lam, tau=0.3)
        for j, k in [(3, 1), (2, 0)]:
            w = jump_probability_general(sys, det, *_TURNING_STATES[j], *_TURNING_STATES[k],
                                         rel_tol=1e-9)
            ref = _dense_jump(sys, det, j, k, 0.0, 256)
            assert abs(w - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("lam", [50.0, 200.0])
    def test_table_is_the_second_order_population_transfer(self, lam):
        # W of a jump j -> k is S[k, k, j, j] of the second-order channel, certified
        # on its Dyson time ladder (1024 time steps at lambda = 200); the largest
        # relative gaps were 1.5e-8 and 1.7e-7
        sys = _turning_system()
        det = gaussian_detector(sigma=1.0, lam=lam, tau=0.3)
        w = jump_table(sys, det).w
        s = build_second_order(sys, det).tensor
        for j, k in _TURNING_JUMPS:
            assert abs(w[j, k] - s[k, k, j, j]) <= 1e-6 * w[j, k]

    @pytest.mark.parametrize("lam", [50.0, 200.0])
    def test_every_node_level_is_its_whole_rule(self, lam):
        # one rule per jump, sized from the pair's phase scale; the rule of 2n - 1
        # nodes moves W by less than the time ladder's tolerance
        det = gaussian_detector(sigma=1.0, lam=lam, tau=0.3)
        for j, k in [(3, 1), (2, 0)]:
            states = (*_TURNING_STATES[j], *_TURNING_STATES[k])
            with spy_sized_rules(dynamics) as rules:
                w = jump_probability_general(_turning_system(), det, *states, rel_tol=1e-9)
            assert len(rules) == 1
            finer = superop.default_rule(det, 2 * len(rules[0]) - 1)
            with mock.patch.object(dynamics, "_sized_rule", return_value=(finer, 0.0)):
                w_finer = jump_probability_general(_turning_system(), det, *states, rel_tol=1e-9)
            assert abs(w - w_finer) <= 1e-9 * w

    def test_every_node_average_gets_normalised_weights(self):
        det = gaussian_detector(sigma=1.0, lam=200.0, tau=0.3)
        with spy_sized_rules(dynamics) as rules:
            jump_probability_general(_turning_system(), det, *_TURNING_STATES[3],
                                     *_TURNING_STATES[1])
        assert len(rules) == 1 and abs(rules[0].weights.sum() - 1.0) <= 1e-15

    def test_reversed_jumps_match_direct_calls(self):
        # the table evaluates each unordered pair once and mirrors it: the reversed
        # amplitude of a Hermitian V(t) is the complex conjugate
        sys = _turning_system()
        det = gaussian_detector(sigma=1.0, lam=200.0, tau=0.3)
        w = jump_table(sys, det).w
        for j, k in _TURNING_JUMPS:
            if j > k:
                direct = jump_probability_general(sys, det, *_TURNING_STATES[j],
                                                  *_TURNING_STATES[k])
                assert abs(w[j, k] - direct) <= 1e-6 * direct

    @pytest.mark.parametrize("lam", [500.0, 2000.0])
    def test_converges_in_the_zeno_regime(self, lam):
        # a time-dependent V moves the constant-V gap of 1 to 0.82 ... 1.05 here
        sys = _turning_system()
        det = gaussian_detector(sigma=1.0, lam=lam, tau=0.3)
        w = jump_table(sys, det).w
        for j, k in _TURNING_JUMPS:
            assert 0.5 <= _gap_to_strong(sys, det, w[j, k], j, k) <= 2.0

    def test_approaches_strong_formula_at_the_node_cap(self):
        # lambda = 2e4 puts the phase scale at 1.8e4, on 51593 nodes
        sys = _turning_system()
        det = gaussian_detector(sigma=1.0, lam=2e4, tau=0.3)
        w = jump_probability_general(sys, det, 2, 0, 0, 1)
        assert 0.5 <= _gap_to_strong(sys, det, w, 3, 1) <= 2.0

    def test_past_the_node_cap_raises_naming_the_phase_scale(self):
        # lambda = 6e4 puts it at 5.4e4, whose rule would pass JUMP_MAX_NODES
        det = gaussian_detector(sigma=1.0, lam=6e4, tau=0.3)
        with pytest.raises(QuadratureNotConverged, match="phase scale 5.4e[+]04 needs more than "
                           f"{dynamics.JUMP_MAX_NODES} trapezoid nodes") as info:
            jump_probability_general(_turning_system(), det, 2, 0, 0, 1)
        assert info.value.ladder == []

    def test_rule_is_sized_from_the_pair_phase_scale(self):
        # theta = lambda tau |w_fi| / sigma of the pair itself: 90 for the |w_fi| = 1.5
        # jump (285 nodes), 180 for the |w_fi| = 3 jump (543 nodes)
        det = gaussian_detector(sigma=1.0, lam=200.0, tau=0.3)
        for (j, k), nodes in [((2, 0), 285), ((3, 1), 543)]:
            with spy_sized_rules(dynamics) as rules:
                jump_probability_general(_turning_system(), det, *_TURNING_STATES[j],
                                         *_TURNING_STATES[k])
            assert [len(rule) for rule in rules] == [nodes]

    def test_rule_bound_above_rel_tol_raises(self):
        # the rule's bound b (int |V_fi| dt / hbar)^2 is checked against rel_tol W
        det = gaussian_detector(sigma=1.0, lam=50.0, tau=0.3)
        rule, _ = superop._sized_rule(det, 10.0, dynamics.JUMP_MAX_NODES)
        with mock.patch.object(dynamics, "_sized_rule", return_value=(rule, 1e-3)), \
                pytest.raises(QuadratureNotConverged,
                              match=f"on {len(rule)} trapezoid nodes exceeds rel_tol 1.0e-06") as info:
            jump_probability_general(_turning_system(), det, 2, 0, 0, 1)
        assert info.value.ladder == []

    def test_samples_each_time_once(self):
        # nested time levels reuse the samples they share
        sys = _turning_system()
        times = []
        spy = SystemSpec(levels=sys.levels, alpha_energies=sys.alpha_energies,
                         v=lambda t: times.append(t) or sys.v(t))
        times.clear()
        jump_probability_general(spy, gaussian_detector(1.0, 200.0, 0.3), 2, 0, 0, 1)
        assert len(times) > 17 and len(times) == len(set(times))


class TestInhibitionTime:
    def test_fig1_value(self):
        t_inh = inhibition_time(FIG1_SYS, FIG1_DET)
        assert t_inh == pytest.approx(39.894228040143275, rel=1e-10)
        assert t_inh == pytest.approx(two_level_inhibition_time(FIG1_PRESET, FIG1_DET))

    def test_scaling_in_lambda_and_v(self):
        det2 = gaussian_detector(sigma=1.0, lam=100.0, tau=0.1)
        assert inhibition_time(FIG1_SYS, det2) == pytest.approx(
            2.0 * inhibition_time(FIG1_SYS, FIG1_DET))
        sys2 = TwoLevelPreset(omega=2.0, v=2.0).to_system()
        assert inhibition_time(sys2, FIG1_DET) == pytest.approx(
            inhibition_time(FIG1_SYS, FIG1_DET) / 4.0)

    def test_uncoupled_pairs_excluded(self):
        # levels 0 and 1 are close but uncoupled; only the 0 <-> 2 pair counts
        v = np.zeros((3, 3), dtype=complex)
        v[0, 2] = v[2, 0] = 0.5
        sys = SystemSpec(levels=(0.0, 0.3, 3.0), v=v)
        t_inh = inhibition_time(sys, FIG1_DET)
        lam_big = strength(FIG1_DET).Lambda
        assert t_inh == pytest.approx(lam_big * 3.0 / (2.0 * 0.25), rel=1e-12)

    def test_no_transitions(self):
        sys = TwoLevelPreset(omega=2.0, v=0.0).to_system()
        with pytest.raises(NoTransitions):
            inhibition_time(sys, FIG1_DET)


class TestRateMatrix:
    def test_two_level_structure(self):
        rm = rate_matrix(FIG1_SYS, FIG1_DET)
        coeff = 2.0 * FIG1_DET.tau * 1.0 / 2.0  # 2 tau v^2 / (hbar^2 omega)
        np.testing.assert_allclose(rm.a, coeff * np.array([[-1.0, 1.0], [1.0, -1.0]]),
                                   rtol=1e-12)

    def test_rate_equation_reproduces_exponential(self):
        rm = rate_matrix(FIG1_SYS, FIG1_DET)
        times = np.linspace(0.0, 30.0, 7)
        pops = rm.evolve(np.array([0.0, 1.0]), times)
        approx = measured_exponential(FIG1_PRESET, FIG1_DET, times)[0]
        np.testing.assert_allclose(pops[:, 1], approx, atol=1e-12)

    def test_zero_v(self):
        sys = TwoLevelPreset(omega=2.0, v=0.0).to_system()
        rm = rate_matrix(sys, FIG1_DET)
        assert np.all(rm.a == 0.0)

    def test_column_sums_vanish_random_four_level(self):
        rng = np.random.default_rng(23)
        levels = (0.0, 1.0, 2.5, 4.0)
        v = random_hermitian(rng, 4, 0.4)
        sys = SystemSpec(levels=levels, v=v)
        rm = rate_matrix(sys, FIG1_DET)
        np.testing.assert_allclose(rm.a.sum(axis=0), np.zeros(4), atol=1e-10)
        off = rm.a - np.diag(np.diag(rm.a))
        assert np.all(off >= 0.0)

    def test_matches_elementwise_loops(self):
        rng = np.random.default_rng(29)
        v = random_hermitian(rng, 5, 0.4)
        v[1, 2] = v[2, 1] = 0.0  # an uncoupled pair
        v[3, 4] = v[4, 3] = 0.0  # auxiliary states of one level
        sys = SystemSpec(levels=(0.0, 1.0, 2.5, 4.0), v=v, hbar=0.8,
                         alpha_energies=((0.0,), (0.0,), (0.0,), (0.0, 0.3)))
        iv = FIG1_DET.tau * np.abs(v) ** 2
        w = sys.omega_level()
        ref = np.zeros((5, 5))
        for j in range(5):
            for k in range(5):
                if j != k and iv[j, k] > 0.0:
                    ref[j, k] = 2.0 * iv[j, k] / (sys.hbar ** 2 * abs(w[j, k]))
        for j in range(5):
            loss = 0.0
            for s in range(5):
                loss += ref[s, j]
            ref[j, j] = -loss
        np.testing.assert_array_equal(rate_matrix(sys, FIG1_DET).a, ref)

    def test_degenerate_coupled_pair_rejected(self):
        v = np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex)
        sys = SystemSpec(levels=(1.0, 1.0), v=v)
        with pytest.raises(ZeroFrequency):
            rate_matrix(sys, FIG1_DET)

    def test_zero_strength_rejected_before_any_work(self):
        # the generator is A / (Lambda tau): lambda = 0 evolved to NaN
        with mock.patch.object(dynamics, "_v2_integral") as spy, pytest.raises(ZeroStrength):
            rate_matrix(FIG1_SYS, gaussian_detector(1.0, 0.0, 0.1))
        spy.assert_not_called()

    def test_gains_match_strong_jump_probabilities_time_dependent_v(self):
        rng = np.random.default_rng(5)
        h1, h2 = random_hermitian(rng, 3, 0.3), random_hermitian(rng, 3, 0.3)
        np.fill_diagonal(h1, 0.0)
        np.fill_diagonal(h2, 0.0)
        sys = SystemSpec(levels=(0.0, 1.1, 2.7),
                         v=lambda t: h1 * np.cos(3.0 * t) + h2 * np.sin(1.7 * t))
        det = gaussian_detector(sigma=0.7, lam=300.0, tau=0.9)
        rm = rate_matrix(sys, det, t0=0.37)
        lam_big = strength(det).Lambda
        for i in range(3):
            for f in range(3):
                if i != f:
                    w = jump_probability_strong(sys, det, i, 0, f, 0, t0=0.37)
                    assert w * lam_big == pytest.approx(rm.a[f, i], rel=1e-13)
        np.testing.assert_allclose(rm.a.sum(axis=0), np.zeros(3), atol=1e-14)


class TestTwoLevelReferences:
    def test_rabi_initial_condition(self):
        r11, r00 = rabi_unmeasured(FIG1_PRESET, 0.0)
        assert r11 == 1.0 and r00 == 0.0

    def test_rabi_half_period(self):
        big = FIG1_PRESET.rabi_frequency
        assert big == pytest.approx(2.8284271247461903, rel=1e-14)
        r11, _ = rabi_unmeasured(FIG1_PRESET, math.pi / big)
        assert r11 == pytest.approx(0.5, abs=1e-12)

    def test_rabi_no_coupling(self):
        preset = TwoLevelPreset(omega=2.0, v=0.0)
        r11, r00 = rabi_unmeasured(preset, np.linspace(0, 10, 11))
        np.testing.assert_allclose(r11, 1.0)
        np.testing.assert_allclose(r00, 0.0)

    def test_rabi_populations_sum_to_one(self):
        t = np.linspace(0, 20, 201)
        r11, r00 = rabi_unmeasured(FIG1_PRESET, t)
        np.testing.assert_allclose(r11 + r00, 1.0, atol=1e-12)

    def test_measured_exponential_endpoints(self):
        r11, r00 = measured_exponential(FIG1_PRESET, FIG1_DET, 0.0)
        assert r11 == 1.0 and r00 == 0.0
        r11_inf, _ = measured_exponential(FIG1_PRESET, FIG1_DET, 1e9)
        assert r11_inf == pytest.approx(0.5, abs=1e-12)

    def test_measured_exponential_half_inhibition_time(self):
        t_inh = two_level_inhibition_time(FIG1_PRESET, FIG1_DET)
        r11, _ = measured_exponential(FIG1_PRESET, FIG1_DET, t_inh / 2.0)
        assert r11 == pytest.approx((1.0 + math.exp(-1.0)) / 2.0, rel=1e-12)
        assert r11 == pytest.approx(0.6839397205857212, rel=1e-12)

    def test_zero_splitting_rejected(self):
        # a coupled pair at omega = 0 has no inhibition time, as in inhibition_time
        preset = TwoLevelPreset(omega=0.0, v=1.0)
        with pytest.raises(ZeroFrequency):
            two_level_inhibition_time(preset, FIG1_DET)
        with pytest.raises(ZeroFrequency):
            measured_exponential(preset, FIG1_DET, 1.0)


class TestRegimeInvariants:
    def test_lambda_scaling_of_jump_probability(self):
        # W * Lambda constant within 10% once Lambda tau |w| >= 20
        omega, tau = 2.0, 0.7
        sys = TwoLevelPreset(omega=omega, v=1.0).to_system()
        products = []
        for lam in (20.0, 40.0, 80.0):
            det = gaussian_detector(sigma=1.0, lam=lam, tau=tau)
            lam_big = strength(det).Lambda
            assert lam_big * tau * omega >= 20.0
            w = jump_probability_general(sys, det, 1, 0, 0, 0, rel_tol=1e-9)
            products.append(w * lam_big)
        assert max(products) / min(products) < 1.10

    def test_monotone_zeno_ordering(self):
        # stronger measurement keeps the initial level occupied longer
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        det_strong = gaussian_detector(sigma=1.0, lam=50.0, tau=0.1)
        det_weak = gaussian_detector(sigma=1.0, lam=5.0, tau=0.2)
        ch_strong = build_exact(FIG1_SYS, det_strong)
        ch_weak = build_exact(FIG1_SYS, det_weak)
        n_common = 100  # compare at t = 0.2 k
        strong = repeat(lambda t0: ch_strong, rho0, 2 * n_common)[1::2, 1, 1].real
        weak = repeat(lambda t0: ch_weak, rho0, n_common)[:, 1, 1].real
        assert np.all(strong >= weak - 0.02)

    def test_off_diagonal_lambda_suppression(self):
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        maxima = []
        for lam, tau in ((50.0, 0.1), (500.0, 0.01)):
            det = gaussian_detector(sigma=1.0, lam=lam, tau=tau)
            ch = build_exact(FIG1_SYS, det)
            traj = repeat(lambda t0: ch, rho0, int(round(60.0 / tau)))
            maxima.append(np.abs(traj[:, 1, 0]).max())
        ratio = maxima[0] / maxima[1]
        assert 5.0 < ratio < 20.0

    def test_star_coupling_linear_growth(self):
        totals = {}
        for k in (2, 4):
            levels = (0.0,) + (2.0,) * k
            v = np.zeros((k + 1, k + 1), dtype=complex)
            v[0, 1:] = v[1:, 0] = 0.3
            sys = SystemSpec(levels=levels, v=v)
            det = gaussian_detector(sigma=1.0, lam=30.0, tau=0.1)
            ch = build_exact(sys, det)
            rho = np.zeros((k + 1, k + 1), dtype=complex)
            rho[0, 0] = 1.0
            totals[k] = 1.0 - ch.apply(rho)[0, 0].real
        assert totals[4] / totals[2] == pytest.approx(2.0, rel=0.05)
