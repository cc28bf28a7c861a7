"""Line shapes, decay rates, and the reservoir-traced effective channel."""

import dataclasses
import math
import sys
import tracemalloc
import warnings
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, trapezoid
from scipy.optimize import brentq

from zenosim import decay, dynamics, superop
from zenosim.errors import (
    GridTooNarrow,
    NotInZenoRegime,
    QuadratureNotConverged,
    ZeroFrequency,
)
from zenosim.model import SystemSpec, correlation, gaussian_detector
from zenosim.decay import (
    ReservoirSpectrum,
    _filon_transform,
    _line_kernel,
    _line_scales,
    _line_time_grid,
    _phase_sums,
    _reservoir_envelope,
    _si,
    _smooth_length,
    decay_rate,
    emitted_spectrum,
    fwhm,
    golden_rule,
    line_mass,
    line_shape,
    measured_decay_channel,
    population_decay_rate,
    zeno_limit_rate,
)

from oracles import (atom_plus_modes, decay_integral, filon_coeffs, filon_segments,
                     line_mass_by_sampling, line_shape_closed_form)

HBAR = 1.0
SQRT_PI_OVER_2 = 1.2533141373155003


def fft_spy():
    """Spy on numpy's FFT, which only the chirp-z path of `_phase_sums` calls."""
    return mock.patch.object(np.fft, "fft", wraps=np.fft.fft)


def det_for(lam_big, tau, sigma=1.0):
    return gaussian_detector(sigma=sigma, lam=lam_big * sigma * SQRT_PI_OVER_2, tau=tau)


def _line_shape_stepwise(omega, omega_if, det):
    """P(omega) by a plain trapezoid whose step resolves both the decay scale
    of F and the oscillation scale 1/|omega - omega_if|: an oracle for the
    Filon path whose cost grows with detuning, so keep |omega - omega_if|
    moderate."""
    delta, tau = float(omega) - omega_if, det.tau
    _, t_f = _line_scales(omega_if, det)
    step_scales = [tau / 64.0]
    if math.isfinite(t_f):
        step_scales.append(t_f)
    if delta != 0.0:
        step_scales.append(1.0 / abs(delta))
    dt = min(step_scales) / 10.0
    n = int(math.ceil(tau / dt))
    t = np.linspace(0.0, tau, n + 1)
    integrand = _line_kernel(omega_if, det, t) * np.exp(1j * delta * t)
    return float(trapezoid(integrand, t).real) / math.pi


def _overlap_grid(res, omega_if, det, scale):
    """Union grid of the line core, the reservoir core and geometric ladders
    out through both 1/delta^2 tails; scale refines every part."""
    tau = det.tau
    t_cut, t_f = _line_scales(omega_if, det)
    s_g = 0.0 if math.isinf(t_f) else 1.0 / t_f
    x_line = max(10.0 * s_g, 60.0 / tau)
    # window-truncation ripples (period 2 pi / tau) only exist while F has
    # not decayed by the end of the measurement
    ripple = abs(correlation(det, det.lam * abs(omega_if) * tau))
    spacings = []
    if s_g > 0:
        spacings.append(s_g / 12.0)
    if ripple > 1e-5 or s_g == 0.0:
        spacings.append(2.0 * math.pi / (12.0 * tau))
    d_line = min(spacings) / scale
    parts = [omega_if + d_line * np.arange(-math.ceil(x_line / d_line),
                                           math.ceil(x_line / d_line) + 1)]
    w, c = res.width, res.omega_r
    d_res = w / (24.0 * scale)
    parts.append(c + d_res * np.arange(-math.ceil(12.0 * w / d_res),
                                       math.ceil(12.0 * w / d_res) + 1))
    if res.kind == "lorentzian":
        far = 2.0e5 * w
    elif res.kind == "gaussian_peak":
        far = 20.0 * w
    else:
        far = float(res.tab_omega[-1] - res.tab_omega[0])
    far = max(far, 3.0 * abs(c - omega_if) + x_line, 2.0 * x_line)
    ratio = 1.06 ** (1.0 / min(scale, 4))
    for center, start in ((c, 12.0 * w), (omega_if, x_line)):
        n_geo = int(math.ceil(math.log(max(far / start, 2.0)) / math.log(ratio)))
        ladder = start * ratio ** np.arange(n_geo + 1)
        parts += [center - ladder, center + ladder]
    return np.unique(np.concatenate(parts))


def _decay_rate_overlap(res, omega_if, det, rel_tol=1e-4):
    """(2 pi / hbar^2) int G(w) P(w) dw by the trapezoid rule on the union
    grid, doubled until stable: the frequency-domain oracle of decay_rate."""
    prev = None
    for scale in (1, 2, 4, 8, 16):
        grid = _overlap_grid(res, omega_if, det, scale)
        p = line_shape(grid, omega_if, det)
        cur = 2.0 * math.pi * float(np.trapezoid(res.g(grid) * p, grid)) / res.hbar ** 2
        if prev is not None and abs(cur - prev) <= rel_tol * abs(cur):
            return cur
        prev = cur
    raise QuadratureNotConverged("overlap integral not stable under grid refinement")


class TestLineShape:
    def test_real_and_finite(self):
        det = gaussian_detector(1.0, 50.0, 0.1)
        p = line_shape(np.linspace(-50, 50, 101), 2.0, det)
        assert p.dtype.kind == "f"
        assert np.all(np.isfinite(p))

    @pytest.mark.parametrize("shape", [(), (0,), (7,), (3, 4)],
                             ids=["scalar", "empty", "1-d", "2-d"])
    def test_result_has_the_shape_of_omega(self, shape):
        # an empty omega hit the ladder's scale on a zero-size maximum, and a
        # 2-d one failed to broadcast
        det = gaussian_detector(1.0, 50.0, 0.1)
        omega = np.linspace(-30.0, 30.0, math.prod(shape)).reshape(shape)
        p = line_shape(omega, 2.0, det)
        flat = line_shape(omega.ravel(), 2.0, det)
        assert np.shape(p) == shape and flat.shape == (omega.size,)
        assert isinstance(p, float) if shape == () else p.dtype == float
        assert np.array_equal(np.ravel(p), flat)

    def test_fejer_limit_analytic(self):
        # lambda -> 0 turns P into the triangular-window kernel
        det = gaussian_detector(1.0, 0.0, 0.2)
        tau = 0.2
        delta = np.linspace(-80.0, 80.0, 641)
        p = line_shape(3.0 + delta, 3.0, det)
        with np.errstate(invalid="ignore", divide="ignore"):
            expected = (1.0 - np.cos(delta * tau)) / (math.pi * tau * delta ** 2)
        expected[delta == 0.0] = tau / (2.0 * math.pi)
        np.testing.assert_allclose(p, expected, atol=1e-10)

    def test_strong_regime_peak_value(self):
        # P(w_if) = 1 / (pi Lambda w_if) for Lambda tau w_if >> 1
        det = det_for(40.0, 2.5)
        peak = line_shape(2.0, 2.0, det)
        assert peak == pytest.approx(1.0 / (math.pi * det.Lambda * 2.0), rel=0.02)

    def test_closed_form_cross_validation(self):
        near = np.linspace(-200.0, 200.0, 801)
        for lam, tau, w_if, grid in [
                (50.0, 0.1, 2.0, 2.0 + near), (6.0, 0.25, 1.0, 1.0 + near),
                (25.0, 0.5, 4.0, 4.0 + near), (0.0, 0.2, 2.0, 2.0 + near),
                # the grid of configs/spectrum_strong.json
                (50.0, 1.0, 2.0, np.linspace(-1400.0, 1404.0, 30001))]:
            det = gaussian_detector(1.0, lam, tau)
            p_filon = line_shape(grid, w_if, det)
            p_closed = line_shape_closed_form(grid, w_if, det)
            # the quadrature path certifies 1e-6 relative to the peak
            assert np.abs(p_filon - p_closed).max() < 1e-6 * p_closed.max()

    def test_stepwise_reference_cross_validation(self):
        det = gaussian_detector(1.0, 20.0, 0.3)
        for omega in (2.0, 3.5, 0.0, -6.0, 11.0):
            ref = _line_shape_stepwise(omega, 2.0, det)
            val = line_shape(omega, 2.0, det)
            assert val == pytest.approx(ref, abs=2e-6)

    def test_normalization_single_case(self):
        det = det_for(20.0, 0.25)
        assert abs(line_mass_by_sampling(2.0, det, 1e-4) - 1.0) < 1e-4

    def test_mass_matches_pointwise_integral(self):
        # window mass from the time-domain exchange vs trapezoid of P
        det = det_for(10.0, 0.3)
        lo, hi = -40.0, 70.0
        grid = 2.0 + np.linspace(lo, hi, 20001)
        p = line_shape(grid, 2.0, det)
        direct = np.trapezoid(p, grid)
        exchanged = line_mass(lo, hi, 2.0, det)
        assert exchanged == pytest.approx(direct, abs=2e-5)

    def test_width_scale_is_lambda_hbar_omega(self):
        # spectral width tracks Lambda hbar w_if: the ratio is constant in
        # Lambda (the proportionality constant is ~3 for the Gaussian F)
        ratios = []
        for lam_big in (30.0, 60.0, 120.0):
            det = det_for(lam_big, 2.0)
            s = lam_big * 2.0  # Lambda hbar w_if with hbar = 1
            grid = 2.0 + np.linspace(-6.0 * s, 6.0 * s, 4001)
            p = line_shape(grid, 2.0, det)
            ratios.append(fwhm(grid, p) / s)
        assert max(ratios) / min(ratios) < 1.25


def test_filon_coeffs_match_segment_integrals():
    # a 2-d theta mixing the series branch (|theta| < 0.5) and the closed form
    theta = np.array([[0.0, 3e-5, -9e-5, 0.02], [0.3, -2.0, 40.0, -300.0]])
    a, b = filon_coeffs(theta)
    u = np.linspace(0.0, 1.0, 400001)
    phase = np.exp(1j * theta[..., None] * u)
    np.testing.assert_allclose(a, np.trapezoid((1.0 - u) * phase, u), rtol=0, atol=1e-9)
    np.testing.assert_allclose(b, np.trapezoid(u * phase, u), rtol=0, atol=1e-9)


def test_filon_coeffs_exact_to_rounding_across_the_branch_switch():
    # A = sum (i th)^k / (k! (k+1) (k+2)) and B = sum (i th)^k / (k! (k+2)), 60 terms
    theta = np.concatenate((np.logspace(-8.0, 0.0, 401), -np.logspace(-8.0, 0.0, 401)))
    a, b = filon_coeffs(theta)
    z = 1j * theta
    a_ref, b_ref = np.zeros_like(z), np.zeros_like(z)
    for k in range(60):
        term = z ** k / math.factorial(k)
        a_ref += term / ((k + 1) * (k + 2))
        b_ref += term / (k + 2)
    assert np.abs(a - a_ref).max() <= 1e-15
    assert np.abs(b - b_ref).max() <= 1e-15


@pytest.mark.parametrize("seed", range(6))
def test_filon_weight_matches_references_over_the_float_range(seed):
    # zeros, |theta| from 1e-300 to 1e6 with a band around the series switch
    # at 0.5, 1e300 and 1.7e308, of both signs: A and B = conj A e^{i theta}
    # within 1e-15 of a 60-term series (|theta| < 1) or long-double closed
    # forms, without a RuntimeWarning (a weight that formed theta^2 overflowed)
    rng = np.random.default_rng(seed)
    mag = 10.0 ** rng.uniform(-300.0, 6.0, size=(40, 50))
    pick = rng.uniform(size=mag.shape)
    mag[pick < 0.3] = 10.0 ** rng.uniform(-2.0, 1.0, size=mag.shape)[pick < 0.3]
    mag[(0.3 <= pick) & (pick < 0.35)] = 0.0
    mag[(0.35 <= pick) & (pick < 0.4)] = 1e300
    mag[(0.4 <= pick) & (pick < 0.45)] = 1.7e308
    theta = mag * rng.choice([-1.0, 1.0], size=mag.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = filon_coeffs(theta)
    a_ref, b_ref = np.empty_like(a), np.empty_like(b)
    series = np.abs(theta) < 1.0
    z = 1j * theta[series]
    a_ref[series], b_ref[series] = 0.0, 0.0
    for k in range(60):
        term = z ** k / math.factorial(k)
        a_ref[series] += term / ((k + 1) * (k + 2))
        b_ref[series] += term / (k + 2)
    th = theta[~series].astype(np.longdouble)
    cos, sin, th2 = np.cos(th), np.sin(th), th * th
    a_ref[~series] = ((1.0 - cos) + 1j * (th - sin)) / th2
    b_ref[~series] = ((cos + th * sin - 1.0) + 1j * (sin - th * cos)) / th2
    assert np.abs(a - a_ref).max() <= 1e-15
    assert np.abs(b - b_ref).max() <= 1e-15


def test_smooth_length_is_the_least_5_smooth_length():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    lengths = [k for k in range(1, 20481) if smooth(k)]
    for n in range(1, 20001):
        assert _smooth_length(n) == lengths[np.searchsorted(lengths, n)], n


class TestFilonChirp:
    """Uniform delta grids of at least 64 points take the chirp-z path of
    `_phase_sums` for the Filon phase sums of the line kernel; every other
    delta set takes the dense phase matrix."""

    @staticmethod
    def _both_paths(lam, tau, refine, deltas):
        """The Filon transform of the line kernel on the uniform grid deltas
        by the chirp path (at least 64 deltas) and by the dense path, and its
        value at delta = 0."""
        det = gaussian_detector(1.0, lam, tau)
        t = _line_time_grid(2.0, det, refine)
        g = _line_kernel(2.0, det, t)
        with fft_spy() as fft:
            fast = _filon_transform(g, t, deltas)
            chirp_calls = fft.call_count
            # one point off the progression sends the same deltas down the dense path
            off = deltas[0] + 0.5 * (deltas[1] - deltas[0])
            dense = _filon_transform(g, t, np.append(deltas, off))[:-1]
        chirp = deltas.size >= 64 and t[-1] * np.abs(deltas).max() <= decay.CHIRP_MAX_PHASE
        assert (chirp_calls > 0) == chirp and fft.call_count == chirp_calls
        return fast, dense, abs(_filon_transform(g, t, np.zeros(1))[0])

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(lam=st.sampled_from([0.0, 5.0, 50.0]),
           tau=st.sampled_from([0.1, 1.0, 3.0]), refine=st.sampled_from([1, 2, 4]),
           m=st.sampled_from([3, 7, 64, 100, 2000, 8000]), d0=st.floats(-1500.0, 1500.0),
           step=st.floats(1e-3, 5.0), descending=st.booleans())
    def test_chirp_matches_dense(self, lam, tau, refine, m, d0, step, descending):
        step = -step if descending else step
        deltas = np.linspace(d0, d0 + (m - 1) * step, m)
        fast, dense, _ = self._both_paths(lam, tau, refine, deltas)
        assert np.abs(fast - dense).max() <= 1e-10 * np.abs(dense).max()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(lam=st.sampled_from([0.0, 0.5, 5.0]),
           tau=st.sampled_from([0.1, 1.0, 10.0]), refine=st.sampled_from([1, 8]),
           m=st.sampled_from([3, 8, 50, 64, 100, 150]), step=st.floats(1e4, 1e6),
           centre=st.floats(-0.5, 0.5))
    def test_chirp_matches_dense_on_sparse_wide_grids(self, lam, tau, refine, m, step,
                                                      centre):
        # deltas 1e4 to 1e6 apart: fewer than 64 take the dense path, whose
        # phase errs by eps |delta t|, and so do 64-150 of them, whose phases
        # reach beyond CHIRP_MAX_PHASE.  There the chirp phases, products of
        # the spans, erred by up to 5e-10 of the value at delta = 0 (phases up
        # to 6e7 rad), where the dense path is exact.
        d0 = (centre - 0.5) * (m - 1) * step
        deltas = np.linspace(d0, d0 + (m - 1) * step, m)
        fast, dense, peak = self._both_paths(lam, tau, refine, deltas)
        assert np.abs(fast - dense).max() <= 1e-10 * peak

    def test_only_uniform_grids_take_the_chirp_path(self):
        det = gaussian_detector(1.0, 20.0, 0.3)
        t = _line_time_grid(2.0, det)
        g = _line_kernel(2.0, det, t)
        uniform = np.linspace(-50.0, 50.0, 101)
        nudged = uniform.copy()
        nudged[40] += 1e-6
        union = np.unique(np.concatenate([uniform, np.geomspace(1.0, 500.0, 40)]))
        for deltas, chirp in ((uniform, True), (uniform[::-1], True), (uniform[:64], True),
                              (uniform[:63], False), (uniform[:3], False), (nudged, False),
                              (union, False)):
            with fft_spy() as fft:
                _filon_transform(g, t, deltas)
            assert fft.called == chirp, deltas.size


class TestPhaseSums:
    """`_phase_sums`, the one evaluator of sum_j c_j e^{i x_j y_k}, against
    the dense phase matrix."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n=st.sampled_from([1, 2, 5, 63, 64, 65, 300, 2000, 8000]),
           m=st.sampled_from([1, 3, 63, 64, 65, 129, 1000, 8000]),
           x_uniform=st.booleans(), y_uniform=st.booleans(),
           x0=st.floats(-10.0, 10.0), x_span=st.floats(1e-2, 10.0),
           y0=st.floats(-2000.0, 2000.0), y_span=st.floats(1.0, 2000.0),
           descending=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_matches_dense_oracle(self, n, m, x_uniform, y_uniform, x0, x_span,
                                  y0, y_span, descending, seed):
        # |x| <= 20 and |y| <= 4000 keep the phases below 1e5 rad, whose rounding
        # stays far below the bound; only those up to CHIRP_MAX_PHASE take the
        # chirp path.  64 y over a span of 2000 are a sparse wide grid, 32 rad
        # apart per unit of x
        rng = np.random.default_rng(seed)

        def nodes(start, span, size, uniform):
            if uniform:
                return np.linspace(start, start + span, size)
            return start + span * np.sort(rng.uniform(size=size))

        x = nodes(x0, x_span, n, x_uniform)
        y = nodes(y0, y_span, m, y_uniform)
        if descending:
            y = y[::-1]
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        with fft_spy() as fft:
            got = _phase_sums(c, x, y)
        small = np.abs(x).max() * np.abs(y).max() <= decay.CHIRP_MAX_PHASE
        assert fft.called == (min(n, m) >= 64 and x_uniform and y_uniform and small)
        rows = np.arange(0, m, max(1, m // 64))
        want = np.exp(1j * np.outer(y[rows].astype(np.longdouble),
                                    x.astype(np.longdouble))) @ c.astype(np.clongdouble)
        assert got.shape == (m,)
        assert np.abs(got[rows] - want).max() <= 1e-10 * np.abs(c).sum()

    def test_spectrum_strong_matches_long_double(self):
        # the line kernel and the 30001 deltas of configs/spectrum_strong.json:
        # an unblocked chirp over all deltas was 6e-14 of |sum g| off here
        det = gaussian_detector(1.0, 50.0, 1.0)
        t = _line_time_grid(2.0, det)
        g = _line_kernel(2.0, det, t)
        deltas = np.linspace(-1400.0, 1404.0, 30001) - 2.0
        got = _phase_sums(g, t, deltas)[::97]
        want = np.exp(1j * np.outer(deltas[::97].astype(np.longdouble),
                                    t.astype(np.longdouble))) @ g.astype(np.clongdouble)
        assert np.abs(got - want).max() <= 5e-15 * abs(g.sum())

    @pytest.mark.parametrize("refine, length", [(1, 2250), (2, 4500), (4, 9000)])
    def test_spectrum_strong_levels_within_the_chirp_bound(self, refine, length):
        # each time grid of the Romberg ladder of configs/spectrum_strong.json
        # with its 30001 deltas: convolutions of the least 5-smooth length
        # >= 2b - 1 (b time nodes), within eps max|t| max|delta| sum|g| of a
        # long-double dense sum
        det = gaussian_detector(1.0, 50.0, 1.0)
        t = _line_time_grid(2.0, det, refine)
        g = _line_kernel(2.0, det, t)
        deltas = np.linspace(-1400.0, 1404.0, 30001) - 2.0
        with fft_spy() as fft:
            got = _phase_sums(g, t, deltas)[::97]
        assert {call.args[1] for call in fft.call_args_list if len(call.args) > 1} == {length}
        want = np.exp(1j * np.outer(deltas[::97].astype(np.longdouble),
                                    t.astype(np.longdouble))) @ g.astype(np.clongdouble)
        bound = np.finfo(float).eps * t[-1] * np.abs(deltas).max() * np.abs(g).sum()
        assert np.abs(got - want).max() <= bound


class TestFilonTransform:
    """`_filon_transform` on any increasing nodes: one phase sum when the
    steps are equal, the segment weights otherwise."""

    @pytest.mark.parametrize("uniform", [True, False])
    def test_linear_g_on_nodes_not_starting_at_zero(self, uniform):
        # g = 2 + 3x is linear, so the Filon rule is exact: against
        # int_{x0}^{x1} (2 + 3x) e^{i d x} dx in closed form
        u = np.linspace(0.0, 1.0, 801)
        x = 1.3 + 2.8 * (u if uniform else u + 0.05 * np.sin(2.0 * math.pi * u))
        g = 2.0 + 3.0 * x
        deltas = np.linspace(-300.0, 40.0, 69)
        with fft_spy() as fft:
            got = _filon_transform(g, x, deltas)
        assert fft.called == uniform

        def antiderivative(d, v):
            if d == 0.0:
                return 2.0 * v + 1.5 * v * v
            return np.exp(1j * d * v) * ((2.0 + 3.0 * v) / (1j * d) + 3.0 / d ** 2)

        want = np.array([antiderivative(d, x[-1]) - antiderivative(d, x[0]) for d in deltas])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(got - filon_segments(g, x, deltas)).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("uniform", [True, False])
    def test_reservoir_envelope_of_a_table_matches_segment_sums(self, uniform):
        u = np.linspace(0.0, 1.0, 801)
        w_grid = -2.0 + 8.0 * (u if uniform else u + 0.05 * np.sin(6.0 * math.pi * u))
        peak = ReservoirSpectrum.gaussian_peak(b=1e-3, omega_r=2.0, w=0.5)
        tab = ReservoirSpectrum.tabulated(w_grid, peak.g(w_grid) + 1e-4)
        det = det_for(40.0, 1.0)
        t = _line_time_grid(2.0, det, 2, np.abs(tab.tab_omega - tab.omega_r).max())
        with fft_spy() as fft:
            got = _reservoir_envelope(tab, t)
        # a uniform table takes the FFT path of `_phase_sums`
        assert fft.called == uniform
        want = filon_segments(tab.tab_g, tab.tab_omega - tab.omega_r, t)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestSineIntegral:
    """`_si` replaces scipy.special.sici in line_mass."""

    X = np.concatenate([np.logspace(-10, 9, 2000), [2.0 - 1e-7, 2.0, 2.0 + 1e-7]])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_scipy_sici(self, sign):
        from scipy.special import sici
        x = sign * self.X
        got = np.array([_si(v) for v in x])
        np.testing.assert_allclose(got, sici(x)[0], rtol=3e-15, atol=0.0)
        # the unmeasured line (F = 1) has the window mass
        # (1/pi) int_0^tau (1 - t/tau) sin(delta t)/t dt = (Si(x) - (1 - cos x)/x) / pi
        # at x = delta tau, which line_mass reaches to rounding on every refinement
        det, tau = gaussian_detector(sigma=1.0, lam=0.0, tau=0.3), 0.3

        def mass_to(delta):
            x = delta * tau
            return (sici(x)[0] - (1.0 - math.cos(x)) / x) / math.pi

        for lo, hi in [(0.5, 40.0), (-3.0, 200.0), (-1e4, 1e4), (2.0, 1e6)]:
            lo, hi = sorted((sign * lo, sign * hi))
            assert line_mass(lo, hi, 2.0, det) == pytest.approx(
                mass_to(hi) - mass_to(lo), abs=1e-15)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_mpmath(self, sign):
        mpmath = pytest.importorskip("mpmath")
        x = sign * self.X[::10]
        with mpmath.workdps(30):
            want = np.array([float(mpmath.si(v)) for v in x])
        got = np.array([_si(v) for v in x])
        np.testing.assert_allclose(got, want, rtol=3e-15, atol=0.0)

    def test_limits(self):
        from scipy.special import sici
        assert _si(math.inf) == sici(math.inf)[0] == math.pi / 2.0
        assert _si(-math.inf) == sici(-math.inf)[0] == -math.pi / 2.0
        assert _si(0.0) == 0.0
        assert math.copysign(1.0, _si(-0.0)) == -1.0
        assert math.isnan(_si(math.nan))


class TestReservoirSpectrum:
    def test_lorentzian_integral(self):
        res = ReservoirSpectrum.lorentzian(b=0.5, omega_r=3.0, gamma=0.4)
        w = np.linspace(3.0 - 4000 * 0.4, 3.0 + 4000 * 0.4, 400001)
        assert np.trapezoid(res.g(w), w) == pytest.approx(HBAR * 0.5, rel=1e-3)
        assert res.b_total() == 0.5

    def test_gaussian_peak_integral(self):
        res = ReservoirSpectrum.gaussian_peak(b=0.2, omega_r=1.0, w=0.3)
        w = np.linspace(-3.0, 5.0, 40001)
        assert np.trapezoid(res.g(w), w) == pytest.approx(HBAR * 0.2, rel=1e-10)

    def test_flat(self):
        res = ReservoirSpectrum.flat(0.01)
        assert res.g(123.4) == 0.01
        assert math.isinf(res.b_total())

    def test_tabulated(self):
        w = np.linspace(0.0, 10.0, 101)
        g = np.exp(-((w - 5.0) ** 2))
        res = ReservoirSpectrum.tabulated(w, g)
        assert res.omega_r == pytest.approx(5.0)
        assert res.g(20.0) == 0.0
        assert res.b_total() == pytest.approx(math.sqrt(math.pi), rel=1e-3)

    @pytest.mark.parametrize("res", [
        ReservoirSpectrum.lorentzian(1e-4, 1e300, 10.0),
        ReservoirSpectrum.gaussian_peak(1e-4, 1e300, 1.0),
        ReservoirSpectrum.gaussian_peak(1e-4, 1e200, 1e-120)],
        ids=["lorentzian", "gaussian_peak", "narrow_gaussian_peak"])
    def test_far_detuned_g_is_zero(self, res):
        # (omega - omega_R)^2 overflows to inf, and G to 0; under the suite's
        # error::RuntimeWarning filter the overflow used to raise
        assert res.g(0.0) == 0.0
        assert np.array_equal(res.g(np.array([0.0, -1e300])), [0.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ReservoirSpectrum.flat(-1.0)
        with pytest.raises(ValueError):
            ReservoirSpectrum.tabulated([0.0, 1.0, 2.0], [0.1, -0.2, 0.1])


    @pytest.mark.parametrize("make, match", [
        (lambda: ReservoirSpectrum("foo"), "unknown reservoir kind"),
        (lambda: ReservoirSpectrum("flat", g0=-1.0), "non-negative"),
        (lambda: ReservoirSpectrum("lorentzian", b=-1e-3, width=0.4), "non-negative"),
        (lambda: ReservoirSpectrum.lorentzian(0.05, 2.5, 0.4, hbar=0.0), "hbar > 0"),
        (lambda: ReservoirSpectrum.flat(0.01, hbar=-1.0), "hbar > 0"),
        (lambda: ReservoirSpectrum("lorentzian", b=0.5, width=0.0), "width > 0"),
        (lambda: ReservoirSpectrum("lorentzian", b=0.5, width=-1.0), "width > 0"),
        (lambda: ReservoirSpectrum("gaussian_peak", b=0.5, width=0.0), "width > 0"),
        (lambda: ReservoirSpectrum.lorentzian(b=0.5, omega_r=1.0, gamma=0.0), "width > 0"),
        # g squares the width: 1e300 raised OverflowError, 1e-300 divided by 0
        (lambda: ReservoirSpectrum.lorentzian(1e-4, 51.0, 1e300), "finite, non-zero square"),
        (lambda: ReservoirSpectrum.lorentzian(1e-4, 51.0, 1e-300), "finite, non-zero square"),
        (lambda: ReservoirSpectrum.gaussian_peak(1e-4, 51.0, 10 ** 200), "finite, non-zero square"),
        (lambda: ReservoirSpectrum("tabulated", b=1.0, width=1.0), "given and finite"),
        (lambda: ReservoirSpectrum("tabulated", b=1.0, width=1.0, tab_omega=np.arange(3.0),
                                   tab_g=np.array([0.1, -0.1, 0.1])), "non-negative"),
        (lambda: ReservoirSpectrum("tabulated", b=1.0, width=1.0, tab_omega=np.array([0.0, 2.0, 1.0]),
                                   tab_g=np.ones(3)), "increasing"),
        (lambda: ReservoirSpectrum("tabulated", b=1.0, width=1.0, tab_omega=np.arange(3.0),
                                   tab_g=np.ones(4)), "matching 1-d arrays"),
    ], ids=["kind", "g0", "b", "hbar_0", "hbar_neg", "width_0", "width_neg", "gaussian_width", "gamma",
            "gamma_square_inf", "gamma_square_0", "w_square_inf", "no_table", "table_negative", "table_order", "table_shape"])
    def test_constructor_checks_each_kind_domain(self, make, match):
        # the dataclass itself used to take a negative g0 (a decay rate of
        # -6.28), hbar <= 0 or a zero or negative width (rates of 0 or of the
        # wrong sign returned silently) and an unknown kind (a TypeError deep
        # inside the rate)
        with pytest.raises(ValueError, match=match):
            make()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, pytest.param(10 ** 400, id="huge_int")])
    def test_rejects_non_finite(self, bad):
        for make in (lambda: ReservoirSpectrum.flat(bad),
                     lambda: ReservoirSpectrum.flat(0.01, hbar=bad),
                     lambda: ReservoirSpectrum.lorentzian(b=bad, omega_r=1.0, gamma=0.4),
                     lambda: ReservoirSpectrum.lorentzian(b=0.5, omega_r=bad, gamma=0.4),
                     lambda: ReservoirSpectrum.gaussian_peak(b=0.5, omega_r=1.0, w=bad),
                     lambda: ReservoirSpectrum.tabulated([0.0, 1.0, 2.0], [0.1, bad, 0.1]),
                     lambda: ReservoirSpectrum(kind="flat", g0=bad)):
            with pytest.raises(ValueError):
                make()


class TestGoldenRule:
    def test_zero_coupling(self):
        assert golden_rule(0.0, 1.0, 2.0, HBAR) == 0.0

    def test_reference_value(self):
        assert golden_rule(0.01, 1.0, 2.0, HBAR) == pytest.approx(
            0.06283185307179587, rel=1e-12)

    def test_linear_in_density_of_states(self):
        assert golden_rule(0.01, 2.0, 2.0, HBAR) == pytest.approx(
            2.0 * golden_rule(0.01, 1.0, 2.0, HBAR))

    def test_callable_density(self):
        rho = lambda e: 0.5 if e > 0 else 0.0
        assert golden_rule(0.01, rho, 2.0, HBAR) == pytest.approx(
            golden_rule(0.01, 0.5, 2.0, HBAR))

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 1.0, 2.0, HBAR), "v2"), ((-1.0, 1.0, 2.0, HBAR), "v2"),
        ((math.inf, 1.0, 2.0, HBAR), "v2"), ((0.01, -3.0, 2.0, HBAR), "rho"),
        ((0.01, math.nan, 2.0, HBAR), "rho"), ((0.01, lambda e: -1.0, 2.0, HBAR), "rho"),
        ((0.01, lambda e: math.inf, 2.0, HBAR), "rho"), ((0.01, 1.0, 2.0, 0.0), "hbar"),
        ((0.01, 1.0, 2.0, -1.0), "hbar"), ((0.01, 1.0, 2.0, math.inf), "hbar"),
        ((0.01, 1.0, math.nan, HBAR), "frequencies"), ((0.01, 1.0, math.inf, HBAR), "frequencies")],
        ids=["v2-nan", "v2-neg", "v2-inf", "rho-neg", "rho-nan", "rho-callable-neg",
             "rho-callable-inf", "hbar-0", "hbar-neg", "hbar-inf", "omega-nan", "omega-inf"])
    def test_bad_input_rejected(self, args, name):
        # v2 = nan returned nan, v2 = -1 and rho = -3 negative rates, hbar = 0
        # ZeroDivisionError
        with pytest.raises(ValueError, match=f"^{name} "):
            golden_rule(*args)


class TestDecayRate:
    def test_flat_equals_golden_rule(self):
        res = ReservoirSpectrum.flat(0.003)
        det = det_for(15.0, 0.4)
        r = decay_rate(res, 2.0, det)
        rg = golden_rule(0.003 / HBAR, 1.0, 2.0, HBAR)
        assert abs(r - rg) / rg < 1e-6

    def test_zeno_regime_agreement(self):
        res = ReservoirSpectrum.gaussian_peak(b=1e-3, omega_r=2.0, w=0.5)
        det = det_for(80.0, 1.0)
        r = decay_rate(res, 2.0, det)
        rz = zeno_limit_rate(res, 2.0, det)
        assert abs(r - rz) / rz < 0.05

    def test_lorentzian_zeno_regime(self):
        res = ReservoirSpectrum.lorentzian(b=1e-3, omega_r=2.0, gamma=0.3)
        det = det_for(100.0, 1.0)
        r = decay_rate(res, 2.0, det)
        rz = zeno_limit_rate(res, 2.0, det)
        assert abs(r - rz) / rz < 0.05

    def test_detuned_reservoir_anti_zeno_rise(self):
        res = ReservoirSpectrum.lorentzian(b=1e-4, omega_r=51.0, gamma=10.0)
        rg = 2.0 * math.pi * res.g(1.0) / HBAR ** 2
        r_mid = decay_rate(res, 1.0, det_for(36.0, 2.0))
        assert r_mid > 1.5 * rg

    def test_zeno_limit_at_hbar_half(self):
        # the rate and its Zeno limit both read hbar from the reservoir
        res = ReservoirSpectrum.lorentzian(b=1e-4, omega_r=1.0, gamma=0.5, hbar=0.5)
        det = det_for(4000.0, 2.0)
        assert decay_rate(res, 1.0, det) == pytest.approx(zeno_limit_rate(res, 1.0, det),
                                                          rel=1e-3)

    def test_tabulated_reservoir_matches_analytic_kind(self):
        analytic = ReservoirSpectrum.gaussian_peak(b=1e-3, omega_r=2.0, w=0.5)
        w_grid = np.linspace(2.0 - 8.0, 2.0 + 8.0, 2001)
        tab = ReservoirSpectrum.tabulated(w_grid, analytic.g(w_grid))
        det = det_for(40.0, 1.0)
        r_tab = decay_rate(tab, 2.0, det)
        r_ana = decay_rate(analytic, 2.0, det)
        assert r_tab == pytest.approx(r_ana, rel=1e-3)

    def test_lorentzian_matches_time_domain_quad(self):
        # R = (2B/hbar) Re int_0^tau F(lambda w_if t)(1 - t/tau) e^{-gamma t}
        # e^{i(w_R - w_if)t} dt by adaptive quadrature, on the anti-Zeno sweep
        res = ReservoirSpectrum.lorentzian(b=1e-4, omega_r=51.0, gamma=10.0)
        for lam_big in np.geomspace(1.5, 400.0, 13):
            det = det_for(lam_big, 2.0)
            a = (det.lam / det.sigma) ** 2 / 2.0
            ref, _ = quad(lambda t: math.exp(-a * t * t - 10.0 * t) * (1.0 - t / 2.0),
                          0.0, 2.0, weight="cos", wvar=50.0, epsabs=0.0, epsrel=1e-11,
                          limit=500)
            r = decay_rate(res, 1.0, det)
            assert r == pytest.approx(2e-4 * ref, rel=2e-5)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["lorentzian", "gaussian_peak", "tabulated"]),
           lam_big=st.floats(1.5, 300.0), tau=st.sampled_from([0.5, 1.0, 2.0]),
           omega_if=st.sampled_from([1.0, 2.0]), width=st.sampled_from([0.3, 2.0, 10.0]),
           offset=st.floats(-6.0, 6.0))
    def test_matches_frequency_domain_overlap(self, kind, lam_big, tau, omega_if,
                                              width, offset):
        # reservoir maximum detuned by offset widths from the transition
        omega_r = omega_if + offset * width
        if kind == "lorentzian":
            res = ReservoirSpectrum.lorentzian(b=1e-4, omega_r=omega_r, gamma=width)
        else:
            res = ReservoirSpectrum.gaussian_peak(b=1e-4, omega_r=omega_r, w=width)
        if kind == "tabulated":
            w_grid = np.linspace(omega_r - 8.0 * width, omega_r + 8.0 * width, 801)
            g = res.g(w_grid)
            g[0] = g[-1] = 0.0
            res = ReservoirSpectrum.tabulated(w_grid, g)
        det = det_for(lam_big, tau)
        r = decay_rate(res, omega_if, det)
        ref = _decay_rate_overlap(res, omega_if, det)
        assert r == pytest.approx(ref, rel=2e-4)

    def test_tabulated_reservoir_with_nonzero_edges(self):
        # G jumps to 0 at both ends of a non-uniform table; the exchanged
        # integral takes the jumps exactly, where a frequency grid without
        # nodes at the jumps never settled
        u = np.linspace(0.0, 1.0, 303)
        w_grid = 0.5 + 3.0 * (u + 0.05 * np.sin(6.0 * math.pi * u))
        peak = ReservoirSpectrum.gaussian_peak(b=1e-3, omega_r=2.0, w=0.5)
        tab = ReservoirSpectrum.tabulated(w_grid, peak.g(w_grid) + 1e-4)
        det = det_for(40.0, 1.0)
        r = decay_rate(tab, 2.0, det)
        # brute force: the overlap on a fine grid holding every table node; the
        # uniform part takes line_shape's chirp-z path
        uniform = np.linspace(0.5, 3.5, 300001 - 301)
        grid = np.concatenate([uniform, w_grid[1:-1]])
        p = np.concatenate([line_shape(uniform, 2.0, det),
                            line_shape(w_grid[1:-1], 2.0, det)])
        order = np.argsort(grid)
        grid, p = grid[order], p[order]
        assert grid.size == 300001 and np.all(np.diff(grid) > 0)
        brute = 2.0 * math.pi * np.trapezoid(tab.g(grid) * p, grid) / HBAR ** 2
        assert r == pytest.approx(brute, rel=1e-6)

    def test_reports_reached_error(self):
        res = ReservoirSpectrum.lorentzian(b=1e-4, omega_r=51.0, gamma=10.0)
        det = det_for(36.0, 2.0)
        rate, ladder = decay._rate_and_ladder(res, 1.0, det, rel_tol=1e-4)
        assert rate == decay_rate(res, 1.0, det)
        assert [refine for refine, _ in ladder] == [2] and 0.0 < ladder[-1][1] <= 1e-4
        assert decay._rate_and_ladder(ReservoirSpectrum.flat(1e-3), 1.0, det)[1] == []
        # the Richardson-extrapolated ladder meets even 1e-15 (6e-16 at refine 8)
        rate, ladder = decay._rate_and_ladder(res, 1.0, det, rel_tol=1e-15)
        assert ladder[-1][1] <= 1e-15 and rate == pytest.approx(decay_rate(res, 1.0, det), rel=1e-4)
        with pytest.raises(QuadratureNotConverged) as info:
            decay_rate(res, 1.0, det, rel_tol=1e-300)
        ladder = info.value.ladder
        assert [refine for refine, _ in ladder] == [2, 4, 8]
        assert f"refine 8 still moving by {ladder[-1][1]:.2e}" in str(info.value)

    @pytest.mark.parametrize("what", ["line shape", "line mass", "decay rate", "jump probability"])
    def test_unsettled_refinement_carries_ladder(self, what):
        # every transform returns a larger value than the one before, so no two
        # refinements agree
        calls = iter(range(1, 100))

        def moving(g, x, deltas):
            return next(calls) * (1.0 + 1.0j) * np.arange(1.0, np.size(deltas) + 1.0)

        det = det_for(10.0, 0.3)
        res = ReservoirSpectrum.lorentzian(b=1e-4, omega_r=2.5, gamma=1.0)
        call = {"line shape": lambda: line_shape(2.0, 2.0, det),
                "line mass": lambda: line_mass(-5.0, 5.0, 2.0, det),
                "decay rate": lambda: decay_rate(res, 2.0, det),
                "jump probability": lambda: dynamics.jump_probability_general(
                    SystemSpec(levels=(-1.0, 1.0), v=np.array([[0.0, 0.4], [0.4, 0.0]])),
                    det, 1, 0, 0, 0)}[what]
        with mock.patch.object(decay, "_filon_transform", moving), \
                pytest.raises(QuadratureNotConverged) as info:
            call()
        ladder = info.value.ladder
        assert [refine for refine, _ in ladder] == [2, 4, 8]
        assert all(change > 0.0 for _, change in ladder)
        assert str(info.value).startswith(
            f"{what} at time-grid refine 8 still moving by {ladder[-1][1]:.2e}")


class TestZenoLimit:
    def test_scaling(self):
        res = ReservoirSpectrum.gaussian_peak(b=1e-3, omega_r=2.0, w=0.2)
        r1 = zeno_limit_rate(res, 2.0, det_for(100.0, 1.0))
        r2 = zeno_limit_rate(res, 2.0, det_for(200.0, 1.0))
        assert r1 / r2 == pytest.approx(2.0, rel=1e-12)

    def test_zero_weight(self):
        res = ReservoirSpectrum.gaussian_peak(b=0.0, omega_r=2.0, w=0.2)
        assert zeno_limit_rate(res, 2.0, det_for(100.0, 1.0)) == 0.0

    def test_warns_outside_regime(self):
        res = ReservoirSpectrum.gaussian_peak(b=1e-3, omega_r=2.0, w=5.0)
        with pytest.warns(NotInZenoRegime):
            zeno_limit_rate(res, 2.0, det_for(3.0, 1.0))

    def test_flat_warns(self):
        res = ReservoirSpectrum.flat(0.01)
        with pytest.warns(NotInZenoRegime):
            assert math.isinf(zeno_limit_rate(res, 2.0, det_for(100.0, 1.0)))

    def test_zero_frequency_rejected(self):
        # raised a bare ZeroDivisionError
        res = ReservoirSpectrum.gaussian_peak(b=1e-3, omega_r=2.0, w=0.2)
        with pytest.raises(ZeroFrequency):
            zeno_limit_rate(res, 0.0, det_for(100.0, 1.0))

    @pytest.mark.parametrize("omega_if", [math.nan, math.inf])
    def test_non_finite_frequency_rejected(self, omega_if):
        # a NaN returned nan
        res = ReservoirSpectrum.gaussian_peak(b=1e-3, omega_r=2.0, w=0.2)
        with pytest.raises(ValueError, match="must be finite"):
            zeno_limit_rate(res, omega_if, det_for(100.0, 1.0))


class TestEmittedSpectrum:
    def test_weak_measurement_fourier_width(self):
        # F = 1: the line is the triangular-window kernel; its FWHM solves
        # sinc^2(u) = 1/2 at u = Delta tau / 2
        tau = 0.25
        det = gaussian_detector(1.0, 0.0, tau)
        e_grid = np.linspace(2.0 - 300.0, 2.0 + 300.0, 30001)
        w = emitted_spectrum(2.0, det, v2=1.0, e_grid=e_grid, hbar=HBAR)
        u_half = brentq(lambda u: (math.sin(u) / u) ** 2 - 0.5, 1.0, 2.0)
        expected = 4.0 * u_half / tau
        assert fwhm(e_grid, w) == pytest.approx(expected, rel=0.02)

    @pytest.mark.parametrize("peak", [0.0, -1.0, float("nan")])
    def test_fwhm_needs_a_positive_maximum(self, peak):
        x = np.linspace(-1.0, 1.0, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any 0 / 0
            with pytest.raises(ValueError, match="not > 0"):
                fwhm(x, np.full(5, peak))

    @pytest.mark.parametrize("x, y", [
        (np.linspace(-1.0, 1.0, 5), np.array([0.0, 0.5, 1.0, 0.5, 0.0, 0.0])),
        (np.linspace(-1.0, 1.0, 6), np.array([0.0, 0.5, 1.0, 0.5, 0.0])),
        (np.zeros((5, 2)), np.zeros((5, 2)))], ids=["5x6", "6x5", "2-d"])
    def test_fwhm_needs_matching_1d_arrays(self, x, y):
        # a 5-point x and a 6-point y gave 2.0
        with pytest.raises(ValueError, match="matching 1-d arrays"):
            fwhm(x, y)

    @pytest.mark.parametrize("x", [np.linspace(1.0, -1.0, 5), np.array([-1.0, 0.0, 0.0, 0.5, 1.0]),
                                   np.array([-1.0, -0.5, math.nan, 0.5, 1.0])],
                             ids=["decreasing", "repeated", "nan"])
    def test_fwhm_needs_an_increasing_grid(self, x):
        # a decreasing x gave a width of -2.0
        with pytest.raises(ValueError, match="x must be finite, 1-d and strictly increasing"):
            fwhm(x, np.array([0.0, 0.5, 1.0, 0.5, 0.0]))

    @pytest.mark.parametrize("e_grid", [np.linspace(44.0, -40.0, 64), np.zeros((8, 8)),
                                        np.concatenate([np.linspace(-40.0, 2.0, 32),
                                                        np.linspace(2.0, 44.0, 32)]),
                                        np.array([]), np.array([2.0])],
                             ids=["decreasing", "2-d", "repeated", "empty", "one-point"])
    def test_emitted_spectrum_needs_an_increasing_grid(self, e_grid):
        # a decreasing grid raised GridTooNarrow, "covers only -0.9997 of the line mass",
        # and an empty one IndexError
        with mock.patch.object(decay, "_romberg") as ladder, \
                pytest.raises(ValueError, match="e_grid must be finite, 1-d and strictly increasing"):
            emitted_spectrum(2.0, det_for(40.0, 0.5), 1.0, e_grid)
        ladder.assert_not_called()

    @pytest.mark.parametrize("sample", [math.inf, -math.inf])
    def test_fwhm_rejects_an_infinite_sample(self, sample):
        # +inf gave a RuntimeWarning and nan, -inf a silent width of 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="infinite sample"):
                fwhm(np.linspace(-1.0, 1.0, 5), np.array([0.0, 0.5, sample, 0.5, 0.0]))

    @pytest.mark.parametrize("hbar", [-1.0, 0.0, math.nan, math.inf])
    def test_emitted_spectrum_needs_a_positive_hbar(self, hbar):
        # hbar = -1 and inf raised GridTooNarrow, hbar = 0 a divide-by-zero RuntimeWarning
        with warnings.catch_warnings(), mock.patch.object(decay, "_romberg") as ladder:
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="hbar must be finite and > 0"):
                emitted_spectrum(2.0, det_for(40.0, 0.5), 1.0, np.linspace(-900.0, 900.0, 64),
                                 hbar=hbar)
        ladder.assert_not_called()

    @pytest.mark.parametrize("points", [0, 1])
    def test_fwhm_needs_two_points(self, points):
        # an empty x raised numpy's "attempt to get argmax of an empty sequence"
        with pytest.raises(ValueError, match="x must be .* length >= 2"):
            fwhm(np.linspace(-1.0, 1.0, points), np.ones(points))

    def test_strong_measurement_width_tracks_lambda(self):
        ratios = []
        for lam_big in (40.0, 80.0):
            det = det_for(lam_big, 1.0)
            span = 8.0 * lam_big * 2.0
            e_grid = np.linspace(2.0 - span, 2.0 + span, 20001)
            w = emitted_spectrum(2.0, det, v2=1.0, e_grid=e_grid, hbar=HBAR)
            ratios.append(fwhm(e_grid, w) / (lam_big * HBAR * 2.0))
        assert max(ratios) / min(ratios) < 1.25

    def test_integral_matches_decay_probability(self):
        res = ReservoirSpectrum.flat(0.005)
        det = det_for(12.0, 0.5)
        v2 = 1.0
        # tail mass beyond the grid is 2/(pi tau X) ~ 5e-4, half the budget
        span = 2600.0
        e_grid = np.linspace(2.0 - span, 2.0 + span, 16001)
        w = emitted_spectrum(2.0, det, v2=v2, e_grid=e_grid, hbar=HBAR)
        rho_e = res.g(e_grid / HBAR) / (HBAR * v2)
        total = np.trapezoid(rho_e * w, e_grid)
        expected = 0.5 * decay_rate(res, 2.0, det)
        assert total == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("v2", [-1.0, math.nan, math.inf,
                                    pytest.param(10 ** 400, id="huge_int")])
    def test_bad_coupling_rejected(self, v2):
        # v2 = -1 used to return negative occupations
        det = det_for(12.0, 0.5)
        e_grid = np.linspace(2.0 - 2600.0, 2.0 + 2600.0, 16001)
        with mock.patch.object(decay, "line_mass") as spy, \
                pytest.raises(ValueError, match="v2 must be finite and >= 0"):
            emitted_spectrum(2.0, det, v2=v2, e_grid=e_grid, hbar=HBAR)
        spy.assert_not_called()

    def test_grid_too_narrow(self):
        det = det_for(40.0, 1.0)
        e_grid = np.linspace(1.9, 2.1, 64)
        with pytest.raises(GridTooNarrow):
            emitted_spectrum(2.0, det, v2=1.0, e_grid=e_grid, hbar=HBAR)


_DET = det_for(40.0, 0.5)
_RES = ReservoirSpectrum.lorentzian(b=0.05, omega_r=2.5, gamma=0.4)
_E_GRID = np.linspace(-40.0, 44.0, 64)
# each line function, called with one frequency or window edge f
_LINE_CALLS = {
    "line_shape omega": lambda f: line_shape(f, 2.0, _DET),
    "line_shape array": lambda f: line_shape(np.array([1.0, f]), 2.0, _DET),
    "line_shape omega_if": lambda f: line_shape(2.0, f, _DET),
    "line_mass low edge": lambda f: line_mass(-f, 1.0, 2.0, _DET),
    "line_mass high edge": lambda f: line_mass(-1.0, f, 2.0, _DET),
    "line_mass omega_if": lambda f: line_mass(-1.0, 1.0, f, _DET),
    "decay_rate": lambda f: decay_rate(_RES, f, _DET),
    "emitted_spectrum omega_if": lambda f: emitted_spectrum(f, _DET, 1.0, _E_GRID),
    "emitted_spectrum grid edge": lambda f: emitted_spectrum(
        2.0, _DET, 1.0, np.append(_E_GRID, f)),
}


class TestLineBoundary:
    """Non-finite frequencies and window edges are rejected before any
    ladder runs; tau comes from the detector, which checks it when built."""

    @pytest.mark.parametrize("freq", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", list(_LINE_CALLS))
    def test_non_finite_frequency_rejected(self, call, freq):
        with mock.patch.object(decay, "_romberg") as ladder, \
                pytest.raises(ValueError, match="must be finite"):
            _LINE_CALLS[call](freq)
        ladder.assert_not_called()

    @pytest.mark.parametrize("call", [c for c in _LINE_CALLS if c.endswith(("omega_if", "rate"))])
    def test_overflowing_line_width_rejected(self, call):
        # lambda |w_if| = inf cut the kernel at t_cut = 0, and its time grid
        # divided by zero
        with pytest.raises(ValueError, match=r"lambda\*\|omega_if\| = inf is not finite"):
            _LINE_CALLS[call](sys.float_info.max)


def _identity_channel():
    """The unperturbed two-level channel at lambda = 0, which keeps populations."""
    return superop.build_unperturbed(SystemSpec(levels=(-1.0, 1.0)), det_for(0.0, 0.5))


def _mode_comb(res, omega_if, n_modes):
    """n_modes field modes of res on a uniform grid 8 widths beyond the
    transition and the peak, and their couplings <0, beta| V |1, vac>, whose
    squares G(w_beta) dw turn the mode sums into Riemann sums of the continuum."""
    lo = min(omega_if, res.omega_r) - 8.0 * res.width
    hi = max(omega_if, res.omega_r) + 8.0 * res.width
    modes = np.linspace(lo, hi, n_modes)
    couplings = np.zeros((2, n_modes, 2), dtype=complex)
    couplings[0, :, 1] = np.sqrt(res.g(modes) * (modes[1] - modes[0]))
    return modes, couplings


def _check_against_quad(res, det, e_excited, e_ground):
    """The channel's second-order entries against J(0) and J(tau) of the quad
    oracle, its population transfer against tau * decay_rate and its trace."""
    ch = measured_decay_channel(e_excited, e_ground, res, det)
    omega_if, hbar2, tau = (e_excited - e_ground) / res.hbar, res.hbar ** 2, det.tau
    atom = SystemSpec(levels=(e_ground, e_excited), hbar=res.hbar)
    got = ch.tensor - superop.build_unperturbed(atom, det).tensor
    j0, j_tau = (decay_integral(res, det, omega_if, s0) for s0 in (0.0, tau))
    want = np.zeros((2,) * 4, dtype=complex)
    want[0, 0, 1, 1] = 2.0 * j0.real / hbar2
    want[1, 1, 1, 1] = -want[0, 0, 1, 1]
    want[1, 0, 1, 0] = -np.exp(-1j * omega_if * tau) * np.conj(j_tau) / hbar2
    want[0, 1, 0, 1] = np.conj(want[1, 0, 1, 0])
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
    # S[1,1,1,1] is stored as 1 - tau R, which rounds by up to eps / 2
    transfer = tau * decay_rate(res, omega_if, det)
    assert ch.tensor[0, 0, 1, 1] == transfer
    assert abs(1.0 - ch.tensor[1, 1, 1, 1] - transfer) <= 1e-12 * transfer + 2.0 ** -53
    assert ch.certified_trace_err <= 1e-15


def _detuned_table():
    """A table of G 70 to 230 above a transition at w_if = 1."""
    peak = ReservoirSpectrum.lorentzian(b=1e-4, omega_r=150.0, gamma=10.0)
    w_grid = np.linspace(70.0, 230.0, 1601)
    return ReservoirSpectrum.tabulated(w_grid, peak.g(w_grid))


@st.composite
def _decay_cases(draw):
    """(res, det, e_excited, e_ground) over Lorentzian, Gaussian and uniform
    table reservoirs, the table sampling a Lorentzian between its ends."""
    hbar = draw(st.floats(0.5, 2.0))
    omega_if = draw(st.floats(0.2, 5.0))
    omega_r = draw(st.floats(-5.0, 60.0))
    width = draw(st.floats(0.2, 10.0))
    kind = draw(st.sampled_from(["lorentzian", "gaussian_peak", "tabulated"]))
    if kind == "tabulated":
        w_grid = np.linspace(omega_r - 4.0 * width, omega_r + 4.0 * width, draw(st.integers(3, 40)))
        peak = ReservoirSpectrum.lorentzian(1e-3, omega_r, width, hbar=hbar)
        res = ReservoirSpectrum.tabulated(w_grid, peak.g(w_grid), hbar=hbar)
    else:
        res = getattr(ReservoirSpectrum, kind)(1e-3, omega_r, width, hbar=hbar)
    det = gaussian_detector(sigma=draw(st.floats(0.5, 2.0)), lam=draw(st.floats(0.0, 100.0)),
                            tau=draw(st.floats(0.2, 3.0)))
    e_ground = draw(st.floats(-2.0, 2.0))
    return res, det, e_ground + hbar * omega_if, e_ground


class TestEffectiveChannel:
    """`measured_decay_channel`: the atom's channel with the continuum traced out."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(case=_decay_cases())
    # the case whose 400-mode channel sat 3.8 % below decay_rate, the decay
    # channel of the `channels` benchmark job, a flat G against its closed form
    @example(case=(ReservoirSpectrum.lorentzian(1e-4, 51.0, 1.0), gaussian_detector(1.0, 5.0, 2.0),
                   0.5, -0.5))
    @example(case=(ReservoirSpectrum.lorentzian(1e-4, 51.0, 10.0),
                   gaussian_detector(1.0, 50.0, 2.0), 0.5, -0.5))
    @example(case=(ReservoirSpectrum.flat(1e-3), gaussian_detector(1.0, 2.0, 1.0), 1.0, -1.0))
    @example(case=(ReservoirSpectrum.lorentzian(1e-4, 51.0, 10.0, hbar=0.5),
                   gaussian_detector(1.0, 50.0, 2.0), 0.25, -0.25))
    @example(case=(_detuned_table(), gaussian_detector(1.0, 0.5, 2.0), 0.5, -0.5))
    def test_entries_match_quad(self, case):
        _check_against_quad(*case)

    def test_zero_coupling_keeps_populations(self):
        res = ReservoirSpectrum.flat(0.0)
        det = det_for(30.0, 0.5)
        ch = measured_decay_channel(1.0, -1.0, res, det)
        pops = np.einsum("ppnn->pn", ch.tensor).real
        np.testing.assert_allclose(pops, np.eye(2), atol=1e-12)

    def test_weak_flat_matches_golden_rule(self):
        res = ReservoirSpectrum.flat(0.001)
        det = gaussian_detector(sigma=1.0, lam=2.0, tau=1.0)
        ch = measured_decay_channel(1.0, -1.0, res, det)
        rate = population_decay_rate(ch, excited=1)
        rg = 2.0 * math.pi * res.g0 / HBAR ** 2
        # -log(1 - tau R) / tau = R (1 + tau R / 2 + ...)
        assert rate == pytest.approx(rg, rel=0.6 * det.tau * rg)

    def test_strong_narrow_matches_zeno_limit(self):
        res = ReservoirSpectrum.gaussian_peak(b=1e-3, omega_r=2.0, w=0.2)
        det = gaussian_detector(sigma=1.0, lam=50.0, tau=0.5)
        ch = measured_decay_channel(1.0, -1.0, res, det)
        rate = population_decay_rate(ch, excited=1)
        rz = zeno_limit_rate(res, 2.0, det)
        rr = decay_rate(res, 2.0, det)
        assert abs(rate - rz) / rz < 0.05
        assert abs(rate - rr) / rr < 1e-5

    def test_trace_nearly_preserved(self):
        res = ReservoirSpectrum.gaussian_peak(b=1e-3, omega_r=2.0, w=0.2)
        det = gaussian_detector(sigma=1.0, lam=50.0, tau=0.5)
        ch = measured_decay_channel(1.0, -1.0, res, det)
        assert ch.certified_trace_err <= 1e-15

    def test_n_modes_is_ignored_with_a_deprecation_warning(self):
        res = ReservoirSpectrum.gaussian_peak(b=1e-3, omega_r=2.0, w=0.3)
        det = gaussian_detector(sigma=1.0, lam=30.0, tau=0.5)
        with pytest.warns(DeprecationWarning, match="n_modes is ignored"):
            ch = measured_decay_channel(1.0, -1.0, res, det, n_modes=250)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain = measured_decay_channel(1.0, -1.0, res, det)
        np.testing.assert_array_equal(ch.tensor, plain.tensor)

    def test_hbar_half_matches_decay_rate(self):
        # omega_if = (0.25 + 0.25) / hbar = 1; the channel and the rate take hbar
        # from the reservoir
        res = ReservoirSpectrum.lorentzian(b=1e-4, omega_r=51.0, gamma=10.0, hbar=0.5)
        det = gaussian_detector(sigma=1.0, lam=50.0, tau=2.0)
        ch = measured_decay_channel(0.25, -0.25, res, det)
        assert ch.tensor[0, 0, 1, 1] == det.tau * decay_rate(res, 1.0, det)

    def test_default_window_reaches_a_detuned_table(self):
        # the mode window of the line mass alone, [-64, 66], held no mode that
        # this G couples and gave a rate of -0.0; the continuum has no window
        tab = _detuned_table()
        det = gaussian_detector(sigma=1.0, lam=0.5, tau=2.0)
        ch = measured_decay_channel(0.5, -0.5, tab, det)
        rate = decay_rate(tab, 1.0, det)
        assert rate > 0.0 and ch.tensor[0, 0, 1, 1] == det.tau * rate

    @pytest.mark.parametrize("n_modes", [2, 4])
    @pytest.mark.parametrize("res", [ReservoirSpectrum.lorentzian(b=0.05, omega_r=2.5, gamma=0.4),
                                     ReservoirSpectrum.gaussian_peak(b=0.05, omega_r=1.5, w=0.3)],
                             ids=["lorentzian", "gaussian_peak"])
    @pytest.mark.parametrize("lam", [0.0, 5.0, 30.0])
    def test_reservoir_trace_of_second_order(self, n_modes, res, lam):
        # with G^ the sum over a few modes, the channel is sum_beta
        # S[(p,beta),(r,beta),(n,0),(m,0)] of the atom + modes second-order
        # channel, the modes in vacuum
        det = gaussian_detector(sigma=1.0, lam=lam, tau=0.5)
        atom = SystemSpec(levels=(-1.0, 1.0))
        modes, couplings = _mode_comb(res, 2.0, n_modes)
        sys = atom_plus_modes(atom, modes, couplings)
        full = superop.build_second_order(sys, det).tensor
        a = n_modes + 1
        traced = np.einsum("pbrbnm->prnm", full.reshape((2, a) * 4)[:, :, :, :, :, 0, :, 0])
        weights = np.abs(couplings[0, :, 1]) ** 2

        def comb(res, t):  # G^(t) e^{-i w_R t} of the modes
            return np.exp(1j * np.outer(t, modes - res.omega_r)) @ weights

        with mock.patch.object(decay, "_reservoir_envelope", comb):
            ch = measured_decay_channel(1.0, -1.0, res, det)
        assert np.abs(ch.tensor - traced).max() <= 1e-6 * np.abs(weights).sum() * det.tau ** 2

    def test_traced_channel_reads_no_dense_v(self):
        # one dense V of the atom plus 800 modes, 1602 states, was 41 MB
        res = ReservoirSpectrum.lorentzian(b=1e-4, omega_r=51.0, gamma=10.0)
        det = gaussian_detector(sigma=1.0, lam=50.0, tau=2.0)
        tracemalloc.start()
        try:
            measured_decay_channel(0.5, -0.5, res, det)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("what", ["decay rate", "coherence integral"])
    def test_refine_exhaustion_carries_ladder(self, what):
        # every transform returns a larger value than the one before; the
        # coherence integral's ladder runs on a settled rate
        calls = iter(range(1, 100))

        def moving(g, x, deltas):
            return next(calls) * (1.0 + 1.0j) * np.ones(np.size(deltas))

        res = ReservoirSpectrum.lorentzian(b=1e-4, omega_r=2.5, gamma=1.0)
        det = det_for(10.0, 0.3)
        settled = mock.patch.object(decay, "_rate_and_ladder", return_value=(1e-3, [(2, 0.0)]))
        with mock.patch.object(decay, "_filon_transform", moving), \
                settled if what == "coherence integral" else nullcontext(), \
                pytest.raises(QuadratureNotConverged) as info:
            measured_decay_channel(1.0, -1.0, res, det)
        ladder = info.value.ladder
        assert [refine for refine, _ in ladder] == [2, 4, 8]
        assert str(info.value).startswith(
            f"{what} at time-grid refine 8 still moving by {ladder[-1][1]:.2e}")

    def test_meta_records_both_ladders(self):
        res = ReservoirSpectrum.lorentzian(b=1e-4, omega_r=51.0, gamma=1.0)
        det = gaussian_detector(sigma=1.0, lam=5.0, tau=2.0)
        meta = measured_decay_channel(0.5, -0.5, res, det).meta
        assert meta["rel_tol"] == 1e-4
        assert meta["rate_ladder"] == decay._rate_and_ladder(res, 1.0, det)[1]
        for name in ("rate_ladder", "coherence_ladder"):
            assert [refine for refine, _ in meta[name]] == [2]
            assert all(type(change) is float and change <= 1e-4 for _, change in meta[name])
        flat = measured_decay_channel(0.5, -0.5, ReservoirSpectrum.flat(1e-3), det).meta
        assert flat["rate_ladder"] == flat["coherence_ladder"] == []

    @pytest.mark.parametrize("e_excited, e_ground", [(math.nan, -1.0), (1.0, -math.inf),
                                                     (math.inf, -1.0)])
    def test_non_finite_energies_rejected(self, e_excited, e_ground):
        with mock.patch.object(decay, "_romberg") as ladder, \
                pytest.raises(ValueError, match="must be finite"):
            measured_decay_channel(e_excited, e_ground, _RES, det_for(10.0, 0.5))
        ladder.assert_not_called()

    @staticmethod
    def _e_mat_sums(coeff, w, h, n):
        """The lag table exp(i w_b l h) for -n < l < n times coeff: the dense
        evaluation of a mode sum, kept as the oracle of `_phase_sums`."""
        tau = h * (n - 1)
        return np.exp(1j * np.outer(np.linspace(-tau, tau, 2 * n - 1), w)) @ coeff

    @pytest.mark.parametrize("k", [3, 4, 63, 64, 65, 400])
    @pytest.mark.parametrize("n", [2, 97, 2001])
    def test_mode_sums_blocks_match_lag_table(self, k, n):
        # a mode sum on a lag grid: the vacuum term coeff[0] plus the phase
        # sums of the k modes on the 2n - 1 lags
        rng = np.random.default_rng(k * n)
        coeff = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
        w = np.concatenate([[0.0], np.linspace(-30.0, 70.0, k)])
        h = 2.0 / max(n - 1, 1)
        with fft_spy() as fft:
            got = coeff[0] + _phase_sums(coeff[1:], w[1:], h * np.arange(1 - n, n))
        # chirp-z blocks of min(k, 2n - 1) modes or lags when that is >= 64
        assert fft.called == (min(k, 2 * n - 1) >= 64)
        want = self._e_mat_sums(coeff, w, h, n)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("excited", [-1, 2, 1.0, "1"])
    def test_population_decay_rate_needs_a_state_index(self, excited):
        # excited = -1 silently read the last state
        ch = _identity_channel()
        with pytest.raises(ValueError, match=r"excited must be a state index in range\(2\)"):
            population_decay_rate(ch, excited)

    @pytest.mark.parametrize("survive", [0.0, -1e-3, math.nan])
    def test_population_decay_rate_needs_a_positive_survival(self, survive):
        # a survival <= 0 ended in a bare "math domain error"
        ch = _identity_channel()
        tensor = ch.tensor.copy()
        tensor[1, 1, 1, 1] = survive
        ch = dataclasses.replace(ch, tensor=tensor)
        with pytest.raises(ValueError, match=r"survival S\[1, 1, 1, 1\] = .* is not > 0"):
            population_decay_rate(ch, 1)

    def test_level_order_validated(self):
        res = ReservoirSpectrum.flat(0.001)
        det = det_for(10.0, 0.5)
        with pytest.raises(ValueError, match="excited level must lie above"):
            measured_decay_channel(-1.0, 1.0, res, det)
