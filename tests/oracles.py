"""Reference evaluators that the tests compare the package against.

They use scipy's special functions, which the package itself does not load.
"""

import math

import numpy as np
from scipy.special import dawsn, roots_hermite, wofz

from zenosim.decay import _filon_coeffs, _line_scales, line_mass, line_shape
from zenosim.superop import QuadratureRule


def gauss_hermite_rule(n: int, q_std: float) -> QuadratureRule:
    """n-point Gauss-Hermite rule for a centered Gaussian q-distribution of
    std q_std, without the outer nodes whose weights underflow to zero."""
    x, w = roots_hermite(n)
    keep = w > 0.0
    return QuadratureRule(nodes=math.sqrt(2.0) * q_std * x[keep],
                          weights=w[keep] / w[keep].sum())


def unit_sum_rule_defect(s: np.ndarray) -> float:
    """Deviation of sum_n s[p,r,n,n] from the identity (unitality)."""
    d = s.shape[0]
    return float(np.abs(np.einsum("prnn->pr", s) - np.eye(d)).max())


def filon_segments(g, x, deltas):
    """int g(x) e^{i delta x} dx over the increasing nodes x, with g linear on
    each segment: the exact segment integrals summed one delta at a time,
    with no phase sum and no common step."""
    h = np.diff(x)
    out = np.empty(np.size(deltas), dtype=complex)
    for k, delta in enumerate(np.atleast_1d(deltas)):
        a, b = _filon_coeffs(h * delta)
        out[k] = (np.exp(1j * delta * x[:-1]) * (a * g[:-1] + b * g[1:])) @ h
    return out


def line_shape_closed_form(omega, omega_if: float, det):
    """Closed form of P(w) for a Gaussian detector, via Faddeeva functions;
    exact up to floating point."""
    tau = det.tau
    scalar = np.isscalar(omega) or np.ndim(omega) == 0
    delta = np.atleast_1d(np.asarray(omega, dtype=float)) - omega_if
    a = (det.lam * omega_if / det.sigma) ** 2 / 2.0
    if a == 0.0:
        with np.errstate(invalid="ignore", divide="ignore"):
            p = (1.0 - np.cos(delta * tau)) / (math.pi * tau * delta ** 2)
        p = np.where(delta == 0.0, tau / (2.0 * math.pi), p)
        return float(p[0]) if scalar else p
    sa = math.sqrt(a)
    y = delta / (2.0 * sa)
    z2 = sa * tau - 1j * y
    decay_end = math.exp(-a * tau ** 2) * np.exp(1j * delta * tau)
    erf_right = np.exp(-y ** 2) - decay_end * wofz(1j * z2)
    erf_left = -(2j / math.sqrt(math.pi)) * dawsn(y)
    i0 = (math.sqrt(math.pi) / (2.0 * sa)) * (erf_right - erf_left)
    i1 = (1.0 - decay_end) / (2.0 * a) + (1j * delta / (2.0 * a)) * i0
    p = (i0 - i1 / tau).real / math.pi
    return float(p[0]) if scalar else p


def line_mass_by_sampling(omega_if: float, det, mass_tol: float = 1e-4) -> float:
    """Total mass of P sampled pointwise: the trapezoid rule on a grid around
    omega_if that resolves the decay of F and the window ripples, plus the two
    tail masses of `line_mass` out to where the residual 2 / (pi tau x) is
    below mass_tol / 4."""
    tau = det.tau
    s_g = 1.0 / _line_scales(omega_if, det)[1]  # 0 when F is not damped
    x_core = max(10.0 * s_g, 60.0 / tau)
    steps = [2.0 * math.pi / (16.0 * tau)]
    if s_g > 0:
        steps.append(s_g / 16.0)
    delta = min(steps)
    n = int(math.ceil(x_core / delta))
    grid = omega_if + delta * np.arange(-n, n + 1)
    core = float(np.trapezoid(line_shape(grid, omega_if, det), grid))
    x_lo, x_hi = grid[0] - omega_if, grid[-1] - omega_if
    x_max = max(2.0 / (math.pi * tau * (mass_tol / 4.0)), 4.0 * max(abs(x_lo), x_hi))
    return core + line_mass(x_hi, x_max, omega_if, det) + line_mass(-x_max, x_lo, omega_if, det)
