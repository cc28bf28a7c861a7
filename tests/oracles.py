"""Reference evaluators that the tests compare the package against.

They use scipy's special functions, which the package itself does not load.
"""

import math

import numpy as np
from scipy.special import dawsn, roots_hermite, wofz

from zenosim.superop import QuadratureRule


def gauss_hermite_rule(n: int, q_std: float) -> QuadratureRule:
    """n-point Gauss-Hermite rule for a centered Gaussian q-distribution of
    std q_std, without the outer nodes whose weights underflow to zero."""
    x, w = roots_hermite(n)
    keep = w > 0.0
    return QuadratureRule(nodes=math.sqrt(2.0) * q_std * x[keep],
                          weights=w[keep] / w[keep].sum())


def line_shape_closed_form(omega, omega_if: float, det, tau: float):
    """Closed form of P(w) for a Gaussian detector, via Faddeeva functions;
    exact up to floating point."""
    if det.kind != "gaussian":
        raise ValueError("closed form exists only for the Gaussian detector")
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
