"""Continuous-spectrum physics: measurement-modified decay.

The spectral line of a measured transition is broadened to the shape

    P(w) = (1/pi) Re  int_0^tau  F(lambda w_if t) e^{i (w - w_if) t} (1 - t/tau) dt,

normalized to unit area.  The decay rate into a reservoir with coupling
spectrum G(w) is the overlap (2 pi / hbar^2) int G(w) P(w) dw: the golden
rule when the line is much narrower than the reservoir, 1/Lambda (Zeno)
when the line dwarfs it, an intermediate rise (anti-Zeno) for a detuned
maximum.  Exchanging the integrations makes it one time integral,
(2 / hbar^2) Re int g(t) G^(t) e^{-i w_if t} dt with G^ the Fourier
transform of G (e^{-gamma t} or e^{-w^2 t^2 / 2} times e^{i w_R t}).

The Fourier-type integrals are piecewise-linear Filon transforms
(`_filon_transform`): the smooth factor, g(t) = F(lambda w_if t)(1 - t/tau),
g(t) G^(t) e^{-i w_R t} or a tabulated G(w), is sampled on nodes resolving
only itself, and the oscillation e^{i delta t} is integrated exactly on every
segment, so accuracy does not degrade with detuning.  The integrals of g
(P, the line mass, the decay rate, and the constant-V jump probability of
`dynamics`, the golden-rule factor times P) run on time grids refined 1, 2,
4, 8 times, certified after a Richardson step (`qmat._romberg`); so do the
two transforms behind the measured decay channel, whose continuum enters
through G^ alone.  Every phase sum sum_j c_j e^{i x_j y_k} behind them is
one routine (`_phase_sums`): a blocked chirp-z transform when both grids
are uniform and the phases stay below CHIRP_MAX_PHASE, dense phase
products otherwise.  The line mass over a
window adds the sine integral Si at its edges, evaluated with `math` alone
(`_si`).  Every line function raises ValueError before any ladder runs for
a non-finite frequency or window edge; tau comes from the detector and hbar
from the reservoir, which reject a value not finite and > 0 when built, or
is checked where it is an argument (`golden_rule`, `emitted_spectrum`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooNarrow, NotInZenoRegime, ZeroFrequency, ZeroStrength
from .model import DetectorModel, SystemSpec, correlation
from .qmat import _all_finite, _romberg, _tolerance, trace_sum_rule_defect
from .superop import SECOND_ORDER, MeasurementChannel, build_unperturbed


# ---------------------------------------------------------------------------
# reservoir coupling spectrum

def _check_grid(x: np.ndarray, name: str) -> None:
    """ValueError unless x is finite, 1-d, strictly increasing and of length >= 2."""
    if x.ndim != 1 or x.size < 2 or not (np.isfinite(x).all() and np.all(np.diff(x) > 0)):
        raise ValueError(f"{name} must be finite, 1-d and strictly increasing, length >= 2")


def _checked_table(omega, g):
    """A tabulated G as float arrays; ValueError unless both are finite, 1-d,
    of one length >= 3, on an increasing grid, with G >= 0."""
    if not (_all_finite(omega) and _all_finite(g)):  # None included
        raise ValueError("tabulated G must be given and finite")
    omega, g = np.asarray(omega, dtype=float), np.asarray(g, dtype=float)
    if omega.shape != g.shape or omega.size < 3:
        raise ValueError("tabulated G needs matching 1-d arrays, length >= 3")
    _check_grid(omega, "tabulated G's omega")
    if np.any(g < 0):
        raise ValueError("G must be non-negative")
    return omega, g


@dataclass(frozen=True)
class ReservoirSpectrum:
    """Coupling spectrum G(w) of the decay continuum.

    G(w) = hbar * rho(hbar w) * |V(w)|^2 bundles the density of states and
    the coupling; B = (1/hbar) int G dw is the total coupling weight used by
    the narrow-reservoir limit.  Shapes are artifact plumbing; the physics
    only cares about G's role in the overlap integral.
    """

    kind: str
    hbar: float = 1.0
    g0: float = 0.0
    b: float = 0.0
    omega_r: float = 0.0
    width: float = 0.0
    tab_omega: np.ndarray | None = field(default=None, repr=False)
    tab_g: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        params = {"hbar": self.hbar, "g0": self.g0, "b": self.b,
                  "omega_r": self.omega_r, "width": self.width}
        if not _all_finite(list(params.values())):
            raise ValueError("reservoir parameters must be finite")
        for name, value in params.items():
            object.__setattr__(self, name, float(value))
        if self.kind not in ("flat", "lorentzian", "gaussian_peak", "tabulated"):
            raise ValueError(f"unknown reservoir kind {self.kind!r}")
        if not self.hbar > 0 or self.g0 < 0 or self.b < 0:
            raise ValueError("need hbar > 0 and a non-negative G: g0 >= 0 and B >= 0")
        square = self.width * self.width
        if self.kind != "flat" and not (self.width > 0 and 0.0 < square < math.inf):
            raise ValueError(f"a {self.kind} reservoir needs width > 0 with a finite, "
                             f"non-zero square, got {self.width!r}")
        if self.kind == "tabulated":
            omega, g = _checked_table(self.tab_omega, self.tab_g)
            object.__setattr__(self, "tab_omega", omega)
            object.__setattr__(self, "tab_g", g)

    @classmethod
    def flat(cls, g0: float, hbar: float = 1.0):
        return cls(kind="flat", g0=g0, hbar=hbar)

    @classmethod
    def lorentzian(cls, b: float, omega_r: float, gamma: float, hbar: float = 1.0):
        return cls(kind="lorentzian", b=b, omega_r=omega_r, width=gamma, hbar=hbar)

    @classmethod
    def gaussian_peak(cls, b: float, omega_r: float, w: float, hbar: float = 1.0):
        return cls(kind="gaussian_peak", b=b, omega_r=omega_r, width=w, hbar=hbar)

    @classmethod
    def tabulated(cls, omega, g, hbar: float = 1.0):
        omega, g = _checked_table(omega, g)
        total = np.trapezoid(g, omega)
        center = float(omega[np.argmax(g)])
        mean = np.trapezoid(g * omega, omega) / total if total > 0 else center
        var = np.trapezoid(g * (omega - mean) ** 2, omega) / total if total > 0 else 0.0
        return cls(kind="tabulated", b=float(total / hbar), omega_r=center,
                   width=float(math.sqrt(max(var, 1e-300))), hbar=hbar,
                   tab_omega=omega, tab_g=g)

    def g(self, omega):
        omega = np.asarray(omega, dtype=float)
        with np.errstate(over="ignore"):  # far detuned: (omega - omega_r)^2 -> inf, G -> 0
            if self.kind == "flat":
                out = np.full_like(omega, self.g0)
            elif self.kind == "lorentzian":
                out = (self.hbar * self.b / math.pi) * self.width / (
                    (omega - self.omega_r) ** 2 + self.width ** 2)
            elif self.kind == "gaussian_peak":
                out = (self.hbar * self.b / (self.width * math.sqrt(2.0 * math.pi))
                       ) * np.exp(-((omega - self.omega_r) ** 2) / (2.0 * self.width ** 2))
            else:
                out = np.interp(omega, self.tab_omega, self.tab_g, left=0.0, right=0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def b_total(self) -> float:
        """(1/hbar) * integral of G; infinite for a flat reservoir."""
        if self.kind == "flat":
            return float("inf") if self.g0 > 0 else 0.0
        return self.b


# ---------------------------------------------------------------------------
# Filon transform of the damped line kernel

# (Re A, Im A / th) = sum (-th^2)^k (1 / (2k+2)!, 1 / (2k+3)!), highest power first: rounding
# for |th| < 0.5 in eight terms, where the closed form's Im A errs by about eps / |th|
_SERIES = [(-1) ** k * (1 / math.factorial(2 * k + 2) + 1j / math.factorial(2 * k + 3))
           for k in range(7, -1, -1)]


def _filon_weight(theta) -> np.ndarray:
    """Segment weight A(th) = int_0^1 (1-u) e^{i th u} du, to rounding for every
    finite th, in real arithmetic: 2 sin^2(th/2) / th^2 + i (th - sin th) / th^2
    through u = 1/th, so nothing overflows, or the series for |th| < 0.5.  The
    weight at the segment's end is B(th) = int_0^1 u e^{i th u} du = conj A(th) e^{i th}."""
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < 0.5
    ts = theta if small.all() else np.where(small, theta, 0.0)  # no mask on fine grids
    th2, out = ts * ts, np.full(theta.shape, _SERIES[0])
    for c in _SERIES[1:]:  # both real series by one Horner loop in th^2, in place
        out *= th2
        out += c
    out.imag *= ts
    if not small.all():
        u = 1.0 / np.where(small, 1.0, theta)
        s = np.sin(0.5 * theta) * u
        out = np.where(small, out, 2.0 * s * s + 1j * (u - np.sin(theta) * u * u))
    return out


CHIRP_MAX_PHASE = 1e4  # rad: the largest max|x| max|y| of the chirp path of `_phase_sums`


def _smooth_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: an FFT length numpy transforms fast."""
    odd = (3 ** i * 5 ** j for i in range(n.bit_length()) for j in range(n.bit_length()))
    return min(k << ((n - 1) // k).bit_length() for k in odd)


def _phase_sums(c: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_j c_j e^{i x_j y_k} for every k.

    A grid is uniform when its deviation from a progression, times the
    largest |value| of the other grid, is at most 1e-12 rad.  When both are,
    the shorter has b >= 64 points and max|x| max|y| <= CHIRP_MAX_PHASE, the
    sum is a chirp-z transform (Bluestein: p q = (p^2 + q^2 - (q - p)^2) / 2)
    on b x b blocks, one batched FFT convolution of the least 5-smooth length
    >= 2b - 1 per block of x; each block's start goes into the input phase, so
    the chirp phases dx dy p^2 / 2, p < b, stay near the size of the direct
    ones; it errs by about eps max|x| max|y| sum|c| at every output, where the
    dense products in chunks that other pairs take err by eps |x_j y_k| per term.
    """
    n, m = x.size, y.size
    b = min(n, m)

    def deviation(v):
        return np.abs(v - np.linspace(v[0], v[-1], v.size)).max()

    if b >= 64 and np.abs(x).max() * np.abs(y).max() <= CHIRP_MAX_PHASE \
            and max(deviation(x) * np.abs(y).max(), deviation(y) * np.abs(x).max()) <= 1e-12:
        dx, dy = (x[-1] - x[0]) / (n - 1), (y[-1] - y[0]) / (m - 1)
        size = _smooth_length(2 * b - 1)
        p = np.arange(b)
        chirp = np.exp(-0.5j * (dx * dy) * p ** 2)
        kernel = np.fft.fft(np.concatenate([chirp, np.zeros(size - 2 * b + 1), chirp[:0:-1]]))
        starts = y[::b, None]
        out = np.zeros((starts.size, b), dtype=complex)
        for lo in range(0, n, b):
            xb = x[lo:lo + b]
            phase = starts * xb + (0.5 * dx * dy) * p[:xb.size] ** 2
            conv = np.fft.ifft(np.fft.fft(c[lo:lo + b] * np.exp(1j * phase), size) * kernel)
            out += conv[:, :b] * np.exp(1j * dy * p * (x[lo] + 0.5 * dx * p))
        return out.ravel()[:m]
    out = np.empty(m, dtype=complex)
    chunk = max(1, (1 << 21) // max(n, 1))
    for lo in range(0, m, chunk):
        out[lo:lo + chunk] = np.exp(1j * np.outer(y[lo:lo + chunk], x)) @ c
    return out


def _filon_transform(g: np.ndarray, x: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """int_{x_0}^{x_end} g(x) e^{i delta x} dx for an array of deltas.

    g is sampled on the increasing nodes x and treated as piecewise linear;
    the oscillatory factor is integrated exactly per segment, so accuracy is
    set by how well the nodes resolve g, not by delta.  Steps that agree with
    their mean h to 1e-10 of h (a 10^5-node linspace rounds them by 2e-11 of
    h) take one `_phase_sums`; other nodes sum each segment's weights.
    """
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    steps = np.diff(x)
    h = (x[-1] - x[0]) / steps.size
    if np.abs(steps - h).max() <= 1e-10 * h:
        a = _filon_weight(deltas * h)
        gsum = _phase_sums(g, x, deltas)
        end = np.exp(1j * deltas * x[-1]) * g[-1]
        start = np.exp(1j * deltas * x[0]) * g[0] if x[0] else g[0]
        return h * (a * (gsum - end) + a.conj() * (gsum - start))  # B(th) e^{-i th} = conj A(th)
    out = np.empty(deltas.size, dtype=complex)
    chunk = max(1, (1 << 18) // steps.size)
    for lo in range(0, deltas.size, chunk):
        d = deltas[lo:lo + chunk, None]
        a = _filon_weight(steps * d)
        phase = np.exp(1j * d * x)  # e^{i d x_j} B_j = conj A_j e^{i d x_{j+1}}
        out[lo:lo + chunk] = (phase[:, :-1] * a * g[:-1] + phase[:, 1:] * a.conj() * g[1:]) @ steps
    return out


def _line_scales(omega_if: float, det: DetectorModel):
    """(t_cut, t_f): extent of the damped kernel and its decay time scale;
    ValueError when the line width lambda |w_if| overflows."""
    lw = float(det.lam) * abs(float(omega_if))
    if not math.isfinite(lw):
        raise ValueError(f"lambda*|omega_if| = {lw!r} is not finite")
    if lw == 0.0:
        return det.tau, float("inf")
    t_f = det.sigma / lw
    return min(det.tau, 8.6 * t_f), t_f


def _line_time_grid(omega_if: float, det: DetectorModel, refine: int = 1,
                    width: float = 0.0) -> np.ndarray:
    """Uniform grid on [0, t_cut] resolving the kernel's decay and a spectral width."""
    t_cut, t_f = _line_scales(omega_if, det)
    n = max(128.0 * t_cut / t_f, 128.0 * t_cut * width)
    n = int(min(16384, max(512, math.ceil(n))))
    return np.linspace(0.0, t_cut, refine * n + 1)


def _line_kernel(omega_if: float, det: DetectorModel, t: np.ndarray) -> np.ndarray:
    """g(t) = F(lambda w_if t) (1 - t/tau) on the given grid."""
    return correlation(det, det.lam * omega_if * t) * (1.0 - t / det.tau)


_REFINES = (1, 2, 4, 8)  # time-grid refinements of every integral of the line kernel


def _check_line(*freqs) -> None:
    """ValueError unless every frequency is finite."""
    if not all(map(_all_finite, freqs)):
        raise ValueError("frequencies and window edges must be finite")


def _check_nonnegative(value, name: str) -> None:
    """ValueError unless value is finite and >= 0."""
    if not (_all_finite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _line_transform(omega_if: float, det: DetectorModel, deltas: np.ndarray,
                    refine: int) -> np.ndarray:
    """int_0^t_cut g(t) e^{i delta t} dt at each delta, on the time grid of `refine`."""
    t = _line_time_grid(omega_if, det, refine)
    return _filon_transform(_line_kernel(omega_if, det, t), t, deltas)


def line_shape(omega, omega_if: float, det: DetectorModel):
    """Measurement-modified line shape P(w): a float for a scalar omega,
    else an array of omega's shape.

    Evaluated by Filon quadrature on a grid resolving both the decay of
    F(lambda w_if t) and the window (1 - t/tau), tau = det.tau; the result
    is certified by doubling the grid (`_romberg`) until the extrapolated P
    moves by at most 1e-6 of max(max|P|, 1e-3 tau).
    """
    _check_line(omega, omega_if)
    omega = np.asarray(omega, dtype=float)
    if omega.size == 0:
        return np.empty(omega.shape)
    deltas = omega.ravel() - omega_if
    p, _ = _romberg(lambda r: _line_transform(omega_if, det, deltas, r).real / math.pi,
                    _REFINES, 1e-6, "line shape at time-grid refine {}",
                    scale=lambda p: max(float(np.abs(p).max()), 1e-3 * det.tau))
    return float(p[0]) if omega.ndim == 0 else p.reshape(omega.shape)


def _si(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(t) / t dt: the power series for
    |x| <= 2, else pi/2 + Im E1(i|x|) from the continued fraction of E1 by the
    modified Lentz method (Numerical Recipes, section 6.8)."""
    if math.isinf(x):
        return math.copysign(0.5 * math.pi, x)
    t = abs(x)
    if not t > 2.0:  # nan included
        term = total = t
        k = 1
        while abs(term) > 1e-17 * abs(total):
            term *= -t * t / ((k + 1) * (k + 2))
            k += 2
            total += term / k
        return math.copysign(total, x)
    b = complex(1.0, t)
    c = 1e300
    d = h = 1.0 / b
    for i in range(1, 1000):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta.real - 1.0) + abs(delta.imag) < 3e-16:
            break
    return math.copysign(0.5 * math.pi + (complex(math.cos(t), -math.sin(t)) * h).imag, x)


def line_mass(delta_lo: float, delta_hi: float, omega_if: float,
              det: DetectorModel) -> float:
    """Integral of P over w in [w_if + delta_lo, w_if + delta_hi].

    Computed in the time domain (exact exchange of integration order), so
    windows reaching far into the 1/delta^2 tails cost one transform instead
    of a dense pointwise grid; certified like `line_shape`, by doubling the
    grid until the extrapolated mass moves by at most 1e-6.
    """
    _check_line(omega_if, delta_lo, delta_hi)
    def evaluate(refine: int) -> float:
        t = _line_time_grid(omega_if, det, refine)
        g = _line_kernel(omega_if, det, t)
        r = np.empty_like(g)
        r[1:] = (g[1:] - 1.0) / t[1:]
        r[0] = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * (t[1] - t[0]))
        ir = _filon_transform(r, t, np.array([delta_lo, delta_hi]))
        si = _si(delta_hi * t[-1]) - _si(delta_lo * t[-1])
        return float(si / math.pi + (ir[1].imag - ir[0].imag) / math.pi)

    return _romberg(evaluate, _REFINES, 1e-6, "line mass at time-grid refine {}")[0]


def fwhm(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half maximum of a sampled single peak, with linear
    interpolation of the half-height crossings; ValueError unless x and y are
    matching 1-d arrays of length >= 2, x strictly increasing, y without an
    infinite sample, and max y > 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"x and y must be matching 1-d arrays, got shapes {x.shape}, {y.shape}")
    _check_grid(x, "x")
    if np.isinf(y).any():
        raise ValueError("y has an infinite sample, so no half maximum")
    k = int(np.argmax(y))
    if not y[k] > 0:
        raise ValueError(f"no peak: the curve's maximum {y[k]!r} is not > 0")
    half = y[k] / 2.0
    below = np.flatnonzero(y <= half)  # each crossing is next to the one nearest k
    lo, hi = below[below < k], below[below > k]
    if not (lo.size and hi.size):
        raise GridTooNarrow("half-maximum crossings not bracketed by the grid")
    i, j = lo[-1], hi[0] - 1
    left = x[i] + (half - y[i]) / (y[i + 1] - y[i]) * (x[i + 1] - x[i])
    right = x[j] + (y[j] - half) / (y[j] - y[j + 1]) * (x[j + 1] - x[j])
    return float(right - left)


# ---------------------------------------------------------------------------
# decay rates

def golden_rule(v2: float, rho_of_e, omega_if: float, hbar: float) -> float:
    """Unmeasured decay rate R = (2 pi / hbar) |V|^2 rho(hbar w_if); ValueError
    unless v2 and rho (given, or returned by a callable) are finite and >= 0,
    hbar is finite and > 0, and omega_if is finite."""
    _check_nonnegative(v2, "v2")
    hbar = _tolerance(hbar, "hbar")
    _check_line(omega_if)
    rho = rho_of_e(hbar * omega_if) if callable(rho_of_e) else rho_of_e
    _check_nonnegative(rho, "rho")
    return 2.0 * math.pi * v2 * float(rho) / hbar


def _reservoir_envelope(res: ReservoirSpectrum, t: np.ndarray):
    """G^(t) e^{-i w_R t} on the time grid t, where G^(t) = int G(w) e^{i w t} dw."""
    if res.kind == "lorentzian":
        return res.hbar * res.b * np.exp(-res.width * t)
    if res.kind == "gaussian_peak":
        return res.hbar * res.b * np.exp(-0.5 * (res.width * t) ** 2)
    # the table is piecewise linear and 0 outside, so its Filon transform is
    # exact, the jumps at the table ends included
    return _filon_transform(res.tab_g, res.tab_omega - res.omega_r, t)


RATE_REL_TOL = 1e-4  # default relative tolerance of the decay rate and of the decay channel


def _reservoir_grid(res: ReservoirSpectrum, omega_if: float, det: DetectorModel,
                    refine: int) -> np.ndarray:
    """`_line_time_grid` resolving the reservoir factor too: its width, or a table's reach."""
    width = res.width if res.tab_omega is None else np.abs(res.tab_omega - res.omega_r).max()
    return _line_time_grid(omega_if, det, refine, width)


def _rate_and_ladder(res: ReservoirSpectrum, omega_if: float, det: DetectorModel,
                     rel_tol: float = RATE_REL_TOL):
    """(decay_rate, the (refine, relative change) ladder that certified it; [] for a flat G)."""
    _check_line(omega_if)
    rel_tol = _tolerance(rel_tol, "rel_tol")
    if res.kind == "flat":
        return 2.0 * math.pi * res.g0 / res.hbar ** 2, []
    delta = np.array([res.omega_r - omega_if])

    def evaluate(refine: int) -> float:
        t = _reservoir_grid(res, omega_if, det, refine)
        g = _line_kernel(omega_if, det, t) * _reservoir_envelope(res, t)
        return 2.0 * float(_filon_transform(g, t, delta)[0].real) / res.hbar ** 2

    rate, ladder = _romberg(evaluate, _REFINES, rel_tol, "decay rate at time-grid refine {}",
                            scale=lambda r: max(abs(r), 1e-300))
    # R = (2 pi / hbar^2) int G P with G >= 0 and P >= 0 (the transform of F times the
    # triangle window, both positive definite): a negative R rounds a vanishing integral
    return (rate if rate > 0.0 else 0.0), ladder


def decay_rate(res: ReservoirSpectrum, omega_if: float, det: DetectorModel, *,
               rel_tol: float = RATE_REL_TOL) -> float:
    """Measurement-modified decay rate R = (2 pi / hbar^2) int G(w) P(w) dw.

    Exact for a flat reservoir (the golden rule 2 pi G0 / hbar^2); otherwise
    the exchanged time integral, certified by doubling its time grid until
    the extrapolated rate moves by at most rel_tol relative (ValueError
    unless rel_tol is finite and > 0).
    """
    return _rate_and_ladder(res, omega_if, det, rel_tol)[0]


def zeno_limit_rate(res: ReservoirSpectrum, omega_if: float, det: DetectorModel) -> float:
    """Narrow-reservoir strong-measurement limit R = 2 B / (Lambda hbar w_if).

    Insensitive to the reservoir shape; warns when the measurement-broadened
    line is not much wider than the reservoir or its detuning.  ValueError for
    a non-finite w_if, ZeroFrequency for w_if = 0.
    """
    _check_line(omega_if)
    if omega_if == 0:
        raise ZeroFrequency("the Zeno limit is singular at w_if = 0")
    if det.Lambda == 0.0:
        raise ZeroStrength("Zeno limit needs a nonzero measurement strength")
    b = res.b_total()
    line_w = det.Lambda * abs(omega_if)
    if not math.isfinite(b):
        warnings.warn("flat reservoir has no narrow-reservoir limit", NotInZenoRegime)
    elif line_w < 10.0 * max(res.width, abs(res.omega_r - omega_if)):
        warnings.warn("measured line is not much wider than the reservoir", NotInZenoRegime)
    return 2.0 * b / (det.Lambda * res.hbar * abs(omega_if))


def emitted_spectrum(omega_if: float, det: DetectorModel, v2: float,
                     e_grid: np.ndarray, *, hbar: float = 1.0) -> np.ndarray:
    """Occupation of field modes after one measurement:
    W(E) = (2 pi / hbar^2) |V|^2 tau P(E / hbar), tau = det.tau.

    Raises GridTooNarrow when more than 1% of the line mass falls outside
    e_grid, and ValueError unless v2 is finite and >= 0, hbar finite and > 0,
    and e_grid finite, 1-d, strictly increasing and of length >= 2."""
    _check_nonnegative(v2, "v2")
    hbar = _tolerance(hbar, "hbar")
    e_grid = np.asarray(e_grid, dtype=float)
    _check_grid(e_grid, "e_grid")
    covered = line_mass(e_grid[0] / hbar - omega_if, e_grid[-1] / hbar - omega_if,
                        omega_if, det)
    if covered < 0.99:
        raise GridTooNarrow(
            f"grid covers only {covered:.4f} of the line mass (need >= 0.99)")
    p = line_shape(e_grid / hbar, omega_if, det)
    return 2.0 * math.pi * v2 * det.tau * p / hbar ** 2


# ---------------------------------------------------------------------------
# measured decay channel of the atom, continuum traced out

def measured_decay_channel(e_excited: float, e_ground: float, res: ReservoirSpectrum,
                           det: DetectorModel, *, t0: float = 0.0,
                           n_modes=None) -> MeasurementChannel:
    """Second-order channel of a two-level atom (0 ground, 1 excited) decaying
    into the continuum of res, which starts in its vacuum and is traced out;
    returns to the excited state are neglected, so the channel composes.

    The continuum enters only through G^(s) = int G(w) e^{i w s} dw (Kofman &
    Kurizki, Nature 405, 546 (2000)).  Besides the unperturbed closed form,
    four entries are non-zero, from J(s0) = int_0^tau (tau - s)
    F(lambda w_if (s0 - s)) G^(s) e^{-i w_if s} ds: S[0,0,1,1] = -S[1,1,1,1]
    = 2 Re J(0) / hbar^2 = tau R, R = `decay_rate`, and S[1,0,1,0] =
    conj S[0,1,0,1] = -e^{-i w_if tau} conj J(tau) / hbar^2.  J(tau), the
    Filon transform of u F(lambda w_if u) G^(tau - u) with u = tau - s, climbs
    R's time grids until it moves by at most RATE_REL_TOL of the larger of
    |J(tau)| and Re J(0).  A flat G^ = 2 pi g0 delta(s) weighs s = 0 by half,
    so J(tau) = pi g0 tau F(lambda w_if tau).

    meta: rel_tol and the (refine, change) ladders "rate_ladder" and
    "coherence_ladder", [] for a flat G.  Raises ValueError for a non-finite
    energy or e_excited <= e_ground, and QuadratureNotConverged, carrying its
    ladder, past the last refine.  n_modes is ignored with a DeprecationWarning.
    """
    if n_modes is not None:
        warnings.warn("n_modes is ignored: the decay channel reads the continuum, not modes",
                      DeprecationWarning, stacklevel=2)
    atom = SystemSpec(levels=(e_ground, e_excited), hbar=res.hbar)
    if e_excited <= e_ground:
        raise ValueError("excited level must lie above the ground level")
    tau, hbar2 = det.tau, res.hbar ** 2
    omega_if = (e_excited - e_ground) / res.hbar
    rate, rate_ladder = _rate_and_ladder(res, omega_if, det)
    coherence_ladder = []
    if res.kind == "flat":
        j_tau = math.pi * res.g0 * tau * correlation(det, det.lam * omega_if * tau)
    else:
        delta = res.omega_r - omega_if

        def evaluate(refine: int) -> complex:
            u = _reservoir_grid(res, omega_if, det, refine)
            f = u * correlation(det, det.lam * omega_if * u) * _reservoir_envelope(res, tau - u)
            return np.exp(1j * delta * tau) * _filon_transform(f, u, np.array([-delta]))[0]

        j_tau, coherence_ladder = _romberg(
            evaluate, _REFINES, RATE_REL_TOL, "coherence integral at time-grid refine {}",
            scale=lambda j: float(max(abs(j), 0.5 * hbar2 * tau * rate, 1e-300)))
    tensor = build_unperturbed(atom, det).tensor
    tensor[0, 0, 1, 1] += tau * rate
    tensor[1, 1, 1, 1] -= tau * rate
    tensor[1, 0, 1, 0] -= np.exp(-1j * omega_if * tau) * np.conj(j_tau) / hbar2
    tensor[0, 1, 0, 1] -= np.exp(1j * omega_if * tau) * j_tau / hbar2
    return MeasurementChannel(tensor=tensor, method=SECOND_ORDER, t0=t0, tau=tau,
                              certified_trace_err=trace_sum_rule_defect(tensor),
                              meta={"rel_tol": RATE_REL_TOL, "rate_ladder": rate_ladder,
                                    "coherence_ladder": coherence_ladder})


def population_decay_rate(channel: MeasurementChannel, excited: int) -> float:
    """Rate inferred from one application of the channel to the excited state;
    ValueError unless excited is in range(channel.dim) and survives with S > 0."""
    if not (isinstance(excited, (int, np.integer)) and 0 <= excited < channel.dim):
        raise ValueError(f"excited must be a state index in range({channel.dim}), got {excited!r}")
    survive = float(channel.tensor[excited, excited, excited, excited].real)
    if not survive > 0:
        raise ValueError(f"survival S[{excited}, {excited}, {excited}, {excited}] = {survive!r}"
                         " is not > 0")
    return -math.log(survive) / channel.tau
