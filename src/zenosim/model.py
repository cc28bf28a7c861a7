"""Declarative description of the measured system and the detector.

The system is a set of discrete levels E_n (eigenvalues of the level
Hamiltonian read out by the detector), optional auxiliary quantum numbers
alpha per level with energies E1(n, alpha) from a commuting companion
Hamiltonian, and a Hermitian perturbation V(t) driving jumps between
levels.  The detector is characterized entirely by its correlation
function F(nu) = <Phi| exp(i nu q) |Phi>, the coupling strength lambda and
the single-measurement duration tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonIntegrableF, ZeroStrength
from .qmat import require_hermitian


def _all_finite(values, dtype=float) -> bool:
    """Whether every entry is a finite number; an integer beyond the float
    range is not."""
    try:
        return bool(np.isfinite(np.asarray(values, dtype=dtype)).all())
    except OverflowError:
        return False


@dataclass(frozen=True)
class MeasurementStrength:
    """Width constant C of the correlation function and Lambda = lambda / C."""

    C: float
    Lambda: float


@dataclass(frozen=True)
class DetectorModel:
    """Measuring device: correlation function kind, coupling and duration.

    kind "gaussian": F(nu) = exp(-nu^2 / (2 sigma^2)).  The implied detector
    position distribution |<q|Phi>|^2 is then a centered Gaussian with
    standard deviation 1/sigma (Fourier pair of F), which is what the exact
    quadrature integrates over.

    kind "custom": F given as a sampled table with linear interpolation,
    zero outside the tabulated range.  Lets tests inject pathological
    detectors without new analytic kinds.
    """

    lam: float
    tau: float
    sigma: float | None = None
    f_nu: np.ndarray | None = field(default=None, repr=False)
    f_values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        sigma = 1.0 if self.sigma is None else self.sigma
        if not _all_finite((self.lam, self.tau, sigma)):
            raise ValueError("lambda, tau and sigma must be finite")
        if self.lam < 0:
            raise ValueError("coupling lambda must be >= 0")
        if self.tau <= 0:
            raise ValueError("measurement duration tau must be > 0")
        if self.sigma is not None:
            if self.sigma <= 0:
                raise ValueError("gaussian width sigma must be > 0")
            return
        if self.f_nu is None or self.f_values is None:
            raise ValueError("detector needs either sigma (gaussian) or a tabulated F")
        if not (_all_finite(self.f_nu) and _all_finite(self.f_values, complex)):
            raise ValueError("tabulated F must be finite")
        nu = np.asarray(self.f_nu, dtype=float)
        fv = np.asarray(self.f_values, dtype=complex)
        if nu.ndim != 1 or nu.shape != fv.shape or nu.size < 3:
            raise ValueError("tabulated F needs matching 1-d arrays of length >= 3")
        if np.any(np.diff(nu) <= 0):
            raise ValueError("tabulated F grid must be strictly increasing")
        object.__setattr__(self, "f_nu", nu)
        object.__setattr__(self, "f_values", fv)
        f0 = complex(np.interp(0.0, nu, fv.real) + 1j * np.interp(0.0, nu, fv.imag))
        if abs(f0 - 1.0) > 1e-9:
            raise ValueError(f"tabulated F must satisfy F(0) = 1, got {f0}")
        if np.abs(fv).max() > 1.0 + 1e-9:
            raise ValueError("tabulated |F| must not exceed 1")

    @property
    def kind(self) -> str:
        return "gaussian" if self.sigma is not None else "custom"


def gaussian_detector(sigma: float, lam: float, tau: float) -> DetectorModel:
    return DetectorModel(lam=lam, tau=tau, sigma=sigma)


def custom_detector(nu: Sequence[float], f: Sequence[complex], lam: float, tau: float) -> DetectorModel:
    return DetectorModel(lam=lam, tau=tau, sigma=None, f_nu=nu, f_values=f)


def correlation(d: DetectorModel, nu):
    """Correlation function F(nu); accepts scalars or arrays."""
    nu = np.asarray(nu, dtype=float)
    if d.kind == "gaussian":
        out = np.zeros(nu.shape, dtype=complex)
        arg = nu ** 2
        arg /= -2.0 * d.sigma ** 2
        np.exp(arg, out=out.real)
    else:
        re = np.interp(nu, d.f_nu, d.f_values.real, left=0.0, right=0.0)
        im = np.interp(nu, d.f_nu, d.f_values.imag, left=0.0, right=0.0)
        out = re + 1j * im
    if out.ndim == 0:
        return complex(out)
    return out


def _half_width(d: DetectorModel, side=slice(None)) -> float:
    """|F| half-width: sigma for a Gaussian; for a custom table (on the nodes
    `side` selects) the least |nu| where |F| < e^{-1/2}, else its reach."""
    if d.kind == "gaussian":
        return d.sigma
    nu, below = np.abs(d.f_nu[side]), np.abs(d.f_values[side]) < 0.6065
    return float(nu[below].min() if below.any() else nu.max())


def strength(d: DetectorModel) -> MeasurementStrength:
    """C from the normalization integral of F and Lambda = lambda / C.

    C is defined through integral F(nu) d nu = 2 C; for the Gaussian kind the
    integral is exact, C = sigma * sqrt(pi/2).  Custom tables are integrated
    by trapezoid on their own grid (using |F|) and must decay at the edges.
    """
    if d.kind == "gaussian":
        c = d.sigma * math.sqrt(math.pi / 2.0)
    else:
        mags = np.abs(d.f_values)
        if mags[0] > 0.05 or mags[-1] > 0.05:
            raise NonIntegrableF(
                f"tabulated F does not decay at table edges: |F| = {mags[0]:.3g}, {mags[-1]:.3g}"
            )
        c = 0.5 * float(np.trapezoid(mags, d.f_nu))
    return MeasurementStrength(C=c, Lambda=d.lam / c)


def required_duration(d: DetectorModel, delta_e: float, hbar: float) -> float:
    """Lower bound on the duration needed to resolve an energy splitting.

    tau must be at least hbar / (Lambda * delta_e) for the pointer states of
    energies separated by delta_e to become distinguishable.
    """
    if delta_e <= 0:
        raise ValueError("delta_e must be > 0")
    s = strength(d)
    if s.Lambda == 0:
        raise ZeroStrength("measurement strength Lambda is zero (lambda = 0)")
    return hbar / (s.Lambda * delta_e)


@dataclass(frozen=True)
class SystemSpec:
    """Measured system: levels, auxiliary states and the jump perturbation.

    levels[n] is the energy E_n of level n.  alpha_energies[n] lists the
    auxiliary energies E1(n, alpha) for that level; a plain discrete system
    uses the default single auxiliary state at E1 = 0.  The basis is the
    flattened list of (n, alpha) pairs in level-major order.

    v is the perturbation in the flattened basis, either a constant
    Hermitian matrix or a callable t -> matrix (pure: same t gives the same
    matrix).  Hermiticity is asserted at construction and at every sampled t.
    """

    levels: tuple
    alpha_energies: tuple = None
    v: object = None
    hbar: float = 1.0

    def __post_init__(self):
        if not (_all_finite(self.levels) and _all_finite(self.hbar) and all(
                _all_finite(al) for al in self.alpha_energies or ())):
            raise ValueError("levels, auxiliary energies and hbar must be finite")
        levels = tuple(float(e) for e in self.levels)
        if len(levels) < 2:
            raise ValueError("need at least two levels")
        if self.alpha_energies is None:
            alphas = tuple((0.0,) for _ in levels)
        else:
            alphas = tuple(tuple(float(a) for a in al) for al in self.alpha_energies)
            if len(alphas) != len(levels):
                raise DimensionMismatch("alpha_energies must have one list per level")
            if any(len(al) == 0 for al in alphas):
                raise ValueError("every level needs at least one auxiliary state")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "alpha_energies", alphas)
        if self.hbar <= 0:
            raise ValueError("hbar must be > 0")
        if self.v is not None and not callable(self.v):
            vmat = require_hermitian(np.asarray(self.v, dtype=complex), what="V")
            if vmat.shape[0] != self.dim:
                raise DimensionMismatch(
                    f"V has dimension {vmat.shape[0]}, basis has {self.dim}")
            object.__setattr__(self, "v", vmat)
        elif callable(self.v):
            v0 = require_hermitian(np.asarray(self.v(0.0), dtype=complex), what="V(0)")
            if v0.shape[0] != self.dim:
                raise DimensionMismatch(
                    f"V(t) has dimension {v0.shape[0]}, basis has {self.dim}")

    @property
    def dim(self) -> int:
        return sum(len(al) for al in self.alpha_energies)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def state_level(self) -> np.ndarray:
        """Level index of each flattened basis state."""
        return np.concatenate([
            np.full(len(al), n, dtype=int) for n, al in enumerate(self.alpha_energies)
        ])

    @property
    def e0(self) -> np.ndarray:
        """Level energy E_n of each flattened basis state."""
        return np.array([self.levels[n] for n in self.state_level], dtype=float)

    @property
    def e1(self) -> np.ndarray:
        """Auxiliary energy E1(n, alpha) of each flattened basis state."""
        return np.concatenate([np.asarray(al, dtype=float) for al in self.alpha_energies])

    def omega_level(self) -> np.ndarray:
        """Level transition frequencies between flattened states: (E0_j - E0_k) / hbar."""
        e = self.e0
        return (e[:, None] - e[None, :]) / self.hbar

    def omega_full(self) -> np.ndarray:
        """Full transition frequencies including auxiliary energies."""
        e = self.e0 + self.e1
        return (e[:, None] - e[None, :]) / self.hbar

    def flat_index(self, n: int, alpha: int = 0) -> int:
        """Flattened basis index of state (level n, auxiliary alpha)."""
        if not 0 <= n < self.n_levels:
            raise IndexError(f"level {n} out of range")
        if not 0 <= alpha < len(self.alpha_energies[n]):
            raise IndexError(f"alpha {alpha} out of range for level {n}")
        return sum(len(al) for al in self.alpha_energies[:n]) + alpha

    @property
    def constant_v(self) -> bool:
        return not callable(self.v)

    def v_at(self, t: float) -> np.ndarray:
        """Perturbation matrix at time t, hermiticity-checked."""
        if self.v is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        if not callable(self.v):
            return self.v
        return require_hermitian(np.asarray(self.v(t), dtype=complex), what=f"V({t})")


@dataclass(frozen=True)
class TwoLevelPreset:
    """Two-level system with splitting omega and coupling v.

    Expands to levels at -hbar*omega/2 and +hbar*omega/2 with
    V = v sigma+ + v* sigma-; basis order is (|0>, |1>) by ascending energy.
    """

    omega: float
    v: complex
    hbar: float = 1.0

    @property
    def rabi_frequency(self) -> float:
        return math.sqrt(self.omega ** 2 + 4.0 * abs(self.v) ** 2 / self.hbar ** 2)

    def v_matrix(self) -> np.ndarray:
        v = complex(self.v)
        return np.array([[0.0, v.conjugate()], [v, 0.0]], dtype=complex)

    def to_system(self) -> SystemSpec:
        e = self.hbar * self.omega / 2.0
        return SystemSpec(levels=(-e, e), v=self.v_matrix(), hbar=self.hbar)
