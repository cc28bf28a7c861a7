"""Declarative description of the measured system and the detector.

The system is a set of discrete levels E_n (eigenvalues of the level
Hamiltonian read out by the detector), optional auxiliary quantum numbers
alpha per level with energies E1(n, alpha) from a commuting companion
Hamiltonian, and a Hermitian perturbation V(t) driving jumps between
levels.  The detector is characterized entirely by its correlation
function F(nu) = <Phi| exp(i nu q) |Phi>, a Gaussian of width sigma, the
coupling strength lambda and the single-measurement duration tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .qmat import _all_finite, require_hermitian


@dataclass(frozen=True)
class DetectorModel:
    """Measuring device: Gaussian correlation function, coupling and duration.

    F(nu) = exp(-nu^2 / (2 sigma^2)).  The implied detector position
    distribution |<q|Phi>|^2 is then a centered Gaussian with standard
    deviation 1/sigma (Fourier pair of F), which is what the exact
    quadrature integrates over.
    """

    lam: float
    tau: float
    sigma: float

    def __post_init__(self):
        if not _all_finite((self.lam, self.tau, self.sigma)):
            raise ValueError("lambda, tau and sigma must be finite")
        if self.lam < 0:
            raise ValueError("coupling lambda must be >= 0")
        if self.tau <= 0:
            raise ValueError("measurement duration tau must be > 0")
        if not (self.sigma > 0 and 0.0 < float(self.sigma) * float(self.sigma) < math.inf):
            raise ValueError(f"gaussian width sigma must be > 0 with a finite, non-zero "
                             f"square, got {self.sigma!r}")

    @property
    def C(self) -> float:
        """Width constant of F, defined by integral F(nu) d nu = 2 C:
        C = sigma * sqrt(pi/2) for the Gaussian."""
        return self.sigma * math.sqrt(math.pi / 2.0)

    @property
    def Lambda(self) -> float:
        """Dimensionless measurement strength Lambda = lambda / C."""
        return self.lam / self.C


def gaussian_detector(sigma: float, lam: float, tau: float) -> DetectorModel:
    return DetectorModel(lam=lam, tau=tau, sigma=sigma)


def correlation(d: DetectorModel, nu):
    """Correlation function F(nu); accepts scalars or arrays."""
    nu = np.asarray(nu, dtype=float)
    out = np.zeros(nu.shape, dtype=complex)
    arg = nu ** 2
    arg /= -2.0 * d.sigma ** 2
    np.exp(arg, out=out.real)
    if out.ndim == 0:
        return complex(out)
    return out


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
