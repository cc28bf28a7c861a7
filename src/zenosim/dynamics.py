"""Discrete-spectrum dynamics under repeated measurements.

Jump probabilities during a single measurement (one certified evaluator at
every measurement strength, and the strong-measurement approximation), the
inhibition time over which repeated measurements freeze the populations, the
diagonal rate equation of the strong-measurement regime, and the analytic
two-level references (free Rabi oscillation and the measured exponential
approach to equal occupation).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .decay import _REFINES, _filon_transform, _line_transform
from .errors import (NoTransitions, NotInZenoRegime, QuadratureNotConverged, ZeroFrequency,
                     ZeroStrength)
from .model import DetectorModel, SystemSpec, TwoLevelPreset, strength
from .qmat import _relative, _romberg, _tolerance
from .superop import _sized_rule, _v_integral, _v_samples

V2_REL_TOL = 1e-10  # relative tolerance of the time-dependent int |V|^2 dt
JUMP_MAX_NODES = (1 << 17) + 1  # node cap of a time-dependent jump: one amplitude per node


def _v2_integral(sys: SystemSpec, tau: float, t0: float) -> np.ndarray:
    """Matrix of int_0^tau |V(t0 + t)_jk|^2 dt (Romberg from 65 points to
    V2_REL_TOL of the largest entry for a time-dependent V)."""
    if sys.constant_v:
        return tau * np.abs(sys.v_at(0.0)) ** 2
    memo = {}

    def evaluate(nt: int) -> np.ndarray:
        t = np.linspace(0.0, tau, nt)
        v2 = np.abs(_v_samples(sys, t0, t, memo)) ** 2
        return np.trapezoid(v2, t, axis=0)

    return _romberg(evaluate, [(64 << k) + 1 for k in range(10)], V2_REL_TOL,
                    "|V|^2 integral at {} grid points", _relative)[0]


def jump_probability_general(sys: SystemSpec, det: DetectorModel,
                             i: int, alpha: int, f: int, alpha1: int,
                             t0: float = 0.0, rel_tol: float = 1e-6) -> float:
    """Probability of the jump (i, alpha) -> (f, alpha1) during one measurement.

    Double time integral of the perturbation matrix elements with the
    detector correlation kernel F(lambda * w_if * (t2 - t1)), taken in Filon
    transforms, which integrate the phase exactly at every strength and
    splitting, and certified on Romberg ladders (`qmat._romberg`: relative
    change of the Richardson-extrapolated W below rel_tol).  A constant V (or
    none) gives the golden-rule factor times the line shape, on its time grids,

    W = (2 |V_fi|^2 tau / hbar^2) Re int_0^t_cut F(lambda w_fi t) (1 - t/tau) e^{i w_fi,full t} dt;

    a time-dependent V the average over the detector coordinate, on the nodes
    (q_k, w_k) of `superop._sized_rule` for the pair's own phase scale theta
    (at most JUMP_MAX_NODES), on one time ladder from 17 points,

    W = sum_k w_k |(1/hbar) int_0^tau V_fi(t0 + t) e^{i (w_fi,full + lambda q_k w_fi) t} dt|^2,

    whose rule errs by at most M b, M = (int |V_fi| dt / hbar)^2 on the sampled times.

    Raises ValueError unless rel_tol is finite and > 0, and
    QuadratureNotConverged, carrying its ladder, when a ladder runs out, or
    with an empty ladder when the rule's bound exceeds rel_tol W.
    """
    rel_tol = _tolerance(rel_tol, "rel_tol")
    if (i, alpha) == (f, alpha1):
        raise ValueError("source and target states must differ")
    ii, ff = sys.flat_index(i, alpha), sys.flat_index(f, alpha1)
    w_fi = sys.omega_level()[ff, ii]
    if sys.constant_v:
        delta = np.array([sys.omega_full()[ff, ii]])
        factor = 2.0 * abs(sys.v_at(0.0)[ff, ii]) ** 2 * det.tau / sys.hbar ** 2
        return _romberg(lambda r: factor * _line_transform(w_fi, det, delta, r)[0].real,
                        _REFINES, rel_tol, "jump probability at time-grid refine {}", _relative)[0]
    theta = det.lam * det.tau * abs(w_fi) / det.sigma  # the phase scale of this pair
    (rule, b), memo = _sized_rule(det, theta, JUMP_MAX_NODES), {}
    deltas = sys.omega_full()[ff, ii] + det.lam * w_fi * rule.nodes

    def level(nt: int) -> float:
        t = np.linspace(0.0, det.tau, nt)
        amp = _filon_transform(_v_samples(sys, t0, t, memo)[:, ff, ii], t, deltas) / sys.hbar
        return float(rule.weights @ np.abs(amp) ** 2)

    w = _romberg(level, [(16 << k) + 1 for k in range(10)], rel_tol,
                 "jump probability at {} time points", _relative)[0]
    bound = b * (_v_integral(memo, lambda v: np.abs(v[:, ff, ii])) / sys.hbar) ** 2
    if bound > rel_tol * w:
        raise QuadratureNotConverged(f"quadrature bound {bound:.2e} on {len(rule)} trapezoid "
                                     f"nodes exceeds rel_tol {rel_tol:.1e} of W = {w:.3e}")
    return w


def jump_probability_strong(sys: SystemSpec, det: DetectorModel,
                            i: int, alpha: int, f: int, alpha1: int,
                            t0: float = 0.0) -> float:
    """Strong-measurement jump probability, proportional to 1/Lambda.

    Replaces the correlation kernel by its delta-function weight, giving
    W ~ (2 / (hbar^2 Lambda |w_if|)) int_0^tau |V(t + t0)_fi|^2 dt.
    Requires Lambda tau |w_if| >> 1; warns below 10.  Raises ZeroStrength
    at lambda = 0.
    """
    s = strength(det)
    if s.Lambda == 0.0:
        raise ZeroStrength("strong-measurement formula needs a nonzero measurement strength")
    ii = sys.flat_index(i, alpha)
    ff = sys.flat_index(f, alpha1)
    w_if = sys.omega_level()[ii, ff]
    if w_if == 0.0:
        raise ZeroFrequency("strong-measurement formula is singular at w_if = 0")
    if s.Lambda * det.tau * abs(w_if) < 10.0:
        warnings.warn("Lambda*tau*|w_if| < 10: outside the strong-measurement window",
                      NotInZenoRegime)
    integral = _v2_integral(sys, det.tau, t0)[ff, ii]
    return 2.0 * integral / (sys.hbar ** 2 * s.Lambda * abs(w_if))


@dataclass(frozen=True)
class JumpTable:
    """Jump probabilities between all coupled flattened states."""

    w: np.ndarray
    tau: float
    t0: float


def jump_table(sys: SystemSpec, det: DetectorModel, t0: float = 0.0,
               rel_tol: float = 1e-6) -> JumpTable:
    """General jump probabilities W[source, target] for every coupled pair;
    ValueError unless rel_tol is finite and > 0.  W is symmetric: for a
    Hermitian V the reversed jump's amplitude is the complex conjugate, so each
    unordered pair is evaluated once."""
    rel_tol = _tolerance(rel_tol, "rel_tol")
    states = [(n, a) for n, al in enumerate(sys.alpha_energies) for a in range(len(al))]
    w = np.zeros((sys.dim, sys.dim))
    for (js, (i, a)), (jt, (f, b)) in combinations(enumerate(states), 2):
        if i != f:
            w[js, jt] = w[jt, js] = jump_probability_general(sys, det, i, a, f, b, t0=t0,
                                                             rel_tol=rel_tol)
    return JumpTable(w=w, tau=det.tau, t0=t0)


def inhibition_time(sys: SystemSpec, det: DetectorModel) -> float:
    """Characteristic time over which measurements freeze the populations.

    t_inh = Lambda hbar^2 |w_min| / (2 |V_max|^2), with w_min the smallest
    transition frequency among pairs the perturbation actually couples and
    V_max the largest coupled matrix element.
    """
    v = np.abs(sys.v_at(0.0))
    coupled = (v > 0.0) & (sys.state_level[:, None] != sys.state_level[None, :])
    if not coupled.any():
        raise NoTransitions("V couples no pair of levels")
    w_min = np.abs(sys.omega_level())[coupled].min()
    if w_min == 0.0:
        raise ZeroFrequency("coupled pair with zero transition frequency")
    lam = strength(det).Lambda
    return float(lam * sys.hbar ** 2 * w_min / (2.0 * v[coupled].max() ** 2))


@dataclass(frozen=True)
class RateMatrix:
    """Generator of the diagonal rate equation d rho / dt = A rho / (Lambda tau)."""

    a: np.ndarray
    Lambda: float
    tau: float

    def evolve(self, p0: np.ndarray, t) -> np.ndarray:
        """Populations at time(s) t from initial populations p0."""
        w, u = np.linalg.eigh(self.a)
        t = np.asarray(t, dtype=float)
        coef = u.T @ np.asarray(p0, dtype=float)
        return np.einsum("jk,...k,k->...j", u, np.exp(np.multiply.outer(t / (self.Lambda * self.tau), w)), coef)


def rate_matrix(sys: SystemSpec, det: DetectorModel, t0: float = 0.0) -> RateMatrix:
    """Strong-measurement rate tensor restricted to the populations.

    Gain into state j from state k is 2 * int |V_jk|^2 dt / (hbar^2 |w_jk|);
    the diagonal collects the two loss sums over intermediate states, so
    columns sum to zero (probability conservation).  Raises ZeroStrength at
    lambda = 0.
    """
    lam = strength(det).Lambda
    if lam == 0.0:
        raise ZeroStrength("rate equation needs a nonzero measurement strength")
    lv = sys.state_level
    w_lvl = sys.omega_level()
    iv = _v2_integral(sys, det.tau, t0)
    coupled = iv > 0.0
    np.fill_diagonal(coupled, False)
    same_level = lv[:, None] == lv[None, :]
    if np.any(coupled & (w_lvl == 0.0) & ~same_level):
        raise ZeroFrequency("degenerate coupled pair: use the general jump integral")
    if np.any(coupled & same_level):
        raise ZeroFrequency("V couples states within one level (w = 0)")

    a = np.zeros_like(iv)
    np.divide(2.0 * iv, sys.hbar ** 2 * np.abs(w_lvl), out=a, where=coupled)
    a -= np.diag(a.sum(axis=0))
    return RateMatrix(a=a, Lambda=lam, tau=det.tau)


def rabi_unmeasured(preset: TwoLevelPreset, t):
    """Populations (rho11, rho00) of the free two-level system started in |1>."""
    omega, big = preset.omega, preset.rabi_frequency
    t = np.asarray(t, dtype=float)
    if big == 0.0:
        one = np.ones_like(t)
        return one, np.zeros_like(t)
    ratio2 = (omega / big) ** 2
    s2 = np.sin(0.5 * big * t) ** 2
    rho11 = np.cos(0.5 * big * t) ** 2 + ratio2 * s2
    rho00 = (1.0 - ratio2) * s2
    return rho11, rho00


def two_level_inhibition_time(preset: TwoLevelPreset, det: DetectorModel) -> float:
    """t_inh = (Lambda / 2 omega) |hbar omega / v|^2 for the two-level system;
    infinite for v = 0, ZeroFrequency for omega = 0 with v != 0."""
    lam = strength(det).Lambda
    v = abs(preset.v)
    if v == 0.0:
        return float("inf")
    if preset.omega == 0.0:
        raise ZeroFrequency("two-level system with zero splitting")
    try:
        return (lam / (2.0 * preset.omega)) * (preset.hbar * preset.omega / v) ** 2
    except OverflowError:  # a float ** raises where * would give inf
        return float("inf")


def measured_exponential(preset: TwoLevelPreset, det: DetectorModel, t):
    """Exponential approach of the measured populations to equal occupation.

    rho11(t) = (1 + exp(-2 t / t_inh)) / 2 from the diagonal rate equation;
    valid in the strong-measurement regime.
    """
    t = np.asarray(t, dtype=float)
    t_inh = two_level_inhibition_time(preset, det)
    if t_inh == float("inf"):
        decay = np.ones_like(t)
    elif t_inh == 0.0:
        decay = np.where(t == 0.0, 1.0, 0.0)
    else:
        decay = np.exp(-2.0 * t / t_inh)
    rho11 = 0.5 * (1.0 + decay)
    rho00 = 0.5 * (1.0 - decay)
    return rho11, rho00
