"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from zenosim.model import SystemSpec, TwoLevelPreset, gaussian_detector
from zenosim.dynamics import measured_exponential, two_level_inhibition_time
from zenosim.decay import (
    ReservoirSpectrum,
    build_decay_system,
    decay_rate,
    effective_channel,
    golden_rule,
    population_decay_rate,
    zeno_limit_rate,
)
from zenosim.qmat import check_density_matrix, trace_sum_rule_defect
from zenosim.superop import build_exact, build_second_order, repeat

from oracles import line_mass_by_sampling, unit_sum_rule_defect

HBAR = 1.0
C_GAUSS = math.sqrt(math.pi / 2.0)

FIG1_PRESET = TwoLevelPreset(omega=2.0, v=1.0, hbar=1.0)
FIG1_SYS = FIG1_PRESET.to_system()
FIG1_DET = gaussian_detector(sigma=1.0, lam=50.0, tau=0.1)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


def test_criterion_1_trace_sum_rules():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_rule = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        levels = np.sort(rng.uniform(-2.0, 2.0, dim))
        levels += 0.05 * np.arange(dim)  # keep the levels non-degenerate
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        v = 0.25 * (m + m.conj().T)
        sys = SystemSpec(levels=tuple(levels), v=v)
        det = gaussian_detector(sigma=float(rng.uniform(0.7, 1.5)),
                                lam=float(rng.uniform(2.0, 30.0)),
                                tau=float(rng.uniform(0.05, 0.15)))
        ch = build_exact(sys, det)
        worst_rule = max(worst_rule, trace_sum_rule_defect(ch.tensor),
                         unit_sum_rule_defect(ch.tensor))
        for _ in range(3):
            out = ch.apply(random_density(rng, dim))
            check_density_matrix(out, trace_tol=1e-8, eig_floor=-1e-9)
    elapsed = time.time() - start
    ok = worst_rule < 1e-8 and elapsed < 60.0
    report(1, ok, f"worst sum-rule defect {worst_rule:.2e} (tol 1e-8), "
                  f"300 output states valid, {elapsed:.1f}s (< 60s)")


def test_criterion_2_perturbative_oracle():
    start = time.time()
    ratios = []
    cases = [
        (TwoLevelPreset(omega=2.0, v=1.0).to_system(),
         TwoLevelPreset(omega=2.0, v=0.1).to_system(), FIG1_DET),
    ]
    rng = np.random.default_rng(7)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    v3 = 0.5 * (m + m.conj().T)
    v3 *= 1.0 / np.abs(v3).max()
    det3 = gaussian_detector(sigma=1.0, lam=20.0, tau=0.1)
    cases.append((SystemSpec(levels=(-1.0, 0.5, 2.0), v=v3),
                  SystemSpec(levels=(-1.0, 0.5, 2.0), v=0.1 * v3), det3))
    for sys_full, sys_tenth, det in cases:
        err_full = np.abs(build_exact(sys_full, det).tensor
                          - build_second_order(sys_full, det, steps=512).tensor).max()
        err_tenth = np.abs(build_exact(sys_tenth, det).tensor
                           - build_second_order(sys_tenth, det, steps=512).tensor).max()
        ratios.append(err_full / err_tenth)
    elapsed = time.time() - start
    ok = all(1000.0 / 3.0 <= r <= 3000.0 for r in ratios) and elapsed < 60.0
    report(2, ok, "cubic residual scaling, error ratios "
                  + ", ".join(f"{r:.0f}" for r in ratios)
                  + f" (want within factor 3 of 1000), {elapsed:.1f}s (< 60s)")


def test_criterion_3_fig1_reproduction():
    start = time.time()
    t_inh = two_level_inhibition_time(FIG1_PRESET, FIG1_DET)
    ch = build_exact(FIG1_SYS, FIG1_DET)
    n = int(math.ceil(10.0 * t_inh / FIG1_DET.tau))
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    traj = repeat(lambda t0: ch, rho0, n)
    times = FIG1_DET.tau * np.arange(1, n + 1)
    rho11 = traj[:, 1, 1].real
    approx = measured_exponential(FIG1_PRESET, FIG1_DET, times)[0]
    mask = times <= t_inh
    band = float(np.abs(rho11[mask] - approx[mask]).max())
    final = abs(rho11[-1] - 0.5)
    elapsed = time.time() - start
    ok = band < 0.05 and final < 0.02 and elapsed < 30.0
    report(3, ok, f"|rho11 - exponential| <= {band:.4f} up to t_inh (tol 0.05), "
                  f"|rho11(10 t_inh) - 1/2| = {final:.2e} (tol 0.02), "
                  f"{elapsed:.1f}s (< 30s)")


def test_criterion_4_fig3_ordering():
    start = time.time()
    crossings = {}
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    for lam, tau in ((50.0, 0.1), (5.0, 0.2)):
        det = gaussian_detector(sigma=1.0, lam=lam, tau=tau)
        ch = build_exact(FIG1_SYS, det)
        traj = repeat(lambda t0: ch, rho0, int(round(30.0 / tau)))
        below = np.nonzero(traj[:, 1, 1].real < 0.75)[0]
        crossings[lam] = (below[0] + 1) * tau
    elapsed = time.time() - start
    ok = crossings[50.0] > crossings[5.0] and elapsed < 30.0
    report(4, ok, f"rho11 crosses 0.75 at t = {crossings[50.0]:.2f} (lam 50, tau 0.1) "
                  f"vs t = {crossings[5.0]:.2f} (lam 5, tau 0.2), {elapsed:.1f}s (< 30s)")


def test_criterion_5_fig2_suppression():
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    maxima = {}
    for lam, tau in ((50.0, 0.1), (500.0, 0.01)):
        det = gaussian_detector(sigma=1.0, lam=lam, tau=tau)
        ch = build_exact(FIG1_SYS, det)
        traj = repeat(lambda t0: ch, rho0, int(round(60.0 / tau)))
        maxima[lam] = float(np.abs(traj[:, 1, 0]).max())
    ratio = maxima[50.0] / maxima[500.0]
    ok = 5.0 <= ratio <= 20.0
    report(5, ok, f"max|rho10| drops {ratio:.2f}x for lambda 50 -> 500 "
                  f"(want 10x within factor 2)")


def test_criterion_6_line_shape_normalization():
    worst = 0.0
    for lam_big in (5.0, 20.0, 50.0):
        for tau in (0.1, 0.25, 0.5):
            for w_if in (1.0, 2.0, 4.0):
                det = gaussian_detector(sigma=1.0, lam=lam_big * C_GAUSS, tau=tau)
                worst = max(worst, abs(line_mass_by_sampling(w_if, det, mass_tol=1e-4) - 1.0))
    ok = worst < 1e-4
    report(6, ok, f"27 (Lambda, tau, w_if) cases, max |integral P - 1| = "
                  f"{worst:.2e} (tol 1e-4)")


def test_criterion_7_golden_rule_recovery():
    res = ReservoirSpectrum.flat(0.001)
    det = gaussian_detector(sigma=1.0, lam=2.0, tau=1.0)
    r_overlap = decay_rate(res, 2.0, det)
    r_golden = golden_rule(res.g0 / HBAR, 1.0, 2.0, HBAR)
    rel_identity = abs(r_overlap - r_golden) / r_golden
    dsys = build_decay_system(1.0, -1.0, res, det, n_modes=600)
    ch = effective_channel(dsys, det)
    rate = population_decay_rate(ch, excited=dsys.excited)
    rel_channel = abs(rate - r_golden) / r_golden
    ok = rel_identity < 1e-6 and rel_channel < 0.02
    report(7, ok, f"flat-reservoir overlap rate off by {rel_identity:.1e} "
                  f"(tol 1e-6); effective-channel rate off by {rel_channel:.4f} "
                  f"(tol 0.02)")


def test_criterion_8_zeno_limit():
    res = ReservoirSpectrum.gaussian_peak(b=1e-3, omega_r=2.0, w=0.5)
    rates = []
    worst = 0.0
    for lam_big in (20.0, 40.0, 80.0, 160.0, 320.0):
        det = gaussian_detector(sigma=1.0, lam=lam_big * C_GAUSS, tau=1.0)
        assert lam_big * HBAR * 2.0 >= 20.0 * res.width
        r = decay_rate(res, 2.0, det)
        rz = zeno_limit_rate(res, 2.0, det)
        worst = max(worst, abs(r - rz) / rz)
        rates.append(r)
    monotone = all(b <= a * (1.0 + 1e-9) for a, b in zip(rates, rates[1:]))
    ok = worst < 0.05 and monotone
    report(8, ok, f"max deviation from 2B/(Lambda hbar w) = {worst:.4f} (tol 0.05); "
                  f"R(Lambda) non-increasing: {monotone}")


def test_criterion_9_anti_zeno():
    res = ReservoirSpectrum.lorentzian(b=1e-4, omega_r=51.0, gamma=10.0)
    r_golden = 2.0 * math.pi * res.g(1.0) / HBAR ** 2
    rates = []
    for lam_big in np.geomspace(1.5, 400.0, 13):
        det = gaussian_detector(sigma=1.0, lam=float(lam_big) * C_GAUSS, tau=2.0)
        rates.append(decay_rate(res, 1.0, det))
    k = int(np.argmax(rates))
    interior = 0 < k < len(rates) - 1
    boost = rates[k] / r_golden
    ok = interior and boost >= 1.5
    report(9, ok, f"reservoir detuned by 5 widths: R max / R_golden = {boost:.2f} "
                  f"at ladder point {k} (interior: {interior}; want >= 1.5)")


def test_criterion_10_linear_level_count():
    per_level = {}
    for k in (2, 4, 8):
        levels = (0.0,) + (2.0,) * k
        v = np.zeros((k + 1, k + 1), dtype=complex)
        v[0, 1:] = v[1:, 0] = 0.3
        sys = SystemSpec(levels=levels, v=v)
        det = gaussian_detector(sigma=1.0, lam=30.0, tau=0.1)
        ch = build_exact(sys, det)
        rho = np.zeros((k + 1, k + 1), dtype=complex)
        rho[0, 0] = 1.0
        per_level[k] = (1.0 - ch.apply(rho)[0, 0].real) / k
    spread = max(per_level.values()) / min(per_level.values())
    ok = spread < 1.05
    report(10, ok, f"total jump probability per level constant to "
                   f"{(spread - 1.0) * 100.0:.2f}% across K in (2, 4, 8) (tol 5%)")
