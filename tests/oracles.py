"""Reference evaluators that the tests compare the package against, the
closed forms of the strong-measurement limit pair by pair and for the
two-level system, the exact channel on a given detector rule, a spy on the
rules the package sizes, the dense atom-plus-modes system of a decaying
atom, and the fixed-grid Dyson kernel that integrates the detector
coordinate in closed form.

They use scipy's special functions and quadrature, which the package itself
does not load.
"""

import cmath
import math
from contextlib import contextmanager
from itertools import product
from unittest import mock

import numpy as np
from scipy.integrate import quad
from scipy.special import dawsn, roots_hermite, wofz

from zenosim import superop
from zenosim.decay import _filon_weight, _line_scales, line_mass, line_shape
from zenosim.dynamics import _v2_integral
from zenosim.errors import PropagationStepTooCoarse
from zenosim.model import DetectorModel, SystemSpec, TwoLevelPreset, correlation
from zenosim.qmat import _romberg
from zenosim.superop import ENTRY_TOL, _v_samples


def jump_probability_strong(sys: SystemSpec, det: DetectorModel,
                            i: int, alpha: int, f: int, alpha1: int,
                            t0: float = 0.0) -> float:
    """Strong-measurement jump probability (i, alpha) -> (f, alpha1), the
    correlation kernel replaced by its delta-function weight:
    W = (2 / (hbar^2 Lambda |w_if|)) int_0^tau |V(t + t0)_fi|^2 dt."""
    ii, ff = sys.flat_index(i, alpha), sys.flat_index(f, alpha1)
    w_if = sys.omega_level()[ii, ff]
    integral = _v2_integral(sys, det.tau, t0)[ff, ii]
    return 2.0 * integral / (sys.hbar ** 2 * det.Lambda * abs(w_if))


def two_level_inhibition_time(preset: TwoLevelPreset, det: DetectorModel) -> float:
    """t_inh = (Lambda / 2 omega) |hbar omega / v|^2 of the two-level system."""
    return (det.Lambda / (2.0 * preset.omega)) * (preset.hbar * preset.omega / abs(preset.v)) ** 2


def measured_exponential(preset: TwoLevelPreset, det: DetectorModel, t):
    """Populations (rho11, rho00) of the measured two-level system started in
    |1>, from the diagonal rate equation: rho11(t) = (1 + exp(-2 t / t_inh)) / 2."""
    decay = np.exp(-2.0 * np.asarray(t, dtype=float) / two_level_inhibition_time(preset, det))
    return 0.5 * (1.0 + decay), 0.5 * (1.0 - decay)


def gauss_hermite_rule(n: int, q_std: float) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the n-point Gauss-Hermite rule for a centered
    Gaussian q-distribution of std q_std, without the outer nodes whose
    weights underflow to zero."""
    x, w = roots_hermite(n)
    keep = w > 0.0
    return math.sqrt(2.0) * q_std * x[keep], w[keep] / w[keep].sum()


def exact_on_rule(sys: SystemSpec, det: DetectorModel, nodes: np.ndarray, weights: np.ndarray,
                  t0: float = 0.0, entry_tol: float = ENTRY_TOL) -> np.ndarray:
    """The tensor of `superop.build_exact` averaged over the given detector rule
    instead of the sized one: each node propagated once, a time-dependent V on
    the same Romberg ladder of midpoint substeps."""
    if sys.constant_v:
        pn_rm = superop._propagated_sum(sys, det, t0, nodes, weights, 1)
    else:
        levels = superop._doublings(superop.MIN_SUBSTEPS, 0.0, superop.MAX_SUBSTEPS, "")
        pn_rm, _ = _romberg(
            lambda m: superop._propagated_sum(sys, det, t0, nodes, weights, m), levels,
            entry_tol, "entries at {} substeps", error=PropagationStepTooCoarse)
    return superop._prnm(pn_rm)


def atom_plus_modes(atom: SystemSpec, mode_energies, couplings) -> SystemSpec:
    """The atom plus reservoir modes as one SystemSpec: every level has the
    vacuum (E1 = 0) and the modes as auxiliary states, and the dense V holds
    the atom's V between vacua and the couplings between a vacuum and the
    modes, <a, beta| V |b, vac> = couplings[a, beta, b] and its conjugate."""
    cpl = np.asarray(couplings, dtype=complex)
    k, n = cpl.shape[:2]
    v = np.zeros((k, n + 1, k, n + 1), dtype=complex)
    v[:, 0, :, 0] = atom.v_at(0.0)
    v[:, 1:, :, 0] = cpl
    v[:, 0, :, 1:] = cpl.conj().transpose(2, 0, 1)
    alpha = (0.0, *mode_energies)
    return SystemSpec(levels=atom.levels, alpha_energies=(alpha,) * k,
                      v=v.reshape(k * (n + 1), -1), hbar=atom.hbar)


def _half_hat(theta: np.ndarray) -> np.ndarray:
    """int_0^1 (1 - u) e^{i theta u} du for an array of theta: the Taylor
    series sum (i theta)^k / (k + 2)!, through k = 15, below |theta| = 1/2,
    else the closed form (e^{i theta} - 1 - i theta) / (i theta)^2."""
    z = 1j * theta
    small = np.abs(theta) < 0.5
    out = np.empty(theta.shape, dtype=complex)
    zb = z[~small]
    out[~small] = (np.exp(zb) - 1.0 - zb) / zb ** 2
    zs, acc = z[small], 0.0
    for k in range(15, -1, -1):
        acc = acc * zs + 1.0 / math.factorial(k + 2)
    out[small] = acc
    return out


def reservoir_fourier(res, s: float) -> complex:
    """G^(s) = int G(w) e^{i w s} dw of a Lorentzian, Gaussian or tabulated
    G: closed forms for the peaks; a table is the sum over its nodes of the
    value times the transform of the node's hat function, whose halves
    reach the neighbouring nodes and stop at the table's ends."""
    if res.kind == "lorentzian":
        return res.hbar * res.b * math.exp(-res.width * abs(s)) * cmath.exp(1j * res.omega_r * s)
    if res.kind == "gaussian_peak":
        return (res.hbar * res.b * math.exp(-0.5 * (res.width * s) ** 2)
                * cmath.exp(1j * res.omega_r * s))
    w, g = res.tab_omega, res.tab_g
    steps = np.diff(w)
    right = np.append(steps, 0.0)  # the half toward the next node
    left = np.insert(steps, 0, 0.0)
    hats = right * _half_hat(right * s) + left * _half_hat(-left * s)
    return complex(np.sum(g * np.exp(1j * w * s) * hats))


def decay_integral(res, det, omega_if: float, s0: float) -> complex:
    """J(s0) = int_0^tau (tau - s) F(lambda w_if (s0 - s)) G^(s) e^{-i w_if s} ds.

    The factor e^{i (w_R - w_if) s} is the weight of scipy's oscillatory quad
    (QAWO), cos and sin times the real and imaginary parts of the rest.  A
    flat G has G^ = 2 pi g0 delta(s), whose half at s = 0 lies inside, so
    J(s0) = pi g0 tau F(lambda w_if s0)."""
    tau = det.tau

    def f_corr(nu):
        return math.exp(-0.5 * (nu / det.sigma) ** 2)

    if res.kind == "flat":
        return complex(math.pi * res.g0 * tau * f_corr(det.lam * omega_if * s0))

    def smooth(s, part):
        v = ((tau - s) * f_corr(det.lam * omega_if * (s0 - s)) * reservoir_fourier(res, s)
             * cmath.exp(-1j * res.omega_r * s))
        return v.imag if part else v.real

    size = tau * tau * abs(reservoir_fourier(res, 0.0))

    def weighted(part, weight):
        return quad(smooth, 0.0, tau, args=(part,), weight=weight, wvar=res.omega_r - omega_if,
                    limit=2000, epsabs=1e-14 * size, epsrel=1e-12)[0]

    return complex(weighted(0, "cos") - weighted(1, "sin"), weighted(0, "sin") + weighted(1, "cos"))


def unit_sum_rule_defect(s: np.ndarray) -> float:
    """Deviation of sum_n s[p,r,n,n] from the identity (unitality)."""
    d = s.shape[0]
    return float(np.abs(np.einsum("prnn->pr", s) - np.eye(d)).max())


def filon_coeffs(theta):
    """(A(th), B(th)): the Filon weights of g at a segment's start and end, B from
    the production A by B(th) = int_0^1 u e^{i th u} du = conj A(th) e^{i th}."""
    a = _filon_weight(theta)
    return a, a.conj() * np.exp(1j * np.asarray(theta, dtype=float))


def filon_segments(g, x, deltas):
    """int g(x) e^{i delta x} dx over the increasing nodes x, with g linear on
    each segment: the exact segment integrals summed one delta at a time,
    with no phase sum and no common step."""
    h = np.diff(x)
    out = np.empty(np.size(deltas), dtype=complex)
    for k, delta in enumerate(np.atleast_1d(deltas)):
        a, b = filon_coeffs(h * delta)
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


@contextmanager
def spy_sized_rules(module):
    """Record every rule that `module` sizes (`superop._sized_rule`): yields
    the list of (nodes, weights) pairs."""
    rules = []
    sized = superop._sized_rule

    def spy(*args):
        nodes, weights, bound = sized(*args)
        rules.append((nodes, weights))
        return nodes, weights, bound

    with mock.patch.object(module, "_sized_rule", spy):
        yield rules


def trapezoid_weights(t: np.ndarray) -> np.ndarray:
    """Weights w so that w @ f(t) is the trapezoid rule on the uniform grid t."""
    h = t[1] - t[0]
    w = np.full(t.size, h)
    w[0] = w[-1] = h / 2.0
    return w


def triangle_weights(t: np.ndarray) -> np.ndarray:
    """Weights T[i, j] so that sum_ij T f(t_i, t_j) approximates the nested
    integral over 0 <= t2 <= t1 <= tau by iterated trapezoid on a shared grid:
    the outer trapezoid weight of t_i times the inner trapezoid weight of t_j
    on t[:i+1], which is h less h/2 at j = 0 and less h/2 at j = i."""
    h = t[1] - t[0]
    tri = np.tril(np.full((t.size, t.size), h))
    tri[:, 0] -= h / 2.0
    tri[np.diag_indices(t.size)] -= h / 2.0
    return trapezoid_weights(t)[:, None] * tri


def lag_sums(x_in: np.ndarray, x_out: np.ndarray, t: np.ndarray, weight: str) -> np.ndarray:
    """c[n-1+l] = sum over i - j = l of x_in[i] W[i, j] x_out[j], for lags -n < l < n.

    W is the trapezoid square w_i w_j (weight "square"), `triangle_weights`
    ("lower") or its transpose ("upper"), so that sum_l c[n-1+l] k(l h) equals
    x_in @ (W * k(t_i - t_j)) @ x_out without forming an n x n array.
    """
    if weight == "upper":
        return lag_sums(x_out, x_in, t, "lower")[::-1]
    w1 = trapezoid_weights(t)
    if weight == "square":
        return np.convolve(w1 * x_in, (w1 * x_out)[::-1])
    # lower: h at every lag l >= 0, less the column-0 and diagonal half weights
    n, h = t.size, t[1] - t[0]
    a = w1 * x_in
    c = h * np.convolve(a, x_out[::-1])
    c[:n - 1] = 0.0
    c[n - 1:] -= (h / 2.0) * x_out[0] * a
    c[n - 1] -= (h / 2.0) * (a @ x_out)
    return c


def dyson_second_order(phase_out: np.ndarray, w_lvl: np.ndarray, det: DetectorModel,
                       hbar: float, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S1 + S2 of the Dyson expansion on k states, the detector coordinate
    integrated in closed form through F.

    phase_out[p, r] is the free output phase exp(i w_rp tau), w_lvl the level
    frequencies the detector sees and x[a, b] the integrand of the jump
    a <- b on the grid t.  A path of two jumps goes through an intermediate
    state: x_in drives the jump into it at t_i and x_out the jump out of it
    at t_j; a path with a jump whose integrand is 0 throughout is skipped.

    The F kernel of a path depends on its frequency triple (w_rp, w_t1, w_t2)
    only.  When w_t1 == -w_t2 (exact for a transition and its reverse) it is a
    function of the lag t_i - t_j alone, and the path reduces to a 1-d sum
    over lags of F times the `lag_sums` of its weights; one F vector of
    length 2n - 1 serves every such path of the triple.  Any other triple
    gets one dense n x n kernel, contracted with all its paths at once.
    """
    lam, tau = det.lam, det.tau
    k = phase_out.shape[0]
    w1 = trapezoid_weights(t)
    live = x.any(axis=2)
    s = np.zeros((k,) * 4, dtype=complex)

    # first order: the jump a <- b on the ket (r = m) or on the bra (p = n)
    for a, b in product(range(k), repeat=2):
        if not live[a, b]:
            continue
        wx = w1 * x[a, b]
        ket = correlation(det, lam * (w_lvl[:, a][:, None] * tau + w_lvl[a, b] * t)) @ wx
        bra = correlation(det, lam * (w_lvl[b][:, None] * tau + w_lvl[a, b] * t)) @ wx
        s[a, range(k), b, range(k)] += phase_out[a] * ket / (1j * hbar)
        s[range(k), b, range(k), a] -= phase_out[:, b] * bra / (1j * hbar)

    # Each two-jump path adds coef * x_in @ (W * F) @ x_out to the entries of its
    # terms, W being the path's weight matrix.  Lag-only triples collect each path's lag
    # sums; dense triples collect the paths sharing W to stack them.
    lag, dense = {}, {}

    def add(into, out, weight, terms):
        if not (live[into] and live[out]):
            return
        w_t1, w_t2, x_in, x_out = w_lvl[into], w_lvl[out], x[into], x[out]
        if w_t1 == -w_t2:
            c = lag_sums(x_in, x_out, t, weight)
            for w_rp, entry, coef in terms:
                lag.setdefault((w_rp, w_t1), []).append((c, entry, coef))
            return
        for w_rp, entry, coef in terms:
            dense.setdefault((w_rp, w_t1, w_t2), {}).setdefault(weight, []).append(
                (x_in, x_out, entry, coef))

    # gain: ket jump n -> p at t1, bra jump r -> m at t2
    for p, n, m, r in product(range(k), repeat=4):
        add((p, n), (m, r), "square", [(w_lvl[r, p], (p, r, n, m), phase_out[p, r])])
    # loss along b -> q -> a: the jump into q comes at the earlier time on the
    # ket (r = m, weight "upper") and at the later time on the bra (p = n, "lower")
    for a, b, q in product(range(k), repeat=3):
        add((q, b), (a, q), "upper",
            [(w_lvl[c, a], (a, c, b, c), -phase_out[a, c]) for c in range(k)])
        add((q, b), (a, q), "lower",
            [(w_lvl[b, c], (c, b, c, a), -phase_out[c, b]) for c in range(k)])

    def accumulate(entries, coefs, vals):
        np.add.at(s, tuple(np.array(entries).T), np.array(coefs) * vals / hbar ** 2)

    if lag:
        lags = np.concatenate((-t[:0:-1], t))
        for (w_rp, w_t1), terms in lag.items():
            cs, entries, coefs = zip(*terms)
            accumulate(entries, coefs,
                       np.array(cs) @ correlation(det, lam * (w_rp * tau + w_t1 * lags)))
    if dense:
        nt = t.size
        tri = triangle_weights(t)
        weights = {"square": None, "lower": tri, "upper": tri.T}
        nu, kw = np.empty((nt, nt)), np.empty((nt, nt), dtype=complex)  # work buffers
        for (w_rp, w_t1, w_t2), by_weight in dense.items():
            np.add.outer(lam * (w_rp * tau + w_t1 * t), lam * w_t2 * t, out=nu)
            kern = correlation(det, nu)
            for weight, terms in by_weight.items():
                wt = weights[weight]
                prod = kern if wt is None else np.multiply(kern, wt, out=kw)
                x_in, x_out, entries, coefs = zip(*terms)
                x_in, x_out = np.array(x_in), np.array(x_out)
                if wt is None:
                    x_in, x_out = w1 * x_in, w1 * x_out
                accumulate(entries, coefs, np.einsum("ij,ij->i", x_in @ prod, x_out))
    return s


def dyson_second_order_per_path(phase_out, w_lvl, det, hbar, t, x):
    """Reference for `dyson_second_order`: the same Dyson terms, with the F
    kernel evaluated and contracted once per path in index order."""
    lam, tau = det.lam, det.tau
    k = phase_out.shape[0]
    w1 = trapezoid_weights(t)
    tri = triangle_weights(t)
    s = np.zeros((k,) * 4, dtype=complex)
    live = x.any(axis=2)

    def path(into, out):
        return (x[into], x[out]) if live[into] and live[out] else None

    def kernel(w_rp, w_t1, w_t2):
        return correlation(det, lam * (w_rp * tau + np.add.outer(w_t1 * t, w_t2 * t)))

    # first order: the jump a <- b on the ket (r = m) or on the bra (p = n)
    for a, b in product(range(k), repeat=2):
        if not live[a, b]:
            continue
        wx = w1 * x[a, b]
        ket = correlation(det, lam * (w_lvl[:, a][:, None] * tau + w_lvl[a, b] * t)) @ wx
        bra = correlation(det, lam * (w_lvl[b][:, None] * tau + w_lvl[a, b] * t)) @ wx
        for c in range(k):
            s[a, c, b, c] += phase_out[a, c] * ket[c] / (1j * hbar)
            s[c, b, c, a] -= phase_out[c, b] * bra[c] / (1j * hbar)

    hb2 = hbar ** 2
    # gain: ket jump n -> p at t1, bra jump r -> m at t2
    for p, n, m, r in product(range(k), repeat=4):
        jumps = path((p, n), (m, r))
        if jumps is None:
            continue
        x1, x2 = jumps
        kern = kernel(w_lvl[r, p], w_lvl[p, n], w_lvl[m, r])
        s[p, r, n, m] += phase_out[p, r] * ((w1 * x1) @ kern @ (w1 * x2)) / hb2
    # loss along b -> q -> a, indexed [t_in, t_out]: the jump into q comes at
    # the earlier time t2 on the ket (r = m) and at the later t1 on the bra (p = n)
    for a, b, q in product(range(k), repeat=3):
        jumps = path((q, b), (a, q))
        if jumps is None:
            continue
        x_in, x_out = jumps
        for c in range(k):
            val = x_in @ (tri.T * kernel(w_lvl[c, a], w_lvl[q, b], w_lvl[a, q])) @ x_out
            s[a, c, b, c] -= phase_out[a, c] * val / hb2
            val = x_in @ (tri * kernel(w_lvl[b, c], w_lvl[q, b], w_lvl[a, q])) @ x_out
            s[c, b, c, a] -= phase_out[c, b] * val / hb2
    return s


def second_order_on_grid(sys: SystemSpec, det: DetectorModel, t0: float, steps: int,
                         kernel=dyson_second_order) -> np.ndarray:
    """S1 + S2 with the Dyson time integrals on one trapezoid grid: single
    integrals by the trapezoid rule and the nested t2 <= t1 integrals by an
    iterated trapezoid on the same steps + 1 points, through kernel."""
    t = np.linspace(0.0, det.tau, steps + 1)
    w_full = sys.omega_full()
    # x[a, b] = V(t)[a, b] e^{i w_ab t}, contiguous in t
    x = (np.ascontiguousarray(np.moveaxis(_v_samples(sys, t0, t), 0, -1))
         * np.exp(1j * w_full[:, :, None] * t))
    phase_out = np.exp(1j * w_full.T * det.tau)  # phase_out[p, r] = exp(i w_full[r,p] tau)
    return kernel(phase_out, sys.omega_level(), det, sys.hbar, t, x)
