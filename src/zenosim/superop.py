"""Measurement superoperators and their composition.

One finite-duration measurement maps the system density matrix linearly,
rho'_pr = sum_nm S[p,r,n,m] rho_nm.  The tensor S is built three ways:

* exact quadrature over the detector coordinate q (each node propagates the
  system with the level Hamiltonian rescaled by 1 + lambda*q and the results
  are averaged over the detector position distribution),
* the closed form for an unperturbed system (V = 0), where each coherence
  picks up its free phase and a damping factor F(lambda*tau*omega),
* second-order perturbation theory in V, with the two time integrals of the
  Dyson expansion evaluated on a trapezoid grid.

`repeat` composes measurements back to back, which is the densest
measurement sequence the finite duration allows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DimensionMismatch,
    InvalidDensityMatrix,
    PropagationStepTooCoarse,
    QuadratureNotConverged,
    StepCountTooSmall,
    TraceDrift,
)
from .model import DetectorModel, SystemSpec, correlation
from .qmat import (EIG_FLOOR, apply_super, check_density_matrix, trace_sum_rule_defect,
                   unitary_exp_stack)

EXACT_QUADRATURE = "exact_quadrature"
UNPERTURBED = "unperturbed"
SECOND_ORDER = "second_order"

_METHOD_TAGS = {EXACT_QUADRATURE: 0, UNPERTURBED: 1, SECOND_ORDER: 2}
_TAG_METHODS = {v: k for k, v in _METHOD_TAGS.items()}


@dataclass(frozen=True)
class QuadratureRule:
    """Discretization of the detector position distribution |<q|Phi>|^2."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise DimensionMismatch("nodes and weights must be matching 1-d arrays")
        if nodes.size < 8:
            raise ValueError("quadrature rule needs at least 8 nodes")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"quadrature weights must sum to 1, got {weights.sum()!r}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.nodes.size


def _hermite_recurrence(x: np.ndarray, n: int):
    """(p_n(x) / p_{n-1}(x), log|p_{n-1}(x)|) for the Hermite polynomials
    orthonormal under e^{-x^2}, by the ratio form of their recurrence,
    r_{k+1} = x sqrt(2 / (k+1)) - sqrt(k / (k+1)) / r_k, which cannot overflow;
    the product of the ratios is renormalized every 64 steps."""
    a = np.sqrt(2.0 / np.arange(1, n + 1)).tolist()
    b = np.sqrt(np.arange(n) / np.arange(1, n + 1)).tolist()
    r = a[0] * x
    prod = np.ones_like(x)
    exponent = np.zeros_like(x)
    ax = np.empty_like(x)
    for k in range(1, n):
        prod *= r
        np.multiply(x, a[k], out=ax)
        np.divide(b[k], r, out=r)
        np.subtract(ax, r, out=r)
        if k % 64 == 0:
            prod, e = np.frexp(prod)
            exponent += e
    log_p = np.log(np.abs(prod)) + math.log(2.0) * exponent - 0.25 * math.log(math.pi)
    return r, log_p


@lru_cache(maxsize=64)
def _hermite_nodes(n: int):
    """Nodes and weights of the n-point Gauss-Hermite rule (weight e^{-x^2}),
    ascending, without the outer nodes whose weights underflow to zero.

    The positive roots of p_n start at Tricomi's approximations (Townsend,
    Trogdon & Olver, IMA J. Numer. Anal. 36, 337 (2016), lemma 3.1) and are
    polished by Newton's method, p_n' = sqrt(2n) p_{n-1}, all at once; the
    weights 1 / (n p_{n-1}^2) are formed from log|p_{n-1}|.  numpy's hermgauss
    overflows to NaN at 1024 nodes.
    """
    if n < 1:
        raise ValueError(f"a Gauss-Hermite rule needs n >= 1 nodes, got {n}")
    m = n // 2
    nu = 4.0 * m + 2.0 * (n % 2) + 1.0
    c = (4.0 * m - 4.0 * np.arange(1, m + 1) + 3.0) * math.pi / nu
    theta = np.full(m, 0.5 * math.pi)
    for _ in range(6):  # theta - sin(theta) = c
        theta -= (theta - np.sin(theta) - c) / (1.0 - np.cos(theta))
    s = np.cos(0.5 * theta) ** 2
    x2 = nu * s - (5.0 / (4.0 * (1.0 - s) ** 2) - 1.0 / (1.0 - s) - 0.25) / (3.0 * nu)
    # w < 3 e^{-x^2} everywhere: roots beyond x^2 = 760 have no representable weight
    x = np.sqrt(x2[x2 < 760.0])
    step = math.sqrt(2.0 * n)
    for _ in range(10):
        with np.errstate(divide="ignore", invalid="ignore"):
            r, log_p = _hermite_recurrence(x, n)
        dx = r / step
        x = x - dx
        # first order in dx: at a root, d log(w) / dx = -4x
        log_w = -math.log(n) - 2.0 * log_p + 4.0 * x * dx
        if np.abs(dx).max(initial=0.0) <= 1e-15 * max(1.0, x.max(initial=0.0)):
            break
    else:
        raise QuadratureNotConverged(f"Gauss-Hermite roots for n = {n} did not converge")
    w = np.exp(log_w)
    x, w = x[w > 0.0], w[w > 0.0]
    if n % 2:  # the zero node: p_{2j}(0)^2 = pi^{-1/2} prod_{i <= j} (2i - 1) / (2i)
        i = np.arange(1, m + 1)
        log_p2 = np.log((2 * i - 1) / (2 * i)).sum() - 0.5 * math.log(math.pi)
        w0 = math.exp(-math.log(n) - log_p2)
        return np.concatenate([-x[::-1], [0.0], x]), np.concatenate([w[::-1], [w0], w])
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def gauss_hermite_rule(n: int, q_std: float) -> QuadratureRule:
    """Gauss-Hermite rule for a centered Gaussian q-distribution of std q_std.

    Outer nodes whose weights underflow to zero (w ~ exp(-x^2) for large
    rules) are left out; they carry no probability mass."""
    x, w = _hermite_nodes(int(n))
    nodes = np.sqrt(2.0) * q_std * x
    weights = w / w.sum()
    return QuadratureRule(nodes=nodes, weights=weights)


def default_rule(det: DetectorModel, n: int) -> QuadratureRule:
    """Quadrature rule implied by the detector kind (Gaussian only)."""
    if det.kind != "gaussian":
        raise ValueError(
            "no default position distribution for a custom detector; supply a rule")
    return gauss_hermite_rule(n, 1.0 / det.sigma)


@dataclass(frozen=True)
class MeasurementChannel:
    """One measurement as a linear map on density matrices."""

    tensor: np.ndarray
    method: str
    t0: float
    tau: float
    certified_trace_err: float
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def dim(self) -> int:
        return self.tensor.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return apply_super(self.tensor, rho)


def _propagators(sys: SystemSpec, det: DetectorModel, t0: float,
                 rule: QuadratureRule, substeps: int) -> np.ndarray:
    """Evolution operators U(tau, xi_k) for every quadrature node, stacked (K, d, d).

    For constant V a single Hermitian exponential per node is exact; a
    time-dependent V is frozen at substep midpoints and the substep
    exponentials composed in order.
    """
    xi = 1.0 + det.lam * rule.nodes
    h0 = np.diag(sys.e0).astype(complex)
    h1 = np.diag(sys.e1).astype(complex)
    d = sys.dim
    if sys.constant_v or sys.v is None:
        v = sys.v_at(0.0)
        hs = xi[:, None, None] * h0 + (h1 + v)
        return unitary_exp_stack(hs, det.tau / sys.hbar)
    dt = det.tau / substeps
    u = np.broadcast_to(np.eye(d, dtype=complex), (xi.size, d, d)).copy()
    for j in range(substeps):
        t_mid = t0 + (j + 0.5) * dt
        v = sys.v_at(t_mid)
        hs = xi[:, None, None] * h0 + (h1 + v)
        step = unitary_exp_stack(hs, dt / sys.hbar)
        u = np.einsum("kab,kbc->kac", step, u)
    return u


def _tensor_from_rule(sys: SystemSpec, det: DetectorModel, t0: float,
                      rule: QuadratureRule, substeps: int) -> np.ndarray:
    u = _propagators(sys, det, t0, rule, substeps).reshape(len(rule), -1)
    # sum_k w_k u_k[p, n] conj(u_k[r, m]) as one (d^2, K) @ (K, d^2) product
    pn_rm = (rule.weights[:, None] * u).T @ u.conj()
    return np.ascontiguousarray(pn_rm.reshape((sys.dim,) * 4).transpose(0, 2, 1, 3))


def build_exact(sys: SystemSpec, det: DetectorModel, t0: float = 0.0,
                rule: QuadratureRule | None = None, *,
                entry_tol: float = 1e-8,
                min_nodes: int = 64, max_nodes: int = 8192,
                min_substeps: int = 8, max_substeps: int = 1024) -> MeasurementChannel:
    """Exact-quadrature measurement channel.

    With an explicit rule the tensor is built on that rule (still refining
    the time substeps for a time-dependent V).  With rule=None the detector
    must be Gaussian and the Gauss-Hermite node count is doubled until no
    tensor entry moves by more than entry_tol.

    Raises PropagationStepTooCoarse if substep doubling does not stabilize
    and QuadratureNotConverged if the node ladder hits max_nodes.
    """
    if sys.dim > 64:
        raise DimensionMismatch(f"system dimension {sys.dim} exceeds the supported 64")

    def build_at(r: QuadratureRule, m: int):
        """Tensor on rule r and its substep count, once m and 2m substeps agree."""
        if sys.constant_v or sys.v is None:
            return _tensor_from_rule(sys, det, t0, r, 1), 1
        t = _tensor_from_rule(sys, det, t0, r, m)
        while True:
            t2 = _tensor_from_rule(sys, det, t0, r, 2 * m)
            if np.abs(t2 - t).max() <= entry_tol:
                return t2, 2 * m
            m *= 2
            t = t2
            if 2 * m > max_substeps:
                raise PropagationStepTooCoarse(
                    f"tensor entries still moving by > {entry_tol:.1e} at {m} substeps")

    if rule is not None:
        tensor, m = build_at(rule, min_substeps)
        quad_err = None
        nodes = len(rule)
    else:
        n = min_nodes
        tensor, m = build_at(default_rule(det, n), min_substeps)
        while True:
            # start at the check the previous node level passed, m / 2 against m
            tensor2, m = build_at(default_rule(det, 2 * n), m // 2)
            quad_err = float(np.abs(tensor2 - tensor).max())
            tensor = tensor2
            n *= 2
            if quad_err <= entry_tol:
                nodes = n
                break
            if 2 * n > max_nodes:
                raise QuadratureNotConverged(
                    f"entries still moving by {quad_err:.2e} at {n} Gauss-Hermite nodes")
    err = trace_sum_rule_defect(tensor)
    return MeasurementChannel(tensor=tensor, method=EXACT_QUADRATURE, t0=t0, tau=det.tau,
                              certified_trace_err=err,
                              meta={"nodes": nodes, "substeps": m, "quad_entry_err": quad_err})


def build_unperturbed(sys: SystemSpec, det: DetectorModel) -> MeasurementChannel:
    """Closed-form channel of the unperturbed measurement (V ignored).

    Populations are untouched (F(0) = 1); the coherence between flattened
    states p and r is multiplied by exp(i omega_rp tau) F(lambda tau w_rp),
    with the F argument using level frequencies only, since the detector
    couples to the level Hamiltonian.
    """
    tau = det.tau
    w_full = sys.omega_full()
    w_lvl = sys.omega_level()
    factor = np.exp(1j * tau * w_full.T) * correlation(det, det.lam * tau * w_lvl.T)
    d = sys.dim
    eye = np.eye(d)
    tensor = np.einsum("pr,pn,rm->prnm", factor, eye, eye)
    err = trace_sum_rule_defect(tensor)
    return MeasurementChannel(tensor=tensor, method=UNPERTURBED, t0=0.0, tau=tau,
                              certified_trace_err=err)


def _v_samples(sys: SystemSpec, t0: float, t: np.ndarray) -> np.ndarray:
    if sys.constant_v or sys.v is None:
        return np.broadcast_to(sys.v_at(0.0), (t.size, sys.dim, sys.dim))
    return np.stack([sys.v_at(t0 + ti) for ti in t])


def _trapezoid_weights(t: np.ndarray) -> np.ndarray:
    """Weights w so that w @ f(t) is the trapezoid rule on the uniform grid t."""
    h = t[1] - t[0]
    w = np.full(t.size, h)
    w[0] = w[-1] = h / 2.0
    return w


def _triangle_weights(t: np.ndarray) -> np.ndarray:
    """Weights T[i, j] so that sum_ij T f(t_i, t_j) approximates the nested
    integral over 0 <= t2 <= t1 <= tau by iterated trapezoid on a shared grid:
    the outer trapezoid weight of t_i times the inner trapezoid weight of t_j
    on t[:i+1], which is h less h/2 at j = 0 and less h/2 at j = i."""
    h = t[1] - t[0]
    tri = np.tril(np.full((t.size, t.size), h))
    tri[:, 0] -= h / 2.0
    tri[np.diag_indices(t.size)] -= h / 2.0
    return _trapezoid_weights(t)[:, None] * tri


def _lag_sums(x_in: np.ndarray, x_out: np.ndarray, t: np.ndarray, weight: str) -> np.ndarray:
    """c[n-1+l] = sum over i - j = l of x_in[i] W[i, j] x_out[j], for lags -n < l < n.

    W is the trapezoid square w_i w_j (weight "square"), `_triangle_weights`
    ("lower") or its transpose ("upper"), so that sum_l c[n-1+l] k(l h) equals
    x_in @ (W * k(t_i - t_j)) @ x_out without forming an n x n array.
    """
    if weight == "upper":
        return _lag_sums(x_out, x_in, t, "lower")[::-1]
    w1 = _trapezoid_weights(t)
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


def _dyson_second_order(phase_out: np.ndarray, w_lvl: np.ndarray, det: DetectorModel,
                        hbar: float, t: np.ndarray, first, path) -> np.ndarray:
    """S1 + S2 of the Dyson expansion on k outer states.

    phase_out[p, r] is the free output phase exp(i w_rp tau) and w_lvl the
    level frequencies the detector sees.  first(a, b) returns the first-order
    integrand of the jump a <- b on the grid t, or None when it vanishes.
    path(into, out) returns (x_in, x_out, g) for a two-jump path through
    intermediate states: x_in drives the jump into them at t_i, x_out the
    jump out of them at t_j, and g the lag vector (length 2n - 1) that
    correlates the intermediate states outside the k, g[n-1+l] at the lag
    t_i - t_j = l h (None when there are none); it returns None when the path
    carries no amplitude.

    The F kernel of a path depends on its frequency triple (w_rp, w_t1, w_t2)
    only.  When w_t1 == -w_t2 (exact for a transition and its reverse) it is a
    function of the lag alone, and the path reduces to a 1-d sum over lags of
    F times g times the `_lag_sums` of its weights; one F vector of length
    2n - 1 serves every such path of the triple.  Any other triple gets one
    dense n x n kernel, contracted with all its paths at once.
    """
    lam, tau = det.lam, det.tau
    k = phase_out.shape[0]
    w1 = _trapezoid_weights(t)
    s = np.zeros((k,) * 4, dtype=complex)

    # first order: the jump a <- b on the ket (r = m) or on the bra (p = n)
    for a, b in product(range(k), repeat=2):
        x = first(a, b)
        if x is None:
            continue
        wx = w1 * x
        ket = correlation(det, lam * (w_lvl[:, a][:, None] * tau + w_lvl[a, b] * t)) @ wx
        bra = correlation(det, lam * (w_lvl[b][:, None] * tau + w_lvl[a, b] * t)) @ wx
        for c in range(k):
            s[a, c, b, c] += phase_out[a, c] * ket[c] / (1j * hbar)
            s[c, b, c, a] -= phase_out[c, b] * bra[c] / (1j * hbar)

    # Each two-jump path adds coef * x_in @ (W * g * F) @ x_out to the entries of its
    # terms, W being the path's weight matrix.  Lag-only triples collect each path's lag
    # sums times g; dense triples collect paths sharing W and g (by identity) to stack them.
    lag, dense = {}, {}

    def add(w_t1, w_t2, weight, terms, x_in, x_out, g):
        if w_t1 == -w_t2:
            c = _lag_sums(x_in, x_out, t, weight)
            c = c if g is None else c * g
            for w_rp, entry, coef in terms:
                lag.setdefault((w_rp, w_t1), []).append((c, entry, coef))
            return
        for w_rp, entry, coef in terms:
            by_weight = dense.setdefault((w_rp, w_t1, w_t2), {})
            by_weight.setdefault((weight, id(g)), (weight, g, []))[2].append(
                (x_in, x_out, entry, coef))

    # gain: ket jump n -> p at t1, bra jump r -> m at t2
    for p, n, m, r in product(range(k), repeat=4):
        jumps = path((p, n), (m, r))
        if jumps is not None:
            add(w_lvl[p, n], w_lvl[m, r], "square",
                [(w_lvl[r, p], (p, r, n, m), phase_out[p, r])], *jumps)
    # loss along b -> q -> a: the jump into q comes at the earlier time on the
    # ket (r = m, weight "upper") and at the later time on the bra (p = n, "lower")
    for a, b, q in product(range(k), repeat=3):
        jumps = path((q, b), (a, q))
        if jumps is None:
            continue
        add(w_lvl[q, b], w_lvl[a, q], "upper",
            [(w_lvl[c, a], (a, c, b, c), -phase_out[a, c]) for c in range(k)], *jumps)
        add(w_lvl[q, b], w_lvl[a, q], "lower",
            [(w_lvl[b, c], (c, b, c, a), -phase_out[c, b]) for c in range(k)], *jumps)

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
        tri = _triangle_weights(t)
        weights = {"square": None, "lower": tri, "upper": tri.T}
        nu, kw = np.empty((nt, nt)), np.empty((nt, nt), dtype=complex)  # work buffers
        for (w_rp, w_t1, w_t2), by_weight in dense.items():
            np.add.outer(lam * (w_rp * tau + w_t1 * t), lam * w_t2 * t, out=nu)
            kern = correlation(det, nu)
            for weight, g, terms in by_weight.values():
                wt = weights[weight]
                prod = kern if wt is None else np.multiply(kern, wt, out=kw)
                if g is not None:  # the Toeplitz view g[n-1+i-j]
                    prod = np.multiply(prod, sliding_window_view(g, nt)[:, ::-1], out=kw)
                x_in, x_out, entries, coefs = zip(*terms)
                x_in, x_out = np.array(x_in), np.array(x_out)
                if wt is None:
                    x_in, x_out = w1 * x_in, w1 * x_out
                accumulate(entries, coefs, np.einsum("ij,ij->i", x_in @ prod, x_out))
    return s


def build_second_order(sys: SystemSpec, det: DetectorModel, t0: float = 0.0,
                       steps: int = 256) -> MeasurementChannel:
    """Channel from second-order perturbation theory in V.

    S = S0 + S1 + S2 with S0 the unperturbed closed form, S1 linear and S2
    quadratic in V; valid when the action of V over one measurement is small
    (||V|| tau / hbar << 1, not enforced here).  Single time integrals use
    the trapezoid rule and the nested t2 <= t1 integrals an iterated
    trapezoid on the same `steps`-point grid.
    """
    if steps < 16:
        raise StepCountTooSmall(f"steps = {steps} < 16")
    t = np.linspace(0.0, det.tau, steps + 1)
    w_full = sys.omega_full()
    # x[a, b] = V(t)[a, b] e^{i w_ab t}, contiguous in t
    x = (np.ascontiguousarray(np.moveaxis(_v_samples(sys, t0, t), 0, -1))
         * np.exp(1j * w_full[:, :, None] * t))
    live = x.any(axis=2)

    def first(a, b):
        return x[a, b] if live[a, b] else None

    def path(into, out):
        return (x[into], x[out], None) if live[into] and live[out] else None

    phase_out = np.exp(1j * w_full.T * det.tau)  # phase_out[p, r] = exp(i w_full[r,p] tau)
    tensor = build_unperturbed(sys, det).tensor + _dyson_second_order(
        phase_out, sys.omega_level(), det, sys.hbar, t, first, path)
    err = trace_sum_rule_defect(tensor)
    return MeasurementChannel(tensor=tensor, method=SECOND_ORDER, t0=t0, tau=det.tau,
                              certified_trace_err=err, meta={"steps": steps})


def repeat(channel_factory, rho0: np.ndarray, n: int,
           trace_tol: float = 1e-6) -> np.ndarray:
    """Apply N back-to-back measurements; returns the stack of states after
    each measurement, shape (N, d, d).

    channel_factory(t0) must return the channel for the measurement starting
    at t0; a time-independent system may return the same channel every call.
    Raises TraceDrift if any step's trace leaves 1 by more than trace_tol, and
    InvalidDensityMatrix if every 64th or the last state dips below EIG_FLOOR.
    """
    if n < 1:
        raise ValueError("need at least one measurement")
    rho = check_density_matrix(rho0)
    out = np.empty((n,) + rho.shape, dtype=complex)
    t0 = 0.0
    for k in range(n):
        ch = channel_factory(t0)
        rho = ch.apply(rho)  # Hermitian: apply_super averages with the adjoint
        drift = abs(rho.trace() - 1.0)
        if drift > trace_tol:
            raise TraceDrift(f"trace drifted by {drift:.3e} at measurement {k + 1}")
        if ((k + 1) % 64 == 0 or k == n - 1) and (wmin := np.linalg.eigvalsh(rho)[0]) < EIG_FLOOR:
            raise InvalidDensityMatrix(
                f"smallest eigenvalue {wmin:.3e} < {EIG_FLOOR:.1e} at measurement {k + 1}")
        out[k] = rho
        t0 += ch.tau
    return out


_HEADER = struct.Struct("<4sBBHIIdddd")
_MAGIC = b"ZSCH"


def dump_channel(ch: MeasurementChannel, det: DetectorModel, path) -> None:
    """Write a channel snapshot: fixed header + row-major complex64 entries,
    little-endian.  Meant for regression snapshots, hence the reduced
    precision."""
    sigma = det.sigma if det.sigma is not None else float("nan")
    header = _HEADER.pack(_MAGIC, 1, _METHOD_TAGS[ch.method], 0, ch.dim, 0,
                          ch.tau, ch.t0, det.lam, sigma)
    entries = np.ascontiguousarray(ch.tensor, dtype=np.complex64)
    if isinstance(path, (str, bytes)) or hasattr(path, "__fspath__"):
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(entries.astype("<c8").tobytes())
    else:
        path.write(header)
        path.write(entries.astype("<c8").tobytes())


def load_channel(path):
    """Read a channel snapshot written by dump_channel.

    Returns (tensor, info) where info carries the header fields."""
    if isinstance(path, (str, bytes)) or hasattr(path, "__fspath__"):
        with open(path, "rb") as fh:
            raw = fh.read()
    else:
        raw = path.read()
    if len(raw) < _HEADER.size or raw[:4] != _MAGIC:
        raise ValueError("not a channel snapshot")
    magic, version, tag, _, dim, _, tau, t0, lam, sigma = _HEADER.unpack_from(raw)
    if version != 1:
        raise ValueError(f"unsupported snapshot version {version}")
    body = np.frombuffer(raw, dtype="<c8", offset=_HEADER.size)
    if body.size != dim ** 4:
        raise ValueError("snapshot body size does not match the header dimension")
    tensor = body.astype(complex).reshape((dim,) * 4)
    info = {"method": _TAG_METHODS[tag], "dim": dim, "tau": tau, "t0": t0,
            "lambda": lam, "sigma": None if np.isnan(sigma) else sigma}
    return tensor, info
