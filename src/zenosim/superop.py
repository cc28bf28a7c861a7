"""Measurement superoperators and their composition.

One finite-duration measurement maps the system density matrix linearly,
rho'_pr = sum_nm S[p,r,n,m] rho_nm.  The tensor S is built three ways:

* exact quadrature over the detector coordinate q (each node propagates the
  system with the level Hamiltonian rescaled by 1 + lambda*q and the results
  are averaged over the detector's Gaussian position distribution, by a
  given rule or by nested trapezoid rules whose node count doubles until
  the entries settle, each node propagated once),
* the closed form for an unperturbed system (V = 0), where each coherence
  picks up its free phase and a damping factor F(lambda*tau*omega),
* second-order perturbation theory in V.  For a constant V the V-linear
  and V-quadratic terms are averaged over the same trapezoid node ladder as
  the exact quadrature, each node taking the Dyson blocks of one Van Loan
  block exponential; for a time-dependent V the two time integrals of the
  Dyson expansion are extrapolated along doubling trapezoid time grids
  (`_step_ladder`).

`repeat` composes measurements back to back, which is the densest
measurement sequence the finite duration allows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
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
from .qmat import (EIG_FLOOR, _count, _refine, _romberg, _tolerance, apply_super,
                   check_density_matrix, trace_sum_rule_defect, unitary_exp_stack)

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
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise ValueError("quadrature nodes and weights must be finite")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"quadrature weights must sum to 1, got {weights.sum()!r}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.nodes.size


# Half-width of the default rule in detector widths: the Gaussian mass beyond
# it, 2e-19, is left out.
RULE_HALF_WIDTH = 9.0


def default_rule(det: DetectorModel, n: int) -> QuadratureRule:
    """Normalized n-point trapezoid rule for the position distribution of a
    Gaussian detector: nodes y_j / sigma for y_j equally spaced on [-9, 9],
    weights e^{-y_j^2 / 2}.

    The rule converges geometrically once its step resolves the oscillation
    of the integrand (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)); an odd
    n nests under the doubling n -> 2n - 1.
    """
    y = np.linspace(-RULE_HALF_WIDTH, RULE_HALF_WIDTH, _count(n, "n"))
    w = np.exp(-0.5 * y ** 2)
    return QuadratureRule(nodes=y / det.sigma, weights=w / w.sum())


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


def _node_levels(sys: SystemSpec, det: DetectorModel, nodes: np.ndarray) -> np.ndarray:
    """Diagonal (K, d) of each node's Hamiltonian without V, (1 + lambda q_k) e0 + e1,
    less its mid value: a node's common phase cancels in every tensor entry, and
    centring (e0 before it is scaled) keeps the phases, and their rounding, small."""
    e0 = sys.e0 - 0.5 * (sys.e0.max() + sys.e0.min())
    h = (1.0 + det.lam * nodes)[:, None] * e0 + sys.e1
    return h - 0.5 * (h.max(axis=1) + h.min(axis=1))[:, None]


def _propagators(sys: SystemSpec, det: DetectorModel, t0: float,
                 nodes: np.ndarray, substeps: int) -> np.ndarray:
    """Evolution operators U(tau, xi_k) for every quadrature node, each less its
    common phase (`_node_levels`), stacked (K, d, d).

    For constant V a single Hermitian exponential per node is exact; a
    time-dependent V is frozen at substep midpoints and the substep
    exponentials composed in order.
    """
    h0 = _node_levels(sys, det, nodes)[:, :, None] * np.eye(sys.dim)
    if sys.constant_v or sys.v is None:
        return unitary_exp_stack(h0 + sys.v_at(0.0), det.tau / sys.hbar)
    dt = det.tau / substeps
    u = np.broadcast_to(np.eye(sys.dim, dtype=complex), h0.shape).copy()
    for j in range(substeps):
        step = unitary_exp_stack(h0 + sys.v_at(t0 + (j + 0.5) * dt), dt / sys.hbar)
        u = step @ u
    return u


def _node_sum(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k w_k x_k[p, n] conj(y_k[r, m]) for stacks x, y of shape (K, d, d),
    as the (d^2, d^2) matrix of rows (p, n) and columns (r, m) that one
    (d^2, K) @ (K, d^2) product gives; `_prnm` makes it the tensor S[p, r, n, m]."""
    k = x.shape[0]
    return (weights[:, None] * x.reshape(k, -1)).T @ y.reshape(k, -1).conj()


def _prnm(pn_rm: np.ndarray) -> np.ndarray:
    """The tensor S[p, r, n, m] of a `_node_sum` matrix, C-contiguous."""
    d = math.isqrt(pn_rm.shape[0])
    return np.ascontiguousarray(pn_rm.reshape((d,) * 4).transpose(0, 2, 1, 3))


def _propagated_sum(sys: SystemSpec, det: DetectorModel, t0: float, nodes: np.ndarray,
                    weights: np.ndarray, substeps: int) -> np.ndarray:
    """`_node_sum` of the nodes' `_propagators` U with themselves: sum_k w_k U_k[p, n]
    conj(U_k[r, m]), linear in the weights."""
    u = _propagators(sys, det, t0, nodes, substeps)
    return _node_sum(weights, u, u)


ENTRY_TOL, MAX_NODES = 1e-8, 8193
MIN_SUBSTEPS, MAX_SUBSTEPS = 8, 1024  # of a midpoint propagation (`build_exact`)
MIN_STEPS, MAX_STEPS = 16, 4096  # of a trapezoid time grid (`_step_ladder`)
# Margin c of the first ladder level, whose step h <= 2 pi / (theta + c): the
# trapezoid rule's error is then the Gaussian's Fourier transform at c beyond the
# band of the entries, about e^{-c^2 / 2} = 2.6e-18 at c = 9.
ALIAS_MARGIN = 9.0


def _phase_scale(sys: SystemSpec, det: DetectorModel) -> float:
    return det.lam * det.tau * float(np.ptp(sys.e0) / sys.hbar) / det.sigma


def _doublings(first: int, need: float, cap: int, message: str) -> list[int]:
    """m, 2m, 4m ... <= cap from the least m = first 2^k >= need, at least two."""
    while first < need:
        first *= 2
    if 2 * first > cap:
        raise QuadratureNotConverged(message)
    return [first << k for k in range((cap // first).bit_length())]


def _node_ladder(det: DetectorModel, theta: float, build, entry_tol: float,
                 max_nodes: int, scale=None):
    """Average build over trapezoid rules of doubling node counts, n -> 2n - 1,
    until no entry moves by more than entry_tol (`_refine`, with its scale).

    The rules nest, so each node is built once: build(nodes, weights), which
    must be linear in the weights, is called on the nodes q = y / sigma that
    the level before lacks (every node of the first level, the n - 1
    odd-index nodes of each later one) with their raw weights e^{-y^2/2}, and
    must return a new value, which the ladder scales in place.  A level's
    value is N / Z, N the sum of the calls so far and Z the sum of their
    weights, which is build on the whole `default_rule(det, n)` up to
    rounding.  A ladder inside build that keeps an absolute tolerance divides
    its changes by the sum of the weights it was given.

    In the detector coordinate y = sigma q every entry is an entire function
    of exponential type theta, the caller's phase scale (`_phase_scale` for a
    tensor: lambda tau max|omega_level| / sigma), so the first level is the
    smallest 2^k + 1 >= 65 nodes whose step resolves theta with the margin
    ALIAS_MARGIN; every level after it resolves theta too, so two levels
    cannot agree by chance.

    Returns the last level's value and the ladder, a list of (nodes, max
    change against the level before).  Raises QuadratureNotConverged, carrying
    the ladder, once the next level would exceed max_nodes.
    """
    intervals = _doublings(64, RULE_HALF_WIDTH * (theta + ALIAS_MARGIN) / math.pi, max_nodes - 1,
                           f"phase scale {theta:.4g} needs more than {max_nodes} trapezoid nodes")
    before = []  # the value N / Z of the level before, and its Z

    def level(n: int):
        y = np.linspace(-RULE_HALF_WIDTH, RULE_HALF_WIDTH, n)
        if before:
            y = y[1::2]  # the nodes the level before lacks
        w = np.exp(-0.5 * y ** 2)
        # N = build + Z * (N / Z) of the level before, turned into N / Z in place: a
        # fresh d^4 array costs its page faults, and numpy divides complex N by Z as complex
        value, z = build(y / det.sigma, w), w.sum()
        if before:
            value += before[0] * before[1]
            z += before[1]
        value *= 1.0 / z
        before[:] = [value, z]
        return value

    return _refine(level, [m + 1 for m in intervals], entry_tol, "entries at {} trapezoid nodes",
                   scale)


def build_exact(sys: SystemSpec, det: DetectorModel, t0: float = 0.0,
                rule: QuadratureRule | None = None, *,
                entry_tol: float = ENTRY_TOL) -> MeasurementChannel:
    """Exact-quadrature measurement channel.

    With an explicit rule the tensor is built on that rule.  With rule=None
    it is built on `default_rule` trapezoid rules along `_node_ladder`, until
    no tensor entry moves by more than entry_tol; meta["ladder"] lists the
    (nodes, max change) steps.  Each node is propagated once: a level adds
    only the nodes the level before lacks.  A time-dependent V is propagated
    on the rule, or on each level's new nodes, with MIN_SUBSTEPS,
    2 MIN_SUBSTEPS ... <= MAX_SUBSTEPS midpoint substeps, and their average
    extrapolated to entry_tol (`_romberg`): the exponential midpoint rule is
    symmetric, so its error expands in even powers of the step (Hairer,
    Lubich & Wanner, Geometric Numerical Integration, 2nd ed. 2006,
    Sec. II.3).  meta["substep_ladder"] lists the (substeps, max change)
    steps of the rule or of the last level's new nodes, [] for a constant V.

    Raises ValueError unless entry_tol is finite and > 0,
    PropagationStepTooCoarse past MAX_SUBSTEPS and QuadratureNotConverged
    past MAX_NODES, each carrying its ladder.
    """
    if sys.dim > 64:
        raise DimensionMismatch(f"system dimension {sys.dim} exceeds the supported 64")
    entry_tol = _tolerance(entry_tol, "entry_tol")
    substep_ladder = []

    def build(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        if sys.constant_v or sys.v is None:
            return _propagated_sum(sys, det, t0, nodes, weights, 1)
        levels = _doublings(MIN_SUBSTEPS, 0.0, MAX_SUBSTEPS,
                            f"no second substep level within {MAX_SUBSTEPS}")
        total = weights.sum()  # the changes are those of the weighted average
        pn_rm, substep_ladder[:] = _romberg(
            lambda m: _propagated_sum(sys, det, t0, nodes, weights, m), levels, entry_tol,
            "entries at {} substeps", lambda _: total, PropagationStepTooCoarse)
        return pn_rm

    if rule is not None:
        pn_rm, ladder, nodes, quad_err = build(rule.nodes, rule.weights), [], len(rule), None
    else:
        pn_rm, ladder = _node_ladder(det, _phase_scale(sys, det), build, entry_tol, MAX_NODES)
        nodes, quad_err = ladder[-1]
    tensor = _prnm(pn_rm)
    err = trace_sum_rule_defect(tensor)
    return MeasurementChannel(tensor=tensor, method=EXACT_QUADRATURE, t0=t0, tau=det.tau,
                              certified_trace_err=err,
                              meta={"nodes": nodes, "quad_entry_err": quad_err, "ladder": ladder,
                                    "substeps": substep_ladder[-1][0] if substep_ladder else 1,
                                    "substep_ladder": substep_ladder})


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


def _v_samples(sys: SystemSpec, t0: float, t: np.ndarray, memo=None) -> np.ndarray:
    """V(t0 + t) stacked over t, each time sampled once per memo dict given:
    linspace levels n -> 2n - 1 share their points bitwise."""
    memo = {} if memo is None else memo
    memo.update({x: sys.v_at(t0 + x) for x in t.tolist() if x not in memo})
    return np.stack([memo[x] for x in t.tolist()])


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
        s[a, range(k), b, range(k)] += phase_out[a] * ket / (1j * hbar)
        s[range(k), b, range(k), a] -= phase_out[:, b] * bra / (1j * hbar)

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


def _dyson_blocks(phases: np.ndarray, v: np.ndarray):
    """(U0, U1, U2) of exp(-i [[H, V, 0], [0, H, V], [0, 0, H]]) for a stack of
    diagonal H = diag(phases[k]), phases of shape (K, d), and one V, both
    dimensionless (energies times tau / hbar).

    U0 = exp(-iH) is returned as its diagonal (K, d); U1 and U2 (K, d, d) are
    the terms of exp(-i(H + V)) linear and quadratic in V (Van Loan, IEEE TAC
    23, 395 (1978)).  The exponential is taken in the algebra of V-truncated
    triples (A0, A1, A2), whose product is (A0 B0, A0 B1 + A1 B0,
    A0 B2 + A1 B1 + A2 B0): a degree-14 Taylor polynomial in Horner form at
    2^-m of the generator, whose absolute row sums are then at most 1/2 (the
    first omitted term is below 3e-17), squared back m times.
    """
    k, d = phases.shape
    scale = np.abs(phases).max() + np.abs(v).sum(axis=1).max()
    m = max(0, math.ceil(math.log2(2.0 * scale))) if scale > 0 else 0
    a = (-1j / 2.0 ** m) * phases
    w = (-1j / 2.0 ** m) * v
    p0 = np.ones((k, d), dtype=complex)
    p1 = np.zeros((k, d, d), dtype=complex)
    p2 = np.zeros((k, d, d), dtype=complex)
    for j in range(14, 0, -1):  # P <- 1 + P X / j with X = (diag a, w, 0)
        p2 = ((p1.reshape(-1, d) @ w).reshape(k, d, d) + p2 * a[:, None, :]) / j
        p1 = (p0[:, :, None] * w + p1 * a[:, None, :]) / j
        p0 = 1.0 + p0 * a / j
    for _ in range(m):
        p2 = p0[:, :, None] * p2 + p1 @ p1 + p2 * p0[:, None, :]
        p1 = p0[:, :, None] * p1 + p1 * p0[:, None, :]
        p0 = p0 * p0
    return p0, p1, p2


def _second_order_on_grid(sys: SystemSpec, det: DetectorModel, t0: float,
                          steps: int) -> np.ndarray:
    """S1 + S2 with the Dyson time integrals on one trapezoid grid: single
    integrals by the trapezoid rule and the nested t2 <= t1 integrals by an
    iterated trapezoid on the same steps + 1 points."""
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
    return _dyson_second_order(phase_out, sys.omega_level(), det, sys.hbar, t, first, path)


def _step_ladder(sys: SystemSpec, det: DetectorModel, steps, energies: np.ndarray, evaluate):
    """S1 + S2 and its meta entries from evaluate(n), its value on n uniform
    time steps, extrapolated along n, 2n ... <= MAX_STEPS (`_romberg`) to
    ENTRY_TOL.  n is steps (a checked count) when given, else the least
    MIN_STEPS 2^k whose step turns the fastest phase, (max - min) tau / hbar
    of the energies of every state, or `_phase_scale` by at most 2 rad, so
    that two coarse levels cannot agree by chance."""
    if steps is not None and 2 * steps > MAX_STEPS:
        raise ValueError(f"steps = {steps} leaves no second level within {MAX_STEPS}")
    phase = max(det.tau * float(np.ptp(energies)) / sys.hbar, _phase_scale(sys, det))
    levels = _doublings(steps or MIN_STEPS, 0.0 if steps else 0.5 * phase, MAX_STEPS,
                        f"phase {phase:.4g} rad needs more than {MAX_STEPS} time steps")
    s12, ladder = _romberg(evaluate, levels, ENTRY_TOL, "Dyson terms at {} time steps")
    return s12, {"steps": ladder[-1][0], "quad_entry_err": ladder[-1][1], "ladder": ladder}


def build_second_order(sys: SystemSpec, det: DetectorModel, t0: float = 0.0,
                       steps: int | None = None) -> MeasurementChannel:
    """Channel from second-order perturbation theory in V.

    S = S0 + S1 + S2 with S0 the unperturbed closed form, S1 linear and S2
    quadratic in V; valid when the action of V over one measurement is small
    (||V|| tau / hbar << 1, not enforced here).

    A constant V (or none) takes the node path at any phase scale: S1 + S2
    is the V-linear and V-quadratic part of the exact quadrature, averaged
    over the trapezoid nodes of `_node_ladder` until no entry moves by more
    than build_exact's default entry_tol (meta: nodes, quad_entry_err,
    ladder; QuadratureNotConverged, naming the phase scale, beyond MAX_NODES
    nodes).  steps is then only validated.  A time-dependent V climbs
    `_step_ladder` from steps to the same tolerance (meta: steps,
    quad_entry_err, ladder; QuadratureNotConverged beyond MAX_STEPS,
    ValueError for a steps above MAX_STEPS / 2).

    Raises ValueError for a non-integer steps and StepCountTooSmall below 16.
    """
    if steps is not None:
        steps = _count(steps, "steps", MIN_STEPS, StepCountTooSmall)
    if sys.constant_v:
        s, eye = det.tau / sys.hbar, np.eye(sys.dim)

        def build(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
            # sum_k w_k (U0 (U1 + U2)* + U1 (U0 + U1)* + U2 U0*) over each node's
            # Dyson blocks, one (d^2, 3K) @ (3K, d^2) product
            u0, u1, u2 = _dyson_blocks(s * _node_levels(sys, det, nodes), s * sys.v_at(0.0))
            u0 = u0[:, :, None] * eye
            return _node_sum(np.tile(weights, 3), np.concatenate([u0, u1, u2]),
                             np.concatenate([u1 + u2, u0 + u1, u0]))

        pn_rm, ladder = _node_ladder(det, _phase_scale(sys, det), build, ENTRY_TOL, MAX_NODES)
        s12 = _prnm(pn_rm)
        meta = {"nodes": ladder[-1][0], "quad_entry_err": ladder[-1][1], "ladder": ladder}
    else:
        s12, meta = _step_ladder(sys, det, steps, sys.e0 + sys.e1,
                                 lambda n: _second_order_on_grid(sys, det, t0, n))
    tensor = build_unperturbed(sys, det).tensor + s12
    return MeasurementChannel(tensor=tensor, method=SECOND_ORDER, t0=t0, tau=det.tau,
                              certified_trace_err=trace_sum_rule_defect(tensor), meta=meta)


def _real_liouville(s: np.ndarray) -> np.ndarray:
    """apply_super(s, .) on y = Re rho + Im rho as one real (d², d²) matrix,
    A[(p,r),(n,m)] = (Re s_prnm + Im s_prmn + Re s_rpmn - Im s_rpnm) / 2.

    A Hermitian rho is (y + y^T)/2 + i(y - y^T)/2, and A includes the
    average with the adjoint, so it holds for any tensor.  It is summed from
    real views of s into its own storage, with no complex temporary."""
    d = s.shape[0]
    re, im = s.real, s.imag
    a = np.add(re, im.transpose(0, 1, 3, 2), out=np.empty(s.shape))
    a += re.transpose(1, 0, 3, 2)
    a -= im.transpose(1, 0, 2, 3)
    a *= 0.5
    return a.reshape(d * d, d * d)


def _hermitian(y: np.ndarray) -> np.ndarray:
    """The Hermitian matrices (..., d, d) whose Re + Im is y."""
    y_t = np.swapaxes(y, -1, -2)
    rho = np.empty(y.shape, dtype=complex)
    np.add(y, y_t, out=rho.real)
    np.subtract(y, y_t, out=rho.imag)
    rho *= 0.5
    return rho


# states a long run of one channel advances per product with the BLOCK-th power
# of its real Liouville matrix, a power of two built by squaring; a run of m
# reused steps is long when m >= LONG_RUN and 2m >= d², where streaming the
# matrix once per block repays the squarings (about 8 d⁶ flops against 2 m d⁴);
# the states are checked CHECK at a time, a multiple of BLOCK
BLOCK = 16
LONG_RUN = 128
CHECK = 1024


def _check_states(ys: np.ndarray, lo: int, hi: int, n: int, trace_tol: float) -> None:
    """Raise what checking the states ys[lo:hi] one measurement at a time
    raises first: TraceDrift when a trace leaves 1 by more than trace_tol,
    InvalidDensityMatrix when a state after a 64th or the n-th measurement
    dips below EIG_FLOOR; at the same measurement the trace comes first."""
    drift = np.abs(ys[lo:hi].trace(0, 1, 2) - 1.0)
    stop = hi if drift.max() <= trace_tol else lo + int(np.argmin(drift <= trace_tol))
    checked = [*range(lo + (63 - lo) % 64, stop, 64)]
    if lo <= n - 1 < stop and n % 64:
        checked.append(n - 1)
    if checked:
        wmin = np.linalg.eigvalsh(_hermitian(ys[checked]))[:, 0]
        bad = ~(wmin >= EIG_FLOOR)
        if bad.any():
            j = int(bad.argmax())
            raise InvalidDensityMatrix(f"smallest eigenvalue {wmin[j]:.3e} < "
                                       f"{EIG_FLOOR:.1e} at measurement {checked[j] + 1}")
    if stop < hi:
        raise TraceDrift(f"trace drifted by {drift[stop - lo]:.3e} at measurement {stop + 1}")


def repeat(channel_factory, rho0: np.ndarray, n: int,
           trace_tol: float = 1e-6) -> np.ndarray:
    """Apply N back-to-back measurements; returns the stack of states after
    each measurement, shape (N, d, d).

    channel_factory(t0) must return the channel for the measurement starting
    at t0; a time-independent system may return the same channel every call.
    A channel object returned again is taken to be unchanged, so its tensor
    must not be edited in place during the run.  The factory is called for a
    whole run of one channel object before the run is stepped.  The state is
    kept as the real matrix y = Re rho + Im rho: the first step of a run goes
    through `MeasurementChannel.apply`, the others through the channel's real
    Liouville matrix L, built once per run.  A long run takes its first BLOCK
    states one product with L at a time, and then each next BLOCK states as
    one product of the previous BLOCK with L**BLOCK.
    Raises ValueError unless trace_tol is finite and > 0, TraceDrift if any
    step's trace leaves 1 by more than trace_tol, and InvalidDensityMatrix if
    every 64th or the last state dips below EIG_FLOOR; the states are checked
    CHECK at a time, and the first failure in measurement order is raised.
    """
    n = _count(n, "n", 1)
    trace_tol = _tolerance(trace_tol, "trace_tol")
    rho = check_density_matrix(rho0)
    d = rho.shape[0]
    ys = np.empty((n, d, d))
    flat = ys.reshape(n, d * d)
    y = rho.real + rho.imag
    t0 = 0.0
    ch = channel_factory(t0)
    start = 0
    while start < n:
        end, nxt, tau = start + 1, None, ch.tau  # ch makes measurements start .. end - 1
        while end < n:
            t0 += tau
            nxt = channel_factory(t0)
            if nxt is not ch:
                break
            end += 1
        rho = ch.apply(_hermitian(y))  # Hermitian: apply_super averages with the adjoint
        np.add(rho.real, rho.imag, out=ys[start])
        reused = end - start - 1
        liouville = _real_liouville(ch.tensor) if reused else None
        power, checked = None, start  # states start .. checked - 1 passed their checks
        with np.errstate(over="ignore", invalid="ignore"):  # past a failure; the check raises
            for lo in range(start, end, BLOCK):
                hi = min(lo + BLOCK, end)
                if lo > start and reused >= LONG_RUN and 2 * reused >= d * d:
                    if power is None:
                        power, liouville = liouville.T, None  # frees L after one squaring
                        for _ in range(BLOCK.bit_length() - 1):
                            power = power @ power
                    np.matmul(flat[lo - BLOCK:hi - BLOCK], power, out=flat[lo:hi])
                else:
                    for k in range(max(lo, start + 1), hi):
                        np.matmul(liouville, flat[k - 1], out=flat[k])
                if hi == end or hi - checked == CHECK:
                    _check_states(ys, checked, hi, n, trace_tol)
                    checked = hi
        y = ys[end - 1]
        start, ch = end, nxt
    return _hermitian(ys)


_HEADER = struct.Struct("<4sBBHIIdddd")
_MAGIC = b"ZSCH"


def dump_channel(ch: MeasurementChannel, det: DetectorModel, path) -> None:
    """Write a channel snapshot: fixed header + row-major complex64 entries,
    little-endian.  Meant for regression snapshots, hence the reduced
    precision."""
    header = _HEADER.pack(_MAGIC, 1, _METHOD_TAGS[ch.method], 0, ch.dim, 0,
                          ch.tau, ch.t0, det.lam, det.sigma)
    data = header + np.ascontiguousarray(ch.tensor, dtype="<c8").tobytes()
    if isinstance(path, (str, bytes)) or hasattr(path, "__fspath__"):
        with open(path, "wb") as fh:
            fh.write(data)
    else:
        path.write(data)


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
    if tag not in _TAG_METHODS:
        raise ValueError(f"unknown method tag {tag} in snapshot header")
    tensor = body.astype(complex).reshape((dim,) * 4)
    info = {"method": _TAG_METHODS[tag], "dim": dim, "tau": tau, "t0": t0,
            "lambda": lam, "sigma": None if np.isnan(sigma) else sigma}
    return tensor, info
