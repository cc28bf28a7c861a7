"""Measurement superoperators and their composition.

One finite-duration measurement maps the system density matrix linearly,
rho'_pr = sum_nm S[p,r,n,m] rho_nm.  The tensor S is built three ways:

* exact quadrature over the detector coordinate q (each node propagates the
  system with the level Hamiltonian rescaled by 1 + lambda*q and the results
  are averaged over the detector's Gaussian position distribution, by a
  given rule or by one trapezoid rule sized in advance from the phase scale,
  whose error bound the channel reports),
* the closed form for an unperturbed system (V = 0), where each coherence
  picks up its free phase and a damping factor F(lambda*tau*omega),
* second-order perturbation theory in V: the V-linear and V-quadratic
  terms averaged over the same sized rule, each node taking the Dyson
  blocks of one Van Loan block exponential for a constant V, or those of
  its interaction-picture V(t) on doubling trapezoid time grids.

`repeat` composes measurements back to back, which is the densest
measurement sequence the finite duration allows.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDensityMatrix,
    PropagationStepTooCoarse,
    QuadratureNotConverged,
    TraceDrift,
)
from .model import DetectorModel, SystemSpec, correlation
from .qmat import (EIG_FLOOR, _count, _relative, _romberg, _tolerance, apply_super,
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


# Half-width c of the default rule in detector widths, whose Gaussian mass
# beyond it, 2e-19, is left out, and the margin by which a sized rule's step
# resolves the phase scale (`_sized_rule`)
RULE_HALF_WIDTH = 9.0


def default_rule(det: DetectorModel, n: int) -> QuadratureRule:
    """Normalized n-point trapezoid rule for the position distribution of a
    Gaussian detector: nodes y_j / sigma for y_j equally spaced on [-9, 9],
    weights e^{-y_j^2 / 2}; `_sized_rule` takes n from the phase scale.
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
    if sys.constant_v:
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
MIN_STEPS, MAX_STEPS = 16, 8192  # of a Dyson time grid (`build_second_order`)


def _phase_scale(sys: SystemSpec, det: DetectorModel) -> float:
    return det.lam * det.tau * float(np.ptp(sys.e0) / sys.hbar) / det.sigma


def _doublings(first: int, need: float, cap: int, message: str) -> list[int]:
    """m, 2m, 4m ... <= cap from the least m = first 2^k >= need, at least two."""
    while first < need:
        first *= 2
    if 2 * first > cap:
        raise QuadratureNotConverged(message)
    return [first << k for k in range((cap // first).bit_length())]


def _sized_rule(det: DetectorModel, theta: float,
                max_nodes: int) -> tuple[QuadratureRule, float]:
    """`default_rule` of n = ceil(c (theta + c) / pi) + 1 nodes, c =
    RULE_HALF_WIDTH, whose step h resolves theta, the caller's phase scale,
    with the margin c (2 pi / h >= theta + c), and its error bound b per unit
    of M (Trefethen & Weideman, SIAM Rev. 56, 385 (2014), Sec. 5).

    In the detector coordinate y = sigma q every entry f the rule averages is
    entire of exponential type theta (`_phase_scale` for a tensor) and at most
    M on the real line.  Shifting the contour bounds the Gaussian-weighted
    Fourier transform of f - I, I its average, by 2M e^{-(omega - theta)^2 / 2}:
    the rule aliases by at most 2Ma, a = 2 e^{-c^2 / 2} / (1 - e^{-3 c^2 / 2})
    over every alias, drops at most 2Mt, t = erfc(c / sqrt 2), beyond c, and
    its weights sum to at least 1 - a - t, so it errs by 2 (a + t) / (1 - a - t)
    per unit, 1.1e-17 at c = 9.  To that b adds eps (theta + n) for rounding,
    an estimate rather than a proof: the node phases, about theta |y|, are
    rounded to eps of their size, and the sum of n node values to about n eps;
    between the rule and that of 2n - 1 nodes rounding stayed below a quarter
    of it (d <= 6, theta <= 2700).  Returns (rule, b); raises
    QuadratureNotConverged, with an empty ladder, when n > max_nodes.
    """
    c = RULE_HALF_WIDTH
    n = c * (theta + c) / math.pi + 1.0
    if not n <= max_nodes:  # also for an infinite or NaN theta
        raise QuadratureNotConverged(
            f"phase scale {theta:.4g} needs more than {max_nodes} trapezoid nodes")
    n = math.ceil(n)
    a = -2.0 * math.exp(-0.5 * c * c) / math.expm1(-1.5 * c * c)
    t = math.erfc(c / math.sqrt(2.0))
    rounding = float(np.finfo(float).eps) * (theta + n)
    return default_rule(det, n), 2.0 * (a + t) / (1.0 - a - t) + rounding


def _v_integral(memo: dict, norm) -> float:
    """Trapezoid integral of norm(V) over the times a `_v_samples` memo holds,
    norm taking a stack of V and giving one number per time."""
    t = sorted(memo)
    return float(np.trapezoid(norm(np.stack([memo[x] for x in t])), t))


def build_exact(sys: SystemSpec, det: DetectorModel, t0: float = 0.0,
                rule: QuadratureRule | None = None, *,
                entry_tol: float = ENTRY_TOL) -> MeasurementChannel:
    """Exact-quadrature measurement channel.

    With an explicit rule the tensor is built on that rule, else on
    `_sized_rule` (at most MAX_NODES nodes), whose entries, of modulus at most
    1, err by at most meta["quad_bound"] = b, None on a given rule.  Each node
    is propagated once; a time-dependent V with MIN_SUBSTEPS,
    2 MIN_SUBSTEPS ... <= MAX_SUBSTEPS midpoint substeps, and their average
    extrapolated to entry_tol (`_romberg`): the exponential midpoint rule is
    symmetric, so its error expands in even powers of the step (Hairer,
    Lubich & Wanner, Geometric Numerical Integration, 2nd ed. 2006,
    Sec. II.3).  meta["substep_ladder"] lists the (substeps, max change)
    steps, [] for a constant V.

    Raises ValueError unless entry_tol is finite and > 0, and
    PropagationStepTooCoarse, carrying its ladder, past MAX_SUBSTEPS.
    """
    if sys.dim > 64:
        raise DimensionMismatch(f"system dimension {sys.dim} exceeds the supported 64")
    entry_tol = _tolerance(entry_tol, "entry_tol")
    bound = None
    if rule is None:
        rule, bound = _sized_rule(det, _phase_scale(sys, det), MAX_NODES)
    substep_ladder = []
    if sys.constant_v:
        pn_rm = _propagated_sum(sys, det, t0, rule.nodes, rule.weights, 1)
    else:
        levels = _doublings(MIN_SUBSTEPS, 0.0, MAX_SUBSTEPS,
                            f"no second substep level within {MAX_SUBSTEPS}")
        pn_rm, substep_ladder = _romberg(
            lambda m: _propagated_sum(sys, det, t0, rule.nodes, rule.weights, m), levels,
            entry_tol, "entries at {} substeps", error=PropagationStepTooCoarse)
    tensor = _prnm(pn_rm)
    err = trace_sum_rule_defect(tensor)
    return MeasurementChannel(tensor=tensor, method=EXACT_QUADRATURE, t0=t0, tau=det.tau,
                              certified_trace_err=err,
                              meta={"nodes": len(rule), "quad_bound": bound,
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


def _dyson_sum(weights: np.ndarray, u0: np.ndarray, u1: np.ndarray,
               u2: np.ndarray) -> np.ndarray:
    """sum_k w_k (U0 (U1 + U2)* + U1 (U0 + U1)* + U2 U0*) as one `_node_sum`
    (d^2, 3K) @ (3K, d^2) product, U0 given as its diagonals (K, d)."""
    u0 = u0[:, :, None] * np.eye(u0.shape[1])
    return _node_sum(np.tile(weights, 3), np.concatenate([u0, u1, u2]),
                     np.concatenate([u1 + u2, u0 + u1, u0]))


TIME_BLOCK = 16  # times whose products V_I D `_dyson_sum_on_grid` sums at once


def _dyson_sum_on_grid(sys: SystemSpec, det: DetectorModel, t0: float, nodes: np.ndarray,
                       weights: np.ndarray, steps: int, memo: dict) -> np.ndarray:
    """`_dyson_sum` of each node's Dyson terms on the times t_j = j h, j = 0 ..
    steps, of [0, tau], V sampled through `_v_samples`' memo.

    With E the node's energies (`_node_levels`) and V_I(t) = e^{iEt/hbar}
    V(t0 + t) e^{-iEt/hbar}: U0 = e^{-iE tau/hbar}, U1 = -(i/hbar) U0 C(tau) and
    U2 = -(1/hbar^2) U0 sum_j w_j V_I(t_j) C(t_j), w the trapezoid weights and
    C(t_j) the trapezoid integral of V_I up to t_j, which is h (D_j - V_I(0) / 2)
    for D_j = V_I(t_0) + ... + V_I(t_{j-1}) + V_I(t_j) / 2.  Each block of
    TIME_BLOCK times carries its phases e^{i(E_a - E_b) t_j/hbar} from the
    first by one step's phases, and sums its products V_I(t_j) D_j as one
    (d, TIME_BLOCK d) @ (TIME_BLOCK d, d) product per node.
    """
    e = _node_levels(sys, det, nodes) / sys.hbar
    k, d = e.shape
    t = np.linspace(0.0, det.tau, steps + 1)
    v = _v_samples(sys, t0, t, memo) / sys.hbar
    h, pairs = t[1], e[:, :, None] - e[:, None, :]
    step = np.exp(1j * h * pairs)
    # made once: fresh blocks would cost their page faults, a quarter of the time
    vis, ds = (np.empty((TIME_BLOCK, k, d, d), dtype=complex) for _ in range(2))
    left = np.empty((k, d, TIME_BLOCK, d), dtype=complex)
    right = np.empty((k, TIME_BLOCK, d, d), dtype=complex)
    acc, s2 = np.zeros((k, d, d), dtype=complex), np.zeros((k, d, d), dtype=complex)
    for j in range(steps + 1):
        i = j % TIME_BLOCK
        phase = phase * step if i else np.exp(1j * t[j] * pairs)
        vi = np.multiply(phase, v[j], out=vis[i])
        np.add(acc, np.multiply(vi, 0.5, out=ds[i]), out=ds[i])
        acc += vi
        if j in (0, steps):
            vi *= 0.5  # the end weight h / 2 of the outer trapezoid
        if i == TIME_BLOCK - 1 or j == steps:
            vis[i + 1:] = ds[i + 1:] = 0.0
            np.copyto(left, vis.transpose(1, 2, 0, 3))
            np.copyto(right, ds.transpose(1, 0, 2, 3))
            s2 += left.reshape(k, d, -1) @ right.reshape(k, -1, d)
    s1 = h * (ds[i] - 0.5 * v[0])  # C(tau); V_I(0) = V(t0)
    s2 = h * (h * s2 - 0.5 * (s1 @ v[0]))
    u0 = np.exp(-1j * det.tau * e)
    return _dyson_sum(weights, u0, -1j * u0[:, :, None] * s1, -u0[:, :, None] * s2)


def build_second_order(sys: SystemSpec, det: DetectorModel, t0: float = 0.0,
                       steps: int | None = None) -> MeasurementChannel:
    """Channel from second-order perturbation theory in V.

    S = S0 + S1 + S2 with S0 the unperturbed closed form, S1 linear and S2
    quadratic in V; valid when the action of V over one measurement is small
    (||V|| tau / hbar << 1, not enforced here).  S1 + S2 is the V-linear and
    V-quadratic part of the exact quadrature, averaged over `_sized_rule`
    (QuadratureNotConverged, naming the phase scale, beyond MAX_NODES nodes).
    Its entries are at most M = 2x + 2x^2, from ||U1|| <= x and ||U2|| <= x^2 / 2
    for x = int ||V(t)||_2 dt / hbar (on the sampled times for a time-dependent
    V), so the rule errs by at most meta["quad_bound"] = M b.
    Each node takes its Dyson blocks from one block exponential for a constant
    V (`_dyson_blocks`), and for a time-dependent V on n, 2n ... <= MAX_STEPS
    time steps (`_dyson_sum_on_grid`), extrapolated until the entries move by
    at most ENTRY_TOL of their largest (`_romberg`; meta: steps and
    step_ladder; QuadratureNotConverged past MAX_STEPS).  n is the least
    MIN_STEPS 2^k whose step turns the fastest phase, (max - min) tau / hbar
    of the state energies or `_phase_scale`, by at most 2 rad.  steps is
    ignored with a DeprecationWarning.
    """
    if steps is not None:
        warnings.warn("steps is ignored: the time steps climb their own ladder",
                      DeprecationWarning, stacklevel=2)
    (rule, b), time_ladder = _sized_rule(det, _phase_scale(sys, det), MAX_NODES), {}
    if sys.constant_v:
        s = det.tau / sys.hbar
        pn_rm = _dyson_sum(rule.weights, *_dyson_blocks(s * _node_levels(sys, det, rule.nodes),
                                                        s * sys.v_at(0.0)))
        x = s * float(np.linalg.norm(sys.v_at(0.0), 2))
    else:
        phase = max(det.tau * float(np.ptp(sys.e0 + sys.e1)) / sys.hbar, _phase_scale(sys, det))
        levels = _doublings(MIN_STEPS, 0.5 * phase, MAX_STEPS,
                            f"phase {phase:.4g} rad needs more than {MAX_STEPS} time steps")
        memo = {}
        pn_rm, step_ladder = _romberg(
            lambda n: _dyson_sum_on_grid(sys, det, t0, rule.nodes, rule.weights, n, memo),
            levels, ENTRY_TOL, "Dyson terms at {} time steps", _relative)
        x = _v_integral(memo, lambda v: np.abs(np.linalg.eigvalsh(v)).max(axis=1)) / sys.hbar
        time_ladder = {"steps": step_ladder[-1][0], "step_ladder": step_ladder}
    meta = {"nodes": len(rule), "quad_bound": 2.0 * x * (1.0 + x) * b, **time_ladder}
    tensor = build_unperturbed(sys, det).tensor + _prnm(pn_rm)
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
