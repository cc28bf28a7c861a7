"""Measurement superoperator construction and composition."""

import dataclasses
import io
import math
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenosim import decay, superop
from zenosim.decay import (DecaySystem, ReservoirSpectrum, build_decay_system,
                           effective_channel, measured_decay_channel)
from zenosim.errors import (
    DimensionMismatch,
    InvalidDensityMatrix,
    NumericalConvergenceError,
    PropagationStepTooCoarse,
    QuadratureNotConverged,
    StepCountTooSmall,
    TraceDrift,
)
from zenosim.model import (
    SystemSpec,
    TwoLevelPreset,
    correlation,
    gaussian_detector,
)
from zenosim.qmat import (apply_super, check_density_matrix, trace_sum_rule_defect, unitary_exp,
                          unitary_exp_stack)
from zenosim.superop import (
    EXACT_QUADRATURE,
    MeasurementChannel,
    QuadratureRule,
    _trapezoid_weights,
    _triangle_weights,
    build_exact,
    build_second_order,
    build_unperturbed,
    default_rule,
    dump_channel,
    load_channel,
    repeat,
)

from oracles import gauss_hermite_rule, spy_node_ladder, unit_sum_rule_defect

FIG1_DET = gaussian_detector(sigma=1.0, lam=50.0, tau=0.1)
FIG1_SYS = TwoLevelPreset(omega=2.0, v=1.0).to_system()


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


def _dyson_second_order_per_path(phase_out, w_lvl, det, hbar, t, first, path):
    """Reference for superop._dyson_second_order: the same Dyson terms, with
    the F kernel evaluated and contracted once per path in index order."""
    lam, tau = det.lam, det.tau
    k = phase_out.shape[0]
    w1 = _trapezoid_weights(t)
    tri = _triangle_weights(t)
    s = np.zeros((k,) * 4, dtype=complex)
    lag_index = t.size - 1 + np.subtract.outer(np.arange(t.size), np.arange(t.size))

    def two_jumps(into, out):
        # the path's lag vector g, as the n x n Toeplitz matrix g[n-1+i-j]
        jumps = path(into, out)
        if jumps is None or jumps[2] is None:
            return jumps
        return jumps[0], jumps[1], jumps[2][lag_index]

    def kernel(w_rp, w_t1, w_t2):
        return correlation(det, lam * (w_rp * tau + np.add.outer(w_t1 * t, w_t2 * t)))

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

    hb2 = hbar ** 2
    # gain: ket jump n -> p at t1, bra jump r -> m at t2
    for p, n, m, r in product(range(k), repeat=4):
        jumps = two_jumps((p, n), (m, r))
        if jumps is None:
            continue
        x1, x2, g = jumps
        kern = kernel(w_lvl[r, p], w_lvl[p, n], w_lvl[m, r])
        if g is not None:
            kern *= g
        s[p, r, n, m] += phase_out[p, r] * ((w1 * x1) @ kern @ (w1 * x2)) / hb2
    # loss along b -> q -> a, indexed [t_in, t_out]: the jump into q comes at
    # the earlier time t2 on the ket (r = m) and at the later t1 on the bra (p = n)
    for a, b, q in product(range(k), repeat=3):
        jumps = two_jumps((q, b), (a, q))
        if jumps is None:
            continue
        x_in, x_out, g = jumps
        ket = tri.T if g is None else tri.T * g
        bra = tri if g is None else tri * g
        for c in range(k):
            val = x_in @ (ket * kernel(w_lvl[c, a], w_lvl[q, b], w_lvl[a, q])) @ x_out
            s[a, c, b, c] -= phase_out[a, c] * val / hb2
            val = x_in @ (bra * kernel(w_lvl[b, c], w_lvl[q, b], w_lvl[a, q])) @ x_out
            s[c, b, c, a] -= phase_out[c, b] * val / hb2
    return s


def _per_path(build, *args, **kwargs):
    """build(*args, **kwargs) with the reference Dyson kernel."""
    with mock.patch.object(superop, "_dyson_second_order", _dyson_second_order_per_path), \
            mock.patch.object(decay, "_dyson_second_order", _dyson_second_order_per_path):
        return build(*args, **kwargs)


def random_v(rng, dim, scale):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    v = 0.5 * (m + m.conj().T)
    np.fill_diagonal(v, 0.0)
    return scale * v / np.abs(v).max()


def channels_small_system():
    """The small system of the `channels` benchmark job (phase scale 10) with
    V(t) = cos(3t) V, and its detector."""
    v = random_v(np.random.default_rng(1), 6, 0.2)
    sys = SystemSpec(levels=tuple(np.linspace(-2.5, 2.5, 6)), v=lambda t: np.cos(3.0 * t) * v)
    return sys, gaussian_detector(sigma=1.0, lam=20.0, tau=0.1)


def random_kraus_channel(rng, dim, n_kraus, tau=0.1):
    """A random trace-preserving, completely positive channel from an isometry."""
    a = rng.normal(size=(n_kraus * dim, dim)) + 1j * rng.normal(size=(n_kraus * dim, dim))
    kraus = np.linalg.qr(a)[0].reshape(n_kraus, dim, dim)
    tensor = np.einsum("ipn,irm->prnm", kraus, kraus.conj())
    return MeasurementChannel(tensor=tensor, method=EXACT_QUADRATURE, t0=0.0, tau=tau,
                              certified_trace_err=trace_sum_rule_defect(tensor))


def identity_channel(dim, tau=0.1):
    eye = np.eye(dim)
    tensor = np.einsum("pn,rm->prnm", eye, eye).astype(complex)
    return MeasurementChannel(tensor=tensor, method=EXACT_QUADRATURE, t0=0.0,
                              tau=tau, certified_trace_err=0.0)


def leak_channel(leak, gain=1.0):
    """gain times a step moving `leak` of the trace from level 1 to level 0 of
    a two-level state: trace preserving at gain 1, not positive for any leak > 0."""
    eye = np.eye(2)
    tensor = gain * (np.einsum("pn,rm->prnm", eye, eye)
                     + leak * np.einsum("pr,nm->prnm", np.diag([1.0, -1.0]), eye))
    tensor = tensor.astype(complex)
    return MeasurementChannel(tensor=tensor, method=EXACT_QUADRATURE, t0=0.0, tau=0.1,
                              certified_trace_err=trace_sum_rule_defect(tensor))


def _at_blocking_threshold(test):
    """Examples of every dimension 2-6 whose run of one channel reuses it
    superop.LONG_RUN - 1, LONG_RUN, LONG_RUN + 1 and LONG_RUN + 4 BLOCK ± 1
    times: just short of, at and just past the blocked path."""
    for dim in range(2, 7):
        for extra in (-1, 0, 1, 4 * superop.BLOCK - 1, 4 * superop.BLOCK + 1):
            test = example(dim=dim, n_kraus=2, n=superop.LONG_RUN + 1 + extra,
                           seed=dim + extra)(test)
    return test


class TestQuadratureRule:
    def test_default_rule_normalized(self):
        rule = default_rule(gaussian_detector(sigma=2.0, lam=1.0, tau=0.1), 129)
        assert abs(rule.weights.sum() - 1.0) < 1e-12
        assert np.all(rule.weights > 0)
        # second moment of the node distribution reproduces the q variance 1 / sigma^2
        assert np.sum(rule.weights * rule.nodes ** 2) == pytest.approx(0.25, rel=1e-14)

    def test_requires_eight_nodes(self):
        with pytest.raises(ValueError):
            default_rule(FIG1_DET, 4)
        with pytest.raises(ValueError):
            default_rule(FIG1_DET, 0)

    @pytest.mark.parametrize("n", [65, 129, 1025, 8193])
    def test_default_rule_error_within_alias_margin(self, n):
        # a step h integrates e^{i nu y} against the Gaussian to about
        # e^{-(2 pi / h - nu)^2 / 2}: rounding at the margin the ladder starts with
        rule = default_rule(gaussian_detector(sigma=1.0, lam=1.0, tau=0.1), n)
        band = 2.0 * np.pi * (n - 1) / (2.0 * superop.RULE_HALF_WIDTH)
        for nu in np.linspace(0.0, band - superop.ALIAS_MARGIN, 7):
            got = rule.weights @ np.exp(1j * nu * rule.nodes)
            assert abs(got - np.exp(-nu ** 2 / 2.0)) <= 1e-15 * n ** 0.5
        nu = band - 4.0
        assert abs(rule.weights @ np.exp(1j * nu * rule.nodes) - np.exp(-nu ** 2 / 2.0)) > 1e-5

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.arange(8.0), weights=np.full(8, 0.2))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_width(self, sigma):
        # the default rule's width 1 / sigma is checked where the detector is made
        with pytest.raises(ValueError):
            default_rule(gaussian_detector(sigma=sigma, lam=1.0, tau=0.1), 65)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_nodes(self, bad):
        nodes = np.arange(8.0)
        nodes[3] = bad
        with pytest.raises(ValueError):
            QuadratureRule(nodes=nodes, weights=np.full(8, 0.125))


class TestBuildExact:
    def test_free_evolution_channel(self):
        # lambda = 0, V = 0: pure conjugation with exp(-i H0 tau / hbar)
        sys = TwoLevelPreset(omega=2.0, v=0.0).to_system()
        det = gaussian_detector(sigma=1.0, lam=0.0, tau=0.3)
        ch = build_exact(sys, det)
        u = unitary_exp(np.diag(sys.e0).astype(complex), det.tau / sys.hbar)
        rng = np.random.default_rng(2)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(ch.apply(rho), u @ rho @ u.conj().T, atol=1e-12)
        # diagonal states are fixed points
        np.testing.assert_allclose(ch.apply(np.diag([0.3, 0.7]).astype(complex)),
                                   np.diag([0.3, 0.7]), atol=1e-12)

    def test_matches_closed_form_for_unperturbed_system(self):
        sys = TwoLevelPreset(omega=2.0, v=0.0).to_system()
        ch = build_exact(sys, FIG1_DET)
        closed = build_unperturbed(sys, FIG1_DET)
        assert np.abs(ch.tensor - closed.tensor).max() < 1e-10

    def test_phase_convention_with_auxiliary_energies(self):
        # closed form vs quadrature including the auxiliary-level phases
        sys = SystemSpec(levels=(0.0, 2.0), alpha_energies=((0.0, 0.7), (0.0, 1.1)),
                         v=np.zeros((4, 4)))
        det = gaussian_detector(sigma=1.0, lam=8.0, tau=0.25)
        ch = build_exact(sys, det)
        closed = build_unperturbed(sys, det)
        assert np.abs(ch.tensor - closed.tensor).max() < 1e-10

    def test_off_diagonal_damping_equals_f(self):
        sys = TwoLevelPreset(omega=2.0, v=0.0).to_system()
        ch = build_exact(sys, FIG1_DET)
        rho = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
        out = ch.apply(rho)
        f = abs(correlation(FIG1_DET, FIG1_DET.lam * FIG1_DET.tau * 2.0))
        assert abs(out[1, 0]) == pytest.approx(0.4 * f, abs=1e-12)

    def test_sum_rules(self):
        ch = build_exact(FIG1_SYS, FIG1_DET)
        assert trace_sum_rule_defect(ch.tensor) < 1e-8
        assert unit_sum_rule_defect(ch.tensor) < 1e-8
        assert ch.certified_trace_err < 1e-8

    def test_quadrature_doubling_stable_at_certified_nodes(self):
        ch = build_exact(FIG1_SYS, FIG1_DET)
        n = ch.meta["nodes"]
        t1 = build_exact(FIG1_SYS, FIG1_DET, rule=default_rule(FIG1_DET, n)).tensor
        t2 = build_exact(FIG1_SYS, FIG1_DET, rule=default_rule(FIG1_DET, 2 * n)).tensor
        assert np.abs(t2 - t1).max() <= 1e-8

    @pytest.mark.parametrize("entry_tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_entry_tol(self, entry_tol):
        with mock.patch.object(superop, "_propagators") as prop, pytest.raises(ValueError):
            build_exact(FIG1_SYS, FIG1_DET, entry_tol=entry_tol)
        prop.assert_not_called()

    def test_records_node_ladder(self):
        # the first level is the smallest 2^k + 1 >= 65 nodes whose step resolves the
        # phase scale lambda tau omega / sigma with the alias margin
        for lam, first in [(50.0, 65), (500.0, 513), (1500.0, 1025)]:
            det = gaussian_detector(sigma=1.0, lam=lam, tau=0.1)
            ch = build_exact(FIG1_SYS, det)
            ladder = ch.meta["ladder"]
            assert [n for n, _ in ladder] == [(first - 1) * 2 ** i + 1
                                              for i in range(1, len(ladder) + 1)]
            assert ladder[-1] == (ch.meta["nodes"], ch.meta["quad_entry_err"])
            assert all(change > 1e-8 for _, change in ladder[:-1]) and ladder[-1][1] <= 1e-8
        fixed = build_exact(FIG1_SYS, FIG1_DET, rule=default_rule(FIG1_DET, 65))
        assert fixed.meta["ladder"] == []

    @pytest.mark.parametrize("builder", [build_exact, build_second_order])
    def test_every_node_level_is_its_whole_rule(self, builder):
        # each level after the first builds only its new nodes; a tolerance below
        # rounding keeps the ladder climbing through 65, 129 and 257 nodes
        rng = np.random.default_rng(12)
        sys = SystemSpec(levels=(-1.5, -0.2, 0.4, 1.8), v=random_v(rng, 4, 0.3))
        det = gaussian_detector(sigma=1.0, lam=20.0, tau=0.1)
        with mock.patch.object(superop, "MAX_NODES", 257), \
                mock.patch.object(superop, "ENTRY_TOL", 1e-30), \
                spy_node_ladder(superop) as seen, pytest.raises(QuadratureNotConverged):
            builder(sys, det, **({"entry_tol": 1e-30} if builder is build_exact else {}))
        build = seen.pop("build")
        assert sorted(seen) == [65, 129, 257]
        for n, value in seen.items():
            rule = default_rule(det, n)
            whole = (build_exact(sys, det, rule=rule).tensor if builder is build_exact
                     else superop._prnm(build(rule.nodes, rule.weights)))
            assert np.abs(superop._prnm(value) - whole).max() <= 1e-14

    @pytest.mark.parametrize("lam", [50.0, 500.0])
    def test_each_node_is_propagated_once(self, lam):
        with mock.patch.object(superop, "unitary_exp_stack", wraps=unitary_exp_stack) as stack:
            ch = build_exact(FIG1_SYS, gaussian_detector(sigma=1.0, lam=lam, tau=0.1))
        assert len(ch.meta["ladder"]) == 1
        assert sum(call.args[0].shape[0] for call in stack.call_args_list) == ch.meta["nodes"]

    def test_not_converged_carries_ladder(self):
        # every level resolves the phase scale, so only a tolerance below rounding
        # keeps the ladder climbing
        det = gaussian_detector(sigma=1.0, lam=500.0, tau=0.1)
        with mock.patch.object(superop, "MAX_NODES", 2049), \
                pytest.raises(QuadratureNotConverged, match="trapezoid nodes") as info:
            build_exact(FIG1_SYS, det, entry_tol=1e-30)
        ladder = info.value.ladder
        assert [n for n, _ in ladder] == [1025, 2049]
        assert all(change > 1e-30 for _, change in ladder)
        assert f"2049 trapezoid nodes still moving by {ladder[-1][1]:.2e}" in str(info.value)
        with mock.patch.object(superop, "MAX_NODES", 1024), \
                pytest.raises(QuadratureNotConverged, match="more than 1024") as info:
            build_exact(FIG1_SYS, det)
        assert info.value.ladder == []

    @settings(max_examples=16, deadline=None, derandomize=True, database=None)
    @given(shape=st.sampled_from([(2, False), (3, False), (4, False), (2, True)]),
           lam=st.sampled_from([5.0, 20.0]), theta=st.floats(0.5, 60.0),
           seed=st.integers(0, 2 ** 16))
    @example(shape=(4, False), lam=5.0, theta=60.0, seed=3)
    @example(shape=(2, True), lam=20.0, theta=60.0, seed=4)
    def test_matches_gauss_hermite_oracle(self, shape, lam, theta, seed):
        n, aux = shape
        rng = np.random.default_rng(seed)
        levels = np.sort(rng.uniform(-3.0, 3.0, n))
        alphas = tuple((0.0, float(rng.uniform(0.5, 2.0))) for _ in range(n)) if aux else None
        sys = SystemSpec(levels=tuple(levels), alpha_energies=alphas,
                         v=random_v(rng, 2 * n if aux else n, 0.5))
        det = gaussian_detector(lam * 0.1 * (levels[-1] - levels[0]) / theta, lam, 0.1)
        exact = build_exact(sys, det).tensor
        # scipy's Gauss-Hermite rules carry 1e-14 to 1e-13 errors of their own beyond
        # 150 nodes, so the oracle's doublings settle at 1e-13, not at 1e-14
        gh = 64
        oracle = build_exact(sys, det, rule=gauss_hermite_rule(gh, 1.0 / det.sigma)).tensor
        while True:
            gh *= 2
            finer = build_exact(sys, det, rule=gauss_hermite_rule(gh, 1.0 / det.sigma)).tensor
            settled = np.abs(finer - oracle).max() <= 1e-12
            oracle = finer
            if settled or gh >= 32768:
                break
        assert settled
        assert np.abs(exact - oracle).max() <= 1e-12

    @pytest.mark.parametrize("seed", [2, 5])
    def test_centred_nodes_reach_rounding(self, seed):
        # two levels with auxiliary states at phase scale 64 (levels 0.018 apart for
        # seed 5): on uncentred node Hamiltonians the entries kept moving by 4e-14 and
        # 5e-13 at 8192 Gauss-Hermite nodes, and seed 5 by 8e-14 at 8193 trapezoid nodes
        rng = np.random.default_rng(seed)
        levels = np.sort(rng.uniform(-3.0, 3.0, 2))
        sys = SystemSpec(levels=tuple(levels), alpha_energies=((0.0, 1.3), (0.0, 0.6)),
                         v=random_v(rng, 4, 0.2))
        det = gaussian_detector(5.0 * 0.1 * (levels[1] - levels[0]) / 64.0, 5.0, 0.1)
        assert superop._phase_scale(sys, det) == pytest.approx(64.0, rel=1e-12)
        ch = build_exact(sys, det, entry_tol=1e-14)
        assert ch.meta["quad_entry_err"] <= 1e-14

    def test_maximally_mixed_is_fixed_point(self):
        ch = build_exact(FIG1_SYS, FIG1_DET)
        rho = np.eye(2, dtype=complex) / 2.0
        assert np.abs(ch.apply(rho) - rho).max() < 1e-8

    def test_channel_preserves_validity(self):
        from zenosim.qmat import check_density_matrix
        ch = build_exact(FIG1_SYS, FIG1_DET)
        rng = np.random.default_rng(21)
        for _ in range(20):
            out = ch.apply(random_density(rng, 2))
            check_density_matrix(out, trace_tol=1e-8)

    def test_dimension_cap(self):
        levels = tuple(float(k) for k in range(65))
        sys = SystemSpec(levels=levels, v=np.zeros((65, 65)))
        with pytest.raises(DimensionMismatch):
            build_exact(sys, FIG1_DET)

    def test_contraction_matches_einsum_on_random_unitaries(self):
        # the (d^2, K) @ (K, d^2) product against the index contraction it replaces
        rng = np.random.default_rng(8)
        rule = gauss_hermite_rule(24, q_std=1.0)
        for d in (2, 5):
            a = rng.normal(size=(len(rule), d, d)) + 1j * rng.normal(size=(len(rule), d, d))
            u = np.linalg.qr(a)[0]
            sys = SystemSpec(levels=tuple(float(e) for e in range(d)), v=np.zeros((d, d)))
            with mock.patch.object(superop, "_propagators", return_value=u):
                got = superop._prnm(superop._propagated_sum(sys, FIG1_DET, 0.0, rule.nodes,
                                                            rule.weights, 1))
            want = np.einsum("k,kpn,krm->prnm", rule.weights, u, u.conj())
            assert got.flags.c_contiguous
            assert np.abs(got - want).max() <= 1e-15

    def test_time_dependent_v_against_second_order(self):
        vmat = 0.05 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        sys = SystemSpec(levels=(-1.0, 1.0), v=lambda t: np.cos(3.0 * t) * vmat)
        det = gaussian_detector(sigma=1.0, lam=10.0, tau=0.2)
        exact = build_exact(sys, det, t0=0.4)
        pert = build_second_order(sys, det, t0=0.4, steps=512)
        assert np.abs(exact.tensor - pert.tensor).max() < 2e-6
        assert exact.meta["substeps"] >= 16
        substeps, change = exact.meta["substep_ladder"][-1]
        assert substeps == exact.meta["substeps"] and change <= 1e-8
        assert build_exact(FIG1_SYS, FIG1_DET).meta["substep_ladder"] == []

    def test_substeps_not_converged_carries_ladder(self):
        # V turns over about three times per measurement, too fast for 32
        # midpoint substeps to pin the entries to 1e-8
        vmat = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        sys = SystemSpec(levels=(-1.0, 1.0), v=lambda t: np.cos(200.0 * t) * vmat)
        rule = default_rule(FIG1_DET, 65)
        with mock.patch.object(superop, "MAX_SUBSTEPS", 32), \
                pytest.raises(PropagationStepTooCoarse) as info:
            build_exact(sys, FIG1_DET, rule=rule)
        assert isinstance(info.value, NumericalConvergenceError)
        ladder = info.value.ladder
        assert [m for m, _ in ladder] == [16, 32]
        assert all(change > 1e-8 for _, change in ladder)
        assert f"32 substeps still moving by {ladder[-1][1]:.2e}" in str(info.value)

    def test_every_rule_climbs_substeps_from_the_minimum(self):
        vmat = random_v(np.random.default_rng(0), 3, 1.0)
        sys = SystemSpec(levels=(-1.0, 0.0, 1.0), v=lambda t: np.cos(3.0 * t) * vmat)
        det = gaussian_detector(sigma=1.0, lam=20.0, tau=0.1)
        # the 65 nodes of the first level, then the 64 new nodes of the 129-node level
        with mock.patch.object(superop, "_propagators", wraps=superop._propagators) as prop:
            ch = build_exact(sys, det)
        climbs = {}
        for call in prop.call_args_list:
            climbs.setdefault(len(call.args[3]), []).append(call.args[4])
        assert list(climbs) == [65, 64] and ch.meta["nodes"] == 129
        for substeps in climbs.values():
            assert substeps == [superop.MIN_SUBSTEPS << k for k in range(len(substeps))]
        assert [m for m, _ in ch.meta["substep_ladder"]] == climbs[64][1:]
        assert ch.meta["substeps"] == climbs[64][-1]
        fixed = build_exact(sys, det, rule=default_rule(det, 129)).tensor
        assert np.abs(ch.tensor - fixed).max() <= 1e-8

    def test_tight_entry_tol_converges_on_the_benchmark_system(self):
        # plain midpoint doubling still moved by 5.6e-12 at 8192 substeps here
        sys, det = channels_small_system()
        ch = build_exact(sys, det, entry_tol=1e-12)
        assert ch.meta["substep_ladder"][-1][1] <= 1e-12
        assert ch.meta["substeps"] <= superop.MAX_SUBSTEPS

    def test_substep_ladder_against_fine_midpoint_richardson(self):
        # the final rule's tensor against 1024 and 2048 midpoint substeps with one
        # Richardson step: that reference errs by its h^4 term, about 1e-17 here,
        # where plain midpoint doubling to 1e-8 (256 substeps) was 2e-9 off
        sys, det = channels_small_system()
        ch = build_exact(sys, det)
        rule = default_rule(det, ch.meta["nodes"])
        coarse, fine = (superop._prnm(superop._propagated_sum(sys, det, 0.0, rule.nodes,
                                                              rule.weights, m))
                        for m in (1024, 2048))
        assert np.abs(ch.tensor - (4.0 * fine - coarse) / 3.0).max() <= 1e-10


class TestBuildUnperturbed:
    def test_populations_untouched(self):
        ch = build_unperturbed(FIG1_SYS, FIG1_DET)
        rho = np.diag([0.25, 0.75]).astype(complex)
        np.testing.assert_allclose(ch.apply(rho), rho, atol=1e-14)

    def test_fig1_coherence_factor(self):
        ch = build_unperturbed(FIG1_SYS, FIG1_DET)
        rho = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
        out = ch.apply(rho)
        # F(lambda tau omega) = exp(-(50*0.1*2)^2/2) = exp(-50)
        assert abs(out[1, 0]) == pytest.approx(0.4 * 1.9287498479639178e-22, rel=1e-9)

    def test_weak_limit_is_free_evolution(self):
        sys = FIG1_SYS
        det = gaussian_detector(sigma=1.0, lam=1e-8, tau=0.1)
        ch = build_unperturbed(sys, det)
        w = sys.omega_full()
        rho = np.array([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, 0.5]], dtype=complex)
        out = ch.apply(rho)
        expected = rho * np.exp(1j * w.T * det.tau)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_hand_evaluated_half_damping(self):
        # sigma = lambda tau omega_10 / sqrt(2 ln 2) makes F(lambda tau omega_10) = 1/2
        omega, lam, tau = 2.0, 50.0, 0.1
        det = gaussian_detector(sigma=lam * tau * omega / math.sqrt(2.0 * math.log(2.0)),
                                lam=lam, tau=tau)
        ch = build_unperturbed(TwoLevelPreset(omega, 0.0).to_system(), det)
        rho = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
        out = ch.apply(rho)
        assert abs(out[1, 0]) == pytest.approx(0.2, abs=1e-12)

    def test_dual_sum_rule(self):
        ch = build_unperturbed(FIG1_SYS, FIG1_DET)
        assert unit_sum_rule_defect(ch.tensor) < 1e-14


class TestBuildSecondOrder:
    def test_zero_v_reduces_to_unperturbed(self):
        sys = TwoLevelPreset(omega=2.0, v=0.0).to_system()
        pert = build_second_order(sys, FIG1_DET, steps=64)
        closed = build_unperturbed(sys, FIG1_DET)
        assert np.abs(pert.tensor - closed.tensor).max() < 1e-14

    def test_small_v_matches_exact(self):
        sys = TwoLevelPreset(omega=2.0, v=0.1).to_system()
        pert = build_second_order(sys, FIG1_DET, steps=512)
        exact = build_exact(sys, FIG1_DET)
        assert np.abs(pert.tensor - exact.tensor).max() < 5e-7

    def test_trace_sum_rule(self):
        pert = build_second_order(FIG1_SYS, FIG1_DET, steps=256)
        assert trace_sum_rule_defect(pert.tensor) < 1e-10

    def test_step_count_guard(self):
        with pytest.raises(StepCountTooSmall):
            build_second_order(FIG1_SYS, FIG1_DET, steps=8)

    @pytest.mark.parametrize("steps", [16.5, 256.0, "256"])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValueError):
            build_second_order(FIG1_SYS, FIG1_DET, steps=steps)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 5), uniform=st.booleans(), aux=st.booleans(),
           lam=st.sampled_from([0.0, 5.0, 20.0]), theta=st.floats(3.0, 1300.0),
           seed=st.integers(0, 2 ** 16))
    # the grid comparison at its largest phase scale
    @example(n=3, uniform=False, aux=False, lam=20.0, theta=63.9, seed=1)
    @example(n=2, uniform=False, aux=True, lam=5.0, theta=63.9, seed=2)
    # strong measurements, near the top of the node ladder
    @example(n=5, uniform=False, aux=False, lam=20.0, theta=1300.0, seed=3)
    @example(n=2, uniform=False, aux=True, lam=5.0, theta=1300.0, seed=4)
    def test_node_path_matches_grid_and_exact_v2(self, n, uniform, aux, lam, theta, seed):
        rng = np.random.default_rng(seed)
        levels = np.linspace(-2.0, 2.0, n) if uniform else np.sort(rng.uniform(-3.0, 3.0, n))
        alphas = tuple((0.0, float(rng.uniform(0.5, 2.0))) for _ in range(n)) if aux else None
        vmat = random_v(rng, 2 * n if aux else n, 0.2)

        def system(scale):
            return SystemSpec(levels=tuple(levels), alpha_energies=alphas, v=scale * vmat)

        # sigma puts the phase scale lambda tau max|omega| / sigma at theta
        sigma = lam * 0.1 * (levels[-1] - levels[0]) / theta if lam else 1.0
        det = gaussian_detector(sigma, lam, 0.1)
        sys = system(1.0)
        node = build_second_order(sys, det)
        assert "nodes" in node.meta and node.meta["nodes"] <= superop.MAX_NODES
        s12 = node.tensor - build_unperturbed(sys, det).tensor
        # the V-linear and V-quadratic part of the exact channel, from +-eps V, whose
        # 1 / eps^2 difference quotient needs the exact entries to 1e-13
        eps = 1e-2
        plus, minus, zero = (build_exact(system(e), det, entry_tol=1e-13).tensor
                             for e in (eps, -eps, 0.0))
        exact = (plus - minus) / (2.0 * eps) + (plus + minus - 2.0 * zero) / (2.0 * eps ** 2)
        assert np.abs(s12 - exact).max() <= 1e-8
        # 0.5 to 5 s for the 2048-step grid here, 20 s at n = 4; beyond theta = 64 the
        # extrapolated grid no longer reaches 2e-9
        if sys.dim <= 4 and n <= 3 and superop._phase_scale(sys, det) <= 64.0:
            # the grid's O(h^2) error, up to 2e-9 itself at 2048 steps, extrapolated away
            fine = superop._second_order_on_grid(sys, det, 0.0, 2048)
            coarse = superop._second_order_on_grid(sys, det, 0.0, 1024)
            assert np.abs(s12 - (4.0 * fine - coarse) / 3.0).max() <= 2e-9

    def test_node_ladder_converges_at_phase_bound(self):
        # four levels spanning omega = 3, so lambda tau max|omega| / sigma is 64, the
        # bound of the node path before it took every phase scale
        vmat = random_v(np.random.default_rng(11), 4, 0.2)
        sys = SystemSpec(levels=(-1.5, -0.2, 0.4, 1.5), v=vmat)
        det = gaussian_detector(sigma=1.0, lam=64.0 / 0.3, tau=0.1)
        assert superop._phase_scale(sys, det) == pytest.approx(64.0, rel=1e-14)
        det = gaussian_detector(sigma=1.0, lam=(1.0 - 1e-12) * det.lam, tau=0.1)
        ch = build_second_order(sys, det)
        ladder = ch.meta["ladder"]
        assert ladder[-1] == (ch.meta["nodes"], ch.meta["quad_entry_err"])
        assert ch.meta["quad_entry_err"] <= 1e-8
        assert 2 * ch.meta["nodes"] - 1 <= superop.MAX_NODES
        assert ch.certified_trace_err <= 1e-12
        # what is left against the exact channel is third order in ||V|| tau
        residual = np.abs(ch.tensor - build_exact(sys, det).tensor).max()
        assert residual <= (np.linalg.norm(vmat, 2) * det.tau) ** 3
        above = gaussian_detector(sigma=1.0, lam=1.01 * det.lam, tau=0.1)
        assert set(build_second_order(sys, above, steps=64).meta) == {
            "nodes", "quad_entry_err", "ladder"}

    def test_phase_scale_beyond_the_node_ladder_raises(self):
        # theta = 2000 needs more than MAX_NODES nodes before the first level is built
        sys = SystemSpec(levels=(-1.5, -0.2, 0.4, 1.5),
                         v=random_v(np.random.default_rng(11), 4, 0.2))
        det = gaussian_detector(sigma=1.0, lam=2000.0 / 0.3, tau=0.1)
        assert superop._phase_scale(sys, det) == pytest.approx(2000.0, rel=1e-14)
        for build in (lambda: build_exact(sys, det),
                      lambda: build_second_order(sys, det, steps=64)):
            with pytest.raises(QuadratureNotConverged, match="phase scale 2000") as info:
                build()
            assert info.value.ladder == []

    def test_grid_path_for_timed_v(self):
        vmat = FIG1_SYS.v
        timed = SystemSpec(levels=FIG1_SYS.levels, v=lambda t: np.cos(t) * vmat)
        meta = build_second_order(timed, FIG1_DET, steps=32).meta
        assert set(meta) == {"steps", "quad_entry_err", "ladder"}
        assert meta["ladder"][0][0] == 64 and meta["ladder"][-1] == (
            meta["steps"], meta["quad_entry_err"])
        assert set(build_second_order(FIG1_SYS, FIG1_DET, steps=32).meta) == {
            "nodes", "quad_entry_err", "ladder"}

    def test_time_ladder_certifies_time_dependent_v_against_exact_v2(self):
        # the plain 16-step grid of the first level is 3e-6 off; the ladder's Richardson
        # steps reach the exact V-linear and V-quadratic part to 1e-8 at 128 steps
        vmat = random_v(np.random.default_rng(1), 2, 0.2)
        det = gaussian_detector(sigma=1.0, lam=20.0, tau=0.1)

        def system(scale):
            return SystemSpec(levels=(-2.5, 2.5), v=lambda t: scale * np.cos(3.0 * t) * vmat)

        ch = build_second_order(system(1.0), det)
        assert set(ch.meta) == {"steps", "quad_entry_err", "ladder"}
        assert ch.meta["quad_entry_err"] <= 1e-8
        assert ch.meta["ladder"][-1] == (ch.meta["steps"], ch.meta["quad_entry_err"])
        s12 = ch.tensor - build_unperturbed(system(1.0), det).tensor
        # +-eps V on build_exact: the difference quotient q(eps) is S1 + S2 + O(eps^2),
        # and (4 q(eps) - q(2 eps)) / 3 leaves O(eps^4), about 1e-10 here; the substep
        # ladder's own error, 1e-9 per entry, is amplified about threefold
        zero = build_exact(system(0.0), det).tensor

        def quotient(eps):
            plus, minus = (build_exact(system(e), det, entry_tol=1e-9).tensor
                           for e in (eps, -eps))
            return (plus - minus) / (2.0 * eps) + (plus + minus - 2.0 * zero) / (2.0 * eps ** 2)

        exact = (4.0 * quotient(0.5) - quotient(1.0)) / 3.0
        assert np.abs(s12 - exact).max() <= 1e-8

    @staticmethod
    def _time_ladder_callers():
        timed = SystemSpec(levels=FIG1_SYS.levels, v=lambda t: np.cos(t) * FIG1_SYS.v)
        res = ReservoirSpectrum.lorentzian(b=0.05, omega_r=2.5, gamma=0.4)
        dsys = build_decay_system(1.0, -1.0, res, FIG1_DET, n_modes=4)
        return {"build_second_order": (superop, "_second_order_on_grid",
                                       lambda **kw: build_second_order(timed, FIG1_DET, **kw)),
                "effective_channel": (decay, "_traced_on_grid",
                                      lambda **kw: effective_channel(dsys, FIG1_DET, **kw))}

    @pytest.mark.parametrize("caller", ["build_second_order", "effective_channel"])
    def test_time_ladder_exhaustion_carries_ladder(self, caller):
        # a Dyson kernel that grows like 1 / h^2 never settles; it stands in for every
        # level, so no real 4096-step grid is built
        def restless(phase_out, w_lvl, det, hbar, t, first, path):
            return np.full((phase_out.shape[0],) * 4, float(t.size) ** 2, dtype=complex)

        build = self._time_ladder_callers()[caller][2]
        with mock.patch.object(superop, "_dyson_second_order", restless), \
                mock.patch.object(decay, "_dyson_second_order", restless), \
                pytest.raises(QuadratureNotConverged) as info:
            build()
        ladder = info.value.ladder
        assert [n for n, _ in ladder] == [32 << k for k in range(8)]
        assert ladder[-1][0] == superop.MAX_STEPS
        assert f"4096 time steps still moving by {ladder[-1][1]:.2e}" in str(info.value)

    @pytest.mark.parametrize("steps", [2049, 4096, 10 ** 6])
    @pytest.mark.parametrize("caller", ["build_second_order"])  # effective_channel takes no steps
    def test_steps_leaving_no_second_level_rejected(self, caller, steps):
        # 10^6 steps would ask for (10^6 + 1)^2 kernel buffers
        module, grid, build = self._time_ladder_callers()[caller]
        with mock.patch.object(module, grid) as one_grid, \
                pytest.raises(ValueError, match="no second level within 4096"):
            build(steps=steps)
        one_grid.assert_not_called()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 4), uniform=st.booleans(), aux=st.booleans(),
           timed=st.booleans(), lam=st.sampled_from([0.0, 5.0, 20.0]),
           seed=st.integers(0, 2 ** 16))
    def test_grouped_kernels_match_per_path(self, n, uniform, aux, timed, lam, seed):
        rng = np.random.default_rng(seed)
        levels = np.linspace(-2.0, 2.0, n) if uniform else np.sort(rng.uniform(-3.0, 3.0, n))
        alphas = tuple((0.0, float(rng.uniform(0.5, 2.0))) for _ in range(n)) if aux else None
        vmat = random_v(rng, 2 * n if aux else n, 0.2)
        v = (lambda t: np.cos(3.0 * t) * vmat) if timed else vmat
        sys = SystemSpec(levels=tuple(levels), alpha_energies=alphas, v=v)
        det = gaussian_detector(1.0, lam, 0.1)
        fast = superop._second_order_on_grid(sys, det, 0.3, 32)
        slow = _per_path(superop._second_order_on_grid, sys, det, 0.3, 32)
        assert np.abs(fast - slow).max() <= 1e-15 * np.abs(slow).max()

    @pytest.mark.parametrize("lam", [0.0, 5.0, 30.0])
    def test_grouped_effective_channel_matches_per_path(self, lam):
        det = gaussian_detector(sigma=1.0, lam=lam, tau=0.5)
        res = ReservoirSpectrum.lorentzian(b=0.05, omega_r=2.5, gamma=0.4)
        dsys = build_decay_system(1.0, -1.0, res, det, n_modes=4)
        fast = decay._traced_on_grid(dsys, det, 96)
        slow = _per_path(decay._traced_on_grid, dsys, det, 96)
        assert np.abs(fast - slow).max() <= 1e-15 * np.abs(slow).max()

    @pytest.mark.parametrize("lam", [5.0, 30.0])
    def test_three_level_effective_channel_matches_per_path(self, lam):
        # transitions between different level pairs meet in one path, so some triples
        # are not lag-only and their dense kernels take g as a Toeplitz matrix; the
        # atom's V and the couplings are the vacuum column of a random 15 x 15 V
        blocks = random_v(np.random.default_rng(7), 15, 0.05).reshape(3, 5, 3, 5)
        dsys = DecaySystem(atom=SystemSpec(levels=(-1.0, 0.3, 1.5), v=blocks[:, 0, :, 0]),
                           mode_energies=np.array([0.7, 1.1, 1.6, 2.4]),
                           couplings=blocks[:, 1:, :, 0], excited=2, ground=0, delta_e=0.4)
        det = gaussian_detector(sigma=1.0, lam=lam, tau=0.5)
        steps = 96
        with mock.patch.object(superop, "correlation", wraps=correlation) as corr:
            fast = decay._traced_on_grid(dsys, det, steps)
        assert any(np.shape(c.args[1]) == (steps + 1,) * 2 for c in corr.call_args_list)
        slow = _per_path(decay._traced_on_grid, dsys, det, steps)
        assert np.abs(fast - slow).max() <= 1e-15 * np.abs(slow).max()

    def test_one_kernel_per_frequency_triple(self):
        # uniform levels repeat their spacings, so many paths share a triple
        k = 4
        sys = SystemSpec(levels=(-1.5, -0.5, 0.5, 1.5), v=random_v(np.random.default_rng(3), k, 0.2))
        w = sys.omega_level()
        triples = {(w[r, p], w[p, n], w[m, r])
                   for p, n, m, r in product(range(k), repeat=4) if p != n and m != r}
        for a, b, q in product(range(k), repeat=3):
            if q != b and a != q:
                triples |= {(w[c, a], w[q, b], w[a, q]) for c in range(k)}
                triples |= {(w[b, c], w[q, b], w[a, q]) for c in range(k)}
        steps = 32
        n = steps + 1
        with mock.patch.object(superop, "correlation", wraps=correlation) as corr:
            superop._second_order_on_grid(sys, FIG1_DET, 0.0, steps)
        shapes = [np.shape(c.args[1]) for c in corr.call_args_list]
        # a triple with w_t1 == -w_t2 depends on the lag only: one F vector over the
        # 2n - 1 lags; every other triple gets one dense n x n kernel
        lag_only = {tr for tr in triples if tr[1] == -tr[2]}
        assert shapes.count((n, n)) == len(triples - lag_only)
        assert shapes.count((2 * n - 1,)) == len(lag_only) > 0
        assert len(triples) < 2 * k ** 3 * (k - 1)

    @pytest.mark.parametrize("n", [17, 257, 2001])
    def test_lag_sums_match_dense_weights(self, n):
        rng = np.random.default_rng(n)
        t = np.linspace(0.0, 0.7, n)
        x_in = rng.normal(size=n) + 1j * rng.normal(size=n)
        x_out = rng.normal(size=n) + 1j * rng.normal(size=n)
        w1 = _trapezoid_weights(t)
        tri = _triangle_weights(t)
        for weight, dense in (("square", np.outer(w1, w1)), ("lower", tri), ("upper", tri.T)):
            terms = x_in[:, None] * dense * x_out
            want = np.array([np.trace(terms, offset=-lag) for lag in range(1 - n, n)])
            got = superop._lag_sums(x_in, x_out, t, weight)
            assert got.shape == (2 * n - 1,)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), weight

    def test_effective_channel_does_no_square_work(self):
        det = gaussian_detector(sigma=1.0, lam=30.0, tau=0.5)
        res = ReservoirSpectrum.lorentzian(b=0.05, omega_r=2.5, gamma=0.4)
        dsys = build_decay_system(1.0, -1.0, res, det, n_modes=4)
        steps = 1024
        n = steps + 1
        with mock.patch.object(superop, "correlation", wraps=correlation) as corr, \
                mock.patch.object(superop, "_triangle_weights",
                                  wraps=_triangle_weights) as tri:
            decay._traced_on_grid(dsys, det, steps)
            tracemalloc.start()
            try:
                decay._traced_on_grid(dsys, det, steps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        tri.assert_not_called()
        assert corr.call_count > 0
        assert all(np.size(c.args[1]) <= 2 * n - 1 for c in corr.call_args_list)
        assert peak < 8 * n * n  # not even one real n x n array

    def test_channels_decay_channel_matches_per_path(self):
        # the decay channel of the `channels` benchmark job: its time ladder settles
        # at 512 steps, so the kernel sums run over 257 and 513 times
        det = gaussian_detector(sigma=1.0, lam=50.0, tau=2.0)
        res = ReservoirSpectrum.lorentzian(b=1e-4, omega_r=51.0, gamma=10.0)
        fast = measured_decay_channel(0.5, -0.5, res, det, n_modes=200)
        # the first level resolves the 420 rad the modes turn over tau at 256 steps
        assert [n for n, _ in fast.meta["ladder"]] == [512]
        assert fast.meta["steps"] == 512 and fast.meta["quad_entry_err"] <= 1e-8
        slow = _per_path(measured_decay_channel, 0.5, -0.5, res, det, n_modes=200).tensor
        assert np.abs(fast.tensor - slow).max() <= 1e-15 * np.abs(slow).max()


class TestRepeat:
    def test_single_application(self):
        ch = build_exact(FIG1_SYS, FIG1_DET)
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        traj = repeat(lambda t0: ch, rho0, 1)
        np.testing.assert_allclose(traj[0], ch.apply(rho0), atol=1e-14)

    def test_identity_channel_constant_trajectory(self):
        ch = identity_channel(2)
        rng = np.random.default_rng(1)
        rho0 = random_density(rng, 2)
        traj = repeat(lambda t0: ch, rho0, 7)
        for state in traj:
            np.testing.assert_allclose(state, rho0, atol=1e-14)

    def test_fig1_approaches_equal_occupation(self):
        from zenosim.dynamics import measured_exponential
        preset = TwoLevelPreset(omega=2.0, v=1.0)
        ch = build_exact(FIG1_SYS, FIG1_DET)
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        traj = repeat(lambda t0: ch, rho0, 400)
        times = FIG1_DET.tau * np.arange(1, 401)
        approx = measured_exponential(preset, FIG1_DET, times)[0]
        assert np.abs(traj[:, 1, 1].real - approx).max() < 0.05
        assert traj[-1, 1, 1].real < traj[0, 1, 1].real

    def test_trace_drift_detected(self):
        bad = identity_channel(2)
        scaled = MeasurementChannel(tensor=1.01 * bad.tensor, method=bad.method,
                                    t0=0.0, tau=0.1, certified_trace_err=0.0)
        with pytest.raises(TraceDrift):
            repeat(lambda t0: scaled, np.eye(2, dtype=complex) / 2.0, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rho0_rejected(self, bad):
        rho0 = np.array([[0.5, bad], [bad, 0.5]], dtype=complex)
        with pytest.raises(InvalidDensityMatrix, match="non-finite"):
            repeat(lambda t0: identity_channel(2), rho0, 3)

    def test_nan_channel_drifts_at_first_measurement(self):
        # every comparison with NaN is False: a NaN tensor used to be stepped
        # through all 100 measurements into NaN states
        ch = identity_channel(2)
        nan = dataclasses.replace(ch, tensor=np.full_like(ch.tensor, np.nan))
        with pytest.raises(TraceDrift, match="at measurement 1$"):
            repeat(lambda t0: nan, np.eye(2, dtype=complex) / 2.0, 100)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(dim=st.integers(2, 4), n_kraus=st.integers(1, 3), n=st.integers(1, 300),
           seed=st.integers(0, 2 ** 16))
    @_at_blocking_threshold
    def test_constant_channel_is_liouville_power(self, dim, n_kraus, n, seed):
        rng = np.random.default_rng(seed)
        ch = random_kraus_channel(rng, dim, n_kraus)
        rho0 = random_density(rng, dim)
        traj = repeat(lambda t0: ch, rho0, n)
        liouville = ch.tensor.reshape(dim * dim, dim * dim)
        for k in {1, (n + 1) // 2, n}:
            want = (np.linalg.matrix_power(liouville, k) @ rho0.ravel()).reshape(dim, dim)
            assert np.abs(traj[k - 1] - want).max() <= 1e-12

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_real_coordinates_round_trip(self, dim):
        # y = Re rho + Im rho holds a Hermitian rho: Re rho is its symmetric
        # part and Im rho its antisymmetric part
        rho = random_density(np.random.default_rng(dim), dim)
        rho = 0.5 * (rho + rho.conj().T)  # Hermitian to the last bit
        back = superop._hermitian(rho.real + rho.imag)
        assert np.array_equal(back, back.conj().T)
        assert np.array_equal(back.diagonal(), rho.diagonal())
        # Re rho ± Im rho is rounded once, so off the diagonal the round trip is
        # exact to one rounding of the entry
        assert np.all(np.abs(back - rho) <= np.finfo(float).eps * np.abs(rho))
        real = rho.real + rho.real.T
        assert np.array_equal(superop._hermitian(real), real)
        imaginary = 1j * (rho.imag - rho.imag.T)
        assert np.array_equal(superop._hermitian(imaginary.imag), imaginary)

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("kind", ["random", "kraus"])
    def test_real_step_matches_apply_super(self, dim, kind):
        # the random tensor is not Hermiticity-preserving: the real matrix
        # includes apply_super's average with the adjoint
        rng = np.random.default_rng(10 * dim + (kind == "kraus"))
        if kind == "random":
            s = rng.normal(size=(dim,) * 4) + 1j * rng.normal(size=(dim,) * 4)
        else:
            s = random_kraus_channel(rng, dim, 2).tensor
        rho = random_density(rng, dim)
        y = superop._real_liouville(s) @ (rho.real + rho.imag).ravel()
        got = superop._hermitian(y.reshape(dim, dim))
        assert np.abs(got - apply_super(s, rho)).max() <= 1e-14 * np.abs(s).max()

    # "after 300": two runs long enough for the blocked step
    @pytest.mark.parametrize("switch, n", [(None, 40), (1, 40), (5, 40), (300, 600)],
                             ids=["alternate", "after 1", "after 5", "after 300"])
    def test_factory_switching_channels_is_liouville_product(self, switch, n):
        rng = np.random.default_rng(7)
        first, second = random_kraus_channel(rng, 3, 2), random_kraus_channel(rng, 3, 1)
        if switch is None:
            order = [first, second] * (n // 2)
        else:
            order = [first] * switch + [second] * (n - switch)
        channels = iter(order)
        rho0 = random_density(rng, 3)
        traj = repeat(lambda t0: next(channels), rho0, n)
        vec = rho0.ravel()
        for state, ch in zip(traj, order):
            vec = ch.tensor.reshape(9, 9) @ vec
            assert np.abs(state - vec.reshape(3, 3)).max() <= 1e-12

    def test_dimension_change_mid_run_raises(self):
        rng = np.random.default_rng(8)
        two, three = random_kraus_channel(rng, 2, 2), random_kraus_channel(rng, 3, 2)
        with pytest.raises(DimensionMismatch):
            repeat(lambda t0: two if t0 < 0.25 else three, random_density(rng, 2), 10)

    @pytest.mark.parametrize("fresh", [False, True])
    def test_real_matrix_built_once_for_a_reused_channel(self, fresh):
        ch = random_kraus_channel(np.random.default_rng(9), 3, 2)

        def factory(t0):
            return dataclasses.replace(ch) if fresh else ch

        with mock.patch.object(superop, "apply_super", wraps=apply_super) as applied, \
                mock.patch.object(superop, "_real_liouville",
                                  wraps=superop._real_liouville) as built:
            repeat(factory, np.eye(3, dtype=complex) / 3.0, 50)
        assert applied.call_count == (50 if fresh else 1)
        assert built.call_count == (0 if fresh else 1)

    @pytest.mark.parametrize("n, step", [(200, 64), (55, 55)])
    def test_positivity_checked_every_64th_and_last_step(self, n, step):
        # trace preserving but not positive: the state turns negative after step 50
        ch = leak_channel(0.01)
        rho0 = np.eye(2, dtype=complex) / 2.0
        with pytest.raises(InvalidDensityMatrix, match=f"at measurement {step}$"):
            repeat(lambda t0: ch, rho0, n)
        assert repeat(lambda t0: ch, rho0, 50)[-1, 1, 1].real == pytest.approx(0.0, abs=1e-12)

    def test_positivity_failure_inside_a_block(self):
        # a slower leak: negative after step 166, first seen at the 3rd check
        ch = leak_channel(0.003)
        with pytest.raises(InvalidDensityMatrix, match="at measurement 192$"):
            repeat(lambda t0: ch, np.eye(2, dtype=complex) / 2.0, 300)

    @pytest.mark.parametrize("breach", [201, 300])
    def test_trace_drift_raises_at_its_measurement(self, breach):
        # the trace grows by 1e-3 a step; trace_tol lies between the drifts
        # after measurements breach - 1 and breach (breach 201 is mid-block)
        ch = leak_channel(0.0, gain=1.001)
        tol = (1.001 ** (breach - 1) + 1.001 ** breach) / 2.0 - 1.0
        with pytest.raises(TraceDrift, match=f"at measurement {breach}$"):
            repeat(lambda t0: ch, np.eye(2, dtype=complex) / 2.0, 300, trace_tol=tol)

    def test_trace_drift_wins_over_positivity_at_the_same_measurement(self):
        # negative after step 166 and drifted first after step 192: both
        # checks fail at measurement 192, and the trace is checked first
        ch = leak_channel(0.003, gain=1.001)
        tol = (1.001 ** 191 + 1.001 ** 192) / 2.0 - 1.0
        with pytest.raises(TraceDrift, match="at measurement 192$"):
            repeat(lambda t0: ch, np.eye(2, dtype=complex) / 2.0, 300, trace_tol=tol)

    @pytest.mark.parametrize("breach", [superop.CHECK + 1, 1500, 2 * superop.CHECK + 1])
    def test_trace_drift_in_a_later_check(self, breach):
        # the states are checked CHECK = 1024 at a time: the drift passes trace_tol
        # at the first state of the second or third check, or inside the second
        ch = leak_channel(0.0, gain=1.0001)
        tol = (1.0001 ** (breach - 1) + 1.0001 ** breach) / 2.0 - 1.0
        with pytest.raises(TraceDrift, match=f"at measurement {breach}$"):
            repeat(lambda t0: ch, np.eye(2, dtype=complex) / 2.0, 3000, trace_tol=tol)

    def test_positivity_failure_in_a_later_check(self):
        # negative after step 1666, first seen at the 27th positivity check, which
        # falls in the second CHECK
        ch = leak_channel(0.0003)
        with pytest.raises(InvalidDensityMatrix, match="at measurement 1728$"):
            repeat(lambda t0: ch, np.eye(2, dtype=complex) / 2.0, 3000)

    def test_states_past_a_failure_overflow_silently(self):
        # the trace doubles every step, so the states overflow within the first
        # CHECK; that check raises the drift at measurement 1, and no overflow warning
        ch = leak_channel(0.0, gain=2.0)
        with pytest.raises(TraceDrift, match="at measurement 1$"):
            repeat(lambda t0: ch, np.eye(2, dtype=complex) / 2.0, 3000)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                        reason="long double is no wider than double here")
    def test_long_run_stays_within_1e_12_of_a_long_double_chain(self):
        # 10^5 steps of the fig1_twolevel channel against the same real
        # Liouville matrix stepped in long double from the first (apply) step
        ch = build_exact(FIG1_SYS, FIG1_DET)
        n = 100_000
        traj = repeat(lambda t0: ch, np.diag([0.0, 1.0]).astype(complex), n)
        liouville = superop._real_liouville(ch.tensor).astype(np.longdouble)
        chain = np.empty((n, 4), dtype=np.longdouble)
        chain[0] = (traj[0].real + traj[0].imag).ravel()
        for k in range(1, n):
            chain[k] = liouville @ chain[k - 1]
        chain = chain.reshape(n, 2, 2)
        transposed = np.swapaxes(chain, 1, 2)
        assert np.abs(traj.real - (chain + transposed) / 2).max() <= 1e-12
        assert np.abs(traj.imag - (chain - transposed) / 2).max() <= 1e-12

    def test_non_integer_count_rejected(self):
        ch = identity_channel(2)
        with pytest.raises(ValueError):
            repeat(lambda t0: ch, np.eye(2, dtype=complex) / 2.0, 2.5)

    def test_factory_receives_measurement_start_times(self):
        seen = []

        def factory(t0):
            seen.append(t0)
            return identity_channel(2, tau=0.5)

        repeat(factory, np.eye(2, dtype=complex) / 2.0, 3)
        np.testing.assert_allclose(seen, [0.0, 0.5, 1.0])


class TestChannelSnapshot:
    def test_roundtrip(self):
        ch = build_exact(FIG1_SYS, FIG1_DET)
        buf = io.BytesIO()
        dump_channel(ch, FIG1_DET, buf)
        buf.seek(0)
        tensor, info = load_channel(buf)
        assert info["dim"] == 2
        assert info["method"] == "exact_quadrature"
        assert info["tau"] == pytest.approx(0.1)
        assert info["lambda"] == pytest.approx(50.0)
        assert info["sigma"] == pytest.approx(1.0)
        # complex64 storage: single precision agreement
        assert np.abs(tensor - ch.tensor).max() < 1e-6

    def test_file_roundtrip(self, tmp_path):
        ch = build_unperturbed(FIG1_SYS, FIG1_DET)
        path = tmp_path / "chan.bin"
        dump_channel(ch, FIG1_DET, path)
        tensor, info = load_channel(path)
        assert info["method"] == "unperturbed"
        assert np.abs(tensor - ch.tensor).max() < 1e-6

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_channel(io.BytesIO(b"not a snapshot"))

    def test_rejects_unknown_method_tag(self):
        buf = io.BytesIO()
        dump_channel(build_unperturbed(FIG1_SYS, FIG1_DET), FIG1_DET, buf)
        raw = bytearray(buf.getvalue())
        raw[5] = 7  # the method tag follows the magic and the version byte
        with pytest.raises(ValueError, match="method tag"):
            load_channel(io.BytesIO(bytes(raw)))


def _hermiticity_defect(s):
    """max |S[p, r, n, m] - conj S[r, p, m, n]|: zero for a map that keeps
    Hermitian matrices Hermitian."""
    return float(np.abs(s - s.transpose(1, 0, 3, 2).conj()).max())


class TestChannelInvariants:
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 3), aux=st.booleans(), sigma=st.floats(0.5, 2.0),
           lam=st.floats(0.0, 30.0), tau=st.floats(0.05, 0.5), seed=st.integers(0, 2 ** 16))
    def test_sum_rules_and_validity_across_builders(self, n, aux, sigma, lam, tau, seed):
        rng = np.random.default_rng(seed)
        levels = tuple(np.sort(rng.uniform(-3.0, 3.0, n)))
        alphas = tuple((0.0, float(rng.uniform(0.5, 2.0))) for _ in range(n)) if aux else None
        sys = SystemSpec(levels=levels, alpha_energies=alphas,
                         v=random_v(rng, 2 * n if aux else n, 0.3))
        det = gaussian_detector(sigma, lam, tau)
        exact = build_exact(sys, det)
        # the trapezoid grid's trace defect is its discretization error, up to about
        # 1e-6 at 64 steps here; every other builder holds the rule to rounding
        second = build_second_order(sys, det, steps=64)
        grid = build_unperturbed(sys, det).tensor + superop._second_order_on_grid(sys, det, 0.0, 64)
        grid = MeasurementChannel(tensor=grid, method=superop.SECOND_ORDER, t0=0.0, tau=tau,
                                  certified_trace_err=trace_sum_rule_defect(grid))
        channels = [(exact, 1e-12), (build_unperturbed(sys, det), 1e-14),
                    (second, 1e-12), (grid, 1e-5)]
        for ch, cap in channels:
            assert trace_sum_rule_defect(ch.tensor) <= ch.certified_trace_err <= cap
            assert _hermiticity_defect(ch.tensor) <= 1e-14 * np.abs(ch.tensor).max()
        for _ in range(3):
            check_density_matrix(exact.apply(random_density(rng, sys.dim)), trace_tol=1e-8)
