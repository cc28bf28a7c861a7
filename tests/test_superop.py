"""Measurement superoperator construction and composition."""

import dataclasses
import io
import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zenosim import superop
from zenosim.errors import (
    DimensionMismatch,
    InvalidDensityMatrix,
    NumericalConvergenceError,
    PropagationStepTooCoarse,
    QuadratureNotConverged,
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
    build_exact,
    build_second_order,
    build_unperturbed,
    default_rule,
    dump_channel,
    load_channel,
    repeat,
)

import oracles
from oracles import (dyson_second_order_per_path, gauss_hermite_rule, lag_sums,
                     second_order_on_grid, spy_sized_rules, trapezoid_weights, triangle_weights,
                     unit_sum_rule_defect)

FIG1_DET = gaussian_detector(sigma=1.0, lam=50.0, tau=0.1)
FIG1_SYS = TwoLevelPreset(omega=2.0, v=1.0).to_system()


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


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
        # e^{-(2 pi / h - nu)^2 / 2}: rounding at the margin a sized rule leaves
        rule = default_rule(gaussian_detector(sigma=1.0, lam=1.0, tau=0.1), n)
        band = 2.0 * np.pi * (n - 1) / (2.0 * superop.RULE_HALF_WIDTH)
        for nu in np.linspace(0.0, band - superop.RULE_HALF_WIDTH, 7):
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


class TestSizedRule:
    @pytest.mark.parametrize("c", [2.0, 3.0, 4.0, 5.0, 6.0])
    def test_bound_covers_gaussian_averages_of_type_theta(self, c):
        # entries of type theta bounded by 1 whose Gaussian averages are closed
        # forms: e^{i theta y}, cos(theta y + phi) and cos(a y) cos((theta - a) y);
        # at these margins the error is far above rounding.  theta runs over a grid
        # and over the values where the step is exactly 2 pi / (theta + c), from
        # the least theta that gives the 8 nodes of a QuadratureRule
        det = gaussian_detector(sigma=1.0, lam=1.0, tau=0.1)
        worst = 0.0
        lo = max(0.0, 7.0 * math.pi / c - c)
        exact = [math.pi * m / c - c for m in range(1, int(49.0 * c / math.pi) + 1)]
        with mock.patch.object(superop, "RULE_HALF_WIDTH", c):
            for theta in [*np.linspace(lo, 40.0, 41), *(t for t in exact if lo <= t <= 40.0)]:
                rule, bound = superop._sized_rule(det, theta, superop.MAX_NODES)
                y, w = rule.nodes, rule.weights
                cases = [(np.exp(1j * theta * y), math.exp(-theta ** 2 / 2.0))]
                cases += [(np.cos(theta * y + phi), math.cos(phi) * math.exp(-theta ** 2 / 2.0))
                          for phi in np.linspace(0.0, math.pi, 5)]
                cases += [(np.cos(a * y) * np.cos((theta - a) * y),
                           0.5 * (math.exp(-(2.0 * a - theta) ** 2 / 2.0)
                                  + math.exp(-theta ** 2 / 2.0)))
                          for a in np.linspace(0.0, theta, 5)]
                for f, average in cases:
                    err = abs(w @ f - average)
                    assert err <= bound, (theta, err, bound)
                    worst = max(worst, err)
        # and it is no empty bound: the worst case reaches a tenth of it
        assert bound / 10.0 <= worst and worst > 1e-12

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(2, 6), timed=st.booleans(), lam=st.floats(5.0, 300.0),
           log_sigma=st.floats(math.log(1.0 / 30.0), 0.0), seed=st.integers(0, 2 ** 16))
    @example(d=6, timed=False, lam=300.0, log_sigma=math.log(1.0 / 30.0), seed=0)
    @example(d=4, timed=True, lam=300.0, log_sigma=0.0, seed=1)
    def test_one_rule_is_within_its_bound_of_a_finer_rule(self, d, timed, lam, log_sigma, seed):
        # the sized rule of n nodes against the rule of 2n - 1: their difference, the
        # rounding of both (3e-14 at theta = 2700), stays within the reported bound,
        # whose rounding estimate eps (theta + n) covers it.  A time-dependent V
        # stays below theta = 300: at 2700 its substep ladder takes a minute
        rng = np.random.default_rng(seed)
        vmat = random_v(rng, d, 0.3)
        sys = SystemSpec(levels=tuple(np.sort(rng.uniform(-1.5, 1.5, d))),
                         v=(lambda t: np.cos(3.0 * t) * vmat) if timed else vmat)
        det = gaussian_detector(math.exp(log_sigma), lam, 0.1)
        theta = superop._phase_scale(sys, det)
        assume(not timed or theta <= 300.0)
        ch = build_exact(sys, det)
        finer = default_rule(det, 2 * ch.meta["nodes"] - 1)
        assert (np.abs(ch.tensor - build_exact(sys, det, rule=finer).tensor).max()
                <= ch.meta["quad_bound"])
        ch = build_second_order(sys, det)
        with mock.patch.object(superop, "_sized_rule", return_value=(finer, 0.0)):
            ref = build_second_order(sys, det)
        assert np.abs(ch.tensor - ref.tensor).max() <= ch.meta["quad_bound"]

    @pytest.mark.parametrize("theta", [float("inf"), float("nan"), 1e308])
    def test_unbounded_phase_scale_raises_before_any_node(self, theta):
        with mock.patch.object(superop, "default_rule") as rule, \
                pytest.raises(QuadratureNotConverged, match="trapezoid nodes") as info:
            superop._sized_rule(FIG1_DET, theta, superop.MAX_NODES)
        assert info.value.ladder == []
        rule.assert_not_called()


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

    def test_records_sized_rule(self):
        # n = ceil(c (theta + c) / pi) + 1 nodes resolve the phase scale theta =
        # lambda tau omega / sigma with the margin c = 9, and report the bound
        # 1.0758e-17 of the quadrature plus eps (theta + n) of rounding
        for lam, n in [(50.0, 56), (500.0, 314), (1500.0, 887)]:
            det = gaussian_detector(sigma=1.0, lam=lam, tau=0.1)
            ch = build_exact(FIG1_SYS, det)
            rounding = np.finfo(float).eps * (superop._phase_scale(FIG1_SYS, det) + n)
            assert ch.meta["nodes"] == n
            assert ch.meta["quad_bound"] == pytest.approx(1.0758e-17 + rounding, rel=1e-4)
        fixed = build_exact(FIG1_SYS, FIG1_DET, rule=default_rule(FIG1_DET, 65))
        assert fixed.meta["nodes"] == 65 and fixed.meta["quad_bound"] is None

    @pytest.mark.parametrize("builder", [build_exact, build_second_order])
    def test_every_node_level_is_its_whole_rule(self, builder):
        # one rule, sized once, whose nodes each builder's one pass takes whole
        rng = np.random.default_rng(12)
        sys = SystemSpec(levels=(-1.5, -0.2, 0.4, 1.8), v=random_v(rng, 4, 0.3))
        det = gaussian_detector(sigma=1.0, lam=20.0, tau=0.1)
        with spy_sized_rules(superop) as rules, \
                mock.patch.object(superop, "_node_levels", wraps=superop._node_levels) as levels:
            ch = builder(sys, det)
        assert len(rules) == 1 and len(rules[0]) == ch.meta["nodes"] == 46
        assert levels.call_count == 1 and np.array_equal(levels.call_args.args[2], rules[0].nodes)
        if builder is build_exact:
            assert np.array_equal(ch.tensor, build_exact(sys, det, rule=rules[0]).tensor)

    @pytest.mark.parametrize("timed", [False, True], ids=["constant-v", "timed-v"])
    @pytest.mark.parametrize("builder", [build_exact, build_second_order])
    def test_every_build_gets_normalised_weights(self, builder, timed):
        # each builder averages its one rule, so the substep and Dyson time
        # ladders on it certify that average
        sys, det = channels_small_system()
        if not timed:
            sys = SystemSpec(levels=sys.levels, v=sys.v_at(0.0))
        with spy_sized_rules(superop) as rules:
            builder(sys, det)
        assert len(rules) == 1 and abs(rules[0].weights.sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("lam", [50.0, 500.0])
    def test_each_node_is_propagated_once(self, lam):
        with mock.patch.object(superop, "unitary_exp_stack", wraps=unitary_exp_stack) as stack:
            ch = build_exact(FIG1_SYS, gaussian_detector(sigma=1.0, lam=lam, tau=0.1))
        assert sum(call.args[0].shape[0] for call in stack.call_args_list) == ch.meta["nodes"]

    def test_not_converged_carries_ladder(self):
        # phase scale 100 needs 314 nodes: one fewer allowed raises before any
        # node is propagated, with an empty ladder
        det = gaussian_detector(sigma=1.0, lam=500.0, tau=0.1)
        with mock.patch.object(superop, "MAX_NODES", 313), \
                mock.patch.object(superop, "_propagators") as prop, \
                pytest.raises(QuadratureNotConverged,
                              match="phase scale 100 needs more than 313 trapezoid nodes") as info:
            build_exact(FIG1_SYS, det)
        prop.assert_not_called()
        assert info.value.ladder == []
        with mock.patch.object(superop, "MAX_NODES", 314):
            assert build_exact(FIG1_SYS, det).meta["nodes"] == 314

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
        ch = build_exact(sys, det)
        finer = build_exact(sys, det, rule=default_rule(det, 2 * ch.meta["nodes"] - 1))
        assert np.abs(ch.tensor - finer.tensor).max() <= 1e-14

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
        pert = build_second_order(sys, det, t0=0.4)
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
        # the 39 nodes of the rule sized for phase scale 4, propagated together
        with mock.patch.object(superop, "_propagators", wraps=superop._propagators) as prop:
            ch = build_exact(sys, det)
        climbs = {}
        for call in prop.call_args_list:
            climbs.setdefault(len(call.args[3]), []).append(call.args[4])
        assert list(climbs) == [39] and ch.meta["nodes"] == 39
        assert climbs[39] == [superop.MIN_SUBSTEPS << k for k in range(len(climbs[39]))]
        assert [m for m, _ in ch.meta["substep_ladder"]] == climbs[39][1:]
        assert ch.meta["substeps"] == climbs[39][-1]
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
        pert = build_second_order(sys, FIG1_DET)
        closed = build_unperturbed(sys, FIG1_DET)
        assert np.abs(pert.tensor - closed.tensor).max() < 1e-14

    def test_small_v_matches_exact(self):
        sys = TwoLevelPreset(omega=2.0, v=0.1).to_system()
        pert = build_second_order(sys, FIG1_DET)
        exact = build_exact(sys, FIG1_DET)
        assert np.abs(pert.tensor - exact.tensor).max() < 5e-7

    def test_trace_sum_rule(self):
        pert = build_second_order(FIG1_SYS, FIG1_DET)
        assert trace_sum_rule_defect(pert.tensor) < 1e-10

    @pytest.mark.parametrize("timed", [False, True], ids=["constant", "timed"])
    @pytest.mark.parametrize("steps", [8, 16.5, 256.0, "256"])
    def test_steps_is_deprecated(self, steps, timed):
        sys = SystemSpec(levels=FIG1_SYS.levels, v=lambda t: np.cos(t) * FIG1_SYS.v) if timed \
            else FIG1_SYS
        with pytest.warns(DeprecationWarning, match="steps is ignored"):
            ch = build_second_order(sys, FIG1_DET, steps=steps)
        assert np.array_equal(ch.tensor, build_second_order(sys, FIG1_DET).tensor)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 5), uniform=st.booleans(), aux=st.booleans(),
           lam=st.sampled_from([0.0, 5.0, 20.0]), theta=st.floats(3.0, 1300.0),
           seed=st.integers(0, 2 ** 16))
    # the grid comparison at its largest phase scale
    @example(n=3, uniform=False, aux=False, lam=20.0, theta=63.9, seed=1)
    @example(n=2, uniform=False, aux=True, lam=5.0, theta=63.9, seed=2)
    # strong measurements, on 3752 nodes
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
            fine = second_order_on_grid(sys, det, 0.0, 2048)
            coarse = second_order_on_grid(sys, det, 0.0, 1024)
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
        assert ch.meta["quad_bound"] <= 1e-8
        assert ch.meta["nodes"] <= superop.MAX_NODES
        assert ch.certified_trace_err <= 1e-12
        # what is left against the exact channel is third order in ||V|| tau
        residual = np.abs(ch.tensor - build_exact(sys, det).tensor).max()
        assert residual <= (np.linalg.norm(vmat, 2) * det.tau) ** 3
        above = gaussian_detector(sigma=1.0, lam=1.01 * det.lam, tau=0.1)
        assert set(build_second_order(sys, above).meta) == {"nodes", "quad_bound"}

    def test_phase_scale_beyond_the_node_ladder_raises(self):
        # theta = 3000 needs 8621 > MAX_NODES nodes, found before any node is built
        sys = SystemSpec(levels=(-1.5, -0.2, 0.4, 1.5),
                         v=random_v(np.random.default_rng(11), 4, 0.2))
        det = gaussian_detector(sigma=1.0, lam=3000.0 / 0.3, tau=0.1)
        assert superop._phase_scale(sys, det) == pytest.approx(3000.0, rel=1e-14)
        for build in (lambda: build_exact(sys, det),
                      lambda: build_second_order(sys, det)):
            with pytest.raises(QuadratureNotConverged, match="phase scale 3000") as info:
                build()
            assert info.value.ladder == []

    def test_node_path_meta_for_timed_v(self):
        # phase scale 10: the time steps climb from MIN_STEPS = 16 on the rule's nodes
        timed = SystemSpec(levels=FIG1_SYS.levels, v=lambda t: np.cos(t) * FIG1_SYS.v)
        meta = build_second_order(timed, FIG1_DET).meta
        assert set(meta) == {"nodes", "quad_bound", "steps", "step_ladder"}
        assert meta["nodes"] == 56 and meta["quad_bound"] <= superop.ENTRY_TOL
        assert meta["step_ladder"][0][0] == 2 * superop.MIN_STEPS
        assert meta["step_ladder"][-1][0] == meta["steps"]
        assert meta["step_ladder"][-1][1] <= superop.ENTRY_TOL
        assert set(build_second_order(FIG1_SYS, FIG1_DET).meta) == {"nodes", "quad_bound"}

    def test_time_ladder_certifies_time_dependent_v_against_exact_v2(self):
        # the plain 16-step grid of the first level is 3e-6 off; the ladder's Richardson
        # steps reach the exact V-linear and V-quadratic part to 1e-8 at 128 steps
        vmat = random_v(np.random.default_rng(1), 2, 0.2)
        det = gaussian_detector(sigma=1.0, lam=20.0, tau=0.1)

        def system(scale):
            return SystemSpec(levels=(-2.5, 2.5), v=lambda t: scale * np.cos(3.0 * t) * vmat)

        ch = build_second_order(system(1.0), det)
        assert ch.meta["quad_bound"] <= 1e-8 and ch.meta["step_ladder"][-1][1] <= 1e-8
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

    def test_time_ladder_is_relative_to_a_weak_perturbation(self):
        # at g = 1e-5 the perturbation max|S - S0| is 1.2e-7: an absolute 1e-8 stopped
        # the ladder at 32 steps, 2.4e-6 relative from the tight run
        sys, det = channels_small_system()
        weak = SystemSpec(levels=sys.levels, v=lambda t: 1e-5 * sys.v(t))
        s0 = build_unperturbed(weak, det).tensor
        got = build_second_order(weak, det).tensor - s0
        with mock.patch.object(superop, "ENTRY_TOL", 1e-13):
            tight = build_second_order(weak, det).tensor - s0
        assert np.abs(got - tight).max() <= 1e-8 * np.abs(tight).max()

    @pytest.mark.parametrize("caller", ["build_second_order"])
    def test_time_ladder_exhaustion_carries_ladder(self, caller):
        # a node sum that grows like 1 / h^2 never settles; it stands in for every
        # time level, so no real grid of MAX_STEPS steps is built
        def restless(sys, det, t0, nodes, weights, steps, memo):
            return np.full((sys.dim ** 2,) * 2, weights.sum() * float(steps + 1) ** 2,
                           dtype=complex)

        timed = SystemSpec(levels=FIG1_SYS.levels, v=lambda t: np.cos(t) * FIG1_SYS.v)
        with mock.patch.object(superop, "_dyson_sum_on_grid", restless), \
                pytest.raises(QuadratureNotConverged) as info:
            build_second_order(timed, FIG1_DET)
        ladder = info.value.ladder
        assert [n for n, _ in ladder] == [32 << k for k in range(9)]
        assert ladder[-1][0] == superop.MAX_STEPS
        assert f"8192 time steps still moving by {ladder[-1][1]:.2e}" in str(info.value)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 4), uniform=st.booleans(), aux=st.booleans(),
           lam=st.sampled_from([0.0, 5.0, 20.0]), t0=st.floats(0.1, 3.0),
           hbar=st.sampled_from([0.5, 2.0]), steps=st.sampled_from([16, 32, 64]),
           seed=st.integers(0, 2 ** 16))
    def test_node_sum_matches_grid_at_fixed_steps(self, n, uniform, aux, lam, t0, hbar, steps,
                                                  seed):
        # the node path and the grid take the same trapezoid sums in time; the grid
        # integrates the detector coordinate in closed form, the node rule to rounding
        rng = np.random.default_rng(seed)
        levels = np.linspace(-2.0, 2.0, n) if uniform else np.sort(rng.uniform(-3.0, 3.0, n))
        alphas = tuple((0.0, float(rng.uniform(0.5, 2.0))) for _ in range(n)) if aux else None
        v, u = (random_v(rng, 2 * n if aux else n, 0.2) for _ in range(2))
        sys = SystemSpec(levels=tuple(levels), alpha_energies=alphas, hbar=hbar,
                         v=lambda t: np.cos(3.0 * t) * v + np.sin(5.0 * t) * u)
        det = gaussian_detector(1.0, lam, 0.1)
        rule, _ = superop._sized_rule(det, superop._phase_scale(sys, det), superop.MAX_NODES)
        pn_rm = superop._dyson_sum_on_grid(sys, det, t0, rule.nodes, rule.weights, steps, {})
        grid = second_order_on_grid(sys, det, t0, steps)
        assert np.abs(superop._prnm(pn_rm) - grid).max() <= 1e-14 * np.abs(grid).max()

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
        fast = second_order_on_grid(sys, det, 0.3, 32)
        slow = second_order_on_grid(sys, det, 0.3, 32, kernel=dyson_second_order_per_path)
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
        with mock.patch.object(oracles, "correlation", wraps=correlation) as corr:
            second_order_on_grid(sys, FIG1_DET, 0.0, steps)
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
        w1 = trapezoid_weights(t)
        tri = triangle_weights(t)
        for weight, dense in (("square", np.outer(w1, w1)), ("lower", tri), ("upper", tri.T)):
            terms = x_in[:, None] * dense * x_out
            want = np.array([np.trace(terms, offset=-lag) for lag in range(1 - n, n)])
            got = lag_sums(x_in, x_out, t, weight)
            assert got.shape == (2 * n - 1,)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), weight


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
        second = build_second_order(sys, det)
        grid = build_unperturbed(sys, det).tensor + second_order_on_grid(sys, det, 0.0, 64)
        grid = MeasurementChannel(tensor=grid, method=superop.SECOND_ORDER, t0=0.0, tau=tau,
                                  certified_trace_err=trace_sum_rule_defect(grid))
        channels = [(exact, 1e-12), (build_unperturbed(sys, det), 1e-14),
                    (second, 1e-12), (grid, 1e-5)]
        for ch, cap in channels:
            assert trace_sum_rule_defect(ch.tensor) <= ch.certified_trace_err <= cap
            assert _hermiticity_defect(ch.tensor) <= 1e-14 * np.abs(ch.tensor).max()
        for _ in range(3):
            check_density_matrix(exact.apply(random_density(rng, sys.dim)), trace_tol=1e-8)
