import dataclasses
import math

import numpy as np
import pytest

from fsm_mcmc import prng
from fsm_mcmc.fsm import step
from fsm_mcmc.kernels import drmh_kernel, elliptical_kernel, nuts_kernel, slice_kernel
from fsm_mcmc.kernels.base import KernelError
from fsm_mcmc.kernels.nuts import _ckpt_check_range, _ckpt_write_slot
from fsm_mcmc.lockstep import init_batch, run_fsm_batched, run_standard_batched
from fsm_mcmc.targets import (
    GaussianPriorDecomposition,
    TargetModel,
    equicorrelated_covariance,
    gaussian_target,
    standard_normal_target,
)


def conjugate_pair(dim=2, seed_mu=0.5):
    """Gaussian prior x Gaussian likelihood with a closed-form posterior."""
    prior_cov = equicorrelated_covariance(dim, 0.3)
    lik_mu = np.full(dim, seed_mu)
    lik_cov = 0.5 * np.eye(dim)
    lik = gaussian_target(lik_mu, np.linalg.cholesky(lik_cov))
    target = TargetModel(
        name="conjugate",
        dim=dim,
        log_density=lambda x: 0.0,  # unused by the elliptical kernel
        gaussian_prior=GaussianPriorDecomposition(
            chol=np.linalg.cholesky(prior_cov),
            residual_log_density=lik.log_density,
        ),
    )
    post_cov = np.linalg.inv(np.linalg.inv(prior_cov) + np.linalg.inv(lik_cov))
    post_mu = post_cov @ np.linalg.solve(lik_cov, lik_mu)
    return target, post_mu, post_cov


def all_forms_agree(bundle, target, m=4, n=40, seed=11):
    ref, ref_ledger = run_standard_batched(
        bundle, target, init_batch(bundle, target, m, seed), n)
    ledgers = {}
    for variant in ("plain", "bundled", "amortized"):
        got, ledger = run_fsm_batched(
            bundle, target, init_batch(bundle, target, m, seed), n,
            step_variant=variant)
        assert np.array_equal(ref, got), f"{bundle.name}/{variant} samples diverged"
        assert np.array_equal(ref_ledger.iter_counts, ledger.iter_counts), \
            f"{bundle.name}/{variant} inner-loop counts diverged"
        ledgers[variant] = ledger
    return ref, ref_ledger, ledgers


class TestDrmh:
    def test_all_forms_bit_identical(self):
        bundle = drmh_kernel(100, 0.1)
        all_forms_agree(bundle, standard_normal_target(1))

    def test_three_state_topology_with_self_loop(self):
        bundle = drmh_kernel(10, 0.5)
        assert bundle.fsm.labels == ("INIT", "PROPOSE", "DONE")
        assert (2, 2) in bundle.fsm.edges
        assert bundle.fsm.loop_states == frozenset({2})

    def test_split_body_matches_unsplit_samples(self):
        t = standard_normal_target(1)
        plain = drmh_kernel(50, 0.4)
        split = drmh_kernel(50, 0.4, split_body=True)
        a, _ = run_fsm_batched(plain, t, init_batch(plain, t, 3, 5), 60)
        b, _ = run_fsm_batched(split, t, init_batch(split, t, 3, 5), 60)
        assert np.array_equal(a, b)
        all_forms_agree(split, t)

    def test_iter_counts_match_between_forms(self):
        bundle = drmh_kernel(20, 0.3)
        t = standard_normal_target(1)
        _, led_std = run_standard_batched(bundle, t, init_batch(bundle, t, 3, 7), 50)
        _, led_fsm = run_fsm_batched(bundle, t, init_batch(bundle, t, 3, 7), 50)
        assert np.array_equal(led_std.iter_counts, led_fsm.iter_counts)

    def test_single_try_reduces_to_plain_metropolis(self):
        # independent oracle: hand-rolled random-walk Metropolis on the
        # same stream must reproduce the max_tries=1 kernel exactly
        t = standard_normal_target(1)
        bundle = drmh_kernel(1, 2.5)
        k = prng.split(prng.key(42), 1)[0]
        x = np.zeros(1)
        xs = []
        kk = k
        for _ in range(200):
            eps, kk = prng.normal_vec(kk, 1)
            y = x + 2.5 * eps
            u, kk = prng.uniform(kk)
            if t.log_density(y) >= t.log_density(x) or \
                    u < math.exp(t.log_density(y) - t.log_density(x)):
                x = y
            xs.append(x)
        oracle = np.array(xs)
        batch = init_batch(bundle, t, 1, 42)
        got, _ = run_standard_batched(bundle, t, batch, 200)
        assert np.array_equal(oracle, got[:, 0, :])

    def test_uphill_first_stage_always_accepts(self):
        # constant density: every first proposal is uphill-or-equal
        flat = TargetModel(name="flat", dim=1, log_density=lambda x: 0.0)
        bundle = drmh_kernel(30, 1.0)
        _, ledger = run_standard_batched(
            bundle, flat, init_batch(bundle, flat, 2, 1), 100)
        assert np.all(ledger.iter_counts == 1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(KernelError):
            drmh_kernel(0, 1.0)
        with pytest.raises(KernelError):
            drmh_kernel(3, 0.0)

    def test_paper_setting_pooled_moments(self):
        # N(x, 0.1) proposals with up to 100 tries; 10^5 pooled samples.
        # The chain's autocorrelation time is a few hundred here, so the
        # bands sit ~1.5 Monte-Carlo sigma out; the seed is pinned.
        t = standard_normal_target(1)
        bundle = drmh_kernel(100, 0.1)
        samples, _ = run_standard_batched(
            bundle, t, init_batch(bundle, t, 10, 10), 10_000)
        pooled = samples.reshape(-1)
        assert abs(pooled.mean()) < 0.05
        assert 0.9 <= pooled.var() <= 1.1

    def test_split_then_bundled_runs_tick_for_tick_like_condensed(self):
        # unrolling the proposal stage into four sub-states and bundling
        # them recovers the one-effective-state machine's tick sequence
        t = standard_normal_target(1)
        condensed = drmh_kernel(50, 0.3)
        split = drmh_kernel(50, 0.3, split_body=True)
        for seed in (0, 1, 2):
            s_c, led_c = run_fsm_batched(
                condensed, t, init_batch(condensed, t, 4, seed), 100,
                step_variant="bundled")
            s_s, led_s = run_fsm_batched(
                split, t, init_batch(split, t, 4, seed), 100,
                step_variant="bundled")
            assert np.array_equal(s_c, s_s)
            assert led_c.tick_count == led_s.tick_count
            assert np.array_equal(led_c.sample_ticks, led_s.sample_ticks)

    def test_detailed_balance_by_exact_enumeration(self):
        # five-state ring, symmetric +/-1 proposals, enumerable stage trees:
        # the empirical transition matrix is computed exactly and must leave
        # the target distribution invariant
        pi = np.array([0.35, 0.05, 0.25, 0.2, 0.15])
        n_states = 5
        max_tries = 3

        def neighbors(s):
            return [(s - 1) % n_states, (s + 1) % n_states]

        def stage(x, center, best, depth, prob, T_row):
            # enumerate candidates at this stage; recurse on rejection
            for y in neighbors(center):
                p_y = prob * 0.5
                if pi[y] >= pi[x]:
                    alpha = 1.0
                else:
                    alpha = max(0.0, pi[y] - best) / (pi[x] - best)
                if alpha > 0.0:
                    T_row[y] += p_y * alpha
                if depth < max_tries and alpha < 1.0:
                    stage(x, y, max(best, pi[y]), depth + 1, p_y * (1 - alpha), T_row)
                else:
                    T_row[x] += p_y * (1 - alpha)

        T = np.zeros((n_states, n_states))
        for x in range(n_states):
            stage(x, x, 0.0, 1, 1.0, T[x])
        assert np.allclose(T.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(pi @ T, pi, atol=1e-12)


class TestSlice:
    def test_all_forms_bit_identical(self):
        bundle = slice_kernel(1.0)
        all_forms_agree(bundle, standard_normal_target(1))

    def test_stitched_five_state_labels(self):
        bundle = slice_kernel(1.0)
        assert bundle.fsm.labels == ("INIT-E", "EXPAND", "INIT-S", "SHRINK", "DONE")
        assert bundle.fsm.loop_states == frozenset({2, 4})

    def test_univariate_only(self):
        bundle = slice_kernel(1.0)
        t2 = standard_normal_target(2)
        with pytest.raises(KernelError):
            init_batch(bundle, t2, 1, 0)

    def test_zero_expansion_budget_never_expands(self):
        bundle = slice_kernel(0.5, max_expansions=0)
        t = standard_normal_target(1)
        _, ledger = run_fsm_batched(bundle, t, init_batch(bundle, t, 2, 3), 50)
        assert ledger.block_exec_counts[1] == 0  # EXPAND state
        assert np.all(ledger.loop_exec_counts[2] == 0)

    def test_compact_uniform_support_expands_at_most_once(self):
        def logp(x):
            return 0.0 if 0.0 <= float(x[0]) <= 1.0 else -math.inf

        t = TargetModel(name="uniform01", dim=1, log_density=logp)
        bundle = slice_kernel(10.0, max_expansions=8)
        batch = init_batch(bundle, t, 2, 9, x0=np.array([0.5]))
        samples, ledger = run_standard_batched(bundle, t, batch, 200)
        assert np.all(ledger.loop_exec_counts[2] <= 1)
        assert samples.min() >= 0.0 and samples.max() <= 1.0

    def test_expand_and_shrink_counts_split(self):
        bundle = slice_kernel(0.2, max_expansions=50)  # narrow width forces expands
        t = standard_normal_target(1)
        _, ledger = run_standard_batched(bundle, t, init_batch(bundle, t, 2, 4), 100)
        assert ledger.loop_exec_counts[2].sum() > 0
        assert ledger.loop_exec_counts[4].sum() > 0
        total = ledger.loop_exec_counts[2] + ledger.loop_exec_counts[4]
        assert np.array_equal(ledger.iter_counts, total)


class TestElliptical:
    def test_all_forms_bit_identical(self):
        target, _, _ = conjugate_pair()
        all_forms_agree(elliptical_kernel(), target)

    def test_single_loop_labels(self):
        bundle = elliptical_kernel()
        assert bundle.fsm.labels == ("INIT", "SHRINK", "DONE")
        assert bundle.fsm.shared is not None
        assert bundle.fsm.shared.sites == {1: 1, 2: 1}

    def test_pure_prior_accepts_first_proposal(self):
        d = 3
        target = TargetModel(
            name="pure-prior", dim=d, log_density=lambda x: 0.0,
            gaussian_prior=GaussianPriorDecomposition(
                chol=np.eye(d), residual_log_density=lambda x: 0.0),
        )
        bundle = elliptical_kernel()
        _, ledger = run_standard_batched(
            bundle, target, init_batch(bundle, target, 3, 2), 100)
        assert np.all(ledger.iter_counts == 0)

    def test_bracket_shrinks_and_contains_theta(self):
        # the first shrink pins the end the initial angle sits on (a no-op on
        # the width); every later one cuts the bracket strictly
        target, _, _ = conjugate_pair()
        bundle = elliptical_kernel()
        batch = init_batch(bundle, target, 1, 13)
        z = batch.locals[0]
        k = 1
        shrinks_this_sample = 0
        strict_decreases = 0
        for _ in range(300):
            width_before = z.tmax - z.tmin
            out = step(bundle.fsm, k, z)
            if out.executed[0] == 1:
                shrinks_this_sample = 0
                assert z.tmin <= z.theta <= z.tmax
                assert (z.tmin, z.tmax) == (z.theta - 2 * math.pi, z.theta)
            if out.executed[0] == 2:
                shrinks_this_sample += 1
                width_after = z.tmax - z.tmin
                assert width_after <= width_before
                if shrinks_this_sample > 1:
                    assert width_after < width_before
                    strict_decreases += 1
                assert z.tmin <= z.theta <= z.tmax
            k = out.state
        assert strict_decreases > 0

    def test_shrink_rule_pins_the_crossed_end(self):
        # drive one chain manually; whenever a shrink happens with a negative
        # angle, the lower end moves up to it, otherwise the upper end moves
        target, _, _ = conjugate_pair()
        bundle = elliptical_kernel()
        batch = init_batch(bundle, target, 1, 29)
        z = batch.locals[0]
        k = 1
        checked = 0
        for _ in range(400):
            theta_before = z.theta
            tmin_before, tmax_before = z.tmin, z.tmax
            out = step(bundle.fsm, k, z)
            if out.executed[0] == 2:
                if theta_before < 0:
                    assert z.tmin == theta_before and z.tmax == tmax_before
                else:
                    assert z.tmax == theta_before and z.tmin == tmin_before
                checked += 1
            k = out.state
        assert checked > 0

    def test_requires_prior_decomposition(self):
        bundle = elliptical_kernel()
        plain = standard_normal_target(2)
        with pytest.raises(KernelError):
            init_batch(bundle, plain, 1, 0)

    def test_check_target_rejects_target_without_prior_split(self):
        with pytest.raises(KernelError, match="Gaussian-prior"):
            elliptical_kernel().check_target(standard_normal_target(1))
        elliptical_kernel().check_target(conjugate_pair()[0])

    @pytest.mark.parametrize("chol", [
        [[1.0, 0.5], [0.0, 1.0]],   # upper-triangular
        [[1.0, 0.0], [0.5, -1.0]],  # negative diagonal
        [[1.0]],                    # wrong shape
    ])
    def test_check_target_rejects_a_bad_prior_factor(self, chol):
        target = conjugate_pair()[0]
        bad = dataclasses.replace(target, gaussian_prior=dataclasses.replace(
            target.gaussian_prior, chol=np.array(chol)))
        with pytest.raises(KernelError, match="lower-triangular"):
            elliptical_kernel().check_target(bad)

    def test_posterior_matches_conjugate_closed_form(self):
        target, post_mu, post_cov = conjugate_pair()
        bundle = elliptical_kernel()
        batch = init_batch(bundle, target, 8, 17)
        samples, _ = run_standard_batched(bundle, target, batch, 4000)
        pooled = samples[500:].reshape(-1, 2)
        assert np.allclose(pooled.mean(axis=0), post_mu, atol=0.05)
        assert np.linalg.norm(np.cov(pooled.T) - post_cov) < 0.05


class TestNuts:
    def test_all_forms_bit_identical(self):
        bundle = nuts_kernel(0.5, max_depth=6)
        all_forms_agree(bundle, standard_normal_target(2))

    def test_check_target_rejects_target_without_gradient(self):
        no_grad = TargetModel(name="no-grad", dim=2, log_density=lambda x: 0.0)
        with pytest.raises(KernelError, match="gradient"):
            nuts_kernel(0.1).check_target(no_grad)
        nuts_kernel(0.1).check_target(standard_normal_target(2))

    def test_fsm_topology_matches_nested_shape(self):
        bundle = nuts_kernel(0.3)
        assert bundle.fsm.labels == ("INIT", "DOUBLE", "INTEGRATE", "CHECK", "DONE")
        expected = {(1, 2), (1, 5), (2, 3), (2, 4), (3, 3), (3, 4),
                    (4, 2), (4, 5), (5, 1)}
        assert set(bundle.fsm.edges) == expected

    def test_max_depth_one_caps_leapfrog_steps(self):
        bundle = nuts_kernel(0.5, max_depth=1)
        t = standard_normal_target(2)
        _, ledger = run_standard_batched(bundle, t, init_batch(bundle, t, 2, 3), 200)
        assert ledger.iter_counts.max() <= 2

    def test_trajectory_bounded_by_depth_cap(self):
        bundle = nuts_kernel(0.25, max_depth=4)
        t = standard_normal_target(2)
        _, ledger = run_standard_batched(bundle, t, init_batch(bundle, t, 2, 5), 300)
        assert ledger.iter_counts.max() <= 2**4

    def test_integrate_counts_match_between_forms(self):
        bundle = nuts_kernel(0.4, max_depth=6)
        t = standard_normal_target(2)
        _, led_std = run_standard_batched(bundle, t, init_batch(bundle, t, 3, 19), 80)
        _, led_fsm = run_fsm_batched(bundle, t, init_batch(bundle, t, 3, 19), 80)
        for s in (2, 3, 4):
            assert np.array_equal(led_std.loop_exec_counts[s],
                                  led_fsm.loop_exec_counts[s])

    def test_checkpoint_slots_cover_exactly_the_balanced_subtrees(self):
        # brute force: for every odd leaf, the checked slots must hold the
        # left boundaries of the balanced subtrees ending at that leaf
        for depth in range(1, 7):
            slot_contents = {}
            for leaf in range(2**depth):
                if leaf % 2 == 0:
                    slot_contents[_ckpt_write_slot(leaf)] = leaf
                else:
                    lo, hi = _ckpt_check_range(leaf)
                    expected_bounds = []
                    k = 1
                    while leaf % (2**k) == 2**k - 1 and 2**k <= leaf + 1:
                        expected_bounds.append(leaf - 2**k + 1)
                        k += 1
                    got = [slot_contents[s] for s in range(lo, hi + 1)]
                    assert sorted(got) == sorted(expected_bounds), (depth, leaf)

    def test_nan_density_aborts_with_chain_context(self):
        def bad(x):
            return math.nan, np.zeros(1)

        t = TargetModel(name="nan", dim=1, log_density=lambda x: math.nan,
                        log_density_and_grad=bad, gradient=lambda x: np.zeros(1))
        bundle = nuts_kernel(0.5)
        from fsm_mcmc.lockstep import KernelRunError
        with pytest.raises(KernelRunError) as info:
            run_standard_batched(bundle, t, init_batch(bundle, t, 2, 0), 5)
        assert info.value.chain == 0 and info.value.iteration == 0

    def test_gradient_only_target_composes_value_and_grad(self):
        base = standard_normal_target(2)
        t = TargetModel(name="grad-only", dim=2, log_density=base.log_density,
                        gradient=base.gradient)
        bundle = nuts_kernel(0.5, max_depth=5)
        full, _ = run_standard_batched(
            bundle, base, init_batch(bundle, base, 2, 3), 30)
        split, _ = run_standard_batched(
            bundle, t, init_batch(bundle, t, 2, 3), 30)
        assert np.array_equal(full, split)

    def test_two_dim_gaussian_moments_roughly_right(self):
        t = standard_normal_target(2)
        bundle = nuts_kernel(0.6, max_depth=6)
        batch = init_batch(bundle, t, 4, 23)
        samples, _ = run_standard_batched(bundle, t, batch, 2500)
        pooled = samples[200:].reshape(-1, 2)
        assert np.allclose(pooled.mean(axis=0), 0.0, atol=0.08)
        assert np.allclose(np.cov(pooled.T), np.eye(2), atol=0.12)
