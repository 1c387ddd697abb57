"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines as
they complete.  The whole module takes roughly 15 minutes on a desktop CPU;
every criterion also enforces its own runtime budget.
"""

import math
import time

import numpy as np
import pytest

from fsm_mcmc import analysis
from fsm_mcmc.analysis import (
    bernoulli_bound_closed_form,
    bound_R,
    concentration_check,
    effective_sample_size,
    verify_prop_bound,
)
from fsm_mcmc.kernels import drmh_kernel, elliptical_kernel, nuts_kernel, slice_kernel
from fsm_mcmc.lockstep import init_batch, run_fsm_batched, run_standard_batched
from fsm_mcmc.targets import (
    correlated_mog_target,
    equicorrelated_covariance,
    gaussian_target,
    gp_hyperparameter_target,
    make_synthetic_gp_dataset,
    standard_normal_target,
)
from tests_common_conjugate import conjugate_posterior, conjugate_target


def report(num: int, desc: str, checks: dict, budget_s: float, elapsed: float):
    ok = all(checks.values()) and elapsed < budget_s
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {desc} "
          f"({detail}; {elapsed:.1f}s / budget {budget_s:.0f}s)")
    failed = [k for k, v in checks.items() if not v]
    assert not failed, f"criterion {num} failed checks: {failed}"
    assert elapsed < budget_s, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    cases = [
        (drmh_kernel(100, 0.1), standard_normal_target(1)),
        (slice_kernel(1.0), standard_normal_target(1)),
        (elliptical_kernel(), conjugate_target()),
        (nuts_kernel(0.75, max_depth=6), standard_normal_target(2)),
    ]
    m, n = 16, 1000
    mismatches = 0
    for bundle, target in cases:
        for seed in range(5):
            ref, _ = run_standard_batched(
                bundle, target, init_batch(bundle, target, m, seed), n)
            for variant in ("plain", "bundled", "amortized"):
                got, _ = run_fsm_batched(
                    bundle, target, init_batch(bundle, target, m, seed), n,
                    step_variant=variant)
                if not np.array_equal(ref, got):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    report(1, "oracle equivalence, 4 kernels x 3 variants x 5 seeds",
           {"zero_mismatches": mismatches == 0}, 120.0, elapsed)


def test_criterion_2_efficiency_bound():
    t0 = time.perf_counter()
    rep = verify_prop_bound(10_000, seed=0)
    elapsed = time.perf_counter() - t0
    report(2, "E(m) <= max_s R_s(m) on 10^4 random multi-loop instances",
           {"zero_violations": rep.ok,
            "tightness_1e-12": rep.tightness_max_rel_err < 1e-12,
            "tightness_family_nonempty": rep.tightness_cases > 0},
           10.0, elapsed)


def test_criterion_3_bernoulli_closed_form():
    t0 = time.perf_counter()
    checks = {}
    for p in (0.01, 0.1, 0.5):
        for m in (1, 16, 256):
            est = bound_R(m, bernoulli=(p, 1.0), n_replicates=100_000, seed=11)
            rel = abs(est.estimate - est.closed_form) / est.closed_form
            checks[f"p{p}_m{m}"] = rel < 0.02
    checks["anchor_R1"] = all(
        abs(bernoulli_bound_closed_form(p, 1) - 1.0) < 1e-12 for p in (0.01, 0.1, 0.5))
    checks["anchor_R2_half"] = bernoulli_bound_closed_form(0.5, 2) == 1.5
    elapsed = time.perf_counter() - t0
    report(3, "Monte-Carlo R(m) vs Bernoulli closed form within 2%",
           checks, 30.0, elapsed)


def test_criterion_4_drmh_sweep():
    t0 = time.perf_counter()
    target = standard_normal_target(1)
    bundle = drmh_kernel(100, 0.1, split_body=True)
    n, seed = 10_000, 0
    ms = (1, 4, 16, 64, 256)
    std_cps, bundled_cps = {}, {}
    r_hat_256 = ratio_256 = None
    plain_ticks_256 = bundled_ticks_256 = None
    for m in ms:
        _, led_std = run_standard_batched(
            bundle, target, init_batch(bundle, target, m, seed), n)
        _, led_b = run_fsm_batched(
            bundle, target, init_batch(bundle, target, m, seed), n,
            step_variant="bundled")
        std_cps[m] = led_std.cost_per_sample()
        bundled_cps[m] = led_b.cost_per_sample()
        if m == 256:
            N = led_std.iter_counts
            r_hat_256 = N.max(axis=1).mean() / N.mean()
            ratio_256 = std_cps[m] / bundled_cps[m]
            bundled_ticks_256 = led_b.tick_count
            _, led_p = run_fsm_batched(
                bundle, target, init_batch(bundle, target, m, seed), n,
                step_variant="plain")
            plain_ticks_256 = led_p.tick_count
    flat = max(bundled_cps.values()) / min(bundled_cps.values())
    increasing = all(std_cps[a] < std_cps[b] for a, b in zip(ms, ms[1:]))
    elapsed = time.perf_counter() - t0
    report(4, "delayed-rejection sweep m in {1..256}",
           {"a_bundled_flat_1.1": flat <= 1.1,
            "b_standard_increasing": increasing,
            "c_ratio_ge_2": ratio_256 >= 2.0,
            "c_ratio_within_1.5x_of_R": r_hat_256 / 1.5 <= ratio_256 <= r_hat_256 * 1.5,
            "d_bundled_2x_fewer_ticks": plain_ticks_256 >= 2 * bundled_ticks_256},
           600.0, elapsed)
    print(f"    detail: flatness={flat:.3f}, ratio_256={ratio_256:.1f}, "
          f"R_hat_256={r_hat_256:.1f}, tick_ratio={plain_ticks_256 / bundled_ticks_256:.2f}")


def test_criterion_5_sampler_correctness():
    t0 = time.perf_counter()
    checks = {}
    # (a) delayed rejection and slice on N(0, 1)
    t = standard_normal_target(1)
    for name, bundle in (("drmh", drmh_kernel(5, 2.5)), ("slice", slice_kernel(1.0))):
        samples, _ = run_standard_batched(
            bundle, t, init_batch(bundle, t, 10, 3), 10_000)
        pooled = samples.reshape(-1)
        checks[f"a_{name}_mean"] = abs(pooled.mean()) < 0.05
        checks[f"a_{name}_var"] = 0.9 <= pooled.var() <= 1.1
    # (b) elliptical slice against the conjugate closed form
    target = conjugate_target()
    mu, cov = conjugate_posterior()
    bundle = elliptical_kernel()
    samples, _ = run_standard_batched(
        bundle, target, init_batch(bundle, target, 10, 5), 10_000)
    pooled = samples.reshape(-1, 2)
    ess = effective_sample_size(samples)
    n_eff = min(ess.per_dimension)
    se_mean = np.sqrt(np.diag(cov) / n_eff)
    checks["b_ell_mean_3se"] = bool(
        np.all(np.abs(pooled.mean(axis=0) - mu) < 3 * se_mean))
    cov_hat = np.cov(pooled.T)
    se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n_eff)
    checks["b_ell_cov_3se"] = bool(np.all(np.abs(cov_hat - cov) < 3 * se_cov))
    # (c) no-u-turn on the 2-d rho=0.99 Gaussian
    cov99 = equicorrelated_covariance(2, 0.99)
    t99 = gaussian_target(np.zeros(2), np.linalg.cholesky(cov99))
    bundle = nuts_kernel(0.16, max_depth=8)
    samples, _ = run_standard_batched(
        bundle, t99, init_batch(bundle, t99, 20, 11), 5250)
    pooled = samples[250:].reshape(-1, 2)
    frob = np.linalg.norm(np.cov(pooled.T) - cov99) / np.linalg.norm(cov99)
    checks["c_nuts_cov_10pct"] = frob < 0.10
    elapsed = time.perf_counter() - t0
    report(5, "sampler moments vs closed forms", checks, 600.0, elapsed)


def test_criterion_6_nuts_skewness_witness():
    t0 = time.perf_counter()
    target = correlated_mog_target(10, 0.99, [-5.0, 0.0, 5.0])
    bundle = nuts_kernel(0.05, max_depth=10)
    m, n, seed = 100, 200, 7
    std_samples, led_std = run_standard_batched(
        bundle, target, init_batch(bundle, target, m, seed), n)
    fsm_samples, led_fsm = run_fsm_batched(
        bundle, target, init_batch(bundle, target, m, seed), n)
    N = led_std.iter_counts
    skew_ratio = N.max(axis=1).mean() / N.mean()
    cost_ratio = led_std.cost_per_sample() / led_fsm.cost_per_sample()
    elapsed = time.perf_counter() - t0
    report(6, "leapfrog-step skew on the 10-d correlated mixture",
           {"samples_equal": np.array_equal(std_samples, fsm_samples),
            "max_over_100_ge_3x_mean": skew_ratio >= 3.0,
            "fsm_cost_at_most_half": cost_ratio >= 2.0},
           600.0, elapsed)
    print(f"    detail: E[max]/E[N]={skew_ratio:.1f}, standard/fsm cost={cost_ratio:.2f}")


def test_criterion_7_concentration_rate():
    t0 = time.perf_counter()
    target = standard_normal_target(1)
    bundle = drmh_kernel(100, 0.1)
    runs = []
    for seed in range(20):
        batch = init_batch(bundle, target, 4, 100 + seed)
        _, led = run_standard_batched(bundle, target, batch, 100_000)
        runs.append(bundle.default_costs.barrier_charges(led.loop_exec_counts))
    rep = concentration_check(runs, (100, 1000, 10_000, 100_000))
    elapsed = time.perf_counter() - t0
    report(7, "per-sample cost concentration rate ~ n^(-1/2)",
           {"slope_in_band": rep.slope is not None and -0.65 <= rep.slope <= -0.35},
           900.0, elapsed)
    print(f"    detail: slope={rep.slope:.3f}, ci95={rep.slope_ci95}")


def test_criterion_8_amortization():
    t0 = time.perf_counter()
    X, y = make_synthetic_gp_dataset(n=50, p=3)
    target = gp_hyperparameter_target(X, y)
    bundle = elliptical_kernel()
    m, n, seed = 64, 200, 0
    params = bundle.default_costs  # shared_cost 1.0 = one marginal-likelihood eval
    _, led_std = run_standard_batched(
        bundle, target, init_batch(bundle, target, m, seed), n, cost_params=params)
    plain_samples, led_plain = run_fsm_batched(
        bundle, target, init_batch(bundle, target, m, seed), n,
        step_variant="plain", cost_params=params)
    amort_samples, led_amort = run_fsm_batched(
        bundle, target, init_batch(bundle, target, m, seed), n,
        step_variant="amortized", cost_params=params)
    improvement = ((led_std.charged_cost / led_amort.charged_cost)
                   / (led_std.charged_cost / led_plain.charged_cost))
    elapsed = time.perf_counter() - t0
    report(8, "log-density amortization on the GP posterior",
           {"identical_samples": np.array_equal(plain_samples, amort_samples),
            "amortized_one_eval_per_tick": led_amort.shared_evals_per_tick == 1,
            "plain_two_evals_per_tick": led_plain.shared_evals_per_tick >= 2,
            "cost_ratio_improvement_1.5": improvement >= 1.5},
           600.0, elapsed)
    print(f"    detail: improvement={improvement:.2f}, "
          f"native evals plain={led_plain.native_shared_evals} "
          f"amortized={led_amort.native_shared_evals}")


def test_criterion_9_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    cases = [
        gaussian_target(np.zeros(2),
                        np.linalg.cholesky(equicorrelated_covariance(2, 0.99))),
        correlated_mog_target(10, 0.99, [-5.0, 0.0, 5.0]),
        gp_hyperparameter_target(*make_synthetic_gp_dataset(n=50, p=3)),
    ]
    checks = {}
    for target in cases:
        worst = 0.0
        for _ in range(20):
            x = rng.normal(size=target.dim)
            g = target.gradient(x)
            fd = np.zeros(target.dim)
            h = 1e-5
            for i in range(target.dim):
                e = np.zeros(target.dim)
                e[i] = h
                fd[i] = (target.log_density(x + e) - target.log_density(x - e)) / (2 * h)
            worst = max(worst, np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1.0))
        checks[target.name] = worst < 1e-4
    elapsed = time.perf_counter() - t0
    report(9, "analytic gradients vs central differences", checks, 60.0, elapsed)
