import warnings

import numpy as np
import pytest

from fsm_mcmc import analysis
from fsm_mcmc.analysis import (
    BoundEstimate,
    EfficiencyReport,
    bernoulli_bound_closed_form,
    bound_R,
    concentration_check,
    effective_sample_size,
    efficiency_model,
    efficiency_report,
    verify_prop_bound,
)
from fsm_mcmc.lockstep import CostLedger, CostParams


class TestEfficiencyModel:
    def test_worked_three_state_example(self):
        # K=3, unit costs, alpha=1, E[N]=6, E[max N]=18: (2+18)/(3*(2+6))
        params = CostParams(block_costs=(1.0, 1.0, 1.0), alpha=1.0, loop_states=(2,))
        assert efficiency_model(params, {2: 6.0}, {2: 18.0}) == pytest.approx(20.0 / 24.0)

    def test_single_state_equals_bound(self):
        params = CostParams(block_costs=(1.0,), alpha=1.0)
        assert efficiency_model(params, {1: 6.0}, {1: 18.0}) == pytest.approx(3.0)

    def test_single_chain_single_state_is_one(self):
        params = CostParams(block_costs=(2.5,), alpha=1.0)
        assert efficiency_model(params, {1: 4.0}, {1: 4.0}) == pytest.approx(1.0)

    def test_hand_evaluated_two_loop_case(self):
        # K=3, costs (1, 2, 3), loops {2, 3} with E[N] (2, 1) and E[max N]
        # (3, 4): (1 + 2*3 + 3*4) / (6 * (3 - 2 + 2 + 1)), below max R_s = 4
        params = CostParams(block_costs=(1.0, 2.0, 3.0), alpha=1.0)
        e = efficiency_model(params, {2: 2.0, 3: 1.0}, {2: 3.0, 3: 4.0})
        assert e == pytest.approx(19.0 / 24.0)
        # the loop states are the mappings' keys, not the parameters'
        with_loops = CostParams(block_costs=(1.0, 2.0, 3.0), alpha=1.0, loop_states=(2,))
        assert efficiency_model(with_loops, {2: 2.0, 3: 1.0}, {2: 3.0, 3: 4.0}) == e

    def test_zero_mean_rejected(self):
        params = CostParams(block_costs=(1.0,), alpha=1.0)
        with pytest.raises(ValueError):
            efficiency_model(params, {1: 0.0}, {1: 1.0})


class TestBoundR:
    def test_closed_form_anchors(self):
        for p in (0.01, 0.1, 0.5, 1.0):
            assert bernoulli_bound_closed_form(p, 1) == pytest.approx(1.0, abs=1e-12)
        assert bernoulli_bound_closed_form(0.5, 2) == pytest.approx(1.5, abs=1e-15)

    def test_monte_carlo_matches_closed_form(self):
        est = bound_R(16, bernoulli=(0.1, 3.0), n_replicates=100_000, seed=1)
        assert est.closed_form == pytest.approx(bernoulli_bound_closed_form(0.1, 16))
        assert abs(est.estimate - est.closed_form) / est.closed_form < 0.02

    def test_empirical_resampling_path(self):
        vals = np.array([0, 0, 0, 10.0])
        est = bound_R(4, samples=vals, n_replicates=50_000, seed=2)
        # closed form for this two-point law: (1 - 0.75^4) / 0.25
        expect = (1 - 0.75**4) / 0.25
        assert abs(est.estimate - expect) / expect < 0.03
        assert est.std_error > 0

    def test_nondecreasing_in_m(self):
        closed = [bernoulli_bound_closed_form(0.2, m) for m in (1, 2, 4, 8, 64)]
        assert all(a <= b for a, b in zip(closed, closed[1:]))
        ests = [bound_R(m, bernoulli=(0.2, 1.0), n_replicates=200_000, seed=3).estimate
                for m in (1, 4, 16)]
        assert ests[0] <= ests[1] + 0.01 and ests[1] <= ests[2] + 0.01

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bound_R(2)
        with pytest.raises(ValueError):
            bound_R(2, samples=np.array([]))
        with pytest.raises(ValueError):
            bound_R(0, bernoulli=(0.5, 1.0))


class TestPropBound:
    def test_thousands_of_random_instances_hold(self):
        report = verify_prop_bound(3000, seed=0)
        assert report.ok, report.violations[:3]
        assert report.tightness_cases > 100
        assert report.tightness_max_rel_err < 1e-12


class TestConcentration:
    def test_deterministic_counts_give_zero_deviations(self):
        # drmh's costs: 0.05 + 3.0 + 0.05 has no exact mean over most n
        params = CostParams(block_costs=(0.05, 1.0, 0.05), alpha=1.0, loop_states=(2,))
        runs = [params.barrier_charges({2: np.full((1000, 4), 3, dtype=np.int64)})
                for _ in range(5)]
        rep = concentration_check(runs, (10, 100, 500, 1000))
        assert rep.degenerate
        assert all(d == 0.0 for d in rep.deviations)
        assert rep.slope is None
        assert rep.limit_estimate == runs[0][0]

    def test_iid_counts_recover_half_rate(self):
        rng = np.random.default_rng(4)
        params = CostParams(block_costs=(0.0, 1.0, 0.0), alpha=1.0, loop_states=(2,))
        runs = [params.barrier_charges({2: rng.geometric(0.4, size=(20_000, 4))})
                for _ in range(16)]
        rep = concentration_check(runs, (20, 200, 2000, 20_000))
        assert rep.slope is not None
        assert -0.65 < rep.slope < -0.35

    @pytest.mark.parametrize("seed", range(4))
    def test_fit_equals_linregress(self, seed):
        from scipy import stats  # the reference only; the package avoids it

        rng = np.random.default_rng(seed)
        n_max = int(rng.integers(2_000, 5_000))
        grid = sorted({int(n) for n in np.geomspace(int(rng.integers(5, 20)), n_max,
                                                    int(rng.integers(4, 8)))})
        params = CostParams(block_costs=(0.5, 1.0, 0.25), alpha=1.0, loop_states=(2,))
        runs = [params.barrier_charges({2: rng.geometric(rng.uniform(0.2, 0.6),
                                                         size=(n_max, 3))})
                for _ in range(8)]
        rep = concentration_check(runs, grid)
        fit = stats.linregress(np.log(rep.n_grid), np.log(rep.deviations))
        assert not rep.degenerate
        assert rep.slope == pytest.approx(fit.slope, rel=1e-12)
        assert rep.slope_stderr == pytest.approx(fit.stderr, rel=1e-12)
        half = 1.96 * fit.stderr
        assert rep.slope_ci95 == pytest.approx((fit.slope - half, fit.slope + half),
                                               rel=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            concentration_check([np.ones(100)], (10, 20, 50, 100))
        with pytest.raises(ValueError):
            concentration_check([np.ones(100)], (10, 100))
        with pytest.raises(ValueError):
            concentration_check([np.ones(100)], (1, 10, 100, 1000))


class TestEss:
    def test_iid_calibration(self):
        rng = np.random.default_rng(5)
        chains = rng.normal(size=(10_000, 4, 1))
        summary = effective_sample_size(chains)
        assert 0.8 <= summary.pooled / 40_000 <= 1.2

    def test_ar1_matches_analytic_autocorrelation_time(self):
        rng = np.random.default_rng(6)
        phi, n = 0.5, 100_000
        eps = rng.normal(size=n)
        z = np.empty(n)
        z[0] = eps[0]
        for i in range(1, n):
            z[i] = phi * z[i - 1] + eps[i]
        summary = effective_sample_size(z[:, None, None])
        assert abs(summary.pooled / n - 1.0 / 3.0) < 0.15 / 3.0

    def test_constant_chain_floors_to_one_with_warning(self):
        with pytest.warns(UserWarning):
            summary = effective_sample_size(np.ones((100, 2, 1)))
        assert summary.per_dimension[0] == 1.0
        assert summary.flagged

    def test_anticorrelated_chain_capped_and_flagged(self):
        alt = np.tile(np.array([1.0, -1.0]), 500)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            summary = effective_sample_size(alt[:, None, None])
        assert summary.pooled <= 1000
        assert summary.flagged

    def test_rates_divide_pooled(self):
        rng = np.random.default_rng(7)
        s = effective_sample_size(rng.normal(size=(500, 2, 2)))
        assert len(s.per_dimension) == 2
        assert s.pooled == min(s.per_dimension)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            effective_sample_size(np.zeros((5, 2, 1)))


class TestEfficiencyReport:
    def test_report_from_iter_matrix(self):
        params = CostParams(block_costs=(1.0, 1.0, 1.0), alpha=1.0, loop_states=(2,))
        N = np.array([[3, 1], [1, 3]])

        def ledger(charged, regime):
            return CostLedger(iter_counts=N, loop_exec_counts={2: N}, tick_count=2,
                              block_exec_counts=np.array([4, 8, 4]), charged_cost=charged,
                              walltime=0.0, regime=regime)

        rep = efficiency_report(params, ledger(10.0, "standard"), ledger(8.0, "fsm-plain"))
        assert rep.m == 2
        assert rep.mean_N == pytest.approx(2.0)
        assert rep.mean_max_N == pytest.approx(3.0)
        assert rep.R_of_m == pytest.approx(1.5)
        # (2 + 3) / (3 * (2 + 2))
        assert rep.E_of_m == pytest.approx(5.0 / 12.0)
        assert (rep.standard_cost_per_sample, rep.fsm_cost_per_sample) == (5.0, 4.0)

    def test_r_below_one_rejected(self):
        with pytest.raises(ValueError):
            EfficiencyReport(m=1, E_of_m=0.5, R_of_m=0.5, mean_N=1.0,
                             mean_max_N=0.5, standard_cost_per_sample=1.0,
                             fsm_cost_per_sample=1.0)
