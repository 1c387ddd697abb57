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
from fsm_mcmc.lockstep import CostParams


class TestEfficiencyModel:
    def test_worked_three_state_example(self):
        # K=3, unit costs, alpha=1, E[N]=6, E[max N]=18: (2+18)/(3*(2+6))
        params = CostParams(block_costs=(1.0, 1.0, 1.0), alpha=1.0, loop_states=(2,))
        assert efficiency_model(params, 6.0, 18.0) == pytest.approx(20.0 / 24.0)

    def test_single_state_equals_bound(self):
        params = CostParams(block_costs=(1.0,), alpha=1.0)
        assert efficiency_model(params, 6.0, 18.0) == pytest.approx(3.0)

    def test_single_chain_single_state_is_one(self):
        params = CostParams(block_costs=(2.5,), alpha=1.0)
        assert efficiency_model(params, 4.0, 4.0) == pytest.approx(1.0)

    def test_needs_unique_loop_state(self):
        params = CostParams(block_costs=(1.0, 1.0, 1.0), alpha=1.0,
                            loop_states=(2, 3))
        with pytest.raises(ValueError):
            efficiency_model(params, 2.0, 3.0)
        assert efficiency_model(params, 2.0, 3.0, loop_state=2) > 0

    def test_zero_mean_rejected(self):
        params = CostParams(block_costs=(1.0,), alpha=1.0)
        with pytest.raises(ValueError):
            efficiency_model(params, 0.0, 1.0)


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
        runs = [np.full((1000, 4), 3, dtype=np.int64) for _ in range(5)]
        params = CostParams(block_costs=(1.0, 1.0, 1.0), alpha=1.0, loop_states=(2,))
        rep = concentration_check(runs, (10, 100, 500, 1000), params)
        assert rep.degenerate
        assert all(d == 0.0 for d in rep.deviations)
        assert rep.slope is None

    def test_iid_counts_recover_half_rate(self):
        rng = np.random.default_rng(4)
        runs = [rng.geometric(0.4, size=(20_000, 4)) for _ in range(16)]
        params = CostParams(block_costs=(0.0, 1.0, 0.0), alpha=1.0, loop_states=(2,))
        rep = concentration_check(runs, (20, 200, 2000, 20_000), params)
        assert rep.slope is not None
        assert -0.65 < rep.slope < -0.35

    def test_grid_validation(self):
        params = CostParams(block_costs=(1.0,), alpha=1.0)
        with pytest.raises(ValueError):
            concentration_check([np.ones((100, 2))], (10, 20, 50, 100), params)
        with pytest.raises(ValueError):
            concentration_check([np.ones((100, 2))], (10, 100), params)


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
        s = effective_sample_size(rng.normal(size=(500, 2, 2)),
                                  model_cost=10.0, walltime=2.0)
        assert s.per_cost == pytest.approx(s.pooled / 10.0)
        assert s.per_second == pytest.approx(s.pooled / 2.0)
        assert len(s.per_dimension) == 2

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            effective_sample_size(np.zeros((5, 2, 1)))


class TestEfficiencyReport:
    def test_report_from_iter_matrix(self):
        params = CostParams(block_costs=(1.0, 1.0, 1.0), alpha=1.0, loop_states=(2,))
        N = np.array([[3, 1], [1, 3]])
        rep = efficiency_report(params, N, standard_cost_per_sample=5.0,
                                fsm_cost_per_sample=4.0)
        assert rep.m == 2
        assert rep.mean_N == pytest.approx(2.0)
        assert rep.mean_max_N == pytest.approx(3.0)
        assert rep.R_of_m == pytest.approx(1.5)
        assert rep.E_of_m <= rep.R_of_m

    def test_r_below_one_rejected(self):
        with pytest.raises(ValueError):
            EfficiencyReport(m=1, E_of_m=0.5, R_of_m=0.5, mean_N=1.0,
                             mean_max_N=0.5, standard_cost_per_sample=1.0,
                             fsm_cost_per_sample=1.0)
