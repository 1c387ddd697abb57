import math

import numpy as np
import pytest

from fsm_mcmc import targets
from fsm_mcmc.targets import (
    TargetError,
    correlated_mog_target,
    equicorrelated_covariance,
    gaussian_target,
    gp_hyperparameter_target,
    make_synthetic_gp_dataset,
    save_gp_dataset_csv,
    standard_normal_target,
)


def finite_difference_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def max_rel_grad_error(target, points, h=1e-5):
    worst = 0.0
    for x in points:
        g = target.gradient(x)
        fd = finite_difference_gradient(target.log_density, x, h)
        scale = max(np.linalg.norm(fd), 1.0)
        worst = max(worst, np.linalg.norm(g - fd) / scale)
    return worst


class TestGaussian:
    def test_standard_normal_mode_value(self):
        t = standard_normal_target(1)
        assert t.log_density(np.zeros(1)) == pytest.approx(-0.5 * math.log(2 * math.pi),
                                                           abs=1e-14)

    def test_gradient_vanishes_at_mean(self):
        mu = np.array([1.5, -2.0])
        t = gaussian_target(mu, np.linalg.cholesky(np.array([[2.0, 0.3], [0.3, 1.0]])))
        assert np.allclose(t.gradient(mu), 0.0)

    def test_correlated_factor_reproduces_rho(self):
        cov = equicorrelated_covariance(2, 0.99)
        L = np.linalg.cholesky(cov)
        rng = np.random.default_rng(0)
        draws = (L @ rng.normal(size=(2, 100_000))).T
        rho_hat = np.corrcoef(draws.T)[0, 1]
        assert abs(rho_hat - 0.99) < 0.01

    def test_log_density_and_grad_consistent(self):
        t = gaussian_target(np.zeros(3), np.linalg.cholesky(
            equicorrelated_covariance(3, 0.4)))
        x = np.array([0.3, -1.2, 2.0])
        lp, g = t.log_density_and_grad(x)
        assert lp == pytest.approx(t.log_density(x))
        assert np.allclose(g, t.gradient(x))

    def test_gradient_matches_finite_differences(self):
        t = gaussian_target(np.zeros(2), np.linalg.cholesky(
            equicorrelated_covariance(2, 0.99)))
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(20, 2))
        assert max_rel_grad_error(t, pts) < 1e-5

    def test_rejects_bad_factor(self):
        with pytest.raises(TargetError):
            gaussian_target(np.zeros(2), np.eye(3))
        with pytest.raises(TargetError):
            gaussian_target(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestMixture:
    def test_single_mode_reduces_to_gaussian(self):
        mix = correlated_mog_target(3, 0.5, [0.0])
        gauss = gaussian_target(np.zeros(3), np.linalg.cholesky(
            equicorrelated_covariance(3, 0.5)))
        rng = np.random.default_rng(2)
        for x in rng.normal(size=(10, 3)):
            assert mix.log_density(x) == pytest.approx(gauss.log_density(x), abs=1e-12)

    def test_symmetric_under_negation(self):
        t = correlated_mog_target(2, 0.0, [-5.0, 5.0])
        rng = np.random.default_rng(3)
        for x in rng.normal(size=(10, 2), scale=3.0):
            assert t.log_density(x) == pytest.approx(t.log_density(-x), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        t = correlated_mog_target(10, 0.99, [-5.0, 0.0, 5.0])
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(20, 10), scale=2.0)
        assert max_rel_grad_error(t, pts) < 1e-5

    def test_log_sum_exp_stays_finite_far_out(self):
        t = correlated_mog_target(4, 0.9, [-5.0, 0.0, 5.0])
        x = np.full(4, 1e3)
        assert math.isfinite(t.log_density(x))
        lp, g = t.log_density_and_grad(x)
        assert math.isfinite(lp) and np.all(np.isfinite(g))

    def test_rejects_singular_covariance(self):
        with pytest.raises(TargetError):
            correlated_mog_target(3, -0.9, [0.0])  # rho < -1/(d-1)
        with pytest.raises(TargetError):
            correlated_mog_target(2, 0.5, [])


class TestGpHyperparameters:
    def test_two_point_closed_form(self):
        # identical inputs, sigma = tau = 1, lam = 0: K = [[2, 1], [1, 2]] (+ jitter)
        X = np.zeros((2, 1))
        y = np.array([0.7, -0.4])
        t = gp_hyperparameter_target(X, y, jitter=1e-8)
        theta = np.array([1.0, 1.0, 0.0])
        K = np.array([[2.0, 1.0], [1.0, 2.0]]) + 1e-8 * np.eye(2)
        expected_lml = (-0.5 * y @ np.linalg.solve(K, y)
                        - 0.5 * math.log(np.linalg.det(K)) - math.log(2 * math.pi))
        lml = t.gaussian_prior.residual_log_density(theta)
        assert lml == pytest.approx(expected_lml, rel=1e-12)
        prior = -0.5 * float(theta @ theta) - 1.5 * math.log(2 * math.pi)
        assert t.log_density(theta) == pytest.approx(expected_lml + prior, rel=1e-12)

    def test_sign_symmetry_in_sigma(self):
        X, y = make_synthetic_gp_dataset(n=20)
        t = gp_hyperparameter_target(X, y)
        theta = np.array([0.4, 0.8, 1.2])
        flipped = theta * np.array([-1.0, 1.0, 1.0])
        assert t.log_density(theta) == t.log_density(flipped)

    def test_gradient_matches_finite_differences(self):
        X, y = make_synthetic_gp_dataset(n=25)
        t = gp_hyperparameter_target(X, y)
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(10, 3), scale=0.8)
        assert max_rel_grad_error(t, pts, h=1e-5) < 1e-4

    def test_prior_decomposition_is_consistent(self):
        X, y = make_synthetic_gp_dataset(n=15)
        t = gp_hyperparameter_target(X, y)
        L = t.gaussian_prior.chol
        assert np.array_equal(L, np.eye(3))
        rng = np.random.default_rng(6)
        # log_density - residual - log N(theta | 0, I) must be constant (here 0)
        for theta in rng.normal(size=(5, 3)):
            log_prior = -0.5 * float(theta @ theta) - 1.5 * math.log(2 * math.pi)
            diff = (t.log_density(theta)
                    - t.gaussian_prior.residual_log_density(theta) - log_prior)
            assert diff == pytest.approx(0.0, abs=1e-10)

    def test_dataset_roundtrip_and_cost_scale(self, tmp_path):
        X, y = make_synthetic_gp_dataset(n=12, p=3)
        path = tmp_path / "gp.csv"
        save_gp_dataset_csv(path, X, y)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(X, data[:, :-1]) and np.allclose(y, data[:, -1])
        t25 = gp_hyperparameter_target(*make_synthetic_gp_dataset(n=25))
        t50 = gp_hyperparameter_target(*make_synthetic_gp_dataset(n=50))
        assert t50.log_density_cost == pytest.approx(8.0 * t25.log_density_cost)

    def test_input_validation(self):
        with pytest.raises(TargetError):
            gp_hyperparameter_target(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(TargetError):
            gp_hyperparameter_target(np.zeros((3, 2)), np.zeros(4))
