"""Log-density models for the desk-scale experiments.

Every model exposes ``log_density`` and, where needed, an analytic
``gradient`` (validated against finite differences in the test suite) and a
Gaussian-prior decomposition ``p(x) ∝ f(x) N(x | 0, L Lᵀ)`` for samplers
that move on ellipses of the prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

__all__ = [
    "TargetModel",
    "GaussianPriorDecomposition",
    "TargetError",
    "gaussian_target",
    "correlated_mog_target",
    "gp_hyperparameter_target",
    "make_synthetic_gp_dataset",
    "save_gp_dataset_csv",
]

_LOG_2PI = math.log(2.0 * math.pi)


class TargetError(ValueError):
    """Invalid target construction or evaluation input."""


@dataclass(frozen=True)
class GaussianPriorDecomposition:
    """``p(x) ∝ exp(residual_log_density(x)) * N(x | 0, chol cholᵀ)``."""

    chol: np.ndarray
    residual_log_density: Callable[[np.ndarray], float]


@dataclass(frozen=True)
class TargetModel:
    """A log-density with optional gradient and Gaussian-prior split.

    ``log_density_cost`` is the relative model cost of one evaluation (1.0
    for the cheap analytic targets); cost parameters derived from a target
    use it to price shared log-density work.
    """

    name: str
    dim: int
    log_density: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    log_density_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]] | None = None
    gaussian_prior: GaussianPriorDecomposition | None = None
    log_density_cost: float = 1.0


def _check_chol(L: np.ndarray, name: str = "covariance factor") -> np.ndarray:
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise TargetError(f"{name} must be square, got shape {L.shape}")
    if np.any(np.triu(L, 1) != 0.0):
        raise TargetError(f"{name} must be lower-triangular")
    if np.any(np.diag(L) <= 0.0):
        raise TargetError(f"{name} needs a positive diagonal")
    return L


def gaussian_target(mean: np.ndarray, chol: np.ndarray) -> TargetModel:
    """Exact Gaussian N(mean, L Lᵀ) with analytic gradient."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    L = _check_chol(chol)
    d = mean.shape[0]
    if L.shape != (d, d):
        raise TargetError(f"factor shape {L.shape} does not match dim {d}")
    log_norm = -0.5 * d * _LOG_2PI - float(np.sum(np.log(np.diag(L))))

    if d == 1:
        mu = float(mean[0])
        s = float(L[0, 0])
        inv_var = 1.0 / (s * s)
        const = log_norm

        def log_density(x):
            r = float(x[0]) - mu
            return const - 0.5 * r * r * inv_var

        def gradient(x):
            return np.array([-(float(x[0]) - mu) * inv_var])

        def log_density_and_grad(x):
            r = float(x[0]) - mu
            return const - 0.5 * r * r * inv_var, np.array([-r * inv_var])

    else:
        L_inv = solve_triangular(L, np.eye(d), lower=True)
        prec = L_inv.T @ L_inv

        def log_density(x):
            w = L_inv @ (np.asarray(x, dtype=float) - mean)
            return log_norm - 0.5 * float(w @ w)

        def gradient(x):
            return -(prec @ (np.asarray(x, dtype=float) - mean))

        def log_density_and_grad(x):
            r = np.asarray(x, dtype=float) - mean
            w = L_inv @ r
            return log_norm - 0.5 * float(w @ w), -(prec @ r)

    return TargetModel(
        name=f"gaussian-{d}d",
        dim=d,
        log_density=log_density,
        gradient=gradient,
        log_density_and_grad=log_density_and_grad,
    )


def standard_normal_target(dim: int = 1) -> TargetModel:
    """Convenience N(0, I) target."""
    return gaussian_target(np.zeros(dim), np.eye(dim))


def equicorrelated_covariance(d: int, rho: float) -> np.ndarray:
    """Unit-variance covariance with constant off-diagonal correlation rho."""
    if not -1.0 < rho < 1.0:
        raise TargetError(f"correlation must be in (-1, 1), got {rho}")
    return (1.0 - rho) * np.eye(d) + rho * np.ones((d, d))


def correlated_mog_target(d: int, rho: float, mode_offsets) -> TargetModel:
    """Equal-weight Gaussian mixture with a shared equicorrelated covariance.

    Mode k sits at ``mode_offsets[k] * ones(d)``, i.e. along the covariance's
    principal direction.  Log-density via log-sum-exp; gradient analytic.
    """
    offsets = np.atleast_1d(np.asarray(mode_offsets, dtype=float))
    if offsets.size < 1:
        raise TargetError("need at least one mode")
    cov = equicorrelated_covariance(d, rho)
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise TargetError(f"singular covariance (d={d}, rho={rho})") from exc
    prec = cho_solve((L, True), np.eye(d))
    modes = offsets[:, None] * np.ones(d)[None, :]
    n_modes = offsets.size
    log_norm = (-0.5 * d * _LOG_2PI - float(np.sum(np.log(np.diag(L))))
                - math.log(n_modes))

    def _component_logs(x):
        diffs = x[None, :] - modes
        quad = np.einsum("kd,de,ke->k", diffs, prec, diffs)
        return log_norm - 0.5 * quad, diffs

    def log_density(x):
        x = np.asarray(x, dtype=float)
        logs, _ = _component_logs(x)
        mx = logs.max()
        return mx + math.log(float(np.sum(np.exp(logs - mx))))

    def log_density_and_grad(x):
        x = np.asarray(x, dtype=float)
        logs, diffs = _component_logs(x)
        mx = logs.max()
        w = np.exp(logs - mx)
        total = float(w.sum())
        lp = mx + math.log(total)
        weights = w / total
        grad = -(prec @ (weights @ diffs))
        return lp, grad

    def gradient(x):
        return log_density_and_grad(x)[1]

    return TargetModel(
        name=f"mog-{d}d-rho{rho}",
        dim=d,
        log_density=log_density,
        gradient=gradient,
        log_density_and_grad=log_density_and_grad,
    )


def gp_hyperparameter_target(inputs: np.ndarray, outputs: np.ndarray,
                             jitter: float = 1e-8) -> TargetModel:
    """Posterior over (sigma, tau, lam) of a squared-exponential GP.

    The kernel is ``tau^2 exp(-lam^2 ||x - x'||^2)`` with observation noise
    ``sigma^2``; all three hyperparameters enter squared, carry independent
    N(0, 1) priors and live on the unconstrained real line.  The returned
    model exposes the Gaussian-prior split with identity factor, so the
    marginal likelihood is the residual term.
    """
    X = np.asarray(inputs, dtype=float)
    y = np.asarray(outputs, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise TargetError("inputs must be an n x p matrix with n >= 2")
    if y.shape != (X.shape[0],):
        raise TargetError(f"outputs shape {y.shape} does not match {X.shape[0]} rows")
    n = X.shape[0]
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    eye = np.eye(n)

    def _factor(theta):
        sigma, tau, lam = (float(v) for v in theta)
        E = np.exp(-(lam * lam) * d2)
        K = (tau * tau) * E + (sigma * sigma + jitter) * eye
        try:
            cf = cho_factor(K, lower=True)
        except np.linalg.LinAlgError as exc:
            raise TargetError(
                f"kernel matrix not positive definite at theta={theta} even with jitter {jitter}"
            ) from exc
        return cf, E

    def marginal_log_likelihood(theta):
        cf, _ = _factor(theta)
        alpha = cho_solve(cf, y)
        logdet = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
        return -0.5 * float(y @ alpha) - 0.5 * logdet - 0.5 * n * _LOG_2PI

    def log_density(theta):
        theta = np.asarray(theta, dtype=float)
        return marginal_log_likelihood(theta) - 0.5 * float(theta @ theta) - 1.5 * _LOG_2PI

    def log_density_and_grad(theta):
        theta = np.asarray(theta, dtype=float)
        sigma, tau, lam = (float(v) for v in theta)
        cf, E = _factor(theta)
        alpha = cho_solve(cf, y)
        logdet = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
        lml = -0.5 * float(y @ alpha) - 0.5 * logdet - 0.5 * n * _LOG_2PI
        K_inv = cho_solve(cf, eye)
        A = np.outer(alpha, alpha) - K_inv
        d_sigma = sigma * float(np.trace(A))
        d_tau = tau * float(np.sum(A * E))
        d_lam = -lam * tau * tau * float(np.sum(A * E * d2))
        grad = np.array([d_sigma, d_tau, d_lam]) - theta
        return lml - 0.5 * float(theta @ theta) - 1.5 * _LOG_2PI, grad

    def gradient(theta):
        return log_density_and_grad(theta)[1]

    return TargetModel(
        name=f"gp-hyper-n{n}",
        dim=3,
        log_density=log_density,
        gradient=gradient,
        log_density_and_grad=log_density_and_grad,
        gaussian_prior=GaussianPriorDecomposition(
            chol=np.eye(3),
            residual_log_density=marginal_log_likelihood,
        ),
        # one evaluation factorizes an n x n kernel matrix
        log_density_cost=(n / 50.0) ** 3,
    )


# Fixed generating hyperparameters and seed for the synthetic regression set.
GP_DATA_SEED = 20240617
GP_DATA_THETA = (0.3, 1.0, 1.0)


def make_synthetic_gp_dataset(n: int = 50, p: int = 3, seed: int = GP_DATA_SEED,
                              theta=GP_DATA_THETA) -> tuple[np.ndarray, np.ndarray]:
    """Draw (inputs, outputs) from the GP model at the documented hyperparameters."""
    if n < 2:
        raise TargetError("need n >= 2 data points")
    if p < 0:
        raise TargetError(f"need p >= 0 input dimensions, got {p}")
    sigma, tau, lam = theta
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    Kf = (tau * tau) * np.exp(-(lam * lam) * d2) + 1e-10 * np.eye(n)
    f = np.linalg.cholesky(Kf) @ rng.normal(size=n)
    y = f + sigma * rng.normal(size=n)
    return X, y


def save_gp_dataset_csv(path, X: np.ndarray, y: np.ndarray) -> None:
    """Write the dataset as one CSV with feature columns then the output."""
    data = np.column_stack([X, y])
    header = ",".join([f"x{i}" for i in range(X.shape[1])] + ["y"])
    np.savetxt(path, data, delimiter=",", header=header, comments="")
