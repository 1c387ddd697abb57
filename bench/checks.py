"""Correctness checks on the program's outputs, computed by the benchmark itself.

Every check raises :class:`CheckFailed` with a reason.  None of them compares
a value with the thing it was computed from: statistical checks use
standard errors estimated from the samples by batch means, the GP check
recomputes log-densities with its own Cholesky factorization, and the
ledger checks recompute the model charge and E(m), R(m) from the recorded
iteration counts.
"""

from __future__ import annotations

import math

import numpy as np

# Statistical checks pass while the estimate is within this many standard
# errors of the exact value: a false alarm has probability below 1e-8 per
# quantity, a shift of a few standard errors is caught.
Z_LIMIT = 6.0


class CheckFailed(AssertionError):
    """A program output failed one of the benchmark's checks."""


def _fail_unless(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def batch_means_se(values: np.ndarray, batches_per_chain: int) -> float:
    """Standard error of the mean of an (n, m) array of per-sample values.

    Each chain is cut into ``batches_per_chain`` contiguous batches; with
    batches long against the autocorrelation time their means are close to
    independent, so their spread gives the standard error (and with it the
    effective sample size, ``var / se**2``) without the program's ESS code.
    """
    n, m = values.shape
    size = n // batches_per_chain
    if size < 1:
        raise ValueError(f"{n} samples per chain is too few for {batches_per_chain} batches")
    trimmed = values[: size * batches_per_chain]
    means = trimmed.reshape(batches_per_chain, size, m).mean(axis=1).ravel()
    return float(means.std(ddof=1) / math.sqrt(means.size))


def _check_moment(name: str, values: np.ndarray, exact: float, batches: int) -> None:
    est = float(values.mean())
    se = batch_means_se(values, batches)
    _fail_unless(abs(est - exact) <= Z_LIMIT * se,
                 f"{name} = {est:.5g}, exact {exact:.5g}, standard error {se:.3g} "
                 f"(limit {Z_LIMIT} standard errors)")


def check_standard_normal(samples: np.ndarray, batches: int = 1) -> None:
    """Pooled mean 0 and variance 1 of (n, m, 1) samples of N(0, 1)."""
    x = samples[:, :, 0]
    _check_moment("pooled mean", x, 0.0, batches)
    _check_moment("pooled variance", x * x, 1.0, batches)


def check_covariance(samples: np.ndarray, cov: np.ndarray, batches: int) -> None:
    """Every second moment E[x_a x_b] of zero-mean (n, m, d) samples matches ``cov``."""
    d = samples.shape[2]
    for a in range(d):
        for b in range(a, d):
            _check_moment(f"E[x{a} x{b}]", samples[:, :, a] * samples[:, :, b],
                          float(cov[a, b]), batches)


def gp_log_density(theta: np.ndarray, X: np.ndarray, y: np.ndarray,
                   jitter: float = 1e-8) -> float:
    """Log posterior of the squared-exponential GP hyperparameters.

    Kernel ``tau^2 exp(-lam^2 |x - x'|^2) + (sigma^2 + jitter) I``, Gaussian
    likelihood of ``y``, and an N(0, I) prior on ``theta = (sigma, tau, lam)``.
    """
    sigma, tau, lam = (float(v) for v in theta)
    diff = X[:, None, :] - X[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    K = tau * tau * np.exp(-lam * lam * d2) + (sigma * sigma + jitter) * np.eye(len(y))
    L = np.linalg.cholesky(K)
    w = np.linalg.solve(L, y)
    n = len(y)
    log_lik = -0.5 * float(w @ w) - float(np.sum(np.log(np.diag(L)))) \
        - 0.5 * n * math.log(2 * math.pi)
    log_prior = -0.5 * float(theta @ theta) - 0.5 * len(theta) * math.log(2 * math.pi)
    return log_lik + log_prior


def check_gp_log_density(thetas: np.ndarray, X: np.ndarray, y: np.ndarray,
                         program_log_density) -> None:
    """The program's log-density at each sample equals the benchmark's own."""
    for theta in thetas:
        mine = gp_log_density(theta, X, y)
        theirs = float(program_log_density(theta))
        _fail_unless(abs(mine - theirs) <= 1e-7 * max(1.0, abs(mine)),
                     f"log-density at {theta}: program {theirs!r}, benchmark {mine!r}")


def check_samples_equal(barrier: np.ndarray, machine: np.ndarray) -> None:
    """The two regimes' sample arrays are bit-identical."""
    _fail_unless(barrier.shape == machine.shape and np.array_equal(barrier, machine),
                 "barrier and state-machine samples differ")


def check_iteration_counts(barrier_ledger, fsm_ledger) -> None:
    """Both ledgers record the same per-sample inner-loop counts."""
    _fail_unless(np.array_equal(barrier_ledger.iter_counts, fsm_ledger.iter_counts),
                 "per-sample inner-loop counts differ between the regimes")
    _fail_unless(barrier_ledger.loop_exec_counts.keys() == fsm_ledger.loop_exec_counts.keys()
                 and all(np.array_equal(v, fsm_ledger.loop_exec_counts[s])
                         for s, v in barrier_ledger.loop_exec_counts.items()),
                 "per-sample loop-state counts differ between the regimes")


def barrier_charge(params, loop_exec_counts: dict) -> float:
    """Barrier model charge: per sample row, non-loop blocks once plus each
    loop block times the slowest chain's executions of it."""
    full = [c + s * params.shared_cost
            for c, s in zip(params.block_costs, params.shared_sites)]
    loops = set(params.loop_states)
    rest = sum(c for k, c in enumerate(full, start=1) if k not in loops)
    n = next(iter(loop_exec_counts.values())).shape[0]
    per_row = np.full(n, rest)
    for s in sorted(loops):
        per_row = per_row + full[s - 1] * loop_exec_counts[s].max(axis=1)
    return float(per_row.sum())


def check_barrier_charge(params, barrier_ledger) -> None:
    mine = barrier_charge(params, barrier_ledger.loop_exec_counts)
    theirs = barrier_ledger.charged_cost
    _fail_unless(abs(mine - theirs) <= 1e-9 * max(1.0, abs(mine)),
                 f"barrier model charge: ledger {theirs!r}, recomputed {mine!r}")


def efficiency(params, iter_counts: np.ndarray) -> tuple[float, float]:
    """E(m) and R(m) of a single-loop kernel from its (n, m) iteration counts."""
    full = [c + s * params.shared_cost
            for c, s in zip(params.block_costs, params.shared_sites)]
    (loop,) = params.loop_states
    N = np.asarray(iter_counts, dtype=float)
    mean_n = float(N.mean())
    mean_max = float(N.max(axis=1).mean())
    c_loop = full[loop - 1]
    c_rest = sum(full) - c_loop
    e = (c_rest + c_loop * mean_max) / (params.alpha * sum(full) * (len(full) - 1 + mean_n))
    return e, mean_max / mean_n


def check_efficiency_bound(params, iter_counts: np.ndarray, report) -> None:
    """E(m) <= R(m), and the program's report carries the same two values."""
    e, r = efficiency(params, iter_counts)
    _fail_unless(e <= r * (1 + 1e-12), f"E(m) = {e!r} exceeds R(m) = {r!r}")
    for name, mine, theirs in (("E(m)", e, report.E_of_m), ("R(m)", r, report.R_of_m)):
        _fail_unless(abs(mine - theirs) <= 1e-9 * max(1.0, abs(mine)),
                     f"{name}: program reports {theirs!r}, recomputed {mine!r}")
