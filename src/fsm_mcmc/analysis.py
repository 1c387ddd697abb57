"""Cost theory made executable, plus sampling diagnostics.

The quantities here are all about per-sample loop counts: N_s(i, j) is how
often chain j ran loop state s for its i-th sample, and the kernel's
inner-iteration count N sums its ``iter_states`` among them.

* ``efficiency_model`` - E(m), the modeled long-run cost ratio of the
  barrier regime over the state-machine regime given block costs, the
  dispatch factor alpha and the loop states' E[N_s] and E[max_j N_s]: one
  formula for every machine, with E(m) <= max_s R_s(m).
* ``bound_R`` - R(m) = E[max of m iid N] / E[N], the ceiling on the
  de-synchronization speed-up, estimated by Monte Carlo (with the Bernoulli
  closed form when applicable).
* ``verify_prop_bound`` - random multi-loop instances check
  E(m) <= max_s R_s, with equality on the single-state family.
* ``concentration_check`` - fits the n^{-1/2} convergence rate of the
  per-sample barrier charge.
* ``effective_sample_size`` - autocorrelation-time ESS with Geyer's initial
  monotone sequence, combined across chains.

Everything here is numpy.  Importing ``fsm_mcmc.cli`` loads only two public
scipy subpackages: ``scipy.special`` (for the PRNG's ``ndtri``) and
``scipy.linalg`` (for the targets' Cholesky factorizations and triangular
solves).  ``scipy.stats`` would add eight more (constants, fft, integrate,
interpolate, ndimage, optimize, sparse, spatial) to every run: on a 2-core
VM it took ``import fsm_mcmc.cli`` from 0.7 s and 61 MB of resident memory
to 1.6 s and 101 MB.  So a diagnostic here is written in numpy; a
rank-normalized R-hat, say, ranks with numpy, not ``scipy.stats.rankdata``.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .lockstep import CostLedger, CostParams

__all__ = [
    "efficiency_model",
    "efficiency_report",
    "EfficiencyReport",
    "bound_R",
    "BoundEstimate",
    "bernoulli_bound_closed_form",
    "verify_prop_bound",
    "PropBoundReport",
    "concentration_check",
    "ConcentrationReport",
    "effective_sample_size",
    "EssSummary",
    "MIN_ESS_SAMPLES",
]

# the shortest chains effective_sample_size accepts
MIN_ESS_SAMPLES = 10


def efficiency_model(params: CostParams, mean_N: Mapping[int, float],
                     mean_max_N: Mapping[int, float]) -> float:
    """Modeled long-run cost ratio E(m) of barrier over state-machine execution.

    The loop states L are the keys of ``mean_N`` {s: mu_s = E[N_s]} and
    ``mean_max_N`` {s: M_s = E[max_j N_s]}; every other state runs once per
    sample.  With full block costs c_1..c_K,
    E(m) = (sum_{s not in L} c_s + sum_{s in L} c_s M_s)
           / (alpha * sum_s c_s * (K - |L| + sum_{s in L} mu_s)).
    E(m) <= R* = max_s R_s, R_s = M_s / mu_s >= 1, since c_s M_s <= R* c_s mu_s
    (and c_s <= R* c_s off L), and alpha sum_s c_s >= max_s c_s.
    """
    full = params.full_block_costs()
    denom = params.alpha * sum(full) * (len(full) - len(mean_N) + sum(mean_N.values()))
    if denom == 0:
        raise ValueError("zero denominator: every state is a loop state that never ran")
    num = sum(c for s, c in enumerate(full, start=1) if s not in mean_N)
    for s in sorted(mean_N):
        num += full[s - 1] * mean_max_N[s]
    return num / denom


@dataclass(frozen=True)
class EfficiencyReport:
    """Model efficiency of one paired run at a given chain count."""

    m: int
    E_of_m: float
    R_of_m: float
    mean_N: float
    mean_max_N: float
    standard_cost_per_sample: float
    fsm_cost_per_sample: float

    def __post_init__(self):
        if self.R_of_m < 1.0 - 1e-9:
            raise ValueError(f"R(m) must be >= 1, got {self.R_of_m}")


def efficiency_report(params: CostParams, barrier_ledger: CostLedger,
                      fsm_ledger: CostLedger) -> EfficiencyReport:
    """Summarize a paired run: E(m) over the barrier's loop-state counts,
    mean_N, mean_max_N and R(m) of the kernel's N."""
    counts = barrier_ledger.loop_exec_counts
    N = barrier_ledger.iter_counts
    mean_N = float(N.mean())
    mean_max = float(N.max(axis=1).mean())
    return EfficiencyReport(
        m=N.shape[1],
        E_of_m=efficiency_model(params, {s: float(c.mean()) for s, c in counts.items()},
                                {s: float(c.max(axis=1).mean()) for s, c in counts.items()}),
        R_of_m=mean_max / mean_N if mean_N > 0 else 1.0,
        mean_N=mean_N,
        mean_max_N=mean_max,
        standard_cost_per_sample=barrier_ledger.cost_per_sample(),
        fsm_cost_per_sample=fsm_ledger.cost_per_sample(),
    )


def bernoulli_bound_closed_form(p: float, m: int) -> float:
    """R(m) for N/B ~ Bernoulli(p): (1 - (1-p)^m) / p."""
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return (1.0 - (1.0 - p) ** m) / p


@dataclass(frozen=True)
class BoundEstimate:
    m: int
    estimate: float
    std_error: float
    closed_form: float | None = None


def bound_R(m: int, samples: np.ndarray | None = None,
            bernoulli: tuple[float, float] | None = None,
            n_replicates: int = 100_000, seed: int = 0) -> BoundEstimate:
    """Monte-Carlo estimate of R(m) = E[max of m iid N] / E[N].

    ``samples`` gives an empirical N distribution (resampled with
    replacement); ``bernoulli=(p, B)`` draws from the two-point family and
    attaches its closed form.  The standard error covers the Monte-Carlo
    noise of the numerator.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if (samples is None) == (bernoulli is None):
        raise ValueError("pass exactly one of samples= or bernoulli=")
    rng = np.random.default_rng(seed)
    if bernoulli is not None:
        p, B = bernoulli
        hits = rng.random((n_replicates, m)) < p
        maxima = hits.any(axis=1).astype(float) * B
        mean_N = p * B
        closed = bernoulli_bound_closed_form(p, m)
    else:
        vals = np.asarray(samples, dtype=float)
        if vals.size == 0:
            raise ValueError("empty sample")
        if np.any(vals < 0):
            raise ValueError("iteration counts must be nonnegative")
        mean_N = float(vals.mean())
        if mean_N <= 0:
            raise ValueError("sample mean must be positive")
        idx = rng.integers(0, vals.size, size=(n_replicates, m))
        maxima = vals[idx].max(axis=1)
        closed = None
    est = float(maxima.mean()) / mean_N
    se = float(maxima.std(ddof=1)) / math.sqrt(n_replicates) / mean_N
    return BoundEstimate(m=m, estimate=est, std_error=se, closed_form=closed)


@dataclass
class PropBoundReport:
    trials: int
    violations: list = field(default_factory=list)
    max_excess: float = 0.0
    tightness_cases: int = 0
    tightness_max_rel_err: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def _discrete_mean_and_max_mean(values: np.ndarray, probs: np.ndarray, m: int
                                ) -> tuple[float, float]:
    """Exact E[N] and E[max of m iid N] for a discrete distribution on >= 0 ints."""
    mean = float(values @ probs)
    # E[max] = sum_{t >= 0} P(max > t) over the integer grid up to max value
    top = int(values.max())
    pmf_full = np.zeros(top + 1)
    pmf_full[values] = probs
    cdf_full = np.cumsum(pmf_full)
    e_max = float(np.sum(1.0 - cdf_full[:-1] ** m)) if top > 0 else 0.0
    return mean, e_max


def verify_prop_bound(trials: int, seed: int = 0, tol: float = 1e-12) -> PropBoundReport:
    """Random-instance verification that E(m) <= max_s R_s(m).

    Each trial draws K in 1..6, nonnegative block costs, an admissible alpha
    (its lower endpoint with probability 1/4), m in 1..64 and a set L of
    loop states: {1} for K = 1, else a non-empty proper subset of 1..K.
    Each loop state gets its own bounded discrete N distribution with
    positive mean, and both sides are evaluated exactly.  K = 1 instances
    must give equality to ``tol`` relative error.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    report = PropBoundReport(trials=trials)
    for t in range(trials):
        K = int(rng.integers(1, 7))
        m = int(rng.integers(1, 65))
        if K == 1:
            costs = (float(rng.uniform(0.1, 3.0)),)
            alpha = 1.0
            loops = [1]
        else:
            costs = tuple(rng.uniform(0.0, 3.0, size=K))
            if sum(costs) == 0.0:
                costs = tuple(c + 0.1 for c in costs)
            loops = sorted(int(s) for s in rng.choice(
                np.arange(1, K + 1), size=int(rng.integers(1, K)), replace=False))
            lo = max(costs) / sum(costs)
            alpha = lo if rng.random() < 0.25 else float(rng.uniform(lo, 1.0))
        mean_N, mean_max = {}, {}
        for s in loops:
            B = int(rng.integers(1, 41))
            probs = rng.dirichlet(np.ones(B + 1))
            if probs[0] > 1.0 - 1e-9:  # keep the mean positive
                probs = np.full(B + 1, 1.0 / (B + 1))
            mean_N[s], mean_max[s] = _discrete_mean_and_max_mean(np.arange(B + 1), probs, m)
        params = CostParams(block_costs=costs, alpha=alpha)
        e_m = efficiency_model(params, mean_N, mean_max)
        r_m = max(mean_max[s] / mean_N[s] for s in loops)
        if e_m > r_m + tol * max(1.0, abs(r_m)):
            report.violations.append(
                {"trial": t, "K": K, "m": m, "alpha": alpha, "costs": costs,
                 "loops": loops, "E": e_m, "R": r_m}
            )
            report.max_excess = max(report.max_excess, e_m - r_m)
        if K == 1:
            report.tightness_cases += 1
            rel = abs(e_m - r_m) / max(abs(r_m), 1e-300)
            report.tightness_max_rel_err = max(report.tightness_max_rel_err, rel)
    return report


@dataclass(frozen=True)
class ConcentrationReport:
    n_grid: tuple[int, ...]
    deviations: tuple[float, ...]
    slope: float | None
    slope_stderr: float | None
    slope_ci95: tuple[float, float] | None
    limit_estimate: float
    degenerate: bool


def concentration_check(charge_runs: list[np.ndarray], n_grid) -> ConcentrationReport:
    """Fit the convergence rate of the per-sample barrier cost.

    ``charge_runs`` holds one (n_max,) array per seed of the barrier's
    per-sample charges (:meth:`CostParams.barrier_charges` of the run's loop
    counts).  For each n in the grid, C(m, n) is the mean of a run's first
    n charges; the limit is the across-seed mean at the largest n, and the
    report fits log(mean |C - limit|) against log n.  Deterministic charges
    give zero deviations everywhere and a degenerate (slope-free) report.
    """
    n_grid = tuple(int(n) for n in n_grid)
    if len(n_grid) < 4:
        raise ValueError("need at least 4 grid points")
    if max(n_grid) / min(n_grid) < 100:
        raise ValueError("grid must span at least two decades")
    if any(run.shape[0] < max(n_grid) for run in charge_runs):
        raise ValueError("every run must cover the largest grid point")
    # the deviations do not depend on a shift, and charges that equal the
    # first one then average to exactly 0
    ref = float(charge_runs[0][0])
    costs = {n: np.array([float((run[:n] - ref).mean()) for run in charge_runs])
             for n in n_grid}
    n_max = max(n_grid)
    limit = float(costs[n_max].mean())
    deviations = tuple(float(np.mean(np.abs(costs[n] - limit))) for n in n_grid)
    if any(dev == 0.0 for dev in deviations):
        return ConcentrationReport(n_grid, deviations, None, None, None, ref + limit, True)
    # ordinary least squares of log deviation on log n, in closed form
    u, v = np.log(n_grid), np.log(deviations)
    du, dv = u - u.mean(), v - v.mean()
    sxx = float(du @ du)
    slope = float(du @ dv) / sxx
    resid = dv - slope * du
    stderr = math.sqrt(float(resid @ resid) / (len(n_grid) - 2) / sxx)
    half = 1.96 * stderr
    return ConcentrationReport(
        n_grid=n_grid,
        deviations=deviations,
        slope=slope,
        slope_stderr=stderr,
        slope_ci95=(slope - half, slope + half),
        limit_estimate=ref + limit,
        degenerate=False,
    )


@dataclass(frozen=True)
class EssSummary:
    per_dimension: tuple[float, ...]
    pooled: float           # min across dimensions
    flagged: bool           # capped/floored somewhere


def _ess_one_dim(draws: np.ndarray) -> tuple[float, bool]:
    """ESS of an (m, n) array of one coordinate, Geyer-truncated."""
    m, n = draws.shape
    total = m * n
    if np.allclose(draws.var(axis=1), 0.0):
        warnings.warn("constant chain: ESS floored to 1", stacklevel=3)
        return 1.0, True
    # per-chain autocovariance via FFT
    centered = draws - draws.mean(axis=1, keepdims=True)
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(centered, n=size, axis=1)
    acov = np.fft.irfft(f * np.conj(f), n=size, axis=1)[:, :n].real / n
    chain_mean = draws.mean(axis=1)
    mean_var = float(acov[:, 0].mean()) * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += float(chain_mean.var(ddof=1))
    rho = np.zeros(n)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - float(acov[:, 1].mean())) / var_plus
    rho[1] = rho_odd
    anticorrelated = (rho_even + rho_odd) < 0.0
    t = 1
    while t < n - 2 and (rho_even + rho_odd) >= 0.0:
        rho_even = 1.0 - (mean_var - float(acov[:, t + 1].mean())) / var_plus
        rho_odd = 1.0 - (mean_var - float(acov[:, t + 2].mean())) / var_plus
        rho[t + 1] = rho_even
        if (rho_even + rho_odd) >= 0.0:
            rho[t + 2] = rho_odd
        t += 2
    max_t = t
    # initial monotone sequence
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = (rho[t - 1] + rho[t]) / 2.0
            rho[t + 2] = rho[t + 1]
        t += 2
    tau = -1.0 + 2.0 * float(rho[:max_t].sum()) + float(rho[max_t + 1: max_t + 2].sum())
    flagged = False
    if tau <= 0 or not math.isfinite(tau):
        tau = 1.0 / total
        flagged = True
    ess = total / tau
    if anticorrelated:
        warnings.warn("anticorrelated chain: ESS capped at the sample count",
                      stacklevel=3)
        flagged = True
    ess = min(ess, float(total))
    return float(ess), flagged


def effective_sample_size(chains: np.ndarray) -> EssSummary:
    """Autocorrelation-adjusted sample count of an (n, m, d) array.

    Per-dimension ESS combines all m chains; the pooled figure is the
    minimum across dimensions.  Needs n >= ``MIN_ESS_SAMPLES``.
    """
    arr = np.asarray(chains, dtype=float)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValueError(f"expected an (n, m, d) array, got shape {arr.shape}")
    n, m, d = arr.shape
    if n < MIN_ESS_SAMPLES:
        raise ValueError(f"need at least {MIN_ESS_SAMPLES} samples per chain, got {n}")
    per_dim = []
    flagged = False
    for dd in range(d):
        ess, fl = _ess_one_dim(arr[:, :, dd].T)
        per_dim.append(ess)
        flagged = flagged or fl
    pooled = min(per_dim)
    return EssSummary(
        per_dimension=tuple(per_dim),
        pooled=pooled,
        flagged=flagged,
    )
