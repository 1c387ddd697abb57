"""Cost theory made executable, plus sampling diagnostics.

The quantities here are all about the inner-loop iteration counts N_ij
(chain j's work for its i-th sample):

* ``barrier_cost`` - the idealized total with a per-iteration barrier,
  where every iteration pays the slowest chain: sum_i max_j N_ij.
* ``efficiency_model`` - E(m), the modeled long-run cost ratio of the
  barrier regime over the state-machine regime given block costs and the
  dispatch factor alpha.
* ``bound_R`` - R(m) = E[max of m iid N] / E[N], the ceiling on the
  de-synchronization speed-up, estimated by Monte Carlo (with the Bernoulli
  closed form when applicable).
* ``verify_prop_bound`` - random-instance check that E(m) <= R(m), with
  equality on the single-state family.
* ``concentration_check`` - fits the n^{-1/2} convergence rate of the
  per-sample cost.
* ``effective_sample_size`` - autocorrelation-time ESS with Geyer's initial
  monotone sequence, combined across chains.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .lockstep import CostParams

__all__ = [
    "barrier_cost",
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
]


def barrier_cost(iter_counts: np.ndarray) -> float:
    """Total loop iterations paid with a per-iteration barrier: sum_i max_j N_ij."""
    N = np.asarray(iter_counts)
    return float(N.max(axis=1).sum())


def _loop_index(params: CostParams, loop_state: int | None) -> int:
    if loop_state is not None:
        return loop_state
    if len(params.block_costs) == 1:
        return 1
    if len(params.loop_states) == 1:
        return params.loop_states[0]
    raise ValueError(
        "efficiency_model needs a unique loop state; pass loop_state explicitly"
    )


def efficiency_model(params: CostParams, mean_N: float, mean_max_N: float,
                     loop_state: int | None = None) -> float:
    """Modeled long-run cost ratio E(m) of barrier over state-machine execution.

    E(m) = (c_rest + c_loop * E[max_j N_j])
           / (alpha * (c_rest + c_loop) * (K - 1 + E[N])).
    """
    if mean_N <= 0:
        raise ValueError(f"mean_N must be positive, got {mean_N}")
    full = params.full_block_costs()
    K = len(full)
    k = _loop_index(params, loop_state)
    c_loop = full[k - 1]
    c_rest = sum(full) - c_loop
    denom = params.alpha * (c_rest + c_loop) * (K - 1 + mean_N)
    if denom == 0:
        raise ValueError("zero denominator: total block cost or mean_N degenerate")
    return (c_rest + c_loop * mean_max_N) / denom


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


def efficiency_report(params: CostParams, iter_counts: np.ndarray,
                      standard_cost_per_sample: float, fsm_cost_per_sample: float,
                      loop_state: int | None = None) -> EfficiencyReport:
    """Summarize a paired run from its N matrix and the two charged costs."""
    N = np.asarray(iter_counts, dtype=float)
    n, m = N.shape
    mean_N = float(N.mean())
    mean_max = float(N.max(axis=1).mean())
    return EfficiencyReport(
        m=m,
        E_of_m=efficiency_model(params, mean_N, mean_max, loop_state),
        R_of_m=mean_max / mean_N if mean_N > 0 else 1.0,
        mean_N=mean_N,
        mean_max_N=mean_max,
        standard_cost_per_sample=standard_cost_per_sample,
        fsm_cost_per_sample=fsm_cost_per_sample,
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
    """Random-instance verification that E(m) <= R(m).

    Each trial draws K in 1..6, nonnegative block costs, an admissible alpha
    (its lower endpoint with probability 1/4), m in 1..64, and a bounded
    discrete N distribution with positive mean; both sides are evaluated
    exactly.  K = 1 instances must give equality to ``tol`` relative error.
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
            k = 1
        else:
            costs = tuple(rng.uniform(0.0, 3.0, size=K))
            if sum(costs) == 0.0:
                costs = tuple(c + 0.1 for c in costs)
            k = int(rng.integers(1, K + 1))
            lo = max(costs) / sum(costs)
            alpha = lo if rng.random() < 0.25 else float(rng.uniform(lo, 1.0))
        B = int(rng.integers(1, 41))
        probs = rng.dirichlet(np.ones(B + 1))
        if probs[0] > 1.0 - 1e-9:  # keep the mean positive
            probs = np.full(B + 1, 1.0 / (B + 1))
        values = np.arange(B + 1)
        mean_N, mean_max = _discrete_mean_and_max_mean(values, probs, m)
        params = CostParams(block_costs=costs, alpha=alpha, loop_states=(k,))
        e_m = efficiency_model(params, mean_N, mean_max, loop_state=k)
        r_m = mean_max / mean_N
        if e_m > r_m + tol * max(1.0, abs(r_m)):
            report.violations.append(
                {"trial": t, "K": K, "m": m, "alpha": alpha, "costs": costs,
                 "E": e_m, "R": r_m}
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


def concentration_check(iter_count_runs: list[np.ndarray], n_grid,
                        cost_params: CostParams,
                        loop_state: int | None = None) -> ConcentrationReport:
    """Fit the convergence rate of the per-sample barrier cost.

    ``iter_count_runs`` holds one (n_max, m) matrix per seed.  For each n in
    the grid, the per-sample cost C(m, n) uses the first n rows; the limit is
    the across-seed mean at the largest n, and the report fits
    log(mean |C - limit|) against log n.  Deterministic N gives zero
    deviations everywhere and a degenerate (slope-free) report.
    """
    n_grid = tuple(int(n) for n in n_grid)
    if len(n_grid) < 4:
        raise ValueError("need at least 4 grid points")
    if max(n_grid) / min(n_grid) < 100:
        raise ValueError("grid must span at least two decades")
    full = cost_params.full_block_costs()
    k = _loop_index(cost_params, loop_state)
    c_loop = full[k - 1]
    c_rest = sum(full) - c_loop
    if any(run.shape[0] < max(n_grid) for run in iter_count_runs):
        raise ValueError("every run must cover the largest grid point")

    def per_sample_cost(N: np.ndarray, n: int) -> float:
        return c_rest + c_loop * float(N[:n].max(axis=1).mean())

    costs = {n: np.array([per_sample_cost(run, n) for run in iter_count_runs])
             for n in n_grid}
    n_max = max(n_grid)
    limit = float(costs[n_max].mean())
    deviations = tuple(float(np.mean(np.abs(costs[n] - limit))) for n in n_grid)
    if any(dev == 0.0 for dev in deviations):
        return ConcentrationReport(n_grid, deviations, None, None, None, limit, True)
    fit = stats.linregress(np.log(n_grid), np.log(deviations))
    half = 1.96 * fit.stderr
    return ConcentrationReport(
        n_grid=n_grid,
        deviations=deviations,
        slope=float(fit.slope),
        slope_stderr=float(fit.stderr),
        slope_ci95=(float(fit.slope - half), float(fit.slope + half)),
        limit_estimate=limit,
        degenerate=False,
    )


@dataclass(frozen=True)
class EssSummary:
    per_dimension: tuple[float, ...]
    pooled: float           # min across dimensions
    per_cost: float | None
    per_second: float | None
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


def effective_sample_size(chains: np.ndarray, model_cost: float | None = None,
                          walltime: float | None = None) -> EssSummary:
    """Autocorrelation-adjusted sample count of an (n, m, d) array.

    Per-dimension ESS combines all m chains; the pooled figure is the
    minimum across dimensions.  ``model_cost`` and ``walltime`` convert it
    into the two rate variants.
    """
    arr = np.asarray(chains, dtype=float)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValueError(f"expected an (n, m, d) array, got shape {arr.shape}")
    n, m, d = arr.shape
    if n < 10:
        raise ValueError(f"need at least 10 samples per chain, got {n}")
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
        per_cost=pooled / model_cost if model_cost else None,
        per_second=pooled / walltime if walltime else None,
        flagged=flagged,
    )
