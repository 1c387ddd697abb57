"""The benchmark's workloads: one ``fsm-mcmc`` experiment configuration each.

The run lengths ``samples`` are chosen so that one operation (one
``run_experiment`` call: both regimes, the equality check, the analysis and
the result files) takes a few seconds on a 2-core machine, long enough to
time within a few per cent and short enough for several operations per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks


def check_drmh_wide(samples: np.ndarray, target, out_dir: Path) -> None:
    # 256 independent chains started from N(0, 1): one batch per chain
    checks.check_standard_normal(samples, batches=1)


def check_nuts_narrow(samples: np.ndarray, target, out_dir: Path) -> None:
    # chains start from N(0, I), far out along the narrow direction; skip
    # the first 20 samples per chain and cut the rest into 5 batches each
    cov = np.array([[1.0, 0.99], [0.99, 1.0]])
    checks.check_covariance(samples[20:], cov, batches=5)


def check_gp_elliptical(samples: np.ndarray, target, out_dir: Path) -> None:
    data = np.loadtxt(out_dir / "gp_dataset.csv", delimiter=",", skiprows=1)
    flat = samples.reshape(-1, samples.shape[2])
    subset = flat[np.linspace(0, len(flat) - 1, 16).astype(int)]
    checks.check_gp_log_density(subset, data[:, :-1], data[:, -1], target.log_density)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    # the workload's check on one operation's samples
    check: Callable[[np.ndarray, Any, Path], None]
    # target evaluations the algorithm needs per sample on top of one per
    # inner-loop iteration (elliptical slice evaluates its first ellipse
    # point before the shrink loop)
    evals_before_loop: int = 0


# BENCHMARK.json lists drmh-wide and nuts-narrow.  gp-elliptical runs by
# hand, for its traced figures and checks: its times do not repeat within
# the bounds on a shared 2-core machine (see README.md).
WORKLOADS = {w.name: w for w in (
    Workload(
        name="drmh-wide",
        why="delayed-rejection MH, 256 chains on N(0,1): highest chain skew, so PRNG "
            "draws, the bundled executor and the driver loop dominate",
        config=dict(kernel="drmh", target="std-normal", chains=256, samples=100,
                    variant="bundled", init_jitter=1.0),
        check=check_drmh_wide,
    ),
    Workload(
        name="gp-elliptical",
        why="elliptical slice, 64 chains on the GP hyperparameter posterior: "
            "residual log-density evaluations (one Cholesky each) dominate",
        config=dict(kernel="elliptical", target="gp-synthetic", gp_n=50, chains=64,
                    samples=100, variant="plain"),
        check=check_gp_elliptical,
        evals_before_loop=1,
    ),
    Workload(
        name="nuts-narrow",
        why="NUTS, 4 long chains on a 2-d rho=0.99 Gaussian: the nested five-state "
            "machine, with the leapfrog block body dominating",
        config=dict(kernel="nuts", target="gaussian-corr", dim=2, target_rho=0.99,
                    nuts_step_size=0.16, nuts_max_depth=8, chains=4, samples=500,
                    variant="plain", init_jitter=1.0),
        check=check_nuts_narrow,
    ),
)}
