"""Elliptical slice sampling for targets with a Gaussian-prior split.

For p(x) proportional to f(x) N(x | 0, Sigma): draw an ellipse through the
current point, set a log threshold under f(x), then shrink the angle bracket
toward 0 until the proposal's residual log-density clears the threshold
(shrink runs while log f(x') < log y).  Single loop, three states
INIT / SHRINK / DONE.

The residual log-density at the proposal is the kernel's shared
computation.  No block calls it: the program marks INIT and SHRINK as its
sites, and the executors evaluate it after every run of either block, so one
batched tick can be charged a single evaluation even though both need the
value.  log f at the accepted point is carried over to the
next sample's threshold, so each block owns exactly one evaluation site.
"""

from __future__ import annotations

import math

import numpy as np

from ..fsm import Block, Locals, While
from ..prng import normal_vec, uniform
from .base import KernelBundle, check_log_density

__all__ = ["elliptical_kernel", "EllipticalLocals"]

_TWO_PI = 2.0 * math.pi


class EllipticalLocals(Locals):
    __slots__ = ("target", "logf", "chol", "identity_prior", "lp_fx", "nu",
                 "logy", "theta", "tmin", "tmax", "xprop", "lp_fprop")

    def __init__(self, x, rng, target):
        super().__init__(x, rng)
        prior = target.gaussian_prior  # checked by the kernel's requires hook
        self.target = target
        self.logf = prior.residual_log_density
        self.chol = np.asarray(prior.chol, dtype=float)
        self.identity_prior = bool(np.array_equal(self.chol, np.eye(x.shape[0])))
        self.lp_fx = check_log_density(self.logf(x), "INIT")
        self.nu = np.zeros_like(x)
        self.logy = self.lp_fx
        self.theta = 0.0
        self.tmin = 0.0
        self.tmax = 0.0
        self.xprop = x
        self.lp_fprop = self.lp_fx


def _refresh_residual(z: EllipticalLocals) -> None:
    z.lp_fprop = check_log_density(z.logf(z.xprop), "shared log f")


def elliptical_kernel() -> KernelBundle:
    """Elliptical slice transition kernel (no tuning parameters)."""

    def _init(z: EllipticalLocals) -> None:
        d = z.x.shape[0]
        eps, z.rng = normal_vec(z.rng, d)
        z.nu = eps if z.identity_prior else z.chol @ eps
        u, z.rng = uniform(z.rng)
        z.logy = z.lp_fx + math.log(1.0 - u)
        u, z.rng = uniform(z.rng)
        z.theta = _TWO_PI * u
        z.tmin = z.theta - _TWO_PI
        z.tmax = z.theta
        z.xprop = z.x * math.cos(z.theta) + z.nu * math.sin(z.theta)

    def _shrink(z: EllipticalLocals) -> None:
        if z.theta < 0.0:
            z.tmin = z.theta
        else:
            z.tmax = z.theta
        u, z.rng = uniform(z.rng)
        z.theta = z.tmin + u * (z.tmax - z.tmin)
        z.xprop = z.x * math.cos(z.theta) + z.nu * math.sin(z.theta)

    def _done(z: EllipticalLocals) -> None:
        z.x = z.xprop
        z.lp_fx = z.lp_fprop

    def _below_threshold(z: EllipticalLocals) -> bool:
        return z.lp_fprop < z.logy

    program = (
        Block(_init, "INIT", shared=True),
        While(_below_threshold, (Block(_shrink, "SHRINK", shared=True),)),
        Block(_done, "DONE"),
    )

    def requires(target):
        if target.gaussian_prior is None:
            return ["target lacks the Gaussian-prior decomposition"]
        L = np.asarray(target.gaussian_prior.chol, dtype=float)
        d = target.dim
        if L.shape != (d, d) or np.any(np.triu(L, 1) != 0.0) or np.any(np.diag(L) <= 0.0):
            return [f"prior factor must be {d}x{d} lower-triangular with positive diagonal"]
        return []

    def init_locals(x0, rng, target):
        return EllipticalLocals(np.asarray(x0, dtype=float), rng, target)

    return KernelBundle.from_program(
        "elliptical", program, init_locals, shared=_refresh_residual,
        block_costs=(0.02, 0.02, 0.01), requires=requires)
