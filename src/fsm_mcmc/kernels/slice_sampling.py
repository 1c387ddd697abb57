"""Univariate slice sampling with stepping-out and shrinkage.

One sample = draw a level under the density at the current point, step the
initial width-w interval out until both ends are below the level (or the
expansion budget is spent), then shrink toward the current point until a
proposal lands above the level.  Two sequential loops, so the machine has
five states: INIT-E / EXPAND / INIT-S / SHRINK / DONE.

The expansion loop extends one interval end per execution (left end first),
which keeps every block free of unbounded work.  Hitting the expansion cap
is not an error: DONE counts the samples whose stepping-out stopped at the
cap with an end still above the level in the locals' ``cap_hits``, the
kernel's one event.
"""

from __future__ import annotations

import math

import numpy as np

from ..fsm import Block, Locals, While, empty_block
from ..prng import uniform
from .base import KernelBundle, KernelError, check_log_density

__all__ = ["slice_kernel", "SliceLocals"]


class SliceLocals(Locals):
    __slots__ = ("target", "lp_x", "logy", "left", "right", "lp_left", "lp_right",
                 "n_expand", "x1", "lp_x1", "accepted", "cap_hits")

    def __init__(self, x, rng, target):
        super().__init__(x, rng)
        self.target = target
        self.lp_x = check_log_density(target.log_density(x), "INIT-E")
        if self.lp_x == -math.inf:
            raise KernelError("starting point has zero density")
        self.logy = self.lp_x
        self.left = self.right = float(x[0])
        self.lp_left = self.lp_right = self.lp_x
        self.n_expand = 0
        self.x1 = float(x[0])
        self.lp_x1 = self.lp_x
        self.accepted = False
        self.cap_hits = 0


def slice_kernel(initial_width: float, max_expansions: int = 32) -> KernelBundle:
    """Stepping-out/shrinkage slice sampler for one-dimensional targets."""
    if not initial_width > 0:
        raise KernelError(f"initial_width must be positive, got {initial_width}")
    if max_expansions < 0:
        raise KernelError(f"max_expansions must be >= 0, got {max_expansions}")
    w = initial_width

    def _logp(z: SliceLocals, v: float) -> float:
        return check_log_density(z.target.log_density(np.array([v])), "slice")

    def _init_expand(z: SliceLocals) -> None:
        z.n_expand = 0
        z.accepted = False
        u, z.rng = uniform(z.rng)
        z.logy = z.lp_x + math.log(1.0 - u)
        u, z.rng = uniform(z.rng)
        x0 = float(z.x[0])
        z.left = x0 - w * u
        z.right = z.left + w
        z.lp_left = _logp(z, z.left)
        z.lp_right = _logp(z, z.right)

    def _expand(z: SliceLocals) -> None:
        z.n_expand += 1
        if z.lp_left > z.logy:
            z.left -= w
            z.lp_left = _logp(z, z.left)
        else:
            z.right += w
            z.lp_right = _logp(z, z.right)

    def _end_above_level(z: SliceLocals) -> bool:
        return z.lp_left > z.logy or z.lp_right > z.logy

    def _expand_continue(z: SliceLocals) -> bool:
        return _end_above_level(z) and z.n_expand < max_expansions

    def _shrink(z: SliceLocals) -> None:
        u, z.rng = uniform(z.rng)
        z.x1 = z.left + u * (z.right - z.left)
        z.lp_x1 = _logp(z, z.x1)
        if z.lp_x1 > z.logy:
            z.accepted = True
        elif z.x1 < float(z.x[0]):
            z.left = z.x1
        else:
            z.right = z.x1

    def _shrink_continue(z: SliceLocals) -> bool:
        return not z.accepted

    def _done(z: SliceLocals) -> None:
        z.x = np.array([z.x1])
        z.lp_x = z.lp_x1
        # shrinking moves the ends but not their log-densities, so these are
        # still the expansion loop's: an end above the level means it hit the cap
        if _end_above_level(z):
            z.cap_hits += 1

    program = (
        Block(_init_expand, "INIT-E"),
        While(_expand_continue, (Block(_expand, "EXPAND"),)),
        Block(empty_block, "INIT-S"),
        While(_shrink_continue, (Block(_shrink, "SHRINK"),)),
        Block(_done, "DONE"),
    )

    def requires(target):
        if target.dim != 1:
            return [f"needs a one-dimensional target, target has dim {target.dim}"]
        return []

    def init_locals(x0, rng, target):
        return SliceLocals(np.asarray(x0, dtype=float), rng, target)

    return KernelBundle.from_program("slice", program, init_locals, requires=requires,
                                     events=("cap_hits",))
