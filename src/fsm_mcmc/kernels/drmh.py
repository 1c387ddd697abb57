"""Symmetric delayed-rejection Metropolis-Hastings.

On rejection the proposal distribution is re-centered on the rejected point
and a new candidate is drawn, up to ``max_tries`` stages per sample.  Stage i
accepts candidate y_i with probability

    min{1, [pi(y_i) - M_i]_+ / [pi(x) - M_i]},   M_i = max_{j<i} pi(y_j),

the symmetric delayed-rejection rule (M_1 = 0 recovers plain Metropolis).
All earlier rejected candidates have pi strictly below pi(x), so the
denominator stays positive.  Computed with densities shifted by pi(x) so the
ratio never overflows.

The state machine has three states INIT / PROPOSE / DONE with PROPOSE
self-looping; ``split_body=True`` unrolls the proposal stage into four
sub-states (draw / evaluate / test / apply) for step-bundling experiments.
"""

from __future__ import annotations

import math

import numpy as np

from ..fsm import FsmDefinition, Locals, compose_single_loop
from ..lockstep import CostParams
from ..prng import normal_vec, uniform
from .base import KernelBundle, KernelError, check_log_density

__all__ = ["drmh_kernel", "DrmhLocals"]

_NEG_INF = -math.inf


class DrmhLocals(Locals):
    __slots__ = ("target", "lp_x", "y", "lp_y", "lp_best", "try_index",
                 "accepted", "y_cand", "lp_cand", "accept_cand")

    def __init__(self, x, rng, target):
        super().__init__(x, rng)
        self.target = target
        self.lp_x = check_log_density(target.log_density(x), "INIT")
        if self.lp_x == _NEG_INF:
            raise KernelError("starting point has zero density")
        self.y = x
        self.lp_y = self.lp_x
        self.lp_best = _NEG_INF
        self.try_index = 0
        self.accepted = False
        self.y_cand = x
        self.lp_cand = self.lp_x
        self.accept_cand = False


def _accept_stage(z: DrmhLocals, lp_cand: float, u: float) -> bool:
    if lp_cand >= z.lp_x:
        return True
    m_rel = math.exp(z.lp_best - z.lp_x) if z.lp_best > _NEG_INF else 0.0
    num = math.exp(lp_cand - z.lp_x) - m_rel
    return num > 0.0 and u * (1.0 - m_rel) < num


def drmh_kernel(max_tries: int, proposal_scale: float,
                split_body: bool = False) -> KernelBundle:
    """Delayed-rejection MH with N(y, scale^2 I) proposals and <= max_tries stages."""
    if max_tries < 1:
        raise KernelError(f"max_tries must be >= 1, got {max_tries}")
    if not proposal_scale > 0:
        raise KernelError(f"proposal_scale must be positive, got {proposal_scale}")
    M = max_tries
    scale = proposal_scale

    def _init(z: DrmhLocals) -> DrmhLocals:
        z.try_index = 0
        z.accepted = False
        z.lp_best = _NEG_INF
        z.y = z.x
        z.lp_y = z.lp_x
        return z

    def _propose(z: DrmhLocals) -> DrmhLocals:
        z.try_index += 1
        eps, z.rng = normal_vec(z.rng, z.x.shape[0])
        y = z.y + scale * eps
        lp = check_log_density(z.target.log_density(y), "PROPOSE")
        u, z.rng = uniform(z.rng)
        if _accept_stage(z, lp, u):
            z.accepted = True
        else:
            z.lp_best = max(z.lp_best, lp)
        z.y = y
        z.lp_y = lp
        return z

    def _done(z: DrmhLocals) -> DrmhLocals:
        if z.accepted:
            z.x = z.y
            z.lp_x = z.lp_y
        return z

    def _continue(z: DrmhLocals) -> bool:
        return (not z.accepted) and z.try_index < M

    # split-body sub-blocks; same draw order and arithmetic as _propose
    def _p_draw(z: DrmhLocals) -> DrmhLocals:
        z.try_index += 1
        eps, z.rng = normal_vec(z.rng, z.x.shape[0])
        z.y_cand = z.y + scale * eps
        return z

    def _p_eval(z: DrmhLocals) -> DrmhLocals:
        z.lp_cand = check_log_density(z.target.log_density(z.y_cand), "PROP-EVAL")
        return z

    def _p_test(z: DrmhLocals) -> DrmhLocals:
        u, z.rng = uniform(z.rng)
        z.accept_cand = _accept_stage(z, z.lp_cand, u)
        return z

    def _p_apply(z: DrmhLocals) -> DrmhLocals:
        if z.accept_cand:
            z.accepted = True
        else:
            z.lp_best = max(z.lp_best, z.lp_cand)
        z.y = z.y_cand
        z.lp_y = z.lp_cand
        return z

    if not split_body:
        machine = compose_single_loop(
            _init, _propose, _done, _continue,
            labels=("INIT", "PROPOSE", "DONE"),
            locals_type=DrmhLocals,
        )
        iter_states = (2,)
    else:
        def transition(k: int, z: DrmhLocals) -> int:
            if k in (2, 3, 4):
                return k + 1
            if k in (1, 5):
                return 2 if _continue(z) else 6
            return 1

        machine = FsmDefinition(
            blocks=(_init, _p_draw, _p_eval, _p_test, _p_apply, _done),
            transition=transition,
            labels=("INIT", "PROP-DRAW", "PROP-EVAL", "PROP-TEST", "PROP-APPLY", "DONE"),
            edges=frozenset({(1, 2), (1, 6), (2, 3), (3, 4), (4, 5),
                             (5, 2), (5, 6), (6, 1)}),
            loop_states=frozenset({2, 3, 4, 5}),
            locals_type=DrmhLocals,
        )
        iter_states = (2,)

    loop_states = tuple(sorted(machine.loop_states))

    def init_locals(x0, rng, target):
        return DrmhLocals(np.asarray(x0, dtype=float), rng, target)

    def monolithic(z: DrmhLocals) -> dict[int, int]:
        _init(z)
        while _continue(z):
            _propose(z)
        _done(z)
        # every loop state runs once per proposal stage
        return {s: z.try_index for s in loop_states}

    # INIT and DONE are bookkeeping-only; the proposal stages carry the work
    if split_body:
        block_costs = (0.05, 1.0, 1.0, 1.0, 1.0, 0.05)
    else:
        block_costs = (0.05, 1.0, 0.05)
    return KernelBundle(
        name="drmh-split" if split_body else "drmh",
        fsm=machine,
        monolithic=monolithic,
        init_locals=init_locals,
        iter_states=iter_states,
        default_costs=CostParams.for_fsm(machine, block_costs=block_costs),
    )
