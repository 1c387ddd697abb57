"""Iterative No-U-Turn sampler with multinomial trajectory sampling.

Each sample simulates Hamiltonian dynamics (identity mass matrix, fixed step
size) along a trajectory that doubles in length until it turns back on
itself, diverges, or hits the depth cap.  Two nested loops: the outer loop
adds one power-of-two subtree per iteration, the inner loop integrates that
subtree one leapfrog step per execution.  Machine states:
INIT / DOUBLE / INTEGRATE / CHECK / DONE.

The proposal is streaming-multinomial: within a subtree each new point
replaces the subtree proposal with probability w_new / w_subtree_so_far, and
a completed subtree's proposal replaces the trajectory proposal with
probability w_subtree / w_total, so the final sample is multinomial over the
whole trajectory with weights exp(energy_0 - energy).

U-turns inside a growing subtree are detected progressively: states at even
leaf offsets are checkpointed (slot = popcount(i >> 1)), and each odd leaf i
is tested against the checkpoints spanning every balanced subtree that ends
at i.  A subtree that turns or diverges is discarded and the trajectory
stops; after a clean merge the whole trajectory's endpoints are tested.

DONE counts the kernel's two events per chain: ``divergences``, the samples
whose trajectory diverged, and ``depth_cap_hits``, those that reached the
depth cap without a U-turn or a divergence.

The current point's log-density and gradient are carried across samples.
A leaf that becomes the subtree proposal keeps its ``(lp, grad)`` next to it,
CHECK hands them on with the trajectory proposal, and DONE stores them with
the new sample, so INIT evaluates the target only on a chain's first sample.
The carried values are those INIT would compute: the same function on an
equal array.  No block mutates an array in place (targets return fresh
gradients), so the locals, the checkpoints and the carried gradient can all
hold references to the same leaf arrays.
"""

from __future__ import annotations

import math

import numpy as np

from ..fsm import Block, Locals, While
from ..prng import normal_vec, uniform
from .base import KernelBundle, KernelError, check_log_density

__all__ = ["nuts_kernel", "NutsLocals"]

_NEG_INF = -math.inf


def _logaddexp(a: float, b: float) -> float:
    if a == _NEG_INF:
        return b
    if b == _NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _ckpt_write_slot(leaf: int) -> int:
    """Checkpoint slot for an even 0-based leaf offset."""
    return (leaf >> 1).bit_count()


def _ckpt_check_range(leaf: int) -> tuple[int, int]:
    """Inclusive slot range an odd leaf must test against.

    One slot per balanced subtree [leaf - 2^k + 1, leaf], k = 1..trailing
    ones of ``leaf``.
    """
    trailing_ones = (leaf ^ (leaf + 1)).bit_length() - 1
    hi = (leaf >> 1).bit_count()
    return hi - trailing_ones + 1, hi


class NutsLocals(Locals):
    __slots__ = ("target", "lp_grad", "lp_x", "g_x", "h0",
                 "xl", "pl", "gl", "xr", "pr", "gr",
                 "cx", "cp", "cg",
                 "xprop", "lp_prop", "g_prop", "log_sum_w", "depth", "stopped",
                 "diverged", "direction", "steps_todo", "steps_done",
                 "sub_log_sum_w", "sub_xprop", "sub_lp", "sub_g", "sub_stop",
                 "ck_x", "ck_p", "divergences", "depth_cap_hits")

    def __init__(self, x, rng, target, max_depth):
        super().__init__(x, rng)
        self.target = target
        self.lp_grad = target.log_density_and_grad
        if self.lp_grad is None:
            lp, grad = target.log_density, target.gradient
            self.lp_grad = lambda pos: (lp(pos), grad(pos))
        d = x.shape[0]
        # (lp, grad) at x; None until the first INIT evaluates the target
        self.lp_x = 0.0
        self.g_x = None
        self.h0 = 0.0
        self.xl = self.xr = self.cx = x
        self.pl = self.pr = self.cp = np.zeros(d)
        self.gl = self.gr = self.cg = np.zeros(d)
        self.xprop = x
        self.lp_prop = 0.0
        self.g_prop = None
        self.log_sum_w = 0.0
        self.depth = 0
        self.stopped = False
        self.diverged = False
        self.direction = 1
        self.steps_todo = 0
        self.steps_done = 0
        self.sub_log_sum_w = _NEG_INF
        self.sub_xprop = x
        self.sub_lp = 0.0
        self.sub_g = None
        self.sub_stop = False
        # checkpoint slots hold references to leaf arrays, never copies
        self.ck_x = [None] * max_depth
        self.ck_p = [None] * max_depth
        self.divergences = 0
        self.depth_cap_hits = 0


def nuts_kernel(step_size: float, max_depth: int = 10,
                divergence_threshold: float = 1000.0) -> KernelBundle:
    """No-U-Turn kernel with fixed step size and identity mass matrix."""
    if not step_size > 0:
        raise KernelError(f"step_size must be positive, got {step_size}")
    if max_depth < 1:
        raise KernelError(f"max_depth must be >= 1, got {max_depth}")
    if not divergence_threshold > 0:
        raise KernelError("divergence_threshold must be positive")
    eps = step_size

    def _init(z: NutsLocals) -> None:
        d = z.x.shape[0]
        p0, z.rng = normal_vec(z.rng, d)
        if z.g_x is None:  # the chain's first sample
            lp, grad = z.lp_grad(z.x)
            check_log_density(lp, "INIT")
            if lp == _NEG_INF:
                raise KernelError("starting point has zero density")
            if not np.all(np.isfinite(grad)):
                raise KernelError(f"non-finite gradient at the current point: {grad}")
            z.lp_x, z.g_x = lp, grad
        lp, grad = z.lp_x, z.g_x
        z.h0 = -lp + 0.5 * float(p0 @ p0)
        z.xl = z.xr = z.x
        z.pl = z.pr = p0
        z.gl = z.gr = grad
        z.xprop = z.x
        z.lp_prop, z.g_prop = lp, grad
        z.log_sum_w = 0.0
        z.depth = 0
        z.stopped = False
        z.diverged = False

    def _outer_continue(z: NutsLocals) -> bool:
        return (not z.stopped) and (not z.diverged) and z.depth < max_depth

    def _double(z: NutsLocals) -> None:
        u, z.rng = uniform(z.rng)
        z.direction = 1 if u < 0.5 else -1
        if z.direction == 1:
            z.cx, z.cp, z.cg = z.xr, z.pr, z.gr
        else:
            z.cx, z.cp, z.cg = z.xl, z.pl, z.gl
        z.steps_todo = 1 << z.depth
        z.steps_done = 0
        z.sub_log_sum_w = _NEG_INF
        z.sub_stop = False

    def _integrate(z: NutsLocals) -> None:
        eff = eps * z.direction
        p_half = z.cp + 0.5 * eff * z.cg
        x_new = z.cx + eff * p_half
        lp_new, g_new = z.lp_grad(x_new)
        check_log_density(lp_new, "INTEGRATE")
        p_new = p_half + 0.5 * eff * g_new
        kin = float(p_new @ p_new)
        # a NaN or inf in g_new always makes kin non-finite, so the gradient
        # is scanned only then; a finite gradient whose momentum overflows
        # diverges below instead.
        if not math.isfinite(kin) and not np.all(np.isfinite(g_new)):
            raise KernelError(f"non-finite gradient during integration at {x_new}")
        z.cx, z.cp, z.cg = x_new, p_new, g_new
        delta = (-lp_new + 0.5 * kin) - z.h0
        leaf = z.steps_done
        if not math.isfinite(delta) or delta > divergence_threshold:
            z.diverged = True
        else:
            log_w = -delta
            new_lsw = _logaddexp(z.sub_log_sum_w, log_w)
            u, z.rng = uniform(z.rng)
            if u < math.exp(log_w - new_lsw):
                z.sub_xprop, z.sub_lp, z.sub_g = x_new, lp_new, g_new
            z.sub_log_sum_w = new_lsw
            if leaf % 2 == 0:
                slot = _ckpt_write_slot(leaf)
                z.ck_x[slot] = x_new
                z.ck_p[slot] = p_new
            else:
                lo, hi = _ckpt_check_range(leaf)
                direction = z.direction
                for s in range(lo, hi + 1):
                    span = x_new - z.ck_x[s]
                    if (direction * float(span @ z.ck_p[s]) < 0.0
                            or direction * float(span @ p_new) < 0.0):
                        z.sub_stop = True
                        break
        z.steps_done += 1

    def _inner_continue(z: NutsLocals) -> bool:
        return (z.steps_done < z.steps_todo
                and not z.sub_stop and not z.diverged)

    def _check(z: NutsLocals) -> None:
        if z.sub_stop or z.diverged:
            z.stopped = True
            return
        total = _logaddexp(z.log_sum_w, z.sub_log_sum_w)
        u, z.rng = uniform(z.rng)
        if u < math.exp(z.sub_log_sum_w - total):
            z.xprop, z.lp_prop, z.g_prop = z.sub_xprop, z.sub_lp, z.sub_g
        z.log_sum_w = total
        if z.direction == 1:
            z.xr, z.pr, z.gr = z.cx, z.cp, z.cg
        else:
            z.xl, z.pl, z.gl = z.cx, z.cp, z.cg
        span = z.xr - z.xl
        if float(span @ z.pl) < 0.0 or float(span @ z.pr) < 0.0:
            z.stopped = True
        z.depth += 1

    def _done(z: NutsLocals) -> None:
        z.x = z.xprop.copy()
        z.lp_x, z.g_x = z.lp_prop, z.g_prop
        # CHECK stops a diverged trajectory, so a trajectory that did not
        # stop left the outer loop at the depth cap
        if z.diverged:
            z.divergences += 1
        elif not z.stopped:
            z.depth_cap_hits += 1

    program = (
        Block(_init, "INIT"),
        While(_outer_continue, (
            Block(_double, "DOUBLE"),
            While(_inner_continue, (Block(_integrate, "INTEGRATE"),)),
            Block(_check, "CHECK"),
        )),
        Block(_done, "DONE"),
    )

    def requires(target):
        if target.log_density_and_grad is None and target.gradient is None:
            return ["target lacks a gradient"]
        return []

    def init_locals(x0, rng, target):
        return NutsLocals(np.asarray(x0, dtype=float), rng, target, max_depth)

    return KernelBundle.from_program(
        "nuts", program, init_locals, block_costs=(1.0, 0.05, 1.0, 0.1, 0.02),
        requires=requires, events=("divergences", "depth_cap_hits"))
