"""Batched chain execution with lockstep cost accounting.

Two drivers run a batch of m chains and account costs under the
run-all-branches-and-mask model of batched accelerators:

* :func:`run_standard_batched` - one sample per chain per outer iteration,
  with a synchronization barrier each iteration: the model charge for
  iteration i is :meth:`CostParams.barrier_charges`, each non-loop block
  once plus each loop block times its slowest chain's executions.
* :func:`run_fsm_batched` - every tick advances every chain one executor
  call; the charge per tick is alpha x (sum of all block costs), because a
  masked batch executes every branch.  The loop runs until every chain has
  its n samples, in chunks of ``TICK_CHUNK`` ticks between condition checks,
  and every tick of every chunk is charged.

Both drivers record a finished sample in one place: chain j's i-th sample,
its per-loop-state execution counts and (state machine) its tick go to row
i, column j of (n, m) arrays allocated before the run.  The loop states
recorded are the machine's; the kernel's inner-iteration count N sums its
``iter_states`` among them.  :func:`measure_block_costs` calibrates block
costs by timing the blocks of a short run of the state-machine driver.

Physically each chain only executes its own active block, and a chain stops
stepping once it has its n samples; the masking cost is a *model*, so the
ledger also records natively-executed block counts.  Both regimes therefore
do the same native work on each chain's one ``Locals`` record: the same
blocks, target evaluations and random draws per chain (the bundled executor
may run a few blocks of the next sample in the call that finishes the last
one).  Both run each state's ``FsmDefinition.steps`` entry, so the shared
computation follows every execution of a shared site, and the ledger's
``native_shared_evals`` is the sum of those states' executions.
Both drivers are single-threaded and deterministic; samples from the two
regimes are bit-identical for identical streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from . import fsm as fsm_mod
from .fsm import FsmDefinition
from .prng import key, split

__all__ = [
    "ChainBatch",
    "CostParams",
    "CostLedger",
    "KernelRunError",
    "TickBudgetExceeded",
    "init_batch",
    "run_standard_batched",
    "run_fsm_batched",
    "STEP_VARIANTS",
]

STEP_VARIANTS = ("plain", "bundled", "amortized")

TICK_CHUNK = 100  # executor calls between driver-loop condition checks


class KernelRunError(RuntimeError):
    """A kernel failed mid-run; records which chain and where.

    ``ledger`` holds the rows every chain had finished, as the ledger of
    :class:`TickBudgetExceeded` does.
    """

    def __init__(self, chain: int, iteration: int, cause: Exception,
                 ledger: "CostLedger"):
        super().__init__(f"chain {chain}, sample index {iteration}: {cause}")
        self.chain = chain
        self.iteration = iteration
        self.cause = cause
        self.ledger = ledger


class TickBudgetExceeded(RuntimeError):
    """The batched state-machine loop hit its tick cap; partial ledger attached."""

    def __init__(self, budget: int, ledger: "CostLedger", sample_counts: list[int]):
        super().__init__(
            f"tick budget {budget} exhausted with per-chain sample counts {sample_counts}"
        )
        self.ledger = ledger
        self.sample_counts = sample_counts


@dataclass(frozen=True)
class CostParams:
    """Per-block model costs c_1..c_K plus the dispatch factor alpha.

    ``block_costs`` are the costs of each block with any shared-computation
    call sites stripped out; ``shared_sites[k-1]`` counts how many times
    block k would invoke the shared function if it were inlined, and
    ``shared_cost`` prices one such evaluation.  The full (inlined) cost of
    block k is ``block_costs[k-1] + shared_sites[k-1] * shared_cost``.

    ``alpha`` scales the all-branches charge of one executor call and must
    lie in [max_k full_k / sum_k full_k, 1].
    """

    block_costs: tuple[float, ...]
    alpha: float = 1.0
    loop_states: tuple[int, ...] = ()
    shared_cost: float = 0.0
    shared_sites: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.block_costs) < 1:
            raise ValueError("need at least one block cost")
        if any(c < 0 for c in self.block_costs):
            raise ValueError(f"block costs must be nonnegative: {self.block_costs}")
        if self.shared_cost < 0:
            raise ValueError("shared_cost must be nonnegative")
        sites = self.shared_sites or (0,) * len(self.block_costs)
        if len(sites) != len(self.block_costs):
            raise ValueError("shared_sites length must match block_costs")
        object.__setattr__(self, "shared_sites", tuple(sites))
        full = self.full_block_costs()
        total = sum(full)
        if total <= 0:
            raise ValueError("total block cost must be positive")
        lo = max(full) / total
        if not lo - 1e-12 <= self.alpha <= 1.0 + 1e-12:
            raise ValueError(
                f"alpha={self.alpha} outside admissible interval [{lo}, 1]"
            )
        K = len(self.block_costs)
        if any(not 1 <= s <= K for s in self.loop_states):
            raise ValueError(f"loop_states {self.loop_states} outside 1..{K}")

    def full_block_costs(self) -> tuple[float, ...]:
        return tuple(c + s * self.shared_cost
                     for c, s in zip(self.block_costs, self.shared_sites))

    def tick_cost(self, variant: str) -> float:
        """Model charge of one executor call across the batch.

        Plain and bundled calls execute (and charge) every block including
        its inlined shared sites; the amortized call charges every stripped
        block plus exactly one shared evaluation.
        """
        if variant in ("plain", "bundled"):
            return self.alpha * sum(self.full_block_costs())
        if variant == "amortized":
            extra = self.shared_cost if sum(self.shared_sites) > 0 else 0.0
            return self.alpha * sum(self.block_costs) + extra
        raise ValueError(f"unknown step variant {variant!r}")

    def shared_evals_per_tick(self, variant: str) -> int:
        """Shared-computation evaluations charged per executor call."""
        if sum(self.shared_sites) == 0:
            return 0
        if variant in ("plain", "bundled"):
            return int(sum(self.shared_sites))
        return 1

    def barrier_charges(self, loop_exec_counts: dict[int, np.ndarray]) -> np.ndarray:
        """The barrier's charge for each row of (n, m) loop counts, whose keys
        are the loop states L: ``sum_{s not in L} c_s + sum_{s in L} c_s *
        max_j N_s(i, j)`` in full block costs."""
        full = self.full_block_costs()
        rows = sum(c for s, c in enumerate(full, start=1) if s not in loop_exec_counts)
        for s in sorted(loop_exec_counts):
            rows = rows + full[s - 1] * loop_exec_counts[s].max(axis=1)
        return rows

    @staticmethod
    def for_fsm(fsm: FsmDefinition, block_costs=None, alpha: float = 1.0,
                shared_cost: float = 1.0) -> "CostParams":
        """Parameters bound to a machine's topology: its loop states and its
        shared-computation sites; block costs default to one unit each."""
        K = fsm.n_states
        costs = tuple(block_costs) if block_costs is not None else (1.0,) * K
        if len(costs) != K:
            raise ValueError(f"{len(costs)} block costs for a {K}-state kernel")
        sites = tuple(int(k in fsm.shared.sites) for k in range(1, K + 1)) \
            if fsm.shared is not None else (0,) * K
        return CostParams(
            block_costs=costs,
            alpha=alpha,
            loop_states=tuple(sorted(fsm.loop_states)),
            shared_cost=shared_cost if fsm.shared is not None else 0.0,
            shared_sites=sites,
        )


@dataclass
class ChainBatch:
    """State of m chains under batched execution."""

    m: int
    locals: list[Any]
    state_ids: list[int]
    sample_counts: list[int]

    def __post_init__(self):
        lens = {len(self.locals), len(self.state_ids), len(self.sample_counts)}
        if lens != {self.m}:
            raise ValueError(f"batch sequences must all have length m={self.m}")


def init_batch(bundle, target, m: int, seed: int,
               x0: np.ndarray | None = None, init_jitter: float = 0.0) -> ChainBatch:
    """Fresh batch of m chains with independent streams derived from ``seed``.

    All chains start at ``x0`` (default: the origin); with ``init_jitter > 0``
    each chain draws a N(0, jitter^2 I) offset from its own stream first.
    Rebuilding a batch from the same arguments reproduces it exactly, which
    is how the two regimes are fed identical randomness.
    """
    if m < 1:
        raise ValueError(f"need m >= 1 chains, got {m}")
    bundle.check_target(target)
    streams = split(key(seed), m)
    base = np.zeros(target.dim) if x0 is None else np.asarray(x0, dtype=float)
    if base.shape != (target.dim,):
        raise ValueError(f"x0 shape {base.shape} does not match dim {target.dim}")
    locs = []
    for j in range(m):
        k = streams[j]
        start = base
        if init_jitter > 0.0:
            from .prng import normal_vec
            eps, k = normal_vec(k, target.dim)
            start = base + init_jitter * eps
        locs.append(bundle.init_locals(start.copy(), k, target))
    return ChainBatch(
        m=m,
        locals=locs,
        state_ids=[1] * m,
        sample_counts=[0] * m,
    )


@dataclass
class CostLedger:
    """Counts and model charges accumulated by one run."""

    iter_counts: np.ndarray            # n x m inner-loop executions per sample
    loop_exec_counts: dict[int, np.ndarray]  # state id -> n x m executions per sample
    tick_count: int
    block_exec_counts: np.ndarray      # K, natively executed blocks (aggregate)
    charged_cost: float
    walltime: float
    regime: str
    tick_cost: float = 0.0
    shared_evals_per_tick: int = 0
    native_shared_evals: int = 0
    sample_ticks: np.ndarray | None = None  # n x m tick index of each flagged sample

    def cost_per_sample(self) -> float:
        n = self.iter_counts.shape[0]
        return self.charged_cost / n


def _validate_run_args(batch: ChainBatch, n: int):
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    if any(c != 0 for c in batch.sample_counts):
        raise ValueError("batch has already been run; build a fresh one")


def run_standard_batched(bundle, target, batch: ChainBatch, n: int,
                         cost_params: CostParams | None = None,
                         ) -> tuple[np.ndarray, CostLedger]:
    """Alg-style batched loop: one monolithic sample per chain per iteration.

    Each sample runs the kernel's while loops on the chain's own ``Locals``,
    the record the state-machine driver steps.

    The barrier charge for iteration i is row i of
    :meth:`CostParams.barrier_charges`:
    ``sum_{non-loop} c_b + sum_{loop} c_b * max_j execs_b(i, j)``.  When a
    kernel fails at iteration i, the :class:`KernelRunError` ledger holds the
    first i rows.

    The per-loop-state max is what a ``vmap``-ed barrier pays for every
    shipped kernel.  A single or sequential loop waits for its own max;
    NUTS's nested loops pay ``sum_o max_j N_inner(j, o)`` over outer
    iterations o, which is ``max_j sum_o N_inner(j, o)``: a chain's subtree
    at iteration o has 2^o leaves unless its trajectory stops there, in its
    last iteration, so a chain with the most leaves has the most iterations.
    """
    _validate_run_args(batch, n)
    bundle.check_target(target)
    params = cost_params or bundle.default_costs
    fsm = bundle.fsm
    K = fsm.n_states
    loop_states = tuple(sorted(fsm.loop_states))
    if params.loop_states and tuple(sorted(params.loop_states)) != loop_states:
        raise ValueError(
            f"cost loop_states {params.loop_states} are not the kernel's loop "
            f"states {loop_states}"
        )
    if len(params.block_costs) != K:
        raise ValueError(f"{len(params.block_costs)} block costs for a {K}-state kernel")
    m = batch.m
    d = target.dim
    samples = np.empty((n, m, d))
    loop_execs = {s: np.zeros((n, m), dtype=np.int64) for s in loop_states}
    t0 = time.perf_counter()
    for i in range(n):
        for j in range(m):
            z = batch.locals[j]
            try:
                execs = bundle.monolithic(z)
            except Exception as exc:  # noqa: BLE001 - re-raise with chain context
                ledger = _standard_ledger(bundle, params, i, m, loop_execs,
                                          time.perf_counter() - t0)
                raise KernelRunError(chain=j, iteration=i, cause=exc,
                                     ledger=ledger) from exc
            samples[i, j] = z.x
            for s, cnt in execs.items():
                loop_execs[s][i, j] = cnt
            batch.sample_counts[j] += 1
    ledger = _standard_ledger(bundle, params, n, m, loop_execs, time.perf_counter() - t0)
    return samples, ledger


def _standard_ledger(bundle, params: CostParams, rows: int, m: int,
                     loop_execs: dict[int, np.ndarray], walltime: float) -> CostLedger:
    """The barrier's ledger of its first ``rows`` iterations."""
    loop_execs = {s: a[:rows] for s, a in loop_execs.items()}
    # a non-loop block runs once per sample
    block_totals = [loop_execs[s].sum() if s in loop_execs else rows * m
                    for s in range(1, bundle.fsm.n_states + 1)]
    # a running sum, row after row: numpy's sum would add pairwise
    charges = np.cumsum(params.barrier_charges(loop_execs))
    return CostLedger(
        iter_counts=sum(loop_execs[s] for s in bundle.iter_states),
        loop_exec_counts=loop_execs,
        tick_count=rows,
        block_exec_counts=np.array(block_totals, dtype=np.int64),
        charged_cost=float(charges[-1]) if rows else 0.0,
        walltime=walltime,
        regime="standard",
    )


def run_fsm_batched(bundle, target, batch: ChainBatch, n: int,
                    step_variant: str = "plain",
                    cost_params: CostParams | None = None,
                    tick_budget: int | None = None,
                    bundled_order: tuple[int, ...] | None = None,
                    ) -> tuple[np.ndarray, CostLedger]:
    """Run the batch through the state machine until every chain has n samples.

    Every tick applies the chosen executor to each chain that is still short
    of n samples; a chain leaves the batch in the call that finishes its n-th
    sample.  Ticks run in chunks of ``TICK_CHUNK`` between loop-condition
    checks, and every tick is charged ``cost_params.tick_cost(step_variant)``
    whether or not any chain is still stepping, so the model charge is that of
    a masked batch that runs to the end of the chunk.

    A finished sample, its loop-state counts and its tick are written at row
    ``sample_counts[j]`` of preallocated (n, m) arrays, as the barrier writes
    its rows.  When ``tick_budget`` would be overrun, or a kernel fails, the
    ledger of the :class:`TickBudgetExceeded` or :class:`KernelRunError`
    holds the first ``min(sample_counts)`` rows.
    """
    _validate_run_args(batch, n)
    bundle.check_target(target)
    if step_variant not in STEP_VARIANTS:
        raise ValueError(f"step_variant must be one of {STEP_VARIANTS}")
    params = cost_params or bundle.default_costs
    machine = bundle.fsm
    K = machine.n_states
    if len(params.block_costs) != K:
        raise ValueError(f"{len(params.block_costs)} block costs for a {K}-state kernel")
    if step_variant == "bundled":
        order = bundled_order or fsm_mod.default_bundled_order(machine)
        fsm_mod.validate_bundled_order(machine, order)
    else:
        order = ()
    # One inlined tick for every variant.  A call runs the entry state's
    # step (its block, then the shared refresh at a shared site) and the
    # transition, and goes on while the next state ranks later in the
    # bundled order: that is fsm.bundled_step, jumping straight to the
    # entry state's position.
    # Plain and amortized rank every state equal, so a call runs one block,
    # as fsm.step does.  Inlining the bundled call rather than calling
    # fsm.bundled_step took the drmh state-machine run (m=256, n=100,
    # bundled, median of 8 seeds, 2-core x86 VM) from 0.32-0.44 s to
    # 0.25-0.28 s, 4 of 4 alternating rounds (both with the PRNG windows).
    rank = [0] * (K + 1)
    for i, s in enumerate(order):
        rank[s] = i
    steps = (None, *machine.steps)
    transition = machine.transition

    m = batch.m
    final = machine.final
    samples = np.empty((n, m, target.dim))
    loop_execs = {s: np.zeros((n, m), dtype=np.int64) for s in sorted(machine.loop_states)}
    sample_ticks = np.zeros((n, m), dtype=np.int64)
    loop_rows = tuple(loop_execs.items())
    # per chain, the executions of each state in its unfinished sample
    pending = [[0] * (K + 1) for _ in range(m)]
    executed = [0] * (K + 1)
    ticks = 0
    counts = batch.sample_counts
    states = batch.state_ids
    locs = batch.locals
    active = list(range(m))  # chains still short of n samples, in index order
    t0 = time.perf_counter()
    while min(counts) < n:
        if tick_budget is not None and ticks + TICK_CHUNK > tick_budget:
            walltime = time.perf_counter() - t0
            ledger = _fsm_ledger(bundle, params, step_variant, min(counts), loop_execs,
                                 sample_ticks, ticks, executed, walltime)
            raise TickBudgetExceeded(tick_budget, ledger, list(counts))
        for _ in range(TICK_CHUNK):
            ticks += 1
            retired = False
            for j in active:
                s = states[j]
                z = locs[j]
                pend = pending[j]
                try:
                    while True:
                        steps[s](z)
                        k = transition(s, z)
                        executed[s] += 1
                        pend[s] += 1
                        if s == final:
                            # the chain finished a sample: record it
                            i = counts[j]
                            samples[i, j] = z.x
                            sample_ticks[i, j] = ticks
                            for st, rows in loop_rows:
                                rows[i, j] = pend[st]
                            pending[j] = pend = [0] * (K + 1)
                            counts[j] = i + 1
                            if i + 1 == n:
                                retired = True
                        if rank[k] <= rank[s]:
                            break
                        s = k
                except Exception as exc:  # noqa: BLE001
                    ledger = _fsm_ledger(bundle, params, step_variant, min(counts),
                                         loop_execs, sample_ticks, ticks, executed,
                                         time.perf_counter() - t0)
                    raise KernelRunError(chain=j, iteration=counts[j], cause=exc,
                                         ledger=ledger) from exc
                states[j] = k
            if retired:
                active = [j for j in active if counts[j] < n]
    walltime = time.perf_counter() - t0
    ledger = _fsm_ledger(bundle, params, step_variant, n, loop_execs, sample_ticks,
                         ticks, executed, walltime)
    return samples, ledger


def _fsm_ledger(bundle, params: CostParams, variant: str, rows: int,
                loop_execs: dict[int, np.ndarray], sample_ticks: np.ndarray,
                ticks: int, executed: list[int], walltime: float) -> CostLedger:
    """The ledger of the first ``rows`` samples of every chain.

    The shared computation ran once per execution of a shared site.
    """
    loop_execs = {s: a[:rows] for s, a in loop_execs.items()}
    tick_cost = params.tick_cost(variant)
    shared = bundle.fsm.shared
    native_shared = sum(executed[s] for s in shared.sites) if shared is not None else 0
    return CostLedger(
        iter_counts=sum(loop_execs[s] for s in bundle.iter_states),
        loop_exec_counts=loop_execs,
        tick_count=ticks,
        block_exec_counts=np.array(executed[1:], dtype=np.int64),
        charged_cost=ticks * tick_cost,
        walltime=walltime,
        regime=f"fsm-{variant}",
        tick_cost=tick_cost,
        shared_evals_per_tick=params.shared_evals_per_tick(variant),
        native_shared_evals=native_shared,
        sample_ticks=sample_ticks[:rows],
    )


def measure_block_costs(bundle, target, seed: int = 0) -> CostParams:
    """Calibrate per-block costs from native walltimes.

    Runs a short plain calibration (8 chains, 25 samples each) through
    :func:`run_fsm_batched` on a copy of the bundle whose blocks and shared
    function are wrapped in timers, and divides each one's seconds by the
    ledger's ``block_exec_counts`` and ``native_shared_evals``.  Returns
    cost parameters in seconds per execution with alpha = 1.  Measured costs
    vary run to run, so they trade the byte-identical-output guarantee for
    physical realism.
    """
    machine = bundle.fsm
    seconds = [0.0] * (machine.n_states + 1)  # [0]: the shared function
    clock = time.perf_counter

    def timed(fn, slot):
        def run(z):
            t0 = clock()
            fn(z)
            seconds[slot] += clock() - t0
        return run

    shared = machine.shared
    if shared is not None:
        shared = replace(shared, fn=timed(shared.fn, 0))
    timed_bundle = replace(bundle, fsm=replace(
        machine, shared=shared,
        blocks=tuple(timed(b, k) for k, b in enumerate(machine.blocks, start=1))))
    batch = init_batch(timed_bundle, target, 8, seed)
    _, ledger = run_fsm_batched(timed_bundle, target, batch, 25)
    block_costs = tuple(t / c if c else 0.0
                        for t, c in zip(seconds[1:], ledger.block_exec_counts.tolist()))
    evals = ledger.native_shared_evals
    return CostParams.for_fsm(machine, block_costs=block_costs,
                              shared_cost=seconds[0] / evals if evals else 0.0)
