import dataclasses
import importlib
import itertools
import math
import pkgutil

import numpy as np
import pytest

from fsm_mcmc import kernels, lockstep, prng
from fsm_mcmc.fsm import (
    Block,
    FsmError,
    Locals,
    While,
    bundled_step,
    default_bundled_order,
    step,
    validate_bundled_order,
)
from fsm_mcmc.kernels import drmh_kernel, elliptical_kernel, nuts_kernel, slice_kernel
from fsm_mcmc.kernels.base import KernelBundle
from fsm_mcmc.lockstep import (
    ChainBatch,
    CostParams,
    TICK_CHUNK,
    KernelRunError,
    TickBudgetExceeded,
    init_batch,
    measure_block_costs,
    run_fsm_batched,
    run_standard_batched,
)
from fsm_mcmc.targets import (
    TargetModel,
    equicorrelated_covariance,
    gaussian_target,
    standard_normal_target,
)
from tests_common_conjugate import conjugate_target


class ScriptedLocals(Locals):
    """Deterministic kernel whose per-sample loop lengths come from a script."""

    __slots__ = ("schedule", "pos", "remaining")

    def __init__(self, schedule):
        super().__init__(x=np.zeros(1), rng=None)
        self.schedule = list(schedule)
        self.pos = 0
        self.remaining = 0


def scripted_kernel():
    def _init(z):
        z.remaining = z.schedule[z.pos % len(z.schedule)]
        z.pos += 1

    def _body(z):
        z.remaining -= 1

    def _done(z):
        z.x = np.array([float(z.pos)])

    program = (Block(_init, "INIT"),
               While(lambda z: z.remaining > 0, (Block(_body, "BODY"),)),
               Block(_done, "DONE"))
    return KernelBundle.from_program(
        "scripted", program, lambda x0, rng, target: ScriptedLocals([]))


def scripted_batch(schedules):
    return ChainBatch(
        m=len(schedules),
        locals=[ScriptedLocals(s) for s in schedules],
        state_ids=[1] * len(schedules),
        sample_counts=[0] * len(schedules),
    )


DUMMY_TARGET = TargetModel(name="dummy", dim=1, log_density=lambda x: 0.0)


class TestCostParams:
    def test_alpha_interval_enforced(self):
        CostParams(block_costs=(1.0, 3.0), alpha=0.75)  # max/total = 0.75
        with pytest.raises(ValueError):
            CostParams(block_costs=(1.0, 3.0), alpha=0.5)
        with pytest.raises(ValueError):
            CostParams(block_costs=(1.0, 1.0), alpha=1.2)

    def test_tick_cost_variants(self):
        p = CostParams(block_costs=(0.1, 0.1, 0.0), alpha=1.0,
                       shared_cost=1.0, shared_sites=(1, 1, 0))
        assert p.tick_cost("plain") == pytest.approx(2.2)
        assert p.tick_cost("bundled") == pytest.approx(2.2)
        assert p.tick_cost("amortized") == pytest.approx(1.2)
        assert p.shared_evals_per_tick("plain") == 2
        assert p.shared_evals_per_tick("amortized") == 1

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            CostParams(block_costs=())
        with pytest.raises(ValueError):
            CostParams(block_costs=(1.0, -0.5))
        with pytest.raises(ValueError):
            CostParams(block_costs=(1.0,), loop_states=(2,))


class TestScriptedLedger:
    def test_hand_evaluated_barrier_cost(self):
        # N matrix [[3, 1], [1, 3]] with zero constant-block cost and unit
        # loop cost: barriered total is 3 + 3 = 6
        schedules = ([3, 1], [1, 3])
        bundle = scripted_kernel()
        params = CostParams(block_costs=(0.0, 1.0, 0.0), alpha=1.0, loop_states=(2,))
        batch = scripted_batch(schedules)
        _, ledger = run_standard_batched(bundle, DUMMY_TARGET, batch, 2, cost_params=params)
        assert np.array_equal(ledger.iter_counts, np.array([[3, 1], [1, 3]]))
        assert ledger.charged_cost == 6.0

    def test_ticks_to_nth_sample_identity(self):
        # single-loop machine: chain j needs sum_i (2 + N_ij) ticks
        schedules = ([3, 1, 2], [1, 3, 1])
        bundle = scripted_kernel()
        batch = scripted_batch(schedules)
        _, ledger = run_fsm_batched(bundle, DUMMY_TARGET, batch, 3)
        for j, sched in enumerate(schedules):
            expect = np.cumsum([2 + n for n in sched])
            assert np.array_equal(ledger.sample_ticks[:, j], expect)

    def test_fsm_run_matches_plain_per_chain_tick_count(self):
        schedules = ([5], [1])
        bundle = scripted_kernel()
        batch = scripted_batch(schedules)
        _, ledger = run_fsm_batched(bundle, DUMMY_TARGET, batch, 1)
        # the slowest chain finishes at tick 2 + 5, and the loop stops at the
        # end of that tick's chunk
        assert ledger.sample_ticks.tolist() == [[7, 3]]
        assert ledger.tick_count == TICK_CHUNK


class TestStandardDriver:
    def test_single_chain_charge_reduces_to_per_sample_sum(self):
        bundle = drmh_kernel(10, 0.5)
        t = standard_normal_target(1)
        params = CostParams(block_costs=(1.0, 1.0, 1.0), alpha=1.0, loop_states=(2,))
        batch = init_batch(bundle, t, 1, 3)
        _, ledger = run_standard_batched(bundle, t, batch, 40, cost_params=params)
        expect = (2.0 * 40 + ledger.iter_counts[:, 0].sum())
        assert ledger.charged_cost == pytest.approx(expect)

    def test_cost_params_naming_other_loop_states_are_rejected(self):
        bundle = drmh_kernel(10, 0.5, split_body=True)  # loop states 2..5
        t = standard_normal_target(1)
        params = CostParams(block_costs=(1.0,) * 6, loop_states=(2,))
        with pytest.raises(ValueError, match="loop states"):
            run_standard_batched(bundle, t, init_batch(bundle, t, 2, 0), 5,
                                 cost_params=params)

    def test_charged_cost_nondecreasing_in_m(self):
        # stream splitting is prefix-stable, so a bigger batch contains the
        # smaller one's chains and every per-iteration max can only grow
        bundle = drmh_kernel(50, 0.1)
        t = standard_normal_target(1)
        costs = []
        for m in (2, 4, 8):
            batch = init_batch(bundle, t, m, 11)
            _, ledger = run_standard_batched(bundle, t, batch, 150)
            costs.append(ledger.charged_cost)
        assert costs[0] <= costs[1] <= costs[2]

    def test_mean_max_strictly_exceeds_mean_at_64_chains(self):
        bundle = drmh_kernel(100, 0.1)
        t = standard_normal_target(1)
        batch = init_batch(bundle, t, 64, 0)
        _, ledger = run_standard_batched(bundle, t, batch, 10_000)
        N = ledger.iter_counts
        assert N.max(axis=1).mean() > N.mean()

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dim, rho", [(2, 0.99), (10, 0.9)])
    def test_nuts_charge_is_what_vmap_pays(self, dim, rho, seed):
        # vmap of NUTS's nested loops runs the outer loop max_j outer(j)
        # times and, at outer iteration o, the inner loop max_j N_inner(j, o)
        # times; the barrier charges INTEGRATE max_j sum_o N_inner(j, o)
        nuts = nuts_kernel(0.25)
        init, outer, done = nuts.program
        double, inner, check = outer.body
        integrate = inner.body[0]
        log = {}  # id(locals) -> per sample, INTEGRATE runs per outer iteration

        def recording_double(z):
            if z.depth == 0:  # a sample's first outer iteration
                log.setdefault(id(z), []).append([])
            log[id(z)][-1].append(0)
            double.fn(z)

        def recording_integrate(z):
            log[id(z)][-1][-1] += 1
            integrate.fn(z)

        program = (init, While(outer.cond, (
            double._replace(fn=recording_double),
            While(inner.cond, (integrate._replace(fn=recording_integrate),)),
            check)), done)
        bundle = KernelBundle.from_program(
            "nuts", program, nuts.init_locals,
            block_costs=nuts.default_costs.block_costs, requires=nuts.requires)
        t = gaussian_target(np.zeros(dim),
                            np.linalg.cholesky(equicorrelated_covariance(dim, rho)))
        c = bundle.default_costs.full_block_costs()
        n = 20
        for m in (4, 16, 64):
            log.clear()
            batch = init_batch(bundle, t, m, seed)
            _, ledger = run_standard_batched(bundle, t, batch, n)
            vmap_charge = 0.0
            for i in range(n):
                outers = [log[id(z)][i] for z in batch.locals]
                iterations = max(len(o) for o in outers)
                inner_runs = sum(max(o[k] for o in outers if k < len(o))
                                 for k in range(iterations))
                assert inner_runs == ledger.loop_exec_counts[3][i].max()
                vmap_charge += (c[0] + c[4] + (c[1] + c[3]) * iterations
                                + c[2] * inner_runs)
            assert ledger.charged_cost == pytest.approx(vmap_charge, rel=1e-12)

    def test_kernel_failure_reports_chain_and_iteration(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            return math.inf if calls["n"] > 30 else 0.0

        t = TargetModel(name="flaky", dim=1, log_density=flaky)
        bundle = drmh_kernel(5, 1.0)
        with pytest.raises(KernelRunError) as info:
            run_standard_batched(bundle, t, init_batch(bundle, t, 2, 1), 50)
        assert info.value.iteration >= 0
        assert "log-density" in str(info.value)


def _turns_infinite_after(target, calls_left):
    """``target`` whose log-density returns +inf once it has made
    ``calls_left`` calls."""
    left = [calls_left]

    def log_density(x):
        left[0] -= 1
        return math.inf if left[0] < 0 else target.log_density(x)

    return dataclasses.replace(target, log_density=log_density)


class TestKernelFailureLedger:
    """A failed run keeps the ledger of the rows every chain finished."""

    @pytest.mark.parametrize("variant", ["barrier", "plain", "bundled"])
    def test_ledger_is_the_prefix_of_a_run_that_does_not_fail(self, variant):
        bundle, base = drmh_kernel(10, 1.5), standard_normal_target(1)
        m, n, seed = 3, 60, 4

        def run(target, batch, samples):
            if variant == "barrier":
                return run_standard_batched(bundle, target, batch, samples)[1]
            return run_fsm_batched(bundle, target, batch, samples,
                                   step_variant=variant)[1]

        def fresh(target):
            return init_batch(bundle, target, m, seed, init_jitter=1.0)

        full = run(base, fresh(base), n)
        failing = _turns_infinite_after(base, 300)
        batch = fresh(failing)
        with pytest.raises(KernelRunError) as info:
            run(failing, batch, n)
        err = info.value
        assert "log-density evaluated to inf" in str(err)
        assert err.iteration == batch.sample_counts[err.chain]
        partial = err.ledger
        rows = partial.iter_counts.shape[0]
        assert rows == min(batch.sample_counts)
        assert 0 < rows < n
        if variant == "barrier":
            # the first rows iterations, charged as a run of rows samples
            short = run(base, fresh(base), rows)
            assert partial.tick_count == rows
            assert partial.charged_cost == short.charged_cost
            assert np.array_equal(partial.block_exec_counts, short.block_exec_counts)
        else:
            assert np.array_equal(partial.sample_ticks, full.sample_ticks[:rows])
        assert np.array_equal(partial.iter_counts, full.iter_counts[:rows])
        assert partial.loop_exec_counts.keys() == full.loop_exec_counts.keys()
        for s, counts in full.loop_exec_counts.items():
            assert np.array_equal(partial.loop_exec_counts[s], counts[:rows])


class TestFsmDriver:
    def test_bundled_never_needs_more_ticks_than_plain(self):
        bundle = drmh_kernel(40, 0.2)
        t = standard_normal_target(1)
        for seed in range(10):
            _, plain = run_fsm_batched(bundle, t, init_batch(bundle, t, 4, seed),
                                       80, step_variant="plain")
            _, bund = run_fsm_batched(bundle, t, init_batch(bundle, t, 4, seed),
                                      80, step_variant="bundled")
            # the tick of the last sample is the tick count of an unchunked loop
            assert bund.sample_ticks.max() <= plain.sample_ticks.max()

    def test_tick_budget_overrun_carries_partial_ledger(self):
        bundle = drmh_kernel(10, 0.5)
        t = standard_normal_target(1)
        batch = init_batch(bundle, t, 2, 7)
        with pytest.raises(TickBudgetExceeded) as info:
            run_fsm_batched(bundle, t, batch, 10_000, tick_budget=50)
        assert info.value.ledger.tick_count <= 50
        assert len(info.value.sample_counts) == 2

    def test_tick_budget_ledger_holds_the_rows_every_chain_finished(self):
        bundle = drmh_kernel(10, 0.5)
        t = standard_normal_target(1)
        n, budget = 100, 2 * TICK_CHUNK + 50
        with pytest.raises(TickBudgetExceeded) as info:
            run_fsm_batched(bundle, t, init_batch(bundle, t, 3, 7), n, tick_budget=budget)
        partial = info.value.ledger
        rows = min(info.value.sample_counts)
        assert partial.tick_count == 2 * TICK_CHUNK
        assert 0 < rows < n
        _, full = run_fsm_batched(bundle, t, init_batch(bundle, t, 3, 7), n)
        assert np.array_equal(partial.iter_counts, full.iter_counts[:rows])
        assert np.array_equal(partial.sample_ticks, full.sample_ticks[:rows])
        assert partial.loop_exec_counts.keys() == full.loop_exec_counts.keys()
        for s, counts in full.loop_exec_counts.items():
            assert np.array_equal(partial.loop_exec_counts[s], counts[:rows])

    def test_reusing_a_batch_is_rejected(self):
        bundle = drmh_kernel(5, 0.5)
        t = standard_normal_target(1)
        batch = init_batch(bundle, t, 2, 0)
        run_fsm_batched(bundle, t, batch, 5)
        with pytest.raises(ValueError):
            run_fsm_batched(bundle, t, batch, 5)

    def test_surplus_samples_truncated_to_n(self):
        bundle = drmh_kernel(30, 0.1)
        t = standard_normal_target(1)
        samples, ledger = run_fsm_batched(bundle, t, init_batch(bundle, t, 3, 2), 7)
        assert samples.shape == (7, 3, 1)
        assert ledger.iter_counts.shape == (7, 3)

    def test_shared_eval_accounting_plain_vs_amortized(self):
        target = conjugate_target()
        bundle = elliptical_kernel()
        n, m = 60, 8
        _, plain = run_fsm_batched(bundle, target, init_batch(bundle, target, m, 3),
                                   n, step_variant="plain")
        _, amort = run_fsm_batched(bundle, target, init_batch(bundle, target, m, 3),
                                   n, step_variant="amortized")
        assert plain.shared_evals_per_tick == 2
        assert amort.shared_evals_per_tick == 1
        assert plain.native_shared_evals == amort.native_shared_evals
        assert plain.tick_count == amort.tick_count
        assert plain.charged_cost > amort.charged_cost

    def test_measured_costs_are_admissible(self):
        bundle = drmh_kernel(10, 0.5)
        t = standard_normal_target(1)
        params = measure_block_costs(bundle, t, seed=0)
        assert len(params.block_costs) == 3
        assert sum(params.block_costs) > 0
        assert params.alpha == 1.0

    def test_measured_costs_are_timed_seconds_per_execution(self, monkeypatch):
        # a clock that advances one second per reading times every block
        # execution and every shared evaluation at exactly one second
        readings = itertools.count()
        monkeypatch.setattr(lockstep.time, "perf_counter", lambda: float(next(readings)))
        params = measure_block_costs(elliptical_kernel(), conjugate_target(), seed=0)
        assert params.block_costs == (1.0, 1.0, 1.0)
        assert params.shared_cost == 1.0
        assert params.shared_sites == (1, 1, 0)


PARITY_CASES = {
    "drmh": lambda: (drmh_kernel(100, 0.1), standard_normal_target(1)),
    "drmh-split": lambda: (drmh_kernel(20, 0.8, split_body=True), standard_normal_target(1)),
    "slice": lambda: (slice_kernel(1.0), standard_normal_target(1)),
    "elliptical": lambda: (elliptical_kernel(), conjugate_target()),
    "nuts": lambda: (nuts_kernel(0.75, max_depth=6), standard_normal_target(2)),
}


def _paired_runs(kernel, variant, m=6, n=30, seed=5):
    bundle, target = PARITY_CASES[kernel]()
    barrier_batch = init_batch(bundle, target, m, seed, init_jitter=1.0)
    ref, barrier = run_standard_batched(bundle, target, barrier_batch, n)
    fsm_batch = init_batch(bundle, target, m, seed, init_jitter=1.0)
    got, machine = run_fsm_batched(bundle, target, fsm_batch, n, step_variant=variant)
    assert np.array_equal(ref, got)
    assert barrier_batch.sample_counts == [n] * m
    assert fsm_batch.sample_counts == [n] * m
    return bundle, barrier_batch, barrier, fsm_batch, machine


def _counting(target, calls):
    """``target`` counting its log-density calls in ``calls[0]``; under a
    Gaussian-prior split, its residual log-density calls."""
    def counted(fn):
        def wrapper(x):
            calls[0] += 1
            return fn(x)
        return wrapper

    prior = target.gaussian_prior
    if prior is not None:
        return dataclasses.replace(target, gaussian_prior=dataclasses.replace(
            prior, residual_log_density=counted(prior.residual_log_density)))
    return dataclasses.replace(target, log_density=counted(target.log_density))


class TestWorkParity:
    """Both regimes execute the same blocks natively on identical streams."""

    @pytest.mark.parametrize("kernel", ["drmh", "elliptical", "slice"])
    def test_both_regimes_make_the_same_target_calls(self, kernel):
        bundle, base = PARITY_CASES[kernel]()
        calls = [0]
        target = _counting(base, calls)
        made = []
        for run in (run_standard_batched, run_fsm_batched):
            batch = init_batch(bundle, target, 6, 5, init_jitter=1.0)
            calls[0] = 0
            run(bundle, target, batch, 30)
            made.append(calls[0])
        assert made[0] > 0
        assert made[0] == made[1]

    @pytest.mark.parametrize("variant", ["plain", "amortized"])
    @pytest.mark.parametrize("kernel", sorted(PARITY_CASES))
    def test_state_machine_does_the_barriers_native_work(self, kernel, variant):
        bundle, barrier_batch, barrier, fsm_batch, machine = _paired_runs(kernel, variant)
        assert np.array_equal(machine.block_exec_counts, barrier.block_exec_counts)
        # every execution of a block with a shared site requests one evaluation
        shared = bundle.fsm.shared
        sites = shared.sites if shared is not None else frozenset()
        barrier_shared = sum(int(c) for s, c in enumerate(barrier.block_exec_counts, start=1)
                             if s in sites)
        assert machine.native_shared_evals == barrier_shared
        assert [z.rng for z in fsm_batch.locals] == [z.rng for z in barrier_batch.locals]
        # finished chains stop stepping, but the charge runs to the end of the
        # 100-tick chunk in which the last chain finished
        last = int(machine.sample_ticks[-1].max())
        assert machine.tick_count == -(-last // 100) * 100

    @pytest.mark.parametrize("kernel", sorted(PARITY_CASES))
    def test_bundled_overruns_by_at_most_one_call_per_chain(self, kernel):
        bundle, barrier_batch, barrier, _, machine = _paired_runs(kernel, "bundled")
        m, K = barrier_batch.m, bundle.fsm.n_states
        extra = machine.block_exec_counts - barrier.block_exec_counts
        assert extra.min() >= 0
        assert extra.sum() <= m * (K - 1)


    def test_each_regime_fills_its_own_draw_windows(self, monkeypatch):
        # the PRNG keeps one window per stream, so the state machine, run on
        # the streams the barrier has just used, computes every draw again
        bundle, target = PARITY_CASES["drmh"]()
        fills = [0]
        fill = prng._fill_window

        def counted(*args):
            fills[0] += 1
            return fill(*args)

        monkeypatch.setattr(prng, "_fill_window", counted)
        made = []
        for run in (run_standard_batched, run_fsm_batched):
            batch = init_batch(bundle, target, 6, 5, init_jitter=1.0)
            fills[0] = 0
            run(bundle, target, batch, 80)
            made.append(fills[0])
        assert made[0] >= 6 * 2  # 80 samples take over 64 draws per chain
        assert made[0] == made[1]


def _kernel_modules():
    return [importlib.import_module(f"fsm_mcmc.kernels.{info.name}")
            for info in pkgutil.iter_modules(kernels.__path__)]


@pytest.mark.parametrize("regime", ["barrier", *lockstep.STEP_VARIANTS])
@pytest.mark.parametrize("kernel", sorted(PARITY_CASES))
def test_draws_through_the_module_names_equal_the_counters_advanced(
        monkeypatch, kernel, regime):
    # the benchmark's traced run counts draws only through each kernel
    # module's uniform and normal_vec and through prng.normal_vec (the
    # starting jitter), and compares the count with the chains' counters
    drawn = [0]

    def counting(fn, width):
        def wrapper(*args):
            drawn[0] += width(args)
            return fn(*args)
        return wrapper

    widths = {"uniform": lambda args: 1, "normal_vec": lambda args: args[1]}
    monkeypatch.setattr(prng, "normal_vec", counting(prng.normal_vec, widths["normal_vec"]))
    for module in _kernel_modules():
        for name, width in widths.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name), width))
    bundle, target = PARITY_CASES[kernel]()
    batch = init_batch(bundle, target, 6, 5, init_jitter=1.0)
    if regime == "barrier":
        run_standard_batched(bundle, target, batch, 30)
    else:
        run_fsm_batched(bundle, target, batch, 30, step_variant=regime)
    assert drawn[0] > 6 * 30
    assert drawn[0] == sum(z.rng.counter for z in batch.locals)


# machines whose kernel events (KernelBundle.events) occur often
EVENT_CASES = {
    "nuts": lambda: (nuts_kernel(0.9, max_depth=2, divergence_threshold=0.2),
                     standard_normal_target(2)),
    "slice": lambda: (slice_kernel(0.3, max_expansions=1), standard_normal_target(1)),
}


@pytest.mark.parametrize("variant", lockstep.STEP_VARIANTS)
@pytest.mark.parametrize("kernel", sorted(EVENT_CASES))
def test_kernel_events_are_counted_once_per_recorded_sample(kernel, variant):
    # the bundled call that finishes a chain's last sample runs blocks of
    # the next one (slice: its first EXPAND; NUTS: its first INTEGRATE),
    # which must not count
    bundle, target = EVENT_CASES[kernel]()
    counts = []
    for run in (run_standard_batched, run_fsm_batched):
        batch = init_batch(bundle, target, 6, 5, init_jitter=1.0)
        kwargs = {} if run is run_standard_batched else {"step_variant": variant}
        run(bundle, target, batch, 30, **kwargs)
        counts.append({e: [getattr(z, e) for z in batch.locals] for e in bundle.events})
    assert counts[0] == counts[1]
    assert all(0 < sum(c) <= 6 * 30 for c in counts[0].values())


def _valid_orders(machine):
    """The default bundled order, its reverse, and the first valid order
    whose final state is not first, where one exists."""
    K = machine.n_states
    orders = [default_bundled_order(machine), tuple(range(K, 0, -1))]
    for order in itertools.permutations(range(1, K + 1)):
        if order[0] != K:
            try:
                validate_bundled_order(machine, order)
            except FsmError:
                continue
            orders.append(order)
            break
    return orders


def _reference_run(bundle, target, m, n, seed, order):
    """Step each chain with fsm.step (order None) or fsm.bundled_step, one
    call per chain per tick, until every chain has n samples."""
    machine = bundle.fsm
    batch = init_batch(bundle, target, m, seed, init_jitter=1.0)
    states, locs = [1] * m, list(batch.locals)
    samples = [[] for _ in range(m)]
    sample_ticks = [[] for _ in range(m)]
    executed = np.zeros(machine.n_states, dtype=np.int64)
    tick = 0
    while min(len(x) for x in samples) < n:
        tick += 1
        for j in range(m):
            if len(samples[j]) == n:
                continue
            if order is None:
                out = step(machine, states[j], locs[j])
            else:
                out = bundled_step(machine, states[j], locs[j], order)
            states[j] = out.state
            for s in out.executed:
                executed[s - 1] += 1
            if out.is_sample:
                samples[j].append(locs[j].x)
                sample_ticks[j].append(tick)
    return (np.stack([np.asarray(x) for x in samples], axis=1), states, executed,
            np.array(sample_ticks).T, [z.rng for z in locs])


def _counting_shared(bundle, calls):
    machine = bundle.fsm
    if machine.shared is None:
        return bundle

    def counted(z):
        calls[0] += 1
        machine.shared.fn(z)

    shared = dataclasses.replace(machine.shared, fn=counted)
    return dataclasses.replace(bundle, fsm=dataclasses.replace(machine, shared=shared))


class TestInlinedTick:
    """The driver's inlined tick runs what fsm.step / fsm.bundled_step run."""

    @pytest.mark.parametrize("kernel", sorted(PARITY_CASES))
    def test_driver_equals_reference_executors(self, kernel):
        base, target = PARITY_CASES[kernel]()
        m, n, seed = 5, 20, 11
        runs = [("plain", None), ("amortized", None)]
        runs += [("bundled", order) for order in _valid_orders(base.fsm)]
        assert len({order for _, order in runs}) == len(runs) - 1
        for variant, order in runs:
            ref_calls, calls = [0], [0]
            ref = _reference_run(_counting_shared(base, ref_calls), target, m, n, seed,
                                 order)
            bundle = _counting_shared(base, calls)
            batch = init_batch(bundle, target, m, seed, init_jitter=1.0)
            got, ledger = run_fsm_batched(bundle, target, batch, n, step_variant=variant,
                                          bundled_order=order)
            samples, states, executed, sample_ticks, rngs = ref
            assert np.array_equal(got, samples), (variant, order)
            assert batch.state_ids == states, (variant, order)
            assert np.array_equal(ledger.block_exec_counts, executed), (variant, order)
            assert np.array_equal(ledger.sample_ticks, sample_ticks), (variant, order)
            assert [z.rng for z in batch.locals] == rngs
            assert ledger.native_shared_evals == calls[0] == ref_calls[0]


class RefreshLocals(Locals):
    """Locals of a program whose blocks and shared function log to ``trace``."""

    __slots__ = ("schedule", "left", "left2", "trace")

    def __init__(self, schedule):
        super().__init__(x=np.zeros(1), rng=None)
        self.schedule = itertools.cycle(schedule)
        self.left = self.left2 = 0
        self.trace = []


def refresh_kernel():
    """A one-block loop, a two-block loop and a non-loop block marked shared;
    no block asks for the refresh itself."""

    def logged(label, action=None):
        def block(z):
            z.trace.append(label)
            if action is not None:
                action(z)
        return block

    def _init(z):
        z.left, z.left2 = next(z.schedule), next(z.schedule)

    def _body(z):
        z.left -= 1

    def _b(z):
        z.left2 -= 1

    def _done(z):
        z.x = np.array([float(len(z.trace))])

    program = (
        Block(logged("INIT", _init), "INIT"),
        While(lambda z: z.left > 0, (Block(logged("BODY", _body), "BODY", shared=True),)),
        Block(logged("MID"), "MID", shared=True),
        While(lambda z: z.left2 > 0, (Block(logged("A"), "A"),
                                      Block(logged("B", _b), "B", shared=True))),
        Block(logged("DONE", _done), "DONE"),
    )
    return KernelBundle.from_program(
        "refresh", program, lambda x0, rng, target: RefreshLocals([0]),
        shared=lambda z: z.trace.append("REFRESH"))


REFRESH_SCHEDULES = ([2, 0, 0, 3, 1, 1], [0, 2, 3, 0])
MARKED = {"BODY", "MID", "B"}


@pytest.mark.parametrize("executor", ["step", "bundled_step", "run_fsm_batched-plain",
                                      "run_fsm_batched-bundled", "monolithic"])
def test_marked_blocks_refresh_once_after_every_run(executor):
    bundle = refresh_kernel()
    machine = bundle.fsm
    n = 4
    chains = [RefreshLocals(s) for s in REFRESH_SCHEDULES]
    refreshes = None
    if executor.startswith("run_fsm_batched"):
        batch = ChainBatch(m=len(chains), locals=chains, state_ids=[1] * len(chains),
                           sample_counts=[0] * len(chains))
        _, ledger = run_fsm_batched(bundle, DUMMY_TARGET, batch, n,
                                    step_variant=executor.split("-")[1])
        refreshes = ledger.native_shared_evals
    for z in chains:
        if executor == "monolithic":
            for _ in range(n):
                bundle.monolithic(z)
        elif executor in ("step", "bundled_step"):
            run, k, got = (step if executor == "step" else bundled_step), 1, 0
            while got < n:
                out = run(machine, k, z)
                k, got = out.state, got + out.is_sample
        blocks = [t for t in z.trace if t != "REFRESH"]
        assert blocks.count("DONE") >= n and set(blocks) == set(machine.labels)
        # each run of a marked block is followed by one refresh; nothing else is
        assert z.trace == [t for b in blocks
                           for t in ((b, "REFRESH") if b in MARKED else (b,))]
    if refreshes is not None:
        assert refreshes == sum(z.trace.count("REFRESH") for z in chains)
