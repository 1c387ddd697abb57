"""fsm-mcmc benchmark: one workload in one fresh, single-threaded process.

    python3 bench/run.py --workload drmh-wide --seed 0 --seconds 30 --trace 0

Each operation is one ``fsm_mcmc.cli.run_experiment`` call, the entry point
behind the ``fsm-mcmc`` command: both regimes on identical streams, the
bit-identity check, ESS and efficiency analysis and the result files.  The
run repeats operations, each on inputs derived from ``--seed`` and the
operation's index, until ``--seconds`` are spent; every operation's outputs
go through the checks in ``checks.py`` outside the timed regions.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced operation next to an untraced one on the same inputs.
The last line of standard output is one JSON object; see README.md.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def _process_age() -> float:
    """Seconds since this process started (Linux; 0 where /proc is missing)."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_PROCESS_START = _T_START - _process_age()

# the command pins BLAS to one thread; keep that when run by hand too
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# the program under test is this checkout's src/, never an installed copy
sys.path.insert(0, str(SRC))
try:
    from fsm_mcmc import cli
except ImportError as exc:
    sys.exit(f"cannot import fsm_mcmc from {SRC}: {exc}")
if Path(cli.__file__).resolve().parent.parent != SRC:
    sys.exit(f"fsm_mcmc was imported from {Path(cli.__file__).parent}, not from {SRC}")

import checks  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

_T_IMPORTED = time.perf_counter()

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "barrier_samples_per_s": "samples/s",
    "fsm_samples_per_s": "samples/s",
    "fsm_ess_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "prng.calls": "count",
    "prng.draws": "count",
    "prng.self_s": "s",
    "targets.calls": "count",
    "targets.self_s": "s",
    "targets.extra_calls.barrier": "count",
    "targets.extra_calls.fsm": "count",
    "kernels.block_self_s": "s",
    "kernels.monolithic_self_s": "s",
    "fsm.transition_calls": "count",
    "fsm.transition_s": "s",
    "fsm.executor_self_s": "s",
    "lockstep.driver_self_s.barrier": "s",
    "lockstep.driver_self_s.fsm": "s",
    "lockstep.ticks": "count",
    "lockstep.native_blocks.barrier": "count",
    "lockstep.native_blocks.fsm": "count",
    "lockstep.useful_block_share": "ratio",
    "lockstep.model_cost_per_sample.barrier": "cost/sample",
    "lockstep.model_cost_per_sample.fsm": "cost/sample",
    "lockstep.seconds_per_sample.barrier": "s/sample",
    "lockstep.seconds_per_sample.fsm": "s/sample",
    "lockstep.model_speedup": "ratio",
    "lockstep.measured_speedup": "ratio",
    "analysis.ess_s": "s",
    "analysis.efficiency_s": "s",
    "cli.self_s": "s",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


@dataclass
class Setup:
    workload: object
    config: object      # RunConfig without seeds
    target: object
    bundle: object
    params: object
    out_dir: Path


@dataclass
class Operation:
    seed: int
    wall_s: float
    capture: object
    result: object


def sub_seed(seed: int, index: int) -> int:
    """Seed of the index-th operation of a run with workload seed ``seed``."""
    return 1000 * seed + index


def run_operation(setup: Setup, seed: int, tracer=None) -> Operation:
    config = replace(setup.config, seeds=(seed,))
    capture = probes.Capture()
    run = cli.run_experiment
    if tracer is None:
        patch = capture.patch()
    else:
        patch = tracer.patch(capture)
        run = tracer.wrap("cli.run_experiment", run)
    gc.collect()
    with patch:
        t0 = time.perf_counter()
        result = run(config)
        wall = time.perf_counter() - t0
    return Operation(seed=seed, wall_s=wall, capture=capture, result=result)


def check_operation(setup: Setup, op: Operation) -> None:
    cap = op.capture
    barrier, machine = cap.ledgers["barrier"], cap.ledgers["fsm"]
    checks.check_samples_equal(cap.samples["barrier"], cap.samples["fsm"])
    setup.workload.check(cap.samples["fsm"], setup.target, setup.out_dir)
    checks.check_iteration_counts(barrier, machine)
    checks.check_barrier_charge(setup.params, barrier)
    if len(setup.bundle.fsm.loop_states) == 1:
        checks.check_efficiency_bound(setup.params, barrier.iter_counts,
                                      op.result.reports[0]["efficiency"])


# machine_probe's time on this 2-core VM when nothing else slowed it
PROBE_REFERENCE_S = 0.03
# share of each operation's time spent probing the machine after it
PROBE_SHARE = 0.05


def end_to_end_metrics(setup: Setup, ops, setup_s: float, rss_mb: float,
                       probe_s: float) -> dict:
    """Medians over the run's operations, at the reference machine speed.

    The shared machine runs up to 1.8x slower for stretches longer than a
    run.  Each time is scaled by PROBE_REFERENCE_S over ``probe_s``, the
    median time of the machine probes between the run's operations, which
    slow down with it.  ESS depends on the inputs, not on the machine, so
    it is averaged over the operations' distinct seeds.  Set-up time is
    reported as measured: imports do not slow down in step with the probe.
    """
    speed = probe_s / PROBE_REFERENCE_S
    samples = setup.config.chains * setup.config.samples
    fsm_s = statistics.median(op.capture.seconds["fsm"] for op in ops) / speed
    ess = statistics.fmean(op.result.reports[0]["ess"].pooled for op in ops)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(op.wall_s for op in ops) / speed,
        "barrier_samples_per_s": samples * speed / statistics.median(
            op.capture.seconds["barrier"] for op in ops),
        "fsm_samples_per_s": samples / fsm_s,
        "fsm_ess_per_s": ess / fsm_s,
        "peak_rss_mb": rss_mb,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(setup: Setup, plain: Operation, traced: Operation, tracer,
                  import_s: float) -> dict:
    totals = tracer.totals()

    def layer(prefix, key):
        return sum(v[key] for k, v in totals.items() if k.startswith(prefix))

    def phase_calls(prefix, phase):
        return sum(v["phase_calls"][phase] for k, v in totals.items() if k.startswith(prefix))

    cfg = setup.config
    m, n = cfg.chains, cfg.samples
    barrier, machine = traced.capture.ledgers["barrier"], traced.capture.ledgers["fsm"]
    needed = m + setup.workload.evals_before_loop * n * m + int(barrier.iter_counts.sum())
    secs = plain.capture.seconds
    blocks_b = int(barrier.block_exec_counts.sum())
    blocks_f = int(machine.block_exec_counts.sum())
    return {
        "prng.calls": layer("prng.", "calls"),
        "prng.draws": sum(tracer.draws),
        "prng.self_s": layer("prng.", "self_s"),
        "targets.calls": layer("targets.", "calls"),
        "targets.self_s": layer("targets.", "self_s"),
        "targets.extra_calls.barrier": phase_calls("targets.", probes.BARRIER) - needed,
        "targets.extra_calls.fsm": phase_calls("targets.", probes.FSM) - needed,
        "kernels.block_self_s": layer("kernels.block.", "self_s") + layer("kernels.shared", "self_s"),
        "kernels.monolithic_self_s": layer("kernels.monolithic", "self_s"),
        "fsm.transition_calls": layer("fsm.transition", "calls"),
        "fsm.transition_s": layer("fsm.transition", "total_s"),
        "fsm.executor_self_s": layer("fsm.bundled_step", "self_s"),
        "lockstep.driver_self_s.barrier": layer("lockstep.run_standard_batched", "self_s"),
        "lockstep.driver_self_s.fsm": layer("lockstep.run_fsm_batched", "self_s"),
        "lockstep.ticks": int(machine.tick_count),
        "lockstep.native_blocks.barrier": blocks_b,
        "lockstep.native_blocks.fsm": blocks_f,
        "lockstep.useful_block_share": blocks_b / blocks_f,
        "lockstep.model_cost_per_sample.barrier": barrier.cost_per_sample(),
        "lockstep.model_cost_per_sample.fsm": machine.cost_per_sample(),
        "lockstep.seconds_per_sample.barrier": secs["barrier"] / n,
        "lockstep.seconds_per_sample.fsm": secs["fsm"] / n,
        "lockstep.model_speedup": barrier.cost_per_sample() / machine.cost_per_sample(),
        "lockstep.measured_speedup": secs["barrier"] / secs["fsm"],
        "analysis.ess_s": layer("analysis.effective_sample_size", "total_s"),
        "analysis.efficiency_s": layer("analysis.efficiency_report", "total_s"),
        "cli.self_s": layer("cli.run_experiment", "self_s"),
        "setup.import_s": import_s,
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        "trace.spans": len(tracer.start),
    }


def cross_check(setup: Setup, plain: Operation, traced: Operation, tracer) -> list[str]:
    """Totals reached by two independent paths must agree; returns what was compared."""
    cap = traced.capture
    done = []
    for phase, batch in zip((probes.BARRIER, probes.FSM), cap.batches):
        advanced = sum(z.rng.counter for z in batch.locals)
        name = probes.PHASES[phase]
        if tracer.draws[phase] != advanced:
            raise checks.CheckFailed(
                f"{name}: wrapped PRNG draws {tracer.draws[phase]} != "
                f"counters advanced {advanced}")
        done.append(f"{name} PRNG draws {advanced}")
    residual = tracer.totals().get("targets.residual_log_density")
    if residual is not None:
        calls = residual["phase_calls"][probes.FSM]
        want = cap.ledgers["fsm"].native_shared_evals + setup.config.chains
        if calls != want:
            raise checks.CheckFailed(
                f"state-machine residual log-density calls {calls} != "
                f"ledger native_shared_evals + m = {want}")
        done.append(f"state-machine residual log-density calls {calls}")
    for regime in ("barrier", "fsm"):
        checks.check_samples_equal(plain.capture.samples[regime], cap.samples[regime])
    done.append("traced samples equal untraced samples")
    return done


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = _T_IMPORTED - _PROCESS_START
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    config = cli.RunConfig(**workload.config, out=str(out_dir))
    target = cli.build_target(config)
    bundle = cli.build_kernel(config)
    setup = Setup(workload=workload, config=config, target=target, bundle=bundle,
                  params=cli.resolve_cost_params(config, bundle, target), out_dir=out_dir)
    setup_s = time.perf_counter() - _PROCESS_START

    ops = []
    failed = 0
    correct = True
    metrics = {}
    try:
        if args.trace:
            seed = sub_seed(args.seed, 0)
            plain = run_operation(setup, seed)
            check_operation(setup, plain)
            ops.append(plain)
            tracer = probes.Tracer()
            traced = run_operation(setup, seed, tracer=tracer)
            ops.append(traced)
            check_operation(setup, traced)
            for line in cross_check(setup, plain, traced, tracer):
                print(f"cross-check passed: {line}", file=sys.stderr)
            metrics = layer_metrics(setup, plain, traced, tracer, import_s)
            tracer.save(out_dir / "spans.npz")
            units = PER_LAYER_UNITS
        else:
            start = time.perf_counter()
            probe_times = probes.probe_for(0.1)
            while True:
                op = run_operation(setup, sub_seed(args.seed, len(ops)))
                ops.append(op)
                if len(ops) == 1:
                    # the high-water mark creeps up with every further
                    # operation; read it where every run has got to
                    rss_mb = peak_rss_mb()
                check_operation(setup, op)
                after = probes.probe_for(PROBE_SHARE * op.wall_s)
                probe_times += after
                print(f"op {len(ops)} seed {op.seed}: wall {op.wall_s:.3f} s, barrier "
                      f"{op.capture.seconds['barrier']:.3f} s, state machine "
                      f"{op.capture.seconds['fsm']:.3f} s, ESS "
                      f"{op.result.reports[0]['ess'].pooled:.1f}, machine probe "
                      f"{statistics.median(after) * 1e3:.1f} ms", file=sys.stderr)
                elapsed = time.perf_counter() - start
                if elapsed * (len(ops) + 1) / len(ops) > args.seconds:
                    break
            metrics = end_to_end_metrics(setup, ops, setup_s, rss_mb,
                                         statistics.median(probe_times))
            units = END_TO_END_UNITS
    except checks.CheckFailed as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 - any program failure fails the run
        correct = False
        failed = 1
        print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    report = {
        "correct": correct,
        "attempted": len(ops) + failed,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        if correct else {},
    }
    print(json.dumps(report))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
