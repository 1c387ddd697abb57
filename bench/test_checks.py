"""The benchmark's own tests: every check passes on the program's real output
and rejects a corrupted copy of it.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from fsm_mcmc import cli  # noqa: E402


def small_setup(name: str, tmp_path: Path, **overrides) -> run.Setup:
    workload = workloads.WORKLOADS[name]
    workload = dataclasses.replace(workload, config={**workload.config, **overrides})
    config = cli.RunConfig(**workload.config, out=str(tmp_path))
    target = cli.build_target(config)
    bundle = cli.build_kernel(config)
    return run.Setup(workload=workload, config=config, target=target, bundle=bundle,
                     params=cli.resolve_cost_params(config, bundle, target),
                     out_dir=tmp_path)


@pytest.fixture(scope="module")
def drmh_op(tmp_path_factory):
    setup = small_setup("drmh-wide", tmp_path_factory.mktemp("drmh"), samples=40)
    return setup, run.run_operation(setup, seed=3)


@pytest.fixture(scope="module")
def gp_ops(tmp_path_factory):
    """An untraced and a traced operation on the same inputs."""
    setup = small_setup("gp-elliptical", tmp_path_factory.mktemp("gp"), chains=8, samples=30)
    plain = run.run_operation(setup, seed=5)
    tracer = probes.Tracer()
    traced = run.run_operation(setup, seed=5, tracer=tracer)
    return setup, plain, traced, tracer


def test_full_operation_checks_pass(drmh_op, gp_ops):
    setup, op = drmh_op
    run.check_operation(setup, op)
    setup, plain, traced, _ = gp_ops
    run.check_operation(setup, plain)
    run.check_operation(setup, traced)


def test_standard_normal_rejects_shift_and_scale(drmh_op):
    setup, op = drmh_op
    samples = op.capture.samples["fsm"]
    with pytest.raises(checks.CheckFailed, match="mean"):
        setup.workload.check(samples + 1.0, setup.target, setup.out_dir)
    with pytest.raises(checks.CheckFailed, match="variance"):
        setup.workload.check(samples * 2.0, setup.target, setup.out_dir)


def test_covariance_rejects_wrong_correlation(tmp_path):
    setup = small_setup("nuts-narrow", tmp_path)
    op = run.run_operation(setup, seed=2)
    run.check_operation(setup, op)
    samples = op.capture.samples["fsm"]
    with pytest.raises(checks.CheckFailed, match="x0 x1"):
        setup.workload.check(samples * np.array([1.0, -1.0]), setup.target, tmp_path)
    with pytest.raises(checks.CheckFailed, match="x0 x0"):
        setup.workload.check(samples * 1.5, setup.target, tmp_path)


def test_gp_log_density_rejects_wrong_values(gp_ops):
    setup, plain, _, _ = gp_ops
    data = np.loadtxt(setup.out_dir / "gp_dataset.csv", delimiter=",", skiprows=1)
    X, y = data[:, :-1], data[:, -1]
    thetas = plain.capture.samples["fsm"][-1]
    log_density = setup.target.log_density
    checks.check_gp_log_density(thetas, X, y, log_density)
    with pytest.raises(checks.CheckFailed):
        checks.check_gp_log_density(thetas, X, y, lambda t: log_density(t) + 1e-3)
    with pytest.raises(checks.CheckFailed):
        checks.check_gp_log_density(thetas + 0.01, X, y, lambda t: log_density(t - 0.01))
    with pytest.raises(checks.CheckFailed):
        checks.check_gp_log_density(thetas, X, y + 0.01, log_density)


def test_sample_equality_rejects_one_changed_value(drmh_op):
    _, op = drmh_op
    barrier, machine = op.capture.samples["barrier"], op.capture.samples["fsm"]
    checks.check_samples_equal(barrier, machine)
    corrupted = machine.copy()
    corrupted[7, 3, 0] = np.nextafter(corrupted[7, 3, 0], np.inf)
    with pytest.raises(checks.CheckFailed):
        checks.check_samples_equal(barrier, corrupted)


def test_iteration_counts_reject_one_changed_count(drmh_op):
    _, op = drmh_op
    barrier, machine = op.capture.ledgers["barrier"], op.capture.ledgers["fsm"]
    checks.check_iteration_counts(barrier, machine)
    corrupted = copy.deepcopy(machine)
    corrupted.iter_counts[4, 2] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_iteration_counts(barrier, corrupted)


@pytest.mark.parametrize("which", ["drmh", "gp"])
def test_barrier_charge_rejects_wrong_charge_or_counts(which, drmh_op, gp_ops):
    setup, op = drmh_op if which == "drmh" else gp_ops[:2]
    ledger = op.capture.ledgers["barrier"]
    checks.check_barrier_charge(setup.params, ledger)
    wrong_charge = dataclasses.replace(ledger, charged_cost=ledger.charged_cost + 0.05)
    with pytest.raises(checks.CheckFailed):
        checks.check_barrier_charge(setup.params, wrong_charge)
    wrong_counts = copy.deepcopy(ledger)
    for counts in wrong_counts.loop_exec_counts.values():
        counts[0] = counts[0].max() + 1
    with pytest.raises(checks.CheckFailed):
        checks.check_barrier_charge(setup.params, wrong_counts)


def test_efficiency_bound_rejects_wrong_report(drmh_op):
    setup, op = drmh_op
    N = op.capture.ledgers["barrier"].iter_counts
    report = op.result.reports[0]["efficiency"]
    checks.check_efficiency_bound(setup.params, N, report)
    e, r = checks.efficiency(setup.params, N)
    assert e <= r
    # an alpha below its admissible range would break the bound; CostParams
    # refuses one, so stand in a plain namespace
    fields = {f.name: getattr(setup.params, f.name) for f in dataclasses.fields(setup.params)}
    inadmissible = types.SimpleNamespace(**{**fields, "alpha": setup.params.alpha * e / r / 2})
    with pytest.raises(checks.CheckFailed, match="exceeds"):
        checks.check_efficiency_bound(inadmissible, N, report)
    with pytest.raises(checks.CheckFailed, match="E\\(m\\)"):
        checks.check_efficiency_bound(setup.params, N, dataclasses.replace(report, E_of_m=e * 1.01))
    with pytest.raises(checks.CheckFailed, match="R\\(m\\)"):
        checks.check_efficiency_bound(setup.params, N, dataclasses.replace(report, R_of_m=r * 1.01))


def test_cross_checks_pass_and_reject_corruption(gp_ops):
    setup, plain, traced, tracer = gp_ops
    done = run.cross_check(setup, plain, traced, tracer)
    assert len(done) == 4
    tracer.draws[probes.FSM] += 1
    try:
        with pytest.raises(checks.CheckFailed, match="PRNG"):
            run.cross_check(setup, plain, traced, tracer)
    finally:
        tracer.draws[probes.FSM] -= 1
    ledger = traced.capture.ledgers["fsm"]
    ledger.native_shared_evals += 1
    try:
        with pytest.raises(checks.CheckFailed, match="residual"):
            run.cross_check(setup, plain, traced, tracer)
    finally:
        ledger.native_shared_evals -= 1
    samples = traced.capture.samples["barrier"]
    samples[0, 0, 0] += 1.0
    try:
        with pytest.raises(checks.CheckFailed, match="samples"):
            run.cross_check(setup, plain, traced, tracer)
    finally:
        samples[0, 0, 0] -= 1.0


def test_span_self_times_partition_the_root(gp_ops):
    _, _, traced, tracer = gp_ops
    totals = tracer.totals()
    root = totals["cli.run_experiment"]
    assert root["calls"] == 1
    assert sum(v["self_s"] for v in totals.values()) == pytest.approx(root["total_s"], rel=1e-9)
    assert all(v["self_s"] <= v["total_s"] + 1e-12 for v in totals.values())
    # the traced operation's patches are gone again
    assert cli.run_standard_batched.__module__ == "fsm_mcmc.lockstep"
    assert probes.prng.normal_vec.__module__ == "fsm_mcmc.prng"


def test_layer_metrics_cover_benchmark_json(gp_ops):
    setup, plain, traced, tracer = gp_ops
    metrics = run.layer_metrics(setup, plain, traced, tracer, import_s=1.0)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"]: w["why"] for w in spec["workloads"]}.items() <= {
        w.name: w.why for w in workloads.WORKLOADS.values()}.items()
    # GP elliptical: the barrier re-evaluates log f once per sample
    assert metrics["targets.extra_calls.barrier"] == setup.config.chains * setup.config.samples
    assert metrics["targets.extra_calls.fsm"] >= 0
