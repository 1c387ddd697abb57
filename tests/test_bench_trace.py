"""The benchmark's traced path, run in process on small workloads.

``bench/run.py --trace 1`` wraps what the program exposes: the bundled
executor, the machine's blocks, labels, transition and shared function and
the bundle's monolithic form (through ``dataclasses.replace``), each kernel
module's ``uniform`` and ``normal_vec``, and the chains' stream counters.  A
change that renames or reshapes any of them fails here as well as in the
benchmark.  The workloads' statistical checks are left out: they need the
benchmark's run lengths.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from fsm_mcmc import cli  # noqa: E402

SMALL = {
    "drmh-wide": dict(chains=32, samples=20),
    "gp-elliptical": dict(chains=4, samples=15),
    "nuts-narrow": dict(chains=2, samples=40),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_operation_passes_the_cross_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    workload = dataclasses.replace(workload, config={**workload.config, **SMALL[name]},
                                   check=lambda samples, target, out_dir: None)
    config = cli.RunConfig(**workload.config, out=str(tmp_path))
    target = cli.build_target(config)
    bundle = cli.build_kernel(config)
    setup = run.Setup(workload=workload, config=config, target=target, bundle=bundle,
                      params=cli.resolve_cost_params(config, bundle, target),
                      out_dir=tmp_path)
    seed = run.sub_seed(0, 0)
    plain = run.run_operation(setup, seed)
    run.check_operation(setup, plain)
    tracer = probes.Tracer()
    traced = run.run_operation(setup, seed, tracer=tracer)
    run.check_operation(setup, traced)
    done = run.cross_check(setup, plain, traced, tracer)
    has_shared = bundle.fsm.shared is not None
    assert len(done) == 3 + has_shared
    assert any("residual log-density" in line for line in done) == has_shared
    metrics = run.layer_metrics(setup, plain, traced, tracer, import_s=0.0)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["fsm.transition_calls"] > 0
    assert metrics["prng.draws"] > 0
