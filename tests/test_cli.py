import filecmp
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fsm_mcmc import cli
from fsm_mcmc.cli import (
    RunConfig,
    build_parser,
    build_target,
    config_from_args,
    main,
    resolve_cost_params,
    run_experiment,
    sweep,
)
from fsm_mcmc.fsm import topology_as_dict
from fsm_mcmc.kernels import elliptical_kernel


class TestConfigValidation:
    def test_errors_are_listed_exhaustively(self):
        config = RunConfig(kernel="nope", target="nada", chains=0, samples=0,
                           variant="weird", seeds=())
        errors = config.validate()
        assert len(errors) >= 6

    def test_kernel_target_compatibility(self):
        config = RunConfig(kernel="elliptical", target="std-normal")
        assert any("Gaussian-prior" in e for e in config.validate())
        config = RunConfig(kernel="slice", target="std-normal", dim=3)
        assert any("one-dimensional" in e for e in config.validate())
        assert RunConfig(kernel="slice", target="std-normal", dim=1).validate() == []

    def test_hash_ignores_output_directory(self):
        a = RunConfig(out="x").config_hash()
        b = RunConfig(out="y").config_hash()
        assert a == b
        c = RunConfig(samples=2000).config_hash()
        assert c != a


# every machine the package ships, at small sizes
MACHINES = {
    "drmh": dict(kernel="drmh"),
    "drmh-split": dict(kernel="drmh", drmh_split_body=True),
    "slice": dict(kernel="slice"),
    "elliptical": dict(kernel="elliptical", target="gp-synthetic", variant="amortized",
                       gp_n=20),
    "nuts": dict(kernel="nuts", target="gaussian-corr", dim=2),
}


class TestRunExperiment:
    def test_rows_and_files(self, tmp_path):
        config = RunConfig(kernel="drmh", chains=3, samples=150,
                           variant="bundled", seeds=(0, 1), out=str(tmp_path / "r"))
        res = run_experiment(config)
        assert len(res.rows) == 4  # 2 seeds x 2 regimes
        regimes = {r["regime"] for r in res.rows}
        assert regimes == {"standard", "fsm-bundled"}
        assert all(r["config_hash"] == config.config_hash() for r in res.rows)
        out = tmp_path / "r"
        assert (out / "results.csv").exists()
        assert (out / "timings.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["kernel"] == "drmh"
        assert manifest["rows"] == 4
        # the machine the run ran
        assert manifest["machine"] == topology_as_dict(cli.build_kernel(config).fsm)
        assert [s["label"] for s in manifest["machine"]["states"]] == [
            "INIT", "PROPOSE", "DONE"]

    @pytest.mark.parametrize("machine", sorted(MACHINES))
    def test_rerun_is_byte_identical(self, tmp_path, machine):
        kwargs = dict(chains=2, samples=120, seeds=(3,), **MACHINES[machine])
        run_experiment(RunConfig(out=str(tmp_path / "a"), **kwargs))
        run_experiment(RunConfig(out=str(tmp_path / "b"), **kwargs))
        assert filecmp.cmp(tmp_path / "a" / "results.csv",
                           tmp_path / "b" / "results.csv", shallow=False)
        lines = (tmp_path / "a" / "results.csv").read_text().splitlines()
        column = lines[0].split(",").index("E_hat")
        assert all(line.split(",")[column] for line in lines[1:])
        # a column per kernel event, one count for both regimes, empty for
        # the kernels without that event
        events = cli.build_kernel(RunConfig(**kwargs)).events
        assert set(events) <= set(cli.EVENT_COLUMNS)
        header = lines[0].split(",")
        for name in cli.EVENT_COLUMNS:
            cells = [line.split(",")[header.index(name)] for line in lines[1:]]
            assert len(set(cells)) == 1
            assert (cells[0] != "") == (name in events)

    @pytest.mark.parametrize("machine", sorted(MACHINES))
    def test_efficiency_is_a_value_within_the_bound(self, machine):
        res = run_experiment(RunConfig(chains=4, samples=60, seeds=(0,), **MACHINES[machine]),
                             write=False)
        counts = res.reports[0]["ledgers"]["standard"].loop_exec_counts
        r_max = max(c.max(axis=1).mean() / c.mean() for c in counts.values() if c.mean() > 0)
        e = res.reports[0]["efficiency"].E_of_m
        assert math.isfinite(e)
        assert 0 < e <= r_max

    def test_single_chain_regimes_differ_only_by_dispatch(self, tmp_path):
        # m=1: no synchronization effect; the machine pays only its
        # all-branches control-flow factor per tick
        config = RunConfig(kernel="drmh", chains=1, samples=300, seeds=(0,),
                           variant="bundled", out=str(tmp_path / "one"))
        res = run_experiment(config)
        by_regime = {r["regime"]: r for r in res.rows}
        std = by_regime["standard"]
        fsm = by_regime["fsm-bundled"]
        assert std["mean_N"] == std["mean_max_N"]
        # with one chain the standard charge is already barrier-free, so the
        # machine can only match it up to control-flow overhead
        assert fsm["cost_per_sample"] >= std["cost_per_sample"] * 0.99

    def test_invalid_config_raises_before_running(self):
        with pytest.raises(ValueError) as info:
            run_experiment(RunConfig(kernel="nope"), write=False)
        assert "unknown kernel" in str(info.value)

    def test_measured_cost_model(self):
        config = RunConfig(kernel="elliptical", target="gp-synthetic", gp_n=20,
                           cost_model="measured")
        bundle = elliptical_kernel()
        params = resolve_cost_params(config, bundle, build_target(config))
        assert len(params.block_costs) == 3
        assert params.shared_cost > 0          # the marginal likelihood dominates
        assert params.shared_sites == (1, 1, 0)

    def test_cost_model_from_json_file(self, tmp_path):
        spec_file = tmp_path / "costs.json"
        spec_file.write_text(json.dumps(
            {"block_costs": [0.1, 2.0, 0.1], "alpha": 0.95}))
        config = RunConfig(kernel="drmh", cost_model=str(spec_file))
        from fsm_mcmc.kernels import drmh_kernel
        bundle = drmh_kernel(10, 0.5)
        params = resolve_cost_params(config, bundle, build_target(config))
        assert params.block_costs == (0.1, 2.0, 0.1)
        assert params.alpha == 0.95
        assert params.loop_states == (2,)

    def test_json_cost_model_keeps_the_machines_shared_sites(self, tmp_path):
        spec_file = tmp_path / "costs.json"
        spec_file.write_text(json.dumps(
            {"block_costs": [0.02, 0.02, 0.01], "shared_cost": 1.0}))
        config = RunConfig(kernel="elliptical", target="gp-synthetic", gp_n=20,
                           cost_model=str(spec_file))
        params = resolve_cost_params(config, elliptical_kernel(), build_target(config))
        assert params.shared_sites == (1, 1, 0)
        assert params.tick_cost("plain") == pytest.approx(2.05)
        assert params.tick_cost("amortized") == pytest.approx(1.05)

    def test_gp_default_costs_scale_with_dataset(self):
        bundle = elliptical_kernel()
        cfg25 = RunConfig(kernel="elliptical", target="gp-synthetic", gp_n=25)
        cfg50 = RunConfig(kernel="elliptical", target="gp-synthetic", gp_n=50)
        p25 = resolve_cost_params(cfg25, bundle, build_target(cfg25))
        p50 = resolve_cost_params(cfg50, bundle, build_target(cfg50))
        assert p50.shared_cost == pytest.approx(8.0 * p25.shared_cost)


class TestSweep:
    def test_single_value_sweep_matches_run_experiment(self, tmp_path):
        config = RunConfig(kernel="drmh", chains=2, samples=100, seeds=(1,),
                           out=str(tmp_path / "sw"))
        rows = sweep(config, "m", [2])
        direct = run_experiment(
            RunConfig(kernel="drmh", chains=2, samples=100, seeds=(1,),
                      out=str(tmp_path / "direct")))
        assert len(rows) == len(direct.rows)
        keys = ("regime", "cost_per_sample", "ticks", "mean_N")
        for a, b in zip(rows, direct.rows):
            assert all(a[k] == b[k] for k in keys)
        assert (tmp_path / "sw" / "sweep.csv").exists()

    def test_m_sweep_ratio_nondecreasing_for_skewed_counts(self, tmp_path):
        config = RunConfig(kernel="drmh", samples=2000, seeds=(0, 1),
                           variant="bundled", drmh_proposal_scale=0.1,
                           out=str(tmp_path / "msweep"))
        rows = sweep(config, "m", [1, 8, 64])
        ratios = {}
        for r in rows:
            ratios[r["axis_value"]] = r["cost_ratio"]
        assert ratios[1] <= ratios[8] <= ratios[64]

    def test_failures_recorded_and_sweep_continues(self, tmp_path):
        config = RunConfig(kernel="drmh", samples=50, seeds=(0,),
                           tick_budget=10, out=str(tmp_path / "fail"))
        rows = sweep(config, "m", [2])
        assert rows == []
        errs = json.loads((tmp_path / "fail" / "sweep_errors.json").read_text())
        assert len(errs) == 1

    def test_gp_dataset_size_sweep_ratio_nondecreasing(self, tmp_path):
        config = RunConfig(kernel="elliptical", target="gp-synthetic",
                           chains=8, samples=120, seeds=(0,),
                           variant="amortized", out=str(tmp_path / "gp"))
        rows = sweep(config, "dataset_size", [25, 50])
        ratios = [r["cost_ratio"] for r in rows if r["regime"] == "standard"]
        assert len(ratios) == 2
        assert ratios[0] <= ratios[1]


class TestMain:
    def test_exit_code_zero_and_outputs(self, tmp_path, capsys):
        rc = main(["--kernel", "drmh", "--chains", "2", "--samples", "80",
                   "--seeds", "0", "--out", str(tmp_path / "ok")])
        assert rc == 0
        assert (tmp_path / "ok" / "results.csv").exists()

    def test_exit_code_two_on_config_errors(self, tmp_path, capsys):
        rc = main(["--kernel", "elliptical", "--target", "std-normal",
                   "--out", str(tmp_path / "bad")])
        assert rc == 2
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["errors"]

    @pytest.mark.parametrize("spec", [
        None,                                                   # no such file
        {"block_costs": [0.05, 1.0]},                           # 2 costs, 3 states
        {"block_costs": [0.05, 1.0, 0.05], "alfa": 0.9},        # misspelt key
        {"block_costs": [0.05, 1.0, 0.05], "loop_states": [2]},  # topology key
        {"block_costs": [0.05, None, 0.05]},                    # not a number
        [0.05, 1.0, 0.05],                                      # not an object
    ])
    def test_exit_code_two_on_a_bad_cost_file(self, tmp_path, capsys, spec):
        spec_file = tmp_path / "costs.json"
        if spec is not None:
            spec_file.write_text(json.dumps(spec))
        out = tmp_path / "out"
        rc = main(["--kernel", "drmh", "--cost-model", str(spec_file), "--out", str(out)])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["errors"][0].startswith("cost model")
        assert not out.exists()

    def test_config_file_round_trip(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment file\n"
            "kernel = drmh\n"
            "chains = 3\n"
            "samples = 90\n"
            "variant = bundled\n"
            "seeds = 4,5\n"
            f"out = {tmp_path / 'from-file'}\n"
        )
        rc = main(["--config", str(cfg)])
        assert rc == 0
        manifest = json.loads((tmp_path / "from-file" / "manifest.json").read_text())
        assert manifest["config"]["chains"] == 3
        assert manifest["config"]["seeds"] == [4, 5]

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kernel = drmh\nchains = 3\nsamples = 50\n"
                       f"out = {tmp_path / 'o1'}\n")
        rc = main(["--config", str(cfg), "--chains", "5",
                   "--out", str(tmp_path / "o2")])
        assert rc == 0
        manifest = json.loads((tmp_path / "o2" / "manifest.json").read_text())
        assert manifest["config"]["chains"] == 5

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kernle = drmh\n")
        assert main(["--config", str(cfg)]) == 2

    @pytest.mark.parametrize("offsets, want", [("-5,0,5", [-5.0, 0.0, 5.0]),
                                               ("-.5,-2e1", [-0.5, -20.0])])
    def test_negative_list_value_after_its_flag(self, tmp_path, offsets, want):
        out = tmp_path / "mog"
        rc = main(["--target", "mog", "--mog-offsets", offsets, "--chains", "2",
                   "--samples", "40", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["mog_offsets"] == want

    def test_parser_and_config_round_trip(self):
        parser = build_parser()
        args = parser.parse_args(["--kernel", "nuts", "--target", "mog",
                                  "--dim", "10", "--seeds", "1,2,3",
                                  "--nuts-step-size", "0.08"])
        config = config_from_args(args)
        assert config.kernel == "nuts"
        assert config.seeds == (1, 2, 3)
        assert config.nuts_step_size == 0.08

    @pytest.mark.parametrize("argv", [
        ["--kernel", "slice", "--slice-max-expansions", "-1",
         "--sweep-axis", "m", "--sweep-values", "1,2"],
        ["--target", "gaussian-corr", "--target-rho", "1.5"],
        ["--kernel", "elliptical", "--target", "gp-synthetic", "--gp-p", "-1"],
        # too short for the ESS, which would fail only after both regimes ran
        ["--kernel", "drmh", "--chains", "4", "--samples", "5"],
        ["--sweep-axis", "m", "--sweep-values", "2,abc"],
        # sweep values that are no configuration of their own
        ["--samples", "20", "--sweep-axis", "m", "--sweep-values", "0,2"],
        ["--sweep-axis", "m", "--sweep-values", "2.5"],
        ["--sweep-axis", "dataset_size", "--sweep-values", "10,20"],
    ])
    def test_builder_errors_are_config_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "bad"
        assert main(argv + ["--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["errors"]
        assert not out.exists()


class TestPartialResults:
    """A run that fails keeps what every chain finished in partial_seed{seed}.json."""

    ARGV = ["--kernel", "drmh", "--drmh-max-tries", "10", "--drmh-proposal-scale", "1.5",
            "--chains", "3", "--samples", "60", "--init-jitter", "1.0", "--seeds", "4"]

    @staticmethod
    def _counting_targets(monkeypatch, fail_after=None):
        """Make every target the CLI builds count its log-density calls in
        ``calls`` and return +inf once it has made ``fail_after`` of them."""
        calls = [0]
        build = cli.build_target

        def build_counting(config):
            target = build(config)

            def log_density(x):
                calls[0] += 1
                if fail_after is not None and calls[0] > fail_after:
                    return float("inf")
                return target.log_density(x)

            return replace(target, log_density=log_density)

        monkeypatch.setattr(cli, "build_target", build_counting)
        return calls

    @pytest.mark.parametrize("regime, share", [("standard", 0.25), ("fsm-plain", 0.75)])
    def test_kernel_failure_writes_the_finished_rows(self, tmp_path, monkeypatch,
                                                     capsys, regime, share):
        with monkeypatch.context() as patch:
            calls = self._counting_targets(patch)
            config = config_from_args(build_parser().parse_args(self.ARGV))
            whole = run_experiment(config, write=False)
        # the barrier runs first and both regimes make about as many calls
        fail_after = int(share * calls[0])
        full = whole.reports[0]["ledgers"][regime]
        self._counting_targets(monkeypatch, fail_after)
        out = tmp_path / "run"
        assert main(self.ARGV + ["--out", str(out)]) == 1
        assert "log-density evaluated to inf" in capsys.readouterr().err
        assert not (out / "results.csv").exists()
        partial = json.loads((out / "partial_seed4.json").read_text())
        assert set(partial) == {"error", "seed", "ticks", "charged_cost", "sample_counts",
                                "regime", "chain", "sample_index", "cause", "iter_counts"}
        assert partial["error"] == "kernel failed"
        assert partial["seed"] == 4
        assert partial["regime"] == regime
        assert "log-density evaluated to inf" in partial["cause"]
        counts = partial["sample_counts"]
        assert partial["sample_index"] == counts[partial["chain"]]
        rows = len(partial["iter_counts"])
        assert rows == min(counts)
        assert 0 < rows < 60
        assert np.array_equal(partial["iter_counts"], full.iter_counts[:rows])


# one non-default value per RunConfig field: (flag/file text, parsed value)
FIELD_VALUES = {
    "kernel": ("nuts", "nuts"),
    "target": ("mog", "mog"),
    "chains": ("5", 5),
    "samples": ("70", 70),
    "variant": ("bundled", "bundled"),
    "seeds": ("3,4", (3, 4)),
    "out": ("elsewhere", "elsewhere"),
    "cost_model": ("measured", "measured"),
    "tick_budget": ("700", 700),
    "init_jitter": ("0.5", 0.5),
    "drmh_max_tries": ("7", 7),
    "drmh_proposal_scale": ("0.3", 0.3),
    "drmh_split_body": ("true", True),
    "slice_width": ("2.5", 2.5),
    "slice_max_expansions": ("5", 5),
    "nuts_step_size": ("0.5", 0.5),
    "nuts_max_depth": ("4", 4),
    "nuts_divergence_threshold": ("10.0", 10.0),
    "dim": ("2", 2),
    "target_rho": ("0.5", 0.5),
    "mog_offsets": ("-1.5,2.5", (-1.5, 2.5)),
    "gp_n": ("20", 20),
    "gp_p": ("2", 2),
    "gp_seed": ("7", 7),
}


class TestFieldRoundTrip:
    """Every RunConfig field parses from its flag and from its file key."""

    @staticmethod
    def _config_seen_by_main(monkeypatch, argv):
        seen = []

        def fake_run(config):
            seen.append(config)
            return cli.ExperimentResult(config=config)

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        assert main(argv) == 0
        return seen[0]

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_flag_and_file_key(self, tmp_path, monkeypatch, name):
        text, value = FIELD_VALUES[name]
        want = RunConfig(**{name: value})
        assert want != RunConfig()
        flag = "--" + name.replace("_", "-")
        argv = [flag] if isinstance(value, bool) else [f"{flag}={text}"]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{name} = {text}\n")
        for got in (self._config_seen_by_main(monkeypatch, argv),
                    self._config_seen_by_main(monkeypatch, ["--config", str(cfg)])):
            assert got == want
            assert got.config_hash() == want.config_hash()
