import filecmp
import json
from dataclasses import fields
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

    def test_rerun_is_byte_identical(self, tmp_path):
        kwargs = dict(kernel="drmh", chains=2, samples=120, seeds=(3,))
        run_experiment(RunConfig(out=str(tmp_path / "a"), **kwargs))
        run_experiment(RunConfig(out=str(tmp_path / "b"), **kwargs))
        assert filecmp.cmp(tmp_path / "a" / "results.csv",
                           tmp_path / "b" / "results.csv", shallow=False)

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
    ])
    def test_builder_errors_are_config_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "bad"
        assert main(argv + ["--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["errors"]
        assert not out.exists()


# one non-default value per RunConfig field: (flag/file text, parsed value)
FIELD_VALUES = {
    "kernel": ("nuts", "nuts"),
    "target": ("mog", "mog"),
    "chains": ("5", 5),
    "samples": ("7", 7),
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
