"""Experiment harness: paired barrier/state-machine runs to CSV tables.

One experiment = (kernel, target, m, n, step variant, seeds).  For every
seed both regimes run on identical streams, the sample arrays are checked
for equality, and one CSV row per regime is emitted.  Deterministic
quantities (model costs, tick counts, iteration statistics, ESS) go to
``results.csv``; wall-clock readings go to ``timings.csv`` so that re-running
a configuration reproduces ``results.csv`` byte for byte.  A JSON manifest
captures the full configuration and its hash, which every row carries.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, analysis
from .kernels import (
    KERNEL_BUILDERS,
    KernelError,
    drmh_kernel,
    elliptical_kernel,
    nuts_kernel,
    slice_kernel,
)
from .lockstep import (
    STEP_VARIANTS,
    CostParams,
    TickBudgetExceeded,
    init_batch,
    run_fsm_batched,
    run_standard_batched,
)
from .targets import (
    TargetError,
    equicorrelated_covariance,
    gaussian_target,
    gp_hyperparameter_target,
    correlated_mog_target,
    make_synthetic_gp_dataset,
    save_gp_dataset_csv,
    standard_normal_target,
)

__all__ = ["RunConfig", "run_experiment", "sweep", "main"]

TARGET_NAMES = ("std-normal", "gaussian-corr", "mog", "gp-synthetic")
# the RunConfig fields restricted to a fixed set of names
_CHOICES = {
    "kernel": tuple(sorted(KERNEL_BUILDERS)),
    "target": TARGET_NAMES,
    "variant": STEP_VARIANTS,
}

RESULT_COLUMNS = (
    "kernel", "target", "m", "n", "variant", "regime", "seed",
    "cost_per_sample", "ticks", "mean_N", "mean_max_N", "R_hat", "E_hat",
    "ess_pooled", "ess_per_cost", "config_hash",
)
TIMING_COLUMNS = (
    "kernel", "target", "m", "n", "variant", "regime", "seed",
    "walltime", "ess_per_second", "config_hash",
)


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs; hashable into a reproducibility id."""

    kernel: str = "drmh"
    target: str = "std-normal"
    chains: int = 4
    samples: int = 1000
    variant: str = "plain"
    seeds: tuple[int, ...] = (0,)
    out: str = "results"
    cost_model: str = "default"     # default | measured | path to a JSON file
    tick_budget: int | None = None
    init_jitter: float = 0.0
    # kernel hyperparameters
    drmh_max_tries: int = 100
    drmh_proposal_scale: float = 0.1
    drmh_split_body: bool = False
    slice_width: float = 1.0
    slice_max_expansions: int = 32
    nuts_step_size: float = 0.25
    nuts_max_depth: int = 10
    nuts_divergence_threshold: float = 1000.0
    # target parameters
    dim: int = 1
    target_rho: float = 0.99
    mog_offsets: tuple[float, ...] = (-5.0, 0.0, 5.0)
    gp_n: int = 50
    gp_p: int = 3
    gp_seed: int = 20240617

    def validate(self) -> list[str]:
        """Every configuration error; the kernel and target builders and the
        kernel's target check are the one source of their parameters' rules."""
        errors = [f"unknown {name} {getattr(self, name)!r}; choose from {choices}"
                  for name, choices in _CHOICES.items()
                  if getattr(self, name) not in choices]
        if self.chains < 1:
            errors.append(f"chains must be >= 1, got {self.chains}")
        if self.samples < 1:
            errors.append(f"samples must be >= 1, got {self.samples}")
        if not self.seeds:
            errors.append("need at least one seed")
        if self.tick_budget is not None and self.tick_budget < 1:
            errors.append("tick_budget must be >= 1 when given")
        if self.dim < 1:
            errors.append(f"dim must be >= 1, got {self.dim}")
        if errors:
            return errors
        try:
            bundle = build_kernel(self)
        except KernelError as exc:
            errors.append(f"kernel {self.kernel}: {exc}")
        try:
            target = build_target(self)
        except TargetError as exc:
            errors.append(f"target {self.target}: {exc}")
        if not errors:
            try:
                bundle.check_target(target)
            except KernelError as exc:
                errors.append(str(exc))
        if not errors and self.cost_model not in ("default", "measured"):
            try:
                resolve_cost_params(self, bundle, target)
            except (OSError, TypeError, ValueError) as exc:  # a malformed file
                errors.append(f"cost model {self.cost_model}: {exc}")
        return errors

    def config_hash(self) -> str:
        payload = asdict(self)
        payload.pop("out")
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def build_target(config: RunConfig):
    if config.target == "std-normal":
        return standard_normal_target(config.dim)
    if config.target == "gaussian-corr":
        d = max(config.dim, 2)
        cov = equicorrelated_covariance(d, config.target_rho)
        return gaussian_target(np.zeros(d), np.linalg.cholesky(cov))
    if config.target == "mog":
        return correlated_mog_target(config.dim, config.target_rho, config.mog_offsets)
    if config.target == "gp-synthetic":
        X, y = make_synthetic_gp_dataset(config.gp_n, config.gp_p, config.gp_seed)
        return gp_hyperparameter_target(X, y)
    raise ValueError(f"unknown target {config.target!r}")


def build_kernel(config: RunConfig):
    if config.kernel == "drmh":
        return drmh_kernel(config.drmh_max_tries, config.drmh_proposal_scale,
                           split_body=config.drmh_split_body)
    if config.kernel == "slice":
        return slice_kernel(config.slice_width, config.slice_max_expansions)
    if config.kernel == "elliptical":
        return elliptical_kernel()
    if config.kernel == "nuts":
        return nuts_kernel(config.nuts_step_size, config.nuts_max_depth,
                           config.nuts_divergence_threshold)
    raise ValueError(f"unknown kernel {config.kernel!r}")


def resolve_cost_params(config: RunConfig, bundle, target) -> CostParams:
    """The run's cost parameters, always bound to the kernel's machine.

    A JSON cost model carries prices only: ``block_costs`` (one per state)
    and optionally ``alpha`` and ``shared_cost``.  Any other key is an error;
    the loop states and shared sites come from the machine.
    """
    if config.cost_model == "default":
        defaults = bundle.default_costs
        if defaults.shared_cost > 0 and target.log_density_cost != 1.0:
            return replace(defaults,
                           shared_cost=defaults.shared_cost * target.log_density_cost)
        return defaults
    if config.cost_model == "measured":
        from .lockstep import measure_block_costs
        return measure_block_costs(bundle, target, seed=config.seeds[0])
    spec = json.loads(Path(config.cost_model).read_text())
    keys = set(spec) if isinstance(spec, dict) else set()
    if "block_costs" not in keys or keys - {"block_costs", "alpha", "shared_cost"}:
        raise ValueError("a cost file is a JSON object of block_costs and optionally "
                         f"alpha and shared_cost, not {spec!r}")
    return CostParams.for_fsm(bundle.fsm, block_costs=map(float, spec["block_costs"]),
                              alpha=float(spec.get("alpha", 1.0)),
                              shared_cost=float(spec.get("shared_cost", 1.0)))


@dataclass
class ExperimentResult:
    config: RunConfig
    rows: list[dict] = field(default_factory=list)
    timing_rows: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    # per-seed structured results: {"seed", "efficiency", "ess", "ledgers"}
    reports: list[dict] = field(default_factory=list)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    path.write_text("\n".join(lines) + "\n")


def run_experiment(config: RunConfig, write: bool = True) -> ExperimentResult:
    """Run every seed under both regimes and emit the result tables."""
    errors = config.validate()
    if errors:
        raise ValueError("invalid configuration: " + "; ".join(errors))
    target = build_target(config)
    bundle = build_kernel(config)
    params = resolve_cost_params(config, bundle, target)
    chash = config.config_hash()
    result = ExperimentResult(config=config)
    out_dir = Path(config.out)
    if write:
        out_dir.mkdir(parents=True, exist_ok=True)
        if config.target == "gp-synthetic":
            X, y = make_synthetic_gp_dataset(config.gp_n, config.gp_p, config.gp_seed)
            save_gp_dataset_csv(out_dir / "gp_dataset.csv", X, y)

    base = {"kernel": bundle.name, "target": target.name, "m": config.chains,
            "n": config.samples, "variant": config.variant, "config_hash": chash}
    for seed in config.seeds:
        batch_std = init_batch(bundle, target, config.chains, seed,
                               init_jitter=config.init_jitter)
        std_samples, std_ledger = run_standard_batched(
            bundle, target, batch_std, config.samples, cost_params=params)
        batch_fsm = init_batch(bundle, target, config.chains, seed,
                               init_jitter=config.init_jitter)
        try:
            fsm_samples, fsm_ledger = run_fsm_batched(
                bundle, target, batch_fsm, config.samples,
                step_variant=config.variant, cost_params=params,
                tick_budget=config.tick_budget)
        except TickBudgetExceeded as exc:
            if write:
                _save_partial(out_dir, seed, exc)
            raise
        if not np.array_equal(std_samples, fsm_samples):
            raise RuntimeError(
                f"seed {seed}: state-machine samples diverged from the reference run"
            )
        N = std_ledger.iter_counts
        mean_N = float(N.mean())
        mean_max = float(N.max(axis=1).mean())
        r_hat = mean_max / mean_N if mean_N > 0 else 1.0
        efficiency = None
        if len(bundle.fsm.loop_states) == 1 and mean_N > 0:
            efficiency = analysis.efficiency_report(
                params, N, std_ledger.cost_per_sample(),
                fsm_ledger.cost_per_sample())
        e_hat = efficiency.E_of_m if efficiency is not None else None
        ess = analysis.effective_sample_size(std_samples)
        result.reports.append({
            "seed": seed,
            "efficiency": efficiency,
            "ess": ess,
            "ledgers": {"standard": std_ledger, fsm_ledger.regime: fsm_ledger},
        })
        for regime, ledger in (("standard", std_ledger),
                               (fsm_ledger.regime, fsm_ledger)):
            cps = ledger.cost_per_sample()
            result.rows.append({
                **base, "regime": regime, "seed": seed,
                "cost_per_sample": cps,
                "ticks": ledger.tick_count,
                "mean_N": mean_N, "mean_max_N": mean_max,
                "R_hat": r_hat, "E_hat": e_hat,
                "ess_pooled": ess.pooled,
                "ess_per_cost": ess.pooled / ledger.charged_cost,
            })
            result.timing_rows.append({
                **base, "regime": regime, "seed": seed,
                "walltime": ledger.walltime,
                "ess_per_second": ess.pooled / ledger.walltime
                if ledger.walltime > 0 else None,
            })
    result.rows.sort(key=lambda r: (r["seed"], r["regime"]))
    result.timing_rows.sort(key=lambda r: (r["seed"], r["regime"]))
    if write:
        _write_csv(out_dir / "results.csv", RESULT_COLUMNS, result.rows)
        _write_csv(out_dir / "timings.csv", TIMING_COLUMNS, result.timing_rows)
        manifest = {
            "version": __version__,
            "config": asdict(config),
            "config_hash": chash,
            "rows": len(result.rows),
        }
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return result


def _save_partial(out_dir: Path, seed: int, exc: TickBudgetExceeded) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "error": "tick budget exceeded",
        "seed": seed,
        "ticks": exc.ledger.tick_count,
        "charged_cost": exc.ledger.charged_cost,
        "sample_counts": exc.sample_counts,
    }
    (out_dir / f"partial_seed{seed}.json").write_text(json.dumps(payload, indent=2) + "\n")


SWEEP_AXES = ("m", "n", "dataset_size")


def sweep(config: RunConfig, axis: str, values) -> list[dict]:
    """Run the experiment per axis value; aggregate rows plus cost ratios."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("need at least one axis value")
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_rows = []
    failures = []
    for v in values:
        if axis == "m":
            sub = replace(config, chains=int(v))
        elif axis == "n":
            sub = replace(config, samples=int(v))
        else:
            sub = replace(config, gp_n=int(v))
        sub = replace(sub, out=str(out_dir / f"{axis}-{v}"))
        try:
            res = run_experiment(sub)
        except Exception as exc:  # noqa: BLE001 - sweep continues past failures
            failures.append({"axis_value": v, "error": str(exc)})
            continue
        std = [r["cost_per_sample"] for r in res.rows if r["regime"] == "standard"]
        fsm = [r["cost_per_sample"] for r in res.rows if r["regime"].startswith("fsm")]
        ratio = (sum(std) / len(std)) / (sum(fsm) / len(fsm)) if fsm else None
        for r in res.rows:
            all_rows.append({**r, "axis": axis, "axis_value": v, "cost_ratio": ratio})
    cols = RESULT_COLUMNS + ("axis", "axis_value", "cost_ratio")
    _write_csv(out_dir / "sweep.csv", cols, all_rows)
    if failures:
        (out_dir / "sweep_errors.json").write_text(json.dumps(failures, indent=2) + "\n")
    return all_rows


def _parse_config_file(path: str) -> dict:
    """Key = value lines; '#' starts a comment; keys mirror the CLI flags."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        k, v = (part.strip() for part in line.split("=", 1))
        values[k.replace("-", "_")] = v
    return values


_HELP = {
    "seeds": "comma-separated seed list",
    "cost_model": "'default', 'measured', or a JSON file with block_costs, alpha "
                  "and shared_cost",
}
_TYPES = typing.get_type_hints(RunConfig)


def _coerce(value: str, name: str):
    """Parse a flag or config-file string as the RunConfig field ``name``."""
    kind = _TYPES[name]
    if kind is bool:
        return value.lower() in ("1", "true", "yes", "on")
    if typing.get_origin(kind) is tuple:
        cast = typing.get_args(kind)[0]
        return tuple(cast(v) for v in value.split(",") if v.strip())
    if kind in (int, int | None):
        return int(value)
    if kind is float:
        return float(value)
    return value


def _field_parser(name: str):
    def parse(value: str):
        return _coerce(value, name)
    parse.__name__ = name  # argparse names the field in its error message
    return parse


def build_parser() -> argparse.ArgumentParser:
    """One flag per RunConfig field, spelt ``--field-name``, plus the sweep flags."""
    p = argparse.ArgumentParser(
        prog="fsm-mcmc",
        description="Paired barrier/state-machine MCMC runs with cost accounting",
    )
    p.add_argument("--config", help="key=value file mirroring the flags below")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if _TYPES[f.name] is bool:
            p.add_argument(flag, dest=f.name, action="store_true", default=f.default)
        else:
            p.add_argument(flag, dest=f.name, type=_field_parser(f.name), default=f.default,
                           choices=_CHOICES.get(f.name), help=_HELP.get(f.name))
    p.add_argument("--sweep-axis", dest="sweep_axis", choices=SWEEP_AXES)
    p.add_argument("--sweep-values", dest="sweep_values",
                   help="comma-separated values for the sweep axis")
    return p


# a value that argparse would take for a flag: a leading '-' then a digit
# or '.', as in the offset list -5,0,5
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Spell ``--flag -5,0,5`` as ``--flag=-5,0,5``.

    argparse reads a token that starts with '-' as a flag unless it is one
    plain number, so a negative list would lose its flag's value.
    """
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _NEGATIVE_VALUE.match(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    pre, _ = parser.parse_known_args(argv)
    if pre.config:
        try:
            file_values = _parse_config_file(pre.config)
            names = {f.name for f in fields(RunConfig)}
            unknown = [k for k in file_values
                       if k not in names and k not in ("sweep_axis", "sweep_values")]
            if unknown:
                raise ValueError(f"unknown config keys: {unknown}")
            parser.set_defaults(**{k: _coerce(v, k) if k in names else v
                                   for k, v in file_values.items()})
        except (OSError, ValueError) as exc:
            print(json.dumps({"errors": [str(exc)]}), file=sys.stderr)
            return 2
    args = parser.parse_args(argv)
    config = config_from_args(args)
    errors = config.validate()
    if (args.sweep_axis is None) != (args.sweep_values is None):
        errors.append("--sweep-axis and --sweep-values must be given together")
    if errors:
        print(json.dumps({"errors": errors}), file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        if args.sweep_axis:
            values = [float(v) if "." in v else int(v)
                      for v in str(args.sweep_values).split(",") if v.strip()]
            rows = sweep(config, args.sweep_axis, values)
            print(f"wrote {len(rows)} sweep rows to {config.out} "
                  f"in {time.perf_counter() - t0:.1f}s")
        else:
            res = run_experiment(config)
            print(f"wrote {len(res.rows)} rows to {config.out} "
                  f"in {time.perf_counter() - t0:.1f}s")
    except (RuntimeError, ValueError) as exc:
        print(json.dumps({"errors": [str(exc)]}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
