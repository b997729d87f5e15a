"""Batch front door: config parsing, subcommand dispatch, CSV emission.

Subcommands
-----------
simulate
    One path of the jump experiment; CSV columns t_i, increment,
    gaussian_part, n_jumps_in_interval.
filter
    Apply a jump filter to an increment CSV (column ``increment``,
    optional ``t_i``); ``--kernel round`` needs no config, ``--kernel
    truncate`` rebuilds interval noise levels from ``--config``.
bounds
    Per-increment filtering bound table plus one aggregate row.
convergence
    Bound sweep over ``--n-list`` grid sizes (ConvergenceRow columns).
risk-transfer
    Monte Carlo estimator-transfer comparison (RiskRow columns).
validate
    Parse and check a config; silent on success.

Configs are JSON.  Time functions are ``{"kind": "constant", "value": v}``,
``{"kind": "linear", "intercept": a, "slope": b}``, or ``{"kind": "sine",
"offset": c, "amplitude": a, "angular_frequency": w, "phase": p}``; jump
laws are ``{"kind": "dirac", "location": x}``, ``{"kind": "lattice",
"values": [...], "probs": [...]}``, ``{"kind": "uniform", "low": a,
"high": b}``, or ``{"kind": "gaussian", "mean": m, "sd": s}``.

Exit codes: 0 success, 1 config error, 2 numerical failure.  Output is
deterministic for fixed (config, seed, flags): floats are rendered with
``repr`` and rows are assembled in index order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .distances import (bernoulli_aggregate_bound,
                        continuous_kernel_aggregate_bound,
                        discrete_kernel_aggregate_bound)
from .experiments import (default_drift_estimator, run_convergence,
                          run_risk_transfer)
from .kernels import TruncateResampleParams, apply_round_kernel, \
    truncate_resample
from .model import (ContinuousJumps, DiracJump, Grid, LatticeJumps,
                    ModelSpec, QuadratureError, TimeFunction,
                    build_increment_summaries, check_sigma_log_derivative,
                    constant, gaussian_jumps, linear, sine, uniform_jumps)
from .simulate import RngStream, bin_jump_sums, sample_path

__all__ = ["ConfigError", "parse_config", "load_config", "serialize_config",
           "main"]


class ConfigError(ValueError):
    """Schema or file problem in a run configuration."""


def _need(data: dict, key: str):
    if key not in data:
        raise ConfigError(f"missing key: {key}")
    return data[key]


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite (got {value!r})")
    return float(value)


def _parse_time_function(obj, key: str) -> TimeFunction:
    if not isinstance(obj, dict):
        raise ConfigError(f"{key} must be an object with a 'kind'")
    kind = obj.get("kind")
    if kind == "constant":
        return constant(_as_float(_need(obj, "value"), f"{key}.value"))
    if kind == "linear":
        return linear(_as_float(_need(obj, "intercept"), f"{key}.intercept"),
                      _as_float(_need(obj, "slope"), f"{key}.slope"))
    if kind == "sine":
        return sine(_as_float(_need(obj, "offset"), f"{key}.offset"),
                    _as_float(_need(obj, "amplitude"), f"{key}.amplitude"),
                    _as_float(_need(obj, "angular_frequency"),
                              f"{key}.angular_frequency"),
                    _as_float(obj.get("phase", 0.0), f"{key}.phase"))
    raise ConfigError(
        f"{key}.kind must be one of constant, linear, sine (got {kind!r})")


def _parse_jump_law(obj):
    if not isinstance(obj, dict):
        raise ConfigError("jump_law must be an object with a 'kind'")
    kind = obj.get("kind")
    try:
        if kind == "dirac":
            return DiracJump(_as_float(_need(obj, "location"),
                                       "jump_law.location"))
        if kind == "lattice":
            return LatticeJumps(
                values=tuple(_need(obj, "values")),
                probs=tuple(_need(obj, "probs")))
        if kind == "uniform":
            return uniform_jumps(_as_float(_need(obj, "low"), "jump_law.low"),
                                 _as_float(_need(obj, "high"),
                                           "jump_law.high"))
        if kind == "gaussian":
            return gaussian_jumps(_as_float(_need(obj, "mean"),
                                            "jump_law.mean"),
                                  _as_float(_need(obj, "sd"), "jump_law.sd"))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"jump_law: {exc}") from exc
    raise ConfigError("jump_law.kind must be one of dirac, lattice, "
                      f"uniform, gaussian (got {kind!r})")


def parse_config(data: dict) -> tuple[ModelSpec, dict]:
    """Validated model plus run options from a decoded config object.

    The options dict carries ``n`` and, when present in the config,
    ``sigma_log_derivative_bound`` (already checked against the model).
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    drift = _parse_time_function(_need(data, "drift"), "drift")
    sigma = _parse_time_function(_need(data, "sigma"), "sigma")
    intensity = _parse_time_function(_need(data, "intensity"), "intensity")
    jump_law = _parse_jump_law(_need(data, "jump_law"))
    epsilon_n = _as_float(_need(data, "epsilon_n"), "epsilon_n")
    horizon = _as_float(_need(data, "horizon"), "horizon")
    initial = _as_float(data.get("initial", 0.0), "initial")
    intensity_max = data.get("intensity_max")
    if intensity_max is not None:
        intensity_max = _as_float(intensity_max, "intensity_max")
    n_raw = _need(data, "n")
    if isinstance(n_raw, bool) or not isinstance(n_raw, int) or n_raw < 1:
        raise ConfigError("n must be a positive integer")
    try:
        spec = ModelSpec(drift=drift, sigma=sigma, epsilon_n=epsilon_n,
                         intensity=intensity, jump_law=jump_law,
                         horizon=horizon, initial=initial,
                         intensity_max=intensity_max)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    options = {"n": int(n_raw)}
    c1 = data.get("sigma_log_derivative_bound")
    if c1 is not None:
        c1 = _as_float(c1, "sigma_log_derivative_bound")
        grid = Grid.uniform(spec.horizon, options["n"])
        if not check_sigma_log_derivative(spec.sigma, c1, grid):
            raise ConfigError(
                "sigma_log_derivative_bound: log-volatility slope exceeds "
                f"the declared bound {c1!r}")
        options["sigma_log_derivative_bound"] = c1
    return spec, options


def load_config(path: str) -> tuple[ModelSpec, dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def _serialize_time_function(tf: TimeFunction, key: str) -> dict:
    if tf.label == "constant":
        return {"kind": "constant", "value": tf.params[0]}
    if tf.label == "linear":
        return {"kind": "linear", "intercept": tf.params[0],
                "slope": tf.params[1]}
    if tf.label == "sine":
        return {"kind": "sine", "offset": tf.params[0],
                "amplitude": tf.params[1],
                "angular_frequency": tf.params[2], "phase": tf.params[3]}
    raise ConfigError(f"{key}: custom time functions cannot be serialized")


def _serialize_jump_law(law) -> dict:
    if isinstance(law, DiracJump):
        return {"kind": "dirac", "location": float(law.location)}
    if isinstance(law, LatticeJumps):
        return {"kind": "lattice",
                "values": [int(v) for v in np.asarray(law.values)],
                "probs": [float(p) for p in np.asarray(law.probs)]}
    if isinstance(law, ContinuousJumps):
        if law.label == "uniform":
            return {"kind": "uniform", "low": law.params[0],
                    "high": law.params[1]}
        if law.label == "gaussian":
            return {"kind": "gaussian", "mean": law.params[0],
                    "sd": law.params[1]}
    raise ConfigError("jump_law: custom jump laws cannot be serialized")


def serialize_config(spec: ModelSpec, options: dict) -> dict:
    """Config object that parses back to the same model (see parse_config)."""
    out = {
        "drift": _serialize_time_function(spec.drift, "drift"),
        "sigma": _serialize_time_function(spec.sigma, "sigma"),
        "intensity": _serialize_time_function(spec.intensity, "intensity"),
        "jump_law": _serialize_jump_law(spec.jump_law),
        "epsilon_n": float(spec.epsilon_n),
        "horizon": float(spec.horizon),
        "initial": float(spec.initial),
        "n": int(options["n"]),
    }
    if spec.intensity_max is not None:
        out["intensity_max"] = float(spec.intensity_max)
    if "sigma_log_derivative_bound" in options:
        out["sigma_log_derivative_bound"] = float(
            options["sigma_log_derivative_bound"])
    return out


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _emit_csv(header, rows, out_path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_n_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"--n-list must be comma-separated integers: {exc}")
    if not values:
        raise ConfigError("--n-list must name at least one grid size")
    return values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    spec, options = load_config(args.config)
    grid = Grid.uniform(spec.horizon, options["n"])
    summaries = build_increment_summaries(spec, grid)
    path = sample_path(spec, grid, summaries, RngStream(args.seed))
    counts = bin_jump_sums(grid.times, path.jump_times,
                           np.ones_like(path.jump_sizes))
    rows = [(float(grid.times[i + 1]), float(path.increments[i]),
             float(path.gaussian_parts[i]), int(round(counts[i])))
            for i in range(grid.n)]
    _emit_csv(["t_i", "increment", "gaussian_part", "n_jumps_in_interval"],
              rows, args.out)
    return 0


def _read_increment_csv(path: str):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            records = list(reader)
            fields = reader.fieldnames or []
    except OSError as exc:
        raise ConfigError(f"cannot read input {path}: {exc}") from exc
    if "increment" not in fields:
        raise ConfigError(f"input {path} lacks an 'increment' column")
    try:
        inc = np.array([float(r["increment"]) for r in records])
        times = (np.array([float(r["t_i"]) for r in records])
                 if "t_i" in fields else None)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"input {path} has a non-numeric row: {exc}")
    if inc.size == 0:
        raise ConfigError(f"input {path} has no data rows")
    return inc, times


def _cmd_filter(args) -> int:
    inc, times = _read_increment_csv(args.input)
    if args.kernel == "round":
        filtered = apply_round_kernel(inc)
    else:
        if args.config is None:
            raise ConfigError(
                "--kernel truncate needs --config to set interval "
                "noise levels")
        spec, options = load_config(args.config)
        if times is not None:
            try:
                grid = Grid(np.concatenate(([0.0], times)))
            except ValueError as exc:
                raise ConfigError(f"t_i column: {exc}") from exc
        else:
            grid = Grid.uniform(spec.horizon, inc.size)
        if grid.n != inc.size:
            raise ConfigError("t_i column and increment count disagree")
        summaries = build_increment_summaries(spec, grid)
        rng = RngStream(args.seed)
        filtered = np.empty(inc.size)
        for i in range(inc.size):
            params = TruncateResampleParams(
                L=args.L, epsilon=args.epsilon,
                sigma_i=math.sqrt(float(summaries.sigma2[i])))
            filtered[i] = truncate_resample(float(inc[i]), params,
                                            rng.child(i))
    if times is None:
        times = np.arange(1, inc.size + 1, dtype=float)
    rows = [(float(times[i]), float(filtered[i])) for i in range(inc.size)]
    _emit_csv(["t_i", "filtered_increment"], rows, args.out)
    return 0


def _cmd_bounds(args) -> int:
    spec, options = load_config(args.config)
    grid = Grid.uniform(spec.horizon, options["n"])
    summaries = build_increment_summaries(spec, grid)
    kernel = args.kernel
    if kernel in (None, "auto"):
        kernel = ("truncate" if isinstance(spec.jump_law, ContinuousJumps)
                  else "round")
    if kernel == "round":
        report = discrete_kernel_aggregate_bound(summaries)
    elif kernel == "truncate":
        if not isinstance(spec.jump_law, ContinuousJumps):
            raise ConfigError(
                "--kernel truncate needs a continuous jump law")
        report = continuous_kernel_aggregate_bound(
            summaries, args.L, args.epsilon, spec.jump_law)
    else:
        report = bernoulli_aggregate_bound(summaries)
    for note in report.warnings:
        print(f"warning: {note}", file=sys.stderr)
    sigma = np.sqrt(summaries.sigma2)
    rows = [(i + 1, float(summaries.lam[i]), float(sigma[i]),
             float(summaries.m[i]), float(report.per_increment[i]),
             report.formula_name)
            for i in range(summaries.n)]
    rows.append(("aggregate", "", "", "", float(report.aggregate),
                 report.formula_name))
    _emit_csv(["i", "lambda_i", "sigma_i", "m_i", "per_increment_bound",
               "formula_name"], rows, args.out)
    return 0


def _cmd_convergence(args) -> int:
    spec, options = load_config(args.config)
    n_list = _parse_n_list(args.n_list)
    jump_case = ("continuous" if isinstance(spec.jump_law, ContinuousJumps)
                 else "lattice")
    rows = run_convergence(spec, n_list, jump_case, L=args.L,
                           epsilon=args.epsilon)
    _emit_csv(["n", "delta_n", "aggregate_bound", "oracle_product_bound",
               "rate_prediction"],
              [(r.n, r.delta_n, r.aggregate_bound, r.oracle_product_bound,
                r.rate_prediction) for r in rows], args.out)
    return 0


def _cmd_risk_transfer(args) -> int:
    spec, options = load_config(args.config)
    n_list = _parse_n_list(args.n_list)
    rows = run_risk_transfer(spec, default_drift_estimator, n_list,
                             args.reps, RngStream(args.seed))
    _emit_csv(["n", "mise_direct_gaussian", "mise_transferred",
               "mise_naive_on_jumps", "replications"],
              [(r.n, r.mise_direct_gaussian, r.mise_transferred,
                r.mise_naive_on_jumps, r.replications) for r in rows],
              args.out)
    return 0


def _cmd_validate(args) -> int:
    load_config(args.config)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lecamjd",
        description="Jump-experiment simulation, filtering, and bound tables")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="JSON config path")
        p.add_argument("--seed", type=int, default=0,
                       help="base seed (64-bit unsigned)")
        p.add_argument("--out", default=None,
                       help="write CSV here instead of standard output")

    p_sim = sub.add_parser("simulate", help="sample one observed path")
    common(p_sim)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_filt = sub.add_parser("filter", help="filter an increment CSV")
    p_filt.add_argument("input", help="CSV with an 'increment' column")
    common(p_filt, config_required=False)
    p_filt.add_argument("--kernel", choices=["round", "truncate"],
                        default="round")
    p_filt.add_argument("--L", type=float, default=1.0 / 3.0,
                        help="drift cap for the truncate kernel")
    p_filt.add_argument("--epsilon", type=float, default=0.5,
                        help="radius exponent for the truncate kernel")
    p_filt.set_defaults(handler=_cmd_filter)

    p_bounds = sub.add_parser("bounds",
                              help="per-increment filtering bound table")
    common(p_bounds)
    p_bounds.add_argument("--kernel",
                          choices=["auto", "round", "truncate", "bernoulli"],
                          default="auto")
    p_bounds.add_argument("--L", type=float, default=1.0 / 3.0)
    p_bounds.add_argument("--epsilon", type=float, default=0.5)
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_conv = sub.add_parser("convergence", help="bound sweep over grid sizes")
    common(p_conv)
    p_conv.add_argument("--n-list", required=True,
                        help="comma-separated grid sizes, increasing")
    p_conv.add_argument("--L", type=float, default=1.0 / 3.0)
    p_conv.add_argument("--epsilon", type=float, default=0.5)
    p_conv.set_defaults(handler=_cmd_convergence)

    p_risk = sub.add_parser("risk-transfer",
                            help="estimator transfer comparison")
    common(p_risk)
    p_risk.add_argument("--n-list", required=True,
                        help="comma-separated grid sizes")
    p_risk.add_argument("--reps", type=int, default=100,
                        help="Monte Carlo replications per grid size")
    p_risk.set_defaults(handler=_cmd_risk_transfer)

    p_val = sub.add_parser("validate", help="check a config and exit")
    common(p_val)
    p_val.set_defaults(handler=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
