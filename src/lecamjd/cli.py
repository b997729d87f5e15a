"""Batch front door: config parsing, subcommand dispatch, CSV emission.

Subcommands
-----------
simulate
    One path of the jump experiment; CSV columns t_i, increment,
    gaussian_part, n_jumps_in_interval.
filter
    Apply a jump filter to an increment CSV (column ``increment``,
    optional ``t_i``); ``--kernel round`` needs no config, ``--kernel
    truncate`` rebuilds interval noise levels from ``--config``.  Cells
    are decimal float literals without underscores, read to the bits
    ``float()`` gives; quoted cells are unquoted, blank lines skipped and
    extra columns ignored.
bounds
    Per-increment filtering bound table plus one aggregate row; the
    kernel follows from the jump law (``--kernel auto``), or ``--kernel
    bernoulli`` gives the one-jump bound.
convergence
    Bound sweep over ``--n-list`` grid sizes (ConvergenceRow columns).
risk-transfer
    Monte Carlo estimator-transfer comparison (RiskRow columns).
validate
    Parse and check a config; silent on success.

``--seed`` is taken by ``simulate``, ``filter`` and ``risk-transfer``, the
subcommands that draw random numbers; ``--out`` (write the CSV there, not
to standard output) by every subcommand but ``validate``, which writes
nothing.  A subcommand declares only the flags it reads.

Configs are JSON.  Time functions are ``{"kind": "constant", "value": v}``,
``{"kind": "linear", "intercept": a, "slope": b}``, or ``{"kind": "sine",
"offset": c, "amplitude": a, "angular_frequency": w, "phase": p}``; jump
laws are ``{"kind": "dirac", "location": x}``, ``{"kind": "lattice",
"values": [...], "probs": [...]}``, ``{"kind": "uniform", "low": a,
"high": b}``, or ``{"kind": "gaussian", "mean": m, "sd": s}``.

Exit codes: 0 success, 1 config error (a ``ValueError``, ``ConfigError``
included: a value the CLI or the library refuses), 2 numerical failure (a
``QuadratureError`` or an ``ArithmeticError``: a computation on accepted
input failed), each on one stderr line with nothing on stdout.  A usage
error (a missing or unknown flag, a value of the wrong type or not among
the choices) is a config error.  Seeds lie in [0, 2**64); ``--reps`` is
positive, and ``--n-list`` sizes are positive and strictly increasing.
Output is deterministic for fixed (config, seed, flags): floats are
rendered with ``repr``, integers with ``str``, and rows are in index
order.  A column whose cells are all bitwise identical is rendered once
and repeated, and a float cell with the bits of the same row of an
earlier float column reuses that cell's text; the body is formatted and
written 4,096 rows at a time.  ``--L 0`` is a config error where the
truncate bound is computed (``bounds``, ``convergence``).

Importing this module loads :mod:`lecamjd.model` alone, since configs
are parsed into its types; a subcommand imports its own layers when it
runs.  ``validate`` loads nothing more, ``simulate`` adds ``simulate``,
``filter`` ``kernels`` (with ``laws`` and ``simulate``), ``bounds``
``distances`` (with ``kernels``), and ``convergence`` and
``risk-transfer`` ``experiments``, which imports every layer.  The
library functions that ``bench/tracing.py`` wraps are called as
attributes of this module (``_LATE``), so a rebinding made before a
subcommand first runs is what it calls.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import importlib
import io
import itertools
import json
import math
import sys
import warnings

import numpy as np

from .model import (DiracJump, Grid, LatticeJumps, ModelSpec,
                    QuadratureError, build_increment_summaries,
                    check_sigma_log_derivative, constant, gaussian_jumps,
                    linear, sine, uniform_jumps)

__all__ = ["ConfigError", "parse_config", "load_config", "main"]


#: library functions a handler calls as attributes of this module, by the
#: module that defines each.  Each is imported on first access, so a
#: subcommand loads only its own layers; a name rebound here before that
#: (``bench/tracing.py`` wraps these to time the layers) is never replaced,
#: and every call goes through the binding in place at the time.
_LATE = {"sample_path": "simulate", "truncate_resample": "kernels",
         "bernoulli_aggregate_bound": "distances",
         "discrete_kernel_aggregate_bound": "distances",
         "continuous_kernel_aggregate_bound": "distances"}


def __getattr__(name: str):
    if name not in _LATE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__package__}.{_LATE[name]}")
    value = globals()[name] = getattr(module, name)
    return value


#: this module: ``_late.sample_path`` is the current binding of a
#: ``_LATE`` name
_late = sys.modules[__name__]


class ConfigError(ValueError):
    """Schema or file problem in a run configuration."""


def _need(data: dict, key: str):
    if key not in data:
        raise ConfigError(f"missing key: {key}")
    return data[key]


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ConfigError(f"{key} must be finite (got an integer too "
                          "large for a float)") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite (got {value!r})")
    return number


#: Config kinds by family: kind -> (constructor, its number fields in
#: argument order).  ``phase`` may be omitted (default 0) and
#: ``values``/``probs`` are lists of numbers.
_KINDS = {
    "time function": {
        "constant": (constant, ("value",)),
        "linear": (linear, ("intercept", "slope")),
        "sine": (sine, ("offset", "amplitude", "angular_frequency", "phase")),
    },
    "jump law": {
        "dirac": (DiracJump, ("location",)),
        "lattice": (LatticeJumps, ("values", "probs")),
        "uniform": (uniform_jumps, ("low", "high")),
        "gaussian": (gaussian_jumps, ("mean", "sd")),
    },
}
#: config key -> family of its kind
_FAMILIES = {"drift": "time function", "sigma": "time function",
             "intensity": "time function", "jump_law": "jump law"}


def _parse_field(obj: dict, field: str, key: str):
    name = f"{key}.{field}"
    if field == "phase":
        return _as_float(obj.get(field, 0.0), name)
    if field not in obj:
        raise ConfigError(f"missing key: {name}")
    raw = obj[field]
    if field in ("values", "probs"):
        if not isinstance(raw, list):
            raise ConfigError(f"{name} must be a list of numbers")
        return tuple(_as_float(v, f"{name}[{j}]") for j, v in enumerate(raw))
    return _as_float(raw, name)


def _parse_kind(obj, key: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{key} must be an object with a 'kind'")
    kinds = _KINDS[_FAMILIES[key]]
    kind = obj.get("kind")
    if kind not in kinds:
        raise ConfigError(
            f"{key}.kind must be one of {', '.join(kinds)} (got {kind!r})")
    make, names = kinds[kind]
    args = [_parse_field(obj, name, key) for name in names]
    try:
        return make(*args)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


#: largest grid a config or ``--n-list`` may ask for: ``simulate``,
#: ``filter`` and ``bounds`` hold 40-95 bytes per interval (float arrays;
#: the CSV text is formatted ``_BLOCK`` rows at a time), so 2**24
#: intervals need up to some 1.6 GB; past the cap a run could fail in an
#: allocation, not with a config error
_MAX_N = 1 << 24


def parse_config(data: dict) -> tuple[ModelSpec, int]:
    """Validated model and grid size ``n`` (at most ``2**24``) from a
    decoded config object.

    An optional ``sigma_log_derivative_bound`` is a non-negative cap on
    the log-volatility slope, checked against the model on the uniform
    ``n``-interval grid; it is not returned.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    parsed = {key: _parse_kind(_need(data, key), key) for key in _FAMILIES}
    epsilon_n = _as_float(_need(data, "epsilon_n"), "epsilon_n")
    horizon = _as_float(_need(data, "horizon"), "horizon")
    initial = _as_float(data.get("initial", 0.0), "initial")
    intensity_max = data.get("intensity_max")
    if intensity_max is not None:
        intensity_max = _as_float(intensity_max, "intensity_max")
    n = _need(data, "n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError("n must be a positive integer")
    if n > _MAX_N:
        raise ConfigError(f"n must be at most {_MAX_N}")
    try:
        spec = ModelSpec(**parsed, epsilon_n=epsilon_n, horizon=horizon,
                         initial=initial, intensity_max=intensity_max)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    c1 = data.get("sigma_log_derivative_bound")
    if c1 is not None:
        c1 = _as_float(c1, "sigma_log_derivative_bound")
        if c1 < 0.0:
            raise ConfigError(
                "sigma_log_derivative_bound must be non-negative")
        grid = Grid.uniform(spec.horizon, n)
        if not check_sigma_log_derivative(spec.sigma, c1, grid):
            raise ConfigError(
                "sigma_log_derivative_bound: log-volatility slope exceeds "
                f"the declared bound {c1!r}")
    return spec, n


def load_config(path: str) -> tuple[ModelSpec, int]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------

def _field(text: str, alone: bool) -> str:
    """``text`` as ``csv.writer`` writes it into a row; ``alone`` means as
    the row's only field, where an empty text is quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        (text,) if alone else (text, ""))
    return buf.getvalue()[:-1 if alone else -2]


def _float_texts(values: np.ndarray, bits: np.ndarray, earlier: list) -> list:
    """``repr`` of each float in ``values``.  A cell with the bits of the
    same row of an earlier float column reuses that column's text;
    ``earlier`` holds those columns as (bits, texts) pairs."""
    texts, fresh = None, np.ones(values.size, dtype=bool)
    for prev_bits, prev_texts in earlier:
        if prev_bits.dtype != bits.dtype:  # equal bits, different values
            continue
        same = fresh & (bits == prev_bits)
        if same.any():
            if texts is None:
                texts = np.empty(values.size, dtype=object)
            texts[same] = np.array(prev_texts, dtype=object)[same]
            fresh &= ~same
    if texts is None:  # no cell matches
        return list(map(repr, values.tolist()))
    texts[fresh] = list(map(repr, values[fresh].tolist()))
    return texts.tolist()


#: rows formatted per write: the cell texts of one block are all that
#: is held as text at a time
_BLOCK = 4096


def _emit_csv(columns: dict, out_path: str | None, last_row=None) -> None:
    """Write equal-length named columns, plus an optional row of text.

    Floats are rendered with ``repr``, everything else with ``str``, and
    text is quoted as ``csv.writer`` quotes it.  The body is written in
    blocks of ``_BLOCK`` rows, each one ``%`` format of a row template
    repeated once per row.  A column whose cells are all bitwise
    identical is written into the template once, as literal text; a float
    cell with the bits of the same row of an earlier float column reuses
    that cell's text.
    """
    alone = len(columns) == 1
    fields, varying, rows = [], [], 0
    for column in columns.values():
        arr = np.asarray(column)
        rows = arr.size
        kind = arr.dtype.kind
        render = repr if kind == "f" else str
        # bit patterns, so that 0.0 and -0.0 are two texts
        bits = arr.view(f"u{arr.itemsize}") if kind == "f" else arr
        if rows and (bits == bits[0]).all():
            fields.append(_field(render(arr.item(0)), alone)
                          .replace("%", "%%"))
        else:
            fields.append("%s")
            varying.append((arr, bits))
    template = ",".join(fields) + "\n"
    with (contextlib.nullcontext(sys.stdout) if out_path is None
          else open(out_path, "w", encoding="utf-8", newline="")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for start in range(0, rows, _BLOCK):
            block = slice(start, start + _BLOCK)
            cells, floats = [], []
            for arr, bits in varying:
                arr, bits = arr[block], bits[block]
                if arr.dtype.kind == "f":
                    cells.append(_float_texts(arr, bits, floats))
                    floats.append((bits, cells[-1]))
                elif arr.dtype.kind in "biu":  # numbers are never quoted
                    cells.append(arr.tolist())
                else:
                    cells.append([_field(str(v), alone) for v in arr.tolist()])
            fh.write((template * min(_BLOCK, rows - start))
                     % tuple(itertools.chain.from_iterable(zip(*cells))))
        if last_row is not None:
            writer.writerow(last_row)


def _record_columns(records: list, cls) -> dict:
    """One column per dataclass field, typed as the field declares."""
    return {f.name: np.array([getattr(r, f.name) for r in records],
                             dtype=f.type)
            for f in dataclasses.fields(cls)}


def _jump_case(spec: ModelSpec) -> str:
    """The jump case of the config's law; a law no kernel erases is a
    config error."""
    from .kernels import jump_case_of
    try:
        return jump_case_of(spec.jump_law)
    except ValueError as exc:
        raise ConfigError(f"jump_law: {exc}") from None


def _parse_n_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"--n-list must be comma-separated integers: {exc}")
    if not values:
        raise ConfigError("--n-list must name at least one grid size")
    if max(values) > _MAX_N:
        raise ConfigError(f"--n-list sizes must be at most {_MAX_N}")
    return values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    from .simulate import bin_jump_sums
    spec, n = load_config(args.config)
    grid = Grid.uniform(spec.horizon, n)
    summaries = build_increment_summaries(spec, grid)
    path = _late.sample_path(spec, grid, summaries, args.rng)
    counts = bin_jump_sums(grid.times, path.jump_times,
                           np.ones_like(path.jump_sizes))
    _emit_csv({"t_i": grid.times[1:], "increment": path.increments,
               "gaussian_part": path.gaussian_parts,
               "n_jumps_in_interval": np.rint(counts).astype(np.int64)},
              args.out)
    return 0


def _read_increment_csv(path: str):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), [])
            if "increment" not in header:
                raise ConfigError(f"input {path} lacks an 'increment' column")
            names = [name for name in ("increment", "t_i") if name in header]
            # the last column of each name, as a header-keyed dict would keep
            usecols = [len(header) - 1 - header[::-1].index(name)
                       for name in names]
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", ".*input contained no data",
                                        UserWarning)
                try:
                    # blank lines are skipped and quoted cells unquoted; a
                    # cell reads to float()'s bits, but underscores and
                    # non-ASCII digits are refused, as is a short row
                    data = np.loadtxt(fh, delimiter=",", usecols=usecols,
                                      ndmin=2, comments=None, quotechar='"',
                                      dtype=float)
                except UnicodeDecodeError:
                    raise
                except ValueError as exc:
                    raise ConfigError(
                        f"input {path} has a non-numeric row: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read input {path}: {exc}") from exc
    if data.shape[0] == 0:
        raise ConfigError(f"input {path} has no data rows")
    return data[:, 0], (data[:, 1] if len(names) == 2 else None)


def _cmd_filter(args) -> int:
    from .kernels import TruncateResampleParams, round_to_lattice
    inc, times = _read_increment_csv(args.input)
    bad = np.flatnonzero(~np.isfinite(inc))
    if bad.size:
        raise ConfigError(f"data row {bad[0] + 1} of {args.input}: increment "
                          f"must be finite (got {float(inc[bad[0]])!r})")
    try:
        grid = None if times is None else Grid(np.concatenate(([0.0], times)))
    except ValueError as exc:
        raise ConfigError(f"t_i column: {exc}") from exc
    if args.kernel == "round":
        filtered = round_to_lattice(inc)
    else:
        if args.config is None:
            raise ConfigError(
                "--kernel truncate needs --config to set interval "
                "noise levels")
        spec, _ = load_config(args.config)
        if grid is None:
            grid = Grid.uniform(spec.horizon, inc.size)
        sigma = build_increment_summaries(spec, grid).sigma
        params = TruncateResampleParams(args.L, args.epsilon, sigma)
        # rows inside the ball pass through; escaped row i redraws from
        # its own stream args.rng.child(i)
        filtered = inc.copy()
        for i in np.flatnonzero(params.escaped(inc)):
            row = TruncateResampleParams(args.L, args.epsilon, sigma[i])
            filtered[i] = _late.truncate_resample(inc[i], row,
                                                  args.rng.child(i))
    if times is None:
        times = np.arange(1, inc.size + 1, dtype=float)
    _emit_csv({"t_i": times, "filtered_increment": filtered}, args.out)
    return 0


def _cmd_bounds(args) -> int:
    spec, n = load_config(args.config)
    kernel = args.kernel
    if kernel == "auto":
        kernel = "round" if _jump_case(spec) == "lattice" else "truncate"
    grid = Grid.uniform(spec.horizon, n)
    summaries = build_increment_summaries(spec, grid)
    if kernel == "round":
        report = _late.discrete_kernel_aggregate_bound(summaries)
    elif kernel == "truncate":
        report = _late.continuous_kernel_aggregate_bound(
            summaries, args.L, args.epsilon, spec.jump_law)
    else:
        report = _late.bernoulli_aggregate_bound(summaries)
    for note in report.warnings:
        print(f"warning: {note}", file=sys.stderr)
    aggregate = repr(float(report.aggregate))
    _emit_csv({"i": np.arange(1, summaries.n + 1),
               "lambda_i": summaries.lam,
               "sigma_i": summaries.sigma, "m_i": summaries.m,
               "per_increment_bound": report.per_increment,
               "formula_name": np.broadcast_to(report.formula_name,
                                               summaries.n)},
              args.out, last_row=("aggregate", "", "", "", aggregate,
                                  report.formula_name))
    return 0


def _cmd_convergence(args) -> int:
    from .experiments import ConvergenceRow, run_convergence
    spec, _ = load_config(args.config)
    n_list = _parse_n_list(args.n_list)
    rows = run_convergence(spec, n_list, _jump_case(spec), L=args.L,
                           epsilon=args.epsilon)
    _emit_csv(_record_columns(rows, ConvergenceRow), args.out)
    return 0


def _cmd_risk_transfer(args) -> int:
    from .experiments import (RiskRow, default_drift_estimator,
                              run_risk_transfer)
    spec, _ = load_config(args.config)
    rows = run_risk_transfer(spec, default_drift_estimator,
                             _parse_n_list(args.n_list), args.reps, args.rng)
    _emit_csv(_record_columns(rows, RiskRow), args.out)
    return 0


def _cmd_validate(args) -> int:
    load_config(args.config)
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are config errors."""

    def error(self, message):
        raise ConfigError(message)


#: every flag a subcommand can take, with its argparse settings; ``--L``
#: and ``--epsilon`` default to None, which ``main`` reads as
#: ``kernels.DEFAULT_L`` and ``DEFAULT_EPSILON`` once it loads ``kernels``
_FLAGS = {
    "--config": dict(required=True, help="JSON config path"),
    "--seed": dict(type=int, default=0,
                   help="base seed, an integer in [0, 2**64)"),
    "--out": dict(default=None,
                  help="write CSV here instead of standard output"),
    "--n-list": dict(required=True,
                     help="comma-separated grid sizes, strictly increasing"),
    "--L": dict(type=float, help="drift cap for the truncate kernel"),
    "--epsilon": dict(type=float,
                      help="radius exponent for the truncate kernel"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lecamjd",
        description="Jump-experiment simulation, filtering, and bound tables")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, handler, summary, *flags):
        """A subcommand taking ``flags`` (keys of ``_FLAGS``)."""
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler)
        return p

    command("simulate", _cmd_simulate, "sample one observed path",
            "--config", "--seed", "--out")
    p_filt = command("filter", _cmd_filter, "filter an increment CSV",
                     "--seed", "--out", "--L", "--epsilon")
    p_filt.add_argument("input", help="CSV with an 'increment' column")
    p_filt.add_argument("--config", help="JSON config path (truncate only)")
    p_filt.add_argument("--kernel", choices=["round", "truncate"],
                        default="round")
    p_bounds = command("bounds", _cmd_bounds,
                       "per-increment filtering bound table",
                       "--config", "--out", "--L", "--epsilon")
    p_bounds.add_argument("--kernel",
                          choices=["auto", "bernoulli"],
                          default="auto")
    command("convergence", _cmd_convergence, "bound sweep over grid sizes",
            "--config", "--out", "--n-list", "--L", "--epsilon")
    p_risk = command("risk-transfer", _cmd_risk_transfer,
                     "estimator transfer comparison",
                     "--config", "--seed", "--out", "--n-list")
    p_risk.add_argument("--reps", type=int, default=100,
                        help="Monte Carlo replications per grid size")
    command("validate", _cmd_validate, "check a config and exit", "--config")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if "seed" in vars(args):
            from .simulate import RngStream
            try:
                args.rng = RngStream(args.seed)
            except ValueError:
                raise ConfigError(f"--seed must be in [0, 2**64) "
                                  f"(got {args.seed})") from None
        if "L" in vars(args):  # the truncate kernel's options
            from . import kernels
            if args.L is None:
                args.L = kernels.DEFAULT_L
            if args.epsilon is None:
                args.epsilon = kernels.DEFAULT_EPSILON
            kernels.TruncateResampleParams(args.L, args.epsilon, sigma_i=1.0)
        return args.handler(args)
    except (QuadratureError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
