"""Command-line front door: config schema, CSV shapes, determinism,
and exit codes.  Everything runs in-process through ``main(argv)``."""

import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lecamjd as lj
from lecamjd.cli import (ConfigError, _emit_csv, _read_increment_csv,
                         load_config, main, parse_config)

BASE_CONFIG = {
    "drift": {"kind": "sine", "offset": 0.2, "amplitude": 0.1,
              "angular_frequency": 2 * math.pi},
    "sigma": {"kind": "constant", "value": 1.0},
    "intensity": {"kind": "constant", "value": 1.0},
    "jump_law": {"kind": "dirac", "location": 1.0},
    "epsilon_n": 0.05,
    "horizon": 1.0,
    "n": 16,
}


def write_config(tmp_path, overrides=None, name="config.json"):
    data = dict(BASE_CONFIG)
    if overrides:
        data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_optional_keys_are_read(self):
        data = dict(BASE_CONFIG, intensity_max=2.5, initial=-0.5,
                    sigma_log_derivative_bound=0.75)
        spec, n = parse_config(data)
        assert (spec.intensity_max, spec.initial, n) == (2.5, -0.5, 16)

    @pytest.mark.parametrize("kind, params, cls", [
        ("lattice", {"values": [-1, 2], "probs": [0.25, 0.75]},
         lj.LatticeJumps),
        ("uniform", {"low": -1.0, "high": 1.0}, lj.ContinuousJumps),
        ("gaussian", {"mean": 7.5, "sd": 0.5}, lj.ContinuousJumps),
    ])
    def test_jump_law_kinds(self, kind, params, cls):
        data = dict(BASE_CONFIG)
        data["jump_law"] = {"kind": kind, **params}
        spec, _ = parse_config(data)
        assert isinstance(spec.jump_law, cls)

    def test_missing_key_is_named(self):
        data = dict(BASE_CONFIG)
        del data["horizon"]
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(data)

    def test_negative_epsilon_n_names_key(self):
        data = dict(BASE_CONFIG)
        data["epsilon_n"] = -0.05
        with pytest.raises(ConfigError, match="epsilon_n"):
            parse_config(data)

    def test_n_must_be_positive_integer(self):
        for bad in (0, -3, 2.5, True, "16"):
            data = dict(BASE_CONFIG)
            data["n"] = bad
            with pytest.raises(ConfigError, match="n must be"):
                parse_config(data)

    def test_unknown_kind_rejected(self):
        data = dict(BASE_CONFIG)
        data["drift"] = {"kind": "cubic", "value": 1.0}
        with pytest.raises(ConfigError, match="drift"):
            parse_config(data)

    def test_bad_lattice_values_rejected(self):
        data = dict(BASE_CONFIG)
        data["jump_law"] = {"kind": "lattice", "values": [0.5],
                            "probs": [1.0]}
        with pytest.raises(ConfigError, match="jump_law"):
            parse_config(data)

    @pytest.mark.parametrize("law, where", [
        ({"values": ["1", "2"], "probs": ["0.5", "0.5"]}, "values[0]"),
        ({"values": [True, 2], "probs": [0.5, 0.5]}, "values[0]"),
        ({"values": [1, 2], "probs": [0.5, False]}, "probs[1]"),
        ({"values": 3, "probs": [1.0]}, "values"),
    ])
    def test_lattice_entries_must_be_json_numbers(self, tmp_path, capsys,
                                                  law, where):
        cfg = write_config(tmp_path, {"jump_law": {"kind": "lattice", **law}})
        assert main(["validate", "--config", cfg]) == 1
        assert f"jump_law.{where} must be" in capsys.readouterr().err

    def test_jump_law_errors_name_the_key_once(self):
        data = dict(BASE_CONFIG)
        data["jump_law"] = {"kind": "dirac", "location": math.nan}
        with pytest.raises(ConfigError) as info:
            parse_config(data)
        assert str(info.value).startswith("jump_law.location must be finite")

    def test_volatility_slope_declaration_checked(self):
        data = dict(BASE_CONFIG)
        data["sigma"] = {"kind": "sine", "offset": 1.0, "amplitude": 0.5,
                         "angular_frequency": 4.0}
        data["sigma_log_derivative_bound"] = 0.1
        with pytest.raises(ConfigError, match="log-volatility"):
            parse_config(data)
        data["sigma_log_derivative_bound"] = 5.0
        parse_config(data)

    @pytest.mark.parametrize("cap", [-1e-9, -5.0])
    def test_negative_slope_cap_is_config_error(self, tmp_path, capsys,
                                                cap):
        # a constant volatility has slope 0: only the cap itself is wrong
        cfg = write_config(tmp_path, {"sigma_log_derivative_bound": cap})
        assert main(["validate", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: sigma_log_derivative_bound "
                                "must be non-negative\n")

    @pytest.mark.parametrize("argv", [["validate"], ["simulate"],
                                      ["bounds"]])
    def test_n_past_the_cap_is_config_error(self, tmp_path, capsys, argv):
        # 10**23 passed validate, and simulate and bounds failed with
        # numpy's "Maximum allowed size exceeded", which does not name n
        parse_config(dict(BASE_CONFIG, n=1 << 24))
        for extra in ({}, {"sigma_log_derivative_bound": 1.0}):
            cfg = write_config(tmp_path, dict(extra, n=10 ** 23))
            assert main(argv + ["--config", cfg]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "config error: n must be at most 16777216\n"

    def test_load_config_error_paths(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(bad))


def _numbers(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _time_function(positive: bool):
    """Every time-function kind; positive ones stay above 0.1 on [0, 1]."""
    lo = 0.5 if positive else -5.0
    sine = st.fixed_dictionaries(
        {"kind": st.just("sine"), "offset": _numbers(lo + 2.0, 5.0),
         "amplitude": _numbers(-1.0, 1.0),
         "angular_frequency": _numbers(-20.0, 20.0)},
        optional={"phase": _numbers(-4.0, 4.0)})
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("constant"),
                               "value": _numbers(lo, 5.0)}),
        st.fixed_dictionaries({"kind": st.just("linear"),
                               "intercept": _numbers(lo, 5.0),
                               "slope": _numbers(-0.4 if positive else -5.0,
                                                 5.0)}),
        sine)


def _lattice(values, weights):
    probs = [w / sum(weights) for w in weights]
    return {"kind": "lattice", "values": values, "probs": probs}


JUMP_LAWS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("dirac"),
                           "location": _numbers(-3.0, 3.0)}),
    st.integers(1, 4).flatmap(lambda k: st.builds(
        _lattice, st.lists(st.integers(-5, 5), min_size=k, max_size=k,
                           unique=True),
        st.lists(st.integers(1, 9), min_size=k, max_size=k))),
    st.builds(lambda low, width: {"kind": "uniform", "low": low,
                                  "high": low + width},
              _numbers(-3.0, 3.0), _numbers(0.01, 3.0)),
    st.fixed_dictionaries({"kind": st.just("gaussian"),
                           "mean": _numbers(-3.0, 3.0),
                           "sd": _numbers(0.01, 2.0)}))


def summary_bytes(spec, grid):
    """Raw bytes of every summary array, or the error that stopped them."""
    try:
        s = lj.build_increment_summaries(spec, grid)
    except (ValueError, ArithmeticError) as exc:
        return str(exc)
    return [getattr(s, name).tobytes()
            for name in ("m", "sigma2", "lam", "alpha")]


#: config kind -> (the constructor it names, its keys in argument order)
CONSTRUCTORS = {
    "constant": (lj.constant, ("value",)),
    "linear": (lj.linear, ("intercept", "slope")),
    "sine": (lj.sine, ("offset", "amplitude", "angular_frequency", "phase")),
    "dirac": (lj.DiracJump, ("location",)),
    "lattice": (lj.LatticeJumps, ("values", "probs")),
    "uniform": (lj.uniform_jumps, ("low", "high")),
    "gaussian": (lj.gaussian_jumps, ("mean", "sd")),
}


def constructed(obj):
    """What the constructor of ``obj``'s kind builds from its numbers."""
    make, keys = CONSTRUCTORS[obj["kind"]]
    return make(*(obj[key] for key in keys if key in obj))


class TestParseProperty:
    @given(drift=_time_function(False), sigma=_time_function(True),
           intensity=_time_function(True), jump_law=JUMP_LAWS)
    @settings(max_examples=150, deadline=None)
    def test_every_kind_parses_to_its_constructor(self, drift, sigma,
                                                  intensity, jump_law):
        parts = dict(drift=drift, sigma=sigma, intensity=intensity,
                     jump_law=jump_law)
        spec, n = parse_config(dict(BASE_CONFIG, **parts, n=8))
        want = lj.ModelSpec(
            **{key: constructed(obj) for key, obj in parts.items()},
            epsilon_n=BASE_CONFIG["epsilon_n"],
            horizon=BASE_CONFIG["horizon"])
        assert n == 8
        grid = lj.Grid.uniform(spec.horizon, n)
        assert summary_bytes(spec, grid) == summary_bytes(want, grid)
        us = np.linspace(-4.0, 4.0, 9)
        np.testing.assert_array_equal(spec.jump_law.cf(us),
                                      want.jump_law.cf(us))


def reference_csv(columns, last_row=None):
    """The CSV text of the row-by-row writer the row template replaced:
    ``csv.writer`` over each cell's ``repr`` (floats) or ``str``."""
    cells = []
    for column in columns.values():
        arr = np.asarray(column)
        cells.append(map(repr if arr.dtype.kind == "f" else str,
                         arr.tolist()))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*cells))
    if last_row is not None:
        writer.writerow(last_row)
    return buf.getvalue()


#: (dtype, cell strategy) of each column kind; floats include +-0.0, NaN
#: (with any payload), +-inf and subnormals, text any quoting hazard
CELL_KINDS = [
    (np.float64, st.floats(width=64)),
    (np.int64, st.integers(-(1 << 63), (1 << 63) - 1)),
    (str, st.text()),
]


@st.composite
def csv_columns(draw):
    rows = draw(st.integers(0, 5))
    names = draw(st.lists(st.text(), min_size=1, max_size=4, unique=True))
    columns = {}
    for name in names:
        dtype, cells = draw(st.sampled_from(CELL_KINDS))
        if draw(st.booleans()):  # all cells equal
            values = [draw(cells)] * rows
        else:
            values = draw(st.lists(cells, min_size=rows, max_size=rows))
        # callers pass arrays or, as bounds' formula_name, plain lists
        columns[name] = (np.array(values, dtype=dtype)
                         if draw(st.booleans()) else values)
    return columns


#: floats whose texts are easy to confuse: 0.0 against -0.0, NaNs
TRICKY_FLOATS = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf,
                                 5e-324])


@st.composite
def shared_float_columns(draw):
    """Tables whose float columns share bits with a base row on some rows
    and differ on others, mixed with integer and text columns."""
    floats = TRICKY_FLOATS | st.floats(width=64)
    rows = draw(st.integers(1, 6))
    base = draw(st.lists(floats, min_size=rows, max_size=rows))
    names = draw(st.lists(st.text(max_size=3), min_size=1, max_size=5,
                          unique=True))
    columns = {}
    for name in names:
        kind = draw(st.sampled_from(["float", "float", "float", "int", "text"]))
        if kind == "float":
            columns[name] = np.array(
                [v if draw(st.booleans()) else draw(floats) for v in base])
        elif kind == "int":
            columns[name] = np.array(draw(st.lists(
                st.integers(-9, 9), min_size=rows, max_size=rows)))
        else:
            columns[name] = draw(st.lists(st.text(max_size=3),
                                          min_size=rows, max_size=rows))
    return columns


def emitted_csv(columns, last_row=None):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _emit_csv(columns, None, last_row)
    return out.getvalue()


class TestEmitCsv:
    @given(columns=csv_columns(),
           last_row=st.none() | st.lists(st.text(), max_size=4))
    @example(columns={"x": np.array([0.0, -0.0])}, last_row=None)
    @example(columns={"x": ["100%", "100%"], "y": [1, 2]},
             last_row=["a", "", "1%"])
    @example(columns={"x": ["", ""]}, last_row=None)
    @example(columns={"v": np.array([0x7FF8000000000000, 0xFFF8000000000001,
                                     0x7FF0000000000002],
                                    dtype=np.uint64).view(np.float64)},
             last_row=None)
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_row_by_row_writer(self, columns, last_row):
        assert emitted_csv(columns, last_row) == reference_csv(columns,
                                                               last_row)

    @given(columns=shared_float_columns())
    @example(columns={"a": np.array([0.0, 1.5]), "b": np.array([-0.0, 1.5]),
                      "c": np.array([0.0, -0.0])})
    # a float32 and a float64 column with equal bit patterns: 1.0 and
    # 2.0 against two subnormals, four texts
    @example(columns={"f": np.array([1.0, 2.0], dtype=np.float32),
                      "d": np.array([0x3F800000, 0x40000000],
                                    dtype=np.uint64).view(np.float64)})
    @settings(max_examples=300, deadline=None)
    def test_reused_float_texts_match_row_by_row_writer(self, columns):
        assert emitted_csv(columns) == reference_csv(columns)


class TestSimulateCommand:
    def test_csv_shape_and_header(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--seed", "4"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "t_i,increment,gaussian_part,n_jumps_in_interval"
        assert len(lines) == 1 + 16
        first = lines[1].split(",")
        assert float(first[0]) == 1.0 / 16.0
        assert int(first[3]) >= 0

    def test_seed_determinism_and_separation(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", cfg, "--seed", "4"])
        a = capsys.readouterr().out
        main(["simulate", "--config", cfg, "--seed", "4"])
        b = capsys.readouterr().out
        main(["simulate", "--config", cfg, "--seed", "5"])
        c = capsys.readouterr().out
        assert a == b
        assert a != c

    def test_out_file_matches_stdout_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", cfg, "--seed", "4"])
        streamed = capsys.readouterr().out
        target = tmp_path / "path.csv"
        assert main(["simulate", "--config", cfg, "--seed", "4",
                     "--out", str(target)]) == 0
        assert target.read_text(encoding="utf-8") == streamed

    def test_intensity_above_the_rate_between_probes_is_config_error(
            self, tmp_path, capsys):
        # 3 + 3 sin(2 pi 256 t) is 3 at each of the spec's 257 probes, so
        # only a thinning candidate between them finds the excess
        cfg = write_config(tmp_path, {
            "intensity": {"kind": "sine", "offset": 3.0, "amplitude": 3.0,
                          "angular_frequency": 1608.495438637974,
                          "phase": 0.0},
            "intensity_max": 3.000001, "n": 8})
        assert main(["simulate", "--config", cfg, "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: intensity(0.219912) = 5.86721 "
                                "exceeds the dominating rate 3\n")


class TestFilterCommand:
    def write_increments(self, tmp_path, values, with_times=False):
        path = tmp_path / "inc.csv"
        lines = ["t_i,increment"] if with_times else ["increment"]
        for i, v in enumerate(values):
            prefix = f"{(i + 1) * 0.25}," if with_times else ""
            lines.append(f"{prefix}{v!r}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_round_kernel_wraps_increments(self, tmp_path, capsys):
        inc = self.write_increments(tmp_path, [1.7, -0.2, 0.3])
        assert main(["filter", inc]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t_i,filtered_increment"
        got = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(got, [-0.3, -0.2, 0.3], atol=1e-15)
        # without a t_i column the row index stands in for time
        assert [float(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3]

    def test_truncate_kernel_needs_config(self, tmp_path, capsys):
        inc = self.write_increments(tmp_path, [0.1, 5.0])
        assert main(["filter", inc, "--kernel", "truncate"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_truncate_kernel_keeps_small_redraws_large(self, tmp_path,
                                                       capsys):
        cfg = write_config(tmp_path, {"n": 4})
        inc = self.write_increments(tmp_path, [0.1, 5.0, -0.05, -9.0],
                                    with_times=True)
        assert main(["filter", inc, "--kernel", "truncate", "--config",
                     cfg, "--seed", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert vals[0] == 0.1 and vals[2] == -0.05
        # noise sd is 0.05 / 2, so redraws are tiny compared to the inputs
        assert abs(vals[1]) < 1.0 and abs(vals[3]) < 1.0

    def test_times_past_the_horizon_are_config_error(self, tmp_path,
                                                     capsys):
        # the fifth time is 1.25, past the config's horizon of 1
        cfg = write_config(tmp_path, {"n": 5})
        inc = self.write_increments(tmp_path, [0.1, 5.0, -0.05, -9.0, 0.2],
                                    with_times=True)
        assert main(["filter", inc, "--kernel", "truncate", "--config",
                     cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: grid runs to 1.25, past the "
                                "model horizon 1\n")

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_time_is_config_error(self, tmp_path, capsys, cell):
        cfg = write_config(tmp_path, {"n": 2})
        path = tmp_path / "inc.csv"
        path.write_text(f"t_i,increment\n0.5,0.1\n{cell},0.2\n",
                        encoding="utf-8")
        assert main(["filter", str(path), "--kernel", "truncate", "--config",
                     cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: t_i column: grid times must "
                                "be finite\n")

    @pytest.mark.parametrize("kernel", ["round", "truncate"])
    @pytest.mark.parametrize("times, why", [
        ("0.5, nan, 0.25", "grid times must be finite"),
        ("0.25, inf, 0.5", "grid times must be finite"),
        ("0.5, 0.25, 0.75", "grid times must be strictly increasing"),
        ("0.0, 0.5, 0.75", "grid times must be strictly increasing"),
    ])
    def test_bad_time_column_is_config_error(self, tmp_path, capsys,
                                             kernel, times, why):
        # a first cell of 0 leaves an interval of length 0
        cfg = write_config(tmp_path, {"n": 3})
        path = tmp_path / "inc.csv"
        rows = [f"{t.strip()},0.1" for t in times.split(",")]
        path.write_text("\n".join(["t_i,increment"] + rows) + "\n",
                        encoding="utf-8")
        assert main(["filter", str(path), "--kernel", kernel, "--config",
                     cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: t_i column: {why}\n"

    @pytest.mark.parametrize("kernel", ["round", "truncate"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_increment_is_config_error(self, tmp_path, capsys,
                                                  kernel, cell):
        # neither kernel is defined off the reals
        cfg = write_config(tmp_path, {"n": 3})
        path = tmp_path / "inc.csv"
        path.write_text(f"increment\n0.25\n{cell}\n1.5\n", encoding="utf-8")
        assert main(["filter", str(path), "--kernel", kernel, "--config",
                     cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: data row 2 of {path}: "
                                f"increment must be finite (got {cell})\n")

    def test_non_numeric_row_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "inc.csv"
        path.write_text("increment\nabc\n", encoding="utf-8")
        assert main(["filter", str(path)]) == 1
        assert "non-numeric" in capsys.readouterr().err

    def read_filtered(self, tmp_path, text, capsys):
        path = tmp_path / "inc.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["filter", str(path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        return [tuple(float(v) for v in line.split(","))
                for line in lines[1:]]

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        got = self.read_filtered(
            tmp_path, "t_i,increment\n\n0.5,0.25\n\n\n1.0,-0.125\n\n",
            capsys)
        assert got == [(0.5, 0.25), (1.0, -0.125)]

    def test_extra_columns_are_ignored(self, tmp_path, capsys):
        got = self.read_filtered(
            tmp_path, "note,increment,t_i,more\nx,0.25,0.5,y,z\n"
                      "x,-0.125,1.0,y\n", capsys)
        assert got == [(0.5, 0.25), (1.0, -0.125)]

    @pytest.mark.parametrize("text, message", [
        ("t_i,increment\n0.5,0.25\n1.0\n", "non-numeric"),  # short rows
        ("increment,t_i\n0.25,0.5\n-0.125\n", "non-numeric"),
        ("increment\n0.25\n \n", "non-numeric"),
        ("", "lacks an 'increment' column"),
        ("\nincrement\n0.25\n", "lacks an 'increment' column"),
        ("t_i,increments\n0.5,0.25\n", "lacks an 'increment' column"),
        ("t_i,increment\n\n\n", "no data rows"),
    ])
    def test_malformed_input_is_config_error(self, tmp_path, capsys, text,
                                             message):
        path = tmp_path / "inc.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["filter", str(path)]) == 1
        assert message in capsys.readouterr().err


    def test_underscore_in_a_number_is_config_error(self, tmp_path, capsys):
        # float("1_0") is 10.0, but a CSV cell is a plain decimal literal
        path = tmp_path / "inc.csv"
        path.write_text("increment\n0.25\n1_0\n", encoding="utf-8")
        assert main(["filter", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-numeric" in captured.err and "1_0" in captured.err

    def test_no_data_rows_prints_one_line(self, tmp_path, run_python):
        path = tmp_path / "inc.csv"
        path.write_text("t_i,increment\n\n\n", encoding="utf-8")
        proc = run_python("-W", "always", "-m", "lecamjd", "filter",
                          str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"config error: input {path} has no data rows\n"

    def test_undecodable_input_is_config_error(self, tmp_path, capsys):
        # past the first block the text reader decodes, as at its start
        path = tmp_path / "inc.csv"
        path.write_bytes(b"increment\n" + b"0.5\n" * 50_000 + b"\xff\n")
        assert main(["filter", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: cannot read input {path}: 'utf-8' codec")


def reference_read(path):
    """The reader ``np.loadtxt`` replaced: ``csv.reader`` rows and
    ``float()`` per cell.  A short or non-numeric row raises IndexError or
    ValueError."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [row for row in reader if row]

    def column(name):
        i = len(header) - 1 - header[::-1].index(name)
        return np.array([float(row[i]) for row in rows])

    return column("increment"), column("t_i") if "t_i" in header else None


@st.composite
def float_cell(draw):
    """Any float (NaN, +-inf, +-0.0, subnormals) as ``repr`` or ``%.17g``
    writes it, quoted or not."""
    value = draw(TRICKY_FLOATS | st.floats(width=64))
    text = repr(value) if draw(st.booleans()) else "%.17g" % value
    return f'"{text}"' if draw(st.booleans()) else text


@st.composite
def increment_files(draw):
    """Increment CSV text: either column order, duplicate and extra
    columns, ragged rows, blank lines, LF or CRLF, now and then a short
    or whitespace-only row."""
    names = ["increment"] + (["t_i"] if draw(st.booleans()) else [])
    extras = draw(st.lists(st.sampled_from(["note", "increment", "t_i"]),
                           max_size=2))
    header = draw(st.permutations(names + extras))
    words = st.text("ab ;.", max_size=3) | float_cell()
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 6))):
        lines += [""] * draw(st.integers(0, 2))
        row = [draw(float_cell()) for _ in header]
        row += draw(st.lists(words, max_size=2))  # ragged extra columns
        bad = draw(st.sampled_from([None] * 8 + ["short", "blank"]))
        if bad == "short" and len(header) > 1:
            row = row[:draw(st.integers(1, len(header) - 1))]
        lines.append(" " if bad == "blank" else ",".join(row))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


class TestReadIncrementCsv:
    @given(text=increment_files())
    @example(text='increment,t_i\r\n\r\n"-0.0",5e-324\r\nnan,-inf\n')
    @example(text="t_i,increment\n0.5\n")
    @example(text="increment\n0.25\n \n")
    @settings(max_examples=300, deadline=None)
    def test_bits_match_csv_reader_and_float(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "inc.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            try:
                want = reference_read(path)
            except (IndexError, ValueError):
                with pytest.raises(ConfigError, match="non-numeric row"):
                    _read_increment_csv(path)
                return
            got = _read_increment_csv(path)
        assert (got[1] is None) == (want[1] is None)
        for g, w in zip(got, want):
            if w is not None:
                assert g.dtype == np.float64 and g.shape == w.shape
                assert g.tobytes() == w.tobytes()


class TestBoundsCommand:
    def test_table_has_n_plus_one_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 8})
        assert main(["bounds", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == ("i,lambda_i,sigma_i,m_i,per_increment_bound,"
                            "formula_name")
        assert len(lines) == 1 + 8 + 1
        assert lines[-1].startswith("aggregate,")
        assert lines[1].endswith("fractional_part_filter")

    def test_kernel_auto_picks_by_jump_law(self, tmp_path, capsys):
        cont = write_config(tmp_path, {"jump_law": {"kind": "gaussian",
                                                    "mean": 7.5, "sd": 0.5},
                                       "epsilon_n": 0.2},
                            name="cont.json")
        assert main(["bounds", "--config", cont]) == 0
        out = capsys.readouterr().out
        assert "truncate_resample_filter" in out

    def test_bernoulli_kernel_reports_two_lambda_squared(self, tmp_path,
                                                         capsys):
        cfg = write_config(tmp_path, {"n": 4})
        assert main(["bounds", "--config", cfg, "--kernel",
                     "bernoulli"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        lam = float(lines[1].split(",")[1])
        per = float(lines[1].split(",")[4])
        assert per == pytest.approx(2.0 * lam * lam, rel=1e-12)

    def test_warning_goes_to_stderr_not_csv(self, tmp_path, capsys):
        # sigma = 1 makes the wrap bound vacuous, which warns
        cfg = write_config(tmp_path, {"epsilon_n": 1.0, "n": 2})
        assert main(["bounds", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "warning" not in captured.out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_bernoulli_terms_warn_once_without_numpy_noise(
            self, tmp_path, capsys):
        # 2 lam^2 overflows for lam = 2.5e159: the rows are inf and vacuous
        cfg = write_config(tmp_path, {"intensity": {"kind": "constant",
                                                    "value": 1e160},
                                      "n": 4})
        assert main(["bounds", "--config", cfg, "--kernel", "bernoulli"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("warning: 4 increment(s) have a "
                                "per-increment term >= 1 (first at index 0); "
                                "the bound is vacuous there\n")
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [r["per_increment_bound"] for r in rows] == ["inf"] * 5

    def test_vacuous_truncate_rows_warn_once(self, tmp_path, capsys):
        # epsilon_n = 1 puts both terms of the truncate bound above 1; the
        # CSV is the one written before the bound warned about such rows
        cfg = write_config(tmp_path, {"jump_law": {"kind": "gaussian",
                                                   "mean": 2.0, "sd": 0.5},
                                      "epsilon_n": 1.0, "n": 2})
        assert main(["bounds", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "i,lambda_i,sigma_i,m_i,per_increment_bound,formula_name\n"
            "1,0.5,0.7071067811865476,0.13183098861837908,1.4366006106056426,"
            "truncate_resample_filter\n"
            "2,0.5,0.7071067811865476,0.06816901138162093,1.417294140079632,"
            "truncate_resample_filter\n"
            "aggregate,,,,2.3890980518535754,truncate_resample_filter\n")
        assert captured.err == ("warning: 2 increment(s) have a "
                                "per-increment term >= 1 (first at index 0); "
                                "the bound is vacuous there\n")

    def test_tiny_linear_slope_has_a_noise_variance(self, tmp_path,
                                                      capsys):
        # sigma = 1 + 2.28e-197 t once gave a vanishing variance (exit 2)
        cfg = write_config(tmp_path, {"sigma": {
            "kind": "linear", "intercept": 1.0, "slope": 2.28e-197}})
        assert main(["bounds", "--config", cfg]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert {r["sigma_i"] for r in rows[:-1]} == {repr(0.05 / 4.0)}

    @pytest.mark.parametrize("law, kernel", [
        ({"kind": "dirac", "location": 0.5}, "auto"),
        ({"kind": "dirac", "location": 0.5}, "round"),
        ({"kind": "uniform", "low": 1.0, "high": 2.0}, "round"),
    ])
    def test_kernel_that_cannot_erase_the_law_is_config_error(
            self, tmp_path, capsys, law, kernel):
        # a Dirac jump at 0.5 (lam_i = 0.25) once got a fractional-part
        # "bound" of 2.1e-8 per increment and exit 0, where the oracle TV
        # of the folded laws is 0.197 per increment; the law picks the
        # filter kernel, so naming one is a usage error
        cfg = write_config(tmp_path, {"jump_law": law, "n": 4})
        assert main(["bounds", "--config", cfg, "--kernel", kernel]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1
        assert ("--kernel" in captured.err) == (kernel != "auto")

    def test_bernoulli_kernel_takes_any_law(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"jump_law": {"kind": "dirac",
                                                   "location": 0.5},
                                      "n": 4})
        assert main(["bounds", "--config", cfg, "--kernel",
                     "bernoulli"]) == 0
        assert capsys.readouterr().out.count("\n") == 6

    def test_truncate_on_lattice_law_is_config_error(self, tmp_path,
                                                     capsys):
        # --kernel takes only auto and bernoulli, for any law
        cfg = write_config(tmp_path)
        assert main(["bounds", "--config", cfg, "--kernel",
                     "truncate"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: argument --kernel: "
                                       "invalid choice: 'truncate'")

    def test_drift_cap_violation_is_config_error(self, tmp_path, capsys):
        # |m_i| = 0.5 on the single interval exceeds L = 1/3: an input the
        # bound does not cover, not a failed computation
        cfg = write_config(tmp_path, {
            "drift": {"kind": "constant", "value": 0.5},
            "jump_law": {"kind": "uniform", "low": -1.0, "high": 1.0},
            "n": 1})
        assert main(["bounds", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: |m_0| = 0.5 exceeds the drift "
                                "cap L=0.333333\n")


class TestConvergenceCommand:
    def test_header_and_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"intensity": {"kind": "constant",
                                                    "value": 0.5}})
        argv = ["convergence", "--config", cfg, "--n-list", "4,8,16"]
        assert main(argv) == 0
        a = capsys.readouterr().out
        assert main(argv) == 0
        b = capsys.readouterr().out
        assert a == b
        lines = a.strip().split("\n")
        assert lines[0] == ("n,delta_n,aggregate_bound,oracle_product_bound,"
                            "rate_prediction")
        assert len(lines) == 4
        assert [int(line.split(",")[0]) for line in lines[1:]] == [4, 8, 16]

    def test_bad_n_list_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["convergence", "--config", cfg, "--n-list",
                     "4,apple"]) == 1
        assert "--n-list" in capsys.readouterr().err

    def test_unordered_n_list_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["convergence", "--config", cfg, "--n-list",
                     "16,8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: grid sizes must be non-empty "
                                "and strictly increasing (got [16, 8])\n")


class TestJumpLawNoKernelErases:
    """A Dirac jump at 0.5 is neither on the integer lattice nor a
    density: no kernel erases it, so a sweep or a transfer over it is a
    config error."""

    @pytest.mark.parametrize("argv", [
        ["convergence", "--n-list", "4,8"],
        ["risk-transfer", "--n-list", "8", "--reps", "2"],
    ])
    def test_exits_one_without_output(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, {"jump_law": {"kind": "dirac",
                                                   "location": 0.5}})
        assert main(argv + ["--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "integer-lattice" in captured.err

    def test_risk_transfer_on_a_density_is_config_error(self, tmp_path,
                                                        capsys):
        cfg = write_config(tmp_path, {"jump_law": {"kind": "uniform",
                                                   "low": 1.0,
                                                   "high": 2.0}})
        assert main(["risk-transfer", "--config", cfg, "--n-list", "8",
                     "--reps", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "integer-lattice" in captured.err


class TestRiskTransferCommand:
    def test_csv_shape(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["risk-transfer", "--config", cfg, "--n-list", "8,16",
                     "--reps", "3", "--seed", "9"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == ("n,mise_direct_gaussian,mise_transferred,"
                            "mise_naive_on_jumps,replications")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "8"
        assert lines[1].split(",")[-1] == "3"

    def test_deterministic_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        argv = ["risk-transfer", "--config", cfg, "--n-list", "8",
                "--reps", "4", "--seed", "2"]
        assert main(argv) == 0
        a = capsys.readouterr().out
        assert main(argv) == 0
        assert a == capsys.readouterr().out


#: one argv per subcommand that takes ``--seed``
SEEDED_ARGV = {
    "simulate": lambda cfg, inc: ["simulate", "--config", cfg],
    "filter": lambda cfg, inc: ["filter", inc, "--kernel", "truncate",
                                "--config", cfg],
    "risk-transfer": lambda cfg, inc: ["risk-transfer", "--config", cfg,
                                       "--n-list", "8", "--reps", "2"],
}
#: one argv per subcommand that draws nothing, so takes no ``--seed``
SEEDLESS_ARGV = {
    "bounds": lambda cfg, inc: ["bounds", "--config", cfg],
    "convergence": lambda cfg, inc: ["convergence", "--config", cfg,
                                     "--n-list", "4,8"],
    "validate": lambda cfg, inc: ["validate", "--config", cfg],
}


class TestSeedRange:
    """Seeds are 64-bit unsigned; the stream refuses a seed outside
    [0, 2**64), which would otherwise wrap onto one inside it.  A
    subcommand without ``--seed`` refuses any seed as a usage error."""

    @pytest.mark.parametrize("seed", [str(1 << 64), "-1"])
    @pytest.mark.parametrize("command",
                             sorted(SEEDED_ARGV.keys() | SEEDLESS_ARGV))
    def test_out_of_range_seed_is_config_error(self, tmp_path, capsys,
                                               command, seed):
        inc = tmp_path / "inc.csv"
        inc.write_text("increment\n0.01\n3.0\n", encoding="utf-8")
        argv = {**SEEDED_ARGV, **SEEDLESS_ARGV}[command](
            write_config(tmp_path), str(inc))
        assert main(argv + ["--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if command in SEEDED_ARGV:
            assert "--seed must be in [0, 2**64)" in captured.err
        else:
            assert captured.err == ("config error: unrecognized arguments: "
                                    f"--seed {seed}\n")

    @pytest.mark.parametrize("inside, outside",
                             [("0", str(1 << 64)),
                              (str((1 << 64) - 1), "-1")])
    def test_aliasing_pairs_are_refused(self, tmp_path, capsys, inside,
                                        outside):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--seed", inside]) == 0
        assert capsys.readouterr().out.count("\n") == 17
        assert main(["simulate", "--config", cfg, "--seed", outside]) == 1
        assert capsys.readouterr().out == ""


class TestUsageErrors:
    """A usage error is a config error: exit 1, nothing on stdout and one
    stderr line naming the flag.  argparse on its own exits 2, the code
    that means a numerical failure."""

    CASES = [
        (["simulate", "--config", "{cfg}", "--seed", "x"], "--seed"),
        (["risk-transfer", "--config", "{cfg}", "--n-list", "8",
          "--reps", "x"], "--reps"),
        (["bounds", "--config", "{cfg}", "--kernel", "foo"], "--kernel"),
        (["bounds"], "--config"),
        ([], "subcommand"),
        (["filter", "--kernel", "round"], "input"),
        # flags that only subcommands reading them declare; TestSeedRange
        # covers --seed on every subcommand without it
        (["bounds", "--config", "{cfg}", "--seed", "4"], "--seed"),
        (["validate", "--config", "{cfg}", "--out", "f"], "--out"),
        (["risk-transfer", "--config", "{cfg}", "--n-list", "8",
          "--L", "0.5"], "--L"),
    ]

    @pytest.mark.parametrize("argv, flag", CASES, ids=[
        " ".join(a for a in argv if a not in ("--config", "{cfg}"))
        or "no subcommand" for argv, _ in CASES])
    def test_exits_one_naming_the_flag(self, tmp_path, capsys, argv, flag):
        cfg = write_config(tmp_path)
        assert main([part.format(cfg=cfg) for part in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: ") and flag in lines[0]

    @pytest.mark.parametrize("argv", [["-h"], ["bounds", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: lecamjd")


class TestArgumentErrors:
    """Values the user got wrong are config errors (exit 1), not
    numerical failures.  The library refuses each one and names the
    value; a case's id names the rule it breaks."""

    _UNORDERED = "grid sizes must be non-empty and strictly increasing"
    CASES = [
        ("--reps must be at least 1",
         ["risk-transfer", "--n-list", "8", "--reps", "0"],
         "need at least 1 replication (got 0)"),
        ("--reps must be at least 1",
         ["risk-transfer", "--n-list", "8", "--reps", "-3"],
         "need at least 1 replication (got -3)"),
        ("--n-list grid sizes must be positive",
         ["convergence", "--n-list", "0,4"],
         "a grid needs at least one interval (got n=0)"),
        ("--n-list grid sizes must be positive",
         ["risk-transfer", "--n-list", "0"],
         "a grid needs at least one interval (got n=0)"),
        ("--n-list grid sizes must be positive",
         ["convergence", "--n-list=-4,8"],
         "a grid needs at least one interval (got n=-4)"),
        # a repeated size used to give two different risk rows, exit 0
        ("--n-list grid sizes must be strictly increasing",
         ["convergence", "--n-list", "8,8"], _UNORDERED + " (got [8, 8])"),
        ("--n-list grid sizes must be strictly increasing",
         ["risk-transfer", "--n-list", "8,8", "--reps", "2"],
         _UNORDERED + " (got [8, 8])"),
        ("--n-list grid sizes must be strictly increasing",
         ["risk-transfer", "--n-list", "16,8", "--reps", "2"],
         _UNORDERED + " (got [16, 8])"),
        # numpy's "Maximum allowed size exceeded" used to name no flag
        ("--n-list grid sizes must be at most 2**24",
         ["convergence", "--n-list", f"4,{10 ** 23}"],
         "--n-list sizes must be at most 16777216"),
        ("--n-list grid sizes must be at most 2**24",
         ["risk-transfer", "--n-list", str(10 ** 23), "--reps", "2"],
         "--n-list sizes must be at most 16777216"),
    ]

    @pytest.mark.parametrize(
        "argv, message", [case[1:] for case in CASES],
        ids=[f"argv{i}-{case[0]}" for i, case in enumerate(CASES)])
    def test_exits_one_without_output(self, tmp_path, capsys, argv,
                                      message):
        assert main(argv + ["--config", write_config(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"


class TestExitCodeContract:
    """The class of the exception picks the exit code, wherever it was
    raised: a refused value (``ValueError``, ``ConfigError`` included)
    exits 1, a failed computation (``QuadratureError``,
    ``ArithmeticError``) exits 2; each on one stderr line, no stdout."""

    @pytest.mark.parametrize("cls, code", [
        (ValueError, 1), (ConfigError, 1), (lj.QuadratureError, 2),
        (FloatingPointError, 2), (OverflowError, 2), (ZeroDivisionError, 2),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_class_picks_the_code(self, tmp_path, capsys, monkeypatch, cls,
                                  code):
        def handler(args):
            raise cls("what went wrong")

        monkeypatch.setattr("lecamjd.cli._cmd_validate", handler)
        assert main(["validate", "--config", write_config(tmp_path)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = "config error" if code == 1 else "numerical failure"
        assert captured.err == f"{prefix}: what went wrong\n"

    @pytest.mark.parametrize("argv, drift", [
        (["bounds"], "0.0137115"),
        (["convergence", "--n-list", "4,8"], "0.0659155"),
    ])
    def test_drift_above_the_cap_is_config_error(self, tmp_path, capsys,
                                                 argv, drift):
        # an input the truncate bound does not cover, not a failed
        # computation
        cfg = write_config(tmp_path, {"jump_law": {"kind": "gaussian",
                                                   "mean": 0.5, "sd": 0.25}})
        assert main(argv + ["--config", cfg, "--L", "0.01"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: |m_0| = {drift} exceeds the "
                                "drift cap L=0.01\n")


NONFINITE_LAWS = {
    "dirac": {"kind": "dirac", "location": 1.0},
    "lattice": {"kind": "lattice", "values": [-1, 2], "probs": [0.5, 0.5]},
    "uniform": {"kind": "uniform", "low": -0.5, "high": 0.5},
    "gaussian": {"kind": "gaussian", "mean": 0.0, "sd": 0.5},
}
NONFINITE_COMMON = [("drift", "offset"), ("drift", "amplitude"),
                    ("drift", "angular_frequency"), ("sigma", "value"),
                    ("intensity", "value"), ("epsilon_n",), ("horizon",),
                    ("initial",), ("intensity_max",),
                    ("sigma_log_derivative_bound",)]
#: (jump law, key path) pairs that reach every number a config can hold
NONFINITE_CASES = (
    [(law, path) for law in NONFINITE_LAWS for path in NONFINITE_COMMON]
    + [("dirac", ("jump_law", "location")),
       ("lattice", ("jump_law", "values", 0)),
       ("lattice", ("jump_law", "probs", 1)),
       ("uniform", ("jump_law", "low")), ("uniform", ("jump_law", "high")),
       ("gaussian", ("jump_law", "mean")), ("gaussian", ("jump_law", "sd"))])


def config_with(case, value):
    """A full config with ``value`` at the key path of ``case``."""
    law, path = case
    data = copy.deepcopy(dict(BASE_CONFIG, jump_law=NONFINITE_LAWS[law],
                              initial=0.0, intensity_max=2.0,
                              sigma_log_derivative_bound=1.0))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


class TestNonFiniteConfigs:
    """NaN and infinities anywhere in a config are config errors."""

    @given(case=st.sampled_from(NONFINITE_CASES),
           value=st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=80, deadline=None)
    def test_any_non_finite_number_exits_one(self, case, value):
        data = config_with(case, value)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "config.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            with contextlib.redirect_stderr(err):
                code = main(["validate", "--config", cfg])
        assert code == 1
        assert err.getvalue().startswith("config error: ")

    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "1e400"],
                             ids=["integer", "exponent"])
    @pytest.mark.parametrize("case, key", [
        (("dirac", ("epsilon_n",)), "epsilon_n"),
        (("lattice", ("jump_law", "values", 1)), "jump_law.values[1]")])
    def test_number_past_the_float_range_exits_one(self, tmp_path, capsys,
                                                   case, key, literal):
        # an integer too large for a float is as infinite as 1e400
        text = json.dumps(config_with(case, "HUGE"))
        cfg = tmp_path / "config.json"
        cfg.write_text(text.replace('"HUGE"', literal), encoding="utf-8")
        assert main(["validate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {key} must be finite")

    def test_infinite_drift_writes_no_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"drift": {"kind": "constant",
                                                "value": math.inf}})
        assert main(["simulate", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "drift.value must be finite" in captured.err

    def test_model_spec_rejects_non_finite_scalars(self):
        base = parse_config(dict(BASE_CONFIG))[0]
        for key in ("initial", "intensity_max", "epsilon_n", "horizon"):
            with pytest.raises(ValueError, match=key):
                lj.ModelSpec(**dict(vars(base), **{key: math.nan}))


#: finite continuous jump laws with no finite density: an infinitely wide
#: support, a support that rounds to a point, or an overflowing peak;
#: each with the parameter its refusal names
EXTREME_CONTINUOUS_LAWS = [
    ({"kind": "gaussian", "mean": 0.0, "sd": 1e307}, "sd="),
    ({"kind": "gaussian", "mean": 0.0, "sd": 1e-320}, "sd = "),
    ({"kind": "gaussian", "mean": 7.5, "sd": 1e-320}, "sd="),
    ({"kind": "gaussian", "mean": 1e308, "sd": 1.0}, "mean="),
    ({"kind": "uniform", "low": -1e308, "high": 1e308}, "hi - lo"),
    ({"kind": "uniform", "low": 0.0, "high": 5e-324}, "hi - lo"),
]


class TestExtremeJumpLaws:
    """Finite jump parameters a law cannot hold are config errors: one
    stderr line, no numerical warnings, nothing on stdout."""

    @pytest.mark.parametrize("law, name", EXTREME_CONTINUOUS_LAWS)
    def test_continuous_law_exits_one(self, tmp_path, capsys, law, name):
        cfg = write_config(tmp_path, {"jump_law": law})
        assert main(["validate", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: jump_law: ")
        assert captured.err.count("\n") == 1 and name in captured.err

    @pytest.mark.parametrize("top", [1e12, 1e300])
    def test_lattice_too_wide_for_a_table_exits_one(self, tmp_path, capsys,
                                                    top):
        cfg = write_config(tmp_path, {"jump_law": {
            "kind": "lattice", "values": [0, top], "probs": [0.5, 0.5]}})
        assert main(["convergence", "--config", cfg, "--n-list", "4,8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: the sum of 1 lattice "
                                       "jumps spans ")
        assert captured.err.count("\n") == 1
        # the commands that build no k-fold table still run
        for command in ("simulate", "bounds"):
            assert main([command, "--config", cfg]) == 0
            assert capsys.readouterr().out.count("\n") > 16

    @pytest.mark.parametrize("values, k", [([1e308], 1), ([1e300], 1),
                                           ([2 ** 53], 2), ([-2 ** 52], 3)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lattice_sum_past_two_to_the_53_exits_one(self, tmp_path, capsys,
                                                      values, k):
        # past 2**53 a float does not hold every integer, and a jump sum
        # there swallows the drift (or overflowed the float conversion:
        # exit 2 at 1e308, an overflow warning at 1e300)
        probs = [1.0 / len(values)] * len(values)
        cfg = write_config(tmp_path, {"jump_law": {
            "kind": "lattice", "values": values, "probs": probs}})
        assert main(["convergence", "--config", cfg, "--n-list", "4,8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: the sum of {k} lattice jumps of size "
            f"{float(max(values, key=abs))!r} passes +/-2**53, past which a "
            "float does not hold every integer\n")
        for command in ("simulate", "bounds"):
            assert main([command, "--config", cfg]) == 0
            assert capsys.readouterr().out.count("\n") > 16

    @pytest.mark.parametrize("epsilon_n", [1e-14, 1e-153, 1e-154])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_noise_prints_no_numpy_warning(self, tmp_path, capsys,
                                                 epsilon_n):
        # components this narrow slip between the oracle's merged panel
        # edges, so it refuses them rather than print a 0.0 column; the
        # squared distance in phi's exponent, which overflows for points
        # some 1e154 sds from a component, warns on the way to neither
        cfg = write_config(tmp_path, {"epsilon_n": epsilon_n, "jump_law": {
            "kind": "lattice", "values": [-1, 2], "probs": [0.5, 0.5]}})
        assert main(["convergence", "--config", cfg, "--n-list", "4,8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: oracle row 0 ")
        assert "panel-edge tolerance" in captured.err
        assert captured.err.count("\n") == 1


#: finite configs whose summary integrals overflow: sigma2 = inf, and a
#: sine drift whose closed form computes inf * 0 = NaN
OVERFLOWING_CONFIGS = {
    "huge_sigma": {"sigma": {"kind": "constant", "value": 1e200}},
    "nan_drift_integral": {"drift": {"kind": "sine", "offset": 1e200,
                                     "amplitude": 1e200,
                                     "angular_frequency": 1e-300}},
    "huge_linear_sigma": {"sigma": {"kind": "linear", "intercept": 1e200,
                                    "slope": 1.0}},
}


class TestNonFiniteSummaries:
    """Finite configs with non-finite summaries exit 2, never a CSV."""

    @pytest.mark.parametrize("name", sorted(OVERFLOWING_CONFIGS))
    @pytest.mark.parametrize("command", ["bounds", "simulate", "filter"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exits_two_without_output(self, tmp_path, capsys, command,
                                      name):
        cfg = write_config(tmp_path, OVERFLOWING_CONFIGS[name])
        inc = tmp_path / "inc.csv"
        inc.write_text("increment\n0.01\n3.0\n", encoding="utf-8")
        argv = {"bounds": ["bounds", "--config", cfg],
                "simulate": ["simulate", "--config", cfg],
                "filter": ["filter", str(inc), "--kernel", "truncate",
                           "--config", cfg]}[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: non-finite")
        assert "on [0, " in captured.err  # names the first interval
        assert captured.err.count("\n") == 1  # and nothing else

    @given(case=st.sampled_from(NONFINITE_CASES),
           sign=st.sampled_from([1.0, -1.0]),
           exponent=st.floats(-300.0, 300.0),
           n=st.integers(1, 8),
           kernel=st.sampled_from(["auto", "bernoulli"]))
    @example(case=("dirac", ("sigma", "value")), sign=1.0, exponent=200.0,
             n=8, kernel="auto")
    @example(case=("uniform", ("sigma", "value")), sign=1.0,
             exponent=250.0, n=1, kernel="bernoulli")
    @settings(max_examples=80, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bounds_rows_are_finite_or_absent(self, case, sign, exponent,
                                              n, kernel):
        # any finite number at any magnitude: either an error with nothing
        # on stdout, or a table whose summary columns are all finite
        data = dict(config_with(case, sign * 10.0 ** exponent), n=n)
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "config.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["bounds", "--config", cfg, "--kernel", kernel])
        if code != 0:
            assert out.getvalue() == ""
            return
        rows = list(csv.DictReader(io.StringIO(out.getvalue())))[:-1]
        assert len(rows) == n
        for column in ("lambda_i", "sigma_i", "m_i"):
            assert all(math.isfinite(float(row[column])) for row in rows)


class TestNonFiniteKernelOptions:
    """A drift cap or radius exponent the truncate kernel cannot take is
    a config error, never a CSV."""

    @staticmethod
    def run(tmp_path, command, option, value):
        cfg = write_config(tmp_path, {"jump_law": {"kind": "gaussian",
                                                   "mean": 2.0, "sd": 0.5},
                                      "epsilon_n": 0.2, "n": 4})
        inc = tmp_path / "inc.csv"
        inc.write_text("increment\n0.01\n3.0\n-0.02\n-4.0\n",
                       encoding="utf-8")
        argv = {"filter": ["filter", str(inc), "--kernel", "truncate",
                           "--config", cfg],
                "bounds": ["bounds", "--config", cfg],
                "convergence": ["convergence", "--config", cfg,
                                "--n-list", "4,8"]}[command]
        return main(argv + [option, value])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["filter", "bounds", "convergence"])
    def test_non_finite_L_exits_nonzero_without_output(self, tmp_path,
                                                       capsys, command,
                                                       value):
        assert self.run(tmp_path, command, "--L", value) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "L must be finite" in captured.err

    @pytest.mark.parametrize("command", ["bounds", "convergence"])
    def test_zero_L_is_config_error_for_the_bound(self, tmp_path, capsys,
                                                  command):
        assert self.run(tmp_path, command, "--L", "0") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: L must be positive (got 0.0)\n"

    def test_zero_L_filters(self, tmp_path, capsys):
        # L = 0 leaves a radius of sigma^(1 - epsilon): the filter runs
        assert self.run(tmp_path, "filter", "--L", "0") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t_i,filtered_increment" and len(lines) == 5

    @pytest.mark.parametrize("value", ["0", "1", "nan"])
    @pytest.mark.parametrize("command", ["filter", "bounds", "convergence"])
    def test_epsilon_outside_zero_one_is_config_error(self, tmp_path,
                                                      capsys, command,
                                                      value):
        assert self.run(tmp_path, command, "--epsilon", value) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: epsilon must lie in "
                                "(0, 1)\n")


class TestValidateCommand:
    def test_valid_config_is_silent(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"epsilon_n": -1.0})
        assert main(["validate", "--config", cfg]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", [0.5, 0])
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_intensity_max_below_the_intensity_is_config_error(
            self, tmp_path, capsys, command, cap):
        # thinning below the rate would write paths that lose jumps
        cfg = write_config(tmp_path, {
            "intensity": {"kind": "constant", "value": 30.0},
            "intensity_max": cap, "n": 8})
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: intensity_max {cap:g} is "
                                "below the intensity's peak 30 on "
                                "[0, horizon]\n")


#: runs ``main`` on each argv of a JSON list with every ``scipy`` import
#: failing, and prints the exit codes and any scipy module that got loaded
WITHOUT_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} is blocked")

sys.meta_path.insert(0, NoScipy())
from lecamjd.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules
                               if m.split(".")[0] == "scipy")]))
"""


class TestWithoutScipy:
    def test_every_subcommand_runs_with_scipy_imports_blocked(
            self, tmp_path, run_python):
        # uniform jumps take the truncate bound, and convergence evaluates
        # the smoothed box of their one-jump law through lecamjd._gauss;
        # risk transfer needs integer jumps, so it and one bounds run use
        # the Dirac law
        uni = write_config(tmp_path, {"jump_law": {"kind": "uniform",
                                                   "low": 1.0, "high": 2.0},
                                      "epsilon_n": 0.2, "n": 8},
                           name="uniform.json")
        dirac = write_config(tmp_path, name="dirac.json")
        inc = tmp_path / "inc.csv"
        inc.write_text("increment\n0.01\n3.0\n-0.02\n-4.0\n0.5\n0.1\n"
                       "-0.3\n2.2\n", encoding="utf-8")
        argvs = [["validate", "--config", uni],
                 ["simulate", "--config", uni, "--seed", "3"],
                 ["filter", str(inc)],
                 ["filter", str(inc), "--kernel", "truncate", "--config",
                  uni],
                 ["bounds", "--config", uni],
                 ["bounds", "--config", dirac],
                 ["convergence", "--config", uni, "--n-list", "4,8"],
                 ["risk-transfer", "--config", dirac, "--n-list", "8",
                  "--reps", "2"]]
        proc = run_python("-c", WITHOUT_SCIPY, json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        last = proc.stdout.strip().split("\n")[-1]
        assert json.loads(last) == [[0] * len(argvs), []]


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "lecamjd", "validate", "--config", cfg],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == ""
