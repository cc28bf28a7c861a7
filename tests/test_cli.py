"""Config parsing, experiment runners, CSV output, exit codes."""

import dataclasses
import functools
import json
import math
import pathlib
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import zenosim
from oracles import measured_exponential, two_level_inhibition_time
from zenosim import cli
from zenosim.cli import (
    load_config,
    main,
    parse_config,
    run_decay_sweep,
    run_spectrum,
    run_twolevel,
)
from zenosim.errors import NumericalConvergenceError, ParseError, ValidationError
from zenosim.superop import load_channel


CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
_MAX = sys.float_info.max

FIG1_CONFIG = {
    "experiment": "twolevel",
    "hbar": 1.0,
    "system": {"V": {"omega": 2.0, "v_re": 1.0, "v_im": 0.0}},
    "detector": {"sigma": 1.0, "lambda": 50.0, "tau": 0.1},
    "n_measurements": 400,
    "output_path": "fig1.csv",
}


DUMP_CONFIG = {
    "experiment": "channel_dump",
    "system": {"V": {"omega": 2.0, "v_re": 1.0}},
    "detector": {"sigma": 1.0, "lambda": 50.0, "tau": 0.1},
}


def read_csv(path):
    comments, rows, columns = [], [], None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return columns, np.array(rows), comments


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestParseConfig:
    def test_fig1_accepted(self):
        cfg = parse_config(json.dumps(FIG1_CONFIG))
        assert cfg.experiment == "twolevel"
        assert cfg.values["detector.lambda"] == 50.0
        assert cfg.values["n_measurements"] == 400

    def test_zero_tau_rejected(self):
        bad = json.loads(json.dumps(FIG1_CONFIG))
        bad["detector"]["tau"] = 0.0
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(bad))
        assert any("tau" in v for v in err.value.violations)

    def test_unknown_key_named(self):
        bad = json.loads(json.dumps(FIG1_CONFIG))
        bad["detecter"] = {"sigma": 1.0}
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(bad))
        assert any("detecter" in v for v in err.value.violations)

    def test_violations_aggregated(self):
        bad = json.loads(json.dumps(FIG1_CONFIG))
        bad["detector"]["tau"] = -1.0
        bad["system"]["V"]["omega"] = -2.0
        bad["unknown_block"] = 1
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(bad))
        assert len(err.value.violations) >= 3

    def test_parse_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_config("{ not json }")
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("experiment, key", [
        ("twolevel", "t0"), ("channel_dump", "n_measurements"),
        ("decay_sweep", "n_measurements"), ("spectrum", "t0"), ("spectrum", "n_measurements")])
    def test_unused_top_level_key_rejected(self, experiment, key):
        cfg = {"twolevel": FIG1_CONFIG, "channel_dump": DUMP_CONFIG,
               "decay_sweep": decay_config(), "spectrum": spectrum_config()}[experiment]
        cfg = dict(cfg, **{key: 0.5})
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(cfg))
        assert f"'{key}' is not used by experiment '{experiment}'" in err.value.violations
        # the value is still checked
        assert any(f"'{key}' must be" in v for v in err.value.violations) == (key != "t0")

    def test_null_optional_keys_take_their_defaults(self):
        cfg = json.loads(json.dumps(DUMP_CONFIG))
        cfg.update(hbar=None, t0=None, output_path=None)
        cfg["system"]["V"]["v_im"] = None
        parsed = parse_config(json.dumps(cfg))
        values = parsed.values
        assert (values["hbar"], values.get("t0", 0.0), values.get("output_path")) == \
            (1.0, 0.0, None)
        assert {k: v for k, v in values.items() if k.startswith("system.")} == \
            {"system.V.omega": 2.0, "system.V.v_re": 1.0}
        assert parsed.raw == cfg  # the echo keeps the config as given

    def test_null_experiment_rejected(self):
        # null means absent only for optional keys
        cfg = {"experiment": None, "detector": FIG1_CONFIG["detector"]}
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(cfg))
        assert any(v.startswith("'experiment' must be one of") for v in err.value.violations)


class TestTwoLevelRunner:
    def test_free_limit_matches_rabi(self, tmp_path):
        cfg_dict = json.loads(json.dumps(FIG1_CONFIG))
        cfg_dict["detector"]["lambda"] = 0.0
        cfg_dict["n_measurements"] = 50
        cfg = parse_config(json.dumps(cfg_dict))
        out = str(tmp_path / "free.csv")
        run_twolevel(cfg, out)
        columns, rows, _ = read_csv(out)
        rho11 = rows[:, columns.index("rho11")]
        free = rows[:, columns.index("rho11_free")]
        np.testing.assert_allclose(rho11, free, atol=1e-8)
        # t_inh = 0: the rate equation is at equal occupation right after t = 0
        approx = rows[:, columns.index("rho11_approx")]
        assert approx[0] == 1.0 and np.all(approx[1:] == 0.5)

    def test_fig1_reaches_equal_occupation(self, tmp_path):
        cfg_dict = json.loads(json.dumps(FIG1_CONFIG))
        del cfg_dict["n_measurements"]  # default: ceil(10 t_inh / tau)
        cfg = parse_config(json.dumps(cfg_dict))
        out = str(tmp_path / "fig1.csv")
        run_twolevel(cfg, out)
        columns, rows, comments = read_csv(out)
        assert rows.shape[0] == 3991  # t = 0 plus N rows
        assert abs(rows[-1, columns.index("rho11")] - 0.5) < 0.02
        approx = rows[:, columns.index("rho11_approx")]
        t_inh = 39.894228040143275
        mask = rows[:, 0] <= t_inh
        assert np.abs(rows[mask, columns.index("rho11")] - approx[mask]).max() < 0.05
        assert any("certified_trace_err" in c for c in comments)

    def test_fig3_crossing_order(self, tmp_path):
        crossings = {}
        for lam, tau in ((50.0, 0.1), (5.0, 0.2)):
            cfg_dict = json.loads(json.dumps(FIG1_CONFIG))
            cfg_dict["detector"]["lambda"] = lam
            cfg_dict["detector"]["tau"] = tau
            cfg_dict["n_measurements"] = int(round(30.0 / tau))
            cfg = parse_config(json.dumps(cfg_dict))
            out = str(tmp_path / f"fig3_{int(lam)}.csv")
            run_twolevel(cfg, out)
            columns, rows, _ = read_csv(out)
            below = rows[rows[:, columns.index("rho11")] < 0.75]
            crossings[lam] = below[0, 0]
        assert crossings[50.0] > crossings[5.0]

    def test_strong_measurement_reaches_inhibition_time(self, tmp_path):
        # lambda = 1500 puts the phase scale lambda tau omega / sigma at 300, where the
        # sized rule needs 887 nodes; t_inh = 1197 is 11969 measurements
        import pathlib
        cfg = json.loads((pathlib.Path(__file__).resolve().parent.parent / "configs"
                          / "fig1_twolevel.json").read_text())
        cfg["detector"]["lambda"] = 1500.0
        preset = zenosim.TwoLevelPreset(omega=2.0, v=1.0)
        det = zenosim.gaussian_detector(1.0, 1500.0, 0.1)
        t_inh = two_level_inhibition_time(preset, det)
        cfg["n_measurements"] = math.ceil(t_inh / 0.1)
        out = str(tmp_path / "strong.csv")
        assert main(["twolevel", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
        columns, rows, _ = read_csv(out)
        assert rows[-1, 0] >= t_inh
        approx = measured_exponential(preset, det, rows[:, 0])[0]
        assert np.abs(rows[:, columns.index("rho11")] - approx).max() < 0.05
        assert json.load(open(out + ".meta.json"))["certified"]["nodes"] == 887

    def test_deterministic_output(self, tmp_path):
        cfg_dict = json.loads(json.dumps(FIG1_CONFIG))
        cfg_dict["n_measurements"] = 25
        cfg = parse_config(json.dumps(cfg_dict))
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_twolevel(cfg, out1)
        run_twolevel(cfg, out2)
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_sidecar_written(self, tmp_path):
        cfg_dict = json.loads(json.dumps(FIG1_CONFIG))
        cfg_dict["n_measurements"] = 5
        cfg = parse_config(json.dumps(cfg_dict))
        out = str(tmp_path / "run.csv")
        run_twolevel(cfg, out)
        meta = json.load(open(out + ".meta.json"))
        assert meta["config"]["detector"]["lambda"] == 50.0
        assert meta["certified"]["trace_err"] < 1e-8
        assert meta["certified"]["quad_bound"] <= 1e-8 and meta["certified"]["nodes"] > 0
        assert meta["versions"] == {"numpy": np.__version__, "zenosim": zenosim.__version__}


def decay_config(**overrides):
    cfg = {
        "experiment": "decay_sweep",
        "hbar": 1.0,
        "detector": {"sigma": 1.0, "tau": 2.0},
        "transition": {"omega_if": 1.0},
        "reservoir": {"kind": "lorentzian", "B": 1e-4, "omega_R": 51.0, "gamma": 10.0},
        "sweep": {"Lambda_min": 2.0, "Lambda_max": 200.0, "points": 7},
    }
    cfg.update(overrides)
    return cfg


class TestDecaySweepRunner:
    def test_flat_reservoir_constant(self, tmp_path):
        cfg = parse_config(json.dumps(decay_config(
            reservoir={"kind": "flat", "g0": 0.001},
            detector={"sigma": 1.0, "tau": 0.5},
            transition={"omega_if": 2.0},
            sweep={"Lambda_min": 5.0, "Lambda_max": 50.0, "points": 4})))
        out = str(tmp_path / "flat.csv")
        run_decay_sweep(cfg, out)
        columns, rows, _ = read_csv(out)
        r = rows[:, columns.index("R")]
        rg = rows[:, columns.index("R_golden")]
        np.testing.assert_allclose(r, rg, rtol=1e-4)

    def test_detuned_reservoir_interior_maximum(self, tmp_path):
        cfg = parse_config(json.dumps(decay_config()))
        out = str(tmp_path / "anti.csv")
        run_decay_sweep(cfg, out)
        columns, rows, _ = read_csv(out)
        r = rows[:, columns.index("R")]
        k = int(np.argmax(r))
        assert 0 < k < len(r) - 1
        assert r[k] > 1.5 * rows[0, columns.index("R_golden")]

    def test_sidecar_reports_reached_error(self, tmp_path):
        cfg = parse_config(json.dumps(decay_config()))
        out = str(tmp_path / "anti.csv")
        run_decay_sweep(cfg, out)
        certified = json.load(open(out + ".meta.json"))["certified"]
        reached = certified["rel_err_reached"]
        # one entry per Lambda point, each within the tolerance asked for
        assert len(reached) == cfg.values["sweep.points"]
        assert all(0.0 <= err <= certified["rel_tol"] for err in reached)

    def test_failed_point_keeps_its_ladder(self, tmp_path):
        cfg = parse_config(json.dumps(decay_config()))
        ladder = [(2, 0.5), (4, 0.25), (8, 0.125)]
        failure = NumericalConvergenceError("decay rate still moving", ladder)
        with mock.patch.object(cli._decay, "_rate_and_ladder", side_effect=failure), \
                pytest.raises(NumericalConvergenceError, match="^Lambda = ") as info:
            run_decay_sweep(cfg, str(tmp_path / "anti.csv"))
        assert info.value.ladder == ladder

    def test_zeno_limit_ratio(self, tmp_path):
        cfg = parse_config(json.dumps(decay_config(
            reservoir={"kind": "gaussian_peak", "B": 1e-3, "omega_R": 2.0, "w": 0.4},
            detector={"sigma": 1.0, "tau": 1.0},
            transition={"omega_if": 2.0},
            sweep={"Lambda_min": 60.0, "Lambda_max": 240.0, "points": 3})))
        out = str(tmp_path / "zeno.csv")
        run_decay_sweep(cfg, out)
        columns, rows, _ = read_csv(out)
        ratio = rows[:, columns.index("R")] / rows[:, columns.index("R_zeno_limit")]
        np.testing.assert_allclose(ratio, 1.0, atol=0.05)
        assert np.all(np.diff(rows[:, columns.index("R")]) < 0)


def spectrum_config(**overrides):
    cfg = {
        "experiment": "spectrum",
        "hbar": 1.0,
        "detector": {"sigma": 1.0, "lambda": 0.0, "tau": 0.25},
        "transition": {"omega_if": 2.0, "v2": 1.0},
        "reservoir": {"kind": "flat", "g0": 0.01},
        "grid": {"e_min": -400.0, "e_max": 404.0, "points": 20001},
    }
    cfg.update(overrides)
    return cfg


class TestSpectrumRunner:
    def test_weak_measurement_fourier_width(self, tmp_path):
        cfg = parse_config(json.dumps(spectrum_config()))
        out = str(tmp_path / "spec.csv")
        run_spectrum(cfg, out)
        columns, rows, comments = read_csv(out)
        footer = [c for c in comments if "fwhm:" in c]
        assert footer
        width = float(footer[0].split(":")[1])
        # triangular-window line: FWHM = 4 u / tau with sinc^2(u) = 1/2
        assert width == pytest.approx(5.566 / 0.25, rel=0.02)

    def test_strong_measurement_width(self, tmp_path):
        lam_big = 40.0
        lam = lam_big * math.sqrt(math.pi / 2.0)
        cfg = parse_config(json.dumps(spectrum_config(
            detector={"sigma": 1.0, "lambda": lam, "tau": 1.0},
            grid={"e_min": -1400.0, "e_max": 1404.0, "points": 30001})))
        out = str(tmp_path / "spec_strong.csv")
        run_spectrum(cfg, out)
        _, _, comments = read_csv(out)
        ratio_line = [c for c in comments if "fwhm_over_Lambda_hbar_omega" in c][0]
        ratio = float(ratio_line.split(":")[1])
        # width is proportional to Lambda hbar omega_if; constant ~ 3
        assert 2.0 < ratio < 4.0

    def test_subnormal_coupling_keeps_a_finite_total(self, tmp_path):
        # G / (hbar v2) overflowed for a subnormal v2, and the footer read nan;
        # a RuntimeWarning fails the test (pyproject filterwarnings)
        totals = []
        for v2 in (1.0, 1e-320):
            path = write_config(tmp_path, spectrum_config(
                detector={"sigma": 1.0, "lambda": 50.0, "tau": 1.0},
                transition={"omega_if": 2.0, "v2": v2},
                grid={"e_min": -1400.0, "e_max": 1404.0, "points": 30001}))
            out = str(tmp_path / "spec.csv")
            assert main(["spectrum", "--config", path, "--out", out]) == 0
            line = [c for c in read_csv(out)[2] if "integrated_jump_probability" in c][0]
            totals.append(float(line.split(":")[1]))
        assert math.isfinite(totals[1])
        assert totals[1] == pytest.approx(totals[0], rel=1e-2)


def _write_csv_per_value(path, header_lines, columns, rows, footer_lines=()):
    """The writer `cli._write_csv` replaced, one format call per value: its oracle."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(f"{float(x):.12g}" for x in row) + "\n")
        for line in footer_lines:
            fh.write(f"# {line}\n")


SPECIAL_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300,
                  -1e300, 1e-300, 0.1, 1.0 / 3.0, -2.5e-7, 123456789012345.0, 1e16, 7.0]


class TestWriteCsv:
    def _check(self, tmp_path, columns, rows, footer=()):
        header = ["zeno-sim test", "config: {}"]
        cli._write_csv(str(tmp_path / "new.csv"), header, columns, np.array(rows, dtype=float),
                       footer)
        _write_csv_per_value(str(tmp_path / "old.csv"), header, columns, rows, footer)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("ncols", [1, 2, 7])
    def test_special_values_match_per_value_writer(self, tmp_path, ncols):
        values = SPECIAL_VALUES * ncols
        rows = [values[i:i + ncols] for i in range(0, len(values) - ncols + 1, ncols)]
        self._check(tmp_path, [f"c{j}" for j in range(ncols)], rows,
                    footer=["fwhm: 1", "ratio: nan"])

    def test_empty_rows(self, tmp_path):
        self._check(tmp_path, ["E", "W"], np.empty((0, 2)), footer=["fwhm: 2"])

    def test_rows_spanning_several_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_BLOCK", 3)
        rows = np.random.default_rng(3).normal(size=(10, 2)) * 1e5
        self._check(tmp_path, ["E", "W"], rows)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                                  min_size=3, max_size=3), max_size=20))
    def test_any_floats_match_per_value_writer(self, tmp_path, rows):
        self._check(tmp_path, ["a", "b", "c"], rows)


# (command, config, path of the number) for every numeric config field
NON_FINITE_CASES = [
    ("twolevel", FIG1_CONFIG, ("hbar",)),
    ("twolevel", FIG1_CONFIG, ("t0",)),
    ("twolevel", FIG1_CONFIG, ("detector", "sigma")),
    ("twolevel", FIG1_CONFIG, ("detector", "lambda")),
    ("twolevel", FIG1_CONFIG, ("detector", "tau")),
    ("twolevel", FIG1_CONFIG, ("system", "V", "omega")),
    ("twolevel", FIG1_CONFIG, ("system", "V", "v_re")),
    ("twolevel", FIG1_CONFIG, ("system", "V", "v_im")),
    ("decay", decay_config(), ("reservoir", "B")),
    ("decay", decay_config(), ("reservoir", "omega_R")),
    ("decay", decay_config(), ("reservoir", "gamma")),
    ("decay", decay_config(reservoir={"kind": "gaussian_peak", "B": 1e-3,
                                      "omega_R": 2.0, "w": 0.4}), ("reservoir", "w")),
    ("decay", decay_config(), ("transition", "omega_if")),
    ("decay", decay_config(), ("sweep", "Lambda_min")),
    ("decay", decay_config(), ("sweep", "Lambda_max")),
    ("spectrum", spectrum_config(), ("reservoir", "g0")),
    ("spectrum", spectrum_config(), ("transition", "v2")),
    ("spectrum", spectrum_config(), ("grid", "e_min")),
    ("spectrum", spectrum_config(), ("grid", "e_max")),
]


class TestMainEntry:
    def test_twolevel_roundtrip(self, tmp_path, capsys):
        cfg = dict(FIG1_CONFIG, n_measurements=10)
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out.csv")
        assert main(["twolevel", "--config", path, "--out", out]) == 0
        assert read_csv(out)[1].shape[0] == 11

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(FIG1_CONFIG))
        cfg["detector"]["tau"] = -1.0
        path = write_config(tmp_path, cfg)
        assert main(["twolevel", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_command_experiment_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, FIG1_CONFIG)
        assert main(["decay", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_output_path(self, tmp_path):
        cfg = dict(FIG1_CONFIG)
        cfg.pop("output_path")
        cfg["n_measurements"] = 5
        path = write_config(tmp_path, cfg)
        assert main(["twolevel", "--config", path]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        cfg = spectrum_config(grid={"e_min": 1.9, "e_max": 2.1, "points": 64},
                              detector={"sigma": 1.0, "lambda": 50.0, "tau": 1.0})
        path = write_config(tmp_path, cfg)
        assert main(["spectrum", "--config", path, "--out", str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("command, cfg, where", NON_FINITE_CASES,
                             ids=[".".join(map(str, w)) for _, _, w in NON_FINITE_CASES])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, command, cfg, where, token):
        cfg = json.loads(json.dumps(cfg))
        block = cfg
        for key in where[:-1]:
            block = block[key]
        block[where[-1]] = "@"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg).replace('"@"', token))
        start = time.perf_counter()
        assert main([command, "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        # rejected while parsing, before any quadrature ladder runs
        assert time.perf_counter() - start < 5.0
        name = ".".join(k for k in where if isinstance(k, str))
        assert f"'{name}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [("twolevel", "fig1_twolevel"),
                                               ("twolevel", "fig3_weak"),
                                               ("dump-channel", "channel_fig1"),
                                               ("decay", "decay_sweep_anti_zeno"),
                                               ("spectrum", "spectrum_strong")])
    def test_reference_output_identical_across_runs(self, tmp_path, command, name):
        # multithreaded BLAS builds the channels; two runs must still agree byte
        # for byte in the CSV or ZSCH output and in the sidecar
        import pathlib
        config = pathlib.Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
        runs = []
        for run in ("first", "second"):
            out = tmp_path / f"{run}.out"
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
            runs.append((out.read_bytes(), (tmp_path / f"{run}.out.meta.json").read_bytes()))
        assert runs[0][0] and runs[0] == runs[1]

    def test_dump_channel(self, tmp_path):
        path = write_config(tmp_path, DUMP_CONFIG)
        out = str(tmp_path / "chan.bin")
        assert main(["dump-channel", "--config", path, "--out", out]) == 0
        tensor, info = load_channel(out)
        assert info["dim"] == 2 and info["method"] == "exact_quadrature"
        from zenosim.model import TwoLevelPreset, gaussian_detector
        from zenosim.superop import build_exact
        ch = build_exact(TwoLevelPreset(2.0, 1.0).to_system(),
                         gaussian_detector(1.0, 50.0, 0.1))
        assert np.abs(tensor - ch.tensor).max() < 1e-6

    @pytest.mark.parametrize("command, cfg", [("twolevel", FIG1_CONFIG),
                                              ("dump-channel", DUMP_CONFIG)],
                             ids=["twolevel", "dump-channel"])
    def test_nodes_key_rejected(self, tmp_path, capsys, command, cfg):
        # every channel comes from the rule sized from its phase scale: no pinned rule
        path = write_config(tmp_path, dict(cfg, nodes=256))
        assert main([command, "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown key 'nodes'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg", [("twolevel", FIG1_CONFIG),
                                              ("dump-channel", DUMP_CONFIG)],
                             ids=["twolevel", "dump-channel"])
    def test_levels_key_rejected(self, tmp_path, capsys, command, cfg):
        # the two levels follow from system.V.omega alone
        cfg = json.loads(json.dumps(cfg))
        cfg["system"]["levels"] = [-1.0, 1.0]
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown key 'system.levels'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg, block, key, value, message", [
        ("decay", decay_config, "reservoir", "kind", [1, 2], "'reservoir.kind' must be one of"),
        ("decay", decay_config, "reservoir", "kind", {}, "'reservoir.kind' must be one of"),
        ("decay", decay_config, "sweep", "points", None, "'sweep.points' must be an integer"),
        ("spectrum", spectrum_config, "grid", "points", None, "'grid.points' must be an integer"),
        # W = 0 everywhere has no width, which is no half-maximum failure
        ("spectrum", spectrum_config, "transition", "v2", 0.0, "'transition.v2' must be > 0"),
    ], ids=["kind-list", "kind-object", "sweep-points-null", "grid-points-null", "v2-zero"])
    def test_wrong_typed_values_exit_code(self, tmp_path, capsys, command, cfg, block, key,
                                          value, message):
        cfg = cfg()
        cfg[block] = dict(cfg[block], **{key: value})
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg, block", [("decay", decay_config, "sweep"),
                                                      ("spectrum", spectrum_config, "grid")])
    def test_point_cap_exit_code(self, tmp_path, capsys, monkeypatch, command, cfg, block):
        # rejected while parsing, before the grid is allocated or evaluated
        import zenosim.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("ran past the point cap")
        for name in ("_rate_and_ladder", "emitted_spectrum", "fwhm"):
            monkeypatch.setattr(cli._decay, name, refuse)
        monkeypatch.setattr(cli.np, "linspace", refuse)
        monkeypatch.setattr(cli.np, "geomspace", refuse)
        cfg = cfg()
        cfg[block] = dict(cfg[block], points=10 ** 12)
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        assert f"'{block}.points' must be at most {cli.MAX_MEASUREMENTS}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("v_re, n_measurements", [(1e-9, None), (1.0, 10 ** 12)],
                             ids=["derived-from-weak-v", "explicit"])
    def test_measurement_cap_exit_code(self, tmp_path, capsys, monkeypatch, v_re,
                                       n_measurements):
        # rejected before the channel is built or the trajectory allocated
        import zenosim.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("ran past the measurement cap")
        monkeypatch.setattr(cli, "build_exact", refuse)
        monkeypatch.setattr(cli, "repeat", refuse)
        cfg = json.loads(json.dumps(FIG1_CONFIG))
        cfg["system"]["V"]["v_re"] = v_re
        cfg["n_measurements"] = n_measurements
        path = write_config(tmp_path, cfg)
        assert main(["twolevel", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert f"exceed the cap of {cli.MAX_MEASUREMENTS}" in err and "t_inh = " in err

    @pytest.mark.parametrize("command, config, hbar", [
        ("twolevel", "fig3_weak", 1e-300), ("twolevel", "fig3_weak", 1e300),
        ("decay", "decay_sweep_anti_zeno", 1e-300), ("decay", "decay_sweep_anti_zeno", 1e300),
        ("spectrum", "spectrum_strong", 1e-300), ("spectrum", "spectrum_strong", 1e300)])
    def test_extreme_hbar_exit_code(self, tmp_path, capsys, command, config, hbar):
        # hbar² under- or overflows; a shipped config with only hbar replaced
        cfg = json.loads((CONFIG_DIR / f"{config}.json").read_text())
        cfg["hbar"] = hbar
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"'hbar' = {hbar!r} makes hbar² = " in err

    @pytest.mark.parametrize("command, cfg, name", [
        # the grid covers the line at hbar omega_if = 2e300, so no coverage
        # error comes first: hbar ** 2 used to raise OverflowError
        ("spectrum", dict(json.loads((CONFIG_DIR / "spectrum_strong.json").read_text()),
                          hbar=1e300, grid={"e_min": -1.2e303, "e_max": 1.2e303,
                                            "points": 3001}), "hbar²"),
        # the Rabi frequency squares |V|/hbar = 1e160
        ("twolevel", dict(FIG1_CONFIG, hbar=1e-160), "|V|²/hbar²"),
        ("dump-channel", dict(DUMP_CONFIG, hbar=1e-320), "|V|/hbar"),
        ("spectrum", spectrum_config(hbar=1e-150, grid={
            "e_min": -1e160, "e_max": 1.0, "points": 64}), "e_min/hbar"),
        # W overflowed to inf, and fwhm's ValueError left main
        ("spectrum", spectrum_config(transition={"omega_if": 2.0, "v2": 1.7976931348623157e308}),
         "2π·v2·tau²/hbar²"),
    ], ids=["spectrum-covering-grid", "twolevel-rabi", "dump-channel", "spectrum-grid-edge",
            "spectrum-coupling"])
    def test_hbar_scaled_quantity_out_of_range_exit_code(self, tmp_path, capsys,
                                                         command, cfg, name):
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        assert f"makes {name} = " in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg, key", [
        ("decay", decay_config(reservoir=dict(decay_config()["reservoir"], gamma=1e300)),
         "reservoir.gamma"),
        ("decay", decay_config(reservoir=dict(decay_config()["reservoir"], gamma=1e-300)),
         "reservoir.gamma"),
        ("decay", decay_config(detector={"sigma": 1e300, "tau": 2.0}), "detector.sigma"),
        ("decay", decay_config(detector={"sigma": 1e-300, "tau": 2.0}), "detector.sigma"),
        ("spectrum", spectrum_config(detector={"sigma": 1e300, "lambda": 0.0, "tau": 0.25}),
         "detector.sigma"),
        ("spectrum", spectrum_config(detector={"sigma": 1e-300, "lambda": 0.0, "tau": 0.25}),
         "detector.sigma"),
        ("spectrum", spectrum_config(reservoir={"kind": "gaussian_peak", "B": 1e-3,
                                                "omega_R": 2.0, "w": 1e300}), "reservoir.w")],
        ids=["gamma-inf", "gamma-0", "decay-sigma-inf", "decay-sigma-0", "spectrum-sigma-inf",
             "spectrum-sigma-0", "w-inf"])
    def test_width_square_out_of_range_exit_code(self, tmp_path, capsys, command, cfg, key):
        # F and G square sigma, gamma and w: 1e300 raised OverflowError out of
        # main, 1e-300 ended in exit 3 through a RuntimeWarning
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        block, name = key.split(".")
        assert f"'{key}' = {cfg[block][name]!r} makes {name}² = " in capsys.readouterr().err

    @pytest.mark.parametrize("block, key, value", [
        ("transition", "omega_if", 1e300), ("reservoir", "omega_R", 1e300),
        ("reservoir", "omega_R", -1e300)], ids=["omega_if", "omega_R", "omega_R-neg"])
    def test_far_detuned_golden_rule_is_zero(self, tmp_path, block, key, value):
        # G squares the detuning: under error::RuntimeWarning the overflow exited 1
        cfg = decay_config()
        cfg[block] = dict(cfg[block], **{key: value})
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "x.csv")
        assert main(["decay", "--config", path, "--out", out]) == 0
        columns, rows, _ = read_csv(out)
        np.testing.assert_array_equal(rows[:, columns.index("R_golden")], 0.0)
        if key == "omega_R":
            # G vanishes on the whole time grid: R is the rounding of a zero
            # integral, which came out as low as -7.8e-319
            rates = rows[:, columns.index("R")]
            assert np.all((rates >= 0.0) & (rates < 1e-300)), rates
            res = zenosim.ReservoirSpectrum.lorentzian(1e-4, value, 10.0)
            for lam_big in rows[:, columns.index("Lambda")]:
                det = zenosim.gaussian_detector(1.0, lam_big * math.sqrt(math.pi / 2.0), 2.0)
                assert 0.0 <= zenosim.decay_rate(res, 1.0, det, rel_tol=1e-4) < 1e-300

    @pytest.mark.parametrize("edge, value", [("e_min", -1e300), ("e_max", 1e300)])
    def test_grid_edge_beyond_the_line_phase_exit_code(self, tmp_path, capsys, edge, value):
        # the dense phase sums ran for about 9 s before the half-maximum check failed
        cfg = json.loads((CONFIG_DIR / "spectrum_strong.json").read_text())
        cfg["grid"][edge] = value
        path = write_config(tmp_path, cfg)
        start = time.perf_counter()
        assert main(["spectrum", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        assert time.perf_counter() - start < 5.0
        assert f"'grid.{edge}' = {value!r} makes the line phase" in capsys.readouterr().err

    @pytest.mark.parametrize("edge, sign", [("e_min", -1.0), ("e_max", 1.0)])
    def test_line_phase_bound(self, edge, sign):
        cfg = json.loads((CONFIG_DIR / "spectrum_strong.json").read_text())
        det = zenosim.gaussian_detector(1.0, 50.0, 1.0)
        t_cut = cli._decay._line_scales(2.0, det)[0]
        for factor, accepted in ((0.99, True), (1.01, False)):
            cfg["grid"][edge] = 2.0 + sign * factor * cli.MAX_LINE_PHASE / t_cut
            try:
                parse_config(json.dumps(cfg))
            except ValidationError as err:
                assert not accepted and len(err.violations) == 1, err.violations
            else:
                assert accepted

    def test_inhibition_time_overflow_runs(self, tmp_path, capsys):
        # |v|^2 underflows to 0 for v = 1e-200, and v = 0 couples nothing: t_inh is
        # infinite, so n_measurements is required, and the populations stay put
        for v_re in (1e-200, 0.0):
            cfg = json.loads(json.dumps(FIG1_CONFIG))
            cfg["system"]["V"]["v_re"] = v_re
            del cfg["n_measurements"]
            out = str(tmp_path / "x.csv")
            assert main(["twolevel", "--config", write_config(tmp_path, cfg), "--out", out]) == 2
            assert "'n_measurements' is required" in capsys.readouterr().err
            cfg["n_measurements"] = 3
            assert main(["twolevel", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
            columns, rows, _ = read_csv(out)
            np.testing.assert_array_equal(rows[:, columns.index("rho11_approx")], 1.0)

    @pytest.mark.parametrize("command, cfg, key, quantity", [
        ("decay", decay_config(sweep={"Lambda_min": 2.0, "Lambda_max": _MAX, "points": 7}),
         "sweep.Lambda_max", "lambda·|omega_if| = inf"),
        ("decay", decay_config(transition={"omega_if": _MAX},
                               reservoir={"kind": "flat", "g0": 0.01}),
         "sweep.Lambda_max", "lambda·|omega_if| = inf"),
        ("spectrum", spectrum_config(detector={"sigma": 1.0, "lambda": 50.0, "tau": 0.25},
                                     transition={"omega_if": _MAX, "v2": 1.0}),
         "detector.lambda", "lambda·|omega_if| = inf"),
        ("spectrum", spectrum_config(detector={"sigma": 1.0, "lambda": _MAX, "tau": 0.25}),
         "detector.lambda", "lambda·|omega_if| = inf"),
        ("decay", decay_config(reservoir={"kind": "lorentzian", "B": 1e-4, "omega_R": _MAX,
                                          "gamma": 10.0}),
         "reservoir.omega_R", "|omega_R - omega_if|·tau = inf"),
        ("decay", decay_config(reservoir={"kind": "lorentzian", "B": 1e-4, "omega_R": -_MAX,
                                          "gamma": 10.0}),
         "reservoir.omega_R", "|omega_R - omega_if|·tau = inf"),
        ("decay", decay_config(reservoir={"kind": "lorentzian", "B": _MAX, "omega_R": 51.0,
                                          "gamma": 10.0}),
         "reservoir.B", "hbar·B·2^18 = inf"),
        ("spectrum", spectrum_config(reservoir={"kind": "flat", "g0": _MAX}),
         "reservoir.g0", "2π·g0·tau/hbar² = inf")],
        ids=["Lambda_max", "decay-omega_if", "spectrum-omega_if", "spectrum-lambda", "omega_R",
             "omega_R-neg", "B", "g0"])
    def test_overflow_at_the_largest_float_exit_code(self, tmp_path, capsys, command, cfg, key,
                                                     quantity):
        # lambda |omega_if| = inf cut the line at t_cut = 0, whose time grid divided by
        # zero; the others overflowed a product or a sum under error::RuntimeWarning
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        assert f"'{key}' = " in (err := capsys.readouterr().err) and quantity in err, err

    def test_largest_lambda_max_of_a_narrow_detector_runs(self, tmp_path):
        # Lambda_max C |omega_if| is finite at sigma = 0.5: np.geomspace overflowed
        # on 10^log10(Lambda_max) before setting its end to Lambda_max
        cfg = decay_config(detector={"sigma": 0.5, "tau": 2.0},
                           sweep={"Lambda_min": 2.0, "Lambda_max": _MAX, "points": 7})
        out = str(tmp_path / "x.csv")
        assert main(["decay", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
        columns, rows, _ = read_csv(out)
        assert rows[-1, columns.index("Lambda")] == float(f"{_MAX:.12g}")

    def test_underflowing_spectrum_exit_code(self, tmp_path, capsys):
        # v2 = 5e-324 rounds W to 0 on the whole grid, where fwhm raised ValueError
        cfg = json.loads((CONFIG_DIR / "spectrum_strong.json").read_text())
        cfg["transition"]["v2"] = 5e-324
        path = write_config(tmp_path, cfg)
        assert main(["spectrum", "--config", path, "--out", str(tmp_path / "x.csv")]) == 3
        assert "W underflows to 0 on the whole grid" in capsys.readouterr().err

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(FIG1_CONFIG, n_measurements=5))
        out = str(tmp_path / "missing" / "x.csv")
        assert main(["twolevel", "--config", path, "--out", out]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--seedless"], ["--nodes", "64"]], ids=["seedless", "nodes"])
    @pytest.mark.parametrize("command", ["twolevel", "dump-channel"])
    def test_retired_flags_are_usage_errors(self, tmp_path, capsys, command, flag):
        path = write_config(tmp_path, dict(FIG1_CONFIG, n_measurements=5))
        with pytest.raises(SystemExit) as info:
            main([command, "--config", path, "--out", str(tmp_path / "out.csv"), *flag])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_load_config_from_file(self, tmp_path):
        path = write_config(tmp_path, FIG1_CONFIG)
        cfg = load_config(path)
        assert cfg.experiment == "twolevel"


SHIPPED = [("twolevel", "fig1_twolevel"), ("twolevel", "fig3_weak"),
           ("dump-channel", "channel_fig1"), ("decay", "decay_sweep_anti_zeno"),
           ("spectrum", "spectrum_strong")]


def _numeric_leaves(cfg, prefix=()):
    for key, val in cfg.items():
        if isinstance(val, dict):
            yield from _numeric_leaves(val, prefix + (key,))
        elif isinstance(val, (int, float)) and not isinstance(val, bool):
            yield prefix + (key,)


class TestMainFuzz:
    """Every numeric leaf of a shipped config set to 1e300, 1e-300, -1e300, the
    largest float, its negative and the smallest subnormal in turn: main
    returns 0, 2 or 3 and raises nothing, a RuntimeWarning included (pyproject
    filterwarnings), and a decay rate is never negative."""

    @pytest.mark.parametrize("command, name", SHIPPED, ids=[name for _, name in SHIPPED])
    def test_extreme_numbers_exit_cleanly(self, tmp_path, capsys, command, name):
        base = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        out = tmp_path / "x.out"
        for where in _numeric_leaves(base):
            for value in (1e300, 1e-300, -1e300, _MAX, -_MAX, 5e-324):
                cfg = json.loads(json.dumps(base))
                block = cfg
                for key in where[:-1]:
                    block = block[key]
                block[where[-1]] = value
                out.unlink(missing_ok=True)
                code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
                assert code in (0, 2, 3), (where, value)
                if command == "decay" and code == 0:
                    columns, rows, _ = read_csv(out)
                    assert np.all(rows[:, columns.index("R")] >= 0.0), (where, value)


class TestShippedConfigs:
    def test_reference_configs_parse(self):
        import pathlib
        cfg_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
        paths = sorted(cfg_dir.glob("*.json"))
        assert len(paths) >= 4
        for path in paths:
            cfg = load_config(str(path))
            assert cfg.experiment in ("twolevel", "decay_sweep",
                                      "spectrum", "channel_dump")




_SCALARS = (st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
            | st.floats() | st.text(max_size=4))
_JSON_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                         st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3))


def _reference_configs():
    import pathlib
    cfg_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    return ([(p.stem, json.loads(p.read_text())) for p in sorted(cfg_dir.glob("*.json"))]
            + [("FIG1_CONFIG", FIG1_CONFIG), ("DUMP_CONFIG", DUMP_CONFIG),
               ("decay_config", decay_config()), ("spectrum_config", spectrum_config())])


def _key_paths(cfg, prefix=()):
    for key, val in cfg.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _key_paths(val, prefix + (key,))


def _mutated(base, path, op, key, value):
    """base with the key at path dropped, a key added next to it (inside it
    for a block) or its value set to value."""
    cfg = json.loads(json.dumps(base))
    block = cfg
    for k in path[:-1]:
        block = block[k]
    if op == "drop":
        del block[path[-1]]
    elif op == "set":
        block[path[-1]] = value
    else:
        target = block[path[-1]]
        (target if isinstance(target, dict) else block)[key] = value
    return cfg


def _fuzz_mutations(base, check, max_examples, counts_capped=False):
    """check(config) on max_examples mutations of every key of base; with
    counts_capped, an integer set at a count key is at most base's value, so
    that no run composes more measurements or points than base's."""
    for path in _key_paths(base):
        values = _JSON_VALUES
        if counts_capped and path[-1] in ("n_measurements", "points"):
            cap = functools.reduce(dict.get, path, base)
            values = values.map(lambda v, cap=cap: min(v, cap) if type(v) is int else v)

        @settings(max_examples=max_examples, deadline=None, derandomize=True, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(op=st.sampled_from(["drop", "add", "set"]), key=st.text(max_size=8),
               value=values)
        def mutate_and_check(op, key, value):
            check(_mutated(base, path, op, key, value))

        mutate_and_check()


class TestConfigFuzz:
    """A reference config with one key dropped, a key added next to it or its
    value set to any JSON value is parsed or rejected; the parser raises
    nothing else.  Every key of the config is mutated in turn."""

    @pytest.mark.parametrize("name, base", _reference_configs(),
                             ids=[name for name, _ in _reference_configs()])
    def test_parse_config_only_raises_config_errors(self, name, base):
        def parse(cfg):
            try:
                parse_config(json.dumps(cfg))
            except (ParseError, ValidationError):
                pass

        _fuzz_mutations(base, parse, max_examples=20)

    @pytest.mark.parametrize("command, name", SHIPPED, ids=[name for _, name in SHIPPED])
    def test_main_exits_cleanly(self, tmp_path, command, name):
        # the runners read only the values parse_config checked: whatever it
        # accepts runs to exit 0 or ends in exit 2 or 3, without a RuntimeWarning
        # (pyproject filterwarnings)
        base = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        out = str(tmp_path / "x.out")

        def run(cfg):
            code = main([command, "--config", write_config(tmp_path, cfg), "--out", out])
            assert code in (0, 2, 3), cfg

        _fuzz_mutations(base, run, max_examples=25, counts_capped=True)

    @pytest.mark.parametrize("name, base", _reference_configs(),
                             ids=[name for name, _ in _reference_configs()])
    def test_null_means_absent(self, name, base):
        # null for a key parses exactly like dropping it, or both are rejected
        def parse(cfg):
            try:
                return dataclasses.replace(parse_config(json.dumps(cfg)), raw={})
            except ValidationError:
                return None

        for path in _key_paths(base):
            dropped, nulled = json.loads(json.dumps(base)), json.loads(json.dumps(base))
            for cfg in (dropped, nulled):
                block = cfg
                for k in path[:-1]:
                    block = block[k]
                if cfg is dropped:
                    del block[path[-1]]
                else:
                    block[path[-1]] = None
            assert parse(nulled) == parse(dropped), path
