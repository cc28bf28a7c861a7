"""Configuration ingestion and named experiment runners.

Configs are JSON (documented in the README): a top-level experiment name,
`system` / `detector` blocks, and per-experiment blocks for the reservoir,
sweep or output grid.  Unknown keys are rejected so typos fail loudly.
Runners write `#`-commented CSV plus a JSON sidecar echoing the config and
the certified numerical tolerances, so every figure is reproducible from
the artifacts alone.  Output is deterministic: no clocks, no RNG.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import decay as _decay
from .dynamics import measured_exponential, rabi_unmeasured, two_level_inhibition_time
from .errors import (
    NotInZenoRegime,
    NumericalConvergenceError,
    ParseError,
    ValidationError,
    ZenoSimError,
)
from .model import DetectorModel, TwoLevelPreset, strength
from .superop import build_exact, default_rule, dump_channel, repeat

EXPERIMENTS = ("twolevel", "decay_sweep", "spectrum", "channel_dump")

_COMMAND_TO_EXPERIMENT = {
    "twolevel": "twolevel",
    "decay": "decay_sweep",
    "spectrum": "spectrum",
    "dump-channel": "channel_dump",
}


@dataclass
class ExperimentConfig:
    experiment: str
    hbar: float
    detector: dict
    system: dict = field(default_factory=dict)
    reservoir: dict = field(default_factory=dict)
    transition: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    n_measurements: int | None = None
    t0: float = 0.0
    nodes: int | None = None
    output_path: str | None = None
    raw: dict = field(default_factory=dict)


def _check_keys(block: dict, allowed: dict, path: str, errors: list):
    for key in block:
        if key not in allowed:
            errors.append(f"unknown key '{path}{key}'")
    for key, required in allowed.items():
        if required and key not in block:
            errors.append(f"missing key '{path}{key}'")


def _finite(x) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _number(block: dict, key: str, errors: list, path: str,
            positive=False, nonnegative=False):
    if key not in block:
        return None
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        errors.append(f"'{path}{key}' must be a number")
        return None
    if not _finite(val):
        errors.append(f"'{path}{key}' must be a finite number")
        return None
    val = float(val)
    if positive and val <= 0:
        errors.append(f"'{path}{key}' must be > 0")
        return None
    if nonnegative and val < 0:
        errors.append(f"'{path}{key}' must be >= 0")
        return None
    return val


_TOP_KEYS = {"experiment": True, "hbar": False, "system": False, "detector": True,
             "reservoir": False, "transition": False, "sweep": False, "grid": False,
             "n_measurements": False, "t0": False, "nodes": False,
             "output_path": False}

_RESERVOIR_KEYS = {
    "flat": {"kind": True, "g0": True},
    "lorentzian": {"kind": True, "B": True, "omega_R": True, "gamma": True},
    "gaussian_peak": {"kind": True, "B": True, "omega_R": True, "w": True},
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate configuration text.

    Raises ParseError for malformed JSON (with position) and
    ValidationError carrying every schema violation found.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError("top level must be an object")

    errors: list[str] = []
    _check_keys(raw, _TOP_KEYS, "", errors)
    experiment = raw.get("experiment")
    if experiment is not None and experiment not in EXPERIMENTS:
        errors.append(f"'experiment' must be one of {EXPERIMENTS}, got {experiment!r}")

    hbar = _number(raw, "hbar", errors, "", positive=True)
    hbar = 1.0 if hbar is None else hbar

    detector = raw.get("detector", {})
    if not isinstance(detector, dict):
        errors.append("'detector' must be an object")
        detector = {}
    det_keys = {"sigma": True, "lambda": False, "tau": True}
    if experiment == "decay_sweep":
        det_keys = {"sigma": True, "tau": True}
    _check_keys(detector, det_keys, "detector.", errors)
    _number(detector, "sigma", errors, "detector.", positive=True)
    _number(detector, "tau", errors, "detector.", positive=True)
    _number(detector, "lambda", errors, "detector.", nonnegative=True)
    if experiment in ("twolevel", "spectrum", "channel_dump") and "lambda" not in detector:
        errors.append("missing key 'detector.lambda'")

    system = raw.get("system", {})
    if not isinstance(system, dict):
        errors.append("'system' must be an object")
        system = {}
    if experiment in ("twolevel", "channel_dump"):
        _check_keys(system, {"V": True, "levels": False}, "system.", errors)
        vblock = system.get("V", {})
        if not isinstance(vblock, dict):
            errors.append("'system.V' must be an object")
            vblock = {}
        _check_keys(vblock, {"omega": True, "v_re": True, "v_im": False},
                    "system.V.", errors)
        omega = _number(vblock, "omega", errors, "system.V.", positive=True)
        _number(vblock, "v_re", errors, "system.V.")
        _number(vblock, "v_im", errors, "system.V.")
        levels = system.get("levels")
        if levels is not None:
            if (not isinstance(levels, list) or len(levels) != 2
                    or not all(isinstance(x, (int, float)) and _finite(x)
                               for x in levels)):
                errors.append("'system.levels' must be a list of two finite numbers")
            elif omega is not None:
                want = [-hbar * omega / 2.0, hbar * omega / 2.0]
                if any(abs(a - b) > 1e-12 * max(1.0, abs(b)) for a, b in zip(sorted(levels), want)):
                    errors.append("'system.levels' inconsistent with system.V.omega")
    elif system:
        errors.append(f"'system' block is not used by experiment {experiment!r}")

    reservoir = raw.get("reservoir", {})
    if not isinstance(reservoir, dict):
        errors.append("'reservoir' must be an object")
        reservoir = {}
    if experiment in ("decay_sweep", "spectrum"):
        if not reservoir:
            errors.append("missing 'reservoir' block")
        else:
            kind = reservoir.get("kind")
            if kind not in _RESERVOIR_KEYS:
                errors.append(
                    f"'reservoir.kind' must be one of {tuple(_RESERVOIR_KEYS)}, got {kind!r}")
            else:
                _check_keys(reservoir, _RESERVOIR_KEYS[kind], "reservoir.", errors)
                for key in _RESERVOIR_KEYS[kind]:
                    if key != "kind":
                        kwargs = {"positive": key in ("gamma", "w")}
                        kwargs["nonnegative"] = key in ("g0", "B")
                        _number(reservoir, key, errors, "reservoir.", **kwargs)
    elif reservoir:
        errors.append(f"'reservoir' block is not used by experiment {experiment!r}")

    transition = raw.get("transition", {})
    if not isinstance(transition, dict):
        errors.append("'transition' must be an object")
        transition = {}
    if experiment in ("decay_sweep", "spectrum"):
        keys = {"omega_if": True} if experiment == "decay_sweep" else {
            "omega_if": True, "v2": True}
        _check_keys(transition, keys, "transition.", errors)
        _number(transition, "omega_if", errors, "transition.", positive=True)
        _number(transition, "v2", errors, "transition.", nonnegative=True)
    elif transition:
        errors.append(f"'transition' block is not used by experiment {experiment!r}")

    sweep = raw.get("sweep", {})
    if not isinstance(sweep, dict):
        errors.append("'sweep' must be an object")
        sweep = {}
    if experiment == "decay_sweep":
        _check_keys(sweep, {"Lambda_min": True, "Lambda_max": True, "points": True},
                    "sweep.", errors)
        lo = _number(sweep, "Lambda_min", errors, "sweep.", positive=True)
        hi = _number(sweep, "Lambda_max", errors, "sweep.", positive=True)
        if lo is not None and hi is not None and hi <= lo:
            errors.append("'sweep.Lambda_max' must exceed 'sweep.Lambda_min'")
        pts = sweep.get("points")
        if pts is not None and (isinstance(pts, bool) or not isinstance(pts, int) or pts < 2):
            errors.append("'sweep.points' must be an integer >= 2")
    elif sweep:
        errors.append(f"'sweep' block is not used by experiment {experiment!r}")

    grid = raw.get("grid", {})
    if not isinstance(grid, dict):
        errors.append("'grid' must be an object")
        grid = {}
    if experiment == "spectrum":
        _check_keys(grid, {"e_min": True, "e_max": True, "points": True}, "grid.", errors)
        emin = _number(grid, "e_min", errors, "grid.")
        emax = _number(grid, "e_max", errors, "grid.")
        if emin is not None and emax is not None and emax <= emin:
            errors.append("'grid.e_max' must exceed 'grid.e_min'")
        pts = grid.get("points")
        if pts is not None and (isinstance(pts, bool) or not isinstance(pts, int) or pts < 8):
            errors.append("'grid.points' must be an integer >= 8")
    elif grid:
        errors.append(f"'grid' block is not used by experiment {experiment!r}")

    n_meas = raw.get("n_measurements")
    if n_meas is not None and (isinstance(n_meas, bool)
                               or not isinstance(n_meas, int) or n_meas < 1):
        errors.append("'n_measurements' must be a positive integer")
    t0 = _number(raw, "t0", errors, "")
    nodes = raw.get("nodes")
    if nodes is not None and (isinstance(nodes, bool) or not isinstance(nodes, int)
                              or nodes < 8):
        errors.append("'nodes' must be an integer >= 8")
    output_path = raw.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        errors.append("'output_path' must be a string")

    if errors:
        raise ValidationError(errors)
    return ExperimentConfig(experiment=experiment, hbar=hbar, detector=detector,
                            system=system, reservoir=reservoir, transition=transition,
                            sweep=sweep, grid=grid, n_measurements=n_meas,
                            t0=0.0 if t0 is None else t0, nodes=nodes,
                            output_path=output_path, raw=raw)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _detector(cfg: ExperimentConfig, lam: float | None = None) -> DetectorModel:
    block = cfg.detector
    lam_val = block["lambda"] if lam is None else lam
    return DetectorModel(lam=float(lam_val), tau=float(block["tau"]),
                         sigma=float(block["sigma"]))


def _preset(cfg: ExperimentConfig) -> TwoLevelPreset:
    vb = cfg.system["V"]
    v = complex(vb["v_re"], vb.get("v_im", 0.0))
    return TwoLevelPreset(omega=float(vb["omega"]), v=v, hbar=cfg.hbar)


def _reservoir(cfg: ExperimentConfig) -> _decay.ReservoirSpectrum:
    block = cfg.reservoir
    kind = block["kind"]
    if kind == "flat":
        return _decay.ReservoirSpectrum.flat(block["g0"], hbar=cfg.hbar)
    if kind == "lorentzian":
        return _decay.ReservoirSpectrum.lorentzian(block["B"], block["omega_R"],
                                                   block["gamma"], hbar=cfg.hbar)
    return _decay.ReservoirSpectrum.gaussian_peak(block["B"], block["omega_R"],
                                                  block["w"], hbar=cfg.hbar)


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _write_csv(path: str, header_lines: list, columns: list, rows,
               footer_lines: list = ()):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
        for line in footer_lines:
            fh.write(f"# {line}\n")


def _write_sidecar(path: str, cfg: ExperimentConfig, certified: dict):
    meta = {"config": cfg.raw, "certified": certified}
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_echo(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))


def run_twolevel(cfg: ExperimentConfig, out: str, nodes: int | None = None) -> str:
    """Occupation trajectory of the measured two-level system.

    Columns: t, rho11, rho00, re_rho10, im_rho10, rho11_approx (exponential
    approximation) and rho11_free (unmeasured Rabi reference)."""
    preset = _preset(cfg)
    det = _detector(cfg)
    sysspec = preset.to_system()
    rule = None if nodes is None else default_rule(det, nodes)
    channel = build_exact(sysspec, det, rule=rule)
    n = cfg.n_measurements
    if n is None:
        t_inh = two_level_inhibition_time(preset, det)
        if not math.isfinite(t_inh) or t_inh <= 0:
            raise ValidationError(
                ["'n_measurements' is required when the inhibition time is not finite"])
        n = int(math.ceil(10.0 * t_inh / det.tau))
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[1, 1] = 1.0
    traj = repeat(lambda t0: channel, rho0, n)
    times = det.tau * np.arange(0, n + 1)
    states = np.concatenate([rho0[None], traj])
    approx = measured_exponential(preset, det, times)[0]
    free = rabi_unmeasured(preset, times)[0]
    rows = [
        (times[k], states[k][1, 1].real, states[k][0, 0].real,
         states[k][1, 0].real, states[k][1, 0].imag, approx[k], free[k])
        for k in range(n + 1)
    ]
    header = [
        "zeno-sim twolevel",
        f"config: {_config_echo(cfg)}",
        f"certified_trace_err: {channel.certified_trace_err:.3e}",
        f"quadrature_nodes: {channel.meta.get('nodes')}",
    ]
    _write_csv(out, header,
               ["t", "rho11", "rho00", "re_rho10", "im_rho10",
                "rho11_approx", "rho11_free"], rows)
    _write_sidecar(out, cfg, {"trace_err": channel.certified_trace_err,
                              "nodes": channel.meta.get("nodes")})
    return out


def run_decay_sweep(cfg: ExperimentConfig, out: str) -> str:
    """Decay rate against measurement strength, with both baselines."""
    res = _reservoir(cfg)
    omega_if = float(cfg.transition["omega_if"])
    hbar = cfg.hbar
    tau = float(cfg.detector["tau"])
    lambdas = np.geomspace(cfg.sweep["Lambda_min"], cfg.sweep["Lambda_max"],
                           int(cfg.sweep["points"]))
    c_const = strength(_detector(cfg, lam=0.0)).C
    r_golden = 2.0 * math.pi * res.g(omega_if) / hbar ** 2

    def one(idx_lam):
        idx, lam_big = idx_lam
        det = _detector(cfg, lam=lam_big * c_const)
        try:
            rate = _decay.decay_rate(res, omega_if, det, tau, hbar)
        except NumericalConvergenceError as exc:
            raise NumericalConvergenceError(
                f"Lambda = {lam_big:.6g}: {exc}") from exc
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotInZenoRegime)
            r_zeno = _decay.zeno_limit_rate(res, omega_if, det, hbar)
        return idx, lam_big, rate, r_zeno

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(one, enumerate(lambdas)))
    results.sort(key=lambda r: r[0])
    rows = [(lam, rate, r_golden, r_zeno) for _, lam, rate, r_zeno in results]
    header = ["zeno-sim decay", f"config: {_config_echo(cfg)}",
              f"golden_rule: {_fmt(r_golden)}"]
    _write_csv(out, header, ["Lambda", "R", "R_golden", "R_zeno_limit"], rows)
    _write_sidecar(out, cfg, {"rel_tol": 1e-4})
    return out


def run_spectrum(cfg: ExperimentConfig, out: str) -> str:
    """Emitted-field energy distribution; FWHM recorded as a footer."""
    res = _reservoir(cfg)
    det = _detector(cfg)
    omega_if = float(cfg.transition["omega_if"])
    v2 = float(cfg.transition["v2"])
    hbar = cfg.hbar
    tau = det.tau
    e_grid = np.linspace(cfg.grid["e_min"], cfg.grid["e_max"], int(cfg.grid["points"]))
    w = _decay.emitted_spectrum(res, omega_if, det, tau, v2, e_grid, hbar=hbar)
    width = _decay.fwhm(e_grid, w)
    total = float(np.trapezoid(res.g(e_grid / hbar) / (hbar * v2) * w, e_grid)) if v2 > 0 else 0.0
    lam_big = strength(det).Lambda
    ratio = width / (lam_big * hbar * omega_if) if lam_big > 0 else float("nan")
    rows = list(zip(e_grid, w))
    header = ["zeno-sim spectrum", f"config: {_config_echo(cfg)}"]
    footer = [f"fwhm: {_fmt(width)}",
              f"fwhm_over_Lambda_hbar_omega: {_fmt(ratio)}",
              f"integrated_jump_probability: {_fmt(total)}"]
    _write_csv(out, header, ["E", "W"], rows, footer_lines=footer)
    _write_sidecar(out, cfg, {"fwhm": width})
    return out


def run_channel_dump(cfg: ExperimentConfig, out: str, nodes: int | None = None) -> str:
    """Binary snapshot of the exact-quadrature channel."""
    preset = _preset(cfg)
    det = _detector(cfg)
    rule = None if nodes is None else default_rule(det, nodes)
    channel = build_exact(preset.to_system(), det, t0=cfg.t0, rule=rule)
    dump_channel(channel, det, out)
    _write_sidecar(out, cfg, {"trace_err": channel.certified_trace_err,
                              "nodes": channel.meta.get("nodes")})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zeno-sim",
        description="Simulations of repeated finite-duration quantum measurements")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("twolevel", "decay", "spectrum", "dump-channel"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--nodes", type=int, default=None)
        p.add_argument("--seedless", action="store_true",
                       help="assert deterministic mode (always on; kept for "
                            "interface stability)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2

    expected = _COMMAND_TO_EXPERIMENT[args.command]
    if cfg.experiment != expected:
        print(f"config error: experiment {cfg.experiment!r} does not match "
              f"command {args.command!r}", file=_sys.stderr)
        return 2
    out = args.out or cfg.output_path
    if out is None:
        print("config error: no output path (give --out or output_path)",
              file=_sys.stderr)
        return 2
    nodes = args.nodes if args.nodes is not None else cfg.nodes

    try:
        if expected == "twolevel":
            run_twolevel(cfg, out, nodes=nodes)
        elif expected == "decay_sweep":
            run_decay_sweep(cfg, out)
        elif expected == "spectrum":
            run_spectrum(cfg, out)
        else:
            run_channel_dump(cfg, out, nodes=nodes)
    except ValidationError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except NumericalConvergenceError as exc:
        print(f"numerical error: {exc}", file=_sys.stderr)
        return 3
    except ZenoSimError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
