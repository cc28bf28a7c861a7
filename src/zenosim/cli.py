"""Configuration ingestion and named experiment runners.

Configs are JSON (documented in the README): a top-level experiment name,
`system` / `detector` blocks, and per-experiment blocks for the reservoir,
sweep or output grid.  `SCHEMA` is the one description of every config:
keys an experiment does not read are rejected so typos fail loudly.
`parse_config` returns an `ExperimentConfig` whose `values` maps the dotted
path of every given, non-null key ("detector.tau"; "hbar" is 1.0 unless
given) to its checked float, int or string: all that the runners read.
Runners write `#`-commented CSV plus a JSON sidecar echoing the config, the
certified numerical tolerances and the zenosim and numpy versions,
so every figure is reproducible from the artifacts alone.  Output is
deterministic: no clocks, no RNG.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import decay as _decay
from .dynamics import inhibition_time, rabi_unmeasured, rate_matrix
from .errors import (
    NoTransitions,
    NotInZenoRegime,
    NumericalConvergenceError,
    ParseError,
    ValidationError,
    ZenoSimError,
)
from .model import DetectorModel, TwoLevelPreset
from .qmat import _all_finite
from .superop import build_exact, dump_channel, repeat

# Each key maps to (required, rule).  A rule is "" (any finite number),
# "> 0", ">= 0", an int k (an integer >= k), "string", a dict of the keys of
# a block, or None for a key checked by hand in parse_config.
_COMMON = {"experiment": (True, None), "hbar": (False, "> 0"),
           "output_path": (False, "string")}
_DETECTOR = {"sigma": (True, "> 0"), "lambda": (True, ">= 0"), "tau": (True, "> 0")}
_SYSTEM = {"V": (True, {"omega": (True, "> 0"), "v_re": (True, ""), "v_im": (False, "")})}

# experiment -> (subcommand, runner, the keys it reads besides _COMMON); the
# reservoir block ({}) takes the keys of its kind from _RESERVOIRS
SCHEMA = {
    "twolevel": ("twolevel", "run_twolevel", {
        "system": (False, _SYSTEM), "detector": (True, _DETECTOR),
        "n_measurements": (False, 1)}),
    "decay_sweep": ("decay", "run_decay_sweep", {
        "detector": (True, {"sigma": (True, "> 0"), "tau": (True, "> 0")}),
        "reservoir": (False, {}), "transition": (False, {"omega_if": (True, "> 0")}),
        "sweep": (False, {"Lambda_min": (True, "> 0"), "Lambda_max": (True, "> 0"),
                          "points": (True, 2)})}),
    "spectrum": ("spectrum", "run_spectrum", {
        "detector": (True, _DETECTOR), "reservoir": (False, {}),
        "transition": (False, {"omega_if": (True, "> 0"), "v2": (True, "> 0")}),
        "grid": (False, {"e_min": (True, ""), "e_max": (True, ""), "points": (True, 8)})}),
    "channel_dump": ("dump-channel", "run_channel_dump", {
        "system": (False, _SYSTEM), "detector": (True, _DETECTOR),
        "t0": (False, "")}),
}
EXPERIMENTS = tuple(SCHEMA)
_COMMANDS = {command: experiment for experiment, (command, _, _) in SCHEMA.items()}
# what a config with a missing or unknown experiment is still checked for
_UNKNOWN = {"detector": (True, {**_DETECTOR, "lambda": (False, ">= 0")}),
            "n_measurements": (False, 1), "t0": (False, "")}

# most measurements a twolevel run composes, its trajectory holding one 2 x 2 state
# each, and most points of a sweep or an energy grid
MAX_MEASUREMENTS = 10 ** 6
# largest phase |E/hbar - omega_if| t_cut of a spectrum grid edge: one ulp of the
# time there is 1.5e-5 rad, and its phase sums would run for seconds
MAX_LINE_PHASE = 1e11

# reservoir kind -> (constructor, keys in the order of its arguments)
_RESERVOIRS = {
    "flat": (_decay.ReservoirSpectrum.flat, {"g0": (True, ">= 0")}),
    "lorentzian": (_decay.ReservoirSpectrum.lorentzian, {
        "B": (True, ">= 0"), "omega_R": (True, ""), "gamma": (True, "> 0")}),
    "gaussian_peak": (_decay.ReservoirSpectrum.gaussian_peak, {
        "B": (True, ">= 0"), "omega_R": (True, ""), "w": (True, "> 0")}),
}


def _flatten(keys: dict, path: str = ""):
    """(dotted path, rule) of every key in keys and in its blocks."""
    for key, (_, rule) in keys.items():
        yield path + key, rule
        if isinstance(rule, dict):
            yield from _flatten(rule, f"{path}{key}.")


# the rule of every key some experiment reads, by dotted path
_RULES = {name: rule for _, _, keys in SCHEMA.values()
          for name, rule in _flatten({**_COMMON, **keys})}


@dataclass
class ExperimentConfig:
    experiment: str
    values: dict  # dotted path of every given, non-null key -> its checked value
    raw: dict  # the JSON as given, echoed in the CSV header and the sidecar


def _value(val, rule, name: str, errors: list, required: bool = True):
    """val if it keeps its rule, else None with the violation reported."""
    if val is None and not required:
        return None  # null means absent for every optional key
    if rule == "string":
        ok, want = isinstance(val, str), "a string"
    elif isinstance(rule, int):
        ok = isinstance(val, int) and not isinstance(val, bool) and val >= rule
        want = "a positive integer" if rule == 1 else f"an integer >= {rule}"
    elif isinstance(val, bool) or not isinstance(val, (int, float)):
        ok, want = False, "a number"
    elif not _all_finite(val):
        ok, want = False, "a finite number"
    else:
        val = float(val)
        ok, want = val > 0 if rule == "> 0" else val >= 0 if rule == ">= 0" else True, rule
    if not ok:
        errors.append(f"'{name}' must be {want}")
    return val if ok else None


def _walk(block: dict, keys: dict, path: str, experiment, errors: list, values: dict):
    """Check one block against the keys the experiment reads there, storing
    every valid value in values under its dotted path."""
    for key, val in block.items():
        if key in keys:
            continue
        name = path + key
        rule = _RULES.get(name)
        if path or name not in _RULES:
            errors.append(f"unknown key '{name}'")
        elif not isinstance(rule, dict):
            errors.append(f"'{name}' is not used by experiment {experiment!r}")
        elif not isinstance(val, dict):
            errors.append(f"'{name}' must be an object")
        elif val:
            errors.append(f"'{name}' block is not used by experiment {experiment!r}")
        if rule is not None and not isinstance(rule, dict):
            _value(val, rule, name, errors, required=False)  # read by another experiment
    for key, (required, rule) in keys.items():
        name = path + key
        if key not in block and required:
            errors.append(f"missing key '{name}'")
        if isinstance(rule, dict):
            sub = block.get(key, {})
            if not isinstance(sub, dict):
                errors.append(f"'{name}' must be an object")
                sub = {}
            if rule:
                _walk(sub, rule, name + ".", experiment, errors, values)
        elif key in block and rule is not None:
            val = _value(block[key], rule, name, errors, required)
            if val is not None:  # null or broken: the default holds
                values[name] = val


def _scaled(experiment, hbar: float, values: dict):
    """(key, name, unscaled value, scaled value) of each quantity the
    experiment forms by scaling the config value of key, which must be
    finite, and non-zero unless its unscaled value is 0 or None: hbar² where it
    divides by it, the level energy hbar·omega/2 and the frequency |V|/hbar
    of the two-level system (squared in the Rabi frequency of twolevel, and
    in its rate equation's gain 2·tau·|V|²/(hbar²·omega) and its factors), the
    grid edges E/hbar of a spectrum, 2π·v2·tau²/hbar², which bounds 2π
    times its peak W (P <= tau / 2π), and 2π·g0·tau/hbar², which bounds its
    integrated jump probability (line mass <= 1), hbar·B·2^18, which bounds a
    decay rate's sum of |G^(t)| <= hbar·B over its at most 2^17 + 1 time
    samples, the reservoir detuning phase |omega_R - omega_if|·tau of a
    sweep, and the squares of the widths of F and G (sigma, gamma, w).
    Quantities of invalid values are left out: those values are reported
    already."""
    tau, g0, b = (values.get(key) for key in ("detector.tau", "reservoir.g0", "reservoir.B"))
    if experiment in ("twolevel", "decay_sweep", "spectrum"):
        yield "hbar", "hbar²", 1.0, hbar * hbar
    if experiment in ("twolevel", "channel_dump"):
        omega, v_re = values.get("system.V.omega"), values.get("system.V.v_re")
        if omega is not None:
            yield "hbar", "hbar·omega/2", omega, hbar * omega / 2.0
        if v_re is not None:
            v = abs(complex(v_re, values.get("system.V.v_im", 0.0)))
            yield "hbar", "|V|/hbar", v, v / hbar
            if experiment == "twolevel":
                yield "hbar", "|V|²/hbar²", v * v, (v / hbar) * (v / hbar)
                if omega is not None and tau is not None:  # the factors of the gain
                    yield "detector.tau", "tau·|V|²", None, tau * v * v
                    yield "hbar", "hbar²·omega", None, hbar * hbar * omega
                    yield ("system.V.omega", "2·tau·|V|²/(hbar²·omega)", None,
                           2.0 * tau * (v / hbar) * (v / hbar) / omega)
    if experiment == "spectrum":
        for edge in ("e_min", "e_max"):
            if values.get(f"grid.{edge}") is not None:
                energy = values[f"grid.{edge}"]
                yield "hbar", f"{edge}/hbar", energy, energy / hbar
        v2 = values.get("transition.v2")
        if v2 is not None and tau is not None:
            yield ("transition.v2", "2π·v2·tau²/hbar²", v2,
                   2.0 * math.pi * v2 * tau * tau / hbar / hbar)
        if g0 is not None and tau is not None:
            yield "reservoir.g0", "2π·g0·tau/hbar²", None, 2.0 * math.pi * g0 * tau / hbar / hbar
    if b is not None:
        yield "reservoir.B", "hbar·B·2^18", None, hbar * b * 2.0 ** 18
    omega_r, omega_if = values.get("reservoir.omega_R"), values.get("transition.omega_if")
    if experiment == "decay_sweep" and None not in (omega_r, omega_if, tau):
        yield ("reservoir.omega_R", "|omega_R - omega_if|·tau", None,
               abs(omega_r - omega_if) * tau)
    for key in ("detector.sigma", "reservoir.gamma", "reservoir.w"):
        if values.get(key) is not None:
            yield key, key.split(".")[1] + "²", values[key], values[key] * values[key]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate configuration text against SCHEMA.

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
    values: dict = {}
    experiment = raw.get("experiment")
    if "experiment" in raw and experiment not in EXPERIMENTS:  # null included
        errors.append(f"'experiment' must be one of {EXPERIMENTS}, got {experiment!r}")
    keys = SCHEMA[experiment][2] if experiment in EXPERIMENTS else _UNKNOWN
    _walk(raw, {**_COMMON, **keys}, "", experiment, errors, values)
    hbar = values.setdefault("hbar", 1.0)

    for lo, hi in (("sweep.Lambda_min", "sweep.Lambda_max"), ("grid.e_min", "grid.e_max")):
        if values.get(lo) is not None and values.get(hi) is not None and values[hi] <= values[lo]:
            errors.append(f"'{hi}' must exceed '{lo}'")
    for name in ("sweep.points", "grid.points"):
        if values.get(name, 0) > MAX_MEASUREMENTS:
            errors.append(f"'{name}' must be at most {MAX_MEASUREMENTS}")
    if "reservoir" in keys:
        reservoir = raw.get("reservoir", {})
        reservoir = reservoir if isinstance(reservoir, dict) else {}  # reported by _walk
        kind = reservoir.get("kind")
        if not reservoir:
            errors.append("missing 'reservoir' block")
        elif not isinstance(kind, str) or kind not in _RESERVOIRS:
            errors.append(f"'reservoir.kind' must be one of {tuple(_RESERVOIRS)}, got {kind!r}")
        else:
            _walk(reservoir, {"kind": (True, "string"), **_RESERVOIRS[kind][1]},
                  "reservoir.", experiment, errors, values)
    for key, name, unscaled, scaled in _scaled(experiment, hbar, values):
        if not (math.isfinite(scaled) and (scaled != 0.0 or not unscaled)):
            errors.append(f"'{key}' = {values[key]!r} makes {name} = {scaled!r}, which must "
                          "be finite" + (" and non-zero" if unscaled is not None else ""))

    if experiment in ("spectrum", "decay_sweep") and not errors:
        spectrum, omega_if = experiment == "spectrum", values["transition.omega_if"]
        key = "detector.lambda" if spectrum else "sweep.Lambda_max"
        lam = values[key] if spectrum else values[key] * _detector(values, 0.0).C
        if not math.isfinite(lam * omega_if):  # the line width, largest in a sweep
            errors.append(f"'{key}' = {values[key]!r} makes lambda·|omega_if| = "
                          f"{lam * omega_if!r}, which must be finite")
        elif spectrum:
            t_cut = _decay._line_scales(omega_if, _detector(values))[0]
            for edge in ("grid.e_min", "grid.e_max"):
                phase = abs(values[edge] / hbar - omega_if) * t_cut
                if not phase <= MAX_LINE_PHASE:
                    errors.append(f"'{edge}' = {values[edge]!r} makes the line phase |E/hbar - "
                                  f"omega_if| t_cut = {phase:.3g} rad, above {MAX_LINE_PHASE:.0e}")
    if errors:
        raise ValidationError(errors)
    return ExperimentConfig(experiment=experiment, values=values, raw=raw)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _detector(values: dict, lam: float | None = None) -> DetectorModel:
    return DetectorModel(lam=values["detector.lambda"] if lam is None else lam,
                         tau=values["detector.tau"], sigma=values["detector.sigma"])


def _preset(values: dict) -> TwoLevelPreset:
    v = complex(values["system.V.v_re"], values.get("system.V.v_im", 0.0))
    return TwoLevelPreset(omega=values["system.V.omega"], v=v, hbar=values["hbar"])


def _reservoir(values: dict) -> _decay.ReservoirSpectrum:
    make, keys = _RESERVOIRS[values["reservoir.kind"]]
    return make(*(values["reservoir." + key] for key in keys), hbar=values["hbar"])


# rows formatted per write: bounds the text held at once for long trajectories
_CSV_BLOCK = 1 << 14


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _write_csv(path: str, header_lines: list, columns: list, rows,
               footer_lines: list = ()):
    """Write rows (array-like, one row per line) formatted as `_fmt` formats;
    `%.12g` is the same formatter, applied to a block of rows at once."""
    rows = np.asarray(rows, dtype=float).reshape(-1, len(columns))
    line = ",".join(["%.12g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for text in header_lines:
            fh.write(f"# {text}\n")
        fh.write(",".join(columns) + "\n")
        for lo in range(0, rows.shape[0], _CSV_BLOCK):
            block = rows[lo:lo + _CSV_BLOCK]
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))
        for text in footer_lines:
            fh.write(f"# {text}\n")


def _write_sidecar(path: str, cfg: ExperimentConfig, certified: dict):
    versions = {"numpy": np.__version__, "zenosim": __version__}
    meta = {"config": cfg.raw, "certified": certified, "versions": versions}
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _channel_certificate(channel) -> dict:
    """Sidecar facts of an exact channel: its trace error, node count and the
    bound on its quadrature error."""
    return {"trace_err": channel.certified_trace_err, "nodes": channel.meta["nodes"],
            "quad_bound": channel.meta["quad_bound"]}


def _config_echo(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))


def run_twolevel(cfg: ExperimentConfig, out: str) -> str:
    """Occupation trajectory of the measured two-level system.

    Columns: t, rho11, rho00, re_rho10, im_rho10, rho11_approx (the
    strong-measurement rate equation) and rho11_free (unmeasured Rabi
    reference)."""
    preset = _preset(cfg.values)
    system = preset.to_system()
    det = _detector(cfg.values)
    try:
        t_inh = inhibition_time(system, det)
    except NoTransitions:  # V = 0 leaves the populations as they are
        t_inh = math.inf
    n = cfg.values.get("n_measurements")
    if n is None:
        if not math.isfinite(t_inh) or t_inh <= 0:
            raise ValidationError(
                ["'n_measurements' is required when the inhibition time is not finite"])
        n = 10.0 * t_inh / det.tau  # a float until checked: it may overflow an integer
    if n > MAX_MEASUREMENTS:
        raise ValidationError([
            f"{n:.6g} measurements exceed the cap of {MAX_MEASUREMENTS} (inhibition time "
            f"t_inh = {t_inh:.6g}, default 10 t_inh / tau); give a smaller 'n_measurements'"])
    n = math.ceil(n)
    channel = build_exact(system, det)
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[1, 1] = 1.0
    traj = repeat(lambda t0: channel, rho0, n)
    times = det.tau * np.arange(0, n + 1)
    states = np.concatenate([rho0[None], traj])
    if det.lam == 0.0:  # t_inh = 0: equal occupation right after t = 0
        approx = np.where(times == 0.0, 1.0, 0.5)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotInZenoRegime)
            approx = rate_matrix(system, det).evolve([0.0, 1.0], times)[:, 1]
    free = rabi_unmeasured(preset, times)[0]
    rows = np.column_stack([times, states[:, 1, 1].real, states[:, 0, 0].real,
                            states[:, 1, 0].real, states[:, 1, 0].imag, approx, free])
    header = [
        "zeno-sim twolevel",
        f"config: {_config_echo(cfg)}",
        f"certified_trace_err: {channel.certified_trace_err:.3e}",
        f"quadrature_nodes: {channel.meta.get('nodes')}",
    ]
    _write_csv(out, header,
               ["t", "rho11", "rho00", "re_rho10", "im_rho10",
                "rho11_approx", "rho11_free"], rows)
    _write_sidecar(out, cfg, _channel_certificate(channel))
    return out


def run_decay_sweep(cfg: ExperimentConfig, out: str) -> str:
    """Decay rate against measurement strength, with both baselines."""
    values = cfg.values
    res = _reservoir(values)
    omega_if, hbar = values["transition.omega_if"], values["hbar"]
    with np.errstate(over="ignore"):  # 10^log10(Lambda_max) may round to inf; the ends are exact
        lambdas = np.geomspace(values["sweep.Lambda_min"], values["sweep.Lambda_max"],
                               values["sweep.points"])
    c_const = _detector(values, lam=0.0).C
    r_golden = 2.0 * math.pi * res.g(omega_if) / hbar ** 2
    rows, errors = [], []
    for lam_big in lambdas.tolist():  # Python floats, like the config values
        det = _detector(values, lam=lam_big * c_const)
        try:
            rate, ladder = _decay._rate_and_ladder(res, omega_if, det, _decay.RATE_REL_TOL)
        except NumericalConvergenceError as exc:
            raise NumericalConvergenceError(
                f"Lambda = {lam_big:.6g}: {exc}", exc.ladder) from exc
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotInZenoRegime)
            r_zeno = _decay.zeno_limit_rate(res, omega_if, det)
        rows.append((lam_big, rate, r_golden, r_zeno))
        errors.append(ladder[-1][1] if ladder else 0.0)
    header = ["zeno-sim decay", f"config: {_config_echo(cfg)}",
              f"golden_rule: {_fmt(r_golden)}"]
    _write_csv(out, header, ["Lambda", "R", "R_golden", "R_zeno_limit"], rows)
    _write_sidecar(out, cfg, {"rel_tol": _decay.RATE_REL_TOL, "rel_err_reached": errors})
    return out


def run_spectrum(cfg: ExperimentConfig, out: str) -> str:
    """Emitted-field energy distribution; FWHM recorded as a footer."""
    values = cfg.values
    res = _reservoir(values)
    det = _detector(values)
    omega_if, v2, hbar = values["transition.omega_if"], values["transition.v2"], values["hbar"]
    e_grid = np.linspace(values["grid.e_min"], values["grid.e_max"], values["grid.points"])
    w = _decay.emitted_spectrum(omega_if, det, v2, e_grid, hbar=hbar)
    if not w.max() > 0.0:
        raise ZenoSimError(f"W underflows to 0 on the whole grid: 'transition.v2' = {v2!r}")
    width = _decay.fwhm(e_grid, w)
    total = float(np.trapezoid(res.g(e_grid / hbar) * (w / (hbar * v2)), e_grid))
    line_width = det.Lambda * hbar * omega_if  # 0 at lambda = 0, or when it underflows
    ratio = width / line_width if line_width > 0 else float("nan")
    rows = np.column_stack([e_grid, w])
    header = ["zeno-sim spectrum", f"config: {_config_echo(cfg)}"]
    footer = [f"fwhm: {_fmt(width)}",
              f"fwhm_over_Lambda_hbar_omega: {_fmt(ratio)}",
              f"integrated_jump_probability: {_fmt(total)}"]
    _write_csv(out, header, ["E", "W"], rows, footer_lines=footer)
    _write_sidecar(out, cfg, {"fwhm": width})
    return out


def run_channel_dump(cfg: ExperimentConfig, out: str) -> str:
    """Binary snapshot of the exact-quadrature channel."""
    preset = _preset(cfg.values)
    det = _detector(cfg.values)
    channel = build_exact(preset.to_system(), det, t0=cfg.values.get("t0", 0.0))
    dump_channel(channel, det, out)
    _write_sidecar(out, cfg, _channel_certificate(channel))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zeno-sim",
        description="Simulations of repeated finite-duration quantum measurements")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    experiment = _COMMANDS[args.command]
    runner = SCHEMA[experiment][1]

    try:
        cfg = load_config(args.config)
        if cfg.experiment != experiment:
            raise ValidationError([f"experiment {cfg.experiment!r} does not match "
                                   f"command {args.command!r}"])
        out = args.out or cfg.values.get("output_path")
        if out is None:
            raise ValidationError(["no output path (give --out or output_path)"])
        # looked up by name at call time, so a rebound module attribute is called
        globals()[runner](cfg, out)
    except (OSError, ParseError, ValidationError) as exc:
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
