"""Seeded inputs and output oracles of the three benchmark workloads.

Seed 0 feeds the committed configs and the reference systems unchanged;
any other seed jitters the physical parameters by a few percent, which
keeps every workload in its regime and keeps the amount of work per job
nearly constant (grid sizes and point counts are never jittered).

The oracles only use numpy and scipy, never zenosim: a job's outputs are
checked against closed forms or independent evaluations, outside the
timed region, in the benchmark's own process.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy.integrate import quad
from scipy.special import dawsn, wofz

WORKLOADS = ("anti_zeno_sweep", "strong_spectrum", "channels")

# Channel-dump snapshots store complex64 entries, which bounds how well the
# snapshot can satisfy the trace sum rule.
_COMPLEX64_RULE_TOL = 1e-6


class OracleMiss(Exception):
    """A job's output lies outside its oracle tolerance."""


def _jitter(rng: np.random.Generator, value: float, rel: float) -> float:
    return float(value * (1.0 + rel * rng.uniform(-1.0, 1.0)))


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# input generation

def _copy_or_jitter(src: str, dst: str, seed: int, jitter) -> None:
    """Seed 0 copies the committed config byte for byte; other seeds rewrite
    it through `jitter(cfg, rng)`."""
    with open(src, "rb") as fh:
        raw = fh.read()
    if seed != 0:
        cfg = json.loads(raw)
        jitter(cfg, np.random.default_rng(seed))
        raw = (json.dumps(cfg, indent=2, sort_keys=True) + "\n").encode()
    with open(dst, "wb") as fh:
        fh.write(raw)


def _jitter_sweep(cfg: dict, rng) -> None:
    res = cfg["reservoir"]
    res["B"] = _jitter(rng, res["B"], 0.1)
    res["gamma"] = _jitter(rng, res["gamma"], 0.03)
    res["omega_R"] = _jitter(rng, res["omega_R"], 0.03)
    cfg["detector"]["tau"] = _jitter(rng, cfg["detector"]["tau"], 0.03)
    cfg["sweep"]["Lambda_min"] = _jitter(rng, cfg["sweep"]["Lambda_min"], 0.03)
    cfg["sweep"]["Lambda_max"] = _jitter(rng, cfg["sweep"]["Lambda_max"], 0.03)


def _jitter_spectrum(cfg: dict, rng) -> None:
    cfg["reservoir"]["g0"] = _jitter(rng, cfg["reservoir"]["g0"], 0.1)
    cfg["transition"]["v2"] = _jitter(rng, cfg["transition"]["v2"], 0.1)
    cfg["detector"]["tau"] = _jitter(rng, cfg["detector"]["tau"], 0.03)
    cfg["grid"]["e_min"] = _jitter(rng, cfg["grid"]["e_min"], 0.02)
    cfg["grid"]["e_max"] = _jitter(rng, cfg["grid"]["e_max"], 0.02)


def _random_v(rng, d: int, scale: float) -> np.ndarray:
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    v = 0.5 * (m + m.conj().T)
    np.fill_diagonal(v, 0.0)
    return scale * v / np.abs(v).max()


def _system(levels, v: np.ndarray) -> dict:
    return {"levels": [float(e) for e in levels],
            "v_re": v.real.tolist(), "v_im": v.imag.tolist()}


def _channels_spec(seed: int) -> dict:
    """Library calls of the `channels` job.

    The levels, detectors, step counts and mode counts are fixed, so every
    seed does the same amount of work; the seed draws the perturbations V
    and, for seeds other than 0, jitters the reservoir."""
    rng = np.random.default_rng(seed)
    reservoir = {"B": 1e-4, "omega_R": 51.0, "gamma": 10.0}
    if seed != 0:
        reservoir = {"B": _jitter(rng, 1e-4, 0.1),
                     "omega_R": _jitter(rng, 51.0, 0.03),
                     "gamma": _jitter(rng, 10.0, 0.03)}
    return {
        "small": {"system": _system(np.linspace(-2.5, 2.5, 6), _random_v(rng, 6, 0.2)),
                  "detector": {"sigma": 1.0, "lam": 20.0, "tau": 0.1},
                  "steps": 256},
        "decay": {"e_excited": 0.5, "e_ground": -0.5, "reservoir": reservoir,
                  "detector": {"sigma": 1.0, "lam": 50.0, "tau": 2.0},
                  "n_modes": 200},
        "exact": {"system": _system(np.linspace(-4.0, 4.0, 32), _random_v(rng, 32, 0.5)),
                  "detector": {"sigma": 1.0, "lam": 5.0, "tau": 0.1},
                  "repeat": 1000, "checkpoint": 100},
        "cli": [["twolevel", "fig1_twolevel.json", "fig1_twolevel.csv"],
                ["twolevel", "fig3_weak.json", "fig3_weak.csv"],
                ["dump-channel", "channel_fig1.json", "channel_fig1.bin"]],
    }


def make_inputs(workload: str, seed: int, configs_dir: str, in_dir: str) -> None:
    """Write the inputs of one workload for one seed into in_dir."""
    os.makedirs(in_dir, exist_ok=True)
    if workload == "anti_zeno_sweep":
        _copy_or_jitter(os.path.join(configs_dir, "decay_sweep_anti_zeno.json"),
                        os.path.join(in_dir, "config.json"), seed, _jitter_sweep)
    elif workload == "strong_spectrum":
        _copy_or_jitter(os.path.join(configs_dir, "spectrum_strong.json"),
                        os.path.join(in_dir, "config.json"), seed, _jitter_spectrum)
    elif workload == "channels":
        spec = _channels_spec(seed)
        for _, name, _ in spec["cli"]:
            _copy_or_jitter(os.path.join(configs_dir, name), os.path.join(in_dir, name),
                            0, None)
        _write_json(os.path.join(in_dir, "channels.json"), spec)
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# oracles

def _require(ok: bool, what: str) -> None:
    if not ok:
        raise OracleMiss(what)


def _read_csv(path: str):
    """(comment lines, column names, float rows) of a zeno-sim CSV."""
    comments, header, rows = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return comments, header, np.array(rows, dtype=float)


def _comment(comments: list, key: str) -> str:
    for c in comments:
        if c.startswith(key + ":"):
            return c[len(key) + 1:].strip()
    raise OracleMiss(f"missing '# {key}:' line")


def _check_sidecar(path: str, cfg: dict) -> dict:
    meta = _read_json(path + ".meta.json")
    _require(meta.get("config") == cfg, f"{os.path.basename(path)} sidecar config differs")
    return meta["certified"]


def lorentzian_rate(b: float, omega_r: float, gamma: float, omega_if: float,
                    sigma: float, lam: float, tau: float, hbar: float) -> float:
    """Decay rate of a Gaussian detector on a Lorentzian reservoir from the
    time-domain identity
    R = (2B/hbar) Re int_0^tau g(t) e^{i(w_R - w_if) t} e^{-gamma t} dt,
    with g(t) = F(lambda w_if t) (1 - t/tau)."""
    a = (lam * omega_if / sigma) ** 2 / 2.0
    # F has fallen below 1e-31 beyond t = 12 sigma / (lambda w_if)
    t_end = min(tau, 12.0 / math.sqrt(2.0 * a)) if a > 0 else tau
    val, _ = quad(lambda t: math.exp(-a * t * t - gamma * t) * (1.0 - t / tau),
                  0.0, t_end, weight="cos", wvar=omega_r - omega_if,
                  epsabs=0.0, epsrel=1e-11, limit=500)
    return 2.0 * b * val / hbar


def check_sweep(in_dir: str, out_dir: str, rel_tol: float = 1e-4) -> None:
    cfg = _read_json(os.path.join(in_dir, "config.json"))
    csv = os.path.join(out_dir, "sweep.csv")
    comments, header, rows = _read_csv(csv)
    _check_sidecar(csv, cfg)
    _require(header == ["Lambda", "R", "R_golden", "R_zeno_limit"], "sweep columns")
    sw, res, det = cfg["sweep"], cfg["reservoir"], cfg["detector"]
    hbar = cfg.get("hbar", 1.0)
    omega_if = cfg["transition"]["omega_if"]
    lambdas = np.geomspace(sw["Lambda_min"], sw["Lambda_max"], sw["points"])
    _require(rows.shape == (lambdas.size, 4), f"sweep has {rows.shape[0]} rows")
    _require(np.allclose(rows[:, 0], lambdas, rtol=1e-11, atol=0.0), "Lambda column")
    b, w_r, gamma = res["B"], res["omega_R"], res["gamma"]
    r_golden = 2.0 * b * gamma / ((omega_if - w_r) ** 2 + gamma ** 2) / hbar
    c_const = det["sigma"] * math.sqrt(math.pi / 2.0)
    worst = 0.0
    for lam_big, rate, golden, zeno in rows:
        ref = lorentzian_rate(b, w_r, gamma, omega_if, det["sigma"], lam_big * c_const,
                              det["tau"], hbar)
        worst = max(worst, abs(rate - ref) / ref)
        _require(abs(golden - r_golden) <= 1e-10 * r_golden, "R_golden column")
        r_zeno = 2.0 * b / (lam_big * hbar * abs(omega_if))
        _require(abs(zeno - r_zeno) <= 1e-10 * r_zeno, "R_zeno_limit column")
    _require(worst <= rel_tol, f"sweep R off the time-domain identity by {worst:.2e}")
    _require(abs(float(_comment(comments, "golden_rule")) - r_golden) <= 1e-10 * r_golden,
             "golden_rule header")


def line_shape_faddeeva(omega, omega_if: float, sigma: float, lam: float, tau: float):
    """Measured line shape P(w) of the Gaussian detector in closed form:
    (1/pi) Re[I0 - I1/tau], I_k = int_0^tau t^k e^{-a t^2} e^{i delta t} dt."""
    delta = np.asarray(omega, dtype=float) - omega_if
    a = (lam * omega_if / sigma) ** 2 / 2.0
    sa = math.sqrt(a)
    y = delta / (2.0 * sa)
    end = math.exp(-a * tau ** 2) * np.exp(1j * delta * tau)
    i0 = (math.sqrt(math.pi) / (2.0 * sa)) * (
        np.exp(-y ** 2) - end * wofz(1j * (sa * tau - 1j * y))
        + (2j / math.sqrt(math.pi)) * dawsn(y))
    i1 = (1.0 - end) / (2.0 * a) + (1j * delta / (2.0 * a)) * i0
    return (i0 - i1 / tau).real / math.pi


def _fwhm(x: np.ndarray, y: np.ndarray) -> float:
    k = int(np.argmax(y))
    half = y[k] / 2.0
    lo = k - int(np.argmax(y[k::-1] <= half))
    hi = k + int(np.argmax(y[k:] <= half))
    left = x[lo] + (half - y[lo]) / (y[lo + 1] - y[lo]) * (x[lo + 1] - x[lo])
    right = x[hi - 1] + (y[hi - 1] - half) / (y[hi - 1] - y[hi]) * (x[hi] - x[hi - 1])
    return float(right - left)


def check_spectrum(in_dir: str, out_dir: str, peak_tol: float = 1e-6) -> None:
    cfg = _read_json(os.path.join(in_dir, "config.json"))
    csv = os.path.join(out_dir, "spectrum.csv")
    comments, header, rows = _read_csv(csv)
    _check_sidecar(csv, cfg)
    _require(header == ["E", "W"], "spectrum columns")
    grid, det = cfg["grid"], cfg["detector"]
    hbar = cfg.get("hbar", 1.0)
    e = np.linspace(grid["e_min"], grid["e_max"], grid["points"])
    _require(rows.shape == (e.size, 2), f"spectrum has {rows.shape[0]} rows")
    _require(np.allclose(rows[:, 0], e, rtol=1e-11, atol=1e-9), "E column")
    p = line_shape_faddeeva(e / hbar, cfg["transition"]["omega_if"], det["sigma"],
                            det["lambda"], det["tau"])
    w_ref = 2.0 * math.pi * cfg["transition"]["v2"] * det["tau"] * p / hbar ** 2
    peak = float(np.abs(w_ref).max())
    err = float(np.abs(rows[:, 1] - w_ref).max())
    _require(err <= peak_tol * peak, f"spectrum W off the Faddeeva form by {err / peak:.2e} of peak")
    width = _fwhm(e, w_ref)
    got = float(_comment(comments, "fwhm"))
    _require(abs(got - width) <= 1e-4 * width, f"fwhm {got} vs {width}")


def _trace_defect(s: np.ndarray) -> float:
    return float(np.abs(np.einsum("ppnm->nm", s) - np.eye(s.shape[0])).max())


def _check_rule(name: str, tensor: np.ndarray, certified: float, cap: float) -> None:
    """The recomputed trace sum-rule defect must not exceed the certified
    one, and the certificate itself must stay below cap: 1e-8 for exact
    quadrature (the acceptance suite's tolerance), 1e-7 for the
    second-order channels, whose defect is a discretization error."""
    defect = _trace_defect(tensor)
    _require(defect <= certified * (1.0 + 1e-6) + 1e-15,
             f"{name}: trace defect {defect:.2e} above certified {certified:.2e}")
    _require(certified <= cap, f"{name}: certified trace error {certified:.2e} > {cap:.0e}")


def _load_v(block: dict) -> np.ndarray:
    return np.array(block["v_re"]) + 1j * np.array(block["v_im"])


def _check_twolevel(in_dir: str, out_dir: str, cfg_name: str, out_name: str) -> None:
    cfg = _read_json(os.path.join(in_dir, cfg_name))
    csv = os.path.join(out_dir, out_name)
    comments, header, rows = _read_csv(csv)
    cert = _check_sidecar(csv, cfg)
    _require(header[:3] == ["t", "rho11", "rho00"], f"{out_name} columns")
    _require(float(_comment(comments, "certified_trace_err")) == float(f"{cert['trace_err']:.3e}"),
             f"{out_name}: header and sidecar trace errors differ")
    _require(int(_comment(comments, "quadrature_nodes")) == cert["nodes"],
             f"{out_name}: header and sidecar node counts differ")
    _require(cert["trace_err"] <= 1e-8, f"{out_name}: certified trace error {cert['trace_err']:.2e}")
    n = rows.shape[0] - 1
    if cfg.get("n_measurements") is not None:
        _require(n == cfg["n_measurements"], f"{out_name}: {n} measurements")
    drift = float(np.abs(rows[:, 1] + rows[:, 2] - 1.0).max())
    _require(drift <= n * cert["trace_err"] + 1e-10, f"{out_name}: trace drift {drift:.2e}")
    _require(np.allclose(rows[:, 0], cfg["detector"]["tau"] * np.arange(n + 1), rtol=1e-11),
             f"{out_name}: time column")


def _check_dump(in_dir: str, out_dir: str, cfg_name: str, out_name: str) -> None:
    cfg = _read_json(os.path.join(in_dir, cfg_name))
    path = os.path.join(out_dir, out_name)
    cert = _check_sidecar(path, cfg)
    with open(path, "rb") as fh:
        raw = fh.read()
    # ZSCH snapshot: <4sBBHIIdddd header, then complex64 entries
    _require(raw[:4] == b"ZSCH" and raw[4] == 1, f"{out_name}: bad magic or version")
    dim = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    tau, _, lam, sigma = np.frombuffer(raw[16:48], dtype="<f8")
    det = cfg["detector"]
    _require((dim, tau, lam, sigma) == (2, det["tau"], det["lambda"], det["sigma"]),
             f"{out_name}: header fields")
    tensor = np.frombuffer(raw, dtype="<c8", offset=48).astype(complex).reshape((dim,) * 4)
    _require(_trace_defect(tensor) <= cert["trace_err"] + _COMPLEX64_RULE_TOL,
             f"{out_name}: snapshot trace defect")


def second_order_tolerance(v: np.ndarray, tau: float, hbar: float = 1.0) -> float:
    """Bound on |second order - exact|: the third-order Dyson term,
    (||V|| tau / hbar)^3 / 3, with a factor 2 of headroom."""
    x = float(np.linalg.norm(v, 2)) * tau / hbar
    return 2.0 * x ** 3 / 3.0


def check_channels(in_dir: str, out_dir: str) -> None:
    spec = _read_json(os.path.join(in_dir, "channels.json"))
    cert = _read_json(os.path.join(out_dir, "certified.json"))

    def arr(name):
        return np.load(os.path.join(out_dir, name + ".npy"))

    small = spec["small"]
    so, ex6 = arr("second_order"), arr("exact_small")
    _check_rule("second order", so, cert["second_order"], 1e-7)
    _check_rule("exact d=6", ex6, cert["exact_small"], 1e-8)
    diff = float(np.abs(so - ex6).max())
    tol = second_order_tolerance(_load_v(small["system"]), small["detector"]["tau"])
    _require(diff <= tol, f"second order vs exact {diff:.2e} > {tol:.2e}")
    # a jump probability is the second-order population transfer i -> f
    jumps = arr("jump_table")
    pops = np.einsum("ffii->if", so).real
    off = ~np.eye(jumps.shape[0], dtype=bool)
    jdiff = float(np.abs(jumps[off] - pops[off]).max())
    _require(jdiff <= 1e-3 * float(np.abs(pops[off]).max()),
             f"jump table vs second-order populations {jdiff:.2e}")

    dec = spec["decay"]
    eff = arr("effective")
    _check_rule("effective channel", eff, cert["effective"], 1e-7)
    res, det = dec["reservoir"], dec["detector"]
    ref = lorentzian_rate(res["B"], res["omega_R"], res["gamma"],
                          dec["e_excited"] - dec["e_ground"], det["sigma"], det["lam"],
                          det["tau"], 1.0)
    rate = -math.log(eff[1, 1, 1, 1].real) / det["tau"]
    _require(abs(rate - cert["population_decay_rate"]) <= 1e-12 * rate,
             "population_decay_rate disagrees with the channel")
    _require(abs(rate - ref) <= 1e-2 * ref, f"decay rate {rate:.6e} vs {ref:.6e}")

    ex = spec["exact"]
    s32 = arr("exact_large")
    _check_rule("exact d=32", s32, cert["exact_large"], 1e-8)
    d = s32.shape[0]
    states = arr("repeat_checkpoints")
    stride = ex["checkpoint"]
    _require(states.shape == (ex["repeat"] // stride, d, d), "repeat checkpoints")
    # Liouville form: vec(rho') = L vec(rho) with L[(p,r),(n,m)] = S[p,r,n,m]
    step = np.linalg.matrix_power(s32.reshape(d * d, d * d), stride)
    vec = np.zeros(d * d, dtype=complex)
    vec[0] = 1.0
    worst = 0.0
    for k in range(states.shape[0]):
        vec = step @ vec
        worst = max(worst, float(np.abs(states[k].reshape(-1) - vec).max()))
    _require(worst <= 1e-12, f"repeat vs Liouville power {worst:.2e}")

    for cmd, cfg_name, out_name in spec["cli"]:
        if cmd == "twolevel":
            _check_twolevel(in_dir, out_dir, cfg_name, out_name)
        else:
            _check_dump(in_dir, out_dir, cfg_name, out_name)


CHECKS = {"anti_zeno_sweep": check_sweep, "strong_spectrum": check_spectrum,
          "channels": check_channels}
