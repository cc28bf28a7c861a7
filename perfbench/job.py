"""One benchmark job in a fresh interpreter.

    python3 perfbench/job.py WORKLOAD IN_DIR OUT_DIR RECORD TRACE

Puts the checkout's `src` on the path, times `import zenosim.cli` (the
import a `zeno-sim` user pays for), runs the workload on the inputs in
IN_DIR and writes its outputs to OUT_DIR.  RECORD receives the import time
and, with TRACE=1, the layer spans.  Only the standard library is imported
before zenosim, so the import time includes numpy and scipy.
"""

import json
import os
import sys
import time


def _cli(z, *argv) -> None:
    code = z.cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"zeno-sim {argv[0]} exited with {code}")


def anti_zeno_sweep(z, in_dir: str, out_dir: str) -> None:
    _cli(z, "decay", "--config", os.path.join(in_dir, "config.json"),
         "--out", os.path.join(out_dir, "sweep.csv"))


def strong_spectrum(z, in_dir: str, out_dir: str) -> None:
    _cli(z, "spectrum", "--config", os.path.join(in_dir, "config.json"),
         "--out", os.path.join(out_dir, "spectrum.csv"))


def channels(z, in_dir: str, out_dir: str) -> None:
    import numpy as np

    with open(os.path.join(in_dir, "channels.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    certified = {}

    def system(block):
        v = np.array(block["v_re"]) + 1j * np.array(block["v_im"])
        return z.SystemSpec(levels=tuple(block["levels"]), v=v)

    def detector(block):
        return z.gaussian_detector(block["sigma"], block["lam"], block["tau"])

    def save(name, array):
        np.save(os.path.join(out_dir, name + ".npy"), array)

    def save_channel(name, channel):
        save(name, channel.tensor)
        certified[name] = channel.certified_trace_err

    small = spec["small"]
    sys_small, det_small = system(small["system"]), detector(small["detector"])
    save_channel("second_order", z.build_second_order(sys_small, det_small,
                                                      steps=small["steps"]))
    save_channel("exact_small", z.build_exact(sys_small, det_small))
    save("jump_table", z.jump_table(sys_small, det_small).w)

    dec = spec["decay"]
    res = z.ReservoirSpectrum.lorentzian(dec["reservoir"]["B"], dec["reservoir"]["omega_R"],
                                         dec["reservoir"]["gamma"])
    effective = z.measured_decay_channel(dec["e_excited"], dec["e_ground"], res,
                                         detector(dec["detector"]), n_modes=dec["n_modes"])
    save_channel("effective", effective)
    certified["population_decay_rate"] = z.population_decay_rate(effective, excited=1)

    ex = spec["exact"]
    channel = z.build_exact(system(ex["system"]), detector(ex["detector"]))
    save_channel("exact_large", channel)
    rho0 = np.zeros((channel.dim, channel.dim), dtype=complex)
    rho0[0, 0] = 1.0
    states = z.repeat(lambda t0: channel, rho0, ex["repeat"])
    stride = ex["checkpoint"]
    save("repeat_checkpoints", states[stride - 1::stride])

    for command, config, out in spec["cli"]:
        _cli(z, command, "--config", os.path.join(in_dir, config),
             "--out", os.path.join(out_dir, out))
    with open(os.path.join(out_dir, "certified.json"), "w", encoding="utf-8") as fh:
        json.dump(certified, fh, indent=2, sort_keys=True)


WORKLOADS = {"anti_zeno_sweep": anti_zeno_sweep, "strong_spectrum": strong_spectrum,
             "channels": channels}


def main(argv) -> None:
    workload, in_dir, out_dir, record_path, trace = argv
    run = WORKLOADS[workload]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    import zenosim
    import zenosim.cli
    record = {"setup_s": time.perf_counter() - start}
    if trace == "1":
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install(zenosim)
        tracer.root(run, zenosim, in_dir, out_dir)
        record["trace"] = tracer.dump()
    else:
        run(zenosim, in_dir, out_dir)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
