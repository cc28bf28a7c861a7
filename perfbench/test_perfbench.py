"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q

They run single jobs; the CLI workloads get shrunken inputs (3 sweep
points, a 2001-point spectrum grid), which exercise the same code paths in
a few seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _inputs(workload, in_dir):
    workloads.make_inputs(workload, 3, os.path.join(run.ROOT, "configs"), in_dir)
    if workload == "channels":
        return
    path = os.path.join(in_dir, "config.json")
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if workload == "anti_zeno_sweep":
        cfg["sweep"]["points"] = 3
    else:
        cfg["grid"]["points"] = 2001
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    """(inputs, untraced job, traced job) per workload."""
    out = {}
    for workload in workloads.WORKLOADS:
        base = tmp_path_factory.mktemp(workload)
        in_dir = str(base / "in")
        _inputs(workload, in_dir)
        plain = run.run_job(workload, in_dir, str(base / "plain"), False, 120)
        traced = run.run_job(workload, in_dir, str(base / "traced"), True, 120)
        out[workload] = (in_dir, plain, traced)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_output_is_byte_identical(jobs, workload):
    in_dir, plain, traced = jobs[workload]
    assert run.verify(workload, in_dir, plain, None) is None
    assert run.verify(workload, in_dir, traced, plain.digest()) is None
    assert traced.digest() == plain.digest()
    assert "trace" in traced.record and "trace" not in plain.record


def test_metric_names_match_benchmark_json(jobs):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    _, plain, traced = jobs["anti_zeno_sweep"]
    plain_out = run.result([None], run.end_to_end_metrics([plain]), run.END_TO_END)
    assert {k: v["unit"] for k, v in plain_out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in bench["end_to_end"]}
    traced_out = run.result([None], run.per_layer_metrics([traced]), run.PER_LAYER)
    assert {k: v["unit"] for k, v in traced_out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in bench["per_layer"]}


# per-layer name prefixes each workload must reach; every workload reaches
# the import, trace, config-parsing and output metrics
REACHES = {
    "anti_zeno_sweep": ("decay.decay_rate.", "cli.run_decay_sweep.", "decay.line_shape."),
    "strong_spectrum": ("decay.line_shape.", "decay.line_mass.", "decay.emitted_spectrum.",
                        "cli.run_spectrum."),
    "channels": ("superop.", "decay.effective_channel.", "decay.measured_decay_channel.",
                 "model.", "qmat.", "dynamics."),
}
_EVERYWHERE = ("import.", "trace.", "cli.parse_config.", "cli.output_bytes")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_reaches_its_layers(jobs, workload):
    """A layer a workload reaches reads more than 0; one it does not reach,
    and no other workload is meant to, reads exactly 0."""
    layers = run.per_layer_metrics([jobs[workload][2]])
    own = REACHES[workload] + _EVERYWHERE
    others = tuple(p for w, ps in REACHES.items() if w != workload for p in ps)
    for name, value in layers.items():
        if name.startswith(own):
            assert value > 0, name
        elif name.startswith(others) and not name.startswith("model."):
            assert value == 0, name
    if workload == "anti_zeno_sweep":
        assert layers["decay.decay_rate.calls"] == 3
        assert layers["decay.line_shape.calls"] == 6
        assert layers["cli.run_decay_sweep.concurrency"] > 1.0
    if workload == "channels":
        assert layers["superop.repeat.steps"] > 1000


class _Usage:
    ru_utime = ru_stime = 0.0
    ru_maxrss = 0


def _perturb(job_dir, name, row, col, factor):
    """Copy a job's outputs and scale one value of one CSV row."""
    shutil.copytree(job_dir, job_dir + "-bad")
    path = os.path.join(job_dir + "-bad", "out", name)
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    data = [k for k, line in enumerate(lines) if line[0].isdigit() or line[0] == "-"]
    cells = lines[data[row]].rstrip("\n").split(",")
    cells[col] = f"{float(cells[col]) * factor:.12g}"
    lines[data[row]] = ",".join(cells) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return job_dir + "-bad"


@pytest.mark.parametrize("workload, name, row, col, factor", [
    ("anti_zeno_sweep", "sweep.csv", 1, 1, 1.0 + 1e-3),
    ("strong_spectrum", "spectrum.csv", 1000, 1, 1.0 + 1e-5),
])
def test_perturbed_csv_counts_as_failure(jobs, workload, name, row, col, factor):
    in_dir, plain, _ = jobs[workload]
    bad_dir = _perturb(plain.dir, name, row, col, factor)
    bad = run.Job(bad_dir, 0, plain.wall_s, _Usage())
    assert run.verify(workload, in_dir, bad, plain.digest()) is not None
    failures = [run.verify(workload, in_dir, job, None) for job in (plain, bad)]
    out = run.result(failures, run.end_to_end_metrics([plain, bad]), run.END_TO_END)
    assert (out["correct"], out["attempted"], out["failed"]) == (False, 2, 1)
    shutil.rmtree(bad_dir)


def test_empty_output_counts_as_failure(jobs):
    """Output that breaks the oracle itself is a failed job, not a crash."""
    in_dir, plain, _ = jobs["channels"]
    bad_dir = plain.dir + "-empty"
    shutil.copytree(plain.dir, bad_dir)
    open(os.path.join(bad_dir, "out", "fig1_twolevel.csv"), "w").close()
    bad = run.Job(bad_dir, 0, plain.wall_s, _Usage())
    assert run.verify("channels", in_dir, bad, None) is not None
    shutil.rmtree(bad_dir)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "channels", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
