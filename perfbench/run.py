"""zenosim benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout; zenosim is imported from its `src` directory, so
nothing needs to be installed.  The harness writes the seeded inputs, then
runs jobs in a closed loop, one at a time: each job is a fresh interpreter
(`job.py`) that imports zenosim, which it times as set-up, and runs the
workload once.  A run makes at least three jobs and starts another while
it expects it to end within --seconds.  The sweep's thread pool and the
BLAS thread count are left as the program and the environment set them;
the environment record says what they were.

Every job is checked outside the timed region: the first job whose output
passes its oracle (`workloads.CHECKS`) becomes the reference, and every
later job must reproduce its output bytes.  A non-zero exit, an exception,
an oracle miss or differing bytes count the job as failed.

With --trace 0 the result holds the end-to-end metrics, medians over the
run's jobs.  With --trace 1 the jobs run under `-X importtime` with every
layer function wrapped (`layertrace.py`) and the result holds the per-layer
metrics, medians over the traced jobs; their names and units are read
from BENCHMARK.json.  The last line of standard output is
the result as JSON; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

MIN_JOBS = 3
# every run ends well inside the 180 s a run may take; a job still running
# at this point is killed and counted as failed
RUN_DEADLINE_S = 160.0

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
# the fields `layertrace.analyse` totals per span name
_SPAN_FIELDS = ("calls", "wall_s", "self_s", "wait_s", "concurrency")


class Job:
    """One finished job: its directory, exit code and resource usage."""

    def __init__(self, job_dir: str, code: int, wall_s: float, usage):
        self.dir = job_dir
        self.out_dir = os.path.join(job_dir, "out")
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss * 1024 / 1e6
        self.record = None
        if code == 0:
            with open(os.path.join(job_dir, "record.json"), encoding="utf-8") as fh:
                self.record = json.load(fh)

    def stderr(self) -> str:
        with open(os.path.join(self.dir, "stderr.txt"), encoding="utf-8",
                  errors="replace") as fh:
            return fh.read()

    def digest(self) -> dict:
        """sha256 of every output file, by relative path."""
        out = {}
        for base, _, files in os.walk(self.out_dir):
            for name in files:
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, self.out_dir)] = hashlib.sha256(fh.read()).hexdigest()
        return out


def run_job(workload: str, in_dir: str, job_dir: str, trace: bool, timeout: float) -> Job:
    os.makedirs(os.path.join(job_dir, "out"))
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
        os.path.join(HERE, "job.py"), workload, in_dir, os.path.join(job_dir, "out"),
        os.path.join(job_dir, "record.json"), "1" if trace else "0"]
    with open(os.path.join(job_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(job_dir, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=job_dir)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Job(job_dir, proc.returncode, wall, usage)


def verify(workload: str, in_dir: str, job: Job, reference: dict | None) -> str | None:
    """None if the job's output is correct, else why it is not."""
    if job.code != 0:
        tail = job.stderr().strip().splitlines()[-1:] or [""]
        return f"exit code {job.code}: {tail[0]}"
    if reference is not None:
        return None if job.digest() == reference else "output bytes differ from the first repeat"
    try:
        workloads.CHECKS[workload](in_dir, job.out_dir)
    except Exception as exc:  # any bad output is a failed job, not a crashed run
        return f"{type(exc).__name__}: {exc}"
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: str):
    """Generate the inputs, run the closed loop; return the jobs and their
    failures (None for a correct job)."""
    shutil.rmtree(work_dir, ignore_errors=True)
    in_dir = os.path.join(work_dir, "in")
    workloads.make_inputs(workload, seed, os.path.join(ROOT, "configs"), in_dir)
    jobs, failures, cycles = [], [], []
    reference = None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= RUN_DEADLINE_S:
            break
        if len(jobs) >= MIN_JOBS and elapsed + statistics.median(cycles) > seconds:
            break
        job = run_job(workload, in_dir, os.path.join(work_dir, f"job{len(jobs)}"), trace,
                      RUN_DEADLINE_S - elapsed)
        failure = verify(workload, in_dir, job, reference)
        if failure is None and reference is None:
            reference = job.digest()
        jobs.append(job)
        failures.append(failure)
        cycles.append(time.perf_counter() - start - elapsed)
    return jobs, failures


def end_to_end_metrics(jobs: list) -> dict:
    done = [j for j in jobs if j.record is not None]
    return {
        "wall_s": statistics.median(j.wall_s for j in done),
        "setup_s": statistics.median(j.record["setup_s"] for j in done),
        "cpu_s": statistics.median(j.cpu_s for j in done),
        "peak_rss_mb": statistics.median(j.peak_rss_mb for j in done),
    }


def job_layer_metrics(job: Job) -> dict:
    """Every per-layer metric of one traced job.  A name is a counter
    (`layertrace.COUNTERS`), an import time, a `trace.` total of the job,
    or a span name and one of its fields, as in `decay.line_shape.self_s`;
    a span the workload does not reach reads 0 calls and 0 s."""
    totals = layertrace.analyse(job.record["trace"])
    out = dict(totals["counts"])
    out.update(layertrace.import_times(job.stderr()))
    out["trace.wall_s"] = job.wall_s
    out["trace.setup_s"] = job.record["setup_s"]
    out["trace.layers_s"] = totals["layers_s"]
    out["trace.unattributed_s"] = job.wall_s - job.record["setup_s"] - totals["layers_s"]
    for name in PER_LAYER:
        if name not in out:
            span, field = name.rsplit(".", 1)
            if span.split(".")[0] not in layertrace.LAYERS or field not in _SPAN_FIELDS:
                raise ValueError(f"per-layer metric {name!r} names no span field")
            out[name] = totals["names"].get(span, {}).get(field, 0)
    return {name: out[name] for name in PER_LAYER}


def per_layer_metrics(jobs: list) -> dict:
    rows = [job_layer_metrics(j) for j in jobs if j.record is not None]
    return {name: statistics.median(r[name] for r in rows) for name in PER_LAYER}


def result(failures: list, values: dict, units: dict) -> dict:
    """The run's result line: every failed job counts against correctness."""
    n_failed = sum(f is not None for f in failures)
    return {"correct": n_failed == 0, "attempted": len(failures), "failed": n_failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def _first_line(path: str, pattern: str):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                match = re.search(pattern, line)
                if match:
                    return match.group(1).strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    """Host, library versions and thread settings, recorded as found."""
    import numpy
    import scipy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _first_line(os.path.join(base, index, "level"), r"(\d+)")
        kind = _first_line(os.path.join(base, index, "type"), r"(\w+)")
        size = _first_line(os.path.join(base, index, "size"), r"(\S+)")
        if level and kind != "Instruction":
            caches[f"L{level}"] = size
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _first_line("/proc/cpuinfo", r"model name\s*:(.*)") or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "sweep_pool_max_workers": _first_line(os.path.join(ROOT, "src", "zenosim", "cli.py"),
                                              r"max_workers=(\d+)"),
        "notes": "qmat.apply_super.bytes is computed as 16 d^4 per call, not measured",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "zenosim", "__init__.py")):
        print(f"no zenosim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-trace{args.trace}")
    jobs, failures = run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    if all(j.record is None for j in jobs):
        for failure in failures:
            print(f"job failed: {failure}", file=sys.stderr)
        return 1

    env = environment()
    with open(os.path.join(work_dir, "environment.json"), "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=2)
    print("env " + json.dumps(env, sort_keys=True))
    n_failed = sum(f is not None for f in failures)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(jobs)} jobs, {n_failed} failed, failed_frac {n_failed / len(jobs):.3g}")
    for k, (job, failure) in enumerate(zip(jobs, failures)):
        setup = job.record["setup_s"] if job.record else float("nan")
        print(f"  job{k}: wall {job.wall_s:.3f} s, setup {setup:.3f} s, cpu {job.cpu_s:.3f} s, "
              f"peak rss {job.peak_rss_mb:.1f} MB, {failure or 'ok'}")
    if args.trace:
        values, units = per_layer_metrics(jobs), PER_LAYER
    else:
        values, units = end_to_end_metrics(jobs), END_TO_END
    samples = sum(j.record is not None for j in jobs)
    for name, value in values.items():
        note = ", not reached by this workload" if args.trace and value == 0 else ""
        print(f"  {name} = {value:.6g} {units[name]} (median of {samples} jobs{note})")
    print(json.dumps(result(failures, values, units)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
