"""Layer spans of a benchmark job, recorded from outside the program.

`Tracer.install` wraps every public function of zenosim's layer modules
(cli, decay, dynamics, model, qmat, superop) and rebinds the wrapper in
every zenosim module that holds the function, so calls through names
imported with `from .model import correlation` are traced as well as calls
through the module.  Each call records a span: name, parent span, thread,
wall interval and the calling thread's CPU time.  Spans and counters stay
in memory; `dump` hands them to the job, which writes them out when it
ends.

`analyse` turns a dumped trace into per-name totals.  A span's self time
is its duration minus the union of its children's intervals; a span that
starts on a worker thread with nothing open on that thread takes the
innermost span open on the main thread as its parent, so the decay-rate
spans of the sweep's thread pool hang under `cli.run_decay_sweep`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time

import numpy as np

LAYERS = ("cli", "decay", "dynamics", "model", "qmat", "superop")
ROOT = "job"


def _size(path: str) -> int:
    return os.path.getsize(path) + os.path.getsize(path + ".meta.json")


# span name -> (counter name, argument the counter reads or None, count)
COUNTERS = {
    "decay.line_shape": ("decay.line_shape.points", "omega", np.size),
    "model.correlation": ("model.correlation.points", "nu", np.size),
    "superop.build_exact": ("superop.build_exact.nodes", None,
                            lambda ch: int(ch.meta["nodes"])),
    "qmat.unitary_exp_stack": ("qmat.unitary_exp_stack.matrices", "hs",
                               lambda hs: int(np.prod(np.shape(hs)[:-2]))),
    "superop.repeat": ("superop.repeat.steps", "n", int),
    # computed traffic of one application: the d^4 complex128 tensor
    "qmat.apply_super": ("qmat.apply_super.bytes", "s",
                         lambda s: 16 * int(np.shape(s)[0]) ** 4),
    "cli.run_twolevel": ("cli.output_bytes", None, _size),
    "cli.run_decay_sweep": ("cli.output_bytes", None, _size),
    "cli.run_spectrum": ("cli.output_bytes", None, _size),
    "cli.run_channel_dump": ("cli.output_bytes", None, _size),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name, _, _ in COUNTERS.values()}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        # a slice is read atomically while the main thread pushes and pops
        tail = stack[-1:] or self._main_stack[-1:] or [0]
        parent = tail[0]
        sid = next(self._ids)
        stack.append(sid)
        c0 = time.thread_time()
        w0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            w1 = time.perf_counter()
            cpu = time.thread_time() - c0
            stack.pop()
            self.spans.append((sid, name, parent, threading.get_ident(), w0, w1, cpu))

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                key, arg, count = counter
                value = result if arg is None else \
                    signature.bind(*args, **kwargs).arguments[arg]
                with self._lock:
                    self.counts[key] += count(value)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of the package's layer modules and
        rebind the wrappers wherever the package refers to them."""
        prefix = package.__name__ + "."
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(prefix)]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__[len(prefix):]
            if layer not in LAYERS:
                continue
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def root(self, fn, *args, **kwargs):
        """Run the job's work inside the root span."""
        return self.span(ROOT, fn, *args, **kwargs)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def analyse(trace: dict) -> dict:
    """Per span name: calls, wall_s, self_s, wait_s; plus the sweep's
    concurrency, the root's layer time, and the counters.

    wall_s and wait_s count only spans with no enclosing span of the same
    name, so a recursive call is not counted twice."""
    spans = {s[0]: s for s in trace["spans"]}
    children = {}
    for s in spans.values():
        children.setdefault(s[2], []).append(s)

    def enclosed_by_same_name(s) -> bool:
        parent = spans.get(s[2])
        while parent is not None:
            if parent[1] == s[1]:
                return True
            parent = spans.get(parent[2])
        return False

    out = {}
    for s in spans.values():
        sid, name, _, _, w0, w1, cpu = s
        kids = [(max(k[4], w0), min(k[5], w1)) for k in children.get(sid, [])]
        row = out.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "wait_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (w1 - w0) - _covered(kids)
        if not enclosed_by_same_name(s):
            row["wall_s"] += w1 - w0
            row["wait_s"] += max(0.0, (w1 - w0) - cpu)
    for s in spans.values():
        if s[1] == "cli.run_decay_sweep":
            kids = children.get(s[0], [])
            row = out[s[1]]
            row["concurrency"] = sum(k[5] - k[4] for k in kids) / (s[5] - s[4])
    roots = [s for s in spans.values() if s[1] == ROOT]
    layers = sum(k[5] - k[4] for r in roots for k in children.get(r[0], []))
    return {"names": out, "counts": dict(trace["counts"]), "layers_s": layers}


def import_times(stderr_text: str, package: str = "zenosim") -> dict:
    """numpy, scipy and the package's own import seconds from the
    `-X importtime` lines of a job's stderr.

    Lines come in post-order (children first) with two spaces of indent
    per nesting level.  Each total sums the outermost modules of that
    top-level name, and numpy modules imported by scipy count as scipy's.
    numpy and scipy are first imported by the package, so its own time is
    its total minus theirs."""
    pending = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        node = {"name": name.strip(), "cum": int(cum) * 1e-6, "kids": []}
        while pending and pending[-1][0] > depth:
            node["kids"].insert(0, pending.pop()[1])
        pending.append((depth, node))

    found = {"numpy": 0.0, "scipy": 0.0, package: 0.0}

    def walk(node, outer: frozenset):
        top = node["name"].split(".")[0]
        libs = {"numpy", "scipy"}
        # a numpy module that scipy pulls in counts as scipy's time
        if top in found and top not in outer and not (top in libs and outer & libs):
            found[top] += node["cum"]
        for kid in node["kids"]:
            walk(kid, outer | {top})

    for _, node in pending:
        walk(node, frozenset())
    return {"import.numpy_s": found["numpy"], "import.scipy_s": found["scipy"],
            "import.zenosim_self_s": found[package] - found["numpy"] - found["scipy"]}

