"""Spans around fraug's public functions, recorded from outside the package.

A Tracer wraps each target function once and puts the wrapper in every
place the function is looked up: each fraug module attribute that refers
to it (names bound by ``from .spectral import rfft_bins`` included) or,
for a method, the class. ``install`` then checks that no module still
refers to an unwrapped target, so no call escapes the trace.

Each call records a span (name, start, end, parent span, run id) in
memory and adds to per-run statistics: calls, busy time, self time (busy
time minus the time spent in wrapped children) and errors. An optional
hook per target adds counts computed from the call's arguments and
result. ``write_spans`` saves the spans when the benchmark ends.
"""

import gzip
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _fraug_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fraug" or name.startswith("fraug."))]


class Tracer:
    """Wraps ``targets``: {span name: (module name, "attr" or "Class.method")}."""

    def __init__(self, targets, hooks=None):
        self.targets = targets
        self.hooks = hooks or {}
        self.run_id = "setup"
        self.runs = ["setup"]
        self.spans = []
        self.stats = defaultdict(lambda: defaultdict(lambda: [0, 0, 0, 0]))
        self.counters = defaultdict(lambda: defaultdict(float))
        self.events = []
        self.seen = Counter()
        self._stack = []
        self._restore = []

    def install(self):
        originals = {}
        for name, (modname, path) in self.targets.items():
            owner = sys.modules[modname]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn)
            originals[id(fn)] = (fn, name)
            if owner_path:  # a method: the class is the only lookup site
                self._patch(owner, attr, wrapper)
                continue
            for mod in _fraug_modules():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)
        escaped = [f"{mod.__name__}.{key} ({originals[id(value)][1]})"
                   for mod in _fraug_modules()
                   for key, value in vars(mod).items()
                   if id(value) in originals and value is originals[id(value)][0]]
        if escaped:
            self.uninstall()
            raise RuntimeError(f"untraced references remain: {escaped}")
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        hook = self.hooks.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0]
            stack.append(frame)
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                run = self.run_id
                spans[idx] = (name, t0, t1, parent, run)
                stat = self.stats[run][name]
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                stat[3] += failed
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def begin(self, run_id):
        """Attribute the following calls to ``run_id`` ("setup" or an operation)."""
        self.run_id = run_id
        if run_id not in self.runs:
            self.runs.append(run_id)

    def op_runs(self):
        return [r for r in self.runs if r != "setup"]

    def per_op(self, source):
        """{key: set-up total + mean over operation runs} of "stats" or "counters".

        Stats become [calls, busy_s, self_s, errors].
        """
        table = self.stats if source == "stats" else self.counters
        empty = [0, 0, 0, 0] if source == "stats" else 0
        ops = self.op_runs()
        out = {}
        for key in {k for run in table.values() for k in run}:
            def value(run):
                return np.asarray(table.get(run, {}).get(key, empty), dtype=np.float64)
            total = value("setup") + sum(value(r) for r in ops) / max(1, len(ops))
            if source == "stats":
                total[1:3] /= 1e9
            out[key] = total.tolist() if source == "stats" else float(total)
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("index,name,start_ns,end_ns,parent,run\n")
            for i, span in enumerate(self.spans):
                if span is not None:
                    fh.write(f"{i},{span[0]},{span[1]},{span[2]},{span[3]},{span[4]}\n")
