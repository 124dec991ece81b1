"""In-memory span tracer that wraps beamlab's public functions from outside.

Modules bind functions such as ``generate_snapshots`` by name at import,
so replacing the defining module's attribute alone would miss most
calls. ``Tracer`` therefore replaces every attribute of every loaded
``beamlab`` module that refers to a traced function object, and puts the
originals back on exit.

Each call records a span ``(id, parent_id, name, start, end)``; ids are
``(pid, counter)`` pairs so spans from forked pool workers stay unique.
Workers write their spans to ``<work_dir>/spans-<pid>.pickle`` when they
exit, and ``Tracer.collect`` reads them back. A worker span whose parent
is unknown to the collecting process is attached to the root span that
was open when the pool forked.

Self time of a span is its duration minus the union of the intervals its
child spans cover, so parallel children are not counted twice.
"""

import os
import pickle
import sys
import time
from multiprocessing import util as mp_util

# (module, function) pairs traced, named after the module that defines
# them. A pair that the loaded package no longer has is skipped and
# reported in ``Tracer.missing``; its metrics then read zero.
TARGETS = (
    ("harness", "run_experiment"),
    ("harness", "emit_csv"),
    ("array_model", "generate_snapshots"),
    ("array_model", "steering_vector"),
    ("array_model", "steering_matrix"),
    ("_kernels", "steering_grid"),
    ("_kernels", "capon_accumulate"),
    ("covariance", "sample_covariance"),
    ("covariance", "true_ipnc"),
    ("baselines", "conditioned_matrix"),
    ("baselines", "distortionless_solve"),
    ("baselines", "optimal_weights"),
    ("baselines", "scm_mvdr_weights"),
    ("baselines", "diagonal_loading_weights"),
    ("baselines", "capon_integral_weights"),
    ("baselines", "capon_integral_ipnc"),
    ("lcssp", "build_projection"),
    ("lcssp", "select_dimension"),
    ("lcssp", "normalized_error"),
    ("lcssp", "reconstruct_ipnc"),
    ("lcssp", "lcssp_weights"),
    ("metrics", "output_sinr"),
    ("metrics", "beampattern"),
    ("metrics", "default_beampattern_grid"),
)


def span_name(module, func):
    """Metric prefix for a traced function, e.g. ``kernels.steering_grid``."""
    return f"{module.lstrip('_')}.{func}"


class Tracer:
    """Patch the traced functions for the duration of a ``with`` block.

    ``counters`` holds computed counts that repeat exactly for a given
    config: ``loads`` (``conditioned_matrix`` calls that loaded the
    diagonal) and ``snapshot_bytes`` (sum of L * K * 16 over
    ``generate_snapshots`` calls).
    """

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.owner_pid = os.getpid()
        self.spans = []
        self.counters = {"loads": 0, "snapshot_bytes": 0}
        self.missing = []
        self._stack = []
        self._next_id = 0
        self._patched = []
        self._flush_registered = False

    def __enter__(self):
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "beamlab" or name.startswith("beamlab."))
        }
        for module, func in TARGETS:
            original = getattr(modules.get(f"beamlab.{module}"), func, None)
            if original is None:
                self.missing.append(span_name(module, func))
                continue
            wrapper = self._wrap(span_name(module, func), original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = (os.getpid(), tracer._next_id)
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer._record((span_id, parent, name, start, end))
            tracer._count(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record(self, span):
        if os.getpid() != self.owner_pid and not self._flush_registered:
            # First span in a forked worker: drop what the fork copied and
            # write the rest out when the worker exits.
            self.spans.clear()
            self.counters = dict.fromkeys(self.counters, 0)
            self._flush_registered = True
            mp_util.Finalize(None, self._flush, exitpriority=100)
        self.spans.append(span)

    def _count(self, name, args, kwargs, result):
        if name == "baselines.conditioned_matrix":
            matrix = args[0] if args else kwargs.get("matrix")
            if result is not matrix:
                self.counters["loads"] += 1
        elif name == "array_model.generate_snapshots":
            self.counters["snapshot_bytes"] += int(result.size) * result.itemsize

    def _flush(self):
        path = os.path.join(self.work_dir, f"spans-{os.getpid()}.pickle")
        with open(path, "wb") as fh:
            pickle.dump((self.spans, self.counters), fh)

    def collect(self, root_name):
        """Merge worker span files into ``spans`` and delete them.

        Worker spans whose parent is not a known span are re-parented to
        the last ``root_name`` span. The work directory is private to one
        run, so only files this process's own workers wrote are read.
        """
        roots = [s for s in self.spans if s[2] == root_name]
        root = roots[-1] if roots else None
        known = {s[0] for s in self.spans}
        for entry in sorted(os.listdir(self.work_dir)):
            if not (entry.startswith("spans-") and entry.endswith(".pickle")):
                continue
            path = os.path.join(self.work_dir, entry)
            with open(path, "rb") as fh:
                spans, counters = pickle.load(fh)
            os.unlink(path)
            for key, value in counters.items():
                self.counters[key] += value
            own = {s[0] for s in spans}
            for span_id, parent, name, start, end in spans:
                if parent not in known and parent not in own:
                    parent = root[0] if root else None
                self.spans.append((span_id, parent, name, start, end))


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans):
    """Per-name ``{"calls", "incl_s", "self_s"}`` over a list of spans."""
    children = {}
    for span_id, parent, _name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _parent, name, start, end in spans:
        entry = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["incl_s"] += end - start
        entry["self_s"] += (end - start) - _union_length(children.get(span_id, ()))
    return out
