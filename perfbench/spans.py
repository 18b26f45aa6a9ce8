"""Span recorder for the traced benchmark run, kept outside the package.

A span has a name, a start, an end and a parent.  Spans stay in memory
and are written out as JSONL when the operation ends.  Layer spans come
from wrapping the module attributes that semimart's own callers look up
at call time (``pipeline`` and ``doob`` bind names with ``from .space
import stop_process``, so each binding is wrapped where it is used).
"""

import functools
import importlib
import json
import resource
import time
from contextlib import contextmanager

# (owner, attribute, span name); owner is a module or "module:Class"
LAYER_WRAPS = (
    ("semimart.pipeline", "discrete_stage", "doob.discrete_stage"),
    ("semimart.pipeline", "continuous_stage", "pipeline.continuous_stage"),
    ("semimart.pipeline", "assemble_decomposition", "pipeline.assemble"),
    ("semimart.pipeline", "_free_lunch", "pipeline.free_lunch"),
    ("semimart.pipeline", "extract_convex", "komlos.extract"),
    ("semimart.pipeline", "extract_convex_multi", "komlos.extract"),
    ("semimart.pipeline", "stop_process", "space.stop_process"),
    ("semimart.pipeline", "check_stopping_time", "space.check_stopping_time"),
    ("semimart.pipeline", "integrate", "integrands.integrate"),
    ("semimart.pipeline", "vr_metric", "integrands.vr_metric"),
    ("semimart.doob", "stop_process", "space.stop_process"),
    ("semimart.doob", "sigma_stop", "doob.sigma_stop"),
    ("semimart.doob", "tau_stop", "doob.tau_stop"),
    ("semimart.doob", "integral_process", "integrands.integral_process"),
    # trees reach it through `decomposer or doob_decompose`
    ("semimart.doob", "doob_decompose", "doob.decompose"),
    # the ensemble's oracle decomposer calls it
    ("semimart.generators", "decompose_with_increments", "doob.decompose"),
    ("semimart.integrands", "integral_process", "integrands.integral_process"),
    ("semimart.integrands", "check_stopping_time", "space.check_stopping_time"),
    ("semimart.space", "check_stopping_time", "space.check_stopping_time"),
    ("semimart.komlos", "min_norm_point", "komlos.min_norm_point"),
    ("semimart.space:FilteredSpace", "cell_average", "space.cell_average"),
    ("semimart.integrands:SimpleIntegrand", "__post_init__", "integrands.integrand_build"),
)

# the verify operation goes through the CLI, which binds its own names
VERIFY_WRAPS = (
    ("semimart.cli", "build_parser", "cli.build_parser"),
    ("semimart.cli", "read_report", "io.read_report"),
    ("semimart.cli", "read_ensemble", "io.read_ensemble"),
    ("semimart.io:EnsembleData", "to_source", "space.filtration"),
    ("semimart.cli", "detect", "pipeline.detect"),
    ("semimart.cli", "report_body", "io.report_body"),
    ("semimart.cli", "first_mismatch", "io.first_mismatch"),
)


def rss_mb() -> float:
    """High-water mark of this process's resident set (ru_maxrss, KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Recorder:
    """Spans of one process plus the exact counts taken at layer boundaries."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, rss_mb after]
        self._stack = []
        self.komlos_steps = 0
        self._pairs = set()
        # keeps every integrand and process seen alive, so id() is never reused
        self._seen = []

    @contextmanager
    def span(self, name: str):
        row = self._open(name)
        try:
            yield row
        finally:
            self._close(row)

    def _open(self, name):
        row = [len(self.spans), self._stack[-1] if self._stack else None, name,
               time.perf_counter(), 0.0, 0.0]
        self.spans.append(row)
        self._stack.append(row[0])
        return row

    def _close(self, row):
        row[4] = time.perf_counter()
        row[5] = rss_mb()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None, before=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            row = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(row)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, traced)

    def install(self, wraps) -> None:
        """Wrap every (owner, attribute) in `wraps`; semimart must be importable."""
        for owner, attr, name in wraps:
            before = after = None
            if name == "integrands.integral_process":
                before = self._count_pair
            elif name == "komlos.extract":
                after = self._count_steps
            self.wrap(_owner(owner), attr, name, after=after, before=before)

    def _count_pair(self, args):
        H, S = args[0], args[1]
        self._seen.append((H, S))
        self._pairs.add((id(H), id(S)))

    def _count_steps(self, result):
        self.komlos_steps += result[0].n_steps

    def pairs(self) -> int:
        return len(self._pairs)

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "a") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, parent, name, start, end, rss in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "rss_mb": rss}) + "\n")


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it its children cover."""
    children = {}
    for row in spans:
        if row[1] is not None:
            children.setdefault(row[1], []).append((row[3], row[4]))
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def descendants(spans, root: int) -> list:
    """Rows strictly below span `root` (ids grow in opening order)."""
    inside = {root}
    out = []
    for row in spans[root + 1:]:
        if row[1] in inside:
            inside.add(row[0])
            out.append(row)
    return out


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds of the outermost spans, self seconds."""
    names = {row[0]: row[2] for row in spans}
    selfs = self_times(spans)
    out = {}
    for sid, parent, name, start, end, _ in spans:
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[sid]
        ancestor = parent
        while ancestor is not None and names[ancestor] != name:
            ancestor = spans[ancestor][1]
        if ancestor is None:
            entry["total_s"] += end - start
    return out
