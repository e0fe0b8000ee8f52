"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the functions and methods each securesum module
looks up with wrappers that record a span per call, and `uninstall()` puts the
originals back. A name that a later refactor removed is listed in `absent`
rather than failing the run.

Self time is a span's duration minus the union of its child spans. Children on
the same thread never overlap, so their durations add; children started on a
sweep worker thread (whose parent is the span open on the thread that runs the
job) can overlap each other, so their intervals are merged first. Totals are
kept per layer as spans close, and up to `SPANS_PER_LAYER` span records per
layer are kept in memory for `write_spans` at the end of a run.
"""
from __future__ import annotations

import importlib
import json
import threading
import time
import weakref
from collections import defaultdict

SPANS_PER_LAYER = 2000


def _code_leaders(args, result, tracer):
    tracer.count("codes.build_code.leader_entries", len(result.leaders))


def _error_patterns(args, result, tracer):
    tracer.count("codes.exact_error_probability.patterns", 1 << args[0].n)


def _pmf_atoms(args, result, tracer):
    atoms = len(result.probs)
    columns = list(result.columns.values()) + [result.probs]
    tracer.count("analysis.enumerate_joint.atoms", atoms)
    tracer.count("analysis.enumerate_joint.bytes", atoms * sum(c.itemsize for c in columns))


def _mc_trials(args, result, tracer):
    tracer.count("analysis.monte_carlo_error.trials", result.trials)


def _entropy_key(args, result, tracer):
    pmf, variables = args[0], args[1]
    names = (variables,) if isinstance(variables, str) else tuple(variables)
    if tracer.entropy_seen(pmf, tuple(sorted(set(names)))):
        tracer.count("analysis.entropy.distinct", 1)


# (module, attribute path, layer, counter hook). The attribute is the name the
# calling module looks up, so the wrapper sees exactly the calls the CLI makes.
WRAPS = (
    ("securesum.cli", "cmd_simulate", "cli.simulate", None),
    ("securesum.cli", "cmd_leakage", "cli.leakage", None),
    ("securesum.cli", "cmd_sweep", "cli.sweep", None),
    ("securesum.cli", "cmd_region", "cli.region", None),
    ("securesum.cli", "build_code", "codes.build_code", _code_leaders),
    ("securesum.cli", "exact_error_probability", "codes.exact_error_probability", _error_patterns),
    ("securesum.cli", "enumerate_joint", "analysis.enumerate_joint", _pmf_atoms),
    ("securesum.cli", "leakage_report", "analysis.leakage_report", None),
    ("securesum.cli", "rate_report", "analysis.rate_report", None),
    ("securesum.cli", "monte_carlo_error", "analysis.monte_carlo_error", _mc_trials),
    ("securesum.analysis", "JointPmf.entropy", "analysis.entropy", _entropy_key),
    ("securesum.analysis", "run_secure_km", "protocol.replay", None),
    ("securesum.analysis", "run_plain_km", "protocol.replay", None),
    ("securesum.analysis", "run_zero_error_otp", "protocol.replay", None),
    ("securesum.analysis", "run_with_sampling", "protocol.run", None),
    ("securesum.protocol", "sample_pair", "source.sample_pair", None),
    ("securesum.codes", "LinearCode.syndrome_table", "codes.syndrome_table", None),
    ("securesum.gf2", "Gf2Matrix.matvec", "gf2.matvec", None),
    ("securesum.gf2", "Gf2Matrix.rank", "gf2.rank", None),
)

JOB_LAYER = "cli.main"


def merged_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class _Frame:
    __slots__ = ("layer", "span_id", "parent", "t0", "child_s", "cross", "cross_s")

    def __init__(self, layer, span_id, parent):
        self.layer, self.span_id, self.parent = layer, span_id, parent
        self.child_s = 0.0  # same-thread children: sequential, so durations add
        self.cross = []  # children on other threads: intervals that may overlap
        self.cross_s = 0.0
        self.t0 = time.perf_counter()


class Tracer:
    """Spans and counters for one benchmark run; install it around traced passes."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.spans = defaultdict(list)
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._job_stack: list[_Frame] | None = None
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._entropy_sets = weakref.WeakKeyDictionary()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for module_name, path, layer, hook in WRAPS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            if not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(original, layer, hook))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, layer, hook):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if hook is not None:
                try:
                    hook(args, result, tracer)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.count(f"{layer}.hook_errors", 1)  # result shape changed
            return result

        traced.__wrapped__ = fn
        return traced

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def job(self, fn, *args):
        """Run one job as a root span on the calling thread."""
        self._job_stack = self._stack()
        frame = self._open(JOB_LAYER)
        try:
            return fn(*args)
        finally:
            self._close(frame)

    def _open(self, layer: str) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # first span on a sweep worker: its parent is the job thread's open span
            job = self._job_stack
            parent = job[-1] if job and job is not stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        frame = _Frame(layer, span_id, parent)
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = t1 - frame.t0
        with self._lock:
            cross = list(frame.cross)
        self_s = duration - frame.child_s - merged_length(cross, frame.t0, t1)
        parent = frame.parent
        with self._lock:
            self.calls[frame.layer] += 1
            self.total_s[frame.layer] += duration
            self.self_s[frame.layer] += self_s
            if frame.layer == "cli.sweep":
                self.counters["cli.sweep.child_s"] += frame.cross_s
            if parent is not None:
                if stack and stack[-1] is parent:
                    parent.child_s += duration
                else:
                    parent.cross.append((frame.t0, t1))
                    parent.cross_s += duration
            records = self.spans[frame.layer]
            if len(records) < SPANS_PER_LAYER:
                records.append((frame.span_id, parent.span_id if parent else None,
                                threading.get_ident(), frame.t0, t1, self_s))

    # -- counters -----------------------------------------------------------

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] += amount

    def entropy_seen(self, pmf, key) -> bool:
        """True the first time `key` is asked of this pmf."""
        with self._lock:
            try:
                seen = self._entropy_sets.setdefault(pmf, set())
            except TypeError:  # not weak-referenceable: count every call as new
                return True
            if key in seen:
                return False
            seen.add(key)
            return True

    def write_spans(self, path, context: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"context": context,
                                 "fields": ["id", "parent", "thread", "t0", "t1", "self_s"]}) + "\n")
            for layer, records in sorted(self.spans.items()):
                for rec in records:
                    fh.write(json.dumps({"layer": layer, "span": rec}) + "\n")


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass: name -> (value, unit)."""
    c, s, tot, ctr = tracer.calls, tracer.self_s, tracer.total_s, tracer.counters

    def per_pass(value):
        return value / passes

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}

    def layer(name, *fields):
        if "calls" in fields:
            out[f"{name}.calls"] = (per_pass(c[name]), "count")
        if "s" in fields:
            out[f"{name}.s"] = (per_pass(s[name]), "s")

    layer("analysis.entropy", "calls", "s")
    out["analysis.entropy.reuse_ratio"] = (
        1.0 - ratio(ctr["analysis.entropy.distinct"], c["analysis.entropy"]) if c["analysis.entropy"] else 0.0,
        "ratio")
    layer("analysis.enumerate_joint", "calls", "s")
    out["analysis.enumerate_joint.atoms"] = (per_pass(ctr["analysis.enumerate_joint.atoms"]), "count")
    out["analysis.enumerate_joint.atoms_per_s"] = (
        ratio(ctr["analysis.enumerate_joint.atoms"], tot["analysis.enumerate_joint"]), "1/s")
    out["analysis.enumerate_joint.bytes"] = (per_pass(ctr["analysis.enumerate_joint.bytes"]), "bytes")
    layer("analysis.leakage_report", "s")
    layer("analysis.rate_report", "s")
    layer("protocol.replay", "calls", "s")
    layer("codes.build_code", "calls", "s")
    out["codes.build_code.leader_entries"] = (per_pass(ctr["codes.build_code.leader_entries"]), "count")
    layer("gf2.rank", "calls", "s")
    layer("codes.exact_error_probability", "calls", "s")
    out["codes.exact_error_probability.patterns"] = (
        per_pass(ctr["codes.exact_error_probability.patterns"]), "count")
    layer("codes.syndrome_table", "calls", "s")
    layer("analysis.monte_carlo_error", "calls", "s")
    out["analysis.monte_carlo_error.trials"] = (per_pass(ctr["analysis.monte_carlo_error.trials"]), "count")
    out["analysis.monte_carlo_error.us_per_trial"] = (
        1e6 * ratio(tot["analysis.monte_carlo_error"], ctr["analysis.monte_carlo_error.trials"]), "us")
    layer("protocol.run", "calls", "s")
    layer("source.sample_pair", "calls", "s")
    layer("gf2.matvec", "calls", "s")
    for cmd in ("simulate", "leakage", "sweep", "region"):
        layer(f"cli.{cmd}", "s")
    cli_layers = [JOB_LAYER] + [f"cli.{cmd}" for cmd in ("simulate", "leakage", "sweep", "region")]
    out["cli.self_s"] = (per_pass(sum(s[name] for name in cli_layers)), "s")
    out["cli.sweep.concurrency"] = (ratio(ctr["cli.sweep.child_s"], tot["cli.sweep"]), "ratio")
    return out
