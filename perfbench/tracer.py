"""Outside-in layer tracing of rwre, installed from the benchmark's own files.

:meth:`Tracer.install` wraps every public function of the traced rwre
modules and every public method of the classes they define, and installs
each wrapper at every module where the name is looked up: a name imported
with ``from .walk import run_until_batch`` is replaced in the importing
module too, and a module's calls to its own functions go through its
globals, so they are wrapped as well.  Private helpers (``walk._step_batch``,
``criteria._splitting_once``, ...) are not wrapped, so their time shows as
their caller's self time.  The scalar hash primitives in ``EXCLUDED`` are
left out for the same reason: they run millions of times per pass and cost
about what a wrapper costs, so wrapping them would mostly measure the tracer.

Each call records a span (name, start, end, parent) into flat arrays kept in
memory.  A span's self time is its duration minus the durations of its
child spans; calls are strictly nested because the benchmark runs one thread.
Some spans also add counts taken from their arguments or results (rows,
walker-steps, bytes written), so rates are measured where the work happens.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("rng", "environment", "lattice", "walk", "regeneration",
                  "hypercube", "stats", "criteria", "cli")
EXCLUDED = frozenset({"rng.mix64", "rng.mix64_np", "rng.fold", "rng.string_tag"})
ROOT_SPAN = "pass"


def _nsteps(args, kwargs) -> int:
    return int(kwargs["nsteps"] if "nsteps" in kwargs else args[2])


# Counters read result fields directly: calling a wrapped method such as
# ``UntilBatchResult.censored`` here would record a span of its own.
def _until_counts(args, kwargs, out):
    taken = out.steps_taken
    width = len(taken)
    loops = int(taken.max()) if width else 0
    censored = int((out.status == 0).sum())     # walk.STATUS_BUDGET
    return (int(taken.sum()), width * loops, censored, width)


def _file_bytes(index: int):
    def count(args, kwargs, out):
        return (os.path.getsize(args[index]),)
    return count


# Counts per traced name, as a tuple of numbers summed over calls.
COUNTERS = {
    "rng.site_keys_from_base": lambda a, k, out: (len(out),),
    "rng.stream_uniforms": lambda a, k, out: (len(out),),
    "environment.normalize_rows": lambda a, k, out: (len(out),),
    "environment.Environment.transitions_batch": lambda a, k, out: (len(out),),
    "walk.run_fixed_batch": lambda a, k, out: (out.final.shape[0] * _nsteps(a, k),
                                               _nsteps(a, k)),
    "walk.run_until_batch": _until_counts,
    "regeneration.extract_from_steps": lambda a, k, out: (
        len(a[0]), int((~out.censored).sum()), len(out.times)),
    "hypercube.analyze_transitions": lambda a, k, out: (out.Q.shape[0],),
    "hypercube.simulate_cube_exits": lambda a, k, out: (int(out[0].sum()),),
    "regeneration.records_to_csv": _file_bytes(1),
    "cli.write_json": _file_bytes(0),
    "cli.write_csv": _file_bytes(0),
}
PVECS_SUFFIX = ".pvecs_from_uniforms"


def _counter_for(name: str):
    if name.startswith("environment.") and name.endswith(PVECS_SUFFIX):
        return lambda a, k, out: (len(out),)
    return COUNTERS.get(name)


def _rwre_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "rwre" or n.startswith("rwre."))]


def _public_callables(rwre_pkg):
    """(owner, attribute, function, traced name) for every public callable."""
    for short in TRACED_MODULES:
        mod = getattr(rwre_pkg, short)
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield mod, attr, obj, f"{short}.{attr}"
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, member in list(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(
                            member, (staticmethod, classmethod)):
                        yield obj, meth, member, f"{short}.{attr}.{meth}"


class Tracer:
    """Span recorder over the rwre modules; install, run, uninstall, read."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name_id = array("q")
        self._parent = array("q")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack = [-1]
        self.counts: dict[str, list[float]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        counter = _counter_for(name)
        ids, parents, t0s, t1s, stack = (self._name_id, self._parent,
                                         self._t0, self._t1, self._stack)
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(i)
            t0s.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                stack.pop()
            if counter is not None:
                acc = counts.setdefault(name, [])
                for j, v in enumerate(counter(args, kwargs, out)):
                    if j < len(acc):
                        acc[j] += v
                    else:
                        acc.append(v)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextlib.contextmanager
    def span(self, name: str = ROOT_SPAN):
        """Record one benchmark-level span around the body."""
        i = len(self._name_id)
        self._name_id.append(self._id(name))
        self._parent.append(self._stack[-1])
        self._t1.append(0.0)
        self._stack.append(i)
        self._t0.append(time.perf_counter())
        try:
            yield
        finally:
            self._t1[i] = time.perf_counter()
            self._stack.pop()

    # -- installing --------------------------------------------------------
    def install(self) -> None:
        import rwre
        if self._patches:
            raise RuntimeError("tracer already installed")
        for short in TRACED_MODULES:
            __import__(f"rwre.{short}")
        replaced: dict[int, object] = {}
        for owner, attr, member, name in list(_public_callables(rwre)):
            if name in EXCLUDED:
                continue
            if isinstance(member, (staticmethod, classmethod)):
                wrapped = type(member)(self._wrap(member.__func__, name))
            else:
                wrapped = self._wrap(member, name)
                replaced[id(member)] = wrapped
            self._patches.append((owner, attr, member))
            setattr(owner, attr, wrapped)
        # every other module that looks the function up under its own name
        for mod in _rwre_modules():
            for attr, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reading -----------------------------------------------------------
    def aggregate(self) -> dict[str, dict]:
        """Per name: calls, inclusive seconds, self seconds and counts."""
        n = len(self._name_id)
        if n == 0:
            return {}
        ids = np.frombuffer(self._name_id, dtype=np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = np.frombuffer(self._t1) - np.frombuffer(self._t0)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        excl = np.bincount(ids, weights=self_t, minlength=k)
        return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                       "self_s": float(excl[i]),
                       "counts": list(self.counts.get(name, []))}
                for i, name in enumerate(self.names) if calls[i]}

    def span_count(self) -> int:
        return len(self._name_id)


def _get(agg, name, field="self_s", default=0.0):
    rec = agg.get(name)
    return rec[field] if rec else default


def _count(agg, name, j):
    rec = agg.get(name)
    return rec["counts"][j] if rec and len(rec["counts"]) > j else 0.0


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


# (name, unit) of every per-layer metric the traced run reports, besides
# the width sweep; the layer.<module>.self_s rows and trace.remainder_s add
# up to trace.wall_s.
LAYER_METRICS = [
    ("rng.derive_key.calls", "count"),
    ("rng.derive_key.self_s", "s"),
    ("rng.site_keys_from_base.self_s", "s"),
    ("rng.site_keys_from_base.rows_per_s", "1/s"),
    ("rng.stream_uniforms.self_s", "s"),
    ("rng.stream_uniforms.rows_per_s", "1/s"),
    ("environment.pvecs_from_uniforms.self_s", "s"),
    ("environment.pvecs_from_uniforms.rows_per_s", "1/s"),
    ("environment.normalize_rows.self_s", "s"),
    ("environment.normalize_rows.rows_per_s", "1/s"),
    ("environment.Environment.transitions_batch.self_s", "s"),
    ("environment.Environment.transitions_batch.mean_rows", "rows"),
    ("environment.transitions_for_seeds.self_s", "s"),
    ("criteria.MultiSeedEnvironment.transitions_batch.self_s", "s"),
    ("criteria.slab_exit.self_s", "s"),
    ("criteria.discover.self_s", "s"),
    ("criteria.paths.self_s", "s"),
    ("walk.run_fixed_batch.self_s", "s"),
    ("walk.run_fixed_batch.walker_steps_per_s", "1/s"),
    ("walk.run_fixed_batch.mean_width", "walkers"),
    ("walk.run_until_batch.self_s", "s"),
    ("walk.run_until_batch.walker_steps_per_s", "1/s"),
    ("walk.run_until_batch.occupancy", "frac"),
    ("walk.run_until_batch.censored_frac", "frac"),
    ("regeneration.extract_from_steps.self_s", "s"),
    ("regeneration.extract_from_steps.steps_per_s", "1/s"),
    ("regeneration.certified_frac", "frac"),
    ("hypercube.analyze_transitions.self_s", "s"),
    ("hypercube.analyze_transitions.cubes_per_s", "1/s"),
    ("hypercube.simulate_cube_exits.self_s", "s"),
    ("hypercube.simulate_cube_exits.walker_steps_per_s", "1/s"),
    ("stats.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("regeneration.records_to_csv.self_s", "s"),
    ("cli.write_json.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace_overhead_frac", "frac"),
    ("trace.wall_s", "s"),
    ("trace.remainder_s", "s"),
] + [(f"layer.{m}.self_s", "s") for m in TRACED_MODULES]


def walker_steps(agg: dict) -> float:
    """Walker-steps taken by the three stepping engines."""
    return (_count(agg, "walk.run_fixed_batch", 0)
            + _count(agg, "walk.run_until_batch", 0)
            + _count(agg, "hypercube.simulate_cube_exits", 0))


def layer_metrics(agg: dict, n_passes: int, overhead_frac: float) -> dict[str, float]:
    """Per-pass per-layer values from the aggregate of ``n_passes`` traced passes.

    Times are seconds per pass; rates divide a count by the inclusive time
    of the spans that did the work.
    """
    per = 1.0 / n_passes
    m: dict[str, float] = {}
    m["rng.derive_key.calls"] = _get(agg, "rng.derive_key", "calls", 0) * per
    for name in ("rng.derive_key", "environment.transitions_for_seeds",
                 "criteria.MultiSeedEnvironment.transitions_batch",
                 "criteria.slab_exit", "criteria.discover", "criteria.paths",
                 "cli.main", "regeneration.records_to_csv", "cli.write_json"):
        m[f"{name}.self_s"] = _get(agg, name) * per
    for name in ("rng.site_keys_from_base", "rng.stream_uniforms",
                 "environment.normalize_rows"):
        m[f"{name}.self_s"] = _get(agg, name) * per
        m[f"{name}.rows_per_s"] = _ratio(_count(agg, name, 0), _get(agg, name, "incl_s"))
    pvecs = [n for n in agg if n.startswith("environment.") and n.endswith(PVECS_SUFFIX)]
    m["environment.pvecs_from_uniforms.self_s"] = sum(agg[n]["self_s"] for n in pvecs) * per
    m["environment.pvecs_from_uniforms.rows_per_s"] = _ratio(
        sum(_count(agg, n, 0) for n in pvecs), sum(agg[n]["incl_s"] for n in pvecs))
    env_tb = "environment.Environment.transitions_batch"
    m[f"{env_tb}.self_s"] = _get(agg, env_tb) * per
    m[f"{env_tb}.mean_rows"] = _ratio(_count(agg, env_tb, 0), _get(agg, env_tb, "calls", 0))
    fixed = "walk.run_fixed_batch"
    m[f"{fixed}.self_s"] = _get(agg, fixed) * per
    m[f"{fixed}.walker_steps_per_s"] = _ratio(_count(agg, fixed, 0), _get(agg, fixed, "incl_s"))
    m[f"{fixed}.mean_width"] = _ratio(_count(agg, fixed, 0), _count(agg, fixed, 1))
    until = "walk.run_until_batch"
    m[f"{until}.self_s"] = _get(agg, until) * per
    m[f"{until}.walker_steps_per_s"] = _ratio(_count(agg, until, 0), _get(agg, until, "incl_s"))
    m[f"{until}.occupancy"] = _ratio(_count(agg, until, 0), _count(agg, until, 1))
    m[f"{until}.censored_frac"] = _ratio(_count(agg, until, 2), _count(agg, until, 3))
    ext = "regeneration.extract_from_steps"
    m[f"{ext}.self_s"] = _get(agg, ext) * per
    m[f"{ext}.steps_per_s"] = _ratio(_count(agg, ext, 0), _get(agg, ext, "incl_s"))
    m["regeneration.certified_frac"] = _ratio(_count(agg, ext, 1), _count(agg, ext, 2))
    ana = "hypercube.analyze_transitions"
    m[f"{ana}.self_s"] = _get(agg, ana) * per
    m[f"{ana}.cubes_per_s"] = _ratio(_count(agg, ana, 0), _get(agg, ana, "incl_s"))
    sim = "hypercube.simulate_cube_exits"
    m[f"{sim}.self_s"] = _get(agg, sim) * per
    m[f"{sim}.walker_steps_per_s"] = _ratio(_count(agg, sim, 0), _get(agg, sim, "incl_s"))
    m["cli.bytes_written"] = sum(_count(agg, n, 0) for n in (
        "regeneration.records_to_csv", "cli.write_json", "cli.write_csv")) * per
    m["trace_overhead_frac"] = overhead_frac
    modules = {mod: 0.0 for mod in TRACED_MODULES}
    for name, rec in agg.items():
        mod = name.split(".", 1)[0]
        if mod in modules:
            modules[mod] += rec["self_s"]
    m["stats.self_s"] = modules["stats"] * per
    m["trace.wall_s"] = _get(agg, ROOT_SPAN, "incl_s") * per
    m["trace.remainder_s"] = _get(agg, ROOT_SPAN) * per
    for mod, s in modules.items():
        m[f"layer.{mod}.self_s"] = s * per
    return m
