"""Span and counter tracing of reebkit, installed from outside the package.

The package has no instrumentation of its own, so the tracer rebinds
functions and methods while it is installed:

* a module-level function is replaced in every ``reebkit`` module that
  binds it by name (``periods`` lives in ``reebkit.slices`` but is also
  imported by ``reebkit.collar`` and ``reebkit.cli``);
* a method is replaced on its class (``GridIndex.query_ball``,
  ``StandardSphereModel.reeb``), so bound methods handed around as
  callables, such as ``model.reeb`` passed to ``rk4_step``, are traced too;
* a generator (``GridIndex.close_pairs``, ``Mesh.edges``) is timed while
  its consumer pulls items from it, not when it is created, because a
  generator does its work lazily.

Spans are kept in memory as ``[id, parent_id, name, start_s, duration_s]``
rows and written out once, by the caller, when the run ends.  A span's
self time is its duration minus the durations of its child spans.

Hot leaves (field evaluations, pullbacks, deformed Liouville fields) get
counters only: a span per call would cost more than the call and would
split the self time of the loops that call them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute path) of every traced function or method.
SPANS = (
    ("manifest.load_manifest", "reebkit.manifest", "load_manifest"),
    ("manifest.resolve", "reebkit.manifest", "resolve"),
    ("slices.check_closed", "reebkit.slices", "check_closed"),
    ("slices.check_transverse", "reebkit.slices", "check_transverse"),
    ("slices.periods", "reebkit.slices", "periods"),
    ("slices.primitive", "reebkit.slices", "primitive"),
    ("slices.coincident_point_pairs", "reebkit.slices", "ParamSlice.coincident_point_pairs"),
    ("slices.Mesh.neighbors", "reebkit.slices", "Mesh.neighbors"),
    ("slices.Mesh.edges", "reebkit.slices", "Mesh.edges"),
    ("numerics.line_quadrature", "reebkit.numerics", "line_quadrature"),
    ("numerics.integrate_flow", "reebkit.numerics", "integrate_flow"),
    ("numerics.rk4_step", "reebkit.numerics", "rk4_step"),
    ("numerics.newton_solve", "reebkit.numerics", "newton_solve"),
    ("spatial.GridIndex.init", "reebkit.spatial", "GridIndex.__init__"),
    ("spatial.GridIndex.close_pairs", "reebkit.spatial", "GridIndex.close_pairs"),
    ("spatial.GridIndex.query_ball", "reebkit.spatial", "GridIndex.query_ball"),
    ("spatial.GridIndex.nearest_within", "reebkit.spatial", "GridIndex.nearest_within"),
    ("chords.chords_projection", "reebkit.chords", "chords_projection"),
    ("chords.chords_shooting", "reebkit.chords", "chords_shooting"),
    ("chords.capture_events", "reebkit.chords", "_capture_events"),
    ("chords.dedup_chords", "reebkit.chords", "dedup_chords"),
    ("collar.collar_report", "reebkit.collar", "collar_report"),
    ("collar.chord_action", "reebkit.collar", "chord_action"),
    ("collar.extend_h", "reebkit.collar", "extend_h"),
    ("collar.check_deformation", "reebkit.collar", "check_deformation"),
    ("collar.reeb_reparam_check", "reebkit.collar", "reeb_reparam_check"),
    ("report.render_report", "reebkit.report", "render_report"),
    ("report.chord_table", "reebkit.report", "chord_table"),
)

# Counter-only leaves: (counter name, module, attribute path).
COUNTED = (
    ("models.reeb.points", "reebkit.models", "StandardRModel.reeb"),
    ("models.reeb.points", "reebkit.models", "StandardSphereModel.reeb"),
    ("slices.pullback_alpha.points", "reebkit.slices", "pullback_alpha"),
    ("models.liouville_deformed.calls", "reebkit.models", "liouville_deformed"),
)

# Parents whose Newton failures are reported separately, and the failure
# reasons ``NewtonResult.failure`` can carry.
NEWTON_PARENTS = ("chords_projection", "chords_shooting")
NEWTON_REASONS = ("singular_jacobian", "max_iterations")


def _points(arr, width: int) -> int:
    """Number of points in an array of shape (..., width)."""
    return int(np.size(arr)) // width


class Tracer:
    """Collects spans and counters for one request at a time.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original binding.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Drop what was recorded; the wrappers stay installed."""
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def current_name(self) -> str | None:
        return self.spans[self._stack[-1]][2] if self._stack else None

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter() - self._t0, 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int):
        self._stack.pop()
        span = self.spans[sid]
        span[4] = time.perf_counter() - self._t0 - span[3]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used for the CLI roots)."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    # -- wrappers ----------------------------------------------------------

    def _wrap_span(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return tracer._consume(name, fn(*args, **kwargs))

            return gen_wrapper

        if name == "numerics.line_quadrature":
            default_segments = inspect.signature(fn).parameters["segments"].default

            @functools.wraps(fn)
            def quad_wrapper(form, a, b, segments=default_segments):
                tracer.counters["numerics.line_quadrature.nodes"] += 2 * segments + 1
                sid = tracer._open(name)
                try:
                    return fn(form, a, b, segments=segments)
                finally:
                    tracer._close(sid)

            return quad_wrapper

        if name == "numerics.newton_solve":

            @functools.wraps(fn)
            def newton_wrapper(*args, **kwargs):
                parent = tracer.current_name() or ""
                sid = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(sid)
                c = tracer.counters
                c["numerics.newton_solve.iterations"] += result.iterations
                if not result.converged:
                    c["numerics.newton_solve.failed"] += 1
                    short = parent.rsplit(".", 1)[-1]
                    c[f"numerics.newton_solve.failed.{short}.{result.failure}"] += 1
                return result

            return newton_wrapper

        if name == "chords.dedup_chords":

            @functools.wraps(fn)
            def dedup_wrapper(raw, *args, **kwargs):
                sid = tracer._open(name)
                try:
                    kept = fn(raw, *args, **kwargs)
                finally:
                    tracer._close(sid)
                tracer.counters["chords.dedup_chords.merged"] += len(raw) - len(kept)
                return kept

            return dedup_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        return wrapper

    def _consume(self, name: str, gen):
        """Re-yield ``gen``, timing only the work done inside ``next``.

        The span's duration is the summed busy time; between items the
        consumer runs under its own span, not under this one.
        """
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [sid, parent, name, time.perf_counter() - self._t0, 0.0]
        self.spans.append(span)
        try:
            while True:
                self._stack.append(sid)
                t = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    span[4] += time.perf_counter() - t
                    self._stack.pop()
                yield item
        finally:
            gen.close()

    def _wrap_count(self, name: str, fn):
        counters = self.counters
        if name == "models.reeb.points":

            @functools.wraps(fn)
            def reeb_wrapper(model, points):
                counters[name] += _points(points, model.ambient_dim)
                return fn(model, points)

            return reeb_wrapper
        if name == "slices.pullback_alpha.points":

            @functools.wraps(fn)
            def pullback_wrapper(model, slc, u):
                counters[name] += _points(u, slc.param_dim)
                return fn(model, slc, u)

            return pullback_wrapper

        @functools.wraps(fn)
        def call_wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return call_wrapper

    # -- install / restore -------------------------------------------------

    def _rebind(self, module_name: str, path: str, make):
        module = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(module, path)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "reebkit" or mod_name.startswith("reebkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def __enter__(self):
        for name, module, path in SPANS:
            self._rebind(module, path, lambda fn, n=name: self._wrap_span(n, fn))
        for name, module, path in COUNTED:
            self._rebind(module, path, lambda fn, n=name: self._wrap_count(n, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []
        return False

    # -- summary -----------------------------------------------------------

    def layer_totals(self, root_prefix: str = "cli."):
        """Per-layer self seconds and call counts, plus root coverage.

        Returns ``(self_s, calls, root_total_s, root_self_s)`` where the
        roots are the spans whose name starts with ``root_prefix``.
        """
        child_time = defaultdict(float)
        for _, parent, _, _, dur in self.spans:
            if parent >= 0:
                child_time[parent] += dur
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        root_total = root_self = 0.0
        for sid, _, name, _, dur in self.spans:
            own = dur - child_time[sid]
            self_s[name] += own
            calls[name] += 1
            if name.startswith(root_prefix):
                root_total += dur
                root_self += own
        return self_s, calls, root_total, root_self
