"""Span tracing for the benchmark's traced runs.

The tracer wraps functions of ``refbilliard`` from outside the package: it
rebinds every module-level name that refers to a function (the name each
caller looks up at call time) to a wrapper that records a span.  A span has
an id, the id of the span that was open when it started (its parent), a
name, and its start and end times.  Spans stay in memory until
:meth:`Tracer.save` writes them out.

Self time is a span's duration minus the part of it that its child spans
cover.  It is summed per span name as spans close, together with the call
count, so the per-layer figures need no pass over the stored spans.

An untraced run installs none of this; it uses :func:`rebind` only to count
return-map calls where its outputs do not give that count.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "refbilliard"


def rebind(original, replacement) -> None:
    """Point every module-level name bound to ``original`` in the package at
    ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or
                               mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Tracer:
    """In-memory span store with per-name call counts and self time."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict = {}
        self.self_s: dict = {}
        self.counts: dict = {}
        self._stack: list = []
        self._next_id = 0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _record(self, sid, parent, name, t0, t1, self_time) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_id.append(sid)
        self.parent.append(parent)
        self.name_id.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + self_time

    def wrap(self, fn, name, observe=None):
        """``fn`` inside a span.

        ``name`` is the span name, or a callable ``(args, kwargs) -> name``
        when one function serves two paths.  ``observe(tracer, result)``
        reads counts off the returned value.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                self._record(sid, parent, span, t0, t1, t1 - t0 - frame[1])
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def save(self, path: str) -> None:
        """Write every span (id, parent id, name, start, end) to ``path``."""
        np.savez(path, span_id=np.frombuffer(self.span_id, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 name_id=np.array(self.name_id, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 names=np.array(json.dumps(self.names)))


# -- the layers the traced run wraps ------------------------------------------


def _return_map_path(args, kwargs) -> str:
    # the same selection return_map makes: the closed form when asked for,
    # or on "auto" when the profile is the exact circle
    profile = args[1] if len(args) > 1 else kwargs["profile"]
    method = args[3] if len(args) > 3 else kwargs.get("method", "auto")
    fast = method == "fast" or (method == "auto" and profile.is_circle)
    return "returnmap.return_map." + ("fast" if fast else "geometric")


def _refraction(tracer, result) -> None:
    if not result.refracted:
        tracer.count("refraction.total_reflections")


def _chart(tracer, arc) -> None:
    tracer.count("inner.chart_" + arc.chart)


def _crossing(tracer, result) -> None:
    if result is None:
        tracer.count("util.first_crossing.miss")


def _nodes(tracer, curve) -> None:
    tracer.count("caustics.nodes", len(curve.samples))


def _nit(tracer, result) -> None:
    tracer.count("orbits.minimize.nit", int(result.nit))


def _nfev(tracer, result) -> None:
    tracer.count("orbits.root.nfev", int(result.nfev))


# (module, attribute, span name or path selector, observer)
SPANS = (
    ("boundary", "boundary", "boundary.boundary", None),
    ("refraction", "refract_in", "refraction.refract_in", _refraction),
    ("refraction", "refract_out", "refraction.refract_out", _refraction),
    ("outer", "outer_transit", "outer.outer_transit", None),
    ("outer", "outer_arc_fixed_ends", "outer.outer_arc_fixed_ends", None),
    ("inner", "levi_civita_propagate", "inner.levi_civita_propagate", _chart),
    ("inner", "inner_arc_fixed_ends", "inner.inner_arc_fixed_ends", None),
    ("_util", "first_crossing", "util.first_crossing", _crossing),
    ("_util", "extend_and_find", "util.extend_and_find", None),
    ("returnmap", "return_map", _return_map_path, None),
    ("returnmap", "circular_shift", "returnmap.circular_shift", None),
    ("returnmap", "total_shift_grid", "returnmap.total_shift_grid", None),
    ("variational", "generating_function",
     "variational.generating_function", None),
    ("variational", "discrete_action", "variational.discrete_action", None),
    ("variational", "jacobi_length", "variational.jacobi_length", None),
    ("variational", "shift_inverse_all", "variational.shift_inverse_all",
     None),
    ("orbits", "iterate", "orbits.iterate", None),
    ("orbits", "find_periodic", "orbits.find_periodic", None),
    ("orbits", "invariant_curve_probe", "orbits.invariant_curve_probe", None),
    ("caustics", "perturbed_caustic", "caustics.perturbed_caustic", _nodes),
    ("oracle", "ode_return_map", "oracle.ode_return_map", None),
    ("config", "load_config", "config.load_config", None),
    ("cli", "main", "cli.main", None),
)

# scipy solvers as bound in refbilliard.orbits: counted, not spanned
COUNTED = (
    ("orbits", "minimize", _nit),
    ("orbits", "root", _nfev),
)

SPAN_NAMES = tuple(
    name for _, _, name, _ in SPANS if isinstance(name, str)) + (
    "returnmap.return_map.fast", "returnmap.return_map.geometric",
    "svgplot.SvgCanvas.write")

COUNTER_NAMES = ("refraction.total_reflections", "inner.chart_lc",
                 "inner.chart_closed", "util.first_crossing.miss",
                 "orbits.minimize.nit", "orbits.root.nfev", "caustics.nodes")


def install(tracer: Tracer):
    """Wrap every listed layer of the imported package in ``tracer``.

    Returns a function that puts the unwrapped functions back.
    """
    swaps = []
    for module, attr, name, observe in SPANS:
        original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
        swaps.append((original, tracer.wrap(original, name, observe)))
    for module, attr, observe in COUNTED:
        original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
        swaps.append((original, _counting(tracer, original, observe)))
    for original, wrapper in swaps:
        rebind(original, wrapper)
    canvas = sys.modules[f"{PACKAGE}.svgplot"].SvgCanvas
    write = canvas.write
    canvas.write = tracer.wrap(write, "svgplot.SvgCanvas.write")

    def uninstall() -> None:
        for original, wrapper in swaps:
            rebind(wrapper, original)
        canvas.write = write
    return uninstall


def _counting(tracer, fn, observe):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        observe(tracer, result)
        return result
    return counted
