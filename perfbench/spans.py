"""Span tracing of choreo's public layers from the benchmark's own code.

``Tracer.install`` replaces the public functions and methods listed in
``FUNCTIONS`` / ``METHODS`` with wrappers that record one span per call:
name, start, end and the enclosing span.  Spans live in flat arrays and are
turned into per-layer metrics once the traced rounds are over.  Nothing
inside ``choreo`` is modified on disk; ``uninstall`` restores every
attribute.

Two wrapping pitfalls shape ``install``:

* modules import each other's functions by name (``optimize`` binds the
  action kernels, ``cli`` binds ``minimize`` and ``mountain_pass``), so a
  wrapper is written into every ``choreo`` namespace that holds the
  original object, not only the defining module;
* ``choreo/__init__.py`` exports the function ``mountain_pass``, which
  shadows the submodule attribute, so modules are reached through
  ``importlib.import_module``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

MODULES = (
    "loops",
    "action",
    "spectral",
    "bounds",
    "optimize",
    "mountain_pass",
    "verify",
    "svgplot",
    "cli",
)

# (module, attribute, span name)
FUNCTIONS = (
    ("loops", "diagnostics", "loops.diagnostics"),
    ("loops", "min_separation", "loops.min_separation"),
    ("action", "kinetic_value", "action.kinetic_value"),
    ("action", "kinetic_gradient", "action.kinetic_gradient"),
    ("action", "pair_potential", "action.pair_potential"),
    ("action", "pullback_to_coefficients", "action.pullback"),
    ("action", "newton_residual", "action.newton_residual"),
    ("action", "rotating_action", "action.rotating_action"),
    ("optimize", "minimize", "optimize.minimize"),
    ("optimize", "detect_clusters", "optimize.detect_clusters"),
    ("optimize", "multistart", "optimize.multistart"),
    ("mountain_pass", "mountain_pass", "mountain_pass"),
    ("spectral", "classify", "spectral.classify"),
    ("spectral", "circulant_spectrum", "spectral.circulant_spectrum"),
    ("spectral", "predicted_circle", "spectral.predicted_circle"),
    ("bounds", "bound_chain", "bounds.bound_chain"),
    ("bounds", "jensen_gap", "bounds.jensen_gap"),
    ("bounds", "rayleigh_quotient", "bounds.rayleigh_quotient"),
    ("verify", "suite_spectral", "verify.suite_spectral"),
    ("verify", "suite_inequalities", "verify.suite_inequalities"),
    ("verify", "suite_chain", "verify.suite_chain"),
    ("verify", "random_loop", "verify.random_loop"),
    ("svgplot", "orbit_svg", "svgplot.orbit_svg"),
    ("svgplot", "saddle_svg", "svgplot.saddle_svg"),
)

# Objective methods are named per kernel point, e.g. optimize.value@n3d2K6M48
POINT_METHODS = (("value", "optimize.value"), ("value_and_grad", "optimize.value_and_grad"))

# kernel points whose Objective costs are reported (n, d, K, M)
POINTS = ("n3d2K6M48", "n6d2K12M96", "n12d3K12M96", "n3d2K16M66")

SVG_SPANS = ("svgplot.orbit_svg", "svgplot.saddle_svg")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.err = array("b")
        self.svg_bytes = 0
        self.paused = False
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def sid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- span recording -----------------------------------------------------

    def _enter(self, sid: int) -> int:
        i = len(self.name)
        self.name.append(sid)
        self.parent.append(self._stack[-1])
        self.err.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _leave(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _wrap(self, fn, sid: int, collision, count_bytes: bool = False):
        enter, leave, err = self._enter, self._leave, self.err

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            i = enter(sid)
            try:
                out = fn(*args, **kwargs)
            except collision:
                err[i] = 1
                raise
            finally:
                leave(i)
            if count_bytes:
                self.svg_bytes += len(out)
            return out

        return traced

    def _wrap_point_method(self, fn, base: str, collision):
        enter, leave, err, sid = self._enter, self._leave, self.err, self.sid
        key = "_perfbench_sid_" + fn.__name__

        @functools.wraps(fn)
        def traced(obj, *args, **kwargs):
            if self.paused:
                return fn(obj, *args, **kwargs)
            s = obj.__dict__.get(key)
            if s is None:
                s = sid(f"{base}@n{obj.n}d{obj.dim}K{obj.cutoff}M{obj.grid_size}")
                obj.__dict__[key] = s
            i = enter(s)
            try:
                return fn(obj, *args, **kwargs)
            except collision:
                err[i] = 1
                raise
            finally:
                leave(i)

        return traced

    def _wrap_cli_main(self, fn):
        enter, leave, sid = self._enter, self._leave, self.sid

        @functools.wraps(fn)
        def traced(argv=None):
            i = enter(sid(f"cli.{argv[0]}"))
            try:
                return fn(argv)
            finally:
                leave(i)

        return traced

    # -- installation -------------------------------------------------------

    def _replace(self, namespaces, orig, new) -> None:
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, new)
                    self._undo.append((ns, key, orig))

    def install(self) -> None:
        import choreo

        mods = {m: importlib.import_module(f"choreo.{m}") for m in MODULES}
        namespaces = [choreo, *mods.values()]
        collision = mods["action"].CollisionError
        for mod, attr, span in FUNCTIONS:
            orig = getattr(mods[mod], attr)
            new = self._wrap(orig, self.sid(span), collision, span in SVG_SPANS)
            self._replace(namespaces, orig, new)
        objective = mods["optimize"].Objective
        for attr, base in POINT_METHODS:
            orig = getattr(objective, attr)
            setattr(objective, attr, self._wrap_point_method(orig, base, collision))
            self._undo.append((objective, attr, orig))
        loop_cls = mods["loops"].FourierLoop
        sample = loop_cls.sample
        loop_cls.sample = self._wrap(sample, self.sid("loops.sample"), collision)
        self._undo.append((loop_cls, "sample", sample))
        cli_main = mods["cli"].main
        self._replace(namespaces, cli_main, self._wrap_cli_main(cli_main))

    def uninstall(self) -> None:
        while self._undo:
            ns, key, orig = self._undo.pop()
            setattr(ns, key, orig)

    # -- analysis -----------------------------------------------------------

    def layer_metrics(self, rounds: int, results: dict) -> dict:
        """Per-layer metrics from the recorded spans.

        ``.us`` metrics are self time per call (span minus its child spans),
        except the per-point Objective costs, which are inclusive; ``.s``
        metrics are inclusive seconds per call; counts are per round.
        ``results`` carries counts read from the operations' own results:
        ``sweeps``, ``refine_iters`` and ``artifact_bytes`` per round.
        """
        names = np.array(self.names)
        nm = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        err = np.frombuffer(self.err, dtype=np.int8).astype(bool)
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        K = len(names)
        calls = np.bincount(nm, minlength=K)
        self_sum = np.bincount(nm, weights=self_t, minlength=K)
        incl_sum = np.bincount(nm, weights=dur, minlength=K)

        def ids(pred):
            return np.array([i for i, s in enumerate(names) if pred(s)], dtype=int)

        def per_call(sel, total):
            c = int(calls[sel].sum())
            return float(total[sel].sum()) / c if c else 0.0

        def us(*span):
            return 1e6 * per_call(ids(lambda s: s in span), self_sum)

        def seconds(span):
            return per_call(ids(lambda s: s == span), incl_sum)

        def inside(span):
            """Mask of spans that have ``span`` as an ancestor."""
            target = np.zeros(dur.size, bool)
            target[has_parent] = nm[parent[has_parent]] == self._ids.get(span, -2)
            while True:
                up = target.copy()
                up[has_parent] |= target[parent[has_parent]]
                if np.array_equal(up, target):
                    return target
                target = up

        is_value = np.isin(nm, ids(lambda s: s.startswith("optimize.value@")))
        is_vag = np.isin(nm, ids(lambda s: s.startswith("optimize.value_and_grad@")))
        in_min = inside("optimize.minimize")
        in_mp = inside("mountain_pass")
        min_sid = self._ids.get("optimize.minimize", -2)
        minimize_calls = int(np.sum(nm == min_sid))
        descent_iters = int(np.sum(is_vag & in_min)) - minimize_calls
        mp_evals = int(np.sum((is_value | is_vag) & in_mp))
        sweeps = results.get("sweeps", 0)

        def count(span):
            return int(calls[self._ids[span]]) / rounds if span in self._ids else 0.0

        m = {
            "loops.diagnostics.us": us("loops.diagnostics"),
            "loops.diagnostics.calls": count("loops.diagnostics"),
            "loops.min_separation.us": us("loops.min_separation"),
            "loops.sample.calls": count("loops.sample"),
            "action.kinetic.us": us("action.kinetic_value", "action.kinetic_gradient"),
            "action.pair_potential.us": us("action.pair_potential"),
            "action.pair_potential.calls": count("action.pair_potential"),
            "action.pullback.us": us("action.pullback"),
            "action.newton_residual.us": us("action.newton_residual"),
            "action.rotating_action.us": us("action.rotating_action"),
        }
        for point in POINTS:
            for _, base in POINT_METHODS:
                m[f"{base}.us.{point}"] = 1e6 * per_call(
                    ids(lambda s: s == f"{base}@{point}"), incl_sum
                )
        m.update(
            {
                "optimize.value.calls": int(np.sum(is_value)) / rounds,
                "optimize.value_and_grad.calls": int(np.sum(is_vag)) / rounds,
                "optimize.trials_per_iter": (
                    int(np.sum(is_value & in_min)) / descent_iters if descent_iters else 0.0
                ),
                "optimize.collision_rejects": int(np.sum(is_value & in_min & err)) / rounds,
                "optimize.us_per_iter": (
                    1e6 * float(incl_sum[min_sid]) / descent_iters
                    if descent_iters and min_sid >= 0
                    else 0.0
                ),
                "optimize.detect_clusters.us": us("optimize.detect_clusters"),
                "optimize.multistart.s": seconds("optimize.multistart"),
                "mountain_pass.value.calls": int(np.sum(is_value & in_mp)) / rounds,
                "mountain_pass.value_and_grad.calls": int(np.sum(is_vag & in_mp)) / rounds,
                "mountain_pass.evals_per_sweep": mp_evals / rounds / sweeps if sweeps else 0.0,
                "mountain_pass.self_s": 1e-6 * us("mountain_pass"),
                "mountain_pass.sweeps": sweeps,
                "mountain_pass.refine_iters": results.get("refine_iters", 0),
                "spectral.classify.us": us("spectral.classify"),
                "spectral.circulant_spectrum.us": us("spectral.circulant_spectrum"),
                "spectral.circulant_spectrum.calls": count("spectral.circulant_spectrum"),
                "spectral.predicted_circle.us": us("spectral.predicted_circle"),
                "bounds.bound_chain.us": us("bounds.bound_chain"),
                "bounds.jensen_gap.us": us("bounds.jensen_gap"),
                "bounds.rayleigh_quotient.us": us("bounds.rayleigh_quotient"),
                "verify.suite_spectral.s": seconds("verify.suite_spectral"),
                "verify.suite_inequalities.s": seconds("verify.suite_inequalities"),
                "verify.suite_chain.s": seconds("verify.suite_chain"),
                "verify.random_loop.us": us("verify.random_loop"),
                "svgplot.orbit_svg.us": us("svgplot.orbit_svg"),
                "svgplot.bytes": self.svg_bytes / rounds,
                "cli.minimize.s": seconds("cli.minimize"),
                "cli.mpa.s": seconds("cli.mpa"),
                "cli.verify.s": seconds("cli.verify"),
                "cli.classify.us": 1e6 * seconds("cli.classify"),
                "cli.artifact_bytes": results.get("artifact_bytes", 0),
                "trace.spans": dur.size / rounds,
            }
        )
        return m
