"""Per-layer spans and counts around calls into scatmap's modules.

The tracer wraps each public function of a layer module (plus the private
crossing solver ``scattering._crossings``, to count solves) and replaces the
name everywhere it is bound: in the defining module, in every module that
did ``from .x import f``, and in the package namespace.  ``model`` is left
unwrapped on purpose: its closed forms run millions of times per run, and
their time shows up in the self time of whichever layer calls them.
``cli.fmt`` is left out for the same reason (one call per output float).

Run as a script it is the launcher of a traced CLI call:

    python bench/tracing.py STATS.json -- <scatmap arguments>

which runs ``scatmap.cli.main`` under the tracer and writes the layer
figures to STATS.json.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("crests", "scattering", "highways", "diffusion", "verify",
          "gridkernels", "contour", "cli")
EXTRA = {("scattering", "_crossings")}
SKIP = {("cli", "fmt")}
ORBIT_BUILDERS = {"build_pseudo_orbit_general", "build_pseudo_orbit_highway"}


class Tracer:
    """Span stack and per-layer accumulators; install() swaps in wrappers."""

    def __init__(self):
        self.stack: list[list] = []          # [layer, time covered by child spans]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.orbit_depth = 0
        self._patched: list[tuple[object, str, object]] = []
        self._miss_errors: tuple[type, ...] = ()

    # ------------------------------------------------------------ wrapping
    def _wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        stack, self_s, inclusive_s, calls = (self.stack, self.self_s,
                                             self.inclusive_s, self.calls)
        hook = getattr(self, "_after_" + qual.replace(".", "_"), None)
        is_builder = layer == "diffusion" and name in ORBIT_BUILDERS
        misses = layer == "scattering"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            if is_builder:
                tracer.orbit_depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tracer._miss_errors:
                if misses and (len(stack) < 2 or stack[-2][0] != "scattering"):
                    tracer.counts["scattering.crossing_misses"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                inclusive_s[qual] += dt
                calls[qual] += 1
                if is_builder:
                    tracer.orbit_depth -= 1
                    if not tracer.orbit_depth:
                        tracer.counts["diffusion.build_s"] += dt
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _after_gridkernels_reduced_poincare_grid(self, args, result):
        self.counts["gridkernels.cells"] += result.size

    def _after_contour_contour_polylines(self, args, result):
        self.counts["contour.vertices"] += sum(len(line) for line in result)

    def _after_scattering__crossings(self, args, result):
        if self.orbit_depth:
            self.counts["diffusion.orbit_solves"] += 1

    def _after_diffusion_build_pseudo_orbit_general(self, args, result):
        if not self.orbit_depth:
            self.counts["diffusion.orbit_points"] += len(result.points)

    _after_diffusion_build_pseudo_orbit_highway = _after_diffusion_build_pseudo_orbit_general

    def install(self):
        errors = importlib.import_module("scatmap.errors")
        self._miss_errors = (errors.NoCrossing, errors.BranchUnavailable,
                             errors.TangencyPoint, errors.SingularCrest)
        modules = [importlib.import_module(f"scatmap.{m}") for m in LAYERS]
        wrappers: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if (layer, name) in SKIP:
                    continue
                if name.startswith("_") and (layer, name) not in EXTRA:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for mod in [m for k, m in sorted(sys.modules.items())
                    if k == "scatmap" or k.startswith("scatmap.")]:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._patched.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    # -------------------------------------------------------------- report
    def figures(self) -> dict[str, float]:
        """Raw sums, additive across processes."""
        out = {f"{layer}.self_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        out["contour.segments_s"] = self.inclusive_s.get("contour.contour_segments", 0.0)
        out["contour.join_s"] = self.inclusive_s.get("contour.join_segments", 0.0)
        out["diffusion.error_bound_s"] = self.inclusive_s.get(
            "diffusion.propagated_error_bound", 0.0)
        out["scattering.crossing_solves"] = self.calls.get("scattering._crossings", 0)
        out["highways.lane_solves"] = self.calls.get("highways.highway_psi", 0)
        out["crests.tangency_calls"] = self.calls.get("crests.tangency_points", 0)
        for key in ("gridkernels.cells", "contour.vertices", "scattering.crossing_misses",
                    "diffusion.orbit_solves", "diffusion.orbit_points", "diffusion.build_s"):
            out[key] = self.counts.get(key, 0)
        return out


def _main(argv: list[str]) -> int:
    stats_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py STATS.json -- <scatmap arguments>")
    cli = importlib.import_module("scatmap.cli")
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.figures(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
