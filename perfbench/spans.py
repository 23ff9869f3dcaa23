"""Spans around the package's public functions, and the layer metrics
derived from them.

``Tracer.install`` replaces each function listed in ``TRACED`` by a
wrapper in its own module and in every module of the package that
imported it by name, so calls from the benchmark and calls between the
package's modules are both recorded.  A span is (name, start, end,
parent, attributes); spans stay in memory and the worker hands them to
``run.py`` when it ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time

TRACED = {
    "sphere": ("zonal_rule", "segmented_nodes", "segmented_pairs", "biaxial_rule"),
    "solver": ("solve_positive_b", "solve_zero_b", "moments_RI"),
    "mapping": ("boundary_map", "eval_on_axis", "eval_batch", "eval_general"),
    "bounds": ("axis_bound", "directional_bound", "region_envelope"),
    "oracle": ("build_program", "discretized_max", "discretized_max_sphere", "mean_value_residual"),
    "cli": ("main",),
}


def _attributes(name: str, args, out) -> dict:
    """Counts recorded at the boundary where the work happens."""
    if name == "sphere.segmented_pairs":
        return {"nodes": int(len(out[0]))}
    if name == "mapping.eval_batch":
        return {"points": int(len(args[1]))}
    if name in ("solver.solve_positive_b", "solver.solve_zero_b"):
        return {"evaluations": int(out.iterations), "graded": bool(out.breakpoints)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attributes]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span; yields the span's record."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            with self.span(name) as record:
                out = fn(*args, **kwargs)
            record[4] = _attributes(name, args, out)
            if cache_info:
                record[4]["built"] = cache_info().misses > misses
            return out

        return wrapper

    def install(self) -> None:
        package = {k: v for k, v in sys.modules.items() if k.startswith("harmonic_schwarz")}
        for module_name, names in TRACED.items():
            home = package[f"harmonic_schwarz.{module_name}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{module_name}.{attr}", original)
                for module in package.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


PER_LAYER = {
    # name: unit
    "cli.import_s": "s",
    "cli.main_s": "s",
    "sphere.zonal_rule_s": "s",
    "sphere.segmented_nodes_calls": "count",
    "sphere.segmented_nodes_s": "s",
    "sphere.segmented_pairs_nodes": "count",
    "solver.solve_positive_b_s": "s",
    "solver.solve_zero_b_s": "s",
    "solver.evaluations": "count",
    "solver.graded_solves": "count",
    "solver.moments_RI_us": "us",
    "mapping.boundary_map_s": "s",
    "mapping.eval_on_axis_s": "s",
    "mapping.eval_batch_s_per_1k": "s",
    "mapping.kernel_evals": "count",
    "bounds.directional_bound_s": "s",
    "bounds.region_envelope_s": "s",
    "oracle.build_program_s": "s",
    "oracle.discretized_max_s": "s",
    "oracle.discretized_max_sphere_s": "s",
    "oracle.mean_value_residual_s": "s",
    "trace.overhead_pct": "%",
}


def layer_metrics(spans: list, import_samples: list[float]) -> dict:
    """Per-layer figures of one traced pass; 0 where the layer did not run.

    Times are self times summed over the pass, except ``cli.main_s``
    (median inclusive time of one in-process call), ``zonal_rule_s``
    (inclusive time of the builds that missed the cache) and
    ``moments_RI_us`` (mean inclusive time of one call).
    """
    total: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        total[s[0]] = total.get(s[0], 0.0) + t

    def named(name):
        return [s for s in spans if s[0] == name]

    mains = [s[2] - s[1] for s in named("cli.main")]
    builds = [s[2] - s[1] for s in named("sphere.zonal_rule") if s[4].get("built")]
    moments = [s[2] - s[1] for s in named("solver.moments_RI")]
    solves = named("solver.solve_positive_b") + named("solver.solve_zero_b")
    kernel_evals = 0
    for s in named("sphere.segmented_pairs"):
        if s[3] >= 0 and spans[s[3]][0] == "mapping.eval_batch":
            kernel_evals += spans[s[3]][4]["points"] * s[4]["nodes"]
    points = sum(s[4]["points"] for s in named("mapping.eval_batch"))
    return {
        "cli.import_s": statistics.median(import_samples),
        "cli.main_s": statistics.median(mains) if mains else 0.0,
        "sphere.zonal_rule_s": sum(builds),
        "sphere.segmented_nodes_calls": len(named("sphere.segmented_nodes")),
        "sphere.segmented_nodes_s": total.get("sphere.segmented_nodes", 0.0),
        "sphere.segmented_pairs_nodes": kernel_evals / points if points else 0.0,
        "solver.solve_positive_b_s": total.get("solver.solve_positive_b", 0.0),
        "solver.solve_zero_b_s": total.get("solver.solve_zero_b", 0.0),
        "solver.evaluations": sum(s[4]["evaluations"] for s in solves),
        "solver.graded_solves": sum(1 for s in solves if s[4]["graded"]),
        "solver.moments_RI_us": 1e6 * statistics.fmean(moments) if moments else 0.0,
        "mapping.boundary_map_s": total.get("mapping.boundary_map", 0.0),
        "mapping.eval_on_axis_s": total.get("mapping.eval_on_axis", 0.0),
        "mapping.eval_batch_s_per_1k": (
            1e3 * total.get("mapping.eval_batch", 0.0) / points if points else 0.0
        ),
        "mapping.kernel_evals": kernel_evals,
        "bounds.directional_bound_s": total.get("bounds.directional_bound", 0.0)
        + total.get("bounds.axis_bound", 0.0),
        "bounds.region_envelope_s": total.get("bounds.region_envelope", 0.0),
        "oracle.build_program_s": total.get("oracle.build_program", 0.0),
        "oracle.discretized_max_s": total.get("oracle.discretized_max", 0.0),
        "oracle.discretized_max_sphere_s": total.get("oracle.discretized_max_sphere", 0.0),
        "oracle.mean_value_residual_s": total.get("oracle.mean_value_residual", 0.0),
    }
