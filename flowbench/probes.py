"""Per-layer measurement of one traced flow, taken from outside the program.

Two sources, neither of which changes ``src/``:

* the spans the flow already emits, recorded by a ``repro.obs.Tracer``
  installed with ``use_tracer``;
* :class:`LayerProbe`, which wraps each layer's public entry points at
  their import sites (``repro.gp.placer.minimize_cg``,
  ``BellDensity.value_grad``, ...) for the duration of one traced flow
  and counts and times the calls.  Only the outermost call into a layer
  is timed, so a layer method calling another of the same layer is not
  counted twice.

:func:`layer_metrics` turns both into the ``per_layer`` metrics of
``BENCHMARK.json``; :func:`self_times` gives each span path's time minus
its children's, with ``iter[3]``-style indices collapsed to ``[*]``.
"""

from __future__ import annotations

import re
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module

from repro.obs import get_tracer

# (module, attribute, layer) — the attribute is a module-level name as
# the caller imported it, or ``Class.method`` on the defining class.
# Layer "route" is split into eval/lookahead at call time.
ENTRY_POINTS = (
    ("repro.gp.placer", "GlobalPlacer.place", "placer"),
    ("repro.gp.placer", "minimize_cg", "optim"),
    ("repro.gp.placer", "cluster_design", "clustering"),
    ("repro.gp.placer", "project_into_fences", "fence"),
    ("repro.gp.placer", "optimize_macro_orientations", "orientation"),
    ("repro.gp.fence", "FencePenalty.value_grad", "fence"),
    ("repro.gp.fence", "FencePenalty.value", "fence"),
    ("repro.gp.inflation", "CongestionInflator.update", "inflation"),
    ("repro.gp.inflation", "CongestionInflator.final_router_check", "inflation"),
    ("repro.predict.features", "FeatureExtractor.compute", "predict"),
    ("repro.predict.model", "CongestionPredictor.predict", "predict"),
    ("repro.density.bell", "BellDensity.value_grad", "density"),
    ("repro.density.bell", "BellDensity.value_probe", "density"),
    ("repro.density.bell", "BellDensity.finish_grad", "density"),
    ("repro.density.bell", "BellDensity.value", "density"),
    ("repro.density.bell", "BellDensity.potential", "density"),
    ("repro.wirelength.smooth", "SmoothWirelength.value_grad", "wirelength"),
    ("repro.wirelength.smooth", "SmoothWirelength.value_probe", "wirelength"),
    ("repro.wirelength.smooth", "SmoothWirelength.finish_grad", "wirelength"),
    ("repro.wirelength.smooth", "SmoothWirelength.value", "wirelength"),
    ("repro.route.router", "GlobalRouter.route", "route"),
    ("repro.route.router", "decompose_all", "decompose"),
    ("repro.flow.ntuplace4h", "legalize_macros", "macro_legal"),
)

_INDEX = re.compile(r"\[\d+\]")

# Spans that partition one flow: the acceptance check sums these.
STAGE_SPANS = (
    "validate", "flow/gp", "flow/macro_legal_refine", "flow/legal", "flow/dp", "flow/route",
)


def collapse(path: str) -> str:
    """``flow/gp/iter[12]/cg`` -> ``flow/gp/iter[*]/cg``."""
    return _INDEX.sub("[*]", path)


class LayerProbe:
    """Counts and times calls into the layers' public entry points."""

    def __init__(self):
        self.seconds = defaultdict(float)   # layer -> busy seconds
        self.calls = defaultdict(int)       # attribute -> outermost calls
        self.counts = defaultdict(float)    # counts read off return values
        self.reports = []                   # (metric_prefix, GPReport)
        self._depth = defaultdict(int)

    @contextmanager
    def installed(self):
        """Wrap every entry point; restore the originals on exit."""
        saved = []
        try:
            for module, attr, layer in ENTRY_POINTS:
                owner = import_module(module)
                name = attr
                if "." in attr:
                    cls, name = attr.split(".")
                    owner = getattr(owner, cls)
                original = vars(owner)[name]
                saved.append((owner, name, original))
                setattr(owner, name, self._wrap(original, attr, layer))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def _wrap(self, fn, attr: str, layer: str):
        probe = self

        def wrapper(*args, **kwargs):
            name = layer
            if layer == "route":
                lookahead = "lookahead_route" in get_tracer().current_path()
                name = "route.lookahead" if lookahead else "route.eval"
            if probe._depth[name]:
                return fn(*args, **kwargs)
            probe._depth[name] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                probe.seconds[name] += time.perf_counter() - t0
                probe.calls[attr] += 1
                probe._depth[name] -= 1
            probe._observe(attr, args, out)
            return out

        return wrapper

    def _observe(self, attr: str, args, out) -> None:
        if attr == "GlobalPlacer.place":
            self.reports.append((args[0].metric_prefix, out))
        elif attr == "minimize_cg":
            self.counts["cg_iterations"] += out.iterations
        elif attr == "decompose_all":
            self.counts["mst_hits"] += out[4]["mst_hits"]
            self.counts["mst_misses"] += out[4]["mst_misses"]

    def report(self, prefix: str):
        """The last GP report whose placer carried ``prefix``, if any."""
        found = [r for p, r in self.reports if p == prefix]
        return found[-1] if found else None


def span_totals(spans) -> dict:
    """Collapsed span path -> (total seconds, number of spans)."""
    out = defaultdict(lambda: [0.0, 0])
    for s in spans:
        entry = out[collapse(s.path)]
        entry[0] += s.duration
        entry[1] += 1
    return {k: tuple(v) for k, v in out.items()}


def self_times(spans) -> dict:
    """Collapsed span path -> seconds not covered by its child spans."""
    total = defaultdict(float)
    children = defaultdict(float)
    for s in spans:
        total[s.path] += s.duration
        if s.depth:
            children[s.path.rsplit("/", 1)[0]] += s.duration
    out = defaultdict(float)
    for path, seconds in total.items():
        out[collapse(path)] += seconds - children[path]
    return dict(out)


def layer_metrics(probe: LayerProbe, tracer, result, config) -> dict:
    """The per-layer metrics of one traced flow: name -> (value, unit)."""
    spans = tracer.finished_spans()
    totals = span_totals(spans)

    def busy(path: str) -> float:
        return totals.get(path, (0.0, 0))[0]

    def flag(value: bool) -> int:
        return 1 if value else 0

    gp = probe.report("gp")
    refine = probe.report("gp.refine")
    gp_iters = len(gp.iterations) if gp else 0
    refine_iters = len(refine.iterations) if refine else 0
    inflation = defaultdict(int)
    for report in (gp, refine):
        for key, value in (report.inflation if report else {}).items():
            if isinstance(value, int):
                inflation[key] += value
    fallbacks = sum(1 for e in tracer.events() if e.name == "inflation.drift_fallback")
    value_probes = probe.calls["SmoothWirelength.value_probe"]
    hits, misses = probe.counts["mst_hits"], probe.counts["mst_misses"]
    dp_passes = result.dp_report.passes if result.dp_report else []
    legal = result.legal_result
    return {
        "gp.s": (busy("flow/gp"), "s"),
        "gp.outer_iterations": (gp_iters, "count"),
        "gp.at_cap": (flag(gp_iters >= config.gp.max_outer_iterations), "flag"),
        "gp.guard_rollbacks": (gp.guard_rollbacks if gp else 0, "count"),
        "gp.orientation_s": (probe.seconds["orientation"], "s"),
        "gp.clustering_s": (probe.seconds["clustering"], "s"),
        "gp.coarse_s": (busy("flow/gp/coarse"), "s"),
        "gp.coarse_iterations": (len(gp.coarse_iterations) if gp else 0, "count"),
        "gp.fence_s": (probe.seconds["fence"], "s"),
        "refine.s": (busy("flow/macro_legal_refine/refine"), "s"),
        "refine.outer_iterations": (refine_iters, "count"),
        "refine.at_cap": (flag(refine_iters >= config.refine_outer_iterations), "flag"),
        "macro_legal.s": (probe.seconds["macro_legal"], "s"),
        "optim.cg_calls": (probe.calls["minimize_cg"], "count"),
        "optim.cg_iterations": (probe.counts["cg_iterations"], "count"),
        "optim.cg_s": (probe.seconds["optim"], "s"),
        "optim.probe_accept_ratio": (
            probe.calls["SmoothWirelength.finish_grad"] / value_probes if value_probes else 0.0,
            "ratio",
        ),
        "density.evals": (_layer_calls(probe, "BellDensity."), "count"),
        "density.s": (probe.seconds["density"], "s"),
        "wirelength.evals": (_layer_calls(probe, "SmoothWirelength."), "count"),
        "wirelength.s": (probe.seconds["wirelength"], "s"),
        "inflation.rounds": (probe.calls["CongestionInflator.update"], "count"),
        "inflation.s": (probe.seconds["inflation"], "s"),
        "inflation.router_rounds": (inflation["router_rounds"], "count"),
        "inflation.predictor_rounds": (inflation["predictor_rounds"], "count"),
        "inflation.fallbacks": (fallbacks, "count"),
        "predict.calls": (probe.calls["CongestionPredictor.predict"], "count"),
        "predict.s": (probe.seconds["predict"], "s"),
        "route.calls": (probe.calls["GlobalRouter.route"], "count"),
        "route.eval_s": (probe.seconds["route.eval"], "s"),
        "route.lookahead_s": (probe.seconds["route.lookahead"], "s"),
        "route.maze_rounds": (totals.get("flow/route/maze[*]", (0.0, 0))[1], "count"),
        "route.maze_s": (busy("flow/route/maze[*]"), "s"),
        "route.mst_cache_hits": (hits, "count"),
        "route.mst_cache_misses": (misses, "count"),
        "route.mst_cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "route.total_overflow": (result.total_overflow, "tracks"),
        "legal.s": (busy("flow/legal"), "s"),
        "legal.tetris_s": (busy("flow/legal/tetris"), "s"),
        "legal.abacus_s": (busy("flow/legal/abacus"), "s"),
        "legal.max_displacement": (legal.max_displacement if legal else 0.0, "dbu"),
        "dp.s": (busy("flow/dp"), "s"),
        "dp.global_swap_s": (busy("flow/dp/round[*]/global_swap"), "s"),
        "dp.vertical_swap_s": (busy("flow/dp/round[*]/vertical_swap"), "s"),
        "dp.local_reorder_s": (busy("flow/dp/round[*]/local_reorder"), "s"),
        "dp.matching_s": (busy("flow/dp/round[*]/matching"), "s"),
        "dp.spread_s": (busy("flow/dp/congestion_spread"), "s"),
        "dp.accepted_moves": (sum(p[1] for p in dp_passes), "count"),
        "resilience.validate_s": (busy("validate"), "s"),
    }


def _layer_calls(probe: LayerProbe, prefix: str) -> int:
    return sum(n for attr, n in probe.calls.items() if attr.startswith(prefix))


def stage_seconds(tracer) -> float:
    """Sum of the stage spans that partition one flow."""
    totals = span_totals(tracer.finished_spans())
    return sum(totals.get(path, (0.0, 0))[0] for path in STAGE_SPANS)
