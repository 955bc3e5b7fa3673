"""Global-placement perf-regression harness.

Runs :class:`~repro.gp.placer.GlobalPlacer` on a generated suite design
twice — once with ``GPConfig(reference=True)`` (the original objective,
density, CG, and orientation code paths, kept verbatim as the golden
baseline) and once on the optimized hot paths — verifies the two produce
*bit-identical* final placements, and writes a machine-readable
``BENCH_gp.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_gp_perf.py                  # rh04
    PYTHONPATH=src python benchmarks/bench_gp_perf.py --design rh01 \
        --repeats 1 --out BENCH_gp.json --trace-summary trace.txt

Placement wall time on one design varies run to run (allocator state,
machine load), so each mode is timed ``--repeats`` times in alternating
order and the per-mode *minimum* is compared; the quality numbers (HPWL,
overflow) are mode-independent by construction and are what
``benchmarks/check_regression.py`` gates on.  Result equality is
asserted here, so a CI run fails loudly on any behaviour drift; timing
itself is machine-dependent and not gated.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from common import host_metadata

from repro.benchgen import SUITE, make_suite_design
from repro.gp.config import GPConfig
from repro.gp.placer import GlobalPlacer
from repro.obs import SamplingProfiler, Tracer, format_trace_summary, use_tracer


def _run_gp(design_name: str, reference: bool, tracer=None):
    """Place one fresh copy of the design; returns (wall, state, report)."""
    design = make_suite_design(design_name)
    placer = GlobalPlacer(GPConfig(reference=reference))
    t0 = time.perf_counter()
    if tracer is not None:
        with use_tracer(tracer):
            report = placer.place(design)
    else:
        report = placer.place(design)
    wall = time.perf_counter() - t0
    state = (
        np.array([n.cx for n in design.nodes]),
        np.array([n.cy for n in design.nodes]),
        [n.orientation.name for n in design.nodes],
    )
    return wall, state, report, design


def _assert_identical(ref_state, opt_state) -> None:
    if not np.array_equal(ref_state[0], opt_state[0]) or not np.array_equal(
        ref_state[1], opt_state[1]
    ):
        raise AssertionError("final placements differ between reference and optimized")
    if ref_state[2] != opt_state[2]:
        raise AssertionError("final orientations differ between reference and optimized")


def _stage_breakdown(tracer: Tracer) -> dict:
    """Aggregate traced span wall time by top-level stage name."""
    stages: dict = {}
    for span in tracer.finished_spans():
        name = span.name.split("[")[0]
        stages[name] = stages.get(name, 0.0) + span.duration
    return {k: round(v, 4) for k, v in sorted(stages.items(), key=lambda kv: -kv[1])}


def run_bench(design_name: str, repeats: int):
    ref_times: list[float] = []
    opt_times: list[float] = []
    ref_state = opt_state = None
    report = None
    design = None
    for _ in range(repeats):
        wall, opt_state, report, design = _run_gp(design_name, reference=False)
        opt_times.append(wall)
        wall, ref_state, _, _ = _run_gp(design_name, reference=True)
        ref_times.append(wall)

    _assert_identical(ref_state, opt_state)

    tracer = Tracer()
    profiler = SamplingProfiler(tracer)
    with profiler:
        _run_gp(design_name, reference=False, tracer=tracer)

    baseline = min(ref_times)
    optimized = min(opt_times)
    record = {
        "design": design_name,
        "num_nodes": design.num_nodes,
        "repeats": repeats,
        "baseline_s": round(baseline, 4),
        "baseline_runs_s": [round(t, 4) for t in ref_times],
        "optimized_s": round(optimized, 4),
        "optimized_runs_s": [round(t, 4) for t in opt_times],
        "speedup": round(baseline / optimized, 3),
        "stages_s": _stage_breakdown(tracer),
        "metrics": {
            "hpwl": design.hpwl(),
            "overflow": report.final_overflow,
            "gp_iterations": sum(1 for _ in report.iterations),
        },
        "identical_placements": True,
        # True when any resilience fallback fired mid-bench; the
        # regression gate refuses degraded records.
        "degraded": bool(
            report.guard_rollbacks
            or report.guard_exhausted
            or report.budget_exhausted
        ),
        # Sampling-profiler attribution of the traced run (top-level on
        # purpose: check_regression only gates keys under "metrics").
        "profile": profiler.as_record(),
        "host": host_metadata(),
    }
    return record, tracer, profiler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--design", default="rh04", choices=sorted(SUITE),
        help="suite design to place (default: rh04)",
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--out", default="BENCH_gp.json")
    parser.add_argument(
        "--trace-summary", metavar="PATH",
        help="write the traced optimized run's span/counter summary here",
    )
    args = parser.parse_args(argv)

    record, tracer, profiler = run_bench(args.design, max(1, args.repeats))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(
        f"{record['design']}: baseline {record['baseline_s']:.3f}s  "
        f"optimized {record['optimized_s']:.3f}s  "
        f"speedup {record['speedup']:.2f}x  "
        f"hpwl {record['metrics']['hpwl']:.4g}  "
        f"overflow {record['metrics']['overflow']:.4f}"
    )
    print(f"wrote {args.out}")

    if args.trace_summary:
        with open(args.trace_summary, "w", encoding="utf-8") as fh:
            fh.write(format_trace_summary(tracer, profile=profiler))
            fh.write("\n")
        print(f"wrote {args.trace_summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
