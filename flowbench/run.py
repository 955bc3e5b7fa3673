"""One flow benchmark: time to a scored NTUplace4h placement.

Runs the full default flow (validate, gp, macro_legal_refine, legal, dp,
route) on the seeded instances of one workload, in turn, for about
``--seconds`` seconds, checks every output with the benchmark's own
code, and prints one JSON object as the last line of standard output::

    python3 flowbench/run.py --workload congested --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced flows;
``--trace 1`` alternates untraced and traced flows and reports the
per-layer metrics of the traced ones.  ``flow_s`` and ``setup_s`` are
scaled to a reference host speed sampled while they run
(``hostspeed.py``).  See ``flowbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check
import hostspeed
import prepare

SETUP_REPEATS = 3
WORK = prepare.ROOT / ".flowbench"
HERE = Path(__file__).resolve().parent
END_TO_END_UNITS = {
    "flow_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "scaled_hpwl": "dbu",
    "hpwl": "dbu",
    "rc": "ratio",
    "ok_share": "fraction",
}


@dataclass
class Flow:
    """One timed flow and what became of it.

    Only scalars outlive the flow, so the designs and results of earlier
    flows do not add to ``peak_rss_mb``.
    """

    traced: bool
    instance: int = 0
    read_s: float = 0.0
    seconds: float = 0.0  # wall time, including any host-speed ticks
    tick_s: float = 0.0   # wall time the host-speed ticks took
    speed: float = 1.0    # host speed over the flow (untraced flows only)
    problems: list = field(default_factory=list)
    score: dict | None = None  # hpwl, rc, scaled_hpwl when run() returned
    character: dict | None = None
    layers: dict = field(default_factory=dict)
    stage_s: float = 0.0
    spans: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def own_s(self) -> float:
        """Wall time of the flow itself."""
        return self.seconds - self.tick_s

    @property
    def reference_s(self) -> float:
        """The flow's wall time at the reference host speed."""
        return self.own_s * self.speed


def character(result, config) -> dict:
    """The properties the workload was chosen for."""
    iters = len(result.gp_report.iterations) if result.gp_report else 0
    rounds = list(result.route_result.overflow_per_round) if result.route_result else []
    # overflow_per_round: L-route commit, then Z refine (only when the
    # L routes overflow), then one entry per maze round.
    maze = max(0, len(rounds) - 2) if rounds and rounds[0] > 0 else 0
    return {
        "gp.outer_iterations": iters,
        "gp.at_cap": int(iters >= config.gp.max_outer_iterations),
        "route.maze_rounds": maze,
        "rc": round(result.rc, 4),
    }


def netlist_of(design) -> check.Netlist:
    """The checker's view of the input files, read into ``design``."""
    from repro.db import NodeKind

    kinds = {
        NodeKind.CELL: check.CELL, NodeKind.FILLER: check.CELL,
        NodeKind.MACRO: check.MACRO, NodeKind.FIXED: check.BLOCK,
        NodeKind.TERMINAL: check.BLOCK, NodeKind.TERMINAL_NI: check.PIN_ONLY,
    }
    nodes = design.nodes
    pins = [p for net in design.nets for p in net.pins]
    return check.Netlist(
        width=np.array([n.width for n in nodes], dtype=float),
        height=np.array([n.height for n in nodes], dtype=float),
        kind=np.array([kinds[n.kind] for n in nodes], dtype=np.int8),
        fence=np.array([-1 if n.region is None else n.region for n in nodes]),
        pin_node=np.array([p.node for p in pins], dtype=np.int64),
        pin_dx=np.array([p.dx for p in pins], dtype=float),
        pin_dy=np.array([p.dy for p in pins], dtype=float),
        net_ptr=np.cumsum([0] + [len(net.pins) for net in design.nets]),
        net_weight=np.array([net.weight for net in design.nets], dtype=float),
        rows=np.array(
            [(r.y, r.height, r.x_min, r.site_width, r.num_sites) for r in design.rows],
            dtype=float,
        ),
        fence_rects=[
            np.array([(r.xl, r.yl, r.xh, r.yh) for r in region.rects], dtype=float)
            for region in design.regions
        ],
    )


def placement_of(design) -> check.Placement:
    """The checker's view of the flow's final node positions."""
    nodes = design.nodes
    return check.Placement(
        x=np.array([n.x for n in nodes], dtype=float),
        y=np.array([n.y for n in nodes], dtype=float),
        rotation=np.array([n.orientation.rotation for n in nodes], dtype=np.int64),
        flipped=np.array([n.orientation.is_flipped for n in nodes], dtype=bool),
    )


def run_flow(workload: str, aux: str, netlist: check.Netlist, *, traced: bool) -> Flow:
    """Read a fresh design, place and score it, check the output."""
    from repro import NTUplace4H, Tracer, use_tracer
    from repro.io import read_bookshelf
    from repro.route.steiner import clear_decompose_cache
    from workloads import flow_config

    import probes

    flow = Flow(traced=traced)
    t0 = time.perf_counter()
    design = read_bookshelf(aux)
    flow.read_s = time.perf_counter() - t0
    config = flow_config(workload)
    clear_decompose_cache()
    gc.collect()
    probe = probes.LayerProbe()
    tracer = Tracer()
    sampler = hostspeed.Sampler()
    try:
        with (probe.installed() if traced else sampler.installed()), \
                use_tracer(tracer if traced else None):
            t0 = time.perf_counter()
            result = NTUplace4H(config).run(design)
            flow.seconds = time.perf_counter() - t0
    except Exception as exc:  # a failed flow is counted, not fatal
        flow.problems.append(f"raised {type(exc).__name__}: {exc}")
        return flow
    if not traced:
        flow.tick_s, flow.speed = sampler.busy_s, sampler.speed
    flow.score = {"hpwl": result.hpwl_final, "rc": result.rc, "scaled_hpwl": result.scaled_hpwl}
    flow.character = character(result, config)
    if result.degraded:
        flow.problems.append(f"degraded: {result.degradation}")
    if not result.legal:
        flow.problems.append("flow reports the placement not legal")
    flow.problems += check.check_flow(
        netlist, placement_of(design),
        hpwl=result.hpwl_final, rc=result.rc, scaled=result.scaled_hpwl,
    )
    if traced:
        flow.layers = probes.layer_metrics(probe, tracer, result, config)
        flow.layers["io.read_s"] = (flow.read_s, "s")
        flow.stage_s = probes.stage_seconds(tracer)
        flow.spans = tracer.finished_spans()
    return flow


def run_flows(workload: str, inputs: list, seconds: float, trace: bool) -> list:
    """Flows on the instances in turn, until the next one would overrun
    ``seconds`` (at least one per instance).

    ``inputs`` holds an (aux path, checker netlist) pair per instance.  The
    traced mode runs pairs on one instance: an untraced flow, then a traced one.
    """
    flows = []
    start = time.perf_counter()
    for step in itertools.count(1):
        instance = (step - 1) % len(inputs)
        aux, netlist = inputs[instance]
        for traced in ((False, True) if trace else (False,)):
            flows.append(run_flow(workload, aux, netlist, traced=traced))
            flows[-1].instance = instance
        elapsed = time.perf_counter() - start
        if step >= len(inputs) and elapsed * (step + 1) / step > seconds:
            return flows


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def over_instances(flows, value) -> float:
    """The mean over instances of the median of ``value`` over each one's flows."""
    per_instance = {}
    for f in flows:
        per_instance.setdefault(f.instance, []).append(value(f))
    return statistics.fmean(median(v) for v in per_instance.values()) if per_instance else 0.0


def end_to_end(flows, setup_s) -> dict:
    done = [f for f in flows if f.score]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "flow_s": over_instances(done, lambda f: f.reference_s),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "scaled_hpwl": over_instances(done, lambda f: f.score["scaled_hpwl"]),
        "hpwl": over_instances(done, lambda f: f.score["hpwl"]),
        "rc": over_instances(done, lambda f: f.score["rc"]),
        "ok_share": sum(not f.failed for f in flows) / len(flows),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(flows) -> dict:
    traced = [f for f in flows if f.traced and f.score]
    out = {}
    for name, (_, unit) in traced[0].layers.items():
        out[name] = {"value": over_instances(traced, lambda f: f.layers[name][0]), "unit": unit}
    out["flow.traced_s"] = {"value": over_instances(traced, lambda f: f.seconds), "unit": "s"}
    untraced = [f for f in flows if not f.traced and f.score]
    out["flow.wall_s"] = {"value": over_instances(untraced, lambda f: f.own_s), "unit": "s"}
    out["host.speed"] = {"value": median([f.speed for f in untraced]), "unit": "ratio"}
    out["flow.stage_gap_s"] = {
        "value": over_instances(traced, lambda f: f.seconds - f.stage_s), "unit": "s",
    }
    # Each traced flow against the untraced flow just before it, so host
    # drift between pairs does not enter the difference.
    pairs = [(p, t) for p, t in zip(flows[0::2], flows[1::2]) if p.score and t.score]
    out["obs.trace_overhead_s"] = {
        "value": median([t.seconds - p.own_s for p, t in pairs]), "unit": "s",
    }
    return out


def physical_cores() -> int:
    """Distinct (physical id, core id) pairs in /proc/cpuinfo, else nproc."""
    pairs, phys = set(), None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "physical id":
                    phys = value.strip()
                elif key.strip() == "core id":
                    pairs.add((phys, value.strip()))
    except OSError:
        pass
    return len(pairs) or os.cpu_count()


def host_stamp(workload: str, seed: int, workers_env) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "physical_cores": physical_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_revision": git_revision(),
        "REPRO_WORKERS": workers_env,  # removed from the environment; None = was unset
        "unix_time": time.time(),
    }


def git_revision():
    """The checkout's commit when it is a git work tree, else None."""
    git = prepare.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def write_lines(path: Path, records) -> None:
    """One JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, default=str) + "\n")


def child(*args) -> str:
    """Run ``prepare.py`` in a fresh interpreter; return its last line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), *args],
        check=True, capture_output=True, text=True, timeout=170,
    )
    return done.stdout.strip().splitlines()[-1]


def self_time_table(flow: Flow, limit: int = 12) -> list:
    import probes

    rows = sorted(probes.self_times(flow.spans).items(), key=lambda kv: -kv[1])
    return [(path, round(seconds, 4)) for path, seconds in rows[:limit]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare.use_repo_source()
    import repro
    from repro.predict import load_predictor
    from workloads import WORKLOADS

    if not Path(repro.__file__).resolve().is_relative_to(prepare.SRC):
        raise SystemExit(f"flowbench: imported repro from {repro.__file__}, not {prepare.SRC}")
    if args.workload not in WORKLOADS:
        raise SystemExit(f"flowbench: unknown workload {args.workload!r}")
    workers_env = os.environ.pop("REPRO_WORKERS", None)
    hybrid = WORKLOADS[args.workload].estimator == "hybrid"

    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-")
    try:
        auxes = json.loads(child("generate", "--workload", args.workload,
                                 "--seed", str(args.seed), "--out", work))
        setup_samples = [
            float(child("setup", "--aux", auxes[0], *(["--predictor"] if hybrid else [])))
            for _ in range(SETUP_REPEATS)
        ]
        from repro.io import read_bookshelf

        inputs = [(aux, netlist_of(read_bookshelf(aux))) for aux in auxes]
        if hybrid:
            load_predictor()  # memoized: flows reuse it, setup_s paid for it
        flows = run_flows(args.workload, inputs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = [f for f in flows if f.score]
    reported = [f for f in done if f.traced] if args.trace else done
    if not reported:
        for f in flows:
            print(f"flowbench: {f.problems}", file=sys.stderr)
        return 1
    failed = sum(f.failed for f in flows)
    metrics = per_layer(flows) if args.trace else end_to_end(flows, median(setup_samples))
    record = {
        "host": host_stamp(args.workload, args.seed, workers_env),
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s": setup_samples,
        "flows": [
            {"traced": f.traced, "instance": f.instance, "seconds": f.seconds,
             "tick_s": f.tick_s, "speed": f.speed, "read_s": f.read_s,
             "problems": f.problems[:20], **(f.character or {})}
            for f in flows
        ],
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if args.trace:
        last = reported[-1]
        record["self_times"] = self_time_table(last, limit=1000)
        write_lines(WORK / "traces" / f"{name}.jsonl", (s.as_record() for s in last.spans))
    write_lines(WORK / "records" / f"{name}.json", [record])

    print("flowbench host:", json.dumps(record["host"]))
    characters = {f.instance: f.character for f in reversed(done)}
    print("flowbench character:", json.dumps([characters[i] for i in sorted(characters)]))
    print("flowbench flows:", json.dumps(
        {"count": len(flows), "instance": [f.instance for f in flows],
         "seconds": [round(f.seconds, 3) for f in flows],
         "speed": [round(f.speed, 4) for f in flows],
         "traced": [f.traced for f in flows]}))
    for f in flows:
        for problem in f.problems[:5]:
            print("flowbench problem:", problem)
    if args.trace:
        print("flowbench self time:", json.dumps(self_time_table(last)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(flows),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
