"""The benchmark's workloads: a suite shape, a seed rule and a flow config.

Each workload is one shape from ``repro.benchgen.SUITE``.  The
benchmark's ``--seed`` picks the workload's instances: instance ``i``
has generator seed suite seed + ``--seed`` + ``INSTANCE_STRIDE * i``, so
seed 0's first instance uses the suite's seed.  Why each workload was
chosen is in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.benchgen import SUITE
from repro.flow import FlowConfig


INSTANCE_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    shape: str              # suite design whose spec is generated
    estimator: str          # GPConfig.congestion_estimator
    overrides: tuple = ()   # (field, value) changes to the suite spec
    instances: int = 1      # designs per run; their flow times are averaged


# Host speed is factored out of flow_s (hostspeed.py), so what is left
# between seeds is the instances' own work: up to 1.3x on congested.
# Averaging several instances per run narrows it where the time budget
# allows.
WORKLOADS = {
    "congested": Workload("rh02", "rudy", instances=2),
    # At the suite's 68% utilization about half the seeds stop GP at
    # ~14 iterations and the rest run to the cap; at 50% every seed
    # tried stops on its own (12-16 iterations).
    "fenced": Workload("rh03", "rudy", overrides=(("utilization", 0.5),), instances=3),
    "macro_hybrid": Workload("rh04", "hybrid"),
    # Tiny fenced design for the benchmark's own tests (not in
    # BENCHMARK.json); the hybrid estimator exercises every probe.
    "smoke": Workload(
        "rh03", "hybrid",
        overrides=(("num_cells", 240), ("num_macros", 1), ("num_terminals", 16),
                   ("num_fences", 1), ("fence_level", 1)),
        instances=2,
    ),
}


def spec_for(name: str, seed: int, instance: int = 0):
    """The generator spec of instance ``instance`` of ``name`` at benchmark seed ``seed``."""
    wl = WORKLOADS[name]
    base = SUITE[wl.shape]
    return replace(base, name=name, seed=base.seed + seed + INSTANCE_STRIDE * instance,
                   **dict(wl.overrides))


def flow_config(name: str) -> FlowConfig:
    """The default flow, with the workload's congestion estimator."""
    cfg = FlowConfig()
    cfg.gp.congestion_estimator = WORKLOADS[name].estimator
    return cfg
