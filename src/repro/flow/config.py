"""Flow-level configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dp import DPConfig
from repro.gp import GPConfig
from repro.legal import LegalConfig


@dataclass
class FlowConfig:
    """Configuration of the full NTUplace4h-style flow."""

    gp: GPConfig = field(default_factory=GPConfig)
    dp: DPConfig = field(default_factory=DPConfig)
    legal: LegalConfig = field(default_factory=LegalConfig)
    # Cell-only GP refinement after mid-flow macro legalization.
    refine_after_macro_legal: bool = True
    refine_outer_iterations: int = 16
    run_dp: bool = True
    macro_channel: float = 0.0  # clearance reserved around macros
    # Congestion-driven net weighting between GP and the refinement pass
    # (extension lever; complements cell inflation).
    net_weighting: bool = False
    net_weighting_strength: float = 1.0
    net_weighting_max: float = 4.0
    # Timing-driven net weighting (extension; repro.timing STA).
    timing_weighting: bool = False
    timing_weighting_strength: float = 2.0
    timing_weighting_max: float = 5.0
    # Evaluation router settings (see docs/performance.md for tuning).
    route_sweeps: int = 2
    route_maze_rounds: int = 3
    route_max_maze_nets: int = 1500  # per-round cap on maze reroutes
    # 1 = incremental cost refresh after every rip/commit (exact);
    # k > 1 = full cost rebuild every k reroutes (faster, coarser).
    route_cost_refresh: int = 1

    # Resilience (see docs/robustness.md).
    # Validate the design at flow entry and refuse to run on fatal issues.
    validate_input: bool = True
    # Repair fixable issues in place (zero-area cells, stray pins, empty
    # nets, fence rects outside the core, off-chip terminals).
    sanitize: bool = True
    # Write a resumable checkpoint.json here after every completed stage.
    checkpoint_dir: str | None = None
    # Soft per-stage time budgets in seconds, keyed by stage name
    # ("gp", "legal", "dp", "route"); missing/None = unlimited.  Stages
    # wind down at their next loop boundary and the flow result is
    # marked degraded.
    stage_budget: dict = field(default_factory=dict)
    # Observability (see docs/observability.md).
    # Append a run-history record here after every run() (the CLI's
    # --runs-dir / the REPRO_RUNS_DIR environment variable feed this).
    runs_dir: str | None = None

    @staticmethod
    def wirelength_only() -> "FlowConfig":
        """The paper's baseline: identical flow, routability levers off."""
        cfg = FlowConfig()
        cfg.gp.routability = False
        cfg.dp.congestion_aware = False
        return cfg
