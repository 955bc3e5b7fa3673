"""Configuration of the global placer."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class GPConfig:
    """All knobs of :class:`repro.gp.GlobalPlacer`.

    Defaults reproduce the paper's flow: WA wirelength, routability
    machinery on, hierarchy-aware clustering on for large designs.
    """

    # Wirelength model: "wa" (paper) or "lse" (baseline for Table 4).
    wirelength_model: str = "wa"
    # Smoothing parameter as a multiple of the density bin width.
    gamma_factor: float = 4.0
    # Anneal gamma by this factor every outer iteration (1.0 = fixed).
    gamma_decay: float = 0.98

    # Density grid: about one bin per `bins_per_node` movable nodes.
    target_bins: int | None = None  # explicit bin count overrides sizing
    target_density: float | None = None  # None: average utilization

    # Penalty schedule.
    lambda_initial_ratio: float = 0.12  # lambda0 * |grad D| ~ ratio * |grad WL|
    lambda_growth: float = 1.9
    # Safety cap on outer iterations; the loop normally ends on the
    # overflow target or on the stall stop below.
    max_outer_iterations: int = 40
    inner_iterations: int = 24
    overflow_target: float = 0.06  # stop when density overflow falls below
    # Stall stop: once overflow has reached ``inflation_start_overflow``,
    # stop after this many outer iterations in a row that fail to lower
    # the best overflow by 2% (placer.STALL_MIN_PROGRESS), keeping the
    # last iterate.  Inflation can make the overflow target unreachable;
    # this ends the loop there instead of at the cap.  0 disables it.
    stall_iterations: int = 3

    # Step control (multiples of bin width).
    step_init_bins: float = 6.0
    step_max_bins: float = 12.0

    # Routability.
    routability: bool = True
    inflation_start_overflow: float = 0.45  # begin inflating once spread enough
    inflation_interval: int = 2  # outer iterations between congestion updates
    inflation_exponent: float = 1.4
    inflation_max: float = 2.5  # per-cell area cap
    inflation_total_max: float = 1.25  # total inflated area cap vs original
    congestion_threshold: float = 0.8  # inflate cells above this utilization
    # "rudy" (no routing), "router" (look-ahead route every round), or
    # "hybrid" (learned predictor + periodic router, repro.predict).
    congestion_estimator: str = "rudy"
    # Hybrid estimator: model artifact path (None = packaged default),
    # real-router cadence, and the mean |predicted - routed| drift over
    # hot tiles beyond which the loop falls back to the router.  The
    # tolerance sits well above a healthy model's hot-tile error
    # (~0.3-0.5) — it catches gross breakdown (stale artifact,
    # out-of-distribution design), not routine prediction noise.
    predict_model: str | None = None
    predict_router_interval: int = 4
    predict_drift_tol: float = 0.75
    # Whitespace reservation: scale each density bin's target by its
    # relative routing supply, so starved regions attract fewer cells.
    whitespace_reservation: bool = True
    reservation_floor: float = 0.6  # minimum target scale over starved bins

    # Hierarchy / fences.
    fence_weight_initial_ratio: float = 0.5  # relative to wirelength gradient
    fence_weight_growth: float = 1.6

    # Mixed-size.
    optimize_orientations: bool = True
    orientation_interval: int = 6  # outer iterations between passes
    # Treat movable macros as fixed obstacles (the cell-only GP phase run
    # after mid-flow macro legalization).
    freeze_macros: bool = False

    # Clustering (multilevel V-cycle).
    clustering: bool = True
    cluster_min_nodes: int = 3000  # skip clustering below this size
    cluster_ratio: float = 0.35  # target clusters / cells
    cluster_max_levels: int = 2  # how deep the V-cycle may recurse
    coarse_iteration_fraction: float = 0.5  # share of outers at coarse level

    # Resilience (repro.resilience.guards): NaN/Inf and divergence
    # detection on the outer loop with rollback to the last good iterate
    # plus step/smoothing backoff.  The guard never perturbs a healthy
    # trajectory (the golden-equivalence tests pin this); it only decides
    # what to do when an iteration is already poisoned.
    numerical_guard: bool = True
    guard_max_retries: int = 3
    guard_divergence_ratio: float = 20.0
    guard_divergence_patience: int = 2
    guard_backoff: float = 0.5
    guard_gamma_inflate: float = 2.0

    # Misc.
    seed: int = 7
    verbose: bool = False
    # Golden-equivalence mode: run the original (pre-overhaul) wirelength,
    # density, CG, and objective-assembly implementations verbatim.  The
    # optimized default must produce bit-identical objective values,
    # gradients, and final placements; tests and bench_gp_perf.py assert it.
    reference: bool = False
