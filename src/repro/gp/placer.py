"""The routability-driven analytical global placer (NTUplace4h core loop).

Minimizes ``WL + lambda * density (+ mu * fence)`` by projected nonlinear
conjugate gradient, growing ``lambda`` each outer iteration until the
density overflow target is met or overflow stops improving (the stall
stop; ``max_outer_iterations`` is only a safety cap).  Routability-driven
cell inflation and macro orientation passes interleave with the outer
iterations; an optional hierarchy-aware clustering V-cycle accelerates
large designs.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from repro.db import Design, NodeKind
from repro.density import BellDensity
from repro.gp.clustering import cluster_design
from repro.gp.config import GPConfig
from repro.gp.fence import FencePenalty, project_into_fences
from repro.gp.inflation import CongestionInflator
from repro.gp.initial import initial_placement
from repro.gp.orient import optimize_macro_orientations
from repro.grids import BinGrid
from repro.obs import configure_logging, get_logger, get_tracer
from repro.optim import minimize_cg
from repro.resilience.faults import check_fault, fault_armed
from repro.resilience.guards import NumericalGuard, all_finite
from repro.wirelength import hpwl as exact_hpwl
from repro.wirelength import make_model

_log = get_logger("gp")

# Stall stop: an outer iteration is progress only if it lowers the best
# overflow seen since the stop armed by at least this fraction.
STALL_MIN_PROGRESS = 0.02


@dataclass
class IterationStats:
    """One outer iteration of the GP loop (one row of the Fig-1 curves)."""

    outer: int
    hpwl: float
    smooth_wl: float
    density: float
    overflow: float
    lam: float
    mean_inflation: float
    fence: float = 0.0
    gamma: float = 0.0     # WA/LSE smoothing parameter this iteration
    step: float = 0.0      # last accepted CG line-search step (die units)
    cg_iters: int = 0      # inner CG iterations spent this outer iteration


@dataclass
class GPReport:
    """Outcome of :meth:`GlobalPlacer.place`."""

    iterations: list = field(default_factory=list)
    final_hpwl: float = 0.0
    final_overflow: float = 0.0
    runtime_seconds: float = 0.0
    coarse_iterations: list = field(default_factory=list)
    orientation_changes: int = 0
    fence_projected: int = 0
    guard_rollbacks: int = 0        # numerical-guard recoveries taken
    guard_events: list = field(default_factory=list)  # GuardEvent dicts
    guard_exhausted: bool = False   # retries ran out; kept last-good state
    budget_exhausted: bool = False  # stage watchdog expired mid-descent
    inflation: dict = field(default_factory=dict)  # hybrid-estimator stats
    # Why the outer loop ended: "target" (overflow target met), "stalled"
    # (no overflow progress over GPConfig.stall_iterations), "cap"
    # (max_outer_iterations), "budget" (stage watchdog) or "guard"
    # (numerical-guard retries exhausted).
    stop_reason: str = ""

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def telemetry(self) -> dict:
        """Column-oriented per-outer-iteration series (plot-ready)."""
        its = self.iterations
        return {
            "outer": [s.outer for s in its],
            "hpwl": [s.hpwl for s in its],
            "overflow": [s.overflow for s in its],
            "lam": [s.lam for s in its],
            "gamma": [s.gamma for s in its],
            "step": [s.step for s in its],
            "cg_iters": [s.cg_iters for s in its],
            "mean_inflation": [s.mean_inflation for s in its],
            "fence": [s.fence for s in its],
            "stop_reason": self.stop_reason,
        }


class GlobalPlacer:
    """Analytical global placement over a :class:`~repro.db.Design`."""

    # Namespace for this placer's metric series ("gp.hpwl", ...).  The
    # coarse V-cycle and the flow's post-macro refinement pass override
    # it so their samples don't interleave with the main trajectory.
    metric_prefix = "gp"

    def __init__(self, config: GPConfig | None = None):
        self.config = config or GPConfig()

    # ------------------------------------------------------------------
    def place(
        self, design: Design, *, warm_start: bool = False, watchdog=None
    ) -> GPReport:
        """Run global placement, mutating node positions in ``design``.

        ``watchdog`` is an optional :class:`repro.resilience.StageWatchdog`;
        when its budget expires the outer loop winds down at the next
        iteration boundary and the report is marked ``budget_exhausted``.
        """
        cfg = self.config
        if cfg.verbose:
            configure_logging(logging.INFO)
        tracer = get_tracer()
        t0 = time.perf_counter()
        report = GPReport()
        movable = design.movable_indices()
        if len(movable) == 0:
            report.stop_reason = "target"
            report.runtime_seconds = time.perf_counter() - t0
            return report

        if not warm_start:
            with tracer.span("initial"):
                initial_placement(design, seed=cfg.seed)

        if (
            cfg.clustering
            and cfg.cluster_max_levels > 0
            and len(movable) >= cfg.cluster_min_nodes
        ):
            with tracer.span("coarse", level=cfg.cluster_max_levels):
                clustered = cluster_design(design, ratio=cfg.cluster_ratio)
                coarse_placer = GlobalPlacer(self._coarse_config())
                coarse_placer.metric_prefix = self.metric_prefix + ".coarse"
                coarse_report = coarse_placer.place(
                    clustered.coarse, watchdog=watchdog
                )
                report.budget_exhausted = coarse_report.budget_exhausted
                # Surface the deepest level's trajectory for inspection.
                report.coarse_iterations = (
                    coarse_report.coarse_iterations or coarse_report.iterations
                )
                clustered.transfer_positions()

        flat = self._place_flat(design, report, watchdog=watchdog)
        report.final_hpwl = design.hpwl()
        report.final_overflow = flat
        report.runtime_seconds = time.perf_counter() - t0
        return report

    def _coarse_config(self) -> GPConfig:
        cfg = self.config
        coarse = GPConfig(**vars(cfg))
        # Recurse while levels remain; each level halves the budget and
        # relaxes the spreading target (fine levels do the precise work).
        coarse.cluster_max_levels = cfg.cluster_max_levels - 1
        coarse.max_outer_iterations = max(
            4, int(cfg.max_outer_iterations * cfg.coarse_iteration_fraction)
        )
        coarse.optimize_orientations = cfg.optimize_orientations
        coarse.overflow_target = max(cfg.overflow_target, 0.15)
        return coarse

    # ------------------------------------------------------------------
    def _place_flat(self, design: Design, report: GPReport, watchdog=None) -> float:
        cfg = self.config
        core = design.core
        movable_mask = design.movable_mask()
        if cfg.freeze_macros:
            movable_mask &= ~design.macro_mask()
        mov = np.flatnonzero(movable_mask)
        m = len(mov)
        if m == 0:
            overflow = self._overflow_design(design)
            self._record_stop(report, "target", -1, overflow)
            return overflow

        grid = self._density_grid(design, len(mov))
        fixed_rects = [
            (n.rect.xl, n.rect.yl, n.rect.xh, n.rect.yh)
            for n in design.nodes
            if n.kind.is_fixed and n.kind.blocks_placement
        ]
        if cfg.freeze_macros:
            fixed_rects += [
                (n.rect.xl, n.rect.yl, n.rect.xh, n.rect.yh)
                for n in design.nodes
                if n.kind is NodeKind.MACRO
            ]

        cx, cy = design.pull_centers()
        widths, heights = design.placed_sizes()
        target_scale = None
        if cfg.routability and cfg.whitespace_reservation and design.routing is not None:
            target_scale = self._reservation_scale(design, grid, cfg.reservation_floor)
        density = BellDensity(
            grid,
            widths,
            heights,
            movable_mask,
            fixed_rects=fixed_rects,
            target_density=cfg.target_density,
            target_scale=target_scale,
            reference=cfg.reference,
        )
        fence = FencePenalty(design)
        inflator = None
        if cfg.routability and design.routing is not None:
            inflator = CongestionInflator(
                design,
                exponent=cfg.inflation_exponent,
                max_inflation=cfg.inflation_max,
                total_max=cfg.inflation_total_max,
                threshold=cfg.congestion_threshold,
                estimator=cfg.congestion_estimator,
                predict_model=cfg.predict_model,
                router_interval=cfg.predict_router_interval,
                drift_tol=cfg.predict_drift_tol,
                reference=cfg.reference,
            )

        gamma = cfg.gamma_factor * max(grid.bin_w, grid.bin_h)
        arrays = design.pin_arrays(reference=cfg.reference)
        wl_model = make_model(
            cfg.wirelength_model,
            arrays,
            len(design.nodes),
            gamma,
            reference=cfg.reference,
        )

        # Bounds for the projection (centre coordinates).
        half_w = widths[mov] / 2.0
        half_h = heights[mov] / 2.0
        lo_x = core.xl + half_w
        hi_x = np.maximum(core.xh - half_w, lo_x)
        lo_y = core.yl + half_h
        hi_y = np.maximum(core.yh - half_h, lo_y)

        state = {"lam": None, "mu": None}

        def pack() -> np.ndarray:
            return np.concatenate([cx[mov], cy[mov]])

        def unpack(v: np.ndarray) -> None:
            cx[mov] = v[:m]
            cy[mov] = v[m:]

        if cfg.reference:
            # The original objective assembly, kept verbatim: fresh copies
            # in the projection, full-size gradient temporaries, and a
            # concatenate per evaluation.
            def project(v: np.ndarray) -> np.ndarray:
                out = v.copy()
                out[:m] = np.clip(out[:m], lo_x, hi_x)
                out[m:] = np.clip(out[m:], lo_y, hi_y)
                return out

            def objective(v: np.ndarray):
                unpack(v)
                wl_v, wl_gx, wl_gy = wl_model.value_grad(cx, cy)
                d_v, d_gx, d_gy = density.value_grad(cx, cy)
                f = wl_v + state["lam"] * d_v
                gx = wl_gx + state["lam"] * d_gx
                gy = wl_gy + state["lam"] * d_gy
                if fence.active:
                    f_v, f_gx, f_gy = fence.value_grad(cx, cy)
                    f += state["mu"] * f_v
                    gx += state["mu"] * f_gx
                    gy += state["mu"] * f_gy
                return f, np.concatenate([gx[mov], gy[mov]])
        else:
            # Optimized assembly: clip in place (the CG owns its trial
            # buffers), gather movable gradients straight into one reused
            # output vector.  Arithmetic matches the reference term by
            # term, so values and gradients are bit-identical.
            g_buf = np.empty(2 * m)
            t_mov = np.empty(m)

            def project(v: np.ndarray) -> np.ndarray:
                np.clip(v[:m], lo_x, hi_x, out=v[:m])
                np.clip(v[m:], lo_y, hi_y, out=v[m:])
                return v

            def objective(v: np.ndarray):
                unpack(v)
                wl_v, wl_gx, wl_gy = wl_model.value_grad(cx, cy)
                d_v, d_gx, d_gy = density.value_grad(cx, cy)
                lam = state["lam"]
                f = wl_v + lam * d_v
                gx = g_buf[:m]
                gy = g_buf[m:]
                np.take(wl_gx, mov, out=gx)
                np.take(d_gx, mov, out=t_mov)
                np.multiply(t_mov, lam, out=t_mov)
                gx += t_mov
                np.take(wl_gy, mov, out=gy)
                np.take(d_gy, mov, out=t_mov)
                np.multiply(t_mov, lam, out=t_mov)
                gy += t_mov
                if fence.active:
                    f_v, f_gx, f_gy = fence.value_grad(cx, cy)
                    mu = state["mu"]
                    f += mu * f_v
                    np.take(f_gx, mov, out=t_mov)
                    np.multiply(t_mov, mu, out=t_mov)
                    gx += t_mov
                    np.take(f_gy, mov, out=t_mov)
                    np.multiply(t_mov, mu, out=t_mov)
                    gy += t_mov
                return f, g_buf

            # Value/gradient split for the CG line search: rejected trial
            # points only pay for the value half; the gradient of an
            # accepted point is finished from the models' stashed tables
            # with the same op sequence as ``objective``, so the split is
            # bit-identical to a full evaluation.
            fence_cache = [None, None]

            def probe(v: np.ndarray) -> float:
                unpack(v)
                wl_v = wl_model.value_probe(cx, cy)
                d_v = density.value_probe(cx, cy)
                f = wl_v + state["lam"] * d_v
                if fence.active:
                    f_v, f_gx, f_gy = fence.value_grad(cx, cy)
                    f += state["mu"] * f_v
                    fence_cache[0] = f_gx
                    fence_cache[1] = f_gy
                return f

            def finish_grad() -> np.ndarray:
                wl_gx, wl_gy = wl_model.finish_grad()
                d_gx, d_gy = density.finish_grad()
                lam = state["lam"]
                gx = g_buf[:m]
                gy = g_buf[m:]
                np.take(wl_gx, mov, out=gx)
                np.take(d_gx, mov, out=t_mov)
                np.multiply(t_mov, lam, out=t_mov)
                gx += t_mov
                np.take(wl_gy, mov, out=gy)
                np.take(d_gy, mov, out=t_mov)
                np.multiply(t_mov, lam, out=t_mov)
                gy += t_mov
                if fence.active:
                    mu = state["mu"]
                    np.take(fence_cache[0], mov, out=t_mov)
                    np.multiply(t_mov, mu, out=t_mov)
                    gx += t_mov
                    np.take(fence_cache[1], mov, out=t_mov)
                    np.multiply(t_mov, mu, out=t_mov)
                    gy += t_mov
                return g_buf

            objective.probe = probe
            objective.finish_grad = finish_grad

        if fault_armed("gp.nan_gradient"):
            # Deterministic NaN poisoning: the hit index counts full
            # objective evaluations inside the CG.  The wrapper carries no
            # probe/finish_grad attributes, so the CG falls back to full
            # evaluations while the fault is armed — the poison cannot be
            # skipped by the value-only line-search path.
            inner_objective = objective

            def objective(v: np.ndarray):
                f, g = inner_objective(v)
                if check_fault("gp.nan_gradient") is not None:
                    return float("nan"), np.full_like(g, np.nan)
                return f, g

        guard = None
        if cfg.numerical_guard:
            guard = NumericalGuard(
                max_retries=cfg.guard_max_retries,
                divergence_ratio=cfg.guard_divergence_ratio,
                divergence_patience=cfg.guard_divergence_patience,
                backoff=cfg.guard_backoff,
                gamma_inflate=cfg.guard_gamma_inflate,
            )

        # -- initialize the penalty weights from the gradient balance.
        _, wl_gx, wl_gy = wl_model.value_grad(cx, cy)
        _, d_gx, d_gy = density.value_grad(cx, cy)
        wl_norm = float(np.abs(wl_gx[mov]).sum() + np.abs(wl_gy[mov]).sum())
        d_norm = float(np.abs(d_gx[mov]).sum() + np.abs(d_gy[mov]).sum())
        state["lam"] = cfg.lambda_initial_ratio * wl_norm / max(d_norm, 1e-12)
        if fence.active:
            _, f_gx, f_gy = fence.value_grad(cx, cy)
            f_norm = float(np.abs(f_gx[mov]).sum() + np.abs(f_gy[mov]).sum())
            # When every fenced cell already sits inside its region the
            # fence gradient vanishes; floor the normalizer at the
            # gradient a one-bin displacement of all fenced cells would
            # produce, so mu stays finite and the penalty merely *keeps*
            # cells in rather than walling off the line search.
            n_fenced = sum(
                1 for n in design.nodes if n.region is not None and n.is_movable
            )
            floor = 2.0 * max(grid.bin_w, grid.bin_h) * max(n_fenced, 1)
            state["mu"] = cfg.fence_weight_initial_ratio * wl_norm / max(f_norm, floor)
        else:
            state["mu"] = 0.0

        step_init = cfg.step_init_bins * max(grid.bin_w, grid.bin_h)
        step_max = cfg.step_max_bins * max(grid.bin_w, grid.bin_h)
        overflow = self._overflow(
            design, density, cx, cy, widths, heights, mov, reference=cfg.reference
        )
        v = project(pack())
        unpack(v)
        if guard is not None:
            # Seed the rollback target with the pre-descent state so even
            # a poisoned first iteration has somewhere to return to.  The
            # infinite HPWL keeps the divergence tracker disarmed until a
            # real iteration commits.
            guard.commit(
                v,
                gamma=wl_model.gamma,
                step_init=step_init,
                step_max=step_max,
                hpwl=float("inf"),
            )

        tracer = get_tracer()
        metrics = tracer.metrics
        prefix = self.metric_prefix
        # Stall stop state: ``best`` is None until overflow first reaches
        # the inflation gate; after that, ``idle`` counts committed outer
        # iterations that did not improve on it by STALL_MIN_PROGRESS.
        # Retries after a guard rollback ``continue`` past this bookkeeping.
        best = None
        idle = 0
        stop = "cap"
        outer = -1
        for outer in range(cfg.max_outer_iterations):
            with tracer.span(f"iter[{outer}]"):
                if (
                    inflator is not None
                    and overflow <= cfg.inflation_start_overflow
                    and outer % cfg.inflation_interval == 0
                ):
                    with tracer.span("inflation"):
                        areas = inflator.update(arrays, cx, cy, movable_mask)
                        density.set_areas(areas)
                if (
                    cfg.optimize_orientations
                    and not cfg.freeze_macros
                    and outer > 0
                    and outer % cfg.orientation_interval == 0
                ):
                    with tracer.span("orientation"):
                        changed = self._orientation_pass(design, cx, cy)
                    report.orientation_changes += changed
                    if changed:
                        arrays = design.pin_arrays(reference=cfg.reference)
                        if cfg.reference:
                            wl_model = make_model(
                                cfg.wirelength_model,
                                arrays,
                                len(design.nodes),
                                wl_model.gamma,
                                reference=True,
                            )
                        else:
                            # Orientation changes swap pin offsets but keep
                            # the topology: reuse the CSR compaction.
                            wl_model.rebind(arrays)

                with tracer.span("cg"):
                    result = minimize_cg(
                        objective,
                        v,
                        max_iter=cfg.inner_iterations,
                        step_init=step_init,
                        step_max=step_max,
                        project=project,
                        reference=cfg.reference,
                    )
                v = result.x
                unpack(v)
                with tracer.span("gradient"):
                    overflow = self._overflow(
                        design, density, cx, cy, widths, heights, mov,
                        reference=cfg.reference,
                    )
                    wl_exact = exact_hpwl(arrays, cx, cy)
                if guard is not None:
                    poisoned = result.nonfinite or not all_finite(wl_exact, overflow)
                    if poisoned or guard.diverged(wl_exact):
                        reason = "nonfinite" if poisoned else "divergence"
                        detail = (
                            f"f={result.value} |g|={result.grad_norm}"
                            if poisoned
                            else f"hpwl={wl_exact}"
                        )
                        snap = guard.recover(outer, reason, detail)
                        metrics.counter(prefix + ".guard.rollbacks").inc()
                        tracer.event(
                            "guard.rollback",
                            outer=outer,
                            reason=reason,
                            recovered=snap is not None,
                        )
                        _log.warning(
                            "[%s %s] outer=%d %s detected; %s",
                            prefix,
                            design.name,
                            outer,
                            reason,
                            "rolling back" if snap is not None else "retries exhausted",
                        )
                        if snap is None:
                            # No snapshot or retries exhausted: keep the
                            # best state we have and stop cleanly.
                            report.guard_exhausted = True
                            stop = "guard"
                            if guard.last_good is not None:
                                v = np.array(guard.last_good.v, copy=True)
                                unpack(v)
                                wl_model.gamma = guard.last_good.gamma
                                overflow = self._overflow(
                                    design, density, cx, cy, widths, heights,
                                    mov, reference=cfg.reference,
                                )
                            break
                        v = np.array(snap.v, copy=True)
                        unpack(v)
                        step_init = snap.step_init
                        step_max = snap.step_max
                        wl_model.gamma = snap.gamma
                        overflow = self._overflow(
                            design, density, cx, cy, widths, heights, mov,
                            reference=cfg.reference,
                        )
                        continue  # retry from the snapshot, same lam/mu
                stats = IterationStats(
                    outer=outer,
                    hpwl=wl_exact,
                    smooth_wl=wl_model.value(cx, cy),
                    density=density.value(cx, cy),
                    overflow=overflow,
                    lam=state["lam"],
                    mean_inflation=inflator.mean_inflation if inflator else 1.0,
                    fence=fence.value(cx, cy) if fence.active else 0.0,
                    gamma=wl_model.gamma,
                    step=result.final_step,
                    cg_iters=result.iterations,
                )
                report.iterations.append(stats)
                metrics.record(prefix + ".hpwl", outer, wl_exact)
                metrics.record(prefix + ".overflow", outer, overflow)
                metrics.record(prefix + ".lam", outer, state["lam"])
                metrics.record(prefix + ".gamma", outer, wl_model.gamma)
                metrics.record(prefix + ".step", outer, result.final_step)
                metrics.record(prefix + ".cg_iters", outer, result.iterations)
                if self.config.verbose or _log.isEnabledFor(logging.DEBUG):
                    _log.log(
                        logging.INFO if self.config.verbose else logging.DEBUG,
                        "[%s %s] outer=%3d hpwl=%12.1f ovfl=%6.3f lam=%9.2e",
                        prefix,
                        design.name,
                        outer,
                        wl_exact,
                        overflow,
                        state["lam"],
                    )
                if guard is not None:
                    guard.commit(
                        v,
                        gamma=wl_model.gamma,
                        step_init=step_init,
                        step_max=step_max,
                        hpwl=wl_exact,
                    )
            if watchdog is not None and watchdog.expired():
                report.budget_exhausted = True
                stop = "budget"
                tracer.event("watchdog.expired", outer=outer, **watchdog.describe())
                _log.warning(
                    "[%s %s] stage budget expired after outer=%d; winding down",
                    prefix,
                    design.name,
                    outer,
                )
                break
            if overflow <= cfg.overflow_target:
                stop = "target"
                break
            if cfg.stall_iterations > 0:
                if best is None:
                    if overflow <= cfg.inflation_start_overflow:
                        best = overflow
                elif overflow <= best * (1.0 - STALL_MIN_PROGRESS):
                    best = overflow
                    idle = 0
                else:
                    idle += 1
                    if idle >= cfg.stall_iterations:
                        stop = "stalled"
                        break
            state["lam"] *= cfg.lambda_growth
            if fence.active:
                state["mu"] *= cfg.fence_weight_growth
            if cfg.gamma_decay < 1.0:
                wl_model.gamma = max(
                    wl_model.gamma * cfg.gamma_decay, 0.5 * min(grid.bin_w, grid.bin_h)
                )

        self._record_stop(report, stop, outer, overflow)
        if guard is not None:
            report.guard_rollbacks += guard.rollbacks
            report.guard_events += [e.as_dict() for e in guard.events]
        if inflator is not None:
            if inflator.wants_final_check:
                # Hybrid estimator: close the loop with one real route at
                # the final positions so the run record carries the
                # realized prediction error.
                with tracer.span("inflation"):
                    inflator.final_router_check(arrays, cx, cy)
            if inflator.estimator == "hybrid":
                report.inflation = dict(inflator.hybrid_stats)
        design.push_centers(cx, cy, indices=mov)
        if cfg.optimize_orientations and not cfg.freeze_macros:
            report.orientation_changes += optimize_macro_orientations(
                design, reference=cfg.reference
            )
        report.fence_projected = project_into_fences(design)
        return overflow

    def _record_stop(
        self, report: GPReport, reason: str, outer: int, overflow: float
    ) -> None:
        report.stop_reason = reason
        get_tracer().event(
            self.metric_prefix + ".stop", reason=reason, outer=outer, overflow=overflow
        )

    @staticmethod
    def _overflow_design(design: Design) -> float:
        from repro.density import density_overflow

        return density_overflow(design)

    # ------------------------------------------------------------------
    def _orientation_pass(self, design: Design, cx, cy) -> int:
        """Run an orientation pass at the current (array) positions."""
        design.push_centers(cx, cy)
        changed = optimize_macro_orientations(design, reference=self.config.reference)
        if changed:
            ncx, ncy = design.pull_centers()
            cx[:] = ncx
            cy[:] = ncy
        return changed

    @staticmethod
    def _reservation_scale(design: Design, grid: BinGrid, floor: float) -> np.ndarray:
        """Per-density-bin target scale from relative routing supply.

        Bins whose local track supply falls below the die's typical
        supply get proportionally smaller density targets (never below
        ``floor``), reserving whitespace for wires over starved regions —
        the whitespace-reservation mechanism of the paper's stage 1.
        """
        spec = design.routing
        rgrid = spec.grid
        supply = (spec.hcap * rgrid.bin_h + spec.vcap * rgrid.bin_w) / rgrid.bin_area
        median = float(np.median(supply)) if supply.size else 1.0
        if median <= 0:
            return np.ones((grid.nx, grid.ny))
        bx = grid.centers_x()
        by = grid.centers_y()
        xx, yy = np.meshgrid(bx, by, indexing="ij")
        local = rgrid.bilinear_sample(supply, xx.ravel(), yy.ravel()).reshape(
            grid.nx, grid.ny
        )
        # Only clearly starved bins (below 80% of typical supply) give up
        # target capacity; ordinary supply variation is left alone so the
        # reservation does not tax wirelength die-wide.
        scale = np.clip(local / (0.8 * median), floor, 1.0)
        # Feasibility guard: the scaled free space must still hold every
        # movable object with slack, or the density target becomes
        # unsatisfiable and the outer loop can never converge.
        movable = design.movable_area()
        core_area = design.core.area
        fixed = design.fixed_area_in_core()
        free_total = max(core_area - fixed, 1e-12)
        scaled_total = float(scale.mean()) * free_total
        need = 1.1 * movable
        if scaled_total < need and scaled_total > 0:
            # Blend back toward 1 just enough to restore slack.
            deficit = (need - scaled_total) / max(free_total - scaled_total, 1e-12)
            blend = min(1.0, deficit)
            scale = scale + blend * (1.0 - scale)
        return scale

    def _density_grid(self, design: Design, num_movable: int) -> BinGrid:
        cfg = self.config
        if cfg.target_bins is not None:
            bins = cfg.target_bins
        else:
            # ~ sqrt(n) bins per axis, clamped to a practical range.
            per_axis = int(np.sqrt(max(num_movable, 1)))
            per_axis = max(16, min(per_axis, 96))
            bins = per_axis * per_axis
        return BinGrid.with_bin_target(design.core, bins)

    @staticmethod
    def _overflow(
        design, density: BellDensity, cx, cy, widths, heights, mov, reference=False
    ) -> float:
        """Exact-overlap density overflow at the current array positions.

        Uses physical (non-inflated) areas against the free capacity of
        the density grid.
        """
        grid = density.grid
        xl = cx[mov] - widths[mov] / 2.0
        xh = cx[mov] + widths[mov] / 2.0
        yl = cy[mov] - heights[mov] / 2.0
        yh = cy[mov] + heights[mov] / 2.0
        usage = grid.rasterize_rects(xl, yl, xh, yh, reference=reference)
        total = float((widths[mov] * heights[mov]).sum())
        if total <= 0:
            return 0.0
        over = np.maximum(usage - density.free, 0.0)
        return float(over.sum() / total)


def place(design: Design, config: GPConfig | None = None) -> GPReport:
    """Convenience function: global-place ``design`` with ``config``."""
    return GlobalPlacer(config).place(design)
