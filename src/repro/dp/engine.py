"""The detailed-placement engine: pass scheduling and congestion gating."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.dp.hpwl_delta import IncrementalHPWL
from repro.dp.matching import matching_pass
from repro.dp.reorder import local_reorder_pass
from repro.dp.swap import global_swap_pass, vertical_swap_pass
from repro.obs import get_tracer
from repro.route.rudy import rudy_map


@dataclass
class DPConfig:
    """Knobs of :class:`DetailedPlacer`."""

    rounds: int = 2
    global_swap: bool = True
    vertical_swap: bool = True
    local_reorder: bool = True
    matching: bool = True
    reorder_window: int = 3
    swap_candidates: int = 8
    matching_batch: int = 24
    # Congestion gating: moves into tiles whose estimated congestion
    # exceeds the threshold are rejected (requires design.routing).
    congestion_aware: bool = True
    congestion_gate_threshold: float = 0.9
    # Congestion-driven spreading: evacuate cells from hot tiles into
    # cool whitespace after the wirelength passes (congestion_aware only).
    congestion_spread: bool = True
    spread_threshold: float = 0.9
    spread_max_moves: int = 200
    min_gain_per_round: float = 1e-6
    # Golden mode: run the original per-pin scoring loops (kept verbatim
    # in IncrementalHPWL) instead of the batched NumPy hot paths.  Results
    # are bit-identical either way — CI and the equivalence tests assert
    # it — so this exists to prove that, and to debug any future drift.
    reference: bool = False


@dataclass
class DPReport:
    """Outcome of detailed placement."""

    hpwl_before: float = 0.0
    hpwl_after: float = 0.0
    passes: list = field(default_factory=list)  # (name, accepted, gain)
    runtime_seconds: float = 0.0
    budget_exhausted: bool = False  # stage watchdog expired between rounds

    @property
    def improvement(self) -> float:
        if self.hpwl_before <= 0:
            return 0.0
        return (self.hpwl_before - self.hpwl_after) / self.hpwl_before

    @property
    def telemetry(self) -> dict:
        """Column-oriented per-pass series (HPWL deltas + accept counts)."""
        return {
            "pass": [p[0] for p in self.passes],
            "accepted": [p[1] for p in self.passes],
            "hpwl_delta": [-p[2] for p in self.passes],  # negative = improved
        }


class DetailedPlacer:
    """Runs swap / reorder / matching rounds on a legalized design."""

    def __init__(self, config: DPConfig | None = None):
        self.config = config or DPConfig()

    def run(self, design, submap, *, watchdog=None) -> DPReport:
        """Improve ``design`` in place; ``watchdog`` (optional
        :class:`repro.resilience.StageWatchdog`) stops cleanly between
        rounds when the stage budget runs out."""
        cfg = self.config
        tracer = get_tracer()
        t0 = time.perf_counter()
        report = DPReport(hpwl_before=design.hpwl())
        inc = IncrementalHPWL(design, reference=cfg.reference)
        gate = (
            self._make_gate(design, reference=cfg.reference)
            if cfg.congestion_aware
            else None
        )
        pass_t0 = time.perf_counter()

        def note(name: str, accepted: int, gain: float) -> float:
            nonlocal pass_t0
            step = len(report.passes)
            report.passes.append((name, accepted, gain))
            tracer.metrics.record("dp.hpwl_delta", step, -gain)
            tracer.metrics.record("dp.accepted", step, accepted)
            now = time.perf_counter()
            tracer.metrics.record("dp.pass_seconds", step, now - pass_t0)
            pass_t0 = now
            return gain

        for rnd in range(cfg.rounds):
            if watchdog is not None and watchdog.expired():
                report.budget_exhausted = True
                tracer.event("watchdog.expired", round=rnd, **watchdog.describe())
                break
            with tracer.span(f"round[{rnd}]"):
                round_gain = 0.0
                if cfg.global_swap:
                    with tracer.span("global_swap"):
                        acc, gain = global_swap_pass(
                            design,
                            inc,
                            candidates_per_cell=cfg.swap_candidates,
                            gate=gate,
                        )
                    round_gain += note("global_swap", acc, gain)
                if cfg.vertical_swap:
                    with tracer.span("vertical_swap"):
                        acc, gain = vertical_swap_pass(design, inc, gate=gate)
                    round_gain += note("vertical_swap", acc, gain)
                if cfg.local_reorder:
                    # Swap passes move cells between rows; refresh membership.
                    with tracer.span("local_reorder"):
                        submap.rebuild_cells(design)
                        acc, gain = local_reorder_pass(
                            design, inc, submap, window=cfg.reorder_window
                        )
                    round_gain += note("local_reorder", acc, gain)
                if cfg.matching:
                    with tracer.span("matching"):
                        acc, gain = matching_pass(
                            design, inc, batch_size=cfg.matching_batch, gate=gate
                        )
                    round_gain += note("matching", acc, gain)
            if round_gain < cfg.min_gain_per_round * max(report.hpwl_before, 1.0):
                break
        if (
            cfg.congestion_aware
            and cfg.congestion_spread
            and design.routing is not None
            and not report.budget_exhausted
        ):
            from repro.dp.spreading import congestion_spread_pass

            with tracer.span("congestion_spread"):
                moves, delta = congestion_spread_pass(
                    design,
                    submap,
                    inc,
                    threshold=cfg.spread_threshold,
                    max_moves=cfg.spread_max_moves,
                )
            note("congestion_spread", moves, -delta)
        report.hpwl_after = design.hpwl()
        report.runtime_seconds = time.perf_counter() - t0
        return report

    def _make_gate(self, design, *, reference: bool = False):
        """Reject moves whose destination tile is congested (estimated)."""
        if design.routing is None:
            return None
        grid = design.routing.grid
        arrays = design.pin_arrays()
        cx, cy = design.pull_centers()
        demand = rudy_map(arrays, cx, cy, grid)
        supply = (
            design.routing.hcap * grid.bin_h + design.routing.vcap * grid.bin_w
        ) / grid.bin_area
        with np.errstate(divide="ignore", invalid="ignore"):
            cong = np.where(supply > 0, demand / np.maximum(supply, 1e-12), 0.0)
        threshold = self.config.congestion_gate_threshold

        if reference:

            def gate(moves) -> bool:
                for idx, nx, ny in moves:
                    sx, sy = grid.index_of(
                        design.nodes[idx].cx, design.nodes[idx].cy
                    )
                    dx, dy = grid.index_of(nx, ny)
                    dest = cong[int(dx), int(dy)]
                    src = cong[int(sx), int(sy)]
                    if dest > threshold and dest > src + 0.05:
                        return False
                return True

            return gate

        # Scalar tile lookup: identical arithmetic to BinGrid.index_of
        # (floor + clamp on the same float64 expressions) without the
        # per-move ndarray round trips.
        xl0 = grid.area.xl
        yl0 = grid.area.yl
        bw = grid.bin_w
        bh = grid.bin_h
        nx_hi = grid.nx - 1
        ny_hi = grid.ny - 1
        floor = math.floor
        nodes = design.nodes
        cong_list = cong.tolist()

        def gate(moves) -> bool:
            for idx, nx, ny in moves:
                node = nodes[idx]
                sx = min(max(floor((node.cx - xl0) / bw), 0), nx_hi)
                sy = min(max(floor((node.cy - yl0) / bh), 0), ny_hi)
                dx = min(max(floor((nx - xl0) / bw), 0), nx_hi)
                dy = min(max(floor((ny - yl0) / bh), 0), ny_hi)
                dest = cong_list[dx][dy]
                if dest > threshold and dest > cong_list[sx][sy] + 0.05:
                    return False
            return True

        return gate
