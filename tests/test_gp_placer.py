"""End-to-end tests for the global placer."""

import numpy as np
import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark, make_suite_design
from repro.db import Design, NodeKind
from repro.density import density_overflow
from repro.gp import GlobalPlacer, GPConfig, fence_violation
from repro.gp.placer import STALL_MIN_PROGRESS
from repro.geometry import Rect
from repro.obs import Tracer, use_tracer
from repro.resilience import StageWatchdog, inject, reset_clock_skew
from repro.resilience.guards import NumericalGuard


def bench(seed=21, cells=300, **kw):
    spec = BenchmarkSpec(
        name="t", num_cells=cells, num_macros=2, num_fixed_macros=1,
        num_terminals=16, utilization=0.6, seed=seed, **kw,
    )
    return make_benchmark(spec)


def fast_cfg(**kw):
    base = dict(
        clustering=False,
        max_outer_iterations=14,
        inner_iterations=16,
        routability=False,
        optimize_orientations=False,
    )
    base.update(kw)
    return GPConfig(**base)


class TestPlacement:
    def test_overflow_decreases(self):
        d = bench()
        report = GlobalPlacer(fast_cfg()).place(d)
        assert report.num_iterations >= 2
        first = report.iterations[0].overflow
        last = report.iterations[-1].overflow
        assert last < first

    def test_final_positions_inside_core(self):
        d = bench()
        GlobalPlacer(fast_cfg()).place(d)
        core = d.core
        for n in d.nodes:
            if n.is_movable:
                r = n.rect
                assert r.xl >= core.xl - 1e-6 and r.xh <= core.xh + 1e-6
                assert r.yl >= core.yl - 1e-6 and r.yh <= core.yh + 1e-6

    def test_beats_random_hpwl(self):
        d = bench(seed=22)
        GlobalPlacer(fast_cfg()).place(d)
        placed = d.hpwl()
        d2 = bench(seed=22)
        rng = np.random.default_rng(0)
        core = d2.core
        for n in d2.nodes:
            if n.is_movable:
                n.move_center_to(
                    float(rng.uniform(core.xl + 2, core.xh - 2)),
                    float(rng.uniform(core.yl + 2, core.yh - 2)),
                )
        assert placed < 0.7 * d2.hpwl()

    def test_fixed_nodes_untouched(self):
        d = bench(seed=23)
        before = {n.index: (n.x, n.y) for n in d.nodes if not n.is_movable}
        GlobalPlacer(fast_cfg()).place(d)
        for idx, (x, y) in before.items():
            assert (d.nodes[idx].x, d.nodes[idx].y) == (x, y)

    def test_deterministic(self):
        r = []
        for _ in range(2):
            d = bench(seed=24)
            GlobalPlacer(fast_cfg()).place(d)
            r.append(d.hpwl())
        assert r[0] == pytest.approx(r[1])

    def test_empty_design(self):
        d = Design("t", core=Rect(0, 0, 10, 10))
        report = GlobalPlacer(fast_cfg()).place(d)
        assert report.num_iterations == 0

    def test_report_trajectory_monotone_overflow_trend(self):
        d = bench(seed=25)
        report = GlobalPlacer(fast_cfg(max_outer_iterations=20)).place(d)
        ovfl = [it.overflow for it in report.iterations]
        # overall trend must be down (allow local wobble)
        assert ovfl[-1] <= ovfl[0]
        assert min(ovfl) == pytest.approx(ovfl[-1], abs=0.1)


class TestFences:
    def test_fenced_cells_end_inside(self):
        d = bench(seed=26, cells=400, num_fences=1, fence_level=1)
        GlobalPlacer(fast_cfg(max_outer_iterations=18)).place(d)
        count, dist = fence_violation(d)
        assert count == 0

    def test_freeze_macros_keeps_them(self):
        d = bench(seed=27)
        GlobalPlacer(fast_cfg()).place(d)
        macro_pos = {
            n.index: (n.x, n.y) for n in d.nodes if n.kind is NodeKind.MACRO
        }
        GlobalPlacer(fast_cfg(freeze_macros=True, max_outer_iterations=4)).place(
            d, warm_start=True
        )
        for idx, (x, y) in macro_pos.items():
            assert (d.nodes[idx].x, d.nodes[idx].y) == pytest.approx((x, y))


class TestWirelengthModels:
    @pytest.mark.parametrize("model", ["wa", "lse"])
    def test_both_models_converge(self, model):
        d = bench(seed=28)
        report = GlobalPlacer(fast_cfg(wirelength_model=model)).place(d)
        assert report.iterations[-1].overflow < report.iterations[0].overflow


class TestRoutabilityMode:
    def test_inflation_engages_on_congested(self):
        d = bench(seed=29, cells=400, cap_factor=1.0, congested_band=0.5)
        cfg = fast_cfg(routability=True, max_outer_iterations=20)
        report = GlobalPlacer(cfg).place(d)
        assert report.iterations[-1].mean_inflation > 1.0

    def test_routability_off_no_inflation(self):
        d = bench(seed=29, cells=400, cap_factor=1.0, congested_band=0.5)
        report = GlobalPlacer(fast_cfg(max_outer_iterations=12)).place(d)
        assert all(it.mean_inflation == 1.0 for it in report.iterations)


class TestClusteredVcycle:
    def test_clustered_run_matches_quality(self):
        d1 = bench(seed=30, cells=600)
        cfg = fast_cfg(max_outer_iterations=20)
        GlobalPlacer(cfg).place(d1)
        flat_hpwl = d1.hpwl()
        d2 = bench(seed=30, cells=600)
        cfg2 = fast_cfg(
            clustering=True, cluster_min_nodes=100, max_outer_iterations=20
        )
        report = GlobalPlacer(cfg2).place(d2)
        assert report.coarse_iterations  # V-cycle actually ran
        assert d2.hpwl() < 1.6 * flat_hpwl
        assert density_overflow(d2) < 0.35


# ----------------------------------------------------------------------
# stop rule: target, stall, cap, budget, guard
# ----------------------------------------------------------------------
def congested(seed=3, cells=300):
    """Small rh02-shaped design whose inflated overflow never meets target."""
    return make_benchmark(
        BenchmarkSpec(
            name="s", num_cells=cells, num_macros=3, num_fixed_macros=2,
            macro_area_fraction=0.2, num_terminals=16, utilization=0.7,
            cap_factor=5.23, congested_band=0.5, seed=seed,
        )
    )


def stall_cfg(**kw):
    base = dict(clustering=False, inner_iterations=16)
    base.update(kw)
    return GPConfig(**base)


def gp_state(design):
    return (
        [n.cx for n in design.nodes],
        [n.cy for n in design.nodes],
        [n.orientation for n in design.nodes],
    )


def run_gp(design, cfg, watchdog=None):
    report = GlobalPlacer(cfg).place(design, watchdog=watchdog)
    return report, gp_state(design)


def replay_stall_stop(overflows, cfg):
    """Index of the committed iteration at which the stall rule fires."""
    best, idle = None, 0
    for i, ovfl in enumerate(overflows):
        if best is None:
            if ovfl <= cfg.inflation_start_overflow:
                best = ovfl
        elif ovfl <= best * (1.0 - STALL_MIN_PROGRESS):
            best, idle = ovfl, 0
        else:
            idle += 1
            if idle >= cfg.stall_iterations:
                return i
    return None


@pytest.fixture(scope="module")
def stalled_run():
    return run_gp(congested(), stall_cfg())


class TestStopRule:
    def test_congested_design_stops_on_stall_before_cap(self, stalled_run):
        report, _ = stalled_run
        assert report.stop_reason == "stalled"
        assert report.num_iterations < GPConfig().max_outer_iterations
        assert report.final_overflow > GPConfig().overflow_target
        assert report.telemetry["stop_reason"] == "stalled"
        overflows = [it.overflow for it in report.iterations]
        assert replay_stall_stop(overflows, stall_cfg()) == len(overflows) - 1

    def test_stall_zero_runs_the_old_loop_to_the_cap(self, stalled_run):
        stalled, _ = stalled_run
        capped, _ = run_gp(congested(), stall_cfg(stall_iterations=0))
        assert capped.stop_reason == "cap"
        assert capped.num_iterations == GPConfig().max_outer_iterations
        # The stall stop only truncates: every iteration it ran is the
        # uncapped run's iteration, bit for bit.
        n = stalled.num_iterations
        assert capped.iterations[:n] == stalled.iterations

    def test_reference_path_bit_identical_when_stall_fires(self, stalled_run):
        report, state = stalled_run
        ref, ref_state = run_gp(congested(), stall_cfg(reference=True))
        assert ref.stop_reason == "stalled"
        assert ref.iterations == report.iterations
        assert ref_state == state

    def test_target_stop_unchanged_on_rh01(self):
        report, state = run_gp(make_suite_design("rh01"), GPConfig())
        old, old_state = run_gp(
            make_suite_design("rh01"), GPConfig(stall_iterations=0)
        )
        assert report.stop_reason == old.stop_reason == "target"
        assert report.num_iterations == old.num_iterations == 13
        assert state == old_state

    def test_guard_retries_do_not_count_toward_the_window(
        self, stalled_run, monkeypatch
    ):
        clean, _ = stalled_run
        # Declare divergence once, on the middle iteration of the clean
        # run's stall window: the guard rolls back and retries.
        retried = clean.iterations[-2].outer
        calls = []

        def diverged(self, hpwl):
            calls.append(hpwl)
            return len(calls) == retried + 1

        monkeypatch.setattr(NumericalGuard, "diverged", diverged)
        report, _ = run_gp(congested(), stall_cfg())
        assert report.guard_rollbacks == 1
        assert report.stop_reason == "stalled"
        outers = [it.outer for it in report.iterations]
        assert retried not in outers
        # The stop fires after stall_iterations *committed* iterations
        # without progress; the retried outer is not one of them.
        overflows = [it.overflow for it in report.iterations]
        assert replay_stall_stop(overflows, stall_cfg()) == len(overflows) - 1
        assert outers[-1] - outers[0] + 1 == len(outers) + 1

    def test_stop_event_once_per_placer(self):
        d = bench(seed=30, cells=600)
        cfg = fast_cfg(clustering=True, cluster_min_nodes=100)
        with use_tracer(Tracer()) as t:
            report = GlobalPlacer(cfg).place(d)
        stops = [e for e in t.events() if e.name.endswith(".stop")]
        assert [e.name for e in stops] == [
            "gp.coarse.coarse.stop", "gp.coarse.stop", "gp.stop"
        ]
        last = stops[-1].attrs
        assert last["reason"] == report.stop_reason
        assert last["outer"] == report.iterations[-1].outer
        assert last["overflow"] == report.final_overflow

    def test_empty_design_stops_on_target(self):
        d = Design("t", core=Rect(0, 0, 10, 10))
        assert GlobalPlacer(fast_cfg()).place(d).stop_reason == "target"


class TestCoarseBudget:
    def test_expired_budget_stops_coarse_levels_after_one_iteration(self):
        cfg = fast_cfg(clustering=True, cluster_min_nodes=100)
        d = bench(seed=30, cells=600)
        try:
            # Clock read 1 starts the watchdog; read 2, the first expiry
            # check (deepest coarse level, outer 0), jumps past the budget.
            with inject("clock.skew@2=1000"):
                wd = StageWatchdog("gp", budget_seconds=60.0)
                report, _ = run_gp(d, cfg, watchdog=wd)
        finally:
            reset_clock_skew()
        assert len(report.coarse_iterations) == 1
        assert report.budget_exhausted
        assert report.stop_reason == "budget"
        assert report.num_iterations == 1
