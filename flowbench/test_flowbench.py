"""Tests of the flow benchmark itself: ``python -m pytest flowbench -q``."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import check
import hostspeed
import prepare

HERE = Path(__file__).resolve().parent
SPEC = json.loads((prepare.ROOT / "BENCHMARK.json").read_text())
# Per-layer metrics the smoke design exercises: each reads 0 if the span
# or entry point it is taken from is renamed or moved.
SMOKE_NONZERO = (
    "gp.s", "refine.s", "legal.tetris_s", "legal.abacus_s", "dp.s",
    "resilience.validate_s", "inflation.rounds", "predict.calls", "optim.cg_calls",
)


def run_bench(*args, cwd=prepare.ROOT):
    return subprocess.run(
        [sys.executable, "flowbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, section):
    done = run_bench("--workload", "smoke", "--seed", "0", "--seconds", "1",
                     "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "flowbench character:" in done.stdout
    if section == "per_layer":
        zero = [n for n in SMOKE_NONZERO if not result["metrics"][n]["value"] > 0]
        assert zero == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(prepare.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "flowbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench("--workload", "fenced", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- the output check on a hand-made design --------------------------------
#
# Two rows of 8 sites (site 1.0, row height 1.0), one fixed macro at the
# right end of row 0, three cells and a fence over the left half.

def small_case():
    net = check.Netlist(
        width=np.array([2.0, 1.0, 3.0, 2.0]),
        height=np.array([1.0, 1.0, 1.0, 2.0]),
        kind=np.array([check.CELL, check.CELL, check.CELL, check.BLOCK], dtype=np.int8),
        fence=np.array([0, -1, -1, -1]),
        pin_node=np.array([0, 1, 1, 2, 3]),
        pin_dx=np.array([0.5, 0.0, 0.0, -1.0, 0.0]),
        pin_dy=np.zeros(5),
        net_ptr=np.array([0, 2, 5]),
        net_weight=np.array([1.0, 2.0]),
        rows=np.array([(0.0, 1.0, 0.0, 1.0, 8), (1.0, 1.0, 0.0, 1.0, 8)]),
        fence_rects=[np.array([(0.0, 0.0, 4.0, 2.0)])],
    )
    pl = check.Placement(
        x=np.array([0.0, 2.0, 0.0, 6.0]),
        y=np.array([0.0, 0.0, 1.0, 0.0]),
        rotation=np.zeros(4, dtype=np.int64),
        flipped=np.zeros(4, dtype=bool),
    )
    return net, pl


def hand_hpwl():
    # Pins: cell0 (1.5, .5), cell1 (2.5, .5) | cell1 (2.5, .5),
    # cell2 (0.5, 1.5), block (7, 1).
    return 1.0 * (1.0 + 0.0) + 2.0 * ((7.0 - 0.5) + (1.5 - 0.5))


def verdict(net, pl, hpwl=None, rc=0.9):
    hpwl = hand_hpwl() if hpwl is None else hpwl
    return check.check_flow(net, pl, hpwl=hpwl, rc=rc, scaled=check.scaled_hpwl(hpwl, rc))


def test_clean_placement_passes():
    net, pl = small_case()
    assert check.weighted_hpwl(net, pl) == pytest.approx(hand_hpwl())
    assert verdict(net, pl) == []


def test_flags_overlapping_cells():
    net, pl = small_case()
    pl.x[1] = 1.0  # cell 1 now covers site 1, which cell 0 occupies
    assert any("overlap" in p for p in verdict(net, pl, hpwl=check.weighted_hpwl(net, pl)))


def test_flags_cell_over_blockage_and_off_site():
    net, pl = small_case()
    pl.x[1] = 6.0
    assert any("macro or blockage" in p for p in verdict(net, pl, check.weighted_hpwl(net, pl)))
    pl.x[1] = 4.5
    assert any("off its row or site" in p for p in verdict(net, pl, check.weighted_hpwl(net, pl)))


def test_flags_fence_member_outside_its_fence():
    net, pl = small_case()
    pl.x[0] = 4.0  # still on a row and site, but right of the fence
    problems = verdict(net, pl, hpwl=check.weighted_hpwl(net, pl))
    assert problems == ["node 0 lies outside fence 0"]


def test_flags_reported_hpwl_that_disagrees_with_positions():
    net, pl = small_case()
    wrong = hand_hpwl() * 1.01
    problems = check.check_flow(net, pl, hpwl=wrong, rc=0.9, scaled=wrong)
    assert any("reported hpwl" in p for p in problems)


def test_flags_scaled_hpwl_that_disagrees_with_rc():
    net, pl = small_case()
    problems = check.check_flow(net, pl, hpwl=hand_hpwl(), rc=1.1, scaled=hand_hpwl())
    assert any("scaled_hpwl" in p for p in problems)


def test_flags_overlapping_macros():
    net, pl = small_case()
    net.kind[2] = check.MACRO
    pl.x[2], pl.y[2] = 5.0, 0.0  # movable macro onto the fixed block
    assert any("macros" in p for p in check.check_macros(net, pl))


def test_orientation_moves_pins():
    net, pl = small_case()
    pl.rotation[0] = 2  # S: the pin at +0.5 from the centre moves to -0.5
    assert check.weighted_hpwl(net, pl) == pytest.approx(hand_hpwl() + 1.0)


# -- the output check against a real flow ----------------------------------

@pytest.fixture(scope="module")
def placed(tmp_path_factory):
    prepare.use_repo_source()
    import run
    from repro import NTUplace4H
    from repro.io import read_bookshelf
    from workloads import flow_config

    aux = prepare.generate("smoke", 0, str(tmp_path_factory.mktemp("smoke")))[0]
    design = read_bookshelf(aux)
    result = NTUplace4H(flow_config("smoke")).run(design)
    return run.netlist_of(read_bookshelf(aux)), run.placement_of(design), result


def test_real_flow_output_passes_and_perturbations_fail(placed):
    net, pl, result = placed
    kw = dict(hpwl=result.hpwl_final, rc=result.rc, scaled=result.scaled_hpwl)
    assert check.check_flow(net, pl, **kw) == []

    cells = np.flatnonzero((net.kind == check.CELL) & (net.fence < 0))
    a, b = cells[:2]
    moved = check.Placement(pl.x.copy(), pl.y.copy(), pl.rotation, pl.flipped)
    moved.x[b], moved.y[b] = moved.x[a], moved.y[a]
    assert any("overlap" in p for p in check.check_flow(net, moved, **kw))

    member = np.flatnonzero(net.fence >= 0)[0]
    rect = net.fence_rects[net.fence[member]][0]
    moved = check.Placement(pl.x.copy(), pl.y.copy(), pl.rotation, pl.flipped)
    moved.x[member] = rect[2] + 10.0
    assert any("outside fence" in p for p in check.check_fences(net, moved))


# -- the host-speed sampler ------------------------------------------------

def test_sampler_ticks_while_installed_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler().installed() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
    count = len(sampler.ticks)
    time.sleep(3 * hostspeed.INTERVAL_S)
    assert count >= 3 and len(sampler.ticks) == count
    assert 0 < sampler.busy_s < 0.5 and sampler.speed > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- the traced-run instrumentation ----------------------------------------

def test_probe_restores_every_entry_point():
    prepare.use_repo_source()
    from importlib import import_module

    import probes

    def current():
        out = []
        for module, attr, _ in probes.ENTRY_POINTS:
            owner = import_module(module)
            for part in attr.split("."):
                owner = vars(owner)[part] if isinstance(owner, type) else getattr(owner, part)
            out.append(owner)
        return out

    before = current()
    with probes.LayerProbe().installed():
        assert all(a is not b for a, b in zip(current(), before))
    assert all(a is b for a, b in zip(current(), before))


def test_self_times_subtract_children_and_collapse_indices():
    prepare.use_repo_source()
    from repro.obs.tracer import Span

    import probes

    spans = [
        Span("iter[0]", "flow/gp/iter[0]", 0.0, 0.5, 2),
        Span("iter[1]", "flow/gp/iter[1]", 0.5, 0.7, 2),
        Span("gp", "flow/gp", 0.0, 1.5, 1),
        Span("flow", "flow", 0.0, 2.0, 0),
    ]
    got = probes.self_times(spans)
    assert got == pytest.approx({"flow": 0.5, "flow/gp": 0.3, "flow/gp/iter[*]": 1.2})
    assert probes.span_totals(spans)["flow/gp/iter[*]"] == pytest.approx((1.2, 2))
