"""Every placement stage has one production path: the serial one.

Pins what the flow promises without a worker layer:

* GP, legalization (fence domains included) and rip-up routing
  reproduce their own output bit for bit on a rerun, and GP and
  legalization match their reference implementations;
* the worker knobs that once selected a second path are refused (config
  fields, constructor arguments, kernel parameters, CLI flags) rather
  than silently accepted;
* importing the placement stack starts no process machinery.
"""

import dataclasses
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.baselines.random_place import random_placement
from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.cli import build_parser
from repro.db import Design, Node, Region, Row
from repro.dp import DPConfig
from repro.flow import FlowConfig
from repro.geometry import Rect
from repro.gp import GlobalPlacer, GPConfig
from repro.legal import (
    LegalConfig,
    Legalizer,
    abacus_refine,
    check_legal,
    tetris_legalize,
)
from repro.route import GlobalRouter


# ----------------------------------------------------------------------
# GP
# ----------------------------------------------------------------------
def gp_bench(seed=11, cells=150):
    return make_benchmark(
        BenchmarkSpec(
            name="p", num_cells=cells, num_macros=2, num_fixed_macros=1,
            num_terminals=8, seed=seed,
        )
    )


def gp_state(design):
    return (
        np.array([n.cx for n in design.nodes]),
        np.array([n.cy for n in design.nodes]),
        [n.orientation for n in design.nodes],
    )


def place(reference=False):
    d = gp_bench()
    GlobalPlacer(
        GPConfig(
            clustering=False, max_outer_iterations=8, inner_iterations=10,
            reference=reference,
        )
    ).place(d)
    return gp_state(d)


def assert_same_state(a, b):
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert a[2] == b[2]


class TestGlobalPlacement:
    def test_rerun_bit_identical(self):
        assert_same_state(place(), place())

    def test_matches_reference_path(self):
        assert_same_state(place(), place(reference=True))


# ----------------------------------------------------------------------
# legalization on fence domains
# ----------------------------------------------------------------------
def fenced_design(seed=5, n_cells=120, n_rows=12, sites=120):
    rng = np.random.default_rng(seed)
    d = Design("t")
    for r in range(n_rows):
        d.add_row(
            Row(y=float(r), height=1.0, site_width=0.25, x_min=0.0,
                num_sites=sites)
        )
    width = sites * 0.25
    left = d.add_region(Region("left", rects=[Rect(0.0, 0.0, width / 2, 6.0)]))
    right = d.add_region(
        Region("right", rects=[Rect(width / 2, 6.0, width, 12.0)])
    )
    for i in range(n_cells):
        w = 0.25 * int(rng.integers(2, 8))
        node = Node(
            f"c{i}", w, 1.0,
            x=float(rng.uniform(0, width - w)),
            y=float(rng.uniform(0, n_rows - 1)),
        )
        if i % 3 == 0:
            node.region = left.index
        elif i % 3 == 1:
            node.region = right.index
        d.add_node(node)
    return d


def legalize(reference=False):
    d = fenced_design()
    result = Legalizer(LegalConfig(reference=reference)).legalize(d)
    return d, result


def legal_state(design):
    return (
        np.array([n.x for n in design.nodes]),
        np.array([n.y for n in design.nodes]),
    )


class TestFencedLegalization:
    def test_result_is_legal_and_respects_fences(self):
        d, result = legalize()
        assert result.ok
        assert check_legal(d).ok
        for node in d.nodes:
            if node.region is None:
                continue
            fence = d.regions[node.region]
            assert any(
                r.xl - 1e-9 <= node.x
                and node.x + node.width <= r.xh + 1e-9
                and r.yl - 1e-9 <= node.y
                and node.y + node.height <= r.yh + 1e-9
                for r in fence.rects
            ), node.name

    def test_rerun_bit_identical(self):
        d1, r1 = legalize()
        d2, r2 = legalize()
        s1, s2 = legal_state(d1), legal_state(d2)
        np.testing.assert_array_equal(s1[0], s2[0])
        np.testing.assert_array_equal(s1[1], s2[1])
        assert r1.max_displacement == r2.max_displacement

    def test_matches_reference_path(self):
        d1, r1 = legalize()
        d2, r2 = legalize(reference=True)
        s1, s2 = legal_state(d1), legal_state(d2)
        np.testing.assert_array_equal(s1[0], s2[0])
        np.testing.assert_array_equal(s1[1], s2[1])
        assert r1.total_displacement == r2.total_displacement


# ----------------------------------------------------------------------
# routing with rip-up
# ----------------------------------------------------------------------
def route(seed=3, cells=600):
    d = make_benchmark(
        BenchmarkSpec(name=f"pr{seed}", num_cells=cells, num_macros=2,
                      seed=seed)
    )
    random_placement(d, seed=seed)
    cx, cy = d.pull_centers()
    return GlobalRouter(d.routing).route(
        arrays=d.pin_arrays(), cx=cx, cy=cy
    )


def assert_same_routing(a, b):
    np.testing.assert_array_equal(a.graph.use_e, b.graph.use_e)
    np.testing.assert_array_equal(a.graph.use_n, b.graph.use_n)
    for attr in ("rc", "total_overflow", "peak_congestion", "vias"):
        assert getattr(a.metrics, attr) == getattr(b.metrics, attr)
    assert a.num_segments == b.num_segments
    assert a.maze_rerouted == b.maze_rerouted
    assert a.overflow_per_round == b.overflow_per_round


class TestRipUpRouting:
    def test_ripup_engages_and_rerun_bit_identical(self):
        first = route()
        assert first.maze_rerouted > 0, "rip-up never engaged (design too easy?)"
        assert_same_routing(first, route())


# ----------------------------------------------------------------------
# removed worker knobs are refused, not ignored
# ----------------------------------------------------------------------
REMOVED_FIELDS = [
    (GPConfig, "workers"),
    (GPConfig, "deterministic"),
    (LegalConfig, "workers"),
    (DPConfig, "workers"),
    (FlowConfig, "workers"),
    (FlowConfig, "deterministic"),
]


class TestRemovedKnobs:
    @pytest.mark.parametrize(
        "cls,field", REMOVED_FIELDS,
        ids=[f"{c.__name__}.{f}" for c, f in REMOVED_FIELDS],
    )
    def test_config_field_refused(self, cls, field):
        assert field not in {f.name for f in dataclasses.fields(cls)}
        with pytest.raises(TypeError):
            cls(**{field: 2})

    def test_router_refuses_worker_argument(self):
        with pytest.raises(TypeError):
            GlobalRouter(gp_bench().routing, workers=2)

    def test_legalizer_refuses_worker_argument(self):
        with pytest.raises(TypeError):
            Legalizer(workers=2)

    @pytest.mark.parametrize("kernel", [tetris_legalize, abacus_refine])
    def test_legal_kernels_take_no_pool(self, kernel):
        assert "pool" not in inspect.signature(kernel).parameters

    @pytest.mark.parametrize(
        "argv",
        [
            ["place", "--aux", "x.aux", "--workers", "2"],
            ["place", "--aux", "x.aux", "--parallel-fast"],
            ["route", "--aux", "x.aux", "--workers", "2"],
            ["serve", "--root", "srv", "--job-workers", "1"],
            ["submit", "--suite", "rh01", "--job-workers", "1"],
        ],
        ids=["place-workers", "place-parallel-fast", "route-workers",
             "serve-job-workers", "submit-job-workers"],
    )
    def test_cli_flag_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_keeps_queue_worker_count(self):
        """``repro serve --workers`` sizes the process-per-job queue."""
        ns = build_parser().parse_args(["serve", "--root", "srv",
                                        "--workers", "3"])
        assert ns.workers == 3


# ----------------------------------------------------------------------
# import footprint
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "module",
    ["repro", "repro.flow", "repro.gp", "repro.legal", "repro.route",
     "repro.dp", "repro.cli"],
)
def test_import_pulls_in_no_multiprocessing(module):
    code = (
        f"import sys, {module}; "
        "print('multiprocessing' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env,
    )
    assert out.stdout.strip() == "False"
