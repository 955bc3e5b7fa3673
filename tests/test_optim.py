"""Tests for the projected conjugate-gradient solver."""

import numpy as np
import pytest

from repro.optim import minimize_cg


def quadratic(center, scale=1.0):
    center = np.asarray(center, dtype=float)

    def f(x):
        d = x - center
        return scale * float(d @ d), 2.0 * scale * d

    return f


class TestUnconstrained:
    def test_quadratic_converges(self):
        f = quadratic([3.0, -2.0, 7.0])
        res = minimize_cg(f, np.zeros(3), max_iter=200, step_init=1.0, rel_tol=1e-12)
        assert np.allclose(res.x, [3, -2, 7], atol=1e-3)

    def test_value_monotone(self):
        f = quadratic(np.arange(10, dtype=float))
        res = minimize_cg(f, np.zeros(10), max_iter=100, step_init=0.5, record=True)
        assert all(b <= a + 1e-12 for a, b in zip(res.trajectory, res.trajectory[1:]))

    def test_already_optimal(self):
        f = quadratic([1.0, 1.0])
        res = minimize_cg(f, np.array([1.0, 1.0]), max_iter=10, step_init=1.0)
        assert res.converged
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_anisotropic_quadratic(self):
        scales = np.array([1.0, 50.0, 4.0])

        def f(x):
            return float(scales @ (x * x)), 2.0 * scales * x

        res = minimize_cg(f, np.array([5.0, 5.0, 5.0]), max_iter=300, step_init=0.5, rel_tol=1e-14)
        assert np.abs(res.x).max() < 1e-2

    def test_rosenbrock_descends(self):
        def f(v):
            x, y = v
            val = (1 - x) ** 2 + 100 * (y - x * x) ** 2
            gx = -2 * (1 - x) - 400 * x * (y - x * x)
            gy = 200 * (y - x * x)
            return float(val), np.array([gx, gy])

        x0 = np.array([-1.2, 1.0])
        f0, _ = f(x0)
        res = minimize_cg(f, x0, max_iter=150, step_init=0.1, rel_tol=1e-14)
        assert res.value < 0.1 * f0

    def test_max_iter_respected(self):
        f = quadratic(np.full(5, 100.0))
        res = minimize_cg(f, np.zeros(5), max_iter=3, step_init=0.01, rel_tol=0)
        assert res.iterations <= 3


class TestProjection:
    def test_stays_in_box(self):
        f = quadratic([10.0, 10.0])
        project = lambda v: np.clip(v, 0.0, 2.0)
        res = minimize_cg(f, np.zeros(2), max_iter=50, step_init=1.0, project=project)
        assert (res.x <= 2.0 + 1e-12).all()
        assert np.allclose(res.x, [2.0, 2.0], atol=1e-6)

    def test_projected_start(self):
        f = quadratic([0.0, 0.0])
        project = lambda v: np.clip(v, -1.0, 1.0)
        res = minimize_cg(f, np.array([5.0, -5.0]), max_iter=50, step_init=1.0, project=project)
        assert np.abs(res.x).max() <= 1.0 + 1e-12

    def test_step_max_caps_displacement(self):
        f = quadratic([1000.0])
        trace = []

        def probe(v):
            trace.append(v.copy())
            return v

        minimize_cg(
            f, np.zeros(1), max_iter=5, step_init=1.0, step_max=2.0, project=probe
        )
        steps = [abs(b - a).max() for a, b in zip(trace, trace[1:])]
        assert max(steps) <= 2.0 + 1e-9


class TestEdgeCases:
    def test_zero_gradient_immediate(self):
        def f(x):
            return 0.0, np.zeros_like(x)

        res = minimize_cg(f, np.ones(4), max_iter=10, step_init=1.0)
        assert res.converged
        assert res.iterations <= 1

    def test_empty_vector(self):
        def f(x):
            return 0.0, x

        res = minimize_cg(f, np.zeros(0), max_iter=5, step_init=1.0)
        assert res.converged

    def test_record_off_by_default(self):
        f = quadratic([1.0])
        res = minimize_cg(f, np.zeros(1), max_iter=10, step_init=0.5)
        assert res.trajectory == []


class TestNonFinite:
    """A NaN/Inf value or gradient stops the solver before it steps."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_start_gradient_stops_without_evaluating(self, bad):
        calls = []

        def f(x):
            calls.append(x.copy())
            g = 2.0 * x
            g[1] = bad
            return float(x @ x), g

        x0 = np.array([1.0, 2.0, 3.0])
        res = minimize_cg(f, x0, max_iter=10, step_init=1.0)
        assert res.nonfinite
        assert res.iterations == 0
        assert not res.converged
        assert len(calls) == 1  # no trial point was ever formed
        np.testing.assert_array_equal(res.x, x0)

    def test_nonfinite_start_value_stops(self):
        def f(x):
            return float("nan"), 2.0 * x

        x0 = np.array([1.0, -1.0])
        res = minimize_cg(f, x0, max_iter=10, step_init=1.0)
        assert res.nonfinite
        assert res.iterations == 0
        np.testing.assert_array_equal(res.x, x0)

    def test_poisoned_gradient_mid_run_keeps_finite_iterate(self):
        base = quadratic([5.0, 5.0, 5.0])
        calls = []

        def f(x):
            calls.append(None)
            value, g = base(x)
            if len(calls) >= 3:
                g = g.copy()
                g[0] = np.nan
            return value, g

        res = minimize_cg(f, np.zeros(3), max_iter=50, step_init=1.0,
                          rel_tol=0.0)
        assert res.nonfinite
        assert np.isfinite(res.x).all()
        # Stopped on the poisoned gradient: no probe after it.
        assert len(calls) == 3

    def test_finite_run_matches_reference(self):
        f = quadratic(np.linspace(-3.0, 4.0, 7), scale=0.7)
        kwargs = dict(max_iter=40, step_init=0.5, step_max=2.0, record=True)
        fast = minimize_cg(f, np.zeros(7), **kwargs)
        ref = minimize_cg(f, np.zeros(7), reference=True, **kwargs)
        np.testing.assert_array_equal(fast.x, ref.x)
        assert fast.trajectory == ref.trajectory
        assert fast.iterations == ref.iterations
        assert not fast.nonfinite and not ref.nonfinite
