"""Projected Polak-Ribiere conjugate gradient with backtracking line search.

This is the inner solver of global placement: it minimizes the merit
function ``wirelength + lambda * density`` for one value of ``lambda``.
The placement-specific twists, both standard in the NTUplace lineage:

* search directions are normalized to unit infinity-norm, so the step
  length is measured in *distance on the die* and can be capped (cells
  never teleport across the core in one iteration);
* an optional projection keeps iterates inside the core (and inside fence
  regions) after every step, making the method a projected CG.

The default implementation keeps its inner loop allocation-free: the
iterate, trial point, direction, and gradients live in preallocated
buffers updated in place (only commutative/associative-neutral rewrites,
so the trajectory is bit-identical to the original).  Gradients returned
by ``value_grad`` are copied into solver-owned storage, which also makes
the solver safe for objectives that reuse one output buffer across calls.
``minimize_cg(..., reference=True)`` runs the original allocating
implementation, kept verbatim as the golden baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class CGResult:
    """Outcome of :func:`minimize_cg`."""

    x: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    trajectory: list  # objective value per iteration
    final_step: float = 0.0  # last accepted line-search step (die distance)
    nonfinite: bool = False  # NaN/Inf observed in the final value/gradient


def minimize_cg(
    value_grad,
    x0: np.ndarray,
    *,
    max_iter: int = 100,
    step_init: float = 1.0,
    step_max: float | None = None,
    rel_tol: float = 1e-4,
    armijo_c: float = 1e-4,
    backtrack: float = 0.5,
    max_backtracks: int = 12,
    project=None,
    record: bool = False,
    reference: bool = False,
) -> CGResult:
    """Minimize ``value_grad: x -> (f, g)`` starting from ``x0``.

    ``step_init``/``step_max`` are in the units of ``x`` (die distance).
    ``project`` maps a candidate iterate back into the feasible set (it
    may update its argument in place and return it).  Converges when the
    relative objective decrease over an iteration falls below
    ``rel_tol``.  ``reference=True`` selects the original allocating
    implementation (bit-identical results, kept for golden comparisons).
    """
    if reference:
        return _minimize_cg_reference(
            value_grad,
            x0,
            max_iter=max_iter,
            step_init=step_init,
            step_max=step_max,
            rel_tol=rel_tol,
            armijo_c=armijo_c,
            backtrack=backtrack,
            max_backtracks=max_backtracks,
            project=project,
            record=record,
        )
    # Optional value/gradient split: an objective exposing ``probe`` (value
    # of a trial point) and ``finish_grad`` (gradient of the last probed
    # point) lets rejected line-search probes skip gradient work entirely.
    # Both halves must reproduce ``value_grad`` bit for bit.
    probe = getattr(value_grad, "probe", None)
    finish_grad = getattr(value_grad, "finish_grad", None)
    split = probe is not None and finish_grad is not None
    x = np.array(x0, dtype=float)
    if project is not None:
        x = project(x)
    f, g_ret = value_grad(x)
    g = np.array(g_ret, dtype=float)       # solver-owned copy
    g_new = np.empty_like(g)
    d = np.negative(g)
    d_hat = np.empty_like(d)
    x_try = np.empty_like(x)
    work = np.empty_like(d)
    finite = np.empty(g.shape, dtype=bool)
    alpha = float(step_init)
    trajectory = [f] if record else []
    converged = False
    iterations = 0
    last_step = 0.0
    for it in range(max_iter):
        # A NaN/Inf value or gradient would turn the direction, and with
        # it every trial point, non-finite: stop before stepping and let
        # the caller's guard see ``nonfinite``.
        if not (math.isfinite(f) and np.isfinite(g, out=finite).all()):
            break
        iterations = it + 1
        if d.size:
            np.abs(d, out=work)
            dinf = float(work.max())
        else:
            dinf = 0.0
        if dinf <= 0.0:
            converged = True
            break
        np.divide(d, dinf, out=d_hat)
        slope = float(np.dot(g, d_hat))
        if slope >= 0.0:  # not a descent direction: restart on -g
            np.negative(g, out=d)
            np.abs(d, out=work)
            dinf = float(work.max())
            if dinf <= 0.0:
                converged = True
                break
            np.divide(d, dinf, out=d_hat)
            slope = float(np.dot(g, d_hat))
            if slope >= 0.0:
                converged = True
                break
        # Backtracking Armijo search in absolute distance units.
        step = alpha
        if step_max is not None:
            step = min(step, step_max)
        accepted = False
        f_new = f
        for _ in range(max_backtracks):
            np.multiply(d_hat, step, out=x_try)
            x_try += x
            if project is not None:
                x_try = project(x_try)
            if split:
                f_try = probe(x_try)
            else:
                f_try, g_try = value_grad(x_try)
            if f_try <= f + armijo_c * step * slope or f_try < f:
                accepted = True
                f_new = f_try
                np.copyto(g_new, finish_grad() if split else g_try)
                break
            step *= backtrack
        if not accepted:
            converged = True
            break
        last_step = step
        # Adapt the trial step: grow after easy acceptance, keep otherwise.
        alpha = step * (2.0 if step >= alpha * 0.99 else 1.0)
        if step_max is not None:
            alpha = min(alpha, step_max)
        # Polak-Ribiere+ update.
        gg = float(np.dot(g, g))
        beta = 0.0
        if gg > 0:
            np.subtract(g_new, g, out=work)
            beta = max(0.0, float(np.dot(g_new, work)) / gg)
        d *= beta
        d -= g_new
        rel_drop = abs(f - f_new) / max(abs(f), 1e-12)
        x, x_try = x_try, x                  # accepted trial becomes iterate
        g, g_new = g_new, g
        f = f_new
        if record:
            trajectory.append(f)
        if rel_drop < rel_tol:
            converged = True
            break
    grad_norm = float(np.linalg.norm(g)) if g.size else 0.0
    return CGResult(
        x=x,
        value=f,
        grad_norm=grad_norm,
        iterations=iterations,
        converged=converged,
        trajectory=trajectory,
        final_step=last_step,
        nonfinite=not (math.isfinite(f) and math.isfinite(grad_norm)),
    )


def _minimize_cg_reference(
    value_grad,
    x0: np.ndarray,
    *,
    max_iter: int = 100,
    step_init: float = 1.0,
    step_max: float | None = None,
    rel_tol: float = 1e-4,
    armijo_c: float = 1e-4,
    backtrack: float = 0.5,
    max_backtracks: int = 12,
    project=None,
    record: bool = False,
) -> CGResult:
    """The original allocating implementation, kept verbatim."""
    x = np.array(x0, dtype=float)
    if project is not None:
        x = project(x)
    f, g = value_grad(x)
    d = -g
    alpha = float(step_init)
    trajectory = [f] if record else []
    converged = False
    iterations = 0
    last_step = 0.0
    for it in range(max_iter):
        iterations = it + 1
        dinf = float(np.max(np.abs(d))) if d.size else 0.0
        if dinf <= 0.0:
            converged = True
            break
        d_hat = d / dinf
        slope = float(np.dot(g, d_hat))
        if slope >= 0.0:  # not a descent direction: restart on -g
            d = -g
            dinf = float(np.max(np.abs(d)))
            if dinf <= 0.0:
                converged = True
                break
            d_hat = d / dinf
            slope = float(np.dot(g, d_hat))
            if slope >= 0.0:
                converged = True
                break
        # Backtracking Armijo search in absolute distance units.
        step = alpha
        if step_max is not None:
            step = min(step, step_max)
        accepted = False
        f_new = f
        x_new = x
        for _ in range(max_backtracks):
            x_try = x + step * d_hat
            if project is not None:
                x_try = project(x_try)
            f_try, g_try = value_grad(x_try)
            if f_try <= f + armijo_c * step * slope or f_try < f:
                accepted = True
                x_new, f_new, g_new = x_try, f_try, g_try
                break
            step *= backtrack
        if not accepted:
            converged = True
            break
        last_step = step
        # Adapt the trial step: grow after easy acceptance, keep otherwise.
        alpha = step * (2.0 if step >= alpha * 0.99 else 1.0)
        if step_max is not None:
            alpha = min(alpha, step_max)
        # Polak-Ribiere+ update.
        gg = float(np.dot(g, g))
        beta = 0.0
        if gg > 0:
            beta = max(0.0, float(np.dot(g_new, g_new - g)) / gg)
        d = -g_new + beta * d
        rel_drop = abs(f - f_new) / max(abs(f), 1e-12)
        x, f, g = x_new, f_new, g_new
        if record:
            trajectory.append(f)
        if rel_drop < rel_tol:
            converged = True
            break
    grad_norm = float(np.linalg.norm(g)) if g.size else 0.0
    return CGResult(
        x=x,
        value=f,
        grad_norm=grad_norm,
        iterations=iterations,
        converged=converged,
        trajectory=trajectory,
        final_step=last_step,
        nonfinite=not (math.isfinite(f) and math.isfinite(grad_norm)),
    )
