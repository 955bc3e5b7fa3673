"""The bell-shaped density potential and its analytic gradient.

For a node of width ``w`` and a bin of width ``wb``, the one-dimensional
kernel over the centre distance ``d`` is::

    p(d) = 1 - a*d^2                     for 0 <= d <= w/2 + wb
         = b*(d - (w/2 + 2*wb))^2        for w/2 + wb <= d <= w/2 + 2*wb
         = 0                             beyond

    a = 4 / ((w + 2*wb) * (w + 4*wb))
    b = 2 / (wb * (w + 4*wb))

which is continuous and continuously differentiable at both joints.  A
node's bin potential is the product of the x and y kernels, normalized so
its total mass equals the node area; the placement objective adds
``sum_b (phi_b - target_b)^2`` as a penalty.

Nodes whose kernel support spans few bins ("small": standard cells) are
processed with fixed-size vectorized window sweeps; macros take a per-node
sliced path.  Fixed objects enter through the *target*: their exact overlap
is subtracted from each bin's free capacity.

Hot-path layout: this is the single most evaluated kernel of global
placement (every CG line-search probe computes one potential and one
gradient), so the optimized path (the default) keeps all window-sweep
intermediates in preallocated buffers, scatters the potential with
``np.bincount`` over flattened bin indices (bit-identical to
``np.add.at``, several times faster), precomputes the per-node kernel
coefficients once, and walks large nodes with plain-slice views and a
lean scalar-coefficient kernel.  ``BellDensity(..., reference=True)``
keeps the original allocating implementation verbatim as the golden
baseline; ``tests/test_gp_perf_equiv.py`` asserts both modes agree to the
last bit.
"""

from __future__ import annotations

import numpy as np

from repro.grids import BinGrid

# Window sweeps cost O(K^2) vectorized passes; nodes needing more go to the
# per-node path.
_MAX_WINDOW = 8


def bell_kernel(d, w, wb):
    """The 1-D bell kernel ``p`` and derivative ``dp/dd`` at distances ``d``.

    ``d`` may be signed; the kernel is even and the derivative returned is
    with respect to the *signed* distance (node centre minus bin centre).
    """
    d = np.asarray(d, dtype=float)
    w = np.asarray(w, dtype=float)
    sign = np.sign(d)
    ad = np.abs(d)
    r1 = w / 2.0 + wb
    r2 = w / 2.0 + 2.0 * wb
    a = 4.0 / ((w + 2.0 * wb) * (w + 4.0 * wb))
    b = 2.0 / (wb * (w + 4.0 * wb))
    inner = ad <= r1
    outer = (ad > r1) & (ad <= r2)
    p = np.zeros_like(ad)
    dp = np.zeros_like(ad)
    p = np.where(inner, 1.0 - a * ad * ad, p)
    dp = np.where(inner, -2.0 * a * ad, dp)
    p = np.where(outer, b * (ad - r2) ** 2, p)
    dp = np.where(outer, 2.0 * b * (ad - r2), dp)
    return p, dp * sign


class BellDensity:
    """Vectorized bell-shape density potential over a :class:`BinGrid`."""

    def __init__(
        self,
        grid: BinGrid,
        widths: np.ndarray,
        heights: np.ndarray,
        movable_mask: np.ndarray,
        fixed_rects=(),
        target_density: float | None = None,
        target_scale: np.ndarray | None = None,
        reference: bool = False,
    ):
        """``target_scale`` (optional, per bin in [0, 1]) modulates how much
        cell area each bin should attract — the whitespace-reservation
        hook: bins over routing-starved regions get a scale below 1 so
        the placer leaves room for wires there.  ``reference=True`` keeps
        the original (pre-overhaul) evaluation path verbatim."""
        self.grid = grid
        self.widths = np.asarray(widths, dtype=float)
        self.heights = np.asarray(heights, dtype=float)
        self.movable = np.asarray(movable_mask, dtype=bool)
        self.num_nodes = len(self.widths)
        self.reference = bool(reference)
        # Effective spreading areas; congestion inflation overwrites these.
        self.areas = self.widths * self.heights
        # Free capacity per bin after fixed objects.
        base = grid.zeros()
        for xl, yl, xh, yh in fixed_rects:
            from repro.geometry import Rect

            if xh > xl and yh > yl:
                grid.add_rect(base, Rect(xl, yl, xh, yh))
        self.base = base
        self.free = np.maximum(grid.bin_area - base, 0.0)
        self.target_density = target_density
        if target_scale is not None:
            scale = np.asarray(target_scale, dtype=float)
            if scale.shape != self.free.shape:
                raise ValueError("target_scale must match the grid shape")
            self.free = self.free * np.clip(scale, 0.0, 1.0)
        self._split_small_large()
        self._target_cache = None
        self._probe = None

    # ------------------------------------------------------------------
    def _split_small_large(self):
        wb, hb = self.grid.bin_w, self.grid.bin_h
        span_x = np.ceil((self.widths + 4.0 * wb) / wb).astype(int) + 1
        span_y = np.ceil((self.heights + 4.0 * hb) / hb).astype(int) + 1
        movable_idx = np.flatnonzero(self.movable)
        small = movable_idx[
            (span_x[movable_idx] <= _MAX_WINDOW) & (span_y[movable_idx] <= _MAX_WINDOW)
        ]
        large = movable_idx[
            (span_x[movable_idx] > _MAX_WINDOW) | (span_y[movable_idx] > _MAX_WINDOW)
        ]
        self._small = small
        self._large = large
        if len(small):
            self._kx = int(span_x[small].max())
            self._ky = int(span_y[small].max())
        else:
            self._kx = self._ky = 0
        # Optimized-path precomputation: node-constant kernel coefficients
        # for the fused x|y window batch (columns ``0:kx`` carry the x-axis
        # coefficients, ``kx:kx+ky`` the y-axis ones, so one kernel batch
        # covers both axes) and the stacked coefficient columns of the
        # batched large-node path.
        if len(small) and not self.reference:
            w = self.widths[small][:, None]
            h = self.heights[small][:, None]
            self._sm_rx = w / 2.0 + 2.0 * wb
            self._sm_ry = h / 2.0 + 2.0 * hb
            kx, ky = self._kx, self._ky
            kt = kx + ky
            n = len(small)

            def fused(colx, coly):
                arr = np.empty((n, kt))
                arr[:, :kx] = colx
                arr[:, kx:] = coly
                return arr

            ax = 4.0 / ((w + 2.0 * wb) * (w + 4.0 * wb))
            bx = 2.0 / (wb * (w + 4.0 * wb))
            ay = 4.0 / ((h + 2.0 * hb) * (h + 4.0 * hb))
            by = 2.0 / (hb * (h + 4.0 * hb))
            self._sm_r1 = fused(w / 2.0 + wb, h / 2.0 + hb)
            self._sm_r2 = fused(w / 2.0 + 2.0 * wb, h / 2.0 + 2.0 * hb)
            self._sm_a = fused(ax, ay)
            self._sm_b = fused(bx, by)
            self._sm_m2a = fused(-2.0 * ax, -2.0 * ay)
            self._sm_b2 = fused(2.0 * bx, 2.0 * by)
        self._lg_idx = large
        if len(large) and not self.reference:
            wl = self.widths[large]
            hl = self.heights[large]
            self._lg_rx = wl / 2.0 + 2.0 * wb
            self._lg_ry = hl / 2.0 + 2.0 * hb
            w = wl[:, None]
            h = hl[:, None]
            self._lg_r1x = w / 2.0 + wb
            self._lg_r2x = w / 2.0 + 2.0 * wb
            self._lg_ax = 4.0 / ((w + 2.0 * wb) * (w + 4.0 * wb))
            self._lg_bx = 2.0 / (wb * (w + 4.0 * wb))
            self._lg_m2ax = -2.0 * self._lg_ax
            self._lg_b2x = 2.0 * self._lg_bx
            self._lg_r1y = h / 2.0 + hb
            self._lg_r2y = h / 2.0 + 2.0 * hb
            self._lg_ay = 4.0 / ((h + 2.0 * hb) * (h + 4.0 * hb))
            self._lg_by = 2.0 / (hb * (h + 4.0 * hb))
            self._lg_m2ay = -2.0 * self._lg_ay
            self._lg_b2y = 2.0 * self._lg_by
        self._bufs: dict = {}
        self._aranges: dict = {}
        self._areas_small = None

    def set_areas(self, areas: np.ndarray) -> None:
        """Override spreading areas (congestion-driven cell inflation)."""
        self.areas = np.asarray(areas, dtype=float)
        self._target_cache = None
        self._areas_small = None

    def target(self) -> np.ndarray:
        """Per-bin target potential.

        Free space is filled uniformly at the design's average utilization
        (or the user's ``target_density`` if that is higher), so total
        target mass is at least the total movable mass.
        """
        if self._target_cache is not None:
            return self._target_cache
        total_free = float(np.sum(self.free))
        total_area = float(np.sum(self.areas[self.movable]))
        t_auto = total_area / total_free if total_free > 0 else 1.0
        t = t_auto if self.target_density is None else max(
            min(self.target_density, 1.0), t_auto
        )
        self._target_cache = t * self.free
        return self._target_cache

    # ------------------------------------------------------------------
    # buffer management (optimized path)
    # ------------------------------------------------------------------
    def _buf(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.shape != tuple(shape):
            buf = np.empty(shape, dtype=dtype)
            self._bufs[name] = buf
        return buf

    def _arange(self, n: int) -> np.ndarray:
        rng = self._aranges.get(n)
        if rng is None:
            rng = np.arange(n, dtype=np.int64)
            self._aranges[n] = rng
        return rng

    def _bell_batch(self, d, r1, r2, a, m2a, b, b2, p, dp, prefix):
        """Buffered batched kernel; bit-identical to :func:`bell_kernel`."""
        shape = d.shape
        sgn = self._buf(prefix + "_sgn", shape)
        ad = self._buf(prefix + "_ad", shape)
        q = self._buf(prefix + "_q", shape)
        m1 = self._buf(prefix + "_m1", shape, dtype=bool)
        m2 = self._buf(prefix + "_m2", shape, dtype=bool)
        np.sign(d, out=sgn)
        np.abs(d, out=ad)
        # inner piece: p = 1 - a*ad*ad, dp = (-2a)*ad
        np.less_equal(ad, r1, out=m1)
        np.multiply(a, ad, out=p)
        p *= ad
        np.subtract(1.0, p, out=p)
        np.multiply(m2a, ad, out=dp)
        np.logical_not(m1, out=m2)
        np.copyto(p, 0.0, where=m2)
        np.copyto(dp, 0.0, where=m2)
        # outer piece: p = b*(ad - r2)^2, dp = (2b)*(ad - r2)
        np.greater(ad, r1, out=m1)
        np.less_equal(ad, r2, out=m2)
        np.logical_and(m1, m2, out=m1)
        np.subtract(ad, r2, out=q)
        np.multiply(q, q, out=ad)              # ad now scratch
        np.multiply(b, ad, out=ad)
        np.copyto(p, ad, where=m1)
        np.multiply(b2, q, out=q)
        np.copyto(dp, q, where=m1)
        dp *= sgn

    # ------------------------------------------------------------------
    def _small_window(self, cx: np.ndarray, cy: np.ndarray):
        """Window tables and per-bin contributions for this instance's
        small nodes.

        Returns ``(flat, px, dpx, py, dpy, norm, contrib)``; the caller
        owns the scatter/reduction of ``contrib`` into the field.
        """
        grid = self.grid
        idx = self._small
        n = len(idx)
        kx, ky = self._kx, self._ky
        wb, hb = grid.bin_w, grid.bin_h
        u = self._buf("u", (n, 1))
        v = self._buf("v", (n, 1))
        np.take(cx, idx, out=u[:, 0])
        np.take(cy, idx, out=v[:, 0])
        # ix0 = ceil((u - rx - xl)/wb - 0.5), per node
        t = self._buf("t", (n, 1))
        np.subtract(u, self._sm_rx, out=t)
        t -= grid.area.xl
        t /= wb
        t -= 0.5
        np.ceil(t, out=t)
        ix0 = self._buf("ix0", (n, 1), dtype=np.int64)
        np.copyto(ix0, t, casting="unsafe")
        np.subtract(v, self._sm_ry, out=t)
        t -= grid.area.yl
        t /= hb
        t -= 0.5
        np.ceil(t, out=t)
        iy0 = self._buf("iy0", (n, 1), dtype=np.int64)
        np.copyto(iy0, t, casting="unsafe")
        ix_all = self._buf("ix_all", (n, kx), dtype=np.int64)
        iy_all = self._buf("iy_all", (n, ky), dtype=np.int64)
        np.add(ix0, self._arange(kx), out=ix_all)
        np.add(iy0, self._arange(ky), out=iy_all)
        # bin centres, then signed distances, then kernels; the x and y
        # windows share one fused (n, kx+ky) batch so the kernel's op
        # sequence runs once instead of per axis.
        kt = kx + ky
        d_all = self._buf("d_all", (n, kt))
        dx = d_all[:, :kx]
        dy = d_all[:, kx:]
        np.add(ix_all, 0.5, out=dx)
        dx *= wb
        dx += grid.area.xl                 # bin_cx
        np.subtract(u, dx, out=dx)         # u - bin_cx
        np.add(iy_all, 0.5, out=dy)
        dy *= hb
        dy += grid.area.yl
        np.subtract(v, dy, out=dy)
        p_all = self._buf("p_all", (n, kt))
        dp_all = self._buf("dp_all", (n, kt))
        self._bell_batch(
            d_all, self._sm_r1, self._sm_r2, self._sm_a, self._sm_m2a,
            self._sm_b, self._sm_b2, p_all, dp_all, "k",
        )
        px = p_all[:, :kx]
        dpx = dp_all[:, :kx]
        py = p_all[:, kx:]
        dpy = dp_all[:, kx:]
        # zero window columns that fall off the grid
        mvx = self._buf("kx_m1", (n, kx), dtype=bool)
        mvy = self._buf("ky_m1", (n, ky), dtype=bool)
        np.less(ix_all, 0, out=mvx)
        np.greater_equal(ix_all, grid.nx, out=self._buf("kx_m2", (n, kx), dtype=bool))
        np.logical_or(mvx, self._bufs["kx_m2"], out=mvx)
        np.copyto(px, 0.0, where=mvx)
        np.copyto(dpx, 0.0, where=mvx)
        np.less(iy_all, 0, out=mvy)
        np.greater_equal(iy_all, grid.ny, out=self._buf("ky_m2", (n, ky), dtype=bool))
        np.logical_or(mvy, self._bufs["ky_m2"], out=mvy)
        np.copyto(py, 0.0, where=mvy)
        np.copyto(dpy, 0.0, where=mvy)
        # normalization: area / (Sx * Sy), guarded
        sum_px = self._buf("sum_px", (n,))
        sum_py = self._buf("sum_py", (n,))
        px.sum(axis=1, out=sum_px)
        py.sum(axis=1, out=sum_py)
        mass = self._buf("mass", (n,))
        np.multiply(sum_px, sum_py, out=mass)
        if self._areas_small is None:
            self._areas_small = self.areas[self._small]
        norm = self._buf("norm", (n,))
        np.maximum(mass, 1e-30, out=norm)
        np.divide(self._areas_small, norm, out=norm)
        mnz = self._buf("mnz", (n,), dtype=bool)
        np.less_equal(mass, 0.0, out=mnz)
        np.copyto(norm, 0.0, where=mnz)
        # One flattened bincount instead of Kx*Ky scatter passes.
        np.clip(ix_all, 0, grid.nx - 1, out=ix_all)
        np.clip(iy_all, 0, grid.ny - 1, out=iy_all)
        ix_all *= grid.ny
        flat = self._buf("flat", (n, kx, ky), dtype=np.int64)
        np.add(ix_all[:, :, None], iy_all[:, None, :], out=flat)
        t2 = self._buf("t2", (n, kx))
        np.multiply(norm[:, None], px, out=t2)
        contrib = self._buf("contrib", (n, kx, ky))
        np.multiply(t2[:, :, None], py[:, None, :], out=contrib)
        return flat, px, dpx, py, dpy, norm, contrib

    def potential(self, cx: np.ndarray, cy: np.ndarray):
        """The bin potential field and the per-node kernel tables.

        Returns ``(phi, small_tables, large_tables)``; the tables carry
        everything the gradient pass needs so kernels are evaluated once.
        """
        if self.reference:
            return self._potential_reference(cx, cy)
        grid = self.grid
        small_tables = None
        phi = None
        if len(self._small):
            flat, px, dpx, py, dpy, norm, contrib = self._small_window(cx, cy)
            phi = np.bincount(
                flat.reshape(-1), weights=contrib.reshape(-1),
                minlength=grid.nx * grid.ny,
            ).reshape(grid.nx, grid.ny)
            small_tables = (self._small, flat, px, dpx, py, dpy, norm)
        if phi is None:
            phi = grid.zeros()
        return phi, small_tables, self._large_batch(phi, cx, cy)

    def _large_batch(self, phi, cx, cy):
        """Batched large-node kernels, accumulated into ``phi`` in order.

        Bounds, bin centres, and both 1-D kernels are evaluated for all
        large nodes in one padded batch (per-node coefficient columns, rows
        padded to the widest window; padding is never read because every
        consumer works on exact-length row views).  The per-node sums,
        normalization, and ``phi`` scatter keep the original sequential
        per-node order and arithmetic, so the field and the returned
        tables are bit-identical to the per-node loop.
        """
        idxl = self._lg_idx
        large_tables = []
        if not len(idxl):
            return large_tables
        grid = self.grid
        wb, hb = grid.bin_w, grid.bin_h
        u = cx[idxl]
        v = cy[idxl]
        ix0 = np.maximum(
            0, np.ceil((u - self._lg_rx - grid.area.xl) / wb - 0.5).astype(np.int64)
        )
        ix1 = np.minimum(
            grid.nx - 1,
            np.floor((u + self._lg_rx - grid.area.xl) / wb - 0.5).astype(np.int64),
        )
        iy0 = np.maximum(
            0, np.ceil((v - self._lg_ry - grid.area.yl) / hb - 0.5).astype(np.int64)
        )
        iy1 = np.minimum(
            grid.ny - 1,
            np.floor((v + self._lg_ry - grid.area.yl) / hb - 0.5).astype(np.int64),
        )
        valid = (ix1 >= ix0) & (iy1 >= iy0)
        if not valid.any():
            return large_tables
        full = bool(valid.all())
        sub = None if full else np.flatnonzero(valid)

        def take(a):
            return a if full else a[sub]

        uv = take(u)[:, None]
        vv = take(v)[:, None]
        ix0v, ix1v = take(ix0), take(ix1)
        iy0v, iy1v = take(iy0), take(iy1)
        lxv = ix1v - ix0v + 1
        lyv = iy1v - iy0v + 1
        m = len(ix0v)
        Lx = int(lxv.max())
        Ly = int(lyv.max())
        slx = ix0v[:, None] + self._arange(Lx)
        sly = iy0v[:, None] + self._arange(Ly)
        dx = grid.area.xl + (slx + 0.5) * wb
        np.subtract(uv, dx, out=dx)
        dy = grid.area.yl + (sly + 0.5) * hb
        np.subtract(vv, dy, out=dy)
        px = self._buf("lg_px", (m, Lx))
        dpx = self._buf("lg_dpx", (m, Lx))
        py = self._buf("lg_py", (m, Ly))
        dpy = self._buf("lg_dpy", (m, Ly))
        self._bell_batch(
            dx, take(self._lg_r1x), take(self._lg_r2x), take(self._lg_ax),
            take(self._lg_m2ax), take(self._lg_bx), take(self._lg_b2x),
            px, dpx, "lgx",
        )
        self._bell_batch(
            dy, take(self._lg_r1y), take(self._lg_r2y), take(self._lg_ay),
            take(self._lg_m2ay), take(self._lg_by), take(self._lg_b2y),
            py, dpy, "lgy",
        )
        nodes = (idxl if full else idxl[sub]).tolist()
        ix0l, ix1l = ix0v.tolist(), ix1v.tolist()
        iy0l, iy1l = iy0v.tolist(), iy1v.tolist()
        lxl, lyl = lxv.tolist(), lyv.tolist()
        areas = self.areas
        for j in range(m):
            lx = lxl[j]
            ly = lyl[j]
            pxr = px[j, :lx]
            pyr = py[j, :ly]
            s_px = float(pxr.sum())
            s_py = float(pyr.sum())
            mass = s_px * s_py
            if mass <= 0:
                continue
            i = nodes[j]
            norm = areas[i] / mass
            a0, a1, b0, b1 = ix0l[j], ix1l[j], iy0l[j], iy1l[j]
            phi[a0 : a1 + 1, b0 : b1 + 1] += norm * np.outer(pxr, pyr)
            dpxr = dpx[j, :lx]
            dpyr = dpy[j, :ly]
            large_tables.append(
                (
                    i, a0, a1, b0, b1, pxr, dpxr, pyr, dpyr, norm,
                    s_px, s_py, float(dpxr.sum()), float(dpyr.sum()),
                )
            )
        return large_tables

    def _potential_reference(self, cx: np.ndarray, cy: np.ndarray):
        """The original allocating potential evaluation, verbatim."""
        grid = self.grid
        phi = grid.zeros()
        small_tables = None
        if len(self._small):
            idx = self._small
            u = cx[idx]
            v = cy[idx]
            w = self.widths[idx]
            h = self.heights[idx]
            wb, hb = grid.bin_w, grid.bin_h
            rx = w / 2.0 + 2.0 * wb
            ry = h / 2.0 + 2.0 * hb
            ix0 = np.ceil((u - rx - grid.area.xl) / wb - 0.5).astype(np.int64)
            iy0 = np.ceil((v - ry - grid.area.yl) / hb - 0.5).astype(np.int64)
            ks = np.arange(self._kx)
            ls = np.arange(self._ky)
            ix_all = ix0[:, None] + ks[None, :]
            iy_all = iy0[:, None] + ls[None, :]
            bin_cx = grid.area.xl + (ix_all + 0.5) * wb
            bin_cy = grid.area.yl + (iy_all + 0.5) * hb
            px, dpx = bell_kernel(u[:, None] - bin_cx, w[:, None], wb)
            py, dpy = bell_kernel(v[:, None] - bin_cy, h[:, None], hb)
            valid_x = (ix_all >= 0) & (ix_all < grid.nx)
            valid_y = (iy_all >= 0) & (iy_all < grid.ny)
            px = np.where(valid_x, px, 0.0)
            dpx = np.where(valid_x, dpx, 0.0)
            py = np.where(valid_y, py, 0.0)
            dpy = np.where(valid_y, dpy, 0.0)
            sum_px = px.sum(axis=1)
            sum_py = py.sum(axis=1)
            mass = sum_px * sum_py
            norm = np.where(mass > 0, self.areas[idx] / np.maximum(mass, 1e-30), 0.0)
            # One flattened scatter instead of Kx*Ky passes.
            flat = (
                np.clip(ix_all, 0, grid.nx - 1)[:, :, None] * grid.ny
                + np.clip(iy_all, 0, grid.ny - 1)[:, None, :]
            )
            contrib = (norm[:, None] * px)[:, :, None] * py[:, None, :]
            np.add.at(phi.reshape(-1), flat.reshape(-1), contrib.reshape(-1))
            small_tables = (idx, flat, px, dpx, py, dpy, norm)
        large_tables = []
        for i in self._large:
            entry = self._large_node_kernel(i, cx[i], cy[i])
            if entry is None:
                continue
            sl_x, sl_y, px, dpx, py, dpy, norm = entry
            phi[np.ix_(sl_x, sl_y)] += norm * np.outer(px, py)
            large_tables.append((i, sl_x, sl_y, px, dpx, py, dpy, norm))
        return phi, small_tables, large_tables

    def _large_node_kernel(self, i: int, u: float, v: float):
        grid = self.grid
        wb, hb = grid.bin_w, grid.bin_h
        w, h = self.widths[i], self.heights[i]
        rx = w / 2.0 + 2.0 * wb
        ry = h / 2.0 + 2.0 * hb
        ix0 = max(0, int(np.ceil((u - rx - grid.area.xl) / wb - 0.5)))
        ix1 = min(grid.nx - 1, int(np.floor((u + rx - grid.area.xl) / wb - 0.5)))
        iy0 = max(0, int(np.ceil((v - ry - grid.area.yl) / hb - 0.5)))
        iy1 = min(grid.ny - 1, int(np.floor((v + ry - grid.area.yl) / hb - 0.5)))
        if ix1 < ix0 or iy1 < iy0:
            return None
        sl_x = np.arange(ix0, ix1 + 1)
        sl_y = np.arange(iy0, iy1 + 1)
        bin_cx = grid.area.xl + (sl_x + 0.5) * wb
        bin_cy = grid.area.yl + (sl_y + 0.5) * hb
        px, dpx = bell_kernel(u - bin_cx, w, wb)
        py, dpy = bell_kernel(v - bin_cy, h, hb)
        mass = px.sum() * py.sum()
        if mass <= 0:
            return None
        norm = self.areas[i] / mass
        return sl_x, sl_y, px, dpx, py, dpy, norm

    # ------------------------------------------------------------------
    def value_grad(self, cx: np.ndarray, cy: np.ndarray):
        """Penalty ``sum_b (phi_b - target_b)^2`` and its node gradient."""
        if self.reference:
            return self._value_grad_reference(cx, cy)
        phi, small_tables, large_tables = self.potential(cx, cy)
        psi = phi - self.target()
        value = float(np.sum(psi * psi))
        grad_x, grad_y = self._grad_from_tables(psi, small_tables, large_tables)
        return value, grad_x, grad_y

    def value_probe(self, cx: np.ndarray, cy: np.ndarray) -> float:
        """Penalty value only, stashing tables for :meth:`finish_grad`.

        With :meth:`finish_grad` this splits one ``value_grad`` into the
        cheap half the line search always needs and the gradient half
        only accepted points need; both halves run the same ops as
        ``value_grad``, so the split pair is bit-identical to it.  In
        reference mode it evaluates ``value_grad`` and caches the result.
        """
        if self.reference:
            value, gx, gy = self.value_grad(cx, cy)
            self._probe = ("full", gx, gy)
            return value
        phi, small_tables, large_tables = self.potential(cx, cy)
        psi = phi - self.target()
        self._probe = ("split", psi, small_tables, large_tables)
        return float(np.sum(psi * psi))

    def finish_grad(self):
        """Gradients of the last :meth:`value_probe` point."""
        if self._probe[0] == "full":
            return self._probe[1], self._probe[2]
        _, psi, small_tables, large_tables = self._probe
        return self._grad_from_tables(psi, small_tables, large_tables)

    def _small_grad(self, psi, small_tables):
        """Per-node small gradient rows ``(t1x, t1y)`` from window tables.

        The caller scatters them into the full gradient vectors.
        """
        _idx, flat, px, dpx, py, dpy, norm = small_tables
        n, kx, ky = flat.shape
        field = self._buf("field", (n, kx, ky))
        np.take(psi.reshape(-1), flat, out=field)   # one gather
        fy = self._buf("fy", (n, kx, ky))
        np.multiply(field, py[:, None, :], out=fy)
        t3 = self._buf("t3", (n, kx, ky))
        gx = self._buf("gx", (n,))
        gy = self._buf("gy", (n,))
        gpp = self._buf("gpp", (n,))
        np.multiply(fy, dpx[:, :, None], out=t3)
        t3.sum(axis=(1, 2), out=gx)
        np.multiply(fy, px[:, :, None], out=t3)
        t3.sum(axis=(1, 2), out=gpp)
        np.multiply(field, px[:, :, None], out=t3)
        t3 *= dpy[:, None, :]
        t3.sum(axis=(1, 2), out=gy)
        sum_px = self._buf("g_sum_px", (n,))
        sum_py = self._buf("g_sum_py", (n,))
        px.sum(axis=1, out=sum_px)
        np.maximum(sum_px, 1e-30, out=sum_px)
        py.sum(axis=1, out=sum_py)
        np.maximum(sum_py, 1e-30, out=sum_py)
        sum_dpx = self._buf("sum_dpx", (n,))
        sum_dpy = self._buf("sum_dpy", (n,))
        dpx.sum(axis=1, out=sum_dpx)
        dpy.sum(axis=1, out=sum_dpy)
        # grad = 2*norm*(g - gpp*sum_dp/sum_p), assembled in buffers
        n2 = self._buf("n2", (n,))
        np.multiply(2.0, norm, out=n2)
        t1x = self._buf("t1x", (n,))
        np.multiply(gpp, sum_dpx, out=t1x)
        t1x /= sum_px
        np.subtract(gx, t1x, out=t1x)
        t1x *= n2
        t1y = self._buf("t1y", (n,))
        np.multiply(gpp, sum_dpy, out=t1y)
        t1y /= sum_py
        np.subtract(gy, t1y, out=t1y)
        t1y *= n2
        return t1x, t1y

    def _grad_from_tables(self, psi, small_tables, large_tables):
        grad_x = np.zeros(self.num_nodes)
        grad_y = np.zeros(self.num_nodes)
        # The kernel mass sum_k p(k) varies with a node's phase relative to
        # the bin grid, so the normalization N = area / (Sx * Sy) is itself
        # position dependent; including dN makes the gradient exact.
        if small_tables is not None:
            idx = small_tables[0]
            t1x, t1y = self._small_grad(psi, small_tables)
            grad_x[idx] = t1x
            grad_y[idx] = t1y
        # Kernel sums were already taken in the potential pass; ``@`` is
        # left-associative, so sharing ``px @ field`` between the gpp and
        # grad_y contractions reproduces the original products exactly.
        for i, ix0, ix1, iy0, iy1, px, dpx, py, dpy, norm, s_px, s_py, s_dpx, s_dpy in large_tables:
            field = psi[ix0 : ix1 + 1, iy0 : iy1 + 1].copy()
            t = px @ field
            gpp = float(t @ py)
            sum_px = max(s_px, 1e-30)
            sum_py = max(s_py, 1e-30)
            grad_x[i] = 2.0 * norm * (
                float(dpx @ field @ py) - gpp * s_dpx / sum_px
            )
            grad_y[i] = 2.0 * norm * (
                float(t @ dpy) - gpp * s_dpy / sum_py
            )
        return grad_x, grad_y

    def _value_grad_reference(self, cx: np.ndarray, cy: np.ndarray):
        """The original allocating gradient evaluation, verbatim."""
        phi, small_tables, large_tables = self._potential_reference(cx, cy)
        psi = phi - self.target()
        value = float(np.sum(psi * psi))
        grad_x = np.zeros(self.num_nodes)
        grad_y = np.zeros(self.num_nodes)
        # The kernel mass sum_k p(k) varies with a node's phase relative to
        # the bin grid, so the normalization N = area / (Sx * Sy) is itself
        # position dependent; including dN makes the gradient exact.
        if small_tables is not None:
            idx, flat, px, dpx, py, dpy, norm = small_tables
            field = psi.reshape(-1)[flat]  # (n, Kx, Ky), one gather
            fy = field * py[:, None, :]
            gx = (fy * dpx[:, :, None]).sum(axis=(1, 2))
            gpp = (fy * px[:, :, None]).sum(axis=(1, 2))
            gy = (field * px[:, :, None] * dpy[:, None, :]).sum(axis=(1, 2))
            sum_px = np.maximum(px.sum(axis=1), 1e-30)
            sum_py = np.maximum(py.sum(axis=1), 1e-30)
            sum_dpx = dpx.sum(axis=1)
            sum_dpy = dpy.sum(axis=1)
            grad_x[idx] = 2.0 * norm * (gx - gpp * sum_dpx / sum_px)
            grad_y[idx] = 2.0 * norm * (gy - gpp * sum_dpy / sum_py)
        for i, sl_x, sl_y, px, dpx, py, dpy, norm in large_tables:
            field = psi[np.ix_(sl_x, sl_y)]
            gpp = float(px @ field @ py)
            sum_px = max(float(px.sum()), 1e-30)
            sum_py = max(float(py.sum()), 1e-30)
            grad_x[i] = 2.0 * norm * (
                float(dpx @ field @ py) - gpp * float(dpx.sum()) / sum_px
            )
            grad_y[i] = 2.0 * norm * (
                float(px @ field @ dpy) - gpp * float(dpy.sum()) / sum_py
            )
        return value, grad_x, grad_y

    def value(self, cx: np.ndarray, cy: np.ndarray) -> float:
        phi, _, _ = self.potential(cx, cy)
        psi = phi - self.target()
        return float(np.sum(psi * psi))
