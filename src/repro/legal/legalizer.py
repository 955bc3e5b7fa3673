"""The legalization stage orchestrator."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.db import Design
from repro.legal.abacus import abacus_refine
from repro.legal.check import LegalityReport, check_legal
from repro.legal.macro_legal import legalize_macros
from repro.legal.subrows import SubRowMap
from repro.legal.tetris import tetris_legalize
from repro.obs import get_tracer


@dataclass
class LegalConfig:
    """Knobs of :class:`Legalizer`."""

    macro_channel: float = 0.0
    row_probe: int = 24
    # Fallback mode: skip the Abacus refinement and accept the plain
    # Tetris result.  The flow switches this on when a full legalization
    # attempt fails, trading displacement quality for a placement that is
    # still legal.
    tetris_only: bool = False
    # Golden mode: run the original per-object Tetris / Abacus / audit
    # implementations (kept verbatim) instead of the array-based hot
    # paths.  Results are bit-identical either way — CI and the
    # equivalence tests assert it.
    reference: bool = False


@dataclass
class LegalizeResult:
    """Outcome of :meth:`Legalizer.legalize`."""

    submap: SubRowMap
    macros_moved: int
    total_displacement: float
    max_displacement: float
    runtime_seconds: float
    report: LegalityReport

    @property
    def ok(self) -> bool:
        return self.report.ok


class Legalizer:
    """Macro legalization + Tetris + Abacus, with a legality audit."""

    def __init__(
        self,
        config: LegalConfig | None = None,
        *,
        macro_channel: float | None = None,
        row_probe: int | None = None,
        tetris_only: bool | None = None,
        reference: bool | None = None,
    ):
        cfg = config or LegalConfig()
        # Keyword overrides keep the historical constructor working.
        if macro_channel is not None:
            cfg = replace(cfg, macro_channel=macro_channel)
        if row_probe is not None:
            cfg = replace(cfg, row_probe=row_probe)
        if tetris_only is not None:
            cfg = replace(cfg, tetris_only=tetris_only)
        if reference is not None:
            cfg = replace(cfg, reference=reference)
        self.config = cfg
        self.macro_channel = cfg.macro_channel
        self.row_probe = cfg.row_probe
        self.tetris_only = cfg.tetris_only
        self.reference = cfg.reference

    def legalize(self, design: Design) -> LegalizeResult:
        tracer = get_tracer()
        t0 = time.perf_counter()
        desired = {
            n.index: (n.x, n.y) for n in design.nodes if n.is_movable
        }
        with tracer.span("macro_legal"):
            macros_moved = legalize_macros(design, channel=self.macro_channel)
        with tracer.span("tetris"):
            submap = SubRowMap(design)
            tetris_legalize(
                design,
                submap,
                row_probe=self.row_probe,
                reference=self.reference,
            )
        if not self.tetris_only:
            with tracer.span("abacus"):
                abacus_refine(
                    design,
                    submap,
                    {i: xy[0] for i, xy in desired.items()},
                    reference=self.reference,
                )
        total = 0.0
        worst = 0.0
        for node in design.nodes:
            if not node.is_movable:
                continue
            dx0, dy0 = desired[node.index]
            d = abs(node.x - dx0) + abs(node.y - dy0)
            total += d
            worst = max(worst, d)
        with tracer.span("audit"):
            report = check_legal(design, reference=self.reference)
        tracer.metrics.gauge("legal.total_displacement").set(total)
        tracer.metrics.gauge("legal.max_displacement").set(worst)
        return LegalizeResult(
            submap=submap,
            macros_moved=macros_moved,
            total_displacement=total,
            max_displacement=worst,
            runtime_seconds=time.perf_counter() - t0,
            report=report,
        )
