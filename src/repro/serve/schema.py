"""Versioned schema for job records (the serve engine's unit of state).

One job record describes one queued placement run end to end: what to
place (a suite name, an inline benchgen spec, or a Bookshelf ``.aux``
path), how to run it (flow options and stage budgets), where it stands
in the lifecycle state machine, and — once a worker finishes it — the
result summary.  Records are JSON documents
stored in the job store's SQLite ``record`` column and served verbatim
over the HTTP API, versioned by :data:`JOB_SCHEMA_VERSION` and
committed as ``docs/schemas/job-record-v1.schema.json`` (a test asserts
the committed file matches :func:`build_job_schema`).

Lifecycle states (see ``docs/serving.md`` for the transition diagram)::

    queued ──claim──> running ──ok──> done
      │                  │ │
      │                  │ └─crash/timeout─> queued (attempts <= max_retries)
      │                  │                └─> failed  (retries exhausted)
      │                  └──────cancel──────> cancelled
      └────────────────cancel───────────────> cancelled

Every requeue appends a machine-readable entry to ``requeues`` — the
job-level analogue of ``FlowResult.degradation``.
"""

from __future__ import annotations

import time
import uuid

from repro.obs.schema import SchemaError, validate

#: Job-record schema version.
JOB_SCHEMA_VERSION = 1

#: The lifecycle states a job can be in.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

_NUM = {"type": ["number", "integer"]}
_OPT_NUM = {"type": ["number", "integer", "null"]}
_STR = {"type": "string"}
_OPT_STR = {"type": ["string", "null"]}
_INT = {"type": "integer"}
_OPT_INT = {"type": ["integer", "null"]}
_BOOL = {"type": "boolean"}
_OBJ = {"type": "object"}
_OPT_OBJ = {"type": ["object", "null"]}


def build_job_schema() -> dict:
    """The JSON-Schema document for serve job records."""
    return {
        "$id": f"repro/job-record/v{JOB_SCHEMA_VERSION}",
        "title": "repro.serve job record",
        "version": JOB_SCHEMA_VERSION,
        "records": {
            "job": {
                "type": "object",
                "properties": {
                    "schema": _INT,
                    "job_id": _STR,
                    "created": _NUM,
                    "priority": _INT,
                    "state": {"enum": list(JOB_STATES)},
                    "attempts": {"type": "integer", "minimum": 0},
                    "max_retries": {"type": "integer", "minimum": 0},
                    # What to place: exactly one of suite/spec/aux.
                    "design": {
                        "type": "object",
                        "properties": {
                            "suite": _STR,
                            "spec": _OBJ,
                            "aux": _STR,
                        },
                        "additionalProperties": False,
                    },
                    # How to run it (all optional; see docs/serving.md).
                    "options": {
                        "type": "object",
                        "properties": {
                            "route": _BOOL,
                            "run_dp": _BOOL,
                            "wirelength_only": _BOOL,
                            # Dotted FlowConfig overrides, e.g.
                            # {"gp.max_outer_iterations": 12}.
                            "config": _OBJ,
                            "stage_budget": _OBJ,
                            # Hard wall-clock budget for one attempt, in
                            # seconds; the supervisor kills and requeues
                            # past it.
                            "timeout": _OPT_NUM,
                            # REPRO_FAULTS-style spec installed for this
                            # job only (chaos/CI hook).
                            "faults": _OPT_STR,
                        },
                        "additionalProperties": False,
                    },
                    # Lifecycle timestamps and ownership.
                    "submitted": _NUM,
                    "started": _OPT_NUM,
                    "finished": _OPT_NUM,
                    "worker": _OPT_INT,
                    "heartbeat": _OPT_NUM,
                    "stage": _OPT_STR,
                    "cancel_requested": _BOOL,
                    # Artifacts.
                    "job_dir": _OPT_STR,
                    "trace_path": _OPT_STR,
                    "checkpoint_dir": _OPT_STR,
                    # Outcome.
                    "result": _OPT_OBJ,
                    "error": _OPT_STR,
                    "requeues": {"type": "array", "items": _OBJ},
                },
                "required": [
                    "schema", "job_id", "created", "priority", "state",
                    "attempts", "max_retries", "design", "options",
                    "submitted", "cancel_requested", "requeues",
                ],
                "additionalProperties": False,
            }
        },
    }


def validate_job_record(record: dict) -> None:
    """Validate one job record; raises :class:`SchemaError` on mismatch."""
    validate(record, build_job_schema()["records"]["job"])
    design = record.get("design", {})
    sources = [k for k in ("suite", "spec", "aux") if k in design]
    if len(sources) != 1:
        raise SchemaError(
            "design must name exactly one of suite/spec/aux, "
            f"got {sources or 'none'}"
        )


def new_job_id(hint: str = "job") -> str:
    """``<hint>-<utc stamp>-<nonce>`` — sortable, unique, greppable."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{hint}-{stamp}-{uuid.uuid4().hex[:8]}"


def new_job_record(
    design: dict,
    *,
    options: dict | None = None,
    priority: int = 0,
    max_retries: int = 2,
    now: float | None = None,
) -> dict:
    """A fresh ``queued`` job record for one submission (validated)."""
    now = time.time() if now is None else float(now)
    hint = design.get("suite") or design.get("spec", {}).get("name") or "job"
    record = {
        "schema": JOB_SCHEMA_VERSION,
        "job_id": new_job_id(str(hint)),
        "created": now,
        "priority": int(priority),
        "state": "queued",
        "attempts": 0,
        "max_retries": int(max_retries),
        "design": dict(design),
        "options": dict(options or {}),
        "submitted": now,
        "started": None,
        "finished": None,
        "worker": None,
        "heartbeat": None,
        "stage": None,
        "cancel_requested": False,
        "job_dir": None,
        "trace_path": None,
        "checkpoint_dir": None,
        "result": None,
        "error": None,
        "requeues": [],
    }
    validate_job_record(record)
    return record
