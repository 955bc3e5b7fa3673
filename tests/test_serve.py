"""Tests for the placement-as-a-service job engine (``repro.serve``).

Covers the store's transactional semantics (the claim, attempt-scoped
write guards, bounded requeues), the job-record schema and records
stored under an older revision of it, the per-job flow config, and the
supervisor's crash/cancel reliability loop end to end — including the
two failure drills the engine exists for: a worker killed mid-flow
whose job resumes bit-identically from its checkpoint, and a cancel
during routing that leaves no shared-memory segment behind.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import signal
import sqlite3
import time

import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.serve import (
    JobServer,
    JobStore,
    JobStoreError,
    ServeSettings,
    WorkerSupervisor,
)
from repro.serve.journal import check_invariants, entry_for
from repro.serve.schema import (
    JOB_SCHEMA_VERSION,
    SchemaError,
    build_job_schema,
    new_job_record,
    validate_job_record,
)
from repro.serve.worker import build_flow_config, flow_result_summary

SPEC = {"name": "servetest", "num_cells": 40, "seed": 11}


def fast_settings(**overrides) -> ServeSettings:
    base = dict(
        workers=1,
        poll_interval=0.02,
        heartbeat_interval=0.1,
        monitor_interval=0.1,
        stale_timeout=30.0,
        cancel_grace=2.0,
        default_max_retries=2,
    )
    base.update(overrides)
    return ServeSettings(**base)


def wait_for(predicate, *, timeout: float = 60.0, poll: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise AssertionError(f"timed out after {timeout}s waiting for {predicate}")


class TestJobSchema:
    def test_new_record_validates(self):
        record = new_job_record({"spec": SPEC})
        validate_job_record(record)
        assert record["state"] == "queued"
        assert record["attempts"] == 0
        assert record["schema"] == JOB_SCHEMA_VERSION

    def test_design_needs_exactly_one_source(self):
        with pytest.raises(SchemaError):
            new_job_record({})
        with pytest.raises(SchemaError):
            new_job_record({"spec": SPEC, "suite": "small"})

    def test_rejects_unknown_fields(self):
        record = new_job_record({"spec": SPEC})
        record["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            validate_job_record(record)

    def test_rejects_flow_worker_count(self):
        with pytest.raises(SchemaError, match="workers"):
            new_job_record({"spec": SPEC}, options={"workers": 2})

    def test_rejects_bad_state(self):
        record = new_job_record({"spec": SPEC})
        record["state"] = "pondering"
        with pytest.raises(SchemaError, match="state"):
            validate_job_record(record)

    def test_committed_schema_matches_builder(self):
        path = os.path.join(
            os.path.dirname(__file__), os.pardir, "docs", "schemas",
            f"job-record-v{JOB_SCHEMA_VERSION}.schema.json",
        )
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == build_job_schema()


class TestJobStore:
    def _store(self, tmp_path) -> JobStore:
        return JobStore(tmp_path / "serve")

    def test_claim_orders_by_priority_then_fifo(self, tmp_path):
        store = self._store(tmp_path)
        low = store.submit({"spec": SPEC}, priority=0)
        high = store.submit({"spec": SPEC}, priority=5)
        low2 = store.submit({"spec": SPEC}, priority=0)
        order = [store.claim(1)["job_id"] for _ in range(3)]
        assert order == [high["job_id"], low["job_id"], low2["job_id"]]
        assert store.claim(1) is None

    def test_claim_stamps_lease(self, tmp_path):
        store = self._store(tmp_path)
        store.submit({"spec": SPEC})
        record = store.claim(4242)
        assert record["state"] == "running"
        assert record["attempts"] == 1
        assert record["worker"] == 4242
        assert record["started"] is not None
        assert record["heartbeat"] is not None

    def test_heartbeat_statuses(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(1)
        assert store.heartbeat(job_id, attempt=1, stage="flow/gp") == "ok"
        assert store.get(job_id)["stage"] == "flow/gp"
        # A stale attempt may not write anything.
        before = store.get(job_id)["heartbeat"]
        assert store.heartbeat(job_id, attempt=2, now=before + 99) == "superseded"
        assert store.get(job_id)["heartbeat"] == before
        store.request_cancel(job_id)
        assert store.heartbeat(job_id, attempt=1) == "cancel"

    def test_set_paths_guarded_by_attempt(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(1)
        assert store.set_paths(job_id, attempt=2, job_dir="/stale") is False
        assert store.get(job_id)["job_dir"] is None
        assert store.set_paths(job_id, attempt=1, job_dir="/live") is True
        assert store.get(job_id)["job_dir"] == "/live"

    def test_zombie_attempt_cannot_finish(self, tmp_path):
        # The exact race behind a once-observed double-run: job requeued
        # and re-claimed while the first attempt's process is still
        # alive.  The stale attempt's terminal write must be refused.
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(111)
        store.requeue(job_id, "worker_lost", expect_worker=111)
        store.claim(222)  # attempt 2 owns the job now
        stale = store.finish(job_id, {"hpwl_final": 1.0}, attempt=1)
        assert stale["state"] == "running"
        assert stale.get("result") is None
        live = store.finish(job_id, {"hpwl_final": 2.0}, attempt=2)
        assert live["state"] == "done"
        assert live["result"]["hpwl_final"] == 2.0

    def test_requeue_guarded_by_observed_worker(self, tmp_path):
        # The supervisor's poll snapshot is stale by construction; a
        # requeue naming a pid that no longer owns the job is a no-op.
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(111)
        refused = store.requeue(job_id, "worker_lost", expect_worker=999)
        assert refused["state"] == "running"
        assert refused["requeues"] == []

    def test_requeue_bounded_by_max_retries(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC}, max_retries=1)["job_id"]
        store.claim(1)
        assert store.requeue(job_id, "worker_lost")["state"] == "queued"
        store.claim(1)
        final = store.requeue(job_id, "worker_lost")
        assert final["state"] == "failed"
        assert "retries exhausted" in final["error"]
        assert [e["reason"] for e in final["requeues"]] == ["worker_lost"] * 2

    def test_requeue_refund_does_not_burn_attempt(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC}, max_retries=0)["job_id"]
        store.claim(1)
        record = store.requeue(job_id, "shutdown", count_attempt=False)
        assert record["state"] == "queued"
        assert record["attempts"] == 0
        assert store.claim(1)["attempts"] == 1

    def test_first_terminal_state_wins(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(1)
        store.finish(job_id, {"hpwl_final": 1.0}, attempt=1)
        after = store.fail(job_id, "too late")
        assert after["state"] == "done"
        assert after["error"] is None

    def test_cancel_queued_is_immediate(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        record = store.request_cancel(job_id)
        assert record["state"] == "cancelled"
        assert store.claim(1) is None

    def test_cancel_running_sets_flag(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(1)
        record = store.request_cancel(job_id)
        assert record["state"] == "running"
        assert record["cancel_requested"] is True

    def test_get_by_unique_prefix(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.submit({"spec": SPEC})["job_id"]
        assert store.get(job_id[:12])["job_id"] == job_id
        with pytest.raises(JobStoreError, match="no job"):
            store.get("nope")

    def test_counts_and_idle(self, tmp_path):
        store = self._store(tmp_path)
        store.submit({"spec": SPEC})
        assert store.counts() == {"queued": 1}
        assert not store.idle()
        store.claim(1)
        job_id = store.list(state="running")[0]["job_id"]
        store.finish(job_id, {"hpwl_final": 0.0}, attempt=1)
        assert store.idle()

    def test_list_state_filter_and_pagination(self, tmp_path):
        store = self._store(tmp_path)
        ids = [store.submit({"spec": SPEC})["job_id"] for _ in range(5)]
        store.claim(1)
        store.finish(ids[0], {"hpwl_final": 0.0}, attempt=1)
        assert {r["job_id"] for r in store.list(state="queued")} == set(
            ids[1:]
        )
        assert [r["job_id"] for r in store.list(state="done")] == [ids[0]]
        # Newest first; limit/offset page through without overlap.
        everything = store.list()
        assert [r["job_id"] for r in everything] == list(reversed(ids))
        paged = store.list(limit=2) + store.list(limit=2, offset=2) \
            + store.list(limit=2, offset=4)
        assert [r["job_id"] for r in paged] == list(reversed(ids))

    def test_claim_order_stable_under_concurrent_submitters(self, tmp_path):
        import threading

        store = self._store(tmp_path)
        submitted: list[tuple[int, str]] = []
        lock = threading.Lock()

        def submitter(worker: int):
            # Each thread opens its own handle, like a real client
            # process would; priorities interleave across threads.
            own = JobStore(tmp_path / "serve")
            for i in range(8):
                priority = (worker + i) % 3
                job_id = own.submit(
                    {"spec": SPEC}, priority=priority
                )["job_id"]
                with lock:
                    submitted.append((priority, job_id))

        threads = [
            threading.Thread(target=submitter, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.counts() == {"queued": 32}
        # Draining the queue yields priorities in non-increasing order,
        # and within a priority class the submit order (FIFO) holds
        # per submitter.
        drained = []
        while True:
            record = store.claim(os.getpid())
            if record is None:
                break
            drained.append(record)
            store.finish(record["job_id"], {}, attempt=record["attempts"])
        assert len(drained) == 32
        priorities = [r["priority"] for r in drained]
        assert priorities == sorted(priorities, reverse=True)
        created_by_priority: dict[int, list[float]] = {}
        for record in drained:
            created_by_priority.setdefault(
                record["priority"], []
            ).append(record["created"])
        for stamps in created_by_priority.values():
            assert stamps == sorted(stamps)


class TestBuildFlowConfig:
    def test_config_override_type_checked(self, tmp_path):
        with pytest.raises(ValueError, match="unknown flow-config"):
            build_flow_config(
                {"config": {"gp.not_a_knob": 1}}, job_dir=str(tmp_path)
            )
        cfg = build_flow_config(
            {"config": {"gp.max_outer_iterations": 7.0}},
            job_dir=str(tmp_path),
        )
        assert cfg.gp.max_outer_iterations == 7
        assert cfg.checkpoint_dir == str(tmp_path / "checkpoint")


class TestLegacyRecords:
    def test_worker_count_record_claims_runs_and_rebuilds(self, tmp_path):
        """A job stored when records still carried a per-job flow worker
        count (``options.workers``) claims, runs serially, finishes and
        survives a journal rebuild; the key is dropped on load."""
        root = tmp_path / "serve"
        store = JobStore(root)
        legacy = {
            "schema": 1,
            "job_id": "servetest-20250101-000000-0123abcd",
            "created": 1735689600.0,
            "priority": 0,
            "state": "queued",
            "attempts": 0,
            "max_retries": 2,
            "design": {"spec": dict(SPEC)},
            "options": {
                "route": False,
                "run_dp": False,
                "workers": 2,
                "config": {"gp.max_outer_iterations": 3},
            },
            "submitted": 1735689600.0,
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
        job_id = legacy["job_id"]
        # The journal line is the only copy: the rebuild turns it into
        # the SQLite row, so both stored forms carry the legacy key.
        store.journal.append(
            entry_for("submit", legacy, seq=1, now=legacy["created"])
        )
        assert store.recover("legacy journal") == 1
        with contextlib.closing(sqlite3.connect(store.db_path)) as con:
            row = con.execute(
                "SELECT record FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        assert json.loads(row[0])["options"]["workers"] == 2
        assert "workers" not in store.get(job_id)["options"]

        with WorkerSupervisor(root, fast_settings()):
            final = wait_for(
                lambda: (r := store.get(job_id))["state"]
                in ("done", "failed") and r
            )
        assert final["state"] == "done", final["error"]
        assert final["attempts"] == 1
        assert final["result"]["hpwl_final"] > 0
        validate_job_record(final)

        assert store.recover("rebuild after finish") == 1
        rebuilt = store.get(job_id)
        assert rebuilt["state"] == "done"
        assert rebuilt["result"] == final["result"]
        assert check_invariants(store.journal, expect_submitted=1) == []

    def test_worker_count_sqlite_row_requeues_and_finishes(self, tmp_path):
        """A SQLite row carrying ``options.workers`` passes the validated
        requeue and finish writes, and every read path drops the key."""
        store = JobStore(tmp_path / "serve")
        job_id = store.submit(
            {"spec": SPEC}, options={"route": False}
        )["job_id"]
        with contextlib.closing(sqlite3.connect(store.db_path)) as con:
            row = con.execute(
                "SELECT record FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            legacy = json.loads(row[0])
            legacy["options"]["workers"] = 2
            with con:
                con.execute(
                    "UPDATE jobs SET record = ? WHERE job_id = ?",
                    (json.dumps(legacy, sort_keys=True), job_id),
                )
        assert "workers" not in store.list()[0]["options"]
        claimed = store.claim(111)
        assert claimed["job_id"] == job_id
        assert claimed["options"] == {"route": False}
        assert "workers" not in store.stale_running(
            0.0, now=time.time() + 60.0
        )[0]["options"]
        requeued = store.requeue(job_id, "worker_lost", expect_worker=111)
        assert requeued["state"] == "queued"
        store.claim(222)
        done = store.finish(job_id, {"hpwl_final": 1.0}, attempt=2)
        assert done["state"] == "done"
        validate_job_record(done)
        assert "workers" not in store.get(job_id)["options"]


def _shm_segments() -> set:
    return {
        os.path.basename(p) for p in glob.glob("/dev/shm/repro_*")
    }


class TestServeEngine:
    def test_job_runs_to_done(self, tmp_path):
        store = JobStore(tmp_path / "serve")
        record = store.submit(
            {"spec": SPEC},
            options={"route": False, "run_dp": False,
                     "config": {"gp.max_outer_iterations": 3}},
        )
        with WorkerSupervisor(tmp_path / "serve", fast_settings()):
            final = wait_for(
                lambda: (r := store.get(record["job_id"]))["state"] == "done"
                and r
            )
        assert final["attempts"] == 1
        assert final["result"]["hpwl_final"] > 0
        assert os.path.exists(final["trace_path"])
        assert final["trace_path"].endswith("trace-attempt1.jsonl")

    def test_crash_requeue_resumes_bit_identically(self, tmp_path):
        """A worker hard-killed at stage boundaries converges to the
        same result an uninterrupted run produces, resuming each next
        attempt from the per-stage checkpoint."""
        spec = {"name": "crashdrill", "num_cells": 120, "seed": 3}
        options = {
            "route": False,
            "config": {"gp.max_outer_iterations": 5},
            # Hard os._exit at the 2nd completed flow stage of every
            # attempt: each attempt checkpoints one stage further, so
            # the job converges within max_retries.
            "faults": "serve.worker_exit@2",
        }
        store = JobStore(tmp_path / "serve")
        record = store.submit({"spec": spec}, options=options, max_retries=3)
        with WorkerSupervisor(tmp_path / "serve", fast_settings()) as sup:
            final = wait_for(
                lambda: (r := store.get(record["job_id"]))["state"]
                in ("done", "failed") and r,
                timeout=180,
            )
            assert sup.respawns >= 1
        assert final["state"] == "done"
        assert final["attempts"] > 1
        reasons = {e["reason"] for e in final["requeues"]}
        assert reasons == {"worker_lost"}
        assert final["result"]["resumed_stages"]  # checkpoint was used

        # Uninterrupted reference with the identical per-job config.
        ref_cfg = build_flow_config(
            {k: v for k, v in options.items() if k != "faults"},
            job_dir=str(tmp_path / "ref"),
        )
        from repro.flow import NTUplace4H

        ref = NTUplace4H(ref_cfg).run(
            make_benchmark(BenchmarkSpec(**spec)), route=False
        )
        assert final["result"]["hpwl_final"] == ref.hpwl_final
        assert final["result"]["hpwl_gp"] == ref.hpwl_gp

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="POSIX shared memory fs only"
    )
    def test_cancel_during_route_leaks_no_shared_memory(self, tmp_path):
        spec = {"name": "canceldrill", "num_cells": 900, "seed": 5}
        store = JobStore(tmp_path / "serve")
        before = _shm_segments()
        record = store.submit(
            {"spec": spec},
            options={"route": True, "run_dp": False,
                     "config": {"gp.max_outer_iterations": 4}},
        )
        job_id = record["job_id"]
        with WorkerSupervisor(tmp_path / "serve", fast_settings()):
            wait_for(
                lambda: (store.get(job_id).get("stage") or "").startswith(
                    "flow/route"
                )
                or store.get(job_id)["state"] != "running"
                and store.get(job_id)["state"] != "queued",
                timeout=180,
            )
            assert store.get(job_id)["state"] == "running", (
                "job finished before the cancel could land in route"
            )
            store.request_cancel(job_id)
            final = wait_for(
                lambda: (r := store.get(job_id))["state"] == "cancelled"
                and r,
                timeout=60,
            )
        assert final["state"] == "cancelled"
        time.sleep(0.5)  # let worker finalizers settle
        leaked = _shm_segments() - before
        assert not leaked, f"orphaned shared-memory segments: {leaked}"

    def test_sigkilled_worker_job_resumes(self, tmp_path):
        """External SIGKILL (not a fault point): the supervisor notices
        the dead worker, requeues, and the job still completes with the
        uninterrupted run's result."""
        spec = {"name": "sigkill", "num_cells": 300, "seed": 9}
        store = JobStore(tmp_path / "serve")
        record = store.submit(
            {"spec": spec},
            options={"route": False,
                     "config": {"gp.max_outer_iterations": 8}},
            max_retries=2,
        )
        job_id = record["job_id"]
        with WorkerSupervisor(tmp_path / "serve", fast_settings()) as sup:
            running = wait_for(
                lambda: (r := store.get(job_id))["state"] == "running"
                and r.get("worker") and r,
                timeout=60,
            )
            os.kill(running["worker"], signal.SIGKILL)
            final = wait_for(
                lambda: (r := store.get(job_id))["state"]
                in ("done", "failed") and r,
                timeout=180,
            )
            assert sup.respawns >= 1
        assert final["state"] == "done"
        assert final["attempts"] >= 2
        assert any(
            e["reason"] == "worker_lost" for e in final["requeues"]
        )
        ref_cfg = build_flow_config(
            {"config": {"gp.max_outer_iterations": 8}},
            job_dir=str(tmp_path / "ref"),
        )
        from repro.flow import NTUplace4H

        ref = NTUplace4H(ref_cfg).run(
            make_benchmark(BenchmarkSpec(**spec)), route=False
        )
        assert final["result"]["hpwl_final"] == ref.hpwl_final

    def test_orphaned_jobs_requeued_on_startup(self, tmp_path):
        store = JobStore(tmp_path / "serve")
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(999999)  # a worker from a "previous server" run
        sup = WorkerSupervisor(
            tmp_path / "serve", fast_settings(workers=0)
        )
        sup.start()
        try:
            record = store.get(job_id)
            assert record["state"] == "queued"
            assert record["attempts"] == 0  # refunded
            assert record["requeues"][0]["reason"] == "orphaned"
        finally:
            sup.close()


class TestResultSummary:
    def test_summary_round_trips_through_record(self, tmp_path):
        cfg = build_flow_config(
            {"run_dp": False, "config": {"gp.max_outer_iterations": 2}},
            job_dir=str(tmp_path),
        )
        from repro.flow import NTUplace4H

        result = NTUplace4H(cfg).run(
            make_benchmark(BenchmarkSpec(**SPEC)), route=False
        )
        summary = flow_result_summary(result)
        store = JobStore(tmp_path / "serve")
        job_id = store.submit({"spec": SPEC})["job_id"]
        store.claim(1)
        record = store.finish(job_id, summary, attempt=1)
        validate_job_record(record)
        assert record["result"]["design"] == result.design_name
        assert record["result"]["legal"] == result.legal
