"""HTTP API tests for the serve job server (stdlib client end to end).

Every request goes over a real socket through :class:`ServeClient` —
these tests pin the wire contract documented in ``docs/serving.md``:
status codes, error bodies, the 409-until-terminal result endpoint,
cancel semantics, and the offset-based trace tailing protocol.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.serve import JobServer, ServeAPIError, ServeClient, ServeSettings

SPEC = {"name": "httptest", "num_cells": 40, "seed": 21}
FAST_OPTIONS = {
    "route": False,
    "run_dp": False,
    "config": {"gp.max_outer_iterations": 3},
}


def make_server(tmp_path, **overrides) -> JobServer:
    base = dict(
        workers=1,
        poll_interval=0.02,
        heartbeat_interval=0.1,
        monitor_interval=0.1,
        stale_timeout=30.0,
    )
    base.update(overrides)
    return JobServer(tmp_path / "serve", settings=ServeSettings(**base))


@pytest.fixture
def live(tmp_path):
    """A server with one worker, plus a client bound to it."""
    with make_server(tmp_path) as server:
        yield server, ServeClient(server.url, timeout=30.0)


@pytest.fixture
def parked(tmp_path):
    """A zero-worker server: submitted jobs stay queued forever."""
    with make_server(tmp_path, workers=0) as server:
        yield server, ServeClient(server.url, timeout=30.0)


class TestHealthAndErrors:
    def test_health(self, parked):
        _, client = parked
        out = client.health()
        assert out["ok"] is True
        assert out["queue"] == {}
        assert out["supervisor"]["workers"] == []

    def test_unknown_route_404(self, parked):
        _, client = parked
        with pytest.raises(ServeAPIError) as exc:
            client._request("GET", "/nope")
        assert exc.value.status == 404

    def test_unknown_job_404(self, parked):
        _, client = parked
        with pytest.raises(ServeAPIError) as exc:
            client.get("job-doesnotexist")
        assert exc.value.status == 404
        assert "no job" in exc.value.message

    def test_submit_without_design_400(self, parked):
        _, client = parked
        with pytest.raises(ServeAPIError) as exc:
            client._request("POST", "/jobs", {"options": {}})
        assert exc.value.status == 400

    def test_submit_invalid_design_400(self, parked):
        _, client = parked
        with pytest.raises(ServeAPIError) as exc:
            client.submit({"spec": SPEC, "suite": "small"})
        assert exc.value.status == 400
        assert "exactly one" in exc.value.message

    def test_submit_unknown_option_400(self, parked):
        _, client = parked
        with pytest.raises(ServeAPIError) as exc:
            client.submit({"spec": SPEC}, options={"banana": 1})
        assert exc.value.status == 400
        # The removed per-job flow worker count is unknown like any other.
        with pytest.raises(ServeAPIError) as exc:
            client.submit({"spec": SPEC}, options={"workers": 2})
        assert exc.value.status == 400
        assert "workers" in exc.value.message


class TestQueuedLifecycle:
    def test_submit_returns_queued_record(self, parked):
        _, client = parked
        record = client.submit({"spec": SPEC}, priority=3)
        assert record["state"] == "queued"
        assert record["priority"] == 3
        assert record["job_id"].startswith("httptest-")

    def test_result_is_409_until_terminal(self, parked):
        _, client = parked
        job_id = client.submit({"spec": SPEC})["job_id"]
        with pytest.raises(ServeAPIError) as exc:
            client.result(job_id)
        assert exc.value.status == 409
        assert "queued" in exc.value.message

    def test_cancel_queued(self, parked):
        _, client = parked
        job_id = client.submit({"spec": SPEC})["job_id"]
        assert client.cancel(job_id)["state"] == "cancelled"
        # Terminal now, so /result serves the record (with no result).
        final = client.result(job_id)
        assert final["state"] == "cancelled"
        assert final["result"] is None

    def test_list_filters_by_state(self, parked):
        _, client = parked
        client.submit({"spec": SPEC})
        cancelled = client.submit({"spec": SPEC})["job_id"]
        client.cancel(cancelled)
        queued = client.list(state="queued")
        assert [r["state"] for r in queued] == ["queued"]
        assert len(client.list()) == 2

    def test_get_by_prefix(self, parked):
        _, client = parked
        job_id = client.submit({"spec": SPEC})["job_id"]
        assert client.get(job_id[:16])["job_id"] == job_id


class TestRunToCompletion:
    def test_submit_wait_result_trace(self, live):
        _, client = live
        record = client.submit({"spec": SPEC}, options=FAST_OPTIONS)
        final = client.wait(record["job_id"], timeout=120)
        assert final["state"] == "done"
        assert final["result"]["hpwl_final"] > 0
        assert "legal" in final["result"]
        # /result now serves the same record.
        assert client.result(record["job_id"])["result"] == final["result"]

        # The trace endpoint replays the whole attempt: offset advances,
        # lines parse as JSONL, and the flow span is in there.
        out = client.tail_trace(record["job_id"])
        assert out["offset"] > 0
        records = [json.loads(line) for line in out["lines"]]
        assert any(
            r.get("type") == "span" and r.get("path") == "flow"
            for r in records
        )
        # Tailing from the end returns nothing new.
        again = client.tail_trace(record["job_id"], offset=out["offset"])
        assert again["lines"] == []
        assert again["offset"] == out["offset"]

    def test_stream_yields_trace_lines(self, live):
        _, client = live
        record = client.submit({"spec": SPEC}, options=FAST_OPTIONS)
        lines = list(client.stream(record["job_id"], timeout=120))
        paths = {json.loads(line).get("path") for line in lines}
        assert "flow" in paths

    def test_trace_offset_past_end_resets(self, live):
        _, client = live
        record = client.submit({"spec": SPEC}, options=FAST_OPTIONS)
        client.wait(record["job_id"], timeout=120)
        size = client.tail_trace(record["job_id"])["offset"]
        # A stale (too-large) offset means the attempt restarted with a
        # fresh, smaller file; the server starts over from byte 0.
        out = client.tail_trace(record["job_id"], offset=size + 4096)
        assert out["offset"] == size
        assert out["lines"]

    def test_wait_all_and_health_counts(self, live):
        server, client = live
        ids = [
            client.submit({"spec": dict(SPEC, seed=100 + i)},
                          options=FAST_OPTIONS)["job_id"]
            for i in range(3)
        ]
        finals = client.wait_all(ids, timeout=180, poll=0.1)
        assert {r["state"] for r in finals.values()} == {"done"}
        assert client.health()["queue"] == {"done": 3}
        assert server.store.idle()


class TestPagination:
    def test_list_all_pages_past_limit_clamp(self, parked, monkeypatch):
        _, client = parked
        ids = {client.submit({"spec": SPEC})["job_id"] for _ in range(5)}
        # Shrink the page size so five jobs take three round trips —
        # the same path a big queue takes past MAX_LIST_LIMIT.
        monkeypatch.setattr("repro.serve.client.LIST_PAGE", 2)
        records = client.list_all()
        assert {r["job_id"] for r in records} == ids

    def test_wait_all_sees_jobs_beyond_one_page(self, parked, monkeypatch):
        server, client = parked
        ids = [client.submit({"spec": SPEC})["job_id"] for _ in range(5)]
        for job_id in ids:
            client.cancel(job_id)
        monkeypatch.setattr("repro.serve.client.LIST_PAGE", 2)
        finals = client.wait_all(ids, timeout=30, poll=0.05)
        assert {r["state"] for r in finals.values()} == {"cancelled"}


class TestTraceAttemptRollover:
    def _write_trace(self, path, lines):
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(json.dumps({"msg": line}) + "\n")

    def test_stale_offset_replays_fresh_attempt(self, parked):
        server, client = parked
        job_id = client.submit({"spec": SPEC})["job_id"]
        store = server.store

        # Attempt 1: claim and attach a long trace, tail to its end.
        assert store.claim(os.getpid())["job_id"] == job_id
        first_trace = os.path.join(server.root, "attempt1.trace")
        self._write_trace(first_trace, [f"a{i}" for i in range(20)])
        assert store.set_paths(job_id, attempt=1, trace_path=first_trace)
        out = client.tail_trace(job_id, offset=0)
        assert len(out["lines"]) == 20
        stale_offset = out["offset"]

        # The worker dies; the supervisor requeues; attempt 2 starts a
        # fresh (shorter) trace file.
        store.requeue(job_id, "worker died", attempt=1)
        assert store.claim(os.getpid())["job_id"] == job_id
        second_trace = os.path.join(server.root, "attempt2.trace")
        self._write_trace(second_trace, ["b0", "b1", "b2"])
        assert store.set_paths(job_id, attempt=2, trace_path=second_trace)

        # A tailer still holding the attempt-1 offset must not hang or
        # skip: the server detects offset > size and replays attempt 2
        # from byte 0.
        rolled = client.tail_trace(job_id, offset=stale_offset)
        assert [json.loads(line)["msg"] for line in rolled["lines"]] == [
            "b0", "b1", "b2",
        ]
        assert rolled["offset"] == os.path.getsize(second_trace)
        # The returned offset is live again: nothing new -> no lines.
        again = client.tail_trace(job_id, offset=rolled["offset"])
        assert again["lines"] == []
