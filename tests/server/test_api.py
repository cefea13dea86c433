"""HTTP surface: routes, error semantics, quota back-pressure."""

import http.client
import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.server import build_server
from repro.server.api import BadSubmission, validate_submission
from repro.server.quotas import QuotaPolicy, TenantQuota

DEADLINE = 60.0


@pytest.fixture
def server(tmp_path):
    quotas = QuotaPolicy(
        default=TenantQuota(max_running=1, max_queued=2,
                            retry_after_seconds=3.0),
    )
    httpd, scheduler = build_server(
        str(tmp_path / "store"), port=0, workers=1, quotas=quotas,
    )
    scheduler.start()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd, scheduler
    finally:
        httpd.shutdown()
        httpd.server_close()
        scheduler.stop()
        thread.join(timeout=5.0)


def _call(httpd, method, path, body=None, headers=None):
    port = httpd.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", method=method,
        data=json.dumps(body).encode() if body is not None else None,
        headers=headers or {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), \
                json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def _submit(httpd, dataset, **overrides):
    body = {"kind": "mine", "algorithm": "apriori", "dataset": dataset,
            "params": {"min_support": 0.05}}
    body.update(overrides)
    return _call(httpd, "POST", "/jobs", body)


def _wait_state(httpd, job_id, states, deadline=DEADLINE):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        _status, _headers, record = _call(httpd, "GET", f"/jobs/{job_id}")
        if record["state"] in states:
            return record
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached {states}")


class TestRoutes:
    def test_healthz(self, server):
        httpd, _scheduler = server
        status, _headers, payload = _call(httpd, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["draining"] is False
        assert set(payload["jobs"]) == {"queued", "running", "done",
                                        "failed", "cancelled", "poisoned"}
        # Worker liveness: one worker thread, heartbeat age in seconds.
        liveness = payload["worker_liveness"]
        assert len(liveness) == 1
        for age in liveness.values():
            assert 0.0 <= age < 30.0

    def test_algorithms_table(self, server):
        httpd, _scheduler = server
        status, _headers, payload = _call(httpd, "GET", "/algorithms")
        assert status == 200
        names = {entry["name"] for entry in payload["algorithms"]}
        assert {"apriori", "kmeans", "c45"} <= names
        apriori = next(e for e in payload["algorithms"]
                       if e["name"] == "apriori")
        assert apriori["capabilities"]["checkpointable"] is True

    def test_keep_alive_responses_do_not_stall(self, server):
        # A response goes out as two writes (headers, then body).  With
        # Nagle's algorithm on, the body waits for the client's delayed
        # ACK of the headers: ~40 ms per response on a reused
        # connection, ~0.4 s for these ten.
        httpd, _scheduler = server
        connection = http.client.HTTPConnection(
            "127.0.0.1", httpd.server_address[1], timeout=30
        )
        try:
            started = time.perf_counter()
            for _ in range(10):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.2, f"10 keep-alive requests took {elapsed:.3f}s"

    def test_unknown_route_404(self, server):
        httpd, _scheduler = server
        assert _call(httpd, "GET", "/nope")[0] == 404
        assert _call(httpd, "POST", "/nope")[0] == 404
        assert _call(httpd, "GET", "/jobs/missing")[0] == 404
        assert _call(httpd, "POST", "/jobs/missing/cancel")[0] == 404


class TestSubmitLifecycle:
    def test_submit_poll_fetch(self, server, basket_path):
        httpd, scheduler = server
        status, _headers, record = _submit(httpd, basket_path)
        assert status == 202
        assert record["state"] == "queued"
        final = _wait_state(httpd, record["job_id"], ("done", "failed"))
        assert final["state"] == "done", final.get("error")
        port = httpd.server_address[1]
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/jobs/{record['job_id']}/result",
            timeout=30,
        ) as response:
            body = response.read()
        assert body == scheduler.store.read_result_bytes(record["job_id"])

    def test_result_before_done_is_409(self, server, basket_path):
        httpd, _scheduler = server
        _status, _headers, record = _submit(
            httpd, basket_path, params={"min_support": 0.05,
                                        "pass_delay": 0.2},
        )
        status, _headers, payload = _call(
            httpd, "GET", f"/jobs/{record['job_id']}/result"
        )
        assert status == 409
        assert payload["state"] in ("queued", "running")
        _wait_state(httpd, record["job_id"], ("done",))

    def test_job_listing(self, server, basket_path):
        httpd, _scheduler = server
        _status, _headers, record = _submit(httpd, basket_path,
                                            tenant="lister")
        _wait_state(httpd, record["job_id"], ("done",))
        status, _headers, payload = _call(
            httpd, "GET", "/jobs?tenant=lister"
        )
        assert status == 200
        assert [j["job_id"] for j in payload["jobs"]] == [record["job_id"]]

    def test_cancel_flow(self, server, basket_path):
        httpd, _scheduler = server
        _status, _headers, record = _submit(
            httpd, basket_path,
            params={"min_support": 0.02, "pass_delay": 0.3},
        )
        status, _headers, _payload = _call(
            httpd, "POST", f"/jobs/{record['job_id']}/cancel"
        )
        assert status == 202
        final = _wait_state(httpd, record["job_id"], ("cancelled", "done"))
        assert final["state"] == "cancelled"
        # Cancelling a terminal job is a conflict, not a 500.
        status, _headers, _payload = _call(
            httpd, "POST", f"/jobs/{record['job_id']}/cancel"
        )
        assert status == 409


class TestRejections:
    def test_unknown_algorithm_400_with_capabilities(self, server,
                                                     basket_path):
        httpd, _scheduler = server
        status, _headers, payload = _submit(httpd, basket_path,
                                            algorithm="nope")
        assert status == 400
        names = {entry["name"] for entry in payload["capabilities"]}
        assert "apriori" in names
        assert all(entry["family"] == "associations"
                   for entry in payload["capabilities"])

    def test_capability_gated_flags_400(self, server, basket_path):
        httpd, _scheduler = server
        cases = [
            {"kind": "classify", "algorithm": "knn",
             "params": {"target": "y", "checkpoint_every": 2}},
            {"kind": "classify", "algorithm": "nb",
             "params": {"target": "y", "n_jobs": 2}},
            {"kind": "mine", "algorithm": "apriori",
             "params": {"on_exhausted": "explode"}},
        ]
        for case in cases:
            status, _headers, payload = _submit(httpd, basket_path, **case)
            assert status == 400, case
            assert "capabilities" in payload

    def test_malformed_bodies_400(self, server, basket_path):
        httpd, _scheduler = server
        for body in [[], {"kind": "mine"}, {"surprise": 1},
                     {"kind": "teleport", "algorithm": "a", "dataset": "d"}]:
            status, _headers, _payload = _call(httpd, "POST", "/jobs", body)
            assert status == 400, body

    def test_over_quota_429_with_retry_after(self, server, basket_path):
        httpd, _scheduler = server
        accepted = []
        rejected = None
        for n in range(4):
            # Distinct params per request: identical submissions would
            # now deduplicate onto one job and never fill the backlog.
            slow = {"min_support": 0.02, "pass_delay": 0.5, "nonce": n}
            status, headers, payload = _submit(
                httpd, basket_path, tenant="burst", params=slow,
            )
            if status == 202:
                accepted.append(payload["job_id"])
            else:
                rejected = (status, headers, payload)
        assert rejected is not None, "backlog quota never tripped"
        status, headers, payload = rejected
        assert status == 429
        assert headers["Retry-After"] == "3"
        assert payload["retry_after"] == 3.0
        # The rejection must not disturb the admitted jobs: every one
        # still runs to completion.
        for job_id in accepted:
            final = _wait_state(httpd, job_id, ("done", "failed"))
            assert final["state"] == "done", final.get("error")


class TestDrainRoute:
    def test_drain_flips_healthz_and_rejects_submissions(
        self, server, basket_path
    ):
        httpd, scheduler = server
        status, _headers, payload = _call(httpd, "POST", "/drain")
        assert status == 202
        assert payload["draining"] is True
        assert payload["stopped_clean"] is True
        status, _headers, payload = _call(httpd, "GET", "/healthz")
        assert payload["status"] == "draining"
        assert payload["draining"] is True
        # Submissions now bounce with 503 + Retry-After and persist
        # nothing.
        status, headers, payload = _submit(httpd, basket_path)
        assert status == 503
        assert int(headers["Retry-After"]) >= 1
        assert payload["retry_after"] > 0
        assert scheduler.store.list() == []


class TestFailureSurface:
    def test_job_payload_carries_dead_letter_history(
        self, server, basket_path
    ):
        httpd, scheduler = server
        _status, _headers, record = _submit(httpd, basket_path)
        job_id = record["job_id"]
        _wait_state(httpd, job_id, ("done",))
        # A clean job exposes no failures key at all.
        _status, _headers, payload = _call(httpd, "GET", f"/jobs/{job_id}")
        assert "failures" not in payload
        scheduler.store.append_failure(job_id, {"cause": "crash",
                                                "message": "boom"})
        _status, _headers, payload = _call(httpd, "GET", f"/jobs/{job_id}")
        assert [f["cause"] for f in payload["failures"]] == ["crash"]
        assert payload["failures"][0]["at"] > 0


class TestBusyPort:
    def test_serve_on_taken_port_is_one_line_and_exit_2(
        self, tmp_path, capsys
    ):
        import socket

        from repro.server.api import serve

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = serve(str(tmp_path / "store"), port=port)
        finally:
            blocker.close()
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot bind" in err
        assert "is another server running?" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_cli_serve_on_taken_port_exits_2_without_traceback(
        self, tmp_path
    ):
        import socket
        import subprocess
        import sys
        from pathlib import Path

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[2] / "src")
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "serve",
                 "--store", str(tmp_path / "store"),
                 "--port", str(port)],
                capture_output=True, text=True, timeout=30, env=env,
            )
        finally:
            blocker.close()
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "cannot bind" in proc.stderr


class TestValidateSubmission:
    def test_normalizes_defaults(self, basket_path):
        submission = validate_submission({
            "kind": "mine", "algorithm": "apriori", "dataset": basket_path,
        })
        assert submission["tenant"] == "default"
        assert submission["params"] == {}

    def test_classify_requires_target(self):
        with pytest.raises(BadSubmission):
            validate_submission({
                "kind": "classify", "algorithm": "c45", "dataset": "d.csv",
            })


class TestClientEdge:
    """Idempotent resubmission, the events route, and request hardening."""

    def test_healthz_reports_cache_and_events(self, server):
        httpd, _scheduler = server
        _status, _headers, payload = _call(httpd, "GET", "/healthz")
        cache = payload["cache"]
        assert cache["enabled"] is True
        assert {"entries", "hits", "misses", "quarantined"} <= set(cache)
        assert isinstance(payload["events_appended"], int)

    def test_duplicate_post_is_200_same_id(self, server, basket_path):
        httpd, _scheduler = server
        slow = {"min_support": 0.02, "pass_delay": 0.3}
        status, _h, first = _submit(httpd, basket_path, params=slow)
        assert status == 202
        status, _h, second = _submit(httpd, basket_path, params=slow)
        assert status == 200
        assert second["job_id"] == first["job_id"]
        assert second["deduplicated"] is True
        _wait_state(httpd, first["job_id"], ("done",))

    def test_idempotency_key_header_dedupes(self, server, basket_path):
        httpd, _scheduler = server
        headers = {"Idempotency-Key": "client-retry-7"}
        body = {"kind": "mine", "algorithm": "apriori",
                "dataset": basket_path,
                "params": {"min_support": 0.02, "pass_delay": 0.3}}
        status, _h, first = _call(httpd, "POST", "/jobs", body,
                                  headers=headers)
        assert status == 202
        # Same key, different params: still the same job.
        body["params"] = {"min_support": 0.05, "pass_delay": 0.3}
        status, _h, second = _call(httpd, "POST", "/jobs", body,
                                   headers=headers)
        assert status == 200
        assert second["job_id"] == first["job_id"]
        _wait_state(httpd, first["job_id"], ("done",))

    def test_bad_idempotency_key_400(self, server, basket_path):
        httpd, _scheduler = server
        body = {"kind": "mine", "algorithm": "apriori",
                "dataset": basket_path}
        status, _h, payload = _call(
            httpd, "POST", "/jobs", body,
            headers={"Idempotency-Key": "x" * 300},
        )
        assert status == 400
        assert payload["reason"] == "bad-idempotency-key"

    def test_cached_resubmission_via_http(self, server, basket_path):
        httpd, scheduler = server
        params = {"min_support": 0.05, "nonce": "cache-http"}
        _s, _h, first = _submit(httpd, basket_path, params=params)
        _wait_state(httpd, first["job_id"], ("done",))
        status, _h, second = _submit(httpd, basket_path, params=params)
        assert status == 202
        record = _wait_state(httpd, second["job_id"], ("done",))
        assert record["cache_hit"] is True
        assert (scheduler.store.read_result_bytes(second["job_id"])
                == scheduler.store.read_result_bytes(first["job_id"]))
        _s, _h, health = _call(httpd, "GET", "/healthz")
        assert health["cache"]["hits"] >= 1

    def test_events_route_resumable(self, server, basket_path):
        httpd, _scheduler = server
        params = {"min_support": 0.05, "nonce": "events-http"}
        _s, _h, record = _submit(httpd, basket_path, params=params)
        job_id = record["job_id"]
        _wait_state(httpd, job_id, ("done",))
        status, _h, payload = _call(httpd, "GET", f"/jobs/{job_id}/events")
        assert status == 200
        phases = [e["phase"] for e in payload["events"]]
        assert phases[0] == "submitted" and phases[-1] == "done"
        assert payload["next_offset"] == len(phases)
        # Resume from next_offset: nothing new, same offset back.
        status, _h, tail = _call(
            httpd, "GET",
            f"/jobs/{job_id}/events?offset={payload['next_offset']}",
        )
        assert status == 200
        assert tail["events"] == []
        assert tail["next_offset"] == payload["next_offset"]

    def test_events_route_errors(self, server, basket_path):
        httpd, _scheduler = server
        assert _call(httpd, "GET", "/jobs/missing/events")[0] == 404
        _s, _h, record = _submit(
            httpd, basket_path,
            params={"min_support": 0.05, "nonce": "events-err"},
        )
        status, _h, payload = _call(
            httpd, "GET", f"/jobs/{record['job_id']}/events?offset=bogus"
        )
        assert status == 400
        assert payload["reason"] == "bad-offset"
        _wait_state(httpd, record["job_id"], ("done",))


def _raw_http(httpd, data, timeout=10.0):
    """Send raw bytes, return everything the server answers."""
    import socket

    port = httpd.server_address[1]
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(data)
        chunks = b""
        while True:
            try:
                part = sock.recv(65536)
            except socket.timeout:
                break
            if not part:
                break
            chunks += part
    return chunks


class TestRequestHardening:
    def test_payload_too_large_413(self, server):
        httpd, _scheduler = server
        response = _raw_http(
            httpd,
            b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 2000000\r\n\r\n",
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"413" in head.splitlines()[0]
        assert b"payload-too-large" in body

    def test_malformed_json_structured_400(self, server):
        httpd, _scheduler = server
        payload = b"{this is not json"
        response = _raw_http(
            httpd,
            b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode()
            + payload
            + b"",
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"400" in head.splitlines()[0]
        parsed = json.loads(body.split(b"\r\n\r\n")[-1] or body)
        assert parsed["reason"] == "invalid-json"
        assert "capabilities" not in parsed

    def test_bad_content_length_400(self, server):
        httpd, _scheduler = server
        response = _raw_http(
            httpd,
            b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: banana\r\n\r\n",
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"400" in head.splitlines()[0]
        assert b"bad-content-length" in body

    def test_slow_loris_connection_dropped(self, tmp_path):
        httpd, scheduler = build_server(
            str(tmp_path / "loris-store"), port=0, workers=1,
            request_timeout=0.5,
        )
        scheduler.start()
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            start = time.monotonic()
            # Headers promise a body that never arrives: the handler
            # thread must give up and close, not wait forever.
            response = _raw_http(
                httpd,
                b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 100\r\n\r\n",
                timeout=10.0,
            )
            elapsed = time.monotonic() - start
            assert response == b""  # dropped without an answer
            assert elapsed < 8.0
        finally:
            httpd.shutdown()
            httpd.server_close()
            scheduler.stop()
            thread.join(timeout=5.0)
