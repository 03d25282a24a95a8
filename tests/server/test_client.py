"""Tests for the retrying sweep-service client.

The retry schedule, budget accounting, and 404-resubmission logic are
exercised against tiny stub HTTP servers (no real sweep execution);
``test_service.py`` covers the client against the real daemon.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cli import EXIT_UNAVAILABLE, main
from repro.orchestrator import JobSpec
from repro.orchestrator.supervise import BackoffPolicy
from repro.server import (
    ServerError,
    ServerUnavailable,
    SweepClient,
)


def _spec(percent=100.0):
    return JobSpec(workload="swim", cycles=500,
                   impedance_percent=percent, seed=11)


#: Script entry: drop the connection without sending any response.
HANG_UP = None


def _torn(status, payload):
    """Script entry: send the headers (with the full ``Content-Length``)
    and half the body, then close -- a server dying mid-response."""
    return (status, payload, True)


class _StubHandler(BaseHTTPRequestHandler):
    """Scripted responses: the test enqueues (status, payload) pairs
    on the server; each request pops the next one.  A ``bytes``
    payload is sent verbatim; :func:`_torn` and :data:`HANG_UP`
    entries script a response cut short."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):
        pass

    def _respond(self):
        self.server.requests.append((self.command, self.path))
        # Drain the request body so closing early sends FIN, not RST.
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        entry = self.server.script.pop(0)
        if entry is HANG_UP:
            self.close_connection = True
            return
        status, payload, *torn = entry
        body = payload if isinstance(payload, bytes) \
            else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if torn:
            self.wfile.write(body[:len(body) // 2])
            self.close_connection = True
        else:
            self.wfile.write(body)

    do_GET = _respond
    do_POST = _respond


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.daemon_threads = True
    server.script = []
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5.0)


def _client(server, budget=3, sleeps=None):
    return SweepClient(
        "http://127.0.0.1:%d" % server.server_address[1],
        retry_budget=budget,
        sleep=(sleeps.append if sleeps is not None else lambda _s: None))


class TestRetrySchedule:
    def test_backoff_is_the_seeded_policy_sequence(self):
        # Connection refused every time: a closed port, no server.
        sleeps = []
        client = SweepClient("http://127.0.0.1:1", retry_budget=4,
                             sleep=sleeps.append, timeout=0.5)
        with pytest.raises(ServerUnavailable) as excinfo:
            client.health()
        assert excinfo.value.attempts == 4
        expected = BackoffPolicy(base_seconds=0.1, factor=2.0,
                                 cap_seconds=5.0, seed=0)
        assert sleeps == [expected.delay(n) for n in range(3)]

    def test_two_clients_retry_on_identical_schedules(self):
        schedules = []
        for _ in range(2):
            sleeps = []
            client = SweepClient("http://127.0.0.1:1", retry_budget=3,
                                 sleep=sleeps.append, timeout=0.5)
            with pytest.raises(ServerUnavailable):
                client.health()
            schedules.append(sleeps)
        assert schedules[0] == schedules[1]

    def test_429_and_503_consume_budget_then_succeed(self, stub):
        sleeps = []
        stub.script = [(429, {"error": "shed"}),
                       (503, {"error": "draining"}),
                       (200, {"status": "ok"})]
        client = _client(stub, budget=3, sleeps=sleeps)
        assert client.health() == {"status": "ok"}
        assert client.requests_sent == 3
        assert len(sleeps) == 2

    def test_budget_exhaustion_raises_unavailable(self, stub):
        stub.script = [(503, {"error": "draining"})] * 2
        client = _client(stub, budget=2)
        with pytest.raises(ServerUnavailable) as excinfo:
            client.health()
        assert "HTTP 503" in excinfo.value.last_error
        assert excinfo.value.attempts == 2

    def test_terminal_400_is_never_retried(self, stub):
        stub.script = [(400, {"error": "malformed submission: nope"})]
        client = _client(stub, budget=5)
        with pytest.raises(ServerError) as excinfo:
            client.submit([_spec()])
        assert excinfo.value.status == 400
        assert "malformed submission" in str(excinfo.value)
        assert client.requests_sent == 1

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            SweepClient("http://127.0.0.1:1", retry_budget=0)


def _receipt(spec):
    return {"jobs": [{"job": spec.content_hash(), "status": "queued"}],
            "queue": {"queued": 1, "running": 0, "done": 0}}


class TestTornResponses:
    """A server killed between writing its headers and its body leaves
    the client a response shorter than its ``Content-Length``
    (``http.client.IncompleteRead``).  That is a lost ACK, retryable
    like a refused connection -- never an exception escaping the
    client."""

    def test_torn_ack_is_retried_and_next_response_returned(self, stub):
        spec = _spec()
        sleeps = []
        stub.script = [_torn(202, _receipt(spec)), (202, _receipt(spec))]
        client = _client(stub, budget=3, sleeps=sleeps)
        assert client.submit([spec]) == _receipt(spec)
        assert client.requests_sent == 2
        assert len(sleeps) == 1

    def test_always_torn_exhausts_budget_into_unavailable(self, stub):
        stub.script = [_torn(200, {"status": "ok"})] * 3
        client = _client(stub, budget=3)
        with pytest.raises(ServerUnavailable) as excinfo:
            client.health()
        assert excinfo.value.attempts == 3
        assert "IncompleteRead" in excinfo.value.last_error
        assert client.requests_sent == 3

    def test_complete_unparsable_body_stays_terminal(self, stub):
        stub.script = [(200, b"{not json")] * 5
        client = _client(stub, budget=5)
        with pytest.raises(ServerError) as excinfo:
            client.health()
        assert excinfo.value.status is None
        assert "unparsable server response" in str(excinfo.value)
        assert client.requests_sent == 1

    def test_submit_cli_exits_unavailable_after_torn_ack(
            self, stub, capsys):
        # The 202 is torn, then the server stops answering: the CLI
        # maps the exhausted budget to its documented exit code.
        stub.script = [_torn(202, _receipt(_spec())), HANG_UP]
        code = main(["submit",
                     "--server",
                     "http://127.0.0.1:%d" % stub.server_address[1],
                     "--workloads", "swim", "--cycles", "250",
                     "--retry-budget", "2", "--poll-seconds", "0.01"])
        assert code == EXIT_UNAVAILABLE
        assert "server unavailable" in capsys.readouterr().err
        assert [m for m, _p in stub.requests] == ["POST", "POST"]


class TestWaitResubmission:
    def test_wait_resubmits_cells_the_server_forgot(self, stub):
        # A crashed-and-restarted server 404s for a never-ACKed cell;
        # wait() must resubmit it rather than poll forever.
        spec = _spec()
        job = spec.content_hash()
        receipt = {"jobs": [{"job": job, "status": "queued"}],
                   "queue": {"queued": 1, "running": 0, "done": 0}}
        stub.script = [
            (202, receipt),                          # initial submit
            (404, {"error": "unknown job"}),         # poll: forgotten
            (202, receipt),                          # resubmission
            (200, {"job": job, "status": "done",     # poll: done
                   "result": {"status": "ok", "value": 2.0}}),
        ]
        client = _client(stub, budget=2)
        results = client.wait([spec], poll_seconds=0.01)
        assert results == {job: {"status": "ok", "value": 2.0}}
        methods = [m for m, _p in stub.requests]
        assert methods == ["POST", "GET", "POST", "GET"]

    def test_wait_deadline_raises_timeout(self, stub):
        spec = _spec()
        job = spec.content_hash()
        receipt = {"jobs": [{"job": job, "status": "queued"}],
                   "queue": {"queued": 1, "running": 0, "done": 0}}
        still_queued = (200, {"job": job, "status": "queued"})
        stub.script = [(202, receipt)] + [still_queued] * 100
        client = _client(stub, budget=2)
        with pytest.raises(TimeoutError):
            client.wait([spec], poll_seconds=0.0, deadline_seconds=0.0)
