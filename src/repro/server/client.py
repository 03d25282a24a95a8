"""The sweep-service client: submit, poll, and wait with retry.

Stdlib HTTP (:mod:`urllib.request`) against the :mod:`repro.server`
API.  The robustness surface mirrors the server's:

* every request runs under a **retry budget** with the orchestrator's
  own :class:`~repro.orchestrator.supervise.BackoffPolicy` -- the same
  deterministic seeded exponential backoff workers restart with -- so
  a client riding out a server restart retries on a reproducible
  schedule instead of hammering;
* *retryable* failures (connection refused/reset, timeouts, torn or
  truncated responses -- any :class:`http.client.HTTPException`, e.g.
  a 202 whose body never arrived because the server died between
  writing the headers and the body -- 429 load shed, 503 drain)
  consume budget and back off;  *terminal* failures
  (400 malformed, 413 oversize) raise :class:`ServerError`
  immediately -- retrying a bad request is never going to help;
* :meth:`SweepClient.wait` **resubmits on 404**: a submission the
  server crashed before acknowledging was never durable, and the
  journal-backed contract makes resubmission idempotent and free
  (cache-served).  This is what lets ``submit -> kill server ->
  restart -> poll`` converge with no client-side bookkeeping;
* responses cache by ``ETag``: ``poll`` sends ``If-None-Match`` when
  it has seen a result, and a 304 reuses the held payload.

Exhausting the budget raises :class:`ServerUnavailable`, which the CLI
maps to its own exit code (4) -- distinct from cell failures (1) and
interruption (3).
"""

import http.client
import json
import time
import urllib.error
import urllib.request

from repro.orchestrator.supervise import BackoffPolicy

#: HTTP statuses worth retrying (the server said "later", not "no").
RETRYABLE_STATUSES = (429, 503)

#: Default attempts per logical operation before giving up.
DEFAULT_RETRY_BUDGET = 8


class ServerError(RuntimeError):
    """A terminal (non-retryable) server response.

    Attributes:
        status: the HTTP status code (``None`` for malformed bodies).
    """

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


class ServerUnavailable(RuntimeError):
    """The retry budget ran out without a successful response.

    Attributes:
        attempts: requests made before giving up.
        last_error: the final failure, stringified.
    """

    def __init__(self, url, attempts, last_error):
        super().__init__(
            "server unavailable: %s failed %d time(s); last error: %s"
            % (url, attempts, last_error))
        self.attempts = attempts
        self.last_error = str(last_error)


class SweepClient:
    """A retrying JSON client for one sweep server.

    Args:
        base_url: e.g. ``http://127.0.0.1:8123`` (trailing slash ok).
        retry_budget: attempts per logical request before
            :class:`ServerUnavailable`.
        backoff: a :class:`BackoffPolicy` for the retry schedule
            (default: seeded, so test retry timing is reproducible).
        timeout: per-request socket timeout, seconds.
        sleep: injection point for tests (default ``time.sleep``).
    """

    def __init__(self, base_url, retry_budget=DEFAULT_RETRY_BUDGET,
                 backoff=None, timeout=10.0, sleep=None):
        self.base_url = str(base_url).rstrip("/")
        if retry_budget < 1:
            raise ValueError("retry budget must be >= 1, got %d"
                             % retry_budget)
        self.retry_budget = int(retry_budget)
        self.backoff = backoff if backoff is not None else BackoffPolicy(
            base_seconds=0.1, factor=2.0, cap_seconds=5.0, seed=0)
        self.timeout = float(timeout)
        self._sleep = sleep if sleep is not None else time.sleep
        #: Requests actually sent (observability for tests/CLI).
        self.requests_sent = 0

    # -- one retrying request ------------------------------------------

    def _request(self, method, path, payload=None, headers=None):
        """One logical request under the retry budget.

        Returns ``(status, headers, body_dict)``.  4xx terminal errors
        raise :class:`ServerError`; budget exhaustion raises
        :class:`ServerUnavailable`.  304 is returned to the caller
        (with a ``None`` body), never retried.
        """
        url = self.base_url + path
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        last_error = None
        for attempt in range(self.retry_budget):
            if attempt:
                self._sleep(self.backoff.delay(attempt - 1))
            request = urllib.request.Request(url, data=body,
                                             method=method)
            request.add_header("Accept", "application/json")
            if body is not None:
                request.add_header("Content-Type", "application/json")
            for key, value in (headers or {}).items():
                request.add_header(key, value)
            self.requests_sent += 1
            try:
                with urllib.request.urlopen(
                        request, timeout=self.timeout) as response:
                    raw = response.read()
                    return (response.status, dict(response.headers),
                            self._decode(raw))
            except urllib.error.HTTPError as exc:
                detail = self._error_detail(exc)
                if exc.code == 304:
                    return exc.code, dict(exc.headers), None
                if exc.code in RETRYABLE_STATUSES:
                    last_error = "HTTP %d: %s" % (exc.code, detail)
                    continue
                raise ServerError("HTTP %d from %s: %s"
                                  % (exc.code, url, detail),
                                  status=exc.code)
            except (urllib.error.URLError, ConnectionError,
                    TimeoutError, OSError,
                    http.client.HTTPException) as exc:
                # HTTPException covers a torn response (IncompleteRead,
                # BadStatusLine): a lost ACK, safe to resubmit since
                # submission is idempotent by content hash.
                last_error = exc
                continue
        raise ServerUnavailable(url, self.retry_budget, last_error)

    @staticmethod
    def _decode(raw):
        if not raw:
            return None
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServerError("unparsable server response: %s" % exc)

    @staticmethod
    def _error_detail(exc):
        try:
            payload = json.loads(exc.read().decode("utf-8"))
            return payload.get("error", "")
        except Exception:
            return ""

    # -- API surface ---------------------------------------------------

    def submit(self, specs):
        """POST the specs; returns the server's 202 payload."""
        _status, _headers, payload = self._request(
            "POST", "/jobs",
            payload={"specs": [spec.to_dict() for spec in specs]})
        return payload

    def submit_suites(self, names, grid, workloads=()):
        """POST named suites for server-side expansion.

        Args:
            names: suite names the server resolves at admission.
            grid: the grid knobs (``impedances``, ``controllers``,
                ``cycles``, ``warmup``, ``seed``).
            workloads: explicit workload tokens to sweep alongside the
                suites.

        Returns:
            The 202 receipt, which additionally carries the expanded
            ``specs`` (canonical dicts), the canonical ``workloads``
            list, and the ``suite_members`` dict -- everything needed
            to build the same report ``sweep --suite`` writes.
        """
        request = dict(grid)
        request["names"] = list(names)
        request["workloads"] = list(workloads)
        _status, _headers, payload = self._request(
            "POST", "/jobs", payload={"suites": request})
        return payload

    def poll(self, job_hash, etag=None):
        """GET one job.  Returns ``(found, payload, etag)``:
        ``(False, None, None)`` on 404; on a 304 the payload is
        ``None`` and the caller's held copy is still current."""
        headers = {}
        if etag:
            headers["If-None-Match"] = '"%s"' % etag
        try:
            status, response_headers, payload = self._request(
                "GET", "/jobs/" + job_hash, headers=headers)
        except ServerError as exc:
            if exc.status == 404:
                return False, None, None
            raise
        new_etag = (response_headers.get("ETag") or "").strip('"') or etag
        if status == 304:
            return True, None, new_etag
        return True, payload, new_etag

    def wait(self, specs, poll_seconds=0.5, deadline_seconds=None,
             submitted=False):
        """Submit and block until every cell is terminal.

        Resubmits any cell the server reports 404 for (a submission
        lost to a crash before its ACK -- resubmission is idempotent).
        Returns ``{content_hash: result}`` in no particular order.

        Args:
            submitted: skip the initial submission (the specs were
                already admitted, e.g. via :meth:`submit_suites`); the
                404 resubmission path still applies and stays
                idempotent.

        Raises :class:`TimeoutError` past ``deadline_seconds``,
        :class:`ServerUnavailable` when the retry budget runs dry.
        """
        if not submitted:
            self.submit(specs)
        by_hash = {spec.content_hash(): spec for spec in specs}
        results = {}
        etags = {}
        start = time.monotonic()
        while len(results) < len(by_hash):
            progressed = False
            missing = []
            for job, spec in by_hash.items():
                if job in results:
                    continue
                found, payload, etag = self.poll(job,
                                                 etag=etags.get(job))
                if not found:
                    missing.append(spec)
                    continue
                etags[job] = etag
                if payload is not None \
                        and payload.get("status") == "done":
                    results[job] = payload["result"]
                    progressed = True
            if missing:
                # Lost to a pre-ACK crash; resubmission is idempotent.
                self.submit(missing)
                progressed = True
            if len(results) == len(by_hash):
                break
            if deadline_seconds is not None and \
                    time.monotonic() - start > deadline_seconds:
                raise TimeoutError(
                    "sweep wait exceeded %.1fs with %d/%d cell(s) done"
                    % (deadline_seconds, len(results), len(by_hash)))
            if not progressed:
                self._sleep(poll_seconds)
        return results

    # -- convenience ---------------------------------------------------

    def health(self):
        return self._request("GET", "/healthz")[2]

    def ready(self):
        """``(ready, info)`` from ``/readyz``.

        A 503 here is an *answer* (draining), not an outage, so this
        probe runs with a budget of one request and maps failure to
        ``(False, None)`` instead of backing off.
        """
        probe = SweepClient(self.base_url, retry_budget=1,
                            timeout=self.timeout, sleep=self._sleep)
        try:
            _status, _headers, payload = probe._request("GET", "/readyz")
            return True, payload
        except (ServerUnavailable, ServerError):
            return False, None

    def metrics(self):
        return self._request("GET", "/metrics")[2]

    def __repr__(self):
        return ("SweepClient(%r, budget=%d, sent=%d)"
                % (self.base_url, self.retry_budget, self.requests_sent))
