"""Open-loop HTTP load generator: requests go out on a fixed schedule.

Each request is timed from the moment it was *due*, not from when a
connection was free to send it, so a stall shows up in the latency of
every request queued behind it; ``Sample.lag_s`` records how late the
generator ran.  At most ``connections`` keep-alive connections are used,
one per sender thread (the benchmark host has two CPUs, and the daemon
under test shares them).
"""

from __future__ import annotations

import gc
import http.client
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from benchstats import Sample

#: classify(kind, body, status, payload) -> Sample field overrides:
#: ``ok`` (bool), ``error``, ``served``, ``worker_s``, ``cache_hit``
Classifier = Callable[[str, Dict[str, Any], int, Optional[Dict[str, Any]]],
                      Dict[str, Any]]


class HttpTransport:
    """One keep-alive connection; reconnects after any error."""

    def __init__(self, host: str, port: int, timeout_s: float) -> None:
        self.host, self.port, self.timeout_s = host, port, timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, body: bytes
             ) -> Tuple[int, Optional[Dict[str, Any]]]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s)
        try:
            self._conn.request("POST", path, body,
                               {"content-type": "application/json"})
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        try:
            payload = json.loads(raw) if raw else None
        except ValueError:
            payload = None
        return response.status, payload

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def run_open_loop(schedule: Sequence[Tuple[float, str, Dict[str, Any]]],
                  transport_factory: Callable[[], Any],
                  classify: Classifier, *,
                  connections: int = 2,
                  clock: Callable[[], float] = time.monotonic
                  ) -> List[Sample]:
    """Send ``(offset_s, kind, body)`` requests on schedule.

    Requests leave in schedule order; a sender thread takes the next
    one as soon as it is free and waits for its due time.  Past its
    capacity the system falls behind: requests are sent late, never
    dropped, and their latency (from due time) keeps growing.  An
    answer ``classify`` cannot read is a wrong output, and a request
    that never got a sample (its sender died) is a failure, so the
    result always holds one sample per scheduled request.
    """
    encoded = [(offset, kind, body, json.dumps(body).encode())
               for offset, kind, body in schedule]
    samples: List[Optional[Sample]] = [None] * len(encoded)
    lock = threading.Lock()
    cursor = [0]
    start = clock()

    def sender() -> None:
        transport = transport_factory()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(encoded):
                    return
                offset, kind, body, raw = encoded[index]
                due = start + offset
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                sent = clock()
                try:
                    status, payload = transport.post(f"/v1/{kind}", raw)
                except (OSError, http.client.HTTPException) as exc:
                    samples[index] = Sample(
                        kind, due, sent, clock(),
                        error=f"transport: {type(exc).__name__}")
                    continue
                done = clock()
                try:
                    fields = classify(kind, body, status, payload)
                except Exception as exc:
                    fields = {"ok": False, "error": f"wrong-output: "
                              f"{type(exc).__name__}: {exc}"}
                samples[index] = Sample(kind, due, sent, done,
                                        status=status, **fields)
        finally:
            transport.close()

    threads = [threading.Thread(target=sender, name=f"openloop-{i}")
               for i in range(max(1, connections))]
    # a collection pause here would stall every sender and read as
    # server latency; the loop allocates little, so collect afterwards
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        if gc_was_enabled:
            gc.enable()
    end = clock()
    return [Sample(kind, start + offset, end, end, error="never-sent")
            if sample is None else sample
            for sample, (offset, kind, _, _) in zip(samples, encoded)]


def even_schedule(rate: float,
                  requests: Sequence[Tuple[str, Dict[str, Any]]]
                  ) -> List[Tuple[float, str, Dict[str, Any]]]:
    """One request every ``1/rate`` seconds, in the given order."""
    return [(i / rate, kind, body)
            for i, (kind, body) in enumerate(requests)]
