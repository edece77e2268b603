"""Closed-loop load against ``POST /recover/batch``.

Each client thread stands for one faulting core: it sends a batch of
DUE words, waits for the whole answer, checks it, and only then sends
the next.  Clients keep one HTTP/1.1 connection alive each.

Latency runs from just before the request is written to the last byte
of the response.  A request that errors, is refused or is answered
detect-only counts as failed: its latency is ``inf``, so it ranks
slower than every successful one.  Every word not answered
``recovered`` counts as failed.

Each request carries a W3C ``traceparent`` header minted from the
seed; the traced service records its request spans under that trace
id, which is how the benchmark joins client and server spans.

The benchmark owns this generator instead of reusing
``repro.service.loadgen``: a change to the program must not change
how the program is measured.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import random
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from workloads import CODE_ID, CONTEXT_ID


@dataclass
class Request:
    """One completed request, as the client saw it."""

    trace_id: str
    words: int
    ok_words: int
    start_ns: int
    end_ns: int
    latency_s: float  # inf when the request failed


@dataclass
class Load:
    """Everything one closed-loop phase produced."""

    requests: list[Request] = field(default_factory=list)
    #: (words sent, response body) of the sampled requests.
    samples: list[tuple[list[int], bytes]] = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def words(self) -> int:
        return sum(r.words for r in self.requests)

    @property
    def ok_words(self) -> int:
        return sum(r.ok_words for r in self.requests)


#: A per-word ``recovered`` status, with and without JSON's optional
#: space.
_RECOVERED = (b'"status": "recovered"', b'"status":"recovered"')


def check_response(words: list[int], status: int | None,
                   body: bytes) -> tuple[bool, int]:
    """Whether the request was answered (200, not detect-only), and
    how many of *words* it answers ``recovered``.

    The common case is settled by counting status markers, so the
    client spends microseconds, not a full parse, between requests:
    in a closed loop its own think time would otherwise idle the
    service.  Anything else is parsed and checked word by word.  The
    sampled requests' bodies are parsed in full after the run and
    compared with the reference pipeline.
    """
    if status != 200:
        return False, 0
    if any(body.count(marker) == len(words) for marker in _RECOVERED):
        return True, len(words)
    payload = json.loads(body)
    if payload.get("degraded"):
        return False, 0
    results = payload.get("results", [])
    if len(results) != len(words):
        return True, 0
    return True, sum(
        result.get("status") == "recovered" and result.get("received") == word
        for word, result in zip(words, results)
    )


def run(port: int, next_words: Callable[[int], list[int]], seconds: float,
        seed: int, label: str, clients: int = 2,
        sample_every: int = 0) -> Load:
    """Drive *clients* closed-loop clients for *seconds*.

    ``next_words(client)`` returns the next request's words (an empty
    list ends that client early).  Trace ids derive from *seed* and the
    phase *label*, so phases of one run never share one.  Every ``sample_every``-th request
    (seeded offset; 0 = none) keeps its response body for the
    reference check.
    """
    load = Load()
    lock = threading.Lock()
    ordinals = itertools.count()
    offset = random.Random(f"sample:{seed}").randrange(max(sample_every, 1))
    deadline = time.perf_counter() + seconds
    failures: list[Exception] = []

    def client(index: int) -> None:
        ids = random.Random(f"trace:{seed}:{label}:{index}")
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        done: list[Request] = []
        kept: list[tuple[list[int], bytes]] = []
        try:
            while time.perf_counter() < deadline:
                words = next_words(index)
                if not words:
                    break
                ordinal = next(ordinals)
                trace_id = f"{ids.getrandbits(128) | 1:032x}"
                span_id = ids.getrandbits(63) | 1
                body = json.dumps({"received": words, "code": CODE_ID,
                                   "context": CONTEXT_ID}).encode()
                headers = {"Content-Type": "application/json",
                           "traceparent": f"00-{trace_id}-{span_id:016x}-01"}
                start = time.perf_counter_ns()
                try:
                    conn.request("POST", "/recover/batch", body, headers)
                    response = conn.getresponse()
                    data = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=60)
                    status, data = None, b""
                end = time.perf_counter_ns()
                answered, ok = check_response(words, status, data)
                done.append(Request(
                    trace_id, len(words), ok, start, end,
                    (end - start) / 1e9 if answered else math.inf))
                if sample_every and ordinal % sample_every == offset:
                    kept.append((words, data))
        except Exception as error:  # re-raised after the join
            failures.append(error)
        finally:
            conn.close()
            with lock:
                load.requests.extend(done)
                load.samples.extend(kept)

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(clients)]
    load.start_ns = time.perf_counter_ns()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise RuntimeError("load client did not finish")
    if failures:
        raise failures[0]
    load.end_ns = max((r.end_ns for r in load.requests),
                      default=time.perf_counter_ns())
    return load
