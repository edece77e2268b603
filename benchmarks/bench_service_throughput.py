"""Recovery-service throughput benchmark: the online path's report card.

Self-hosts a :class:`repro.service.RecoveryService` on an ephemeral
port and drives it with the closed-loop load generator
(:mod:`repro.service.loadgen` — the same methodology as
``scripts/service_loadgen.py``): N client threads over kept-alive
connections, each sending its next ``POST /recover/batch`` only after
the previous answered.  A warm-up pass populates the engine's
memoization and the served-answer cache first, so the gate measures
steady state.

Three cache-hot configurations run over 512 repeating DUE words, and
each must sustain at least 20,000 recovered words per second
end-to-end (HTTP parse -> queue -> micro-batch -> engine -> JSON
response):

- in-process execution with the historical 64-word requests (the
  longest-running comparison in the history file);
- in-process with 256-word requests (amortizes per-request HTTP cost,
  the configuration that demonstrates the 100k+ words/s headline);
- pre-forked shards (``workers`` = all available cores) with 256-word
  requests, proving the multi-process path carries its IPC cost.

A fourth cache-hot configuration has the shape of perfbench's
``serve-hot`` workload: in-process, 16-word requests from 2 clients.
Each request is too small to fill a batch on its own, so this is the
configuration that shows what the batcher makes a request wait for;
it is gated at ``MIN_SMALL_WORDS_PER_SECOND``.

After warm-up those answers come from the served-answer cache, so a
fifth, cache-cold configuration measures recovery itself: in-process,
256-word requests of distinct DUE words (the ``mcf`` image's words x
the 741 double-bit patterns, seeded order, never repeating, warm-up
included), gated at ``MIN_COLD_WORDS_PER_SECOND``.

Every run appends throughput, p50/p90/p99 request latency and the
measured phase's ``service.result.cache_*`` hit ratio — tagged with
``workers``, ``cache``, ``clients`` and load ``mode`` — to
``BENCH_service.json`` at the repo root so regressions are visible in
history.
"""

from __future__ import annotations

import json
import os
import random
from datetime import datetime, timezone
from pathlib import Path

from benchmarks.conftest import emit
from repro.ecc.channel import double_bit_patterns
from repro.program.synth import synthesize_benchmark
from repro.service import RecoveryService, ServiceCatalog
from repro.service.catalog import DEFAULT_CODE_ID
from repro.service.loadgen import generate_due_words, run_load

MIN_WORDS_PER_SECOND = 20000.0
#: Cache-cold floor (in-process, 256-word requests of distinct words).
#: On a 2-vCPU Xeon guest this configuration measured 21-26k words/s
#: with shared decision rows and row-template rendering, and 9-11k
#: with per-word rows and ``result_payload`` + ``json.dumps``.
MIN_COLD_WORDS_PER_SECOND = 15000.0
#: Small-request floor (in-process, cache-hot, 16-word requests from
#: 2 clients).  On a 2-vCPU Xeon guest, in 13 alternating runs of each,
#: this configuration measured 8.6-13.4k words/s (median 12.2k) with
#: natural batching, and 5.9-9.3k (median 8.7k) with the 1 ms batch
#: linger this harness used to pass.  Natural batching won every
#: interleaved pair; its three runs below 9.5k came in stretches of
#: host load in which the linger runs beside them read 5.9-8.2k.
MIN_SMALL_WORDS_PER_SECOND = 9500.0
CLIENTS = 4
REQUESTS_PER_CLIENT = 40
WARMUP_CLIENTS = 2
WARMUP_REQUESTS = 8
CONTEXT = "mcf"
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: (workers, words_per_request, cache, clients, requests_per_client)
#: per measured configuration.  The 16-word configuration sends more
#: requests so that it measures about as many words as the others.
CONFIGS = (
    (0, 64, "hot", CLIENTS, REQUESTS_PER_CLIENT),
    (0, 256, "hot", CLIENTS, REQUESTS_PER_CLIENT),
    (max(1, os.cpu_count() or 1), 256, "hot", CLIENTS, REQUESTS_PER_CLIENT),
    (0, 16, "hot", 2, 640),
    (0, 256, "cold", CLIENTS, REQUESTS_PER_CLIENT),
)


def _append_history(record) -> None:
    history = []
    if RESULTS_PATH.exists():
        try:
            history = json.loads(RESULTS_PATH.read_text())
        except json.JSONDecodeError:
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    RESULTS_PATH.write_text(json.dumps(history, indent=2) + "\n")


def cold_due_words(count: int, seed: int = 13) -> list[int]:
    """*count* distinct DUE words: the catalog's ``mcf`` image words x
    every double-bit pattern, drawn in a seeded order without
    replacement."""
    catalog = ServiceCatalog()
    code = catalog.code(DEFAULT_CODE_ID)
    image = synthesize_benchmark(
        CONTEXT, length=catalog.image_length, seed=catalog.seed
    )
    codewords = [code.encode(word) for word in dict.fromkeys(image.words)]
    patterns = [pattern.vector for pattern in double_bit_patterns(code.n)]
    rng = random.Random(seed)
    words: dict[int, None] = {}
    for pair in rng.sample(range(len(codewords) * len(patterns)), 2 * count):
        word_index, pattern_index = divmod(pair, len(patterns))
        words.setdefault(codewords[word_index] ^ patterns[pattern_index])
        if len(words) == count:
            return list(words)
    raise AssertionError(f"fewer than {count} distinct DUE words drawn")


def _cache_counts(service) -> tuple[float, float]:
    registry = service.registry
    return (
        registry.counter("service.result.cache_hits").value,
        registry.counter("service.result.cache_misses").value,
    )


def _measure(
    workers: int, words_per_request: int, cold: bool, words,
    clients: int = CLIENTS, requests_per_client: int = REQUESTS_PER_CLIENT,
):
    """Warm up, then measure; returns the load result and the measured
    phase's served-answer cache hit ratio."""
    service = RecoveryService(port=0, max_batch=1024, workers=workers)
    service.catalog.preload([CONTEXT])  # before start: shards fork warm
    if cold:
        # Warm-up and measured phase draw from separate slices, each as
        # long as its load: no word is sent twice.
        warmup_words = WARMUP_CLIENTS * WARMUP_REQUESTS * words_per_request
        warmup, words = words[:warmup_words], words[warmup_words:]
    else:
        warmup = words
    with service:
        # Warm-up: populate syndrome/context memoization (and, when
        # hot, the served-answer cache) so the gate measures steady
        # state, not first-touch compute.
        run_load(
            "127.0.0.1", service.port,
            clients=WARMUP_CLIENTS, requests_per_client=WARMUP_REQUESTS,
            words_per_request=words_per_request,
            context=CONTEXT, words=warmup,
        )
        hits_before, misses_before = _cache_counts(service)
        result = run_load(
            "127.0.0.1", service.port,
            clients=clients, requests_per_client=requests_per_client,
            words_per_request=words_per_request,
            context=CONTEXT, words=words,
        )
        hits_after, misses_after = _cache_counts(service)
    hits = hits_after - hits_before
    lookups = hits + misses_after - misses_before
    return result, hits / lookups if lookups else 0.0


def test_service_sustains_20k_recoveries_per_second():
    hot_words = generate_due_words()
    lines = []
    failures = []
    for workers, words_per_request, cache, clients, per_client in CONFIGS:
        cold = cache == "cold"
        if cold:
            requests = WARMUP_CLIENTS * WARMUP_REQUESTS + clients * per_client
            words = cold_due_words(requests * words_per_request)
        else:
            words = hot_words
        result, hit_ratio = _measure(
            workers, words_per_request, cold, words, clients, per_client
        )
        record = {
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "tool": "bench_service_throughput",
            "workers": workers,
            "context": CONTEXT,
            "words_per_request": words_per_request,
            "cache": cache,
            "result_cache_hit_ratio": round(hit_ratio, 4),
            **result.to_record(),
        }
        _append_history(record)
        latency = record["latency_ms"]
        lines.append(
            f"workers={workers} wpr={words_per_request:4d} {cache:4s} "
            f"clients={clients}: "
            f"{result.throughput_words_per_s:9.0f} words/s  "
            f"p50 {latency['p50']:6.2f} ms  p90 {latency['p90']:6.2f} ms  "
            f"p99 {latency['p99']:6.2f} ms  hit {hit_ratio:.2f}  "
            f"({result.degraded} degraded, {result.http_errors} errors)"
        )
        if result.http_errors:
            failures.append(
                f"workers={workers}: {result.http_errors} HTTP errors"
            )
        if not result.recovered:
            failures.append(f"workers={workers}: no words were recovered")
        if cold:
            floor = MIN_COLD_WORDS_PER_SECOND
        elif words_per_request < 64:
            floor = MIN_SMALL_WORDS_PER_SECOND
        else:
            floor = MIN_WORDS_PER_SECOND
        if result.throughput_words_per_s < floor:
            failures.append(
                f"workers={workers} wpr={words_per_request} {cache}: "
                f"sustained only {result.throughput_words_per_s:.0f} "
                f"words/s; the online path promises >= {floor:.0f}/s"
            )
        if cold and hit_ratio:
            failures.append(
                f"cache-cold run hit the served-answer cache "
                f"({hit_ratio:.2f}): its words repeat"
            )

    emit(
        "Performance | recovery-service throughput (closed-loop HTTP)",
        "\n".join(
            [
                f"workload      : {CLIENTS} clients x "
                f"{REQUESTS_PER_CLIENT} requests (16-word: 2 x 640), "
                f"context={CONTEXT}",
                *lines,
                f"history       : {RESULTS_PATH.name}",
            ]
        ),
    )
    assert not failures, "; ".join(failures)
