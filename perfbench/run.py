"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

- ``serve-cold`` — the recovery service, 256-word requests of distinct
  DUE words, so its served-answer cache never hits.
- ``serve-hot`` — the recovery service, 16-word requests drawn from 512
  repeating DUE words, so that cache answers nearly everything.
- ``sweep-fig8`` — paper-scale Fig. 8 sweeps, in-process, ``jobs=1``.

With ``--trace 0`` the run measures the untraced program and prints
every end-to-end metric.  With ``--trace 1`` it measures the untraced
program, then the same workload under ``perfbench/launch.py``, and
prints the per-layer metrics, the self-time table and the tracing
overhead.  Either way every answer class is checked against the
reference pipeline; the last stdout line is the JSON result, and the
exit code is 1 when any answer is wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Launches per measured process of an untraced run (two processes,
#: five launches); ``setup_s`` is the median of all five.
PHASE_LAUNCHES = (3, 2)
#: Client threads, each one closed-loop "faulting core".
CLIENTS = 2
#: Every SAMPLE_EVERY-th timed request keeps its body for the
#: reference check, which then compares CHECK_WORDS of those words.
SAMPLE_EVERY = 16
CHECK_WORDS = 2000
#: Patterns per image re-run uncached for the sweep check.
SWEEP_CHECK_PATTERNS = 16
#: Fig. 8 shape: C(39, 2) double-bit patterns on each of 5 images.
PATTERNS, IMAGES = 741, 5

COUNTER_RATIOS = {
    "shards.result_cache_hit_ratio": "service.result.cache",
    "filters.cache_hit_ratio": "filter.cache",
    "rankers.cache_hit_ratio": "ranker.cache",
    "candidates.cache_hit_ratio": "candidates.cache",
}


def _require_source() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("run.py: this checkout has no src/repro to benchmark",
              file=sys.stderr)
        sys.exit(2)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank *q*-quantile of *values* (``inf`` sorts last)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency_note(unit: str, values_ms: list[float]) -> str:
    """Tail percentiles with their sample count, for the log."""
    tails = ", ".join(f"p{q * 100:g} {percentile(values_ms, q):.3f}"
                      for q in (0.5, 0.9, 0.95, 0.99))
    return f"latency over {len(values_ms)} {unit}s (ms): {tails}"


def ratio(before: dict, after: dict, prefix: str) -> float:
    hits = after.get(f"{prefix}_hits", 0) - before.get(f"{prefix}_hits", 0)
    misses = (after.get(f"{prefix}_misses", 0)
              - before.get(f"{prefix}_misses", 0))
    return hits / (hits + misses) if hits + misses else 0.0


@dataclass
class Outcome:
    """What one workload run reports."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------


@dataclass
class ServicePhase:
    """One measured service process."""

    setups: list[float]
    load: "loadgen.Load"
    before: dict
    after: dict
    peak_rss_mb: float
    spans: Path | None


def service_phase(label: str, launches: int, traced: bool, next_words,
                  warmup_requests: int, seconds: float, args
                  ) -> ServicePhase:
    """Launch the service *launches* times; warm and measure the last."""
    import loadgen
    from programs import OUT, Service

    spans = OUT / f"spans-{label}" if traced else None
    setups = []
    service = None
    try:
        for index in range(launches):
            if service is not None:
                service.stop()
            service = Service(OUT / f"service-{label}-{index}.log", spans,
                              args.program_cpus)
            setups.append(service.start())
        remaining = [warmup_requests]

        def warm_words(client: int) -> list[int]:
            if remaining[0] <= 0:
                return []
            remaining[0] -= 1
            return next_words(client)

        loadgen.run(service.port, warm_words, 600.0, args.seed,
                    f"{label}-warmup", clients=CLIENTS)
        before = service.counters()
        load = loadgen.run(service.port, next_words, seconds, args.seed,
                           label, clients=CLIENTS, sample_every=SAMPLE_EVERY)
        after = service.counters()
        rss = service.peak_rss_mb()
    finally:
        if service is not None:
            service.stop()
    return ServicePhase(setups, load, before, after, rss, spans)


def setup_note(setups: list[float]) -> str:
    return "set-up per launch (s): " + ", ".join(f"{s:.3f}" for s in setups)


def service_metrics(phases: list[ServicePhase], outcome: Outcome
                    ) -> dict[str, tuple[float, str]]:
    """End-to-end figures pooled over the measured service processes."""
    requests = [r for phase in phases for r in phase.load.requests]
    latencies = [r.latency_s for r in requests]
    seconds = sum(phase.load.seconds for phase in phases)
    setups = [setup for phase in phases for setup in phase.setups]
    outcome.notes += [latency_note("request", [x * 1e3 for x in latencies]),
                      setup_note(setups)]
    return {
        "words_per_s": (sum(r.ok_words for r in requests) / seconds, "1/s"),
        "p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(phase.peak_rss_mb for phase in phases), "MiB"),
    }


def service_check(phase: ServicePhase, reference, seed: int,
                  outcome: Outcome, label: str) -> None:
    from reference import served_words

    load = phase.load
    pairs = served_words(load.samples, CHECK_WORDS, seed)
    checked, mismatched = reference.mismatches(pairs)
    unanswered = load.words - load.ok_words
    failed_requests = sum(math.isinf(r.latency_s) for r in load.requests)
    outcome.attempted += load.words
    outcome.failed += unanswered + mismatched
    hit = ratio(phase.before, phase.after, "service.result.cache")
    outcome.notes += [
        f"[{label}] {len(load.requests)} requests, {load.words} words in "
        f"{load.seconds:.2f} s; {failed_requests} requests failed; "
        f"{unanswered} words not answered 'recovered'",
        f"[{label}] reference check: {mismatched} of {checked} sampled "
        f"words differ from the reference pipeline",
        f"[{label}] shards.result_cache_hit_ratio = {hit:.4f}",
        f"[{label}] fail_frac = "
        f"{(unanswered + mismatched) / max(load.words, 1):.6f}",
    ]
    if checked < 1000:
        outcome.notes.append(
            f"[{label}] note: only {checked} words were sampled")


def serve(args, cold: bool) -> Outcome:
    from programs import KeepAwake
    from reference import ServiceReference
    from repro.service.catalog import ServiceCatalog
    from workloads import CODE_ID, ColdPool, catalog_codewords, hot_set

    catalog = ServiceCatalog()
    pool = ColdPool(catalog.code(CODE_ID), catalog_codewords(catalog),
                    args.seed)
    if cold:
        # Every phase draws fresh words from the one pool.
        def source():
            return lambda client: pool.take(256)
        warmup = 32
    else:
        hot = hot_set(pool)

        def source():
            rngs = [random.Random(f"hot:{args.seed}:{i}")
                    for i in range(CLIENTS)]
            first_pass = [hot[i:i + 16] for i in range(0, len(hot), 16)]

            def next_words(client: int) -> list[int]:
                if first_pass:  # warm-up starts with every hot word once
                    try:
                        return first_pass.pop()
                    except IndexError:  # the other client took the last
                        pass
                return rngs[client].choices(hot, k=16)
            return next_words
        warmup = 160
    name = "cold" if cold else "hot"
    reference = ServiceReference()
    outcome = Outcome()
    with KeepAwake(args.cpus):
        measure_service(name, source, warmup, reference, outcome, args)
    return outcome


def measure_service(name: str, source, warmup: int, reference,
                    outcome: Outcome, args) -> None:
    """Measure the service workload *name* into *outcome*."""
    half = args.seconds / 2
    if not args.trace:
        # Two service processes, half the time each: throughput differs
        # by a few percent from one process to the next, so one process
        # per run would put that into the run-to-run spread.
        phases = [
            service_phase(f"{name}-{index}", launches, False, source(),
                          warmup, half, args)
            for index, launches in enumerate(PHASE_LAUNCHES)
        ]
        for phase, label in zip(phases, ("a", "b")):
            service_check(phase, reference, args.seed, outcome,
                          f"{name}-{label}")
        outcome.metrics = service_metrics(phases, outcome)
        return
    plain = service_phase(name, 1, False, source(), warmup, half, args)
    service_check(plain, reference, args.seed, outcome, name)
    traced = service_phase(f"{name}-traced", 1, True, source(), warmup,
                           half, args)
    service_check(traced, reference, args.seed, outcome, f"{name}-traced")
    outcome.metrics = service_layers(plain, traced, outcome)


def service_layers(plain: ServicePhase, traced: ServicePhase,
                   outcome: Outcome) -> dict[str, tuple[float, str]]:
    import spans as span_tools

    load = traced.load
    header, columns = span_tools.load(traced.spans)
    trace = span_tools.reduce(header, columns, (load.start_ns, load.end_ns))
    client = span_tools.Layer()
    for request in load.requests:
        handle = trace.handle_ns.get(request.trace_id)
        if handle is None or math.isinf(request.latency_s):
            continue
        duration = request.end_ns - request.start_ns
        client.calls += 1
        client.total_ns += duration
        client.self_ns += duration - handle
        client.work += request.words
    outcome.notes.append(
        f"[traced] {client.calls} of {len(load.requests)} requests joined "
        f"to server spans by traceparent trace id")
    outcome.notes.append(span_tools.render(trace, client))
    untraced_rate = plain.load.ok_words / plain.load.seconds
    traced_rate = load.ok_words / load.seconds
    metrics = layer_metrics(trace, traced.before, traced.after)
    metrics.update({
        "server.http_us_per_req": (
            client.self_ns / client.calls / 1e3 if client.calls else 0.0,
            "us"),
        "server.parse_us_per_word": (
            trace.per_work_us("server.parse"), "us"),
        "batcher.wait_us_per_req": (trace.per_call_us("batcher.wait"), "us"),
        "batcher.words_per_batch": (
            trace.layer("shards.execute").work
            / max(trace.layer("shards.execute").calls, 1), "count"),
        "shards.execute_us_per_word": (
            trace.per_work_us("shards.execute"), "us"),
        "shards.encode_us_per_word": (
            trace.per_work_us("shards.execute", self_time=True), "us"),
        "swdecc.recover_us_per_word": (
            trace.per_call_us("swdecc.recover"), "us"),
        "api.shape_us_per_word": (
            trace.per_call_us("api.result_payload"), "us"),
        "server.respond_us_per_req": (
            trace.per_call_us("server.respond"), "us"),
        "catalog.preload_s": (
            trace.lifetime_ns.get("catalog.preload", 0) / 1e9, "s"),
        "swdecc.precompile_s": (
            trace.lifetime_ns.get("swdecc.precompile", 0) / 1e9, "s"),
        "trace.overhead_ratio": (traced_rate / untraced_rate, "ratio"),
    })
    return metrics


# ----------------------------------------------------------------------
# Sweep workload
# ----------------------------------------------------------------------


def sweep_phase(label: str, launches: int, traced: bool, seconds: float,
                args) -> tuple[list[float], dict, Path | None]:
    """Launch the sweep *launches* times; run the last for *seconds*."""
    from programs import OUT, Sweep

    spans = OUT / f"spans-{label}" if traced else None
    setups = []
    program = None
    try:
        for index in range(launches):
            if program is not None:
                program.stop()
            program = Sweep(OUT / f"sweep-{label}-{index}.log", spans,
                            args.program_cpus)
            setups.append(program.start())
        result = program.run(seconds, OUT / f"sweep-{label}.json")
    finally:
        if program is not None:
            program.stop()
    return setups, result, spans


def sweep_rate(results: list[dict]) -> float:
    passes = [p for result in results for p in result["passes"]]
    return (sum(p["recoveries"] for p in passes)
            / sum(p["seconds"] for p in passes))


def sweep_check(result: dict, seed: int, outcome: Outcome,
                label: str) -> None:
    from reference import sweep_mismatches
    from repro.analysis.experiments import default_images
    from sweep_prog import IMAGE_LENGTH, INSTRUCTIONS
    from workloads import sweep_sample

    indexes = sweep_sample(seed, PATTERNS, SWEEP_CHECK_PATTERNS)
    checked, mismatched = sweep_mismatches(
        result["outcomes"], indexes, default_images(length=IMAGE_LENGTH),
        INSTRUCTIONS)
    recoveries = sum(p["recoveries"] for p in result["passes"])
    rows = sum(len(rows) for rows in result["outcomes"].values())
    failed = mismatched * INSTRUCTIONS
    if rows != IMAGES * PATTERNS:
        failed += recoveries
    if not result["passes_identical"]:
        failed += recoveries
    outcome.attempted += recoveries
    outcome.failed += failed
    complete = sum(p["complete"] for p in result["passes"])
    outcome.notes += [
        f"[{label}] {complete} complete paper-scale passes and "
        f"{len(result['passes']) - complete} stopped at the deadline, "
        f"{recoveries} recoveries, {rows} pattern rows per pass; "
        f"complete passes identical: {result['passes_identical']}",
        f"[{label}] reference check: {mismatched} of {checked} sampled "
        f"pattern rows differ from DueSweep(cache=False)",
        f"[{label}] fail_frac = {failed / max(recoveries, 1):.6f}",
    ]


def sweep(args) -> Outcome:
    outcome = Outcome()
    half = args.seconds / 2
    if not args.trace:
        # Two processes, at least one full pass each (see serve()).
        setups, results = [], []
        for index, launches in enumerate(PHASE_LAUNCHES):
            phase_setups, result, _ = sweep_phase(
                f"sweep-{index}", launches, False, half, args)
            sweep_check(result, args.seed, outcome, f"sweep-{index}")
            setups += phase_setups
            results.append(result)
        calls = [ms for result in results for ms in result["call_ms"]]
        outcome.notes += [latency_note("pattern row", calls),
                          setup_note(setups)]
        outcome.metrics = {
            "words_per_s": (sweep_rate(results), "1/s"),
            "p50_ms": (percentile(calls, 0.50), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (max(r["vmhwm_kb"] for r in results) / 1024.0,
                            "MiB"),
        }
        return outcome
    _, plain, _ = sweep_phase("sweep", 1, False, half, args)
    sweep_check(plain, args.seed, outcome, "sweep")
    import spans as span_tools

    _, traced, spans = sweep_phase("sweep-traced", 1, True, half, args)
    sweep_check(traced, args.seed, outcome, "sweep-traced")
    header, columns = span_tools.load(spans)
    trace = span_tools.reduce(header, columns, tuple(traced["window_ns"]))
    outcome.notes.append(span_tools.render(trace))
    counters = traced["counters"]
    before = {name: 0 for name in counters}
    metrics = layer_metrics(trace, before, counters)
    metrics.update({
        "swdecc.sweep_self_us_per_word": (
            trace.per_work_us("swdecc.sweep_probabilities", self_time=True),
            "us"),
        "trace.overhead_ratio": (
            sweep_rate([traced]) / sweep_rate([plain]), "ratio"),
    })
    outcome.metrics = metrics
    return outcome


# ----------------------------------------------------------------------
# Shared per-layer figures
# ----------------------------------------------------------------------

#: Every per-layer metric and its unit; a layer a workload does not
#: exercise reports 0.
LAYER_UNITS = {
    "server.http_us_per_req": "us",
    "server.parse_us_per_word": "us",
    "batcher.wait_us_per_req": "us",
    "batcher.words_per_batch": "count",
    "shards.execute_us_per_word": "us",
    "shards.encode_us_per_word": "us",
    "shards.result_cache_hit_ratio": "ratio",
    "swdecc.recover_us_per_word": "us",
    "api.shape_us_per_word": "us",
    "server.respond_us_per_req": "us",
    "swdecc.sweep_self_us_per_word": "us",
    "filters.apply_us_per_call": "us",
    "rankers.score_us_per_call": "us",
    "filters.cache_hit_ratio": "ratio",
    "rankers.cache_hit_ratio": "ratio",
    "candidates.cache_hit_ratio": "ratio",
    "catalog.preload_s": "s",
    "swdecc.precompile_s": "s",
    "program.synth_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(trace, before: dict, after: dict
                  ) -> dict[str, tuple[float, str]]:
    """The layer figures both program kinds share; the rest start at 0."""
    metrics = {name: (0.0, unit) for name, unit in LAYER_UNITS.items()}
    metrics.update({name: (ratio(before, after, prefix), "ratio")
                    for name, prefix in COUNTER_RATIOS.items()})
    metrics.update({
        "filters.apply_us_per_call": (trace.per_call_us("filters.apply"),
                                      "us"),
        "rankers.score_us_per_call": (
            trace.per_call_us("rankers.score_many"), "us"),
        "program.synth_s": (
            trace.lifetime_ns.get("program.synth", 0) / 1e9, "s"),
    })
    return metrics


WORKLOADS = {
    "serve-cold": lambda args: serve(args, cold=True),
    "serve-hot": lambda args: serve(args, cold=False),
    "sweep-fig8": sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.program_cpus = None
    args.cpus = os.sched_getaffinity(0)
    _require_source()
    # A terminated run still stops the programs it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path.insert(0, str(ROOT / "src"))
    from programs import OUT, split_cpus

    split = split_cpus()
    if split is not None:
        args.program_cpus = split[0]
        os.sched_setaffinity(0, split[1])
    OUT.mkdir(exist_ok=True)
    outcome = WORKLOADS[args.workload](args)
    for note in outcome.notes:
        print(note)
    metrics = {}
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
        # A latency is inf when most requests failed; JSON has no inf,
        # and such a run is already reported incorrect.
        metrics[name] = {"value": value if math.isfinite(value) else 1e12,
                         "unit": unit}
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
