"""The ``sweep-fig8`` program: paper-scale Fig. 8 sweeps, timed.

Run as its own process (``python3 perfbench/sweep_prog.py``, with the
repository's ``src`` on ``PYTHONPATH``) so that its set-up time and
peak memory belong to the sweep, not to the benchmark process.

Protocol on stdin/stdout:

1. Set up (imports, ``default_images(length=4096)``), then print
   ``ready``.
2. Read one line.  ``stop`` exits at once (a set-up-only launch).
   ``run SECONDS OUT`` runs ``run_fig8`` passes (all 741 patterns x 100
   instructions x 5 images, filter-and-rank, ``jobs=1``) for SECONDS,
   writes the result JSON to OUT and prints ``done``.  The first pass
   always completes, so its outcomes can be checked; once it has and
   SECONDS are up, the pass in progress stops before its next pattern
   and counts the patterns it finished.

Each ``SwdEcc.sweep_probabilities`` call (one error pattern over the
100-instruction window) is timed by a thin wrapper; those are the
latency samples.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from repro.analysis.experiments import default_images, run_fig8
from repro.core.swdecc import SwdEcc
from repro.obs import metrics as obs_metrics

#: Paper-scale sweep shape (Sec. IV-A).
IMAGE_LENGTH = 4096
INSTRUCTIONS = 100

#: Registry counters reported as before/after deltas.
COUNTERS = (
    "filter.cache_hits", "filter.cache_misses",
    "ranker.cache_hits", "ranker.cache_misses",
    "candidates.cache_hits", "candidates.cache_misses",
)


def _counters() -> dict[str, int]:
    snapshot = obs_metrics.get_registry().as_dict()
    return {name: snapshot.get(name, {}).get("value", 0)
            for name in COUNTERS}


def _vmhwm_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class _TimeUp(Exception):
    """Stops the pass in progress once the measured time is up."""


def run(images, seconds: float) -> dict:
    call_ns: list[int] = []
    words = [0]  # recoveries (pattern x word) finished so far
    deadline_ns = [None]  # armed once the first pass is complete
    sweep_probabilities = SwdEcc.sweep_probabilities

    @functools.wraps(sweep_probabilities)
    def timed(self, originals, *args, **kwargs):
        start = time.perf_counter_ns()
        if deadline_ns[0] is not None and start >= deadline_ns[0]:
            raise _TimeUp
        try:
            return sweep_probabilities(self, originals, *args, **kwargs)
        finally:
            call_ns.append(time.perf_counter_ns() - start)
            words[0] += len(originals)

    SwdEcc.sweep_probabilities = timed
    before = _counters()
    passes = []
    first = None
    identical = True
    window_start_ns = time.perf_counter_ns()
    try:
        while True:
            pass_start_ns = time.perf_counter_ns()
            pass_start_words = words[0]
            try:
                result = run_fig8(images=images,
                                  num_instructions=INSTRUCTIONS, jobs=1)
            except _TimeUp:
                result = None
            end_ns = time.perf_counter_ns()
            passes.append({"seconds": (end_ns - pass_start_ns) / 1e9,
                           "recoveries": words[0] - pass_start_words,
                           "complete": result is not None})
            if result is None:
                break
            outcomes = {
                sweep.benchmark: [
                    [o.index, o.success_rate, o.mean_candidates,
                     o.mean_valid]
                    for o in sweep.outcomes
                ]
                for sweep in result.sweeps
            }
            if first is None:
                first = outcomes
                # Later passes can raise the peak a little, and how many
                # run depends on the machine's speed: report one pass.
                vmhwm_kb = _vmhwm_kb()
                deadline_ns[0] = window_start_ns + int(seconds * 1e9)
            else:
                identical = identical and outcomes == first
    finally:
        SwdEcc.sweep_probabilities = sweep_probabilities
    after = _counters()
    return {
        "window_ns": [window_start_ns, end_ns],
        "passes": passes,
        "call_ms": [ns / 1e6 for ns in call_ns],
        "outcomes": first,
        "passes_identical": identical,
        "counters": {name: after[name] - before[name] for name in COUNTERS},
        "vmhwm_kb": vmhwm_kb,
    }


def main() -> int:
    images = default_images(length=IMAGE_LENGTH)
    print("ready", flush=True)
    command = sys.stdin.readline().split()
    if not command or command[0] != "run":
        return 0
    seconds, out = float(command[1]), command[2]
    result = run(images, seconds)
    with open(out, "w") as handle:
        json.dump(result, handle)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
