"""Self-tests of the benchmark: generators, checks and span reduction.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import launch  # noqa: E402
import loadgen  # noqa: E402
import programs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import sweep_prog  # noqa: E402
from repro.analysis.experiments import (  # noqa: E402
    default_code, default_images, run_fig8,
)
from repro.analysis.sweep import DueSweep, RecoveryStrategy  # noqa: E402
from repro.core.swdecc import SwdEcc  # noqa: E402
from repro.ecc.channel import double_bit_patterns  # noqa: E402
from repro.program.synth import synthesize_benchmark  # noqa: E402
from repro.service.catalog import ServiceCatalog  # noqa: E402
from workloads import (  # noqa: E402
    CODE_ID, HOT_WORDS, ColdPool, catalog_codewords, hot_set, sweep_sample,
)


@pytest.fixture(scope="module")
def catalog():
    return ServiceCatalog()


@pytest.fixture(scope="module")
def codewords(catalog):
    return catalog_codewords(catalog)


def _pool(catalog, codewords, seed=1):
    return ColdPool(catalog.code(CODE_ID), codewords, seed)


def test_cold_pool_is_seeded(catalog, codewords):
    first = _pool(catalog, codewords, 3).take(2000)
    assert first == _pool(catalog, codewords, 3).take(2000)
    assert first != _pool(catalog, codewords, 4).take(2000)


def test_cold_pool_never_repeats_across_warmup_and_timed(catalog, codewords):
    pool = _pool(catalog, codewords)
    warmup = [pool.take(256) for _ in range(32)]
    timed = [pool.take(256) for _ in range(400)]
    words = [word for batch in warmup + timed for word in batch]
    assert len(words) == (32 + 400) * 256
    assert len(set(words)) == len(words)


def test_cold_pool_exhausts_without_repeating(catalog, codewords):
    pool = ColdPool(catalog.code(CODE_ID), codewords[:3], seed=5)
    words = pool.take(10_000)
    assert 0 < len(words) <= pool.size == 3 * 741
    assert len(set(words)) == len(words)
    assert pool.take(1) == []


def test_every_generated_word_is_a_due(catalog, codewords):
    code = catalog.code(CODE_ID)
    pool = _pool(catalog, codewords, 7)
    words = hot_set(pool) + pool.take(5000)
    assert all(code.decode(word).is_due for word in words)


def test_pool_draws_from_the_catalog_image(catalog, codewords):
    image = synthesize_benchmark("mcf", length=catalog.image_length,
                                 seed=catalog.seed)
    code = catalog.code(CODE_ID)
    assert codewords == [code.encode(w) for w in dict.fromkeys(image.words)]
    assert len(codewords) * 741 > 1_000_000


def test_hot_set_is_fixed_and_distinct(catalog, codewords):
    hot = hot_set(_pool(catalog, codewords, 9))
    assert len(hot) == len(set(hot)) == HOT_WORDS
    assert hot == hot_set(_pool(catalog, codewords, 9))


def test_sweep_sample_is_seeded():
    assert sweep_sample(1, 741, 16) == sweep_sample(1, 741, 16)
    assert sweep_sample(1, 741, 16) != sweep_sample(2, 741, 16)
    assert len(set(sweep_sample(1, 741, 16))) == 16


def test_reference_flags_a_corrupted_answer(catalog, codewords):
    ref = reference.ServiceReference()
    word = _pool(catalog, codewords).take(1)[0]
    good = json.loads(ref.expected(word))
    assert good["status"] == "recovered"
    assert ref.mismatches([(word, good)]) == (1, 0)
    wrong_choice = dict(good, chosen_message=good["chosen_message"] ^ 1)
    assert ref.mismatches([(word, wrong_choice)]) == (1, 1)
    targets = [dict(t) for t in good["targets"]]
    targets[0]["score"] += 1e-9
    assert ref.mismatches([(word, dict(good, targets=targets))]) == (1, 1)


def test_truncated_response_never_matches(catalog, codewords):
    ref = reference.ServiceReference()
    words = _pool(catalog, codewords).take(3)
    pairs = reference.served_words([(words, b'{"results": []}')], 10, 1)
    assert ref.mismatches(pairs) == (3, 3)


def test_detect_only_reply_counts_as_failed():
    body = json.dumps({"degraded": True, "results": [
        {"status": "detect-only", "received": 5}]}).encode()
    assert loadgen.check_response([5], 200, body) == (False, 0)
    assert loadgen.check_response([5], 429, b"{}") == (False, 0)
    ok = json.dumps({"results": [
        {"status": "recovered", "received": 5},
        {"status": "error", "received": 6}]}).encode()
    assert loadgen.check_response([5, 6], 200, ok) == (True, 1)


def test_sweep_reference_flags_a_corrupted_outcome():
    code = default_code()
    image = synthesize_benchmark("mcf", length=4096, seed=2016)
    patterns = list(double_bit_patterns(code.n))
    indexes = [3, 400]
    fast = DueSweep(code, RecoveryStrategy.FILTER_AND_RANK, 100,
                    patterns=[patterns[i] for i in indexes]).run(image)
    rows = [[o.index, o.success_rate, o.mean_candidates, o.mean_valid]
            for o in fast.outcomes]
    outcomes = {image.name: rows}
    assert reference.sweep_mismatches(outcomes, indexes, [image], 100) \
        == (2, 0)
    rows[1] = [rows[1][0], rows[1][1] + 0.01, *rows[1][2:]]
    assert reference.sweep_mismatches(outcomes, indexes, [image], 100) \
        == (2, 1)


def _columns(rows):
    return [array("q", column) for column in zip(*rows)]


def test_self_time_subtracts_children_and_respects_window():
    header = {"names": ["parent", "child"], "traces": []}
    rows = [  # name, start, end, id, parent, trace, count (end order)
        (1, 10, 30, 2, 1, -1, 1),
        (1, 40, 50, 3, 1, -1, 1),
        (0, 0, 100, 1, 0, -1, 8),
        (1, 500, 600, 5, 4, -1, 1),
        (0, 450, 700, 4, 0, -1, 8),
    ]
    trace = spans.reduce(header, _columns(rows), (0, 200))
    assert trace.layer("parent").calls == 1
    assert trace.layer("parent").self_ns == 70
    assert trace.layer("child").total_ns == 30
    assert trace.per_work_us("parent", self_time=True) == 70 / 8 / 1e3
    assert trace.lifetime_ns["parent"] == 350


def test_launcher_records_nested_layer_spans(tmp_path):
    script = tmp_path / "prog.py"
    script.write_text(
        "from repro.service.catalog import ServiceCatalog\n"
        "catalog = ServiceCatalog()\n"
        "catalog.preload(['mcf'])\n"
        "engine = catalog.engine('secded-39-32')\n"
        "code = catalog.code('secded-39-32')\n"
        "engine.recover(code.encode(0x8fbf0018) ^ 0b11, "
        "catalog.context('mcf'))\n")
    out = tmp_path / "spans"
    env = {"PYTHONPATH": str(HERE.parent / "src"), "PATH": "/usr/bin:/bin"}
    subprocess.run([sys.executable, str(HERE / "launch.py"), "--spans",
                    str(out), str(script)], check=True, env=env, timeout=120)
    header, columns = spans.load(out)
    trace = spans.reduce(header, columns, (0, 2**62))
    for name in ("catalog.preload", "program.synth", "swdecc.precompile",
                 "swdecc.recover"):
        assert trace.layer(name).calls >= 1, name
    by_id = {}
    for name, start, end, span_id, parent, _, _ in zip(*columns):
        by_id[span_id] = (header["names"][name], start, end, parent)
    synth = [s for s in by_id.values() if s[0] == "program.synth"][0]
    parent = by_id[synth[3]]
    assert parent[0] == "catalog.preload"
    assert parent[1] <= synth[1] <= synth[2] <= parent[2]
    assert launch.COLUMNS[0] == "name"


def test_sweep_program_stops_at_the_deadline_after_a_full_pass(monkeypatch):
    monkeypatch.setattr(sweep_prog, "INSTRUCTIONS", 4)
    images = default_images(length=64)
    started = []

    def counted(**kwargs):
        started.append(1)
        assert len(started) <= 4, "the sweep ran past its deadline"
        return run_fig8(**kwargs)

    monkeypatch.setattr(sweep_prog, "run_fig8", counted)
    unwrapped = SwdEcc.sweep_probabilities
    once = sweep_prog.run(images, 0.0)
    assert SwdEcc.sweep_probabilities is unwrapped
    assert [p["complete"] for p in once["passes"]] == [True, False]
    assert [p["recoveries"] for p in once["passes"]] == [5 * 741 * 4, 0]
    seconds = once["passes"][0]["seconds"] * 1.5
    started.clear()
    result = sweep_prog.run(images, seconds)
    complete = [p["complete"] for p in result["passes"]]
    assert complete[-1] is False and all(complete[:-1])
    assert result["outcomes"] == once["outcomes"]
    assert result["passes_identical"]
    assert result["vmhwm_kb"] > 0
    assert (sum(p["recoveries"] for p in result["passes"])
            == 4 * len(result["call_ms"]))
    start, end = result["window_ns"]
    assert end - start >= seconds * 1e9


def _state(pid: int) -> str | None:
    """Process state letter of *pid*, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline
        time.sleep(0.01)


def test_keep_awake_loops_run_idle_priority_and_stop():
    cpus = os.sched_getaffinity(0)
    with programs.KeepAwake(cpus) as awake:
        pids = awake.pids
        assert len(pids) == len(cpus)
        for pid in pids:
            _wait_for(lambda: os.sched_getscheduler(pid) == os.SCHED_IDLE)
        assert sorted(os.sched_getaffinity(pid) for pid in pids) \
            == sorted({cpu} for cpu in cpus)
    assert all(_state(pid) is None for pid in pids)


def test_keep_awake_loop_exits_with_its_parent():
    spawn = ("import os, subprocess, sys\n"
             "print(subprocess.Popen([sys.executable, sys.argv[1], "
             "sys.argv[2], str(os.getpid())]).pid)\n")
    cpu = min(os.sched_getaffinity(0))
    out = subprocess.run(
        [sys.executable, "-c", spawn, str(programs.KEEP_AWAKE), str(cpu)],
        check=True, capture_output=True, text=True, timeout=60)
    pid = int(out.stdout)
    _wait_for(lambda: _state(pid) in (None, "Z"))
