"""Run a program with the benchmark's layer spans recorded.

Usage::

    python3 perfbench/launch.py --spans OUT -m repro serve-recovery ...
    python3 perfbench/launch.py --spans OUT perfbench/sweep_prog.py ...

Wraps the public entry point of each layer (below), then runs the
module or script exactly as ``python3 -m`` / ``python3 SCRIPT`` would.
Spans live in memory, in per-thread ``array('q')`` columns (no Python
object per span, so the collector does not add garbage-collector
work), and are written when the program exits: ``OUT.json`` holds the
span names, trace ids and row count, ``OUT.bin`` the columns of
:data:`COLUMNS`, each ``count`` native int64 values, in that order.

Each span records its name, start, end, own id, parent id, trace and
a work count (words, messages).  A service request's spans share the
trace id of the ``traceparent`` header the load generator sent, and
its ``server.handle_recover`` span is parented to the load
generator's span id from that header.  Per request, the handler's time
is tiled by four derived spans: ``server.parse`` (entry to the
``submit`` call), ``batcher.wait`` (``submit`` to the start of the
``BatchEngine.execute`` that runs it), ``batcher.execute`` (that
batch's execute window) and ``server.respond`` (execute return to
handler return).  Batch-level spans (``shards.execute`` and the
per-word ``swdecc.recover`` / ``api.result_payload`` under it) run on
the batcher thread, are shared by every request in the batch, and
carry no trace id.

The source tree is not modified: every wrapper is installed on the
imported classes and modules of this process only.
"""

from __future__ import annotations

import functools
import itertools
import json
import runpy
import sys
import threading
import time
from array import array

#: Column order of ``OUT.bin``.
COLUMNS = ("name", "start_ns", "end_ns", "span_id", "parent_id", "trace",
           "count")

_clock = time.perf_counter_ns
_ids = itertools.count(1)


class Recorder:
    """In-memory span store with one buffer per thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.traces: list[str] = []
        self._trace_index: dict[str, int] = {}
        self._buffers: list[tuple[array, ...]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # id(RecoveryRequest) -> the submitting request's frame, so the
        # batcher thread can stamp execute times on the right request.
        self.pending: dict[int, _Frame] = {}

    def name(self, name: str) -> int:
        with self._lock:
            index = self._name_index.get(name)
            if index is None:
                index = self._name_index[name] = len(self.names)
                self.names.append(name)
            return index

    def trace(self, trace_id: str) -> int:
        with self._lock:
            index = self._trace_index.get(trace_id)
            if index is None:
                index = self._trace_index[trace_id] = len(self.traces)
                self.traces.append(trace_id)
            return index

    def local(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.trace = -1
            local.frame = None
            local.columns = tuple(array("q") for _ in COLUMNS)
            with self._lock:
                self._buffers.append(local.columns)
        return local

    @staticmethod
    def add(local, name, start, end, span_id, parent, trace, count) -> None:
        for column, value in zip(
            local.columns, (name, start, end, span_id, parent, trace, count)
        ):
            column.append(value)

    def write(self, path: str) -> None:
        with self._lock:
            buffers = list(self._buffers)
        merged = [array("q") for _ in COLUMNS]
        for columns in buffers:
            rows = min(len(column) for column in columns)
            for into, column in zip(merged, columns):
                into.extend(column[:rows])
        with open(path + ".bin", "wb") as handle:
            for column in merged:
                column.tofile(handle)
        with open(path + ".json", "w") as handle:
            json.dump({"columns": list(COLUMNS), "count": len(merged[0]),
                       "names": self.names, "traces": self.traces}, handle)


class _Frame:
    """One request's derived-span timestamps (see module docstring)."""

    __slots__ = ("ids", "words", "submit_ns", "exec_start_ns",
                 "exec_end_ns", "key")

    def __init__(self) -> None:
        # handle, parse, wait, execute share, respond
        self.ids = tuple(next(_ids) for _ in range(5))
        self.words = 0
        self.submit_ns = 0
        self.exec_start_ns = 0
        self.exec_end_ns = 0
        self.key = None


def _span(rec: Recorder, name: str, fn, count=None):
    """Wrap *fn* in a span named *name*; *count* maps args to work."""
    index = rec.name(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        local = rec.local()
        stack = local.stack
        parent = stack[-1] if stack else 0
        span_id = next(_ids)
        stack.append(span_id)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            rec.add(local, index, start, end, span_id, parent, local.trace,
                    count(*args, **kwargs) if count is not None else 1)

    return wrapper


def _handle_recover(rec: Recorder, fn):
    names = [rec.name(name) for name in (
        "server.handle_recover", "server.parse", "batcher.wait",
        "batcher.execute", "server.respond",
    )]

    @functools.wraps(fn)
    def wrapper(self, body, batch, trace=None):
        local = rec.local()
        frame = _Frame()
        handle_id, parse_id, wait_id, share_id, respond_id = frame.ids
        trace_index, remote_parent = -1, 0
        if trace is not None:
            trace_index = rec.trace(trace.context.trace_id)
            remote_parent = trace.remote_parent_id or 0
        local.frame, local.trace = frame, trace_index
        local.stack += [handle_id, parse_id]
        start = _clock()
        try:
            return fn(self, body, batch, trace)
        finally:
            end = _clock()
            del local.stack[-2:]
            local.frame, local.trace = None, -1
            rec.pending.pop(frame.key, None)
            # Children first: readers rely on end order within a thread.
            words = frame.words
            add = rec.add
            add(local, names[1], start, frame.submit_ns or end, parse_id,
                handle_id, trace_index, words)
            if frame.submit_ns:
                add(local, names[2], frame.submit_ns,
                    frame.exec_start_ns or end, wait_id, handle_id,
                    trace_index, 1)
            if frame.exec_end_ns:
                add(local, names[3], frame.exec_start_ns, frame.exec_end_ns,
                    share_id, handle_id, trace_index, words)
                add(local, names[4], frame.exec_end_ns, end, respond_id,
                    handle_id, trace_index, 1)
            add(local, names[0], start, end, handle_id, remote_parent,
                trace_index, words)

    return wrapper


def _submit(rec: Recorder, fn):
    inner = _span(rec, "batcher.submit", fn)

    @functools.wraps(fn)
    def wrapper(self, request):
        local = rec.local()
        frame = local.frame
        if frame is not None:
            frame.submit_ns = _clock()
            frame.words = len(request.words)
            frame.key = id(request)
            rec.pending[frame.key] = frame
            local.stack[-1] = frame.ids[2]  # now inside batcher.wait
        return inner(self, request)

    return wrapper


def _execute(rec: Recorder, fn):
    inner = _span(rec, "shards.execute", fn,
                  count=lambda self, requests: sum(
                      len(r.words) for r in requests))

    @functools.wraps(fn)
    def wrapper(self, requests):
        frames = [rec.pending.pop(id(r), None) for r in requests]
        start = _clock()
        for frame in frames:
            if frame is not None:
                frame.exec_start_ns = start
        try:
            return inner(self, requests)
        finally:
            end = _clock()
            for frame in frames:
                if frame is not None:
                    frame.exec_end_ns = end

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    import repro.analysis.experiments  # noqa: F401 - binds synthesize_*
    from repro.core import rankers
    from repro.core.filters import FilterChain
    from repro.core.swdecc import SwdEcc
    from repro.program import synth
    from repro.service import api
    from repro.service.batcher import RecoveryBatcher
    from repro.service.catalog import ServiceCatalog
    from repro.service.server import RecoveryService
    from repro.service.shards import BatchEngine

    RecoveryService.handle_recover = _handle_recover(
        rec, RecoveryService.handle_recover)
    RecoveryBatcher.submit = _submit(rec, RecoveryBatcher.submit)
    BatchEngine.execute = _execute(rec, BatchEngine.execute)
    from_json = api.RecoveryRequest.__dict__["from_json"].__func__
    api.RecoveryRequest.from_json = classmethod(
        _span(rec, "api.from_json", from_json))
    api.result_payload = _span(rec, "api.result_payload", api.result_payload)
    SwdEcc.recover = _span(rec, "swdecc.recover", SwdEcc.recover)
    SwdEcc.precompile = _span(rec, "swdecc.precompile", SwdEcc.precompile)
    SwdEcc.sweep_probabilities = _span(
        rec, "swdecc.sweep_probabilities", SwdEcc.sweep_probabilities,
        count=lambda self, messages, *rest, **kw: len(messages))
    FilterChain.apply = _span(rec, "filters.apply", FilterChain.apply)
    for cls in vars(rankers).values():
        if isinstance(cls, type) and "score_many" in vars(cls):
            cls.score_many = _span(rec, "rankers.score_many",
                                   vars(cls)["score_many"])
    ServiceCatalog.preload = _span(rec, "catalog.preload",
                                   ServiceCatalog.preload)
    original = synth.synthesize_benchmark
    wrapped = _span(rec, "program.synth", original)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "synthesize_benchmark", None)
                is original):
            module.synthesize_benchmark = wrapped


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print("usage: launch.py --spans OUT (-m MODULE | SCRIPT) [ARGS...]",
              file=sys.stderr)
        return 2
    out, rest = argv[1], argv[2:]
    rec = Recorder()
    install(rec)
    status = 0
    try:
        if rest[0] == "-m":
            sys.argv = [rest[1], *rest[2:]]
            runpy.run_module(rest[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(rest)
            runpy.run_path(rest[0], run_name="__main__")
    except SystemExit as exit_:
        code = exit_.code
        status = code if isinstance(code, int) else int(code is not None)
    finally:
        rec.write(out)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
