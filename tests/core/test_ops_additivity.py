"""Property: op-level energy counters are exactly additive.

The energy model prices recoveries by multiplying op counters by
per-op joule constants, so the counters must be *accounting-grade*:
the same words must charge the same ops no matter how they are
grouped.  Hypothesis drives random 2-bit-DUE word lists and asserts

- ``recover_batch(words)`` charges bit-identical op counts to serial
  ``recover()`` calls on an identically configured fresh engine, and
- batch boundaries are invisible: one ``recover_batch(a + b)`` call
  charges exactly what ``recover_batch(a)`` then ``recover_batch(b)``
  charge on another fresh engine (caches persist across calls, so
  the split may not be measured with fresh engines per part).

Each measurement swaps in an empty process registry *before*
constructing the engine — codes cache their counter references at
construction time, so the swap isolates every example completely.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.swdecc import SwdEcc, TieBreak
from repro.ecc import canonical_secded_39_32
from repro.obs import metrics as obs_metrics
from repro.obs.energy import op_counts

_WORD_CODE = canonical_secded_39_32()


def _measure(drive, cache=True):
    """Run *drive(engine)* against a fresh registry + engine; return
    the op-counter totals it charged (a fresh code, too, so a cached
    engine's table build lands in this registry)."""
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_registry(registry)
    try:
        engine = SwdEcc(
            canonical_secded_39_32(),
            tie_break=TieBreak.FIRST,
            rng=random.Random(0),
            cache=cache,
        )
        drive(engine)
        return op_counts(registry)
    finally:
        obs_metrics.set_registry(previous)


def _due_words(specs):
    """Materialize (message, bit_a, bit_b) specs as 2-bit-DUE words."""
    words = []
    for message, bit_a, bit_b in specs:
        received = _WORD_CODE.encode(message)
        received ^= 1 << bit_a
        received ^= 1 << (bit_b if bit_b != bit_a else (bit_a + 1) % _WORD_CODE.n)
        words.append(received)
    return words


_SPEC = st.tuples(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=_WORD_CODE.n - 1),
    st.integers(min_value=0, max_value=_WORD_CODE.n - 1),
)


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(_SPEC, min_size=1, max_size=8))
def test_batch_charges_same_ops_as_serial(specs):
    words = _due_words(specs)
    batched = _measure(lambda engine: engine.recover_batch(words))
    serial = _measure(
        lambda engine: [engine.recover(word) for word in words]
    )
    assert batched == serial
    assert any(value > 0 for value in batched.values())


@settings(max_examples=25, deadline=None)
@given(
    specs=st.lists(_SPEC, min_size=2, max_size=8),
    split=st.integers(min_value=1, max_value=7),
)
def test_batch_boundaries_do_not_change_ops(specs, split):
    words = _due_words(specs)
    split = min(split, len(words) - 1)
    whole = _measure(lambda engine: engine.recover_batch(words))

    def in_two(engine):
        engine.recover_batch(words[:split])
        engine.recover_batch(words[split:])

    assert _measure(in_two) == whole


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(_SPEC, min_size=1, max_size=8))
def test_precompiled_batch_charges_same_ops_as_serial(specs):
    """The decode-table fast path keeps the same grouping invariance
    under an explicit shared context (decision rows are cached per
    context identity)."""
    from repro.core.sideinfo import RecoveryContext

    words = _due_words(specs)
    context = RecoveryContext()
    batched = _measure(lambda engine: engine.recover_batch(words, context))
    serial = _measure(
        lambda engine: [engine.recover(word, context) for word in words]
    )
    assert batched == serial
    assert any(value > 0 for value in batched.values())


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(_SPEC, min_size=1, max_size=8))
def test_precompiled_charges_reference_ops_minus_amortized_walk(specs):
    """Build is a one-time charge; serving matches the reference on
    every op except XOR, where the table legitimately charges *less*
    because the pair-mask walk was amortized into the build.

    Each word gets its own fresh context, so no decision row or
    filter/ranker entry is reused: both engines evaluate every
    candidate of every word, and the comparison isolates what the
    table itself changes.
    """
    from repro.core.sideinfo import RecoveryContext

    words = _due_words(specs)
    build_only = _measure(lambda engine: None)
    assert build_only["ops.xor"] > 0
    assert build_only["ops.candidate_enumerations"] == 0
    assert build_only["ops.filter_evals"] == 0
    assert build_only["ops.ranker_evals"] == 0

    def drive(engine):
        for word in words:
            engine.recover(word, RecoveryContext())

    precompiled = _measure(drive)
    reference = _measure(drive, cache=False)
    served = {
        op: total - build_only.get(op, 0)
        for op, total in precompiled.items()
    }
    assert served["ops.xor"] <= reference["ops.xor"]
    del served["ops.xor"], reference["ops.xor"]
    assert served == reference


def test_words_the_table_does_not_serve_charge_reference_ops():
    """A codeword, a 1-bit error and 3-bit DUEs (which escalate past
    radius 2) fall through the table to the reference path; beyond
    its one-time build, the cached engine then charges what a
    reference engine does, one syndrome compute per word included.
    Only XOR is lower: the radius-2 attempt reads the table instead
    of walking H."""
    from repro.ecc.code import DecodeStatus
    from repro.errors import DecodingError

    codeword = _WORD_CODE.encode(0x8FBF0018)
    words = [codeword, codeword ^ 1]
    rng = random.Random(5)
    while len(words) < 6:
        received = codeword
        for bit in rng.sample(range(_WORD_CODE.n), 3):
            received ^= 1 << bit
        if _WORD_CODE.decode(received).status is DecodeStatus.DUE:
            words.append(received)

    def drive(engine):
        for word in words:
            try:
                engine.recover(word)
            except DecodingError:
                pass

    build_only = _measure(lambda engine: None)
    cached = _measure(drive)
    served = {
        op: total - build_only.get(op, 0) for op, total in cached.items()
    }
    reference = _measure(drive, cache=False)
    # Each 3-bit DUE enumerates at radius 2, then again at radius 3.
    assert reference["ops.candidate_enumerations"] == 2 * 4
    assert served["ops.xor"] < reference["ops.xor"]
    del served["ops.xor"], reference["ops.xor"]
    assert served == reference
