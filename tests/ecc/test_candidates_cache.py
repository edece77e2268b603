"""Property tests: the decode table never changes enumeration.

A table-backed enumerator (the cached mode every default engine uses)
must be observationally identical to the reference enumerator that
walks H afresh — for every DUE, for both the distance-2 path and the
radius-escalation search — because every cached engine rests on that
equivalence (see ``docs/performance.md``).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.ecc.candidates import CandidateEnumerator  # noqa: E402
from repro.ecc.decode_table import DecodeTable  # noqa: E402
from repro.ecc.matrices import canonical_secded_39_32  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402

CODE = canonical_secded_39_32()
# One table-backed enumerator shared across examples — that is the
# point: its radius memo must never leak state between syndromes.
MEMOIZED = CandidateEnumerator(CODE, DecodeTable.for_code(CODE))

messages = st.integers(min_value=0, max_value=(1 << CODE.k) - 1)
positions = st.lists(
    st.integers(min_value=0, max_value=CODE.n - 1),
    min_size=2, max_size=2, unique=True,
)
triple_positions = st.lists(
    st.integers(min_value=0, max_value=CODE.n - 1),
    min_size=3, max_size=3, unique=True,
)


def _corrupt(message: int, error_positions: list[int]) -> int:
    received = CODE.encode(message)
    for position in error_positions:
        received ^= 1 << (CODE.n - 1 - position)
    return received


@settings(max_examples=50, deadline=None)
@given(message=messages, error=positions)
def test_memoized_candidates_equal_fresh_uncached(message, error):
    received = _corrupt(message, error)
    fresh = CandidateEnumerator(CODE)
    assert MEMOIZED.candidates(received) == fresh.candidates(received)
    assert (
        MEMOIZED.candidate_messages(received)
        == fresh.candidate_messages(received)
    )


@settings(max_examples=50, deadline=None)
@given(message=messages, error=positions)
def test_original_codeword_always_enumerated(message, error):
    received = _corrupt(message, error)
    assert CODE.encode(message) in MEMOIZED.candidates(received)


@settings(max_examples=25, deadline=None)
@given(message=messages, error=triple_positions)
def test_memoized_radius_search_equals_fresh_uncached(message, error):
    # A 3-bit error can sit at distance >= 3 from every codeword; the
    # escalated search must agree with the reference enumerator too.
    received = _corrupt(message, error)
    if CODE.syndrome(received) == 0:
        return  # the triple flip landed on a codeword; nothing to list
    fresh = CandidateEnumerator(CODE)
    radius = CODE.correctable_bits() + 2
    assert (
        MEMOIZED.candidates_within_radius(received, radius)
        == fresh.candidates_within_radius(received, radius)
    )


def test_cache_counters_advance_through_obs():
    registry = obs_metrics.MetricsRegistry()
    saved = obs_metrics.set_registry(registry)
    try:
        code = canonical_secded_39_32()
        enumerator = CandidateEnumerator(code, DecodeTable(code))
        received = _corrupt(0x12345678, [1, 4])
        enumerator.candidates(received)
        enumerator.candidates(received)
        enumerator.candidates(_corrupt(0x0, [1, 4]))  # same syndrome
        # Every table read is a hit; the walk was charged at build.
        assert registry.counter("candidates.cache_hits").value == 3
        assert registry.counter("candidates.cache_misses").value == 0
    finally:
        obs_metrics.set_registry(saved)


def test_uncached_enumerator_reports_misses_only():
    registry = obs_metrics.MetricsRegistry()
    saved = obs_metrics.set_registry(registry)
    try:
        enumerator = CandidateEnumerator(CODE)
        received = _corrupt(0xDEADBEEF, [2, 7])
        enumerator.candidates(received)
        enumerator.candidates(received)
        assert registry.counter("candidates.cache_hits").value == 0
        assert registry.counter("candidates.cache_misses").value == 2
    finally:
        obs_metrics.set_registry(saved)
