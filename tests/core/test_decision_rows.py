"""Decision rows: exact per-opcode keys and sharing across words.

The decode-table fast path caches one :class:`DecisionRow` per
(syndrome, row key, context).  The row key keeps the received
message's bits under the union of the selector-field masks of the
candidates' own opcodes, so two words whose candidates differ only in
bits no candidate's decoder reads share one row — and a shared row must
be exactly the row the word's own candidates would build.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sideinfo import RecoveryContext
from repro.core.swdecc import DecisionRow, PrecompiledResult, SwdEcc, TieBreak
from repro.ecc import canonical_secded_39_32
from repro.ecc.channel import double_bit_patterns
from repro.ecc.daec import daec_code
from repro.isa.decoder import (
    SELECTOR_FIELD_MASKS,
    selector_key,
    spec_for_selector_key,
)
from repro.program.stats import FrequencyTable
from repro.program.synth import synthesize_benchmark

SECDED = canonical_secded_39_32()
DAEC = daec_code()
CODES = {"secded-39-32": SECDED, "daec-41-32": DAEC}
PATTERNS = {
    name: tuple(pattern.vector for pattern in double_bit_patterns(code.n))
    for name, code in CODES.items()
}
IMAGE = synthesize_benchmark("mcf", length=512, seed=2016)
CONTEXT = RecoveryContext.for_instructions(FrequencyTable.from_image(IMAGE))
EMPTY_CONTEXT = RecoveryContext()

#: The register/shift fields (rs, rt, rd, shamt): outside the opcode
#: and funct fields, read only by some opcodes' decoders.
_REGISTER_FIELDS = 0x03FF_FFC0

#: One long-lived engine per code, so rows built by earlier examples
#: are served to later ones.
_ENGINES = {
    name: SwdEcc(code, tie_break=TieBreak.FIRST, rng=random.Random(0))
    for name, code in CODES.items()
}


def _own_row(engine: SwdEcc, entry, received_message: int, context):
    """The row *received_message*'s own candidates build: each spec
    decoded from ``selector_key(received_message ^ offset)``."""
    predicate = engine.filter_chain.spec_predicate()
    scorer = engine.ranker.spec_scorer()
    specs = [
        spec_for_selector_key(selector_key(received_message ^ offset))
        for offset in entry.offsets
    ]
    survivors = [
        (offset, spec)
        for offset, spec in zip(entry.offsets, specs)
        if predicate(spec)
    ]
    pool = survivors or list(zip(entry.offsets, specs))
    groups: dict[float, list[int]] = {}
    for offset, spec in pool:
        groups.setdefault(scorer(spec, context), []).append(offset)
    ranked = tuple(
        (score, tuple(groups[score]))
        for score in sorted(groups, reverse=True)
    )
    return ranked, not survivors, len(survivors), len(entry.offsets)


def _row_fields(row: DecisionRow):
    return row.ranked, row.fell_back, row.num_valid, row.num_candidates


def test_words_differing_in_unread_fields_share_one_row():
    """Two I-type DUE words that differ only in rs/rt, under a syndrome
    whose candidates are all I-type: one row build, one cache entry."""
    engine = SwdEcc(SECDED, tie_break=TieBreak.FIRST, rng=random.Random(0))
    reference = SwdEcc(
        SECDED, tie_break=TieBreak.FIRST, rng=random.Random(0), cache=False
    )
    first = 0x8FBF_0018  # lw $ra, 24($sp)
    second = first ^ (0x15 << 21) ^ (0x0A << 16)  # other rs and rt
    table = engine.decode_table
    pattern = None
    for candidate in PATTERNS["secded-39-32"]:
        entry = table.entry(SECDED.syndrome(candidate))
        if entry is not None and all(
            SELECTOR_FIELD_MASKS[(message ^ offset) >> 26] == 0xFC00_0000
            for message in (first, second)
            for offset in entry.offsets
        ):
            pattern = candidate
            break
    assert pattern is not None, "no all-I-type syndrome for lw"

    builds = []
    build = engine._build_decision_row

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    engine._build_decision_row = counting_build
    results = []
    for message in (first, second):
        received = SECDED.encode(message) ^ pattern
        result = engine.recover(received, CONTEXT)
        assert type(result) is PrecompiledResult
        assert result == reference.recover(received, CONTEXT)
        results.append(result)
    assert len(builds) == 1
    assert len(engine._row_cache.values_for(CONTEXT)) == 1
    assert results[0].decision_row is results[1].decision_row


def test_row_key_keeps_bits_a_candidate_decoder_reads():
    """Words whose candidates differ in a field some candidate's
    decoder reads (funct of a SPECIAL candidate) get separate rows."""
    engine = SwdEcc(SECDED, tie_break=TieBreak.FIRST, rng=random.Random(0))
    reference = SwdEcc(
        SECDED, tie_break=TieBreak.FIRST, rng=random.Random(0), cache=False
    )
    first = 0x0000_0020  # add $0, $0, $0 (SPECIAL, funct 0x20)
    second = 0x0000_0022  # sub: same opcode, different funct
    pattern = PATTERNS["secded-39-32"][-1]  # flips two check bits
    for message in (first, second):
        received = SECDED.encode(message) ^ pattern
        assert engine.recover(received, CONTEXT) == reference.recover(
            received, CONTEXT
        )
    assert len(engine._row_cache.values_for(CONTEXT)) == 2


@settings(max_examples=60, deadline=None)
@given(
    code_name=st.sampled_from(sorted(CODES)),
    message=st.integers(min_value=0, max_value=(1 << 32) - 1),
    noise=st.lists(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        min_size=1,
        max_size=4,
    ),
    pattern_index=st.integers(min_value=0, max_value=1 << 16),
    with_context=st.booleans(),
)
def test_served_row_equals_own_candidates_row(
    code_name, message, noise, pattern_index, with_context
):
    """Whoever built the row, it is the row this word's candidates
    would build — including words that differ from the first only in
    register fields, which share rows."""
    code = CODES[code_name]
    engine = _ENGINES[code_name]
    context = CONTEXT if with_context else EMPTY_CONTEXT
    patterns = PATTERNS[code_name]
    pattern = patterns[pattern_index % len(patterns)]
    entry = engine.decode_table.entry(code.syndrome(pattern))
    variants = [message] + [message ^ (n & _REGISTER_FIELDS) for n in noise]
    for variant in variants:
        received = code.encode(variant) ^ pattern
        result = engine.recover(received, context)
        assert type(result) is PrecompiledResult
        assert _row_fields(result.decision_row) == _own_row(
            engine, entry, result.received_message, context
        )
