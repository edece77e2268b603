"""Property: the service's per-word renderer is byte-identical to the
reference serializer.

:func:`repro.service.api.render_result` formats table-served results
from their shared decision row's template; everything else goes through
:func:`~repro.service.api.result_payload`.  Either way its output must
equal ``json.dumps(result_payload(w, ref.recover(w, ctx)),
sort_keys=True)`` with ``ref`` the uncached reference engine — over the
fast-path codes (SEC-DED, SEC-DED-DAEC) and a reference-only code
(DEC), benchmark and empty contexts, filter-fallback words, and both
tie-break policies with identically seeded RNGs.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sideinfo import RecoveryContext
from repro.core.swdecc import PrecompiledResult, SwdEcc, TieBreak
from repro.ecc.channel import double_bit_patterns
from repro.errors import ReproError
from repro.service import api
from repro.service.api import RecoveryRequest, render_result, result_payload
from repro.service.catalog import ServiceCatalog
from repro.service.shards import BatchEngine

CATALOG = ServiceCatalog()
CODE_IDS = ("secded-39-32", "daec-41-32", "dec-44-32")
CONTEXTS = {
    "mcf": CATALOG.context("mcf"),
    "bzip2": CATALOG.context("bzip2"),
    "empty": RecoveryContext(),
}
#: Flips per generated word: a double-bit DUE for the SEC-DED family,
#: a triple for DEC (which corrects doubles).
FLIPS = {"secded-39-32": 2, "daec-41-32": 2, "dec-44-32": 3}

#: The register/shift fields (rs, rt, rd, shamt): varying them keeps
#: many words on one shared decision row.
_REGISTER_FIELDS = 0x03FF_FFC0


def _fallback_words(code_id: str, count: int = 4) -> list[int]:
    """DUE words whose candidates are all illegal (filter fallback)."""
    code = CATALOG.code(code_id)
    engine = SwdEcc(code, tie_break=TieBreak.FIRST, rng=random.Random(0))
    patterns = [pattern.vector for pattern in double_bit_patterns(code.n)]
    found: list[int] = []
    for message in range(1 << 12):
        for pattern in patterns[:40]:
            word = code.encode(message << 20) ^ pattern
            if engine.recover(word).filter_fell_back:
                found.append(word)
                break
        if len(found) == count:
            return found
    raise AssertionError(f"no filter-fallback words found for {code_id}")


FALLBACK_WORDS = {
    code_id: _fallback_words(code_id)
    for code_id in ("secded-39-32", "daec-41-32")
}


@st.composite
def _words(draw, code_id: str) -> list[int]:
    """A few received words: random DUEs, register-field variants of
    them (which share decision rows), and filter-fallback words."""
    code = CATALOG.code(code_id)
    words = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        message = draw(st.integers(min_value=0, max_value=(1 << 32) - 1))
        positions = draw(
            st.lists(
                st.integers(min_value=0, max_value=code.n - 1),
                min_size=FLIPS[code_id],
                max_size=FLIPS[code_id],
                unique=True,
            )
        )
        error = sum(1 << position for position in positions)
        noise = draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << 32) - 1),
                max_size=3,
            )
        )
        variants = [message] + [
            message ^ (n & _REGISTER_FIELDS) for n in noise
        ]
        words += [code.encode(variant) ^ error for variant in variants]
    if code_id in FALLBACK_WORDS and draw(st.booleans()):
        words.append(draw(st.sampled_from(FALLBACK_WORDS[code_id])))
    return words


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    code_id=st.sampled_from(CODE_IDS),
    context_id=st.sampled_from(sorted(CONTEXTS)),
    tie_break=st.sampled_from(list(TieBreak)),
    seed=st.integers(min_value=0, max_value=1 << 16),
)
def test_render_matches_reference_serializer(
    data, code_id, context_id, tie_break, seed
):
    code = CATALOG.code(code_id)
    context = CONTEXTS[context_id]
    fast = SwdEcc(code, tie_break=tie_break, rng=random.Random(seed))
    reference = SwdEcc(
        code, tie_break=tie_break, rng=random.Random(seed), cache=False
    )
    for word in data.draw(_words(code_id)):
        try:
            expected = json.dumps(
                result_payload(word, reference.recover(word, context)),
                sort_keys=True,
            )
        except ReproError as error:
            with pytest.raises(type(error)):
                fast.recover(word, context)
            continue
        assert render_result(word, fast.recover(word, context)) == expected
    # Identically seeded streams stay aligned through every tie.
    assert fast._rng.random() == reference._rng.random()


def test_table_served_words_render_from_their_row(monkeypatch):
    """First-wins results of a fast-path engine never reach the generic
    serializer, and the row keeps its template for later words."""
    code = CATALOG.code("secded-39-32")
    context = CONTEXTS["mcf"]
    engine = SwdEcc(code, tie_break=TieBreak.FIRST, rng=random.Random(0))
    reference = SwdEcc(
        code, tie_break=TieBreak.FIRST, rng=random.Random(0), cache=False
    )
    patterns = [pattern.vector for pattern in double_bit_patterns(code.n)]
    words = [
        code.encode(message) ^ pattern
        for message in (0x8FBF_0018, 0x2442_FFFF, 0x0000_0020)
        for pattern in patterns[::37]
    ] + FALLBACK_WORDS["secded-39-32"]
    expected = [
        json.dumps(
            result_payload(word, reference.recover(word, context)),
            sort_keys=True,
        )
        for word in words
    ]

    def unexpected(*args):
        raise AssertionError("table-served result used result_payload")

    monkeypatch.setattr(api, "result_payload", unexpected)
    for word, text in zip(words, expected):
        result = engine.recover(word, context)
        assert type(result) is PrecompiledResult
        assert render_result(word, result) == text
        assert result.decision_row.template


def test_batch_engine_fragments_match_reference():
    """Served fragments — recovered, fallback and error words — equal
    the reference serializer's bytes."""
    code = CATALOG.code("secded-39-32")
    context = CATALOG.context("mcf")
    reference = SwdEcc(
        code, tie_break=TieBreak.FIRST, rng=random.Random(0), cache=False
    )
    words = (
        code.encode(0x8FBF_0018) ^ 0b11,
        code.encode(0x8FBF_0018),  # clean codeword: not a DUE
        *FALLBACK_WORDS["secded-39-32"],
    )
    outcome = BatchEngine(ServiceCatalog()).execute(
        [RecoveryRequest(words=words, context_id="mcf")]
    )[0]
    for word, fragment in zip(words, outcome["fragments"]):
        try:
            payload = result_payload(word, reference.recover(word, context))
        except ReproError as error:
            payload = api.error_payload(word, error)
        assert fragment == json.dumps(payload, sort_keys=True)
