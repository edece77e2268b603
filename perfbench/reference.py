"""Reference checks: served and swept answers against the slow pipeline.

Service: every sampled word's served result must equal
``json.dumps(api.result_payload(w, ref.recover(w, ctx)), sort_keys=True)``
where ``ref`` is a fresh reference engine (no precompiled table, no
memo caches, first-wins ties) and ``ctx`` is the catalog's own ``mcf``
context.  Served results are compared after ``json.loads`` and the
same canonical ``json.dumps``, so the check is about content, not
whitespace.

Sweep: on a seeded sample of patterns, every image's outcome must
equal an uncached ``DueSweep(cache=False)`` run, bit for bit.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterable

from repro.analysis.experiments import default_code
from repro.analysis.sweep import DueSweep, RecoveryStrategy
from repro.core.swdecc import SwdEcc, TieBreak
from repro.ecc.channel import double_bit_patterns
from repro.errors import ReproError
from repro.program.image import ProgramImage
from repro.service import api
from repro.service.catalog import ServiceCatalog

from workloads import CODE_ID, CONTEXT_ID


class ServiceReference:
    """Expected per-word results from the reference pipeline."""

    def __init__(self) -> None:
        catalog = ServiceCatalog(precompile=False)
        self._context = catalog.context(CONTEXT_ID)
        self._engine = SwdEcc(catalog.code(CODE_ID),
                              tie_break=TieBreak.FIRST,
                              rng=random.Random(0), cache=False)
        self._expected: dict[int, str | None] = {}

    def expected(self, word: int) -> str | None:
        """Canonical JSON of the reference answer (``None``: no answer)."""
        if word not in self._expected:
            try:
                result = self._engine.recover(word, self._context)
            except ReproError:
                self._expected[word] = None
            else:
                self._expected[word] = json.dumps(
                    api.result_payload(word, result), sort_keys=True)
        return self._expected[word]

    def mismatches(self, served: Iterable[tuple[int, dict]]) -> tuple[int, int]:
        """(checked, mismatched) over (word, served result) pairs."""
        checked = mismatched = 0
        for word, result in served:
            checked += 1
            expected = self.expected(word)
            if expected is None or json.dumps(result,
                                              sort_keys=True) != expected:
                mismatched += 1
        return checked, mismatched


def served_words(samples: list[tuple[list[int], bytes]], limit: int,
                 seed: int) -> list[tuple[int, dict]]:
    """A seeded sample of at most *limit* (word, served result) pairs.

    A sampled request whose body is not a full answer contributes each
    of its words with an empty result, which never matches.
    """
    pairs: list[tuple[int, dict]] = []
    for words, body in samples:
        try:
            results = json.loads(body)["results"]
        except (ValueError, KeyError, TypeError):
            results = []
        if len(results) != len(words):
            results = [{}] * len(words)
        pairs.extend(zip(words, results))
    if len(pairs) > limit:
        pairs = random.Random(f"check:{seed}").sample(pairs, limit)
    return pairs


def sweep_mismatches(outcomes: dict[str, list[list]], indexes: list[int],
                     images: list[ProgramImage],
                     instructions: int) -> tuple[int, int]:
    """(checked, mismatched) pattern rows against ``DueSweep(cache=False)``.

    *outcomes* maps image name to ``[index, success_rate,
    mean_candidates, mean_valid]`` rows, as the sweep program reports
    them.  A missing image or row counts as a mismatch.
    """
    code = default_code()
    patterns = list(double_bit_patterns(code.n))
    chosen = [patterns[index] for index in indexes]
    checked = mismatched = 0
    for image in images:
        reference = DueSweep(code, RecoveryStrategy.FILTER_AND_RANK,
                             instructions, patterns=chosen,
                             cache=False).run(image)
        rows = {row[0]: row for row in outcomes.get(image.name, [])}
        for outcome in reference.outcomes:
            checked += 1
            expected = [outcome.index, outcome.success_rate,
                        outcome.mean_candidates, outcome.mean_valid]
            if rows.get(outcome.index) != expected:
                mismatched += 1
    return checked, mismatched
