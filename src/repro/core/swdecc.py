"""The SWD-ECC engine: enumerate -> filter -> rank -> choose.

This is the paper's primary contribution (Sec. III-B), assembled from
the substrates:

1. *Enumerate* the equidistant candidate codewords of the DUE with
   :class:`~repro.ecc.candidates.CandidateEnumerator` (cached engines
   read them from the code's shared
   :class:`~repro.ecc.decode_table.DecodeTable`);
2. *Filter* the candidate messages with hard side information
   (:mod:`repro.core.filters`), falling back to the unfiltered list if
   the filter rejects everything;
3. *Rank* the survivors with soft side information
   (:mod:`repro.core.rankers`);
4. *Choose* the top-ranked candidate, breaking ties randomly (the
   paper's policy) or deterministically.

SWD-ECC costs nothing when no DUE occurs: this engine is only invoked
on a word the hardware decoder has already flagged.
"""

from __future__ import annotations

import enum
import logging
import random
import time
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.cache import MAX_ENTRIES as _ROW_CACHE_MAX
from repro.core.cache import ContextCache
from repro.core.filters import CandidateFilter, FilterChain, InstructionLegalityFilter
from repro.core.rankers import CandidateRanker, FrequencyRanker
from repro.core.sideinfo import RecoveryContext
from repro.ecc.candidates import CandidateEnumerator
from repro.ecc.code import LinearBlockCode
from repro.ecc.decode_table import DecodeTable
from repro.errors import DecodingError, RecoveryError
from repro.isa.decoder import (
    SELECTOR_FIELD_MASKS,
    selector_key,
    spec_for_selector_key,
)
from repro.obs import events as obs_events
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import span

_log = obs_logging.get_logger("swdecc")

__all__ = [
    "TieBreak",
    "RecoveryResult",
    "PrecompiledResult",
    "DecisionRow",
    "SwdEcc",
    "success_probability",
]

#: The context used when a caller passes none.  One shared instance
#: (safe: contexts are frozen) keeps identity-keyed caches — filter,
#: ranker and decision rows — warm across context-less calls.
_NO_CONTEXT = RecoveryContext()


class TieBreak(enum.Enum):
    """How the engine resolves equal top scores."""

    RANDOM = "random"
    """Choose uniformly among the tied candidates (the paper's policy;
    explains the ~15% plateau for low-order-bit errors in Fig. 8)."""

    FIRST = "first"
    """Choose the numerically smallest tied candidate (deterministic)."""


@dataclass(frozen=True)
class RecoveryResult:
    """Full trace of one heuristic recovery attempt.

    Attributes
    ----------
    received:
        The DUE word as read from memory.
    candidates:
        All equidistant candidate codewords.
    candidate_messages:
        Their decoded k-bit messages (same order).
    valid_messages:
        The messages surviving the filter stage.
    filter_fell_back:
        True when filtering rejected everything and the engine reverted
        to the unfiltered candidates.
    scores:
        Ranker score per surviving message (same order as
        ``valid_messages``).
    chosen_message:
        The recovery target message.
    chosen_codeword:
        Its codeword.
    tied:
        Number of candidates sharing the winning score (1 = the ranker
        was decisive).
    """

    received: int
    candidates: tuple[int, ...]
    candidate_messages: tuple[int, ...]
    valid_messages: tuple[int, ...]
    filter_fell_back: bool
    scores: tuple[float, ...]
    chosen_message: int
    chosen_codeword: int
    tied: int

    @property
    def num_candidates(self) -> int:
        """Size of the unfiltered candidate list (Fig. 5a)."""
        return len(self.candidates)

    @property
    def num_valid(self) -> int:
        """Size of the filtered list (Fig. 5b)."""
        return len(self.valid_messages)

    def recovered(self, original_message: int) -> bool:
        """Did the attempt pick the true original message?"""
        return self.chosen_message == original_message


#: RecoveryResult fields, in declaration order (for the lazy variant's
#: equality/pickle downcast).
_RESULT_FIELDS = (
    "received",
    "candidates",
    "candidate_messages",
    "valid_messages",
    "filter_fell_back",
    "scores",
    "chosen_message",
    "chosen_codeword",
    "tied",
)


@dataclass(slots=True, eq=False)
class DecisionRow:
    """One shared recovery decision of the decode-table fast path.

    Filter verdicts and ranker scores are pure functions of a
    candidate's decoded spec, so every word whose candidates decode to
    the same specs — same syndrome, same bits under the syndrome's
    per-opcode selector mask, same context — reuses one row.  A row
    holds only what is shared; a word's own candidate messages are
    ``received_message ^ offset``.

    Attributes
    ----------
    ranked:
        ``((score, offsets), ...)``, best score first: the candidate
        offsets of the filtered pool (the whole candidate list on
        filter fallback) grouped by equal score, each group in pool
        order.  ``ranked[0][1]`` are the tied offsets.
    fell_back:
        True when the filter rejected every candidate.
    num_valid:
        Filter survivors (0 on fallback, as the DUE event records it).
    num_candidates:
        Size of the unfiltered candidate list.
    candidates_bucket / valid_bucket:
        Histogram bucket indices of ``num_candidates`` / ``num_valid``.
    template:
        Rendering state a response serializer may attach on first use
        (``None`` until then; see :func:`repro.service.api.render_result`).
    """

    ranked: tuple[tuple[float, tuple[int, ...]], ...]
    fell_back: bool
    num_valid: int
    num_candidates: int
    candidates_bucket: int
    valid_bucket: int
    template: object = None


class PrecompiledResult(RecoveryResult):
    """A :class:`RecoveryResult` whose tuple fields materialize lazily.

    The precompiled fast path decides the recovery from per-syndrome
    offsets and a shared :class:`DecisionRow` without ever building the
    candidate/score tuples; most callers (the service, sweeps driven by
    ``sweep_probabilities``) only read ``chosen_message``/
    ``chosen_codeword``, so the tuples are reconstructed on first
    access instead of per call.  Every field, once read, is
    bit-identical to the reference path's, and equality/hash/pickle
    interoperate with plain results.

    Besides the dataclass fields it carries ``received_message`` (the
    received word's message bits) and ``decision_row``, from which a
    serializer can render the ranked targets without the tuples.
    """

    def __getattr__(self, name: str):
        if name == "candidates":
            received = self.received
            value = tuple(
                sorted(received ^ mask for mask in self._entry.masks)
            )
        elif name == "candidate_messages":
            shift = self._shift
            value = tuple(codeword >> shift for codeword in self.candidates)
        elif name == "valid_messages":
            if self.filter_fell_back:
                value = self.candidate_messages
            else:
                valid_offsets = {
                    offset
                    for _, offsets in self.decision_row.ranked
                    for offset in offsets
                }
                received_message = self.received_message
                value = tuple(
                    message
                    for message in self.candidate_messages
                    if message ^ received_message in valid_offsets
                )
        elif name == "scores":
            score_of = {
                offset: score
                for score, offsets in self.decision_row.ranked
                for offset in offsets
            }
            received_message = self.received_message
            value = tuple(
                score_of[message ^ received_message]
                for message in self.valid_messages
            )
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value

    def _field_values(self) -> tuple:
        return tuple(getattr(self, name) for name in _RESULT_FIELDS)

    def __eq__(self, other: object):
        # The generated dataclass __eq__ requires identical classes;
        # interoperate with plain RecoveryResult in both directions
        # (reference __eq__ returns NotImplemented, Python reflects).
        if isinstance(other, RecoveryResult):
            return self._field_values() == tuple(
                getattr(other, name) for name in _RESULT_FIELDS
            )
        return NotImplemented

    def __hash__(self) -> int:
        # Matches the generated frozen-dataclass hash (field tuple).
        return hash(self._field_values())

    def __reduce__(self):
        # Pickle (and copy) as a fully materialized plain result: the
        # row holds table internals that must not cross process
        # boundaries, and receivers need no lazy machinery.
        return (RecoveryResult, self._field_values())


def _selector_key_mask(offsets: tuple[int, ...], opcode: int) -> int:
    """The received-message bits that decide every candidate's spec.

    A candidate message is ``received_message ^ offset``; its opcode is
    ``opcode ^ offset_opcode`` and its spec depends only on the bits
    under that opcode's :data:`SELECTOR_FIELD_MASKS` entry.  The union
    over the syndrome's offsets therefore keys a decision row exactly:
    two received messages with the same opcode that agree on these bits
    have candidates with identical specs, position by position.
    """
    mask = 0
    for offset in offsets:
        mask |= SELECTOR_FIELD_MASKS[opcode ^ ((offset >> 26) & 0x3F)]
    return mask


class SwdEcc:
    """Software-Defined ECC heuristic recovery engine.

    Parameters
    ----------
    code:
        The ECC code protecting the memory.
    filters:
        Hard-constraint filters; defaults to instruction legality (the
        paper's exemplar).  Pass an empty sequence for no filtering.
    ranker:
        Soft-preference ranker; defaults to mnemonic frequency.
    tie_break:
        Tie resolution policy (random by default, as in the paper).
    rng:
        RNG for random tie-breaking; supply a seeded instance for
        reproducible sweeps.
    cache:
        Read candidates from the code's shared decode table (see
        :meth:`precompile`) and cache filter verdicts, ranker scores
        and decision rows per context (default).  ``cache=False`` is
        the reference pipeline — every recovery enumerates, filters
        and ranks afresh — kept as the test oracle and the uncached
        baseline; a ranker supplied by the caller keeps whatever cache
        setting it was built with.
    """

    def __init__(
        self,
        code: LinearBlockCode,
        filters: Sequence[CandidateFilter] | None = None,
        ranker: CandidateRanker | None = None,
        tie_break: TieBreak = TieBreak.RANDOM,
        rng: random.Random | None = None,
        cache: bool = True,
    ) -> None:
        self._code = code
        if filters is None:
            filters = (InstructionLegalityFilter(),)
        self._filter = FilterChain(filters, cache=cache)
        self._ranker = ranker if ranker is not None else FrequencyRanker(cache=cache)
        self._tie_break = tie_break
        self._rng = rng if rng is not None else random.Random()
        # Metric objects are cached here so the per-recover() cost is a
        # couple of attribute reads and integer adds (counters are
        # default-on; see repro.obs).
        registry = obs_metrics.get_registry()
        self._event_log = obs_events.get_event_log()
        self._m_recoveries = registry.counter("swdecc.recoveries")
        self._m_ranker_evals = registry.counter(
            "ops.ranker_evals",
            help="Candidate messages scored by the ranker",
        )
        # The vectorized sweep path enumerates by per-message XORs
        # without going through the enumerator, so it charges the same
        # op classes itself (keeps sweep energy comparable to recover).
        self._m_ops_enum = registry.counter(
            "ops.candidate_enumerations",
            help="Candidate-codeword enumerations for DUEs",
        )
        self._m_ops_xor = registry.counter(
            "ops.xor", help="Modeled GF(2) XOR word operations"
        )
        self._m_fallbacks = registry.counter("swdecc.filter_fallbacks")
        self._m_escalations = registry.counter("swdecc.radius_escalations")
        self._m_ties = registry.counter("swdecc.tie_breaks")
        self._h_candidates = registry.histogram(
            "swdecc.candidates", buckets=obs_metrics.DEFAULT_COUNT_BUCKETS
        )
        self._h_valid = registry.histogram(
            "swdecc.valid_messages", buckets=obs_metrics.DEFAULT_COUNT_BUCKETS
        )
        # Decode-table fast-path state (see precompile()).
        self._m_ops_syndromes = registry.counter(
            "ops.syndrome_computes", help="Syndrome computations (H @ r)"
        )
        self._m_ops_filter = registry.counter(
            "ops.filter_evals",
            help="Candidate messages evaluated by the filter chain",
        )
        self._table: DecodeTable | None = None
        self._fast_hooks: tuple | None = None
        self._row_cache = ContextCache()
        #: ``(syndrome << 6) | opcode -> row-key mask``, filled on first
        #: use (see _selector_key_mask).
        self._key_masks: dict[int, int] = {}
        self._message_shift = code.n - code.k
        if cache:
            self.precompile()
        else:
            self._enumerator = CandidateEnumerator(code)

    @property
    def code(self) -> LinearBlockCode:
        """The underlying ECC code."""
        return self._code

    @property
    def precompiled(self) -> bool:
        """True once :meth:`precompile` has attached the decode table."""
        return self._table is not None

    @property
    def decode_table(self) -> DecodeTable | None:
        """The code's shared syndrome table, or ``None`` (reference)."""
        return self._table

    def precompile(self) -> DecodeTable:
        """Attach the code's shared decode table (idempotent).

        Called by the constructor of every cached engine.  Fetches the
        complete ``syndrome -> (flip masks, message offsets)`` mapping
        (see :meth:`DecodeTable.for_code`, which builds it once per
        code instance), serves the enumerator's pair masks from it, and
        — when the code, filter chain, and ranker all certify
        spec-local semantics — arms the single-word fast path that
        turns :meth:`recover` into syndrome XOR + table probe +
        (cached) rank + choose.

        The fast path stays bit-identical to the reference pipeline:
        ineligible configurations (exotic code subclasses, filters or
        rankers without spec hooks, k > 32 messages) simply keep the
        reference path, and eligible ones fall back word-by-word for
        non-double-bit cosets so radius escalation bypasses the table
        cleanly.
        """
        if self._table is not None:
            return self._table
        table = DecodeTable.for_code(self._code)
        self._enumerator = CandidateEnumerator(self._code, table)
        self._ce_syndromes = self._code.syndrome_to_position
        hooks = None
        if table.supports_fast_path and self._code.k <= 32:
            predicate = self._filter.spec_predicate()
            scorer = self._ranker.spec_scorer()
            if predicate is not None and scorer is not None:
                hooks = (predicate, scorer)
        self._table = table
        self._fast_hooks = hooks
        # Hot-loop snapshots: the fast path inlines the chunked
        # syndrome XOR and the entry probe to skip method dispatch.
        self._fast_chunks = table.chunks
        self._fast_entry_get = table.entries.get
        self._fast_word_bits = self._code.n
        return table

    @property
    def filter_chain(self) -> FilterChain:
        """The configured filter chain."""
        return self._filter

    @property
    def ranker(self) -> CandidateRanker:
        """The configured ranker."""
        return self._ranker

    def _candidates_with_escalation(self, received: int) -> tuple[int, ...]:
        """Distance-2 candidates, escalating one radius if none exist.

        The fast enumeration assumes the DUE came from a double-bit
        flip; an accumulated triple-bit error may sit at distance >= 3
        from every codeword, in which case we escalate to radius
        ``t + 2`` list decoding before giving up.
        """
        candidates = self._enumerator.candidates(received)
        if candidates:
            return candidates
        self._m_escalations.inc()
        radius = self._code.correctable_bits() + 2
        obs_logging.emit(
            _log, logging.DEBUG, "radius escalation",
            received=f"0x{received:x}", radius=radius,
        )
        candidates = self._enumerator.candidates_within_radius(received, radius)
        if not candidates:
            raise RecoveryError(
                f"word 0x{received:x} has no candidate codewords within "
                f"radius {radius}"
            )
        return candidates

    def recover(
        self, received: int, context: RecoveryContext | None = None
    ) -> RecoveryResult:
        """Heuristically recover from the DUE word *received*.

        Assumes a double-bit error first (the paper's model); if no
        codeword lies at distance 2 — an accumulated higher-weight
        error — the enumeration escalates one radius before giving up
        with :class:`~repro.errors.RecoveryError`.  Propagates
        :class:`~repro.errors.DecodingError` when *received* is not a
        DUE in the first place.

        A cached engine with a fast path (see :meth:`precompile`)
        serves clean 2-bit cosets straight from the decode table —
        bit-identical results, including tie-break RNG consumption, at a
        fraction of the cost — and runs the reference pipeline for
        everything else.  Under an active span collector every call
        records one ``swdecc.recover`` span; the reference pipeline
        nests its enumerate/filter/rank/choose stages inside it.
        """
        if context is None:
            context = _NO_CONTEXT
        if obs_trace._active is not None:
            return self._recover_traced(received, context)
        if self._fast_hooks is not None:
            result = self._recover_precompiled(received, context)
            if result is not None:
                return result
        return self._recover_reference(received, context)

    def _recover_traced(
        self, received: int, context: RecoveryContext
    ) -> RecoveryResult:
        """:meth:`recover` under an active span collector."""
        with span("swdecc.recover"):
            if self._fast_hooks is not None:
                result = self._recover_precompiled(received, context)
                if result is not None:
                    return result
            return self._recover_reference(received, context)

    def _recover_reference(
        self, received: int, context: RecoveryContext
    ) -> RecoveryResult:
        """The enumerate -> filter -> rank -> choose pipeline."""
        start_ns = time.perf_counter_ns()
        with span("swdecc.enumerate"):
            candidates = self._candidates_with_escalation(received)
            candidate_messages = tuple(
                self._code.extract_message(codeword)
                for codeword in candidates
            )
        with span("swdecc.filter"):
            valid_messages = self._filter.apply(candidate_messages, context)
        fell_back = not valid_messages
        if fell_back:
            # The side information's premise failed (e.g. the original
            # word was not a legal instruction): recover from the raw
            # candidate list rather than giving up.
            valid_messages = candidate_messages
        with span("swdecc.rank"):
            scores = tuple(
                self._ranker.score(message, context)
                for message in valid_messages
            )
        with span("swdecc.choose"):
            best_score = max(scores)
            tied_messages = [
                message
                for message, score in zip(valid_messages, scores)
                if score == best_score
            ]
            if len(tied_messages) == 1 or self._tie_break is TieBreak.FIRST:
                chosen_message = min(tied_messages)
            else:
                chosen_message = self._rng.choice(tied_messages)
            chosen_codeword = candidates[
                candidate_messages.index(chosen_message)
            ]
        latency_ns = time.perf_counter_ns() - start_ns
        num_valid = 0 if fell_back else len(valid_messages)
        self._m_recoveries.inc()
        self._m_ranker_evals.inc(len(scores))
        if fell_back:
            self._m_fallbacks.inc()
            obs_logging.emit(
                _log, logging.DEBUG, "filter fell back",
                received=f"0x{received:x}",
                candidates=len(candidates),
                latency_ns=latency_ns,
            )
        if len(tied_messages) > 1:
            self._m_ties.inc()
        self._h_candidates.observe(len(candidates))
        self._h_valid.observe(num_valid)
        self._event_log.record(
            obs_events.DueEvent(
                received=received,
                num_candidates=len(candidates),
                num_valid=num_valid,
                filter_fell_back=fell_back,
                chosen_message=chosen_message,
                chosen_codeword=chosen_codeword,
                tied=len(tied_messages),
                latency_ns=latency_ns,
            )
        )
        return RecoveryResult(
            received=received,
            candidates=candidates,
            candidate_messages=candidate_messages,
            valid_messages=tuple(valid_messages),
            filter_fell_back=fell_back,
            scores=scores,
            chosen_message=chosen_message,
            chosen_codeword=chosen_codeword,
            tied=len(tied_messages),
        )

    def _recover_precompiled(
        self, received: int, context: RecoveryContext
    ) -> RecoveryResult | None:
        """Serve one recovery from the decode table, or ``None``.

        Returns ``None`` when *received* is not a clean 2-bit coset —
        a non-DUE word, or a DUE with no table entry — handing it to
        the reference path untouched, which raises or escalates (and
        charges the syndrome once).  A word too wide for the code
        raises the reference path's :class:`~repro.errors.DecodingError`.

        Op accounting charges what the lookup actually performs — one
        syndrome compute, one enumeration, a handful of XORs, plus
        filter/ranker evaluations only when a decision row is built —
        with the table's own construction charged once at build time,
        so grouping recoveries differently never changes the totals.
        """
        start_ns = time.perf_counter_ns()
        # Inlined DecodeTable.syndrome_of: same range check (negative
        # words shift to -1, which is truthy), same message, then the
        # chunked XOR probes, without per-call method dispatch.
        if received >> self._fast_word_bits:
            raise DecodingError(
                f"received word 0x{received:x} does not fit in "
                f"{self._code.n} bits"
            )
        chunks = self._fast_chunks
        if len(chunks) == 3:
            # Unrolled for the 3-probe shape every n <= 39 code takes.
            (low0, mask0, chunk0), (low1, mask1, chunk1), (low2, mask2, chunk2) = chunks
            syndrome = (
                chunk0[(received >> low0) & mask0]
                ^ chunk1[(received >> low1) & mask1]
                ^ chunk2[(received >> low2) & mask2]
            )
        else:
            syndrome = 0
            for low, mask, chunk in chunks:
                syndrome ^= chunk[(received >> low) & mask]
        entry = self._fast_entry_get(syndrome)
        if entry is None or syndrome in self._ce_syndromes:
            # Not a clean 2-bit coset (a codeword, a correctable error,
            # or a DUE that escalates): the reference path recomputes
            # and charges the syndrome, then raises or escalates.
            return None
        self._m_ops_syndromes._value += 1
        received_message = received >> self._message_shift
        # The row key keeps exactly the received bits that decide the
        # candidates' specs: the selector fields, under each
        # candidate's own opcode, of the syndrome's offsets.
        opcode = received_message >> 26
        slot = (syndrome << 6) | opcode
        key_mask = self._key_masks.get(slot)
        if key_mask is None:
            key_mask = self._key_masks[slot] = _selector_key_mask(
                entry.offsets, opcode
            )
        base = received_message & key_mask
        # Inlined ContextCache.values_for: same generation and cap
        # checks, minus the method dispatch.
        row_cache = self._row_cache
        if (
            context is row_cache._context
            and len(row_cache._values) < _ROW_CACHE_MAX
        ):
            rows = row_cache._values
        else:
            rows = row_cache.values_for(context)
        row_key = (syndrome << 32) | base
        row = rows.get(row_key)
        if row is None:
            row = self._build_decision_row(entry, base, context)
            rows[row_key] = row
        tied_offsets = row.ranked[0][1]
        fell_back = row.fell_back
        tied = len(tied_offsets)
        if tied == 1:
            chosen_message = received_message ^ tied_offsets[0]
        elif self._tie_break is TieBreak.FIRST:
            chosen_message = min(
                [received_message ^ offset for offset in tied_offsets]
            )
        else:
            # Candidate messages are strictly increasing in candidate
            # order (distinct offsets, systematic extraction), so the
            # reference tie list is exactly this sorted list — one
            # rng.choice on an equal-length sequence consumes identical
            # RNG state and picks the identical element.
            chosen_message = self._rng.choice(
                sorted(received_message ^ offset for offset in tied_offsets)
            )
        chosen_codeword = received ^ entry.mask_by_offset[
            chosen_message ^ received_message
        ]
        latency_ns = time.perf_counter_ns() - start_ns
        num_candidates = row.num_candidates
        num_valid = row.num_valid
        # Counter.inc minus its non-negativity guard (these amounts are
        # constants >= 0), and Histogram.observe with the row's
        # precomputed bucket indices: the per-call bookkeeping storm is
        # a measurable slice of a ~5 us fast path.
        self._m_ops_enum._value += 1
        self._m_ops_xor._value += tied + 1
        self._m_recoveries._value += 1
        if fell_back:
            self._m_fallbacks.inc()
            obs_logging.emit(
                _log, logging.DEBUG, "filter fell back",
                received=f"0x{received:x}",
                candidates=num_candidates,
                latency_ns=latency_ns,
            )
        if tied > 1:
            self._m_ties._value += 1
        histogram = self._h_candidates
        histogram._bucket_counts[row.candidates_bucket] += 1
        histogram._count += 1
        histogram._sum += num_candidates
        if histogram._min is None or num_candidates < histogram._min:
            histogram._min = num_candidates
        if histogram._max is None or num_candidates > histogram._max:
            histogram._max = num_candidates
        histogram = self._h_valid
        histogram._bucket_counts[row.valid_bucket] += 1
        histogram._count += 1
        histogram._sum += num_valid
        if histogram._min is None or num_valid < histogram._min:
            histogram._min = num_valid
        if histogram._max is None or num_valid > histogram._max:
            histogram._max = num_valid
        # tuple.__new__ skips the namedtuple keyword/default wrapper;
        # the trailing None/None are DueEvent's address/true_message
        # defaults.
        self._event_log.record(
            tuple.__new__(
                obs_events.DueEvent,
                (
                    received, num_candidates, num_valid, fell_back,
                    chosen_message, chosen_codeword, tied, latency_ns,
                    None, None,
                ),
            )
        )
        result = PrecompiledResult.__new__(PrecompiledResult)
        result.__dict__ = {
            "received": received,
            "filter_fell_back": fell_back,
            "chosen_message": chosen_message,
            "chosen_codeword": chosen_codeword,
            "tied": tied,
            "received_message": received_message,
            "decision_row": row,
            "_shift": self._message_shift,
            "_entry": entry,
        }
        return result

    def _build_decision_row(
        self, entry, base: int, context: RecoveryContext
    ) -> DecisionRow:
        """Precompute one (syndrome, selector-class) decision row.

        Filter verdicts and ranker scores are pure functions of a
        candidate's decoded spec, and every candidate's spec is fixed
        by ``base`` (the received message under the syndrome's
        per-opcode selector mask) XOR the syndrome's message offsets —
        so the whole filter → fallback → rank → group-by-score pipeline
        runs once per (syndrome, base, context) and every later word in
        the class reuses the row.
        """
        predicate, scorer = self._fast_hooks
        offsets = entry.offsets
        specs = [
            spec_for_selector_key(selector_key(base ^ offset))
            for offset in offsets
        ]
        if self._filter.filters:
            self._m_ops_filter.inc(len(offsets))
        survivors = [
            (offset, spec)
            for offset, spec in zip(offsets, specs)
            if predicate(spec)
        ]
        fell_back = not survivors
        pool = list(zip(offsets, specs)) if fell_back else survivors
        self._m_ranker_evals.inc(len(pool))
        # Group by score value — the reference's tie test is score
        # equality — keeping pool order within each group.
        groups: dict[float, list[int]] = {}
        for offset, spec in pool:
            groups.setdefault(scorer(spec, context), []).append(offset)
        ranked = tuple(
            (score, tuple(group))
            for score, group in sorted(
                groups.items(), key=lambda item: item[0], reverse=True
            )
        )
        # Histogram observations on the fast path are row constants, so
        # their bucket indices are resolved here, once per row.
        num_candidates = len(offsets)
        num_valid = len(survivors)
        return DecisionRow(
            ranked,
            fell_back,
            num_valid,
            num_candidates,
            bisect_left(self._h_candidates.buckets, num_candidates),
            bisect_left(self._h_valid.buckets, num_valid),
        )

    def recover_batch(
        self,
        received_words: Sequence[int],
        context: RecoveryContext | None = None,
    ) -> list[RecoveryResult]:
        """Recover a batch of DUE words sharing one side-info context.

        The batch entry point the uncached sweep uses.  Results, and
        the op charges behind them, match word-by-word :meth:`recover`
        calls exactly.
        """
        if context is None:
            context = _NO_CONTEXT
        with span("swdecc.recover_batch"):
            return [self.recover(received, context) for received in received_words]

    def sweep_probabilities(
        self,
        messages: Sequence[int],
        error: int,
        context: RecoveryContext | None = None,
    ) -> list[tuple[float, int, int]]:
        """Exact per-message recovery stats for one error pattern.

        The pattern-vectorized fast path behind
        :class:`~repro.analysis.sweep.DueSweep` (see
        ``docs/performance.md``): every flip-pair mask of the pattern's
        syndrome satisfies ``H @ (error ^ mask) = 0``, so each
        ``error ^ mask`` is itself a codeword and, for a systematic
        code, the candidate *messages* of ``encode(m) ^ error`` are
        exactly ``m ^ (error >> r) ^ (mask >> r)`` — the decode table's
        per-syndrome offsets.  Per stored message, enumeration and
        extraction collapse into XORs; filtering and ranking run
        through their usual (cached) paths.  Patterns the table does
        not cover (non-DUE, escalating) and reference engines take the
        word-by-word path.

        Returns ``(success_probability, num_candidates, num_valid)``
        per message — ``num_valid`` is 0 when the filter fell back —
        bit-identical to recovering ``encode(m) ^ error`` with
        :meth:`recover` and scoring the trace with
        :func:`success_probability` under this engine's tie-break.
        Recovery counters and histograms advance as usual; per-DUE
        *events* are not recorded (an exhaustive sweep would only churn
        the bounded ring).
        """
        if context is None:
            context = _NO_CONTEXT
        if not messages:
            return []
        try:
            syndrome = self._enumerator._check_due(error)
        except DecodingError:
            return self._sweep_probabilities_slow(messages, error, context)
        # One candidates lookup per pattern, as recover() would count.
        self._enumerator.pair_masks(syndrome)
        table = self._table
        entry = (
            table.entry(syndrome)
            if table is not None and table.linear_extract else None
        )
        if entry is None:
            # No distance-2 candidates (the per-word path escalates),
            # or no table to vectorize from.
            return self._sweep_probabilities_slow(messages, error, context)
        error_message = error >> self._message_shift
        offsets = tuple(error_message ^ offset for offset in entry.offsets)
        self._m_ops_xor.inc(len(offsets))

        filter_chain = self._filter
        score_many = self._ranker.score_many
        tie_first = self._tie_break is TieBreak.FIRST
        num_candidates = len(offsets)
        stats: list[tuple[float, int, int]] = []
        fallbacks = 0
        tie_count = 0
        scored_total = 0
        h_candidates = self._h_candidates
        h_valid = self._h_valid
        for message in messages:
            candidate_messages = [message ^ offset for offset in offsets]
            valid = filter_chain.apply(candidate_messages, context)
            if valid:
                pool = valid
                num_valid = len(valid)
            else:
                pool = candidate_messages
                num_valid = 0
                fallbacks += 1
            scores = score_many(pool, context)
            scored_total += len(pool)
            best_score = max(scores)
            tied = [
                m for m, score in zip(pool, scores) if score == best_score
            ]
            if len(tied) > 1:
                tie_count += 1
            if message not in pool or message not in tied:
                probability = 0.0
            elif tie_first:
                probability = 1.0 if message == min(tied) else 0.0
            else:
                probability = 1.0 / len(tied)
            h_candidates.observe(num_candidates)
            h_valid.observe(num_valid)
            stats.append((probability, num_candidates, num_valid))
        self._m_recoveries.inc(len(messages))
        self._m_ranker_evals.inc(scored_total)
        self._m_ops_enum.inc(len(messages))
        self._m_ops_xor.inc(len(messages) * len(offsets))
        if fallbacks:
            self._m_fallbacks.inc(fallbacks)
            obs_logging.emit(
                _log, logging.DEBUG, "filter fell back (vectorized sweep)",
                error=f"0x{error:x}", count=fallbacks,
                messages=len(messages),
            )
        if tie_count:
            self._m_ties.inc(tie_count)
        return stats

    def _sweep_probabilities_slow(
        self,
        messages: Sequence[int],
        error: int,
        context: RecoveryContext,
    ) -> list[tuple[float, int, int]]:
        """Per-word reference path for :meth:`sweep_probabilities`.

        Used when the pattern is not a clean 2-bit DUE coset (so the
        per-word path can escalate or raise exactly as :meth:`recover`
        would), the engine has no decode table, or the code's message
        extraction is not the systematic shift.
        """
        code = self._code
        stats = []
        for message in messages:
            result = self.recover(code.encode(message) ^ error, context)
            stats.append((
                success_probability(result, message, self._tie_break),
                result.num_candidates,
                0 if result.filter_fell_back else result.num_valid,
            ))
        return stats

    def recovery_probability(
        self, received: int, original_message: int, context: RecoveryContext | None = None
    ) -> float:
        """Exact probability that :meth:`recover` returns the original.

        Computes the analytical success probability of the configured
        strategy — 1/|tied| when the original is among the top-scored
        candidates, else 0 — removing tie-break sampling noise from
        sweeps.  This is how the per-pattern success *rates* of Figs. 6
        and 8 are evaluated.
        """
        if context is None:
            context = _NO_CONTEXT
        candidates = self._candidates_with_escalation(received)
        candidate_messages = tuple(
            self._code.extract_message(codeword) for codeword in candidates
        )
        valid_messages = self._filter.apply(candidate_messages, context)
        if not valid_messages:
            valid_messages = candidate_messages
        if original_message not in valid_messages:
            return 0.0
        scores = [self._ranker.score(m, context) for m in valid_messages]
        self._m_ranker_evals.inc(len(scores))
        best_score = max(scores)
        tied = [
            message
            for message, score in zip(valid_messages, scores)
            if score == best_score
        ]
        if original_message not in tied:
            return 0.0
        if self._tie_break is TieBreak.FIRST:
            return 1.0 if original_message == min(tied) else 0.0
        return 1.0 / len(tied)


def success_probability(
    result: RecoveryResult,
    original_message: int,
    tie_break: TieBreak = TieBreak.RANDOM,
) -> float:
    """Exact success probability of an already-computed recovery trace.

    Equivalent to :meth:`SwdEcc.recovery_probability` but reusing the
    enumeration/filter/rank work captured in *result* — the sweep
    harness calls :meth:`SwdEcc.recover` once per DUE and derives the
    probability from the trace.
    """
    if original_message not in result.valid_messages:
        return 0.0
    best_score = max(result.scores)
    tied = [
        message
        for message, score in zip(result.valid_messages, result.scores)
        if score == best_score
    ]
    if original_message not in tied:
        return 0.0
    if tie_break is TieBreak.FIRST:
        return 1.0 if original_message == min(tied) else 0.0
    return 1.0 / len(tied)
