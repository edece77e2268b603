"""Syndrome decode tables: the DUE space, materialized once per code.

For a fixed (n, k) code the entire double-bit-DUE space is tiny — all
C(n, 2) column pairs of H map onto at most ``2^r`` distinct syndromes
(63 for the paper's (39, 32) SECDED code) — and both the flip-mask set
and the candidate *message offsets* of a DUE are pure functions of its
syndrome, never of the received word.  This module builds that whole
mapping once, eagerly:

- ``syndrome -> DecodeEntry`` with the flip masks (the same tuples, in
  the same order, as the reference walk
  :func:`repro.ecc.candidates.pair_walk`), the k-bit message offsets
  ``mask >> r``, and a reverse ``offset -> mask`` index so a chosen
  message maps back to its codeword in O(1);
- chunked syndrome lookup tables (``ceil(n / 13)`` tables of at most
  8192 entries) that turn the per-word ``H @ r`` multiply into a few
  list probes and XORs.

A table is a pure function of its code, so :meth:`DecodeTable.for_code`
shares one per code *instance* through a weak-keyed map: every cached
engine over that code reads the same table, and the table leaves with
its code.  It is deliberately not stored on the code object, which is
pickled to parallel-sweep workers.

Build cost is charged to the ``ops.*`` energy counters once, here, so
per-recovery charges on the fast path can reflect only the probes a
lookup actually performs while the op-accounting stays additive.

The engine-side single-word fast path additionally requires
:attr:`DecodeTable.supports_fast_path` — structural guards against
exotic code subclasses that override ``syndrome``/``extract_message``
and against codes whose DUE class is wider than double-bit errors.
"""

from __future__ import annotations

import sys
import threading
import time
import weakref

from repro.bits import bit_mask
from repro.ecc.candidates import pair_walk
from repro.ecc.code import LinearBlockCode
from repro.errors import DecodingError
from repro.obs import metrics as obs_metrics

__all__ = ["DecodeTable", "DecodeEntry"]

#: Width of each syndrome-lookup chunk; 13 keeps every chunk table at
#: most 8192 entries (~70 KiB of small ints for n = 39) while needing
#: only 3 probes per 39-bit word.
_CHUNK_BITS = 13

#: Words spot-checked against ``code.syndrome`` at build time.
_VERIFY_WORDS = 8

#: ``code -> DecodeTable``, one per live code instance (see
#: :meth:`DecodeTable.for_code`).  Tables reference their code only
#: weakly, so an entry dies with its code.
_SHARED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_SHARED_LOCK = threading.Lock()


class DecodeEntry:
    """One syndrome's precompiled candidate set."""

    __slots__ = ("syndrome", "masks", "offsets", "mask_by_offset")

    def __init__(self, syndrome: int, masks: tuple[int, ...], r: int) -> None:
        self.syndrome = syndrome
        #: Flip masks, in :func:`~repro.ecc.candidates.pair_walk` order.
        self.masks = masks
        #: Candidate message offsets ``mask >> r``, same order: the
        #: candidate messages of a received word are ``(received >> r)
        #: ^ offset`` for systematic codes.
        self.offsets = tuple(mask >> r for mask in masks)
        #: ``offset -> mask`` — recovers the chosen codeword as
        #: ``received ^ mask_by_offset[chosen_message ^ (received >> r)]``.
        self.mask_by_offset = dict(zip(self.offsets, masks))


class DecodeTable:
    """The complete syndrome→candidates decode table of one code.

    Building enumerates every unordered column pair of H once and
    materializes chunked syndrome tables, so a single-word
    ``recover()`` becomes syndrome XOR + table probe + (cached) rank +
    choose.  Engines obtain the shared instance through
    :meth:`for_code`; constructing one directly always builds afresh.
    Exported via ``repro.obs``:

    - ``decode_table.builds`` / ``decode_table.entries`` /
      ``decode_table.pair_masks`` / ``decode_table.resident_bytes``
      (counters, so shard-worker deltas ship to the parent registry);
    - ``decode_table.build_seconds`` (histogram).
    """

    def __init__(self, code: LinearBlockCode) -> None:
        start_ns = time.perf_counter_ns()
        self._code_ref = weakref.ref(code)
        n = code.n
        r = n - code.k
        self._n = n
        self._r = r
        self._word_mask = bit_mask(n)
        columns = code.column_syndromes
        syndrome_to_position = code.syndrome_to_position

        # --- syndrome -> flip masks: the reference walk, run once per
        # reachable syndrome.
        pair_syndromes: set[int] = set()
        for i in range(n):
            column_i = columns[i]
            for j in range(i + 1, n):
                pair_syndromes.add(column_i ^ columns[j])
        entries: dict[int, DecodeEntry] = {}
        num_pairs = 0
        for syndrome in pair_syndromes:
            masks = pair_walk(columns, syndrome_to_position, syndrome)
            if masks:
                entries[syndrome] = DecodeEntry(syndrome, masks, r)
                num_pairs += len(masks)
        self._entries = entries

        # --- chunked syndrome lookup: XOR of per-chunk partial
        # syndromes reproduces H @ r exactly (each table entry is the
        # XOR of the column syndromes of its set bits).
        chunks: list[tuple[int, int, list[int]]] = []
        chunk_xors = 0
        for low in range(0, n, _CHUNK_BITS):
            width = min(_CHUNK_BITS, n - low)
            table = [0] * (1 << width)
            for value in range(1, 1 << width):
                lsb_index = low + (value & -value).bit_length() - 1
                table[value] = (
                    table[value & (value - 1)] ^ columns[n - 1 - lsb_index]
                )
            chunk_xors += len(table) - 1
            chunks.append((low, bit_mask(width), table))
        self._chunks = tuple(chunks)

        # --- fast-path guards: the shift-based offsets and chunked
        # syndromes replicate the *base class* semantics, so a subclass
        # overriding either method gets the reference path, not a wrong
        # answer.
        self.linear_extract = (
            type(code).extract_message is LinearBlockCode.extract_message
        )
        exact_syndrome = type(code).syndrome is LinearBlockCode.syndrome
        if exact_syndrome:
            probe = 0x9E3779B97F4A7C15 & self._word_mask
            for _ in range(_VERIFY_WORDS):
                if self.syndrome_of(probe) != code.syndrome(probe):
                    exact_syndrome = False
                    break
                probe = (probe * 6364136223846793005 + 1442695040888963407) & self._word_mask
        self.exact_syndrome = exact_syndrome
        self.offsets_distinct = all(
            len(entry.mask_by_offset) == len(entry.offsets)
            for entry in entries.values()
        )
        # The table materializes exactly the radius-1 DUE cosets (pairs
        # of H columns).  An engine whose code corrects t >= 2 bits
        # (DEC/DECTED BCH) treats *triple*-bit patterns as its DUE
        # class, so serving it from 2-bit cosets would shadow the
        # wider enumeration — demote such codes to the reference path.
        self.radius_one = code.correctable_bits() == 1
        #: True when the engine may serve recoveries straight from this
        #: table; False falls back to the word-by-word reference path.
        self.supports_fast_path = (
            self.radius_one
            and self.linear_extract
            and self.exact_syndrome
            and self.offsets_distinct
        )

        self.num_syndromes = len(entries)
        self.num_pairs = num_pairs
        self.resident_bytes = self._measure_resident_bytes()
        self.build_seconds = (time.perf_counter_ns() - start_ns) / 1e9

        registry = obs_metrics.get_registry()
        registry.counter(
            "decode_table.builds", help="Syndrome decode tables built"
        ).inc()
        registry.counter(
            "decode_table.entries",
            help="Distinct DUE syndromes materialized across table builds",
        ).inc(self.num_syndromes)
        registry.counter(
            "decode_table.pair_masks",
            help="Flip-pair masks materialized across table builds",
        ).inc(self.num_pairs)
        registry.counter(
            "decode_table.resident_bytes",
            help="Approximate resident size of built decode tables",
        ).inc(self.resident_bytes)
        registry.histogram(
            "decode_table.build_seconds",
            help="Wall time to build one syndrome decode table",
        ).observe(self.build_seconds)
        # The whole pair enumeration and chunk-table precompute are
        # charged here, once; per-recovery fast-path charges then cover
        # only the probes a lookup actually performs (ops-additivity).
        registry.counter(
            "ops.xor", help="Modeled GF(2) XOR word operations"
        ).inc(len(pair_syndromes) * n + chunk_xors)

    @classmethod
    def for_code(cls, code: LinearBlockCode) -> "DecodeTable":
        """The shared table of *code*, built on first request.

        One build per code instance per process, however many engines
        use it; the build's metrics and op charges land in the registry
        active at that first request.
        """
        with _SHARED_LOCK:
            table = _SHARED.get(code)
            if table is None:
                table = cls(code)
                _SHARED[code] = table
            return table

    @property
    def code(self) -> LinearBlockCode | None:
        """The code this table was built for (``None`` once collected)."""
        return self._code_ref()

    @property
    def chunks(self) -> tuple[tuple[int, int, list[int]], ...]:
        """The ``(low_bit, chunk_mask, partial_syndromes)`` lookup
        chunks, for callers that inline the per-word XOR loop."""
        return self._chunks

    @property
    def entries(self) -> dict[int, DecodeEntry]:
        """The live ``syndrome -> DecodeEntry`` mapping (treat as
        read-only), for callers that inline the per-word probe."""
        return self._entries

    def _measure_resident_bytes(self) -> int:
        """Container-level size estimate of the materialized tables."""
        total = sys.getsizeof(self._entries)
        for entry in self._entries.values():
            total += (
                sys.getsizeof(entry.masks)
                + sys.getsizeof(entry.offsets)
                + sys.getsizeof(entry.mask_by_offset)
            )
            total += sum(sys.getsizeof(mask) for mask in entry.masks)
            total += sum(sys.getsizeof(offset) for offset in entry.offsets)
        for _, _, table in self._chunks:
            total += sys.getsizeof(table)
            total += sum(sys.getsizeof(value) for value in table)
        return total

    def syndrome_of(self, received: int) -> int:
        """The r-bit syndrome of *received*, by chunked table lookup.

        Matches ``code.syndrome`` bit-for-bit (the build spot-checks
        this) including the out-of-range :class:`DecodingError`.
        """
        if received < 0 or received > self._word_mask:
            raise DecodingError(
                f"received word 0x{received:x} does not fit in {self._n} bits"
            )
        syndrome = 0
        for low, mask, table in self._chunks:
            syndrome ^= table[(received >> low) & mask]
        return syndrome

    def entry(self, syndrome: int) -> DecodeEntry | None:
        """The precompiled entry for *syndrome*, or ``None`` when no
        column pair of H produces it (the radius-escalation case)."""
        return self._entries.get(syndrome)

    def pair_masks(self, syndrome: int) -> tuple[int, ...]:
        """What :func:`~repro.ecc.candidates.pair_walk` returns for
        *syndrome*, for *every* syndrome (an absent entry means no pair
        produces it, so the walk would find none)."""
        entry = self._entries.get(syndrome)
        return entry.masks if entry is not None else ()
