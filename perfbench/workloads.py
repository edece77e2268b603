"""Seeded workload inputs for the benchmark.

Every input is a pure function of the ``--seed`` argument: the programs
under test only ever see the words generated here.

- :class:`ColdPool` walks the ``(instruction, double-bit pattern)``
  pairs of the service catalog's own ``mcf`` image in a seeded order
  and yields each distinct DUE word at most once.
- :func:`hot_set` is the first 512 words of that walk; ``serve-hot``
  draws its requests from it, so every word repeats.
- :func:`sweep_sample` picks the Fig. 8 patterns the sweep's reference
  check re-runs uncached.
"""

from __future__ import annotations

import random
import threading

from repro.ecc.channel import double_bit_patterns
from repro.ecc.code import LinearBlockCode
from repro.program.synth import synthesize_benchmark
from repro.service.catalog import ServiceCatalog

#: The code and context every service request names.
CODE_ID = "secded-39-32"
CONTEXT_ID = "mcf"

#: Distinct words in the ``serve-hot`` working set.
HOT_WORDS = 512


def catalog_codewords(catalog: ServiceCatalog) -> list[int]:
    """The encoded distinct words of the catalog's ``mcf`` image.

    Uses the catalog's own synthesis knobs, so the pool is the image
    the service preloads, not a look-alike.
    """
    image = synthesize_benchmark(
        CONTEXT_ID, length=catalog.image_length, seed=catalog.seed
    )
    code = catalog.code(CODE_ID)
    return [code.encode(word) for word in dict.fromkeys(image.words)]


class ColdPool:
    """Distinct DUE words in a seeded random order, never repeating.

    The pool is every ``(instruction, double-bit pattern)`` pair of
    *codewords*; ``take`` draws pairs without replacement by a lazy
    Fisher-Yates shuffle (only drawn positions are stored), so the
    order is uniformly random for every seed without materialising a
    shuffled list.  Two pairs can still give the same word
    (``c1 ^ e1 == c2 ^ e2`` when ``c1 ^ c2`` is a weight-4 codeword),
    so a seen-set drops those repeats.

    ``take`` is thread-safe: the benchmark's client threads share one
    pool.
    """

    def __init__(self, code: LinearBlockCode, codewords: list[int],
                 seed: int) -> None:
        self._codewords = codewords
        self._patterns = [p.vector for p in double_bit_patterns(code.n)]
        self._size = len(codewords) * len(self._patterns)
        self._rng = random.Random(f"cold-pool:{seed}")
        self._drawn = 0
        self._moved: dict[int, int] = {}
        self._seen: set[int] = set()
        self._lock = threading.Lock()

    @property
    def size(self) -> int:
        """Number of (word, pattern) pairs in the pool."""
        return self._size

    def _draw(self) -> int:
        # Swap a random undrawn position into slot self._drawn.
        slot = self._drawn
        pick = self._rng.randrange(slot, self._size)
        moved = self._moved
        value = moved.get(pick, pick)
        moved[pick] = moved.pop(slot, slot)
        self._drawn += 1
        return value

    def take(self, count: int) -> list[int]:
        """The next *count* distinct DUE words (fewer once exhausted)."""
        per_word = len(self._patterns)
        out: list[int] = []
        with self._lock:
            while len(out) < count and self._drawn < self._size:
                word_index, pattern_index = divmod(self._draw(), per_word)
                word = (
                    self._codewords[word_index]
                    ^ self._patterns[pattern_index]
                )
                if word not in self._seen:
                    self._seen.add(word)
                    out.append(word)
        return out


def hot_set(pool: ColdPool) -> list[int]:
    """The fixed ``serve-hot`` working set: the pool's first words."""
    return pool.take(HOT_WORDS)


def sweep_sample(seed: int, patterns: int, per_image: int) -> list[int]:
    """Seeded, sorted pattern indexes re-checked on every Fig. 8 image."""
    rng = random.Random(f"sweep-sample:{seed}")
    return sorted(rng.sample(range(patterns), per_image))
