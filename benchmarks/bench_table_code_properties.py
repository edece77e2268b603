"""Sec. IV-B code-properties table for the (39, 32) SECDED code.

Paper claims reproduced here: distance exactly 4 (corrects all 1-bit
errors, detects all 2-bit errors), 741 double-bit patterns with 8-15
candidate codewords (mean ~12).  Also times the two hot kernels of the
evaluation pipeline — syndrome decoding and candidate enumeration.
"""

from __future__ import annotations

import random

from benchmarks.conftest import emit
from repro.analysis.experiments import run_code_properties
from repro.ecc.candidates import CandidateEnumerator
from repro.ecc.decode_table import DecodeTable


def test_code_properties(benchmark, code):
    result = benchmark.pedantic(run_code_properties, args=(code,), rounds=1, iterations=1)
    emit("Sec. IV-B | (39,32) SECDED properties", result.render())
    assert result.distance_at_least_4
    assert not result.distance_at_least_5
    assert result.profile.minimum == 8
    assert result.profile.maximum == 15


def test_triple_error_miscorrection(benchmark, code):
    """Beyond the paper: how SECDED treats the errors SWD-ECC's 2-bit
    assumption does not cover.  A majority of weight-3 errors are
    silently miscorrected by the hardware itself — context for why the
    BSC-conditioned double-bit model is the right regime for heuristic
    recovery."""
    from math import comb

    from repro.analysis.heatmap import render_table
    from repro.analysis.theory import triple_error_outcomes

    outcomes = benchmark.pedantic(
        triple_error_outcomes, args=(code,), rounds=1, iterations=1
    )
    total = outcomes["miscorrected"] + outcomes["detected"]
    emit(
        "Weight-3 error behaviour of (39,32) SECDED",
        render_table(
            ["outcome", "patterns", "fraction"],
            [
                ["silently miscorrected by hardware",
                 outcomes["miscorrected"],
                 f"{outcomes['miscorrected'] / total:.1%}"],
                ["detected as DUE (true word outside candidate list)",
                 outcomes["detected"],
                 f"{outcomes['detected'] / total:.1%}"],
            ],
        ),
    )
    assert total == comb(39, 3)
    # The classic truncated-Hamming behaviour: most triples miscorrect.
    assert 0.4 <= outcomes["miscorrected"] / total <= 0.8


def test_syndrome_decode_throughput(benchmark, code):
    rng = random.Random(0)
    words = [code.encode(rng.getrandbits(32)) for _ in range(512)]

    def decode_all() -> int:
        clean = 0
        for word in words:
            if code.decode(word).is_clean:
                clean += 1
        return clean

    assert benchmark(decode_all) == len(words)


def test_candidate_enumeration_throughput(benchmark, code):
    enumerator = CandidateEnumerator(code, DecodeTable.for_code(code))
    rng = random.Random(1)
    received_words = []
    while len(received_words) < 256:
        word = code.encode(rng.getrandbits(32))
        i, j = rng.sample(range(code.n), 2)
        received_words.append(word ^ (1 << (38 - i)) ^ (1 << (38 - j)))

    def enumerate_all() -> int:
        total = 0
        for received in received_words:
            total += len(enumerator.candidates(received))
        return total

    total = benchmark(enumerate_all)
    assert total / len(received_words) > 8
