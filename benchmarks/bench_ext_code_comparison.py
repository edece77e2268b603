"""Extension E3 — SECDED alternatives: (72, 64), DEC, and DECTED.

Sec. II-A frames DECTED/BCH as the costlier alternative to SECDED and
the paper's future work asks about other codes.  This bench compares:

- storage overhead and guarantees of (39,32) / (72,64) SECDED,
  (44,32) DEC, and (45,32) DECTED;
- SWD-ECC one level up: candidate enumeration for *3-bit* DUEs under
  DECTED (radius-3 list decoding), showing the trial-flip procedure
  generalises beyond the paper's exemplar.
"""

from __future__ import annotations

import random

from benchmarks.conftest import emit
from repro.analysis.heatmap import render_table
from repro.ecc.bch import dec_code, dected_code
from repro.ecc.candidates import CandidateEnumerator
from repro.ecc.decode_table import DecodeTable
from repro.ecc.hsiao import hsiao_72_64


def test_code_family_comparison(benchmark, code):
    def build_all():
        return {
            "SECDED (39,32)": code,
            "SECDED (72,64)": hsiao_72_64(),
            "DEC BCH (44,32)": dec_code(),
            "DECTED (45,32)": dected_code(),
        }

    codes = benchmark.pedantic(build_all, rounds=1, iterations=1)
    rows = []
    for name, c in codes.items():
        overhead = (c.n - c.k) / c.k
        # Verified minimum distance d gives the guaranteed detection of
        # a bounded-distance decoder: t corrected, d - 1 - t detected.
        d = 2
        while c.verify_minimum_distance(d + 1):
            d += 1
        t = c.correctable_bits()
        rows.append([
            name,
            f"{c.n - c.k} bits",
            f"{overhead:.1%}",
            t,
            d - 1 - t,
        ])
    emit(
        "Extension E3 | memory code family comparison",
        render_table(
            ["code", "redundancy", "overhead", "corrects", "detects"],
            rows,
        ),
    )
    # DECTED costs nearly twice the redundancy of SECDED at k = 32.
    assert codes["DECTED (45,32)"].r >= 13
    assert codes["SECDED (39,32)"].r == 7
    # Distance guarantees.
    assert codes["DEC BCH (44,32)"].verify_minimum_distance(5)
    assert codes["DECTED (45,32)"].verify_minimum_distance(6)


def test_dected_3bit_due_enumeration(benchmark, scale):
    """SWD-ECC's first requirement, one weight up: enumerate the
    equidistant candidates of 3-bit DUEs under DECTED."""
    code = dected_code()
    enumerator = CandidateEnumerator(code, DecodeTable.for_code(code))
    rng = random.Random(3)
    cases = []
    while len(cases) < (40 if scale.full else 12):
        codeword = code.encode(rng.getrandbits(32))
        positions = rng.sample(range(code.n), 3)
        received = codeword
        for position in positions:
            received ^= 1 << (code.n - 1 - position)
        cases.append((codeword, received))

    def enumerate_all():
        sizes = []
        hits = 0
        for codeword, received in cases:
            candidates = enumerator.candidates_within_radius(received, 3)
            sizes.append(len(candidates))
            hits += codeword in candidates
        return sizes, hits

    sizes, hits = benchmark.pedantic(enumerate_all, rounds=1, iterations=1)
    emit(
        "Extension E3 | DECTED 3-bit DUE candidate lists",
        render_table(
            ["quantity", "value"],
            [
                ["cases", len(cases)],
                ["true codeword recovered in list", hits],
                ["min candidates", min(sizes)],
                ["max candidates", max(sizes)],
                ["mean candidates", f"{sum(sizes) / len(sizes):.2f}"],
            ],
        ),
    )
    # The true codeword is always in the list, and DECTED's larger
    # distance keeps candidate lists far smaller than SECDED's ~12.
    assert hits == len(cases)
    assert max(sizes) < 12
