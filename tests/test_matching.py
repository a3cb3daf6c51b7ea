"""Pair alphabet, matching analysis, and the exhaustive shift verifiers."""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from gasket_spectrum import matching
from gasket_spectrum.errors import DomainError, ResourceLimitError
from gasket_spectrum.matching import (
    OMEGA2,
    _first_witnesses,
    _shift_tests,
    analyze,
    b_blocks,
    block_word,
    e_seq,
    verify_bump_witnesses,
    verify_cross_scale,
    verify_shift_trichotomy,
    zip_seqs,
)
from gasket_spectrum.spectrum import zero_fraction
from gasket_spectrum.words import MAX_BLOCK_EXPONENT, Seq, dec_last, inc_last, reflect, tm_block

from helpers import (
    first_witnesses_scan,
    fold_chunks,
    four_block_b_blocks,
    four_block_bump_word,
    scalar_bump_witnesses,
    scan_pair,
)


def test_pair_alphabet_is_difference_set():
    expected = {(0, 0), (0, 1), (1, 0), (-1, 0), (-1, 1), (0, -1), (1, -1)}
    assert set(OMEGA2) == expected
    assert (1, 1) not in OMEGA2 and (-1, -1) not in OMEGA2


def test_zip_trivial():
    zeros = Seq((), (0,))
    assert zip_seqs(zeros, zeros) == Seq((), ((0, 0),))
    a, b = Seq((), (1, 0)), Seq((), (0, 1))
    assert zip_seqs(a, b) == Seq((), ((1, 0), (0, 1)))


def test_zip_period_lcm_and_preperiod_max():
    a = Seq((1,), (1, 0, -1, 0))
    b = Seq((), (0, 1, 0, -1, 1, 0))
    z = zip_seqs(a, b)
    # canonical form may shorten, but the raw pairing covers the lcm
    assert (len(a.period) * len(b.period)) // gcd(len(a.period), len(b.period)) == 12
    assert len(z.period) in (1, 2, 3, 4, 6, 12)
    for i in range(1, 30):
        assert z.digit(i) == (a.digit(i), b.digit(i))


def test_zip_refuses_a_pairing_past_the_word_cap():
    # Coprime prime periods pair into 1451 * 1453 = 2108303 > 2^21 digits.
    a, b = Seq((), (1,) + (0,) * 1450), Seq((), (1, -1) + (0,) * 1451)
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="periods of 1451 and 1453 digits needs "
                       "2108303 digits, beyond the cap 2097152"):
        zip_seqs(a, b)
    assert time.perf_counter() - started < 1


def test_analyze_all_zero():
    rep = analyze(Seq((), ((0, 0),)))
    assert rep.matched and rep.zero_pair_in_period
    assert rep.zero_pair_density == 1


def test_analyze_immediate_violation():
    rep = analyze(Seq((), ((1, 1),)))
    assert not rep.matched
    assert rep.first_violation_index == 1


def test_analyze_hand_paired_example():
    # scale-1 period shifted by two against itself pairs to
    # ((-1,1),(0,0),(1,-1),(0,0)) repeating
    s = e_seq(1, 1, 2)
    assert s == Seq((), ((-1, 1), (0, 0), (1, -1), (0, 0)))
    rep = analyze(s)
    assert rep.matched and rep.zero_pair_density == Fraction(1, 2)


def test_analyze_rejects_bad_pairs():
    with pytest.raises(DomainError):
        analyze(Seq((), ((2, 0),)))


def test_e_seq_bounds():
    with pytest.raises(DomainError):
        e_seq(0, 1, 0)
    with pytest.raises(DomainError):
        e_seq(1, 1, 4)


def test_e_seq_half_shift_matched_with_zero_pairs():
    for n in range(1, 11):
        rep = analyze(e_seq(n, n, 2 ** n))
        assert rep.matched and rep.zero_pair_in_period


def test_e_seq_cross_scale_unmatched():
    for i in range(1, 4):
        assert not analyze(e_seq(1, 2, i)).matched


def test_trichotomy_small_scales():
    for n in (1, 2, 3):
        rep = verify_shift_trichotomy(n)
        assert rep.passed
        assert rep.stats["shifts_checked"] == 2 ** (n + 1) - 1


def test_trichotomy_larger_scale():
    for n in (10, 12, 13):
        assert verify_shift_trichotomy(n).passed


def _assert_scan_matches_oracle(x, y):
    shifts = range(len(x))
    expected = [(i, *scan_pair(x, y, i)) for i in shifts]
    matched, has_zero_pair = _shift_tests(x, y)
    assert [(i, matched(i), has_zero_pair(i)) for i in shifts] == expected


def test_bitset_scan_matches_scalar_oracle():
    for n in range(1, 9):
        _assert_scan_matches_oracle(block_word(n), block_word(n))
    for m in range(2, 10):
        for n in range(1, m):
            _assert_scan_matches_oracle(block_word(n), block_word(m))
    rng = random.Random(31)
    for _ in range(40):
        x = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 12)))
        y = tuple(rng.choice((-1, 0, 1)) for _ in range(len(x) * rng.randint(1, 4)))
        _assert_scan_matches_oracle(x, y)


def _sparse_block_word(n: int) -> tuple:
    # Most digits zeroed and w[half] = w[0] = 1: odd shifts meet zero pairs,
    # sparse even shifts are matched, the half shift pairs (1,1) at 0.
    rng = random.Random(41)
    w = [d if rng.random() < 0.15 else 0 for d in block_word(n)]
    w[0] = w[2 ** n] = 1
    return tuple(w)


def _two_ones_word(n: int) -> tuple:
    # Only w[0] = w[half] = 1: every shift fails.
    w = [0] * 2 ** (n + 1)
    w[0] = w[2 ** n] = 1
    return tuple(w)


def _no_zero_word(n: int) -> tuple:
    # +1 then -1 halves: matched at the half shift but with no zero pair.
    return (1,) * 2 ** n + (-1,) * 2 ** n


@pytest.mark.parametrize("word, kinds", [
    (_sparse_block_word, {"matched-with-zero-pair", "no-zero-pair", "unmatched"}),
    (_two_ones_word, {"matched-with-zero-pair", "no-zero-pair", "unmatched"}),
    (_no_zero_word, {"matched-with-zero-pair"}),
])
def test_trichotomy_counterexamples_match_scalar_scan(monkeypatch, word, kinds):
    n = 5
    half = 2 ** n
    w = word(n)
    monkeypatch.setattr(matching, "block_word", lambda _n: w)
    expected = []
    for i in range(1, 2 ** (n + 1)):
        matched, haszero = scan_pair(w, w, i)
        if i == half:
            label, ok = "matched-with-zero-pair", matched and haszero
        elif i % 2:
            label, ok = "no-zero-pair", not haszero
        else:
            label, ok = "unmatched", not matched
        if not ok:
            expected.append({"i": i, "expected": label, "matched": matched,
                             "has_zero_pair": haszero})
    rep = verify_shift_trichotomy(n)
    assert not rep.passed
    assert rep.counterexamples == expected
    assert {c["expected"] for c in expected} == kinds


def _report_json(rep) -> str:
    return json.dumps(rep.to_json_dict(), sort_keys=True, default=str)


@pytest.mark.parametrize("variant", ["minus", "plain"])
def test_bump_reports_match_scalar_reference(variant):
    for n in range(3, 14):
        assert _report_json(verify_bump_witnesses(n, variant)) == \
            _report_json(scalar_bump_witnesses(n, variant))


@pytest.mark.parametrize("head", [8, matching.HEAD, 1 << 20])
def test_first_witnesses_match_scalar_oracle(monkeypatch, head):
    # HEAD only splits the work between the two phases; the answer is the same
    monkeypatch.setattr(matching, "HEAD", head)
    rng = random.Random(53)
    misses = 0
    for _ in range(60):
        lx = rng.randint(1, 150)
        zero = rng.choice((0.3, 0.8, 0.97))
        x, y = (tuple(0 if rng.random() < zero else rng.choice((-1, 1)) for _ in range(k))
                for k in (lx, 2 * lx))
        skip = rng.randint(1, 2 * lx - 1) if lx > 1 else 1
        got = _first_witnesses(x, y, skip)
        assert got == first_witnesses_scan(x, y, skip)
        misses += got.count(None)
    assert misses > 0


@pytest.mark.parametrize("skip", [10, 150])
def test_first_witnesses_ignore_a_hit_at_skip(skip):
    # x has one +1; y has +1 at skip, at 40 and at its last position. The shift
    # that aligns x's +1 with skip has no other hit, so it has no witness.
    lx = 100
    x = (1,) + (0,) * (lx - 1)
    y = [0] * (2 * lx)
    y[skip - 1] = y[39] = y[-1] = 1
    got = _first_witnesses(x, tuple(y), skip)
    assert got == first_witnesses_scan(x, tuple(y), skip)
    assert got[-(skip - 1) % lx] is None
    assert got[-39 % lx] == (40, 1)


def test_bump_no_witness_counterexamples_match_scalar_reference(monkeypatch):
    # Zeroing the bump word past its first quarter leaves shifts without a
    # witness, and moves the half-shift term off (-1,-1).
    real = matching._bump_word

    def sparse(n):
        y = real(n)
        return y[: len(y) // 4] + (0,) * (len(y) - len(y) // 4)
    monkeypatch.setattr(matching, "_bump_word", sparse)
    for n in (3, 6, 9):
        rep = verify_bump_witnesses(n, "minus")
        assert _report_json(rep) == _report_json(scalar_bump_witnesses(n, "minus"))
        reasons = {c["reason"] for c in rep.counterexamples}
        assert reasons == {"no witness position", "half-shift witness wrong"}
        assert rep.witnesses


def test_verify_reports_match_bench_pins():
    # The benchmark pins the digest of every verify report it runs; a byte
    # change in one fails here too. Keys read "<check> <args...>".
    pins = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected.json")
                      .read_text())["verify"]
    assert len(pins) == 11
    fns = {"3.1": verify_shift_trichotomy, "3.2": verify_bump_witnesses,
           "3.4": verify_cross_scale}
    for key, digest in pins.items():
        check, *args = key.split()
        rep = fns[check](*(int(a) if a.isdigit() else a for a in args))
        text = json.dumps(rep.to_json_dict(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, key


def test_bump_witnesses_minus_variant():
    rep = verify_bump_witnesses(3, "minus")
    assert rep.passed
    assert len(rep.witnesses) == 2 ** 4 - 1
    by_shift = {w["i"]: w for w in rep.witnesses}
    # half shift: first witness right after the excluded position, both digits -1
    assert by_shift[8]["u"] == 17 and by_shift[8]["term"] == [-1, -1]
    for w in rep.witnesses:
        assert 0 < w["u"] < 2 ** 5 and w["u"] != 2 ** 4


def test_bump_witnesses_plain_variant():
    assert verify_bump_witnesses(8, "plain").passed


def test_bump_witness_preconditions():
    with pytest.raises(DomainError):
        verify_bump_witnesses(2, "minus")
    with pytest.raises(DomainError, match="variant must be 'minus' or 'plain', not 'weird'"):
        verify_bump_witnesses(3, "weird")


def test_cross_scale_reports():
    assert verify_cross_scale(2, 2).passed
    assert verify_cross_scale(1, 2).passed
    assert verify_cross_scale(3, 7).passed
    assert verify_cross_scale(11, 12).passed
    with pytest.raises(DomainError):
        verify_cross_scale(3, 2)


def test_verifier_reports_do_not_share_lists():
    a = matching.VerifierReport("3.1", {}, True)
    b = matching.VerifierReport("3.1", {}, True)
    a.witnesses.append(1)
    a.counterexamples.append(2)
    a.stats["k"] = 3
    assert (b.witnesses, b.counterexamples, b.stats) == ([], [], {})


def test_b_blocks_small_case():
    b1, b2, b3, b4 = b_blocks(1)
    assert b1 == (1, 0, -1, 1, -1, 0, 1, -1)
    e = tm_block(1)
    assert b2 == e + inc_last(reflect(e)) + reflect(e) + e
    assert b3 == reflect(e) + dec_last(e) + e + inc_last(reflect(e))
    assert reflect(b1) == b3
    assert reflect(b2) == b4


def test_b_blocks_lengths_and_identity():
    for n in range(1, 9):
        blocks = b_blocks(n)
        assert all(len(b) == 2 ** (n + 2) for b in blocks)
        # the second block extends the calculus: it equals the block two scales up
        assert blocks[1] == tm_block(n + 2)
        assert blocks[0] == dec_last(tm_block(n + 2))


def test_bump_words_and_b_blocks_match_four_block_reference():
    for n in range(1, 13):
        assert b_blocks(n) == four_block_b_blocks(n), n
        assert matching._bump_word(n) == four_block_bump_word(n, "plain"), n


def test_b_blocks_past_the_block_cap_raise():
    for n in (MAX_BLOCK_EXPONENT - 1, MAX_BLOCK_EXPONENT):
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            b_blocks(n)


def test_fold_matches_chunk_reference():
    rng = random.Random(7)
    for _ in range(300):
        width = rng.randint(1, 40)
        mask = rng.getrandbits(width * rng.randint(1, 70))
        assert matching._fold(mask, width) == fold_chunks(mask, width), (mask, width)
    assert matching._fold(0, 5) == 0


def test_cross_scale_from_the_smallest_scale_is_fast():
    started = time.perf_counter()
    assert verify_cross_scale(1, 17).passed
    elapsed = time.perf_counter() - started
    assert elapsed < 0.5, f"verify_cross_scale(1, 17) took {elapsed:.2f}s"


def test_reflection_symmetry_of_matching():
    rng = random.Random(17)
    for _ in range(40):
        pre_a = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 2)))
        per_a = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 5)))
        per_b = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 5)))
        a, b = Seq(pre_a, per_a), Seq((), per_b)
        r = analyze(zip_seqs(a, b))
        r_reflected = analyze(zip_seqs(a.reflect(), b.reflect()))
        assert r.matched == r_reflected.matched
        assert r.zero_pair_density == r_reflected.zero_pair_density
        r_swapped = analyze(zip_seqs(b, a))
        assert r.matched == r_swapped.matched


def test_half_shift_density_equals_block_density():
    for n in range(1, 13):
        rep = analyze(e_seq(n, n, 2 ** n))
        assert rep.zero_pair_density == zero_fraction(tm_block(n))


def test_branch_against_raw_scan():
    # analyze must agree with a naive full-period scan
    rng = random.Random(23)
    for _ in range(30):
        per = tuple(
            (rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1)))
            for _ in range(rng.randint(1, 8))
        )
        s = Seq((), per)
        rep = analyze(s)
        naive_matched = all(p not in ((1, 1), (-1, -1)) for p in s.period)
        assert rep.matched == naive_matched


def test_block_word_shape():
    for n in range(1, 8):
        w = block_word(n)
        assert len(w) == 2 ** (n + 1)
        assert w[: 2 ** n] == tm_block(n)
        assert w[2 ** n:] == reflect(tm_block(n))
