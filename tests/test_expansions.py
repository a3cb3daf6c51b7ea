"""Evaluation, greedy expansion, quasi-greedy digits, and uniqueness."""

from __future__ import annotations

import io
import random
import time
from fractions import Fraction

import pytest

from gasket_spectrum import bases, expansions
from gasket_spectrum.errors import DomainError, PrecisionError
from gasket_spectrum.expansions import (
    KLTailDescriptor,
    catalogue_tail,
    evaluate,
    evaluate_exact,
    find_unique_with_tail,
    greedy_expand,
    is_unique_expansion,
    kl_tail,
    quasi_greedy_alpha,
    uniqueness_verdict,
)
from gasket_spectrum.words import Seq, block_word, reflect, tm_block

from helpers import (
    band_midpoint,
    fraction_alpha,
    fraction_greedy_expand,
    lex_largest_prefix_bruteforce,
    partial_sum,
    residual_unique,
    seq_uniqueness_verdict,
    seq_value,
)


def test_evaluate_trivial_values():
    q = Fraction(5, 2)
    assert evaluate_exact(Seq((), (0,)), q) == 0
    assert evaluate_exact(Seq((), (1,)), q) == Fraction(1) / (q - 1)
    assert evaluate_exact(Seq((), (-1,)), q) == -Fraction(1) / (q - 1)


def test_evaluate_matches_partial_summation():
    q = Fraction(5, 2)
    s = Seq((), (1, 0, -1, 0))
    closed = evaluate_exact(s, q)
    approx = partial_sum(s, q, 100)
    assert abs(float(closed) - float(approx)) < 1e-12
    assert closed == (q ** 3 - q) / (q ** 4 - 1)


def test_evaluate_random_against_summation():
    rng = random.Random(5)
    for _ in range(30):
        q = Fraction(rng.randint(2001, 2999), 1000)
        pre = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 3)))
        per = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 5)))
        s = Seq(pre, per)
        exact = evaluate_exact(s, q)
        assert abs(exact - partial_sum(s, q, 200)) < Fraction(1, 10 ** 25)


def test_evaluate_exact_takes_any_rational_base():
    s = Seq((1, -1), (1, 0, -1, 0))
    assert evaluate_exact(s, 2.5) == evaluate_exact(s, 5 / 2) == evaluate_exact(s, Fraction(5, 2))
    assert evaluate_exact(s, 3) == evaluate_exact(s, Fraction(3))


def test_evaluate_float_wrapper():
    assert evaluate(Seq((), (0,)), "2.5") == 0.0
    with pytest.raises(DomainError):
        evaluate(Seq((), (1,)), "3.2")


def test_greedy_trivial_points():
    q = Fraction("2.5")
    assert greedy_expand(Fraction(0), q, 10) == (0,) * 10
    assert greedy_expand(Fraction(1) / (q - 1), q, 10) == (1,) * 10
    assert greedy_expand(-Fraction(1) / (q - 1), q, 10) == (-1,) * 10


def test_greedy_reproduces_periodic_example():
    q = Fraction("2.6")
    x = evaluate_exact(Seq((), (1, 0, -1, 0)), q)
    assert greedy_expand(x, q, 8) == (1, 0, -1, 0, 1, 0, -1, 0)


def test_greedy_is_lexicographically_largest():
    rng = random.Random(7)
    for _ in range(12):
        q = Fraction(rng.randint(21, 29), 10)
        bound = Fraction(1) / (q - 1)
        x = Fraction(rng.randint(-1000, 1000), 1017) * bound
        got = greedy_expand(x, q, 7)
        assert got == lex_largest_prefix_bruteforce(x, q, 7)


def test_greedy_truncation_bound_two_sided():
    # The deficit may take either sign for bases above 2; its magnitude is
    # bounded by the representable tail size.
    rng = random.Random(13)
    for _ in range(1000):
        q = Fraction(rng.randint(2001, 2999), 1000)
        bound = Fraction(1) / (q - 1)
        x = Fraction(rng.randint(-10 ** 6, 10 ** 6), 10 ** 6) * bound
        depth = rng.randint(1, 24)
        digits = greedy_expand(x, q, depth)
        partial = sum(d * q ** -(i + 1) for i, d in enumerate(digits))
        assert abs(x - partial) <= q ** -depth * bound


def test_greedy_domain_checks():
    q = Fraction("2.5")
    with pytest.raises(DomainError):
        greedy_expand(Fraction(9, 10), q, 4)  # outside the representable interval
    with pytest.raises(DomainError):
        greedy_expand(Fraction(0), q, -1)


def test_alpha_at_second_root_is_two_zero_cycle():
    alpha = quasi_greedy_alpha(bases.base_root(2), 8)
    assert alpha == (2, 0, 2, 0, 2, 0, 2, 0)


def test_alpha_leading_digit():
    assert quasi_greedy_alpha("2.9", 1) == (2,)
    assert quasi_greedy_alpha("2.05", 1) == (2,)


def test_alpha_sums_to_one():
    for q_text in ("2.3", "2.45", "2.8"):
        q = Fraction(q_text)
        digits = quasi_greedy_alpha(q, 60)
        total = sum(d * q ** -(i + 1) for i, d in enumerate(digits))
        assert 1 - 10 * q ** -60 < total <= 1


def test_alpha_at_kl_is_shifted_difference_sequence():
    from gasket_spectrum.words import tm_diff
    for depth in (1, 32, 1000, 4097):  # 1000 and 4097 cross block boundaries
        alpha = quasi_greedy_alpha(bases.kl_constant(), depth)
        assert alpha == tuple(tm_diff(i) + 1 for i in range(1, depth + 1))


LONG_DECIMAL = "2.5359123456789012345678901234567890123453552"


def _near_kl(k: int) -> Fraction:
    return bases.kl_constant().hi + Fraction(1, 10 ** k)


def test_alpha_integer_recursion_matches_fraction_reference():
    rng = random.Random(1960)
    qs = [Fraction(rng.randint(2001, 2999), 1000) for _ in range(25)]
    qs += [Fraction(rng.randint(2 * 10 ** 9 + 1, 3 * 10 ** 9 - 1), 10 ** 9) for _ in range(25)]
    qs.append(_near_kl(20))
    for q in qs:
        assert quasi_greedy_alpha(q, 300) == fraction_alpha(q, 300), q
    # just above KL alpha follows the Thue-Morse digits for a long prefix
    for q in [_near_kl(k) for k in (6, 40, 150)] + [Fraction(LONG_DECIMAL)]:
        assert quasi_greedy_alpha(q, 512) == fraction_alpha(q, 512), q


def test_fixed_point_run_raises_its_precision():
    # 8 bits certify only a few digits, so the run restarts with 16, 32, ...
    # bits until every digit is certified, and still matches the reference.
    q = _near_kl(40)
    x = Fraction(-3, 10)
    for start, n, want in ((1, 256, fraction_alpha(q, 256)),
                           (x + 1 / (q - 1), 200, [d + 1 for d in fraction_greedy_expand(x, q, 200)])):
        short = expansions._fixed_point_digits(q.numerator, q.denominator, start, n, 8)
        assert 0 < len(short) < 16 and short == bytes(want[:len(short)])
        assert expansions._digit_run(q, start, n, bits=8) == bytes(want)


def test_greedy_matches_fraction_reference_at_long_bases():
    # Large denominators run the fixed-point residual. At x = 1/q - 1/(q-1),
    # q u is the integer 1, which straddles at every precision and falls back
    # to the exact run; at x = -1/(q-1), u = 0 and both ends clamp to digit 0.
    rng = random.Random(2009)
    qs = [_near_kl(40), Fraction(LONG_DECIMAL), Fraction(rng.randint(2 * 10 ** 9, 3 * 10 ** 9), 10 ** 9)]
    for q in qs:
        bound = 1 / (q - 1)
        xs = [Fraction(3, 10), 1 / q - bound, -bound, bound, Fraction(0)]
        xs += [Fraction(rng.randint(-10 ** 6, 10 ** 6), 10 ** 6) * bound for _ in range(2)]
        xs.append(Fraction(rng.uniform(-0.6, 0.6)))  # a float's binary fraction
        for x in xs:
            for depth in (0, 1, 160):
                assert greedy_expand(x, q, depth) == fraction_greedy_expand(x, q, depth), (q, x, depth)


def test_long_alpha_prefix_near_kl_is_fast():
    q = _near_kl(40)
    expansions._longest_alpha.cache_clear()
    started = time.perf_counter()
    digits = expansions.alpha_prefix(bases.BaseValue(q, q), 4096)
    elapsed = time.perf_counter() - started
    assert len(digits) == 4096
    assert elapsed < 2.0, f"4096 alpha digits at KL + 1e-40 took {elapsed:.2f}s"


def test_deep_expand_command_is_fast():
    from gasket_spectrum.cli import run
    out = io.StringIO()
    started = time.perf_counter()
    code = run(["expand", "--q", LONG_DECIMAL, "--x=0.3", "--depth", "4096"], out)
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 2.0, f"expand at depth 4096 took {elapsed:.2f}s"


def test_alpha_past_the_horizon_is_not_recomputed(monkeypatch):
    b = bases.BaseValue(Fraction(5, 2), Fraction(5, 2))
    assert len(expansions.alpha_prefix(b, expansions.ALPHA_HORIZON + 1)) == expansions.ALPHA_HORIZON
    monkeypatch.setattr(expansions, "_digit_run", lambda *args: pytest.fail("alpha was recomputed"))
    assert len(expansions.alpha_prefix(b, expansions.ALPHA_HORIZON + 2)) == expansions.ALPHA_HORIZON


def test_shorter_alpha_read_slices_the_longest_prefix(monkeypatch):
    # The longest prefix read at a base serves every shorter read.
    q = Fraction("2.4321")
    expansions._longest_alpha.cache_clear()
    runs = []
    fixed_point_digits = expansions._fixed_point_digits
    monkeypatch.setattr(expansions, "_fixed_point_digits",
                        lambda *args: runs.append(args) or fixed_point_digits(*args))
    long = quasi_greedy_alpha(q, 4096)
    assert runs
    ran = len(runs)
    assert quasi_greedy_alpha(q, 300) == long[:300] == fraction_alpha(q, 300)
    assert quasi_greedy_alpha(q, 4096) == long
    assert len(runs) == ran


def test_alpha_period_is_cached_by_ladder_index_only():
    # Untagged bases leave no entry, so they cannot evict a tagged period,
    # which is built once per ladder index.
    expansions._ladder_alpha_period.cache_clear()
    for k in range(1, 301):
        assert expansions.alpha_period(bases.as_base_value(2 + Fraction(k, 301))) is None
    assert expansions._ladder_alpha_period.cache_info().currsize == 0
    q5 = bases.base_root(5)
    period = expansions.alpha_period(q5)
    assert period == bytes(d + 1 for d in tm_block(4)[:-1]) + bytes([tm_block(4)[-1]])
    assert expansions.alpha_period(bases.BaseValue(q5.lo, q5.hi, ladder_index=5)) is period
    assert expansions._ladder_alpha_period.cache_info().currsize == 1
    with pytest.raises(DomainError, match="q = 2 is not a working base"):
        expansions.alpha_period(bases.base_root(1))


def test_alpha_increasing_in_q():
    a = quasi_greedy_alpha(Fraction("2.3"), 40)
    b = quasi_greedy_alpha(Fraction("2.6"), 40)
    assert a < b


def test_alpha_enclosure_gives_certified_digits_then_raises():
    b = bases.BaseValue(Fraction("2.45"), Fraction("2.46"))
    lo = quasi_greedy_alpha(Fraction("2.45"), 64)
    hi = quasi_greedy_alpha(Fraction("2.46"), 64)
    agree = 0
    while agree < 64 and lo[agree] == hi[agree]:
        agree += 1
    assert 0 < agree < 64
    assert quasi_greedy_alpha(b, agree) == lo[:agree]
    assert expansions.alpha_prefix(b, 64) == bytes(lo[:agree])
    with pytest.raises(PrecisionError, match=f"alpha digit {agree + 1} is not determined"):
        quasi_greedy_alpha(b, agree + 1)


def test_uniqueness_at_tagged_ladder_point():
    # At the root itself the matching periodic tail ties with alpha exactly
    # (the equality branch of the comparison), so it is not yet unique; the
    # tail one scale down already is.
    q3 = bases.base_root(3)
    assert not is_unique_expansion(catalogue_tail(2), q3)
    assert is_unique_expansion(catalogue_tail(1), q3)


def test_catalogue_tail_repeats_the_block_word():
    assert catalogue_tail(0) == Seq((), (0,))
    for n in range(1, 12):
        assert catalogue_tail(n) == Seq((), block_word(n - 1)), n


def test_uniqueness_constant_sequences():
    for q_text in ("2.05", "2.45", "2.9"):
        for per in ((1,), (-1,), (0,)):
            assert is_unique_expansion(Seq((), per), Fraction(q_text))


def test_uniqueness_tail_thresholds():
    # Periodic block tails switch on strictly above the ladder root two
    # scales up: at band midpoints the top catalogue entry is not yet unique.
    q_mid_2 = band_midpoint(2)  # between the 2nd and 3rd roots
    assert is_unique_expansion(catalogue_tail(1), q_mid_2)
    assert not is_unique_expansion(catalogue_tail(2), q_mid_2)
    assert not is_unique_expansion(catalogue_tail(3), q_mid_2)
    q_mid_3 = band_midpoint(3)
    assert is_unique_expansion(catalogue_tail(2), q_mid_3)
    assert not is_unique_expansion(catalogue_tail(3), q_mid_3)


def test_uniqueness_matches_residual_oracle_on_grid():
    rng = random.Random(20260808)
    qs = [Fraction("2.1"), Fraction("2.3"), Fraction(49, 20), Fraction("2.55"),
          Fraction("2.7"), Fraction("2.9")]
    seqs = [Seq((), (0,)), Seq((), (1,)), Seq((), (-1,))]
    for k in range(0, 4):
        e = tm_block(k)
        per = e + reflect(e)
        seqs.append(Seq((), per))
        seqs.append(Seq((0, 0, 0), per))
        seqs.append(Seq((1,), per))
        seqs.append(Seq((), per[2:] + per[:2]))
    for _ in range(40):
        pre = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 3)))
        per = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 6)))
        seqs.append(Seq(pre, per))
    for q in qs:
        for s in seqs:
            assert is_unique_expansion(s, q) == residual_unique(s, q), (q, s)


def test_uniqueness_reflection_symmetric():
    rng = random.Random(99)
    for _ in range(40):
        q = Fraction(rng.randint(205, 295), 100)
        pre = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 2)))
        per = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 5)))
        s = Seq(pre, per)
        assert is_unique_expansion(s, q) == is_unique_expansion(s.reflect(), q)


def test_uniqueness_monotone_in_base():
    qs = [Fraction("2.1"), Fraction("2.35"), Fraction("2.5"), Fraction("2.62"),
          Fraction("2.8"), Fraction("2.95")]
    rng = random.Random(41)
    seqs = [catalogue_tail(k) for k in range(0, 4)]
    for _ in range(25):
        per = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 5)))
        seqs.append(Seq((), per))
    for s in seqs:
        accepted = [is_unique_expansion(s, q) for q in qs]
        # once accepted, stays accepted for larger q
        assert accepted == sorted(accepted)


def test_uniqueness_verdict_reports_clause():
    v = uniqueness_verdict(Seq((), (1, 0, -1, 0)), Fraction(49, 20))
    assert not v.unique
    assert v.failing_index == 2
    assert v.clause == "reflected_tail"
    ok = uniqueness_verdict(Seq((), (0,)), Fraction(49, 20))
    assert ok.unique and ok.failing_index is None
    assert repr(v) == "UniquenessVerdict(unique=False, failing_index=2, clause='reflected_tail')"


def _verdict_or_error(verdict_fn, seq, q):
    try:
        return verdict_fn(seq, q)
    except Exception as exc:
        return type(exc), str(exc)


def test_uniqueness_matches_seq_oracle():
    # Byte slices against a window of alpha, and a canonical Seq per position:
    # same verdict, failing index and clause, or the same error and message.
    rng = random.Random(31)
    corpus = [Seq(tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 4))),
                  tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 8))))
              for _ in range(40)]
    for n in range(10):
        corpus += [catalogue_tail(n), catalogue_tail(n).reflect()]
    corpus += [Seq((), tuple(d - 1 for d in bases.ladder_word(n).word)) for n in range(1, 8)]
    kl = bases.kl_constant()
    roots = [bases.base_root(n) for n in (2, 3, 5, 8)]
    qs = [Fraction(21, 10), Fraction(49, 20), Fraction(5, 2), Fraction(2561, 1000),
          Fraction(27, 10), Fraction(2999, 1000), *roots, kl,
          *(kl.hi + Fraction(1, 10 ** e) for e in (6, 20, 60)),
          bases.BaseValue(kl.lo, kl.hi), bases.BaseValue(roots[1].lo, roots[1].hi)]
    outcomes = []
    for q in qs:
        for s in corpus:
            got = _verdict_or_error(uniqueness_verdict, s, q)
            assert got == _verdict_or_error(seq_uniqueness_verdict, s, q), (s, q)
            outcomes.append(got.unique if isinstance(got, expansions.UniquenessVerdict)
                            else got[0])
    assert {True, False, PrecisionError} <= set(outcomes)


def test_long_catalogue_tail_unique():
    # 4096-digit period: every position is compared, each against alpha.
    tail = catalogue_tail(12)
    for q in (Fraction(2561, 1000), Fraction(27, 10), Fraction(2999, 1000)):
        assert is_unique_expansion(tail, q)
        assert is_unique_expansion(tail.reflect(), q)


def test_uniqueness_rejects_bad_digits():
    with pytest.raises(DomainError):
        is_unique_expansion(Seq((), (2,)), Fraction("2.5"))


def test_catalogue_tail_shapes():
    assert catalogue_tail(0) == Seq((), (0,))
    assert catalogue_tail(1) == Seq((), (1, -1))
    assert catalogue_tail(2) == Seq((), (1, 0, -1, 0))


def test_find_unique_with_tail():
    q = band_midpoint(3)
    assert find_unique_with_tail(catalogue_tail(2), q) is not None
    assert find_unique_with_tail(catalogue_tail(3), q, max_preperiod=12) is None


def test_kl_tail_examples():
    assert kl_tail(KLTailDescriptor((1,), (), truncate=2)) == (1, -1)
    got = kl_tail(KLTailDescriptor((0, 1), (1,), truncate=7))
    assert got == (1, -1, 0, 1, 0, -1, 0)
    plain = kl_tail(KLTailDescriptor((1,), (1,), truncate=32))
    flipped = kl_tail(KLTailDescriptor((1,), (1,), reflected=True, truncate=32))
    assert flipped == reflect(plain)


def test_kl_tail_validation():
    with pytest.raises(DomainError):
        KLTailDescriptor((-1,), (), truncate=4)
    with pytest.raises(DomainError):
        KLTailDescriptor((1,), (2,), truncate=4)
    with pytest.raises(DomainError):
        kl_tail(KLTailDescriptor((0,), (0,), truncate=4))


def test_seq_value_helper_agrees_with_library():
    # Guards the test oracles themselves against drift.
    q = Fraction("2.5")
    s = Seq((1,), (0, -1))
    assert seq_value(s, q) == evaluate_exact(s, q)


def test_alpha_digits_concurrent_access():
    # Readers racing on a cold digit cache all get the reference digits.
    import sys
    import threading

    q = Fraction("2.47")
    expansions._longest_alpha.cache_clear()
    results = []

    def worker(n):
        results.append((n, quasi_greedy_alpha(q, n)))

    threads = [threading.Thread(target=worker, args=(120 >> (i % 2),)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    want = fraction_alpha(q, 120)
    assert sorted(results) == sorted((n, want[:n]) for n in (60, 120) * 4)
    # a shorter read racing a longer one leaves the longer prefix kept
    assert len(expansions._longest_alpha(bases.as_base_value(q))[0]) == 120
