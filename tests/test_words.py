"""Word and sequence layer: bit sequence, difference blocks, canonical forms."""

from __future__ import annotations

import random
import time

import pytest

from gasket_spectrum import words
from gasket_spectrum.errors import DomainError, ResourceLimitError
from gasket_spectrum.words import (
    MAX_BLOCK_EXPONENT,
    Seq,
    dec_last,
    format_seq,
    format_word,
    inc_last,
    parse_seq,
    parse_word,
    reflect,
    ternary_seq,
    thue_morse_bit,
    tm_block,
    tm_diff,
)

from helpers import canonical_by_rotation

# Frozen prefixes, independently tabulated.
TM_BITS_16 = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]
TM_DIFF_16 = [1, 0, -1, 1, -1, 0, 1, 0, -1, 0, 1, -1, 1, 0, -1, 1]


def test_bit_sequence_prefix():
    assert [thue_morse_bit(i) for i in range(16)] == TM_BITS_16


def test_bit_recursion():
    assert thue_morse_bit(0) == 0
    for i in range(1, 600):
        assert thue_morse_bit(2 * i) == thue_morse_bit(i)
        assert thue_morse_bit(2 * i + 1) == 1 - thue_morse_bit(i)


def test_bit_of_powers_of_two():
    for k in range(0, 20):
        assert thue_morse_bit(2 ** k) == 1


def test_bit_rejects_negative():
    with pytest.raises(DomainError):
        thue_morse_bit(-1)


def test_diff_prefix_and_samples():
    assert [tm_diff(i) for i in range(1, 17)] == TM_DIFF_16
    assert tm_diff(5) == -1 and thue_morse_bit(5) == 0
    assert tm_diff(16) == 1


def test_diff_rejects_zero():
    with pytest.raises(DomainError):
        tm_diff(0)


def test_diff_doubling_recursion():
    # diff(1) = 1; diff(2^(n+1)) = 1 - diff(2^n); diff(2^n + i) = -diff(i).
    assert tm_diff(1) == 1
    for n in range(0, 10):
        assert tm_diff(2 ** (n + 1)) == 1 - tm_diff(2 ** n)
        for i in range(1, 2 ** n):
            assert tm_diff(2 ** n + i) == -tm_diff(i)


def test_block_small_values():
    assert tm_block(0) == (1,)
    assert tm_block(2) == (1, 0, -1, 1)
    assert tm_block(3) == (1, 0, -1, 1, -1, 0, 1, 0)


def test_block_recursion_and_prefix():
    for n in range(0, 13):
        e = tm_block(n)
        e1 = tm_block(n + 1)
        assert e1 == e + inc_last(reflect(e))
        assert e1[: len(e)] == e
        assert e == tuple(tm_diff(i) for i in range(1, 2 ** n + 1))


def test_block_structure_properties():
    for n in range(0, 13):
        e = tm_block(n)
        assert e[0] == 1
        assert e[-1] == (0 if n % 2 else 1)
        if n >= 1:
            assert 0 in e
        # 1-based odd positions are never zero
        assert all(e[i] != 0 for i in range(0, len(e), 2))
        if n >= 3:
            assert any(e[i] != 0 for i in range(1, len(e) - 1, 2))


def test_block_cap():
    with pytest.raises(ResourceLimitError):
        tm_block(MAX_BLOCK_EXPONENT + 1)
    # The cap is checked outside the cache: a refused call leaves no trace.
    assert len(tm_block(7)) == 128
    with pytest.raises(DomainError):
        tm_block(-1)


def test_reflect_examples_and_involution():
    assert reflect((1, 0, -1)) == (-1, 0, 1)
    assert reflect(tm_block(2)) == (-1, 0, 1, -1)
    rng = random.Random(3)
    for _ in range(50):
        w = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 12)))
        assert reflect(reflect(w)) == w


def test_inc_dec_last():
    assert inc_last((1, 0)) == (1, 1)
    assert dec_last((1, 0, -1, 1)) == (1, 0, -1, 0)
    with pytest.raises(DomainError):
        inc_last((1,))
    with pytest.raises(DomainError):
        dec_last((0, -1))
    with pytest.raises(DomainError):
        inc_last(())


def test_seq_canonicalization_is_representation_independent():
    rng = random.Random(6)
    for _ in range(200):
        pre = [rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 4))]
        per = [rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 5))]
        s = Seq(pre, per)
        # rebuild with part of the period unrolled into the preperiod and the
        # (phase-shifted) period repeated; must canonicalize identically
        unroll = rng.randint(0, 7)
        digits = pre + per * 8
        pre2 = digits[: len(pre) + unroll]
        k = unroll % len(per)
        per2 = (per[k:] + per[:k]) * rng.randint(1, 3)
        assert Seq(pre2, per2) == s


def test_seq_canonicalization_matches_rotation_reference():
    # The one-pass suffix count gives the form that dropping one digit and
    # rotating once per pass gives, on a seeded grid with long matching runs.
    rng = random.Random(26)
    for _ in range(3000):
        per = [rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 6))] * rng.randint(1, 3)
        reps = per * (2 + 20 // len(per))
        run = reps[len(reps) - rng.randint(0, 20):] if rng.random() < 0.7 else []
        head = [rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 3))]
        s = Seq(head + run, per)
        assert (s.preperiod, s.period) == canonical_by_rotation(head + run, per)


def test_long_matching_preperiod_is_linear():
    # A 200000-digit preperiod that continues the period backwards took
    # quadratic time (~8 s at 80000 digits) when cut one digit per pass.
    started = time.perf_counter()
    assert Seq((0,) * 200000, (0,)) == Seq((), (0,))
    assert Seq((0, -1) + (1, 0, -1) * 66666, (1, 0, -1)) == Seq((), (0, -1, 1))
    assert time.perf_counter() - started < 1


def test_seq_canonical_equality():
    a = Seq((1,), (0, 1))
    b = Seq((), (1, 0))
    assert a == b
    assert hash(a) == hash(b)
    assert a.preperiod == () and a.period == (1, 0)


def test_seq_primitive_period():
    s = Seq((), (1, 0, 1, 0))
    assert s.period == (1, 0)
    assert Seq((0, 1, 0), (1, 0)) == Seq((0,), (1, 0))


def test_seq_digit_and_prefix():
    s = Seq((1, 1), (0, -1))
    assert [s.digit(i) for i in range(1, 7)] == [1, 1, 0, -1, 0, -1]
    assert s.prefix(5) == (1, 1, 0, -1, 0)


def test_prefix_agrees_with_digit():
    rng = random.Random(30)
    for _ in range(200):
        s = Seq([rng.randint(-1, 1) for _ in range(rng.randint(0, 6))],
                [rng.randint(-1, 1) for _ in range(rng.randint(1, 5))])
        for n in range(0, 25):
            assert s.prefix(n) == tuple(s.digit(i) for i in range(1, n + 1)), (s, n)
    with pytest.raises(DomainError):
        Seq((1, 2, 3), (0,)).prefix(-1)


def test_shift_examples():
    assert Seq((), (1, 0)).shift(1) == Seq((), (0, 1))
    s = Seq((1, -1), (0, 1, 1))
    assert s.shift(len(s.preperiod) + len(s.period)) == s.shift(len(s.preperiod))
    # shifting the period of scale-1 blocks by two lands on the reflected phase
    e1 = tm_block(1)
    s = Seq((), e1 + reflect(e1))
    assert s.shift(2) == Seq((), (-1, 0, 1, 0))


def test_shift_rejects_negative():
    with pytest.raises(DomainError):
        Seq((), (1,)).shift(-1)


def test_seq_immutable():
    s = Seq((), (1,))
    with pytest.raises(AttributeError):
        s.period = (0,)


def test_records_are_immutable():
    from fractions import Fraction

    from gasket_spectrum import bases, config, expansions, geometry, matching, spectrum

    t = matching.e_seq(1, 1, 2)
    spec = spectrum.sft_spec("2.9")
    d1, d2 = spectrum.sft_densities(spec)
    records = [
        bases.ladder_word(3), bases.as_base_value("2.5"), bases.classify("2.2"),
        config.RunConfig(), expansions.uniqueness_verdict(Seq((), (0,)), "2.5"),
        expansions.KLTailDescriptor((1,), (1,)), geometry.build_gasket("2.5", 2),
        matching.analyze(t), spec,
        spectrum.interval_witness(spec, (d1 + d2) / 2, 16),
        spectrum.spectrum_of("2.45").family, spectrum.spectrum_of("2.9").interval,
        spectrum.spectrum_of("2.2"),
    ]
    for record in records:
        for name in type(record).__slots__ + ("extra",):
            before = getattr(record, name, None)
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            assert getattr(record, name, None) is before, (record, name)
    # a record is not a tuple: a base never equals its bare endpoints
    b = bases.as_base_value("2.5")
    assert b != (b.lo, b.hi) and b == bases.BaseValue(Fraction(5, 2), Fraction(5, 2))


def test_records_survive_copy_and_pickle():
    import copy
    import pickle

    from gasket_spectrum import bases, spectrum

    cases = [
        (Seq((1,), (0, -1)), lambda v: v),
        (bases.base_root(3), lambda v: (v, hash(v), v.ladder_index)),
        (bases.classify("2.45"), lambda v: v),
        (spectrum.spectrum_of("2.45"), lambda v: v.to_json_dict()),
    ]
    for value, key in cases:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and key(twin) == key(value)


def test_ternary_validation():
    with pytest.raises(DomainError):
        ternary_seq((), (2,))
    with pytest.raises(DomainError):
        Seq((), ())


def test_serialization_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        pre = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 4)))
        per = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 6)))
        s = Seq(pre, per)
        assert parse_seq(format_seq(s)) == s


def test_parse_forms():
    assert parse_word("+0-") == (1, 0, -1)
    assert parse_word("1,0,-1") == (1, 0, -1)
    assert parse_word("") == ()
    assert parse_seq("+0;-0^inf") == Seq((1, 0), (-1, 0))
    assert parse_seq("+0-0^inf") == Seq((), (1, 0, -1, 0))
    with pytest.raises(DomainError):
        parse_seq("+0-0")
    with pytest.raises(DomainError):
        parse_word("x")
    with pytest.raises(DomainError):
        parse_seq(";^inf")


def test_bare_binary_words_are_refused():
    # Digits are + 0 - or a comma list; "10" is not the word (1, 0).
    for text in ("10^inf", "0;10^inf", "01^inf"):
        with pytest.raises(DomainError, match="cannot parse word"):
            parse_seq(text)
    assert parse_seq("0^inf") == Seq((), (0,))


def test_format_word_rejects_nonternary():
    with pytest.raises(DomainError):
        format_word((2,))


def test_block_cache_concurrent_builds():
    import threading

    words._block.cache_clear()
    results = []

    def worker(k):
        results.append((k, tm_block(10 + (k % 3))))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for k, block in results:
        assert block == tuple(tm_diff(i) for i in range(1, 2 ** (10 + (k % 3)) + 1))


def test_keep_longer_keeps_the_longest_run():
    held = tuple(range(3))
    slot = [held]
    assert words.keep_longer(slot, (0, 1)) is held is slot[0]  # shorter: kept out
    assert words.keep_longer(slot, tuple(range(3))) is held is slot[0]  # equal: kept out
    longer = tuple(range(4))
    assert words.keep_longer(slot, longer) is longer is slot[0]


def test_keep_longer_under_racing_threads():
    import sys
    import threading

    # The slot yields the interpreter before each store, so another thread
    # runs between a swap's length check and its store: a store that does not
    # lengthen the held run is a lost update.
    shrinking_stores = []

    class Slot(list):
        def __setitem__(self, i, run):
            time.sleep(0)
            if len(run) <= len(self[i]):
                shrinking_stores.append(len(run))
            list.__setitem__(self, i, run)

    slot = Slot([b""])
    short_returns = []
    start = threading.Barrier(8, timeout=30)

    def worker(i):
        start.wait()
        for n in range(i, 800, 8):
            if len(words.keep_longer(slot, bytes(n))) < n:
                short_returns.append(n)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
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
    assert len(slot[0]) == 799
    assert not shrinking_stores and not short_returns
