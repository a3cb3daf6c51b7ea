"""Ladder words, certified roots, the limit base, and regime classification."""

from __future__ import annotations

from fractions import Fraction

import pytest

from gasket_spectrum import bases
from gasket_spectrum.bases import (
    MAX_LADDER_INDEX,
    BaseValue,
    as_base_value,
    base_root,
    classify,
    kl_constant,
    ladder_word,
)
from gasket_spectrum.errors import (
    AmbiguousClassificationError,
    DomainError,
    PrecisionError,
)
from gasket_spectrum.words import tm_block

from helpers import float_bisect, ladder_value_exact


def test_ladder_words_small():
    assert ladder_word(1).word == (2,)
    assert ladder_word(2).word == (2, 1)
    assert ladder_word(3).word == (2, 1, 0, 2)
    assert ladder_word(4).word == (2, 1, 0, 2, 0, 1, 2, 1)


def test_ladder_word_shape():
    for n in range(1, 12):
        w = ladder_word(n).word
        assert len(w) == 2 ** (n - 1)
        assert w[0] == 2
        assert all(d in (0, 1, 2) for d in w)


def test_ladder_word_is_shifted_block():
    # The ladder word at n+1 is the difference block at n moved up by one.
    for n in range(0, 10):
        assert ladder_word(n + 1).word == tuple(d + 1 for d in tm_block(n))


def test_ladder_word_bounds():
    with pytest.raises(DomainError):
        ladder_word(0)
    with pytest.raises(PrecisionError):
        ladder_word(MAX_LADDER_INDEX + 1)


def test_base_root_cap_builds_no_ladder_word():
    # The cap is checked on the index; no 2^(n-1)-digit word is built for it.
    bases._ladder.cache_clear()
    base_root(9)
    assert bases._ladder.cache_info().currsize == 0
    cap = MAX_LADDER_INDEX
    with pytest.raises(PrecisionError, match=f"ladder index {cap + 1} exceeds cap {cap}"):
        base_root(cap + 1)
    assert bases._ladder.cache_info().currsize == 0


def test_base_root_first_is_exact():
    r = base_root(1)
    assert r.lo == r.hi == Fraction(2)
    assert r.ladder_index == 1


def test_base_root_second_matches_quadratic():
    # Independent oracle: bisection on q^2 - 2q - 1 over [2, 3].
    oracle = float_bisect(lambda q: q * q - 2 * q - 1, 2.0, 3.0)
    assert abs(base_root(2).value - oracle) < 1e-12


def test_base_root_monotone_disjoint_enclosures():
    prev = base_root(1)
    for n in range(2, 13):
        r = base_root(n)
        assert prev.hi < r.lo
        prev = r


def test_base_root_polynomial_residual():
    # Evaluating the ladder polynomial at the midpoint stays within 10x the width.
    for n in range(2, 9):
        r = base_root(n)
        value = ladder_value_exact(r.midpoint, n)
        assert abs(value - 1) < 10 * (r.hi - r.lo) + Fraction(1, 10 ** 30)


def test_doubling_evaluator_agrees_with_horner():
    from decimal import Decimal, localcontext
    for n in range(1, 9):
        q = Fraction("2.47")
        exact = ladder_value_exact(q, n)
        with localcontext() as ctx:
            ctx.prec = 60
            fast = bases._ladder_value_dec(Decimal("2.47"), n)
        assert abs(Fraction(str(fast)) - exact) < Fraction(1, 10 ** 50)


def test_kl_enclosure_position():
    kl = kl_constant(1e-10)
    assert kl.is_kl
    q8 = base_root(8)
    assert q8.hi < kl.lo < kl.hi < 3
    assert kl.radius <= 1e-10


def test_kl_enclosures_nest():
    loose = kl_constant(1e-6)
    tight = kl_constant(1e-10)
    assert loose.lo <= tight.lo and tight.hi <= loose.hi


def test_kl_close_to_deep_roots():
    kl = kl_constant(1e-10)
    q14 = base_root(14)
    assert abs(kl.midpoint - q14.midpoint) < Fraction(1, 10 ** 50)


def test_kl_enclosure_certified_by_exact_arithmetic():
    # Independent certification of the returned endpoints: the limit word's
    # truncated value at lo exceeds 1, and at hi even adding the maximal tail
    # stays below 1. Pure Fraction arithmetic, no Decimal involved.
    from gasket_spectrum.words import tm_diff

    kl = kl_constant()
    terms = 260
    for endpoint, side in ((kl.lo, "lo"), (kl.hi, "hi")):
        q = Fraction(endpoint)
        acc = Fraction(0)
        x = 1 / q
        for i in range(terms, 0, -1):
            acc = (acc + tm_diff(i) + 1) * x
        tail_max = 2 * x ** terms / (q - 1)
        if side == "lo":
            assert acc > 1
        else:
            assert acc + tail_max < 1


def test_classify_points_adjacent_to_kl():
    kl = kl_constant()
    below = BaseValue(kl.lo - Fraction(1, 10 ** 13), kl.lo - Fraction(1, 10 ** 13))
    above = BaseValue(kl.hi + Fraction(1, 10 ** 13), kl.hi + Fraction(1, 10 ** 13))
    assert classify(above) == bases.RegimeLabel("interval")
    label = classify(below)
    assert label.kind == "finite" and label.m >= 5


def test_ladder_gaps_decreasing():
    mids = [base_root(n).midpoint for n in range(2, 9)]
    gaps = [mids[i + 1] - mids[i] for i in range(len(mids) - 1)]
    assert all(g > 0 for g in gaps)
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))


def test_kl_rejects_bad_tolerance():
    with pytest.raises(DomainError):
        kl_constant(0.0)
    with pytest.raises(PrecisionError):
        kl_constant(Fraction(1, 10 ** 500))


def test_classify_points():
    assert classify("2.2") == bases.RegimeLabel("finite", 1)
    assert classify("2.9") == bases.RegimeLabel("interval")
    assert classify(2.3) == bases.RegimeLabel("finite", 1)
    assert classify("2.45") == bases.RegimeLabel("finite", 2)


def test_classify_band_endpoints_right_closed():
    assert classify(base_root(2)) == bases.RegimeLabel("finite", 1)
    for m in range(1, 9):
        assert classify(base_root(m + 1)) == bases.RegimeLabel("finite", m)


def test_classify_kl():
    assert classify(kl_constant()) == bases.RegimeLabel("komornik_loreti")


def test_classify_rejects_outside():
    for q in ("3.5", "2", "1.9", "3"):
        with pytest.raises(DomainError):
            classify(q)


def test_classify_straddling_interval_is_ambiguous():
    r = base_root(2)
    straddle = BaseValue(r.lo - Fraction(1, 10 ** 6), r.hi + Fraction(1, 10 ** 6))
    with pytest.raises(AmbiguousClassificationError):
        classify(straddle)


def test_classify_interval_inside_band():
    inside = BaseValue(Fraction("2.20"), Fraction("2.21"))
    assert classify(inside) == bases.RegimeLabel("finite", 1)


def test_classify_interval_touching_kl():
    kl = kl_constant()
    around = BaseValue(kl.lo - Fraction(1, 10 ** 90), kl.hi + Fraction(1, 10 ** 90))
    assert classify(around) == bases.RegimeLabel("komornik_loreti")


def test_as_base_value_forms():
    assert as_base_value("2.45").lo == Fraction(49, 20)
    assert as_base_value("49/20").lo == Fraction(49, 20)
    assert as_base_value(Fraction(5, 2)).is_point
    with pytest.raises(DomainError):
        as_base_value("apple")
    with pytest.raises(DomainError):
        as_base_value(None)


def test_base_value_ordering_check():
    with pytest.raises(DomainError):
        BaseValue(Fraction(3), Fraction(2))


def test_equal_enclosures_hash_equal():
    r = base_root(10)
    copy = BaseValue(Fraction(r.lo.numerator, r.lo.denominator), Fraction(str(r.hi)),
                     ladder_index=10)
    assert copy == r and hash(copy) == hash(r)
    assert as_base_value("49/20") == as_base_value("2.45")
    assert hash(as_base_value("49/20")) == hash(as_base_value("2.45"))
    # the tag still takes part in equality
    assert BaseValue(r.lo, r.hi) != r
