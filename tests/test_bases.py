"""Ladder words, certified roots, the limit base, and regime classification."""

from __future__ import annotations

import functools
import hashlib
import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from gasket_spectrum import bases
from gasket_spectrum.bases import (
    DEFAULT_TOLERANCE,
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

from helpers import (certified_bisect, float_bisect, ladder_value_exact, ladder_word_doubling,
                     scan_classify)


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


def test_ladder_words_match_doubling_reference():
    for n in range(1, 17):
        assert ladder_word(n).word == ladder_word_doubling(n), n


def test_base_root_cap_builds_no_ladder_word(monkeypatch):
    # The cap is checked on the index; no 2^(n-1)-digit word is built for it,
    # and the root itself comes from the Thue-Morse product, not from a word.
    monkeypatch.setattr(bases, "tm_block", lambda n: pytest.fail("a ladder word was built"))
    monkeypatch.setattr(bases, "_root", functools.cache(bases._root.__wrapped__))
    assert base_root(9).ladder_index == 9
    cap = MAX_LADDER_INDEX
    with pytest.raises(PrecisionError, match=f"ladder index {cap + 1} exceeds cap {cap}"):
        base_root(cap + 1)


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


def test_product_evaluator_agrees_with_horner():
    for n in range(1, 9):
        q = Fraction("2.47")
        exact = ladder_value_exact(q, n)
        with localcontext() as ctx:
            ctx.prec = 60
            fast = bases._value_dec(Decimal("2.47"), n)
        assert abs(Fraction(str(fast)) - exact) < Fraction(1, 10 ** 50)


def test_unbounded_evaluator_is_the_limit_of_the_ladder_values():
    # S(q) - V_n(q) is the value of the limit word past its first 2^(n-1)
    # digits, each at most 2: within 2 q^-(2^(n-1)) / (q - 1), plus rounding.
    for text in ("2.5", "2.53", "2.548", "2.6"):
        q = Fraction(text)
        with localcontext() as ctx:
            ctx.prec = 260  # the n = 10 tail is ~1e-204
            limit = Fraction(bases._value_dec(Decimal(text)))
        for n in range(8, 11):
            gap, rounding = limit - ladder_value_exact(q, n), Fraction(1, 10 ** 250)
            assert -rounding <= gap <= 2 / (q ** 2 ** (n - 1) * (q - 1)) + rounding, (text, n)


def test_deep_enclosures_are_pinned():
    # The exact (lo, hi) of every root at tolerances 1e-12 and 1e-30 and of
    # the limit base at five digit counts, as one digest: a change of value
    # evaluator that moves any enclosure fails here.
    digest = hashlib.sha256()
    for tolerance in (1e-12, 1e-30):
        for n in range(2, MAX_LADDER_INDEX + 1):
            digits = bases._width_digits(n, tolerance)
            r = bases._root(n, digits)
            digest.update(f"root {n} {digits} {r.lo} {r.hi}\n".encode())
    for digits in (80, 91, 160, 320, 460):
        kl = bases._kl(digits)
        digest.update(f"kl {digits} {kl.lo} {kl.hi}\n".encode())
    assert digest.hexdigest() == (
        "d144305e2357ef197426eb0d10c2ff2af738483bbb6d6cd2fb4220905a2c3b35")


def _ladder_case(n: int, digits: int):
    return (lambda q: bases._value_dec(q, n)), Decimal(2), Decimal(3), digits


def _kl_case(digits: int):
    return bases._value_dec, Decimal("2.5"), Decimal("2.6"), digits


def test_guided_bisection_matches_certified_reference():
    # The replayed halving certifies only its two final ends; the enclosures
    # must equal those of certifying every mid, as Fractions. Tolerance 1e-30
    # asks fewer digits than the 40-digit floor, so both share one reference.
    reference = {}
    for tolerance in (DEFAULT_TOLERANCE, 1e-30):
        for n in range(2, MAX_LADDER_INDEX + 1):
            digits = bases._width_digits(n, tolerance)
            if (n, digits) not in reference:
                reference[n, digits] = certified_bisect(*_ladder_case(n, digits))
            r = bases._root(n, digits)
            assert (r.lo, r.hi) == reference[n, digits], (n, tolerance)
    for digits in (80, 160, 320, 460):
        kl = bases._kl(digits)
        assert (kl.lo, kl.hi) == certified_bisect(*_kl_case(digits)), digits


@pytest.mark.parametrize("estimate", ["off_by_margin", "bracket_end"])
def test_bisection_falls_back_to_certifying_every_mid(monkeypatch, estimate):
    # A wrong crossing estimate fails an end certificate, and the halving runs
    # again with a certified sign at every mid.
    real_crossing, real_sign = bases._crossing, bases._certified_sign

    def crossing(valfn, lo, hi, prec):
        if estimate == "bracket_end":
            return lo
        digits = prec - 40
        with localcontext() as ctx:
            ctx.prec = prec
            return real_crossing(valfn, lo, hi, prec) + Decimal(10) ** (5 - digits)

    signs = []

    def certified_sign(valfn, mid, prec):
        signs.append(mid)
        return real_sign(valfn, mid, prec)

    monkeypatch.setattr(bases, "_crossing", crossing)
    monkeypatch.setattr(bases, "_certified_sign", certified_sign)
    for n, digits in ((3, 40), (9, 134)):
        signs.clear()
        lo, hi = bases._bisect(*_ladder_case(n, digits))
        assert len(signs) > 3 * digits, n
        assert (lo, hi) == certified_bisect(*_ladder_case(n, digits)), n
        assert ladder_value_exact(lo, n) > 1 > ladder_value_exact(hi, n), n
    assert bases._bisect(*_kl_case(80)) == certified_bisect(*_kl_case(80))


def test_deep_ladder_sweep_is_fast():
    # bases --max-n 24 is a sweep to the ladder cap; it must not take minutes.
    bases._root.cache_clear()
    started = time.perf_counter()
    for n in range(2, MAX_LADDER_INDEX + 1):
        base_root(n)
    assert time.perf_counter() - started < 3


def test_long_decimal_coefficient_refused_before_conversion():
    # Converted, this literal costs ~3.5 s: int() caps p/q literals at 4300
    # digits, and a decimal coefficient is capped the same way.
    started = time.perf_counter()
    with pytest.raises(DomainError,
                       match="decimal coefficient of 130000 digits lies beyond the cap of 4300"):
        bases.parse_rational("1" * 130000 + "e-1000000", "base")
    assert time.perf_counter() - started < 0.5
    ones = "1" * 4300
    assert bases.parse_rational(ones + "e-4300", "base") == Fraction(int(ones), 10 ** 4300)
    with pytest.raises(DomainError, match="4301 digits"):
        bases.parse_rational("1" * 4301 + "e-4301", "base")


def test_point_enclosure_outside_working_range_formatted_once(monkeypatch):
    calls = []
    real = bases.float_str
    monkeypatch.setattr(bases, "float_str", lambda x: calls.append(x) or real(x))
    with pytest.raises(DomainError,
                       match=r"^base enclosure \[3\.5, 3\.5\] is not inside \(2, 3\)$"):
        bases.require_working_base(as_base_value("3.5"))
    assert calls == [Fraction(7, 2)]
    with pytest.raises(DomainError, match=r"^base enclosure \[1\.5, 3\.5\] is not inside"):
        bases.require_working_base(BaseValue(Fraction(3, 2), Fraction(7, 2)))
    assert calls == [Fraction(7, 2), Fraction(3, 2), Fraction(7, 2)]


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
    # root 12 reaches past the tightest KL enclosure's lower end, so a
    # rational below KL never needs root 13 to be placed
    assert base_root(12).hi > bases._kl(bases.LADDER_DIGITS_CAP).lo


def test_kl_enclosure_certified_by_exact_arithmetic():
    # Independent certification of the returned endpoints: the limit word's
    # truncated value at lo exceeds 1, and at hi even adding the maximal tail
    # stays below 1. The Horner sum runs in exact integers over the common
    # denominator a^terms of q = a/b; no Decimal and no product form involved.
    from gasket_spectrum.words import tm_diff

    for tolerance, digits in ((bases.DEFAULT_TOLERANCE, 80), (1e-90, 90), (1e-200, 200)):
        kl = kl_constant(tolerance)
        terms = int(2.5 * digits) + 60  # tail below 10^-(digits + 20)
        for endpoint, side in ((kl.lo, "lo"), (kl.hi, "hi")):
            a, b = endpoint.numerator, endpoint.denominator
            num, b_pow = 0, 1  # sum_i (tm_diff(i) + 1) (b/a)^i = num / a^terms
            for i in range(1, terms + 1):
                b_pow *= b
                num = num * a + (tm_diff(i) + 1) * b_pow
            den = a ** terms
            if side == "lo":
                assert num > den, tolerance
            else:  # tail_max = 2 x^terms / (q - 1) = 2 b^(terms+1) / (a^terms (a - b))
                assert num * (a - b) + 2 * b_pow * b < den * (a - b), tolerance


def test_classify_rational_inside_kl_enclosure():
    # A rational never equals KL, so a point inside the enclosure tightens it
    # until the point falls outside, with no sweep over the ladder roots.
    bases._kl.cache_clear()
    above = kl_constant().hi - Fraction(1, 10 ** 100)
    started = time.perf_counter()
    assert classify(above) == bases.RegimeLabel("interval")
    assert time.perf_counter() - started < 2
    started = time.perf_counter()
    with pytest.raises(PrecisionError):
        classify(bases._kl(bases.LADDER_DIGITS_CAP).midpoint)
    assert time.perf_counter() - started < 5


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
    # base_root shares kl_constant's tolerance check
    for tolerance in (0.0, 0, -1.0, float("nan"), float("inf")):
        for call in (kl_constant, lambda t: base_root(3, t), lambda t: base_root(1, t)):
            with pytest.raises(DomainError, match="positive and finite"):
                call(tolerance)
    with pytest.raises(PrecisionError):
        kl_constant(Fraction(1, 10 ** 500))


def test_one_exact_digit_rule_sets_roots_and_limit(monkeypatch):
    # The digits of a tolerance are the least d >= 1 with 10^-d <= tolerance,
    # read exactly: the float 1e-12 lies below 10^-12 and needs 13.
    def least(tol):
        d = 1
        while Fraction(1, 10 ** d) > Fraction(tol):
            d += 1
        return d

    grid = (1.0, 0.5, 0.1, 1e-12, 1e-30, 1e-90, 2e-90, 1e-200, 1e-300, 5e-324,
            Fraction(1, 10 ** 90), Fraction(3, 7 * 10 ** 40), Fraction(1, 10 ** 500))
    for tol in grid:
        assert bases._tolerance_digits(tol) == least(tol), tol
    assert [bases._tolerance_digits(t) for t in (1e-12, 1e-90, 1e-200)] == [13, 91, 201]
    deep = Fraction(1, 10 ** 500)
    assert bases._width_digits(2, deep) == bases.LADDER_DIGITS_CAP
    with pytest.raises(PrecisionError, match="needs 500 digits, beyond cap 460"):
        kl_constant(deep)
    # roots and the limit base both read their digits from the one rule
    monkeypatch.setattr(bases, "_tolerance_digits", lambda tol: 123)
    assert bases._width_digits(2, 0.5) == 123 and bases._kl_digits(0.5) == 123


def test_classify_points():
    assert classify("2.2") == bases.RegimeLabel("finite", 1)
    assert classify("2.9") == bases.RegimeLabel("interval")
    assert classify(2.3) == bases.RegimeLabel("finite", 1)
    assert classify("2.45") == bases.RegimeLabel("finite", 2)
    assert repr(classify("2.45")) == "RegimeLabel(kind='finite', m=2)"
    assert repr(classify("2.9")) == "RegimeLabel(kind='interval', m=None)"


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


def test_classify_wide_enclosure_meeting_kl_is_ambiguous():
    # Wider than the tolerance, so it is not read as KL; its endpoints lie in
    # band 1 and in the interval regime.
    for lo, hi in (("2.4", "2.6"), ("2.1", "2.9")):
        with pytest.raises(AmbiguousClassificationError):
            classify(BaseValue(Fraction(lo), Fraction(hi)))


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
    # hashed on first use, then kept; a point reads its value from lo
    x = r.hi + (r.hi - r.lo) / 7
    point = as_base_value(x)
    assert point._hash is None
    assert hash(point) == hash((x, x)) and point._hash == hash((x, x))
    assert point.midpoint == x and point.value == float((x + x) / 2) == float(x)
    assert r.midpoint == (r.lo + r.hi) / 2 and r.value == float((r.lo + r.hi) / 2)
    # the tag still takes part in equality
    assert BaseValue(r.lo, r.hi) != r


def test_classify_checks_tolerance_in_every_regime():
    # Tagged roots and KL were classified before the tolerance was read.
    kl = kl_constant()
    for tolerance in (-1.0, 0, float("nan"), float("inf")):
        for q in (base_root(3), kl, "2.45", "2.9", BaseValue(Fraction("2.2"), Fraction("2.21"))):
            with pytest.raises(DomainError, match="^tolerance must be positive and finite$"):
                classify(q, tolerance)


def _outcome(call, *args):
    """A call's label, or its exception's type and message."""
    try:
        return call(*args)
    except (AmbiguousClassificationError, DomainError, PrecisionError) as exc:
        return type(exc), str(exc)


def _decimals_inside(lo: Fraction, hi: Fraction, rng) -> list[Fraction]:
    """The shortest decimal strictly inside (lo, hi), and a random one with
    two more digits."""
    d = 1
    while True:
        scale = 10 ** d
        x = Fraction(math.floor(lo * scale) + 1, scale)
        if x < hi:
            break
        d += 1
    scale *= 100
    return [x, Fraction(rng.randint(math.floor(lo * scale) + 1, math.ceil(hi * scale) - 1), scale)]


def _classify_grid(tolerance, rng) -> list[tuple[Fraction, int | None]]:
    """(point, band or None): rationals in each band 1..11, each root
    enclosure's ends and a point inside it, and points inside the KL
    enclosure."""
    def inside(lo, hi):
        return lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)

    grid = []
    for m in range(1, 12):
        lo, hi = base_root(m, tolerance).hi, base_root(m + 1, tolerance).lo
        grid += [(x, m) for x in _decimals_inside(lo, hi, rng) + [inside(lo, hi), inside(lo, hi)]]
    for n in range(2, 13):
        r = base_root(n, tolerance)
        grid += [(r.lo, None), (r.hi, None), (inside(r.lo, r.hi), None)]
    kl = kl_constant(tolerance)
    grid += [(inside(kl.lo, kl.hi), None) for _ in range(4)]
    rng.shuffle(grid)
    return grid


def test_classify_agrees_with_a_linear_scan_over_the_roots(monkeypatch):
    # Bisection over the root table against the scan in index order, queried
    # in shuffled order from an empty table, so while it grows and after.
    monkeypatch.setattr(bases, "_root_table", functools.cache(bases._root_table.__wrapped__))
    rng = random.Random(29)
    sign_checked = set()
    for tolerance in (1e-6, 1e-12, 1e-40, 1e-100):
        for x, band in _classify_grid(tolerance, rng):
            got, want = _outcome(classify, x, tolerance), _outcome(scan_classify, x, tolerance)
            assert got == want, (float(x), tolerance)
            if band is not None:
                assert got == bases.RegimeLabel("finite", band), (float(x), tolerance)
            elif isinstance(got, bases.RegimeLabel) and got.kind == "finite":
                band = got.m
            # the exact sign oracle V_m(q) < 1 < V_{m+1}(q), once per point
            if band is not None and band <= 8 and x not in sign_checked:
                sign_checked.add(x)
                assert ladder_value_exact(x, band) < 1 < ladder_value_exact(x, band + 1), float(x)
    assert len(sign_checked) > 100


def _band_points(seed: int) -> list[tuple[Fraction, int]]:
    rng = random.Random(seed)
    return [(base_root(m).hi + (base_root(m + 1).lo - base_root(m).hi)
             * Fraction(rng.randint(1, 999), 1000), m) for m in range(1, 12)]


def _fresh_roots(monkeypatch) -> list[int]:
    """Empty root and root-table caches; the indices later certified are
    appended to the returned list."""
    certified = []
    root = bases._root.__wrapped__
    monkeypatch.setattr(bases, "_root", functools.cache(
        lambda n, digits: certified.append(n) or root(n, digits)))
    monkeypatch.setattr(bases, "_root_table", functools.cache(bases._root_table.__wrapped__))
    return certified


def test_placement_certifies_only_the_roots_a_scan_reaches(monkeypatch):
    points = _band_points(3)
    top_5 = base_root(5).hi
    for x, m in points:
        certified = _fresh_roots(monkeypatch)
        assert classify(x) == bases.RegimeLabel("finite", m)
        assert certified == list(range(2, m + 2)), m
        for y, lower in points[:m]:  # lower bands, and the band itself again
            assert classify(y) == bases.RegimeLabel("finite", lower)
        assert certified == list(range(2, m + 2)), m
    certified = _fresh_roots(monkeypatch)
    with pytest.raises(AmbiguousClassificationError, match="ladder point 5$"):
        classify(top_5)  # equal to the table's top: no further root
    assert certified == [2, 3, 4, 5]


def test_placement_never_needs_a_root_past_12(monkeypatch):
    # Root 12 is certified to the digit cap at every tolerance, and its hi
    # lies above the cap's KL enclosure, so a point below KL is placed by
    # root 12 at the latest.
    cap = bases.LADDER_DIGITS_CAP
    assert all(bases._width_digits(12, 10.0 ** -e) == cap for e in range(1, 309))
    assert base_root(12).hi > bases._kl(cap).hi
    points = [(lo - Fraction(1, 10 ** k), tolerance)
              for tolerance in (1e-6, 1e-12, 1e-40, 1e-100, 1e-300)
              for lo in (kl_constant(tolerance).lo, bases._kl(cap).lo)
              for k in (cap - 20, cap + 20)]
    certified = _fresh_roots(monkeypatch)
    got = [_outcome(classify, x, tolerance) for x, tolerance in points]
    assert max(certified) == 12
    assert got == [_outcome(scan_classify, x, tolerance) for x, tolerance in points]


def test_concurrent_placement_matches_serial(monkeypatch):
    # Threads racing to grow an empty root table get the serial labels, and
    # the table they leave holds each root once, in index order.
    import sys
    import threading

    points = [x for x, _ in _band_points(5)] * 2
    random.Random(5).shuffle(points)
    serial = [classify(x) for x in points]
    _fresh_roots(monkeypatch)
    results = [None] * 8

    def worker(i):
        order = list(range(len(points)))
        random.Random(i).shuffle(order)
        results[i] = {k: classify(points[k]) for k in order}

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
    for labels in results:
        assert [labels[k] for k in range(len(points))] == serial
    roots = bases._root_table(bases._table_digits(DEFAULT_TOLERANCE))[0]
    assert [r.ladder_index for r in roots] == list(range(2, 13))
    assert all(a.hi < b.lo for a, b in zip(roots, roots[1:]))
