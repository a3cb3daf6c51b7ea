"""Densities, dimension formula, spectrum assembly, and the subshift apparatus."""

from __future__ import annotations

import math
import random
import re
import time
from fractions import Fraction

import pytest

from gasket_spectrum import bases
from gasket_spectrum.errors import CapabilityError, DomainError, ResourceLimitError
from gasket_spectrum.matching import analyze
from gasket_spectrum.spectrum import (
    MAX_KL_TERMS,
    SFT_MAX_CYCLE,
    SFT_MAX_N,
    SFT_NEXT,
    U1_PATHS,
    U2_PATHS,
    alternating_density,
    block_density_check,
    dimension,
    interval_witness,
    kl_density_check,
    sft_densities,
    sft_letter_path_allowed,
    sft_letters,
    sft_pair_words,
    sft_spec,
    spectrum_of,
    zero_fraction,
    zero_fraction_seq,
)
from gasket_spectrum.words import Seq, tm_block

from helpers import band_midpoint, four_block_b_blocks

# Zeros of the scale-4 block, counted by hand from its sixteen digits.
SCALE4_ZEROS = 5


def test_zero_fraction_examples():
    assert zero_fraction(tm_block(2)) == Fraction(1, 4)
    assert zero_fraction(tm_block(3)) == Fraction(3, 8)
    assert zero_fraction(tm_block(4)) == Fraction(SCALE4_ZEROS, 16)
    assert zero_fraction_seq(Seq((), (0,))) == 1
    with pytest.raises(DomainError):
        zero_fraction(())


def test_alternating_density_closed_form():
    assert alternating_density(1) == Fraction(1, 2)
    assert alternating_density(2) == Fraction(1, 4)
    assert alternating_density(4) == Fraction(5, 16)
    for n in range(0, 20):
        d = alternating_density(n)
        assert abs(d - Fraction(1, 3)) == Fraction(1, 3 * 2 ** n)
    for n in range(0, 300):  # the power form is the reference
        assert alternating_density(n) == (1 - Fraction(-1, 2) ** n) / 3, n


def test_family_densities_are_exact_and_bounded():
    from gasket_spectrum import spectrum

    for count in range(1, 201):
        assert spectrum._densities(count) == tuple(
            (1 - Fraction(-1, 2) ** k) / 3 for k in range(1, count + 1)), count
    info = spectrum._densities.cache_info()  # 200 counts asked: the bound holds
    assert info.maxsize is not None and info.currsize == info.maxsize


def test_block_density_check_exact():
    rep = block_density_check(16)
    assert rep.passed
    assert rep.stats["blocks_checked"] == 17


def test_dimension_formula():
    assert dimension("2.5", 0) == 0.0
    q = 2.2
    full = dimension(q, 1)
    assert abs(full - math.log(3) / math.log(q)) < 1e-15
    assert abs(dimension(q, Fraction(1, 2)) - math.log(3) / (2 * math.log(2.2))) < 1e-12
    assert abs(dimension(2.2, Fraction(1, 2)) - 0.6966846553125884) < 1e-12


def test_dimension_monotonicity():
    qs = [2.1, 2.4, 2.7, 2.95]
    ds = [Fraction(k, 10) for k in range(0, 11)]
    for q in qs:
        vals = [dimension(q, d) for d in ds]
        assert vals == sorted(vals)
    for d in (Fraction(1, 3), Fraction(1, 2), 1):
        vals = [dimension(q, d) for q in qs]
        assert vals == sorted(vals, reverse=True)


def test_dimension_domain():
    with pytest.raises(DomainError):
        dimension("3.1", Fraction(1, 2))
    with pytest.raises(DomainError):
        dimension("2.5", 2)


def test_dimension_outside_working_range_names_the_enclosure():
    for q, shown in (("3.1", "3.1"), ("2", "2.0"), (Fraction(5, 4), "1.25")):
        message = f"base enclosure [{shown}, {shown}] is not inside (2, 3)"
        with pytest.raises(DomainError, match=re.escape(message)):
            dimension(q, Fraction(1, 2))


def test_spectrum_first_band_is_two_points():
    s = spectrum_of("2.2")
    assert s.regime.kind == "finite" and s.regime.m == 1
    assert s.family is None and s.interval is None
    assert sorted(s.isolated) == sorted([0.0, math.log(3) / math.log(2.2)])


def test_spectrum_at_third_root():
    q = bases.base_root(3)
    s = spectrum_of(q)
    assert s.regime.m == 2
    assert s.family is not None and s.family.terms == (Fraction(1, 2),)
    vals = s.all_values()
    L = math.log(3) / math.log(q.value)
    expect = sorted([0.0, L / 2, L])
    assert len(vals) == 3
    assert all(abs(a - b) < 1e-12 for a, b in zip(vals, expect))


def test_spectrum_band_term_counts():
    for m in range(1, 7):
        s = spectrum_of(band_midpoint(m))
        assert s.regime.m == m
        n_terms = 0 if s.family is None else len(s.family.terms)
        assert n_terms == m - 1
        if s.family is not None:
            assert s.family.terms == tuple(alternating_density(k) for k in range(1, m))
        assert len(set(s.all_values())) == m + 1
        # family values sit strictly between the endpoints
        if s.family is not None:
            for v in s.family.dims():
                assert 0 < v < s.log_ratio
        for v in s.all_values():
            assert 0 <= v <= s.log_ratio + 1e-15


def test_spectrum_at_kl():
    kl = bases.kl_constant(1e-10)
    s = spectrum_of(kl)
    assert s.regime.kind == "komornik_loreti"
    L = s.log_ratio
    assert sorted(s.isolated) == sorted([0.0, L, L / 3])
    assert s.family is not None
    assert s.family.accumulation_density == Fraction(1, 3)
    assert len(s.family.terms) == 32
    for k, t in enumerate(s.family.terms, start=1):
        assert abs(t - Fraction(1, 3)) == Fraction(1, 3 * 2 ** k)


def test_spectrum_at_kl_takes_kl_terms():
    kl = bases.kl_constant()
    # the terms are sliced from one cached run, whichever length came first
    for n in (5, 40, 5, MAX_KL_TERMS, 1):
        terms = spectrum_of(kl, kl_terms=n).family.terms
        assert terms == tuple(alternating_density(k) for k in range(1, n + 1)), n
    # the messages the CLI prints for --kl-terms out of range, in every regime
    for q in (kl, "2.45", "2.9", bases.base_root(3)):
        with pytest.raises(DomainError, match="^kl_terms must be a positive integer$"):
            spectrum_of(q, kl_terms=0)
        with pytest.raises(DomainError,
                           match=f"^kl_terms {MAX_KL_TERMS + 1} exceeds cap {MAX_KL_TERMS}$"):
            spectrum_of(q, kl_terms=MAX_KL_TERMS + 1)


def test_spectrum_interval_regime():
    s = spectrum_of("2.9")
    assert s.regime.kind == "interval"
    assert s.interval is not None
    assert repr(s.interval) == (
        f"IntervalPart(lo={s.interval.lo!r}, hi={s.interval.hi!r}, lo_density=Fraction(1, 4), "
        "hi_density=Fraction(1, 2), sft_n=1, containment_only=True)")
    assert s.interval.containment_only
    assert 0 < s.interval.lo < s.interval.hi < s.log_ratio
    assert sorted(s.isolated) == sorted([0.0, s.log_ratio])


def test_sft_matrix_rows():
    assert SFT_NEXT == {"a": ("b", "abar"), "b": ("abar",), "abar": ("a", "bbar"),
                        "bbar": ("a",)}


def test_sft_letters_at_scale_two():
    letters = sft_letters(2)
    assert letters["a"] == (0, 1, 0, -1)
    assert letters["b"] == (-1, 1, 0, -1)
    assert letters["abar"] == (0, -1, 0, 1)
    assert letters["bbar"] == (1, -1, 0, 1)


def test_sft_paths_admissible():
    for path in U1_PATHS + U2_PATHS:
        assert sft_letter_path_allowed(path)
    assert not sft_letter_path_allowed(("a", "a"))
    assert "a" not in SFT_NEXT["b"]


def test_certified_cycles_and_witness_junctions_are_sft_edges():
    for u, v in zip(SFT_MAX_CYCLE, SFT_MAX_CYCLE[1:] + SFT_MAX_CYCLE[:1]):
        assert v in SFT_NEXT[u], (u, v)
    for q in ("2.6", "2.9"):
        spec = sft_spec(q)
        d1, d2 = sft_densities(spec)
        wit = interval_witness(spec, (d1 + d2) / 2, 4000)
        assert min(wit.block_counts) > 0  # u1 -> u2 and u2 -> u1 junctions both occur
        names = {word: name for name, word in spec.letters.items()}
        size = 2 ** spec.n
        for coord in (0, 1):
            digits = tuple(p[coord] for p in wit.pairs)
            path = [names[digits[i:i + size]] for i in range(0, len(digits), size)]
            for u, v in zip(path, path[1:]):
                assert v in SFT_NEXT[u], (q, coord, u, v)


def test_sft_spec_finds_scale_one():
    for q in ("2.6", "2.75", "2.9"):
        spec = sft_spec(q)
        assert spec.n == 1


def test_sft_spec_requires_interval_regime():
    with pytest.raises(DomainError):
        sft_spec("2.3")


def _primitive_cycles(max_letters: int) -> list:
    """Every primitive letter cycle of SFT_NEXT with at most max_letters
    letters, once each: in its least rotation."""
    found = []

    def grow(path):
        rotations = [path[i:] + path[:i] for i in range(1, len(path))]
        if path[0] in SFT_NEXT[path[-1]] and all(path < r for r in rotations):
            found.append(path)
        if len(path) < max_letters:
            for v in SFT_NEXT[path[-1]]:
                grow(path + (v,))

    for letter in SFT_NEXT:
        grow((letter,))
    return found


def _cycle_seq(letters: dict, path) -> Seq:
    return Seq((), tuple(d for name in path for d in letters[name]))


CYCLES_UP_TO_10 = _primitive_cycles(10)
CAPPED_KL = bases._kl(bases.LADDER_DIGITS_CAP)


def test_primitive_cycles_up_to_ten_letters():
    assert len(CYCLES_UP_TO_10) == 36
    assert SFT_MAX_CYCLE in CYCLES_UP_TO_10
    assert all(sft_letter_path_allowed(c) for c in CYCLES_UP_TO_10)


@pytest.mark.parametrize("offset", [Fraction(1, 10 ** 6), Fraction(6, 10 ** 5)])
def test_sft_spec_scale_carries_every_short_cycle_just_above_kl(offset):
    # The certificate covers the whole subshift: at the returned scale every
    # admissible cycle of up to 10 letters is a unique expansion.
    from gasket_spectrum.expansions import is_unique_expansion

    q = CAPPED_KL.hi + offset
    spec = sft_spec(q)
    bad = [c for c in CYCLES_UP_TO_10 if not is_unique_expansion(_cycle_seq(spec.letters, c), q)]
    assert not bad, (spec.n, bad)


def test_one_cycle_verdict_matches_every_short_cycle():
    from gasket_spectrum.expansions import is_unique_expansion

    rng = random.Random(31)
    near = [CAPPED_KL.hi + Fraction(rng.randint(1, 999), 10 ** rng.randint(6, 40)) for _ in range(6)]
    far = [CAPPED_KL.hi + Fraction(1, 1000) + Fraction(rng.randint(1, 10 ** 6), 10 ** 6) *
           (3 - CAPPED_KL.hi - Fraction(1, 1000)) for _ in range(6)]
    verdicts = set()
    for q in near + far:
        for n in range(1, 6):
            letters = sft_letters(n)
            one = is_unique_expansion(_cycle_seq(letters, SFT_MAX_CYCLE), q)
            every = all(is_unique_expansion(_cycle_seq(letters, c), q) for c in CYCLES_UP_TO_10)
            assert one == every, (float(q), n)
            verdicts.add(one)
    assert verdicts == {True, False}  # the grid holds both outcomes


def test_letter_order_and_greedy_successors_at_every_scale():
    # The facts the proof in sft_spec's docstring rests on.
    greedy = {"a": "abar", "abar": "bbar", "bbar": "a", "b": "abar"}
    for n in range(1, SFT_MAX_N + 1):
        letters = sft_letters(n)
        assert letters["bbar"] > letters["a"] > letters["abar"] > letters["b"], n
        assert {u: max(vs, key=letters.get) for u, vs in SFT_NEXT.items()} == greedy
        assert letters["a"][1:] == letters["b"][1:]
        assert letters["a"][-1] == letters["b"][-1] and letters["abar"][-1] == letters["bbar"][-1]
    assert all(greedy[u] == v for u, v in zip(SFT_MAX_CYCLE, SFT_MAX_CYCLE[1:] + SFT_MAX_CYCLE[:1]))
    assert set(SFT_MAX_CYCLE) == {"a", "abar", "bbar"}


SCALE_TABLE = (
    [pytest.param(Fraction(s), 1, id=s) for s in ("2.6", "2.75", "2.9", "2.99")]
    + [pytest.param(CAPPED_KL.hi + Fraction(m, 10 ** k), n, id=f"KL+{m}e-{k}")
       for m, k, n in ((1, 4, 1), (1, 6, 3), (6, 5, 3), (1, 20, 5), (1, 70, 7), (1, 100, 7),
                       (1, 150, 7), (1, 270, 9), (1, 300, 9), (1, 350, 9), (1, 400, 9),
                       (1, 430, 9))])


@pytest.mark.parametrize("q, n", SCALE_TABLE)
def test_sft_spec_scale_table(q, n):
    s = spectrum_of(q)
    assert s.interval.sft_n == n
    # oracle: the densities of the two extremal words are A(n + 1) < A(n)
    assert (s.interval.lo_density, s.interval.hi_density) == (
        alternating_density(n + 1), alternating_density(n))


def test_sft_spec_tests_one_cycle_per_scale(monkeypatch):
    from gasket_spectrum import expansions

    calls = []
    real = expansions.is_unique_expansion
    monkeypatch.setattr(expansions, "is_unique_expansion",
                        lambda seq, q: calls.append(seq) or real(seq, q))
    for q, n in ((Fraction("2.6"), 1), (CAPPED_KL.hi + Fraction(1, 10 ** 20), 5)):
        calls.clear()
        assert sft_spec(q).n == n
        assert calls == [_cycle_seq(sft_letters(k), SFT_MAX_CYCLE) for k in range(1, n + 1)]


def test_sft_spec_past_its_scale_cap_raises(monkeypatch):
    from gasket_spectrum import spectrum

    monkeypatch.setattr(spectrum, "SFT_MAX_N", 4)  # KL + 1e-20 needs scale 5
    with pytest.raises(CapabilityError, match="^no letter scale 1..4 embeds the subshift"):
        sft_spec(CAPPED_KL.hi + Fraction(1, 10 ** 20))


def test_sft_spec_at_the_closest_rational_above_the_capped_kl_is_bounded():
    # The nearest a rational base comes above the capped enclosure.
    start = time.perf_counter()
    s = spectrum_of(CAPPED_KL.hi + Fraction(1, 10 ** 470))
    elapsed = time.perf_counter() - start
    assert (s.interval.sft_n, s.interval.lo_density, s.interval.hi_density) == (
        9, Fraction(341, 1024), Fraction(171, 512))
    assert elapsed < 2.0


def test_sft_densities_formulas():
    # At every scale sft_spec may pick, both extremal words are matched and
    # the counted densities are (2z+1)/2^(n+1) < (2z+2)/2^(n+1), z the number
    # of zeros among the first 2^n - 1 difference terms: the order that
    # sft_densities proves rather than checks.
    from gasket_spectrum.spectrum import SFTSpec
    for n in range(1, SFT_MAX_N + 1):
        spec = SFTSpec(n=n, letters=sft_letters(n))
        assert all(analyze(u).matched for u in sft_pair_words(spec)), n
        d1, d2 = sft_densities(spec)
        z = sum(1 for d in tm_block(n)[:-1] if d == 0)
        assert d1 == Fraction(2 * z + 1, 2 ** (n + 1))
        assert d2 == Fraction(2 * z + 2, 2 ** (n + 1))
        assert d1 < d2


def test_sft_densities_at_scale_two_frozen():
    from gasket_spectrum.spectrum import SFTSpec
    d1, d2 = sft_densities(SFTSpec(n=2, letters=sft_letters(2)))
    assert (d1, d2) == (Fraction(3, 8), Fraction(1, 2))


def test_sft_pair_words_matched_and_letter_adjacent():
    spec = sft_spec("2.75")
    u1, u2 = sft_pair_words(spec)
    assert analyze(u1).matched and analyze(u2).matched


def test_interval_witness_constant_targets():
    spec = sft_spec("2.6")
    d1, d2 = sft_densities(spec)
    w1 = interval_witness(spec, d1, 2000)
    assert w1.achieved == d1 and w1.block_counts[1] == 0
    w2 = interval_witness(spec, d2, 2000)
    assert w2.achieved == d2 and w2.block_counts[0] == 0


def test_interval_witness_midpoint():
    spec = sft_spec("2.6")
    d1, d2 = sft_densities(spec)
    target = (d1 + d2) / 2
    w = interval_witness(spec, target, 10 ** 5)
    assert len(w.pairs) >= 10 ** 5
    assert abs(w.achieved - target) <= Fraction(2, 4 * 2 ** spec.n)


def test_interval_witness_rejects_outside_target():
    spec = sft_spec("2.6")
    d1, d2 = sft_densities(spec)
    with pytest.raises(DomainError):
        interval_witness(spec, d2 + Fraction(1, 100), 100)


def test_interval_witness_refuses_a_length_past_the_pair_cap(monkeypatch):
    from gasket_spectrum import matching, spectrum

    spec = sft_spec("2.6")
    d1, _ = sft_densities(spec)
    monkeypatch.setattr(spectrum, "sft_pair_words", lambda spec: pytest.fail("built"))
    with pytest.raises(ResourceLimitError, match=f"exceeds cap {matching.MAX_PAIR_LENGTH}$"):
        interval_witness(spec, d1, matching.MAX_PAIR_LENGTH + 1)
    with pytest.raises(ResourceLimitError):
        interval_witness(spec, d1, 10 ** 9)


def test_kl_density_check_bounds():
    rep = kl_density_check(2 ** 14)
    assert rep.passed
    fam = {row["family"]: row for row in rep.stats["families"]}
    assert fam["j=1,l=1"]["abs_dev"] < Fraction(1, 384)
    for row in rep.stats["families"]:
        assert row["abs_dev"] < Fraction(1, 100)


def test_kl_density_block_rows():
    rep = kl_density_check(2 ** 10, scales=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
    assert rep.passed
    assert len(rep.stats["blocks"]) == 10


def test_kl_density_block_rows_match_four_block_concatenation():
    rep = kl_density_check(2 ** 10, scales=tuple(range(1, 13)))
    assert rep.passed and not rep.counterexamples
    for row in rep.stats["blocks"]:
        for k, w in zip(("B1", "B2", "B3", "B4"), four_block_b_blocks(row["n"])):
            assert row[k] == Fraction(w.count(0), len(w)), (row["n"], k)
    # The closed forms the rows are checked against, in their parity-branched shape.
    for n in range(1, 21):
        sign = (-1) ** n
        assert alternating_density(n + 1) == Fraction(1, 3) + Fraction(sign, 3 * 2 ** (n + 1))
        assert alternating_density(n + 2) == Fraction(1, 3) - Fraction(sign, 3 * 2 ** (n + 2))


def test_pure_alternating_tail_has_no_zeros():
    # the scale-0 periodic tail contains no zeros at all
    assert zero_fraction_seq(Seq((), (1, -1))) == 0


def test_spectrum_accepts_interval_input():
    b = bases.BaseValue(Fraction("2.898"), Fraction("2.902"))
    s = spectrum_of(b)
    assert s.regime.kind == "interval"
