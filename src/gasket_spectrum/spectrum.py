"""Zero densities, the dimension formula, and assembly of the dimension spectrum.

Densities are exact rationals end to end; floating point enters only in the
final multiplication by log 3 / log q. The spectrum has three shapes keyed by
the regime of q: a finite set in a ladder band, a countable set with one
accumulation point at the Komornik-Loreti base, and (above it) an interval
whose endpoints come from a small subshift of finite type inside the unique
expansion set. The interval is reported as contained in the spectrum, never
as all of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# expansions and matching are imported by the functions that use them, so the
# finite and Komornik-Loreti regimes load neither. MAX_KL_TERMS stays
# importable from here, where spectrum_of applies it.
from .bases import (DEFAULT_TOLERANCE, KL_TERMS, MAX_KL_TERMS, RegimeLabel, as_base_value,
                    check_kl_terms, classify, require_working_base)
from .errors import CapabilityError, DomainError, ResourceLimitError
from .words import Immutable, Seq, Word, fields_repr, reflect, tm_block

# The unique-expansion subshift as a successor table: letter -> letters that may follow.
SFT_NEXT = {"a": ("b", "abar"), "b": ("abar",), "abar": ("a", "bbar"), "bbar": ("a",)}
SFT_MAX_N = 12  # largest letter scale sft_spec tries


def zero_fraction(word: Word) -> Fraction:
    """Zero-digit frequency of a nonempty word."""
    if not word:
        raise DomainError("word must be nonempty")
    return Fraction(sum(1 for d in word if d == 0), len(word))


def zero_fraction_seq(seq: Seq) -> Fraction:
    """Zero-digit frequency within one period; equals the liminf frequency."""
    return zero_fraction(seq.period)


def alternating_density(n: int) -> Fraction:
    """Closed form (1 - (-1/2)^n) / 3 = (2^n - (-1)^n) / (3 2^n) for the zero
    density of the n-th block."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    return Fraction(2 ** n - (-1) ** n, 3 << n)


@lru_cache(maxsize=64)  # bounded: kl_terms may be any count up to MAX_KL_TERMS
def _densities(count: int) -> tuple:
    """(alternating_density(1), ..., alternating_density(count)): the family
    terms of spectrum_of."""
    return tuple(alternating_density(k) for k in range(1, count + 1))


def block_density_check(max_n: int) -> VerifierReport:
    """Exact equality of counted block zero densities with the closed form."""
    from .matching import VerifierReport

    counterexamples = []
    for n in range(0, max_n + 1):
        counted = zero_fraction(tm_block(n))
        formula = alternating_density(n)
        if counted != formula:
            counterexamples.append({"n": n, "counted": counted, "formula": formula})
    return VerifierReport(
        check="2.2",
        params={"max_n": max_n},
        passed=not counterexamples,
        counterexamples=counterexamples,
        stats={"blocks_checked": max_n + 1},
    )


def dimension(q, density) -> float:
    """log 3 / log q times the zero-pair density."""
    b = require_working_base(as_base_value(q))
    d = float(density)
    if not 0 <= d <= 1:
        raise DomainError("density must lie in [0, 1]")
    return math.log(3) / math.log(b.value) * d


# ---------------------------------------------------------------------------
# Subshift letters and the two extremal pair words
# ---------------------------------------------------------------------------

class SFTSpec(Immutable):
    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: dict):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)  # name -> Word, keyed as SFT_NEXT


def sft_letters(n: int) -> dict:
    """Four letters of length 2^n: 0 or -1 followed by the difference prefix."""
    if n < 1:
        raise DomainError("letter scale must be >= 1")
    prefix = tm_block(n)[:-1]
    a = (0,) + prefix
    b = (-1,) + prefix
    return {"a": a, "b": b, "abar": reflect(a), "bbar": reflect(b)}


def sft_letter_path_allowed(path: tuple[str, ...], cyclic: bool = True) -> bool:
    nxt = path[1:] + path[:1] if cyclic else path[1:]
    return all(v in SFT_NEXT[u] for u, v in zip(path, nxt))


U1_PATHS = (("b", "abar", "bbar", "a"), ("bbar", "a", "b", "abar"))
U2_PATHS = (("abar", "a"), ("a", "abar"))
# The cycles sft_spec certifies: both coordinates of the two extremal cycles, plus
# the two interleaved cycles that witness the cross junctions of interval_witness.
SFT_CERTIFIED_CYCLES = U1_PATHS + U2_PATHS + tuple(u1 + u2 for u1, u2 in zip(U1_PATHS, U2_PATHS))


def _path_word(letters: dict, path: tuple[str, ...]) -> Word:
    return tuple(d for name in path for d in letters[name])


def sft_pair_words(spec: SFTSpec) -> tuple[Seq, Seq]:
    """The two periodic pair words whose zero-pair densities bound the interval."""
    from .matching import zip_seqs

    u1, u2 = (zip_seqs(*(Seq((), _path_word(spec.letters, path)) for path in paths))
              for paths in (U1_PATHS, U2_PATHS))
    return u1, u2


def sft_spec(q, tolerance: float = DEFAULT_TOLERANCE) -> SFTSpec:
    """Smallest letter scale whose SFT_CERTIFIED_CYCLES are unique expansions at q.

    The admissibility oracle is the uniqueness check itself; scales are not
    monotone (a scale can fail while a smaller and a larger one pass), so the
    search walks n = 1, 2, ... up to the cap.
    """
    from .expansions import is_unique_expansion

    b = as_base_value(q)
    if classify(b, tolerance).kind != "interval":
        raise DomainError("the subshift construction applies above the Komornik-Loreti base")
    failures = []
    for n in range(1, SFT_MAX_N + 1):
        letters = sft_letters(n)
        if all(is_unique_expansion(Seq((), _path_word(letters, p)), b)
               for p in SFT_CERTIFIED_CYCLES):
            return SFTSpec(n=n, letters=letters)
        failures.append(n)
    raise CapabilityError(
        f"no letter scale up to {SFT_MAX_N} embeds in the unique-expansion "
        f"set at q ~ {b.value}; failed scales: {failures}")


def sft_densities(spec: SFTSpec) -> tuple[Fraction, Fraction]:
    """Exact zero-pair densities (d1, d2) of the two extremal words.

    Both words are matched and d1 < d2 by construction. Each pairs a letter
    path with its letterwise reflection (a <-> abar, b <-> bbar), so every
    pair is (d, -d): never (1,1) or (-1,-1), and (0,0) exactly where d = 0.
    With z the number of zeros in tm_block(n)[:-1], the letters a and abar
    hold z + 1 zeros and b and bbar hold z. The first word's path b abar bbar a
    has 4z + 2 zeros in 2^(n+2) digits, the second's abar a has 2z + 2 in
    2^(n+1), so d1 = (2z+1)/2^(n+1) < (2z+2)/2^(n+1) = d2.
    """
    from .matching import analyze

    d1, d2 = (analyze(u).zero_pair_density for u in sft_pair_words(spec))
    return d1, d2


class WitnessPrefix(Immutable):
    __slots__ = ("pairs", "target", "achieved", "block_counts")

    def __init__(self, pairs: tuple, target: Fraction, achieved: Fraction,
                 block_counts: tuple[int, int]):
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "achieved", achieved)
        object.__setattr__(self, "block_counts", block_counts)  # how many u1 / u2 blocks were used


def interval_witness(spec: SFTSpec, target, length: int) -> WitnessPrefix:
    """Greedy block concatenation whose running zero-pair frequency tracks target.

    Appends whichever extremal block moves the running frequency toward the
    target; the deviation at the end is at most one block's worth of digits
    over the total length. A length past MAX_PAIR_LENGTH is refused first.
    """
    from .matching import MAX_PAIR_LENGTH, analyze

    if length > MAX_PAIR_LENGTH:
        raise ResourceLimitError(f"witness length {length} exceeds cap {MAX_PAIR_LENGTH}")
    pair_words = sft_pair_words(spec)
    d1, d2 = (analyze(u).zero_pair_density for u in pair_words)
    t = Fraction(target)
    if not d1 <= t <= d2:
        raise DomainError(f"target {t} outside [{d1}, {d2}]")
    if length < 1:
        raise DomainError("length must be positive")
    # each block with its number of zero pairs
    blocks = [(u.period, int(d * len(u.period))) for u, d in zip(pair_words, (d1, d2))]
    pairs: list = []
    zeros, counts = 0, [0, 0]

    def miss(k: int) -> Fraction:  # distance from t once block k is appended
        block, z = blocks[k]
        return abs(Fraction(zeros + z, len(pairs) + len(block)) - t)

    while len(pairs) < length:
        k = 0 if miss(0) <= miss(1) else 1
        pairs.extend(blocks[k][0])
        zeros += blocks[k][1]
        counts[k] += 1
    return WitnessPrefix(
        pairs=tuple(pairs),
        target=t,
        achieved=Fraction(zeros, len(pairs)),
        block_counts=(counts[0], counts[1]),
    )


# ---------------------------------------------------------------------------
# Density bounds for the aperiodic tails at the Komornik-Loreti base
# ---------------------------------------------------------------------------

def kl_density_check(horizon: int,
                     scales: tuple[int, ...] = (1, 2, 3, 4, 5, 6)) -> VerifierReport:
    """Zero-frequency checks for the aperiodic tail family.

    Confirms the exact zero densities of the four concatenation blocks of
    scale n: alternating_density(n + 1) for B1 and B3, alternating_density(n + 2)
    for B2 and B4. The family rows are measured statistics, the deviation
    |freq - 1/3| of descriptor prefixes at the horizon; this check bounds none
    of them, and only acceptance c07 and the selftest compare the j=1,l=1 row
    with 1/384.
    """
    from .expansions import KLTailDescriptor, kl_tail
    from .matching import VerifierReport, b_blocks

    if horizon < 16:
        raise DomainError("horizon too small to be informative")
    counterexamples = []
    block_rows = []
    for n in scales:
        row = {"n": n}
        want = (alternating_density(n + 1), alternating_density(n + 2)) * 2
        for k, w, formula in zip(("B1", "B2", "B3", "B4"), b_blocks(n), want):
            row[k] = zero_fraction(w)
            if row[k] != formula:
                counterexamples.append({"n": n, "block": k, "counted": row[k], "formula": formula})
        block_rows.append(row)
    families = (("j=1,l=1", (1,), (1,)), ("j=0,l=1", (0,), (1,)),
                ("j=2,l=01", (2,), (0, 1)), ("j=13,l=10", (1, 3), (1, 0)))
    family_rows = []
    for label, j, l in families:
        freq = zero_fraction(kl_tail(KLTailDescriptor(j, l, truncate=horizon)))
        family_rows.append({"family": label, "freq": freq, "abs_dev": abs(freq - Fraction(1, 3)),
                            "horizon": horizon})
    return VerifierReport(
        check="kl-density",
        params={"horizon": horizon, "scales": list(scales)},
        passed=not counterexamples,
        counterexamples=counterexamples,
        stats={"blocks": block_rows, "families": family_rows},
    )


# ---------------------------------------------------------------------------
# The spectrum
# ---------------------------------------------------------------------------

class FamilyPart(Immutable):
    __slots__ = ("terms", "accumulation_density", "log_ratio")

    def __init__(self, terms: tuple, accumulation_density: Fraction | None, log_ratio: float):
        object.__setattr__(self, "terms", terms)  # Fractions, the densities
        object.__setattr__(self, "accumulation_density", accumulation_density)
        object.__setattr__(self, "log_ratio", log_ratio)

    def dims(self) -> tuple:
        return tuple(self.log_ratio * float(t) for t in self.terms)

    def to_json_dict(self) -> dict:
        d = {
            "terms": [{"density": t, "dim": self.log_ratio * float(t)} for t in self.terms],
        }
        if self.accumulation_density is not None:
            d["accumulation"] = {
                "density": self.accumulation_density,
                "dim": self.log_ratio * float(self.accumulation_density),
            }
        return d


class IntervalPart(Immutable):
    __slots__ = ("lo", "hi", "lo_density", "hi_density", "sft_n", "containment_only")

    def __init__(self, lo: float, hi: float, lo_density: Fraction, hi_density: Fraction,
                 sft_n: int, containment_only: bool = True):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_density", lo_density)
        object.__setattr__(self, "hi_density", hi_density)
        object.__setattr__(self, "sft_n", sft_n)
        object.__setattr__(self, "containment_only", containment_only)

    __repr__ = fields_repr

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class DimensionSpectrum(Immutable):
    __slots__ = ("regime", "log_ratio", "isolated", "family", "interval")

    def __init__(self, regime: RegimeLabel, log_ratio: float, isolated: tuple,
                 family: FamilyPart | None, interval: IntervalPart | None):
        object.__setattr__(self, "regime", regime)
        object.__setattr__(self, "log_ratio", log_ratio)
        object.__setattr__(self, "isolated", isolated)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "interval", interval)

    def all_values(self) -> tuple:
        vals = list(self.isolated)
        if self.family is not None:
            vals.extend(self.family.dims())
        return tuple(sorted(set(vals)))

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime.to_json_dict(),
            "log_ratio": self.log_ratio,
            "isolated": list(self.isolated),
            "family": None if self.family is None else self.family.to_json_dict(),
            "interval": None if self.interval is None else self.interval.to_json_dict(),
        }


def spectrum_of(q, tolerance: float = DEFAULT_TOLERANCE,
                kl_terms: int = KL_TERMS) -> DimensionSpectrum:
    """Dimension spectrum of gasket self-intersections at base q, classified at tolerance.

    Finite band m: {0, log3/logq} plus the family terms for scales 1..m-1.
    Komornik-Loreti: adds the accumulation point at one third of the maximum
    and the family's first kl_terms terms (1..MAX_KL_TERMS). Above it: endpoints
    0 and the maximum plus an interval certified as contained in the spectrum.
    """
    check_kl_terms(kl_terms)
    b = as_base_value(q)
    label = classify(b, tolerance)
    log_ratio = math.log(3) / math.log(b.value)
    isolated, family, interval = (0.0, log_ratio), None, None
    if label.kind == "finite":
        family = FamilyPart(_densities(label.m - 1), None, log_ratio) if label.m > 1 else None
    elif label.kind == "komornik_loreti":
        family = FamilyPart(_densities(kl_terms), Fraction(1, 3), log_ratio)
        isolated += (log_ratio / 3,)
    else:
        spec = sft_spec(b, tolerance)
        d1, d2 = sft_densities(spec)
        interval = IntervalPart(log_ratio * float(d1), log_ratio * float(d2), d1, d2, spec.n)
    return DimensionSpectrum(label, log_ratio, isolated, family, interval)
