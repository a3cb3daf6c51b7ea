"""Expansions of reals over {-1, 0, 1} in a base q in (2, 3).

Everything here is exact: sequence values are Fractions, the quasi-greedy
digits of 1 and the greedy digits of a rational are produced by one
recursion on a certified fixed-point residual, and the unique-expansion
decision is a finite lexicographic check.

The recursion holds the residual as an integer R over 2^P with an error
bound e over 2^P, and takes a digit only when both ends of that interval
give the same one. A digit that straddles restarts the run with twice the
bits; past the exact residual's size the run is exact on two integers. So
n digits take n steps on integers of about 2n bits, where an exact residual's
denominator grows by q's at every digit.

The uniqueness criterion: shift the candidate digits up by one so they live
in {0, 1, 2} and let alpha(q) be the quasi-greedy expansion of 1 in base q
over that alphabet (the largest expansion that never terminates in zeros).
A sequence (c_i) is the unique expansion of its value exactly when, for
every position n,

    c_n < 2  implies  c_{n+1} c_{n+2} ...            < alpha(q)
    c_n > 0  implies  (2-c_{n+1})(2-c_{n+2}) ...     < alpha(q)

with strict lexicographic comparisons. Increasing (decreasing) a digit is
compensable exactly when the corresponding tail value reaches 1, and the
quasi-greedy word is the lexicographic threshold for that. For eventually
periodic input only finitely many distinct (digit, tail) pairs occur, so the
check terminates. Each tail is one bytes slice, compared with a window of
certified alpha digits that doubles only on a tie. Against a periodic alpha
the window stops at an exact length; otherwise a tie must be settled within
ALPHA_HORIZON digits, or the check fails loudly (PrecisionError).

alpha is read off the Thue-Morse difference block wherever it is known in
closed form: at a tagged ladder root it is a period (alpha_period), at the
Komornik-Loreti tag the block shifted by one. alpha_prefix keeps the longest
prefix read at each base and serves shorter reads by slicing it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import lcm

from .bases import BaseValue, as_base_value, ladder_word, require_working_base
from .errors import DomainError, PrecisionError, ResourceLimitError
from .report import float_str
from .words import (MAX_WORD_LENGTH, Immutable, Seq, Word, block_word, dec_last, fields_repr,
                    keep_longer, reflect, tm_block)

ALPHA_HORIZON = 4096  # digits of a non-periodic alpha that a comparison may read
FIRST_WINDOW = 16  # alpha digits a comparison reads before a tie doubles the window
MAX_EXPAND_DEPTH = 4096  # digits greedy_expand produces; each costs more than the last
_REFLECT = bytes.maketrans(b"\x00\x01\x02", b"\x02\x01\x00")  # d -> 2 - d
_PARTED = b"\x03"  # ends an alpha run that no longer read extends; not a digit


def evaluate_exact(seq: Seq, q) -> Fraction:
    """Exact value sum_i s_i q^-i of an eventually periodic sequence at a
    rational q (an int, a Fraction or a float, taken at its exact value).

    With q = a/b, a word w of length L is worth W / a^L with
    W = sum_i w_i b^i a^(L-i), and the period, repeated, divides its integer
    by a^m - b^m instead; only the final Fraction pays for a gcd.
    """
    q = Fraction(q)
    a, b = q.numerator, q.denominator
    pre, a_pre, b_pre = _word_integer(seq.preperiod, a, b)
    per, a_per, b_per = _word_integer(seq.period, a, b)
    cycle = a_per - b_per
    return Fraction(pre * cycle + b_pre * per, a_pre * cycle)


def _word_integer(word: Word, a: int, b: int) -> tuple[int, int, int]:
    """(W, a^L, b^L), joining halves as W(uv) = W(u) a^|v| + b^|u| W(v), so
    a long word multiplies balanced integers instead of one digit at a time."""
    if len(word) < 2:
        return (word[0] * b, a, b) if word else (0, 1, 1)
    u, au, bu = _word_integer(word[:len(word) // 2], a, b)
    v, av, bv = _word_integer(word[len(word) // 2:], a, b)
    return u * av + bu * v, au * av, bu * bv


def evaluate(seq: Seq, q) -> float:
    """Float value of the sequence; exact up to one final rounding."""
    b = require_working_base(as_base_value(q))
    return float(evaluate_exact(seq, b.midpoint))


# ---------------------------------------------------------------------------
# Greedy expansion over {-1, 0, 1}
# ---------------------------------------------------------------------------

def greedy_expand(x, q, depth: int) -> Word:
    """Lexicographically largest admissible expansion of x, truncated to depth.

    At each step the residual t satisfies x = partial + q^-k t; the next digit
    is the largest d with q t - d still representable, d = min(1, floor(q t + 1/(q-1))).
    The truncation deficit obeys |x - partial| <= q^-depth / (q - 1).

    Shifted by 1/(q-1), the residual u = t + 1/(q-1) runs the greedy recursion
    over {0, 1, 2}: d + 1 = min(2, floor(q u)) and u becomes q u - (d + 1).
    """
    qf = require_working_base(as_base_value(q)).midpoint
    t = x if isinstance(x, Fraction) else Fraction(x)
    bound = 1 / (qf - 1)  # the largest representable value; the set is symmetric
    if not (-bound <= t <= bound):
        raise DomainError(f"{float_str(t)} is outside the representable interval")
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    if depth > MAX_EXPAND_DEPTH:
        raise ResourceLimitError(f"depth {depth} exceeds cap {MAX_EXPAND_DEPTH}")
    return tuple(d - 1 for d in _digit_run(qf, t + bound, depth))


def _digit_run(q: Fraction, u: Fraction | int, n: int, bits: int | None = None) -> bytes:
    """The first n digits over {0, 1, 2} of the greedy recursion at a working
    base 2 < q < 3: digit max(0, min(2, floor(q u))), then u -> q u - digit.

    From u = 1 these are the quasi-greedy digits of 1, whose rule
    ceil(q u) - 1 differs from floor only where q u is an integer; at a
    rational q that is not one, q u never is, for q would then be a root of a
    monic integer polynomial.

    The digit is monotone in q u, so it is certified once both ends of an
    enclosure of q u give it. A fixed-point run at `bits` bits (by default
    2n + 64, as its error bound grows by under 1.6 bits a digit) that stops
    short at a straddling digit is restarted with twice the bits. Once that
    would reach the exact residual's size, the run is exact on two integers
    instead (no gcd per step), so no input costs more than a few times the
    exact recursion. Only a q u that is an integer straddles at every
    precision, and only the greedy expansion of a rational x can reach one.
    """
    a, b = q.numerator, q.denominator
    bits = 2 * n + 64 if bits is None else bits
    while bits < u.denominator.bit_length() + n * b.bit_length():
        digits = _fixed_point_digits(a, b, u, n, bits)
        if len(digits) == n:
            return digits
        bits *= 2
    r, den, digits = u.numerator, u.denominator, bytearray()
    for _ in range(n):
        r, den = a * r, b * den  # q times the residual
        d = max(0, min(2, r // den))
        digits.append(d)
        r -= d * den
    return bytes(digits)


def _fixed_point_digits(a: int, b: int, u: Fraction | int, n: int, bits: int) -> bytes:
    """The digits of _digit_run at q = a/b up to the first that P = bits
    cannot certify.

    The residual is R / 2^P with error e / 2^P. One step sets T = a R // b,
    which is within ceil(a e / b) + 1 of 2^P q u; as q < 3 that is at most
    e' = 3 e + 1, a bound that costs no division (e grows by log2 3 < 1.6 bits
    a digit). The digit is taken only when T - e' and T + e' give the same
    one: their raw digits lo <= hi agree, or both clamp to 0 (hi <= 0) or to
    2 (lo >= 2).
    """
    r, e, digits = (u.numerator << bits) // u.denominator, 1, bytearray()
    for _ in range(n):
        t, e = a * r // b, 3 * e + 1
        lo, hi = (t - e) >> bits, (t + e) >> bits
        if lo != hi and hi > 0 and lo < 2:
            break
        d = 0 if lo < 0 else 2 if lo > 2 else lo
        digits.append(d)
        r = t - (d << bits)
    return bytes(digits)


# ---------------------------------------------------------------------------
# Quasi-greedy digits of 1 over {0, 1, 2}
# ---------------------------------------------------------------------------

def alpha_period(b: BaseValue) -> bytes | None:
    """The word that alpha(q) repeats for ever at a tagged ladder root, q_n's
    ladder word with its last digit lowered; None at every other base."""
    return None if b.ladder_index is None else _ladder_alpha_period(b.ladder_index)


@cache  # one entry per ladder index, at most MAX_LADDER_INDEX
def _ladder_alpha_period(n: int) -> bytes:
    if n < 2:
        raise DomainError("q = 2 is not a working base")
    return bytes(dec_last(ladder_word(n).word, alphabet_min=0))


def alpha_prefix(q, n: int) -> bytes:
    """The certified digits of alpha(q) among the first n, as bytes: all of
    them, except past the horizon cap of a rational base or where an
    enclosure's ends disagree.

    A tagged ladder root repeats alpha_period. Any other base keeps the
    longest run of _alpha_run read so far and serves a shorter read by
    slicing it, with n clamped to the horizon at a rational point, so a read
    past it reuses the run too. A run that an enclosure's ends cut short
    carries the _PARTED mark, so a read past it is served from it as well.
    """
    b = as_base_value(q)
    period = alpha_period(b)
    if period is not None:
        return period * (n // len(period)) + period[:n % len(period)]
    if b.is_point:
        n = min(n, ALPHA_HORIZON)
    longest = _longest_alpha(b)
    run = longest[0]
    if len(run) < n and not run.endswith(_PARTED):
        run = keep_longer(longest, _alpha_run(b, n))
    return run[:n].rstrip(_PARTED)


@lru_cache(maxsize=1024)  # bounded: every rational base would otherwise stay for good
def _longest_alpha(b: BaseValue) -> list:
    """A one-slot list holding the longest _alpha_run read at the working
    base b; grown by keep_longer, which keeps a _PARTED run for good, as it
    is longer than any run of its digits alone."""
    require_working_base(b)
    return [b""]


def _alpha_run(b: BaseValue, n: int) -> bytes:
    """The first n digits of alpha at an untagged base or the Komornik-Loreti
    tag: the difference block shifted by one for the tag; for a rational
    point, the recursion on a certified fixed-point residual (see _digit_run:
    a digit is taken only when both ends of the residual's error interval
    give it, and one that straddles restarts the run with twice the bits);
    for an enclosure, the common prefix of its ends, marked _PARTED once it
    is shorter than n, as no longer read extends it. Each is the prefix of
    any longer run at the same base."""
    if b.is_kl:
        return bytes(d + 1 for d in tm_block((n - 1).bit_length())[:n])
    if b.is_point:
        return _digit_run(b.lo, 1, n)
    lo, hi = (alpha_prefix(x, n) for x in (b.lo, b.hi))
    run = lo[:next((i for i, (x, y) in enumerate(zip(lo, hi)) if x != y), len(lo))]
    return run if len(run) == n else run + _PARTED


def _uncertified(i: int) -> PrecisionError:
    return PrecisionError(f"alpha digit {i} exceeds the horizon cap {ALPHA_HORIZON}" if i > ALPHA_HORIZON
                          else f"alpha digit {i} is not determined by the base enclosure")


def quasi_greedy_alpha(q, depth: int) -> Word:
    """First digits of the quasi-greedy expansion of 1 over {0, 1, 2}."""
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    digits = alpha_prefix(q, depth)
    if len(digits) < depth:
        raise _uncertified(len(digits) + 1)
    return tuple(digits)


# ---------------------------------------------------------------------------
# Uniqueness
# ---------------------------------------------------------------------------

class UniquenessVerdict(Immutable):
    __slots__ = ("unique", "failing_index", "clause")

    def __init__(self, unique: bool, failing_index: int | None = None,
                 clause: str | None = None):
        object.__setattr__(self, "unique", unique)
        object.__setattr__(self, "failing_index", failing_index)
        object.__setattr__(self, "clause", clause)  # "tail" or "reflected_tail"

    def __eq__(self, other):
        if not isinstance(other, UniquenessVerdict):
            return NotImplemented
        return (self.unique == other.unique and self.failing_index == other.failing_index
                and self.clause == other.clause)

    __repr__ = fields_repr

    def to_json_dict(self) -> dict:
        d: dict = {"unique": self.unique}
        if not self.unique:
            d["failing_index"] = self.failing_index
            d["clause"] = self.clause
        return d


def uniqueness_verdict(seq: Seq, q) -> UniquenessVerdict:
    """Full verdict with the failing position and violated clause on rejection.

    Each tail, or its reflection, is one bytes slice compared with a window of
    alpha that doubles on a tie up to one limit: agreement that far means
    equality for a periodic alpha, and a PrecisionError otherwise.
    """
    digits = seq.preperiod + seq.period
    for d in digits:
        if d not in (-1, 0, 1):
            raise DomainError(f"digit {d!r} is not ternary")
    b = as_base_value(q)
    period = alpha_period(b)
    c = bytes(d + 1 for d in digits)
    pre, per = len(seq.preperiod), len(seq.period)
    limit = ALPHA_HORIZON if period is None else pre + lcm(per, len(period)) + 1

    def lay_out(window: int) -> tuple[int, tuple[bytes, bytes], bytes]:
        line = c[:pre] + c[pre:] * (2 + window // per)  # every tail, window digits long
        return window, (line, line.translate(_REFLECT)), alpha_prefix(b, window)

    window, lines, a = lay_out(min(FIRST_WINDOW, limit))
    for k, d in enumerate(c, start=1):
        for reflected, clause, applies in ((0, "tail", d < 2), (1, "reflected_tail", d > 0)):
            if not applies:
                continue
            while (tail := lines[reflected][k:k + len(a)]) == a:  # a tie: widen the window
                if len(a) < window:
                    raise _uncertified(len(a) + 1)
                if window == limit:
                    if period is None:
                        raise PrecisionError(f"lexicographic comparison undecided after {limit} digits")
                    break
                window, lines, a = lay_out(min(2 * window, limit))
            if tail >= a:  # the tail reaches alpha
                return UniquenessVerdict(False, k, clause)
    return UniquenessVerdict(True)


def is_unique_expansion(seq: Seq, q) -> bool:
    return uniqueness_verdict(seq, q).unique


# ---------------------------------------------------------------------------
# Tail catalogue helpers
# ---------------------------------------------------------------------------

def catalogue_tail(n: int) -> Seq:
    """n-th catalogue tail: (0,) for n = 0, else block_word(n - 1), repeated."""
    if n < 0:
        raise DomainError("catalogue index must be nonnegative")
    if n == 0:
        return Seq((), (0,))
    return Seq((), block_word(n - 1))


def find_unique_with_tail(tail: Seq, q, max_preperiod: int = 64) -> Seq | None:
    """Search for a unique expansion ending with the given periodic tail.

    Preperiods 0^k, k = 0..max_preperiod, are tried in order and validated by
    the uniqueness check itself; None when the search is exhausted.
    """
    for k in range(max_preperiod + 1):
        cand = Seq((0,) * k + tail.preperiod, tail.period)
        if is_unique_expansion(cand, q):
            return cand
    return None


# ---------------------------------------------------------------------------
# Komornik-Loreti tail words
# ---------------------------------------------------------------------------

class KLTailDescriptor(Immutable):
    """Block exponents for the aperiodic tails at the Komornik-Loreti base.

    Stage k contributes (block_k reflect(block_k))^j[k] then
    (block_k reflect(block_{k+1}))^l[k]; the j and l patterns are cycled when
    shorter than the number of stages needed to reach the truncation length.
    """

    __slots__ = ("j", "l", "reflected", "truncate")

    def __init__(self, j: tuple[int, ...], l: tuple[int, ...], reflected: bool = False,
                 truncate: int = 64):
        if any(x < 0 for x in j):
            raise DomainError("j exponents must be nonnegative")
        if any(x not in (0, 1) for x in l):
            raise DomainError("l exponents must be bits")
        if truncate < 1:
            raise DomainError("truncation must be positive")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "reflected", reflected)
        object.__setattr__(self, "truncate", truncate)


def kl_tail(desc: KLTailDescriptor) -> Word:
    """Concatenated block word of the descriptor, truncated to its length."""
    if desc.truncate > MAX_WORD_LENGTH:
        raise ResourceLimitError(
            f"requested length {desc.truncate} exceeds cap {MAX_WORD_LENGTH}")
    if not any(desc.j) and not any(desc.l):
        raise DomainError("descriptor generates no digits")
    out: list[int] = []
    k = 0
    while len(out) < desc.truncate:
        jk = desc.j[k % len(desc.j)] if desc.j else 0
        lk = desc.l[k % len(desc.l)] if desc.l else 0
        for _ in range(jk):
            out.extend(block_word(k))
            if len(out) >= desc.truncate:
                break
        if lk and len(out) < desc.truncate:
            out.extend(tm_block(k) + reflect(tm_block(k + 1)))
        k += 1
    word = tuple(out[: desc.truncate])
    return reflect(word) if desc.reflected else word
