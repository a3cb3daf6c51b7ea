"""Expansions of reals over {-1, 0, 1} in a base q in (2, 3).

Everything here is exact: sequence values are Fractions, the quasi-greedy
digits of 1 are produced by an integer recursion, and the unique-expansion
decision is a finite lexicographic check.

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
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .bases import BaseValue, as_base_value, ladder_word, require_working_base
from .errors import DomainError, PrecisionError, ResourceLimitError
from .report import float_str
from .words import Seq, Word, dec_last, reflect, tm_block

ALPHA_HORIZON = 4096  # digits of a non-periodic alpha that a comparison may read
FIRST_WINDOW = 16  # alpha digits a comparison reads before a tie doubles the window
MAX_WORD_LENGTH = 1 << 24  # longest tail word kl_tail builds
MAX_EXPAND_DEPTH = 4096  # digits greedy_expand produces; each costs more than the last
_REFLECT = bytes.maketrans(b"\x00\x01\x02", b"\x02\x01\x00")  # d -> 2 - d


def evaluate_exact(seq: Seq, q: Fraction) -> Fraction:
    """Exact value sum_i s_i q^-i of an eventually periodic sequence."""
    v = Fraction(0)
    scale = Fraction(1)
    for d in seq.preperiod:
        scale /= q
        v += d * scale
    pv = Fraction(0)
    ps = Fraction(1)
    for d in seq.period:
        ps /= q
        pv += d * ps
    return v + scale * pv / (1 - ps)


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
    digits = []
    for _ in range(depth):
        shifted = qf * t + bound
        d = min(1, shifted.numerator // shifted.denominator)
        digits.append(d)
        t = qf * t - d
    return tuple(digits)


# ---------------------------------------------------------------------------
# Quasi-greedy digits of 1 over {0, 1, 2}
# ---------------------------------------------------------------------------

class AlphaDigits:
    """Certified digits of the quasi-greedy expansion of 1 in base q, as bytes.

    One backing per kind of base: the period, repeated, for a tagged ladder
    root; the difference block shifted by one for the Komornik-Loreti tag; for
    a rational point, the recursion up to the horizon cap on two integers (no
    gcd per step); for an untagged enclosure, the common prefix of its ends.
    """

    def __init__(self, base: BaseValue):
        self._lock = threading.Lock()  # the cache hands one instance to every thread
        self._digits, self._ends = b"", None
        self.period: Word | None = None  # alpha is this word repeated for ever
        if base.ladder_index is not None:
            if base.ladder_index < 2:
                raise DomainError("q = 2 is not a working base")
            self.period = dec_last(ladder_word(base.ladder_index).word, alphabet_min=0)
            self._digits = bytes(self.period)
        elif base.is_kl:
            self._grow = lambda _, n: bytes(d + 1 for d in tm_block((n - 1).bit_length()))
        elif base.is_point:
            require_working_base(base)
            self._grow = _recursion(base.lo)
        else:
            require_working_base(base)
            self._ends = [AlphaDigits(BaseValue(x, x)) for x in (base.lo, base.hi)]

    def prefix(self, n: int) -> bytes:
        """The certified digits among the first n: all of them, except past the
        horizon cap of a rational base or where an enclosure's ends disagree."""
        if self.period is not None:
            return self._digits * (n // len(self._digits)) + self._digits[:n % len(self._digits)]
        if self._ends is not None:
            lo, hi = (end.prefix(n) for end in self._ends)
            return lo[:next((i for i, (x, y) in enumerate(zip(lo, hi)) if x != y), len(lo))]
        with self._lock:
            if len(self._digits) < n:
                self._digits = self._grow(self._digits, n)
            return self._digits[:n]

    def word(self, depth: int) -> Word:
        digits = self.prefix(depth)
        if len(digits) < depth:
            raise _uncertified(len(digits) + 1)
        return tuple(digits)


def _recursion(q: Fraction):
    """The quasi-greedy recursion at q, run on to min(n, ALPHA_HORIZON) digits."""
    a, b = q.numerator, q.denominator
    r = den = 1  # the residual is r / den, two integers, so no step pays for a gcd

    def grow(digits: bytes, n: int) -> bytes:
        nonlocal r, den
        new = bytearray()
        for _ in range(len(digits), min(n, ALPHA_HORIZON)):
            r, den = a * r, b * den  # q times the residual
            d = max(0, min(2, (r - 1) // den))  # ceil(q * residual) - 1
            new.append(d)
            r -= d * den
        return digits + new

    return grow


def _uncertified(i: int) -> PrecisionError:
    return PrecisionError(f"alpha digit {i} exceeds the horizon cap {ALPHA_HORIZON}" if i > ALPHA_HORIZON
                          else f"alpha digit {i} is not determined by the base enclosure")


@lru_cache(maxsize=256)  # bounded: every rational base would otherwise stay for good
def _alpha(b: BaseValue) -> AlphaDigits:
    return AlphaDigits(b)


def alpha_digits(q) -> AlphaDigits:
    return _alpha(as_base_value(q))


def quasi_greedy_alpha(q, depth: int) -> Word:
    """First digits of the quasi-greedy expansion of 1 over {0, 1, 2}."""
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    return alpha_digits(q).word(depth)


# ---------------------------------------------------------------------------
# Uniqueness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniquenessVerdict:
    unique: bool
    failing_index: int | None = None
    clause: str | None = None  # "tail" or "reflected_tail"

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
    alpha = alpha_digits(q)
    c = bytes(d + 1 for d in digits)
    pre, per = len(seq.preperiod), len(seq.period)
    limit = ALPHA_HORIZON if alpha.period is None else pre + lcm(per, len(alpha.period)) + 1

    def lay_out(window: int) -> tuple[int, tuple[bytes, bytes], bytes]:
        line = c[:pre] + c[pre:] * (2 + window // per)  # every tail, window digits long
        return window, (line, line.translate(_REFLECT)), alpha.prefix(window)

    window, lines, a = lay_out(min(FIRST_WINDOW, limit))
    for k, d in enumerate(c, start=1):
        for reflected, clause, applies in ((0, "tail", d < 2), (1, "reflected_tail", d > 0)):
            if not applies:
                continue
            while (tail := lines[reflected][k:k + len(a)]) == a:  # a tie: widen the window
                if len(a) < window:
                    raise _uncertified(len(a) + 1)
                if window == limit:
                    if alpha.period is None:
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
    """n-th catalogue tail: (0,) for n = 0, else the block of exponent n-1
    followed by its reflection, repeated."""
    if n < 0:
        raise DomainError("catalogue index must be nonnegative")
    if n == 0:
        return Seq((), (0,))
    e = tm_block(n - 1)
    return Seq((), e + reflect(e))


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

@dataclass(frozen=True)
class KLTailDescriptor:
    """Block exponents for the aperiodic tails at the Komornik-Loreti base.

    Stage k contributes (block_k reflect(block_k))^j[k] then
    (block_k reflect(block_{k+1}))^l[k]; the j and l patterns are cycled when
    shorter than the number of stages needed to reach the truncation length.
    """
    j: tuple[int, ...]
    l: tuple[int, ...]
    reflected: bool = False
    truncate: int = 64

    def __post_init__(self) -> None:
        if any(x < 0 for x in self.j):
            raise DomainError("j exponents must be nonnegative")
        if any(x not in (0, 1) for x in self.l):
            raise DomainError("l exponents must be bits")
        if self.truncate < 1:
            raise DomainError("truncation must be positive")


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
        e = tm_block(k)
        for _ in range(jk):
            out.extend(e + reflect(e))
            if len(out) >= desc.truncate:
                break
        if lk and len(out) < desc.truncate:
            out.extend(e + reflect(tm_block(k + 1)))
        k += 1
    word = tuple(out[: desc.truncate])
    return reflect(word) if desc.reflected else word
