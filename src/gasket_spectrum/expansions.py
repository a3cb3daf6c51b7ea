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
check terminates. The candidate digits sit in one tuple read by index, and
each tail is compared with certified digits of alpha in one pass. Against a
periodic alpha the pass has an exact length; otherwise a tie must be settled
within ALPHA_HORIZON digits, or the check fails loudly (PrecisionError).
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
from .words import Seq, Word, dec_last, reflect, tm_block, tm_diff

ALPHA_HORIZON = 4096  # digits of a non-periodic alpha that a comparison may read
MAX_WORD_LENGTH = 1 << 24  # longest tail word kl_tail builds


def interval_bound(q: Fraction) -> Fraction:
    """Largest representable value 1/(q-1); the representable set is symmetric."""
    return Fraction(1) / (q - 1)


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
    b = require_working_base(as_base_value(q))
    qf = b.midpoint
    t = x if isinstance(x, Fraction) else Fraction(x)
    bound = interval_bound(qf)
    if not (-bound <= t <= bound):
        raise DomainError(f"{float_str(t)} is outside the representable interval")
    if depth < 0:
        raise DomainError("depth must be nonnegative")
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
    """Certified digits of the quasi-greedy expansion of 1 in base q.

    Three backings: a periodic word (exact forever) for tagged ladder roots,
    the shifted difference sequence (exact forever) for the Komornik-Loreti
    tag, and the integer recursion for rational point bases. For an untagged
    genuine enclosure the digits are those on which the two endpoint
    expansions agree; asking past the agreement point raises PrecisionError.
    """

    def __init__(self, base: BaseValue):
        self._lock = threading.Lock()  # the cache hands one instance to every thread
        self._digits: list[int] = []
        self.periodic: tuple[Word, Word] | None = None  # (preperiod, period)
        if base.ladder_index is not None:
            if base.ladder_index < 2:
                raise DomainError("q = 2 is not a working base")
            per = dec_last(ladder_word(base.ladder_index).word, alphabet_min=0)
            self.periodic = ((), per)
            self._kind = "periodic"
        elif base.is_kl:
            self._kind = "kl"
        elif base.is_point:
            require_working_base(base)
            self._kind = "rational"
            self._q = base.lo
            self._res = Fraction(1)
        else:
            require_working_base(base)
            self._kind = "enclosure"
            self._lo_stream = AlphaDigits(BaseValue(base.lo, base.lo))
            self._hi_stream = AlphaDigits(BaseValue(base.hi, base.hi))

    def digit(self, i: int) -> int:
        """1-based certified digit; raises PrecisionError past the horizon cap."""
        if i < 1:
            raise DomainError("positions are 1-based")
        if self._kind == "periodic":
            pre, per = self.periodic
            if i <= len(pre):
                return pre[i - 1]
            return per[(i - 1 - len(pre)) % len(per)]
        if self._kind == "kl":
            return tm_diff(i) + 1
        if i > ALPHA_HORIZON:
            raise PrecisionError(f"alpha digit {i} exceeds the horizon cap {ALPHA_HORIZON}")
        if self._kind == "enclosure":
            a, b = self._lo_stream.digit(i), self._hi_stream.digit(i)
            if a != b:
                raise PrecisionError(
                    f"alpha digit {i} is not determined by the base enclosure")
            return a
        with self._lock:
            while len(self._digits) < i:
                qr = self._q * self._res
                d = (qr.numerator - 1) // qr.denominator if qr.denominator == 1 \
                    else qr.numerator // qr.denominator
                d = max(0, min(2, d))
                self._digits.append(d)
                self._res = qr - d
            return self._digits[i - 1]

    def word(self, depth: int) -> Word:
        return tuple(self.digit(i) for i in range(1, depth + 1))


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

    The digits are shifted to {0, 1, 2} once and read by index. Each tail is
    compared with alpha up to one limit: for a periodic alpha, agreement that
    far means equality for ever; otherwise the limit is the horizon cap.
    """
    digits = seq.preperiod + seq.period
    for d in digits:
        if d not in (-1, 0, 1):
            raise DomainError(f"digit {d!r} is not ternary")
    alpha = alpha_digits(q)
    c = tuple(d + 1 for d in digits)
    pre, per = len(seq.preperiod), len(seq.period)
    if alpha.periodic is not None:
        pre_a, per_a = alpha.periodic
        limit = pre + len(pre_a) + lcm(per, len(per_a)) + 1
    else:
        limit = ALPHA_HORIZON

    def at(j: int) -> int:
        return c[j - 1] if j <= pre else c[pre + (j - 1 - pre) % per]

    def reaches_alpha(k: int, reflected: bool) -> bool:
        """Whether the tail after position k (or its reflection) is >= alpha."""
        for i in range(1, limit + 1):
            a = 2 - at(k + i) if reflected else at(k + i)
            b = alpha.digit(i)
            if a != b:
                return a > b
        if alpha.periodic is None:
            raise PrecisionError(f"lexicographic comparison undecided after {limit} digits")
        return True

    for k, d in enumerate(c, start=1):
        if d < 2 and reaches_alpha(k, False):
            return UniquenessVerdict(False, k, "tail")
        if d > 0 and reaches_alpha(k, True):
            return UniquenessVerdict(False, k, "reflected_tail")
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
