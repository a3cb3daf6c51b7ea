"""Reference computations for the benchmark's output checks.

None of these use the package under test, so a check built on them is
independent of the code it checks. Sequences are written as compact literals
'[PRE;]PER^inf' over '+', '0', '-' and handled as (preperiod, period) tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction

_DIGIT = {"+": 1, "0": 0, "-": -1}
_CHAR = {v: k for k, v in _DIGIT.items()}


def parse_literal(text: str) -> tuple[tuple, tuple]:
    if not text.endswith("^inf"):
        raise ValueError(f"not a sequence literal: {text!r}")
    pre, _, per = text[: -len("^inf")].rpartition(";")
    return tuple(_DIGIT[c] for c in pre), tuple(_DIGIT[c] for c in per)


def format_literal(pre, per) -> str:
    word = "".join(_CHAR[d] for d in per)
    return ("".join(_CHAR[d] for d in pre) + ";" if pre else "") + word + "^inf"


def alternating_density(n: int) -> Fraction:
    """(1 - (-1/2)^n) / 3: zero density of the n-th difference block."""
    return (1 - Fraction(-1, 2) ** n) / 3


def log_ratio(q: float) -> float:
    return math.log(3) / math.log(q)


def digit(pre, per, i: int):
    """1-based digit of pre . per^inf."""
    return pre[i - 1] if i <= len(pre) else per[(i - 1 - len(pre)) % len(per)]


def _horner(word, q: Fraction) -> Fraction:
    acc = Fraction(0)
    for d in reversed(word):
        acc = (acc + d) / q
    return acc


def value(pre, per, q: Fraction) -> Fraction:
    """Exact value sum_i s_i q^-i."""
    return _horner(pre, q) + _horner(per, q) / q ** len(pre) / (1 - 1 / q ** len(per))


def is_unique(pre, per, q: Fraction) -> bool:
    """Residual-interval test: the expansion is not unique exactly when at some
    position another digit leaves a residual inside [-1/(q-1), 1/(q-1)].
    After the preperiod and one period the residuals repeat, so those
    positions decide it."""
    bound = 1 / (q - 1)
    t = value(pre, per, q)
    for k in range(1, len(pre) + len(per) + 1):
        s_k = digit(pre, per, k)
        qt = q * t
        if any(d != s_k and -bound <= qt - d <= bound for d in (-1, 0, 1)):
            return False
        t = qt - s_k
    return True


def zero_density(per) -> Fraction:
    return Fraction(sum(1 for d in per if d == 0), len(per))


def pair_stats(x, y) -> tuple[bool, Fraction]:
    """(matched, zero-pair density) of the positionwise pairing of two
    sequences given as (pre, per): matched means no (1,1) or (-1,-1) pair."""
    pre_len = max(len(x[0]), len(y[0]))
    per_len = math.lcm(len(x[1]), len(y[1]))
    pairs = [(digit(*x, i), digit(*y, i)) for i in range(1, pre_len + per_len + 1)]
    matched = all(p not in ((1, 1), (-1, -1)) for p in pairs)
    zeros = sum(1 for p in pairs[pre_len:] if p == (0, 0))
    return matched, Fraction(zeros, per_len)
