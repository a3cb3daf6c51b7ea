"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: uniqueness is decided
by exact residual-interval feasibility, sequence values by direct partial
summation, roots by plain float bisection on the literal polynomial, and
shifted pairings by a digit-by-digit scan.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from gasket_spectrum import bases
from gasket_spectrum.words import Seq, Word


def seq_digits(seq: Seq, n: int) -> list[int]:
    return [seq.digit(i) for i in range(1, n + 1)]


def partial_sum(seq: Seq, q: Fraction, terms: int) -> Fraction:
    total = Fraction(0)
    power = Fraction(1)
    for i in range(1, terms + 1):
        power /= q
        total += seq.digit(i) * power
    return total


def seq_value(seq: Seq, q: Fraction) -> Fraction:
    """Exact value via summation of preperiod plus a geometric period sum."""
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


def residual_unique(seq: Seq, q: Fraction) -> bool:
    """True iff no position admits an alternative digit with representable residual."""
    bound = Fraction(1) / (q - 1)
    t = seq_value(seq, q)
    for k in range(1, len(seq.preperiod) + len(seq.period) + 1):
        s_k = seq.digit(k)
        for d in (-1, 0, 1):
            if d != s_k and -bound <= q * t - d <= bound:
                return False
        t = q * t - s_k
    return True


def float_bisect(poly, lo: float, hi: float, iters: int = 100) -> float:
    """Plain float bisection; poly(lo) and poly(hi) must bracket a sign change."""
    flo = poly(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if (poly(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def band_midpoint(m: int) -> bases.BaseValue:
    """Rational point halfway between consecutive ladder roots."""
    lo = bases.base_root(m)
    hi = bases.base_root(m + 1)
    mid = (lo.hi + hi.lo) / 2
    return bases.BaseValue(mid, mid)


def lex_largest_prefix_bruteforce(x: Fraction, q: Fraction, depth: int) -> tuple:
    """Largest digit prefix extendable to a full expansion of x, by 3^depth search."""
    bound = Fraction(1) / (q - 1)
    best = None
    stack = [((), x)]
    while stack:
        prefix, t = stack.pop()
        if len(prefix) == depth:
            if best is None or prefix > best:
                best = prefix
            continue
        for d in (-1, 0, 1):
            r = q * t - d
            if -bound <= r <= bound:
                stack.append((prefix + (d,), r))
    return best


def scan_pair(x: Word, y: Word, i: int) -> tuple[bool, bool]:
    """(matched, has_zero_pair) of (shift-by-i of x^inf, y^inf) over one lcm period."""
    lx, ly = len(x), len(y)
    period = lx * ly // gcd(lx, ly)
    matched = True
    haszero = False
    for u in range(period):
        a = x[(u + i) % lx]
        b = y[u % ly]
        if a == b and (a == 1 or a == -1):
            matched = False
            if haszero:
                break
        elif a == 0 and b == 0:
            haszero = True
            if not matched:
                break
    return matched, haszero
