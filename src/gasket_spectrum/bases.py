"""The base ladder, its roots, the Komornik-Loreti constant, and regime classification.

Every numeric base is carried as a BaseValue: an exact rational enclosure
[lo, hi] certified by a sign change, optionally tagged with its provenance
(ladder index n, or the Komornik-Loreti limit). Tags are what make the
right-closed band boundaries decidable; bare numerics can never certify
equality with an irrational ladder point.

Every root is found by one bisection on the sign of a value function minus
1. An uncertified Illinois (regula falsi) estimate r of the crossing decides
each halving step (a mid below r lies left of the crossing), and only the two
final ends are certified; if either fails, the halving runs again with every
mid certified. A step sent to the wrong side would leave the crossing outside
the final interval, so certified ends imply the enclosure of the fully
certified bisection. The ladder value V_n(q) = sum_i w_n[i] q^-i, with
L = 2^(n-1) digits, and its limit S(q) are one function of x = 1/q: the
Thue-Morse signs satisfy sum_{i<2^m} (-1)^(t_i) x^i = prod_{k<m} (1 - x^(2^k)),
so

    V_n(q) = (1 + x^L - (1 - x) P(x))/2 + x (1 - x^L)/(1 - x),
    P(x) = prod_{k<n-1} (1 - x^(2^k)),

and S(q) is the same with x^L = 0 and every factor. The factors stop after
n - 1 of them or once x^(2^k) < 10^-(prec+2), which moves the value by less
than 3 10^-(prec+2), so enclosures reach the 400+ digit separations of the
deeper roots in O(log prec) Decimal operations. Signs are certified against a
noise band of 10^(8-prec), far wider than the cut, with a 30-digit guard
margin; inside the band the precision is raised until the sign is certain
(midpoints are rational, the roots irrational for n >= 2 and the limit
transcendental, so this terminates). A rational point inside the KL
enclosure tightens it until the point falls outside.

A rational point below KL is placed among the roots by bisection over one
table per enclosure precision, holding the roots certified so far in index
order; the next root is certified only when the point lies above all of them,
so a band-m point certifies roots 2..m+1, as a scan in index order would.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from functools import cache
from operator import attrgetter

from .errors import AmbiguousClassificationError, DomainError, PrecisionError
from .report import float_str
from .words import Immutable, Word, fields_repr, keep_longer, tm_block

DEFAULT_TOLERANCE = 1e-12  # enclosure width asked of roots and of the limit base
MAX_LADDER_INDEX = 24  # ladder word 24 has 2^23 digits
KL_TERMS = 32  # family terms a Komornik-Loreti spectrum lists by default
MAX_KL_TERMS = 1024  # family terms a KL report lists; its size grows quadratically
LADDER_DIGITS_CAP = 460  # deepest enclosure, in decimal digits
# Largest |decimal exponent| of a numeric literal: 10^k exactly is a k-digit
# integer, built in ~0.3 s at k = 10^6 and ~11 s at 10^7 (2-vCPU host).
MAX_DECIMAL_EXPONENT = 10 ** 6
# Most coefficient digits of a decimal literal, the limit int() puts on a p/q
# literal: at exponent -10^6, 130000 digits convert in ~3.5 s, 4300 in < 0.5 s.
MAX_DECIMAL_DIGITS = 4300


class LadderWord(Immutable):
    __slots__ = ("n", "word")

    def __init__(self, n: int, word: Word):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "word", word)


class BaseValue(Immutable):
    __slots__ = ("lo", "hi", "ladder_index", "is_kl", "_hash")

    def __init__(self, lo: Fraction, hi: Fraction, ladder_index: int | None = None,
                 is_kl: bool = False):
        if lo > hi:
            raise DomainError("enclosure endpoints out of order")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "ladder_index", ladder_index)
        object.__setattr__(self, "is_kl", is_kl)
        object.__setattr__(self, "_hash", None)

    def __eq__(self, other):
        if not isinstance(other, BaseValue):
            return NotImplemented
        return (self.lo == other.lo and self.hi == other.hi
                and self.ladder_index == other.ladder_index and self.is_kl == other.is_kl)

    def __hash__(self) -> int:
        # Hashing a 400-digit Fraction takes microseconds: most values are
        # never hashed, and the alpha cache hashes its key on every lookup, so
        # the first call hashes and keeps the result. Equal values share lo and
        # hi; hash(None) varies between processes, so the tags stay out of it.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.lo, self.hi)))
        return self._hash

    @property
    def value(self) -> float:
        return float(self.midpoint)

    @property
    def radius(self) -> float:
        return float((self.hi - self.lo) / 2)

    @property
    def midpoint(self) -> Fraction:
        return self.lo if self.is_point else (self.lo + self.hi) / 2

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi


class RegimeLabel(Immutable):
    __slots__ = ("kind", "m")

    def __init__(self, kind: str, m: int | None = None):
        object.__setattr__(self, "kind", kind)  # "finite" | "komornik_loreti" | "interval"
        object.__setattr__(self, "m", m)

    def __eq__(self, other):
        if not isinstance(other, RegimeLabel):
            return NotImplemented
        return self.kind == other.kind and self.m == other.m

    def __hash__(self) -> int:
        return hash((self.kind, self.m))

    __repr__ = fields_repr

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.m is not None:
            d["m"] = self.m
        return d


def parse_rational(text: str, what: str) -> Fraction:
    """A p/q or decimal literal as an exact rational; what names it in errors.
    A decimal exponent, in scientific notation, beyond +-MAX_DECIMAL_EXPONENT,
    or a coefficient of more than MAX_DECIMAL_DIGITS digits, is refused before
    the exact value is built."""
    try:
        if "/" in text:
            return Fraction(text)
        d = Decimal(text)
        if d.is_finite() and abs(d.adjusted()) > MAX_DECIMAL_EXPONENT:
            raise DomainError(
                f"decimal exponent of {text!r} lies beyond the cap of +-{MAX_DECIMAL_EXPONENT}")
        digits = len(d.as_tuple().digits) if d.is_finite() else 0
        if digits > MAX_DECIMAL_DIGITS:
            raise DomainError(f"decimal coefficient of {digits} digits lies beyond "
                              f"the cap of {MAX_DECIMAL_DIGITS}")
        return Fraction(d)
    except (ValueError, ArithmeticError) as exc:
        raise DomainError(f"cannot parse {what} {text!r}") from exc


def as_base_value(q) -> BaseValue:
    """Coerce a float, Fraction, decimal string, or BaseValue to a point enclosure."""
    if isinstance(q, BaseValue):
        return q
    if isinstance(q, Fraction):
        x = q
    elif isinstance(q, int):
        x = Fraction(q)
    elif isinstance(q, float):
        if not math.isfinite(q):
            raise DomainError(f"cannot interpret {q!r} as a base")
        x = Fraction(q)  # exact binary value
    elif isinstance(q, str):
        x = parse_rational(q, "base")
    else:
        raise DomainError(f"cannot interpret {q!r} as a base")
    return BaseValue(x, x)


def require_working_base(b: BaseValue) -> BaseValue:
    if not (b.lo > 2 and b.hi < 3):
        lo = float_str(b.lo)
        hi = lo if b.hi == b.lo else float_str(b.hi)
        raise DomainError(f"base enclosure [{lo}, {hi}] is not inside (2, 3)")
    return b


# ---------------------------------------------------------------------------
# Ladder words
# ---------------------------------------------------------------------------

def _check_ladder_index(n: int) -> None:
    if n < 1:
        raise DomainError("ladder index must be >= 1")
    if n > MAX_LADDER_INDEX:
        raise PrecisionError(f"ladder index {n} exceeds cap {MAX_LADDER_INDEX}")


def _check_tolerance(tolerance) -> None:
    if not 0 < tolerance < math.inf:
        raise DomainError("tolerance must be positive and finite")


def check_kl_terms(kl_terms: int) -> None:
    """Refuse a KL family size outside 1..MAX_KL_TERMS."""
    if kl_terms < 1:
        raise DomainError("kl_terms must be a positive integer")
    if kl_terms > MAX_KL_TERMS:
        raise DomainError(f"kl_terms {kl_terms} exceeds cap {MAX_KL_TERMS}")


def ladder_word(n: int) -> LadderWord:
    """n-th ladder word over {0,1,2}, of length 2^(n-1): the difference block
    of exponent n - 1 shifted up by one. Equivalently, start at "2", append
    the {0,1,2}-reflection d -> 2 - d and increment the last digit."""
    _check_ladder_index(n)
    return LadderWord(n, tuple(d + 1 for d in tm_block(n - 1)))


# ---------------------------------------------------------------------------
# Certified bisection
# ---------------------------------------------------------------------------

def _value_dec(q: Decimal, n: float = math.inf) -> Decimal:
    """V_n(q) by the Thue-Morse product, or the limit S(q) at n = inf; the
    factors stop after n - 1 of them or once x^(2^k) < 10^-(prec+2) at the
    current context precision."""
    x = 1 / q
    cut = Decimal(10) ** -(getcontext().prec + 2)
    product, u, k = Decimal(1), x, 0
    while k < n - 1 and u >= cut:
        product *= 1 - u
        u = u * u
        k += 1
    if u < cut:  # x^L, or a factor past the cut
        u = 0
    return (1 + u - (1 - x) * product) / 2 + x * (1 - u) / (1 - x)


@cache
def _tolerance_digits(tolerance) -> int:
    """The least d >= 1 with 10^-d <= tolerance, counted exactly."""
    _check_tolerance(tolerance)
    tol = Fraction(tolerance)
    c = -(-tol.denominator // tol.numerator)  # 10^-d <= tol exactly when 10^d >= c
    d = max(1, (c.bit_length() - 1) * 30102 // 100000)  # a lower bound: log10(2) > 0.30102
    while 10 ** d < c:
        d += 1
    return d


def _table_digits(tolerance) -> int:
    """Digits a tolerance asks of every root enclosure: with the index they
    fix each root's width, so they key the root table."""
    return min(max(_tolerance_digits(tolerance), 40), LADDER_DIGITS_CAP)


def _width_digits(n: int, tolerance: float) -> int:
    sep_digits = math.ceil(0.404 * (2 ** (n - 1))) + 30
    return min(max(_table_digits(tolerance), sep_digits), LADDER_DIGITS_CAP)


def _certified_sign(valfn, mid: Decimal, prec: int) -> int:
    """Sign of valfn(mid) - 1, raising precision until outside the noise band."""
    p = prec
    for _ in range(8):
        with localcontext() as ctx:
            ctx.prec = p
            v = valfn(Decimal(mid))
            noise = Decimal(10) ** (8 - p)
            if v - 1 > noise:
                return 1
            if v - 1 < -noise:
                return -1
        p = p * 2
    raise PrecisionError("sign could not be certified")


_CROSSING_STEPS = 200  # Illinois steps; every root and KL depth needs at most 20


def _crossing(valfn, lo: Decimal, hi: Decimal, prec: int) -> Decimal:
    """Estimate of the crossing of valfn = 1 in [lo, hi] by the Illinois
    variant of regula falsi at prec digits. It stops once the bracket is 10^5
    units of the last place wide, or once the step falls below the last place
    and the estimate rounds onto an end. Uncertified: only a guide for _bisect."""
    with localcontext() as ctx:
        ctx.prec = prec
        width = Decimal(10) ** (5 - prec)
        flo, fhi = valfn(lo) - 1, valfn(hi) - 1
        kept = 0  # +1 if lo was kept by the last step, -1 if hi was
        for _ in range(_CROSSING_STEPS):
            c = (lo * fhi - hi * flo) / (fhi - flo)
            if not lo < c < hi or hi - lo <= width:
                break
            fc = valfn(c) - 1
            if fc > 0:
                lo, flo = c, fc
                if kept < 0:
                    fhi /= 2
                kept = -1
            elif fc < 0:
                hi, fhi = c, fc
                if kept > 0:
                    flo /= 2
                kept = 1
            else:
                break
        return c


def _halve(lo: Decimal, hi: Decimal, digits: int, above) -> tuple[Decimal, Decimal]:
    """Halve [lo, hi] down to width 10^-digits, keeping the right half of mid
    when above(mid), i.e. when valfn(mid) > 1."""
    target = Decimal(10) ** (-digits)
    with localcontext() as ctx:
        ctx.prec = digits + 40
        while hi - lo > target:
            mid = (lo + hi) / 2
            if above(mid):
                lo = mid
            else:
                hi = mid
    return lo, hi


def _bisect(valfn, lo: Decimal, hi: Decimal, digits: int) -> tuple[Fraction, Fraction]:
    """Shrink [lo, hi] to width 10^-digits around the crossing of valfn = 1;
    valfn falls as q grows, so a value above 1 lies left of the crossing.

    The halving is replayed against an uncertified estimate r of the crossing
    (mid goes left of the crossing when mid < r), and only its two final ends
    are certified. valfn - 1 changes sign once in [lo, hi] and no rational mid
    is the irrational crossing, so a step sent to the wrong side would leave
    the crossing outside the final interval and fail one end's certificate.
    Certified ends therefore imply the sign sequence, and the enclosure, that
    certifying every mid gives; if an end fails, that is what runs. An end
    still equal to the initial one is never evaluated, as in the full loop.
    """
    prec = digits + 30
    r = _crossing(valfn, lo, hi, prec + 10)
    a, b = _halve(lo, hi, digits, lambda mid: mid < r)
    if not ((a == lo or _certified_sign(valfn, a, prec) > 0)
            and (b == hi or _certified_sign(valfn, b, prec) < 0)):
        a, b = _halve(lo, hi, digits, lambda mid: _certified_sign(valfn, mid, prec) > 0)
    return Fraction(a), Fraction(b)


@cache
def _root(n: int, digits: int) -> BaseValue:
    lo, hi = _bisect(lambda q: _value_dec(q, n), Decimal(2), Decimal(3), digits)
    return BaseValue(lo, hi, ladder_index=n)


@cache
def _root_table(digits: int) -> list:
    """A one-slot list holding the roots 2, 3, ... certified so far at table
    precision digits, in index order; grown by keep_longer."""
    return [()]


def base_root(n: int, tolerance: float = DEFAULT_TOLERANCE) -> BaseValue:
    """Unique root in [2, 3) of 1 = V_n(q), as a certified rational enclosure.

    The enclosure width is min(tolerance, adaptive separation width); the
    adaptive schedule keeps consecutive roots' enclosures disjoint through
    n = 12 under the default digit cap.
    """
    _check_ladder_index(n)
    _check_tolerance(tolerance)
    if n == 1:
        return BaseValue(Fraction(2), Fraction(2), ladder_index=1)
    return _root(n, _width_digits(n, tolerance))


# ---------------------------------------------------------------------------
# Komornik-Loreti constant
# ---------------------------------------------------------------------------

_KL_INTERNAL_DIGITS = 80


@cache
def _kl(digits: int) -> BaseValue:
    lo, hi = _bisect(_value_dec, Decimal("2.5"), Decimal("2.6"), digits)
    return BaseValue(lo, hi, is_kl=True)


def _kl_digits(tolerance) -> int:
    digits = max(_tolerance_digits(tolerance), _KL_INTERNAL_DIGITS)
    if digits > LADDER_DIGITS_CAP:
        raise PrecisionError(f"tolerance {float(tolerance)} needs {digits} digits, "
                             f"beyond cap {LADDER_DIGITS_CAP}")
    return digits


def kl_constant(tolerance: float = DEFAULT_TOLERANCE) -> BaseValue:
    """Certified enclosure of the Komornik-Loreti constant for alphabet {0,1,2}.

    Bisects on S(q) - 1, S the ladder value of the module docstring with no
    bound on n; its product stops far inside the sign certifier's noise band,
    so the enclosure is certified rather than extrapolated. The internal width
    is at most 1e-80 even for loose tolerances: the ladder roots crowd the
    limit at double-exponential speed, so anything wider would not even sit
    above the n = 8 root. classify tightens it around a rational point until
    the point is outside.
    """
    return _kl(_kl_digits(tolerance))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def classify(q, tolerance: float = DEFAULT_TOLERANCE) -> RegimeLabel:
    """Regime of a base: finite band (q_m, q_{m+1}], the Komornik-Loreti point,
    or the interval regime above it.

    Tagged inputs classify exactly (band intervals are right-closed). An
    untagged enclosure reads as KL when it meets the KL enclosure and is no
    wider than tolerance; otherwise its endpoints are classified as points,
    and disagreement raises AmbiguousClassificationError rather than guessing.
    A rational point never equals KL: inside the KL enclosure it tightens the
    enclosure, and below KL it is placed among the certified ladder roots.
    """
    _check_tolerance(tolerance)
    b = as_base_value(q)
    if b.ladder_index is not None:
        if b.ladder_index == 1:
            raise DomainError("q = 2 is not a working base")
        return RegimeLabel("finite", b.ladder_index - 1)
    if b.is_kl:
        return RegimeLabel("komornik_loreti")
    require_working_base(b)
    if not b.is_point:
        kl = kl_constant(tolerance)
        if b.lo <= kl.hi and b.hi >= kl.lo and b.hi - b.lo <= tolerance:
            return RegimeLabel("komornik_loreti")
        low, high = classify(b.lo, tolerance), classify(b.hi, tolerance)
        if low != high:
            raise AmbiguousClassificationError("enclosure endpoints lie in different regimes")
        return low
    digits = _kl_digits(tolerance)
    kl = _kl(digits)
    while kl.lo <= b.lo <= kl.hi:
        if digits == LADDER_DIGITS_CAP:
            raise PrecisionError(f"base lies inside the {digits}-digit Komornik-Loreti enclosure")
        digits = min(2 * digits, LADDER_DIGITS_CAP)
        kl = _kl(digits)
    if b.lo > kl.hi:
        return RegimeLabel("interval")
    return _place(b.lo, tolerance)


def _place(x: Fraction, tolerance) -> RegimeLabel:
    """Band of a rational x below KL, decided by the first root n with
    hi_n >= x: finite n - 1 when lo_n > x, else x lies in root n's enclosure.
    bisect_left finds n among the certified roots, whose enclosures are
    disjoint through n = 12. Root n + 1 is certified only when x lies above
    every hi, as a scan in index order would.

    No x needs root 13: x < kl.lo for a KL enclosure of at most
    LADDER_DIGITS_CAP digits, root 12 is always certified to that cap
    (_width_digits(12, tolerance) == LADDER_DIGITS_CAP), and its hi lies above
    the cap's KL enclosure, so x < kl.lo < KL <= _kl(cap).hi < hi_12. A
    snapshot of the table plus the next root is a correct prefix, whoever races."""
    slot = _root_table(_table_digits(tolerance))
    roots = slot[0]
    while not roots or roots[-1].hi < x:
        roots = keep_longer(slot, roots + (base_root(len(roots) + 2, tolerance),))
    i = bisect_left(roots, x, key=attrgetter("hi"))
    if roots[i].lo > x:
        return RegimeLabel("finite", i + 1)
    raise AmbiguousClassificationError(f"base lies inside the enclosure of ladder point {i + 2}")
