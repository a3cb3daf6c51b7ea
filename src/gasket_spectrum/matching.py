"""Pair alphabet, pair matching of ternary sequences, and exhaustive shift verifiers.

A pair of ternary sequences is matched when no position pairs to (1,1) or
(-1,-1); those are exactly the digit pairs that cannot arise as a difference
of two gasket digits. All verifiers scan one full least common period, which
is a complete certificate for eventually periodic inputs.

The shift trichotomy ("3.1") and the cross-scale check ("3.4") decide every
shift with bitset scans: each word becomes three Python ints marking its +1,
-1 and 0 positions, and a shift is a rotation followed by an AND. "3.1"
computes for each shift only the outcome its verdict rests on, and the other
one only for a counterexample; "3.4" needs only the match outside n = m.

The bump check ("3.2") reports the first witness position of every shift.
It searches in two phases. The head tests positions 1..HEAD for all shifts
at once, one mask AND per position, and most shifts find their witness
there. The tail tests each shift still open on its own, in windows that
double from HEAD and are sliced from a byte copy of the masks. The total
stays near O(n 2^n / word) instead of one digit comparison per position.

The verifier wire names ("3.1", "3.2", "3.4") are the check identifiers used
by the CLI and JSON reports.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import DomainError
from .words import Seq, Word, dec_last, inc_last, reflect, tm_block

OMEGA1 = ((0, 0), (0, 1), (1, 0))
OMEGA2 = frozenset(
    (a[0] - b[0], a[1] - b[1]) for a in OMEGA1 for b in OMEGA1
)
_FORBIDDEN = ((1, 1), (-1, -1))


@dataclass(frozen=True)
class MatchReport:
    matched: bool
    first_violation_index: int | None
    zero_pair_density: Fraction
    zero_pair_in_period: bool
    period_length: int

    def to_json_dict(self) -> dict:
        return {
            "matched": self.matched,
            "first_violation_index": self.first_violation_index,
            "zero_pair_density": self.zero_pair_density,
            "zero_pair_in_period": self.zero_pair_in_period,
            "period_length": self.period_length,
        }


def zip_seqs(a: Seq, b: Seq) -> Seq:
    """Positionwise pairing; preperiod = max of the inputs', period = lcm."""
    pre_len = max(len(a.preperiod), len(b.preperiod))
    per_len = (len(a.period) * len(b.period)) // gcd(len(a.period), len(b.period))
    pre = tuple((a.digit(i), b.digit(i)) for i in range(1, pre_len + 1))
    per = tuple(
        (a.digit(i), b.digit(i)) for i in range(pre_len + 1, pre_len + per_len + 1)
    )
    return Seq(pre, per)


def analyze(p: Seq) -> MatchReport:
    """Scan the preperiod and one full period of a pair sequence."""
    matched, first_violation = True, None
    zero_in_period = False
    zeros = 0
    pre, per = p.preperiod, p.period
    for idx, pair in enumerate(pre + per, start=1):
        if pair[0] not in (-1, 0, 1) or pair[1] not in (-1, 0, 1):
            raise DomainError(f"entry {pair!r} is not a pair of ternary digits")
        if matched and pair in _FORBIDDEN:
            matched, first_violation = False, idx
        if idx > len(pre) and pair == (0, 0):
            zero_in_period = True
            zeros += 1
    return MatchReport(
        matched=matched,
        first_violation_index=first_violation,
        zero_pair_density=Fraction(zeros, len(per)),
        zero_pair_in_period=zero_in_period,
        period_length=len(per),
    )


def block_word(n: int) -> Word:
    """The period block(n) + reflect(block(n)) of length 2^(n+1)."""
    e = tm_block(n)
    return e + reflect(e)


def e_seq(n: int, m: int, i: int) -> Seq:
    """Pair of the i-shifted block period at scale n against the period at scale m."""
    if n < 1 or m < 1:
        raise DomainError("scales must be >= 1")
    if not 0 <= i < 2 ** (n + 1):
        raise DomainError(f"shift {i} outside [0, {2 ** (n + 1)})")
    return zip_seqs(Seq((), block_word(n)).shift(i), Seq((), block_word(m)))


# ---------------------------------------------------------------------------
# Lemma-style verifier reports
# ---------------------------------------------------------------------------

@dataclass
class VerifierReport:
    check: str
    params: dict
    passed: bool
    witnesses: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.check,
            "params": self.params,
            "pass": self.passed,
            "witnesses": self.witnesses,
            "counterexamples": self.counterexamples,
            "stats": self.stats,
        }


# bytes.translate tables for the +1, -1 and 0 masks: the code d + 1 of a
# ternary digit d becomes b"1" where d is the mask's digit, b"0" elsewhere
_BIT_TABLES = tuple(bytes.maketrans(b"\x00\x01\x02", to) for to in (b"001", b"100", b"010"))


def _masks(w: Word) -> tuple[int, int, int]:
    """The positions of +1, -1 and 0 in the ternary word w as bitmasks; bit r
    stands for w[r]."""
    codes = bytes([d + 1 for d in reversed(w)])
    return tuple(int(codes.translate(table), 2) for table in _BIT_TABLES)


def _fold(mask: int, width: int) -> int:
    """OR of the width-bit chunks of mask."""
    low = (1 << width) - 1
    folded = 0
    while mask:
        folded |= mask & low
        mask >>= width
    return folded


def _shift_tests(x: Word, y: Word) -> tuple[Callable[[int], bool], Callable[[int], bool]]:
    """matched(i) and has_zero_pair(i) of (shift-by-i of x^inf, y^inf) over
    one lcm period, for 0 <= i < len(x); len(y) must be a multiple of len(x).

    Pairing the shift-by-i of x^inf with y^inf puts x[(u+i) % lx] against
    y[u], and only u % lx decides the x digit, so y's masks are folded to lx
    bits once; x's masks are doubled so that a right shift by i < lx rotates
    them.
    """
    lx = len(x)
    mx = _masks(x)
    xp, xm, xz = ((m << lx) | m for m in mx)
    yp, ym, yz = (_fold(m, lx) for m in (mx if y is x else _masks(y)))

    def matched(i: int) -> bool:
        return not ((xp >> i) & yp or (xm >> i) & ym)

    def has_zero_pair(i: int) -> bool:
        return bool((xz >> i) & yz)

    return matched, has_zero_pair


def verify_shift_trichotomy(n: int) -> VerifierReport:
    """Check "3.1": for every shift 0 < i < 2^(n+1) of the scale-n period
    against itself, exactly one of three outcomes holds: the half-period
    shift is matched with zero pairs inside the period, odd shifts have no
    zero pair at all, and the remaining even shifts are unmatched.

    Each shift computes only the outcome its verdict needs; both outcomes
    are reported for the shifts that fail."""
    if n < 1:
        raise DomainError("scale must be >= 1")
    x = block_word(n)
    lx, half = len(x), 2 ** n
    matched, has_zero_pair = _shift_tests(x, x)
    failing = [i for i in range(1, lx, 2) if has_zero_pair(i)]
    failing += [i for i in range(2, lx, 2) if i != half and matched(i)]
    if not (matched(half) and has_zero_pair(half)):
        failing.append(half)
    counterexamples = [
        {"i": i,
         "expected": ("matched-with-zero-pair" if i == half
                      else "no-zero-pair" if i % 2 else "unmatched"),
         "matched": matched(i), "has_zero_pair": has_zero_pair(i)}
        for i in sorted(failing)
    ]
    return VerifierReport(
        check="3.1",
        params={"n": n},
        passed=not counterexamples,
        counterexamples=counterexamples,
        stats={"shifts_checked": 2 ** (n + 1) - 1},
    )


def _bump_word(n: int, variant: str) -> Word:
    e = tm_block(n)
    if variant == "minus":
        tail = dec_last(e)
    elif variant == "plain":
        tail = e
    else:
        raise DomainError(f"variant must be 'minus' or 'plain', not {variant!r}")
    return e + inc_last(reflect(e)) + reflect(e) + tail


def b_blocks(n: int) -> tuple[Word, Word, Word, Word]:
    """The four length-2^(n+2) concatenation blocks built from block(n)."""
    if n < 1:
        raise DomainError("scale must be >= 1")
    e = tm_block(n)
    eb_plus = inc_last(reflect(e))
    e_minus = dec_last(e)
    b1 = e + eb_plus + reflect(e) + e_minus
    b2 = e + eb_plus + reflect(e) + e
    b3 = reflect(e) + e_minus + e + eb_plus
    b4 = reflect(e) + e_minus + e + reflect(e)
    return b1, b2, b3, b4


# Positions the bump check tests for every shift at once before it searches
# the shifts still open one by one.
HEAD = 64


def _set_bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, read from its binary string."""
    bits = bin(mask)  # "0b", then bit top down to bit 0
    top = len(bits) - 1
    out = []
    j = bits.find("1", 2)
    while j >= 0:
        out.append(top - j)
        j = bits.find("1", j + 1)
    return out


def _first_witnesses(x: Word, y: Word, skip: int) -> list[tuple[int, int] | None]:
    """For every shift 0 <= i < len(x): (u, d) for the first position
    0 < u < len(y), u != skip, at which x[(u-1+i) % len(x)] == y[u-1] == d
    and d != 0, or None when no position qualifies. len(y) must be at most
    2 * len(x).

    Head: for u = 1..HEAD, shifting x's doubled d-mask right by (u-1) % len(x)
    puts at bit i whether shift i pairs a d with y[u-1] = d, so one AND with
    the open shifts decides every shift. Tail: each shift still open is tested
    on its own, in windows of u that double from HEAD, sliced from a byte copy
    of x's masks; x is tripled there so that a window never wraps.
    """
    lx, ly = len(x), len(y)
    y = list(y)
    y[skip - 1] = y[ly - 1] = 0  # neither position may witness
    first: list[tuple[int, int] | None] = [None] * lx
    xp, xm, _ = _masks(x)
    rot = {1: (xp << lx) | xp, -1: (xm << lx) | xm}
    open_ = (1 << lx) - 1
    for u in range(1, min(HEAD, ly) + 1):
        d = y[u - 1]
        if not d:
            continue
        hit = (rot[d] >> ((u - 1) % lx)) & open_
        if hit:
            open_ ^= hit
            for i in _set_bits(hit):
                first[i] = (u, d)
            if not open_:
                return first
    if ly <= HEAD:
        return first

    xp3, xm3 = ((m | (m << lx) | (m << 2 * lx)).to_bytes((3 * lx + 7) // 8, "little")
                for m in (xp, xm))
    yp, ym, _ = _masks(y)
    windows = []  # (lo, hi, +1 mask, -1 mask) of y over bits [lo, hi)
    lo = width = HEAD
    while lo < ly:
        hi = min(lo + width, ly)
        keep = (1 << (hi - lo)) - 1
        windows.append((lo, hi, (yp >> lo) & keep, (ym >> lo) & keep))
        lo, width = hi, 2 * width
    for i in _set_bits(open_):
        for lo, hi, wp, wm in windows:
            a, b, r = (lo + i) // 8, (hi + i + 7) // 8, (lo + i) % 8
            hp = (int.from_bytes(xp3[a:b], "little") >> r) & wp
            hm = (int.from_bytes(xm3[a:b], "little") >> r) & wm
            if hp or hm:
                low = (hp | hm) & -(hp | hm)
                first[i] = (lo + low.bit_length(), 1 if hp & low else -1)
                break
    return first


def verify_bump_witnesses(n: int, variant: str = "minus") -> VerifierReport:
    """Check "3.2": pairing the shifted scale-n period against the bumped
    four-block period always shows (1,1) or (-1,-1) at some position
    u in (0, 2^(n+2)) other than 2^(n+1); at the half-period shift the
    witness sits at position 2^(n+1)+1 with term (-1,-1)."""
    if n < 3:
        raise DomainError("the bump check needs scale >= 3")
    x = block_word(n)
    y = _bump_word(n, variant)
    lx, ly = len(x), len(y)
    skip = 2 ** (n + 1)
    shifts = list(enumerate(_first_witnesses(x, y, skip)))[1:]
    witnesses = [{"i": i, "u": hit[0], "term": [hit[1], hit[1]]} for i, hit in shifts if hit]
    counterexamples = [{"i": i, "reason": "no witness position"} for i, hit in shifts if not hit]
    # Half-period shift: the position right after the skipped index pairs the
    # reflected block against itself, so its first term must be (-1,-1).
    i = 2 ** n
    u = skip + 1
    a = x[(u - 1 + i) % lx]
    b = y[(u - 1) % ly]
    if (a, b) != (-1, -1):
        counterexamples.append(
            {"i": i, "u": u, "term": [a, b], "reason": "half-shift witness wrong"}
        )
    return VerifierReport(
        check="3.2",
        params={"n": n, "variant": variant},
        passed=not counterexamples,
        witnesses=witnesses,
        counterexamples=counterexamples,
        stats={"shifts_checked": 2 ** (n + 1) - 1},
    )


def verify_cross_scale(n: int, m: int) -> VerifierReport:
    """Check "3.4": pairing scale n against scale m > n is unmatched for every
    shift; for m = n the half-period shift is matched with zero pairs."""
    if not 1 <= n <= m:
        raise DomainError("need 1 <= n <= m")
    x = block_word(n)
    y = block_word(m)
    witnesses = []
    counterexamples = []
    matched, has_zero_pair = _shift_tests(x, y)
    if n == m:
        half = 2 ** n
        if matched(half) and has_zero_pair(half):
            witnesses.append({"i": half, "matched": True, "zero_pair": True})
        else:
            counterexamples.append(
                {"i": half, "matched": matched(half), "zero_pair": has_zero_pair(half)})
    else:
        for i in range(1, 2 ** (n + 1)):
            if matched(i):
                counterexamples.append({"i": i, "reason": "unexpectedly matched"})
    return VerifierReport(
        check="3.4",
        params={"n": n, "m": m},
        passed=not counterexamples,
        witnesses=witnesses,
        counterexamples=counterexamples,
        stats={"shifts_checked": 1 if n == m else 2 ** (n + 1) - 1},
    )
