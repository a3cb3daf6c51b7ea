"""Pair alphabet, pair matching of ternary sequences, and exhaustive shift verifiers.

A pair of ternary sequences is matched when no position pairs to (1,1) or
(-1,-1); those are exactly the digit pairs that cannot arise as a difference
of two gasket digits. All verifiers scan one full least common period, which
is a complete certificate for eventually periodic inputs.

The shift trichotomy ("3.1") and the cross-scale check ("3.4") decide every
shift at once with bitset scans: each word becomes three Python ints marking
its +1, -1 and 0 positions, and a shift is a rotation followed by an AND. The
bump check ("3.2") keeps a scalar loop, because it reports the first witness
position and that is usually found within a few digits.

The verifier wire names ("3.1", "3.2", "3.4") are the check identifiers used
by the CLI and JSON reports.
"""

from __future__ import annotations

from collections.abc import Iterator
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


def _mask(w: Word, digit: int) -> int:
    """The positions of digit in w as a bitmask; bit r stands for w[r]."""
    return int("".join("1" if d == digit else "0" for d in reversed(w)), 2)


def _fold(mask: int, width: int) -> int:
    """OR of the width-bit chunks of mask."""
    low = (1 << width) - 1
    folded = 0
    while mask:
        folded |= mask & low
        mask >>= width
    return folded


def _scan_shifts(x: Word, y: Word, shifts) -> Iterator[tuple[int, bool, bool]]:
    """(i, matched, has_zero_pair) of (shift-by-i of x^inf, y^inf) over one
    lcm period, for each 0 <= i < len(x) in shifts.

    len(y) must be a multiple of len(x). Position u then pairs x[(u+i) % lx]
    with y[u], and only u % lx decides the x digit, so y's masks are folded to
    lx bits once; x's masks are doubled so that a right shift rotates them.
    """
    lx = len(x)
    xp, xm, xz = ((m << lx) | m for m in (_mask(x, d) for d in (1, -1, 0)))
    yp, ym, yz = (_fold(_mask(y, d), lx) for d in (1, -1, 0))
    for i in shifts:
        yield i, not ((xp >> i) & yp or (xm >> i) & ym), bool((xz >> i) & yz)


def verify_shift_trichotomy(n: int) -> VerifierReport:
    """Check "3.1": for every shift 0 < i < 2^(n+1) of the scale-n period
    against itself, exactly one of three outcomes holds: the half-period
    shift is matched with zero pairs inside the period, odd shifts have no
    zero pair at all, and the remaining even shifts are unmatched."""
    if n < 1:
        raise DomainError("scale must be >= 1")
    x = block_word(n)
    half = 2 ** n
    counterexamples = []
    for i, matched, haszero in _scan_shifts(x, x, range(1, 2 ** (n + 1))):
        if i == half:
            ok = matched and haszero
            expected = "matched-with-zero-pair"
        elif i % 2 == 1:
            ok = not haszero
            expected = "no-zero-pair"
        else:
            ok = not matched
            expected = "unmatched"
        if not ok:
            counterexamples.append(
                {"i": i, "expected": expected, "matched": matched, "has_zero_pair": haszero}
            )
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
    witnesses = []
    counterexamples = []
    for i in range(1, 2 ** (n + 1)):
        found = None
        for u in range(1, 2 ** (n + 2)):
            if u == skip:
                continue
            a = x[(u - 1 + i) % lx]
            b = y[(u - 1) % ly]
            if a == b and a != 0:
                found = {"i": i, "u": u, "term": [a, b]}
                break
        if found is None:
            counterexamples.append({"i": i, "reason": "no witness position"})
        else:
            witnesses.append(found)
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
    if n == m:
        _, matched, haszero = next(_scan_shifts(x, y, (2 ** n,)))
        if matched and haszero:
            witnesses.append({"i": 2 ** n, "matched": True, "zero_pair": True})
        else:
            counterexamples.append({"i": 2 ** n, "matched": matched, "zero_pair": haszero})
    else:
        for i, matched, _ in _scan_shifts(x, y, range(1, 2 ** (n + 1))):
            if matched:
                counterexamples.append({"i": i, "reason": "unexpectedly matched"})
    return VerifierReport(
        check="3.4",
        params={"n": n, "m": m},
        passed=not counterexamples,
        witnesses=witnesses,
        counterexamples=counterexamples,
        stats={"shifts_checked": 1 if n == m else 2 ** (n + 1) - 1},
    )
