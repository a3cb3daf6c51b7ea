"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: uniqueness is decided
by exact residual-interval feasibility and by a per-position Seq comparison,
the quasi-greedy digits of 1 and greedy digits by Fraction recursions,
sequence values by direct partial summation, canonical sequences by one
rotation per dropped digit, roots by plain float bisection
on the literal polynomial or by a bisection that certifies every sign it
takes, regimes of rational points by a linear scan over the roots, shifted
pairings and bump witnesses by digit-by-digit scans, ladder
words by their doubling rule and the bump blocks by four-block concatenation,
mask folds chunk by chunk, and SVG/PPM files by formatting and painting
point by point. The sequence value, the residual uniqueness oracle, the band
midpoint and the float bisection are the selftest battery's, re-exported here
so that each is stated once.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd

from gasket_spectrum import bases, matching
from gasket_spectrum.errors import AmbiguousClassificationError, DomainError, PrecisionError
from gasket_spectrum.expansions import (
    ALPHA_HORIZON,
    UniquenessVerdict,
    alpha_period,
    alpha_prefix,
)
from gasket_spectrum.geometry import _CANVAS, LAYER_COLORS
from gasket_spectrum.selftest import (  # noqa: F401  (shared with the selftest battery)
    band_midpoint,
    float_bisect,
    residual_unique,
    seq_value,
)
from gasket_spectrum.words import Seq, Word, dec_last, inc_last, reflect, tm_block


def canonical_by_rotation(preperiod, period) -> tuple[Word, Word]:
    """(preperiod, period) of Seq's canonical form, one digit at a time: the
    shortest repeating block of the period, then drop a preperiod digit and
    rotate the period right while the two last digits agree."""
    pre, per = tuple(preperiod), tuple(period)
    per = next(per[:d] for d in range(1, len(per) + 1)
               if len(per) % d == 0 and per == per[:d] * (len(per) // d))
    while pre and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = per[-1:] + per[:-1]
    return pre, per


def seq_digits(seq: Seq, n: int) -> list[int]:
    return [seq.digit(i) for i in range(1, n + 1)]


def partial_sum(seq: Seq, q: Fraction, terms: int) -> Fraction:
    total = Fraction(0)
    power = Fraction(1)
    for i in range(1, terms + 1):
        power /= q
        total += seq.digit(i) * power
    return total


def _compare_seq_with_alpha(tail: Seq, base: bases.BaseValue) -> int:
    """-1 if tail < alpha(base) lexicographically, +1 if greater, 0 if equal."""
    period = alpha_period(base)
    if period is not None:
        limit = (len(tail.preperiod)
                 + (len(tail.period) * len(period)) // gcd(len(tail.period), len(period))
                 + 1)
    else:
        limit = ALPHA_HORIZON
    digits = b""
    for i in range(1, limit + 1):
        if i > len(digits):
            digits = alpha_prefix(base, 2 * i)  # alpha is read only as far as the tie runs
            if i > len(digits):
                raise PrecisionError(f"alpha digit {i} is not determined by the base enclosure")
        a, b = tail.digit(i), digits[i - 1]
        if a != b:
            return -1 if a < b else 1
    if period is not None:
        return 0
    raise PrecisionError(f"lexicographic comparison undecided after {ALPHA_HORIZON} digits")


def fraction_alpha(q: Fraction, depth: int) -> Word:
    """Quasi-greedy digits of 1 by the Fraction recursion: the reference for
    the library's certified fixed-point one."""
    res = Fraction(1)
    digits = []
    for _ in range(depth):
        qr = q * res
        d = (qr.numerator - 1) // qr.denominator if qr.denominator == 1 \
            else qr.numerator // qr.denominator
        d = max(0, min(2, d))
        digits.append(d)
        res = qr - d
    return tuple(digits)


def fraction_greedy_expand(x: Fraction, q: Fraction, depth: int) -> Word:
    """Greedy digits over {-1, 0, 1} by the Fraction loop: the reference for
    the library's certified fixed-point one."""
    bound = 1 / (q - 1)
    t = x
    digits = []
    for _ in range(depth):
        shifted = q * t + bound
        d = min(1, shifted.numerator // shifted.denominator)
        digits.append(d)
        t = q * t - d
    return tuple(digits)


def seq_uniqueness_verdict(seq: Seq, q) -> UniquenessVerdict:
    """The uniqueness verdict computed with a canonical Seq per position:
    each tail is c.shift(k), its reflection a further Seq.map."""
    for d in seq.preperiod + seq.period:
        if d not in (-1, 0, 1):
            raise DomainError(f"digit {d!r} is not ternary")
    base = bases.as_base_value(q)
    c = seq.map(lambda d: d + 1)
    for k in range(1, len(c.preperiod) + len(c.period) + 1):
        d = c.digit(k)
        tail = c.shift(k)
        if d < 2 and _compare_seq_with_alpha(tail, base) >= 0:
            return UniquenessVerdict(False, k, "tail")
        if d > 0 and _compare_seq_with_alpha(tail.map(lambda x: 2 - x), base) >= 0:
            return UniquenessVerdict(False, k, "reflected_tail")
    return UniquenessVerdict(True)


def ladder_word_doubling(n: int) -> Word:
    """The n-th ladder word by its own doubling rule over {0, 1, 2}: start
    at (2,), append the reflection d -> 2 - d, increment the last digit."""
    w = (2,)
    for _ in range(n - 1):
        w = w + tuple(2 - d for d in w)
        assert w[-1] < 2, "the incremented digit must stay in {0, 1, 2}"
        w = w[:-1] + (w[-1] + 1,)
    return w


def four_block_bump_word(n: int, variant: str) -> Word:
    """The bumped period of check 3.2 as the concatenation of four blocks
    built from e = block(n)."""
    e = tm_block(n)
    tail = {"minus": dec_last(e), "plain": e}[variant]
    return e + inc_last(reflect(e)) + reflect(e) + tail


def four_block_b_blocks(n: int) -> tuple[Word, Word, Word, Word]:
    """The four concatenation blocks of scale n, each built block by block."""
    e = tm_block(n)
    eb_plus, e_minus = inc_last(reflect(e)), dec_last(e)
    return (e + eb_plus + reflect(e) + e_minus,
            e + eb_plus + reflect(e) + e,
            reflect(e) + e_minus + e + eb_plus,
            reflect(e) + e_minus + e + reflect(e))


def fold_chunks(mask: int, width: int) -> int:
    """OR of the width-bit chunks of mask, one chunk at a time."""
    low = (1 << width) - 1
    folded = 0
    while mask:
        folded |= mask & low
        mask >>= width
    return folded


def ladder_value_exact(q: Fraction, n: int) -> Fraction:
    """Direct Horner evaluation of sum_i w_n[i] q^-i of the n-th ladder word."""
    s = Fraction(0)
    for d in reversed(bases.ladder_word(n).word):
        s = (s + d) / q
    return s


def scan_classify(x: Fraction, tolerance) -> bases.RegimeLabel:
    """Regime of a rational point by a linear scan over base_root in index
    order: the reference that bases.classify's bisection must reproduce, in
    its label or in its exception's type and message."""
    bases.require_working_base(bases.as_base_value(x))
    digits = bases._kl_digits(tolerance)
    while bases._kl(digits).lo <= x <= bases._kl(digits).hi:
        if digits == bases.LADDER_DIGITS_CAP:
            raise PrecisionError(f"base lies inside the {digits}-digit Komornik-Loreti enclosure")
        digits = min(2 * digits, bases.LADDER_DIGITS_CAP)
    if x > bases._kl(digits).hi:
        return bases.RegimeLabel("interval")
    for n in range(2, bases.MAX_LADDER_INDEX + 1):
        qn = bases.base_root(n, tolerance)
        if qn.lo > x:
            return bases.RegimeLabel("finite", n - 1)
        if qn.hi >= x:
            raise AmbiguousClassificationError(
                f"base lies inside the enclosure of ladder point {n}")
    raise PrecisionError(
        f"no band found below the ladder cap {bases.MAX_LADDER_INDEX}; "
        "the base is too close to the Komornik-Loreti constant")


def certified_bisect(valfn, lo: Decimal, hi: Decimal, digits: int) -> tuple[Fraction, Fraction]:
    """Shrink [lo, hi] to width 10^-digits around the crossing of valfn = 1,
    certifying the sign of valfn - 1 at every mid: the reference enclosure
    that bases._bisect must reproduce exactly."""
    prec = digits + 30
    target = Decimal(10) ** (-digits)
    with localcontext() as ctx:
        ctx.prec = prec + 10
        while hi - lo > target:
            mid = (lo + hi) / 2
            if bases._certified_sign(valfn, mid, prec) > 0:
                lo = mid
            else:
                hi = mid
    return Fraction(lo), Fraction(hi)


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


def scalar_bump_witnesses(n: int, variant: str = "minus") -> matching.VerifierReport:
    """The bump check "3.2" by one digit comparison per position per shift:
    the reference report that matching.verify_bump_witnesses must reproduce
    byte for byte. The words come through the matching module, so a test
    that patches them there patches both; the "minus" word is built here, by
    lowering the last digit of the plain one."""
    if n < 3:
        raise DomainError("the bump check needs scale >= 3")
    x = matching.block_word(n)
    y = matching._bump_word(n)
    if variant == "minus":
        y = dec_last(y)
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
    return matching.VerifierReport(
        check="3.2",
        params={"n": n, "variant": variant},
        passed=not counterexamples,
        witnesses=witnesses,
        counterexamples=counterexamples,
        stats={"shifts_checked": 2 ** (n + 1) - 1},
    )


def first_witnesses_scan(x: Word, y: Word, skip: int) -> list:
    """(u, d) of the first position 0 < u < len(y), u != skip, with
    x[(u-1+i) % len(x)] == y[u-1] == d != 0, or None, for every shift i."""
    lx, ly = len(x), len(y)
    out = []
    for i in range(lx):
        found = None
        for u in range(1, ly):
            a, b = x[(u - 1 + i) % lx], y[u - 1]
            if u != skip and a == b and a != 0:
                found = (u, a)
                break
        out.append(found)
    return out


def digit_points(q: float, choices, translate=(0.0, 0.0)) -> tuple:
    """Points sum_i a_i q^-i (+ translate), each summed digit by digit, for
    each digit tuple in `choices`, in the order given."""
    pts = []
    for digits in choices:
        x = 0.0
        y = 0.0
        for i, (dx, dy) in enumerate(digits, start=1):
            w = q ** -i
            x += dx * w
            y += dy * w
        pts.append((x + translate[0], y + translate[1]) if translate != (0.0, 0.0) else (x, y))
    return tuple(pts)


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def _frame(clouds) -> tuple[float, float, float]:
    """Common square frame: [-R*margin, 2R*margin] in both axes, R = 1/(q-1)."""
    if clouds:
        q = clouds[0].q
    else:
        q = 2.5
    r = 1.0 / (q - 1.0)
    margin = 1.05
    lo = -r * margin
    hi = 2 * r * margin
    return lo, hi, hi - lo


def reference_emit_svg(clouds, path: str) -> None:
    """SVG written one formatted circle per point."""
    qs = {c.q for c in clouds}
    if len(qs) > 1:
        raise DomainError("all clouds must share one base")
    lo, _hi, span = _frame(clouds)
    scale = _CANVAS / span

    def sx(x: float) -> float:
        return (x - lo) * scale

    def sy(y: float) -> float:
        return _CANVAS - (y - lo) * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_CANVAS)}" '
        f'height="{int(_CANVAS)}" viewBox="0 0 {int(_CANVAS)} {int(_CANVAS)}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    for cloud in clouds:
        color = LAYER_COLORS.get(cloud.kind, "#000000")
        # half a cylinder diameter, floored so deep levels stay visible
        radius = max((cloud.q ** -cloud.depth) / 2.0 * scale, 0.35)
        lines.append(f'<g fill="{color}" data-layer="{cloud.kind}">')
        for x, y in cloud.points:
            lines.append(
                f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="{_fmt(radius)}"/>')
        lines.append("</g>")
    lines.append("</svg>")
    data = ("\n".join(lines) + "\n").encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def reference_emit_ppm(clouds, path: str, size: int = 512) -> None:
    """PPM painted point by point, three RGB bytes per pixel."""
    if size < 16 or size > 4096:
        raise DomainError("raster size must be in [16, 4096]")
    qs = {c.q for c in clouds}
    if len(qs) > 1:
        raise DomainError("all clouds must share one base")
    lo, _hi, span = _frame(clouds)
    body = bytearray(b"\xff" * (3 * size * size))
    rgb = {"E": (153, 153, 153), "E_plus_t": (91, 141, 239),
           "intersection": (214, 39, 40)}
    for cloud in clouds:
        color = bytes(rgb.get(cloud.kind, (0, 0, 0)))
        for x, y in cloud.points:
            col = int((x - lo) / span * (size - 1))
            row = size - 1 - int((y - lo) / span * (size - 1))
            if 0 <= col < size and 0 <= row < size:
                k = 3 * (row * size + col)
                body[k:k + 3] = color
    try:
        with open(path, "wb") as fh:
            fh.write(f"P6\n{size} {size}\n255\n".encode("ascii"))
            fh.write(body)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc
