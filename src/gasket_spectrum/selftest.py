"""Built-in verification battery: one named item per structural claim.

The battery mirrors the package's acceptance checks so a fresh install can
certify itself. One deliberate difference is documented in the README: the
uniqueness-catalogue concordance here uses the corrected band indexing
(accept catalogue tails 0..m-1 in band m, reject from m up), which is what
the uniqueness oracle satisfies; see the README's "known discrepancy" note.
Its independent oracles are stated once, here, and the test suite shares them.
"""

from __future__ import annotations

import io
from fractions import Fraction

from . import bases, expansions, geometry, matching, spectrum, words
from .errors import GasketError


def _require(ok: bool, detail: object = None) -> None:
    """Fail the current check; unlike assert, this survives python -O."""
    if not ok:
        raise AssertionError() if detail is None else AssertionError(detail)


def seq_value(seq: words.Seq, q: Fraction) -> Fraction:
    """Exact value of an eventually periodic sequence by direct summation:
    the preperiod term by term, then the period as a geometric series."""
    def value(word: words.Word) -> Fraction:  # sum_i word_i q^-i
        return sum(Fraction(d) / q ** i for i, d in enumerate(word, start=1))
    tail = value(seq.period) / (1 - q ** -len(seq.period))  # the period repeated
    return value(seq.preperiod) + tail / q ** len(seq.preperiod)


def residual_unique(seq: words.Seq, q: Fraction) -> bool:
    """Independent uniqueness decision: a second expansion exists exactly when
    some position admits a different digit whose residual stays representable."""
    bound = Fraction(1) / (q - 1)
    t = seq_value(seq, q)
    for k in range(1, len(seq.preperiod) + len(seq.period) + 1):
        s_k = seq.digit(k)
        for d in (-1, 0, 1):
            if d != s_k and -bound <= q * t - d <= bound:
                return False
        t = q * t - s_k
    return True


def band_midpoint(m: int, tolerance: float = bases.DEFAULT_TOLERANCE) -> bases.BaseValue:
    """Rational point halfway between the m-th and (m+1)-th ladder roots."""
    lo = bases.base_root(m, tolerance)
    hi = bases.base_root(m + 1, tolerance)
    mid = (lo.hi + hi.lo) / 2
    return bases.BaseValue(mid, mid)


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


def _check_block_calculus(tolerance: float) -> str:
    for n in range(0, 13):
        e = words.tm_block(n)
        _require(e[0] == 1)
        _require(e[-1] == (0 if n % 2 else 1), f"terminal parity fails at {n}")
        if n >= 1:
            _require(0 in e, f"no zero in block {n}")
        _require(all(e[i] != 0 for i in range(0, len(e), 2)), f"odd-position zero at {n}")
        if n >= 3:
            _require(any(e[i] != 0 for i in range(1, len(e) - 1, 2)))
        _require(e == tuple(map(words.tm_diff, range(1, len(e) + 1))), f"block {n} != diffs")
    return "block recursion, parity, prefix, and difference identities for n <= 13"

def _check_block_density(tolerance: float) -> str:
    rep = spectrum.block_density_check(16)
    _require(rep.passed, rep.counterexamples)
    return "zero densities equal the alternating closed form for n <= 16"

def _check_trichotomy(tolerance: float) -> str:
    for n in range(1, 9):
        rep = matching.verify_shift_trichotomy(n)
        _require(rep.passed, rep.counterexamples)
    return "shift trichotomy for scales 1..8"

def _check_bump(tolerance: float) -> str:
    for n in range(3, 9):  # one search decides both variants
        rep = matching.verify_bump_witnesses(n)
        _require(rep.passed, rep.counterexamples)
    return "bump-block witnesses for scales 3..8, both variants"

def _check_cross_scale(tolerance: float) -> str:
    for n in range(1, 8):
        for m in range(n, 8):
            rep = matching.verify_cross_scale(n, m)
            _require(rep.passed, rep.counterexamples)
    return "cross-scale match certificates for 1 <= n <= m <= 7"

def _check_ladder(tolerance: float) -> str:
    r2 = bases.base_root(2, tolerance)
    _require(abs(r2.value - float_bisect(lambda q: q * q - 2 * q - 1, 2.0, 3.0)) < 1e-12)
    prev = bases.base_root(1, tolerance)
    for n in range(2, 13):
        rn = bases.base_root(n, tolerance)
        _require(prev.hi < rn.lo, f"enclosures {n - 1} and {n} overlap")
        prev = rn
    return "root enclosures exact at 1, match the quadratic at 2, disjoint through 12"

def _check_kl(tolerance: float) -> str:
    kl = bases.kl_constant(1e-100)  # 101 digits; 1e-6 asks the 80-digit floor
    q8 = bases.base_root(8, tolerance)
    _require(q8.hi < kl.lo < kl.hi < 3)
    kl6 = bases.kl_constant(1e-6)
    _require(kl6.lo <= kl.lo and kl.hi <= kl6.hi)
    return "limit enclosure sits above the 8th root and nests across tolerances"

def _check_spectra(tolerance: float) -> str:
    s = spectrum.spectrum_of("2.2", tolerance)
    _require(s.regime.kind == "finite" and s.regime.m == 1 and s.family is None)
    s3 = spectrum.spectrum_of(bases.base_root(3, tolerance), tolerance)
    _require(s3.regime.m == 2 and s3.family is not None)
    skl = spectrum.spectrum_of(bases.kl_constant(tolerance), tolerance)
    _require(len(skl.isolated) == 3 and skl.family is not None)
    si = spectrum.spectrum_of("2.9", tolerance)
    _require(si.interval is not None and 0 < si.interval.lo < si.interval.hi < si.log_ratio)
    return "finite, limit, and interval spectra have the documented shapes"

def _check_sft(tolerance: float) -> str:
    for qs in ("2.6", "2.75", "2.9"):
        spec = spectrum.sft_spec(qs, tolerance)
        d1, d2 = spectrum.sft_densities(spec)
        wit = spectrum.interval_witness(spec, (d1 + d2) / 2, 10 ** 4)
        _require(abs(wit.achieved - wit.target) <= Fraction(2, 4 * 2 ** spec.n))  # 2 / len(u1)
    return "subshift letters embed at 2.6/2.75/2.9 with ordered densities"

def _check_uniqueness_concordance(tolerance: float) -> str:
    for m in range(1, 7):
        q = band_midpoint(m, tolerance)
        for n in range(0, m):
            found = expansions.find_unique_with_tail(
                expansions.catalogue_tail(n), q, max_preperiod=4)
            _require(found is not None, (m, n))
        for n in (m, m + 1):
            found = expansions.find_unique_with_tail(
                expansions.catalogue_tail(n), q, max_preperiod=8)
            _require(found is None, (m, n))
    return "catalogue tails accepted below the band index and rejected from it up"

def _check_uniqueness_oracle(tolerance: float) -> str:
    import random
    rng = random.Random(20260808)
    grid = [Fraction(21, 10), Fraction(49, 20), Fraction(13, 5), Fraction(29, 10)]
    seqs = [words.Seq((), (0,)), words.Seq((), (1,)), words.Seq((), (-1,))]
    for k in range(3):
        seqs.append(expansions.catalogue_tail(k + 1))
    for _ in range(25):
        per = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 5)))
        pre = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 3)))
        seqs.append(words.Seq(pre, per))
    for q in grid:
        for s in seqs:
            lex = expansions.is_unique_expansion(s, q)
            res = residual_unique(s, q)
            _require(lex == res, (q, s, lex, res))
    return "lexicographic and residual uniqueness decisions agree on the sample grid"

def _check_greedy(tolerance: float) -> str:
    q = Fraction("2.6")
    target = expansions.evaluate_exact(words.Seq((), (1, 0, -1, 0)), q)
    got = expansions.greedy_expand(target, q, 8)
    _require(got == (1, 0, -1, 0, 1, 0, -1, 0), got)
    _require(expansions.greedy_expand(Fraction(0), q, 6) == (0,) * 6)
    _require(expansions.greedy_expand(Fraction(1) / (q - 1), q, 6) == (1,) * 6)
    return "greedy digits reproduce the periodic example and both endpoints"

def _check_geometry(tolerance: float) -> str:
    t = matching.e_seq(1, 1, 2)
    cloud = geometry.build_intersection("2.5", t, 8)
    _require(len(cloud.xs) == 3 ** 4)
    gasket = geometry.build_gasket("2.5", 5)
    _require(len(gasket.xs) == 3 ** 5 == len(set(gasket.points)))
    # E + (-0.9, 0.9) crosses the left and top edges of the frame [-0.7, 1.4]
    shifted = geometry.build_gasket("2.5", 7, translate=(-0.9, 0.9), kind="E_plus_t")
    flat = geometry.PointCloud(shifted.kind, shifted.q, shifted.depth, shifted.xs, shifted.ys)
    # three SVG blocks of 3^7 points that share formatted x and y lists
    deep = geometry.build_gasket("2.5", 8)
    deep_flat = geometry.PointCloud(deep.kind, deep.q, deep.depth, deep.xs, deep.ys)
    import os
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        def emitted(emit, clouds, name: str, *args) -> bytes:
            path = os.path.join(tmp, name)
            emit(clouds, path, *args)
            with open(path, "rb") as fh:
                return fh.read()

        svg = [emitted(geometry.emit_svg, [gasket, cloud], f"{i}.svg") for i in (1, 2)]
        # a cloud without levels is written chunk by chunk, sharing nothing
        blocks = [emitted(geometry.emit_svg, [c], f"{name}.svg")
                  for name, c in (("tree", deep), ("flat", deep_flat))]
        ppm = [emitted(geometry.emit_ppm, [gasket, cloud], f"{i}.ppm", 64) for i in (1, 2)]
        # a cloud without levels is painted point by point
        painted = [emitted(geometry.emit_ppm, [c], f"{name}.ppm", 64)
                   for name, c in (("tree", shifted), ("flat", flat))]
    _require(svg[0] == svg[1] and ppm[0] == ppm[1], "emitted bytes differ between runs")
    header = b"P6\n64 64\n255\n"
    _require(ppm[0].startswith(header) and len(ppm[0]) == len(header) + 64 * 64 * 3,
             "malformed 64x64 PPM")
    _require(painted[0] == painted[1], "tree descent and per-point paint differ")
    _require(blocks[0] == blocks[1], "shared SVG blocks and per-chunk SVG differ")
    return "counting law, distinct cylinder points, and byte-stable SVG and PPM rendering"

def _check_kl_density(tolerance: float) -> str:
    rep = spectrum.kl_density_check(2 ** 14)
    _require(rep.passed, rep.counterexamples)
    fam = {row["family"]: row for row in rep.stats["families"]}
    _require(fam["j=1,l=1"]["abs_dev"] < Fraction(1, 384))
    return "block densities exact and tail frequency within 1/384 of one third"

def _check_determinism(tolerance: float) -> str:
    from .cli import run
    out1, out2 = io.StringIO(), io.StringIO()
    argv = ["dq", "--q", "2.2", "--format", "json"]
    _require(run(argv, out1) == 0 and run(argv, out2) == 0)
    _require(out1.getvalue() == out2.getvalue())
    return "identical argv yields byte-identical JSON"


CHECKS = (
    ("block-calculus", _check_block_calculus),
    ("block-density", _check_block_density),
    ("shift-trichotomy", _check_trichotomy),
    ("bump-witnesses", _check_bump),
    ("cross-scale", _check_cross_scale),
    ("ladder-roots", _check_ladder),
    ("kl-constant", _check_kl),
    ("spectra", _check_spectra),
    ("sft-embedding", _check_sft),
    ("uniqueness-concordance", _check_uniqueness_concordance),
    ("uniqueness-oracle", _check_uniqueness_oracle),
    ("greedy-expansion", _check_greedy),
    ("geometry", _check_geometry),
    ("kl-density", _check_kl_density),
    ("determinism", _check_determinism),
)


def run_selftest(tolerance: float = bases.DEFAULT_TOLERANCE) -> dict:
    """Run CHECKS with roots, limit base and spectra at tolerance; KL spectra
    list spectrum_of's default of bases.KL_TERMS terms."""
    items = []
    for name, fn in CHECKS:
        try:
            detail = fn(tolerance)
            items.append({"name": name, "pass": True, "detail": detail})
        except (AssertionError, GasketError) as exc:
            items.append({"name": name, "pass": False, "detail": str(exc) or repr(exc)})
    return {"items": items, "all_pass": all(i["pass"] for i in items)}
