"""Worker process for the in-process workloads: sweep, verify and render.

    python3 bench/inprocess.py --workload sweep --seed 1 --seconds 28 --probe
    python3 bench/inprocess.py --workload sweep --seed 1 --seconds 14
    python3 bench/inprocess.py --workload sweep --seed 1 --max-ops 260 --trace
    python3 bench/inprocess.py --workload cli-cold --setup-only

run.py starts it, one process at a time, with src/ on PYTHONPATH. It imports
the package, does the workload's set-up (timed), then runs whole cycles of
operations, one call each, in a closed loop with one client until the
loop has run for about --seconds (or until --max-ops have run). With --probe
it times a warm probe (probe.py) between operations now and then. The last
stdout line is one JSON object with the set-up time, the latencies, the
failures, the peak RSS, the probe times and, with --trace, the spans.

Every cycle holds a fixed number of operations of each kind; the seed only
chooses the inputs and their order. Stopping at cycle boundaries keeps the mix
the same in every run, which is what keeps medians and tails steady.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracles
import probe
from measure import Tally, Tracer, attempt, closed_loop

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".bench_out"

# verify: (check, scale arguments). Each scan costs O(4^n); 3.4 pairs a scale
# with the next one up, the only cross-scale case with real work.
VERIFY_CASES = (
    ("3.1", 9), ("3.1", 10), ("3.1", 11),
    ("3.2", 9, "minus"), ("3.2", 10, "minus"), ("3.2", 11, "minus"),
    ("3.2", 9, "plain"), ("3.2", 10, "plain"), ("3.2", 11, "plain"),
    ("3.4", 9, 10), ("3.4", 10, 11),
)
# One cycle. The costliest case runs four times, so the tail (the latency
# with ten samples above it) stays among its runs from three cycles up,
# however fast the host. The 3.1 case at scale 9 also runs four times: the
# median sits in the middle of its runs (six cheaper 3.2 runs lie below, seven
# costlier ones above).
VERIFY_CYCLE = VERIFY_CASES + (("3.1", 9),) * 3 + (("3.1", 11),) * 3

# sweep: every cycle classifies and takes the spectrum of a fresh base in each
# finite band 1..11, this many times. A band's cost grows with its index, and
# these sub-millisecond calls hold the median: the same bands in every cycle,
# and many of them, keep the median on the same calls whatever the seed.
BAND_PASSES = 3

# render: bases and matched translations (coordinate literals) the seed
# picks from; every (q, t, depth) has pinned SVG and PPM digests.
RENDER_QS = ("2.25", "2.5", "2.7", "2.9")
RENDER_TS = (("+0-0^inf", "0;+0-0^inf"), ("0+0-^inf", "00-+^inf"), ("0-+00^inf", "+00-0^inf"))
RENDER_DEPTHS = (9, 10, 11)
# Depths of the jobs in one cycle, in this order: a fixed order keeps the
# allocator's history, and so the peak RSS, the same whatever the seed. The
# three depth-10 jobs hold the median among depth-10 builds; the tail falls
# among the two depth-11 builds while a run holds 4 to 10 cycles.
RENDER_CYCLE = (9, 10, 10, 10, 11)
PPM_SIZE = 512

# A warm probe (probe.py) follows an operation at most this often: about 2%
# of a run.
PROBE_GAP_S = 0.5


@dataclass
class Op:
    name: str                                  # span name, '<layer>.<function>'
    call: Callable[[], Any]
    check: Callable[[Any], str | None]         # None when the result is right
    work: Callable[[Any], dict] | None = None  # work counters for the trace
    expected: tuple = ()                       # exceptions that are right for the input


def verify_key(case) -> str:
    check, *args = case
    return check + " " + " ".join(str(a) for a in args)


def report_digest(report) -> str:
    text = json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def render_key(q: str, t: tuple, depth: int) -> str:
    return f"{q} {t[0]} {t[1]} {depth}"


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# Set-up: import plus the lazy state a user of the workload would warm first
# ---------------------------------------------------------------------------

def setup(workload: str, tracer: Tracer) -> dict:
    if workload == "cli-cold":
        import gasket_spectrum.cli  # noqa: F401  (the import is the set-up)
        return {}
    import gasket_spectrum  # noqa: F401
    from gasket_spectrum import bases, errors, expansions, geometry, matching, spectrum, words
    ctx = {"bases": bases, "errors": errors, "expansions": expansions, "geometry": geometry,
           "matching": matching, "spectrum": spectrum, "words": words}
    if workload == "sweep":
        ctx["kl"] = tracer.call("bases.kl_constant", bases.kl_constant)
        ctx["roots"] = {n: tracer.call("bases.base_root", bases.base_root, n)
                        for n in range(1, 13)}
        tracer.call("words.tm_block", words.tm_block, 12)
    elif workload == "verify":
        tracer.call("words.tm_block", words.tm_block, 12)
    return ctx


def setup_problems(workload: str, ctx: dict) -> list[str]:
    """Pinned constants the set-up produced, checked after it is timed."""
    if workload != "sweep":
        return []
    problems = []
    expected = ctx["expected"]
    pinned = [(f"root {n}", ctx["roots"][int(n)], v) for n, v in expected["roots"].items()]
    pinned.append(("kl", ctx["kl"], expected["kl"]))
    for label, enclosure, text in pinned:
        v = Fraction(text)
        if not enclosure.lo - Fraction(1, 10 ** 79) <= v <= enclosure.hi:
            problems.append(f"{label}: enclosure misses the pinned value {text[:24]}...")
    return problems


# ---------------------------------------------------------------------------
# sweep: classification and spectra across every regime, and uniqueness
# ---------------------------------------------------------------------------

def _finite_spectrum_problem(s, m: int, q) -> str | None:
    terms = () if s.family is None else s.family.terms
    want = tuple(oracles.alternating_density(k) for k in range(1, m))
    if (s.regime.kind, s.regime.m) != ("finite", m):
        return f"regime {s.regime} for band {m}"
    if tuple(terms) != want:
        return f"family terms {terms} differ from the alternating densities"
    lr = oracles.log_ratio(float(q))
    if s.interval is not None or len(s.isolated) != 2 or abs(max(s.isolated) - lr) > 1e-9:
        return f"isolated values {s.isolated}"
    return None


def _kl_spectrum_problem(s) -> str | None:
    if s.regime.kind != "komornik_loreti" or s.family is None:
        return f"regime {s.regime} at the limit base"
    terms = s.family.terms
    if not terms or tuple(terms) != tuple(oracles.alternating_density(k)
                                          for k in range(1, len(terms) + 1)):
        return "limit family terms differ from the alternating densities"
    if s.family.accumulation_density != Fraction(1, 3) or len(s.isolated) != 3:
        return "limit family lacks the accumulation point at one third"
    return None


def _interval_spectrum_problem(s) -> str | None:
    iv = s.interval
    if s.regime.kind != "interval" or iv is None or s.family is not None:
        return f"regime {s.regime} above the limit base"
    if not (0 <= iv.lo_density < iv.hi_density <= 1 and iv.lo < iv.hi and iv.containment_only):
        return f"interval {iv} is not an ordered containment interval"
    return None


def _label_check(kind: str, m: int | None = None):
    return lambda label: None if (label.kind, label.m) == (kind, m) else \
        f"classified as {label}, expected {kind} {m}"


def _scales(s) -> dict:
    return {"sft_scales": s.interval.sft_n} if s.interval is not None else {}


def sweep_cycles(rng: random.Random, ctx: dict):
    bases, spectrum, expansions, words = (ctx["bases"], ctx["spectrum"],
                                          ctx["expansions"], ctx["words"])
    kl, roots = ctx["kl"], ctx["roots"]
    DomainError = ctx["errors"].DomainError

    def band_ops(m: int) -> list[Op]:
        lo, hi = roots[m].hi, roots[m + 1].lo
        q = lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)
        return [Op("bases.classify", lambda: bases.classify(q), _label_check("finite", m)),
                Op("spectrum.spectrum_of", lambda: spectrum.spectrum_of(q),
                   lambda s: _finite_spectrum_problem(s, m, q))]

    def interval_ops(q: Fraction) -> list[Op]:
        def spec_problem(spec):
            if spec.n < 1 or len(spec.letters["a"]) != 2 ** spec.n:
                return f"letter scale {spec.n} with letters {spec.letters}"
            return None

        def density_problem(d):
            return None if 0 <= d[0] < d[1] <= 1 else f"densities {d} out of order"

        state = {}

        def sft_spec():
            state["spec"] = spectrum.sft_spec(q)
            return state["spec"]
        return [Op("bases.classify", lambda: bases.classify(q), _label_check("interval")),
                Op("spectrum.spectrum_of", lambda: spectrum.spectrum_of(q),
                   _interval_spectrum_problem, _scales),
                Op("spectrum.sft_spec", sft_spec, spec_problem,
                   lambda spec: {"sft_scales": spec.n}),
                Op("spectrum.sft_densities", lambda: spectrum.sft_densities(state["spec"]),
                   density_problem)]

    def outside_op() -> Op:
        q = rng.choice((Fraction(2), Fraction(3), Fraction(19, 10), Fraction(31, 10)))
        return Op("spectrum.spectrum_of", lambda: spectrum.spectrum_of(q),
                  lambda exc: None if isinstance(exc, DomainError) else f"no DomainError at {q}",
                  expected=(DomainError,))

    def deep_q() -> Fraction:
        return Fraction(rng.randint(256000, 299000), 100000)

    def unique_op(pre, per, q: Fraction, oracle: bool) -> Op:
        seq = words.Seq(pre, per)
        want = oracles.is_unique(pre, per, q) if oracle else True

        def check(verdict):
            return None if verdict.unique == want else \
                f"verdict {verdict} for {oracles.format_literal(pre, per)} at {q}, expected {want}"
        return Op("expansions.uniqueness_verdict",
                  lambda: expansions.uniqueness_verdict(seq, q), check,
                  lambda _: {"digits": len(seq.preperiod) + len(seq.period)})

    def short_op() -> Op:
        pre = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 3)))
        per = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 6)))
        return unique_op(pre, per, Fraction(rng.randint(205000, 299000), 100000), True)

    def catalogue_op(n: int) -> Op:
        # Rotations and reflections of catalogue tails are unique expansions at
        # every base above the limit; the oracle confirms the shorter ones.
        per = expansions.catalogue_tail(n).period
        r = rng.randrange(len(per))
        per = per[r:] + per[:r]
        if rng.random() < 0.5:
            per = tuple(-d for d in per)
        return unique_op((), per, deep_q(), oracle=n <= 9)

    while True:
        groups = [band_ops(m) for m in range(1, 12) for _ in range(BAND_PASSES)]
        groups.append([Op("bases.classify", lambda: bases.classify(kl),
                          _label_check("komornik_loreti")),
                       Op("spectrum.spectrum_of", lambda: spectrum.spectrum_of(kl),
                          _kl_spectrum_problem)])
        groups.append(interval_ops(kl.hi + Fraction(1, 10 ** rng.randint(6, 40))))
        groups.append(interval_ops(deep_q()))
        groups.append([outside_op()])
        groups += [[short_op()] for _ in range(4)]
        groups += [[catalogue_op(n)] for n in (6, 7, 8, 9, 10, 11)]
        rng.shuffle(groups)
        yield [op for group in groups for op in group]


# ---------------------------------------------------------------------------
# verify: the exhaustive shift verifiers
# ---------------------------------------------------------------------------

def verify_call(matching, case):
    check, *args = case
    fn = {"3.1": matching.verify_shift_trichotomy, "3.2": matching.verify_bump_witnesses,
          "3.4": matching.verify_cross_scale}[check]
    return fn.__name__, lambda: fn(*args)


def verify_cycles(rng: random.Random, ctx: dict):
    matching = ctx["matching"]

    def op(case) -> Op:
        want = ctx["expected"]["verify"][verify_key(case)]
        name, call = verify_call(matching, case)

        def check(report):
            if not report.passed:
                return f"{verify_key(case)} did not pass"
            return None if report_digest(report) == want else \
                f"{verify_key(case)} report differs from the pinned bytes"
        return Op("matching." + name, call, check,
                  lambda rep: {"shifts": rep.stats["shifts_checked"]})

    while True:
        cases = list(VERIFY_CYCLE)
        rng.shuffle(cases)
        yield [op(c) for c in cases]


# ---------------------------------------------------------------------------
# render: point clouds at depth 9-11 and their SVG and PPM bytes
# ---------------------------------------------------------------------------

def render_cycles(rng: random.Random, ctx: dict, out_dir: Path):
    geometry, matching, words = ctx["geometry"], ctx["matching"], ctx["words"]

    def job(q: str, t: tuple, depth: int) -> list[Op]:
        pair = matching.zip_seqs(words.parse_seq(t[0]), words.parse_seq(t[1]))
        shift = geometry.translation_point(q, pair)
        x, y = oracles.parse_literal(t[0]), oracles.parse_literal(t[1])
        zeros = sum(1 for i in range(1, depth + 1)
                    if oracles.digit(*x, i) == 0 and oracles.digit(*y, i) == 0)
        want = ctx["expected"]["render"][render_key(q, t, depth)]
        clouds = {}
        svg, ppm = out_dir / "render.svg", out_dir / "render.ppm"

        def build(key: str, count: int, fn, *args, **kwargs) -> Op:
            # count is the point-count law: 3^depth, or 3^#(0,0) for the intersection
            def call():
                clouds[key] = fn(*args, **kwargs)
                return clouds[key]

            def check(cloud):
                return None if len(cloud.points) == count else \
                    f"{key} at depth {depth} has {len(cloud.points)} points, expected {count}"
            return Op("geometry." + fn.__name__, call, check, lambda c: {"points": len(c.points)})

        def emit(kind: str, path: Path, fn, *args) -> Op:
            def check(_):
                return None if file_digest(path) == want[kind] else \
                    f"{kind} bytes for {render_key(q, t, depth)} differ from the pinned digest"
            return Op("geometry." + fn.__name__,
                      lambda: fn([clouds["E"], clouds["Et"], clouds["I"]], str(path), *args),
                      check, lambda _: {"bytes": path.stat().st_size})

        return [
            build("E", 3 ** depth, geometry.build_gasket, q, depth),
            build("Et", 3 ** depth, geometry.build_gasket, q, depth,
                  translate=shift, kind="E_plus_t"),
            build("I", 3 ** zeros, geometry.build_intersection, q, pair, depth),
            emit("svg", svg, geometry.emit_svg),
            emit("ppm", ppm, geometry.emit_ppm, PPM_SIZE),
        ]

    def cycle(picks):
        # One job at a time, so a job's point clouds are freed, between
        # operations, before the next job builds its own.
        for q, t, depth in picks:
            yield from job(q, t, depth)

    while True:
        yield cycle([(rng.choice(RENDER_QS), rng.choice(RENDER_TS), d) for d in RENDER_CYCLE])


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def warm_probe_s() -> float:
    """Time of one warm probe, with the collector off so that the heap the
    operations left behind does not slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        probe.bisect(probe.WARM_STEPS)
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_ops(cycles, seconds: float, max_ops: int | None, tracer: Tracer,
            probes: list | None = None) -> Tally:
    """The closed loop. With a `probes` list, a warm probe follows the first
    operation that ends PROBE_GAP_S or more after the last probe."""
    last_probe = time.perf_counter()

    def run(op: Op, op_id: int):
        nonlocal last_probe
        out = attempt(op.call, op.check, op.expected)
        if tracer.enabled:
            work = op.work(out.result) if op.work and not out.raised else {}
            tracer.record(op.name, out.start, out.end, op=op_id, error=out.raised, work=work)
        if probes is not None and time.perf_counter() - last_probe >= PROBE_GAP_S:
            probes.append(warm_probe_s())
            last_probe = time.perf_counter()
        return op.name, out
    tally = closed_loop(cycles, run, seconds, max_ops)
    if probes == []:  # a run too short for the gap still gets one probe
        probes.append(warm_probe_s())
    return tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("cli-cold", "sweep", "verify", "render"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--max-ops", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probe", action="store_true", help="time warm probes between operations")
    args = ap.parse_args(argv)

    tracer = Tracer(args.trace)
    start = time.perf_counter()
    ctx = setup(args.workload, tracer)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ctx["expected"] = json.loads((HERE / "expected.json").read_text())
    rng = random.Random(args.seed)
    out_dir = OUT_DIR / f"render-{os.getpid()}"
    if args.workload == "sweep":
        cycles = sweep_cycles(rng, ctx)
    elif args.workload == "verify":
        cycles = verify_cycles(rng, ctx)
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
        cycles = render_cycles(rng, ctx, out_dir)
    probes = [] if args.probe else None
    try:
        loop_start = time.perf_counter()
        tally = run_ops(cycles, args.seconds, args.max_ops, tracer, probes)
        wall_s = time.perf_counter() - loop_start
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_problems": setup_problems(args.workload, ctx),
        "tally": vars(tally),
        "wall_s": wall_s,
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": [vars(s) for s in tracer.spans],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
