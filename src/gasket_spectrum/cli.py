"""Command-line interface: subcommand dispatch, reports, exit codes.

Exit codes: 0 success, 1 domain or resource error or a failing check,
2 usage error, 3 precision or ambiguity error. JSON output is canonical
(sorted keys, fixed separators) and carries timing_ms = 0 unless --timing
is given, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

# Only what every command needs is imported here; each command imports the
# rest of the library (expansions, matching, spectrum, geometry) itself.
from . import bases, words
from .config import RunConfig, load_config
from .errors import DomainError, GasketError, PrecisionError, ResourceLimitError
from .report import decimal_str, fraction_str, report_bytes
from .words import Seq, format_seq, format_word, parse_seq


def _matching():
    """The matching module, for the CHECK_RUNNERS, which cannot import it themselves."""
    from . import matching

    return matching


CHECK_RUNNERS = {
    "3.1": lambda args: _matching().verify_shift_trichotomy(args.n),
    "3.2": lambda args: _matching().verify_bump_witnesses(args.n, args.variant),
    "3.4": lambda args: _matching().verify_cross_scale(
        args.n, args.m if args.m is not None else args.n),
}


def _add_common_flags(p: argparse.ArgumentParser, skip: tuple[str, ...] = ()) -> None:
    """The flags every subcommand takes, except those in skip, which it defines itself."""
    if "--format" not in skip:
        p.add_argument("--format", choices=("text", "json"), dest="output_format",
                       help="report format (default text; env GS_FORMAT)")
    p.add_argument("--config", help="path to a JSON config file (env GS_CONFIG)")
    p.add_argument("--tolerance", type=float, help="enclosure tolerance (env GS_TOLERANCE)")
    if "--max-n" not in skip:
        p.add_argument("--max-n", type=int, dest="max_block_exponent",
                       help="block exponent cap; can only lower the built-in cap of "
                            f"{words.MAX_BLOCK_EXPONENT} (env GS_MAX_N)")
    p.add_argument("--timing", action="store_true",
                   help="report wall-clock timing (breaks byte determinism)")


_EPILOG = """\
sequence literals:  [PRE;]PER^inf  where PRE and PER are words over the
ternary alphabet, written compactly with one character per digit (+ 0 -)
or as comma lists (1,0,-1). Example: '+0;-0^inf' is preperiod +0 with
period -0 repeating. A value starting with '-' must be passed in the
'--opt=value' form. Environment: GS_TOLERANCE, GS_MAX_N, GS_KL_TERMS,
GS_FORMAT, GS_CONFIG. Precedence: flags > environment > config file >
defaults. Flags such as --format go after the subcommand.
"""


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gasket-spectrum",
        description="Dimension spectra of gasket self-intersections in bases 2 < q < 3.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, skip: tuple[str, ...] = ()) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p, skip)
        return p

    p = add("bases", "ladder words, roots, and the limit base", skip=("--max-n",))
    p.add_argument("--max-n", type=int, default=8, dest="bases_max_n")

    p = add("classify", "regime of a base")
    p.add_argument("--q", required=True)

    p = add("expand", "greedy expansion of a point")
    p.add_argument("--q", required=True)
    p.add_argument("--x", required=True, help="decimal or p/q rational")
    p.add_argument("--depth", type=int, default=32)

    p = add("unique", "unique-expansion membership")
    p.add_argument("--q", required=True)
    p.add_argument("--seq", required=True, help="sequence literal, e.g. '+0;-0^inf'")

    p = add("density", "zero (pair) densities")
    p.add_argument("--seq", help="ternary sequence literal")
    p.add_argument("--x", help="first coordinate sequence")
    p.add_argument("--y", help="second coordinate sequence")

    p = add("verify", "exhaustive finite-scale checks")
    p.add_argument("--lemma", required=True, choices=sorted(CHECK_RUNNERS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--variant", choices=("minus", "plain"), default="minus")

    p = add("dq", "the dimension spectrum at q")
    p.add_argument("--q", required=True)
    p.add_argument("--kl-terms", type=int, dest="kl_terms")

    p = add("render", "render E, E+t, and the intersection", skip=("--format",))
    p.add_argument("--q", required=True)
    p.add_argument("--t-seq", required=True, nargs=2, metavar=("X", "Y"),
                   help="coordinate sequence literals of the translation")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--out", required=True)
    p.add_argument("--layers", default="e,et,int")
    p.add_argument("--format", choices=("svg", "ppm", "text", "json"),
                   dest="render_format",
                   help="svg/ppm select the image format; text/json the report")
    p.add_argument("--image-format", choices=("svg", "ppm"), default="svg")
    p.add_argument("--size", type=int, default=512, help="raster size for ppm")

    add("selftest", "run the built-in verification battery")
    return top


def _config_from_args(args) -> RunConfig:
    flags = {name: getattr(args, name, None) for name in RunConfig.__slots__}
    return load_config(flag_values=flags, config_path=getattr(args, "config", None))


def _parse_base(text: str, config: RunConfig) -> bases.BaseValue:
    if text.strip().lower() in ("kl", "q_kl", "qkl"):
        return bases.kl_constant(config.tolerance)
    return bases.as_base_value(text)


# ---------------------------------------------------------------------------
# Subcommand bodies: each returns (result, text_lines)
# ---------------------------------------------------------------------------

def _cmd_bases(args, config):
    bases._check_ladder_index(args.bases_max_n)  # a bad last row fails before any root
    rows = []
    prev_mid = None
    for n in range(1, args.bases_max_n + 1):
        w = bases.ladder_word(n)
        r = bases.base_root(n, config.tolerance)
        gap = None if prev_mid is None else float(r.midpoint - prev_mid)
        prev_mid = r.midpoint
        rows.append({
            "n": n,
            "word": "".join(str(d) for d in w.word),
            "lo": decimal_str(r.lo, 40),
            "hi": decimal_str(r.hi, 40),
            "value": r.value,
            "gap_from_previous": gap,
        })
    kl = bases.kl_constant(config.tolerance)
    result = {
        "rows": rows,
        "kl": {"lo": decimal_str(kl.lo, 40), "hi": decimal_str(kl.hi, 40), "value": kl.value},
    }
    lines = ["  n  word                              root"]
    for row in rows:
        word = row["word"] if len(row["word"]) <= 32 else row["word"][:29] + "..."
        lines.append(f"  {row['n']:<2} {word:<33} {row['lo'][:24]}")
    lines.append(f"  KL {'(limit)':<33} {result['kl']['lo'][:24]}")
    return result, lines


def _cmd_classify(args, config):
    label = bases.classify(_parse_base(args.q, config), config.tolerance)
    result = {"regime": label.to_json_dict()}
    text = label.kind if label.m is None else f"{label.kind} m={label.m}"
    return result, [f"  regime: {text}"]


def _cmd_expand(args, config):
    from . import expansions

    q = _parse_base(args.q, config)
    x = bases.parse_rational(args.x, "value")
    digits = expansions.greedy_expand(x, q, args.depth)
    partial = expansions.evaluate_exact(Seq(digits, (0,)), q.midpoint) if digits else Fraction(0)
    result = {
        "digits": format_word(digits),
        "digit_list": list(digits),
        "partial_value": float(partial),
        "deficit": float(x - partial),
    }
    return result, [f"  digits: {result['digits']}", f"  deficit: {result['deficit']:.3e}"]


def _cmd_unique(args, config):
    from . import expansions

    q = _parse_base(args.q, config)
    seq = parse_seq(args.seq)
    verdict = expansions.uniqueness_verdict(seq, q)
    result = {"seq": format_seq(seq), "verdict": verdict.to_json_dict()}
    if verdict.unique:
        lines = ["  unique: yes"]
    else:
        lines = [f"  unique: no (index {verdict.failing_index}, clause {verdict.clause})"]
    return result, lines


def _cmd_density(args, config):
    if args.seq and not (args.x or args.y):
        from . import spectrum

        seq = parse_seq(args.seq)
        d = spectrum.zero_fraction_seq(seq)
        result = {"seq": format_seq(seq), "zero_density": d}
        return result, [f"  zero density: {fraction_str(d)}"]
    if args.x and args.y and not args.seq:
        from . import matching

        pair = matching.zip_seqs(parse_seq(args.x), parse_seq(args.y))
        rep = matching.analyze(pair)
        result = {"pair": rep.to_json_dict()}
        lines = [f"  matched: {rep.matched}",
                 f"  zero-pair density: {fraction_str(rep.zero_pair_density)}"]
        return result, lines
    raise DomainError("density needs either --seq or both --x and --y")


def _cmd_verify(args, config):
    scale = max(args.n, args.m or 0) if args.lemma == "3.4" else args.n
    cap = min(config.max_block_exponent, words.MAX_BLOCK_EXPONENT)
    if scale + 2 > cap:
        raise ResourceLimitError(
            f"scale {scale} needs block exponent {scale + 2}, beyond the cap "
            f"{cap} (GS_MAX_N / --max-n)")
    rep = CHECK_RUNNERS[args.lemma](args)
    result = rep.to_json_dict()
    lines = [f"  check {args.lemma}: {'pass' if rep.passed else 'FAIL'}"]
    if rep.counterexamples:
        lines.append(f"  counterexamples: {rep.counterexamples[:3]}")
    return result, lines


def _cmd_dq(args, config):
    from . import spectrum

    q = _parse_base(args.q, config)
    s = spectrum.spectrum_of(q, config.tolerance, config.kl_terms)
    provenance = {"q_enclosure": [str(q.lo), str(q.hi)]}
    if s.regime.m is not None:
        provenance["m"] = s.regime.m
    if s.interval is not None:
        provenance["sft_n"] = s.interval.sft_n
    result = dict(s.to_json_dict(), provenance=provenance)
    lines = [f"  regime: {s.regime.kind}" + (f" m={s.regime.m}" if s.regime.m else ""),
             f"  isolated: {sorted(s.isolated)}"]
    if s.family:
        shown = [fraction_str(t) for t in s.family.terms[:8]]
        suffix = "" if len(s.family.terms) <= 8 else f", ... ({len(s.family.terms)} terms)"
        lines.append(f"  family densities: {', '.join(shown)}{suffix} (times log3/logq)")
    if s.interval:
        lines.append(f"  interval: [{s.interval.lo:.6f}, {s.interval.hi:.6f}] (contained)")
    return result, lines


def _cmd_render(args, config):
    from . import geometry, matching

    q = _parse_base(args.q, config)
    sx = parse_seq(args.t_seq[0])
    sy = parse_seq(args.t_seq[1])
    pair = matching.zip_seqs(sx, sy)
    layers = [s.strip() for s in args.layers.split(",") if s.strip()]
    unknown = set(layers) - {"e", "et", "int"}
    if unknown:
        raise DomainError(f"unknown layers: {sorted(unknown)}")
    if not layers:
        raise DomainError("no layers to render")
    image_format = args.image_format
    if args.render_format in ("svg", "ppm"):
        image_format = args.render_format
    if image_format == "ppm":
        geometry.require_raster_size(args.size)
    clouds = []
    if "e" in layers:
        clouds.append(geometry.build_gasket(q, args.depth))
    if "et" in layers:
        t = geometry.translation_point(q, pair)
        clouds.append(geometry.build_gasket(q, args.depth, translate=t, kind="E_plus_t"))
    if "int" in layers:
        clouds.append(geometry.build_intersection(q, pair, args.depth))
    if image_format == "svg":
        geometry.emit_svg(clouds, args.out)
    else:
        geometry.emit_ppm(clouds, args.out, args.size)
    result = {
        "out": args.out,
        "image_format": image_format,
        "layers": [c.to_json_dict() for c in clouds],
    }
    return result, [f"  wrote {args.out} ({image_format}, "
                    f"{sum(len(c.xs) for c in clouds)} points)"]


def _cmd_selftest(args, config):
    from .selftest import run_selftest  # imported here: it loads every module

    result = run_selftest(config.tolerance)
    lines = []
    for item in result["items"]:
        status = "PASS" if item["pass"] else "FAIL"
        lines.append(f"  [{status}] {item['name']}: {item['detail']}")
    lines.append(f"  all-pass: {result['all_pass']}")
    return result, lines


COMMANDS = {
    "bases": _cmd_bases,
    "classify": _cmd_classify,
    "expand": _cmd_expand,
    "unique": _cmd_unique,
    "density": _cmd_density,
    "verify": _cmd_verify,
    "dq": _cmd_dq,
    "render": _cmd_render,
    "selftest": _cmd_selftest,
}


def _inputs_dict(args) -> dict:
    skip = {"command", "output_format", "config", "timing"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def run(argv, stdout=None) -> int:
    """Dispatch argv, print the report, return the exit code."""
    out = sys.stdout if stdout is None else stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    started = time.monotonic()
    fmt = None
    try:
        config = _config_from_args(args)
        fmt = config.output_format
        result, lines = COMMANDS[args.command](args, config)
        # a failing check report (verify) or battery (selftest) exits 1
        code = 0 if result.get("pass", result.get("all_pass", True)) else 1
    except PrecisionError as exc:
        result, lines, code = {"error": str(exc)}, [f"  error: {exc}"], 3
    except GasketError as exc:
        result, lines, code = {"error": str(exc)}, [f"  error: {exc}"], 1
    timing = int((time.monotonic() - started) * 1000) if getattr(args, "timing", False) else 0
    if getattr(args, "render_format", None) in ("text", "json"):
        fmt = args.render_format
    if fmt is None:
        fmt = getattr(args, "output_format", None) or "text"
    if fmt == "json":
        out.write(report_bytes(args.command, _inputs_dict(args), result, timing).decode("utf-8"))
    else:
        out.write(f"{args.command}:\n")
        for line in lines:
            out.write(line + "\n")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
