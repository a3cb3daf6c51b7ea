"""Deterministic report envelopes and canonical JSON serialization."""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction

from . import __version__

SCHEMA_VERSION = "1"


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def float_str(x: Fraction) -> str:
    """x as a float where a float holds it, else to 17 significant digits:
    1e400 overflows a float and 1e-400 rounds to 0.0. Out of float range,
    q, r = divmod(n 10^s, d) for |x| = n/d has 18 to 20 digits, and q with a
    last digit 1 if r > 0 rounds as x does: one power of ten, no Decimal of n."""
    if x == 0 or 1e-300 < abs(x) < 1e300:
        return str(float(x))
    n, d = abs(x.numerator), x.denominator
    b = n.bit_length() - d.bit_length()  # 2^(b-1) < n/d < 2^(b+1)
    s = 18 - math.floor((b - 1) * math.log10(2))
    q, r = divmod(n * 10 ** s, d) if s >= 0 else divmod(n, d * 10 ** -s)
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 17, MAX_EMAX, MIN_EMIN
        return str(Decimal(f"{'-' if x < 0 else ''}{10 * q + (r > 0)}E{-s - 1}").normalize())


def decimal_str(x: Fraction, digits: int = 40) -> str:
    """Exact-truncation decimal rendering of a rational, deterministic."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    whole, rem = divmod(x.numerator, x.denominator)
    out = [sign, str(whole)]
    if rem and digits > 0:
        out.append(".")
        frac_digits = []
        for _ in range(digits):
            rem *= 10
            d, rem = divmod(rem, x.denominator)
            frac_digits.append(str(d))
            if rem == 0:
                break
        out.append("".join(frac_digits))
        if rem != 0:
            out.append("...")
    return "".join(out)


def jsonable(obj: object) -> object:
    """Recursively convert reports to JSON-ready values (Fractions to 'p/q')."""
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if hasattr(obj, "to_json_dict"):
        return jsonable(obj.to_json_dict())
    return obj


def canonical_json_bytes(obj: object) -> bytes:
    """Stable bytes: sorted keys, fixed separators, trailing newline."""
    import json  # here, so text-mode commands never load it
    text = json.dumps(jsonable(obj), sort_keys=True, ensure_ascii=True,
                      indent=2, separators=(",", ": "))
    return (text + "\n").encode("utf-8")


def report_bytes(command: str, inputs: dict, result: object, timing_ms: int = 0) -> bytes:
    """The canonical JSON envelope of one command's report."""
    return canonical_json_bytes({"command": command, "inputs": inputs, "result": result,
                                 "timing_ms": timing_ms, "version": __version__,
                                 "schema": SCHEMA_VERSION})
