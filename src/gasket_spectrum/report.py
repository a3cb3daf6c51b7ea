"""Deterministic report envelopes and canonical JSON serialization."""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

from . import __version__

SCHEMA_VERSION = "1"


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def float_str(x: Fraction) -> str:
    """x as a float where a float holds it, else to 17 significant digits:
    1e400 overflows a float and 1e-400 rounds to 0.0."""
    if x == 0 or 1e-300 < abs(x) < 1e300:
        return str(float(x))
    with localcontext() as ctx:
        ctx.prec = 17
        return str((Decimal(x.numerator) / x.denominator).normalize())


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
    if isinstance(obj, float):
        return obj
    if hasattr(obj, "to_json_dict"):
        return jsonable(obj.to_json_dict())
    return obj


def canonical_json_bytes(obj: object) -> bytes:
    """Stable bytes: sorted keys, fixed separators, trailing newline."""
    import json  # here, so text-mode commands never load it
    text = json.dumps(jsonable(obj), sort_keys=True, ensure_ascii=True,
                      indent=2, separators=(",", ": "))
    return (text + "\n").encode("utf-8")


class Report:
    __slots__ = ("command", "inputs", "result", "timing_ms", "version", "schema")

    def __init__(self, command: str, inputs: dict, result: object, timing_ms: int = 0,
                 version: str = __version__, schema: str = SCHEMA_VERSION):
        self.command = command
        self.inputs = inputs
        self.result = result
        self.timing_ms = timing_ms
        self.version = version
        self.schema = schema

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "result": self.result,
            "timing_ms": self.timing_ms,
            "version": self.version,
            "schema": self.schema,
        }

    def to_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_json_dict())
