"""Report serialization: canonical bytes, rational rendering."""

from __future__ import annotations

import json
import random
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction

from gasket_spectrum.report import (
    canonical_json_bytes,
    decimal_str,
    float_str,
    fraction_str,
    jsonable,
    report_bytes,
)


def test_fraction_str():
    assert fraction_str(Fraction(1, 2)) == "1/2"
    assert fraction_str(Fraction(4, 2)) == "2"
    assert fraction_str(Fraction(-3, 8)) == "-3/8"


def test_decimal_str_exact_and_truncated():
    assert decimal_str(Fraction(2)) == "2"
    assert decimal_str(Fraction(-5, 4)) == "-1.25"
    assert decimal_str(Fraction(1, 3), 5) == "0.33333..."
    assert decimal_str(Fraction(1, 8), 10) == "0.125"
    assert decimal_str(Fraction(1, 10 ** 6), 3) == "0.000..."


def test_jsonable_converts_fractions_recursively():
    payload = {"a": Fraction(1, 3), "b": [Fraction(2), {"c": (Fraction(1, 7),)}]}
    out = jsonable(payload)
    assert out == {"a": "1/3", "b": ["2", {"c": ["1/7"]}]}


def test_canonical_bytes_sorted_and_newline_terminated():
    data = canonical_json_bytes({"b": 1, "a": 2})
    assert data.endswith(b"\n")
    decoded = json.loads(data)
    assert decoded == {"a": 2, "b": 1}
    assert data.index(b'"a"') < data.index(b'"b"')


def test_report_envelope_fields():
    payload = json.loads(report_bytes("dq", {"q": "2.2"}, {"x": Fraction(1, 2)}))
    assert payload["command"] == "dq"
    assert payload["result"]["x"] == "1/2"
    assert payload["timing_ms"] == 0
    assert payload["schema"] == "1"



def test_float_str_rounds_as_decimal_division_beyond_float_range():
    # The reference divides in Decimal: exact, but it converts all of n and d.
    def reference(x):
        with localcontext() as ctx:
            ctx.prec, ctx.Emax, ctx.Emin = 17, MAX_EMAX, MIN_EMIN
            return str((Decimal(x.numerator) / x.denominator).normalize())

    rng = random.Random(5)
    values = [Fraction(10) ** 400, Fraction(1, 10 ** 400), Fraction(1, 3) * 10 ** 500,
              Fraction(10 ** 17 + 5) * 10 ** 400, Fraction(10 ** 17 + 15) * 10 ** 400,
              Fraction(10 ** 18 - 5, 10 ** 420), Fraction(2) ** 1000, Fraction(1, 2 ** 1000)]
    for _ in range(400):
        e = rng.choice((1, -1)) * rng.randint(300, 2000)
        m = Fraction(rng.randint(1, 10 ** rng.randint(1, 40)), rng.randint(1, 10 ** 20))
        values.append(m * Fraction(10) ** e)
    for x in values:
        if not 1e-300 < abs(x) < 1e300:
            assert float_str(x) == reference(x), x
            assert float_str(-x) == reference(-x), x
    assert float_str(Fraction(10) ** 1000000) == "1E+1000000"
    assert float_str(Fraction(3, 2)) == "1.5"
