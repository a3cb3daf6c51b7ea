"""The cli-cold workload: one fresh `python -m gasket_spectrum.cli` per operation.

Each cycle holds the same commands in a seeded order: dq or classify at a
rational inside each ladder band 1..8; dq and classify at the limit base, just
above it and deep in the interval regime; bases --max-n 9; unique, density and
expand; and one base outside (2, 3), whose documented exit code 1 is the right
answer.
Rationals inside the Komornik-Loreti enclosure are left out: classifying one
sweeps ladder roots to the cap before it gives up.

The checks parse the JSON report and compare it with oracles.py, never with
the package itself.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable

import oracles


@dataclass
class CliOp:
    argv: list
    check: Callable[[dict], str | None]  # gets the parsed report; None when right
    exit_code: int = 0


def _regime_check(kind: str, m: int | None = None):
    want = {"kind": kind} if m is None else {"kind": kind, "m": m}
    return lambda doc: None if doc["result"]["regime"] == want else \
        f"regime {doc['result']['regime']}, expected {want}"


def _densities(terms) -> list:
    return [Fraction(t["density"]) for t in terms]


def _dq_band_check(m: int, q: str):
    def check(doc):
        r = doc["result"]
        problem = _regime_check("finite", m)(doc)
        if problem:
            return problem
        want = [oracles.alternating_density(k) for k in range(1, m)]
        got = [] if r["family"] is None else _densities(r["family"]["terms"])
        if got != want:
            return f"family densities {got}, expected {want}"
        lr = oracles.log_ratio(float(q))
        if r["interval"] is not None or len(r["isolated"]) != 2 or \
                abs(max(r["isolated"]) - lr) > 1e-9:
            return f"isolated values {r['isolated']}"
        return None
    return check


def _dq_kl_check(doc):
    r = doc["result"]
    if r["regime"] != {"kind": "komornik_loreti"} or r["family"] is None:
        return f"regime {r['regime']} at the limit base"
    got = _densities(r["family"]["terms"])
    if not got or got != [oracles.alternating_density(k) for k in range(1, len(got) + 1)]:
        return "limit family terms differ from the alternating densities"
    if Fraction(r["family"]["accumulation"]["density"]) != Fraction(1, 3) or len(r["isolated"]) != 3:
        return "limit family lacks the accumulation point at one third"
    return None


def _dq_interval_check(doc):
    r = doc["result"]
    iv = r["interval"]
    if r["regime"] != {"kind": "interval"} or iv is None or r["family"] is not None:
        return f"regime {r['regime']} above the limit base"
    if not (Fraction(iv["lo_density"]) < Fraction(iv["hi_density"]) and iv["lo"] < iv["hi"]
            and iv["containment_only"] is True):
        return f"interval {iv} is not an ordered containment interval"
    return None


def _bases_check(roots: dict, kl: str, n_max: int):
    def truncated(text: str) -> Decimal:
        return Decimal(text.rstrip("."))

    def check(doc):
        rows = doc["result"]["rows"]
        if [row["n"] for row in rows] != list(range(1, n_max + 1)):
            return f"rows {[row['n'] for row in rows]}"
        pinned = dict(roots, **{"1": "2"})
        for row in rows:
            if abs(truncated(row["lo"]) - Decimal(pinned[str(row["n"])])) > Decimal("1e-39"):
                return f"root {row['n']} reads {row['lo']}"
        if abs(truncated(doc["result"]["kl"]["lo"]) - Decimal(kl)) > Decimal("1e-39"):
            return f"limit base reads {doc['result']['kl']['lo']}"
        return None
    return check


def _random_word(rng: random.Random, lo: int, hi: int) -> tuple:
    return tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(lo, hi)))


def _random_q(rng: random.Random) -> str:
    return str(Decimal(rng.randint(205000, 299000)) / 100000)


def cycles(rng: random.Random, expected: dict):
    """Yield lists of CliOp, one list per cycle, forever."""
    roots = dict(expected["roots"], **{"1": "2"})
    kl = Decimal(expected["kl"])

    def band_q(m: int) -> str:
        with localcontext() as ctx:
            ctx.prec = 200
            lo, hi = Decimal(roots[str(m)]), Decimal(roots[str(m + 1)])
            return str(lo + (hi - lo) * Decimal(rng.randint(1, 999)) / 1000)

    def band(command: str, m: int) -> CliOp:
        q = band_q(m)
        check = _dq_band_check(m, q) if command == "dq" else _regime_check("finite", m)
        return CliOp([command, "--q", q], check)

    def above_kl() -> str:
        with localcontext() as ctx:
            ctx.prec = 200
            return str(kl + Decimal(10) ** -rng.randint(6, 40))

    def unique() -> CliOp:
        pre, per = _random_word(rng, 0, 3), _random_word(rng, 1, 6)
        q = _random_q(rng)
        want = oracles.is_unique(pre, per, Fraction(q))
        lit = oracles.format_literal(pre, per)
        return CliOp(["unique", "--q", q, f"--seq={lit}"],
                     lambda doc: None if doc["result"]["verdict"]["unique"] == want else
                     f"verdict {doc['result']['verdict']} for {lit} at {q}, expected {want}")

    def density() -> CliOp:
        x = (_random_word(rng, 0, 2), _random_word(rng, 1, 5))
        if rng.random() < 0.5:
            want = oracles.zero_density(x[1])
            return CliOp(["density", "--seq=" + oracles.format_literal(*x)],
                         lambda doc: None if Fraction(doc["result"]["zero_density"]) == want
                         else f"zero density {doc['result']['zero_density']}, expected {want}")
        y = (_random_word(rng, 0, 2), _random_word(rng, 1, 5))
        matched, zeros = oracles.pair_stats(x, y)

        def check(doc):
            rep = doc["result"]["pair"]
            if rep["matched"] != matched or Fraction(rep["zero_pair_density"]) != zeros:
                return f"pair report {rep}, expected matched={matched} density={zeros}"
            return None
        return CliOp(["density", "--x=" + oracles.format_literal(*x),
                      "--y=" + oracles.format_literal(*y)], check)

    def expand() -> CliOp:
        q = _random_q(rng)
        x = str(Decimal(rng.randint(-5000, 5000)) / 10000)
        depth = rng.randint(8, 24)

        def check(doc):
            digits = doc["result"]["digit_list"]
            qf = Fraction(q)
            if len(digits) != depth or any(d not in (-1, 0, 1) for d in digits):
                return f"digits {digits}"
            deficit = Fraction(x) - sum(Fraction(d) / qf ** (i + 1) for i, d in enumerate(digits))
            if abs(deficit) > 1 / (qf ** depth * (qf - 1)):
                return f"digits {digits} leave a deficit {float(deficit)} above the truncation bound"
            return None
        return CliOp(["expand", "--q", q, f"--x={x}", "--depth", str(depth)], check)

    def outside() -> CliOp:
        q = rng.choice(("1.75", "2", "3", "3.5"))
        return CliOp(["dq", "--q", q], lambda doc: None if "error" in doc["result"] else
                     f"no error reported for base {q}", exit_code=1)

    for i in itertools.count():
        # Every band each cycle: dq at one parity of the band index and
        # classify at the other, swapped from one cycle to the next.
        ops = [band(("dq", "classify")[(m + i) % 2], m) for m in range(1, 9)]
        ops += [CliOp(["dq", "--q", "kl"], _dq_kl_check),
                CliOp(["dq", "--q", above_kl()], _dq_interval_check),
                CliOp(["classify", "--q", above_kl()], _regime_check("interval")),
                CliOp(["dq", "--q", str(Decimal(rng.randint(256000, 299000)) / 100000)],
                      _dq_interval_check),
                CliOp(["bases", "--max-n", "9"], _bases_check(expected["roots"], expected["kl"], 9)),
                unique(), density(), expand(), outside()]
        for op in ops:
            op.argv = op.argv + ["--format", "json"]
        rng.shuffle(ops)
        yield ops
