"""Run one CLI command with its phases timed, for the traced cli-cold run.

    python3 bench/cli_phases.py dq --q 2.3 --format json

Times the import of gasket_spectrum.cli, then the Komornik-Loreti enclosure
and the ladder roots the command needs, in the order it needs them, then
cli.run(argv), which finds those in its caches. The command's report goes to
stdout as usual; the spans go to stderr as one JSON line. The process exits
with the command's exit code.
"""

from __future__ import annotations

import io
import json
import sys
import time
from decimal import Decimal, InvalidOperation
from fractions import Fraction

spans = []


def timed(name: str, fn, *args):
    start = time.perf_counter()
    try:
        return fn(*args)
    finally:
        spans.append({"name": name, "start": start, "end": time.perf_counter()})


def _import():
    import gasket_spectrum.cli as cli
    from gasket_spectrum import bases
    return cli, bases


def warm(bases, argv: list) -> None:
    """The bisections the command would run first, mirroring classify's walk
    (the limit base, then roots from 1 up to the first one above q)."""
    command = argv[0]
    if command == "bases":
        n_max = int(argv[argv.index("--max-n") + 1]) if "--max-n" in argv else 8
        for n in range(1, n_max + 1):
            timed("bases.base_root", bases.base_root, n)
        timed("bases.kl_constant", bases.kl_constant)
        return
    if command not in ("dq", "classify"):
        return
    text = argv[argv.index("--q") + 1]
    if text.lower() == "kl":
        timed("bases.kl_constant", bases.kl_constant)
        return
    try:
        q = Fraction(text) if "/" in text else Fraction(Decimal(text))
    except (ValueError, InvalidOperation):
        return
    if not 2 < q < 3:
        return
    kl = timed("bases.kl_constant", bases.kl_constant)
    if q > kl.hi:
        return
    n = 1
    while timed("bases.base_root", bases.base_root, n).lo <= q:
        n += 1


def main(argv: list) -> int:
    cli, bases = timed("cli.import", _import)
    warm(bases, argv)
    out = io.StringIO()
    code = timed("cli.run", cli.run, argv, out)
    sys.stdout.write(out.getvalue())
    sys.stderr.write(json.dumps(spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
