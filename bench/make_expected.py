"""Write bench/expected.json: the outputs the benchmark pins.

    PYTHONPATH=src python3 bench/make_expected.py

It records ladder roots 2..9 and the Komornik-Loreti constant to 80 digits,
the digest of every verifier report the verify workload runs, and the SVG
and PPM digests of every render the render workload can pick. Run it only
when an output is meant to change, and say why in the change that does.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from gasket_spectrum import bases, geometry, matching, words
from gasket_spectrum.report import decimal_str

from inprocess import (HERE, OUT_DIR, PPM_SIZE, RENDER_DEPTHS, RENDER_QS, RENDER_TS, VERIFY_CASES,
                       file_digest, render_key, report_digest, verify_call, verify_key)


def main() -> None:
    digits = lambda b: decimal_str(b.lo, 80).rstrip(".")
    expected = {
        "roots": {str(n): digits(bases.base_root(n)) for n in range(2, 10)},
        "kl": digits(bases.kl_constant()),
        "verify": {verify_key(c): report_digest(verify_call(matching, c)[1]())
                   for c in VERIFY_CASES},
        "render": {},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        svg, ppm = Path(tmp) / "a.svg", Path(tmp) / "a.ppm"
        for q in RENDER_QS:
            for t in RENDER_TS:
                pair = matching.zip_seqs(words.parse_seq(t[0]), words.parse_seq(t[1]))
                shift = geometry.translation_point(q, pair)
                for depth in RENDER_DEPTHS:
                    clouds = [geometry.build_gasket(q, depth),
                              geometry.build_gasket(q, depth, translate=shift, kind="E_plus_t"),
                              geometry.build_intersection(q, pair, depth)]
                    geometry.emit_svg(clouds, str(svg))
                    geometry.emit_ppm(clouds, str(ppm), PPM_SIZE)
                    expected["render"][render_key(q, t, depth)] = {
                        "svg": file_digest(svg), "ppm": file_digest(ppm)}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
