"""CLI dispatch, exit codes, report shapes, config layering, determinism."""

from __future__ import annotations

import ast
import hashlib
import io
import json
import math
import os
import time

from fractions import Fraction

import pytest

from gasket_spectrum import bases, cli, geometry, matching, selftest, words
from gasket_spectrum.bases import as_base_value
from gasket_spectrum.cli import build_parser, run
from gasket_spectrum.config import ENV_KEYS, RunConfig, load_config
from gasket_spectrum.errors import DomainError
from gasket_spectrum.report import decimal_str

from helpers import reference_emit_ppm, reference_emit_svg, seq_value


def run_cli(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run_cli(argv + ["--format", "json"])
    return code, json.loads(text)


def test_dq_finite_band_json():
    code, payload = run_json(["dq", "--q", "2.2"])
    assert code == 0
    assert payload["command"] == "dq"
    assert payload["result"]["regime"] == {"kind": "finite", "m": 1}
    assert payload["result"]["provenance"]["m"] == 1
    assert payload["timing_ms"] == 0


def test_dq_interval_json():
    code, payload = run_json(["dq", "--q", "2.9"])
    assert code == 0
    interval = payload["result"]["interval"]
    assert interval["containment_only"] is True
    assert interval["lo"] < interval["hi"]
    assert payload["result"]["provenance"]["sft_n"] == interval["sft_n"]


def test_dq_just_above_kl_json():
    # KL + 1e-150 lies between the scale-7 and scale-5 thresholds (p_7 - KL ~
    # 1e-259, p_5 - KL ~ 1e-65); alpha there reads a long prefix of KL's digits.
    kl = bases.kl_constant(1e-200).hi
    q = Fraction(int(kl * 10 ** 170) + 10 ** 20, 10 ** 170)  # a 170-place decimal
    code, payload = run_json(["dq", "--q", decimal_str(q, 170)])
    assert code == 0
    assert payload["result"]["provenance"]["sft_n"] == 7


def test_verify_pass_report():
    code, payload = run_json(["verify", "--lemma", "3.4", "--n", "2", "--m", "5"])
    assert code == 0
    assert payload["result"]["pass"] is True
    assert payload["result"]["lemma"] == "3.4"
    assert payload["result"]["params"] == {"n": 2, "m": 5}
    assert "witnesses" in payload["result"] and "counterexamples" in payload["result"]


def test_verify_all_checks_run():
    for argv in (
        ["verify", "--lemma", "3.1", "--n", "3"],
        ["verify", "--lemma", "3.2", "--n", "3", "--variant", "plain"],
    ):
        code, payload = run_json(argv)
        assert code == 0 and payload["result"]["pass"] is True


def test_classify_domain_error_exit_code():
    code, text = run_cli(["classify", "--q", "3.5"])
    assert code == 1
    assert "error" in text


def test_base_beyond_float_range_is_domain_error(capsys):
    # 1e400 overflows a float and 1e-400 rounds to 0.0; the message keeps both.
    for q, shown in (("1e400", "1E+400"), ("1e-400", "1E-400")):
        for argv in (["dq", "--q", q], ["classify", "--q", q],
                     ["unique", "--q", q, "--seq", "0^inf"],
                     ["expand", "--q", q, "--x", "1/2"]):
            code, text = run_cli(argv)
            assert code == 1 and f"error: base enclosure [{shown}, {shown}]" in text, argv
            code, payload = run_json(argv)
            assert code == 1 and shown in payload["result"]["error"], argv
    argv = ["expand", "--q", "2.5", "--x", "1e400"]
    code, text = run_cli(argv)
    assert code == 1 and "error: 1E+400 is outside the representable interval" in text
    code, payload = run_json(argv)
    assert code == 1 and "1E+400" in payload["result"]["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_huge_decimal_exponents_exit_1_in_bounded_time():
    # Near the exponent cap the value costs one power of ten to build and to
    # print; past it the literal is refused unbuilt. Uncapped, the exact
    # 10^k and its Decimal formatting run for minutes, or do not finish.
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    expand = ["expand", "--q", "2.5"]
    cases = ((["classify", "--q", "1e1000000"], "[1E+1000000, 1E+1000000]"),
             (["classify", "--q", "25e-1000000"], "[2.5E-999999, 2.5E-999999]"),
             (["classify", "--q", "1e999999999"], "beyond the cap of +-1000000"),
             (expand + ["--x", "1e1000000"], "1E+1000000 is outside the representable"),
             (expand + ["--x", "1e999999999"], "beyond the cap of +-1000000"),
             (expand + ["--x=-1e-999999999"], "beyond the cap of +-1000000"))
    for argv, shown in cases:
        proc = subprocess.run([sys.executable, "-m", "gasket_spectrum.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=15)
        assert proc.returncode == 1 and shown in proc.stdout, (argv, proc.stderr)
    code, _ = run_cli(expand + ["--x", "1e-1000000"])  # at the cap: still a value
    assert code == 0


def test_coprime_long_periods_exit_1_before_pairing(tmp_path):
    # Periods of 1451 and 1453 digits (both prime) pair into a period of
    # 2108303 > 2^21 digits, just past the cap.
    x, y = "+" + "0" * 1450 + "^inf", "+-" + "0" * 1451 + "^inf"
    out = str(tmp_path / "never.svg")
    for argv in (["density", "--x", x, "--y", y],
                 ["render", "--q", "2.5", "--t-seq", x, y, "--out", out]):
        started = time.perf_counter()
        code, text = run_cli(argv)
        assert time.perf_counter() - started < 1, argv[0]
        assert code == 1, argv[0]
        assert "periods of 1451 and 1453 digits" in text and "cap 2097152" in text, text
    assert not os.path.exists(out)


def test_long_preperiod_continuing_the_period_is_fast():
    # Cut one digit per pass, this literal took ~19 s to canonicalize.
    started = time.perf_counter()
    code, text = run_cli(["unique", "--q", "2.5", "--seq", "0" * 120000 + ";0^inf"])
    assert code == 0 and "unique: yes" in text
    assert time.perf_counter() - started < 2


def test_long_decimal_coefficient_and_binary_word_exit_1():
    literal = "1" * 130000 + "e-1000000"  # ~3.5 s to convert if it were accepted
    for argv in (["classify", "--q", literal], ["expand", "--q", "2.5", "--x", literal]):
        code, text = run_cli(argv)
        assert code == 1 and "coefficient of 130000 digits lies beyond the cap of 4300" in text
    code, text = run_cli(["unique", "--q", "2.5", "--seq", "10^inf"])
    assert code == 1 and "error: cannot parse word '10'" in text


# sha256 of the stdout bytes. The digests were taken before the subshift graph,
# the block closed form and the spectrum assembly were restated, so a refactor
# is checked against those bytes. The JSON envelopes carry the package version.
OUTPUT_PINS = (
    (["dq", "--q", "2.2", "--format", "json"],
     "70d6f28dec4b319c23b99291ce72be612b2da812fd0870252afd3ada896a6808"),
    (["dq", "--q", "2.2"], "a67b9b84fdf9e4d6059f8d51f8f90fe7805b2bc8d27f7eba87a4c0dde741b0f2"),
    (["dq", "--q", "2.45", "--format", "json"],
     "bd161b76a34d1e516dfa95374c66ae9481bae429da13d4187b4f5a56f0720b7b"),
    (["dq", "--q", "2.45"], "bf9e5ea828e9ce347e458d430297a448bf9c0b453177579d54d240005463897f"),
    (["dq", "--q", "kl", "--format", "json"],
     "f616968c7e171f9bc2f50a5f0ba29bae4bff763a8c1c816a034f69c5643042d1"),
    (["dq", "--q", "kl"], "5c34b3792ae62d1fc14088c33b53ff293ebac35743dd0343b7c75f51b1c392c5"),
    (["dq", "--q", "2.6", "--format", "json"],
     "0051446d0f2baed74ebcbf918fcec029b30892d2c4436d761527489ad3be4682"),
    (["dq", "--q", "2.6"], "de487a52524b3892226cb7d2dd0a3435e5825881acd8ac36a5ea42effecbe7a9"),
    (["dq", "--q", "2.75", "--format", "json"],
     "ed3a325a1ce0a755b839d76b23dcfcbadd8e16412c5ce2b0c7566ea330940665"),
    (["dq", "--q", "2.75"], "4913c30faa8e10884fb4cfee4d883b5b301749abee7658f029931a8735ed61c9"),
    (["dq", "--q", "2.9", "--format", "json"],
     "5e66446aadd720e5c74278599b81439af0cf63af2d5eb1899a61f4bc4c2fe1d1"),
    (["dq", "--q", "2.9"], "3f9e54c6dd829985577cec4fa65b5429ef80a62b4f5681d4fe3a20f778f6815a"),
    (["dq", "--q", "kl", "--kl-terms", "5", "--format", "json"],
     "e49b379aa18f497f0ed82f14ff9b88584c63afab48fe95be0cd4f784dde20299"),
    (["selftest", "--format", "json"],
     "c10c84a450351eb092cf71d46e480f56f289e1b407cb1a6a416a975e4633bfb3"),
    (["selftest"], "d5e02b9330e288b2b4bc9895924ee4bc507e85b67190db98072ac4c6a1c9ae12"),
)


def test_dq_and_selftest_output_bytes_pinned(monkeypatch):
    for key in ENV_KEYS:
        monkeypatch.delenv(key, raising=False)
    for argv, digest in OUTPUT_PINS:
        code, text = run_cli(argv)
        assert code == 0 and hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, argv


def test_bases_past_the_ladder_cap_fails_before_any_root(monkeypatch):
    calls = []
    real = bases.base_root
    monkeypatch.setattr(bases, "base_root", lambda *a: calls.append(a) or real(*a))
    code, text = run_cli(["bases", "--max-n", "25"])
    assert code == 3 and "error: ladder index 25 exceeds cap 24" in text
    assert calls == []


def test_bases_below_the_first_ladder_index_exits_1(monkeypatch):
    # A row count below 1 is refused by the ladder's own index check (exit 1),
    # before any root or the limit base is computed.
    calls = []
    for name in ("base_root", "kl_constant"):
        real = getattr(bases, name)
        monkeypatch.setattr(bases, name, lambda *a, real=real: calls.append(a) or real(*a))
    for value in ("0", "-3"):
        code, text = run_cli(["bases", f"--max-n={value}"])
        assert code == 1 and text == "bases:\n  error: ladder index must be >= 1\n", value
    assert calls == []


def test_usage_error_exit_code():
    code, _ = run_cli(["no-such-command"])
    assert code == 2
    code, _ = run_cli(["verify", "--lemma", "blocks", "--n", "3"])
    assert code == 2
    code, _ = run_cli(["verify", "--lemma", "9.9", "--n", "1"])
    assert code == 2


def test_expand_and_unique_commands():
    code, payload = run_json(["expand", "--q", "2.6", "--x", "0", "--depth", "6"])
    assert code == 0
    assert payload["result"]["digits"] == "000000"
    code, payload = run_json(["unique", "--q", "2.45", "--seq", "+0-0^inf"])
    assert code == 0
    assert payload["result"]["verdict"]["unique"] is False
    assert payload["result"]["verdict"]["failing_index"] == 2
    code, payload = run_json(["unique", "--q", "2.55", "--seq", "+0-0^inf"])
    assert payload["result"]["verdict"]["unique"] is True


def test_expand_values_match_fraction_reference():
    # partial_value and deficit are floats of the exact rationals, the sign of
    # a deficit that underflows to zero included
    for q, x, depth in (("2.6", "0.335", 40), ("2.6", "0.335", 0), ("2.5", "0.3", 900),
                        ("2.5", "-1/7", 900), ("2.71", "1e-30", 300)):
        code, payload = run_json(["expand", "--q", q, f"--x={x}", "--depth", str(depth)])
        assert code == 0
        result = payload["result"]
        partial = seq_value(words.Seq(tuple(result["digit_list"]), (0,)), Fraction(q))
        assert result["partial_value"] == float(partial)
        deficit = float(Fraction(x) - partial)
        assert (result["deficit"], math.copysign(1, result["deficit"])) == \
            (deficit, math.copysign(1, deficit)), (q, x, depth)


def test_density_command_forms():
    code, payload = run_json(["density", "--seq", "+0-0^inf"])
    assert code == 0 and payload["result"]["zero_density"] == "1/2"
    code, payload = run_json(["density", "--x", "+0-0^inf", "--y=-0+0^inf"])
    assert code == 0
    assert payload["result"]["pair"]["zero_pair_density"] == "1/2"
    code, _ = run_cli(["density"])
    assert code == 1


def test_bases_table():
    code, payload = run_json(["bases", "--max-n", "4"])
    assert code == 0
    rows = payload["result"]["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    assert rows[0]["word"] == "2" and rows[1]["word"] == "21"
    assert rows[1]["lo"].startswith("2.4142135623")
    assert payload["result"]["kl"]["lo"].startswith("2.53594804")
    gaps = [r["gap_from_previous"] for r in rows[1:]]
    assert all(g > 0 for g in gaps)


def test_render_svg_and_ppm(tmp_path):
    out_svg = str(tmp_path / "pic.svg")
    code, _ = run_cli(["render", "--q", "2.5", "--t-seq", "+0-0^inf", "0;+0-0^inf",
                       "--depth", "4", "--out", out_svg])
    assert code == 0 and os.path.exists(out_svg)
    out_ppm = str(tmp_path / "pic.ppm")
    code, _ = run_cli(["render", "--q", "2.5", "--t-seq", "+0-0^inf", "0;+0-0^inf",
                       "--depth", "4", "--out", out_ppm,
                       "--image-format", "ppm", "--size", "64"])
    assert code == 0
    assert open(out_ppm, "rb").read().startswith(b"P6\n64 64\n")


def test_render_layer_selection(tmp_path):
    out = str(tmp_path / "layers.svg")
    code, _ = run_cli(["render", "--q", "2.5", "--t-seq", "+0-0^inf", "0;+0-0^inf",
                       "--depth", "3", "--out", out, "--layers", "int"])
    assert code == 0
    text = open(out).read()
    assert 'data-layer="intersection"' in text
    assert 'data-layer="E"' not in text
    code, _ = run_cli(["render", "--q", "2.5", "--t-seq", "+0-0^inf", "0;+0-0^inf",
                       "--depth", "3", "--out", out, "--layers", "bogus"])
    assert code == 1


def test_render_without_layers_is_domain_error(tmp_path):
    out = tmp_path / "none.svg"
    code, text = run_cli(["render", "--q", "2.9", "--t-seq", "+0-0^inf", "0;+0-0^inf",
                          "--depth", "3", "--out", str(out), "--layers", ","])
    assert code == 1 and "no layers to render" in text
    assert not out.exists()


def test_byte_determinism_all_commands(tmp_path):
    commands = [
        ["dq", "--q", "2.2", "--format", "json"],
        ["dq", "--q", "2.9", "--format", "json"],
        ["bases", "--max-n", "5", "--format", "json"],
        ["classify", "--q", "2.45", "--format", "json"],
        ["expand", "--q", "2.6", "--x", "0.335", "--depth", "8", "--format", "json"],
        ["unique", "--q", "2.45", "--seq", "+0-0^inf", "--format", "json"],
        ["density", "--seq", "+0-0^inf", "--format", "json"],
        ["verify", "--lemma", "3.1", "--n", "4", "--format", "json"],
    ]
    for argv in commands:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second, argv
    svg1, svg2 = str(tmp_path / "one.svg"), str(tmp_path / "two.svg")
    base = ["render", "--q", "2.5", "--t-seq", "+0-0^inf", "0;+0-0^inf", "--depth", "5"]
    assert run_cli(base + ["--out", svg1])[0] == 0
    assert run_cli(base + ["--out", svg2])[0] == 0
    assert open(svg1, "rb").read() == open(svg2, "rb").read()


def test_timing_flag_populates_field():
    code, payload = run_json(["bases", "--max-n", "3", "--timing"])
    assert code == 0
    assert payload["timing_ms"] >= 0


def test_config_precedence(tmp_path, monkeypatch):
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text('{"kl_terms": 7, "tolerance": 1e-9}')
    cfg = load_config(config_path=str(cfg_path), env={})
    assert cfg.kl_terms == 7 and cfg.tolerance == 1e-9
    cfg = load_config(config_path=str(cfg_path), env={"GS_KL_TERMS": "9"})
    assert cfg.kl_terms == 9
    cfg = load_config(flag_values={"kl_terms": 11}, config_path=str(cfg_path),
                      env={"GS_KL_TERMS": "9"})
    assert cfg.kl_terms == 11


def test_config_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"bogus": 1}')
    with pytest.raises(DomainError):
        load_config(config_path=str(cfg_path), env={})
    # The retired file-only caps are module constants; a config file cannot set them.
    for key in ("alpha_horizon_max", "max_ladder_index", "ladder_digits_cap",
                "sft_max_n", "max_render_depth", "max_word_length"):
        cfg_path.write_text(json.dumps({key: 8}))
        code, text = run_cli(["classify", "--q", "2.2", "--config", str(cfg_path)])
        assert code == 1 and "unknown config keys" in text and key in text, key
    # A malformed value, a value of the wrong JSON type (a bool is no number)
    # or a file that is not a JSON object is an error too.
    for content in ('{"kl_terms": "x"}', "5", '{"kl_terms": 3.7}', '{"kl_terms": true}',
                    '{"max_block_exponent": 9.99}', '{"tolerance": true}'):
        cfg_path.write_text(content)
        code, text = run_cli(["classify", "--q", "2.2", "--config", str(cfg_path)])
        assert code == 1 and "error" in text, content


def test_every_config_field_has_an_environment_variable():
    # A knob reachable only from a config file would be untested and undocumented.
    names = set(RunConfig.__slots__)
    assert names == {v for v in ENV_KEYS.values() if v is not None}


def test_config_env_format(monkeypatch):
    cfg = load_config(env={"GS_FORMAT": "json"})
    assert cfg.output_format == "json"
    assert RunConfig().output_format == "text"


def test_malformed_values_are_domain_errors():
    code, text = run_cli(["expand", "--q", "2.5", "--x", "1/0", "--depth", "4"])
    assert code == 1 and "error" in text
    code, text = run_cli(["expand", "--q", "2.5", "--x", "apple", "--depth", "4"])
    assert code == 1
    code, text = run_cli(["unique", "--q", "2.5", "--seq", "garbage"])
    assert code == 1
    code, text = run_cli(["dq", "--q", "1/0"])
    assert code == 1
    for tolerance in ("nan", "inf"):
        code, text = run_cli(["classify", "--q", "2.2", "--tolerance", tolerance])
        assert code == 1 and "tolerance" in text, tolerance
    with pytest.raises(DomainError):
        load_config(env={"GS_MAX_N": "abc"})
    for q in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            as_base_value(q)


def test_max_n_guards_verify():
    code, text = run_cli(["verify", "--lemma", "3.1", "--n", "9", "--max-n", "10"])
    assert code == 1 and "cap" in text
    code, _ = run_cli(["verify", "--lemma", "3.1", "--n", "8", "--max-n", "10"])
    assert code == 0


def test_max_n_guards_cross_scale_m():
    code, text = run_cli(["verify", "--lemma", "3.4", "--n", "2", "--m", "12", "--max-n", "10"])
    assert code == 1 and "scale 12" in text
    code, _ = run_cli(["verify", "--lemma", "3.4", "--n", "2", "--m", "8", "--max-n", "10"])
    assert code == 0


def test_verify_scale_caps_refuse_before_scanning(monkeypatch):
    def no_scan(n):
        raise AssertionError("a block word was built past the scale cap")

    monkeypatch.setattr(matching, "block_word", no_scan)
    for check, cap in matching.MAX_SCALE.items():
        scale = ["--n", "1", "--m", str(cap + 1)] if check == "3.4" else ["--n", str(cap + 1)]
        code, text = run_cli(["verify", "--lemma", check, *scale])
        assert code == 1
        assert f"error: check {check} at scale {cap + 1} exceeds its cap {cap}" in text


def test_max_n_cannot_raise_block_cap():
    # --max-n lowers the block cap only; above the built-in cap it is refused up front.
    code, text = run_cli(["verify", "--lemma", "3.1", "--n", "25", "--max-n", "40"])
    assert code == 1
    assert "scale 25" in text and str(words.MAX_BLOCK_EXPONENT) in text


def test_render_checks_raster_size_before_building(tmp_path, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a point cloud was built for an invalid raster size")

    monkeypatch.setattr(geometry, "build_gasket", no_build)
    monkeypatch.setattr(geometry, "build_intersection", no_build)
    out = io.StringIO()
    code = run(["render", "--q", "2.5", "--t-seq", "+0-0^inf", "0;+0-0^inf",
                "--depth", "12", "--out", str(tmp_path / "x.ppm"),
                "--image-format", "ppm", "--size", "8"], out)
    assert code == 1
    assert "raster size must be in [16, 4096]" in out.getvalue()


def test_render_output_matches_reference_emitters(tmp_path):
    # the README's two render examples, and the intersection layer alone
    q, x, y = "2.5", "+0-0^inf", "0;+0-0^inf"
    pair = matching.zip_seqs(words.parse_seq(x), words.parse_seq(y))
    e = geometry.build_gasket(q, 6)
    et = geometry.build_gasket(q, 6, translate=geometry.translation_point(q, pair),
                               kind="E_plus_t")
    inter = geometry.build_intersection(q, pair, 6)
    cases = [
        ("all.svg", ["--layers", "e,et,int"], [e, et, inter], reference_emit_svg),
        ("all.ppm", ["--image-format", "ppm", "--size", "512"], [e, et, inter],
         reference_emit_ppm),
        ("int.svg", ["--layers", "int"], [inter], reference_emit_svg),
    ]
    want = str(tmp_path / "reference")
    for name, flags, clouds, reference in cases:
        out = str(tmp_path / name)
        code, _ = run_cli(["render", "--q", q, "--t-seq", x, y, "--depth", "6",
                           "--out", out] + flags)
        assert code == 0
        reference(clouds, want)
        assert open(out, "rb").read() == open(want, "rb").read(), name


def test_render_reports_pinned_and_image_written(tmp_path, monkeypatch):
    # The report of render in text and JSON, chosen by --format or GS_FORMAT;
    # the image is written either way. A relative --out keeps the bytes fixed.
    for key in ENV_KEYS:
        monkeypatch.delenv(key, raising=False)
    monkeypatch.chdir(tmp_path)
    argv = ["render", "--q", "2.5", "--t-seq", "+0-0^inf", "0;+0-0^inf",
            "--depth", "3", "--out", "pic.svg"]
    text = "render:\n  wrote pic.svg (svg, 55 points)\n"
    cases = (
        (["--format", "text"], None, hashlib.sha256(text.encode()).hexdigest()),
        (["--format", "json"], None,
         "f4182fc1357365343eb112feaef786e7f7a10a2a71f08959b26a5d82bce4c618"),
        ([], "json", "0e0782331b9e5d5b4d6b33bdf6cbfd98c77ab893a43370cb332b537e74936662"),
        (["--format", "svg"], "json",
         "f92952b0f67be9c282127a2f30d045f6e2408402259a264944f6240b0a5bbbb0"),
    )
    for flags, env, digest in cases:
        if env is None:
            monkeypatch.delenv("GS_FORMAT", raising=False)
        else:
            monkeypatch.setenv("GS_FORMAT", env)
        if os.path.exists("pic.svg"):
            os.remove("pic.svg")
        code, out = run_cli(argv + flags)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, (flags, out)
        with open("pic.svg", "rb") as fh:
            assert fh.read().startswith(b"<svg"), flags


def test_render_spec_format_alias(tmp_path):
    out = str(tmp_path / "alias.ppm")
    code, _ = run_cli(["render", "--q", "2.5", "--t-seq", "+0-0^inf", "0;+0-0^inf",
                       "--depth", "3", "--out", out, "--format", "ppm"])
    assert code == 0
    assert open(out, "rb").read().startswith(b"P6\n")


def test_kl_terms_flag_controls_family_size():
    code, payload = run_json(["dq", "--q", "kl", "--kl-terms", "5"])
    assert code == 0
    assert len(payload["result"]["family"]["terms"]) == 5


def test_size_inputs_past_their_caps_exit_1(monkeypatch):
    from gasket_spectrum.spectrum import MAX_KL_TERMS
    from gasket_spectrum.expansions import MAX_EXPAND_DEPTH
    depth = str(MAX_EXPAND_DEPTH + 1)
    code, text = run_cli(["expand", "--q", "2.6", "--x", "0.335", "--depth", depth])
    assert code == 1 and f"error: depth {depth} exceeds cap {MAX_EXPAND_DEPTH}" in text
    terms = str(MAX_KL_TERMS + 1)
    code, payload = run_json(["dq", "--q", "kl", "--kl-terms", terms])
    assert code == 1 and payload["result"] == {"error": f"kl_terms {terms} exceeds cap {MAX_KL_TERMS}"}
    monkeypatch.setenv("GS_KL_TERMS", terms)
    code, text = run_cli(["dq", "--q", "kl"])
    assert code == 1 and f"exceeds cap {MAX_KL_TERMS}" in text


def test_selftest_passes_and_detects_fault(monkeypatch):
    code, payload = run_json(["selftest"])
    assert code == 0
    assert payload["result"]["all_pass"] is True
    names = [item["name"] for item in payload["result"]["items"]]
    assert "shift-trichotomy" in names and "ladder-roots" in names
    # fault injection: corrupt block 6 as the battery reads it and expect a failure
    real = words.tm_block
    monkeypatch.setattr(words, "tm_block", lambda n: (1, 1) * 32 if n == 6 else real(n))
    monkeypatch.setattr(selftest, "CHECKS",
                        tuple(c for c in selftest.CHECKS if c[0] == "block-calculus"))
    code, payload = run_json(["selftest"])
    assert code == 1
    failed = {item["name"] for item in payload["result"]["items"] if not item["pass"]}
    assert "block-calculus" in failed


def test_failing_verify_report_exits_1(monkeypatch):
    # A check whose report fails exits 1, as a failing selftest does, in
    # text and in JSON; the report is still printed.
    failing = matching.VerifierReport(check="3.1", params={"n": 2}, passed=False,
                                      counterexamples=[{"i": 3, "reason": "injected"}])
    monkeypatch.setitem(cli.CHECK_RUNNERS, "3.1", lambda args: failing)
    code, text = run_cli(["verify", "--lemma", "3.1", "--n", "2"])
    assert code == 1
    assert text == ("verify:\n  check 3.1: FAIL\n"
                    "  counterexamples: [{'i': 3, 'reason': 'injected'}]\n")
    code, payload = run_json(["verify", "--lemma", "3.1", "--n", "2"])
    assert code == 1 and payload["result"]["pass"] is False
    assert payload["result"]["counterexamples"] == [{"i": 3, "reason": "injected"}]


def test_selftest_has_no_assert_statements():
    # python -O strips assert statements; every check must fail through _require.
    with open(selftest.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_selftest_detects_fault_under_optimize():
    # python -O strips assert statements; the battery must still fail.
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "from gasket_spectrum import selftest, words\n"
        "real = words.tm_block\n"
        "words.tm_block = lambda n: (1, 1) * 32 if n == 6 else real(n)\n"
        "selftest.CHECKS = tuple(c for c in selftest.CHECKS if c[0] == 'block-calculus')\n"
        "result = selftest.run_selftest()\n"
        "failed = [i['name'] for i in result['items'] if not i['pass']]\n"
        "print(result['all_pass'], failed)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False ['block-calculus']"


def test_report_version_is_package_version():
    import gasket_spectrum

    code, payload = run_json(["classify", "--q", "2.2"])
    assert code == 0
    assert payload["version"] == gasket_spectrum.__version__


def test_flags_before_subcommand_are_a_usage_error():
    code, text = run_cli(["--format", "json", "dq", "--q", "2.2"])
    assert code == 2
    assert text == ""


# The least argv each subcommand parses with.
_REQUIRED_ARGS = {
    "bases": [],
    "classify": ["--q", "2.2"],
    "expand": ["--q", "2.5", "--x", "1/3"],
    "unique": ["--q", "2.5", "--seq", "0^inf"],
    "density": [],
    "verify": ["--lemma", "3.1", "--n", "2"],
    "dq": ["--q", "2.2"],
    "render": ["--q", "2.5", "--t-seq", "0^inf", "0^inf", "--out", "x.svg"],
    "selftest": [],
}


def test_every_subcommand_takes_the_common_flags(tmp_path, monkeypatch):
    # bases owns --max-n and render owns --format; every other common flag
    # parses on every subcommand and its value reaches the run config.
    for key in ENV_KEYS:
        monkeypatch.delenv(key, raising=False)
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text('{"kl_terms": 7}')
    common = {
        "--format": (["json"], lambda cfg: cfg.output_format == "json"),
        "--config": ([str(cfg_path)], lambda cfg: cfg.kl_terms == 7),
        "--tolerance": (["1e-9"], lambda cfg: cfg.tolerance == 1e-9),
        "--max-n": (["5"], lambda cfg: cfg.max_block_exponent == 5),
    }
    owned = {"bases": "--max-n", "render": "--format"}
    assert set(_REQUIRED_ARGS) == set(cli.COMMANDS)
    parser = build_parser()
    for command, required in _REQUIRED_ARGS.items():
        for flag, (value, holds) in common.items():
            if owned.get(command) == flag:
                continue
            args = parser.parse_args([command, *required, flag, *value])
            assert holds(cli._config_from_args(args)), (command, flag)
            assert not args.timing, command
        assert parser.parse_args([command, *required, "--timing"]).timing, command
    args = parser.parse_args(["bases", "--max-n", "5"])
    assert args.bases_max_n == 5
    assert cli._config_from_args(args).max_block_exponent == RunConfig().max_block_exponent
    args = parser.parse_args(["render", *_REQUIRED_ARGS["render"], "--format", "ppm"])
    assert args.render_format == "ppm"
    assert cli._config_from_args(args).output_format == "text"


def test_cli_import_loads_no_code_generation_or_unused_modules():
    # The records are plain classes, so importing the CLI needs neither
    # dataclasses nor the inspect machinery it pulls in; expansions, matching,
    # spectrum, geometry and the selftest battery load only for the commands
    # that use them (test_each_command_loads_only_its_modules). Annotations
    # are never evaluated, so typing is not needed either, and json loads only
    # where JSON is written or a config file read.
    import subprocess
    import sys

    import gasket_spectrum

    src = os.path.dirname(os.path.dirname(os.path.abspath(gasket_spectrum.__file__)))
    unwanted = ("dataclasses", "inspect", "typing", "json", "gasket_spectrum.expansions",
                "gasket_spectrum.geometry", "gasket_spectrum.matching",
                "gasket_spectrum.selftest", "gasket_spectrum.spectrum")
    script = ("import sys, gasket_spectrum.cli\n"
              f"print(sorted(m for m in {unwanted!r} if m in sys.modules))\n")
    # -S: no site hooks, so only the package's own imports are seen
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # The run configuration belongs to the CLI: the library and its battery
    # take their settings as arguments and never load it.
    script = ("import sys, gasket_spectrum, gasket_spectrum.selftest\n"
              "print('gasket_spectrum.config' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# The library modules each command loads, beyond cli and the modules every
# command needs (bases, config, errors, report, words). A new command must add
# its rows here.
_COMMAND_MODULES = (
    (["bases", "--max-n", "3"], set()),
    (["classify", "--q", "2.45"], set()),
    (["classify", "--q", "2.9"], set()),
    (["dq", "--q", "2.45"], {"spectrum"}),
    (["dq", "--q", "kl"], {"spectrum"}),
    (["dq", "--q", "1.75"], {"spectrum"}),
    (["dq", "--q", "2.9"], {"spectrum", "expansions", "matching"}),
    (["unique", "--q", "2.55", "--seq", "+0-0^inf"], {"expansions"}),
    (["expand", "--q", "2.5", "--x", "1/3"], {"expansions"}),
    (["density", "--seq", "+0;-0^inf"], {"spectrum"}),
    (["density", "--x", "+0^inf", "--y=-0^inf"], {"matching"}),
    (["verify", "--lemma", "3.1", "--n", "2"], {"matching"}),
    (["verify", "--lemma", "3.4", "--n", "2", "--m", "3"], {"matching"}),
    (["render", "--q", "2.5", "--t-seq", "0^inf", "0^inf", "--depth", "2"],
     {"expansions", "geometry", "matching"}),
    (["selftest"], {"expansions", "geometry", "matching", "selftest", "spectrum"}),
)


def test_each_command_loads_only_its_modules(tmp_path):
    import subprocess
    import sys

    import gasket_spectrum

    assert {argv[0] for argv, _ in _COMMAND_MODULES} == set(cli.COMMANDS)
    src = os.path.dirname(os.path.dirname(os.path.abspath(gasket_spectrum.__file__)))
    script = ("import io, sys\n"
              "from gasket_spectrum import cli\n"
              "code = cli.run(sys.argv[1:], io.StringIO())\n"
              "print(code, *sorted(m for m in sys.modules if m.startswith('gasket_spectrum.')))\n")
    always = {"bases", "cli", "config", "errors", "report", "words"}
    for argv, modules in _COMMAND_MODULES:
        if argv[0] == "render":
            argv = argv + ["--out", str(tmp_path / "r.svg")]
        # -S: no site hooks, so only the package's own imports are seen
        proc = subprocess.run([sys.executable, "-S", "-c", script, *argv],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, *loaded = proc.stdout.split()
        assert code == ("1" if "1.75" in argv else "0"), argv
        assert set(loaded) == {f"gasket_spectrum.{m}" for m in always | modules}, argv


def test_kl_base_follows_run_tolerance():
    code, payload = run_json(["dq", "--q", "kl", "--tolerance", "1e-90"])
    assert code == 0
    lo, hi = (Fraction(x) for x in payload["result"]["provenance"]["q_enclosure"])
    assert 0 < hi - lo <= Fraction(1, 10 ** 90)


def test_parser_help_smoke(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["--help"])


def test_console_script_if_installed():
    import shutil
    import subprocess

    exe = shutil.which("gasket-spectrum")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([exe, "classify", "--q", "2.2", "--format", "json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["regime"] == {"kind": "finite", "m": 1}


def _schema_required(name):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "schemas", name)) as fh:
        return json.load(fh)["required"]


def test_reports_carry_schema_required_fields():
    code, payload = run_json(["dq", "--q", "2.9"])
    assert code == 0
    for key in _schema_required("report-v1.schema.json"):
        assert key in payload, key
    for key in _schema_required("spectrum-v1.schema.json"):
        assert key in payload["result"], key
    code, payload = run_json(["verify", "--lemma", "3.1", "--n", "2"])
    for key in _schema_required("verify-report-v1.schema.json"):
        assert key in payload["result"], key
