"""Cylinder branch sets, point clouds, and deterministic rendering."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from gasket_spectrum.errors import DomainError, ResourceLimitError
from gasket_spectrum.geometry import (
    _SVG_CHUNK,
    PointCloud,
    branch_set,
    build_gasket,
    build_intersection,
    emit_ppm,
    emit_svg,
    translation_point,
)
from gasket_spectrum.matching import OMEGA1, OMEGA2, analyze, e_seq, zip_seqs
from gasket_spectrum.words import Seq, parse_seq

from helpers import digit_points, reference_emit_ppm, reference_emit_svg

# The matched translations (coordinate literals) the render benchmark draws.
BENCH_TRANSLATIONS = (("+0-0^inf", "0;+0-0^inf"), ("0+0-^inf", "00-+^inf"),
                      ("0-+00^inf", "+00-0^inf"))


def _random_pair_seq(rng: random.Random, period_len: int) -> Seq:
    digits = tuple(rng.choice(sorted(OMEGA2)) for _ in range(period_len))
    return Seq((), digits)


def test_branch_table_against_bruteforce():
    for t in OMEGA2:
        expected = tuple(a for a in OMEGA1 if (a[0] - t[0], a[1] - t[1]) in OMEGA1)
        assert branch_set(t) == expected


def test_branch_table_spec_values():
    assert set(branch_set((0, 0))) == set(OMEGA1)
    assert branch_set((0, 1)) == ((0, 1),)
    assert branch_set((-1, 1)) == ((0, 1),)
    assert branch_set((0, -1)) == ((0, 0),)
    assert branch_set((-1, 0)) == ((0, 0),)
    assert branch_set((1, -1)) == ((1, 0),)
    assert branch_set((1, 0)) == ((1, 0),)


def test_branch_sizes():
    for t in OMEGA2:
        assert len(branch_set(t)) == (3 if t == (0, 0) else 1)


def test_branch_rejects_forbidden():
    with pytest.raises(DomainError):
        branch_set((1, 1))
    with pytest.raises(DomainError):
        branch_set((2, 0))


def test_gasket_depth_one():
    cloud = build_gasket("2.5", 1)
    assert set(cloud.points) == {(0.0, 0.0), (0.0, 0.4), (0.4, 0.0)}


def test_gasket_counts_and_distinct():
    for depth in (2, 4, 6, 8):
        cloud = build_gasket("2.5", depth)
        assert len(cloud.points) == 3 ** depth
        assert len(set(cloud.points)) == 3 ** depth


def _hexes(points) -> list:
    # float.hex tells -0.0 from 0.0, which == does not
    return [(x.hex(), y.hex()) for x, y in points]


def test_level_by_level_points_equal_digit_sums():
    # Bit for bit, so the SVG/PPM bytes do not depend on how points are built
    # or which float objects they share. Depths 9 and 10 run the reuse of
    # zero steps over many levels.
    rng = random.Random(11)
    pairs = [e_seq(1, 1, 2)]  # matched; branch sets of size 3 and 1 alternate
    pairs += [zip_seqs(parse_seq(x), parse_seq(y)) for x, y in BENCH_TRANSLATIONS]
    cases = [(q, depth) for q in ("2.25", "2.5", "2.9", "2.999") for depth in (1, 4, 7, 9)]
    cases.append(("2.999", 10))  # one base only: ~0.25 s of reference sums per cloud
    for q, depth in cases:
        shifts = ((0.0, 0.0), (rng.uniform(-1, 1), rng.uniform(-1, 1)),
                  (0.3, 0.0), (-1e-17, 0.5))
        for shift in shifts:
            cloud = build_gasket(q, depth, translate=shift)
            want = digit_points(cloud.q, product(OMEGA1, repeat=depth), shift)
            assert _hexes(zip(cloud.xs, cloud.ys)) == _hexes(want), (q, depth, shift)
        for t in pairs:
            cloud = build_intersection(q, t, depth)
            sets = [branch_set(t.digit(i)) for i in range(1, depth + 1)]
            want = digit_points(cloud.q, product(*sets))
            assert _hexes(zip(cloud.xs, cloud.ys)) == _hexes(want), (q, depth, t)


def test_gasket_columns_share_zero_step_floats():
    # Each level makes new floats for its one nonzero step only, one per point
    # of the level before; its zero steps reuse that level's floats. A
    # translated last level makes x + t once for both zero steps and x + s + t
    # for the nonzero one: 2 * 3^8 floats. Summing every point afresh makes 3^9.
    untranslated = build_gasket("2.5", 9)
    translated = build_gasket("2.5", 9, translate=(0.123456789, -0.3217))
    for column in (untranslated.xs, untranslated.ys):
        assert len({id(x) for x in column}) <= (3 ** 9 + 1) // 2
    for column in (translated.xs, translated.ys):
        assert len({id(x) for x in column}) <= 2 * 3 ** 8


def test_point_columns_track_no_per_point_objects():
    # Per-point tuples would hand the collector 3^depth objects per build.
    shift = translation_point("2.5", e_seq(1, 1, 2))
    gc.collect()
    gc.disable()
    try:
        for kwargs in ({}, {"translate": shift, "kind": "E_plus_t"}):
            before = len(gc.get_objects())
            c = build_gasket("2.5", 9, **kwargs)
            assert len(gc.get_objects()) - before < 50, kwargs
            assert len(c.xs) == len(c.ys) == 3 ** 9
            assert c.points == tuple(zip(c.xs, c.ys))
            hash(c)
            del c
    finally:
        gc.enable()


def test_point_cloud_rejects_levels_that_do_not_fit_the_columns():
    c = build_gasket("2.5", 3)
    for xs, ys, levels in ((c.xs, c.ys, (OMEGA1,) * 2), (c.xs, c.ys, (OMEGA1,) * 4),
                           (c.xs, c.ys, (OMEGA1, OMEGA1, ((0, 0),))),
                           (c.xs, c.ys[:-1], c.levels), ((), (), ((),))):
        with pytest.raises(DomainError, match="levels"):
            PointCloud("E", c.q, 3, xs, ys, levels)
    assert PointCloud("E", c.q, 3, c.xs, c.ys, c.levels).levels == c.levels
    assert c.levels == (OMEGA1,) * 3
    assert PointCloud("E", c.q, 3, c.xs, c.ys).levels == ()  # raw columns: one flat level


def test_gasket_depth_limits():
    with pytest.raises(ResourceLimitError):
        build_gasket("2.5", 13)
    with pytest.raises(DomainError):
        build_gasket("2.5", 0)


def test_intersection_with_zero_translation_is_gasket():
    gasket = build_gasket("2.5", 4)
    inter = build_intersection("2.5", Seq((), ((0, 0),)), 4)
    assert set(inter.points) == set(gasket.points)


def test_intersection_counting_law_on_half_shift():
    t = e_seq(1, 1, 2)
    cloud = build_intersection("2.5", t, 8)
    assert len(cloud.points) == 3 ** 4


def test_intersection_counting_law_random():
    rng = random.Random(2026)
    for _ in range(20):
        t = _random_pair_seq(rng, rng.randint(1, 6))
        depth = rng.randint(4, 10)
        zeros = sum(1 for i in range(1, depth + 1) if t.digit(i) == (0, 0))
        cloud = build_intersection("2.6", t, depth)
        assert len(cloud.points) == 3 ** zeros
        assert math.log(len(cloud.points), 3) == pytest.approx(zeros)


def test_intersection_rejects_unmatched():
    bad = Seq((), ((1, 1),))
    with pytest.raises(DomainError):
        build_intersection("2.5", bad, 4)


def test_intersection_points_subset_of_gasket():
    t = e_seq(1, 1, 2)
    depth = 6
    gasket = set(build_gasket("2.5", depth).points)
    inter = build_intersection("2.5", t, depth)
    for p in inter.points:
        assert p in gasket  # same arithmetic order makes floats identical


def test_intersection_translates_into_gasket():
    # Compare against the depth-truncated translation: the finite cylinder is
    # exactly a gasket cylinder shifted by the first `depth` digits of t.
    qf = 2.5
    t = e_seq(1, 1, 2)
    depth = 6
    weights = [qf ** -(i + 1) for i in range(depth)]
    tx = sum(t.digit(i + 1)[0] * w for i, w in enumerate(weights))
    ty = sum(t.digit(i + 1)[1] * w for i, w in enumerate(weights))
    gasket = build_gasket("2.5", depth).points
    inter = build_intersection("2.5", t, depth)
    rounded = {(round(x, 9), round(y, 9)) for x, y in gasket}
    for x, y in inter.points:
        key = (round(x - tx, 9), round(y - ty, 9))
        assert key in rounded


def test_translation_point_matches_coordinate_values():
    from fractions import Fraction as F
    from gasket_spectrum.expansions import evaluate_exact
    t = e_seq(1, 1, 2)
    tx, ty = translation_point("2.5", t)
    first = Seq(tuple(p[0] for p in t.preperiod), tuple(p[0] for p in t.period))
    second = Seq(tuple(p[1] for p in t.preperiod), tuple(p[1] for p in t.period))
    assert tx == float(evaluate_exact(first, F(5, 2)))
    assert ty == float(evaluate_exact(second, F(5, 2)))


def test_cylinder_tree_structure():
    t = e_seq(1, 1, 2)
    sets = [branch_set(t.digit(i)) for i in range(1, 9)]
    assert len(build_intersection("2.5", t, 8).xs) == math.prod(len(s) for s in sets)
    for i, s in enumerate(sets, start=1):
        assert len(s) == (3 if t.digit(i) == (0, 0) else 1)


def test_box_dimension_slope_approaches_formula():
    from gasket_spectrum.matching import analyze
    from gasket_spectrum.spectrum import dimension
    q = 2.6
    t = e_seq(1, 1, 2)
    d = analyze(t).zero_pair_density
    slope = math.log(len(build_intersection(q, t, 10).points)) / (10 * math.log(q))
    assert abs(slope - dimension(q, d)) < 0.02


def test_svg_empty_and_counting(tmp_path):
    path = str(tmp_path / "empty.svg")
    emit_svg([], path)
    text = open(path).read()
    assert text.startswith("<svg") or "<svg" in text
    assert "</svg>" in text
    path2 = str(tmp_path / "g1.svg")
    emit_svg([build_gasket("2.5", 1)], path2)
    assert open(path2).read().count("<circle") == 3


def test_svg_byte_identical(tmp_path):
    clouds = [build_gasket("2.5", 6), build_intersection("2.5", e_seq(1, 1, 2), 6)]
    p1, p2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    emit_svg(clouds, p1)
    emit_svg(clouds, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_svg_mixed_bases_rejected(tmp_path):
    with pytest.raises(DomainError):
        emit_svg([build_gasket("2.5", 2), build_gasket("2.6", 2)],
                 str(tmp_path / "x.svg"))
    assert not (tmp_path / "x.svg").exists()  # rejected before the file opens


def test_svg_write_error_has_context():
    with pytest.raises(DomainError, match="cannot write"):
        emit_svg([build_gasket("2.5", 1)], "/nonexistent-dir/x.svg")


@pytest.mark.parametrize("emit", [emit_svg, emit_ppm])
def test_unwritable_path_raises_domain_error(tmp_path, emit):
    clouds = [build_gasket("2.5", 8)]  # more circles than one SVG chunk
    for path in (tmp_path / "missing" / "x.out", tmp_path):  # open fails
        with pytest.raises(DomainError, match="cannot write"):
            emit(clouds, str(path))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("emit", [emit_svg, emit_ppm])
def test_failed_write_raises_domain_error(emit):
    # /dev/full opens, then every write fails with ENOSPC
    with pytest.raises(DomainError, match="cannot write"):
        emit([build_gasket("2.5", 8)], "/dev/full")


def _svg_emission_peak(path: Path, depth: int) -> int:
    """Bytes tracemalloc sees emit_svg add at its peak, over the three layers
    E, E + t and their intersection at q = 2.5."""
    q, t = "2.5", e_seq(1, 1, 2)
    clouds = [build_gasket(q, depth),
              build_gasket(q, depth, translate=translation_point(q, t), kind="E_plus_t"),
              build_intersection(q, t, depth)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        emit_svg(clouds, str(path))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_svg_emission_memory_does_not_grow_with_the_document(tmp_path):
    # Circles go out a chunk at a time: the 2.5 MB document is never held
    # whole, as a list of parts, one str or its bytes.
    path = tmp_path / "deep.svg"
    extra = _svg_emission_peak(path, 9)
    assert path.stat().st_size > 2_500_000
    assert extra < 1_500_000, extra


def test_svg_prefix_lists_stay_small_at_depth_11(tmp_path):
    # The formatted lists kept for reuse grow with the distinct digit
    # prefixes (16 per axis for a depth-11 gasket), not toward the document.
    path = tmp_path / "deeper.svg"
    extra = _svg_emission_peak(path, 11)
    assert path.stat().st_size > 17_000_000
    assert extra < 3_000_000, extra


def test_renders_match_bench_pins(tmp_path):
    # The benchmark pins the SVG and PPM digests of every render it runs; a
    # byte change at depth 9 fails here too. Keys read "<q> <x> <y> <depth>",
    # and the benchmark's rasters are 512 pixels a side.
    pins = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected.json")
                      .read_text())["render"]
    keys = [key for key in pins if key.split()[3] == "9"]
    assert len(keys) == 12
    assert {tuple(key.split()[1:3]) for key in keys} == set(BENCH_TRANSLATIONS)
    svg, ppm = tmp_path / "pin.svg", tmp_path / "pin.ppm"
    for key in keys:
        q, x, y, _depth = key.split()
        pair = zip_seqs(parse_seq(x), parse_seq(y))
        clouds = [build_gasket(q, 9),
                  build_gasket(q, 9, translate=translation_point(q, pair), kind="E_plus_t"),
                  build_intersection(q, pair, 9)]
        emit_svg(clouds, str(svg))
        emit_ppm(clouds, str(ppm), 512)
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == pins[key]["svg"], key
        assert hashlib.sha256(ppm.read_bytes()).hexdigest() == pins[key]["ppm"], key


def test_ppm_output(tmp_path):
    path = str(tmp_path / "img.ppm")
    emit_ppm([build_gasket("2.5", 4)], path, size=64)
    data = open(path, "rb").read()
    assert data.startswith(b"P6\n64 64\n255\n")
    assert len(data) == len(b"P6\n64 64\n255\n") + 64 * 64 * 3
    path2 = str(tmp_path / "img2.ppm")
    emit_ppm([build_gasket("2.5", 4)], path2, size=64)
    assert data == open(path2, "rb").read()


def test_ppm_size_limits(tmp_path):
    with pytest.raises(DomainError):
        emit_ppm([], str(tmp_path / "x.ppm"), size=8)


def test_emitters_match_reference(tmp_path):
    def assert_same_bytes(clouds, sizes):
        paths = [str(tmp_path / name) for name in ("new", "ref")]
        emit_svg(clouds, paths[0])
        reference_emit_svg(clouds, paths[1])
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()
        for size in sizes:
            emit_ppm(clouds, paths[0], size)
            reference_emit_ppm(clouds, paths[1], size)
            assert open(paths[0], "rb").read() == open(paths[1], "rb").read(), size

    t = e_seq(1, 1, 2)
    for q in ("2.25", "2.5", "2.9"):
        shift = translation_point(q, t)
        for depth in range(1, 8):
            # E, E + t and the intersection overlap, so the last layer wins
            clouds = [build_gasket(q, depth),
                      build_gasket(q, depth, translate=shift, kind="E_plus_t"),
                      build_intersection(q, t, depth)]
            assert_same_bytes(clouds, (16, 17, 64, 512))

    def cloud(kind, depth, points):
        xs = tuple(x for x, _ in points)
        ys = tuple(y for _, y in points)
        return PointCloud(kind, qf, depth, xs, ys)

    q = "2.5"
    shift = translation_point(q, t)
    for depth in (8, 9):
        # several SVG chunks per gasket layer, the last one partial
        clouds = [build_gasket(q, depth),
                  build_gasket(q, depth, translate=shift, kind="E_plus_t"),
                  build_intersection(q, t, depth)]
        assert len(clouds[0].xs) % _SVG_CHUNK > 0
        assert_same_bytes(clouds, (64, 512))

    qf = build_gasket(q, 1).q
    for n in (_SVG_CHUNK - 1, _SVG_CHUNK, _SVG_CHUNK + 1, 2 * _SVG_CHUNK):
        # chunk-sized and chunk-multiple layers end on a chunk boundary
        points = [((k % 61) / 50 - 0.2, (k % 67) / 40 - 0.3) for k in range(n)]
        assert_same_bytes([cloud("E", 9, points), cloud("intersection", 9, points[::-1])],
                          (64,))

    odd = cloud("E", 3, (
        (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.3, 0.3),
        (-5.0, 0.5), (5.0, 0.5), (0.5, -5.0), (0.5, 5.0), (1e9, -1e9)))
    unknown = cloud("unknown", 2, ((0.1, 0.2), (0.3, 0.3), (-0.0, 0.0)))
    empty = cloud("intersection", 4, ())
    for clouds in ([odd, unknown, empty], [unknown], [empty], []):
        assert_same_bytes(clouds, (16, 17, 64, 4096))


@pytest.mark.parametrize("q", ["2.25", "2.9"])
def test_ppm_painter_matches_reference_on_deep_clouds(tmp_path, q):
    # At 16 and 512 px whole subtrees fall on one pixel and are painted
    # without reading their points; at 4096 px most points go point by point.
    qf = build_gasket(q, 1).q
    lo = -1.05 / (qf - 1.0)
    pair = zip_seqs(parse_seq(BENCH_TRANSLATIONS[1][0]), parse_seq(BENCH_TRANSLATIONS[1][1]))
    paths = [str(tmp_path / name) for name in ("new", "ref")]
    for depth in (10, 11):
        shifted = build_gasket(q, depth, translate=(-0.9, 0.9), kind="E_plus_t")
        assert min(shifted.xs) < lo < max(shifted.xs)  # partly off the raster's left
        clouds = [build_gasket(q, depth), shifted,
                  build_intersection(q, pair, depth),  # levels mix singletons and triples
                  build_intersection(q, e_seq(1, 1, 2), depth)]
        assert {len(d) for d in clouds[2].levels} == {len(d) for d in clouds[3].levels} \
            == {1, 3}
        for size in (16, 512, 4096):
            emit_ppm(clouds, paths[0], size)
            reference_emit_ppm(clouds, paths[1], size)
            assert open(paths[0], "rb").read() == open(paths[1], "rb").read(), (depth, size)


@pytest.mark.parametrize("q", ["2.25", "2.9"])
def test_svg_blocks_match_reference_on_hard_clouds(tmp_path, q):
    # Blocks with equal x (or y) digit parts share one formatted list; each
    # cloud below must still give the bytes of one circle per point.
    qf = build_gasket(q, 1).q
    lo = -1.05 / (qf - 1.0)
    pair = zip_seqs(parse_seq(BENCH_TRANSLATIONS[1][0]), parse_seq(BENCH_TRANSLATIONS[1][1]))
    singletons_first = Seq(((1, 0), (0, 1)), ((0, 0),))  # two singleton levels, then triples
    assert analyze(singletons_first).matched
    paths = [str(tmp_path / name) for name in ("new", "ref")]

    def assert_same_bytes(clouds):
        emit_svg(clouds, paths[0])
        reference_emit_svg(clouds, paths[1])
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read(), \
            [(c.kind, c.depth, len(c.xs)) for c in clouds]

    for depth in (10, 11):
        shifted = build_gasket(q, depth, translate=(-0.9, 0.9), kind="E_plus_t")
        assert min(shifted.xs) < lo < max(shifted.xs)  # partly off the canvas's left
        clouds = [build_gasket(q, depth), shifted,
                  build_intersection(q, pair, depth),  # levels mix singletons and triples
                  build_intersection(q, e_seq(1, 1, 2), depth)]
        assert {len(d) for d in clouds[2].levels} == {len(d) for d in clouds[3].levels} \
            == {1, 3}
        assert_same_bytes(clouds)
    # one block (3^7 points) and three blocks (3^8) below the singleton levels
    top = [build_intersection(q, singletons_first, depth) for depth in (9, 10)]
    assert [len(c.xs) for c in top] == [3 ** 7, 3 ** 8]
    assert [len(d) for d in top[1].levels[:3]] == [1, 1, 3]
    gasket = build_gasket(q, 9)
    flat = [PointCloud("E", gasket.q, 9, gasket.xs[:n], gasket.ys[:n])
            for n in (_SVG_CHUNK - 1, _SVG_CHUNK, _SVG_CHUNK + 1, 2 * _SVG_CHUNK)]
    assert_same_bytes(top + flat)


def test_svg_blocks_match_reference_next_to_two(tmp_path):
    # 1e-13 above 2, the sums of distinct digit words lie closest together.
    q = "2.0000000000001"
    t = e_seq(1, 1, 2)
    clouds = [build_gasket(q, 10),
              build_gasket(q, 10, translate=translation_point(q, t), kind="E_plus_t"),
              build_intersection(q, t, 10)]
    paths = [str(tmp_path / name) for name in ("new", "ref")]
    emit_svg(clouds, paths[0])
    reference_emit_svg(clouds, paths[1])
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


class _CountingColumn(tuple):
    """A coordinate column that counts the coordinates read from it: one per
    index, the length of each slice and the whole column per iteration."""

    reads = 0

    def __getitem__(self, key):
        got = tuple.__getitem__(self, key)
        _CountingColumn.reads += len(got) if isinstance(key, slice) else 1
        return got

    def __iter__(self):
        _CountingColumn.reads += len(self)
        return tuple.__iter__(self)


def test_ppm_painter_reads_few_coordinates(tmp_path):
    # Mapping every point reads each of a depth-10 gasket's 2 * 3^10
    # coordinates twice: 4 * 3^10 = 236,196 reads. On a 512-px raster the
    # painter read these counts; the bounds leave a quarter more.
    measured = {"2.25": 119_104, "2.5": 57_436, "2.7": 22_300, "2.9": 35_524}
    for q, reads in measured.items():
        c = build_gasket(q, 10)
        counted = PointCloud(c.kind, c.q, c.depth, _CountingColumn(c.xs),
                             _CountingColumn(c.ys), c.levels)
        _CountingColumn.reads = 0
        emit_ppm([counted], str(tmp_path / "x.ppm"), 512)
        assert 0 < _CountingColumn.reads <= reads * 5 // 4, (q, _CountingColumn.reads)
    flat = PointCloud(c.kind, c.q, c.depth, counted.xs, counted.ys)
    _CountingColumn.reads = 0
    emit_ppm([flat], str(tmp_path / "x.ppm"), 512)
    assert _CountingColumn.reads == 4 * 3 ** 10  # the count sees every read


def test_svg_emitter_reads_few_coordinates(tmp_path):
    # A depth-10 gasket splits into 27 blocks of 3^7 points, whose digit
    # prefixes take 8 distinct x parts and 8 distinct y parts: formatting one
    # list per prefix reads 2 * 8 * 3^7 = 34,992 coordinates, against
    # 2 * 3^10 = 118,098 for mapping every point. The bound leaves a quarter more.
    c = build_gasket("2.5", 10)
    counted = PointCloud(c.kind, c.q, c.depth, _CountingColumn(c.xs),
                         _CountingColumn(c.ys), c.levels)
    _CountingColumn.reads = 0
    emit_svg([counted], str(tmp_path / "x.svg"))
    assert 0 < _CountingColumn.reads <= 2 * 8 * 3 ** 7 * 5 // 4, _CountingColumn.reads
    flat = PointCloud(c.kind, c.q, c.depth, counted.xs, counted.ys)
    _CountingColumn.reads = 0
    emit_svg([flat], str(tmp_path / "x.svg"))
    assert _CountingColumn.reads == 2 * 3 ** 10  # a cloud without levels reads every point
