"""Finite-depth gasket construction, intersections via cylinder branch sets, rendering.

Point generation is canonical: digit choices are enumerated lexicographically,
so outputs (and the SVG/PPM bytes derived from them) are identical across runs.
"""

from __future__ import annotations

from itertools import chain, product
from operator import add

from .bases import as_base_value, require_working_base
from .errors import DomainError, ResourceLimitError
from .matching import OMEGA1, OMEGA2, analyze
from .words import Immutable, Seq

MAX_RENDER_DEPTH = 12  # 3^12 points per gasket layer

# Branch sets: for each admissible difference digit t, the gasket digits a with
# a - t again a gasket digit. Size 3 exactly at t = (0,0), otherwise size 1.
BRANCH_TABLE = {
    t: tuple(a for a in OMEGA1 if (a[0] - t[0], a[1] - t[1]) in OMEGA1)
    for t in sorted(OMEGA2)
}


def branch_set(t) -> tuple:
    """Gasket digits surviving a translation by difference digit t."""
    if t not in BRANCH_TABLE:
        raise DomainError(f"{t!r} is not an admissible difference digit")
    return BRANCH_TABLE[t]


class PointCloud(Immutable):
    """Points as two coordinate columns of floats: point k is (xs[k], ys[k]).

    levels, when given, is the digit set of each level of the digit tree the
    columns were built from, in lexicographic digit order, so a level-i node
    owns a contiguous block of the columns. A cloud made from raw columns has
    no levels.
    """

    __slots__ = ("kind", "q", "depth", "xs", "ys", "levels")

    def __init__(self, kind: str, q: float, depth: int, xs: tuple, ys: tuple,
                 levels: tuple = ()):
        if levels:
            count = 1
            for digits in levels:
                count *= len(digits)
            if not 0 < count == len(xs) == len(ys):
                raise DomainError(
                    f"levels of sizes {[len(d) for d in levels]} do not multiply to "
                    f"the column lengths {len(xs)} and {len(ys)}")
        object.__setattr__(self, "kind", kind)  # "E", "E_plus_t", or "intersection"
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "levels", levels)

    @property
    def points(self) -> tuple:
        """The (x, y) pairs: each read builds one fresh tuple per point
        (3^depth for a gasket), so count points with len(cloud.xs)."""
        return tuple(zip(self.xs, self.ys))

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "q": self.q, "depth": self.depth,
                "count": len(self.xs)}


def _check_depth(depth: int) -> None:
    if depth < 1:
        raise DomainError("depth must be positive")
    if depth > MAX_RENDER_DEPTH:
        raise ResourceLimitError(f"depth {depth} exceeds cap {MAX_RENDER_DEPTH}")


def _column(vals: list, steps: list, shift: float) -> list:
    """One coordinate column one level deeper: entry k * len(steps) + j is
    vals[k] + steps[j] (+ shift).

    Each step makes one part, and the parts are interleaved by slice
    assignment. With vals >= +0.0, x + 0.0 is x bit for bit, so a zero step
    reuses vals itself (or vals + shift, computed once) and adds nothing.
    """
    if shift:
        moved = [x + shift for x in vals]
        parts = [moved if not s else [x + s + shift for x in vals] for s in steps]
    else:
        parts = [vals if not s else [x + s for x in vals] for s in steps]
    if len(parts) == 1:
        return parts[0]
    out = [0.0] * (len(vals) * len(parts))
    for j, part in enumerate(parts):
        out[j::len(parts)] = part
    return out


def _digit_points(q: float, levels, translate=(0.0, 0.0)) -> tuple[tuple, tuple]:
    """Columns (xs, ys) of the points sum_i a_i q^-i (+ translate), one per
    digit tuple in the product of the per-level digit sets, in lexicographic
    digit order.

    Built level by level: each point of level i-1 gets the term a_i q^-i of
    each digit a in level i's set, and the translation is added last, as
    (x + a_d q^-d) + t. Gasket digits are 0 or 1, so the partial sums start
    at +0.0 and never fall below it; adding a zero term then leaves a sum
    unchanged, and _column skips it and shares the float. The sums are those
    of digit-by-digit evaluation, bit for bit, and a gasket column holds
    about half as many distinct floats as points. Flat float columns hold no
    per-point container for the collector to track.
    """
    xs, ys = [0.0], [0.0]
    last = len(levels)
    tx, ty = translate
    for i, digits in enumerate(levels, start=1):
        w = q ** -i
        xs = _column(xs, [dx * w for dx, _ in digits], tx if i == last else 0.0)
        ys = _column(ys, [dy * w for _, dy in digits], ty if i == last else 0.0)
    return tuple(xs), tuple(ys)


def build_gasket(q, depth: int, translate: tuple[float, float] = (0.0, 0.0),
                 kind: str = "E") -> PointCloud:
    """All 3^depth cylinder points of the gasket (optionally translated)."""
    b = require_working_base(as_base_value(q))
    _check_depth(depth)
    qf = b.value
    levels = (OMEGA1,) * depth
    xs, ys = _digit_points(qf, levels, translate)
    return PointCloud(kind=kind, q=qf, depth=depth, xs=xs, ys=ys, levels=levels)


def build_intersection(q, t_seq: Seq, depth: int) -> PointCloud:
    """Points of the intersection cylinder set at the given depth: the product
    of the branch sets of t_seq's first depth digits, all admissible once
    t_seq is matched."""
    b = require_working_base(as_base_value(q))
    _check_depth(depth)
    report = analyze(t_seq)
    if not report.matched:
        raise DomainError(
            "translation expansion is not matched; the intersection is empty "
            f"(violation at position {report.first_violation_index})")
    levels = tuple(BRANCH_TABLE[d] for d in t_seq.prefix(depth))
    xs, ys = _digit_points(b.value, levels)
    return PointCloud(kind="intersection", q=b.value, depth=depth, xs=xs, ys=ys,
                      levels=levels)


def translation_point(q, t_seq: Seq) -> tuple[float, float]:
    """The translation vector: both coordinate values of the pair expansion."""
    b = require_working_base(as_base_value(q))
    from .expansions import evaluate_exact
    first = Seq(tuple(p[0] for p in t_seq.preperiod), tuple(p[0] for p in t_seq.period))
    second = Seq(tuple(p[1] for p in t_seq.preperiod), tuple(p[1] for p in t_seq.period))
    return (float(evaluate_exact(first, b.midpoint)),
            float(evaluate_exact(second, b.midpoint)))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

LAYER_COLORS = {"E": "#999999", "E_plus_t": "#5b8def", "intersection": "#d62728"}
_CANVAS = 600.0
_SVG_CHUNK = 4096  # most circles in one block encoded and written at a time
# PPM: a block of at most this many points is mapped point by point. That is
# cheaper than visiting its child nodes, at four coordinate reads and pixel
# maps each: with the bounding-box rule alone, a depth-10 gasket at q = 2.25
# on 512 pixels took a third longer.
_POINT_PASS_MAX = 9


def require_raster_size(size: int) -> None:
    """PPM rasters are square, 16 to 4096 pixels a side."""
    if size < 16 or size > 4096:
        raise DomainError("raster size must be in [16, 4096]")


def _frame(clouds) -> tuple[float, float, float]:
    """Common square frame: [-R*margin, 2R*margin] in both axes, R = 1/(q-1)."""
    if len({c.q for c in clouds}) > 1:
        raise DomainError("all clouds must share one base")
    q = clouds[0].q if clouds else 2.5
    r = 1.0 / (q - 1.0)
    margin = 1.05
    lo = -r * margin
    hi = 2 * r * margin
    return lo, hi, hi - lo


def _write(path: str, chunks) -> None:
    """Write the byte chunks to path in turn; an OSError from opening or
    writing becomes a DomainError."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def emit_svg(clouds, path: str) -> None:
    """Deterministic SVG: one layer group per cloud, circles of cylinder radius.

    Circles are written a block of the digit tree at a time: the block of a
    node at the first level whose nodes own at most _SVG_CHUNK points. A
    point's x is a fixed function of the x parts of its digits: the same
    float additions in the same order, with the translation added last. So
    two blocks whose digit prefixes have the same x parts have identical x
    columns, hence identical formatted cx strings, and the same holds for y.
    Each list is formatted once, from its first block, keyed by those digit
    parts, which fix the column by construction (a key by float would rest
    on distinct prefixes never rounding to one sum), and reused by every
    later block. A cloud without levels is cut into _SVG_CHUNK-point
    chunks, each formatted on its own.

    Only the formatted lists are kept, one per distinct x or y prefix of one
    cloud: a gasket split s levels down has 2^s per axis for 3^s blocks, a
    shrinking share of the document (a depth-11 three-layer emission peaks
    ~1.3 MB above its clouds for 22.7 MB written). Each block goes to the
    file as it is made, so memory does not grow with the document.
    """
    lo, _hi, span = _frame(clouds)
    _write(path, _svg_chunks(clouds, lo, _CANVAS / span))


def _svg_blocks(cloud) -> list:
    """(start, stop, x key, y key) of each block emit_svg writes, in column
    order. A key is the tuple of the x (or y) parts of the block's digit
    prefix; a chunk of a cloud without levels has the key None, shared with
    no other chunk."""
    n = len(cloud.xs)
    if not cloud.levels:
        return [(k, min(k + _SVG_CHUNK, n), None, None) for k in range(0, n, _SVG_CHUNK)]
    split, size = len(cloud.levels), 1
    while split and size * len(cloud.levels[split - 1]) <= _SVG_CHUNK:
        split -= 1
        size *= len(cloud.levels[split])
    top = cloud.levels[:split]
    xkeys = product(*[[dx for dx, _ in digits] for digits in top])
    ykeys = product(*[[dy for _, dy in digits] for digits in top])
    return [(k, k + size, kx, ky) for k, kx, ky in zip(range(0, n, size), xkeys, ykeys)]


def _formatted(cache: dict, key, part: tuple, text) -> list:
    """text(v) for each v in part, each distinct value formatted once; the
    list is kept in cache under key, unless the key is None."""
    table = {v: text(v) for v in set(part)}
    got = list(map(table.__getitem__, part))
    if key is not None:
        cache[key] = got
    return got


def _svg_chunks(clouds, lo: float, scale: float):
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_CANVAS)}" '
        f'height="{int(_CANVAS)}" viewBox="0 0 {int(_CANVAS)} {int(_CANVAS)}">\n'
        '<rect width="100%" height="100%" fill="#ffffff"/>\n').encode("ascii")
    for cloud in clouds:
        color = LAYER_COLORS.get(cloud.kind, "#000000")
        # half a cylinder diameter, floored so deep levels stay visible
        radius = max((cloud.q ** -cloud.depth) / 2.0 * scale, 0.35)
        tail = f'" r="{radius:.9f}"/>\n'
        yield f'<g fill="{color}" data-layer="{cloud.kind}">\n'.encode("ascii")

        def x_text(x: float) -> str:
            return f'<circle cx="{(x - lo) * scale:.9f}" cy="'

        def y_text(y: float) -> str:
            return f"{_CANVAS - (y - lo) * scale:.9f}{tail}"

        xs, ys = cloud.xs, cloud.ys
        cx, cy = {}, {}  # formatted lists by digit prefix
        buf = []
        for start, stop, kx, ky in _svg_blocks(cloud):
            sx = cx.get(kx) or _formatted(cx, kx, xs[start:stop], x_text)
            sy = cy.get(ky) or _formatted(cy, ky, ys[start:stop], y_text)
            if len(buf) != 2 * len(sx):
                buf = [""] * (2 * len(sx))
            buf[0::2] = sx
            buf[1::2] = sy
            yield "".join(buf).encode("ascii")
        yield b"</g>\n"
    yield b"</svg>\n"


def emit_ppm(clouds, path: str, size: int = 512) -> None:
    """Binary PPM raster. Pixel mapping: column = int((x - lo) / span * (size - 1)),
    truncated toward zero, row counted from the top with y increasing upward.

    Each cloud paints palette indices in turn, so a later cloud wins; the
    pixels of a cloud are found by _cloud_pixels.
    """
    require_raster_size(size)
    lo, _hi, span = _frame(clouds)
    palette = {"#ffffff": 0}
    raster = bytearray(size * size)
    for cloud in clouds:
        index = palette.setdefault(LAYER_COLORS.get(cloud.kind, "#000000"), len(palette))
        for pixel in _cloud_pixels(cloud, lo, span, size):
            if pixel >= 0:
                raster[pixel] = index
    rgb = [bytes.fromhex(color[1:]) for color in palette]
    body = bytearray(3 * len(raster))
    for ch in range(3):
        body[ch::3] = raster.translate(bytes(c[ch] for c in rgb).ljust(256, b"\0"))
    _write(path, (f"P6\n{size} {size}\n255\n".encode("ascii"), body))


def _cloud_pixels(cloud, lo: float, span: float, size: int) -> set:
    """Raster indices row * size + column of the cloud's points; an index < 0
    marks a point off the raster.

    The digit tree is descended over the built columns. A node owns a
    contiguous block, and every coordinate of its descendants lies between
    two entries of that block: the descendant taking the least digit part at
    every remaining level, and the one taking the greatest. That holds
    exactly, because the digit parts are >= 0, float addition is monotone,
    a zero part adds nothing (the builder shares the float) and the
    translation is added last. The pixel map is monotone too, so a node whose
    two extremes fall on one pixel paints just that pixel, and a node wholly
    off the raster paints nothing. A node holding no more points than its
    pixel bounding box or than _POINT_PASS_MAX, and a cloud without levels,
    goes to the per-point pass instead: each distinct coordinate is mapped to
    a pixel once.
    """
    xs, ys = cloud.xs, cloud.ys
    m = size - 1
    pixels = set()
    blocks = []  # (start, stop) of the column ranges mapped point by point
    if not cloud.levels:
        blocks.append((0, len(xs)))
    else:
        # Singleton levels do not split a block, so only branching levels count.
        # Per depth: block size, child block size, and the offsets within the
        # block of the least-x, greatest-x, least-y and greatest-y descendants.
        tree = [(1, 1, 0, 0, 0, 0)]
        for digits in reversed([d for d in cloud.levels if len(d) > 1]):
            n, _, ax, bx, ay, by = tree[-1]
            px = [dx for dx, _ in digits]
            py = [dy for _, dy in digits]
            tree.append((n * len(digits), n,
                         ax + px.index(min(px)) * n, bx + px.index(max(px)) * n,
                         ay + py.index(min(py)) * n, by + py.index(max(py)) * n))
        frontier = [0]
        for n, step, ax, bx, ay, by in reversed(tree):
            children = []
            for s in frontier:
                c0 = int((xs[s + ax] - lo) / span * m)
                c1 = int((xs[s + bx] - lo) / span * m)
                r0 = m - int((ys[s + by] - lo) / span * m)
                r1 = m - int((ys[s + ay] - lo) / span * m)
                if c1 < 0 or c0 > m or r1 < 0 or r0 > m:
                    continue
                if c0 == c1 and r0 == r1:
                    pixels.add(r0 * size + c0)
                elif n <= _POINT_PASS_MAX or n <= (c1 - c0 + 1) * (r1 - r0 + 1):
                    blocks.append((s, s + n))
                else:
                    children.extend(range(s, s + n, step))
            frontier = children

    def part(column):
        if len(blocks) == 1:  # one slice, read without a chain step per point
            (b, e), = blocks
            return column[b:e]
        return chain.from_iterable(column[b:e] for b, e in blocks)

    off = -size * size  # an off-raster column or row offset: any sum with it is negative
    cols = {x: int((x - lo) / span * m) for x in set(part(xs))}
    rows = {y: m - int((y - lo) / span * m) for y in set(part(ys))}
    cols = {x: c if 0 <= c < size else off for x, c in cols.items()}
    rows = {y: r * size if 0 <= r < size else off for y, r in rows.items()}
    pixels.update(map(add, map(rows.__getitem__, part(ys)), map(cols.__getitem__, part(xs))))
    return pixels
