"""Finite-depth gasket construction, intersections via cylinder branch sets, rendering.

Point generation is canonical: digit choices are enumerated lexicographically,
so outputs (and the SVG/PPM bytes derived from them) are identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bases import as_base_value, require_working_base
from .errors import DomainError, ResourceLimitError
from .matching import OMEGA1, OMEGA2, analyze
from .words import Seq

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


@dataclass(frozen=True)
class CylinderTree:
    q: float
    depth: int
    branch_sets: tuple


@dataclass(frozen=True)
class PointCloud:
    kind: str  # "E", "E_plus_t", or "intersection"
    q: float
    depth: int
    points: tuple

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "q": self.q, "depth": self.depth,
                "count": len(self.points)}


def _check_depth(depth: int) -> None:
    if depth < 1:
        raise DomainError("depth must be positive")
    if depth > MAX_RENDER_DEPTH:
        raise ResourceLimitError(f"depth {depth} exceeds cap {MAX_RENDER_DEPTH}")


def cylinder_tree(q, t_seq: Seq, depth: int) -> CylinderTree:
    """Branch sets of the intersection cylinder along the first depth digits."""
    b = require_working_base(as_base_value(q))
    _check_depth(depth)
    report = analyze(t_seq)
    if not report.matched:
        raise DomainError(
            "translation expansion is not matched; the intersection is empty "
            f"(violation at position {report.first_violation_index})")
    sets = tuple(branch_set(t_seq.digit(i)) for i in range(1, depth + 1))
    return CylinderTree(q=b.value, depth=depth, branch_sets=sets)


def _digit_points(q: float, levels, translate=(0.0, 0.0)) -> tuple:
    """Points sum_i a_i q^-i (+ translate) for each digit tuple in the product
    of the per-level digit sets, in lexicographic digit order.

    Built level by level: each point of level i-1 gets the term a_i q^-i of
    each digit a in level i's set. The sums take the same float additions in
    the same order as digit-by-digit evaluation, so the points are identical.
    """
    pts = [(0.0, 0.0)]
    last = len(levels)
    for i, digits in enumerate(levels, start=1):
        w = q ** -i
        steps = [(dx * w, dy * w) for dx, dy in digits]
        if i == last and translate != (0.0, 0.0):
            tx, ty = translate
            pts = [(x + sx + tx, y + sy + ty) for x, y in pts for sx, sy in steps]
        else:
            pts = [(x + sx, y + sy) for x, y in pts for sx, sy in steps]
    return tuple(pts)


def build_gasket(q, depth: int, translate: tuple[float, float] = (0.0, 0.0),
                 kind: str = "E") -> PointCloud:
    """All 3^depth cylinder points of the gasket (optionally translated)."""
    b = require_working_base(as_base_value(q))
    _check_depth(depth)
    qf = b.value
    pts = _digit_points(qf, (OMEGA1,) * depth, translate)
    return PointCloud(kind=kind, q=qf, depth=depth, points=pts)


def build_intersection(q, t_seq: Seq, depth: int) -> PointCloud:
    """Points of the intersection cylinder set at the given depth."""
    tree = cylinder_tree(q, t_seq, depth)
    pts = _digit_points(tree.q, tree.branch_sets)
    return PointCloud(kind="intersection", q=tree.q, depth=depth, points=pts)


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


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def _frame(clouds) -> tuple[float, float, float]:
    """Common square frame: [-R*margin, 2R*margin] in both axes, R = 1/(q-1)."""
    if clouds:
        q = clouds[0].q
    else:
        q = 2.5
    r = 1.0 / (q - 1.0)
    margin = 1.05
    lo = -r * margin
    hi = 2 * r * margin
    return lo, hi, hi - lo


def emit_svg(clouds, path: str) -> None:
    """Deterministic SVG: one layer group per cloud, circles of cylinder radius."""
    qs = {c.q for c in clouds}
    if len(qs) > 1:
        raise DomainError("all clouds must share one base")
    lo, _hi, span = _frame(clouds)
    scale = _CANVAS / span

    def sx(x: float) -> float:
        return (x - lo) * scale

    def sy(y: float) -> float:
        return _CANVAS - (y - lo) * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_CANVAS)}" '
        f'height="{int(_CANVAS)}" viewBox="0 0 {int(_CANVAS)} {int(_CANVAS)}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    for cloud in clouds:
        color = LAYER_COLORS.get(cloud.kind, "#000000")
        # half a cylinder diameter, floored so deep levels stay visible
        radius = max((cloud.q ** -cloud.depth) / 2.0 * scale, 0.35)
        lines.append(f'<g fill="{color}" data-layer="{cloud.kind}">')
        for x, y in cloud.points:
            lines.append(
                f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="{_fmt(radius)}"/>')
        lines.append("</g>")
    lines.append("</svg>")
    data = ("\n".join(lines) + "\n").encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def emit_ppm(clouds, path: str, size: int = 512) -> None:
    """Binary PPM raster. Pixel mapping: column = floor((x - lo) / span * (size - 1)),
    row counted from the top with y increasing upward."""
    if size < 16 or size > 4096:
        raise DomainError("raster size must be in [16, 4096]")
    qs = {c.q for c in clouds}
    if len(qs) > 1:
        raise DomainError("all clouds must share one base")
    lo, _hi, span = _frame(clouds)
    white = (255, 255, 255)
    grid = [[white] * size for _ in range(size)]
    rgb = {"E": (153, 153, 153), "E_plus_t": (91, 141, 239),
           "intersection": (214, 39, 40)}
    for cloud in clouds:
        color = rgb.get(cloud.kind, (0, 0, 0))
        for x, y in cloud.points:
            col = int((x - lo) / span * (size - 1))
            row = size - 1 - int((y - lo) / span * (size - 1))
            if 0 <= col < size and 0 <= row < size:
                grid[row][col] = color
    body = bytearray()
    for row in grid:
        for px in row:
            body.extend(px)
    try:
        with open(path, "wb") as fh:
            fh.write(f"P6\n{size} {size}\n255\n".encode("ascii"))
            fh.write(bytes(body))
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc
