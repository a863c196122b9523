"""Exact-rational planar point sets: chains, zigzag chains, r-chains, doubles.

All coordinates are :class:`fractions.Fraction`; every predicate is an exact
sign computation, so order types are decided without tolerances.  Each
constructor validates the order type it promises (an exhaustive triple scan)
and raises rather than return a set with the wrong combinatorics.

Conventions.  Points are indexed 1..n from left to right in prose and
docstrings, 0..n-1 in code.  Three points with increasing x-coordinates are
"downward" (they lie on a convex curve) when the x-sorted triple turns
counterclockwise, and "upward" (concave) when it turns clockwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

Point = tuple[Fraction, Fraction]


class Orientation(enum.Enum):
    CCW = 1
    CW = -1
    COLLINEAR = 0


class Direction(enum.Enum):
    DOWNWARD = "downward"
    UPWARD = "upward"


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


def orientation(a: Point, b: Point, c: Point) -> Orientation:
    """Exact orientation of the triangle a, b, c."""
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if det > 0:
        return Orientation.CCW
    if det < 0:
        return Orientation.CW
    return Orientation.COLLINEAR


def _pt(x, y) -> Point:
    return (Fraction(x), Fraction(y))


@dataclass(frozen=True)
class PointSet:
    """An x-sorted planar point set in general position.

    Invariants (enforced by :func:`validate`): x-coordinates strictly
    increasing, no three points collinear.
    """

    points: tuple[Point, ...]
    label: str = ""

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    def validate(self) -> "PointSet":
        xs = [p[0] for p in self.points]
        for u, v in zip(xs, xs[1:]):
            if not u < v:
                raise ValueError(f"{self.label}: x-coordinates not strictly increasing")
        for a, b, c in combinations(self.points, 3):
            if orientation(a, b, c) is Orientation.COLLINEAR:
                raise ValueError(f"{self.label}: collinear triple {a}, {b}, {c}")
        return self

    def translated(self, dx: Fraction, dy: Fraction) -> "PointSet":
        pts = tuple((x + dx, y + dy) for x, y in self.points)
        return PointSet(pts, self.label)

    def reflected_vertically(self) -> "PointSet":
        """Mirror image across the line y = 0."""
        pts = tuple((x, -y) for x, y in self.points)
        return PointSet(pts, self.label)

    def subset(self, indices: Sequence[int], label: str = "") -> "PointSet":
        pts = tuple(self.points[i] for i in sorted(indices))
        return PointSet(pts, label or f"{self.label}[{len(indices)}]")


def order_type_signature(ps: PointSet) -> tuple[int, ...]:
    """Orientation of every index triple (i < j < k), flattened."""
    pts = ps.points
    return tuple(
        orientation(pts[i], pts[j], pts[k]).value
        for i, j, k in combinations(range(len(pts)), 3)
    )


def mirror_signature(ps: PointSet) -> tuple[int, ...]:
    """Signature of the mirror image across a vertical line."""
    pts = [(-x, y) for x, y in reversed(ps.points)]
    return tuple(
        orientation(pts[i], pts[j], pts[k]).value
        for i, j, k in combinations(range(len(pts)), 3)
    )


def same_order_type(p: PointSet, q: PointSet) -> bool:
    return len(p) == len(q) and order_type_signature(p) == order_type_signature(q)


def mirror_order_type(p: PointSet, q: PointSet) -> bool:
    return len(p) == len(q) and order_type_signature(p) == mirror_signature(q)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def make_chain(n: int, direction: Direction = Direction.DOWNWARD) -> PointSet:
    """n points on a parabola: downward (convex) or upward (concave) chain."""
    if n < 1:
        raise ValueError("chain needs at least one point")
    sign = 1 if direction is Direction.DOWNWARD else -1
    pts = tuple(_pt(i, sign * i * i) for i in range(n))
    return PointSet(pts, f"chain(n={n},{direction.value})").validate()


def make_zigzag(
    n: int,
    parity: Parity = Parity.EVEN,
    direction: Direction = Direction.DOWNWARD,
) -> PointSet:
    """Zigzag chain: a downward chain whose interior points of one parity are
    lifted just above the segment joining their neighbours.

    With 1-based numbering, the lifted indices are the interior even indices
    (kind EVEN) or the interior odd indices (kind ODD).  Exactly the triples
    (p_{i-1}, p_i, p_{i+1}) at lifted i are in upward position; every other
    triple keeps the downward position of the base chain.  The constructor
    checks this exhaustively.
    """
    if n < 1:
        raise ValueError("zigzag chain needs at least one point")
    want = 0 if parity is Parity.EVEN else 1
    lifted = [j for j in range(1, n - 1) if (j + 1) % 2 == want]
    pts = []
    for j in range(n):
        y = Fraction(j * j)
        if j in lifted:
            y = Fraction(j * j) + Fraction(3, 2)  # chord height is j*j + 1
        pts.append(_pt(j, y))
    if direction is Direction.UPWARD:
        pts = [(x, -y) for x, y in pts]
    ps = PointSet(tuple(pts), f"zigzag(n={n},{parity.value},{direction.value})").validate()

    up = Orientation.CW if direction is Direction.DOWNWARD else Orientation.CCW
    expected_up = {(j - 1, j, j + 1) for j in lifted}
    for i, j, k in combinations(range(n), 3):
        o = orientation(ps[i], ps[j], ps[k])
        if ((i, j, k) in expected_up) != (o is up):
            raise AssertionError(f"zigzag order type broken at triple {(i, j, k)}")
    return ps


def _rchain_points(r: int, k: int) -> tuple[tuple[Point, ...], list[range]]:
    """Corner+arc coordinates for k concave arcs of size r+1 glued at corners.

    Corners sit on the convex parabola y = x*x at x = 0, r, 2r, ...; interior
    points bulge above the corner chord by a flat rational quadratic.  The
    bulge height is shrunk until the exhaustive order-type check passes.
    """
    for shrink in range(64):
        h = Fraction(1, 4 * r * (1 << shrink))
        pts: list[Point] = []
        arcs: list[range] = []
        for arc in range(k):
            a, b = arc * r, (arc + 1) * r
            if arc == 0:
                pts.append(_pt(a, a * a))
            start = len(pts) - 1  # the shared left corner belongs to this arc
            for x in range(a + 1, b):
                chord = Fraction((a + b) * x - a * b)
                bump = h * (x - a) * (b - x)
                pts.append(_pt(x, chord + bump))
            pts.append(_pt(b, b * b))
            arcs.append(range(start, len(pts)))
        if _rchain_order_type_ok(pts, arcs):
            return tuple(pts), arcs
    raise AssertionError("no bulge height realizes the r-chain order type")


def _rchain_order_type_ok(pts: Sequence[Point], arcs: list[range]) -> bool:
    arc_of = {}
    for ai, rng in enumerate(arcs):
        for i in rng:
            arc_of.setdefault(i, set()).add(ai)
    for i, j, k in combinations(range(len(pts)), 3):
        shared = arc_of[i] & arc_of[j] & arc_of[k]
        o = orientation(pts[i], pts[j], pts[k])
        if shared:
            if o is not Orientation.CW:
                return False
        elif o is not Orientation.CCW:
            return False
    return True


def make_rchain(r: int, k: int, corners: bool = True) -> PointSet:
    """r-chain of k arcs: with corners it has r*k+1 points; without corners the
    corner points of the (r+1)-parameter chain are deleted, leaving r*k points.

    Order-type contract: three points are in upward position iff they belong
    to the same arc (checked exhaustively during construction).
    """
    if r < 1 or k < 1:
        raise ValueError("r-chain needs r >= 1 and k >= 1")
    if corners:
        pts, _arcs = _rchain_points(r, k)
        return PointSet(pts, f"rchain(r={r},k={k},corners)").validate()
    pts, _arcs = _rchain_points(r + 1, k)
    corner_xs = {i * (r + 1) for i in range(k + 1)}
    kept = tuple(p for p in pts if p[0] not in corner_xs)
    return PointSet(kept, f"rchain(r={r},k={k},no-corners)").validate()


# ---------------------------------------------------------------------------
# the "high above" relation and double constructions
# ---------------------------------------------------------------------------


def _above_line(p: Point, a: Point, b: Point) -> bool:
    """True iff p is strictly above the line through a and b (a.x != b.x)."""
    if a[0] > b[0]:
        a, b = b, a
    return orientation(a, b, p) is Orientation.CCW


def is_high_above(upper: PointSet, lower: PointSet) -> bool:
    """Every upper point clears every lower chord, and vice versa (exact)."""
    for a, b in combinations(lower.points, 2):
        for p in upper.points:
            if not _above_line(p, a, b):
                return False
    for a, b in combinations(upper.points, 2):
        for q in lower.points:
            if _above_line(q, a, b):
                return False
    return True


def place_high_above(upper: PointSet, lower: PointSet) -> PointSet:
    """Translate `upper` vertically until it is high above `lower`.

    The shift comes from evaluating every chord of either set at the two
    bounding abscissae (a line is extremal over an x-interval at its ends),
    doubled for margin.  Returns `upper` unchanged if the relation already
    holds.
    """
    if is_high_above(upper, lower):
        return upper
    xs = [p[0] for p in upper.points] + [q[0] for q in lower.points]
    lo, hi = min(xs), max(xs)

    def line_at(a: Point, b: Point, x: Fraction) -> Fraction:
        return a[1] + (b[1] - a[1]) * (x - a[0]) / (b[0] - a[0])

    need = Fraction(0)
    min_upper = min(y for _, y in upper.points)
    max_lower = max(y for _, y in lower.points)
    for a, b in combinations(lower.points, 2):
        top = max(line_at(a, b, lo), line_at(a, b, hi))
        need = max(need, top - min_upper)
    for a, b in combinations(upper.points, 2):
        bottom = min(line_at(a, b, lo), line_at(a, b, hi))
        need = max(need, max_lower - bottom)
    shifted = upper.translated(Fraction(0), 2 * need + 1)
    if not is_high_above(shifted, lower):
        raise AssertionError("high-above placement failed its own check")
    return shifted


@dataclass(frozen=True)
class DoubleSet:
    """A double construction: one copy high above a reflected copy.

    `points` is the x-sorted union; `upper` and `lower` list the indices of
    the two halves inside it.
    """

    points: PointSet
    upper: tuple[int, ...]
    lower: tuple[int, ...]

    def upper_set(self) -> PointSet:
        return self.points.subset(self.upper, self.points.label + ":upper")

    def lower_set(self) -> PointSet:
        return self.points.subset(self.lower, self.points.label + ":lower")


def make_double(constructor: Callable[[int], PointSet], n: int) -> DoubleSet:
    """Upper copy of constructor(n/2) high above its reflection across y = 0.

    The lower copy is nudged right by 1/3 so all 2*(n/2) x-coordinates stay
    distinct; the union is validated for general position.
    """
    if n % 2 != 0:
        raise ValueError("double constructions need an even size")
    half = constructor(n // 2)
    lower = half.reflected_vertically().translated(Fraction(1, 3), Fraction(0))
    upper = place_high_above(half, lower)
    tagged = [(p, 0) for p in upper.points] + [(q, 1) for q in lower.points]
    tagged.sort(key=lambda t: t[0][0])
    pts = tuple(p for p, _ in tagged)
    union = PointSet(pts, f"double({half.label})").validate()
    upper_idx = tuple(i for i, (_, side) in enumerate(tagged) if side == 0)
    lower_idx = tuple(i for i, (_, side) in enumerate(tagged) if side == 1)
    if not is_high_above(union.subset(upper_idx), union.subset(lower_idx)):
        raise AssertionError("double construction lost the high-above relation")
    return DoubleSet(union, upper_idx, lower_idx)


def double_chain(n: int) -> DoubleSet:
    return make_double(lambda m: make_chain(m, Direction.DOWNWARD), n)


def double_zigzag(n: int, parity: Parity = Parity.EVEN) -> DoubleSet:
    return make_double(lambda m: make_zigzag(m, parity, Direction.DOWNWARD), n)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def to_json_dict(ps: PointSet) -> dict:
    """{"label": ..., "points": [[xn, xd, yn, yd], ...]} with exact integers."""
    return {
        "label": ps.label,
        "points": [
            [x.numerator, x.denominator, y.numerator, y.denominator]
            for x, y in ps.points
        ],
    }


def from_json_dict(data: dict) -> PointSet:
    """Inverse of :func:`to_json_dict`; malformed input raises ValueError."""
    rows = data.get("points") if isinstance(data, dict) else None
    if not isinstance(rows, list):
        raise ValueError('point-set JSON needs a "points" list')
    pts = []
    for row in rows:
        # bool is an int subclass, so test the exact type
        if not (isinstance(row, list) and len(row) == 4 and all(type(v) is int for v in row)):
            raise ValueError(f"point row {row!r} is not four integers [xn, xd, yn, yd]")
        xn, xd, yn, yd = row
        if xd == 0 or yd == 0:
            raise ValueError(f"point row {row!r} has a zero denominator")
        pts.append((Fraction(xn, xd), Fraction(yn, yd)))
    return PointSet(tuple(pts), data.get("label", "")).validate()
