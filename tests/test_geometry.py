import json
from fractions import Fraction
from itertools import combinations

import pytest

from ncmatch.geometry import (
    Direction,
    Orientation,
    Parity,
    PointSet,
    double_chain,
    double_zigzag,
    from_json_dict,
    is_high_above,
    make_chain,
    make_double,
    make_rchain,
    make_zigzag,
    orientation,
    place_high_above,
    to_json_dict,
)

F = Fraction


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


def pt(x, y):
    return (F(x), F(y))


class TestOrientation:
    def test_collinear(self):
        assert orientation(pt(0, 0), pt(1, 0), pt(2, 0)) is Orientation.COLLINEAR

    def test_unit_triangle_ccw(self):
        assert orientation(pt(0, 0), pt(1, 0), pt(0, 1)) is Orientation.CCW

    def test_negative_determinant_cw(self):
        # determinant (1,1)x(2,0) = -2
        assert orientation(pt(0, 0), pt(1, 1), pt(2, 0)) is Orientation.CW


class TestChains:
    def test_downward_triples_ccw(self):
        ps = make_chain(3, Direction.DOWNWARD)
        assert orientation(*ps.points) is Orientation.CCW

    def test_single_point(self):
        assert len(make_chain(1)) == 1

    def test_upward_first_triple_cw(self):
        ps = make_chain(5, Direction.UPWARD)
        assert orientation(ps[0], ps[1], ps[2]) is Orientation.CW

    def test_all_triples_uniform(self):
        for direction, want in (
            (Direction.DOWNWARD, Orientation.CCW),
            (Direction.UPWARD, Orientation.CW),
        ):
            ps = make_chain(7, direction)
            for a, b, c in combinations(ps.points, 3):
                assert orientation(a, b, c) is want

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_chain(0)


def upward_triples(ps):
    out = []
    for i, j, k in combinations(range(len(ps)), 3):
        if orientation(ps[i], ps[j], ps[k]) is Orientation.CW:
            out.append((i, j, k))
    return out


class TestZigzag:
    def test_smallest_even_kind(self):
        ps = make_zigzag(3, Parity.EVEN)
        assert upward_triples(ps) == [(0, 1, 2)]

    def test_even_and_odd_are_mirror_images_for_even_sizes(self):
        for n in (4, 6, 8):
            assert mirror_order_type(
                make_zigzag(n, Parity.EVEN), make_zigzag(n, Parity.ODD)
            )

    def test_odd_sizes_differ(self):
        assert not same_order_type(make_zigzag(5, Parity.EVEN), make_zigzag(5, Parity.ODD))

    def test_five_points_even_kind_peaks(self):
        ps = make_zigzag(5, Parity.EVEN)
        assert upward_triples(ps) == [(0, 1, 2), (2, 3, 4)]

    def test_general_position_scan(self):
        for n in range(1, 13):
            make_zigzag(n, Parity.EVEN).validate()
            make_zigzag(n, Parity.ODD).validate()


class TestRChain:
    def test_sizes_with_corners(self):
        assert len(make_rchain(5, 6, corners=True)) == 31
        assert len(make_rchain(2, 1, corners=True)) == 3

    def test_sizes_without_corners(self):
        assert len(make_rchain(4, 6, corners=False)) == 24

    def test_single_arc_is_one_upward_triple(self):
        ps = make_rchain(2, 1, corners=True)
        assert upward_triples(ps) == [(0, 1, 2)]

    @pytest.mark.parametrize("r,k", [(2, 2), (2, 4), (3, 3), (4, 2), (5, 4), (7, 3), (12, 2)])
    def test_upward_iff_same_arc(self, r, k):
        ps = make_rchain(r, k, corners=True)
        assert len(ps) == r * k + 1
        for i, j, kk in combinations(range(len(ps)), 3):
            same_arc = (kk - i <= r) and (i // r == (kk - 1) // r)
            got = orientation(ps[i], ps[j], ps[kk])
            assert (got is Orientation.CW) == same_arc, (i, j, kk)

    def test_two_chain_matches_zigzag_order_type(self):
        # a 2-chain with corners is an even-kind zigzag chain of odd size
        for k in (1, 2, 3, 4):
            assert same_order_type(
                make_rchain(2, k, corners=True), make_zigzag(2 * k + 1, Parity.EVEN)
            )

    def test_one_chain_without_corners_is_plain_chain(self):
        assert same_order_type(make_rchain(1, 5, corners=False), make_chain(5))
        assert same_order_type(make_rchain(2, 3, corners=False), make_chain(6))


class TestHighAbove:
    def test_self_is_never_high_above(self):
        ps = make_chain(4)
        assert not is_high_above(ps, ps)

    def test_placement_establishes_relation(self):
        upper = make_chain(4, Direction.DOWNWARD)
        lower = make_chain(5, Direction.UPWARD).translated(F(1, 3), F(0))
        placed = place_high_above(upper, lower)
        assert is_high_above(placed, lower)

    def test_no_translation_when_already_high(self):
        upper = make_chain(3).translated(F(0), F(10_000))
        lower = make_chain(3, Direction.UPWARD).translated(F(1, 2), F(0))
        if is_high_above(upper, lower):
            assert place_high_above(upper, lower) is upper

    def test_single_far_point(self):
        upper = PointSet((pt(0, 100_000),), "pt")
        lower = make_chain(4, Direction.UPWARD).translated(F(1, 7), F(0))
        assert is_high_above(upper, lower)


class TestDoubles:
    def test_double_chain_structure(self):
        d = double_chain(6)
        assert len(d.points) == 6
        assert len(d.upper) == 3 and len(d.lower) == 3
        # upper half downward, lower half upward
        up = d.upper_set()
        low = d.lower_set()
        assert orientation(*up.points) is Orientation.CCW
        assert orientation(*low.points) is Orientation.CW
        assert is_high_above(up, low)

    def test_double_zigzag_scan(self):
        d = double_zigzag(10)
        d.points.validate()
        assert is_high_above(d.upper_set(), d.lower_set())

    def test_double_two_chain_matches_double_zigzag(self):
        # doubling a 2-chain reproduces a double zigzag chain order type
        d1 = make_double(lambda m: make_rchain(2, (m - 1) // 2, corners=True), 14)
        d2 = make_double(lambda m: make_zigzag(m, Parity.EVEN), 14)
        assert same_order_type(d1.points, d2.points)

    @pytest.mark.parametrize("n", range(2, 15, 2))
    def test_halves_are_the_placed_copies(self, n):
        # so the halves are high above each other by place_high_above's own check
        builds = [
            (double_chain, lambda m: make_chain(m, Direction.DOWNWARD)),
            (double_zigzag, lambda m: make_zigzag(m, Parity.EVEN, Direction.DOWNWARD)),
            (lambda size: double_zigzag(size, Parity.ODD),
             lambda m: make_zigzag(m, Parity.ODD, Direction.DOWNWARD)),
        ]
        for double, half_of in builds:
            half = half_of(n // 2)
            lower = half.reflected_vertically().translated(F(1, 3), F(0))
            d = double(n)
            assert d.upper_set().points == place_high_above(half, lower).points
            assert d.lower_set().points == lower.points

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            double_chain(7)

    def test_distinct_x_coordinates(self):
        d = double_zigzag(12)
        xs = [p[0] for p in d.points]
        assert len(set(xs)) == len(xs)


class TestJson:
    def test_round_trip(self):
        ps = make_zigzag(6, Parity.ODD)
        blob = json.dumps(to_json_dict(ps))
        back = from_json_dict(json.loads(blob))
        assert back.points == ps.points
        assert back.label == ps.label

    @pytest.mark.parametrize("label", [["x"], 7, None, {"name": "x"}])
    def test_label_must_be_a_string(self, label):
        with pytest.raises(ValueError, match="label .* is not a string"):
            from_json_dict({"label": label, "points": [[0, 1, 0, 1]]})

    def test_loader_validates(self):
        bad = {"label": "x", "points": [[0, 1, 0, 1], [1, 1, 0, 1], [2, 1, 0, 1]]}
        with pytest.raises(ValueError):
            from_json_dict(bad)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0, 1, 0, 1], [0, 1, 1, 1]], "x-coordinates not strictly increasing"),
            ([[0, 1, 0, 1], [1, 1, 0, 1], [2, 1, 0, 1]], "collinear triple"),
        ],
        ids=["equal-x", "collinear"],
    )
    def test_error_prefix_is_the_label_when_there_is_one(self, rows, message):
        with pytest.raises(ValueError) as unlabelled:
            from_json_dict({"points": rows})
        assert str(unlabelled.value).startswith(message)
        with pytest.raises(ValueError) as labelled:
            from_json_dict({"label": "pts", "points": rows})
        assert str(labelled.value).startswith(f"pts: {message}")


def test_general_position_scan_small_sizes():
    for n in range(1, 11):
        make_chain(n).validate()
    for r, k in ((3, 2), (4, 3), (6, 2)):
        make_rchain(r, k, corners=True).validate()
        make_rchain(r, k, corners=False).validate()
