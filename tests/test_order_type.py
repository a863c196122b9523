"""The integer order-type pass, geometry._side_masks, against Fraction
orientation(), and every decision that reads it: general position, the
constructors' promised upward triples, the high-above relation and the
oracle's tables."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from ncmatch import geometry, oracle
from ncmatch.geometry import (
    Direction,
    Orientation,
    Parity,
    PointSet,
    _order_type_breach,
    _side_masks,
    double_chain,
    double_zigzag,
    from_json_dict,
    is_high_above,
    make_chain,
    make_rchain,
    make_zigzag,
    orientation,
)
from ncmatch.oracle import MatchKind, census

F = Fraction


def family_sets():
    sets = [make_chain(7), make_chain(6, Direction.UPWARD)]
    for n in (1, 2, 3, 8, 11):
        for parity in Parity:
            sets.append(make_zigzag(n, parity))
            sets.append(make_zigzag(n, parity, Direction.UPWARD))
    for r, k in ((1, 3), (2, 4), (3, 3), (5, 2)):
        sets += [make_rchain(r, k, corners=True), make_rchain(r, k, corners=False)]
    sets += [double_chain(10).points, double_zigzag(12).points, double_zigzag(8, Parity.ODD).points]
    return sets


def random_points(rng, n, grid=9):
    """Unsorted rational points; repeats and collinear triples are allowed."""
    return tuple(
        (F(rng.randrange(-grid, grid + 1), rng.choice((1, 2, 3))),
         F(rng.randrange(-grid, grid + 1), rng.choice((1, 2, 5))))
        for _ in range(n)
    )


def assert_masks_match(pts):
    left, right = _side_masks(pts)
    pairs = list(combinations(range(len(pts)), 2))
    assert len(left) == len(right) == len(pairs)
    for (i, j), lmask, rmask in zip(pairs, left, right):
        for p in range(len(pts)):
            o = orientation(pts[i], pts[j], pts[p])
            assert (lmask >> p & 1, rmask >> p & 1) == (o is Orientation.CCW, o is Orientation.CW), (i, j, p)


class TestSideMasks:
    @pytest.mark.parametrize("ps", family_sets(), ids=lambda ps: ps.label)
    def test_family_sets_match_orientation(self, ps):
        assert_masks_match(ps.points)

    def test_random_sets_match_orientation(self):
        rng = random.Random(14)
        for _ in range(150):
            assert_masks_match(random_points(rng, rng.randrange(0, 9)))

    def test_empty_and_single_point(self):
        assert _side_masks(()) == ([], [])
        assert _side_masks(((F(1, 3), F(2, 7)),)) == ([], [])


def fraction_first_collinear(pts):
    """The first collinear triple in combinations order, by Fraction scan."""
    for a, b, c in combinations(pts, 3):
        if orientation(a, b, c) is Orientation.COLLINEAR:
            return a, b, c
    return None


def planted_set(rng, n):
    """An x-sorted random set with one or two collinear triples planted."""
    xs = sorted(rng.sample(range(-30, 30), n))
    pts = [(F(x, 2), F(rng.randrange(-40, 40), 3)) for x in xs]
    for _ in range(rng.randrange(0, 3)):
        i, j, k = sorted(rng.sample(range(n), 3))
        (xi, yi), (xk, yk) = pts[i], pts[k]
        pts[j] = (pts[j][0], yi + (yk - yi) * (pts[j][0] - xi) / (xk - xi))
    return tuple(pts)


class TestValidate:
    def test_names_the_first_collinear_triple(self):
        rng = random.Random(7)
        planted = 0
        for _ in range(400):
            pts = planted_set(rng, rng.randrange(3, 11))
            label = rng.choice(("", "S"))
            want = fraction_first_collinear(pts)
            if want is None:
                assert PointSet(pts, label).validate().points == pts
                continue
            planted += 1
            where = f"{label}: " if label else ""
            a, b, c = want
            with pytest.raises(ValueError) as err:
                PointSet(pts, label).validate()
            assert str(err.value) == f"{where}collinear triple {a}, {b}, {c}"
        assert planted > 100

    def test_x_order_is_checked_first(self):
        pts = ((F(0), F(0)), (F(2), F(0)), (F(1), F(0)))
        with pytest.raises(ValueError, match="x-coordinates not strictly increasing"):
            PointSet(pts).validate()


def fraction_is_high_above(upper, lower):
    """The high-above relation by Fraction orientations, chord by chord."""

    def above_line(p, a, b):
        if a[0] > b[0]:
            a, b = b, a
        return orientation(a, b, p) is Orientation.CCW

    for a, b in combinations(lower.points, 2):
        for p in upper.points:
            if not above_line(p, a, b):
                return False
    for a, b in combinations(upper.points, 2):
        for q in lower.points:
            if above_line(q, a, b):
                return False
    return True


def on_chord(a, b, x):
    return (x, a[1] + (b[1] - a[1]) * (x - a[0]) / (b[0] - a[0]))


class TestHighAbove:
    def test_random_pairs_match_fraction_rule(self):
        rng = random.Random(21)
        verdicts = set()
        for _ in range(400):
            upper = PointSet(random_points(rng, rng.randrange(0, 6)))
            lower = PointSet(random_points(rng, rng.randrange(0, 6)))
            if rng.random() < 0.3:
                upper = upper.translated(F(0), F(rng.randrange(10, 60)))
            want = fraction_is_high_above(upper, lower)
            verdicts.add(want)
            assert is_high_above(upper, lower) is want
            assert is_high_above(upper, upper) is fraction_is_high_above(upper, upper)
        assert verdicts == {True, False}

    def test_lower_point_may_lie_on_an_upper_chord(self):
        a, b = (F(0), F(10)), (F(4), F(12))
        upper = PointSet((a, b))
        lower = PointSet((on_chord(a, b, F(1)),))
        assert fraction_is_high_above(upper, lower)
        assert is_high_above(upper, lower)
        assert not is_high_above(upper, lower.translated(F(0), F(1, 10**9)))

    def test_upper_point_on_a_lower_chord_fails(self):
        a, b = (F(0), F(0)), (F(4), F(2))
        lower = PointSet((a, b))
        upper = PointSet((on_chord(a, b, F(2)), (F(3), F(50))))
        assert not fraction_is_high_above(upper, lower)
        assert not is_high_above(upper, lower)

    def test_identical_sets(self):
        for ps in (make_chain(1), make_chain(2), make_zigzag(6)):
            assert is_high_above(ps, ps) is fraction_is_high_above(ps, ps)


class TestOrderTypeBreach:
    def test_family_promises_hold(self):
        for n in (3, 7, 10):
            pts = make_zigzag(n).points
            lifted = {(j - 1, j, j + 1) for j in range(1, n - 1) if (j + 1) % 2 == 0}
            assert _order_type_breach(pts, lifted) is None
            mirrored = make_zigzag(n, Parity.EVEN, Direction.UPWARD).points
            assert _order_type_breach(mirrored, lifted, Orientation.CCW) is None
        assert _order_type_breach(make_chain(6).points, set()) is None

    def test_wrong_promise_is_rejected_at_its_first_triple(self):
        pts = make_zigzag(9).points
        lifted = {(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8)}
        assert _order_type_breach(pts, lifted) is None
        assert _order_type_breach(pts, lifted - {(2, 3, 4)}) == (2, 3, 4)
        assert _order_type_breach(pts, lifted | {(1, 4, 8)}) == (1, 4, 8)
        assert _order_type_breach(pts, lifted | {(0, 3, 5), (1, 2, 3)}) == (0, 3, 5)
        assert _order_type_breach(pts, lifted, Orientation.CCW) == (0, 1, 2)
        # the r-chain promise: upward exactly within an arc
        assert _order_type_breach(make_rchain(3, 2).points, {(0, 1, 2)}) == (0, 1, 3)

    def test_collinear_triple_breaks_any_promise(self):
        pts = ((F(0), F(0)), (F(1), F(5)), (F(2), F(2)), (F(3), F(3)))
        assert _order_type_breach(pts, set()) == (0, 1, 2)  # (0, 1, 2) turns CW
        assert _order_type_breach(pts, {(0, 1, 2), (0, 1, 3)}) == (0, 2, 3)


def test_no_fraction_orientation_on_the_construction_and_oracle_paths(monkeypatch):
    calls = []
    real = geometry.orientation
    monkeypatch.setattr(geometry, "orientation", lambda *a: calls.append(a) or real(*a))
    built = [
        make_chain(5),
        make_chain(5, Direction.UPWARD),
        make_zigzag(9),
        make_zigzag(8, Parity.ODD, Direction.UPWARD),
        make_rchain(3, 3, corners=True),
        make_rchain(3, 3, corners=False),
        double_chain(8).points,
        double_zigzag(8).points,
        from_json_dict({"points": [[0, 1, 0, 1], [1, 1, 3, 1], [2, 1, 1, 2], [7, 2, 5, 1]]}),
    ]
    oracle._tables_of.cache_clear()  # so each census builds its tables
    assert all(census(ps, MatchKind.ALL).total > 0 for ps in built)
    assert calls == []
