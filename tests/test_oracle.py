import random
from fractions import Fraction
from itertools import combinations

import pytest

from ncmatch.doubling import catalan, motzkin
from ncmatch.geometry import (
    Direction,
    Orientation,
    Parity,
    PointSet,
    double_chain,
    double_zigzag,
    make_chain,
    make_rchain,
    make_zigzag,
    orientation,
)
from ncmatch.oracle import (
    DEFAULT_CAPS,
    MatchKind,
    Matching,
    SizeCapError,
    census,
    census_corner_split,
    census_runners,
    complete_to_perfect,
    count_cross_completions,
    count_perfect_extensions,
    is_down_free,
    is_noncrossing,
    is_up_free,
    matchings,
)
from ncmatch.oracle import _tables

from conftest import globalize, halves_maps


class TestConvexPosition:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_all_matchings_are_motzkin(self, n):
        assert census(make_chain(n), MatchKind.ALL).total == motzkin(n)

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_perfect_matchings_are_catalan(self, n):
        assert census(make_chain(n), MatchKind.PERFECT).total == catalan(n // 2)

    def test_convex_four_all(self):
        assert census(make_chain(4), MatchKind.ALL).total == 9

    def test_convex_six_perfect(self):
        assert census(make_chain(6), MatchKind.PERFECT).total == 5

    def test_odd_size_has_no_perfect_matching(self):
        assert census(make_chain(5), MatchKind.PERFECT).total == 0


class TestKindOrdering:
    @pytest.mark.parametrize(
        "ps",
        [
            make_chain(8),
            make_chain(7, Direction.UPWARD),
            make_zigzag(8, Parity.EVEN),
            make_rchain(3, 2, corners=True),
            double_chain(8).points,
        ],
        ids=lambda ps: ps.label,
    )
    def test_perfect_le_downfree_le_all(self, ps):
        pm = census(ps, MatchKind.PERFECT).total
        dfm = census(ps, MatchKind.DOWN_FREE).total
        am = census(ps, MatchKind.ALL).total
        assert pm <= dfm <= am

    def test_downward_chain_downfree_equals_all(self):
        ps = make_chain(9)
        assert census(ps, MatchKind.DOWN_FREE).total == census(ps, MatchKind.ALL).total

    def test_upward_chain_downfree_is_central_binomial(self):
        from math import comb

        for n in range(1, 10):
            ps = make_chain(n, Direction.UPWARD)
            assert census(ps, MatchKind.DOWN_FREE).total == comb(n, n // 2)


class TestRunnerCensus:
    def test_arc_of_five(self):
        vec = census_runners(make_chain(5, Direction.UPWARD))
        assert vec == [10, 30, 30, 20, 5, 1]

    def test_empty_set(self):
        from ncmatch.geometry import PointSet

        assert census_runners(PointSet(())) == [1]

    def test_matches_runner_recursion_for_small_chains(self):
        from ncmatch.chains import runner_counts

        for r, k in ((2, 3), (3, 2), (4, 2), (5, 1)):
            ps = make_rchain(r, k, corners=False)
            assert census_runners(ps) == runner_counts(r, k)

    @pytest.mark.parametrize("r,k", [(2, 3), (3, 3), (2, 5), (4, 2), (5, 2), (3, 4)])
    def test_split_join_recount_at_last_arc(self, r, k):
        """Cutting at the last arc is a bijection: both sides counted by the
        oracle alone, fused over every compatible runner pairing."""
        whole = census_runners(make_rchain(r, k, corners=False))
        left = census_runners(make_rchain(r, k - 1, corners=False)) if k > 1 else [1]
        arc = census_runners(make_chain(r, Direction.UPWARD))
        top = len(whole) - 1
        for i in range(top + 1):
            fused = 0
            for j, zj in enumerate(left):
                for beta, zb in enumerate(arc):
                    if abs(i - j) <= beta <= i + j and (beta - abs(i - j)) % 2 == 0:
                        fused += zj * zb
            assert fused == (whole[i] if i < len(whole) else 0)

    def test_corner_split_sums_to_runner_census(self):
        ps = make_rchain(3, 2, corners=True)
        marked, unmarked = census_corner_split(ps)
        full = census_runners(ps)
        for i, total in enumerate(full):
            with_mark = marked[i - 1] if 0 <= i - 1 < len(marked) else 0
            without = unmarked[i] if i < len(unmarked) else 0
            assert with_mark + without == total


class TestCaps:
    def test_cap_exceeded_raises(self):
        ps = make_chain(12)
        with pytest.raises(SizeCapError):
            census(ps, MatchKind.ALL, cap=10)

    def test_default_caps_by_kind(self):
        assert DEFAULT_CAPS[MatchKind.RHO_DOWN_FREE] < DEFAULT_CAPS[MatchKind.ALL]


class TestPredicates:
    def test_down_free_detects_covered_point(self):
        ps = make_zigzag(3, Parity.EVEN)  # middle point above the outer edge
        m = Matching(frozenset({(0, 2)}))
        assert not is_down_free(ps, m)
        assert is_up_free(ps, m)

    def test_noncrossing_detects_crossing(self):
        ps = make_chain(4)
        assert not is_noncrossing(ps, Matching(frozenset({(0, 2), (1, 3)})))
        assert is_noncrossing(ps, Matching(frozenset({(0, 3), (1, 2)})))

    def test_lister_agrees_with_census(self):
        ps = make_zigzag(7, Parity.EVEN)
        listed = list(matchings(ps, MatchKind.DOWN_FREE))
        assert len(listed) == census(ps, MatchKind.DOWN_FREE).total
        assert all(is_down_free(ps, m) and is_noncrossing(ps, m) for m in listed)


class TestCompletion:
    def test_empty_pair_on_double_chain(self):
        d = double_chain(6)
        done = complete_to_perfect(d, Matching(frozenset()), Matching(frozenset()))
        assert done is not None and len(done.edges) == 3
        assert count_cross_completions(d, Matching(frozenset())) == 1
        # every completion edge joins the halves
        upper = set(d.upper)
        for i, j in done.edges:
            assert (i in upper) != (j in upper)

    def test_unequal_free_counts_raise(self):
        d = double_chain(6)
        one_edge = Matching(frozenset({(min(d.upper[0], d.upper[1]), max(d.upper[0], d.upper[1]))}))
        with pytest.raises(ValueError):
            complete_to_perfect(d, one_edge, Matching(frozenset()))

    def test_not_down_free_returns_none(self, rng):
        d = double_zigzag(12)
        up_map, low_map = halves_maps(d)
        ups, lows = d.upper_set(), d.lower_set()
        bad = [m for m in matchings(ups, MatchKind.ALL) if not is_down_free(ups, m)]
        ok = [m for m in matchings(lows, MatchKind.UP_FREE)]
        checked = 0
        while checked < 10:
            mp = rng.choice(bad)
            partners = [m for m in ok if len(m.free_points(6)) == len(mp.free_points(6))]
            if not partners:
                continue
            mq = rng.choice(partners)
            assert complete_to_perfect(d, globalize(mp, up_map), globalize(mq, low_map)) is None
            checked += 1

    def test_completion_found_by_perfect_enumerator(self, rng):
        d = double_zigzag(10)
        up_map, low_map = halves_maps(d)
        ups, lows = d.upper_set(), d.lower_set()
        dfs = list(matchings(ups, MatchKind.DOWN_FREE))
        ufs = list(matchings(lows, MatchKind.UP_FREE))
        perfect = {m.edges for m in matchings(d.points, MatchKind.PERFECT)}
        for _ in range(25):
            mp = rng.choice(dfs)
            partners = [m for m in ufs if len(m.free_points(5)) == len(mp.free_points(5))]
            mq = rng.choice(partners)
            gp, gq = globalize(mp, up_map), globalize(mq, low_map)
            done = complete_to_perfect(d, gp, gq)
            assert done is not None
            assert done.edges in perfect
            joined = Matching(gp.edges | gq.edges)
            assert count_cross_completions(d, joined) == 1

    def test_runner_matchings_rejected(self):
        d = double_chain(6)
        with pytest.raises(ValueError):
            complete_to_perfect(d, Matching(frozenset(), frozenset({0})), Matching(frozenset()))


def test_extension_counter_respects_fixed_edges():
    ps = make_chain(6)
    fixed = Matching(frozenset({(0, 5)}))
    # edge over everything: remaining points must match under it
    assert count_perfect_extensions(ps, fixed) == catalan(2)


def _reference_tables(ps: PointSet):
    """cross, below and above from Fraction orientations, edge ids in (i, j) order."""
    pts = ps.points
    pairs = list(combinations(range(len(pts)), 2))
    cross = [0] * len(pairs)
    for x, (i, j) in enumerate(pairs):
        for y, (c, d) in enumerate(pairs):
            if len({i, j, c, d}) == 4 and (
                orientation(pts[i], pts[j], pts[c]) is not orientation(pts[i], pts[j], pts[d])
                and orientation(pts[c], pts[d], pts[i]) is not orientation(pts[c], pts[d], pts[j])
            ):
                cross[x] |= 1 << y
    below = [0] * len(pts)
    above = [0] * len(pts)
    for k, (i, j) in enumerate(pairs):
        for p in range(i + 1, j):
            if orientation(pts[i], pts[j], pts[p]) is Orientation.CCW:
                below[p] |= 1 << k
            else:
                above[p] |= 1 << k
    return cross, below, above


def _random_general_position(rng: random.Random, n: int) -> PointSet:
    """n points with mixed denominators and negative coordinates."""
    while True:
        pts = [
            (Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
             Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
            for _ in range(n)
        ]
        pts.sort()
        try:
            return PointSet(tuple(pts), f"random(n={n})").validate()
        except ValueError:
            continue


class TestIntegerTables:
    def test_random_sets_match_fraction_orientations(self):
        rng = random.Random(2015)
        for n in [3, 4, 5, 6, 7, 8, 9, 10] * 2 + [11, 12, 12, 13]:
            ps = _random_general_position(rng, n)
            tab = _tables(ps)
            assert (tab.cross, tab.below, tab.above) == _reference_tables(ps), ps.points

    @pytest.mark.parametrize(
        "ps",
        [
            make_chain(9),
            make_chain(8, Direction.UPWARD),
            make_zigzag(10, Parity.EVEN),
            make_zigzag(9, Parity.ODD, Direction.UPWARD),
            make_rchain(3, 3, corners=True),
            make_rchain(3, 3, corners=False),
            double_chain(10).points,
            double_zigzag(10).points,
        ],
        ids=lambda ps: ps.label,
    )
    def test_family_sets_match_fraction_orientations(self, ps):
        tab = _tables(ps)
        assert (tab.cross, tab.below, tab.above) == _reference_tables(ps)


class TestTinySets:
    def test_empty_set(self):
        empty = PointSet(())
        assert census_corner_split(empty) == ([0], [1])
        for kind in MatchKind:
            cen = census(empty, kind)
            assert (cen.total, cen.by_free_and_runners) == (1, {(0, 0): 1})

    def test_one_point(self):
        one = PointSet(((Fraction(0), Fraction(0)),))
        assert census_corner_split(one) == ([1], [1])
        assert census(one, MatchKind.PERFECT).total == 0
        for kind in (MatchKind.ALL, MatchKind.DOWN_FREE, MatchKind.UP_FREE):
            assert census(one, kind).by_free_and_runners == {(1, 0): 1}
        assert census(one, MatchKind.RHO_DOWN_FREE).by_free_and_runners == {(1, 0): 1, (0, 1): 1}
