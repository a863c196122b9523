import copy
import dataclasses
import gc
import inspect
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, count
from math import comb

import pytest

from ncmatch.doubling import catalan, motzkin
from ncmatch.geometry import (
    Direction,
    DoubleSet,
    Orientation,
    Parity,
    PointSet,
    double_chain,
    double_zigzag,
    is_high_above,
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
from ncmatch import oracle
from ncmatch.oracle import _fold, _tables, _walk

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

    def test_corner_split_on_upward_three_chain(self):
        """Points 0, 1, 2 on a cap: 1 lies above the edge (0, 2), so it may be
        a runner there but not free; 0 and 2 are never under or over an edge.
        Mark = runner on point 2; index = runners on 0 and 1.
          no edge, 2 runner:  0, 1 free or runner      -> marked [1, 2, 1]
          (0, 1), 2 runner:                            -> marked [1]
          no edge, 2 free:    0, 1 free or runner      -> unmarked [1, 2, 1]
          (0, 1), 2 free:                              -> unmarked [1]
          (1, 2), 0 free or runner                     -> unmarked [1, 1]
          (0, 2), 1 runner                             -> unmarked [0, 1]
        """
        ps = make_chain(3, Direction.UPWARD)
        assert census_corner_split(ps) == ([2, 2, 1], [3, 4, 1])
        assert census_runners(ps) == [3, 6, 3, 1]

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

    @pytest.mark.parametrize("edge", [(1, 9), (9, 1), (-1, 2), (1, 1)])
    def test_bad_edge_rejected(self, edge):
        ps = make_chain(4)
        m = Matching(frozenset({edge}))
        for predicate in (is_noncrossing, is_down_free, is_up_free):
            with pytest.raises(ValueError):
                predicate(ps, m)
        with pytest.raises(ValueError):
            count_perfect_extensions(ps, m)

    def test_runner_off_the_set_rejected(self):
        m = Matching(frozenset({(0, 3)}), runners=frozenset({9}))
        for predicate in (is_noncrossing, is_down_free, is_up_free):
            with pytest.raises(ValueError):
                predicate(make_chain(4), m)

    def test_edge_end_cannot_be_a_runner(self):
        ps = make_chain(4)
        assert not is_noncrossing(ps, Matching(frozenset({(0, 3)}), runners=frozenset({0})))
        assert is_noncrossing(ps, Matching(frozenset({(0, 3)}), runners=frozenset({1})))

    def test_runner_under_an_edge_is_not_down_free(self):
        # on a downward chain the edge (0, 3) covers points 1 and 2 from above
        ps = make_chain(4)
        for p in (1, 2):
            assert not is_down_free(ps, Matching(frozenset({(0, 3)}), runners=frozenset({p})))
        assert is_down_free(ps, Matching(frozenset({(0, 1)}), runners=frozenset({2, 3})))

    @pytest.mark.parametrize(
        "make",
        [lambda d=d: make_chain(7, d) for d in Direction]
        + [lambda seed=seed, n=n: _random_general_position(random.Random(seed), n)
           for seed, n in ((61, 6), (71, 7), (81, 8), (91, 9))],
        ids=[str(d) for d in Direction] + ["random-6", "random-7", "random-8", "random-9"],
    )
    def test_rho_down_free_listing_passes_the_predicates(self, make):
        ps = make()
        n = len(ps)
        listed = list(matchings(ps, MatchKind.RHO_DOWN_FREE))
        assert len(listed) == census(ps, MatchKind.RHO_DOWN_FREE).total
        assert any(m.runners for m in listed)
        assert all(is_noncrossing(ps, m) and is_down_free(ps, m) for m in listed)
        # the second route: every runner choice on every non-crossing
        # matching, one at a time, kept when the predicates accept it
        accepted = set()
        for base in matchings(ps, MatchKind.ALL):
            unmatched = base.free_points(n)
            for k in range(len(unmatched) + 1):
                for runners in combinations(unmatched, k):
                    m = Matching(base.edges, frozenset(runners))
                    if is_down_free(ps, m):
                        accepted.add(m)
        assert len(listed) == len(accepted) and set(listed) == accepted
        tally = Counter((len(m.free_points(n)), len(m.runners)) for m in accepted)
        assert census(ps, MatchKind.RHO_DOWN_FREE).by_free_and_runners == dict(tally)
        marked = Counter(len(m.runners) - 1 for m in accepted if n - 1 in m.runners)
        unmarked = Counter(len(m.runners) for m in accepted if n - 1 not in m.runners)
        dense = lambda c: [c[i] for i in range(max(c, default=0) + 1)]
        assert census_corner_split(ps) == (dense(marked), dense(unmarked))

    def test_rho_down_free_walk_has_one_leaf_per_skeleton(self):
        # each point no edge passes over is marked loose, not branched on:
        # a walk with one leaf per matching has 170,573 leaves here
        assert len(_leaf_calls(_walk, make_zigzag(12), MatchKind.RHO_DOWN_FREE)) == 20_229

    @pytest.mark.parametrize("kind", [k for k in MatchKind if k is not MatchKind.RHO_DOWN_FREE])
    def test_listing_without_loose_points_is_in_walk_order(self, kind):
        ps = make_zigzag(8, Parity.EVEN)
        tab = _tables(ps)
        leaves = _leaf_calls(_walk, ps, kind)
        assert all(runners == 0 for _, runners in leaves)
        edge_sets = [frozenset(p for k, p in enumerate(tab.pairs) if edges >> k & 1) for edges, _ in leaves]
        assert list(matchings(ps, kind)) == [Matching(e) for e in edge_sets]

    @pytest.mark.parametrize(
        "ps",
        [
            make_chain(8),
            make_chain(8, Direction.UPWARD),
            make_zigzag(9, Parity.EVEN),
            make_zigzag(8, Parity.ODD),
            make_rchain(3, 2, corners=True),
            make_rchain(2, 4, corners=False),
            double_chain(8).points,
            double_zigzag(8).points,
        ],
        ids=lambda ps: ps.label,
    )
    @pytest.mark.parametrize("kind", list(MatchKind))
    def test_listing_equals_whole_mask_decoding(self, ps, kind):
        # each leaf's edge mask decoded bit by bit, and its loose points
        # expanded subset by subset in the lister's order
        tab = _tables(ps)
        n = tab.n
        want = []
        for edges, runners in _leaf_calls(_walk, ps, kind):
            edge_set = frozenset(p for k, p in enumerate(tab.pairs) if edges >> k & 1)
            forced, loose, sub = runners & ((1 << n) - 1), runners >> n, 0
            while True:
                chosen = forced | sub
                want.append(Matching(edge_set, frozenset(i for i in range(n) if chosen >> i & 1)))
                if sub == loose:
                    break
                sub = (sub - loose) & loose
        assert list(matchings(ps, kind)) == want

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

    def test_edge_into_the_other_half_rejected(self):
        d = double_chain(6)
        across = Matching(frozenset({(min(d.upper[0], d.lower[0]), max(d.upper[0], d.lower[0]))}))
        with pytest.raises(ValueError, match="leaves its half"):
            complete_to_perfect(d, across, Matching(frozenset()))

    def test_freeness_and_crossing_differ_off_high_above(self):
        # the free upper point 2 sits above the upper edge (1, 3), and the
        # completion edge (0, 2) meets that edge's line left of point 1: the
        # lower point 0 lies above the upper chord (1, 2), off high-above
        pts = ((-10, Fraction(-1, 2)), (0, 0), (1, Fraction(1, 10)), (2, 0))
        d = DoubleSet(PointSet(pts).validate(), (1, 2, 3), (0,))
        assert not is_high_above(d.upper_set(), d.lower_set())
        # the upper half's own indices: its edge (0, 2) covers its point 1
        assert not is_down_free(d.upper_set(), Matching(frozenset({(0, 2)})))
        assert is_noncrossing(d.points, Matching(frozenset({(1, 3), (0, 2)})))
        assert complete_to_perfect(d, Matching(frozenset({(1, 3)})), Matching(frozenset())) is None

    @pytest.mark.parametrize(
        "make", [double_chain, double_zigzag, lambda n: double_zigzag(n, Parity.ODD)],
        ids=["double-chain", "double-zigzag-even", "double-zigzag-odd"],
    )
    @pytest.mark.parametrize("n", range(2, 11, 2))
    def test_union_tables_agree_with_the_halves_own(self, make, n):
        # the reference route tests freeness on each half's own point set
        d = make(n)
        up_map, low_map = halves_maps(d)
        ups, lows = d.upper_set(), d.lower_set()
        uppers = list(matchings(ups, MatchKind.ALL))
        lowers = list(matchings(lows, MatchKind.ALL))
        completed = 0
        for mp in uppers:
            free_u = [up_map[i] for i in mp.free_points(len(ups))]
            for mq in lowers:
                free_l = [low_map[i] for i in mq.free_points(len(lows))]
                if len(free_u) != len(free_l):
                    continue
                gp, gq = globalize(mp, up_map), globalize(mq, low_map)
                cross = {(min(u, l), max(u, l)) for u, l in zip(free_u, free_l)}
                m = Matching(gp.edges | gq.edges | cross)
                want = None
                if is_down_free(ups, mp) and is_up_free(lows, mq):
                    want = m if is_noncrossing(d.points, m) else None
                else:
                    # high above, the crossing test alone rejects the pair
                    assert not is_noncrossing(d.points, m)
                assert complete_to_perfect(d, gp, gq) == want
                completed += want is not None
        assert completed > 0


def test_extension_counter_respects_fixed_edges():
    ps = make_chain(6)
    fixed = Matching(frozenset({(0, 5)}))
    # edge over everything: remaining points must match under it
    assert count_perfect_extensions(ps, fixed) == catalan(2)


@pytest.mark.parametrize("ps", [make_zigzag(12), make_rchain(3, 3, corners=True), double_zigzag(12).points],
                         ids=lambda ps: ps.label)
def test_extension_counter_from_nothing_counts_perfect_matchings(ps):
    # the fold from a start with nothing fixed is the census's
    assert count_perfect_extensions(ps, Matching(frozenset())) == census(ps, MatchKind.PERFECT).total > 1


def test_extension_counter_refuses_runners():
    with pytest.raises(ValueError, match="runner-free"):
        count_perfect_extensions(make_chain(6), Matching(frozenset({(0, 1)}), frozenset({2})))


def test_extension_counter_with_crossing_fixed_edges_is_zero():
    assert count_perfect_extensions(make_chain(4), Matching(frozenset({(0, 2), (1, 3)}))) == 0


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


def _reference_walk(tab, kind, leaf, used=0, edges=0, ok_edge=None, visit=None):
    """The oracle walk without its tail memo: each state's branches walked
    afresh, in the same order.  `visit`, when given, is called with the next
    point and the edges of each state that has an unused point left."""
    n = tab.n
    free_block = tab.above if kind is MatchKind.UP_FREE else tab.below
    if kind is MatchKind.ALL:
        free_block = [0] * n
    elif kind is MatchKind.PERFECT:
        free_block = None
    runner_block = tab.above if kind is MatchKind.RHO_DOWN_FREE else None
    moves = tab.moves
    if ok_edge is not None:
        moves = [[mv for mv in row if mv[1] & ok_edge] for row in moves]

    def walk(i, used, edges, runners):
        while (used >> i) & 1:
            i += 1
        if i == n:
            leaf(edges, runners)
            return
        if visit is not None:
            visit(i, edges)
        ubit = 1 << i
        if free_block is not None and not (free_block[i] & edges):
            if runner_block is not None and not (runner_block[i] & edges):
                walk(i + 1, used, edges, runners | ubit << n)
            else:
                walk(i + 1, used, edges, runners)
        elif runner_block is not None and not (runner_block[i] & edges):
            walk(i + 1, used, edges, runners | ubit)
        for jbit, ebit, crossing in moves[i]:
            if used & jbit or crossing & edges:
                continue
            walk(i + 1, used | ubit | jbit, edges | ebit, runners)

    walk(0, used, edges, 0)


def _leaf_calls(walk, ps, kind):
    """The skeletons `walk` hands its leaf, in order, one (edges, runners)
    pair each: `_walk`'s tail calls are expanded, `_reference_walk` makes
    one call per skeleton."""
    calls = []
    if walk is _reference_walk:
        walk(_tables(ps), kind, lambda edges, runners: calls.append((edges, runners)))
    else:
        walk(_tables(ps), kind, lambda edges, runners, tail: calls.extend(
            (edges | e, runners | r) for e, r in tail))
    return calls


def _reference_shapes(tab, kind, **start):
    """_fold(tab, kind, **start) from the plain walk, one skeleton at a time:
    (edges added to the start, forced runners, loose points, last point
    loose) -> skeletons."""
    n = tab.n
    low, top, fixed = (1 << n) - 1, max(2 * n - 1, 0), start.get("edges", 0)
    tally = Counter()

    def leaf(edges, runners):
        shape = (edges ^ fixed).bit_count(), (runners & low).bit_count(), (runners >> n).bit_count(), runners >> top
        tally[shape] += 1

    _reference_walk(tab, kind, leaf, **start)
    return dict(tally)


def _fixed_start(tab, fixed, allowed=None):
    """used, edges and ok_edge as count_perfect_extensions passes them."""
    start = {
        "used": sum(1 << i for e in fixed for i in e),
        "edges": sum(1 << tab.eid[e] for e in fixed),
    }
    if allowed is not None:
        start["ok_edge"] = sum(1 << tab.eid[e] for e in allowed)
    return start


_FAMILY_SETS = [
    make_rchain(3, 3, corners=True),
    make_rchain(3, 3, corners=False),
    make_rchain(2, 5, corners=True),
    make_rchain(4, 2, corners=False),
    make_chain(11, Direction.UPWARD),
    double_chain(12).points,
    double_zigzag(12).points,
]


def _random_sets():
    rng = random.Random(2424)
    for n in [*range(11)] * 3 + [10, 10]:
        yield _random_general_position(rng, n) if n else PointSet(())


def _runner_counts(mask, n):
    """(runner count, matchings) over the expansion of one skeleton's runner
    mask: its forced runners plus any t of its b loose points, C(b, t) ways."""
    r, b = (mask & ((1 << n) - 1)).bit_count(), (mask >> n).bit_count()
    return ((r + t, comb(b, t)) for t in range(b + 1))


def _reference_counts(ps, kind):
    """census(ps, kind).by_free_and_runners and census_corner_split(ps), from
    the plain walk with each skeleton's runner mask expanded on its own."""
    tab = _tables(ps)
    n = tab.n
    last = 1 << (2 * n - 1) if n else 0
    by_free_and_runners, marked, unmarked = Counter(), Counter(), Counter()

    def leaf(edges, runners):
        for r, ways in _runner_counts(runners, n):
            by_free_and_runners[n - 2 * edges.bit_count() - r, r] += ways
        split = runners & last
        for r, ways in _runner_counts(runners ^ split, n):
            unmarked[r] += ways
            if split:
                marked[r] += ways

    _reference_walk(tab, kind, leaf)
    dense = lambda c: [c[i] for i in range(max(c, default=0) + 1)]
    return dict(by_free_and_runners), (dense(marked), dense(unmarked))


def _assert_counts_match_reference(ps, kind):
    by_free_and_runners, split = _reference_counts(ps, kind)
    got = census(ps, kind)
    assert got.by_free_and_runners == by_free_and_runners, ps.points
    assert got.total == sum(by_free_and_runners.values())
    assert sum(got.by_free.values()) == sum(got.by_runners.values()) == got.total
    if kind is MatchKind.RHO_DOWN_FREE:
        assert census_corner_split(ps) == split, ps.points


class TestTailMemo:
    """The memoized walk calls its leaf exactly as the plain walk does, and
    the counting fold tallies what the plain walk hands its leaf."""

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("kind", list(MatchKind))
    def test_zigzags(self, kind, n, parity):
        ps = make_zigzag(n, parity)
        assert _leaf_calls(_walk, ps, kind) == _leaf_calls(_reference_walk, ps, kind)

    @pytest.mark.parametrize("ps", _FAMILY_SETS, ids=lambda ps: ps.label)
    @pytest.mark.parametrize("kind", list(MatchKind))
    def test_family_sets(self, kind, ps):
        assert _leaf_calls(_walk, ps, kind) == _leaf_calls(_reference_walk, ps, kind)

    def test_random_sets(self):
        for ps in _random_sets():
            for kind in MatchKind:
                assert _leaf_calls(_walk, ps, kind) == _leaf_calls(_reference_walk, ps, kind), ps.points

    @pytest.mark.parametrize(
        "fixed,allowed",
        [
            # fixed edges right of memoized states, the same in all of them
            ({(8, 11)}, None),
            ({(2, 3), (7, 11)}, None),
            ({(0, 11)}, None),
            # one edge inside another, with the added edges restricted
            ({(4, 11), (6, 7)}, {(i, j) for i in range(12) for j in range(i + 1, 12) if (i + j) % 3}),
        ],
    )
    @pytest.mark.parametrize("kind", list(MatchKind))
    def test_fixed_starts(self, kind, fixed, allowed):
        tab = _tables(make_zigzag(12))
        start = _fixed_start(tab, fixed, allowed)
        assert _fold(tab, kind, **start) == _reference_shapes(tab, kind, **start)

    def test_cross_completion_starts(self):
        # the starts count_cross_completions makes: within-half matchings
        # fixed, only upper-lower edges allowed
        for d in (double_chain(12), double_zigzag(12)):
            up_map, low_map = halves_maps(d)
            ups, lows = d.upper_set(), d.lower_set()
            allowed = {(min(u, l), max(u, l)) for u in d.upper for l in d.lower}
            tab = _tables(d.points)
            uppers = list(matchings(ups, MatchKind.DOWN_FREE))[::7]
            lowers = list(matchings(lows, MatchKind.ALL))[::11]
            for mu, ml in zip(uppers, lowers):
                fixed = globalize(mu, up_map).edges | globalize(ml, low_map).edges
                start = _fixed_start(tab, fixed, allowed)
                for kind in (MatchKind.PERFECT, MatchKind.ALL):
                    assert _fold(tab, kind, **start) == _reference_shapes(tab, kind, **start)

    def test_tails_are_recorded_and_replayed(self, monkeypatch):
        # 561 tails recorded for 23,007 skeletons at the time of writing
        recorded = count()
        record = oracle._recorder

        def counted(*args):
            next(recorded)
            return record(*args)

        monkeypatch.setattr(oracle, "_recorder", counted)
        calls = _leaf_calls(_walk, make_zigzag(12), MatchKind.ALL)
        assert calls == _leaf_calls(_reference_walk, make_zigzag(12), MatchKind.ALL)
        assert 0 < next(recorded) < len(calls) // 20

    def test_a_memo_hit_is_one_leaf_call(self):
        sizes = []
        _walk(_tables(make_zigzag(12)), MatchKind.ALL, lambda edges, runners, tail: sizes.append(len(tail)))
        assert sum(sizes) == 23_007
        assert len(sizes) <= 23_007 // 3

    @pytest.mark.parametrize("kind", list(MatchKind))
    def test_finished_states_share_one_tail(self, kind):
        # no state of four points is memoized: one call per finished state
        tails = []
        _walk(_tables(make_zigzag(4)), kind, lambda edges, runners, tail: tails.append(tail))
        assert tails and all(tail is oracle._DONE for tail in tails)
        # twelve points: a finished state's tail or a recorded one
        tails.clear()
        _walk(_tables(make_zigzag(12)), kind, lambda edges, runners, tail: tails.append(tail))
        assert all(tail is oracle._DONE or type(tail) is list for tail in tails)

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("kind", list(MatchKind))
    def test_zigzag_counts(self, kind, n, parity):
        _assert_counts_match_reference(make_zigzag(n, parity), kind)

    @pytest.mark.parametrize("ps", _FAMILY_SETS, ids=lambda ps: ps.label)
    @pytest.mark.parametrize("kind", list(MatchKind))
    def test_family_set_counts(self, kind, ps):
        _assert_counts_match_reference(ps, kind)

    def test_random_set_counts(self):
        for ps in _random_sets():
            for kind in MatchKind:
                _assert_counts_match_reference(ps, kind)

    def test_odd_perfect_walk_takes_no_step(self):
        # each edge uses two points, so an odd count of unused points ends
        # the walk before its first step
        class Untouchable(list):
            def __getitem__(self, i):
                raise AssertionError("the walk took a step")

        for n in (3, 7, 11):
            tab = copy.copy(_tables(make_zigzag(n)))
            tab.moves = Untouchable()
            _walk(tab, MatchKind.PERFECT, lambda edges, runners, tail: pytest.fail("leaf called"))
            assert _fold(tab, MatchKind.PERFECT) == {}
        assert count_perfect_extensions(make_chain(7), Matching(frozenset({(0, 2)}))) == 0


class _ReadRows(list):
    """A table's rows that record the index of every row read."""

    def __init__(self, rows, read):
        super().__init__(rows)
        self.read = read

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


class TestCountingFold:
    """The fold behind every census: each state's key is folded once per
    call, and the counts are those of the plain walk's skeletons."""

    @pytest.mark.parametrize("ps", _FAMILY_SETS, ids=lambda ps: ps.label)
    @pytest.mark.parametrize("kind", list(MatchKind))
    def test_family_sets(self, kind, ps):
        tab = _tables(ps)
        assert _fold(tab, kind) == _reference_shapes(tab, kind)

    def test_random_sets(self):
        for ps in _random_sets():
            tab = _tables(ps)
            for kind in MatchKind:
                assert _fold(tab, kind) == _reference_shapes(tab, kind), ps.points

    def test_no_fold_outlives_its_call(self):
        tab = _tables(make_zigzag(10))
        want = {kind: _reference_shapes(tab, kind) for kind in MatchKind}
        for kind in [*MatchKind, *reversed(MatchKind)]:
            assert _fold(tab, kind) == want[kind]

    @pytest.mark.parametrize(
        "ps", [make_zigzag(12), make_rchain(3, 3, corners=True), double_zigzag(10).points], ids=lambda ps: ps.label
    )
    @pytest.mark.parametrize("kind", list(MatchKind))
    def test_each_key_is_folded_once(self, kind, ps):
        # a state's branch body reads its point's moves once; the plain walk
        # reaches most keys many times
        keys = set()
        span = _tables(ps).span
        _reference_walk(_tables(ps), kind, lambda edges, runners: None,
                        visit=lambda i, edges: keys.add((i, edges & span[i])))
        tab = copy.copy(_tables(ps))
        read = []
        tab.moves = _ReadRows(tab.moves, read)
        _fold(tab, kind)
        assert Counter(read) == Counter(i for i, _ in keys)


class TestListedMatchings:
    """The lister fills Matching's slots directly; the result behaves as one
    made by the constructor."""

    def test_listed_equals_and_hashes_like_constructed(self):
        ps = make_rchain(3, 2, corners=True)
        for kind in MatchKind:
            for m in matchings(ps, kind):
                built = Matching(frozenset(m.edges), frozenset(m.runners))
                assert type(m) is Matching
                assert m == built and hash(m) == hash(built) and repr(m) == repr(built)

    def test_fields_and_repr(self):
        assert [f.name for f in dataclasses.fields(Matching)] == ["edges", "runners"]
        assert Matching(frozenset({(0, 1)})).runners == frozenset()
        assert repr(Matching(frozenset({(0, 1)}), frozenset({2}))) == (
            "Matching(edges=frozenset({(0, 1)}), runners=frozenset({2}))"
        )

    def test_copies_survive(self):
        listed = [m for m in matchings(make_zigzag(7), MatchKind.RHO_DOWN_FREE) if m.edges and m.runners]
        m = listed[0]
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m)), dataclasses.replace(m)):
            assert type(twin) is Matching
            assert twin == m and hash(twin) == hash(m)
            assert (twin.edges, twin.runners) == (m.edges, m.runners)
        assert dataclasses.replace(m, runners=frozenset()) == Matching(m.edges)

    def test_assignment_is_refused(self):
        m = next(matchings(make_zigzag(4), MatchKind.ALL))
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.edges = frozenset()
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.runners = frozenset({0})
        # a name that is not a field: Python 3.11's frozen __setattr__ of a
        # slotted dataclass raises TypeError from its super() call here
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
            m.extra = 1
        assert not hasattr(m, "__dict__")

    def test_matchings_is_a_generator_function(self):
        # the bench tracer counts the items of a generator function as they
        # are yielded, and calls any other function once
        assert inspect.isgeneratorfunction(matchings)


@pytest.mark.parametrize("kind", list(MatchKind))
def test_calls_leave_no_garbage(kind):
    # the walk and the fold recurse through closures; a closure that calls
    # itself through its own cell is a cycle, which would hold the call's
    # memo, and a listing's whole result, until the next full collection
    sets = [make_zigzag(10), make_zigzag(11)]
    double = double_zigzag(8)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for ps in sets:
            census(ps, kind)
            listed = list(matchings(ps, kind))
            del listed
            census_corner_split(ps)
            fixed = Matching(frozenset({(0, len(ps) - 1)}))
            count_perfect_extensions(ps, fixed, allowed={(i, i + 1) for i in range(len(ps))})
        count_cross_completions(double, Matching(frozenset()))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
