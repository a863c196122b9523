"""Brute-force enumeration of non-crossing matchings on exact point sets.

This is the ground-truth engine: it never uses the counting recursions it is
meant to check.  All geometry is resolved up front, by integer determinants
once the denominators are cleared, into bitmask tables (segment crossings,
which edges block a point's vertical rays).  One backtracking sweep over the
points in x-order, using only bitmask tests, hands each matching to a leaf
fold (tally, list or count), so exactness costs nothing inside the hot loop.

Matching kinds:

* ``ALL``       every non-crossing partial matching;
* ``PERFECT``   every point matched;
* ``DOWN_FREE`` free points must see downward to infinity past all edges
  (``UP_FREE`` is the mirror notion);
* ``RHO_DOWN_FREE`` matchings that may also carry *runners*: marked
  unmatched points, each visible from above, while every remaining free
  point must be visible from below.  Runners stand for half-edges that a
  later construction step will join across a cut.

Sets are x-sorted with pairwise distinct x-coordinates and no collinear
triple, so a vertical ray never meets an edge endpoint and every test is a
strict comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import count
from math import lcm
from typing import Callable, Iterator, Optional, Sequence

from .geometry import DoubleSet, PointSet


class MatchKind(enum.Enum):
    ALL = "all"
    PERFECT = "perfect"
    DOWN_FREE = "down-free"
    UP_FREE = "up-free"
    RHO_DOWN_FREE = "rho-down-free"


#: enumeration refuses sets larger than this, per kind (exponential work)
DEFAULT_CAPS = {
    MatchKind.ALL: 18,
    MatchKind.PERFECT: 18,
    MatchKind.DOWN_FREE: 18,
    MatchKind.UP_FREE: 18,
    MatchKind.RHO_DOWN_FREE: 16,
}


class SizeCapError(ValueError):
    """Raised instead of starting an enumeration that would run away."""


@dataclass(frozen=True)
class Matching:
    """Edges (index pairs, i < j) plus runner marks over one point set."""

    edges: frozenset[tuple[int, int]]
    runners: frozenset[int] = frozenset()

    def matched_points(self) -> frozenset[int]:
        return frozenset(i for e in self.edges for i in e)

    def free_points(self, n: int) -> tuple[int, ...]:
        used = self.matched_points() | self.runners
        return tuple(i for i in range(n) if i not in used)


@dataclass(frozen=True)
class MatchingCensus:
    """Exact counts, broken down by free-point count and by runner count."""

    total: int
    by_free: dict[int, int]
    by_runners: dict[int, int]
    by_free_and_runners: dict[tuple[int, int], int]

    def runner_vector(self) -> list[int]:
        top = max(self.by_runners) if self.by_runners else 0
        return [self.by_runners.get(i, 0) for i in range(top + 1)]


# ---------------------------------------------------------------------------
# exact geometric tables
# ---------------------------------------------------------------------------


class _Tables:
    """Per-point-set boolean tables as bitmasks over edge ids."""

    __slots__ = ("n", "pairs", "eid", "cross", "below", "above", "moves")

    def __init__(self, ps: PointSet):
        pts = ps.points
        n = len(pts)
        # one common denominator keeps every orientation an integer sign
        scale = lcm(*(c.denominator for p in pts for c in p))
        xs = [x.numerator * (scale // x.denominator) for x, _ in pts]
        ys = [y.numerator * (scale // y.denominator) for _, y in pts]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        eid = {pair: k for k, pair in enumerate(pairs)}
        # left[e]: the points strictly left of (so above) the line i -> j
        left = []
        below = [0] * n  # edges that block the downward ray of point p
        above = [0] * n  # edges that block the upward ray
        for k, (i, j) in enumerate(pairs):
            dx, dy = xs[j] - xs[i], ys[j] - ys[i]
            mask = 0
            for p in range(n):
                if dx * (ys[p] - ys[i]) > dy * (xs[p] - xs[i]):
                    mask |= 1 << p
            left.append(mask)
            for p in range(i + 1, j):
                if (mask >> p) & 1:
                    below[p] |= 1 << k
                else:
                    above[p] |= 1 << k
        cross = [0] * len(pairs)
        for x, (i, j) in enumerate(pairs):
            for y in range(x + 1, len(pairs)):
                c, d = pairs[y]
                if len({i, j, c, d}) < 4:
                    continue
                # proper crossing: each segment separates the other's ends
                if (left[x] >> c ^ left[x] >> d) & 1 and (left[y] >> i ^ left[y] >> j) & 1:
                    cross[x] |= 1 << y
                    cross[y] |= 1 << x
        self.n = n
        self.pairs = pairs
        self.eid = eid
        self.cross = cross
        self.below = below
        self.above = above
        # per point i: (bit of j, bit of edge ij, edges crossing ij) for each j > i
        self.moves = [[] for _ in range(n)]
        for k, (i, j) in enumerate(pairs):
            self.moves[i].append((1 << j, 1 << k, cross[k]))


_TABLE_CACHE: dict[tuple, _Tables] = {}


def _tables(ps: PointSet) -> _Tables:
    key = ps.points
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        tab = _Tables(ps)
        if len(_TABLE_CACHE) > 64:
            _TABLE_CACHE.clear()
        _TABLE_CACHE[key] = tab
    return tab


def _check_cap(ps: PointSet, kind: MatchKind, cap: Optional[int]) -> None:
    limit = cap if cap is not None else DEFAULT_CAPS[kind]
    if len(ps) > limit:
        raise SizeCapError(
            f"{len(ps)} points exceeds the {kind.value} enumeration cap {limit}"
        )


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _walk(
    tab: _Tables,
    kind: MatchKind,
    leaf: Callable[[int, int], None],
    used: int = 0,
    edges: int = 0,
    ok_edge: Optional[int] = None,
) -> None:
    """Call ``leaf(edges, runners)``, bitmasks over edge ids and points, once
    per matching of `kind`.

    Each unused point, in x-order, is left free, made a runner, or matched to
    a later point.  `used` and `edges` fix points and edges from the start;
    `ok_edge`, when given, masks the edges that may be added.
    """
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

    def walk(i: int, used: int, edges: int, runners: int) -> None:
        while (used >> i) & 1:  # used has no bit at n or above
            i += 1
        if i == n:
            leaf(edges, runners)
            return
        ubit = 1 << i
        if free_block is not None and not (free_block[i] & edges):
            walk(i + 1, used, edges, runners)
        if runner_block is not None and not (runner_block[i] & edges):
            walk(i + 1, used, edges, runners | ubit)
        for jbit, ebit, crossing in moves[i]:
            if used & jbit or crossing & edges:
                continue
            walk(i + 1, used | ubit | jbit, edges | ebit, runners)

    walk(0, used, edges, 0)


class _Decoded(dict):
    """mask -> frozenset of names[k] over its set bits k, decoded once per mask."""

    def __init__(self, names: Sequence):
        self.names = names

    def __missing__(self, mask: int) -> frozenset:
        got = []
        rest = mask
        while rest:
            low = rest & -rest
            got.append(self.names[low.bit_length() - 1])
            rest ^= low
        self[mask] = decoded = frozenset(got)
        return decoded


def census(ps: PointSet, kind: MatchKind, cap: Optional[int] = None) -> MatchingCensus:
    """Count all matchings of the requested kind, exactly."""
    _check_cap(ps, kind, cap)
    tab = _tables(ps)
    tally: dict[tuple[int, int], int] = {}  # (edge count, runner count) -> matchings

    def leaf(edges: int, runners: int) -> None:
        key = (edges.bit_count(), runners.bit_count())
        tally[key] = tally.get(key, 0) + 1

    _walk(tab, kind, leaf)
    by_free_and_runners = {(tab.n - 2 * e - r, r): cnt for (e, r), cnt in tally.items()}
    by_free: dict[int, int] = {}
    by_runners: dict[int, int] = {}
    for (f, r), cnt in by_free_and_runners.items():
        by_free[f] = by_free.get(f, 0) + cnt
        by_runners[r] = by_runners.get(r, 0) + cnt
    return MatchingCensus(sum(tally.values()), by_free, by_runners, by_free_and_runners)


def census_runners(ps: PointSet, cap: Optional[int] = None) -> list[int]:
    """Down-free rho-matching counts indexed by runner count.

    Entry 0 equals ``census(ps, DOWN_FREE).total``; the empty set gives [1].
    """
    return census(ps, MatchKind.RHO_DOWN_FREE, cap).runner_vector()


def census_corner_split(
    ps: PointSet, cap: Optional[int] = None
) -> tuple[list[int], list[int]]:
    """Down-free rho-matchings split by a runner on the rightmost point.

    Returns (with_mark, without_mark): with_mark[i] counts matchings whose
    rightmost point carries a runner with i runners elsewhere;
    without_mark[i] counts matchings with i runners, none on that point.
    """
    _check_cap(ps, MatchKind.RHO_DOWN_FREE, cap)
    tab = _tables(ps)
    # no edge passes over the rightmost point, so its runner is never blocked
    last = 1 << (tab.n - 1) if tab.n else 0
    marked: dict[int, int] = {}
    unmarked: dict[int, int] = {}

    def leaf(edges: int, runners: int) -> None:
        i = runners.bit_count()
        if runners & last:
            marked[i - 1] = marked.get(i - 1, 0) + 1
        else:
            unmarked[i] = unmarked.get(i, 0) + 1

    _walk(tab, MatchKind.RHO_DOWN_FREE, leaf)
    dense = lambda d: [d.get(i, 0) for i in range(max(d, default=0) + 1)]
    return dense(marked), dense(unmarked)


def matchings(
    ps: PointSet, kind: MatchKind, cap: Optional[int] = None
) -> Iterator[Matching]:
    """Yield every matching of the requested kind (for sampling in tests)."""
    _check_cap(ps, kind, cap)
    tab = _tables(ps)
    edge_sets, runner_sets = _Decoded(tab.pairs), _Decoded(range(tab.n))
    found: list[Matching] = []
    _walk(tab, kind, lambda e, r: found.append(Matching(edge_sets[e], runner_sets[r])))
    yield from found


# ---------------------------------------------------------------------------
# matching predicates (exact, table-backed)
# ---------------------------------------------------------------------------


def _edge_mask(tab: _Tables, edges) -> int:
    mask = 0
    for i, j in edges:
        if i == j:
            raise ValueError("degenerate edge")
        mask |= 1 << tab.eid[(min(i, j), max(i, j))]
    return mask


def is_noncrossing(ps: PointSet, m: Matching) -> bool:
    tab = _tables(ps)
    ids = sorted(tab.eid[(min(i, j), max(i, j))] for i, j in m.edges)
    seen = 0
    for e in ids:
        if tab.cross[e] & seen:
            return False
        seen |= 1 << e
    touched = [i for e in m.edges for i in e]
    return len(touched) == len(set(touched))


def is_down_free(ps: PointSet, m: Matching) -> bool:
    """Every free point sees straight down past all edges (runners exempt)."""
    tab = _tables(ps)
    mask = _edge_mask(tab, m.edges)
    return all(not (tab.below[p] & mask) for p in m.free_points(len(ps)))


def is_up_free(ps: PointSet, m: Matching) -> bool:
    tab = _tables(ps)
    mask = _edge_mask(tab, m.edges)
    return all(not (tab.above[p] & mask) for p in m.free_points(len(ps)))


# ---------------------------------------------------------------------------
# completion to perfect matchings (the unique-extension mechanism)
# ---------------------------------------------------------------------------


def count_perfect_extensions(
    ps: PointSet,
    fixed: Matching,
    cap: Optional[int] = None,
    allowed: Optional[set[tuple[int, int]]] = None,
) -> int:
    """Number of perfect matchings of `ps` containing all edges of `fixed`.

    When `allowed` is given, only those (i, j) pairs may be added on top of
    the fixed edges.
    """
    _check_cap(ps, MatchKind.PERFECT, cap)
    if fixed.runners:
        raise ValueError("perfect extensions are defined for runner-free matchings")
    tab = _tables(ps)
    if not is_noncrossing(ps, fixed):
        return 0
    edges0 = _edge_mask(tab, fixed.edges)
    used0 = sum(1 << i for i in fixed.matched_points())
    ok_edge = None
    if allowed is not None:
        norm = {(min(i, j), max(i, j)) for i, j in allowed}
        ok_edge = sum(1 << e for e, pair in enumerate(tab.pairs) if pair in norm)

    leaves = count()  # its next value is the number of leaves so far
    _walk(tab, MatchKind.PERFECT, lambda edges, runners: next(leaves), used0, edges0, ok_edge)
    return next(leaves)


def count_cross_completions(
    double: DoubleSet, fixed: Matching, cap: Optional[int] = None
) -> int:
    """Perfect matchings of the double set extending `fixed` by cross edges only.

    This is the completion count of the unique-extension principle: the fixed
    edges are the within-half matchings, and every added edge must join the
    upper half to the lower half.
    """
    crossing = {(u, l) for u in double.upper for l in double.lower}
    return count_perfect_extensions(double.points, fixed, cap, allowed=crossing)


def complete_to_perfect(
    double: DoubleSet, m_upper: Matching, m_lower: Matching
) -> Optional[Matching]:
    """Unique perfect completion of a down-free/up-free pair on a double set.

    `m_upper` and `m_lower` use indices of the combined set and must be
    runner-free with equally many free points (unequal counts raise, which is
    distinct from the legitimate "not completable" None).  When the upper
    matching is down-free and the lower one up-free, the i-th free upper
    point is joined to the i-th free lower point, left to right; the result
    is verified non-crossing.  Any other situation returns None.
    """
    if m_upper.runners or m_lower.runners:
        raise ValueError("completion is defined for runner-free matchings")
    ups = double.upper_set()
    lows = double.lower_set()
    up_map = {g: l for l, g in enumerate(double.upper)}
    low_map = {g: l for l, g in enumerate(double.lower)}

    def localize(m: Matching, mapping) -> Matching:
        edges = []
        for i, j in m.edges:
            if i not in mapping or j not in mapping:
                raise ValueError("edge leaves its half of the double set")
            a, b = mapping[i], mapping[j]
            edges.append((min(a, b), max(a, b)))
        return Matching(frozenset(edges))

    mu = localize(m_upper, up_map)
    ml = localize(m_lower, low_map)
    free_u = [double.upper[i] for i in mu.free_points(len(ups))]
    free_l = [double.lower[i] for i in ml.free_points(len(lows))]
    if len(free_u) != len(free_l):
        raise ValueError(
            f"free-point counts differ: {len(free_u)} upper vs {len(free_l)} lower"
        )
    if not (is_down_free(ups, mu) and is_up_free(lows, ml)):
        return None
    joined = set(m_upper.edges) | set(m_lower.edges)
    for g_up, g_low in zip(free_u, free_l):
        joined.add((min(g_up, g_low), max(g_up, g_low)))
    result = Matching(frozenset(joined))
    if not is_noncrossing(double.points, result):
        return None
    return result
