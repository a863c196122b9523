"""Brute-force enumeration of non-crossing matchings on exact point sets.

This is the ground-truth engine: it never uses the counting recursions it is
meant to check.  All geometry is resolved up front into bitmask tables
(segment crossings, which edges block a point's vertical rays), read off
``geometry._side_masks``, the library's one integer order-type pass, and
cached per point tuple.  One backtracking sweep over the points in x-order,
using only bitmask tests, hands each *skeleton* to a leaf fold (tally, list
or count), so exactness costs nothing inside the hot loop.  Short tails of
the sweep repeat: within one call, the completions of a state with a few
unused points depend only on its next point and the edges over it, so the
sweep records them once and replays them, in the same order, at every
visit.
A skeleton is a matching up to its *loose* points: unmatched points that
may be either free or a runner because no edge passes over them (only
``RHO_DOWN_FREE`` has any).  The sweep marks them instead of branching on
them, and the fold expands a skeleton with b loose points into the C(b, t)
matchings with t of them runners.

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
from functools import lru_cache
from itertools import combinations, count
from math import comb
from typing import Callable, Iterator, Optional, Sequence

from .geometry import DoubleSet, PointSet, _side_masks


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

    __slots__ = ("n", "pairs", "eid", "cross", "below", "above", "span", "moves")

    def __init__(self, points: tuple):
        n = len(points)
        pairs = list(combinations(range(n), 2))
        eid = {pair: k for k, pair in enumerate(pairs)}
        # left[e]: the points strictly left of (so above) the line i -> j
        left, _ = _side_masks(points)
        below = [0] * n  # edges that block the downward ray of point p
        above = [0] * n  # edges that block the upward ray
        for k, (i, j) in enumerate(pairs):
            for p in range(i + 1, j):
                (below if left[k] >> p & 1 else above)[p] |= 1 << k
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
        # span[i]: the edges (a, b) with a < i < b, each over or under i
        self.span = [b | a for b, a in zip(below, above)]
        # per point i: (bit of j, bit of edge ij, edges crossing ij) for each j > i
        self.moves = [[] for _ in range(n)]
        for k, (i, j) in enumerate(pairs):
            self.moves[i].append((1 << j, 1 << k, cross[k]))


_tables_of = lru_cache(maxsize=64)(_Tables)


def _tables(ps: PointSet) -> _Tables:
    """The tables of `ps`, cached by its point tuple (the label is ignored)."""
    return _tables_of(ps.points)


def _check_cap(ps: PointSet, kind: MatchKind, cap: Optional[int]) -> None:
    limit = cap if cap is not None else DEFAULT_CAPS[kind]
    if len(ps) > limit:
        raise SizeCapError(
            f"{len(ps)} points exceeds the {kind.value} enumeration cap {limit}"
        )


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

#: unused-point counts of the walk states that replay their completions from
#: the call's memo, when their next point is right of the set's middle.  A
#: state with one or two unused points walks faster than it is looked up; one
#: with six or more, or left of the middle, repeats too seldom to pay for its
#: recording.
_TAIL = range(3, 6)


def _recorder(tail: list, base: int) -> Callable[[int, int], None]:
    """A leaf that appends to `tail` the edges each skeleton adds to `base`,
    with its runner bits.  (Made outside `_walk`: a lambda inside it would
    make `edges` a cell variable of every walk frame, about 5% slower.)"""
    add = tail.append
    return lambda edges, runners: add((edges ^ base, runners))


def _walk(
    tab: _Tables,
    kind: MatchKind,
    leaf: Callable[[int, int], None],
    used: int = 0,
    edges: int = 0,
    ok_edge: Optional[int] = None,
) -> None:
    """Call ``leaf(edges, runners)``, bitmasks over edge ids and points, once
    per skeleton of a matching of `kind`, in walk order.

    Each unused point, in x-order, is left free, made a runner, or matched to
    a later point.  A point that may be either free or a runner is marked
    loose instead, by bit n + i of `runners`, and the leaf expands it; bits
    below n are the runners every matching of the skeleton has.  Every edge
    over a point is added before the walk reaches it, so the choice is final
    there.  `used` and `edges` fix points and edges from the start;
    `ok_edge`, when given, masks the edges that may be added.

    A state whose next unused point i is right of the middle, with a number
    of unused points in `_TAIL`, is keyed by ``(i, edges & span[i])``, the
    edges over i; its completions depend on nothing else.  The fixed points,
    edges and `ok_edge` are the same in every state of the call.  Every edge
    the walk adds starts left of i: one that ends left of i can neither pass
    over a later point nor cross a later edge (their x-spans are disjoint),
    and one that ends right of i passes over i, so the key also fixes
    ``used >> i``.  The first visit runs the branch body from the state into
    a recording leaf, which keeps the edges and runner bits each completion
    adds (states nested in it replay into the recorder); every visit then
    calls the leaf once per recorded completion.  So each skeleton reaches
    the leaf once, in the same order.  The memo lives for one call.
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
    span = tab.span
    half = n // 2
    memo: dict[tuple[int, int], list[tuple[int, int]]] = {}
    busy: list = []  # the memo entry of a state while its tail is recorded
    sink = leaf  # where the walk's skeletons go: `leaf`, or a recorder

    def walk(i: int, left: int, used: int, edges: int, runners: int) -> None:
        nonlocal sink
        while (used >> i) & 1:  # used has no bit at n or above
            i += 1
        if not left:
            sink(edges, runners)
            return
        if i >= half and left in _TAIL:
            key = (i, edges & span[i])
            tail = memo.get(key)
            if tail is None:
                memo[key] = busy  # so the call below runs the branch body
                out, tail = sink, []
                sink = _recorder(tail, edges)
                walk(i, left, used, edges, 0)
                sink = out
                memo[key] = tail
            if tail is not busy:
                for e, r in tail:
                    sink(edges | e, runners | r)
                return
        ubit = 1 << i
        left -= 1
        if free_block is not None and not (free_block[i] & edges):
            if runner_block is not None and not (runner_block[i] & edges):
                walk(i + 1, left, used, edges, runners | ubit << n)  # loose
            else:
                walk(i + 1, left, used, edges, runners)
        elif runner_block is not None and not (runner_block[i] & edges):
            walk(i + 1, left, used, edges, runners | ubit)
        left -= 1
        for jbit, ebit, crossing in moves[i]:
            if used & jbit or crossing & edges:
                continue
            walk(i + 1, left, used | ubit | jbit, edges | ebit, runners)

    left = n - used.bit_count()  # unused points
    if kind is MatchKind.PERFECT and left & 1:
        return  # each edge uses two points: an odd count never runs out
    walk(0, left, used, edges, 0)


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


def _skeletons(tab: _Tables, kind: MatchKind) -> dict[tuple[int, int], int]:
    """(edge count, runner mask) -> number of walk leaves with them."""
    tally: dict[tuple[int, int], int] = {}

    def leaf(edges: int, runners: int) -> None:
        key = (edges.bit_count(), runners)
        tally[key] = tally.get(key, 0) + 1

    _walk(tab, kind, leaf)
    return tally


def _runner_counts(mask: int, n: int) -> Iterator[tuple[int, int]]:
    """(runner count, matchings) over the expansion of one skeleton's runner
    mask: its forced runners plus any t of its b loose points, C(b, t) ways."""
    r, b = (mask & ((1 << n) - 1)).bit_count(), (mask >> n).bit_count()
    return ((r + t, comb(b, t)) for t in range(b + 1))


def census(ps: PointSet, kind: MatchKind, cap: Optional[int] = None) -> MatchingCensus:
    """Count all matchings of the requested kind, exactly."""
    _check_cap(ps, kind, cap)
    tab = _tables(ps)
    n = tab.n
    by_free_and_runners: dict[tuple[int, int], int] = {}
    for (e, mask), cnt in _skeletons(tab, kind).items():
        for r, ways in _runner_counts(mask, n):
            key = (n - 2 * e - r, r)
            by_free_and_runners[key] = by_free_and_runners.get(key, 0) + ways * cnt
    by_free: dict[int, int] = {}
    by_runners: dict[int, int] = {}
    for (f, r), cnt in by_free_and_runners.items():
        by_free[f] = by_free.get(f, 0) + cnt
        by_runners[r] = by_runners.get(r, 0) + cnt
    return MatchingCensus(sum(by_free_and_runners.values()), by_free, by_runners, by_free_and_runners)


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
    n = tab.n
    # no edge passes over the rightmost point, so when unmatched it is loose:
    # its bit in a runner mask is n + (n - 1)
    last = 1 << (2 * n - 1) if n else 0
    marked: dict[int, int] = {}
    unmarked: dict[int, int] = {}
    for (_, mask), cnt in _skeletons(tab, MatchKind.RHO_DOWN_FREE).items():
        split = mask & last  # a runner there or free there, same count each
        for r, ways in _runner_counts(mask ^ split, n):
            unmarked[r] = unmarked.get(r, 0) + ways * cnt
            if split:
                marked[r] = marked.get(r, 0) + ways * cnt
    dense = lambda d: [d.get(i, 0) for i in range(max(d, default=0) + 1)]
    return dense(marked), dense(unmarked)


def matchings(
    ps: PointSet, kind: MatchKind, cap: Optional[int] = None
) -> Iterator[Matching]:
    """Yield every matching of the requested kind (for sampling in tests).

    A ``RHO_DOWN_FREE`` listing comes one skeleton at a time, every runner
    choice on its loose points together, so its order is not the order of
    a walk that branches at each loose point.  The other kinds have no loose
    point and come in walk order.
    """
    _check_cap(ps, kind, cap)
    tab = _tables(ps)
    n = tab.n
    low = (1 << n) - 1
    # an edge mask is decoded in two halves of the edge ids: the tables of
    # half masks stay small, where one of whole masks would miss on nearly
    # every matching
    half = len(tab.pairs) // 2
    below = (1 << half) - 1
    lower, upper = _Decoded(tab.pairs[:half]), _Decoded(tab.pairs[half:])
    runner_sets = _Decoded(range(n))
    found: list[Matching] = []

    def leaf(e: int, r: int) -> None:
        edges = lower[e & below] | upper[e >> half]
        if r <= low:  # no loose point
            found.append(Matching(edges, runner_sets[r]))
            return
        forced, loose, sub = r & low, r >> n, 0
        while True:  # every subset of the loose points, as runners
            found.append(Matching(edges, runner_sets[forced | sub]))
            if sub == loose:
                return
            sub = (sub - loose) & loose

    _walk(tab, kind, leaf)
    yield from found


# ---------------------------------------------------------------------------
# matching predicates (exact, table-backed)
# ---------------------------------------------------------------------------


def _edge_id(tab: _Tables, edge: tuple[int, int]) -> int:
    """Id of an edge given in either order; ValueError unless it joins two
    distinct points of the set."""
    i, j = edge
    k = tab.eid.get((min(i, j), max(i, j)))
    if k is None:
        raise ValueError(f"edge {edge} is not two distinct points among 0..{tab.n - 1}")
    return k


def _edge_mask(tab: _Tables, edges) -> int:
    mask = 0
    for e in edges:
        mask |= 1 << _edge_id(tab, e)
    return mask


def _runners(tab: _Tables, m: Matching) -> frozenset[int]:
    """The runners of `m`; ValueError unless each is a point of the set."""
    for p in m.runners:
        if not 0 <= p < tab.n:
            raise ValueError(f"runner {p} is not a point among 0..{tab.n - 1}")
    return m.runners


def is_noncrossing(ps: PointSet, m: Matching) -> bool:
    """No two edges cross and no point is used twice (as an edge end or a
    runner)."""
    tab = _tables(ps)
    ids = sorted(_edge_id(tab, e) for e in m.edges)
    runners = _runners(tab, m)
    seen = 0
    for e in ids:
        if tab.cross[e] & seen:
            return False
        seen |= 1 << e
    touched = [i for e in m.edges for i in e]
    return len(touched) == len(set(touched)) and runners.isdisjoint(touched)


def is_down_free(ps: PointSet, m: Matching) -> bool:
    """Every free point sees straight down past all edges and every runner
    straight up, as in the ``RHO_DOWN_FREE`` walk."""
    tab = _tables(ps)
    mask = _edge_mask(tab, m.edges)
    return all(not (tab.above[p] & mask) for p in _runners(tab, m)) and all(
        not (tab.below[p] & mask) for p in m.free_points(len(ps))
    )


def is_up_free(ps: PointSet, m: Matching) -> bool:
    tab = _tables(ps)
    mask = _edge_mask(tab, m.edges)
    _runners(tab, m)  # range check only: runners belong to the down-free kind
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

    The freeness tests read the union's tables: for a point p and an edge
    (a, b) of its half, "a < p < b" and "p is left of the line a -> b" hold
    in the union exactly when they hold in the half (the same points in the
    same x-order), so no table of a half is built.
    """
    if m_upper.runners or m_lower.runners:
        raise ValueError("completion is defined for runner-free matchings")
    used_u, used_l = m_upper.matched_points(), m_lower.matched_points()
    if not (used_u.issubset(double.upper) and used_l.issubset(double.lower)):
        raise ValueError("edge leaves its half of the double set")
    free_u = [g for g in double.upper if g not in used_u]
    free_l = [g for g in double.lower if g not in used_l]
    if len(free_u) != len(free_l):
        raise ValueError(
            f"free-point counts differ: {len(free_u)} upper vs {len(free_l)} lower"
        )
    tab = _tables(double.points)
    up_mask, low_mask = _edge_mask(tab, m_upper.edges), _edge_mask(tab, m_lower.edges)
    if any(tab.below[p] & up_mask for p in free_u) or any(tab.above[p] & low_mask for p in free_l):
        return None
    joined = set(m_upper.edges) | set(m_lower.edges)
    for g_up, g_low in zip(free_u, free_l):
        joined.add((min(g_up, g_low), max(g_up, g_low)))
    result = Matching(frozenset(joined))
    if not is_noncrossing(double.points, result):
        return None
    return result
