"""Brute-force enumeration of non-crossing matchings on exact point sets.

This is the ground-truth engine: it never uses the counting recursions it is
meant to check.  All geometry is resolved up front into bitmask tables
(segment crossings, which edges block a point's vertical rays), read off
``geometry._side_masks``, the library's one integer order-type pass, and
cached per point tuple.  A backtracking sweep over the points in x-order,
using only bitmask tests, decides each point in turn, so exactness costs
nothing inside the hot loop.  The completions of a sweep state depend only
on its next point and the edges over it.  Counting folds them: one
memoised pass per call (`_fold`) computes each such key's completion
counts once, from its children's, and every census reads the start state's
counts.  Listing walks them (`_walk`): it hands each *skeleton* to a leaf
once, in walk order, and replays the recorded completions of short tail
states in one call per visit.  A skeleton is a matching up to its *loose*
points: unmatched points that may be either free or a runner because no
edge passes over them (only ``RHO_DOWN_FREE`` has any).  The sweep marks
them instead of branching on them.  The censuses group the skeletons by
their counts, then expand b loose points into the C(b, t) matchings with t
of them runners.

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
from itertools import combinations
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


@dataclass(frozen=True, slots=True)
class Matching:
    """Edges (index pairs, i < j) plus runner marks over one point set."""

    edges: frozenset[tuple[int, int]]
    runners: frozenset[int] = frozenset()

    def matched_points(self) -> frozenset[int]:
        return frozenset(i for e in self.edges for i in e)

    def free_points(self, n: int) -> tuple[int, ...]:
        used = self.matched_points() | self.runners
        return tuple(i for i in range(n) if i not in used)


# the lister's constructor: fills the slots, past the frozen __setattr__
_new = object.__new__
_set_edges = Matching.edges.__set__
_set_runners = Matching.runners.__set__


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

_DONE = ((0, 0),)  #: the tail of a finished state: one skeleton, adding nothing


def _blocks(tab: _Tables, kind: MatchKind) -> tuple[Optional[list], Optional[list]]:
    """Per point, the edges that keep it from being left free, and from being
    a runner, under `kind`; None where the kind allows neither."""
    free_block = tab.above if kind is MatchKind.UP_FREE else tab.below
    if kind is MatchKind.ALL:
        free_block = [0] * tab.n
    elif kind is MatchKind.PERFECT:
        free_block = None
    return free_block, tab.above if kind is MatchKind.RHO_DOWN_FREE else None


def _recorder(tail: list, base: int) -> Callable[[int, int, Sequence], None]:
    """A leaf that extends `tail` by the edges each skeleton it is handed adds
    to `base`, with its runner bits.  (Made outside `_walk`: a lambda inside
    it would make `edges` a cell variable of every walk frame, about 5% slower.)"""
    add = tail.extend
    return lambda edges, runners, got: add([(edges ^ base | e, runners | r) for e, r in got])


def _walk(tab: _Tables, kind: MatchKind, leaf: Callable[[int, int, Sequence], None]) -> None:
    """Hand the skeletons of the matchings of `kind` to ``leaf(edges, runners,
    tail)`` in walk order, ``(edges | e, runners | r)`` for each ``(e, r)`` in
    `tail`: bitmasks over edge ids and points.  A finished state passes `_DONE`.
    This is the listing walk; `_fold` counts on the same states and branches.

    Each unused point, in x-order, is left free, made a runner, or matched to
    a later point.  A point that may be either free or a runner is marked
    loose instead, by bit n + i of `runners`, and the leaf expands it; bits
    below n are the runners every matching of the skeleton has.  Every edge
    over a point is added before the walk reaches it, so the choice is final
    there.

    A state's completions depend only on its key ``(i, edges & span[i])``:
    its next unused point i and the edges over it.  Every edge the walk adds
    starts left of i: one that ends left of i can neither pass over a later
    point nor cross a later edge (their x-spans are disjoint), and one that
    ends right of i passes over i, so the key also fixes ``used >> i``.  A
    state right of the middle, with a number of unused points in `_TAIL`,
    records its completions once: the first visit runs the branch body from
    the state into a `_recorder` (states nested in it replay into that);
    every visit then hands the leaf the recorded tail in one call.  So each
    skeleton reaches the leaf once, in the same order.  The memo lives for
    one call.
    """
    n = tab.n
    if kind is MatchKind.PERFECT and n & 1:
        return  # each edge uses two points: an odd count never runs out
    free_block, runner_block = _blocks(tab, kind)
    moves = tab.moves
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
            sink(edges, runners, _DONE)
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
                sink(edges, runners, tail)
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

    try:
        walk(0, n, 0, 0, 0)
    finally:
        # `walk` calls itself through this cell, a cycle that would hold the
        # memo and the leaf, with all it gathers, until a full collection
        del walk


def _fold(
    tab: _Tables,
    kind: MatchKind,
    used: int = 0,
    edges: int = 0,
    ok_edge: Optional[int] = None,
) -> dict[tuple[int, int, int, int], int]:
    """(edge count, forced runners, loose points, last point loose) -> number
    of the skeletons of `kind` that complete the start state, by the edges
    they add.  The start fixes the points `used` and the edges `edges`;
    `ok_edge`, when given, masks the edges that may be added.  A skeleton
    with b loose points stands for C(b, t) matchings with t of them runners.

    The states and branches are `_walk`'s, and a state's completions depend
    only on its key ``(i, edges & span[i])`` (see `_walk`; the fixed points,
    edges and `ok_edge` are the same in every state of the call).  So the
    completions of each key are folded once per call, bottom-up from its
    children's, and kept in the call's memo: a later visit is one lookup.
    A fold holds counts, never skeletons:

    * a runner-free state's completions differ only in edge count, so its
      fold is one int whose bits ``[e * width, (e + 1) * width)`` count the
      completions with e edges.  An added edge shifts a child's fold by
      `width`, and folds add field by field.  A completion is fixed by its
      edges (a point left unmatched has one branch), so no count exceeds
      the number of partial matchings of n points, and `width` bits hold it.
      A ``PERFECT`` completion of a state has one shape, so its fold is the
      bare count (width 0);
    * a ``RHO_DOWN_FREE`` fold is a dict from (forced runners, loose points,
      last point loose), packed with stride `s`, to such an int.
    """
    n = tab.n
    free_block, runner_block = _blocks(tab, kind)
    moves = tab.moves
    if ok_edge is not None:
        moves = [[mv for mv in row if mv[1] & ok_edge] for row in moves]
    span = tab.span
    memo: list[dict] = [{} for _ in range(n)]  # per next point: key edges -> fold
    # t(m), the partial matchings of m points: t(m + 1) = t(m) + m t(m - 1)
    t, t_below = 1, 1
    for m in range(1, n):
        t, t_below = t + m * t_below, t
    width = 0 if kind is MatchKind.PERFECT else t.bit_length()
    s = (n + 1).bit_length()
    runner, loose, last = 1, 1 << s, n - 1
    finished = {0: 1}  # the shapes of a finished state: one, adding nothing

    def count(i: int, left: int, used: int, edges: int) -> int:
        while (used >> i) & 1:
            i += 1
        if not left:
            return 1
        row = memo[i]
        key = edges & span[i]
        folded = row.get(key)
        if folded is not None:
            return folded
        ubit = 1 << i
        left -= 1
        folded = 0
        if free_block is not None and not (free_block[i] & edges):
            folded = count(i + 1, left, used, edges)
        left -= 1
        for jbit, ebit, crossing in moves[i]:
            if used & jbit or crossing & edges:
                continue
            folded += count(i + 1, left, used | ubit | jbit, edges | ebit) << width
        row[key] = folded
        return folded

    def shape(i: int, left: int, used: int, edges: int) -> dict[int, int]:
        while (used >> i) & 1:
            i += 1
        if not left:
            return finished
        row = memo[i]
        key = edges & span[i]
        folded = row.get(key)
        if folded is not None:
            return folded
        ubit = 1 << i
        left -= 1
        folded = {}
        if not (free_block[i] & edges):
            if not (runner_block[i] & edges):
                # no edge passes over the last point: unmatched, it is loose
                mark = loose | (i == last) << 2 * s
                folded = {k + mark: c for k, c in shape(i + 1, left, used, edges).items()}
            else:
                folded = shape(i + 1, left, used, edges).copy()
        elif not (runner_block[i] & edges):
            folded = {k + runner: c for k, c in shape(i + 1, left, used, edges).items()}
        left -= 1
        get = folded.get
        for jbit, ebit, crossing in moves[i]:
            if used & jbit or crossing & edges:
                continue
            for k, c in shape(i + 1, left, used | ubit | jbit, edges | ebit).items():
                folded[k] = get(k, 0) + (c << width)
        row[key] = folded
        return folded

    left = n - used.bit_count()  # unused points
    try:
        if kind is MatchKind.PERFECT:
            # each edge uses two points: an odd count never runs out
            total = 0 if left & 1 else count(0, left, used, edges)
            return {(left // 2, 0, 0, 0): total} if total else {}
        top = {0: count(0, left, used, edges)} if runner_block is None else shape(0, left, used, edges)
    finally:
        del count, shape  # each calls itself through its cell: free the memo now
    low, field = (1 << s) - 1, (1 << width) - 1
    shapes: dict[tuple[int, int, int, int], int] = {}
    for k, folded in top.items():
        e = 0
        while folded:
            if folded & field:
                shapes[e, k & low, k >> s & low, k >> 2 * s] = folded & field
            folded >>= width
            e += 1
    return shapes


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
    n = tab.n
    by_free_and_runners: dict[tuple[int, int], int] = {}
    for (e, r, b, _), cnt in _fold(tab, kind).items():
        for t in range(b + 1):
            key = (n - 2 * e - r - t, r + t)
            by_free_and_runners[key] = by_free_and_runners.get(key, 0) + comb(b, t) * cnt
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
    marked: dict[int, int] = {}
    unmarked: dict[int, int] = {}
    for (_, r, b, last), cnt in _fold(_tables(ps), MatchKind.RHO_DOWN_FREE).items():
        b -= last  # a loose last point is a runner or free, same count each
        for t in range(b + 1):
            ways = comb(b, t) * cnt
            unmarked[r + t] = unmarked.get(r + t, 0) + ways
            if last:
                marked[r + t] = marked.get(r + t, 0) + ways
    dense = lambda d: [d.get(i, 0) for i in range(max(d, default=0) + 1)]
    return dense(marked), dense(unmarked)


def matchings(
    ps: PointSet, kind: MatchKind, cap: Optional[int] = None
) -> Iterator[Matching]:
    """Yield every matching of the requested kind (for sampling in tests).

    A ``RHO_DOWN_FREE`` listing comes one skeleton at a time, every runner
    choice on its loose points together, so its order is not the order of
    a walk that branches at each loose point.  The other kinds have no loose
    point and come in walk order.  Each is built directly from its slots.
    """
    _check_cap(ps, kind, cap)
    tab = _tables(ps)
    n = tab.n
    low = (1 << n) - 1
    # a state's edge mask is decoded in two halves of the edge ids: the tables
    # of half masks stay small, where one of whole masks would miss on nearly
    # every state; the edges a tail adds repeat, so they are decoded whole
    half = len(tab.pairs) // 2
    below = (1 << half) - 1
    lower, upper = _Decoded(tab.pairs[:half]), _Decoded(tab.pairs[half:])
    added = _Decoded(tab.pairs)
    runner_sets = _Decoded(range(n))
    none = runner_sets[0]
    found: list[Matching] = []
    add = found.append

    def plain(edges: int, runners: int, tail: Sequence) -> None:  # no runners
        base = lower[edges & below] | upper[edges >> half]
        for e, _ in tail:
            m = _new(Matching)
            _set_edges(m, base | added[e])
            _set_runners(m, none)
            add(m)

    def rho(edges: int, runners: int, tail: Sequence) -> None:
        base = lower[edges & below] | upper[edges >> half]
        for e, r in tail:
            edge_set = base | added[e]
            r |= runners
            forced, loose, sub = r & low, r >> n, 0
            while True:  # every subset of the loose points, as runners
                m = _new(Matching)
                _set_edges(m, edge_set)
                _set_runners(m, runner_sets[forced | sub])
                add(m)
                if sub == loose:
                    break
                sub = (sub - loose) & loose

    _walk(tab, kind, rho if kind is MatchKind.RHO_DOWN_FREE else plain)
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
    return sum(_fold(tab, MatchKind.PERFECT, used0, edges0, ok_edge).values())


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

    On a high-above double (``geometry.is_high_above``, as every
    ``make_double`` output is) the crossing test subsumes the freeness test.
    Take a free upper point p above an upper edge ab, a < p < b, joined to
    a lower point q.  High-above puts q strictly below the line ab, so pq
    meets that line.  Inside the segment ab, pq crosses ab.  Past b, the
    line lies strictly above the upper chord pb (a lies below it), and so
    does q, on the ray from p through the meeting point; past a, q lies
    above ap.  High-above forbids both.  The mirror argument covers the
    lower half.  Other doubles can tell the tests apart, so both stay.
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
