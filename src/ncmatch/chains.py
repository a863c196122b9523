"""Runner-count recursion for r-chains without corners.

An r-chain without corners is a row of k concave arcs of r points each.  Its
down-free matchings are built arc by arc; cutting between arcs leaves
*runners* (pending half-edges).  The count vector v_k, indexed by runner
count, satisfies v_k = A v_{k-1} where A is a symmetric band matrix of
bandwidth r determined by the single-arc counts

    arc_count(r, i) = C(r, i) * C(r - i, floor((r - i) / 2)),

the number of down-free configurations of one arc with i runners.  Joining
a part with j runners to an arc with beta runners leaves i = j + beta - 2l
runners after fusing l pairs, which pins beta to |i-j| <= beta <= i+j with
beta = i-j (mod 2); summing arc counts over that window gives the matrix
entry.  Away from the upper-left corner the diagonals stabilize and every
column sums to

    growth_factor(r) = sum_i (i+1) * arc_count(r, i),

the per-arc growth rate of v_k[0].  Equivalently v_k[0] counts weight-k
excursions of a lattice walk whose step multiplicities are the stabilized
diagonal values, which ties the growth constant to the step polynomial
P(u) = sum w_beta u^beta through its minimum P(tau), P'(tau) = 0: the band
is palindromic, so tau = 1 and the base is P(1) (``excursion_moments``).

Replacing the arc tail C(r-i, floor((r-i)/2)) by a Catalan or Motzkin number
counts perfect or arbitrary matchings, with the same column sums.  ``_tails``
defines the tails of each kind once; ``corners`` and ``doubling`` read them.
Since i C(r, i) = r C(r-1, i-1), each kind's column sum splits as
a(r) + r a(r-1), with a the binomial transform of its tails.  A derived
two-term recurrence gives a, so ``_growth_factors`` yields the factors for
r = 1..limit in one linear pass.

The left edge is data.  Row i's window stops at i + j, so entry (i, j) is
the stabilized diagonal value at offset i - j minus the one at i + j + 2,
the offset of row i from the image -j - 2 of column j: a Toeplitz band on
the vector read as 0 outside its support, minus a Hankel block.  One
value, ``ChainOperator(r, bands, windows)``, holds both, with one state
here and two (C, F) in ``corners``; its ``step`` is one banded kernel call.
``BandMatrix.apply`` stays an entry-by-entry evaluation, a second route
that the tests compare the kernel against.  One driver, ``_light_cone``,
steps this recursion and the coupled one of ``corners``: both series and
``chain_counts`` are its views, and ``runner_counts`` reads v_k off P^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat
from math import comb
from operator import add, mul, sub
from typing import Callable, Iterator, Literal, Sequence

ArcKind = Literal["down-free", "perfect", "all"]

_TAIL_TABLES: dict[str, list[int]] = {"down-free": [1, 1], "perfect": [1, 0], "all": [1, 1]}


def _tails(stop: int, kind: ArcKind) -> list[int]:
    """[tail(m) for m < stop], matchings of m runner-free arc points, tabled
    once per kind: down-free C(m, floor(m/2)), perfect Catalan(m/2) (0 for
    odd m), all Motzkin(m) by (m+2) M(m) = (2m+1) M(m-1) + 3(m-1) M(m-2)."""
    table = _TAIL_TABLES.get(kind)
    if table is None:
        raise ValueError(f"unknown kind {kind!r}")
    for m in range(len(table), stop):
        if kind == "all":
            table.append(((2 * m + 1) * table[m - 1] + 3 * (m - 1) * table[m - 2]) // (m + 2))
        elif kind == "perfect" and m % 2:
            table.append(0)
        else:
            central = comb(m, m // 2)
            table.append(central if kind == "down-free" else central // (m // 2 + 1))
    return table[:stop]


def arc_count(r: int, i: int, kind: ArcKind = "down-free") -> int:
    """Configurations of a single r-point arc with i runners."""
    tails = _tails(r + 1, kind)  # refuses an unknown kind for every i
    if i < 0 or i > r:
        return 0
    return comb(r, i) * tails[r - i]


@lru_cache(maxsize=None)
def _arc_counts_cached(r: int) -> tuple[int, ...]:
    """The down-free arc counts of one r-point arc, i = 0..r runners."""
    return tuple(arc_count(r, i) for i in range(r + 1))


def growth_factor(r: int, kind: ArcKind = "down-free") -> int:
    """Stabilized column sum of the transfer matrix: per-arc growth rate."""
    if r < 1:
        raise ValueError("r must be positive")
    return sum((i + 1) * arc_count(r, i, kind) for i in range(r + 1))


#: Per kind, (a(0), a(1)) and the linear coefficients (c, d), meaning c m + d,
#: of p0, p1, p2 in p0(m) a(m) = p1(m) a(m-1) + p2(m) a(m-2): the recurrence of
#: the binomial transform a(m) = sum_j C(m, j) tail(j) of the kind's tails.
_TRANSFORM_RECURRENCES: dict[str, tuple[tuple[int, int], tuple[tuple[int, int], ...]]] = {
    "down-free": ((1, 2), ((1, 1), (2, 2), (3, -3))),
    "all": ((1, 2), ((1, 2), (4, 2), (0, 0))),
    "perfect": ((1, 1), ((1, 2), (2, 1), (3, -3))),
}


def _growth_factors(limit: int, kind: ArcKind) -> list[int]:
    """[growth_factor(r, kind) for r = 1..limit] in one linear pass.

    Split: i C(r, i) = r C(r-1, i-1) and C(r, i) = C(r, r-i) turn the sum
    of ``growth_factor`` into growth_factor(r) = a(r) + r a(r-1), where
    a(m) = sum_j C(m, j) tail(j) is the binomial transform of the tails,
    A(x) = T(x/(1-x)) / (1-x) for their generating function T.  Each a
    obeys a two-term recurrence with linear coefficients, derived, not
    guessed (``_TRANSFORM_RECURRENCES``):

    * down-free: T(y) = sum C(j, floor(j/2)) y^j = (sqrt((1+2y)/(1-2y)) - 1)/(2y),
      from the central binomial GF 1/sqrt(1-4y^2) and its odd part, so
      S(x) = 1 + 2x A(x) = sqrt((1+x)/(1-3x)).  Then S'/S = 2/((1+x)(1-3x)),
      so (1 - 2x - 3x^2) S' = 2S.  Its coefficient of x^m, with s(m+1) =
      2 a(m) the coefficients of S, gives (m+1) a(m) = 2(m+1) a(m-1) +
      3(m-1) a(m-2), from a(0) = 1, a(1) = 2;
    * all: T = 1 + yT + y^2 T^2 (Motzkin) and T(y) = (1-x) A turn into
      A = (1 + xA)^2, the equation of (C(x) - 1)/x for the Catalan GF
      C = 1 + xC^2.  So a(m) = Catalan(m+1) and (m+2) a(m) = (4m+2) a(m-1);
    * perfect: T(y) = C(y^2), and C = 1 + y^2 C^2 turns into
      A = 1 + xA + x^2 A^2, the Motzkin equation.  So a(m) = Motzkin(m),
      by the recurrence ``_tails`` uses.

    Every a(m) is an integer, so each division is exact; a remainder means a
    wrong table entry and raises ArithmeticError.  ``growth_factor`` keeps
    the O(r) definition, the independent route.
    """
    a = _binomial_transforms(limit + 1, kind)
    return [a[r] + r * a[r - 1] for r in range(1, limit + 1)]


def _binomial_transforms(stop: int, kind: ArcKind) -> list[int]:
    """[a(m) for m < stop], a(m) = sum_j C(m, j) tail(j), by the kind's
    recurrence in ``_TRANSFORM_RECURRENCES`` (derived in ``_growth_factors``)."""
    recurrence = _TRANSFORM_RECURRENCES.get(kind)
    if recurrence is None:
        raise ValueError(f"unknown kind {kind!r}")
    (a0, a1), ((c0, d0), (c1, d1), (c2, d2)) = recurrence
    a = [a0, a1]
    for m in range(2, stop):
        value, rest = divmod((c1 * m + d1) * a[-1] + (c2 * m + d2) * a[-2], c0 * m + d0)
        if rest:
            raise ArithmeticError(f"{kind} transform recurrence is not integral at m = {m}")
        a.append(value)
    return a[:stop]


@dataclass(frozen=True)
class BandMatrix:
    """The transfer operator of the runner recursion, materializable on demand.

    ``stabilized`` drops the irregular upper-left corner: every diagonal then
    carries its stabilized value, which dominates the true matrix entrywise.
    """

    r: int
    stabilized: bool = False

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("r must be positive")

    def _window_sum(self, lo: int, hi: int) -> int:
        row = _arc_counts_cached(self.r)
        return sum(row[b] for b in range(lo, min(hi, self.r) + 1, 2))

    def entry(self, i: int, j: int) -> int:
        if i < 0 or j < 0:
            return 0
        q = abs(i - j)
        if q > self.r:
            return 0
        hi = self.r if self.stabilized else min(self.r, i + j)
        return self._window_sum(q, hi)

    def diagonal_value(self, q: int) -> int:
        """Stabilized value shared by the diagonal j - i = q."""
        return self._window_sum(abs(q), self.r)

    def dense(self, dim: int) -> list[list[int]]:
        return [[self.entry(i, j) for j in range(dim)] for i in range(dim)]

    def column_sum_stabilized(self) -> int:
        return sum(self.diagonal_value(q) for q in range(-self.r, self.r + 1))

    def apply(self, vec: Sequence[int]) -> list[int]:
        """One exact recursion step; output support grows by the bandwidth."""
        n = len(vec)
        out = []
        for i in range(n + self.r):
            acc = 0
            for j in range(max(0, i - self.r), min(n, i + self.r + 1)):
                v = vec[j]
                if v:
                    acc += self.entry(i, j) * v
            out.append(acc)
        return out


def transfer_matrix(r: int) -> BandMatrix:
    return BandMatrix(r)


def _light_cone(step: Callable, start, r: int, kmax: int, heads: int | None = None) -> Iterator:
    """Yield ``start`` and the kmax states ``step(state, rows)`` makes from it,
    one r-point arc per step.  Row i of a step reads no input above i + r, so
    the first ``heads`` rows of the last state need only the first
    r*(kmax-k) + heads rows of state k, its light cone; step k computes just
    those, or every row when ``heads`` is None."""
    if r < 1:
        raise ValueError("r must be positive")
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    state = start
    yield state
    for k in range(1, kmax + 1):
        state = step(state, None if heads is None else r * (kmax - k) + heads)
        yield state


def runner_counts(r: int, k: int) -> list[int]:
    """v_k: down-free rho-matchings of k arcs by runner count (entry 0 is the
    plain count, r*k + 1 entries), read off one power with no step.

    Ballot identity: a walk killed below 0 is a band walk less its reflection,
    so with q = p^k, p(u) = u^r P(u) = sum p_j u^j palindromic, v_k[i] =
    [u^i] P^k - [u^(i+2)] P^k = q[rk - i] - q[rk - i - 2] (q = 0 below 0).
    J.C.P. Miller: u^(m-1) of p q' = k p' q gives m p_0 q[m] = sum over
    j = 1..min(m, 2r) of ((k+1) j - m) p_j q[m-j], from q[0] = p_0^k.  q has
    integer coefficients, so the division by m p_0 is exact.  (rk + 1) 2r
    products: O(r^2 k), where k steps take O(r^2 k^2).
    """
    p = _palindromic_band(r)
    if k < 0:
        raise ValueError("kmax must be nonnegative")
    plain, scaled = p[1:], [(k + 1) * j * c for j, c in enumerate(p[1:], 1)]
    q = [p[0] ** k]
    for m in range(1, r * k + 1):
        prev = q[: -2 * r - 1 : -1]  # q[m-1], q[m-2], ..., q[max(0, m - 2r)]
        q.append((sum(map(mul, scaled, prev)) - m * sum(map(mul, plain, prev))) // (m * p[0]))
    return list(map(sub, q[::-1], [*q[-3::-1], 0, 0]))


def runner_series(r: int, kmax: int) -> list[list[int]]:
    """[v_0, ..., v_kmax] of runner_counts, in one pass of the recursion."""
    return list(_light_cone(lambda vec, rows: runner_step(vec, r), [1], r, kmax))


def runner_step(vec: Sequence[int], r: int) -> list[int]:
    """One exact step v_{k-1} -> v_k; the support grows by r.

    Row i sums the parity window |i-j| <= beta <= min(r, i+j) of the arc
    counts: the full window w[|i - j|] minus its image w[i + j + 2].  So the
    step is one step of the one-state operator ``_runner_operator(r)``.
    """
    return _runner_operator(r).step((vec,))[0]


@lru_cache(maxsize=None)
def _runner_operator(r: int) -> ChainOperator:
    """The one-state operator: the band w[|q|] at offsets -r..r, w the full
    parity windows of the arc counts, which are the image windows too."""
    if r < 1:
        raise ValueError("r must be positive")
    w = tuple(_parity_windows(_arc_counts_cached(r)))
    return ChainOperator(r, ((w[:0:-1] + w,),), ((w,),))


def _parity_windows(row: Sequence[int]) -> list[int]:
    """[sum(row[q::2]) for q < len(row)], as one suffix pass."""
    out = [*row, 0, 0]
    for q in range(len(row) - 1, -1, -1):
        out[q] += out[q + 2]
    return out[: len(row)]


@dataclass(frozen=True)
class ChainOperator:
    """The true step of a chain recursion as data, one state without
    corners and two (C, F) with them: ``bands[x][y][beta + r]`` is the
    stabilized response of an x-state at offset beta to a unit y-state, and
    ``windows[x][y]`` the image windows that the head rows subtract."""

    r: int
    bands: tuple[tuple[tuple[int, ...], ...], ...]
    windows: tuple[tuple[tuple[int, ...], ...], ...]

    def step(self, states: Sequence[Sequence[int]], rows: int | None = None) -> list[list[int]]:
        """One exact step of all states, rows 0..size-1 (``_banded_step``)."""
        return _banded_step(states, self.bands, self.windows, rows)

    @property
    def condensed(self) -> tuple[tuple[int, ...], ...]:
        """Band sums, ((CC, CF), (FC, FF)) with corners."""
        return tuple(tuple(map(sum, row)) for row in self.bands)

    @property
    def jumps(self) -> tuple[tuple[int, ...], ...]:
        """Total jump sizes sum_beta beta * band[beta], laid out like ``condensed``."""
        betas = range(-self.r, self.r + 1)
        return tuple(tuple(sum(map(mul, betas, band)) for band in row) for row in self.bands)

    @property
    def positive_core(self) -> bool:
        """All bands positive at offsets -1, 0, 1, as the growth bound assumes."""
        return all(band[self.r + q] > 0 for row in self.bands for band in row for q in (-1, 0, 1))


# Lazy map terms summed between two materializations of a chained sum: a
# coefficient group's sum of slices, and the running sum of the scaled
# groups.  A nest of some 100,000 maps overflows the C stack when it is
# finally read.
_CHAIN_DEPTH = 64


def _banded_step(vecs, bands, windows, rows: int | None = None) -> list[list[int]]:
    """Rows 0..size-1 of one exact step of a multi-state banded recursion,
    size = min(n + r, rows), n the longest input state.

    ``bands[x][y]`` holds the 2r+1 stabilized coefficients of state x's
    response to state y at offsets j - i = -r..r, and ``windows[x][y]`` the
    image windows in the same layout.  Row i of state x is the Toeplitz sum
    over y and beta of bands[x][y][beta + r] * vecs[y][i + beta], each state
    read as 0 outside [0, len), minus the Hankel head block: the dot product
    of windows[x][y][i + 2:] with vecs[y], nonzero only in the head rows
    i < len(window) - 2.

    The states are padded with zeros on both sides, so every offset reads
    one full slice.  For each output state the nonzero (state, offset) terms
    of ``bands[x]`` are grouped by coefficient, across all input states; a
    group's slices are summed first and the sum is scaled once, ``map(mul,
    part, repeat(coef))``, with no multiplication for a unit coefficient.
    So a row costs one multiplication per element for each distinct
    coefficient other than 0 and 1, not one per offset: r, not 2r - 1, for
    the palindromic one-state band.  Each group's sum and the running sum
    over the groups are lazy chains of C-level slice maps, each materialized
    every ``_CHAIN_DEPTH`` terms.  The values are exact integers, so only
    the order of additions differs from the Toeplitz sum above, never a
    result.
    """
    r = len(bands[0][0]) // 2
    n = max(map(len, vecs))
    size = n + r if rows is None else min(n + r, rows)
    padded = [[*repeat(0, r), *islice(vec, size + r), *repeat(0, size + r - len(vec))] for vec in vecs]
    outs = []
    for row in bands:
        groups: dict[int, list[tuple[list[int], int]]] = {}
        for vec, band in zip(padded, row):
            for start, coef in enumerate(band):
                if coef:
                    groups.setdefault(coef, []).append((vec, start))
        acc = None
        for depth, (coef, terms) in enumerate(groups.items(), 1):
            vec, start = terms[0]
            part = vec[start : start + size]
            for count, (vec, start) in enumerate(islice(terms, 1, None), 1):
                part = map(add, part, vec[start : start + size])
                if count % _CHAIN_DEPTH == 0:
                    part = list(part)
            if coef != 1:
                part = map(mul, part, repeat(coef))
            acc = part if acc is None else map(add, acc, part)
            if depth % _CHAIN_DEPTH == 0:
                acc = list(acc)
        outs.append([0] * size if acc is None else list(acc))
    for out, row in zip(outs, windows):
        for i in range(min(size, len(row[0]) - 2)):
            out[i] -= sum(sum(map(mul, window[i + 2 :], vec)) for window, vec in zip(row, vecs))
    return outs


# ---------------------------------------------------------------------------
# growth of excursion counts from the step polynomial
# ---------------------------------------------------------------------------


def _palindromic_band(r: int) -> tuple[int, ...]:
    """The one-state band at offsets -r..r, refused unless palindromic."""
    band = _runner_operator(r).bands[0][0]
    if band != band[::-1]:
        raise AssertionError("the stabilized band must be palindromic")
    return band


def excursion_moments(r: int) -> tuple[int, Fraction]:
    """(lambda, sigma^2) of the step polynomial P(u) = sum w_beta u^beta of
    the stabilized band, exactly.  The band is palindromic, so P'(1) = 0:
    the base lambda = P(1) is the growth factor and sigma^2 = sum beta^2
    w_beta / lambda is the variance of the weighted steps."""
    band = _palindromic_band(r)
    lam = sum(band)
    return lam, Fraction(sum(beta * beta * w for beta, w in enumerate(band, -r)), lam)


# ---------------------------------------------------------------------------
# certified argmax of the per-point growth rate
# ---------------------------------------------------------------------------


def _rate_cmp(r: int, s: int, lam_r: int, lam_s: int) -> int:
    """Exact sign of lam_r**(1/r) - lam_s**(1/s) via integer cross powers."""
    lhs, rhs = lam_r**s, lam_s**r
    return (lhs > rhs) - (lhs < rhs)


def tail_bound_certificate() -> bool:
    """Certify 3 * (r+1)**(1/r) < 3.0838 at r = 191, with exact integers.

    The down-free factors obey growth_factor(r) <= (r+1) * 3**r.  Proof: by
    the split of ``_growth_factors``, growth_factor(r) = a(r) + r a(r-1)
    with a(m) = sum_j C(m, j) C(j, floor(j/2)) <= sum_j C(m, j) 2^j = 3^m,
    so growth_factor(r) <= 3^r + r 3^(r-1) = 3^(r-1) (r+3) <= (r+1) 3^r.
    With the monotone decrease of (r+1)**(1/r), this caps the per-point
    rate of every r >= 191 below 3.0838, so the winner among r <= 190 is
    global once it beats that bound.
    """
    return 3**191 * 192 * 10 ** (4 * 191) < 30838**191


def best_arc_size(limit: int, kind: ArcKind = "down-free") -> tuple[int, float]:
    """Arg-max of growth_factor(r) ** (1/r) over r = 1..limit, certified.

    Comparisons cross-multiply integer powers (lam_r**s vs lam_s**r), never
    floats; the returned float rate is only a display value.  For the
    down-free kind, when limit reaches 190, the tail certificate is
    re-checked and the winner is certified to beat the tail bound, making
    the arg-max global.  Any other result is the arg-max over 1..limit
    only: the all kind's rates rise with r, so ``best_arc_size(200, "all")``
    returns the limit itself, (200, 3.936...).
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    factors = _growth_factors(limit, kind)
    best_r, best_lam = 1, factors[0]
    for r, lam in enumerate(factors[1:], 2):
        if _rate_cmp(r, best_r, lam, best_lam) > 0:
            best_r, best_lam = r, lam
    if limit >= 190 and kind == "down-free":
        if not tail_bound_certificate():
            raise AssertionError("tail bound certificate failed")
        # winner beats the tail bound: best_lam**(1/r) > 3.0838
        if not best_lam * 10 ** (4 * best_r) > 30838**best_r:
            raise AssertionError("winner does not dominate the tail bound")
    return best_r, float(best_lam) ** (1.0 / best_r)
