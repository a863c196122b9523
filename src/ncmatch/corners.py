"""Coupled runner recursion for r-chains *with* corners.

Corners belong to two arcs, so a single count vector no longer suffices.
Cutting a down-free rho-matching just right of corner V_{k-1} splits it into
a prefix on the first k-1 arcs and a suffix on the last arc (without its
left corner).  States are classified by the rightmost corner: C-states carry
a runner on it, F-states do not:

    C[k][i] = matchings with a runner on V_k plus i further runners,
    F[k][i] = matchings with no runner on V_k and i runners,

with C[0] = F[0] = [1] and the chain's count equal to F[k][0].
``coupled_series``, ``chain_counts`` and ``zigzag.zigzag_series`` are views
of these states as the light-cone driver of ``chains`` steps them.

One step attaches a fresh arc.  Four coefficient families describe what the
arc contributes, indexed by the number alpha of runners chosen among its
r - 1 interior points: C(r-1, alpha) times arc tails (``chains._tails``) of
the m = r - 1 - alpha runner-free interior points plus the corners in use:

    no_corner[alpha]   neither corner of the arc takes part: tail(m),
    left_in[alpha]     the left corner takes part and must be matched
                       (it absorbs a runner arriving from the left):
                       tail(m + 1) - tail(m),
    right_in[alpha]    the right corner takes part as an ordinary point:
                       tail(m + 1) = no_corner + left_in,
    both_in[alpha]     both corners take part, the left one matched:
                       tail(m + 2) - tail(m + 1).

The kind of matching counted is the kind of tail.  Down-free chains read
central binomial tails, all matchings Motzkin tails; for r = 2 the two kinds
are the zigzag chain's (``zigzag``), and the tests check both against the
oracle's census of r-chains with corners.  Perfect matchings are refused:
Catalan tails make left_in negative (at r = 5 it is (-2, 8, -6, 4, -1)).

The six contribution sums below (three per state class) encode which side
each runner group must match to; window sums over alpha carry the same
|i-j| <= alpha <= i+j parity constraint as the corner-free recursion.

The jumps and their multiplicities depend on r and the kind alone, so the
recursion is keyed by (r, kind): families, window sums and the two-state
``chains.ChainOperator`` are built once per key and cached.
The index bounds only bite near the start of the vectors, and there only the
window's upper end i + j does: as in ``chains``, a cut window is the full
window from |i - j| minus its image, the full window from i + j + 2.  So a
step is the Toeplitz band applied to the states read as 0 outside their
support, minus a Hankel head block: row i < r - 2 subtracts the sum over
j < r - 2 - i of window[i + j + 2] * vec[j], with the parity windows of the
coupled families laid out ``[x][y]`` over the states like the bands.  One
step of the operator applies both.  ``extract_band`` returns the operator,
its bands summed from the families and their windows, or, with an explicit
probe, read off the six sums themselves (``_exact_rows``), the definition,
which the tests check the step and the bands against.

For analysis the recursion is condensed: away from small indices it is a
2x2 array over the states (C, F) of bands ``bands[x][y][beta + r]``
(response of an x-state at offset beta to a unit y-state).  Their sums (the
condensed matrix) and total jump sizes sum_beta beta * bands[x][y][beta + r]
feed the spectral machinery.  The per-point growth rate of the chain is the
r-th root of the condensed matrix's dominant eigenvalue.  The families are
binomial rows times tails, so the condensed matrices of r = 1..limit are
also closed forms in the binomial transform of the tails and its first two
differences (``_condensed_matrices``), one linear pass that builds no band,
which ``condensed_table`` reads.  One matrix reads four terms of the
transform by the same formula (``_condensed_matrix``): ``growth --corners``
and ``zigzag.growth_constant`` read that one, not the matrices of every
smaller r.  The certificates of ``spectral`` read the operator's own band sums,
the second route, which the tests hold equal to the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import add, mul, sub
from typing import Literal, Sequence, get_args

from .chains import ChainOperator, _binomial_transforms, _light_cone, _parity_windows, _tails
from .quadfield import QuadNumber

Kind = Literal["down-free", "all"]


@dataclass(frozen=True)
class CornerCoefficients:
    """The four per-arc coefficient families for parameter r and one kind."""

    r: int
    no_corner: tuple[int, ...]
    left_in: tuple[int, ...]
    right_in: tuple[int, ...]
    both_in: tuple[int, ...]


def corner_coefficients(r: int, kind: Kind = "down-free") -> CornerCoefficients:
    if r < 1:
        raise ValueError("r must be positive")
    if kind not in get_args(Kind):
        raise ValueError(f"unknown kind {kind!r}")
    picks = [comb(r - 1, a) for a in range(r)]
    tails = _tails(r + 2, kind)
    z, w, u = (tuple(map(mul, picks, tails[r - 1 + extra :: -1])) for extra in range(3))
    return CornerCoefficients(r, z, tuple(map(sub, w, z)), w, tuple(map(sub, u, w)))


def coupled_step(
    c_prev: Sequence[int],
    f_prev: Sequence[int],
    r: int,
    *,
    rows: int | None = None,
    kind: Kind = "down-free",
) -> tuple[list[int], list[int]]:
    """One step of the r-chain's coupled recursion, attaching an r-point arc.

    One step of ``_coupled_operator(r, kind)``, the operator that
    ``extract_band`` returns: the stabilized band on every row minus the
    image windows in the head rows i < r - 2, equal to the six contribution
    sums of ``_exact_rows`` on every row.  The states may differ in length;
    with ``rows`` only the first ``rows`` entries are computed.  Trailing
    entries that are zero in both states are dropped.
    """
    if rows is not None and rows < 0:
        raise ValueError("rows must be nonnegative")
    c_new, f_new = _coupled_operator(r, kind).step((c_prev, f_prev), rows)
    while len(c_new) > 1 and c_new[-1] == 0 and f_new[-1] == 0:
        c_new.pop()
        f_new.pop()
    return c_new, f_new


@lru_cache(maxsize=None)
def _coupled_operator(r: int, kind: Kind) -> ChainOperator:
    """extract_band(r, kind=kind), built once per (r, kind)."""
    return extract_band(r, kind=kind)


@lru_cache(maxsize=None)
def _head_tables(r: int, kind: Kind) -> tuple[tuple, tuple]:
    """The families (no_corner, left_in, right_in) of
    corner_coefficients(r, kind) and the full parity windows sum(fam[q::2]),
    q < r, laid out [x][y] over the states (C, F) like the bands: left_in
    and no_corner answer C and F inputs in C rows, both_in and right_in in
    F rows."""
    c = corner_coefficients(r, kind)
    z, i, w, u = (tuple(_parity_windows(f)) for f in (c.no_corner, c.left_in, c.right_in, c.both_in))
    return (c.no_corner, c.left_in, c.right_in), ((i, z), (u, w))


def _exact_rows(
    c_prev: Sequence[int], f_prev: Sequence[int], r: int, stop: int, kind: Kind = "down-free"
) -> tuple[list[int], list[int]]:
    """Rows 0..stop-1 of one step, straight from the six contribution sums.

    This is the definition of the step, read by ``extract_band`` when it
    is given an explicit probe and by the tests; ``coupled_step`` takes the
    banded route.

    Both states have one length n.  The sums are taken column by column:
    each nonzero input j adds its terms to the rows i < stop with
    |i - j| <= r, so only inputs below stop + r are read and a unit probe
    costs O(r).  The small-index irregularities are nothing but the index
    bounds of the sums, so no separately tabulated corner cases exist.
    """
    (Z, I, W), ((cc, cf), (fc, ff)) = _head_tables(r, kind)
    c_new = [0] * stop
    f_new = [0] * stop
    for j in range(min(len(c_prev), stop + r)):
        cp, fp = c_prev[j], f_prev[j]
        if not (cp or fp):
            continue
        for i in range(max(0, j - r), min(stop, j + r + 1)):
            if i < j:
                # the new corner's runner reaches back past the previous
                # corner: all alpha = j - 1 - i arc runners match to the left
                lo = j - i
                acc_c = 0
                acc_f = I[lo - 1] * cp + Z[lo - 1] * fp
            elif i > j:
                # a runner from the previous corner leaves the arc to the
                # right: alpha = i - 1 - j new runners join it
                lo = i - j
                acc_c = Z[lo - 1] * cp
                acc_f = W[lo - 1] * cp
            else:
                lo = acc_c = acc_f = 0
            # window-coupled terms: arc runners fuse with j existing runners,
            # |i-j| <= alpha <= min(r-1, i+j), alpha = i-j (mod 2): the full
            # window from lo minus its image, the full window from i + j + 2
            if lo < r:
                acc_c += cc[lo] * cp + cf[lo] * fp
                acc_f += fc[lo] * cp + ff[lo] * fp
                q = i + j + 2
                if q < r:
                    acc_c -= cc[q] * cp + cf[q] * fp
                    acc_f -= fc[q] * cp + ff[q] * fp
            c_new[i] += acc_c
            f_new[i] += acc_f
    return c_new, f_new


def coupled_series(r: int, kmax: int) -> list[tuple[list[int], list[int]]]:
    """States (C[k], F[k]) for k = 0..kmax, from C[0] = F[0] = [1]."""
    return list(_coupled_cone(r, kmax))


def chain_counts(r: int, kmax: int) -> list[int]:
    """Down-free matching counts F[k][0] of the k-arc chain, k = 0..kmax,
    with every step cut to the light cone of the head row."""
    return [f_vec[0] for _, f_vec in _coupled_cone(r, kmax, heads=1)]


def _coupled_cone(r: int, kmax: int, heads: int | None = None, kind: Kind = "down-free"):
    """The states (C[k], F[k]) of ``chains._light_cone`` from C[0] = F[0] =
    [1].  The operator is built before the first state, so r < 1 and an
    unknown kind are refused at the call, kmax = 0 included."""
    _coupled_operator(r, kind)
    return _light_cone(
        lambda state, rows: coupled_step(*state, r, rows=rows, kind=kind), ([1], [1]), r, kmax, heads
    )


# ---------------------------------------------------------------------------
# condensed system
# ---------------------------------------------------------------------------


def extract_band(r: int, probe: int | None = None, *, kind: Kind = "down-free") -> ChainOperator:
    """The two-state operator of the coupled recursion: its stabilized band
    coefficients and the families' parity windows of ``_head_tables``.

    Past the head rows, the six sums of ``_exact_rows`` at beta = j - i are
    the window win[|beta|] (|beta| < r) of the state pair, plus the
    one-sided families (Z, I, W = no_corner, left_in, right_in) shifted by
    one: Z[-beta - 1] in CC and W[-beta - 1] in FC at beta < 0, I[beta - 1]
    in FC and Z[beta - 1] in FF at beta > 0.  By default these four sums
    are built directly.  With an explicit ``probe`` index (at least 2r) the
    bands are read off the definition instead: a unit state there is pushed
    through ``_exact_rows``, and its responses at offsets -r..r, checked to
    vanish beyond, are the band coefficients.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if probe is None:
        (Z, I, W), windows = _head_tables(r, kind)
        zeros = (0,) * r

        def band(win, left=zeros, right=zeros):
            return tuple(map(add, (0, *win[:0:-1], *win, 0), (*left[::-1], 0, *right)))

        (cc, cf), (fc, ff) = windows
        return ChainOperator(r, ((band(cc, Z), band(cf)), (band(fc, W, I), band(ff, right=Z))), windows)
    if probe < 2 * r:
        raise ValueError("probe index must sit in the stabilized region")
    zero, unit = [0] * (probe + 1), [0] * probe + [1]
    size = probe + 1 + r
    # responses[y][x]: the x-state rows after a unit y-state
    responses = (_exact_rows(unit, zero, r, size, kind), _exact_rows(zero, unit, r, size, kind))

    def band_of(resp: list[int]) -> tuple[int, ...]:
        if any(resp[: probe - r]) or any(resp[probe + r + 1 :]):
            raise AssertionError(f"response outside bandwidth |beta| <= {r}")
        return tuple(resp[probe + r : probe - r - 1 : -1])

    bands = tuple(tuple(map(band_of, row)) for row in zip(*responses))
    return ChainOperator(r, bands, _head_tables(r, kind)[1])


def dominant_eigenvalue(condensed) -> QuadNumber:
    """Larger root of the characteristic polynomial of a positive 2x2 matrix."""
    (a, b), (c, e) = condensed
    disc = (a - e) * (a - e) + 4 * b * c
    return QuadNumber(a + e, 1, 2, disc)


def _condensed_matrices(limit: int, kind: Kind = "down-free") -> list[tuple[tuple[int, int], ...]]:
    """[extract_band(r, kind=kind).condensed for r = 1..limit] in one linear
    pass over the binomial transform a(m) = sum_j C(m, j) t(j) of the tails
    t (``chains._binomial_transforms``), with no family, window or band built.

    Take m = r - 1.  The families are Z[a] = C(m, a) t(m-a), W[a] = C(m, a)
    t(m-a+1) and U[a] = C(m, a) t(m-a+2), with left_in = W - Z and both_in =
    U - W.  In a band, family f[a] enters the parity window at the a + 1
    offsets |beta| <= a with beta = a (mod 2), so the window sums to T(f) =
    sum_a (a+1) f[a]; each shifted one-sided family adds S(f) = sum_a f[a].
    By the band layout of ``extract_band``:

        CC = T(left_in) + S(Z),   CF = T(Z),
        FC = T(both_in) + S(W) + S(left_in),   FF = T(W) + S(Z).

    The family sums of shift e are S_e(m) = sum_j C(m, j) t(j+e), the e-th
    forward difference of a, since C(m+1, j) = C(m, j) + C(m, j-1).  And
    a C(m, a) = m C(m-1, a-1) gives T_e(m) = S_e(m) + m S_e(m-1).  So

        CC = T1 - T0 + S0,   CF = T0,   FC = T2 - T1 + 2 S1 - S0,   FF = T1 + S0,

    and CF = a(m) + m a(m-1) = growth_factor(r - 1) is the split of
    ``chains._growth_factors``.  Each matrix reads a(m-1..m+2) alone
    (``_condensed_at``), so ``_condensed_matrix`` gives one r by the same
    formula.  Every step is an exact integer operation.  The band sums of
    ``extract_band`` (``ChainOperator.condensed``) stay the second route,
    which the tests compare this one against.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    a = _corner_transforms(limit + 2, kind)
    return [_condensed_at(a, m) for m in range(limit)]


def _condensed_matrix(r: int, kind: Kind = "down-free") -> tuple[tuple[int, int], ...]:
    """extract_band(r, kind=kind).condensed, the last of
    ``_condensed_matrices(r, kind)``, from a(0..r+1) alone."""
    if r < 1:
        raise ValueError("r must be positive")
    return _condensed_at(_corner_transforms(r + 2, kind), r - 1)


def _corner_transforms(stop: int, kind: Kind) -> list[int]:
    """a(m) for m < stop; perfect tails are refused, as by corner_coefficients."""
    if kind not in get_args(Kind):
        raise ValueError(f"unknown kind {kind!r}")
    return _binomial_transforms(stop, kind)


def _condensed_at(a: Sequence[int], m: int) -> tuple[tuple[int, int], ...]:
    """The condensed matrix of r = m + 1 from a(m-1..m+2): S_e(m) and
    S_e(m-1) are differences of these, and S_e(m-1) only enters times m."""
    prev = a[m - 1] if m else 0
    s0, n1, n2 = a[m : m + 3]
    s1, s2 = n1 - s0, n2 - 2 * n1 + s0
    t0 = s0 + m * prev
    t1 = s1 + m * (s0 - prev)
    t2 = s2 + m * (n1 - 2 * s0 + prev)
    return ((t1 - t0 + s0, t0), (t2 - t1 + 2 * s1 - s0, t1 + s0))


def condensed_table(rmax: int) -> list[tuple[int, tuple, float]]:
    """(r, condensed matrix, per-point growth rate) for r = 1..rmax, the
    matrices from ``_condensed_matrices``.  The rate float is a display
    value: it decides nothing."""
    rows = enumerate(_condensed_matrices(rmax), 1) if rmax >= 1 else ()
    return [(r, cond, dominant_eigenvalue(cond).root_float(r)) for r, cond in rows]
