"""Coupled runner recursion for r-chains *with* corners.

Corners belong to two arcs, so a single count vector no longer suffices.
Cutting a down-free rho-matching just right of corner V_{k-1} splits it into
a prefix on the first k-1 arcs and a suffix on the last arc (without its
left corner).  States are classified by the rightmost corner: C-states carry
a runner on it, F-states do not:

    C[k][i] = matchings with a runner on V_k plus i further runners,
    F[k][i] = matchings with no runner on V_k and i runners,

with C[0] = F[0] = [1] and the chain's down-free count equal to F[k][0].

One step attaches a fresh arc.  Four coefficient families describe what the
arc contributes, indexed by the number alpha of runners chosen among its
r - 1 interior points (binomial factor C(r-1, alpha) throughout; the second
factor counts down-free matchings of the points that participate):

    no_corner[alpha]   neither corner of the arc takes part,
    left_in[alpha]     the left corner takes part and must be matched
                       (it absorbs a runner arriving from the left),
    right_in[alpha]    the right corner takes part as an ordinary point,
    both_in[alpha]     both corners take part, the left one matched.

The six contribution sums below (three per state class) encode which side
each runner group must match to; window sums over alpha carry the same
|i-j| <= alpha <= i+j parity constraint as the corner-free recursion.

Those index bounds only bite near the start of the vectors.  From row r on
none of them is active, so a step evaluates rows 0..r-1 (the head, width r)
from the six sums and every later row as a Toeplitz band convolution, with
the shared banded kernel of ``chains``.  The band coefficients are read once
per r by ``extract_band``, which probes the six sums themselves.  The sums
are evaluated column by column and visit only the nonzero inputs, so a unit
probe costs O(r); the tests check on random vectors, for r = 1..20, that the
kernel equals the sums on every row.

For analysis the recursion is condensed: away from small indices it is a
2x2 array over the states (C, F) of bands ``bands[x][y][beta + r]``
(response of an x-state at offset beta to a unit y-state), the layout the
banded kernel reads.  Their sums (the condensed matrix) and total jump
sizes sum_beta beta * bands[x][y][beta + r] feed the spectral machinery.
The per-point growth rate of the chain is the r-th root of the condensed
matrix's dominant eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import mul
from typing import Sequence

from .chains import _banded_step, _parity_prefix
from .quadfield import QuadNumber


@dataclass(frozen=True)
class CornerCoefficients:
    """The four per-arc coefficient families for parameter r."""

    r: int
    no_corner: tuple[int, ...]
    left_in: tuple[int, ...]
    right_in: tuple[int, ...]
    both_in: tuple[int, ...]


def corner_coefficients(r: int) -> CornerCoefficients:
    if r < 1:
        raise ValueError("r must be positive")
    no_corner, left_in, right_in, both_in = [], [], [], []
    for a in range(r):
        pick = comb(r - 1, a)
        rest = r - 1 - a
        no_corner.append(pick * comb(rest, rest // 2))
        left_in.append(pick * (comb(rest + 1, (rest + 1) // 2) - comb(rest, rest // 2)))
        right_in.append(pick * comb(rest + 1, (rest + 1) // 2))
        both_in.append(pick * (comb(rest + 2, (rest + 2) // 2) - comb(rest + 1, (rest + 1) // 2)))
    return CornerCoefficients(
        r, tuple(no_corner), tuple(left_in), tuple(right_in), tuple(both_in)
    )


def coupled_step(
    c_prev: Sequence[int],
    f_prev: Sequence[int],
    coeffs: CornerCoefficients,
    *,
    rows: int | None = None,
) -> tuple[list[int], list[int]]:
    """One arc-attachment step of the coupled recursion, exactly.

    Rows below r come from the six contribution sums (``_exact_rows``);
    from row r on every index bound of those sums is slack, so the rest is
    the stabilized band of ``extract_band(r)``, read once per r.  With
    ``rows`` only the first ``rows`` entries are computed.  Trailing
    entries that are zero in both states are dropped.
    """
    n = max(len(c_prev), len(f_prev))
    if len(c_prev) < n:
        c_prev = list(c_prev) + [0] * (n - len(c_prev))
    if len(f_prev) < n:
        f_prev = list(f_prev) + [0] * (n - len(f_prev))
    head = lambda stop: _exact_rows(c_prev, f_prev, coeffs, stop)
    c_new, f_new = _banded_step((c_prev, f_prev), _stable_bands(coeffs.r), head, rows)
    while len(c_new) > 1 and c_new[-1] == 0 and f_new[-1] == 0:
        c_new.pop()
        f_new.pop()
    return c_new, f_new


@lru_cache(maxsize=None)
def _stable_bands(r: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The bands of extract_band(r): one probe per r."""
    return extract_band(r).bands


def _exact_rows(
    c_prev: Sequence[int], f_prev: Sequence[int], coeffs: CornerCoefficients, stop: int
) -> tuple[list[int], list[int]]:
    """Rows 0..stop-1 of one step, straight from the six contribution sums.

    Both states have one length n.  The sums are taken column by column:
    each nonzero input j adds its terms to the rows i < stop with
    |i - j| <= r, so only inputs below stop + r are read and a unit probe
    costs O(r).  The small-index irregularities are nothing but the index
    bounds of the sums, so no separately tabulated corner cases exist.
    """
    r = coeffs.r
    Z, I, W, U = coeffs.no_corner, coeffs.left_in, coeffs.right_in, coeffs.both_in
    prefixes = pz, pi, pw, pu = [_parity_prefix(fam) for fam in (Z, I, W, U)]
    # window sums up to alpha = r - 1, the upper bound once i + j >= r - 1
    wz, wi, ww, wu = ([pre[q & 1][r] - pre[q & 1][q] for q in range(r)] for pre in prefixes)
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
            # |i-j| <= alpha <= min(r-1, i+j), alpha = i-j (mod 2)
            if lo < r:
                if i + j >= r - 1:
                    acc_c += wi[lo] * cp + wz[lo] * fp
                    acc_f += wu[lo] * cp + ww[lo] * fp
                else:
                    hi = i + j + 1
                    p = lo & 1
                    acc_c += (pi[p][hi] - pi[p][lo]) * cp + (pz[p][hi] - pz[p][lo]) * fp
                    acc_f += (pu[p][hi] - pu[p][lo]) * cp + (pw[p][hi] - pw[p][lo]) * fp
            c_new[i] += acc_c
            f_new[i] += acc_f
    return c_new, f_new


def coupled_series(r: int, kmax: int) -> list[tuple[list[int], list[int]]]:
    """States (C[k], F[k]) for k = 0..kmax, from C[0] = F[0] = [1]."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    coeffs = corner_coefficients(r)
    states = [([1], [1])]
    for _ in range(kmax):
        states.append(coupled_step(*states[-1], coeffs))
    return states


def chain_counts(r: int, kmax: int) -> list[int]:
    """Down-free matching counts F[k][0] of the k-arc chain, k = 0..kmax.

    Row i of a step reads no input index above i + r, so F[kmax][0] needs
    only the first r*(kmax-k) + 1 entries of step k (its light cone), and
    each step is truncated to them.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    coeffs = corner_coefficients(r)
    c_vec, f_vec = [1], [1]
    counts = [1]
    for k in range(1, kmax + 1):
        c_vec, f_vec = coupled_step(c_vec, f_vec, coeffs, rows=r * (kmax - k) + 1)
        counts.append(f_vec[0])
    return counts


# ---------------------------------------------------------------------------
# condensed system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoupledSystem:
    """Stabilized band coefficients; the condensed summaries derive from them.

    ``bands[x][y][beta + r]``, x and y over the states (C, F), is the
    response of an x-state at offset beta to a unit y-state.
    """

    r: int
    bands: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def condensed(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Band sums ((CC, CF), (FC, FF))."""
        return tuple(tuple(map(sum, row)) for row in self.bands)

    @property
    def jumps(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Total jump sizes sum_beta beta * band[beta], laid out like ``condensed``."""
        betas = range(-self.r, self.r + 1)
        return tuple(tuple(sum(map(mul, betas, band)) for band in row) for row in self.bands)

    @property
    def positive_core(self) -> bool:
        """All four bands positive at offsets -1, 0, 1, as the growth bound assumes."""
        r = self.r
        return all(band[r + beta] > 0 for row in self.bands for band in row for beta in (-1, 0, 1))


def extract_band(r: int, probe: int | None = None) -> CoupledSystem:
    """Read the stabilized band coefficients off the recursion itself.

    A unit state at a probe index deep in the stabilized region (default
    2r + 2) is pushed through one step of the six contribution sums, which
    visit only the nonzero inputs, so a probe costs O(r); the responses at
    offsets -r..r are the band coefficients.  Probing the linear map avoids
    transcribing 4(2r+1) closed forms by hand.  The band support
    |beta| <= r is verified.
    """
    coeffs = corner_coefficients(r)
    i0 = probe if probe is not None else 2 * r + 2
    if i0 < 2 * r:
        raise ValueError("probe index must sit in the stabilized region")
    unit = [0] * (i0 + 1)
    unit[i0] = 1
    zero = [0] * (i0 + 1)
    size = i0 + 1 + r
    # responses[y][x]: the x-state rows after a unit y-state
    responses = (_exact_rows(unit, zero, coeffs, size), _exact_rows(zero, unit, coeffs, size))

    def band_of(resp: list[int]) -> tuple[int, ...]:
        grab = lambda idx: resp[idx] if 0 <= idx < len(resp) else 0
        for idx, val in enumerate(resp):
            if val and abs(i0 - idx) > r:
                raise AssertionError(f"response outside bandwidth at offset {i0 - idx}")
        return tuple(grab(i0 - beta) for beta in range(-r, r + 1))

    return CoupledSystem(r, tuple(tuple(map(band_of, row)) for row in zip(*responses)))


def dominant_eigenvalue(condensed) -> QuadNumber:
    """Larger root of the characteristic polynomial of a positive 2x2 matrix."""
    (a, b), (c, e) = condensed
    disc = (a - e) * (a - e) + 4 * b * c
    return QuadNumber(a + e, 1, 2, disc)


def condensed_table(rmax: int) -> list[tuple[int, tuple, float]]:
    """(r, condensed matrix, per-point growth rate) for r = 1..rmax."""
    out = []
    for r in range(1, rmax + 1):
        sys = extract_band(r)
        rate = dominant_eigenvalue(sys.condensed).root_float(r)
        out.append((r, sys.condensed, rate))
    return out
