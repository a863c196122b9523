"""Matching counts of zigzag chains and their growth constants.

Three interleaved sequences count the zigzag chains (k >= 0):

* ``a[k]`` counts the even-kind zigzag chain with 2k+1 points,
* ``b[k]`` counts the odd-kind zigzag chain with 2k+1 points,
* ``c[k]`` counts either kind with 2k points (they are mirror images).

The even-kind zigzag chain with 2k+1 points is the 2-chain with corners of
k arcs, so all three are read off the coupled states (C[k], F[k]) of
``corners.coupled_step`` at r = 2, stepped by the light-cone driver of
``chains`` with each step cut to the rows that rows 0 and 1 of the last
state read:

    a[k] = F[k][0],   c[k] = C[k][0],   b[k] = C[k][0] + C[k][1].

The kind selects the arc tails of that recursion: central binomial tails
count down-free matchings, Motzkin tails all matchings.  The tests compare
both against an independent convolution recursion, a case split on how the
leftmost point is matched, and against the oracle.

The generating function C(x) of the down-free c is algebraic: it is the
unique power-series root of the quartic

    1 - (1+3x+5x^2) C + x(5+8x+8x^2+9x^3) C^2
      - 8x^2(1+x)(1+x+x^3) C^3 + 4x^3(1+x+x^3)(1+x)^2 C^4 = 0,

whose dominant singularity sits at the small root of 1 - 9x - 3x^2.  Hence
c[k] grows like (1/mu)^k with 1/mu = (9 + sqrt(93))/2, i.e. the number of
down-free matchings grows per point like sqrt((9+sqrt(93))/2) ~ 3.0532.
For all matchings the kernel becomes 1 - 9x - 6x^2 and the per-point base
is sqrt((9+sqrt(105))/2) ~ 3.1022.  Both constants are the dominant
eigenvalue of the r = 2 corner recursion's condensed matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .corners import Kind, _condensed_matrix, _coupled_cone, dominant_eigenvalue
from .quadfield import QuadNumber


@dataclass(frozen=True)
class ZigzagSeries:
    """Immutable snapshot of the three sequences up to a common index."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    kind: Kind = "down-free"

    @property
    def top(self) -> int:
        return len(self.c) - 1


def zigzag_series(kmax: int, kind: Kind = "down-free") -> ZigzagSeries:
    """Sequences up to index kmax (chains up to 2*kmax+1 points), read off
    the r = 2 corner recursion cut to the light cone of its two head rows."""
    a, b, c = zip(*((f[0], sum(c[:2]), c[0]) for c, f in _coupled_cone(2, kmax, 2, kind)))
    return ZigzagSeries(a, b, c, kind)


# ---------------------------------------------------------------------------
# coefficient-by-coefficient solution of the quartic (independent route to c)
# ---------------------------------------------------------------------------

# coefficient polynomials of the quartic in C, low degree first
_QUARTIC = (
    [1],
    [-1, -3, -5],
    [0, 5, 8, 8, 9],
    [0, 0, -8, -16, -8, -8, -8],
    [0, 0, 0, 4, 12, 12, 8, 8, 4],
)


def closed_form_coeffs(kmax: int) -> list[int]:
    """Coefficients of the power-series root of the quartic, by undetermined
    coefficients.  At x = 0 the quartic reads 1 - C, so its x^k coefficient
    is -c[k] plus terms in c[0..k-1] alone: each c[k] is that sum, and the
    powers C^2, C^3, C^4 grow by one coefficient per step.  The coefficients
    must equal the recursion's c-sequence."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if [q[0] for q in _QUARTIC] != [1, -1, 0, 0, 0]:
        raise AssertionError("the quartic must read 1 - C at x = 0")
    c = [1]
    powers = [c, [1], [1], [1]]  # C, C^2, C^3, C^4
    for k in range(1, kmax + 1):
        c.append(sum(q[m] * p[k - m] for q, p in zip(_QUARTIC[1:], powers)
                     for m in range(1, min(len(q), k + 1))))
        for lower, p in zip(powers, powers[1:]):
            p.append(sum(map(mul, c, reversed(lower))))
    return c


# ---------------------------------------------------------------------------
# growth constants
# ---------------------------------------------------------------------------


def growth_constant(kind: Kind = "down-free") -> tuple[QuadNumber, float]:
    """Exact growth rate of c (per index) and the per-point base: the 2-chain
    with corners' dominant eigenvalue, ((9 + sqrt(93))/2, ~3.0532) for
    down-free matchings and ((9 + sqrt(105))/2, ~3.1022) for all."""
    rate = dominant_eigenvalue(_condensed_matrix(2, kind))
    return rate, rate.root_float(2)
