"""Down-free matching counts of zigzag chains and their growth constants.

Three interleaved sequences drive everything (k >= 0):

* ``a[k]`` counts the even-kind zigzag chain with 2k+1 points,
* ``b[k]`` counts the odd-kind zigzag chain with 2k+1 points,
* ``c[k]`` counts either kind with 2k points (they are mirror images).

The recursion comes from a case split on how the leftmost point is matched;
each case strips a prefix and leaves a smaller zigzag chain of known kind.
In convolution form (empty sums vanish, a0 = b0 = c0 = 1):

    a[k] = c[k] - c[k-1]
           + sum b[i] c[k-1-i]  + sum c[i] a[k-1-i]
           + 2 sum b[i] c[k-2-i] + sum c[i] a[k-2-i] + sum b[i] c[k-3-i]
    b[k] = c[k] + sum c[i] b[k-1-i] + sum a[i] c[k-1-i] + sum c[i] b[k-2-i]
    c[k] = a[k-1] + sum c[i] c[k-1-i] + sum a[i] a[k-2-i] + sum c[i] c[k-2-i]

Counting *all* matchings instead of down-free ones changes exactly one case:
after the leftmost point is matched two steps ahead, the point between them
may stay free.  That adds c[k-1] to the a-recursion and nothing else.

The generating function C(x) of c is algebraic: it is the unique
power-series root of the quartic

    1 - (1+3x+5x^2) C + x(5+8x+8x^2+9x^3) C^2
      - 8x^2(1+x)(1+x+x^3) C^3 + 4x^3(1+x+x^3)(1+x)^2 C^4 = 0,

whose dominant singularity sits at the small root of 1 - 9x - 3x^2.  Hence
c[k] grows like (1/mu)^k with 1/mu = (9 + sqrt(93))/2, i.e. the number of
down-free matchings grows per point like sqrt((9+sqrt(93))/2) ~ 3.0532.
For all matchings the kernel becomes 1 - 9x - 6x^2 and the per-point base
is sqrt((9+sqrt(105))/2) ~ 3.1022.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Literal, get_args

from .corners import dominant_eigenvalue, extract_band
from .quadfield import QuadNumber

Kind = Literal["down-free", "all"]


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


def _extend(a: list[int], b: list[int], c: list[int], kind: Kind) -> None:
    k = len(c)
    ck = a[k - 1]
    ck += sum(c[i] * c[k - 1 - i] for i in range(k))
    ck += sum(a[i] * a[k - 2 - i] for i in range(k - 1))
    ck += sum(c[i] * c[k - 2 - i] for i in range(k - 1))
    c.append(ck)

    bk = c[k]
    bk += sum(c[i] * b[k - 1 - i] for i in range(k))
    bk += sum(a[i] * c[k - 1 - i] for i in range(k))
    bk += sum(c[i] * b[k - 2 - i] for i in range(k - 1))
    b.append(bk)

    ak = c[k] - c[k - 1]
    ak += sum(b[i] * c[k - 1 - i] for i in range(k))
    ak += sum(c[i] * a[k - 1 - i] for i in range(k))
    ak += 2 * sum(b[i] * c[k - 2 - i] for i in range(k - 1))
    ak += sum(c[i] * a[k - 2 - i] for i in range(k - 1))
    ak += sum(b[i] * c[k - 3 - i] for i in range(k - 2))
    if kind == "all":
        ak += c[k - 1]
    a.append(ak)


def zigzag_series(kmax: int, kind: Kind = "down-free") -> ZigzagSeries:
    """Sequences up to index kmax (chains up to 2*kmax+1 points)."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if kind not in get_args(Kind):
        raise ValueError(f"unknown kind {kind!r}")
    a, b, c = [1], [1], [1]
    for _ in range(kmax):
        _extend(a, b, c, kind)
    return ZigzagSeries(tuple(a), tuple(b), tuple(c), kind)


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
    assert [q[0] for q in _QUARTIC] == [1, -1, 0, 0, 0], "the quartic must read 1 - C at x = 0"
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


def growth_constant() -> tuple[QuadNumber, float]:
    """Exact growth rate of c (per index) and the per-point base: the 2-chain
    with corners' dominant eigenvalue ((9 + sqrt(93))/2) and ~3.0532."""
    rate = dominant_eigenvalue(extract_band(2).condensed)
    return rate, rate.root_float(2)


def all_matchings_growth_constant() -> tuple[QuadNumber, float]:
    """Same for counting all matchings: ((9 + sqrt(105))/2, ~3.1022)."""
    rate = QuadNumber(9, 1, 2, 105)
    return rate, rate.root_float(2)
