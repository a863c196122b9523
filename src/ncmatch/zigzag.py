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
from fractions import Fraction
from typing import Literal

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

    def extended(self, steps: int = 1) -> "ZigzagSeries":
        a, b, c = list(self.a), list(self.b), list(self.c)
        for _ in range(steps):
            _extend(a, b, c, self.kind)
        return ZigzagSeries(tuple(a), tuple(b), tuple(c), self.kind)


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
    a, b, c = [1], [1], [1]
    for _ in range(kmax):
        _extend(a, b, c, kind)
    return ZigzagSeries(tuple(a), tuple(b), tuple(c), kind)


# ---------------------------------------------------------------------------
# power-series solution of the quartic (independent route to the c-sequence)
# ---------------------------------------------------------------------------

# coefficient polynomials of the quartic in C, low degree first
_QUARTIC = (
    [1],
    [-1, -3, -5],
    [0, 5, 8, 8, 9],
    [0, 0, -8, -16, -8, -8, -8],
    [0, 0, 0, 4, 12, 12, 8, 8, 4],
)


def _mul(u: list[Fraction], v: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * order
    for i, ui in enumerate(u):
        if not ui or i >= order:
            continue
        for j, vj in enumerate(v):
            if i + j >= order:
                break
            if vj:
                out[i + j] += ui * vj
    return out


def _add(u, v):
    n = max(len(u), len(v))
    return [
        (u[i] if i < len(u) else 0) + (v[i] if i < len(v) else 0) for i in range(n)
    ]


def _scale(u, s):
    return [s * x for x in u]


def _inverse(u: list[Fraction], order: int) -> list[Fraction]:
    if not u or u[0] == 0:
        raise ZeroDivisionError("series has no inverse")
    inv = [Fraction(1, 1) / u[0]]
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        t = _mul(u[:prec], inv, prec)
        t = [-x for x in t]
        t[0] += 2
        inv = _mul(inv, t, prec)
    return inv


def _eval_poly_series(coeffs, series, order):
    """Evaluate sum coeffs[i](x) * series(x)**i, truncated."""
    powers = [[Fraction(1)]]
    for _ in range(len(coeffs) - 1):
        powers.append(_mul(powers[-1], series, order))
    out = [Fraction(0)] * order
    for poly, pw in zip(coeffs, powers):
        out = _add(out, _mul([Fraction(q) for q in poly], pw, order))
    return out[:order]


def quartic_residual(series: list[Fraction], order: int) -> list[Fraction]:
    """Plug a series into the defining quartic; the zero series certifies it."""
    return _eval_poly_series(_QUARTIC, series, order)


def closed_form_coeffs(kmax: int) -> list[int]:
    """Coefficients of the power-series root of the quartic, by Newton
    iteration on formal power series.  They must come out integral and equal
    the recursion's c-sequence; a non-integral coefficient means a bug."""
    order = kmax + 1
    deriv = (
        _QUARTIC[1],
        _scale(_QUARTIC[2], 2),
        _scale(_QUARTIC[3], 3),
        _scale(_QUARTIC[4], 4),
    )
    cur = [Fraction(1)]
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        f = _eval_poly_series(_QUARTIC, cur, prec)
        fp = _eval_poly_series(deriv, cur, prec)
        step = _mul(f, _inverse(fp, prec), prec)
        cur = [(cur[i] if i < len(cur) else Fraction(0)) - step[i] for i in range(prec)]
    out = []
    for q in cur[:order]:
        if q.denominator != 1:
            raise AssertionError(f"non-integral series coefficient {q}")
        out.append(q.numerator)
    return out


# ---------------------------------------------------------------------------
# growth constants
# ---------------------------------------------------------------------------


def growth_constant() -> tuple[QuadNumber, float]:
    """Exact growth rate of c (per index) and the per-point base.

    Returns ((9 + sqrt(93))/2, sqrt of its float value ~ 3.0532).
    """
    rate = QuadNumber(9, 1, 2, 93)
    return rate, rate.root_float(2)


def all_matchings_growth_constant() -> tuple[QuadNumber, float]:
    """Same for counting all matchings: ((9 + sqrt(105))/2, ~3.1022)."""
    rate = QuadNumber(9, 1, 2, 105)
    return rate, rate.root_float(2)
