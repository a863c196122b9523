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
# ... and of its derivative in C
_QUARTIC_DERIV = tuple([i * q for q in poly] for i, poly in enumerate(_QUARTIC) if i)


def _mul(u, v, order):
    """Product of two series truncated to ``order`` terms (any ring)."""
    out = [0] * order
    for i, ui in enumerate(u[:order]):
        if ui:
            for j, vj in enumerate(v[: order - i], i):
                out[j] += ui * vj
    return out


def _inverse(u: list[int], order: int) -> list[int]:
    """Series inverse of u to ``order`` terms.  Over Z it exists only when
    u[0] is 1 or -1; anything else means a bug upstream."""
    if not u or u[0] not in (1, -1):
        raise AssertionError(f"constant term {u[:1]} has no inverse in Z")
    inv = [u[0]]
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        t = [-x for x in _mul(u[:prec], inv, prec)]
        t[0] += 2
        inv = _mul(inv, t, prec)
    return inv


def _eval_poly_series(coeffs, series, order):
    """Evaluate sum coeffs[i](x) * series(x)**i, truncated (Horner)."""
    out = [0] * order
    for poly in reversed(coeffs):
        out = _mul(out, series, order)
        for i, q in enumerate(poly[:order]):
            out[i] += q
    return out


def closed_form_coeffs(kmax: int) -> list[int]:
    """Coefficients of the power-series root of the quartic, by Newton
    iteration on formal power series over the integers.  F'(C) has constant
    term -1 at C = 1, x = 0, so its inverse is integral and every step stays
    in Z[[x]].  The coefficients must equal the recursion's c-sequence."""
    order = kmax + 1
    cur = [1]
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        cur += [0] * (prec - len(cur))
        f = _eval_poly_series(_QUARTIC, cur, prec)
        fp = _eval_poly_series(_QUARTIC_DERIV, cur, prec)
        step = _mul(f, _inverse(fp, prec), prec)
        cur = [c - s for c, s in zip(cur, step)]
    return cur[:order]


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
