"""Exact spectral analysis of the coupled recursion and growth certificates.

Pipeline, all in one quadratic field Q(sqrt(disc)):

1. ``eigen_data``: dominant eigenvalue M of the condensed 2x2 matrix with
   positive left/right eigenvectors, normalized to sum 1.
2. ``weighted_drift``: the eigenvector-weighted total jump size; zero drift
   is the hypothesis that the runner count performs an unbiased walk.
3. ``rescale``: scale the cross coefficients by the left-eigenvector ratio
   so both condensed column sums become exactly M (left eigenvector (1,1)).
4. ``shift_constant``: the horizontal offset delta between the two quadratic
   profile functions; its two defining quotients agree exactly iff the
   drift vanishes.
5. ``residual_constants``: with profiles h_X(t) = pi_X (p - t^2) and
   h_Y(t) = pi_Y (p - (t + delta)^2), the amount by which (h_X, h_Y) misses
   being an M-eigenvector of the band operator is a constant per row,
   independent of the position, the peak height p, and the shift s.
6. ``build_certificate``: pick p from the sorted value set
   {i^2} union {(i - delta)^2} whose gap to its predecessor is at least
   K / (epsilon * min pi); after shifting right by s >= sqrt(p) + delta and
   clipping negatives to zero, every surviving entry is at least K / epsilon
   and the clipped pair (xbar, ybar) satisfies, componentwise,

       apply(xbar, ybar) >= (M - epsilon) * (xbar, ybar),

   which is the machine-checkable core of the exponential lower bound.
7. ``verify_certificate``: exact componentwise check of that inequality.
   Between consecutive clipping breakpoints both sides are quadratics in the
   index, so each stretch is decided by exact sign tests at its endpoints
   (or at the vertex when convex); every index of the support plus a
   bandwidth margin is covered without materializing the vectors, whose
   support can run to millions of entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .corners import CoupledSystem, dominant_eigenvalue
from .quadfield import QuadNumber

_Q = QuadNumber.from_rational


@dataclass(frozen=True)
class EigenData:
    """Dominant eigen-data of a positive 2x2 integer matrix."""

    value: QuadNumber
    left: tuple[QuadNumber, QuadNumber]
    right: tuple[QuadNumber, QuadNumber]


def eigen_data(condensed: Sequence[Sequence[int]]) -> EigenData:
    """Exact dominant eigenvalue and sum-normalized positive eigenvectors."""
    (a, b), (c, e) = condensed
    if min(a, b, c, e) <= 0:
        raise ValueError("condensed matrix must be positive")
    m = dominant_eigenvalue(condensed)
    # unnormalized: left (c, M - a), right (b, M - a)
    tail = m - a
    left = (_Q(c) / (tail + c), tail / (tail + c))
    right = (_Q(b) / (tail + b), tail / (tail + b))
    for comp in (*left, *right):
        if comp.sign() <= 0:
            raise AssertionError("eigenvector component not positive")
    _check_eigen(condensed, m, left, right)
    return EigenData(m, left, right)


def _check_eigen(mat, m, left, right) -> None:
    (a, b), (c, e) = mat
    lx, ly = left
    rx, ry = right
    assert lx * a + ly * c == m * lx and lx * b + ly * e == m * ly
    assert rx * a + ry * b == m * rx and rx * c + ry * e == m * ry


def weighted_drift(sys: CoupledSystem, eig: Optional[EigenData] = None) -> QuadNumber:
    """Eigenvector-weighted total jump size of the coupled system."""
    if eig is None:
        eig = eigen_data(sys.condensed)
    (dxx, dxy), (dyx, dyy) = sys.jumps
    lx, ly = eig.left
    rx, ry = eig.right
    return lx * rx * dxx + lx * ry * dxy + ly * rx * dyx + ly * ry * dyy


@dataclass(frozen=True)
class RescaledSystem:
    """Coupled band coefficients rescaled to constant column sums M.

    Bands are QuadNumber tuples indexed beta = -r..r (offset by r); ``pi``
    is the sum-normalized right eigenvector of the rescaled condensed
    matrix, and the left eigenvector is (1, 1) by construction.
    """

    r: int
    xx: tuple[QuadNumber, ...]
    xy: tuple[QuadNumber, ...]
    yx: tuple[QuadNumber, ...]
    yy: tuple[QuadNumber, ...]
    m: QuadNumber
    pi: tuple[QuadNumber, QuadNumber]

    def jump(self, band: Sequence[QuadNumber]) -> QuadNumber:
        acc = _Q(0)
        for off, v in enumerate(band):
            acc = acc + v * (off - self.r)
        return acc

    def column_sums(self) -> tuple[QuadNumber, QuadNumber]:
        tot = lambda band: sum(band[1:], band[0])
        return tot(self.xx) + tot(self.yx), tot(self.xy) + tot(self.yy)


def rescale(sys: CoupledSystem, eig: Optional[EigenData] = None) -> RescaledSystem:
    """Multiply the cross bands by the left-eigenvector ratio.

    Afterwards both condensed column sums equal M exactly and the drift
    condition takes its symmetric sum-form; growth behaviour is unchanged.
    """
    if eig is None:
        eig = eigen_data(sys.condensed)
    lx, ly = eig.left
    up, down = lx / ly, ly / lx
    as_q = lambda band: tuple(_Q(v) for v in band)
    scaled = lambda band, f: tuple(_Q(v) * f for v in band)
    resc = RescaledSystem(
        r=sys.r,
        xx=as_q(sys.band_cc),
        xy=scaled(sys.band_cf, up),
        yx=scaled(sys.band_fc, down),
        yy=as_q(sys.band_ff),
        m=eig.value,
        pi=(lx * eig.right[0] / _pi_norm(eig), ly * eig.right[1] / _pi_norm(eig)),
    )
    s1, s2 = resc.column_sums()
    if not (s1 == eig.value and s2 == eig.value):
        raise AssertionError("rescaled column sums are not the eigenvalue")
    return resc


def _pi_norm(eig: EigenData) -> QuadNumber:
    return eig.left[0] * eig.right[0] + eig.left[1] * eig.right[1]


def shift_constant(resc: RescaledSystem) -> QuadNumber:
    """The relative horizontal shift of the two quadratic profiles.

    Both displayed quotients are evaluated; they agree exactly precisely
    when the weighted drift vanishes, and disagreement aborts (the
    certificate machinery is meaningless with drift).
    """
    pix, piy = resc.pi
    dxx, dxy = resc.jump(resc.xx), resc.jump(resc.xy)
    dyx, dyy = resc.jump(resc.yx), resc.jump(resc.yy)
    sum_band = lambda band: sum(band[1:], band[0])
    axy, ayy = sum_band(resc.xy), sum_band(resc.yy)
    first = (pix * dxx + piy * dxy) / (-(piy * axy))
    second = -(pix * dyx + piy * dyy) / (piy * (ayy - resc.m))
    if first != second:
        raise ValueError("nonzero drift: the two shift-constant forms disagree")
    return first


def _profile_x(resc, p, s, i) -> QuadNumber:
    t = i - s if isinstance(i, QuadNumber) else _Q(i) - s
    return resc.pi[0] * (p - t * t)


def _profile_y(resc, delta, p, s, i) -> QuadNumber:
    t = (i - s if isinstance(i, QuadNumber) else _Q(i) - s) + delta
    return resc.pi[1] * (p - t * t)


def residual_constants(
    resc: RescaledSystem,
    delta: Optional[QuadNumber] = None,
    probes: Optional[list[tuple[int, int, int]]] = None,
) -> tuple[QuadNumber, QuadNumber]:
    """Row-wise eigen-residuals of the quadratic profiles: constants.

    Evaluates  M h(i) - sum_beta band[beta] h(i + beta)  on a grid of
    (i, p, s) probes and insists on exact agreement; disagreement means the
    shift constant or eigen-data is wrong.  Returns (Q_X, Q_Y).
    """
    if delta is None:
        delta = shift_constant(resc)
    r = resc.r
    if probes is None:
        probes = [
            (i, p, s) for i in (3 * r, 3 * r + 1, 5 * r) for p in (10, 100) for s in (0, 7)
        ]
    qx = qy = None
    for i, p, s in probes:
        pq, sq = _Q(p), _Q(s)
        hx = lambda j: _profile_x(resc, pq, sq, j)
        hy = lambda j: _profile_y(resc, delta, pq, sq, j)
        acc_x = resc.m * hx(i)
        acc_y = resc.m * hy(i)
        for off in range(2 * r + 1):
            beta = off - r
            acc_x = acc_x - resc.xx[off] * hx(i + beta) - resc.xy[off] * hy(i + beta)
            acc_y = acc_y - resc.yx[off] * hx(i + beta) - resc.yy[off] * hy(i + beta)
        if qx is None:
            qx, qy = acc_x, acc_y
        elif acc_x != qx or acc_y != qy:
            raise AssertionError("profile residual is not constant across probes")
    return qx, qy


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubEigenCertificate:
    """Finitely supported nonnegative profile pair for the lower bound.

    The vectors are the clipped shifted quadratics

        xbar(i) = max(pi_x (p - (i - s)^2), 0)
        ybar(i) = max(pi_y (p - (i - s + delta)^2), 0)

    (zero for i < 0 by the choice of s); they are stored implicitly through
    (p, s, delta) because their support can run to millions of entries.
    """

    epsilon: Fraction
    p: QuadNumber
    root_p: QuadNumber
    s: QuadNumber
    delta: QuadNumber
    k_const: QuadNumber
    gap: QuadNumber
    support_x: tuple[int, int]
    support_y: tuple[int, int]

    def xbar(self, resc: RescaledSystem, i: int) -> QuadNumber:
        v = _profile_x(resc, self.p, self.s, i)
        return v if v.sign() > 0 else _Q(0)

    def ybar(self, resc: RescaledSystem, i: int) -> QuadNumber:
        v = _profile_y(resc, self.delta, self.p, self.s, i)
        return v if v.sign() > 0 else _Q(0)

    def support_width(self) -> int:
        return self.support_x[1] - self.support_x[0] + 1


def _gap_requirement(resc: RescaledSystem, epsilon: Fraction, k_const: QuadNumber) -> QuadNumber:
    pi_min = resc.pi[0] if resc.pi[0] <= resc.pi[1] else resc.pi[1]
    return k_const / (_Q(epsilon) * pi_min)


def _value_set_neighbors(delta: QuadNumber, m: int) -> list[tuple[QuadNumber, QuadNumber]]:
    """Sorted (value, sqrt) pairs of the value set inside [(m-1)^2, (m+2)^2]."""
    roots = []
    for j in (m - 1, m, m + 1, m + 2):
        if j >= 0:
            roots.append(_Q(j))
        if j - delta >= 0:
            roots.append(_Q(j) - delta)
        if j + delta >= 0:
            roots.append(_Q(j) + delta)
    vals = sorted({(rt * rt, rt) for rt in roots}, key=lambda t: t[0])
    return [(v, rt) for v, rt in vals]


def gap_search(
    delta: QuadNumber, need: QuadNumber
) -> tuple[QuadNumber, QuadNumber, QuadNumber]:
    """Smallest-ish value p of {i^2} union {(i - delta)^2} whose gap to its
    predecessor in the sorted set is at least `need`; returns (p, sqrt(p), gap).

    Because the set elements near j^2 are the squares of j, j +- delta, and
    j + 1 -+ delta, each predecessor gap is linear in j; the minimal j per
    family is solved in closed form and the winner is re-verified against
    the actual neighborhood, so the result is exact even near family ties.
    """
    if not (_Q(0) < delta < _Q(1)):
        raise ValueError("shift constant outside (0, 1) is not supported")
    # per family, the root of value(m); every root is at least m
    families = [
        lambda m: _Q(m) + delta,      # (m+delta)^2 over m^2-ish
        lambda m: _Q(m + 1) - delta,  # (m+1-delta)^2
        _Q,                           # m^2
    ]
    # Distinct roots j, j +- delta lie at least sigma apart, so the gap below
    # root**2 is at least root**2 - (root - sigma)**2 >= sigma * root: every
    # m >= need / sigma passes, which bounds the doubling.
    sigma = min(v for v in (delta, 1 - delta, abs(1 - 2 * delta)) if v.sign() > 0)
    ceiling = max(1, (need / sigma).ceil())
    best: tuple[QuadNumber, QuadNumber] | None = None
    for root_of in families:
        lo = m = 1
        # coarse doubling then linear refinement keeps this exact and O(log)
        while not _gap_ok(delta, root_of(m), need):
            if m >= ceiling:
                raise AssertionError("gap search passed its proven ceiling")
            lo, m = m, min(2 * m, ceiling)
        hi = m
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if _gap_ok(delta, root_of(mid), need):
                hi = mid
            else:
                lo = mid
        m = hi if not _gap_ok(delta, root_of(lo), need) else lo
        while m > 1 and _gap_ok(delta, root_of(m - 1), need):
            m -= 1
        root = root_of(m)
        value = root * root
        if best is None or value < best[0]:
            best = (value, root)
    assert best is not None
    value, root = best
    gap = value - _predecessor(delta, value, root)
    return value, root, gap


def _predecessor(delta: QuadNumber, value: QuadNumber, root: QuadNumber) -> QuadNumber:
    m = root.floor()
    cands = [v for v, _ in _value_set_neighbors(delta, m) if v < value]
    if not cands:
        return _Q(0)
    return max(cands)


def _gap_ok(delta: QuadNumber, root: QuadNumber, need: QuadNumber) -> bool:
    value = root * root
    return value - _predecessor(delta, value, root) >= need


def build_certificate(
    resc: RescaledSystem, epsilon: Fraction | int
) -> SubEigenCertificate:
    """Gap search, shift, and clip: the constructive side of the lower bound."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    delta = shift_constant(resc)  # refuses nonzero drift
    qx, qy = residual_constants(resc, delta)
    k_const = qx if qx >= qy else qy
    need = _gap_requirement(resc, epsilon, k_const)
    p, root_p, gap = gap_search(delta, need)
    return certificate_from_peak(resc, epsilon, p, root_p, delta, k_const, gap)


def certificate_from_peak(
    resc: RescaledSystem,
    epsilon: Fraction,
    p: QuadNumber,
    root_p: QuadNumber,
    delta: Optional[QuadNumber] = None,
    k_const: Optional[QuadNumber] = None,
    gap: Optional[QuadNumber] = None,
) -> SubEigenCertificate:
    """Certificate with an explicitly chosen peak value (negative controls)."""
    if delta is None:
        delta = shift_constant(resc)
    if k_const is None:
        qx, qy = residual_constants(resc, delta)
        k_const = qx if qx >= qy else qy
    if gap is None:
        gap = p - _predecessor(delta, p, root_p)
    s = root_p + delta  # positive entries then sit at strictly positive indices
    sup_x = _open_interval_ints(s - root_p, s + root_p)
    sup_y = _open_interval_ints(s - delta - root_p, s - delta + root_p)
    if sup_x[1] < sup_x[0] or sup_y[1] < sup_y[0]:
        raise ValueError("peak too small: a certificate needs nonzero vectors")
    return SubEigenCertificate(
        epsilon=Fraction(epsilon),
        p=p,
        root_p=root_p,
        s=s,
        delta=delta,
        k_const=k_const,
        gap=gap,
        support_x=sup_x,
        support_y=sup_y,
    )


def _open_interval_ints(lo: QuadNumber, hi: QuadNumber) -> tuple[int, int]:
    """Integers strictly inside (lo, hi) as an inclusive index range."""
    left = lo.floor() + 1
    right = hi.ceil() - 1
    return left, right


def verify_certificate(resc: RescaledSystem, cert: SubEigenCertificate) -> bool:
    """Exact componentwise check of apply >= (M - eps) * profile, both rows.

    Every integer index is covered: between clipping breakpoints each side
    is one quadratic in the index, decided by evaluations at the stretch
    ends (concave case) or around the vertex (convex case).  False is a
    legitimate outcome, not an error.
    """
    r = resc.r
    rows = (
        (resc.xx, resc.xy, True),
        (resc.yx, resc.yy, False),
    )
    m_eps = resc.m - _Q(cert.epsilon)
    for band_x, band_y, lhs_is_x in rows:
        lhs_support = cert.support_x if lhs_is_x else cert.support_y
        breaks = set()
        for off in range(2 * r + 1):
            beta = off - r
            for bound in cert.support_x:
                breaks.update((bound - beta, bound - beta + 1))
            for bound in cert.support_y:
                breaks.update((bound - beta, bound - beta + 1))
        breaks.update(lhs_support)
        breaks.update((lhs_support[0] + 1, lhs_support[1] + 1))
        marks = sorted(breaks)
        segments = [(marks[0] - 1, marks[0] - 1)]
        for a, b in zip(marks, marks[1:] + [marks[-1] + 1]):
            segments.append((a, b - 1))
        segments.append((marks[-1] + 1, marks[-1] + 1))
        for lo, hi in segments:
            if hi < lo:
                continue
            if not _segment_ok(resc, cert, band_x, band_y, lhs_is_x, m_eps, lo, hi):
                return False
    return True


def _segment_ok(resc, cert, band_x, band_y, lhs_is_x, m_eps, lo, hi) -> bool:
    """Check RHS - LHS >= 0 for all integers in [lo, hi] (fixed clip pattern)."""
    r = resc.r
    zero = _Q(0)
    q2 = q1 = q0 = zero
    pix, piy = resc.pi

    def add_profile(coef: QuadNumber, center: QuadNumber, scale: QuadNumber):
        # coef * scale * (p - (i + center)^2), accumulated into q2, q1, q0
        nonlocal q2, q1, q0
        w = coef * scale
        q2 = q2 - w
        q1 = q1 - 2 * w * center
        q0 = q0 + w * (cert.p - center * center)

    for off in range(2 * r + 1):
        beta = off - r
        if cert.support_x[0] <= lo + beta and hi + beta <= cert.support_x[1]:
            add_profile(band_x[off], _Q(beta) - cert.s, pix)
        elif not (hi + beta < cert.support_x[0] or lo + beta > cert.support_x[1]):
            raise AssertionError("segment straddles a clip boundary")
        if cert.support_y[0] <= lo + beta and hi + beta <= cert.support_y[1]:
            add_profile(band_y[off], _Q(beta) - cert.s + cert.delta, piy)
        elif not (hi + beta < cert.support_y[0] or lo + beta > cert.support_y[1]):
            raise AssertionError("segment straddles a clip boundary")
    lhs_sup = cert.support_x if lhs_is_x else cert.support_y
    if lhs_sup[0] <= lo and hi <= lhs_sup[1]:
        center = -cert.s if lhs_is_x else (-cert.s + cert.delta)
        scale = pix if lhs_is_x else piy
        # subtracting the LHS flips the sign of one profile term
        w = m_eps * scale
        q2 = q2 + w
        q1 = q1 + 2 * w * center
        q0 = q0 - w * (cert.p - center * center)
    elif not (hi < lhs_sup[0] or lo > lhs_sup[1]):
        raise AssertionError("segment straddles the profile boundary")

    def val(i: int) -> QuadNumber:
        return (q2 * i + q1) * i + q0

    if q2.sign() == 0 and q1.sign() == 0:
        return q0.sign() >= 0
    if q2.sign() <= 0:
        return val(lo).sign() >= 0 and val(hi).sign() >= 0
    vertex = -q1 / (2 * q2)
    lo_v = max(lo, min(hi, vertex.floor()))
    hi_v = max(lo, min(hi, vertex.floor() + 1))
    return val(lo_v).sign() >= 0 and val(hi_v).sign() >= 0
