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
   K / (epsilon * min pi); each root family's gap is affine in its index,
   so p is found in closed form.  After shifting right by s >= sqrt(p) +
   delta and clipping negatives to zero, every surviving entry is at least
   K / epsilon and the clipped pair (xbar, ybar) satisfies, componentwise,

       apply(xbar, ybar) >= (M - epsilon) * (xbar, ybar),

   which is the machine-checkable core of the exponential lower bound.
7. ``verify_certificate``: exact componentwise check of that inequality,
   with -(M - epsilon) folded into each row's own diagonal band.  Between
   consecutive clipping breakpoints each row's band sum is a quadratic in
   the index, so each stretch is decided by exact sign tests at its
   endpoints (or at the vertex when convex); every index of the support
   plus a bandwidth margin is covered without materializing the vectors,
   whose support can run to millions of entries.
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


def _value_set_neighbors(delta: QuadNumber, m: int) -> list[QuadNumber]:
    """Sorted values of the value set inside [(m-1)^2, (m+2)^2]."""
    roots = []
    for j in (m - 1, m, m + 1, m + 2):
        if j >= 0:
            roots.append(_Q(j))
        if j - delta >= 0:
            roots.append(_Q(j) - delta)
        if j + delta >= 0:
            roots.append(_Q(j) + delta)
    return sorted({rt * rt for rt in roots})


def gap_search(
    delta: QuadNumber, need: QuadNumber
) -> tuple[QuadNumber, QuadNumber, QuadNumber]:
    """Least value p of {i^2} union {(i - delta)^2}, over roots at least 1, whose
    gap to its predecessor in the sorted set is at least `need`; returns
    (p, sqrt(p), gap).

    Near an integer m >= 1 the roots are m + q for q in (delta - 1, -delta, 0,
    delta, 1 - delta).  Each root family m + o, o in {0, delta, 1 - delta},
    therefore sits a fixed step = o - max(q < o) above its predecessor, and
    its gap step * (2(m + o) - step) is affine in m: the least m per family
    is solved in closed form.  The winner's gap is re-read from the actual
    neighbourhood by ``_predecessor``, an independent check of the algebra.
    """
    if not (_Q(0) < delta < _Q(1)):
        raise ValueError("shift constant outside (0, 1) is not supported")
    offsets = (_Q(0), delta, 1 - delta)
    near = (delta - 1, -delta, *offsets)
    roots = []
    for o in offsets:
        step = o - max(q for q in near if q < o)
        m = max(1, ((need / step - 2 * o + step) / 2).ceil())
        roots.append(o + m)
    root = min(roots)
    value = root * root
    gap = value - _predecessor(delta, value, root)
    if gap < need:
        raise AssertionError("closed-form peak misses the gap requirement")
    return value, root, gap


def _predecessor(delta: QuadNumber, value: QuadNumber, root: QuadNumber) -> QuadNumber:
    below = (v for v in _value_set_neighbors(delta, root.floor()) if v < value)
    return max(below, default=_Q(0))


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

    The right-hand side is one more band term: -(M - eps) joins offset 0 of
    each row's own diagonal band (xx for row X, yy for row Y), so each row
    checks that a banded sum of the two clipped profiles is nonnegative.
    Every integer index is covered: between clipping breakpoints that sum is
    one quadratic in the index, decided by evaluations at the stretch ends
    (concave case) or around the vertex (convex case).  False is a
    legitimate outcome, not an error.
    """
    r = resc.r
    m_eps = resc.m - _Q(cert.epsilon)
    own = lambda band: band[:r] + (band[r] - m_eps,) + band[r + 1 :]
    profiles = (
        (cert.support_x, -cert.s, resc.pi[0]),
        (cert.support_y, cert.delta - cert.s, resc.pi[1]),
    )
    # i + beta enters or leaves a support at bound - beta (+ 1)
    marks = sorted({
        bound - beta + e
        for sup, _, _ in profiles
        for bound in sup
        for beta in range(-r, r + 1)
        for e in (0, 1)
    })
    segments = [(marks[0] - 1, marks[0] - 1)]
    segments += [(a, b - 1) for a, b in zip(marks, marks[1:] + [marks[-1] + 1])]
    segments.append((marks[-1] + 1, marks[-1] + 1))
    # row-major: all of row X, then row Y
    for bands in ((own(resc.xx), resc.xy), (resc.yx, own(resc.yy))):
        terms = tuple(zip(bands, profiles))
        for lo, hi in segments:
            if not _segment_ok(r, cert.p, terms, lo, hi):
                return False
    return True


def _segment_ok(r, p, terms, lo, hi) -> bool:
    """Check the row's band sum >= 0 for all integers in [lo, hi] (fixed clip pattern)."""
    s0 = s1 = s2 = _Q(0)
    for band, ((first, last), shift, scale) in terms:
        for beta, coef in enumerate(band, -r):
            if first <= lo + beta and hi + beta <= last:
                # coef * scale * (p - (i + c)^2): moments w, w c, w c^2
                w, c = coef * scale, shift + beta
                wc = w * c
                s0, s1, s2 = s0 + w, s1 + wc, s2 + wc * c
            elif not (hi + beta < first or lo + beta > last):
                raise AssertionError("segment straddles a clip boundary")
    # the sum of w (p - (i + c)^2) is q2 i^2 + q1 i + q0
    q2, q1, q0 = -s0, -2 * s1, p * s0 - s2

    def val(i: int) -> QuadNumber:
        return (q2 * i + q1) * i + q0

    if q2.sign() <= 0:
        return val(lo).sign() >= 0 and val(hi).sign() >= 0
    vertex = -q1 / (2 * q2)
    lo_v = max(lo, min(hi, vertex.floor()))
    hi_v = max(lo, min(hi, vertex.floor() + 1))
    return val(lo_v).sign() >= 0 and val(hi_v).sign() >= 0
