"""Exact spectral analysis of the coupled recursion and growth certificates.

Pipeline, all in one quadratic field Q(sqrt(disc)):

1. ``eigen_data``: dominant eigenvalue M of the condensed 2x2 matrix with
   positive left/right eigenvectors, normalized to sum 1.
2. ``weighted_drift``: the eigenvector-weighted total jump size; zero drift
   is the hypothesis that the runner count performs an unbiased walk.
3. ``rescale``: the similarity bands[x][y] * l_x / l_y by the left
   eigenvector l, on the 2x2 band layout ``bands[x][y]`` of
   ``CoupledSystem``, so both condensed column sums become exactly M
   (left eigenvector (1,1)).
4. ``shift_constant``: the horizontal offset delta between the two quadratic
   profiles.  A band meets a profile only through its moments s0, s1, s2
   (``_add_moments``): a row's band sum at i is p s0 - s0 i^2 - 2 s1 i - s2.
   Each row's s1 is affine in delta; the two roots agree iff no drift.
5. ``residual_constants``: with profiles h_X(t) = pi_X (p - t^2) and
   h_Y(t) = pi_Y (p - (t + delta)^2), the amount by which (h_X, h_Y) misses
   being an M-eigenvector of the band operator is a constant per row,
   independent of the position, the peak height p, and the shift s
   (s0 = s1 = 0 exactly, with -M folded in); the constant is s2.
6. ``build_certificate``: pick p from the sorted value set
   {i^2} union {(i - delta)^2} whose gap to its predecessor is at least
   K / (epsilon * min pi); each root family's gap is affine in its index,
   so p is found in closed form.  After shifting right by s >= sqrt(p) +
   delta and clipping negatives to zero, every surviving entry is at least
   K / epsilon and the clipped pair (xbar, ybar) satisfies, componentwise,

       apply(xbar, ybar) >= (M - epsilon) * (xbar, ybar),

   which is the machine-checkable core of the exponential lower bound.
7. ``verify_certificate``: exact componentwise check of that inequality,
   with -(M - epsilon) folded into each row's own band.  Between
   consecutive clipping breakpoints each row's band sum is the quadratic of
   the moments of the offsets inside the supports, decided by exact sign
   tests at its endpoints (or at the vertex when convex); every index of the
   support plus a bandwidth margin is covered without materializing the
   vectors, whose support can run to millions of entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .corners import CoupledSystem, dominant_eigenvalue
from .quadfield import QuadNumber

_Q = QuadNumber.from_rational
_NO_MOMENTS = (_Q(0),) * 3


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
    terms = (lx * ry * d for lx, row in zip(eig.left, sys.jumps) for ry, d in zip(eig.right, row))
    return sum(terms, _Q(0))


@dataclass(frozen=True)
class RescaledSystem:
    """Coupled band coefficients rescaled to constant column sums M.

    ``bands[x][y]`` is the QuadNumber band of ``CoupledSystem.bands[x][y]``
    times l_x / l_y, indexed beta = -r..r (offset by r); ``pi`` is the
    sum-normalized right eigenvector of the rescaled condensed matrix, and
    the left eigenvector is (1, 1) by construction.
    """

    r: int
    bands: tuple[tuple[tuple[QuadNumber, ...], ...], ...]
    m: QuadNumber
    pi: tuple[QuadNumber, QuadNumber]

    def column_sums(self) -> tuple[QuadNumber, ...]:
        return tuple(sum((v for band in col for v in band), _Q(0)) for col in zip(*self.bands))


def rescale(sys: CoupledSystem, eig: Optional[EigenData] = None) -> RescaledSystem:
    """The similarity bands[x][y] * l_x / l_y by the left eigenvector l.

    Each cross ratio is computed once and the diagonal bands stay unscaled.
    Afterwards both condensed column sums equal M exactly and the drift
    condition takes its symmetric sum-form; growth behaviour is unchanged.
    """
    if eig is None:
        eig = eigen_data(sys.condensed)
    left = eig.left
    bands = [[tuple(map(_Q, band)) for band in row] for row in sys.bands]
    for x, y in ((0, 1), (1, 0)):
        ratio = left[x] / left[y]
        bands[x][y] = tuple(v * ratio for v in bands[x][y])
    weights = [lv * rv for lv, rv in zip(left, eig.right)]
    norm = weights[0] + weights[1]
    pi = tuple(w / norm for w in weights)
    resc = RescaledSystem(sys.r, tuple(map(tuple, bands)), eig.value, pi)
    if any(total != eig.value for total in resc.column_sums()):
        raise AssertionError("rescaled column sums are not the eigenvalue")
    return resc


def _add_moments(acc, band, scale, shift, betas):
    """Add to acc = (s0, s1, s2) the moments (sum w, sum w c, sum w c^2) of
    w = band[beta] * scale, c = shift + beta over beta in betas: the terms
    w (p - (i + c)^2) of a row's band sum at i, which is p s0 - s0 i^2 -
    2 s1 i - s2.  The only place where a band meets a quadratic profile.
    """
    s0, s1, s2 = acc
    r = len(band) // 2
    for beta in betas:
        w, c = band[r + beta] * scale, shift + beta
        wc = w * c
        s0, s1, s2 = s0 + w, s1 + wc, s2 + wc * c
    return s0, s1, s2


def _row_bands(resc: RescaledSystem, epsilon: Fraction | int):
    """Each row x of ``resc.bands``, its (X-profile band, Y-profile band),
    with -(M - epsilon) folded into offset 0 of its own band bands[x][x]."""
    r, m_eps = resc.r, resc.m - _Q(epsilon)
    own = lambda band: band[:r] + (band[r] - m_eps,) + band[r + 1 :]
    return [row[:x] + (own(row[x]),) + row[x + 1 :] for x, row in enumerate(resc.bands)]


def shift_constant(resc: RescaledSystem) -> QuadNumber:
    """The relative horizontal shift of the two quadratic profiles.

    With -M folded into its own band, each row's s1 at s = 0 is affine in
    delta, s1(0) + delta * s0_Y (s0_Y: the moment of its Y-profile terms);
    the two rows' roots agree exactly precisely when the weighted drift
    vanishes, and disagreement aborts (the certificate machinery is
    meaningless with drift).
    """
    betas = range(-resc.r, resc.r + 1)
    roots = []
    for band_x, band_y in _row_bands(resc, 0):
        mx = _add_moments(_NO_MOMENTS, band_x, resc.pi[0], 0, betas)
        my = _add_moments(_NO_MOMENTS, band_y, resc.pi[1], 0, betas)
        roots.append(-(mx[1] + my[1]) / my[0])
    first, second = roots
    if first != second:
        raise ValueError("nonzero drift: the two shift-constant forms disagree")
    return first


def residual_constants(
    resc: RescaledSystem, delta: Optional[QuadNumber] = None
) -> tuple[QuadNumber, QuadNumber]:
    """Row-wise eigen-residuals of the quadratic profiles: constants.

    M h(i) - sum_beta band[beta] h(i + beta) is minus the row's band sum with
    -M folded into its own band: -p s0 + s0 t^2 + 2 s1 t + s2, t = i - s, in
    the moments at s = 0.  That is constant in i, p and s exactly when
    s0 = s1 = 0 (what any (i, p, s) probe grid pins), which is insisted on;
    else the shift constant or eigen-data is wrong.  Returns the rows' s2.
    """
    if delta is None:
        delta = shift_constant(resc)
    betas = range(-resc.r, resc.r + 1)
    out = []
    for band_x, band_y in _row_bands(resc, 0):
        acc = _add_moments(_NO_MOMENTS, band_x, resc.pi[0], 0, betas)
        s0, s1, s2 = _add_moments(acc, band_y, resc.pi[1], delta, betas)
        if s0 or s1:
            raise AssertionError("profile residual is not constant in the position")
        out.append(s2)
    return out[0], out[1]


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
        v = resc.pi[0] * (self.p - (i - self.s) ** 2)
        return v if v.sign() > 0 else _Q(0)

    def ybar(self, resc: RescaledSystem, i: int) -> QuadNumber:
        v = resc.pi[1] * (self.p - (i - self.s + self.delta) ** 2)
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

    With -(M - eps) folded into each row's own band (``_row_bands``), each
    row checks that a banded sum of the two clipped profiles is nonnegative.
    Every integer index is covered: between clipping breakpoints that sum is
    one quadratic in the index, decided by evaluations at the stretch ends
    (concave case) or around the vertex (convex case).  False is a
    legitimate outcome, not an error.
    """
    r = resc.r
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
    for bands in _row_bands(resc, cert.epsilon):
        terms = tuple(zip(bands, profiles))
        for lo, hi in segments:
            if not _segment_ok(r, cert.p, terms, lo, hi):
                return False
    return True


def _segment_ok(r, p, terms, lo, hi) -> bool:
    """Check the row's band sum >= 0 for all integers in [lo, hi] (fixed clip pattern)."""
    acc = _NO_MOMENTS
    for band, ((first, last), shift, scale) in terms:
        # i + beta lies in [first, last] for every i in [lo, hi] exactly when
        # beta is in `inside`, and for some i exactly when beta is in `meets`
        inside = range(max(-r, first - lo), min(r, last - hi) + 1)
        meets = range(max(-r, first - hi), min(r, last - lo) + 1)
        if len(inside) != len(meets):
            raise AssertionError("segment straddles a clip boundary")
        acc = _add_moments(acc, band, scale, shift, inside)
    s0, s1, s2 = acc
    # the band sum p s0 - s0 i^2 - 2 s1 i - s2 is q2 i^2 + q1 i + q0
    q2, q1, q0 = -s0, -2 * s1, p * s0 - s2

    def val(i: int) -> QuadNumber:
        return (q2 * i + q1) * i + q0

    if q2.sign() <= 0:
        return val(lo).sign() >= 0 and val(hi).sign() >= 0
    vertex = -q1 / (2 * q2)
    lo_v = max(lo, min(hi, vertex.floor()))
    hi_v = max(lo, min(hi, vertex.floor() + 1))
    return val(lo_v).sign() >= 0 and val(hi_v).sign() >= 0
