"""Exact spectral analysis of the coupled recursion and growth certificates.

Pipeline, all in one quadratic field Q(sqrt(disc)):

1. ``eigen_data``: dominant eigenvalue M of the condensed 2x2 matrix with
   positive left/right eigenvectors, normalized to sum 1.
2. ``weighted_drift``: the eigenvector-weighted total jump size; zero drift
   is the hypothesis that the runner count performs an unbiased walk.
3. ``rescale``: the similarity bands[x][y] * l_x / l_y by the left
   eigenvector l, on the 2x2 band layout ``bands[x][y]`` of the two-state
   ``ChainOperator`` of ``extract_band``, so both condensed column sums
   become exactly M (left eigenvector (1,1)).
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
   so p is found in closed form.  After shifting right by s = sqrt(p) +
   delta + max(0, r - 3) and clipping negatives to zero, every surviving
   entry is at least K / epsilon and the clipped pair (xbar, ybar)
   satisfies, componentwise,

       apply(xbar, ybar) >= (M - epsilon) * (xbar, ybar),

   which is the machine-checkable core of the exponential lower bound.  Both
   supports start at max(1, r - 2), past the head block: its rows read only
   the inputs j <= r - 3, so on these profiles the stabilized band is the
   true step (the cut of the first rows, which leaves the growth rate as it
   is).  The check below is invariant under integer shifts.
7. ``verify_certificate``: exact componentwise check of that inequality,
   with -(M - epsilon) folded into each row's own band, refusing a support
   that starts below max(0, r - 2).  Between
   consecutive clipping breakpoints each row's band sum is the quadratic of
   the moments of the offsets inside the supports, decided by exact sign
   tests at its endpoints (or at the vertex when convex); every index of the
   support plus a bandwidth margin is covered without materializing the
   vectors, whose support can run to millions of entries.  A row's shift
   and scale per band are the same in every segment, so each offset's
   moments are summed once per row and band into a suffix table, filled
   lazily from offset +r down; a segment's offset range [a, b] is then
   table(a) - table(b + 1).  Each row is cleared into Z[sqrt(d)] once: its
   bands, the scales pi, the shifts and the peak become integer numerators
   (a, b) of (a + b sqrt(d)) / den over one row denominator
   (``_cleared_rows``), so the tables, each segment's quadratic and its
   sign tests (``quadfield._sign``) are integer arithmetic.  A row costs
   O(r) integer operations; only a convex segment's vertex is a QuadNumber.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Optional, Sequence

from .chains import ChainOperator
from .corners import dominant_eigenvalue
from .quadfield import QuadNumber, _cleared, _make, _sign

_Q = QuadNumber.from_rational
_NO_MOMENTS = (0,) * 6


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
    if not (lx * a + ly * c == m * lx and lx * b + ly * e == m * ly):
        raise AssertionError("left eigenvector equations fail")
    if not (rx * a + ry * b == m * rx and rx * c + ry * e == m * ry):
        raise AssertionError("right eigenvector equations fail")


def weighted_drift(sys: ChainOperator) -> QuadNumber:
    """Eigenvector-weighted total jump size of the coupled system."""
    eig = eigen_data(sys.condensed)
    terms = (lx * ry * d for lx, row in zip(eig.left, sys.jumps) for ry, d in zip(eig.right, row))
    return sum(terms, _Q(0))


@dataclass(frozen=True)
class RescaledSystem:
    """Coupled band coefficients rescaled to constant column sums M.

    ``bands[x][y]`` is the QuadNumber band of ``ChainOperator.bands[x][y]``
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


def rescale(sys: ChainOperator) -> RescaledSystem:
    """The similarity bands[x][y] * l_x / l_y by the left eigenvector l.

    Each cross ratio is computed once and the diagonal bands stay unscaled.
    Afterwards both condensed column sums equal M exactly and the drift
    condition takes its symmetric sum-form; growth behaviour is unchanged.
    """
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


def _add_moments(acc, band, scale, shift, betas, den, d):
    """Add to acc = (s0, s1, s2) the moments (sum w, sum w c, sum w c^2) of
    w = band[beta] * scale, c = shift + beta over beta in betas: the terms
    w (p - (i + c)^2) of a row's band sum at i, which is p s0 - s0 i^2 -
    2 s1 i - s2.  The only place where a band meets a quadratic profile.

    Everything is in cleared form (``_cleared_rows``): band entries, scale
    and shift are integer pairs (a, b) for (a + b sqrt(d)) / den, and acc
    holds the six integer numerators of s0, s1, s2 over den^2, den^3, den^4.
    """
    s0a, s0b, s1a, s1b, s2a, s2b = acc
    r = len(band) // 2
    sa, sb = scale
    ha, hb = shift
    hbd = hb * d
    for beta in betas:
        ba, bb = band[r + beta]
        wa, wb = ba * sa + bb * sb * d, ba * sb + bb * sa
        ca = ha + beta * den
        ua, ub = wa * ca + wb * hbd, wa * hb + wb * ca  # w c
        s0a += wa
        s0b += wb
        s1a += ua
        s1b += ub
        s2a += ua * ca + ub * hbd
        s2b += ua * hb + ub * ca
    return s0a, s0b, s1a, s1b, s2a, s2b


def _cleared_rows(resc: RescaledSystem, epsilon: Fraction | int, *values: QuadNumber):
    """Each row x of ``resc.bands``, its (X-profile band, Y-profile band)
    with -(M - epsilon) folded into offset 0 of its own band bands[x][x],
    cleared into Z[sqrt(d)] over its own denominator: (d, den, (X band,
    Y band), (pi_X, pi_Y, *values)), every entry an integer pair (a, b) for
    (a + b sqrt(d)) / den (``quadfield._cleared``)."""
    r, m_eps = resc.r, resc.m - _Q(epsilon)
    n = 2 * r + 1
    for x, row in enumerate(resc.bands):
        bands = [*row]
        bands[x] = row[x][:r] + (row[x][r] - m_eps,) + row[x][r + 1 :]
        d, den, nums = _cleared((*bands[0], *bands[1], *resc.pi, *values))
        yield d, den, (nums[:n], nums[n : 2 * n]), nums[2 * n :]


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
    for d, den, (band_x, band_y), (pi_x, pi_y) in _cleared_rows(resc, 0):
        mx = _add_moments(_NO_MOMENTS, band_x, pi_x, (0, 0), betas, den, d)
        my = _add_moments(_NO_MOMENTS, band_y, pi_y, (0, 0), betas, den, d)
        # -s1 / s0_Y, numerators over den^3 and den^2
        roots.append(_make(-mx[2] - my[2], -mx[3] - my[3], den, d) / _make(my[0], my[1], 1, d))
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
    for d, den, (band_x, band_y), (pi_x, pi_y, shift) in _cleared_rows(resc, 0, delta):
        acc = _add_moments(_NO_MOMENTS, band_x, pi_x, (0, 0), betas, den, d)
        s0a, s0b, s1a, s1b, s2a, s2b = _add_moments(acc, band_y, pi_y, shift, betas, den, d)
        if s0a or s0b or s1a or s1b:
            raise AssertionError("profile residual is not constant in the position")
        out.append(_make(s2a, s2b, den**4, d))
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

    (zero for i < max(1, r - 2) when 0 < delta < 1, by the choice of s:
    past the head block); they are stored implicitly through
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


def build_certificate(resc: RescaledSystem, epsilon: Fraction | int) -> SubEigenCertificate:
    """Gap search, shift, and clip: the lower bound M - epsilon, 0 < epsilon < M."""
    return _certificate(resc, epsilon, gap_search)


def certificate_from_peak(
    resc: RescaledSystem, epsilon: Fraction, p: QuadNumber, root_p: QuadNumber
) -> SubEigenCertificate:
    """Certificate with an explicitly chosen peak value (negative controls),
    for the same epsilons and placement as ``build_certificate``."""
    return _certificate(
        resc, epsilon, lambda delta, _: (p, root_p, p - _predecessor(delta, p, root_p))
    )


def _certificate(resc: RescaledSystem, epsilon: Fraction | int, peak) -> SubEigenCertificate:
    """The profile (shift constant and larger residual, each computed once)
    with the peak ``peak(delta, need) -> (p, root_p, gap)``, placed past the
    head block (module docstring, step 6).  From epsilon = M on, M - epsilon
    <= 0 bounds nothing."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0 or _Q(epsilon) >= resc.m:
        raise ValueError("epsilon must lie between 0 and the eigenvalue M, exclusive")
    delta = shift_constant(resc)  # refuses nonzero drift
    qx, qy = residual_constants(resc, delta)
    k_const = qx if qx >= qy else qy
    p, root_p, gap = peak(delta, _gap_requirement(resc, epsilon, k_const))
    s = root_p + delta + max(0, resc.r - 3)
    sup_x = _open_interval_ints(s - root_p, s + root_p)
    sup_y = _open_interval_ints(s - delta - root_p, s - delta + root_p)
    if sup_x[1] < sup_x[0] or sup_y[1] < sup_y[0]:
        raise ValueError("peak too small: a certificate needs nonzero vectors")
    return SubEigenCertificate(
        epsilon=epsilon, p=p, root_p=root_p, s=s, delta=delta, k_const=k_const, gap=gap,
        support_x=sup_x, support_y=sup_y,
    )


def _open_interval_ints(lo: QuadNumber, hi: QuadNumber) -> tuple[int, int]:
    """Integers strictly inside (lo, hi) as an inclusive index range."""
    return lo.floor() + 1, hi.ceil() - 1


def verify_certificate(resc: RescaledSystem, cert: SubEigenCertificate) -> bool:
    """Exact componentwise check of apply >= (M - eps) * profile, both rows.

    With -(M - eps) folded into each row's own band (``_cleared_rows``), each
    row checks that a banded sum of the two clipped profiles is nonnegative.
    Every integer index is covered: between clipping breakpoints that sum is
    one quadratic in the index, decided by evaluations at the stretch ends
    (concave case) or around the vertex (convex case).  Its moments come
    from one suffix table per row and band (``_suffix_moments``), so each
    offset is summed once per row, not once per segment.  The row is
    cleared to integer numerators over one denominator first, so the
    tables and the sign tests are integer arithmetic.  False is a
    legitimate outcome, not an error.

    A support that starts below max(0, r - 2) is refused: such profiles meet
    the head block, where the true step is smaller than the stabilized band
    read here, or a negative index.  So True is a statement about the true
    operator, the one the lower bound uses.
    """
    r = resc.r
    if min(cert.support_x[0], cert.support_y[0]) < max(0, r - 2):
        return False
    # i + beta enters or leaves a support at bound - beta (+ 1)
    marks = sorted({
        bound - beta + e
        for sup in (cert.support_x, cert.support_y)
        for bound in sup
        for beta in range(-r, r + 1)
        for e in (0, 1)
    })
    segments = [(marks[0] - 1, marks[0] - 1)]
    segments += [(a, b - 1) for a, b in zip(marks, marks[1:] + [marks[-1] + 1])]
    segments.append((marks[-1] + 1, marks[-1] + 1))
    # row-major: all of row X, then row Y
    for d, den, bands, (pi_x, pi_y, shift_x, shift_y, p) in _cleared_rows(
        resc, cert.epsilon, -cert.s, cert.delta - cert.s, cert.p
    ):
        terms = (
            (_suffix_moments(bands[0], pi_x, shift_x, den, d), cert.support_x),
            (_suffix_moments(bands[1], pi_y, shift_y, den, d), cert.support_y),
        )
        for lo, hi in segments:
            if not _segment_ok(r, (d, den, p), terms, lo, hi):
                return False
    return True


def _suffix_moments(band, scale, shift, den, d):
    """table(a): the moments (``_add_moments``, cleared form) of the offsets
    a..r of one row's band, for -r <= a <= r + 1.  Filled on demand from
    offset +r down, one offset per step, so a row whose check fails early
    sums only the offsets its segments reached."""
    r = len(band) // 2
    table = [_NO_MOMENTS]  # table[k]: offsets r + 1 - k .. r

    def moments(a: int):
        while len(table) <= r + 1 - a:
            beta = r + 1 - len(table)
            table.append(_add_moments(table[-1], band, scale, shift, (beta,), den, d))
        return table[r + 1 - a]

    return moments


def _segment_ok(r, row, terms, lo, hi) -> bool:
    """Check the row's band sum >= 0 for all integers in [lo, hi] (fixed clip pattern).

    Each of ``terms`` pairs a band's suffix table with its support; the
    moments of the offsets inside the support are table(a) - table(b + 1)
    for the inside range [a, b], two reads and no per-offset work.  `row`
    is (d, den, p) of the row's cleared form.  The band sum times den^4 is
    a quadratic with coefficients in Z[sqrt(d)], so each sign test is one
    ``_sign`` on integers; only a convex segment's vertex is a QuadNumber.
    """
    acc = None
    for moments, (first, last) in terms:
        # i + beta lies in [first, last] for every i in [lo, hi] exactly when
        # beta is in `inside`, and for some i exactly when beta is in `meets`
        inside = range(max(-r, first - lo), min(r, last - hi) + 1)
        meets = range(max(-r, first - hi), min(r, last - lo) + 1)
        if len(inside) != len(meets):
            raise AssertionError("segment straddles a clip boundary")
        if not inside:
            continue
        part = moments(inside.start)
        if inside.stop <= r:
            part = tuple(map(sub, part, moments(inside.stop)))
        acc = part if acc is None else tuple(map(add, acc, part))
    if acc is None:  # no offset reaches a support: the band sum is 0
        return True
    d, den, (pa, pb) = row
    s0a, s0b, s1a, s1b, s2a, s2b = acc
    # den^4 (p s0 - s0 i^2 - 2 s1 i - s2) = q2 i^2 + q1 i + q0
    q2a, q2b = -s0a * den * den, -s0b * den * den
    q1a, q1b = -2 * s1a * den, -2 * s1b * den
    q0a = (pa * s0a + pb * s0b * d) * den - s2a
    q0b = (pa * s0b + pb * s0a) * den - s2b

    def sign_at(i: int) -> int:
        return _sign((q2a * i + q1a) * i + q0a, (q2b * i + q1b) * i + q0b, d)

    if _sign(q2a, q2b, d) <= 0:
        return sign_at(lo) >= 0 and sign_at(hi) >= 0
    # the vertex -q1 / (2 q2), times the conjugate of q2 over its norm
    norm = q2a * q2a - q2b * q2b * d
    vertex = _make(q1b * q2b * d - q1a * q2a, q1a * q2b - q1b * q2a, 2 * norm, d).floor()
    return sign_at(max(lo, min(hi, vertex))) >= 0 and sign_at(max(lo, min(hi, vertex + 1))) >= 0
