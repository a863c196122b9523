import dataclasses
import functools
import random
from fractions import Fraction
from typing import Optional

import pytest

from ncmatch.corners import CoupledSystem, extract_band
from ncmatch.quadfield import QuadNumber
from ncmatch.spectral import (
    RescaledSystem,
    SubEigenCertificate,
    _gap_requirement,
    build_certificate,
    certificate_from_peak,
    eigen_data,
    gap_search,
    rescale,
    residual_constants,
    shift_constant,
    verify_certificate,
    weighted_drift,
)

Q = QuadNumber.from_rational


def toy_system(bands, r=1):
    """CoupledSystem from four explicit band tuples (offset -r..r)."""
    cc, cf, fc, ff = bands
    return CoupledSystem(r, ((cc, cf), (fc, ff)))


SYMMETRIC_TOY = toy_system(((1, 1, 1),) * 4)


class TestEigenData:
    def test_eight_chain_fixture(self):
        e = eigen_data(((2885, 2619), (6022, 5504)))
        assert e.value == QuadNumber(8389, 1, 2, 69945633)
        # unnormalized eigenvectors (6022, M - 2885) and (2619, M - 2885)
        m = e.value
        assert e.left[0] / e.left[1] == Q(6022) / (m - 2885)
        assert e.right[0] / e.right[1] == Q(2619) / (m - 2885)
        assert e.left[0] + e.left[1] == 1
        assert e.right[0] + e.right[1] == 1

    def test_singular_condensed_matrix(self):
        e = eigen_data(((1, 1), (2, 2)))
        assert e.value.as_fraction() == 3
        assert e.right[0] / e.right[1] == Fraction(1, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            eigen_data(((1, 0), (2, 2)))

    @pytest.mark.parametrize("r", range(2, 13))
    def test_eigen_equations_hold_exactly(self, r):
        (a, b), (c, e) = extract_band(r).condensed
        eig = eigen_data(((a, b), (c, e)))
        lx, ly = eig.left
        rx, ry = eig.right
        assert lx * a + ly * c == eig.value * lx
        assert lx * b + ly * e == eig.value * ly
        assert rx * a + ry * b == eig.value * rx
        assert rx * c + ry * e == eig.value * ry


class TestDrift:
    @pytest.mark.parametrize("r", range(2, 13))
    def test_zero_for_real_systems(self, r):
        assert weighted_drift(extract_band(r)).sign() == 0

    def test_nonzero_for_synthetic_jump(self):
        # the CC band leans right, so its jump sum is the only nonzero one
        assert DRIFTING_TOY.jumps == ((2, 0), (0, 0))
        assert weighted_drift(DRIFTING_TOY).sign() > 0


class TestRescale:
    @pytest.mark.parametrize("r", [2, 5, 8])
    def test_column_sums_become_eigenvalue(self, r):
        resc = rescale(extract_band(r))
        s1, s2 = resc.column_sums()
        assert s1 == resc.m and s2 == resc.m

    def test_left_eigenvector_becomes_flat(self):
        # after rescaling, column sums constant == M means (1,1) is a left
        # eigenvector; spelled out entrywise:
        resc = rescale(extract_band(8))
        (xx, xy), (yx, yy) = resc.bands
        tot = lambda band: sum(band[1:], band[0])
        assert tot(xx) + tot(yx) == resc.m
        assert tot(xy) + tot(yy) == resc.m

    def test_rescaled_drift_sum_form_vanishes(self):
        resc = rescale(extract_band(8))
        pix, piy = resc.pi
        (xx, xy), (yx, yy) = resc.bands
        jump = lambda band: sum(((off - resc.r) * v for off, v in enumerate(band)), Q(0))
        total = pix * (jump(xx) + jump(yx)) + piy * (jump(xy) + jump(yy))
        assert total.sign() == 0

    @pytest.mark.parametrize("r", range(1, 13))
    def test_similarity_rule_entrywise(self, r):
        # bands[x][y] * l_y == integer band * l_x, and the diagonal is the
        # integer band itself
        sys_ = extract_band(r)
        left = eigen_data(sys_.condensed).left
        resc = rescale(sys_)
        for x in range(2):
            for y in range(2):
                got, band = resc.bands[x][y], sys_.bands[x][y]
                assert len(got) == len(band) == 2 * r + 1
                for v, w in zip(got, band):
                    assert v * left[y] == left[x] * w
                    if x == y:
                        assert v.as_tuple() == Q(w).as_tuple()


class TestShiftConstant:
    @pytest.mark.parametrize("r", [2, 8])
    def test_both_forms_agree(self, r):
        resc = rescale(extract_band(r))
        delta = shift_constant(resc)
        assert Q(0) < delta < Q(1)

    def test_eight_chain_value(self):
        resc = rescale(extract_band(8))
        # reduces to right-eigenvector ratio for the structural jump pattern
        e = eigen_data(extract_band(8).condensed)
        assert shift_constant(resc) == e.right[0] / e.right[1]

    def test_symmetric_toy_has_zero_shift(self):
        resc = rescale(SYMMETRIC_TOY)
        assert shift_constant(resc).sign() == 0

    def test_refuses_drifting_system(self):
        biased = toy_system(((0, 1, 2), (1, 1, 1), (1, 1, 1), (1, 1, 1)))
        assert weighted_drift(biased).sign() > 0
        with pytest.raises(ValueError):
            shift_constant(rescale(biased))


class TestResidualConstants:
    def test_symmetric_toy_reduces_to_curvature(self):
        # flat profiles, zero shift: the residual is the second moment
        # sum a_beta beta^2 weighted by the profile scales, here 2 * 1/2 + 2 * 1/2
        resc = rescale(SYMMETRIC_TOY)
        qx, qy = residual_constants(resc)
        assert qx == 2 and qy == 2

    def test_positive_for_eight_chain(self):
        resc = rescale(extract_band(8))
        qx, qy = residual_constants(resc)
        assert qx.sign() > 0 and qy.sign() > 0


class TestGapSearch:
    def test_gap_is_certified(self):
        resc = rescale(extract_band(8))
        delta = shift_constant(resc)
        p, root, gap = gap_search(delta, Q(1000))
        assert root * root == p
        assert gap >= 1000

    def test_tiny_requirement_gives_small_peak(self):
        resc = rescale(extract_band(8))
        delta = shift_constant(resc)
        p, _, _ = gap_search(delta, Q(0))
        assert p <= 4

    def test_huge_requirement_stays_below_derived_ceiling(self):
        # far past any fixed doubling limit such as 2**60
        need = Q(10**25)
        p, root, gap = gap_search(QuadNumber(-1, 1, 1, 2), need)
        assert root * root == p
        assert gap >= need


class TestCertificates:
    @pytest.mark.parametrize("r", [2, 8])
    @pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 100)])
    def test_build_and_verify(self, r, eps):
        resc = rescale(extract_band(r))
        cert = build_certificate(resc, eps)
        assert cert.support_x[0] >= 1 and cert.support_y[0] >= 1
        assert verify_certificate(resc, cert)

    def test_support_scales_like_twice_root_peak(self):
        resc = rescale(extract_band(2))
        cert = build_certificate(resc, Fraction(1, 10))
        width = cert.support_width()
        assert abs(width - 2 * cert.root_p.to_float()) <= 4

    def test_larger_epsilon_needs_smaller_peak(self):
        resc = rescale(extract_band(8))
        loose = build_certificate(resc, Fraction(1, 10))
        tight = build_certificate(resc, Fraction(1, 100))
        assert loose.p < tight.p

    def test_huge_epsilon_peak_near_head_of_value_set(self):
        resc = rescale(extract_band(8))
        cert = build_certificate(resc, Fraction(10**9))
        assert cert.p <= 4
        assert verify_certificate(resc, cert)

    @pytest.mark.parametrize("r", [2, 8])
    def test_undersized_peak_fails(self, r):
        resc = rescale(extract_band(r))
        delta = shift_constant(resc)
        # a deliberately under-sized peak: far below the gap requirement
        small = certificate_from_peak(resc, Fraction(1, 10), (1 + delta) ** 2, 1 + delta)
        assert not verify_certificate(resc, small)

    def test_all_zero_vectors_rejected(self):
        resc = rescale(extract_band(8))
        delta = shift_constant(resc)
        with pytest.raises(ValueError):
            certificate_from_peak(resc, Fraction(1, 10), (delta / 2) ** 2, delta / 2)

    def test_profile_values_match_formula(self):
        resc = rescale(extract_band(2))
        cert = build_certificate(resc, Fraction(1, 2))
        lo, hi = cert.support_x
        inside = cert.xbar(resc, (lo + hi) // 2)
        assert inside.sign() > 0
        assert cert.xbar(resc, lo - 1).sign() == 0
        assert cert.xbar(resc, hi + 1).sign() == 0
        assert cert.ybar(resc, cert.support_y[0] - 1).sign() == 0
        # nonzero values clear the slack threshold
        threshold = cert.k_const / Q(cert.epsilon)
        for i in (lo, (lo + hi) // 2, hi):
            assert cert.xbar(resc, i) >= threshold


# ---------------------------------------------------------------------------
# the previous gap search (doubling, bisection, walk-down) and row check
# (separate LHS term), kept verbatim under new names as references
# ---------------------------------------------------------------------------

_Q = QuadNumber.from_rational


def _reference_neighbors(delta: QuadNumber, m: int) -> list[tuple[QuadNumber, QuadNumber]]:
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


def _reference_gap_search(
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
        while not _reference_gap_ok(delta, root_of(m), need):
            if m >= ceiling:
                raise AssertionError("gap search passed its proven ceiling")
            lo, m = m, min(2 * m, ceiling)
        hi = m
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if _reference_gap_ok(delta, root_of(mid), need):
                hi = mid
            else:
                lo = mid
        m = hi if not _reference_gap_ok(delta, root_of(lo), need) else lo
        while m > 1 and _reference_gap_ok(delta, root_of(m - 1), need):
            m -= 1
        root = root_of(m)
        value = root * root
        if best is None or value < best[0]:
            best = (value, root)
    assert best is not None
    value, root = best
    gap = value - _reference_predecessor(delta, value, root)
    return value, root, gap


def _reference_predecessor(delta: QuadNumber, value: QuadNumber, root: QuadNumber) -> QuadNumber:
    m = root.floor()
    cands = [v for v, _ in _reference_neighbors(delta, m) if v < value]
    if not cands:
        return _Q(0)
    return max(cands)


def _reference_gap_ok(delta: QuadNumber, root: QuadNumber, need: QuadNumber) -> bool:
    value = root * root
    return value - _reference_predecessor(delta, value, root) >= need


def _reference_verify(resc: RescaledSystem, cert: SubEigenCertificate) -> bool:
    """Exact componentwise check of apply >= (M - eps) * profile, both rows.

    Every integer index is covered: between clipping breakpoints each side
    is one quadratic in the index, decided by evaluations at the stretch
    ends (concave case) or around the vertex (convex case).  False is a
    legitimate outcome, not an error.
    """
    r = resc.r
    rows = (
        (*resc.bands[0], True),
        (*resc.bands[1], False),
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
            if not _reference_segment_ok(resc, cert, band_x, band_y, lhs_is_x, m_eps, lo, hi):
                return False
    return True


def _reference_segment_ok(resc, cert, band_x, band_y, lhs_is_x, m_eps, lo, hi) -> bool:
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


SQRT2 = QuadNumber(0, 1, 1, 2)
SYNTHETIC_DELTAS = [Q(Fraction(1, 2)), Q(Fraction(1, 3)), Q(Fraction(2, 3)), SQRT2 - 1, SQRT2 / 2]
# below 1 the least index of a family can fall under 1, so max(1, ...) binds
SMALL_NEEDS = [Fraction(0), Fraction(1, 1000), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2),
               Fraction(9, 10)]


@functools.lru_cache(maxsize=None)
def _rescaled(r):
    return rescale(extract_band(r))


def _need(resc, eps):
    delta = shift_constant(resc)
    qx, qy = residual_constants(resc, delta)
    return delta, _gap_requirement(resc, eps, qx if qx >= qy else qy)


def _assert_same_peak(delta, need):
    # stored forms, not just values: subeig prints them
    got = [x.as_tuple() for x in gap_search(delta, need)]
    assert got == [x.as_tuple() for x in _reference_gap_search(delta, need)], need


def _random_deltas(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if rng.random() < 0.5:
            den = rng.randrange(2, 500)
            out.append(Q(Fraction(rng.randrange(1, den), den)))
        else:
            d = rng.choice([2, 3, 5, 6, 7, 10, 11, 13, 93, 69945633])
            x = QuadNumber(rng.randrange(-50, 50), rng.randrange(1, 20), rng.randrange(1, 30), d)
            x = x - x.floor()
            if x.sign() > 0:
                out.append(x)
    return out


class TestGapSearchAgainstReference:
    """The closed form equals the previous searching implementation."""

    @pytest.mark.parametrize("r", range(2, 13))
    def test_real_deltas(self, r):
        resc = _rescaled(r)
        for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000), Fraction(1, 7),
                    Fraction(3, 2)):
            _assert_same_peak(*_need(resc, eps))

    @pytest.mark.parametrize("delta", SYNTHETIC_DELTAS, ids=["1/2", "1/3", "2/3", "r2-1", "r2/2"])
    def test_synthetic_deltas(self, delta):
        for need in [*SMALL_NEEDS, *range(1, 200)]:
            _assert_same_peak(delta, Q(need))

    @pytest.mark.parametrize("seed", range(2))
    def test_random_deltas(self, seed):
        rng = random.Random(1000 + seed)
        for delta in _random_deltas(seed, 30):
            big = Fraction(rng.randrange(1, 10**6), rng.randrange(1, 50))
            scale = Fraction(rng.randrange(1, 10**4), rng.randrange(1, 50))
            for need in (Q(rng.choice(SMALL_NEEDS)), Q(big), (delta + rng.randrange(100)) * scale):
                _assert_same_peak(delta, need)

    def test_delta_outside_unit_interval_rejected(self):
        for delta in (Q(0), Q(1), Q(-1) / 3, SQRT2):
            with pytest.raises(ValueError):
                gap_search(delta, Q(5))


def _verify_cases(r, epsilons):
    """Certificates that do and do not verify, for one r."""
    resc = _rescaled(r)
    delta = shift_constant(resc)
    for eps in epsilons:
        cert = build_certificate(resc, eps)
        yield cert
        yield dataclasses.replace(cert, epsilon=cert.epsilon / 1000)
        yield dataclasses.replace(cert, p=cert.p * Fraction(9, 10))
        yield dataclasses.replace(cert, p=cert.p + 1)
        # The Y profile moved k indices away: only then does a breakpoint one
        # past an upper bound miss the other support's breakpoints.  With a
        # huge epsilon no row can fail early, so every segment is checked.
        for k in (3 * r + 3, -3 * r - 3):
            sup = (cert.support_y[0] + k, cert.support_y[1] + k)
            moved = dataclasses.replace(cert, delta=cert.delta - k, support_y=sup)
            yield moved
            yield dataclasses.replace(moved, epsilon=Fraction(10**6))
    yield certificate_from_peak(resc, Fraction(1, 10), (1 + delta) ** 2, 1 + delta)
    for j in range(2, 39, 3):
        yield certificate_from_peak(resc, Fraction(1, 100), (j + delta) ** 2, j + delta)


class TestVerifyAgainstReference:
    """The one-loop row check gives the previous verdict on every case."""

    @pytest.mark.parametrize("r", range(2, 9))
    def test_certificates_and_controls(self, r):
        resc = _rescaled(r)
        verdicts = []
        for cert in _verify_cases(r, (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000),
                                      Fraction(3, 2))):
            verdict = verify_certificate(resc, cert)
            assert verdict == _reference_verify(resc, cert)
            verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("r", range(2, 7))
    def test_moved_band_coefficients(self, r):
        resc = _rescaled(r)
        cert = build_certificate(resc, Fraction(1, 10))
        verdicts = []
        for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
            band = resc.bands[x][y]
            for off in range(2 * r + 1):
                for move in (Fraction(1, 50), Fraction(-1, 50)):
                    moved = band[:off] + (band[off] + move,) + band[off + 1 :]
                    bands = [list(row) for row in resc.bands]
                    bands[x][y] = moved
                    mutated = dataclasses.replace(resc, bands=tuple(map(tuple, bands)))
                    verdict = verify_certificate(mutated, cert)
                    assert verdict == _reference_verify(mutated, cert), (x, y, off, move)
                    verdicts.append(verdict)
        assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# the previous shift constant (jump sums over band sums) and residual
# constants (profiles evaluated on an (i, p, s) probe grid), kept verbatim
# under new names as references; ``RescaledSystem.jump`` is now
# ``_reference_jump``; they read ``resc.bands`` as ((xx, xy), (yx, yy))
# ---------------------------------------------------------------------------


def _reference_jump(resc, band):
    acc = _Q(0)
    for off, v in enumerate(band):
        acc = acc + v * (off - resc.r)
    return acc


def _reference_shift_constant(resc: RescaledSystem) -> QuadNumber:
    """The relative horizontal shift of the two quadratic profiles.

    Both displayed quotients are evaluated; they agree exactly precisely
    when the weighted drift vanishes, and disagreement aborts (the
    certificate machinery is meaningless with drift).
    """
    pix, piy = resc.pi
    (xx, xy), (yx, yy) = resc.bands
    dxx, dxy = _reference_jump(resc, xx), _reference_jump(resc, xy)
    dyx, dyy = _reference_jump(resc, yx), _reference_jump(resc, yy)
    sum_band = lambda band: sum(band[1:], band[0])
    axy, ayy = sum_band(xy), sum_band(yy)
    first = (pix * dxx + piy * dxy) / (-(piy * axy))
    second = -(pix * dyx + piy * dyy) / (piy * (ayy - resc.m))
    if first != second:
        raise ValueError("nonzero drift: the two shift-constant forms disagree")
    return first


def _reference_profile_x(resc, p, s, i) -> QuadNumber:
    t = i - s if isinstance(i, QuadNumber) else _Q(i) - s
    return resc.pi[0] * (p - t * t)


def _reference_profile_y(resc, delta, p, s, i) -> QuadNumber:
    t = (i - s if isinstance(i, QuadNumber) else _Q(i) - s) + delta
    return resc.pi[1] * (p - t * t)


def _reference_residual_constants(
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
        delta = _reference_shift_constant(resc)
    r = resc.r
    if probes is None:
        probes = [
            (i, p, s) for i in (3 * r, 3 * r + 1, 5 * r) for p in (10, 100) for s in (0, 7)
        ]
    (xx, xy), (yx, yy) = resc.bands
    qx = qy = None
    for i, p, s in probes:
        pq, sq = _Q(p), _Q(s)
        hx = lambda j: _reference_profile_x(resc, pq, sq, j)
        hy = lambda j: _reference_profile_y(resc, delta, pq, sq, j)
        acc_x = resc.m * hx(i)
        acc_y = resc.m * hy(i)
        for off in range(2 * r + 1):
            beta = off - r
            acc_x = acc_x - xx[off] * hx(i + beta) - xy[off] * hy(i + beta)
            acc_y = acc_y - yx[off] * hx(i + beta) - yy[off] * hy(i + beta)
        if qx is None:
            qx, qy = acc_x, acc_y
        elif acc_x != qx or acc_y != qy:
            raise AssertionError("profile residual is not constant across probes")
    return qx, qy


# drift-free but not palindromic: cross jumps +2 and -2 cancel, delta = -1/3
SKEWED_TOY = toy_system(((1, 1, 1), (1, 2, 3), (3, 2, 1), (1, 1, 1)))
DRIFTING_TOY = toy_system(((0, 1, 2), (1, 1, 1), (1, 1, 1), (1, 1, 1)))


def _wide_probes(r):
    """i - s in {0, 1, r, 7r}, p in {0, 1, 10**6}, at two shifts s."""
    return [(t + s, p, s) for t in (0, 1, r, 7 * r) for p in (0, 1, 10**6) for s in (0, 7)]


def _tuples(*values):
    return [v.as_tuple() for v in values]


class TestMomentsAgainstReference:
    """The moment identities give the previous shift and residual constants."""

    @pytest.mark.parametrize("r", range(2, 13))
    def test_real_systems(self, r):
        resc = _rescaled(r)
        delta = shift_constant(resc)
        assert _tuples(delta) == _tuples(_reference_shift_constant(resc))
        got = _tuples(*residual_constants(resc, delta))
        assert got == _tuples(*_reference_residual_constants(resc, delta))
        assert got == _tuples(*_reference_residual_constants(resc, delta, _wide_probes(r)))
        assert got == _tuples(*residual_constants(resc))

    @pytest.mark.parametrize("toy", [SYMMETRIC_TOY, SKEWED_TOY], ids=["symmetric", "skewed"])
    def test_toy_systems(self, toy):
        resc = rescale(toy)
        delta = shift_constant(resc)
        assert _tuples(delta) == _tuples(_reference_shift_constant(resc))
        got = _tuples(*residual_constants(resc, delta))
        assert got == _tuples(*_reference_residual_constants(resc, delta, _wide_probes(1)))

    def test_skewed_toy_shift(self):
        assert shift_constant(rescale(SKEWED_TOY)) == Q(Fraction(-1, 3))

    def test_drifting_toy_is_refused_both_ways(self):
        resc = rescale(DRIFTING_TOY)
        for shift in (shift_constant, _reference_shift_constant):
            with pytest.raises(ValueError):
                shift(resc)
        # with drift no shift makes the residual constant
        for delta in (Q(0), Q(Fraction(1, 2)), Q(-1)):
            with pytest.raises(AssertionError):
                residual_constants(resc, delta)
            with pytest.raises(AssertionError):
                _reference_residual_constants(resc, delta, _wide_probes(1))

    @pytest.mark.parametrize("r", [2, 5, 8])
    def test_wrong_shift_refused_both_ways(self, r):
        # s0 does not depend on delta, so only the s1 test catches this
        resc = _rescaled(r)
        wrong = shift_constant(resc) + Q(Fraction(1, 1000))
        with pytest.raises(AssertionError):
            residual_constants(resc, wrong)
        with pytest.raises(AssertionError):
            _reference_residual_constants(resc, wrong)

    @pytest.mark.parametrize("r", range(2, 9))
    def test_certificates_unchanged(self, r):
        resc = _rescaled(r)
        delta = _reference_shift_constant(resc)
        qx, qy = _reference_residual_constants(resc, delta)
        k_const = qx if qx >= qy else qy
        for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
            p, root, gap = gap_search(delta, _gap_requirement(resc, eps, k_const))
            want = certificate_from_peak(resc, eps, p, root, delta, k_const, gap)
            got = build_certificate(resc, eps)
            for field in ("p", "root_p", "s", "delta", "k_const", "gap"):
                assert getattr(got, field).as_tuple() == getattr(want, field).as_tuple(), field
            assert (got.epsilon, got.support_x, got.support_y) == (
                want.epsilon, want.support_x, want.support_y)

    @pytest.mark.parametrize("r", [2, 5])
    def test_clipped_profiles_match_reference(self, r):
        resc = _rescaled(r)
        cert = build_certificate(resc, Fraction(1, 10))
        zero = _Q(0)
        for i in range(cert.support_y[0] - 2, cert.support_x[1] + 3, 7):
            hx = _reference_profile_x(resc, cert.p, cert.s, i)
            hy = _reference_profile_y(resc, cert.delta, cert.p, cert.s, i)
            assert cert.xbar(resc, i).as_tuple() == max(hx, zero).as_tuple()
            assert cert.ybar(resc, i).as_tuple() == max(hy, zero).as_tuple()
