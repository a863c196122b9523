from fractions import Fraction

import pytest

from ncmatch.corners import CoupledSystem, extract_band
from ncmatch.quadfield import QuadNumber
from ncmatch.spectral import (
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
    condensed = ((sum(cc), sum(cf)), (sum(fc), sum(ff)))
    jump = lambda band: sum((off - r) * v for off, v in enumerate(band))
    jumps = ((jump(cc), jump(cf)), (jump(fc), jump(ff)))
    core = all(b[r + o] > 0 for b in bands for o in (-1, 0, 1))
    return CoupledSystem(r, cc, cf, fc, ff, condensed, jumps, core)


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
        sys_ = toy_system(((1, 1, 1),) * 4)
        biased = CoupledSystem(
            1, sys_.band_cc, sys_.band_cf, sys_.band_fc, sys_.band_ff,
            sys_.condensed, ((1, 0), (0, 0)), sys_.positive_core,
        )
        assert weighted_drift(biased).sign() > 0


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
        tot = lambda band: sum(band[1:], band[0])
        assert tot(resc.xx) + tot(resc.yx) == resc.m
        assert tot(resc.xy) + tot(resc.yy) == resc.m

    def test_rescaled_drift_sum_form_vanishes(self):
        resc = rescale(extract_band(8))
        pix, piy = resc.pi
        total = pix * (resc.jump(resc.xx) + resc.jump(resc.yx)) + piy * (
            resc.jump(resc.xy) + resc.jump(resc.yy)
        )
        assert total.sign() == 0


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

    @pytest.mark.parametrize("r", [2, 8])
    def test_constant_across_probe_grid(self, r):
        resc = rescale(extract_band(r))
        delta = shift_constant(resc)
        base = residual_constants(resc, delta)
        wide = residual_constants(
            resc, delta,
            probes=[(i, p, s) for i in (3 * r, 3 * r + 1, 5 * r) for p in (10, 100) for s in (0, 7)],
        )
        assert base == wide

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
