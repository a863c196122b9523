import random
from math import comb

import pytest

from ncmatch.chains import _parity_prefix
from ncmatch.corners import (
    _exact_rows,
    chain_counts,
    condensed_table,
    corner_coefficients,
    coupled_series,
    coupled_step,
    dominant_eigenvalue,
    extract_band,
)
from ncmatch.geometry import Parity, make_rchain, make_zigzag
from ncmatch.oracle import MatchKind, census, census_corner_split

CONDENSED_FIXTURES = {
    1: ((1, 1), (2, 2)),
    2: ((3, 3), (7, 6)),
    3: ((10, 9), (21, 19)),
    4: ((31, 28), (66, 59)),
    5: ((97, 87), (204, 184)),
    6: ((301, 271), (632, 572)),
    7: ((933, 843), (1952, 1776)),
    8: ((2885, 2619), (6022, 5504)),
}

RATE_FIXTURES = {
    1: 3.0000,
    2: 3.0532,
    3: 3.0711,
    4: 3.0819,
    5: 3.0877,
    6: 3.0909,
    7: 3.0925,
    8: 3.0930,
    9: 3.0929,
}


def coefficient_product_forms_agree(r: int) -> bool:
    """The bracketed differences of corner_coefficients equal their closed
    product forms."""

    def comb0(n: int, k: int) -> int:
        return comb(n, k) if 0 <= k <= n else 0

    cc = corner_coefficients(r)
    for a in range(r):
        pick = comb(r - 1, a)
        rest = r - 1 - a
        if cc.left_in[a] != pick * comb0(rest, (rest - 1) // 2):
            return False
        if cc.both_in[a] != pick * comb0(rest + 1, rest // 2):
            return False
    return True


def _reference_rows(c_prev, f_prev, coeffs, stop):
    """Rows 0..stop-1 of one step, row by row from the six contribution
    sums: every row loops over all of its window offsets."""
    r = coeffs.r
    Z, I, W, U = coeffs.no_corner, coeffs.left_in, coeffs.right_in, coeffs.both_in
    pz, pi, pw, pu = map(_parity_prefix, (Z, I, W, U))
    n = len(c_prev)
    c_new = [0] * stop
    f_new = [0] * stop
    for i in range(stop):
        acc_c = 0
        acc_f = 0
        # a runner from the previous corner leaves the arc to the right:
        # alpha = i - 1 - j new runners join it
        for a in range(min(r - 1, i - 1) + 1):
            cp = c_prev[i - 1 - a] if i - 1 - a < n else 0
            if cp:
                acc_c += Z[a] * cp
                acc_f += W[a] * cp
        # the new corner's runner reaches back past the previous corner:
        # all alpha arc runners must match to the left
        for a in range(r):
            j = i + 1 + a
            if j < n:
                if c_prev[j]:
                    acc_f += I[a] * c_prev[j]
                if f_prev[j]:
                    acc_f += Z[a] * f_prev[j]
        # window-coupled terms: arc runners fuse with j existing runners,
        # |i-j| <= alpha <= min(r-1, i+j), alpha = i-j (mod 2)
        for j in range(max(0, i - (r - 1)), min(n, i + r)):
            cp, fp = c_prev[j], f_prev[j]
            if not (cp or fp):
                continue
            lo = abs(i - j)
            hi = min(r - 1, i + j) + 1
            p = lo & 1
            if cp:
                acc_c += (pi[p][hi] - pi[p][lo]) * cp
                acc_f += (pu[p][hi] - pu[p][lo]) * cp
            if fp:
                acc_c += (pz[p][hi] - pz[p][lo]) * fp
                acc_f += (pw[p][hi] - pw[p][lo]) * fp
        c_new[i] = acc_c
        f_new[i] = acc_f
    return c_new, f_new


class TestCoefficients:
    @pytest.mark.parametrize("r", range(1, 21))
    def test_product_and_difference_forms_agree(self, r):
        assert coefficient_product_forms_agree(r)

    def test_small_values(self):
        cc = corner_coefficients(2)
        assert cc.no_corner == (1, 1)
        assert cc.left_in == (1, 0)
        assert cc.right_in == (2, 1)
        assert cc.both_in == (1, 1)

    def test_right_in_splits_into_no_corner_plus_left_in(self):
        # the corner point is either unmatched or matched, entrywise; this
        # identity is what makes the weighted drift vanish for every r
        for r in range(1, 15):
            cc = corner_coefficients(r)
            for a in range(r):
                assert cc.right_in[a] == cc.no_corner[a] + cc.left_in[a]


class TestCoupledRecursion:
    def test_first_plain_count_is_arc_count(self):
        # one arc of three points: three down-free matchings
        assert chain_counts(2, 1) == [1, 3]

    def test_two_chain_counts_match_zigzag_chain(self):
        counts = chain_counts(2, 6)
        for k in range(1, 6):
            ps = make_zigzag(2 * k + 1, Parity.EVEN)
            assert census(ps, MatchKind.DOWN_FREE).total == counts[k]

    @pytest.mark.parametrize("r,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1)])
    def test_state_split_matches_oracle(self, r, k):
        ps = make_rchain(r, k, corners=True)
        with_mark, without = census_corner_split(ps)
        want_c, want_f = coupled_series(r, k)[k]
        assert with_mark == want_c
        assert without == want_f

    def test_states_stay_nonnegative_with_bounded_support(self):
        for r in (2, 3, 5):
            for k, (c, f) in enumerate(coupled_series(r, 5)):
                assert len(c) <= r * k + 1 and len(f) <= r * k + 1
                assert all(v >= 0 for v in c) and all(v >= 0 for v in f)


def _trimmed(c_vec, f_vec):
    """Drop trailing entries that are zero in both states, as coupled_step does."""
    while len(c_vec) > 1 and c_vec[-1] == 0 and f_vec[-1] == 0:
        c_vec, f_vec = c_vec[:-1], f_vec[:-1]
    return c_vec, f_vec


class TestBandedKernel:
    """coupled_step evaluates rows below r from the six contribution sums and
    the rest from the cached extract_band coefficients; every row must equal
    the definition."""

    @pytest.mark.parametrize("r", range(1, 21))
    def test_head_width_r_is_exact_on_every_row(self, r):
        rng = random.Random(r)
        coeffs = corner_coefficients(r)
        for n in (1, 2, r, r + 1, 2 * r + 3, 3 * r + 7):
            c_vec = [rng.randrange(0, 10**30) for _ in range(n)]
            f_vec = [rng.randrange(0, 10**30) for _ in range(n)]
            c_vec[rng.randrange(n)] = 0
            want_c, want_f = _exact_rows(c_vec, f_vec, coeffs, n + r)
            assert coupled_step(c_vec, f_vec, coeffs) == _trimmed(want_c, want_f)
            rows = rng.randrange(1, n + r + 1)
            assert coupled_step(c_vec, f_vec, coeffs, rows=rows) == _trimmed(want_c[:rows], want_f[:rows])
            # unequal lengths are zero-padded
            short = f_vec[: max(1, n // 2)]
            want_c, want_f = _exact_rows(c_vec, short + [0] * (n - len(short)), coeffs, n + r)
            assert coupled_step(c_vec, short, coeffs) == _trimmed(want_c, want_f)

    def test_bands_are_probed_once_per_r(self, monkeypatch):
        from ncmatch import corners

        calls = []
        real = corners.extract_band
        monkeypatch.setattr(corners, "extract_band", lambda r, probe=None: calls.append(r) or real(r, probe))
        corners._stable_bands.cache_clear()
        try:
            coupled_series(4, 10)
            chain_counts(4, 10)
        finally:
            corners._stable_bands.cache_clear()
        assert calls == [4]

    def test_step_reads_the_system_bands_unrepacked(self, monkeypatch):
        from ncmatch import corners

        probed = {}
        real = corners.extract_band
        monkeypatch.setattr(corners, "extract_band", lambda r, probe=None: probed.setdefault(r, real(r, probe)))
        corners._stable_bands.cache_clear()
        try:
            for r in range(1, 13):
                assert corners._stable_bands(r) is probed[r].bands
                assert probed[r].bands == real(r).bands
        finally:
            corners._stable_bands.cache_clear()

    @pytest.mark.parametrize("r", range(1, 13))
    def test_light_cone_counts_equal_full_series(self, r):
        kmax = max(4, 72 // r)
        assert chain_counts(r, kmax) == [f[0] for _, f in coupled_series(r, kmax)]


# every stop is checked up to r = 20; at 40 and 60 the stops where a bound
# of the column loop changes, which keeps the reference affordable
_SIZES = list(range(1, 21)) + [40, 60]


def _stops(r, n):
    if r <= 20:
        return range(n + r + 1)
    return sorted({s for s in (0, 1, r - 1, r, r + 1, 2 * r, n - r, n - 1, n, n + 1, n + r - 1, n + r) if 0 <= s <= n + r})


class TestExactRowsAgainstReference:
    """_exact_rows visits only the nonzero inputs; the row-by-row reference
    visits every window offset of every row."""

    @pytest.mark.parametrize("r", _SIZES)
    def test_unit_probes(self, r):
        coeffs = corner_coefficients(r)
        n = 3 * r + 4
        zero = [0] * n
        for idx in range(n):
            unit = [0] * n
            unit[idx] = 1
            for c_vec, f_vec in ((unit, zero), (zero, unit)):
                want_c, want_f = _reference_rows(c_vec, f_vec, coeffs, n + r)
                for stop in _stops(r, n):
                    assert _exact_rows(c_vec, f_vec, coeffs, stop) == (want_c[:stop], want_f[:stop])

    @pytest.mark.parametrize("r", _SIZES)
    def test_sparse_random_vectors(self, r):
        rng = random.Random(1000 + r)
        coeffs = corner_coefficients(r)
        for n in (1, r, 2 * r + 3, 3 * r + 4):
            for density in (0, 0.1, 0.5, 1):
                draw = lambda: [rng.randrange(1, 10**30) if rng.random() < density else 0 for _ in range(n)]
                c_vec, f_vec = draw(), draw()
                want_c, want_f = _reference_rows(c_vec, f_vec, coeffs, n + r)
                for stop in _stops(r, n):
                    assert _exact_rows(c_vec, f_vec, coeffs, stop) == (want_c[:stop], want_f[:stop])

    @pytest.mark.parametrize("r", range(1, 31))
    def test_band_does_not_depend_on_the_probe(self, r):
        systems = [extract_band(r, probe) for probe in (2 * r, 2 * r + 2, 3 * r + 5)]
        assert systems[0] == systems[1] == systems[2]


class TestBandExtraction:
    @pytest.mark.parametrize("r", sorted(CONDENSED_FIXTURES))
    def test_condensed_fixtures(self, r):
        assert extract_band(r).condensed == CONDENSED_FIXTURES[r]

    def test_jump_matrix_for_eight(self):
        assert extract_band(8).jumps == ((-2619, 0), (-2619, 2619))

    def test_positivity_hypothesis_by_r(self):
        # the smallest parameters leave a structural zero at offset +1
        assert not extract_band(1).positive_core
        assert not extract_band(2).positive_core
        for r in range(3, 10):
            assert extract_band(r).positive_core

    @pytest.mark.parametrize("r", [2, 3, 5, 8])
    def test_probe_position_invariance(self, r):
        a = extract_band(r, probe=2 * r)
        b = extract_band(r, probe=3 * r + 1)
        assert a == b

    def test_recomputed_ninth_entry(self):
        # the bottom-right condensed entry for r = 9 recomputes to 17030
        assert extract_band(9).condensed == ((8907, 8123), (18550, 17030))

    def test_cross_band_sum_is_previous_growth_factor(self):
        from ncmatch.chains import growth_factor

        for r in range(2, 12):
            sysr = extract_band(r)
            assert sysr.condensed[0][1] == growth_factor(r - 1)

    def test_drift_pattern_is_structural(self):
        for r in range(1, 12):
            sysr = extract_band(r)
            t = sysr.condensed[0][1]
            assert sysr.jumps == ((-t, 0), (-t, t))


class TestCondensedTable:
    def test_rates(self):
        table = condensed_table(9)
        for r, condensed, rate in table:
            assert rate == pytest.approx(RATE_FIXTURES[r], abs=5e-5)
            if r in CONDENSED_FIXTURES:
                assert condensed == CONDENSED_FIXTURES[r]

    def test_eight_is_the_best_up_to_twenty(self):
        table = condensed_table(20)
        best = max(table, key=lambda row: row[2])
        assert best[0] == 8

    def test_dominant_eigenvalue_fixture(self):
        from ncmatch.quadfield import QuadNumber

        m = dominant_eigenvalue(CONDENSED_FIXTURES[8])
        assert m == QuadNumber(8389, 1, 2, 69945633)
        assert m.root_float(8) == pytest.approx(3.093005695, abs=1e-9)

    def test_single_arc_eigenvalue_is_three(self):
        m = dominant_eigenvalue(CONDENSED_FIXTURES[1])
        assert m.as_fraction() == 3
