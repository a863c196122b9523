import json
import random
from math import comb

import pytest

from ncmatch.chains import ChainOperator, runner_counts, runner_series
from ncmatch.corners import (
    _condensed_matrices,
    _condensed_matrix,
    _coupled_cone,
    _coupled_operator,
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
from ncmatch.zigzag import zigzag_series

from conftest import as_fraction

KINDS = ("down-free", "all")

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
            if cp:
                acc_c += sum(I[lo:hi:2]) * cp
                acc_f += sum(U[lo:hi:2]) * cp
            if fp:
                acc_c += sum(Z[lo:hi:2]) * fp
                acc_f += sum(W[lo:hi:2]) * fp
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

    @pytest.mark.parametrize("r,k", [(1, 15), (3, 5), (5, 3), (15, 1)])
    def test_state_split_matches_oracle_at_sixteen_points(self, r, k):
        # r*k + 1 = 16: past criterion 7, which stops at 14 points
        assert census_corner_split(make_rchain(r, k, corners=True)) == coupled_series(r, k)[k]

    @pytest.mark.parametrize("r", [0, -1, -3])
    def test_arc_size_below_one_rejected(self, r):
        # with r = 0 no table is built, so kmax = 0 must not slip through
        for kmax in (0, 3):
            with pytest.raises(ValueError, match="r must be positive"):
                coupled_series(r, kmax)
            with pytest.raises(ValueError, match="r must be positive"):
                chain_counts(r, kmax)
        with pytest.raises(ValueError, match="r must be positive"):
            extract_band(r)
        with pytest.raises(ValueError, match="r must be positive"):
            coupled_step([1], [1], r)

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
    """coupled_step applies the cached extract_band coefficients to every row
    and subtracts the image windows in the head rows below r - 2; every row
    must equal the definition, the six contribution sums."""

    @pytest.mark.parametrize("r", [*range(1, 21), 40, 60])
    def test_head_width_r_is_exact_on_every_row(self, r):
        self._step_equals_exact_rows(r, "down-free")

    @pytest.mark.parametrize("r", [*range(1, 21), 40, 60])
    def test_all_kind_head_width_r_is_exact_on_every_row(self, r):
        self._step_equals_exact_rows(r, "all")

    @staticmethod
    def _step_equals_exact_rows(r, kind):
        # rows past n - r read the zero extension on the right; the image
        # correction covers the head rows below r - 2, and the cuts 1 and
        # r - 3 end inside them
        rng = random.Random(r)
        for n in sorted({1, 2, r, r + 1, 2 * r - 1, 2 * r, 2 * r + 1, 2 * r + 3, 3 * r + 7}):
            c_vec = [rng.randrange(0, 10**30) for _ in range(n)]
            f_vec = [rng.randrange(0, 10**30) for _ in range(n)]
            c_vec[rng.randrange(n)] = 0
            want_c, want_f = _exact_rows(c_vec, f_vec, r, n + r, kind)
            assert coupled_step(c_vec, f_vec, r, kind=kind) == _trimmed(want_c, want_f)
            for rows in sorted({rng.randrange(1, n + r + 1), 1, r - 3, r - 2, r, r + 1, n - r, n + r}):
                if rows >= 0:
                    got = coupled_step(c_vec, f_vec, r, rows=rows, kind=kind)
                    assert got == _trimmed(want_c[:rows], want_f[:rows])
            # unequal lengths are zero-padded, whichever state is shorter
            cut = max(1, n // 2)
            pad = [0] * (n - cut)
            want_c, want_f = _exact_rows(c_vec, f_vec[:cut] + pad, r, n + r, kind)
            assert coupled_step(c_vec, f_vec[:cut], r, kind=kind) == _trimmed(want_c, want_f)
            want_c, want_f = _exact_rows(c_vec[:cut] + pad, f_vec, r, n + r, kind)
            assert coupled_step(c_vec[:cut], f_vec, r, kind=kind) == _trimmed(want_c, want_f)

    def test_negative_row_count_rejected(self):
        with pytest.raises(ValueError, match="rows must be nonnegative"):
            coupled_step([1], [1], 2, rows=-3)
        assert coupled_step([1], [1], 2, rows=0) == ([], [])

    def test_bands_are_probed_once_per_r(self, monkeypatch):
        from ncmatch import corners

        calls = []
        real = corners.extract_band

        def probe_once(r, probe=None, *, kind="down-free"):
            calls.append((r, kind))
            return real(r, probe, kind=kind)

        monkeypatch.setattr(corners, "extract_band", probe_once)
        _coupled_operator.cache_clear()
        try:
            coupled_series(4, 10)
            chain_counts(4, 10)
            state = ([1], [1])
            for _ in range(10):
                state = coupled_step(*state, 4, kind="all")
        finally:
            _coupled_operator.cache_clear()
        assert calls == [(4, "down-free"), (4, "all")]

    def test_step_reads_the_system_bands_unrepacked(self, monkeypatch):
        from ncmatch import corners

        probed = {}
        real = corners.extract_band

        def probe(r, probe=None, *, kind="down-free"):
            return probed.setdefault((r, kind), real(r, probe, kind=kind))

        stepped = []
        real_step = ChainOperator.step

        def step(op, states, rows=None):
            stepped.append(op)
            return real_step(op, states, rows)

        monkeypatch.setattr(corners, "extract_band", probe)
        monkeypatch.setattr(ChainOperator, "step", step)
        _coupled_operator.cache_clear()
        try:
            for kind in KINDS:
                for r in range(1, 13):
                    want = _trimmed(*_exact_rows([1], [1], r, r + 1, kind))
                    assert coupled_step([1], [1], r, kind=kind) == want
                    # the step ran on the very object the probe returned,
                    # bands and image windows unrepacked
                    assert stepped[-1] is probed[r, kind]
                    assert _coupled_operator(r, kind) is probed[r, kind]
                    assert probed[r, kind] == real(r, kind=kind)
                    assert probed[r, kind].bands == real(r, kind=kind).bands
        finally:
            _coupled_operator.cache_clear()

    @pytest.mark.parametrize("r", range(1, 13))
    def test_light_cone_counts_equal_full_series(self, r):
        kmax = max(4, 72 // r)
        assert chain_counts(r, kmax) == [f[0] for _, f in coupled_series(r, kmax)]
        # two head rows, as the zigzag reads at r = 2, for both kinds: state k
        # of the cone is the first r*(kmax-k) + 2 rows of the full state
        for kind in KINDS:
            full = list(_coupled_cone(r, kmax, kind=kind))
            cone = list(_coupled_cone(r, kmax, heads=2, kind=kind))
            assert len(cone) == kmax + 1 and len(cone[-1][0]) <= 2
            for k, ((c_vec, f_vec), state) in enumerate(zip(full, cone)):
                rows = r * (kmax - k) + 2
                assert state == _trimmed(c_vec[:rows], f_vec[:rows])


_VIEWS = {"runner_counts": runner_counts, "runner_series": runner_series,
          "coupled_series": coupled_series, "chain_counts": chain_counts}


@pytest.mark.parametrize(
    "view, args",
    [
        *(pytest.param(view, (r, kmax), id=f"{name}({r},{kmax})")
          for name, view in _VIEWS.items() for r, kmax in ((0, 0), (-2, 3), (3, -1))),
        pytest.param(zigzag_series, (-1,), id="zigzag_series(-1)"),
        *(pytest.param(zigzag_series, (0, kind), id=f"zigzag_series(0,{kind})")
          for kind in ("perfect", "bogus")),
    ],
)
def test_views_refuse_at_the_call(view, args):
    # every view of the light-cone driver reads it out at once: a lazy
    # result would raise only when iterated, and kmax = 0 takes no step
    with pytest.raises(ValueError):
        view(*args)


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
                    assert _exact_rows(c_vec, f_vec, r, stop) == (want_c[:stop], want_f[:stop])

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
                    assert _exact_rows(c_vec, f_vec, r, stop) == (want_c[:stop], want_f[:stop])

    @pytest.mark.parametrize("r", range(1, 13))
    def test_left_edge_is_a_reflection(self, r):
        self._left_edge_is_a_reflection(r, "down-free")

    @pytest.mark.parametrize("r", range(1, 13))
    def test_all_kind_left_edge_is_a_reflection(self, r):
        self._left_edge_is_a_reflection(r, "all")

    @staticmethod
    def _left_edge_is_a_reflection(r, kind):
        # row i's response to a unit at j is the stabilized band at offset
        # j - i minus the window of the coupled family from i + j + 2
        coeffs = corner_coefficients(r, kind)
        operator = extract_band(r, kind=kind)
        bands = operator.bands
        families = ((coeffs.left_in, coeffs.no_corner), (coeffs.both_in, coeffs.right_in))
        # the kernel's image windows are these families' windows, [x][y]
        windows = operator.windows
        for x in range(2):
            for y in range(2):
                assert list(windows[x][y]) == [sum(families[x][y][q::2]) for q in range(r)]
        n = 3 * r + 4
        zero = [0] * n
        for j in range(n):
            unit = [0] * n
            unit[j] = 1
            responses = (_reference_rows(unit, zero, coeffs, n + r), _reference_rows(zero, unit, coeffs, n + r))
            for i in range(n + r):
                for x in range(2):
                    for y in range(2):
                        band = bands[x][y][j - i + r] if abs(j - i) <= r else 0
                        image = sum(families[x][y][i + j + 2 :: 2])
                        assert responses[y][x][i] == band - image

    @pytest.mark.parametrize("r", range(1, 31))
    def test_band_does_not_depend_on_the_probe(self, r):
        systems = [extract_band(r, probe) for probe in (2 * r, 2 * r + 2, 3 * r + 5)]
        assert systems[0] == systems[1] == systems[2]


class TestClosedFormBands:
    """The default extract_band builds the bands from the corner families;
    an explicit probe reads them off ``_exact_rows``, the definition."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("r", range(1, 61))
    def test_closed_form_equals_the_definition(self, r, kind):
        closed = extract_band(r, kind=kind)
        for probe in (2 * r, 2 * r + 2, 3 * r + 5):
            probed = extract_band(r, probe, kind=kind)
            assert closed == probed
            for x in range(2):
                for y in range(2):
                    assert closed.bands[x][y] == probed.bands[x][y]
                    assert len(closed.bands[x][y]) == 2 * r + 1

    def test_only_an_explicit_probe_reads_the_definition(self, monkeypatch):
        from ncmatch import corners

        calls = []
        real = corners._exact_rows

        def counted(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(corners, "_exact_rows", counted)
        for kind in KINDS:
            for r in (1, 2, 7, 30):
                extract_band(r, kind=kind)
        assert calls == []
        extract_band(7, 16, kind="all")
        assert calls == [7, 7]


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

    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_response_outside_the_band_is_caught(self, monkeypatch, r):
        # a probe at 2r + 2: row r + 1 is offset beta = r + 1, row r + 2 is beta = r
        from ncmatch import corners

        real, clean = corners._exact_rows, extract_band(r)

        def injected(row):
            def rows(c_prev, f_prev, r, stop, kind="down-free"):
                c_new, f_new = real(c_prev, f_prev, r, stop, kind)
                f_new[row] += 1
                return c_new, f_new

            return rows

        monkeypatch.setattr(corners, "_exact_rows", injected(r + 1))
        with pytest.raises(AssertionError, match="outside bandwidth"):
            extract_band(r, 2 * r + 2)
        monkeypatch.setattr(corners, "_exact_rows", injected(r + 2))
        moved = extract_band(r, 2 * r + 2)
        assert moved.bands[1][1][2 * r] == clean.bands[1][1][2 * r] + 1
        assert moved.bands[0] == clean.bands[0]

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


class TestAllKind:
    """Motzkin arc tails in the same recursion count all matchings."""

    @pytest.mark.parametrize("r", range(1, 8))
    def test_totals_match_oracle(self, r):
        c_vec, f_vec = [1], [1]
        for k in range(1, 12 // r + 1):
            c_vec, f_vec = coupled_step(c_vec, f_vec, r, kind="all")
            ps = make_rchain(r, k, corners=True)
            assert f_vec[0] == census(ps, MatchKind.ALL).total

    def test_zero_drift(self):
        from ncmatch.spectral import weighted_drift

        for r in range(2, 13):
            assert weighted_drift(extract_band(r, kind="all")).sign() == 0

    def test_two_chain_eigenvalue(self):
        condensed = extract_band(2, kind="all").condensed
        assert condensed == ((3, 3), (8, 6))
        assert dominant_eigenvalue(condensed).as_tuple() == (9, 1, 2, 105)

    @pytest.mark.parametrize("kind", KINDS)
    def test_families_are_nonnegative(self, kind):
        for r in range(1, 61):
            cc = corner_coefficients(r, kind)
            for family in (cc.no_corner, cc.left_in, cc.right_in, cc.both_in):
                assert len(family) == r and min(family) >= 0

    @pytest.mark.parametrize("kind", ["perfect", "bogus"])
    def test_other_kinds_rejected(self, kind):
        # perfect tails would make left_in negative: (-2, 8, -6, 4, -1) at r = 5
        for r in (1, 5):
            with pytest.raises(ValueError, match="unknown kind"):
                corner_coefficients(r, kind)
        with pytest.raises(ValueError, match="unknown kind"):
            extract_band(2, kind=kind)
        with pytest.raises(ValueError, match="unknown kind"):
            coupled_step([1], [1], 2, kind=kind)


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
        assert as_fraction(m) == 3


class TestClosedFormCondensed:
    """``_condensed_matrices`` and ``_condensed_matrix`` against the band sums
    of the operator and the probe route, the definition."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_band_sums(self, kind):
        expected = [extract_band(r, kind=kind).condensed for r in range(1, 301)]
        assert _condensed_matrices(300, kind) == expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_matrix_equals_the_list_and_the_band_sums(self, kind):
        matrices = _condensed_matrices(300, kind)
        for r in range(1, 301):
            assert _condensed_matrix(r, kind) == matrices[r - 1] == extract_band(r, kind=kind).condensed, r

    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_probe_route(self, kind):
        expected = [extract_band(r, probe=2 * r + 5, kind=kind).condensed for r in range(1, 41)]
        assert _condensed_matrices(40, kind) == expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_perturbed_recurrence_is_caught(self, kind, monkeypatch):
        # every single coefficient of the transform recurrence moved by one
        # breaks the comparison, as a wrong value or a non-integral division
        from ncmatch import chains

        expected = [extract_band(r, kind=kind).condensed for r in range(1, 41)]
        starts, coefficients = chains._TRANSFORM_RECURRENCES[kind]
        flat = [*starts, *(c for pair in coefficients for c in pair)]
        for at in range(len(flat)):
            moved = [c + (k == at) for k, c in enumerate(flat)]
            table = (tuple(moved[:2]), tuple(zip(moved[2::2], moved[3::2])))
            monkeypatch.setitem(chains._TRANSFORM_RECURRENCES, kind, table)
            try:
                assert _condensed_matrices(40, kind) != expected, at
            except ArithmeticError:
                pass
            try:
                assert [_condensed_matrix(r, kind) for r in range(1, 41)] != expected, at
            except ArithmeticError:
                pass

    @pytest.mark.parametrize("limit", [0, -1, -7])
    def test_limit_below_one_rejected(self, limit):
        with pytest.raises(ValueError, match="limit must be positive"):
            _condensed_matrices(limit)

    @pytest.mark.parametrize("r", [0, -1, -7])
    def test_single_matrix_r_below_one_rejected(self, r):
        with pytest.raises(ValueError, match="r must be positive"):
            _condensed_matrix(r)

    @pytest.mark.parametrize("kind", ["perfect", "bogus"])
    def test_other_kinds_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown kind"):
            _condensed_matrices(5, kind)
        with pytest.raises(ValueError, match="unknown kind"):
            _condensed_matrix(5, kind)

    def test_growth_reads_one_matrix(self, monkeypatch, capsys):
        from ncmatch import corners
        from ncmatch.cli import main

        monkeypatch.setattr(corners, "_condensed_matrices", lambda *a: pytest.fail("every smaller r built"))
        assert main(["growth", "--r", "8", "--corners"]) == 0
        assert json.loads(capsys.readouterr().out)["base_per_point"] == "3.093005695"

    def test_consumers_build_no_band(self, monkeypatch, capsys):
        from ncmatch import corners
        from ncmatch.cli import main
        from ncmatch.zigzag import growth_constant

        def refuse(*args, **kwargs):
            raise AssertionError("a band was built")

        monkeypatch.setattr(corners, "extract_band", refuse)
        monkeypatch.setattr(corners, "_head_tables", refuse)
        assert [cond for _, cond, _ in condensed_table(8)] == [CONDENSED_FIXTURES[r] for r in range(1, 9)]
        for kind in KINDS:
            growth_constant(kind)
        assert main(["growth", "--r", "8", "--corners"]) == 0
        assert main(["table", "--max-r", "20", "--corners"]) == 0
        capsys.readouterr()
