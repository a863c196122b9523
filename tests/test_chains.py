import math
import random
from fractions import Fraction

import pytest

from ncmatch import chains
from ncmatch.chains import (
    BandMatrix,
    _banded_step,
    _binomial_transforms,
    _growth_factors,
    _parity_windows,
    _runner_operator,
    _tails,
    arc_count,
    best_arc_size,
    excursion_moments,
    growth_factor,
    runner_counts,
    runner_series,
    runner_step,
    tail_bound_certificate,
    transfer_matrix,
)
from ncmatch.corners import extract_band
from ncmatch.geometry import Direction, make_chain, make_rchain
from ncmatch.oracle import MatchKind, census, census_runners


def arc_counts(r, kind="down-free"):
    return [arc_count(r, i, kind) for i in range(r + 1)]


def excursions(mat, k):
    """Number of weight-k excursions of the walk encoded by `mat`: the
    upper-left entry of the k-th matrix power, by entry-by-entry steps."""
    vec = [1]
    for _ in range(k):
        vec = mat.apply(vec)
    return vec[0]


TABLE_GROWTH = [3, 9, 28, 87, 271, 843, 2619, 8123, 25153, 77763, 240054,
                740017, 2278329, 7006093, 21520872, 66039651, 202462113,
                620164491, 1898109900, 5805127269]

MATRIX_R5 = [
    [10, 30, 30, 20, 5, 1, 0, 0, 0, 0, 0],
    [30, 40, 50, 35, 21, 5, 1, 0, 0, 0, 0],
    [30, 50, 45, 51, 35, 21, 5, 1, 0, 0, 0],
    [20, 35, 51, 45, 51, 35, 21, 5, 1, 0, 0],
    [5, 21, 35, 51, 45, 51, 35, 21, 5, 1, 0],
    [1, 5, 21, 35, 51, 45, 51, 35, 21, 5, 1],
    [0, 1, 5, 21, 35, 51, 45, 51, 35, 21, 5],
    [0, 0, 1, 5, 21, 35, 51, 45, 51, 35, 21],
    [0, 0, 0, 1, 5, 21, 35, 51, 45, 51, 35],
    [0, 0, 0, 0, 1, 5, 21, 35, 51, 45, 51],
    [0, 0, 0, 0, 0, 1, 5, 21, 35, 51, 45],
]


class TestArcCounts:
    def test_row_for_five(self):
        assert arc_counts(5) == [10, 30, 30, 20, 5, 1]

    def test_row_for_one(self):
        assert arc_counts(1) == [1, 1]

    def test_out_of_range_is_zero(self):
        assert arc_count(5, 6) == 0
        assert arc_count(5, -1) == 0

    def test_no_runner_value_matches_oracle_arc(self):
        assert arc_count(6, 0) == 20
        ps = make_chain(6, Direction.UPWARD)
        assert census(ps, MatchKind.DOWN_FREE).total == 20

    @pytest.mark.parametrize("r", range(1, 13))
    def test_row_matches_oracle(self, r):
        assert arc_counts(r) == census_runners(make_chain(r, Direction.UPWARD))


class TestTransferMatrix:
    def test_eleven_by_eleven_fixture(self):
        assert transfer_matrix(5).dense(11) == MATRIX_R5

    @pytest.mark.parametrize("r", range(1, 13))
    def test_symmetry(self, r):
        mat = transfer_matrix(r)
        dim = 4 * r
        dense = mat.dense(dim)
        for i in range(dim):
            for j in range(dim):
                assert dense[i][j] == dense[j][i]

    @pytest.mark.parametrize("r", range(1, 13))
    def test_band_and_stabilization(self, r):
        mat = transfer_matrix(r)
        dim = 4 * r
        dense = mat.dense(dim)
        row = arc_counts(r)
        for i in range(dim):
            for j in range(dim):
                q = abs(i - j)
                if q > r:
                    assert dense[i][j] == 0
                    continue
                stable = mat.diagonal_value(j - i)
                if i + j >= r - 1:
                    assert dense[i][j] == stable
                else:
                    assert 0 < dense[i][j] <= stable
        # first row and column are the single-arc counts
        for i in range(dim):
            assert dense[0][i] == (row[i] if i <= r else 0)

    def test_stabilized_column_sum_is_growth_factor(self):
        for r in range(1, 10):
            assert transfer_matrix(r).column_sum_stabilized() == growth_factor(r)


class TestRunnerRecursion:
    def test_first_step_is_arc_row(self):
        assert runner_counts(5, 1) == arc_counts(5)

    def test_zero_steps(self):
        assert runner_counts(3, 0) == [1]

    @pytest.mark.parametrize("r,k", [(3, 1), (3, 2), (3, 3), (2, 4), (2, 5), (4, 2)])
    def test_head_matches_oracle(self, r, k):
        ps = make_rchain(r, k, corners=False)
        assert census_runners(ps) == runner_counts(r, k)

    @pytest.mark.parametrize("r", range(1, 6))
    def test_support_bound_and_positivity(self, r):
        for k in range(7):
            vec = runner_counts(r, k)
            assert len(vec) == r * k + 1
            assert all(v > 0 for v in vec)

    def test_matches_band_matrix_apply(self):
        mat = transfer_matrix(4)
        vec = [1]
        for k in range(1, 5):
            vec = mat.apply(vec)
            assert vec == runner_counts(4, k)

    @pytest.mark.parametrize("r", range(1, 13))
    def test_counts_are_a_reflected_band_power(self, r):
        # with P(u) = sum of band[beta] u^beta over beta = -r..r, entry i of
        # v_k is [u^i] P^k - [u^(i+2)] P^k: the band walks from 0 that end
        # at i, less those that end at the image i + 2 (ballot problem)
        band = _runner_operator(r).bands[0][0]
        power = [1]  # coefficients of P^k at u^-rk .. u^rk
        for k, vec in enumerate(runner_series(r, 40)):
            if k:
                grown = [0] * (len(power) + 2 * r)
                for a, p in enumerate(power):
                    for b, w in enumerate(band):
                        grown[a + b] += p * w
                power = grown
            coeff = lambda e: power[e + r * k] if e <= r * k else 0
            assert vec == [coeff(i) - coeff(i + 2) for i in range(r * k + 1)], (r, k)

    @pytest.mark.parametrize("r", range(1, 13))
    def test_power_read_equals_the_kernel_series(self, r):
        # runner_counts reads v_k off P^k; runner_series steps the kernel
        series = runner_series(r, 40)
        for k, vec in enumerate(series):
            assert runner_counts(r, k) == vec, (r, k)

    @pytest.mark.parametrize("r,k", [(2, 300), (5, 100), (8, 60)])
    def test_power_read_equals_the_kernel_at_long_runs(self, r, k):
        assert runner_counts(r, k) == runner_series(r, k)[k]


class TestBandedKernel:
    """runner_step applies the stabilized band to the zero-extended vector
    and subtracts the image windows in the head rows; every row must equal
    the entry-by-entry definition."""

    @pytest.mark.parametrize("r", [*range(1, 21), 40, 60])
    def test_head_width_r_is_exact_on_every_row(self, r):
        # lengths around r and 2r: the head rows end at r - 1, and rows
        # past n - r read the zero extension on the right
        rng = random.Random(r)
        for n in sorted({1, 2, r, r + 1, 2 * r - 1, 2 * r, 2 * r + 1, 2 * r + 3, 3 * r + 7}):
            vec = [rng.randrange(-10**30, 10**30) for _ in range(n)]
            vec[rng.randrange(n)] = 0
            want = transfer_matrix(r).apply(vec)
            assert len(want) == n + r
            assert runner_step(vec, r) == want

    @pytest.mark.parametrize("states", [1, 2])
    def test_long_band_chain_is_materialized(self, states):
        # 2(2r + 1) = 120,002 nested lazy maps overflow the C stack; one
        # output row, without image windows, keeps the call cheap
        r = 30000
        vec = list(range(2 * r + 2))
        band = (1,) * (2 * r + 1)
        outs = _banded_step((vec,) * states, ((band,) * states,) * states, (((),) * states,) * states, 1)
        assert outs == [[states * sum(vec[: r + 1])]] * states

    def test_long_running_sum_is_materialized(self):
        # the all-ones band above makes one coefficient group; distinct
        # coefficients make 2(2r + 1) = 120,002 groups, so the running sum
        # over the groups nests as deep as one group's sum does there
        r = 30000
        vec = list(range(2 * r + 2))
        bands = tuple(range(1, 2 * r + 2)), tuple(range(2 * r + 2, 4 * r + 3))
        outs = _banded_step((vec, vec), (bands, bands), (((), ()),) * 2, 1)
        want = sum(c * v for band in bands for c, v in zip(band[r:], vec))
        assert outs == [[want], [want]]

    @pytest.mark.parametrize("r", range(1, 9))
    def test_repeated_coefficients_match_the_definition(self, r):
        # band values from {0, 1, 2, 3, -1}, so that one coefficient group
        # spans offsets and both states; every row is the double loop of the
        # kernel's docstring
        rng = random.Random(100 + r)

        def reference(vecs, bands, windows, rows):
            n = max(map(len, vecs))
            size = n + r if rows is None else min(n + r, rows)
            at = lambda vec, j: vec[j] if 0 <= j < len(vec) else 0
            return [
                [
                    sum(band[beta + r] * at(vec, i + beta) for band, vec in zip(brow, vecs) for beta in range(-r, r + 1))
                    - sum(window[i + 2 + j] * v for window, vec in zip(wrow, vecs)
                          for j, v in enumerate(vec) if i + 2 + j < len(window))
                    for i in range(size)
                ]
                for brow, wrow in zip(bands, windows)
            ]

        for lengths in [(1,), (r,), (3 * r + 2,), (2 * r + 1, r), (1, 2 * r + 3)]:
            states = len(lengths)
            vecs = [[rng.randrange(-10**20, 10**20) for _ in range(m)] for m in lengths]
            bands = tuple(tuple(tuple(rng.choice((0, 1, 2, 3, -1)) for _ in range(2 * r + 1))
                                for _ in range(states)) for _ in range(states))
            width = rng.randrange(r + 4)
            windows = tuple(tuple(tuple(rng.randrange(-99, 100) for _ in range(width))
                                  for _ in range(states)) for _ in range(states))
            n = max(lengths)
            for rows in (None, 0, 1, r, n + r - 1, n + r + 5):
                want = reference(vecs, bands, windows, rows)
                assert _banded_step(vecs, bands, windows, rows) == want, (lengths, rows)

    @pytest.mark.parametrize("r", [2, 3, 5, 8])
    def test_one_multiplication_per_distinct_coefficient(self, r, monkeypatch):
        # a row scales each coefficient group's slice sum once, so with empty
        # image windows one step makes size * (distinct coefficients other
        # than 0 and 1 in bands[x]) multiplications, summed over x; one
        # multiplication per offset would be about 2r per element
        made = []

        def counting(a, b):
            made.append(None)
            return a * b

        def distinct(op):
            return [len({c for band in row for c in band} - {0, 1}) for row in op.bands]

        for op in (_runner_operator(r), extract_band(r)):
            states = len(op.bands)
            vecs = [list(range(1, 3 * r + 2))] * states
            empty = (((),) * states,) * states
            want = _banded_step(vecs, op.bands, empty)
            made.clear()
            with monkeypatch.context() as patch:
                patch.setattr(chains, "mul", counting)
                assert _banded_step(vecs, op.bands, empty) == want
            assert len(made) == len(want[0]) * sum(distinct(op))
        # the palindromic one-state band w[|q|] has r values other than
        # w[r] = 1: r per element, against 2r - 1 for one per offset
        assert distinct(_runner_operator(r)) == [r]
        if r == 5:
            assert distinct(extract_band(r)) == [8, 14]

    @pytest.mark.parametrize("r", range(1, 21))
    def test_left_edge_is_a_reflection(self, r):
        # entry (i, j) is the stabilized diagonal at i - j minus the one at
        # the image offset i + j + 2; the kernel's image windows are those
        # diagonals at offsets 0..r
        mat = BandMatrix(r)
        for i in range(3 * r + 3):
            for j in range(3 * r + 3):
                assert mat.entry(i, j) == mat.diagonal_value(i - j) - mat.diagonal_value(i + j + 2)
        assert _runner_operator(r).bands[0][0][r:] == tuple(mat.diagonal_value(q) for q in range(r + 1))

    def test_parity_windows_are_slice_sums(self):
        rng = random.Random(7)
        for n in range(12):
            row = [rng.randrange(-10**20, 10**20) for _ in range(n)]
            assert _parity_windows(row) == [sum(row[q::2]) for q in range(n)]

    def test_series_is_one_pass_of_runner_counts(self):
        series = runner_series(3, 12)
        assert len(series) == 13
        assert all(vec == runner_counts(3, k) for k, vec in enumerate(series))

    def test_negative_lengths_rejected(self):
        with pytest.raises(ValueError):
            runner_series(3, -1)
        with pytest.raises(ValueError):
            runner_step([1], -1)

    @pytest.mark.parametrize("r", [0, -1, -3])
    def test_arc_size_below_one_rejected(self, r):
        # r = 0 would run a silent all-ones recursion; k = 0 takes no step
        for k in (0, 3):
            with pytest.raises(ValueError, match="r must be positive"):
                runner_counts(r, k)
            with pytest.raises(ValueError, match="r must be positive"):
                runner_series(r, k)
        with pytest.raises(ValueError, match="r must be positive"):
            runner_step([1], r)
        with pytest.raises(ValueError, match="r must be positive"):
            excursion_moments(r)
        # a band matrix of r < 1 would apply as an empty or identity step
        for stabilized in (False, True):
            with pytest.raises(ValueError, match="r must be positive"):
                BandMatrix(r, stabilized)
        with pytest.raises(ValueError, match="r must be positive"):
            transfer_matrix(r)


class TestGrowthFactors:
    def test_table_values(self):
        assert [growth_factor(r) for r in range(1, 21)] == TABLE_GROWTH

    def test_eleven(self):
        assert growth_factor(11) == 240054
        assert abs(240054 ** (1 / 11) - 3.0840) < 5e-5

    def test_twelve(self):
        assert growth_factor(12) == 740017

    def test_twenty_rate(self):
        assert abs(growth_factor(20) ** (1 / 20) - 3.0774) < 5e-5

    def test_certified_argmax_small(self):
        r, rate = best_arc_size(20)
        assert r == 11

    def test_tail_certificate(self):
        assert tail_bound_certificate()

    def test_head_count_root_approaches_growth_factor(self):
        # polynomial factors shift the k-th root by O(log k / k); at k = 40
        # the exact count sits 17.5% under the limit and keeps closing in
        dev40 = abs(runner_counts(5, 40)[0] ** (1 / 40) - 271) / 271
        dev80 = abs(runner_counts(5, 80)[0] ** (1 / 80) - 271) / 271
        assert dev40 < 0.18
        assert dev80 < dev40


class TestExcursions:
    def test_empty_excursion(self):
        assert excursions(transfer_matrix(3), 0) == 1

    @pytest.mark.parametrize("k", range(7))
    def test_equals_runner_recursion_head(self, k):
        assert excursions(transfer_matrix(3), k) == runner_counts(3, k)[0]

    @pytest.mark.parametrize("k", range(2, 8))
    def test_stabilized_matrix_sandwich(self, k):
        full = transfer_matrix(4)
        shifted = BandMatrix(4, stabilized=True)
        assert excursions(shifted, k - 2) <= excursions(full, k) <= excursions(shifted, k)


class TestExcursionGrowth:
    def test_symmetric_unit_steps(self):
        # r = 1 walks the steps -1, 0, 1 with weight one each
        assert BandMatrix(1, stabilized=True).dense(3)[1] == [1, 1, 1]
        assert excursion_moments(1) == (3, Fraction(2, 3))

    def test_stabilized_diagonal_recovers_growth_factor(self):
        mat = transfer_matrix(5)
        steps = [(q, mat.diagonal_value(q)) for q in range(-5, 6)]
        lam, var = excursion_moments(5)
        assert lam == sum(w for _, w in steps) == growth_factor(5) == 271
        assert var == Fraction(sum(q * q * w for q, w in steps), 271) == Fraction(970, 271)

    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_polynomial_factor_diagnostic(self, r):
        # v_k[0] ~ K lambda^k k^(-3/2), K = 2 / (sqrt(2 pi) sigma^3); floats
        # only as a diagnostic, as in criterion 9
        lam, var = excursion_moments(r)
        k = 400
        K = 2 / (math.sqrt(2 * math.pi) * float(var) ** 1.5)
        ratio = float(Fraction(runner_counts(r, k)[0], lam**k)) * k**1.5 / K
        assert ratio == pytest.approx(1, rel=0.01)

    @pytest.mark.parametrize("r,expected", [(1, 0.998783), (2, 0.999391), (5, 0.999682)])
    def test_polynomial_factor_diagnostic_at_research_size(self, r, expected):
        # the same ratio at k = 2000, which the power read makes cheap; it
        # closes in on 1 as O(1/k): (1 - ratio) k reads 2.43, 1.22 and 0.64
        # at r = 1, 2, 5 for every k from 400 to 2000
        lam, var = excursion_moments(r)
        k = 2000
        K = 2 / (math.sqrt(2 * math.pi) * float(var) ** 1.5)
        ratio = float(Fraction(runner_counts(r, k)[0], lam**k)) * k**1.5 / K
        assert ratio == pytest.approx(1, rel=0.002)
        assert ratio == pytest.approx(expected, rel=1e-5)


class TestVariants:
    def test_down_free_is_default(self):
        assert growth_factor(5, "down-free") == 271

    @pytest.mark.parametrize("r", range(1, 9))
    def test_perfect_variant_matches_oracle(self, r):
        """Single-arc configurations with i runners and no free point."""
        ps = make_chain(r, Direction.UPWARD)
        table = census(ps, MatchKind.RHO_DOWN_FREE).by_free_and_runners
        for i in range(r + 1):
            assert table.get((0, i), 0) == arc_count(r, i, "perfect")

    def test_rate_trends(self):
        """Per-point rates rise toward 3 (perfect) and 4 (all matchings)."""
        pm = [growth_factor(r, "perfect") for r in range(2, 26)]
        am = [growth_factor(r, "all") for r in range(2, 26)]
        pm_rates = [v ** (1 / (r + 2)) for r, v in enumerate(pm)]
        am_rates = [v ** (1 / (r + 2)) for r, v in enumerate(am)]
        assert all(x < y for x, y in zip(pm_rates, pm_rates[1:]))
        assert all(x < y for x, y in zip(am_rates, am_rates[1:]))
        assert 2.7 < pm_rates[-1] < 3
        assert 3.6 < am_rates[-1] < 4


def _reference_best_arc_size(lams: list[int]) -> tuple[int, float]:
    """Arg-max of lams[r - 1] ** (1/r), compared by exact cross powers."""
    best_r = 1
    for r in range(2, len(lams) + 1):
        if lams[r - 1] ** best_r > lams[best_r - 1] ** r:
            best_r = r
    return best_r, float(lams[best_r - 1]) ** (1.0 / best_r)


class TestBatchGrowthFactors:
    @pytest.mark.parametrize("kind", ["down-free", "perfect", "all"])
    def test_one_pass_equals_per_r_factors(self, kind):
        assert _growth_factors(300, kind) == [growth_factor(r, kind) for r in range(1, 301)]

    @pytest.mark.parametrize("kind", ["down-free", "perfect", "all"])
    def test_best_arc_size_equals_reference_loop(self, kind):
        lams = [growth_factor(r, kind) for r in range(1, 191)]
        for limit in [*range(1, 61), 190]:
            assert best_arc_size(limit, kind) == _reference_best_arc_size(lams[:limit])

    @pytest.mark.parametrize("kind", ["down-free", "perfect", "all"])
    def test_recurrence_equals_binomial_transform(self, kind):
        tails = _tails(301, kind)
        transform = [sum(math.comb(m, j) * tails[j] for j in range(m + 1)) for m in range(301)]
        assert _binomial_transforms(301, kind) == transform

    @pytest.mark.parametrize("kind", ["down-free", "perfect", "all"])
    def test_perturbed_recurrence_is_caught(self, kind, monkeypatch):
        # every single coefficient moved by one breaks the comparison with
        # the definition, as a wrong value or as a non-integral division
        expected = [growth_factor(r, kind) for r in range(1, 41)]
        starts, coefficients = chains._TRANSFORM_RECURRENCES[kind]
        flat = [*starts, *(c for pair in coefficients for c in pair)]
        for at in range(len(flat)):
            moved = [c + (k == at) for k, c in enumerate(flat)]
            table = (tuple(moved[:2]), tuple(zip(moved[2::2], moved[3::2])))
            monkeypatch.setitem(chains._TRANSFORM_RECURRENCES, kind, table)
            try:
                assert _growth_factors(40, kind) != expected, at
            except ArithmeticError:
                pass

    def test_non_integral_step_raises(self, monkeypatch):
        # 2 a(m) = a(m-1) from a(1) = 1 halves 1 at m = 2
        monkeypatch.setitem(chains._TRANSFORM_RECURRENCES, "all", ((1, 1), ((0, 2), (0, 1), (0, 0))))
        with pytest.raises(ArithmeticError, match="not integral at m = 2"):
            _growth_factors(5, "all")

    @pytest.mark.parametrize("kind", ["down-free", "perfect"])
    def test_tail_bound_inequality(self, kind):
        # a(r) <= sum_j C(r, j) 2^j = 3^r, so growth_factor(r) <= 3^(r-1) (r+3)
        # <= (r+1) 3^r, the bound tail_bound_certificate relies on
        transforms = _binomial_transforms(301, kind)
        for r in range(1, 301):
            assert transforms[r] <= 3**r
            assert growth_factor(r, kind) <= 3 ** (r - 1) * (r + 3) <= (r + 1) * 3**r

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            best_arc_size(5, "bogus")
        with pytest.raises(ValueError, match="unknown kind"):
            _growth_factors(5, "bogus")
        for i in (6, -1):
            with pytest.raises(ValueError, match="unknown kind"):
                arc_count(5, i, "bogus")
