from fractions import Fraction

import pytest

from ncmatch import zigzag
from ncmatch.geometry import Parity, make_zigzag
from ncmatch.oracle import MatchKind, census
from ncmatch.quadfield import QuadNumber
from ncmatch.zigzag import (
    all_matchings_growth_constant,
    closed_form_coeffs,
    growth_constant,
    quartic_residual,
    zigzag_series,
)


def test_base_values():
    zz = zigzag_series(3)
    assert zz.top == 3
    assert zz.a[0] == zz.b[0] == zz.c[0] == 1
    assert zz.c[1] == 2  # one edge or none on two points
    assert zz.a[1] == 3
    assert zz.b[1] == 4


def test_positive_and_dominated():
    zz = zigzag_series(30)
    for k in range(30):
        assert 0 < zz.c[k] <= zz.a[k]


@pytest.mark.parametrize("k", range(1, 6))
def test_counts_match_oracle_all_four_kinds(k):
    zz = zigzag_series(k)
    assert census(make_zigzag(2 * k + 1, Parity.EVEN), MatchKind.DOWN_FREE).total == zz.a[k]
    assert census(make_zigzag(2 * k + 1, Parity.ODD), MatchKind.DOWN_FREE).total == zz.b[k]
    assert census(make_zigzag(2 * k, Parity.EVEN), MatchKind.DOWN_FREE).total == zz.c[k]
    assert census(make_zigzag(2 * k, Parity.ODD), MatchKind.DOWN_FREE).total == zz.c[k]


class TestClosedForm:
    def test_first_coefficient(self):
        assert closed_form_coeffs(0) == [1]

    def test_equals_recursion_to_fifty(self):
        assert closed_form_coeffs(50) == list(zigzag_series(50).c)

    @pytest.mark.parametrize("k", [0, 1, 2, 150])
    def test_plain_ints_equal_recursion(self, k):
        got = closed_form_coeffs(k)
        assert got == list(zigzag_series(k).c)
        assert all(type(x) is int for x in got)

    def test_series_satisfies_quartic(self):
        series = [Fraction(c) for c in closed_form_coeffs(50)]
        assert all(x == 0 for x in quartic_residual(series, 51))

    def test_integer_series_satisfies_quartic(self):
        assert quartic_residual(closed_form_coeffs(50), 51) == [0] * 51

    def test_inverse_needs_a_unit_constant_term(self):
        inv = zigzag._inverse([-1, 3, 5], 6)
        assert _conv([-1, 3, 5], inv, 6) == [1, 0, 0, 0, 0, 0]
        with pytest.raises(AssertionError):
            zigzag._inverse([2, 1], 3)


def _conv(u, v, order):
    out = [0] * order
    for i, ui in enumerate(u[:order]):
        if ui:
            for j, vj in enumerate(v[: order - i]):
                out[i + j] += ui * vj
    return out


def test_companion_series_relations_order_thirty():
    """The generating functions of a and b are rational in that of c:

        A (1 - 2xC - 2x^2 C) = C (1 - x + 2x^2 C + 2x^3 C)
        B (1 - 2xC - 2x^2 C) = C (1 - 2x^2 C)
    """
    order = 31
    zz = zigzag_series(order)
    A, B, C = list(zz.a), list(zz.b), list(zz.c)
    xC = [0] + C
    xxC = [0, 0] + C
    xxxC = [0, 0, 0] + C
    denom = [1] + [0] * (order - 1)
    denom = [d - 2 * u - 2 * v for d, u, v in zip(denom, xC, xxC)]
    lhs_a = _conv(A, denom, order)
    rhs_a = [0] * order
    one_minus_x = [1, -1] + [0] * (order - 2)
    inner = [u + 2 * v + 2 * w for u, v, w in zip(one_minus_x + [0] * order, xxC, xxxC)]
    rhs_a = _conv(C, inner, order)
    assert lhs_a == rhs_a
    lhs_b = _conv(B, denom, order)
    inner_b = [1] + [0] * (order - 1)
    inner_b = [u - 2 * v for u, v in zip(inner_b, xxC)]
    rhs_b = _conv(C, inner_b, order)
    assert lhs_b == rhs_b


class TestGrowth:
    def test_exact_value(self):
        exact, base = growth_constant()
        assert exact == QuadNumber(9, 1, 2, 93)
        assert abs(exact.to_float() - 9.3218) < 5e-5
        assert abs(base - 3.0532) < 5e-5

    def test_ratio_converges(self):
        zz = zigzag_series(201)
        ratio = zz.c[201] / zz.c[200]
        target = growth_constant()[0].to_float()
        assert abs(ratio - target) / target < 0.01

    def test_all_matchings_exact_value(self):
        exact, base = all_matchings_growth_constant()
        assert exact == QuadNumber(9, 1, 2, 105)
        assert abs(base - 3.1022) < 5e-5
        # the reciprocal singular point solves its kernel polynomial
        sing = 1 / exact
        assert 1 - 9 * sing - 6 * sing * sing == 0


class TestAllMatchingsVariant:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_counts_match_oracle(self, k):
        za = zigzag_series(k, "all")
        assert census(make_zigzag(2 * k, Parity.EVEN), MatchKind.ALL).total == za.c[k]
        assert census(make_zigzag(2 * k + 1, Parity.EVEN), MatchKind.ALL).total == za.a[k]
        assert census(make_zigzag(2 * k + 1, Parity.ODD), MatchKind.ALL).total == za.b[k]

    def test_seven_points_even_size(self):
        za = zigzag_series(7, "all")
        assert census(make_zigzag(14, Parity.EVEN), MatchKind.ALL).total == za.c[7]

    def test_ratio_converges(self):
        za = zigzag_series(201, "all")
        ratio = za.c[201] / za.c[200]
        target = all_matchings_growth_constant()[0].to_float()
        assert abs(ratio - target) / target < 0.01
