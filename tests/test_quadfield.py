import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from ncmatch.quadfield import QuadNumber, _cleared

from conftest import as_fraction

M8 = QuadNumber(8389, 1, 2, 69945633)


def test_square_factor_extraction():
    # 69945633 = 9 * 7771737
    assert M8.as_tuple() == (8389, 3, 2, 7771737)
    assert QuadNumber(0, 1, 1, 12) == QuadNumber(0, 2, 1, 3)


def test_perfect_square_radicand_collapses_to_rational():
    assert as_fraction(QuadNumber(1, 1, 2, 9)) == Fraction(2)  # (1 + 3)/2
    assert as_fraction(QuadNumber(5, 2, 3, 0)) == Fraction(5, 3)


def test_as_fraction_refuses_irrational():
    with pytest.raises(ValueError):
        as_fraction(M8)


def test_arithmetic_mixed_with_rationals():
    root93 = QuadNumber.sqrt_of(93)
    x = (root93 + 9) / 2
    assert x == QuadNumber(9, 1, 2, 93)
    assert x * 2 - 9 == root93
    assert (x - x).sign() == 0
    assert as_fraction(root93 * root93) == 93


def test_defining_polynomial_of_growth_rate():
    # (9 + sqrt(93))/2 is a root of x^2 - 9x - 3
    x = QuadNumber(9, 1, 2, 93)
    assert x * x - 9 * x - 3 == 0
    # and (sqrt(105) - 9)/12 is a root of 1 - 9x - 6x^2
    y = QuadNumber(-9, 1, 12, 105)
    assert 1 - 9 * y - 6 * y * y == 0


def test_ordering_needs_certified_sqrt_comparison():
    # 7 < 5 + sqrt(5) < 8 and sqrt(5) vs 9/4: 80 vs 81
    v = QuadNumber(5, 1, 1, 5)
    assert 7 < v < 8
    assert QuadNumber.sqrt_of(5) < Fraction(9, 4)
    assert QuadNumber.sqrt_of(5) > Fraction(11, 5)


def test_floor_and_ceil():
    assert QuadNumber(9, 1, 2, 93).floor() == 9  # 9.3218...
    assert QuadNumber(9, 1, 2, 93).ceil() == 10
    assert QuadNumber(-9, -1, 2, 93).floor() == -10
    assert QuadNumber(7, 0, 2).floor() == 3
    assert QuadNumber.sqrt_of(4).floor() == 2


def test_division_and_inverse():
    x = QuadNumber(3, 2, 5, 7)
    assert x * x.inverse() == 1
    assert (x / x) == 1
    with pytest.raises(ZeroDivisionError):
        QuadNumber(0).inverse()


def test_incompatible_radicands_rejected():
    with pytest.raises(ValueError):
        QuadNumber.sqrt_of(2) + QuadNumber.sqrt_of(3)


def test_to_float_precision():
    import math

    assert abs(QuadNumber.sqrt_of(2).to_float() - math.sqrt(2)) < 1e-14
    assert abs(M8.to_float() - 8376.175292272224) < 1e-8
    assert abs(M8.root_float(8) - 3.093005695) < 1e-9


@pytest.mark.parametrize("n", [1, 3, 100, 1000])
def test_root_float_past_float_range(n):
    # M8**n for n >= 100 does not fit a float; the root comes from logarithms
    big = M8 ** n
    got = big.root_float(n)
    assert abs(got - M8.to_float()) < 1e-9 * M8.to_float()
    if n >= 100:
        with pytest.raises(OverflowError):
            big.to_float()


def _approx_reference(x, bits):
    # the three-fraction form: a/c + (b/c) * isqrt(d * 4**bits) / 2**bits
    if x.b == 0:
        return Fraction(x.a, x.c)
    root = Fraction(isqrt(x.d << (2 * bits)), 1 << bits)
    return Fraction(x.a, x.c) + Fraction(x.b, x.c) * root


@pytest.mark.parametrize("bits", [1, 96, 200])
def test_approx_is_the_three_fraction_form(bits):
    rng = random.Random(3400 + bits)
    radicands = [2, 7, 12, 18, 50, 3 * 20011**2, 93]
    for _ in range(2000):
        b = rng.choice([0, rng.randint(-10**20, -1), rng.randint(1, 10**20)])
        d = rng.choice(radicands + [rng.randint(2, 10**30)])
        x = QuadNumber(rng.randint(-10**30, 10**30), b, rng.randint(1, 10**25), d)
        got, want = x.approx(bits), _approx_reference(x, bits)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@given(
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(1, 20),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(1, 20),
)
def test_field_axioms_sampled(a1, b1, c1, a2, b2, c2):
    d = 7
    x = QuadNumber(a1, b1, c1, d)
    y = QuadNumber(a2, b2, c2, d)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * (x - y) == x * x - y * y
    if y.sign() != 0:
        assert (x / y) * y == x


@given(st.integers(-10_000, 10_000), st.integers(-200, 200), st.integers(1, 97))
def test_floor_matches_float_for_moderate_values(a, b, c):
    x = QuadNumber(a, b, c, 93)
    fl = x.floor()
    assert fl <= x.to_float() + 1e-9
    assert x.to_float() - 1 - 1e-9 <= fl
    # exact bracketing
    assert (x - fl).sign() >= 0
    assert (x - (fl + 1)).sign() < 0


# 20011 is the first prime above the split's small-prime limit, so the square
# factor in 3 * 20011**2 stays inside the radicand.
BIG_P = 20011


def test_radicand_beyond_split_limit_equals_its_reduced_form():
    wide = QuadNumber(0, 1, 1, BIG_P * BIG_P * 3)
    narrow = QuadNumber(0, BIG_P, 1, 3)
    assert wide.d == BIG_P * BIG_P * 3 and narrow.d == 3
    assert wide == narrow
    assert not wide != narrow
    assert wide <= narrow and wide >= narrow
    assert wide != QuadNumber(0, BIG_P + 1, 1, 3)
    assert wide < QuadNumber(1, BIG_P, 1, 3)


def test_hash_ignores_which_radicand_carries_the_value():
    wide = QuadNumber(5, 1, 7, BIG_P * BIG_P * 3)
    narrow = QuadNumber(5, BIG_P, 7, 3)
    assert wide == narrow
    assert hash(wide) == hash(narrow)
    assert len({wide, narrow}) == 1
    assert hash(QuadNumber(3, 0, 4)) == hash(Fraction(3, 4))


def test_mixed_arithmetic_beyond_split_limit():
    wide = QuadNumber(1, 1, 1, BIG_P * BIG_P * 3)  # 1 + 20011 sqrt 3
    narrow = QuadNumber.sqrt_of(3)
    assert (wide + narrow).as_tuple() == (1, BIG_P + 1, 1, 3)
    assert (wide - narrow).as_tuple() == (1, BIG_P - 1, 1, 3)
    assert (wide * narrow).as_tuple() == (3 * BIG_P, 1, 1, 3)
    assert (wide / narrow) * narrow == wide
    assert (narrow * narrow * BIG_P * BIG_P - wide * wide + 2 * wide) == 1
    # both radicands keep a shared square factor: the gcd keeps it
    assert QuadNumber.sqrt_of(BIG_P**2 * 3) * QuadNumber.sqrt_of(BIG_P**4 * 3) == 3 * BIG_P**3


def test_cleared_numerators_share_one_radicand_and_denominator():
    narrow = QuadNumber(1, 2, 3, 3)
    wide = QuadNumber(5 * BIG_P, 7, 11 * BIG_P, BIG_P * BIG_P * 3)  # (5 + 7 sqrt 3) / 11
    half = QuadNumber(1, 0, 2)
    assert wide.d != narrow.d
    for values in ([narrow, wide, half], [wide, half, narrow], [half, half]):
        d, den, nums = _cleared(values)
        assert d == (3 if len(values) == 3 else 1) and den > 0
        assert [QuadNumber(a, b, den, d) for a, b in nums] == values
    with pytest.raises(ValueError, match="incompatible radicands"):
        _cleared([wide, QuadNumber.sqrt_of(2)])


def test_different_fields_still_rejected_beyond_split_limit():
    with pytest.raises(ValueError, match="incompatible radicands"):
        QuadNumber.sqrt_of(BIG_P * BIG_P * 3) + QuadNumber.sqrt_of(2)
    with pytest.raises(ValueError, match="incompatible radicands"):
        QuadNumber.sqrt_of(BIG_P * BIG_P * 3) == QuadNumber.sqrt_of(BIG_P * BIG_P * 2)


def test_floor_is_exact_far_beyond_float_precision():
    big = 10**40
    x = QuadNumber(big, 1, 1, 2)  # big + sqrt 2
    assert x.floor() == big + 1
    assert (-x).floor() == -big - 2
    assert QuadNumber(2 * big + 1, -3, 2, 7).floor() == big - 4  # sqrt 63 = 7.93...


_OPERAND = st.tuples(
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
    st.integers(1, 10**4),
    st.sampled_from([2, 7, 12, 18, 93, 69945633]),
)


@given(_OPERAND, _OPERAND, st.integers(-5, 5), st.fractions(max_denominator=50))
def test_arithmetic_results_are_in_constructor_form(p1, p2, k, q):
    x, y = QuadNumber(*p1), QuadNumber(*p2)
    results = [-x, x.inverse() if x else x, x ** 3, x + k, k - x, x * q, q / x if x else x]
    if x.d == y.d or x.b == 0 or y.b == 0:
        results += [x + y, x - y, x * y]
        if y:
            results.append(x / y)
    for res in results:
        assert res.as_tuple() == QuadNumber(*res.as_tuple()).as_tuple()


# radicands of one field, Q(sqrt 3): 12 splits to 3, 3 * 20011**2 does not
_FIELD3_OPERAND = st.tuples(
    st.integers(-10**6, 10**6),
    st.integers(-10**3, 10**3),
    st.integers(1, 10**4),
    st.sampled_from([1, 3, 12, 3 * BIG_P**2]),
)


def _assert_order_agrees(x, y):
    s = (x - y).sign()
    assert (x == y) == (s == 0) and (x != y) == (s != 0)
    assert (x < y) == (s < 0) and (x <= y) == (s <= 0)
    assert (x > y) == (s > 0) and (x >= y) == (s >= 0)


@given(_FIELD3_OPERAND, _FIELD3_OPERAND, st.integers(-5, 5), st.fractions(max_denominator=50))
def test_comparisons_agree_with_sign_of_difference(p1, p2, k, q):
    x, y = QuadNumber(*p1), QuadNumber(*p2)
    _assert_order_agrees(x, y)
    _assert_order_agrees(x, x + 0)
    a, b, c, _ = p1
    _assert_order_agrees(QuadNumber(a, b, c, 3 * BIG_P**2), QuadNumber(a, b * BIG_P, c, 3))
    for other in (k, q, QuadNumber(k), QuadNumber.from_rational(q)):
        _assert_order_agrees(x, other)
        s = (x - other).sign()
        assert (other < x) == (s > 0) and (other == x) == (s == 0)


def test_comparing_different_fields_raises():
    for op in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        with pytest.raises(ValueError, match="incompatible radicands"):
            getattr(QuadNumber.sqrt_of(2), op)(QuadNumber.sqrt_of(3))
