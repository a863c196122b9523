import pytest

from ncmatch.doubling import (
    catalan,
    chain_profile,
    double_chain_pm,
    motzkin,
    pm_of_double,
    profile_from_by_free,
)
from ncmatch.geometry import double_chain, double_zigzag, make_chain, make_double, make_rchain
from ncmatch.oracle import MatchKind, census


def test_base_values():
    assert catalan(0) == motzkin(0) == 1
    assert catalan(3) == 5
    assert motzkin(4) == 9


def test_catalan_matches_oracle_perfect_counts():
    for n in (4, 6, 8, 10):
        assert census(make_chain(n), MatchKind.PERFECT).total == catalan(n // 2)


def test_motzkin_matches_oracle_all_counts():
    for n in range(1, 13):
        assert census(make_chain(n), MatchKind.ALL).total == motzkin(n)


def test_trivial_profile():
    assert pm_of_double([1]) == 1
    assert pm_of_double([1, 0, 0]) == 1


def test_chain_profile_reproduces_closed_form():
    for n in (6, 8, 10, 12, 14):
        assert pm_of_double(chain_profile(n // 2)) == double_chain_pm(n)


def test_chain_profile_matches_oracle():
    for m in (3, 4, 5, 6, 7):
        ps = make_chain(m)
        got = profile_from_by_free(census(ps, MatchKind.DOWN_FREE).by_free)
        want = chain_profile(m)
        while len(got) < len(want):
            got.append(0)
        assert got == want


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14])
def test_double_chain_formula_vs_oracle(n):
    d = double_chain(n)
    assert census(d.points, MatchKind.PERFECT).total == double_chain_pm(n)


def test_double_chain_smallest():
    assert double_chain_pm(2) == 1


def test_odd_size_rejected():
    with pytest.raises(ValueError):
        double_chain_pm(7)


@pytest.mark.parametrize(
    "builder,n",
    [
        (double_chain, 10),
        (double_chain, 14),
        (double_zigzag, 10),
        (double_zigzag, 14),
        (lambda n: make_double(lambda m: make_rchain(3, m // 3, corners=False), n), 12),
    ],
)
def test_square_sum_identity_on_doubles(builder, n):
    """Perfect matchings of a double = sum over j of squared j-free counts."""
    d = builder(n)
    prof = profile_from_by_free(census(d.upper_set(), MatchKind.DOWN_FREE).by_free)
    assert census(d.points, MatchKind.PERFECT).total == pm_of_double(prof)


@pytest.mark.parametrize(
    "builder,n",
    [(double_chain, 8), (double_chain, 12), (double_zigzag, 12)],
)
def test_profile_concentration_bounds(builder, n):
    """dfm^2 / (n/2 + 1) <= pm(double) <= dfm^2."""
    d = builder(n)
    dfm = census(d.upper_set(), MatchKind.DOWN_FREE).total
    pm = census(d.points, MatchKind.PERFECT).total
    assert dfm * dfm <= pm * (n // 2 + 1)
    assert pm <= dfm * dfm


def test_dominant_term_sits_near_one_sixth():
    profile = chain_profile(30)
    best_j = max(range(len(profile)), key=profile.__getitem__)
    assert abs(best_j - 10) <= 2
