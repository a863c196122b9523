"""Catalan/Motzkin helpers and perfect-matching counts of double structures.

A double structure is a point set placed high above its own reflection.  Its
perfect matchings factor through the down-free matchings of one half: a
down-free matching with j free points on top pairs with an up-free matching
with j free points below in exactly one way, so the perfect-matching count
is the sum over j of (number of down-free matchings with j free points)
squared.  Catalan and Motzkin numbers are read from the arc tails of
``chains``.
"""

from __future__ import annotations

from .chains import _tails, arc_count


def catalan(k: int) -> int:
    if k < 0:
        raise ValueError("negative index")
    return _tails(2 * k + 1, "perfect")[2 * k]


def motzkin(n: int) -> int:
    if n < 0:
        raise ValueError("negative index")
    return _tails(n + 1, "all")[n]


def profile_from_by_free(by_free: dict[int, int]) -> list[int]:
    """Dense free-point profile [count with 0 free, with 1 free, ...]."""
    top = max(by_free) if by_free else 0
    return [by_free.get(j, 0) for j in range(top + 1)]


def pm_of_double(profile: list[int]) -> int:
    """Perfect matchings of the double set from one half's free-point profile."""
    return sum(c * c for c in profile)


def chain_profile(m: int) -> list[int]:
    """Free-point profile of an m-point downward chain, all of whose matchings
    are down-free: j free points in C(m, j) * catalan((m - j) / 2) of them
    (zero for odd m - j), the perfect arc count with j runners."""
    if m < 0:
        raise ValueError("negative index")
    return [arc_count(m, j, "perfect") for j in range(m + 1)]


def double_chain_pm(n: int) -> int:
    """Perfect matchings of the double chain on n points (n even), exactly."""
    if n < 0 or n % 2 != 0:
        raise ValueError("double chain needs an even, nonnegative number of points")
    return pm_of_double(chain_profile(n // 2))
