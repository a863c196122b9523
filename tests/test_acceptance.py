"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear; every tolerance is pinned here, not configured elsewhere.
"""

import random
import time
from fractions import Fraction

from ncmatch.chains import (
    best_arc_size,
    growth_factor,
    runner_counts,
    transfer_matrix,
)
from ncmatch.corners import (
    chain_counts,
    coupled_series,
    dominant_eigenvalue,
    extract_band,
)
from ncmatch.doubling import double_chain_pm, pm_of_double, profile_from_by_free
from ncmatch.geometry import (
    Direction,
    Parity,
    double_chain,
    double_zigzag,
    make_chain,
    make_double,
    make_rchain,
    make_zigzag,
)
from ncmatch.oracle import (
    MatchKind,
    Matching,
    census,
    census_corner_split,
    census_runners,
    count_cross_completions,
    is_down_free,
    matchings,
)
from ncmatch.quadfield import QuadNumber
from ncmatch.spectral import (
    build_certificate,
    certificate_from_peak,
    rescale,
    shift_constant,
    verify_certificate,
    weighted_drift,
)
from ncmatch.zigzag import closed_form_coeffs, growth_constant, zigzag_series

from conftest import globalize, halves_maps


def report(number: int, description: str, started: float, limit: float, ok: bool):
    elapsed = time.time() - started
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number:2d} {verdict} ({elapsed:6.2f}s / {limit:.0f}s) {description}")
    assert ok, f"criterion {number}: {description}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"


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

GROWTH_TABLE = [3, 9, 28, 87, 271, 843, 2619, 8123, 25153, 77763, 240054,
                740017, 2278329, 7006093, 21520872, 66039651, 202462113,
                620164491, 1898109900, 5805127269]

CONDENSED = {
    1: ((1, 1), (2, 2)),
    2: ((3, 3), (7, 6)),
    3: ((10, 9), (21, 19)),
    4: ((31, 28), (66, 59)),
    5: ((97, 87), (204, 184)),
    6: ((301, 271), (632, 572)),
    7: ((933, 843), (1952, 1776)),
    8: ((2885, 2619), (6022, 5504)),
}


def test_criterion_1_transfer_matrix_fixture():
    t0 = time.time()
    ok = transfer_matrix(5).dense(11) == MATRIX_R5
    report(1, "transfer matrix for r=5 equals the 11x11 fixture", t0, 1.0, ok)


def test_criterion_2_growth_factor_table():
    t0 = time.time()
    ok = [growth_factor(r) for r in range(1, 21)] == GROWTH_TABLE
    report(2, "growth factors for r=1..20 equal the reference table", t0, 1.0, ok)


def test_criterion_3_certified_argmax():
    t0 = time.time()
    rate = 240054 ** (1 / 11)
    ok = abs(rate - 3.0840) < 5e-5
    winner, _ = best_arc_size(190)
    ok &= winner == 11
    report(3, "rate 240054^(1/11) = 3.0840 +- 5e-5 and certified argmax r=11", t0, 10.0, ok)


def test_criterion_4_condensed_fixtures():
    t0 = time.time()
    ok = all(extract_band(r).condensed == CONDENSED[r] for r in range(1, 9))
    ok &= extract_band(8).jumps == ((-2619, 0), (-2619, 2619))
    report(4, "condensed matrices r=1..8 and the r=8 jump matrix are exact", t0, 5.0, ok)


def test_criterion_5_eigenvalue_and_drift():
    t0 = time.time()
    m = dominant_eigenvalue(extract_band(8).condensed)
    ok = m == QuadNumber(8389, 1, 2, 69945633)
    ok &= abs(m.root_float(8) - 3.093005695) < 1e-9
    ok &= all(weighted_drift(extract_band(r)).sign() == 0 for r in range(2, 13))
    report(5, "M = (8389+sqrt(69945633))/2, eighth root 3.093005695, zero drift r=2..12",
           t0, 5.0, ok)


def test_criterion_6_zigzag_growth_and_closed_form():
    t0 = time.time()
    exact, base = growth_constant()
    ok = exact == QuadNumber(9, 1, 2, 93)
    ok &= abs(base - 3.0532) < 5e-5
    ok &= closed_form_coeffs(50) == list(zigzag_series(50).c)
    report(6, "zigzag rate (9+sqrt(93))/2, base 3.0532, series = recursion to k=50",
           t0, 5.0, ok)


def test_criterion_7_oracle_equivalence_suite():
    t0 = time.time()
    ok = True

    # (a) zigzag down-free counts, all four kinds, up to 15 points
    zz = zigzag_series(7)
    for k in range(1, 8):
        ok &= census(make_zigzag(2 * k + 1, Parity.EVEN), MatchKind.DOWN_FREE).total == zz.a[k]
        ok &= census(make_zigzag(2 * k + 1, Parity.ODD), MatchKind.DOWN_FREE).total == zz.b[k]
        ok &= census(make_zigzag(2 * k, Parity.EVEN), MatchKind.DOWN_FREE).total == zz.c[k]
        ok &= census(make_zigzag(2 * k, Parity.ODD), MatchKind.DOWN_FREE).total == zz.c[k]
    assert ok, "zigzag leg failed"

    # (b) full runner vectors of corner-free chains, r*k <= 14
    for r in range(1, 15):
        for k in range(1, 14 // r + 1):
            got = census_runners(make_rchain(r, k, corners=False))
            ok &= got == runner_counts(r, k)
    assert ok, "corner-free runner-vector leg failed"

    # (c) corner chains: plain count and marked/unmarked split, r*k + 1 <= 14
    for r in range(1, 14):
        for k in range(1, 13 // r + 1):
            marked, unmarked = census_corner_split(make_rchain(r, k, corners=True))
            want_c, want_f = coupled_series(r, k)[k]
            ok &= marked == want_c and unmarked == want_f
            ok &= unmarked[0] == chain_counts(r, k)[k]
    assert ok, "corner-chain leg failed"

    # (d) double chain closed form vs oracle, n <= 14
    for n in range(2, 15, 2):
        ok &= census(double_chain(n).points, MatchKind.PERFECT).total == double_chain_pm(n)
    assert ok, "double-chain leg failed"

    # (e) squared-profile identity on doubles of chains and zigzag chains
    for builder in (double_chain, double_zigzag):
        for n in (10, 12, 14):
            d = builder(n)
            prof = profile_from_by_free(census(d.upper_set(), MatchKind.DOWN_FREE).by_free)
            ok &= census(d.points, MatchKind.PERFECT).total == pm_of_double(prof)
    report(7, "oracle equivalence grid (zigzag, chains, corner chains, doubles)",
           t0, 600.0, ok)


def test_criterion_8_certificates():
    t0 = time.time()
    ok = True
    for r in (2, 8):
        resc = rescale(extract_band(r))
        for eps in (Fraction(1, 10), Fraction(1, 100)):
            cert = build_certificate(resc, eps)
            ok &= verify_certificate(resc, cert)
        delta = shift_constant(resc)
        undersized = certificate_from_peak(resc, Fraction(1, 10), (1 + delta) ** 2, 1 + delta)
        ok &= not verify_certificate(resc, undersized)
    report(8, "certificates verify for r in {2,8}, eps in {1/10,1/100}; undersized peak fails",
           t0, 30.0, ok)


def test_criterion_9_ratio_diagnostics():
    t0 = time.time()
    ok = True

    # corner-free chains, r = 5: consecutive head ratio near 271 by k = 300
    from ncmatch.chains import runner_step

    vec = [1]
    head = []
    for k in range(301):
        vec = runner_step(vec, 5)
        if k >= 299:
            head.append(vec[0])
    ok &= abs(head[-1] / head[-2] - 271) / 271 < 0.01

    # corner chains, r = 8: consecutive count ratio near the eigenvalue
    from ncmatch.corners import coupled_step

    m_exact = dominant_eigenvalue(extract_band(8).condensed)
    m_float = m_exact.to_float()
    m_upper = m_exact.approx(96) + Fraction(1, 2**90)  # certified rational bound
    c_vec, f_vec = [1], [1]
    f_head = [1]
    power = Fraction(1)
    guard = 1 + Fraction(1, 2**40)
    for k in range(1, 302):
        c_vec, f_vec = coupled_step(c_vec, f_vec, 8)
        f_head.append(f_vec[0])
        if k <= 200:
            power *= m_upper
            ok &= f_vec[0] <= 2 * power * guard
            ok &= sum(c_vec) + sum(f_vec) <= 2 * power * guard
    ok &= abs(f_head[301] / f_head[300] - m_float) / m_float < 0.01

    # zigzag chains: consecutive ratio near the exact rate by k = 200
    zz = zigzag_series(201)
    ok &= abs(zz.c[201] / zz.c[200] - 9.3218) / 9.3218 < 0.01
    report(9, "head ratios within 1%: r=5 at k=300, r=8 at k=300, zigzag at k=200",
           t0, 120.0, ok)


def test_criterion_10_unique_completion_property():
    t0 = time.time()
    rng = random.Random(0xD0_0B1E)
    doubles = [
        double_chain(10),
        double_chain(14),
        double_zigzag(12),
        double_zigzag(14, Parity.ODD),
        make_double(lambda m: make_rchain(3, m // 3, corners=False), 12),
        make_double(lambda m: make_chain(m, Direction.DOWNWARD), 12),
    ]
    pools = []
    for d in doubles:
        ups, lows = d.upper_set(), d.lower_set()
        up_map, low_map = halves_maps(d)
        half = len(ups)
        down_free = list(matchings(ups, MatchKind.DOWN_FREE))
        up_free = list(matchings(lows, MatchKind.UP_FREE))
        not_down_free = [m for m in matchings(ups, MatchKind.ALL) if not is_down_free(ups, m)]
        by_free = {}
        for m in up_free:
            by_free.setdefault(len(m.free_points(half)), []).append(m)
        pools.append((d, up_map, low_map, half, down_free, not_down_free, by_free))

    ok = True
    produced = 0
    while produced < 200:
        d, up_map, low_map, half, down_free, _, by_free = rng.choice(pools)
        mp = rng.choice(down_free)
        partners = by_free.get(len(mp.free_points(half)))
        if not partners:
            continue
        mq = rng.choice(partners)
        joined = Matching(globalize(mp, up_map).edges | globalize(mq, low_map).edges)
        ok &= count_cross_completions(d, joined) == 1
        produced += 1
    negatives = 0
    # convex upper halves have only down-free matchings; sample the others
    negative_pools = [p for p in pools if p[5]]
    while negatives < 50:
        d, up_map, low_map, half, _, not_down_free, by_free = rng.choice(negative_pools)
        mp = rng.choice(not_down_free)
        partners = by_free.get(len(mp.free_points(half)))
        if not partners:
            continue
        mq = rng.choice(partners)
        joined = Matching(globalize(mp, up_map).edges | globalize(mq, low_map).edges)
        ok &= count_cross_completions(d, joined) == 0
        negatives += 1
    report(10, "200 down-free/up-free pairs complete uniquely; 50 non-down-free cannot",
           t0, 120.0, ok)
