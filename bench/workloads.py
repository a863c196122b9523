"""Seeded job lists of the four benchmark workloads, with their output checks.

A *round* is one job list, run in one forked child of the worker.  ``build(workload,
seed)`` draws the job order and the output format of each table from
``random.Random(f"{workload}:{seed}")``, so one seed always gives the same
inputs.  Job kinds, their counts and their
sizes are fixed and taken from the repository's README command lines and
demos (bench/README.md names the source of each), so the work of a round
does not depend on the seed.  Each job's timed part is one public
``ncmatch`` call or one in-process ``ncmatch.cli.main(argv)`` call; argument
preparation (``prep``) and the output check (``check``) run outside the
timed region.  Where a size stops, it stops on cost (bench/README.md).
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import io
import json
import math
import random
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from ncmatch import chains, cli, corners, doubling, geometry, oracle, spectral, zigzag
from ncmatch.geometry import Parity
from ncmatch.oracle import Matching, MatchKind
from ncmatch.quadfield import QuadNumber

WORKLOADS = ("certify", "recurse", "oracle", "sweep")


class Mismatch(Exception):
    """A job's output disagrees with its independent check."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _no_check(out, state) -> None:
    return None


@dataclass
class Job:
    """One timed call.

    ``prep(state)`` builds the call's arguments from earlier outputs (untimed);
    ``call(*args)`` is the timed part; ``check(out, state)`` raises
    :class:`Mismatch` on a wrong output (untimed); the output is stored in
    ``state[key]`` for later jobs.  ``sets(args)`` names the point sets an
    oracle call walks, so the traced run can build their tables in a span
    of their own.
    """

    label: str
    call: Callable[..., Any]
    prep: Callable[[dict], tuple] = lambda state: ()
    check: Callable[[Any, dict], None] = _no_check
    key: Optional[str] = None
    sets: Callable[[tuple], list] = lambda args: []


def _api(mod, name: str) -> Callable[..., Any]:
    """Late-bound call of ``mod.name``, so a traced run sees its wrapper."""
    return lambda *args: getattr(mod, name)(*args)


def run_cli(*argv) -> tuple[int, str]:
    """``ncmatch.cli.main(argv)`` in process, returning (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def _cli_job(label_args: list, check) -> Job:
    return Job(
        "cli " + " ".join(str(a) for a in label_args),
        lambda: run_cli(*label_args),
        check=check,
    )


def interleave(groups: list[list[Job]], rng: random.Random) -> list[Job]:
    """Random merge of job groups that keeps the order inside each group."""
    queues = [list(g) for g in groups if g]
    out = []
    while queues:
        i = rng.choices(range(len(queues)), weights=[len(q) for q in queues])[0]
        out.append(queues[i].pop(0))
        if not queues[i]:
            queues.pop(i)
    return out


def build(workload: str, seed: int) -> list[Job]:
    """The job list of one round; the same arguments give the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return interleave(_BUILDERS[workload](rng), rng)


# ---------------------------------------------------------------------------
# canonical output digests
# ---------------------------------------------------------------------------


def canon(x):
    """JSON-ready canonical form: equal outputs give equal forms.

    Large integers become hex strings (JSON would print them in decimal,
    which Python refuses beyond 4300 digits)."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, int):
        return x if -(1 << 62) < x < (1 << 62) else hex(x)
    if type(x) is Matching:
        return ["Matching", sorted(x.edges), sorted(x.runners)]
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, Fraction):
        return ["q", hex(x.numerator), hex(x.denominator)]
    if isinstance(x, QuadNumber):
        return ["quad"] + [hex(v) for v in x.as_tuple()]
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, (set, frozenset)):
        try:
            return [canon(v) for v in sorted(x)]
        except TypeError:
            return sorted((canon(v) for v in x), key=json.dumps)
    if isinstance(x, dict):
        return sorted(([canon(k), canon(v)] for k, v in x.items()), key=json.dumps)
    if dataclasses.is_dataclass(x):
        return [type(x).__name__] + [canon(getattr(x, f.name)) for f in dataclasses.fields(x)]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x) -> str:
    text = json.dumps(canon(x), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# certify: subeig pipelines in Q(sqrt d)
# ---------------------------------------------------------------------------

# demos/06_growth_certificate.py's calls, at every r from 2 to 6 and at
# eps = 1/100 (the README's `subeig --epsilon 1/100`): extract_band, rescale,
# build_certificate, verify_certificate and the undersized-peak control.  The
# range stops at 6 on cost: the chain takes about 0.6 s at r = 6 and 8 s at 7.
CERTIFY_R = range(2, 7)
CERTIFY_EPS = Fraction(1, 100)


def _expect_dominant_root(r: int, m: QuadNumber) -> None:
    (a, b), (c, d) = corners.extract_band(r, probe=2 * r + 5).condensed
    expect(m * m - (a + d) * m + (a * d - b * c) == 0 and 2 * m >= a + d,
           "eigenvalue is not the dominant root at a deeper probe")


def _check_band(r: int):
    def check(band, state):
        expect(band.r == r, "band of the wrong r")
        expect(band.condensed == corners.extract_band(r, probe=2 * r + 5).condensed,
               "condensed matrix differs at a deeper probe")

    return check


def _check_rescale(r: int):
    def check(resc, state):
        _expect_dominant_root(r, resc.m)

    return check


def _check_build(out, state):
    expect(out.epsilon == CERTIFY_EPS, "certificate built for the wrong eps")
    expect(out.support_width() >= 1, "empty certificate support")


def _check_verified(out, state):
    expect(out is True, f"certificate did not verify ({out})")


def _undersized(resc) -> tuple:
    """A certificate whose peak is far below the gap requirement."""
    delta = spectral.shift_constant(resc)
    return resc, spectral.certificate_from_peak(resc, CERTIFY_EPS, (1 + delta) ** 2, 1 + delta)


def _check_control(out, state):
    expect(out is False, f"undersized certificate verified ({out})")


def _certify(rng: random.Random) -> list[list[Job]]:
    groups = []
    for r in CERTIFY_R:
        band, resc, cert = f"{r}:band", f"{r}:resc", f"{r}:cert"
        groups.append([
            Job(f"extract_band r={r}", lambda r=r: corners.extract_band(r), check=_check_band(r), key=band),
            Job(f"rescale r={r}", _api(spectral, "rescale"), prep=lambda st, k=band: (st[k],),
                check=_check_rescale(r), key=resc),
            Job(f"build_certificate r={r} eps={CERTIFY_EPS}", _api(spectral, "build_certificate"),
                prep=lambda st, k=resc: (st[k], CERTIFY_EPS), check=_check_build, key=cert),
            Job(f"verify_certificate r={r} eps={CERTIFY_EPS}", _api(spectral, "verify_certificate"),
                prep=lambda st, k=resc, c=cert: (st[k], st[c]), check=_check_verified),
            Job(f"verify_certificate r={r} undersized peak (control)", _api(spectral, "verify_certificate"),
                prep=lambda st, k=resc: _undersized(st[k]), check=_check_control),
        ])
    return groups


# ---------------------------------------------------------------------------
# recurse: long exact recursions
# ---------------------------------------------------------------------------

# Oracle cross-checks stay at or below this many points (exponential work).
SMALL = 11


def _check_coupled(r: int, kmax: int):
    def check(states, state):
        expect(len(states) == kmax + 1 and states[0] == ([1], [1]), "coupled_series shape")
        for k in range(1, kmax + 1):
            if r * k + 1 > SMALL:
                break
            split = oracle.census_corner_split(geometry.make_rchain(r, k, corners=True))
            expect(split == tuple(states[k]), f"corner split differs from oracle at r={r} k={k}")

    return check


def _check_chain_counts(r: int, kmax: int):
    def check(counts, state):
        expect(len(counts) == kmax + 1 and counts[0] == 1, "chain_counts shape")
        for k in range(1, kmax + 1):
            if r * k + 1 > SMALL:
                break
            ps = geometry.make_rchain(r, k, corners=True)
            got = oracle.census(ps, MatchKind.DOWN_FREE).total
            expect(got == counts[k], f"chain count differs from oracle at r={r} k={k}")

    return check


def _band_step(r: int, vec: list[int]) -> list[int]:
    """One step through BandMatrix.apply, a second implementation of the step."""
    return chains.transfer_matrix(r).apply(vec)


def _check_runner_counts(r: int, k: int):
    def check(vec, state):
        expect(len(vec) == r * k + 1, "runner vector length")
        expect(_band_step(r, chains.runner_counts(r, k - 1)) == vec,
               f"runner_counts({r},{k}) is not one BandMatrix step from k-1")
        for kk in range(1, k + 1):
            if r * kk > SMALL:
                break
            got = oracle.census_runners(geometry.make_rchain(r, kk, corners=False))
            expect(got == chains.runner_counts(r, kk), f"runner vector differs from oracle at r={r} k={kk}")

    return check


def _zigzag_oracle(zz, kind: str) -> None:
    mk = MatchKind.DOWN_FREE if kind == "down-free" else MatchKind.ALL
    for k in range(1, zz.top + 1):
        if 2 * k + 1 > SMALL:
            break
        got = oracle.census(geometry.make_zigzag(2 * k + 1, Parity.EVEN), mk).total
        expect(got == zz.a[k], f"zigzag a[{k}] ({kind}) differs from oracle")
        if kind == "down-free":
            got = oracle.census(geometry.make_zigzag(2 * k + 1, Parity.ODD), mk).total
            expect(got == zz.b[k], f"zigzag b[{k}] differs from oracle")
            got = oracle.census(geometry.make_zigzag(2 * k, Parity.EVEN), mk).total
            expect(got == zz.c[k], f"zigzag c[{k}] differs from oracle")


def _check_zigzag(kmax: int, kind: str):
    def check(zz, state):
        expect(zz.top == kmax and len(zz.a) == len(zz.b) == kmax + 1, "zigzag series shape")
        if kind == "down-free":
            expect(list(zz.c[:41]) == zigzag.closed_form_coeffs(40), "c differs from the quartic root")
        _zigzag_oracle(zz, kind)

    return check


def _check_closed_form(kmax: int):
    def check(coeffs, state):
        expect(coeffs == list(zigzag.zigzag_series(kmax).c), "quartic root differs from the recursion")

    return check


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _check_cli_recurse(r: int, kmax: int):
    def check(out, state):
        code, text = out
        expect(code == 0, f"exit code {code}")
        header, rows = _csv_rows(text)
        expect(header == ["k", "counts_by_runner"] and len(rows) == kmax + 1, "recurse table shape")
        prev = None
        for k, (kk, cell) in enumerate(rows):
            vec = [int(v) for v in cell.strip('"').split()]
            expect(int(kk) == k, "row index")
            want = [1] if prev is None else _band_step(r, prev)
            expect(vec == want, f"row k={k} is not one BandMatrix step from k-1")
            prev = vec

    return check


def _check_cli_zigzag(kmax: int):
    def check(out, state):
        code, text = out
        expect(code == 0, f"exit code {code}")
        header, rows = _csv_rows(text)
        expect(header == ["k", "odd_size_even_kind", "odd_size_odd_kind", "even_size"]
               and [int(row[0]) for row in rows] == list(range(kmax + 1)), "zigzag table shape")
        a, b, c = ([int(row[i]) for row in rows] for i in (1, 2, 3))
        expect(c == zigzag.closed_form_coeffs(kmax), "even_size column differs from the quartic root")
        _zigzag_oracle(types.SimpleNamespace(top=kmax, a=a, b=b, c=c), "down-free")

    return check


def _check_cli_corners(r: int, kmax: int):
    def check(out, state):
        code, text = out
        expect(code == 0, f"exit code {code}")
        header, rows = _csv_rows(text)
        expect(header == ["k", "count"] and [int(row[0]) for row in rows] == list(range(kmax + 1)),
               "corner table shape")
        _check_chain_counts(r, kmax)([int(row[1]) for row in rows], state)

    return check


# Every recursion runs to the same number of points, for every r of the
# corner table of demos/05_corner_chains.py from 2 (r = 1 has no interior arc
# points) to 8, where that demo's per-point rate peaks and which it then
# studies: a long vector of a few hundred bits, so one step is
# bigint work, not call overhead.  At 150 points each coupled_series or
# chain_counts job takes about 0.05 s; coupled_step at r = 8 for 301 steps
# (2,400 points) takes about 21 s.
RECURSE_POINTS = 150
RECURSE_R = range(2, 9)
# README: `recurse --family rchain --r 3 --corners`; the run without
# --corners is the one that recomputes every row.
CLI_RECURSE_R = 3


def _recurse(rng: random.Random) -> list[list[Job]]:
    groups = []
    n = RECURSE_POINTS
    for r in RECURSE_R:
        k = n // r
        groups.append([Job(f"coupled_series r={r} kmax={k}", lambda r=r, k=k: corners.coupled_series(r, k),
                           check=_check_coupled(r, k))])
        groups.append([Job(f"chain_counts r={r} kmax={k}", lambda r=r, k=k: corners.chain_counts(r, k),
                           check=_check_chain_counts(r, k))])
        groups.append([Job(f"runner_counts r={r} k={k}", lambda r=r, k=k: chains.runner_counts(r, k),
                           check=_check_runner_counts(r, k))])
    k = n // 2
    for kind in ("down-free", "all"):
        groups.append([Job(f"zigzag_series kmax={k} {kind}", lambda kind=kind: zigzag.zigzag_series(k, kind),
                           check=_check_zigzag(k, kind))])
    groups.append([Job(f"closed_form_coeffs kmax={k}", lambda: zigzag.closed_form_coeffs(k),
                       check=_check_closed_form(k))])
    groups.append([_cli_job(["recurse", "--family", "zigzag", "--kmax", k], _check_cli_zigzag(k))])
    r = CLI_RECURSE_R
    groups.append([_cli_job(["recurse", "--family", "rchain", "--r", r, "--corners", "--kmax", n // r],
                            _check_cli_corners(r, n // r))])
    # the CLI recomputes runner_counts(r, k) from scratch for every row k
    groups.append([_cli_job(["recurse", "--family", "rchain", "--r", r, "--kmax", n // r],
                            _check_cli_recurse(r, n // r))])
    return groups


# ---------------------------------------------------------------------------
# oracle: the four backtracking walks on family and random point sets
# ---------------------------------------------------------------------------

CENSUS_KINDS = (MatchKind.PERFECT, MatchKind.ALL, MatchKind.DOWN_FREE,
                MatchKind.UP_FREE, MatchKind.RHO_DOWN_FREE)
# README: `verify --family rchain --max-points 12`; a rho census takes about
# 0.1 s at 11 points, 0.9 s at 13 and 7.8 s at 15 (zigzag).
MAX_POINTS = 12
# A random set's walks cost 0.10-0.16 s at 10 points, 0.27-0.39 s at 11 and
# 0.57-0.90 s at 12, depending on the set, and the jobs of random sets sit
# near the median and the tail job.  So the sets are drawn once, from a fixed
# seed of their own, not from --seed: a set drawn per --seed would move those
# percentiles from seed to seed by what it draws, not by what the code does.
RANDOM_POINTS = (10, 10, 10)
RANDOM_SETS_SEED = "oracle-random-sets"
# README: `recurse --family rchain --r 3 --corners`
RCHAIN = (3, 3)


def random_points(rng: random.Random, n: int, grid: int = 400) -> dict:
    """JSON dict of n integer points with distinct x and no collinear triple."""
    while True:
        xs = sorted(rng.sample(range(grid), n))
        pts = [(x, rng.randrange(grid)) for x in xs]
        if all(
            (b[0] - a[0]) * (c[1] - a[1]) != (b[1] - a[1]) * (c[0] - a[0])
            for i, a in enumerate(pts)
            for j, b in enumerate(pts[i + 1:], i + 1)
            for c in pts[j + 1:]
        ):
            return {"label": f"random(n={n})", "points": [[x, 1, y, 1] for x, y in pts]}


def _is_kind(ps, m: Matching, kind: MatchKind) -> bool:
    if kind is MatchKind.PERFECT:
        return not m.free_points(len(ps)) and not m.runners
    if kind is MatchKind.DOWN_FREE:
        return oracle.is_down_free(ps, m) and not m.runners
    if kind is MatchKind.UP_FREE:
        return oracle.is_up_free(ps, m) and not m.runners
    return not m.runners


def _relations(g: str, state: dict) -> None:
    """Identities between the walks of one set, checked once both sides exist."""
    got = {k.value: state.get(f"{g}:{k.value}") for k in CENSUS_KINDS}
    pm, al, df, uf, rho = (got[k.value] for k in CENSUS_KINDS)
    for other in (al, df, uf):
        if pm is not None and other is not None:
            expect(other.by_free.get(0, 0) == pm.total, "perfect count differs from 0-free count")
    for one in (df, uf):
        if one is not None and al is not None:
            expect(one.total <= al.total, "restricted count exceeds all matchings")
    if rho is not None and df is not None:
        expect(rho.by_runners.get(0, 0) == df.total, "runner-free rho count differs from down-free")
    split = state.get(f"{g}:split")
    if rho is not None and split is not None:
        marked, unmarked = split
        vec = rho.runner_vector()
        for i in range(max(len(vec), len(unmarked), len(marked) + 1)):
            want = (unmarked[i] if i < len(unmarked) else 0) + (marked[i - 1] if 0 < i <= len(marked) else 0)
            expect((vec[i] if i < len(vec) else 0) == want, f"corner split does not sum to the rho census at {i}")


def _family_expect(g: str, fam: tuple, state: dict) -> None:
    """Oracle outputs of a family set against the counting recursions."""
    name = fam[0]
    df = state.get(f"{g}:down-free")
    if name == "zigzag":
        _, n, parity = fam
        if df is not None:
            zz = zigzag.zigzag_series(n // 2)
            want = zz.c[n // 2] if n % 2 == 0 else (zz.a if parity is Parity.EVEN else zz.b)[n // 2]
            expect(df.total == want, "zigzag down-free total differs from the recursion")
        al = state.get(f"{g}:all")
        if al is not None and n % 2 == 1 and parity is Parity.EVEN:
            expect(al.total == zigzag.zigzag_series(n // 2, "all").a[n // 2], "zigzag all-matchings total")
    elif name == "rchain-corners":
        _, r, k = fam
        split = state.get(f"{g}:split")
        if split is not None:
            expect(split == tuple(corners.coupled_series(r, k)[k]), "corner split differs from coupled_series")
        if df is not None:
            expect(df.total == corners.chain_counts(r, k)[k], "down-free total differs from chain_counts")
    elif name == "rchain":
        _, r, k = fam
        rho = state.get(f"{g}:rho-down-free")
        if rho is not None:
            expect(rho.runner_vector() == chains.runner_counts(r, k), "runner vector differs from runner_counts")


def _census_group(g: str, label: str, make: Callable[[], Any], fam: tuple) -> list[Job]:
    """The constructor, every census kind, the corner split and the list of
    every matching of one set."""
    list_kind = MatchKind.ALL
    sk = f"{g}:set"

    def check_set(ps, state):
        expect(len(ps) >= 2, "point set too small")

    def check_walk(out, state):
        _relations(g, state)
        _family_expect(g, fam, state)

    def check_list(ms, state):
        ps = state[sk]
        cen = state.get(f"{g}:{list_kind.value}")
        if cen is not None:
            expect(len(ms) == cen.total, "matchings() count differs from census")
        for m in ms[:: max(1, len(ms) // 24)]:
            expect(oracle.is_noncrossing(ps, m) and _is_kind(ps, m, list_kind), "listed matching has the wrong kind")

    jobs = [Job(label, make, check=check_set, key=sk)]
    # a fixed order: the set's first walk builds its tables, so that cost
    # lands on the same job whatever the seed
    for kind in CENSUS_KINDS:
        jobs.append(Job(f"census {kind.value} {label}", _api(oracle, "census"),
                        prep=lambda st, kind=kind: (st[sk], kind), check=check_walk,
                        key=f"{g}:{kind.value}", sets=lambda a: [a[0]]))
    jobs.append(Job(f"census_corner_split {label}", _api(oracle, "census_corner_split"),
                    prep=lambda st: (st[sk],), check=check_walk, key=f"{g}:split", sets=lambda a: [a[0]]))
    jobs.append(Job(f"matchings {list_kind.value} {label}", lambda ps, kind: list(oracle.matchings(ps, kind)),
                    prep=lambda st: (st[sk], list_kind), check=check_list, sets=lambda a: [a[0]]))
    return jobs


def _globalize(m: Matching, index_map: tuple) -> Matching:
    return Matching(frozenset((min(index_map[i], index_map[j]), max(index_map[i], index_map[j]))
                              for i, j in m.edges))


def _double_group(g: str, label: str, make: Callable[[], Any], n: int, chain: bool) -> list[Job]:
    """Perfect matchings of a double set and its unique-completion property."""
    dk = f"{g}:double"

    def halves(st):
        d = st[dk]
        return d, d.upper_set(), d.lower_set()

    def check_pm(cen, state):
        want = doubling.pm_of_double(doubling.profile_from_by_free(state[f"{g}:upper-df"].by_free))
        expect(cen.total == want, "double perfect count differs from the squared profile")
        if chain:
            expect(cen.total == doubling.double_chain_pm(n), "double chain differs from the closed form")

    def check_upper(cen, state):
        if chain:
            expect(doubling.profile_from_by_free(cen.by_free) == doubling.chain_profile(n // 2),
                   "chain free-point profile differs from the closed form")

    jobs = [
        Job(label, make, key=dk),
        Job(f"census down-free upper half {label}", _api(oracle, "census"),
            prep=lambda st: (halves(st)[1], MatchKind.DOWN_FREE), check=check_upper,
            key=f"{g}:upper-df", sets=lambda a: [a[0]]),
        Job(f"census perfect {label}", _api(oracle, "census"),
            prep=lambda st: (st[dk].points, MatchKind.PERFECT), check=check_pm, sets=lambda a: [a[0]]),
        Job(f"matchings down-free upper half {label}", lambda ps, kind: list(oracle.matchings(ps, kind)),
            prep=lambda st: (halves(st)[1], MatchKind.DOWN_FREE), key=f"{g}:up-list", sets=lambda a: [a[0]]),
        Job(f"matchings up-free lower half {label}", lambda ps, kind: list(oracle.matchings(ps, kind)),
            prep=lambda st: (halves(st)[2], MatchKind.UP_FREE), key=f"{g}:low-list", sets=lambda a: [a[0]]),
    ]
    if not chain:
        # convex halves have only down-free matchings; a zigzag half has others
        jobs.append(Job(f"matchings all upper half {label}", lambda ps, kind: list(oracle.matchings(ps, kind)),
                        prep=lambda st: (halves(st)[1], MatchKind.ALL), key=f"{g}:all-list",
                        sets=lambda a: [a[0]]))

    def pair(st, u: float, v: float, positive: bool):
        d, ups, _ = halves(st)
        half = len(ups)
        pool = st[f"{g}:up-list"] if positive else [
            m for m in st[f"{g}:all-list"] if not oracle.is_down_free(ups, m)]
        by_free: dict[int, list] = {}
        for m in st[f"{g}:low-list"]:
            by_free.setdefault(len(m.free_points(half)), []).append(m)
        start = int(u * len(pool))
        for step in range(len(pool)):
            mp = pool[(start + step) % len(pool)]
            partners = by_free.get(len(mp.free_points(half)))
            if partners:
                mq = partners[int(v * len(partners))]
                mu, ml = _globalize(mp, d.upper), _globalize(mq, d.lower)
                return d, Matching(mu.edges | ml.edges), mu, ml
        raise LookupError("no partner with an equal free-point count")

    def check_pair(positive: bool):
        def check(out, state):
            count, (d, mu, ml) = out, state["_last_pair"]
            expect(count == (1 if positive else 0), f"cross completions {count}, expected {int(positive)}")
            done = oracle.complete_to_perfect(d, mu, ml)
            expect((done is not None) == positive, "complete_to_perfect disagrees with the count")

        return check

    def cross_prep(u, v, positive):
        def prep(st):
            d, joined, mu, ml = pair(st, u, v, positive)
            st["_last_pair"] = (d, mu, ml)
            return d, joined

        return prep

    # six pairs spread evenly over the lists, the same for every seed
    for i in range(6):
        positive = chain or i % 2 == 0
        jobs.append(Job(f"count_cross_completions #{i} {'down-free' if positive else 'not down-free'} {label}",
                        _api(oracle, "count_cross_completions"),
                        prep=cross_prep((i + 0.5) / 6, (5.5 - i) / 6, positive),
                        check=check_pair(positive), sets=lambda a: [a[0].points]))
    return jobs


def _oracle(rng: random.Random) -> list[list[Job]]:
    groups = []
    for n in (MAX_POINTS, MAX_POINTS - 1):
        groups.append(_census_group(
            f"zz{n}", f"make_zigzag n={n}", lambda n=n: geometry.make_zigzag(n),
            ("zigzag", n, Parity.EVEN)))
    r, k = RCHAIN
    groups.append(_census_group(
        "rc", f"make_rchain r={r} k={k} corners", lambda: geometry.make_rchain(r, k, corners=True),
        ("rchain-corners", r, k)))
    groups.append(_census_group(
        "rn", f"make_rchain r={r} k={k} no-corners", lambda: geometry.make_rchain(r, k, corners=False),
        ("rchain", r, k)))
    sets_rng = random.Random(RANDOM_SETS_SEED)
    for i, n in enumerate(RANDOM_POINTS):
        data = random_points(sets_rng, n)
        groups.append(_census_group(
            f"rnd{i}", f"from_json_dict random #{i} n={n}", lambda data=data: geometry.from_json_dict(data),
            ("random",)))
    n = MAX_POINTS
    groups.append(_double_group("dc", f"double_chain n={n}", lambda: geometry.double_chain(n), n, True))
    groups.append(_double_group("dz", f"double_zigzag n={n}", lambda: geometry.double_zigzag(n), n, False))
    return groups


# ---------------------------------------------------------------------------
# sweep: many short CLI jobs
# ---------------------------------------------------------------------------


def _eig_float(a: int, b: int, c: int, e: int) -> float:
    return (a + e + math.sqrt((a - e) ** 2 + 4 * b * c)) / 2


def _close(text: str, value: float, tol: float) -> bool:
    return abs(float(text) - value) <= tol * max(1.0, abs(value))


def _sample_rows(rng: random.Random, max_r: int, extra: int = 3) -> list[int]:
    """Rows a table check recomputes: the first, the last and a few drawn ones
    (recomputing every row would cost as much as the job)."""
    return sorted({1, max_r} | {rng.randint(1, max_r) for _ in range(extra)})


def _check_table_corners(max_r: int, fmt: str, sample: list[int]):
    def check(out, state):
        code, text = out
        expect(code == 0, f"exit code {code}")
        rows = _table_records(text, fmt)
        expect([int(row["r"]) for row in rows] == list(range(1, max_r + 1)), "table rows")
        for r in sample:
            row = rows[r - 1]
            (a, b), (c, e) = corners.extract_band(r, probe=2 * r + 5).condensed
            expect([int(row[x]) for x in ("cc", "cf", "fc", "ff")] == [a, b, c, e],
                   f"condensed matrix at r={r} differs at a deeper probe")
            expect(_close(row["rate"], _eig_float(a, b, c, e) ** (1.0 / r), 2e-4), f"rate at r={r}")

    return check


def _check_growth_corners(r: int):
    def check(out, state):
        code, text = out
        expect(code == 0, f"exit code {code}")
        data = json.loads(text)
        q = data["eigenvalue_exact"]
        m = QuadNumber(q["a"], q["b"], q["c"], q["d"])
        (a, b), (c, e) = corners.extract_band(r, probe=2 * r + 5).condensed
        expect(m * m - (a + e) * m + (a * e - b * c) == 0, "eigenvalue is not a root of the characteristic polynomial")
        expect(2 * m >= a + e, "eigenvalue is not the dominant root")
        expect(_close(data["eigenvalue"], _eig_float(a, b, c, e), 2e-6), "float eigenvalue")
        expect(_close(data["base_per_point"], _eig_float(a, b, c, e) ** (1.0 / r), 2e-8), "per-point base")

    return check


def _table_records(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)
    header, rows = _csv_rows(text)
    return [dict(zip(header, row)) for row in rows]


def _check_table(max_r: int, fmt: str, sample: list[int]):
    def check(out, state):
        code, text = out
        expect(code == 0, f"exit code {code}")
        rows = _table_records(text, fmt)
        expect([int(row["r"]) for row in rows] == list(range(1, max_r + 1)), "table rows")
        for r in sample:
            row = rows[r - 1]
            lam = chains.BandMatrix(r, stabilized=True).column_sum_stabilized()
            expect(int(row["growth_factor"]) == lam, f"growth factor at r={r} differs from the window sums")
            expect(_close(row["rate"], float(lam) ** (1.0 / r), 2e-4), f"rate at r={r}")

    return check


def _check_growth_zigzag(variant: str):
    # 1/x is the small root of 1 - 9x - 3x^2 (down-free) or 1 - 9x - 6x^2 (all)
    const = 3 if variant == "down-free" else 6

    def check(out, state):
        code, text = out
        expect(code == 0, f"exit code {code}")
        data = json.loads(text)
        q = data["rate_per_index_exact"]
        x = QuadNumber(q["a"], q["b"], q["c"], q["d"])
        expect(x * x == 9 * x + const and x > 9, "zigzag rate is not the kernel root")
        root = (9 + math.sqrt(81 + 4 * const)) / 2
        expect(_close(data["rate_per_index"], root, 1e-8), "float rate")
        expect(_close(data["base_per_point"], math.sqrt(root), 1e-8), "per-point base")

    return check


def _check_double_pm(n: int):
    def check(out, state):
        code, text = out
        expect(code == 0, f"exit code {code}")
        want = doubling.pm_of_double(doubling.chain_profile(n // 2))
        expect(int(text) == want, "double-chain count differs from the squared profile")

    return check


@functools.lru_cache(maxsize=None)
def _float_rate(r: int) -> float:
    return float(chains.growth_factor(r)) ** (1.0 / r)


def _check_best_arc(limit: int):
    def check(out, state):
        best_r, rate = out
        top = max(_float_rate(r) for r in range(1, limit + 1))
        expect(1 <= best_r <= limit and abs(rate - top) <= 1e-12 * top, f"arg-max {best_r} is not the float maximum")

    return check


# A scan of `growth --r R --corners` over every R up to SCAN_R, the batch
# behind `table --corners`, and the README's other command lines once each:
# `table --max-r 20` with and without --corners, `growth --family zigzag`
# (in both variants, as demos/03_zigzag_growth.py prints them) and
# `double-pm --construction dc --n 30`; plus `table --max-r SCAN_R --corners`
# and demos/04_chain_growth_table.py's `best_arc_size(190)`.  The scan stops at
# 60 on cost: `table --corners` grows quadratically in r, 0.04 s at 20,
# 0.13 s at 40 and 0.23 s at 60.
SCAN_R = 60
README_TABLE_R = 20


def _sweep(rng: random.Random) -> list[list[Job]]:
    groups = []

    def add(argv, check):
        groups.append([_cli_job(argv, check)])

    for r in range(1, SCAN_R + 1):
        add(["growth", "--r", r, "--corners"], _check_growth_corners(r))
    for max_r in (README_TABLE_R, SCAN_R):
        fmt = rng.choice(("csv", "json"))
        add(["table", "--max-r", max_r, "--corners", "--format", fmt],
            _check_table_corners(max_r, fmt, _sample_rows(rng, max_r)))
    fmt = rng.choice(("csv", "json"))
    add(["table", "--max-r", README_TABLE_R, "--format", fmt],
        _check_table(README_TABLE_R, fmt, _sample_rows(rng, README_TABLE_R)))
    for variant in ("down-free", "all"):
        add(["growth", "--family", "zigzag", "--variant", variant], _check_growth_zigzag(variant))
    add(["double-pm", "--construction", "dc", "--n", 30], _check_double_pm(30))
    limit = 190
    groups.append([Job(f"best_arc_size limit={limit}", lambda: chains.best_arc_size(limit),
                       check=_check_best_arc(limit))])
    return groups


_BUILDERS = {"certify": _certify, "recurse": _recurse, "oracle": _oracle, "sweep": _sweep}
