"""Batch command-line front end.

Subcommands: gen, count, recurse, growth, table, double-pm, subeig, verify.
Big integers are printed as decimal strings and floats with a fixed number
of decimals, so every emitted table is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import chains, corners, doubling, geometry, oracle, spectral, zigzag
from .geometry import Direction, Parity
from .oracle import MatchKind
from .quadfield import QuadNumber


class CliError(Exception):
    pass


def _emit(args, payload: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _quad_dict(q) -> dict:
    a, b, c, d = q.as_tuple()
    return {"a": a, "b": b, "c": c, "d": d}


def _fixed(q: QuadNumber, places: int) -> str:
    """q with `places` decimals; past the float range, rounded from q itself."""
    try:
        return f"{q.to_float():.{places}f}"
    except OverflowError:
        units = round(q.approx() * 10**places)
        return f"{units // 10**places}.{units % 10**places:0{places}d}"


def _tabular(fmt: str, header: list[str], rows: list[list]) -> str:
    if fmt == "json":
        records = [dict(zip(header, row)) for row in rows]
        return _json([{k: str(v) for k, v in rec.items()} for rec in records])
    def cell(v) -> str:
        s = str(v)
        return f'"{s}"' if ("," in s or " " in s) else s

    lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict) or not isinstance(cfg.get("caps", {}), dict):
        raise CliError('config: expected a JSON object like {"caps": {"all": 18}}')
    kinds = {k.value for k in MatchKind}
    for key, cap in cfg.get("caps", {}).items():
        if key not in kinds:
            raise CliError(f"config: unknown cap {key!r}; expected one of {', '.join(sorted(kinds))}")
        # bool is an int subclass, so test the exact type
        if type(cap) is not int or cap < 0:
            raise CliError(f"config: cap {key!r} must be a nonnegative integer, not {cap!r}")
    return cfg


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _build_pointset(args) -> geometry.PointSet:
    fam = args.family
    direction = Direction(args.direction)
    parity = Parity(args.parity)
    if fam == "chain":
        return geometry.make_chain(args.n, direction)
    if fam == "zigzag":
        return geometry.make_zigzag(args.n, parity, direction)
    if fam == "rchain":
        if args.r is None or args.k is None:
            raise CliError("rchain needs --r and --k")
        return geometry.make_rchain(args.r, args.k, corners=args.corners)
    if fam == "double-chain":
        return geometry.double_chain(args.n).points
    if fam == "double-zigzag":
        return geometry.double_zigzag(args.n, parity).points
    raise CliError(f"unknown family {fam}")


def cmd_gen(args) -> int:
    ps = _build_pointset(args)
    _emit(args, _json(geometry.to_json_dict(ps)))
    return 0


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def cmd_count(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        ps = geometry.from_json_dict(json.load(fh))
    kind = MatchKind(args.kind)
    cap = args.cap
    if cap is None:
        cap = _load_config(args).get("caps", {}).get(kind.value)
    result = oracle.census(ps, kind, cap=cap)
    payload = {
        "label": ps.label,
        "kind": kind.value,
        "total": str(result.total),
        "by_free": {str(k): str(v) for k, v in sorted(result.by_free.items())},
        "by_runners": {str(k): str(v) for k, v in sorted(result.by_runners.items())},
    }
    _emit(args, _json(payload))
    return 0


# ---------------------------------------------------------------------------
# recurse
# ---------------------------------------------------------------------------


def cmd_recurse(args) -> int:
    if args.family == "zigzag":
        zz = zigzag.zigzag_series(args.kmax, args.variant)
        header = ["k", "odd_size_even_kind", "odd_size_odd_kind", "even_size"]
        table = [[k, zz.a[k], zz.b[k], zz.c[k]] for k in range(args.kmax + 1)]
    elif args.family == "rchain":
        if args.r is None:
            raise CliError("rchain needs --r")
        if args.corners:
            header = ["k", "count"]
            table = [[k, v] for k, v in enumerate(corners.chain_counts(args.r, args.kmax))]
        else:
            header = ["k", "counts_by_runner"]
            table = [
                [k, " ".join(map(str, vec))]
                for k, vec in enumerate(chains.runner_series(args.r, args.kmax))
            ]
    else:
        raise CliError(f"unknown family {args.family}")
    _emit(args, _tabular(args.format, header, table))
    return 0


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------


def cmd_growth(args) -> int:
    if args.family == "zigzag":
        if args.variant == "perfect":
            raise CliError("zigzag growth has no perfect variant")
        exact, base = (
            zigzag.all_matchings_growth_constant()
            if args.variant == "all"
            else zigzag.growth_constant()
        )
        payload = {
            "family": "zigzag",
            "variant": args.variant,
            "rate_per_index_exact": _quad_dict(exact),
            "rate_per_index": f"{exact.to_float():.9f}",
            "base_per_point": f"{base:.9f}",
        }
    else:
        if args.r is None:
            raise CliError("growth for chains needs --r")
        if args.corners:
            if args.variant != "down-free":
                raise CliError("--corners supports only the down-free variant")
            sys_r = corners.extract_band(args.r)
            m = corners.dominant_eigenvalue(sys_r.condensed)
            payload = {
                "family": "rchain-corners",
                "r": args.r,
                "eigenvalue_exact": _quad_dict(m),
                "eigenvalue": _fixed(m, 6),
                "base_per_point": f"{m.root_float(args.r):.9f}",
            }
        else:
            lam = chains.growth_factor(args.r, args.variant)
            payload = {
                "family": "rchain",
                "r": args.r,
                "growth_factor": str(lam),
                "base_per_point": f"{QuadNumber.from_rational(lam).root_float(args.r):.9f}",
            }
    _emit(args, _json(payload))
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    if args.max_r < 1:
        raise CliError("max-r must be positive")
    if args.corners:
        header = ["r", "cc", "cf", "fc", "ff", "rate"]
        table = []
        for r, condensed, rate in corners.condensed_table(args.max_r):
            (a, b), (c, e) = condensed
            table.append([r, a, b, c, e, f"{rate:.4f}"])
    else:
        header = ["r", "growth_factor", "rate"]
        table = []
        for r in range(1, args.max_r + 1):
            lam = chains.growth_factor(r)
            table.append([r, lam, f"{QuadNumber.from_rational(lam).root_float(r):.4f}"])
    _emit(args, _tabular(args.format, header, table))
    return 0


# ---------------------------------------------------------------------------
# double-pm
# ---------------------------------------------------------------------------


def cmd_double_pm(args) -> int:
    if args.construction != "dc":
        raise CliError("only the double chain has a closed-form count")
    if args.n < 0 or args.n % 2:
        raise CliError("double constructions need an even, nonnegative --n")
    _emit(args, str(doubling.double_chain_pm(args.n)) + "\n")
    return 0


# ---------------------------------------------------------------------------
# subeig
# ---------------------------------------------------------------------------


def cmd_subeig(args) -> int:
    try:
        num, den = args.epsilon.split("/") if "/" in args.epsilon else (args.epsilon, "1")
        eps = Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad epsilon {args.epsilon!r}: {exc}") from exc
    sys_r = corners.extract_band(args.r)
    resc = spectral.rescale(sys_r)
    cert = spectral.build_certificate(resc, eps)
    verdict = spectral.verify_certificate(resc, cert)
    payload = {
        "r": args.r,
        "epsilon": str(eps),
        "positivity_hypothesis": sys_r.positive_core,
        "eigenvalue_exact": _quad_dict(resc.m),
        "shift_constant": _quad_dict(cert.delta),
        "residual_bound": _quad_dict(cert.k_const),
        "peak_value": _quad_dict(cert.p),
        "peak_sqrt": _quad_dict(cert.root_p),
        "shift": _quad_dict(cert.s),
        "gap": _quad_dict(cert.gap),
        "support_x": list(cert.support_x),
        "support_y": list(cert.support_y),
        "verified": verdict,
    }
    _emit(args, _json(payload))
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _case(name: str, expected, got) -> dict:
    """One verify report row; a pair (corner split) shows as its halves joined by |."""
    show = lambda v: "|".join(map(str, v)) if isinstance(v, tuple) else str(v)
    return {"case": name, "expected": show(expected), "got": show(got), "pass": got == expected}


def _verify_zigzag(max_points: int) -> list[dict]:
    results = []
    kmax = max(0, max_points // 2)
    zz = zigzag.zigzag_series(kmax)
    za = zigzag.zigzag_series(kmax, "all")
    for k in range(1, kmax + 1):
        for kind, seq, parity, size in (
            ("down-free", zz.a, Parity.EVEN, 2 * k + 1),
            ("down-free", zz.b, Parity.ODD, 2 * k + 1),
            ("all", za.a, Parity.EVEN, 2 * k + 1),
        ):
            if size > max_points:
                continue
            ps = geometry.make_zigzag(size, parity)
            mk = MatchKind.DOWN_FREE if kind == "down-free" else MatchKind.ALL
            results.append(_case(f"{kind} {ps.label}", seq[k], oracle.census(ps, mk).total))
        if 2 * k <= max_points:
            ps = geometry.make_zigzag(2 * k, Parity.EVEN)
            got = oracle.census(ps, MatchKind.DOWN_FREE).total
            results.append(_case(f"down-free {ps.label}", zz.c[k], got))
    return results


def _verify_rchain(max_points: int, with_corners: bool) -> list[dict]:
    results = []
    for r in range(1, max_points + 1):
        # one recursion pass per r, up to the largest k that fits
        kmax = (max_points - 1) // r if with_corners else max_points // r
        series = corners.coupled_series(r, kmax) if with_corners else chains.runner_series(r, kmax)
        for k in range(1, kmax + 1):
            n = r * k + 1 if with_corners else r * k
            if n < 2:
                continue
            if with_corners:
                ps = geometry.make_rchain(r, k, corners=True)
                got = oracle.census_corner_split(ps)
                results.append(_case(f"corner split {ps.label}", series[k], got))
            else:
                ps = geometry.make_rchain(r, k, corners=False)
                got = oracle.census_runners(ps)
                results.append(_case(f"runner vector {ps.label}", series[k], got))
    return results


def _verify_double(max_points: int) -> list[dict]:
    results = []
    for n in range(2, max_points + 1, 2):
        d = geometry.double_chain(n)
        got = oracle.census(d.points, MatchKind.PERFECT).total
        want = doubling.double_chain_pm(n)
        results.append(_case(f"perfect matchings {d.points.label}", want, got))
    return results


def cmd_verify(args) -> int:
    started = time.perf_counter()
    if args.family == "zigzag":
        results = _verify_zigzag(args.max_points)
    elif args.family == "rchain":
        results = _verify_rchain(args.max_points, with_corners=False)
    elif args.family == "rchain-corners":
        results = _verify_rchain(args.max_points, with_corners=True)
    elif args.family == "double":
        results = _verify_double(args.max_points)
    else:
        raise CliError(f"unknown family {args.family}")
    if not results:
        raise CliError(f"--max-points {args.max_points} leaves no case to verify")
    report = {
        "command": f"verify --family {args.family} --max-points {args.max_points}",
        "cases": results,
        "all_pass": all(r["pass"] for r in results),
    }
    if args.timings:
        report["elapsed_seconds"] = round(time.perf_counter() - started, 3)
    _emit(args, _json(report))
    return 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ncmatch",
        description="exact matching counts and growth rates for chain constructions",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a point-set JSON file")
    p.add_argument("--family", required=True,
                   choices=["chain", "zigzag", "rchain", "double-chain", "double-zigzag"])
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--parity", choices=["even", "odd"], default="even")
    p.add_argument("--direction", choices=["downward", "upward"], default="downward")
    p.add_argument("--corners", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("count", help="oracle census of a point-set JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", default="down-free",
                   choices=[k.value for k in MatchKind])
    p.add_argument("--cap", type=int)
    p.add_argument("--config", help="JSON file with enumeration caps, e.g. "
                                    '{"caps": {"all": 18}}')
    p.add_argument("--out")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("recurse", help="recursion tables")
    p.add_argument("--family", required=True, choices=["zigzag", "rchain"])
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--r", type=int)
    p.add_argument("--corners", action="store_true")
    p.add_argument("--variant", choices=["down-free", "all"], default="down-free")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_recurse)

    p = sub.add_parser("growth", help="exact and float growth constants")
    p.add_argument("--family", default="rchain", choices=["zigzag", "rchain"])
    p.add_argument("--r", type=int)
    p.add_argument("--corners", action="store_true")
    p.add_argument("--variant", choices=["down-free", "perfect", "all"], default="down-free")
    p.add_argument("--out")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("table", help="growth summary table")
    p.add_argument("--max-r", type=int, default=20)
    p.add_argument("--corners", action="store_true")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("double-pm", help="perfect matchings of a double construction")
    p.add_argument("--construction", default="dc", choices=["dc"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_double_pm)

    p = sub.add_parser("subeig", help="build and verify a growth certificate")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--epsilon", default="1/10", help="positive rational like 1/100")
    p.add_argument("--out")
    p.set_defaults(func=cmd_subeig)

    p = sub.add_parser("verify", help="oracle-vs-recursion report over a size grid")
    p.add_argument("--family", required=True,
                   choices=["zigzag", "rchain", "rchain-corners", "double"])
    p.add_argument("--max-points", type=int, default=10)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, oracle.SizeCapError, ValueError, OSError) as exc:
        print(f"ncmatch: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 is reserved for a failed check, so a crash gets its own code
        print(f"ncmatch: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
