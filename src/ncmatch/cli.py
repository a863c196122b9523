"""Batch command-line front end.

Subcommands: gen, count, recurse, growth, table, double-pm, subeig, verify.
Big integers are printed as decimal strings and floats with a fixed number
of decimals, so every emitted table is byte-stable across runs.

``main`` may be called many times in one process (a batch of jobs), and
importing the module builds no parser.  Each subcommand's parser is built on
its first use and reused; the whole subcommand tree is built only for help
and usage errors: no command, an unknown one, top-level help and
unrecognized arguments.  One table, ``_COMMANDS``, feeds both.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
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


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


# the flags each family reads; any other flag given is a usage error
_GEN_FLAGS = {
    "chain": ("n", "direction"),
    "zigzag": ("n", "parity", "direction"),
    "rchain": ("r", "k", "corners"),
    "double-chain": ("n",),
    "double-zigzag": ("n", "parity"),
}


def _build_pointset(args) -> geometry.PointSet:
    fam = args.family
    # unset flags read None, and --corners False; a given --n 0 is still given
    given = [flag for flag in ("n", "r", "k", "parity", "direction")
             if getattr(args, flag) is not None] + ["corners"] * args.corners
    extra = [f"--{flag}" for flag in given if flag not in _GEN_FLAGS[fam]]
    if extra:
        raise CliError(f"gen --family {fam} does not take {', '.join(extra)}")
    n = 5 if args.n is None else args.n
    direction = Direction(args.direction or "downward")
    parity = Parity(args.parity or "even")
    if fam == "chain":
        return geometry.make_chain(n, direction)
    if fam == "zigzag":
        return geometry.make_zigzag(n, parity, direction)
    if fam == "rchain":
        if args.r is None or args.k is None:
            raise CliError("rchain needs --r and --k")
        return geometry.make_rchain(args.r, args.k, corners=args.corners)
    if fam == "double-chain":
        return geometry.double_chain(n).points
    return geometry.double_zigzag(n, parity).points


def cmd_gen(args) -> int:
    ps = _build_pointset(args)
    _emit(args, _json(geometry.to_json_dict(ps)))
    return 0


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def cmd_count(args) -> int:
    if args.cap is not None and args.cap < 0:
        raise CliError(f"--cap must be a nonnegative integer, not {args.cap}")
    with open(args.input, encoding="utf-8") as fh:
        ps = geometry.from_json_dict(json.load(fh))
    kind = MatchKind(args.kind)
    result = oracle.census(ps, kind, cap=args.cap)
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


def _reject_chain_flags(args) -> None:
    """The zigzag family takes neither --r nor --corners."""
    if args.r is not None or args.corners:
        raise CliError("--r and --corners apply only to the rchain family")


def cmd_recurse(args) -> int:
    if args.family == "zigzag":
        _reject_chain_flags(args)
        zz = zigzag.zigzag_series(args.kmax, args.variant)
        header = ["k", "odd_size_even_kind", "odd_size_odd_kind", "even_size"]
        table = [[k, zz.a[k], zz.b[k], zz.c[k]] for k in range(args.kmax + 1)]
    else:  # rchain
        if args.r is None:
            raise CliError("rchain needs --r")
        if args.variant != "down-free":
            raise CliError("rchain recursions count only the down-free variant")
        if args.corners:
            header = ["k", "count"]
            table = [[k, v] for k, v in enumerate(corners.chain_counts(args.r, args.kmax))]
        else:
            header = ["k", "counts_by_runner"]
            table = [
                [k, " ".join(map(str, vec))]
                for k, vec in enumerate(chains.runner_series(args.r, args.kmax))
            ]
    _emit(args, _tabular(args.format, header, table))
    return 0


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------


def cmd_growth(args) -> int:
    if args.family == "zigzag":
        _reject_chain_flags(args)
        if args.variant == "perfect":
            raise CliError("zigzag growth has no perfect variant")
        exact, base = zigzag.growth_constant(args.variant)
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
            if args.r < 1:
                raise CliError("r must be positive")
            m = corners.dominant_eigenvalue(corners._condensed_matrix(args.r))
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
        for r, lam in enumerate(chains._growth_factors(args.max_r, "down-free"), 1):
            table.append([r, lam, f"{QuadNumber.from_rational(lam).root_float(r):.4f}"])
    _emit(args, _tabular(args.format, header, table))
    return 0


# ---------------------------------------------------------------------------
# double-pm
# ---------------------------------------------------------------------------


def cmd_double_pm(args) -> int:
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
    if args.family == "zigzag":
        results = _verify_zigzag(args.max_points)
    elif args.family == "rchain":
        results = _verify_rchain(args.max_points, with_corners=False)
    elif args.family == "rchain-corners":
        results = _verify_rchain(args.max_points, with_corners=True)
    else:  # double
        results = _verify_double(args.max_points)
    if not results:
        raise CliError(f"--max-points {args.max_points} leaves no case to verify")
    report = {
        "command": f"verify --family {args.family} --max-points {args.max_points}",
        "cases": results,
        "all_pass": all(r["pass"] for r in results),
    }
    _emit(args, _json(report))
    return 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# Each command's help line and its arguments but --out, which every command
# takes.  Both parsers below are built from this one table.
_COMMANDS = {
    "gen": ("emit a point-set JSON file", (
        ("--family", {"required": True,
                      "choices": ["chain", "zigzag", "rchain", "double-chain", "double-zigzag"]}),
        # --n, --parity and --direction default per family (5, even, downward)
        ("--n", {"type": int}),
        ("--r", {"type": int}),
        ("--k", {"type": int}),
        ("--parity", {"choices": ["even", "odd"]}),
        ("--direction", {"choices": ["downward", "upward"]}),
        ("--corners", {"action": "store_true"}),
    )),
    "count": ("oracle census of a point-set JSON file", (
        ("--input", {"required": True}),
        ("--kind", {"default": "down-free", "choices": [k.value for k in MatchKind]}),
        ("--cap", {"type": int}),
    )),
    "recurse": ("recursion tables", (
        ("--family", {"required": True, "choices": ["zigzag", "rchain"]}),
        ("--kmax", {"type": int, "default": 10}),
        ("--r", {"type": int}),
        ("--corners", {"action": "store_true"}),
        ("--variant", {"choices": ["down-free", "all"], "default": "down-free"}),
        ("--format", {"choices": ["csv", "json"], "default": "csv"}),
    )),
    "growth": ("exact and float growth constants", (
        ("--family", {"default": "rchain", "choices": ["zigzag", "rchain"]}),
        ("--r", {"type": int}),
        ("--corners", {"action": "store_true"}),
        ("--variant", {"choices": ["down-free", "perfect", "all"], "default": "down-free"}),
    )),
    "table": ("growth summary table", (
        ("--max-r", {"type": int, "default": 20}),
        ("--corners", {"action": "store_true"}),
        ("--format", {"choices": ["csv", "json"], "default": "csv"}),
    )),
    "double-pm": ("perfect matchings of a double construction", (
        ("--construction", {"default": "dc", "choices": ["dc"]}),
        ("--n", {"type": int, "required": True}),
    )),
    "subeig": ("build and verify a growth certificate", (
        ("--r", {"type": int, "required": True}),
        ("--epsilon", {"default": "1/10",
                       "help": "rational in (0, M) like 1/100, M the eigenvalue"}),
    )),
    "verify": ("oracle-vs-recursion report over a size grid", (
        ("--family", {"required": True, "choices": ["zigzag", "rchain", "rchain-corners", "double"]}),
        ("--max-points", {"type": int, "default": 10}),
    )),
}


def _add_arguments(p: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    for flag, options in _COMMANDS[command][1]:
        p.add_argument(flag, **options)
    p.add_argument("--out")
    p.set_defaults(command=command)
    return p


@functools.cache
def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command, or with no command the whole tree, each
    built on its first call and reused by every later one.

    A command's own parser is the tree's subparser of that command, flat:
    same prog, arguments and help, so it gives the same namespace and the
    same help and error bytes.  Only an unrecognized argument reads
    differently (the tree reports it at the top level), so ``main`` hands
    that case to the tree.
    """
    if command is not None:
        return _add_arguments(argparse.ArgumentParser(prog=f"ncmatch {command}"), command)
    top = argparse.ArgumentParser(
        prog="ncmatch",
        description="exact matching counts and growth rates for chain constructions",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_line), name)
    return top


def _parse(argv: list[str]) -> argparse.Namespace:
    """The tree's namespace for argv, from the named command's parser alone
    when it accepts every argument; help, a missing or unknown command and
    unrecognized arguments go to the tree."""
    if argv and argv[0] in _COMMANDS:
        args, rest = _parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    # looked up per call, so a cmd_* replaced after the first build is the one run
    func = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return func(args)
    except (CliError, oracle.SizeCapError, ValueError, OSError) as exc:
        print(f"ncmatch: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 is reserved for a failed check, so a crash gets its own code
        print(f"ncmatch: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
