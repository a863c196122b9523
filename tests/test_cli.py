import hashlib
import json
from fractions import Fraction

import pytest

from ncmatch.cli import main
from ncmatch.quadfield import QuadNumber

Q = QuadNumber.from_rational


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_table_matches_growth_column(capsys):
    code, out, _ = run(capsys, "table", "--max-r", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,growth_factor,rate"
    row11 = lines[11].split(",")
    assert row11 == ["11", "240054", "3.0840"]


def test_table_with_corners(capsys):
    code, out, _ = run(capsys, "table", "--max-r", "8", "--corners")
    assert code == 0
    assert out.strip().splitlines()[-1] == "8,2885,2619,6022,5504,3.0930"


def test_table_byte_stable(capsys):
    _, first, _ = run(capsys, "table", "--max-r", "9", "--corners")
    _, second, _ = run(capsys, "table", "--max-r", "9", "--corners")
    assert first == second


@pytest.mark.parametrize(
    "fmt,digest",
    [
        ("csv", "9663c2ed84b954daf229ccd147002e9c8674836becd9fb84716ffcd568e1044b"),
        ("json", "c5d08f9b07dcd97f09030a7bb884262ce6a94a9d687310c6cd7457b112ab1b03"),
    ],
)
def test_corner_table_to_sixty_is_pinned(capsys, fmt, digest):
    # stdout is byte-stable by contract, so these digests never move
    code, out, _ = run(capsys, "table", "--max-r", "60", "--corners", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_growth_corners_one_to_sixty_is_pinned(capsys):
    # the bench's sweep jobs, one process per r; the digest is over their
    # concatenated stdout and never moves
    digest = hashlib.sha256()
    for r in range(1, 61):
        code, out, _ = run(capsys, "growth", "--r", str(r), "--corners")
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == "f15771dacd80f76041853fa19901aea8257b97caf2ec523f11de77ec0423b121"


def test_growth_corners_nine_decimals(capsys):
    code, out, _ = run(capsys, "growth", "--r", "8", "--corners")
    assert code == 0
    assert json.loads(out)["base_per_point"] == "3.093005695"


def _bracketed_by_rate(value, rate: str, r: int) -> bool:
    """(x - 1e-9)^r < value < (x + 1e-9)^r for the printed 9-decimal rate x."""
    x, ulp = Fraction(rate), Fraction(1, 10**9)
    return Q((x - ulp) ** r) < value < Q((x + ulp) ** r)


@pytest.mark.parametrize("r", [644, 645, 700])
def test_growth_past_float_range(capsys, r):
    code, out, _ = run(capsys, "growth", "--r", str(r))
    assert code == 0
    data = json.loads(out)
    assert _bracketed_by_rate(Q(int(data["growth_factor"])), data["base_per_point"], r)


@pytest.mark.parametrize("r", [644, 645, 700])
def test_growth_corners_past_float_range(capsys, r):
    code, out, _ = run(capsys, "growth", "--r", str(r), "--corners")
    assert code == 0
    data = json.loads(out)
    m = QuadNumber(*(data["eigenvalue_exact"][k] for k in "abcd"))
    assert _bracketed_by_rate(m, data["base_per_point"], r)
    if r >= 645:  # past the float range the display is m itself, rounded
        assert abs(m - Q(Fraction(data["eigenvalue"]))) <= Q(Fraction(1, 2 * 10**6))
        assert len(data["eigenvalue"].split(".")[1]) == 6


def test_growth_zigzag(capsys):
    code, out, _ = run(capsys, "growth", "--family", "zigzag")
    data = json.loads(out)
    assert data["rate_per_index_exact"] == {"a": 9, "b": 1, "c": 2, "d": 93}
    assert data["base_per_point"].startswith("3.0531664")


@pytest.mark.parametrize("variant, factor", [("down-free", 28), ("perfect", 10), ("all", 29)])
def test_growth_rchain_variants(capsys, variant, factor):
    from ncmatch.chains import growth_factor

    code, out, _ = run(capsys, "growth", "--r", "3", "--variant", variant)
    assert code == 0
    assert json.loads(out)["growth_factor"] == str(factor) == str(growth_factor(3, variant))


def test_growth_zigzag_perfect_is_usage_error(capsys):
    code, out, err = run(capsys, "growth", "--family", "zigzag", "--variant", "perfect")
    assert (code, out) == (2, "")
    assert "no perfect variant" in err


@pytest.mark.parametrize("variant", ["perfect", "all"])
def test_growth_corners_other_variant_is_usage_error(capsys, variant):
    code, out, err = run(capsys, "growth", "--r", "3", "--corners", "--variant", variant)
    assert (code, out) == (2, "")
    assert "only the down-free variant" in err


@pytest.mark.parametrize("extra", [["--r", "3"], ["--corners"], ["--r", "3", "--corners"]])
def test_growth_zigzag_chain_flags_are_usage_errors(capsys, extra):
    code, out, err = run(capsys, "growth", "--family", "zigzag", *extra)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "only to the rchain family" in err


@pytest.mark.parametrize("extra", [["--r", "3"], ["--corners"], ["--r", "3", "--corners"]])
def test_recurse_zigzag_chain_flags_are_usage_errors(capsys, extra):
    code, out, err = run(capsys, "recurse", "--family", "zigzag", "--kmax", "3", *extra)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "only to the rchain family" in err


@pytest.mark.parametrize("extra", [[], ["--corners"]])
def test_recurse_rchain_all_variant_is_usage_error(capsys, extra):
    code, out, err = run(capsys, "recurse", "--family", "rchain", "--r", "3", "--kmax", "3",
                         "--variant", "all", *extra)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "only the down-free variant" in err


def test_gen_count_round_trip(tmp_path, capsys):
    path = tmp_path / "pts.json"
    code, _, _ = run(capsys, "gen", "--family", "zigzag", "--n", "9", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "count", "--input", str(path), "--kind", "down-free")
    assert code == 0
    data = json.loads(out)
    from ncmatch.zigzag import zigzag_series

    assert data["total"] == str(zigzag_series(4).a[4])
    assert sum(int(v) for v in data["by_free"].values()) == int(data["total"])


def test_gen_validates_rchain_args(capsys):
    code, _, err = run(capsys, "gen", "--family", "rchain")
    assert code == 2 and "rchain" in err


def test_count_cap_violation_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "pts.json"
    run(capsys, "gen", "--family", "chain", "--n", "12", "--out", str(path))
    code, _, err = run(capsys, "count", "--input", str(path), "--kind", "all", "--cap", "10")
    assert code == 2
    assert "cap" in err


def test_double_pm_value(capsys):
    code, out, _ = run(capsys, "double-pm", "--construction", "dc", "--n", "14")
    assert code == 0 and out.strip() == "6567"


def test_double_pm_odd_rejected(capsys):
    code, _, err = run(capsys, "double-pm", "--construction", "dc", "--n", "7")
    assert code == 2 and "even" in err


def test_recurse_zigzag(capsys):
    code, out, _ = run(capsys, "recurse", "--family", "zigzag", "--kmax", "3")
    rows = out.strip().splitlines()
    assert rows[0].startswith("k,")
    assert rows[1] == "0,1,1,1"
    assert rows[2] == "1,3,4,2"


@pytest.mark.parametrize(
    "argv,digest",
    [
        (("zigzag", "--kmax", "75"),
         "e4424c24928e988f46703ab861fbbaba8c7520519f4ff8cab57c61209a5de3ab"),
        (("zigzag", "--kmax", "75", "--variant", "all"),
         "7a021c8c30c351f5f28913f36b80f13102a9acf78ab0b3122d3d38250b221c36"),
        (("rchain", "--r", "3", "--kmax", "50"),
         "632a486b40cd7ea40b8f3a94bd2a07b1fe74d59a0ca5b07e7fccc535d0f20367"),
        (("rchain", "--r", "3", "--kmax", "50", "--corners"),
         "a5eb435ca563d225cf64fe7a18e4b8759bc6c3c7047a9afe7adbd1d001897bd3"),
    ],
)
def test_recurse_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "recurse", "--family", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_recurse_rchain_corners(capsys):
    code, out, _ = run(capsys, "recurse", "--family", "rchain", "--r", "2", "--corners", "--kmax", "3")
    assert out.strip().splitlines()[-1] == "3,136"


def test_subeig_small(capsys):
    code, out, _ = run(capsys, "subeig", "--r", "2", "--epsilon", "1/10")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["positivity_hypothesis"] is False
    assert data["support_x"][0] >= 1


@pytest.mark.parametrize(
    "r,eps,digest",
    [
        (1, "1/10", "9b9ca0f191035712c408238133590e9e946d4de301ec16ff5df03460d688f8df"),
        (1, "1/100", "521e3eea8e5110258ea6f28d0214c84065973323b7604acde82b8f4834476ec0"),
        (2, "1/10", "000089c336401ab67463a8a4cbfa811238da2ced62030f10fe41d1b914dc9ca1"),
        (2, "1/100", "4a8fe6e80aae0cc88d6be4ad7b8ba481f80d1d5cd2aa462f43b062fe8bca647a"),
        (3, "1/10", "001f6c78f724c9fcf0fbef28d0ef6b1f92059cbd693e80b56629bf759c7938c3"),
        (3, "1/100", "bd25e0609ef276592ad7837d39724a497bcbd150bed67d7aa5369aaf76da4a8e"),
        (4, "1/10", "0016615be0bd4c575e574bcf3406e9125ccc1d517c0d27fd4495523ae966e6ff"),
        (4, "1/100", "9cf95fb7f3172580bd31279d778d87b835bb95415c2cb794ee3e93f89a533e41"),
        (5, "1/10", "9c0ff3248355af58cd4d4f7f0651e72c56a5eb8c18b009aae651803ec787b7bb"),
        (5, "1/100", "3261ec2306f3d3d7d9f1877c8233667d59fb9bf09bbfd1ff9e11f21a1c07669c"),
        (6, "1/10", "da693b1975a26835c4e68c73894be784ed158c73d014cd3df8818fcd605f806d"),
        (6, "1/100", "e5831b395593bb679165d2b99a428e60d373a46812160b07399d201d8ebf32b0"),
        (7, "1/10", "188f7615385e8865ba906fba249cc172dac9c4a6928646b3cf08d083df58882d"),
        (7, "1/100", "7d8dabb629fa86d56b8a1e65fc06b6445729104f8773eba5f1e5f11dd19a9a58"),
        (8, "1/10", "943e4fb3228433b90418c4a10949879ade4dcaa6d7e7be050066680ff9a64b9a"),
        (8, "1/100", "7089e905ee35165bcb3fc24ea1db19941ff958f70ef3abab93fb22d4e3f418e5"),
        (2, "5", "4ddb4b58c6961981d1ee59b65f14ce0764d0292c4b12c7e6cdb824dc232b5f4c"),
    ],
)
def test_subeig_output_is_pinned(capsys, r, eps, digest):
    # at eps 5 the peak sits near the head of the value set; from r = 4 on
    # both supports start at r - 2, past the head block
    code, out, _ = run(capsys, "subeig", "--r", str(r), "--epsilon", eps)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("r,eps", [(1, "3"), (2, "100"), (2, "1000000000")])
def test_subeig_epsilon_at_or_above_eigenvalue_is_usage_error(capsys, r, eps):
    # M - eps <= 0 bounds nothing (M = 3 exactly at r = 1, about 9.32 at r = 2)
    code, out, err = run(capsys, "subeig", "--r", str(r), "--epsilon", eps)
    assert code == 2
    assert out == ""
    assert "between 0 and the eigenvalue" in err


def test_subeig_bad_epsilon(capsys):
    code, _, err = run(capsys, "subeig", "--r", "2", "--epsilon", "zero")
    assert code == 2


def test_subeig_zero_denominator_epsilon_is_usage_error(capsys):
    code, out, err = run(capsys, "subeig", "--r", "2", "--epsilon", "1/0")
    assert code == 2
    assert out == ""
    assert "bad epsilon '1/0'" in err


def test_verify_zigzag_report(capsys):
    code, out, _ = run(capsys, "verify", "--family", "zigzag", "--max-points", "9")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert "elapsed_seconds" not in report
    assert all(case["pass"] for case in report["cases"])


def test_verify_zigzag_full_grid(capsys):
    code, out, _ = run(capsys, "verify", "--family", "zigzag", "--max-points", "14")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_verify_zigzag_two_points_is_one_case(capsys):
    code, out, _ = run(capsys, "verify", "--family", "zigzag", "--max-points", "2")
    assert code == 0
    cases = json.loads(out)["cases"]
    assert [case["case"] for case in cases] == ["down-free zigzag(n=2,even,downward)"]
    assert cases[0]["pass"] is True


def test_verify_zigzag_reaches_the_largest_even_size(capsys):
    code, out, _ = run(capsys, "verify", "--family", "zigzag", "--max-points", "4")
    assert code == 0
    names = [case["case"] for case in json.loads(out)["cases"]]
    assert "down-free zigzag(n=4,even,downward)" in names
    assert not any("n=5" in name for name in names)


def test_verify_report_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--family", "double", "--max-points", "8")
    _, second, _ = run(capsys, "verify", "--family", "double", "--max-points", "8")
    assert first == second


def test_unknown_flag_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["count", "--input", "pts.json", "--config", "cfg.json"],
     ["verify", "--family", "zigzag", "--max-points", "4", "--timings"]],
    ids=["count-config", "verify-timings"],
)
def test_retired_options_are_unrecognized(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag = next(a for a in argv if a in ("--config", "--timings"))
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_verify_rchain_corners_report(capsys):
    code, out, _ = run(capsys, "verify", "--family", "rchain-corners", "--max-points", "9")
    assert code == 0
    report = json.loads(out)
    assert len(report["cases"]) == 20
    assert report["all_pass"] is True


def test_verify_rchain_corners_flags_a_wrong_recursion_entry(capsys, monkeypatch):
    import ncmatch.cli as cli

    real = cli.corners.coupled_series

    def perturbed(r, kmax):
        series = real(r, kmax)
        if r == 2:
            c_vec, f_vec = series[2]
            series[2] = (c_vec, [f_vec[0] + 1] + f_vec[1:])
        return series

    monkeypatch.setattr(cli.corners, "coupled_series", perturbed)
    code, out, _ = run(capsys, "verify", "--family", "rchain-corners", "--max-points", "9")
    assert code == 1
    report = json.loads(out)
    assert report["all_pass"] is False
    assert [case["case"] for case in report["cases"] if not case["pass"]] == [
        "corner split rchain(r=2,k=2,corners)"
    ]


@pytest.mark.parametrize(
    "argv,message",
    [(["recurse", "--family", "rchain", "--kmax", "3"], "rchain needs --r"),
     (["growth"], "growth for chains needs --r")],
    ids=["recurse", "growth"],
)
def test_chain_commands_without_r_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"ncmatch: {message}\n"


def test_recurse_rchain_rows_are_consecutive_steps(capsys):
    from ncmatch.chains import runner_counts, transfer_matrix

    code, out, _ = run(capsys, "recurse", "--family", "rchain", "--r", "3", "--kmax", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,counts_by_runner" and len(lines) == 14
    prev = None
    for k, line in enumerate(lines[1:]):
        kk, cell = line.split(",")
        vec = [int(v) for v in cell.strip('"').split()]
        assert int(kk) == k and vec == runner_counts(3, k)
        assert vec == ([1] if prev is None else transfer_matrix(3).apply(prev))
        prev = vec


@pytest.mark.parametrize("max_points", ["-3", "0", "1"])
@pytest.mark.parametrize("family", ["zigzag", "rchain", "rchain-corners", "double"])
def test_verify_with_no_cases_is_usage_error(capsys, family, max_points):
    code, out, err = run(capsys, "verify", "--family", family, "--max-points", max_points)
    assert code == 2
    assert out == ""
    assert err == f"ncmatch: --max-points {max_points} leaves no case to verify\n"


def test_double_pm_negative_rejected(capsys):
    code, out, err = run(capsys, "double-pm", "--construction", "dc", "--n", "-4")
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


@pytest.mark.parametrize("kmax", ["0", "3"])
@pytest.mark.parametrize("r", ["0", "-2"])
def test_recurse_rchain_arc_size_below_one_is_usage_error(capsys, r, kmax):
    code, out, err = run(capsys, "recurse", "--family", "rchain", "--r", r, "--kmax", kmax)
    assert code == 2 and out == ""
    assert "r must be positive" in err


@pytest.mark.parametrize("extra", [[], ["--corners"]])
@pytest.mark.parametrize("r", ["0", "-2"])
def test_growth_arc_size_below_one_is_usage_error(capsys, r, extra):
    code, out, err = run(capsys, "growth", "--r", r, *extra)
    assert (code, out, err) == (2, "", "ncmatch: r must be positive\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("extra", [[], ["--corners"]])
@pytest.mark.parametrize("max_r", ["0", "-3"])
def test_table_max_r_below_one_is_usage_error(capsys, max_r, extra, fmt):
    code, out, err = run(capsys, "table", "--max-r", max_r, *extra, "--format", fmt)
    assert code == 2 and out == ""
    assert "max-r must be positive" in err


@pytest.mark.parametrize("extra", [[], ["--corners"]])
def test_recurse_negative_kmax_is_usage_error(capsys, extra):
    code, out, err = run(capsys, "recurse", "--family", "rchain", "--r", "3", "--kmax", "-1", *extra)
    assert code == 2 and out == ""
    assert "kmax must be nonnegative" in err


@pytest.mark.parametrize("cap", ["-1", "-40"])
def test_count_negative_cap_is_refused_before_enumeration(tmp_path, capsys, monkeypatch, cap):
    import ncmatch.cli as cli

    def no_census(*args, **kwargs):
        raise AssertionError("enumerated")

    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--family", "chain", "--n", "3", "--out", str(pts))
    monkeypatch.setattr(cli.oracle, "census", no_census)
    code, out, err = run(capsys, "count", "--input", str(pts), "--cap", cap)
    assert (code, out) == (2, "")
    assert err == f"ncmatch: --cap must be a nonnegative integer, not {cap}\n"


def test_count_zero_cap_reaches_the_enumeration(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--family", "chain", "--n", "3", "--out", str(pts))
    code, out, err = run(capsys, "count", "--input", str(pts), "--cap", "0")
    assert code == 2 and out == ""
    assert "exceeds the down-free enumeration cap 0" in err


@pytest.mark.parametrize(
    "data",
    [
        {"label": "no points"},
        {"points": [[0, 1, 0, 1], [1, 0, 2, 1]]},
        {"points": [[0, 1, 0, 1], [1.5, 1, 2, 1]]},
        {"points": [[0, 1, 0, 1], [True, 1, 2, 1]]},
        {"points": [[0, 1, 0, 1], [1, 1, 2]]},
        {"points": [[0, 1, 0, 1], [1, 1, 2, 1, 5]]},
        {"label": ["x"], "points": [[0, 1, 0, 1], [1, 1, 2, 1]]},
    ],
    ids=["missing-points", "zero-denominator", "float-entry", "bool-entry", "three-entries",
         "five-entries", "list-label"],
)
def test_count_malformed_point_json_is_usage_error(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "count", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("ncmatch: ") and "Traceback" not in err


def test_unlabelled_set_error_has_no_empty_prefix(tmp_path, capsys):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({"points": [[0, 1, 0, 1], [0, 1, 1, 1]]}))
    code, out, err = run(capsys, "count", "--input", str(path))
    assert code == 2 and out == ""
    assert err == "ncmatch: x-coordinates not strictly increasing\n"


def test_count_missing_input_file_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "count", "--input", str(tmp_path / "absent.json"))
    assert code == 2 and out == ""
    assert "absent.json" in err


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    import ncmatch.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_table", broken)
    code, out, err = run(capsys, "table", "--max-r", "3")
    assert code == 3 and out == ""
    assert err == "ncmatch: internal error: RuntimeError: boom\n"


@pytest.mark.parametrize(
    "argv,flags",
    [
        (["--family", "zigzag", "--n", "3", "--r", "5", "--k", "2", "--corners"], "--r, --k, --corners"),
        (["--family", "rchain", "--r", "2", "--k", "2", "--n", "40", "--parity", "odd"], "--n, --parity"),
        (["--family", "rchain", "--r", "2", "--k", "2", "--n", "0"], "--n"),
        (["--family", "chain", "--parity", "odd"], "--parity"),
        (["--family", "double-chain", "--direction", "upward"], "--direction"),
    ],
)
def test_gen_flag_of_another_family_is_usage_error(capsys, argv, flags):
    code, out, err = run(capsys, "gen", *argv)
    assert (code, out) == (2, "")
    assert err == f"ncmatch: gen --family {argv[1]} does not take {flags}\n"


def test_gen_defaults_resolve_per_family(capsys):
    from ncmatch import geometry

    _, out, _ = run(capsys, "gen", "--family", "zigzag")
    want = geometry.make_zigzag(5, geometry.Parity.EVEN, geometry.Direction.DOWNWARD)
    assert json.loads(out) == geometry.to_json_dict(want)
    _, out, _ = run(capsys, "gen", "--family", "double-zigzag", "--n", "4")
    assert json.loads(out) == geometry.to_json_dict(geometry.double_zigzag(4).points)


def test_parser_is_built_once():
    import ncmatch.cli as cli

    assert cli._parser() is cli._parser()


def _every_subcommand(pts) -> list:
    return [
        ["gen", "--family", "zigzag", "--n", "7"],
        ["gen", "--family", "rchain", "--r", "2", "--k", "2", "--n", "4"],
        ["count", "--input", str(pts), "--kind", "all"],
        ["recurse", "--family", "zigzag", "--kmax", "5", "--format", "json"],
        ["recurse", "--family", "rchain", "--r", "3", "--corners", "--kmax", "4"],
        ["growth", "--r", "4", "--corners"],
        ["growth", "--family", "zigzag", "--variant", "all"],
        ["table", "--max-r", "6", "--corners"],
        ["table", "--max-r", "6", "--format", "json"],
        ["table", "--bogus"],
        ["double-pm", "--construction", "dc", "--n", "8"],
        ["subeig", "--r", "2", "--epsilon", "1/10"],
        ["verify", "--family", "rchain", "--max-points", "5"],
    ]


def _run_every_subcommand(capsys, pts, fresh_parser: bool) -> list:
    import ncmatch.cli as cli

    seen = []
    for argv in _every_subcommand(pts):
        if fresh_parser:
            cli._parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = ("exit", exc.code)
        seen.append((argv, code, capsys.readouterr().out))
    return seen


def test_reused_parser_gives_the_bytes_of_a_fresh_one(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--family", "chain", "--n", "6", "--out", str(pts))
    reused = _run_every_subcommand(capsys, pts, fresh_parser=False)
    fresh = _run_every_subcommand(capsys, pts, fresh_parser=True)
    assert reused == fresh
    assert [code for _, code, _ in reused] == [0, 2, 0, 0, 0, 0, 0, 0, 0, ("exit", 2), 0, 0, 0]


def test_command_patched_after_the_parser_is_built_is_run(monkeypatch, capsys):
    import ncmatch.cli as cli

    cli._parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_double_pm", lambda args: seen.append(args.n) or 0)
    code, out, _ = run(capsys, "double-pm", "--n", "6")
    assert (code, out, seen) == (0, "", [6])


def test_import_builds_no_parser():
    import subprocess
    import sys
    from pathlib import Path

    import ncmatch

    src = str(Path(ncmatch.__file__).resolve().parents[1])
    probe = "import ncmatch.cli as cli; print(cli._parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-B", "-c", probe], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, check=True)
    assert done.stdout == "0\n"


def test_command_parser_gives_the_namespace_of_the_tree(tmp_path):
    import ncmatch.cli as cli

    for argv in _every_subcommand(tmp_path / "pts.json"):
        if argv == ["table", "--bogus"]:
            continue
        tree = cli._parser().parse_args(argv)
        assert vars(cli._parser(argv[0]).parse_args(argv[1:])) == vars(tree), argv
        assert vars(cli._parse(argv)) == vars(tree), argv


# help, usage errors and a few accepted spellings: each is read by the
# command's own parser, by the tree, or by the first and then the tree
_HELP_AND_USAGE_ARGV = [
    [], ["-h"], ["--help"], ["-h", "growth"], ["bogus"], ["bogus", "--r", "3"],
    ["--", "growth", "--r", "3"], ["growth", "-h"], ["growth", "--he"], ["subeig", "-h"],
    ["count", "--help"], ["growth", "--bogus", "-h"], ["growth", "--r", "x"], ["growth", "--r"],
    ["growth", "--family", "nope"], ["growth", "--r", "3", "extra"], ["growth", "--", "--r", "3"],
    ["growth", "--r=4", "--corners"], ["table", "--bogus"], ["table", "--max", "5"],
    ["table", "--max-r", "5", "--bogus", "--format", "json"], ["gen"], ["gen", "--bogus"],
    ["double-pm", "--n", "x", "--bogus"], ["verify", "--family"],
]


def _outcome(capsys, argv) -> tuple:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", _HELP_AND_USAGE_ARGV, ids=" ".join)
def test_help_and_usage_errors_give_the_bytes_of_the_tree(monkeypatch, capsys, argv):
    import ncmatch.cli as cli

    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._parser().parse_args(argv))
    assert got == _outcome(capsys, argv)
    assert got[1] or got[2]


_PARSERS_BUILT = """
import contextlib, io, sys
import ncmatch.cli as cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(sys.argv[1:])
    except SystemExit:
        pass
before = cli._parser.cache_info().currsize
cli._parser()  # the tree: a cache hit only if main built it
print(before, cli._parser.cache_info().currsize)
"""


@pytest.mark.parametrize(
    "argv,sizes",
    [(["growth", "--r", "3", "--corners"], "1 2"),  # the growth parser alone
     (["table", "--bogus"], "2 2")],  # the table parser and the tree
    ids=["growth", "table-bogus"],
)
def test_only_the_named_command_parser_is_built(argv, sizes):
    done = _python("-c", _PARSERS_BUILT, *argv)
    assert (done.returncode, done.stdout) == (0, sizes + "\n")


def _python(*args):
    """A fresh interpreter on this checkout's ncmatch, without bytecode."""
    import subprocess
    import sys
    from pathlib import Path

    import ncmatch

    src = str(Path(ncmatch.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-B", *args], capture_output=True, text=True,
                          env={"PYTHONPATH": src})


def test_script_reads_its_own_argv():
    done = _python("-m", "ncmatch.cli", "growth", "--r", "3", "--corners")
    assert (done.returncode, done.stderr) == (0, "")
    digest = "68676fc4cd74b7eb90afaad59b14ba59d1236c705212a0f289aae496b5b6be4e"
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest


def test_script_help_exits_zero():
    done = _python("-m", "ncmatch.cli", "-h")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: ncmatch [-h]")
    assert "exact matching counts and growth rates" in done.stdout


@pytest.mark.parametrize(
    "argv,digest",
    [
        (("chain", "--n", "9", "--direction", "upward"),
         "232066cfd87498694c0606dd6b9f149aa465370f827b4f4ed638c377aa6fdce8"),
        (("zigzag", "--n", "12", "--parity", "odd"),
         "a396db422e267bc406549f3234c65d374c98a022777da332f2735d09427eddfc"),
        (("zigzag", "--n", "11", "--direction", "upward"),
         "b50a1330041ea47a82e81adc9e1a6b97eaa012204ba595060d46f372ef28efa7"),
        (("rchain", "--r", "4", "--k", "3", "--corners"),
         "9958d4f8f3fa1cd820dea6c7cb1ed354b4223a31924e9da4595039f65eee8580"),
        (("rchain", "--r", "3", "--k", "4"),
         "7cb260dae749082e06cf1f5ab58eda5e739165e9d8231fdf976ce79a7564e761"),
        (("double-chain", "--n", "12"),
         "fe22bed5f651f1436461ae346d737fb26e856469e35c3fc416c1ee5e3cc37c41"),
        (("double-zigzag", "--n", "12", "--parity", "odd"),
         "60a6b4c992b67dfd6dd3518b636d5b5517b878054f0485bf6d0eeb63bd7a59b9"),
    ],
)
def test_gen_output_is_pinned(capsys, argv, digest):
    # the constructions' coordinates are byte-stable by contract
    code, out, _ = run(capsys, "gen", "--family", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt,digest",
    [
        ("csv", "dbd2d4b6127c37e1c7a027fb1a1f29f41e3df761e45dac557ff514ea5f82e17c"),
        ("json", "a0989922a12338c0c9a289adcaaaf8651c467b87527e10b9b6a3c11d0145cd52"),
    ],
)
def test_table_to_sixty_is_pinned(capsys, fmt, digest):
    code, out, _ = run(capsys, "table", "--max-r", "60", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_takes_its_factors_in_one_pass(monkeypatch, capsys):
    from ncmatch import chains

    monkeypatch.setattr(chains, "growth_factor", lambda *a: pytest.fail("per-row growth_factor"))
    code, out, _ = run(capsys, "table", "--max-r", "12")
    assert code == 0
    assert out.splitlines()[11] == "11,240054,3.0840"
