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
        (4, "1/10", "2fa4459597b76e42ccd8e0326d55f83ee6590a011c5839888d1e48f0660f117f"),
        (4, "1/100", "c43bdf445529edd255cb525bc87e9e5df7c5ecf8a44fc31a2fc2fef92f2c5632"),
        (5, "1/10", "b94324444e7904d74de8949629969e68cbaa88d97de00c60e1faa26b765b1635"),
        (5, "1/100", "b8a3d89e40ea92e0d435f388d8f23431e63e01664981617891bc15cb504aa4ff"),
        (6, "1/10", "939a475393ec41b16437e1bf2ae802adbd2d671a5bcb6236f20c927fd7791e07"),
        (6, "1/100", "d7088c89aea0f3cd90aef5de4d5d01fd69627a47ccd0e3f24cb9cbdafa91b68a"),
        (7, "1/10", "1e39a158682d98590c8469c494217e4e17a2bcd1c334cf8dedfedbaa8812f827"),
        (7, "1/100", "d510f2859984a77e38d1f091aee58c96845f813b374153fa807edd78392d5b12"),
        (8, "1/10", "5f3015d7dc8706460ed268621c101014858ad8da236d33278ca291d8f2909108"),
        (8, "1/100", "211ffecd873d0007436fb2d74b4d1102facd54ccf7adf63ad4ea6093ec9fefea"),
        (2, "5", "4ddb4b58c6961981d1ee59b65f14ce0764d0292c4b12c7e6cdb824dc232b5f4c"),
        (2, "1000000000", "c10131cc98a8632c4f9ee8184c4d2109665573735b5a524cf3d68980f7c94732"),
    ],
)
def test_subeig_output_is_pinned(capsys, r, eps, digest):
    # at eps 5 and 10**9 the peak sits at the head of the value set
    code, out, _ = run(capsys, "subeig", "--r", str(r), "--epsilon", eps)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("config", ["[]", '{"caps": [18]}'])
def test_count_config_must_be_an_object(tmp_path, capsys, config):
    pts, cfg = tmp_path / "pts.json", tmp_path / "cfg.json"
    run(capsys, "gen", "--family", "chain", "--n", "5", "--out", str(pts))
    cfg.write_text(config)
    code, out, err = run(capsys, "count", "--input", str(pts), "--config", str(cfg))
    assert code == 2 and out == ""
    assert "config" in err


@pytest.mark.parametrize(
    "caps",
    [{"down-free": "18"}, {"down-free": True}, {"down-free": 2.5}, {"down-free": -1},
     {"down-free": None}, {"downfree": 18}, {"all": 18, "every": 18}],
    ids=["string", "bool", "float", "negative", "null", "unknown-key", "one-unknown-key"],
)
def test_count_config_caps_are_validated(tmp_path, capsys, caps):
    pts, cfg = tmp_path / "pts.json", tmp_path / "cfg.json"
    run(capsys, "gen", "--family", "chain", "--n", "5", "--out", str(pts))
    cfg.write_text(json.dumps({"caps": caps}))
    code, out, err = run(capsys, "count", "--input", str(pts), "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("ncmatch: config: ") and err.count("\n") == 1


def test_count_config_caps_of_other_kinds_are_accepted(tmp_path, capsys):
    pts, cfg = tmp_path / "pts.json", tmp_path / "cfg.json"
    run(capsys, "gen", "--family", "chain", "--n", "5", "--out", str(pts))
    cfg.write_text(json.dumps({"caps": {"down-free": 5, "all": 0, "rho-down-free": 16}}))
    code, out, _ = run(capsys, "count", "--input", str(pts), "--config", str(cfg))
    assert code == 0 and json.loads(out)["total"] == "21"


def test_count_config_caps_apply(tmp_path, capsys):
    pts, cfg = tmp_path / "pts.json", tmp_path / "cfg.json"
    run(capsys, "gen", "--family", "chain", "--n", "12", "--out", str(pts))
    cfg.write_text('{"caps": {"all": 10}}')
    code, _, err = run(capsys, "count", "--input", str(pts), "--kind", "all", "--config", str(cfg))
    assert code == 2 and "cap" in err


@pytest.mark.parametrize(
    "data",
    [
        {"label": "no points"},
        {"points": [[0, 1, 0, 1], [1, 0, 2, 1]]},
        {"points": [[0, 1, 0, 1], [1.5, 1, 2, 1]]},
        {"points": [[0, 1, 0, 1], [True, 1, 2, 1]]},
        {"points": [[0, 1, 0, 1], [1, 1, 2]]},
        {"points": [[0, 1, 0, 1], [1, 1, 2, 1, 5]]},
    ],
    ids=["missing-points", "zero-denominator", "float-entry", "bool-entry", "three-entries",
         "five-entries"],
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
