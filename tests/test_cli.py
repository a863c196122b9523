import json

import pytest

from ncmatch.cli import main


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


def test_growth_corners_nine_decimals(capsys):
    code, out, _ = run(capsys, "growth", "--r", "8", "--corners")
    assert code == 0
    assert json.loads(out)["base_per_point"] == "3.093005695"


def test_growth_zigzag(capsys):
    code, out, _ = run(capsys, "growth", "--family", "zigzag")
    data = json.loads(out)
    assert data["rate_per_index_exact"] == {"a": 9, "b": 1, "c": 2, "d": 93}
    assert data["base_per_point"].startswith("3.0531664")


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


def test_verify_with_no_cases_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--family", "rchain", "--max-points", "0")
    assert code == 2
    assert "all_pass" not in out
    assert "no case to verify" in err


def test_double_pm_negative_rejected(capsys):
    code, out, err = run(capsys, "double-pm", "--construction", "dc", "--n", "-4")
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


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
