import json
import math
import subprocess
import sys

import pytest

from spincorr import harness
from spincorr.cli import main
from spincorr.harness import estimate_correlation, run_series
from spincorr.hidden import singlet_correlation_analytic
from spincorr.quantum import BlochDirection
from test_golden import SETTINGS as GOLDEN_SETTINGS


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(doc):
    meta, columns, rows = {}, None, []
    for line in doc.splitlines():
        if line.startswith("# "):
            key, value = line[2:].split("=", 1)
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, columns, rows


def test_exact_sixty_degrees(capsys):
    code, out, _ = run_cli(capsys, "exact", "--theta-ab", "60", "--deg")
    assert code == 0
    meta, columns, rows = parse_csv(out)
    assert float(meta["correlation"]) == pytest.approx(-0.5, abs=1e-12)
    assert meta["model"] == "quantum-exact"
    assert meta["unit"] == "deg"
    assert columns == ["table", "channel", "real", "imag", "eigenvalue"]
    assert len(rows) == 4  # eigen table only, no auxiliary axis given


def test_exact_zero_separation_weights(capsys):
    code, out, _ = run_cli(capsys, "exact", "--theta-ab", "0", "--deg")
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert float(meta["correlation"]) == pytest.approx(-1.0, abs=1e-12)
    weights = [float(row[2]) for row in rows]
    assert weights == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-12)


def test_exact_with_auxiliary_axis(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--a", "0,0", "--b", "90,0", "--r", "45,0", "--deg"
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    inter = [row for row in rows if row[0] == "intermediate"]
    assert len(inter) == 4
    reals = [float(row[2]) for row in inter]
    assert reals == pytest.approx([-0.25, -0.25, 0.25, 0.25], abs=1e-12)
    assert sum(reals) == pytest.approx(0.0, abs=1e-12)


def test_degree_and_radian_inputs_agree(capsys):
    _, out_deg, _ = run_cli(capsys, "exact", "--theta-ab", "60", "--deg")
    _, out_rad, _ = run_cli(capsys, "exact", "--theta-ab", "1.047197551")
    c_deg = float(parse_csv(out_deg)[0]["correlation"])
    c_rad = float(parse_csv(out_rad)[0]["correlation"])
    assert abs(c_deg - c_rad) < 1e-9


def test_weights_command(capsys):
    code, out, _ = run_cli(capsys, "weights", "--theta-ab", "90", "--deg")
    assert code == 0
    meta, columns, rows = parse_csv(out)
    assert columns == ["channel", "weight", "eigenvalue"]
    assert [float(r[1]) for r in rows] == pytest.approx([0.25] * 4, abs=1e-12)
    assert [int(r[2]) for r in rows] == [-1, -1, 1, 1]
    assert float(meta["correlation"]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "pair", [("--theta-ab", "1.1"), ("--a", "10,20", "--b", "100,-30", "--deg")], ids=["theta", "pair"]
)
def test_weights_and_exact_print_the_same_correlation(capsys, pair):
    exact = parse_csv(run_cli(capsys, "exact", *pair)[1])[0]
    weights = parse_csv(run_cli(capsys, "weights", *pair)[1])[0]
    assert weights["correlation"] == exact["correlation"]
    assert {**weights, "command": "exact"} == exact


def test_sample_counts_sum_to_n(capsys):
    code, out, _ = run_cli(capsys, "sample", "--theta-ab", "1.0", "--n", "20000", "--seed", "5")
    assert code == 0
    meta, columns, rows = parse_csv(out)
    assert columns == ["channel", "alpha", "beta", "count", "fraction"]
    assert sum(int(row[3]) for row in rows) == 20000
    assert meta["model"] == "hv"
    assert meta["seed"] == "5"
    assert meta["n"] == "20000"
    estimate = float(meta["estimate"])
    assert abs(estimate + math.cos(1.0)) < 5.0 * float(meta["std_error"])


@pytest.mark.parametrize(
    "model,tag", [("exact", "quantum-sampler"), ("hv", "hv"), ("transfer", "transfer-baseline")]
)
def test_sample_model_variants(capsys, model, tag):
    code, out, _ = run_cli(
        capsys, "sample", "--theta-ab", "0.7", "--n", "5000", "--model", model
    )
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["model"] == tag
    assert sum(int(row[3]) for row in rows) == 5000


def test_identical_runs_are_byte_identical(capsys):
    args = ("sample", "--theta-ab", "1.2", "--n", "30000", "--seed", "17")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_worker_count_never_changes_output(capsys):
    base = ("chsh", "--n", "20000", "--seed", "13")
    _, one, _ = run_cli(capsys, *base, "--workers", "1")
    _, four, _ = run_cli(capsys, *base, "--workers", "4")
    assert one == four


def test_chsh_defaults_report_canonical_angles(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--n", "20000", "--seed", "2")
    assert code == 0
    meta, columns, rows = parse_csv(out)
    assert [row[0] for row in rows] == ["ab", "ab_prime", "a_prime_b", "a_prime_b_prime"]
    assert float(meta["a_prime_theta"]) == pytest.approx(math.pi / 2)
    assert float(meta["b_prime_theta"]) == pytest.approx(3 * math.pi / 4)
    s = float(meta["s_value"])
    assert abs(s + 2.0 * math.sqrt(2.0)) < 5.0 * float(meta["s_std_error"])


def test_chsh_exact_model_json(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--model", "exact", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["s_value"] == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-12)
    assert doc["columns"][0] == "pair"
    assert len(doc["rows"]) == 4


def test_chsh_rows_and_exact_metadata_share_the_pair_record(capsys):
    given = dict(zip(GOLDEN_SETTINGS[0:8:2], GOLDEN_SETTINGS[1:8:2]))
    code, out, _ = run_cli(capsys, "chsh", *GOLDEN_SETTINGS, "--model", "exact")
    assert code == 0
    _, columns, rows = parse_csv(out)
    sides = {"ab": ("--a", "--b"), "ab_prime": ("--a", "--b-prime"),
             "a_prime_b": ("--a-prime", "--b"), "a_prime_b_prime": ("--a-prime", "--b-prime")}
    fields = ("a_theta", "a_phi", "b_theta", "b_phi", "separation")
    assert [row[0] for row in rows] == list(sides)
    for row in rows:
        record = dict(zip(columns, row))
        first, second = sides[record["pair"]]
        code, out, _ = run_cli(capsys, "exact", "--a", given[first], "--b", given[second], "--deg")
        assert code == 0
        meta = parse_csv(out)[0]
        assert [record[f] for f in (*fields, "estimate")] == [meta[f] for f in (*fields, "correlation")]


def test_chsh_transfer_model(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--model", "transfer", "--n", "30000", "--seed", "8")
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert float(meta["s_value"]) == pytest.approx(-2.0, abs=1e-9)


@pytest.mark.parametrize(
    "model,tag", [("hv", "hv-per-setting"), ("exact", "quantum-exact"), ("transfer", "transfer-baseline")]
)
def test_chsh_model_tags(capsys, model, tag):
    code, out, _ = run_cli(capsys, "chsh", "--model", model, "--n", "1000", "--seed", "3")
    assert code == 0
    assert parse_csv(out)[0]["model"] == tag


def test_chsh_explicit_settings_must_be_complete(capsys):
    code, _, err = run_cli(capsys, "chsh", "--a", "0,0", "--b", "45,0", "--deg")
    assert code == 2
    assert "a-prime" in err


def csv_cell(value):
    """How the CSV renderer writes a JSON value; a signed zero writes as -0."""
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def test_json_mirrors_csv_content(capsys):
    for base in (
        ("weights", "--theta-ab", "30", "--deg", "--seed", "3"),
        ("exact", "--theta-ab", "90", "--deg", "--r", "180,0"),  # intermediate imag is -0.0
    ):
        _, csv_out, _ = run_cli(capsys, *base)
        _, json_out, _ = run_cli(capsys, *base, "--format", "json")
        meta, columns, rows = parse_csv(csv_out)
        doc = json.loads(json_out)
        assert doc["columns"] == columns
        assert {key: csv_cell(value) for key, value in doc["metadata"].items()} == meta
        assert [[csv_cell(value) for value in row] for row in doc["rows"]] == rows


def test_sweep_analytic_columns_agree_everywhere(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--grid", "0:180:5", "--deg", "--n", "1000", "--seed", "1"
    )
    assert code == 0
    meta, columns, rows = parse_csv(out)
    assert columns == ["theta_ab", "exact", "hv_analytic", "hv_sampled", "stderr"]
    assert meta["mode"] == "singlet"
    assert meta["grid"] == "0:180:5"
    assert len(rows) == 37
    for row in rows:
        assert abs(float(row[1]) - float(row[2])) < 1e-12
        # the column comes from one array call; each cell is the scalar call's bits
        assert float(row[2]) == singlet_correlation_analytic(float(row[0]))
    ninety = rows[18]
    assert float(ninety[0]) == pytest.approx(math.pi / 2)
    assert abs(float(ninety[1])) < 1e-12


def test_sweep_single_electron_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--grid", "0:180:45", "--deg", "--single-electron", "--n", "2000",
    )
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["mode"] == "single-electron"
    for row in rows:
        theta = float(row[0])
        assert float(row[2]) == pytest.approx(math.cos(theta), abs=1e-12)
        assert abs(float(row[3]) - math.cos(theta)) < 5.0 * max(float(row[4]), 1e-3)


@pytest.mark.parametrize("mode", ["singlet", "single-electron"])
def test_single_electron_sweep_is_the_sign_flipped_singlet(capsys, mode):
    flag = ["--single-electron"] if mode == "single-electron" else []
    code, out, _ = run_cli(
        capsys, "sweep", "--grid", "0:180:30", "--deg", *flag, "--n", "4000", "--seed", "8"
    )
    assert code == 0
    sign = -1.0 if flag else 1.0
    for i, row in enumerate(parse_csv(out)[2]):
        b = BlochDirection(float(row[0]))
        series = run_series(BlochDirection(0.0), b, 4000, "hv", 8, stream=i)
        assert float(row[3]) == sign * estimate_correlation(series)[0]


def test_out_file_matches_stdout(tmp_path, capsys):
    args = ("chsh", "--n", "10000", "--seed", "4")
    _, stdout_doc, _ = run_cli(capsys, *args)
    path = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, *args, "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text(encoding="utf-8") == stdout_doc
    assert "\r" not in path.read_bytes().decode("utf-8")


def test_separation_out_of_range_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "exact", "--theta-ab", "200", "--deg")
    assert code == 2
    assert "0, pi" in err or "180" in err


def test_conflicting_angle_inputs_are_rejected(capsys):
    code, _, err = run_cli(capsys, "exact", "--theta-ab", "1.0", "--a", "0,0", "--b", "1,0")
    assert code == 2
    assert "not both" in err


def test_missing_pair_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "exact")
    assert code == 2
    assert "--theta-ab" in err


def test_malformed_direction_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "exact", "--a", "1;2", "--b", "0,0")
    assert code == 2
    assert "zenith,azimuth" in err


def test_grid_rounding_past_stop_is_clamped(capsys):
    # 0.3 + 1797 * 0.1 rounds to 180.00000000000003, just past pi once in radians
    code, out, _ = run_cli(capsys, "sweep", "--grid", "0.3:180:0.1", "--deg", "--n", "10")
    assert code == 0
    rows = parse_csv(out)[2]
    assert len(rows) == 1798
    assert float(rows[-1][0]) == math.pi


def test_bad_grid_arguments(capsys):
    assert run_cli(capsys, "sweep", "--grid", "0:180")[0] == 2
    assert run_cli(capsys, "sweep", "--grid", "10:0:5")[0] == 2
    assert run_cli(capsys, "sweep", "--grid", "0:200:50", "--deg")[0] == 2


SETTINGS = ("--a-prime", "90,0", "--b", "45,0", "--b-prime", "135,0", "--deg")


@pytest.mark.parametrize(
    "args",
    [
        ("exact", "--theta-ab", "60", "--deg", "--n", "-5"),
        ("weights", "--theta-ab", "60", "--deg", "--workers", "0"),
        ("sample", "--theta-ab", "1.0", "--n", "0"),
        ("chsh", "--n", "10", "--workers", "-1"),
        ("sweep", "--grid", "0:10:5", "--deg", "--single-electron", "--workers", "0"),
        ("chsh", "--a", "inf,0", *SETTINGS, "--n", "10"),
        ("chsh", "--a", "nan,0", *SETTINGS, "--n", "10"),
        ("exact", "--a", "0,0", "--b", "1,nan"),
        ("exact", "--theta-ab", "nan"),
        ("sweep", "--grid", "0:inf:1", "--n", "10"),
        ("sweep", "--grid", "nan:1:0.5", "--n", "10"),
        ("sweep", "--grid", "0:1:inf", "--n", "10"),
        ("sweep", "--grid", "0:1:nan", "--n", "10"),
        ("sweep", "--grid", "0:180:1e-300", "--deg", "--n", "10"),
        ("exact", "--theta-ab", "1", "--seed", "-5"),
        ("chsh", "--model", "exact", "--seed", "-5"),
        ("weights", "--theta-ab", "1", "--seed", "18446744073709551616"),
        ("chsh", "--a", "0,0", "--b", "45,0", "--n", "10"),
        ("sweep", "--grid", "0:1:\n0.5", "--n", "10"),
        ("sample", "--a", "x,0", "--b", "0,0"),
        ("sample", "--a", "1", "--b", "0,0"),
        ("sweep", "--grid", "a:b:c"),
    ],
)
def test_bad_input_is_a_usage_error(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith("spincorr: error: ")


def test_single_work_item_starts_no_thread(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
    args = ("sample", "--theta-ab", "1.0", "--n", "100", "--seed", "3")
    _, one, _ = run_cli(capsys, *args)
    code, capped, _ = run_cli(capsys, *args, "--workers", "64")
    assert code == 0
    assert capped == one


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["exact", "--nope"])
    assert excinfo.value.code == 2


def test_unwritable_output_path_exits_three(capsys):
    code, _, err = run_cli(
        capsys, "exact", "--theta-ab", "1.0", "--out", "/nonexistent-dir/report.csv"
    )
    assert code == 3
    assert "cannot write" in err


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "spincorr", "exact", "--theta-ab", "90", "--deg"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "correlation=" in result.stdout


def test_version_flag():
    result = subprocess.run(
        [sys.executable, "-m", "spincorr", "--version"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert result.stdout.startswith("spincorr ")
