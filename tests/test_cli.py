import json
import subprocess
import sys
from fractions import Fraction

import pytest

from dunklsphere import DunklContext, SphereMeasure, funk_hecke_residual, parse_function
from dunklsphere.cli import (
    EXIT_BACKEND,
    EXIT_CONFIG,
    EXIT_INDETERMINATE,
    EXIT_NOT_FUNDAMENTAL,
    EXIT_OK,
    EXIT_THRESHOLD,
    EXIT_UNSUPPORTED,
    build_parser,
    main,
)
from dunklsphere.gegenbauer import SCHEMA_VERSION


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

def test_coeffs_exp_default_context(capsys):
    code, out, err = run_cli(
        ["coeffs", "--g", "exp", "--kappa", "1,1", "-N", "10"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == "coefficient_profile"
    assert len(doc["entries"]) == 11
    assert all(r["flag"] != "zero" for r in doc["entries"])


def test_coeffs_csv_format(capsys):
    code, out, _ = run_cli(
        ["coeffs", "--g", "poly 0,1", "--kappa", "1,1", "-N", "4",
         "--format", "csv"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,")
    assert len(lines) == 6


def test_coeffs_deterministic_output(capsys):
    args = ["coeffs", "--g", "exp", "--kappa", "1,2", "-N", "8"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_coeffs_past_degree_170(capsys):
    # C_n(1) must not go through n! as a double
    code, out, _ = run_cli(
        ["coeffs", "--g", "poly 1,1", "-d", "3", "--kappa", "0", "-N", "200"],
        capsys)
    assert code == EXIT_OK
    assert len(json.loads(out)["entries"]) == 201


def test_coeffs_missing_g_is_config_error(capsys):
    code, _, err = run_cli(["coeffs", "--kappa", "1,1"], capsys)
    assert code == EXIT_CONFIG
    assert "--g" in err


def test_coeffs_bad_grammar(capsys):
    code, _, _ = run_cli(
        ["coeffs", "--g", "warble 3", "--kappa", "1,1"], capsys)
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("g", ["", "   ", "sum 1*"])
def test_coeffs_empty_expression_is_config_error(capsys, g):
    code, _, err = run_cli(["coeffs", "--g", g, "--kappa", "1,1"], capsys)
    assert code == EXIT_CONFIG
    assert "empty function expression" in err


def test_lambda_not_positive_rejected(capsys):
    # d = 2 with kappa = 0 gives lambda = 0
    code, _, err = run_cli(
        ["coeffs", "--g", "exp", "--kappa", "0"], capsys)
    assert code == EXIT_CONFIG
    assert "lambda" in err


def test_bad_kappa_count(capsys):
    code, _, _ = run_cli(
        ["coeffs", "--g", "exp", "--kappa", "1,2,3", "-d", "2"], capsys)
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("g, kappa, message", [
    ("poly 1/0", "1,1", "zero denominator"),
    ("cos 1/0", "1,1", "zero denominator"),
    ("step 1/0", "1,1", "zero denominator"),
    ("sum 1/0*exp", "1,1", "zero denominator"),
    ("exp", "1/0,1", "zero denominator"),
    # n < 0 would make every degree a structural zero
    ("gegen -1", "1,1", "gegen degree must be >= 0"),
    # numbers past the largest double, which no float can hold
    ("sum 1e400*exp", "1,1", "'1e400' is outside the double range"),
    ("exp", "1e400,1", "'1e400' is outside the double range"),
    ("poly 1e400", "1,1", "'1e400' is outside the double range"),
    ("poly 1,-1e400", "1,1", "'-1e400' is outside the double range"),
    ("cos 1e400", "1,1", "'1e400' is outside the double range"),
    # a nonzero weight whose double is 0.0 would change g silently
    ("sum 1e-400*exp", "1,1", "sum weight '1e-400' is below the double range"),
    ("sum 1e-400*exp + 1*cosh", "1,1", "sum weight '1e-400' is below the double range"),
    ("exp", "inf,1", "multiplicity must be a finite number, not 'inf'"),
    # a + after a term's end still splits, so a lone sign leaves an empty term
    ("sum 1*exp + +1*cosh", "1,1", "sum term '' needs the form weight*expr"),
])
def test_bad_generator_or_kappa_is_config_error(capsys, g, kappa, message):
    # every command parses --g and --kappa the same way
    for command in ("coeffs", "fundamental", "funk-hecke", "density"):
        code, out, err = run_cli([command, "--g", g, "--kappa", kappa], capsys)
        assert code == EXIT_CONFIG, command
        assert out == "" and message in err, command


@pytest.mark.parametrize("argv, cfg, flag", [
    (["fundamental", "-p", "inf"], {}, "-p"),
    (["fundamental", "-p", "nan"], {}, "-p"),
    (["fundamental", "-p", "0.5"], {}, "-p"),
    (["coeffs", "-N", "-1"], {}, "-N"),
    (["coeffs", "--epsilon", "-1"], {}, "--epsilon"),
    (["coeffs", "--precision", "5"], {}, "--precision"),
    (["funk-hecke", "--threshold", "nan"], {}, "--threshold"),
    (["funk-hecke", "--orders", "-4"], {}, "--orders"),
    (["funk-hecke", "--kernel-order", "0"], {}, "--kernel-order"),
    (["funk-hecke", "--x-samples", "0"], {}, "--x-samples"),
    (["funk-hecke", "--degrees", "1,-1"], {}, "--degrees"),
    (["density", "--ridge", "-1"], {}, "--ridge"),
    (["density", "-m", "-1"], {}, "-m"),
    (["density", "--nodes", "6,0"], {}, "--nodes"),
    # non-text config values bypass argparse's type=
    (["fundamental"], {"p": float("nan"), "eps": -1}, "-p"),
    (["fundamental"], {"eps": -1}, "--epsilon"),
    (["coeffs"], {"n_max": 2.5}, "-N"),
    (["funk-hecke"], {"degrees": []}, "--degrees"),
    (["density"], {"node_counts": [6, 1.5]}, "--nodes"),
    (["coeffs"], {"dimension": 3.5}, "-d"),
    (["density"], {"scheme": "uniform_random", "seed": 1.5}, "--seed"),
])
def test_numeric_option_out_of_range(tmp_path, capsys, argv, cfg, flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"g": "exp", "kappa": "1,1", **cfg}))
    code, out, err = run_cli([*argv, "--config", str(path)], capsys)
    assert code == EXIT_CONFIG
    assert out == "" and f"error: {flag} must be" in err


@pytest.mark.parametrize("text, shown", [("[1e400, 1]", "'inf'"), ("[NaN, 1]", "'nan'")])
def test_config_kappa_must_be_finite(tmp_path, capsys, text, shown):
    # json reads 1e400 as inf and NaN as nan
    path = tmp_path / "cfg.json"
    path.write_text('{"g": "exp", "kappa": %s}' % text)
    code, out, err = run_cli(["coeffs", "--config", str(path)], capsys)
    assert code == EXIT_CONFIG
    assert out == "" and f"multiplicity must be a finite number, not {shown}" in err


@pytest.mark.parametrize("g, spelled", [("sum 1e+3*exp", "sum 1000*exp"),
                                        ("sum 1*poly 1,+2", "sum 1*poly 1,2")])
def test_sum_with_a_signed_number_matches_its_spelled_out_form(capsys, g, spelled):
    runs = [run_cli(["coeffs", "--kappa", "1,1", "--g", text, "-N", "6"], capsys)
            for text in (g, spelled)]
    assert runs[0][0] == runs[1][0] == 0
    got, want = (json.loads(out) for _, out, _ in runs)
    assert got["g"] == want["g"] and got["entries"] == want["entries"]


def test_zero_sum_weight_is_allowed(capsys):
    # an exact 0 weight drops its part: cosh alone has its odd degrees zero
    code, _, _ = run_cli(["fundamental", "--g", "sum 0*exp + 1*cosh", "--kappa", "1,1",
                          "-N", "3"], capsys)
    assert code == EXIT_NOT_FUNDAMENTAL


@pytest.mark.parametrize("command, cfg", [
    ("coeffs", {"family": "e8"}),
    ("coeffs", {"format": "xml"}),
    ("density", {"scheme": "bogus"}),
])
def test_config_value_outside_choices(tmp_path, capsys, command, cfg):
    """Config values meet an option's choices as a typed flag does, before
    anything is built."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"g": "exp", "kappa": "1,1", **cfg}))
    code, out, err = run_cli([command, "--config", str(path)], capsys)
    assert code == EXIT_CONFIG
    assert out == "" and "invalid choice" in err


@pytest.mark.parametrize("group", [
    ["--family", "a", "-d", "1"],
    ["--family", "i2", "--order", "2"],
    ["--family", "b", "-d", "1"],
    ["--family", "d", "-d", "2"],
])
def test_parameters_that_name_no_group_exit_two(capsys, group):
    code, out, err = run_cli(["coeffs", "--g", "exp", *group], capsys)
    assert code == EXIT_CONFIG
    assert out == "" and err.startswith("error: ")


# ---------------------------------------------------------------------------
# fundamental
# ---------------------------------------------------------------------------

def test_fundamental_exp_exits_zero(capsys):
    code, out, err = run_cli(
        ["fundamental", "--g", "exp", "--kappa", "1,1", "-N", "10"], capsys)
    assert code == EXIT_OK
    assert "FUNDAMENTAL_UP_TO_N" in err
    doc = json.loads(out)
    assert doc["verdict"] == "FUNDAMENTAL_UP_TO_N"


def test_fundamental_constant_exits_ten(capsys):
    code, out, _ = run_cli(
        ["fundamental", "--g", "poly 1", "--kappa", "1,1", "-N", "6"], capsys)
    assert code == EXIT_NOT_FUNDAMENTAL
    doc = json.loads(out)
    assert doc["verdict"] == "NOT_FUNDAMENTAL"
    assert doc["zero_witnesses"] == list(range(1, 7))


@pytest.mark.parametrize("g, kappa, n_max, witnesses", [
    # g - 1/2 is odd, so every even degree n >= 2 vanishes (lambda = 1/2)
    ("step 0", "0", "8", [2, 4, 6, 8]),
    # Lambda_3 is proportional to C_2^{7/2}(1/3) = 0 (lambda = 5/2)
    ("step 1/3", "1,0,1", "20", [3]),
])
def test_fundamental_step_exact_zeros(capsys, g, kappa, n_max, witnesses):
    code, out, _ = run_cli(
        ["fundamental", "--g", g, "-d", "3", "--kappa", kappa, "-N", n_max],
        capsys)
    assert code == EXIT_NOT_FUNDAMENTAL
    doc = json.loads(out)
    assert doc["zero_witnesses"] == witnesses
    assert doc["indeterminate_degrees"] == []


@pytest.mark.parametrize("command, extra, exit_code", [
    # Lambda_3 is exactly 0 for the threshold 1/3, not for its float
    ("fundamental", ["-N", "6"], EXIT_NOT_FUNDAMENTAL),
    ("density", ["-m", "3", "--nodes", "8,16", "--orders", "24",
                 "--kernel-order", "12"], EXIT_OK),
])
def test_step_report_config_round_trip(tmp_path, capsys, command, extra,
                                       exit_code):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code = main([command, "--g", "step 1/3", "-d", "3", "--kappa", "1,0,1",
                 *extra, "--output", str(out1)])
    assert code == exit_code
    doc = json.loads(out1.read_text())
    assert doc["config"]["g"] == "step 1/3"
    code = main([command, "--config", str(out1), "--output", str(out2)])
    capsys.readouterr()
    assert code == exit_code
    assert out1.read_bytes() == out2.read_bytes()
    if command == "fundamental":
        assert doc["verdict"] == "NOT_FUNDAMENTAL"
        assert doc["zero_witnesses"] == [3]


def test_fundamental_union(capsys):
    code, out, _ = run_cli(
        ["fundamental", "--g", "cosh", "--g", "sinh",
         "--kappa", "1,1", "-N", "8"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == "union_fundamentality"
    assert len(doc["members"]) == 2


def test_fundamental_indeterminate_exit(capsys):
    # a tiny eps on a wildly oscillating "cos 1e6" still yields one of the
    # three verdicts and its exit code
    code, out, _ = run_cli(
        ["fundamental", "--g", "cos 1000000", "--kappa", "1,1",
         "-N", "6", "--epsilon", "1e-300"], capsys)
    assert code in (EXIT_INDETERMINATE, EXIT_NOT_FUNDAMENTAL, EXIT_OK)
    doc = json.loads(out)
    assert doc["verdict"] in (
        "FUNDAMENTAL_UP_TO_N", "NOT_FUNDAMENTAL", "INDETERMINATE")


# ---------------------------------------------------------------------------
# funk-hecke
# ---------------------------------------------------------------------------

def test_funk_hecke_table(capsys):
    code, out, _ = run_cli(
        ["funk-hecke", "--g", "exp", "--kappa", "1,1",
         "--degrees", "0,1,2", "--orders", "40", "--kernel-order", "36",
         "--x-samples", "3"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == "funk_hecke_table"
    degrees = sorted({r["n"] for r in doc["rows"]})
    assert degrees == [0, 1, 2]
    assert all(r["residual"] <= 1e-6 for r in doc["rows"])


def test_funk_hecke_threshold_exceeded(capsys):
    code, _, err = run_cli(
        ["funk-hecke", "--g", "exp", "--kappa", "1,1",
         "--degrees", "0,1", "--orders", "40", "--kernel-order", "36",
         "--x-samples", "3", "--threshold", "1e-30"], capsys)
    assert code == EXIT_THRESHOLD


def test_funk_hecke_grid_too_large_exits_at_once(capsys):
    # 2 * 80^4 points in d = 5 would need ~3.7 GiB; counted, not allocated
    code, _, err = run_cli(
        ["funk-hecke", "--g", "exp", "-d", "5", "--kappa", "0",
         "--orders", "80"], capsys)
    assert code == EXIT_CONFIG
    assert "81920000" in err


def test_funk_hecke_degree_past_the_cap_exits_at_once(capsys, monkeypatch):
    # the translate polynomials of a degree-69 g would pass DEGREE_CAP (64):
    # refused before the sphere grid is built
    def built(*args, **kwargs):
        raise RuntimeError("the sphere grid was built")
    monkeypatch.setattr(SphereMeasure, "quad_points", built)
    code, out, err = run_cli(
        ["funk-hecke", "--g", "poly " + ",".join(["1"] * 70), "-d", "3", "--kappa", "0",
         "--degrees", "0", "--orders", "8"], capsys)
    assert code == EXIT_CONFIG and out == ""
    assert "degree 69 exceeds the degree cap 64" in err


def _cli_under_address_cap(*argv):
    """The CLI on argv in a child process whose address space is capped at
    1.5 GiB."""
    cap = 3 * 2 ** 29
    return subprocess.run(
        [sys.executable, "-c",
         "import resource, sys\n"
         f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
         "from dunklsphere.cli import main\n"
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True)


def _funk_hecke_d5_under_address_cap(g):
    """funk-hecke --g g on Z_2^5 with every kappa_i = 1, under the cap."""
    return _cli_under_address_cap("funk-hecke", "--g", g, "-d", "5", "--kappa", "1",
                                  "--orders", "4", "--degrees", "0")


def test_funk_hecke_sphere_rule_too_large_exits_at_once():
    # the d = 2 grid of order 100000 has 200000 points, under the grid limit,
    # but its order-50000 Jacobi rule needs a 50000 x 50000 matrix (18.6 GiB)
    proc = _cli_under_address_cap("funk-hecke", "--g", "exp", "-d", "2", "--kappa", "1,1",
                                  "--orders", "100000", "--degrees", "0")
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "50000 x 50000 Jacobi matrix" in proc.stderr and "MiB" in proc.stderr


def test_funk_hecke_kernel_grid_too_large_exits_at_once():
    # a step kernel integrates over the tensor rule: its 48^5 nodes on five
    # kappa > 0 axes (1.9 GiB per array) are counted, not allocated
    proc = _funk_hecke_d5_under_address_cap("step 1/2")
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "254803968" in proc.stderr and "MiB" in proc.stderr


def test_funk_hecke_exp_kernel_on_five_active_axes_runs():
    # exp factors into one sum per axis and builds no tensor grid
    proc = _funk_hecke_d5_under_address_cap("exp")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["kind"] == "funk_hecke_table"


def test_funk_hecke_json_matches_per_degree_reports(capsys):
    code, out, _ = run_cli(
        ["funk-hecke", "--g", "poly 1,0,2", "-d", "3", "--kappa", "1/2,0,1",
         "--degrees", "2,0,1", "--orders", "24", "--kernel-order", "16",
         "--x-samples", "3"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    ctx = DunklContext.create("zd2", 3, (Fraction(1, 2), 0, 1))
    g = parse_function("poly 1,0,2", ctx.lambda_kappa)
    reports = [funk_hecke_residual(ctx, g, n, orders=24, x_count=3,
                                   quad_order=16) for n in (2, 0, 1)]
    expected = {
        "schema_version": SCHEMA_VERSION,
        "kind": "funk_hecke_table",
        "threshold": 1e-6,
        "max_residual": max(r.residual for r in reports),
        "rows": [r.to_json_dict() for r in reports],
        "config": doc["config"],
    }
    assert doc == json.loads(json.dumps(expected))


def test_funk_hecke_unsupported_group(capsys):
    code, _, err = run_cli(
        ["funk-hecke", "--g", "exp", "--family", "b", "-d", "2",
         "--kappa", "1,2", "--degrees", "0"], capsys)
    assert code == EXIT_UNSUPPORTED
    assert "kernel" in err.lower() or "group" in err.lower()


@pytest.mark.parametrize("command", ["funk-hecke", "density"])
def test_unsupported_group_exits_before_building(command, unsupported, nothing_built,
                                                 capsys):
    code, out, err = run_cli([command, "--g", "exp", *unsupported[0]], capsys)
    assert code == EXIT_UNSUPPORTED, err
    assert out == "" and "kernel translates" in err


@pytest.mark.parametrize("command", ["funk-hecke", "density"])
def test_unsupported_group_with_a_huge_grid_exits_at_once(command):
    # the order-20000 Gauss-Legendre rule of the i2 grid would need 3 GiB
    proc = _cli_under_address_cap(command, "--g", "exp", "--family", "i2", "--order", "5",
                                  "--kappa", "1", "--orders", "20000")
    assert proc.returncode == EXIT_UNSUPPORTED, proc.stderr
    assert "kernel translates" in proc.stderr


@pytest.mark.parametrize("argv, count", [
    (("funk-hecke", "--g", "exp", "-d", "4", "--kappa", "0", "--x-samples", "5000",
      "--orders", "40", "--degrees", "0"), "640000000"),
    (("density", "--g", "exp", "-d", "4", "--kappa", "0", "--nodes", "4096",
      "--orders", "80", "--scheme", "uniform_random", "--seed", "1"), "4194304000"),
])
def test_kernel_rows_too_many_exit_at_once(argv, count):
    # 5000 x-samples on 128000 points and 4096 nodes on 1024000 points (4.8
    # and 31 GiB of kernel rows) are counted, not allocated
    proc = _cli_under_address_cap(*argv)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert f"{count} values" in proc.stderr and "MiB" in proc.stderr


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_node_set_too_large_exits_at_once():
    # 20000 nodes give a 20000 x 20000 Gram matrix (3 GiB); counted, not built
    proc = _cli_under_address_cap("density", "--g", "exp", "--kappa", "1,1",
                                  "--nodes", "6,20000", "--orders", "8",
                                  "--kernel-order", "4")
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "20000 x 20000 Gram matrix" in proc.stderr and "MiB" in proc.stderr


def test_density_d4_defaults_refuse_their_largest_node_set(capsys):
    # the default node sets 6, 12, 24 on the 1024000 points of the order-80
    # d = 4 grid: 24 rows are 24576000 kernel values, refused before any set
    code, _, err = run_cli(["density", "--g", "exp", "-d", "4", "--kappa", "0",
                            "--scheme", "uniform_random", "--seed", "1"], capsys)
    assert code == EXIT_CONFIG
    assert "24 kernel rows on 1024000 sphere points are 24576000 values" in err


def test_density_command(capsys):
    code, out, _ = run_cli(
        ["density", "--g", "exp", "--kappa", "1,1", "-m", "1",
         "--nodes", "6,12", "--orders", "40", "--kernel-order", "36"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == "density_demo"
    assert doc["node_counts"] == [6, 12]
    assert doc["residuals"][1] < doc["residuals"][0]


@pytest.mark.parametrize("g", ["poly 0", "sum 1*exp + -1*exp"])
def test_density_zero_kernel_has_residual_one(g, capsys):
    # every translate of a zero kernel is 0, so a = 0 and the residual is 1
    # with no solve of the zero Gram matrix
    code, out, _ = run_cli(
        ["density", "--g", g, "-d", "2", "--kappa", "1,1", "-m", "1",
         "--nodes", "4"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["residuals"] == [1.0]


def test_density_csv(capsys):
    code, out, _ = run_cli(
        ["density", "--g", "cosh", "--kappa", "1,1", "-m", "1",
         "--nodes", "6", "--format", "csv"], capsys)
    assert code == EXIT_OK
    assert out.splitlines()[0] == "nodes,ridge,residual"


# ---------------------------------------------------------------------------
# config files, output files
# ---------------------------------------------------------------------------

def test_output_file_and_config_round_trip(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    code = main(["coeffs", "--g", "exp", "--kappa", "1,2", "-N", "6",
                 "--output", str(out1)])
    capsys.readouterr()
    assert code == EXIT_OK
    doc = json.loads(out1.read_text())
    # feed the emitted report back as the config
    out2 = tmp_path / "r2.json"
    code = main(["coeffs", "--config", str(out1), "--output", str(out2)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert doc["config"]["kappa"] == ["1", "2"]


@pytest.mark.parametrize("argv", [
    ["coeffs", "--g", "step 1/3", "--kappa", "1,2", "-N", "6",
     "--precision", "30"],
    ["fundamental", "--g", "cos 2/3", "-d", "3", "--kappa", "1,0,1", "-N", "5"],
    ["fundamental", "--g", "cosh", "--g", "sinh", "--kappa", "1,1", "-N", "6"],
    ["fundamental", "--family", "i2", "--order", "5", "--kappa", "1",
     "--g", "exp", "-N", "4", "--epsilon", "1e-12"],
    ["funk-hecke", "--g", "poly 1,1", "--kappa", "1,1", "--degrees", "0,2",
     "--orders", "24", "--kernel-order", "12", "--x-samples", "3"],
    ["density", "--g", "exp", "--kappa", "1,1", "-m", "1", "--nodes", "6,8",
     "--orders", "24", "--kernel-order", "12"],
], ids=["coeffs", "fundamental", "union", "i2", "funk-hecke", "density"])
def test_report_config_round_trip(tmp_path, capsys, argv):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code = main([*argv, "--output", str(out1)])
    again = main([argv[0], "--config", str(out1), "--output", str(out2)])
    capsys.readouterr()
    assert again == code
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    options = build_parser()[1][argv[0]][1]
    assert set(doc["config"]) == set(options) - {"format", "output"}
    nested = doc.get("members", []) + doc.get("rows", []) + [doc.get("profile", {})]
    assert not any("config" in part for part in nested)


def test_config_overridden_by_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g": "exp", "kappa": "1,1", "n_max": 4}))
    code, out, _ = run_cli(
        ["coeffs", "--config", str(cfg), "-N", "7"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["config"]["n_max"] == 7
    assert len(doc["entries"]) == 8


@pytest.mark.parametrize("value, code", [("3", EXIT_OK), ("x", EXIT_CONFIG)])
def test_config_text_goes_through_the_option_type(tmp_path, capsys, value, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g": "exp", "kappa": "1,1", "n_max": value}))
    got, out, err = run_cli(["coeffs", "--config", str(cfg)], capsys)
    assert got == code
    if code == EXIT_OK:
        assert json.loads(out)["config"]["n_max"] == 3
    else:
        assert "argument -N/--n-max: invalid int value: 'x'" in err


def test_config_does_not_outlive_its_call(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g": "cosh", "kappa": "1,2", "n_max": 4,
                               "format": "csv"}))
    code, _, _ = run_cli(["coeffs", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    code, out, _ = run_cli(["coeffs", "--g", "exp", "-d", "3"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["config"]["n_max"] == 20 and doc["config"]["kappa"] == ["0"] * 3
    assert doc["config"]["g"] == "exp"
    code, _, err = run_cli(["coeffs"], capsys)
    assert code == EXIT_CONFIG and "--g is required" in err


@pytest.mark.parametrize("command", ["coeffs", "fundamental", "funk-hecke", "density"])
def test_help_leaves_the_parser_usable(capsys, command):
    code, out, _ = run_cli([command, "--help"], capsys)
    assert code == EXIT_OK and out.startswith(f"usage: dunklsphere {command}")
    code, out, _ = run_cli(["coeffs", "--g", "exp", "--kappa", "1,1", "-N", "3"], capsys)
    assert code == EXIT_OK and len(json.loads(out)["entries"]) == 4


def test_parser_is_built_once(capsys):
    build_parser.cache_clear()
    for _ in range(2):
        assert run_cli(["coeffs", "--g", "exp", "--kappa", "1,1", "-N", "2"],
                       capsys)[0] == EXIT_OK
    assert build_parser.cache_info().misses == 1


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g": "exp", "kappa": "1,1", "bogus": 1}))
    code, _, err = run_cli(["coeffs", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG
    assert "bogus" in err


@pytest.mark.parametrize("argv", [
    ["coeffs", "-N", "3"],
    ["funk-hecke", "--degrees", "0", "--orders", "8", "--kernel-order", "4"],
    ["density", "--nodes", "4", "--orders", "8", "--kernel-order", "4"],
])
def test_single_generator_commands_refuse_a_union_config(tmp_path, capsys, argv):
    # a union report's config holds a list of generators
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g": ["exp", "cosh"], "kappa": "1,1"}))
    code, _, err = run_cli([*argv, "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG
    assert "one generator" in err and "'exp', 'cosh'" in err
    cfg.write_text(json.dumps({"g": ["exp"], "kappa": "1,1"}))
    code, out, _ = run_cli([*argv, "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["config"]["g"] == "exp"


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DUNKLSPHERE_OUTPUT_DIR", str(tmp_path))
    code = main(["coeffs", "--g", "exp", "--kappa", "1,1", "-N", "3",
                 "--output", "rel.json"])
    capsys.readouterr()
    assert code == EXIT_OK
    assert (tmp_path / "rel.json").exists()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dunklsphere", "coeffs", "--g", "exp",
         "--kappa", "1,1", "-N", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["entries"]) == 4
