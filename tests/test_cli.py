import json
import warnings

import pytest
from click.testing import CliRunner

from ptflab import MultilinearPolynomial, Rng, middle_layers_witness, random_polynomial
from ptflab.cli import SuiteRow, _bundle_exit_code, main


@pytest.fixture()
def runner():
    return CliRunner()


def write_majority(tmp_path):
    path = tmp_path / "maj3.json"
    path.write_text(middle_layers_witness(3, 1).to_json() + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_majority(runner, tmp_path):
    result = runner.invoke(main, ["analyze", "--input", write_majority(tmp_path), "--seed", "1"])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["as"] == {"method": "enumeration", "value": 1.5}
    assert report["gl_bound"] == 1.5
    assert report["gl_ratio"] == 1.0
    assert report["alpha"]["method"] == "enumeration"
    assert all(check["passed"] for check in report["checks"])


def test_analyze_constant(runner, tmp_path):
    path = tmp_path / "const.json"
    path.write_text(MultilinearPolynomial.constant(2, 5.0).to_json() + "\n")
    result = runner.invoke(main, ["analyze", "--input", str(path), "--seed", "1"])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["as"]["value"] == 0.0
    assert report["alpha"]["value"] == 0.0
    assert report["gl_bound"] is None


def test_analyze_keeps_tiny_coefficients(runner, tmp_path):
    # sgn(p) does not depend on the scale of p: this is majority on 3 bits
    path = tmp_path / "tiny.json"
    path.write_text(MultilinearPolynomial.coordinate_sum(3).scale(1e-16).to_json() + "\n")
    result = runner.invoke(main, ["analyze", "--input", str(path), "--seed", "1"])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["polynomial"]["terms"] == 3
    assert report["as"]["value"] == 1.5
    assert report["gl_ratio"] == 1.0


def test_analyze_identity_checks_pass_at_large_coefficients(runner, tmp_path):
    # coefficients near 1e6: I[p] and Var[p] differ in their last bit
    path = tmp_path / "big.json"
    path.write_text(random_polynomial(8, 1, 8, Rng(12)).scale(2.0**20).to_json() + "\n")
    result = runner.invoke(main, ["analyze", "--input", str(path), "--seed", "1"])
    assert result.exit_code == 0
    checks = json.loads(result.stdout)["checks"]
    assert [check["name"] for check in checks] == ["influence_sandwich", "as_two_path"]
    assert all(check["passed"] for check in checks)


def test_analyze_generated_instance(runner):
    result = runner.invoke(
        main, ["analyze", "--n", "6", "--d", "2", "--terms", "8", "--seed", "3"]
    )
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["polynomial"] == {
        "n": 6,
        "degree": report["polynomial"]["degree"],
        "terms": 8,
        "source": "generated",
        "seed": 3,
    }


def test_analyze_estimates_alpha_above_exact_cap(runner, tmp_path):
    p = MultilinearPolynomial(14, {1 << i: 1.0 for i in range(14)})
    path = tmp_path / "p14.json"
    path.write_text(p.to_json() + "\n")
    result = runner.invoke(
        main, ["analyze", "--input", str(path), "--seed", "2", "--samples", "2000"]
    )
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["alpha"]["method"] == "monte_carlo"
    assert report["alpha"]["samples"] == 2000
    assert report["alpha"]["std_error"] >= 0.0


def test_analyze_csv_format(runner, tmp_path):
    result = runner.invoke(
        main, ["analyze", "--input", write_majority(tmp_path), "--seed", "1", "--format", "csv"]
    )
    assert result.exit_code == 0
    lines = result.stdout_bytes.decode().strip().split("\r\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    values = dict(zip(header, lines[1].split(",")))
    assert values["as_exact"] == "1.5"
    assert values["gl_bound"] == "1.5"


def test_analyze_requires_input_or_generator(runner):
    result = runner.invoke(main, ["analyze", "--seed", "1"])
    assert result.exit_code == 2


def test_analyze_malformed_file_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["analyze", "--input", str(path)])
    assert result.exit_code == 2


def test_analyze_infeasible_exits_3(runner, tmp_path):
    p = MultilinearPolynomial(30, {1 << i: 1.0 for i in range(30)})
    path = tmp_path / "big.json"
    path.write_text(p.to_json() + "\n")
    result = runner.invoke(main, ["analyze", "--input", str(path), "--samples", "0", "--seed", "1"])
    assert result.exit_code == 3


def test_analyze_infeasible_states_cost_and_budget(runner, tmp_path):
    p = MultilinearPolynomial(30, {1 << i: 1.0 for i in range(30)})
    path = tmp_path / "big.json"
    path.write_text(p.to_json() + "\n")
    result = runner.invoke(main, ["analyze", "--input", str(path), "--samples", "0", "--seed", "1"])
    assert result.exit_code == 3
    assert str(1 << 30) in result.stderr and str(1 << 24) in result.stderr


def test_analyze_enumerates_small_support_of_large_n(runner, tmp_path):
    p = MultilinearPolynomial.from_vars(30, {(0, 11): 1.0, (29,): 0.5, (): -0.25})
    path = tmp_path / "sparse.json"
    path.write_text(p.to_json() + "\n")
    result = runner.invoke(main, ["analyze", "--input", str(path), "--samples", "0", "--seed", "1"])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["as"]["method"] == "enumeration"
    assert report["alpha"]["method"] == "enumeration"
    assert len(report["noise_sensitivity"]) == 3
    assert report["polynomial"]["n"] == 30
    assert len(report["influences"]["values"]) == 30


def test_analyze_theorem_bound_overflow_exits_0(runner, tmp_path):
    p = MultilinearPolynomial.from_vars(40, {tuple(range(30)): 1.0, (0,): 0.5})
    path = tmp_path / "deg30.json"
    path.write_text(p.to_json() + "\n")
    args = ["analyze", "--input", str(path), "--samples", "100", "--seed", "1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "Infinity" not in result.stdout
    theorem = json.loads(result.stdout)["theorem_bound"]
    assert theorem["value"] is None
    assert theorem["log_value"] > 709.0
    result = runner.invoke(main, args + ["--format", "csv"])
    assert result.exit_code == 0
    header, row = result.stdout_bytes.decode().strip().split("\r\n")
    assert dict(zip(header.split(","), row.split(",")))["theorem_bound"] == ""


def test_analyze_echoes_seed_to_stderr(runner, tmp_path):
    result = runner.invoke(main, ["analyze", "--input", write_majority(tmp_path), "--seed", "9"])
    assert "seed: 9" in result.stderr


# ---------------------------------------------------------------------------
# random


def test_random_same_seed_is_byte_identical(runner, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        result = runner.invoke(
            main,
            ["random", "--n", "8", "--d", "2", "--terms", "10", "--seed", "42", "--out", str(out)],
        )
        assert result.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_random_env_seed_override(runner, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    r1 = runner.invoke(
        main,
        ["random", "--n", "8", "--d", "2", "--terms", "10", "--seed", "42", "--out", str(out1)],
    )
    r2 = runner.invoke(
        main,
        ["random", "--n", "8", "--d", "2", "--terms", "10", "--out", str(out2)],
        env={"PTFLAB_SEED": "42"},
    )
    assert r1.exit_code == r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_random_writes_requested_term_count(runner):
    result = runner.invoke(main, ["random", "--n", "8", "--d", "2", "--terms", "10", "--seed", "1"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    masks = {tuple(t["vars"]) for t in data["terms"]}
    assert len(masks) == 10
    assert all(len(v) <= 2 for v in masks)
    poly = MultilinearPolynomial.from_json(result.stdout)
    assert poly.term_count == 10


def test_random_degree_zero_constant(runner):
    result = runner.invoke(main, ["random", "--n", "5", "--d", "0", "--terms", "1", "--seed", "1"])
    assert result.exit_code == 0
    poly = MultilinearPolynomial.from_json(result.stdout)
    assert poly.degree == 0


def test_random_sparse_path_exits_0(runner):
    # more than 2^20 candidate subsets: the sampler draws indices one term at a time
    result = runner.invoke(main, ["random", "--n", "200", "--d", "3", "--terms", "5", "--seed", "1"])
    assert result.exit_code == 0
    assert MultilinearPolynomial.from_json(result.stdout).term_count == 5


def test_random_unsatisfiable_sparsity_exits_3(runner):
    result = runner.invoke(main, ["random", "--n", "4", "--d", "1", "--terms", "99", "--seed", "1"])
    assert result.exit_code == 3


@pytest.mark.parametrize("command", ["analyze", "random"])
def test_generated_instance_over_the_variable_limit_exits_2(runner, command):
    # n is refused before any draw: mask_from_indices would build a 2^(10^12)-bit integer
    args = [command, "--n", "1000000000000", "--d", "1", "--terms", "2", "--seed", "1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "at most 4096 variables" in result.output


# ---------------------------------------------------------------------------
# suite


def test_suite_gl_passes(runner, tmp_path):
    out = tmp_path / "gl.json"
    result = runner.invoke(main, ["suite", "--suite", "gl", "--seed", "7", "--out", str(out)])
    assert result.exit_code == 0
    bundle = json.loads(out.read_text())
    assert bundle["suite"] == "gl"
    tight = [r for r in bundle["rows"] if r["check"] == "gl_tightness_d1"]
    assert len(tight) == 7
    assert all(r["status"] == "pass" for r in tight)
    assert bundle["summary"]["failed"] == 0


def test_suite_rows_are_self_describing(runner, tmp_path):
    out = tmp_path / "gl.json"
    runner.invoke(main, ["suite", "--suite", "gl", "--seed", "7", "--out", str(out)])
    bundle = json.loads(out.read_text())
    assert bundle["seed"] == 7
    for row in bundle["rows"]:
        assert row["kind"] in ("identity", "hard", "info")
        assert row["status"] in ("pass", "fail", "info")


def test_suite_csv_format(runner, tmp_path):
    out = tmp_path / "gl.csv"
    result = runner.invoke(
        main, ["suite", "--suite", "gl", "--seed", "7", "--format", "csv", "--out", str(out)]
    )
    assert result.exit_code == 0
    lines = out.read_bytes().decode().strip().split("\r\n")
    assert lines[0] == "check,instance,kind,status,value,reference,detail"
    assert len(lines) > 7


def test_suite_repeat_is_byte_identical(runner, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        result = runner.invoke(
            main, ["suite", "--suite", "anticoncentration", "--seed", "11",
                   "--samples", "20000", "--out", str(out)],
        )
        assert result.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        # the section whose estimates span several batches at the default sample count
        ["suite", "--suite", "invariance", "--seed", "7"],
        # 400 support variables: the Monte Carlo alpha spans four batches
        ["analyze", "--n", "400", "--d", "1", "--terms", "400", "--seed", "7", "--samples", "20000"],
    ],
    ids=["suite", "analyze"],
)
def test_bundles_do_not_depend_on_the_worker_count(runner, tmp_path, args):
    bundles = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.json"
        result = runner.invoke(main, args + ["--workers", workers, "--out", str(out)])
        assert result.exit_code == 0
        bundles.append(out.read_bytes())
    assert bundles[0] == bundles[1]


def test_suite_unknown_name_exits_2(runner):
    result = runner.invoke(main, ["suite", "--suite", "nosuch"])
    assert result.exit_code == 2


def test_suite_rejects_nonpositive_samples(runner):
    result = runner.invoke(main, ["suite", "--suite", "gl", "--samples", "0", "--seed", "1"])
    assert result.exit_code == 2


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_suite_rejects_nonpositive_workers(runner, workers):
    args = ["suite", "--suite", "invariance", "--workers", workers, "--samples", "1000", "--seed", "1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "--workers" in result.output


def test_analyze_rejects_nonpositive_workers(runner, tmp_path):
    # alpha is enumerated here, so no estimator would ever see the worker count
    args = ["analyze", "--input", write_majority(tmp_path), "--seed", "1", "--workers", "0"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "--workers" in result.output


def test_suite_has_no_unused_constant_options(runner):
    for option in ("--c1", "--c2", "--clog", "--cexp"):
        result = runner.invoke(main, ["suite", "--suite", "gl", "--seed", "1", option, "2"])
        assert result.exit_code == 2, option


# ---------------------------------------------------------------------------
# exit-code policy


def test_bundle_exit_code_mapping():
    ok = SuiteRow("c", "i", "hard", "pass")
    info = SuiteRow("c", "i", "info", "info")
    hard_fail = SuiteRow("c", "i", "hard", "fail")
    identity_fail = SuiteRow("c", "i", "identity", "fail")
    assert _bundle_exit_code([ok, info]) == 0
    assert _bundle_exit_code([ok, hard_fail]) == 1
    assert _bundle_exit_code([hard_fail, identity_fail]) == 4


# ---------------------------------------------------------------------------
# bundles are strict JSON and record only options that ran


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_loads(text):
    return json.loads(text, parse_constant=_reject_constant)


def test_suite_scaling_ratio_with_zero_narrow_estimate_is_null(runner, tmp_path):
    out = tmp_path / "anti.json"
    args = ["suite", "--suite", "anticoncentration", "--seed", "1", "--samples", "20"]
    runner.invoke(main, args + ["--out", str(out)])
    rows = strict_loads(out.read_text())["rows"]
    (scaling,) = [r for r in rows if r["check"] == "strong_anticoncentration_scaling"]
    assert scaling["value"] is None
    assert scaling["detail"] == "wide=0.0;narrow=0.0"


@pytest.mark.parametrize("option", [["--clog", "nan"], ["--cexp", "inf"]])
def test_analyze_rejects_non_finite_envelope_constants(runner, option):
    args = ["analyze", "--n", "3", "--d", "2", "--terms", "2", "--seed", "1", *option]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""


def test_analyze_overflowing_moments_exit_2(runner, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1, "terms": [{"vars": [0], "coeff": 1e200}]}\n')
    result = runner.invoke(main, ["analyze", "--input", str(path), "--seed", "1"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Traceback" not in result.output
    # squares that stay finite are reported as usual
    path.write_text('{"n": 1, "terms": [{"vars": [0], "coeff": 1e150}]}\n')
    result = runner.invoke(main, ["analyze", "--input", str(path), "--seed", "1"])
    assert result.exit_code == 0
    assert strict_loads(result.stdout)["variance"] == pytest.approx(1e300)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "terms",
    ['[{"vars": [0], "coeff": 1e200}]', '[{"vars": [0, 1], "coeff": 1e154}]'],
    ids=["square", "influence_sum"],  # the second square is finite, its two influences sum to inf
)
def test_analyze_overflowing_coefficient_squares_exit_2_in_every_format(
    runner, tmp_path, fmt, terms
):
    path = tmp_path / "huge.json"
    path.write_text(f'{{"n": 2, "terms": {terms}}}\n')
    args = ["analyze", "--input", str(path), "--seed", "1", "--format", fmt]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise
        result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "overflow" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--n", "2", "--d", "1", "--terms", "1", "--seed", "1"],
        ["random", "--n", "2", "--d", "1", "--terms", "1", "--seed", "1"],
        ["suite", "--suite", "gl", "--seed", "1"],
    ],
    ids=["analyze", "random", "suite"],
)
def test_unwritable_out_exits_2(runner, tmp_path, args):
    out = tmp_path / "missing" / "x.out"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "cannot write" in result.stderr


@pytest.mark.parametrize("delta", ["5e-324", "1e-310"])
def test_suite_runs_at_a_subnormal_delta(runner, delta):
    # 1 / delta overflows to inf here; the default rounds budget must stay finite
    result = runner.invoke(main, ["suite", "--suite", "decompose", "--seed", "7", "--delta", delta])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["summary"]["failed"] == 0


@pytest.mark.parametrize("option", [["--bigM", "90"], ["--tau", "5e-324"], ["--bigM", "1e300"]])
def test_suite_runs_when_the_influence_threshold_underflows(runner, option):
    # the threshold rounds to 0, which expands every coordinate of positive influence
    result = runner.invoke(main, ["suite", "--suite", "decompose", "--seed", "7", *option])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["summary"]["failed"] == 0


@pytest.mark.parametrize(
    "option",
    [["--blocks", "0"], ["--blocks", "-3"], ["--eps", "0.3"], ["--tau", "nan"], ["--bigM", "inf"]],
)
def test_suite_rejects_options_that_would_not_run(runner, tmp_path, option):
    out = tmp_path / "gl.json"
    args = ["suite", "--suite", "gl", "--seed", "1", "--out", str(out), *option]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert not out.exists()
