import csv
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ptflab import (
    LeafKind,
    MultilinearPolynomial,
    Rng,
    SignFunction,
    average_sensitivity_exact,
    middle_layers_witness,
    random_polynomial,
)
from ptflab import cli, decompose
from ptflab.cli import SuiteRow, _bundle_exit_code, _row, main, run_suite


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


@pytest.mark.parametrize("command", ["random", "analyze"])
def test_generated_instance_beyond_the_float_range_of_the_subset_counts_exits_0(runner, command):
    # C(1100, 550) is beyond the float range; the size weights are exact integer ratios
    args = [command, "--n", "1100", "--d", "600", "--terms", "2", "--seed", "1"]
    result = runner.invoke(main, args + (["--samples", "100"] if command == "analyze" else []))
    assert result.exit_code == 0, result.output
    data = json.loads(result.stdout)
    terms = len(data["terms"]) if command == "random" else data["polynomial"]["terms"]
    assert terms == 2


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
    # each CSV row is the JSON row of the same run without its extra payload:
    # a missing number is empty, a string as it is, a number its repr
    result = runner.invoke(main, ["suite", "--suite", "gl", "--seed", "7"])
    assert result.exit_code == 0
    json_rows = json.loads(result.stdout)["rows"]
    header, *csv_rows = csv.reader(lines)
    assert len(csv_rows) == len(json_rows)
    assert any("extra" in row for row in json_rows)
    for cells, row in zip(csv_rows, json_rows):
        assert set(row) - {"extra"} == set(header)
        for name, cell in zip(header, cells):
            value = row[name]
            assert cell == ("" if value is None else value if isinstance(value, str) else repr(value))


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


def test_leaf_soundness_fails_on_wrong_enumerated_labels(monkeypatch):
    # the row reads f's truth table on each leaf's subcube, not the classifier's own count
    classify = decompose.classify_leaf

    def flipped(p, tau, eps):
        label = classify(p, tau, eps)
        if label.kind is LeafKind.NEAR_CONSTANT and label.exact_verified:
            return dataclasses.replace(label, sign=-label.sign)
        return label

    monkeypatch.setattr(decompose, "classify_leaf", flipped)
    rows = run_suite("decompose", 7, 1_000, 0.1, 0.05, 0.05, 1.0, 3, 1)
    (row,) = [row for row in rows if row.check == "leaf_soundness"]
    assert row.status == "fail"


def test_no_seeded_stream_of_the_suite_is_drawn_twice(monkeypatch):
    # two draws on one stream would share their random numbers; recording the
    # generators at run time also covers computed streams such as child(4 + idx)
    draws = []
    generator, chunk_generator = Rng.generator, Rng.chunk_generator

    def recorded(draw):
        def call(self, *chunk):
            draws.append((self.seed, self.stream, *chunk))
            return draw(self, *chunk)

        return call

    monkeypatch.setattr(Rng, "generator", recorded(generator))
    monkeypatch.setattr(Rng, "chunk_generator", recorded(chunk_generator))
    run_suite("all", 7, 2_000, 0.1, 0.05, 0.05, 1.0, 3, 1)
    assert draws and len(draws) == len(set(draws))


def test_the_decompose_section_builds_one_tree_per_instance(monkeypatch):
    # tree sensitivity, the success rate and leaf soundness read the trees of one sweep
    trees = []

    def counted(p, config):
        trees.append(p)
        return build(p, config)

    build = cli.build_regularity_tree
    monkeypatch.setattr(cli, "build_regularity_tree", counted)
    rows = run_suite("decompose", 7, 2_000, 0.1, 0.05, 0.05, 1.0, 3, 1)
    stream = Rng(7).child(cli._SECTIONS["decompose"][0]).child(2)
    sweep = [p for _, p in cli.sweep_instances(stream, 20, n_range=(6, 12))]
    assert trees == sweep
    tree_rows = [row for row in rows if row.check == "tree_sensitivity"]
    assert [row.instance for row in tree_rows] == [f"instance={k}" for k in range(20)]
    assert all(row.status == "pass" for row in tree_rows)
    assert [row.value for row in tree_rows] == [average_sensitivity_exact(SignFunction(p)) for p in sweep]


def test_numpy_scalars_in_rows_print_as_their_python_values(runner, tmp_path, monkeypatch):
    def suite_of(value, reference):
        return lambda *args: [_row("c", "i", "hard", True, value, reference)]

    bundles = []
    for value, reference in ((np.float64(0.015625), np.int64(3)), (0.015625, 3)):
        monkeypatch.setattr(cli, "run_suite", suite_of(value, reference))
        for fmt in ("json", "csv"):
            out = tmp_path / f"{type(reference).__name__}.{fmt}"
            args = ["suite", "--suite", "gl", "--seed", "1", "--format", fmt, "--out", str(out)]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            bundles.append(out.read_bytes())
    assert bundles[:2] == bundles[2:]
    assert b"0.015625,3," in bundles[1]


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


@st.composite
def wire_polynomials(draw):
    """Wire-format polynomials: n in 0..10, at most 8 terms of degree <= 3, any finite
    float64 coefficient (hypothesis draws +-1e308-sized values and subnormals too) or any
    integer, also one beyond the float range."""
    n = draw(st.integers(0, 10))
    subsets = st.lists(st.integers(0, max(n - 1, 0)), max_size=min(3, n), unique=True).map(sorted)
    variables = draw(st.lists(subsets, max_size=8, unique_by=tuple))
    coeffs = (
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from([1e308, -1e308, 5e-324, -2.2e-308])
        | st.integers()
        | st.sampled_from([10**400, -(10**400)])
    )
    return {"n": n, "terms": [{"vars": v, "coeff": draw(coeffs)} for v in variables]}


def _wire_sum(n, pairs, coeff):
    return {"n": n, "terms": [{"vars": list(v), "coeff": coeff} for v in pairs]}


@settings(
    max_examples=100, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=wire_polynomials(), samples=st.sampled_from([0, 1, 17]))
# the Monte Carlo alpha path: 30 support variables
@example(data=_wire_sum(30, [(i,) for i in range(30)], 1.0), samples=17)
# over the enumeration budget without samples: infeasible
@example(data=_wire_sum(40, [(i,) for i in range(40)], 1.0), samples=0)
# the squared gradient at (1, ..., 1) overflows although |p|_2 is finite
@example(data=_wire_sum(12, [(0, i) for i in range(1, 12)], 2.0**512 / math.sqrt(50)), samples=17)
# an integer of 401 digits, beyond the float range
@example(data=_wire_sum(1, [(0,)], 10**400), samples=0)
# an integer literal of 5000 digits, past json's 4300-digit limit (given as wire text,
# since json.dumps refuses to write it)
@example(data='{"n": 1, "terms": [{"vars": [0], "coeff": 1' + "0" * 4999 + "}]}", samples=0)
def test_analyze_input_contract(runner, tmp_path, data, samples):
    path = tmp_path / "p.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    args = ["analyze", "--input", str(path), "--seed", "1", "--samples", str(samples)]
    result = runner.invoke(main, args)
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    if result.exit_code == 0:
        strict_loads(result.stdout)
    if result.exit_code == 2:
        assert "\nerror: " in "\n" + result.stderr


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


# each suite option's values in its range, and out of it; --samples stays <= 200, since the
# default would take seconds
_SUITE_OPTIONS = {
    "--samples": (["1", "17", "200"], ["-5", "0"]),
    "--tau": (["5e-324", "0.05", "0.1", "0.5", "3"], ["-1", "0", "inf", "nan"]),
    "--eps": (["0.01", "0.05", "0.2"], ["-0.1", "0", "0.25", "1", "nan"]),
    "--delta": (["1e-300", "0.05", "0.2"], ["-0.1", "0", "0.25", "1", "nan"]),
    "--bigM": (["1", "90", "1e300"], ["-1", "0", "inf", "nan"]),
    "--blocks": (["1", "3", "12", "50"], ["-3", "0"]),
    "--workers": (["1", "2"], ["-1", "0"]),
}
# how an exit-2 message may name each option: the flag, or the parameter it sets
_OPTION_NAMES = ("samples", "tau", "eps", "delta", "bigM", "big_m", "blocks", "workers")


# a decompose run takes about 0.3 s: 15 examples keep the test under 2 s
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    section=st.sampled_from(["gl", "decompose"]),
    # None leaves an option out; --samples is always given
    options=st.fixed_dictionaries(
        {
            flag: st.sampled_from(good if flag == "--samples" else [None, *good])
            for flag, (good, _) in _SUITE_OPTIONS.items()
        }
    ),
    # at most one option out of its range
    bad=st.none()
    | st.sampled_from([(flag, v) for flag, (_, bad) in _SUITE_OPTIONS.items() for v in bad]),
)
# click's own range check: "Invalid value for '--workers'"
@example(section="gl", options={flag: None for flag in _SUITE_OPTIONS} | {"--samples": "17"},
         bad=("--workers", "0"))
def test_suite_option_contract(section, options, bad):
    if bad is not None:
        options = {**options, bad[0]: bad[1]}
    args = ["suite", "--suite", section, "--seed", "3"]
    for flag, value in options.items():
        if value is not None:
            args += [flag, value]
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2, 3, 4), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    if result.exit_code == 2:
        assert any(name in result.stderr for name in _OPTION_NAMES), result.stderr


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
