import json

import numpy as np
import pytest

from gpcommittee import ExperimentConfig, RunRecord, read_results_csv
from gpcommittee.bench import SCHEMA_VERSION
from gpcommittee.cli import _config_from_args, _parser, main

SMALL = ["--subset-size", "50", "--max-evals", "5", "--methods", "poe,grbcm"]


def test_run_writes_matching_csv_and_json(tmp_path, capsys):
    assert main(["run", "--dataset", "toy200", *SMALL, "--out", str(tmp_path)]) == 0
    assert "poe" in capsys.readouterr().out
    with open(tmp_path / "results.json") as fh:
        doc = json.load(fh)
    from_json = [RunRecord(**rec) for rec in doc["records"]]
    assert [r.method for r in from_json] == ["poe", "grbcm"]
    assert all(r.error is None for r in from_json)
    assert read_results_csv(str(tmp_path / "results.csv")) == from_json
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["config"]["methods"] == ["poe", "grbcm"]
    assert "opt_method" not in doc["config"]


def test_workers_flag_is_rejected():
    for flag in (["--workers", "2"], ["--opt-method", "cg"], ["--partition", "grbcm"],
                 ["--no-rebalance"]):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--dataset", "toy200", *SMALL, *flag])
        assert exc.value.code == 2


@pytest.mark.parametrize("args, message", [
    ([], "give exactly one of M (experts) or m0 (subset size)"),
    (["--experts", "4", "--subset-size", "50"],
     "give exactly one of M (experts) or m0 (subset size)"),
    (["--subset-size", "0"], "m0 must be >= 1, got 0"),
    (["--subset-size", "50", "--methods", "poe,foo"], "unknown methods ['foo']"),
    (["--subset-size", "50", "--max-evals", "0"], "max_evals must be >= 1"),
    (["--dataset", "toy0", "--subset-size", "5"], "n must be >= 1, got 0"),
    (["--subset-size", "50", "--n-test", "0"], "n_test must be >= 1, got 0"),
    (["--subset-size", "50", "--n-test", "1"], "n_test must be >= 2 to score SMSE, got 1"),
    (["--dataset", "toy10", "--experts", "20"], "M=20 exceeds n=10"),
    (["--subset-size", "50", "--methods", "poe,npae,poe"],
     "methods listed more than once: ['poe']"),
    (["--csv", "table.csv", "--subset-size", "1", "--test-fraction", "1.5"],
     "test_fraction must be in (0, 1), got 1.5"),
    (["--csv", "table.csv", "--subset-size", "1", "--test-fraction", "0"],
     "test_fraction must be in (0, 1), got 0.0"),
])
def test_invalid_config_is_a_usage_error(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--dataset", "toy200", *args])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(f"gpcommittee-bench: error: {message}")
    assert sum("error:" in line for line in captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_sweep_size_list_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *SMALL, "--n-list", "100,abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == ("gpcommittee-bench sweep: error: argument --n-list: "
                                    "expected comma-separated integers, got '100,abc'")
    assert "Traceback" not in err


@pytest.mark.parametrize("sizes", ["200,100", "200", "100,100", "100,200,200"])
def test_sweep_sizes_out_of_order_are_a_usage_error(capsys, sizes):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *SMALL, "--n-list", sizes])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "gpcommittee-bench sweep: error: argument --n-list: "
        f"n_list must be increasing with at least two sizes, got '{sizes}'")
    assert sum("error:" in line for line in captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("table, message", [
    ("x,y\n0.1,1.0\n0.2,oops\n", "non-numeric cell at row 2, column 1: 'oops'"),
    (None, "No such file or directory"),
])
def test_bad_csv_is_one_error_line(tmp_path, capsys, table, message):
    path = tmp_path / "table.csv"
    if table is not None:
        path.write_text(table)
    assert main(["run", "--csv", str(path), "--subset-size", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("gpcommittee-bench: error: ")
    assert message in captured.err


@pytest.mark.parametrize("rows, constant_test_targets, args, message", [
    (3, False, ["--subset-size", "1"], "the test split has fewer than 2 rows"),
    (10, True, ["--subset-size", "1"], "the test targets are constant"),
    (10, False, ["--experts", "9"], "M=9 exceeds the 8 training rows"),
])
def test_unusable_csv_fails_before_training(tmp_path, capsys, rows, constant_test_targets,
                                            args, message):
    x = np.arange(rows, dtype=float)
    y = np.sin(x)
    if constant_test_targets:
        # the seeded split of the default --seed 0 and --test-fraction 0.2
        y[np.random.default_rng(0).permutation(rows)[:2]] = 1.0
    path = tmp_path / "table.csv"
    np.savetxt(path, np.column_stack([x, y]), delimiter=",")
    assert main(["run", "--csv", str(path), *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"gpcommittee-bench: error: {message}")
    assert "Traceback" not in captured.err


def test_cli_adds_no_defaults_of_its_own():
    args = _parser().parse_args(["run", "--dataset", "toy200", "--subset-size", "50"])
    assert _config_from_args(args) == ExperimentConfig(dataset="toy", n=200, m0=50)


def test_sweep_writes_flags(tmp_path, capsys):
    assert main(["sweep", *SMALL, "--n-list", "100,200", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.json") as fh:
        report = json.load(fh)
    assert report["n_list"] == [100, 200]
    # methods keep config order at every size
    assert [list(report["methods"][n]) for n in ("100", "200")] == [["poe", "grbcm"]] * 2
    assert report["flags"]
    assert json.loads(capsys.readouterr().out) == report["flags"]


def test_sweep_with_M_fixed(tmp_path, capsys):
    assert main(["sweep", "--experts", "2", "--max-evals", "5", "--methods", "poe,grbcm",
                 "--n-list", "100,200", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.json") as fh:
        report = json.load(fh)
    assert (report["M"], report["m0"]) == (2, None)
    assert "bcm_inflation" not in report
    assert sorted(report["flags"]) == sorted(
        f"{label}_{flag}" for label in ("poe", "grbcm")
        for flag in ("overconfident_at_max_n", "conservative_all_n"))
    assert json.loads(capsys.readouterr().out) == report["flags"]


@pytest.mark.parametrize("args, message", [
    (["--csv", "table.csv", "--subset-size", "50"], "unrecognized arguments: --csv table.csv"),
    (["--experts", "60"], "M=60 exceeds n=50"),
    (["--dataset", "toy100", "--subset-size", "50"], "unrecognized arguments: --dataset toy100"),
    (["--subset-size", "50", "--target-col", "0"], "unrecognized arguments: --target-col 0"),
    (["--subset-size", "50", "--test-fraction", "0.5"],
     "unrecognized arguments: --test-fraction 0.5"),
])
def test_sweep_that_cannot_run_every_size_is_a_usage_error(capsys, args, message):
    # the sweep runs toy data at the sizes of --n-list, so it takes no dataset
    # flags (a CSV sweep would run the same experiment at every "size"); M=60
    # cannot split the 50 rows of the first size
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *args, "--n-list", "50,100"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"gpcommittee-bench: error: {message}"
    assert sum("error:" in line for line in captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err
