import csv
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from gpcommittee import ExperimentConfig, RunRecord
from gpcommittee.bench import SCHEMA_VERSION
from gpcommittee.cli import _config_from_args, _parser, main

SMALL = ["--subset-size", "50", "--max-evals", "5", "--methods", "poe,grbcm"]


def written_cell(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def test_run_writes_matching_csv_and_json(tmp_path, capsys):
    assert main(["run", "--dataset", "toy200", *SMALL, "--out", str(tmp_path)]) == 0
    assert "poe" in capsys.readouterr().out
    with open(tmp_path / "results.json") as fh:
        doc = json.load(fh)
    assert [rec["method"] for rec in doc["records"]] == ["poe", "grbcm"]
    assert all(rec["error"] is None for rec in doc["records"])
    names = [f.name for f in fields(RunRecord)]
    assert [list(rec) for rec in doc["records"]] == [names, names]
    with open(tmp_path / "results.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == names
    # each cell is the writer's form of the JSON value: repr for a float (so
    # it reads back exactly), an empty cell for None
    assert rows == [[written_cell(rec[name]) for name in names] for rec in doc["records"]]
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["config"]["methods"] == ["poe", "grbcm"]
    assert "opt_method" not in doc["config"]


def test_removed_flags_are_rejected():
    for flag in (["--opt-method", "cg"], ["--partition", "grbcm"], ["--no-rebalance"]):
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
    (["--subset-size", "50", "--methods", ",", "--max-evals", "3"],
     "methods must name at least one of ('poe', 'gpoe', 'bcm', 'rbcm', 'npae', 'grbcm')"),
    (["--subset-size", "50", "--seed", "-1", "--methods", "poe", "--max-evals", "3"],
     "seed must be >= 0, got -1"),
    (["--subset-size", "50", "--workers", "0"], "workers must be >= 1, got 0"),
])
def test_invalid_config_is_a_usage_error(capsys, args, message):
    dataset = [] if "--csv" in args else ["--dataset", "toy200"]
    with pytest.raises(SystemExit) as exc:
        main(["run", *dataset, *args])
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


@pytest.mark.parametrize("flag", [["--dataset", "toy5000"], ["--n-test", "7"]])
def test_csv_takes_no_toy_flags(capsys, flag):
    # a CSV run reads no toy flag, so one given is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["run", "--csv", "table.csv", *flag, "--subset-size", "100"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"gpcommittee-bench: error: {flag[0]} is for toy data; --csv takes none")
    assert sum("error:" in line for line in captured.err.splitlines()) == 1


@pytest.mark.parametrize("flag", [["--target-col", "3"], ["--test-fraction", "0.5"]])
def test_toy_takes_no_csv_flags(tmp_path, capsys, flag):
    # a toy run reads no CSV flag, so one given is a usage error, not a no-op
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--dataset", "toy200", *SMALL, *flag, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"gpcommittee-bench: error: {flag[0]} is for CSV data; --dataset takes none")
    assert sum("error:" in line for line in captured.err.splitlines()) == 1
    assert not out.exists()


# a value unlike ExperimentConfig's default for every option, as given and as parsed
OPTION_VALUES = {
    "--dataset": ("toy37", 37),
    "--csv": ("other.csv", "other.csv"),
    "--target-col": ("y", "y"),
    "--test-fraction": ("0.5", 0.5),
    "--n-test": ("7", 7),
    "--partition": ("random", "random"),
    "--experts": ("4", 4),
    "--subset-size": ("50", 50),
    "--methods": ("npae,poe", ("npae", "poe")),
    "--gpoe-beta": ("entropy", "entropy"),
    "--reps": ("3", 3),
    "--seed": ("5", 5),
    "--max-evals": ("9", 9),
    "--workers": ("2", 2),
    "--out": ("out", "out"),
    "--n-list": ("30,60,90", [30, 60, 90]),
}


def _options(command: str) -> list:
    (subparsers,) = [a for a in _parser()._actions if a.dest == "command"]
    return [a for a in subparsers.choices[command]._actions if a.dest != "help"]


@pytest.mark.parametrize("base, config, usage_errors", [
    (["run", "--dataset", "toy200"], ExperimentConfig(n=200),
     {"--csv", "--target-col", "--test-fraction"}),
    (["run", "--csv", "t.csv"], ExperimentConfig(dataset="csv", csv_path="t.csv"),
     {"--dataset", "--n-test"}),
    (["sweep", "--n-list", "100,200"], ExperimentConfig(), set()),
])
def test_every_option_sets_its_config_field_or_is_a_usage_error(base, config, usage_errors):
    # the options come from the parser, so one added later is checked too
    errors = set()
    for action in _options(base[0]):
        (flag,) = action.option_strings
        raw, value = OPTION_VALUES[flag]
        args = _parser().parse_args([*base, flag, raw])
        try:
            got = _config_from_args(args)
        except ValueError:
            errors.add(flag)
            continue
        if action.dest == "n_list":
            assert (args.n_list, got) == (value, config)
        else:
            assert getattr(config, action.dest) != value, flag
            assert got == replace(config, **{action.dest: value}), flag
    assert errors == usage_errors


def _write_table(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.uniform(-2.0, 2.0, (60, 2))
    y = np.sin(X[:, 0]) * np.cos(X[:, 1]) + 0.1 * rng.normal(size=60)
    path = tmp_path / "table.csv"
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", header="x1,x2,y", comments="")
    return str(path)


def _untimed_records(out_dir) -> list[dict]:
    with open(out_dir / "results.json") as fh:
        records = json.load(fh)["records"]
    for rec in records:
        del rec["train_time_seconds"], rec["predict_time_seconds"]
    return records


def test_target_column_by_header_name(tmp_path, capsys):
    path = _write_table(tmp_path)
    runs = {}
    for target in ("y", "-1"):
        out = tmp_path / f"target{target}"
        assert main(["run", "--csv", path, "--target-col", target, "--subset-size", "20",
                     "--max-evals", "5", "--methods", "poe,grbcm", "--out", str(out)]) == 0
        runs[target] = _untimed_records(out)
    assert all(rec["error"] is None for rec in runs["y"])
    assert runs["y"] == runs["-1"]


def test_unknown_target_column_name_is_one_error_line(tmp_path, capsys):
    path = _write_table(tmp_path)
    assert main(["run", "--csv", path, "--target-col", "z", "--subset-size", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "gpcommittee-bench: error: target column 'z' not found in header"]


@pytest.mark.parametrize("target", ["y", "extra", "-1"])
def test_csv_header_of_another_width_is_one_error_line(tmp_path, capsys, target):
    # four names over three columns: "y" indexed past the last column, and
    # "extra" took the third column as the target
    rows = [f"{x:.1f},{x * x:.2f},{np.sin(x):.4f}" for x in np.linspace(0.0, 2.0, 20)]
    path = tmp_path / "table.csv"
    path.write_text("\n".join(["x1,x2,extra,y", *rows]) + "\n")
    out = tmp_path / "out"
    assert main(["run", "--csv", str(path), "--target-col", target, "--subset-size", "8",
                 "--max-evals", "3", "--methods", "poe", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"gpcommittee-bench: error: {path}: the header has 4 columns but the rows have 3"]
    assert not out.exists()


def test_csv_header_naming_a_column_twice_is_one_error_line(tmp_path, capsys):
    # the run took the first "y" as the target, kept the second as an input
    # and exited 0
    rows = [f"{x:.1f},{x * x:.2f},{np.sin(x):.4f}" for x in np.linspace(0.0, 2.0, 20)]
    path = tmp_path / "table.csv"
    path.write_text("\n".join(["x,y,y", *rows]) + "\n")
    out = tmp_path / "out"
    assert main(["run", "--csv", str(path), "--target-col", "y", "--subset-size", "8",
                 "--max-evals", "3", "--methods", "poe", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"gpcommittee-bench: error: {path}: the header names the column 'y' more than once"]
    assert not out.exists()


def test_cli_adds_no_defaults_of_its_own():
    args = _parser().parse_args(["run", "--dataset", "toy200", "--subset-size", "50"])
    assert _config_from_args(args) == ExperimentConfig(dataset="toy", n=200, m0=50)
    # a run given no data flag takes the config's default toy data
    args = _parser().parse_args(["run", "--subset-size", "50"])
    assert _config_from_args(args) == ExperimentConfig(m0=50)


def test_workers_flag_gives_the_records_of_one_worker(tmp_path, capsys):
    # two training processes and two prediction threads, GRBCM's augmented
    # experts built in both slots: every record but the timings is the same
    runs = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(["run", "--dataset", "toy300", "--subset-size", "60", "--max-evals", "5",
                     "--methods", "npae,grbcm", "--workers", workers, "--out", str(out)]) == 0
        runs.append(_untimed_records(out))
    assert runs[0] == runs[1]
    assert all(rec["error"] is None for rec in runs[0])


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


def test_sweep_with_no_interior_test_point_is_one_error_line(tmp_path, capsys):
    # at seed 28 neither test point of n=100 lies in the training range; the
    # sweep warned "Mean of empty slice", reported every flag false and exited 0
    out = tmp_path / "out"
    assert main(["sweep", "--subset-size", "50", "--max-evals", "3", "--methods", "poe,grbcm",
                 "--n-list", "100,200", "--n-test", "2", "--seed", "28",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "gpcommittee-bench: error: n=100, repetition 0: no test point lies in the interior "
        "[0.0, 1.0] of the training range, so the median interior variance is undefined"]
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--csv", "table.csv", "--subset-size", "50"], "unrecognized arguments: --csv table.csv"),
    (["--experts", "60"], "M=60 exceeds n=50"),
    (["--dataset", "toy100", "--subset-size", "50"], "unrecognized arguments: --dataset toy100"),
    (["--subset-size", "50", "--target-col", "0"], "unrecognized arguments: --target-col 0"),
    (["--subset-size", "50", "--test-fraction", "0.5"],
     "unrecognized arguments: --test-fraction 0.5"),
    (["--subset-size", "50", "--seed", "-2", "--max-evals", "3"], "seed must be >= 0, got -2"),
    (["--subset-size", "50", "--methods", ",", "--max-evals", "3"],
     "methods must name at least one of ('poe', 'gpoe', 'bcm', 'rbcm', 'npae', 'grbcm')"),
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
