import json

import pytest

from gpcommittee import ExperimentConfig, RunRecord, read_results_csv
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
    assert doc["config"]["methods"] == ["poe", "grbcm"]


def test_workers_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--dataset", "toy200", *SMALL, "--workers", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args, message", [
    ([], "give exactly one of M (experts) or m0 (subset size)"),
    (["--experts", "4", "--subset-size", "50"],
     "give exactly one of M (experts) or m0 (subset size)"),
    (["--subset-size", "0"], "m0 must be >= 1, got 0"),
    (["--subset-size", "50", "--methods", "poe,foo"], "unknown methods ['foo']"),
    (["--subset-size", "50", "--max-evals", "0"], "max_evals must be >= 1"),
])
def test_invalid_config_is_a_usage_error(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--dataset", "toy200", *args])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(f"gpcommittee-bench: error: {message}")
    assert "Traceback" not in captured.err


def test_cli_adds_no_defaults_of_its_own():
    args = _parser().parse_args(["run", "--dataset", "toy200", "--subset-size", "50"])
    assert _config_from_args(args) == ExperimentConfig(dataset="toy", n=200, m0=50)


def test_sweep_writes_flags(tmp_path, capsys):
    assert main(["sweep", "--dataset", "toy100", *SMALL, "--n-list", "100,200",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.json") as fh:
        report = json.load(fh)
    assert report["n_list"] == [100, 200]
    assert report["flags"]
    assert json.loads(capsys.readouterr().out) == report["flags"]
