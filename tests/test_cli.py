import json

import pytest

from gpcommittee import RunRecord, read_results_csv
from gpcommittee.cli import main

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


def test_sweep_writes_flags(tmp_path, capsys):
    assert main(["sweep", "--dataset", "toy100", *SMALL, "--n-list", "100,200",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.json") as fh:
        report = json.load(fh)
    assert report["n_list"] == [100, 200]
    assert report["flags"]
    assert json.loads(capsys.readouterr().out) == report["flags"]
