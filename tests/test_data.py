import numpy as np
import pytest

from gpcommittee import (DataError, denormalize_inputs, denormalize_predictions,
                         load_csv, smse, toy_function, toy_generate)
from gpcommittee.data import NormStats


def test_toy_function_frozen_values():
    # direct evaluation of the synthetic target
    assert toy_function(0.0) == pytest.approx(4.239712769302102, rel=1e-12)
    assert toy_function(0.5) == pytest.approx(1.4963882314209407, rel=1e-12)


def test_toy_noise_variance_monte_carlo():
    ds = toy_generate(100_000, 10, seed=0)
    stats = ds.norm_stats
    y_raw = ds.y_train * stats.y_std + stats.y_mean
    x_raw = denormalize_inputs(ds.X_train, stats)[:, 0]
    resid = y_raw - toy_function(x_raw)
    assert 0.24 <= resid.var() <= 0.26


def test_toy_normalization_invariants():
    ds = toy_generate(500, 100, seed=1)
    assert abs(ds.X_train.mean()) < 1e-10
    assert abs(ds.X_train.std() - 1.0) < 1e-10
    assert abs(ds.y_train.mean()) < 1e-10
    assert abs(ds.y_train.std() - 1.0) < 1e-10
    # test columns use training statistics, not their own
    x_raw = denormalize_inputs(ds.X_test, ds.norm_stats)[:, 0]
    assert x_raw.min() >= -0.2 and x_raw.max() <= 1.2


def test_toy_test_range_covers_extrapolation():
    ds = toy_generate(200, 2000, seed=2)
    x_raw = denormalize_inputs(ds.X_test, ds.norm_stats)[:, 0]
    assert (x_raw < 0.0).any() and (x_raw > 1.0).any()


def test_toy_deterministic():
    a = toy_generate(300, 50, seed=3)
    b = toy_generate(300, 50, seed=3)
    np.testing.assert_array_equal(a.X_train, b.X_train)
    np.testing.assert_array_equal(a.y_train, b.y_train)
    np.testing.assert_array_equal(a.X_test, b.X_test)
    np.testing.assert_array_equal(a.y_test, b.y_test)


def test_toy_noiseless_targets_exposed():
    ds = toy_generate(100, 40, seed=4)
    stats = ds.norm_stats
    x_raw = denormalize_inputs(ds.X_test, stats)[:, 0]
    expected = (toy_function(x_raw) - stats.y_mean) / stats.y_std
    np.testing.assert_allclose(ds.f_test, expected, rtol=1e-12)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_csv_four_rows_even_split(tmp_path):
    path = _write(tmp_path, "1.0,2.0\n2.0,4.0\n3.0,6.0\n4.0,8.0\n")
    ds = load_csv(path, target_column=-1, test_fraction=0.5, seed=0)
    assert ds.n_train == 2 and ds.n_test == 2
    assert abs(ds.y_train.mean()) < 1e-12
    assert abs(ds.y_train.std() - 1.0) < 1e-12


def test_csv_header_autodetect(tmp_path):
    path = _write(tmp_path, "a,b,target\n1,2,3\n4,5,6\n7,8,9\n2,1,0\n")
    ds = load_csv(path, target_column="target", test_fraction=0.25, seed=0)
    assert ds.X_train.shape[1] == 2
    assert ds.n_train + ds.n_test == 4


def test_csv_header_after_blank_line(tmp_path):
    path = _write(tmp_path, "\nx,y\n1,2\n3,4\n5,6\n7,8\n")
    ds = load_csv(path, target_column="y", test_fraction=0.5, seed=0)
    assert ds.X_train.shape[1] == 1
    assert ds.n_train + ds.n_test == 4


@pytest.mark.parametrize("header, width", [("x1,x2,extra,y", 4), ("x,y", 2)])
@pytest.mark.parametrize("target", ["y", -1])
def test_csv_header_must_be_as_wide_as_its_rows(tmp_path, header, width, target):
    # a header of four names over three columns indexed "y" past the last
    # column, and one of two names took a middle column as the target
    path = _write(tmp_path, header + "\n1,2,3\n4,5,6\n7,8,9\n2,1,0\n")
    message = f"the header has {width} columns but the rows have 3"
    with pytest.raises(DataError, match=message):
        load_csv(path, target_column=target, test_fraction=0.25, seed=0)


@pytest.mark.parametrize("header", ["x,y,y", "y,x,y"])
@pytest.mark.parametrize("target", ["y", -1])
def test_csv_header_must_name_each_column_once(tmp_path, header, target):
    # "y" named its first column as the target and kept the other as an input
    path = _write(tmp_path, header + "\n1,2,3\n4,5,6\n7,8,9\n2,1,0\n")
    with pytest.raises(DataError, match="the header names the column 'y' more than once"):
        load_csv(path, target_column=target, test_fraction=0.25, seed=0)


def test_csv_non_numeric_cell_reported(tmp_path):
    path = _write(tmp_path, "1,2\n3,oops\n5,6\n")
    with pytest.raises(DataError, match=r"row 1, column 1"):
        load_csv(path, target_column=-1, test_fraction=0.5, seed=0)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_csv_non_finite_cell_reported(tmp_path, cell):
    # float() accepts these, so without the check they reach normalization
    rows = ["1,2", "2,4", "3,6", "4,8", f"5,{cell}", "6,12"]
    path = _write(tmp_path, "\n".join(rows) + "\n")
    with pytest.raises(DataError, match=r"non-finite cell at row 4, column 1"):
        load_csv(path, target_column=-1, test_fraction=0.5, seed=0)


def test_csv_constant_column_warns(tmp_path):
    path = _write(tmp_path, "1,5,2\n2,5,4\n3,5,6\n4,5,8\n")
    with pytest.warns(UserWarning, match="constant"):
        ds = load_csv(path, target_column=-1, test_fraction=0.5, seed=0)
    assert ds.norm_stats.x_std[1] == 1.0


def test_csv_missing_file():
    with pytest.raises(FileNotFoundError):
        load_csv("/nonexistent/nowhere.csv", target_column=-1, test_fraction=0.5)


@pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.1, float("nan")])
def test_csv_test_fraction_must_lie_in_the_open_unit_interval(fraction):
    # checked before the file is read
    with pytest.raises(ValueError, match=r"test_fraction must be in \(0, 1\)"):
        load_csv("/nonexistent/nowhere.csv", target_column=-1, test_fraction=fraction)


def test_denormalize_round_trip():
    ds = toy_generate(100, 30, seed=5)
    stats = ds.norm_stats
    y_raw = ds.y_train * stats.y_std + stats.y_mean
    renorm = (y_raw - stats.y_mean) / stats.y_std
    np.testing.assert_allclose(renorm, ds.y_train, atol=1e-12)


def test_denormalize_predictions_rules():
    stats = NormStats(x_mean=np.zeros(1), x_std=np.ones(1), y_mean=3.0, y_std=2.0)
    means, variances = denormalize_predictions(np.array([1.0]), np.array([1.0]), stats)
    assert means[0] == 5.0 and variances[0] == 4.0
    identity = NormStats(x_mean=np.zeros(1), x_std=np.ones(1), y_mean=0.0, y_std=1.0)
    means, variances = denormalize_predictions(np.array([1.5]), np.array([0.5]), identity)
    assert means[0] == 1.5 and variances[0] == 0.5


def test_smse_affine_invariance_under_denormalization():
    rng = np.random.default_rng(6)
    y = rng.normal(size=50)
    preds = y + 0.3 * rng.normal(size=50)
    stats = NormStats(x_mean=np.zeros(1), x_std=np.ones(1), y_mean=-1.7, y_std=3.1)
    raw = smse(preds * stats.y_std + stats.y_mean, y * stats.y_std + stats.y_mean)
    norm = smse(preds, y)
    assert raw == pytest.approx(norm, abs=1e-12)
