import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leapts.data import Dataset, load_csv, make_windows, zscore_stats
from leapts.errors import DataError


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_small_file(tmp_path):
    ds = load_csv(write(tmp_path, "a,b\n1,2\n3,4\n5,6\n"))
    assert ds.values.shape == (3, 2)
    assert ds.columns == ["a", "b"]


def test_date_column_dropped(tmp_path):
    ds = load_csv(write(tmp_path, "date,a\n2020-01-01,1\n2020-01-02,2\n"))
    assert ds.values.shape == (2, 1)
    ds = load_csv(write(tmp_path, "t,z\n0.0,5\n0.5,6\n"))
    assert ds.values.shape == (2, 1)


def test_non_numeric_first_column_detected(tmp_path):
    ds = load_csv(write(tmp_path, "idx,a\nx1,1\nx2,2\n"))
    assert ds.values.shape == (2, 1)


def test_empty_body_rejected(tmp_path):
    with pytest.raises(DataError, match="no data rows"):
        load_csv(write(tmp_path, "a,b\n"))


def test_ragged_rows_report_row(tmp_path):
    with pytest.raises(DataError, match="row 3"):
        load_csv(write(tmp_path, "a,b\n1,2\n3\n"))


def test_non_numeric_cell_reports_position(tmp_path):
    with pytest.raises(DataError, match="row 3, column 2"):
        load_csv(write(tmp_path, "a,b\n1,2\n3,oops\n"))


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(values=np.ones((4, 2)), split_fractions=(0.5, 0.2, 0.2))
    with pytest.raises(DataError):
        Dataset(values=np.array([[np.inf, 1.0]]))


@pytest.mark.parametrize("fractions", [(0.5, 0.6, -0.1), (np.nan, 0.5, 0.5), (1.0, np.inf, -np.inf)])
def test_split_fractions_must_be_finite_and_non_negative(fractions):
    """These pass the sum check (NaN and inf - inf compare false) but break
    the split bounds."""
    with pytest.raises(DataError, match="split fractions must be finite and >= 0"):
        Dataset(values=np.ones((10, 1)), split_fractions=fractions)


# -- windows -------------------------------------------------------------------


def single_split(values):
    return Dataset(values=values, split_fractions=(1.0, 0.0, 0.0))


def test_window_count_formula():
    ds = single_split(np.arange(20.0).reshape(10, 2))
    w = make_windows(ds, L=3, P=2, split="train")
    assert w.n_windows == 6  # T - L - P + 1


def test_nonoverlapping_stride():
    ds = single_split(np.arange(20.0).reshape(20, 1))
    w = make_windows(ds, L=3, P=2, split="train", stride=5)
    assert w.n_windows == 4
    assert np.array_equal(w.starts, [0, 5, 10, 15])


def test_exact_fit_single_window():
    ds = single_split(np.arange(5.0).reshape(5, 1))
    w = make_windows(ds, L=3, P=2, split="train")
    assert w.n_windows == 1
    assert np.array_equal(w.inputs[0, :, 0], [0, 1, 2])
    assert np.array_equal(w.targets[0, :, 0], [3, 4])


def test_split_too_short():
    ds = single_split(np.arange(4.0).reshape(4, 1))
    with pytest.raises(DataError, match="too short"):
        make_windows(ds, L=3, P=2, split="train")


def test_windows_never_straddle_splits():
    ds = Dataset(values=np.arange(100.0).reshape(100, 1), split_fractions=(0.6, 0.2, 0.2))
    train = make_windows(ds, L=5, P=3, split="train")
    val = make_windows(ds, L=5, P=3, split="val")
    test = make_windows(ds, L=5, P=3, split="test")
    assert train.targets.max() < 60  # strictly inside the train segment
    assert val.inputs.min() >= 60 and val.targets.max() < 80
    assert test.inputs.min() >= 80


@settings(max_examples=50, deadline=None)
@given(
    t=st.integers(40, 200),
    L=st.integers(1, 10),
    P=st.integers(1, 8),
    f=st.sampled_from([(0.6, 0.2, 0.2), (0.7, 0.1, 0.2), (0.5, 0.25, 0.25)]),
)
def test_no_leakage_any_split_config(t, L, P, f):
    ds = Dataset(values=np.arange(float(t)).reshape(t, 1), split_fractions=f)
    lo_test, _ = ds.split_bounds("test")
    try:
        train = make_windows(ds, L, P, "train")
    except DataError:
        return
    # every target index of every training window precedes the test split
    assert train.targets.max() < lo_test


# -- standardization -----------------------------------------------------------


def test_standardize_hand_case():
    x = np.array([[0.0], [2.0]])
    mean, std = zscore_stats(x, axis=0)
    assert np.array_equal(((x - mean) / std)[:, 0], [-1.0, 1.0])
    assert mean[0, 0] == 1.0 and std[0, 0] == 1.0


def test_constant_series_unit_scale():
    x = np.full((10, 2), 3.7)
    mean, std = zscore_stats(x, axis=0)
    z = (x - mean) / std
    assert np.array_equal(std, np.ones((1, 2)))
    assert np.allclose(z, 0.0)
    assert np.array_equal(z * std + mean, x)


def test_roundtrip_identity(rng):
    x = rng.normal(loc=5, scale=3, size=(50, 4))
    for axis, kept in ((0, (1, 4)), (1, (50, 1))):
        mean, std = zscore_stats(x, axis=axis)
        assert mean.shape == std.shape == kept
        assert np.abs((x - mean) / std * std + mean - x).max() < 1e-12
