"""Tests for the dataset container, seeded RNG, and file I/O."""

import re

import numpy as np
import pytest

from oodshift import LabeledDataset, Rng, load_csv, save_csv, split_train_val
from oodshift.data import ParseError


# ---------------------------------------------------------------------------
# Rng


def test_rng_same_seed_same_stream():
    a, b = Rng(42), Rng(42)
    assert np.array_equal(a.uniform(size=10_000), b.uniform(size=10_000))
    assert np.array_equal(a.normal(size=10_000), b.normal(size=10_000))
    assert np.array_equal(a.integers(0, 100, 10_000), b.integers(0, 100, 10_000))


def test_rng_is_numpy_pcg64_generator():
    # the algorithm is pinned: Rng(s) draws exactly what NumPy's PCG64
    # Generator seeded with s draws, for every method the library uses
    for seed in (0, 7, 2**40 + 3):
        a, b = Rng(seed), np.random.Generator(np.random.PCG64(seed))
        assert np.array_equal(a.integers(0, 100, 50), b.integers(0, 100, 50))
        assert np.array_equal(a.normal(1.0, 2.0, (5, 3)), b.normal(1.0, 2.0, (5, 3)))
        assert np.array_equal(a.uniform(size=50), b.uniform(size=50))
        assert np.array_equal(a.choice(20, size=8, replace=False),
                              b.choice(20, size=8, replace=False))
        assert np.array_equal(a.permutation(30), b.permutation(30))


def test_rng_different_seeds_differ():
    assert not np.array_equal(Rng(0).uniform(size=100), Rng(1).uniform(size=100))


def test_rng_choice_respects_probabilities():
    r = Rng(7)
    draws = r.choice(2, size=20_000, p=[0.8, 0.2])
    assert abs(draws.mean() - 0.2) < 0.01


# ---------------------------------------------------------------------------
# LabeledDataset


def _tiny():
    return LabeledDataset(
        features=np.arange(6.0).reshape(3, 2),
        labels=np.array([0, 1, 0]),
        envs=np.array([0, 0, 1]),
    )


def test_dataset_basic_shape():
    ds = _tiny()
    assert ds.n_rows == 3
    assert ds.n_dims == 2
    assert ds.n_classes == 2


def test_dataset_rejects_bad_env():
    with pytest.raises(ValueError, match="env"):
        LabeledDataset(np.zeros((2, 1)), np.array([0, 0]), np.array([0, 2]))


def test_dataset_rejects_label_out_of_range():
    with pytest.raises(ValueError, match="label"):
        LabeledDataset(
            np.zeros((2, 1)), np.array([0, 3]), np.array([0, 1]), n_classes=2
        )


def test_dataset_rejects_row_count_mismatch():
    with pytest.raises(ValueError, match="row counts"):
        LabeledDataset(np.zeros((3, 1)), np.array([0, 0]), np.array([0, 1, 0]))


def test_dataset_rejects_empty():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((0, 2)), np.array([], dtype=int), np.array([], dtype=int))


def test_dataset_is_immutable():
    ds = _tiny()
    with pytest.raises(ValueError):
        ds.features[0, 0] = 99.0
    with pytest.raises(ValueError):
        ds.labels[0] = 1


def test_dataset_subset_preserves_n_classes():
    ds = _tiny()
    sub = ds.subset(np.array([0, 2]))
    assert sub.n_rows == 2
    assert sub.n_classes == 2


# ---------------------------------------------------------------------------
# CSV I/O


def test_csv_round_trip_full_precision(tmp_path):
    rng = Rng(3)
    ds = LabeledDataset(
        rng.normal(size=(20, 4)),
        rng.integers(0, 3, 20),
        rng.integers(0, 2, 20),
    )
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(ds.features, back.features)  # exact, 17 sig digits
    assert np.array_equal(ds.labels, back.labels)
    assert np.array_equal(ds.envs, back.envs)


def test_csv_three_rows_two_dims(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("env,label,x0,x1\n0,0,1.5,2.5\n0,1,3,4\n1,0,5,6\n")
    ds = load_csv(path)
    assert ds.n_rows == 3
    assert ds.n_dims == 2
    assert list(ds.features[0]) == [1.5, 2.5]


def test_csv_env_out_of_range(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("env,label,x0\n2,0,1.0\n")
    with pytest.raises(ParseError, match=r"line 2.*env out of range"):
        load_csv(path)


def test_csv_empty_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(ParseError, match="no rows"):
        load_csv(path)


def test_csv_header_only(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("env,label,x0\n")
    with pytest.raises(ParseError, match="no rows"):
        load_csv(path)


def test_csv_malformed_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("environment,label,x0\n0,0,1.0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_csv(path)


def test_csv_non_numeric_cell_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("env,label,x0\n0,0,1.0\n0,0,abc\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "-nan", "inf", "-Infinity", "1e400"])
def test_csv_non_finite_cell_names_line(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"env,label,x0,x1\n0,0,1.0,2.0\n1,0,3.0,{cell}\n")
    with pytest.raises(ParseError, match=r"line 3: non-finite cell x1"):
        load_csv(path)


def test_csv_cells_parse_as_python_float(tmp_path):
    cells = ["1_0", " 1.5 ", "-0.0", "4.9e-324", "0.1", "1e308", "+7"]
    path = tmp_path / "d.csv"
    path.write_text("env,label," + ",".join(f"x{i}" for i in range(len(cells)))
                    + "\n0,0," + ",".join(cells) + "\n")
    got = load_csv(path).features[0]
    assert got.tobytes() == np.array([float(c) for c in cells]).tobytes()


@pytest.mark.parametrize("cell", ["0x10", "", "abc"])
def test_csv_unparsable_cell_message(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"env,label,x0\n0,0,{cell}\n")
    want = f"line 2: non-numeric cell (could not convert string to float: '{cell}')"
    with pytest.raises(ParseError, match=re.escape(want)):
        load_csv(path)


def test_csv_inconsistent_width_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("env,label,x0,x1\n0,0,1.0,2.0\n0,0,1.0\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(path)


# ---------------------------------------------------------------------------
# split_train_val


def test_split_sizes_90_10():
    train, val = split_train_val(100, 0.9, Rng(0))
    assert train.shape == (90,)
    assert val.shape == (10,)


def test_split_is_disjoint_partition():
    train, val = split_train_val(50, 0.8, Rng(1))
    assert sorted(np.concatenate([train, val])) == list(range(50))


def test_split_deterministic():
    t1, v1 = split_train_val(30, 0.9, Rng(5))
    t2, v2 = split_train_val(30, 0.9, Rng(5))
    assert np.array_equal(t1, t2)
    assert np.array_equal(v1, v2)


def test_split_empty_validation_raises():
    # ceil(0.9 * n) == n for every n < 10; n = 10 leaves one validation row
    for n in (1, 8, 9):
        with pytest.raises(ValueError, match="validation split is empty"):
            split_train_val(n, 0.9, Rng(0))
    assert split_train_val(10, 0.9, Rng(0))[1].size == 1


def test_split_rejects_bad_frac():
    with pytest.raises(ValueError):
        split_train_val(4, 1.0, Rng(0))
