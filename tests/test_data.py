"""CSV loading, normalization and stratified fold planning."""
import re

import numpy as np
import pytest

from fuzzykd.data import (CsvParseError, Dataset, load_bundled, load_csv,
                          normalize, stratified_folds)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_categorical_label_first_appearance_order(self, tmp_path):
        ds = load_csv(write(tmp_path, "1,2,A\n3,4,B\n5,6,A\n"))
        np.testing.assert_array_equal(ds.X, [[1, 2], [3, 4], [5, 6]])
        np.testing.assert_array_equal(ds.y, [0, 1, 0])
        assert ds.class_names == ["A", "B"]

    def test_numeric_labels_sorted(self, tmp_path):
        ds = load_csv(write(tmp_path, "1,3\n2,1\n3,2\n"))
        np.testing.assert_array_equal(ds.y, [2, 0, 1])

    def test_header_captured(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,b,cls\n1,2,0\n3,4,1\n"), header=True)
        assert ds.feature_names == ["a", "b"]
        assert ds.X.shape == (2, 2)

    def test_categorical_feature_column(self, tmp_path):
        ds = load_csv(write(tmp_path, "red,1,0\nblue,2,1\nred,3,0\n"))
        np.testing.assert_array_equal(ds.X[:, 0], [0, 1, 0])

    def test_label_column_selectable(self, tmp_path):
        ds = load_csv(write(tmp_path, "0,1,2\n1,3,4\n"), label_col=0)
        np.testing.assert_array_equal(ds.X, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(ds.y, [0, 1])

    @pytest.mark.parametrize("col", [2, -3])
    def test_label_column_at_either_end_accepted(self, tmp_path, col):
        ds = load_csv(write(tmp_path, "0,1,2\n1,3,4\n"), label_col=col)
        np.testing.assert_array_equal(ds.X, [[0, 1], [1, 3]] if col == 2
                                      else [[1, 2], [3, 4]])
        np.testing.assert_array_equal(ds.y, [0, 1])

    @pytest.mark.parametrize("col", [3, 7, -4])
    def test_label_column_out_of_range_rejected(self, tmp_path, col):
        path = write(tmp_path, "0,1,2\n1,3,4\n")
        with pytest.raises(CsvParseError, match=re.escape(
                f"{path}: label column {col} is out of range for 3 columns")):
            load_csv(path, label_col=col)

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfsepal,width,cls\n"
                         b"5.1,3.5,A\n4.9,3.0,A\n5.1,3.8,B\n6.0,2.2,B\n")
        assert path.read_bytes()[:3] == b"\xef\xbb\xbf"
        ds = load_csv(path, header=True)
        assert ds.feature_names == ["sepal", "width"]
        np.testing.assert_array_equal(ds.X[:, 0], [5.1, 4.9, 5.1, 6.0])
        path.write_bytes(b"\xef\xbb\xbf5.1,3.5,A\n4.9,3.0,A\n"
                         b"5.1,3.8,B\n6.0,2.2,B\n")
        np.testing.assert_array_equal(load_csv(path).X[:, 0],
                                      [5.1, 4.9, 5.1, 6.0])

    def test_ragged_row_names_the_row(self, tmp_path):
        with pytest.raises(CsvParseError, match="row 2"):
            load_csv(write(tmp_path, "1,2,0\n1,0\n3,4,1\n"))

    def test_missing_cell_located(self, tmp_path):
        with pytest.raises(CsvParseError, match="row 2, column 2"):
            load_csv(write(tmp_path, "1,2,0\n1,,1\n"))

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity",
                                      " INF "])
    @pytest.mark.parametrize("text,where", [
        ("1,2,0\n3,{},1\n", "row 2, column 2"),
        ("1,2,0\n3,4,{}\n", "row 2, column 3"),
    ])
    def test_non_finite_cell_located(self, tmp_path, cell, text, where):
        with pytest.raises(CsvParseError, match=f"non-finite.*{where}"):
            load_csv(write(tmp_path, text.format(cell)))

    def test_non_finite_text_in_categorical_column_kept(self, tmp_path):
        ds = load_csv(write(tmp_path, "nan,1,A\nred,2,nan\nnan,3,A\n"))
        np.testing.assert_array_equal(ds.X[:, 0], [0, 1, 0])
        assert ds.class_names == ["A", "nan"]

    def test_text_in_numeric_column_located(self, tmp_path):
        # a '?' for a missing value would be coded with the numbers,
        # turning 0.0, 3.0, 2.0, ?, 0.0 into 0, 1, 2, 3, 0
        path = write(tmp_path, "1,2,0.0,0\n2,3,3.0,1\n3,4,2.0,0\n"
                               "4,5,?,1\n5,6,0.0,0\n")
        with pytest.raises(CsvParseError, match=re.escape(
                f"{path}: non-numeric value '?' at row 4, column 3 of a "
                "numeric column")):
            load_csv(path)

    def test_mixed_label_column_kept(self, tmp_path):
        ds = load_csv(write(tmp_path, "1,A\n2,3\n3,A\n"))
        np.testing.assert_array_equal(ds.y, [0, 1, 0])
        assert ds.class_names == ["A", "3"]

    def test_unparseable_text_located(self, tmp_path):
        # one quoted cell over the csv module's default 131072-character
        # field limit, on the file's second line
        big = '"' + "x" * 131_073 + '"'
        path = write(tmp_path, f"1,2,0\n3,{big},1\n5,6,0\n")
        with pytest.raises(CsvParseError,
                           match=r"data\.csv: line 2: field larger than "
                                 r"field limit"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(CsvParseError, match="no data"):
            load_csv(write(tmp_path, "\n"))

    def test_header_only_file_rejected(self, tmp_path):
        with pytest.raises(CsvParseError, match=r"data\.csv: no data rows "
                                                r"after the header"):
            load_csv(write(tmp_path, "a,b,label\n"), header=True)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (10, 3))
        y = rng.integers(0, 2, 10)
        lines = [",".join(repr(float(v)) for v in row) + f",{c}"
                 for row, c in zip(X, y)]
        ds = load_csv(write(tmp_path, "\n".join(lines) + "\n"))
        np.testing.assert_allclose(ds.X, X, atol=1e-12)
        np.testing.assert_array_equal(ds.y, y)


class TestDataset:
    def test_label_range_checked(self):
        with pytest.raises(ValueError, match=r"class index 3 at row 2 is "
                                             r"outside 0\.\.1 for 2 classes"):
            Dataset(np.zeros((2, 1)), np.array([0, 3]), 2)

    def test_fractional_label_rejected(self):
        # an int cast would truncate these silently to [0, 1, 0, 1]
        with pytest.raises(ValueError, match=r"class index 0\.5 at row 1 "):
            Dataset(np.zeros((4, 1)), [0.5, 1.7, 0.2, 1.9], 2)

    def test_integral_float_labels_accepted(self):
        ds = Dataset(np.zeros((3, 1)), [0.0, 1.0, 1.0], 2)
        np.testing.assert_array_equal(ds.y, [0, 1, 1])
        assert ds.y.dtype.kind == "i"

    def test_zero_row_x_rejected(self):
        with pytest.raises(ValueError, match="X has no rows"):
            Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 2)

    def test_length_mismatch_checked(self):
        with pytest.raises(ValueError, match="sample count"):
            Dataset(np.zeros((2, 1)), np.array([0]), 2)

    def test_float_class_count_rejected(self):
        with pytest.raises(ValueError, match=r"n_classes must be an integer "
                                             r">= 1, got 2\.0"):
            Dataset(np.zeros((20, 2)), [0, 1] * 10, 2.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_located(self, value):
        X = np.zeros((3, 4))
        X[1, 2] = value
        with pytest.raises(ValueError, match="non-finite.*row 2, column 3"):
            Dataset(X, np.array([0, 1, 0]), 2)


class TestNormalize:
    def test_min_max_scaling(self):
        out, _, params = normalize(np.array([[2.0], [4.0], [6.0]]))
        np.testing.assert_allclose(out, [[0.0], [0.5], [1.0]])
        np.testing.assert_array_equal(params, [[2.0, 6.0]])

    def test_constant_feature_maps_to_zero(self):
        out, _, _ = normalize(np.array([[5.0], [5.0], [5.0]]))
        np.testing.assert_array_equal(out, [[0.0], [0.0], [0.0]])

    def test_out_of_range_test_value_clamped(self):
        _, applied, _ = normalize(np.array([[2.0], [6.0]]),
                                  np.array([[8.0], [0.0]]))
        np.testing.assert_array_equal(applied, [[1.0], [0.0]])

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            normalize(np.empty((0, 2)))

    def test_apply_feature_count_checked(self):
        with pytest.raises(ValueError, match="feature count differs"):
            normalize(np.zeros((3, 2)), np.zeros((1, 3)))


class TestStratifiedFolds:
    def test_two_class_two_fold_balance(self):
        plan = stratified_folds([0, 0, 1, 1], 2, seed=0)
        y = np.array([0, 0, 1, 1])
        for fold in range(2):
            _, test = plan.split(fold)
            assert sorted(y[test]) == [0, 1]

    def test_deterministic_per_seed(self):
        y = np.random.default_rng(0).integers(0, 3, 60)
        a = stratified_folds(y, 5, seed=4)
        b = stratified_folds(y, 5, seed=4)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_iris_shape_counts(self):
        y = np.repeat([0, 1, 2], 50)
        plan = stratified_folds(y, 10, seed=1)
        for fold in range(10):
            _, test = plan.split(fold)
            counts = np.bincount(y[test], minlength=3)
            np.testing.assert_array_equal(counts, [5, 5, 5])

    def test_folds_partition_the_indices(self):
        y = np.random.default_rng(2).integers(0, 4, 83)
        plan = stratified_folds(y, 7, seed=2)
        seen = np.concatenate([plan.split(f)[1] for f in range(7)])
        assert sorted(seen) == list(range(83))

    def test_per_class_counts_within_one(self):
        y = np.random.default_rng(3).integers(0, 3, 71)
        plan = stratified_folds(y, 10, seed=3)
        for cls in range(3):
            counts = [int(((plan.assignments == f) & (y == cls)).sum())
                      for f in range(10)]
            assert max(counts) - min(counts) <= 1

    def test_too_few_folds_rejected(self):
        with pytest.raises(ValueError, match="folds"):
            stratified_folds([0, 1], 1)

    def test_float_fold_count_rejected(self):
        with pytest.raises(ValueError, match=r"folds must be an integer "
                                             r">= 2, got 2\.0"):
            stratified_folds([0, 1, 0, 1], 2.0)

    def test_more_folds_than_samples_rejected(self):
        with pytest.raises(ValueError, match="cannot split 6 samples into "
                                             "10 folds"):
            stratified_folds([0, 0, 0, 1, 1, 1], 10)

    def test_one_sample_per_fold_accepted(self):
        plan = stratified_folds([0, 0, 0, 1, 1, 1], 6, seed=0)
        assert sorted(plan.assignments) == list(range(6))

    def test_non_integer_labels_are_distinct_classes(self):
        # cut to integers, 0.2 and 0.7 would both be class 0
        y = np.array([0.2] * 3 + [0.7] * 3)
        plan = stratified_folds(y, 3, seed=0)
        for fold in range(3):
            _, test = plan.split(fold)
            assert sorted(y[test]) == [0.2, 0.7]

    @pytest.mark.parametrize("fold", [3, -1, 1.5])
    def test_fold_outside_the_plan_rejected(self, fold):
        plan = stratified_folds([0, 0, 0, 1, 1, 1], 3, seed=0)
        with pytest.raises(ValueError, match=re.escape(
                f"fold must be an integer in 0..2, got {fold}")):
            plan.split(fold)


class TestBundledDatasets:
    @pytest.mark.parametrize("name,n,m,c", [("iris", 150, 4, 3),
                                            ("wine", 178, 13, 3),
                                            ("seeds_shaped", 210, 7, 3)])
    def test_shapes(self, name, n, m, c):
        ds = load_bundled(name)
        assert ds.X.shape == (n, m)
        assert ds.y.size == n
        assert ds.n_classes == c
        assert np.bincount(ds.y).min() > 0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="bundled"):
            load_bundled("nope")
