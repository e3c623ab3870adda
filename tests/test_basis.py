"""Consequent basis expansion and the stacked design matrix."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzykd.basis import (basis_adjoint, basis_apply, basis_dim,
                           basis_labels, expand_basis, expand_matrix,
                           quadratic_map, quadratic_monomials,
                           stack_design_matrix)
from fuzzykd.rules import build_rule_base, firing_strengths
from fuzzykd.teacher import fit_teacher, predict_teacher


class TestBasisDim:
    @pytest.mark.parametrize("m", [1, 2, 5, 13])
    def test_closed_forms(self, m):
        assert basis_dim(0, m) == 1
        assert basis_dim(1, m) == m + 1
        assert basis_dim(2, m) == 1 + m * (m + 1)
        assert basis_dim(3, m) == 1 + m * (1 + m * (m + 1))

    @pytest.mark.parametrize("order", [-1, 4, 10])
    def test_order_out_of_range(self, order):
        with pytest.raises(ValueError, match="order"):
            basis_dim(order, 3)

    @pytest.mark.parametrize("order", [1.0, 1.5, "1"])
    def test_non_integral_order_rejected(self, order):
        # 1.0 in range(4) holds, so a range test alone lets 1.0 through
        with pytest.raises(ValueError, match=f"order must be an integer in "
                                             f"0..3, got {order}"):
            basis_dim(order, 3)


class TestExpandBasis:
    def test_order_zero_is_constant(self):
        np.testing.assert_array_equal(expand_basis([3.0, 4.0], 0), [1.0])

    def test_order_one_prepends_one(self):
        np.testing.assert_array_equal(expand_basis([2.0], 1), [1.0, 2.0])

    def test_order_two_scalar(self):
        np.testing.assert_array_equal(expand_basis([2.0], 2), [1.0, 2.0, 4.0])

    def test_order_two_pair_with_redundant_cross_term(self):
        a, b = 1.7, -0.3
        expected = [1, a, a * a, a * b, b, a * b, b * b]
        np.testing.assert_allclose(expand_basis([a, b], 2), expected)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError, match="order"):
            expand_basis([1.0], 4)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 3), st.integers(0, 1000))
    def test_length_matches_dim(self, m, order, seed):
        x = np.random.default_rng(seed).normal(size=m)
        assert expand_basis(x, order).size == basis_dim(order, m)

    def test_matrix_matches_per_row(self):
        X = np.random.default_rng(0).normal(size=(6, 3))
        for order in range(4):
            B = expand_matrix(X, order)
            for i in range(6):
                np.testing.assert_allclose(B[i], expand_basis(X[i], order))


class TestHornerProducts:
    """basis_apply and basis_adjoint against products with the full basis."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 3), st.integers(1, 5), st.integers(1, 4),
           st.integers(0, 40), st.integers(0, 10_000))
    def test_match_full_basis_products(self, order, m, k, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, (n, m))
        B = expand_matrix(X, order)
        Q = rng.normal(size=(basis_dim(order, m), k))
        W = rng.normal(size=(n, k))
        got = basis_apply(X, Q, order)
        assert got.shape == (n, k)
        np.testing.assert_allclose(got, B @ Q, rtol=1e-10, atol=1e-10)
        got = basis_adjoint(X, W, order)
        assert got.shape == Q.shape
        np.testing.assert_allclose(got, B.T @ W, rtol=1e-10, atol=1e-10)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError, match="order"):
            basis_apply(np.ones((2, 1)), np.ones((5, 1)), 4)
        with pytest.raises(ValueError, match="order"):
            basis_adjoint(np.ones((2, 1)), np.ones((2, 1)), -1)


def sorted_factors(label: str) -> tuple[str, ...]:
    return tuple(sorted(f for f in label.split("*") if f != "1"))


class TestQuadraticMap:
    """The order-2 basis's columns against its distinct monomials."""

    @pytest.mark.parametrize("m", [1, 2, 4, 7, 13])
    def test_copies_share_sorted_factors(self, m):
        qmap = quadratic_map(m)
        labels = basis_labels(2, m)
        assert qmap.of_column.size == len(labels) == basis_dim(2, m)
        counts = np.bincount(qmap.of_column)
        assert counts.size == 1 + m + m * (m + 1) // 2
        assert counts.min() == 1 and counts.max() <= 2
        factors = {}
        for label, mono in zip(labels, qmap.of_column):
            factors.setdefault(mono, set()).add(sorted_factors(label))
        assert all(len(f) == 1 for f in factors.values())
        assert len({f.pop() for f in factors.values()}) == counts.size
        np.testing.assert_array_equal(qmap.of_column[qmap.first],
                                      np.arange(counts.size))
        np.testing.assert_array_equal(qmap.of_column[qmap.copies],
                                      qmap.copy_of)
        assert qmap.first.size + qmap.copies.size == len(labels)

    def test_map_is_shared_read_only(self):
        qmap = quadratic_map(3)
        assert quadratic_map(3) is qmap
        with pytest.raises(ValueError):
            qmap.of_column[0] = 1

    @pytest.mark.parametrize("m", [1, 3, 13])
    def test_monomials_gather_to_the_basis(self, m):
        X = np.random.default_rng(m).uniform(-2, 2, (9, m))
        np.testing.assert_array_equal(
            quadratic_monomials(X)[:, quadratic_map(m).of_column],
            expand_matrix(X, 2))

    @pytest.mark.parametrize("m", [2, 5])
    def test_adjoint_rows_of_swapped_factors_are_equal(self, m):
        # x_k*x_i*x_j and x_k*x_j*x_i differ only in the order-2 factor
        rng = np.random.default_rng(m)
        X, W = rng.uniform(-2, 2, (20, m)), rng.normal(size=(20, 3))
        got = basis_adjoint(X, W, 3)
        rows = {}
        for label, row in zip(basis_labels(3, m), got):
            head, _, tail = label.partition("*")
            rows.setdefault((head, sorted_factors(tail)), []).append(row)
        assert max(len(r) for r in rows.values()) == 2
        for same in rows.values():
            np.testing.assert_array_equal(same[0], same[-1])


class TestBasisLabels:
    def test_order_one_names(self):
        assert basis_labels(1, 2) == ["1", "x1", "x2"]

    def test_labels_align_with_values(self):
        x = np.array([2.0, 3.0])
        labels = basis_labels(2, 2)
        values = expand_basis(x, 2)
        env = {"x1": 2.0, "x2": 3.0}
        for label, value in zip(labels, values):
            factors = [1.0 if f == "1" else env[f] for f in label.split("*")]
            assert value == pytest.approx(np.prod(factors))


class TestStackDesignMatrix:
    def test_single_rule_weight_one(self):
        row = stack_design_matrix(np.array([[1.0]]), np.array([[2.0]]), 1)
        np.testing.assert_array_equal(row, [[1.0, 2.0]])

    def test_order_zero_reproduces_firing(self):
        fm = np.array([[0.5, 0.5]])
        row = stack_design_matrix(fm, np.array([[0.3]]), 0)
        np.testing.assert_array_equal(row, [[0.5, 0.5]])

    def test_hand_weighted_two_rules(self):
        fm = np.array([[0.6225, 0.3775]])
        row = stack_design_matrix(fm, np.array([[0.25]]), 1)
        np.testing.assert_allclose(
            row, [[0.6225, 0.155625, 0.3775, 0.094375]], atol=1e-12)

    def test_one_hot_firing_isolates_rule_block(self):
        X = np.random.default_rng(1).uniform(0, 1, (4, 3))
        fm = np.zeros((4, 3))
        fm[np.arange(4), [0, 2, 1, 2]] = 1.0
        d = basis_dim(2, 3)
        stacked = stack_design_matrix(fm, X, 2)
        for n, hot in enumerate([0, 2, 1, 2]):
            block = stacked[n, hot * d:(hot + 1) * d]
            np.testing.assert_allclose(block, expand_basis(X[n], 2))
            rest = np.delete(stacked[n], np.arange(hot * d, (hot + 1) * d))
            assert (rest == 0).all()

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            stack_design_matrix(np.ones((3, 2)), np.ones((4, 2)), 1)

    def test_cubic_fit_recovers_stacked_low_order_targets(self):
        # data generated by a rule-weighted mix of low-order polynomials is
        # inside the order-3 model class, so the ridge fit reproduces it
        rng = np.random.default_rng(5)
        rb = build_rule_base(3, 2, width=0.5, seed=9)
        X = rng.uniform(0, 1, (120, 2))
        fm = firing_strengths(rb, X)
        y = (fm[:, 0] * (0.5 + X[:, 0]) +
             fm[:, 1] * (X[:, 0] * X[:, 1]) +
             fm[:, 2] * (1.0 - 2.0 * X[:, 1] ** 2))
        tm = fit_teacher(rb, X, y, reg=1e9)
        np.testing.assert_allclose(predict_teacher(tm, X), y, atol=1e-5)
