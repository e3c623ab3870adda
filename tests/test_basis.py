"""Consequent basis expansion and the stacked design matrix."""
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzykd.basis import (basis_adjoint, basis_dim, expand_matrix,
                           monomial_map, stack_design_matrix, _horner_rows)
from fuzzykd.rules import build_rule_base, firing_strengths
from fuzzykd.teacher import fit_teacher, predict_teacher

from oracles import basis_apply, basis_labels


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
    """The order-n basis of one sample: expand_matrix on one row."""

    def test_order_zero_is_constant(self):
        np.testing.assert_array_equal(expand_matrix([[3.0, 4.0]], 0), [[1.0]])

    def test_order_one_prepends_one(self):
        np.testing.assert_array_equal(expand_matrix([[2.0]], 1), [[1.0, 2.0]])

    def test_order_two_scalar(self):
        np.testing.assert_array_equal(expand_matrix([[2.0]], 2),
                                      [[1.0, 2.0, 4.0]])

    def test_order_two_pair_with_redundant_cross_term(self):
        a, b = 1.7, -0.3
        expected = [[1, a, a * a, a * b, b, a * b, b * b]]
        np.testing.assert_allclose(expand_matrix([[a, b]], 2), expected)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError, match="order"):
            expand_matrix([[1.0]], 4)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 3), st.integers(0, 1000))
    def test_length_matches_dim(self, m, order, seed):
        x = np.random.default_rng(seed).normal(size=m)
        B = expand_matrix(x[None, :], order)
        assert B.shape == (1, basis_dim(order, m))

    def test_matrix_matches_per_row(self):
        X = np.random.default_rng(0).normal(size=(6, 3))
        for order in range(4):
            B = expand_matrix(X, order)
            for i in range(6):
                np.testing.assert_allclose(B[i],
                                           expand_matrix(X[i:i + 1], order)[0])


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


def factor_indices(label: str) -> tuple[int, ...]:
    """The ascending feature indices of a basis label: x2*x1 -> (0, 1)."""
    return tuple(sorted(int(f[1:]) - 1 for f in label.split("*") if f != "1"))


def slot_monomials(order: int, m: int) -> dict[int, set]:
    """The factor indices of the basis columns in each slot of the map."""
    monomials = {}
    for label, slot in zip(basis_labels(order, m),
                           monomial_map(order, m).slot):
        monomials.setdefault(int(slot), set()).add(factor_indices(label))
    return monomials


class TestMonomialMap:
    """The min-index monomial map against the labels of the basis."""

    @pytest.mark.parametrize("m", [1, 2, 4, 7, 13])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_one_slot_per_distinct_monomial(self, order, m):
        mmap = monomial_map(order, m)
        monomials = slot_monomials(order, m)
        # every slot holds one monomial, and no two slots the same one
        assert all(len(mono) == 1 for mono in monomials.values())
        distinct = {mono.pop() for mono in monomials.values()}
        assert len(distinct) == len(monomials) == comb(m + order, order)
        assert sorted(monomials) == list(range(len(monomials)))
        assert mmap.prefix[0] == len(monomials)
        assert () in distinct  # so C(m+n, n) - 1 slots after the constant

    @pytest.mark.parametrize("m", [1, 2, 4, 7, 13])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_prefix_is_the_monomials_with_indices_at_least_i(self, order, m):
        prefix = monomial_map(order, m).prefix
        mono = {s: f.pop() for s, f in slot_monomials(order, m).items()}
        low = {s: f.pop() for s, f in slot_monomials(order - 1, m).items()}
        assert mono[0] == () and prefix[m] == 1
        for i in range(m):
            head = {mono[s] for s in range(prefix[i])}
            assert head == {u for u in mono.values()
                            if min(u, default=m) >= i}
            # group i: x_i times the lower map's slots, in their order
            for s in range(prefix[i + 1], prefix[i]):
                assert mono[s] == (i,) + low[s - prefix[i + 1]]

    def test_map_is_shared_read_only(self):
        mmap = monomial_map(3, 4)
        assert monomial_map(3, 4) is mmap
        assert isinstance(mmap.prefix, tuple)
        for a in mmap[1:]:
            with pytest.raises(ValueError):
                a[0] = 1

    @pytest.mark.parametrize("m", [1, 3, 13])
    def test_monomials_gather_to_the_basis(self, m):
        # with more columns than any group has slots, the Horner step forms
        # every monomial once; the map's columns of them are the basis
        X = np.random.default_rng(m).uniform(-2, 2, (9, m))
        for order in (2, 3):
            mmap = monomial_map(order, m)
            _, M, split = _horner_rows(np.ascontiguousarray(X.T), order,
                                       mmap.prefix[0])
            assert split == 0 and M.shape == (mmap.prefix[0], 9)
            B = expand_matrix(X, order)
            if order == 2:  # one product per monomial: exact
                np.testing.assert_array_equal(M.T[:, mmap.slot], B)
            else:
                np.testing.assert_allclose(M.T[:, mmap.slot], B, rtol=1e-14)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_products_with_thirteen_features_match_full_basis(self, order):
        # m = 13 and K = 8 columns, as a wine teacher's, past the m <= 5
        # of the property test
        rng = np.random.default_rng(13 + order)
        X = rng.uniform(0, 1, (40, 13))
        B = expand_matrix(X, order)
        Q = rng.normal(size=(B.shape[1], 8))
        W = rng.normal(size=(40, 8))
        np.testing.assert_allclose(basis_apply(X, Q, order), B @ Q,
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(basis_adjoint(X, W, order), B.T @ W,
                                   rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("m", [2, 5, 13])
    def test_copies_get_bit_equal_adjoint_rows(self, m):
        # x_i*x_j*x_k appears once per ordering of its factors
        rng = np.random.default_rng(m)
        X, W = rng.uniform(-2, 2, (20, m)), rng.normal(size=(20, 3))
        rows = {}
        for label, row in zip(basis_labels(3, m), basis_adjoint(X, W, 3)):
            rows.setdefault(factor_indices(label), []).append(row)
        assert max(len(r) for r in rows.values()) == (6 if m >= 3 else 3)
        for same in rows.values():
            for row in same[1:]:
                np.testing.assert_array_equal(row, same[0])


class TestBasisLabels:
    """The label oracle the monomial-map tests read, against the basis."""

    def test_order_one_names(self):
        assert basis_labels(1, 2) == ["1", "x1", "x2"]

    def test_labels_align_with_values(self):
        x = np.array([2.0, 3.0])
        labels = basis_labels(2, 2)
        values = expand_matrix(x[None, :], 2)[0]
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
            np.testing.assert_allclose(block, expand_matrix(X[n:n + 1], 2)[0])
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
