"""Closed-form ridge fit of the high-order teacher."""
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import fuzzykd.basis
import fuzzykd.teacher
from fuzzykd.basis import basis_dim, stack_design_matrix
from fuzzykd.rules import (RuleBase, TSKModel, build_rule_base,
                           firing_strengths)
from fuzzykd.teacher import fit_teacher, predict_teacher, ridge_solve


def brute_force_ridge(A, y, ridge):
    """Independent oracle: direct normal-equations solve via numpy."""
    d = A.shape[1]
    return np.linalg.solve(ridge * np.eye(d) + A.T @ A, A.T @ y)


class TestRidgeSolve:
    def test_scalar_system(self):
        # q = x*y / (x^2 + 1/L) with x = y = 1, L = 100
        q = ridge_solve(np.array([[1.0]]), np.array([1.0]), 0.01)
        assert q[0] == pytest.approx(1.0 / 1.01, abs=1e-12)

    def test_zero_target_gives_zero(self):
        A = np.random.default_rng(0).normal(size=(10, 4))
        q = ridge_solve(A, np.zeros(10), 0.01)
        np.testing.assert_allclose(q, 0.0, atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(2, 51))
            d = int(rng.integers(1, 41))
            A = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            got = ridge_solve(A, y, 0.01)
            want = brute_force_ridge(A, y, 0.01)
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_wide_system_matches_oracle(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(5, 12))  # n < d: a singular A^T A, still primal
        y = rng.normal(size=5)
        wide = ridge_solve(A, y, 0.01)
        primal = brute_force_ridge(A, y, 0.01)
        np.testing.assert_allclose(wide, primal, atol=1e-7)


class TestFitTeacher:
    def test_single_sample_order_zero(self):
        rb = RuleBase(np.array([[0.5]]), np.array([[0.5]]))
        tm = fit_teacher(rb, np.array([[0.5]]), np.array([1.0]), reg=100.0,
                         order=0)
        assert tm.coeffs[:, 0][0] == pytest.approx(1.0 / 1.01, abs=1e-12)

    def test_zero_targets_give_zero_coeffs(self):
        rb = build_rule_base(3, 2, seed=0)
        X = np.random.default_rng(0).uniform(0, 1, (15, 2))
        tm = fit_teacher(rb, X, np.zeros(15), reg=100.0)
        np.testing.assert_allclose(tm.coeffs, 0.0, atol=1e-12)

    def test_matches_design_matrix_oracle(self):
        rng = np.random.default_rng(3)
        rb = build_rule_base(2, 5, seed=3)
        X = rng.uniform(0, 1, (20, 5))
        y = rng.normal(size=20)
        tm = fit_teacher(rb, X, y, reg=100.0)
        Xg = stack_design_matrix(firing_strengths(rb, X), X, 3)
        want = brute_force_ridge(Xg, y, 0.01)
        np.testing.assert_allclose(tm.coeffs[:, 0], want, atol=1e-8)

    def test_ridge_optimality_against_perturbations(self):
        rng = np.random.default_rng(4)
        rb = build_rule_base(3, 4, seed=4)
        X = rng.uniform(0, 1, (50, 4))
        y = rng.normal(size=50)
        tm = fit_teacher(rb, X, y, reg=100.0)
        Xg = stack_design_matrix(firing_strengths(rb, X), X, 3)

        def objective(q):
            return 0.01 * q @ q + np.sum((Xg @ q - y) ** 2)

        base = objective(tm.coeffs[:, 0])
        for _ in range(100):
            delta = rng.normal(size=tm.coeffs.size)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert objective(tm.coeffs[:, 0] + delta) >= base

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        rb = build_rule_base(2, 3, seed=5)
        X = rng.uniform(0, 1, (12, 3))
        y = rng.normal(size=12)
        a = fit_teacher(rb, X, y, reg=100.0)
        b = fit_teacher(rb, X, y, reg=100.0)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_empty_dataset_rejected(self):
        rb = build_rule_base(2, 3, seed=0)
        with pytest.raises(ValueError, match="empty"):
            fit_teacher(rb, np.empty((0, 3)), np.empty(0), reg=100.0)

    def test_non_positive_reg_rejected(self):
        rb = build_rule_base(1, 1, seed=0)
        with pytest.raises(ValueError):
            fit_teacher(rb, np.array([[0.5]]), np.array([1.0]), reg=0.0)

    def test_infinite_reg_rejected_before_any_work(self, monkeypatch):
        # L = inf would fit with ridge 1/L = 0; nothing is computed first
        def no_firing(*args):
            raise AssertionError("firing strengths computed")

        monkeypatch.setattr(fuzzykd.teacher, "firing_strengths", no_firing)
        rb = build_rule_base(1, 1, seed=0)
        with pytest.raises(ValueError, match="regularization parameter must "
                                             "be finite"):
            fit_teacher(rb, np.array([[0.5]]), np.array([1.0]), reg=np.inf)

    def test_target_length_checked(self):
        rb = build_rule_base(1, 1, seed=0)
        with pytest.raises(ValueError, match="disagree on the sample count"):
            fit_teacher(rb, np.array([[0.2], [0.8]]), np.array([1.0]),
                        reg=100.0)

    @pytest.mark.parametrize("n,bad", [(30, np.nan), (30, np.inf),
                                       (600, np.nan), (600, -np.inf)],
                             ids=["dual-nan", "dual-inf", "primal-nan",
                                  "primal-inf"])
    def test_non_finite_target_located_before_firing(self, monkeypatch, n,
                                                     bad):
        # K*D = 2 * D(3, 3) = 40: 30 rows take the dual path, 600 the
        # primal; neither firing strengths nor a Gram matrix is built
        def refuse(*args, **kwargs):
            raise AssertionError("firing strengths computed")

        monkeypatch.setattr(fuzzykd.teacher, "firing_strengths", refuse)
        rng = np.random.default_rng(15)
        rb = build_rule_base(2, 3, seed=15)
        y = rng.normal(size=n)
        y[n - 4] = bad
        with pytest.raises(ValueError, match=f"non-finite value {bad} in "
                                             f"y_enc at row {n - 3}, "
                                             "column 1"):
            fit_teacher(rb, rng.uniform(0, 1, (n, 3)), y, reg=100.0)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_dual_shapes_match_design_matrix_oracle(self, order):
        # N < K*D: the fit goes through the kernel, never the design matrix
        rng = np.random.default_rng(10 + order)
        shapes = [(1, 1, 1), (1, 3, 1), (2, 1, 1), (2, 1, 3)]
        shapes += [(int(rng.integers(1, 5)), int(rng.integers(1, 6)), None)
                   for _ in range(12)]
        for k, m, n in shapes:
            d = k * basis_dim(order, m)
            if d < 2:
                continue  # no N >= 1 lies below K*D
            n = int(rng.integers(1, d)) if n is None else min(n, d - 1)
            rb = build_rule_base(k, m, seed=int(rng.integers(1000)))
            X = rng.uniform(0, 1, (n, m))
            y = rng.normal(size=n)
            tm = fit_teacher(rb, X, y, reg=100.0, order=order)
            Xg = stack_design_matrix(firing_strengths(rb, X), X, order)
            want = brute_force_ridge(Xg, y, 0.01)
            np.testing.assert_allclose(tm.coeffs[:, 0], want, atol=1e-8)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_blocked_dual_build_matches_oracle_at_block_edges(self, order):
        # one row short of, exactly and one row past a block of the dual
        # Gram build, then three blocks with a partial last one
        block = fuzzykd.teacher._BLOCK_ROWS
        rng = np.random.default_rng(30 + order)
        m = 4
        for n in (block - 1, block, block + 1, 2 * block + 44):
            k = n // basis_dim(order, m) + 1
            assert n < k * basis_dim(order, m)  # the dual path
            rb = build_rule_base(k, m, seed=order)
            X = rng.uniform(0, 1, (n, m))
            y = rng.normal(size=n)
            tm = fit_teacher(rb, X, y, reg=100.0, order=order)
            Xg = stack_design_matrix(firing_strengths(rb, X), X, order)
            want = brute_force_ridge(Xg, y, 0.01)
            np.testing.assert_allclose(tm.coeffs[:, 0], want, atol=1e-8)

    def test_dual_fit_holds_one_n_by_n_array(self):
        # the Gram matrix is built and factored in one 8 N^2-byte buffer
        n = 1000
        rng = np.random.default_rng(14)
        rb = build_rule_base(8, 13, seed=14)  # K*D = 19,040 > n
        X = rng.uniform(0, 1, (n, 13))
        y = rng.normal(size=n)
        tracemalloc.start()
        try:
            fit_teacher(rb, X, y, reg=100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n

    def test_dual_fit_and_prediction_skip_design_matrix(self, monkeypatch):
        # neither the design matrix nor the full order-3 basis is built;
        # each Horner step runs on the distinct monomials of the min-index
        # map, built once per step
        expand = fuzzykd.basis.expand_matrix
        horner_rows, built = fuzzykd.basis._horner_rows, []

        def refuse(*args, **kwargs):
            raise AssertionError("design matrix built")

        def below_order_3(X, order):
            if order >= 3:
                raise AssertionError(f"order-{order} basis built")
            built.append(f"order-{order} basis")
            return expand(X, order)

        def distinct(XT, order, c):
            built.append(f"order-{order} monomials")
            return horner_rows(XT, order, c)

        monkeypatch.setattr(fuzzykd.teacher, "stack_design_matrix", refuse)
        monkeypatch.setattr(fuzzykd.basis, "expand_matrix", below_order_3)
        monkeypatch.setattr(fuzzykd.basis, "_horner_rows", distinct)
        rng = np.random.default_rng(11)
        rb = build_rule_base(3, 4, seed=11)
        X = rng.uniform(0, 1, (30, 4))  # 30 < 3 * D(3, 4) = 255
        tm = fit_teacher(rb, X, rng.normal(size=30), reg=100.0)
        assert tm.order == 3 and built == ["order-3 monomials"]
        assert predict_teacher(tm, X).shape == (30,)
        assert built == ["order-3 monomials"] * 2

    @pytest.mark.parametrize("n", [30, 600])  # dual, then primal shape
    def test_lu_fallback_matches_cholesky(self, monkeypatch, n):
        rng = np.random.default_rng(12)
        rb = build_rule_base(2, 3, seed=12)  # K*D = 2 * D(3, 3) = 40
        X = rng.uniform(0, 1, (n, 3))
        y = rng.normal(size=n)
        want = fit_teacher(rb, X, y, reg=100.0).coeffs
        solve, calls = scipy.linalg.solve, []

        def not_spd(*args, **kwargs):
            raise scipy.linalg.LinAlgError("not positive definite")

        def counted_solve(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", not_spd)
        monkeypatch.setattr(scipy.linalg, "solve", counted_solve)
        got = fit_teacher(rb, X, y, reg=100.0).coeffs
        assert calls == [1]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n, k, m", [(30, 2, 3), (300, 4, 4),
                                         (600, 2, 3)])
    def test_fallback_rebuilds_overwritten_matrix(self, monkeypatch, n, k,
                                                  m):
        # a factorization that fails in place leaves its input spoiled; the
        # fallback must not solve with it. K*D is 80, 340 and 80: dual,
        # dual, then primal
        rng = np.random.default_rng(13)
        rb = build_rule_base(k, m, seed=13)
        X = rng.uniform(0, 1, (n, m))
        y = rng.normal(size=n)
        want = fit_teacher(rb, X, y, reg=100.0).coeffs
        calls = []

        def spoil(a, *args, **kwargs):
            calls.append(a.shape)
            a[...] = np.nan
            raise scipy.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(scipy.linalg, "cho_factor", spoil)
        got = fit_teacher(rb, X, y, reg=100.0).coeffs
        assert len(calls) == 1
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


class TestPredictTeacher:
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_matches_design_matrix_on_fresh_rows(self, order):
        rng = np.random.default_rng(20 + order)
        for k, m in [(1, 1), (2, 3), (4, 5)]:
            rb = build_rule_base(k, m, seed=order)
            X = rng.uniform(0, 1, (25, m))
            tm = fit_teacher(rb, X, rng.normal(size=25), reg=100.0,
                             order=order)
            fresh = rng.uniform(0, 1, (9, m))
            want = stack_design_matrix(firing_strengths(rb, fresh), fresh,
                                       order) @ tm.coeffs[:, 0]
            np.testing.assert_allclose(predict_teacher(tm, fresh), want,
                                       atol=1e-10)

    def test_zero_coeffs_predict_zero(self):
        rb = build_rule_base(2, 2, seed=0)
        X = np.random.default_rng(0).uniform(0, 1, (6, 2))
        tm = fit_teacher(rb, X, np.zeros(6), reg=100.0)
        np.testing.assert_allclose(predict_teacher(tm, X), 0.0, atol=1e-12)

    def test_constant_coefficient_sees_normalized_firing(self):
        # single rule: firing is 1 everywhere, so the constant passes through
        rb = RuleBase(np.array([[0.5]]), np.array([[0.5]]))
        q = np.zeros(4)  # D(3, 1) = 4
        q[0] = 1.0
        tm = TSKModel(rb, q[:, None], 3, np.array([0.0, 1.0]), 100.0)
        X = np.array([[0.1], [0.5], [0.9]])
        np.testing.assert_allclose(predict_teacher(tm, X), 1.0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        rb = build_rule_base(2, 3, seed=0)
        X = np.random.default_rng(0).uniform(0, 1, (5, 3))
        tm = fit_teacher(rb, X, np.zeros(5), reg=100.0)
        with pytest.raises(ValueError):
            predict_teacher(tm, np.zeros((2, 4)))


class TestTeacherModelValidation:
    def test_class_labels_must_increase(self):
        rb = build_rule_base(1, 1, seed=0)
        with pytest.raises(ValueError, match="increasing"):
            TSKModel(rb, np.zeros((4, 1)), 3, np.array([1.0, 0.0]), 100.0)

    def test_coeff_length_checked(self):
        rb = build_rule_base(1, 1, seed=0)
        with pytest.raises(ValueError, match="length"):
            TSKModel(rb, np.zeros((3, 1)), 3, np.array([0.0, 1.0]), 100.0)

    def test_non_finite_coeff_located(self):
        # the coefficients are one column: row i is coefficient i
        rb = build_rule_base(1, 1, seed=0)
        q = np.array([0.0, 1.0, -np.inf, 0.0])
        with pytest.raises(ValueError, match="non-finite value -inf in coeffs "
                                             "at row 3, column 1"):
            TSKModel(rb, q[:, None], 3, np.array([0.0, 1.0]), 100.0)
