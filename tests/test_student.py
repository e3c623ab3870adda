"""Gradient-trained first-order student."""
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzykd.data import normalize
from fuzzykd.distill import train_student
from fuzzykd.rules import RuleBase, TSKModel, build_rule_base, predict_outputs
from fuzzykd.student import (TrainConfig, TrainingDiverged,
                             _lbfgs_direction, design_matrix,
                             gradient_descent_batch, init_student,
                             onehot_encode, predict_student)
from fuzzykd.teacher import fit_teacher

from oracles import cross_entropy, softmax


def toy_separable():
    """Four 1-d points, two classes, rules anchored at the class regions."""
    rb = RuleBase(np.array([[0.0], [1.0]]), np.full((2, 1), 0.5))
    X = np.array([[0.0], [0.1], [0.9], [1.0]])
    y = np.array([0, 0, 1, 1])
    return rb, X, y


def blobs(n, seed=0):
    """n rows of three normalized 13-feature Gaussian blobs."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 3
    centers = rng.normal(size=(3, 13)) * 1.5
    X, _, _ = normalize(centers[y] + rng.normal(size=(n, 13)))
    return X, y


def fd_gradient(loss, Q, h=1e-5):
    """Central finite differences of a scalar loss over every Q entry."""
    g = np.zeros_like(Q)
    for i in range(Q.shape[0]):
        for j in range(Q.shape[1]):
            Qp, Qm = Q.copy(), Q.copy()
            Qp[i, j] += h
            Qm[i, j] -= h
            g[i, j] = (loss(Qp) - loss(Qm)) / (2 * h)
    return g


class TestLogitsAndSoftmax:
    def test_zero_coeffs_zero_logits(self):
        sm = init_student(build_rule_base(3, 2, seed=0), 3)
        X = np.random.default_rng(0).uniform(0, 1, (5, 2))
        np.testing.assert_array_equal(predict_outputs(sm, X), np.zeros((5, 3)))

    def test_hand_dot_product(self):
        rb = RuleBase(np.array([[0.5]]), np.array([[0.5]]))
        Q = np.array([[1.0, 0.0], [0.0, 0.0]])
        sm = TSKModel(rb, Q, 1, np.arange(2.0))
        logits = predict_outputs(sm, np.array([[0.5]]))
        np.testing.assert_allclose(logits, [[1.0, 0.0]], atol=1e-12)

    def test_identical_columns_give_uniform_softmax(self):
        rb = build_rule_base(2, 2, seed=1)
        col = np.random.default_rng(1).normal(size=(6, 1))
        sm = TSKModel(rb, np.repeat(col, 3, axis=1), 1, np.arange(3.0))
        X = np.random.default_rng(2).uniform(0, 1, (4, 2))
        p = softmax(predict_outputs(sm, X))
        np.testing.assert_allclose(p, 1.0 / 3.0, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        z = np.random.default_rng(3).normal(scale=50, size=(20, 4))
        np.testing.assert_allclose(softmax(z).sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            softmax(np.zeros((1, 2)), temperature=0.0)


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        Y = onehot_encode([0, 1, 2], 3)
        assert cross_entropy(Y, Y) <= 3 * 1e-11

    def test_uniform_binary(self):
        h = cross_entropy(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
        assert h == pytest.approx(0.693147, abs=1e-6)

    def test_sums_over_samples(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cross_entropy(p, Y) == pytest.approx(1.386294, abs=1e-6)

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            cross_entropy(np.array([[0.9, 0.3]]), np.array([[1.0, 0.0]]))

    def test_rejects_invalid_onehot(self):
        with pytest.raises(ValueError, match="one-hot"):
            cross_entropy(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            cross_entropy(np.array([[0.5, 0.5]]), np.eye(2))


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [dict(lr=0.0), dict(max_epochs=0),
                                        dict(tol=-1.0), dict(max_epochs=2.5),
                                        dict(tol=float("nan")),
                                        dict(lr=float("nan"))])
    def test_invalid_values_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            TrainConfig(**kwargs)

    def test_float_epoch_cap_rejected(self):
        with pytest.raises(ValueError, match=r"max_epochs must be an integer "
                                             r">= 1, got 2\.0"):
            TrainConfig(max_epochs=2.0)


class TestInitStudent:
    def test_zero_default(self):
        sm = init_student(build_rule_base(2, 3, seed=0), 4)
        assert sm.coeffs.shape == (2 * 4, 4)
        assert (sm.coeffs == 0).all()

    def test_non_integral_class_count_rejected(self):
        rb = build_rule_base(2, 3, seed=0)
        with pytest.raises(ValueError, match="n_classes must be an integer "
                                             ">= 2, got 3.0"):
            init_student(rb, 3.0)


class TestOnehotEncode:
    @pytest.mark.parametrize("bad", [-1, 3, 1.7, np.nan],
                             ids=["negative", "C", "fraction", "nan"])
    def test_non_class_label_located(self, bad):
        # unchecked, -1 would set the last column, 3 would be numpy's
        # IndexError and 1.7 would be truncated to 1
        with pytest.raises(ValueError, match=f"class index {bad} at row 2 "
                                             r"is outside 0\.\.2 for 3 "
                                             "classes"):
            onehot_encode([0, bad, 1], 3)

    def test_float_class_count_rejected(self):
        with pytest.raises(ValueError, match=r"n_classes must be an integer "
                                             r">= 1, got 2\.0"):
            onehot_encode([0, 1], 2.0)


class TestTrainStudent:
    def test_separable_toy_set_reaches_full_accuracy(self):
        rb, X, y = toy_separable()
        sm = init_student(rb, 2)
        sm, trace = train_student(sm, X, onehot_encode(y, 2),
                                  TrainConfig(lr=0.01, max_epochs=30))
        assert (predict_student(sm, X) == y).all()
        assert all(np.isfinite(row["total"]) for row in trace)

    def test_single_epoch_step_matches_finite_differences(self):
        rb, X, y = toy_separable()
        sm = init_student(rb, 2)
        Y = onehot_encode(y, 2)
        trained, trace = train_student(sm, X, Y,
                                       TrainConfig(lr=0.01, max_epochs=1))
        assert len(trace) == 1
        Xh = design_matrix(sm, X)

        def loss(Q):
            return cross_entropy(softmax(Xh @ Q), Y)

        g = fd_gradient(loss, sm.coeffs)
        np.testing.assert_allclose(trained.coeffs, sm.coeffs - 0.01 * g,
                                   atol=1e-9)

    def test_huge_tolerance_stops_after_two_epochs(self):
        rb, X, y = toy_separable()
        sm = init_student(rb, 2)
        _, trace = train_student(sm, X, onehot_encode(y, 2),
                                 TrainConfig(lr=0.01, max_epochs=30, tol=1e9))
        assert len(trace) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_raises_with_epoch(self):
        rb, X, y = toy_separable()
        sm = init_student(rb, 2)
        with pytest.raises(TrainingDiverged) as err:
            train_student(sm, X, onehot_encode(y, 2),
                          TrainConfig(lr=float("inf"), max_epochs=30))
        assert err.value.epoch >= 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_lr_at_a_zero_gradient_diverges_at_epoch_one(self):
        # balanced classes and one order-0 rule: the first gradient is 0,
        # so the first trial point, inf times 0, is nan, which ends the fit
        # with no floating-point warning
        rb = RuleBase(np.array([[0.5]]), np.full((1, 1), 0.5))
        X = np.array([[0.1], [0.3], [0.5], [0.7]])
        sm = init_student(rb, 2, 0)
        with pytest.raises(TrainingDiverged) as err:
            train_student(sm, X, onehot_encode(np.array([0, 1, 0, 1]), 2),
                          TrainConfig(lr=float("inf")))
        assert err.value.epoch == 1

    def test_divergence_survives_pickling(self):
        # a worker process's exception crosses back by pickle
        err = pickle.loads(pickle.dumps(TrainingDiverged(3)))
        assert isinstance(err, TrainingDiverged)
        assert str(err) == "training loss became non-finite at epoch 3"
        assert err.epoch == 3

    def test_trace_totals_decrease_on_toy_set(self):
        rb, X, y = toy_separable()
        sm = init_student(rb, 2)
        _, trace = train_student(sm, X, onehot_encode(y, 2),
                                 TrainConfig(lr=0.01, max_epochs=30, tol=0.0))
        totals = [row["total"] for row in trace]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_invalid_targets_rejected_before_training(self):
        rb, X, _ = toy_separable()
        sm = init_student(rb, 2)
        with pytest.raises(ValueError, match="one-hot"):
            train_student(sm, X, np.full((4, 2), 0.5), TrainConfig())
        with pytest.raises(ValueError, match="columns"):
            train_student(sm, X, onehot_encode([0, 0, 1, 2], 3),
                          TrainConfig())

    def test_row_count_mismatch_rejected(self):
        rb, X, _ = toy_separable()
        with pytest.raises(ValueError, match="disagree on the sample count"):
            train_student(init_student(rb, 2), X, onehot_encode([0, 1], 2),
                          TrainConfig())

    def test_oversized_first_step_is_backtracked(self):
        rb, X, _ = toy_separable()
        y = np.array([0, 1, 1, 1])  # not separable: a huge step overshoots
        sm = init_student(rb, 2)
        _, trace = train_student(sm, X, onehot_encode(y, 2),
                                 TrainConfig(lr=1e4, max_epochs=30))
        totals = [row["total"] for row in trace]
        assert totals[0] < 4 * np.log(2.0)  # the loss at zero coefficients
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_large_sample_default_fit_keeps_descending(self):
        # the summed loss of 2000 rows makes the first trial step overshoot;
        # a rise must be backtracked, not taken as convergence
        X, y = blobs(2000)
        sm = init_student(build_rule_base(8, 13, seed=0), 3)
        trained, trace = train_student(sm, X, onehot_encode(y, 3),
                                       TrainConfig())
        totals = [row["total"] for row in trace]
        assert all(a >= b for a, b in zip(totals, totals[1:]))
        assert len(trace) > 2
        assert (predict_student(trained, X) == y).mean() > 0.9

    def test_default_fit_costs_at_most_sixty_evaluations(self):
        X, y = blobs(1000)
        sm = init_student(build_rule_base(8, 13, seed=0), 3)
        Xh, Y = design_matrix(sm, X), onehot_encode(y, 3)
        calls = []

        def loss_grad(Q, idx):  # one candidate, on a leading axis
            calls.append(1)
            p = softmax(Xh @ Q[0])
            return (np.array([cross_entropy(p, Y)]), (Xh.T @ (p - Y))[None],
                    {})

        ((_, trace),) = gradient_descent_batch(sm.coeffs[None], loss_grad,
                                               TrainConfig(tol=0.0))
        assert len(calls) == TrainConfig().max_epochs + 1 == 60
        assert len(trace) <= 59

    def test_loss_error_propagates_unchanged(self):
        # only a non-finite total or trial point means divergence; any other
        # error of the loss is a fault and keeps its own message
        def loss_grad(Q, idx):
            raise ValueError("bug in the loss")

        with pytest.raises(ValueError, match="bug in the loss"):
            gradient_descent_batch(np.zeros((1, 2, 2)), loss_grad,
                                   TrainConfig())

    def test_lbfgs_direction_matches_explicit_bfgs_matrix(self):
        # BFGS inverse-Hessian updates H <- V^T H V + rho s s^T, with
        # V = I - rho y s^T, applied oldest pair first from gamma * I
        rng = np.random.default_rng(4)
        n = 6
        A = rng.normal(size=(n, n))
        A = A @ A.T + n * np.eye(n)
        pairs = []
        for _ in range(4):
            s = rng.normal(size=n)
            y = A @ s
            pairs.append((s, y, 1.0 / (s @ y)))
        s, y, _ = pairs[-1]
        H = (s @ y) / (y @ y) * np.eye(n)
        for s, y, rho in pairs:
            V = np.eye(n) - rho * np.outer(y, s)
            H = V.T @ H @ V + rho * np.outer(s, s)
        g = rng.normal(size=n)
        np.testing.assert_allclose(_lbfgs_direction(g, pairs), -H @ g,
                                   rtol=1e-10, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 10), st.integers(1, 3), st.integers(1, 2),
           st.integers(2, 4), st.integers(0, 10_000))
    def test_gradient_matches_finite_differences(self, n, m, k, c, seed):
        # one epoch from a random Q0 is the first trial step Q0 - lr * g,
        # g the finite-difference gradient of the oracle's cross-entropy;
        # lr is small enough for that step to be accepted
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, (n, m))
        Y = onehot_encode(rng.integers(0, c, n), c)
        sm = init_student(build_rule_base(k, m, seed=seed), c)
        Q0 = rng.normal(scale=0.5, size=sm.coeffs.shape)
        Xh = design_matrix(sm, X)

        def loss(Q):
            return cross_entropy(softmax(Xh @ Q), Y)

        lr = 1e-3
        trained, trace = train_student(replace(sm, coeffs=Q0), X, Y,
                                       TrainConfig(lr=lr, max_epochs=1))
        assert len(trace) == 1
        np.testing.assert_allclose(trained.coeffs,
                                   Q0 - lr * fd_gradient(loss, Q0),
                                   rtol=0, atol=lr * 1e-6)
        assert trace[0]["h"] == pytest.approx(loss(trained.coeffs) / n,
                                              rel=1e-10)


class TestGradientDescentBatch:
    @staticmethod
    def half_square(nan_at):
        """0.5 * ||Q||^2 per candidate, except a nan total (at a finite
        point) at candidate i's nan_at[i]-th evaluation."""
        evaluations = np.zeros(3, dtype=int)

        def loss_grad(Q, idx):
            evaluations[idx] += 1
            totals = 0.5 * (Q ** 2).reshape(len(Q), -1).sum(axis=1)
            totals[evaluations[idx] == [nan_at.get(i, 0)
                                        for i in idx.tolist()]] = np.nan
            return totals, Q.copy(), {}

        return loss_grad

    def test_non_finite_totals_end_only_their_own_fit(self):
        Q0 = np.stack([np.full((2, 2), v) for v in (1.0, 2.0, -3.0)])
        cfg = TrainConfig(tol=0.0)
        # candidate 1 at its start; candidate 2 at the first trial point
        # of its second epoch (evaluation 1 is Q0, 2 the first epoch's)
        outcomes = gradient_descent_batch(
            Q0, self.half_square({1: 1, 2: 3}), cfg)
        for i, epoch in ((1, 1), (2, 2)):
            assert isinstance(outcomes[i], TrainingDiverged)
            assert outcomes[i].epoch == epoch
            assert outcomes[i].__traceback__ is None
        ((Q, trace),) = gradient_descent_batch(Q0[:1], self.half_square({}),
                                               cfg)
        np.testing.assert_array_equal(outcomes[0][0], Q)
        assert outcomes[0][1] == trace
        assert trace[-1]["total"] == 0.0


class TestTrainingTargets:
    def test_one_target_column_per_model_output(self):
        # a fitted teacher is a TSKModel too, with one output
        rb, X, y = toy_separable()
        tm = fit_teacher(rb, X, y.astype(float), 100.0)
        with pytest.raises(ValueError, match=r"y_onehot has 2 columns, "
                                             r"expected one per model "
                                             r"output \(1\)"):
            train_student(tm, X, onehot_encode(y, 2), TrainConfig())


class TestStudentModelValidation:
    def test_coeff_shape_checked(self):
        rb = build_rule_base(2, 3, seed=0)
        with pytest.raises(ValueError, match="shape"):
            TSKModel(rb, np.zeros((5, 2)), 1, np.arange(2.0))

    def test_non_finite_coeff_located(self):
        Q = np.zeros((2 * 4, 3))
        Q[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite value nan in coeffs "
                                             "at row 2, column 3"):
            TSKModel(build_rule_base(2, 3, seed=0), Q, 1, np.arange(3.0))

    def test_needs_two_classes(self):
        rb = build_rule_base(1, 1, seed=0)
        with pytest.raises(ValueError, match="classes"):
            init_student(rb, 1)
