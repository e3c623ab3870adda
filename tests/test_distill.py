"""Soft labels, decoupled KL losses and the distillation training loop."""
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzykd.data import load_bundled, normalize
from fuzzykd.distill import (DistillConfig, distill, distill_batch,
                             teacher_logits, trace_lines)
from fuzzykd.rules import TSKModel, build_rule_base
from fuzzykd.student import (TrainConfig, TrainingDiverged, _sole,
                             design_matrix, init_student, onehot_encode,
                             predict_student)
from fuzzykd.teacher import fit_teacher, predict_teacher

from oracles import (class_major_rest, cross_entropy, dkd_loss, kd_loss,
                     soft_labels, softmax, teacher_views)
from test_student import fd_gradient, fit_ce, toy_separable


def distill_kd(teacher_out, sm, X, Y, cfg, class_labels, kd_weight=1.0):
    """distill's fit on the coupled loss at kd_weight (distill_batch's
    kd_weights)."""
    return _sole(distill_batch(teacher_logits(teacher_out, class_labels), sm,
                               X, Y, [cfg], [kd_weight]))


def random_pair(rng, n, c, tau):
    """A random (teacher, student) soft-label pair with shared targets."""
    target = rng.integers(0, c, n)
    t = soft_labels(rng.normal(scale=3, size=(n, c)), tau, target)
    s = soft_labels(rng.normal(scale=3, size=(n, c)), tau, target)
    return t, s


class TestTeacherLogits:
    def test_integer_grid_distances(self):
        z = teacher_logits(np.array([1.0]), np.array([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(z, [[-1.0, 0.0, -1.0]], atol=1e-12)

    def test_fractional_output(self):
        z = teacher_logits(np.array([0.2]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(z, [[-0.2, -0.8]], atol=1e-12)

    def test_exact_hit_is_row_maximum(self):
        labels = np.array([0.0, 1.0, 2.0, 3.0])
        z = teacher_logits(np.array([2.0]), labels)
        assert z[0, 2] == 0.0
        assert z.argmax(axis=1)[0] == 2

    def test_argmax_is_nearest_encoding(self):
        rng = np.random.default_rng(0)
        labels = np.arange(4, dtype=float)
        y = rng.uniform(-0.5, 3.5, 50)
        z = teacher_logits(y, labels)
        nearest = np.abs(y[:, None] - labels[None, :]).argmin(axis=1)
        np.testing.assert_array_equal(z.argmax(axis=1), nearest)

    def test_labels_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            teacher_logits(np.array([0.5]), np.array([1.0, 0.0]))

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            teacher_logits(np.array([0.5]), np.array([]))


class TestSoftLabels:
    def test_equal_logits_uniform(self):
        sl = soft_labels(np.array([[0.0, 0.0]]), 1.0, [0])
        np.testing.assert_allclose(sl.probs, [[0.5, 0.5]], atol=1e-12)

    def test_binary_hand_value(self):
        sl = soft_labels(np.array([[1.0, 0.0]]), 1.0, [0])
        assert sl.probs[0, 0] == pytest.approx(0.731059, abs=1e-6)

    def test_large_temperature_softens(self):
        sharp = soft_labels(np.array([[1.0, 0.0]]), 1.0, [0])
        soft = soft_labels(np.array([[1.0, 0.0]]), 100.0, [0])
        assert soft.probs[0, 0] == pytest.approx(0.5025, abs=1e-4)
        assert soft.probs[0, 0] < sharp.probs[0, 0]

    def test_temperature_monotonicity(self):
        logits = np.array([[2.0, 0.5, -1.0]])
        last = 1.0
        for tau in (1, 2, 5, 10, 20, 100):
            u_t = soft_labels(logits, tau, [0]).probs[0, 0]
            assert u_t < last
            last = u_t

    def test_binary_split_invariant(self):
        rng = np.random.default_rng(1)
        t, _ = random_pair(rng, 50, 5, 2.0)
        rows = np.arange(50)
        u_t = t.probs[rows, t.target_index]
        np.testing.assert_allclose(t.binary[:, 0], u_t, atol=1e-12)
        np.testing.assert_allclose(t.binary.sum(axis=1), 1.0, atol=1e-12)

    def test_non_target_is_renormalized_slice(self):
        rng = np.random.default_rng(2)
        t, _ = random_pair(rng, 50, 5, 2.0)
        mask = np.ones((50, 5), dtype=bool)
        mask[np.arange(50), t.target_index] = False
        u_rest = t.probs[mask].reshape(50, 4)
        np.testing.assert_allclose(
            t.non_target, u_rest / u_rest.sum(axis=1, keepdims=True),
            atol=1e-9)


class TestKdLoss:
    def test_identical_labels_zero(self):
        rng = np.random.default_rng(3)
        t, _ = random_pair(rng, 20, 4, 2.0)
        assert kd_loss(t, t) <= 1e-12

    def test_hand_binary_kl(self):
        t = soft_labels(np.log([[0.75, 0.25]]), 1.0, [0])
        s = soft_labels(np.array([[0.0, 0.0]]), 1.0, [0])
        assert kd_loss(t, s) == pytest.approx(0.130812, abs=1e-6)

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            t, s = random_pair(rng, 10, int(rng.integers(2, 7)), 2.0)
            assert kd_loss(t, s) >= 0.0

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        t, _ = random_pair(rng, 5, 3, 1.0)
        s, _ = random_pair(rng, 5, 4, 1.0)
        with pytest.raises(ValueError):
            kd_loss(t, s)

    @pytest.mark.parametrize("loss", [kd_loss, dkd_loss])
    def test_target_mismatch_rejected(self, loss):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        t = soft_labels(logits, 1.0, [0, 1])
        s = soft_labels(logits, 1.0, [1, 0])
        with pytest.raises(ValueError, match="target indices disagree"):
            loss(t, s)


class TestDkdLoss:
    def test_binary_non_target_term_exactly_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            t, s = random_pair(rng, 15, 2, float(rng.uniform(0.5, 20)))
            _, nckl = dkd_loss(t, s)
            assert nckl == 0.0

    def test_identical_labels_zero_pair(self):
        rng = np.random.default_rng(7)
        t, _ = random_pair(rng, 20, 4, 2.0)
        tckl, nckl = dkd_loss(t, t)
        assert tckl <= 1e-12 and nckl <= 1e-12

    def test_decoupling_identity_c4(self):
        rng = np.random.default_rng(8)
        t, s = random_pair(rng, 200, 4, 2.0)
        lhs = kd_loss(t, s)
        tckl, _ = dkd_loss(t, s)
        per = (t.non_target * (np.log(t.non_target) -
                               np.log(s.non_target))).sum(axis=1)
        rhs = tckl + float(((1.0 - t.binary[:, 0]) * per).mean())
        assert abs(lhs - rhs) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.sampled_from([1, 2, 5, 10, 20, 100]),
           st.integers(0, 10_000))
    def test_decoupling_identity_property(self, c, tau, seed):
        rng = np.random.default_rng(seed)
        t, s = random_pair(rng, 25, c, float(tau))
        lhs = kd_loss(t, s)
        tckl, _ = dkd_loss(t, s)
        if c == 2:
            rhs = tckl
        else:
            per = (t.non_target * (np.log(t.non_target) -
                                   np.log(s.non_target))).sum(axis=1)
            rhs = tckl + float(((1.0 - t.binary[:, 0]) * per).mean())
        assert abs(lhs - rhs) < 1e-10


def class_setup(seed=9, n=24, c=3):
    rng = np.random.default_rng(seed)
    rb = build_rule_base(3, 2, seed=seed)
    X = rng.uniform(0, 1, (n, 2))
    y = rng.integers(0, c, n)
    labels = np.arange(c, dtype=float)
    tm = fit_teacher(build_rule_base(3, 2, seed=seed + 7), X,
                     y.astype(float), 100.0, labels)
    return rb, X, y, labels, predict_teacher(tm, X)


class TestDistill:
    def test_pure_ce_matches_train_student(self):
        # the plain student's fit (fit_ce) is this closure at these
        # weights, with the labels as the teacher's logits: the teacher's
        # own change no bit
        rb, X, y, labels, t_out = class_setup()
        sm = init_student(rb, 3)
        Y = onehot_encode(y, 3)
        cfg = DistillConfig(0.01, 10, 0.0, temperature=2.0,
                            target_weight=0.0, non_target_weight=0.0,
                            ce_weight=1.0)
        m1, tr1 = distill(t_out, sm, X, Y, cfg, labels)
        m2, tr2 = fit_ce(sm, X, Y, TrainConfig(0.01, 10, 0.0))
        np.testing.assert_array_equal(m1.coeffs, m2.coeffs)
        assert [r["total"] for r in tr1] == [r["total"] for r in tr2]

    def test_per_sample_weights_reproduce_coupled_loss(self):
        # lambda_n = 1 - u_t of the teacher turns the decoupled loss back
        # into the plain KL, so both loops must walk the same trajectory
        rb, X, y, labels, t_out = class_setup()
        sm = init_student(rb, 3)
        Y = onehot_encode(y, 3)
        tau = 2.0
        tsl = soft_labels(teacher_logits(t_out, labels), tau, y)
        lam_n = 1.0 - tsl.binary[:, 0]
        cfg_d = DistillConfig(0.01, 15, 0.0, temperature=tau,
                              target_weight=1.0, non_target_weight=lam_n,
                              ce_weight=0.0)
        cfg_v = DistillConfig(0.01, 15, 0.0, temperature=tau, ce_weight=0.0)
        m_d, tr_d = distill(t_out, sm, X, Y, cfg_d, labels)
        m_v, tr_v = distill_kd(t_out, sm, X, Y, cfg_v, labels)
        for a, b in zip(tr_d, tr_v):
            assert abs(a["total"] - b["total"]) < 1e-9
        np.testing.assert_allclose(m_d.coeffs, m_v.coeffs, atol=1e-9)

    def test_confident_teacher_separates_toy_set(self):
        rb, X, y = toy_separable()
        sm = init_student(rb, 2)
        Y = onehot_encode(y, 2)
        t_out = y.astype(float)  # teacher output exactly on the encodings
        cfg = DistillConfig(0.5, 200, 0.0, temperature=1.0,
                            target_weight=1.0, non_target_weight=1.0,
                            ce_weight=0.0)
        sm, _ = distill(t_out, sm, X, Y, cfg, np.array([0.0, 1.0]))
        assert (predict_student(sm, X) == y).all()

    @pytest.mark.parametrize("weights", ["dkd", "kd", "per-sample"])
    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_full_loss_gradient_matches_finite_differences(self, c, weights):
        from fuzzykd.distill import _distill_loss_grad
        from fuzzykd.student import _training_data
        rng = np.random.default_rng(10)
        for seed, tau in itertools.product(range(6), (1.0, 2.0, 5.0, 100.0)):
            rb, X, y, labels, t_out = class_setup(seed=seed, n=12, c=c)
            sm = init_student(rb, c)
            Xh, Y, y_idx = _training_data(sm, X, onehot_encode(y, c))
            tsl = soft_labels(teacher_logits(t_out, labels), tau, y_idx)
            # coupled KD at kd_weight 2: the weights distill_batch uses
            lam = {"dkd": 2.0, "per-sample": rng.uniform(0.0, 3.0, 12),
                   "kd": 2.0 * tsl.binary[:, 1]}[weights]
            cfg = DistillConfig(0.01, 30, 1e-5, temperature=tau,
                                target_weight=2.0 if weights == "kd" else 1.0,
                                non_target_weight=lam)
            lg = _distill_loss_grad(Xh, Y, y_idx, *teacher_views(tsl), [cfg])
            idx = np.zeros(1, dtype=int)  # candidate 0 of a batch of one
            Q = rng.normal(scale=0.5, size=sm.coeffs.shape)
            totals, grads, parts = lg(Q[None], idx)
            analytic = grads[0]
            fd = fd_gradient(lambda q: lg(q[None], idx)[0][0], Q)
            denom = np.maximum(np.abs(fd), 1.0)
            assert (np.abs(analytic - fd) / denom).max() < 1e-4
            if c == 2:  # one non-target class: NCKL adds exactly nothing
                assert parts["nckl"][0] == 0.0
                no_nckl = replace(cfg, non_target_weight=0.0)
                lg0 = _distill_loss_grad(Xh, Y, y_idx, *teacher_views(tsl),
                                         [no_nckl])
                totals0, grads0, _ = lg0(Q[None], idx)
                np.testing.assert_array_equal(grads0[0], analytic)
                assert totals0[0] == totals[0]

    @pytest.mark.parametrize("c", [2, 4])
    @pytest.mark.parametrize("tau", [1.0, 100.0])
    @pytest.mark.parametrize("coupled", [False, True], ids=["dkd", "kd"])
    def test_closure_matches_mpmath_at_saturating_logits(self, coupled, tau,
                                                         c):
        # logits up to |z| = 40 on both sides: at tau = 1 the student's and
        # the teacher's target or non-target masses fall to e^-80, far
        # below any clamp. The oracle computes every term from its
        # definition at 50 digits and differentiates it numerically.
        pytest.importorskip("mpmath")
        from mp_oracles import mp_distill_loss, mp_teacher_views

        from fuzzykd.distill import _distill_loss_grad
        rng = np.random.default_rng(17 + c)
        n = 8
        y = np.arange(n) % c
        Z, T = rng.uniform(-40, 40, (2, n, c))
        for logits, row, sign in ((Z, 0, -1), (Z, 1, 1), (T, 2, 1),
                                  (T, 3, -1)):
            logits[row] = -40.0 * sign
            logits[row, y[row]] = 40.0 * sign
        a, rest = mp_teacher_views(T, y, tau)
        w, phi = 1.5, 0.7
        lam = w * (1.0 - a) if coupled else rng.uniform(0.5, 3.0, n)
        cfg = DistillConfig(temperature=tau, target_weight=w,
                            non_target_weight=lam, ce_weight=phi)
        # Xh = I: the logits are Q itself, and the gradient in Q is theirs
        lg = _distill_loss_grad(np.eye(n), onehot_encode(y, c), y, a[None],
                                class_major_rest(rest, y)[None], [cfg])
        totals, grads, parts = lg(Z[None], np.zeros(1, dtype=int))
        want, want_grad, want_parts = mp_distill_loss(Z, y, a, rest, tau, w,
                                                      lam, phi, coupled)
        assert totals[0] == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(grads[0], want_grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose([parts[k][0] for k in ("tckl", "nckl",
                                                          "h")],
                                   want_parts, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("fit", [distill, distill_kd],
                             ids=["distill", "distill-kd"])
    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_logits_diverge_at_epoch_one(self, fit):
        rb, X, y, labels, t_out = class_setup()
        sm = TSKModel(rb, np.full(init_student(rb, 3).coeffs.shape, 1e308),
                      1, np.arange(3.0))
        with pytest.raises(TrainingDiverged) as err:
            fit(t_out, sm, X, onehot_encode(y, 3), DistillConfig(),
                class_labels=labels)
        assert err.value.epoch == 1

    @pytest.mark.parametrize("fit", [
        lambda sm, X, Y, y: fit_ce(sm, X, Y, TrainConfig()),
        lambda sm, X, Y, y: distill(y.astype(float), sm, X, Y,
                                    DistillConfig())],
        ids=["train_student", "distill"])
    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_class_logits_diverge_in_both_losses(self, fit):
        # class 0's logits overflow to -inf while the others stay finite;
        # the rows of other classes alone would keep the loss finite
        ds = load_bundled("iris")
        X = normalize(ds.X)[0]
        rb = build_rule_base(3, 4, seed=0)
        Q = np.zeros(init_student(rb, 3).coeffs.shape)
        Q[:, 0] = -1e308
        sm, Y = TSKModel(rb, Q, 1, np.arange(3.0)), onehot_encode(ds.y, 3)
        logits = design_matrix(sm, X) @ Q
        assert np.isneginf(logits[:, 0]).any()
        assert np.isfinite(logits[:, 1:]).all()
        with pytest.raises(TrainingDiverged) as err:
            fit(sm, X, Y, ds.y)
        assert err.value.epoch == 1

    @pytest.mark.parametrize("fit", [distill, distill_kd],
                             ids=["distill", "distill-kd"])
    def test_two_class_non_target_term_exactly_zero(self, fit):
        rb, X, y = toy_separable()
        t_out = np.array([0.1, 0.3, 0.6, 0.9])
        cfg = DistillConfig(0.01, 10, 0.0)
        _, trace = fit(t_out, init_student(rb, 2), X, onehot_encode(y, 2),
                       cfg, class_labels=np.array([0.0, 1.0]))
        assert trace and all(row["nckl"] == 0.0 for row in trace)

    @pytest.mark.parametrize("fit", [distill, distill_kd],
                             ids=["distill", "distill-kd"])
    def test_invalid_targets_rejected_before_training(self, fit):
        rb, X, y, labels, t_out = class_setup()
        Y = onehot_encode(y, 3)
        Y[0] = [0.5, 0.5, 0.0]
        with pytest.raises(ValueError, match="one-hot"):
            fit(t_out, init_student(rb, 3), X, Y, DistillConfig(),
                class_labels=labels)

    def test_deterministic(self):
        rb, X, y, labels, t_out = class_setup()
        sm = init_student(rb, 3)
        Y = onehot_encode(y, 3)
        cfg = DistillConfig(0.01, 10, 1e-5, temperature=2.0)
        a, _ = distill(t_out, sm, X, Y, cfg, labels)
        b, _ = distill(t_out, sm, X, Y, cfg, labels)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)


class TestVanillaKd:
    def test_zero_weight_reduces_to_train_student(self):
        # the same closure at the plain student's weights: w = 0 must leave
        # no trace of the teacher's logits or its target mass
        rb, X, y, labels, t_out = class_setup()
        sm = init_student(rb, 3)
        Y = onehot_encode(y, 3)
        cfg = DistillConfig(0.01, 10, 0.0, temperature=2.0)
        m1, _ = distill_kd(t_out, sm, X, Y, cfg, labels, 0.0)
        m2, _ = fit_ce(sm, X, Y, TrainConfig(0.01, 10, 0.0))
        np.testing.assert_array_equal(m1.coeffs, m2.coeffs)

    def test_all_zero_weights_rejected(self):
        # cfg's own KL weights are non-zero, but the coupled fit ignores them
        rb, X, y, labels, t_out = class_setup()
        cfg = DistillConfig(0.01, 10, 0.0, ce_weight=0.0)
        with pytest.raises(ValueError, match="at least one loss weight"):
            distill_kd(t_out, init_student(rb, 3), X, onehot_encode(y, 3),
                       cfg, labels, 0.0)

    def test_one_step_matches_finite_differences(self):
        rb, X, y, labels, t_out = class_setup(n=1)
        sm = init_student(rb, 3)
        Y = onehot_encode(y, 3)
        tau = 2.0
        cfg = DistillConfig(0.01, 1, 0.0, temperature=tau)
        trained, _ = distill_kd(t_out, sm, X, Y, cfg, labels)
        tsl = soft_labels(teacher_logits(t_out, labels), tau, y)
        Xh = design_matrix(sm, X)
        eps = 1e-12

        def loss(Q):
            u_s = softmax(Xh @ Q, tau)
            kl = (tsl.probs * (np.log(np.maximum(tsl.probs, eps)) -
                               np.log(np.maximum(u_s, eps)))).sum()
            return kl + cross_entropy(softmax(Xh @ Q), Y)

        g = fd_gradient(loss, sm.coeffs)
        np.testing.assert_allclose(trained.coeffs, sm.coeffs - 0.01 * g,
                                   atol=1e-4)

    @pytest.mark.parametrize("tau,w,phi", [(1.0, 1.0, 1.0), (2.0, 2.0, 0.0),
                                           (5.0, 0.5, 2.0)])
    def test_final_total_matches_kl_oracle(self, tau, w, phi):
        # the fit runs through the decoupled closure; the oracle is the
        # coupled KL computed by kd_loss on the returned coefficients
        rb, X, y, labels, t_out = class_setup()
        sm = init_student(rb, 3)
        Y = onehot_encode(y, 3)
        cfg = DistillConfig(0.01, 12, 0.0, temperature=tau, ce_weight=phi)
        trained, trace = distill_kd(t_out, sm, X, Y, cfg, labels, w)
        Xh = design_matrix(sm, X)
        logits = Xh @ trained.coeffs
        tsl = soft_labels(teacher_logits(t_out, labels), tau, y)
        want = (len(y) * w * kd_loss(tsl, soft_labels(logits, tau, y)) +
                phi * cross_entropy(softmax(logits), Y))
        assert trace[-1]["total"] == pytest.approx(want, rel=1e-9)

    def test_negative_weight_rejected(self):
        rb, X, y, labels, t_out = class_setup()
        sm = init_student(rb, 3)
        with pytest.raises(ValueError):
            distill_kd(t_out, sm, X, onehot_encode(y, 3), DistillConfig(),
                       labels, -1.0)

    def test_infinite_weight_rejected(self):
        rb, X, y, labels, t_out = class_setup()
        with pytest.raises(ValueError, match="^target_weight must be"):
            distill_kd(t_out, init_student(rb, 3), X, onehot_encode(y, 3),
                       DistillConfig(), labels, np.inf)


def eight_configs():
    return [DistillConfig(temperature=tau, non_target_weight=lam,
                          ce_weight=phi)
            for tau in (1.0, 2.0) for lam in (1.0, 5.0) for phi in (1.0, 2.0)]


class TestDistillBatch:
    @pytest.mark.parametrize("c", [2, 3, 4, 9, 13])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_each_fit_equals_its_one_config_fit(self, c, coupled):
        rng = np.random.default_rng(c)
        X = rng.uniform(0, 1, (40, 3))
        y = rng.integers(0, c, 40)
        labels = np.arange(c, dtype=float)
        tm = fit_teacher(build_rule_base(3, 3, seed=1), X, y.astype(float),
                         100.0, labels)
        t_out, Y = predict_teacher(tm, X), onehot_encode(y, c)
        sm = init_student(build_rule_base(3, 3, seed=2), c)
        cfgs = eight_configs()
        kd = [cfg.non_target_weight for cfg in cfgs] if coupled else None
        batch = distill_batch(teacher_logits(t_out, labels), sm, X, Y, cfgs,
                              kd)
        assert len(batch) == 8
        for i, (cfg, (model, trace)) in enumerate(zip(cfgs, batch)):
            alone = (distill_kd(t_out, sm, X, Y, cfg, labels, kd[i])
                     if coupled else distill(t_out, sm, X, Y, cfg, labels))
            assert np.array_equal(model.coeffs, alone[0].coeffs)
            assert trace == alone[1]
        # tol stops the fits after different numbers of epochs, so the
        # later rounds evaluate only some of the candidates
        assert len({len(trace) for _, trace in batch}) > 1

    def test_diverging_fit_leaves_the_others_unchanged(self):
        rb, X, y, labels, t_out = class_setup()
        sm, Y = init_student(rb, 3), onehot_encode(y, 3)
        cfgs = eight_configs()
        # a finite first total whose gradient overflows: the first trial
        # point is not finite
        cfgs[3] = DistillConfig(temperature=1e-6, target_weight=1e304)
        with np.errstate(all="ignore"):
            batch = distill_batch(teacher_logits(t_out, labels), sm, X, Y,
                                  cfgs)
            with pytest.raises(TrainingDiverged):
                distill(t_out, sm, X, Y, cfgs[3], labels)
        assert isinstance(batch[3], TrainingDiverged)
        assert batch[3].epoch == 1
        for i in (0, 1, 2, 4, 5, 6, 7):
            alone, _ = distill(t_out, sm, X, Y, cfgs[i], labels)
            assert np.array_equal(batch[i][0].coeffs, alone.coeffs)

    def test_configs_must_share_the_budget(self):
        rb, X, y, labels, t_out = class_setup()
        cfgs = [DistillConfig(), DistillConfig(max_epochs=5)]
        with pytest.raises(ValueError, match="max_epochs"):
            distill_batch(teacher_logits(t_out, labels), init_student(rb, 3),
                          X, onehot_encode(y, 3), cfgs)


SHAPE = ("teacher logits have shape {}: one row per sample, one column per "
         "class")


def inf_at_row_3_column_2(t_out, labels):
    logits = teacher_logits(t_out, labels)
    logits[2, 1] = np.inf
    return logits


class TestDistillConfig:
    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            DistillConfig(target_weight=0.0, non_target_weight=0.0,
                          ce_weight=0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DistillConfig(non_target_weight=-1.0)

    def test_non_positive_temperature_rejected(self):
        with pytest.raises(ValueError):
            DistillConfig(temperature=0.0)

    @pytest.mark.parametrize("field, value", [
        ("temperature", np.inf), ("temperature", np.nan),
        ("target_weight", np.inf), ("target_weight", np.nan),
        ("non_target_weight", np.inf),
        ("non_target_weight", np.array([1.0, np.nan, 2.0])),
        ("non_target_weight", np.array([1.0, np.inf])),
        ("ce_weight", np.inf), ("ce_weight", np.nan)])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            DistillConfig(**{field: value})

    def test_wrong_length_per_sample_weight_named(self):
        rb, X, y, labels, t_out = class_setup()
        cfg = DistillConfig(non_target_weight=np.ones(5))
        with pytest.raises(ValueError, match=r"non_target_weight has 5 "
                           r"values, expected one per row \(24\)"):
            distill(t_out, init_student(rb, 3), X, onehot_encode(y, 3), cfg,
                    labels)

    @pytest.mark.parametrize("two_classes, n_labels, n_out, teacher, "
                             "message", [
        (False, 4, 24, None, SHAPE.format("(24, 4), expected (24, 3)")),
        (False, 2, 24, None, SHAPE.format("(24, 2), expected (24, 3)")),
        (True, 2, None, None, SHAPE.format("(18, 2), expected (18, 3)")),
        (False, 3, 23, None, SHAPE.format("(23, 3), expected (24, 3)")),
        (False, None, 24, lambda t, labels: t,  # must not broadcast
         SHAPE.format("(24,), expected (24, 3)")),
        (False, 4, 24, teacher_logits,
         SHAPE.format("(24, 4), expected (24, 3)")),
        (False, 3, 24, inf_at_row_3_column_2,
         "non-finite value inf in logits at row 3, column 2"),
        (False, 1, 24, teacher_logits,
         "distillation needs at least 2 classes, got 1"),
    ], ids=["4 labels", "2 labels", "2 labels on classes 0 and 1",
            "23 outputs", "scalar outputs to distill_batch",
            "4 columns to distill_batch", "inf logit to batch",
            "one class to batch"])
    def test_mismatched_teacher_input_named(self, two_classes, n_labels,
                                            n_out, teacher, message):
        # teacher None: distill's scalar outputs; else what the function
        # makes of them goes to distill_batch as the teacher's logits
        rb, X, y, _, t_out = class_setup()
        if two_classes:  # a 3-class student on the rows of two classes
            keep = y < 2
            X, y, t_out = X[keep], y[keep], t_out[keep]
        c = 1 if n_labels == 1 else 3  # one class: a one-output student
        sm = TSKModel(rb, init_student(rb, 3).coeffs[:, :c], 1,
                      np.arange(float(c)))
        Y, t_out = onehot_encode(y % c, c), t_out[:n_out]
        labels = None if n_labels is None else np.arange(n_labels, dtype=float)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if teacher is None:
                distill(t_out, sm, X, Y, DistillConfig(), labels)
            else:
                distill_batch(teacher(t_out, labels), sm, X, Y,
                              [DistillConfig()])

    def test_non_finite_teacher_output_located(self):
        rb, X, y, labels, t_out = class_setup()
        t_out = t_out.copy()
        t_out[5] = np.nan
        with pytest.raises(ValueError, match=r"^non-finite value nan in "
                           r"logits at row 6, column 1$"):
            distill(t_out, init_student(rb, 3), X, onehot_encode(y, 3),
                    DistillConfig(), labels)


class TestTraceLines:
    def test_decoupled_trace_format(self):
        rb, X, y, labels, t_out = class_setup()
        sm = init_student(rb, 3)
        cfg = DistillConfig(0.01, 3, 0.0, temperature=2.0)
        _, trace = distill(t_out, sm, X, onehot_encode(y, 3), cfg, labels)
        lines = trace_lines(trace)
        assert len(lines) == 3
        assert lines[0].startswith("epoch=1 tckl=")
        assert all(" nckl=" in ln and " h=" in ln and " total=" in ln
                   for ln in lines)
