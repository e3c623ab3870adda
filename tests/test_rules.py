"""Rule base construction and normalized firing strengths."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzykd.basis import basis_dim
from fuzzykd.rules import (PARTITION, PARTITION_LABELS, RuleBase, TSKModel,
                           build_rule_base, firing_strengths,
                           log_memberships, predict_class, predict_outputs)

from oracles import basis_apply


class TestRuleBase:
    def test_partition_constants(self):
        assert PARTITION.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert PARTITION_LABELS == ("very low", "low", "medium", "high",
                                    "very high")

    def test_center_off_partition_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            RuleBase(np.array([[0.3]]), np.array([[1.0]]))

    def test_non_positive_width_rejected(self):
        with pytest.raises(ValueError, match="width"):
            RuleBase(np.array([[0.5]]), np.array([[0.0]]))

    def test_infinite_width_located(self):
        # an inf width passes the positivity test but fires uniformly
        with pytest.raises(ValueError, match="non-finite value inf in widths "
                                             "at row 2, column 1"):
            RuleBase(np.array([[0.5], [0.0]]), np.array([[1.0], [np.inf]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RuleBase(np.array([[0.5, 0.5]]), np.array([[1.0]]))

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0)],
                             ids=["no rules", "no features"])
    def test_empty_rule_base_rejected(self, shape):
        with pytest.raises(ValueError, match="n_(rules|features) must be an "
                                             "integer >= 1, got 0"):
            RuleBase(np.zeros(shape), np.ones(shape))


    def test_arrays_are_the_rule_bases_own_read_only_copies(self):
        # a write through the caller's arrays would bypass the partition
        # and width checks made at construction
        c, w = np.full((2, 3), 0.5), np.full((2, 3), 0.5)
        rb = RuleBase(c, w)
        c[0, 0], w[0, 0] = 0.3, -1.0
        assert (rb.centers == 0.5).all() and (rb.widths == 0.5).all()
        for arr in (rb.centers, rb.widths):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.3


class TestBuildRuleBase:
    def test_single_rule_structure(self):
        rb = build_rule_base(1, 3, width=1.0, seed=42)
        assert rb.n_rules == 1
        assert rb.n_features == 3
        assert np.isin(rb.centers, PARTITION).all()
        assert (rb.widths == 1.0).all()

    def test_deterministic_per_seed(self):
        a = build_rule_base(8, 13, width=0.5, seed=7)
        b = build_rule_base(8, 13, width=0.5, seed=7)
        assert a.centers.shape == (8, 13)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.widths, b.widths)

    def test_different_seeds_differ(self):
        a = build_rule_base(8, 13, seed=7)
        b = build_rule_base(8, 13, seed=8)
        assert not np.array_equal(a.centers, b.centers)

    @pytest.mark.parametrize("k,m", [(0, 3), (3, 0), (-1, 2)])
    def test_non_positive_counts_rejected(self, k, m):
        with pytest.raises(ValueError):
            build_rule_base(k, m)

    def test_float_rule_count_rejected(self):
        with pytest.raises(ValueError, match=r"n_rules must be an integer "
                                             r">= 1, got 2\.5"):
            build_rule_base(2.5, 3)

    def test_non_positive_width_rejected(self):
        with pytest.raises(ValueError):
            build_rule_base(2, 2, width=-0.5)


class TestFiringStrengths:
    def test_single_rule_normalizes_to_one(self):
        rb = RuleBase(np.array([[0.5, 0.25]]), np.full((1, 2), 0.5))
        fm = firing_strengths(rb, np.array([[0.5, 0.25]]))
        assert fm.shape == (1, 1)
        assert fm[0, 0] == pytest.approx(1.0)

    def test_symmetric_midpoint(self):
        rb = RuleBase(np.array([[0.0], [1.0]]), np.full((2, 1), 0.5))
        fm = firing_strengths(rb, np.array([[0.5]]))
        np.testing.assert_allclose(fm, [[0.5, 0.5]], atol=1e-12)

    def test_hand_computed_two_rule_value(self):
        # mu = [exp(-0.25^2 / (2*0.5)), exp(-0.75^2 / (2*0.5))]
        #    = [exp(-0.0625), exp(-0.5625)], normalized by their sum
        rb = RuleBase(np.array([[0.0], [1.0]]), np.full((2, 1), 0.5))
        fm = firing_strengths(rb, np.array([[0.25]]))
        raw = np.exp([-0.0625, -0.5625])
        np.testing.assert_allclose(fm[0], raw / raw.sum(), atol=1e-12)
        np.testing.assert_allclose(fm[0], [0.6225, 0.3775], atol=5e-5)

    def test_dimension_mismatch_rejected(self):
        rb = build_rule_base(2, 3, seed=0)
        with pytest.raises(ValueError, match="features"):
            firing_strengths(rb, np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_located(self, bad):
        # the first bad cell in row-major order is named, 1-based
        rb = build_rule_base(2, 3, seed=0)
        X = np.full((4, 3), 0.5)
        X[2, 1] = bad
        X[3, 0] = np.nan
        with pytest.raises(ValueError, match=f"non-finite value {bad} in X "
                                             "at row 3, column 2"):
            log_memberships(rb, X)

    @pytest.mark.parametrize("k,m,seed", [(1, 1, 0), (3, 4, 1), (8, 13, 2),
                                          (5, 40, 3)])
    def test_log_memberships_match_row_loop(self, k, m, seed):
        # per-cell widths, rows scaled from 1e-2 up to 1e8; the expanded
        # square's error is bounded by S = sum_i (x_i^2 + v_i^2)/(2 delta_i)
        rng = np.random.default_rng(seed)
        rb = RuleBase(rng.choice(PARTITION, (k, m)),
                      rng.uniform(0.01, 5.0, (k, m)))
        X = rng.uniform(-1, 1, (12, m)) * np.logspace(-2, 8, 12)[:, None]
        got = log_memberships(rb, X)
        assert got.shape == (12, k)
        for n, x in enumerate(X.tolist()):
            for r in range(k):
                v, d = rb.centers[r].tolist(), rb.widths[r].tolist()
                want = -sum((x[i] - v[i]) ** 2 / (2 * d[i]) for i in range(m))
                bound = sum((x[i] ** 2 + v[i] ** 2) / (2 * d[i])
                            for i in range(m))
                assert abs(got[n, r] - want) <= 1e-14 * bound

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
    def test_large_rows_normalize(self, scale):
        rng = np.random.default_rng(5)
        rb = RuleBase(rng.choice(PARTITION, (8, 13)),
                      rng.uniform(0.01, 5.0, (8, 13)))
        fm = firing_strengths(rb, rng.uniform(-1, 1, (30, 13)) * scale)
        assert fm.shape == (30, 8) and fm.flags.c_contiguous
        assert np.isfinite(fm).all()
        np.testing.assert_allclose(fm.sum(axis=1), 1.0, rtol=0, atol=1e-9)

    def test_matches_naive_product_path(self):
        # direct exp-then-normalize, safe for small m
        rng = np.random.default_rng(3)
        for m in range(1, 6):
            rb = build_rule_base(4, m, width=0.5, seed=m)
            X = rng.uniform(0, 1, (10, m))
            mu = np.exp(log_memberships(rb, X))
            naive = mu / mu.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(firing_strengths(rb, X), naive,
                                       atol=1e-9)

    def test_rule_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        rb = build_rule_base(5, 3, seed=11)
        X = rng.uniform(0, 1, (7, 3))
        perm = rng.permutation(5)
        rb_p = RuleBase(rb.centers[perm], rb.widths[perm])
        np.testing.assert_allclose(firing_strengths(rb_p, X),
                                   firing_strengths(rb, X)[:, perm],
                                   atol=1e-12)

    def test_high_dimension_small_width_stable(self):
        # worst case: 60 features, width 0.1, products underflow naively
        rb = build_rule_base(10, 60, width=0.1, seed=2)
        X = np.random.default_rng(2).uniform(0, 1, (20, 60))
        fm = firing_strengths(rb, X)
        assert np.isfinite(fm).all()
        np.testing.assert_allclose(fm.sum(axis=1), 1.0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 60),
           st.floats(0.1, 5.0), st.integers(0, 10_000))
    def test_rows_sum_to_one(self, k, m, width, seed):
        rb = build_rule_base(k, m, width=width, seed=seed)
        X = np.random.default_rng(seed).uniform(0, 1, (5, m))
        fm = firing_strengths(rb, X)
        assert np.isfinite(fm).all()
        assert (fm >= 0).all() and (fm <= 1).all()
        np.testing.assert_allclose(fm.sum(axis=1), 1.0, atol=1e-9)


def row_loop_outputs(rb, coeffs, order, X):
    """sum_k f_k(x) * b(x) . q_k one row at a time: Gaussian firing
    normalized over rules, basis from b_0 = [1], b_n = [1, x (x) b_{n-1}]."""
    k = rb.centers.shape[0]
    rows = []
    for x in X:
        mu = np.array([np.exp(-sum((x[i] - rb.centers[j, i]) ** 2
                                   / (2.0 * rb.widths[j, i])
                                   for i in range(x.size)))
                       for j in range(k)])
        f = mu / mu.sum()
        b = [1.0]
        for _ in range(order):
            b = [1.0] + [xi * bj for xi in x for bj in b]
        q = coeffs.reshape(k, len(b), -1)
        rows.append([sum(f[j] * sum(b[i] * q[j, i, c] for i in range(len(b)))
                         for j in range(k)) for c in range(q.shape[2])])
    return np.array(rows)


def random_model(order, c, seed, k=3, m=2):
    rng = np.random.default_rng(seed)
    rb = build_rule_base(k, m, seed=seed)
    coeffs = rng.normal(size=(k * basis_dim(order, m), c))
    labels = np.array([0.0, 1.0, 2.0]) if c == 1 else np.arange(float(c))
    return TSKModel(rb, coeffs, order, labels), rng.uniform(0, 1, (7, m))


class TestPredictOutputs:
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_matches_row_loop(self, order, c):
        # every order takes the one Horner step on the distinct monomials
        model, X = random_model(order, c, seed=10 * order + c)
        got = predict_outputs(model, X)
        assert got.shape == (7, c)
        np.testing.assert_allclose(
            got, row_loop_outputs(model.rule_base, model.coeffs, order, X),
            rtol=1e-12, atol=1e-12)

    def test_order_three_scalar_is_bitwise_the_horner_sum(self):
        # one output at order 3 keeps the scalar teacher's exact bits
        model, X = random_model(3, 1, seed=5, k=8, m=4)
        F = firing_strengths(model.rule_base, X)
        Q = model.coeffs[:, 0].reshape(8, -1).T
        np.testing.assert_array_equal(predict_outputs(model, X)[:, 0],
                                      np.einsum("nk,nk->n", F,
                                                basis_apply(X, Q, 3)))

    def test_predict_class_decodes_by_output_count(self):
        model, X = random_model(1, 3, seed=1)
        np.testing.assert_array_equal(predict_class(model, X),
                                      predict_outputs(model, X).argmax(1))
        rb = RuleBase(np.array([[0.5]]), np.array([[0.5]]))
        # one output: the nearest label itself, not its index
        const = TSKModel(rb, np.array([[1.4], [0.0]]), 1,
                         np.array([0.0, 2.0, 5.0]))
        np.testing.assert_array_equal(predict_class(const, [[0.1], [0.9]]),
                                      [2, 2])


class TestTSKModel:
    def test_coeffs_become_a_float_matrix(self):
        model = TSKModel(build_rule_base(2, 1, seed=0), [[0], [1], [2], [3]],
                         1, [0, 2])
        assert model.coeffs.dtype == float and model.coeffs.shape == (4, 1)
        assert model.n_classes == 2 and model.reg is None

    def test_coeffs_are_the_models_own_read_only_copy(self):
        # the fold of coeffs is cached at the first prediction, so a write
        # through the caller's array must not reach the model
        Q = np.zeros((8, 3))
        model = TSKModel(build_rule_base(2, 3, seed=0), Q, 1, np.arange(3.0))
        X = np.random.default_rng(0).uniform(0, 1, (4, 3))
        assert not predict_outputs(model, X).any()
        Q[:, 1] = 5.0
        assert not model.coeffs.any()
        assert not predict_outputs(model, X).any()
        with pytest.raises(ValueError, match="read-only"):
            model.coeffs[0, 0] = 1.0

    def test_class_labels_are_the_models_own_read_only_copy(self):
        # reversed after construction, the labels would no longer increase
        labels = np.array([0.0, 1.0, 2.0])
        model = TSKModel(build_rule_base(1, 1, seed=0), np.zeros((4, 1)), 3,
                         labels, 100.0)
        labels[:] = labels[::-1].copy()
        assert model.class_labels.tolist() == [0.0, 1.0, 2.0]
        with pytest.raises(ValueError, match="read-only"):
            model.class_labels[0] = 5.0

    @pytest.mark.parametrize("shape", [(4,), (4, 0), (3, 2)],
                             ids=["flat", "no outputs", "short"])
    def test_coeff_shape_checked(self, shape):
        with pytest.raises(ValueError, match=r"coeffs has shape .*columns of "
                                             r"length K\*D = 4"):
            TSKModel(build_rule_base(2, 1, seed=0), np.zeros(shape), 1,
                     np.arange(2.0))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_class_label_located(self, bad):
        with pytest.raises(ValueError, match=f"non-finite value {bad} in "
                                             "class_labels at row 2, "
                                             "column 1"):
            TSKModel(build_rule_base(1, 1, seed=0), np.zeros((2, 1)), 1,
                     np.array([0.0, bad]), 100.0)

    @pytest.mark.parametrize("reg,word", [
        (0.0, "positive"), (-1.0, "positive"), (np.nan, "positive"),
        (np.inf, "finite")])
    def test_reg_outside_open_half_line_rejected(self, reg, word):
        with pytest.raises(ValueError, match="regularization parameter "
                                             f"must be {word}$"):
            TSKModel(build_rule_base(1, 1, seed=0), np.zeros((2, 1)), 1,
                     np.arange(2.0), reg)

    @pytest.mark.parametrize("labels", [[0.0, 2.0], [1.0, 2.0], [0.0],
                                        [0.0, 1.0, 2.0]])
    def test_several_outputs_need_labels_zero_to_c_minus_one(self, labels):
        # a student's model file stores only its class count
        with pytest.raises(ValueError, match=r"a model with 2 outputs has "
                                             r"class labels 0\.\.1"):
            TSKModel(build_rule_base(1, 1, seed=0), np.zeros((2, 2)), 1,
                     np.array(labels))

    def test_class_labels_must_be_non_empty(self):
        with pytest.raises(ValueError, match="increasing"):
            TSKModel(build_rule_base(1, 1, seed=0), np.zeros((2, 1)), 1,
                     np.array([]))
