"""Acceptance gate: one test and one printed pass/fail line per criterion.

Every test prints its verdict with the measured numbers even when pytest
captures output, so a full run reads as a checklist.
"""
import time

import numpy as np
import pytest

from fuzzykd.data import load_bundled
from fuzzykd.distill import (DistillConfig, _distill_loss_grad,
                             distill, distill_batch, teacher_logits)
from fuzzykd.harness import GridSpec, format_report, run_method
from fuzzykd.rules import build_rule_base, firing_strengths
from fuzzykd.basis import stack_design_matrix
from fuzzykd.student import design_matrix, init_student, onehot_encode
from fuzzykd.teacher import fit_teacher, predict_teacher

from oracles import (cross_entropy, dkd_loss, kd_loss, soft_labels, softmax,
                     teacher_views)


def verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def fd_gradient(loss, Q, h=1e-5):
    g = np.zeros_like(Q)
    for i in range(Q.shape[0]):
        for j in range(Q.shape[1]):
            Qp, Qm = Q.copy(), Q.copy()
            Qp[i, j] += h
            Qm[i, j] -= h
            g[i, j] = (loss(Qp) - loss(Qm)) / (2 * h)
    return g


def test_decoupling_identity(capsys):
    """KL(u_T||u_S) = binary KL + teacher non-target mass * non-target KL."""
    rng = np.random.default_rng(2024)
    taus = (1, 2, 5, 10, 20, 100)
    t0 = time.perf_counter()
    worst = 0.0
    for pair in range(10_000):
        c = int(rng.integers(2, 7))
        tau = float(taus[pair % len(taus)])
        target = int(rng.integers(0, c))
        t = soft_labels(rng.normal(scale=3, size=(1, c)), tau, [target])
        s = soft_labels(rng.normal(scale=3, size=(1, c)), tau, [target])
        lhs = kd_loss(t, s)
        tckl, _ = dkd_loss(t, s)
        if c == 2:
            rhs = tckl
        else:
            per = (t.non_target * (np.log(t.non_target) -
                                   np.log(s.non_target))).sum()
            rhs = tckl + (1.0 - t.binary[0, 0]) * per
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    verdict(capsys, "decoupling-identity", ok,
            f"10000 pairs, max deviation {worst:.3e}, {elapsed:.2f}s")


def test_gradient_oracle(capsys):
    """Analytic gradients of the cross-entropy and the full distillation
    loss match central finite differences on 50 random small instances."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        c = int(rng.integers(2, 4))
        rb = build_rule_base(k, m, seed=int(rng.integers(1 << 30)))
        X = rng.uniform(0, 1, (n, m))
        y = rng.integers(0, c, n)
        Y = onehot_encode(y, c)
        sm = init_student(rb, c)
        Xh = design_matrix(sm, X)
        Q = rng.normal(scale=0.5, size=sm.coeffs.shape)

        analytic_h = Xh.T @ (softmax(Xh @ Q) - Y)
        fd_h = fd_gradient(lambda q: cross_entropy(softmax(Xh @ q), Y), Q)
        denom = np.maximum(np.abs(fd_h), 1.0)
        worst = max(worst, float((np.abs(analytic_h - fd_h) / denom).max()))

        t_out = rng.normal(scale=0.5, size=n) + y
        cfg = DistillConfig(temperature=2.0)
        tsl = soft_labels(teacher_logits(t_out, np.arange(c, dtype=float)),
                          2.0, y)
        lg = _distill_loss_grad(Xh, Y, y, *teacher_views(tsl), [cfg])
        idx = np.zeros(1, dtype=int)  # candidate 0 of a batch of one
        analytic_full = lg(Q[None], idx)[1][0]
        fd_full = fd_gradient(lambda q: lg(q[None], idx)[0][0], Q)
        denom = np.maximum(np.abs(fd_full), 1.0)
        worst = max(worst,
                    float((np.abs(analytic_full - fd_full) / denom).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    verdict(capsys, "gradient-oracle", ok,
            f"50 instances, max relative error {worst:.3e}, {elapsed:.2f}s")


def test_solver_oracle(capsys):
    """Closed-form teacher fit matches a brute-force normal-equations solve."""
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 3))
        d_rule = 4 if m == 1 else 15  # D(3, m)
        k = int(rng.integers(1, 41 // d_rule + 1))
        n = int(rng.integers(k * d_rule + 1, 51))
        rb = build_rule_base(k, m, seed=int(rng.integers(1 << 30)))
        X = rng.uniform(0, 1, (n, m))
        y = rng.normal(size=n)
        tm = fit_teacher(rb, X, y, reg=100.0)
        Xg = stack_design_matrix(firing_strengths(rb, X), X, 3)
        d = Xg.shape[1]
        want = np.linalg.solve(0.01 * np.eye(d) + Xg.T @ Xg, Xg.T @ y)
        worst = max(worst, float(np.abs(tm.coeffs[:, 0] - want).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    verdict(capsys, "solver-oracle", ok,
            f"20 instances, max coefficient gap {worst:.3e}, {elapsed:.2f}s")


def test_firing_normalization(capsys):
    """Firing rows sum to 1 with up to 60 features and widths down to 0.1."""
    rng = np.random.default_rng(13)
    worst = 0.0
    finite = True
    for _ in range(200):
        k = int(rng.integers(1, 13))
        m = int(rng.integers(1, 61))
        width = float(rng.uniform(0.1, 3.0))
        rb = build_rule_base(k, m, width=width,
                             seed=int(rng.integers(1 << 30)))
        fm = firing_strengths(rb, rng.uniform(0, 1, (8, m)))
        finite = finite and bool(np.isfinite(fm).all())
        worst = max(worst, float(np.abs(fm.sum(axis=1) - 1.0).max()))
    ok = finite and worst < 1e-9
    verdict(capsys, "firing-normalization", ok,
            f"200 fuzzed rule bases, max row-sum deviation {worst:.3e}, "
            f"all finite: {finite}")


def test_binary_degenerate_case(capsys):
    """Two-class problems carry no non-target knowledge: NCKL is exactly 0."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        tau = float(rng.uniform(0.5, 100))
        target = rng.integers(0, 2, 20)
        t = soft_labels(rng.normal(scale=3, size=(20, 2)), tau, target)
        s = soft_labels(rng.normal(scale=3, size=(20, 2)), tau, target)
        _, nckl = dkd_loss(t, s)
        worst = max(worst, abs(nckl))
    ok = worst == 0.0
    verdict(capsys, "binary-degenerate-case", ok,
            f"100 random binary pairs, max |NCKL| = {worst!r}")


def test_iris_reproduction(capsys):
    """Default-parameter distillation on Iris: mean accuracy and gain."""
    t0 = time.perf_counter()
    ds = load_bundled("iris")
    grid = GridSpec.fixed()  # K=8, tau=2, zeta=1, lambda=2, phi=1
    gains, dkd_means = [], []
    for seed in range(5):
        s = run_method("student-only", ds, grid, seed,
                       dataset_name="iris").mean_accuracy()
        d = run_method("distill-dkd", ds, grid, seed,
                       dataset_name="iris").mean_accuracy()
        dkd_means.append(d)
        gains.append(d - s)
    elapsed = time.perf_counter() - t0
    mean_acc = float(np.mean(dkd_means))
    mean_gain = float(np.mean(gains))
    positive = sum(g > 0 for g in gains)
    ok = (mean_acc >= 0.94 and mean_gain >= 0.0 and positive >= 3
          and elapsed < 300.0)
    verdict(capsys, "iris-reproduction", ok,
            f"mean distilled accuracy {mean_acc:.4f} (need >= 0.94), "
            f"mean gain {mean_gain:+.4f}, positive on {positive}/5 seeds, "
            f"{elapsed:.1f}s")


def test_promotion_direction(capsys):
    """Across three bundled datasets the seed-averaged distillation
    promotion over plain student training is non-negative."""
    t0 = time.perf_counter()
    grid = GridSpec.fixed()
    promotions = {}
    for name in ("iris", "wine", "seeds_shaped"):
        ds = load_bundled(name)
        gains = []
        for seed in range(3):
            s = run_method("student-only", ds, grid, seed,
                           dataset_name=name).mean_accuracy()
            d = run_method("distill-dkd", ds, grid, seed,
                           dataset_name=name).mean_accuracy()
            gains.append(d - s)
        promotions[name] = float(np.mean(gains))
    elapsed = time.perf_counter() - t0
    ok = all(v >= 0.0 for v in promotions.values()) and elapsed < 1200.0
    detail = ", ".join(f"{k} {v:+.4f}" for k, v in promotions.items())
    verdict(capsys, "promotion-direction", ok, f"{detail}, {elapsed:.1f}s")


def test_kd_dkd_weight_identity(capsys):
    """Per-sample non-target weight 1 - u_t (teacher) makes the decoupled
    loss trace equal the coupled one on a 30-sample instance."""
    rng = np.random.default_rng(23)
    rb = build_rule_base(4, 3, seed=31)
    X = rng.uniform(0, 1, (30, 3))
    y = rng.integers(0, 3, 30)
    Y = onehot_encode(y, 3)
    labels = np.arange(3, dtype=float)
    tm = fit_teacher(build_rule_base(4, 3, seed=32), X, y.astype(float),
                     100.0, labels)
    t_out = predict_teacher(tm, X)
    sm = init_student(rb, 3)
    tau = 2.0
    tsl = soft_labels(teacher_logits(t_out, labels), tau, y)
    lam_n = 1.0 - tsl.binary[:, 0]
    cfg_d = DistillConfig(0.01, 20, 0.0, temperature=tau, target_weight=1.0,
                          non_target_weight=lam_n, ce_weight=0.0)
    cfg_v = DistillConfig(0.01, 20, 0.0, temperature=tau, ce_weight=0.0)
    _, tr_d = distill(t_out, sm, X, Y, cfg_d, labels)
    ((_, tr_v),) = distill_batch(teacher_logits(t_out, labels), sm, X, Y,
                                 [cfg_v], [1.0])
    worst = max(abs(a["total"] - b["total"]) for a, b in zip(tr_d, tr_v))
    ok = len(tr_d) == len(tr_v) and worst < 1e-9
    verdict(capsys, "kd-dkd-weight-identity", ok,
            f"{len(tr_d)} epochs, max trace gap {worst:.3e}")


def test_determinism(capsys):
    """Identical flags and seed give byte-identical reports once the
    wall-time fields are excluded."""
    ds = load_bundled("iris")
    grid = GridSpec.fixed(folds=5)
    a = run_method("distill-dkd", ds, grid, seed=9, dataset_name="iris")
    b = run_method("distill-dkd", ds, grid, seed=9, dataset_name="iris")
    text_a = format_report([a], include_time=False)
    text_b = format_report([b], include_time=False)
    ok = text_a == text_b
    verdict(capsys, "determinism", ok,
            f"{len(text_a.encode())} report bytes compared")
