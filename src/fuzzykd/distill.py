"""Decoupled knowledge distillation from the teacher to the student.

Teacher logits are negative distances between the scalar teacher output and
each class encoding. Both sides are softened with the same temperature; the
KL between them splits exactly into a target/non-target binary KL plus the
teacher's non-target mass times the KL among non-target classes. The loss
reweights the two parts and adds the cross-entropy against the ground truth.
Coupled KD is the same loss with per-sample non-target weights, so one
closure trains both and DistillConfig alone checks the weights.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .student import (EPS, StudentModel, TrainConfig, _cross_entropy,
                      _training_data, gradient_descent, softmax)


@dataclass(frozen=True)
class DistillConfig(TrainConfig):
    """Distillation weights on top of the base training loop parameters.

    non_target_weight may be a per-sample array (used e.g. to reweight by
    the teacher's non-target mass); the three weights must not all be zero.
    """
    temperature: float = 2.0
    target_weight: float = 1.0
    non_target_weight: float | np.ndarray = 2.0
    ce_weight: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        lam = np.asarray(self.non_target_weight, dtype=float)
        if (lam < 0).any() or self.target_weight < 0 or self.ce_weight < 0:
            raise ValueError("distillation weights must be non-negative")
        if self.target_weight == 0 and self.ce_weight == 0 and not lam.any():
            raise ValueError("at least one loss weight must be non-zero")


@dataclass(frozen=True)
class SoftLabelSet:
    """Temperature-softmax probabilities and their target/non-target split."""

    probs: np.ndarray         # N x C soft labels u
    target_index: np.ndarray  # N true-class indices
    binary: np.ndarray        # N x 2 rows [u_t, 1 - u_t]
    non_target: np.ndarray    # N x (C-1) distribution among non-target classes


def teacher_logits(y_teacher: np.ndarray,
                   class_labels: np.ndarray) -> np.ndarray:
    """N x C logits: negative distance from the teacher output to each label."""
    class_labels = np.asarray(class_labels, dtype=float).ravel()
    if class_labels.size == 0:
        raise ValueError("class_labels must be non-empty")
    if not (np.diff(class_labels) > 0).all():
        raise ValueError("class_labels must be strictly increasing")
    y = np.asarray(y_teacher, dtype=float).ravel()
    return -np.abs(y[:, None] - class_labels[None, :])


def soft_labels(logits: np.ndarray, temperature: float,
                target: np.ndarray) -> SoftLabelSet:
    """Temperature softmax plus the decoupled binary / non-target views."""
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    if not np.isfinite(logits).all():
        raise ValueError("logits must be finite")
    target = np.asarray(target, dtype=int).ravel()
    if target.size != logits.shape[0]:
        raise ValueError("target must give one class index per row")
    n, c = logits.shape
    if c < 2:
        raise ValueError(f"soft labels need at least 2 classes, got {c}")
    u = softmax(logits, temperature)
    rows = np.arange(n)
    u_t = u[rows, target]
    binary = np.column_stack([u_t, 1.0 - u_t])
    mask = np.ones((n, c), dtype=bool)
    mask[rows, target] = False
    z_hat = logits[mask].reshape(n, c - 1)
    non_target = softmax(z_hat, temperature)
    return SoftLabelSet(u, target, binary, non_target)


def _check_pair(teacher: SoftLabelSet, student: SoftLabelSet) -> None:
    if teacher.probs.shape != student.probs.shape:
        raise ValueError("teacher and student soft labels disagree on shape")
    if not np.array_equal(teacher.target_index, student.target_index):
        raise ValueError("teacher and student target indices disagree")


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return (p * (np.log(np.maximum(p, EPS)) -
                 np.log(np.maximum(q, EPS)))).sum(axis=1)


def kd_loss(teacher: SoftLabelSet, student: SoftLabelSet) -> float:
    """Mean KL(u_teacher || u_student) over samples."""
    _check_pair(teacher, student)
    return float(_kl_rows(teacher.probs, student.probs).mean())


def dkd_loss(teacher: SoftLabelSet,
             student: SoftLabelSet) -> tuple[float, float]:
    """Mean target-class KL and mean non-target-class KL.

    The non-target part is exactly 0 for two-class problems, where the
    non-target distribution is the single point mass.
    """
    _check_pair(teacher, student)
    tckl = float(_kl_rows(teacher.binary, student.binary).mean())
    nckl = float(_kl_rows(teacher.non_target, student.non_target).mean())
    return tckl, nckl


def _distill_loss_grad(Xh, Y, y_idx, teacher_sl, cfg, zeta, lam, phi):
    """zeta*TCKL + lam*NCKL + phi*H over samples; per-fit work done once."""
    n, c = Y.shape
    rows = np.arange(n)
    tau = cfg.temperature
    lam_col = np.broadcast_to(np.reshape(lam, (-1, 1)), (n, 1))
    non_target = np.ones((n, c), dtype=bool)
    non_target[rows, y_idx] = False
    a = teacher_sl.binary[:, 0]

    def loss_grad(Q):
        logits = Xh @ Q
        if not np.isfinite(logits).all():
            return np.inf, None, {}  # overflow: gradient_descent diverges
        u = softmax(logits, tau)
        u_t = u[rows, y_idx]
        tckl_rows = _kl_rows(teacher_sl.binary,
                             np.column_stack([u_t, 1.0 - u_t]))
        p1 = softmax(logits)
        h = _cross_entropy(p1, Y)

        pt = np.clip(u_t, EPS, 1.0 - EPS)
        coeff = (-a / pt + (1.0 - a) / (1.0 - pt)) * pt / tau
        g_tckl = coeff[:, None] * (Y - u)

        g_nckl = np.zeros((n, c))
        if c > 2:
            s_rest = softmax(logits[non_target].reshape(n, c - 1), tau)
            nckl_rows = _kl_rows(teacher_sl.non_target, s_rest)
            g_nckl[non_target] = (s_rest - teacher_sl.non_target).ravel()
            g_nckl /= tau
        else:
            nckl_rows = np.zeros(n)

        g_h = p1 - Y
        g = zeta * g_tckl + lam_col * g_nckl + phi * g_h
        grad = Xh.T @ g
        total = (zeta * float(tckl_rows.sum()) +
                 float((lam_col[:, 0] * nckl_rows).sum()) + phi * h)
        return total, grad, {"tckl": float(tckl_rows.mean()),
                             "nckl": float(nckl_rows.mean()), "h": h / n}

    return loss_grad


def distill(teacher_out: np.ndarray, sm: StudentModel, X: np.ndarray,
            y_onehot: np.ndarray, cfg: DistillConfig,
            class_labels: np.ndarray | None = None
            ) -> tuple[StudentModel, list[dict]]:
    """Train the student on the decoupled loss (frozen teacher soft labels).

    teacher_out holds the fitted teacher's scalar outputs on X. The teacher
    soft labels are computed once; the student's are recomputed from its
    current logits every epoch. The optimized total is summed over samples;
    the trace components (tckl, nckl, h) are per-sample means for
    scale-free monitoring. Returns the trained model and a per-epoch trace
    of (epoch, tckl, nckl, h, total).
    """
    return _fit(teacher_out, sm, X, y_onehot, cfg, class_labels, None)


def vanilla_kd_distill(teacher_out: np.ndarray, sm: StudentModel,
                       X: np.ndarray, y_onehot: np.ndarray,
                       cfg: DistillConfig, kd_weight: float = 1.0,
                       class_labels: np.ndarray | None = None
                       ) -> tuple[StudentModel, list[dict]]:
    """Train the student on the coupled loss kd_weight*KL + ce_weight*H.

    Baseline for ablation against distill. Per sample, KL(u_T || u_S) =
    TCKL + (1 - u_t) * NCKL (u_t: teacher target mass), so this runs
    distill's fit at target weight kd_weight and per-sample non-target
    weight kd_weight * (1 - u_t) in place of cfg's two KL weights; the trace
    rows are distill's. DistillConfig checks these weights, as for distill.
    """
    return _fit(teacher_out, sm, X, y_onehot, cfg, class_labels, kd_weight)


def _fit(teacher_out, sm, X, y_onehot, cfg, class_labels, kd_weight):
    """distill's fit; kd_weight w (not None) sets the coupled KL's weights."""
    Xh, Y, y_idx = _prepare(sm, X, y_onehot)
    if class_labels is None:
        class_labels = np.arange(Y.shape[1], dtype=float)
    teacher_sl = soft_labels(teacher_logits(teacher_out, class_labels),
                             cfg.temperature, y_idx)
    if kd_weight is not None:
        cfg = replace(cfg, target_weight=kd_weight,
                      non_target_weight=kd_weight * teacher_sl.binary[:, 1])
    loss_grad = _distill_loss_grad(Xh, Y, y_idx, teacher_sl, cfg,
                                   cfg.target_weight, cfg.non_target_weight,
                                   cfg.ce_weight)
    Q, trace = gradient_descent(sm.coeffs, loss_grad, cfg)
    return StudentModel(sm.rule_base, Q, sm.n_classes, sm.order), trace


def _prepare(sm: StudentModel, X, y_onehot):
    Xh, Y = _training_data(sm, X, y_onehot)
    return Xh, Y, Y.argmax(axis=1)


def trace_lines(trace: list[dict]) -> list[str]:
    """One text line per epoch: epoch, tckl/nckl/h where present, total."""
    lines = []
    for row in trace:
        keys = [k for k in ("tckl", "nckl", "h") if k in row]
        parts = [f"epoch={row['epoch']}"]
        parts += [f"{k}={row[k]:.12g}" for k in keys]
        parts.append(f"total={row['total']:.12g}")
        lines.append(" ".join(parts))
    return lines
