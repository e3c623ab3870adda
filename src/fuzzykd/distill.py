"""Decoupled knowledge distillation from the teacher to the student.

The teacher enters as its N x C logits; for the paper's scalar teacher they
are negative distances between its output and each class encoding
(teacher_logits). Both sides are softened with the same temperature; the
KL between them splits exactly into a target/non-target binary KL plus the
teacher's non-target mass times the KL among non-target classes. The loss
reweights the two parts and adds the cross-entropy against the ground truth.
Coupled KD is the same loss with per-sample non-target weights, so one
closure trains both and DistillConfig alone checks the weights.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import _check_finite, _class_indices
from .rules import TSKModel
from .student import (EPS, TrainConfig, TrainingDiverged, _finite_logits,
                      _log, _softmax, _sole, _training_data,
                      gradient_descent_batch, softmax)


@dataclass(frozen=True)
class DistillConfig(TrainConfig):
    """Distillation weights on top of the base training loop parameters.

    non_target_weight may be a per-sample array (used e.g. to reweight by
    the teacher's non-target mass). The temperature and every weight must
    be finite, and the three weights must not all be zero.
    """
    temperature: float = 2.0
    target_weight: float = 1.0
    non_target_weight: float | np.ndarray = 2.0
    ce_weight: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be positive and finite, got "
                             f"{self.temperature}")
        lam = np.asarray(self.non_target_weight, dtype=float)
        for name, w in (("target_weight", self.target_weight),
                        ("non_target_weight", lam),
                        ("ce_weight", self.ce_weight)):
            if not np.all((0 <= w) & (w < np.inf)):
                raise ValueError(f"{name} must be finite and non-negative")
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
    _check_finite(logits, "logits")
    n, c = logits.shape
    if c < 2:
        raise ValueError(f"soft labels need at least 2 classes, got {c}")
    target = _class_indices(target, c, "target index")
    if target.size != n:
        raise ValueError("target must give one class index per row")
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
    """KL(p || q) along the last axis."""
    return (p * (_log(p) - _log(q))).sum(axis=-1)


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


def _distill_loss_grad(Xh, Y, y_idx, teachers, cfgs):
    """zeta*TCKL + lam*NCKL + phi*H over samples, per candidate.

    Candidate b has teacher soft labels teachers[b] and temperature and
    weights cfgs[b]; its non_target_weight may be per sample. The returned
    loss_grad(Q, idx) serves gradient_descent_batch: it evaluates the
    b x D x C points Q of candidates idx along a leading candidate axis,
    with one gemm per candidate and reductions only along contiguous axes,
    so each candidate gets the values a batch of one gives it. Per-fit work
    (flat target/non-target indices, stacked teacher views, their logs and
    the weights) is done once. TCKL and NCKL are written out here from
    their formulas: the closure shares no KL code with the kd_loss and
    dkd_loss oracles that tests check it against. A candidate whose logits
    overflow gets total inf (see _finite_logits), so its fit diverges.
    """
    n, c = Y.shape
    target = np.arange(n) * c + y_idx  # flat (row, target class) cells
    others = np.delete(np.arange(n * c), target)  # the rest, row-major

    def column(values):  # B x 1 x 1, to broadcast against b x n x c
        return np.array(values, dtype=float).reshape(len(cfgs), 1, 1)

    a = np.stack([t.binary[:, 0] for t in teachers])  # teacher target mass
    rest = np.stack([t.non_target for t in teachers])
    per_fit = (column([cfg.temperature for cfg in cfgs]),
               column([cfg.target_weight for cfg in cfgs]),
               column([cfg.ce_weight for cfg in cfgs]),
               np.stack([np.broadcast_to(np.asarray(cfg.non_target_weight,
                                                    dtype=float), (n,))
                         for cfg in cfgs])[:, :, None],
               a, 1.0 - a, _log(a), _log(1.0 - a), rest, _log(rest))

    def loss_grad(Q, idx):
        b = len(Q)
        logits, overflow = _finite_logits(Xh, Q)
        tau, zeta, phi, lam, a, not_a, log_a, log_not_a, t_rest, log_t_rest = (
            per_fit if b == len(cfgs) else [arr[idx] for arr in per_fit])
        u = _softmax(logits, tau)
        u_t = u.reshape(b, -1)[:, target]
        tckl = (a * (log_a - _log(u_t)) +
                not_a * (log_not_a - _log(1.0 - u_t))).sum(axis=1)
        p1 = _softmax(logits, 1.0)
        h = -(Y * _log(p1)).reshape(b, -1).sum(axis=1)

        pt = np.minimum(np.maximum(u_t, EPS), 1.0 - EPS)
        coeff = (-a / pt + not_a / (1.0 - pt)) * pt / tau[:, :, 0]
        g = zeta * (coeff[:, :, None] * (Y - u))

        # C = 2: one non-target cell per row, softmax 1, NCKL and grad 0
        s_rest = _softmax(logits.reshape(b, -1)[:, others]
                          .reshape(b, n, c - 1), tau)
        nckl_rows = (t_rest * (log_t_rest - _log(s_rest))).sum(axis=-1)
        g.reshape(b, -1)[:, others] += (
            lam * ((s_rest - t_rest) / tau)).reshape(b, -1)
        g += phi * (p1 - Y)
        total = (zeta[:, 0, 0] * tckl +
                 (lam[:, :, 0] * nckl_rows).sum(axis=1) + phi[:, 0, 0] * h)
        total[overflow] = np.inf
        return total, np.matmul(Xh.T, g), {
            "tckl": tckl / n, "nckl": nckl_rows.sum(axis=1) / n, "h": h / n}

    return loss_grad


def distill(teacher_out: np.ndarray, sm: TSKModel, X: np.ndarray,
            y_onehot: np.ndarray, cfg: DistillConfig,
            class_labels: np.ndarray | None = None,
            kd_weight: float | None = None
            ) -> tuple[TSKModel, list[dict]]:
    """Train the student on the decoupled loss (frozen teacher soft labels).

    teacher_out holds the fitted teacher's scalar outputs on X, turned into
    logits by teacher_logits (class_labels 0..C-1 by default). The teacher
    soft labels are computed once; the student's are recomputed from its
    current logits every epoch. The optimized total is summed over samples;
    the trace components (tckl, nckl, h) are per-sample means for
    scale-free monitoring. Returns the trained model and a per-epoch trace
    of (epoch, tckl, nckl, h, total). A float kd_weight trains the coupled
    loss instead. The one-config case of distill_batch.
    """
    labels = sm.class_labels if class_labels is None else class_labels
    return _sole(distill_batch(teacher_logits(teacher_out, labels), sm,
                               X, y_onehot, [cfg],
                               None if kd_weight is None else [kd_weight]))


def distill_batch(logits: np.ndarray, sm: TSKModel, X: np.ndarray,
                  y_onehot: np.ndarray, cfgs: list[DistillConfig],
                  kd_weights: list[float] | None = None) -> list:
    """distill from sm once per config, all fits in lock step.

    logits holds the teacher's logits on X, one row per row of X and one
    column per class. The fits share the design matrix of X and the teacher
    soft labels of each temperature, and one loss/gradient call per round
    evaluates them all (gradient_descent_batch); the configs must agree on
    lr, max_epochs and tol. With kd_weights, config i's fit trains the
    coupled loss w*KL + ce_weight*H at w = kd_weights[i], the baseline for
    ablation: per sample, KL(u_T || u_S) = TCKL + (1 - u_t) * NCKL (u_t:
    teacher target mass), so the fit runs at target weight w and per-sample
    non-target weight w * (1 - u_t) in place of the config's two KL weights.
    Returns, per config, (model, trace) or the TrainingDiverged that ended
    its fit; each equals its one-config run.
    """
    if len({(cfg.lr, cfg.max_epochs, cfg.tol) for cfg in cfgs}) != 1:
        raise ValueError("need at least one config, all with the same lr, "
                         "max_epochs and tol")
    Xh, Y, y_idx = _training_data(sm, X, y_onehot)
    for cfg in cfgs:
        if np.shape(cfg.non_target_weight) not in ((), (len(Y),)):
            raise ValueError(f"non_target_weight has "
                             f"{np.size(cfg.non_target_weight)} values, "
                             f"expected one per row ({len(Y)})")
    if np.shape(logits) != Y.shape:
        raise ValueError(f"teacher logits have shape {np.shape(logits)}, "
                         f"expected {Y.shape}: one row per sample, one "
                         f"column per class")
    at_tau = {tau: soft_labels(logits, tau, y_idx)
              for tau in dict.fromkeys(cfg.temperature for cfg in cfgs)}
    teachers = [at_tau[cfg.temperature] for cfg in cfgs]
    if kd_weights is not None:
        cfgs = [replace(cfg, target_weight=w,
                        non_target_weight=w * t.binary[:, 1])
                for cfg, w, t in zip(cfgs, kd_weights, teachers, strict=True)]
    Q0 = np.broadcast_to(sm.coeffs, (len(cfgs),) + sm.coeffs.shape)
    outcomes = gradient_descent_batch(
        Q0, _distill_loss_grad(Xh, Y, y_idx, teachers, cfgs), cfgs[0])
    return [out if isinstance(out, TrainingDiverged) else
            (replace(sm, coeffs=out[0]), out[1]) for out in outcomes]


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
