"""Decoupled knowledge distillation from the teacher to the student.

The teacher enters as its N x C logits; for the paper's scalar teacher they
are negative distances between its output and each class encoding
(teacher_logits). Teacher and student logits are softened by one function,
_soft_labels, at each candidate's temperature; the KL between the two
splits exactly into a target/non-target binary KL plus the teacher's
non-target mass times the KL among non-target classes. The loss reweights
the two parts and adds the cross-entropy against the ground truth. Coupled
KD is the same loss with per-sample non-target weights, so one closure
trains both and DistillConfig alone checks the weights.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import _check_finite
from .rules import TSKModel
from .student import (EPS, TrainConfig, TrainingDiverged, _finite_logits,
                      _log, _softmax, _sole, _training_data,
                      gradient_descent_batch)


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


def _column(values) -> np.ndarray:
    """One value per candidate, B x 1 x 1, to broadcast against b x n x c."""
    return np.array(values, dtype=float).reshape(-1, 1, 1)


def _target_cells(y_idx: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat (row, target class) cells of n x c logits, and the rest in
    row-major order."""
    target = np.arange(len(y_idx)) * c + y_idx
    return target, np.delete(np.arange(len(y_idx) * c), target)


def _soft_labels(logits, tau, target, others):
    """(u, u_t, rest) of b x n x c logits at the B x 1 x 1 temperatures tau.

    u is their temperature softmax, u_t its target mass (B x n) and rest
    the softmax of the non-target logits alone (B x n x (c-1)), the
    distribution among non-target classes; target and others are the
    _target_cells. With b = 1 the one set of logits is softened at each
    of the B temperatures.
    """
    b, n, c = logits.shape
    u = _softmax(logits, tau)
    # np.take gathers in C order, where fancy indexing may give F order:
    # the rows then sum in a batch of B as in a batch of one
    rest = _softmax(np.take(logits.reshape(b, -1), others, axis=1)
                    .reshape(b, n, c - 1), tau)
    return u, np.take(u.reshape(len(u), -1), target, axis=1), rest


def _distill_loss_grad(Xh, Y, y_idx, a, rest, cfgs):
    """zeta*TCKL + lam*NCKL + phi*H over samples, per candidate.

    Candidate b's teacher has target mass a[b] (n values) and non-target
    distribution rest[b] (n x (C-1)) at its temperature, as _soft_labels
    gives them, and cfgs[b] holds that temperature and the weights; its
    non_target_weight may be per sample. The returned loss_grad(Q, idx)
    serves gradient_descent_batch: it evaluates the b x D x C points Q of
    candidates idx along a leading candidate axis, with one gemm per
    candidate and reductions only along contiguous axes, so each candidate
    gets the values a batch of one gives it. The student's logits are
    softened by the same _soft_labels as the teacher's; per-fit work (the
    flat target/non-target cells, the teacher views' logs and the weights)
    is done once. A candidate whose logits overflow gets total inf (see
    _finite_logits), so its fit diverges.
    """
    n, c = Y.shape
    target, others = _target_cells(y_idx, c)
    per_fit = (_column([cfg.temperature for cfg in cfgs]),
               _column([cfg.target_weight for cfg in cfgs]),
               _column([cfg.ce_weight for cfg in cfgs]),
               np.stack([np.broadcast_to(np.asarray(cfg.non_target_weight,
                                                    dtype=float), (n,))
                         for cfg in cfgs])[:, :, None],
               a, 1.0 - a, _log(a), _log(1.0 - a), rest, _log(rest))

    def loss_grad(Q, idx):
        b = len(Q)
        logits, overflow = _finite_logits(Xh, Q)
        tau, zeta, phi, lam, a, not_a, log_a, log_not_a, t_rest, log_t_rest = (
            per_fit if b == len(cfgs) else [arr[idx] for arr in per_fit])
        u, u_t, s_rest = _soft_labels(logits, tau, target, others)
        tckl = (a * (log_a - _log(u_t)) +
                not_a * (log_not_a - _log(1.0 - u_t))).sum(axis=1)
        p1 = _softmax(logits, 1.0)
        h = -(Y * _log(p1)).reshape(b, -1).sum(axis=1)

        pt = np.minimum(np.maximum(u_t, EPS), 1.0 - EPS)
        coeff = (-a / pt + not_a / (1.0 - pt)) * pt / tau[:, :, 0]
        g = zeta * (coeff[:, :, None] * (Y - u))

        # C = 2: one non-target cell per row, softmax 1, NCKL and grad 0
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
    column per class; they must be finite, and there must be at least two
    classes. Each fit softens them at its own temperature (_soft_labels,
    as the student's), the fits share the design matrix of X, and one
    loss/gradient call per round evaluates them all
    (gradient_descent_batch); the configs must agree on lr, max_epochs and
    tol. With kd_weights, config i's fit trains the
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
    logits = np.asarray(logits, dtype=float)
    _check_finite(logits, "logits")
    if Y.shape[1] < 2:
        raise ValueError(f"distillation needs at least 2 classes, got "
                         f"{Y.shape[1]}")
    _, a, rest = _soft_labels(logits[None],
                              _column([cfg.temperature for cfg in cfgs]),
                              *_target_cells(y_idx, Y.shape[1]))
    if kd_weights is not None:
        cfgs = [replace(cfg, target_weight=w, non_target_weight=w * (1.0 - t))
                for cfg, w, t in zip(cfgs, kd_weights, a, strict=True)]
    Q0 = np.broadcast_to(sm.coeffs, (len(cfgs),) + sm.coeffs.shape)
    outcomes = gradient_descent_batch(
        Q0, _distill_loss_grad(Xh, Y, y_idx, a, rest, cfgs), cfgs[0])
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
