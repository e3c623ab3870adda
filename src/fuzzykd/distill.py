"""Decoupled knowledge distillation from the teacher to the student.

The teacher enters as its N x C logits; for the paper's scalar teacher they
are negative distances between its output and each class encoding
(teacher_logits). Teacher and student logits are softened by one function,
_soft_labels, at each candidate's temperature, in one stacked pass with the
non-target and temperature-1 softmaxes; the KL between the two splits
exactly into a target/non-target binary KL plus the teacher's non-target
mass times the KL among non-target classes. The loss reweights
the two parts and adds the cross-entropy against the ground truth. Coupled
KD is the same loss with per-sample non-target weights, so one closure
trains both and DistillConfig alone checks the weights.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import _check_finite
from .rules import TSKModel
from .student import (TrainConfig, TrainingDiverged, _finite_logits,
                      _softmax_lse, _sole, _training_data,
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
    """One value per candidate, B x 1 x 1, to broadcast against b x C x N."""
    return np.array(values, dtype=float).reshape(-1, 1, 1)


def _target_mask(y_idx: np.ndarray, c: int) -> np.ndarray:
    """C x N: -inf on each sample's target cell, 0 elsewhere. Added to
    class-major logits it leaves only the non-target classes."""
    mask = np.zeros((c, len(y_idx)))
    mask[y_idx, np.arange(len(y_idx))] = -np.inf
    return mask


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p log p, 0 where p is 0."""
    return p * np.log(np.where(p > 0, p, 1.0))


def _soft_labels(logits, inv_tau, mask):
    """Three softmaxes of b x C x N class-major logits in one stacked pass.

    inv_tau holds B reciprocal temperatures, B x 1 x 1. Returns (P, lse):
    P is B x 3 x C x N, lse their B x 3 x N log-sum-exps (_softmax_lse).
    Slot 0 is the softmax of s = logits * inv_tau (u), slot 1 the softmax
    of s over the non-target classes (r, 0 on the target cell of the
    _target_mask), slot 2 the softmax at temperature 1 (p). With b = 1 the
    one set of logits is softened at each of the B temperatures.
    """
    stack = np.empty((len(inv_tau), 3) + logits.shape[1:])
    np.multiply(logits, inv_tau, out=stack[:, 0])
    np.add(stack[:, 0], mask, out=stack[:, 1])
    stack[:, 2] = logits
    return _softmax_lse(stack)


def _distill_loss_grad(Xh, Y, y_idx, a, rest, cfgs):
    """zeta*TCKL + lam*NCKL + phi*H over samples, per candidate.

    Candidate b's teacher has target mass a[b] (N values) and non-target
    distribution rest[b] (C x N, class-major, 0 on the target cell) at its
    temperature, as _soft_labels gives them, and cfgs[b] holds that
    temperature and the weights; its non_target_weight may be per sample.
    The returned loss_grad(Q, idx) serves gradient_descent_batch: it
    evaluates the b x D x C points Q of candidates idx along a leading
    candidate axis, with one gemm per candidate and reductions that never
    mix candidates, so each candidate gets the values a batch of one gives
    it.

    With s = z / tau the student's logits at its temperature, L, L' and L1
    the log-sum-exps of s, of s over the non-target classes and of z, and
    t the target class, each sample's terms are

        TCKL = H_T + L - (1 - a) L' - a s_t
        NCKL = H_R + L' - sum_c rest_c s_c
        H    = L1 - z_t

    where H_T and H_R are the teacher's binary and non-target negative
    entropies. Their gradient in z is w . (u, r, p) - K, with w = (zeta /
    tau, (lam - zeta (1 - a)) / tau, phi) weighting the student's three
    _soft_labels and K = (zeta a onehot + lam rest) / tau + phi onehot.
    The teacher's entropies, the linear terms' weights, w and K are folded
    once per fit, so a call is one stacked softmax pass and a few
    elementwise ones, with no clamped log. At C = 2 the one non-target
    class makes NCKL and its gradient exactly 0, so lam drops out. A
    candidate whose logits overflow gets total inf (see _finite_logits),
    so its fit diverges.
    """
    n, c = Y.shape
    XhT, onehot = np.ascontiguousarray(Xh.T), np.ascontiguousarray(Y.T)
    mask = _target_mask(y_idx, c)
    # s = z * (1 / tau): the linear terms' weights carry the same factor,
    # so at C = 2 the non-target ones cancel exactly
    inv_tau = 1.0 / _column([cfg.temperature for cfg in cfgs])
    zeta = _column([cfg.target_weight for cfg in cfgs])
    phi = _column([cfg.ce_weight for cfg in cfgs])
    lam = np.stack([np.broadcast_to(np.asarray(cfg.non_target_weight,
                                               dtype=float), (n,))
                    for cfg in cfgs])[:, None, :] * (c > 2)
    a = np.asarray(a, dtype=float)[:, None, :]
    not_a = 1.0 - a

    def stack(*terms):  # B x 3 x ... x N, one slot per term
        return np.stack(np.broadcast_arrays(*terms), axis=1)

    # weights on z of the linear terms a s_t, sum_c rest_c s_c and z_t
    lin_w = stack(a * onehot * inv_tau, rest * inv_tau, onehot)
    row_w = stack(zeta, lam, phi)
    per_fit = (inv_tau, not_a[:, 0], lin_w,
               stack(_xlogx(a) + _xlogx(not_a),
                     _xlogx(rest).sum(axis=1, keepdims=True), 0.0)[:, :, 0],
               row_w[:, :, 0],
               stack(zeta * inv_tau, (lam - zeta * not_a) * inv_tau,
                     phi)[:, :, 0],
               (row_w * lin_w).sum(axis=1))

    def loss_grad(Q, idx):
        logits, overflow = _finite_logits(XhT, Q)
        inv_tau, not_a, lin_w, ent, row_w, prob_w, K = (
            per_fit if len(Q) == len(cfgs) else [arr[idx] for arr in per_fit])
        rows = -np.einsum("bkcn,bcn->bkn", lin_w, logits)
        P, lse = _soft_labels(logits, inv_tau, mask)
        rows += lse
        rows += ent
        rows[:, 0] -= not_a * lse[:, 1]  # rows: TCKL, NCKL, H per sample
        total = (row_w * rows).sum(axis=2).sum(axis=1)
        total[overflow] = np.inf
        G = np.einsum("bkn,bkcn->bcn", prob_w, P)
        G -= K
        parts = rows.sum(axis=2) / n
        return total, np.matmul(G, Xh).transpose(0, 2, 1), {
            "tckl": parts[:, 0], "nckl": parts[:, 1], "h": parts[:, 2]}

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
    P, _ = _soft_labels(logits.T[None],
                        1.0 / _column([cfg.temperature for cfg in cfgs]),
                        _target_mask(y_idx, Y.shape[1]))
    a, rest = (P[:, 0] * Y.T).sum(axis=1), P[:, 1]
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
