"""Low-order TSK student: linear consequents trained by a quasi-Newton loop.

The student maps the order-1 firing-weighted stacked design row x_h to C
logits z = Q^T x_h and is trained full-batch on the softmax cross-entropy
summed over samples, by limited-memory BFGS steps with Armijo
backtracking. gradient_descent_batch is the one training loop: it fits a
stack of candidates in lock step, and a single fit (train_student, distill)
is a batch of one. The per-epoch trace additionally records the per-sample
mean of each loss component for scale-free monitoring.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.linalg.blas import daxpy, ddot

from .basis import basis_dim, stack_design_matrix
from .data import _class_indices
from .rules import RuleBase, firing_strengths

EPS = 1e-12
STUDENT_ORDER = 1
LBFGS_MEMORY = 10  # curvature pairs kept by the quasi-Newton update
ARMIJO_C1 = 1e-4   # sufficient-decrease constant of the line search
BACKTRACK = 0.5    # step shrink factor after a rejected trial


def _log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, EPS))


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    """Budget and stop rule of the student's training loop.

    lr is the length of the first trial step, Q0 - lr * grad; later steps
    are quasi-Newton steps and do not use it. max_epochs caps the trial
    steps of a fit, one loss/gradient evaluation each; with the evaluation
    at Q0 a fit costs at most max_epochs + 1 evaluations. An epoch is one
    accepted step and takes at least one trial, so max_epochs also caps the
    epochs. The default 59 (60 evaluations) is set by cost, equal to 30
    epochs of fixed-step descent at one gradient and one loss each; it is
    not tuned for accuracy. tol stops the fit once an epoch after the first
    lowers the total loss by tol or less. max_epochs must be an integer and
    tol not nan; lr may be inf (the first trial step then diverges).
    """

    lr: float = 0.01
    max_epochs: int = 59
    tol: float = 1e-5

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError(f"learning rate must be positive, got "
                             f"lr={self.lr}")
        if not isinstance(self.max_epochs, Integral):
            raise ValueError(f"max_epochs must be an integer, got "
                             f"{self.max_epochs!r}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if not self.tol >= 0:
            raise ValueError(f"tol must be non-negative, got {self.tol}")


@dataclass(frozen=True)
class StudentModel:
    rule_base: RuleBase
    coeffs: np.ndarray  # (K * D(order, m)) x C
    n_classes: int
    order: int = STUDENT_ORDER

    def __post_init__(self):
        if not isinstance(self.n_classes, Integral):
            raise ValueError(f"n_classes must be an integer, got "
                             f"{self.n_classes}")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        d = self.rule_base.n_rules * basis_dim(self.order,
                                               self.rule_base.n_features)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (d, self.n_classes):
            raise ValueError(f"coeffs has shape {coeffs.shape}, expected "
                             f"({d}, {self.n_classes})")
        object.__setattr__(self, "coeffs", coeffs)


def init_student(rb: RuleBase, n_classes: int,
                 order: int = STUDENT_ORDER) -> StudentModel:
    """Zero-coefficient student; build a StudentModel to start elsewhere."""
    d = rb.n_rules * basis_dim(order, rb.n_features)
    return StudentModel(rb, np.zeros((d, n_classes)), n_classes, order)


def design_matrix(sm: StudentModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return stack_design_matrix(firing_strengths(sm.rule_base, X), X, sm.order)


def student_logits(sm: StudentModel, X: np.ndarray) -> np.ndarray:
    """N x C logit matrix z = Q^T x_h for each row of X."""
    return design_matrix(sm, X) @ sm.coeffs


def softmax(z: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-wise temperature softmax with max-shift stabilization."""
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    return _softmax(np.atleast_2d(np.asarray(z, dtype=float)), temperature)


def _softmax(z: np.ndarray, temperature) -> np.ndarray:
    """softmax over the last axis, unchecked; temperature may broadcast."""
    z = z / temperature
    # max over a column-major copy: numpy reduces across a few class
    # columns about ten times faster in that layout, copy included
    z = z - np.asfortranarray(z).max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, onehot: np.ndarray) -> float:
    """Total cross-entropy -sum_n sum_t onehot * log(max(prob, eps))."""
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    onehot = np.atleast_2d(np.asarray(onehot, dtype=float))
    if probs.shape != onehot.shape:
        raise ValueError("probs and onehot must have the same shape")
    if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("probability rows must sum to 1")
    _check_onehot(onehot)
    return float(-(onehot * _log(probs)).sum())


def _check_onehot(onehot: np.ndarray) -> None:
    bad = (onehot.sum(axis=1) != 1.0) | ~np.isin(onehot, (0.0, 1.0)).all(axis=1)
    if bad.any():
        raise ValueError("onehot rows must be valid one-hot vectors")


def _training_data(sm: StudentModel, X: np.ndarray, y_onehot: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Design matrix of X, checked N x C one-hot targets, their indices.

    The training losses skip cross_entropy's per-call checks, so targets
    are validated here, once per fit.
    """
    Xh = design_matrix(sm, X)
    Y = np.atleast_2d(np.asarray(y_onehot, dtype=float))
    if Y.shape[0] != Xh.shape[0]:
        raise ValueError("X and y_onehot disagree on the sample count")
    if Y.shape[1] != sm.n_classes:
        raise ValueError(f"y_onehot has {Y.shape[1]} columns, expected "
                         f"{sm.n_classes}")
    _check_onehot(Y)
    return Xh, Y, Y.argmax(axis=1)


def _finite_logits(Xh: np.ndarray, Q: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Logits Xh Q of the b candidates Q, and the mask of those overflowed.

    An overflowed candidate's logits are set to 0; the training losses give
    it total inf, so its fit ends with TrainingDiverged.
    """
    logits = np.matmul(Xh, Q)
    overflow = ~np.isfinite(logits).reshape(len(Q), -1).all(axis=1)
    logits[overflow] = 0.0
    return logits, overflow


def onehot_encode(y: np.ndarray, n_classes: int) -> np.ndarray:
    y = _class_indices(y, n_classes)
    out = np.zeros((y.size, n_classes))
    out[np.arange(y.size), y] = 1.0
    return out


def gradient_descent_batch(Q0, loss_grad, cfg: TrainConfig) -> list:
    """The student's training loop: L-BFGS fits of B candidates in lock step.

    Q0 is B x D x C, one start per candidate; a single fit is a batch of
    one. loss_grad(Q, idx) evaluates the b x D x C points Q of the
    still-running candidates idx (indices into Q0) and returns (totals,
    grads, parts) with a leading b axis, parts mapping each component name
    to b values. Each round evaluates one trial point of every running
    candidate in that one call; each candidate keeps its own curvature
    pairs, line search, stop and divergence, so its fit does not depend on
    the others.

    Each epoch steps along the limited-memory BFGS direction (LBFGS_MEMORY
    curvature pairs; plain -grad on the first epoch) and backtracks by
    BACKTRACK until the total falls by at least ARMIJO_C1 * step * slope.
    The first trial step of a fit is Q0 - cfg.lr * grad; later ones start
    at the full quasi-Newton step. The trace holds one dict per epoch
    (accepted step), so its totals never increase. A fit stops when an
    epoch after the first lowers the total by cfg.tol or less, or after
    cfg.max_epochs trial steps (see TrainConfig); a line search cut short
    by that cap keeps the last accepted point. A non-finite trial point or
    total (as overflowing logits give) ends the fit with
    TrainingDiverged(epoch); other errors propagate.

    Returns, per candidate, (Q, trace) or the TrainingDiverged that ended
    its fit, stored without its traceback so that no frame cycle keeps the
    batch alive.
    """
    fits = [_lbfgs(q, cfg) for q in Q0]
    points = [next(fit) for fit in fits]
    running = list(range(len(fits)))
    outcomes: list = [None] * len(fits)
    while running:
        totals, grads, parts = loss_grad(np.stack(points), np.array(running))
        totals = totals.tolist()
        parts = {key: values.tolist() for key, values in parts.items()}
        still, points = [], []
        for j, i in enumerate(running):
            try:
                points.append(fits[i].send(
                    (totals[j], grads[j],
                     {key: values[j] for key, values in parts.items()})))
                still.append(i)
            except StopIteration as done:
                outcomes[i] = done.value
            except TrainingDiverged as exc:  # no traceback: no frame cycle
                outcomes[i] = exc.with_traceback(None)
        running = still
    return outcomes


def _sole(outcomes: list):
    """The fit of a one-candidate batch; raises its TrainingDiverged."""
    (outcome,) = outcomes
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    return outcome


def _lbfgs(Q0, cfg: TrainConfig):
    """One candidate's gradient_descent_batch loop as a generator.

    Yields each point to evaluate, Q0 first, and is sent loss_grad's
    (total, grad, parts) at that point; returns (Q, trace).
    """
    Q = np.array(Q0, dtype=float)
    total, grad, _ = yield Q
    if not np.isfinite(total):
        raise TrainingDiverged(1)
    pairs: deque = deque(maxlen=LBFGS_MEMORY)
    trace: list[dict] = []
    trials = 0
    while trials < cfg.max_epochs:
        epoch = len(trace) + 1
        g = grad.ravel()
        direction = _lbfgs_direction(g, pairs) if pairs else -g
        slope = ddot(g, direction)
        step = 1.0 if pairs else cfg.lr
        while True:
            trial = Q + step * direction.reshape(Q.shape)
            if not np.isfinite(trial).all():
                raise TrainingDiverged(epoch)
            t_total, t_grad, parts = yield trial
            if not np.isfinite(t_total):
                raise TrainingDiverged(epoch)
            trials += 1
            if t_total <= total + ARMIJO_C1 * step * slope:
                break
            if trials == cfg.max_epochs:
                return Q, trace
            step *= BACKTRACK
        s, y = (trial - Q).ravel(), (t_grad - grad).ravel()
        sy = ddot(s, y)
        if sy > 1e-10 * ddot(y, y):  # keep the inverse Hessian positive
            pairs.append((s, y, 1.0 / sy))
        trace.append({"epoch": epoch, "total": t_total, **parts})
        improvement = total - t_total
        Q, total, grad = trial, t_total, t_grad
        if epoch >= 2 and improvement <= cfg.tol:
            break
    return Q, trace


def _lbfgs_direction(g, pairs):
    """-H g by the two-loop recursion over the stored flat (s, y, 1/sy).

    BLAS ddot/daxpy on the flat vectors: about 2.5 times faster than the
    numpy equivalents at the student's sizes, where call overhead dominates.
    """
    q = np.array(g, dtype=float)  # daxpy updates only float64 arrays in place
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * ddot(s, q)
        daxpy(y, q, a=-a)
        alphas.append(a)
    _, y, rho = pairs[-1]
    q *= 1.0 / (rho * ddot(y, y))  # initial scaling gamma = sy / yy
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        daxpy(s, q, a=a - rho * ddot(y, q))
    return -q


def train_student(sm: StudentModel, X: np.ndarray, y_onehot: np.ndarray,
                  cfg: TrainConfig) -> tuple[StudentModel, list[dict]]:
    """Train on the total softmax cross-entropy (see gradient_descent_batch).

    Returns the trained model and the per-epoch loss trace; each entry has
    the epoch index, the optimized total and the per-sample mean
    cross-entropy "h".
    """
    Xh, Y, _ = _training_data(sm, X, y_onehot)
    n = Xh.shape[0]

    def loss_grad(Q, idx):
        b = len(Q)
        logits, overflow = _finite_logits(Xh, Q)
        p = _softmax(logits, 1.0)
        h = -(Y * _log(p)).reshape(b, -1).sum(axis=1)
        h[overflow] = np.inf
        return h, np.matmul(Xh.T, p - Y), {"h": h / n}

    Q, trace = _sole(gradient_descent_batch(sm.coeffs[None], loss_grad, cfg))
    return StudentModel(sm.rule_base, Q, sm.n_classes, sm.order), trace


def predict_student(sm: StudentModel, X: np.ndarray) -> np.ndarray:
    """Predicted class indices: argmax of the logits."""
    return student_logits(sm, X).argmax(axis=1)
