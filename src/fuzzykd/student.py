"""Low-order TSK student: linear consequents trained by a quasi-Newton loop.

The student maps the order-1 firing-weighted stacked design row x_h to C
logits z = Q^T x_h and is trained full-batch on a loss summed over
samples, by limited-memory BFGS steps with Armijo backtracking.
gradient_descent_batch is the one training loop: it fits a stack of
candidates in lock step, and a single fit is a batch of one. The one loss
is distill's decoupled loss; the plain cross-entropy fit is its case
zeta = lam = 0, phi = 1 (distill._CE_ONLY), so both live in distill.py.

The loss holds logits class-major, C x N per candidate: one row of N
samples per class, so a softmax's max and sum over the few classes are
elementwise passes over contiguous rows (_softmax_lse), and each loss term
is a log-sum-exp minus linear terms, with no clamped log.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy, ddot

from .basis import basis_dim, stack_design_matrix
from .data import _check_count, _class_indices
from .rules import RuleBase, TSKModel, firing_strengths
from .rules import predict_class as predict_student

STUDENT_ORDER = 1
LBFGS_MEMORY = 10  # curvature pairs kept by the quasi-Newton update
ARMIJO_C1 = 1e-4   # sufficient-decrease constant of the line search
BACKTRACK = 0.5    # step shrink factor after a rejected trial


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch

    def __reduce__(self):
        # rebuilt from the epoch, not from args, which hold the message
        return type(self), (self.epoch,)


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
        _check_count(self.max_epochs, "max_epochs", 1)
        if not self.tol >= 0:
            raise ValueError(f"tol must be non-negative, got {self.tol}")


def init_student(rb: RuleBase, n_classes: int,
                 order: int = STUDENT_ORDER) -> TSKModel:
    """Zero-coefficient student over classes 0..n_classes-1."""
    _check_count(n_classes, "n_classes", 2)
    d = rb.n_rules * basis_dim(order, rb.n_features)
    return TSKModel(rb, np.zeros((d, n_classes)), order,
                    np.arange(n_classes, dtype=float))


def design_matrix(sm: TSKModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return stack_design_matrix(firing_strengths(sm.rule_base, X), X, sm.order)


def _softmax_lse(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over the class axis of class-major logits, in place, and
    their log-sum-exp.

    V is ... x C x N, one column of C logits per sample; it is overwritten
    by the probabilities. Returns them and the ... x N log-sum-exps. A -inf
    cell gets probability 0 and drops out of the log-sum-exp. The max and
    the sum run over the class axis as C - 1 elementwise passes over
    contiguous rows of N samples, so a column's result does not depend on
    what else is stacked beside it.
    """
    mx = V.max(axis=-2, keepdims=True)
    V -= mx
    np.exp(V, out=V)
    lse = V.sum(axis=-2, keepdims=True)
    V /= lse
    np.log(lse, out=lse)
    lse += mx
    return V, lse[..., 0, :]


def _training_data(sm: TSKModel, X: np.ndarray, y_onehot: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Design matrix of X, checked N x C one-hot targets, their indices.

    The training loss checks nothing per call, so targets are validated
    here, once per fit.
    """
    Xh = design_matrix(sm, X)
    Y = np.atleast_2d(np.asarray(y_onehot, dtype=float))
    if Y.shape[0] != Xh.shape[0]:
        raise ValueError("X and y_onehot disagree on the sample count")
    if Y.shape[1] != sm.coeffs.shape[1]:
        raise ValueError(f"y_onehot has {Y.shape[1]} columns, expected one "
                         f"per model output ({sm.coeffs.shape[1]})")
    if ((Y.sum(axis=1) != 1.0) | ~np.isin(Y, (0.0, 1.0)).all(axis=1)).any():
        raise ValueError("onehot rows must be valid one-hot vectors")
    return Xh, Y, Y.argmax(axis=1)


def _finite_logits(XhT: np.ndarray, Q: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """b x C x N class-major logits Q^T Xh^T of the b candidates Q
    (b x D x C), and the mask of those with a non-finite logit.

    XhT is the transposed design matrix. np.matmul takes one gemm per
    candidate, so a candidate's logits do not depend on the batch. A
    non-finite point or an overflowing product gives non-finite logits;
    such a candidate's logits are set to 0 and the training loss gives it
    total inf, so its fit ends with TrainingDiverged. Its product's
    floating-point warnings say nothing more and are not raised.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        logits = np.matmul(Q.transpose(0, 2, 1), XhT)
    overflow = ~np.isfinite(logits).all(axis=(1, 2))
    if overflow.any():
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
    by that cap keeps the last accepted point. A non-finite total ends the
    fit with TrainingDiverged(epoch); other errors propagate. Trial points
    are not checked: loss_grad must give a non-finite total at a
    non-finite point, as the training loss does through _finite_logits.

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
                points.append(fits[i].send((totals[j], grads[j], parts, j)))
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

    Yields each point to evaluate, Q0 first, and is sent (total, grad,
    parts, j): loss_grad's total and grad at that point, and the round's
    parts, whose j-th values are this point's; they are read only if the
    point is accepted. Returns (Q, trace).
    """
    Q = np.array(Q0, dtype=float)
    total, grad, _, _ = yield Q
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
            # a non-finite point (lr = inf times a zero gradient entry)
            # diverges at this epoch through the loss, so its floating-point
            # warnings say nothing more (see _finite_logits)
            with np.errstate(invalid="ignore", over="ignore"):
                trial = Q + step * direction.reshape(Q.shape)
            t_total, t_grad, parts, j = yield trial
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
        trace.append({"epoch": epoch, "total": t_total,
                      **{key: values[j] for key, values in parts.items()}})
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
