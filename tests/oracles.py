"""Reference implementations the tests check the package against.

Plain numpy written from the formulas: its own softmax, log, soft-label
views and KL losses, sharing no code with the training closures they
check. Only public fuzzykd functions are used; the 50-digit oracles are in
mp_oracles.
"""
from dataclasses import dataclass

import numpy as np

from fuzzykd.basis import apply_monomials, fold_monomials

EPS = 1e-12


def log(p: np.ndarray) -> np.ndarray:
    """log(max(p, EPS)): 0 * log 0 reads 0."""
    return np.log(np.maximum(p, EPS))


def softmax(z: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-wise temperature softmax with max-shift stabilization."""
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    z = np.atleast_2d(np.asarray(z, dtype=float)) / temperature
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, onehot: np.ndarray) -> float:
    """Total cross-entropy -sum_n sum_t onehot * log(max(prob, eps))."""
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    onehot = np.atleast_2d(np.asarray(onehot, dtype=float))
    if probs.shape != onehot.shape:
        raise ValueError("probs and onehot must have the same shape")
    if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("probability rows must sum to 1")
    if ((onehot.sum(axis=1) != 1.0) |
            ~np.isin(onehot, (0.0, 1.0)).all(axis=1)).any():
        raise ValueError("onehot rows must be valid one-hot vectors")
    return float(-(onehot * log(probs)).sum())


@dataclass(frozen=True)
class SoftLabelSet:
    """Temperature-softmax probabilities and their target/non-target split."""

    probs: np.ndarray         # N x C soft labels u
    target_index: np.ndarray  # N true-class indices
    binary: np.ndarray        # N x 2 rows [u_t, 1 - u_t]
    non_target: np.ndarray    # N x (C-1) distribution among non-target classes


def soft_labels(logits: np.ndarray, temperature: float,
                target) -> SoftLabelSet:
    """Temperature softmax plus the decoupled binary / non-target views."""
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    n, c = logits.shape
    target = np.asarray(target, dtype=int)
    u = softmax(logits, temperature)
    rows = np.arange(n)
    u_t = u[rows, target]
    mask = np.ones((n, c), dtype=bool)
    mask[rows, target] = False
    non_target = softmax(logits[mask].reshape(n, c - 1), temperature)
    return SoftLabelSet(u, target, np.column_stack([u_t, 1.0 - u_t]),
                        non_target)


def _check_pair(teacher: SoftLabelSet, student: SoftLabelSet) -> None:
    if teacher.probs.shape != student.probs.shape:
        raise ValueError("teacher and student soft labels disagree on shape")
    if not np.array_equal(teacher.target_index, student.target_index):
        raise ValueError("teacher and student target indices disagree")


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) along the last axis."""
    return (p * (log(p) - log(q))).sum(axis=-1)


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


def class_major_rest(non_target: np.ndarray,
                     target_index: np.ndarray) -> np.ndarray:
    """N x (C-1) non-target distributions laid out class-major, C x N, with
    0 on each sample's target cell."""
    n, c = non_target.shape[0], non_target.shape[1] + 1
    rest = np.zeros((n, c))
    cells = np.ones((n, c), dtype=bool)
    cells[np.arange(n), target_index] = False
    rest[cells] = non_target.ravel()
    return rest.T


def teacher_views(tsl: SoftLabelSet) -> tuple[np.ndarray, np.ndarray]:
    """The (a, rest) of one candidate that _distill_loss_grad takes: the
    teacher's target mass (1 x N) and its non-target distribution laid out
    class-major, 0 on the target cell (1 x C x N)."""
    return (tsl.binary[None, :, 0],
            class_major_rest(tsl.non_target, tsl.target_index)[None])


def basis_labels(order: int, n_features: int) -> list[str]:
    """Names of the order-n basis's columns, in its order, from its
    recursion b_0 = [1], b_n = [1, x_1 b_{n-1}, ..., x_m b_{n-1}]: x2*x1
    is x_2 times the x1 column of b_{n-1}."""
    labels = ["1"]
    for _ in range(order):
        labels = ["1"] + [f"x{i + 1}" if prev == "1" else f"x{i + 1}*{prev}"
                          for i in range(n_features) for prev in labels]
    return labels


def basis_apply(X: np.ndarray, Q: np.ndarray, order: int) -> np.ndarray:
    """expand_matrix(X, order) @ Q through the monomial fold and one Horner
    step, as a model's prediction takes it; N x c."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return apply_monomials(X, fold_monomials(Q, order, X.shape[1]), order)
