"""Polynomial consequent bases and the firing-weighted stacked design matrix.

Order-n bases are built recursively: b0(x) = [1] and
bn(x) = [1, x_1*b_{n-1}(x), ..., x_m*b_{n-1}(x)] (concatenated over features).
The quadratic and cubic bases are therefore redundant (x_i*x_j appears once
per ordering); ridge regularization keeps the downstream solve well-posed.
"""
from __future__ import annotations

import numpy as np

MAX_ORDER = 3


def basis_dim(order: int, n_features: int) -> int:
    """Length of the order-n basis: D(0)=1, D(n)=1+m*D(n-1)."""
    _check_order(order)
    d = 1
    for _ in range(order):
        d = 1 + n_features * d
    return d


def _check_order(order: int) -> None:
    if order not in range(MAX_ORDER + 1):
        raise ValueError(f"order must be in 0..{MAX_ORDER}, got {order}")


def expand_basis(x: np.ndarray, order: int) -> np.ndarray:
    """Order-n consequent basis vector for a single sample."""
    x = np.asarray(x, dtype=float).ravel()
    return expand_matrix(x[None, :], order)[0]


def expand_matrix(X: np.ndarray, order: int) -> np.ndarray:
    """Row-wise order-n basis for an N x m matrix; returns N x D(order, m)."""
    _check_order(order)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, m = X.shape
    ones = np.ones((n, 1))
    B = ones
    for _ in range(order):
        B = np.concatenate(
            [ones, (X[:, :, None] * B[:, None, :]).reshape(n, m * B.shape[1])],
            axis=1)
    return B


def basis_labels(order: int, n_features: int) -> list[str]:
    """Human-readable monomial names in basis order, for rule readout."""
    _check_order(order)
    labels = ["1"]
    for _ in range(order):
        labels = ["1"] + [f"x{i + 1}" if prev == "1" else f"x{i + 1}*{prev}"
                          for i in range(n_features) for prev in labels]
    return labels


def stack_design_matrix(firing: np.ndarray, X: np.ndarray,
                        order: int) -> np.ndarray:
    """Firing-weighted stacked design matrix, N x (K * D(order, m)).

    Row n concatenates, over rules k, the order-n basis of x_n scaled by the
    normalized firing strength of rule k. The flat layout is rule-major:
    coefficient j of rule k sits at offset k*D + j.
    """
    firing = np.atleast_2d(np.asarray(firing, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if firing.shape[0] != X.shape[0]:
        raise ValueError(f"firing has {firing.shape[0]} rows, X has "
                         f"{X.shape[0]}")
    B = expand_matrix(X, order)
    n, k, d = X.shape[0], firing.shape[1], B.shape[1]
    return (firing[:, :, None] * B[:, None, :]).reshape(n, k * d)
