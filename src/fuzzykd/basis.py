"""Polynomial consequent bases and the firing-weighted stacked design matrix.

Order-n bases are built recursively: b0(x) = [1] and
bn(x) = [1, x_1*b_{n-1}(x), ..., x_m*b_{n-1}(x)] (concatenated over features).
The quadratic and cubic bases are therefore redundant (x_i*x_j appears once
per ordering); ridge regularization keeps the downstream solve well-posed.

The recursion also means a product with the order-n basis never needs it:
`basis_apply` and `basis_adjoint` take one Horner step on the order-(n-1)
basis, holding D(n-1) instead of D(n) doubles per row.
"""
from __future__ import annotations

import numpy as np

from .data import _check_count

MAX_ORDER = 3


def basis_dim(order: int, n_features: int) -> int:
    """Length of the order-n basis: D(0)=1, D(n)=1+m*D(n-1)."""
    _check_count(order, "order", 0, MAX_ORDER)
    d = 1
    for _ in range(order):
        d = 1 + n_features * d
    return d


def expand_basis(x: np.ndarray, order: int) -> np.ndarray:
    """Order-n consequent basis vector for a single sample."""
    x = np.asarray(x, dtype=float).ravel()
    return expand_matrix(x[None, :], order)[0]


def expand_matrix(X: np.ndarray, order: int) -> np.ndarray:
    """Row-wise order-n basis for an N x m matrix; returns N x D(order, m)."""
    _check_count(order, "order", 0, MAX_ORDER)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, m = X.shape
    ones = np.ones((n, 1))
    B = ones
    for _ in range(order):
        B = np.concatenate(
            [ones, (X[:, :, None] * B[:, None, :]).reshape(n, m * B.shape[1])],
            axis=1)
    return B


def basis_apply(X: np.ndarray, Q: np.ndarray, order: int) -> np.ndarray:
    """expand_matrix(X, order) @ Q for a D(order) x c matrix Q; N x c.

    With H = expand_matrix(X, order - 1), Q's rows after the first hold
    one D(n-1) x c block R_i per feature, so the product is
    Q[0] + sum_i x_i * (H R_i): one N x D(n-1) by D(n-1) x (m*c) product.
    """
    _check_count(order, "order", 0, MAX_ORDER)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Q = np.asarray(Q, dtype=float)
    if order == 0:
        return np.repeat(Q[:1], X.shape[0], axis=0)
    H = expand_matrix(X, order - 1)
    (n, m), d, c = X.shape, H.shape[1], Q.shape[1]
    R = Q[1:].reshape(m, d, c).transpose(1, 0, 2).reshape(d, m * c)
    return Q[0] + np.einsum("ni,nic->nc", X, (H @ R).reshape(n, m, c))


def basis_adjoint(X: np.ndarray, W: np.ndarray, order: int) -> np.ndarray:
    """expand_matrix(X, order).T @ W for an N x c matrix W; D(order) x c.

    Stacks W's column sums on the rows of H^T (x_i * W), taken over all
    features i at once, with H = expand_matrix(X, order - 1).
    """
    _check_count(order, "order", 0, MAX_ORDER)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    W = np.asarray(W, dtype=float)
    if order == 0:
        return W.sum(axis=0, keepdims=True)
    H = expand_matrix(X, order - 1)
    (n, m), d, c = X.shape, H.shape[1], W.shape[1]
    XW = (X[:, :, None] * W[:, None, :]).reshape(n, m * c)
    lower = (H.T @ XW).reshape(d, m, c).transpose(1, 0, 2).reshape(m * d, c)
    return np.concatenate([W.sum(axis=0, keepdims=True), lower])


def basis_labels(order: int, n_features: int) -> list[str]:
    """Human-readable monomial names in basis order, for rule readout."""
    _check_count(order, "order", 0, MAX_ORDER)
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
