"""Polynomial consequent bases and the firing-weighted stacked design matrix.

Order-n bases are built recursively: b0(x) = [1] and
bn(x) = [1, x_1*b_{n-1}(x), ..., x_m*b_{n-1}(x)] (concatenated over features).
The quadratic and cubic bases are therefore redundant (x_i*x_j appears once
per ordering); ridge regularization keeps the downstream solve well-posed.

The recursion also means a product with the order-n basis never needs it:
`basis_apply` and `basis_adjoint` take one Horner step on the order-(n-1)
basis, holding D(n-1) instead of D(n) doubles per row. When that basis is
the quadratic one, the step runs on its 1 + m + m(m+1)/2 distinct monomials
instead (`quadratic_monomials`): 105 columns instead of 183 at m = 13.
`quadratic_map` gives where each basis column sits among them; the
coefficients stay in the redundant layout.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

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


class QuadraticMap(NamedTuple):
    """Where the columns of the order-2 basis sit among its distinct
    monomials 1, x_1, ..., x_m, then x_i*x_j for i <= j in row-major order.

    Each x_i*x_j with i != j fills two columns, every other monomial one.
    """

    of_column: np.ndarray  # the distinct monomial of each basis column
    first: np.ndarray      # the first column holding each monomial
    copies: np.ndarray     # the other columns, each a monomial's second copy
    copy_of: np.ndarray    # the monomial of each of those copies


@functools.lru_cache(maxsize=None)
def quadratic_map(n_features: int) -> QuadraticMap:
    """The index map of the order-2 basis on m features, built once per m.

    Its arrays are read-only, since every caller shares them.
    """
    m = n_features
    left, right = np.triu_indices(m)
    pair = np.empty((m, m), dtype=np.intp)
    pair[left, right] = pair[right, left] = 1 + m + np.arange(left.size)
    # column 1 + i*(m+1) is x_i*1, the m columns after it x_i*x_1..x_i*x_m
    of_column = np.concatenate(
        [[0], np.column_stack([1 + np.arange(m), pair]).ravel()])
    _, first = np.unique(of_column, return_index=True)
    copies = np.setdiff1d(np.arange(of_column.size), first)
    qmap = QuadraticMap(of_column, first, copies, of_column[copies])
    for a in qmap:
        a.setflags(write=False)
    return qmap


def quadratic_monomials(X: np.ndarray) -> np.ndarray:
    """The N x (1 + m + m(m+1)/2) distinct monomials of the order-2 basis,
    in `quadratic_map` order: expand_matrix(X, 2) is this matrix's
    columns `quadratic_map(m).of_column`.

    Built along the rows of a monomial x N array, one block x_i*x_(i..m)
    per feature, and returned transposed: gathering the columns of an
    N x monomial array, or every row pair at once, took 2-9x as long at
    N = 1,000, m = 13, most when their temporaries faulted in fresh pages.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, m = X.shape
    XT = np.ascontiguousarray(X.T)
    M = np.empty((1 + m + m * (m + 1) // 2, n))
    M[0] = 1.0
    M[1:m + 1] = XT
    start = m + 1
    for i in range(m):
        np.multiply(XT[i], XT[i:], out=M[start:start + m - i])
        start += m - i
    return M.T


def _horner_basis(X: np.ndarray, order: int):
    """(H, qmap): the order-(n-1) basis that a Horner step multiplies by.

    Up to order 1 every basis column is a distinct monomial, so H is that
    basis and qmap is None. The order-2 basis lists each x_i*x_j twice, so
    H holds its distinct monomials and qmap is its `quadratic_map`.
    """
    if order - 1 == 2:
        return quadratic_monomials(X), quadratic_map(X.shape[1])
    return expand_matrix(X, order - 1), None


def basis_apply(X: np.ndarray, Q: np.ndarray, order: int) -> np.ndarray:
    """expand_matrix(X, order) @ Q for a D(order) x c matrix Q; N x c.

    With H = expand_matrix(X, order - 1), Q's rows after the first hold
    one D(n-1) x c block R_i per feature, so the product is
    Q[0] + sum_i x_i * (H R_i): one N x D(n-1) by D(n-1) x (m*c) product.
    On the order-2 basis, R's rows for the two copies of each monomial are
    summed first and the product runs on the distinct monomials.
    """
    _check_count(order, "order", 0, MAX_ORDER)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Q = np.asarray(Q, dtype=float)
    if order == 0:
        return np.repeat(Q[:1], X.shape[0], axis=0)
    (n, m), c = X.shape, Q.shape[1]
    d = basis_dim(order - 1, m)
    R = Q[1:].reshape(m, d, c).transpose(1, 0, 2).reshape(d, m * c)
    H, qmap = _horner_basis(X, order)
    if qmap is not None:
        folded = R[qmap.first]
        folded[qmap.copy_of] += R[qmap.copies]
        R = folded
    return Q[0] + np.einsum("ni,nic->nc", X, (H @ R).reshape(n, m, c))


def basis_adjoint(X: np.ndarray, W: np.ndarray, order: int) -> np.ndarray:
    """expand_matrix(X, order).T @ W for an N x c matrix W; D(order) x c.

    Stacks W's column sums on the rows of H^T (x_i * W), taken over all
    features i at once, with H = expand_matrix(X, order - 1). On the
    order-2 basis the product runs on the distinct monomials, and each
    result row is written to every copy of its monomial.
    """
    _check_count(order, "order", 0, MAX_ORDER)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    W = np.asarray(W, dtype=float)
    if order == 0:
        return W.sum(axis=0, keepdims=True)
    (n, m), c = X.shape, W.shape[1]
    d = basis_dim(order - 1, m)
    H, qmap = _horner_basis(X, order)
    XW = (X[:, :, None] * W[:, None, :]).reshape(n, m * c)
    lower = H.T @ XW
    if qmap is not None:
        lower = lower[qmap.of_column]
    lower = lower.reshape(d, m, c).transpose(1, 0, 2).reshape(m * d, c)
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
