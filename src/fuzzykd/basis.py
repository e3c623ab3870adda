"""Polynomial consequent bases and the firing-weighted stacked design matrix.

Order-n bases are built recursively: b0(x) = [1] and
bn(x) = [1, x_1*b_{n-1}(x), ..., x_m*b_{n-1}(x)] (concatenated over features).
The quadratic and cubic bases are therefore redundant (x_i*x_j appears once
per ordering); ridge regularization keeps the downstream solve well-posed.

Products with the basis never build it. `monomial_map(n, m)` lays out its
C(m+n, n) distinct monomials: the constant, then the monomials grouped by
their smallest index, largest index first. The monomials whose indices are
all >= i are then a prefix of the layout, and the group of index i is x_i
times such a prefix of the order-(n-1) layout, so each monomial is formed
once, by one product. `fold_monomials` sums a coefficient matrix's rows
over the copies of each monomial, once per model; `apply_monomials` (B Q)
and `basis_adjoint` (B^T W) take one Horner step on the order-(n-1)
monomials. At order 3 and m = 13 that is 559 multiply-adds per row and
output column instead of the basis's 2,380, and at order 1 it is
Q[0] + X @ Q[1:]. The coefficients themselves stay in the redundant layout.
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


class MonomialMap(NamedTuple):
    """The distinct monomials of the order-n basis on m features, by slot.

    Slot 0 is the constant. The other slots group the monomials by their
    smallest index i, from i = m-1 down to 0, and group i is x_i times the
    first slots of the order-(n-1) map, those whose indices are all >= i,
    in their order. Here too those slots come first.
    """

    prefix: tuple        # m+1 counts: the first prefix[i] slots have every
    #                      index >= i, so group i is prefix[i+1]:prefix[i]
    slot: np.ndarray     # the slot of each basis column
    by_slot: np.ndarray  # the basis columns sorted by slot, stably
    starts: np.ndarray   # the position in by_slot of each slot's first copy


@functools.lru_cache(maxsize=None, typed=True)
def monomial_map(order: int, n_features: int) -> MonomialMap:
    """The monomial layout of the order-n basis on m features, built once
    per (order, m) and type, so a float order is checked, never served
    from the cache. Its arrays are read-only, since every caller shares
    them."""
    _check_count(order, "order", 0, MAX_ORDER)
    m = n_features
    slot, sizes = np.zeros(1, dtype=np.intp), (0,) * m
    if order > 0:
        low = monomial_map(order - 1, m)
        index = {mono: s for s, mono in enumerate(_monomial_factors(order, m))}
        # the slot of x_i times each order-(n-1) slot, then of each column
        times = np.array([[index[tuple(sorted((i,) + mono))]
                           for mono in _monomial_factors(order - 1, m)]
                          for i in range(m)])
        slot = np.concatenate([slot, times[:, low.slot].ravel()])
        sizes = low.prefix[:m]
    prefix = tuple(1 + sum(sizes[i:]) for i in range(m + 1))
    by_slot = np.argsort(slot, kind="stable")
    starts = np.flatnonzero(np.diff(slot[by_slot], prepend=-1))
    for a in (slot, by_slot, starts):
        a.setflags(write=False)
    return MonomialMap(prefix, slot, by_slot, starts)


@functools.lru_cache(maxsize=None)
def _monomial_factors(order: int, n_features: int) -> tuple:
    """The ascending indices of each slot's monomial, in map order."""
    if order == 0:
        return ((),)
    low = _monomial_factors(order - 1, n_features)
    return ((),) + tuple((i,) + mono for i in range(n_features - 1, -1, -1)
                         for mono in low if not mono or mono[0] >= i)


def fold_monomials(Q: np.ndarray, order: int, n_features: int) -> np.ndarray:
    """Q's rows summed over the copies of each monomial, in slot order.

    Q is D(order) x c; the result C has one row per slot of
    `monomial_map(order, m)`, and apply_monomials(X, C, order) is
    expand_matrix(X, order) @ Q.
    """
    mmap = monomial_map(order, n_features)
    Q = np.asarray(Q, dtype=float)
    if Q.shape[0] != mmap.slot.size:
        raise ValueError(f"Q has {Q.shape[0]} rows, the order-{order} basis "
                         f"on {n_features} features {mmap.slot.size}")
    return np.add.reduceat(Q[mmap.by_slot], mmap.starts, axis=0)


def _horner_rows(XT: np.ndarray, order: int, c: int):
    """(H, M, split): what one Horner step with c columns multiplies by.

    XT is m x N. Group i, the monomials with smallest index i, is x_i
    times the first rows of H, the order-(n-1) monomials. Scaling those
    rows by x_i costs one product per monomial of the group, scaling the
    c columns of their matrix product instead costs c. So the features
    i < split, whose groups hold more than c monomials, scale the product,
    and the other groups are formed here: M holds the first prefix[split]
    order-n monomials, the constant first. H is None at order 0.
    """
    m, n = XT.shape
    prefix = monomial_map(order, m).prefix
    split = sum(prefix[i] - prefix[i + 1] > c for i in range(m))
    H, M = None, np.ones((1, n))
    if order:  # the order-1 monomials: 1, then x_m, ..., x_1
        H, M = M, np.concatenate([M, XT[::-1]])
    for level in range(2, order + 1):
        p = monomial_map(level, m).prefix
        stop = split if level == order else 0
        H, M = M, np.empty((p[stop], n))
        M[0] = 1.0
        for i in range(stop, m):
            np.multiply(XT[i], H[:p[i] - p[i + 1]], out=M[p[i + 1]:p[i]])
    return H, M, split


def apply_monomials(X: np.ndarray, C: np.ndarray, order: int) -> np.ndarray:
    """expand_matrix(X, order) @ Q for C = fold_monomials(Q, order, m); N x c.

    The sum over monomials of each one times its row of C, in two parts
    (`_horner_rows`): one matrix product with the monomials M, then for
    each feature i < split, x_i times the product of its group's rows of
    C with their cofactors, a prefix of H.
    """
    XT = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)).T)
    C = np.asarray(C, dtype=float)
    prefix = monomial_map(order, XT.shape[0]).prefix
    H, M, split = _horner_rows(XT, order, C.shape[1])
    out = C[:M.shape[0]].T @ M
    for i in range(split):
        lo, hi = prefix[i + 1], prefix[i]
        out += XT[i] * (C[lo:hi].T @ H[:hi - lo])
    return out.T


def basis_adjoint(X: np.ndarray, W: np.ndarray, order: int) -> np.ndarray:
    """expand_matrix(X, order).T @ W for an N x c matrix W; D(order) x c.

    One row per monomial slot, by the Horner step of `apply_monomials`
    transposed, written to every copy of the monomial: the copies' rows
    are equal bit for bit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    W = np.asarray(W, dtype=float)
    XT = np.ascontiguousarray(X.T)
    mmap = monomial_map(order, XT.shape[0])
    H, M, split = _horner_rows(XT, order, W.shape[1])
    out = np.empty((mmap.prefix[0], W.shape[1]))
    out[:M.shape[0]] = M @ W
    for i in range(split):
        lo, hi = mmap.prefix[i + 1], mmap.prefix[i]
        np.matmul(H[:hi - lo], X[:, i:i + 1] * W, out=out[lo:hi])
    return out[mmap.slot]


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
