"""High-order TSK teacher: closed-form ridge solve of the consequents.

The teacher is a scalar-output regressor fit against encoded class labels
(class t encoded as t-1). Its consequent coefficients solve

    q = ((1/L) I + Xg^T Xg)^{-1} Xg^T y

with Xg = [f_1 * B, ..., f_K * B] the N x K*D firing-weighted stacked design
matrix (`basis.stack_design_matrix`), f_k the normalized firing strengths of
rule k and B the N x D order-n basis (`basis.expand_matrix`).

The recursive basis gives b(x) . b(x') = P(s) = 1 + s + ... + s^n with
s = x . x', so Xg Xg^T = (F F^T) * P(X X^T) elementwise, F being the N x K
firing matrix. When N < K*D the teacher solves the N x N dual system built
from this kernel and never forms Xg. It builds the kernel's lower triangle
straight into one N x N buffer, _BLOCK_ROWS rows at a time, and factors
that buffer in place, so the fit holds one N x N array (8*N^2 bytes) plus
a _BLOCK_ROWS x N block. When N >= K*D it solves the K*D x K*D primal
system on Xg, factoring its Gram matrix in place too.

The dual fit never builds B: it takes one Horner step on the distinct
order-(n-1) monomials (`basis.basis_adjoint` for B^T W), as prediction
does for B Q, and writes each monomial's row to all of its copies in q.
At order 3 and m = 13 that is 559 multiply-adds per row and rule against
the basis's D = 2,380, holding the 105 quadratic monomials per row.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .basis import basis_adjoint, basis_dim, stack_design_matrix
from .data import _check_finite
from .rules import (RuleBase, TSKModel, _check_reg, firing_strengths,
                    predict_outputs)

TEACHER_ORDER = 3
# rows of the dual Gram matrix built per step: bounds the temporaries
_BLOCK_ROWS = 128


def ridge_solve(A: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    """Solve min ridge*||q||^2 + ||A q - y||^2 via normal equations.

    Solves the D x D primal system (ridge I + A^T A) q = A^T y, which is SPD
    for any ridge > 0, by Cholesky with a pivoted fallback. `fit_teacher`
    calls it only when N >= D; `_kernel_solve` holds the dual form.
    """
    def gram():
        G = A.T @ A
        G[np.diag_indices_from(G)] += ridge
        return G

    return _spd_solve(gram, A.T @ y)


def _spd_solve(build, b: np.ndarray) -> np.ndarray:
    """Solve G x = b for the SPD G = build(), reading G's lower triangle.

    That triangle is the upper one of the Fortran-ordered G.T, so Cholesky
    factors G.T in place, with no copy. A failed factorization has
    overwritten G, so the pivoted symmetric (LDL^T) fallback rebuilds it.
    scipy does not scan G and b for inf or nan (fit_teacher's _check_gram
    does so in O(N)); a non-finite value in them leaves the solution
    non-finite, which is rejected here, in O(len(b)).
    """
    try:
        c, low = scipy.linalg.cho_factor(build().T, overwrite_a=True,
                                         check_finite=False)
        x = scipy.linalg.cho_solve((c, low), b, check_finite=False)
    except scipy.linalg.LinAlgError:
        x = scipy.linalg.solve(build(), b, lower=True, assume_a="sym",
                               check_finite=False)
    if not np.isfinite(x).all():
        raise ValueError("the ridge system's solution is not finite: the "
                         "system holds an inf or nan, or overflows")
    return x


def _check_gram(F: np.ndarray, X: np.ndarray, ridge: float, order: int,
                primal: bool) -> None:
    """Reject the first training row at which the ridge system overflows.

    Row n of the design matrix has squared norm |F_n|^2 P(|x_n|^2) (the
    kernel identity above), which is also entry n of the dual Gram
    matrix's diagonal; no entry of that matrix exceeds its largest diagonal
    entry. The primal Gram matrix's K*D diagonal entries sum to the sum of
    these norms, so its largest entry is at least that sum over K*D. So in
    O(N) the dual system is finite exactly when these N values are, and the
    primal one is not finite once their running sum over K*D overflows; a
    primal system short of that is left to _spd_solve, which rejects a
    non-finite solution. A nan or inf in X never gets here
    (log_memberships).
    """
    # on the primal path each row adds its norm over K*D to the mean of
    # the Gram matrix's diagonal entries
    unit = 1.0 / (F.shape[1] * basis_dim(order, X.shape[1])) if primal else 1.0
    with np.errstate(over="ignore"):
        s = (X * X).sum(axis=1)
        norms = np.full_like(s, unit)
        for _ in range(order):
            norms = norms * s + unit
        norms *= (F * F).sum(axis=1)
        if primal:
            norms = np.cumsum(norms)
        norms += ridge
    if not np.isfinite(norms).all():
        row = int(np.argmin(np.isfinite(norms))) + 1
        raise ValueError(f"training row {row} overflows the order-{order} "
                         f"teacher's ridge system: its "
                         f"{'primal' if primal else 'dual'} Gram matrix is "
                         f"not finite; scale the features down")


def _kernel_solve(F: np.ndarray, X: np.ndarray, y: np.ndarray, ridge: float,
                  order: int) -> np.ndarray:
    """alpha of the N x N dual system (Xg Xg^T + ridge I) alpha = y.

    Builds the lower triangle of Xg Xg^T = (F F^T) * P(X X^T) into one
    N x N buffer, _BLOCK_ROWS rows at a time, by Horner's rule in place;
    the upper triangle stays zero.
    """
    def gram():
        n = X.shape[0]
        G = np.zeros((n, n))
        for start in range(0, n, _BLOCK_ROWS):
            r = slice(start, min(start + _BLOCK_ROWS, n))
            Gb = G[r, :r.stop]
            S = X[r] @ X[:r.stop].T
            if order == 0:
                Gb[...] = 1.0
            else:
                np.add(S, 1.0, out=Gb)
                for _ in range(order - 1):
                    Gb *= S
                    Gb += 1.0
            Gb *= F[r] @ F[:r.stop].T
        G[np.diag_indices_from(G)] += ridge
        return G

    return _spd_solve(gram, y)


def fit_teacher(rb: RuleBase, X: np.ndarray, y_enc: np.ndarray, reg: float,
                class_labels: np.ndarray | None = None,
                order: int = TEACHER_ORDER) -> TSKModel:
    """Fit the consequent coefficients in closed form.

    `reg` is the parameter L of the ridge system; the ridge coefficient
    added to the Gram matrix diagonal is 1/L. With N rows and K*D
    coefficients, N < K*D solves the N x N dual system from its kernel
    (`_kernel_solve`) and recovers rule k's coefficients as
    B^T (alpha * F[:, k]) through `basis_adjoint`, so neither the N x K*D
    design matrix nor the N x D basis B is built.
    N >= K*D solves the primal system on the design matrix (`ridge_solve`).
    """
    _check_reg(reg)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y_enc = np.asarray(y_enc, dtype=float).ravel()
    if X.shape[0] == 0:
        raise ValueError("cannot fit a teacher on an empty dataset")
    if y_enc.size != X.shape[0]:
        raise ValueError("X and y_enc disagree on the sample count")
    _check_finite(y_enc[:, None], "y_enc")
    if class_labels is None:
        class_labels = np.unique(y_enc)
    F = firing_strengths(rb, X)
    primal = X.shape[0] >= rb.n_rules * basis_dim(order, X.shape[1])
    _check_gram(F, X, 1.0 / reg, order, primal)
    if primal:
        q = ridge_solve(stack_design_matrix(F, X, order), y_enc, 1.0 / reg)
    else:
        alpha = _kernel_solve(F, X, y_enc, 1.0 / reg, order)
        q = basis_adjoint(X, alpha[:, None] * F, order).T.ravel()
    return TSKModel(rb, q[:, None], order, class_labels, float(reg))


def predict_teacher(tm: TSKModel, X: np.ndarray) -> np.ndarray:
    """Scalar outputs of a one-output model, one per row of X."""
    return predict_outputs(tm, X)[:, 0]
