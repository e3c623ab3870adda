"""Fuzzy rule bases, normalized firing strengths, the TSK model and its
rule readout.

A rule base holds, for each of K rules, a Gaussian center and kernel width
per feature. Centers live on a fixed 5-point partition of [0, 1] so each
antecedent can be read back as a linguistic label.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .basis import (_monomial_factors, apply_monomials, basis_dim,
                    fold_monomials)
from .data import _check_count, _check_finite

PARTITION = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
PARTITION_LABELS = ("very low", "low", "medium", "high", "very high")


@dataclass(frozen=True)
class RuleBase:
    """Antecedent parameters of a TSK model: K x m centers and widths."""

    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        centers = np.array(self.centers, dtype=float)  # its own, read-only
        widths = np.array(self.widths, dtype=float)
        if centers.ndim != 2 or centers.shape != widths.shape:
            raise ValueError("centers and widths must be matching K x m arrays")
        _check_count(centers.shape[0], "n_rules", 1)
        _check_count(centers.shape[1], "n_features", 1)
        if not np.isin(centers, PARTITION).all():
            raise ValueError("every center must lie on the 5-point partition")
        _check_finite(widths, "widths")
        if not (widths > 0).all():
            raise ValueError("every width must be strictly positive")
        centers.setflags(write=False)
        widths.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)

    @property
    def n_rules(self) -> int:
        return self.centers.shape[0]

    @property
    def n_features(self) -> int:
        return self.centers.shape[1]


def build_rule_base(n_rules: int, n_features: int, width: float = 0.5,
                    seed: int | None = None) -> RuleBase:
    """Sample a rule base: centers uniform on the partition, one shared width.

    Deterministic for a fixed seed. Centers are drawn independently per
    (rule, feature) cell; duplicate rules are allowed.
    """
    _check_count(n_rules, "n_rules", 1)
    _check_count(n_features, "n_features", 1)
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    rng = np.random.default_rng(seed)
    centers = rng.choice(PARTITION, size=(n_rules, n_features))
    widths = np.full((n_rules, n_features), float(width))
    return RuleBase(centers, widths)


def log_memberships(rb: RuleBase, X: np.ndarray) -> np.ndarray:
    """Unnormalized log rule memberships, N x K.

    log mu^k(x) = sum_i -(x_i - v_i^k)^2 / (2 * delta_i^k), computed as the
    expanded square

        log mu = X (v/delta)^T - (X*X) (1/(2 delta))^T - sum_i v_i^2/(2 delta_i)

    two N x m by m x K products plus one constant per rule. The products
    are taken with the rules on the slow axis, into one C-contiguous K x N
    array, and the N x K result is its transposed view.

    Error bound: no term exceeds S = sum_i (x_i^2 + v_i^2) / (2 delta_i) in
    magnitude, so the absolute error stays within a small multiple of
    eps * S (eps = 2.2e-16; measured under 1e-15 * S for m up to 40 and
    |x| up to 1e8). Near a rule's center, where the result is much smaller
    than S, that is a larger relative error than the direct square's.

    Every model fit, prediction and rule readout passes through here, so
    this is where a nan or inf cell is rejected, by row and column.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != rb.n_features:
        raise ValueError(f"X has {X.shape[1]} features, rule base expects "
                         f"{rb.n_features}")
    _check_finite(X)
    half_inv = 0.5 / rb.widths
    log_mu = (rb.centers / rb.widths) @ X.T
    log_mu -= half_inv @ (X * X).T
    log_mu -= (rb.centers * rb.centers * half_inv).sum(axis=1)[:, None]
    return log_mu.T


def firing_strengths(rb: RuleBase, X: np.ndarray) -> np.ndarray:
    """Normalized firing strengths: a C-contiguous N x K array, rows sum to 1.

    Normalization happens in log space (log-sum-exp), so the product of many
    per-feature Gaussians cannot underflow to an all-zero row. It runs on
    the K x N layout of `log_memberships`, where each rule is one
    contiguous row: the max and the sum over rules are K - 1 elementwise
    passes over N values, not N reductions over K cells.
    """
    w = log_memberships(rb, X).T
    w -= w.max(axis=0)
    np.exp(w, out=w)
    w /= w.sum(axis=0)
    return np.ascontiguousarray(w.T)


def _check_reg(reg) -> None:
    if not 0 < reg < np.inf:
        raise ValueError("regularization parameter must be "
                         + ("finite" if reg == np.inf else "positive"))


@dataclass(frozen=True)
class TSKModel:
    """Teacher or student: rule k's order-n polynomials in rows k*D..k*D+D-1
    of coeffs, one column per output. c >= 2 outputs are the logits of
    classes 0..c-1, one output regresses the class labels. reg is the ridge
    parameter L of a closed-form fit, None for any other."""

    rule_base: RuleBase
    coeffs: np.ndarray
    order: int
    class_labels: np.ndarray
    reg: float | None = None

    def __post_init__(self):
        if self.reg is not None:
            _check_reg(self.reg)
        d = self.rule_base.n_rules * basis_dim(self.order,
                                               self.rule_base.n_features)
        coeffs = np.array(self.coeffs, dtype=float)  # its own, read-only
        if coeffs.ndim != 2 or coeffs.shape[0] != d or coeffs.shape[1] == 0:
            raise ValueError(f"coeffs has shape {coeffs.shape}, expected one "
                             f"or more columns of length K*D = {d}")
        _check_finite(coeffs, "coeffs")
        labels = np.array(self.class_labels, dtype=float).ravel()
        _check_finite(labels[:, None], "class_labels")
        if labels.size == 0 or not (np.diff(labels) > 0).all():
            raise ValueError("class_labels must be non-empty and strictly "
                             "increasing")
        c = coeffs.shape[1]
        if c >= 2 and not np.array_equal(labels, np.arange(c)):
            raise ValueError(f"a model with {c} outputs has class labels "
                             f"0..{c - 1}, got {labels.tolist()}")
        coeffs.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "class_labels", labels)

    @property
    def n_classes(self) -> int:
        return self.class_labels.size

    @functools.cached_property
    def monomial_coeffs(self) -> np.ndarray:
        """coeffs summed over the copies of each monomial
        (`basis.fold_monomials`): one row per monomial slot, column k*c + j
        for rule k's output j. Computed at the first prediction and kept:
        the model holds its own read-only copy of coeffs."""
        k, c = self.rule_base.n_rules, self.coeffs.shape[1]
        Q = self.coeffs.reshape(k, -1, c).transpose(1, 0, 2).reshape(-1, k * c)
        return fold_monomials(Q, self.order, self.rule_base.n_features)


def predict_outputs(model: TSKModel, X: np.ndarray) -> np.ndarray:
    """N x c outputs sum_k f_k(x) * b(x) . q_k at any order: one Horner
    step on the distinct monomials (`basis.apply_monomials`) gives every
    rule's outputs, and one contraction weights them by firing strength.
    Neither the design matrix nor the basis is built."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return _weighted_outputs(model, X, firing_strengths(model.rule_base, X))


def _weighted_outputs(model: TSKModel, X: np.ndarray,
                      F: np.ndarray) -> np.ndarray:
    """predict_outputs at the firing strengths F of model's rule base on X."""
    k, c = model.rule_base.n_rules, model.coeffs.shape[1]
    out = apply_monomials(X, model.monomial_coeffs, model.order)
    return np.einsum("nk,nkc->nc", F, out.reshape(-1, k, c))


def predict_class(model: TSKModel, X: np.ndarray) -> np.ndarray:
    """Classes: the argmax of c >= 2 outputs, else the nearest label."""
    return predict_classes([model], X)[0]


def predict_classes(models: list[TSKModel], X: np.ndarray) -> list:
    """predict_class of each model on X. The models must hold one rule base
    object, whose firing strengths on X are computed once for all of them."""
    if not models:
        return []
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rb = models[0].rule_base
    if not all(m.rule_base is rb for m in models):
        raise ValueError("predict_classes needs models on one rule base")
    F = firing_strengths(rb, X)
    classes = []
    for model in models:
        out = _weighted_outputs(model, X, F)
        if out.shape[1] >= 2:
            classes.append(out.argmax(axis=1))
        else:
            nearest = np.abs(out - model.class_labels).argmin(axis=1)
            classes.append(model.class_labels[nearest])
    return classes


def _linguistic(center: float) -> str:
    return PARTITION_LABELS[int(np.argmin(np.abs(PARTITION - center)))]


def rule_readout(model, sample: np.ndarray) -> str:
    """Linguistic IF/THEN dump of every rule, evaluated at one sample.

    A THEN part is read as prediction reads it, from
    `TSKModel.monomial_coeffs`: one term per distinct monomial, in the
    order of the ascending factor tuples (the basis order of each
    monomial's first copy), and its value from one Horner step.
    """
    if not isinstance(model, TSKModel):
        raise TypeError(f"cannot explain {type(model).__name__}")
    x = np.asarray(sample, dtype=float).ravel()
    rb = model.rule_base
    if x.size != rb.n_features:
        raise ValueError("sample length must match the model's feature count")
    # predicting first rejects a non-finite sample before any rule output
    pred = predict_class(model, x[None, :])[0]
    C, c = model.monomial_coeffs, model.coeffs.shape[1]
    values = apply_monomials(x[None, :], C, model.order)[0]
    factors = _monomial_factors(model.order, rb.n_features)
    terms = [(s, "*".join(f"x{i + 1}" for i in factors[s]) or "1")
             for s in sorted(range(len(factors)), key=factors.__getitem__)]
    lines = []
    for k in range(rb.n_rules):
        lines += [f"Rule {k + 1}:", "IF:"]
        lines += [f"  feature {i + 1} is {_linguistic(center)}"
                  for i, center in enumerate(rb.centers[k])]
        lines.append("THEN:")
        for j in range(c):
            col = k * c + j
            expr = " + ".join(f"{C[s, col]:.4f}*{label}" for s, label in terms)
            lines.append(f"  output {j + 1} = {expr} = {values[col]:.4f}")
    lines.append(f"Predicted class: {pred:g}")
    return "\n".join(lines)
