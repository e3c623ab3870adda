"""The distillation loss at 50 significant digits in mpmath, from its
definition, with its gradient by mpmath's numerical differentiation.

Shares no code with the package. mpmath is a test dependency; a test
module should import this one only after pytest.importorskip("mpmath"), so
that the plain-numpy oracles do not depend on it.
"""
import mpmath
import numpy as np


def _mp_softmax(z):
    e = [mpmath.exp(v) for v in z]
    total = mpmath.fsum(e)
    return [v / total for v in e]


def _mp_kl(p, q):
    """KL(p || q) with 0 log 0 = 0."""
    return mpmath.fsum(pi * mpmath.log(pi / qi) for pi, qi in zip(p, q)
                       if pi != 0)


def mp_teacher_views(T: np.ndarray, target, tau: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The teacher's target mass (N) and non-target distribution
    (N x (C-1)) of the N x C logits T at temperature tau, computed at 50
    digits and rounded."""
    a, rest = [], []
    with mpmath.workdps(50):
        for z, t in zip(T, target):
            z = [mpmath.mpf(v) / tau for v in z]
            a.append(float(_mp_softmax(z)[t]))
            rest.append([float(v) for v in
                         _mp_softmax(z[:t] + z[t + 1:])])
    return np.array(a), np.array(rest)


def mp_distill_row(z, t, a, rest, tau, zeta, lam, phi, coupled):
    """(TCKL, NCKL, H) and the weighted loss of one sample, from their
    definitions: z are the student's C logits, t the target class, a the
    teacher's target mass and rest its non-target distribution (C-1 values
    in class order) at temperature tau. coupled weights zeta * KL(teacher
    || student) instead of zeta * TCKL + lam * NCKL."""
    z = [mpmath.mpf(v) for v in z]
    a, rest = mpmath.mpf(a), [mpmath.mpf(v) for v in rest]
    u = _mp_softmax([v / tau for v in z])
    others = [j for j in range(len(z)) if j != t]
    tckl = _mp_kl([a, 1 - a], [u[t], 1 - u[t]])
    nckl = _mp_kl(rest, _mp_softmax([z[j] / tau for j in others]))
    h = -mpmath.log(_mp_softmax(z)[t])
    if coupled:
        teacher = [a if j == t else (1 - a) * rest[others.index(j)]
                   for j in range(len(z))]
        return (tckl, nckl, h), zeta * _mp_kl(teacher, u) + phi * h
    return (tckl, nckl, h), zeta * tckl + lam * nckl + phi * h


def mp_distill_loss(Z, y, a, rest, tau, zeta, lam, phi, coupled=False):
    """Total loss over the rows of the N x C logits Z, its N x C gradient
    in Z and the per-sample mean (TCKL, NCKL, H), at 50 digits; the
    arguments are mp_distill_row's, one row each (lam per sample)."""
    with mpmath.workdps(50):
        total, grad, parts = 0, np.zeros(Z.shape), np.zeros(3)
        for i, z in enumerate(Z):
            def row(j, h):
                zj = list(z)
                zj[j] = mpmath.mpf(zj[j]) + h
                return mp_distill_row(zj, y[i], a[i], rest[i], tau, zeta,
                                      lam[i], phi, coupled)[1]

            terms, loss = mp_distill_row(z, y[i], a[i], rest[i], tau, zeta,
                                         lam[i], phi, coupled)
            total += loss
            parts += [float(v) for v in terms]
            for j in range(Z.shape[1]):
                grad[i, j] = float(mpmath.diff(lambda h: row(j, h), 0))
        return float(total), grad, parts / len(Z)
