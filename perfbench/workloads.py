"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Every workload drives fuzzykd through its public functions only, looked up
on the ``fuzzykd`` package at call time so that an installed tracer sees
the calls. The benchmark seed picks the inputs (the row order of the
bundled wine data, or a fresh sample of the synthetic blobs); the
program's own seeds (fold plans, rule bases) are fixed constants, so runs
with different benchmark seeds differ only in the data they are given.
predict-synth trains its models on one fixed sample (MODEL_SEED) and the
seed draws the rows they predict: a single early-stopped student's
accuracy swings with its training sample by more than any useful bound.
Outside a traced run it fits them in a forked child process, so the
measuring process's peak RSS is that of loading and predicting alone.
"""
from __future__ import annotations

import hashlib
import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fuzzykd as fk

RUN_SEED = 0           # seed handed to run_method
TEACHER_RB_SEED = 7    # rule-base seeds of the predict-synth models
STUDENT_RB_SEED = 0
MODEL_SEED = 0         # training sample of the predict-synth models
GEOMETRY_SEED = 20230216  # fixed blob population; --seed draws samples
N_FEATURES, N_CLASSES = 13, 3
BLOB_SEPARATION = 4.0
REFERENCE_ROWS = 64    # rows re-computed by the independent forward pass

SIZES = {
    "full": {
        "grid-wine": {"temperatures": (1, 2), "non_target_weights": (1, 2),
                      "ce_weights": (1, 2), "folds": 2},
        "evaluate-synth": {"n": 2000, "folds": 5},
        "predict-synth": {"n": 2000, "rows": 20000, "batch": 1000},
    },
    "tiny": {
        "grid-wine": {"temperatures": (2,), "non_target_weights": (1, 2),
                      "ce_weights": (1,), "folds": 2},
        "evaluate-synth": {"n": 150, "folds": 2},
        "predict-synth": {"n": 150, "rows": 300, "batch": 100},
    },
}


@dataclass
class PassResult:
    """Outcome of one timed pass, with what the checks found wrong."""

    units: int          # outer folds or prediction batches attempted
    failed: int         # of those, folds recorded with an error / batches raised
    acc: float
    digest: str
    fits: int
    rows: int
    detail: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def blobs(seed, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n rows of 3-class Gaussian blobs in 13 raw (unnormalized) features.

    Class centres lie on random orthonormal directions, BLOB_SEPARATION
    apart from the origin, and each feature gets its own scale and offset;
    that geometry comes from GEOMETRY_SEED, so every seed samples the same
    population and the difficulty does not change with the seed. `seed`
    is anything numpy's default_rng takes, such as an int or an int tuple.
    """
    geo = np.random.default_rng(GEOMETRY_SEED)
    dirs, _ = np.linalg.qr(geo.standard_normal((N_FEATURES, N_CLASSES)))
    centers = BLOB_SEPARATION * dirs.T
    scales = np.exp(geo.uniform(-1.0, 1.0, N_FEATURES))
    offsets = geo.uniform(-5.0, 5.0, N_FEATURES)
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.arange(n) % N_CLASSES)
    X = centers[y] + rng.standard_normal((n, N_FEATURES))
    return X * scales + offsets, y


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


class _CrossValidation:
    """Shared pass of grid-wine and evaluate-synth: one run_method call."""

    name = ""
    method = "distill-dkd"

    def __init__(self, grid):
        self.grid = grid
        self.n_candidates = (len(grid.rule_counts) * len(grid.temperatures) *
                             len(grid.target_weights) *
                             len(grid.non_target_weights) *
                             len(grid.ce_weights))

    def shape(self, ds) -> dict:
        return {"rows": int(ds.X.shape[0]), "features": int(ds.X.shape[1]),
                "classes": ds.n_classes, "candidates": self.n_candidates,
                "outer_folds": self.grid.folds}

    def timed(self, ds):
        return fk.run_method(self.method, ds, self.grid, RUN_SEED, self.name)

    def evaluate(self, ds, report) -> PassResult:
        n, folds, cands = ds.X.shape[0], self.grid.folds, self.n_candidates
        # one fit = one candidate trained and applied on one split; the
        # inner search runs 3 folds per candidate when there is a choice
        inner = cands * 3 if cands > 1 else 0
        fits = folds * (inner + 1)
        rows = n * ((folds - 1) * cands + 1) if cands > 1 else n
        text = fk.format_report([report], include_time=False)
        result = PassResult(len(report.records), report.n_failed(),
                            report.mean_accuracy(),
                            _digest(text.encode()), fits, rows)
        result.problems = self._check(report)
        return result

    def _check(self, report) -> list[str]:
        problems = []
        if [r.fold for r in report.records] != list(range(self.grid.folds)):
            problems.append("report does not hold one record per outer fold")
        allowed = {(k, t, z, lam, p)
                   for k in self.grid.rule_counts
                   for t in self.grid.temperatures
                   for z in self.grid.target_weights
                   for lam in self.grid.non_target_weights
                   for p in self.grid.ce_weights}
        for r in report.records:
            key = tuple(r.params.get(k) for k in
                        ("K", "tau", "zeta", "lam", "phi"))
            if key not in allowed:
                problems.append(f"fold {r.fold}: params {r.params} are not "
                                f"a grid candidate")
            if r.n_rules != r.params.get("K"):
                problems.append(f"fold {r.fold}: rule count disagrees")
            if r.error is None and not (0.0 <= r.accuracy <= 1.0 and
                                        0.0 <= r.weighted_f <= 1.0):
                problems.append(f"fold {r.fold}: scores outside [0, 1]")
        ok = [r.accuracy for r in report.records if r.error is None]
        if ok and abs(np.mean(ok) - report.mean_accuracy()) > 1e-12:
            problems.append("mean accuracy disagrees with the fold records")
        return problems


class GridWine(_CrossValidation):
    """Inner-CV grid search over (tau, lambda, phi) at K = 8 on wine."""

    name = "grid-wine"

    def __init__(self, size: dict):
        super().__init__(fk.GridSpec.coarse(
            rule_counts=(8,), temperatures=size["temperatures"],
            non_target_weights=size["non_target_weights"],
            ce_weights=size["ce_weights"], folds=size["folds"]))

    def setup(self, seed: int, workdir: Path, in_child: bool = False):
        ds = fk.load_bundled("wine")
        order = np.random.default_rng(seed).permutation(ds.y.size)
        return fk.Dataset(ds.X[order], ds.y[order], ds.n_classes)


class EvaluateSynth(_CrossValidation):
    """Fixed-parameter outer CV on the synthetic blobs; the teacher dominates."""

    name = "evaluate-synth"

    def __init__(self, size: dict):
        super().__init__(fk.GridSpec.fixed(folds=size["folds"]))
        self.n = size["n"]

    def setup(self, seed: int, workdir: Path, in_child: bool = False):
        X, y = blobs(seed, self.n)
        return fk.Dataset(X, y, N_CLASSES)


@dataclass
class _PredictState:
    teacher_path: Path
    student_path: Path
    fingerprints: dict  # model_fingerprint of the fitted models, by kind
    X: np.ndarray       # fresh rows, normalized with the training min/max
    y: np.ndarray


class PredictSynth:
    """Load saved teacher and student, then predict fresh rows in batches."""

    name = "predict-synth"

    def __init__(self, size: dict):
        self.n, self.rows, self.batch = size["n"], size["rows"], size["batch"]

    def shape(self, state: _PredictState) -> dict:
        return {"train_rows": self.n, "rows": self.rows, "batch": self.batch,
                "features": N_FEATURES, "classes": N_CLASSES}

    def setup(self, seed: int, workdir: Path,
              in_child: bool = False) -> _PredictState:
        """Fit and save both models, and draw the rows to predict.

        With `in_child` the fit runs in a forked process, so its memory
        never counts towards this process's peak RSS.
        """
        X, ytr = blobs((MODEL_SEED, 0), self.n)
        Xnew, ynew = blobs((seed, 1), self.rows)
        Xtr, Xnew, _ = fk.normalize(X, Xnew)
        state = _PredictState(workdir / "teacher.json",
                              workdir / "student.json", {}, Xnew, ynew)
        args = (Xtr, ytr, state.teacher_path, state.student_path)
        if in_child:
            with ProcessPoolExecutor(
                    1, mp_context=multiprocessing.get_context("fork")) as ex:
                state.fingerprints = ex.submit(fit_and_save, *args).result()
        else:
            state.fingerprints = fit_and_save(*args)
        return state

    def timed(self, state: _PredictState):
        teacher = fk.load_model(state.teacher_path)
        student = fk.load_model(state.student_path)
        batches = []
        for start in range(0, self.rows, self.batch):
            xb = state.X[start:start + self.batch]
            try:
                batches.append((fk.predict_teacher(teacher, xb),
                                fk.predict_student(student, xb)))
            except Exception:  # a raising batch is counted, not fatal
                traceback.print_exc()
                batches.append(None)
        return teacher, student, batches

    def evaluate(self, state: _PredictState, out) -> PassResult:
        teacher, student, batches = out
        t_out = np.full(self.rows, np.nan)
        s_pred = np.full(self.rows, -1, dtype=np.int64)
        for start, batch in zip(range(0, self.rows, self.batch), batches):
            if batch is not None:
                stop = start + self.batch
                t_out[start:stop], s_pred[start:stop] = batch
        finite = np.isfinite(t_out)
        t_pred = np.where(finite, fk.teacher_logits(
            np.where(finite, t_out, 0.0), teacher.class_labels).argmax(axis=1),
            -1)
        t_acc = float((t_pred == state.y).mean())
        s_acc = float((s_pred == state.y).mean())
        result = PassResult(
            len(batches), sum(b is None for b in batches), (t_acc + s_acc) / 2,
            _digest(t_pred.astype(np.int64).tobytes(), s_pred.tobytes()),
            fits=2, rows=self.rows,
            detail={"teacher_acc": t_acc, "student_acc": s_acc})
        result.problems = (
            _round_trip_problems(state.fingerprints, teacher, student) +
            _reference_problems(state.X, t_out, s_pred, teacher, student))
        return result


def fit_and_save(Xtr, ytr, teacher_path: Path, student_path: Path) -> dict:
    """Fit the predict-synth teacher and student, save both, fingerprint them."""
    grid = fk.GridSpec.fixed()
    labels = np.arange(N_CLASSES, dtype=float)
    tm = fk.fit_teacher(
        fk.build_rule_base(grid.rule_counts[0], N_FEATURES, grid.width,
                           TEACHER_RB_SEED),
        Xtr, ytr.astype(float), grid.reg, labels)
    sm = fk.init_student(
        fk.build_rule_base(grid.rule_counts[0], N_FEATURES, grid.width,
                           STUDENT_RB_SEED), N_CLASSES)
    cfg = fk.DistillConfig(grid.lr, grid.max_epochs, grid.tol,
                           temperature=grid.temperatures[0],
                           target_weight=grid.target_weights[0],
                           non_target_weight=grid.non_target_weights[0],
                           ce_weight=grid.ce_weights[0])
    sm, _ = fk.distill(fk.predict_teacher(tm, Xtr), sm, Xtr,
                       fk.onehot_encode(ytr, N_CLASSES), cfg, labels)
    fk.save_model(tm, teacher_path)
    fk.save_model(sm, student_path)
    return {"teacher": model_fingerprint(tm), "student": model_fingerprint(sm)}


def model_fingerprint(model) -> str:
    """SHA-256 of a model's kind, order and exact parameter arrays."""
    h = hashlib.sha256(f"{type(model).__name__}/{model.order}".encode())
    for part in (model.coeffs, model.rule_base.centers,
                 model.rule_base.widths):
        arr = np.ascontiguousarray(part)
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _round_trip_problems(fingerprints: dict, teacher, student) -> list[str]:
    return [f"loaded {kind} differs from the saved one"
            for kind, loaded in (("teacher", teacher), ("student", student))
            if model_fingerprint(loaded) != fingerprints[kind]]


def reference_outputs(model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-by-row TSK outputs written apart from the library.

    Returns (outputs, scale): outputs[n] = sum_k f_k(x) * b(x) . q_k with
    normalized Gaussian firing f and the recursive polynomial basis b, one
    column per model output, and the matching sum of absolute terms, which
    bounds the rounding error of any summation order.
    """
    rb = model.rule_base
    k = rb.centers.shape[0]
    outs, scales = [], []
    for x in X:
        log_mu = -(((x - rb.centers) ** 2) / (2.0 * rb.widths)).sum(axis=1)
        f = np.exp(log_mu - log_mu.max())
        f /= f.sum()
        b = np.ones(1)
        for _ in range(model.order):
            b = np.concatenate([[1.0], np.outer(x, b).ravel()])
        q = np.asarray(model.coeffs, dtype=float).reshape(k, b.size, -1)
        terms = f[:, None, None] * b[None, :, None] * q
        outs.append(terms.sum(axis=(0, 1)))
        scales.append(np.abs(terms).sum(axis=(0, 1)))
    return np.array(outs), np.array(scales)


def _reference_problems(X, t_out, s_pred, teacher, student) -> list[str]:
    idx = np.linspace(0, X.shape[0] - 1, min(REFERENCE_ROWS, X.shape[0]))
    idx = np.unique(idx.astype(int))
    problems = []
    ref, scale = reference_outputs(teacher, X[idx])
    bad = np.abs(ref[:, 0] - t_out[idx]) > 1e-9 * scale[:, 0] + 1e-12
    if bad.any():
        problems.append(f"teacher output differs from the reference on "
                        f"{int(bad.sum())} of {idx.size} rows")
    ref, scale = reference_outputs(student, X[idx])
    top2 = np.sort(ref, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 1e-9 * scale.max(axis=1)
    wrong = clear & (ref.argmax(axis=1) != s_pred[idx])
    if wrong.any():
        problems.append(f"student class differs from the reference on "
                        f"{int(wrong.sum())} of {idx.size} rows")
    return problems


WORKLOADS = {w.name: w for w in (GridWine, EvaluateSynth, PredictSynth)}


def make(name: str, size: str):
    return WORKLOADS[name](SIZES[size][name])

