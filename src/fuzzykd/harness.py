"""Cross-validated evaluation, grid search and parameter sweeps."""
from __future__ import annotations

import itertools
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import MAX_ORDER
from .data import Dataset, _check_count, normalize, stratified_folds
from .distill import _CE_ONLY, DistillConfig, distill_batch, teacher_logits
from .rules import build_rule_base, predict_classes
from .student import (STUDENT_ORDER, TrainConfig, TrainingDiverged,
                      init_student, onehot_encode)
from .teacher import TEACHER_ORDER, fit_teacher, predict_teacher

# method -> (teacher order or None, student loss or None, student order,
# searched keys). Loss "ce" fits the labels; "kd"/"dkd" distil the teacher.
_METHODS = {"teacher-only": (TEACHER_ORDER, None, None, ("K",)),
            "student-only": (None, "ce", STUDENT_ORDER, ("K",)),
            "distill-kd": (TEACHER_ORDER, "kd", STUDENT_ORDER,
                           ("K", "tau", "lam", "phi")),
            "distill-dkd": (TEACHER_ORDER, "dkd", STUDENT_ORDER,
                            ("K", "tau", "zeta", "lam", "phi")),
            **{f"tsk-order-{n}-{fit}": row for n in range(MAX_ORDER + 1)
               for fit, row in (("llm", (n, None, None, ("K",))),
                                ("gd", (None, "ce", n, ("K",))))}}
# candidate key -> (GridSpec field of its candidates, DistillConfig field)
_KEYS = {"K": ("rule_counts", None),
         "tau": ("temperatures", "temperature"),
         "zeta": ("target_weights", "target_weight"),
         "lam": ("non_target_weights", "non_target_weight"),
         "phi": ("ce_weights", "ce_weight")}


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter candidates and fixed training constants."""

    rule_counts: tuple = tuple(range(1, 21))
    reg: float = 100.0
    temperatures: tuple = (1, 2, 5, 10, 20, 100)
    target_weights: tuple = (1, 2, 5, 10, 20, 100)
    non_target_weights: tuple = (1, 2, 5, 10, 20, 100)
    ce_weights: tuple = (1, 2, 5, 10, 20, 100)
    max_epochs: int = TrainConfig.max_epochs
    tol: float = TrainConfig.tol
    lr: float = TrainConfig.lr
    folds: int = 10
    width: float = 0.5

    def __post_init__(self):
        for name, _ in _KEYS.values():
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be non-empty")
        for i, k in enumerate(self.rule_counts):
            _check_count(k, f"rule_counts[{i}]", 1)
        _check_count(self.folds, "folds", 2)

    @classmethod
    def coarse(cls, **overrides) -> "GridSpec":
        """Reduced grid: target weight pinned to 1."""
        return cls(target_weights=(1,), **overrides)

    @classmethod
    def fixed(cls, n_rules=8, temperature=DistillConfig.temperature,
              target_weight=DistillConfig.target_weight,
              non_target_weight=DistillConfig.non_target_weight,
              ce_weight=DistillConfig.ce_weight, **overrides) -> "GridSpec":
        """Degenerate single-candidate grid (no inner search)."""
        return cls(rule_counts=(n_rules,), temperatures=(temperature,),
                   target_weights=(target_weight,),
                   non_target_weights=(non_target_weight,),
                   ce_weights=(ce_weight,), **overrides)


@dataclass
class FoldRecord:
    fold: int
    params: dict
    accuracy: float = math.nan
    weighted_f: float = math.nan
    n_rules: int = 0
    seconds: float = math.nan
    error: str | None = None


@dataclass
class MethodReport:
    method: str
    dataset: str
    seed: int
    records: list[FoldRecord] = field(default_factory=list)

    def _ok(self) -> list[FoldRecord]:
        return [r for r in self.records if r.error is None]

    def _mean(self, name: str) -> float:
        vals = [getattr(r, name) for r in self._ok()]
        return float(np.mean(vals)) if vals else math.nan

    def _std(self, name: str) -> float:
        vals = [getattr(r, name) for r in self._ok()]
        return float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0

    def mean_accuracy(self) -> float:
        return self._mean("accuracy")

    def std_accuracy(self) -> float:
        return self._std("accuracy")

    def mean_weighted_f(self) -> float:
        return self._mean("weighted_f")

    def std_weighted_f(self) -> float:
        return self._std("weighted_f")

    def mean_rules(self) -> float:
        return self._mean("n_rules")

    def mean_seconds(self) -> float:
        return self._mean("seconds")

    def n_failed(self) -> int:
        return len(self.records) - len(self._ok())


def _labels(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred, truth = np.asarray(pred).ravel(), np.asarray(truth).ravel()
    if pred.size != truth.size:
        raise ValueError("pred and truth must have equal length")
    if pred.size == 0:
        raise ValueError("need at least one sample")
    return pred, truth


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of correctly predicted samples."""
    pred, truth = _labels(pred, truth)
    return float((pred == truth).mean())


def weighted_f(pred: np.ndarray, truth: np.ndarray) -> float:
    """Support-weighted mean of per-class F1 over the labels in truth."""
    pred, truth = _labels(pred, truth)
    total = 0.0
    for c in np.unique(truth):
        support = int((truth == c).sum())
        tp = int(((pred == c) & (truth == c)).sum())
        fp = int(((pred == c) & (truth != c)).sum())
        fn = support - tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / support
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        total += support / truth.size * f1
    return total


def _rb_seed(seed: int, fold: int, student_side: bool) -> int:
    # Same (seed, fold) -> same student rule base across methods, so that
    # per-fold deltas between student-only and the distilled runs isolate
    # the loss change. The teacher draws an independent base (offset 7).
    return (seed * 1_000_003 + fold * 101 + (0 if student_side else 7)) % 2**31


def _row(method: str) -> tuple:
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; the methods are "
                         f"{', '.join(sorted(_METHODS))}")
    return _METHODS[method]


def candidates(method: str, grid: GridSpec) -> list[dict]:
    """The method's grid-search candidates: one dict per combination of
    the GridSpec values of the searched keys in its row of _METHODS."""
    keys = _row(method)[3]
    values = [getattr(grid, _KEYS[key][0]) for key in keys]
    return [dict(zip(keys, combo)) for combo in itertools.product(*values)]


def fit_candidates(method: str, group: list[dict], grid: GridSpec, X, y,
                   n_classes: int, teacher_seed: int,
                   student_seed: int) -> list:
    """Fit one method's model on (X, y) for each candidate of one K.

    The method's row of _METHODS says what is fit: a teacher of its order,
    which is the model when the row has no student loss, and a student of
    its order, trained by distill_batch on the teacher's logits ("kd",
    "dkd") or on the labels ("ce": the labels as the logits, at the
    cross-entropy weights _CE_ONLY).
    grid supplies the fixed constants; a student's settings are checked for
    every candidate before the first fit. The candidates share the rule
    bases (drawn with teacher_seed and student_seed), the teacher fit and
    its logits and the student's design matrix. Returns, per candidate,
    (model, loss trace), the trace empty for a teacher, or the
    TrainingDiverged that ended its fit.
    """
    teacher_order, loss, order, _ = _row(method)
    if len({params["K"] for params in group}) != 1:
        raise ValueError("the candidates must share one rule count K")
    fixed = _CE_ONLY if loss == "ce" else {}
    cfgs = [] if loss is None else [
        DistillConfig(grid.lr, grid.max_epochs, grid.tol, **fixed, **{
            _KEYS[key][1]: v for key, v in params.items() if key != "K"})
        for params in group]
    class_labels = np.arange(n_classes, dtype=float)

    def rule_base(seed):
        return build_rule_base(group[0]["K"], X.shape[1], grid.width, seed)

    if teacher_order is not None:
        tm = fit_teacher(rule_base(teacher_seed), X, y.astype(float),
                         grid.reg, class_labels, teacher_order)
        if loss is None:  # K is a teacher's only key: one fit serves all
            return [(tm, [])] * len(group)
    sm = init_student(rule_base(student_seed), n_classes, order)
    Y = onehot_encode(y, n_classes)
    logits = (Y if loss == "ce" else
              teacher_logits(predict_teacher(tm, X), class_labels))
    kd_weights = [params["lam"] for params in group] if loss == "kd" else None
    return distill_batch(logits, sm, X, Y, cfgs, kd_weights)


def _cross_validate(method: str, points: list[dict], grid: GridSpec,
                    splits, n_classes: int, seed: int):
    """Fit and predict each point on each split (fold, Xtr, ytr, Xte, yte).

    Per split, the points of one K fit together (fit_candidates) on the
    fold's rule-base seeds. Yields (fold, yte, seconds, preds): per point
    the predicted classes of Xte, or the TrainingDiverged that ended its
    fit; seconds covers the split's fits and predictions.
    """
    by_k: dict = {}
    for i, params in enumerate(points):
        by_k.setdefault(params["K"], []).append(i)
    for fold, Xtr, ytr, Xte, yte in splits:
        t0 = time.perf_counter()
        preds = [None] * len(points)
        for members in by_k.values():
            outcomes = fit_candidates(method, [points[i] for i in members],
                                      grid, Xtr, ytr, n_classes,
                                      _rb_seed(seed, fold, student_side=False),
                                      _rb_seed(seed, fold, student_side=True))
            # one rule base per (K, split): its firing strengths on Xte
            # are computed once for all the fitted points
            models = [out[0] for out in outcomes
                      if not isinstance(out, TrainingDiverged)]
            classes = iter(predict_classes(models, Xte))
            for i, out in zip(members, outcomes):
                preds[i] = (out if isinstance(out, TrainingDiverged)
                            else next(classes))
        yield fold, yte, time.perf_counter() - t0, preds


def _record(fold: int, params: dict, pred, yte,
            seconds: float = math.nan) -> FoldRecord:
    """A fold's scores of pred, or its error if pred is a TrainingDiverged."""
    record = FoldRecord(fold, params, n_rules=params["K"], seconds=seconds)
    if isinstance(pred, TrainingDiverged):
        record.error = str(pred)
    else:
        record.accuracy = accuracy(pred, yte)
        record.weighted_f = weighted_f(pred, yte)
    return record


def _inner_folds(ytr, seed: int, fold: int):
    """The inner 3-fold plan of an outer fold's training labels. A split
    too small for three folds is an error that names the outer fold."""
    try:
        return stratified_folds(ytr, 3, seed=seed * 7919 + fold)
    except ValueError as exc:
        raise ValueError(f"outer fold {fold}: the inner 3-fold search cannot "
                         f"split its {len(ytr)} training rows into 3 "
                         f"folds") from exc


def _select_params(method, candidates, grid, Xtr, ytr, inner, n_classes,
                   seed, fold):
    """The candidate of highest mean inner CV accuracy on the training
    split, over its inner fold plan (_inner_folds).

    The inner fits use the outer fold's rule bases. A fit that diverged
    scores 0 on its inner fold; only accuracy is computed. Candidates are
    enumerated smallest-K-then-smallest-temperature first, and the first
    of equal scores wins, so ties resolve toward the simpler model.
    """
    splits = ((fold, Xtr[tr], ytr[tr], Xtr[te], ytr[te])
              for tr, te in map(inner.split, range(inner.k)))
    accs = [[0.0 if isinstance(pred, TrainingDiverged)
             else accuracy(pred, yte) for pred in preds]
            for _, yte, _, preds in _cross_validate(
                method, candidates, grid, splits, n_classes, seed)]
    return candidates[int(np.argmax(np.mean(accs, axis=0)))]


def run_method(method: str, ds: Dataset, grid: GridSpec, seed: int,
               dataset_name: str = "data") -> MethodReport:
    """Outer CV evaluation of one method; one record per fold.

    A fold selects its candidate (_select_params), then fits and predicts
    it (_cross_validate). A diverged fold is recorded with its error
    message and excluded from the aggregates, never silently dropped. Wall
    time covers the final fit and prediction, not data handling, scoring
    or the inner search.

    With more than one candidate, every outer fold's inner plan is made
    and checked, in fold order, before any search starts, so a fold too
    small to search fails at once. The searches then run in parallel, in
    min(folds, usable CPUs) forked worker processes (_search_workers), and
    only the chosen candidates come back. Every search ends before the
    first final fit, so the final fits run and are timed here with no
    search beside them. A search is a pure function of its fold, so
    reports without time fields are byte-identical at every worker count;
    restricting the process's CPU affinity to one CPU (e.g. taskset -c 0)
    keeps the run in this process. Whole folds, evaluate (a one-candidate
    grid, which has no search) and sweep stay serial.
    """
    points = candidates(method, grid)
    report = MethodReport(method, dataset_name, seed)
    splits = _outer_folds(ds, grid, seed)
    if len(points) == 1:  # a fold's split is made when it is fit
        chosen = ((split, points[0]) for split in splits)
    else:
        splits = list(splits)
        searches = [(method, points, grid, Xtr, ytr,
                     _inner_folds(ytr, seed, fold), ds.n_classes, seed, fold)
                    for fold, Xtr, ytr, _, _ in splits]
        workers = _search_workers(grid.folds)
        chosen = zip(splits, map(_select_params, *zip(*searches))
                     if workers == 1 else _search_in_workers(workers, searches))
    for split, params in chosen:
        for fold, yte, seconds, (pred,) in _cross_validate(
                method, [params], grid, [split], ds.n_classes, seed):
            report.records.append(_record(fold, params, pred, yte, seconds))
    return report


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# fit_candidates' code as defined above, to tell a replaced fit_candidates
_FIT_CANDIDATES_CODE = fit_candidates.__code__


def _search_workers(folds: int) -> int:
    """Processes for the outer folds' inner searches: min(folds, usable
    CPUs), or 1, this process, where a pool must not be used.

    That is a platform without fork; a daemonic process, which may not
    start children; and a process whose fit_candidates was replaced, whose
    wrapper would see nothing of what a worker fits.
    """
    # a daemonic process was started by multiprocessing, so has imported it
    mp = sys.modules.get("multiprocessing")
    if (not hasattr(os, "fork")
            or (mp is not None and mp.current_process().daemon)
            or getattr(fit_candidates, "__code__",
                       None) is not _FIT_CANDIDATES_CODE):
        return 1
    return min(folds, _usable_cpus())


def _search_in_workers(workers: int, searches) -> list[dict]:
    """_select_params of each search's arguments, in order, from a pool of
    that many forked processes, shut down before it returns.

    Forked, not spawned: a spawned worker imports numpy, scipy and fuzzykd
    afresh, and a pool of two took 0.45 s to start and stop against 10 ms
    forked (2-vCPU Xeon VM). The pool forks its workers before it starts
    its own threads. multiprocessing and concurrent.futures.process add
    about 5 ms to import fuzzykd, so they are imported here, for a pool
    only.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_select_params, *zip(*searches)))


def _outer_folds(ds: Dataset, grid: GridSpec, seed: int):
    """(fold, Xtr, ytr, Xte, yte) per outer fold, min-max normalized on the
    fold's training rows."""
    plan = stratified_folds(ds.y, grid.folds, seed)
    for fold in range(grid.folds):
        tr, te = plan.split(fold)
        Xtr, Xte, _ = normalize(ds.X[tr], ds.X[te])
        yield fold, Xtr, ds.y[tr], Xte, ds.y[te]


# sweep parameter -> GridSpec field of the weight its points set
SWEEP_PARAMETERS = {"tau": "temperatures", "zeta": "target_weights",
                    "lambda": "non_target_weights",
                    "lambda/zeta": "non_target_weights",
                    "phi": "ce_weights", "(lambda+zeta)/phi": "ce_weights"}


def sweep(parameter: str, ds: Dataset, grid: GridSpec,
          seed: int) -> list[dict]:
    """One distill-dkd record (value, mean accuracy, std) per sweep value.

    The values are the candidates in the GridSpec field SWEEP_PARAMETERS
    names; lambda/zeta sets lambda = value * zeta, (lambda+zeta)/phi sets
    phi = (lambda + zeta) / value. Other settings take their first candidate.
    Each point is scored as run_method scores a one-candidate grid, all
    points of an outer fold fitting together (_cross_validate); diverged
    folds are left out of a point's mean and std.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    base = {key: getattr(grid, name)[0] for key, (name, _) in _KEYS.items()}
    values = getattr(grid, SWEEP_PARAMETERS[parameter])
    points = []
    for value in values:
        params = dict(base)
        if parameter == "lambda/zeta":
            params["lam"] = value * params["zeta"]
        elif parameter == "(lambda+zeta)/phi":
            params["phi"] = (params["lam"] + params["zeta"]) / value
        else:
            params["lam" if parameter == "lambda" else parameter] = value
        points.append(params)
    reports = [MethodReport("distill-dkd", "", seed) for _ in points]
    for fold, yte, _, preds in _cross_validate(
            "distill-dkd", points, grid, _outer_folds(ds, grid, seed),
            ds.n_classes, seed):
        for rep, params, pred in zip(reports, points, preds):
            rep.records.append(_record(fold, params, pred, yte))
    return [{"parameter": parameter, "value": value,
             "mean_accuracy": rep.mean_accuracy(),
             "std_accuracy": rep.std_accuracy()}
            for value, rep in zip(values, reports)]


def format_report(reports: list[MethodReport],
                  include_time: bool = True) -> str:
    """Line-oriented structured text: fold records plus aggregate lines.

    With include_time=False the wall-time fields are omitted, which makes
    the output byte-stable across runs with identical flags and seed.
    """
    lines = []
    for rep in reports:
        for r in rep.records:
            params = ",".join(f"{k}:{v:g}" for k, v in sorted(r.params.items()))
            parts = [f"fold dataset={rep.dataset} method={rep.method}",
                     f"seed={rep.seed} fold={r.fold} params={params}"]
            if r.error is None:
                parts.append(f"acc={r.accuracy:.9f} wf={r.weighted_f:.9f}")
            else:
                parts.append(f"error={r.error!r}")
            parts.append(f"rules={r.n_rules}")
            if include_time:
                parts.append(f"time={r.seconds:.4f}")
            lines.append(" ".join(parts))
    for rep in reports:
        parts = [f"aggregate dataset={rep.dataset} method={rep.method}",
                 f"seed={rep.seed}",
                 f"acc_mean={rep.mean_accuracy():.9f}",
                 f"acc_std={rep.std_accuracy():.9f}",
                 f"wf_mean={rep.mean_weighted_f():.9f}",
                 f"wf_std={rep.std_weighted_f():.9f}",
                 f"rules_mean={rep.mean_rules():.4f}",
                 f"failed={rep.n_failed()}"]
        if include_time:
            parts.append(f"time_mean={rep.mean_seconds():.4f}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
