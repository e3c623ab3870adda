"""Cross-validated evaluation, grid search, parameter sweeps and rule readout."""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import MAX_ORDER, basis_labels, expand_basis, monomial_map
from .data import Dataset, _check_count, normalize, stratified_folds
from .distill import DistillConfig, distill_batch, teacher_logits
from .rules import (PARTITION, PARTITION_LABELS, TSKModel, build_rule_base,
                    predict_class, predict_classes)
from .student import (STUDENT_ORDER, TrainConfig, TrainingDiverged,
                      init_student, onehot_encode, train_student)
from .teacher import TEACHER_ORDER, fit_teacher, predict_teacher

# method -> (fit, order). Fits: "llm" closed-form teacher, "gd" student by
# gradient training, "kd"/"dkd" teacher distilled into a student.
_METHODS = {"teacher-only": ("llm", TEACHER_ORDER),
            "student-only": ("gd", STUDENT_ORDER),
            "distill-kd": ("kd", STUDENT_ORDER),
            "distill-dkd": ("dkd", STUDENT_ORDER),
            **{f"tsk-order-{order}-{fit}": (fit, order)
               for order in range(MAX_ORDER + 1) for fit in ("llm", "gd")}}
# fit -> the candidate keys its grid search enumerates
_SEARCHED = {"llm": ("K",), "gd": ("K",), "kd": ("K", "tau", "lam", "phi"),
             "dkd": ("K", "tau", "zeta", "lam", "phi")}
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


def _parse_method(method: str) -> tuple[str, int]:
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    return _METHODS[method]


def candidates(method: str, grid: GridSpec) -> list[dict]:
    keys = _SEARCHED[_parse_method(method)[0]]
    values = [getattr(grid, _KEYS[key][0]) for key in keys]
    return [dict(zip(keys, combo)) for combo in itertools.product(*values)]


def fit_candidates(method: str, group: list[dict], grid: GridSpec, X, y,
                   n_classes: int, teacher_seed: int,
                   student_seed: int) -> list:
    """Fit one method's model on (X, y) for each candidate of one K.

    grid supplies the fixed constants. A student's training settings are
    checked for every candidate before the first fit, so a bad setting
    costs no rule base or teacher fit. The rule bases are drawn with
    teacher_seed and student_seed. The candidates share the rule bases, the
    teacher fit and its logits, and the student's design matrix, and the
    distilled students train together (distill_batch). Returns, per
    candidate, (model, loss trace), the trace empty for a teacher, or the
    TrainingDiverged that ended its fit. The harness fits through
    _cross_validate; the CLI calls this directly for its one candidate.
    """
    fit, order = _parse_method(method)
    if len({params["K"] for params in group}) != 1:
        raise ValueError("the candidates must share one rule count K")
    config = TrainConfig if fit == "gd" else DistillConfig
    cfgs = [] if fit == "llm" else [
        config(grid.lr, grid.max_epochs, grid.tol,
               **{_KEYS[key][1]: v for key, v in params.items() if key != "K"})
        for params in group]
    class_labels = np.arange(n_classes, dtype=float)

    def rule_base(seed):
        return build_rule_base(group[0]["K"], X.shape[1], grid.width, seed)

    if fit == "llm":  # K is a teacher's only key: the fits are all the same
        return [(fit_teacher(rule_base(teacher_seed), X, y.astype(float),
                             grid.reg, class_labels, order), [])] * len(group)
    sm = init_student(rule_base(student_seed), n_classes, order)
    Y = onehot_encode(y, n_classes)
    if fit == "gd":
        try:
            fitted = train_student(sm, X, Y, cfgs[0])
        except TrainingDiverged as exc:
            fitted = exc
        return [fitted] * len(group)
    tm = fit_teacher(rule_base(teacher_seed), X, y.astype(float), grid.reg,
                     class_labels)
    kd_weights = [params["lam"] for params in group] if fit == "kd" else None
    return distill_batch(teacher_logits(predict_teacher(tm, X), class_labels),
                         sm, X, Y, cfgs, kd_weights)


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


def _select_params(method, candidates, grid, Xtr, ytr, n_classes, seed, fold):
    """The candidate of highest mean inner 3-fold CV accuracy on the
    training split.

    The inner fits use the outer fold's rule bases. A fit that diverged
    scores 0 on its inner fold; only accuracy is computed. Candidates are
    enumerated smallest-K-then-smallest-temperature first, and the first
    of equal scores wins, so ties resolve toward the simpler model.
    """
    if len(candidates) == 1:
        return candidates[0]
    inner = stratified_folds(ytr, 3, seed=seed * 7919 + fold)
    splits = ((fold, Xtr[tr], ytr[tr], Xtr[te], ytr[te])
              for tr, te in map(inner.split, range(inner.k)))
    accs = [[0.0 if isinstance(pred, TrainingDiverged)
             else accuracy(pred, yte) for pred in preds]
            for _, yte, _, preds in _cross_validate(
                method, candidates, grid, splits, n_classes, seed)]
    return candidates[int(np.argmax(np.mean(accs, axis=0)))]


def run_method(method: str, ds: Dataset, grid: GridSpec, seed: int,
               dataset_name: str = "data",
               global_normalize: bool = False) -> MethodReport:
    """Outer CV evaluation of one method; one record per fold.

    A fold selects its candidate (_select_params), then fits and predicts
    it (_cross_validate). A diverged fold is recorded with its error
    message and excluded from the aggregates, never silently dropped. Wall
    time covers the final fit and prediction, not data handling, scoring
    or the inner search.
    """
    points = candidates(method, grid)
    report = MethodReport(method, dataset_name, seed)
    for split in _outer_folds(ds, grid, seed, global_normalize):
        fold, Xtr, ytr = split[:3]
        params = _select_params(method, points, grid, Xtr, ytr,
                                ds.n_classes, seed, fold)
        for _, yte, seconds, (pred,) in _cross_validate(
                method, [params], grid, [split], ds.n_classes, seed):
            report.records.append(_record(fold, params, pred, yte, seconds))
    return report


def _outer_folds(ds: Dataset, grid: GridSpec, seed: int,
                 global_normalize: bool = False):
    """(fold, Xtr, ytr, Xte, yte) per outer fold, min-max normalized on the
    fold's training rows, or once on all rows with global_normalize."""
    plan = stratified_folds(ds.y, grid.folds, seed)
    X = normalize(ds.X)[0] if global_normalize else ds.X
    for fold in range(grid.folds):
        tr, te = plan.split(fold)
        if global_normalize:
            Xtr, Xte = X[tr], X[te]
        else:
            Xtr, Xte, _ = normalize(X[tr], X[te])
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


def _linguistic(center: float) -> str:
    return PARTITION_LABELS[int(np.argmin(np.abs(PARTITION - center)))]


def rule_readout(model, sample: np.ndarray) -> str:
    """Linguistic IF/THEN dump of every rule, evaluated at one sample."""
    if not isinstance(model, TSKModel):
        raise TypeError(f"cannot explain {type(model).__name__}")
    x = np.asarray(sample, dtype=float).ravel()
    rb = model.rule_base
    if x.size != rb.n_features:
        raise ValueError("sample length must match the model's feature count")
    # predicting first rejects a non-finite sample before any rule output
    pred = predict_class(model, x[None, :])[0]
    labels = basis_labels(model.order, rb.n_features)
    bx = expand_basis(x, model.order)
    blocks = model.coeffs.reshape(rb.n_rules, len(labels), -1)
    # one term per distinct monomial, in the basis order of its first copy,
    # whose label lists the factors in ascending order
    mmap = monomial_map(model.order, rb.n_features)
    first = mmap.by_slot[mmap.starts]
    terms = [(s, labels[first[s]]) for s in np.argsort(first)]
    lines = []
    for k, block in enumerate(blocks):
        lines.append(f"Rule {k + 1}:")
        lines.append("IF:")
        for i in range(rb.n_features):
            lines.append(f"  feature {i + 1} is {_linguistic(rb.centers[k, i])}")
        lines.append("THEN:")
        for c, q in enumerate(block.T):
            coef = model.monomial_coeffs[:, k * block.shape[1] + c]
            expr = " + ".join(f"{coef[s]:.4f}*{label}" for s, label in terms)
            lines.append(f"  output {c + 1} = {expr} = {float(bx @ q):.4f}")
    lines.append(f"Predicted class: {pred:g}")
    return "\n".join(lines)


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
