"""Cross-validated evaluation, grid search, parameter sweeps and rule readout."""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import MAX_ORDER, basis_labels, expand_basis
from .data import Dataset, normalize, stratified_folds
from .distill import (DistillConfig, distill, teacher_logits,
                      vanilla_kd_distill)
from .rules import PARTITION, PARTITION_LABELS, build_rule_base
from .student import (STUDENT_ORDER, StudentModel, TrainConfig,
                      TrainingDiverged, init_student, onehot_encode,
                      predict_student, train_student)
from .teacher import (TEACHER_ORDER, TeacherModel, fit_teacher,
                      predict_teacher)

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
        for name in ("rule_counts", "temperatures", "target_weights",
                     "non_target_weights", "ce_weights"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be non-empty")

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


def weighted_f(pred: np.ndarray, truth: np.ndarray, n_classes: int) -> float:
    """Support-weighted mean of per-class F1 scores."""
    pred, truth = _labels(pred, truth)
    total = 0.0
    for c in range(n_classes):
        support = int((truth == c).sum())
        if support == 0:
            continue
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


def _candidates(method: str, grid: GridSpec) -> list[dict]:
    keys = _SEARCHED[_parse_method(method)[0]]
    values = [getattr(grid, _KEYS[key][0]) for key in keys]
    return [dict(zip(keys, combo)) for combo in itertools.product(*values)]


def fit_method(method: str, params: dict, grid: GridSpec, X, y,
               n_classes: int, teacher_seed: int, student_seed: int):
    """Fit one method's model on (X, y) with one candidate's params.

    grid supplies the fixed constants; the rule bases are drawn with
    teacher_seed and student_seed. Returns (model, loss trace), the trace
    empty for a teacher.
    """
    fit, order = _parse_method(method)
    class_labels = np.arange(n_classes, dtype=float)

    def rule_base(seed):
        return build_rule_base(params["K"], X.shape[1], grid.width, seed)

    if fit == "llm":
        return fit_teacher(rule_base(teacher_seed), X, y.astype(float),
                           grid.reg, class_labels, order), []
    sm = init_student(rule_base(student_seed), n_classes, order)
    Y = onehot_encode(y, n_classes)
    if fit == "gd":
        return train_student(sm, X, Y,
                             TrainConfig(grid.lr, grid.max_epochs, grid.tol))
    tm = fit_teacher(rule_base(teacher_seed), X, y.astype(float), grid.reg,
                     class_labels)
    t_out = predict_teacher(tm, X)
    cfg = DistillConfig(grid.lr, grid.max_epochs, grid.tol,
                        **{_KEYS[key][1]: v for key, v in params.items()
                           if key != "K"})
    if fit == "dkd":
        return distill(t_out, sm, X, Y, cfg, class_labels)
    return vanilla_kd_distill(t_out, sm, X, Y, cfg, kd_weight=params["lam"],
                              class_labels=class_labels)


def predict_class(model, X: np.ndarray) -> np.ndarray:
    """Predicted class indices of a fitted student or teacher."""
    if isinstance(model, StudentModel):
        return predict_student(model, X)
    return teacher_logits(predict_teacher(model, X),
                          model.class_labels).argmax(axis=1)


def _fit_predict(method: str, params: dict, grid: GridSpec,
                 Xtr, ytr, Xte, n_classes: int, seed: int, fold: int):
    model, _ = fit_method(method, params, grid, Xtr, ytr, n_classes,
                          _rb_seed(seed, fold, student_side=False),
                          _rb_seed(seed, fold, student_side=True))
    return predict_class(model, Xte)


def _select_params(method, candidates, grid, Xtr, ytr, n_classes, seed, fold):
    """Inner 3-fold CV on the training split, max mean accuracy.

    Candidates are enumerated smallest-K-then-smallest-temperature first,
    so ties resolve toward the simpler model.
    """
    if len(candidates) == 1:
        return candidates[0]
    inner = stratified_folds(ytr, 3, seed=seed * 7919 + fold)
    best, best_acc = None, -1.0
    for params in candidates:
        accs = []
        for i in range(inner.k):
            tr, te = inner.split(i)
            try:
                pred = _fit_predict(method, params, grid, Xtr[tr], ytr[tr],
                                    Xtr[te], n_classes, seed, fold)
                accs.append(accuracy(pred, ytr[te]))
            except TrainingDiverged:
                accs.append(0.0)
        mean_acc = float(np.mean(accs))
        if mean_acc > best_acc:
            best, best_acc = params, mean_acc
    return best


def run_method(method: str, ds: Dataset, grid: GridSpec, seed: int,
               dataset_name: str = "data",
               global_normalize: bool = False) -> MethodReport:
    """Outer CV evaluation of one method; one record per fold.

    A diverged fold is recorded with its error message and excluded from the
    aggregates, never silently dropped. Wall time covers the final fit and
    prediction, not data handling or the inner search.
    """
    _parse_method(method)
    report = MethodReport(method, dataset_name, seed)
    plan = stratified_folds(ds.y, grid.folds, seed)
    X = ds.X
    if global_normalize:
        X, _, _ = normalize(X)
    for fold in range(grid.folds):
        tr, te = plan.split(fold)
        if global_normalize:
            Xtr, Xte = X[tr], X[te]
        else:
            Xtr, Xte, _ = normalize(X[tr], X[te])
        ytr, yte = ds.y[tr], ds.y[te]
        params = _select_params(method, _candidates(method, grid), grid,
                                Xtr, ytr, ds.n_classes, seed, fold)
        record = FoldRecord(fold, params, n_rules=params["K"])
        t0 = time.perf_counter()
        try:
            pred = _fit_predict(method, params, grid, Xtr, ytr, Xte,
                                ds.n_classes, seed, fold)
            record.seconds = time.perf_counter() - t0
            record.accuracy = accuracy(pred, yte)
            record.weighted_f = weighted_f(pred, yte, ds.n_classes)
        except TrainingDiverged as exc:
            record.seconds = time.perf_counter() - t0
            record.error = str(exc)
        report.records.append(record)
    return report


SWEEP_PARAMETERS = ("tau", "zeta", "lambda", "phi", "lambda/zeta",
                    "(lambda+zeta)/phi")


def sweep(parameter: str, ds: Dataset, grid: GridSpec, seed: int,
          dataset_name: str = "data") -> list[dict]:
    """Vary one distillation parameter (or ratio) over the candidate set.

    The base configuration is the first entry of each GridSpec candidate
    set; emits one (value, mean accuracy, std) record per candidate.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    base = {key: getattr(grid, name)[0] for key, (name, _) in _KEYS.items()}
    # lambda and both ratios run over the non-target weight candidates
    values = getattr(grid, _KEYS.get(parameter, _KEYS["lam"])[0])
    records = []
    for value in values:
        params = dict(base)
        if parameter == "lambda/zeta":
            params["lam"] = value * params["zeta"]
        elif parameter == "(lambda+zeta)/phi":
            params["phi"] = (params["lam"] + params["zeta"]) / value
        else:
            params["lam" if parameter == "lambda" else parameter] = value
        point = replace(grid, **{_KEYS[key][0]: (v,)
                                 for key, v in params.items()})
        rep = run_method("distill-dkd", ds, point, seed, dataset_name)
        records.append({"parameter": parameter, "value": value,
                        "mean_accuracy": rep.mean_accuracy(),
                        "std_accuracy": rep.std_accuracy()})
    return records


def _linguistic(center: float) -> str:
    return PARTITION_LABELS[int(np.argmin(np.abs(PARTITION - center)))]


def rule_readout(model, sample: np.ndarray) -> str:
    """Linguistic IF/THEN dump of every rule, evaluated at one sample."""
    x = np.asarray(sample, dtype=float).ravel()
    rb = model.rule_base
    if x.size != rb.n_features:
        raise ValueError("sample length must match the model's feature count")
    labels = basis_labels(model.order, rb.n_features)
    d = len(labels)
    bx = expand_basis(x, model.order)
    lines = []
    for k in range(rb.n_rules):
        lines.append(f"Rule {k + 1}:")
        lines.append("IF:")
        for i in range(rb.n_features):
            lines.append(f"  feature {i + 1} is {_linguistic(rb.centers[k, i])}")
        lines.append("THEN:")
        if isinstance(model, StudentModel):
            block = model.coeffs[k * d:(k + 1) * d, :]
            for c in range(model.n_classes):
                expr = " + ".join(f"{block[j, c]:.4f}*{labels[j]}"
                                  for j in range(d))
                lines.append(f"  output {c + 1} = {expr} "
                             f"= {float(bx @ block[:, c]):.4f}")
        elif isinstance(model, TeacherModel):
            block = model.coeffs[k * d:(k + 1) * d]
            lines.append(f"  output = {float(bx @ block):.4f}")
        else:
            raise TypeError(f"cannot explain {type(model).__name__}")
    pred = int(predict_class(model, x[None, :])[0])
    lines.append(f"Predicted class: {pred}")
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
