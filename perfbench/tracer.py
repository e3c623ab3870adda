"""In-memory span tracer that wraps fuzzykd's public functions from outside.

Installing the tracer replaces every public function of the measured
modules, in every fuzzykd namespace that refers to it, with a wrapper that
records a span (name, start, end, parent). Uninstalling puts the original
objects back. Self time is a span's duration minus the time its direct
child spans cover; calls run on one thread, so children never overlap.

A few functions get a hook that also counts work: the loss/gradient
closure handed to ``gradient_descent`` is wrapped as ``student.loss_grad``,
returned loss traces give epochs and stop reasons, and teacher inputs are
hashed to find repeated fits.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time
from collections import Counter

import numpy as np
from fuzzykd.student import TrainingDiverged

LAYERS = ("data", "rules", "basis", "teacher", "student", "distill",
          "harness", "serialize")
MARK = "__perfbench_traced__"


def traced_attributes() -> list[str]:
    """Names of fuzzykd module attributes that are still trace wrappers."""
    return [f"{name}.{attr}"
            for name, mod in sorted(_fuzzykd_modules().items())
            for attr, obj in vars(mod).items() if getattr(obj, MARK, False)]


def _fuzzykd_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "fuzzykd" or
                                    name.startswith("fuzzykd."))}


def _public_functions(mod) -> dict:
    return {name: obj for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == mod.__name__}


class Phase:
    """Per-function call counts, self times and extra counters of one phase."""

    def __init__(self, calls=None, self_s=None, counters=None):
        self.calls = Counter(calls or {})
        self.self_s = Counter(self_s or {})
        self.counters = Counter(counters or {})

    def __add__(self, other: "Phase") -> "Phase":
        return Phase(_add(self.calls, other.calls),
                     _add(self.self_s, other.self_s),
                     _add(self.counters, other.counters))

    def scaled(self, factor: float) -> "Phase":
        return Phase({k: v * factor for k, v in self.calls.items()},
                     {k: v * factor for k, v in self.self_s.items()},
                     {k: v * factor for k, v in self.counters.items()})


def _add(a: Counter, b: Counter) -> Counter:
    # Counter's own "+" drops totals <= 0, which would lose zero counts.
    out = Counter(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


class Tracer:
    """Records spans in memory while installed; ``take`` closes a phase."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._fit_inputs: set[str] = set()
        self._patches: list[tuple] = []

    # -- installing ---------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _fuzzykd_modules()
        wrappers = {}
        for layer in LAYERS:
            for fname, fn in _public_functions(
                    modules[f"fuzzykd.{layer}"]).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                return hook(self, name, fn, args, kwargs)
            return self.span(name, fn, *args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    # -- recording ----------------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def take(self) -> Phase:
        """Stats of everything recorded since the last call; then reset."""
        if self._stack:
            raise RuntimeError("cannot close a phase inside an open span")
        phase = Phase()
        for name, start, end, parent in self.spans:
            dur = end - start
            phase.calls[name] += 1
            phase.self_s[name] = phase.self_s.get(name, 0.0) + dur
            if parent >= 0:
                pname = self.spans[parent][0]
                phase.self_s[pname] = phase.self_s.get(pname, 0.0) - dur
        phase.counters = self.counters
        phase.counters["teacher.fit_teacher.unique"] = len(self._fit_inputs)
        self.spans, self.counters, self._fit_inputs = [], Counter(), set()
        return phase


# -- hooks: a hook runs the call itself and counts what the span cannot -----
def _gradient_descent(tr: Tracer, name, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    loss_grad = bound.arguments["loss_grad"]
    bound.arguments["loss_grad"] = functools.partial(
        tr.span, "student.loss_grad", loss_grad)
    cfg = bound.arguments["cfg"]
    try:
        Q, trace = tr.span(name, fn, *bound.args, **bound.kwargs)
    except TrainingDiverged as exc:
        tr.counters[f"{name}.epochs"] += exc.epoch
        raise
    tr.counters[f"{name}.epochs"] += len(trace)
    tr.counters[f"{name}.stop_{_stop_reason(trace, cfg)}"] += 1
    return Q, trace


def _stop_reason(trace: list[dict], cfg) -> str:
    """Why the loop ended, read back from its loss trace and config."""
    if len(trace) >= 2:
        delta = trace[-2]["total"] - trace[-1]["total"]
        if delta < 0:
            return "rise"
        if delta <= cfg.tol:
            return "tol"
    return "cap"


def _distill(tr: Tracer, name, fn, args, kwargs):
    try:
        return tr.span(name, fn, *args, **kwargs)
    except TrainingDiverged:
        tr.counters[f"{name}.diverged"] += 1
        raise


def _fit_teacher(tr: Tracer, name, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    h = hashlib.sha1()
    for key, value in bound.arguments.items():
        h.update(key.encode())
        if key == "rb":
            value = (value.centers, value.widths)
        for part in (value if isinstance(value, tuple) else (value,)):
            arr = np.ascontiguousarray(np.asarray(part, dtype=float))
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
    tr._fit_inputs.add(h.hexdigest())
    return tr.span(name, fn, *args, **kwargs)


def _ridge_solve(tr: Tracer, name, fn, args, kwargs):
    A = inspect.signature(fn).bind(*args, **kwargs).arguments["A"]
    if A.shape[0] < A.shape[1]:
        tr.counters[f"{name}.dual"] += 1
    return tr.span(name, fn, *args, **kwargs)


def _stack_design_matrix(tr: Tracer, name, fn, args, kwargs):
    out = tr.span(name, fn, *args, **kwargs)
    rows, cols = out.shape  # cols = K * D
    tr.counters[f"{name}.bytes"] += rows * cols * 8
    return out


def _save_model(tr: Tracer, name, fn, args, kwargs):
    path = inspect.signature(fn).bind(*args, **kwargs).arguments["path"]
    out = tr.span(name, fn, *args, **kwargs)
    tr.counters["serialize.model_bytes"] += os.path.getsize(path)
    return out


_HOOKS = {
    "student.gradient_descent": _gradient_descent,
    "distill.distill": _distill,
    "teacher.fit_teacher": _fit_teacher,
    "teacher.ridge_solve": _ridge_solve,
    "basis.stack_design_matrix": _stack_design_matrix,
    "serialize.save_model": _save_model,
}


def layer_metrics(setup: Phase, passes: list[Phase]) -> dict[str, float]:
    """Per-layer values: the traced set-up plus the mean traced pass."""
    total = setup
    if passes:
        total = setup + sum(passes[1:], passes[0]).scaled(1.0 / len(passes))
    calls, self_s, c = total.calls, total.self_s, total.counters
    out: dict[str, float] = {}
    for fname in ("student.loss_grad", "student.gradient_descent",
                  "distill.distill", "distill.soft_labels",
                  "teacher.fit_teacher", "teacher.ridge_solve",
                  "basis.stack_design_matrix", "teacher.predict_teacher",
                  "rules.firing_strengths"):
        out[f"{fname}.calls"] = float(calls[fname])
    for fname in ("student.loss_grad", "student.cross_entropy",
                  "student.softmax", "student.gradient_descent",
                  "distill.distill", "distill.soft_labels",
                  "teacher.fit_teacher", "teacher.ridge_solve",
                  "basis.stack_design_matrix", "teacher.predict_teacher",
                  "rules.firing_strengths", "student.predict_student",
                  "serialize.load_model", "serialize.save_model",
                  "data.normalize", "data.stratified_folds", "data.load_csv",
                  "harness.run_method"):
        out[f"{fname}.self_s"] = float(self_s.get(fname, 0.0))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(sum(
            v for k, v in self_s.items() if k.split(".")[0] == layer))
    gd = "student.gradient_descent"
    epochs = c[f"{gd}.epochs"]
    out[f"{gd}.epochs"] = float(epochs)
    for reason in ("cap", "tol", "rise"):
        out[f"{gd}.stop_{reason}"] = float(c[f"{gd}.stop_{reason}"])
    out["student.loss_grad.per_epoch"] = _ratio(calls["student.loss_grad"],
                                                epochs)
    out["distill.distill.diverged"] = float(c["distill.distill.diverged"])
    out["teacher.fit_teacher.unique_frac"] = _ratio(
        c["teacher.fit_teacher.unique"], calls["teacher.fit_teacher"])
    out["teacher.ridge_solve.dual_frac"] = _ratio(
        c["teacher.ridge_solve.dual"], calls["teacher.ridge_solve"])
    out["basis.stack_design_matrix.bytes"] = float(
        c["basis.stack_design_matrix.bytes"])
    out["serialize.model_bytes"] = float(c["serialize.model_bytes"])
    return out


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0
