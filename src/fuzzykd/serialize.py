"""Versioned JSON serialization of teacher and student models."""
from __future__ import annotations

import json

import numpy as np

from .rules import RuleBase
from .student import StudentModel
from .teacher import TeacherModel

MAGIC = "fuzzykd-model"
VERSION = 1


def _rule_base_record(rb: RuleBase) -> dict:
    return {"n_rules": rb.n_rules, "n_features": rb.n_features,
            "centers": rb.centers.tolist(), "widths": rb.widths.tolist()}


def save_model(model, path) -> None:
    if isinstance(model, TeacherModel):
        fields = {"kind": "teacher", "coeffs": model.coeffs.tolist(),
                  "reg": model.reg,
                  "class_labels": model.class_labels.tolist()}
    elif isinstance(model, StudentModel):
        fields = {"kind": "student", "coeffs": model.coeffs.tolist(),
                  "n_classes": model.n_classes}
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    record = {"magic": MAGIC, "version": VERSION,
              "rule_base": _rule_base_record(model.rule_base),
              "order": model.order, **fields}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
        fh.write("\n")


def load_model(path):
    """Read a model file; any malformed content is a ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON file ({exc})") from None
    if not isinstance(record, dict) or record.get("magic") != MAGIC:
        raise ValueError(f"{path}: not a fuzzykd model file")
    if record.get("version") != VERSION:
        raise ValueError(f"{path}: unsupported model version "
                         f"{record.get('version')}")
    try:
        kind = record["kind"]
        rb = RuleBase(np.array(record["rule_base"]["centers"]),
                      np.array(record["rule_base"]["widths"]))
        if kind == "teacher":
            return TeacherModel(rb, np.array(record["coeffs"]),
                                record["reg"],
                                np.array(record["class_labels"]),
                                record["order"])
        if kind == "student":
            return StudentModel(rb, np.array(record["coeffs"]),
                                record["n_classes"], record["order"])
    except KeyError as exc:
        raise ValueError(f"{path}: model record has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model record ({exc})") from None
    raise ValueError(f"{path}: unknown model kind {kind!r}")
