"""Versioned JSON serialization of TSK models."""
from __future__ import annotations

import json

import numpy as np

from .data import _check_count
from .rules import RuleBase, TSKModel

MAGIC = "fuzzykd-model"
VERSION = 1


def _rule_base_record(rb: RuleBase) -> dict:
    return {"n_rules": rb.n_rules, "n_features": rb.n_features,
            "centers": rb.centers.tolist(), "widths": rb.widths.tolist()}


def save_model(model, path) -> None:
    if not isinstance(model, TSKModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    if (model.reg is None) == (model.coeffs.shape[1] == 1):
        raise ValueError(f"version {VERSION} cannot hold a model with reg="
                         f"{model.reg} and {model.coeffs.shape[1]} outputs")
    if model.reg is None:
        fields = {"kind": "student", "coeffs": model.coeffs.tolist(),
                  "n_classes": model.n_classes}
    else:
        fields = {"kind": "teacher", "coeffs": model.coeffs[:, 0].tolist(),
                  "reg": model.reg,
                  "class_labels": model.class_labels.tolist()}
    record = {"magic": MAGIC, "version": VERSION,
              "rule_base": _rule_base_record(model.rule_base),
              "order": model.order, **fields}
    text = json.dumps(record, allow_nan=False)  # fails before the file opens
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_model(path) -> TSKModel:
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
            return TSKModel(rb, np.reshape(record["coeffs"], (-1, 1)),
                            record["order"],
                            np.array(record["class_labels"]), record["reg"])
        if kind == "student":
            # a float count would pass np.arange: check it first
            _check_count(record["n_classes"], "n_classes", 2)
            return TSKModel(rb, np.array(record["coeffs"]), record["order"],
                            np.arange(record["n_classes"], dtype=float))
    except KeyError as exc:
        raise ValueError(f"{path}: model record has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model record ({exc})") from None
    raise ValueError(f"{path}: unknown model kind {kind!r}")
