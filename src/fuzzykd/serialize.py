"""Versioned JSON serialization of TSK models.

A model file is one JSON object: magic, version, rule base, order, kind,
coefficients, then the kind's own fields (a teacher's reg and class
labels, a student's class count). Version 2, the one written, stores
coeffs as {"shape": [K*D, c], "hex": ...}: the K*D x c array's
little-endian float64 bytes in hex, so a load decodes 8 bytes a value
instead of parsing decimal text, and the values come back bit for bit.
A teacher's shape is [K*D, 1]. Version 1, which still loads, held the
same record with coeffs as JSON numbers: a teacher's flat, a student's
as K*D rows of c.
"""
from __future__ import annotations

import json

import numpy as np

from .data import _check_count
from .rules import RuleBase, TSKModel

MAGIC = "fuzzykd-model"
VERSION = 2


def _rule_base_record(rb: RuleBase) -> dict:
    return {"n_rules": rb.n_rules, "n_features": rb.n_features,
            "centers": rb.centers.tolist(), "widths": rb.widths.tolist()}


def _check_outputs(model: TSKModel, version: int) -> TSKModel:
    """The model, if a file holds it: a teacher (reg set) has one output, a
    student (reg None) two or more. save_model and load_model both check."""
    if (model.reg is None) == (model.coeffs.shape[1] == 1):
        raise ValueError(f"version {version} cannot hold a model with reg="
                         f"{model.reg} and {model.coeffs.shape[1]} outputs")
    return model


def save_model(model, path) -> None:
    if not isinstance(model, TSKModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    _check_outputs(model, VERSION)
    coeffs = {"shape": list(model.coeffs.shape),
              "hex": np.asarray(model.coeffs, "<f8").tobytes().hex()}
    if model.reg is None:
        fields = {"kind": "student", "coeffs": coeffs,
                  "n_classes": model.n_classes}
    else:
        fields = {"kind": "teacher", "coeffs": coeffs, "reg": model.reg,
                  "class_labels": model.class_labels.tolist()}
    record = {"magic": MAGIC, "version": VERSION,
              "rule_base": _rule_base_record(model.rule_base),
              "order": model.order, **fields}
    text = json.dumps(record, allow_nan=False)  # fails before the file opens
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _decode_coeffs(record: dict, version: int) -> np.ndarray:
    """The record's coeffs as a K*D x c array; a nan or inf value is left
    for TSKModel to locate."""
    value = record["coeffs"]
    if version == 1:
        if record["kind"] == "teacher":
            return np.reshape(value, (-1, 1))
        return np.array(value)
    shape, raw = value["shape"], bytes.fromhex(value["hex"])
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"coeffs shape must be two integers >= 0, got "
                         f"{shape}")
    if len(raw) != shape[0] * shape[1] * 8:
        raise ValueError(f"coeffs hex holds {len(raw)} bytes, shape {shape} "
                         f"needs {shape[0] * shape[1] * 8}")
    return np.frombuffer(raw, "<f8").reshape(shape)


def load_model(path) -> TSKModel:
    """Read a model file of version 1 or 2; any malformed content is a
    ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON file ({exc})") from None
    if not isinstance(record, dict) or record.get("magic") != MAGIC:
        raise ValueError(f"{path}: not a fuzzykd model file")
    version = record.get("version")
    if version not in (1, 2):
        raise ValueError(f"{path}: unsupported model version {version}")
    try:
        kind = record["kind"]
        rb = RuleBase(np.array(record["rule_base"]["centers"]),
                      np.array(record["rule_base"]["widths"]))
        if kind == "teacher":
            return _check_outputs(TSKModel(
                rb, _decode_coeffs(record, version), record["order"],
                np.array(record["class_labels"]), record["reg"]), version)
        if kind == "student":
            # a float count would pass np.arange: check it first
            _check_count(record["n_classes"], "n_classes", 2)
            return _check_outputs(TSKModel(
                rb, _decode_coeffs(record, version), record["order"],
                np.arange(record["n_classes"], dtype=float)), version)
    except KeyError as exc:
        raise ValueError(f"{path}: model record has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model record ({exc})") from None
    raise ValueError(f"{path}: unknown model kind {kind!r}")
