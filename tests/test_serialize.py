"""Versioned model serialization round-trips."""
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from fuzzykd.rules import build_rule_base
from fuzzykd.serialize import load_model, save_model
from fuzzykd.student import StudentModel, init_student, predict_student
from fuzzykd.teacher import TeacherModel, fit_teacher, predict_teacher


def test_teacher_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    rb = build_rule_base(3, 2, seed=0)
    X = rng.uniform(0, 1, (20, 2))
    tm = fit_teacher(rb, X, rng.integers(0, 3, 20).astype(float), 100.0,
                     np.arange(3, dtype=float))
    path = tmp_path / "teacher.json"
    save_model(tm, path)
    back = load_model(path)
    assert isinstance(back, TeacherModel)
    assert back.order == 3 and back.reg == 100.0
    np.testing.assert_array_equal(back.coeffs, tm.coeffs)
    np.testing.assert_allclose(predict_teacher(back, X),
                               predict_teacher(tm, X), atol=1e-12)


def test_student_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    rb = build_rule_base(2, 3, seed=1)
    coeffs = np.random.default_rng(2).uniform(-0.5, 0.5, (2 * 4, 3))
    sm = StudentModel(rb, coeffs, 3)
    X = rng.uniform(0, 1, (10, 3))
    path = tmp_path / "student.json"
    save_model(sm, path)
    back = load_model(path)
    assert back.n_classes == 3 and back.order == 1
    np.testing.assert_array_equal(predict_student(back, X),
                                  predict_student(sm, X))


def test_non_model_not_saved(tmp_path):
    # a model's fields without its type
    fake = SimpleNamespace(rule_base=build_rule_base(1, 1, seed=0), order=1)
    with pytest.raises(TypeError, match="cannot serialize SimpleNamespace"):
        save_model(fake, tmp_path / "model.json")


def test_plain_object_not_saved(tmp_path):
    # the type is checked before any field is read, and nothing is written
    with pytest.raises(TypeError, match="cannot serialize object"):
        save_model(object(), tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()


def test_missing_magic_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "kind": "student"}))
    with pytest.raises(ValueError, match="not a fuzzykd model"):
        load_model(path)


def test_unknown_version_rejected(tmp_path):
    rb = build_rule_base(1, 1, seed=0)
    sm = init_student(rb, 2)
    path = tmp_path / "model.json"
    save_model(sm, path)
    record = json.loads(path.read_text())
    record["version"] = 99
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError, match="version"):
        load_model(path)


@pytest.mark.parametrize("text,message", [
    ("[]", "not a fuzzykd model file"),
    ('{"magic": ', "not a JSON file"),
], ids=["top-level list", "truncated"])
def test_unreadable_file_named(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_model(path)


@pytest.mark.parametrize("edit,message", [
    (lambda r: r.pop("kind"), "model record has no key 'kind'"),
    (lambda r: r.update(rule_base=[]), "malformed model record"),
    (lambda r: r.update(coeffs="abc"), "malformed model record"),
    (lambda r: r.update(kind="oracle"), "unknown model kind 'oracle'"),
    # a teacher record whose reg TeacherModel rejects
    (lambda r: r.update(kind="teacher", reg=0, class_labels=[0, 1]),
     "malformed model record (regularization parameter must be positive)"),
    (lambda r: r.update(n_classes=2.0),
     "malformed model record (n_classes must be an integer, got 2.0)"),
    (lambda r: r.update(order=1.0),
     "malformed model record (order must be an integer in 0..3, got 1.0)"),
], ids=["no kind", "rule base list", "text coeffs", "unknown kind",
        "teacher reg 0", "float n_classes", "float order"])
def test_malformed_record_named(tmp_path, edit, message):
    path = tmp_path / "model.json"
    save_model(init_student(build_rule_base(1, 1, seed=0), 2), path)
    record = json.loads(path.read_text())
    edit(record)
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_model(path)
