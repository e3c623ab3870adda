"""Versioned model serialization round-trips."""
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fuzzykd.basis import basis_dim
from fuzzykd.rules import PARTITION, RuleBase, TSKModel, build_rule_base
from fuzzykd.serialize import load_model, save_model
from fuzzykd.student import init_student, predict_student
from fuzzykd.teacher import fit_teacher, predict_teacher


def test_teacher_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    rb = build_rule_base(3, 2, seed=0)
    X = rng.uniform(0, 1, (20, 2))
    tm = fit_teacher(rb, X, rng.integers(0, 3, 20).astype(float), 100.0,
                     np.arange(3, dtype=float))
    path = tmp_path / "teacher.json"
    save_model(tm, path)
    back = load_model(path)
    assert isinstance(back, TSKModel)
    assert back.order == 3 and back.reg == 100.0
    np.testing.assert_array_equal(back.coeffs, tm.coeffs)
    np.testing.assert_allclose(predict_teacher(back, X),
                               predict_teacher(tm, X), atol=1e-12)


def test_numpy_integer_order_round_trips(tmp_path):
    # the model stores a plain int, so the JSON encoder takes it
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, (20, 2))
    tm = fit_teacher(build_rule_base(2, 2, seed=3), X,
                     rng.integers(0, 2, 20).astype(float), 100.0,
                     order=np.int64(2))
    path = tmp_path / "teacher.json"
    save_model(tm, path)
    back = load_model(path)
    assert type(tm.order) is int and back.order == 2
    np.testing.assert_array_equal(back.coeffs, tm.coeffs)


def test_student_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    rb = build_rule_base(2, 3, seed=1)
    coeffs = np.random.default_rng(2).uniform(-0.5, 0.5, (2 * 4, 3))
    sm = TSKModel(rb, coeffs, 1, np.arange(3.0))
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


def _v1_record(model) -> dict:
    """A model's version-1 record, written out apart from save_model:
    coefficients as JSON numbers, a teacher's flat, a student's as rows."""
    rb = model.rule_base
    record = {"magic": "fuzzykd-model", "version": 1,
              "rule_base": {"n_rules": rb.n_rules,
                            "n_features": rb.n_features,
                            "centers": rb.centers.tolist(),
                            "widths": rb.widths.tolist()},
              "order": model.order}
    if model.reg is None:
        return {**record, "kind": "student",
                "coeffs": model.coeffs.tolist(),
                "n_classes": model.n_classes}
    return {**record, "kind": "teacher", "coeffs": model.coeffs[:, 0].tolist(),
            "reg": model.reg, "class_labels": model.class_labels.tolist()}


@pytest.mark.parametrize("edit,message", [
    (lambda r: r.pop("kind"), "model record has no key 'kind'"),
    (lambda r: r.update(rule_base=[]), "malformed model record"),
    (lambda r: r.update(coeffs="abc"), "malformed model record"),
    (lambda r: r.update(kind="oracle"), "unknown model kind 'oracle'"),
    # a teacher record whose reg TSKModel rejects
    (lambda r: r.update(kind="teacher", reg=0, class_labels=[0, 1]),
     "malformed model record (regularization parameter must be positive)"),
    (lambda r: r.update(n_classes=2.0),
     "malformed model record (n_classes must be an integer >= 2, got 2.0)"),
    (lambda r: r.update(order=1.0),
     "malformed model record (order must be an integer in 0..3, got 1.0)"),
    (lambda r: r.update(order=True),
     "malformed model record (order must be an integer in 0..3, got True)"),
    (lambda r: r["coeffs"][0].__setitem__(0, float("nan")),
     "malformed model record (non-finite value nan in coeffs at row 1, "
     "column 1)"),
    # the student's order-1 record read as a teacher: 2 coefficients
    (lambda r: r.update(kind="teacher", reg=1.0, class_labels=[0, 1],
                        coeffs=[0.0, float("inf")]),
     "malformed model record (non-finite value inf in coeffs at row 2, "
     "column 1)"),
    (lambda r: r["rule_base"].update(widths=[[float("inf")]]),
     "malformed model record (non-finite value inf in widths at row 1, "
     "column 1)"),
], ids=["no kind", "rule base list", "text coeffs", "unknown kind",
        "teacher reg 0", "float n_classes", "float order", "bool order",
        "nan coeff",
        "teacher inf coeff", "inf width"])
def test_malformed_record_named(tmp_path, edit, message):
    path = tmp_path / "model.json"
    record = _v1_record(init_student(build_rule_base(1, 1, seed=0), 2))
    edit(record)
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_model(path)


def _pinned_models() -> tuple[TSKModel, TSKModel]:
    tm = TSKModel(RuleBase(np.array([[0.25]]), np.array([[0.5]])),
                  np.array([[0.5], [-1.25], [0.1], [3e-05]]), 3,
                  np.array([0.0, 1.0, 2.0]), 100.0)
    sm = TSKModel(RuleBase(np.array([[0.75]]), np.array([[0.3]])),
                  np.array([[1.0, -0.5], [0.1, 2.5e-07]]), 1,
                  np.arange(2.0))
    return tm, sm


def _assert_same_model(back: TSKModel, model: TSKModel) -> None:
    assert back.coeffs.shape == model.coeffs.shape
    for got, want in ((back.coeffs, model.coeffs),
                      (back.rule_base.centers, model.rule_base.centers),
                      (back.rule_base.widths, model.rule_base.widths)):
        assert got.tobytes() == want.tobytes()
    assert back.class_labels.tobytes() == model.class_labels.tobytes()
    assert back.order == model.order and back.reg == model.reg


def test_version_one_bytes_are_pinned(tmp_path):
    # files written before version 2 still load: key order, the teacher's
    # flat coefficients, the student's nested K*D x C rows and the float
    # text are all part of version 1
    tm, sm = _pinned_models()
    (tmp_path / "teacher.json").write_text(
        '{"magic": "fuzzykd-model", "version": 1, "rule_base": '
        '{"n_rules": 1, "n_features": 1, "centers": [[0.25]], "widths": '
        '[[0.5]]}, "order": 3, "kind": "teacher", "coeffs": [0.5, -1.25, '
        '0.1, 3e-05], "reg": 100.0, "class_labels": [0.0, 1.0, 2.0]}\n')
    (tmp_path / "student.json").write_text(
        '{"magic": "fuzzykd-model", "version": 1, "rule_base": '
        '{"n_rules": 1, "n_features": 1, "centers": [[0.75]], "widths": '
        '[[0.3]]}, "order": 1, "kind": "student", "coeffs": [[1.0, -0.5], '
        '[0.1, 2.5e-07]], "n_classes": 2}\n')
    _assert_same_model(load_model(tmp_path / "teacher.json"), tm)
    _assert_same_model(load_model(tmp_path / "student.json"), sm)


def test_version_two_bytes_are_pinned(tmp_path):
    # version 2 is version 1 key for key, but coeffs holds the K*D x C
    # array's shape and its little-endian float64 bytes in hex
    tm, sm = _pinned_models()
    save_model(tm, tmp_path / "teacher.json")
    save_model(sm, tmp_path / "student.json")
    assert (tmp_path / "teacher.json").read_text() == (
        '{"magic": "fuzzykd-model", "version": 2, "rule_base": '
        '{"n_rules": 1, "n_features": 1, "centers": [[0.25]], "widths": '
        '[[0.5]]}, "order": 3, "kind": "teacher", "coeffs": {"shape": '
        '[4, 1], "hex": "000000000000e03f000000000000f4bf9a9999999999b93f'
        '691d554d1075ff3e"}, "reg": 100.0, "class_labels": [0.0, 1.0, '
        '2.0]}\n')
    assert (tmp_path / "student.json").read_text() == (
        '{"magic": "fuzzykd-model", "version": 2, "rule_base": '
        '{"n_rules": 1, "n_features": 1, "centers": [[0.75]], "widths": '
        '[[0.3]]}, "order": 1, "kind": "student", "coeffs": {"shape": '
        '[2, 2], "hex": "000000000000f03f000000000000e0bf9a9999999999b93f'
        '8dedb5a0f7c6903e"}, "n_classes": 2}\n')
    _assert_same_model(load_model(tmp_path / "teacher.json"), tm)
    _assert_same_model(load_model(tmp_path / "student.json"), sm)


# values whose decimal text or sign a lossy encoding would lose
EDGE_VALUES = (-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308,
               -1e308, 1.7976931348623157e308, 0.1)


@st.composite
def tsk_models(draw):
    order, k, m = (draw(st.integers(0, 3)), draw(st.integers(1, 3)),
                   draw(st.integers(1, 4)))
    teacher = draw(st.booleans())
    c = 1 if teacher else draw(st.integers(2, 4))
    coeffs = draw(arrays(np.float64, (k * basis_dim(order, m), c),
                         elements=st.one_of(
                             st.sampled_from(EDGE_VALUES),
                             st.floats(allow_nan=False,
                                       allow_infinity=False))))
    centers = draw(arrays(np.float64, (k, m),
                          elements=st.sampled_from(PARTITION.tolist())))
    widths = draw(arrays(np.float64, (k, m), elements=st.floats(
        min_value=5e-324, max_value=1e308)))
    if not teacher:
        return TSKModel(RuleBase(centers, widths), coeffs, order,
                        np.arange(float(c)))
    labels = sorted(draw(st.sets(st.floats(-1e6, 1e6), min_size=1,
                                 max_size=4)))
    reg = draw(st.floats(min_value=5e-324, max_value=1e308))
    return TSKModel(RuleBase(centers, widths), coeffs, order,
                    np.array(labels), reg)


@settings(max_examples=60, deadline=None)
@given(model=tsk_models())
def test_round_trip_is_bit_exact(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("round-trip") / "model.json"
    save_model(model, path)
    _assert_same_model(load_model(path), model)


NAN_BYTES, INF_BYTES = "000000000000f87f", "000000000000f07f"


def _set_hex(r: dict, hex_digits: str) -> None:
    r["coeffs"]["hex"] = hex_digits


@pytest.mark.parametrize("edit,message", [
    (lambda r: _set_hex(r, "zz" + r["coeffs"]["hex"][2:]),
     "malformed model record (non-hexadecimal number found"),
    (lambda r: _set_hex(r, r["coeffs"]["hex"][:-16]),
     "malformed model record (coeffs hex holds 24 bytes, shape [2, 2] "
     "needs 32)"),
    (lambda r: r["coeffs"].update(shape=[1, 2]),
     "malformed model record (coeffs hex holds 32 bytes, shape [1, 2] "
     "needs 16)"),
    (lambda r: r["coeffs"].update(shape=[4]),
     "malformed model record (coeffs shape must be two integers >= 0, got "
     "[4])"),
    (lambda r: r["coeffs"].update(shape=[2, 2.0]),
     "malformed model record (coeffs shape must be two integers >= 0, got "
     "[2, 2.0])"),
    (lambda r: r["coeffs"].update(shape="2x2"),
     "malformed model record (coeffs shape must be two integers >= 0, got "
     "2x2)"),
    (lambda r: r["coeffs"].update(shape=[-2, -2]),
     "malformed model record (coeffs shape must be two integers >= 0, got "
     "[-2, -2])"),
    # a shape that matches the bytes but not the rule base
    (lambda r: r["coeffs"].update(shape=[4, 1]),
     "malformed model record (coeffs has shape (4, 1), expected one or "
     "more columns of length K*D = 2)"),
    (lambda r: r["coeffs"].pop("hex"), "model record has no key 'hex'"),
    (lambda r: r.update(coeffs=[[1.0, 0.0], [0.0, 1.0]]),
     "malformed model record (list indices must be integers"),
    (lambda r: _set_hex(r, NAN_BYTES + r["coeffs"]["hex"][16:]),
     "malformed model record (non-finite value nan in coeffs at row 1, "
     "column 1)"),
    # the student's order-1 record read as a teacher: 2 coefficients
    (lambda r: r.update(kind="teacher", reg=1.0, class_labels=[0, 1],
                        coeffs={"shape": [2, 1],
                                "hex": "0" * 16 + INF_BYTES}),
     "malformed model record (non-finite value inf in coeffs at row 2, "
     "column 1)"),
    # records save_model refuses to write: the two-class student read as a
    # teacher, and a student of one output column
    (lambda r: r.update(kind="teacher", reg=100.0, class_labels=[0, 1]),
     "malformed model record (version 2 cannot hold a model with reg=100.0 "
     "and 2 outputs)"),
    (lambda r: r["coeffs"].update(shape=[2, 1], hex=r["coeffs"]["hex"][:32]),
     "malformed model record (version 2 cannot hold a model with reg=None "
     "and 1 outputs)"),
], ids=["non-hex digit", "short hex", "shape needs fewer bytes",
        "one-number shape", "float in shape", "text shape", "negative shape",
        "shape off the rule base", "no hex", "version-1 coeffs", "nan coeff",
        "teacher inf coeff", "teacher of 2 outputs", "student of 1 output"])
def test_malformed_version_two_record_named(tmp_path, edit, message):
    path = tmp_path / "model.json"
    save_model(init_student(build_rule_base(1, 1, seed=0), 2), path)
    record = json.loads(path.read_text())
    assert record["version"] == 2
    edit(record)
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_model(path)


@pytest.mark.parametrize("coeffs,labels,reg", [
    (np.zeros((2, 3)), np.arange(3.0), 100.0),
    (np.zeros((2, 1)), np.array([0.0, 2.0]), None),
], ids=["closed-form with 3 outputs", "one output without reg"])
def test_model_version_one_cannot_hold_not_saved(tmp_path, coeffs, labels,
                                                 reg):
    # a teacher record keeps one output column, a student record only a
    # class count: either would lose part of these models
    model = TSKModel(build_rule_base(1, 1, seed=0), coeffs, 1, labels, reg)
    with pytest.raises(ValueError, match="version 2 cannot hold a model"):
        save_model(model, tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()


def test_non_finite_value_never_written(tmp_path):
    # TSKModel rejects an infinite reg; one set past that check still
    # never reaches the file as the non-JSON token Infinity
    tm = TSKModel(build_rule_base(1, 1, seed=0), np.zeros((4, 1)), 3,
                  np.arange(2.0), 100.0)
    object.__setattr__(tm, "reg", float("inf"))
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_model(tm, tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("edit,message", [
    (lambda r: r.update(reg=float("inf")),
     "malformed model record (regularization parameter must be finite)"),
    (lambda r: r.update(class_labels=[0.0, float("inf")]),
     "malformed model record (non-finite value inf in class_labels at row "
     "2, column 1)"),
], ids=["reg Infinity", "label Infinity"])
def test_non_finite_teacher_record_named(tmp_path, edit, message):
    path = tmp_path / "model.json"
    save_model(TSKModel(build_rule_base(1, 1, seed=0), np.zeros((4, 1)), 3,
                        np.arange(2.0), 100.0), path)
    record = json.loads(path.read_text())
    edit(record)
    path.write_text(json.dumps(record))
    assert "Infinity" in path.read_text()
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_model(path)
