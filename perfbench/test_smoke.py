"""Smoke test of the benchmark itself: tiny inputs, every metric, no leftovers.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import fuzzykd as fk  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Every metric the benchmark's definition names; BENCHMARK.json may hold more.
END_TO_END = {"wall_s", "fits_per_s", "rows_per_s", "setup_s", "peak_rss_mb",
              "acc", "ok_frac"}
PER_LAYER = {
    "student.loss_grad.calls", "student.loss_grad.per_epoch",
    "student.loss_grad.self_s", "student.cross_entropy.self_s",
    "student.softmax.self_s", "student.gradient_descent.calls",
    "student.gradient_descent.self_s", "student.gradient_descent.epochs",
    "student.gradient_descent.stop_cap", "student.gradient_descent.stop_tol",
    "student.gradient_descent.stop_rise", "distill.distill.calls",
    "distill.distill.self_s", "distill.distill.diverged",
    "distill.soft_labels.calls", "distill.soft_labels.self_s",
    "teacher.fit_teacher.calls", "teacher.fit_teacher.self_s",
    "teacher.fit_teacher.unique_frac", "teacher.ridge_solve.calls",
    "teacher.ridge_solve.self_s", "teacher.ridge_solve.dual_frac",
    "basis.stack_design_matrix.calls", "basis.stack_design_matrix.self_s",
    "basis.stack_design_matrix.bytes", "teacher.predict_teacher.calls",
    "teacher.predict_teacher.self_s", "rules.firing_strengths.calls",
    "rules.firing_strengths.self_s", "student.predict_student.self_s",
    "serialize.load_model.self_s", "serialize.save_model.self_s",
    "serialize.model_bytes", "data.normalize.self_s",
    "data.stratified_folds.self_s", "data.load_csv.self_s",
    "harness.run_method.self_s", "trace.overhead_frac", "failed_frac",
}


def _bench(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def test_spec_names_every_metric():
    assert END_TO_END <= {m["name"] for m in SPEC["end_to_end"]}
    assert PER_LAYER <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        info, result = _bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, info["problems"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(math.isfinite(v["value"])
                   for v in result["metrics"].values())
        if trace == 0:
            assert all(result["metrics"][m]["value"] > 0 for m in END_TO_END)
            digest = info["digest"]
        else:
            # same inputs, traced or not, give the same outputs
            assert info["digest"] == digest


def test_grid_wine_counts():
    _, result = _bench("grid-wine", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # 2 outer folds x (2 candidates x 3 inner folds + 1 final fit)
    assert m["teacher.fit_teacher.calls"] == 14
    # the teacher sees 2 x (3 + 1) distinct training sets
    assert m["teacher.fit_teacher.unique_frac"] == pytest.approx(8 / 14)
    assert m["student.loss_grad.per_epoch"] == 2.0
    assert (m["student.gradient_descent.stop_cap"] +
            m["student.gradient_descent.stop_tol"] +
            m["student.gradient_descent.stop_rise"] ==
            m["student.gradient_descent.calls"])


def test_missing_package_fails_without_result():
    # a directory holding only BENCHMARK.json and the benchmark's files
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _snapshot() -> dict:
    return {(name, attr): obj
            for name, mod in tracer._fuzzykd_modules().items()
            for attr, obj in vars(mod).items() if callable(obj)}


def test_trace_wrappers_are_removed():
    before = _snapshot()
    assert tracer.traced_attributes() == []
    tr = tracer.Tracer()
    with tr:
        assert "fuzzykd.run_method" in tracer.traced_attributes()
        assert "fuzzykd.teacher.stack_design_matrix" in \
            tracer.traced_attributes()
        with pytest.raises(run.BenchError):
            run._require_untraced(tracer)
        wl = workloads.make("evaluate-synth", "tiny")
        wl.timed(wl.setup(0, None))
        phase = tr.take()
    assert tracer.traced_attributes() == []
    after = _snapshot()
    assert all(after[key] is obj for key, obj in before.items())
    run._require_untraced(tracer)
    assert phase.calls["harness.run_method"] == 1
    assert phase.calls["teacher.fit_teacher"] == 2


@pytest.mark.parametrize("workload, checker", [
    ("evaluate-synth", "harness.format_report"),
    ("predict-synth", "distill.teacher_logits"),
])
def test_output_checks_are_not_traced(workload, checker, tmp_path):
    wl = workloads.make(workload, "tiny")
    tr = tracer.Tracer()
    with tr:
        state = wl.setup(0, tmp_path)
        tr.take()
        _, results, phases = run._passes(wl, state, 0, 2, tr)
    assert len(phases) == 2 and not results[0].problems
    for phase in phases:
        assert phase.calls[checker] == 0
        assert sum(phase.calls.values()) > 0


def test_fit_in_child_matches_fit_in_process(tmp_path):
    wl = workloads.make("predict-synth", "tiny")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    here = wl.setup(0, tmp_path / "a")
    apart = wl.setup(0, tmp_path / "b", in_child=True)
    assert apart.fingerprints == here.fingerprints
    assert (tmp_path / "b" / "teacher.json").read_bytes() == \
        (tmp_path / "a" / "teacher.json").read_bytes()


def test_self_time_excludes_children():
    tr = tracer.Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        tr.span("b.child", child)
        time.sleep(0.01)

    tr.span("a.parent", parent)
    (_, p0, p1, _), (_, c0, c1, parent_index) = tr.spans
    phase = tr.take()
    assert parent_index == 0
    assert phase.calls == {"a.parent": 1, "b.child": 1}
    assert phase.self_s["a.parent"] == pytest.approx((p1 - p0) - (c1 - c0))
    assert phase.self_s["b.child"] == pytest.approx(c1 - c0)
    assert phase.self_s["a.parent"] >= 0.01
    assert tr.spans == []


@pytest.mark.parametrize("totals, reason", [
    ([5.0, 4.0, 3.0], "cap"),
    ([5.0, 4.0, 4.0], "tol"),
    ([5.0, 4.0, 4.5], "rise"),
    ([5.0], "cap"),
])
def test_stop_reason(totals, reason):
    trace = [{"epoch": i + 1, "total": t} for i, t in enumerate(totals)]
    cfg = fk.TrainConfig(max_epochs=len(totals), tol=1e-5)
    assert tracer._stop_reason(trace, cfg) == reason


def test_reference_forward_matches_library():
    X, y = workloads.blobs(5, 60)
    Xn, _, _ = fk.normalize(X)
    tm = fk.fit_teacher(fk.build_rule_base(3, Xn.shape[1], seed=1), Xn,
                        y.astype(float), 100.0)
    ref, scale = workloads.reference_outputs(tm, Xn[:5])
    out = fk.predict_teacher(tm, Xn[:5])
    assert (abs(ref[:, 0] - out) <= 1e-9 * scale[:, 0] + 1e-12).all()
