"""Golden reports: the grid search's `--no-time` output is pinned.

Each report is run_method on a bundled dataset with a two-K coarse grid
(16 distill-dkd or 16 distill-kd candidates, or the 2 K values of a
method with no other searched key, 3 outer folds, so every outer fold
runs the inner search), formatted without wall times. The distill text was recorded at
commit cc7a0c1, where each candidate was fit on its own, so it does not
come from the lock-step engine it checks. The student-only text was
recorded at commit eba8639, where a one-candidate fit ran through its own
scalar L-BFGS loop, before every student fit went through the batch
driver. The teacher-only text and the lambda sweep were recorded at
commit 0cc58bf, where run_method, sweep and the inner search each wrote
their own fit-and-predict step, before the three shared one. The two-class
reports (iris-2: iris classes 1 and 2, relabelled 0/1) were recorded at
commit cadb0ed, where the decoupled loss still skipped its non-target term
by a two-class branch, before that term ran the same path at every class
count. The eight tsk-order-N-llm and tsk-order-N-gd reports on iris were
recorded at commit 6933019, where fit_candidates still branched on four
fit names (llm, gd, kd, dkd) and wrote the teacher fit twice, before a
method became one row of a table.
"""
from dataclasses import replace

import pytest

from fuzzykd.data import Dataset, load_bundled
from fuzzykd.harness import GridSpec, format_report, run_method, sweep

GRID = GridSpec.coarse(rule_counts=(4, 8), temperatures=(1, 2),
                       non_target_weights=(1, 2), ce_weights=(1, 2), folds=3)
SEED = 2


def _load(name):
    """A bundled dataset; "iris-2" is iris without class 0, relabelled."""
    if name != "iris-2":
        return load_bundled(name)
    iris = load_bundled("iris")
    keep = iris.y > 0
    return Dataset(iris.X[keep], iris.y[keep] - 1, 2, iris.feature_names,
                   iris.class_names[1:])


GOLDEN = {
    ("distill-dkd", "iris"): (
        "fold dataset=iris method=distill-dkd seed=2 fold=0 "
        "params=K:4,lam:1,phi:2,tau:2,zeta:1 acc=1.000000000 "
        "wf=1.000000000 rules=4\n"
        "fold dataset=iris method=distill-dkd seed=2 fold=1 "
        "params=K:4,lam:1,phi:1,tau:1,zeta:1 acc=0.940000000 "
        "wf=0.939889401 rules=4\n"
        "fold dataset=iris method=distill-dkd seed=2 fold=2 "
        "params=K:4,lam:1,phi:1,tau:2,zeta:1 acc=1.000000000 "
        "wf=1.000000000 rules=4\n"
        "aggregate dataset=iris method=distill-dkd seed=2 "
        "acc_mean=0.980000000 acc_std=0.034641016 wf_mean=0.979963134 "
        "wf_std=0.034704871 rules_mean=4.0000 failed=0\n"),
    ("distill-dkd", "iris-2"): (
        "fold dataset=iris-2 method=distill-dkd seed=2 fold=0 "
        "params=K:4,lam:1,phi:1,tau:1,zeta:1 acc=0.970588235 "
        "wf=0.970562771 rules=4\n"
        "fold dataset=iris-2 method=distill-dkd seed=2 fold=1 "
        "params=K:4,lam:1,phi:1,tau:1,zeta:1 acc=0.939393939 "
        "wf=0.939057239 rules=4\n"
        "fold dataset=iris-2 method=distill-dkd seed=2 fold=2 "
        "params=K:8,lam:1,phi:1,tau:1,zeta:1 acc=0.939393939 "
        "wf=0.939057239 rules=8\n"
        "aggregate dataset=iris-2 method=distill-dkd seed=2 "
        "acc_mean=0.949792038 acc_std=0.018010035 wf_mean=0.949559083 "
        "wf_std=0.018189727 rules_mean=5.3333 failed=0\n"),
    ("distill-dkd", "wine"): (
        "fold dataset=wine method=distill-dkd seed=2 fold=0 "
        "params=K:4,lam:1,phi:1,tau:1,zeta:1 acc=1.000000000 "
        "wf=1.000000000 rules=4\n"
        "fold dataset=wine method=distill-dkd seed=2 fold=1 "
        "params=K:4,lam:1,phi:1,tau:1,zeta:1 acc=1.000000000 "
        "wf=1.000000000 rules=4\n"
        "fold dataset=wine method=distill-dkd seed=2 fold=2 "
        "params=K:4,lam:2,phi:1,tau:1,zeta:1 acc=0.983050847 "
        "wf=0.983127343 rules=4\n"
        "aggregate dataset=wine method=distill-dkd seed=2 "
        "acc_mean=0.994350282 acc_std=0.009785598 wf_mean=0.994375781 "
        "wf_std=0.009741433 rules_mean=4.0000 failed=0\n"),
    ("distill-kd", "iris"): (
        "fold dataset=iris method=distill-kd seed=2 fold=0 "
        "params=K:4,lam:1,phi:1,tau:2 acc=1.000000000 wf=1.000000000 "
        "rules=4\n"
        "fold dataset=iris method=distill-kd seed=2 fold=1 "
        "params=K:4,lam:1,phi:1,tau:1 acc=0.940000000 wf=0.939889401 "
        "rules=4\n"
        "fold dataset=iris method=distill-kd seed=2 fold=2 "
        "params=K:4,lam:1,phi:2,tau:1 acc=1.000000000 wf=1.000000000 "
        "rules=4\n"
        "aggregate dataset=iris method=distill-kd seed=2 "
        "acc_mean=0.980000000 acc_std=0.034641016 wf_mean=0.979963134 "
        "wf_std=0.034704871 rules_mean=4.0000 failed=0\n"),
    ("distill-kd", "iris-2"): (
        "fold dataset=iris-2 method=distill-kd seed=2 fold=0 "
        "params=K:4,lam:1,phi:1,tau:1 acc=0.970588235 wf=0.970562771 "
        "rules=4\n"
        "fold dataset=iris-2 method=distill-kd seed=2 fold=1 "
        "params=K:8,lam:2,phi:1,tau:1 acc=0.939393939 wf=0.939057239 "
        "rules=8\n"
        "fold dataset=iris-2 method=distill-kd seed=2 fold=2 "
        "params=K:4,lam:2,phi:1,tau:1 acc=0.909090909 wf=0.908074218 "
        "rules=4\n"
        "aggregate dataset=iris-2 method=distill-kd seed=2 "
        "acc_mean=0.939691028 acc_std=0.030749739 wf_mean=0.939231409 "
        "wf_std=0.031244640 rules_mean=5.3333 failed=0\n"),
    ("distill-kd", "wine"): (
        "fold dataset=wine method=distill-kd seed=2 fold=0 "
        "params=K:4,lam:1,phi:2,tau:2 acc=1.000000000 wf=1.000000000 "
        "rules=4\n"
        "fold dataset=wine method=distill-kd seed=2 fold=1 "
        "params=K:4,lam:1,phi:1,tau:1 acc=0.983050847 wf=0.982957784 "
        "rules=4\n"
        "fold dataset=wine method=distill-kd seed=2 fold=2 "
        "params=K:4,lam:1,phi:2,tau:2 acc=0.983050847 wf=0.983127343 "
        "rules=4\n"
        "aggregate dataset=wine method=distill-kd seed=2 "
        "acc_mean=0.988700565 acc_std=0.009785598 wf_mean=0.988695042 "
        "wf_std=0.009790748 rules_mean=4.0000 failed=0\n"),
    ("student-only", "iris"): (
        "fold dataset=iris method=student-only seed=2 fold=0 params=K:4 "
        "acc=0.960000000 wf=0.959777778 rules=4\n"
        "fold dataset=iris method=student-only seed=2 fold=1 params=K:4 "
        "acc=0.940000000 wf=0.939889401 rules=4\n"
        "fold dataset=iris method=student-only seed=2 fold=2 params=K:4 "
        "acc=1.000000000 wf=1.000000000 rules=4\n"
        "aggregate dataset=iris method=student-only seed=2 "
        "acc_mean=0.966666667 acc_std=0.030550505 wf_mean=0.966555726 "
        "wf_std=0.030623136 rules_mean=4.0000 failed=0\n"),
    ("student-only", "wine"): (
        "fold dataset=wine method=student-only seed=2 fold=0 params=K:8 "
        "acc=0.950000000 wf=0.949671337 rules=8\n"
        "fold dataset=wine method=student-only seed=2 fold=1 params=K:8 "
        "acc=0.983050847 wf=0.982957784 rules=8\n"
        "fold dataset=wine method=student-only seed=2 fold=2 params=K:4 "
        "acc=0.966101695 wf=0.966129458 rules=4\n"
        "aggregate dataset=wine method=student-only seed=2 "
        "acc_mean=0.966384181 acc_std=0.016527234 wf_mean=0.966252860 "
        "wf_std=0.016643567 rules_mean=6.6667 failed=0\n"),
    ("teacher-only", "wine"): (
        "fold dataset=wine method=teacher-only seed=2 fold=0 params=K:8 "
        "acc=0.933333333 wf=0.933015873 rules=8\n"
        "fold dataset=wine method=teacher-only seed=2 fold=1 params=K:8 "
        "acc=0.983050847 wf=0.983119329 rules=8\n"
        "fold dataset=wine method=teacher-only seed=2 fold=2 params=K:8 "
        "acc=0.915254237 wf=0.914973777 rules=8\n"
        "aggregate dataset=wine method=teacher-only seed=2 "
        "acc_mean=0.943879473 acc_std=0.035107134 wf_mean=0.943702993 "
        "wf_std=0.035307435 rules_mean=8.0000 failed=0\n"),
    ("tsk-order-0-gd", "iris"): (
        "fold dataset=iris method=tsk-order-0-gd seed=2 fold=0 params=K:4 "
        "acc=0.980000000 wf=0.979963134 rules=4\n"
        "fold dataset=iris method=tsk-order-0-gd seed=2 fold=1 params=K:4 "
        "acc=0.920000000 wf=0.920000000 rules=4\n"
        "fold dataset=iris method=tsk-order-0-gd seed=2 fold=2 params=K:4 "
        "acc=0.980000000 wf=0.979982684 rules=4\n"
        "aggregate dataset=iris method=tsk-order-0-gd seed=2 "
        "acc_mean=0.960000000 acc_std=0.034641016 wf_mean=0.959981939 "
        "wf_std=0.034625376 rules_mean=4.0000 failed=0\n"),
    ("tsk-order-0-llm", "iris"): (
        "fold dataset=iris method=tsk-order-0-llm seed=2 fold=0 params=K:8 "
        "acc=0.940000000 wf=0.939328984 rules=8\n"
        "fold dataset=iris method=tsk-order-0-llm seed=2 fold=1 params=K:4 "
        "acc=0.920000000 wf=0.919555556 rules=4\n"
        "fold dataset=iris method=tsk-order-0-llm seed=2 fold=2 params=K:8 "
        "acc=0.980000000 wf=0.979982684 rules=8\n"
        "aggregate dataset=iris method=tsk-order-0-llm seed=2 "
        "acc_mean=0.946666667 acc_std=0.030550505 wf_mean=0.946289075 "
        "wf_std=0.030808953 rules_mean=6.6667 failed=0\n"),
    ("tsk-order-1-gd", "iris"): (
        "fold dataset=iris method=tsk-order-1-gd seed=2 fold=0 params=K:4 "
        "acc=0.960000000 wf=0.959777778 rules=4\n"
        "fold dataset=iris method=tsk-order-1-gd seed=2 fold=1 params=K:4 "
        "acc=0.940000000 wf=0.939889401 rules=4\n"
        "fold dataset=iris method=tsk-order-1-gd seed=2 fold=2 params=K:4 "
        "acc=1.000000000 wf=1.000000000 rules=4\n"
        "aggregate dataset=iris method=tsk-order-1-gd seed=2 "
        "acc_mean=0.966666667 acc_std=0.030550505 wf_mean=0.966555726 "
        "wf_std=0.030623136 rules_mean=4.0000 failed=0\n"),
    ("tsk-order-1-llm", "iris"): (
        "fold dataset=iris method=tsk-order-1-llm seed=2 fold=0 params=K:4 "
        "acc=0.980000000 wf=0.980000000 rules=4\n"
        "fold dataset=iris method=tsk-order-1-llm seed=2 fold=1 params=K:4 "
        "acc=0.940000000 wf=0.939889401 rules=4\n"
        "fold dataset=iris method=tsk-order-1-llm seed=2 fold=2 params=K:4 "
        "acc=1.000000000 wf=1.000000000 rules=4\n"
        "aggregate dataset=iris method=tsk-order-1-llm seed=2 "
        "acc_mean=0.973333333 acc_std=0.030550505 wf_mean=0.973296467 "
        "wf_std=0.030610849 rules_mean=4.0000 failed=0\n"),
    ("tsk-order-2-gd", "iris"): (
        "fold dataset=iris method=tsk-order-2-gd seed=2 fold=0 params=K:4 "
        "acc=0.960000000 wf=0.959777778 rules=4\n"
        "fold dataset=iris method=tsk-order-2-gd seed=2 fold=1 params=K:4 "
        "acc=0.940000000 wf=0.939889401 rules=4\n"
        "fold dataset=iris method=tsk-order-2-gd seed=2 fold=2 params=K:4 "
        "acc=1.000000000 wf=1.000000000 rules=4\n"
        "aggregate dataset=iris method=tsk-order-2-gd seed=2 "
        "acc_mean=0.966666667 acc_std=0.030550505 wf_mean=0.966555726 "
        "wf_std=0.030623136 rules_mean=4.0000 failed=0\n"),
    ("tsk-order-2-llm", "iris"): (
        "fold dataset=iris method=tsk-order-2-llm seed=2 fold=0 params=K:4 "
        "acc=0.980000000 wf=0.980000000 rules=4\n"
        "fold dataset=iris method=tsk-order-2-llm seed=2 fold=1 params=K:4 "
        "acc=0.940000000 wf=0.939889401 rules=4\n"
        "fold dataset=iris method=tsk-order-2-llm seed=2 fold=2 params=K:8 "
        "acc=1.000000000 wf=1.000000000 rules=8\n"
        "aggregate dataset=iris method=tsk-order-2-llm seed=2 "
        "acc_mean=0.973333333 acc_std=0.030550505 wf_mean=0.973296467 "
        "wf_std=0.030610849 rules_mean=5.3333 failed=0\n"),
    ("tsk-order-3-gd", "iris"): (
        "fold dataset=iris method=tsk-order-3-gd seed=2 fold=0 params=K:4 "
        "acc=0.960000000 wf=0.959777778 rules=4\n"
        "fold dataset=iris method=tsk-order-3-gd seed=2 fold=1 params=K:4 "
        "acc=0.940000000 wf=0.939889401 rules=4\n"
        "fold dataset=iris method=tsk-order-3-gd seed=2 fold=2 params=K:4 "
        "acc=0.980000000 wf=0.979963134 rules=4\n"
        "aggregate dataset=iris method=tsk-order-3-gd seed=2 "
        "acc_mean=0.960000000 acc_std=0.020000000 wf_mean=0.959876771 "
        "wf_std=0.020037050 rules_mean=4.0000 failed=0\n"),
    ("tsk-order-3-llm", "iris"): (
        "fold dataset=iris method=tsk-order-3-llm seed=2 fold=0 params=K:4 "
        "acc=0.980000000 wf=0.980000000 rules=4\n"
        "fold dataset=iris method=tsk-order-3-llm seed=2 fold=1 params=K:4 "
        "acc=0.960000000 wf=0.959777778 rules=4\n"
        "fold dataset=iris method=tsk-order-3-llm seed=2 fold=2 params=K:4 "
        "acc=1.000000000 wf=1.000000000 rules=4\n"
        "aggregate dataset=iris method=tsk-order-3-llm seed=2 "
        "acc_mean=0.980000000 acc_std=0.020000000 wf_mean=0.979925926 "
        "wf_std=0.020111213 rules_mean=4.0000 failed=0\n"),
}

# sweep("lambda") on wine at K 4 over the default six lambda candidates,
# 3 outer folds, seed 2, in the lines `fuzzykd sweep` prints
SWEEP_LAMBDA_WINE = (
    "sweep parameter=lambda value=1 acc_mean=0.988700565 acc_std=0.009785598\n"
    "sweep parameter=lambda value=2 acc_mean=0.988700565 acc_std=0.009785598\n"
    "sweep parameter=lambda value=5 acc_mean=0.988700565 acc_std=0.009785598\n"
    "sweep parameter=lambda value=10 acc_mean=0.983239171 "
    "acc_std=0.016667465\n"
    "sweep parameter=lambda value=20 acc_mean=0.971939736 "
    "acc_std=0.009626650\n"
    "sweep parameter=lambda value=100 acc_mean=0.943785311 "
    "acc_std=0.010039184\n")


@pytest.mark.parametrize("method, dataset", sorted(GOLDEN))
def test_report_matches_golden(method, dataset):
    report = run_method(method, _load(dataset), GRID, SEED, dataset)
    assert format_report([report], include_time=False) == \
        GOLDEN[method, dataset]


def test_lambda_sweep_matches_golden():
    grid = replace(GridSpec.fixed(n_rules=4, folds=3),
                   non_target_weights=GridSpec().non_target_weights)
    records = sweep("lambda", load_bundled("wine"), grid, seed=2)
    assert "".join(f"sweep parameter={r['parameter']} value={r['value']:g} "
                   f"acc_mean={r['mean_accuracy']:.9f} "
                   f"acc_std={r['std_accuracy']:.9f}\n"
                   for r in records) == SWEEP_LAMBDA_WINE
