"""Cross-validated evaluation harness, metrics, sweeps and rule readout."""
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import fuzzykd.harness as harness
import fuzzykd.rules as rules
from fuzzykd.data import Dataset, load_bundled, normalize
from fuzzykd.harness import (GridSpec, accuracy, format_report,
                             rule_readout, run_method, sweep, weighted_f)
from fuzzykd.rules import RuleBase, TSKModel, build_rule_base, predict_class
from fuzzykd.student import (TrainingDiverged, init_student,
                             onehot_encode, predict_student, train_student,
                             TrainConfig)
from fuzzykd.teacher import fit_teacher


def toy_dataset(n_per_class=20, seed=0):
    """Two well-separated 2-d blobs, one per class."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 0.25, (n_per_class, 2))
    b = rng.uniform(0.75, 1.0, (n_per_class, 2))
    X = np.vstack([a, b])
    y = np.repeat([0, 1], n_per_class)
    return Dataset(X, y, 2)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_half(self):
        assert accuracy([0, 0, 0, 0], [0, 1, 0, 1]) == 0.5

    def test_all_wrong(self):
        assert accuracy([1, 1], [0, 0]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy([0], [0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestWeightedF:
    def test_perfect(self):
        assert weighted_f([0, 1, 2], [0, 1, 2]) == pytest.approx(1.0)

    def test_hand_value(self):
        got = weighted_f([0, 1, 1], [0, 0, 1])
        assert got == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_absent_class_contributes_nothing(self):
        with_pad = weighted_f([0, 1], [0, 1])
        assert with_pad == pytest.approx(1.0)

    def test_scores_the_labels_present_in_truth(self):
        # labels need not be the codes 0..C-1: a perfect prediction of
        # labels 0 and 2 scores 1, as accuracy does
        assert weighted_f([0, 2, 2], [0, 2, 2]) == pytest.approx(1.0)
        assert accuracy([0, 2, 2], [0, 2, 2]) == 1.0


class TestGridSpec:
    @pytest.mark.parametrize("field", ["rule_counts", "temperatures",
                                       "target_weights",
                                       "non_target_weights", "ce_weights"])
    def test_empty_candidates_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be non-empty"):
            GridSpec(**{field: ()})


class TestRunMethod:
    def test_student_only_separates_toy_blobs(self):
        ds = toy_dataset()
        grid = GridSpec.fixed(n_rules=4, folds=4)
        rep = run_method("student-only", ds, grid, seed=0, dataset_name="toy")
        assert len(rep.records) == 4
        assert rep.n_failed() == 0
        assert all(r.accuracy == 1.0 for r in rep.records)

    def test_dkd_with_pure_ce_equals_student_only(self):
        ds = toy_dataset()
        grid = GridSpec.fixed(n_rules=4, target_weight=0,
                              non_target_weight=0, ce_weight=1, folds=4)
        a = run_method("distill-dkd", ds, grid, seed=3)
        b = run_method("student-only", ds, grid, seed=3)
        for ra, rb_ in zip(a.records, b.records):
            assert abs(ra.accuracy - rb_.accuracy) < 1e-9

    def test_coupled_kd_without_cross_entropy_runs(self):
        rep = run_method("distill-kd", toy_dataset(),
                         GridSpec.fixed(n_rules=3, ce_weight=0, folds=2),
                         seed=0)
        assert rep.n_failed() == 0

    def test_coupled_kd_with_no_loss_rejected(self):
        with pytest.raises(ValueError, match="at least one loss weight"):
            run_method("distill-kd", toy_dataset(),
                       GridSpec.fixed(n_rules=3, non_target_weight=0,
                                      ce_weight=0, folds=2), seed=0)

    def test_teacher_only_runs(self):
        ds = toy_dataset()
        rep = run_method("teacher-only", ds, GridSpec.fixed(folds=4), seed=0)
        assert rep.mean_accuracy() > 0.9

    @pytest.mark.parametrize("method", ["tsk-order-0-gd", "tsk-order-2-llm"])
    def test_order_variants_accepted(self, method):
        ds = toy_dataset(n_per_class=10)
        rep = run_method(method, ds, GridSpec.fixed(n_rules=2, folds=2),
                         seed=0)
        assert rep.n_failed() == 0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_method("distill-xyz", toy_dataset(), GridSpec.fixed(), 0)

    def test_aggregates_match_raw_records(self):
        ds = toy_dataset(seed=5)
        rep = run_method("distill-dkd", ds,
                         GridSpec.fixed(n_rules=3, folds=4), seed=1)
        ok = [r for r in rep.records if r.error is None]
        accs = [r.accuracy for r in ok]
        assert abs(rep.mean_accuracy() - np.mean(accs)) < 1e-9
        assert abs(rep.std_accuracy() - np.std(accs, ddof=1)) < 1e-9
        wfs = [r.weighted_f for r in ok]
        assert abs(rep.mean_weighted_f() - np.mean(wfs)) < 1e-9

    def test_diverged_folds_recorded_not_dropped(self):
        ds = toy_dataset()
        grid = GridSpec.fixed(n_rules=4, folds=4, lr=float("inf"))
        rep = run_method("student-only", ds, grid, seed=0)
        assert len(rep.records) == 4
        assert rep.n_failed() == 4
        assert all(r.error is not None for r in rep.records)

    def test_wall_time_recorded_non_negative(self):
        rep = run_method("student-only", toy_dataset(),
                         GridSpec.fixed(n_rules=2, folds=2), seed=0)
        assert all(r.seconds >= 0 for r in rep.records)

    def test_wall_time_covers_the_final_fit_only(self, monkeypatch):
        fit_candidates = harness.fit_candidates

        def slow(*args):
            time.sleep(0.1)
            return fit_candidates(*args)

        monkeypatch.setattr(harness, "fit_candidates", slow)
        grid = replace(GridSpec.fixed(n_rules=2, folds=2, max_epochs=5),
                       ce_weights=(1, 2))
        rep = run_method("distill-dkd", toy_dataset(), grid, seed=0)
        # one slow fit per fold; the three inner fits would add 0.3 s
        assert all(0.1 <= r.seconds < 0.4 for r in rep.records)

    def test_inner_search_picks_a_candidate(self):
        ds = toy_dataset()
        grid = GridSpec(rule_counts=(1, 3), temperatures=(2,),
                        target_weights=(1,), non_target_weights=(2,),
                        ce_weights=(1,), folds=2)
        rep = run_method("student-only", ds, grid, seed=0)
        assert all(r.params["K"] in (1, 3) for r in rep.records)

    def test_diverging_candidate_scores_zero_in_inner_search(self,
                                                            monkeypatch):
        fit_candidates, diverged = harness.fit_candidates, []

        def spy(method, group, *args):
            outcomes = fit_candidates(method, group, *args)
            diverged.extend(params["phi"]
                            for params, out in zip(group, outcomes)
                            if isinstance(out, TrainingDiverged))
            return outcomes

        monkeypatch.setattr(harness, "fit_candidates", spy)
        grid = GridSpec.coarse(rule_counts=(3,), temperatures=(2,),
                               non_target_weights=(1,), ce_weights=(1, 1e308),
                               folds=2)
        with np.errstate(over="ignore"):
            rep = run_method("distill-dkd", load_bundled("iris"), grid, 0)
        assert diverged == [1e308] * 6  # every inner fit, in both folds
        assert [r.params["phi"] for r in rep.records] == [1, 1]
        assert rep.n_failed() == 0


    @pytest.mark.parametrize("alias,method", [
        ("teacher-only", "tsk-order-3-llm"),
        ("student-only", "tsk-order-1-gd")])
    def test_alias_matches_order_method(self, alias, method):
        ds = toy_dataset(seed=4)
        grid = GridSpec(rule_counts=(1, 3), folds=3)
        a = run_method(alias, ds, grid, seed=2)
        b = run_method(method, ds, grid, seed=2)
        for ra, rb_ in zip(a.records, b.records, strict=True):
            assert (ra.params, ra.accuracy, ra.weighted_f, ra.error) == \
                (rb_.params, rb_.accuracy, rb_.weighted_f, rb_.error)

    def test_global_normalize_runs(self):
        ds = toy_dataset()
        rep = run_method("student-only", ds,
                         GridSpec.fixed(n_rules=2, folds=2), seed=0,
                         global_normalize=True)
        assert rep.n_failed() == 0
        assert rep.mean_accuracy() == 1.0

    def test_more_folds_than_samples_stops_before_fitting(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_candidates called")

        monkeypatch.setattr(harness, "fit_candidates", no_fit)
        with pytest.raises(ValueError, match="6 samples into 10 folds"):
            run_method("student-only", toy_dataset(n_per_class=3),
                       GridSpec.fixed(folds=10), seed=0)

    @pytest.mark.parametrize("grid, message", [
        (GridSpec.fixed(lr=0.0), "learning rate must be positive"),
        (GridSpec.fixed(max_epochs=0),
         "max_epochs must be an integer >= 1, got 0"),
        (GridSpec.fixed(temperature=-1), "temperature must be positive"),
        (GridSpec.fixed(target_weight=0, non_target_weight=0, ce_weight=0),
         "at least one loss weight must be non-zero"),
        # the inner search's first fit holds the bad candidate's config
        (GridSpec.coarse(rule_counts=(2, 3), temperatures=(1, -2),
                         non_target_weights=(1,), ce_weights=(1,)),
         "temperature must be positive")])
    def test_bad_settings_fail_before_the_teacher_fit(self, grid, message,
                                                      monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_teacher called")

        monkeypatch.setattr(harness, "fit_teacher", no_fit)
        with pytest.raises(ValueError, match=message):
            run_method("distill-dkd", load_bundled("wine"), grid, 0)

    @pytest.mark.parametrize("build, message", [
        (lambda: GridSpec(rule_counts=(2, 2.5)),
         r"rule_counts\[1\] must be an integer >= 1, got 2\.5"),
        (lambda: GridSpec.fixed(n_rules=0),
         r"rule_counts\[0\] must be an integer >= 1, got 0"),
        (lambda: GridSpec.fixed(folds=2.0),
         r"folds must be an integer >= 2, got 2\.0"),
        (lambda: GridSpec.coarse(folds=1),
         "folds must be an integer >= 2, got 1")],
        ids=["float rule count", "no rules", "float folds", "one fold"])
    def test_bad_grid_fails_when_built(self, build, message):
        # checked when built, so a bad K fails before any candidate is fit
        with pytest.raises(ValueError, match=message):
            build()

    def test_float_class_count_fails_at_the_dataset(self):
        X = np.random.default_rng(0).uniform(0, 1, (20, 2))
        with pytest.raises(ValueError, match=r"n_classes must be an integer "
                                             r">= 1, got 2\.0"):
            run_method("student-only", Dataset(X, [0, 1] * 10, 2.0),
                       GridSpec.fixed(folds=2), 0)

    def test_bad_student_setting_fails_before_the_rule_base(self,
                                                            monkeypatch):
        def no_rule_base(*args, **kwargs):
            raise AssertionError("build_rule_base called")

        monkeypatch.setattr(harness, "build_rule_base", no_rule_base)
        with pytest.raises(ValueError, match="learning rate must be positive"):
            run_method("student-only", toy_dataset(), GridSpec.fixed(lr=0.0),
                       0)

    def test_infinite_learning_rate_still_accepted(self):
        grid = GridSpec.fixed(n_rules=2, folds=2, lr=float("inf"))
        with np.errstate(all="ignore"):
            rep = run_method("distill-dkd", toy_dataset(), grid, seed=0)
        assert rep.n_failed() == 2


class TestInnerSearch:
    def wine_split(self):
        ds = load_bundled("wine")
        X, _, _ = normalize(ds.X)
        return X[::2], ds.y[::2], ds.n_classes

    def test_teacher_fit_once_per_rule_count_and_inner_fold(self,
                                                           monkeypatch):
        fit_teacher, calls = harness.fit_teacher, []

        def counting(rb, *args, **kwargs):
            calls.append(rb.n_rules)
            return fit_teacher(rb, *args, **kwargs)

        monkeypatch.setattr(harness, "fit_teacher", counting)
        grid = GridSpec.coarse(rule_counts=(2, 3), temperatures=(1, 2),
                               non_target_weights=(1, 2), ce_weights=(1, 2),
                               max_epochs=5)
        cands = harness.candidates("distill-dkd", grid)
        assert len(cands) == 16
        X, y, c = self.wine_split()
        harness._select_params("distill-dkd", cands, grid, X, y, c, 0, 0)
        assert sorted(calls) == [2, 2, 2, 3, 3, 3]

    def test_firing_strengths_once_per_rule_count_and_split(self,
                                                           monkeypatch):
        # the points of one K share the split's student rule base, so its
        # test rows' firing strengths are computed once for all of them
        fits, fit_candidates = [], harness.fit_candidates
        firing, calls = rules.firing_strengths, []

        def spy_fit(method, group, *args):
            fits.append(fit_candidates(method, group, *args))
            return fits[-1]

        def counting(rb, X):
            calls.append(rb.n_rules)
            return firing(rb, X)

        monkeypatch.setattr(harness, "fit_candidates", spy_fit)
        monkeypatch.setattr(rules, "firing_strengths", counting)
        grid = GridSpec.coarse(rule_counts=(2, 3), temperatures=(1, 2),
                               non_target_weights=(1, 2), ce_weights=(1, 2),
                               max_epochs=5)
        cands = harness.candidates("distill-dkd", grid)
        X, y, c = self.wine_split()
        splits = [(0, X[::2], y[::2], X[1::2], y[1::2]),
                  (1, X[1::2], y[1::2], X[::2], y[::2])]
        out = list(harness._cross_validate("distill-dkd", cands, grid,
                                           splits, c, 0))
        # per (K, split): the teacher's outputs on the training rows and
        # the students' classes on the test rows, not one per point (32)
        assert sorted(calls) == [2, 2, 2, 2, 3, 3, 3, 3]
        # each point's classes are its own model's, bit for bit
        models = [outcome[0] for group in fits for outcome in group]
        preds = [pred for _, _, _, split in out for pred in split]
        assert len(models) == len(preds) == 32
        for model, pred, Xte in zip(models, preds,
                                    [X[1::2]] * 16 + [X[::2]] * 16):
            assert np.array_equal(pred, predict_class(model, Xte))

    @pytest.mark.parametrize("method", ["distill-dkd", "distill-kd"])
    def test_split_without_a_class_distills_every_class(self, method):
        # an inner training split can lack a class (here iris's class 1);
        # the student still needs the dataset's C = 3 classes
        ds = load_bundled("iris")
        keep = ds.y != 1
        X, _, _ = normalize(ds.X[keep])
        grid = GridSpec.fixed(max_epochs=5)
        (model, trace), = harness.fit_candidates(
            method, harness.candidates(method, grid), grid, X, ds.y[keep],
            ds.n_classes, 0, 1)
        assert isinstance(model, TSKModel)
        assert model.n_classes == 3 and model.coeffs.shape[1] == 3
        assert trace

    def test_candidates_of_two_rule_counts_rejected(self):
        ds = toy_dataset()
        with pytest.raises(ValueError, match="share one rule count K"):
            harness.fit_candidates("student-only", [{"K": 2}, {"K": 3}],
                                   GridSpec.fixed(), ds.X, ds.y, 2, 0, 1)

    def test_diverged_candidate_scores_zero(self, monkeypatch):
        grid = GridSpec.coarse(rule_counts=(2,), max_epochs=5)
        good = {"K": 2, "tau": 2, "zeta": 1, "lam": 2, "phi": 1}
        # finite first total, overflowing first gradient: a non-finite
        # first trial point
        bad = dict(good, tau=1e-6, zeta=1e304)
        X, y, c = self.wine_split()
        inner, cross_validate = [], harness._cross_validate

        def spy(*args):
            for outcome in cross_validate(*args):
                inner.append(outcome)
                yield outcome

        monkeypatch.setattr(harness, "_cross_validate", spy)
        with np.errstate(all="ignore"):
            picked = harness._select_params("distill-dkd", [bad, good],
                                            grid, X, y, c, 0, 0)
        assert len(inner) == 3
        # per inner fold, a diverged fit's accuracy counts as 0
        scores = np.mean([[0.0 if isinstance(pred, TrainingDiverged)
                           else accuracy(pred, yte) for pred in preds]
                          for _, yte, _, preds in inner], axis=0)
        assert scores[0] == 0.0 and scores[1] > 0.5
        assert picked is good


class TestSweep:
    def test_grid_constants_kept(self, monkeypatch):
        fits, fit_candidates = [], harness.fit_candidates

        def spy(method, group, grid, *args):
            fits.append((group, grid))
            return fit_candidates(method, group, grid, *args)

        monkeypatch.setattr(harness, "fit_candidates", spy)
        grid = GridSpec(rule_counts=(3, 5), temperatures=(4,),
                        target_weights=(2,), non_target_weights=(1, 7),
                        ce_weights=(3,), reg=7.5, width=0.3, max_epochs=11,
                        tol=1e-3, lr=0.2, folds=4)
        sweep("lambda", toy_dataset(), grid, seed=0)
        assert len(fits) == 4  # one fit of all points per outer fold
        for group, g in fits:
            assert [p["lam"] for p in group] == [1, 7]
            for p in group:
                assert (p["K"], p["tau"], p["zeta"], p["phi"]) == (3, 4, 2, 3)
            assert (g.reg, g.width, g.max_epochs, g.tol, g.lr, g.folds) == \
                (7.5, 0.3, 11, 1e-3, 0.2, 4)

    def test_record_cardinality(self):
        ds = toy_dataset(n_per_class=10)
        grid = GridSpec(rule_counts=(2,), temperatures=(1, 2, 5),
                        target_weights=(1,), non_target_weights=(2,),
                        ce_weights=(1,), folds=2)
        records = sweep("tau", ds, grid, seed=0)
        assert len(records) == 3
        assert [r["value"] for r in records] == [1, 2, 5]

    def test_deterministic(self):
        ds = toy_dataset(n_per_class=10)
        grid = GridSpec(rule_counts=(2,), temperatures=(2,),
                        target_weights=(1,), non_target_weights=(1, 5),
                        ce_weights=(1,), folds=2)
        a = sweep("lambda", ds, grid, seed=2)
        b = sweep("lambda", ds, grid, seed=2)
        assert a == b

    def test_ratio_parameter_accepted(self):
        ds = toy_dataset(n_per_class=10)
        grid = GridSpec(rule_counts=(2,), temperatures=(2,),
                        target_weights=(1,), non_target_weights=(2,),
                        ce_weights=(1,), folds=2)
        records = sweep("(lambda+zeta)/phi", ds, grid, seed=0)
        assert len(records) == 1

    def test_ratio_runs_over_ce_weights(self, monkeypatch):
        groups, fit_candidates = [], harness.fit_candidates

        def spy(method, group, *args):
            groups.append(group)
            return fit_candidates(method, group, *args)

        monkeypatch.setattr(harness, "fit_candidates", spy)
        grid = GridSpec(rule_counts=(2,), temperatures=(2,),
                        target_weights=(1,), non_target_weights=(3, 9),
                        ce_weights=(1, 2, 4), folds=2)
        records = sweep("(lambda+zeta)/phi", toy_dataset(), grid, seed=0)
        assert [r["value"] for r in records] == [1, 2, 4]
        for group in groups:
            assert [p["phi"] for p in group] == [4.0, 2.0, 1.0]
            assert all(p["lam"] == 3 for p in group)

    def test_lambda_over_unit_zeta_equals_lambda(self):
        grid = GridSpec(rule_counts=(2,), temperatures=(2,),
                        target_weights=(1,), non_target_weights=(1, 20),
                        ce_weights=(1,), max_epochs=5, folds=2)
        ratio = sweep("lambda/zeta", load_bundled("iris"), grid, seed=0)
        plain = sweep("lambda", load_bundled("iris"), grid, seed=0)

        def scores(records):
            return [(r["value"], r["mean_accuracy"], r["std_accuracy"])
                    for r in records]

        assert scores(ratio) == scores(plain)
        assert all(r["parameter"] == "lambda/zeta" for r in ratio)

    def test_lambda_over_zeta_scales_lambda_by_zeta(self, monkeypatch):
        groups, fit_candidates = [], harness.fit_candidates

        def spy(method, group, *args):
            groups.append(group)
            return fit_candidates(method, group, *args)

        monkeypatch.setattr(harness, "fit_candidates", spy)
        grid = GridSpec(rule_counts=(2,), temperatures=(2,),
                        target_weights=(2,), non_target_weights=(1, 5),
                        ce_weights=(1,), folds=2)
        records = sweep("lambda/zeta", toy_dataset(), grid, seed=0)
        assert [r["value"] for r in records] == [1, 5]
        assert len(groups) == 2  # one call per outer fold
        for group in groups:
            assert [p["lam"] for p in group] == [2, 10]
            assert all(p["zeta"] == 2 for p in group)

    def test_teacher_fit_once_per_outer_fold(self, monkeypatch):
        fit_teacher, calls = harness.fit_teacher, []

        def counting(*args, **kwargs):
            calls.append(1)
            return fit_teacher(*args, **kwargs)

        monkeypatch.setattr(harness, "fit_teacher", counting)
        grid = GridSpec(rule_counts=(2,), max_epochs=5, folds=2)
        records = sweep("tau", load_bundled("iris"), grid, seed=0)
        assert len(records) == 6
        assert len(calls) == 2

    def test_diverged_folds_left_out_of_the_mean(self):
        grid = GridSpec(rule_counts=(2,), temperatures=(2,),
                        target_weights=(1,), non_target_weights=(2,),
                        ce_weights=(1, 1e308), folds=2)
        with np.errstate(over="ignore"):
            records = sweep("phi", toy_dataset(), grid, seed=0)
        assert records[0]["mean_accuracy"] == 1.0
        assert np.isnan(records[1]["mean_accuracy"])

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="sweep parameter"):
            sweep("gamma", toy_dataset(), GridSpec.fixed(), 0)


class TestRuleReadout:
    def test_linguistic_labels_and_prediction(self):
        rb = RuleBase(np.array([[0.75, 0.0]]), np.full((1, 2), 0.5))
        sm = init_student(rb, 2)
        sm = TSKModel(rb, sm.coeffs + [[1.0, 0.0], [0.0, 0.0],
                                       [0.0, 0.0]], 1, np.arange(2.0))
        text = rule_readout(sm, np.array([0.5, 0.5]))
        assert "feature 1 is high" in text
        assert "feature 2 is very low" in text
        assert text.strip().endswith("Predicted class: 0")

    def test_prediction_matches_student_argmax(self):
        rng = np.random.default_rng(0)
        rb = build_rule_base(3, 2, seed=0)
        coeffs = np.random.default_rng(1).uniform(-0.5, 0.5, (3 * 3, 3))
        sm = TSKModel(rb, coeffs, 1, np.arange(3.0))
        for _ in range(5):
            x = rng.uniform(0, 1, 2)
            text = rule_readout(sm, x)
            want = int(predict_student(sm, x[None, :])[0])
            assert text.strip().endswith(f"Predicted class: {want}")

    def test_teacher_readout_has_scalar_consequent(self):
        # one output per rule, printed in monomial form: one term per
        # distinct monomial, C(5, 3) = 10 of the D(3, 2) = 15 basis terms,
        # with the summed coefficients of its copies and its factors in
        # ascending order; the value b(x) . q_k with the basis built here
        # from its recursion b_0 = [1], b_n = [1, x (x) b_{n-1}]
        rng = np.random.default_rng(1)
        rb = build_rule_base(2, 2, seed=1)
        X = rng.uniform(0, 1, (15, 2))
        tm = fit_teacher(rb, X, rng.integers(0, 2, 15).astype(float), 100.0,
                         np.array([0.0, 1.0]))
        x = np.array([0.3, 0.7])
        b = np.ones(1)
        labels = ["1"]
        for _ in range(3):
            b = np.concatenate([[1.0], np.outer(x, b).ravel()])
            labels = ["1"] + [f"x{i}*{u}" for i in (1, 2) for u in labels]
        lines = rule_readout(tm, x).splitlines()
        outputs = [line for line in lines if line.startswith("  output")]
        assert len(outputs) == 2
        for k, line in enumerate(outputs):
            head, expr, value = line.split(" = ")
            assert head == "  output 1"
            q = tm.coeffs[:, 0][k * 15:(k + 1) * 15]
            want = {}
            for label, a in zip(labels, q):
                factors = sorted(f for f in label.split("*") if f != "1")
                key = "*".join(factors) or "1"
                want[key] = want.get(key, 0.0) + a
            terms = [t.split("*", 1) for t in expr.split(" + ")]
            assert [label for _, label in terms] == list(want)
            for a, label in terms:
                assert float(a) == pytest.approx(want[label], abs=5.1e-5)
            assert value == f"{float(b @ q):.4f}"

    def test_student_readout_text_is_pinned(self):
        # a student's readout bytes are fixed; this literal pins them
        rb = RuleBase(np.array([[0.25, 1.0], [0.5, 0.0]]),
                      np.full((2, 2), 0.5))
        coeffs = np.arange(12.0).reshape(6, 2) / 8 - 0.5
        text = rule_readout(TSKModel(rb, coeffs, 1, np.arange(2.0)),
                            np.array([0.5, 0.25]))
        assert text == (
            "Rule 1:\nIF:\n  feature 1 is low\n  feature 2 is very high\n"
            "THEN:\n"
            "  output 1 = -0.5000*1 + -0.2500*x1 + 0.0000*x2 = -0.6250\n"
            "  output 2 = -0.3750*1 + -0.1250*x1 + 0.1250*x2 = -0.4062\n"
            "Rule 2:\nIF:\n  feature 1 is medium\n  feature 2 is very low\n"
            "THEN:\n"
            "  output 1 = 0.2500*1 + 0.5000*x1 + 0.7500*x2 = 0.6875\n"
            "  output 2 = 0.3750*1 + 0.6250*x1 + 0.8750*x2 = 0.9062\n"
            "Predicted class: 1")

    def test_sample_length_checked(self):
        sm = init_student(build_rule_base(1, 3, seed=0), 2)
        with pytest.raises(ValueError, match="feature count"):
            rule_readout(sm, np.array([0.5]))

    def test_non_model_rejected(self):
        # a teacher's fields without its type: prediction works, the
        # readout does not
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (10, 2))
        tm = fit_teacher(build_rule_base(2, 2, seed=2), X,
                         rng.integers(0, 2, 10).astype(float), 100.0,
                         np.array([0.0, 1.0]))
        fake = SimpleNamespace(rule_base=tm.rule_base, coeffs=tm.coeffs,
                               order=tm.order, class_labels=tm.class_labels)
        with pytest.raises(TypeError, match="cannot explain SimpleNamespace"):
            rule_readout(fake, np.array([0.3, 0.7]))

    def test_plain_object_rejected(self):
        # the type is checked before any field is read
        with pytest.raises(TypeError, match="cannot explain object"):
            rule_readout(object(), np.zeros(2))


class TestTeacherClassLabels:
    """A teacher fit on labels other than 0..C-1 predicts those labels."""

    def fit_without_class_one(self):
        ds = load_bundled("iris")
        keep = ds.y != 1
        X, _, _ = normalize(ds.X[keep])
        tm = fit_teacher(build_rule_base(4, X.shape[1], seed=0), X,
                         ds.y[keep].astype(float), 100.0)
        return tm, X, ds.y[keep]

    def test_predict_class_returns_labels(self):
        tm, X, y = self.fit_without_class_one()
        np.testing.assert_array_equal(tm.class_labels, [0.0, 2.0])
        pred = predict_class(tm, X)
        assert set(pred.tolist()) == {0, 2}
        assert accuracy(pred, y) == 1.0

    def test_readout_names_the_label(self):
        tm, X, y = self.fit_without_class_one()
        text = rule_readout(tm, X[np.flatnonzero(y == 2)[0]])
        assert text.strip().endswith("Predicted class: 2")

    def test_non_integral_labels_are_not_truncated(self):
        ds = load_bundled("iris")
        X, _, _ = normalize(ds.X)
        y = ds.y * 0.5
        tm = fit_teacher(build_rule_base(4, X.shape[1], seed=0), X, y, 100.0)
        np.testing.assert_array_equal(tm.class_labels, [0.0, 0.5, 1.0])
        pred = predict_class(tm, X)
        assert set(pred.tolist()) == {0.0, 0.5, 1.0}
        assert accuracy(pred, y) > 0.9
        text = rule_readout(tm, X[np.flatnonzero(pred == 0.5)[0]])
        assert text.strip().endswith("Predicted class: 0.5")


class TestFormatReport:
    def test_byte_identical_without_time(self):
        ds = toy_dataset(n_per_class=10)
        grid = GridSpec.fixed(n_rules=2, folds=2)
        a = run_method("distill-dkd", ds, grid, seed=4)
        b = run_method("distill-dkd", ds, grid, seed=4)
        assert (format_report([a], include_time=False) ==
                format_report([b], include_time=False))

    def test_time_fields_present_by_default(self):
        ds = toy_dataset(n_per_class=10)
        rep = run_method("student-only", ds, GridSpec.fixed(n_rules=2,
                                                            folds=2), seed=0)
        text = format_report([rep])
        assert "time=" in text and "time_mean=" in text

    def test_failed_folds_reported_inline(self):
        ds = toy_dataset(n_per_class=10)
        grid = GridSpec.fixed(n_rules=2, folds=2, lr=float("inf"))
        rep = run_method("student-only", ds, grid, seed=0)
        text = format_report([rep], include_time=False)
        assert "error=" in text and "failed=2" in text
