"""Cross-validated evaluation harness, metrics, sweeps and rule readout."""
import functools
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import fuzzykd.harness as harness
import fuzzykd.rules as rules
from fuzzykd.data import Dataset, load_bundled, normalize
from fuzzykd.basis import basis_dim
from fuzzykd.harness import (GridSpec, accuracy, format_report, run_method,
                             sweep, weighted_f)
from fuzzykd.rules import (RuleBase, TSKModel, build_rule_base, predict_class,
                           rule_readout)
from fuzzykd.student import (TrainingDiverged, init_student,
                             onehot_encode, predict_student, TrainConfig)
from fuzzykd.teacher import fit_teacher

from oracles import basis_labels


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
        known = ("distill-dkd, distill-kd, student-only, teacher-only, "
                 "tsk-order-0-gd, tsk-order-0-llm, tsk-order-1-gd, "
                 "tsk-order-1-llm, tsk-order-2-gd, tsk-order-2-llm, "
                 "tsk-order-3-gd, tsk-order-3-llm")
        with pytest.raises(ValueError) as exc:
            run_method("distill-xyz", toy_dataset(), GridSpec.fixed(), 0)
        assert str(exc.value) == ("unknown method 'distill-xyz'; the "
                                  f"methods are {known}")

    @pytest.mark.parametrize("alias, method", [
        ("teacher-only", "tsk-order-3-llm"),
        ("student-only", "tsk-order-1-gd")])
    def test_alias_reports_match(self, alias, method):
        # the README names these pairs as one method under two names
        ds = load_bundled("iris")
        grid = GridSpec.coarse(rule_counts=(2, 3), folds=3, max_epochs=10)
        reports = [format_report([run_method(m, ds, grid, 1, "iris")],
                                 include_time=False) for m in (alias, method)]
        assert reports[0].count(f" method={alias} ") == 4
        assert reports[0].replace(f" method={alias} ",
                                  f" method={method} ") == reports[1]

    @pytest.mark.parametrize("method", sorted(harness._METHODS))
    def test_row_fits_the_named_model(self, method):
        # the golden reports of tsk-order-1-gd and tsk-order-2-gd on iris
        # are equal, so only the model tells a row's order
        named = {"teacher-only": 3, "student-only": 1, "distill-kd": 1,
                 "distill-dkd": 1}
        order = (named[method] if method in named
                 else int(method.split("-")[2]))
        teacher = method == "teacher-only" or method.endswith("-llm")
        ds = toy_dataset(n_per_class=10)
        grid = GridSpec.fixed(n_rules=2, max_epochs=5)
        ((model, trace),) = harness.fit_candidates(
            method, harness.candidates(method, grid)[:1], grid, ds.X, ds.y,
            ds.n_classes, 0, 1)
        assert model.order == order
        assert model.reg == (grid.reg if teacher else None)
        assert (trace == []) == teacher

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

    @pytest.mark.usefixtures("warnings_fail")
    def test_diverging_candidate_loses_in_worker_processes(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        grid = GridSpec.coarse(rule_counts=(3,), temperatures=(2,),
                               non_target_weights=(1,), ce_weights=(1, 1e308),
                               folds=2)
        with np.errstate(over="ignore"):
            rep = run_method("distill-dkd", load_bundled("iris"), grid, 0)
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
        harness._select_params("distill-dkd", cands, grid, X, y,
                               harness._inner_folds(y, 0, 0), c, 0, 0)
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
                                            grid, X, y,
                                            harness._inner_folds(y, 0, 0),
                                            c, 0, 0)
        assert len(inner) == 3
        # per inner fold, a diverged fit's accuracy counts as 0
        scores = np.mean([[0.0 if isinstance(pred, TrainingDiverged)
                           else accuracy(pred, yte) for pred in preds]
                          for _, yte, _, preds in inner], axis=0)
        assert scores[0] == 0.0 and scores[1] > 0.5
        assert picked is good

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_too_small_split_names_the_outer_fold(self, cpus, monkeypatch):
        # outer fold 0 of 2 trains on 2 of these 5 rows; every fold's inner
        # split is checked before any search, so no pool is started to
        # wait on the other folds' searches
        def no_pool(*args):
            raise AssertionError("_search_in_workers called")

        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(harness, "_search_in_workers", no_pool)
        ds = Dataset(np.array([[0.1, 0.2], [0.3, 0.1], [0.5, 0.9],
                               [0.7, 0.8], [0.2, 0.5]]),
                     np.array([0, 0, 1, 1, 2]), 3)
        grid = GridSpec.coarse(rule_counts=(1, 2), temperatures=(1,),
                               non_target_weights=(1,), ce_weights=(1,),
                               folds=2, max_epochs=5)
        with pytest.raises(ValueError, match=r"^outer fold 0: the inner "
                                             r"3-fold search cannot split "
                                             r"its 2 training rows into 3 "
                                             r"folds$"):
            run_method("distill-dkd", ds, grid, 0)
        assert multiprocessing.active_children() == []


@pytest.fixture()
def warnings_fail():
    """Warnings are errors, in this process and in the forked workers.

    Python 3.12 drops a fork-with-threads DeprecationWarning that the error
    filter turns into an exception, so this process records its
    DeprecationWarnings instead, and any one fails the test.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        warnings.simplefilter("always", DeprecationWarning)
        yield
    assert [str(w.message) for w in caught] == []


@pytest.mark.usefixtures("warnings_fail")
class TestParallelSearch:
    GRIDS = {"distill-dkd": GridSpec.coarse(
                 rule_counts=(2, 3), temperatures=(1, 2),
                 non_target_weights=(1,), ce_weights=(1, 2), max_epochs=20),
             "student-only": GridSpec(rule_counts=(1, 2, 3), max_epochs=20)}

    @staticmethod
    def cpus(monkeypatch, n):
        # the usable CPUs as the pool's size sees them
        monkeypatch.setattr(harness, "_usable_cpus", lambda: n)

    @pytest.mark.parametrize("folds", [2, 3])
    @pytest.mark.parametrize("name", ["iris", "wine"])
    @pytest.mark.parametrize("method", ["distill-dkd", "student-only"])
    def test_reports_byte_identical_in_one_and_two_processes(
            self, method, name, folds, monkeypatch):
        grid = replace(self.GRIDS[method], folds=folds)
        ds = load_bundled(name)
        reports = []
        for cpus in (1, 2):
            self.cpus(monkeypatch, cpus)
            reports.append(format_report([run_method(method, ds, grid, 5,
                                                     name)],
                                         include_time=False))
        assert reports[0] == reports[1]
        assert multiprocessing.active_children() == []

    def test_worker_error_raised_as_in_one_process(self, monkeypatch):
        grid = GridSpec.coarse(rule_counts=(2, 3), temperatures=(1, -2),
                               non_target_weights=(1,), ce_weights=(1,),
                               folds=3)
        ds = load_bundled("wine")
        errors = []
        for cpus in (1, 2):
            self.cpus(monkeypatch, cpus)
            with pytest.raises(ValueError) as err:
                run_method("distill-dkd", ds, grid, 0)
            errors.append(str(err.value))
            assert multiprocessing.active_children() == []
        assert errors[0] == errors[1]
        assert errors[0].startswith("temperature must be positive")

    def test_final_fits_start_after_every_search(self, monkeypatch):
        # a final fit's time shares no CPU with a search: the searches
        # (in the workers) have all ended before this process fits
        self.cpus(monkeypatch, 2)
        events = []
        select, cross_validate = (harness._search_in_workers,
                                  harness._cross_validate)

        def searched(*args):
            chosen = select(*args)
            events.append("searched")
            return chosen

        def fitted(*args):
            events.append("fit")
            return cross_validate(*args)

        monkeypatch.setattr(harness, "_search_in_workers", searched)
        monkeypatch.setattr(harness, "_cross_validate", fitted)
        run_method("student-only", toy_dataset(),
                   GridSpec(rule_counts=(1, 2), max_epochs=5, folds=3), 0)
        assert events == ["searched"] + ["fit"] * 3

    def test_worker_count(self, monkeypatch):
        # only computed with: no process is started
        workers = harness._search_workers
        self.cpus(monkeypatch, 64)
        assert workers(10) == 10
        assert workers(100) == 64
        self.cpus(monkeypatch, 1)
        assert workers(10) == 1

    def test_usable_cpus(self, monkeypatch):
        assert harness._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        assert harness._usable_cpus() == os.cpu_count()

    @pytest.mark.parametrize("fallback", ["no fork", "daemonic caller"])
    def test_no_pool_without_fork_or_in_a_daemon(self, fallback,
                                                 monkeypatch):
        self.cpus(monkeypatch, 2)
        assert harness._search_workers(2) == 2
        if fallback == "no fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(multiprocessing, "current_process",
                                lambda: SimpleNamespace(daemon=True))
        assert harness._search_workers(2) == 1

    def test_replaced_fit_candidates_sees_the_search(self, monkeypatch):
        # a tracer or a spy that wraps fit_candidates records in this
        # process, so the search stays here for it
        self.cpus(monkeypatch, 2)
        fit_candidates, calls = harness.fit_candidates, []

        @functools.wraps(fit_candidates)
        def spy(*args):
            calls.append(args[1])
            return fit_candidates(*args)

        monkeypatch.setattr(harness, "fit_candidates", spy)
        grid = GridSpec(rule_counts=(1, 2), max_epochs=5, folds=2)
        run_method("student-only", toy_dataset(), grid, 0)
        # per outer fold 2 K x 3 inner folds, then the final fit
        assert len(calls) == 14

    def test_import_leaves_the_pool_modules_out(self):
        src = os.path.dirname(os.path.dirname(harness.__file__))
        code = ("import sys, fuzzykd; print(sorted(m for m in ("
                "'multiprocessing', 'concurrent.futures.process') "
                "if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "[]\n"


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

    @staticmethod
    def check_against_the_basis(model, x):
        """model's readout at x against its basis, built here from the
        recursion b_0 = [1], b_n = [1, x (x) b_{n-1}] and named by the
        label oracle: rule k's output j is printed in monomial form, one
        term per distinct monomial in the basis order of its first copy,
        its factors in ascending order and its coefficient the sum of its
        copies' in rows k*D..k*D+D-1 of column j; its value is b(x) . q."""
        b = np.ones(1)
        for _ in range(model.order):
            b = np.concatenate([[1.0], np.outer(x, b).ravel()])
        labels = basis_labels(model.order, x.size)
        d, c = b.size, model.coeffs.shape[1]
        assert len(labels) == d
        lines = rule_readout(model, x).splitlines()
        outputs = [line for line in lines if line.startswith("  output")]
        assert len(outputs) == model.rule_base.n_rules * c
        for n, line in enumerate(outputs):
            k, j = divmod(n, c)
            head, expr, value = line.split(" = ")
            assert head == f"  output {j + 1}"
            q = model.coeffs[k * d:(k + 1) * d, j]
            want = {}
            for label, a in zip(labels, q):
                factors = sorted((f for f in label.split("*") if f != "1"),
                                 key=lambda f: int(f[1:]))
                key = "*".join(factors) or "1"
                want[key] = want.get(key, 0.0) + a
            terms = [t.split("*", 1) for t in expr.split(" + ")]
            assert [label for _, label in terms] == list(want)
            for a, label in terms:
                assert float(a) == pytest.approx(want[label], abs=5.1e-5)
            assert value == f"{float(b @ q):.4f}"

    def test_teacher_readout_has_scalar_consequent(self):
        # one output per rule, in monomial form: at order 3 on 2 features
        # C(5, 3) = 10 of the D(3, 2) = 15 basis terms
        rng = np.random.default_rng(1)
        for order in range(4):
            for m in (1, 2, 5):
                rb = build_rule_base(2, m, seed=1)
                X = rng.uniform(0, 1, (15, m))
                tm = fit_teacher(rb, X, rng.integers(0, 2, 15).astype(float),
                                 100.0, np.array([0.0, 1.0]), order)
                self.check_against_the_basis(tm, rng.uniform(0, 1, m))

    def test_student_readout_maps_rule_outputs_above_order_one(self):
        # column k*c + j of the monomial coefficients is rule k's output j
        rng = np.random.default_rng(3)
        rb = build_rule_base(2, 3, seed=3)
        coeffs = rng.uniform(-1, 1, (2 * basis_dim(2, 3), 3))
        sm = TSKModel(rb, coeffs, 2, np.arange(3.0))
        self.check_against_the_basis(sm, rng.uniform(0, 1, 3))

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
