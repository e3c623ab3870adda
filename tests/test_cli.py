"""End-to-end command-line interface checks."""
import json

import numpy as np
import pytest

import fuzzykd.cli as cli
import fuzzykd.harness as harness
from fuzzykd.cli import main
from fuzzykd.data import bundled_path
from fuzzykd.serialize import load_model


@pytest.fixture()
def iris_csv():
    return str(bundled_path("iris"))


def test_train_teacher_saves_model(tmp_path, iris_csv, capsys):
    out = tmp_path / "teacher.json"
    rc = main(["train-teacher", "--data", iris_csv, "--rules", "4",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    model = load_model(out)
    assert model.order == 3
    assert "saved teacher" in capsys.readouterr().out


def test_train_student_saves_model(tmp_path, iris_csv, capsys):
    out = tmp_path / "student.json"
    rc = main(["train-student", "--data", iris_csv, "--rules", "4",
               "--epochs", "5", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert load_model(out).n_classes == 3
    assert "saved student" in capsys.readouterr().out


def test_distill_writes_model_and_trace(tmp_path, iris_csv):
    out = tmp_path / "distilled.json"
    trace = tmp_path / "trace.txt"
    rc = main(["distill", "--data", iris_csv, "--rules", "4",
               "--epochs", "5", "--seed", "1", "--out", str(out),
               "--trace-out", str(trace)])
    assert rc == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0].startswith("epoch=1 tckl=")
    assert load_model(out).order == 1


def test_vanilla_distill_traces_decoupled_parts(tmp_path, iris_csv):
    out = tmp_path / "kd.json"
    trace = tmp_path / "trace.txt"
    rc = main(["distill", "--vanilla", "--phi", "0", "--data", iris_csv,
               "--rules", "4", "--epochs", "5", "--seed", "1",
               "--out", str(out), "--trace-out", str(trace)])
    assert rc == 0
    lines = trace.read_text().strip().splitlines()
    assert all(" tckl=" in ln and " nckl=" in ln for ln in lines)


def test_evaluate_report_is_reproducible(tmp_path, iris_csv):
    args = ["evaluate", "--data", iris_csv, "--method", "distill-dkd",
            "--rules", "4", "--folds", "3", "--seed", "2", "--no-time"]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"aggregate dataset=iris.csv method=distill-dkd" in a.read_bytes()


def test_evaluate_stdout_default(iris_csv, capsys):
    rc = main(["evaluate", "--data", iris_csv, "--method", "student-only",
               "--rules", "2", "--folds", "2", "--seed", "0", "--no-time"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fold dataset=" in out and "acc_mean=" in out


def test_sweep_emits_one_line_per_value(tmp_path, iris_csv):
    out = tmp_path / "sweep.txt"
    rc = main(["sweep", "--data", iris_csv, "--param", "tau", "--rules", "2",
               "--folds", "2", "--epochs", "5", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert [ln.split()[2] for ln in lines] == [
        f"value={v}" for v in (1, 2, 5, 10, 20, 100)]
    assert all(ln.startswith("sweep parameter=tau ") for ln in lines)


@pytest.mark.parametrize("command", [
    ["evaluate", "--method", "student-only", "--no-time"],
    ["sweep", "--param", "tau"]], ids=["evaluate", "sweep"])
def test_stdout_matches_out_file(tmp_path, iris_csv, capsys, command):
    args = command + ["--data", iris_csv, "--rules", "2", "--folds", "2",
                      "--epochs", "5"]
    out = tmp_path / "out.txt"
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(args) == 0
    stdout = capsys.readouterr().out
    assert stdout.encode() == out.read_bytes()
    assert stdout.endswith("\n") and not stdout.endswith("\n\n")


def test_explain_round_trip(tmp_path, iris_csv, capsys):
    model = tmp_path / "student.json"
    main(["train-student", "--data", iris_csv, "--rules", "2",
          "--epochs", "3", "--seed", "1", "--out", str(model)])
    capsys.readouterr()
    rc = main(["explain", "--model", str(model),
               "--sample", "0.2,0.4,0.1,0.3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Rule 1:" in out and "Predicted class:" in out


def test_explain_float_class_count_is_a_malformed_model(tmp_path, iris_csv,
                                                       capsys):
    # the readout does not read n_classes, so only the load can reject it
    model = tmp_path / "student.json"
    main(["train-student", "--data", iris_csv, "--rules", "2",
          "--epochs", "3", "--seed", "1", "--out", str(model)])
    model.write_text(model.read_text().replace('"n_classes": 3',
                                               '"n_classes": 3.0'))
    capsys.readouterr()
    rc = main(["explain", "--model", str(model),
               "--sample", "0.2,0.4,0.1,0.3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"fuzzykd: error: {model}: malformed model "
                            "record (n_classes must be an integer >= 2, got "
                            "3.0)\n")


def test_explain_nan_coefficient_is_a_malformed_model(tmp_path, iris_csv,
                                                     capsys):
    # loaded, a nan coefficient would predict class 0 for every sample
    model = tmp_path / "student.json"
    main(["train-student", "--data", iris_csv, "--rules", "2",
          "--epochs", "3", "--seed", "1", "--out", str(model)])
    record = json.loads(model.read_text())
    # the first 16 hex digits are the first coefficient's float64 bytes
    record["coeffs"]["hex"] = "000000000000f87f" + record["coeffs"]["hex"][16:]
    model.write_text(json.dumps(record))
    capsys.readouterr()
    rc = main(["explain", "--model", str(model),
               "--sample", "0.2,0.4,0.1,0.3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"fuzzykd: error: {model}: malformed model "
                            "record (non-finite value nan in coeffs at row "
                            "1, column 1)\n")


def test_train_teacher_infinite_reg_is_an_error(tmp_path, iris_csv, capsys):
    # L = inf would fit with ridge 1/L = 0
    out = tmp_path / "teacher.json"
    rc = main(["train-teacher", "--data", iris_csv, "--rules", "2",
               "--reg-L", "inf", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == ("fuzzykd: error: regularization "
                                       "parameter must be finite\n")
    assert not out.exists()


def test_explain_infinite_reg_is_a_malformed_model(tmp_path, iris_csv,
                                                   capsys):
    model = tmp_path / "teacher.json"
    main(["train-teacher", "--data", iris_csv, "--rules", "2", "--seed", "1",
          "--out", str(model)])
    model.write_text(model.read_text().replace('"reg": 100.0',
                                               '"reg": Infinity'))
    capsys.readouterr()
    rc = main(["explain", "--model", str(model),
               "--sample", "0.2,0.4,0.1,0.3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"fuzzykd: error: {model}: malformed model "
                            "record (regularization parameter must be "
                            "finite)\n")


def test_evaluate_rejects_text_in_numeric_column(tmp_path, capsys):
    data = tmp_path / "mixed.csv"
    data.write_text("1,2,0.0,0\n2,3,3.0,1\n3,4,2.0,0\n4,5,?,1\n5,6,0.0,0\n")
    rc = main(["evaluate", "--data", str(data), "--rules", "2",
               "--folds", "2", "--epochs", "5", "--no-time"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"fuzzykd: error: {data}: non-numeric value "
                            "'?' at row 4, column 3 of a numeric column\n")


def test_explain_rejects_non_finite_sample(tmp_path, iris_csv, capsys):
    model = tmp_path / "teacher.json"
    main(["train-teacher", "--data", iris_csv, "--rules", "2",
          "--seed", "1", "--out", str(model)])
    capsys.readouterr()
    rc = main(["explain", "--model", str(model),
               "--sample", "nan,0.2,0.3,0.4"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("fuzzykd: error: non-finite value nan in X at "
                            "row 1, column 1\n")


@pytest.mark.parametrize("sample, message", [
    ("0.2,abc,0.1,0.3", "--sample value 2 is not a number: 'abc'"),
    ("0.2,0.4,", "--sample value 3 is not a number: ''"),
    ("0.2,0.4,0.1", "--sample has 3 values, but the model has 4 features"),
    ("0.2,0.4,0.1,0.3,0.5",
     "--sample has 5 values, but the model has 4 features")])
def test_explain_bad_sample_located(tmp_path, iris_csv, capsys, sample,
                                    message):
    model = tmp_path / "teacher.json"
    main(["train-teacher", "--data", iris_csv, "--rules", "2",
          "--seed", "1", "--out", str(model)])
    capsys.readouterr()
    rc = main(["explain", "--model", str(model), "--sample", sample])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fuzzykd: error: {message}\n"


def test_env_var_override(tmp_path, iris_csv, monkeypatch, capsys):
    monkeypatch.setenv("FUZZYKD_EPOCHS", "2")
    out = tmp_path / "student.json"
    rc = main(["train-student", "--data", iris_csv, "--rules", "2",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert "2 epochs" in capsys.readouterr().out


def test_fit_with_no_accepted_step_reports_zero_epochs(tmp_path, iris_csv,
                                                      capsys):
    # one trial step far too long for the line search to accept
    rc = main(["train-student", "--data", iris_csv, "--rules", "2",
               "--epochs", "1", "--lr", "1e4", "--seed", "1",
               "--out", str(tmp_path / "student.json")])
    assert rc == 0
    assert "0 epochs" in capsys.readouterr().out


def test_all_folds_failed_exits_2_after_the_report(tmp_path, iris_csv,
                                                  capsys):
    out = tmp_path / "report.txt"
    with np.errstate(all="ignore"):
        rc = main(["evaluate", "--data", iris_csv, "--rules", "2", "--folds",
                   "2", "--epochs", "5", "--lr", "inf", "--no-time",
                   "--out", str(out)])
    assert rc == 2
    assert "failed=2" in out.read_text()
    assert capsys.readouterr().err == ("fuzzykd: error: all 2 outer folds "
                                       "failed\n")


def test_missing_file_exits_nonzero(capsys):
    rc = main(["evaluate", "--data", "/nonexistent.csv"])
    assert rc == 2
    assert "fuzzykd: error:" in capsys.readouterr().err


def test_label_column_out_of_range_exits_nonzero(iris_csv, capsys):
    rc = main(["evaluate", "--data", str(iris_csv), "--label-col", "5",
               "--no-time"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "fuzzykd: error:" in err
    assert "label column 5 is out of range for 5 columns" in err


def test_unknown_method_lists_the_methods(iris_csv, capsys):
    rc = main(["evaluate", "--data", iris_csv, "--method", "foo"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("fuzzykd: error: unknown method 'foo'; the methods "
                          "are distill-dkd, distill-kd, student-only, ")
    assert err.endswith(", tsk-order-3-gd, tsk-order-3-llm\n")


@pytest.mark.parametrize("command", ["evaluate", "gridsearch"])
def test_method_help_lists_the_methods(command):
    # the help string itself: argparse wraps the printed text at hyphens
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    (action,) = [a for a in sub.choices[command]._actions
                 if a.dest == "method"]
    assert action.help == "one of " + ", ".join(sorted(harness._METHODS))


def test_unparseable_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("1,2,0\n3,\"" + "x" * 131_073 + "\",1\n")
    rc = main(["evaluate", "--data", str(path), "--no-time"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fuzzykd: error: {path}: line 2: ")


def test_gridsearch_small(tmp_path):
    # tiny synthetic file keeps the coarse grid tractable
    rng = np.random.default_rng(0)
    rows = []
    for cls, lo in ((0, 0.0), (1, 0.7)):
        for _ in range(12):
            a, b = rng.uniform(lo, lo + 0.3, 2)
            rows.append(f"{a:.4f},{b:.4f},{cls}")
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "report.txt"
    rc = main(["gridsearch", "--data", str(path), "--method", "student-only",
               "--folds", "2", "--seed", "0", "--no-time",
               "--out", str(out)])
    assert rc == 0
    assert "aggregate" in out.read_text()


def test_gridsearch_report_same_in_one_process_and_two(iris_csv, capsys,
                                                      monkeypatch):
    argv = ["gridsearch", "--data", iris_csv, "--method", "student-only",
            "--folds", "2", "--no-time"]
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_too_small_inner_search_located(tmp_path, capsys, monkeypatch):
    # outer fold 0 of 2 trains on 2 rows, too few for the inner 3 folds; in
    # one process, fold 1's coarse search is not run
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    path = tmp_path / "five.csv"
    path.write_text("0.1,0.2,a\n0.3,0.1,a\n0.5,0.9,b\n0.7,0.8,b\n"
                    "0.2,0.5,c\n")
    rc = main(["gridsearch", "--data", str(path), "--method", "distill-dkd",
               "--folds", "2", "--no-time"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "fuzzykd: error: outer fold 0: the inner 3-fold search cannot split "
        "its 2 training rows into 3 folds\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_lr_at_a_zero_gradient_is_one_error_line(tmp_path, capsys):
    # one order-0 rule on balanced classes: the first gradient is 0, and
    # the first trial point, inf times 0, diverges at epoch 1
    path = tmp_path / "six.csv"
    path.write_text("0.1,0.2,a\n0.3,0.1,a\n0.5,0.9,b\n0.7,0.8,b\n"
                    "0.2,0.5,a\n0.9,0.6,b\n")
    rc = main(["train-student", "--data", str(path), "--order", "0",
               "--rules", "1", "--lr", "inf",
               "--out", str(tmp_path / "student.json")])
    assert rc == 2
    assert capsys.readouterr().err == ("fuzzykd: error: training loss became "
                                       "non-finite at epoch 1\n")


def test_more_folds_than_rows_located(tmp_path, capsys):
    path = tmp_path / "six.csv"
    path.write_text("0.1,0.2,0\n0.2,0.1,0\n0.3,0.3,0\n"
                    "0.8,0.9,1\n0.9,0.8,1\n0.7,0.7,1\n")
    rc = main(["evaluate", "--data", str(path), "--method", "student-only",
               "--folds", "10", "--no-time"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "fuzzykd: error: cannot split 6 samples into 10 folds" in err


def test_missing_out_checked_before_fitting(iris_csv, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_candidates called")

    monkeypatch.delenv("FUZZYKD_OUT", raising=False)
    monkeypatch.setattr(cli, "fit_candidates", no_fit)
    with pytest.raises(SystemExit, match="requires --out"):
        main(["train-student", "--data", iris_csv])


@pytest.mark.parametrize("flag, value, field", [
    ("--zeta", "nan", "target_weight"), ("--temp", "inf", "temperature"),
    ("--xi", "nan", "tol")])
def test_non_finite_setting_exits_2_before_the_teacher_fit(
        iris_csv, capsys, monkeypatch, flag, value, field):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_teacher called")

    monkeypatch.setattr(harness, "fit_teacher", no_fit)
    rc = main(["evaluate", "--data", iris_csv, "--rules", "2", "--folds",
               "2", "--epochs", "5", flag, value, "--no-time"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"fuzzykd: error: {field} must be")


def test_evaluate_global_normalize(iris_csv, capsys):
    rc = main(["evaluate", "--data", iris_csv, "--method", "student-only",
               "--rules", "2", "--folds", "2", "--epochs", "5",
               "--global-normalize", "--no-time"])
    assert rc == 0
    assert "aggregate dataset=iris.csv" in capsys.readouterr().out


ENV_FLAGS = ("label_col", "seed", "out", "rules", "width", "lr", "epochs",
             "xi", "reg_l", "order", "temp", "zeta", "lambda", "phi", "folds")


def test_env_overrides_exactly_the_listed_flags(monkeypatch):
    for name in ENV_FLAGS + ("method", "no_time", "data", "grid"):
        monkeypatch.setenv("FUZZYKD_" + name.upper(), "3")
    parser = cli.build_parser()
    args = vars(parser.parse_args(["evaluate", "--data", "d.csv"]))
    args.update(vars(parser.parse_args(["train-teacher", "--data", "d.csv"])))
    args["lambda"] = args.pop("lam")
    assert {k: args[k] for k in ENV_FLAGS} == {
        k: ("3" if k == "out" else 3) for k in ENV_FLAGS}
    assert (args["method"], args["no_time"], args["data"]) == \
        ("distill-dkd", False, "d.csv")


@pytest.mark.parametrize("var,value,command,message", [
    ("FUZZYKD_SEED", "x", "evaluate",
     "argument --seed: invalid int value: 'x'"),
    ("FUZZYKD_ORDER", "7", "train-teacher",
     "argument --order: invalid choice: 7 (choose from 0, 1, 2, 3)"),
], ids=["seed", "order"])
def test_bad_env_value_is_a_usage_error(iris_csv, monkeypatch, capsys, var,
                                        value, command, message):
    monkeypatch.setenv(var, value)
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", iris_csv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_epochs_help_prints_the_env_default(monkeypatch, capsys):
    monkeypatch.setenv("FUZZYKD_EPOCHS", "7")
    with pytest.raises(SystemExit):
        main(["train-student", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "caps the epochs (default 7)" in help_text
    assert "60 evaluations" not in help_text
