"""Command-line interface.

These flags can also be set through an environment variable, named
FUZZYKD_ plus the flag name in upper case with "-" as "_": --label-col,
--seed, --out, --rules, --width, --lr, --epochs, --xi, --reg-L, --order,
--temp, --zeta, --lambda, --phi and --folds (e.g. FUZZYKD_SEED=3 mirrors
--seed 3, FUZZYKD_REG_L=50 mirrors --reg-L 50). Explicit flags win.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .basis import MAX_ORDER
from .data import load_csv, normalize
from .distill import trace_lines
from .harness import (_METHODS, SWEEP_PARAMETERS, GridSpec, candidates,
                      fit_candidates, format_report, run_method, sweep)
from .rules import rule_readout
from .serialize import load_model, save_model
from .student import STUDENT_ORDER, _sole
from .teacher import TEACHER_ORDER, predict_teacher

ENV_PREFIX = "FUZZYKD_"
_FIXED = GridSpec.fixed()
_ORDERS = range(MAX_ORDER + 1)


def _flag(p, name: str, type, default, **kwargs) -> None:
    """Add --name whose default the FUZZYKD_ variable of that name replaces.

    argparse converts a string default with type, as it would the flag.
    """
    env = ENV_PREFIX + name.upper().replace("-", "_")
    p.add_argument("--" + name, type=type,
                   default=os.environ.get(env, default), **kwargs)


def _add_common(p):
    p.add_argument("--data", required=True, help="input CSV file")
    _flag(p, "label-col", int, -1, help="label column index (default: last)")
    p.add_argument("--header", action="store_true",
                   help="first CSV row is a header")
    _flag(p, "seed", int, 0)
    _flag(p, "out", None, None, help="output path (default: stdout)")


def _add_train(p):
    _flag(p, "rules", int, _FIXED.rule_counts[0])
    _flag(p, "width", float, _FIXED.width)
    _flag(p, "lr", float, _FIXED.lr,
          help="length of the student's first trial step along the negative "
               "gradient; later steps are line-searched L-BFGS steps "
               "(default %(default)s)")
    _flag(p, "epochs", int, _FIXED.max_epochs,
          help="most trial steps per student fit, one loss/gradient "
               "evaluation each (plus one at the start); also caps the "
               "epochs (default %(default)s)")
    _flag(p, "xi", float, _FIXED.tol)
    _flag(p, "reg-L", float, _FIXED.reg, dest="reg_l")


def _add_distill(p):
    _flag(p, "temp", float, _FIXED.temperatures[0])
    _flag(p, "zeta", float, _FIXED.target_weights[0])
    _flag(p, "lambda", float, _FIXED.non_target_weights[0], dest="lam")
    _flag(p, "phi", float, _FIXED.ce_weights[0])


def _add_report(p):
    p.add_argument("--method", default="distill-dkd",
                   help="one of " + ", ".join(sorted(_METHODS)))
    _flag(p, "folds", int, _FIXED.folds)
    p.add_argument("--no-time", action="store_true",
                   help="omit wall-time fields (byte-stable reports)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzykd",
        description="TSK fuzzy classifiers with decoupled knowledge "
                    "distillation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-teacher",
                       help="closed-form fit of the high-order model")
    _add_common(p)
    _add_train(p)
    _flag(p, "order", int, TEACHER_ORDER, choices=_ORDERS)

    p = sub.add_parser("train-student",
                       help="gradient training of the low-order model")
    _add_common(p)
    _add_train(p)
    _flag(p, "order", int, STUDENT_ORDER, choices=_ORDERS)

    p = sub.add_parser("distill", help="distill the teacher into the student")
    _add_common(p)
    _add_train(p)
    _add_distill(p)
    p.add_argument("--vanilla", action="store_true",
                   help="use the coupled KL loss instead of the "
                        "decoupled one")
    p.add_argument("--trace-out", default=None,
                   help="write the per-epoch loss trace to this file")

    p = sub.add_parser("evaluate", help="cross-validated evaluation")
    _add_common(p)
    _add_train(p)
    _add_distill(p)
    _add_report(p)

    p = sub.add_parser("gridsearch",
                       help="evaluation with inner-CV hyperparameter search")
    _add_common(p)
    _add_report(p)
    p.add_argument("--grid", choices=("full", "coarse"), default="coarse")

    p = sub.add_parser("sweep", help="vary one distillation parameter")
    _add_common(p)
    _add_train(p)
    _add_distill(p)
    p.add_argument("--param", required=True, choices=SWEEP_PARAMETERS,
                   help="varied over the default grid's six candidates; "
                        "the other settings stay at their flags")
    _flag(p, "folds", int, _FIXED.folds)

    p = sub.add_parser("explain", help="linguistic rule readout of a model")
    p.add_argument("--model", required=True, help="serialized model file")
    p.add_argument("--sample", required=True,
                   help="comma-separated feature values")
    p.add_argument("--out", default=None)
    return parser


def _emit(text: str, out: str | None) -> None:
    """Write text, ending in exactly one newline, to out or to stdout."""
    text = text.rstrip("\n") + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args):
    return load_csv(args.data, header=args.header, label_col=args.label_col)


# flag dest -> GridSpec.fixed keyword; a command uses the flags it has
_GRID_FLAGS = {"rules": "n_rules", "temp": "temperature",
               "zeta": "target_weight", "lam": "non_target_weight",
               "phi": "ce_weight", "reg_l": "reg", "epochs": "max_epochs",
               "xi": "tol", "lr": "lr", "folds": "folds", "width": "width"}


def _grid(args) -> GridSpec:
    return GridSpec.fixed(**{key: getattr(args, flag)
                             for flag, key in _GRID_FLAGS.items()
                             if hasattr(args, flag)})


def _fit_and_save(args, method: str, teacher_seed: int):
    """Fits the method's one candidate (fit_candidates) on all of --data,
    normalized, and saves the model to --out; raises TrainingDiverged."""
    if not args.out:
        raise SystemExit(f"{args.command} requires --out for the model file")
    ds = _load(args)
    X, _, _ = normalize(ds.X)
    grid = _grid(args)
    model, trace = _sole(fit_candidates(method, candidates(method, grid)[:1],
                                        grid, X, ds.y, ds.n_classes,
                                        teacher_seed, args.seed))
    save_model(model, args.out)
    return model, trace, X, ds


def _cmd_train_teacher(args) -> None:
    tm, _, X, ds = _fit_and_save(args, f"tsk-order-{args.order}-llm",
                                 args.seed)
    resid = float(np.mean((predict_teacher(tm, X) - ds.y) ** 2))
    print(f"saved teacher to {args.out} (train MSE {resid:.6f})")


def _cmd_train_student(args) -> None:
    _, trace, _, _ = _fit_and_save(args, f"tsk-order-{args.order}-gd",
                                   args.seed)
    print(f"saved student to {args.out} ({_fit_summary(trace)})")


def _cmd_distill(args) -> None:
    # the CLI's own rule-base seeds, not the harness's per-fold _rb_seed
    method = "distill-kd" if args.vanilla else "distill-dkd"
    _, trace, _, _ = _fit_and_save(args, method, args.seed + 7)
    if args.trace_out:
        _emit("\n".join(trace_lines(trace)), args.trace_out)
    print(f"saved distilled student to {args.out} ({_fit_summary(trace)})")


def _fit_summary(trace: list[dict]) -> str:
    if not trace:  # the step budget ran out inside the first line search
        return "no step lowered the loss, 0 epochs"
    return f"final loss {trace[-1]['total']:.6f}, {len(trace)} epochs"


def _cmd_evaluate(args) -> None:
    _report(args, _grid(args))


def _cmd_gridsearch(args) -> None:
    cls = GridSpec if args.grid == "full" else GridSpec.coarse
    _report(args, cls(folds=args.folds))


def _report(args, grid: GridSpec) -> None:
    rep = run_method(args.method, _load(args), grid, args.seed,
                     dataset_name=os.path.basename(args.data))
    _emit(format_report([rep], include_time=not args.no_time), args.out)
    if rep.n_failed() == len(rep.records):  # the report has no result
        raise RuntimeError(f"all {len(rep.records)} outer folds failed")


def _cmd_sweep(args) -> None:
    name = SWEEP_PARAMETERS[args.param]
    grid = replace(_grid(args), **{name: getattr(GridSpec(), name)})
    records = sweep(args.param, _load(args), grid, args.seed)
    lines = [f"sweep parameter={r['parameter']} value={r['value']:g} "
             f"acc_mean={r['mean_accuracy']:.9f} "
             f"acc_std={r['std_accuracy']:.9f}" for r in records]
    _emit("\n".join(lines), args.out)


def _cmd_explain(args) -> None:
    model = load_model(args.model)
    sample = []
    for i, value in enumerate(args.sample.split(","), 1):
        try:
            sample.append(float(value))
        except ValueError:
            raise ValueError(f"--sample value {i} is not a number: "
                             f"{value!r}") from None
    n_features = model.rule_base.n_features
    if len(sample) != n_features:
        raise ValueError(f"--sample has {len(sample)} values, but the model "
                         f"has {n_features} features")
    _emit(rule_readout(model, np.array(sample)), args.out)


_COMMANDS = {
    "train-teacher": _cmd_train_teacher,
    "train-student": _cmd_train_student,
    "distill": _cmd_distill,
    "evaluate": _cmd_evaluate,
    "gridsearch": _cmd_gridsearch,
    "sweep": _cmd_sweep,
    "explain": _cmd_explain,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse checks a flag's choices, not a FUZZYKD_ default's: re-parse
    if getattr(args, "order", 0) not in _ORDERS:
        parser.parse_args([args.command, "--order", str(args.order)])
    try:
        _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"fuzzykd: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
