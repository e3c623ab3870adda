"""TSK fuzzy classifiers with decoupled knowledge distillation."""

from .basis import basis_dim, stack_design_matrix
from .data import (Dataset, FoldPlan, load_bundled, load_csv, normalize,
                   stratified_folds)
from .distill import DistillConfig, distill, distill_batch, teacher_logits
from .harness import (GridSpec, MethodReport, accuracy, format_report,
                      run_method, sweep, weighted_f)
from .rules import (PARTITION, PARTITION_LABELS, RuleBase, TSKModel,
                    build_rule_base, firing_strengths, predict_class,
                    predict_outputs, rule_readout)
from .serialize import load_model, save_model
from .student import (TrainConfig, TrainingDiverged, init_student,
                      onehot_encode, predict_student)
from .teacher import fit_teacher, predict_teacher

__version__ = "0.1.0"
