"""Local SGD: simulation, bound verification, and speedup experiments.

K workers run SGD on a shared finite-sum objective and periodically reset
to the average of their iterates.  This package simulates the synchronous
and asynchronous (delayed-write) variants deterministically, evaluates the
closed-form convergence bounds for strongly convex objectives, verifies
the underlying per-step inequalities by Monte-Carlo, and reproduces
iterations-to-accuracy speedup experiments under a communication cost
model.
"""

from .averaging import (
    SCHEMES,
    RunningAverage,
    ShiftedQuadraticAverage,
    sum_of_weights,
)
from .asynchronous import (
    AssignmentPlan,
    DelayModel,
    WriteLog,
    load_balanced_assignment,
    measured_delay,
    run_async_local_sgd,
    run_load_balanced,
)
from .data import Dataset, LibsvmFormatError, parse_libsvm, serialize_libsvm
from .lemmas import (
    CheckReport,
    check_async_deviation,
    check_deviation_bound,
    check_perturbed_inequality,
    check_recursion_lemma,
    check_variance_reduction,
    lemma_suite,
)
from .objectives import (
    LogisticObjective,
    ProblemConstants,
    QuadraticObjective,
    ReferenceSolution,
    make_quadratic,
)
from .schedules import (
    ConstantStep,
    ExperimentDecayStep,
    SyncSchedule,
    TheoremDecayStep,
    gap,
    regular_sync_schedule,
    theorem_steps,
)
from .sync import (
    RecordFlags,
    RunConfig,
    RunTrace,
    run_local_sgd,
    run_local_sgd_ensemble,
    run_minibatch_sgd,
)
from .theory import (
    corollary_bound,
    iterations_estimate,
    speedup,
    theorem1_bound,
    theorem2_bound,
)

__version__ = "0.1.0"
