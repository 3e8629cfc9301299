"""quantstab: stochastic stabilization over finite-capacity channels.

Closed-loop simulation under quantized coding/control policies, empirical
ergodic measures, channel-capacity lower bounds (refined coordinate-subset
bound and the classical full-state bound), and desk-scale stabilization
entropy via spanning-set counting.
"""

from .capacity_bounds import (
    BoundReport,
    SubsetEstimate,
    classical_bound,
    linear_closed_form,
    refined_bound,
    subset_bound,
)
from .dynamics import (
    FalsificationResult,
    GammaDeclaration,
    IndexSubset,
    SingularMatrixError,
    SystemModel,
    catalog_model,
    catalog_names,
    falsify_floors,
    gamma_falsify,
    inverse_permute,
    log2_abs_det,
    permute_state,
    subset_jacobian,
    subset_map,
)
from .ergodics import (
    EmpiricalMeasure,
    Partition,
    VisitTally,
    empirical_measure,
    ergodicity_dispersion,
    frequency_convergence,
)
from .model_dsl import (
    DslSyntaxError,
    EvalDomainError,
    ModelSource,
    UnknownVariableError,
    differentiate,
    eval_expr,
    parse_expr,
    parse_model,
    print_expr,
)
from .policies import (
    CodingPolicy,
    NullPolicy,
    UniformQuantizerPolicy,
    ZoomPolicy,
    null_policy,
    uniform_quantizer_policy,
    zoom_policy,
)
from .simulation import (
    InitSpec,
    NoiseSpec,
    Trajectory,
    audit_causality,
    batch_rollout,
    closed_loop_blocks,
    replay_consistent,
    rollout,
    run_closed_loop,
    step,
)
from .stabilization_entropy import (
    CandidateControls,
    EntropyPoint,
    NoCandidatesError,
    ScenarioSet,
    SpanningTemplate,
    ThresholdConstraintError,
    build_R_epsilon,
    entropy_rate,
    min_cover_cardinality,
)

__version__ = "0.1.0"
