"""doobkit: supermartingale calculus on finite scenario trees under
multiple priors, with decomposition certificates, superhedge pricing, and
instance-level audits of the envelope identities."""

from .space import (
    AdaptedProcess,
    BadCover,
    FilteredSpace,
    Measure,
    MeasureFamily,
    NonRefining,
    ShapeMismatch,
    SpaceError,
    TrivialRootMissing,
    build_space,
    cond_exp_cells,
    ess_sup_cond_exp_cells,
)
from .lp import NumericalBreakdown
from .regularity import (
    A0Element,
    Classification,
    DecompositionReport,
    NotInA0,
    NotLocallyRegular,
    NotSupermartingale,
    OptionalDecomposition,
    StepFailure,
    Xi0Step,
    a0_membership,
    classify,
    find_a0_element,
    optional_decompose,
    verify_decomposition,
    xi0_step_alpha,
    xi0_step_lp,
)
from .claims import (
    CLAIM_IDS,
    AuditInstance,
    AuditResult,
    ClaimPreconditionUnmet,
    audit,
    envelope_process,
    search_counterexample,
)
from .pricing import (
    BadBounds,
    EmmReport,
    EmmResult,
    FamilyNotEmm,
    GeneratorNotInA0,
    MarketModel,
    NotMeasurable,
    NotRepresentable,
    PricingInfeasible,
    PricingResult,
    TradingStrategy,
    closed_form_call,
    closed_form_put,
    fair_price_a0,
    fair_price_generators,
    find_emm,
    martingale_representation,
    price_slice_generators,
    superhedge_strategy,
    verify_emm,
)
from .scenario import ClaimSpec, Scenario, SchemaError, load_scenario, parse_scenario

__version__ = "0.1.0"
