"""Covariant POVMs on finite Abelian groups.

Construction, evaluation, and verification of positive operator valued
measures covariant under a diagonal unitary representation, on quotients
of finite Abelian groups, plus band-limited phase and phase-difference
observables on the torus.
"""

from .groups import (
    DualCharacter,
    FiniteAbelianGroup,
    GroupElement,
    QuotientGroup,
    Subgroup,
    annihilator,
    pairing,
    quotient,
    subgroup_from_generators,
    trivial_subgroup,
)
from .harmonic import (
    DOMAIN_DUAL,
    DOMAIN_DUAL_QUOTIENT,
    QuotientContext,
    WeightedMeasure,
    image_measure,
    lift_measure,
)
from .induction import (
    DiagonalSpace,
    InducedSpace,
    character_multiplication_act,
    character_multiplication_matrix,
    diagonalizer_adjoint_apply,
    diagonalizer_adjoint_matrix,
    diagonalizer_apply,
    diagonalizer_matrix,
    multiplication_act,
    multiplication_matrix,
    translation_act,
    translation_matrix,
    transported_multiplication_act,
    transported_multiplication_matrix,
)
from .observables import (
    PhaseDifferenceObservable,
    PhaseObservable,
    TrigPolynomial,
    assemble_phase_difference_operator,
    assemble_phase_operator,
    born_distribution,
    phase_difference_matrix_element,
    phase_matrix_element,
    position_povm_zn,
    sample_outcomes,
    window_truncates_selection_rule,
)
from .povm import (
    BlockOperator,
    CheckResult,
    CovariantPOVM,
    DiagonalRep,
    DilationSweep,
    EquivalenceResult,
    FieldTable,
    IsometryField,
    MeasureClassData,
    PovmBuildError,
    SectorSpec,
    SupportTable,
    VerificationReport,
    apply_via_intertwiner,
    build_covariant_povm,
    class_measure,
    dilation_sweep,
    equivalence_check,
    intertwiner_compressions,
    intertwiner_matrix,
    sector_pointwise_operator,
    validate_rep,
    verify_axioms,
    verify_covariance,
)

__version__ = "0.1.0"
