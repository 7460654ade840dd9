"""Spectral structure, symmetry operator families, indefinite-metric
classification and metric-preserving time evolution for finite-dimensional
pseudo-Hermitian Hamiltonians."""

from . import errors, evolution, krein, linalg, operators, serialization, spectral
from .evolution import (
    EvolutionRequest,
    MashhoonPapiniParams,
    krein_norm_series,
    mashhoon_papini,
    propagator,
    transition_probability,
)
from .krein import (
    CongruenceResult,
    KreinSpace,
    SymmetryClass,
    build_krein_space,
    classify,
    commutant_element,
    congruence_to_involutory,
    factor_antiunitary,
    krein_inner,
    pseudounitary_symmetries_exist,
)
from .linalg import DEFAULT_TOL, Tolerance
from .operators import (
    SignSequence,
    SymmetryOperator,
    antilinear_adjoint,
    antilinear_compose,
    build_charge,
    build_ctp,
    build_parity,
    build_positive_metric,
    build_quaternionic_T,
    build_reflecting,
    build_time_reversal,
    build_tp,
    canonical_sign_sequence,
)
from .spectral import (
    JordanBlockSpec,
    SpectralDecomposition,
    SynthesisSpec,
    analyze,
    check_biorthonormal,
    is_pseudo_hermitian,
    reconstruct,
    synthesize,
)

__version__ = "0.1.0"
