"""Relaxation and state-selective reaction kinetics for small quantum systems.

Builds second-order relaxation supermatrices from bath spectra, reaction
superoperators for spin-selective radical-pair recombination, closed-form
diffusion radii, and a stochastic-trajectory cross-check of the rates.
"""

from .bloch_redfield import (
    BathSpec,
    CouplingOperator,
    FrequencyComponent,
    Lorentzian,
    Tabulated,
    ValidityReport,
    WhiteNoise,
    double_commutator_part,
    frequency_decompose,
    relaxation_supermatrix,
    thermal_factor,
    thermal_part,
    validity_check,
)
from .diffusion import (
    DiffusionParams,
    EqualRadiusReport,
    ReactionRadii,
    SensitivityIndex,
    cage_rates,
    compute_radii,
    dephasing_radius,
    equal_radius_regime_check,
    reaction_radius,
    recombination_sensitivity,
    st_dephasing_rate_estimate,
    to_reaction_model,
)
from .errors import (
    DimensionMismatchError,
    NonDecayingGeneratorError,
    NumericalError,
    RegimeError,
    SpinKineticsError,
    ValidationError,
)
from .liouville import (
    BasisLabel,
    DensityMatrix,
    OperatorMatrix,
    Propagation,
    Superoperator,
    assemble_generator,
    infinite_time_integral,
    propagate,
)
from .radical_pair import (
    PAIR_BASIS,
    CoherenceFit,
    PairHamiltonian,
    RateElements,
    ReactionModel,
    ReactionVariant,
    Yields,
    coherence_decay_rate,
    projectors,
    pure_state_propagate,
    rate_elements,
    reaction_supermatrix,
    recombination_yields,
)
from .stochastic import (
    ClosedLoopReport,
    CorrelationSpectrum,
    NoiseKind,
    NoiseProcess,
    PerturbativeRun,
    RateExtraction,
    closed_loop_check,
    correlation_spectrum,
    extract_rates,
    perturbative_amplitudes,
    simulate_noise,
)
from .three_state import (
    THREE_STATE_BASIS,
    ThreeStateParams,
    ThreeStateRates,
    assembled_rates,
    build_bath,
    closed_form_rates,
    projection_limit_deviation,
    projection_limit_super,
)

__version__ = "0.1.0"
