"""stableinfer: heavy-tailed stable random fields and posterior stress tests.

The package has five layers:

- `stable`: the univariate stable kernel (validation, exact sampling,
  characteristic function, densities, closure arithmetic, fractional
  moments, tail asymptotics, KL divergence).
- `sequences` and `series`: coefficient sequences with convergence
  diagnostics, and truncated random series over declared bases, sampled
  through deterministic counter-based streams.
- `metrics`: quasi-norms and empirical Hellinger / total-variation
  estimators over a shared reference sample.
- `bayes`: self-normalised posteriors against prior ensembles, growth
  envelopes, integrability estimates, and data/likelihood perturbation
  sweeps with fitted Lipschitz slopes.
- `cli`: JSON-config experiment runner (`stableinfer run ...`).
"""

from .errors import (
    AlphaMismatchError,
    ConfigError,
    DegenerateWeightsError,
    DimensionMismatchError,
    DivisionByZeroScaleError,
    InvalidMomentOrderError,
    InvalidSpecError,
    MismatchedReferenceError,
    MomentOrderTooHighError,
    OutOfRangeError,
    QuadratureFailureError,
    StableInferError,
    ZeroScaleError,
)
from .stable import (
    MomentValue,
    StableParams,
    affine_transform,
    cauchy_cdf,
    cauchy_logpdf,
    cauchy_pdf,
    char_fn,
    convolve,
    fractional_moment,
    kl_divergence_1d,
    normal_logpdf,
    normal_pdf,
    sample_cauchy_via_circle,
    sample_cauchy_via_ratio,
    sample_stable,
    stable_pdf,
    tail_asymptote,
    truncated_cauchy_moments,
    validate_params,
)
from .sequences import (
    Explicit,
    Membership,
    PowerLaw,
    PowerLogLaw,
    SeriesVerdict,
    SummabilityVerdict,
    cameron_martin_shift_admissible,
    hilbert_scale_membership,
    sequence_values,
    summability_report,
    three_series_check,
)
from .series import (
    Eigenbasis,
    EuclideanSequence,
    FieldEnsemble,
    HaarWavelet,
    HatHierarchical,
    StableFieldSpec,
    default_grid,
    flom_estimate,
    sample_coefficients,
    sampled_flom_estimate,
    synthesize,
    synthesize_ensemble,
    wavelet_gallery_ensemble,
)
from .metrics import (
    QuasiNormSpec,
    WeightedSampleMeasure,
    expectation_gap_bound_check,
    hellinger_empirical,
    hellinger_with_error,
    quasi_norm,
    total_variation_empirical,
)
from .bayes import (
    IdentityForward,
    LinearForward,
    PotentialSpec,
    data_lipschitz_sweep,
    evaluate_misfit_batch,
    gaussian_additive_potential,
    growth_admissibility,
    integrability_estimates,
    likelihood_perturbation_sweep,
    log_growth_envelopes,
    normalization_constant,
    posterior,
    posterior_expectation,
)

__version__ = "0.1.0"
