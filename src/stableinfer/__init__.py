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

`import stableinfer` loads the exception classes of `errors` and nothing
else of the package.  Every other public name, and every submodule, is
imported from its home module on first access (PEP 562) and then kept
here, so a process loads only the layers it uses: a `stable_pdf` call
never compiles `bayes` or `series`.
"""

import sys

from . import errors
from .errors import *  # noqa: F403  (the exception classes, see errors.__all__)

__version__ = "0.1.0"

# home module -> the public names it lends the package
_EXPORTS = {
    "stable": (
        "MomentValue", "StableParams", "affine_transform", "cauchy_cdf", "cauchy_logpdf",
        "cauchy_pdf", "char_fn", "convolve", "fractional_moment", "kl_divergence_1d",
        "normal_logpdf", "normal_pdf", "sample_cauchy_via_circle", "sample_cauchy_via_ratio",
        "sample_stable", "stable_pdf", "tail_asymptote", "truncated_cauchy_moments",
        "validate_params",
    ),
    "sequences": (
        "Explicit", "Membership", "PowerLaw", "PowerLogLaw", "SeriesVerdict",
        "SummabilityVerdict", "cameron_martin_shift_admissible", "hilbert_scale_membership",
        "sequence_values", "summability_report", "three_series_check",
    ),
    "series": (
        "Eigenbasis", "EuclideanSequence", "FieldEnsemble", "HaarWavelet", "HatHierarchical",
        "StableFieldSpec", "flom_estimate", "sample_coefficients", "synthesize",
        "wavelet_gallery_ensemble",
    ),
    "metrics": (
        "QuasiNormSpec", "WeightedSampleMeasure", "distances", "expectation_gap_bound_check",
    ),
    "bayes": (
        "IdentityForward", "LinearForward", "PotentialSpec", "data_lipschitz_sweep",
        "evaluate_misfit_batch", "gaussian_additive_potential", "growth_admissibility",
        "integrability_estimates", "likelihood_perturbation_sweep", "log_growth_envelopes",
        "posterior", "posterior_expectation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("bayes", "cli", "ensemble_io", "errors", "gof", "metrics", "rng", "sequences",
               "series", "stable")

__all__ = [*errors.__all__, *_HOME]


def _submodule(name):
    # through the import statement's machinery, not importlib.import_module,
    # so that `python -X importtime` reports the import
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
