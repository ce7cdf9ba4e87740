"""Multi-target split conformal prediction with minimax calibration.

The package provides nonconformity scores and calibration strategies that
hold joint coverage over several prediction targets at once, a synthetic
benchmark suite with a Monte Carlo harness, an early-stopping protocol for
staged predictions, and the ``ctool`` command line runner.
"""

from .calibrate import (
    Calibration,
    Method,
    coverage_mask,
    fit_cdf,
    fit_method,
    interval_array,
)
from .core import (
    InsufficientSamplesError,
    LabeledSet,
    Role,
    SplitSpec,
    TrialSplits,
    concat,
    derive_seed,
    partition,
    rng_for,
    split_cal_test,
    trial_rng,
)
from .evaluate import (
    CoverageBoundsReport,
    TrialMetrics,
    coverage_bounds_check,
    mc_slack,
    run_trials,
)
from .multiround import (
    ProtocolResult,
    pilot_tau,
    run_protocol,
    run_sc_baseline,
)
from .scores import (
    ScoreKind,
    score_matrix,
)
from .synthetic import (
    NOISE_COV,
    FitConfig,
    NoiseKind,
    QuantReg,
    RoundConfig,
    cholesky3,
    fit_quantile_models,
    fit_quantreg,
    gen_multiround,
    gen_synthetic,
    predict_quantiles,
    regression_mean,
)

__version__ = "0.1.0"
