"""Kernel independence toolkit.

Closed-form HSIC and MMD for Gaussian measures under Gaussian product
kernels, the classical sample estimators (V-statistic, U-statistic, Nystrom
cross-covariance norm), spectral Monte Carlo oracles, and a two-point
minimax experiment harness with a command-line front end.
"""

from .analytic import (
    Hsic2Decomposition,
    adversarial_hsic2,
    embedding_inner,
    hsic2_gaussian,
    lecam_bound,
    minimax_constant,
    mmd2_gaussian,
)
from .data import BlockStructure, Dataset
from .estimators import (
    BlockStats,
    block_stats,
    block_stats_batch,
    hsic_nystrom,
    hsic_nystrom_batch,
    hsic_u,
    hsic_v,
    landmark_picks,
)
from .gaussian import (
    AdversarialPair,
    GaussianMeasure,
    char_fn,
    kl_adversarial_bound,
    kl_adversarial_exact,
    make_adversarial_cov,
    sample,
    sample_stack,
)
from .kernels import (
    KernelFamily,
    KernelSpec,
    ProductKernel,
    gram,
    lag_sum,
    spectral_sample,
)
from .lecam import (
    DEFAULT_N_GRID,
    KL_BUDGET,
    Estimator,
    ExperimentConfig,
    ExperimentReport,
    RateFit,
    RiskResult,
    build_pair,
    rate_fit,
    run_experiment,
)
from .spectral import gap_constant_partii, mmd2_spectral, verify_gap_partii

__version__ = "0.1.0"

__all__ = [
    "AdversarialPair",
    "BlockStats",
    "BlockStructure",
    "DEFAULT_N_GRID",
    "Dataset",
    "Estimator",
    "ExperimentConfig",
    "ExperimentReport",
    "GaussianMeasure",
    "Hsic2Decomposition",
    "KL_BUDGET",
    "KernelFamily",
    "KernelSpec",
    "ProductKernel",
    "RateFit",
    "RiskResult",
    "adversarial_hsic2",
    "block_stats",
    "block_stats_batch",
    "build_pair",
    "char_fn",
    "embedding_inner",
    "gap_constant_partii",
    "gram",
    "hsic2_gaussian",
    "hsic_nystrom",
    "hsic_nystrom_batch",
    "hsic_u",
    "hsic_v",
    "kl_adversarial_bound",
    "kl_adversarial_exact",
    "lag_sum",
    "landmark_picks",
    "lecam_bound",
    "make_adversarial_cov",
    "minimax_constant",
    "mmd2_gaussian",
    "mmd2_spectral",
    "rate_fit",
    "run_experiment",
    "sample",
    "sample_stack",
    "spectral_sample",
    "verify_gap_partii",
]
