"""Kernel independence toolkit.

Closed-form HSIC and MMD for Gaussian measures under Gaussian product
kernels, the classical sample estimators (V-statistic, U-statistic, Nystrom
cross-covariance norm), spectral Monte Carlo oracles, and a two-point
minimax experiment harness with a command-line front end.
"""

from .analytic import (
    Hsic2Decomposition,
    adversarial_hsic2,
    critical_slope,
    embedding_inner,
    f_c,
    hsic2_gaussian,
    lecam_bound,
    minimax_constant,
    mmd2_gaussian,
)
from .data import BlockStructure, Dataset
from .estimators import (
    BlockStats,
    block_stats,
    hsic_nystrom,
    hsic_u,
    hsic_v,
    nystrom_cross_cov,
)
from .gaussian import (
    AdversarialPair,
    GaussianMeasure,
    char_fn,
    kl_adversarial_bound,
    kl_adversarial_exact,
    kl_gaussians,
    make_adversarial_cov,
    sample,
)
from .kernels import (
    KernelFamily,
    KernelSpec,
    ProductKernel,
    eval_kernel,
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
    risk_sim,
    run_experiment,
)
from .spectral import GapCertificate, gap_constant_partii, mmd2_spectral, verify_gap_partii

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
    "GapCertificate",
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
    "build_pair",
    "char_fn",
    "critical_slope",
    "embedding_inner",
    "eval_kernel",
    "f_c",
    "gap_constant_partii",
    "gram",
    "hsic2_gaussian",
    "hsic_nystrom",
    "hsic_u",
    "hsic_v",
    "kl_adversarial_bound",
    "kl_adversarial_exact",
    "kl_gaussians",
    "lag_sum",
    "lecam_bound",
    "make_adversarial_cov",
    "minimax_constant",
    "mmd2_gaussian",
    "mmd2_spectral",
    "nystrom_cross_cov",
    "rate_fit",
    "risk_sim",
    "run_experiment",
    "sample",
    "spectral_sample",
    "verify_gap_partii",
]
