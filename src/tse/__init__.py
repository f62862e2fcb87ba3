"""Probabilities, truncated moments and tail risk for selection-elliptical
distributions with normal and Student-t kernels."""

from .elliptical import (
    EllipticalJoint,
    RectangleProbSettings,
    TruncationBox,
    conditional,
    density,
    log_density,
    mahalanobis,
    marginal,
    normal_joint,
    nu_factor,
    rectangle_prob,
    student_joint,
    univariate_cdf,
    univariate_quantile,
)
from .errors import (
    MomentNotDefinedError,
    NumericalError,
    RejectionInfeasibleError,
    SpecError,
    TseError,
)
from .truncated import (
    ExistenceFlags,
    MomentReport,
    existence_check,
    moment_flags,
    tmvn_mean_cov,
    tmvn_product_moment,
    tmvt_mean_cov,
    truncated_mean_cov,
)
from .selection import (
    LimitingTParams,
    SelectionSpec,
    SutParams,
    affine_outcome,
    box_mass,
    build_selection,
    esn_pdf,
    est_pdf,
    limiting_t,
    marginal_outcome,
    se_logpdf,
    se_pdf,
    selection_probability,
    sn_pdf,
    st_pdf,
    sut_existence,
    tse_mean_cov,
    tse_moment,
)
from .censored import CensoredFactor, censored_factor, censored_factor_conditional
from .risk import (
    RiskDecomposition,
    SumDistParams,
    mtce,
    mtce_at_level,
    quantile_upper,
    sum_distribution,
    survival,
    tce,
    tce_sum_decomposed,
)
from .oracle import (
    MomentEstimate,
    SampleBatch,
    estimate_mean_cov,
    estimate_moments,
    sample_se,
    sample_se_rejection,
    sample_truncated_gibbs,
)

__version__ = "0.1.0"
