"""Spectral generalization-bound auditing for small dense networks."""

from .matcore import (
    MatCoreError,
    ShapeError,
    InvalidParameterError,
    NotFiniteError,
    RankDeficientError,
    singular_values,
    rank_tolerance,
    pq_norm,
)
from .kernels import (
    KernelDivergenceError,
    kernel_trace_bound,
    sobolev_kernel,
    sobolev_gram,
    gaussian_head_norm,
)
from .network import (
    ValidationError,
    Identity,
    SmoothLeakyRelu,
    CustomActivation,
    GaussianHead,
    SoftmaxHead,
    CustomHead,
    LayerSpec,
    NetworkSpec,
    default_smoothness,
)
from .bounds import (
    VariantInapplicable,
    NotBiLipschitzError,
    BoundConstants,
    density_ratio_bound,
    koopman_layer_factor,
    g_factor_gaussian,
    activation_opnorm_bound,
    default_constants,
    BoundReport,
    full_report,
)
from .diagnostics import (
    SpectrumLog,
    snapshot,
)
from .trainer import (
    DivergenceError,
    TrainConfig,
    TrainRun,
    Dataset,
    make_synthetic,
    load_digits,
    build_network,
    train,
    forward,
    loss_and_grads,
    regularizer_synthetic,
    regularizer_perlayer,
)
from .rademacher import (
    InfeasibleClassError,
    FunctionClassSpec,
    sample_networks,
    empirical_rademacher_lower,
    empirical_rademacher_lower_by_depth,
    class_upper_bound,
)
from .weightio import WeightFileError, save_weights, load_weights

__version__ = "0.1.0"
