"""Multilevel determinantal ensembles on finite grids.

Weighted biorthogonal dual bases, block kernels, Fredholm determinants and
resolvents, correlation densities, Janossy densities of arbitrary weight
sets, count statistics, an exhaustive enumeration oracle, and a Metropolis sampler. The headline check:
the Fredholm resolvent of the checked kernel composed with any weight set w
coincides with the checked kernel of the (1 - w)-dualized construction, to
machine precision on every discretized instance.
"""

from .biortho import (
    DualBases,
    PairingDecomposition,
    dual_bases,
    pairing_expressions,
    pairing_matrix,
    plu_decompose,
)
from .chain import (
    ChainSpec,
    ChainTables,
    WeightSet,
    from_indicators,
    from_tables,
    indicator_vector,
    tabulate,
)
from .errors import (
    CompositionInconsistency,
    DegenerateBasis,
    DetchainError,
    DuplicateNode,
    InvalidInterval,
    InvalidWeight,
    NotAProbability,
    OverlapError,
    ShapeError,
    SignedDensityError,
    SingularPairing,
    StateError,
)
from .fredholm import (
    CountDistribution,
    IdentityResiduals,
    correlation,
    fredholm_det,
    g_resolvent_residual,
    gap_generating_function,
    janossy,
    resolvent,
    theorem2_residuals,
)
from .kernels import (
    BlockKernel,
    Dualization,
    build_K,
    build_g,
    check_kernel,
    compose_w,
    dualize,
    factorization_residual,
    kernel_via_inverse,
)
from .measure import Grid, integrate, make_discrete_grid, make_gauss_legendre_grid
from .oracle import (
    Enumeration,
    enumerate_configurations,
    oracle_correlation,
    oracle_counts,
    oracle_gap,
    oracle_janossy,
)
from .sampler import Configuration, SamplerConfig, configuration_weight, empirical_gap, sample

__version__ = "0.1.0"

__all__ = [
    "BlockKernel",
    "ChainSpec",
    "ChainTables",
    "CompositionInconsistency",
    "Configuration",
    "CountDistribution",
    "DegenerateBasis",
    "DetchainError",
    "DualBases",
    "Dualization",
    "DuplicateNode",
    "Enumeration",
    "Grid",
    "IdentityResiduals",
    "InvalidInterval",
    "InvalidWeight",
    "NotAProbability",
    "OverlapError",
    "PairingDecomposition",
    "SamplerConfig",
    "ShapeError",
    "SignedDensityError",
    "SingularPairing",
    "StateError",
    "WeightSet",
    "build_K",
    "build_g",
    "check_kernel",
    "compose_w",
    "configuration_weight",
    "correlation",
    "dual_bases",
    "dualize",
    "empirical_gap",
    "enumerate_configurations",
    "factorization_residual",
    "fredholm_det",
    "from_indicators",
    "from_tables",
    "g_resolvent_residual",
    "gap_generating_function",
    "indicator_vector",
    "integrate",
    "janossy",
    "kernel_via_inverse",
    "make_discrete_grid",
    "make_gauss_legendre_grid",
    "oracle_correlation",
    "oracle_counts",
    "oracle_gap",
    "oracle_janossy",
    "pairing_expressions",
    "pairing_matrix",
    "plu_decompose",
    "resolvent",
    "sample",
    "tabulate",
    "theorem2_residuals",
]
