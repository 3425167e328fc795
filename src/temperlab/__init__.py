"""Simulated-tempering Langevin sampling for translated mixtures, plus a
finite-chain laboratory for the variance-decomposition bounds behind it."""

from .oracles import (
    AdversarialTwoGaussian,
    BaseFunction,
    DensityOracle,
    DimensionMismatch,
    FunctionOracle,
    MixtureOracle,
    MixtureTarget,
    PartitionUnavailable,
    Perturbation,
    PerturbedOracle,
    adversarial_bump_h,
    adversarial_bump_h_prime,
    gaussian_log_partition,
    mixture_grad,
    mixture_log_density,
    mixture_log_density_many,
)
from .ladder import (
    PartitionCheck,
    RunParams,
    ScheduleConstants,
    TemperatureLadder,
    build_ladder_gaussian,
    build_ladder_logconcave,
    validate_partition_estimates,
)
from .sampler import (
    EstimationFailure,
    MainResult,
    NonFiniteGradient,
    RngStream,
    RunRecord,
    SwapStats,
    draw_swap_times,
    estimate_partition_ratio,
    langevin_step,
    run_main,
    run_plain_langevin,
    run_stlmc,
    substep_schedule,
    swap_attempt,
)
from .divergences import (
    INFINITY,
    CheckReport,
    NormalizationError,
    QuadratureGrid,
    check_partition_ratio_bound,
    check_temp_scaling_bounds,
    chi2_gaussian,
    chi2_numeric,
    kl_mixture_upper_bound_check,
    kl_numeric,
)
from .decomposition import (
    CanonicalPathSet,
    DecompositionReport,
    FiniteMarkovProcess,
    ReducibleChainError,
    SimpleInstance,
    TemperingInstance,
    build_projected_chain,
    build_tempering_chain,
    chi2_discrete,
    congestion_bound,
    dirichlet_form,
    discretize_density,
    geodesic_paths,
    instance_hash,
    mixture_chain,
    overlap_discrete,
    poincare_constant,
    random_simple_instance,
    random_tempering_instance,
    verify_simple_decomposition,
    verify_tempering_decomposition,
)
from .diagnostics import (
    AutocorrEstimate,
    HistogramEstimate,
    empirical_tv,
    integrated_autocorr,
    mode_masses,
)
from .fixtures import (
    Fixture,
    FixtureError,
    builtin_fixture_names,
    get_fixture,
    target_from_dict,
)

__version__ = "0.1.0"
