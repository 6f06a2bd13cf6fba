"""Exact singlet spin correlations, a local hidden-variable sampler, and a
CHSH experiment harness with reproducible counter-based randomness."""

__version__ = "0.1.0"

from .harness import (
    CHSH_SIGNS,
    ChshReport,
    PairResult,
    SettingSeries,
    canonical_settings,
    estimate_correlation,
    run_chsh,
    run_pairs,
    run_series,
    run_transfer_baseline,
    transfer_correlation_analytic,
)
from .hidden import (
    HIDDEN_ANGLE,
    partition_measures,
    sample_phi,
    sample_singlet_batch,
    single_electron_correlation,
    singlet_correlation_analytic,
)
from .quantum import (
    CHANNEL_EIGENVALUES,
    CHANNEL_OUTCOMES,
    BlochDirection,
    channel_states,
    channel_weights,
    correlation_exact,
    correlations_exact,
    decompose_eigenbasis,
    decompose_intermediate,
    joint_projection,
    product_states,
    singlet,
    spin_eigenbasis,
    spin_projection,
)
from .streams import substream

__all__ = [
    "__version__",
    "BlochDirection",
    "CHANNEL_EIGENVALUES",
    "CHANNEL_OUTCOMES",
    "CHSH_SIGNS",
    "ChshReport",
    "HIDDEN_ANGLE",
    "PairResult",
    "SettingSeries",
    "canonical_settings",
    "channel_states",
    "channel_weights",
    "correlation_exact",
    "correlations_exact",
    "decompose_eigenbasis",
    "decompose_intermediate",
    "estimate_correlation",
    "joint_projection",
    "partition_measures",
    "product_states",
    "run_chsh",
    "run_pairs",
    "run_series",
    "run_transfer_baseline",
    "sample_phi",
    "sample_singlet_batch",
    "single_electron_correlation",
    "singlet",
    "singlet_correlation_analytic",
    "spin_eigenbasis",
    "spin_projection",
    "substream",
    "transfer_correlation_analytic",
]
