"""List-decodability toolkit for binary Hamming and rank-metric codes.

Constructs random, potential-guided and resampled codes, certifies their
(p, L)-list-decodability exactly at desk scale, and exposes the volume,
tail-statistic and second-moment calculators behind those experiments.
"""

from .counting import (
    binary_entropy,
    binomial,
    check_rank_ball_bounds,
    check_volume_bounds,
    entropy_power,
    gaussian_binomial,
    hamming_volume,
    intersection_volume,
    log2_fraction,
    overlap_decay,
    rank_ball_size,
)
from .constructors import (
    CodeTable,
    LLLReport,
    MoserTardosResult,
    PotentialTrace,
    lll_condition,
    moser_tardos_construct,
    potential_guided_code,
    random_linear_code,
    uniform_random_code,
)
from .errors import (
    ConstructionError,
    InvalidParameterError,
    PrecisionError,
    ResourceLimitError,
)
from .gf2 import BitMatrix, BitVector, Rng
from .listsize import (
    Certificate,
    EnvelopeTrace,
    LinearCode,
    ListProfile,
    PotentialState,
    StepReport,
    certify,
    check_potential_step,
    check_tail_bound,
    envelope_trace,
    list_profile,
    list_size_table,
    max_envelope_steps,
    potential,
    tail_stats,
)
from .rankmetric import (
    RankCode,
    RankParams,
    certify_rank,
    check_rank_potential_step,
    enumerate_rank_ball,
    random_linear_rank_code,
)
from .secondmoment import (
    ball_fraction,
    check_rank_rate_bound,
    expected_cluster_count,
    lower_bound_params,
    pair_event_probability,
    separation_experiment,
)

__version__ = "0.1.0"
