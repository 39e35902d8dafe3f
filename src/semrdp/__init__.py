"""Rate-distortion-perception tradeoff for an indirectly observed binary
semantic source with side information at encoder and decoder.

Closed forms, a branch-decomposed numerical program, an exact
decoder oracle, and Monte Carlo coding experiments, all checking each
other.
"""

from .coding_simulator import (
    TrialConfig,
    TrialReport,
    apply_decoder,
    derive_seed,
    random_binning_trial,
    run_decoder_trials,
    sample_block,
)
from .errors import (
    DegenerateChannelError,
    DomainError,
    HypothesisError,
    InfeasibleError,
    LabelError,
    ResourceLimitError,
    SemRdpError,
)
from .probability_core import (
    ChainRuleTerms,
    JointDistribution,
    binary_entropy,
    chain_rule_decomposition,
    conditional_entropy,
    conditional_mutual_information,
    ternary_entropy,
)
from .rdpf_closed_form import (
    closed_form_rate,
    rdf_pi,
    rdpf_pi,
    rdpf_piecewise,
)
from .rdpf_solver import (
    DecoderLaw,
    DecoderMetrics,
    SolverResult,
    evaluate_decoder,
    oracle_min_rate,
    solve_min2,
)
from .semantic_model import (
    SemanticModel,
    build_model,
    dsbs_model,
)

__version__ = "0.1.0"
