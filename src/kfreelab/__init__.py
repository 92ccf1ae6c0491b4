"""Desk-scale laboratory for clique-free graphs near the colorability
threshold: exact census, MCMC sampling, closed-form thresholds, and
numerically verified probability bounds."""

__version__ = "0.1.0"

from .census import (
    CensusRow,
    CensusTable,
    fraction_rpartite,
    load_census,
    pair_sum,
    run_census,
    save_census,
)
from .errors import (
    CacheError,
    DomainError,
    InfeasibleError,
    KfreeError,
    SizeError,
    UndefinedFractionError,
)
from .graph_core import (
    LabeledGraph,
    Partition,
    contains_clique,
    enumerate_partitions,
    is_r_colorable,
    miscolored_edges,
)
from .bounds import (
    DsetsBound,
    ForbiddenFamily,
    MuDelta,
    RegularizationParams,
    avoidance_probability_exact,
    construct_regularized_hypergraph,
    dsets_tail_bound,
    family_from_json,
    family_to_json,
    fkg_lower,
    heuristic_threshold_probe,
    hypergeom_hoeffding,
    janson_upper,
    krminus_family,
    mu_delta_closed_form,
    mu_delta_exact,
)
from .sampler import (
    ChainConfig,
    ChainRecord,
    ChainState,
    EstimateResult,
    estimate_from,
    estimate_rpartite,
    init_chain,
    retained_samples,
    run_chains,
    run_steps,
    tv_diagnostic,
)
from .thresholds import m_r, p_r, t_ell, theta
from .turan import (
    MultipartiteHost,
    balanced_sizes,
    brute_force_ex,
    ex_multipartite,
    ex_turan,
    extremal_multipartite_graph,
    turan_graph,
)

__all__ = [name for name in dir() if not name.startswith("_")]
