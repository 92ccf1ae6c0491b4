"""Every refusal of the library, one row each: the call, the exception class
it must raise, and the parameter its message must name, as errors.py
promises.  The NaN rows hold the checks written as negated in-range tests,
which a NaN cannot pass."""

import hashlib
import math
import os
import tempfile

import pytest

from kfreelab import (
    CacheError,
    ChainConfig,
    DomainError,
    ForbiddenFamily,
    LabeledGraph,
    MuDelta,
    Partition,
    RegularizationParams,
    SizeError,
    avoidance_probability_exact,
    balanced_sizes,
    brute_force_ex,
    construct_regularized_hypergraph,
    dsets_tail_bound,
    enumerate_partitions,
    heuristic_threshold_probe,
    hypergeom_hoeffding,
    init_chain,
    is_r_colorable,
    load_census,
    m_r,
    miscolored_edges,
    mu_delta_closed_form,
    p_r,
    pair_index,
    pair_sum,
    run_census,
    summary_counts,
    t_ell,
    turan_graph,
)

NAN = math.nan
_PARAMS = RegularizationParams(1.0, 1, 0.1)
_PART3 = Partition(3, 2, (0, 0, 1))


def _load_census_text(body):
    """load_census of a file holding body and a valid checksum line."""
    payload = body.encode("ascii")
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "census.txt")
        with open(path, "wb") as fh:
            fh.write(payload + f"checksum={hashlib.sha256(payload).hexdigest()}\n".encode())
        return load_census(path)


REFUSALS = {
    # graph_core
    "pair_index self-loop": (lambda: pair_index(4, 2, 2), DomainError, "pair (2,2)"),
    "pair_index range": (lambda: pair_index(4, 1, 4), DomainError, "pair (1,4)"),
    "Partition r": (lambda: Partition(3, 0, (0, 0, 0)), DomainError, "r=0"),
    "enumerate_partitions n": (lambda: next(enumerate_partitions(0, 2)), DomainError, "n=0"),
    "enumerate_partitions r": (lambda: next(enumerate_partitions(3, 0)), DomainError, "r=0"),
    "is_r_colorable r": (lambda: is_r_colorable(LabeledGraph(3), 0), DomainError, "r=0"),
    "miscolored_edges n": (
        lambda: miscolored_edges(LabeledGraph(3), Partition(4, 2, (0, 0, 1, 1))),
        DomainError, "n=4",
    ),
    # sampler
    "ChainConfig r": (lambda: ChainConfig(n=5, r=1, m=0), DomainError, "r=1"),
    "ChainConfig m": (lambda: ChainConfig(n=5, r=2, m=-1), DomainError, "m=-1"),
    "ChainConfig burn_in": (
        lambda: ChainConfig(n=5, r=2, m=2, burn_in=-1), DomainError, "burn_in=-1",
    ),
    "init_chain chain_index": (
        lambda: init_chain(ChainConfig(n=5, r=2, m=2, chains=2), 2),
        DomainError, "chain_index=2",
    ),
    # census
    "run_census shards": (lambda: run_census(2, 2, shards=4), DomainError, "shards=4"),
    "pair_sum budget": (lambda: pair_sum(10**5, 2, 1), SizeError, "n=100000"),
    "load_census version": (
        lambda: _load_census_text("KFREE-CENSUS v0 n=1 r=1\n0,1,1,1,1,1\n"),
        CacheError, "census.txt",
    ),
    "load_census header": (
        lambda: _load_census_text("KFREE-CENSUS v1 n=one r=1\n0,1,1,1,1,1\n"),
        CacheError, "census.txt",
    ),
    "load_census row fields": (
        lambda: _load_census_text("KFREE-CENSUS v1 n=1 r=1\n0,1,1,1,1\n"),
        CacheError, "census.txt",
    ),
    "load_census row integers": (
        lambda: _load_census_text("KFREE-CENSUS v1 n=1 r=1\n0,1,1,1,1,x\n"),
        CacheError, "census.txt",
    ),
    "summary_counts n": (lambda: summary_counts(0, 2, 0), DomainError, "n=0"),
    "summary_counts m": (lambda: summary_counts(3, 2, 4), DomainError, "m=4"),
    # bounds
    "ForbiddenFamily ground_size": (
        lambda: ForbiddenFamily(-1, ()), DomainError, "ground_size=-1",
    ),
    "RegularizationParams dstar": (
        lambda: RegularizationParams(1.0, 0, 0.1), DomainError, "dstar=0",
    ),
    "avoidance_probability_exact m": (
        lambda: avoidance_probability_exact(ForbiddenFamily(3, ((0,),)), 4), DomainError, "m=4",
    ),
    "mu_delta_closed_form r": (
        lambda: mu_delta_closed_form(Partition(3, 1, (0, 0, 0)), LabeledGraph(3), 0.5),
        DomainError, "r=1",
    ),
    "mu_delta_closed_form n": (
        lambda: mu_delta_closed_form(_PART3, LabeledGraph(4), 0.5), DomainError, "n=4",
    ),
    "mu_delta_closed_form p": (
        lambda: mu_delta_closed_form(_PART3, LabeledGraph(3), 1.5), DomainError, "p=1.5",
    ),
    "dsets_tail_bound k": (
        lambda: dsets_tail_bound(0, 0.5, 0.5, (), 2), DomainError, "k=0",
    ),
    "hypergeom_hoeffding lam": (
        lambda: hypergeom_hoeffding(0.5, 1.0, 2), DomainError, "lam=1.0",
    ),
    "construct_regularized_hypergraph r": (
        lambda: construct_regularized_hypergraph([], _PARAMS, (3,)),
        DomainError, "class_sizes",
    ),
    "construct_regularized_hypergraph sizes": (
        lambda: construct_regularized_hypergraph([], _PARAMS, (3, 0)),
        DomainError, "class_sizes",
    ),
    "construct_regularized_hypergraph W": (
        lambda: construct_regularized_hypergraph([[[0]]], _PARAMS, (3, 3)),
        DomainError, "W[0]",
    ),
    "heuristic_threshold_probe n": (
        lambda: heuristic_threshold_probe(3, 4, 1.0), DomainError, "n=3",
    ),
    # turan
    "balanced_sizes r": (lambda: balanced_sizes(5, 0), DomainError, "r=0"),
    "turan_graph r": (lambda: turan_graph(5, 0), DomainError, "r=0"),
    "turan_graph n": (lambda: turan_graph(0, 2), DomainError, "n=0"),
    "brute_force_ex k": (lambda: brute_force_ex(LabeledGraph(3), 1), DomainError, "k=1"),
    # NaN is outside every domain
    "m_r nan": (lambda: m_r(NAN, 2), DomainError, "n=nan"),
    "p_r nan": (lambda: p_r(NAN, 2), DomainError, "n=nan"),
    "t_ell nan": (lambda: t_ell(NAN, 2), DomainError, "n=nan"),
    "MuDelta mu nan": (lambda: MuDelta(NAN, 0.0, 0.5), DomainError, "mu=nan"),
    "MuDelta delta nan": (lambda: MuDelta(0.0, NAN, 0.5), DomainError, "delta=nan"),
    "RegularizationParams c2 nan": (
        lambda: RegularizationParams(NAN, 1, 0.1), DomainError, "c2=nan",
    ),
    "mu_delta_closed_form p nan": (
        lambda: mu_delta_closed_form(_PART3, LabeledGraph(3), NAN), DomainError, "p=nan",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_raises_its_class_and_names_its_parameter(case):
    call, exc, name = REFUSALS[case]
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert name in str(info.value)
