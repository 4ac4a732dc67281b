"""The paper's contribution: coverage sketches and streaming algorithms."""

from repro.core.ensemble import EnsembleKCover, SketchEnsemble
from repro.core.hashing import HashFamily, TabulationHash, UniformHash, make_hash
from repro.core.kcover import StreamingKCover, default_kcover_params
from repro.core.l0 import (
    KMVSketch,
    L0CoverageOracle,
    kmv_size_for_epsilon,
    l0_exhaustive_k_cover,
    l0_greedy_k_cover,
)
from repro.core.lowerbound import (
    BoundedMemoryOneCover,
    DisjointnessInstance,
    disjointness_stream,
    evaluate_bounded_memory_protocol,
)
from repro.core.oracle import (
    NoisyCoverageOracle,
    PurificationCoverageOracle,
    oracle_greedy_k_cover,
    purification_to_kcover_instance,
)
from repro.core.params import SketchParams
from repro.core.purification import (
    KPurificationInstance,
    PurificationOracle,
    SearchOutcome,
    adaptive_greedy_search,
    query_lower_bound,
    random_subset_search,
)
from repro.core.setcover import StreamingSetCover, outlier_rate_for_passes
from repro.core.setcover_outliers import (
    GuessOutcome,
    StreamingSetCoverOutliers,
    check_guess,
    guess_schedule,
)
from repro.core.sketch import (
    CoverageSketch,
    apply_degree_cap,
    build_h_leq_n,
    build_hp,
    build_hp_prime,
)
from repro.core.streaming_sketch import StreamingSketchBuilder

__all__ = [
    "EnsembleKCover",
    "SketchEnsemble",
    "HashFamily",
    "TabulationHash",
    "UniformHash",
    "make_hash",
    "SketchParams",
    "CoverageSketch",
    "apply_degree_cap",
    "build_h_leq_n",
    "build_hp",
    "build_hp_prime",
    "StreamingSketchBuilder",
    "StreamingKCover",
    "default_kcover_params",
    "StreamingSetCoverOutliers",
    "GuessOutcome",
    "check_guess",
    "guess_schedule",
    "StreamingSetCover",
    "outlier_rate_for_passes",
    "NoisyCoverageOracle",
    "PurificationCoverageOracle",
    "oracle_greedy_k_cover",
    "purification_to_kcover_instance",
    "KPurificationInstance",
    "PurificationOracle",
    "SearchOutcome",
    "adaptive_greedy_search",
    "query_lower_bound",
    "random_subset_search",
    "KMVSketch",
    "L0CoverageOracle",
    "kmv_size_for_epsilon",
    "l0_exhaustive_k_cover",
    "l0_greedy_k_cover",
    "BoundedMemoryOneCover",
    "DisjointnessInstance",
    "disjointness_stream",
    "evaluate_bounded_memory_protocol",
]
