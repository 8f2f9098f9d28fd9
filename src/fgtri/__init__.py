"""Fine-grained triangle reductions: instances, oracles, fast solvers,
randomized reduction pipelines, and product reductions, all seeded and
exactly verifiable at desk scale."""

import os as _os

# One BLAS thread unless the caller set a count, before numpy loads: extra
# BLAS workers stall ``ae_mono_triangle_fast`` in some processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .instances import (ColoredValuedGraph, IntMatrix, MINUS_INF, PLUS_INF,
                        SetFamilyInstance, TripartiteWeightedGraph)
from .rng import RngStream
from .generators import (balanced_split, generate_colored, generate_matrix,
                         generate_set_family, generate_sparse_tripartite,
                         generate_tripartite)
from .textio import ParseError, parse, parse_documents, serialize
from .oracles import (DISJOINTNESS, EXISTS_DOM, EXISTS_EQ, INTERSECTION,
                      MAX_LE, MAX_MIN, MIN_EQ, MIN_LE, MIN_WITNESS, MONO_EQ,
                      MONO_KINDS, MONO_MIN_EQ, MONO_MIN_LE, PRODUCT_KINDS,
                      ae_mono_triangle_bf, ae_monoeq_triangle_bf,
                      ae_sparse_triangle_bf, exact_triangle_bf,
                      mono_product_bf, product_bf, set_queries_bf,
                      triangle_list_bf, triangle_weight_sum, zero_triangle_bf)
from .fast_solvers import ae_mono_triangle_fast, ae_sparse_triangle_fast
from .zero_triangle import (ClaimStatistics, RandomizationData, RangeSplit,
                            SubinstanceReport, build_subinstance, ceil_log2,
                            claim_statistics, default_degree_cap,
                            default_global_cap, default_per_edge_cap,
                            default_trials, draw_randomization,
                            enumerate_zero_triples, is_prime,
                            pick_prime, randomize_weights,
                            zero_triangle_via_listing)
from .witness_listing import (listing_via_detection, listing_via_unique,
                              seeded_listing_via_detection,
                              unique_listing_via_detection)
from .monoeq import (CASE_BLOWN_PART, CASE_TAGS, CASE_VALUE_SIDES,
                     CombinedMonoInstance, ExpandedCase, case_of,
                     combine_sparse_into_mono, expand_values,
                     solve_ae_monoeq, solve_combined, split_cases)
from .products import (exists_dom_via_min_le, exists_eq_via_min_eq,
                       max_le_via_monoeq, max_min_product, min_eq_via_monoeq,
                       min_le_via_monoeq, min_witness_via_max_min,
                       mono_eq_via_mono_min_eq, mono_min_eq_via_mono_eq,
                       mono_min_le_via_monoeq)
from .setfam import (SetDecodeMap, listing_to_set_intersection,
                     sparse_triangle_to_set_disjointness)

__all__ = [name for name in dir() if not name.startswith("_")]
