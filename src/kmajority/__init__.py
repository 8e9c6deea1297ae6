"""Constructive 1/k-majority (k+1)-edge-colourings of graphs.

An edge colouring is 1/k-majority when every colour appears on at most
floor(d(v)/k) of the edges at each vertex v.  This package builds such
colourings with k+1 colours under the minimum-degree guarantees of four
constructive schemes, verifies them exactly, reproduces the matching
lower-bound instances, and falls back to an exhaustive oracle at desk scale.
"""

from .colouring import EdgeColouring, MajorityVerdict, check_majority
from .errors import (
    BuildError,
    FormatError,
    InputError,
    InternalInvariantError,
    KMajorityError,
    PreconditionError,
    SelectorExhaustedError,
)
from .eulersplit import BLUE, RED, Bicolouring, balanced_bicolouring
from .graph import Graph, build_graph, is_bipartite
from .graphio import (
    format_colouring,
    format_graph,
    parse_colouring,
    parse_graph,
    read_colouring,
    read_graph,
    write_colouring,
    write_graph,
)
from .instances import (
    SearchOutcome,
    bipartite_lower_bound,
    exhaustive_search,
    general_lower_bound,
    random_min_degree_graph,
)
from .reductions import (
    LiftTrace,
    pull_back_colouring,
    raise_to_sk,
    sk_degrees,
    split_high_degree,
)
from .rounding import RoundingResult, round_weights
from .schemes import (
    SCHEMES,
    RoundStat,
    Scheme,
    SchemeReport,
    colour_auto,
    colour_bipartite,
    colour_general_2k2,
    colour_refined,
    colour_sk_graph,
    colour_small_k,
    eliminate_bad_components,
    general_alphas,
    refined_parameters,
)

__version__ = "0.1.0"
