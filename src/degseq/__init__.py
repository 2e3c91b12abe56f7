"""Degree-sequence regions: graphicality, exact realization counts,
split-graph witnesses, and switch-chain sampling."""

from .core import (
    DegreeSequence,
    LabeledGraph,
    PerturbationKind,
    Region,
    SimpleRegion,
    VerySimpleRegion,
    edges_to_text,
    iter_region,
    membership,
    parse_region,
)
from .enumeration import (
    CountResult,
    PerturbationFamilyCount,
    RealizationCounter,
    bumped_staircase_sequence,
    count_realizations,
    count_staircase_family,
    default_counter,
    enumerate_realizations,
    family_count,
    p_measure,
    staircase_sequence,
    verify_family_bounds,
)
from .errors import (
    ConstructionError,
    DegseqError,
    InvalidInput,
    InvalidRegion,
    MissingSigma,
    NegativeDegree,
    NotGraphic,
    NotSplit,
    TooLarge,
)
from .graphicality import (
    EGReport,
    RegionPredicate,
    is_graphic,
    is_graphic_tv,
    jms_star_sigma_margin,
    leg,
    region_fully_graphic,
    region_satisfies_stability_bound,
    require_graphic,
    satisfies_stability_bound,
    sweep,
    very_simple_region_fully_graphic,
)
from .mcmc import (
    ChainConfig,
    SampleResult,
    havel_hakimi_graph,
    make_rng,
    sample,
    switch_connected,
    tv_distance_to_uniform,
)
from .splitgraph import (
    MultiplicativityReport,
    NonstabilityWitness,
    SplitGraph,
    SplitVerdict,
    SplitWitness,
    hs_index,
    is_split_sequence,
    nonstability_witness,
    split_witness,
    tyshkevich_compose,
    verify_multiplicativity,
)

__version__ = "0.1.0"
