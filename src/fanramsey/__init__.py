"""Ramsey numbers of fans versus stars: constructions, searches, and verifiers."""

from .bigraphic import (
    BigraphicCheck,
    DegreePairSpec,
    IntervalRealizationParams,
    is_bigraphic,
    realize_bigraphic,
    realize_interval,
)
from .constructions import (
    ConstructionParams,
    DiracThreshold,
    chromatic_lower,
    dirac_threshold,
    fan_turan_number,
    star_fan_lower,
    star_fan_lower_special,
    turan_lower,
)
from .errors import (
    FanExtensionError,
    FanRamseyError,
    ParseError,
    SizeGuardError,
    UnsupportedRangeError,
)
from .fans import (
    FanExtensionInstance,
    FanWitness,
    fan_extend,
    find_extension_matching,
    find_fan,
    find_mono_fan,
    high_degree_fan,
    max_blue_star,
    multipartite_matching,
    multipartite_matching_bound,
    validate_fan_witness,
)
from .graphs import (
    BLUE,
    EDGELIST,
    GRAPH6,
    RED,
    Graph,
    MultipartiteSpec,
    TwoColoring,
    build_complete_multipartite,
    complement,
    graph6_decode,
    graph6_encode,
    induced,
    opposite,
    read_coloring,
    read_graph,
    write_coloring,
    write_graph,
)
from .matching import (
    EGNeighborhoodReport,
    EGPartition,
    Matching,
    VertexCover,
    edmonds_gallai,
    eg_neighborhood_structure,
    konig_cover,
    matching_number,
    max_matching,
)
from .ramsey import (
    Claim,
    FormulaResult,
    RamseySearchResult,
    WitnessReport,
    brute_force_ramsey,
    fan_ramsey_bounds,
    star_fan_formula,
    target_name,
    verify_fan_fan_witness,
    verify_star_fan_witness,
)

__version__ = "0.1.0"
