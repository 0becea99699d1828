"""canalis: exact combinatorics of canalizing Boolean functions.

Counts the canalizing functions of n variables in closed form, evaluates
every class probability exactly at arbitrary rational bias, classifies
individual truth tables, samples random canalizing functions whose
conditional law is exact, and cross-validates all of it against an
exhaustive brute-force census at small n.
"""

from .exact_counts import (
    AsymptoticBounds,
    asymptotic_bounds,
    count_both_ways,
    count_canalizing,
    count_exact_k,
    scientific_string,
)
from .generator import (
    CanalizingGenerator,
    CategoryWeights,
    DrawRecord,
    GeneratorConfig,
    RejectionLimitExceeded,
    category_weights,
    generate,
    sample_category,
)
from .limits import RangeError
from .oracle import (
    ClassCensus,
    census_to_json,
    class_prob_from_census,
    deep_count_n5,
    enumerate_classify,
    prob_from_census,
)
from .probability import (
    ProbBreakdown,
    decimal_string,
    parse_bias,
    prob_both_ways,
    prob_breakdown,
    prob_canalizing,
    prob_canalizing_on_block,
    prob_exactly_k,
)
from .truth_table import (
    CanalizingProfile,
    TruthTable,
    classify,
    from_hex,
    is_canalizing,
    is_canalizing_on,
    make_table,
    to_hex,
    variable_mask,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "RangeError",
    "TruthTable",
    "CanalizingProfile",
    "make_table",
    "from_hex",
    "to_hex",
    "variable_mask",
    "classify",
    "is_canalizing",
    "is_canalizing_on",
    "count_canalizing",
    "count_exact_k",
    "count_both_ways",
    "AsymptoticBounds",
    "asymptotic_bounds",
    "scientific_string",
    "parse_bias",
    "prob_canalizing",
    "prob_both_ways",
    "prob_canalizing_on_block",
    "prob_exactly_k",
    "ProbBreakdown",
    "prob_breakdown",
    "decimal_string",
    "GeneratorConfig",
    "CategoryWeights",
    "DrawRecord",
    "category_weights",
    "sample_category",
    "generate",
    "CanalizingGenerator",
    "RejectionLimitExceeded",
    "ClassCensus",
    "enumerate_classify",
    "prob_from_census",
    "class_prob_from_census",
    "census_to_json",
    "deep_count_n5",
]
