"""Exact construction and certification of strongly rigid metrics.

A metric is strongly rigid when no positive distance value is attained by two
different point pairs.  This package perturbs a given finite rational metric
within any requested sup-distance budget into one whose distances are even
pairwise linearly independent over the rationals, with machine-checkable
certificates, and ships exhaustive verification oracles for the properties
involved (metric axioms, strict triangle, strong rigidity, rigidity, distance
injectivity).
"""

from .coded import (
    CodedReal,
    Enclosure,
    ExponentSchedule,
    coded_sum,
    compare,
    equals,
    gamma,
)
from .enumeration import rational_at, index_of, first_hit_index
from .errors import DomainError, PrecisionError, ResourceError, UnresolvedComparison
from .intervals import IntervalSet
from .metric import FiniteMetric
from .registry import ValueRegistry
from .rigidify import perturb_strongly_rigid, snap_to_grid
from .product import (
    SemiMetricGauge,
    find_separating_prefix,
    pair_encode,
    prism,
    rho,
    sigma,
    tau,
)
from .glue import (
    Partition,
    amalgamate,
    partition_by_diameter,
    rigidify_full,
    sup_bound_check,
)
from .verify import (
    Report,
    distance_embedding_check,
    is_metric,
    is_rigid,
    is_strict_triangle,
    is_strongly_rigid,
    isometry_group,
    lnm_membership,
    sup_distance,
)

__all__ = [
    "CodedReal",
    "DomainError",
    "Enclosure",
    "ExponentSchedule",
    "FiniteMetric",
    "IntervalSet",
    "Partition",
    "PrecisionError",
    "Report",
    "ResourceError",
    "SemiMetricGauge",
    "UnresolvedComparison",
    "ValueRegistry",
    "amalgamate",
    "coded_sum",
    "compare",
    "distance_embedding_check",
    "equals",
    "find_separating_prefix",
    "first_hit_index",
    "gamma",
    "index_of",
    "is_metric",
    "is_rigid",
    "is_strict_triangle",
    "is_strongly_rigid",
    "isometry_group",
    "lnm_membership",
    "pair_encode",
    "partition_by_diameter",
    "perturb_strongly_rigid",
    "prism",
    "rational_at",
    "rho",
    "rigidify_full",
    "sigma",
    "snap_to_grid",
    "sup_bound_check",
    "sup_distance",
    "tau",
]
