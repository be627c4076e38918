"""toricfan: unimodular fans, smooth toric manifold data, and the
gradient-like torus flows that classify their limit strata."""

from .cone import Cone, RayTable, faces, contains, intersect, make_cone, make_table, relative_interior_contains
from .errors import ToricFanError
from .fan import (
    Fan,
    FacetReport,
    SimplicialComplex,
    ValidationReport,
    fans_equal,
    is_complete_facet,
    is_complete_raycast,
    make_fan,
    sigma,
    star_subdivide,
    support_contains,
    validate,
)
from .flow import (
    ChartPoint,
    Direction,
    LimitReport,
    TrajectorySegment,
    chart_point,
    curve_point,
    direction,
    integrate,
    limit_report,
    limit_stratum,
    limit_verdict,
    track,
    verify_limit,
)
from .library import builtin_fan, cp1, cpn, hirzebruch
from .toric import (
    MonomialMap,
    QuotientPresentation,
    WeightBasis,
    WeightData,
    fan_from_weight_data,
    fixed_points,
    isotropy_weights,
    quotient_presentation,
    transition,
    weight_data_from_fan,
)

__version__ = "0.1.0"
