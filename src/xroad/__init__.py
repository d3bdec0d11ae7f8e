"""Outage and throughput of a wireless link near a road intersection.

Interference comes from Poisson fields of transmitters on two perpendicular
roads; the package evaluates the link's outage probability both in closed
analytic form (Laplace-transform machinery) and by Monte-Carlo simulation,
and ships a CLI for parameter sweeps.
"""

__version__ = "0.1.0"

from .analytic import (AnalyticResult, ConsistencyError, QuadratureError,
                       outage_probability)
from .model import (LOS, NLOS, ChannelParams, DestinationGeometry, Lane,
                    LinkSpec, RoadLayout, Scenario, ValidationError,
                    destination_position, validate_scenario)
from .montecarlo import OutageEstimate, SimConfig, estimate
from .sweep import (ComparisonReport, SweepRow, SweepSpec, Variant,
                    compare_engines, default_verification_grid, run_sweep,
                    write_csv)

__all__ = [
    "__version__",
    "AnalyticResult", "ChannelParams", "ComparisonReport", "ConsistencyError",
    "DestinationGeometry", "LOS", "Lane", "LinkSpec", "NLOS",
    "OutageEstimate", "QuadratureError", "RoadLayout", "Scenario",
    "SimConfig", "SweepRow", "SweepSpec", "ValidationError", "Variant",
    "compare_engines", "default_verification_grid", "destination_position",
    "estimate", "outage_probability", "run_sweep", "validate_scenario",
    "write_csv",
]
