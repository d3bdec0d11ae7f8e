"""Domain types and geometry for the intersection interference model.

Two infinite perpendicular roads (X horizontal, Y vertical) cross at the
origin.  Interfering vehicles form independent 1D homogeneous Poisson point
processes on each lane and transmit with slotted-Aloha probability p.  The
destination D sits at distance d from the intersection at angle theta from
the X road; the source S enters only through the link distance r.

Both engines see a lane only from D, as Scenario.lanes() maps it: D's
distance h to the lane line, D's coordinate c along it, and its intensity.
An interferer at along-lane coordinate u is sqrt((u - c)^2 + h^2) from D,
whether D is on a road (theta = 0, a vehicle) or off it (a road-side unit).

All types are frozen dataclasses: once validated they are immutable and can
be shared freely across worker processes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple


class ValidationError(ValueError):
    """Raised by validate_scenario with every violated invariant listed."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class Lane(NamedTuple):
    """One lane as seen from the destination D (see Scenario.lanes)."""

    h: float          # distance from D to the lane line, m
    c: float          # D's coordinate along the lane, m
    intensity: float  # vehicles/m


@dataclass(frozen=True)
class ChannelParams:
    """Fading and path-loss environment of the S-to-D link.

    alpha is the path-loss exponent, m the (integer) shape of the
    gamma-distributed signal power fade, mu its mean.  Interferer links are
    always Rayleigh (unit-mean exponential power fades).
    """

    alpha: float
    m: int
    mu: float = 1.0


#: Suburban line-of-sight preset.
LOS = ChannelParams(alpha=2.0, m=3, mu=1.0)
#: Urban non-line-of-sight preset.
NLOS = ChannelParams(alpha=4.0, m=1, mu=1.0)

CHANNEL_PRESETS = {"LOS": LOS, "NLOS": NLOS}

#: Largest Nakagami m the analytic engine evaluates.
MAX_M = 100


@dataclass(frozen=True)
class DestinationGeometry:
    """Polar position of the destination relative to the intersection.

    theta = 0 puts D on the X road (vehicle-to-vehicle); theta > 0 places it
    off the road (vehicle-to-infrastructure).  Restricted to the first
    quadrant; the two-road layout is symmetric under reflection.
    """

    d: float            # meters from the intersection point
    theta: float = 0.0  # radians in [0, pi/2]


@dataclass(frozen=True)
class LinkSpec:
    """The S-to-D link, parameterized by its scalar separation r (meters)."""

    r: float


@dataclass(frozen=True)
class RoadLayout:
    """Lanes per road plus per-lane interferer intensity (vehicles/meter).

    lanes_x holds perpendicular offsets of lanes parallel to the X road,
    lanes_y the same for the Y road.  An empty lanes_y (or lambda_y = 0)
    degenerates to the highway scenario.  Duplicate offsets model co-located
    lanes and are allowed.
    """

    lanes_x: tuple[float, ...] = (0.0,)
    lanes_y: tuple[float, ...] = (0.0,)
    lambda_x: float = 0.0
    lambda_y: float = 0.0

    def __post_init__(self):
        # Accept lists in hand-built layouts; store hashable tuples.
        object.__setattr__(self, "lanes_x", tuple(float(w) for w in self.lanes_x))
        object.__setattr__(self, "lanes_y", tuple(float(w) for w in self.lanes_y))

    @staticmethod
    def intersection(lambda_x: float, lambda_y: float) -> "RoadLayout":
        """Single-lane crossing: one lane per road through the origin."""
        return RoadLayout((0.0,), (0.0,), lambda_x, lambda_y)

    @staticmethod
    def highway(lambda_x: float) -> "RoadLayout":
        """Interferers on the X road only."""
        return RoadLayout((0.0,), (), lambda_x, 0.0)

    @staticmethod
    def multi_lane(n_lanes: int, intensity: float, spacing: float = 3.5,
                   highway: bool = False) -> "RoadLayout":
        """n_lanes parallel lanes per road, spaced `spacing` meters apart."""
        offsets = tuple(i * spacing for i in range(n_lanes))
        if highway:
            return RoadLayout(offsets, (), intensity, 0.0)
        return RoadLayout(offsets, offsets, intensity, intensity)


@dataclass(frozen=True)
class Scenario:
    """Everything one experiment point needs."""

    channel: ChannelParams
    geometry: DestinationGeometry
    link: LinkSpec
    layout: RoadLayout
    p: float                # Aloha medium-access probability
    theta_threshold: float  # SIR decoding threshold, linear scale

    @property
    def link_path_loss(self) -> float:
        """Deterministic S-to-D path loss r**(-alpha)."""
        return self.link.r ** (-self.channel.alpha)

    @property
    def laplace_argument(self) -> float:
        """m * Theta / (mu * l_SD): the point where both interference
        Laplace transforms are evaluated.  Divided by mu and l_SD in turn,
        so where their product would underflow the argument overflows to
        inf instead, which the engine reads as certain outage."""
        return self.laplace_argument_at(self.theta_threshold)

    def laplace_argument_at(self, theta_threshold: float) -> float:
        """laplace_argument at another SIR threshold."""
        ch = self.channel
        return ch.m * theta_threshold / ch.mu / self.link_path_loss

    def throughput(self, success: float) -> float:
        """Bits/s/Hz of a link that decodes with probability `success`."""
        return throughput(success, self.theta_threshold)

    def lanes(self) -> list[Lane]:
        """Every lane of the layout as seen from D, X road first, in
        declaration order, duplicates kept.

        The X-road lane at offset w is the line y = w, so h = |D_y - w| and
        c = D_x; a Y-road lane swaps the coordinates.
        """
        dx, dy = destination_position(self.geometry)
        lay = self.layout
        return ([Lane(abs(dy - w), dx, lay.lambda_x) for w in lay.lanes_x]
                + [Lane(abs(dx - w), dy, lay.lambda_y) for w in lay.lanes_y])


def throughput(success: float, theta_threshold: float) -> float:
    """Bits/s/Hz of a link at SIR threshold theta_threshold that decodes
    with probability `success`."""
    return success * math.log2(1.0 + theta_threshold)


def destination_position(g: DestinationGeometry) -> tuple[float, float]:
    """Cartesian position of D: (d cos theta, d sin theta)."""
    return (g.d * math.cos(g.theta), g.d * math.sin(g.theta))


def _check_finite(violations: list[str], name: str, value: float) -> bool:
    if not math.isfinite(value):
        violations.append(f"{name} is not finite")
        return False
    return True


def validate_scenario(scenario: Scenario) -> Scenario:
    """Check every invariant of `scenario`; return it unchanged if valid.

    Raises ValidationError whose message lists all violations at once, so a
    config with several mistakes is diagnosed in a single pass.  Validating
    an already-valid Scenario is a no-op returning the same object.
    """
    v: list[str] = []
    ch, geo, link, lay = (scenario.channel, scenario.geometry,
                          scenario.link, scenario.layout)

    if _check_finite(v, "alpha", ch.alpha) and ch.alpha <= 1.0:
        v.append("path-loss exponent alpha must exceed 1 for the "
                 "interference integral to converge")
    if isinstance(ch.m, bool):
        v.append("non-integer Nakagami m")
    elif isinstance(ch.m, int) or _check_finite(v, "m", float(ch.m)):
        if ch.m != int(ch.m):
            v.append("non-integer Nakagami m")
        elif int(ch.m) < 1:
            v.append("Nakagami m must be a positive integer")
        elif int(ch.m) > MAX_M:
            # str() refuses an int of more than 4300 digits; every m that a
            # float can hold is shown.
            shown = f" = {int(ch.m)}" if int(ch.m).bit_length() <= 1024 else ""
            v.append(f"Nakagami m{shown} exceeds the supported maximum of "
                     f"{MAX_M}")
    if _check_finite(v, "mu", ch.mu) and ch.mu <= 0.0:
        v.append("fading mean mu must be positive")

    if _check_finite(v, "d", geo.d) and geo.d < 0.0:
        v.append("distance d to the intersection is negative")
    if _check_finite(v, "theta", geo.theta) and not (
            0.0 <= geo.theta <= math.pi / 2):
        v.append("destination angle theta outside [0, pi/2]")

    if _check_finite(v, "r", link.r) and link.r <= 0.0:
        v.append("link distance r must be positive")
    elif math.isfinite(link.r) and math.isfinite(ch.alpha):
        # Both engines divide by the link's path loss.
        try:
            normal = scenario.link_path_loss >= sys.float_info.min
        except OverflowError:
            normal = False
        if not normal:
            v.append(f"link path loss r^-alpha is not a positive normal "
                     f"float at r = {link.r:g}, alpha = {ch.alpha:g}")

    if _check_finite(v, "lambda_x", lay.lambda_x) and lay.lambda_x < 0.0:
        v.append("lambda_x is negative")
    if _check_finite(v, "lambda_y", lay.lambda_y) and lay.lambda_y < 0.0:
        v.append("lambda_y is negative")
    # A lane's distance from D is |D_y - w| (X road) or |D_x - w| (Y road),
    # which overflows for some finite d and w.
    dx, dy = (destination_position(geo) if math.isfinite(geo.d)
              and math.isfinite(geo.theta) else (0.0, 0.0))
    for name, lanes, at in (("lanes_x", lay.lanes_x, dy),
                            ("lanes_y", lay.lanes_y, dx)):
        if not all(math.isfinite(at - w) for w in lanes):
            v.append(f"{name} has a lane whose distance from D is not finite"
                     if all(map(math.isfinite, lanes))
                     else f"{name} contains a non-finite offset")

    if _check_finite(v, "p", scenario.p) and not (0.0 <= scenario.p <= 1.0):
        v.append("Aloha probability out of range")
    if _check_finite(v, "theta_threshold", scenario.theta_threshold) and \
            scenario.theta_threshold <= 0.0:
        v.append("SIR threshold must be positive")

    if v:
        raise ValidationError(v)
    if not isinstance(ch.m, int):
        # Accept float-typed integral m from config files; normalize.
        return replace(scenario, channel=replace(ch, m=int(ch.m)))
    return scenario
