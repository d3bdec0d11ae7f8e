import math

import pytest

from xroad.model import (LOS, NLOS, ChannelParams, DestinationGeometry, Lane,
                         LinkSpec, RoadLayout, Scenario, ValidationError,
                         destination_position, validate_scenario)


def make_scenario(**overrides) -> Scenario:
    base = dict(
        channel=LOS,
        geometry=DestinationGeometry(d=100.0, theta=0.0),
        link=LinkSpec(r=20.0),
        layout=RoadLayout.intersection(0.01, 0.01),
        p=0.5,
        theta_threshold=1.0,
    )
    base.update(overrides)
    return Scenario(**base)


def test_channel_presets():
    assert LOS == ChannelParams(alpha=2.0, m=3, mu=1.0)
    assert NLOS == ChannelParams(alpha=4.0, m=1, mu=1.0)


def test_valid_scenario_passes_and_is_idempotent():
    sc = make_scenario()
    validated = validate_scenario(sc)
    assert validated is sc
    assert validate_scenario(validated) is validated


def test_non_integer_m_rejected():
    sc = make_scenario(channel=ChannelParams(alpha=2.0, m=1.5))
    with pytest.raises(ValidationError, match="non-integer Nakagami m"):
        validate_scenario(sc)


def test_float_valued_integer_m_normalized():
    sc = make_scenario(channel=ChannelParams(alpha=2.0, m=3.0))
    validated = validate_scenario(sc)
    assert validated.channel.m == 3
    assert isinstance(validated.channel.m, int)


def test_aloha_probability_out_of_range():
    with pytest.raises(ValidationError, match="Aloha probability out of range"):
        validate_scenario(make_scenario(p=1.2))


@pytest.mark.parametrize("overrides,fragment", [
    (dict(channel=ChannelParams(alpha=1.0, m=1)), "alpha"),
    (dict(channel=ChannelParams(alpha=4.0, m=0)), "positive integer"),
    (dict(channel=ChannelParams(alpha=4.0, m=1, mu=0.0)), "mu"),
    (dict(geometry=DestinationGeometry(d=-5.0)), "negative"),
    (dict(geometry=DestinationGeometry(d=1.0, theta=2.0)), "theta"),
    (dict(link=LinkSpec(r=0.0)), "link distance"),
    (dict(layout=RoadLayout.intersection(-0.01, 0.0)), "lambda_x"),
    (dict(layout=RoadLayout.intersection(0.0, -0.01)), "lambda_y"),
    (dict(theta_threshold=0.0), "threshold"),
    (dict(theta_threshold=math.nan), "not finite"),
    (dict(channel=ChannelParams(alpha=3.0, m=math.nan)), "m is not finite"),
    (dict(channel=ChannelParams(alpha=3.0, m=math.inf)), "m is not finite"),
    (dict(channel=ChannelParams(alpha=3.0, m=-math.inf)), "m is not finite"),
    # More digits than str() converts.
    (dict(channel=ChannelParams(alpha=3.0, m=10 ** 4400)),
     "^Nakagami m exceeds the supported maximum of 100$"),
])
def test_each_invariant_produces_named_error(overrides, fragment):
    with pytest.raises(ValidationError, match=fragment):
        validate_scenario(make_scenario(**overrides))


def test_all_violations_reported_at_once():
    sc = make_scenario(channel=ChannelParams(alpha=0.5, m=2.5),
                       p=-0.1, theta_threshold=-1.0)
    with pytest.raises(ValidationError) as err:
        validate_scenario(sc)
    assert len(err.value.violations) == 4


def test_destination_position_basics():
    assert destination_position(DestinationGeometry(0.0, 1.0)) == (0.0, 0.0)
    assert destination_position(DestinationGeometry(100.0, 0.0)) == (100.0, 0.0)
    x, y = destination_position(DestinationGeometry(100.0, math.pi / 2))
    assert abs(x) < 1e-10 and y == pytest.approx(100.0, abs=1e-12)


def test_destination_position_preserves_norm():
    for d in (0.0, 1.0, 37.5, 1500.0):
        for theta in [k * math.pi / 40 for k in range(21)]:
            x, y = destination_position(DestinationGeometry(d, theta))
            assert math.hypot(x, y) == pytest.approx(d, rel=1e-12, abs=1e-12)
            assert x >= 0.0 and y >= 0.0


def test_theta_reflection_swaps_coordinates():
    for theta in [k * math.pi / 36 for k in range(19)]:
        a = destination_position(DestinationGeometry(250.0, theta))
        b = destination_position(DestinationGeometry(250.0,
                                                     math.pi / 2 - theta))
        assert a[0] == pytest.approx(b[1], rel=1e-12, abs=1e-9)
        assert a[1] == pytest.approx(b[0], rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2])
def test_lanes_match_2d_geometry(theta):
    # A lane's (h, c) frame gives every point of it the same squared
    # distance to D as the plane does: (u, w) on the X-road lane at offset
    # w, (w, u) on the Y-road one.  Negative and duplicate offsets included.
    lay = RoadLayout(lanes_x=(0.0, 3.5, -7.0, 3.5), lanes_y=(-3.5, 0.0, 0.0),
                     lambda_x=0.01, lambda_y=0.02)
    sc = make_scenario(geometry=DestinationGeometry(60.0, theta), layout=lay)
    dx, dy = destination_position(sc.geometry)
    roads = [("x", w) for w in lay.lanes_x] + [("y", w) for w in lay.lanes_y]
    lanes = sc.lanes()
    assert len(lanes) == len(roads)
    for lane, (road, w) in zip(lanes, roads):
        assert lane.intensity == (0.01 if road == "x" else 0.02)
        assert lane.h >= 0.0
        for u in (-1000.0, -3.5, 0.0, 17.25, dx, dy, 999.0):
            x, y = (u, w) if road == "x" else (w, u)
            assert ((u - lane.c) ** 2 + lane.h ** 2
                    == (x - dx) ** 2 + (y - dy) ** 2)


def test_layout_constructors():
    inter = RoadLayout.intersection(0.01, 0.02)
    assert inter.lanes_x == (0.0,) and inter.lanes_y == (0.0,)
    hw = RoadLayout.highway(0.01)
    assert hw.lanes_y == () and hw.lambda_y == 0.0
    multi = RoadLayout.multi_lane(3, 0.01, spacing=3.5)
    assert multi.lanes_x == (0.0, 3.5, 7.0) == multi.lanes_y


def test_lane_enumeration_order_and_intensity():
    sc = make_scenario(layout=RoadLayout(lanes_x=(0.0, 3.5), lanes_y=(0.0,),
                                         lambda_x=0.01, lambda_y=0.02))
    lanes = sc.lanes()
    # D at (100, 0): on the first X lane, 3.5 m off the second, and 100 m
    # off the Y lane, at coordinate 0 along it.
    assert lanes == [Lane(0.0, 100.0, 0.01), Lane(3.5, 100.0, 0.01),
                     Lane(100.0, 0.0, 0.02)]


def test_laplace_argument_and_path_loss():
    sc = make_scenario(channel=ChannelParams(alpha=4.0, m=2, mu=0.5),
                       link=LinkSpec(10.0), theta_threshold=2.0)
    assert sc.link_path_loss == pytest.approx(1e-4)
    assert sc.laplace_argument == pytest.approx(2 * 2.0 / (0.5 * 1e-4))


def test_throughput_is_success_times_log2_one_plus_threshold():
    assert make_scenario(theta_threshold=1.0).throughput(0.25) == 0.25
    sc = make_scenario(theta_threshold=7.0)
    assert sc.throughput(0.5) == 1.5
    assert sc.throughput(0.0) == 0.0
