import decimal
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from analytic_helpers import (_exponent_coefficients, lane_integral, laplace,
                              scaled_exponent_derivatives, success,
                              success_probability, x_lane_scenario)
from xroad import analytic, cli
from xroad.analytic import (ConsistencyError, QuadratureError,
                            UnsupportedExponentError, _exponent_integral,
                            _exponent_integrals, laplace_closed_alpha2,
                            laplace_closed_alpha4, outage_probability)
from xroad.bell import complete_bell_sequence
from xroad.model import (LOS, NLOS, ChannelParams, DestinationGeometry,
                         LinkSpec, RoadLayout, Scenario, ValidationError,
                         validate_scenario)
from xroad.sweep import db_to_linear, default_verification_grid

def exponent_derivatives(sc, s, max_order):
    """g, g', ..., g^(max_order) of the total interference at s > 0."""
    return [x / s ** k for k, x in
            enumerate(scaled_exponent_derivatives(sc, s, max_order))]


def exponent(sc, s, k=0):
    """k-th derivative of the log-Laplace exponent at s."""
    return exponent_derivatives(sc, s, k)[k]


def quadrature_exponent(k, s, h, alpha, rate):
    """k-th derivative of one lane's exponent from the quadratured integral
    I_k: g = -rate*I_0 and, with g~_k = rate*I_k (k >= 1),
    s^k g^(k) = (-1)^k * k! * g~_k."""
    if k == 0:
        return -rate * _exponent_integral(0, s, h, alpha)
    return ((-1.0) ** k * math.factorial(k) * rate
            * _exponent_integral(k, s, h, alpha) / s ** k)


def intersection_scenario(channel=NLOS, d=0.0, theta=0.0, r=20.0, lam_x=0.01,
                          lam_y=0.01, p=0.5, thresh=1.0) -> Scenario:
    return Scenario(channel=channel,
                    geometry=DestinationGeometry(d=d, theta=theta),
                    link=LinkSpec(r=r),
                    layout=RoadLayout.intersection(lam_x, lam_y),
                    p=p, theta_threshold=thresh)


# ---------------------------------------------------------------- transforms

def test_laplace_trivial_limits():
    sc = x_lane_scenario(4.0, 0.0, 0.5, 0.0)
    assert laplace(sc, 123.0) == 1.0                    # empty field
    sc = x_lane_scenario(4.0, 0.0, 0.5, 0.01)
    assert laplace(sc, 0.0) == 1.0                      # s = 0
    assert laplace_closed_alpha4(0.0, sc.lanes()[0], sc) == 1.0
    sc2 = x_lane_scenario(2.0, 5.0, 0.5, 0.01)
    assert laplace_closed_alpha2(0.0, sc2.lanes()[0], sc2) == 1.0


def test_laplace_alpha4_on_lane_value():
    # On-lane destination, s = 1e4: exponent is p*lam*pi*s**0.25/sqrt(2).
    sc = x_lane_scenario(4.0, 0.0, 0.1, 0.01)
    expected = math.exp(-0.1 * 0.01 * math.pi * 1e4 ** 0.25 / math.sqrt(2))
    assert laplace_closed_alpha4(1e4, sc.lanes()[0], sc) == pytest.approx(
        expected, rel=1e-12)
    assert laplace(sc, 1e4) == pytest.approx(expected, rel=1e-8)
    assert expected == pytest.approx(0.97803, abs=5e-6)


def test_laplace_alpha2_on_lane_value():
    # h=0, s=4, p*lam=0.01: exponent integral is pi*s/sqrt(s) = 2*pi.
    sc = x_lane_scenario(2.0, 0.0, 1.0, 0.01)
    expected = math.exp(-0.01 * math.pi * 2.0)
    assert laplace_closed_alpha2(4.0, sc.lanes()[0], sc) == pytest.approx(
        expected, rel=1e-12)
    assert laplace(sc, 4.0) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("alpha,closed", [(4.0, laplace_closed_alpha4),
                                          (2.0, laplace_closed_alpha2)])
def test_closed_form_matches_quadrature_on_random_draws(alpha, closed):
    rng = np.random.default_rng(20240613)
    for _ in range(100):
        s = 10.0 ** rng.uniform(-2, 6)
        h = rng.uniform(0.0, 1500.0)
        p = rng.uniform(0.05, 1.0)
        lam = 10.0 ** rng.uniform(-3, -1)
        sc = x_lane_scenario(alpha, h, p, lam)
        rate = p * lam
        reference = math.exp(-rate * _exponent_integral(
            0, s, h, alpha, err_cap=1.0 / rate))
        value = laplace(sc, s)
        assert closed(s, sc.lanes()[0], sc) == value
        assert value == pytest.approx(reference, rel=1e-8)


def test_closed_forms_reject_other_exponents():
    sc = x_lane_scenario(3.0, 0.0, 0.5, 0.01)
    with pytest.raises(UnsupportedExponentError):
        laplace_closed_alpha4(1.0, sc.lanes()[0], sc)
    with pytest.raises(UnsupportedExponentError):
        laplace_closed_alpha2(1.0, sc.lanes()[0], sc)


def test_negative_s_rejected():
    sc = x_lane_scenario(4.0, 0.0, 0.5, 0.01)
    with pytest.raises(ValueError):
        laplace_closed_alpha4(-1.0, sc.lanes()[0], sc)


# ----------------------------------------------------------- closed-form jets

@pytest.mark.parametrize("alpha", [2.0, 4.0])
@pytest.mark.parametrize("h", [0.0, 1e-3, 0.01, 0.1, 3.0, 400.0])
def test_jets_match_quadrature(alpha, h):
    # Lanes at h <= 0.1 and s <= 1 put the peak scale far below the 1e4 m
    # window; without the fixed breakpoints QUADPACK reported convergence
    # there while up to 3e-3 off.
    sc = x_lane_scenario(alpha, h, 0.5, 0.01)
    for s in (1e-6, 1e-4, 1e-3, 0.1, 1.0, 1e3, 1e6):
        g = exponent_derivatives(sc, s, 8)
        for k in range(9):
            assert g[k] == pytest.approx(
                quadrature_exponent(k, s, h, alpha, 0.005), rel=1e-8), (s, k)


def no_jets(s, h, alpha, order):
    """_lane_jets for an engine without closed forms: every row nan."""
    return np.full((len(h), order + 1), math.nan)


@pytest.mark.parametrize("alpha", [2.0, 4.0])
def test_engine_quadrature_branch_matches_jets(monkeypatch, alpha):
    # The engine quadratures only lanes that neither a jet nor the far-lane
    # series serves.  Forcing every lane of a point at alpha in {2, 4} onto
    # the rule checks its integrands and signs against the jets.
    sc = intersection_scenario(channel=ChannelParams(alpha=alpha, m=9),
                               d=30.0, theta=0.4)
    s = sc.laplace_argument
    expected = _exponent_coefficients(sc, s, 8)
    ruled = []
    real = analytic._exponent_integrals

    def rule(s, h, alpha, orders):
        ruled.extend(h.tolist())
        return real(s, h, alpha, orders)
    monkeypatch.setattr(analytic, "_lane_jets", no_jets)
    monkeypatch.setattr(analytic, "_far_lanes", no_jets)
    monkeypatch.setattr(analytic, "_exponent_integrals", rule)
    assert _exponent_coefficients(sc, s, 8) == pytest.approx(
        expected, rel=1e-8)
    assert sorted(ruled) == sorted({lane.h for lane in sc.lanes()})


def test_exponent_coefficients_take_s_as_given(monkeypatch):
    # The lanes come from the scenario and s from the caller: the
    # scenario's own Laplace argument, even one that raises, plays no part.
    sc = intersection_scenario(d=30.0, theta=0.4)
    expected = _exponent_coefficients(sc, 0.5, 3)

    def raising(scenario, theta):
        raise ZeroDivisionError("float division by zero")
    monkeypatch.setattr(Scenario, "laplace_argument_at", raising)
    assert _exponent_coefficients(sc, 0.5, 3) == expected
    assert expected[0] < 0.0 and all(g > 0.0 for g in expected[1:])


@pytest.mark.parametrize("alpha", [2.0, 4.0])
def test_engine_series_branch_matches_jets(monkeypatch, alpha):
    # D 300 m from the crossing and a short link: both lanes lie beyond
    # 2 rho, where the far-lane series serves them once the jets step
    # aside; the rule must not be reached.  The series gives whole-line
    # J_k, as the jets do, once the tail cut is taken off.
    sc = intersection_scenario(channel=ChannelParams(alpha=alpha, m=9),
                               d=300.0, theta=0.4, r=5.0)
    s = sc.laplace_argument
    assert all(lane.h > 2.0 * s ** (1.0 / alpha) for lane in sc.lanes())
    expected = _exponent_coefficients(sc, s, 8)

    def no_rule(*args):
        raise AssertionError("the rule was reached")
    monkeypatch.setattr(analytic, "_lane_jets", no_jets)
    monkeypatch.setattr(analytic, "_exponent_integrals", no_rule)
    monkeypatch.setattr(analytic, "_truncated",
                        lambda j, *args: np.array(j, dtype=float))
    assert _exponent_coefficients(sc, s, 8) == pytest.approx(
        expected, rel=1e-12)


@pytest.mark.parametrize("alpha", [1.3, 2.5, 3.7, 6.0])
def test_on_lane_jet_matches_quadrature_for_general_alpha(alpha):
    sc = x_lane_scenario(alpha, 0.0, 0.5, 0.01)
    for s in (1.0, 10.0):
        g = exponent_derivatives(sc, s, 8)
        for k in range(9):
            assert g[k] == pytest.approx(
                quadrature_exponent(k, s, 0.0, alpha, 0.005), rel=1e-8)


@pytest.mark.parametrize("alpha", [1.3, 2.0, 2.5, 3.7, 4.0, 6.0])
def test_on_lane_jet_matches_beta_integrals(alpha):
    # With a = |u|^alpha, u^alpha = s*x turns J_0 and J_k into Beta
    # integrals: J_0 = (2/alpha) s^(1/alpha) B(1/alpha, 1 - 1/alpha) and
    # J_k = (2/alpha) s^(1/alpha - k) B(1 + 1/alpha, k - 1/alpha).
    def beta(a, b):
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    b = 1.0 / alpha
    sc = x_lane_scenario(alpha, 0.0, 0.5, 0.01)
    for s in np.logspace(-3, 6, 10):
        s = float(s)
        g = exponent_derivatives(sc, s, 8)
        j0 = 2.0 * b * s ** b * beta(b, 1.0 - b)
        assert g[0] == pytest.approx(-0.005 * j0, rel=1e-12)
        for k in range(1, 9):
            jk = 2.0 * b * s ** (b - k) * beta(1.0 + b, k - b)
            expected = (-1.0) ** k * math.factorial(k) * 0.005 * jk
            assert g[k] == pytest.approx(expected, rel=1e-12), (s, k)


def test_logaddexp_matches_numpy_and_is_exact_at_its_edges():
    # The rule's ln(e^a + e^b) comes from SIMD ufuncs; np.logaddexp is the
    # reference, within 4 ulps of the larger of the result and max(a, b),
    # where the ufunc form rounds.
    rng = np.random.default_rng(24)
    a, b = rng.normal(scale=40.0, size=(2, 20000))
    got, want = analytic._logaddexp(a, b), np.logaddexp(a, b)
    ulp = np.spacing(np.maximum(np.abs(want), np.abs(np.maximum(a, b))))
    assert np.all(np.abs(got - want) <= 4.0 * ulp)
    inf = math.inf
    for x, y, exact in [(-inf, -inf, -inf), (-inf, 3.5, 3.5),
                        (-inf, -1e300, -1e300), (inf, 3.5, inf),
                        (inf, -inf, inf), (inf, inf, inf), (0.0, -800.5, 0.0),
                        (-2.0, -900.0, -2.0), (1e3, -1e3, 1e3)]:
        for pair in ((x, y), (y, x)):
            got = analytic._logaddexp(np.array([pair[0]]), np.array([pair[1]]))
            assert got.tolist() == [exact], pair


def test_node_table_integrates_over_the_unit_interval():
    # Each level's rule, its nodes those of the levels below plus the ones
    # it adds, integrates x^p over (0, 1), endpoint singularities included.
    table = analytic._node_table()
    for p in (-0.5, 0.0, 0.5, 3.0, 40.0):
        total = 0.0
        for i, (ln_x, ln_dx) in enumerate(table):
            level = analytic._FIRST_LEVEL + i
            total = (0.5 if i else 0.0) * total + 2.0 ** -level * np.exp(
                p * ln_x + ln_dx).sum()
            assert total == pytest.approx(1.0 / (p + 1.0), rel=1e-13), (p, i)


@pytest.mark.parametrize("alpha", [1.001, 1.01, 1.05, 1.163, 1.532, 2.0, 3.3,
                                   4.0, 5.9])
def test_rule_matches_exact_lane_integrals(alpha):
    # Exact J_k: the h = 0 Beta integrals for every alpha (see
    # test_on_lane_jet_matches_beta_integrals), and off the lane the alpha
    # in {2, 4} jets, J_0 = c_0 and J_k = -c_k.  Each order's reported
    # error estimate must cover its actual error.
    def beta(a, b):
        return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    b = 1.0 / alpha
    for h in (0.0, 1e-3, 3.0, 400.0):
        if h and alpha not in (2.0, 4.0):
            continue
        for s in np.logspace(-3, 8, 12):
            s = float(s)
            if h:
                c = analytic._lane_jets([s], [h], alpha, 8)[0].tolist()
                exact = c[:1] + [-x for x in c[1:]]
            else:
                exact = [2.0 * b * s ** b * (beta(b, 1.0 - b) if k == 0
                                             else beta(1.0 + b, k - b))
                         for k in range(9)]
            values, errors, _ = (v[0] for v in _exponent_integrals(
                [s], [h], alpha, range(9)))
            for k in range(9):
                assert values[k] == pytest.approx(exact[k], rel=1e-12), (
                    h, s, k)
                assert errors[k] >= abs(values[k] - exact[k]), (h, s, k)


def scipy_truncated_integral(k, s, h, alpha, T):
    """J_k over [-T, T] from scipy.integrate.quad at epsrel 1e-13: the head
    [0, 1e4] with breakpoints around the peak and at the decades, the rest
    in log u, where the tail decays exponentially."""
    from scipy.integrate import quad

    def f(u):
        y = s / (s + (h * h + u * u) ** (0.5 * alpha))
        return (1.0 - y) * y ** k if k else y
    sigma = h + s ** (1.0 / alpha)
    points = sorted(x for x in (1e-3 * sigma, 0.1 * sigma, sigma, 10 * sigma,
                                1.0, 10.0, 100.0, 1000.0) if 0.0 < x < 1e4)
    total = quad(f, 0.0, 1e4, epsabs=0.0, epsrel=1e-13, limit=500,
                 points=points)[0]
    if T > 1e4:
        total += quad(lambda t: f(math.exp(t)) * math.exp(t), math.log(1e4),
                      math.log(T), epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return 2.0 * total


def test_lanes_of_one_pass_match_passes_of_their_own():
    # At alpha = 100 the two nearer lanes miss the tolerance on the whole
    # half line and are split, and the farther one stops at level 5;
    # evaluated together, each keeps its own values and estimates bit for
    # bit.
    s, alpha = 3.802951800684688e+130, 100.0
    hs = [14.776010333066978, 47.7668244562803, 3.0]
    values, errors, _ = (a.tolist() for a in _exponent_integrals(
        [s] * len(hs), hs, alpha, range(3)))
    for h, value, error in zip(hs, values, errors):
        alone = [a.tolist() for a in _exponent_integrals([s], [h], alpha,
                                                         range(3))]
        assert (value, error) == (alone[0][0], alone[1][0]), h


@pytest.mark.parametrize("alpha", [100.0, 200.0])
def test_steep_fall_is_integrated_split_at_it(monkeypatch, alpha):
    # Both lanes pass within rho = s^(1/alpha) of D, so y falls at
    # u* = sqrt(rho^2 - h^2) over a width ~ u*/alpha: the nodes spread over
    # the whole half line miss the tolerance, and the lanes are integrated
    # again split at u*.  Checked against QUADPACK.
    pieces = []
    real = analytic._tanh_sinh

    def counted(s, h, alpha, orders, cut=None, near=False):
        pieces.append("whole" if cut is None else "near" if near else "far")
        return real(s, h, alpha, orders, cut, near)
    monkeypatch.setattr(analytic, "_tanh_sinh", counted)
    sc = intersection_scenario(channel=ChannelParams(alpha=alpha, m=9),
                               d=5.0, theta=0.3)
    assert outage_probability(sc).outage_prob == pytest.approx(
        1.0 - success_probability(sc), rel=1e-8)
    assert pieces == ["whole", "far", "near"]


@pytest.mark.parametrize("alpha", [1.2, 1.532, 2.5, 3.3, 6.0])
def test_tail_term_reproduces_the_truncated_interval(alpha):
    # Each order is cut at the first T = 1e4 * 2^n, n < 96, where the tail
    # bound T * (rho/T)^tail_pow / (tail_pow - 1) is below half the budget;
    # QUADPACK over the same [-T, T] checks the whole-line rule less its
    # tail term.  At alpha = 1.2, orders 0 and 1 decay too slowly for the
    # bound and stay whole (see the next test).
    orders = range(9)
    for h in (1e-3, 3.0, 105.9, 400.0):
        for s in (1e-6, 1.0, 843.4, 1e10):
            rho = s ** (1.0 / alpha)
            whole = _exponent_integrals([s], [h], alpha, orders)[0][0]
            values = analytic._truncated([whole], s, h, alpha, orders)[0]
            for k, value in zip(orders, values):
                assert value == pytest.approx(
                    _exponent_integral(k, s, h, alpha), rel=1e-13)
                tail_pow = alpha * max(k, 1)
                edges = [T for T in 1e4 * 2.0 ** np.arange(96)
                         if rho < T and T * (rho / T) ** tail_pow
                         / (tail_pow - 1.0) <= 0.25e-9 * whole[k]]
                if not edges:
                    assert alpha == 1.2 and k < 2 and value == whole[k]
                    continue
                assert value == pytest.approx(
                    scipy_truncated_integral(k, s, h, alpha, edges[0]),
                    rel=1e-11), (h, s, k)


@pytest.mark.parametrize("s,h,alpha", [(1e-300, 400.0, 1.5),
                                       (1e-300, 1e5, 3.3),
                                       (1e-30, 1e-9, 1.5),
                                       (1e-30, 1e-9, 2.5)])
def test_faint_interference_matches_its_power_law_limit(s, h, alpha):
    # With s far below a(u), y = s/a(u) up to a relative s/h^alpha, and
    # J_0 = s * h^(1-alpha) * B(1/2, (alpha-1)/2).  Integrands near the
    # bottom of the float range, and peaks much narrower than the first
    # window, must still evaluate.
    expected = s * h ** (1.0 - alpha) * math.exp(
        math.lgamma(0.5) + math.lgamma(0.5 * (alpha - 1.0))
        - math.lgamma(0.5 * alpha))
    assert _exponent_integral(0, s, h, alpha) == pytest.approx(
        expected, rel=1e-8)


@pytest.mark.parametrize("alpha", [1.05, 2.5, 3.3, 6.0, 30.0])
def test_far_lane_series_matches_the_lane_integrals(alpha):
    # Lanes at h = ratio * rho, rho = s^(1/alpha) = 1.  The series serves a
    # lane whose alternating sum loses fewer than 3 digits, (order + 1) *
    # log10((1 + w)/(1 - w)) with w = s/h^alpha, and then matches QUADPACK
    # (tests/analytic_helpers.py) to 1e-12; values below 1e-290 lose bits
    # in both.  At h = 1e40 rho, w <= 1e-42 and J_k is its leading term,
    # s^p h^(1 - alpha p) B(1/2, (alpha p - 1)/2), p = max(k, 1), to
    # rounding.  An m = 100 lane (order 99) gives the same J_0..J_8.
    def loss(order, w):
        return (order + 1) * math.log10((1.0 + w) / (1.0 - w))

    def leading(k, h):
        q = alpha * max(k, 1)
        return math.exp((1.0 - q) * math.log(h) + math.lgamma(0.5)
                        + math.lgamma(0.5 * (q - 1.0)) - math.lgamma(0.5 * q))
    for ratio in (2.5, 10.0, 1e3, 1e40):
        w = ratio ** -alpha
        values = analytic._far_lanes([1.0], [ratio], alpha, 8)[0]
        wide = analytic._far_lanes([1.0], [ratio], alpha, 99)[0]
        assert np.isnan(values).all() == (loss(8, w) >= 3.0), ratio
        assert np.isnan(wide).all() == (loss(99, w) >= 3.0), ratio
        if np.isnan(values).all():
            continue
        for k in range(9):
            exact = (leading(k, ratio) if ratio == 1e40
                     else lane_integral(k, 1.0, ratio, alpha))
            assert values[k] == pytest.approx(exact, rel=1e-12,
                                              abs=1e-290), (ratio, k)
        if not np.isnan(wide).all():
            assert wide[:9].tolist() == values.tolist()
            if ratio == 1e40:
                assert wide[99] == pytest.approx(leading(99, ratio),
                                                 rel=1e-12, abs=1e-290)


def test_a_lane_past_the_series_bounds_is_quadratured(monkeypatch):
    # At order 99 the bound of 3 digits falls at w = (r - 1)/(r + 1),
    # r = 10^0.03, where the last of the 40 terms is far below 1e-17 of the
    # sum: a lane just inside takes the series, one just outside the rule.
    r = 10.0 ** (analytic._SERIES_LOSS / 100.0)
    bound, alpha = (r - 1.0) / (r + 1.0), 3.3
    inside, outside = ((bound * f) ** (-1.0 / alpha)
                       for f in (1.0 - 1e-6, 1.0 + 1e-6))
    assert 2.0 < outside < inside
    series = analytic._far_lanes([1.0, 1.0], [inside, outside], alpha, 99)
    assert not np.isnan(series[0]).any() and np.isnan(series[1]).all()
    ruled = []
    real = analytic._exponent_integrals

    def rule(s, h, alpha, orders):
        ruled.extend(h.tolist())
        return real(s, h, alpha, orders)
    monkeypatch.setattr(analytic, "_exponent_integrals", rule)
    table, achieved, whole = analytic._evaluate_lanes(
        np.array([1.0, 1.0]), np.array([inside, outside]),
        np.array([alpha, alpha]), np.array([99, 99]), 100)
    assert ruled == [outside]
    assert table[0].tolist() == series[0].tolist()
    assert whole.tolist() == [True, True]
    assert achieved[0] == 0.0 and achieved[1] <= analytic._REL_TOL
    # Either way J_k barely moves between the two lanes.
    assert table[1, :9] == pytest.approx(table[0, :9], rel=1e-5)
    # Just beyond 2 rho at alpha = 1.05, w = 0.48 loses only 0.46 digits
    # at order 0, but its 40th term is still 1e-13 of the sum: the rule.
    # At alpha = 6, w = 0.015 and the series serves.
    assert np.isnan(analytic._far_lanes([1.0], [2.01], 1.05, 0)).all()
    assert not np.isnan(analytic._far_lanes([1.0], [2.01], 6.0, 0)).any()


@pytest.mark.parametrize("lane,link", [(1e308, 1e305), (3e307, 1e307)])
def test_a_lane_integral_beyond_the_float_range_is_certain_outage(lane,
                                                                  link):
    # alpha = 1.0001 and m = 2, where B(1/2, (alpha - 1)/2) = 2e4.  rho =
    # 2e305 and a lane at 1e308 m, which the far-lane series takes: w = 2e-3
    # puts J_0 near 4e309.  rho = 2e307 and a lane at 3e307 m, within 2 rho,
    # which the rule takes: J_0 is near 1e311.  Either reads inf without a
    # floating-point warning, and p * lam * J is far beyond 800.
    sc = Scenario(channel=ChannelParams(alpha=1.0001, m=2),
                  geometry=DestinationGeometry(0.0, 0.0),
                  link=LinkSpec(r=link),
                  layout=RoadLayout((lane,), (), 1e-300, 0.0), p=0.5,
                  theta_threshold=1.0)
    assert outage_probability(validate_scenario(sc)).outage_prob == 1.0


def test_far_lanes_of_a_steep_exponent_evaluate():
    # alpha = 60, m = 100, D at 1e300 m: both lanes lie about 1e299 rho
    # from D, where the rule misses its tolerance (achieved relative error
    # 7.4e-9); the series reads J = 0 there.
    sc = Scenario(channel=ChannelParams(alpha=60.0, m=100),
                  geometry=DestinationGeometry(1e300, 0.5),
                  link=LinkSpec(r=10.0),
                  layout=RoadLayout.intersection(0.01, 0.01), p=0.5,
                  theta_threshold=1.0)
    outage = outage_probability(validate_scenario(sc)).outage_prob
    assert 0.0 <= outage <= 1.0


@pytest.mark.parametrize("m", [1, 3, 100])
def test_far_lanes_at_a_huge_exponent_reach_the_step_limit(m):
    # alpha = 1e306, D 5 m from the crossing on the X road: the Y lane lies
    # beyond 2 rho, and its series' Beta logs would overflow lgamma; at
    # m = 100 w^p underflows in logs, and so does _truncated's tail bound.
    # As alpha grows, a lane at h > 1 adds nothing and the one through D
    # (h = 0) gives J = 2 s^(1/alpha) -> 2 with s near 1, so the outage
    # nears 1 - exp(-2 p lam) = 1 - exp(-0.01).
    sc = Scenario(channel=ChannelParams(alpha=1e306, m=m),
                  geometry=DestinationGeometry(5.0, 0.0),
                  link=LinkSpec(r=1.0),
                  layout=RoadLayout.intersection(0.01, 0.01), p=0.5,
                  theta_threshold=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        outage = outage_probability(validate_scenario(sc)).outage_prob
    assert outage == pytest.approx(-math.expm1(-0.01), rel=1e-12)


def test_lane_far_below_the_peak_matches_the_on_lane_limit():
    # h * h underflows below about 1e-154 and would leave a(u) = 0 near the
    # peak at rho = s^(1/alpha) = 1e-200; with h that far below rho, J_k is
    # its h = 0 Beta integral up to a relative (h/rho)^2.
    def beta(a, b):
        return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    s, h, alpha = 1e-300, 1e-300, 1.5
    b = 1.0 / alpha
    for k, value in enumerate(
            _exponent_integrals([s], [h], alpha, range(3))[0][0]):
        expected = 2.0 * b * s ** b * (beta(b, 1.0 - b) if k == 0
                                       else beta(1.0 + b, k - b))
        assert value == pytest.approx(expected, rel=1e-12), k


def test_slow_tails_off_the_lane_miss_the_tail_bound():
    # No window edge's tail bound is met by orders 0 and 1 at alpha = 1.2,
    # nor at alpha = 1.05: they are integrated over the whole line, and
    # checked against QUADPACK (tests/analytic_helpers.py).
    s, h, alpha = 843.4, 3.0, 1.2
    for k, value in enumerate(
            _exponent_integrals([s], [h], alpha, range(9))[0][0]):
        assert value == pytest.approx(lane_integral(k, s, h, alpha),
                                      rel=1e-11), k
    # At s = 1e-300, y = s/a(u) up to a relative s/h^alpha, so J_k is the
    # power-law integral of (s/a)^max(k, 1); it underflows to 0 at k >= 2.
    s = 1e-300
    for k, value in enumerate(
            _exponent_integrals([s], [h], alpha, range(9))[0][0]):
        q = alpha * max(k, 1)
        expected = math.exp(max(k, 1) * math.log(s) + (1.0 - q) * math.log(h)
                            + math.lgamma(0.5) + math.lgamma(0.5 * (q - 1.0))
                            - math.lgamma(0.5 * q))
        assert value == pytest.approx(expected, rel=1e-12), k
    sc = intersection_scenario(channel=ChannelParams(alpha=1.05, m=3),
                               d=50.0, theta=0.5)
    assert outage_probability(sc).outage_prob == pytest.approx(
        1.0 - success_probability(sc), rel=1e-8)


def test_random_scenarios_evaluate_or_fail_as_numeric_errors():
    # Seeded draws over the accepted inputs: alpha near 1 or in {2, 4}, m
    # up to 100, and densities, link lengths and thresholds over decades.
    # Each point gives a probability or raises one of the engine's numeric
    # errors, nothing else.
    rng = np.random.default_rng(20261019)
    evaluated = 0
    for _ in range(300):
        alpha = (float(rng.choice([2.0, 4.0])) if rng.random() < 0.25
                 else 1.0 + 10.0 ** rng.uniform(-2.5, 0.7))
        lanes_x, lanes_y = (tuple(3.5 * i for i in range(n))
                            for n in rng.integers(1, 5, size=2))
        sc = Scenario(
            channel=ChannelParams(alpha=alpha, m=int(rng.integers(1, 101))),
            geometry=DestinationGeometry(
                10.0 ** rng.uniform(0, 3),
                float(rng.choice([0.0, 0.3, 1.2, math.pi / 2]))),
            link=LinkSpec(10.0 ** rng.uniform(0, 3)),
            layout=RoadLayout(lanes_x, lanes_y, 10.0 ** rng.uniform(-6, 0),
                              10.0 ** rng.uniform(-6, 0)),
            p=rng.uniform(0.05, 1.0),
            theta_threshold=db_to_linear(rng.uniform(-30.0, 40.0)))
        try:
            validate_scenario(sc)
        except ValidationError:
            continue
        try:
            outage = outage_probability(sc).outage_prob
        except (QuadratureError, ConsistencyError):
            continue
        assert 0.0 <= outage <= 1.0
        evaluated += 1
    assert evaluated >= 250


@pytest.mark.parametrize("alpha", [3.7, 6.5])
def test_quadrature_matches_beta_integrals_up_to_the_cap(alpha):
    # With h = 0 the quadratured integrals are Beta integrals:
    # int y du = (2/alpha) s^(1/alpha) B(1/alpha, 1 - 1/alpha) and
    # int (1 - y) y^k du = (2/alpha) s^(1/alpha) B(1 + 1/alpha, k - 1/alpha).
    # At s = 1e40, rho = s^(1/alpha) lies far beyond the first window, where
    # (rho/T)^(alpha*k) overflows a float at k = 99.
    def beta(a, b):
        return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    b = 1.0 / alpha
    for s in (10.0, 1e40):
        for k in (0, 1, 8, 50, 99):
            expected = 2.0 * b * s ** b * (beta(b, 1.0 - b) if k == 0
                                           else beta(1.0 + b, k - b))
            assert _exponent_integral(k, s, 0.0, alpha) == pytest.approx(
                expected, rel=1e-8), (s, k)


def test_alpha2_jet_matches_two_term_split():
    # s/sqrt(s + h^2) = (s + h^2)^(1/2) - h^2 (s + h^2)^(-1/2): for k >= 1
    # each derivative is two same-signed power terms.  At k = 0 the split
    # cancels when s << h^2, so order 0 is checked against the direct form.
    def falling(beta, k):
        return math.prod(beta - i for i in range(k))
    for h in (0.0, 3.0, 400.0):
        sc = x_lane_scenario(2.0, h, 0.5, 0.01)
        for s in np.logspace(-3, 6, 10):
            s = float(s)
            x = s + h * h
            g = exponent_derivatives(sc, s, 8)
            assert g[0] == pytest.approx(
                -0.005 * math.pi * s / math.sqrt(x), rel=1e-12)
            for k in range(1, 9):
                dj = math.pi * (falling(0.5, k) * x ** (0.5 - k)
                                - h * h * falling(-0.5, k) * x ** (-0.5 - k))
                assert g[k] == pytest.approx(-0.005 * dj, rel=1e-12), (h, s, k)


def decimal_jet(s, h, alpha, order):
    """_lane_jets' closed forms for alpha = 2 and 4, in 50-digit
    decimal arithmetic, whose exponent range takes h^4 at any float h."""
    def mul(a, b):
        return [sum(a[j] * b[k - j] for j in range(k + 1))
                for k in range(len(a))]

    def div(a, b):
        q = []
        for k in range(len(a)):
            q.append((a[k] - sum(b[j] * q[k - j] for j in range(1, k + 1)))
                     / b[0])
        return q

    def sqrt(a):
        r = [a[0].sqrt()]
        for k in range(1, len(a)):
            r.append((a[k] - sum(r[j] * r[k - j] for j in range(1, k)))
                     / (2 * r[0]))
        return r
    with decimal.localcontext(decimal.Context(prec=50, Emax=10 ** 6,
                                              Emin=-10 ** 6)):
        pi = decimal.Decimal("3.141592653589793238462643383279502884197")
        s, h = decimal.Decimal(s), decimal.Decimal(h)
        t = [s, -s] + [decimal.Decimal(0)] * (order - 1)
        if alpha == 2.0:
            jet = div(t, sqrt([s + h * h] + t[1:]))
        else:
            w = sqrt([h ** 4 + s] + t[1:])
            jet = div(t, mul(w, sqrt([w[0] + h * h] + w[1:])))
            pi /= decimal.Decimal(2).sqrt()
        return [float(pi * c) for c in jet]


@pytest.mark.parametrize("alpha", [2.0, 4.0])
def test_jets_of_lanes_far_from_d(alpha):
    # h^4 overflows past h = 1.2e77, and s + h^2 past h = 1.3e154.  Held
    # as 2^-e c, a coefficient c below 2^(e - 1022) loses bits; none of
    # this grid's above 1e-290 is.
    for h in (1e77, 1e100, 1e160, 1e300):
        for s in (1.0, 1e145, 1e300):
            jet = analytic._lane_jets([s], [h], alpha, 8)[0].tolist()
            for k, c in enumerate(decimal_jet(s, h, alpha, 8)):
                if abs(c) > 1e-290:
                    assert jet[k] == pytest.approx(c, rel=1e-14), (h, s, k)


@pytest.mark.parametrize("alpha,lane,db,outage", [
    (2.0, 1e160, 2880.0, 1.0),  # s = 1e300: p lam J is about 1.6e138
    (4.0, 1e100, 0.0, 0.0),     # J is about 1e-295
])
def test_lanes_far_from_d_evaluate(alpha, lane, db, outage):
    sc = Scenario(channel=ChannelParams(alpha=alpha, m=1),
                  geometry=DestinationGeometry(0.0, 0.0),
                  link=LinkSpec(r=1e6 if alpha == 2.0 else 20.0),
                  layout=RoadLayout((lane,), (), 0.01, 0.0),
                  p=0.5, theta_threshold=db_to_linear(db))
    assert outage_probability(sc).outage_prob == outage


def _extreme_scenario(rng: random.Random) -> Scenario:
    """A scenario from far corners of the parameter space: alpha up to 100,
    m up to 100, and d, r, lane offsets, intensities and the threshold
    over +-300 decades."""
    def decades():
        return 10.0 ** rng.uniform(-300.0, 300.0)

    def offsets():
        return [rng.choice((0.0, decades(), -decades()))
                for _ in range(rng.randint(0, 3))]
    alpha = rng.choice((2.0, 4.0, min(1.0 + 10.0 ** rng.uniform(-3, 2),
                                      100.0)))
    theta = rng.choice((0.0, math.pi / 2, rng.uniform(0.0, math.pi / 2)))
    return Scenario(
        channel=ChannelParams(alpha=alpha, m=rng.randint(1, 100)),
        geometry=DestinationGeometry(rng.choice((0.0, decades())), theta),
        link=LinkSpec(r=decades()),
        layout=RoadLayout(offsets(), offsets(),
                          rng.choice((0.0, decades())),
                          rng.choice((0.0, decades()))),
        p=rng.uniform(0.0, 1.0), theta_threshold=decades())


def test_every_accepted_input_evaluates():
    # Each draw is rejected by validate_scenario, evaluates to an outage in
    # [0, 1], or misses the quadrature tolerance; anything else is a defect.
    rng = random.Random(2024)
    outcomes = {"invalid": 0, "evaluated": 0, "quadrature": 0}
    for i in range(300):
        sc = _extreme_scenario(rng)
        try:
            outage = outage_probability(validate_scenario(sc)).outage_prob
        except ValidationError:
            outcomes["invalid"] += 1
        except QuadratureError:
            outcomes["quadrature"] += 1
        else:
            assert 0.0 <= outage <= 1.0, (i, sc)
            outcomes["evaluated"] += 1
    assert outcomes["evaluated"] >= 100, outcomes


@pytest.mark.parametrize("alpha", [2.0, 3.3, 4.0])
def test_lane_beyond_the_float_range_from_d_is_invalid(alpha):
    # D at (6e291, 1e308) and an X-road lane at y = -1e308: h = |D_y - w|
    # overflows.  The engine read nan here at alpha = 3.3 (and at 4 for
    # m > 1), and 0 at alpha = 2.
    sc = Scenario(channel=ChannelParams(alpha=alpha, m=3),
                  geometry=DestinationGeometry(1e308, math.pi / 2),
                  link=LinkSpec(r=20.0),
                  layout=RoadLayout((-1e308,), (), 0.01, 0.0),
                  p=0.5, theta_threshold=1.0)
    with pytest.raises(ValidationError, match="^lanes_x has a lane whose "
                       "distance from D is not finite$"):
        validate_scenario(sc)


@pytest.mark.parametrize("alpha,m,lam,lane,d,r", [
    (1.002842147176705, 67, 4.9e250, 1.5e262, 2.5e278, 2.2e271),
    (1.254747977786076, 54, 4.4e132, 0.0, 1.7e259, 2.9e240),
])
def test_interference_beyond_the_float_range_is_certain_outage(
        alpha, m, lam, lane, d, r):
    # p * lam * J_0 overflows, so g~_0 = -inf while g~_k = +inf for some
    # k >= 1; the recurrence then formed 0 * inf = nan.  exp(g~_0) is 0,
    # and so is every e~_k.
    sc = Scenario(channel=ChannelParams(alpha=alpha, m=m),
                  geometry=DestinationGeometry(d, 0.03),
                  link=LinkSpec(r=r), layout=RoadLayout((), (lane,), 0.0, lam),
                  p=0.05, theta_threshold=1e-50)
    g = _exponent_coefficients(sc, sc.laplace_argument, 1)
    assert g == [-math.inf, 0.0]
    assert outage_probability(validate_scenario(sc)).outage_prob == 1.0


def test_verify_grid_and_presets_need_no_quadrature(monkeypatch, tmp_path):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature called")
    monkeypatch.setattr(analytic, "_exponent_integrals", no_quadrature)
    # A general alpha off the lanes does reach the patched rule.
    with pytest.raises(AssertionError, match="quadrature called"):
        outage_probability(intersection_scenario(
            channel=ChannelParams(alpha=3.3, m=3), d=50.0, theta=0.5))
    for _, sc in default_verification_grid():
        assert 0.0 <= outage_probability(sc).outage_prob <= 1.0
    for name in cli.PRESETS:
        out = tmp_path / f"{name}.csv"
        assert cli.main(["preset", name, "--engine", "analytic",
                         "--out", str(out)]) == 0


# ---------------------------------------------------------------- derivatives

def test_exponent_derivative_zero_field():
    sc = x_lane_scenario(4.0, 0.0, 0.5, 0.0)
    for k in range(5):
        assert exponent(sc, 10.0, k) == 0.0


def test_exponent_first_derivative_matches_richardson_difference():
    # Central difference with one Richardson extrapolation step.
    for alpha in (2.0, 4.0):
        sc = x_lane_scenario(alpha, 12.0, 0.5, 0.01)
        for s in (20.0, 500.0, 1e4):
            def g(x):
                return exponent(sc, x, 0)
            step = 0.05 * s
            coarse = (g(s + step) - g(s - step)) / (2 * step)
            fine = (g(s + step / 2) - g(s - step / 2)) / step
            fd = (4 * fine - coarse) / 3
            exact = exponent(sc, s, 1)
            assert exact == pytest.approx(fd, rel=1e-6)


def _fd_first(L, s, step):
    return (-L(s + 2 * step) + 8 * L(s + step)
            - 8 * L(s - step) + L(s - 2 * step)) / (12 * step)


def _fd_second(L, s, step):
    return (-L(s + 2 * step) + 16 * L(s + step) - 30 * L(s)
            + 16 * L(s - step) - L(s - 2 * step)) / (12 * step ** 2)


def test_laplace_derivatives_match_finite_differences_on_grid():
    rng = np.random.default_rng(7112)
    checked = 0
    for alpha in (2.0, 4.0):
        for _ in range(25):
            s = 10.0 ** rng.uniform(0.7, 4.7)
            # Lane within the interference-relevant range of s, so both
            # derivative orders stay well above finite-difference noise.
            h = rng.uniform(0.0, 3.0 * s ** (1.0 / alpha))
            p = rng.uniform(0.2, 1.0)
            lam = 10.0 ** rng.uniform(-3.0, -1.7)
            sc = x_lane_scenario(alpha, h, p, lam)

            def L(x):
                return laplace(sc, x, 0)
            step = 0.02 * s
            d1 = laplace(sc, s, 1)
            d2 = laplace(sc, s, 2)
            assert d1 == pytest.approx(_fd_first(L, s, step), rel=1e-4)
            assert d2 == pytest.approx(_fd_second(L, s, step), rel=1e-4)
            checked += 1
    assert checked == 50


def test_complete_monotonicity_sign_pattern():
    # (-1)^n L^(n)(s) >= 0 for n <= 4 on a 100-point (s, h) grid.
    sc_cache = {}
    for alpha in (2.0, 4.0):
        for s in np.logspace(-1, 5, 10):
            for h in np.linspace(0.0, 900.0, 10):
                sc = sc_cache.setdefault(
                    (alpha, h), x_lane_scenario(alpha, h, 0.5, 0.01))
                for n in range(5):
                    value = laplace(sc, float(s), n)
                    assert (-1.0) ** n * value >= 0.0


# ------------------------------------------------------------- success/outage

def test_no_interference_gives_certain_success():
    sc = intersection_scenario(lam_x=0.0, lam_y=0.0, channel=LOS)
    res = outage_probability(sc)
    assert res.success_prob == 1.0
    assert res.outage_prob == 0.0
    assert sc.throughput(res.success_prob) == pytest.approx(math.log2(2.0))


def test_m1_reduces_to_product_of_transforms():
    sc = intersection_scenario(channel=NLOS, d=120.0, theta=0.4)
    g_arg = sc.laplace_argument
    product = math.prod(laplace_closed_alpha4(g_arg, lane, sc)
                        for lane in sc.lanes())
    assert success(sc) == pytest.approx(product, rel=1e-12)


def per_term(sc):
    """The m nonnegative summands e~_k of the success probability, from the
    engine's recurrence on the point's exponent coefficients."""
    g = _exponent_coefficients(sc, sc.laplace_argument, sc.channel.m - 1)
    return analytic._exp_coefficients(np.array([g]))[0].tolist()


def test_success_per_term_diagnostics():
    sc = intersection_scenario(channel=LOS)
    res = outage_probability(sc)
    terms = per_term(sc)
    assert len(terms) == LOS.m
    assert all(term >= 0.0 for term in terms)
    assert math.fsum(terms) == pytest.approx(res.success_prob, rel=1e-12)
    assert res.outage_prob == 1.0 - res.success_prob


@pytest.mark.parametrize("channel,d,theta", [
    (LOS, 0.0, 0.0), (ChannelParams(alpha=4.0, m=9), 30.0, 0.4),
    (ChannelParams(alpha=3.3, m=9), 50.0, 0.5),
    (ChannelParams(alpha=2.0, m=9), 300.0, 0.0)])
def test_recurrence_matches_bell_composition(channel, d, theta):
    # k! * e~_k = (-s)^k L^(k)(s) = (-1)^k * exp(x_0) * B_k(x_1..x_k), with
    # x_j = s^j g^(j)(s) = (-1)^j * j! * g~_j, for every m up to 9.
    for m in range(1, channel.m + 1):
        sc = intersection_scenario(channel=replace(channel, m=m), d=d,
                                   theta=theta)
        g = _exponent_coefficients(sc, sc.laplace_argument, m - 1)
        x = [(-1.0) ** j * math.factorial(j) * c for j, c in enumerate(g)]
        bell = complete_bell_sequence(x[1:])
        terms = per_term(sc)
        assert len(terms) == m
        assert all(term >= 0.0 for term in terms)
        for k, term in enumerate(terms):
            assert term * math.factorial(k) == pytest.approx(
                (-1.0) ** k * math.exp(x[0]) * bell[k], rel=1e-12), (m, k)


def test_outage_approaches_one_for_huge_threshold():
    sc = intersection_scenario(channel=NLOS, thresh=1e9)
    assert outage_probability(sc).outage_prob == pytest.approx(1.0, abs=1e-3)
    sc = intersection_scenario(channel=LOS, thresh=1e9)
    assert outage_probability(sc).outage_prob == pytest.approx(1.0, abs=1e-3)


def test_symmetric_scenario_invariant_under_road_swap():
    for channel in (LOS, NLOS):
        base = dict(channel=channel, d=300.0, lam_x=0.01, lam_y=0.01)
        sc = intersection_scenario(theta=math.pi / 4, **base)
        swapped = intersection_scenario(theta=math.pi / 2 - math.pi / 4,
                                        **base)
        assert success(sc) == pytest.approx(success(swapped), rel=1e-9)


@pytest.mark.parametrize("channel", [NLOS, LOS])
def test_outage_monotone_in_each_parameter(channel):
    base = dict(channel=channel, d=50.0, theta=0.0, r=15.0,
                lam_x=0.008, lam_y=0.008, p=0.5, thresh=1.0)

    def outage(**overrides):
        params = dict(base)
        params.update(overrides)
        return outage_probability(intersection_scenario(**params)).outage_prob

    for axis, values in [
        ("lam_x", np.linspace(0.0, 0.04, 5)),
        ("lam_y", np.linspace(0.0, 0.04, 5)),
        ("p", np.linspace(0.0, 1.0, 5)),
        ("thresh", np.logspace(-1, 2, 5)),
        ("r", np.linspace(5.0, 60.0, 5)),
    ]:
        outs = [outage(**{axis: float(v)}) for v in values]
        assert all(b >= a - 1e-12 for a, b in zip(outs, outs[1:])), \
            f"outage not nondecreasing in {axis}: {outs}"


@pytest.mark.parametrize("channel", [NLOS, LOS])
def test_highway_never_worse_than_intersection(channel):
    for d in (0.0, 100.0, 500.0):
        inter = intersection_scenario(channel=channel, d=d)
        highway = Scenario(channel=channel,
                           geometry=DestinationGeometry(d=d, theta=0.0),
                           link=LinkSpec(20.0),
                           layout=RoadLayout.highway(0.01),
                           p=0.5, theta_threshold=1.0)
        assert (outage_probability(highway).outage_prob
                <= outage_probability(inter).outage_prob + 1e-12)


@pytest.mark.parametrize("channel", [NLOS, LOS])
def test_far_from_intersection_matches_highway(channel):
    inter = intersection_scenario(channel=channel, d=1e4, theta=0.0)
    highway = Scenario(channel=channel,
                       geometry=DestinationGeometry(d=1e4, theta=0.0),
                       link=LinkSpec(20.0), layout=RoadLayout.highway(0.01),
                       p=0.5, theta_threshold=1.0)
    gap = abs(outage_probability(inter).outage_prob
              - outage_probability(highway).outage_prob)
    assert gap <= 1e-3


def test_two_coincident_lanes_equal_double_intensity():
    for channel in (NLOS, LOS):
        doubled = Scenario(channel=channel,
                           geometry=DestinationGeometry(80.0, 0.2),
                           link=LinkSpec(20.0),
                           layout=RoadLayout((0.0,), (0.0,), 0.02, 0.02),
                           p=0.5, theta_threshold=1.0)
        twin = Scenario(channel=channel,
                        geometry=DestinationGeometry(80.0, 0.2),
                        link=LinkSpec(20.0),
                        layout=RoadLayout((0.0, 0.0), (0.0, 0.0), 0.01, 0.01),
                        p=0.5, theta_threshold=1.0)
        assert success(twin) == pytest.approx(success(doubled), rel=1e-10)


@pytest.mark.parametrize("alpha,closed", [(4.0, laplace_closed_alpha4),
                                          (2.0, laplace_closed_alpha2)])
def test_multi_lane_road_matches_product_of_closed_forms(alpha, closed):
    # D at (0, 10): the X lanes lie at h = 10, 6.5, 6.5 and 3, so the road
    # has a duplicate offset and distinct distances.
    lanes_x = (0.0, 3.5, 3.5, 7.0)
    sc = Scenario(channel=ChannelParams(alpha=alpha, m=1),
                  geometry=DestinationGeometry(10.0, math.pi / 2),
                  link=LinkSpec(20.0),
                  layout=RoadLayout(lanes_x, (0.0,), 0.01, 0.01),
                  p=0.5, theta_threshold=1.0)
    for s in (1.0, 300.0, 2e4, sc.laplace_argument):
        product = math.prod(closed(s, lane, sc) for lane in sc.lanes())
        assert laplace(sc, s) == pytest.approx(product, rel=1e-8)
    g_arg = sc.laplace_argument
    product = math.prod(closed(g_arg, lane, sc) for lane in sc.lanes())
    assert outage_probability(sc).outage_prob == pytest.approx(
        1.0 - product, rel=1e-8)


def test_sign_pattern_holds_at_maximum_order():
    sc = intersection_scenario(channel=NLOS, d=20.0, theta=0.5, r=10.0)
    for s in (5.0, 500.0):
        for n in range(9):
            assert (-1.0) ** n * laplace(sc, s, n) >= 0.0


def test_roads_at_equal_distance_share_one_evaluation(monkeypatch):
    # At d = 46 the two coordinates of D round to the same float, so the
    # lanes of both roads lie at the same h and one quadrature of all
    # orders serves both.
    calls = []
    real = analytic._exponent_integrals

    def counted(s, hs, alpha, orders):
        calls.append((list(hs), orders))
        return real(s, hs, alpha, orders)
    monkeypatch.setattr(analytic, "_exponent_integrals", counted)
    channel = ChannelParams(alpha=3.0, m=3)
    sc = intersection_scenario(channel=channel, d=46.0, theta=math.pi / 4)
    res = outage_probability(sc)
    assert calls == [([sc.lanes()[0].h], range(3))]
    # The same field as one road carrying both intensities.
    merged = Scenario(channel=channel, geometry=sc.geometry, link=sc.link,
                      layout=RoadLayout.highway(0.02), p=0.5,
                      theta_threshold=1.0)
    assert res.success_prob == pytest.approx(success(merged), rel=1e-12)


@pytest.mark.parametrize("m", [3, 9])
@pytest.mark.parametrize("db,expected", [(-1000.0, 0.0), (-3000.0, 0.0),
                                         (3000.0, 1.0)])
def test_extreme_thresholds_evaluate(db, expected, m):
    # With D on both lanes, s = m*Theta*r^alpha spans 1e-297 to 1e306;
    # powers of s and the Bell terms must neither overflow nor give nan.
    for alpha in (2.0, 3.0, 4.0):
        sc = intersection_scenario(channel=ChannelParams(alpha=alpha, m=m),
                                   thresh=db_to_linear(db))
        assert outage_probability(sc).outage_prob == pytest.approx(
            expected, abs=1e-12), alpha
