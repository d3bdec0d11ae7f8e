import math
from dataclasses import replace

import numpy as np
import pytest

from xroad import analytic, cli
from xroad.analytic import (QuadratureError, UnsupportedExponentError,
                            _exponent_coefficients, _exponent_integral,
                            _exponent_integrals,
                            laplace_closed_alpha2, laplace_closed_alpha4,
                            outage_probability)
from xroad.bell import complete_bell_sequence
from xroad.model import (LOS, NLOS, ChannelParams, DestinationGeometry,
                         LinkSpec, RoadLayout, Scenario)
from xroad.sweep import db_to_linear, default_verification_grid

def scaled_exponent_derivatives(sc, s, max_order):
    """s^k * g^(k)(s) = (-1)^k * k! * g~_k for k = 0..max_order, from the
    engine's Taylor coefficients g~_k of g(s*(1 - tau))."""
    return [(-1.0) ** k * math.factorial(k) * c for k, c in
            enumerate(_exponent_coefficients(sc, s, max_order))]


def exponent_derivatives(sc, s, max_order):
    """g, g', ..., g^(max_order) of the total interference at s > 0."""
    return [x / s ** k for k, x in
            enumerate(scaled_exponent_derivatives(sc, s, max_order))]


def laplace(sc, s, n=0):
    """n-th derivative of the total interference's Laplace transform at s,
    composed independently of the engine's recurrence:
    s^n L^(n) = exp(x_0) * B_n(x_1..x_n) with x_k = s^k g^(k)(s)."""
    x = scaled_exponent_derivatives(sc, s, n)
    return math.exp(x[0]) * complete_bell_sequence(x[1:])[n] / s ** n


def exponent(sc, s, k=0):
    """k-th derivative of the log-Laplace exponent at s."""
    return exponent_derivatives(sc, s, k)[k]


def success(sc):
    return outage_probability(sc).success_prob


def quadrature_exponent(k, s, h, alpha, rate):
    """k-th derivative of one lane's exponent from the quadratured integral
    I_k: g = -rate*I_0 and, with g~_k = rate*I_k (k >= 1),
    s^k g^(k) = (-1)^k * k! * g~_k."""
    if k == 0:
        return -rate * _exponent_integral(0, s, h, alpha)
    return ((-1.0) ** k * math.factorial(k) * rate
            * _exponent_integral(k, s, h, alpha) / s ** k)


def x_lane_scenario(alpha: float, h: float, p: float, lam: float,
                    m: int = 1) -> Scenario:
    """A single X lane, with no Y road, whose perpendicular distance to D
    is h."""
    return Scenario(
        channel=ChannelParams(alpha=alpha, m=m),
        geometry=DestinationGeometry(d=h, theta=math.pi / 2),
        link=LinkSpec(r=20.0),
        layout=RoadLayout.highway(lam),
        p=p,
        theta_threshold=1.0,
    )


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


@pytest.mark.parametrize("alpha", [2.0, 4.0])
def test_engine_quadrature_branch_matches_jets(monkeypatch, alpha):
    # The engine quadratures only where no jet exists (general alpha off
    # the lane).  Forcing that branch at alpha in {2, 4} checks its
    # integrands and signs against the jets.
    sc = intersection_scenario(channel=ChannelParams(alpha=alpha, m=9),
                               d=30.0, theta=0.4)
    s = sc.laplace_argument
    expected = _exponent_coefficients(sc, s, 8)
    monkeypatch.setattr(analytic, "_lane_integral_jet", lambda *args: None)
    assert _exponent_coefficients(sc, s, 8) == pytest.approx(
        expected, rel=1e-8)


@pytest.mark.parametrize("alpha", [1.3, 2.5, 3.7, 6.0])
def test_on_lane_jet_matches_quadrature_for_general_alpha(alpha):
    # Quadrature reaches its tail bound at alpha = 1.3 only for small s.
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


def test_panel_rule_integrates_polynomials_exactly():
    # 20 Gauss-Legendre nodes integrate degree 39 exactly, on the whole
    # panel and on each half, up to the few ulps of numpy's leggauss.
    nodes, weights = analytic._panel_rule()
    for d in range(40):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        whole, halves = nodes ** d @ weights
        assert whole == pytest.approx(exact, abs=1e-14), d
        assert halves == pytest.approx(exact, abs=1e-14), d


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


@pytest.mark.parametrize("alpha", [1.2, 1.532, 2.5, 3.3, 6.0])
def test_shared_panel_rule_matches_scipy_on_the_truncated_interval(alpha):
    # Each order is truncated at the first T = 1e4 * 2^n where the tail
    # bound T * (rho/T)^tail_pow / (tail_pow - 1) is below half the budget;
    # QUADPACK over the same [-T, T] checks the panels.  At alpha = 1.2,
    # orders 0 and 1 decay too slowly for the bound (see the next test).
    first = 2 if alpha == 1.2 else 0
    for h in (1e-3, 3.0, 105.9, 400.0):
        for s in (1e-6, 1.0, 843.4, 1e10):
            rho = s ** (1.0 / alpha)
            values = _exponent_integrals(s, h, alpha, range(first, 9))
            for k, value in zip(range(first, 9), values):
                assert value == pytest.approx(
                    _exponent_integral(k, s, h, alpha), rel=1e-13)
                tail_pow = alpha * max(k, 1)
                T = 1e4
                while not (rho < T and T * (rho / T) ** tail_pow
                           / (tail_pow - 1.0) <= 0.25e-9 * value):
                    T *= 2.0
                assert value == pytest.approx(
                    scipy_truncated_integral(k, s, h, alpha, T),
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


def test_lane_far_below_the_peak_matches_the_on_lane_limit():
    # h * h underflows below about 1e-154 and would leave a(u) = 0 near the
    # peak at rho = s^(1/alpha) = 1e-200; with h that far below rho, J_k is
    # its h = 0 Beta integral up to a relative (h/rho)^2.
    def beta(a, b):
        return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    s, h, alpha = 1e-300, 1e-300, 1.5
    b = 1.0 / alpha
    for k, value in enumerate(_exponent_integrals(s, h, alpha, range(3))):
        expected = 2.0 * b * s ** b * (beta(b, 1.0 - b) if k == 0
                                       else beta(1.0 + b, k - b))
        assert value == pytest.approx(expected, rel=1e-12), k


def test_slow_tails_off_the_lane_miss_the_tail_bound():
    for s in (843.4, 1e-300):
        with pytest.raises(QuadratureError,
                           match="tail bound never met the tolerance"):
            _exponent_integrals(s, 3.0, 1.2, range(9))
    sc = intersection_scenario(channel=ChannelParams(alpha=1.05, m=3),
                               d=50.0, theta=0.5)
    with pytest.raises(QuadratureError,
                       match="tail bound never met the tolerance"):
        outage_probability(sc)


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


def test_verify_grid_and_presets_need_no_quadrature(monkeypatch, tmp_path):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature called")
    monkeypatch.setattr(analytic, "_panel_sums", no_quadrature)
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


def test_success_per_term_diagnostics():
    sc = intersection_scenario(channel=LOS)
    res = outage_probability(sc)
    assert len(res.per_term) == LOS.m
    assert all(term >= 0.0 for term in res.per_term)
    assert math.fsum(res.per_term) == pytest.approx(res.success_prob,
                                                    rel=1e-12)
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
        terms = outage_probability(sc).per_term
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

    def counted(s, h, alpha, orders, *args, **kwargs):
        calls.append((h, orders))
        return real(s, h, alpha, orders, *args, **kwargs)
    monkeypatch.setattr(analytic, "_exponent_integrals", counted)
    channel = ChannelParams(alpha=3.0, m=3)
    sc = intersection_scenario(channel=channel, d=46.0, theta=math.pi / 4)
    res = outage_probability(sc)
    assert calls == [(sc.lanes()[0].h, range(3))]
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
