"""Test helpers for the analytic engine: reference values from
scipy.integrate.quad, derivatives of the Laplace transform composed with
complete Bell polynomials, a one-lane scenario, and an engine that fails on
demand.

The reference is independent of the engine's own rule: each lane integral
is summed over the pieces [sigma 2^j, sigma 2^(j+1)], -60 <= j < 60, sigma
= h + s^(1/alpha), and its tail beyond U = sigma 2^60 is the integral of
(s/u^alpha)^max(k, 1), which the integrand matches there to a relative
(h/U)^2 + s/U^alpha, below 1e-17.  Past sigma the integrand falls as
u^-q, q = alpha * max(k, 1), so the sum stops before the first piece on
which it becomes subnormal, where QUADPACK loses its relative accuracy;
what it drops is at most f(a) a/(q - 1) from that piece's left end a.
The success probability is composed from the exponent's derivatives
with complete Bell polynomials.  _exponent_coefficients reads the engine's
exponent of one point at a given s.
"""

import math
import sys
import warnings

import numpy as np

from xroad import analytic
from xroad.analytic import QuadratureError, outage_probability
from xroad.bell import complete_bell_sequence
from xroad.model import (ChannelParams, DestinationGeometry, LinkSpec,
                         RoadLayout, Scenario)


def fail_alpha(monkeypatch, alpha):
    """Make the analytic engine raise a QuadratureError at `alpha` only."""
    real = analytic.success_probabilities

    def engine(batch):
        return [QuadratureError("interference integral did not converge",
                                1e-3) if point_alpha == alpha
                else result
                for point_alpha, result in zip(batch.alpha.tolist(),
                                               real(batch))]
    monkeypatch.setattr(analytic, "success_probabilities", engine)


def lane_integral(k, s, h, alpha):
    """J_0 = int_R y du, or J_k = int_R (1 - y) y^k du for k >= 1, where
    y = s/(s + (h^2 + u^2)^(alpha/2)).  Raises on any IntegrationWarning."""
    from scipy.integrate import IntegrationWarning, quad

    def f(u):
        # ln(a/s) = w0 + dw, its part dw that changes slowly with u kept to
        # its own precision, so that a flat integrand is smooth to rounding.
        big, small = max(h, u), min(h, u)
        w0 = alpha * math.log(big) - math.log(s)
        dw = 0.5 * alpha * math.log1p((small / big) ** 2)
        w = w0 + dw
        e = math.exp(-w0) * math.exp(-dw) if w > 0.0 else math.exp(w)
        y, y1 = (e, 1.0) if w > 0.0 else (1.0, e)        # y, 1 - y times 1+e
        return y1 * y ** k / (1.0 + e) ** (k + 1) if k else y / (1.0 + e)
    sigma = h + s ** (1.0 / alpha)
    edges = [0.0] + [sigma * 2.0 ** j for j in range(-60, 61)]
    q = alpha * max(k, 1)
    pieces, dropped = [], None
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for a, b in zip(edges, edges[1:]):
            if a >= sigma and f(b) < sys.float_info.min:
                dropped = f(a) * a / (q - 1.0)
                break
            pieces.append(quad(f, a, b, epsabs=0.0, epsrel=1e-13,
                               limit=200)[0])
    body = math.fsum(pieces)
    if dropped is not None:
        assert dropped <= 1e-15 * body, (k, s, h, alpha)
        return 2.0 * body
    tail = math.exp(max(k, 1) * math.log(s) + (1.0 - q) * math.log(edges[-1]))
    return 2.0 * (body + tail / (q - 1.0))


def success_probability(scenario):
    """P_s = sum_{n<m} (-s)^n / n! L^(n)(s), with L = exp(g) and
    g = -sum_lanes p * lambda * J_0, from lane_integral."""
    m = scenario.channel.m
    s = scenario.laplace_argument
    alpha = scenario.channel.alpha
    rates = {}
    for lane in scenario.lanes():
        rates[lane.h] = rates.get(lane.h, 0.0) + scenario.p * lane.intensity
    # s^k g^(k)(s) = -sum rate * s^k d^k/ds^k J_0(s), and
    # s^k d^k/ds^k J_0 = (-1)^(k+1) k! J_k for k >= 1.
    x = [0.0] * m
    for h, rate in rates.items():
        for k in range(m):
            j = lane_integral(k, s, h, alpha)
            x[k] -= rate * (j if k == 0 else (-1) ** (k + 1)
                            * math.factorial(k) * j)
    bell = complete_bell_sequence(x[1:])
    return math.exp(x[0]) * math.fsum(
        (-1) ** n * bell[n] / math.factorial(n) for n in range(m))


def _exponent_coefficients(scenario, s, order):
    """Taylor coefficients g~_0..g~_order of g(s*(1 - tau)), where g is the
    exponent of the Laplace transform of the total interference from both
    roads; g~_k = (-s)^k g^(k)(s) / k!.  The engine's _exponent_table for
    one point: the lanes from Scenario.lanes(), s as given, whatever the
    scenario's own Laplace argument is."""
    lanes = scenario.lanes()
    g, [error] = analytic._exponent_table(analytic.Points(
        np.array([s], dtype=float),
        np.array([scenario.channel.alpha], dtype=float), np.array([order]),
        *analytic.merged_lanes(
            np.zeros(len(lanes), dtype=int),
            np.array([lane.h for lane in lanes], dtype=float),
            np.array([scenario.p * lane.intensity for lane in lanes],
                     dtype=float))))
    if error is not None:
        raise error
    return g[0].tolist()


def scaled_exponent_derivatives(sc, s, max_order):
    """s^k * g^(k)(s) = (-1)^k * k! * g~_k for k = 0..max_order, from the
    engine's Taylor coefficients g~_k of g(s*(1 - tau))."""
    return [(-1.0) ** k * math.factorial(k) * c for k, c in
            enumerate(_exponent_coefficients(sc, s, max_order))]


def laplace(sc, s, n=0):
    """n-th derivative of the total interference's Laplace transform at s,
    composed independently of the engine's recurrence:
    s^n L^(n) = exp(x_0) * B_n(x_1..x_n) with x_k = s^k g^(k)(s)."""
    x = scaled_exponent_derivatives(sc, s, n)
    return math.exp(x[0]) * complete_bell_sequence(x[1:])[n] / s ** n


def success(sc):
    return outage_probability(sc).success_prob


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
