"""Analytic outage engine.

Everything is assembled from the Laplace transform of the total
interference from both roads,

    L(s) = exp(g(s)),   g(s) = -p * sum_lanes lam * int_R s / (s + a(u)) du,

where a(u) = (h^2 + u^2)^(alpha/2), h is the lane's distance from the
destination (Lane.h) and u an interferer's coordinate along the lane from
the point nearest the destination; the roads are infinite, so Lane.c drops
out.  The lanes carry independent Poisson fields, so one exponent g sums
them all; lanes at the same h, on either road, share one evaluation.  The
success probability of a link with an integer gamma-fading parameter m is

    P_s = sum_{k<m} (-s)^k / k! * L^(k)(s),   s = m*Theta/(mu*l_SD),

the sum of the first m Taylor coefficients of L(s*(1 - tau)) in tau.  The
engine works in those coefficients: g~_k of g(s*(1 - tau)), and e~_k of its
exponential, from the derivative of exp(G) being G' exp(G):

    e~_0 = exp(g~_0),   e~_k = (1/k) * sum_{j=1..k} j * g~_j * e~_{k-j}.

-g is a Bernstein function, so g~_k >= 0 for k >= 1 and every e~_k is a
sum of nonnegative terms; the g~_k (k >= 1) sum to -g~_0, so the e~_k sum
to L(0) = 1.  No factorial, power of s or alternating sign is formed.

The lane integral J(s) has closed forms for alpha = 2, for alpha = 4, and
for any alpha when the destination lies on the lane (h = 0).  There the
coefficients come from one pass of truncated-Taylor ("jet") arithmetic on
the closed form seeded with s*(1 - tau), with no quadrature.  Otherwise
they are quadratured under the integral sign, over integrands in [0, 1]:
with y = s/(s + a),

    s(1 - tau) / (s(1 - tau) + a) = y - (1 - y) * sum_{k>=1} y^k tau^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Lane, Scenario

#: Hard cap on window doublings while chasing the analytic tail bound.
_MAX_SEGMENTS = 96

#: Initial half-width of the quadrature window, m.
_TRUNCATION = 1e4

#: Relative error requested from the quadrature of each integral.
_REL_TOL = 1e-9

#: Relative error requested from each QUADPACK call: a window or a doubling.
_PIECE_REL = _REL_TOL / 16.0

#: scipy.integrate.quad, once quad() has loaded it.
_scipy_quad = None


class UnsupportedExponentError(ValueError):
    """A closed form was requested for a path-loss exponent it does not cover."""


class QuadratureError(ArithmeticError):
    """Adaptive quadrature could not meet the requested relative tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved relative error {achieved:.3e})")
        self.achieved = achieved


class ConsistencyError(ArithmeticError):
    """A probability landed outside [0, 1] by more than rounding allows."""


@dataclass(frozen=True)
class AnalyticResult:
    """Outage and success of one scenario, with the per-order summands kept
    for diagnostics."""

    success_prob: float
    outage_prob: float
    per_term: tuple[float, ...]


def quad(f, a: float, b: float, points=None) -> tuple[float, float]:
    """(integral, error estimate) of f over [a, b] from QUADPACK, at the
    engine's settings: relative tolerance _PIECE_REL only, up to 200
    subintervals, breakpoints `points` inside [a, b].  scipy.integrate is
    imported on the first call, so runs whose integrals all have closed
    forms never load it."""
    global _scipy_quad
    if _scipy_quad is None:
        from scipy.integrate import quad as _scipy_quad
    # full_output keeps QUADPACK's warnings out of stderr; the caller judges
    # the error estimate.
    return _scipy_quad(f, a, b, epsabs=0.0, epsrel=_PIECE_REL, limit=200,
                       points=points, full_output=True)[:2]


def _half_line_integral(f, rho: float, tail_pow: float, peak_scale: float,
                        err_cap: float) -> float:
    """integral of f over [0, inf) for a positive integrand bounded above by
    (rho/u)**tail_pow once u is large.

    Integrates [0, T] adaptively, then doubles T until the analytic tail
    bound T * (rho/T)**tail_pow / (tail_pow-1) drops below half the error
    budget; the quadrature errors reported by QUADPACK cover the rest.
    err_cap additionally bounds the absolute error so that a large integral
    (a strongly interfered lane) does not lose accuracy in the success
    probability, which an absolute error d in any g~_j moves by at most d
    times itself (the derivative of e~_k in g~_j is e~_{k-j}).
    """
    T = _TRUNCATION
    # Initial breakpoints make QUADPACK resolve the peak near u = 0 even
    # when the window is much wider than the integrand.  When the peak
    # scale is small, the piece beyond 8x it spans decades, and QUADPACK
    # can report convergence there while off by 3e-3 relative; the fixed
    # breakpoints split it by decade.
    pts = {min(peak_scale, T * 0.5), min(8.0 * peak_scale, T * 0.75)}
    pts.update(x for x in (1.0, 10.0, 100.0) if x > 8.0 * peak_scale)
    total, err = quad(f, 0.0, T, points=sorted(x for x in pts if x > 0.0))
    err_sum = err
    for _ in range(_MAX_SEGMENTS):
        # While T <= rho the power may overflow; the bound is then at
        # least T/(tail_pow-1), far above the budget.
        tail_bound = (T * (rho / T) ** tail_pow / (tail_pow - 1.0)
                      if rho < T else math.inf)
        if tail_bound <= 0.5 * _REL_TOL * min(total, err_cap):
            if err_sum + tail_bound > _REL_TOL * total:
                raise QuadratureError(
                    "interference integral did not converge",
                    (err_sum + tail_bound) / total if total else math.inf)
            return total
        piece, err = quad(f, T, 2.0 * T)
        total += piece
        err_sum += err
        T *= 2.0
    raise QuadratureError("tail bound never met the tolerance",
                          tail_bound / max(total, 1e-300))


def _exponent_integral(k: int, s: float, h: float, alpha: float,
                       err_cap: float = math.inf) -> float:
    """int_R y du for k = 0, or int_R (1 - y) * y^k du for k >= 1, where
    y = s/(s + a(u)) and a(u) = (h^2 + u^2)^(alpha/2).  Both integrands lie
    in [0, 1] and are even, so only the half line is quadratured."""
    half = 0.5 * alpha

    def f(u: float) -> float:
        try:
            y = s / (s + (h * h + u * u) ** half)
        except OverflowError:       # a(u) beyond the float range: y = 0
            return 0.0
        return (1.0 - y) * y ** k if k else y
    rho = s ** (1.0 / alpha)
    return 2.0 * _half_line_integral(f, rho, alpha * max(k, 1), h + rho,
                                     err_cap)


def _jet_mul(a: list[float], b: list[float]) -> list[float]:
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))]


def _jet_div(a: list[float], b: list[float]) -> list[float]:
    q: list[float] = []
    for k in range(len(a)):
        q.append((a[k] - sum(b[j] * q[k - j] for j in range(1, k + 1)))
                 / b[0])
    return q


def _jet_sqrt(a: list[float]) -> list[float]:
    r = [math.sqrt(a[0])]
    for k in range(1, len(a)):
        r.append((a[k] - sum(r[j] * r[k - j] for j in range(1, k)))
                 / (2.0 * r[0]))
    return r


def _lane_integral_jet(s: float, h: float, alpha: float,
                       order: int) -> list[float] | None:
    """Taylor coefficients c_0..c_order of J(s*(1 - tau)) = sum_k c_k tau^k,
    where J(s) = int_R s/(s + a(u)) du, when J has a closed form; None
    otherwise.

    The coefficients come from truncated-Taylor arithmetic on coefficient
    lists (+, *, /, sqrt), so all orders are exact up to rounding:

      alpha = 2:       J = pi * s / sqrt(s + h^2)
      alpha = 4:       J = pi * s / (sqrt(2) * w * sqrt(w + h^2)),
                       w = sqrt(h^4 + s); the quotient form avoids the
                       cancellation in (w - h^2) when s << h^4
      h = 0, any alpha: J = 2*pi * s^(1/alpha) / (alpha * sin(pi/alpha))
    """
    t = ([s, -s] + [0.0] * order)[:order + 1]    # the jet of s*(1 - tau)
    if alpha == 2.0:
        x = [s + h * h] + t[1:]
        return [math.pi * c for c in _jet_div(t, _jet_sqrt(x))]
    if alpha == 4.0:
        w = _jet_sqrt([h ** 4 + s] + t[1:])
        den = _jet_mul(w, _jet_sqrt([w[0] + h * h] + w[1:]))
        return [math.pi / math.sqrt(2.0) * c for c in _jet_div(t, den)]
    if h == 0.0:
        # (s*(1 - tau))^beta = s^beta * sum_k binom(beta, k) (-tau)^k.
        beta = 1.0 / alpha
        c = [2.0 * math.pi * s ** beta / (alpha * math.sin(math.pi / alpha))]
        for k in range(1, order + 1):
            c.append(c[-1] * (k - 1 - beta) / k)
        return c
    return None


def _laplace_closed(alpha: float, s: float, lane: Lane,
                    scenario: Scenario) -> float:
    """Laplace transform of one lane's interference at s, from the closed
    form for `alpha`; the lane must come from scenario.lanes()."""
    if scenario.channel.alpha != alpha:
        raise UnsupportedExponentError(
            f"closed form needs alpha = {alpha:g}, got {scenario.channel.alpha}")
    if s < 0.0:
        raise ValueError("transform argument s must be nonnegative")
    if s == 0.0:
        return 1.0
    j = _lane_integral_jet(s, lane.h, alpha, 0)[0]
    return math.exp(-scenario.p * lane.intensity * j)


def laplace_closed_alpha4(s: float, lane: Lane, scenario: Scenario) -> float:
    """Closed-form Laplace transform, alpha = 4, of a scenario.lanes() lane."""
    return _laplace_closed(4.0, s, lane, scenario)


def laplace_closed_alpha2(s: float, lane: Lane, scenario: Scenario) -> float:
    """Closed-form Laplace transform, alpha = 2, of a scenario.lanes() lane."""
    return _laplace_closed(2.0, s, lane, scenario)


def _exponent_coefficients(scenario: Scenario, s: float,
                           order: int) -> list[float]:
    """Taylor coefficients g~_0..g~_order of g(s*(1 - tau)), where g is the
    exponent of the Laplace transform of the total interference from both
    roads; g~_k = (-s)^k g^(k)(s) / k!.

    The lanes are independent point processes, so g = -sum_h rate_h * J(s; h)
    over the distinct lane distances h of scenario.lanes(), with rate_h the
    summed p*lam of the lanes at h on either road.  Each h is evaluated
    once, from the closed-form jet where one exists and otherwise by
    quadrature.
    """
    out = [0.0] * (order + 1)
    if s == 0.0:
        return out
    rates: dict[float, float] = {}
    for lane in scenario.lanes():
        rate = scenario.p * lane.intensity
        if rate > 0.0:
            rates[lane.h] = rates.get(lane.h, 0.0) + rate
    alpha = scenario.channel.alpha
    # a(u) <= s where |u| <= sqrt(rho^2 - h^2), rho = s^(1/alpha), and there
    # s/(s+a) >= 1/2, so J(s; h) >= sqrt((rho - h)(rho + h)).  Past 800 the
    # caller's exp(g~_0) underflows whatever the rest of J is, so at huge s
    # (also s = inf, from an overflowed laplace_argument) J is not needed.
    rho = s ** (1.0 / alpha)
    if sum(rate * math.sqrt(max(rho - h, 0.0) * (rho + h))
           for h, rate in rates.items()) > 800.0:
        return [-math.inf] + out[1:]
    for h, rate in rates.items():
        coeffs = _lane_integral_jet(s, h, alpha, order)
        if coeffs is None:
            cap = 1.0 / rate
            coeffs = [_exponent_integral(0, s, h, alpha, err_cap=cap)]
            coeffs += [-_exponent_integral(k, s, h, alpha, err_cap=cap)
                       for k in range(1, order + 1)]
        for k, c in enumerate(coeffs):
            out[k] -= rate * c
    return out


def _clamp_probability(value: float) -> float:
    if 0.0 <= value <= 1.0:
        return value
    if -1e-9 <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + 1e-9:
        return 1.0
    raise ConsistencyError(
        f"success probability {value} outside [0, 1] beyond rounding")


def outage_probability(scenario: Scenario) -> AnalyticResult:
    """Outage and success probability of the link; success is the sum of m
    nonnegative per-order summands (per_term), the Taylor coefficients
    e~_k of L(s*(1 - tau)) = exp(sum_k g~_k tau^k)."""
    m = scenario.channel.m
    g = _exponent_coefficients(scenario, scenario.laplace_argument, m - 1)
    terms = [math.exp(g[0])]
    for k in range(1, m):
        terms.append(math.fsum(j * g[j] * terms[k - j]
                               for j in range(1, k + 1)) / k)
    success = _clamp_probability(math.fsum(terms))
    return AnalyticResult(
        success_prob=success,
        outage_prob=1.0 - success,
        per_term=tuple(terms),
    )
