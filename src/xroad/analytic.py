"""Analytic outage engine.

Everything is assembled from the Laplace transform of the aggregate
interference seen from one road axis,

    L(s) = exp(g(s)),   g(s) = -p*lam * sum_lanes int_R  s / (s + a(u)) du,

where a(u) = (h^2 + u^2)^(alpha/2) is the path-loss distance term of an
interferer at along-lane coordinate u, and h is the perpendicular distance
from the destination to the lane.  The _axis_* functions are the one code
path for g and L, used by the engine and the tests alike.  The success
probability of a link with an integer gamma-fading parameter m is a finite
sum over derivatives of the two per-road transforms at s = m*Theta/(mu*l_SD).

The lane integral has closed forms for alpha = 2, for alpha = 4, and for
any alpha when the destination lies on the lane (h = 0).  There g and all
its derivatives come from one pass of truncated-Taylor ("jet") arithmetic
on the closed form, with no quadrature.  Otherwise the derivatives of g
are quadratured under the integral sign, where they are exact:

    d^k/ds^k [ s/(s+a) ] = (-1)^(k+1) * k! * a / (s+a)^(k+1)   (k >= 1).

Derivatives of L = exp(g) follow by complete-Bell-polynomial composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .bell import complete_bell_sequence
from .model import Lane, Scenario, destination_position, perpendicular_distance

#: Highest supported derivative order of L (so m can be at most MAX_ORDER+1).
MAX_ORDER = 8

#: Hard cap on window doublings while chasing the analytic tail bound.
_MAX_SEGMENTS = 96

#: Initial half-width of the quadrature window, m.
_TRUNCATION = 1e4


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
class LaplaceEvalConfig:
    """Quadrature controls for the numeric Laplace-transform path."""

    rel_tol: float = 1e-9       # requested total relative error

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-6):
            raise ValueError("rel_tol must lie in (0, 1e-6]")


DEFAULT_EVAL = LaplaceEvalConfig()


@dataclass(frozen=True)
class AnalyticResult:
    """Outage, success and throughput of one scenario, with the per-order
    summands kept for diagnostics."""

    success_prob: float
    outage_prob: float
    throughput: float           # bits/s/Hz
    per_term: tuple[float, ...]


def _lane_h(lane: Lane, scenario: Scenario) -> float:
    pos = destination_position(scenario.geometry)
    return perpendicular_distance(pos, lane.axis, lane.offset)


def _half_line_integral(f, tail_coeff: float, tail_pow: float,
                        peak_scale: float, cfg: LaplaceEvalConfig,
                        err_cap: float) -> float:
    """integral of f over [0, inf) for a positive integrand bounded above by
    tail_coeff * u**(-tail_pow) once u is large.

    Integrates [0, T] adaptively, then doubles T until the analytic tail
    bound tail_coeff * T**(1-tail_pow) / (tail_pow-1) drops below half the
    error budget; the quadrature errors reported by QUADPACK cover the rest.
    err_cap additionally bounds the absolute error so that a large integral
    (a strongly interfered lane) does not lose accuracy in exp().
    """
    piece_rel = cfg.rel_tol / 16.0
    T = _TRUNCATION
    # Initial breakpoints make QUADPACK resolve the peak near u = 0 even
    # when the window is much wider than the integrand.
    pts = sorted({min(peak_scale, T * 0.5), min(8.0 * peak_scale, T * 0.75)})
    total, err, _ = quad(f, 0.0, T, epsabs=0.0, epsrel=piece_rel,
                         limit=200, points=[x for x in pts if x > 0.0],
                         full_output=True)[:3]
    err_sum = err
    for _ in range(_MAX_SEGMENTS):
        budget = 0.5 * cfg.rel_tol * min(total, err_cap)
        tail_bound = tail_coeff * T ** (1.0 - tail_pow) / (tail_pow - 1.0)
        if tail_bound <= budget:
            if err_sum + tail_bound > cfg.rel_tol * total:
                raise QuadratureError(
                    "interference integral did not converge",
                    (err_sum + tail_bound) / total if total else math.inf)
            return total
        piece, err, _ = quad(f, T, 2.0 * T, epsabs=0.0, epsrel=piece_rel,
                             limit=200, full_output=True)[:3]
        total += piece
        err_sum += err
        T *= 2.0
    raise QuadratureError("tail bound never met the tolerance",
                          tail_coeff * T ** (1.0 - tail_pow)
                          / max((tail_pow - 1.0) * total, 1e-300))


def _exponent_integral(k: int, s: float, h: float, alpha: float,
                       cfg: LaplaceEvalConfig, err_cap: float = math.inf) -> float:
    """J_0 = int_R s/(s+a) du for k = 0, or J_k = int_R a/(s+a)^(k+1) du for
    k >= 1, with a(u) = (h^2 + u^2)^(alpha/2).  Both integrands are even, so
    only the half line is quadratured."""
    half = 0.5 * alpha
    scale = h + s ** (1.0 / alpha)
    if k == 0:
        def f(u: float) -> float:
            return s / (s + (h * h + u * u) ** half)
        tail_coeff, tail_pow = s, alpha
    else:
        kk = k + 1

        def f(u: float) -> float:
            a = (h * h + u * u) ** half
            return a / (s + a) ** kk
        tail_coeff, tail_pow = 1.0, alpha * k
    return 2.0 * _half_line_integral(f, tail_coeff, tail_pow, scale, cfg,
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
    """Taylor coefficients c_0..c_order of J(s + t) = sum_k c_k t^k, where
    J(s) = int_R s/(s + a(u)) du, when J has a closed form; None otherwise.

    The coefficients come from truncated-Taylor arithmetic on coefficient
    lists (+, *, /, sqrt), so all orders are exact up to rounding:

      alpha = 2:       J = pi * s / sqrt(s + h^2)
      alpha = 4:       J = pi * s / (sqrt(2) * w * sqrt(w + h^2)),
                       w = sqrt(h^4 + s); the quotient form avoids the
                       cancellation in (w - h^2) when s << h^4
      h = 0, any alpha: J = 2*pi * s^(1/alpha) / (alpha * sin(pi/alpha))
    """
    t = ([s, 1.0] + [0.0] * order)[:order + 1]      # the jet of s itself
    if alpha == 2.0:
        x = [s + h * h] + t[1:]
        return [math.pi * c for c in _jet_div(t, _jet_sqrt(x))]
    if alpha == 4.0:
        w = _jet_sqrt([h ** 4 + s] + t[1:])
        den = _jet_mul(w, _jet_sqrt([w[0] + h * h] + w[1:]))
        return [math.pi / math.sqrt(2.0) * c for c in _jet_div(t, den)]
    if h == 0.0:
        # Coefficients of (s + t)^beta: binom(beta, k) * s^(beta - k).
        beta = 1.0 / alpha
        c = [2.0 * math.pi * s ** beta / (alpha * math.sin(math.pi / alpha))]
        for k in range(1, order + 1):
            c.append(c[-1] * (beta - k + 1) / (k * s))
        return c
    return None


def _laplace_closed(alpha: float, s: float, lane: Lane,
                    scenario: Scenario) -> float:
    if scenario.channel.alpha != alpha:
        raise UnsupportedExponentError(
            f"closed form needs alpha = {alpha:g}, got {scenario.channel.alpha}")
    if s < 0.0:
        raise ValueError("transform argument s must be nonnegative")
    if s == 0.0:
        return 1.0
    rate = scenario.p * scenario.lane_intensity(lane)
    j = _lane_integral_jet(s, _lane_h(lane, scenario), alpha, 0)[0]
    return math.exp(-rate * j)


def laplace_closed_alpha4(s: float, lane: Lane, scenario: Scenario) -> float:
    """Closed-form lane Laplace transform for path-loss exponent 4."""
    return _laplace_closed(4.0, s, lane, scenario)


def laplace_closed_alpha2(s: float, lane: Lane, scenario: Scenario) -> float:
    """Closed-form lane Laplace transform for path-loss exponent 2."""
    return _laplace_closed(2.0, s, lane, scenario)


def _axis_exponent_derivatives(scenario: Scenario, axis: str, s: float,
                               max_order: int,
                               cfg: LaplaceEvalConfig) -> list[float]:
    """g and its derivatives for one road axis with all lanes folded in.

    Per lane, g = -p*lam*J_0 and g^(k) = (-1)^k * k! * p*lam*J_k (k >= 1), so
    -g is a Bernstein function.  Lanes on the same axis are independent
    point processes, so their exponents (and exponent derivatives) add.
    Lanes sharing a perpendicular distance are evaluated once, from the
    closed-form jet where one exists and by quadrature otherwise.
    """
    layout = scenario.layout
    offsets = layout.lanes_x if axis == "x" else layout.lanes_y
    lam = layout.lambda_x if axis == "x" else layout.lambda_y
    rate = scenario.p * lam
    if rate == 0.0 or not offsets or s == 0.0:
        return [0.0] * (max_order + 1)
    pos = destination_position(scenario.geometry)
    h_counts: dict[float, int] = {}
    for w in offsets:
        h = perpendicular_distance(pos, axis, w)
        h_counts[h] = h_counts.get(h, 0) + 1
    out = [0.0] * (max_order + 1)
    alpha = scenario.channel.alpha
    for h, count in h_counts.items():
        weight = count * rate
        coeffs = _lane_integral_jet(s, h, alpha, max_order)
        if coeffs is not None:
            for k, c in enumerate(coeffs):
                out[k] -= weight * math.factorial(k) * c
            continue
        cap = 1.0 / weight
        for k in range(max_order + 1):
            j = _exponent_integral(k, s, h, alpha, cfg, err_cap=cap)
            sign = -1.0 if k == 0 else (-1.0) ** k * math.factorial(k)
            out[k] += weight * sign * j
    return out


def _axis_laplace_derivatives(scenario: Scenario, axis: str, s: float,
                              max_order: int,
                              cfg: LaplaceEvalConfig) -> list[float]:
    """L and its derivatives up to max_order for one whole road axis."""
    g = _axis_exponent_derivatives(scenario, axis, s, max_order, cfg)
    if all(v == 0.0 for v in g):
        # No interferers on this axis: L == 1 with vanishing derivatives.
        return [1.0] + [0.0] * max_order
    scale = math.exp(g[0])
    return [scale * b for b in complete_bell_sequence(g[1:])]


def _clamp_probability(value: float) -> float:
    if 0.0 <= value <= 1.0:
        return value
    if -1e-9 <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + 1e-9:
        return 1.0
    raise ConsistencyError(
        f"success probability {value} outside [0, 1] beyond rounding")


def outage_probability(scenario: Scenario,
                       cfg: LaplaceEvalConfig = DEFAULT_EVAL) -> AnalyticResult:
    """Outage probability, success probability and throughput of the link;
    success is the sum of m nonnegative per-order summands (per_term)."""
    m = scenario.channel.m
    if m - 1 > MAX_ORDER:
        raise ValueError(
            f"fading parameter m = {m} needs derivative orders beyond {MAX_ORDER}")
    g_arg = scenario.laplace_argument
    lx = _axis_laplace_derivatives(scenario, "x", g_arg, m - 1, cfg)
    ly = _axis_laplace_derivatives(scenario, "y", g_arg, m - 1, cfg)
    terms = []
    for k in range(m):
        inner = math.fsum(math.comb(k, n) * lx[k - n] * ly[n]
                          for n in range(k + 1))
        if inner == 0.0:
            terms.append(0.0)  # avoids inf * 0 when g_arg**k overflows
            continue
        terms.append((-g_arg) ** k / math.factorial(k) * inner)
    success = _clamp_probability(math.fsum(terms))
    return AnalyticResult(
        success_prob=success,
        outage_prob=1.0 - success,
        throughput=success * math.log2(1.0 + scenario.theta_threshold),
        per_term=tuple(terms),
    )
