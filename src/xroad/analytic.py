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

All orders of one h share a single rule: y is evaluated once, in numpy, on
Gauss-Legendre panels (ratio-2 panels around the peak, then windows that
double), and each order's integrand is built from it, y^k by repeated
multiplication.  Each panel's error is estimated by halving it, and only
the panels that estimate flags are halved again.  Cumulative panel sums
give every truncated total at once; each order stops at the first window
edge where its analytic tail bound is within budget.

Within sharing_lane_integrals(), which run_sweep enters, points that
quadrature the same (s, h, alpha, order) share one evaluation when its
result does not depend on the lane's rate (see _exponent_coefficients).
"""

from __future__ import annotations

import contextlib
import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .model import Lane, Scenario

#: Doubling windows beyond the head in which the tail bound may be met.
_MAX_SEGMENTS = 96

#: Half-width of the head, m: the first window edge T_0.
_TRUNCATION = 1e4

#: Relative error requested from the quadrature of each integral.
_REL_TOL = 1e-9

#: A panel is halved while its halving estimate exceeds this fraction of an
#: order's total.
_PANEL_REL = 1e-13

#: Most panels that halving may add to one set of panels.
_MAX_ADDED_PANELS = 200

#: Rounding of an integrand value at the bottom of the float range, where a
#: subnormal keeps few bits and each factor of y^k adds up to 2**-1074;
#: a panel's halving estimate is counted net of it times the panel length.
_SUBNORMAL_NOISE = 1e-320

#: Relative error requested from each call of the quad() shim.
_PIECE_REL = _REL_TOL / 16.0

#: scipy.integrate.quad, once quad() has loaded it.
_scipy_quad = None

#: Quadratured lane integrals shared by the points of one
#: sharing_lane_integrals() block: (s, h, alpha, order) -> (J_0..J_order,
#: largest half-line total).  Unset outside such a block.
_shared_integrals: ContextVar[dict] = ContextVar("_shared_integrals")


@functools.cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] for _panel_sums and their weights: column 0 is the
    20-point Gauss-Legendre rule on the whole interval, column 1 the same
    rule on each half.  Built on first use, so numpy.polynomial is loaded
    only by a process that quadratures."""
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(20)
    nodes = np.concatenate([x, 0.5 * (x - 1.0), 0.5 * (x + 1.0)])
    weights = np.zeros((3 * len(x), 2))
    weights[:len(x), 0] = w
    weights[len(x):, 1] = 0.5 * np.tile(w, 2)
    return nodes, weights


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
    """(integral, error estimate) of f over [a, b] from QUADPACK: relative
    tolerance _PIECE_REL only, up to 200 subintervals, breakpoints `points`
    inside [a, b].  scipy.integrate is imported on the first call.

    The engine no longer calls it.  It stays only because the benchmark's
    layer tracer (bench/layers.py) wraps it by name, until that tracer
    counts the engine's own rule."""
    global _scipy_quad
    if _scipy_quad is None:
        from scipy.integrate import quad as _scipy_quad
    # full_output keeps QUADPACK's warnings out of stderr; the caller judges
    # the error estimate.
    return _scipy_quad(f, a, b, epsabs=0.0, epsrel=_PIECE_REL, limit=200,
                       points=points, full_output=True)[:2]


def _panel_sums(s: float, h: float, alpha: float, orders: range,
                a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over the panels [a, b] of the integrand of each order in
    `orders`, shape (len(orders), panels), from the rule on the two halves
    of each panel, and their distance from the rule on the whole panel as
    the error estimate."""
    nodes, weights = _panel_rule()
    rad = 0.5 * (b - a)
    u = (0.5 * (a + b))[:, None] + rad[:, None] * nodes
    with np.errstate(over="ignore"):     # a(u) beyond the float range: y = 0
        y = s / (s + np.hypot(h, u) ** alpha)
    rules = np.empty((len(orders), len(a), 2))
    for row, k in enumerate(orders):
        if k == 0:
            f = y
        elif row == 0 or k == 1:
            f = (1.0 - y) * y ** k
        else:
            f = f * y
        np.matmul(f, weights, out=rules[row])
    rules *= rad[:, None]
    noise = (b - a) * _SUBNORMAL_NOISE
    return rules[..., 1], np.maximum(
        np.abs(rules[..., 1] - rules[..., 0]) - noise, 0.0)


def _refined_sums(s: float, h: float, alpha: float, orders: range,
                  a: np.ndarray, b: np.ndarray,
                  base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_panel_sums over the panels [a, b], after halving every panel whose
    estimate exceeds _PANEL_REL of an order's total, base plus the sum over
    the panels, until none does or _MAX_ADDED_PANELS would be exceeded;
    the halves are summed back into the panel they came from."""
    value, err = _panel_sums(s, h, alpha, orders, a, b)
    panels = len(a)
    origin = np.arange(panels)
    while True:
        split = (err > _PANEL_REL * (base + value.sum(axis=1))[:, None]
                 ).any(axis=0)
        if (not split.any()
                or len(a) - panels + split.sum() > _MAX_ADDED_PANELS):
            break
        keep = ~split
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_value, new_err = _panel_sums(s, h, alpha, orders, new_a, new_b)
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        origin = np.concatenate([origin[keep], np.tile(origin[split], 2)])
        value = np.concatenate([value[:, keep], new_value], axis=1)
        err = np.concatenate([err[:, keep], new_err], axis=1)
    if len(a) == panels:
        return value, err
    members = origin[:, None] == np.arange(panels)
    return value @ members, err @ members


def _exponent_integrals(s: float, h: float, alpha: float, orders: range,
                        err_cap: float = math.inf
                        ) -> tuple[list[float], float]:
    """(J_k for each k in `orders`, largest total): J_0 = int_R y du and
    J_k = int_R (1 - y) * y^k du for k >= 1, where y = s/(s + a(u)) and
    a(u) = (h^2 + u^2)^(alpha/2).  The lowest order that misses the
    tolerance raises.

    The integrands lie in [0, 1] and are even, and order k is bounded on
    the half line by (rho/u)**tail_pow, rho = s**(1/alpha) and tail_pow =
    alpha * max(k, 1), once u is large.  All orders share one set of
    panels: the head [0, _TRUNCATION], split at ratio 2 from sigma/256 up,
    where sigma = h + rho is the scale of the peak, and at the decades
    below that; then the windows [T_n, T_{n+1}], T_n = _TRUNCATION * 2**n.
    Order k is truncated at the first T_n, n < _MAX_SEGMENTS, where the
    analytic tail bound T * (rho/T)**tail_pow / (tail_pow-1) drops below
    half the error budget; the halving estimates of the panels cover the
    rest.  err_cap additionally bounds the absolute error so that a large
    integral (a strongly interfered lane) does not lose accuracy in the
    success probability, which an absolute error d in any g~_j moves by at
    most d times itself (the derivative of e~_k in g~_j is e~_{k-j}).

    err_cap enters only through min(total, err_cap) in the truncation test.
    The largest total is the largest half-line total that test compared
    against; with any err_cap at least that large, every choice, and so
    every J_k, is the same bit for bit.
    """
    rho = s ** (1.0 / alpha)
    low = min(h + rho, _TRUNCATION) / 256.0
    edges = {0.0, _TRUNCATION}
    edges.update(x for x in (1.0, 10.0, 100.0) if x < low)
    edges.update(low * 2.0 ** j
                 for j in range(int(math.log2(_TRUNCATION / low)) + 1))
    head = np.array(sorted(x for x in edges if x <= _TRUNCATION))
    value, err = _refined_sums(s, h, alpha, orders, head[:-1], head[1:],
                               np.zeros(len(orders)))
    T = _TRUNCATION * 2.0 ** np.arange(_MAX_SEGMENTS + 1)
    tail_pow = alpha * np.maximum(np.array(orders), 1)[:, None]
    # bound[k, n]: the tail bound of order k at T_n, n < _MAX_SEGMENTS,
    # formed as one exp so that it underflows only when it is below the
    # float range, not when (rho/T)**tail_pow is.  While T <= rho it may
    # overflow; the bound is then at least T/(tail_pow-1), far above the
    # budget.
    log_t = np.log(T[:-1])
    with np.errstate(over="ignore"):
        bound = np.where(rho < T[:-1],
                         np.exp(log_t + tail_pow * (math.log(rho) - log_t)),
                         math.inf) / (tail_pow - 1.0)
    # totals[k, n] and errs[k, n]: order k integrated over [0, T_n].  They
    # grow with n, so where the bound is met on the head alone it is met
    # by n, and only the windows below that n are integrated.
    totals = value.sum(axis=1)[:, None]
    errs = err.sum(axis=1)[:, None]
    reached = bound <= 0.5 * _REL_TOL * np.minimum(totals, err_cap)
    n = (int(reached.argmax(axis=1).max()) if reached.any(axis=1).all()
         else _MAX_SEGMENTS)
    if n:
        value, err = _refined_sums(s, h, alpha, orders, T[:n], T[1:n + 1],
                                   totals[:, 0])
        totals = np.cumsum(np.concatenate([totals, value], axis=1), axis=1)
        errs = np.cumsum(np.concatenate([errs, err], axis=1), axis=1)
        reached = (bound[:, :n + 1]
                   <= 0.5 * _REL_TOL * np.minimum(totals[:, :_MAX_SEGMENTS],
                                                  err_cap))
    # i[k]: the window edge order k stops at, where its bound is met.
    i = reached.argmax(axis=1)
    rows = np.arange(len(orders))
    total, tail_bound = totals[rows, i], bound[rows, i]
    achieved = errs[rows, i] + tail_bound
    failed = ~reached[rows, i] | (achieved > _REL_TOL * total)
    if failed.any():
        r = int(failed.argmax())
        if not reached[r, i[r]]:
            raise QuadratureError(
                "tail bound never met the tolerance",
                bound[r, -1] / max(totals[r, -1], 1e-300))
        raise QuadratureError(
            "interference integral did not converge",
            achieved[r] / total[r] if total[r] else math.inf)
    return (2.0 * total).tolist(), float(totals[:, :_MAX_SEGMENTS].max())


def _exponent_integral(k: int, s: float, h: float, alpha: float,
                       err_cap: float = math.inf) -> float:
    """J_k alone, from _exponent_integrals."""
    return _exponent_integrals(s, h, alpha, range(k, k + 1), err_cap)[0][0]


@contextlib.contextmanager
def sharing_lane_integrals():
    """Within the block, analytic points reuse each other's quadratured
    lane integrals where that gives the same J_k bit for bit; the shared
    integrals are dropped when the block ends."""
    token = _shared_integrals.set({})
    try:
        yield
    finally:
        _shared_integrals.reset(token)


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
    quadrature.  Inside sharing_lane_integrals(), a quadrature is reused
    by a later point with the same (s, h, alpha, order) whose err_cap =
    1/rate_h is at least its largest total, and kept only when its own
    err_cap was: both then give the J_k of err_cap = inf.
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
    shared = _shared_integrals.get({})
    for h, rate in rates.items():
        coeffs = _lane_integral_jet(s, h, alpha, order)
        if coeffs is None:
            err_cap = 1.0 / rate
            key = (s, h, alpha, order)
            if key in shared and err_cap >= shared[key][1]:
                j = shared[key][0]
            else:
                j, largest = _exponent_integrals(s, h, alpha,
                                                 range(order + 1), err_cap)
                if err_cap >= largest:
                    shared[key] = j, largest
            coeffs = j[:1] + [-c for c in j[1:]]
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
