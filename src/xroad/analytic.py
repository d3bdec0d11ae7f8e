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

A point's lanes and orders share one tanh-sinh rule (Takahasi and Mori,
1974) on fixed nodes, after u = sigma * (x^-beta - 1), beta = 1/(alpha-1),
sigma = h + s^(1/alpha), maps x in (0, 1] onto the half line.  Integrands
are formed in logs, so nothing overflows as alpha nears 1, and each level's
nodes include those of the level below, which gives the error estimate.
The benchmark's stored reference holds values of an engine that cut each
integral at a window edge T = 1e4 * 2^n; _truncated subtracts that tail.
Points evaluated with one lane table (outage_probability's `shared`, which
sweep._rows passes to every row of a sweep or a verify grid) share the jet
or quadrature of each (s, h, alpha, order).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import Lane, Scenario

#: _truncated's window edges: T_n = _TRUNCATION * 2**n, n < _MAX_SEGMENTS.
_MAX_SEGMENTS = 96
_TRUNCATION = 1e4
_LOG_T0, _LOG2 = math.log(_TRUNCATION), math.log(2.0)

#: Relative error requested from the quadrature of each integral.
_REL_TOL = 1e-9
_EPS = 2.0 ** -52           # the spacing of floats at 1

#: Tanh-sinh levels: level l has the nodes t = j * 2**-l, |t| <= 6.  All
#: integrals take _FIRST_LEVEL; further levels only while they miss _REL_TOL.
_FIRST_LEVEL, _LAST_LEVEL = 5, 7

#: scipy.integrate.quad, once quad() has loaded it.
_scipy_quad = None


@functools.cache
def _node_table() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(ln x, ln dx/dt) at the tanh-sinh nodes of _FIRST_LEVEL, then at those
    each further level adds; x = 1/(1 + exp(-pi sinh t)), so dx/dt =
    x (1 - x) pi cosh t.  Formed without x: nodes near 0 keep their range."""
    table = []
    for level in range(_FIRST_LEVEL, _LAST_LEVEL + 1):
        n, step = 6 * 2 ** level, 1 if level == _FIRST_LEVEL else 2
        t = np.arange(step - 1 - n, n + 1, step) / 2.0 ** level
        v = np.pi * np.sinh(t)
        ln_x = -np.logaddexp(0.0, -v)
        table.append((ln_x, ln_x - np.logaddexp(0.0, v)
                      + np.log(np.pi * np.cosh(t))))
    return tuple(table)


class UnsupportedExponentError(ValueError):
    """A closed form was requested for a path-loss exponent it does not cover."""


class QuadratureError(ArithmeticError):
    """Quadrature could not meet the requested relative tolerance."""

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
    tolerance _REL_TOL/16 only, up to 200 subintervals, breakpoints `points`
    inside [a, b].  scipy.integrate is imported on the first call, so it
    needs scipy, which xroad no longer installs.  The engine does not call
    it; it stays only because the benchmark's layer tracer (bench/layers.py)
    wraps it by name, and goes once that tracer counts the engine's own
    rule."""
    global _scipy_quad
    if _scipy_quad is None:
        from scipy.integrate import quad as _scipy_quad
    # full_output keeps QUADPACK's warnings out of stderr; the caller judges
    # the error estimate.
    return _scipy_quad(f, a, b, epsabs=0.0, epsrel=_REL_TOL / 16.0, limit=200,
                       points=points, full_output=True)[:2]


def _exponent_integrals(s: float, hs, alpha: float, orders: range
                        ) -> tuple[list[list[float]], list[list[float]]]:
    """(J_k, error estimate) for each lane distance h in `hs` and each k in
    `orders`: J_0 = int_R y du and J_k = int_R (1 - y) * y^k du for k >= 1,
    where y = s/(s + a(u)) and a(u) = (h^2 + u^2)^(alpha/2).  A lane within
    rho = s^(1/alpha) of D has y = 1/2 at u* = sqrt(rho^2 - h^2), where for
    large alpha y falls over a width ~ u*/alpha, too narrow for nodes spread
    over the half line; such a lane that misses the tolerance is integrated
    again as [u*, inf) plus [0, u*], one _tanh_sinh call each, and keeps the
    larger relative error of the two.  Raises QuadratureError if a lane
    misses the tolerance even then."""
    h = np.asarray(hs, dtype=float)
    values, errors, achieved = _tanh_sinh(s, h, alpha, orders)
    rho = s ** (1.0 / alpha)
    again = np.flatnonzero((achieved > _REL_TOL) & (h < rho))
    if len(again):
        cut = np.sqrt((rho - h[again]) * (rho + h[again]))
        far = _tanh_sinh(s, h[again], alpha, orders, cut)
        near = _tanh_sinh(s, h[again], alpha, orders, cut, near=True)
        values[again], errors[again] = far[0] + near[0], far[1] + near[1]
        achieved[again] = np.maximum(far[2], near[2])
    if not achieved.max() <= _REL_TOL:                  # also when nan
        raise QuadratureError("interference integral did not converge",
                              float(achieved.max()))
    return values.tolist(), errors.tolist()


def _tanh_sinh(s: float, h: np.ndarray, alpha: float, orders: range,
               cut: np.ndarray | None = None, near: bool = False
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J_k, error estimates and the largest relative estimate of the lanes
    at distances h, as for _exponent_integrals, over one kind of piece: the
    half line by u = sigma (x^-beta - 1) (cut None), [cut, inf) by u = cut
    + sigma (x^-beta - 1), or [0, cut] by u = cut x (`near`).  Each
    integrand is the exp of its log less its largest value, so it neither
    overflows (x^-beta does as alpha nears 1) nor loses bits where J_k is
    subnormal; relative estimates are taken in those units.  Each lane stops
    at the first level that meets the tolerance, whatever the others do."""
    beta = 1.0 / (alpha - 1.0)
    # In units of sigma = h + s^(1/alpha), and with z = ln(a/s):
    # z = shift + (alpha/2) * ln((h/sigma)^2 + (u/sigma)^2).
    ln_sigma = np.log(h + s ** (1.0 / alpha))[:, None]
    with np.errstate(divide="ignore"):                  # h = 0
        ln_h2 = 2.0 * (np.log(h)[:, None] - ln_sigma)
    if cut is not None:
        ln_cut = np.log(cut)[:, None] - ln_sigma
    shift = alpha * ln_sigma - math.log(s)
    ln_du0 = ln_sigma + (ln_cut if near else math.log(beta))  # ln du/dx, x = 1
    k = np.array(orders, dtype=float)[:, None]

    def log_integrands(ln_x: np.ndarray, ln_dx: np.ndarray, rows):
        if near:
            ln_u = ln_cut[rows] + ln_x
            ln_du = ln_du0[rows] + ln_dx
        else:
            bx = beta * ln_x
            ln_u = np.log(-np.expm1(bx)) - bx            # ln((u - cut)/sigma)
            ln_du = (ln_du0[rows] + ln_dx) - (beta + 1.0) * ln_x
            if cut is not None:
                ln_u = np.logaddexp(ln_cut[rows], ln_u)
        z = ((0.5 * alpha) * np.logaddexp(ln_h2[rows], 2.0 * ln_u)
             + shift[rows])
        ln_y = -np.logaddexp(0.0, z)
        # 1 - y = y * a/s
        ln_f = k * ln_y[:, None] + (ln_du + z + ln_y)[:, None]
        if orders[0] == 0:
            ln_f[:, 0] = ln_du + ln_y
        return ln_f, ln_du, z, ln_y

    table = _node_table()
    todo = np.arange(len(h))
    ln_f, ln_du, z, ln_y = log_integrands(*table[0], todo)
    peak = ln_f.max(axis=2, keepdims=True)
    terms = np.exp(ln_f - peak)
    # In units of exp(peak): the rule at _FIRST_LEVEL, and at the level below.
    step = 2.0 ** -_FIRST_LEVEL
    value = step * terms.sum(axis=2)
    coarse = 2.0 * step * terms[..., ::2].sum(axis=2)
    # Rounding, which halving cannot see: a node's ln f sums terms up to
    # |ln du| + |z| + (k + 1) |ln y| in size, and each of the eight or so
    # operations forming it rounds by up to an ulp of that.
    rounding = 8.0 * _EPS * step * (
        (terms @ (np.abs(ln_du) + np.abs(z))[..., None])[..., 0]
        + (k[:, 0] + 1.0) * (terms @ np.abs(ln_y)[..., None])[..., 0])
    err = np.abs(value - coarse) + rounding
    for level in range(_FIRST_LEVEL + 1, _LAST_LEVEL + 1):
        todo = todo[~(err[todo] <= _REL_TOL * value[todo]).all(axis=1)]
        if not len(todo):
            break
        ln_f = log_integrands(*table[level - _FIRST_LEVEL], todo)[0]
        coarse[todo] = value[todo]
        value[todo] = 0.5 * value[todo] + 2.0 ** -level * np.exp(
            ln_f - peak[todo]).sum(axis=2)
        err[todo] = np.abs(value[todo] - coarse[todo]) + rounding[todo]
    scale = 2.0 * np.exp(peak[..., 0])
    return value * scale, err * scale, (err / value).max(axis=1)


def _truncated(j: list[float], s: float, h: float, alpha: float,
               orders: range, err_cap: float = math.inf) -> list[float]:
    """The whole-line J_k of each k in `orders` cut to [-T, T], at the first
    window edge T = T_n where the tail bound T * (rho/T)**q / (q - 1), with
    rho = s**(1/alpha) and q = alpha * max(k, 1), is within half the budget
    _REL_TOL * min(J_k/2, err_cap); J_k where no edge is.  The engine passes
    err_cap = 1/rate, to keep a dense lane accurate too.  Beyond T the
    integrand is sum_i (-1)^i C(k+i, i) w^(max(k,1)+i), w = s/a; up to four
    terms, while they shrink, are integrated to second order in h/T."""
    log_rho = math.log(s) / alpha
    # Only edges beyond rho count; before them the bound exceeds J_k.
    first = max(0, math.floor((log_rho - _LOG_T0) / _LOG2) + 1)
    out = []
    for k, value in zip(orders, j):
        q = alpha * max(k, 1)
        budget = 0.5 * _REL_TOL * min(0.5 * value, err_cap)
        if budget > 0.0:
            # The log of the bound at T_n is log_b0 - n (q - 1) ln 2.
            log_b0 = q * log_rho + (1.0 - q) * _LOG_T0 - math.log(q - 1.0)
            n = max(first, math.ceil((log_b0 - math.log(budget))
                                     / ((q - 1.0) * _LOG2)))
            if n < _MAX_SEGMENTS:
                log_t = _LOG_T0 + n * _LOG2
                w = math.exp(alpha * (log_rho - log_t))      # s/T^alpha
                r2 = (h * math.exp(-log_t)) ** 2
                # C(k+i, i) w^i T (rho/T)^q, and twice its signed integral.
                scale = math.exp(log_b0 - n * (q - 1.0) * _LOG2) * (q - 1.0)
                last, sign = math.inf, 2.0
                for i in range(4):
                    p = q + alpha * i
                    term = scale / (p - 1.0) * (
                        1.0 - p * (p - 1.0) / (2.0 * (p + 1.0)) * r2)
                    if not _EPS * value < term < last:
                        break
                    value -= sign * term
                    last, sign = term, -sign
                    scale *= w * (k + i + 1) / (i + 1)
        out.append(value)
    return out


def _exponent_integral(k: int, s: float, h: float, alpha: float,
                       err_cap: float = math.inf) -> float:
    """J_k alone, from _exponent_integrals, as the engine cuts it."""
    j = _exponent_integrals(s, [h], alpha, range(k, k + 1))[0][0]
    return _truncated(j, s, h, alpha, range(k, k + 1), err_cap)[0]


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

    For alpha = 2 and 4, J(s; h) = 2^e J(2^(-alpha e) s; 2^-e h), and
    scaling by a power of two is exact.  A lane at h >= 2^(1000/alpha),
    where h^alpha would near the end of the float range, is evaluated at
    e > 0; any other at e = 0.
    """
    if alpha in (2.0, 4.0) and 2.0 ** (1000.0 / alpha) <= h < math.inf:
        e = math.frexp(h)[1] - round(1000.0 / alpha)
        return [math.ldexp(c, e) for c in _lane_integral_jet(
            math.ldexp(s, -round(alpha) * e), math.ldexp(h, -e), alpha, order)]
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


def _exponent_coefficients(scenario: Scenario, s: float, order: int,
                           shared: dict | None = None) -> list[float]:
    """Taylor coefficients g~_0..g~_order of g(s*(1 - tau)), where g is the
    exponent of the Laplace transform of the total interference from both
    roads; g~_k = (-s)^k g^(k)(s) / k!.

    The lanes are independent point processes, so g = -sum_h rate_h * J(s; h)
    over the distinct lane distances h of scenario.lanes(), with rate_h the
    summed p*lam of the lanes at h on either road.  Each h is evaluated
    once, from the closed-form jet where one exists and otherwise by
    quadrature, one array pass for all such h, cut by _truncated with
    err_cap = 1/rate_h.  Neither depends on the rate, so they are kept in
    `shared`, the lane table, as (s, h, alpha, order) -> (the jet, or the
    whole-line J_0..J_order, and whether _truncated cuts it), and a later
    point given the same table reuses them; None means a fresh table.
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
    if shared is None:
        shared = {}
    orders = range(order + 1)
    new = {h: _lane_integral_jet(s, h, alpha, order) for h in rates
           if (s, h, alpha, order) not in shared}
    rule = [h for h, jet in new.items() if jet is None]
    if rule:
        new.update(zip(rule, _exponent_integrals(s, rule, alpha, orders)[0]))
    shared.update(((s, h, alpha, order), (c, h in rule))
                  for h, c in new.items())
    for h, rate in rates.items():
        coeffs, cut = shared[s, h, alpha, order]
        if cut:
            j = _truncated(coeffs, s, h, alpha, orders, 1.0 / rate)
            coeffs = j[:1] + [-c for c in j[1:]]
        for k, c in enumerate(coeffs):
            out[k] -= rate * c
    if out[0] == -math.inf:
        # rate * J beyond the float range: exp(g~_0) is 0, as past 800
        # above, and g~_k for k >= 1 may be inf, which exp(g~_0) cannot null.
        return [-math.inf] + [0.0] * order
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


def outage_probability(scenario: Scenario,
                       shared: dict | None = None) -> AnalyticResult:
    """Outage and success probability of the link; success is the sum of m
    nonnegative per-order summands (per_term), the Taylor coefficients
    e~_k of L(s*(1 - tau)) = exp(sum_k g~_k tau^k).  `shared` is the lane
    table of _exponent_coefficients; None means a fresh one."""
    m = scenario.channel.m
    g = _exponent_coefficients(scenario, scenario.laplace_argument, m - 1,
                               shared)
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
