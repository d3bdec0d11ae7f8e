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

All lanes and orders share one tanh-sinh rule (Takahasi and Mori, 1974)
on fixed nodes, after u = sigma * (x^-beta - 1), beta = 1/(alpha-1),
sigma = h + s^(1/alpha), maps x in (0, 1] onto the half line.  Integrands
are formed in logs, so nothing overflows as alpha nears 1, and each level's
nodes include those of the level below, which gives the error estimate.
The benchmark's stored reference holds values of an engine that cut each
integral at a window edge T = 1e4 * 2^n; _truncated subtracts that tail.

outage_probabilities evaluates a batch of points, such as every row of a
sweep or a verify grid (sweep._rows), in chunks of at most _BATCH_CELLS
(point, lane) pairs times orders: one lane table, kept across the chunks,
holds the jet or quadrature of each distinct (s, h, alpha, order); the
rule integrates the lanes of one (alpha, order) together, s an array
beside h, in passes of at most _PASS_ROWS lane-orders; _truncated cuts
every (point, lane) pair of one alpha in one array pass; and the
recurrence runs over all points of a chunk at once.  Every array operation
acts on each lane or point alone and each lane stops at its own level, so
a point's result is bit for bit the one it gets evaluated alone
(outage_probability, a batch of one).
"""

from __future__ import annotations

import functools
import itertools
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
#: Most lane-orders one _tanh_sinh pass integrates, whatever the batch:
#: the single points of the benchmark need up to 8 lanes x 8 orders.
_PASS_ROWS = 64
#: Most (point, lane) pairs times orders that outage_probabilities
#: evaluates in one chunk, 128 KB per array; every sweep of the benchmark
#: needs under 3000.
_BATCH_CELLS = 2 ** 14

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


def _logaddexp(a, b) -> np.ndarray:
    """ln(e^a + e^b) as max(a, b) + log1p(exp(-|a - b|)), from ufuncs with
    SIMD loops; np.logaddexp runs a scalar loop, several times slower, and
    agrees to a few ulps.  a = b = +-inf leaves a - b nan, which fmin turns
    into exp(0): +-inf + ln 2 is +-inf."""
    peak = np.maximum(a, b)
    with np.errstate(invalid="ignore"):
        d = np.subtract(a, b)
    np.abs(d, out=d)
    np.negative(d, out=d)
    np.fmin(d, 0.0, out=d)
    np.exp(d, out=d)
    np.log1p(d, out=d)
    return np.add(peak, d, out=d)


def _exponent_integrals(s, h, alpha: float, orders: range
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J_k, error estimate, achieved relative error) of each lane (s, h),
    s and h equal-length arrays, for each k in `orders`: J_0 = int_R y du
    and J_k = int_R (1 - y) * y^k du for k >= 1, where y = s/(s + a(u)) and
    a(u) = (h^2 + u^2)^(alpha/2).  The first two are (lanes, orders) arrays,
    the last has one entry per lane; a lane whose entry exceeds _REL_TOL
    (or is nan) missed the tolerance, and its caller raises for it.

    A lane within rho = s^(1/alpha) of D has y = 1/2 at u* =
    sqrt(rho^2 - h^2), where for large alpha y falls over a width
    ~ u*/alpha, too narrow for nodes spread over the half line; such a lane
    that misses the tolerance is integrated again as [u*, inf) plus
    [0, u*], one _passes call each, and keeps the larger relative error of
    the two."""
    s, h = np.asarray(s, dtype=float), np.asarray(h, dtype=float)
    values, errors, achieved = _passes(s, h, alpha, orders)
    rho = s ** (1.0 / alpha)
    again = np.flatnonzero((achieved > _REL_TOL) & (h < rho))
    if len(again):
        s, h, rho = s[again], h[again], rho[again]
        cut = np.sqrt((rho - h) * (rho + h))
        far = _passes(s, h, alpha, orders, cut)
        near = _passes(s, h, alpha, orders, cut, near=True)
        values[again], errors[again] = far[0] + near[0], far[1] + near[1]
        achieved[again] = np.maximum(far[2], near[2])
    return values, errors, achieved


def _passes(s: np.ndarray, h: np.ndarray, alpha: float, orders: range,
            cut: np.ndarray | None = None, near: bool = False
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_tanh_sinh over the lanes, in passes of at most _PASS_ROWS
    lane-orders each, so the rule's arrays stay those of one pass however
    many lanes a batch has."""
    per = max(1, _PASS_ROWS // len(orders))
    if len(h) <= per:
        return _tanh_sinh(s, h, alpha, orders, cut, near)
    parts = [_tanh_sinh(s[i:i + per], h[i:i + per], alpha, orders,
                        None if cut is None else cut[i:i + per], near)
             for i in range(0, len(h), per)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _tanh_sinh(s: np.ndarray, h: np.ndarray, alpha: float, orders: range,
               cut: np.ndarray | None = None, near: bool = False
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J_k, error estimates and the largest relative estimate of the lanes
    (s, h), as for _exponent_integrals, over one kind of piece: the half
    line by u = sigma (x^-beta - 1) (cut None), [cut, inf) by u = cut
    + sigma (x^-beta - 1), or [0, cut] by u = cut x (`near`).  Each
    integrand is the exp of its log less its largest value, so it neither
    overflows (x^-beta does as alpha nears 1) nor loses bits where J_k is
    subnormal; relative estimates are taken in those units.  The logs of
    all lanes, orders and nodes of a level fill one (lanes, orders, nodes)
    array, exponentiated in place.  Every operation acts on each lane
    alone, and each lane stops at the first level that meets the tolerance,
    so a lane's values do not depend on the lanes it is integrated with."""
    beta = 1.0 / (alpha - 1.0)
    # In units of sigma = h + s^(1/alpha), and with z = ln(a/s):
    # z = shift + (alpha/2) * ln((h/sigma)^2 + (u/sigma)^2).
    ln_sigma = np.log(h + s ** (1.0 / alpha))[:, None]
    with np.errstate(divide="ignore"):                  # h = 0
        ln_h2 = 2.0 * (np.log(h)[:, None] - ln_sigma)
    if cut is not None:
        ln_cut = np.log(cut)[:, None] - ln_sigma
    shift = alpha * ln_sigma - np.log(s)[:, None]
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
                ln_u = _logaddexp(ln_cut[rows], ln_u)
        z = (0.5 * alpha) * _logaddexp(ln_h2[rows], 2.0 * ln_u)
        z += shift[rows]
        ln_y = _logaddexp(0.0, z)
        np.negative(ln_y, out=ln_y)
        # 1 - y = y * a/s
        ln_f = k * ln_y[:, None]
        ln_f += (ln_du + z + ln_y)[:, None]
        if orders[0] == 0:
            np.add(ln_du, ln_y, out=ln_f[:, 0])
        return ln_f, ln_du, z, ln_y

    def exp_below(ln_f: np.ndarray, peak: np.ndarray) -> np.ndarray:
        np.subtract(ln_f, peak, out=ln_f)
        return np.exp(ln_f, out=ln_f)

    table = _node_table()
    ln_f, ln_du, z, ln_y = log_integrands(*table[0], slice(None))
    peak = ln_f.max(axis=2, keepdims=True)
    terms = exp_below(ln_f, peak)
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
    todo = np.arange(len(h))
    for level in range(_FIRST_LEVEL + 1, _LAST_LEVEL + 1):
        todo = todo[~(err[todo] <= _REL_TOL * value[todo]).all(axis=1)]
        if not len(todo):
            break
        ln_f = log_integrands(*table[level - _FIRST_LEVEL], todo)[0]
        coarse[todo] = value[todo]
        value[todo] = 0.5 * value[todo] + 2.0 ** -level * exp_below(
            ln_f, peak[todo]).sum(axis=2)
        err[todo] = np.abs(value[todo] - coarse[todo]) + rounding[todo]
    scale = 2.0 * np.exp(peak[..., 0])
    return value * scale, err * scale, (err / value).max(axis=1)


def _truncated(j, s, h, alpha: float, orders: range,
               err_cap=math.inf) -> np.ndarray:
    """The whole-line J_k of each lane (a row of j; s, h and err_cap give
    one value per row, or one for all) and each k in `orders` (a column)
    cut to [-T, T], at the first window edge T = T_n where the tail bound
    T * (rho/T)**q / (q - 1), with rho = s**(1/alpha) and q =
    alpha * max(k, 1), is within half the budget _REL_TOL * min(J_k/2,
    err_cap); J_k where no edge is.  The engine passes err_cap = 1/rate, to
    keep a dense lane accurate too.  Beyond T the integrand is
    sum_i (-1)^i C(k+i, i) w^(max(k,1)+i), w = s/a; up to four terms, while
    they shrink, are integrated to second order in h/T.  One array pass
    over all rows and columns."""
    value = np.array(j, dtype=float)
    column = (-1, 1)
    log_rho = np.log(np.reshape(s, column)) / alpha
    k = np.array(orders, dtype=float)
    q = alpha * np.maximum(k, 1.0)
    budget = 0.5 * _REL_TOL * np.minimum(0.5 * value,
                                         np.reshape(err_cap, column))
    # Only edges beyond rho count; before them the bound exceeds J_k.  The
    # log of the bound at T_n is log_b0 - n (q - 1) ln 2.
    first = np.maximum(0.0, np.floor((log_rho - _LOG_T0) / _LOG2) + 1.0)
    log_b0 = q * log_rho + (1.0 - q) * _LOG_T0 - np.log(q - 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n = np.maximum(first, np.ceil((log_b0 - np.log(budget))
                                      / ((q - 1.0) * _LOG2)))
        active = (budget > 0.0) & (n < _MAX_SEGMENTS)
        log_t = _LOG_T0 + n * _LOG2
        w = np.exp(alpha * (log_rho - log_t))            # s/T^alpha
        r2 = np.square(np.reshape(h, column) * np.exp(-log_t))
        # C(k+i, i) w^i T (rho/T)^q, and twice its signed integral.
        scale = np.exp(log_b0 - n * (q - 1.0) * _LOG2) * (q - 1.0)
        last, sign = math.inf, 2.0
        for i in range(4):
            p = q + alpha * i
            term = scale / (p - 1.0) * (
                1.0 - p * (p - 1.0) / (2.0 * (p + 1.0)) * r2)
            active &= (_EPS * value < term) & (term < last)
            if not active.any():
                break
            np.subtract(value, sign * term, out=value, where=active)
            last, sign = term, -sign
            scale = scale * (w * (k + i + 1) / (i + 1))
    return value


def _exponent_integral(k: int, s: float, h: float, alpha: float,
                       err_cap: float = math.inf) -> float:
    """J_k alone, from _exponent_integrals, as the engine cuts it."""
    orders = range(k, k + 1)
    j, _, achieved = _exponent_integrals([s], [h], alpha, orders)
    if not achieved[0] <= _REL_TOL:                     # also when nan
        raise _unconverged(achieved)
    return float(_truncated(j, s, h, alpha, orders, err_cap)[0, 0])


def _unconverged(achieved: np.ndarray) -> QuadratureError:
    return QuadratureError("interference integral did not converge",
                           float(achieved.max()))


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


def _exponent_coefficients(scenario: Scenario, s: float,
                           order: int) -> list[float]:
    """Taylor coefficients g~_0..g~_order of g(s*(1 - tau)), where g is the
    exponent of the Laplace transform of the total interference from both
    roads; g~_k = (-s)^k g^(k)(s) / k!.  _exponent_table for one point."""
    g, errors = _exponent_table([(scenario, s, order)], {})
    if errors[0] is not None:
        raise errors[0]
    return g[0].tolist()


def _exponent_table(points: list[tuple[Scenario, float, int]], known: dict
                    ) -> tuple[np.ndarray, list[QuadratureError | None]]:
    """g~_0..g~_order, as for _exponent_coefficients, of every (scenario,
    s, order) point, one row each padded with zeros to the largest order,
    and each point's error (None if it has none).

    The lanes are independent point processes, so g = -sum_h rate_h * J(s; h)
    over the distinct lane distances h of scenario.lanes(), with rate_h the
    summed p*lam of the lanes at h on either road.  Each distinct (s, h,
    alpha, order) is evaluated once, into the lane table `known`
    (_evaluate_lanes), which the caller may keep for further points.  The
    lane values do not depend on the rate; the (point, lane) pairs of one
    alpha are cut by _truncated with err_cap = 1/rate_h in one pass, and
    each point sums its lanes in their order.  A lane that misses the
    tolerance fails the points that use it, each with the largest relative
    error of its own quadratured lanes.
    """
    size = 1 + max((order for *_, order in points), default=0)
    g = np.zeros((len(points), size))
    errors: list[QuadratureError | None] = [None] * len(points)
    # One entry per pair of a point and one of its lane distances.
    point, s, h, alpha, order, rate = [], [], [], [], [], []
    for i, (scenario, s_i, order_i) in enumerate(points):
        if s_i == 0.0:
            continue
        p = scenario.p
        rates: dict[float, float] = {}
        for h_i, _, intensity in scenario.lanes():
            if p * intensity > 0.0:
                rates[h_i] = rates.get(h_i, 0.0) + p * intensity
        n = len(rates)
        point += [i] * n
        s += [s_i] * n
        h += rates
        alpha += [scenario.channel.alpha] * n
        order += [order_i] * n
        rate += rates.values()
    if not point:
        return g, errors
    point, s, h, alpha, order, rate = map(np.array,
                                          (point, s, h, alpha, order, rate))
    # a(u) <= s where |u| <= sqrt(rho^2 - h^2), rho = s^(1/alpha), and there
    # s/(s+a) >= 1/2, so J(s; h) >= sqrt((rho - h)(rho + h)).  Past 800 the
    # point's exp(g~_0) underflows whatever the rest of J is, so at huge s
    # (also s = inf, from an overflowed laplace_argument) J is not needed.
    rho = s ** (1.0 / alpha)
    with np.errstate(over="ignore"):
        certain = np.bincount(point, rate * np.sqrt(
            np.maximum(rho - h, 0.0) * (rho + h)), len(points)) > 800.0
    if certain.any():
        g[certain, 0] = -math.inf
        live = ~certain[point]
        if not live.any():
            return g, errors
        point, s, h, alpha, order, rate = (
            c[live] for c in (point, s, h, alpha, order, rate))
    index: dict[tuple[float, float, float, int], int] = {}
    key = np.array([index.setdefault(lane, len(index)) for lane in zip(
        s.tolist(), h.tolist(), alpha.tolist(), order.tolist())])
    lanes = list(index)
    table = np.zeros((len(lanes), size))
    achieved = np.zeros(len(lanes))
    ruled = np.zeros(len(lanes), dtype=bool)
    # Lanes an earlier call entered into `known` are copied from their
    # entry; the others are evaluated now.
    new, old = [], []
    for n, lane in enumerate(lanes):
        (old if lane in known else new).append(n)
    if new:
        table[new], achieved[new], ruled[new] = _evaluate_lanes(
            [lanes[n] for n in new], size, known)
    for n in old:
        (values, errors_n, ruled_n), row = known[lanes[n]]
        cut = lanes[n][3] + 1
        table[n, :cut] = values[row, :cut]
        achieved[n], ruled[n] = errors_n[row], ruled_n[row]
    coeffs = table[key]
    ruled = ruled[key]
    # Not np.unique: its first call adds about 1.7 MB to the resident set.
    for a in dict.fromkeys(alpha[ruled].tolist()):
        at = np.flatnonzero(ruled & (alpha == a))
        coeffs[at] = _truncated(coeffs[at], s[at], h[at], a, range(size),
                                1.0 / rate[at])
        coeffs[at, 1:] *= -1.0
    bad = ~(achieved[key] <= _REL_TOL)                  # also when nan
    if bad.any():
        for i in set(point[bad].tolist()):
            errors[i] = _unconverged(achieved[key[(point == i) & ruled]])
        failed = np.zeros(len(points), dtype=bool)
        failed[point[bad]] = True
        keep = ~failed[point]
        point, rate, coeffs = point[keep], rate[keep], coeffs[keep]
    # Each point subtracts its lanes in their order, whatever the batch.
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract.at(g, point, rate[:, None] * coeffs)
    # rate * J beyond the float range: exp(g~_0) is 0, as past 800 above,
    # and g~_k for k >= 1 may be inf, which exp(g~_0) cannot null.
    g[g[:, 0] == -math.inf, 1:] = 0.0
    return g, errors


def _evaluate_lanes(lanes: list[tuple[float, float, float, int]],
                    size: int, known: dict
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J_0..J_order padded with zeros to `size`, achieved relative error,
    whether quadratured) of each (s, h, alpha, order) lane: the closed-form
    jet where one exists (no error), and otherwise the rule's whole-line
    J_k, one _exponent_integrals call per (alpha, order).  The three arrays
    enter the lane table `known` as each lane's entry, with its row."""
    jets = [_lane_integral_jet(*lane) for lane in lanes]
    table = np.zeros((len(lanes), size))
    achieved = np.zeros(len(lanes))
    ruled = np.array([jet is None for jet in jets])
    if not ruled.all():
        table[~ruled] = [jet + [0.0] * (size - len(jet))
                         for jet in jets if jet is not None]
    rule: dict[tuple[float, int], list[int]] = {}
    for n in np.flatnonzero(ruled).tolist():
        rule.setdefault(lanes[n][2:], []).append(n)
    for (a, o), rows in rule.items():
        s, h = (np.array(c) for c in zip(*[lanes[n][:2] for n in rows]))
        table[rows, :o + 1], _, achieved[rows] = _exponent_integrals(
            s, h, a, range(o + 1))
    entry = table, achieved, ruled
    known.update(zip(lanes, zip(itertools.repeat(entry), range(len(lanes)))))
    return entry


def _clamp_probability(value: float) -> float:
    if 0.0 <= value <= 1.0:
        return value
    if -1e-9 <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + 1e-9:
        return 1.0
    raise ConsistencyError(
        f"success probability {value} outside [0, 1] beyond rounding")


def _exp_coefficients(g: np.ndarray) -> np.ndarray:
    """e~_0, e~_1, ... of exp(sum_k g~_k tau^k) for each row of g, by
    e~_k = (1/k) * sum_{j=1..k} j * g~_j * e~_{k-j}, summed in j order."""
    e = np.empty_like(g)
    e[:, 0] = np.exp(g[:, 0])
    jg = g[:, 1:] * np.arange(1.0, g.shape[1])
    for k in range(1, g.shape[1]):
        e[:, k] = np.cumsum(jg[:, :k] * e[:, k - 1::-1], axis=1)[:, -1] / k
    return e


def outage_probabilities(scenarios: list[Scenario]
                         ) -> list[AnalyticResult | Exception]:
    """outage_probability of every scenario, in order.  A point that fails
    gets, in place of its result, the ValueError or ArithmeticError it
    raises evaluated alone; the others still evaluate.

    The points share one lane table and are evaluated in chunks (_chunk),
    each closed before its lane count times its largest m passes
    _BATCH_CELLS, so the arrays of a long sweep stay those of one chunk."""
    known: dict = {}
    results: list = []
    chunk: list[Scenario] = []
    lanes = m = 0
    for scenario in scenarios:
        n = len(scenario.layout.lanes_x) + len(scenario.layout.lanes_y)
        m = max(m, scenario.channel.m)
        if chunk and (lanes + n) * m > _BATCH_CELLS:
            results += _chunk(chunk, known)
            chunk, lanes, m = [], 0, scenario.channel.m
        chunk.append(scenario)
        lanes += n
    return results + _chunk(chunk, known) if chunk else results


def _chunk(scenarios: list[Scenario], known: dict
           ) -> list[AnalyticResult | Exception]:
    """outage_probabilities of the scenarios given the lane table `known`:
    one _exponent_table and one pass of the recurrence over all of them.
    If that raises, each scenario is evaluated alone."""
    try:
        points = [(scenario, scenario.laplace_argument, scenario.channel.m - 1)
                  for scenario in scenarios]
        g, errors = _exponent_table(points, known)
    except (ValueError, ArithmeticError) as exc:
        if len(scenarios) == 1:
            return [exc]
        return [result for scenario in scenarios
                for result in _chunk([scenario], known)]
    # e~_k depends on g~_0..g~_k only, so the zeros padding a row past its
    # own m change none of its first m terms.
    terms = _exp_coefficients(g)
    successes = np.cumsum(terms, axis=1)
    results: list = []
    for error, (_, _, order), row, total in zip(
            errors, points, terms.tolist(), successes.tolist()):
        if error is None:
            try:
                success = _clamp_probability(total[order])
            except ConsistencyError as exc:
                error = exc
        results.append(error if error is not None else AnalyticResult(
            success_prob=success, outage_prob=1.0 - success,
            per_term=tuple(row[:order + 1])))
    return results


def outage_probability(scenario: Scenario) -> AnalyticResult:
    """Outage and success probability of the link; success is the sum of m
    nonnegative per-order summands (per_term), the Taylor coefficients
    e~_k of L(s*(1 - tau)) = exp(sum_k g~_k tau^k).  outage_probabilities
    for a batch of one; raises the point's error."""
    result = outage_probabilities([scenario])[0]
    if isinstance(result, Exception):
        raise result
    return result
