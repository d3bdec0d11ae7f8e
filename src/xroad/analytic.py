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

Each lane takes one of three ways to its coefficients.

- Jets.  J(s) has closed forms for alpha = 2, for alpha = 4, and for any
  alpha when the destination lies on the lane (h = 0).  There one pass of
  truncated-Taylor ("jet") arithmetic on the closed form seeded with
  s*(1 - tau) gives every order (_lane_jets).
- The far-lane series.  Otherwise the coefficients are the integrals, over
  integrands in [0, 1], of the expansion with y = s/(s + a)

      s(1 - tau) / (s(1 - tau) + a) = y - (1 - y) * sum_{k>=1} y^k tau^k.

  A lane beyond 2 rho of D (rho = s^(1/alpha)) has w = s/a < 2^-alpha on
  the whole line, and (1 - y) y^k expands in powers of w that integrate
  to Beta functions (_far_lanes).  It takes that series if its 40 terms
  lose fewer than 3 digits to their alternating signs and each order's
  last term is below 1e-17 of its sum.
- The rule.  The other lanes are quadratured under the integral sign.
  All lanes and orders share one tanh-sinh rule (Takahasi and Mori, 1974)
  on fixed nodes, after u = sigma * (x^-beta - 1), beta = 1/(alpha-1),
  sigma = h + s^(1/alpha), maps x in (0, 1] onto the half line.
  Integrands are formed in logs, so nothing overflows as alpha nears 1,
  and each level's nodes include those of the level below, which gives
  the error estimate.

On the benchmark's seed-0 round the jets serve 2605 lanes, the series 702
and the rule 464, in 69 _tanh_sinh passes.

The benchmark's stored reference holds values of an engine that cut each
integral at a window edge T = 1e4 * 2^n; _truncated subtracts that tail
from the series' and the rule's whole-line J_k, once per lane: like J_k,
the cut does not depend on the lane's rate.

A batch of points (Points) arrives as arrays: s, alpha and m per point,
h and the summed rate p*lam per (point, lane distance) pair, from a
sweep's axis (sweep._lane_pairs) or from Scenario.lanes()
(scenario_points); an s that overflowed to inf reads as certain outage.
success_probabilities is the one way from a batch to results, and
outage_probability evaluates a batch of one.  Each distinct (s, h, alpha,
order) lane, found by one array sort, is evaluated once, the jets, the
series and the rule in one array call per (alpha, order), and each pair
subtracts rate times its lane's coefficients; both in chunks of at most
_BATCH_CELLS lanes or pairs times orders.  Every operation acts on each
lane, pair or point alone, each lane stops at its own level, and each
point sums its pairs in their order across chunks, so a point's result is
bit for bit the one it gets alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
#: Most lane-orders one _tanh_sinh pass integrates, or one _far_lanes
#: array holds, whatever the batch: the single points of the benchmark
#: need up to 8 lanes x 8 orders.
_PASS_ROWS = 64
#: The far-lane series (_far_lanes): terms per order, and what a lane
#: must meet to take it: each order's last term below _SERIES_TAIL of its
#: sum, and fewer than _SERIES_LOSS digits lost to the alternating signs.
_SERIES_TERMS = 40
_SERIES_TAIL = 1e-17
_SERIES_LOSS = 3.0
#: Most lanes, or (point, lane) pairs, times orders that _exponent_table
#: takes in one chunk, 128 KB per array; every sweep of the benchmark
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
    """Outage and success of one scenario."""

    success_prob: float
    outage_prob: float


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
    with np.errstate(over="ignore"):            # J_k beyond the float range
        scale = 2.0 * np.exp(peak[..., 0])
    return value * scale, err * scale, (err / value).max(axis=1)


def _truncated(j, s, h, alpha: float, orders: range) -> np.ndarray:
    """The whole-line J_k of each lane (a row of j; s and h give one value
    per row, or one for all) and each k in `orders` (a column) cut to
    [-T, T], at the first window edge T = T_n where the tail bound
    T * (rho/T)**q / (q - 1), with rho = s**(1/alpha) and q =
    alpha * max(k, 1), is within the budget 0.25 * _REL_TOL * J_k; J_k
    where no edge is.  Beyond T the integrand is sum_i (-1)^i C(k+i, i)
    w^(max(k,1)+i), w = s/a; up to four terms, while they shrink, are
    integrated to second order in h/T.  One array pass over all rows and
    columns."""
    value = np.array(j, dtype=float)
    column = (-1, 1)
    log_rho = np.log(np.reshape(s, column)) / alpha
    k = np.array(orders, dtype=float)
    budget = 0.25 * _REL_TOL * value
    # Only edges beyond rho count; before them the bound exceeds J_k.  The
    # log of the bound at T_n is log_b0 - n (q - 1) ln 2.
    first = np.maximum(0.0, np.floor((log_rho - _LOG_T0) / _LOG2) + 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = alpha * np.maximum(k, 1.0)
        log_b0 = q * log_rho + (1.0 - q) * _LOG_T0 - np.log(q - 1.0)
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


@functools.lru_cache(maxsize=128)
def _beta_logs(alpha: float, size: int) -> np.ndarray:
    """ln B(1/2, x), x = (alpha p - 1)/2, for p = 0..size - 1, nan at p = 0;
    from x = 2^53 on, where lgamma may overflow, ln Gamma(1/2) - ln(x)/2."""
    return np.array([math.nan] + [
        math.lgamma(0.5) + math.lgamma(0.5 * (alpha * p - 1.0))
        - math.lgamma(0.5 * alpha * p) if alpha * p < 2.0 ** 54
        else math.lgamma(0.5) - 0.5 * math.log(0.5 * (alpha * p - 1.0))
        for p in range(1, size)])


@functools.lru_cache(maxsize=16)
def _binomial_logs(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, ln C(k + i, i)) of the far-lane series' term i of order k, row
    k <= order, column i < _SERIES_TERMS: the term's power of w is
    p = max(k, 1) + i."""
    p = np.maximum(np.arange(order + 1), 1)[:, None] + np.arange(_SERIES_TERMS)
    return p, np.array([[math.log(math.comb(k + i, i))
                         for i in range(_SERIES_TERMS)]
                        for k in range(order + 1)])


def _far_lanes(s, h, alpha: float, order: int) -> np.ndarray:
    """J_0..J_order, as for _exponent_integrals, of each lane (s, h) beyond
    2 rho of D (rho = s^(1/alpha)) from a series, as a (lanes, order + 1)
    array; nan in the row of a lane it does not serve.

    There w = s/a(u) <= s/h^alpha < 2^-alpha on the whole lane, and
    (1 - y) y^k = sum_i (-1)^i C(k+i, i) w^(max(k, 1) + i), each term of
    which integrates over the line in closed form (DLMF 5.12):
    int_R w^p du = s^p h^(1 - alpha p) B(1/2, (alpha p - 1)/2).  The
    _SERIES_TERMS terms of each order are formed in logs, so a lane far
    out reads a subnormal or 0.  A lane takes the series only if the
    alternating signs lose fewer than _SERIES_LOSS digits, (order + 1) *
    log10((1 + w)/(1 - w)) at u = 0, and each order's last term is below
    _SERIES_TAIL of its sum.  The lanes of one array, at most _PASS_ROWS
    lane-orders, are evaluated each alone."""
    s, h = np.asarray(s, dtype=float), np.asarray(h, dtype=float)
    values = np.full((len(h), order + 1), math.nan)
    far = np.flatnonzero(h > 2.0 * s ** (1.0 / alpha))
    ln_h = np.log(h[far])
    with np.errstate(over="ignore"):                    # huge alpha: w is 0
        ln_w = np.log(s[far]) - alpha * ln_h            # the largest w
    # log10((1 + w)/(1 - w)) = 2 atanh(w) / ln 10
    keep = ln_w < math.log(math.tanh(
        _SERIES_LOSS * math.log(10.0) / (2.0 * (order + 1))))
    far, ln_h, ln_w = far[keep], ln_h[keep, None, None], ln_w[keep, None, None]
    p, ln_c = _binomial_logs(order)
    ln_c = ln_c + _beta_logs(alpha, order + _SERIES_TERMS + 1)[p]
    per = max(1, _PASS_ROWS // (order + 1))
    for i in range(0, len(far), per):
        with np.errstate(over="ignore"):        # huge alpha: w^p is 0
            ln_t = ln_w[i:i + per] * p
        ln_t += ln_c
        ln_t += ln_h[i:i + per]
        peak = ln_t.max(axis=2)
        empty = peak == -math.inf               # every term underflows: 0
        peak[empty] = 0.0
        ln_t -= peak[..., None]
        terms = np.exp(ln_t, out=ln_t)
        terms[..., 1::2] *= -1.0
        total = terms.sum(axis=2)
        served = ((np.abs(terms[..., -1]) < _SERIES_TAIL * total)
                  | empty).all(axis=1)
        with np.errstate(over="ignore"):
            values[far[i:i + per][served]] = (total * np.exp(peak))[served]
    return values


def _exponent_integral(k: int, s: float, h: float, alpha: float) -> float:
    """J_k alone, from _exponent_integrals, as the engine cuts it."""
    orders = range(k, k + 1)
    j, _, achieved = _exponent_integrals([s], [h], alpha, orders)
    if not achieved[0] <= _REL_TOL:                     # also when nan
        raise _unconverged(achieved)
    return float(_truncated(j, s, h, alpha, orders)[0, 0])


def _unconverged(achieved: np.ndarray) -> QuadratureError:
    return QuadratureError("interference integral did not converge",
                           float(achieved.max()))


def _jet_sum(a: np.ndarray, b: np.ndarray, k: int, j0: int, j1: int
             ) -> np.ndarray:
    """sum_{j0 <= j < j1} a_j * b_(k-j) of two jets, (orders, lanes)
    arrays, added in j order for each lane alone."""
    total = a[j0] * b[k - j0]
    for j in range(j0 + 1, j1):
        total += a[j] * b[k - j]
    return total


def _jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array([_jet_sum(a, b, k, 0, k + 1) for k in range(len(a))])


def _jet_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    q = np.empty_like(a)
    q[0] = a[0] / b[0]
    for k in range(1, len(a)):
        q[k] = (a[k] - _jet_sum(b, q, k, 1, k + 1)) / b[0]
    return q


def _jet_sqrt(a: np.ndarray) -> np.ndarray:
    r = np.empty_like(a)
    r[0] = np.sqrt(a[0])
    for k in range(1, len(a)):
        rest = a[k] - _jet_sum(r, r, k, 1, k) if k > 1 else a[k]
        r[k] = rest / (2.0 * r[0])
    return r


def _lane_jets(s, h, alpha: float, order: int) -> np.ndarray:
    """Taylor coefficients c_0..c_order of J(s*(1 - tau)) = sum_k c_k tau^k,
    where J(s) = int_R s/(s + a(u)) du, of each lane (s, h), s and h
    equal-length arrays, as a (lanes, order + 1) array: from J's closed
    form, and nan in the row of a lane that has none.

    The coefficients come from truncated-Taylor arithmetic on coefficient
    arrays (+, *, /, sqrt), so all orders are exact up to rounding:

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
    s, h = np.asarray(s, dtype=float), np.asarray(h, dtype=float)
    if alpha not in (2.0, 4.0):
        c = np.full((order + 1, len(h)), math.nan)
        on = h == 0.0
        if on.any():
            # (s*(1 - tau))^beta = s^beta * sum_k binom(beta, k) (-tau)^k.
            beta = 1.0 / alpha
            c[0, on] = (2.0 * math.pi * s[on] ** beta
                        / (alpha * math.sin(math.pi / alpha)))
            for k in range(1, order + 1):
                c[k, on] = c[k - 1, on] * (k - 1 - beta) / k
        return c.T
    # The jets are (orders, lanes) arrays here, each order a row.
    t = np.zeros((order + 1, len(h)))           # the jet of s*(1 - tau)
    t[0] = s
    t[1:2] = -s
    e = np.zeros(len(h), dtype=int)
    far = 2.0 ** (1000.0 / alpha) <= h
    if far.any():
        far &= h < math.inf
        e[far] = np.frexp(h[far])[1] - round(1000.0 / alpha)
        t = np.ldexp(t, -round(alpha) * e)
        h = np.ldexp(h, -e)
    x = t.copy()
    if alpha == 2.0:
        x[0] += h * h
        c = math.pi * _jet_div(t, _jet_sqrt(x))
    else:
        x[0] += h ** 4
        w = _jet_sqrt(x)
        v = w.copy()
        v[0] += h * h
        c = math.pi / math.sqrt(2.0) * _jet_div(t, _jet_mul(w, _jet_sqrt(v)))
    return np.ldexp(c, e).T


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
    j = _lane_jets([s], [lane.h], alpha, 0)[0, 0]
    return math.exp(-scenario.p * lane.intensity * j)


def laplace_closed_alpha4(s: float, lane: Lane, scenario: Scenario) -> float:
    """Closed-form Laplace transform, alpha = 4, of a scenario.lanes() lane."""
    return _laplace_closed(4.0, s, lane, scenario)


def laplace_closed_alpha2(s: float, lane: Lane, scenario: Scenario) -> float:
    """Closed-form Laplace transform, alpha = 2, of a scenario.lanes() lane."""
    return _laplace_closed(2.0, s, lane, scenario)


class Points(NamedTuple):
    """A batch (see the module docstring): s (float), alpha (float) and
    order = m - 1 (int) per point; pairs run point by point, as
    merged_lanes gives them."""

    s: np.ndarray
    alpha: np.ndarray
    order: np.ndarray
    point: np.ndarray
    h: np.ndarray
    rate: np.ndarray

    def take(self, start: int, stop: int) -> Points:
        lo, hi = np.searchsorted(self.point, (start, stop))
        return Points(self.s[start:stop], self.alpha[start:stop],
                      self.order[start:stop], self.point[lo:hi] - start,
                      self.h[lo:hi], self.rate[lo:hi])


def merged_lanes(point: np.ndarray, h: np.ndarray, rate: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(point, h, rate) pairs of lanes given by point (ascending), h and
    p*lam, each point's in lane order: a point's lanes at one h merge at
    the first, their p*lam summed in lane order; p*lam = 0 lanes drop."""
    live = rate > 0.0
    point, h, rate = point[live], h[live], rate[live]
    by = np.lexsort((h, point))        # stable: lanes at one h stay in order
    new = np.ones(len(by), dtype=bool)
    new[1:] = (point[by][1:] != point[by][:-1]) | (h[by][1:] != h[by][:-1])
    if new.all():
        return point, h, rate
    pair = np.empty(len(by), dtype=int)
    pair[by] = np.cumsum(new) - 1
    summed = np.zeros(pair[by[-1]] + 1)
    np.add.at(summed, pair, rate)
    first = by[new]
    order = np.argsort(first)
    return point[first[order]], h[first[order]], summed[order]


def scenario_points(scenarios: list[Scenario]) -> Points:
    """The scenarios' Points, from Scenario.lanes()."""
    lanes = [(i, lane.h, scenario.p * lane.intensity)
             for i, scenario in enumerate(scenarios)
             for lane in scenario.lanes()]
    point, h, rate = np.array(lanes, dtype=float).reshape(-1, 3).T
    return Points(np.array([sc.laplace_argument for sc in scenarios]),
                  np.array([sc.channel.alpha for sc in scenarios], float),
                  np.array([sc.channel.m - 1 for sc in scenarios], int),
                  *merged_lanes(point.astype(int), h, rate))


def _exponent_table(batch: Points
                    ) -> tuple[np.ndarray, list[QuadratureError | None]]:
    """g~_0..g~_order, the Taylor coefficients of g(s*(1 - tau)), g~_k =
    (-s)^k g^(k)(s) / k! (module docstring), of every point of the batch,
    one row each padded with zeros to the largest order, and each point's
    error (None if it has none).

    The lanes are independent point processes, so g = -sum_h rate_h *
    J(s; h), and J does not depend on the rate: each distinct (s, h,
    alpha, order) is evaluated once (_evaluate_lanes), and each pair
    subtracts rate * its lane's coefficients.  Both run in chunks of at
    most _BATCH_CELLS lanes or pairs times orders.  A lane that misses the
    tolerance fails the points that use it, each with the largest relative
    error of its own lanes.
    """
    size = 1 + int(batch.order.max(initial=0))
    g = np.zeros((len(batch.s), size))
    errors: list[QuadratureError | None] = [None] * len(batch.s)
    # One entry per pair of a point and one of its lane distances.
    point, h, rate = batch.point, batch.h, batch.rate
    s, alpha, order = (c[point] for c in (batch.s, batch.alpha, batch.order))
    # a(u) <= s where |u| <= sqrt(rho^2 - h^2), rho = s^(1/alpha), and there
    # s/(s+a) >= 1/2, so J(s; h) >= sqrt((rho - h)(rho + h)).  Past 800 the
    # point's exp(g~_0) underflows whatever the rest of J is, so at huge s
    # (also s = inf, from an overflowed laplace_argument) J is not needed.
    rho = s ** (1.0 / alpha)
    with np.errstate(over="ignore"):
        certain = np.bincount(point, rate * np.sqrt(
            np.maximum(rho - h, 0.0) * (rho + h)), len(g)) > 800.0
    del rho
    g[certain, 0] = -math.inf
    live = (s != 0.0) & ~certain[point]     # s = 0: L = 1 whatever the lanes
    if not live.all():
        # One column at a time, each gathered column freed before the next
        # is filtered: the per-pair columns set the memory of a long batch.
        point, h, rate = point[live], h[live], rate[live]
        s = s[live]
        alpha = alpha[live]
        order = order[live]
    if not len(point):
        return g, errors
    # The distinct lanes, by an array sort (not np.unique: its first call
    # adds about 1.7 MB to the resident set), the lanes of each (alpha,
    # order) together.
    by = np.lexsort((h, s, order, alpha))
    lanes = [c[by] for c in (s, h, alpha, order)]
    del s, alpha, order
    start = np.zeros(len(by), dtype=bool)
    start[0] = True
    for c in lanes:
        start[1:] |= c[1:] != c[:-1]
    key = np.empty(len(by), dtype=int)
    key[by] = np.cumsum(start) - 1
    del by
    for i, c in enumerate(lanes):
        lanes[i] = c[start]
    per = max(1, _BATCH_CELLS // size)
    table, achieved = (np.concatenate(part) for part in zip(*(
        _evaluate_lanes(*(c[lo:lo + per] for c in lanes), size)
        for lo in range(0, len(lanes[0]), per))))
    # Each point subtracts its lanes in their order, whatever the batch.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(point), per):
            np.subtract.at(g, point[lo:lo + per], rate[lo:lo + per, None]
                           * table[key[lo:lo + per]])
    bad = ~(achieved[key] <= _REL_TOL)                  # also when nan
    for i in set(point[bad].tolist()):
        errors[i] = _unconverged(achieved[key[point == i]])
        g[i] = 0.0
    # rate * J beyond the float range: exp(g~_0) is 0, as past 800 above,
    # and g~_k for k >= 1 may be inf, which exp(g~_0) cannot null.
    g[g[:, 0] == -math.inf, 1:] = 0.0
    return g, errors


def _evaluate_lanes(s: np.ndarray, h: np.ndarray, alpha: np.ndarray,
                    order: np.ndarray, size: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients c_0..c_order of J(s*(1 - tau)) padded with zeros to
    `size`, achieved relative error) of each lane (s, h, alpha, order),
    those of one (alpha, order) together.  They take, each in one array
    call, the closed-form jet where one exists (_lane_jets), else the
    far-lane series where it serves (_far_lanes), else the rule
    (_exponent_integrals); only the rule has an error.  The series' and
    the rule's whole-line J_k are cut by _truncated, and c_0 = J_0, c_k =
    -J_k for k >= 1, as in the jets."""
    table = np.zeros((len(h), size))
    achieved = np.zeros(len(h))
    edges = np.flatnonzero((alpha[1:] != alpha[:-1])
                           | (order[1:] != order[:-1])) + 1
    for lo, hi in zip([0, *edges.tolist()], [*edges.tolist(), len(h)]):
        a, o, sg, hg = float(alpha[lo]), int(order[lo]), s[lo:hi], h[lo:hi]
        values = _lane_jets(sg, hg, a, o)
        rest = np.flatnonzero(np.isnan(values[:, 0]))
        if len(rest):
            values[rest] = _far_lanes(sg[rest], hg[rest], a, o)
            rule = rest[np.isnan(values[rest, 0])]
            if len(rule):
                values[rule], _, achieved[lo + rule] = _exponent_integrals(
                    sg[rule], hg[rule], a, range(o + 1))
            values[rest] = _truncated(values[rest], sg[rest], hg[rest], a,
                                      range(o + 1))
            values[rest, 1:] *= -1.0
        table[lo:hi, :o + 1] = values
    return table, achieved


def _clamp_probability(value: float) -> float | ConsistencyError:
    """The probability, clamped to [0, 1] within rounding; else the error."""
    if 0.0 <= value <= 1.0:
        return value
    if -1e-9 <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + 1e-9:
        return 1.0
    return ConsistencyError(
        f"success probability {value} outside [0, 1] beyond rounding")


def _exp_coefficients(g: np.ndarray) -> np.ndarray:
    """e~_0, e~_1, ... of exp(sum_k g~_k tau^k) for each row of g, by
    e~_k = (1/k) * sum_{j=1..k} j * g~_j * e~_{k-j}, summed in j order.
    e~_k depends on g~_0..g~_k only, so zeros padding a row past its own
    order change none of its terms up to that order."""
    e = np.empty_like(g)
    e[:, 0] = np.exp(g[:, 0])
    jg = g[:, 1:] * np.arange(1.0, g.shape[1])
    for k in range(1, g.shape[1]):
        e[:, k] = np.cumsum(jg[:, :k] * e[:, k - 1::-1], axis=1)[:, -1] / k
    return e


def success_probabilities(batch: Points) -> list[float | Exception]:
    """Each point's success probability, the sum of its terms e~_0..e~_m-1,
    or, evaluated alone, its error; the engine's one way from a batch to
    results.  If the batch raises, each point is evaluated alone."""
    try:
        g, errors = _exponent_table(batch)
    except (ValueError, ArithmeticError) as exc:
        return [exc] if len(batch.s) == 1 else [
            result for i in range(len(batch.s))
            for result in success_probabilities(batch.take(i, i + 1))]
    # The recurrence takes the rows in chunks too, of at most _BATCH_CELLS
    # rows times orders.
    totals, per = [], max(1, _BATCH_CELLS // g.shape[1])
    for lo in range(0, len(g), per):
        e = _exp_coefficients(g[lo:lo + per])
        totals += np.cumsum(e, axis=1)[
            np.arange(len(e)), batch.order[lo:lo + per]].tolist()
    return [_clamp_probability(total) if error is None else error
            for error, total in zip(errors, totals)]


def outage_probability(scenario: Scenario) -> AnalyticResult:
    """Outage and success probability of the link, a batch of one point
    (success_probabilities).  Raises the point's error."""
    [success] = success_probabilities(scenario_points([scenario]))
    if isinstance(success, Exception):
        raise success
    return AnalyticResult(success_prob=success, outage_prob=1.0 - success)
