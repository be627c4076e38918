"""Gradient-like torus flows in chart coordinates.

In a chart with weight basis alpha_1..alpha_n, the flow of a direction
(u, v) is the diagonal linear ODE

    dz_j/dr = 2*pi*(<u, alpha_j> + i <v, alpha_j>) z_j,

whose solution is the closed-form curve used throughout this module.
Exponent pairings are computed exactly, as integers once the direction
is scaled to an integer vector on its ray; only the rates and the final
exponential are floating point, so the signs deciding convergence are
never corrupted.  Trajectories are followed across charts: the stay
region of a chart is the unit polydisc, and leaving it triggers a switch
through the exact monomial transition map.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain
from operator import mul

from . import lattice
from .errors import (
    MalformedInput,
    NonFiniteState,
    NotComplete,
    NotMaximal,
    TrackingError,
    ZeroCoordinateStart,
)
from .fan import Fan, IndexSet, is_complete_facet, support_contains
from .toric import WeightBasis, fixed_points, isotropy_weights, transition, weight_matrix

TWO_PI = 2.0 * math.pi
# chart-switch trigger: a coordinate modulus exceeding 1 + POLYDISC_MARGIN
POLYDISC_MARGIN = 1e-9
# the numerical stand-in for r -> -infinity
R_AT_INFINITY = -10.0
DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class Direction:
    """A rational flow direction: xi drives the gradient-like part, the
    optional angular part adds the rotational (circle-action) component."""

    xi: tuple[Fraction, ...]
    angular: tuple[Fraction, ...] | None = None


def direction(xi, angular=None) -> Direction:
    x = tuple(Fraction(t) for t in xi)
    a = None if angular is None else tuple(Fraction(t) for t in angular)
    if a is not None and len(a) != len(x):
        raise MalformedInput("angular part has a different length than xi")
    return Direction(x, a)


@dataclass(frozen=True)
class ChartPoint:
    chart: IndexSet
    coords: tuple[complex, ...]


def chart_point(chart, coords) -> ChartPoint:
    return ChartPoint(tuple(sorted(chart)), tuple(complex(z) for z in coords))


@dataclass(frozen=True)
class TrajectorySegment:
    chart: IndexSet
    r_start: float
    r_end: float
    start: tuple[complex, ...]
    end: tuple[complex, ...]

    @property
    def endpoint(self) -> ChartPoint:
        return ChartPoint(self.chart, self.end)


@dataclass(frozen=True)
class LimitReport:
    """A verdict on a flow limit.  `horizon` is the flow time r at which
    numeric_limit is taken (see limit_verdict); equality compares the
    verdict and the point only."""

    predicted_stratum: IndexSet
    numeric_limit: ChartPoint
    residual: float
    converged: bool
    horizon: float = field(compare=False)


def integer_direction(v) -> tuple[tuple[int, ...], int]:
    """(L*v, L) for L the lcm of the denominators of the rational entries
    of v: an integer vector on the same ray, so every pairing keeps its
    sign and <L*v, a> / L is the exact pairing <v, a>."""
    x = [Fraction(t) for t in v]
    scale = math.lcm(*(t.denominator for t in x))
    return tuple(t.numerator * (scale // t.denominator) for t in x), scale


def limit_stratum(f: Fan, xi):
    """The index set I with xi in the relative interior of the cone over I;
    the flow of xi converges into the stratum of I as r -> -infinity.
    None only for directions outside the support of an incomplete fan."""
    return support_contains(f, integer_direction(xi)[0])


def limit_direction(xi, r_final: float):
    """The direction whose limit_stratum the flow of xi approaches when
    tracked to r_final: xi itself for r_final <= 0 (r -> -infinity), and
    -xi for r_final > 0, since running forward is the flow of -xi run
    backward (the stratum track targets)."""
    return xi if r_final <= 0 else tuple(-Fraction(t) for t in xi)


def pairing_rates(weights: WeightBasis, d: Direction):
    """Exact pairings (<u, alpha_j>, <v, alpha_j>) per chart coordinate."""
    if any(v is not None and len(v) != weights.dim for v in (d.xi, d.angular)):
        raise MalformedInput(f"the direction needs {weights.dim} entries")  # zip would truncate
    u = [lattice.dot(d.xi, row) for row in weights.weights]
    if d.angular is None:
        v = [Fraction(0)] * len(u)
    else:
        v = [lattice.dot(d.angular, row) for row in weights.weights]
    return list(zip(u, v))


def _factor(u, v, r: float) -> complex:
    """exp(2*pi*r*(u + i v)) with overflow mapped to an infinite modulus."""
    try:
        mag = math.exp(TWO_PI * r * float(u))
    except OverflowError:
        mag = math.inf
    phase = TWO_PI * r * float(v)
    return complex(mag * math.cos(phase), mag * math.sin(phase))


def _closed_form(rates, coords, r: float) -> tuple[complex, ...]:
    return tuple(_factor(u, v, r) * z for (u, v), z in zip(rates, coords))


def curve_point(weights: WeightBasis, q: ChartPoint, d: Direction, r: float) -> ChartPoint:
    """Closed form of the flow after parameter r, started at q."""
    return ChartPoint(q.chart, _closed_form(pairing_rates(weights, d), q.coords, r))


def integrate(weights: WeightBasis, q: ChartPoint, d: Direction,
              r_final: float, step: float) -> ChartPoint:
    """Classical fourth-order Runge-Kutta integration of the chart ODE.

    Matches curve_point to about 1e-8 relative accuracy when the total
    exponents |r_final * <u, alpha_j>| stay below 3 and the step is at
    most 1e-3 with |r_final| >= 1 or so.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    rates = pairing_rates(weights, d)
    cs = [complex(TWO_PI * float(u), TWO_PI * float(v)) for u, v in rates]
    z = list(q.coords)
    nfull, h = divmod(abs(r_final), step)
    steps = [math.copysign(step, r_final)] * int(nfull)
    if h > 0:
        steps.append(math.copysign(h, r_final))
    for h in steps:
        k1 = [c * x for c, x in zip(cs, z)]
        k2 = [c * (x + 0.5 * h * k) for c, x, k in zip(cs, z, k1)]
        k3 = [c * (x + 0.5 * h * k) for c, x, k in zip(cs, z, k2)]
        k4 = [c * (x + h * k) for c, x, k in zip(cs, z, k3)]
        z = [x + h / 6.0 * (a + 2 * b + 2 * cc + dd)
             for x, a, b, cc, dd in zip(z, k1, k2, k3, k4)]
        if not all(cmath.isfinite(x) for x in z):
            raise NonFiniteState("integration overflowed; the direction expands out of the chart")
    return ChartPoint(q.chart, tuple(z))


def _modulus(z) -> float:
    """abs(z), or inf when z is finite but its modulus is beyond the float
    range, where abs raises OverflowError.  math.hypot would give inf too,
    but it rounds differently from abs in the last place, and the tracked
    segments and verdicts keep abs's values."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _max_modulus(coords) -> float:
    return max(abs(z) for z in coords)


def _pairings(rows, v: tuple[int, ...]) -> list[int]:
    return [sum(map(mul, row, v)) for row in rows]


# A coordinate's log-modulus estimate is trusted only while every value
# its transition map forms stays within e^(+-LOG_RANGE), well inside the
# normal floating-point range (e^710 overflows, e^-709 is subnormal).
LOG_RANGE = 600.0
# scale of the error margin delta of a pruning estimate (see _next_chart)
PRUNE_MARGIN = 1e-9


def _next_chart(f: Fan, chart: IndexSet, candidates, point):
    """The candidate chart holding `point` (given in `chart`) at the
    smallest largest modulus, as (key, cone, coordinates) with key =
    (largest modulus, cone), or None when every candidate's transition
    map divides by zero, overflows or gives a non-finite coordinate.

    Candidates are decided exactly, by transition(f, chart, c).apply,
    unless a certified estimate shows that one cannot win.  The map sends
    the point to w_j = prod_i z_i^E_ji with E_ji = <a_j, g_i>, for a_j the
    weight rows of c and g_i the generators of `chart` (E = A_c G^T), so
    with l_i = log|z_i| the exact log|w_j| is sum_i E_ji l_i = <a_j, y>
    for y = sum_i l_i g_i.  The map forms w_j from the powers z_i^E_ji and
    their partial products, whose log moduli are the terms E_ji l_i and
    their partial sums; let R_j be the largest of these in size, and
    S_j = sum_i |E_ji| (|l_i| + 1) >= R_j.  Each row gets an estimate P
    of log|w_j| and a size T >= S_j: first P = <a_j, y> with
    T = sum_k |a_jk| h_k, h_k = sum_i |g_ik| (|l_i| + 1); when that T
    exceeds LOG_RANGE, P = sum_i E_ji l_i from the exact exponents with
    T = S_j.  The row is used only when T <= LOG_RANGE, or R_j <=
    LOG_RANGE in the second case: then every z_i the map uses and every
    value it forms is a normal float, nothing under- or overflows, and
    the computed log|w_j| differs from P by less than
    (8n + 8) * 2^-53 * T (P's roundings, and those of the logarithms, the
    powers and the products of the map); the logarithm of the best
    modulus is off by less than 1e-13.  Both are far below
    delta = PRUNE_MARGIN * (1 + T) for any n <= 10^5.  A candidate with a
    row where P - delta exceeds the log of the best largest modulus so
    far therefore has a strictly larger largest modulus than that best
    and is never chosen: it is pruned.  The best modulus only decreases
    and pruning is strict, so the choice, ties included, is that of
    evaluating every candidate.

    The facet neighbour across the largest coordinate of the point (the
    facet the flow leaves through) is evaluated first when it is a
    candidate: it usually wins, and the rest are pruned against it.
    Every candidate is evaluated exactly, in the given order, when a
    coordinate of the point is zero or not finite; pruning starts once
    some candidate gave finite coordinates, and never skips a candidate
    without weight rows (its transition raises NotUnimodular).
    """
    charts = f.charts
    estimate = None
    moduli = [math.hypot(x.real, x.imag) for x in point]
    if all(0.0 < t < math.inf for t in moduli):
        logs = [math.log(t) for t in moduli]
        sizes = [abs(t) + 1.0 for t in logs]
        gens = f.generators(chart)
        cols = list(zip(*gens))
        y = [sum(map(mul, col, logs)) for col in cols]
        h = [sum(map(mul, map(abs, col), sizes)) for col in cols]
        estimate = gens, logs, sizes, y, h
        k = moduli.index(max(moduli))
        wall = chart[:k] + chart[k + 1:]
        first = next((c for c in f.facet_map[wall] if c != chart), None)
        if first in candidates and charts[first] is not None:
            candidates = [first] + [c for c in candidates if c != first]
    best = None
    bound = None  # log of the best largest modulus, once pruning is on
    for c in candidates:
        rows = charts[c]
        if bound is not None and rows is not None and _dominated(rows, estimate, bound):
            continue
        try:
            w = transition(f, chart, c).apply(point)
            if not all(cmath.isfinite(x) for x in w):
                continue
            key = (_max_modulus(w), c)
        except (ZeroDivisionError, OverflowError):
            continue
        if best is None or key < best[0]:
            best = (key, c, w)
            if estimate is not None:
                bound = math.log(key[0]) if key[0] > 0 else -math.inf
    return best


def _dominated(rows, estimate, bound: float) -> bool:
    """Does a weight row certify a coordinate of modulus above e^bound?
    The estimate, its size and its margin are those of _next_chart."""
    gens, logs, sizes, y, h = estimate
    for row in rows:
        p = sum(map(mul, row, y))
        if p > bound:
            size = sum(map(mul, map(abs, row), h))
            if size > LOG_RANGE:
                e = [sum(map(mul, row, g)) for g in gens]
                terms = [x * t for x, t in zip(e, logs) if x]
                if max(map(abs, chain(terms, accumulate(terms)))) > LOG_RANGE:
                    continue
                size = sum(map(mul, map(abs, e), sizes))
                p = sum(terms)
            if p - PRUNE_MARGIN * (1.0 + size) > bound:
                return True
    return False


def track(f: Fan, start: ChartPoint, d: Direction, r_final: float,
          stratum=None) -> list[TrajectorySegment]:
    """Follow the flow from r = 0 to r_final across charts.

    Within a chart the closed form is used, so switch times are exact
    threshold crossings of the coordinate moduli.  On a switch, the
    candidates are the full-dimensional cones containing the target
    stratum that share a facet with the current chart (read off
    `Fan.facet_map`), or, when there is none, every other
    full-dimensional cone.  The next chart is the candidate whose
    transformed point has the smallest largest modulus (ties go to the
    smaller index set); a candidate whose transition map divides by zero,
    overflows or gives a non-finite coordinate (or modulus) is skipped.

    The rule is applied as if every candidate were mapped exactly, but
    only about one is (see _next_chart): the facet neighbour across the
    largest coordinate is mapped first, and each other candidate is
    dropped when one of its coordinates certifiably exceeds the best
    largest modulus so far.  On the open orbit log|w_j| = <a_j, y> for
    y = sum_i log|z_i| g_i, so that needs one dot product per weight row
    a_j; the certificate allows a floating-point error of
    delta = 1e-9 * (1 + T), T = sum_i |E_ji| (|log|z_i|| + 1) or a bound
    on it, and only where T <= LOG_RANGE (nothing under- or overflows).
    At a point with a zero or non-finite coordinate every candidate is
    mapped exactly.

    The direction is scaled once to an integer vector xi' = L*xi, so the
    exact pairings with a chart's weights are integers p, and the rates
    p / L are the correctly rounded floats of the rational pairings.

    The target stratum is that of limit_direction(d.xi, r_final); a
    caller that has computed it hands it in as `stratum`.
    """
    threshold = 1.0 + POLYDISC_MARGIN
    n = f.ambient_dim
    complete, _ = is_complete_facet(f)
    if not complete:
        raise NotComplete("trajectory tracking needs a complete fan")
    chart = tuple(sorted(start.chart))
    if not f.is_maximal(chart) or len(chart) != n:
        raise NotMaximal(f"start chart {set(start.chart)} is not a full-dimensional cone")
    if any(v is not None and len(v) != n for v in (start.coords, d.xi, d.angular)):
        raise MalformedInput(f"the start and the direction need {n} entries each")
    if not all(cmath.isfinite(z) for z in start.coords):
        raise MalformedInput("start coordinates must be finite")
    if any(z == 0 for z in start.coords):
        raise ZeroCoordinateStart("start must lie in the free orbit (no zero coordinate)")

    forward = r_final > 0
    xi, scale = integer_direction(d.xi)
    if stratum is None:
        stratum = limit_stratum(f, limit_direction(xi, r_final))
    target = set(stratum or ())
    if d.angular is None:
        angular = None
    else:
        angular, angular_scale = integer_direction(d.angular)
    segments: list[TrajectorySegment] = []
    r = 0.0
    z = start.coords
    if r_final == 0:
        return [TrajectorySegment(chart, 0.0, 0.0, z, z)]
    s = 1.0 if forward else -1.0
    switches = 0
    max_switches = 8 * len(f.maximal_cones) + 16
    facet_map = f.facet_map
    full = [c for c in f.maximal_cones if len(c) == n]

    while True:
        rows = weight_matrix(f, chart)
        growth = _pairings(rows, xi)
        if angular is None:
            turns = [0.0] * n
        else:
            turns = [q / angular_scale for q in _pairings(rows, angular)]
        rates = [(p / scale, v) for p, v in zip(growth, turns)]
        # exact threshold crossings of the growing coordinates
        t_event = None
        for p, (u, _), x in zip(growth, rates, z):
            if (p if forward else -p) <= 0:
                continue
            mod = _modulus(x)
            if mod == 0.0:
                continue  # underflowed coordinate: numerically stuck at 0
            if mod >= threshold:
                t_event = 0.0
                break
            q = threshold / mod  # inf when mod < threshold / DBL_MAX
            log_q = math.log(q) if q != math.inf else math.log(threshold) - math.log(mod)
            t_cross = log_q / (TWO_PI * abs(u))
            if t_event is None or t_cross < t_event:
                t_event = t_cross
        remaining = abs(r_final - r)
        if t_event is None or t_event >= remaining:
            end = _closed_form(rates, z, r_final - r)
            segments.append(TrajectorySegment(chart, r, r_final, z, end))
            return segments
        r_event = r + s * t_event
        at_event = _closed_form(rates, z, s * t_event)
        segments.append(TrajectorySegment(chart, r, r_event, z, at_event))

        candidates = sorted(
            c for i in range(n)
            for c in facet_map[chart[:i] + chart[i + 1:]]
            if c != chart and target <= set(c)
        )
        if not candidates:
            candidates = [c for c in full if c != chart]
        best = _next_chart(f, chart, candidates, at_event)
        if best is None:
            raise NonFiniteState("no chart can represent the trajectory point")
        _, chart, z = best
        r = r_event
        switches += 1
        if switches > max_switches:
            raise TrackingError("chart switching failed to settle")


def verify_limit(f: Fan, xi, start: ChartPoint, tol: float = DEFAULT_TOL,
                 r_final: float = R_AT_INFINITY) -> LimitReport:
    """Numerically confirm the limit classification of a direction: track
    the flow of xi to r_final and judge the end with limit_verdict at its
    closed-form horizon, against the stratum of limit_direction(xi,
    r_final).  The stratum is computed once, here, and handed to track."""
    stratum = limit_stratum(f, limit_direction(xi, r_final))
    segments = track(f, start, direction(xi), r_final, stratum)
    return limit_verdict(f, stratum, segments, xi, tol)


def limit_verdict(f: Fan, stratum, segments, xi, tol: float = DEFAULT_TOL) -> LimitReport:
    """The verdict on segments tracked along the flow of xi: limit_report,
    judged in a chart that holds the predicted stratum, at the closed-form
    horizon of that flow.

    A final chart that misses the stratum has no coordinates dual to some
    of its rays, so its pattern says nothing about them.  Then the end
    point is mapped by one transition into each full-dimensional cone
    holding the stratum and judged there, and the cone with the smallest
    residual is reported (the first in order on a tie).  A cone whose map
    divides by zero or overflows is skipped; when every one is, the end
    is reported in its own chart, not converged, with an infinite
    residual.

    In a chart sigma holding the stratum tau the flow of xi is known in
    closed form (the orbit-cone correspondence, Fulton, Introduction to
    Toric Varieties, 1993, 3.1): xi pairs to 0 with sigma's rows off tau,
    so those coordinates are constant, and tau's decay at the exact rates
    p_j / L.  Each judged point is moved along that closed form from the
    segments' end r_final to the horizon min(r_final, r*), r* the largest
    r at which every coordinate of tau is below tol / 10; for r_final > 0,
    where tau is the stratum of -xi, to max(r_final, r*) with r* the least
    such r.  An end at r_final = 0, or with a coordinate of tau that is
    not finite, is judged where it is.  The report's horizon is the r of
    its point.
    """
    scaled = integer_direction(xi)
    last = segments[-1]
    r_final = last.r_end
    inside = set(stratum)
    if inside <= set(last.chart):
        return _at_horizon(f, stratum, last.endpoint, r_final, scaled, tol)
    best = None
    for sigma in fixed_points(f):
        if inside <= set(sigma):
            to_sigma = transition(f, last.chart, sigma)
            try:
                coords = to_sigma.apply(last.end)
            except (ZeroDivisionError, OverflowError):
                continue
            report = _at_horizon(f, stratum, ChartPoint(sigma, coords), r_final, scaled, tol)
            if best is None or report.residual < best.residual:
                best = report
    return best or LimitReport(stratum, last.endpoint, math.inf, False, r_final)


def _at_horizon(f: Fan, stratum, point: ChartPoint, r_final: float, scaled,
                tol: float) -> LimitReport:
    """_judge the point, reached at r_final in a chart holding the
    stratum, at its horizon (see limit_verdict); scaled is
    integer_direction(xi)."""
    if not stratum or r_final == 0 or not math.isfinite(r_final):
        return _judge(stratum, point, tol, r_final)
    xi, scale = scaled
    rates = [(p / scale, 0.0)
             for p in _pairings(f.charts.get(point.chart) or weight_matrix(f, point.chart), xi)]
    forward = r_final > 0
    target = math.log(tol / 10)
    horizon = r_final
    inside = set(stratum)
    for ray, (u, _), z in zip(point.chart, rates, point.coords):
        if ray not in inside:
            continue
        mod = math.hypot(z.real, z.imag)
        if not mod < math.inf or (u >= 0 if forward else u <= 0):
            return _judge(stratum, point, tol, r_final)  # no decay to extend
        if mod > 0:
            r_j = r_final + (target - math.log(mod)) / (TWO_PI * u)
            horizon = max(horizon, r_j) if forward else min(horizon, r_j)
    if horizon != r_final:
        point = ChartPoint(point.chart, _closed_form(rates, point.coords, horizon - r_final))
    return _judge(stratum, point, tol, horizon)


def limit_report(stratum, segments, tol: float = DEFAULT_TOL) -> LimitReport:
    """Check the coordinate pattern at the end of tracked segments against
    a predicted stratum, in the final chart (see _judge).  limit_verdict
    judges in a chart that holds the stratum."""
    last = segments[-1]
    return _judge(stratum, last.endpoint, tol, last.r_end)


def _judge(stratum, point: ChartPoint, tol: float, horizon: float) -> LimitReport:
    """Coordinates of the point's chart dual to the rays of the stratum
    must be below tol in modulus, all others bounded away from zero.  The
    residual is the largest must-vanish modulus, or infinity when some
    must-survive coordinate dropped below tol or any coordinate is not
    finite.
    """
    inside = set(stratum)
    residual = 0.0
    for ray, coord in zip(point.chart, point.coords):
        if not cmath.isfinite(coord):
            residual = math.inf
        elif ray in inside:
            residual = max(residual, _modulus(coord))
        elif _modulus(coord) < tol:
            residual = math.inf
    return LimitReport(
        predicted_stratum=stratum,
        numeric_limit=point,
        residual=residual,
        converged=residual <= tol,
        horizon=horizon,
    )


def vanishing_pattern(report: LimitReport, tol: float = DEFAULT_TOL) -> IndexSet:
    """Ray indices of the final chart whose coordinates vanished."""
    pt = report.numeric_limit
    return tuple(ray for ray, z in zip(pt.chart, pt.coords) if _modulus(z) <= tol)


def trajectory_samples(f: Fan, d: Direction, segments, per_segment: int = 32):
    """Evenly sampled (r, chart, coords) rows along a tracked trajectory,
    for line-oriented export."""
    rows = []
    for seg in segments:
        weights = isotropy_weights(f, seg.chart)
        q = ChartPoint(seg.chart, seg.start)
        span = seg.r_end - seg.r_start
        count = per_segment if span else 0
        for k in range(count + 1):
            r = seg.r_start + span * k / per_segment if span else seg.r_start
            pt = curve_point(weights, q, d, r - seg.r_start)
            rows.append((r, seg.chart, pt.coords))
    return rows
