import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import complete_builtins, subdivision_iterates
from toricfan import cli, flow, toric
from toricfan.errors import (
    MalformedInput,
    NonFiniteState,
    NotComplete,
    NotMaximal,
    NotUnimodular,
    TrackingError,
    ZeroCoordinateStart,
)
from toricfan.fan import is_complete_facet, make_fan, support_contains
from toricfan.formats import dump_fan
from toricfan.library import cp1, cpn, quadrant
from toricfan.toric import WeightBasis

CP2 = cpn(2)
STD_WEIGHTS = WeightBasis("p0-1", ((1, 0), (0, 1)))


def ones(chart):
    return flow.chart_point(chart, (1.0,) * len(chart))


class TestLimitStratum:
    def test_full_chart(self):
        assert flow.limit_stratum(CP2, (2, 1)) == (0, 1)

    def test_skew_chart(self):
        # (1,-1) = 2*(1,0) + 1*(-1,-1)
        assert flow.limit_stratum(CP2, (1, -1)) == (0, 2)

    def test_zero_direction(self):
        assert flow.limit_stratum(CP2, (0, 0)) == ()

    def test_rational_direction(self):
        assert flow.limit_stratum(CP2, (Fraction(1, 2), Fraction(1, 3))) == (0, 1)

    def test_outside_incomplete_support(self):
        assert flow.limit_stratum(quadrant(2), (-1, 0)) is None


class TestCurvePoint:
    def test_pinned_exponentials(self):
        p = flow.curve_point(STD_WEIGHTS, ones((0, 1)), flow.direction((1, 2)), -1.0)
        assert p.coords[0] == pytest.approx(math.exp(-2 * math.pi))
        assert p.coords[1] == pytest.approx(math.exp(-4 * math.pi))

    def test_r_zero_is_identity(self):
        q = flow.chart_point((0, 1), (0.3 + 0.4j, -2.0))
        p = flow.curve_point(STD_WEIGHTS, q, flow.direction((5, -3)), 0.0)
        assert p.coords == q.coords

    def test_quarter_turn_rotation(self):
        d = flow.direction((0, 0), angular=(1, 0))
        p = flow.curve_point(STD_WEIGHTS, ones((0, 1)), d, 0.25)
        assert p.coords[0] == pytest.approx(1j)
        assert p.coords[1] == pytest.approx(1.0)

    def test_group_law(self):
        rng = random.Random(2)
        d = flow.direction((Fraction(1, 3), Fraction(-1, 2)), (1, 1))
        for _ in range(20):
            r, s = rng.uniform(-2, 2), rng.uniform(-2, 2)
            q = flow.chart_point((0, 1), (rng.uniform(0.5, 2), rng.uniform(0.5, 2)))
            once = flow.curve_point(STD_WEIGHTS, q, d, r + s)
            twice = flow.curve_point(
                STD_WEIGHTS, flow.curve_point(STD_WEIGHTS, q, d, r), d, s
            )
            for a, b in zip(once.coords, twice.coords):
                assert a == pytest.approx(b, rel=1e-12)

    def test_exact_pairings_decide_signs(self):
        # a pairing of exactly zero keeps the modulus constant forever
        weights = toric.isotropy_weights(CP2, (1, 2))
        d = flow.direction((0, 1))  # pairs to (1, 0) with the weights
        p = flow.curve_point(weights, ones((1, 2)), d, -40.0)
        assert abs(p.coords[1]) == pytest.approx(1.0)
        assert abs(p.coords[0]) < 1e-100


class TestIntegrate:
    def test_matches_closed_form(self):
        d = flow.direction((1, 2))
        got = flow.integrate(STD_WEIGHTS, ones((0, 1)), d, -1.0, 1e-3)
        want = flow.curve_point(STD_WEIGHTS, ones((0, 1)), d, -1.0)
        for a, b in zip(got.coords, want.coords):
            assert abs(a - b) / abs(b) < 1e-8

    def test_r_zero_exact(self):
        q = flow.chart_point((0, 1), (0.5, 0.25j))
        assert flow.integrate(STD_WEIGHTS, q, flow.direction((1, 1)), 0.0, 1e-3).coords == q.coords

    def test_stiff_growth(self):
        d = flow.direction((1, -1))
        got = flow.integrate(STD_WEIGHTS, ones((0, 1)), d, -3.0, 1e-3)
        want = flow.curve_point(STD_WEIGHTS, ones((0, 1)), d, -3.0)
        assert abs(got.coords[1]) > 1e8  # grows like exp(6 pi)
        for a, b in zip(got.coords, want.coords):
            assert abs(a - b) / abs(b) < 1e-6

    def test_rotation_accuracy(self):
        d = flow.direction((0, 0), angular=(2, -1))
        got = flow.integrate(STD_WEIGHTS, ones((0, 1)), d, 1.5, 1e-3)
        want = flow.curve_point(STD_WEIGHTS, ones((0, 1)), d, 1.5)
        for a, b in zip(got.coords, want.coords):
            assert abs(a - b) < 1e-8

    def test_overflow_raises(self):
        with pytest.raises(NonFiniteState):
            flow.integrate(
                WeightBasis("p0", ((1,),)), ones((0,)), flow.direction((60,)), 3.0, 1e-3
            )

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            flow.integrate(STD_WEIGHTS, ones((0, 1)), flow.direction((1, 1)), 1.0, 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_against_closed_form(self, seed):
        rng = random.Random(seed)
        f = complete_builtins()[rng.choice(list(complete_builtins()))]
        chart = rng.choice(toric.fixed_points(f))
        weights = toric.isotropy_weights(f, chart)
        n = f.ambient_dim
        r_final = rng.choice((-1, 1)) * rng.uniform(1.5, 2.0)
        bound = abs(Fraction(3) / Fraction(r_final).limit_denominator(10 ** 6))

        def synth(per_coord_bound):
            # choose a direction whose pairings with the weights are the
            # drawn values exactly, by expanding in the cone generators
            drawn = [
                Fraction(rng.randint(-1000, 1000), 1000) * per_coord_bound
                for _ in range(n)
            ]
            return tuple(
                sum(p * g[i] for p, g in zip(drawn, f.generators(chart)))
                for i in range(n)
            )

        d = flow.direction(synth(bound), synth(bound / 3))
        q = flow.chart_point(
            chart,
            [rng.uniform(0.4, 1.0) * cmath.exp(1j * rng.uniform(0, 6.28)) for _ in range(n)],
        )
        got = flow.integrate(weights, q, d, r_final, 1e-3)
        want = flow.curve_point(weights, q, d, r_final)
        for a, b in zip(got.coords, want.coords):
            assert abs(a - b) / abs(b) < 1e-8


class TestTrack:
    def test_stays_in_attracting_chart(self):
        segs = flow.track(CP2, ones((0, 1)), flow.direction((2, 1)), -10.0)
        assert [s.chart for s in segs] == [(0, 1)]
        assert abs(segs[-1].end[0]) < 1e-6 and abs(segs[-1].end[1]) < 1e-6

    def test_switches_to_limit_chart(self):
        segs = flow.track(CP2, ones((0, 1)), flow.direction((1, -1)), -10.0)
        assert segs[-1].chart == (0, 2)
        assert max(abs(z) for z in segs[-1].end) < 1e-6

    def test_projective_line_two_limits(self):
        start = flow.chart_point((0,), (2.0,))
        stays = flow.track(cp1(), start, flow.direction((1,)), -10.0)
        assert stays[-1].chart == (0,)
        assert abs(stays[-1].end[0]) < 1e-6
        moves = flow.track(cp1(), start, flow.direction((-1,)), -10.0)
        assert moves[-1].chart == (1,)
        assert abs(moves[-1].end[0]) < 1e-6

    def test_requires_complete_fan(self):
        with pytest.raises(NotComplete):
            flow.track(quadrant(2), ones((0, 1)), flow.direction((1, 1)), -1.0)

    def test_rejects_zero_coordinate(self):
        with pytest.raises(ZeroCoordinateStart):
            flow.track(CP2, flow.chart_point((0, 1), (0, 1)), flow.direction((1, 1)), -1.0)

    def test_rejects_unknown_chart(self):
        with pytest.raises(NotMaximal):
            flow.track(CP2, flow.chart_point((0,), (1,)), flow.direction((1, 1)), -1.0)

    def test_final_chart_contains_stratum(self):
        rng = random.Random(12)
        for f in (CP2, complete_builtins()["hirzebruch1"]):
            for _ in range(15):
                xi = tuple(rng.randint(-4, 4) for _ in range(2))
                stratum = flow.limit_stratum(f, xi)
                chart = rng.choice(toric.fixed_points(f))
                segs = flow.track(f, ones(chart), flow.direction(xi), -10.0)
                assert set(stratum) <= set(segs[-1].chart)

    @pytest.mark.parametrize("name", ["cp2", "cp3", "cp4", "hirzebruch2"])
    def test_limit_verified_from_every_chart_containing_stratum(self, name):
        # interior directions of each cone, tracked from the all-ones point
        # of every chart that contains the cone
        f = complete_builtins()[name]
        charts = toric.fixed_points(f)
        for stratum in sorted(f.cones):
            xi = tuple(
                sum(g[i] for g in f.generators(stratum))
                for i in range(f.ambient_dim)
            )
            for chart in charts:
                if not set(stratum) <= set(chart):
                    continue
                rep = flow.verify_limit(f, xi, ones(chart), tol=1e-6)
                assert rep.converged
                assert flow.vanishing_pattern(rep) == stratum

    def test_zero_direction_constant(self):
        segs = flow.track(CP2, ones((0, 1)), flow.direction((0, 0)), -10.0)
        assert len(segs) == 1
        assert segs[-1].end == (1.0 + 0j, 1.0 + 0j)

    def test_chart_relabeling_invariance(self):
        # the all-ones point is the same base point in every chart
        d = flow.direction((2, 1))
        a = flow.track(CP2, ones((0, 1)), d, -1.0)
        b = flow.track(CP2, ones((1, 2)), d, -1.0)
        pa, pb = a[-1], b[-1]
        m = toric.transition(CP2, pb.chart, pa.chart)
        mapped = m.apply(pb.end)
        for x, y in zip(mapped, pa.end):
            assert abs(x - y) < 1e-6

    def test_forward_time_runs_to_opposite_stratum(self):
        segs = flow.track(CP2, ones((0, 1)), flow.direction((-2, -1)), 10.0)
        assert segs[-1].chart == (0, 1)
        assert max(abs(z) for z in segs[-1].end) < 1e-6


class TestVerifyLimit:
    def test_interior_direction(self):
        rep = flow.verify_limit(CP2, (2, 1), ones((0, 1)), tol=1e-6)
        assert rep.predicted_stratum == (0, 1)
        assert rep.converged and rep.residual < 1e-6
        assert max(abs(z) for z in rep.numeric_limit.coords) < 1e-6

    def test_ray_direction_mixed_pattern(self):
        rep = flow.verify_limit(CP2, (1, 0), ones((0, 1)), tol=1e-6)
        assert rep.predicted_stratum == (0,)
        assert rep.converged
        coords = dict(zip(rep.numeric_limit.chart, rep.numeric_limit.coords))
        assert abs(coords[0]) < 1e-6
        assert abs(coords[1]) == pytest.approx(1.0)

    def test_zero_direction_trivially_converged(self):
        rep = flow.verify_limit(CP2, (0, 0), ones((0, 1)), tol=1e-6)
        assert rep.predicted_stratum == ()
        assert rep.converged and rep.residual == 0.0

    def test_mismatched_pattern_reports_infinite_residual(self):
        # a start with a tiny non-vanishing coordinate breaks the pattern
        start = flow.chart_point((0, 1), (1.0, 1e-9))
        rep = flow.verify_limit(CP2, (1, 0), start, tol=1e-6)
        assert rep.residual == math.inf and not rep.converged

    def test_vanishing_pattern_helper(self):
        rep = flow.verify_limit(CP2, (1, -1), ones((0, 1)), tol=1e-6)
        assert flow.vanishing_pattern(rep) == (0, 2)


class TestMalformedVectors:
    """A direction, angular part or start of the wrong length is rejected:
    zip would drop the extra entries or the missing pairings silently.  A
    start with a non-finite coordinate is rejected too; zero and huge
    starts keep their own outcomes."""

    @pytest.mark.parametrize("xi", [(1,), (1, 1, 1)])
    def test_limit_stratum(self, xi):
        with pytest.raises(MalformedInput, match="expected 2 entries"):
            flow.limit_stratum(CP2, xi)
        with pytest.raises(MalformedInput):
            support_contains(CP2, xi)

    @pytest.mark.parametrize("xi, coords", [((1, 1), (0.5,)), ((1,), (0.5,)),
                                            ((1,), (0.5, 0.5)), ((1, 1), (0.5, 0.5, 0.5))])
    def test_verify_limit(self, xi, coords):
        with pytest.raises(MalformedInput):
            flow.verify_limit(CP2, xi, flow.chart_point((0, 1), coords))

    def test_track(self):
        one = Fraction(1)
        for d in [flow.direction((1,)), flow.direction((1, 1, 1)),
                  flow.Direction((one, one), (one,)), flow.Direction((one, one), (one,) * 3)]:
            with pytest.raises(MalformedInput):
                flow.track(CP2, ones((0, 1)), d, -1.0)
        for coords in [(0.5,), (0.5, 0.5, 0.5)]:
            with pytest.raises(MalformedInput):
                flow.track(CP2, flow.chart_point((0, 1), coords), flow.direction((1, 1)), -1.0)

    def test_direction(self):
        with pytest.raises(MalformedInput, match="angular part"):
            flow.direction((1, 1), (1,))

    def test_pairing_rates(self):
        one = Fraction(1)
        for d in [flow.direction((1,)), flow.direction((1, 1, 1)),
                  flow.Direction((one, one), (one,))]:
            with pytest.raises(MalformedInput):
                flow.pairing_rates(STD_WEIGHTS, d)
            with pytest.raises(MalformedInput):
                flow.curve_point(STD_WEIGHTS, ones((0, 1)), d, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(1, math.nan), complex(math.inf, 1)])
    def test_non_finite_start(self, bad):
        start = flow.chart_point((0, 1), (bad, 1.0))
        with pytest.raises(MalformedInput, match="finite"):
            flow.track(CP2, start, flow.direction((1, 2)), -10.0)
        with pytest.raises(MalformedInput, match="finite"):
            flow.verify_limit(CP2, (1, 2), start)
        with pytest.raises(ZeroCoordinateStart):
            flow.verify_limit(CP2, (1, 2), flow.chart_point((0, 1), (0.0, 1.0)))
        # a huge start is finite: its flow reaches the fixed point {0, 1}
        # at the horizon, far beyond r = -10
        huge = flow.verify_limit(CP2, (1, 2), flow.chart_point((0, 1), (1e300, 1.0)))
        assert huge.predicted_stratum == huge.numeric_limit.chart == (0, 1)
        assert huge.converged and huge.horizon < flow.R_AT_INFINITY


class TestForwardFlow:
    """For r_final > 0 the flow of xi runs into the stratum of -xi."""

    def test_cp2_converges_into_the_opposite_ray(self):
        rep = flow.verify_limit(CP2, (1, 1), ones((0, 2)), r_final=3.0)
        assert rep.predicted_stratum == (2,)
        assert rep.converged and rep.residual < 1e-6

    def test_stratum_of_minus_xi_from_any_chart(self):
        rep = flow.verify_limit(CP2, (1, 1), ones((0, 1)), r_final=3.0)
        assert rep.predicted_stratum == flow.limit_stratum(CP2, (-1, -1)) == (2,)
        assert rep.converged
        assert 2 in rep.numeric_limit.chart

    def test_limit_direction(self):
        assert flow.limit_direction((1, -2), -10.0) == (1, -2)
        assert flow.limit_direction((1, -2), 0.0) == (1, -2)
        assert flow.limit_direction((1, Fraction(-1, 3)), 2.5) == (-1, Fraction(1, 3))

    @pytest.mark.parametrize("name", sorted(complete_builtins()))
    def test_forward_is_backward_of_minus_xi(self, name):
        # exp(2 pi r <xi, a>) is the same float for (r, xi) and (-r, -xi),
        # and both runs target the stratum of -xi, so the reports agree
        f = complete_builtins()[name]
        rng = random.Random(3)
        charts = [c for c in f.maximal_cones if len(c) == f.ambient_dim]
        for _ in range(6):
            xi = tuple(rng.randint(-3, 3) for _ in range(f.ambient_dim))
            start = flow.chart_point(rng.choice(charts),
                                     [rng.uniform(0.3, 0.9) for _ in range(f.ambient_dim)])
            minus = tuple(-t for t in xi)
            forward = flow.verify_limit(f, xi, start, r_final=4.0)
            assert forward == flow.verify_limit(f, minus, start, r_final=-4.0)
            assert forward.predicted_stratum == flow.limit_stratum(f, minus)


class TestTrajectorySamples:
    def test_rows_cover_segments(self):
        d = flow.direction((1, -1))
        segs = flow.track(CP2, ones((0, 1)), d, -10.0)
        rows = flow.trajectory_samples(CP2, d, segs, per_segment=8)
        assert rows[0][0] == 0.0
        assert rows[-1][0] == -10.0
        charts = {chart for _, chart, _ in rows}
        assert charts == {s.chart for s in segs}
        for r, chart, coords in rows:
            assert len(coords) == 2


def reference_track(f, start, d, r_final):
    """Chart-by-chart tracking by its first definition: a weight basis and
    the closed form per segment, and at every switch a scan of all maximal
    cones for facet neighbours holding the target stratum, each mapped
    through transition(...).apply.  Candidates whose map overflows are
    skipped, like those that divide by zero."""
    threshold = 1.0 + flow.POLYDISC_MARGIN
    n = f.ambient_dim
    if not is_complete_facet(f)[0]:
        raise NotComplete("trajectory tracking needs a complete fan")
    chart = tuple(sorted(start.chart))
    if chart not in f.maximal_cones or len(chart) != n:
        raise NotMaximal(f"start chart {set(start.chart)} is not a full-dimensional cone")
    if any(z == 0 for z in start.coords):
        raise ZeroCoordinateStart("start must lie in the free orbit (no zero coordinate)")
    forward = r_final > 0
    target_xi = tuple(-t for t in d.xi) if forward else d.xi
    target = support_contains(f, tuple(Fraction(t) for t in target_xi)) or ()
    segments = []
    r = 0.0
    z = start.coords
    if r_final == 0:
        return [flow.TrajectorySegment(chart, 0.0, 0.0, z, z)]
    s = 1.0 if forward else -1.0
    switches = 0
    max_switches = 8 * len(f.maximal_cones) + 16
    while True:
        weights = toric.isotropy_weights(f, chart)
        rates = flow.pairing_rates(weights, d)
        t_event = None
        for (u, _), x in zip(rates, z):
            if u * (1 if forward else -1) <= 0:
                continue
            mod = abs(x)
            if mod == 0.0:
                continue
            if mod >= threshold:
                t_event = 0.0
                break
            t_cross = (math.log(threshold / mod) if threshold / mod != math.inf else math.log(threshold) - math.log(mod)) / (flow.TWO_PI * abs(float(u)))
            if t_event is None or t_cross < t_event:
                t_event = t_cross
        remaining = abs(r_final - r)
        if t_event is None or t_event >= remaining:
            end = flow.curve_point(weights, flow.ChartPoint(chart, z), d, r_final - r)
            segments.append(flow.TrajectorySegment(chart, r, r_final, z, end.coords))
            return segments
        r_event = r + s * t_event
        at_event = flow.curve_point(weights, flow.ChartPoint(chart, z), d, s * t_event)
        segments.append(flow.TrajectorySegment(chart, r, r_event, z, at_event.coords))
        candidates = [
            c for c in f.maximal_cones
            if len(c) == n and c != chart
            and set(target) <= set(c)
            and len(set(chart) & set(c)) == n - 1
        ]
        if not candidates:
            candidates = [c for c in f.maximal_cones if len(c) == n and c != chart]
        best = None
        for c in candidates:
            try:
                w = toric.transition(f, chart, c).apply(at_event.coords)
            except (ZeroDivisionError, OverflowError):
                continue
            if not all(cmath.isfinite(x) for x in w):
                continue
            key = (max(abs(x) for x in w), c)
            if best is None or key < best[0]:
                best = (key, c, w)
        if best is None:
            raise NonFiniteState("no chart can represent the trajectory point")
        _, chart, z = best
        r = r_event
        switches += 1
        if switches > max_switches:
            raise TrackingError("chart switching failed to settle")


def reference_verify(f, xi, start, tol=flow.DEFAULT_TOL, r_final=flow.R_AT_INFINITY):
    """Judges the tracked end in its final chart when that chart holds
    the stratum; otherwise maps it by one transition into each
    full-dimensional cone holding the stratum and keeps the first with the
    smallest residual (infinite residual when no map is finite)."""
    stratum = support_contains(f, tuple(Fraction(t) for t in xi))
    last = reference_track(f, start, flow.direction(xi), r_final)[-1]

    def judged(chart, coords):
        residual = 0.0
        for ray, coord in zip(chart, coords):
            if not cmath.isfinite(coord):
                residual = math.inf
            elif ray in stratum:
                residual = max(residual, abs(coord))
            elif abs(coord) < tol:
                residual = math.inf
        return flow.LimitReport(stratum, flow.ChartPoint(chart, coords), residual,
                                residual <= tol, r_final)

    if set(stratum) <= set(last.chart):
        return judged(last.chart, last.end)
    reports = []
    for c in f.maximal_cones:
        if len(c) == f.ambient_dim and set(stratum) <= set(c):
            try:
                reports.append(judged(c, toric.transition(f, last.chart, c).apply(last.end)))
            except (ZeroDivisionError, OverflowError):
                pass
    if not reports:
        return flow.LimitReport(stratum, last.endpoint, math.inf, False, r_final)
    return min(reports, key=lambda rep: rep.residual)


def reference_closed_form_verify(f, xi, start, tol=flow.DEFAULT_TOL,
                                 r_final=flow.R_AT_INFINITY):
    """verify_limit by its definition: tracks with reference_track, then
    takes the end into the final chart when it holds the stratum tau of
    limit_direction(xi, r_final), else by one transition into each
    full-dimensional cone holding tau; there it runs the chart's closed
    form (curve_point) on to the horizon, where every coordinate of tau
    is below tol / 10, and judges.  The cone with the smallest residual
    wins, the first on a tie."""
    stratum = support_contains(f, tuple(Fraction(t) for t in flow.limit_direction(xi, r_final)))
    d = flow.direction(xi)
    last = reference_track(f, start, d, r_final)[-1]

    def judged(chart, coords):
        weights = toric.isotropy_weights(f, chart)
        rates = flow.pairing_rates(weights, d)
        decaying = [(float(u), z) for ray, (u, _), z in zip(chart, rates, coords)
                    if ray in stratum]
        horizon = r_final
        if r_final != 0 and all(cmath.isfinite(z) for _, z in decaying):
            crossings = [r_final + (math.log(tol / 10) - math.log(abs(z))) / (2 * math.pi * u)
                         for u, z in decaying if z != 0]
            horizon = max([r_final] + crossings) if r_final > 0 else min([r_final] + crossings)
        if horizon != r_final:
            coords = flow.curve_point(weights, flow.ChartPoint(chart, coords), d,
                                      horizon - r_final).coords
        residual = 0.0
        for ray, coord in zip(chart, coords):
            if not cmath.isfinite(coord):
                residual = math.inf
            elif ray in stratum:
                residual = max(residual, abs(coord))
            elif abs(coord) < tol:
                residual = math.inf
        return flow.LimitReport(stratum, flow.ChartPoint(chart, coords), residual,
                                residual <= tol, horizon)

    if set(stratum) <= set(last.chart):
        return judged(last.chart, last.end)
    reports = []
    for c in f.maximal_cones:
        if len(c) == f.ambient_dim and set(stratum) <= set(c):
            try:
                reports.append(judged(c, toric.transition(f, last.chart, c).apply(last.end)))
            except (ZeroDivisionError, OverflowError):
                pass
    if not reports:
        return flow.LimitReport(stratum, last.endpoint, math.inf, False, r_final)
    return min(reports, key=lambda rep: rep.residual)


def outcome(call, *args):
    try:
        return "ok", call(*args)
    except Exception as e:  # the exception is part of the outcome compared
        return type(e).__name__, str(e)


def k_fan(k=40):
    """A complete 2-d fan with rays (1,0), (1,1), ..., (1,k), (0,1),
    (-1,-1): far charts have transition exponents up to about k."""
    rays = [(1, j) for j in range(k + 1)] + [(0, 1), (-1, -1)]
    cones = [(j, j + 1) for j in range(k)] + [(k, k + 1), (k + 1, k + 2), (0, k + 2)]
    return make_fan(rays, cones)


def sample_directions(n, rng):
    """Integer, rational and 10^k-rescaled integer directions, the mix
    the flow benchmark draws."""
    out = []
    for _ in range(2):
        out.append(tuple(rng.randint(-5, 5) for _ in range(n)))
        out.append(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(n)))
    for k in (1, 2, 3, -1, -2, -3):
        v = tuple(rng.randint(-5, 5) for _ in range(n))
        out.append(tuple(Fraction(x) * Fraction(10) ** k for x in v))
    return out


def differential_cases():
    fans = (
        [(name, f) for name, f in complete_builtins().items()]
        + [(f"iterate{i}", f) for i, f in enumerate(subdivision_iterates())]
        + [("k40", k_fan())]
    )
    for name, f in fans:
        rng = random.Random(name)
        charts = toric.fixed_points(f)
        for xi in sample_directions(f.ambient_dim, rng):
            chart = rng.choice(charts)
            coords = tuple(
                cmath.rect(rng.uniform(0.2, 0.9), rng.uniform(0.0, 2 * math.pi))
                for _ in range(f.ambient_dim)
            )
            r_final = rng.choice((flow.R_AT_INFINITY, flow.R_AT_INFINITY, 3.0))
            yield name, f, xi, flow.chart_point(chart, coords), r_final


class TestTrackMatchesReference:
    @pytest.mark.parametrize("group", ["builtins", "iterates", "k40"])
    def test_segments_and_reports_equal(self, group):
        compared = 0
        for name, f, xi, start, r_final in differential_cases():
            kind = ("k40" if name == "k40" else
                    "iterates" if name.startswith("iterate") else "builtins")
            if kind != group:
                continue
            d = flow.direction(xi)
            assert outcome(flow.track, f, start, d, r_final) == \
                outcome(reference_track, f, start, d, r_final), (name, xi, start)
            got = outcome(flow.verify_limit, f, xi, start, flow.DEFAULT_TOL, r_final)
            want = outcome(reference_closed_form_verify, f, xi, start, flow.DEFAULT_TOL, r_final)
            assert got == want, (name, xi, start, r_final)
            if got[0] == "ok":
                assert got[1].horizon == want[1].horizon, (name, xi, start, r_final)
            compared += 1
        assert compared >= 10

    def test_angular_part_matches_reference(self):
        rng = random.Random(9)
        for f in (CP2, complete_builtins()["hirzebruch2"], cpn(3)):
            n = f.ambient_dim
            for _ in range(6):
                d = flow.direction(
                    tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)),
                    tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)),
                )
                start = flow.chart_point(
                    rng.choice(toric.fixed_points(f)),
                    tuple(rng.uniform(0.2, 0.9) for _ in range(n)),
                )
                assert flow.track(f, start, d, -4.0) == reference_track(f, start, d, -4.0)

    def test_rescaling_keeps_the_stratum(self):
        for f in list(complete_builtins().values()) + subdivision_iterates():
            rng = random.Random(f.ray_count)
            for _ in range(10):
                xi = tuple(rng.randint(-5, 5) for _ in range(f.ambient_dim))
                stratum = flow.limit_stratum(f, xi)
                for k in (-3, -1, 2):
                    scaled = tuple(Fraction(x) * Fraction(10) ** k for x in xi)
                    assert flow.limit_stratum(f, scaled) == stratum

    def test_integer_direction(self):
        assert flow.integer_direction((Fraction(1, 2), Fraction(-1, 3), 2)) == ((3, -2, 12), 6)
        assert flow.integer_direction((4, 0)) == ((4, 0), 1)


def k40_case():
    """The differential case where the final chart misses the stratum but
    the final-chart rule says converged: k40, xi = (0, 1/2), started in
    chart (18, 19)."""
    return next((f, xi, start) for name, f, xi, start, _ in differential_cases()
                if name == "k40" and xi == (0, Fraction(1, 2)) and start.chart == (18, 19))


class TestVerdictInAChartHoldingTheStratum:
    def test_k40_final_chart_misses_the_stratum(self):
        f, xi, start = k40_case()
        segments = flow.track(f, start, flow.direction(xi), flow.R_AT_INFINITY)
        wrong = flow.limit_report((41,), segments)
        assert (wrong.numeric_limit.chart, wrong.residual, wrong.converged) == ((35, 36), 0.0, True)
        rep = flow.verify_limit(f, xi, start)
        assert rep.predicted_stratum == (41,)
        assert rep.numeric_limit.chart == (41, 42)
        assert rep.converged and 0 < rep.residual < 1e-27
        assert rep == flow.limit_verdict(f, (41,), segments, xi)

    def test_k40_through_the_cli(self, tmp_path, capsys):
        f, xi, start = k40_case()
        path = tmp_path / "k40.fan"
        path.write_text(dump_fan(f))
        code = cli.main(["limit", str(path), "--xi=0,1/2", "--chart", "18,19",
                         "--start", ",".join(map(repr, start.coords)),
                         "--format", "machine"])
        out = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        assert code == 0
        assert (out["stratum"], out["chart"], out["converged"]) == ("41", "41,42", "true")

    @pytest.mark.parametrize("end, chart", [
        ((complex("nan"), 1), (0, 1)),  # a tie at an infinite residual: the first cone
        ((0.5, 0), (0, 2)),  # the map into (0, 1) divides by zero
        ((0, 0), (1, 2)),  # every map does: the end in its own chart
    ])
    def test_maps_into_cones_holding_the_stratum(self, end, chart):
        seg = flow.TrajectorySegment((1, 2), 0.0, -10.0, (1, 1), tuple(map(complex, end)))
        rep = flow.limit_verdict(CP2, (0,), [seg], CP2.rays[0])
        assert rep.numeric_limit.chart == chart
        assert rep.residual == math.inf and not rep.converged

    def test_every_map_overflowing_is_no_convergence(self):
        # in chart (2, 3) of k40 the end pairs as converged but misses ray
        # 1, and both maps into the cones holding ray 1 overflow
        seg = flow.TrajectorySegment((2, 3), 0.0, -10.0, (1, 1), (1 + 0j, 1e300 + 0j))
        assert flow.limit_report((1,), [seg]).converged
        rep = flow.limit_verdict(k_fan(), (1,), [seg], k_fan().rays[1])
        assert rep.numeric_limit == seg.endpoint
        assert rep.residual == math.inf and not rep.converged

    def test_converged_only_in_a_chart_holding_the_stratum(self):
        judged = 0
        for name, f, xi, start, r_final in differential_cases():
            try:
                segments = flow.track(f, start, flow.direction(xi), r_final)
            except Exception:
                continue
            stratum = flow.limit_stratum(f, flow.limit_direction(xi, r_final))
            rep = flow.verify_limit(f, xi, start, r_final=r_final)
            assert rep == flow.limit_verdict(f, stratum, segments, xi)
            if rep.converged:
                assert set(stratum) <= set(rep.numeric_limit.chart), (name, xi, start)
            if set(stratum) <= set(segments[-1].chart):
                # judged in the final chart, moved along it to the horizon
                assert rep.numeric_limit.chart == segments[-1].chart, (name, xi, start)
                if rep.horizon == r_final:
                    assert rep == flow.limit_report(stratum, segments), (name, xi, start)
                judged += 1
        assert judged >= 100


class TestChartSwitching:
    def test_overflowing_candidate_is_skipped(self):
        # from chart {20,21} the far charts' transitions raise z to powers
        # near 40, which overflows complex exponentiation
        f = k_fan()
        start = flow.chart_point((20, 21), (0.9, 0.2))
        rep = flow.verify_limit(f, (1, -1), start)
        assert rep.predicted_stratum == (0, 42)
        assert rep.converged and rep.numeric_limit.chart == (0, 42)
        assert rep == reference_verify(f, (1, -1), start)

    def test_overflowing_candidate_through_cli(self, tmp_path, capsys):
        path = tmp_path / "k40.fan"
        path.write_text(dump_fan(k_fan()))
        code = cli.main([
            "limit", str(path), "--xi=1,-1", "--chart", "20,21",
            "--start", "0.9,0.2", "--format", "machine",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "stratum 0,42" in out and "converged true" in out

    def test_non_unimodular_candidate_raises(self):
        # complete by facet count, but the cone {0,1} has |det| = 2; the
        # flow of (2,1) leaves chart {1,2} towards it
        f = make_fan([(1, 0), (1, 2), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert is_complete_facet(f)[0]
        start = flow.chart_point((1, 2), (0.5, 0.5))
        with pytest.raises(NotUnimodular):
            flow.verify_limit(f, (2, 1), start)
        with pytest.raises(NotUnimodular):
            reference_verify(f, (2, 1), start)
        with pytest.raises(NotUnimodular):
            flow.verify_limit(f, (2, 1), flow.chart_point((0, 1), (0.5, 0.5)))


HORIZON_FANS = list(complete_builtins().values()) + subdivision_iterates() + [k_fan()]


class TestClosedFormHorizon:
    """verify_limit judges at the closed-form horizon of the flow."""

    @staticmethod
    def draw(f, seed):
        rng = random.Random(seed)
        n = f.ambient_dim
        xi = rng.choice(sample_directions(n, rng))
        start = flow.chart_point(rng.choice(toric.fixed_points(f)), tuple(
            cmath.rect(10.0 ** rng.uniform(-3, 3), rng.uniform(0.0, 2 * math.pi))
            for _ in range(n)))
        return xi, start, rng.choice((flow.R_AT_INFINITY, -1.0, 3.0))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.sampled_from(HORIZON_FANS), st.integers(0, 10 ** 6))
    def test_judged_point_is_the_tracked_end_at_the_horizon(self, f, seed):
        xi, start, r_final = self.draw(f, seed)
        d = flow.direction(xi)
        try:
            last = flow.track(f, start, d, r_final)[-1]
        except (NonFiniteState, TrackingError):
            return
        rep = flow.verify_limit(f, xi, start, r_final=r_final)
        stratum = rep.predicted_stratum
        if rep.horizon == r_final:
            return
        assert (rep.horizon < r_final) == (r_final < 0)
        if not set(stratum) <= set(last.chart):
            return
        # the final chart holds the stratum: no event lies past r_final
        end = flow.track(f, start, d, rep.horizon)[-1]
        assert end.chart == rep.numeric_limit.chart == last.chart
        for a, b in zip(end.end, rep.numeric_limit.coords):
            assert cmath.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300), (xi, start, r_final)
        # every coordinate of the stratum is at most tol / 10 there
        pt = rep.numeric_limit
        assert all(abs(z) <= flow.DEFAULT_TOL / 10 * (1 + 1e-9)
                   for ray, z in zip(pt.chart, pt.coords) if ray in stratum)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.sampled_from(HORIZON_FANS), st.integers(0, 10 ** 6))
    def test_converged_in_a_chart_holding_the_stratum(self, f, seed):
        xi, start, r_final = self.draw(f, seed)
        try:
            rep = flow.verify_limit(f, xi, start, r_final=r_final)
        except (NonFiniteState, TrackingError):
            return
        if rep.converged:
            pt = rep.numeric_limit
            assert set(rep.predicted_stratum) <= set(pt.chart)
            assert all(cmath.isfinite(z) for z in pt.coords)

    def test_rescaled_direction_reaches_its_limit(self):
        # at r = -10 the flow of xi / 1000 has barely moved; at the
        # horizon it is as close to the fixed point as that of xi
        xi = (Fraction(1, 1000), Fraction(2, 1000))
        rep = flow.verify_limit(CP2, xi, ones((0, 1)))
        assert rep.converged and rep.predicted_stratum == (0, 1)
        assert rep.residual <= flow.DEFAULT_TOL / 10 * (1 + 1e-9)
        assert rep.horizon < -1000 * 2
        coarse = flow.limit_report((0, 1), flow.track(CP2, ones((0, 1)), flow.direction(xi), -10.0))
        assert not coarse.converged and coarse.horizon == -10.0

    def test_horizon_reported_by_the_cli(self, tmp_path, capsys):
        path = tmp_path / "cp2.fan"
        path.write_text(dump_fan(CP2))
        assert cli.main(["limit", str(path), "--xi=1/1000,1/500", "--format", "machine"]) == 0
        recs = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        rep = flow.verify_limit(CP2, (Fraction(1, 1000), Fraction(1, 500)), ones((0, 1)))
        assert (recs["converged"], float(recs["horizon"])) == ("true", rep.horizon)
        assert cli.main(["limit", str(path), "--xi=1/1000,1/500"]) == 0
        assert f"numeric limit at r = {rep.horizon}: " in capsys.readouterr().out

    def test_stratum_computed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(flow, "support_contains",
                            lambda f, v: calls.append(v) or support_contains(f, v))
        for r_final in (flow.R_AT_INFINITY, 3.0):
            del calls[:]
            rep = flow.verify_limit(CP2, (1, Fraction(1, 2)), ones((0, 2)), r_final=r_final)
            assert len(calls) == 1 and rep.converged

    def test_runs_through_the_public_functions(self, monkeypatch):
        # span tracers wrap the module's public names, so verify_limit
        # must reach the stratum, the tracking and the verdict through them
        calls = []
        for name in ("limit_stratum", "track", "limit_verdict"):
            original = getattr(flow, name)
            monkeypatch.setattr(flow, name, lambda *args, _fn=original, _name=name:
                                calls.append(_name) or _fn(*args))
        assert flow.verify_limit(CP2, (1, 2), ones((0, 1))).converged
        assert calls == ["limit_stratum", "track", "limit_verdict"]


class TestNonFiniteLimit:
    @pytest.mark.parametrize("r_final", [math.nan, -math.inf])
    def test_non_finite_coordinates_do_not_converge(self, r_final):
        rep = flow.verify_limit(CP2, (2, 1), ones((0, 1)), r_final=r_final)
        assert not all(cmath.isfinite(z) for z in rep.numeric_limit.coords)
        assert rep.residual == math.inf and not rep.converged


def same(a, b):
    """Bitwise equality of outcomes, NaN coordinates included."""
    return repr(a) == repr(b)


def generic_start(f, chart, rng):
    return flow.chart_point(chart, tuple(
        cmath.rect(rng.uniform(0.2, 0.9), rng.uniform(0.0, 2 * math.pi))
        for _ in range(f.ambient_dim)
    ))


def rescaled_directions(n, rng, count):
    return [
        tuple(Fraction(rng.randint(-5, 5)) * Fraction(10) ** k for _ in range(n))
        for k in (rng.choice((-3, -2, -1, 0, 1, 2, 3)) for _ in range(count))
    ]


class TestPruningMatchesReference:
    """track decides most candidate charts by a certified log-modulus
    estimate instead of their transition; reference_track evaluates every
    candidate.  Segments must agree bit for bit."""

    # exact values: moduli 1/2, 1 and 2 on the real and imaginary axes
    WALL_VALUES = (1.0, -1.0, 1j, -1j, 0.5, -0.5j, 2.0, 1.0, 1j)

    def test_wall_starts_with_ties(self):
        # coordinates of modulus exactly 1 put the start on a wall or on the
        # compact torus, where several candidates reach the same largest
        # modulus and the smaller index set must win
        fans = list(complete_builtins().values()) + subdivision_iterates()
        rng = random.Random(41)
        compared = 0
        for f in fans:
            n = f.ambient_dim
            for _ in range(12):
                chart = rng.choice(toric.fixed_points(f))
                start = flow.chart_point(chart, [rng.choice(self.WALL_VALUES) for _ in range(n)])
                xi = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
                r_final = rng.choice((flow.R_AT_INFINITY, 3.0))
                d = flow.direction(xi)
                assert same(outcome(flow.track, f, start, d, r_final),
                            outcome(reference_track, f, start, d, r_final)), (f, start, xi)
                compared += 1
        assert compared >= 100

    def test_k40_fan_with_large_exponents(self):
        f = k_fan()
        rng = random.Random(40)
        for chart in toric.fixed_points(f)[::3]:
            for xi in rescaled_directions(2, rng, 4) + [(1, -1), (-1, 1), (1, -40)]:
                d = flow.direction(xi)
                start = generic_start(f, chart, rng)
                r_final = rng.choice((flow.R_AT_INFINITY, 3.0))
                assert same(outcome(flow.track, f, start, d, r_final),
                            outcome(reference_track, f, start, d, r_final)), (chart, xi, start)

    def test_rescaled_directions_over_iterates(self):
        for i, f in enumerate(subdivision_iterates()):
            rng = random.Random(i)
            for xi in rescaled_directions(f.ambient_dim, rng, 12):
                start = generic_start(f, rng.choice(toric.fixed_points(f)), rng)
                d = flow.direction(xi)
                assert same(outcome(flow.track, f, start, d, flow.R_AT_INFINITY),
                            outcome(reference_track, f, start, d, flow.R_AT_INFINITY))

    def test_extreme_moduli_and_underflow(self):
        # starts down to 1e-318 and directions up to 2*10^4: coordinates
        # underflow to exactly 0 before a switch (every candidate is then
        # mapped exactly), maps overflow, and some points fit no chart
        fans = list(complete_builtins().values()) + subdivision_iterates()
        rng = random.Random(7)
        zero_events = 0
        kinds = set()
        for _ in range(1500):
            f = rng.choice(fans)
            n = f.ambient_dim
            chart = rng.choice(toric.fixed_points(f))
            xi = tuple(rng.randint(-5, 5) * 10 ** rng.choice((0, 1, 2, 3)) for _ in range(n))
            start = flow.chart_point(chart, [
                10.0 ** -rng.choice((1, 100, 200, 300, 310, 318)) for _ in range(n)
            ])
            r_final = rng.choice((flow.R_AT_INFINITY, 3.0, -100.0))
            d = flow.direction(xi)
            got = outcome(flow.track, f, start, d, r_final)
            assert same(got, outcome(reference_track, f, start, d, r_final)), (f, start, xi)
            kinds.add(got[0])
            if got[0] == "ok":
                zero_events += any(0 in seg.end for seg in got[1][:-1])
        assert zero_events >= 5
        assert {"ok", "NonFiniteState"} <= kinds

    def test_no_chart_represents_the_point(self):
        f = cpn(3)
        start = flow.chart_point((0, 2, 3), (0.1, 1e-200, 1e-310))
        d = flow.direction((-40, -400, -4000))
        with pytest.raises(NonFiniteState, match="no chart can represent"):
            flow.track(f, start, d, 3.0)
        with pytest.raises(NonFiniteState, match="no chart can represent"):
            reference_track(f, start, d, 3.0)

    def test_modulus_overflow_skips_the_candidate(self):
        # 1/z for z = 3e-309(1+i) is finite, but its modulus is above the
        # largest float, so abs() raises: that candidate is skipped
        point = (1.0 + 0j, complex(3e-309, 3e-309))
        with pytest.raises(OverflowError):
            toric.transition(CP2, (0, 1), (0, 2)).apply(point)[1].__abs__()
        best = flow._next_chart(CP2, (0, 1), [(0, 2), (1, 2)], point)
        assert best[1] == (1, 2)
        assert flow._next_chart(CP2, (0, 1), [(0, 2)], point) is None

    def test_estimate_out_of_float_range_certifies_nothing(self):
        # chart {2,3} has weight rows (50, 1) and (51, 1), so from the
        # standard chart {0,1} it maps (z0, z1) to (z0^50 z1, z0^51 z1).
        # At |z0| = e^-15.5, |z1| = e^600 the true moduli e^-175 and
        # e^-190.5 exceed chart {0,4}'s e^-600, but z0^50 underflows to 0,
        # so the maps computed exactly give {2,3} the smaller modulus
        f = make_fan([(1, 0), (0, 1), (-1, 51), (1, -50), (-1, -1)],
                     [(0, 1), (2, 3), (0, 4)])
        assert f.chart_weights((2, 3)) == ((50, 1), (51, 1))
        point = (cmath.exp(-15.5), cmath.exp(600.0))
        candidates = [(0, 4), (2, 3)]
        exhaustive = min(
            (max(map(abs, w)), c, w)
            for c in candidates for w in [toric.transition(f, (0, 1), c).apply(point)]
        )
        assert exhaustive[1] == (2, 3) and exhaustive[2] == (0j, 0j)
        key, chart, coords = flow._next_chart(f, (0, 1), candidates, point)
        assert (key[0], chart, coords) == exhaustive

    def test_overflowing_modulus_through_track(self):
        # a start far outside the polydisc: on the way to chart {0,42} a
        # candidate's coordinates are finite but their modulus is not, which
        # the all-candidates reference lets escape as an OverflowError
        f = k_fan()
        start = flow.chart_point((34, 35), (
            complex(-1.4868291909382748e-124, -1.3122937544277027e-124),
            complex(-4.26103799681801e+110, -2.9656047667986214e+110),
        ))
        d = flow.direction((20, -30))
        with pytest.raises(OverflowError):
            reference_track(f, start, d, -100.0)
        segments = flow.track(f, start, d, -100.0)
        assert segments[-1].chart == (0, 42) and len(segments) > 2


class TestTransitionsPerSwitch:
    def count_switches(self, monkeypatch, fans, seed):
        sources = []
        original = flow.transition

        def counting(f, source, target):
            sources.append(source)
            return original(f, source, target)

        monkeypatch.setattr(flow, "transition", counting)
        rng = random.Random(seed)
        runs = []
        for f in fans:
            n = f.ambient_dim
            for xi in sample_directions(n, rng) * 2:
                start = generic_start(f, rng.choice(toric.fixed_points(f)), rng)
                del sources[:]
                segments = flow.track(f, start, flow.direction(xi), flow.R_AT_INFINITY)
                # a switch maps from the chart it leaves; consecutive
                # switches leave different charts
                per_switch = [len(list(g)) for _, g in itertools.groupby(sources)]
                assert len(per_switch) == len(segments) - 1
                runs += [(n, k) for k in per_switch]
        return runs

    def test_cpn(self, monkeypatch):
        runs = self.count_switches(monkeypatch, [cpn(2), cpn(3), cpn(4)], 3)
        assert len(runs) >= 30
        assert all(k <= n + 1 for n, k in runs)

    def test_subdivision_iterates(self, monkeypatch):
        runs = self.count_switches(monkeypatch, subdivision_iterates(), 4)
        assert len(runs) >= 100
        assert all(k <= n + 1 for n, k in runs)
        # the exact transition is applied about once per switch
        assert sum(k for _, k in runs) <= 1.2 * len(runs)
