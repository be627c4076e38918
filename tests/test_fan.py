import operator
import random
import sys
from fractions import Fraction
from itertools import combinations, islice, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import (
    complete_builtins,
    incomplete_fans,
    invalid_fans,
    random_two_cone_fans,
    random_unimodular,
    subdivision_iterates,
)
from oracles import brute_validate
from toricfan import cone as cone_module
from toricfan import fan as fan_module
from toricfan import lattice, toric
from toricfan.cone import halfspace_description, intersect_generators
from toricfan.errors import (
    DegenerateSubdivision,
    DependentGenerators,
    MalformedInput,
    NotMaximal,
    NotUnimodular,
)
from toricfan.fan import (
    FacetReport,
    SimplicialComplex,
    Violation,
    _pairwise_violations,
    _wall_certificate,
    is_complete_facet,
    is_complete_raycast,
    make_fan,
    sigma,
    star_subdivide,
    support_contains,
    validate,
)
from toricfan.library import cp1, cpn, hirzebruch, quadrant
from toricfan.toric import quotient_presentation, weight_data_from_fan

CP2 = cpn(2)


class TestConstruction:
    def test_normalizes_redundant_cones(self):
        f = make_fan([(1, 0), (0, 1)], [(0, 1), (0,), (1, 0)])
        assert f.maximal_cones == ((0, 1),)

    def test_rejects_unused_ray(self):
        with pytest.raises(MalformedInput):
            make_fan([(1, 0), (0, 1), (-1, 0)], [(0, 1)])

    def test_rejects_out_of_range_index(self):
        with pytest.raises(MalformedInput):
            make_fan([(1, 0)], [(0, 3)])

    def test_rejects_non_primitive_ray(self):
        with pytest.raises(MalformedInput):
            make_fan([(2, 0), (0, 1)], [(0, 1)])

    @pytest.mark.parametrize("ray", [(1.5, 0), (Fraction(1, 2), 0), (float("nan"), 0)])
    def test_rejects_non_integral_ray(self, ray):
        with pytest.raises(MalformedInput):
            make_fan([ray, (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])

    def test_accepts_integral_rays_of_other_types(self):
        f = make_fan([(1.0, 0), (0, Fraction(1)), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        assert f == CP2 and validate(f).ok

    def test_rejects_duplicate_rays(self):
        with pytest.raises(MalformedInput):
            make_fan([(1, 0), (1, 0)], [(0,), (1,)])

    def test_closure_contains_all_faces(self):
        assert CP2.cones == frozenset(
            {(), (0,), (1,), (2,), (0, 1), (1, 2), (0, 2)}
        )


class TestEquality:
    def test_relabeling_invariance(self):
        g = make_fan([(0, 1), (-1, -1), (1, 0)], [(0, 2), (0, 1), (1, 2)])
        assert CP2 == g

    def test_distinct_fans_differ(self):
        assert CP2 != hirzebruch(1)
        assert quadrant(2) != CP2


class TestValidate:
    def test_cp2_is_valid(self):
        report = validate(CP2)
        assert report.ok and report.violations == ()

    def test_intersection_violation_with_witness(self):
        f = make_fan([(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])
        report = validate(f)
        assert not report.ok
        assert [v.axiom for v in report.violations] == ["intersection"]
        assert report.violations[0].witness == ((0, 1), (0, 2))

    def test_unimodularity_violation(self):
        f = make_fan([(1, 0), (1, 2)], [(0, 1)])
        report = validate(f)
        assert not report.ok
        assert [v.axiom for v in report.violations] == ["unimodular"]

    def test_combined_violations(self):
        # pos((1,0),(1,2)) is non-unimodular and also crosses the quadrant
        f = make_fan([(1, 0), (1, 2), (0, 1)], [(0, 1), (0, 2)])
        report = validate(f)
        assert not report.ok
        axioms = sorted(v.axiom for v in report.violations)
        assert axioms == ["intersection", "unimodular"]

    def test_dependent_generators_reported(self):
        f = make_fan([(1, 0), (-1, 0), (0, 1)], [(0, 1, 2)])
        report = validate(f)
        assert not report.ok
        assert report.violations[0].axiom == "unimodular"
        assert "dependent" in report.violations[0].detail

    def test_all_builtin_fans_valid(self):
        for name, f in complete_builtins().items():
            assert validate(f).ok, name

    @pytest.mark.parametrize("index", range(5))
    def test_invalid_corpus_detected(self, index):
        f = invalid_fans()[index]
        assert not validate(f).ok

    def test_agrees_with_brute_force_on_small_fans(self):
        instances = [CP2, hirzebruch(1), quadrant(2)] + invalid_fans()[:3]
        for f in instances:
            assert validate(f).ok == brute_validate(
                f.rays, f.maximal_cones, f.ambient_dim
            )


def reference_violations(f):
    """Violations as found by intersecting every pair of independent
    maximal cones from their generators, with no pruning and no cache."""
    violations = []
    independent = []
    for c in f.maximal_cones:
        gens = f.generators(c)
        if not gens:
            independent.append(c)
            continue
        if lattice.rational_rank(gens) != len(gens):
            violations.append(
                Violation("unimodular", (c,), "generators are linearly dependent")
            )
            continue
        independent.append(c)
        if not lattice.is_part_of_basis(gens):
            violations.append(
                Violation("unimodular", (c,), "generators are not part of a Z-basis")
            )
    for c, d in combinations(independent, 2):
        shared = tuple(sorted(set(c) & set(d)))
        expected = set(f.generators(shared))
        got = set(intersect_generators(f.generators(c), f.generators(d), f.ambient_dim))
        if got != expected:
            violations.append(
                Violation(
                    "intersection",
                    (c, d),
                    f"intersection has rays {sorted(got)}, "
                    f"common face has rays {sorted(expected)}",
                )
            )
    return tuple(violations)


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the double-description intersections validate falls back to
    for pairs the separation certificate does not settle."""
    calls = []
    original = fan_module.intersect_descriptions

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fan_module, "intersect_descriptions", counting)
    return calls


class TestDescriptionCache:
    def test_matches_halfspace_description(self):
        fans = list(complete_builtins().values()) + subdivision_iterates()
        fans += incomplete_fans() + invalid_fans()
        for f in fans:
            for c in f.maximal_cones:
                expected = halfspace_description(f.generators(c), f.ambient_dim)
                assert f.description(c) == expected, (f, c)

    def test_cached_once(self):
        f = cpn(3)
        assert f.description((0, 1, 2)) is f.description((2, 1, 0))
        assert f.description((0, 1, 2))[0] is f.chart_weights((0, 1, 2))

    def test_any_spelling_reads_the_sorted_entry(self, monkeypatch):
        f = cpn(3)
        weights, described = f.chart_weights((0, 1, 2)), f.description((0, 1, 2))
        calls = []
        monkeypatch.setattr(lattice, "dual_basis", lambda *a: calls.append(a))
        for spelling in [(2, 0, 1), [1, 2, 0], (0, 1, 2), range(3)]:
            assert f.chart_weights(spelling) is weights
            assert f.description(spelling) is described
        assert calls == []
        bad = make_fan([(1, 0), (1, 2)], [(0, 1)])
        assert bad.chart_weights([1, 0]) is None and bad.chart_weights((0, 1)) is None
        assert bad.description([1, 0]) is bad.description((0, 1))

    def test_charts_of_every_maximal_cone(self):
        fans = list(complete_builtins().values()) + subdivision_iterates()
        fans += incomplete_fans() + invalid_fans()
        for f in fans:
            assert list(f.charts) == list(f.maximal_cones)
            assert all(rows is f.chart_weights(c) for c, rows in f.charts.items())
            assert f.charts is f.charts

    def test_full_dimensional_non_cones_have_no_chart(self, dual_basis_calls):
        # star subdivision of cp2 at {0,1}: (1,0), (0,1) stay a Z-basis,
        # but {0,1} is no longer a cone
        f = star_subdivide(CP2, (0, 1))
        assert not f.is_maximal((0, 1)) and f.chart_weights((0, 1)) is None
        unimodular = 0
        for f in store_corpus():
            f.charts
            del dual_basis_calls[:]
            for idx in non_cones(f):
                assert f.chart_weights(idx) is None and f.chart_weights(idx[::-1]) is None
                unimodular += abs(lattice.det(f.generators(idx))) == 1
            assert dual_basis_calls == [], f
        assert unimodular > 50


class TestSeparationCertificate:
    def test_certifies_every_pair_of_builtins(self, fallbacks):
        fans = [cpn(k) for k in range(2, 11)]
        fans += [hirzebruch(a) for a in range(5)]
        fans += [quadrant(2), quadrant(3)]
        for f in fans:
            assert validate(f).ok, f
        assert len(fallbacks) == 0

    def test_fallback_count_on_subdivision_chain(self, fallbacks):
        counts = []
        for f in subdivision_iterates(seed=0, rounds=3, bases=("cp3",)):
            before = len(fallbacks)
            assert _pairwise_violations(f) == ()
            counts.append(len(fallbacks) - before)
        assert counts == [0, 4, 8]
        counts = []
        for f in subdivision_iterates(seed=0, rounds=3, bases=("cp3",)):
            before = len(fallbacks)
            assert validate(f).ok
            counts.append(len(fallbacks) - before)
        assert counts == [0, 0, 0]

    def test_invalid_pairs_reach_the_fallback(self, fallbacks):
        f = make_fan([(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])
        assert not validate(f).ok
        assert len(fallbacks) == 1

    def test_violations_match_unpruned_reference(self):
        instances = [f for f in complete_builtins().values() if f.ambient_dim <= 3]
        instances += subdivision_iterates(seed=0, rounds=2, bases=("cp2", "hirzebruch1"))
        instances += subdivision_iterates(seed=3, rounds=2, bases=("hirzebruch0",))
        instances += [f for f in incomplete_fans() if f.ambient_dim <= 3]
        instances += invalid_fans()
        instances += random_two_cone_fans(30, seed=5)
        invalid = 0
        for f in instances:
            expected = reference_violations(f)
            assert validate(f).violations == expected, f
            invalid += bool(expected)
        assert invalid >= 5


def build(rays, cones):
    """The fan, or None when the data does not even construct one."""
    try:
        return make_fan(rays, cones)
    except MalformedInput:
        return None


def mutate(f, kind, rng):
    """One random edit of a fan's data: move a ray by +-1 in one entry,
    drop a maximal cone, add a random n-subset as a cone, or swap one
    index of a cone for another ray.  None when the result is malformed."""
    rays = [list(r) for r in f.rays]
    cones = [list(c) for c in f.maximal_cones]
    n = f.ambient_dim
    if kind == "move":
        ray = rng.randrange(len(rays))
        rays[ray][rng.randrange(n)] += rng.choice((-1, 1))
        if not any(rays[ray]):
            return None
        rays[ray] = list(lattice.primitive(rays[ray]))
    elif kind == "drop":
        cones.pop(rng.randrange(len(cones)))
    elif kind == "add":
        cones.append(rng.sample(range(len(rays)), n))
    elif kind == "swap":
        cone = cones[rng.randrange(len(cones))]
        cone[rng.randrange(len(cone))] = rng.randrange(len(rays))
    return build(rays, cones)


# the builtins that star subdivision applies to (cp1's cones have one ray)
BASES = sorted(name for name in complete_builtins() if name != "cp1")


def random_chain(base, rounds, rng):
    f = complete_builtins()[base]
    for _ in range(rounds):
        full = [c for c in f.maximal_cones if len(c) == f.ambient_dim]
        f = star_subdivide(f, rng.choice(full))
    return f


# rays (1,0),(0,1),(-1,0),(0,-1) and (1,1),(-2,-1),(3,1),(2,1): two complete
# fans of the plane on disjoint ray sets, so every wall is shared by two
# cones on opposite sides, but every direction lies in two cones
WINDS_TWICE = make_fan(
    [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-2, -1), (3, 1), (2, 1)],
    [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)],
)
# the certificate's point p = (1,0) + (-1,-1) = (0,-1), the sum of the
# generators of the first cone {0,2}, lies on the line of the ray (0,1)
# but on no wall
ON_A_WALL_LINE = make_fan(
    [(1, 0), (0, 1), (-1, -1), (1, 1), (1, 2)],
    [(0, 2), (1, 2), (0, 3), (1, 4), (3, 4)],
)


class TestWallCertificate:
    """The certificate against the pairwise checks it short-cuts."""

    def check(self, f):
        violations = _pairwise_violations(f)
        certified = _wall_certificate(f)
        # a certified fan is valid and complete; conversely a valid
        # complete unimodular fan has degree 1, so it is certified
        assert certified == (violations == () and is_complete_facet(f)[0]), f
        assert validate(f).violations == violations, f
        assert_neighbours_match_reference(f)
        return certified, violations

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(st.sampled_from(BASES), st.integers(0, 8), st.integers(0, 10 ** 6),
           st.sampled_from(["none", "move", "drop", "add", "swap"]))
    def test_matches_pairwise_checks(self, base, rounds, seed, kind):
        rng = random.Random(seed)
        f = random_chain(base, rounds, rng)
        if kind != "none":
            f = mutate(f, kind, rng)
            assume(f is not None)
        certified, _ = self.check(f)
        if kind == "none":
            assert certified

    def test_mutations_are_mostly_rejected(self):
        rng = random.Random(11)
        outcomes = {True: 0, False: 0}
        for _ in range(120):
            f = mutate(random_chain(rng.choice(BASES), rng.randint(0, 5), rng),
                       rng.choice(["move", "drop", "add", "swap"]), rng)
            if f is not None:
                certified, _ = self.check(f)
                outcomes[certified] += 1
        assert outcomes[False] >= 60 and outcomes[True] >= 1

    def test_corpora(self):
        fans = list(complete_builtins().values()) + subdivision_iterates()
        fans += incomplete_fans() + invalid_fans() + random_two_cone_fans(30, seed=5)
        for f in fans:
            self.check(f)

    def test_degree_two_is_not_certified(self):
        assert is_complete_facet(WINDS_TWICE)[0]
        assert not _wall_certificate(WINDS_TWICE)
        report = validate(WINDS_TWICE)
        assert not report.ok
        assert {v.axiom for v in report.violations} == {"intersection"}
        assert report.violations == _pairwise_violations(WINDS_TWICE)

    def test_point_on_the_line_of_a_wall_is_certified(self, fallbacks):
        f = ON_A_WALL_LINE
        p = (0, -1)
        assert f.maximal_cones[0] == (0, 2)
        assert tuple(map(sum, zip(*f.generators((0, 2))))) == p
        assert any(lattice.dot(row, p) == 0
                   for c in f.maximal_cones for row in f.chart_weights(c))
        assert _wall_certificate(f)
        assert validate(f) == fan_module.ValidationReport(ok=True, violations=())
        assert len(fallbacks) == 0

    def test_point_in_a_second_cone_is_not_certified(self):
        # p = (1,0) + (0,1) is the ray (1,1) of the second sheet
        f = WINDS_TWICE
        assert tuple(map(sum, zip(*f.generators(f.maximal_cones[0])))) == f.rays[4]
        assert not _wall_certificate(f)

    def test_same_side_neighbour_is_not_certified(self):
        # three unimodular cones folded over the first quadrant: every wall
        # is held by two cones, but {0,1} and {1,2} lie on the same side
        # of the ray (0,1), so their rows dual to the outside rays agree
        f = make_fan([(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (0, 2)])
        assert is_complete_facet(f)[0]
        assert f.chart_weights((0, 1))[0] == f.chart_weights((1, 2))[1]
        certified, violations = self.check(f)
        assert not certified and violations

    def test_bookkeeping_on_incomplete_and_non_unimodular_fans(self):
        fans = [non_unimodular_between(), quadrant(2), quadrant(3),
                make_fan([(2, 1, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                         [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])]
        fans += incomplete_fans() + invalid_fans()
        for f in fans:
            certified, _ = self.check(f)
            assert not certified

    def test_lower_dimensional_or_non_unimodular_cones_fall_back(self):
        for f in (quadrant(1), make_fan([(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)])):
            assert not _wall_certificate(f)


def reference_chart(f, c):
    """The chart of a maximal cone from its own Hermite normal form."""
    if len(c) != f.ambient_dim:
        return None
    try:
        return lattice.dual_basis(f.generators(c))
    except NotUnimodular:
        return None


def assert_charts_match_reference(f):
    assert f.charts == {c: reference_chart(f, c) for c in f.maximal_cones}, f


def brute_neighbours(f):
    """_neighbours by its definition: every pair of full-dimensional
    maximal cones with n - 1 common rays, each with the positions of the
    ray it keeps outside the common wall."""
    n = f.ambient_dim
    full = [c for c in f.maximal_cones if len(c) == n]
    out = {c: set() for c in full}
    for c, d in combinations(full, 2):
        common = set(c) & set(d)
        if len(common) == n - 1:
            (r,), (s,) = set(c) - common, set(d) - common
            out[c].add((c.index(r), d, d.index(s)))
            out[d].add((d.index(s), c, c.index(r)))
    return out


def assert_neighbours_match_reference(f):
    """The wall bookkeeping read by the walk and the certificate, against
    brute force and the charts of reference_chart: across a wall the rows
    dual to the outside rays are equal or opposite, equal exactly when
    the two cones lie on the same side."""
    neighbours = f._neighbours
    assert {c: set(v) for c, v in neighbours.items()} == brute_neighbours(f), f
    for c, crossings in neighbours.items():
        wall_of = {i: c[:i] + c[i + 1:] for i in range(len(c))}
        a = reference_chart(f, c)
        for i, d, p in crossings:
            assert d[:p] + d[p + 1:] == wall_of[i]
            assert c in f.facet_map[wall_of[i]] and d in f.facet_map[wall_of[i]]
            b = reference_chart(f, d)
            if a is not None and b is not None:
                assert a[i] in (b[p], tuple(-x for x in b[p]))
                assert (a[i] == b[p]) == (lattice.dot(a[i], f.rays[d[p]]) > 0)


def image_under(m, f):
    """The fan of f's cones over the rays m * r, m in GL(n, Z)."""
    return make_fan([tuple(lattice.dot(row, r) for row in m) for r in f.rays],
                    f.maximal_cones)


def chain_of(base, rounds, seed=0):
    return subdivision_iterates(seed=seed, rounds=rounds, bases=(base,))[-1]


def non_unimodular_between():
    """Cones {0,1}, {1,2}, {2,3} with |det| 1, 2, 1.  Crossing the wall
    (1,) from {0,1} gives alpha_i = -2, and {2,3} lies only beyond {1,2}."""
    return make_fan([(1, 0), (0, 1), (-2, 1), (-1, 0)], [(0, 1), (1, 2), (2, 3)])


def drop_one_fans(fans):
    """Each fan with one maximal cone dropped, where every ray stays used."""
    out = []
    for f in fans:
        for gone in f.maximal_cones:
            try:
                out.append(make_fan(f.rays, [c for c in f.maximal_cones if c != gone]))
            except MalformedInput:
                pass
    return out


def store_corpus():
    complete = list(complete_builtins().values()) + subdivision_iterates()
    fans = complete + drop_one_fans(complete) + incomplete_fans() + invalid_fans()
    fans += [make_fan(f.rays, f.maximal_cones) for f in (WINDS_TWICE, ON_A_WALL_LINE)]
    return fans + [non_unimodular_between(),
                   make_fan([(2, 1, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                            [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])]


def expected_seeds(f):
    """The cones Fan.charts proves by a Hermite form, in order, from |det|
    and wall adjacency alone.  The unimodular full-dimensional cones fall
    into pieces joined across walls, each seeded at its first cone; a cone
    that is not unimodular is seeded unless a piece seeded before it
    reaches it across a wall (then the crossing settles it)."""
    full = [c for c in f.maximal_cones if len(c) == f.ambient_dim]
    unimodular = {c for c in full if abs(lattice.det(f.generators(c))) == 1}
    adjacent = brute_neighbours(f)
    first = {}
    for c in full:
        if c in unimodular and c not in first:
            first[c], stack = c, [c]
            while stack:
                for _, d, _ in adjacent[stack.pop()]:
                    if d in unimodular and d not in first:
                        first[d] = c
                        stack.append(d)
    order = {c: k for k, c in enumerate(f.maximal_cones)}
    return [c for c in full
            if (first[c] == c if c in unimodular else
                not any(d in unimodular and order[first[d]] < order[c]
                        for _, d, _ in adjacent[c]))]


def non_cones(f, limit=200):
    """Up to `limit` index sets of ambient_dim rays that are no maximal cone."""
    n = f.ambient_dim
    return [idx for idx in islice(combinations(range(f.ray_count), n), limit)
            if not f.is_maximal(idx)]


@pytest.fixture
def dual_basis_calls(monkeypatch):
    """Counts the Hermite normal forms run by lattice.dual_basis."""
    calls = []
    original = lattice.dual_basis

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(lattice, "dual_basis", counting)
    return calls


class TestChartWalk:
    """Fan.charts by crossing walls against one HNF per cone."""

    def test_corpora(self):
        fans = list(complete_builtins().values()) + subdivision_iterates()
        fans += incomplete_fans() + invalid_fans() + random_two_cone_fans(30, seed=5)
        fans += [WINDS_TWICE, ON_A_WALL_LINE, non_unimodular_between()]
        for f in fans:
            assert_charts_match_reference(f)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.sampled_from(BASES), st.integers(0, 8), st.integers(0, 10 ** 6),
           st.sampled_from(["none", "move", "drop", "add", "swap"]))
    def test_unimodular_image_of_a_chain(self, base, rounds, seed, kind):
        rng = random.Random(seed)
        f = random_chain(base, rounds, rng)
        f = image_under(random_unimodular(f.ambient_dim, rng), f)
        if kind != "none":
            f = mutate(f, kind, rng)
            assume(f is not None)
        assert_charts_match_reference(f)

    def test_beyond_a_non_unimodular_neighbour(self, dual_basis_calls):
        f = non_unimodular_between()
        assert f.charts == {(0, 1): ((1, 0), (0, 1)), (1, 2): None,
                            (2, 3): ((0, 1), (-1, -2))}
        # one HNF for each side; the middle cone is settled by alpha_i
        assert dual_basis_calls == [((1, 0), (0, 1)), ((-2, 1), (-1, 0))]
        assert_charts_match_reference(f)

    def test_non_unimodular_cone_in_a_complete_fan(self):
        # cp3 with its first generator replaced by 2 e1 + e2: the first two
        # cones have |det| 2, and the walk starts at the third
        f = make_fan([(2, 1, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                     [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert [c for c, rows in f.charts.items() if rows is None] == [(0, 1, 2), (0, 1, 3)]
        assert_charts_match_reference(f)

    @pytest.mark.parametrize("f", [cpn(10), chain_of("cp3", 10)], ids=["cp10", "cp3-chain-10"])
    def test_one_hermite_form_per_complete_fan(self, f, dual_basis_calls):
        charts = f.charts
        assert len(dual_basis_calls) == 1
        assert None not in charts.values()
        assert all(rows is f.chart_weights(c) for c, rows in charts.items())
        assert len(dual_basis_calls) == 1

    def test_cached_entries_are_kept(self, dual_basis_calls):
        f = chain_of("cp3", 4)
        kept = {c: f.chart_weights(c) for c in f.maximal_cones[::3]}
        calls = len(dual_basis_calls)
        assert all(f.charts[c] is rows for c, rows in kept.items())
        assert len(dual_basis_calls) == calls
        assert_charts_match_reference(f)

    def test_one_hermite_form_per_walk_seed(self, dual_basis_calls):
        """Read through charts or through chart_weights under any spelling
        of each cone, a fan proves exactly its walk seeds."""
        rng = random.Random(3)
        seeded = 0
        for f in store_corpus():
            seeds = [f.generators(c) for c in expected_seeds(f)]
            del dual_basis_calls[:]
            f.charts
            assert dual_basis_calls == seeds, f
            g = make_fan(f.rays, f.maximal_cones)
            del dual_basis_calls[:]
            read = [(c, g.chart_weights(spelling)) for c in g.maximal_cones
                    for spelling in (list(c), tuple(rng.sample(c, len(c))), c)]
            assert dual_basis_calls == seeds, f
            assert all(rows is g.charts[c] for c, rows in read)
            seeded += len(seeds) > 1
        assert seeded  # fans that need more than one seed are among them

    def test_rebuilt_fan_proves_only_the_gkm_seeds(self, dual_basis_calls):
        """Reconstruction proves each fixed point's weights once; the
        rebuilt fan reads those charts and proves nothing more."""
        complete = list(complete_builtins().values()) + subdivision_iterates()
        for f in complete + drop_one_fans(complete):
            data = weight_data_from_fan(f)
            seeds = len(data.bases)
            del dual_basis_calls[:]
            rebuilt = toric.fan_from_weight_data(data)
            for c, rows in rebuilt.charts.items():
                assert rows is not None
                assert rebuilt.chart_weights(tuple(reversed(c))) is rows
                assert toric.weight_matrix(rebuilt, c) is rows
            assert all(rebuilt.chart_weights(idx) is None for idx in non_cones(rebuilt))
            assert len(dual_basis_calls) == seeds, f
            assert rebuilt.charts == make_fan(rebuilt.rays, rebuilt.maximal_cones).charts


def brute_maximal(cones):
    sets = {frozenset(c) for c in cones}
    return tuple(sorted(tuple(sorted(s)) for s in sets if not any(s < t for t in sets)))


class TestNoMaterializedClosure:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.lists(st.sets(st.integers(0, 5), max_size=4), min_size=1, max_size=8))
    def test_keeps_the_inclusion_maximal_cones(self, cones):
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
        used = sorted(set().union(*cones))
        relabel = {i: k for k, i in enumerate(used)}
        cones = [[relabel[i] for i in c] for c in cones]
        f = make_fan(rays[:len(used)], cones, dim=3)
        assert f.maximal_cones == brute_maximal(cones)

    def test_cone_accepts_exactly_the_closure(self):
        fans = list(complete_builtins().values()) + subdivision_iterates()[:4]
        fans += incomplete_fans() + invalid_fans() + [make_fan([], [], dim=2)]
        for f in fans:
            faces = f.cones
            r = f.ray_count
            candidates = [c for k in range(min(r, 4) + 1) for c in combinations(range(r), k)]
            candidates += [(0, 0), (-1,), (r,), (0, r), (r + 5,)]
            for c in candidates:
                if c in faces:
                    assert f.cone(c).indices == c
                    assert f.cone(reversed(c)).indices == c
                else:
                    with pytest.raises(MalformedInput):
                        f.cone(c)

    def test_iterator_argument_named_in_the_message(self):
        with pytest.raises(MalformedInput, match=r"^\{0\} is not a cone of this fan$"):
            cpn(2).cone(iter([0, 0]))
        with pytest.raises(MalformedInput, match=r"^\{0, 1, 2\} is not a cone"):
            cpn(2).cone(reversed((0, 1, 2)))

    def test_closure_built_on_first_use(self):
        f = cpn(3)
        assert "faces" not in vars(sigma(f))
        assert f.cones is f.cones
        assert len(f.cones) == 2 ** 4 - 1
        assert sigma(f).faces is f.cones

    def test_validate_facet_and_weights_leave_it_unbuilt(self):
        f = cpn(16)
        assert validate(f).ok
        assert is_complete_facet(f)[0]
        assert len(weight_data_from_fan(f).bases) == 17
        assert "faces" not in vars(sigma(f))


class TestSigma:
    def test_cp2(self):
        s = sigma(CP2)
        assert s.faces == CP2.cones
        assert s.vertex_count == 3
        assert set(s.maximal_faces) == {(0, 1), (1, 2), (0, 2)}

    def test_single_cone(self):
        s = sigma(quadrant(2))
        assert s.faces == frozenset({(), (0,), (1,), (0, 1)})

    def test_cp1(self):
        s = sigma(cp1())
        assert s.faces == frozenset({(), (0,), (1,)})

    def test_subset_closed_and_maximal_elements(self):
        for f in list(complete_builtins().values()) + subdivision_iterates():
            s = sigma(f)
            for face in s.faces:
                for i in face:
                    assert tuple(x for x in face if x != i) in s.faces
            assert set(s.maximal_faces) == set(f.maximal_cones)


def brute_maximal_faces(faces):
    return tuple(sorted(
        c for c in faces if not any(set(c) < set(d) for d in faces)
    ))


class TestMaximalFaces:
    def test_matches_definition_on_fans(self):
        for f in list(complete_builtins().values()) + subdivision_iterates() + incomplete_fans():
            s = sigma(f)
            assert s.maximal_faces == brute_maximal_faces(s.faces)

    def test_matches_definition_on_families_not_subset_closed(self):
        rng = random.Random(5)
        families = [
            frozenset({(), (0, 1, 2), (1, 2), (3,), (2, 3)}),
            frozenset({(), (0,), (1,), (0, 1)}),
            frozenset({()}),
        ]
        for _ in range(40):
            verts = range(rng.randint(1, 6))
            families.append(frozenset({()} | {
                tuple(sorted(rng.sample(verts, rng.randint(1, len(verts)))))
                for _ in range(rng.randint(1, 12))
            }))
        for faces in families:
            s = SimplicialComplex(6, faces)
            assert s.maximal_faces == brute_maximal_faces(faces)


def closure_of(family):
    return {()} | {sub for c in family for k in range(len(c) + 1) for sub in combinations(c, k)}


class TestSimplicialComplex:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.sets(st.integers(0, 5), max_size=6).map(lambda s: tuple(sorted(s))),
                    max_size=10))
    def test_matches_brute_force_on_any_family(self, family):
        s = SimplicialComplex(6, family)
        faces = closure_of(family)
        assert s.faces == faces
        assert s.maximal_faces == brute_maximal_faces(faces)
        assert s.maximal_faces == brute_maximal(family or [()])
        for k in range(4):
            for c in product(range(-1, 7), repeat=k):
                distinct = len(set(c)) == len(c)
                assert (c in s) == (distinct and tuple(sorted(c)) in faces), c
        closed = SimplicialComplex(6, faces)
        assert closed == s and hash(closed) == hash(s)
        assert closed.faces == s.faces

    def test_one_instance_serves_the_fan(self):
        f = cpn(16)
        s = sigma(f)
        assert sigma(f) is s
        assert f.maximal_cones is s.maximal_faces
        assert quotient_presentation(f).allowed_zero_sets is s
        assert "faces" not in vars(s)
        assert f.cone((0, 1)).indices == (0, 1)

    def test_is_maximal_on_every_face(self):
        fans = list(complete_builtins().values()) + subdivision_iterates()[:4]
        fans += incomplete_fans() + invalid_fans() + [make_fan([], [], dim=2)]
        for f in fans:
            maximal = set(f.maximal_cones)
            for c in f.cones:
                assert f.is_maximal(c) == (c in maximal), (f, c)
                if len(c) > 1:
                    assert not f.is_maximal(c[::-1])

    def test_differs_by_vertex_count(self):
        assert SimplicialComplex(3, [(0, 1)]) != SimplicialComplex(4, [(0, 1)])


class TestSupportContains:
    def test_interior_of_standard_chart(self):
        assert support_contains(CP2, (2, 1)) == (0, 1)

    def test_boundary_ray(self):
        assert support_contains(CP2, (1, 0)) == (0,)

    def test_outside_support(self):
        assert support_contains(quadrant(2), (-1, 0)) is None

    def test_zero_vector(self):
        assert support_contains(CP2, (0, 0)) == ()

    def test_rational_input(self):
        assert support_contains(CP2, (Fraction(-1, 2), Fraction(-1, 3))) == (1, 2)

    def test_lower_dimensional_maximal_cone(self):
        f = make_fan([(1, 0)], [(0,)])
        assert support_contains(f, (3, 0)) == (0,)
        assert support_contains(f, (0, 0)) == ()
        assert support_contains(f, (3, 1)) is None

    def test_returned_stratum_is_exact(self):
        rng = random.Random(3)
        for f in (CP2, hirzebruch(2), cpn(3), quadrant(2)):
            from toricfan.cone import relative_interior_contains
            for _ in range(60):
                v = tuple(rng.randint(-9, 9) for _ in range(f.ambient_dim))
                stratum = support_contains(f, v)
                hits = [
                    c for c in f.cones
                    if relative_interior_contains(f.cone(c), v)
                ]
                if stratum is None:
                    assert hits == []
                else:
                    assert hits == [stratum]


def reference_support_contains(f, v):
    """support_contains as it was when it paired v with every row of a
    chart before looking at the signs."""
    for c in f.maximal_cones:
        weights = f.chart_weights(c)
        if weights is not None:
            pairings = [lattice.dot(row, v) for row in weights]
            if all(p >= 0 for p in pairings):
                return tuple(i for i, p in zip(c, pairings) if p > 0)
            continue
        gens = f.generators(c)
        if not gens:
            if all(Fraction(x) == 0 for x in v):
                return ()
            continue
        coeffs = lattice.solve_combination(gens, v)
        if coeffs is not None and all(a >= 0 for a in coeffs):
            return tuple(i for i, a in zip(c, coeffs) if a > 0)
    return None


class TestSupportContainsMatchesReference:
    def test_integer_and_rational_vectors(self):
        fans = list(complete_builtins().values()) + subdivision_iterates()
        fans += incomplete_fans() + invalid_fans()
        rng = random.Random(23)
        for f in fans:
            n = f.ambient_dim
            vectors = [(0,) * n] + list(f.rays)
            vectors += [tuple(map(sum, zip(*f.generators(c)))) for c in f.maximal_cones]
            vectors += [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(40)]
            vectors += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n))
                        for _ in range(20)]
            vectors += [tuple(Fraction(x, 3) for x in r) for r in f.rays]
            for v in vectors:
                assert support_contains(f, v) == reference_support_contains(f, v), (f, v)


class TestCompletenessFacet:
    def test_cp2(self):
        complete, report = is_complete_facet(CP2)
        assert complete
        assert all(k == 2 for _, k in report.facet_counts)

    def test_quadrant(self):
        complete, report = is_complete_facet(quadrant(2))
        assert not complete
        assert ((0,), 1) in report.facet_counts

    def test_hirzebruch(self):
        assert is_complete_facet(hirzebruch(1))[0]

    def test_impure_fan(self):
        f = make_fan([(1, 0)], [(0,)])
        complete, report = is_complete_facet(f)
        assert not complete and not report.pure
        assert report.undominated == ((0,),)


def reference_facet_report(f):
    """The facet criterion by its definition: every codimension-one cone
    of the face closure against every full-dimensional maximal cone."""
    n = f.ambient_dim
    top = [c for c in f.maximal_cones if len(c) == n]
    undominated = tuple(c for c in f.maximal_cones if len(c) < n)
    pure = not undominated
    counts = tuple(
        (facet, sum(1 for c in top if set(facet) <= set(c)))
        for facet in sorted(c for c in f.cones if len(c) == n - 1)
    )
    complete = bool(top) and pure and all(k == 2 for _, k in counts)
    return complete, FacetReport(complete, pure, counts, undominated)


def facet_corpus():
    non_pure = make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (2,), (3,)])
    # maximal cones with n + 1 rays: their (n-1)-faces lie in no
    # full-dimensional cone, or in one that shares them
    wide2 = make_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1, 2)])
    wide2_mixed = make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1, 2), (2, 3)])
    wide3 = make_fan(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (0, 0, -1)],
        [(0, 1, 2, 3), (0, 1, 4)],
    )
    return (
        list(complete_builtins().values()) + subdivision_iterates()
        + incomplete_fans() + invalid_fans()
        + [non_pure, wide2, wide2_mixed, wide3, cp1(), quadrant(1)]
    )


class TestFacetMap:
    def test_report_matches_definition(self):
        for f in facet_corpus():
            assert is_complete_facet(f) == reference_facet_report(f)

    def test_map_matches_definition(self):
        for f in facet_corpus():
            n = f.ambient_dim
            top = [c for c in f.maximal_cones if len(c) == n]
            expected = {
                facet: tuple(c for c in top if set(facet) <= set(c))
                for facet in f.cones if len(facet) == n - 1
            }
            assert f.facet_map == expected

    def test_verdict_computed_once(self):
        f = hirzebruch(2)
        assert is_complete_facet(f) is is_complete_facet(f)


class TestCompletenessRaycast:
    def test_cp2(self):
        assert is_complete_raycast(CP2, 2000, 0) == (True, None)

    def test_quadrant_has_witness(self):
        complete, witness = is_complete_raycast(quadrant(2), 2000, 7)
        assert not complete
        assert witness is not None and min(witness) < 0

    def test_cp1(self):
        assert is_complete_raycast(cp1(), 500, 0)[0]

    def test_deterministic(self):
        a = is_complete_raycast(quadrant(2), 50, 123)
        b = is_complete_raycast(quadrant(2), 50, 123)
        assert a == b

    def test_agrees_with_facet_criterion(self):
        corpus = (
            list(complete_builtins().values())
            + subdivision_iterates()
            + incomplete_fans()
        )
        for f in corpus:
            facet = is_complete_facet(f)[0]
            raycast = is_complete_raycast(f, 800, 11)[0]
            assert facet == raycast


def reference_raycast(f, samples, seed):
    """is_complete_raycast as it was: randint per entry and the whole
    support_contains (through every chart lookup) per sample."""
    rng = random.Random(seed)
    n = f.ambient_dim
    for _ in range(samples):
        v = tuple(rng.randint(-97, 97) for _ in range(n))
        while not any(v):
            v = tuple(rng.randint(-97, 97) for _ in range(n))
        if reference_support_contains(f, v) is None:
            return False, v
    return True, None


class TestRaycastMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 7, 123, 2024])
    def test_incomplete_and_invalid_fans(self, seed):
        fans = incomplete_fans() + invalid_fans() + [cp1(), CP2, hirzebruch(2)]
        fans += [make_fan([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1), (2,)])]
        # complete, but the cone {0,1} has |det| = 2 and no chart
        fans += [make_fan([(1, 0), (1, 2), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])]
        for f in fans:
            for samples in (1, 3, 400):
                assert is_complete_raycast(f, samples, seed) == \
                    reference_raycast(f, samples, seed), (f, samples, seed)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            is_complete_raycast(CP2, 0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123, 2024])
    def test_large_chart_rows(self, seed):
        # chart rows with entries of size 10**6 need 4-byte fields
        big = hirzebruch(10 ** 6)
        gap = make_fan(big.rays, [c for c in big.maximal_cones if c != (2, 3)])
        for f in (big, gap):
            for samples in (1, 3, 400):
                assert is_complete_raycast(f, samples, seed) == \
                    reference_raycast(f, samples, seed), (f, samples, seed)


def randrange_samples(n, count, seed):
    """The raycast's samples drawn one entry at a time, a zero vector
    redrawn; also returns how many vectors were drawn."""
    rng = random.Random(seed)
    out, drawn = [], 0
    while len(out) < count:
        v = tuple(rng.randrange(-97, 98) for _ in range(n))
        drawn += 1
        if any(v):
            out.append(v)
    return out, drawn


def decoded_samples(n, count, seed):
    return [tuple(b - 97 for b in chunk[i:i + n])
            for chunk in fan_module._sample_chunks(n, count, seed)
            for i in range(0, len(chunk), n)]


def wedge_gap_fan(v, m=10 ** 5):
    """A fan of two unimodular cones covering all of R^2 except an open
    wedge around the ray of v, so thin that the only integer points with
    entries in [-97, 97] inside it are the positive multiples of the
    primitive vector p on that ray.

    With det(p, u) = 1, the cones are spanned by m*p + u, -p and by -p,
    m*p - u; in the basis (p, u) the wedge is x > m*|y|, and |x| stays
    below 2 * 97 * 137 < m for every sample.
    """
    a, b = lattice.primitive(v)
    _, c, d = lattice._xgcd(a, b)  # c*a + d*b = 1, so u = (-d, c)
    rays = [(m * a - d, m * b + c), (-a, -b), (m * a + d, m * b - c)]
    return make_fan(rays, [(0, 1), (1, 2)])


class TestRaycastKernel:
    CHUNK = fan_module.RAYCAST_CHUNK

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_samples_are_randrange_draws(self, n):
        count = self.CHUNK + 500
        for seed in (0, 5):
            expected, drawn = randrange_samples(n, count, seed)
            assert decoded_samples(n, count, seed) == expected
            if n == 1:
                assert drawn > count  # zero vectors were redrawn

    @pytest.mark.parametrize("samples", [CHUNK - 1, CHUNK, CHUNK + 1, 10 ** 4])
    def test_witness_on_the_last_sample(self, samples):
        """A fan whose support misses only the ray of the last sample:
        complete for one sample fewer, and that sample is the witness."""
        for seed in range(100):
            drawn, _ = randrange_samples(2, samples, seed)
            p = lattice.primitive(drawn[-1])
            if not any(lattice.primitive(v) == p for v in drawn[:-1]):
                break
        f = wedge_gap_fan(drawn[-1])
        assert all(rows is not None for rows in f.charts.values())
        assert is_complete_raycast(f, samples, seed) == (False, drawn[-1])
        assert is_complete_raycast(f, samples - 1, seed) == (True, None)
        assert is_complete_raycast(f, samples, seed) == reference_raycast(f, samples, seed)

    def test_iterates_complete_at_full_sample_count(self):
        for f in subdivision_iterates():
            assert is_complete_raycast(f, 10 ** 4, 0) == (True, None)

    def test_field_width_bound(self):
        for bound_rows, width in [([(1, 0)], 1), ([(1, 1)], 2), ([(337, 0)], 2),
                                  ([(338, 0)], 3), ([(10 ** 6, 1)], 4)]:
            assert fan_module._field_width([bound_rows]) == width

    @staticmethod
    @st.composite
    def kernel_inputs(draw):
        """Charts of n rows with entries up to a drawn bound (field widths
        1 to 4), and a block of k samples with entries in [-B, B]."""
        n = draw(st.integers(1, 6))
        bound = draw(st.sampled_from([1, 2, 400, 10 ** 6]))
        row = st.tuples(*[st.integers(-bound, bound)] * n)
        charts = draw(st.lists(st.lists(row, min_size=n, max_size=n), min_size=1, max_size=3))
        k = draw(st.sampled_from([1, 2, 37, TestRaycastKernel.CHUNK - 1,
                                  TestRaycastKernel.CHUNK, TestRaycastKernel.CHUNK + 1]))
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        block = bytes(rng.randrange(2 * 97 + 1) for _ in range(k * n))
        return charts, block, n

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(kernel_inputs())
    def test_chart_cover_matches_exact_signs(self, inputs):
        """Each sample is covered exactly when some chart's rows all pair
        nonnegatively with it, by exact dot products."""
        charts, block, n = inputs
        width = fan_module._field_width(charts)
        assert 1 <= width <= 4
        covered = fan_module._chart_cover(charts, block, n, width)
        samples = [[b - 97 for b in block[i:i + n]] for i in range(0, len(block), n)]
        assert covered == bytes(
            0x80 if any(all(sum(map(operator.mul, row, v)) >= 0 for row in rows)
                        for rows in charts) else 0
            for v in samples)


class TestStarSubdivide:
    def test_cp2_blowup(self):
        f = star_subdivide(CP2, (0, 1))
        assert f.ray_count == 4 and len(f.maximal_cones) == 4
        assert f.rays[3] == (1, 1)
        assert validate(f).ok
        assert is_complete_facet(f)[0]

    def test_dimension_one_is_degenerate(self):
        with pytest.raises(DegenerateSubdivision):
            star_subdivide(cp1(), (0,))

    def test_twice(self):
        f = star_subdivide(CP2, (0, 1))
        g = star_subdivide(f, (1, 2))
        assert g.ray_count == 5 and len(g.maximal_cones) == 5
        assert validate(g).ok and is_complete_facet(g)[0]

    def test_requires_maximal_cone(self):
        with pytest.raises(NotMaximal):
            star_subdivide(CP2, (0,))

    def test_iterator_argument_named_in_the_message(self):
        with pytest.raises(NotMaximal, match=r"^\{0\} is not a maximal cone$"):
            star_subdivide(CP2, iter([0]))

    def test_preserves_validity_and_completeness(self):
        for f in subdivision_iterates(seed=2):
            assert validate(f).ok
            assert is_complete_facet(f)[0]

    def test_incomplete_stays_incomplete(self):
        f = star_subdivide(quadrant(2), (0, 1))
        assert validate(f).ok
        assert not is_complete_facet(f)[0]


class TestRelativeInteriorsDisjoint:
    def test_sampled_points_hit_one_stratum(self):
        rng = random.Random(17)
        for f in (CP2, hirzebruch(1)):
            from toricfan.cone import relative_interior_contains
            for _ in range(50):
                v = tuple(rng.randint(-8, 8) for _ in range(2))
                hits = [c for c in f.cones
                        if relative_interior_contains(f.cone(c), v)]
                assert len(hits) == 1  # complete fan: relints partition R^n


def lower_dimensional_fans():
    """Fans with maximal cones that have no chart: lower-dimensional or
    not unimodular, so membership goes through their descriptions."""
    return [
        make_fan([(1, 0)], [(0,)]),
        make_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (2,)]),
        make_fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                 [(0, 1, 2), (1, 3), (2, 3)]),
        make_fan([(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
    ]


def exact_kernel_results():
    """Results of the library's exact paths on fresh fans and cones."""
    rng = random.Random(41)
    out = []
    dependent = make_fan([(1, 0), (-1, 0), (0, 1)], [(0, 1, 2)])
    for f in invalid_fans() + lower_dimensional_fans() + [dependent]:
        out.append(validate(f))
    for f in incomplete_fans() + lower_dimensional_fans():
        n = f.ambient_dim
        vectors = [(0,) * n] + list(f.rays)
        vectors += [tuple(map(sum, zip(*f.generators(c)))) for c in f.maximal_cones]
        vectors += [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(30)]
        vectors += [tuple(Fraction(x, 3) for x in r) for r in f.rays]
        out.append([support_contains(f, v) for v in vectors])
        out.append(is_complete_raycast(f, 2000))
    tables = [cone_module.make_table([(1, 0, 0), (0, 1, 0), (1, 1, 2), (-1, -1, 0), (2, 1, 0)]),
              cone_module.make_table([(1, 0), (0, 1), (-1, 0), (1, 2)])]
    for t in tables:
        cones = []
        for k in range(t.dim + 2):
            for idx in combinations(range(len(t)), k):
                try:
                    cones.append(cone_module.make_cone(t, idx))
                    out.append(idx)
                except (NotUnimodular, DependentGenerators) as e:
                    out.append((idx, type(e).__name__, str(e)))
        for c in cones:
            points = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(t.dim))
                      for _ in range(10)]
            for v in points + list(c.generators):
                out.append((cone_module.contains(c, v),
                            cone_module.relative_interior_contains(c, v)))
        for c, d in combinations(cones, 2):
            out.append(cone_module.intersect(c, d))
    return out


class TestIntegerKernelOnly:
    def test_same_results_without_the_rational_eliminations(self, monkeypatch):
        """No module of the package but lattice calls rational_rank,
        solve_combination or rational_kernel: with them raising, every
        exact path returns what it returns with them."""
        expected = exact_kernel_results()

        def forbidden(*args):
            raise AssertionError("rational elimination called")

        for name, module in list(sys.modules.items()):
            if name == "toricfan" or name.startswith("toricfan."):
                for fn in ("rational_rank", "solve_combination", "rational_kernel"):
                    if hasattr(module, fn):
                        monkeypatch.setattr(module, fn, forbidden)
        assert exact_kernel_results() == expected

    def test_same_results_without_smith_forms_or_det(self, monkeypatch):
        """Every exact cone and fan path runs on Hermite forms alone: with
        snf, invariant_factors and det raising, the results are unchanged."""
        expected = exact_kernel_results()

        def forbidden(*args):
            raise AssertionError("Smith form or det called")

        for name, module in list(sys.modules.items()):
            if name == "toricfan" or name.startswith("toricfan."):
                for fn in ("snf", "invariant_factors", "det"):
                    if hasattr(module, fn):
                        monkeypatch.setattr(module, fn, forbidden)
        assert exact_kernel_results() == expected
