import random
from fractions import Fraction

import pytest
from corpus import random_unimodular
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_intersection_rays, lp_contains, supported_face_subsets
from toricfan import cone, lattice
from toricfan.errors import DependentGenerators, MalformedInput, NotUnimodular


def table(*rays):
    return cone.make_table(rays)


STD2 = table((1, 0), (0, 1))
CP2 = table((1, 0), (0, 1), (-1, -1))


class TestMakeCone:
    def test_standard_quadrant(self):
        c = cone.make_cone(STD2, (0, 1))
        assert c.dim == 2 and c.ambient_dim == 2

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            cone.make_cone(table((1, 0), (1, 2)), (0, 1))

    def test_zero_cone(self):
        c = cone.make_cone(STD2, ())
        assert c.dim == 0 and c.generators == ()

    def test_rejects_dependent(self):
        with pytest.raises(DependentGenerators):
            cone.make_cone(table((1, 0), (-1, 0)), (0, 1))

    def test_rejects_bad_index(self):
        with pytest.raises(MalformedInput):
            cone.make_cone(STD2, (0, 7))

    def test_description_computed_once(self, monkeypatch):
        calls = []
        original = cone.halfspace_description
        monkeypatch.setattr(cone, "halfspace_description",
                            lambda *a: calls.append(a) or original(*a))
        c = cone.make_cone(CP2, (0, 2))
        points = [(x, -1) for x in range(-5, 5)]
        assert [cone.contains(c, v) for v in points] == [x >= -1 for x, _ in points]
        assert len(calls) == 1

    def test_rejects_duplicate_index(self):
        with pytest.raises(MalformedInput):
            cone.make_cone(STD2, (0, 0))


class TestFaces:
    def test_two_dim(self):
        c = cone.make_cone(STD2, (0, 1))
        got = {f.indices for f in cone.faces(c)}
        assert got == {(), (0,), (1,), (0, 1)}

    def test_zero_cone(self):
        c = cone.make_cone(STD2, ())
        assert {f.indices for f in cone.faces(c)} == {()}

    def test_three_dim_has_eight(self):
        t = table((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert len(cone.faces(cone.make_cone(t, (0, 1, 2)))) == 8

    @pytest.mark.parametrize(
        "rays,indices",
        [
            (((1, 0), (0, 1)), (0, 1)),
            (((0, 1), (-1, -1)), (0, 1)),
            (((1, 2), (1, 1)), (0, 1)),
            (((1, 0, 0), (0, 1, 0), (1, 1, 1)), (0, 1, 2)),
            (((2, 1, 0), (1, 1, 0)), (0, 1)),
        ],
    )
    def test_matches_supporting_hyperplane_enumeration(self, rays, indices):
        t = table(*rays)
        c = cone.Cone(t, tuple(sorted(indices)))
        got = {tuple(sorted(c.indices.index(i) for i in f.indices))
               for f in cone.faces(c)}
        oracle = supported_face_subsets(c.generators, c.ambient_dim)
        assert got == oracle


class TestContains:
    def test_quadrant_inside(self):
        c = cone.make_cone(STD2, (0, 1))
        assert cone.contains(c, (3, 5))

    def test_quadrant_outside(self):
        c = cone.make_cone(STD2, (0, 1))
        assert not cone.contains(c, (-1, 2))

    def test_exact_solve_on_skew_cone(self):
        # coefficients solve exactly: (1,-1) = 1*(-1,-1) + 2*(1,0)
        c = cone.make_cone(CP2, (0, 2))
        assert cone.contains(c, (1, -1))

    def test_rational_vectors(self):
        c = cone.make_cone(STD2, (0, 1))
        assert cone.contains(c, (Fraction(1, 3), Fraction(7, 2)))
        assert not cone.contains(c, (Fraction(-1, 5), Fraction(1)))

    def test_lower_dimensional_cone(self):
        c = cone.make_cone(STD2, (0,))
        assert cone.contains(c, (4, 0))
        assert not cone.contains(c, (4, 1))

    def test_zero_cone(self):
        c = cone.make_cone(STD2, ())
        assert cone.contains(c, (0, 0))
        assert not cone.contains(c, (1, 0))


class TestRelativeInterior:
    def test_interior_point(self):
        c = cone.make_cone(STD2, (0, 1))
        assert cone.relative_interior_contains(c, (1, 1))

    def test_boundary_point(self):
        c = cone.make_cone(STD2, (0, 1))
        assert not cone.relative_interior_contains(c, (1, 0))

    def test_skew_cone_interior(self):
        # (-1,0) = 1*(0,1) + 1*(-1,-1), both coefficients positive
        c = cone.make_cone(table((0, 1), (-1, -1)), (0, 1))
        assert cone.relative_interior_contains(c, (-1, 0))

    def test_implies_containment(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_unimodular(3, rng)
            k = rng.randint(1, 3)
            t = cone.make_table(g[:k], 3)
            c = cone.make_cone(t, range(k))
            v = tuple(rng.randint(-4, 4) for _ in range(3))
            if cone.relative_interior_contains(c, v):
                assert cone.contains(c, v)

    def test_unique_face_partition(self):
        c = cone.make_cone(CP2, (1, 2))
        rng = random.Random(9)
        for _ in range(40):
            a, b = rng.randint(0, 5), rng.randint(0, 5)
            v = tuple(a * x + b * y for x, y in zip((0, 1), (-1, -1)))
            hits = [f for f in cone.faces(c) if cone.relative_interior_contains(f, v)]
            assert len(hits) == 1
            assert cone.contains(c, v)


class TestIntersect:
    def test_shared_ray(self):
        c1 = cone.make_cone(CP2, (0, 1))
        c2 = cone.make_cone(CP2, (1, 2))
        assert cone.intersect(c1, c2) == ((0, 1),)

    def test_self_intersection(self):
        c = cone.make_cone(CP2, (1, 2))
        assert set(cone.intersect(c, c)) == {(0, 1), (-1, -1)}

    def test_non_face_overlap(self):
        # the canonical intersection-axiom violation witness: the second
        # cone sits inside the first, so the intersection is not a face
        t = table((1, 0), (0, 1), (1, 1))
        c1 = cone.make_cone(t, (0, 1))
        c2 = cone.make_cone(t, (0, 2))
        assert set(cone.intersect(c1, c2)) == {(1, 0), (1, 1)}

    def test_commutative(self):
        c1 = cone.make_cone(CP2, (0, 1))
        c2 = cone.make_cone(CP2, (2,))
        assert cone.intersect(c1, c2) == cone.intersect(c2, c1) == ()

    def test_face_intersection_is_face(self):
        c = cone.make_cone(CP2, (0, 1))
        for f in cone.faces(c):
            assert set(cone.intersect(c, f)) == set(f.generators)

    def test_zero_cone(self):
        c1 = cone.make_cone(STD2, ())
        c2 = cone.make_cone(STD2, (0, 1))
        assert cone.intersect(c1, c2) == ()

    def test_table_mismatch(self):
        with pytest.raises(MalformedInput):
            cone.intersect(cone.make_cone(STD2, (0,)), cone.make_cone(CP2, (0,)))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_tight_subset_enumeration(self, seed):
        rng = random.Random(seed)
        n = rng.choice((2, 2, 3))
        g1 = random_unimodular(n, rng)[: rng.randint(1, n)]
        g2 = random_unimodular(n, rng)[: rng.randint(1, n)]
        got = set(cone.intersect_generators(g1, g2, n))
        assert got == brute_intersection_rays(g1, g2, n)
        assert got == set(cone.intersect_generators(g2, g1, n))

    def test_opposite_halfplanes_meet_in_line_boundary(self):
        # two cones meeting along a full line would not be pointed; make
        # sure genuinely touching cones still work
        t = table((1, 0), (0, 1), (-1, 0))
        c1 = cone.make_cone(t, (0, 1))
        c2 = cone.make_cone(t, (1, 2))
        assert cone.intersect(c1, c2) == ((0, 1),)


class TestContainsAgainstLp:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_unimodular_cones(self, seed):
        rng = random.Random(100 + seed)
        n = rng.choice((2, 3))
        g = random_unimodular(n, rng, ops=6)
        if any(abs(x) > 4 for row in g for x in row):
            return  # stay inside the small-entry corpus
        k = rng.randint(1, n)
        t = cone.make_table(g[:k], n)
        c = cone.make_cone(t, range(k))
        for _ in range(25):
            v = tuple(rng.randint(-6, 6) for _ in range(n))
            assert cone.contains(c, v) == lp_contains(c.generators, v, n)

    @pytest.mark.parametrize("seed", range(20))
    def test_rational_combinations_of_generators(self, seed):
        # random integer points almost never lie in the span of a
        # lower-dimensional cone: draw combinations of its generators with
        # rational coefficients of both signs, some pushed off the span
        rng = random.Random(300 + seed)
        n = rng.choice((2, 3, 4))
        g = random_unimodular(n, rng, ops=6)
        k = rng.randint(1, n)
        c = cone.make_cone(cone.make_table(g[:k], n), range(k))
        for _ in range(25):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(k)]
            v = [sum(a * gen[i] for a, gen in zip(coeffs, c.generators)) for i in range(n)]
            if k < n and rng.random() < 0.25:
                v[rng.randrange(n)] += Fraction(1, rng.randint(1, 7))
            v = tuple(v)
            assert cone.contains(c, v) == lp_contains(c.generators, v, n), (c, v)
            solved = lattice.solve_combination(c.generators, v)
            inside = solved is not None and all(a > 0 for a in solved)
            assert cone.relative_interior_contains(c, v) == inside, (c, v)


@st.composite
def generator_lists(draw):
    """k generator rows in Z^n, 1 <= k <= n: the first k rows of a random
    GL(n, Z) element (unimodular) or of a random integer matrix (any
    index), optionally with the last row replaced by an integer
    combination of the others (dependent)."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        rows = list(random_unimodular(n, random.Random(draw(st.integers(0, 10 ** 6))))[:k])
    else:
        entry = st.integers(-6, 6)
        rows = [tuple(draw(entry) for _ in range(n)) for _ in range(k)]
    if draw(st.booleans()):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(k - 1)]
        rows[-1] = tuple(sum(a * r[i] for a, r in zip(coeffs, rows)) for i in range(n))
    return n, rows


class TestHalfspaceDescription:
    @given(generator_lists())
    @settings(max_examples=300, deadline=None)
    def test_integer_normals_and_equations(self, drawn):
        n, gens = drawn
        k = len(gens)
        if lattice.rational_rank(gens) < k:
            with pytest.raises(DependentGenerators):
                cone.halfspace_description(gens, n)
            return
        ineqs, eqns = cone.halfspace_description(gens, n)
        assert len(ineqs) == k and len(eqns) == n - k
        assert all(type(x) is int and len(a) == n for a in ineqs + eqns for x in a)
        for i, a in enumerate(ineqs):
            assert lattice.primitive(a) == a
            for j, g in enumerate(gens):
                p = lattice.dot(a, g)
                assert p > 0 if i == j else p == 0
        assert all(lattice.dot(e, g) == 0 for e in eqns for g in gens)
        assert lattice.rational_rank(eqns) == n - k
        pairs_to_one = all(lattice.dot(a, g) == 1 for a, g in zip(ineqs, gens))
        assert pairs_to_one == lattice.is_part_of_basis(gens)
        if k == n and abs(lattice.det(gens)) == 1:
            assert ineqs == lattice.dual_basis(gens)

    def test_zero_cone(self):
        assert cone.halfspace_description((), 3) == ((), lattice.identity(3))

    def test_more_generators_than_dimensions(self):
        with pytest.raises(DependentGenerators):
            cone.halfspace_description([(1, 0), (0, 1), (1, 1)], 2)
