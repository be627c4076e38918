import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import complete_builtins, random_unimodular, subdivision_iterates
from toricfan import cli, lattice, toric
from toricfan.errors import (
    InconsistentData,
    MalformedInput,
    NotMaximal,
    NotPure,
    NotUnimodular,
)
from toricfan.fan import fans_equal, make_fan, sigma, validate
from toricfan.formats import dump_fan
from toricfan.library import cp1, cpn, hirzebruch, quadrant

CP2 = cpn(2)


class TestFixedPoints:
    def test_cp2(self):
        assert toric.fixed_points(CP2) == ((0, 1), (0, 2), (1, 2))

    def test_cp1(self):
        assert toric.fixed_points(cp1()) == ((0,), (1,))

    def test_quadrant(self):
        assert toric.fixed_points(quadrant(2)) == ((0, 1),)

    def test_lower_dimensional_cones_excluded(self):
        f = make_fan([(1, 0)], [(0,)])
        assert toric.fixed_points(f) == ()


class TestIsotropyWeights:
    def test_standard_chart(self):
        assert toric.isotropy_weights(CP2, (0, 1)).weights == ((1, 0), (0, 1))

    def test_skew_chart(self):
        assert toric.isotropy_weights(CP2, (1, 2)).weights == ((-1, 1), (-1, 0))

    def test_third_chart(self):
        assert toric.isotropy_weights(CP2, (0, 2)).weights == ((1, -1), (0, -1))

    def test_not_maximal(self):
        with pytest.raises(NotMaximal):
            toric.isotropy_weights(CP2, (0,))

    def test_iterator_argument_named_in_the_message(self):
        with pytest.raises(NotMaximal, match=r"^\{0\} is not a full-dimensional maximal cone$"):
            toric.weight_matrix(CP2, iter([0]))

    def test_pairs_to_identity(self):
        for f in complete_builtins().values():
            for c in toric.fixed_points(f):
                weights = toric.isotropy_weights(f, c).weights
                gens = f.generators(c)
                pairing = tuple(
                    tuple(lattice.dot(w, g) for g in gens) for w in weights
                )
                assert pairing == lattice.identity(f.ambient_dim)


class TestTransition:
    def test_identity_on_same_chart(self):
        m = toric.transition(CP2, (0, 1), (0, 1))
        assert m.exponents == lattice.identity(2)

    def test_pinned_example(self):
        m = toric.transition(CP2, (0, 1), (1, 2))
        assert m.exponents == ((-1, 1), (-1, 0))

    def test_iterator_source_named_in_the_message(self):
        with pytest.raises(NotMaximal, match=r"^\{2\} is not a full-dimensional maximal cone$"):
            toric.transition(CP2, iter([2]), (0, 1))

    def test_apply_matches_exponents(self):
        m = toric.transition(CP2, (0, 1), (1, 2))
        z = (0.5 + 0.1j, 2.0 - 0.3j)
        w = m.apply(z)
        assert w[0] == pytest.approx(z[0] ** -1 * z[1])
        assert w[1] == pytest.approx(z[0] ** -1)

    def test_triangle_cocycle(self):
        a = toric.transition(CP2, (0, 1), (1, 2))
        b = toric.transition(CP2, (1, 2), (0, 2))
        c = toric.transition(CP2, (0, 2), (0, 1))
        loop = c.after(b.after(a))
        assert loop.exponents == lattice.identity(2)

    @pytest.mark.parametrize("name", ["cp2", "hirzebruch1", "cp3"])
    def test_inverse_and_cocycle_identities(self, name):
        f = complete_builtins()[name]
        charts = toric.fixed_points(f)
        n = f.ambient_dim
        for s, t in permutations(charts, 2):
            forward = toric.transition(f, s, t)
            assert forward.inverse().exponents == toric.transition(f, t, s).exponents
        for a, b, c in product(charts, repeat=3):
            lhs = toric.transition(f, b, c).after(toric.transition(f, a, b))
            assert lhs.exponents == toric.transition(f, a, c).exponents

    def test_unimodular_exponents(self):
        for s, t in permutations(toric.fixed_points(hirzebruch(2)), 2):
            m = toric.transition(hirzebruch(2), s, t)
            assert lattice.det(m.exponents) in (1, -1)


class TestQuotientPresentation:
    def test_cp2(self):
        q = toric.quotient_presentation(CP2)
        assert q.ray_count == 3
        assert q.kernel_basis == ((1, 1, 1),)
        assert q.component_group == ()
        assert q.allowed_zero_sets == sigma(CP2)

    def test_cp1(self):
        q = toric.quotient_presentation(cp1())
        assert q.kernel_basis == ((1, 1),)

    def test_quadrant_trivial_kernel(self):
        q = toric.quotient_presentation(quadrant(2))
        assert q.kernel_basis == ()
        assert q.component_group == ()

    def test_one_smith_form(self, monkeypatch):
        """A fan with a chart gets its kernel basis from the chart, with no
        Smith form: a basis of the Smith form's kernel lattice (its
        invariant factors are all 1, so it spans a saturated lattice of
        the same rank).  A fan without a chart gets one Smith form."""
        charted = list(complete_builtins().values()) + subdivision_iterates() + [
            quadrant(2), quadrant(3), make_fan([(1, 0), (0, 1), (1, 2)], [(0, 1), (1, 2)])]
        chartless = [make_fan([(1, 0), (1, 2)], [(0, 1)]),
                     make_fan([(1, 0, 0), (0, 1, 0), (1, 1, 0)], [(0, 1), (1, 2)]),
                     make_fan([], [()], dim=2)]
        expected = [(lattice.integer_kernel_basis(lattice.transpose(f.rays)),
                     tuple(d for d in lattice.invariant_factors(f.rays) if d > 1))
                    if f.rays else ((), ()) for f in charted + chartless]
        calls = []
        original = lattice.snf
        monkeypatch.setattr(lattice, "snf", lambda m: calls.append(m) or original(m))
        got = [toric.quotient_presentation(f) for f in charted]
        assert calls == []
        got += [toric.quotient_presentation(f) for f in chartless]
        assert len(calls) == len(chartless) - 1  # no Smith form without rays
        monkeypatch.undo()
        for q, (kernel, group) in zip(got[:len(charted)], expected):
            assert len(q.kernel_basis) == len(kernel) and q.component_group == group == ()
            if kernel:
                assert lattice.invariant_factors(q.kernel_basis) == (1,) * len(kernel)
                assert len(lattice.invariant_factors(kernel + q.kernel_basis)) == len(kernel)
        for q, (kernel, group) in zip(got[len(charted):], expected[len(charted):]):
            assert (q.kernel_basis, q.component_group) == (kernel, group)

    def test_component_group_of_a_non_unimodular_ray_matrix(self):
        f = make_fan([(1, 0), (1, 2)], [(0, 1)])
        assert toric.quotient_presentation(f).component_group == (2,)

    def test_kernel_identities_on_builtins(self):
        for f in complete_builtins().values():
            q = toric.quotient_presentation(f)
            m, n = f.ray_count, f.ambient_dim
            assert len(q.kernel_basis) == m - n
            for k in q.kernel_basis:
                assert lattice.mat_vec(lattice.transpose(f.rays), k) == (0,) * n
            if q.kernel_basis:
                assert all(d == 1 for d in lattice.invariant_factors(q.kernel_basis))
            assert q.component_group == ()


class TestWeightData:
    def test_cp2_has_three_bases(self):
        data = toric.weight_data_from_fan(CP2)
        assert len(data.bases) == 3
        assert {b.weights for b in data.bases} == {
            ((1, 0), (0, 1)),
            ((-1, 1), (-1, 0)),
            ((1, -1), (0, -1)),
        }

    def test_cp1_bases(self):
        data = toric.weight_data_from_fan(cp1())
        assert [b.weights for b in data.bases] == [((1,),), ((-1,),)]

    def test_hirzebruch_has_four(self):
        assert len(toric.weight_data_from_fan(hirzebruch(1)).bases) == 4

    def test_impure_fan_rejected(self):
        f = make_fan([(1, 0)], [(0,)])
        with pytest.raises(NotPure):
            toric.weight_data_from_fan(f)

    def test_non_unimodular_basis_rejected(self):
        with pytest.raises(NotUnimodular):
            toric.WeightBasis("p", ((1, 0), (1, 2)))

    def test_shape_checked(self):
        with pytest.raises(MalformedInput):
            toric.WeightData(2, (toric.WeightBasis("p", ((1,),)),))

    @pytest.mark.parametrize("rows", [((1, 0), (0, 1.5)), ((1, 0), (0, Fraction(1, 2))),
                                      ((1, 0), (0, "1"))])
    def test_non_integral_entry_rejected(self, rows):
        with pytest.raises(MalformedInput):
            toric.WeightBasis("p", rows)

    def test_integral_values_of_other_types_accepted(self):
        assert toric.WeightBasis("p", ((1.0, 0), (0, Fraction(-2, 2)))).dim == 2

    def test_integral_values_of_other_types_stored_as_ints(self):
        basis = toric.WeightBasis("p", ((1.0, 0), (0, Fraction(-2, 2))))
        f = toric.fan_from_weight_data(toric.WeightData(2, (basis,)))
        exponents = toric.transition(f, (0, 1), (0, 1)).exponents
        assert basis.weights == f.charts[(0, 1)] == ((1, 0), (0, -1))
        assert exponents == lattice.identity(2)
        for m in (basis.weights, f.charts[(0, 1)], exponents):
            assert all(type(x) is int for row in m for x in row)

    def test_non_basis_message(self):
        with pytest.raises(NotUnimodular, match=r"^weights at p are not a Z-basis$"):
            toric.WeightBasis("p", ((2.0, 1), (Fraction(4, 2), 1)))


@pytest.fixture
def proofs(monkeypatch):
    """Counts the calls of lattice.det and lattice.dual_basis."""
    calls = {"det": 0, "dual_basis": 0}
    for name in calls:
        def counting(*args, _original=getattr(lattice, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(lattice, name, counting)
    return calls


def fresh(f):
    """The same fan with no chart computed yet."""
    return make_fan(f.rays, f.maximal_cones)


COMPLETE = list(complete_builtins().values()) + subdivision_iterates()


class TestProofCounts:
    """Each chart is proven once, by the walk, and read everywhere else."""

    def test_weights_after_validate_prove_nothing(self, proofs):
        for f in map(fresh, COMPLETE):
            assert validate(f).ok
            assert proofs["dual_basis"] == 1 and proofs["det"] == 0, f
            data = toric.weight_data_from_fan(f)
            assert [b.weights for b in data.bases] == [f.charts[c] for c in toric.fixed_points(f)]
            assert proofs["dual_basis"] == 1 and proofs["det"] == 0, f
            proofs.update(det=0, dual_basis=0)

    def test_atlas_command_proves_one_chart(self, proofs, tmp_path, capsys):
        for k, f in enumerate(COMPLETE):
            path = tmp_path / f"{k}.fan"
            path.write_text(dump_fan(f))
            proofs.update(det=0, dual_basis=0)
            assert cli.main(["atlas", str(path), "--format", "machine"]) == 0
            assert proofs == {"det": 0, "dual_basis": 1}, f
        capsys.readouterr()

    @pytest.mark.parametrize("f", [cpn(10), subdivision_iterates(rounds=10, bases=("cp3",))[-1]],
                             ids=["cp10", "cp3-chain-10"])
    def test_weights_of_a_fresh_fan_walk_the_charts(self, f, proofs):
        f = fresh(f)
        data = toric.weight_data_from_fan(f)
        assert proofs == {"det": 0, "dual_basis": 1}
        assert len(data.bases) == len(f.maximal_cones)

    def test_chart_bases_equal_checked_ones(self):
        for f in COMPLETE:
            for c in toric.fixed_points(f):
                basis = toric.isotropy_weights(f, c)
                assert basis == toric.WeightBasis(basis.fixed_point_id, basis.weights)

    def test_non_unimodular_cone_still_raises(self):
        f = make_fan([(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NotUnimodular, match=r"\|det\| = 2"):
            toric.weight_data_from_fan(f)


class TestReconstruction:
    def test_round_trip_cp2(self):
        data = toric.weight_data_from_fan(CP2)
        assert fans_equal(toric.fan_from_weight_data(data), CP2)

    def test_round_trip_all_builtins(self):
        for name, f in complete_builtins().items():
            data = toric.weight_data_from_fan(f)
            assert fans_equal(toric.fan_from_weight_data(data), f), name

    def test_round_trip_subdivisions(self):
        for f in subdivision_iterates(seed=4):
            data = toric.weight_data_from_fan(f)
            assert fans_equal(toric.fan_from_weight_data(data), f)

    def test_single_standard_basis_gives_quadrant(self):
        data = toric.WeightData(2, (toric.WeightBasis("p", ((1, 0), (0, 1))),))
        assert fans_equal(toric.fan_from_weight_data(data), quadrant(2))

    def test_duplicate_cone_rejected(self):
        data = toric.WeightData(
            2,
            (
                toric.WeightBasis("p", ((1, 0), (0, 1))),
                toric.WeightBasis("q", ((1, 0), (0, 1))),
            ),
        )
        with pytest.raises(InconsistentData):
            toric.fan_from_weight_data(data)

    def test_axiom_violating_data_rejected(self):
        # second basis is dual to the cone pos((1,0),(1,1)), which crosses
        # the standard quadrant
        data = toric.WeightData(
            2,
            (
                toric.WeightBasis("p", ((1, 0), (0, 1))),
                toric.WeightBasis("q", ((1, -1), (0, 1))),
            ),
        )
        with pytest.raises(InconsistentData) as err:
            toric.fan_from_weight_data(data)
        assert err.value.report is not None
        assert not err.value.report.ok


def reference_reconstruction(data):
    """fan_from_weight_data by its first definition: one dual_basis per
    fixed point and a fan with no charts handed over."""
    ray_index, rays, cone_owner, cones = {}, [], {}, []
    for basis in data.bases:
        indices = []
        for g in lattice.dual_basis(basis.weights):
            if g not in ray_index:
                ray_index[g] = len(rays)
                rays.append(g)
            indices.append(ray_index[g])
        cone = tuple(sorted(indices))
        if cone in cone_owner:
            raise InconsistentData(
                f"fixed points {cone_owner[cone]!r} and {basis.fixed_point_id!r} "
                f"yield the same cone {set(cone)}"
            )
        cone_owner[cone] = basis.fixed_point_id
        cones.append(cone)
    result = make_fan(rays, cones, dim=data.dim)
    report = validate(result)
    if not report.ok:
        raise InconsistentData("assembled cones violate the fan axioms", report)
    return result


def reconstruction_outcome(call, data):
    try:
        f = call(data)
    except InconsistentData as e:
        return "InconsistentData", str(e), e.report
    return "ok", f.rays, f.maximal_cones


def gkm_corpus():
    """Weight data of the builtins, the subdivision iterates and their
    GL(n, Z) images, each also with its fixed points shuffled."""
    rng = random.Random(23)
    fans = list(complete_builtins().values()) + subdivision_iterates()
    fans += [image_under(random_unimodular(f.ambient_dim, rng), f) for f in fans]
    out = []
    for f in fans:
        data = toric.weight_data_from_fan(f)
        shuffled = list(data.bases)
        rng.shuffle(shuffled)
        out += [data, toric.WeightData(data.dim, tuple(shuffled))]
    return out


def image_under(m, f):
    """The fan of f's cones over the rays m * r, m in GL(n, Z)."""
    return make_fan([tuple(lattice.dot(row, r) for row in m) for r in f.rays],
                    f.maximal_cones)


@pytest.fixture
def dual_basis_calls(monkeypatch):
    calls = []
    original = lattice.dual_basis
    monkeypatch.setattr(lattice, "dual_basis", lambda g: calls.append(g) or original(g))
    return calls


def product_fan(a, b):
    """The product fan: rays (r, 0) and (0, s), cones c x d."""
    zero_a, zero_b = (0,) * a.ambient_dim, (0,) * b.ambient_dim
    rays = [r + zero_b for r in a.rays] + [zero_a + s for s in b.rays]
    shift = a.ray_count
    return make_fan(rays, [c + tuple(shift + i for i in d)
                           for c in a.maximal_cones for d in b.maximal_cones])


def p1_power(k):
    """(P^1)^k: rays +-e_i and 2^k maximal cones."""
    f = cp1()
    for _ in range(k - 1):
        f = product_fan(f, cp1())
    return f


PRODUCTS = [p1_power(k) for k in range(1, 7)] + [product_fan(cp1(), CP2),
                                                 product_fan(CP2, hirzebruch(1))]


class TestGKMReconstruction:
    def test_generators_are_the_dual_bases(self, dual_basis_calls):
        for data in gkm_corpus():
            del dual_basis_calls[:]
            f = toric.fan_from_weight_data(data)
            # one Hermite form per fixed point, on its own weights, in data order
            assert dual_basis_calls == [b.weights for b in data.bases]
            for basis in data.bases:
                gens = lattice.dual_basis(basis.weights)
                cone = tuple(sorted(f.rays.index(g) for g in gens))
                assert f.is_maximal(cone)
                assert sorted(f.charts[cone]) == sorted(basis.weights)

    def test_same_rays_cones_and_errors_as_the_reference(self):
        for data in gkm_corpus():
            assert reconstruction_outcome(toric.fan_from_weight_data, data) == \
                reconstruction_outcome(reference_reconstruction, data)

    def test_charts_handed_to_the_rebuilt_fan(self, dual_basis_calls):
        for data in gkm_corpus():
            f = toric.fan_from_weight_data(data)
            calls = len(dual_basis_calls)
            charts = f.charts
            assert len(dual_basis_calls) == calls
            assert charts == make_fan(f.rays, f.maximal_cones).charts

    def test_one_hermite_form_for_cpn10(self, dual_basis_calls):
        data = toric.weight_data_from_fan(cpn(10))
        del dual_basis_calls[:]
        f = toric.fan_from_weight_data(data)
        assert len(dual_basis_calls) == 11  # one per fixed point
        assert fans_equal(f, cpn(10))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.sampled_from(PRODUCTS), st.integers(0, 10 ** 6))
    def test_products_and_their_images_round_trip(self, f, seed):
        f = image_under(random_unimodular(f.ambient_dim, random.Random(seed)), f)
        data = toric.weight_data_from_fan(f)
        calls = []
        original = lattice.dual_basis
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "dual_basis", lambda g: calls.append(g) or original(g))
            rebuilt = toric.fan_from_weight_data(data)
            assert len(calls) == len(data.bases)
            assert fans_equal(rebuilt, f)
            assert None not in rebuilt.charts.values() and validate(rebuilt).ok
            assert len(calls) == len(data.bases)  # none on the rebuilt fan

    def test_p1_power_10_makes_one_hermite_form_per_fixed_point(self, dual_basis_calls):
        """No neighbour search: (P^1)^10 has 1024 fixed points, and each
        weight +-e_i is held by 512 of them; it makes 1024 Hermite forms."""
        data = toric.weight_data_from_fan(p1_power(10))
        del dual_basis_calls[:]
        f = toric.fan_from_weight_data(data)
        assert len(dual_basis_calls) == 1024
        assert len(f.maximal_cones) == 1024 and f.ray_count == 20

    def test_perturbed_neighbour_gives_the_reference_error(self, dual_basis_calls):
        """Adding one weight row to another at one fixed point keeps a
        Z-basis there but breaks the fan: each fixed point's weights are
        proven by their own dual basis and the fan-level check raises the
        reference's error."""
        rng = random.Random(5)
        perturbed = 0
        for f in list(complete_builtins().values())[1:] + subdivision_iterates():
            data = toric.weight_data_from_fan(f)
            bases = list(data.bases)
            q = rng.randrange(len(bases))
            k, m = rng.sample(range(data.dim), 2)
            rows = list(bases[q].weights)
            rows[k] = tuple(x + y for x, y in zip(rows[k], rows[m]))  # still a Z-basis
            bases[q] = toric.WeightBasis(bases[q].fixed_point_id, tuple(rows))
            data = toric.WeightData(data.dim, tuple(bases))
            del dual_basis_calls[:]
            got = reconstruction_outcome(toric.fan_from_weight_data, data)
            assert dual_basis_calls == [b.weights for b in data.bases]
            assert got[0] == "InconsistentData"
            assert got == reconstruction_outcome(reference_reconstruction, data)
            perturbed += 1
        assert perturbed == 16

    def test_a_failed_exchange_seeds_a_walk(self, dual_basis_calls):
        # q holds -e1 but (1, 1, 1) - <(1, 1, 1), e1> e1 is no weight of p,
        # so p and q are no GKM neighbours; each gets its own dual basis
        data = toric.WeightData(3, (
            toric.WeightBasis("p", ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
            toric.WeightBasis("q", ((-1, 0, 0), (0, 1, 0), (1, 1, 1))),
        ))
        got = reconstruction_outcome(toric.fan_from_weight_data, data)
        assert dual_basis_calls == [b.weights for b in data.bases]
        assert got == reconstruction_outcome(reference_reconstruction, data)

    def test_unchecked_non_bases_raise_with_their_det(self, dual_basis_calls):
        # built as parse_weight_data builds them, without a det: q's own
        # dual basis proves it is no Z-basis, whatever the order
        p = toric.WeightBasis.of_chart("p", ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        q = toric.WeightBasis.of_chart("q", ((-1, 0, 0), (0, 1, 0), (0, 1, 0)))
        for bases in [(p, q), (q, p)]:
            with pytest.raises(NotUnimodular, match=r"weights at q are not a Z-basis: \|det\| = 0"):
                toric.fan_from_weight_data(toric.WeightData(3, bases))
        two = toric.WeightBasis.of_chart("two", ((2, 0), (0, 1)))
        with pytest.raises(NotUnimodular, match=r"weights at two are not a Z-basis: \|det\| = 2"):
            toric.fan_from_weight_data(toric.WeightData(2, (two,)))

    def test_disconnected_points_seed_their_own_walks(self, dual_basis_calls):
        data = toric.WeightData(2, (
            toric.WeightBasis("p", ((1, 0), (0, 1))),
            toric.WeightBasis("q", ((1, 0), (0, 1))),
        ))
        with pytest.raises(InconsistentData, match="'p' and 'q' yield the same cone"):
            toric.fan_from_weight_data(data)
        assert len(dual_basis_calls) == 2

    def test_non_basis_reported_before_a_duplicate_cone(self):
        # every basis is proven before any cone is assembled
        bases = (toric.WeightBasis.of_chart("p", ((1, 0), (0, 1))),
                 toric.WeightBasis.of_chart("q", ((1, 0), (0, 1))),
                 toric.WeightBasis.of_chart("r", ((1, 1), (2, 2))))
        with pytest.raises(NotUnimodular,
                           match=r"^weights at r are not a Z-basis: \|det\| = 0, expected 1$"):
            toric.fan_from_weight_data(toric.WeightData(2, bases))
