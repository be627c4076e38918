"""Toric manifold data attached to a fan.

Fixed points, isotropy weight bases, the chart atlas with its monomial
transition maps, the quotient presentation of the manifold, and the
reconstruction of a fan from fixed-point weight data.  The dictionary in
use throughout: the weights at a fixed point form the dual basis of the
corresponding full-dimensional cone's primitive generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import lattice
from .errors import InconsistentData, MalformedInput, NotMaximal, NotPure, NotUnimodular
from .fan import Fan, IndexSet, SimplicialComplex, make_fan, sigma, validate
from .lattice import Matrix, Vector


@dataclass(frozen=True)
class WeightBasis:
    """Isotropy weights at one fixed point; the rows are a Z-basis of the
    dual lattice, ordered to pair with the cone generators in ascending
    ray-index order."""

    fixed_point_id: str
    weights: Matrix

    def __post_init__(self):
        n = len(self.weights)
        if n == 0 or any(len(row) != n for row in self.weights):
            raise MalformedInput("weight basis must be square and nonempty")
        try:
            weights = lattice.mat(self.weights)
        except ValueError as e:
            raise MalformedInput(f"weights at {self.fixed_point_id}: {e}") from None
        if not lattice.is_part_of_basis(weights):
            raise NotUnimodular(f"weights at {self.fixed_point_id} are not a Z-basis")
        object.__setattr__(self, "weights", weights)

    @classmethod
    def of_chart(cls, fixed_point_id: str, weights: Matrix) -> "WeightBasis":
        """The basis of the given rows, built without the Z-basis check:
        for rows a fan has proven a Z-basis (a chart, see Fan.charts), and
        for parsed weight data, which fan_from_weight_data proves."""
        basis = object.__new__(cls)
        object.__setattr__(basis, "fixed_point_id", fixed_point_id)
        object.__setattr__(basis, "weights", weights)
        return basis

    @property
    def dim(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class WeightData:
    """One weight basis per fixed point."""

    dim: int
    bases: tuple[WeightBasis, ...]

    def __post_init__(self):
        if not self.bases:
            raise MalformedInput("weight data needs at least one fixed point")
        for b in self.bases:
            if b.dim != self.dim:
                raise MalformedInput(
                    f"weight basis at {b.fixed_point_id} has dimension {b.dim}, "
                    f"expected {self.dim}"
                )


@dataclass(frozen=True)
class MonomialMap:
    """Coordinate change w_j = prod_i z_i^(E_ji) for an exponent matrix E."""

    exponents: Matrix

    @classmethod
    def identity(cls, n: int) -> "MonomialMap":
        return cls(lattice.identity(n))

    def apply(self, coords):
        out = []
        for row in self.exponents:
            w = complex(1.0)
            for z, e in zip(coords, row):
                if e:
                    w *= z ** e
            out.append(w)
        return tuple(out)

    def after(self, inner: "MonomialMap") -> "MonomialMap":
        """The composite map applying `inner` first, then this map."""
        return MonomialMap(lattice.mat_mul(self.exponents, inner.exponents))

    def inverse(self) -> "MonomialMap":
        return MonomialMap(lattice.dual_basis(tuple(zip(*self.exponents))))


def fixed_points(f: Fan) -> tuple[IndexSet, ...]:
    """Index sets of the full-dimensional cones, in lexicographic order;
    these are in bijection with the fixed points."""
    n = f.ambient_dim
    return tuple(c for c in f.maximal_cones if len(c) == n)


def chart_label(indices) -> str:
    return "p" + "-".join(map(str, sorted(indices)))


def weight_matrix(f: Fan, cone_indices) -> Matrix:
    """The chart of a full-dimensional maximal cone (Fan.charts): the
    rows of its fixed point's weight basis.  Raises NotMaximal for any
    other index set and NotUnimodular when the cone has no chart."""
    c = tuple(sorted(cone_indices))
    if not f.is_maximal(c) or len(c) != f.ambient_dim:
        raise NotMaximal(
            f"{set(c) if c else '{}'} is not a "
            "full-dimensional maximal cone"
        )
    # a cone without a chart is not unimodular: dual_basis raises with its |det|
    return f.charts[c] or lattice.dual_basis(f.generators(c))


def isotropy_weights(f: Fan, cone_indices) -> WeightBasis:
    """Weight basis of the fixed point of a full-dimensional cone: the
    fan's chart, proven once, so no Hermite form runs here."""
    return WeightBasis.of_chart(chart_label(cone_indices), weight_matrix(f, cone_indices))


def transition(f: Fan, source, target) -> MonomialMap:
    """Exponent matrix of the chart change from `source` to `target`.

    Both charts' coordinates are characters of the torus, so the change is
    monomial with matrix A_target * A_source^(-1); the inverse of a weight
    matrix is the transposed generator matrix of its cone.
    """
    src = tuple(sorted(source))
    if not f.is_maximal(src) or len(src) != f.ambient_dim:
        raise NotMaximal(f"{set(src)} is not a full-dimensional maximal cone")
    a_target = weight_matrix(f, target)
    g_source = f.generators(src)
    exponents = tuple(
        tuple(sum(map(mul, arow, g)) for g in g_source) for arow in a_target
    )
    return MonomialMap(exponents)


@dataclass(frozen=True)
class QuotientPresentation:
    """Structural data of the quotient construction: the manifold is the
    set of points with an allowed zero set, modulo the kernel of the
    monomial homomorphism given by the ray matrix."""

    ray_count: int
    ray_matrix: Matrix
    kernel_basis: tuple[Vector, ...]
    component_group: tuple[int, ...]
    allowed_zero_sets: SimplicialComplex


def quotient_presentation(f: Fan) -> QuotientPresentation:
    """The quotient presentation, its kernel read off a chart.

    Let sigma be the first maximal cone with a chart, rays s_1..s_n and
    dual rows a_k.  Every ray v is sum_k <a_k, v> v_{s_k}, so for each ray
    r outside sigma, e_r - sum_k <a_k, v_r> e_{s_k} lies in the kernel of
    the ray matrix.  These r - n vectors are a Z-basis of it: an integer
    kernel vector minus their combination with its own entries outside
    sigma is a kernel vector supported on sigma, hence 0.  sigma's rays
    span the lattice, so the component group is trivial (Cox, J.
    Algebraic Geom. 4, 1995).  That is O(r n^2); a fan with no chart gets
    its kernel from the Hermite form of the ray matrix and its component
    group from one Smith form (lattice.kernel_and_invariant_factors).
    """
    rays = f.rays
    chart = next(((c, rows) for c, rows in f.charts.items() if rows is not None), None)
    if chart is not None:
        kernel, factors = _chart_kernel(rays, *chart), ()
    else:
        kernel, factors = (lattice.kernel_and_invariant_factors(lattice.transpose(rays))
                           if rays else ((), ()))
    return QuotientPresentation(
        ray_count=f.ray_count,
        ray_matrix=rays,
        kernel_basis=kernel,
        component_group=tuple(d for d in factors if d > 1),
        allowed_zero_sets=sigma(f),
    )


def _chart_kernel(rays, cone: IndexSet, rows: Matrix) -> tuple[Vector, ...]:
    """The kernel basis of quotient_presentation from the chart `rows` of
    the sorted `cone`, one vector per ray outside the cone, each
    sign-normalized (first nonzero entry positive) as a Hermite form's are."""
    inside = set(cone)
    kernel = []
    for r, v in enumerate(rays):
        if r in inside:
            continue
        k = [0] * len(rays)
        k[r] = 1
        for s, a in zip(cone, rows):
            k[s] = -sum(map(mul, a, v))
        if next((k[s] for s in cone if s < r and k[s]), 1) < 0:
            k = [-x for x in k]
        kernel.append(tuple(k))
    return tuple(kernel)


def weight_data_from_fan(f: Fan) -> WeightData:
    """Weight bases of all fixed points; requires a pure fan so the data
    determines the fan completely.  The charts are read from Fan.charts,
    one walk with a Hermite form per connected piece."""
    n = f.ambient_dim
    if any(len(c) != n for c in f.maximal_cones):
        bad = next(c for c in f.maximal_cones if len(c) != n)
        raise NotPure(
            f"cone {set(bad) if bad else '{}'} is not contained in a "
            "full-dimensional cone"
        )
    charts = f.charts
    # a cone without a chart goes to weight_matrix, which raises NotUnimodular
    return WeightData(n, tuple(
        WeightBasis.of_chart(chart_label(c), charts[c] or weight_matrix(f, c))
        for c in fixed_points(f)))


def fan_from_weight_data(data: WeightData) -> Fan:
    """Reconstruct the fan whose fixed-point weights are the given data.

    Each fixed point's cone is spanned by the dual basis of its weights,
    one lattice.dual_basis (one Hermite form) per fixed point.  Rays are
    the deduplicated dual-basis vectors across fixed points, numbered by
    first appearance in data order.  A fixed point's weights, in ascending
    ray order, are its cone's chart, so the rebuilt fan is handed its
    charts and validate runs no Hermite form.  Every basis is proven
    before any cone is assembled, so the data need not be checked first
    (formats.parse_weight_data does not): NotUnimodular names the first
    fixed point whose weights are not a Z-basis, with its |det|.  Raises
    InconsistentData when two fixed points produce the same cone or the
    assembled cones violate a fan axiom (then the data does not come from
    a toric manifold).
    """
    generators = []
    for basis in data.bases:
        try:
            generators.append(lattice.dual_basis(basis.weights))
        except NotUnimodular as e:
            raise NotUnimodular(
                f"weights at {basis.fixed_point_id} are not a Z-basis: {e}") from None
    ray_index: dict[Vector, int] = {}
    rays: list[Vector] = []
    cone_owner: dict[IndexSet, str] = {}
    cones: list[IndexSet] = []
    charts: dict[IndexSet, Matrix] = {}
    for basis, gens in zip(data.bases, generators):
        indices = []
        for g in gens:
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
        charts[cone] = tuple(row for _, row in sorted(zip(indices, basis.weights)))
    result = make_fan(rays, cones, dim=data.dim)
    result.charts = {c: charts[c] for c in result.maximal_cones}
    report = validate(result)
    if not report.ok:
        raise InconsistentData(
            "assembled cones violate the fan axioms", report
        )
    return result
