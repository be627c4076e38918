"""Unimodular rational polyhedral cones.

A cone is stored as a sorted tuple of indices into a shared ray table; the
empty index set is the zero cone {0}.  Cones here are simplicial by
construction (independent generators), so faces are exactly the generator
subsets.  Membership tests and pairwise intersection are exact integer
lattice algebra: a cone's facet normals and span equations come from one
Hermite normal form of its transposed generators, cached on the cone, and
intersections from an incremental double description conversion, never
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import mul

from . import lattice
from .errors import DependentGenerators, MalformedInput, NotUnimodular
from .lattice import Vector


@dataclass(frozen=True)
class RayTable:
    """Ordered table of distinct primitive lattice vectors."""

    rays: tuple[Vector, ...]
    dim: int

    def __post_init__(self):
        for r in self.rays:
            if len(r) != self.dim:
                raise MalformedInput(f"ray {r} has length {len(r)}, expected {self.dim}")
            g = gcd(*r)
            if g == 0:
                raise MalformedInput("the zero vector cannot be a ray")
            if g != 1:
                raise MalformedInput(f"ray {r} is not primitive")
        if len(set(self.rays)) != len(self.rays):
            raise MalformedInput("duplicate rays in table")

    def __len__(self):
        return len(self.rays)

    def __getitem__(self, i):
        return self.rays[i]


def make_table(rays, dim=None) -> RayTable:
    try:
        rays = tuple(map(lattice.vec, rays))
    except ValueError as e:
        raise MalformedInput(f"rays must have integer entries: {e}") from None
    if dim is None:
        if not rays:
            raise MalformedInput("cannot infer the ambient dimension of an empty table")
        dim = len(rays[0])
    if dim < 1:
        raise MalformedInput("ambient dimension must be >= 1")
    return RayTable(rays, dim)


@dataclass(frozen=True)
class Cone:
    """Simplicial unimodular cone pos(table[i] for i in indices)."""

    table: RayTable
    indices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.indices)

    @property
    def ambient_dim(self) -> int:
        return self.table.dim

    @property
    def generators(self) -> tuple[Vector, ...]:
        return tuple(self.table[i] for i in self.indices)

    @cached_property
    def description(self):
        """(ineqs, eqns) of halfspace_description, computed once."""
        return halfspace_description(self.generators, self.ambient_dim)

    def __repr__(self):
        return f"Cone{set(self.indices) if self.indices else '{0}'}"


def make_cone(table: RayTable, indices) -> Cone:
    """Build and check a cone; generators must be independent and unimodular."""
    idx = tuple(sorted(indices))
    if len(set(idx)) != len(idx):
        raise MalformedInput(f"repeated ray index in {indices}")
    if idx and not (0 <= idx[0] and idx[-1] < len(table)):
        raise MalformedInput(f"ray index out of range in {indices}")
    c = Cone(table, idx)
    try:
        description = c.description
    except DependentGenerators:
        raise DependentGenerators(f"generators of {set(idx)} are dependent") from None
    if not unimodular(description, c.generators):
        raise NotUnimodular(f"generators of {set(idx)} are not part of a Z-basis")
    return c


def faces(c: Cone) -> frozenset[Cone]:
    """All faces of a simplicial cone: one per subset of its generators."""
    out = set()
    for k in range(c.dim + 1):
        for sub in combinations(c.indices, k):
            out.add(Cone(c.table, sub))
    return frozenset(out)


def contains(c: Cone, v) -> bool:
    """Exact membership of an integer or rational vector."""
    p = facet_pairings(c.description, v)
    return p is not None and all(x >= 0 for x in p)


def relative_interior_contains(c: Cone, v) -> bool:
    """Membership with strictly positive generator coefficients.

    For the zero cone this holds exactly for v = 0.
    """
    p = facet_pairings(c.description, v)
    return p is not None and all(x > 0 for x in p)


def facet_pairings(description, v):
    """Pairings of v with the facet normals of a cone described by
    (ineqs, eqns), or None if v is outside its span.  The i-th pairing has
    the sign of v's i-th generator coefficient."""
    ineqs, eqns = description
    if any(sum(map(mul, e, v)) for e in eqns):
        return None
    return [sum(map(mul, a, v)) for a in ineqs]


def intersect(c1: Cone, c2: Cone) -> tuple[Vector, ...]:
    """Extreme rays of c1 and c2's intersection, as primitive vectors.

    The result is the generator description of the (possibly non-face)
    intersection cone; the empty tuple is the zero cone.
    """
    if c1.table is not c2.table and c1.table != c2.table:
        raise MalformedInput("cones live on different ray tables")
    return intersect_descriptions(c1.description, c2.description, c1.ambient_dim)


def unimodular(description, generators) -> bool:
    """Do the generators of a cone with this (ineqs, eqns) description
    extend to a Z-basis?  Exactly when every facet normal pairs to 1 with
    its own generator: then the normals' pairings invert the generator
    matrix over Z, so the generators span a saturated sublattice."""
    return all(sum(map(mul, a, g)) == 1 for a, g in zip(description[0], generators))


def halfspace_description(generators, n):
    """Facet inequalities and span equations of a simplicial cone.

    Returns (ineqs, eqns): integer functionals with the cone equal to
    { x : <a, x> >= 0 for a in ineqs, <e, x> = 0 for e in eqns }.  ineqs[i]
    is primitive, positive on the i-th generator and zero on the others.

    One Hermite form H = U*G^T of the transposed k x n generator matrix
    gives both.  The generators are independent exactly when the diagonal
    of H's top k x k triangle T is nonzero; then the rows of U past k
    vanish on the generators and are the equations.  The rows U[:k] pair
    with the generators as T does: for a unimodular cone T is the
    identity and they are the normals (for a full-dimensional one, its
    dual basis as lattice.dual_basis gives it); for any other cone the
    i-th normal is y*U[:k] with y*T a positive multiple of e_i, found by
    integer back-substitution through the triangle.
    """
    k = len(generators)
    if k == 0:
        return (), tuple(lattice.identity(n))
    h, u = lattice.hnf(lattice.transpose(generators))
    if k > n or any(h[t][t] == 0 for t in range(k)):
        raise DependentGenerators("generators do not span a simplicial cone")
    if all(h[t][t] == 1 for t in range(k)):
        return u[:k], u[k:]
    normals = []
    for i in range(k):
        y = [0] * k
        y[i] = 1
        for j in range(i + 1, k):
            # scale y so that y[j] = -sum_{r<j} y[r] h[r][j] / h[j][j] is integral
            num = -sum(y[r] * h[r][j] for r in range(i, j))
            y = [x * h[j][j] for x in y]
            y[j] = num
        normals.append(lattice.primitive(
            [sum(y[r] * u[r][c] for r in range(i, k)) for c in range(n)]))
    return tuple(normals), u[k:]


def intersect_generators(gens1, gens2, n) -> tuple[Vector, ...]:
    """Extreme rays of the intersection of two simplicial cones in Z^n."""
    return intersect_descriptions(
        halfspace_description(gens1, n), halfspace_description(gens2, n), n
    )


def intersect_descriptions(desc1, desc2, n) -> tuple[Vector, ...]:
    """Extreme rays of the intersection of two cones in Z^n, each given as
    an (ineqs, eqns) pair as returned by halfspace_description."""
    ineq1, eq1 = desc1
    ineq2, eq2 = desc2
    eqns = eq1 + eq2
    ineqs = ineq1 + ineq2
    if eqns:
        span = lattice.integer_kernel_basis(eqns)
    else:
        span = lattice.identity(n)
    if not span:
        return ()
    # restrict the inequalities to coordinates on the joint span
    projected = tuple(
        tuple(lattice.dot(a, b) for b in span) for a in ineqs
    )
    rays_y = double_description(projected, len(span))
    out = set()
    for y in rays_y:
        x = tuple(sum(y[j] * span[j][i] for j in range(len(span))) for i in range(n))
        out.add(lattice.primitive(x))
    return tuple(sorted(out))


def double_description(ineqs, d) -> tuple[Vector, ...]:
    """Extreme rays of { y in R^d : <a, y> >= 0 for a in ineqs }.

    Incremental double description with explicit lineality handling; the
    final cone must be pointed (our callers intersect pointed cones).
    """
    lin = [list(row) for row in lattice.identity(d)]
    rays: list[tuple[Vector, frozenset]] = []

    def tight_set(v, upto):
        return frozenset(i for i in range(upto) if lattice.dot(ineqs[i], v) == 0)

    for idx, a in enumerate(ineqs):
        pivots = [lattice.dot(a, l) for l in lin]
        if any(pivots):
            i0 = next(i for i, s in enumerate(pivots) if s)
            l0, s0 = lin[i0], pivots[i0]
            if s0 < 0:
                l0, s0 = [-x for x in l0], -s0
            lin = [
                lattice.primitive([s0 * x - s * y for x, y in zip(l, l0)])
                for l, s in zip(lin, pivots)
                if l is not lin[i0]
            ]
            new_rays = []
            for v, _ in rays:
                s = lattice.dot(a, v)
                w = [s0 * x - s * y for x, y in zip(v, l0)]
                if any(w):
                    w = lattice.primitive(w)
                    new_rays.append((w, tight_set(w, idx + 1)))
            l0 = lattice.primitive(l0)
            new_rays.append((tuple(l0), tight_set(l0, idx + 1)))
            rays = new_rays
        else:
            vals = [(v, z, lattice.dot(a, v)) for v, z in rays]
            keep = [(v, z | ({idx} if s == 0 else set()), s)
                    for v, z, s in vals if s >= 0]
            neg = [(v, z, s) for v, z, s in vals if s < 0]
            born = []
            for vp, zp, sp in keep:
                if sp == 0:
                    continue
                for vn, zn, sn in neg:
                    common = zp & zn
                    # adjacency: no third ray of the old cone is tight
                    # wherever both vp and vn are
                    adjacent = not any(
                        z3 >= common
                        for v3, z3, _ in vals
                        if v3 != vp and v3 != vn
                    )
                    if not adjacent:
                        continue
                    w = [sp * x - sn * y for x, y in zip(vn, vp)]
                    if not any(w):
                        continue
                    w = lattice.primitive(w)
                    born.append((w, tight_set(w, idx + 1)))
            rays = [(v, frozenset(z)) for v, z, _ in keep] + born
        # deduplicate (lineality cuts can merge directions)
        seen = {}
        for v, z in rays:
            seen[v] = z
        rays = list(seen.items())
    if lin:
        raise ValueError("intersection cone is not pointed")
    return tuple(v for v, _ in rays)
